import json
import multiprocessing
import os
import resource
import socket
import subprocess
import sys
import threading
import time

import pytest

from nonlocalgames import cli, netplay, verification
from nonlocalgames.trials import TrialLog


def run_cli(capsys, *argv):
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:  # argparse rejects the arguments
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_show(capsys):
    code, out, _ = run_cli(capsys, "show", "cabello-restricted")
    assert code == 0
    assert "game cabello-restricted" in out
    assert "x1x2|x3z4" in out


def test_solve_four_party(capsys):
    code, out, _ = run_cli(capsys, "solve", "four-party")
    assert code == 0
    assert "classical value: 6/7 ≈ 0.857143" in out
    assert "best noncontextual assignment value: 6/7" in out


def test_solve_restricted(capsys):
    code, out, _ = run_cli(capsys, "solve", "cabello-restricted")
    assert code == 0
    assert "classical value: 1 ≈ 1.000000" in out


def test_solve_mermin(capsys):
    code, out, _ = run_cli(capsys, "solve", "mermin-ghz")
    assert code == 0
    assert "classical value: 3/4 ≈ 0.750000" in out


def test_solve_unknown_game_exit_2(capsys):
    code, _, err = run_cli(capsys, "solve", "tic-tac-toe")
    assert code == 2
    assert "known games" in err
    assert "four-party" in err


def test_solve_budget_exit_3(capsys):
    # four-party is one component of 8**3 outer strategies x 14 parities
    code, _, err = run_cli(capsys, "solve", "four-party", "--budget", "100")
    assert code == 3
    assert "budget" in err
    # the extended game's 14 components need 44 evaluations in all
    code, out, _ = run_cli(capsys, "solve", "cabello-extended", "--budget", "100")
    assert code == 0
    assert "outer strategies examined: 44" in out


def test_maxsat_named_sets(capsys):
    code, out, _ = run_cli(capsys, "maxsat", "fourteen")
    assert code == 0
    assert out.startswith("12/14 satisfied")
    assert "maximizing assignments: 64" in out

    code, out, _ = run_cli(capsys, "maxsat", "four")
    assert code == 0
    assert out.startswith("3/4 satisfied")


def test_maxsat_from_file(tmp_path, capsys):
    path = tmp_path / "eqs.txt"
    path.write_text("# a comment\n+1 x1 x2\n-1 x1 x2\n")
    code, out, _ = run_cli(capsys, "maxsat", "--file", str(path))
    assert code == 0
    assert out.startswith("1/2 satisfied")


def test_maxsat_counts_without_building_every_witness(tmp_path, capsys):
    # one parity over 20 variables: half of the 2**20 assignments satisfy it
    path = tmp_path / "twenty.txt"
    path.write_text("+1 " + " ".join(f"x{q}" for q in range(1, 21)) + "\n")
    code, out, _ = run_cli(capsys, "maxsat", "--file", str(path))
    assert code == 0
    assert out.splitlines()[:2] == ["1/1 satisfied", "maximizing assignments: 524288"]
    assert out.splitlines()[2].startswith("first witness: x1=+1 x2=+1")


def test_maxsat_needs_a_set(capsys):
    code, _, err = run_cli(capsys, "maxsat")
    assert code == 2


@pytest.mark.parametrize(
    "argv,file_text",
    [
        (["solve", "mermin-ghz", "--witnesses", "-1"], None),
        (["simulate", "cabello-restricted", "--rounds", "0"], None),
        (["serve", "cabello-restricted", "--rounds", "0", "--bind", "127.0.0.1:0"], None),
        (["maxsat", "--file"], None),  # the file does not exist
        (["maxsat", "--file"], "+1 x1 q3\n"),
        (["maxsat", "--file"], "+2 x1\n"),
        (["maxsat", "--file"], "-1 x1 y3\n+1 x1 x1\n"),
        (["serve", "four-party", "--rounds", "1", "--bind", "127.0.0.1:99999"], None),
        (["play", "four-party", "--party", "0", "--connect", "127.0.0.1:65536"], None),
        (["simulate", "four-party", "--seed", "-1"], None),
        (["serve", "four-party", "--seed", "-2", "--bind", "127.0.0.1:0"], None),
        (["solve", "four-party", "--workers", "2"], None),
        (["solve", "four-party", "--budget", "-1"], None),
        (["maxsat", "--file"], "# no equations\n\n"),
    ],
    ids=["negative-witnesses", "simulate-no-rounds", "serve-no-rounds",
         "missing-file", "bad-variable", "bad-sign", "repeated-variable",
         "serve-port-too-large", "play-port-too-large", "simulate-negative-seed",
         "serve-negative-seed", "workers-flag-is-gone", "negative-budget", "no-constraints"],
)
def test_bad_input_exits_2(tmp_path, capsys, argv, file_text):
    if argv[-1] == "--file":
        path = tmp_path / "eqs.txt"
        if file_text is not None:
            path.write_text(file_text)
        argv = argv + [str(path)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.strip() and not out


@pytest.mark.parametrize(
    "text,address",
    [("[::1]:4242", ("::1", 4242)), ("::1:4242", ("::1", 4242)), (":0", ("127.0.0.1", 0)),
     ("10.0.0.7:80", ("10.0.0.7", 80))],
    ids=["bracketed-ipv6", "bare-ipv6", "no-host", "ipv4"],
)
def test_host_port_parsing(text, address):
    assert cli._parse_host_port(text) == address


@pytest.mark.parametrize(
    "text",
    ["[::1]", "[::1:80", "::1]:80", "localhost", "host:http", "h:\u00b2", "h:\u0663"],
    ids=["no-port", "unclosed-bracket", "unopened-bracket", "no-colon", "named-port",
         "superscript-port", "arabic-indic-port"],
)
def test_a_malformed_host_port_exits_2(text):
    with pytest.raises(cli.CliError, match="expected HOST:PORT") as info:
        cli._parse_host_port(text)
    assert info.value.code == 2


def _serve_on_a_held_port(capsys, *argv):
    """Run ``serve`` bound to a port a test socket already listens on."""
    with socket.create_server(("127.0.0.1", 0)) as held:
        bind = "127.0.0.1:%d" % held.getsockname()[1]
        code, out, err = run_cli(capsys, "serve", "cabello-restricted", "--bind", bind, *argv)
    assert code == 2
    assert not out
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    return bind, err


def test_serve_on_a_port_in_use_exits_2(capsys):
    bind, err = _serve_on_a_held_port(capsys)
    assert err.startswith(f"cannot bind {bind}: ")


def test_serve_with_an_unwritable_out_exits_2_before_binding(tmp_path, capsys):
    # the port is held too: a bind tried first would be the error named
    path = tmp_path / "missing" / "log.jsonl"
    _, err = _serve_on_a_held_port(capsys, "--out", str(path))
    assert err.startswith(f"cannot write {path}: ")
    assert not path.parent.exists()


def test_simulate_lambda_mu(capsys):
    code, out, _ = run_cli(
        capsys,
        "simulate", "cabello-restricted",
        "--strategy", "lambda-mu", "--rounds", "3000", "--seed", "4",
    )
    assert code == 0
    assert "win rate: 1.000000" in out


def test_simulate_records_format(capsys):
    code, out, _ = run_cli(
        capsys,
        "simulate", "mermin-ghz",
        "--strategy", "best-classical", "--rounds", "400", "--seed", "7",
        "--format", "records",
    )
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert records[0]["type"] == "summary"
    assert records[0]["rounds"] == 400
    assert 0.6 <= records[0]["win_rate"] <= 0.9


def test_simulate_reference_flag(capsys):
    code, out, _ = run_cli(
        capsys,
        "simulate", "cabello-restricted",
        "--strategy", "quantum", "--rounds", "2000", "--seed", "1",
        "--reference",
    )
    assert code == 0
    assert "max context TV distance" in out


def test_simulate_unknown_strategy_exit_2(capsys):
    code, _, err = run_cli(capsys, "simulate", "four-party", "--strategy", "psychic")
    assert code == 2
    assert err.startswith("unknown strategy 'psychic' for game four-party")


def _lower_address_space():
    # this child alone; 1 GiB is far below the sessions asked for below
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("rounds", ["100000000", "10000000000000"])
def test_session_too_large_for_memory_exits_3(rounds):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src"), env.get("PYTHONPATH", "")]
    )
    done = subprocess.run(
        [sys.executable, "-m", "nonlocalgames.cli", "simulate", "four-party", "--rounds", rounds],
        env=env, capture_output=True, text=True, timeout=120, preexec_fn=_lower_address_space,
    )
    assert done.returncode == cli.EXIT_BUDGET, done.stderr
    assert done.stderr.startswith("out of memory: ")
    assert len(done.stderr.splitlines()) == 1
    assert done.stdout == ""


def test_output_deterministic(capsys):
    args = ("simulate", "four-party", "--strategy", "quantum",
            "--rounds", "500", "--seed", "9")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_serve_with_no_player_exits_4(capsys, monkeypatch):
    monkeypatch.setattr(netplay, "_PEER_TIMEOUT_S", 0.2)
    code, out, err = run_cli(
        capsys, "serve", "cabello-restricted", "--rounds", "1", "--bind", "127.0.0.1:0"
    )
    assert code == 4 and not out
    assert err == "session aborted: party 0, 1 did not say hello within 0.2 s\n"


def test_serve_and_play_over_loopback(tmp_path, capsys):
    port = _free_port()
    players = [
        multiprocessing.Process(
            target=_play_when_up,
            args=(port, "cabello-restricted", "automaton", party),
            daemon=True,
        )
        for party in range(2)
    ]
    for p in players:
        p.start()
    out_path = tmp_path / "log.jsonl"
    code, out, _ = run_cli(
        capsys,
        "serve", "cabello-restricted",
        "--bind", f"127.0.0.1:{port}",
        "--strategy", "automaton", "--rounds", "60", "--seed", "2",
        "--out", str(out_path),
    )
    for p in players:
        p.join(timeout=20)
    assert [p.exitcode for p in players] == [0, 0]
    assert code == 0
    assert "win rate: 1.000000" in out
    log = TrialLog.from_jsonl(out_path.read_text())
    assert len(log.records) == 60 and log.complete


def test_serve_with_a_bad_hello_exits_4(capsys):
    port = _free_port()

    def hello_as_party_9():
        # the serving side needs a moment to bind; retry while refused
        deadline = time.monotonic() + 15
        while time.monotonic() < deadline:
            try:
                conn = socket.create_connection(("127.0.0.1", port))
            except ConnectionRefusedError:
                time.sleep(0.05)
                continue
            with conn:
                conn.sendall(netplay.encode_message(
                    {"type": "hello", "party": 9, "protocol_version": 1}
                ))
            return

    client = threading.Thread(target=hello_as_party_9, daemon=True)
    client.start()
    code, out, err = run_cli(
        capsys, "serve", "cabello-restricted", "--rounds", "1", "--bind", f"127.0.0.1:{port}"
    )
    client.join(timeout=10)
    assert code == 4 and not out
    assert err == "protocol error: bad party index 9\n"


def _free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def _play_when_up(port: int, game: str, strategy: str, party: int) -> None:
    # the serving side needs a moment to bind; retry while refused
    deadline = time.monotonic() + 15
    code = 1
    while time.monotonic() < deadline:
        code = cli.main(
            ["play", game, "--connect", f"127.0.0.1:{port}",
             "--party", str(party), "--strategy", strategy]
        )
        if code == 0:
            break
        time.sleep(0.05)
    raise SystemExit(code)


def test_verify_reports_every_criterion(capsys):
    code, out, _ = run_cli(capsys, "verify")
    for criterion in range(1, 12):
        assert f"criterion {criterion:02d}" in out
    # the verdict line is the last one
    assert out.strip().splitlines()[-1] == "11/11 checks passed"
    assert code == 0


@pytest.mark.parametrize(
    "criterion,row",
    [
        (3, lambda n, claim, bound_s, check: (n, claim, bound_s, lambda: (False, "patched"))),
        (7, lambda n, claim, bound_s, check: (n, claim, 0.0, check)),  # every run overruns
    ],
    ids=["check-fails", "check-overruns-its-bound"],
)
def test_verify_fails_when_one_criterion_does(capsys, monkeypatch, criterion, row):
    rows = [row(*r) if r[0] == criterion else r for r in verification.CRITERIA]
    monkeypatch.setattr(verification, "CRITERIA", tuple(rows))
    code, out, _ = run_cli(capsys, "verify")
    assert code == cli.EXIT_VERIFY_FAILED
    assert out.count("[FAIL]") == 1
    assert f"[FAIL] criterion {criterion:02d}" in out
    assert out.strip().splitlines()[-1] == "10/11 checks passed"


def test_play_rejects_a_strategy_the_game_lacks_before_connecting(capsys):
    # port 1 refuses connections: reaching it would exit 4, not 2
    code, _, err = run_cli(
        capsys,
        "play", "four-party", "--connect", "127.0.0.1:1",
        "--party", "0", "--strategy", "lambda-mu",
    )
    assert code == 2
    assert "lambda-mu" in err


def test_play_rejects_a_party_the_game_lacks_before_connecting(capsys):
    code, _, err = run_cli(
        capsys,
        "play", "cabello-restricted", "--connect", "127.0.0.1:1",
        "--party", "7", "--strategy", "automaton",
    )
    assert code == 2
    assert "party" in err
