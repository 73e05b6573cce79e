import base64
import hashlib
import json
import multiprocessing
import os
import pickle
import random
import socket
import struct
import threading
import time
from dataclasses import dataclass
from itertools import product
from types import SimpleNamespace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nonlocalgames import netplay, verification
from nonlocalgames.classical import automaton_model, lambda_mu_model
from nonlocalgames.games import (
    ALWAYS_WIN,
    GAME_BUILDERS,
    cabello_extended,
    cabello_restricted,
    four_party_game,
    mermin_ghz,
)
from nonlocalgames.netplay import (
    PartyStrategy,
    ProtocolError,
    RefereeServer,
    build_party_strategy,
    decode_message,
    decode_tape,
    encode_message,
    run_local_session,
    run_player,
)
from nonlocalgames.trials import CATALOG, presample, quantum_strategy, resolve_strategy, run_trials


# ---------------------------------------------------------------------------
# framing and tapes
# ---------------------------------------------------------------------------


def test_message_round_trip():
    message = {"type": "question", "round": 3, "observables": [{"slot": 1, "kind": "x"}]}
    assert decode_message(encode_message(message)) == message


def test_unknown_fields_are_preserved_not_fatal():
    line = json.dumps({"type": "answer", "round": 0, "values": [1], "debug": "yes"}).encode()
    decoded = decode_message(line + b"\n")
    assert decoded["values"] == [1]


def test_malformed_messages_rejected():
    with pytest.raises(ProtocolError):
        decode_message(b"not json\n")
    with pytest.raises(ProtocolError):
        decode_message(b"[1, 2, 3]\n")
    with pytest.raises(ProtocolError):
        decode_message(b'{"no_type": 1}\n')


@pytest.mark.parametrize("length", [0, 1, 7, 8, 9, 30])
def test_tape_round_trip(length):
    values = tuple((-1) ** i for i in range(length))
    [line] = netplay._deal_lines(values)
    # a tape is whole bytes: the values, then +1 up to the byte's end
    decoded = decode_tape(decode_message(line)["tape"])
    assert decoded == values + (1,) * (-length % 8)


def test_tape_rejects_non_pm_one():
    with pytest.raises(ValueError):
        netplay._deal_lines((1, 0, -1))


def _packed_bit_by_bit(values):
    packed = bytearray((len(values) + 7) // 8)
    for i, v in enumerate(values):
        if v == -1:
            packed[i // 8] |= 1 << (i % 8)
    return bytes(packed)


@settings(max_examples=200, deadline=None)
@given(values=st.lists(st.sampled_from((1, -1)), max_size=2000))
def test_tape_codec_matches_a_bit_by_bit_reference(values):
    [line] = netplay._deal_lines(values)
    # the referee deals an int8 table's rows
    assert netplay._deal_lines(np.array(values, dtype=np.int8).reshape(-1, 1)) == [line]
    tape = decode_message(line)["tape"]
    packed = base64.b64decode(tape)
    assert packed == _packed_bit_by_bit(values)
    decoded = decode_tape(tape)
    assert decoded == tuple(
        -1 if packed[i // 8] >> (i % 8) & 1 else 1 for i in range(len(packed) * 8)
    )
    assert decoded[: len(values)] == tuple(values)


@pytest.mark.parametrize("name", sorted(GAME_BUILDERS))
def test_question_and_answer_templates_are_canonical(name):
    game = GAME_BUILDERS[name]()
    for context in game.contexts:
        for question in context.questions:
            tail = netplay._question_tail([(o.qubit, o.kind) for o in question.measured])
            for r in (0, 7, 63, 123456):
                message = {
                    "type": "question",
                    "round": r,
                    "observables": [
                        {"slot": o.qubit, "kind": o.kind} for o in question.measured
                    ],
                }
                assert b"%s%d%s" % (netplay._QUESTION_HEAD, r, tail) == encode_message(message)
            # every answer a plan can hold, as the referee expects it
            for values in product((1, -1), repeat=question.answer_arity):
                ending = netplay._answer_ending(values)
                for r in (0, 7, 63, 123456):
                    answer = {"type": "answer", "round": r, "values": list(values)}
                    assert b"%s%d%s" % (netplay._ANSWER_HEAD, r, ending) == encode_message(answer)


def test_short_tape_is_dealt_in_one_line():
    for values in [(), (1, -1, -1), tuple((-1) ** (i // 3) for i in range(5000))]:
        [line] = netplay._deal_lines(values)
        decoded = decode_tape(decode_message(line)["tape"])
        assert decoded[: len(values)] == values and set(decoded[len(values) :]) <= {1}


@pytest.mark.parametrize("max_line", [64, 65, 66, 67, 200])
def test_long_tape_is_dealt_within_the_line_limit(monkeypatch, max_line):
    monkeypatch.setattr(netplay, "_MAX_LINE", max_line)
    values = tuple(-1 if (i * 7) % 5 < 2 else 1 for i in range(3001))
    lines = netplay._deal_lines(values)
    assert len(lines) > 1
    pieces = [decode_message(line)["tape"] for line in lines]
    assert all(len(line) <= max_line for line in lines)
    # only the last piece may end in padding
    assert all(not piece.endswith("=") for piece in pieces[:-1])
    joined = sum((decode_tape(piece) for piece in pieces), ())
    assert joined[: len(values)] == values
    assert set(joined[len(values) :]) <= {1}


# ---------------------------------------------------------------------------
# mode equivalence (the core contract)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "game,strategy,rounds",
    [
        (cabello_restricted(), lambda_mu_model(), 0),
        # lambda-mu has no answer to the extended game's other questions
        (cabello_extended(), lambda_mu_model(), 10),
    ],
    ids=["no-rounds", "strategy-the-game-lacks"],
)
def test_a_session_that_cannot_be_planned_fails_before_any_player_starts(game, strategy, rounds):
    # planned after the players started, it kept them waiting to be joined
    start = time.monotonic()
    with pytest.raises(ValueError):
        run_local_session(game, strategy, rounds=rounds, seed=0)
    assert time.monotonic() - start < 5


def test_a_session_that_cannot_be_planned_starts_no_player(monkeypatch):
    # a failed serve ends the players at once, so only this shows that the
    # session is planned before they start
    started = []
    start = multiprocessing.process.BaseProcess.start

    def spy(proc):
        started.append(proc)
        start(proc)

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", spy)
    with pytest.raises(ValueError):
        run_local_session(cabello_restricted(), lambda_mu_model(), rounds=0, seed=0)
    assert started == []


def test_serve_before_bind_is_an_error():
    server = RefereeServer(cabello_restricted(), 5, 0, automaton_model())
    with pytest.raises(RuntimeError, match=r"^bind\(\) must be called before serve\(\)$"):
        server.serve()


def test_a_failed_serve_ends_the_players_at_once():
    # the referee raises on the first hello it reads; the other player's
    # connection waits, unaccepted, on the listener both players inherited
    game = cabello_restricted()
    start = time.monotonic()
    with pytest.raises(ProtocolError, match="bad party index 7"):
        run_local_session(
            game, lambda_mu_model(), rounds=10, seed=0, player_specs=[PartyStrategy(party=7)] * 2
        )
    assert time.monotonic() - start < 5


@pytest.mark.parametrize(
    "game_builder,strategy_builder,rounds,seed",
    [
        (four_party_game, lambda g: quantum_strategy(g), 300, 42),
        (cabello_restricted, lambda g: lambda_mu_model(), 300, 5),
        (cabello_restricted, lambda g: automaton_model(), 150, 9),
        (mermin_ghz, lambda g: quantum_strategy(g), 200, 1),
        (cabello_extended, lambda g: quantum_strategy(g), 150, 3),
    ],
)
def test_distributed_matches_in_process(game_builder, strategy_builder, rounds, seed):
    game = game_builder()
    strategy = strategy_builder(game)
    in_process = run_trials(game, strategy, rounds=rounds, seed=seed)
    distributed = run_local_session(game, strategy, rounds=rounds, seed=seed)
    assert in_process == distributed
    assert in_process.to_jsonl() == distributed.to_jsonl()


@pytest.mark.parametrize(
    "name,strategy_name",
    [
        (name, strategy_name)
        for name in sorted(CATALOG)
        for strategy_name in ["quantum", "best-classical", *CATALOG[name].models]
    ],
)
def test_players_cross_a_process_boundary_by_value(name, strategy_name):
    # a player process started by spawn or forkserver gets its player pickled
    game = GAME_BUILDERS[name]()
    strategy = resolve_strategy(game, strategy_name)
    plans = presample(game, strategy, 300, 17)
    for party in range(game.parties):
        player = build_party_strategy(game, strategy, party)
        copy = pickle.loads(pickle.dumps(player))
        tape = tuple(v for plan in plans for v in plan.tapes[party])
        player.set_tape(tape)
        copy.set_tape(tape)
        for r, plan in enumerate(plans):
            question = plan.context.questions[party]
            observables = [(o.qubit, o.kind) for o in question.measured]
            expected = list(plan.answers[party])
            assert player.answer(r, observables) == expected
            assert copy.answer(r, observables) == expected


def test_a_lambda_mu_model_compares_equal_to_a_rebuilt_or_pickled_one():
    # its responders are module functions, equal by identity after a pickle
    assert lambda_mu_model() == lambda_mu_model()
    player = build_party_strategy(cabello_restricted(), lambda_mu_model(), 1)
    assert pickle.loads(pickle.dumps(player)) == player


def test_a_player_without_a_strategy_has_no_questions():
    with pytest.raises(ProtocolError, match="party 0: asked a foreign question"):
        PartyStrategy(party=0).answer(0, [(1, "x"), (2, "x")])


def _lambda_mu_player(party, tape):
    game = cabello_restricted()
    player = build_party_strategy(game, lambda_mu_model(), party)
    player.set_tape(tape)
    return player


def test_one_question_is_answered_by_each_rounds_tape_slice():
    # rounds 0 and 1 ask one question with different slices, so the memo
    # must tell them apart by the slice
    player = _lambda_mu_player(0, (1, 1, 1) + (-1, -1, 1))
    observables, question = next(iter(player.questions.items()))
    for r in (0, 1, 0, 1):
        row = player._tape[3 * r : 3 * r + 3]
        assert player.answer(r, observables) == list(player.strategy.respond(0, question, row))
    assert player.answer(0, observables) != player.answer(1, observables)


def test_a_memo_hit_still_needs_a_round():
    # a width-0 tape slices to () at any round, round -1 included
    game = cabello_restricted()
    player = build_party_strategy(game, resolve_strategy(game, "best-classical"), 0)
    assert player.width == 0
    observables = next(iter(player.questions))
    player.answer(0, observables)
    with pytest.raises(ProtocolError, match=r"^party 0: no tape for round -1$"):
        player.answer(-1, observables)


def test_the_answer_list_is_the_callers():
    player = _lambda_mu_player(1, (1, -1, -1))
    observables = next(iter(player.questions))
    values = player.answer(0, observables)
    expected = list(values)
    values[0] = -values[0]
    assert player.answer(0, observables) == expected


def test_a_round_past_the_tape_is_refused():
    player = _lambda_mu_player(1, (1, -1, -1) * 2)
    observables = next(iter(player.questions))
    player.answer(1, observables)
    with pytest.raises(ProtocolError, match=r"^party 1: no tape for round 2$"):
        player.answer(2, observables)


WINDOW_CASES = [
    (four_party_game, lambda g: quantum_strategy(g), 300, 42),
    (cabello_restricted, lambda g: lambda_mu_model(), 300, 5),
    (cabello_restricted, lambda g: automaton_model(), 150, 9),
    (mermin_ghz, lambda g: quantum_strategy(g), 200, 1),
    (cabello_extended, lambda g: quantum_strategy(g), 150, 3),
    # whole windows, and one round past them
    (cabello_restricted, lambda g: lambda_mu_model(), 128, 6),
    (four_party_game, lambda g: quantum_strategy(g), 129, 7),
    # longer than two whole windows of the default size
    (cabello_restricted, lambda g: lambda_mu_model(), 1100, 11),
]


@pytest.mark.parametrize("game_builder,strategy_builder,rounds,seed", WINDOW_CASES)
def test_window_leaves_transcripts_and_logs_unchanged(
    monkeypatch, game_builder, strategy_builder, rounds, seed
):
    game = game_builder()
    strategy = strategy_builder(game)
    sessions = []
    for window in (1, netplay._WINDOW):
        monkeypatch.setattr(netplay, "_WINDOW", window)
        transcript: dict[int, list[bytes]] = {}
        log = run_local_session(game, strategy, rounds=rounds, seed=seed, transcript=transcript)
        sessions.append((log.to_jsonl(), transcript))
    assert sessions[0] == sessions[1]
    assert sessions[0][0] == run_trials(game, strategy, rounds=rounds, seed=seed).to_jsonl()


#: per catalog game and strategy, the sha256 of each party's referee-to-player
#: lines in a 100-round session of seed 8; a change here changes the wire bytes
PINNED_TRANSCRIPTS = {
    ("cabello-restricted", "quantum"): (
        "68f3d49e60f50c0e8a33ba36d2a2dd6c047a8a3e8c15290c76fe1a6637515546",
        "daad223fca22829d8185cfa8ab8fd69dfc7523913c178754b2e68b7f7b86f627",
    ),
    ("cabello-restricted", "lambda-mu"): (
        "4f7382958de38e4a7cc92a965ba3cf0cff6981308197cc26d03a51c5098062af",
        "de63f0866268fe134c5e5025bcb9e846152a220b47a1d98c6f81a7a7edea1dfe",
    ),
    ("cabello-restricted", "automaton"): (
        "958f5e1fb66a0bf612ea4e1e2c5ec7a9021e4aedfda50b1eee4bfa24d630e906",
        "506808693f3e074f08c7ef4636c8001d8f5c58797e11556475b086685f78a041",
    ),
    ("cabello-restricted", "best-classical"): (
        "958f5e1fb66a0bf612ea4e1e2c5ec7a9021e4aedfda50b1eee4bfa24d630e906",
        "506808693f3e074f08c7ef4636c8001d8f5c58797e11556475b086685f78a041",
    ),
    ("cabello-extended", "quantum"): (
        "287185ceba02fe900813dadc8a9d07b2f0f31b218bd6384c8b8d6bb4d0a1aed4",
        "7f90f21ec4dd5cbfb788a9af6d4c2a9b9965c20e220f266ca96740abf6ddf844",
    ),
    ("cabello-extended", "best-classical"): (
        "86e9a6a4dac84dcb6558c2319e7fa3ea53027e30b8deaa5c9a4864ceb72e7135",
        "3bfad3b2bd8fb3891b12ef74cd3a1423da307b66b3a825173d0e3a4b1f58cb48",
    ),
    ("four-party", "quantum"): (
        "c9857aeb9ff60fa76db0d1b5b1ddc9aad841572a7f96795c2ec48d7ddcec2c4e",
        "2be072f07ee9cca17983540daab688bed8263cc10ceb0020003c3544faa102cd",
        "e51bd1a8b6b2532b17e5af188e4f75f95f0c81e346145ceb1ba8cefa10543161",
        "72b93aa32446337639f3718419e4de40d99464f8c86dae2884695381fa4bbaa9",
    ),
    ("four-party", "best-classical"): (
        "0cc26febc77cefbfb25dece0e0a58f41a82fa85365ff1df09a830583d9ce4264",
        "8bc4aaadcebe849af8bf9a310649587449f351c2917c9e84e3118a5f0ffea553",
        "6a391f11d0458fb468b6e764d050671b4aea79e5232309e997be79181c19f8ab",
        "2949268dc07a79e76740a4c77967c9eba1aa1562b65a238a703649e03600900c",
    ),
    ("mermin-ghz", "quantum"): (
        "c9456653149df6953b03fddda9f64967ba48b85f08aeec62bf9ebc78df562288",
        "6c0c16f874d5b690f609c8460fb68dbf962aacfc7dfc16a58ee60bc2703efe7d",
        "d9a0faab7ccb81e84fb47fbf943dc4e64109389863d0a4afa3511f17b3e937aa",
    ),
    ("mermin-ghz", "best-classical"): (
        "63188763f6770bfb6c07e2ffe2101571074c48766a03a4a36570b411ea6e6837",
        "03a7a72230683513e340224a28cbf7b1c48a4662d890eb291f66c22d3786e4ab",
        "bcba085ce1b7d17daf7a265e8e868f56674859e45cd236ee4d30aee3f1526b9c",
    ),
}


def _transcript_digests(game, strategy, rounds, seed):
    transcript: dict[int, list[bytes]] = {}
    run_local_session(game, strategy, rounds=rounds, seed=seed, transcript=transcript)
    return tuple(hashlib.sha256(b"".join(transcript[p])).hexdigest() for p in sorted(transcript))


@pytest.mark.parametrize(
    "name,strategy_name",
    [
        (name, strategy_name)
        for name, entry in CATALOG.items()
        for strategy_name in ("quantum", *entry.models, "best-classical")
    ],
)
def test_referee_transcripts_are_pinned(name, strategy_name):
    game = GAME_BUILDERS[name]()
    strategy = resolve_strategy(game, strategy_name)
    digests = _transcript_digests(game, strategy, 100, 8)
    assert digests == PINNED_TRANSCRIPTS[name, strategy_name]


def test_a_tape_dealt_in_several_lines_is_pinned(monkeypatch):
    # the forked players read with the same limit
    monkeypatch.setattr(netplay, "_MAX_LINE", 256)
    # 9000 tape values are 1125 bytes, 171 a line
    assert len(netplay._deal_lines((1,) * 9000)) == 7
    game = cabello_restricted()
    assert _transcript_digests(game, lambda_mu_model(), 3000, 3) == (
        "7ec6c58acc69e20f6f1c78144386ad103b5565e493670235ba72ab43b36f3632",
        "a70e13ffdc6b846ff01146d87e3ced848ee142f94675e42017748a840dd7ca29",
    )


def _lock_step_player(address, player, encode, delay=0.0):
    """A player that sends each answer as soon as it has it, in ``encode``'s
    layout, ``delay`` seconds after its question."""
    with socket.create_connection(address) as s:
        f = s.makefile("rwb")
        hello = {"type": "hello", "party": player.party, "protocol_version": 1}
        f.write(encode_message(hello))
        f.flush()
        while True:
            message = decode_message(f.readline())
            if message["type"] == "dealt":
                player.set_tape(decode_tape(message["tape"]))
            elif message["type"] == "question":
                observables = [(o["slot"], o["kind"]) for o in message["observables"]]
                values = player.answer(message["round"], observables)
                time.sleep(delay)
                f.write(encode({"type": "answer", "round": message["round"], "values": values}))
                f.flush()
            else:
                return message


def _replay_calls(monkeypatch):
    """The round of every answer the referee decodes, one entry per
    ``_Seat.read_answer`` call."""
    rounds = []
    read_answer = netplay._Seat.read_answer

    def counting(seat, r, arity):
        rounds.append(r)
        return read_answer(seat, r, arity)

    monkeypatch.setattr(netplay._Seat, "read_answer", counting)
    return rounds


def _repeated_key(message):
    """``message`` with its values written twice, first negated; JSON keeps the last."""
    decoy = encode_message({**message, "values": [-v for v in message["values"]]})
    return decoy[:-2] + b',"values":' + json.dumps(message["values"]).encode() + b"}\n"


@pytest.mark.parametrize(
    "encode,decoded_answers",
    [
        (encode_message, 0),
        (lambda message: json.dumps(dict(reversed(message.items()))).encode() + b"\n", 300),
        (lambda message: json.dumps(message).encode() + b"\n", 300),
        (_repeated_key, 300),
    ],
    ids=["canonical", "reordered-spaced", "spaced", "repeated-key"],
)
def test_lock_step_player_in_any_layout_still_plays(monkeypatch, encode, decoded_answers):
    game = cabello_restricted()
    strategy = lambda_mu_model()
    replayed = _replay_calls(monkeypatch)
    decoded = []
    decode = netplay.decode_message

    def recording(line):
        message = decode(line)
        decoded.append(message["type"])
        return message

    with patch.object(netplay, "decode_message", recording):
        address, thread, box = _serve_in_thread(game, strategy, 150, 12)
        ends = []
        players = [
            threading.Thread(
                target=lambda p=party: ends.append(
                    _lock_step_player(address, build_party_strategy(game, strategy, p), encode)
                ),
                daemon=True,
            )
            for party in range(2)
        ]
        for p in players:
            p.start()
        thread.join(timeout=20)
        for p in players:
            p.join(timeout=10)
    # canonical answers are matched a window at a time; any other layout
    # sends the referee back to decoding its window round by round, and
    # scores the same
    assert decoded.count("answer") == len(replayed) == decoded_answers
    assert box["log"] == run_trials(game, strategy, rounds=150, seed=12)
    assert ends == [{"type": "end", "reason": "complete"}] * 2


def _piecewise_player(address, player, sizes):
    """A lock-step player that writes each answer line in pieces of the
    sizes ``sizes`` yields, each in its own segment."""
    with socket.create_connection(address) as s:
        s.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        f = s.makefile("rb")
        s.sendall(_hello(player.party))
        tape = []
        for line in f:
            message = decode_message(line)
            if message["type"] == "dealt":
                tape.extend(decode_tape(message["tape"]))
                player.set_tape(tuple(tape))
            elif message["type"] == "question":
                observables = [(o["slot"], o["kind"]) for o in message["observables"]]
                values = player.answer(message["round"], observables)
                data = encode_message({"type": "answer", "round": message["round"], "values": values})
                while data:
                    size = next(sizes)
                    s.sendall(data[:size])
                    data = data[size:]
            else:
                return message


def test_a_session_over_ipv6_loopback():
    try:
        with socket.socket(socket.AF_INET6) as probe:
            probe.bind(("::1", 0))
    except OSError:
        pytest.skip("this host has no IPv6 loopback")
    game = cabello_restricted()
    strategy = lambda_mu_model()
    server = RefereeServer(game, 20, 3, strategy)
    address = server.bind(("::1", 0))[:2]
    players = [
        threading.Thread(
            target=run_player, args=(address, build_party_strategy(game, strategy, p)), daemon=True
        )
        for p in range(2)
    ]
    for p in players:
        p.start()
    log = server.serve()
    for p in players:
        p.join(timeout=10)
        assert not p.is_alive()
    assert log == run_trials(game, strategy, rounds=20, seed=3)


@pytest.mark.parametrize("pieces", ["one-byte", "random"])
def test_answers_written_in_pieces_give_the_same_session(monkeypatch, pieces):
    # the referee sees partial lines, which take must wait on
    monkeypatch.setattr(netplay, "_WINDOW", 16)
    game = cabello_restricted()
    strategy = lambda_mu_model()
    transcript: dict[int, list[bytes]] = {}
    expected = run_local_session(game, strategy, rounds=80, seed=21, transcript=transcript)
    server = RefereeServer(game, 80, 21, strategy, transcript={})
    address = server.bind(("127.0.0.1", 0))[:2]
    rng = random.Random(pieces)
    sizes = {
        "one-byte": lambda: iter(lambda: 1, None),
        "random": lambda: iter(lambda: rng.randint(1, 60), None),
    }[pieces]
    ends = []
    players = [
        threading.Thread(
            target=lambda p=party: ends.append(
                _piecewise_player(address, build_party_strategy(game, strategy, p), sizes())
            ),
            daemon=True,
        )
        for party in range(2)
    ]
    for p in players:
        p.start()
    log = server.serve()
    for p in players:
        p.join(timeout=10)
    assert ends == [{"type": "end", "reason": "complete"}] * 2
    assert log == expected == run_trials(game, strategy, rounds=80, seed=21)
    assert log.to_jsonl() == expected.to_jsonl()
    assert server.transcript == transcript


def _question_batches(monkeypatch):
    """Record, per write of questions, how many it holds."""
    batches = []
    send = netplay._Seat.send

    def recording(seat, data):
        asked = sum(line.startswith(netplay._QUESTION_HEAD) for line in data.splitlines())
        if asked:
            batches.append(asked)
        send(seat, data)

    monkeypatch.setattr(netplay._Seat, "send", recording)
    return batches


def _longest_answer_line(log):
    return max(
        len(encode_message({"type": "answer", "round": rec.round, "values": list(values)}))
        for rec in log.records
        for values in rec.answers
    )


def test_accepted_connections_take_a_window_of_answers_without_delay(monkeypatch):
    tuned = []
    tune = netplay._tune

    def recording(conn, line_bytes):
        window = tune(conn, line_bytes)
        granted = conn.getsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF) // 2
        nodelay = conn.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
        tuned.append((nodelay, granted, line_bytes, window))
        return window

    monkeypatch.setattr(netplay, "_tune", recording)
    batches = _question_batches(monkeypatch)
    game = cabello_restricted()
    strategy = lambda_mu_model()
    rounds = netplay._WINDOW + 100
    log = run_local_session(game, strategy, rounds=rounds, seed=2)
    assert log == run_trials(game, strategy, rounds=rounds, seed=2)
    assert len(tuned) == game.parties
    for nodelay, granted, line_bytes, window in tuned:
        assert nodelay
        assert line_bytes == _longest_answer_line(log)
        assert window == netplay._WINDOW
        assert granted >= window * line_bytes
    # a whole window to each party, then the last 100 rounds
    assert batches == [netplay._WINDOW] * 2 + [100] * 2


@pytest.mark.parametrize("fits", [7, 0])
def test_a_small_receive_buffer_shortens_the_window(monkeypatch, fits):
    game = cabello_restricted()
    strategy = lambda_mu_model()
    line_bytes = _longest_answer_line(run_trials(game, strategy, rounds=50, seed=4))
    getsockopt = socket.socket.getsockopt

    def granted(sock, level, option, *args):
        if (level, option) == (socket.SOL_SOCKET, socket.SO_RCVBUF):
            # as Linux reports it: twice the room for data
            return 2 * (fits * line_bytes + line_bytes - 1)
        return getsockopt(sock, level, option, *args)

    monkeypatch.setattr(socket.socket, "getsockopt", granted)
    batches = _question_batches(monkeypatch)
    log = run_local_session(game, strategy, rounds=50, seed=4)
    assert log == run_trials(game, strategy, rounds=50, seed=4)
    window = max(fits, 1)
    assert max(batches) == window
    assert sum(batches) == 50 * game.parties


def test_transcript_never_leaks_foreign_data():
    game = four_party_game()
    transcript: dict[int, list[bytes]] = {}
    run_local_session(
        game, quantum_strategy(game), rounds=120, seed=33, transcript=transcript
    )
    owned = {party: {q for q, p in game.qubit_ownership if p == party} for party in range(4)}
    assert sorted(transcript) == [0, 1, 2, 3]
    for party, blobs in transcript.items():
        kinds = []
        for blob in blobs:
            message = decode_message(blob)
            kinds.append(message["type"])
            assert message["type"] in ("dealt", "question", "end")
            if message["type"] == "question":
                slots = {obs["slot"] for obs in message["observables"]}
                assert slots <= owned[party]
        assert kinds[0] == "dealt"
        assert kinds[-1] == "end"
        assert kinds.count("question") == 120


def test_the_leak_check_names_each_leaky_message():
    # party 0 holds qubit 1 alone: a question on slot 2 is another party's,
    # and an answer or a hello is never sent to a player
    sent = [
        {"type": "dealt", "tape": ""},
        {"type": "question", "round": 0, "observables": [{"slot": 2, "kind": "x"}]},
        {"type": "answer", "round": 0, "values": [1]},
        {"type": "hello", "party": 0, "protocol_version": 1},
        {"type": "end", "reason": "complete"},
    ]
    leaks = verification._transcript_leaks(
        four_party_game(), {0: [encode_message(m) for m in sent]}
    )
    assert len(leaks) == 3
    assert all(leak.startswith("party 0 ") for leak in leaks)


# ---------------------------------------------------------------------------
# protocol failures
# ---------------------------------------------------------------------------


def _serve_in_thread(game, strategy, rounds, seed):
    server = RefereeServer(game, rounds, seed, strategy)
    host, port = server.bind(("127.0.0.1", 0))[:2]
    box = {}

    def run():
        try:
            box["log"] = server.serve()
        except Exception as exc:  # noqa: BLE001 - surfaced by the test
            box["error"] = exc

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return (host, port), thread, box


def test_disconnect_yields_incomplete_log():
    game = cabello_restricted()
    address, thread, box = _serve_in_thread(game, automaton_model(), 50, 0)

    sockets = [socket.create_connection(address) for _ in range(2)]
    files = [s.makefile("rwb") for s in sockets]
    for party, f in enumerate(files):
        f.write(encode_message({"type": "hello", "party": party, "protocol_version": 1}))
        f.flush()
    # party 0 reads its deal and first question, then vanishes
    decode_message(files[0].readline())
    decode_message(files[0].readline())
    sockets[0].shutdown(socket.SHUT_RDWR)
    sockets[0].close()
    # party 1 keeps to the protocol for its first question
    decode_message(files[1].readline())
    decode_message(files[1].readline())
    thread.join(timeout=10)
    for s in sockets[1:]:
        s.close()
    log = box["log"]
    assert not log.complete
    assert "party 0" in log.abort_reason
    assert log.records == []


def test_wrong_round_answer_is_a_protocol_error():
    game = cabello_restricted()
    address, thread, box = _serve_in_thread(game, automaton_model(), 50, 0)

    sockets = [socket.create_connection(address) for _ in range(2)]
    files = [s.makefile("rwb") for s in sockets]
    for party, f in enumerate(files):
        f.write(encode_message({"type": "hello", "party": party, "protocol_version": 1}))
        f.flush()
    for f in files:
        decode_message(f.readline())  # dealt
        decode_message(f.readline())  # question round 0
    # party 0 answers a round it was not asked
    files[0].write(encode_message({"type": "answer", "round": 7, "values": [1, 1]}))
    files[0].flush()
    thread.join(timeout=10)
    for s in sockets:
        s.close()
    error = box["error"]
    assert isinstance(error, ProtocolError)
    assert error.party == 0
    assert "round" in str(error)


def test_a_valid_answer_over_the_line_limit_is_a_protocol_error(monkeypatch):
    monkeypatch.setattr(netplay, "_MAX_LINE", 256)
    monkeypatch.setattr(netplay, "_PEER_TIMEOUT_S", 2.0)
    game = cabello_restricted()
    address, thread, box = _serve_in_thread(game, automaton_model(), 50, 0)

    sockets = [socket.create_connection(address) for _ in range(2)]
    files = [s.makefile("rwb") for s in sockets]
    for party, f in enumerate(files):
        f.write(_hello(party))
        f.flush()
    message = decode_message(files[0].readline())
    while message["type"] == "dealt":
        message = decode_message(files[0].readline())
    assert message["type"] == "question" and message["round"] == 0
    # a well-formed answer, padded past the limit by a field players may add
    answer = {"type": "answer", "round": 0, "values": [1] * len(message["observables"])}
    line = encode_message({**answer, "padding": "x" * 256})
    assert len(line) > 256 and decode_message(line)["values"] == answer["values"]
    files[0].write(line)
    files[0].flush()
    thread.join(timeout=10)
    for s in sockets:
        s.close()
    error = box.get("error")
    assert isinstance(error, ProtocolError) and error.party == 0
    assert str(error) == "party 0: message longer than 256 bytes"


@pytest.mark.parametrize("values", [[True, 1], [1.0, 1], [1]], ids=["bool", "float", "short"])
def test_protocol_error_ends_every_player(values):
    game = cabello_restricted()
    address, thread, box = _serve_in_thread(game, automaton_model(), 50, 0)

    # a probe that leaves without a hello is not a player
    socket.create_connection(address).close()
    # a referee that neither ends the session nor closes it must not hang the test
    sockets = [socket.create_connection(address, timeout=2) for _ in range(2)]
    files = [s.makefile("rwb") for s in sockets]
    for party, f in enumerate(files):
        f.write(encode_message({"type": "hello", "party": party, "protocol_version": 1}))
        f.flush()
    for f in files:
        decode_message(f.readline())  # dealt
        decode_message(f.readline())  # question round 0
    # party 0 answers in form, party 1 does not
    for f, answer in zip(files, [[1, -1], values]):
        f.write(encode_message({"type": "answer", "round": 0, "values": answer}))
        f.flush()
    thread.join(timeout=10)
    # read while the error, and with it the referee's frames, is still alive;
    # the questions sent ahead of round 0's answers come before the end
    ends = []
    for f in files:
        ahead = []
        message = decode_message(f.readline())
        while message["type"] == "question":
            ahead.append(message["round"])
            message = decode_message(f.readline())
        assert ahead == list(range(1, len(ahead) + 1))
        ends.append(message)
    closed = [f.readline() for f in files]
    for s in sockets:
        s.close()
    assert closed == [b"", b""]  # end of stream, not a timeout
    error = box["error"]
    assert isinstance(error, ProtocolError)
    assert error.party == 1
    for end in ends:
        assert end["type"] == "end"
        assert end["reason"].startswith("abort: party 1: malformed answer values")


def _players_in_threads(address, game, strategy, parties):
    """Start a real player per party on a thread; returns the threads and
    the exit statuses as they come in."""
    statuses: dict[int, int] = {}

    def play(party):
        statuses[party] = run_player(address, build_party_strategy(game, strategy, party))

    threads = [threading.Thread(target=play, args=(p,), daemon=True) for p in parties]
    for t in threads:
        t.start()
    return threads, statuses


def _hello(party):
    return encode_message({"type": "hello", "party": party, "protocol_version": 1})


def test_reset_after_hello_yields_incomplete_log():
    game = cabello_restricted()
    strategy = automaton_model()
    address, thread, box = _serve_in_thread(game, strategy, 50, 0)
    # party 0 says hello, then resets its connection (SO_LINGER 0)
    leaver = socket.create_connection(address)
    leaver.sendall(_hello(0))
    leaver.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
    leaver.close()
    threads, statuses = _players_in_threads(address, game, strategy, [1])
    thread.join(timeout=10)
    for t in threads:
        t.join(timeout=10)
    log = box["log"]
    assert not log.complete
    assert log.abort_reason.startswith("party 0 disconnected")
    assert log.records == []
    # the player that stayed is not left waiting, and reports the abort
    assert statuses == {1: 4}


def test_silent_client_before_the_players_is_dropped(monkeypatch):
    monkeypatch.setattr(netplay, "_PEER_TIMEOUT_S", 0.5)
    game = cabello_restricted()
    strategy = lambda_mu_model()
    address, thread, box = _serve_in_thread(game, strategy, 100, 4)
    with socket.create_connection(address):
        # connected first, never says hello, stays open throughout
        threads, statuses = _players_in_threads(address, game, strategy, [0, 1])
        thread.join(timeout=10)
        for t in threads:
            t.join(timeout=10)
    assert box["log"] == run_trials(game, strategy, rounds=100, seed=4)
    assert statuses == {0: 0, 1: 0}


def test_stalled_player_times_out(monkeypatch):
    deadline = 0.5
    monkeypatch.setattr(netplay, "_PEER_TIMEOUT_S", deadline)
    game = cabello_restricted()
    strategy = automaton_model()
    address, thread, box = _serve_in_thread(game, strategy, 50, 0)
    with socket.create_connection(address) as staller:
        # party 0 says hello and then never answers
        staller.sendall(_hello(0))
        threads, statuses = _players_in_threads(address, game, strategy, [1])
        start = time.monotonic()
        thread.join(timeout=10)
        elapsed = time.monotonic() - start
        for t in threads:
            t.join(timeout=10)
    log = box["log"]
    assert not log.complete
    assert log.abort_reason == "party 0 timed out after 0.5 s"
    assert log.records == []
    assert elapsed < 2 * deadline
    assert statuses == {1: 4}


def _trickle(sock, data, server):
    """Send ``data`` one byte every 0.3 s while the ``server`` thread runs."""
    for byte in data:
        try:
            sock.sendall(bytes([byte]))
        except OSError:
            return
        server.join(timeout=0.3)
        if not server.is_alive():
            return


def test_trickling_client_before_the_players_is_dropped(monkeypatch):
    # every byte comes inside the deadline, the whole hello does not
    monkeypatch.setattr(netplay, "_PEER_TIMEOUT_S", 0.5)
    game = cabello_restricted()
    strategy = lambda_mu_model()
    address, thread, box = _serve_in_thread(game, strategy, 100, 4)
    with socket.create_connection(address) as trickler:
        threads, statuses = _players_in_threads(address, game, strategy, [0, 1])
        _trickle(trickler, _hello(0), thread)
        thread.join(timeout=10)
        for t in threads:
            t.join(timeout=10)
    assert not thread.is_alive()
    assert box["log"] == run_trials(game, strategy, rounds=100, seed=4)
    assert statuses == {0: 0, 1: 0}


def test_trickling_answer_times_out(monkeypatch):
    deadline = 0.5
    monkeypatch.setattr(netplay, "_PEER_TIMEOUT_S", deadline)
    game = cabello_restricted()
    strategy = automaton_model()
    address, thread, box = _serve_in_thread(game, strategy, 50, 0)
    with socket.create_connection(address) as trickler:
        trickler.sendall(_hello(0))
        threads, statuses = _players_in_threads(address, game, strategy, [1])
        f = trickler.makefile("rb")
        decode_message(f.readline())  # dealt
        decode_message(f.readline())  # question round 0
        start = time.monotonic()
        answer = encode_message({"type": "answer", "round": 0, "values": [1, 1]})
        _trickle(trickler, answer, thread)
        thread.join(timeout=10)
        elapsed = time.monotonic() - start
        for t in threads:
            t.join(timeout=10)
    assert not thread.is_alive()
    log = box["log"]
    assert not log.complete
    assert log.abort_reason == "party 0 timed out after 0.5 s"
    assert log.records == []
    assert elapsed < 2 * deadline
    assert statuses == {1: 4}


def test_a_slow_lock_step_player_still_plays(monkeypatch):
    # every answer comes within the deadline of the one before it; the
    # window's answers together do not
    monkeypatch.setattr(netplay, "_PEER_TIMEOUT_S", 0.5)
    monkeypatch.setattr(netplay, "_WINDOW", 8)
    game = cabello_restricted()
    strategy = lambda_mu_model()
    address, thread, box = _serve_in_thread(game, strategy, 8, 14)
    threads, statuses = _players_in_threads(address, game, strategy, [0])
    end = _lock_step_player(address, build_party_strategy(game, strategy, 1), encode_message, 0.1)
    thread.join(timeout=10)
    for t in threads:
        t.join(timeout=10)
    assert not thread.is_alive()
    assert box["log"] == run_trials(game, strategy, rounds=8, seed=14)
    assert end == {"type": "end", "reason": "complete"}
    assert statuses == {0: 0}


def test_session_with_a_tape_over_the_line_limit(monkeypatch):
    monkeypatch.setattr(netplay, "_MAX_LINE", 256)
    game = cabello_restricted()
    strategy = lambda_mu_model()
    server = RefereeServer(game, 1000, 3, strategy, transcript={})
    address = server.bind(("127.0.0.1", 0))[:2]
    threads, statuses = _players_in_threads(address, game, strategy, [0, 1])
    log = server.serve()
    for t in threads:
        t.join(timeout=10)
    assert statuses == {0: 0, 1: 0}
    assert log == run_trials(game, strategy, rounds=1000, seed=3)
    for party, sent in server.transcript.items():
        dealt = [line for line in sent if decode_message(line)["type"] == "dealt"]
        assert len(dealt) > 1
        assert all(len(line) <= 256 for line in sent)


#: what a hostile player does once the question it misbehaves at arrives
MISBEHAVIOURS = (
    "stall", "close", "reset", "not-json", "wrong-round", "wrong-arity", "too-long", "huge-int"
)
#: the sessions the fuzz plays: game name -> strategy name
FUZZ_SESSIONS = {"cabello-restricted": "lambda-mu", "four-party": "quantum"}


def _hostile_player(address, player, behaviour, at, pause=0.0):
    """Say hello and play in lock step until round ``at``'s question comes,
    then, ``pause`` seconds later, misbehave as ``behaviour`` says; return
    once the referee closes."""
    sock = socket.create_connection(address, timeout=10)
    f = sock.makefile("rb")
    try:
        sock.sendall(_hello(player.party))
        tape = []
        for line in f:
            message = decode_message(line)
            if message["type"] == "dealt":
                tape.extend(decode_tape(message["tape"]))
                player.set_tape(tuple(tape))
                continue
            if message["type"] != "question":
                return
            r = message["round"]
            values = player.answer(r, [(o["slot"], o["kind"]) for o in message["observables"]])
            if r < at:
                sock.sendall(encode_message({"type": "answer", "round": r, "values": values}))
                continue
            time.sleep(pause)
            if behaviour == "reset":
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            if behaviour in ("close", "reset"):
                return
            sock.sendall({
                "stall": b"",
                "not-json": b"not json\n",
                "wrong-round": encode_message({"type": "answer", "round": r - 1, "values": values}),
                "wrong-arity": encode_message({"type": "answer", "round": r, "values": values + [1]}),
                "too-long": b'{"type":"answer",' + b" " * netplay._MAX_LINE + b"}\n",
                # past the 4,300 digits int() takes, which json.dumps cannot write
                "huge-int": b'{"type":"answer","round":' + b"9" * 5000 + b',"values":[1]}\n',
            }[behaviour])
            for _ in f:  # stay connected, answering nothing, until the referee closes
                pass
            return
    except OSError:
        pass  # the referee closed first
    finally:
        f.close()
        sock.close()


@st.composite
def hostile_sessions(draw):
    """A session: game, rounds, window, seed, and per party None (faithful)
    or a misbehaviour and the round it starts at."""
    name = draw(st.sampled_from(sorted(FUZZ_SESSIONS)))
    rounds = draw(st.integers(1, 12))
    misbehaviour = st.tuples(st.sampled_from(MISBEHAVIOURS), st.integers(0, rounds - 1))
    parties = GAME_BUILDERS[name]().parties
    behaviours = draw(st.lists(st.none() | misbehaviour, min_size=parties, max_size=parties))
    return name, rounds, draw(st.integers(1, 4)), draw(st.integers(0, 2**32 - 1)), behaviours


@settings(max_examples=20, deadline=None)
@given(session=hostile_sessions())
@example(session=("four-party", 10, 3, 7, [None] * 4))
@example(session=("cabello-restricted", 12, 5, 1, [None, ("too-long", 6)]))
@example(session=("four-party", 6, 2, 3, [None, ("huge-int", 2), None, None]))
def test_hostile_players_end_the_session_in_time_and_are_named(session):
    name, rounds, window, seed, behaviours = session
    game = GAME_BUILDERS[name]()
    strategy = resolve_strategy(game, FUZZ_SESSIONS[name])
    misbehaving = {p for p, b in enumerate(behaviours) if b is not None}
    faithful = [p for p, b in enumerate(behaviours) if b is None]
    deadline = 0.2
    bound = (len(misbehaving) + 1) * deadline + 2
    with (
        patch.object(netplay, "_PEER_TIMEOUT_S", deadline),
        patch.object(netplay, "_WINDOW", window),
        # room for a huge-int line, yet a too-long one is quick to send
        patch.object(netplay, "_MAX_LINE", 8192),
    ):
        address, thread, box = _serve_in_thread(game, strategy, rounds, seed)
        start = time.monotonic()
        threads, statuses = _players_in_threads(address, game, strategy, faithful)
        hostile = [
            threading.Thread(
                target=_hostile_player,
                args=(address, build_party_strategy(game, strategy, p), *behaviours[p]),
                daemon=True,
            )
            for p in misbehaving
        ]
        for t in hostile:
            t.start()
        thread.join(timeout=bound)
        elapsed = time.monotonic() - start
        for t in threads + hostile:
            t.join(timeout=10)
    assert not thread.is_alive() and elapsed < bound
    assert not any(t.is_alive() for t in threads + hostile)
    if not misbehaving:
        assert box["log"] == run_trials(game, strategy, rounds=rounds, seed=seed)
        assert statuses == dict.fromkeys(faithful, 0)
        return
    if "error" in box:
        assert isinstance(box["error"], ProtocolError)
        blamed = box["error"].party
    else:
        log = box["log"]
        assert not log.complete
        blamed = int(log.abort_reason.split()[1])
        assert log.abort_reason.startswith(f"party {blamed} ")
    assert blamed in misbehaving
    # every faithful player hears of the abort
    assert statuses == dict.fromkeys(faithful, 4)


@dataclass
class Contrary(PartyStrategy):
    """Answers against its own tape: the first value flipped on odd rounds,
    or only in round ``only`` when it is set."""

    inner: PartyStrategy = None  # type: ignore[assignment]
    only: int | None = None

    def set_tape(self, values: tuple[int, ...]) -> None:
        self.inner.set_tape(values)

    def answer(self, round_index: int, observables: list[tuple[int, str]]) -> list[int]:
        values = self.inner.answer(round_index, observables)
        if round_index % 2 if self.only is None else round_index == self.only:
            values[0] = -values[0]
        return values


@dataclass
class Leaving(PartyStrategy):
    """Ends its own process with status 5 when round ``at`` is asked."""

    inner: PartyStrategy = None  # type: ignore[assignment]
    at: int = 3

    def set_tape(self, values: tuple[int, ...]) -> None:
        self.inner.set_tape(values)

    def answer(self, round_index: int, observables: list[tuple[int, str]]) -> list[int]:
        if round_index == self.at:
            os._exit(5)
        return self.inner.answer(round_index, observables)


def test_a_player_that_exits_nonzero_fails_the_local_session():
    # party 1 leaves at round 3, and the abort ends party 0 with 4
    game = cabello_restricted()
    strategy = lambda_mu_model()
    players = [build_party_strategy(game, strategy, party) for party in range(2)]
    players[1] = Leaving(party=1, inner=players[1])
    with pytest.raises(ProtocolError, match=r"^player process\(es\) \[0, 1\] exited nonzero$"):
        run_local_session(game, strategy, rounds=10, seed=4, player_specs=players)


def _contrary_rows(game, planned, party, flipped):
    """The rows of ``planned`` with ``party``'s first value flipped, and
    re-scored, in the rounds ``flipped`` holds."""
    contexts = {c.id: c for c in game.contexts}
    rows = []
    for plan in planned:
        answers = list(plan.answers)
        if plan.round in flipped:
            first, *rest = answers[party]
            answers[party] = (-first, *rest)
        rows.append((plan.round, *contexts[plan.context_id].row(answers)))
    return rows


def test_referee_scores_the_answers_sent():
    game = cabello_restricted()
    strategy = lambda_mu_model()
    players = [build_party_strategy(game, strategy, party) for party in range(2)]
    players[0] = Contrary(party=0, inner=players[0])
    planned = run_trials(game, strategy, rounds=200, seed=8)
    log = run_local_session(game, strategy, rounds=200, seed=8, player_specs=players)
    assert log.complete and len(log.records) == 200
    contexts = {c.id: c for c in game.contexts}
    lost = 0
    for sent, plan in zip(log.records, planned.records):
        if sent.round % 2 == 0:
            assert sent == plan
            continue
        (first, *rest), *others = plan.answers
        assert sent.answers == ((-first, *rest), *others)
        # flipping x1 or y1 breaks every tested equality
        tested = contexts[sent.context_id].predicate is not ALWAYS_WIN
        assert sent.win is not tested
        lost += tested
    assert lost > 0


def test_referee_rescores_a_later_seat_after_the_first_matched(monkeypatch):
    # the first seat's window matches its plan, the last seat's does not
    game = four_party_game()
    strategy = quantum_strategy(game)
    last = game.parties - 1
    players = [build_party_strategy(game, strategy, party) for party in range(game.parties)]
    players[last] = Contrary(party=last, inner=players[last])
    replayed = _replay_calls(monkeypatch)
    log = run_local_session(game, strategy, rounds=200, seed=8, player_specs=players)
    planned = run_trials(game, strategy, rounds=200, seed=8).records
    assert log.complete
    assert [tuple(rec) for rec in log.records] == _contrary_rows(
        game, planned, last, range(1, 200, 2)
    )
    assert any(sent.win != plan.win for sent, plan in zip(log.records, planned))
    # the one window mismatched, so every answer of every seat in it is decoded
    assert len(replayed) == game.parties * 200


def test_only_the_window_with_a_deviating_round_is_decoded(monkeypatch):
    # round 13 lies in the second of five 8-round windows
    monkeypatch.setattr(netplay, "_WINDOW", 8)
    game = cabello_restricted()
    strategy = lambda_mu_model()
    players = [build_party_strategy(game, strategy, party) for party in range(2)]
    players[0] = Contrary(party=0, inner=players[0], only=13)
    replayed = _replay_calls(monkeypatch)
    log = run_local_session(game, strategy, rounds=40, seed=8, player_specs=players)
    planned = run_trials(game, strategy, rounds=40, seed=8).records
    assert log.complete
    assert [tuple(rec) for rec in log.records] == _contrary_rows(game, planned, 0, {13})
    assert log.records[13] != planned[13]
    assert replayed == [r for r in range(8, 16) for _party in range(game.parties)]


@pytest.mark.parametrize("contrary", [False, True], ids=["faithful", "contrary"])
@pytest.mark.parametrize("k", [0, 6])
def test_an_aborted_session_keeps_exactly_the_rounds_played(monkeypatch, k, contrary):
    # round 6 falls mid-window; party 1 leaves when round k's question comes
    monkeypatch.setattr(netplay, "_WINDOW", 4)
    game = cabello_restricted()
    strategy = lambda_mu_model()
    players = [build_party_strategy(game, strategy, party) for party in range(2)]
    if contrary:
        players[0] = Contrary(party=0, inner=players[0])
        full = run_local_session(game, strategy, rounds=20, seed=8, player_specs=players)
        planned = run_trials(game, strategy, rounds=20, seed=8).records
        # the kept prefix holds the re-scored rows of its odd rounds
        assert sum(sent != plan for sent, plan in zip(full.records[:k], planned)) == k // 2
    else:
        full = run_trials(game, strategy, rounds=20, seed=8)
    address, thread, box = _serve_in_thread(game, strategy, 20, 8)
    statuses = {}

    def play():
        statuses[0] = run_player(address, players[0])

    threads = [
        threading.Thread(target=play, daemon=True),
        threading.Thread(
            target=_hostile_player, args=(address, players[1], "close", k), daemon=True
        ),
    ]
    for t in threads:
        t.start()
    thread.join(timeout=10)
    for t in threads:
        t.join(timeout=10)
    log = box["log"]
    assert not log.complete
    assert log.abort_reason.startswith("party 1 disconnected")
    assert len(log.records) == k
    assert log.records == full.records[:k]
    assert statuses == {0: 4}


@pytest.mark.parametrize("behaviour", ["stall", "reset"])
def test_a_party_failing_mid_window_is_named_with_the_rounds_before_it(monkeypatch, behaviour):
    # party 1 answers rounds 0-5 of an 8-round window, then stalls or resets:
    # the failure the window's match meets is the one its round reports. A
    # reset discards what the referee has not read yet, so it comes late
    # enough for the referee to have read the six answers first.
    deadline = 0.5
    monkeypatch.setattr(netplay, "_PEER_TIMEOUT_S", deadline)
    monkeypatch.setattr(netplay, "_WINDOW", 8)
    game = cabello_restricted()
    strategy = lambda_mu_model()
    address, thread, box = _serve_in_thread(game, strategy, 20, 8)
    start = time.monotonic()
    threads, statuses = _players_in_threads(address, game, strategy, [0])
    failing = threading.Thread(
        target=_hostile_player,
        args=(address, build_party_strategy(game, strategy, 1), behaviour, 6, 0.2),
        daemon=True,
    )
    failing.start()
    thread.join(timeout=10)
    elapsed = time.monotonic() - start
    for t in threads + [failing]:
        t.join(timeout=10)
    log = box["log"]
    assert not log.complete
    if behaviour == "stall":
        assert log.abort_reason == "party 1 timed out after 0.5 s"
    else:
        # with the OS's words for the reset, as the first failed read gave them
        assert log.abort_reason.startswith("party 1 disconnected (")
    assert log.records == run_trials(game, strategy, rounds=20, seed=8).records[:6]
    # a stall is waited out once, not again when the window is reread
    assert elapsed < 2 * deadline
    assert statuses == {0: 4}


@pytest.mark.parametrize(
    "party,version,reason",
    [
        (True, 1, "bad party index True"),
        (0, True, "party 0: unsupported protocol version True"),
        (0, 1.0, "party 0: unsupported protocol version 1.0"),
    ],
    ids=["party-true", "version-true", "version-float"],
)
def test_a_hello_field_equal_to_an_int_is_rejected(party, version, reason):
    # true and 1.0 equal 1, but only an int names a party or a version
    game = cabello_restricted()
    address, thread, box = _serve_in_thread(game, automaton_model(), 5, 0)
    with socket.create_connection(address) as s:
        s.sendall(encode_message({"type": "hello", "party": party, "protocol_version": version}))
        thread.join(timeout=10)
    assert isinstance(box["error"], ProtocolError)
    assert str(box["error"]) == reason


def test_a_first_line_that_is_not_a_hello_is_a_protocol_error():
    game = cabello_restricted()
    address, thread, box = _serve_in_thread(game, automaton_model(), 5, 0)
    with socket.create_connection(address) as s:
        s.sendall(encode_message({"type": "answer", "round": 0, "values": [1, 1]}))
        thread.join(timeout=10)
    assert isinstance(box["error"], ProtocolError)
    assert str(box["error"]) == "expected hello, got 'answer'"


def test_a_second_hello_for_a_seated_party_is_a_protocol_error():
    game = cabello_restricted()
    address, thread, box = _serve_in_thread(game, automaton_model(), 5, 0)
    with socket.create_connection(address) as first, socket.create_connection(address) as second:
        first.sendall(_hello(0))
        second.sendall(_hello(0))
        thread.join(timeout=10)
    assert isinstance(box["error"], ProtocolError)
    assert str(box["error"]) == "party 0: duplicate hello"


def test_a_line_in_place_of_an_answer_is_a_protocol_error():
    game = cabello_restricted()
    address, thread, box = _serve_in_thread(game, automaton_model(), 5, 0)
    sockets = [socket.create_connection(address) for _ in range(2)]
    files = [s.makefile("rwb") for s in sockets]
    for party, f in enumerate(files):
        f.write(_hello(party))
        f.flush()
    for f in files:
        decode_message(f.readline())  # dealt
        decode_message(f.readline())  # question round 0
    # party 0 says hello again where its answer to round 0 belongs
    files[0].write(_hello(0))
    files[0].flush()
    thread.join(timeout=10)
    for s in sockets:
        s.close()
    assert isinstance(box["error"], ProtocolError) and box["error"].party == 0
    assert str(box["error"]) == "party 0: expected answer, got 'hello'"


def test_bad_protocol_version_rejected():
    game = cabello_restricted()
    address, thread, box = _serve_in_thread(game, automaton_model(), 5, 0)
    with socket.create_connection(address) as s:
        f = s.makefile("rwb")
        f.write(encode_message({"type": "hello", "party": 0, "protocol_version": 99}))
        f.flush()
        thread.join(timeout=10)
    assert isinstance(box["error"], ProtocolError)


def _play_lines(lines, player, answers=0):
    """Run ``player`` against a fake referee that sends ``lines`` after the
    hello and, once it has read ``answers`` lines back, ends the session.
    Return the player's status and every line the referee read back, up to
    the end of the stream or two seconds of silence."""
    listener = socket.create_server(("127.0.0.1", 0))
    host, port = listener.getsockname()[:2]
    read = []

    def fake_referee():
        conn, _ = listener.accept()
        with conn:
            conn.settimeout(2)
            f = conn.makefile("rwb")
            decode_message(f.readline())  # hello
            f.write(b"".join(lines))
            f.flush()
            try:
                read.extend(f.readline() for _ in range(answers))
                if answers:
                    f.write(encode_message({"type": "end", "reason": "complete"}))
                    f.flush()
                read.extend(iter(f.readline, b""))
            except OSError:
                pass  # silence: a player waiting for more questions

    thread = threading.Thread(target=fake_referee, daemon=True)
    thread.start()
    try:
        status = run_player((host, port), player)
        thread.join(timeout=10)
    finally:
        listener.close()
    assert not thread.is_alive()
    return status, read


def _play_against(messages, party=0):
    """Run an automaton player against a fake referee that sends ``messages``."""
    player = build_party_strategy(cabello_restricted(), automaton_model(), party)
    return _play_lines([encode_message(m) for m in messages], player)


def test_player_rejects_unknown_message_type():
    status, read = _play_against([{"type": "mystery"}])
    assert status == 4
    assert read == []


def _question(round_index, *observables):
    message = {"type": "question", "observables": list(observables)}
    if round_index is not None:
        message["round"] = round_index
    return message


@pytest.mark.parametrize(
    "messages,party",
    [
        # a question without a round number
        ([_question(None, {"slot": 1, "kind": "x"}, {"slot": 2, "kind": "x"})], 0),
        # a question party 1 does not have (z3)
        ([_question(0, {"slot": 3, "kind": "z"})], 1),
        # an observable without a slot
        ([_question(0, {"kind": "x"}, {"slot": 2, "kind": "x"})], 0),
        # a tape that is not a string
        ([{"type": "dealt", "tape": 5}], 0),
    ],
    ids=["no-round", "foreign-question", "no-slot", "non-string-tape"],
)
def test_malformed_referee_message_is_a_protocol_error(messages, party):
    status, read = _play_against([{"type": "dealt", "tape": ""}] + messages, party)
    assert status == 4
    assert read == []


@pytest.mark.parametrize(
    "message,reason",
    [
        # int() would answer each of these slots as slot 1
        (_question(0, {"slot": 1.5, "kind": "x"}, {"slot": 2, "kind": "x"}),
         "question slot must be an int, got 1.5"),
        (_question(0, {"slot": "1", "kind": "x"}, {"slot": 2, "kind": "x"}),
         "question slot must be an int, got '1'"),
        (_question(0, {"slot": True, "kind": "x"}, {"slot": 2, "kind": "x"}),
         "question slot must be an int, got True"),
        (_question(0, {"slot": 1, "kind": 5}, {"slot": 2, "kind": "x"}),
         "question kind must be a string, got 5"),
        # a lenient decoder drops the "!" and reads the tape as "/w=="
        ({"type": "dealt", "tape": "/!w=="}, "undecodable tape: "),
    ],
    ids=["float-slot", "string-slot", "bool-slot", "int-kind", "tape-off-the-alphabet"],
)
def test_a_referee_field_of_the_wrong_type_ends_the_player_with_4(message, reason, capsys):
    status, read = _play_against([{"type": "dealt", "tape": ""}, message])
    assert status == 4
    assert read == []
    assert capsys.readouterr().err.startswith(f"player 0: {reason}")


def test_extra_fields_in_questions_are_ignored_by_players():
    listener = socket.create_server(("127.0.0.1", 0))
    host, port = listener.getsockname()[:2]
    answers = {}

    def fake_referee():
        conn, _ = listener.accept()
        with conn:
            f = conn.makefile("rwb")
            decode_message(f.readline())  # hello
            f.write(encode_message({"type": "dealt", "tape": "", "mood": "sunny"}))
            f.write(
                encode_message(
                    {
                        "type": "question",
                        "round": 0,
                        "observables": [
                            {"slot": 3, "kind": "y", "color": "red"},
                            {"slot": 4, "kind": "z"},
                        ],
                        "hint": 42,
                    }
                )
            )
            f.flush()
            answers["message"] = decode_message(f.readline())
            f.write(encode_message({"type": "end", "reason": "complete"}))
            f.flush()

    thread = threading.Thread(target=fake_referee, daemon=True)
    thread.start()
    strategy = build_party_strategy(cabello_restricted(), automaton_model(), 1)
    status = run_player((host, port), strategy)
    thread.join(timeout=10)
    listener.close()
    assert status == 0
    assert answers["message"] == {"type": "answer", "round": 0, "values": [1, -1]}


def _question_forms(observables, r):
    """Question lines of round ``r`` a referee might send, each with the
    round ``json.loads`` reads from it: the canonical line twice, so the
    second is a repeat, then spaced, extra-field and repeated-key forms."""
    obs = [{"slot": s, "kind": k} for s, k in observables]
    listed = json.dumps(obs, separators=(",", ":")).encode()
    question = {"type": "question", "round": r, "observables": obs}
    extra = {**question, "observables": [{**o, "color": "red"} for o in obs], "hint": 42}
    return [
        (encode_message(question), r),
        (encode_message({**question, "round": r + 1}), r + 1),
        (json.dumps(question).encode() + b"\n", r),
        (encode_message(extra), r),
        # the last "round" wins, as in json.loads; the second line repeats
        # the text after the first's round number, after the next round's
        (b'{"type":"question","round":%d,"observables":%s,"round":%d}\n' % (r, listed, r + 2), r + 2),
        (b'{"type":"question","round":%d,"observables":%s,"round":%d}\n' % (r + 3, listed, r + 2), r + 2),
        *[(b'{"type":"question","round":%d,"round":%d,"observables":%s}\n' % (r + 2, r, listed), r)] * 2,
    ]


@pytest.mark.parametrize(
    "name,strategy_name",
    [
        (name, strategy_name)
        for name in sorted(CATALOG)
        for strategy_name in ["quantum", "best-classical", *CATALOG[name].models]
    ],
)
def test_player_replies_are_the_decoded_answers_in_canonical_bytes(name, strategy_name):
    game = GAME_BUILDERS[name]()
    strategy = resolve_strategy(game, strategy_name)
    rounds = 4
    for party in range(game.parties):
        player = build_party_strategy(game, strategy, party)
        oracle = build_party_strategy(game, strategy, party)
        tape = tuple((-1) ** (i * 7 % 3) for i in range(player.width * rounds))
        oracle.set_tape(tape)
        lines, expected = netplay._deal_lines(tape), []
        for observables in player.questions:
            for line, r in _question_forms(observables, 0) + _question_forms(observables, 1):
                assert decode_message(line)["round"] == r
                values = oracle.answer(r, list(observables))
                lines.append(line)
                expected.append(encode_message({"type": "answer", "round": r, "values": values}))
        status, read = _play_lines(lines, player, answers=len(expected))
        assert status == 0
        assert read == expected


@pytest.mark.parametrize(
    "round_text",
    [b"07", b"-1", b"9" * 5000, b"7.9", b"true", b'"1"'],
    ids=["leading-zero", "negative", "huge-int", "float", "true", "text"],
)
def test_a_question_with_a_round_never_written_ends_the_player_with_4(round_text):
    game = cabello_restricted()
    player = build_party_strategy(game, lambda_mu_model(), 0)
    tape = (1, -1, 1) * 8
    observables = [{"slot": 1, "kind": "x"}, {"slot": 2, "kind": "x"}]
    question = encode_message({"type": "question", "round": 0, "observables": observables})
    # the canonical question comes first, so its ending is already known
    lines = [
        *netplay._deal_lines(tape),
        question,
        question.replace(b'"round":0', b'"round":' + round_text),
    ]
    status, read = _play_lines(lines, player)
    assert status == 4
    assert all(decode_message(line)["round"] == 0 for line in read)


def test_a_question_over_the_line_limit_ends_the_player_with_4(monkeypatch, capsys):
    monkeypatch.setattr(netplay, "_MAX_LINE", 256)
    game = cabello_restricted()
    player = build_party_strategy(game, lambda_mu_model(), 0)
    listed = [{"slot": 1, "kind": "x"}, {"slot": 2, "kind": "x"}]
    question = {"type": "question", "round": 0, "observables": listed}
    # a well-formed question, padded past the limit by a field players ignore
    long = encode_message({**question, "round": 1, "padding": "x" * 256})
    assert len(long) > 256
    lines = [*netplay._deal_lines((1, -1, 1) * 8), encode_message(question), long]
    status, _ = _play_lines(lines, player, answers=1)
    assert status == 4
    assert "player 0: message longer than 256 bytes" in capsys.readouterr().err


def test_a_line_past_the_limit_before_its_newline_is_a_protocol_error(monkeypatch):
    monkeypatch.setattr(netplay, "_MAX_LINE", 16)
    ours, theirs = socket.socketpair()
    with ours, theirs:
        theirs.sendall(b"x" * 16)
        with pytest.raises(ProtocolError, match=r"^message longer than 16 bytes$"):
            netplay._LineReader(ours).line()


def test_a_line_unfinished_at_its_deadline_times_out(monkeypatch):
    # the first bytes come in time, and by the seat's next wait the clock is
    # past the deadline, so no recv is left to time out
    clock = iter([0.0, 0.0])
    monkeypatch.setattr(netplay, "time", SimpleNamespace(monotonic=lambda: next(clock, 100.0)))
    ours, theirs = socket.socketpair()
    with ours, theirs:
        theirs.sendall(b'{"type":"answer"')
        seat = netplay._Seat(ours)
        seat.party = 1
        with pytest.raises(netplay.PlayerDisconnected, match=r"^party 1 timed out after 30.0 s$"):
            seat.message("answer")


def test_a_referee_that_leaves_mid_session_ends_the_player_with_4(capsys):
    listener = socket.create_server(("127.0.0.1", 0))

    def leave_after_the_hello():
        conn, _ = listener.accept()
        with conn, conn.makefile("rb") as f:
            f.readline()

    thread = threading.Thread(target=leave_after_the_hello, daemon=True)
    thread.start()
    player = build_party_strategy(cabello_restricted(), automaton_model(), 0)
    try:
        status = run_player(listener.getsockname()[:2], player)
        thread.join(timeout=10)
    finally:
        listener.close()
    assert status == 4
    assert "player 0: referee closed the connection mid-session" in capsys.readouterr().err


def test_a_hello_with_a_huge_party_is_a_protocol_error():
    game = cabello_restricted()
    address, thread, box = _serve_in_thread(game, automaton_model(), 5, 0)
    with socket.create_connection(address) as s:
        # json.dumps cannot write an int past Python's 4,300-digit limit
        s.sendall(b'{"type":"hello","party":' + b"9" * 5000 + b',"protocol_version":1}\n')
        thread.join(timeout=10)
    error = box.get("error")
    assert isinstance(error, ProtocolError) and error.party is None
    assert str(error).startswith("undecodable message")


def test_an_answer_with_a_huge_round_names_the_party():
    game = cabello_restricted()
    address, thread, box = _serve_in_thread(game, automaton_model(), 50, 0)
    sockets = [socket.create_connection(address, timeout=10) for _ in range(2)]
    files = [s.makefile("rwb") for s in sockets]
    for party, f in enumerate(files):
        f.write(_hello(party))
        f.flush()
    decode_message(files[0].readline())  # dealt
    decode_message(files[0].readline())  # question round 0
    files[0].write(b'{"type":"answer","round":' + b"9" * 5000 + b',"values":[1,1]}\n')
    files[0].flush()
    thread.join(timeout=10)
    for s in sockets:
        s.close()
    error = box.get("error")
    assert isinstance(error, ProtocolError) and error.party == 0
    assert str(error).startswith("party 0: undecodable message")


@pytest.mark.parametrize("round_text", [b"true", b"1.0"], ids=["true", "float"])
def test_an_answer_numbered_by_a_round_equal_to_an_int_names_the_party(round_text):
    game = cabello_restricted()
    address, thread, box = _serve_in_thread(game, automaton_model(), 50, 0)
    sockets = [socket.create_connection(address, timeout=10) for _ in range(2)]
    files = [s.makefile("rwb") for s in sockets]
    for party, f in enumerate(files):
        f.write(_hello(party))
        f.flush()
    for f in files:
        f.write(b'{"type":"answer","round":0,"values":[1,1]}\n')
        f.flush()
    # true and 1.0 equal 1 in Python, but the referee writes round 1 as 1
    files[0].write(b'{"type":"answer","round":' + round_text + b',"values":[1,1]}\n')
    files[0].flush()
    thread.join(timeout=10)
    for s in sockets:
        s.close()
    error = box.get("error")
    assert isinstance(error, ProtocolError) and error.party == 0
    assert str(error) == f"party 0: answered round {json.loads(round_text)!r}, asked 1"


def test_canonical_questions_out_of_order_are_answered_for_their_rounds():
    game = cabello_restricted()
    player = build_party_strategy(game, lambda_mu_model(), 0)
    oracle = build_party_strategy(game, lambda_mu_model(), 0)
    tape = tuple((-1) ** (i * 5 % 3) for i in range(player.width * 8))
    oracle.set_tape(tape)
    observables = [(1, "x"), (2, "x")]
    listed = [{"slot": slot, "kind": kind} for slot, kind in observables]
    rounds = [0, 2, 1, 3, 5, 4, 7, 6]
    lines = netplay._deal_lines(tape) + [
        encode_message({"type": "question", "round": r, "observables": listed}) for r in rounds
    ]
    status, read = _play_lines(lines, player, answers=len(rounds))
    assert status == 0
    assert read == [
        encode_message({"type": "answer", "round": r, "values": oracle.answer(r, observables)})
        for r in rounds
    ]


def test_a_repeated_canonical_question_skips_the_decoder():
    player = build_party_strategy(cabello_restricted(), lambda_mu_model(), 0)
    observables = [{"slot": 1, "kind": "x"}, {"slot": 2, "kind": "x"}]
    questions = [
        encode_message({"type": "question", "round": r, "observables": observables})
        for r in range(3)
    ]
    spaced = json.dumps({"type": "question", "round": 3, "observables": observables}).encode()
    [dealt] = netplay._deal_lines((1, -1, 1) * 4)
    decoded = []
    decode = netplay.decode_message

    def recording(line):
        decoded.append(line)
        return decode(line)

    with patch.object(netplay, "decode_message", recording):
        status, read = _play_lines([dealt, *questions, spaced + b"\n"], player, answers=4)
    assert status == 0 and len(read) == 4
    end = encode_message({"type": "end", "reason": "complete"})
    # the first question sets the tape; the spaced one is not canonical
    assert decoded == [dealt[:-1], questions[0][:-1], spaced, end[:-1]]


class _FakeConnection:
    """A connection whose ``recv`` returns the chunks given, one a call (a
    chunk past the size asked for in several), then b"" (the end of stream),
    and which keeps every write."""

    def __init__(self, chunks):
        self.chunks = list(chunks)
        self.received = b""
        self.ended = False
        self.sent = []

    def recv(self, size):
        self.ended = not self.chunks
        chunk = self.chunks.pop(0) if self.chunks else b""
        if len(chunk) > size:
            self.chunks.insert(0, chunk[size:])
            chunk = chunk[:size]
        self.received += chunk
        return chunk

    def sendall(self, data):
        self.sent.append(data)

    def setsockopt(self, *args):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


@settings(max_examples=200, deadline=None)
@given(
    lines=st.lists(st.binary(max_size=6).map(lambda b: b.replace(b"\n", b"")), max_size=12),
    cuts=st.lists(st.integers(min_value=0, max_value=80), max_size=8),
    cut_short=st.booleans(),
)
@example(lines=[b"a", b"bb", b"c"], cuts=[1, 3], cut_short=True)
def test_each_batch_holds_every_whole_line_received_so_far(lines, cuts, cut_short):
    data = b"".join(line + b"\n" for line in lines) + (b"tail" if cut_short else b"")
    points = sorted({min(cut, len(data)) for cut in cuts} | {0, len(data)})
    fake = _FakeConnection(data[a:b] for a, b in zip(points, points[1:]) if b > a)
    reader = netplay._LineReader(fake)
    read = []
    while batch := reader.lines():
        read += batch
        *whole, rest = fake.received.split(b"\n")
        # at the end of stream, the last line cut short comes too
        assert read == whole + ([rest] if fake.ended and rest else [])
    assert read == lines + ([b"tail"] if cut_short else [])


class _CountingBuffer(bytearray):
    """A reader's buffer that counts the bytes handed to ``find`` and to
    ``startswith``."""

    scanned = 0

    def find(self, sub, start=0, *args):
        self.scanned += len(self) - start
        return super().find(sub, start, *args)

    def startswith(self, prefix, start=0, *args):
        self.scanned += len(prefix)
        return super().startswith(prefix, start, *args)


class _OneByteAtATime:
    """A connection whose ``recv`` returns one byte of ``data`` a call, then b""."""

    def __init__(self, data):
        self.data = data
        self.at = 0

    def recv(self, size):
        self.at += 1
        return self.data[self.at - 1 : self.at]


def _trickling_reader(data):
    """A reader of ``data`` arriving a byte a ``recv``, and its counting buffer."""
    reader = netplay._LineReader(_OneByteAtATime(data))
    buf = reader._buf = _CountingBuffer()
    return reader, buf


def test_a_long_line_that_trickles_in_is_searched_once():
    data = b"x" * 20000 + b"\n"
    reader, buf = _trickling_reader(data + b"next\n")
    line = reader.line()
    assert line == data[:-1] and type(line) is bytes
    # the buffer grew in place, and each byte was searched once
    assert reader._buf is buf and buf == b""
    assert buf.scanned == len(data)
    assert reader.lines() == [b"next"] and reader._buf is buf


def test_a_window_that_trickles_in_is_matched_in_one_pass():
    template = netplay._template(netplay._ANSWER_HEAD, b',"values":[1,-1]}\n')
    expected = template * 512 % tuple(range(512))
    reader, buf = _trickling_reader(expected + b"next\n")
    assert reader.match(expected)
    # the buffer grew in place, and each byte was compared once
    assert reader._buf is buf and buf == expected
    assert buf.scanned == len(expected)
    reader.skip(len(expected))
    assert reader._buf is buf and buf == b""
    assert reader.lines() == [b"next"]


def _player_batches(chunks, *, whole=False):
    """A lambda-mu party 0 of cabello-restricted against a fake referee whose
    bytes arrive in ``chunks``: its status and the bytes it sent after the
    hello. The end of the session comes in a chunk of its own, after the
    rest, as a referee sends it once every answer is in. With ``whole``, no
    run is checked, so every line is decoded whole."""
    player = build_party_strategy(cabello_restricted(), lambda_mu_model(), 0)
    fake = _FakeConnection([*chunks, encode_message({"type": "end", "reason": "complete"})])
    with patch.object(socket, "create_connection", lambda address: fake):
        if whole:
            with patch.object(netplay, "_asked_run", lambda *args: None):
                status = run_player(("127.0.0.1", 0), player)
        else:
            status = run_player(("127.0.0.1", 0), player)
    assert decode_message(fake.sent[0])["type"] == "hello"
    return status, b"".join(fake.sent[1:])


def _canonical(r, observables):
    listed = [{"slot": slot, "kind": kind} for slot, kind in observables]
    return encode_message({"type": "question", "round": r, "observables": listed})


def _spaced(r, observables):
    return _canonical(r, observables).replace(b",", b", ")


@pytest.mark.parametrize(
    "round_index,status",
    [(2**63 - 1, 0), (2**63, 4), (10**4300 - 1, 4)],
    ids=["largest", "past-int64", "most-digits-json-reads"],
)
def test_a_question_round_past_int64_ends_the_player_with_4(capsys, round_index, status):
    # a width-0 strategy answers any round; after 10**4300 - 1 the next
    # round's head would pass Python's 4,300-digit limit for int to str
    player = build_party_strategy(cabello_restricted(), automaton_model(), 0)
    assert player.width == 0
    observables = next(iter(player.questions))
    end = encode_message({"type": "end", "reason": "complete"})
    fake = _FakeConnection(
        [
            b"".join([*netplay._deal_lines(()), _canonical(0, observables)]),
            _canonical(0, observables).replace(b'"round":0', b'"round":%d' % round_index),
            end,
        ]
    )
    with patch.object(socket, "create_connection", lambda address: fake):
        assert run_player(("127.0.0.1", 0), player) == status
    rounds = [decode_message(line)["round"] for line in fake.sent[1:]]
    if status:
        assert rounds == [0]
        # the message does not print the number
        assert capsys.readouterr().err == "player 0: question round must be below 2**63\n"
    else:
        assert rounds == [0, round_index]


def test_a_player_answers_runs_as_it_answers_lines_decoded_whole():
    first, second = list(build_party_strategy(cabello_restricted(), lambda_mu_model(), 0).questions)
    tape = tuple((-1) ** (i * 7 % 5) for i in range(3 * 120))
    order = [first, second, second, first]
    lines = netplay._deal_lines(tape) + [_canonical(0, first), _canonical(1, second)]
    # a canonical run across 9 -> 10
    lines += [_canonical(r, order[r % 4]) for r in range(2, 14)]
    # an extra space, then a canonical question out of order
    lines += [_spaced(14, first), _canonical(20, second)]
    # a canonical run across 99 -> 100
    lines += [_canonical(r, order[r % 4]) for r in range(21, 110)]
    data = b"".join(lines)
    end = encode_message({"type": "end", "reason": "complete"})
    decoded = []
    decode = netplay.decode_message

    def recording(line):
        decoded.append(line)
        return decode(line)

    for cuts in ([], [700, 701, 2500], list(range(300, len(data), 997))):
        points = [0, *cuts, len(data)]
        chunks = [data[a:b] for a, b in zip(points, points[1:])]
        decoded.clear()
        with patch.object(netplay, "decode_message", recording):
            status, sent = _player_batches(chunks)
        expected = _player_batches(chunks, whole=True)
        assert (status, sent) == expected
        assert status == 0 and sent.count(b"\n") == 2 + 12 + 2 + 89
        # only the lines the table cannot answer are decoded
        assert decoded == [
            line[:-1]
            for line in (*lines[:3], _spaced(14, first), _canonical(20, second), end)
        ]


#: a canonical question for the next round, or for another, or one with spaces
_KINDS_OF_LINE = ["next", "next", "next", "spaced", "ahead", "behind"]


@settings(max_examples=60, deadline=None)
@given(
    kinds=st.lists(st.sampled_from(_KINDS_OF_LINE), max_size=60),
    start=st.sampled_from([0, 5, 95, 995]),
    picks=st.lists(st.integers(min_value=0, max_value=1), min_size=60, max_size=60),
    cuts=st.lists(st.integers(min_value=0, max_value=6000), max_size=6),
)
def test_a_player_answers_any_mixed_batch_as_it_answers_lines_decoded_whole(
    kinds, start, picks, cuts
):
    questions = list(build_party_strategy(cabello_restricted(), lambda_mu_model(), 0).questions)
    tape = tuple((-1) ** (i * 5 % 7) for i in range(3 * 1200))
    r = start - 1
    lines = netplay._deal_lines(tape)
    for kind, pick in zip(kinds, picks):
        r = {"ahead": r + 3, "behind": max(r - 2, 0)}.get(kind, r + 1)
        lines.append((_spaced if kind == "spaced" else _canonical)(r, questions[pick]))
    data = b"".join(lines)
    points = sorted({min(cut, len(data)) for cut in cuts} | {0, len(data)})
    chunks = [data[a:b] for a, b in zip(points, points[1:]) if b > a]
    status, sent = _player_batches(chunks)
    assert status == 0
    assert (status, sent) == _player_batches(chunks, whole=True)


@pytest.mark.parametrize("pairs", [200, 800])
def test_the_lines_a_player_checks_grow_linearly_with_odd_lines(pairs):
    observables = next(iter(build_party_strategy(cabello_restricted(), lambda_mu_model(), 0).questions))
    tape = (1, -1, 1) * (2 * pairs + 1)
    lines = netplay._deal_lines(tape) + [_canonical(0, observables)]
    for r in range(1, 2 * pairs + 1, 2):
        lines += [_canonical(r, observables), _spaced(r + 1, observables)]
    examined = []
    asked_run = netplay._asked_run

    def counting(checked, first, asked):
        examined.append(len(checked))
        return asked_run(checked, first, asked)

    with patch.object(netplay, "_asked_run", counting):
        status, sent = _player_batches([b"".join(lines)])
    assert status == 0 and sent.count(b"\n") == 2 * pairs + 1
    # each canonical line and each odd one is examined twice, a few times more at the start
    assert sum(examined) <= 4 * pairs + 8


def test_a_line_that_only_starts_like_a_question_is_decoded_whole(capsys):
    observables = next(iter(build_party_strategy(cabello_restricted(), lambda_mu_model(), 0).questions))
    tape = (1, -1, 1) * 4
    # a head as long as the question head, then a known text
    lookalike = _canonical(1, observables).replace(b'"question"', b'"Question"')
    lines = [*netplay._deal_lines(tape), _canonical(0, observables), lookalike]
    assert _player_batches([b"".join(lines)]) == (4, b"")
    assert "player 0: unknown message type 'Question'" in capsys.readouterr().err


def test_a_template_escapes_every_percent_of_its_tail():
    tail = b',"observables":[{"slot":1,"kind":"%d%%s"}]}\n'
    template = netplay._template(netplay._QUESTION_HEAD, tail)
    assert template % 12 == netplay._QUESTION_HEAD + b"12" + tail
    assert b"".join([template] * 3) % (7, 8, 9) == b"".join(
        netplay._QUESTION_HEAD + b"%d" % r + tail for r in (7, 8, 9)
    )


_IDNA_PLAYER = """
import sys
from nonlocalgames.classical import automaton_model
from nonlocalgames.games import cabello_restricted
from nonlocalgames.netplay import build_party_strategy, run_player

player = build_party_strategy(cabello_restricted(), automaton_model(), 0)
status = run_player(("127.0.0.1", int(sys.argv[1])), player)
print(status, "encodings.idna" in sys.modules)
"""


def test_a_player_connects_without_loading_the_idna_codec():
    import subprocess
    import sys

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src"), env.get("PYTHONPATH", "")]
    )
    with socket.create_server(("127.0.0.1", 0)) as listener:
        listener.settimeout(30)
        port = listener.getsockname()[1]
        proc = subprocess.Popen(
            [sys.executable, "-c", _IDNA_PLAYER, str(port)],
            env=env, stdout=subprocess.PIPE, text=True,
        )
        try:
            conn, _ = listener.accept()
            with conn:
                conn.settimeout(30)
                f = conn.makefile("rwb")
                assert decode_message(f.readline())["type"] == "hello"
                f.write(encode_message({"type": "end", "reason": "complete"}))
                f.flush()
            out, _ = proc.communicate(timeout=30)
        finally:
            proc.kill()
            proc.wait()
    assert out.split() == ["0", "False"]
