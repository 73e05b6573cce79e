import hashlib
import json

import pytest

from nonlocalgames.classical import automaton_model, lambda_mu_model
from nonlocalgames.games import (
    cabello_extended,
    cabello_restricted,
    four_party_game,
    game_by_name,
    mermin_ghz,
)
from nonlocalgames.trials import (
    QuantumStrategy,
    TrialLog,
    nested_subgame_report,
    quantum_reference,
    quantum_strategy,
    resolve_strategy,
    run_trials,
    statistics,
)
from nonlocalgames.quantum import make_ghz


def test_quantum_strategy_states():
    assert quantum_strategy(four_party_game()).state.num_qubits == 4
    assert quantum_strategy(mermin_ghz()).state.num_qubits == 3


def test_four_party_quantum_always_wins():
    game = four_party_game()
    log = run_trials(game, quantum_strategy(game), rounds=10_000, seed=1)
    assert len(log.records) == 10_000
    assert all(record.win for record in log.records)


def test_lambda_mu_always_wins_restricted():
    game = cabello_restricted()
    log = run_trials(game, lambda_mu_model(), rounds=10_000, seed=2)
    assert all(record.win for record in log.records)


def test_automaton_always_wins_restricted():
    game = cabello_restricted()
    log = run_trials(game, automaton_model(), rounds=2_000, seed=3)
    assert all(record.win for record in log.records)


def test_mermin_best_classical_rate():
    game = mermin_ghz()
    best = resolve_strategy(game, "best-classical")
    log = run_trials(game, best, rounds=10_000, seed=7)
    rate = sum(r.win for r in log.records) / len(log.records)
    assert 0.72 <= rate <= 0.78


def test_reproducibility():
    game = cabello_restricted()
    a = run_trials(game, lambda_mu_model(), rounds=500, seed=11)
    b = run_trials(game, lambda_mu_model(), rounds=500, seed=11)
    assert a == b
    c = run_trials(game, lambda_mu_model(), rounds=500, seed=12)
    assert a != c


def test_ghz_quantum_on_mermin_always_wins():
    game = mermin_ghz()
    log = run_trials(game, quantum_strategy(game), rounds=3_000, seed=4)
    assert all(record.win for record in log.records)


def test_extended_game_quantum_always_wins():
    game = cabello_extended()
    log = run_trials(game, quantum_strategy(game), rounds=3_000, seed=5)
    assert all(record.win for record in log.records)


def test_incompatible_strategy_rejected_before_round_one():
    game = four_party_game()
    with pytest.raises(ValueError):
        run_trials(game, QuantumStrategy(state=make_ghz(3)), rounds=10, seed=0)
    with pytest.raises(ValueError):
        run_trials(game, automaton_model(), rounds=10, seed=0)
    with pytest.raises(ValueError):
        run_trials(game, quantum_strategy(game), rounds=0, seed=0)


def test_resolve_strategy_names():
    game = cabello_restricted()
    assert resolve_strategy(game, "quantum").name == "quantum"
    assert resolve_strategy(game, "lambda-mu").name == "lambda-mu"
    assert resolve_strategy(game, "automaton").name == "automaton"
    assert resolve_strategy(game, "best-classical").name == "best-classical"
    with pytest.raises(KeyError):
        resolve_strategy(game, "psychic")
    with pytest.raises(KeyError):
        resolve_strategy(four_party_game(), "lambda-mu")


# ---------------------------------------------------------------------------
# log round-trip
# ---------------------------------------------------------------------------


def test_trial_log_jsonl_round_trip():
    game = cabello_restricted()
    log = run_trials(game, automaton_model(), rounds=25, seed=6)
    text = log.to_jsonl()
    back = TrialLog.from_jsonl(text)
    assert back == log
    assert text.splitlines()[0].startswith('{"type": "header"')


def test_trial_log_round_numbering():
    game = mermin_ghz()
    log = run_trials(game, quantum_strategy(game), rounds=50, seed=8)
    assert [r.round for r in log.records] == list(range(50))


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def test_statistics_counts_consistent():
    game = cabello_restricted()
    log = run_trials(game, lambda_mu_model(), rounds=4_000, seed=13)
    report = statistics(log)
    assert report.rounds == 4_000
    assert report.wins == sum(st.won for st in report.per_context.values())
    assert sum(st.asked for st in report.per_context.values()) == 4_000
    assert report.win_rate == 1.0


def test_statistics_rejects_empty_log():
    with pytest.raises(ValueError):
        statistics(TrialLog(game="x", strategy="y", seed=0))


def test_quantum_marginals_near_half():
    game = cabello_restricted()
    log = run_trials(game, quantum_strategy(game), rounds=10_000, seed=14)
    report = statistics(log)
    for token, frequency in report.marginals.items():
        assert 0.47 <= frequency <= 0.53, token


def test_lambda_mu_tv_against_quantum_reference():
    # The three-bit model reproduces the quantum statistics exactly on the
    # four tested contexts; on the four untested ones it carries an extra
    # four-point parity, so the TV distance concentrates near 1/2 there.
    game = cabello_restricted()
    log = run_trials(game, lambda_mu_model(), rounds=20_000, seed=15)
    report = statistics(log, quantum_reference(game))
    tested = {"x1x2|x3z4", "y1x2|y3z4", "x1x2|y3y4", "y1x2|x3y4"}
    for cid, stats in report.per_context.items():
        assert stats.tv_distance is not None
        if cid in tested:
            assert stats.tv_distance <= 0.05
        else:
            assert 0.45 <= stats.tv_distance <= 0.55
    assert 0.45 <= report.max_tv_distance <= 0.55


def test_quantum_tv_against_its_own_reference():
    game = cabello_restricted()
    log = run_trials(game, quantum_strategy(game), rounds=20_000, seed=16)
    report = statistics(log, quantum_reference(game))
    assert report.max_tv_distance <= 0.05


def test_report_text_and_records():
    game = mermin_ghz()
    log = run_trials(game, quantum_strategy(game), rounds=100, seed=17)
    report = statistics(log, quantum_reference(game))
    text = report.to_text()
    assert "win rate: 1.000000" in text
    assert "xxx" in text
    records = report.to_records()
    assert records[0]["type"] == "summary"
    kinds = {r["type"] for r in records}
    assert kinds == {"summary", "context", "marginal", "max_tv"}


# ---------------------------------------------------------------------------
# nested sub-game view
# ---------------------------------------------------------------------------


def test_nested_subgame_report_quantum():
    game = four_party_game()
    log = run_trials(game, quantum_strategy(game), rounds=8_000, seed=18)
    report = nested_subgame_report(log)
    # all buckets observed and every checked constraint satisfied
    assert set(report) == {"shared", "+1", "-1"}
    for bucket, stats in report.items():
        assert stats, bucket
        for text, (checked, satisfied) in stats.items():
            assert checked > 0
            assert checked == satisfied, (bucket, text)
    assert set(report["+1"]) == {"x1*y3*y4 = +1", "y1*x3*y4 = +1"}
    assert set(report["-1"]) == {"x1*y3*y4 = -1", "y1*x3*y4 = -1"}


def test_from_jsonl_rejects_unknown_version():
    game = cabello_restricted()
    text = run_trials(game, automaton_model(), rounds=3, seed=0).to_jsonl()
    header, _, body = text.partition("\n")
    header = json.loads(header)
    header["version"] = 99
    with pytest.raises(ValueError, match="version"):
        TrialLog.from_jsonl(json.dumps(header) + "\n" + body)


# ---------------------------------------------------------------------------
# per-seed stream identity
# ---------------------------------------------------------------------------

#: sha256 of run_trials(...).to_jsonl(); a change here changes every saved log
PINNED_LOGS = [
    ("four-party", "quantum", 5000, 11,
     "9c75fb2be66da8ebf4473eefb6e596b7e0334f64b2ba8d6088d5d1ad7bcc1340"),
    ("cabello-restricted", "lambda-mu", 5000, 5,
     "a7f391bb1be789125c737f82b7e9937c2ed442b3cbbcf6790d38e01950066cf0"),
    ("cabello-restricted", "automaton", 2000, 9,
     "087c4a8cb4148233beac334fad0e07ca30e749c1013f3f1772dd117c937cb13f"),
    ("mermin-ghz", "quantum", 3000, 1,
     "fd63c9396bae71bcba7c7d037df12ab26c312a7a05bab5816257595005e800ca"),
    ("cabello-extended", "quantum", 3000, 3,
     "69cb8be89f7a25dc6480eac106d84f71720981c76fd61118bf57512cb3213f39"),
]


@pytest.mark.parametrize("game_name,strategy_name,rounds,seed,digest", PINNED_LOGS)
def test_log_stream_is_pinned(game_name, strategy_name, rounds, seed, digest):
    game = game_by_name(game_name)
    log = run_trials(game, resolve_strategy(game, strategy_name), rounds=rounds, seed=seed)
    assert hashlib.sha256(log.to_jsonl().encode()).hexdigest() == digest
