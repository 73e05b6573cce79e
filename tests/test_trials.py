import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace
from functools import cache
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonlocalgames import trials
from nonlocalgames.classical import HiddenVariableModel, automaton_model, lambda_mu_model
from nonlocalgames.games import (
    GAME_BUILDERS,
    cabello_extended,
    cabello_restricted,
    four_party_game,
    game_by_name,
    mermin_ghz,
)
from nonlocalgames.trials import (
    QuantumStrategy,
    TrialLog,
    TrialRecord,
    _session_draws,
    nested_subgame_report,
    presample,
    quantum_reference,
    quantum_strategy,
    resolve_strategy,
    run_trials,
    statistics,
)
from nonlocalgames.quantum import joint_distribution, make_ghz

from oracles import draw_from


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


def test_a_hand_built_game_has_no_canonical_state():
    with pytest.raises(KeyError, match="no canonical state known"):
        quantum_strategy(replace(mermin_ghz(), name="hand-built"))


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
    with pytest.raises(ValueError, match="empty trial log"):
        statistics(TrialLog(game="x", strategy="y", seed=0))


@pytest.mark.parametrize("text", ["", " \n\t\n"], ids=["empty", "whitespace"])
def test_from_jsonl_rejects_a_text_without_lines(text):
    with pytest.raises(ValueError, match="empty trial log"):
        TrialLog.from_jsonl(text)


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


#: sha256 of json.dumps(nested_subgame_report(run_trials(...)))
PINNED_NESTED_REPORTS = [
    ("four-party", "quantum", 8000, 18,
     "bba66a39df18743637ca6acbf722a275f06187f77ebb7c5eeb23bc9c25ca3076"),
    ("four-party", "best-classical", 2000, 0,
     "c55425c7bf8175c390a2fbe2e975d904479e75ca878cbbdcd52d462725d0f39d"),
    ("cabello-extended", "quantum", 3000, 3,
     "03b2e4d18bab9ccbd2a3f96f1c838288bbb6912cf6565a29232774fc931dd5a5"),
    ("cabello-restricted", "lambda-mu", 4000, 25,
     "ff1543d113800d67209859f7268bfe8607e1d417af9b2b7217db9e5722e04a95"),
]


@pytest.mark.parametrize("game_name,strategy_name,rounds,seed,digest", PINNED_NESTED_REPORTS)
def test_nested_subgame_report_is_pinned(game_name, strategy_name, rounds, seed, digest):
    game = game_by_name(game_name)
    log = run_trials(game, resolve_strategy(game, strategy_name), rounds=rounds, seed=seed)
    report = json.dumps(nested_subgame_report(log))
    assert hashlib.sha256(report.encode()).hexdigest() == digest


def test_nested_subgame_report_reads_the_restricted_game_too():
    # its four tested contexts are four of the fourteen, so they embed alike
    game = cabello_restricted()
    log = run_trials(game, lambda_mu_model(), rounds=2_000, seed=19)
    report = nested_subgame_report(log)
    assert set(report["shared"]) == {"x1*x3*z4 = +1", "y1*y3*z4 = -1"}
    assert set(report["+1"]) == {"x1*y3*y4 = +1", "y1*x3*y4 = +1"}
    assert set(report["-1"]) == {"x1*y3*y4 = -1", "y1*x3*y4 = -1"}
    for stats in report.values():
        assert all(checked == satisfied for checked, satisfied in stats.values())
    tested = sum(1 for r in log.records if game.context_by_id(r.context_id).predicate)
    assert sum(c for stats in report.values() for c, _ in stats.values()) == tested


@pytest.mark.parametrize(
    "answers,error",
    [
        (((1,), (1,), (1,), (1, -1)), "round 0: question z4 arity mismatch with answers"),
        (((1,), (1,), (1,)), "round 0: 3 answers to 4 questions"),
    ],
    ids=["long-answer", "missing-answer"],
)
def test_mismatched_answers_are_rejected_not_truncated(answers, error):
    record = TrialRecord(
        round=0, context_id="eq03", questions=("x1", "z2", "x3", "z4"),
        answers=answers, win=True,
    )
    log = TrialLog(game="four-party", strategy="quantum", seed=0, records=[record])
    with pytest.raises(ValueError, match=error):
        nested_subgame_report(log)
    with pytest.raises(ValueError, match=error):
        statistics(log)


def _four_party_log(strategy_name):
    game = four_party_game()
    return run_trials(game, resolve_strategy(game, strategy_name), rounds=2000, seed=0)


def _forged_win(text):
    return text.replace('"win": false', '"win": true')


def _foreign_question(text):
    header, first, rest = text.split("\n", 2)
    rec = json.loads(first)
    rec["questions"][0] = "y9"
    return "\n".join([header, json.dumps(rec), rest])


def _other_game(text):
    return text.replace('"game": "four-party"', '"game": "cabello-restricted"', 1)


def _unknown_game(text):
    return text.replace('"game": "four-party"', '"game": "hand-built"', 1)


@pytest.mark.parametrize(
    "strategy_name,edit,error",
    [
        ("best-classical", _forged_win, r"^round 4: field 'win' is True, should be False$"),
        ("quantum", _foreign_question, r"^round 0: field 'questions' is \('y9', "),
        ("quantum", _other_game, r"^round 0: field 'context' 'eq\d\d' is no cabello-restricted "),
        ("quantum", _unknown_game, r"^header field 'game': unknown game 'hand-built'"),
    ],
    ids=["forged-win", "question-y9", "other-game", "unknown-game"],
)
def test_a_log_is_scored_by_its_game_not_by_its_claims(strategy_name, edit, error):
    log = TrialLog.from_jsonl(edit(_four_party_log(strategy_name).to_jsonl()))
    with pytest.raises(ValueError, match=error):
        statistics(log)
    with pytest.raises(ValueError, match=error):
        nested_subgame_report(log)


def test_the_forged_win_log_is_one_that_loses():
    # round 4 is the first the best classical strategy loses, at 1/7 a round
    log = _four_party_log("best-classical")
    assert [r.round for r in log.records if not r.win][0] == 4
    assert statistics(log).win_rate == 0.8535


#: a small log of each catalog game; the best classical mermin-ghz log loses rounds
EDITED_LOGS = {
    "four-party": "quantum",
    "cabello-restricted": "lambda-mu",
    "cabello-extended": "quantum",
    "mermin-ghz": "best-classical",
}
#: every catalog question and context id, and one that no game has
QUESTION_IDS = sorted(
    {q.id for build in GAME_BUILDERS.values() for qs in build().question_sets for q in qs}
) + ["y9"]
CONTEXT_IDS = sorted(
    {ctx.id for build in GAME_BUILDERS.values() for ctx in build().contexts}
) + ["eq15"]


@cache
def _small_log_lines(name):
    game = game_by_name(name)
    log = run_trials(game, resolve_strategy(game, EDITED_LOGS[name]), rounds=30, seed=2)
    return log.to_jsonl().splitlines()


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_an_edited_row_is_rejected_exactly_when_its_game_scores_it_otherwise(data):
    name = data.draw(st.sampled_from(sorted(EDITED_LOGS)))
    header, *lines = _small_log_lines(name)
    k = data.draw(st.integers(0, len(lines) - 1))
    rec = json.loads(lines[k])
    field = data.draw(st.sampled_from(["win", "answers", "questions", "context"]))
    if field == "win":
        rec["win"] = not rec["win"]
    elif field == "answers":
        p, j = data.draw(st.sampled_from(
            [(p, j) for p, values in enumerate(rec["answers"]) for j in range(len(values))]
        ))
        rec["answers"][p][j] *= -1
    elif field == "questions":
        p = data.draw(st.integers(0, len(rec["questions"]) - 1))
        rec["questions"][p] = data.draw(st.sampled_from(QUESTION_IDS))
    else:
        rec["context"] = data.draw(st.sampled_from(CONTEXT_IDS))
    lines[k] = json.dumps(rec)
    log = TrialLog.from_jsonl("\n".join([header, *lines]) + "\n")
    row = log.rows[log.index[k]]
    game = game_by_name(name)
    try:
        scored = game.context_by_id(row[0]).row(row[2])
    except (KeyError, ValueError):
        scored = None
    if scored == row:
        assert statistics(log).rounds == len(lines)
        nested_subgame_report(log)
    else:
        # every other row is as the game scores it, so round k is the first
        for reader in (statistics, nested_subgame_report):
            with pytest.raises(ValueError, match=f"^round {k}: "):
                reader(log)


def test_from_jsonl_rejects_unknown_version():
    game = cabello_restricted()
    text = run_trials(game, automaton_model(), rounds=3, seed=0).to_jsonl()
    header, _, body = text.partition("\n")
    header = json.loads(header)
    header["version"] = 99
    with pytest.raises(ValueError, match="version"):
        TrialLog.from_jsonl(json.dumps(header) + "\n" + body)


@pytest.mark.parametrize(
    "change,error",
    [
        ({"strategy": 5}, "header field 'strategy'"),
        ({"strategy": ...}, "header field 'strategy'"),
        ({"game": ["four-party"]}, "header field 'game'"),
        ({"seed": "x"}, "header field 'seed'"),
        ({"seed": -1}, "header field 'seed'"),
        ({"seed": True}, "header field 'seed'"),
        ({"seed": 1.0}, "header field 'seed'"),
        ({"complete": "maybe"}, "header field 'complete'"),
        ({"complete": 1}, "header field 'complete'"),
        ({"abort_reason": 7}, "header field 'abort_reason'"),
        ({"abort_reason": None}, "header field 'abort_reason'"),
        ({"version": True}, "unsupported trial log version True"),
        ({"version": 1.0}, "unsupported trial log version 1.0"),
        ([1, 2], "must start with a header record"),
    ],
    ids=["strategy-number", "strategy-missing", "game-list", "seed-text", "seed-negative",
         "seed-true", "seed-float", "complete-text", "complete-1", "reason-number",
         "reason-null", "version-true", "version-float", "not-an-object"],
)
def test_from_jsonl_rejects_header_values_never_written(change, error):
    text = run_trials(cabello_restricted(), automaton_model(), rounds=3, seed=0).to_jsonl()
    header, _, body = text.partition("\n")
    header = json.loads(header)
    if isinstance(change, dict):  # a field set to ... is left out
        header = {k: v for k, v in {**header, **change}.items() if v is not ...}
    else:
        header = change
    with pytest.raises(ValueError, match=error):
        TrialLog.from_jsonl(json.dumps(header) + "\n" + body)


def test_from_jsonl_keeps_a_header_the_package_writes():
    header = {"type": "header", "version": 1, "game": "hand-built", "strategy": "s", "seed": 0}
    log = TrialLog.from_jsonl(json.dumps(header) + "\n")
    assert (log.game, log.complete, log.abort_reason) == ("hand-built", True, None)
    aborted = TrialLog("hand-built", "s", 3, complete=False, abort_reason="party 1 closed")
    assert TrialLog.from_jsonl(aborted.to_jsonl()) == aborted


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
    # an odd round count leaves a 32-bit half pending after a 3-bit round
    ("cabello-restricted", "lambda-mu", 4999, 17,
     "9cf29ea0eedfde882f384b2521f8db41bac2f0abc2eecfd4b77cf758ca2abec7"),
    # a table draws nothing beyond each round's context
    ("four-party", "best-classical", 3001, 19,
     "30a1e7c1640ebd15b51bd56ec3b2dd8f1920b509d0eab593ce4cbd28519ecd8f"),
    # contexts that test nothing still draw their outcome
    ("cabello-restricted", "quantum", 3001, 20,
     "eeb223b5f9b822a476cdbfce5a5cb1f3949fcf23820fede36ffeda2721ec7651"),
]


@pytest.mark.parametrize("game_name,strategy_name,rounds,seed,digest", PINNED_LOGS)
def test_log_stream_is_pinned(game_name, strategy_name, rounds, seed, digest):
    game = game_by_name(game_name)
    log = run_trials(game, resolve_strategy(game, strategy_name), rounds=rounds, seed=seed)
    assert hashlib.sha256(log.to_jsonl().encode()).hexdigest() == digest


_PLAY_IN_ORDER = """
import hashlib, sys
from nonlocalgames.games import game_by_name
from nonlocalgames.trials import resolve_strategy, run_trials
for arg in sys.argv[1:]:
    name, rounds, seed = arg.split(":")
    game = game_by_name(name)
    log = run_trials(game, resolve_strategy(game, "quantum"), int(rounds), int(seed))
    print(hashlib.sha256(log.to_jsonl().encode()).hexdigest())
"""


@pytest.mark.parametrize("order", [(0, 4), (4, 0)], ids=["four-party-first", "extended-first"])
def test_row_tables_stay_with_their_game(order):
    # four-party and cabello-extended share the context ids eq01..eq14 with
    # different questions; one process plays both, in either order
    runs = [PINNED_LOGS[i] for i in order]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src"), env.get("PYTHONPATH", "")]
    )
    out = subprocess.run(
        [sys.executable, "-c", _PLAY_IN_ORDER]
        + [f"{name}:{rounds}:{seed}" for name, _, rounds, seed, _ in runs],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    ).stdout.split()
    assert out == [digest for *_, digest in runs]


# ---------------------------------------------------------------------------
# a session's draws, taken at once
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 5, 2**40 + 7])
@pytest.mark.parametrize("rounds", [1, 2, 999, 1000])
@pytest.mark.parametrize(
    "uniforms,bits", [(0, 0), (0, 1), (0, 2), (0, 3), (0, 5), (1, 0), (1, 3)]
)
def test_session_draws_match_per_call_draws(seed, rounds, uniforms, bits):
    # the closed form must equal the installed numpy's per-call draws, so a
    # numpy that draws otherwise fails here rather than silently changing logs
    rng = np.random.default_rng(seed)
    doubles, drawn = [], []
    for _ in range(rounds):
        doubles.append([rng.random() for _ in range(1 + uniforms)])
        drawn.append(rng.integers(0, 2, size=bits).tolist())
    got_doubles, got_bits = _session_draws(seed, rounds, uniforms, bits)
    assert got_doubles.tolist() == doubles
    assert got_bits.tolist() == drawn


@pytest.mark.parametrize("game", [four_party_game(), cabello_restricted()], ids=lambda g: g.name)
def test_quantum_outcomes_follow_draw_from(game):
    strategy = quantum_strategy(game)
    dealer = strategy.dealer(game)
    contexts, uniforms, dists = [], [], []
    for i, ctx in enumerate(game.contexts):
        dist = joint_distribution(strategy.state, game.measured_observables(ctx))
        dists.append(dist)
        # each running total and its neighbours; u at or above the last total
        # (the round-off sliver, and 1.0 itself) takes the last outcome
        points = [0.0, 0.5, 1 - 2**-53, 1.0]
        total = 0.0
        for p in dist.values():
            total += p
            points += [np.nextafter(total, 0.0), total, np.nextafter(total, 2.0)]
        contexts += [i] * len(points)
        uniforms += points
    codes = dealer.codes(
        np.array(contexts), np.array(uniforms)[:, None], np.empty((len(uniforms), 0), int)
    )
    for i, u, code in zip(contexts, uniforms, codes.tolist()):
        assert list(dists[i])[code] == draw_from(dists[i], u)


def test_a_context_uniform_on_a_running_weight_takes_the_next_context(monkeypatch):
    # as the search ``u < bound`` in _per_round_plans does; a seeded uniform
    # lands on a running total with probability 2**-53, so the draws are patched
    game = mermin_ghz()
    totals = [float(b) for b in accumulate(ctx.weight for ctx in game.contexts)][:-1]
    doubles = np.array([[0.0]] + [[t] for t in totals])
    monkeypatch.setattr(
        trials,
        "_session_draws",
        lambda seed, rounds, uniforms, bits: (doubles, np.zeros((rounds, bits), dtype=np.intp)),
    )
    plans = presample(game, resolve_strategy(game, "best-classical"), len(doubles), 0)
    assert [plan.context for plan in plans] == list(game.contexts)


def _per_round_plans(game, strategy, rounds, seed):
    """(context id, outcome or hidden bits, answers) per round, drawn the
    slow way: per-call numpy draws, a linear context search and draw_from."""
    rng = np.random.default_rng(seed)
    bounds = list(accumulate(ctx.weight for ctx in game.contexts))
    plans = []
    for _ in range(rounds):
        u = float(rng.random())
        context = next(c for b, c in zip(bounds, game.contexts) if u < float(b))
        if isinstance(strategy, QuantumStrategy):
            dist = joint_distribution(strategy.state, game.measured_observables(context))
            drawn = draw_from(dist, float(rng.random()))
        else:
            drawn = tuple(1 - 2 * int(b) for b in rng.integers(0, 2, size=strategy.hidden_bits))
        plans.append(drawn)
    return plans


def _dealt(plan, strategy):
    """What a plan's tapes carry: the measured outcome, or the hidden bits."""
    if isinstance(strategy, QuantumStrategy):
        return tuple(
            v
            for q, tape in zip(plan.context.questions, plan.tapes)
            for (_, kind), v in zip(q.measurements, tape)
            if kind is not None
        )
    assert len(set(plan.tapes)) == 1, "every party holds the same hidden bits"
    return plan.tapes[0]


@pytest.mark.parametrize(
    "game_name,strategy_name,rounds",
    [
        ("four-party", "quantum", 501),
        ("cabello-restricted", "quantum", 500),
        ("cabello-restricted", "lambda-mu", 501),
        ("cabello-restricted", "automaton", 500),
        ("mermin-ghz", "best-classical", 301),
    ],
)
@pytest.mark.parametrize("seed", [0, 31])
def test_presample_matches_per_round_draws(game_name, strategy_name, rounds, seed):
    game = game_by_name(game_name)
    strategy = resolve_strategy(game, strategy_name)
    plans = presample(game, strategy, rounds, seed)
    expected = _per_round_plans(game, strategy, rounds, seed)
    assert [_dealt(plan, strategy) for plan in plans] == expected
    shared = {}
    for plan in plans:
        assert plan.answers == tuple(
            strategy.respond(party, q, plan.tapes[party])
            for party, q in enumerate(plan.context.questions)
        )
        # rounds with the same context and tapes share one plan
        assert shared.setdefault((plan.context.id, plan.tapes), plan) is plan


def test_bad_seed_and_too_many_hidden_bits_rejected():
    game = cabello_restricted()
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        presample(game, lambda_mu_model(), 10, -1)
    wide = HiddenVariableModel(
        name="wide", hidden_bits=33, responders=lambda_mu_model().responders
    )
    with pytest.raises(ValueError, match="at most 32 hidden bits"):
        presample(game, wide, 10, 0)


def test_trial_record_is_a_plain_tuple_of_its_fields():
    record = run_trials(cabello_restricted(), lambda_mu_model(), rounds=1, seed=0).records[0]
    assert record == tuple(record)
    assert repr(record) == (
        f"TrialRecord(round=0, context_id={record.context_id!r}, "
        f"questions={record.questions!r}, answers={record.answers!r}, win=True)"
    )


#: sha256 of json.dumps(statistics(log, quantum_reference(game)).to_records())
#: and of statistics(log).to_text(), with log = run_trials(...)
PINNED_STATISTICS = [
    ("four-party", "quantum", 4000, 21,
     "4cfbb001b0681155837f86844077eee04e5a89eed357087994bf18ebd6cbc9a0",
     "9ad2930e8bd0f92c6767933ff14c97b44c12b39968cf2273b0fadbe9c4a8093a"),
    ("cabello-restricted", "lambda-mu", 4000, 22,
     "f805f13b1dcf9f47df93e832c187ea970823696c51e73dd33b3eb7416c50a03f",
     "bb656fd6ee65af2c008a984a8118eca099e89302c5b1b25ff28d2408f95d5bb2"),
    ("cabello-restricted", "automaton", 3000, 23,
     "0d1cb365976c91591c0d5bb15edaaf9b78f01591236c0682fe5116f64709b063",
     "718edf7afd5ffc03ab23b9c6c541bddd4d48617e06e81a6cf2ce1ddd34abf163"),
    ("cabello-restricted", "best-classical", 3000, 24,
     "37cfc7afca9aa8b0575d84bc4a499787b555cfa51fe29a1c2cf0394c23ce86e8",
     "307b3a78925dcfc7281b979cdf350c30164f40757f811f0d679cf641158db317"),
]


@pytest.mark.parametrize(
    "game_name,strategy_name,rounds,seed,records_digest,text_digest", PINNED_STATISTICS
)
def test_statistics_are_pinned(
    game_name, strategy_name, rounds, seed, records_digest, text_digest
):
    game = game_by_name(game_name)
    log = run_trials(game, resolve_strategy(game, strategy_name), rounds=rounds, seed=seed)
    reference = quantum_reference(game)
    # the log as run and the same log read back from JSONL
    for candidate in (log, TrialLog.from_jsonl(log.to_jsonl())):
        records = json.dumps(statistics(candidate, reference).to_records())
        text = statistics(candidate).to_text()
        assert hashlib.sha256(records.encode()).hexdigest() == records_digest
        assert hashlib.sha256(text.encode()).hexdigest() == text_digest


def _unshared(record):
    """The record rebuilt from fresh objects, sharing none with any other."""
    return TrialRecord(
        record.round,
        record.context_id.encode().decode(),
        tuple([q.encode().decode() for q in record.questions]),
        tuple(tuple(list(a)) for a in record.answers),
        record.win,
    )


@pytest.mark.parametrize("game_name,strategy_name,rounds,seed", [
    case[:4] for case in PINNED_STATISTICS
])
def test_rows_are_grouped_by_value_not_identity(game_name, strategy_name, rounds, seed):
    game = game_by_name(game_name)
    log = run_trials(game, resolve_strategy(game, strategy_name), rounds=rounds, seed=seed)
    unshared = [_unshared(r) for r in log.records]
    first, *rest = unshared
    repeat = next(r for r in rest if r[1:] == first[1:])
    assert repeat.answers is not first.answers and repeat.questions is not first.questions
    fresh = TrialLog(log.game, log.strategy, log.seed, unshared)
    # equal rows built from different objects are held once
    assert len(fresh.rows) == len(set(fresh.rows)) == len(set(log.rows))
    assert fresh.records == log.records
    assert fresh.to_jsonl() == log.to_jsonl()
    reference = quantum_reference(game)
    assert statistics(fresh, reference).to_records() == statistics(log, reference).to_records()
    assert statistics(fresh).to_text() == statistics(log).to_text()
    assert json.dumps(nested_subgame_report(fresh)) == json.dumps(nested_subgame_report(log))


# ---------------------------------------------------------------------------
# JSONL decoding matches a plain per-line json.loads decoder
# ---------------------------------------------------------------------------


def _plain_records(text):
    """The reference decoder: json.loads on every round line, which must be
    numbered by its position."""
    records = []
    for k, line in enumerate([ln for ln in text.splitlines() if ln.strip()][1:]):
        rec = json.loads(line)
        if not isinstance(rec, dict):
            raise ValueError(f"round {k}: a round line must be an object, got {rec!r}")
        if rec.get("type") != "round":
            raise ValueError(f"round {k}: expected a round record, got type {rec.get('type')!r}")
        for name in ("round", "context", "questions", "answers", "win"):
            if name not in rec:
                raise ValueError(f"round {k}: round field '{name}' is missing")
        if type(rec["round"]) is not int or rec["round"] != k:
            raise ValueError(f"round {k} is numbered {rec['round']!r}; round r must be the r-th")
        if not isinstance(rec["questions"], list):
            raise ValueError(
                f"round {k}: round field 'questions' must list strings, got {rec['questions']!r}"
            )
        if not isinstance(rec["answers"], list) or not all(
            isinstance(a, list) for a in rec["answers"]
        ):
            raise ValueError(
                f"round {k}: round field 'answers' must list lists, got {rec['answers']!r}"
            )
        records.append(
            TrialRecord(
                round=rec["round"],
                context_id=rec["context"],
                questions=tuple(rec["questions"]),
                answers=tuple(tuple(a) for a in rec["answers"]),
                win=rec["win"],
            )
        )
    return records


def _round_line(record, **extra):
    body = {
        "type": "round",
        "round": record.round,
        "context": record.context_id,
        "questions": list(record.questions),
        "answers": [list(a) for a in record.answers],
        "win": record.win,
    }
    body.update(extra)
    return body


def _variants(log, k):
    """Round lines that are not in the canonical form, each beside the
    canonical line it resembles, for lines k, k + 1, ... of a log: each is
    numbered by its position."""
    first, second = log.records[:2]
    tail = json.dumps(_round_line(first)).split(f'"round": {first.round}, ', 1)[1]

    def body(record, j):
        return _round_line(record._replace(round=k + j))

    return [
        json.dumps(body(first, 0)),
        json.dumps(dict(reversed(list(body(first, 1).items())))),  # reordered keys
        json.dumps(body(second, 2), separators=(" ,  ", " :  ")),  # extra whitespace
        "  " + json.dumps(body(first, 3)),  # leading whitespace
        json.dumps(body(first, 4)).replace("{", "{ ", 1),
        f'{{"type": "round", "round": 99, "round": {k + 5}, ' + tail,  # duplicate round key
        f'{{"type": "round", "round": {k + 6}, "context": "zz", ' + tail,  # duplicate context key
        f'{{"type": "round", "round": {k + 7}, ' + tail[:-1] + ', "extra": 1}',
        f'{{"type": "round", "round": {k + 8}, "type": "round", ' + tail,
        json.dumps(body(first, 9)),
    ]


def test_from_jsonl_matches_plain_decoder():
    game = cabello_restricted()
    log = run_trials(game, automaton_model(), rounds=40, seed=6)
    header, *rounds = log.to_jsonl().splitlines()
    variants = _variants(log, 10)
    text = "\n".join([header, *rounds[:10], *variants, *rounds[10 + len(variants) :]]) + "\n"
    back = TrialLog.from_jsonl(text)
    assert repr(back.records) == repr(_plain_records(text))
    assert back.records[:10] == log.records[:10]
    assert back.records[20:] == log.records[20:]


@pytest.mark.parametrize(
    "line,bad_line",
    [
        (1, '{{"type": "round", "round": true, {tail}'),
        (1, '{{"type": "round", "round": 1.0, {tail}'),
        (1, '{{"type": "round", "round": "1", {tail}'),
        (1, '{{"type": "round", "round": null, {tail}'),
        (1, '{{"type": "round", "round": -0, {tail}'),
        (0, '{{"type": "round", "round": 1, {tail}'),
        (1, '{{"type": "round", "round": 1, "round": 99, {tail}'),
    ],
    ids=["true", "float", "text", "null", "minus-zero", "one-on-line-0", "duplicate-round-key"],
)
def test_a_round_off_its_position_is_rejected(line, bad_line):
    game = cabello_restricted()
    log = run_trials(game, automaton_model(), rounds=5, seed=6)
    header, *rounds = log.to_jsonl().splitlines()
    tail = rounds[0].split('"round": 0, ', 1)[1]
    rounds[line] = bad_line.format(tail=tail)
    text = "\n".join([header, *rounds]) + "\n"
    number = json.loads(rounds[line])["round"]
    error = f"round {line} is numbered {number!r}; round r must be the r-th"
    with pytest.raises(ValueError) as expected:
        _plain_records(text)
    assert str(expected.value) == error
    with pytest.raises(ValueError) as got:
        TrialLog.from_jsonl(text)
    assert str(got.value) == error
    # a record is numbered by its position too, and a refused one changes nothing
    record = log.records[line]._replace(round=number)
    with pytest.raises(ValueError, match=f"round {line} is numbered"):
        TrialLog(log.game, log.strategy, log.seed, [*log.records[:line], record])
    kept = TrialLog(log.game, log.strategy, log.seed, log.records[:line])
    before = (kept.to_jsonl(), list(kept.rows), kept.index.tolist())
    with pytest.raises(ValueError, match=f"round {line} is numbered"):
        kept.records.append(record)
    assert (kept.to_jsonl(), list(kept.rows), kept.index.tolist()) == before


@pytest.mark.parametrize(
    "bad_line",
    [
        '{{"type": "round", "round": 01, {tail}',
        '{{"type": "round", "round": 1, {tail} junk',
        '{{"type": "round", "round": 1, {tail}}}',
        '{{"type": "round", "round": 5, "context": "a", "questions": [], "answers": 5, "win": true}}',
        '{{"type": "round", {tail}',
        '{{"type": "round", "round": 5, "questions": 5, "context": "a", "answers": [], "win": true}}',
        '{{"type": "round", "round": 5, "context": "a", "questions": [], "answers": [1], "win": true}}',
        '{{"type": "round", "round": 5, "context": "a", "questions": [], "answers": []}}',
        '{{"type": "round", "round": 1, ',
        '["round"]',
        "5",
        '{{"type": "round", "round": 5, "context": "a", "questions": 5, "answers": [], "win": true}}',
        '{{"type": "round", "round": 5, "context": "a", "questions": "x1", "answers": [], "win": true}}',
        '{{"type": "turn", "round": 6, {tail}',
        '{{"type": "round", "round": 7, "type": "turn", {tail}',
        '{{"type": "round", "round": 5, "context": ',
    ],
    ids=["leading-zero", "trailing-junk", "extra-brace", "answers-not-a-list", "no-round",
         "questions-not-a-list", "answer-not-a-list", "no-win", "cut-short",
         "not-an-object", "bare-int", "questions-not-a-list-in-order", "questions-a-string",
         "another-type", "duplicate-type-key", "canonical-head-cut-short"],
)
def test_from_jsonl_raises_as_plain_decoder(bad_line):
    game = cabello_restricted()
    log = run_trials(game, automaton_model(), rounds=5, seed=6)
    header, *rounds = log.to_jsonl().splitlines()
    tail = rounds[0].split('"round": 0, ', 1)[1]
    text = "\n".join([header, *rounds, bad_line.format(tail=tail)]) + "\n"
    with pytest.raises(Exception) as expected:
        _plain_records(text)
    with pytest.raises(type(expected.value)) as got:
        TrialLog.from_jsonl(text)
    assert str(got.value) == str(expected.value)
    # a line that decodes names its position; one that does not is json's error
    if not isinstance(got.value, json.JSONDecodeError):
        assert type(got.value) is ValueError and str(got.value).startswith("round 5")


@pytest.mark.parametrize(
    "field,value",
    [
        ("win", 2),
        ("win", 1),
        ("win", None),
        ("answers", [["a"], [1]]),
        ("answers", [[True], [1]]),
        ("answers", [[2], [1]]),
        ("answers", [[1.0], [1]]),
        ("answers", [[0], [-1]]),
        ("context", 5),
        ("context", None),
        ("questions", [1, "x3z4"]),
    ],
    ids=["win-2", "win-1", "win-null", "answer-text", "answer-true", "answer-2",
         "answer-float", "answer-0", "context-number", "context-null", "question-number"],
)
@pytest.mark.parametrize("canonical", [True, False], ids=["canonical", "reordered"])
def test_from_jsonl_rejects_row_values_never_written(field, value, canonical):
    game = cabello_restricted()
    log = run_trials(game, automaton_model(), rounds=3, seed=6)
    header, *rounds = log.to_jsonl().splitlines()
    body = json.loads(rounds[1])
    body[field] = value
    if not canonical:
        body = dict(reversed(list(body.items())))
    rounds[1] = json.dumps(body)
    with pytest.raises(ValueError, match=f"round field '{field}'"):
        TrialLog.from_jsonl("\n".join([header, *rounds]) + "\n")


@pytest.mark.parametrize("boundary", ["\u2028", "\u2029", "\x85"], ids=["u2028", "u2029", "u0085"])
def test_from_jsonl_ends_lines_at_newline_only(boundary):
    record = TrialRecord(0, f"eq{boundary}01", ("x1", "x2"), ((1,), (-1,)), True)
    log = TrialLog("hand-built", "s", 0, [record, record._replace(round=1)])
    # to_jsonl escapes the character; a hand-made log may hold it raw
    escaped = json.dumps(boundary)[1:-1]
    raw = log.to_jsonl().replace(escaped, boundary)
    assert raw.count(boundary) == 2
    assert TrialLog.from_jsonl(raw) == log
    assert TrialLog.from_jsonl(raw.replace("\n", "\r\n")) == log


# ---------------------------------------------------------------------------
# the log's table: distinct rows and an index column, rounds numbered by position
# ---------------------------------------------------------------------------

#: rows of the package's value types, for hand-built records
ROW_POOL = [
    ("eq01", ("x1", "x2"), ((1,), (-1,)), True),
    ("eq01", ("x1", "x2"), ((-1,), (-1,)), False),
    ("eq02", ("x1z2", "y3"), ((1, -1), (1,)), False),
    ("eq03", (), (), True),
]


@settings(max_examples=150, deadline=None)
@given(drawn=st.lists(st.sampled_from(ROW_POOL), max_size=12), cut=st.integers(0, 12))
def test_hand_built_records_behave_like_a_list(drawn, cut):
    records = [TrialRecord(p, *row) for p, row in enumerate(drawn)]
    log = TrialLog("hand-built", "s", 3, records[:cut])
    for record in records[cut:]:
        log.records.append(record)
    view, n = log.records, len(records)
    assert len(view) == n and len(log.index) == n
    assert list(view) == records and all(type(r) is TrialRecord for r in view)
    assert [view[i] for i in range(-n, n)] == records + records
    for i in (n, -n - 1):
        with pytest.raises(IndexError):
            view[i]
    for key in (slice(None), slice(1, None), slice(None, -1), slice(None, None, -2), slice(5, 2)):
        assert view[key] == records[key] and type(view[key]) is list
    assert repr(view) == repr(records)
    assert view == records and records == view and not view != records
    assert view != records + [TrialRecord(n, *ROW_POOL[0])]
    if records:
        changed = records[-1]._replace(win=not records[-1].win)
        assert view != records[:-1] + [changed]
    # each row once, and equal rounds whatever the order of the table's rows
    assert len(log.rows) == len(set(log.rows))
    firsts = {}
    for record in records:
        firsts.setdefault(record[1:], record.round)
    assert log.tally() == [(row, drawn.count(row), p) for row, p in firsts.items()]
    other = TrialLog("hand-built", "s", 3)
    twice = log.rows[::-1] + log.rows
    other._fill(
        twice,
        np.array([len(log.rows) - 1 - i if p % 2 else len(log.rows) + i
                  for p, i in enumerate(log.index)], dtype=np.intp),
    )
    assert other.records == view and repr(other.records) == repr(records)
    assert other == log
    if records:
        shorter = TrialLog("hand-built", "s", 3, records[:-1])
        assert shorter.records != view and view != shorter.records
        assert shorter != log and log != shorter
    header = {"type": "header", "version": 1, "game": "hand-built", "strategy": "s",
              "seed": 3, "complete": True}
    text = "\n".join([json.dumps(header), *map(json.dumps, map(_round_line, records))]) + "\n"
    assert log.to_jsonl() == other.to_jsonl() == text
    back = TrialLog.from_jsonl(text)
    assert back == log and repr(back.records) == repr(records) == repr(_plain_records(text))


def test_a_record_holding_lists_is_rejected_when_added():
    with pytest.raises(TypeError):
        TrialLog("hand-built", "s", 0, [TrialRecord(0, "eq01", ["x1"], [[1]], True)])
    log = TrialLog("hand-built", "s", 0)
    with pytest.raises(TypeError):
        log.records.append(TrialRecord(0, "eq01", ("x1",), ([1],), True))


def test_run_trials_fills_the_table_from_the_plans(monkeypatch):
    made, planned = [], []

    class Counted(TrialRecord):
        def __new__(cls, *fields):
            made.append(fields)
            return super().__new__(cls, *fields)

    plan_session = trials._plan_session
    monkeypatch.setattr(trials, "TrialRecord", Counted)
    monkeypatch.setattr(
        trials, "_plan_session", lambda *args: planned.append(plan_session(*args)) or planned[0]
    )
    game = four_party_game()
    strategy = quantum_strategy(game)
    log = run_trials(game, strategy, rounds=3000, seed=4)
    [(plans, index)] = planned
    assert made == []
    assert len(log.rows) == len(plans)
    assert all(row is plan.row for row, plan in zip(log.rows, plans))
    assert log.index.shape == (3000,) and np.array_equal(log.index, index)
    # the readers score the table's rows without building a record
    statistics(log)
    nested_subgame_report(log)
    assert made == []
    assert [r.round for r in log.records] == list(range(3000))
