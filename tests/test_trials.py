import hashlib
import json
import os
import subprocess
import sys
from itertools import accumulate

import numpy as np
import pytest

from nonlocalgames.classical import HiddenVariableModel, automaton_model, lambda_mu_model
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
        (((1,), (1,), (1,), (1, -1)), "round 4: question z4 arity mismatch with answers"),
        (((1,), (1,), (1,)), "round 4: 3 answers to 4 questions"),
    ],
    ids=["long-answer", "missing-answer"],
)
def test_mismatched_answers_are_rejected_not_truncated(answers, error):
    record = TrialRecord(
        round=4, context_id="eq03", questions=("x1", "z2", "x3", "z4"),
        answers=answers, win=True,
    )
    log = TrialLog(game="four-party", strategy="quantum", seed=0, records=[record])
    with pytest.raises(ValueError, match=error):
        nested_subgame_report(log)
    with pytest.raises(ValueError, match=error):
        statistics(log)


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
    fresh = TrialLog(log.game, log.strategy, log.seed, [_unshared(r) for r in log.records])
    first, *rest = fresh.records
    repeat = next(r for r in rest if r[1:] == first[1:])
    assert repeat.answers is not first.answers and repeat.questions is not first.questions
    assert fresh.to_jsonl() == log.to_jsonl()
    reference = quantum_reference(game)
    assert statistics(fresh, reference).to_records() == statistics(log, reference).to_records()
    assert statistics(fresh).to_text() == statistics(log).to_text()
    assert json.dumps(nested_subgame_report(fresh)) == json.dumps(nested_subgame_report(log))


# ---------------------------------------------------------------------------
# JSONL decoding matches a plain per-line json.loads decoder
# ---------------------------------------------------------------------------


def _plain_records(text):
    """The reference decoder: json.loads on every round line."""
    records = []
    for line in [ln for ln in text.splitlines() if ln.strip()][1:]:
        rec = json.loads(line)
        if rec["type"] != "round":
            raise ValueError(f"expected a round record, got type {rec['type']!r}")
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


def _variants(log):
    """Round lines that are not in the canonical form, each beside the
    canonical line it resembles."""
    first, second = log.records[:2]
    canonical = json.dumps(_round_line(first))
    tail = canonical.split(f'"round": {first.round}, ', 1)[1]
    return [
        canonical,
        json.dumps(dict(reversed(list(_round_line(first).items())))),  # reordered keys
        json.dumps(_round_line(second), separators=(" ,  ", " :  ")),  # extra whitespace
        "  " + canonical,  # leading whitespace
        canonical.replace("{", "{ ", 1),
        '{"type": "round", "round": 3, "round": 99, ' + tail,  # duplicate round key
        '{"type": "round", "round": 4, "context": "zz", ' + tail,  # duplicate context key
        '{"type": "round", "round": true, ' + tail,
        '{"type": "round", "round": -0, ' + tail,
        '{"type": "round", "round": 5, ' + tail[:-1] + ', "extra": 1}',
        '{"type": "round", "round": 7, "type": "round", ' + tail,
        canonical,
    ]


def test_from_jsonl_matches_plain_decoder():
    game = cabello_restricted()
    log = run_trials(game, automaton_model(), rounds=40, seed=6)
    header, *rounds = log.to_jsonl().splitlines()
    text = "\n".join([header, *rounds[:10], *_variants(log), *rounds[10:]]) + "\n"
    back = TrialLog.from_jsonl(text)
    assert repr(back.records) == repr(_plain_records(text))
    assert back.records[:10] == log.records[:10]


@pytest.mark.parametrize(
    "bad_line",
    [
        '{{"type": "round", "round": 01, {tail}',
        '{{"type": "round", "round": 1, {tail} junk',
        '{{"type": "round", "round": 1, {tail}}}',
        '{{"type": "round", "round": 1, "context": "a", "questions": [], "answers": 5, "win": true}}',
        '{{"type": "round", {tail}',
        '{{"type": "round", "round": 1, "questions": 5, "context": "a", "answers": [], "win": true}}',
        '{{"type": "round", "round": 1, "context": "a", "questions": [], "answers": [1], "win": true}}',
        '{{"type": "round", "round": 1, "context": "a", "questions": [], "answers": []}}',
        '{{"type": "round", "round": 1, ',
        '["round"]',
        '{{"type": "turn", "round": 6, {tail}',
        '{{"type": "round", "round": 7, "type": "turn", {tail}',
    ],
    ids=["leading-zero", "trailing-junk", "extra-brace", "answers-not-a-list", "no-round",
         "questions-not-a-list", "answer-not-a-list", "no-win", "cut-short",
         "not-an-object", "another-type", "duplicate-type-key"],
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
