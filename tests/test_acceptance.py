"""Acceptance suite: one test per headline criterion, with its stated
runtime bound and tolerance.

Every test asserts an exact value backed by an independent oracle from
``oracles.py`` or a structural argument stated next to it. Where the
literature quotes a looser figure (the "at most 13/14" bound on the
fourteen equalities) it is kept as an inequality beside the exact value:
max-sat is 12 of 14, the four-party classical value is 6/7, and the
extended two-party game has classical value 1 because every question
occurs in exactly one context.

Run with ``pytest tests/test_acceptance.py -v`` for one line per
criterion.
"""

import time
from collections import Counter
from fractions import Fraction

import pytest

from nonlocalgames import classical, games, netplay, quantum, trials
from nonlocalgames.classical import (
    automaton_model,
    classical_value,
    lambda_mu_model,
    model_distribution,
    noncontextual_maxsat,
    noncontextual_value,
    win_probability,
)

from oracles import (
    FOURTEEN,
    enumerate_game_value,
    kron_projector_distribution,
    python_maxsat,
    strategy_value,
)


def _report(criterion: int, message: str) -> None:
    print(f"[criterion {criterion:02d}] {message}")


def test_criterion_01_fourteen_equalities_hold_surely():
    psi = quantum.make_psi()
    constraints = games.fourteen_equalities()
    start = time.perf_counter()
    reports = quantum.verify_constraints(psi, constraints)
    elapsed = time.perf_counter() - start
    assert len(reports) == 14
    for report in reports:
        assert report.holds_surely, report.constraint.text()
        assert report.violation_mass < 1e-9
    assert elapsed < 1.0
    _report(1, f"PASS all 14 equalities sure, {elapsed:.3f}s")


def test_criterion_02_four_equation_contradiction():
    subset = games.contradiction_subset()
    variables = {v for c in subset for v in c.vars}
    assert len(variables) == 7  # 2**7 assignments scanned
    start = time.perf_counter()
    result = noncontextual_maxsat(subset)
    elapsed = time.perf_counter() - start
    assert result.max_satisfied == 3, "the four tested equalities must clash"
    assert result.max_satisfied != 4
    assert elapsed < 1.0
    _report(2, f"PASS max 3 of 4 over {len(variables)} vars, {elapsed:.3f}s")


def test_criterion_03_fourteen_maxsat_count():
    constraints = games.fourteen_equalities()
    start = time.perf_counter()
    result = noncontextual_maxsat(constraints)
    elapsed = time.perf_counter() - start
    # the mandated confirmation step: an independent python enumeration
    oracle_best, oracle_witnesses = python_maxsat(FOURTEEN)
    assert result.max_satisfied == oracle_best, "solver disagrees with the oracle"
    assert len(result.witnesses) == len(oracle_witnesses)
    assert len(result.witnesses) >= 1
    assert elapsed < 1.0
    # equalities 3,7,11,13 and 5,9,12,14 are two disjoint quadruples in which
    # every variable occurs twice and the signs multiply to -1, so every
    # assignment violates at least one equality of each
    for quadruple in ((3, 7, 11, 13), (5, 9, 12, 14)):
        eqs = [FOURTEEN[n - 1] for n in quadruple]
        occurrences = Counter(v for vars_, _ in eqs for v in vars_)
        assert set(occurrences.values()) == {2}
        assert eqs[0][1] * eqs[1][1] * eqs[2][1] * eqs[3][1] == -1
    assert result.max_satisfied == 12 == oracle_best
    assert len(oracle_witnesses) == 64
    assert result.max_satisfied <= 13, "the published 'at most 13/14' bound"
    _report(3, f"max={result.max_satisfied}, witnesses={len(result.witnesses)}")


def test_criterion_04_restricted_experiment_has_perfect_classical_model():
    game = games.cabello_restricted()
    start = time.perf_counter()
    result = classical_value(game)
    automaton_value = win_probability(game, automaton_model())
    model_value = win_probability(game, lambda_mu_model())
    elapsed = time.perf_counter() - start
    assert result.value == 1
    assert automaton_value == 1
    assert model_value == 1
    assert elapsed < 1.0
    _report(4, f"PASS classical value 1, both models win surely, {elapsed:.3f}s")


def test_criterion_05_mimicry_on_all_eight_contexts():
    game = games.cabello_restricted()
    model = lambda_mu_model()
    amplitudes = quantum.make_psi().amplitudes
    distances = {}
    for ctx in game.contexts:
        model_dist = model_distribution(model, game, ctx)
        quantum_dist = kron_projector_distribution(
            amplitudes, [(o.kind, o.qubit) for o in game.measured_observables(ctx)]
        )
        keys = set(model_dist) | set(quantum_dist)
        distances[ctx.id] = 0.5 * sum(
            abs(float(model_dist.get(k, 0)) - quantum_dist.get(k, 0.0)) for k in keys
        )
    tested = {"x1x2|x3z4", "y1x2|y3z4", "x1x2|y3y4", "y1x2|x3y4"}
    untested = set(distances) - tested
    assert len(untested) == 4
    for cid in tested:
        assert distances[cid] <= 1e-9, f"model must match exactly on {cid}"
    # the quantum distribution on an untested context is uniform over 16
    # outcomes, and three hidden bits reach at most 8 of them
    for cid in untested:
        assert abs(distances[cid] - 0.5) <= 1e-9, f"TV on {cid} is {distances[cid]}"
    _report(5, "TV 0 on the 4 tested contexts, 1/2 on the 4 untested")


def test_criterion_06_pseudo_telepathy_gap():
    game = games.four_party_game()
    start = time.perf_counter()
    result = classical_value(game)
    log = trials.run_trials(game, trials.quantum_strategy(game), rounds=10_000, seed=6)
    elapsed = time.perf_counter() - start
    oracle = enumerate_game_value(game)  # full 8^4 joint enumeration, untimed
    wins = sum(r.win for r in log.records)
    assert wins == 10_000, "the quantum strategy must win every round"
    assert result.value == oracle, "solver disagrees with the enumeration oracle"
    assert result.value < 1, "the gap itself: no classical strategy is perfect"
    assert elapsed < 5.0
    # a deterministic strategy is one +-1 assignment to the twelve outcome
    # variables, and none satisfies more than 12 of the 14 equalities
    assert result.value == Fraction(6, 7)
    assert result.value <= Fraction(13, 14), "the published 'at most 13/14' bound"
    _report(6, f"classical {result.value}, quantum wins {wins}/10000")


def test_criterion_07_three_party_baseline():
    game = games.mermin_ghz()
    start = time.perf_counter()
    result = classical_value(game)
    oracle = enumerate_game_value(game)  # 64 joint strategies
    reports = quantum.verify_constraints(
        quantum.make_ghz(3), [ctx.predicate for ctx in game.contexts]
    )
    elapsed = time.perf_counter() - start
    assert result.value == Fraction(3, 4) == oracle
    assert all(r.holds_surely for r in reports), "GHZ must win every context surely"
    assert elapsed < 1.0
    _report(7, f"PASS classical 3/4, quantum value 1, {elapsed:.3f}s")


def test_criterion_08_nested_constraint_conditioning():
    psi = quantum.make_psi()
    dist = quantum.joint_distribution(psi, games.sites("x1 x2 y3 y4"))
    mass = {+1: 0.0, -1: 0.0}
    agree = {+1: 0.0, -1: 0.0}
    for (x1, x2, y3, y4), p in dist.items():
        mass[x2] += p
        want = y3 * y4 if x2 == +1 else -y3 * y4
        if x1 == want:
            agree[x2] += p
    plus = agree[+1] / mass[+1]
    minus = agree[-1] / mass[-1]
    assert abs(plus - 1.0) < 1e-9, "x2=+1 must force x1 = y3*y4"
    assert abs(minus - 1.0) < 1e-9, "x2=-1 must force x1 = -y3*y4"
    _report(8, f"PASS conditional agreement {plus:.12f} / {minus:.12f}")


def test_criterion_09_reduced_spectra_differ():
    psi_spectrum = quantum.reduced_spectrum(quantum.make_psi(), {1, 2})
    ghz_spectrum = quantum.reduced_spectrum(quantum.make_ghz(4), {1, 2})
    assert psi_spectrum == pytest.approx([0.25, 0.25, 0.25, 0.25], abs=1e-9)
    assert ghz_spectrum == pytest.approx([0.5, 0.5, 0.0, 0.0], abs=1e-9)
    assert psi_spectrum != pytest.approx(ghz_spectrum, abs=1e-3)
    _report(9, "PASS spectra [1/4 x4] vs [1/2,1/2,0,0]")


def test_criterion_10_distributed_equivalence():
    game = games.four_party_game()
    strategy = trials.quantum_strategy(game)
    start = time.perf_counter()
    in_process = trials.run_trials(game, strategy, rounds=1000, seed=42)
    transcript: dict[int, list[bytes]] = {}
    distributed = netplay.run_local_session(
        game, strategy, rounds=1000, seed=42, transcript=transcript
    )
    elapsed = time.perf_counter() - start
    assert in_process.to_jsonl() == distributed.to_jsonl(), "logs must be bit-identical"
    owned = {
        party: {q for q, p in game.qubit_ownership if p == party}
        for party in range(game.parties)
    }
    for party, blobs in transcript.items():
        for blob in blobs:
            message = netplay.decode_message(blob)
            assert message["type"] in ("dealt", "question", "end")
            if message["type"] == "question":
                slots = {obs["slot"] for obs in message["observables"]}
                assert slots <= owned[party], "a player saw a foreign question"
    assert elapsed < 10.0
    _report(10, f"PASS bit-identical over TCP, no leakage, {elapsed:.3f}s")


def test_criterion_11_extended_game_solver(capsys):
    game = games.cabello_extended()
    result = classical_value(game)  # default budget; raises if exceeded
    bound = noncontextual_value(game)
    assert result.value >= bound, "a fixed assignment is one valid strategy"
    assert result.value == 1
    # the solver finds that every context stands alone: one scan of at most
    # 4 answer patterns per context, not 2**22 joint strategies
    assert result.strategies_examined == 44

    # why the value is 1: each question occurs in exactly one context, so
    # every parity can be won on its own
    for party, questions in enumerate(game.question_sets):
        uses = Counter(ctx.questions[party] for ctx in game.contexts)
        assert set(uses) == set(questions) and set(uses.values()) == {1}
    witness = result.optimal_strategies[0]
    assert strategy_value(game, witness.answers) == 1, "the witness wins every context"
    # only one fixed assignment reused everywhere is bounded
    assert bound == Fraction(6, 7) <= Fraction(13, 14)

    # the report states both numbers
    from nonlocalgames import cli

    code = cli.main(["solve", "cabello-extended"])
    out = capsys.readouterr().out
    assert code == 0
    assert "classical value: 1" in out
    assert f"best noncontextual assignment value: {bound}" in out
    _report(11, f"value {result.value}, noncontextual bound {bound}")
