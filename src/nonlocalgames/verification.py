"""One-shot verification suite reproducing the package's headline claims.

``CRITERIA`` has one row per criterion: its number, its claim, the seconds
its check may take (or None) and the check, a pure function returning
``(passed, detail)``. ``run_all`` runs and times every check and judges it;
the CLI ``verify`` subcommand prints the results, exiting nonzero on a failure.

Each check asserts an exact value: max-sat 12 of the fourteen equalities
(within the published "at most 13/14" bound, which is not tight), the
lambda-mu model matching the quantum statistics on the four tested
restricted-game contexts and lying at TV distance 1/2 on the other four,
a four-party classical value of 6/7, and classical value 1 on the
extended game, where every question occurs in exactly one context.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from . import classical, games, netplay, quantum, trials


@dataclass(frozen=True)
class CheckResult:
    criterion: int
    name: str
    passed: bool
    detail: str


def check_fourteen_hold_surely() -> tuple[bool, str]:
    reports = quantum.verify_constraints(quantum.make_psi(), games.fourteen_equalities())
    bad = [r for r in reports if not r.holds_surely or r.violation_mass >= 1e-9]
    return not bad, f"{len(reports) - len(bad)}/14 hold surely"


def check_four_equation_contradiction() -> tuple[bool, str]:
    result = classical.noncontextual_maxsat(games.contradiction_subset())
    variables = sorted({v for c in games.contradiction_subset() for v in c.vars})
    ok = result.max_satisfied == 3 and len(variables) == 7
    return ok, f"max={result.max_satisfied} over {len(variables)} vars"


def check_fourteen_maxsat_is_12() -> tuple[bool, str]:
    result = classical.noncontextual_maxsat(games.fourteen_equalities())
    ok = result.max_satisfied == 12 and len(result.witnesses) >= 1
    return ok, (
        f"max={result.max_satisfied} with {len(result.witnesses)} witnesses "
        "(two disjoint contradicting quadruples force max 12)"
    )


def check_restricted_game_is_classical() -> tuple[bool, str]:
    game = games.cabello_restricted()
    value = classical.classical_value(game).value
    automaton = classical.win_probability(game, classical.automaton_model())
    model = classical.win_probability(game, classical.lambda_mu_model())
    ok = value == 1 and automaton == 1 and model == 1
    return ok, f"classical value={value}, automaton={automaton}, lambda-mu={model}"


def check_mimicry_on_tested_contexts() -> tuple[bool, str]:
    game = games.cabello_restricted()
    model = classical.lambda_mu_model()
    state = quantum.make_psi()
    tested, untested = [], []
    for ctx in game.contexts:
        model_dist = classical.model_distribution(model, game, ctx)
        quantum_dist = quantum.joint_distribution(state, game.measured_observables(ctx))
        distance = trials.tv_distance(quantum_dist, model_dist)
        (untested if ctx.predicate is games.ALWAYS_WIN else tested).append(distance)
    matching = sum(1 for d in tested if d <= 1e-9)
    at_half = sum(1 for d in untested if abs(d - 0.5) <= 1e-9)
    ok = matching == len(tested) == 4 and at_half == len(untested) == 4
    return ok, (
        f"{matching}/4 tested contexts match exactly, {at_half}/4 untested at TV 1/2 "
        "(three bits reach at most 8 of their 16 equally likely outcomes)"
    )


def check_four_party_gap() -> tuple[bool, str]:
    game = games.four_party_game()
    value = classical.classical_value(game).value
    log = trials.run_trials(game, trials.quantum_strategy(game), rounds=10_000, seed=11)
    wins = trials.statistics(log).wins
    ok = value == Fraction(6, 7) and wins == 10_000
    return ok, f"classical value={value}, quantum wins {wins}/10000"


def check_mermin_baseline() -> tuple[bool, str]:
    game = games.mermin_ghz()
    value = classical.classical_value(game).value
    reports = quantum.verify_constraints(
        quantum.make_ghz(3), [c.predicate for c in game.contexts]
    )
    ok = value == Fraction(3, 4) and all(r.holds_surely for r in reports)
    return ok, (
        f"classical value={value}, quantum sure wins={sum(r.holds_surely for r in reports)}/4"
    )


def check_nested_conditioning() -> tuple[bool, str]:
    observables = games.sites("x1 x2 y3 y4")
    x2 = observables[1]
    # per x2 outcome, the embedded constraint x1 = +-y3*y4 it selects
    embedded = {
        s: next(c for c in games.nested_ghz_contexts(s) if c.vars <= {*observables})
        for s in (+1, -1)
    }
    dist = quantum.joint_distribution(quantum.make_psi(), observables)
    mass = {+1: 0.0, -1: 0.0}
    good = {+1: 0.0, -1: 0.0}
    for values, p in dist.items():
        outcomes = dict(zip(observables, values))
        selector = outcomes[x2]
        mass[selector] += p
        if embedded[selector].holds(outcomes):
            good[selector] += p
    cond_plus = good[+1] / mass[+1]
    cond_minus = good[-1] / mass[-1]
    ok = abs(cond_plus - 1.0) < 1e-9 and abs(cond_minus - 1.0) < 1e-9
    return ok, f"P(x1=y3y4|x2=+1)={cond_plus:.12f}, P(x1=-y3y4|x2=-1)={cond_minus:.12f}"


def check_spectra_distinguish_states() -> tuple[bool, str]:
    psi_spec = quantum.reduced_spectrum(quantum.make_psi(), {1, 2})
    ghz_spec = quantum.reduced_spectrum(quantum.make_ghz(4), {1, 2})
    ok = all(abs(v - 0.25) < 1e-9 for v in psi_spec) and all(
        abs(v - expected) < 1e-9 for v, expected in zip(ghz_spec, (0.5, 0.5, 0.0, 0.0))
    )
    return ok, (
        f"state: {[round(v, 6) for v in psi_spec]}, GHZ: {[round(v, 6) for v in ghz_spec]}"
    )


def check_distributed_equivalence() -> tuple[bool, str]:
    game = games.four_party_game()
    strategy = trials.quantum_strategy(game)
    in_process = trials.run_trials(game, strategy, rounds=1000, seed=42)
    transcript: dict[int, list[bytes]] = {}
    distributed = netplay.run_local_session(
        game, strategy, rounds=1000, seed=42, transcript=transcript
    )
    identical = in_process.to_jsonl() == distributed.to_jsonl()
    leaks = _transcript_leaks(game, transcript)
    return identical and not leaks, f"identical={identical}, leaky messages={len(leaks)}"


def _transcript_leaks(game, transcript) -> list[str]:
    """Outbound messages that would reveal another party's question/answer."""
    leaks = []
    owned = {
        party: {q for q, p in game.qubit_ownership if p == party}
        for party in range(game.parties)
    }
    for party, blobs in transcript.items():
        for blob in blobs:
            message = netplay.decode_message(blob)
            if message["type"] == "question":
                slots = {o["slot"] for o in message["observables"]}
                if not slots <= owned[party]:
                    leaks.append(f"party {party} asked about foreign slots {slots}")
            elif message["type"] == "answer":
                leaks.append(f"party {party} received an answer message")
            elif message["type"] not in ("dealt", "end"):
                leaks.append(f"party {party} received {message['type']!r}")
    return leaks


def check_extended_solver() -> tuple[bool, str]:
    game = games.cabello_extended()
    result = classical.classical_value(game)  # default budget
    bound = classical.noncontextual_value(game)
    # every question occurs in exactly one context, so each parity is won alone
    single_use = all(
        len({ctx.questions[party] for ctx in game.contexts})
        == len(game.contexts)
        == len(questions)
        for party, questions in enumerate(game.question_sets)
    )
    witness = classical.win_probability(game, result.optimal_strategies[0])
    # so the solver scans each context alone: at most 4 patterns apiece
    scanned = result.strategies_examined
    ok = (
        result.value == 1 == witness and single_use and scanned == 44
        and bound == Fraction(6, 7)
    )
    return ok, (
        f"contextual classical value={result.value}, witness value={witness}, "
        f"every question in one context={single_use}, "
        f"outer strategies examined={scanned}, "
        f"best noncontextual assignment value={bound}"
    )


CRITERIA: tuple[tuple[int, str, float | None, Callable[[], tuple[bool, str]]], ...] = (
    (1, "fourteen equalities hold surely on the four-qubit state",
     1.0, check_fourteen_hold_surely),
    (2, "the four tested equalities admit at most 3 joint satisfactions",
     1.0, check_four_equation_contradiction),
    (3, "noncontextual max-sat over the fourteen equalities equals 12 (at most 13)",
     1.0, check_fourteen_maxsat_is_12),
    (4, "the restricted experiment has a perfect classical model",
     1.0, check_restricted_game_is_classical),
    (5, "lambda-mu matches the quantum statistics on the 4 tested contexts, "
     "TV 1/2 on the 4 untested", None, check_mimicry_on_tested_contexts),
    (6, "four-party game: classical value 6/7 (at most 13/14), quantum wins every round",
     5.0, check_four_party_gap),
    (7, "three-party baseline: classical 3/4, GHZ wins surely",
     1.0, check_mermin_baseline),
    (8, "x2 selects which embedded three-party constraint holds surely",
     None, check_nested_conditioning),
    (9, "reduced spectra separate the four-qubit state from GHZ",
     None, check_spectra_distinguish_states),
    (10, "distributed referee reproduces the in-process log bit for bit",
     10.0, check_distributed_equivalence),
    (11, "extended-game solver: classical value 1 within budget, noncontextual 6/7",
     None, check_extended_solver),
)


def run_all() -> list[CheckResult]:
    """Run every criterion's check in order, timing each; a bounded check
    passes only within its bound, and its detail ends with the time taken."""
    results = []
    for number, claim, bound_s, check in CRITERIA:
        start = time.perf_counter()
        passed, detail = check()
        elapsed = time.perf_counter() - start
        if bound_s is not None:
            passed = passed and elapsed < bound_s
            detail = f"{detail}, {elapsed:.3f}s"
        results.append(CheckResult(number, claim, passed, detail))
    return results
