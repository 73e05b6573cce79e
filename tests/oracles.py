"""Independent brute-force oracles the tests check the package against.

Everything here deliberately avoids the package's computational paths:
distributions come from explicit Kronecker-product projectors, game
values from full joint strategy enumeration with Fractions, and max-sat
from a plain python loop. Slow and obvious beats fast and shared.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

_I2 = np.eye(2, dtype=complex)
_PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def kron_projector_distribution(amplitudes, observables):
    """Joint +-1 distribution via explicit full-space eigenprojectors.

    ``observables`` is a sequence of (kind_letter, qubit) pairs, qubit
    1-based with qubit 1 as the leftmost factor.
    """
    state = np.asarray(amplitudes, dtype=complex)
    n = int(np.log2(state.size))
    dist = {}
    for values in itertools.product((+1, -1), repeat=len(observables)):
        ops = [_I2] * n
        for (kind, qubit), value in zip(observables, values):
            ops[qubit - 1] = (_I2 + value * _PAULI[kind]) / 2
        full = np.array([[1.0 + 0j]])
        for op in ops:
            full = np.kron(full, op)
        dist[values] = float(np.linalg.norm(full @ state) ** 2)
    return dist


#: below this, a probability is round-off on an outcome the state forbids
FORBIDDEN_BELOW = 1e-9


def draw_from(dist, u):
    """Pick the outcome whose cumulative probability interval contains u.

    Iterates ``dist`` in its insertion order, which for the package's
    distributions is the canonical +1-before--1 product order. An outcome
    with probability below ``FORBIDDEN_BELOW`` has an empty interval, and
    a u in the round-off sliver at the top takes the last outcome that has
    one. The reference for the outcome pick of the quantum strategy's
    dealer.
    """
    acc = 0.0
    last = None
    for values, p in dist.items():
        if p < FORBIDDEN_BELOW:
            continue
        acc += p
        last = values
        if u < acc:
            return values
    if last is None:
        raise ValueError("cannot draw from an empty distribution")
    return last


def python_maxsat(constraints):
    """(max satisfied, all maximizing assignments) by plain enumeration.

    ``constraints`` is a sequence of (vars, sign) with vars a sequence of
    (kind_letter, qubit) pairs.
    """
    variables = sorted({v for vars_, _ in constraints for v in vars_})
    best, witnesses = -1, []
    for bits in itertools.product((+1, -1), repeat=len(variables)):
        assignment = dict(zip(variables, bits))
        satisfied = 0
        for vars_, sign in constraints:
            prod = 1
            for v in vars_:
                prod *= assignment[v]
            satisfied += prod == sign
        if satisfied > best:
            best, witnesses = satisfied, [assignment]
        elif satisfied == best:
            witnesses.append(assignment)
    return best, witnesses


def enumerate_game_value(game) -> Fraction:
    """Classical value by enumerating every joint deterministic strategy.

    Only feasible for the small catalog games; uses nothing from the
    solver (predicates are evaluated directly as parity products).
    """
    per_party_strategies = []
    for questions in game.question_sets:
        spaces = [
            [(q.id, answer) for answer in itertools.product((+1, -1), repeat=q.answer_arity)]
            for q in questions
        ]
        per_party_strategies.append(
            [dict(combo) for combo in itertools.product(*spaces)]
        )
    return max(
        strategy_value(game, joint)
        for joint in itertools.product(*per_party_strategies)
    )


def strategy_value(game, answers) -> Fraction:
    """Winning probability of one deterministic strategy.

    ``answers[party][question_id]`` is the party's answer tuple. Each
    context is scored as a plain parity product of the answers.
    """
    return sum((ctx.weight for ctx in game.contexts if _wins(ctx, answers)), Fraction(0))


def _wins(ctx, answers) -> bool:
    """Whether the answers win one context, as a plain parity product."""
    if ctx.predicate is None:
        return True
    outcomes = {}
    for party, question in enumerate(ctx.questions):
        for obs, v in zip(question.measured, answers[party][question.id]):
            outcomes[(obs.kind, obs.qubit)] = v
    prod = 1
    for var in ctx.predicate.vars:
        prod *= outcomes[(var.kind, var.qubit)]
    return prod == ctx.predicate.sign


def solver_witnesses(game):
    """(classical value, every optimal strategy as (name, answers)) in the
    order and form the solver reports its witnesses, built slot by slot.

    The responder is the party with the most answer slots, the later party
    on a tie. The other parties' answers are enumerated jointly, each
    answer +1 before -1; the index of a joint answer reads every slot as
    one bit (-1 a set bit), the first party's first question's first slot
    the most significant, so enumeration runs in index order. At each index
    the responder answers each of its questions with the first answer in
    the same order that wins the most weight among the contexts asking it,
    so a question no context asks is answered all +1. Names are
    ``best-classical[index]``; ``answers`` is one dict per party in
    question order.
    """
    slots = [sum(len(q.measured) for q in qs) for qs in game.question_sets]
    responder = max(range(game.parties), key=lambda p: (slots[p], p))
    outer = [
        (party, q)
        for party, qs in enumerate(game.question_sets)
        if party != responder
        for q in qs
    ]
    spaces = [itertools.product((+1, -1), repeat=len(q.measured)) for _, q in outer]
    scored = []
    for joint in itertools.product(*spaces):
        index = 0
        for answer in joint:
            for v in answer:
                index = 2 * index + (v == -1)
        answers = [{} for _ in range(game.parties)]
        for (party, q), answer in zip(outer, joint):
            answers[party][q.id] = answer
        for q in game.question_sets[responder]:
            asking = [ctx for ctx in game.contexts if ctx.questions[responder] == q]
            won = {}
            for answer in itertools.product((+1, -1), repeat=len(q.measured)):
                answers[responder][q.id] = answer
                won[answer] = sum(ctx.weight for ctx in asking if _wins(ctx, answers))
            top = max(won.values())
            answers[responder][q.id] = next(a for a, w in won.items() if w == top)
        ordered = tuple(
            {q.id: answers[party][q.id] for q in qs}
            for party, qs in enumerate(game.question_sets)
        )
        scored.append((strategy_value(game, ordered), index, ordered))
    value = max(v for v, _, _ in scored)
    return value, [(f"best-classical[{i}]", a) for v, i, a in scored if v == value]


#: the fourteen parity equalities as plain data, transcribed separately
#: from the package so the two copies can disagree loudly
FOURTEEN = (
    ((("z", 1), ("z", 3)), +1),
    ((("z", 2), ("z", 4)), +1),
    ((("x", 1), ("x", 3), ("z", 4)), +1),
    ((("x", 2), ("z", 3), ("x", 4)), +1),
    ((("x", 1), ("z", 2), ("x", 3)), +1),
    ((("z", 1), ("x", 2), ("x", 4)), +1),
    ((("y", 1), ("y", 3), ("z", 4)), -1),
    ((("y", 2), ("z", 3), ("y", 4)), -1),
    ((("y", 1), ("z", 2), ("y", 3)), -1),
    ((("z", 1), ("y", 2), ("y", 4)), -1),
    ((("x", 1), ("x", 2), ("y", 3), ("y", 4)), +1),
    ((("x", 1), ("y", 2), ("y", 3), ("x", 4)), +1),
    ((("y", 1), ("x", 2), ("x", 3), ("y", 4)), +1),
    ((("y", 1), ("y", 2), ("x", 3), ("x", 4)), +1),
)
