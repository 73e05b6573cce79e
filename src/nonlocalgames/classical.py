"""Classical (local hidden variable) strategy machinery.

Everything user-facing here is exact: game values are ``Fraction``
instances, never floats, because distinguishing 12/14 from 13/14 is the
whole point. Internally the deterministic-strategy search runs on int64
numpy arrays over a common weight denominator, which keeps both the
exactness and the speed.

The classical value of a finite game equals its maximum over
deterministic strategies (shared randomness only mixes deterministic
ones), and with all parties but one fixed, the remaining party's
questions can be optimized independently. ``classical_value`` therefore
enumerates the joint strategies of all parties except a designated
responder and computes the responder's best reply per question.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Callable, ClassVar, Sequence

import numpy as np

from .games import (
    ALWAYS_WIN,
    Context,
    NonlocalGame,
    ParityConstraint,
    Question,
    predicate_eval,
)
from .quantum import SiteObservable

#: default cap on (outer strategies x contexts) evaluations per solve
DEFAULT_BUDGET = 10**8

_CHUNK = 1 << 19


class BudgetExceededError(Exception):
    """The requested search would exceed the evaluation budget."""

    def __init__(self, required: int, budget: int):
        super().__init__(
            f"search needs {required} evaluations but the budget is {budget}"
        )
        self.required = required
        self.budget = budget


#: one +-1 tape per party for one round
Tapes = tuple[tuple[int, ...], ...]
#: draws one round's tapes from the generator, given the round's context
Dealer = Callable[[np.random.Generator, Context], Tapes]


class LocalModel:
    """A local strategy: ``hidden_bits`` uniform +-1 bits dealt to every
    party each round (the shared randomness), then each party answers from
    its own question and those bits alone.

    This is the classical side of the one strategy shape in the package:
    ``dealer(game)`` validates against the game and returns ``deal(rng,
    context)``, which gives one tape per party for that round;
    ``respond(party, question, tape)`` is one party's answer;
    ``tape_width(game, party)`` is a party's tape length per round.
    """

    hidden_bits: int
    parties: int

    def tape_width(self, game: NonlocalGame, party: int) -> int:
        return self.hidden_bits

    def check(self, game: NonlocalGame) -> None:
        if self.parties != game.parties:
            raise ValueError(
                f"strategy covers {self.parties} parties, game has {game.parties}"
            )
        check_responses(game, self)

    def dealer(self, game: NonlocalGame) -> Dealer:
        self.check(game)
        k, parties = self.hidden_bits, game.parties

        def deal(rng: np.random.Generator, context: Context) -> Tapes:
            # size=0 draws nothing, so a deterministic table leaves the stream alone
            bits = tuple(1 - 2 * int(b) for b in rng.integers(0, 2, size=k))
            return (bits,) * parties

        return deal


@dataclass(frozen=True)
class DeterministicStrategy(LocalModel):
    """A total map question-id -> answer tuple for every party: the 0-bit model."""

    name: str
    answers: tuple[dict[str, tuple[int, ...]], ...]
    hidden_bits: ClassVar[int] = 0

    @property
    def parties(self) -> int:
        return len(self.answers)

    def answers_for(self, party: int, question_id: str) -> tuple[int, ...]:
        return self.answers[party][question_id]

    def respond(
        self, party: int, question: Question, tape: tuple[int, ...]
    ) -> tuple[int, ...]:
        return self.answers[party][question.id]


@dataclass(frozen=True)
class HiddenVariableModel(LocalModel):
    """Per-party deterministic responses to uniformly random hidden bits.

    ``responders[party](question_id, bits)`` returns the party's answer
    tuple; ``bits`` is a +-1 tuple of length ``hidden_bits`` shared by all
    parties and drawn fresh each round.
    """

    name: str
    hidden_bits: int
    responders: tuple[Callable[[str, tuple[int, ...]], tuple[int, ...]], ...]

    @property
    def parties(self) -> int:
        return len(self.responders)

    def respond(
        self, party: int, question: Question, tape: tuple[int, ...]
    ) -> tuple[int, ...]:
        return self.responders[party](question.id, tape)


def check_responses(game: NonlocalGame, strategy) -> None:
    """Raise ValueError unless ``strategy`` answers every question of every
    party, from an all-+1 tape, with the question's arity."""
    for party, questions in enumerate(game.question_sets):
        tape = (+1,) * strategy.tape_width(game, party)
        for q in questions:
            try:
                values = strategy.respond(party, q, tape)
            except (KeyError, IndexError):
                raise ValueError(
                    f"strategy is partial: party {party} lacks question {q.id}"
                ) from None
            if len(values) != q.answer_arity:
                raise ValueError(
                    f"party {party} question {q.id}: answer arity "
                    f"{len(values)} != {q.answer_arity}"
                )


@dataclass(frozen=True)
class GameValueResult:
    """Exact classical value with a capped sample of optimal strategies."""

    value: Fraction
    optimal_strategies: tuple[DeterministicStrategy, ...]
    strategies_examined: int

    def summary(self) -> str:
        return f"{self.value} ≈ {float(self.value):.6f}"


@dataclass(frozen=True)
class MaxSatResult:
    """Best count of simultaneously satisfiable parity constraints."""

    max_satisfied: int
    witnesses: tuple[dict[SiteObservable, int], ...]


# ---------------------------------------------------------------------------
# explicit models for the restricted two-party experiment
# ---------------------------------------------------------------------------


class _LambdaMuAlice:
    def __call__(self, question_id: str, bits: tuple[int, ...]) -> tuple[int, ...]:
        lam1, lam2, _ = bits
        return (lam1, lam2)


class _LambdaMuBob:
    def __call__(self, question_id: str, bits: tuple[int, ...]) -> tuple[int, ...]:
        lam1, lam2, mu = bits
        table = {
            "x3y4": (mu, mu * lam1 * lam2),
            "x3z4": (mu, mu * lam1),
            "y3y4": (mu, mu * lam1 * lam2),
            "y3z4": (mu, -mu * lam1),
        }
        return table[question_id]


def lambda_mu_model() -> HiddenVariableModel:
    """Three-bit local model winning the restricted game surely.

    Two shared bits and one bit private to party 1. Party 0 ignores its
    question and outputs the two shared bits; party 1's answers are fixed
    products of the bits chosen so that every tested parity holds for
    every bit assignment.
    """
    return HiddenVariableModel(
        name="lambda-mu",
        hidden_bits=3,
        responders=(_LambdaMuAlice(), _LambdaMuBob()),
    )


def automaton_model() -> DeterministicStrategy:
    """The measure-nothing strategy that wins the restricted game surely.

    Party 0 always answers (+1, +1); party 1 answers (+1, +1) except for
    question y3z4, where it answers (+1, -1).
    """
    return DeterministicStrategy(
        name="automaton",
        answers=(
            {"x1x2": (1, 1), "y1x2": (1, 1)},
            {"x3y4": (1, 1), "x3z4": (1, 1), "y3y4": (1, 1), "y3z4": (1, -1)},
        ),
    )


# ---------------------------------------------------------------------------
# evaluating strategies
# ---------------------------------------------------------------------------


def model_distribution(
    model: LocalModel, game: NonlocalGame, context: Context
) -> dict[tuple[int, ...], Fraction]:
    """Joint answer distribution a model induces in one context.

    Keys are the flattened answers in the same order as
    ``game.measured_observables(context)``, so the result is directly
    comparable with ``quantum.joint_distribution``. A deterministic
    strategy has no hidden bits, so it gives a point mass.
    """
    model.check(game)
    weight = Fraction(1, 2**model.hidden_bits)
    dist: dict[tuple[int, ...], Fraction] = {}
    for bits in itertools.product((+1, -1), repeat=model.hidden_bits):
        key = tuple(
            v
            for party, q in enumerate(context.questions)
            for v in model.respond(party, q, bits)
        )
        dist[key] = dist.get(key, Fraction(0)) + weight
    return dist


def win_probability(game: NonlocalGame, strategy: LocalModel) -> Fraction:
    """Exact winning probability of a strategy under the referee weights."""
    total = Fraction(0)
    for ctx in game.contexts:
        observables = game.measured_observables(ctx)
        for values, p in model_distribution(strategy, game, ctx).items():
            if predicate_eval(ctx.predicate, dict(zip(observables, values))):
                total += ctx.weight * p
    return total


# ---------------------------------------------------------------------------
# exact classical value by best-response enumeration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Digit:
    """One free coordinate of the outer search space: a (party, question)."""

    party: int
    question_id: str
    answers: tuple[tuple[int, ...], ...]
    stride: int


@dataclass(frozen=True)
class _CompiledContext:
    index: int
    weight_num: int
    sign: int  # 0 for ALWAYS_WIN
    outer_factors: tuple[tuple[int, np.ndarray], ...]  # (digit index, +-1 table)
    responder_products: tuple[int, ...]  # per responder answer choice


@dataclass(frozen=True)
class _QuestionGroup:
    question_id: str
    n_answers: int
    contexts: tuple[_CompiledContext, ...]


@dataclass(frozen=True)
class _Problem:
    digits: tuple[_Digit, ...]
    outer_size: int
    base_num: int
    groups: tuple[_QuestionGroup, ...]
    denominator: int
    responder: int


def _slot_product_table(question: Question, vars_: frozenset[SiteObservable]) -> np.ndarray:
    """Per answer choice, the +-1 product over the slots a predicate uses."""
    relevant = [i for i, obs in enumerate(question.measured) if obs in vars_]
    table = []
    for answer in question.answer_space():
        prod = 1
        for i in relevant:
            prod *= answer[i]
        table.append(prod)
    return np.array(table, dtype=np.int8)


def _compile(game: NonlocalGame, responder: int, budget: int) -> _Problem:
    denominator = lcm(*(ctx.weight.denominator for ctx in game.contexts))
    digit_index: dict[tuple[int, str], int] = {}
    digits: list[_Digit] = []
    for party in range(game.parties):
        if party == responder:
            continue
        for q in game.question_sets[party]:
            digit_index[(party, q.id)] = len(digits)
            digits.append(
                _Digit(party, q.id, tuple(q.answer_space()), stride=0)
            )
    outer_size = 1
    for d in digits:
        outer_size *= len(d.answers)
    required = outer_size * len(game.contexts)
    if required > budget:
        raise BudgetExceededError(required, budget)
    # assign mixed-radix strides, last digit fastest
    strides = [0] * len(digits)
    acc = 1
    for i in range(len(digits) - 1, -1, -1):
        strides[i] = acc
        acc *= len(digits[i].answers)
    digits = [
        _Digit(d.party, d.question_id, d.answers, strides[i])
        for i, d in enumerate(digits)
    ]

    base = 0
    grouped: dict[str, list[_CompiledContext]] = {}
    group_arity: dict[str, int] = {}
    for ci, ctx in enumerate(game.contexts):
        weight_num = int(ctx.weight * denominator)
        if ctx.predicate is ALWAYS_WIN:
            base += weight_num
            continue
        vars_ = ctx.predicate.vars
        outer_factors = []
        for party, q in enumerate(ctx.questions):
            if party == responder:
                continue
            if any(obs in vars_ for obs in q.measured):
                di = digit_index[(party, q.id)]
                outer_factors.append((di, _slot_product_table(q, vars_)))
        resp_q = ctx.questions[responder]
        resp_table = _slot_product_table(resp_q, vars_)
        compiled = _CompiledContext(
            index=ci,
            weight_num=weight_num,
            sign=ctx.predicate.sign,
            outer_factors=tuple(outer_factors),
            responder_products=tuple(int(v) for v in resp_table),
        )
        grouped.setdefault(resp_q.id, []).append(compiled)
        group_arity[resp_q.id] = len(resp_q.answer_space())
    groups = tuple(
        _QuestionGroup(qid, group_arity[qid], tuple(ctxs))
        for qid, ctxs in grouped.items()
    )
    return _Problem(
        digits=tuple(digits),
        outer_size=outer_size,
        base_num=base,
        groups=groups,
        denominator=denominator,
        responder=responder,
    )


def _scan_chunk(problem: _Problem, lo: int, hi: int) -> tuple[int, list[int]]:
    """Best score over outer indices [lo, hi) and the indices achieving it."""
    idx = np.arange(lo, hi, dtype=np.int64)
    digit_values: dict[int, np.ndarray] = {}

    def values_of(di: int) -> np.ndarray:
        if di not in digit_values:
            d = problem.digits[di]
            digit_values[di] = (idx // d.stride) % len(d.answers)
        return digit_values[di]

    score = np.full(idx.shape, problem.base_num, dtype=np.int64)
    for group in problem.groups:
        parities = []
        for ctx in group.contexts:
            outer = np.ones(idx.shape, dtype=np.int8)
            for di, table in ctx.outer_factors:
                outer = outer * table[values_of(di)]
            parities.append(outer)
        best = None
        for answer_index in range(group.n_answers):
            acc = np.zeros(idx.shape, dtype=np.int64)
            for ctx, outer in zip(group.contexts, parities):
                need = ctx.sign * ctx.responder_products[answer_index]
                acc += ctx.weight_num * (outer == need)
            best = acc if best is None else np.maximum(best, acc)
        if best is not None:
            score += best
    chunk_max = int(score.max())
    winners = [int(v) for v in idx[score == chunk_max]]
    return chunk_max, winners


def _scan_chunk_args(args: tuple[_Problem, int, int]) -> tuple[int, list[int]]:
    return _scan_chunk(*args)


def _decode_outer(problem: _Problem, game: NonlocalGame, index: int) -> list[dict[str, tuple[int, ...]]]:
    answers: list[dict[str, tuple[int, ...]]] = [dict() for _ in range(game.parties)]
    for d in problem.digits:
        value = (index // d.stride) % len(d.answers)
        answers[d.party][d.question_id] = d.answers[value]
    return answers


def _best_response(
    problem: _Problem, game: NonlocalGame, outer_index: int
) -> dict[str, tuple[int, ...]]:
    """Lexicographically-first optimal responder answers for a fixed outer index."""
    response: dict[str, tuple[int, ...]] = {}
    covered = {g.question_id for g in problem.groups}
    for group in problem.groups:
        question = game.question(problem.responder, group.question_id)
        space = question.answer_space()
        best_score, best_answer = None, None
        for answer_index, answer in enumerate(space):
            total = 0
            for ctx in group.contexts:
                outer = 1
                for di, table in ctx.outer_factors:
                    d = problem.digits[di]
                    outer *= int(table[(outer_index // d.stride) % len(d.answers)])
                if outer * ctx.responder_products[answer_index] == ctx.sign:
                    total += ctx.weight_num
            if best_score is None or total > best_score:
                best_score, best_answer = total, answer
        response[group.question_id] = best_answer
    for q in game.question_sets[problem.responder]:
        if q.id not in covered:
            response[q.id] = q.answer_space()[0]
    return response


def classical_value(
    game: NonlocalGame,
    *,
    budget: int = DEFAULT_BUDGET,
    max_witnesses: int = 16,
    workers: int = 1,
    chunk_size: int = _CHUNK,
) -> GameValueResult:
    """Exact maximum winning probability over all deterministic strategies.

    All parties except the responder (the party with the largest strategy
    space) are enumerated as one mixed-radix index; the responder's reply
    is optimized per question, which is valid because its questions
    contribute independently once the rest is fixed. The scan is chunked;
    with ``workers > 1`` chunks run in a process pool and the result is
    identical to the sequential scan regardless of partitioning.

    Raises ``BudgetExceededError`` up front if the scan would need more
    than ``budget`` (outer strategies x contexts) evaluations.
    """

    def space_size(party: int) -> int:
        size = 1
        for q in game.question_sets[party]:
            size *= len(q.answer_space())
        return size

    responder = max(range(game.parties), key=lambda p: (space_size(p), p))
    problem = _compile(game, responder, budget)

    chunks = [
        (problem, lo, min(lo + chunk_size, problem.outer_size))
        for lo in range(0, problem.outer_size, chunk_size)
    ]
    if workers > 1 and len(chunks) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_scan_chunk_args, chunks))
    else:
        results = [_scan_chunk(*chunk) for chunk in chunks]

    best = max(chunk_max for chunk_max, _ in results)
    winner_indices = itertools.islice(
        (i for chunk_max, winners in results if chunk_max == best for i in winners),
        max_witnesses,
    )

    strategies = []
    for index in winner_indices:
        answers = _decode_outer(problem, game, index)
        answers[responder] = _best_response(problem, game, index)
        strategies.append(
            DeterministicStrategy(name=f"best-classical[{index}]", answers=tuple(answers))
        )
    return GameValueResult(
        value=Fraction(best, problem.denominator),
        optimal_strategies=tuple(strategies),
        strategies_examined=problem.outer_size,
    )


# ---------------------------------------------------------------------------
# noncontextual max-sat over +-1 assignments
# ---------------------------------------------------------------------------

_MAXSAT_VAR_LIMIT = 20


def noncontextual_value(game: NonlocalGame) -> Fraction:
    """Best weighted win rate achievable by one fixed +-1 assignment.

    The assignment is reused across every context (the "preassigned
    values" a local realist needs); always-win contexts count fully. For
    uniformly weighted games this equals (always_win + max_satisfied) /
    context count.
    """
    predicates = [c.predicate for c in game.contexts if c.predicate is not ALWAYS_WIN]
    always = sum(
        (c.weight for c in game.contexts if c.predicate is ALWAYS_WIN), Fraction(0)
    )
    if not predicates:
        return always
    variables = sorted({v for p in predicates for v in p.vars})
    if len(variables) > _MAXSAT_VAR_LIMIT:
        raise BudgetExceededError(2 ** len(variables), 2**_MAXSAT_VAR_LIMIT)
    var_bit = {v: i for i, v in enumerate(variables)}
    denominator = lcm(*(c.weight.denominator for c in game.contexts))
    assignments = np.arange(1 << len(variables), dtype=np.uint32)
    score = np.zeros(assignments.shape, dtype=np.int64)
    for ctx in game.contexts:
        if ctx.predicate is ALWAYS_WIN:
            continue
        mask = np.uint32(sum(1 << var_bit[v] for v in ctx.predicate.vars))
        target = 0 if ctx.predicate.sign == +1 else 1
        parity = np.bitwise_count(assignments & mask).astype(np.uint8) & 1
        score += int(ctx.weight * denominator) * (parity == target)
    return always + Fraction(int(score.max()), denominator)


def noncontextual_maxsat(
    constraints: Sequence[ParityConstraint],
    *,
    max_witnesses: int | None = None,
) -> MaxSatResult:
    """Exact maximum number of parity constraints one +-1 assignment satisfies.

    A single value is assigned to every outcome variable and reused across
    all constraints; this is the noncontextual ("preassigned values")
    model a local realist would need. Brute forces all 2^v assignments,
    v <= 20. ``max_witnesses=None`` returns every maximizing assignment.
    """
    constraints = list(constraints)
    if not constraints:
        raise ValueError("need at least one constraint")
    variables = sorted({v for c in constraints for v in c.vars})
    if len(variables) > _MAXSAT_VAR_LIMIT:
        raise BudgetExceededError(2 ** len(variables), 2**_MAXSAT_VAR_LIMIT)
    var_bit = {v: i for i, v in enumerate(variables)}

    assignments = np.arange(1 << len(variables), dtype=np.uint32)
    satisfied = np.zeros(assignments.shape, dtype=np.int32)
    for c in constraints:
        mask = np.uint32(sum(1 << var_bit[v] for v in c.vars))
        target = 0 if c.sign == +1 else 1
        parity = np.bitwise_count(assignments & mask).astype(np.uint8) & 1
        satisfied += parity == target
    best = int(satisfied.max())
    winner_bits = np.flatnonzero(satisfied == best)
    if max_witnesses is not None:
        winner_bits = winner_bits[:max_witnesses]
    witnesses = tuple(
        {v: 1 - 2 * ((int(bits) >> var_bit[v]) & 1) for v in variables}
        for bits in winner_bits
    )
    return MaxSatResult(max_satisfied=best, witnesses=witnesses)
