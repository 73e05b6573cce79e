"""Classical (local hidden variable) strategy machinery.

Everything user-facing here is exact: game values are ``Fraction``
instances, never floats, because distinguishing 12/14 from 13/14 is the
whole point. Weights are scaled to integers over a common denominator.

Both values the package compares are weighted parity (XOR) max-sat over
+-1 answers, one bit each (a set bit means -1), every tested context one
parity. The noncontextual value gives each observable one bit, shared by
every context. The classical value gives each (party, question, slot)
one bit: it equals the maximum over deterministic strategies (shared
randomness only mixes deterministic ones), and with all parties but one
fixed, each question of the remaining "responder" can be answered on its
own. So one search serves both: each group of parities sharing free
bits (one responder question) adds the best weight any choice of those
bits wins. Groups that share no outer bit cannot constrain each other,
so the search splits them into connected components and enumerates each
component's own outer bits in numpy chunks in this one process, counting
parities with ``np.bitwise_count``; the value is the sum of the
components' bests. A game whose contexts each ask their own questions,
like the extended two-observer experiment, is many tiny scans instead of
one huge one.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Callable, ClassVar, Iterator, NamedTuple, Sequence

import numpy as np

from .games import (
    ALWAYS_WIN,
    Answers,
    Context,
    NonlocalGame,
    ParityConstraint,
    Question,
    SiteObservable,
)

#: default cap on (outer indices x parities) evaluations per solve, summed
#: over the search's components
DEFAULT_BUDGET = 10**8

_CHUNK = 1 << 19


class BudgetExceededError(Exception):
    """The search would exceed the evaluation budget: the sum over its
    components of (outer indices x parities), or for max-sat the number of
    assignments, is more than allowed."""

    def __init__(self, required: int, budget: int):
        super().__init__(
            f"search needs {required} evaluations but the budget is {budget}"
        )
        self.required = required
        self.budget = budget


#: one +-1 tape per party for one round
Tapes = tuple[tuple[int, ...], ...]


class Dealer(NamedTuple):
    """A strategy's randomness over a whole session, in column form.

    After its context's uniform, each round draws ``uniforms`` more
    uniforms in [0, 1) and then ``bits`` fair 0/1 bits. ``codes(contexts,
    uniforms, bits)`` turns those draws, one row per round (context
    indices, a (rounds, uniforms) float array and a (rounds, bits) int
    array), into one int code per round; ``tapes(context, code)`` gives
    the per-party tapes a code stands for in the context with that index.
    """

    uniforms: int
    bits: int
    codes: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    tapes: Callable[[int, int], Tapes]


class LocalModel:
    """A local strategy: ``hidden_bits`` uniform +-1 bits dealt to every
    party each round (the shared randomness), then each party answers from
    its own question and those bits alone.

    This is the classical side of the one strategy shape in the package:
    ``dealer(game)`` validates against the game and returns a ``Dealer``
    that draws ``hidden_bits`` bits a round and codes them as an int
    (bit i of the code is hidden bit i, a set bit dealt as -1), so a
    deterministic table draws nothing and codes every round 0;
    ``respond(party, question, tape)`` is one party's answer;
    ``tape_width(game, party)`` is a party's tape length per round.
    """

    hidden_bits: int
    parties: int

    def tape_width(self, game: NonlocalGame, party: int) -> int:
        return self.hidden_bits

    def check(self, game: NonlocalGame) -> None:
        """Raise ValueError unless the model covers the game's parties and
        answers every question of every party, from an all-+1 tape, with the
        question's arity."""
        if self.parties != game.parties:
            raise ValueError(
                f"strategy covers {self.parties} parties, game has {game.parties}"
            )
        for party, questions in enumerate(game.question_sets):
            tape = (+1,) * self.tape_width(game, party)
            for q in questions:
                try:
                    values = self.respond(party, q, tape)
                except (KeyError, IndexError):
                    raise ValueError(
                        f"strategy is partial: party {party} lacks question {q.id}"
                    ) from None
                if len(values) != q.answer_arity:
                    raise ValueError(
                        f"party {party} question {q.id}: answer arity "
                        f"{len(values)} != {q.answer_arity}"
                    )

    def dealer(self, game: NonlocalGame) -> Dealer:
        k, parties = self.hidden_bits, game.parties
        if k > 32:
            # a round's code, paired with its context, must fit an int64
            raise ValueError(f"at most 32 hidden bits a round, got {k}")
        self.check(game)
        weights = 1 << np.arange(k)

        def codes(contexts: np.ndarray, uniforms: np.ndarray, bits: np.ndarray) -> np.ndarray:
            return bits @ weights

        def tapes(context: int, code: int) -> Tapes:
            return (_answer(code, range(k)),) * parties

        return Dealer(uniforms=0, bits=k, codes=codes, tapes=tapes)


@dataclass(frozen=True)
class DeterministicStrategy(LocalModel):
    """A total map question-id -> answer tuple for every party: the 0-bit model."""

    name: str
    answers: tuple[dict[str, tuple[int, ...]], ...]
    hidden_bits: ClassVar[int] = 0

    @property
    def parties(self) -> int:
        return len(self.answers)

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


@dataclass(frozen=True)
class GameValueResult:
    """Exact classical value with a capped sample of optimal strategies."""

    value: Fraction
    optimal_strategies: tuple[DeterministicStrategy, ...]
    strategies_examined: int


@dataclass(frozen=True)
class MaxSatResult:
    """Best count of simultaneously satisfiable parity constraints, how
    many assignments reach it, and a capped sample of them."""

    max_satisfied: int
    witnesses: tuple[dict[SiteObservable, int], ...]
    count: int


# ---------------------------------------------------------------------------
# explicit models for the restricted two-party experiment
# ---------------------------------------------------------------------------


def _lambda_mu_alice(question_id: str, bits: tuple[int, ...]) -> tuple[int, ...]:
    lam1, lam2, _ = bits
    return (lam1, lam2)


def _lambda_mu_bob(question_id: str, bits: tuple[int, ...]) -> tuple[int, ...]:
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
        responders=(_lambda_mu_alice, _lambda_mu_bob),
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


def _scaled_weights(game: NonlocalGame) -> tuple[int, list[int]]:
    """The common denominator of the context weights, and each context's
    weight as an integer over it."""
    denominator = lcm(*(ctx.weight.denominator for ctx in game.contexts))
    return denominator, [
        ctx.weight.numerator * (denominator // ctx.weight.denominator) for ctx in game.contexts
    ]


def model_distribution(
    model: LocalModel, game: NonlocalGame, context: Context
) -> dict[tuple[int, ...], Fraction]:
    """Joint answer distribution a model induces in one context.

    Keys are the answers flattened party by party, the order of
    ``game.measured_observables(context)``, so the result is directly
    comparable with ``quantum.joint_distribution``. A deterministic
    strategy has no hidden bits, so it gives a point mass. The model is
    checked against the game first (``model.check``), on every call.
    """
    model.check(game)
    draws = 2**model.hidden_bits
    return {
        tuple(v for values in answers for v in values): Fraction(n, draws)
        for answers, n in _answer_counts(model, context).items()
    }


def _answer_counts(model: LocalModel, context: Context) -> dict[Answers, int]:
    """How many of the model's ``2**hidden_bits`` hidden-bit draws give each
    round's answers (one tuple per party) in one context, keys in order of
    first occurrence. The model must already have been checked against the
    game."""
    counts: dict[Answers, int] = {}
    for bits in itertools.product((+1, -1), repeat=model.hidden_bits):
        key = tuple(
            tuple(model.respond(party, q, bits)) for party, q in enumerate(context.questions)
        )
        counts[key] = counts.get(key, 0) + 1
    return counts


def win_probability(game: NonlocalGame, strategy: LocalModel) -> Fraction:
    """Exact winning probability of a strategy under the referee weights.

    The strategy is checked against the game once (``strategy.check``,
    which raises ``ValueError`` for a partial strategy or a wrong answer
    arity); then each context's distinct answers are scored by
    ``Context.row``, as a played round is, and the draws that win are
    summed in integers over the weights' common denominator.
    """
    strategy.check(game)
    denominator, weights = _scaled_weights(game)
    won = 0
    for ctx, weight in zip(game.contexts, weights):
        counts = _answer_counts(strategy, ctx)
        draws = sum(n for answers, n in counts.items() if ctx.row(answers)[3])
        won += draws * weight
    return Fraction(won, denominator << strategy.hidden_bits)


# ---------------------------------------------------------------------------
# one weighted-parity search behind the classical and noncontextual values
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Parity:
    """One scored context: ``weight`` is won when the outer bits under
    ``outer_mask`` and the group's free bits under ``free_mask`` have
    parity ``target`` together."""

    weight: int
    target: int
    outer_mask: int
    free_mask: int


@dataclass(frozen=True)
class _Group:
    """Parities sharing ``free_bits`` bits that are chosen anew for every
    outer index: the answer slots of one responder question."""

    free_bits: int
    parities: tuple[_Parity, ...]


@dataclass(frozen=True)
class _Search:
    """Maximize ``base`` plus, per group, the best weight its parities win,
    over all ``2**outer_bits`` outer indices."""

    outer_bits: int
    base: int
    groups: tuple[_Group, ...]

    @functools.cached_property
    def dtype(self) -> np.dtype:
        """The smallest unsigned type holding every score."""
        return np.min_scalar_type(
            self.base + sum(p.weight for g in self.groups for p in g.parities)
        )


def _target(sign: int) -> int:
    """The parity of the set bits (set means -1) that makes a product ``sign``."""
    return 0 if sign == +1 else 1


def _answer_scores(
    group: _Group, outer: Sequence[np.ndarray], dtype: np.dtype
) -> Iterator[np.ndarray]:
    """Per choice of the group's free bits, in order, the weight its
    parities win, given each parity's outer-bit parity at every index."""
    for free in range(1 << group.free_bits):
        won = np.zeros(outer[0].shape, dtype=dtype)
        for p, bits in zip(group.parities, outer):
            need = p.target ^ ((free & p.free_mask).bit_count() & 1)
            won += (bits == need) * dtype.type(p.weight)
        yield won


def _best_in(
    search: _Search, lo: int, hi: int, limit: int | None
) -> tuple[int, int, list[int]]:
    """Best score over outer indices [lo, hi), how many indices reach it,
    and at most ``limit`` of them, in index order."""
    idx = np.arange(lo, hi, dtype=np.int64)
    dtype = search.dtype
    score = np.full(idx.shape, search.base, dtype=dtype)
    for group in search.groups:
        outer = [np.bitwise_count(idx & p.outer_mask) & 1 for p in group.parities]
        score += functools.reduce(np.maximum, _answer_scores(group, outer, dtype))
    best = int(score.max())
    reached = np.flatnonzero(score == best)
    return best, reached.size, (reached[:limit] + lo).tolist()


def _spread(local: int, positions: Sequence[int]) -> int:
    """The index with bit ``positions[k]`` set for each set bit k of ``local``."""
    return sum(1 << b for k, b in enumerate(positions) if local >> k & 1)


def _gather(index: int, positions: Sequence[int]) -> int:
    """The local index with bit k set when bit ``positions[k]`` of ``index`` is."""
    return sum(1 << k for k, b in enumerate(positions) if index >> b & 1)


def _components(search: _Search) -> list[tuple[tuple[int, ...], _Search]]:
    """The search split into independent parts: groups join when their
    parities share an outer bit. Each part is its global outer bits,
    ascending, and a base-0 search in which bit k stands for the k-th."""
    parts: list[tuple[int, list[_Group]]] = []
    for group in search.groups:
        mask = functools.reduce(operator.or_, (p.outer_mask for p in group.parities), 0)
        groups = [group]
        for part in [part for part in parts if part[0] & mask]:
            parts.remove(part)
            mask |= part[0]
            groups = part[1] + groups
        parts.append((mask, groups))
    components = []
    for mask, groups in parts:
        positions = tuple(b for b in range(mask.bit_length()) if mask >> b & 1)
        local = tuple(
            _Group(g.free_bits, tuple(
                _Parity(p.weight, p.target, _gather(p.outer_mask, positions), p.free_mask)
                for p in g.parities
            ))
            for g in groups
        )
        components.append((positions, _Search(len(positions), 0, local)))
    return components


def _smallest_sums(a: list[int], b: list[int], limit: int | None) -> list[int]:
    """The ``limit`` smallest sums x + y, x from ``a`` and y from ``b``
    (both ascending), in ascending order; ``None`` keeps every sum.

    ``a[i] + b[j]`` is no smaller than the (i + 1)(j + 1) sums
    ``a[k] + b[m]`` with k <= i and m <= j, so no pair with (i + 1)(j + 1)
    > ``limit`` is needed, and at most limit x (1 + ln limit) sums are
    sorted.
    """
    if limit is None:
        return sorted(x + y for x in a for y in b)
    return sorted(
        a[i] + b[j] for i in range(min(len(a), limit)) for j in range(min(len(b), limit // (i + 1)))
    )[:limit]


def _run_search(
    search: _Search, limit: int | None, budget: int | None = None
) -> tuple[int, list[int], int, int]:
    """Best score, the first ``limit`` outer indices reaching it (``None``
    keeps all), how many outer indices were scanned, and how many reach
    the best score.

    Each component is scanned in this process over its own outer bits only,
    in ``_CHUNK``-index chunks that bound memory; its best is the top chunk
    best. The best score is ``base`` plus the components' bests. The
    indices reaching it are every sum of one optimal pattern per component
    and any values of the outer bits no parity touches; the bits are
    disjoint, so merging the components one at a time and keeping the
    ``limit`` smallest sums after each merge is exact. Their count is the
    product of the components' counts of optimal local indices, times 2
    per outer bit no parity touches. Raises
    ``BudgetExceededError`` before any scan if the components need more
    than ``budget`` (outer indices x parities) evaluations in all.
    """
    if limit is not None and limit < 0:
        raise ValueError(f"witness limit must be >= 0, got {limit}")
    components = _components(search)
    required = sum(
        (1 << part.outer_bits) * sum(len(g.parities) for g in part.groups)
        for _, part in components
    )
    if budget is not None and required > budget:
        raise BudgetExceededError(required, budget)
    best, winners, count, touched = search.base, [0], 1, set()
    for positions, part in components:
        size = 1 << part.outer_bits
        found = [
            _best_in(part, lo, min(lo + _CHUNK, size), limit) for lo in range(0, size, _CHUNK)
        ]
        top = max(chunk_best for chunk_best, _, _ in found)
        local = [i for chunk_best, _, idx in found if chunk_best == top for i in idx][:limit]
        best += top
        count *= sum(reached for chunk_best, reached, _ in found if chunk_best == top)
        winners = _smallest_sums(winners, [_spread(i, positions) for i in local], limit)
        touched.update(positions)
    untouched = sorted(set(range(search.outer_bits)) - touched)
    for bit in untouched:
        winners = _smallest_sums(winners, [0, 1 << bit], limit)
    examined = sum(1 << part.outer_bits for _, part in components)
    return best, winners, examined, count << len(untouched)


def _best_answers(search: _Search, indices: list[int]) -> list[list[int]]:
    """Per group, at each of the outer ``indices`` (Python ints of any
    size), the first choice of its free bits that scores best."""
    picks = []
    for group in search.groups:
        outer = [
            np.array([(i & p.outer_mask).bit_count() & 1 for i in indices], dtype=np.int64)
            for p in group.parities
        ]
        scores = np.stack(list(_answer_scores(group, outer, search.dtype)))
        picks.append(scores.argmax(axis=0).tolist())
    return picks


def _answer(bits: int, positions: Sequence[int]) -> tuple[int, ...]:
    """The +-1 answer whose slot s is -1 when bit ``positions[s]`` is set."""
    return tuple(1 - 2 * ((bits >> b) & 1) for b in positions)


def classical_value(
    game: NonlocalGame,
    *,
    budget: int = DEFAULT_BUDGET,
    max_witnesses: int = 16,
    workers: int = 1,
) -> GameValueResult:
    """Exact maximum winning probability over all deterministic strategies.

    Every answer slot of every party except the responder (the party with
    the most answer slots) is one outer bit; the last question of the last
    party takes the lowest bits, and each question's slots are consecutive
    bits with its first slot the highest, so outer indices count through
    the strategies in the order of their answer spaces. Each responder
    question is a group whose free bits are chosen per outer index, which
    is exact because no context asks the responder two questions. Groups
    whose parities share no outer bit are scanned apart, each component
    over its own outer bits only, so ``strategies_examined`` is the sum
    over components of 2**(component outer bits); witnesses are still the
    first ``max_witnesses`` optimal strategies in outer index order, and
    indices are exact at any size. In a witness, a question of arity a
    whose lowest bit is ``low`` answers ``(index >> low) & (2**a - 1)``
    read from its top bit down, a set bit being -1; a responder question
    answers its group's first best choice of free bits at that index, or
    all +1 when no context asks it. ``workers`` is accepted and unused:
    every scan runs in this process. The keyword stays only because the
    benchmark harness (``perfbench/worker.py``) still passes it.

    Raises ``BudgetExceededError`` up front, before any scan, if the
    components would need more than ``budget`` evaluations in all: the sum
    over components of 2**(outer bits) x (parities in the component).
    """
    responder = max(
        range(game.parties),
        key=lambda p: (sum(q.answer_arity for q in game.question_sets[p]), p),
    )
    # (party, question id) -> the lowest bit of the question's slots, which
    # run from low + arity - 1 (slot 0) down to low: outer bits for the
    # enumerated parties, free bits of its group for the responder
    lowest: dict[tuple[int, str], int] = {}
    outer_bits = 0
    for party in reversed(range(game.parties)):
        for q in reversed(game.question_sets[party]):
            lowest[party, q.id] = 0 if party == responder else outer_bits
            if party != responder:
                outer_bits += q.answer_arity
    denominator, weights = _scaled_weights(game)
    base = 0
    grouped: dict[str, list[_Parity]] = {}
    for ctx, weight in zip(game.contexts, weights):
        if ctx.predicate is ALWAYS_WIN:
            base += weight
            continue
        outer = free = 0
        for party, q in enumerate(ctx.questions):
            top = lowest[party, q.id] + q.answer_arity - 1
            for slot, obs in enumerate(q.measured):
                if obs not in ctx.predicate.vars:
                    continue
                if party == responder:
                    free |= 1 << (top - slot)
                else:
                    outer |= 1 << (top - slot)
        grouped.setdefault(ctx.questions[responder].id, []).append(
            _Parity(weight, _target(ctx.predicate.sign), outer, free)
        )
    search = _Search(
        outer_bits,
        base,
        tuple(
            _Group(game.question(responder, qid).answer_arity, tuple(parities))
            for qid, parities in grouped.items()
        ),
    )
    best, winners, examined, _ = _run_search(search, max_witnesses, budget)

    picks = dict(zip(grouped, _best_answers(search, winners)))
    unasked = [0] * len(winners)
    # per party, each question's id, arity and answer bits at every witness
    columns: list[list[tuple[str, int, list[int]]]] = []
    for party, questions in enumerate(game.question_sets):
        columns.append([])
        for q in questions:
            if party == responder:
                bits = picks.get(q.id, unasked)
            else:
                low, mask = lowest[party, q.id], (1 << q.answer_arity) - 1
                bits = [(index >> low) & mask for index in winners]
            columns[party].append((q.id, q.answer_arity, bits))
    # the +-1 answer of each (arity, answer bits), built once per call
    answer = functools.cache(lambda arity, bits: _answer(bits, range(arity - 1, -1, -1)))
    strategies = tuple(
        DeterministicStrategy(
            name=f"best-classical[{index}]",
            answers=tuple(
                {qid: answer(arity, bits[n]) for qid, arity, bits in questions}
                for questions in columns
            ),
        )
        for n, index in enumerate(winners)
    )
    return GameValueResult(
        value=Fraction(best, denominator),
        optimal_strategies=strategies,
        strategies_examined=examined,
    )


_MAXSAT_VAR_LIMIT = 20


def _best_assignment(
    weighted: Sequence[tuple[int, ParityConstraint]], base: int, limit: int | None
) -> tuple[int, list[SiteObservable], list[int], int]:
    """Best ``base`` plus weight of the constraints one +-1 assignment
    satisfies, the sorted variables, at most ``limit`` maximizing
    assignments as bit patterns (bit i set means variable i is -1), and
    how many assignments maximize."""
    variables = sorted({v for _, c in weighted for v in c.vars})
    if len(variables) > _MAXSAT_VAR_LIMIT:
        raise BudgetExceededError(2 ** len(variables), 2**_MAXSAT_VAR_LIMIT)
    bit = {v: 1 << i for i, v in enumerate(variables)}
    parities = tuple(
        _Parity(w, _target(c.sign), sum(bit[v] for v in c.vars), 0) for w, c in weighted
    )
    # one group per constraint: no bits are free, and no constraint's bits are held
    groups = tuple(_Group(0, (p,)) for p in parities)
    best, winners, _, count = _run_search(_Search(len(variables), base, groups), limit)
    return best, variables, winners, count


def noncontextual_value(game: NonlocalGame) -> Fraction:
    """Best weighted win rate achievable by one fixed +-1 assignment.

    The assignment is reused across every context (the "preassigned
    values" a local realist needs); always-win contexts count fully. For
    uniformly weighted games this equals (always_win + max_satisfied) /
    context count.
    """
    denominator, scaled = _scaled_weights(game)
    weights = [(w, c.predicate) for w, c in zip(scaled, game.contexts)]
    always = sum(w for w, predicate in weights if predicate is ALWAYS_WIN)
    tested = [(w, predicate) for w, predicate in weights if predicate is not ALWAYS_WIN]
    best, _, _, _ = _best_assignment(tested, always, limit=0)
    return Fraction(best, denominator)


def noncontextual_maxsat(
    constraints: Sequence[ParityConstraint],
    *,
    max_witnesses: int | None = None,
) -> MaxSatResult:
    """Exact maximum number of parity constraints one +-1 assignment satisfies.

    A single value is assigned to every outcome variable and reused across
    all constraints; this is the noncontextual ("preassigned values")
    model a local realist would need. Brute forces all 2^v assignments,
    v <= 20. ``count`` is how many assignments maximize, counted without
    building them; ``witnesses`` are the first ``max_witnesses`` of them
    (``None`` returns every one), in the order of their bit patterns (bit
    i set means the i-th variable in sorted order is -1).
    """
    constraints = list(constraints)
    if not constraints:
        raise ValueError("need at least one constraint")
    best, variables, winners, count = _best_assignment(
        [(1, c) for c in constraints], 0, max_witnesses
    )
    all_plus = dict.fromkeys(variables, +1)
    # each variable's -1 entry, hashed once for every witness
    minus = [{v: -1} for v in variables]
    witnesses = []
    for bits in winners:
        witness = all_plus.copy()
        while bits:
            top = bits.bit_length() - 1
            witness.update(minus[top])
            bits ^= 1 << top
        witnesses.append(witness)
    return MaxSatResult(max_satisfied=best, witnesses=tuple(witnesses), count=count)
