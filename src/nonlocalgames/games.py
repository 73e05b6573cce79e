"""Nonlocal game formalism plus the catalog of games built on the
four-qubit parity correlations.

A game consists of parties, per-party question sets, and weighted
contexts. A context fixes one question per party and either a parity
predicate over the measured outcomes or "always win". Everything is
validated eagerly: a game object that constructs successfully has
rational weights summing to one and only measurable predicates.

The observables the parity predicates range over live here too, as
plain (qubit, letter) pairs: ``SiteObservable(3, "x")`` is X on qubit 3,
written ``x3``. A kind is its letter ``"x"``, ``"y"`` or ``"z"``, the
spelling of equation-file lines, question ids and the wire's ``kind``
field. This module is plain Python; ``quantum`` holds the numerics.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache, cached_property
from fractions import Fraction
from typing import Mapping, NamedTuple, Sequence

#: predicate value meaning the referee accepts any answers for the context
ALWAYS_WIN = None

#: one round's answers, one tuple of +-1 values per party
Answers = tuple[tuple[int, ...], ...]
#: one scored round: context id, question ids, answers, win
Row = tuple[str, tuple[str, ...], Answers, bool]


class SiteObservable(NamedTuple):
    """A measurement kind applied to one qubit, e.g. X on qubit 3.

    ``kind`` is the letter ``"x"``, ``"y"`` or ``"z"``. Ordering is
    (qubit, kind) so that sorted collections read in qubit order, the way
    parity constraints are usually written.
    """

    qubit: int
    kind: str

    def __str__(self) -> str:
        return f"{self.kind}{self.qubit}"

    __repr__ = __str__


def site(text: str) -> SiteObservable:
    """Parse compact notation like ``x1`` or ``z4``; qubits count from 1."""
    text = text.strip().lower()
    if len(text) < 2 or text[0] not in "xyz" or not text[1:].isdigit() or int(text[1:]) < 1:
        raise ValueError(f"cannot parse site observable {text!r}")
    return SiteObservable(int(text[1:]), text[0])


def sites(text: str) -> tuple[SiteObservable, ...]:
    """Parse a whitespace-separated list such as ``"x1 x3 z4"``."""
    return tuple(site(tok) for tok in text.split())


@dataclass(frozen=True)
class ParityConstraint:
    """Requires the product of the listed +-1 outcomes to equal ``sign``."""

    vars: frozenset[SiteObservable]
    sign: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "vars", frozenset(self.vars))
        if not self.vars:
            raise ValueError("parity constraint needs at least one variable")
        if self.sign not in (+1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign}")

    @property
    def sorted_vars(self) -> tuple[SiteObservable, ...]:
        return tuple(sorted(self.vars))

    def holds(self, outcomes: Mapping[SiteObservable, int]) -> bool:
        """Whether the variables' +-1 outcomes multiply to ``sign``. ``outcomes``
        maps each measured observable to its value; a variable missing from
        it raises ValueError."""
        prod = 1
        for var in self.vars:
            try:
                prod *= outcomes[var]
            except KeyError:
                raise ValueError(f"outcome for {var} missing from {outcomes}") from None
        return prod == self.sign

    def text(self) -> str:
        head = "*".join(str(v) for v in self.sorted_vars)
        return f"{head} = {self.sign:+d}"

    def __str__(self) -> str:
        return self.text()


def parse_constraint_line(line: str) -> ParityConstraint:
    """Parse one line of an equation-set file: ``<sign> <var> <var> ...``.

    The sign token is ``+1`` or ``-1`` and variables look like ``x1 y3 z4``.
    """
    tokens = line.split()
    if len(tokens) < 2:
        raise ValueError(f"constraint line needs a sign and variables: {line!r}")
    if tokens[0] not in ("+1", "-1"):
        raise ValueError(f"sign must be +1 or -1, got {tokens[0]!r}")
    variables = [site(t) for t in tokens[1:]]
    # a variable's square is 1, so a repeat is not the constraint it reads as
    repeated = sorted({str(v) for v in variables if variables.count(v) > 1})
    if repeated:
        raise ValueError(f"repeated variable {', '.join(repeated)} in {line.strip()!r}")
    return ParityConstraint(frozenset(variables), int(tokens[0]))


def predicate_eval(
    predicate: ParityConstraint | None, outcomes: Mapping[SiteObservable, int]
) -> bool:
    """Evaluate a context predicate on measured outcomes: ``ALWAYS_WIN``
    evaluates to True, a parity constraint to ``predicate.holds(outcomes)``."""
    return predicate is ALWAYS_WIN or predicate.holds(outcomes)


@dataclass(frozen=True)
class Question:
    """What one party is asked: a kind letter (or SKIP) per owned qubit slot.

    ``measurements`` lists (qubit, kind) pairs in slot order; ``None``
    means the slot is left unmeasured. The derived ``id`` concatenates the
    measured tokens, e.g. ``x1x2`` or ``z3``, and doubles as the stable
    key used by strategies and trial logs.
    """

    measurements: tuple[tuple[int, str | None], ...]

    @cached_property
    def id(self) -> str:
        toks = [f"{k}{q}" for q, k in self.measurements if k is not None]
        return "".join(toks) if toks else "skip"

    @cached_property
    def measured(self) -> tuple[SiteObservable, ...]:
        return tuple(
            SiteObservable(q, k) for q, k in self.measurements if k is not None
        )

    @property
    def answer_arity(self) -> int:
        return len(self.measured)

    def __str__(self) -> str:
        return self.id


def make_question(owned_qubits: Sequence[int], var_text: str) -> Question:
    """Build a question over the given slots from tokens like ``"x1 x2"``.

    Slots whose qubit is absent from ``var_text`` are SKIP.
    """
    wanted = {obs.qubit: obs.kind for obs in sites(var_text)}
    extra = set(wanted) - set(owned_qubits)
    if extra:
        raise ValueError(f"qubits {sorted(extra)} not among owned {owned_qubits}")
    return Question(tuple((q, wanted.get(q)) for q in owned_qubits))


@dataclass(frozen=True)
class Context:
    """One joint question with its predicate and referee weight."""

    id: str
    questions: tuple[Question, ...]
    predicate: ParityConstraint | None
    weight: Fraction

    def outcomes(self, answers: Sequence[Sequence[int]]) -> dict[SiteObservable, int]:
        """Each measured observable's answer; ValueError if answers misfit the questions."""
        if len(answers) != len(self.questions):
            raise ValueError(f"{len(answers)} answers to {len(self.questions)} questions")
        outcomes: dict[SiteObservable, int] = {}
        for q, values in zip(self.questions, answers):
            if len(values) != q.answer_arity:
                raise ValueError(f"question {q.id} arity mismatch with answers")
            outcomes.update(zip(q.measured, values))
        return outcomes

    def row(self, answers: Sequence[Sequence[int]]) -> Row:
        """The scored row of one round's answers (one tuple per party):
        (context id, question ids, answers as tuples, win)."""
        answers = tuple(map(tuple, answers))
        return (
            self.id,
            tuple(q.id for q in self.questions),
            answers,
            predicate_eval(self.predicate, self.outcomes(answers)),
        )


@dataclass(frozen=True)
class NonlocalGame:
    """A finite nonlocal game with parity (or trivial) predicates.

    ``qubit_ownership`` maps each qubit to the party holding it; parties
    are numbered from 0. Construction validates the whole object, so
    downstream code can assume weights sum to one and every predicate is
    measurable under its context's questions.
    """

    name: str
    parties: int
    qubit_ownership: tuple[tuple[int, int], ...]
    question_sets: tuple[tuple[Question, ...], ...]
    contexts: tuple[Context, ...]

    def __post_init__(self) -> None:
        owners = dict(self.qubit_ownership)
        qubits = sorted(owners)
        if qubits != list(range(1, len(qubits) + 1)):
            raise ValueError(f"qubit ownership must cover 1..n, got {qubits}")
        if set(owners.values()) - set(range(self.parties)):
            raise ValueError("qubit owned by an unknown party")
        if len(self.question_sets) != self.parties:
            raise ValueError("need one question set per party")
        for party, questions in enumerate(self.question_sets):
            ids = [q.id for q in questions]
            if len(set(ids)) != len(ids):
                raise ValueError(f"duplicate question ids for party {party}: {ids}")
            for q in questions:
                for qubit, _ in q.measurements:
                    if owners.get(qubit) != party:
                        raise ValueError(
                            f"party {party} asked about qubit {qubit} it does not own"
                        )
        if not self.contexts:
            raise ValueError("game needs at least one context")
        ids = [c.id for c in self.contexts]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate context ids: {ids}")
        total = Fraction(0)
        for ctx in self.contexts:
            if len(ctx.questions) != self.parties:
                raise ValueError(f"context {ctx.id} must question every party")
            for party, q in enumerate(ctx.questions):
                if q not in self.question_sets[party]:
                    raise ValueError(
                        f"context {ctx.id}: question {q.id} not in party {party}'s set"
                    )
            if ctx.weight <= 0:
                raise ValueError(f"context {ctx.id} has non-positive weight")
            total += ctx.weight
            if ctx.predicate is not ALWAYS_WIN:
                measured = set(self.measured_observables(ctx))
                missing = ctx.predicate.vars - measured
                if missing:
                    raise ValueError(
                        f"context {ctx.id}: predicate vars {sorted(missing)} unmeasured"
                    )
        if total != 1:
            raise ValueError(f"context weights sum to {total}, not 1")

    @property
    def num_qubits(self) -> int:
        return len(self.qubit_ownership)

    def question(self, party: int, question_id: str) -> Question:
        for q in self.question_sets[party]:
            if q.id == question_id:
                return q
        raise KeyError(f"party {party} has no question {question_id!r}")

    def context_by_id(self, context_id: str) -> Context:
        for ctx in self.contexts:
            if ctx.id == context_id:
                return ctx
        raise KeyError(f"no context {context_id!r}")

    def measured_observables(self, context: Context) -> tuple[SiteObservable, ...]:
        """Measured observables of a context, party-major then slot order."""
        out: list[SiteObservable] = []
        for q in context.questions:
            out.extend(q.measured)
        return tuple(out)


# ---------------------------------------------------------------------------
# the fourteen parity equalities of the four-qubit state
# ---------------------------------------------------------------------------

# Every other table of equalities in the package (the restricted game's tested
# contexts, the contradicting four, the embedded three-party games) is read off
# these by variable sets. The order fixes the context ids eq01..eq14. The lines
# are in the equation-file format that ``maxsat --file`` reads.
_FOURTEEN = (
    "+1 z1 z3",
    "+1 z2 z4",
    "+1 x1 x3 z4",
    "+1 x2 z3 x4",
    "+1 x1 z2 x3",
    "+1 z1 x2 x4",
    "-1 y1 y3 z4",
    "-1 y2 z3 y4",
    "-1 y1 z2 y3",
    "-1 z1 y2 y4",
    "+1 x1 x2 y3 y4",
    "+1 x1 y2 y3 x4",
    "+1 y1 x2 x3 y4",
    "+1 y1 y2 x3 x4",
)


def fourteen_equalities() -> tuple[ParityConstraint, ...]:
    """The fourteen parity equalities the four-qubit state satisfies surely."""
    return tuple(parse_constraint_line(line) for line in _FOURTEEN)


def contradiction_subset() -> tuple[ParityConstraint, ...]:
    """The four equalities the restricted experiment tests, in the order of
    the fourteen; they already admit no joint +-1 assignment."""
    tested = {ctx.predicate for ctx in cabello_restricted().contexts}
    return tuple(eq for eq in fourteen_equalities() if eq in tested)


def equation_label(index: int) -> str:
    """Stable context id for the index-th (0-based) of the fourteen."""
    return f"eq{index + 1:02d}"


# ---------------------------------------------------------------------------
# game catalog
# ---------------------------------------------------------------------------


def cabello_restricted() -> NonlocalGame:
    """The restricted two-party experiment as a game.

    Party 0 holds qubits 1-2 and is asked one of two questions; party 1
    holds qubits 3-4 and is asked one of four. All eight question pairs
    occur with weight 1/8. A pair tests the equality among the fourteen
    whose variables it measures; no pair measures more than one. Four
    pairs measure one, and the other four are accepted unconditionally,
    because no equality relates those measurement combinations.
    """
    eqs = fourteen_equalities()
    alice = tuple(make_question((1, 2), t) for t in ("x1 x2", "y1 x2"))
    bob = tuple(make_question((3, 4), t) for t in ("x3 y4", "x3 z4", "y3 y4", "y3 z4"))
    contexts = []
    for qa, qb in itertools.product(alice, bob):
        measured = {*qa.measured, *qb.measured}
        contexts.append(
            Context(
                id=f"{qa.id}|{qb.id}",
                questions=(qa, qb),
                predicate=next((eq for eq in eqs if eq.vars <= measured), ALWAYS_WIN),
                weight=Fraction(1, 8),
            )
        )
    return NonlocalGame(
        name="cabello-restricted",
        parties=2,
        qubit_ownership=((1, 0), (2, 0), (3, 1), (4, 1)),
        question_sets=(alice, bob),
        contexts=tuple(contexts),
    )


def cabello_extended() -> NonlocalGame:
    """The extended two-party game testing all fourteen equalities.

    One context per equality: party 0 measures exactly the equality's
    variables on qubits 1-2 (SKIP for absent qubits), party 1 likewise on
    qubits 3-4. Weights are uniform. The per-equation question derivation
    is a convention of this catalog and is isolated here so an alternate
    question protocol can be substituted.
    """
    eqs = fourteen_equalities()
    contexts = []
    for idx, eq in enumerate(eqs):
        a_text = " ".join(str(v) for v in eq.sorted_vars if v.qubit <= 2)
        b_text = " ".join(str(v) for v in eq.sorted_vars if v.qubit >= 3)
        qa = make_question((1, 2), a_text)
        qb = make_question((3, 4), b_text)
        contexts.append(
            Context(
                id=equation_label(idx),
                questions=(qa, qb),
                predicate=eq,
                weight=Fraction(1, 14),
            )
        )
    return NonlocalGame(
        name="cabello-extended",
        parties=2,
        qubit_ownership=((1, 0), (2, 0), (3, 1), (4, 1)),
        # each question occurs in one context; a repeat would be a duplicate id
        question_sets=tuple(tuple(ctx.questions[p] for ctx in contexts) for p in (0, 1)),
        contexts=tuple(contexts),
    )


def four_party_game() -> NonlocalGame:
    """The four-party pseudo-telepathy game: one qubit per party.

    Every party can be asked X, Y or Z. Each of the fourteen equalities
    becomes one uniformly weighted context; parties whose qubit does not
    occur in the equality are asked Z so that every party is questioned
    in every round (their answer is ignored by the predicate).
    """
    eqs = fourteen_equalities()
    question_sets = tuple(
        tuple(make_question((qubit,), f"{kind}{qubit}") for kind in "xyz")
        for qubit in range(1, 5)
    )
    contexts = []
    for idx, eq in enumerate(eqs):
        kinds = {v.qubit: v.kind for v in eq.vars}
        questions = tuple(
            question_sets[qubit - 1]["xyz".index(kinds.get(qubit, "z"))]
            for qubit in range(1, 5)
        )
        contexts.append(
            Context(
                id=equation_label(idx),
                questions=questions,
                predicate=eq,
                weight=Fraction(1, 14),
            )
        )
    return NonlocalGame(
        name="four-party",
        parties=4,
        qubit_ownership=tuple((q, q - 1) for q in range(1, 5)),
        question_sets=question_sets,
        contexts=tuple(contexts),
    )


# in the equation-file format; a context's id is its kinds in qubit order
_MERMIN_GHZ = ("+1 x1 x2 x3", "-1 x1 y2 y3", "-1 y1 x2 y3", "-1 y1 y2 x3")


def mermin_ghz() -> NonlocalGame:
    """The three-party parity game with questions {X, Y}.

    Contexts: XXX must multiply to +1 and XYY, YXY, YYX to -1, each with
    weight 1/4. Its classical value is 3/4 while the three-qubit GHZ state
    wins it surely.
    """
    question_sets = tuple(
        tuple(make_question((qubit,), f"{kind}{qubit}") for kind in "xy")
        for qubit in range(1, 4)
    )
    contexts = []
    for eq in map(parse_constraint_line, _MERMIN_GHZ):
        contexts.append(
            Context(
                id="".join(v.kind for v in eq.sorted_vars),
                questions=tuple(
                    question_sets[v.qubit - 1]["xy".index(v.kind)] for v in eq.sorted_vars
                ),
                predicate=eq,
                weight=Fraction(1, 4),
            )
        )
    return NonlocalGame(
        name="mermin-ghz",
        parties=3,
        qubit_ownership=tuple((q, q - 1) for q in range(1, 4)),
        question_sets=question_sets,
        contexts=tuple(contexts),
    )


def nested_ghz_contexts(selector_outcome: int) -> list[ParityConstraint]:
    """The three-party parity constraints selected by the x2 outcome.

    The four-party correlations embed a pair of three-party games on
    qubits 1, 3, 4; which one is in force is decided by the x2 outcome.
    They are read off the fourteen equalities: those whose variables, less
    x2, sit one each on qubits 1, 3 and 4, in the order of the fourteen.
    Where x2 occurs, its outcome moves to the sign. ``selector_outcome``
    must be +1 or -1.
    """
    if selector_outcome not in (+1, -1):
        raise ValueError(f"selector outcome must be +1 or -1, got {selector_outcome}")
    x2 = SiteObservable(2, "x")
    nested = []
    for eq in fourteen_equalities():
        rest = eq.vars - {x2}
        if sorted(v.qubit for v in rest) == [1, 3, 4]:
            sign = eq.sign * selector_outcome if x2 in eq.vars else eq.sign
            nested.append(ParityConstraint(rest, sign))
    return nested


GAME_BUILDERS = {
    "cabello-restricted": cabello_restricted,
    "cabello-extended": cabello_extended,
    "four-party": four_party_game,
    "mermin-ghz": mermin_ghz,
}


@cache
def game_by_name(name: str) -> NonlocalGame:
    """The catalog game ``name``, built and validated once per process; a
    game and its parts are frozen, so every caller may share it."""
    try:
        return GAME_BUILDERS[name]()
    except KeyError:
        known = ", ".join(sorted(GAME_BUILDERS))
        raise KeyError(f"unknown game {name!r}; known games: {known}") from None


def describe(game: NonlocalGame) -> str:
    """Stable structured-text description of a game (used by golden tests)."""
    lines = [f"game {game.name}", f"parties: {game.parties}"]
    owners = " ".join(f"{q}->p{p}" for q, p in game.qubit_ownership)
    lines.append(f"qubits: {owners}")
    for party, questions in enumerate(game.question_sets):
        lines.append(f"party {party} questions: " + " ".join(q.id for q in questions))
    lines.append("contexts:")
    width = max(len(c.id) for c in game.contexts)
    for ctx in game.contexts:
        qs = " ".join(q.id for q in ctx.questions)
        pred = ctx.predicate.text() if ctx.predicate is not ALWAYS_WIN else "(always win)"
        lines.append(f"  {ctx.id:<{width}}  w={ctx.weight}  [{qs}]  {pred}")
    return "\n".join(lines)
