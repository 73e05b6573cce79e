"""Trial execution and statistics for the in-process referee.

A trial run is fully determined by (game, strategy, rounds, seed): one
``numpy`` generator drives the per-round context choice and whatever
randomness the strategy needs, in a fixed order. The distributed referee
in ``netplay`` replays exactly the same plan, which is what makes the two
modes produce bit-identical logs.

The whole session is drawn at once: one ``random_raw`` call gives every
64-bit word, and a closed form over word positions decodes the uniforms
and bits that per-round ``rng.random()`` and ``rng.integers(0, 2,
size=k)`` calls would give (checked on numpy 2.4.6, and by
``tests/test_trials.py`` on the installed one). A round takes one word
per uniform (its context's first, then a quantum outcome's), then its k
bits from the top bits of 32-bit halves, low half first, a high half
left over carrying into the next round. The strategy's ``Dealer`` maps
these columns to one code per round, and rounds with the same context
and code share one ``RoundPlan``.

A game has few distinct rounds (at most 14 x 16 in the four-party game),
so each is scored once, by ``Context.row``, in its ``RoundPlan``. A
record is its round number followed by its row, and rows are compared by
value: ``TrialLog.to_jsonl`` encodes each distinct row once,
``TrialLog.from_jsonl`` decodes each distinct row text once, and
``statistics`` and ``nested_subgame_report`` count each distinct row
once, weighted by its rounds. Logs and reports are byte for byte what
scoring and encoding every round on its own gives. Rows hold the package's
value types (strings, tuples of strings, tuples of +-1 ints, a bool);
``from_jsonl`` rejects any other.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from . import quantum
from .classical import (
    Dealer,
    DeterministicStrategy,
    HiddenVariableModel,
    Tapes,
    automaton_model,
    classical_value,
    lambda_mu_model,
)
from .games import (
    ALWAYS_WIN,
    Context,
    NonlocalGame,
    Question,
    Row,
    game_by_name,
    nested_ghz_contexts,
)
from .quantum import Statevector, make_ghz, make_psi, site

LOG_FORMAT_VERSION = 1


@dataclass(frozen=True)
class QuantumStrategy:
    """Share an entangled state and measure whatever the referee asks.

    Played as a trusted dealer: each round the joint outcome of the
    context's measurements is drawn from the exact distribution, and each
    party is dealt one value per slot of its question (+1 where the slot
    is unmeasured), from which it reads its own answer.
    """

    state: Statevector
    name: str = "quantum"

    def tape_width(self, game: NonlocalGame, party: int) -> int:
        return sum(1 for _, owner in game.qubit_ownership if owner == party)

    def respond(
        self, party: int, question: Question, tape: tuple[int, ...]
    ) -> tuple[int, ...]:
        return tuple(
            v for (_, kind), v in zip(question.measurements, tape) if kind is not None
        )

    def dealer(self, game: NonlocalGame) -> Dealer:
        if self.state.num_qubits != game.num_qubits:
            raise ValueError(
                f"state has {self.state.num_qubits} qubits, game expects {game.num_qubits}"
            )
        widths = [self.tape_width(game, party) for party in range(game.parties)]
        # per context: running totals of the outcome distribution, and the
        # tapes dealt per outcome
        totals: list[np.ndarray] = []
        tables: list[list[Tapes]] = []
        for ctx in game.contexts:
            dist = quantum.joint_distribution(self.state, game.measured_observables(ctx))
            totals.append(np.cumsum(list(dist.values())))
            tables.append([_outcome_tapes(ctx, v, widths) for v in dist])

        def codes(contexts: np.ndarray, uniforms: np.ndarray, bits: np.ndarray) -> np.ndarray:
            # the first outcome whose running total exceeds u, or the last
            # one when u lands in the round-off sliver
            outcomes = np.empty(len(contexts), dtype=np.intp)
            for i, total in enumerate(totals):
                rows = contexts == i
                picked = np.searchsorted(total, uniforms[rows, 0], side="right")
                outcomes[rows] = np.minimum(picked, len(total) - 1)
            return outcomes

        def tapes(context: int, code: int) -> Tapes:
            return tables[context][code]

        return Dealer(uniforms=1, bits=0, codes=codes, tapes=tapes)


def _outcome_tapes(context: Context, values: tuple[int, ...], widths: list[int]) -> Tapes:
    """Split one joint outcome into per-party tapes, +1 on unmeasured slots."""
    flat = iter(values)
    return tuple(
        tuple(next(flat) if kind is not None else +1 for _, kind in q.measurements)
        + (+1,) * (width - len(q.measurements))
        for q, width in zip(context.questions, widths)
    )


Strategy = QuantumStrategy | DeterministicStrategy | HiddenVariableModel


class CatalogEntry(NamedTuple):
    """A catalog game's canonical entangled state and its named local models."""

    state: Callable[[], Statevector]
    models: Mapping[str, Callable[[], Strategy]]


#: the catalog games by name
CATALOG = {
    "cabello-restricted": CatalogEntry(
        make_psi, {"lambda-mu": lambda_mu_model, "automaton": automaton_model}
    ),
    "cabello-extended": CatalogEntry(make_psi, {}),
    "four-party": CatalogEntry(make_psi, {}),
    "mermin-ghz": CatalogEntry(lambda: make_ghz(3), {}),
}


def quantum_strategy(game: NonlocalGame) -> QuantumStrategy:
    """The catalog game's winning quantum strategy."""
    if game.name not in CATALOG:
        raise KeyError(f"no canonical state known for game {game.name!r}")
    return QuantumStrategy(state=CATALOG[game.name].state())


def resolve_strategy(game: NonlocalGame, name: str) -> Strategy:
    """Map a strategy name to a strategy object for the given game.

    Every catalog game has ``quantum`` and every game ``best-classical``;
    other names are the local models its catalog entry lists.
    """
    if name == "quantum":
        return quantum_strategy(game)
    if name == "best-classical":
        best = classical_value(game).optimal_strategies[0]
        return DeterministicStrategy(name="best-classical", answers=best.answers)
    models = CATALOG[game.name].models if game.name in CATALOG else {}
    if name not in models:
        known = ", ".join(["quantum", *models, "best-classical"])
        raise KeyError(
            f"unknown strategy {name!r} for game {game.name}; known: {known}"
        )
    return models[name]()


class TrialRecord(NamedTuple):
    round: int
    context_id: str
    questions: tuple[str, ...]
    answers: tuple[tuple[int, ...], ...]
    win: bool


_ROUND_PREFIX = '{"type": "round", "round": '
#: a round line as to_jsonl writes it, up to the row after the round number
_CANONICAL_ROUND = re.compile(re.escape(_ROUND_PREFIX) + r"(-?(?:0|[1-9][0-9]{0,17})), ")
_ROW_FIELDS = {"context", "questions", "answers", "win"}


def _row_of(rec: dict) -> Row:
    """A decoded round's fields after the round number, as TrialRecord holds
    them; raises ValueError naming a field whose values the package never
    writes."""
    context = rec["context"]
    questions = tuple(rec["questions"])
    answers = tuple(tuple(a) for a in rec["answers"])
    win = rec["win"]
    if type(context) is not str:
        raise ValueError(f"round field 'context' must be a string, got {context!r}")
    if any(type(q) is not str for q in questions):
        raise ValueError(f"round field 'questions' must hold strings, got {rec['questions']!r}")
    # true equals 1, so it is rejected by type
    if any(type(v) is not int or v not in (1, -1) for a in answers for v in a):
        raise ValueError(f"round field 'answers' must hold +1 and -1, got {rec['answers']!r}")
    if type(win) is not bool:
        raise ValueError(f"round field 'win' must be true or false, got {win!r}")
    return context, questions, answers, win


def _decode_row(rows: dict[str, tuple], text: str) -> tuple | None:
    """The row a canonical line's text after its round number holds, or
    None when that text is not exactly the four row fields."""
    row = rows.get(text)
    if row is None:
        try:
            fields = json.loads("{" + text)
        except json.JSONDecodeError:
            return None
        if fields.keys() != _ROW_FIELDS:
            return None
        row = rows[text] = _row_of(fields)
    return row


@dataclass
class TrialLog:
    game: str
    strategy: str
    seed: int
    records: list[TrialRecord] = field(default_factory=list)
    complete: bool = True
    abort_reason: str | None = None

    def to_jsonl(self) -> str:
        header = {
            "type": "header",
            "version": LOG_FORMAT_VERSION,
            "game": self.game,
            "strategy": self.strategy,
            "seed": self.seed,
            "complete": self.complete,
        }
        if self.abort_reason is not None:
            header["abort_reason"] = self.abort_reason
        lines = [json.dumps(header)]
        # each distinct row is encoded once; a line adds only its round number
        tails: dict[tuple, str] = {}
        for r in self.records:
            tail = tails.get(r[1:])
            if tail is None:
                tail = tails[r[1:]] = json.dumps(
                    {
                        "context": r.context_id,
                        "questions": list(r.questions),
                        "answers": [list(a) for a in r.answers],
                        "win": r.win,
                    }
                )[1:]
            number = str(r.round) if type(r.round) is int else json.dumps(r.round)
            lines.append(f'{_ROUND_PREFIX}{number}, {tail}')
        return "\n".join(lines) + "\n"

    @classmethod
    def from_jsonl(cls, text: str) -> "TrialLog":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise ValueError("empty trial log")
        header = json.loads(lines[0])
        if header.get("type") != "header":
            raise ValueError("trial log must start with a header record")
        if header.get("version") != LOG_FORMAT_VERSION:
            raise ValueError(
                f"unsupported trial log version {header.get('version')!r}, "
                f"expected {LOG_FORMAT_VERSION}"
            )
        log = cls(
            game=header["game"],
            strategy=header["strategy"],
            seed=header["seed"],
            complete=header.get("complete", True),
            abort_reason=header.get("abort_reason"),
        )
        # a line of the form to_jsonl writes is split into its round number
        # and its row, and each distinct row is decoded once; any other line
        # is decoded whole by json.loads and must be of type "round"
        rows: dict[str, tuple] = {}
        for ln in lines[1:]:
            match = _CANONICAL_ROUND.match(ln)
            row = _decode_row(rows, ln[match.end() :]) if match else None
            if row is None:
                rec = json.loads(ln)
                if rec["type"] != "round":
                    raise ValueError(f"expected a round record, got type {rec['type']!r}")
                log.records.append(TrialRecord(rec["round"], *_row_of(rec)))
            else:
                log.records.append(TrialRecord(int(match[1]), *row))
        return log


@dataclass(frozen=True)
class RoundPlan:
    """Everything round r needs: the context, the dealt tapes, the answers
    they give, and the row those answers score (``Context.row``)."""

    context: Context
    answers: tuple[tuple[int, ...], ...]
    tapes: Tapes
    row: Row


def _session_draws(
    seed: int, rounds: int, uniforms: int, bits: int
) -> tuple[np.ndarray, np.ndarray]:
    """Every draw of a seeded session, from one ``random_raw`` call.

    Per round: one uniform for the context, ``uniforms`` more, then
    ``bits`` bits, in the word layout ``presample`` states, exactly as
    ``1 + uniforms`` calls of ``rng.random()`` and one of
    ``rng.integers(0, 2, size=bits)`` on ``np.random.default_rng(seed)``
    give them. Returns a (rounds, 1 + uniforms) float array and a
    (rounds, bits) array of 0/1 ints.
    """
    per_round = 1 + uniforms
    halfwords = (rounds * bits + 1) // 2
    raw = np.random.default_rng(seed).bit_generator.random_raw(rounds * per_round + halfwords)
    r = np.arange(rounds)
    # a round's first word comes after the earlier rounds' uniforms and the
    # words their bits took
    first = r * per_round + (r * bits + 1) // 2
    doubles = (raw[first[:, None] + np.arange(per_round)] >> 11) * 2.0**-53
    # half-word m is drawn with its low half, in round 2m // bits, after
    # that round's uniforms and the m half-words before it
    m = np.arange(halfwords)
    words = raw[m + (2 * m // max(bits, 1) + 1) * per_round]
    halves = np.stack([words & 0xFFFFFFFF, words >> 32], axis=1).ravel()
    drawn = (halves[: rounds * bits] >> 31).astype(np.intp).reshape(rounds, bits)
    return doubles, drawn


def _plan_session(
    game: NonlocalGame, strategy: Strategy, rounds: int, seed: int
) -> tuple[list[RoundPlan], list[int]]:
    """A session's distinct rounds, and per round the index of its plan."""
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    dealer = strategy.dealer(game)
    doubles, bits = _session_draws(seed, rounds, dealer.uniforms, dealer.bits)
    bounds = np.array([float(acc) for acc in accumulate(ctx.weight for ctx in game.contexts)])
    contexts = np.searchsorted(bounds, doubles[:, 0], side="right")
    codes = dealer.codes(contexts, doubles[:, 1:], bits)
    # answers are a function of question and tape alone, so equal
    # (context, code) rounds share one plan
    keys, index = np.unique(codes * len(bounds) + contexts, return_inverse=True)
    plans: list[RoundPlan] = []
    for key in keys.tolist():
        code, i = divmod(key, len(bounds))
        context, tapes = game.contexts[i], dealer.tapes(i, code)
        answers = tuple(
            strategy.respond(party, q, tapes[party]) for party, q in enumerate(context.questions)
        )
        plans.append(RoundPlan(context, answers, tapes, context.row(answers)))
    return plans, index.tolist()


def presample(
    game: NonlocalGame, strategy: Strategy, rounds: int, seed: int
) -> list[RoundPlan]:
    """Deterministically pre-draw every round of a session.

    Per round the generator first picks the context by weight, then the
    strategy's dealer draws that round's tapes: one uniform variate for a
    quantum outcome, fresh hidden bits for a hidden-variable model, nothing
    for a deterministic table. Each party then answers from its own
    question and tape. Both referee modes consume this same plan.

    All of it is drawn by one ``random_raw`` call and decoded in closed
    form: per round, the context uniform is word w as ``(w >> 11) *
    2**-53``, a quantum outcome's uniform is the next word, and hidden
    bits are the top bits of the following 32-bit halves, low half first,
    with a half left over carried into the next round (``_session_draws``;
    equal to per-call draws on numpy 2.4.6). Rounds with the same context
    and tapes share one ``RoundPlan``, scored once.
    """
    plans, index = _plan_session(game, strategy, rounds, seed)
    return [plans[i] for i in index]


def _record_for(
    game: NonlocalGame, round_index: int, context: Context, answers: Sequence[tuple[int, ...]]
) -> TrialRecord:
    """One round's record, scored on its own (perfbench times this per round)."""
    return TrialRecord(round_index, *context.row(answers))


def run_trials(
    game: NonlocalGame, strategy: Strategy, rounds: int, seed: int
) -> TrialLog:
    """Play ``rounds`` seeded rounds with an in-process referee."""
    plans, index = _plan_session(game, strategy, rounds, seed)
    rows = [plan.row for plan in plans]
    log = TrialLog(game=game.name, strategy=strategy.name, seed=seed)
    log.records = [TrialRecord(r, *rows[i]) for r, i in enumerate(index)]
    return log


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"([xyz])(\d+)")


def _distinct_rows(records: Sequence[TrialRecord]) -> list[tuple[TrialRecord, int]]:
    """Each distinct row, as the first record holding it and its number of
    records, in order of first occurrence; so a pass over these fills
    every dict in the order a round-by-round pass would."""
    repeats: dict[tuple, list] = {}
    for rec in records:
        repeats.setdefault(rec[1:], [rec, 0])[1] += 1
    return [(rec, n) for rec, n in repeats.values()]


def _round_values(rec: TrialRecord) -> list[tuple[str, int]]:
    """A round's answers as (token, value) pairs such as ("x1", -1), party
    by party; raises ValueError when questions and answers do not match."""
    if len(rec.questions) != len(rec.answers):
        n_answers, n_questions = len(rec.answers), len(rec.questions)
        raise ValueError(f"round {rec.round}: {n_answers} answers to {n_questions} questions")
    pairs: list[tuple[str, int]] = []
    for qid, answers in zip(rec.questions, rec.answers):
        toks = [f"{k}{q}" for k, q in _TOKEN.findall(qid)]
        if len(toks) != len(answers):
            raise ValueError(f"round {rec.round}: question {qid} arity mismatch with answers")
        pairs.extend(zip(toks, answers))
    return pairs


@dataclass(frozen=True)
class ContextStats:
    asked: int
    won: int
    tv_distance: float | None = None


@dataclass(frozen=True)
class StatReport:
    """Aggregate view of a trial log.

    ``marginals`` maps each observable token (like ``x1``) to the
    frequency of its +1 outcome. ``max_tv_distance`` is present when an
    exact reference distribution was supplied for comparison.
    """

    rounds: int
    wins: int
    per_context: dict[str, ContextStats]
    marginals: dict[str, float]
    max_tv_distance: float | None = None

    @property
    def win_rate(self) -> float:
        return self.wins / self.rounds

    def to_text(self) -> str:
        lines = [
            f"rounds: {self.rounds}",
            f"wins: {self.wins}",
            f"win rate: {self.win_rate:.6f}",
            "per-context:",
        ]
        width = max(len(cid) for cid in self.per_context)
        for cid in sorted(self.per_context):
            st = self.per_context[cid]
            line = f"  {cid:<{width}}  asked={st.asked:<6d} won={st.won:<6d}"
            if st.tv_distance is not None:
                line += f" tv={st.tv_distance:.6f}"
            lines.append(line)
        lines.append("marginal +1 frequency:")
        for tok in sorted(self.marginals):
            lines.append(f"  {tok}: {self.marginals[tok]:.6f}")
        if self.max_tv_distance is not None:
            lines.append(f"max context TV distance: {self.max_tv_distance:.6f}")
        return "\n".join(lines)

    def to_records(self) -> list[dict]:
        records: list[dict] = [
            {
                "type": "summary",
                "rounds": self.rounds,
                "wins": self.wins,
                "win_rate": self.win_rate,
            }
        ]
        for cid in sorted(self.per_context):
            st = self.per_context[cid]
            rec = {"type": "context", "id": cid, "asked": st.asked, "won": st.won}
            if st.tv_distance is not None:
                rec["tv"] = st.tv_distance
            records.append(rec)
        for tok in sorted(self.marginals):
            records.append(
                {"type": "marginal", "observable": tok, "plus_frequency": self.marginals[tok]}
            )
        if self.max_tv_distance is not None:
            records.append({"type": "max_tv", "value": self.max_tv_distance})
        return records


def statistics(
    log: TrialLog,
    reference: Mapping[str, Mapping[tuple[int, ...], float]] | None = None,
) -> StatReport:
    """Summarize a log; optionally compare per-context empirical joint
    distributions against exact reference distributions (TV distance)."""
    if not log.records:
        raise ValueError("empty trial log")
    asked: dict[str, int] = {}
    won: dict[str, int] = {}
    joint: dict[str, dict[tuple[int, ...], int]] = {}
    plus: dict[str, int] = {}
    seen: dict[str, int] = {}
    for rec, n in _distinct_rows(log.records):
        asked[rec.context_id] = asked.get(rec.context_id, 0) + n
        won[rec.context_id] = won.get(rec.context_id, 0) + n * int(rec.win)
        pairs = _round_values(rec)
        for tok, value in pairs:
            seen[tok] = seen.get(tok, 0) + n
            plus[tok] = plus.get(tok, 0) + n * (value == +1)
        counts = joint.setdefault(rec.context_id, {})
        key = tuple(value for _, value in pairs)
        counts[key] = counts.get(key, 0) + n

    per_context: dict[str, ContextStats] = {}
    max_tv: float | None = None
    for cid in asked:
        tv: float | None = None
        if reference is not None and cid in reference:
            n = asked[cid]
            tv = tv_distance(reference[cid], {k: c / n for k, c in joint[cid].items()})
            max_tv = tv if max_tv is None else max(max_tv, tv)
        per_context[cid] = ContextStats(asked=asked[cid], won=won[cid], tv_distance=tv)

    marginals = {tok: plus[tok] / seen[tok] for tok in seen}
    return StatReport(
        rounds=len(log.records),
        wins=sum(won.values()),
        per_context=per_context,
        marginals=marginals,
        max_tv_distance=max_tv,
    )


def tv_distance(
    reference: Mapping[tuple[int, ...], float | Fraction],
    observed: Mapping[tuple[int, ...], float | Fraction],
) -> float:
    """Total variation distance between two outcome distributions."""
    keys = set(reference) | set(observed)
    return 0.5 * sum(
        abs(float(reference.get(k, 0)) - float(observed.get(k, 0))) for k in keys
    )


def quantum_reference(game: NonlocalGame) -> dict[str, dict[tuple[int, ...], float]]:
    """Exact per-context joint distributions of the game's quantum strategy."""
    strategy = quantum_strategy(game)
    return {
        ctx.id: quantum.joint_distribution(
            strategy.state, game.measured_observables(ctx)
        )
        for ctx in game.contexts
    }


# ---------------------------------------------------------------------------
# post-hoc co-referee view of four-party logs
# ---------------------------------------------------------------------------


def nested_subgame_report(log: TrialLog) -> dict[str, dict[str, tuple[int, int]]]:
    """Classify rounds by the embedded three-party games.

    Derived from ``games.nested_ghz_contexts`` by variable sets: a round
    checks the embedded constraint on its context predicate's variables
    less x2, if there is one. Without x2 it is common to both embedded
    games ("shared"); with x2, the round's x2 answer selects the game
    ("+1" or "-1"). Returns, per bucket, constraint text -> (rounds
    checked, rounds satisfied).
    """
    x2 = site("x2")
    embedded = {s: {c.vars: c for c in nested_ghz_contexts(s)} for s in (+1, -1)}
    game = game_by_name(log.game)
    report: dict[str, dict[str, tuple[int, int]]] = {"shared": {}, "+1": {}, "-1": {}}
    for rec, n in _distinct_rows(log.records):
        values = {site(tok): value for tok, value in _round_values(rec)}
        predicate = game.context_by_id(rec.context_id).predicate
        if predicate is ALWAYS_WIN:
            continue
        selected = x2 in predicate.vars
        selector = values[x2] if selected else +1  # a shared constraint is in both
        constraint = embedded[selector].get(predicate.vars - {x2})
        if constraint is None:
            continue
        bucket = f"{selector:+d}" if selected else "shared"
        text = constraint.text()
        checked, satisfied = report[bucket].get(text, (0, 0))
        report[bucket][text] = (checked + n, satisfied + n * constraint.holds(values))
    return report
