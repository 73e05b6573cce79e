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
``TrialLog`` is a table, not a list of rounds: its distinct rows
(``rows``) and one numpy integer column giving each round's row as a
position in ``rows`` (``index``). Round r is the log's r-th round: its
number is its position, so no log stores round numbers, and a record or
line numbered otherwise raises ``ValueError``. ``run_trials`` fills the
table from the plans as they are, and ``to_jsonl`` encodes each row once.
``from_jsonl`` reads a text of the form ``to_jsonl`` writes (a header
line, then round lines, each ended by a newline) in blocks of
``_BLOCK`` lines: ``_after_heads`` checks the heads of a block's lines
(each line's text up to its row's fields, round number included) at
once, per run of round numbers with equally many digits, and each
distinct text after a head is decoded once. Any other text is decoded
line by line, each line whole, and both ways raise the same errors.
``statistics`` and ``nested_subgame_report`` read a log's ``tally`` and
score each row in it once by the catalog game its header names: a row
that game's ``Context.row`` would not write raises ``ValueError``.
``records`` is a view that builds a
``TrialRecord`` (position, then row) for a round when asked. It has a
list's length, iteration, indexing, slices, repr and ``==``, against a
list or another log's records whatever the order of either table's
rows, and its ``append`` adds the next round. Only hand-built logs and
``perfbench``'s traced split append: ``run_trials``, the referee and
``from_jsonl`` fill the table at once. Logs and reports are byte for
byte what scoring and encoding every round on its own gives. Rows hold
the package's value types (strings, tuples of strings, tuples of +-1
ints, a bool) and are compared by value; ``from_jsonl`` rejects any
other, and a record whose row cannot be hashed, such as one holding
lists, raises ``TypeError`` when it is added.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from operator import itemgetter
from typing import AnyStr, Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

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
    SiteObservable,
    game_by_name,
    nested_ghz_contexts,
)
from .quantum import Statevector, make_ghz, make_psi

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
        """Deal outcomes drawn from ``_exact_distributions``, computed once per session."""
        if self.state.num_qubits != game.num_qubits:
            raise ValueError(
                f"state has {self.state.num_qubits} qubits, game expects {game.num_qubits}"
            )
        widths = [self.tape_width(game, party) for party in range(game.parties)]
        # per context: the outcome values, split into tapes (+1 on unmeasured
        # slots) only when a session draws them; the running totals of the
        # outcome probabilities, each below quantum.PROB_TOL (round-off on an
        # outcome the state forbids) counted as 0; and the position of the
        # last outcome the state allows
        distributions = _exact_distributions(self.state, game).values()
        values = [list(dist) for dist in distributions]
        totals = []
        last = []
        for dist in distributions:
            p = np.array(list(dist.values()))
            p[p < quantum.PROB_TOL] = 0.0
            totals.append(np.cumsum(p))
            last.append(np.flatnonzero(p)[-1])

        def codes(contexts: np.ndarray, uniforms: np.ndarray, bits: np.ndarray) -> np.ndarray:
            # the first outcome whose running total exceeds u, which a forbidden
            # outcome's zero width never is; or the last allowed one when u
            # lands in the round-off sliver at the top. A code is a position
            # in the context's whole distribution.
            outcomes = np.empty(len(contexts), dtype=np.intp)
            for i, total in enumerate(totals):
                rows = contexts == i
                picked = np.searchsorted(total, uniforms[rows, 0], side="right")
                outcomes[rows] = np.minimum(picked, last[i])
            return outcomes

        def tapes(context: int, code: int) -> Tapes:
            flat = iter(values[context][code])
            return tuple(
                tuple(next(flat) if kind is not None else +1 for _, kind in q.measurements)
                + (+1,) * (width - len(q.measurements))
                for q, width in zip(game.contexts[context].questions, widths)
            )

        return Dealer(uniforms=1, bits=0, codes=codes, tapes=tapes)


def _exact_distributions(state: Statevector, game: NonlocalGame) -> dict[str, dict]:
    """Each context's exact joint outcome distribution on the state, by id, in game order."""
    return {
        ctx.id: quantum.joint_distribution(state, game.measured_observables(ctx))
        for ctx in game.contexts
    }


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
    """One round: its position in the log (round r is the r-th), then its
    row."""

    round: int
    context_id: str
    questions: tuple[str, ...]
    answers: tuple[tuple[int, ...], ...]
    win: bool


_ROUND_PREFIX = '{"type": "round", "round": '
_ROW_FIELDS = ("context", "questions", "answers", "win")


def _row_of(k: int, rec: dict) -> Row:
    """Round k's fields after the round number, as TrialRecord holds them;
    raises ValueError naming the round and a field whose values the package
    never writes."""
    context, questions, answers, win = (rec[name] for name in _ROW_FIELDS)
    if type(context) is not str:
        raise ValueError(f"round {k}: round field 'context' must be a string, got {context!r}")
    if type(questions) is not list or any(type(q) is not str for q in questions):
        raise ValueError(f"round {k}: round field 'questions' must list strings, got {questions!r}")
    if type(answers) is not list or any(type(a) is not list for a in answers):
        raise ValueError(f"round {k}: round field 'answers' must list lists, got {answers!r}")
    # true equals 1, so it is rejected by type
    if any(type(v) is not int or v not in (1, -1) for a in answers for v in a):
        raise ValueError(f"round {k}: round field 'answers' must hold +1 and -1, got {answers!r}")
    if type(win) is not bool:
        raise ValueError(f"round {k}: round field 'win' must be true or false, got {win!r}")
    return context, tuple(questions), tuple(tuple(a) for a in answers), win


def _decode_line(k: int, line: str) -> Row:
    """Line k's row, from the line decoded whole: it must be an object of
    type "round", numbered k."""
    rec = json.loads(line)
    if type(rec) is not dict:
        raise ValueError(f"round {k}: a round line must be an object, got {rec!r}")
    if rec.get("type") != "round":
        raise ValueError(f"round {k}: expected a round record, got type {rec.get('type')!r}")
    missing = [name for name in ("round", *_ROW_FIELDS) if name not in rec]
    if missing:
        raise ValueError(f"round {k}: round field '{missing[0]}' is missing")
    # true equals 1, so it is rejected by type
    if type(rec["round"]) is not int or rec["round"] != k:
        raise ValueError(f"round {k} is numbered {rec['round']!r}; round r must be the r-th")
    return _row_of(k, rec)


def _after_heads(lines: Sequence[AnyStr], head: AnyStr, first: int) -> list[AnyStr] | None:
    """Each line's text after its head, or None if any head is off.

    ``lines`` should be rounds ``first``, ``first + 1``, ... (``first`` >=
    0): line j's head is ``head % (first + j)``, where ``head`` (text or
    bytes, as the lines are) holds one ``%d`` and no other ``%``. The heads
    of each run of rounds with equally many digits are joined and compared
    with one formatted string, and the texts after them are taken by one
    slice map."""
    after: list = []
    lo = 0
    while lo < len(lines):
        digits = len(str(first + lo))
        hi = min(len(lines), 10**digits - first)
        size = len(head) - 2 + digits
        run = lines[lo:hi]
        if head[:0].join(map(itemgetter(slice(size)), run)) != head * len(run) % tuple(
            range(first + lo, first + hi)
        ):
            return None
        after += map(itemgetter(slice(size, None)), run)
        lo = hi
    return after


#: round lines ``from_jsonl`` checks and decodes at a time
_BLOCK = 1024


def _written_table(lines: list[str]) -> tuple[list[Row], np.ndarray] | None:
    """The rows and index of round lines all of the form ``to_jsonl``
    writes, numbered by their position: the head ``_after_heads`` checks,
    then the row's four fields and nothing else. Each distinct text after
    a head is decoded once. None if a line is of another form; a row value
    the package never writes raises as ``_decode_line`` would."""
    rows: dict[Row, int] = {}  # row -> its position, in order of first occurrence
    ids: dict[str, int] = {}  # text after a head -> its row's position
    index = np.empty(len(lines), dtype=np.intp)
    for lo in range(0, len(lines), _BLOCK):
        tails = _after_heads(lines[lo : lo + _BLOCK], _ROUND_PREFIX + "%d, ", lo)
        if tails is None:
            return None
        for j, tail in enumerate(tails):
            if tail in ids:
                continue
            try:
                fields = json.loads("{" + tail)
            except ValueError:
                return None
            if fields.keys() != set(_ROW_FIELDS):
                return None
            # each line before this text's first holds a row: a value rejected
            # here is the first error a line-by-line read meets
            row = _row_of(lo + j, fields)
            ids[tail] = rows.setdefault(row, len(rows))
        index[lo : lo + len(tails)] = np.fromiter(map(ids.__getitem__, tails), np.intp, len(tails))
    return list(rows), index


class TrialRecords:
    """A log's rounds as a list of ``TrialRecord``s, each built when asked;
    ``append`` adds a round to the log."""

    __slots__ = ("_log",)
    __hash__ = None  # type: ignore[assignment]

    def __init__(self, log: "TrialLog") -> None:
        self._log = log

    def __len__(self) -> int:
        return self._log._size

    def __iter__(self) -> Iterator[TrialRecord]:
        rows = self._log.rows
        for r, i in enumerate(self._log.index.tolist()):
            yield TrialRecord(r, *rows[i])

    def __getitem__(self, key):
        if isinstance(key, slice):
            return [self[p] for p in range(len(self))[key]]
        p = range(len(self))[key]
        return TrialRecord(p, *self._log.rows[self._log.index[p]])

    def __repr__(self) -> str:
        return repr(list(self))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, TrialRecords):
            return self._log._same_rounds(other._log)
        if isinstance(other, list):
            return list(self) == other
        return NotImplemented

    def append(self, record: Sequence) -> None:
        self._log._add(record[0], tuple(record[1:]))


class TrialLog:
    """A header and a table of rounds: the distinct rows (``rows``) and
    each round's row as an index into them (``index``). Round r is the
    r-th round, so ``records``, which views the rounds as
    ``TrialRecord``s, numbers them by position, and a record added with any
    other number raises ``ValueError`` and leaves the log unchanged."""

    def __init__(
        self,
        game: str,
        strategy: str,
        seed: int,
        records: Iterable[Sequence] = (),
        complete: bool = True,
        abort_reason: str | None = None,
    ) -> None:
        self.game, self.strategy, self.seed = game, strategy, seed
        self.complete, self.abort_reason = complete, abort_reason
        self._fill([], np.empty(0, dtype=np.intp))
        for record in records:
            self.records.append(record)

    def _fill(self, rows: list[Row], index: np.ndarray) -> None:
        self.rows, self._index, self._added = rows, index, []
        self._ids: dict[Row, int] | None = None  # row -> its first position, made by _row_id

    @property
    def index(self) -> np.ndarray:
        """Each round's row, as a position in ``rows``."""
        if self._added:
            self._index = np.concatenate([self._index, np.array(self._added, dtype=np.intp)])
            self._added = []
        return self._index

    @property
    def _size(self) -> int:
        return len(self._index) + len(self._added)

    @property
    def records(self) -> TrialRecords:
        return TrialRecords(self)

    def _row_id(self, row: Row) -> int:
        """The position of the first row equal to ``row`` in ``rows``, which
        is added if there is none; raises TypeError when it cannot be hashed."""
        if self._ids is None:
            self._ids = {}
            for i, known in enumerate(self.rows):
                self._ids.setdefault(known, i)
        i = self._ids.get(row)
        if i is None:
            i = self._ids[row] = len(self.rows)
            self.rows.append(row)
        return i

    def _add(self, number: object, row: Row) -> None:
        n = self._size
        # true equals 1, so it is rejected by type
        if type(number) is not int or number != n:
            raise ValueError(f"round {n} is numbered {number!r}; round r must be the r-th")
        self._added.append(self._row_id(row))

    def _same_rounds(self, other: "TrialLog") -> bool:
        """Whether both logs hold equal rounds, whatever the order of rows
        in either table: each row is mapped to its first equal row in
        either table, and the mapped index columns are compared."""
        ids: dict[Row, int] = {}
        mine = np.array([ids.setdefault(row, len(ids)) for row in self.rows], dtype=np.intp)
        theirs = np.array([ids.setdefault(row, len(ids)) for row in other.rows], dtype=np.intp)
        return np.array_equal(mine[self.index], theirs[other.index])

    def tally(self) -> list[tuple[Row, int, int]]:
        """Each row in use, with its number of rounds and its first round,
        in order of first occurrence; so a pass over these fills every dict
        in the order a round-by-round pass would."""
        index = self.index
        counts = np.bincount(index, minlength=len(self.rows))
        first = np.full(len(self.rows), len(index))
        np.minimum.at(first, index, np.arange(len(index)))
        used = np.flatnonzero(counts)
        order = used[np.argsort(first[used])].tolist()
        return [(self.rows[i], int(counts[i]), int(first[i])) for i in order]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TrialLog):
            return NotImplemented
        header = (self.game, self.strategy, self.seed, self.complete, self.abort_reason)
        return header == (
            other.game, other.strategy, other.seed, other.complete, other.abort_reason
        ) and self.records == other.records

    def __repr__(self) -> str:
        return (
            f"TrialLog(game={self.game!r}, strategy={self.strategy!r}, seed={self.seed!r}, "
            f"records={self.records!r}, complete={self.complete!r}, "
            f"abort_reason={self.abort_reason!r})"
        )

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
        # each row is encoded once; a line adds only its round number
        tails = [
            json.dumps(
                {
                    "context": context,
                    "questions": list(questions),
                    "answers": [list(a) for a in answers],
                    "win": win,
                }
            )[1:]
            for context, questions, answers, win in self.rows
        ]
        lines = [f"{_ROUND_PREFIX}{r}, {tails[i]}" for r, i in enumerate(self.index.tolist())]
        return "\n".join([json.dumps(header), *lines]) + "\n"

    @classmethod
    def from_jsonl(cls, text: str) -> "TrialLog":
        # JSON Lines ends a line at "\n" only; json.loads takes a "\r" before it
        lines = text.split("\n")
        # as to_jsonl writes it: a header line first, and a newline ending every line
        written = lines[1:-1] if lines[0].strip() and not lines[-1] else None
        if written is None:
            lines = [ln for ln in lines if ln.strip()]
            if not lines:
                raise ValueError("empty trial log")
        header = json.loads(lines[0])
        if type(header) is not dict or header.get("type") != "header":
            raise ValueError("trial log must start with a header record")
        version = header.get("version")
        if type(version) is not int or version != LOG_FORMAT_VERSION:  # true and 1.0 equal 1
            raise ValueError(
                f"unsupported trial log version {version!r}, expected {LOG_FORMAT_VERSION}"
            )
        # the game is looked up only by the readers that score the rows by it
        for name in ("game", "strategy"):
            if type(header.get(name)) is not str:
                raise ValueError(f"header field '{name}' must be a string, got {header.get(name)!r}")
        seed, complete = header.get("seed"), header.get("complete", True)
        reason = header.get("abort_reason")
        # true equals 1, so it is rejected by type
        if type(seed) is not int or seed < 0:
            raise ValueError(f"header field 'seed' must be an int >= 0, got {seed!r}")
        if type(complete) is not bool:
            raise ValueError(f"header field 'complete' must be true or false, got {complete!r}")
        if "abort_reason" in header and type(reason) is not str:
            raise ValueError(f"header field 'abort_reason' must be a string, got {reason!r}")
        log = cls(
            game=header["game"],
            strategy=header["strategy"],
            seed=seed,
            complete=complete,
            abort_reason=reason,
        )
        table = None if written is None else _written_table(written)
        if table is None:
            index = [
                log._row_id(_decode_line(k, ln))
                for k, ln in enumerate(ln for ln in lines[1:] if ln.strip())
            ]
            table = log.rows, np.array(index, dtype=np.intp)
        log._fill(*table)
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
    ``bits`` bits, exactly as ``1 + uniforms`` calls of ``rng.random()``
    and one of ``rng.integers(0, 2, size=bits)`` on
    ``np.random.default_rng(seed)`` give them (equal to per-call draws on
    numpy 2.4.6). Decoded in closed form: a uniform is word w as ``(w >>
    11) * 2**-53``, the context's first and then one per further uniform,
    and the bits are the top bits of the following 32-bit halves, low
    half first, with a half left over carried into the next round.
    Returns a (rounds, 1 + uniforms) float array and a (rounds, bits)
    array of 0/1 ints.
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
) -> tuple[list[RoundPlan], np.ndarray]:
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
    return plans, index


def presample(
    game: NonlocalGame, strategy: Strategy, rounds: int, seed: int
) -> list[RoundPlan]:
    """Deterministically pre-draw every round of a session.

    Per round the generator first picks the context by weight, then the
    strategy's dealer draws that round's tapes: one uniform variate for a
    quantum outcome, fresh hidden bits for a hidden-variable model, nothing
    for a deterministic table. Each party then answers from its own
    question and tape. Both referee modes play this plan, from
    ``_plan_session``'s distinct plans and index; all of it is drawn at
    once (``_session_draws``). Rounds with the same context and tapes
    share one ``RoundPlan``, scored once.
    """
    plans, index = _plan_session(game, strategy, rounds, seed)
    return [plans[i] for i in index.tolist()]


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
    log = TrialLog(game=game.name, strategy=strategy.name, seed=seed)
    log._fill([plan.row for plan in plans], index)
    return log


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def _scored_tally(log: TrialLog) -> Iterator[tuple[Context, Row, int]]:
    """``log.tally()``'s rows with their contexts, once each is as its catalog
    game scores it; else ValueError names the first round and field that differ."""
    try:
        contexts = {ctx.id: ctx for ctx in game_by_name(log.game).contexts}
    except KeyError as exc:
        raise ValueError(f"header field 'game': {exc.args[0]}") from None
    for row, n, first in log.tally():
        if (ctx := contexts.get(row[0])) is None:
            raise ValueError(f"round {first}: field 'context' {row[0]!r} is no {log.game} context")
        try:
            scored = ctx.row(row[2])
        except ValueError as exc:
            raise ValueError(f"round {first}: {exc}") from None
        for name, written, due in zip(_ROW_FIELDS, row, scored):
            if written != due:
                raise ValueError(f"round {first}: field '{name}' is {written!r}, should be {due!r}")
        yield ctx, row, n


@dataclass(frozen=True)
class ContextStats:
    asked: int
    won: int
    tv_distance: float | None = None


@dataclass(frozen=True)
class StatReport:
    """Aggregate view of a trial log, every row scored by its catalog game.

    ``marginals`` maps each measured observable, written like ``x1``, to
    the frequency of its +1 outcome. ``max_tv_distance`` is present when an
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
    """Summarize a log whose rows its catalog game scores as written (else
    ValueError, naming the first round and field that differ); optionally
    compare per-context joint distributions against exact references (TV)."""
    if not log.records:
        raise ValueError("empty trial log")
    asked: dict[str, int] = {}
    won: dict[str, int] = {}
    joint: dict[str, dict[tuple[int, ...], int]] = {}
    plus: dict[str, int] = {}
    seen: dict[str, int] = {}
    for ctx, (cid, _, answers, win), n in _scored_tally(log):
        asked[cid] = asked.get(cid, 0) + n
        won[cid] = won.get(cid, 0) + n * int(win)
        outcomes = ctx.outcomes(answers)
        for tok, value in zip(map(str, outcomes), outcomes.values()):
            seen[tok] = seen.get(tok, 0) + n
            plus[tok] = plus.get(tok, 0) + n * (value == +1)
        counts = joint.setdefault(cid, {})
        key = tuple(outcomes.values())
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
        rounds=len(log.index),
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
    """The exact per-context distributions the catalog quantum strategy's dealer draws from."""
    return _exact_distributions(quantum_strategy(game).state, game)


# ---------------------------------------------------------------------------
# post-hoc co-referee view of four-party logs
# ---------------------------------------------------------------------------


def nested_subgame_report(log: TrialLog) -> dict[str, dict[str, tuple[int, int]]]:
    """Classify rounds by the embedded three-party games, once every row is
    scored by the log's catalog game as in ``statistics``.

    Derived from ``games.nested_ghz_contexts`` by variable sets: a round
    checks the embedded constraint on its context predicate's variables
    less x2, if there is one. Without x2 it is common to both embedded
    games ("shared"); with x2, the round's x2 answer selects the game
    ("+1" or "-1"). Returns, per bucket, constraint text -> (rounds
    checked, rounds satisfied).
    """
    x2 = SiteObservable(2, "x")
    embedded = {s: {c.vars: c for c in nested_ghz_contexts(s)} for s in (+1, -1)}
    report: dict[str, dict[str, tuple[int, int]]] = {"shared": {}, "+1": {}, "-1": {}}
    for ctx, (_, _, answers, _), n in _scored_tally(log):
        values, predicate = ctx.outcomes(answers), ctx.predicate
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
