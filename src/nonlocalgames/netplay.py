"""Distributed referee: one isolated process per player, JSON lines over TCP.

Wire protocol (version 1), one UTF-8 JSON object per line:

* player -> referee: ``{"type": "hello", "party": 0, "protocol_version": 1}``
* referee -> player: ``{"type": "dealt", "tape": "<base64 bits>"}``
* referee -> player: ``{"type": "question", "round": r,
  "observables": [{"slot": 3, "kind": "x"}, ...]}``
* player -> referee: ``{"type": "answer", "round": r, "values": [1, -1]}``
* referee -> player: ``{"type": "end", "reason": "complete"}``, or
  ``"abort: <cause>"`` with the offending party named when a player
  disconnects, falls silent or breaks the protocol

Unknown fields are ignored; unknown message types are protocol errors. A
player only ever receives its own questions. No line is longer than
``_MAX_LINE`` bytes.

Every strategy is played as a dealer plus local responders. The referee
plans the session as ``run_trials`` does (``trials._plan_session``): the
strategy's dealer turns the draws, taken at once, into distinct plans of
tapes, and each party's answer is a function of its own question and
tape alone. One player type, ``PartyStrategy``, plays every strategy:
it holds one party's questions and dealt tape, and the strategy's
``respond`` gives each answer.
Before round 1 the referee deals each player the concatenation of its
per-round tapes, ``tape_width`` values a round, and never sends shared
randomness during play. That concatenation is the party's table of
tapes, one ``int8`` row per plan, indexed by the session's plan index,
and it is packed into bits by one ``np.packbits`` (``_deal_lines``). A
deterministic table deals nothing, a hidden-variable model deals its
shared bits to every party, and the quantum strategy deals each party
the drawn outcome values of its own slots. There is no entangled
hardware here, so the quantum case is a trusted-dealer simulation: it
preserves the joint statistics exactly, but it is not physics. A tape
too long for one line is dealt in several ``dealt`` lines, cut at
multiples of 3 bytes so that only the last one can end in base64
padding; the player joins them and hands the tape to its strategy once,
before its first question. A tape that fits is dealt in one line.

The referee plays in windows of up to ``_WINDOW`` rounds. For each
window it sends every party all of its questions at once, then reads the
answers, party by party. A player answers every question it has
received, and sends those answers in one write just before it would wait
for more input. Messages, their bytes and their order on each
connection are those of a lock-step session, so a player that sends each
answer as soon as it has it plays just as well. Seeing its own questions
up to a window early tells a party nothing about another party's question
in the current round: each round's context is drawn independently of
every other round's, and the shared randomness was dealt before round 1
whatever the window. A player blocked writing its answers while the
referee is blocked writing its questions would deadlock the two, so one
window of answers must fit the referee's receive buffer. The referee
sizes each accepted connection's buffer (``SO_RCVBUF``) for one window of
the session's longest canonical answer line, reads back what the kernel
granted (and counts half of it, since Linux reports twice the usable
size), and shortens the window to what fits, never below one round. Both
ends turn off Nagle's algorithm (``TCP_NODELAY``), or each window's write
could wait on the peer's delayed acknowledgement of the last one.

Both ends read lines through one ``_LineReader``, with no options: one
``bytearray``, appended to in place as bytes arrive and consumed from
its front, so bytes that trickle in are copied and searched a bounded
number of times each. Only the referee's reader, ``_Seat``, adds a
deadline. Before round 1 the referee builds, for each plan and
party, a template of the question line and one of the planned answer
line (``_template``: the head, ``%d`` for the round number, then the rest
of the line with any ``%`` escaped). A window's bytes for one party are
its plans' templates joined and formatted once with the window's round
numbers: its questions go out in one write (``_Seat.send``), and its
expected answers are built the same way. The referee reads answers in
two ways. The fast one is for the answers a faithful player sends.
``match`` compares the bytes a party sends with the expected ones as they
arrive, and waits for more only while those buffered are a proper
prefix; it consumes nothing. If every party's bytes match, the window is
consumed and played as planned, with no work per round. Otherwise the
window is read again from the buffers, round by round, party by party,
each line decoded whole and checked field by field
(``_Seat.read_answer``), and a round whose answers are not its plan's is
scored from them. A transport failure met while matching is kept by the
party's connection and raised again when the reread reaches the round it
cut off, so blame, cause and the rounds kept are those of a
round-by-round read.

A player reads every whole line buffered in one split (``lines``), and
waits only when none is; a wait returns every whole line it brought, so
a window written at once is read as one batch. It sends the answers to a
batch in one write once the batch is handled, before it reads again, so
it never waits with answers unsent. It keeps a question table, filled as
it plays: each decoded question adds the text the referee writes after
the round number for its fields (``_question_tail``), with its
observables. A run of lines that ``_asked_run`` finds to be canonical
questions for the next rounds, each with a text in that table, is
checked at once and answered at once without the decoder: the run's
heads are compared with one formatted string per run of round numbers
with equally many digits, and its texts looked up by one ``map``. Every
other line is decoded whole. Every question is passed to
``PartyStrategy.answer`` once, in round order, which keeps a memo from
(observables, tape slice) to the answer values, so the strategy's
``respond`` runs once per distinct pair. Each distinct answer's line is
encoded once, as a template like the referee's, and a run's replies are
those templates joined and formatted at once with its round numbers.

Only the referee has a deadline. It gives each message from a player
``_PEER_TIMEOUT_S`` seconds in all, counted from its first wait for the
message's bytes once the one before it has arrived whole, however they
trickle in, and each write to a player as long. A client whose hello is
not whole by then is dropped, like one that leaves without a hello. A
timeout, reset or end of stream once the player has said hello ends the
session in an incomplete log whose ``abort_reason`` names the party and
the cause; the others exit 4.
"""

from __future__ import annotations

import base64
import json
import socket
import sys
import time
from dataclasses import dataclass, field
from itertools import chain
from typing import Sequence

import numpy as np

from .games import NonlocalGame, Question
from .trials import Strategy, TrialLog, _after_heads, _plan_session

PROTOCOL_VERSION = 1
_MAX_LINE = 1 << 20
#: rounds whose questions go to each player in one write, at most
_WINDOW = 512
#: seconds the referee waits for a player's whole message, or one write
_PEER_TIMEOUT_S = 30.0
_RECV_BYTES = 1 << 16

_QUESTION_HEAD = b'{"type":"question","round":'
_ANSWER_HEAD = b'{"type":"answer","round":'


class ProtocolError(Exception):
    """A peer broke the wire contract; ``party`` names the offender."""

    def __init__(self, message: str, party: int | None = None):
        prefix = f"party {party}: " if party is not None else ""
        super().__init__(prefix + message)
        self.party = party


class PlayerDisconnected(Exception):
    def __init__(self, party: int | None, cause: str = "disconnected"):
        super().__init__(f"party {party} {cause}")
        self.party = party


# ---------------------------------------------------------------------------
# framing and tapes
# ---------------------------------------------------------------------------


def encode_message(message: dict) -> bytes:
    return json.dumps(message, separators=(",", ":")).encode() + b"\n"


def decode_message(line: bytes) -> dict:
    try:
        obj = json.loads(line.decode())
    # also an int past Python's digit limit, which is a plain ValueError
    except ValueError as exc:
        raise ProtocolError(f"undecodable message: {exc}") from None
    if not isinstance(obj, dict) or not isinstance(obj.get("type"), str):
        raise ProtocolError(f"message is not an object with a type: {obj!r}")
    return obj


class _LineReader:
    """The lines one connection receives, read through one ``bytearray``.

    Bytes are appended to the buffer in place as they arrive and consumed
    from its front (``del``), which CPython does without moving the bytes
    that remain, so bytes that trickle in are copied and searched a bounded
    number of times each. Lines come out as ``bytes``, which hash.
    Every read waits as the socket does: the reader sets no deadline of its
    own. A line longer than ``_MAX_LINE`` bytes, newline included, is a
    protocol error. Transport failures surface as ``OSError``.
    """

    def __init__(self, conn: socket.socket):
        self.conn = conn
        self._buf = bytearray()

    def _fill(self) -> bytes:
        """Wait for more bytes, buffer them and return them; empty at end of
        stream."""
        chunk = self.conn.recv(_RECV_BYTES)
        self._buf += chunk
        return chunk

    def line(self) -> bytes | None:
        """The next line without its newline; a last line cut short by the
        end of stream as it is, and None once nothing is left. Each wait's
        bytes alone are searched for the newline."""
        searched = 0
        while True:
            end = self._buf.find(b"\n", searched)
            if (end if end >= 0 else len(self._buf)) >= _MAX_LINE:
                raise ProtocolError(f"message longer than {_MAX_LINE} bytes")
            if end >= 0:
                line = bytes(self._buf[:end])
                del self._buf[: end + 1]
                return line
            searched = len(self._buf)
            if not self._fill():
                line = bytes(self._buf)
                self._buf.clear()
                return line or None

    def lines(self) -> list[bytes]:
        """Every whole line buffered, without their newlines, in one split.

        When none is buffered it first waits for the next line as ``line``
        does, then returns it with every whole line the wait brought
        besides, so a window written at once is one batch. A last line cut
        short by the end of stream comes as it is; an empty list once
        nothing is left. Lines that might hold one over ``_MAX_LINE`` are
        left to the next call, which returns the next line alone as
        ``line`` reads it."""
        batch = []
        end = self._buf.rfind(b"\n")
        if end < 0:
            line = self.line()
            if line is None:
                return batch
            batch.append(line)
            end = self._buf.rfind(b"\n")
        if end < 0 or end >= _MAX_LINE:
            return batch or [self.line()]
        batch += bytes(self._buf[:end]).split(b"\n")
        del self._buf[: end + 1]
        return batch

    def match(self, expected: bytes) -> bool:
        """Whether the next bytes are ``expected``; consumes nothing.

        Waits for more bytes only while those buffered are a proper prefix
        of ``expected``; otherwise, and at the end of stream, returns False.
        Each call compares a byte once, when it arrives, so bytes that
        trickle in cost time linear in their number."""
        checked = 0
        while True:
            have = min(len(self._buf), len(expected))
            if not self._buf.startswith(expected[checked:have], checked):
                return False
            if have == len(expected):
                return True
            checked = have
            if not self._fill():
                return False

    def skip(self, size: int) -> None:
        """Consume ``size`` buffered bytes, which ``match`` has seen."""
        del self._buf[:size]


#: each byte's eight tape values, low bit first; bit 1 is the value -1
_BYTE_VALUES = [tuple(-1 if byte >> k & 1 else +1 for k in range(8)) for byte in range(256)]


def decode_tape(text: str) -> tuple[int, ...]:
    """Unpack every bit a base64 tape holds; bit 1 is the value -1."""
    if not isinstance(text, str):
        raise ProtocolError(f"tape must be a string, got {type(text).__name__}")
    try:
        # without validate, bytes outside the alphabet are dropped unseen
        raw = base64.b64decode(text.encode(), validate=True)
    except ValueError as exc:
        raise ProtocolError(f"undecodable tape: {exc}") from None
    return tuple(chain.from_iterable(map(_BYTE_VALUES.__getitem__, raw)))


def _deal_lines(values: Sequence[int] | np.ndarray) -> list[bytes]:
    """The ``dealt`` lines of one player's tape, each within ``_MAX_LINE``.

    ``values``, a sequence or an array of +-1 (read flat), are packed by one
    ``np.packbits``: eight a byte, low bit first, bit 1 for the value -1,
    and the last byte filled up with +1. Any other value is a ValueError."""
    values = np.asarray(values)
    bad = (values != 1) & (values != -1)
    if bad.any():
        raise ValueError(f"tape values must be +-1, got {values[bad][0]}")
    packed = np.packbits(values < 0, bitorder="little").tobytes()
    # 4 base64 characters per 3 bytes, beside the line's other 27 bytes
    step = (_MAX_LINE - len(encode_message({"type": "dealt", "tape": ""}))) // 4 * 3
    return [
        encode_message({"type": "dealt", "tape": base64.b64encode(packed[i : i + step]).decode()})
        for i in range(0, max(len(packed), 1), step)
    ]


# ---------------------------------------------------------------------------
# player-side strategies
# ---------------------------------------------------------------------------


@dataclass
class PartyStrategy:
    """One party of a strategy, the one player type: it answers each of
    its own questions from its own dealt tape.

    The dealt tape holds ``width`` values per round; round r's slice and
    the question asked are all the strategy's ``respond`` sees. Made by
    ``build_party_strategy``; without a strategy it has no questions, so
    every question it is asked is foreign.

    ``answer`` keeps a memo from (observables, tape slice) to the answer
    values, so ``respond`` runs once per distinct pair: at most one entry
    per pair and one per round asked, never cleared, since ``respond`` is a
    function of the party, the question and the slice alone. The memo is
    one table per question asked, keyed by the slice, so a hit builds no
    key. Each call returns a fresh list, which the caller may edit.
    """

    party: int
    strategy: Strategy = None  # type: ignore[assignment]
    width: int = 0
    #: the party's questions by their observables, which equal the wire's
    #: (slot, kind) pairs
    questions: dict[tuple[tuple[int, str], ...], Question] = field(default_factory=dict)
    _tape: tuple[int, ...] = ()
    #: observables -> tape slice -> answer values
    _answers: dict[tuple, dict[tuple[int, ...], tuple[int, ...]]] = field(
        default_factory=dict, repr=False, compare=False
    )

    def set_tape(self, values: tuple[int, ...]) -> None:
        self._tape = values

    def answer(self, round_index: int, observables: Sequence[tuple[int, str]]) -> list[int]:
        lo = round_index * self.width
        row = self._tape[lo : lo + self.width]
        try:
            values = self._answers[observables][row]
        except (KeyError, TypeError):
            # a pair not asked before, or observables given as a list
            values = self._respond(round_index, tuple(observables), row)
        if round_index < 0:
            # a width-0 tape, or a negative start, slices to a known slice
            raise ProtocolError(f"no tape for round {round_index}", self.party)
        return list(values)

    def _respond(
        self, round_index: int, key: tuple[tuple[int, str], ...], row: tuple[int, ...]
    ) -> tuple[int, ...]:
        """The memo's values for (``key``, ``row``), from ``respond`` if it has none."""
        by_row = self._answers.get(key)
        if by_row is None:
            if key not in self.questions:
                raise ProtocolError(f"asked a foreign question {list(key)}", self.party)
            by_row = self._answers[key] = {}
        values = by_row.get(row)
        if values is None:
            if round_index < 0 or len(row) != self.width:
                raise ProtocolError(f"no tape for round {round_index}", self.party)
            question = self.questions[key]
            values = by_row[row] = tuple(self.strategy.respond(self.party, question, row))
        return values


def build_party_strategy(
    game: NonlocalGame, strategy: Strategy, party: int
) -> PartyStrategy:
    """Split a whole-game strategy into one player's local behaviour."""
    if not 0 <= party < game.parties:
        raise ValueError(f"party must be in 0..{game.parties - 1}, got {party}")
    return PartyStrategy(
        party=party,
        strategy=strategy,
        width=strategy.tape_width(game, party),
        questions={q.measured: q for q in game.question_sets[party]},
    )


# ---------------------------------------------------------------------------
# referee
# ---------------------------------------------------------------------------


def _question_tail(observables: Sequence[tuple[int, str]]) -> bytes:
    """A question line after its round number, as ``encode_message`` writes it,
    for observables given as (slot, kind) pairs."""
    listed = [{"slot": slot, "kind": kind} for slot, kind in observables]
    return b"," + encode_message({"observables": listed})[1:]


def _answer_ending(values: Sequence[int]) -> bytes:
    """An answer line after its round number, as ``encode_message`` writes it."""
    return b"," + encode_message({"values": [int(v) for v in values]})[1:]


def _template(head: bytes, tail: bytes) -> bytes:
    """A line of ``head``, a round number and ``tail``, with ``%d`` in place
    of the number and every ``%`` of the tail escaped, so that ``%`` with the
    number writes the line."""
    return head + b"%d" + tail.replace(b"%", b"%%")


def _tune(conn: socket.socket, line_bytes: int) -> int:
    """Turn off Nagle's algorithm on an accepted connection and size its
    receive buffer for a window of answer lines of ``line_bytes`` each.

    Returns the rounds of such lines the granted buffer holds: at most
    ``_WINDOW``, at least 1. Linux reports twice the size it grants for
    data, so half of what it reports is counted."""
    conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    conn.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, _WINDOW * line_bytes)
    granted = conn.getsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF) // 2
    return max(1, min(_WINDOW, granted // line_bytes))


class _Seat(_LineReader):
    """One accepted connection as the referee sees it, a player's once its
    hello names the party: any transport failure on it is that party
    leaving. It is the one reader with a deadline: each line read gets
    ``_PEER_TIMEOUT_S`` seconds in all, counted from the first wait for its
    bytes, that is the first wait once the line before it has arrived
    whole. The first transport failure of a read, a timeout included, is
    kept, and raised again at every later wait, so a reread of what was
    buffered before it ends where it did, with the same cause. Each
    message it receives is read by ``message``, which names its party."""

    def __init__(self, conn: socket.socket):
        super().__init__(conn)
        self.party: int | None = None
        self.outbox: list[bytes] | None = None
        self._deadline: float | None = None
        self._failure: PlayerDisconnected | None = None

    def _fill(self) -> bytes:
        if self._failure is None:
            try:
                if self._deadline is None:
                    self._deadline = time.monotonic() + _PEER_TIMEOUT_S
                remaining = self._deadline - time.monotonic()
                if remaining <= 0:
                    raise TimeoutError("timed out")
                self.conn.settimeout(remaining)
                chunk = super()._fill()
                if b"\n" in chunk:
                    # a line arrived whole: the next one's time starts at its first wait
                    self._deadline = None
                return chunk
            except OSError as exc:
                self._failure = self._lost(exc)
        raise self._failure

    def send(self, data: bytes) -> None:
        """Write ``data``, whole lines, in one ``sendall``; a transcript
        being recorded gets them one line at a time."""
        if self.outbox is not None:
            self.outbox.extend(data.splitlines(keepends=True))
        try:
            # a read may have left the socket with only its remaining time
            self.conn.settimeout(_PEER_TIMEOUT_S)
            self.conn.sendall(data)
        except OSError as exc:
            raise self._lost(exc) from None

    def message(self, kind: str) -> dict:
        """The next line, decoded whole; a type other than ``kind`` is an error."""
        try:
            line = self.line()
            if line is None:
                raise PlayerDisconnected(self.party)
            message = decode_message(line)
        except ProtocolError as exc:
            raise ProtocolError(str(exc), self.party) from None
        if message["type"] != kind:
            raise ProtocolError(f"expected {kind}, got {message['type']!r}", self.party)
        return message

    def read_answer(self, r: int, arity: int) -> tuple[int, ...]:
        """Round r's answer values, from a line decoded whole."""
        message = self.message("answer")
        # true and 1.0 equal 1, so they would be taken as round 1
        if type(message.get("round")) is not int or message["round"] != r:
            raise ProtocolError(
                f"answered round {message.get('round')!r}, asked {r}", self.party
            )
        values = message.get("values")
        # true and 1.0 equal 1, so they would take over the scored row of 1
        if (
            not isinstance(values, list)
            or len(values) != arity
            or any(type(v) is not int or v not in (1, -1) for v in values)
        ):
            raise ProtocolError(f"malformed answer values {values!r}", self.party)
        return tuple(values)

    def _lost(self, exc: OSError) -> PlayerDisconnected:
        if isinstance(exc, TimeoutError):
            return PlayerDisconnected(self.party, f"timed out after {_PEER_TIMEOUT_S} s")
        return PlayerDisconnected(self.party, f"disconnected ({exc})")


class RefereeServer:
    """Serves one session of a game to one connected player per party."""

    def __init__(
        self,
        game: NonlocalGame,
        rounds: int,
        seed: int,
        strategy: Strategy,
        *,
        transcript: dict[int, list[bytes]] | None = None,
    ):
        self.game = game
        self.rounds = rounds
        self.seed = seed
        self.strategy = strategy
        self.transcript = transcript
        self._listener: socket.socket | None = None
        # before any player can connect: a session that cannot be planned
        # then keeps no player waiting
        self._plans, self._index = _plan_session(game, strategy, rounds, seed)

    def bind(self, address: tuple[str, int]) -> tuple[str, int]:
        family = socket.AF_INET6 if ":" in address[0] else socket.AF_INET
        self._listener = socket.create_server(address, family=family, backlog=self.game.parties)
        return self._listener.getsockname()

    def serve(self) -> TrialLog:
        """Run the session; returns the log (flagged incomplete on abort).

        Plays the plans and index ``__init__`` made (``trials._plan_session``).
        Hellos and answers are read by ``_Seat.message``. A connection that
        fails or ends before its hello is dropped; a bad hello ends the
        session. Answers are read two ways. Once a window's questions are
        sent, each seat's buffered answers are compared in one go with the
        window's planned answer lines, byte for byte as ``encode_message``
        writes them (``_LineReader.match``). If every seat's bytes match,
        they are consumed and the window is played as planned. Otherwise the
        window is read again round by round, party by party, each line
        decoded whole and checked (``_Seat.read_answer``), and a transport
        failure a seat met while matching is raised where its round comes.
        Only a round whose answers are not its plan's is scored, its row
        looked up by value.
        The window is ``_WINDOW`` rounds, or fewer if one window of the
        session's longest answer line does not fit the receive buffer
        granted on every connection (``_tune``). Each seat's question
        lines for a window, and the answer lines expected back, are each
        one string: the plans' line templates (``_template``) joined and
        formatted at once with the window's round numbers. The log is
        filled once, with the rounds whose answers were all read: the
        session, or the rounds before an abort."""
        if self._listener is None:
            raise RuntimeError("bind() must be called before serve()")
        game = self.game
        plans, index = self._plans, self._index
        ids = index.tolist()
        log = TrialLog(game=game.name, strategy=self.strategy.name, seed=self.seed)
        log.rows.extend(plan.row for plan in plans)
        played = 0
        # per party and plan: the planned answer line after its round number
        endings = [
            [_answer_ending(plan.answers[p]) for plan in plans] for p in range(game.parties)
        ]
        longest = len(b"%s%d" % (_ANSWER_HEAD, self.rounds - 1)) + max(
            len(ending) for by_plan in endings for ending in by_plan
        )
        # per party and plan: the question line and the planned answer line,
        # each a template for its round number
        asked = [
            [_template(_QUESTION_HEAD, _question_tail(plan.context.questions[p].measured))
             for plan in plans]
            for p in range(game.parties)
        ]
        answered = [[_template(_ANSWER_HEAD, ending) for ending in by_plan] for by_plan in endings]
        window = _WINDOW
        seats: dict[int, _Seat] = {}
        opened: list[socket.socket] = []
        try:
            with self._listener:
                while len(seats) < game.parties:
                    conn, _addr = self._listener.accept()
                    opened.append(conn)
                    seat = _Seat(conn)
                    try:
                        fits = _tune(conn, longest)
                        hello = seat.message("hello")
                    except (OSError, PlayerDisconnected):
                        # a client that is silent or slow, resets or leaves
                        # before its hello is not a player
                        conn.close()
                        continue
                    party = hello.get("party")
                    # true equals 1, so it would be taken as party 1
                    if type(party) is not int or not 0 <= party < game.parties:
                        raise ProtocolError(f"bad party index {party!r}")
                    version = hello.get("protocol_version")
                    # true and 1.0 equal 1, so they would be taken as version 1
                    if type(version) is not int or version != PROTOCOL_VERSION:
                        raise ProtocolError(f"unsupported protocol version {version!r}", party)
                    if party in seats:
                        raise ProtocolError("duplicate hello", party)
                    seat.party = party
                    seat.outbox = None if self.transcript is None else self.transcript.setdefault(party, [])
                    seats[party] = seat
                    window = min(window, fits)
            order = [seats[party] for party in range(game.parties)]

            for seat in order:
                tapes = np.array([plan.tapes[seat.party] for plan in plans], dtype=np.int8)
                seat.send(b"".join(_deal_lines(tapes[index])))

            for lo in range(0, self.rounds, window):
                hi = min(lo + window, self.rounds)
                rounds = range(lo, hi)
                planned = ids[lo:hi]
                numbers = tuple(rounds)
                # per seat, the window's question lines and its planned answer
                # lines, each one string formatted at once from the templates
                for seat in order:
                    seat.send(b"".join(map(asked[seat.party].__getitem__, planned)) % numbers)
                expected = [
                    b"".join(map(by_plan.__getitem__, planned)) % numbers for by_plan in answered
                ]
                try:
                    taken = all(seat.match(lines) for seat, lines in zip(order, expected))
                except PlayerDisconnected:
                    # the seat keeps it, for the round it falls in below
                    taken = False
                if taken:
                    for seat, lines in zip(order, expected):
                        seat.skip(len(lines))
                    played = hi
                    continue
                for r in rounds:
                    plan = plans[ids[r]]
                    answers = tuple(
                        seat.read_answer(r, question.answer_arity)
                        for seat, question in zip(order, plan.context.questions)
                    )
                    if answers != plan.answers:
                        index[r] = log._row_id(plan.context.row(answers))
                    played = r + 1

            for seat in order:
                seat.send(encode_message({"type": "end", "reason": "complete"}))
        except PlayerDisconnected as exc:
            log.complete = False
            log.abort_reason = str(exc)
            self._end_all(seats, f"abort: {exc}")
        except ProtocolError as exc:
            self._end_all(seats, f"abort: {exc}")
            raise
        finally:
            for conn in opened:
                conn.close()
        log._fill(log.rows, index[:played])
        return log

    def _end_all(self, seats: dict[int, _Seat], reason: str) -> None:
        for seat in seats.values():
            try:
                seat.send(encode_message({"type": "end", "reason": reason}))
            except PlayerDisconnected:
                pass


def _player_entry(address: tuple[str, int], party_strategy: PartyStrategy) -> None:
    sys.exit(run_player(address, party_strategy))


def run_local_session(
    game: NonlocalGame,
    strategy: Strategy,
    rounds: int,
    seed: int,
    *,
    transcript: dict[int, list[bytes]] | None = None,
    player_specs: Sequence[PartyStrategy] | None = None,
) -> TrialLog:
    """Run the referee plus one OS process per player on localhost.

    ``player_specs`` defaults to splitting ``strategy`` per party. The
    referee runs in the calling process; players are joined before the
    log is returned and a nonzero player exit raises ProtocolError. If
    ``serve`` raises, every player process is killed before the join and
    the error goes on: a player whose connection the referee never
    accepted would otherwise wait on it with no deadline, since each
    player holds the listener it inherited.
    """
    import multiprocessing

    if player_specs is None:
        player_specs = [
            build_party_strategy(game, strategy, party)
            for party in range(game.parties)
        ]
    server = RefereeServer(game, rounds, seed, strategy, transcript=transcript)
    host, port = server.bind(("127.0.0.1", 0))[:2]
    ctx = multiprocessing.get_context()
    processes = [
        ctx.Process(target=_player_entry, args=((host, port), player), daemon=True)
        for player in player_specs
    ]
    for proc in processes:
        proc.start()
    try:
        log = server.serve()
    except BaseException:
        for proc in processes:
            proc.kill()
        raise
    finally:
        for proc in processes:
            proc.join(timeout=30)
    bad = [i for i, proc in enumerate(processes) if proc.exitcode != 0]
    if bad:
        raise ProtocolError(f"player process(es) {bad} exited nonzero")
    return log


# ---------------------------------------------------------------------------
# player
# ---------------------------------------------------------------------------


#: a question line's head, with ``%d`` in place of its round number
_QUESTION_FORMAT = _QUESTION_HEAD + b"%d"


def _asked_run(
    lines: list[bytes], first: int, asked: dict[bytes, tuple[tuple[int, str], ...]]
) -> list[tuple[tuple[int, str], ...]] | None:
    """The observables of ``lines``, or None unless every line is a question
    as the referee writes it for rounds ``first``, ``first + 1``, ...: the
    head ``_QUESTION_HEAD`` and the round number, checked at once by
    ``trials._after_heads``, then a text in ``asked``, looked up by one
    ``map``."""
    tails = _after_heads(lines, _QUESTION_FORMAT, first)
    if tails is None:
        return None
    found = list(map(asked.get, tails))
    return None if None in found else found


class _AnswerLines(dict):
    """Answer values -> the template of their answer line (``_template``),
    each encoded when first asked for."""

    def __missing__(self, values: tuple[int, ...]) -> bytes:
        line = self[values] = _template(_ANSWER_HEAD, _answer_ending(values))
        return line


def run_player(address: tuple[str, int], party_strategy: PartyStrategy) -> int:
    """Connect, answer every question until the end message; 0 on success.

    Lines are read a batch at a time: every whole line buffered, in one
    split (``_LineReader.lines``), and the batch's answers go out in one
    write before the next read, the one that waits for more input, with
    Nagle's algorithm off. With no tape pending, the player takes the
    longest run of lines it can from the batch that ``_asked_run`` reads
    as canonical questions for rounds r + 1, r + 2, ..., r the round last
    answered, each with a text after its round number in the question
    table. A check covers at most twice the longest run confirmed since
    the last check that failed, and after a failed check the next covers
    one line, so the lines examined stay linear in the lines read,
    whatever the referee sends. The run
    is answered at once: ``party_strategy.answer`` once per round, in
    round order, and one reply: the answers' line templates
    (``_AnswerLines``) joined and formatted at once with the run's round
    numbers.
    Every other line (a dealt line, the end, a question whose text is new
    or not canonical) is decoded whole and answered as a run of one; a
    decoded question adds to the question table the text
    ``_question_tail`` writes for its fields, not the text it came in.
    An ASCII host is passed to the resolver as bytes, which loads no IDNA
    codec.
    Returns 4 on protocol errors and aborted sessions (and prints the
    reason to stderr), which matches the CLI exit-code convention. The
    player waits on the referee without a deadline; the referee gives
    each of the player's messages ``_PEER_TIMEOUT_S`` seconds in all.
    """
    host, port = address
    if isinstance(host, str) and host.isascii():
        # getaddrinfo encodes a str host with the IDNA codec, whose import
        # costs a player process several ms
        host = host.encode()
    try:
        with socket.create_connection((host, port)) as conn:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn.sendall(
                encode_message(
                    {
                        "type": "hello",
                        "party": party_strategy.party,
                        "protocol_version": PROTOCOL_VERSION,
                    }
                )
            )
            # canonical question text after the round number -> observables
            asked: dict[bytes, tuple[tuple[int, str], ...]] = {}
            answered = _AnswerLines()
            # the dealt pieces, handed to the strategy at the first question
            tape: list[tuple[int, ...]] = []
            reader = _LineReader(conn)
            round_index = -1
            # lines the next run check may cover
            reach = 1
            while batch := reader.lines():
                replies: list[bytes] = []
                i = 0
                while i < len(batch):
                    run = None
                    if not tape:
                        checked = batch[i : i + reach]
                        run = _asked_run(checked, round_index + 1, asked)
                        if run is None and len(checked) > 1:
                            reach = 1
                            continue
                    if run is not None:
                        i += len(run)
                        # a run the batch's end cut short keeps the reach
                        reach = max(reach, 2 * len(run))
                        first = round_index + 1
                    else:
                        message = decode_message(batch[i])
                        i += 1
                        kind = message["type"]
                        if kind == "dealt":
                            # a player does not know the session length: take every bit
                            tape.append(decode_tape(message.get("tape", "")))
                            continue
                        if kind == "end":
                            if message.get("reason") != "complete":
                                raise ProtocolError(f"session ended: {message.get('reason')}")
                            return 0
                        if kind != "question":
                            raise ProtocolError(f"unknown message type {kind!r}")
                        if tape:
                            party_strategy.set_tape(tuple(chain.from_iterable(tape)))
                            tape = []
                        first = message.get("round")
                        # int() would answer 7.9 and true as rounds 7 and 1
                        if type(first) is not int:
                            raise ProtocolError(f"question round must be an int, got {first!r}")
                        # the referee numbers rounds by a numpy intp; the next
                        # round's head could pass Python's int-to-str digit limit
                        if first >= 1 << 63:
                            raise ProtocolError("question round must be below 2**63")
                        try:
                            observables = tuple(
                                (o["slot"], o["kind"]) for o in message.get("observables", [])
                            )
                        except (KeyError, TypeError):
                            raise ProtocolError(f"malformed question {message!r}") from None
                        # int() and str() would answer 1.5, "1" and true as slot 1
                        for slot, kind in observables:
                            if type(slot) is not int:
                                raise ProtocolError(f"question slot must be an int, got {slot!r}")
                            if type(kind) is not str:
                                raise ProtocolError(f"question kind must be a string, got {kind!r}")
                        # keyed by what the referee writes for these fields, never by
                        # this line, which may repeat a key, add spaces or fields
                        asked[_question_tail(observables)[:-1]] = observables
                        run = [observables]
                    round_index = first + len(run) - 1
                    rounds = range(first, round_index + 1)
                    values = map(tuple, map(party_strategy.answer, rounds, run))
                    replies.append(b"".join(map(answered.__getitem__, values)) % tuple(rounds))
                # every buffered line is handled, so the next read is the one
                # that waits: the batch's answers go out before it, in one write
                if replies:
                    conn.sendall(b"".join(replies))
            raise ProtocolError("referee closed the connection mid-session")
    except ProtocolError as exc:
        print(f"player {party_strategy.party}: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"player {party_strategy.party}: transport error: {exc}", file=sys.stderr)
        return 4
