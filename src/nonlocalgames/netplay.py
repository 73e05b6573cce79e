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
presamples the session (``trials.presample``): the strategy's dealer
turns the session's draws, taken at once, into one tape per party per
round, and each party's answer is a function of its own question and
tape alone. One player type, ``PartyStrategy``, plays every strategy:
it holds one party's questions and dealt tape, and the strategy's
``respond`` gives each answer.
Before round 1 the referee deals each player the
concatenation of its per-round tapes, ``tape_width`` values a round, and
never sends shared randomness during play. A deterministic table deals
nothing, a hidden-variable model deals its shared bits to every party,
and the quantum strategy deals each party the presampled outcome values
of its own slots. There is no entangled hardware here, so the quantum
case is a trusted-dealer simulation: it preserves the joint statistics
exactly, but it is not physics. A tape too long for one line is dealt in
several ``dealt`` lines, cut at multiples of 3 bytes so that only the
last one can end in base64 padding; the player joins them and hands the
tape to its strategy once, before its first question. A tape that fits
is dealt in one line.

The referee plays in windows of ``_WINDOW`` rounds. For each window it
sends every party all of its questions at once, then reads the answers
round by round, party by party. A player answers every question it has
received, and sends those answers in one write just before it would
wait for more input. Messages, their bytes and their order on each
connection are those of a lock-step session, so a player that sends
each answer as soon as it has it plays just as well. Seeing its own
questions up to ``_WINDOW - 1`` rounds early tells a party nothing about
another party's question in the current round: each round's context is
drawn independently of every other round's, and the shared randomness
was dealt before round 1 whatever the window. One window of answers
(about 47 bytes each for the lambda-mu model, 3 KiB in all) fits the
smallest TCP receive buffer (4 KiB), so a referee still writing a window
cannot deadlock against a player sending its answers.

The referee gives each message from a player ``_PEER_TIMEOUT_S`` seconds
in all, however its bytes trickle in, and each write to a player as long.
A client whose hello is not whole by then is dropped, like one that
leaves without a hello. A timeout, reset or end of stream once the
player has said hello ends the session in an incomplete log whose
``abort_reason`` names the party and the cause; the others exit 4.
"""

from __future__ import annotations

import base64
import json
import socket
import sys
import time
from dataclasses import dataclass, field
from itertools import chain, product
from typing import Callable, Iterator, Sequence

from .games import NonlocalGame, Question
from .trials import Strategy, TrialLog, TrialRecord, presample

PROTOCOL_VERSION = 1
_MAX_LINE = 1 << 20
#: rounds whose questions go to each player in one write
_WINDOW = 64
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
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable message: {exc}") from None
    if not isinstance(obj, dict) or not isinstance(obj.get("type"), str):
        raise ProtocolError(f"message is not an object with a type: {obj!r}")
    return obj


def _lines(conn: socket.socket, before_wait: Callable[[], None]) -> Iterator[bytes]:
    """Each line ``conn`` receives, without its newline, until end of
    stream; a last line cut short by the end is yielded as it is.

    ``before_wait`` runs before every wait for more bytes. A line longer
    than ``_MAX_LINE`` bytes, newline included, is a protocol error.
    """
    pending = b""
    while True:
        *lines, pending = pending.split(b"\n")
        for line in lines:
            if len(line) >= _MAX_LINE:
                raise ProtocolError(f"message longer than {_MAX_LINE} bytes")
            yield line
        if len(pending) >= _MAX_LINE:
            raise ProtocolError(f"message longer than {_MAX_LINE} bytes")
        before_wait()
        chunk = conn.recv(_RECV_BYTES)
        if not chunk:
            if pending:
                yield pending
            return
        pending += chunk


def _pack_tape(values: Sequence[int]) -> bytes:
    bits = bytearray((len(values) + 7) // 8)
    for i, v in enumerate(values):
        if v == -1:
            bits[i // 8] |= 1 << (i % 8)
        elif v != +1:
            raise ValueError(f"tape values must be +-1, got {v}")
    return bytes(bits)


def encode_tape(values: Sequence[int]) -> str:
    """Pack a +-1 sequence into base64; bit 1 encodes the value -1."""
    return base64.b64encode(_pack_tape(values)).decode()


def decode_tape(text: str, length: int | None = None) -> tuple[int, ...]:
    """Unpack ``length`` values, or every bit the text holds when None."""
    if not isinstance(text, str):
        raise ProtocolError(f"tape must be a string, got {type(text).__name__}")
    try:
        raw = base64.b64decode(text.encode())
    except ValueError as exc:
        raise ProtocolError(f"undecodable tape: {exc}") from None
    if length is None:
        length = len(raw) * 8
    elif len(raw) < (length + 7) // 8:
        raise ProtocolError(f"tape too short for {length} values")
    return tuple(
        -1 if raw[i // 8] & (1 << (i % 8)) else +1 for i in range(length)
    )


def _deal_lines(values: Sequence[int]) -> list[bytes]:
    """The ``dealt`` lines of one player's tape, each within ``_MAX_LINE``."""
    packed = _pack_tape(values)
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
    """

    party: int
    strategy: Strategy = None  # type: ignore[assignment]
    width: int = 0
    #: the party's questions by their (slot, kind) observables
    questions: dict[tuple[tuple[int, str], ...], Question] = field(default_factory=dict)
    _tape: tuple[int, ...] = ()

    def set_tape(self, values: tuple[int, ...]) -> None:
        self._tape = values

    def answer(self, round_index: int, observables: list[tuple[int, str]]) -> list[int]:
        question = self.questions.get(tuple(observables))
        if question is None:
            raise ProtocolError(f"asked a foreign question {observables}", self.party)
        lo = round_index * self.width
        row = self._tape[lo : lo + self.width]
        if round_index < 0 or len(row) != self.width:
            raise ProtocolError(f"no tape for round {round_index}", self.party)
        return list(self.strategy.respond(self.party, question, row))


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
        questions={
            tuple((o.qubit, o.kind.value) for o in q.measured): q
            for q in game.question_sets[party]
        },
    )


# ---------------------------------------------------------------------------
# referee
# ---------------------------------------------------------------------------


def _question_tail(question: Question) -> bytes:
    """A question line after its round number, as ``encode_message`` writes it."""
    observables = [{"slot": o.qubit, "kind": o.kind.value} for o in question.measured]
    return b"," + encode_message({"observables": observables})[1:]


def _answer_tails(arity: int) -> dict[bytes, tuple[int, ...]]:
    """Each canonical ending of an answer line after ``"values":``, with its values."""
    skip = len(b'{"values":')
    return {
        encode_message({"values": list(values)})[skip:-1]: values
        for values in product((1, -1), repeat=arity)
    }


@dataclass
class _Seat:
    """One accepted connection as the referee sees it, a player's once its
    hello names the party: any transport failure on it is that party
    leaving. Each line read gets ``_PEER_TIMEOUT_S`` seconds in all."""

    conn: socket.socket
    party: int | None = None
    outbox: list[bytes] | None = None
    lines: Iterator[bytes] = field(init=False)
    _deadline: float = field(default=0.0, init=False)

    def __post_init__(self) -> None:
        self.lines = _lines(self.conn, self._before_wait)

    def _before_wait(self) -> None:
        remaining = self._deadline - time.monotonic()
        if remaining <= 0:
            raise TimeoutError("timed out")
        self.conn.settimeout(remaining)

    def send(self, lines: list[bytes]) -> None:
        if self.outbox is not None:
            self.outbox.extend(lines)
        try:
            # a read may have left the socket with only its remaining time
            self.conn.settimeout(_PEER_TIMEOUT_S)
            self.conn.sendall(b"".join(lines))
        except OSError as exc:
            raise self._lost(exc) from None

    def read(self) -> bytes:
        self._deadline = time.monotonic() + _PEER_TIMEOUT_S
        try:
            line = next(self.lines, None)
        except OSError as exc:
            raise self._lost(exc) from None
        except ProtocolError as exc:
            raise ProtocolError(str(exc), self.party) from None
        if line is None:
            raise PlayerDisconnected(self.party)
        return line

    def read_answer(
        self, r: int, head: bytes, tails: dict[bytes, tuple[int, ...]], arity: int
    ) -> tuple[int, ...]:
        """Round r's answer values; ``head`` is the canonical line up to
        them and ``tails`` the canonical endings of this arity."""
        line = self.read()
        if line.startswith(head):
            values = tails.get(line[len(head) :])
            if values is not None:
                return values
        # any other form is decoded whole and checked field by field
        try:
            message = decode_message(line)
        except ProtocolError as exc:
            raise ProtocolError(str(exc), self.party) from None
        if message["type"] != "answer":
            raise ProtocolError(f"expected answer, got {message['type']!r}", self.party)
        if message.get("round") != r:
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

    def bind(self, address: tuple[str, int]) -> tuple[str, int]:
        self._listener = socket.create_server(address, backlog=self.game.parties)
        return self._listener.getsockname()

    def serve(self) -> TrialLog:
        """Run the session; returns the log (flagged incomplete on abort)."""
        if self._listener is None:
            raise RuntimeError("bind() must be called before serve()")
        game = self.game
        plans = presample(game, self.strategy, self.rounds, self.seed)
        log = TrialLog(game=game.name, strategy=self.strategy.name, seed=self.seed)
        # per context and party: the question line after its round number,
        # the answer's arity, and the canonical endings of its answer line
        asked = {
            context.id: [
                (_question_tail(q), q.answer_arity, _answer_tails(q.answer_arity))
                for q in context.questions
            ]
            for context in game.contexts
        }
        seats: dict[int, _Seat] = {}
        opened: list[socket.socket] = []
        try:
            with self._listener:
                while len(seats) < game.parties:
                    conn, _addr = self._listener.accept()
                    opened.append(conn)
                    seat = _Seat(conn)
                    try:
                        line = seat.read()
                    except PlayerDisconnected:
                        # a client that is silent or slow, resets or leaves
                        # before its hello is not a player
                        conn.close()
                        continue
                    hello = decode_message(line)
                    if hello["type"] != "hello":
                        raise ProtocolError(f"expected hello, got {hello['type']!r}")
                    party = hello.get("party")
                    if not isinstance(party, int) or not 0 <= party < game.parties:
                        raise ProtocolError(f"bad party index {party!r}")
                    if hello.get("protocol_version") != PROTOCOL_VERSION:
                        raise ProtocolError(
                            f"unsupported protocol version {hello.get('protocol_version')!r}",
                            party,
                        )
                    if party in seats:
                        raise ProtocolError("duplicate hello", party)
                    seat.party = party
                    seat.outbox = None if self.transcript is None else self.transcript.setdefault(party, [])
                    seats[party] = seat
            order = [seats[party] for party in range(game.parties)]

            for seat in order:
                tape = chain.from_iterable(plan.tapes[seat.party] for plan in plans)
                seat.send(_deal_lines(tuple(tape)))

            for lo in range(0, self.rounds, _WINDOW):
                window = range(lo, min(lo + _WINDOW, self.rounds))
                for seat in order:
                    seat.send([
                        b"%s%d%s" % (_QUESTION_HEAD, r, asked[plans[r].context.id][seat.party][0])
                        for r in window
                    ])
                for r in window:
                    plan = plans[r]
                    head = b'%s%d,"values":' % (_ANSWER_HEAD, r)
                    answers = tuple([
                        seat.read_answer(r, head, tails, arity)
                        for seat, (_, arity, tails) in zip(order, asked[plan.context.id])
                    ])
                    row = plan.row if answers == plan.answers else plan.context.row(answers)
                    log.records.append(TrialRecord(r, *row))

            for seat in order:
                seat.send([encode_message({"type": "end", "reason": "complete"})])
            return log
        except PlayerDisconnected as exc:
            log.complete = False
            log.abort_reason = str(exc)
            self._end_all(seats, f"abort: {exc}")
            return log
        except ProtocolError as exc:
            self._end_all(seats, f"abort: {exc}")
            raise
        finally:
            for conn in opened:
                conn.close()

    def _end_all(self, seats: dict[int, _Seat], reason: str) -> None:
        for seat in seats.values():
            try:
                seat.send([encode_message({"type": "end", "reason": reason})])
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
    log is returned and a nonzero player exit raises ProtocolError.
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


def run_player(address: tuple[str, int], party_strategy: PartyStrategy) -> int:
    """Connect, answer every question until the end message; 0 on success.

    Answers go out together, just before the player waits for more input.
    Returns 4 on protocol errors and aborted sessions (and prints the
    reason to stderr), which matches the CLI exit-code convention. The
    player waits on the referee without a deadline; the referee gives
    each of the player's messages ``_PEER_TIMEOUT_S`` seconds in all.
    """
    try:
        with socket.create_connection(address) as conn:
            conn.sendall(
                encode_message(
                    {
                        "type": "hello",
                        "party": party_strategy.party,
                        "protocol_version": PROTOCOL_VERSION,
                    }
                )
            )
            replies: list[bytes] = []

            def send_replies() -> None:
                if replies:
                    conn.sendall(b"".join(replies))
                    replies.clear()

            # the dealt pieces, handed to the strategy at the first question
            tape: list[tuple[int, ...]] = []
            for line in _lines(conn, send_replies):
                message = decode_message(line)
                kind = message["type"]
                if kind == "dealt":
                    # a player does not know the session length: take every bit
                    tape.append(decode_tape(message.get("tape", "")))
                elif kind == "question":
                    if tape:
                        party_strategy.set_tape(tuple(chain.from_iterable(tape)))
                        tape = []
                    try:
                        round_index = int(message["round"])
                        observables = [
                            (int(o["slot"]), str(o["kind"]))
                            for o in message.get("observables", [])
                        ]
                    except (KeyError, TypeError, ValueError):
                        raise ProtocolError(f"malformed question {message!r}") from None
                    values = party_strategy.answer(round_index, observables)
                    replies.append(
                        encode_message(
                            {
                                "type": "answer",
                                "round": round_index,
                                "values": [int(v) for v in values],
                            }
                        )
                    )
                elif kind == "end":
                    if message.get("reason") != "complete":
                        raise ProtocolError(f"session ended: {message.get('reason')}")
                    return 0
                else:
                    raise ProtocolError(f"unknown message type {kind!r}")
            raise ProtocolError("referee closed the connection mid-session")
    except ProtocolError as exc:
        print(f"player {party_strategy.party}: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"player {party_strategy.party}: transport error: {exc}", file=sys.stderr)
        return 4
