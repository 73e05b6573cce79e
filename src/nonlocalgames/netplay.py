"""Distributed referee: one isolated process per player, JSON lines over TCP.

Wire protocol (version 1), one UTF-8 JSON object per line:

* player -> referee: ``{"type": "hello", "party": 0, "protocol_version": 1}``
* referee -> player: ``{"type": "dealt", "tape": "<base64 bits>"}``
* referee -> player: ``{"type": "question", "round": r,
  "observables": [{"slot": 3, "kind": "x"}, ...]}``
* player -> referee: ``{"type": "answer", "round": r, "values": [1, -1]}``
* referee -> player: ``{"type": "end", "reason": "complete"}``, or
  ``"abort: <cause>"`` with the offending party named when a player
  disconnects or breaks the protocol

Unknown fields are ignored; unknown message types are protocol errors. A
player only ever receives its own questions.

Every strategy is played as a dealer plus local responders. The referee
presamples the session (``trials.presample``): the strategy's dealer
turns the session's draws, taken at once, into one tape per party per
round, and each party's answer is a function of its own question and
tape alone. Before round 1 the referee deals each player the
concatenation of its per-round tapes, ``tape_width`` values a round, and
never sends shared randomness during play. A deterministic table deals
nothing, a hidden-variable model deals its shared bits to every party,
and the quantum strategy deals each party the presampled outcome values
of its own slots. There is no entangled hardware here, so the quantum
case is a trusted-dealer simulation: it preserves the joint statistics
exactly, but it is not physics.
"""

from __future__ import annotations

import base64
import json
import socket
from dataclasses import dataclass, field
from itertools import chain
from typing import BinaryIO, Sequence

from .games import NonlocalGame, Question, game_by_name
from .trials import Strategy, TrialLog, _record_for, presample, resolve_strategy

PROTOCOL_VERSION = 1
_MAX_LINE = 1 << 20


class ProtocolError(Exception):
    """A peer broke the wire contract; ``party`` names the offender."""

    def __init__(self, message: str, party: int | None = None):
        prefix = f"party {party}: " if party is not None else ""
        super().__init__(prefix + message)
        self.party = party


class PlayerDisconnected(Exception):
    def __init__(self, party: int):
        super().__init__(f"party {party} disconnected")
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


def _send(stream: BinaryIO, message: dict, transcript: list[bytes] | None = None) -> None:
    data = encode_message(message)
    if transcript is not None:
        transcript.append(data)
    stream.write(data)
    stream.flush()


def _recv(stream: BinaryIO) -> dict | None:
    line = stream.readline(_MAX_LINE)
    if not line:
        return None
    return decode_message(line)


def encode_tape(values: Sequence[int]) -> str:
    """Pack a +-1 sequence into base64; bit 1 encodes the value -1."""
    bits = bytearray((len(values) + 7) // 8)
    for i, v in enumerate(values):
        if v == -1:
            bits[i // 8] |= 1 << (i % 8)
        elif v != +1:
            raise ValueError(f"tape values must be +-1, got {v}")
    return base64.b64encode(bytes(bits)).decode()


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


# ---------------------------------------------------------------------------
# player-side strategies
# ---------------------------------------------------------------------------


@dataclass
class PartyStrategy:
    """What one player process needs: how to answer its own questions."""

    party: int

    def tape_length(self, rounds: int) -> int:
        return 0

    def set_tape(self, values: tuple[int, ...]) -> None:
        pass

    def answer(self, round_index: int, observables: list[tuple[int, str]]) -> list[int]:
        raise NotImplementedError


@dataclass
class Player(PartyStrategy):
    """One party of a strategy: answer each question from its own tape.

    The dealt tape holds ``width`` values per round; round r's slice and
    the question asked are all the strategy's ``respond`` sees.
    """

    strategy: Strategy = None  # type: ignore[assignment]
    width: int = 0
    #: the party's questions by their (slot, kind) observables
    questions: dict[tuple[tuple[int, str], ...], Question] = field(default_factory=dict)
    _tape: tuple[int, ...] = ()

    def tape_length(self, rounds: int) -> int:
        return rounds * self.width

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
    return Player(
        party=party,
        strategy=strategy,
        width=strategy.tape_width(game, party),
        questions={
            tuple((o.qubit, o.kind.value) for o in q.measured): q
            for q in game.question_sets[party]
        },
    )


@dataclass(frozen=True)
class PlayerSpec:
    """Picklable player description: reconstruct the strategy by name."""

    game: str
    strategy: str
    party: int

    def build(self) -> PartyStrategy:
        game = game_by_name(self.game)
        return build_party_strategy(game, resolve_strategy(game, self.strategy), self.party)


# ---------------------------------------------------------------------------
# referee
# ---------------------------------------------------------------------------


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
        plans = presample(self.game, self.strategy, self.rounds, self.seed)
        tapes = [
            tuple(chain.from_iterable(plan.tapes[party] for plan in plans))
            for party in range(self.game.parties)
        ]
        log = TrialLog(
            game=self.game.name, strategy=self.strategy.name, seed=self.seed
        )
        streams: dict[int, BinaryIO] = {}
        # every accepted stream, then its socket: a socket keeps its
        # connection open while a stream made from it is open
        opened: list[BinaryIO | socket.socket] = []
        try:
            with self._listener:
                while len(streams) < self.game.parties:
                    conn, _addr = self._listener.accept()
                    stream = conn.makefile("rwb")
                    opened += (stream, conn)
                    hello = _recv(stream)
                    if hello is None:
                        # a probe that never said hello is not a player
                        stream.close()
                        conn.close()
                        continue
                    if hello["type"] != "hello":
                        raise ProtocolError(f"expected hello, got {hello['type']!r}")
                    party = hello.get("party")
                    if not isinstance(party, int) or not 0 <= party < self.game.parties:
                        raise ProtocolError(f"bad party index {party!r}")
                    if hello.get("protocol_version") != PROTOCOL_VERSION:
                        raise ProtocolError(
                            f"unsupported protocol version {hello.get('protocol_version')!r}",
                            party,
                        )
                    if party in streams:
                        raise ProtocolError("duplicate hello", party)
                    streams[party] = stream

            for party, stream in streams.items():
                outbox = None if self.transcript is None else self.transcript.setdefault(party, [])
                _send(stream, {"type": "dealt", "tape": encode_tape(tapes[party])}, outbox)

            for r, plan in enumerate(plans):
                for party in range(self.game.parties):
                    question = plan.context.questions[party]
                    outbox = None if self.transcript is None else self.transcript[party]
                    _send(
                        streams[party],
                        {
                            "type": "question",
                            "round": r,
                            "observables": [
                                {"slot": obs.qubit, "kind": obs.kind.value}
                                for obs in question.measured
                            ],
                        },
                        outbox,
                    )
                answers: list[tuple[int, ...]] = []
                for party in range(self.game.parties):
                    question = plan.context.questions[party]
                    try:
                        message = _recv(streams[party])
                    except ProtocolError as exc:
                        raise ProtocolError(str(exc), party) from None
                    if message is None:
                        raise PlayerDisconnected(party)
                    if message["type"] != "answer":
                        raise ProtocolError(
                            f"expected answer, got {message['type']!r}", party
                        )
                    if message.get("round") != r:
                        raise ProtocolError(
                            f"answered round {message.get('round')!r}, asked {r}", party
                        )
                    values = message.get("values")
                    # true and 1.0 equal 1, so they would take over the scored row of 1
                    if (
                        not isinstance(values, list)
                        or len(values) != question.answer_arity
                        or any(type(v) is not int or v not in (1, -1) for v in values)
                    ):
                        raise ProtocolError(f"malformed answer values {values!r}", party)
                    answers.append(tuple(values))
                log.records.append(_record_for(self.game, r, plan.context, answers))

            for party, stream in streams.items():
                outbox = None if self.transcript is None else self.transcript[party]
                _send(stream, {"type": "end", "reason": "complete"}, outbox)
            return log
        except PlayerDisconnected as exc:
            log.complete = False
            log.abort_reason = str(exc)
            self._end_all(streams, f"abort: {exc}")
            return log
        except ProtocolError as exc:
            self._end_all(streams, f"abort: {exc}")
            raise
        finally:
            for closable in opened:
                try:
                    closable.close()
                except OSError:
                    pass

    def _end_all(self, streams: dict[int, BinaryIO], reason: str) -> None:
        for party, stream in streams.items():
            outbox = None if self.transcript is None else self.transcript.get(party)
            try:
                _send(stream, {"type": "end", "reason": reason}, outbox)
            except (OSError, ValueError):
                pass


def serve_referee(
    game: NonlocalGame,
    address: tuple[str, int],
    rounds: int,
    seed: int,
    strategy: Strategy,
    *,
    transcript: dict[int, list[bytes]] | None = None,
) -> TrialLog:
    """Bind, wait for one player per party, run the session, return the log."""
    server = RefereeServer(game, rounds, seed, strategy, transcript=transcript)
    server.bind(address)
    return server.serve()


def _player_entry(address: tuple[str, int], spec: "PlayerSpec | PartyStrategy") -> None:
    import sys

    sys.exit(run_player(address, spec))


def run_local_session(
    game: NonlocalGame,
    strategy: Strategy,
    rounds: int,
    seed: int,
    *,
    transcript: dict[int, list[bytes]] | None = None,
    player_specs: Sequence["PlayerSpec | PartyStrategy"] | None = None,
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
        ctx.Process(target=_player_entry, args=((host, port), spec), daemon=True)
        for spec in player_specs
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


def run_player(
    address: tuple[str, int], strategy: PlayerSpec | PartyStrategy
) -> int:
    """Connect, answer every question until the end message; 0 on success.

    Returns 4 on protocol errors (and prints the reason to stderr), which
    matches the CLI exit-code convention.
    """
    import sys

    party_strategy = strategy.build() if isinstance(strategy, PlayerSpec) else strategy
    try:
        with socket.create_connection(address) as conn:
            stream = conn.makefile("rwb")
            _send(
                stream,
                {
                    "type": "hello",
                    "party": party_strategy.party,
                    "protocol_version": PROTOCOL_VERSION,
                },
            )
            while True:
                message = _recv(stream)
                if message is None:
                    raise ProtocolError("referee closed the connection mid-session")
                kind = message["type"]
                if kind == "dealt":
                    # a player does not know the session length: take every bit
                    party_strategy.set_tape(decode_tape(message.get("tape", "")))
                elif kind == "question":
                    try:
                        round_index = int(message["round"])
                        observables = [
                            (int(o["slot"]), str(o["kind"]))
                            for o in message.get("observables", [])
                        ]
                    except (KeyError, TypeError, ValueError):
                        raise ProtocolError(f"malformed question {message!r}") from None
                    values = party_strategy.answer(round_index, observables)
                    _send(
                        stream,
                        {
                            "type": "answer",
                            "round": round_index,
                            "values": [int(v) for v in values],
                        },
                    )
                elif kind == "end":
                    return 0
                else:
                    raise ProtocolError(f"unknown message type {kind!r}")
    except ProtocolError as exc:
        print(f"player {party_strategy.party}: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"player {party_strategy.party}: transport error: {exc}", file=sys.stderr)
        return 4
