import json
import socket
import threading
from dataclasses import dataclass

import pytest

from nonlocalgames.classical import automaton_model, lambda_mu_model
from nonlocalgames.games import (
    ALWAYS_WIN,
    cabello_extended,
    cabello_restricted,
    four_party_game,
    mermin_ghz,
)
from nonlocalgames.netplay import (
    PartyStrategy,
    PlayerSpec,
    ProtocolError,
    RefereeServer,
    build_party_strategy,
    decode_message,
    decode_tape,
    encode_message,
    encode_tape,
    run_local_session,
    run_player,
)
from nonlocalgames.trials import quantum_strategy, run_trials


# ---------------------------------------------------------------------------
# framing and tapes
# ---------------------------------------------------------------------------


def test_message_round_trip():
    message = {"type": "question", "round": 3, "observables": [{"slot": 1, "kind": "x"}]}
    assert decode_message(encode_message(message)) == message


def test_unknown_fields_are_preserved_not_fatal():
    line = json.dumps({"type": "answer", "round": 0, "values": [1], "debug": "yes"}).encode()
    decoded = decode_message(line + b"\n")
    assert decoded["values"] == [1]


def test_malformed_messages_rejected():
    with pytest.raises(ProtocolError):
        decode_message(b"not json\n")
    with pytest.raises(ProtocolError):
        decode_message(b"[1, 2, 3]\n")
    with pytest.raises(ProtocolError):
        decode_message(b'{"no_type": 1}\n')


@pytest.mark.parametrize("length", [0, 1, 7, 8, 9, 30])
def test_tape_round_trip(length):
    values = tuple((-1) ** i for i in range(length))
    assert decode_tape(encode_tape(values), length) == values


def test_tape_rejects_non_pm_one():
    with pytest.raises(ValueError):
        encode_tape((1, 0, -1))


# ---------------------------------------------------------------------------
# mode equivalence (the core contract)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "game_builder,strategy_builder,rounds,seed",
    [
        (four_party_game, lambda g: quantum_strategy(g), 300, 42),
        (cabello_restricted, lambda g: lambda_mu_model(), 300, 5),
        (cabello_restricted, lambda g: automaton_model(), 150, 9),
        (mermin_ghz, lambda g: quantum_strategy(g), 200, 1),
        (cabello_extended, lambda g: quantum_strategy(g), 150, 3),
    ],
)
def test_distributed_matches_in_process(game_builder, strategy_builder, rounds, seed):
    game = game_builder()
    strategy = strategy_builder(game)
    in_process = run_trials(game, strategy, rounds=rounds, seed=seed)
    distributed = run_local_session(game, strategy, rounds=rounds, seed=seed)
    assert in_process == distributed
    assert in_process.to_jsonl() == distributed.to_jsonl()


def test_players_from_specs_match_too():
    game = cabello_restricted()
    strategy = automaton_model()
    specs = [PlayerSpec("cabello-restricted", "automaton", party) for party in range(2)]
    in_process = run_trials(game, strategy, rounds=100, seed=21)
    distributed = run_local_session(
        game, strategy, rounds=100, seed=21, player_specs=specs
    )
    assert in_process == distributed


def test_transcript_never_leaks_foreign_data():
    game = four_party_game()
    transcript: dict[int, list[bytes]] = {}
    run_local_session(
        game, quantum_strategy(game), rounds=120, seed=33, transcript=transcript
    )
    owned = {party: {q for q, p in game.qubit_ownership if p == party} for party in range(4)}
    assert sorted(transcript) == [0, 1, 2, 3]
    for party, blobs in transcript.items():
        kinds = []
        for blob in blobs:
            message = decode_message(blob)
            kinds.append(message["type"])
            assert message["type"] in ("dealt", "question", "end")
            if message["type"] == "question":
                slots = {obs["slot"] for obs in message["observables"]}
                assert slots <= owned[party]
        assert kinds[0] == "dealt"
        assert kinds[-1] == "end"
        assert kinds.count("question") == 120


# ---------------------------------------------------------------------------
# protocol failures
# ---------------------------------------------------------------------------


def _serve_in_thread(game, strategy, rounds, seed):
    server = RefereeServer(game, rounds, seed, strategy)
    host, port = server.bind(("127.0.0.1", 0))[:2]
    box = {}

    def run():
        try:
            box["log"] = server.serve()
        except Exception as exc:  # noqa: BLE001 - surfaced by the test
            box["error"] = exc

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return (host, port), thread, box


def test_disconnect_yields_incomplete_log():
    game = cabello_restricted()
    address, thread, box = _serve_in_thread(game, automaton_model(), 50, 0)

    sockets = [socket.create_connection(address) for _ in range(2)]
    files = [s.makefile("rwb") for s in sockets]
    for party, f in enumerate(files):
        f.write(encode_message({"type": "hello", "party": party, "protocol_version": 1}))
        f.flush()
    # party 0 reads its deal and first question, then vanishes
    decode_message(files[0].readline())
    decode_message(files[0].readline())
    sockets[0].shutdown(socket.SHUT_RDWR)
    sockets[0].close()
    # party 1 keeps to the protocol for its first question
    decode_message(files[1].readline())
    decode_message(files[1].readline())
    thread.join(timeout=10)
    for s in sockets[1:]:
        s.close()
    log = box["log"]
    assert not log.complete
    assert "party 0" in log.abort_reason
    assert log.records == []


def test_wrong_round_answer_is_a_protocol_error():
    game = cabello_restricted()
    address, thread, box = _serve_in_thread(game, automaton_model(), 50, 0)

    sockets = [socket.create_connection(address) for _ in range(2)]
    files = [s.makefile("rwb") for s in sockets]
    for party, f in enumerate(files):
        f.write(encode_message({"type": "hello", "party": party, "protocol_version": 1}))
        f.flush()
    for f in files:
        decode_message(f.readline())  # dealt
        decode_message(f.readline())  # question round 0
    # party 0 answers a round it was not asked
    files[0].write(encode_message({"type": "answer", "round": 7, "values": [1, 1]}))
    files[0].flush()
    thread.join(timeout=10)
    for s in sockets:
        s.close()
    error = box["error"]
    assert isinstance(error, ProtocolError)
    assert error.party == 0
    assert "round" in str(error)


@pytest.mark.parametrize("values", [[True, 1], [1.0, 1], [1]], ids=["bool", "float", "short"])
def test_protocol_error_ends_every_player(values):
    game = cabello_restricted()
    address, thread, box = _serve_in_thread(game, automaton_model(), 50, 0)

    # a probe that leaves without a hello is not a player
    socket.create_connection(address).close()
    # a referee that neither ends the session nor closes it must not hang the test
    sockets = [socket.create_connection(address, timeout=2) for _ in range(2)]
    files = [s.makefile("rwb") for s in sockets]
    for party, f in enumerate(files):
        f.write(encode_message({"type": "hello", "party": party, "protocol_version": 1}))
        f.flush()
    for f in files:
        decode_message(f.readline())  # dealt
        decode_message(f.readline())  # question round 0
    # party 0 answers in form, party 1 does not
    for f, answer in zip(files, [[1, -1], values]):
        f.write(encode_message({"type": "answer", "round": 0, "values": answer}))
        f.flush()
    thread.join(timeout=10)
    # read while the error, and with it the referee's frames, is still alive
    ends = [decode_message(f.readline()) for f in files]
    closed = [f.readline() for f in files]
    for s in sockets:
        s.close()
    assert closed == [b"", b""]  # end of stream, not a timeout
    error = box["error"]
    assert isinstance(error, ProtocolError)
    assert error.party == 1
    for end in ends:
        assert end["type"] == "end"
        assert end["reason"].startswith("abort: party 1: malformed answer values")


@dataclass
class Contrary(PartyStrategy):
    """Answers against its own tape: the first value flipped on odd rounds."""

    inner: PartyStrategy = None  # type: ignore[assignment]

    def tape_length(self, rounds: int) -> int:
        return self.inner.tape_length(rounds)

    def set_tape(self, values: tuple[int, ...]) -> None:
        self.inner.set_tape(values)

    def answer(self, round_index: int, observables: list[tuple[int, str]]) -> list[int]:
        values = self.inner.answer(round_index, observables)
        if round_index % 2:
            values[0] = -values[0]
        return values


def test_referee_scores_the_answers_sent():
    game = cabello_restricted()
    strategy = lambda_mu_model()
    players = [build_party_strategy(game, strategy, party) for party in range(2)]
    players[0] = Contrary(party=0, inner=players[0])
    planned = run_trials(game, strategy, rounds=200, seed=8)
    log = run_local_session(game, strategy, rounds=200, seed=8, player_specs=players)
    assert log.complete and len(log.records) == 200
    lost = 0
    for sent, plan in zip(log.records, planned.records):
        if sent.round % 2 == 0:
            assert sent == plan
            continue
        (first, *rest), *others = plan.answers
        assert sent.answers == ((-first, *rest), *others)
        # flipping x1 or y1 breaks every tested equality
        tested = game.context_by_id(sent.context_id).predicate is not ALWAYS_WIN
        assert sent.win is not tested
        lost += tested
    assert lost > 0


def test_bad_protocol_version_rejected():
    game = cabello_restricted()
    address, thread, box = _serve_in_thread(game, automaton_model(), 5, 0)
    with socket.create_connection(address) as s:
        f = s.makefile("rwb")
        f.write(encode_message({"type": "hello", "party": 0, "protocol_version": 99}))
        f.flush()
        thread.join(timeout=10)
    assert isinstance(box["error"], ProtocolError)


def _play_against(messages, party=0):
    """Run an automaton player against a fake referee that sends ``messages``
    after the hello; return the player's status and what it sent back."""
    listener = socket.create_server(("127.0.0.1", 0))
    host, port = listener.getsockname()[:2]
    box = {}

    def fake_referee():
        conn, _ = listener.accept()
        with conn:
            f = conn.makefile("rwb")
            decode_message(f.readline())  # hello
            for message in messages:
                f.write(encode_message(message))
            f.flush()
            box["reply"] = f.readline()  # empty once the player gives up

    thread = threading.Thread(target=fake_referee, daemon=True)
    thread.start()
    try:
        strategy = build_party_strategy(cabello_restricted(), automaton_model(), party)
        status = run_player((host, port), strategy)
        thread.join(timeout=10)
    finally:
        listener.close()
    return status, box.get("reply")


def test_player_rejects_unknown_message_type():
    status, reply = _play_against([{"type": "mystery"}])
    assert status == 4
    assert reply == b""


def _question(round_index, *observables):
    message = {"type": "question", "observables": list(observables)}
    if round_index is not None:
        message["round"] = round_index
    return message


@pytest.mark.parametrize(
    "messages,party",
    [
        # a question without a round number
        ([_question(None, {"slot": 1, "kind": "x"}, {"slot": 2, "kind": "x"})], 0),
        # a question party 1 does not have (z3)
        ([_question(0, {"slot": 3, "kind": "z"})], 1),
        # an observable without a slot
        ([_question(0, {"kind": "x"}, {"slot": 2, "kind": "x"})], 0),
        # a tape that is not a string
        ([{"type": "dealt", "tape": 5}], 0),
    ],
    ids=["no-round", "foreign-question", "no-slot", "non-string-tape"],
)
def test_malformed_referee_message_is_a_protocol_error(messages, party):
    status, reply = _play_against([{"type": "dealt", "tape": ""}] + messages, party)
    assert status == 4
    assert reply == b""


def test_extra_fields_in_questions_are_ignored_by_players():
    listener = socket.create_server(("127.0.0.1", 0))
    host, port = listener.getsockname()[:2]
    answers = {}

    def fake_referee():
        conn, _ = listener.accept()
        with conn:
            f = conn.makefile("rwb")
            decode_message(f.readline())  # hello
            f.write(encode_message({"type": "dealt", "tape": "", "mood": "sunny"}))
            f.write(
                encode_message(
                    {
                        "type": "question",
                        "round": 0,
                        "observables": [
                            {"slot": 3, "kind": "y", "color": "red"},
                            {"slot": 4, "kind": "z"},
                        ],
                        "hint": 42,
                    }
                )
            )
            f.flush()
            answers["message"] = decode_message(f.readline())
            f.write(encode_message({"type": "end", "reason": "complete"}))
            f.flush()

    thread = threading.Thread(target=fake_referee, daemon=True)
    thread.start()
    strategy = build_party_strategy(cabello_restricted(), automaton_model(), 1)
    status = run_player((host, port), strategy)
    thread.join(timeout=10)
    listener.close()
    assert status == 0
    assert answers["message"] == {"type": "answer", "round": 0, "values": [1, -1]}
