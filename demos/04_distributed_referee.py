"""Playing the four-party game with one OS process per player.

The referee speaks newline-delimited JSON over TCP and sends each player
only its own questions; shared randomness (here: dealer-presampled
measurement outcomes standing in for the entangled state) goes out once,
before round 1. The resulting log is bit-identical to the in-process
referee with the same seed, and the captured transcripts show no player
ever saw another player's question or answer.
"""

from nonlocalgames.games import four_party_game
from nonlocalgames.netplay import decode_message, run_local_session
from nonlocalgames.trials import quantum_strategy, run_trials

game = four_party_game()
strategy = quantum_strategy(game)

print("running 500 rounds in-process...")
local = run_trials(game, strategy, rounds=500, seed=42)

print("running the same 500 rounds over TCP with 4 player processes...")
transcript: dict[int, list[bytes]] = {}
remote = run_local_session(game, strategy, rounds=500, seed=42, transcript=transcript)

print(f"  in-process wins:  {sum(r.win for r in local.records)}/500")
print(f"  distributed wins: {sum(r.win for r in remote.records)}/500")
print(f"  logs bit-identical: {local.to_jsonl() == remote.to_jsonl()}")

print("\nwhat each player actually received:")
for party in sorted(transcript):
    kinds = [decode_message(blob)["type"] for blob in transcript[party]]
    slots = set()
    for blob in transcript[party]:
        message = decode_message(blob)
        if message["type"] == "question":
            slots |= {obs["slot"] for obs in message["observables"]}
    print(
        f"  player {party}: 1 dealt tape, {kinds.count('question')} questions "
        f"(all about its own qubit {sorted(slots)}), 1 end message"
    )

print("\nfirst three wire messages to player 0:")
for blob in transcript[0][:3]:
    print("  " + blob.decode().rstrip())
