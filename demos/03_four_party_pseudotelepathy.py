"""The four-party game: a genuine quantum-classical gap.

Give each of the four qubits to a different player and test the same
fourteen equalities. Now a deterministic strategy really is a fixed +-1
assignment to the twelve outcome variables, and no assignment satisfies
more than 12 of the 14 equalities, while the entangled state wins every
round. The game also hides two three-party parity games: party 1's X
outcome decides which one the other three are playing.
"""

from nonlocalgames.classical import classical_value, noncontextual_maxsat
from nonlocalgames.games import contradiction_subset, four_party_game, fourteen_equalities
from nonlocalgames.trials import nested_subgame_report, quantum_strategy, run_trials

game = four_party_game()

print("how many of the fourteen equalities can a fixed assignment satisfy?")
result = noncontextual_maxsat(fourteen_equalities())
print(f"  {result.max_satisfied} of 14, with {len(result.witnesses)} maximizing assignments")
first = result.witnesses[0]
print("  one witness:", " ".join(f"{var}={value:+d}" for var, value in sorted(first.items())))

core = noncontextual_maxsat(contradiction_subset())
print(f"  the four core equalities alone: {core.max_satisfied} of 4 (never all four)")

print("\nclassical value of the four-party game:")
solved = classical_value(game)
print(f"  {solved.value}  (= {float(solved.value):.6f}), "
      f"{solved.strategies_examined} outer strategies examined")

print("\nquantum strategy over 10000 seeded rounds:")
log = run_trials(game, quantum_strategy(game), rounds=10_000, seed=3)
print(f"  wins: {sum(r.win for r in log.records)}/10000")

print("\nembedded three-party games, read off the same log:")
report = nested_subgame_report(log)
for bucket in ("shared", "+1", "-1"):
    label = {"shared": "common to both", "+1": "x2 = +1 selects", "-1": "x2 = -1 selects"}[bucket]
    print(f"  {label}:")
    for text, (checked, satisfied) in sorted(report[bucket].items()):
        print(f"    {text:<18} satisfied {satisfied}/{checked}")
