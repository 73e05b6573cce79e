"""Why the restricted two-party experiment proves nothing.

The experiment asks party 0 one of two questions and party 1 one of
four, testing four parity equalities that no fixed +-1 assignment could
satisfy jointly. Sounds compelling, but the classical value of the game
is exactly 1: a three-bit local model (and even a two-line automaton)
wins every round, because an answer table may depend on the whole
question, not just on one variable at a time.
"""

from nonlocalgames.classical import (
    automaton_model,
    classical_value,
    lambda_mu_model,
    model_distribution,
    noncontextual_value,
    win_probability,
)
from nonlocalgames.games import cabello_restricted
from nonlocalgames.quantum import joint_distribution, make_psi
from nonlocalgames.trials import run_trials, tv_distance

game = cabello_restricted()
print("the restricted game:")
print(f"  party 0 questions: {[q.id for q in game.question_sets[0]]}")
print(f"  party 1 questions: {[q.id for q in game.question_sets[1]]}")
tested = [ctx for ctx in game.contexts if ctx.predicate is not None]
print(f"  tested pairs: {[(ctx.id, ctx.predicate.text()) for ctx in tested]}")

print("\nnoncontextual assignments cannot win every round:")
print(f"  best fixed assignment wins {noncontextual_value(game)} of the weight")

print("\nbut contextual classical strategies can:")
result = classical_value(game)
print(f"  classical value = {result.value}")
print(f"  automaton win probability = {win_probability(game, automaton_model())}")
print(f"  lambda-mu win probability = {win_probability(game, lambda_mu_model())}")

log = run_trials(game, lambda_mu_model(), rounds=10_000, seed=1)
print(f"  lambda-mu over 10000 seeded rounds: {sum(r.win for r in log.records)} wins")

print("\nhow closely does the lambda-mu model mimic the quantum statistics?")
psi = make_psi()
for ctx in game.contexts:
    model_dist = model_distribution(lambda_mu_model(), game, ctx)
    quantum_dist = joint_distribution(psi, game.measured_observables(ctx))
    tv = tv_distance(quantum_dist, model_dist)
    tag = "tested " if ctx.predicate is not None else "untested"
    print(f"  {ctx.id:<10} {tag}  TV distance = {tv:.3f}")
print(
    "\n  exact match on every tested context; on the untested ones the model's\n"
    "  three bits fix the four-outcome parity that the quantum state leaves\n"
    "  uniform, so an experiment that recorded full joint statistics there\n"
    "  could tell them apart - but this experiment never checks those."
)
