import hashlib
import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonlocalgames.classical import (
    BudgetExceededError,
    DeterministicStrategy,
    automaton_model,
    classical_value,
    lambda_mu_model,
    model_distribution,
    noncontextual_maxsat,
    noncontextual_value,
    win_probability,
)
from nonlocalgames.games import (
    ALWAYS_WIN,
    Context,
    NonlocalGame,
    ParityConstraint,
    cabello_extended,
    cabello_restricted,
    contradiction_subset,
    four_party_game,
    fourteen_equalities,
    game_by_name,
    make_question,
    mermin_ghz,
    parse_constraint_line,
)
from nonlocalgames.quantum import site

from oracles import FOURTEEN, enumerate_game_value, python_maxsat


# ---------------------------------------------------------------------------
# the explicit models
# ---------------------------------------------------------------------------


def test_lambda_mu_responses():
    model = lambda_mu_model()
    bits = (-1, +1, +1)  # (lambda1, lambda2, mu)
    assert model.responders[0]("x1x2", bits) == (-1, +1)
    assert model.responders[0]("y1x2", bits) == (-1, +1)
    assert model.responders[1]("x3z4", bits) == (+1, -1)
    assert model.responders[1]("x3y4", bits) == (+1, -1)
    assert model.responders[1]("y3z4", bits) == (+1, +1)


def test_lambda_mu_satisfies_tested_equalities_for_all_bits():
    model = lambda_mu_model()
    game = cabello_restricted()
    tested = [ctx for ctx in game.contexts if ctx.predicate is not ALWAYS_WIN]
    for ctx in tested:
        for bits in itertools.product((+1, -1), repeat=3):
            outcome = {}
            for party, question in enumerate(ctx.questions):
                answers = model.responders[party](question.id, bits)
                outcome.update(zip(question.measured, answers))
            prod = 1
            for var in ctx.predicate.vars:
                prod *= outcome[var]
            assert prod == ctx.predicate.sign


def test_automaton_answers():
    strategy = automaton_model()
    assert strategy.answers[0]["x1x2"] == (1, 1)
    assert strategy.answers[0]["y1x2"] == (1, 1)
    assert strategy.answers[1]["y3z4"] == (1, -1)
    assert strategy.answers[1]["x3y4"] == (1, 1)


# ---------------------------------------------------------------------------
# win_probability
# ---------------------------------------------------------------------------


def test_win_probability_of_the_models():
    game = cabello_restricted()
    assert win_probability(game, automaton_model()) == 1
    assert win_probability(game, lambda_mu_model()) == 1


def test_hand_built_strategies_on_mermin():
    game = mermin_ghz()
    # all-plus satisfies only the xxx context: the three -1 contexts all
    # see a +1 product
    all_plus = DeterministicStrategy(
        name="all-plus",
        answers=tuple({q.id: (1,) * q.answer_arity for q in qs} for qs in game.question_sets),
    )
    assert win_probability(game, all_plus) == Fraction(1, 4)
    # flipping two y answers reaches the optimum of 3/4
    three_quarters = DeterministicStrategy(
        name="three-quarters",
        answers=(
            {"x1": (1,), "y1": (-1,)},
            {"x2": (1,), "y2": (-1,)},
            {"x3": (1,), "y3": (1,)},
        ),
    )
    assert win_probability(game, three_quarters) == Fraction(3, 4)


def test_partial_strategy_rejected():
    game = cabello_restricted()
    partial = DeterministicStrategy(name="partial", answers=({"x1x2": (1, 1)}, {}))
    with pytest.raises(ValueError):
        win_probability(game, partial)


def test_wrong_arity_rejected():
    game = mermin_ghz()
    bad = DeterministicStrategy(
        name="bad",
        answers=tuple({q.id: (1, 1) for q in qs} for qs in game.question_sets),
    )
    with pytest.raises(ValueError):
        win_probability(game, bad)


# ---------------------------------------------------------------------------
# model_distribution
# ---------------------------------------------------------------------------


def test_lambda_mu_distribution_on_a_tested_context():
    game = cabello_restricted()
    ctx = game.context_by_id("x1x2|x3z4")
    dist = model_distribution(lambda_mu_model(), game, ctx)
    assert len(dist) == 8
    assert all(p == Fraction(1, 8) for p in dist.values())
    for (x1, x2, x3, z4), p in dist.items():
        assert x1 == x3 * z4


def test_model_marginals_are_uniform():
    game = cabello_restricted()
    model = lambda_mu_model()
    for ctx in game.contexts:
        dist = model_distribution(model, game, ctx)
        arity = len(next(iter(dist)))
        for position in range(arity):
            plus = sum(p for values, p in dist.items() if values[position] == +1)
            assert plus == Fraction(1, 2)


def test_deterministic_strategy_is_a_point_mass():
    game = cabello_restricted()
    ctx = game.contexts[0]
    dist = model_distribution(automaton_model(), game, ctx)
    assert dist == {(1, 1, 1, 1): Fraction(1)}


def test_model_distribution_consistent_with_win_probability():
    game = cabello_restricted()
    model = lambda_mu_model()
    total = Fraction(0)
    for ctx in game.contexts:
        dist = model_distribution(model, game, ctx)
        if ctx.predicate is ALWAYS_WIN:
            total += ctx.weight
            continue
        observables = game.measured_observables(ctx)
        winning = Fraction(0)
        for values, p in dist.items():
            outcome = dict(zip(observables, values))
            prod = 1
            for var in ctx.predicate.vars:
                prod *= outcome[var]
            if prod == ctx.predicate.sign:
                winning += p
        total += ctx.weight * winning
    assert total == win_probability(game, model)


# ---------------------------------------------------------------------------
# noncontextual max-sat
# ---------------------------------------------------------------------------


def test_maxsat_fourteen_is_12():
    # Independently derived: the equality system contains the two disjoint
    # contradicting quadruples {3,7,11,13} and {5,9,12,14} (1-based), so
    # any +-1 assignment violates at least two equalities; 12 is attained.
    result = noncontextual_maxsat(fourteen_equalities())
    assert result.max_satisfied == 12
    assert len(result.witnesses) == 64
    oracle_best, oracle_witnesses = python_maxsat(FOURTEEN)
    assert oracle_best == 12
    assert len(oracle_witnesses) == 64


def test_maxsat_witnesses_each_violate_exactly_two():
    eqs = fourteen_equalities()
    result = noncontextual_maxsat(eqs)
    for witness in result.witnesses:
        violated = 0
        for eq in eqs:
            prod = 1
            for var in eq.vars:
                prod *= witness[var]
            violated += prod != eq.sign
        assert violated == 2


def test_maxsat_contradiction_subset():
    subset = contradiction_subset()
    variables = {v for eq in subset for v in eq.vars}
    assert len(variables) == 7
    result = noncontextual_maxsat(subset)
    assert result.max_satisfied == 3  # never 4
    for witness in result.witnesses:
        satisfied = 0
        for eq in subset:
            prod = 1
            for var in eq.vars:
                prod *= witness[var]
            satisfied += prod == eq.sign
        assert satisfied == 3


def test_maxsat_single_constraint():
    result = noncontextual_maxsat([parse_constraint_line("-1 x1 y2")])
    assert result.max_satisfied == 1


def test_maxsat_witness_cap():
    result = noncontextual_maxsat(fourteen_equalities(), max_witnesses=5)
    assert result.max_satisfied == 12
    assert len(result.witnesses) == 5


def test_maxsat_var_limit():
    constraints = [
        parse_constraint_line(f"+1 x{q} y{q} z{q}") for q in range(1, 8)
    ]  # 21 distinct variables
    with pytest.raises(BudgetExceededError):
        noncontextual_maxsat(constraints)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_maxsat_matches_python_oracle(data):
    n_constraints = data.draw(st.integers(1, 6))
    constraints = []
    plain = []
    for _ in range(n_constraints):
        vars_ = data.draw(
            st.lists(
                st.tuples(st.sampled_from("xyz"), st.integers(1, 3)),
                min_size=1,
                max_size=4,
                unique=True,
            )
        )
        sign = data.draw(st.sampled_from((-1, 1)))
        constraints.append(
            ParityConstraint(frozenset(site(f"{k}{q}") for k, q in vars_), sign)
        )
        plain.append((tuple(vars_), sign))
    result = noncontextual_maxsat(constraints)
    oracle_best, _ = python_maxsat(plain)
    assert result.max_satisfied == oracle_best


def test_maxsat_adding_a_constraint_changes_max_by_at_most_one():
    eqs = list(fourteen_equalities())
    base = noncontextual_maxsat(eqs[:7]).max_satisfied
    extended = noncontextual_maxsat(eqs[:8]).max_satisfied
    assert base <= extended <= base + 1


# ---------------------------------------------------------------------------
# classical_value
# ---------------------------------------------------------------------------


def test_classical_value_restricted_is_one():
    result = classical_value(cabello_restricted())
    assert result.value == 1
    assert enumerate_game_value(cabello_restricted()) == 1


def test_classical_value_mermin():
    game = mermin_ghz()
    result = classical_value(game)
    assert result.value == Fraction(3, 4)
    assert enumerate_game_value(game) == Fraction(3, 4)


def test_classical_value_four_party():
    # Full 8^4 = 4096 joint enumeration agrees: the best deterministic
    # strategy wins 12 of the 14 uniformly weighted contexts.
    game = four_party_game()
    result = classical_value(game)
    assert result.value == Fraction(6, 7)
    assert result.strategies_examined == 512  # 8^3 outer joints
    assert enumerate_game_value(game) == Fraction(6, 7)


def test_classical_value_witnesses_achieve_the_value():
    for game in (cabello_restricted(), mermin_ghz(), four_party_game()):
        result = classical_value(game, max_witnesses=4)
        assert result.optimal_strategies
        for strategy in result.optimal_strategies:
            assert win_probability(game, strategy) == result.value


def test_classical_value_extended_is_one():
    # Every context of the extended game uses its own question pair, so a
    # strategy can satisfy each parity locally; explicit witness below.
    game = cabello_extended()
    perfect_answers: list[dict[str, tuple[int, ...]]] = [{}, {}]
    for ctx in game.contexts:
        qa, qb = ctx.questions
        perfect_answers[0].setdefault(qa.id, (1,) * qa.answer_arity)
        alice_prod = 1
        for v in perfect_answers[0][qa.id]:
            alice_prod *= v
        want = ctx.predicate.sign * alice_prod
        perfect_answers[1].setdefault(qb.id, (want,) + (1,) * (qb.answer_arity - 1))
    perfect = DeterministicStrategy(name="perfect", answers=tuple(perfect_answers))
    assert win_probability(game, perfect) == 1

    result = classical_value(game)
    assert result.value == 1
    assert result.strategies_examined == 2**6 * 4**8


def test_classical_value_budget_error():
    with pytest.raises(BudgetExceededError):
        classical_value(cabello_extended(), budget=1000)


def test_classical_value_workers_deterministic():
    game = four_party_game()
    sequential = classical_value(game, max_witnesses=8)
    pooled = classical_value(game, max_witnesses=8, workers=2)
    assert sequential.value == pooled.value
    assert sequential.strategies_examined == pooled.strategies_examined
    assert [s.answers for s in sequential.optimal_strategies] == [
        s.answers for s in pooled.optimal_strategies
    ]


def test_classical_value_monotone_under_context_removal():
    game = mermin_ghz()
    base = classical_value(game).value
    for drop in range(len(game.contexts)):
        kept = [ctx for i, ctx in enumerate(game.contexts) if i != drop]
        total = sum((c.weight for c in kept), Fraction(0))
        rescaled = tuple(
            Context(c.id, c.questions, c.predicate, c.weight / total) for c in kept
        )
        smaller = NonlocalGame(
            name="mermin-minus-one",
            parties=game.parties,
            qubit_ownership=game.qubit_ownership,
            question_sets=game.question_sets,
            contexts=rescaled,
        )
        assert classical_value(smaller).value >= base


# ---------------------------------------------------------------------------
# noncontextual_value
# ---------------------------------------------------------------------------


def test_noncontextual_value_catalog():
    assert noncontextual_value(four_party_game()) == Fraction(6, 7)
    assert noncontextual_value(cabello_extended()) == Fraction(6, 7)
    # restricted: 4 always-win contexts plus at most 3 of 4 tested ones
    assert noncontextual_value(cabello_restricted()) == Fraction(7, 8)
    assert noncontextual_value(mermin_ghz()) == Fraction(3, 4)


# ---------------------------------------------------------------------------
# random small games: solver vs joint enumeration
# ---------------------------------------------------------------------------


@st.composite
def small_games(draw):
    kinds0 = draw(st.lists(st.sampled_from("xyz"), min_size=1, max_size=2, unique=True))
    kinds1 = draw(st.lists(st.sampled_from("xyz"), min_size=1, max_size=2, unique=True))
    q0 = tuple(make_question((1,), f"{k}1") for k in kinds0)
    q1 = tuple(make_question((2,), f"{k}2") for k in kinds1)
    pairs = [(a, b) for a in q0 for b in q1]
    weight = Fraction(1, len(pairs))
    contexts = []
    for i, (a, b) in enumerate(pairs):
        choice = draw(st.integers(0, 3))
        if choice == 0:
            predicate = ALWAYS_WIN
        else:
            variables = []
            if choice in (1, 3):
                variables.append(a.measured[0])
            if choice in (2, 3):
                variables.append(b.measured[0])
            predicate = ParityConstraint(
                frozenset(variables), draw(st.sampled_from((-1, 1)))
            )
        contexts.append(Context(f"c{i}", (a, b), predicate, weight))
    return NonlocalGame(
        name="random",
        parties=2,
        qubit_ownership=((1, 0), (2, 1)),
        question_sets=(q0, q1),
        contexts=tuple(contexts),
    )


@settings(max_examples=40, deadline=None)
@given(game=small_games())
def test_solver_matches_joint_enumeration(game):
    assert classical_value(game).value == enumerate_game_value(game)
    # weights are uniform, so the best assignment's value is a plain count
    always = sum(1 for c in game.contexts if c.predicate is ALWAYS_WIN)
    oracle_best, _ = python_maxsat([
        (tuple((v.kind.value, v.qubit) for v in c.predicate.vars), c.predicate.sign)
        for c in game.contexts
        if c.predicate is not ALWAYS_WIN
    ])
    assert noncontextual_value(game) == Fraction(always + oracle_best, len(game.contexts))


# ---------------------------------------------------------------------------
# solver output identity
# ---------------------------------------------------------------------------


def _solver_stream(name: str) -> str:
    """The solver output a pinned digest covers, as JSON text: a catalog
    game's values, outer strategy count and first 16 witnesses in order, or
    every max-sat witness of the fourteen equalities."""
    if name == "maxsat-fourteen":
        result = noncontextual_maxsat(fourteen_equalities())
        witnesses = [sorted((str(v), b) for v, b in w.items()) for w in result.witnesses]
        return json.dumps([result.max_satisfied, witnesses])
    game = game_by_name(name)
    result = classical_value(game, max_witnesses=16)
    witnesses = [
        [s.name, [sorted(answers.items()) for answers in s.answers]]
        for s in result.optimal_strategies
    ]
    return json.dumps([
        str(result.value),
        result.strategies_examined,
        str(noncontextual_value(game)),
        witnesses,
    ])


#: sha256 of _solver_stream(name); a change here changes `solve` and `maxsat` output
PINNED_SOLVES = [
    ("cabello-restricted",
     "b1fb66487a7d71cb1ad622c0778f630ec6e044c7a5ac1e081a1b826faa0b3619"),
    ("cabello-extended",
     "ae20690eaab55122670a6735969b9f879d829d879a46800a7f54304def258d28"),
    ("four-party",
     "964f26ee954dca34797d69d6785771817fae6fdd9e6d14f514dc776838453b18"),
    ("mermin-ghz",
     "51f95692bfd713e8994ff0dec607115938f64f7de014da0ab93b92b90a056557"),
    ("maxsat-fourteen",
     "5a2e3000b3bba5bc8564da8a23e0fde2ed3437eaf5469ecd36de6591c6daff5f"),
]


@pytest.mark.parametrize("name,digest", PINNED_SOLVES)
def test_solver_stream_is_pinned(name, digest):
    assert hashlib.sha256(_solver_stream(name).encode()).hexdigest() == digest
