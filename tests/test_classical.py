import hashlib
import itertools
import json
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonlocalgames import classical
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
from nonlocalgames.classical import _Group, _Parity, _run_search, _Search, _smallest_sums
from nonlocalgames.games import (
    ALWAYS_WIN,
    GAME_BUILDERS,
    Context,
    NonlocalGame,
    ParityConstraint,
    Question,
    SiteObservable,
    cabello_extended,
    cabello_restricted,
    contradiction_subset,
    four_party_game,
    fourteen_equalities,
    game_by_name,
    make_question,
    mermin_ghz,
    parse_constraint_line,
    site,
)

from oracles import (
    FOURTEEN,
    enumerate_game_value,
    python_maxsat,
    solver_witnesses,
    strategy_value,
)


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


def test_a_negative_witness_limit_is_rejected():
    with pytest.raises(ValueError, match="witness limit must be >= 0"):
        classical_value(mermin_ghz(), max_witnesses=-1)


def test_maxsat_needs_a_constraint():
    with pytest.raises(ValueError, match="need at least one constraint"):
        noncontextual_maxsat([])


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
    ctx = next(c for c in game.contexts if c.id == "x1x2|x3z4")
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
    oracle_best, oracle_witnesses = python_maxsat(plain)
    assert result.max_satisfied == oracle_best
    # every maximizing assignment is counted, however many are built
    assert result.count == len(result.witnesses) == len(oracle_witnesses)
    capped = noncontextual_maxsat(constraints, max_witnesses=1)
    assert (capped.count, capped.witnesses) == (result.count, result.witnesses[:1])


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
    # one scan per context: 6 one-bit and 8 two-bit questions of party 0,
    # not the 2**6 * 4**8 joint strategies
    assert result.strategies_examined == 6 * 2 + 8 * 4


def test_classical_value_budget_error():
    # four-party is one component: 8**3 outer strategies x 14 parities
    with pytest.raises(BudgetExceededError) as raised:
        classical_value(four_party_game(), budget=1000)
    assert raised.value.required == 512 * 14
    # the budget counts each component's own scan
    assert classical_value(cabello_extended(), budget=44).value == 1
    with pytest.raises(BudgetExceededError):
        classical_value(cabello_extended(), budget=43)


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


def _fan_game(questions: int = 20) -> NonlocalGame:
    """Party 0's ``questions`` one-slot questions, each paired with party
    1's question z21 in one context: one group, so one component of
    2**questions outer indices. Party 1 also holds ``questions - 1``
    questions no context asks, so that its answer slots tie party 0's and
    it is the responder."""
    asked = tuple(make_question((q,), f"x{q}") for q in range(1, questions + 1))
    held = tuple(
        make_question((q,), f"z{q}") for q in range(questions + 1, 2 * questions + 1)
    )
    contexts = tuple(
        Context(
            f"c{a.id}",
            (a, held[0]),
            ParityConstraint(frozenset(a.measured + held[0].measured), (-1) ** n),
            Fraction(1, questions),
        )
        for n, a in enumerate(asked)
    )
    return NonlocalGame(
        name="fan",
        parties=2,
        qubit_ownership=tuple((q, int(q > questions)) for q in range(1, 2 * questions + 1)),
        question_sets=(asked, held),
        contexts=contexts,
    )


def test_a_component_larger_than_a_chunk_is_solved_whole():
    game = _fan_game()
    result = classical_value(game, max_witnesses=4)
    # 2**20 indices are two full chunks of one component
    assert result.strategies_examined == 2**20 == 2 * classical._CHUNK
    assert result.value == 1
    # party 0 answers x_n = (-1)**n * z21, for either answer of z21
    assert len(result.optimal_strategies) == 2


def test_an_outer_question_no_context_asks_takes_either_answer():
    # party 1 is the responder (slots tie, the later party wins); party 0's
    # x2 is asked by no context, so its outer bit is in no component
    x1, x2, z3, z4 = (make_question((q,), f"{k}{q}") for k, q in zip("xxzz", range(1, 5)))
    game = NonlocalGame(
        name="idle-question",
        parties=2,
        qubit_ownership=((1, 0), (2, 0), (3, 1), (4, 1)),
        question_sets=((x1, x2), (z3, z4)),
        contexts=(Context("c", (x1, z3), parse_constraint_line("+1 x1 z3"), Fraction(1)),),
    )
    result = classical_value(game)
    assert result.value == 1 and result.strategies_examined == 2
    # both values of x1 (answered by z3) times both values of x2
    assert [s.name for s in result.optimal_strategies] == [
        f"best-classical[{i}]" for i in range(4)
    ]


def _unasked_game(contexts: list[tuple[int, int, int, int, int | None]]) -> NonlocalGame:
    """Party 0 has questions of 3, 2 and 1 slots, the last asked by no
    context; party 1, the responder (6 slots each, the later party wins a
    tie), has questions of 1, 2, 2 and 1 slots, the last asked by no
    context. Each of ``contexts`` is (weight, party 0 question, party 1
    question, mask of the pair's measured observables its parity takes,
    sign, or None for an always-win context)."""
    outer = (
        make_question((1, 2, 3), "x1 x2 x3"),
        make_question((1, 2, 3), "z1 y3"),
        make_question((1, 2, 3), "z2"),
    )
    held = (
        make_question((4, 5), "x4"),
        make_question((4, 5), "z4 z5"),
        make_question((4, 5), "x4 y5"),
        make_question((4, 5), "y4"),
    )
    total = sum(weight for weight, *_ in contexts)
    built = []
    for n, (weight, a, b, mask, sign) in enumerate(contexts):
        measured = outer[a].measured + held[b].measured
        predicate = ALWAYS_WIN if sign is None else ParityConstraint(
            frozenset(obs for k, obs in enumerate(measured) if mask >> k & 1), sign
        )
        built.append(Context(f"c{n}", (outer[a], held[b]), predicate, Fraction(weight, total)))
    return NonlocalGame(
        name="unasked",
        parties=2,
        qubit_ownership=((1, 0), (2, 0), (3, 0), (4, 1), (5, 1)),
        question_sets=(outer, held),
        contexts=tuple(built),
    )


def _assert_witnesses_match_the_reference(game: NonlocalGame) -> None:
    value, witnesses = solver_witnesses(game)
    for limit in (0, 1, 16):
        result = classical_value(game, max_witnesses=limit)
        assert result.value == value
        assert [(s.name, s.answers) for s in result.optimal_strategies] == witnesses[:limit]


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_witnesses_match_a_slot_by_slot_reference(data):
    contexts = []
    for _ in range(data.draw(st.integers(1, 6))):
        a, b = data.draw(st.integers(0, 1)), data.draw(st.integers(0, 2))
        width = (3, 2)[a] + (1, 2, 2)[b]
        contexts.append((
            data.draw(st.integers(1, 3)),
            a,
            b,
            data.draw(st.integers(1, (1 << width) - 1)),
            data.draw(st.sampled_from((-1, +1, None))),
        ))
    _assert_witnesses_match_the_reference(_unasked_game(contexts))


def test_witnesses_of_a_fixed_game_match_the_reference():
    # c3 and c4 contradict, so no strategy wins all; many outer indices
    # tie, and some responder answers are not all +1
    game = _unasked_game([
        (2, 0, 1, 0b10110, -1),
        (1, 1, 2, 0b1011, +1),
        (1, 0, 0, 0b1001, -1),
        (1, 1, 1, 0b1111, -1),
        (1, 1, 1, 0b1111, +1),
        (1, 0, 2, 0b11111, None),
    ])
    value, witnesses = solver_witnesses(game)
    assert value == Fraction(6, 7) and len(witnesses) > 16
    _assert_witnesses_match_the_reference(game)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_search_counts_every_optimal_index(data):
    # random groups over a few outer bits, some of which no parity touches
    outer_bits = data.draw(st.integers(0, 6))
    groups = []
    for _ in range(data.draw(st.integers(0, 3))):
        free_bits = data.draw(st.integers(0, 2))
        groups.append(_Group(free_bits, tuple(
            _Parity(
                data.draw(st.integers(1, 3)),
                data.draw(st.integers(0, 1)),
                data.draw(st.integers(0, (1 << outer_bits) - 1)),
                data.draw(st.integers(0, (1 << free_bits) - 1)),
            )
            for _ in range(data.draw(st.integers(1, 3)))
        )))
    search = _Search(outer_bits, data.draw(st.integers(0, 2)), tuple(groups))

    def score(index: int) -> int:
        return search.base + sum(
            max(
                sum(p.weight for p in g.parities
                    if ((index & p.outer_mask).bit_count() + (free & p.free_mask).bit_count())
                    % 2 == p.target)
                for free in range(1 << g.free_bits)
            )
            for g in search.groups
        )

    scores = [score(i) for i in range(1 << outer_bits)]
    optimal = [i for i, s in enumerate(scores) if s == max(scores)]
    best, winners, _, count = _run_search(search, None)
    assert (best, winners, count) == (max(scores), optimal, len(optimal))
    best, winners, _, count = _run_search(search, 1)
    assert (best, winners, count) == (max(scores), optimal[:1], len(optimal))


def _solves(game: NonlocalGame) -> list:
    """Everything the search returns for ``game``, in comparable form."""
    solved = []
    for limit in (0, 1, 16):
        result = classical_value(game, max_witnesses=limit)
        solved.append((
            result.value,
            result.strategies_examined,
            [(s.name, s.answers) for s in result.optimal_strategies],
        ))
    return solved + [noncontextual_value(game)]


@pytest.mark.parametrize("chunk", [3, 7, 64])
def test_chunk_boundaries_do_not_change_results(monkeypatch, chunk):
    names = sorted(GAME_BUILDERS)
    expected = [_solves(game_by_name(name)) for name in names]
    maxsat = noncontextual_maxsat(fourteen_equalities(), max_witnesses=None)
    monkeypatch.setattr(classical, "_CHUNK", chunk)
    assert [_solves(game_by_name(name)) for name in names] == expected
    assert noncontextual_maxsat(fourteen_equalities(), max_witnesses=None) == maxsat


def test_indices_past_int64_are_exact():
    # 40 contexts of two two-slot questions, each asked once; each parity
    # wants party 0's two answers to differ, so every optimal index sets
    # one bit of every pair and all of them are above 2**63
    asked, held, contexts = [], [], []
    for n in range(40):
        a = make_question((2 * n + 1, 2 * n + 2), f"x{2 * n + 1} x{2 * n + 2}")
        b = make_question((2 * n + 81, 2 * n + 82), f"z{2 * n + 81} z{2 * n + 82}")
        asked.append(a)
        held.append(b)
        contexts.append(Context(
            f"c{n}", (a, b), ParityConstraint(frozenset(a.measured), -1), Fraction(1, 40)
        ))
    game = NonlocalGame(
        name="forty-pairs",
        parties=2,
        qubit_ownership=tuple((q, int(q > 80)) for q in range(1, 161)),
        question_sets=(tuple(asked), tuple(held)),
        contexts=tuple(contexts),
    )
    result = classical_value(game, max_witnesses=4)
    assert result.value == 1
    assert result.strategies_examined == 40 * 4
    # the last question takes the lowest two bits; the smallest optimal
    # pattern of a pair answers (+1, -1), the next one (-1, +1)
    first = sum(4**k for k in range(40))
    assert first > 2**63
    assert [s.name for s in result.optimal_strategies] == [
        f"best-classical[{first + d}]" for d in (0, 1, 4, 5)
    ]
    assert set(result.optimal_strategies[0].answers[0].values()) == {(1, -1)}
    for strategy in result.optimal_strategies:
        assert strategy_value(game, strategy.answers) == 1


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
        (tuple((v.kind, v.qubit) for v in c.predicate.vars), c.predicate.sign)
        for c in game.contexts
        if c.predicate is not ALWAYS_WIN
    ])
    assert noncontextual_value(game) == Fraction(always + oracle_best, len(game.contexts))


def _joined(first: NonlocalGame, second: NonlocalGame, share: Fraction) -> NonlocalGame:
    """Two games on disjoint questions and qubits played as one: the second
    game's qubits move past the first's, and a round plays the first game
    with probability ``share``, the second otherwise."""
    shift = first.num_qubits

    def moved(question: Question) -> Question:
        return Question(tuple((q + shift, k) for q, k in question.measurements))

    def moved_context(ctx: Context) -> Context:
        predicate = ctx.predicate
        if predicate is not ALWAYS_WIN:
            predicate = ParityConstraint(
                frozenset(SiteObservable(v.qubit + shift, v.kind) for v in predicate.vars),
                predicate.sign,
            )
        questions = tuple(map(moved, ctx.questions))
        return Context(f"second-{ctx.id}", questions, predicate, ctx.weight * (1 - share))

    return NonlocalGame(
        name="joined",
        parties=first.parties,
        qubit_ownership=first.qubit_ownership
        + tuple((q + shift, party) for q, party in second.qubit_ownership),
        question_sets=tuple(
            a + tuple(map(moved, b)) for a, b in zip(first.question_sets, second.question_sets)
        ),
        contexts=tuple(replace(c, weight=c.weight * share) for c in first.contexts)
        + tuple(map(moved_context, second.contexts)),
    )


@settings(max_examples=40, deadline=None)
@given(
    first=small_games(),
    second=small_games(),
    share=st.sampled_from((Fraction(1, 2), Fraction(1, 3))),
)
def test_solver_matches_joint_enumeration_on_joined_games(first, second, share):
    game = _joined(first, second, share)
    result = classical_value(game, max_witnesses=16)
    assert result.value == enumerate_game_value(game)
    assert result.optimal_strategies
    for strategy in result.optimal_strategies:
        assert strategy_value(game, strategy.answers) == result.value
    indices = [
        int(s.name.removeprefix("best-classical[").removesuffix("]"))
        for s in result.optimal_strategies
    ]
    assert all(a < b for a, b in zip(indices, indices[1:]))
    # and they are the first 16 optimal tables of the non-responder, whose
    # index counts through its answers with the first slot most significant
    slots = [sum(q.answer_arity for q in qs) for qs in game.question_sets]
    responder = max((n, p) for p, n in enumerate(slots))[1]

    def tables(party):
        questions = game.question_sets[party]
        spaces = [itertools.product((1, -1), repeat=q.answer_arity) for q in questions]
        return [dict(zip((q.id for q in questions), a)) for a in itertools.product(*spaces)]

    optimal = [
        n for n, table in enumerate(tables(1 - responder))
        if any(
            strategy_value(game, (table, reply) if responder else (reply, table))
            == result.value
            for reply in tables(responder)
        )
    ]
    assert indices == optimal[:16]
    # the max-sat search splits the same way: every maximizing assignment
    tested = [c.predicate for c in game.contexts if c.predicate is not ALWAYS_WIN]
    if tested:
        found = noncontextual_maxsat(tested)
        best, witnesses = python_maxsat(
            [(tuple((v.kind, v.qubit) for v in c.vars), c.sign) for c in tested]
        )
        assert found.max_satisfied == best
        assert sorted(
            sorted((v.kind, v.qubit, b) for v, b in w.items()) for w in found.witnesses
        ) == sorted(sorted((k, q, b) for (k, q), b in w.items()) for w in witnesses)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_smallest_sums_merge_matches_brute_force(data):
    # fields of scattered, disjoint bits, each with its own set of patterns
    widths = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    order = data.draw(st.permutations(range(sum(widths))))
    fields, start = [], 0
    for width in widths:
        bits = order[start:start + width]
        start += width
        patterns = data.draw(st.sets(st.integers(0, (1 << width) - 1), min_size=1))
        fields.append(sorted(
            sum(1 << b for k, b in enumerate(bits) if pattern >> k & 1) for pattern in patterns
        ))
    brute = sorted(sum(combo) for combo in itertools.product(*fields))
    for k in (0, 1, 16, None):
        merged = [0]
        for patterns in fields:
            merged = _smallest_sums(merged, patterns, k)
        assert merged == brute[:k]


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
     "74a4c13d5a0f9f0429b9fd3f30c5936b5c0c411607668da102003704284ee340"),
    ("cabello-extended",
     "a30ff8ce938b7eac3b680e2165c4061d19970e0d102f92f635ef9acdecc6e35f"),
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
