from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonlocalgames import quantum
from nonlocalgames.games import (
    ALWAYS_WIN,
    Context,
    NonlocalGame,
    ParityConstraint,
    cabello_extended,
    cabello_restricted,
    contradiction_subset,
    describe,
    four_party_game,
    fourteen_equalities,
    game_by_name,
    make_question,
    mermin_ghz,
    nested_ghz_contexts,
    parse_constraint_line,
    predicate_eval,
    site,
    sites,
)
from nonlocalgames.quantum import make_ghz, make_psi


# ---------------------------------------------------------------------------
# constraints and predicates
# ---------------------------------------------------------------------------


def test_fourteen_equalities_shape():
    eqs = fourteen_equalities()
    assert len(eqs) == 14
    assert len({v for eq in eqs for v in eq.vars}) == 12
    negative = [eq for eq in eqs if eq.sign == -1]
    assert len(negative) == 4


def test_contradiction_subset_is_the_tested_square():
    eqs = fourteen_equalities()
    subset = contradiction_subset()
    assert subset == (eqs[2], eqs[6], eqs[10], eqs[12])
    assert {eq.text() for eq in subset} == {
        "x1*x3*z4 = +1",
        "y1*y3*z4 = -1",
        "x1*x2*y3*y4 = +1",
        "y1*x2*x3*y4 = +1",
    }


def test_constraint_validation():
    with pytest.raises(ValueError):
        ParityConstraint(frozenset(), +1)
    with pytest.raises(ValueError):
        ParityConstraint(frozenset(sites("x1")), 2)


def test_constraint_line_round_trip():
    eq = ParityConstraint(frozenset(sites("y1 x2 z4")), -1)
    assert parse_constraint_line("-1 y1 x2 z4") == eq
    with pytest.raises(ValueError):
        parse_constraint_line("0 x1 x2")
    with pytest.raises(ValueError):
        parse_constraint_line("+1")
    # x1*x1 is 1 whatever x1 is: the line is not the constraint x1 = +1
    with pytest.raises(ValueError, match="repeated variable x1"):
        parse_constraint_line("+1 x1 x1")
    with pytest.raises(ValueError, match="repeated variable y3"):
        parse_constraint_line("-1 y3 x1 y3 z4")


def test_predicate_eval_basic():
    eq = parse_constraint_line("+1 x1 x3 z4")
    assert predicate_eval(eq, {site("x1"): -1, site("x3"): +1, site("z4"): -1})
    eq10 = parse_constraint_line("-1 y1 y3 z4")
    assert not predicate_eval(eq10, {site("y1"): +1, site("y3"): +1, site("z4"): +1})
    assert predicate_eval(ALWAYS_WIN, {})


def test_predicate_eval_accepts_outcome_pairs_and_rejects_missing():
    eq = parse_constraint_line("+1 z1 z3")
    with pytest.raises(ValueError):
        predicate_eval(eq, {site("z1"): +1})


@settings(max_examples=50, deadline=None)
@given(
    values=st.dictionaries(
        st.tuples(st.sampled_from("xyz"), st.integers(1, 4)),
        st.sampled_from((-1, 1)),
        min_size=1,
        max_size=6,
    ),
    sign=st.sampled_from((-1, 1)),
)
def test_predicate_eval_matches_product(values, sign):
    mapping = {site(f"{k}{q}"): v for (k, q), v in values.items()}
    constraint = ParityConstraint(frozenset(mapping), sign)
    prod = 1
    for v in mapping.values():
        prod *= v
    assert predicate_eval(constraint, mapping) == (prod == sign)


# ---------------------------------------------------------------------------
# questions
# ---------------------------------------------------------------------------


def test_make_question_with_skip():
    q = make_question((1, 2), "z1")
    assert q.id == "z1"
    assert q.measurements == ((1, "z"), (2, None))
    assert q.measured == (site("z1"),)
    assert q.answer_arity == 1


def test_make_question_rejects_foreign_qubits():
    with pytest.raises(ValueError):
        make_question((1, 2), "x3")


# ---------------------------------------------------------------------------
# game validation
# ---------------------------------------------------------------------------


def _tiny_game(weight_fix=Fraction(1, 2), predicate_vars="z1 z2"):
    q0 = make_question((1,), "z1")
    q1 = make_question((2,), "z2")
    return NonlocalGame(
        name="tiny",
        parties=2,
        qubit_ownership=((1, 0), (2, 1)),
        question_sets=((q0,), (q1,)),
        contexts=(
            Context("a", (q0, q1), parse_constraint_line(f"+1 {predicate_vars}"), weight_fix),
            Context("b", (q0, q1), ALWAYS_WIN, 1 - weight_fix),
        ),
    )


def test_tiny_game_constructs():
    game = _tiny_game()
    assert game.num_qubits == 2
    assert game.context_by_id("a").predicate is not None


def test_a_question_is_looked_up_in_its_own_partys_set():
    game = _tiny_game()
    assert game.question(0, "z1").id == "z1"
    with pytest.raises(KeyError, match="party 1 has no question 'z1'"):
        game.question(1, "z1")


def test_weights_must_sum_to_one():
    q0 = make_question((1,), "z1")
    q1 = make_question((2,), "z2")
    with pytest.raises(ValueError):
        NonlocalGame(
            name="bad",
            parties=2,
            qubit_ownership=((1, 0), (2, 1)),
            question_sets=((q0,), (q1,)),
            contexts=(Context("a", (q0, q1), ALWAYS_WIN, Fraction(1, 2)),),
        )


_Z1, _Z2, _X1 = make_question((1,), "z1"), make_question((2,), "z2"), make_question((1,), "x1")
_HALF = Fraction(1, 2)


@pytest.mark.parametrize(
    "fields,message",
    [
        ({"qubit_ownership": ((1, 0), (2, 2))}, "qubit owned by an unknown party"),
        ({"question_sets": ((_Z1,),)}, "need one question set per party"),
        ({"question_sets": ((_Z1, _Z1), (_Z2,))}, "duplicate question ids for party 0"),
        ({"question_sets": ((_Z2,), (_Z2,))}, "party 0 asked about qubit 2 it does not own"),
        ({"contexts": ()}, "game needs at least one context"),
        (
            {"contexts": (Context("a", (_Z1, _Z2), ALWAYS_WIN, _HALF),) * 2},
            r"duplicate context ids: \['a', 'a'\]",
        ),
        (
            {"contexts": (Context("a", (_Z1,), ALWAYS_WIN, Fraction(1)),)},
            "context a must question every party",
        ),
        (
            {"contexts": (Context("a", (_X1, _Z2), ALWAYS_WIN, Fraction(1)),)},
            "context a: question x1 not in party 0's set",
        ),
        (
            {
                "contexts": (
                    Context("a", (_Z1, _Z2), ALWAYS_WIN, Fraction(0)),
                    Context("b", (_Z1, _Z2), ALWAYS_WIN, Fraction(1)),
                )
            },
            "context a has non-positive weight",
        ),
    ],
    ids=[
        "unknown-owner",
        "missing-question-set",
        "duplicate-question-ids",
        "foreign-qubit",
        "no-contexts",
        "duplicate-context-ids",
        "context-skips-a-party",
        "question-outside-its-set",
        "non-positive-weight",
    ],
)
def test_each_game_check_names_what_is_wrong(fields, message):
    valid = {
        "name": "bad",
        "parties": 2,
        "qubit_ownership": ((1, 0), (2, 1)),
        "question_sets": ((_Z1,), (_Z2,)),
        "contexts": (
            Context("a", (_Z1, _Z2), ALWAYS_WIN, _HALF),
            Context("b", (_Z1, _Z2), ALWAYS_WIN, _HALF),
        ),
    }
    NonlocalGame(**valid)  # each case below breaks exactly one field
    with pytest.raises(ValueError, match=message):
        NonlocalGame(**{**valid, **fields})


def test_unmeasurable_predicate_rejected():
    with pytest.raises(ValueError):
        _tiny_game(predicate_vars="z1 x2")


def test_ownership_must_partition():
    q0 = make_question((1,), "z1")
    with pytest.raises(ValueError):
        NonlocalGame(
            name="bad",
            parties=1,
            qubit_ownership=((1, 0), (3, 0)),
            question_sets=((q0,),),
            contexts=(Context("a", (q0,), ALWAYS_WIN, Fraction(1)),),
        )


# ---------------------------------------------------------------------------
# catalog structure
# ---------------------------------------------------------------------------


def test_restricted_game_structure():
    game = cabello_restricted()
    assert game.parties == 2
    assert dict(game.qubit_ownership) == {1: 0, 2: 0, 3: 1, 4: 1}
    assert [q.id for q in game.question_sets[0]] == ["x1x2", "y1x2"]
    assert [q.id for q in game.question_sets[1]] == ["x3y4", "x3z4", "y3y4", "y3z4"]
    assert len(game.contexts) == 8
    assert all(ctx.weight == Fraction(1, 8) for ctx in game.contexts)
    tested = [ctx for ctx in game.contexts if ctx.predicate is not ALWAYS_WIN]
    assert len(tested) == 4


def test_restricted_game_tests_exactly_the_four():
    game = cabello_restricted()
    eqs = fourteen_equalities()
    predicates = {ctx.predicate for ctx in game.contexts if ctx.predicate is not ALWAYS_WIN}
    assert predicates == set(contradiction_subset())
    # and no other of the fourteen equalities is tested anywhere
    others = set(eqs) - set(contradiction_subset())
    assert predicates.isdisjoint(others)
    # the untested pairs are exactly these four
    untested = {ctx.id for ctx in game.contexts if ctx.predicate is ALWAYS_WIN}
    assert untested == {"x1x2|x3y4", "x1x2|y3z4", "y1x2|x3z4", "y1x2|y3y4"}


def test_restricted_contexts_measure_at_most_one_equality():
    # each context's predicate is the one equality whose variables it measures
    game = cabello_restricted()
    for ctx in game.contexts:
        measured = set(game.measured_observables(ctx))
        inside = [eq for eq in fourteen_equalities() if eq.vars <= measured]
        assert inside == ([] if ctx.predicate is ALWAYS_WIN else [ctx.predicate])


def test_restricted_predicate_assignment():
    game = cabello_restricted()
    by_id = {ctx.id: ctx.predicate for ctx in game.contexts}
    assert by_id["x1x2|x3z4"].text() == "x1*x3*z4 = +1"
    assert by_id["y1x2|y3z4"].text() == "y1*y3*z4 = -1"
    assert by_id["x1x2|y3y4"].text() == "x1*x2*y3*y4 = +1"
    assert by_id["y1x2|x3y4"].text() == "y1*x2*x3*y4 = +1"


def test_extended_game_structure():
    game = cabello_extended()
    assert len(game.contexts) == 14
    assert all(ctx.weight == Fraction(1, 14) for ctx in game.contexts)
    eq1 = game.context_by_id("eq01")
    assert eq1.questions[0].id == "z1"
    assert eq1.questions[0].measurements == ((1, "z"), (2, None))
    assert eq1.questions[1].id == "z3"
    assert eq1.predicate.text() == "z1*z3 = +1"
    # every equality appears as exactly one context predicate
    assert [ctx.predicate for ctx in game.contexts] == list(fourteen_equalities())


def test_extended_question_sets():
    game = cabello_extended()
    for party in (0, 1):
        questions = game.question_sets[party]
        full_pairs = [q for q in questions if q.answer_arity == 2]
        singles = [q for q in questions if q.answer_arity == 1]
        # at most the nine two-qubit combinations, plus the six singles
        assert len(full_pairs) == 8 and len(full_pairs) <= 9
        assert len(singles) == 6
        assert len(questions) == 14 and len(questions) <= 15


def test_four_party_game_structure():
    game = four_party_game()
    assert game.parties == 4
    assert len(game.contexts) == 14
    for party, questions in enumerate(game.question_sets):
        assert [q.id for q in questions] == [f"x{party+1}", f"y{party+1}", f"z{party+1}"]
    # every party questioned in every context; absent parties get Z
    eq6 = game.context_by_id("eq03")  # tests x1 = x3 z4; party 1 uninvolved
    assert [q.id for q in eq6.questions] == ["x1", "z2", "x3", "z4"]
    for ctx in game.contexts:
        assert len(ctx.questions) == 4


def test_context_row_scores_without_keeping_state():
    ctx = four_party_game().context_by_id("eq03")  # x1 = x3 z4
    before = dict(vars(ctx))
    row = ctx.row([[1], [-1], [1], [1]])
    assert row == ("eq03", ("x1", "z2", "x3", "z4"), ((1,), (-1,), (1,), (1,)), True)
    assert ctx.row([(-1,), (1,), (1,), (1,)])[3] is False
    assert ctx.row([[1], [-1], [1], [1]]) == row
    assert vars(ctx) == before


def test_four_party_quantum_wins_every_context():
    game = four_party_game()
    psi = make_psi()
    reports = quantum.verify_constraints(psi, [ctx.predicate for ctx in game.contexts])
    assert all(r.holds_surely for r in reports)


def test_mermin_game_structure():
    game = mermin_ghz()
    assert game.parties == 3
    assert [ctx.id for ctx in game.contexts] == ["xxx", "xyy", "yxy", "yyx"]
    signs = [ctx.predicate.sign for ctx in game.contexts]
    assert signs == [+1, -1, -1, -1]
    assert all(ctx.weight == Fraction(1, 4) for ctx in game.contexts)
    reports = quantum.verify_constraints(
        make_ghz(3), [ctx.predicate for ctx in game.contexts]
    )
    assert all(r.holds_surely for r in reports)


def test_catalog_weights_and_measurability():
    for name in ("cabello-restricted", "cabello-extended", "four-party", "mermin-ghz"):
        game = game_by_name(name)  # construction itself validates
        assert sum((ctx.weight for ctx in game.contexts), Fraction(0)) == 1


def test_game_by_name_unknown():
    with pytest.raises(KeyError):
        game_by_name("no-such-game")


def test_game_by_name_builds_each_game_once():
    assert game_by_name("four-party") is game_by_name("four-party")
    assert game_by_name("four-party") == four_party_game()
    # a failed lookup is not cached: it raises with the known names each time
    known = "cabello-extended, cabello-restricted, four-party, mermin-ghz"
    for _ in range(2):
        with pytest.raises(KeyError, match=f"unknown game 'nope'; known games: {known}"):
            game_by_name("nope")


# ---------------------------------------------------------------------------
# nested three-party constraint selection
# ---------------------------------------------------------------------------


def test_nested_ghz_contexts():
    first = nested_ghz_contexts(+1)
    second = nested_ghz_contexts(-1)
    assert len(first) == 4 and len(second) == 4
    assert first[3].text() == "y1*x3*y4 = +1"
    assert second[3].text() == "y1*x3*y4 = -1"
    assert first[0] == second[0] and first[1] == second[1]
    with pytest.raises(ValueError):
        nested_ghz_contexts(0)


def test_nested_consistency_via_conditioning():
    # measuring (x1, x2, y3, y4): x2 = +1 forces x1 = y3 y4, x2 = -1 the flip
    psi = make_psi()
    dist = quantum.joint_distribution(psi, sites("x1 x2 y3 y4"))
    for (x1, x2, y3, y4), p in dist.items():
        if p < 1e-12:
            continue
        expected = y3 * y4 if x2 == +1 else -(y3 * y4)
        assert x1 == expected


# ---------------------------------------------------------------------------
# description golden file
# ---------------------------------------------------------------------------

RESTRICTED_DESCRIPTION = """\
game cabello-restricted
parties: 2
qubits: 1->p0 2->p0 3->p1 4->p1
party 0 questions: x1x2 y1x2
party 1 questions: x3y4 x3z4 y3y4 y3z4
contexts:
  x1x2|x3y4  w=1/8  [x1x2 x3y4]  (always win)
  x1x2|x3z4  w=1/8  [x1x2 x3z4]  x1*x3*z4 = +1
  x1x2|y3y4  w=1/8  [x1x2 y3y4]  x1*x2*y3*y4 = +1
  x1x2|y3z4  w=1/8  [x1x2 y3z4]  (always win)
  y1x2|x3y4  w=1/8  [y1x2 x3y4]  y1*x2*x3*y4 = +1
  y1x2|x3z4  w=1/8  [y1x2 x3z4]  (always win)
  y1x2|y3y4  w=1/8  [y1x2 y3y4]  (always win)
  y1x2|y3z4  w=1/8  [y1x2 y3z4]  y1*y3*z4 = -1"""


def test_describe_golden():
    assert describe(cabello_restricted()) == RESTRICTED_DESCRIPTION


def test_describe_mentions_every_context():
    for name in ("cabello-extended", "four-party", "mermin-ghz"):
        game = game_by_name(name)
        text = describe(game)
        for ctx in game.contexts:
            assert ctx.id in text
