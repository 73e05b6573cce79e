import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonlocalgames import games, quantum, trials
from nonlocalgames.games import SiteObservable, site, sites
from nonlocalgames.quantum import (
    Statevector,
    expectation,
    joint_distribution,
    joint_distributions,
    make_ghz,
    make_psi,
    reduced_spectrum,
    verify_constraints,
)

from oracles import draw_from, kron_projector_distribution


def as_pairs(observables):
    return [(o.kind, o.qubit) for o in observables]


# ---------------------------------------------------------------------------
# states
# ---------------------------------------------------------------------------


def test_psi_amplitudes():
    psi = make_psi()
    assert psi.amplitude("0000") == pytest.approx(0.5)
    assert psi.amplitude("0101") == pytest.approx(0.5)
    assert psi.amplitude("1010") == pytest.approx(0.5)
    assert psi.amplitude("1111") == pytest.approx(-0.5)
    assert psi.amplitude("0001") == 0
    assert np.linalg.norm(psi.amplitudes) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("bits", ["000", "00000", "0a01", "0 01"])
def test_an_amplitude_needs_one_bit_per_qubit(bits):
    with pytest.raises(ValueError, match=f"bad basis label {bits!r}"):
        make_psi().amplitude(bits)


def test_ghz_amplitudes():
    ghz = make_ghz(4)
    assert ghz.amplitude("0000") == pytest.approx(1 / math.sqrt(2))
    assert ghz.amplitude("1111") == pytest.approx(1 / math.sqrt(2))
    assert ghz.amplitude("0101") == 0
    assert np.linalg.norm(make_ghz(2).amplitudes) == pytest.approx(1.0, abs=1e-12)


def test_ghz_rejects_single_qubit():
    with pytest.raises(ValueError):
        make_ghz(1)


def test_statevector_validation():
    with pytest.raises(ValueError):
        Statevector(2, np.array([1.0, 0.0], dtype=complex))  # wrong length
    with pytest.raises(ValueError):
        Statevector(1, np.array([1.0, 1.0], dtype=complex))  # not normalized
    sv = Statevector(2, np.array([1, 0, 0, 0], dtype=complex))
    assert not sv.amplitudes.flags.writeable


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy notes the non-finite values
@pytest.mark.parametrize(
    "bad", [np.nan, np.inf, -np.inf, complex(np.nan, 0), complex(0, np.inf)],
    ids=["nan", "inf", "-inf", "complex-nan", "imaginary-inf"],
)
def test_non_finite_amplitudes_are_rejected(bad):
    # NaN compares false with every tolerance, so it must fail the check
    with pytest.raises(ValueError, match="not normalized"):
        Statevector(2, np.array([bad, 0, 0, 0], dtype=complex))
    # past a bypassed construction, the total-probability checks catch it
    state = make_psi()
    amps = state.amplitudes.copy()
    amps[0] = bad
    object.__setattr__(state, "amplitudes", amps)
    with pytest.raises(ValueError, match="sum to"):
        joint_distribution(state, sites("x1 x2 y3 y4"))
    with pytest.raises(ValueError):  # numpy's LinAlgError is a ValueError
        reduced_spectrum(state, {1, 2})


def test_site_parsing():
    assert site("x1") == SiteObservable(1, "x") == (1, "x")
    assert str(site("z4")) == "z4"
    assert sites("x1 y3") == (site("x1"), site("y3"))
    with pytest.raises(ValueError):
        site("w2")
    with pytest.raises(ValueError):
        site("x0")
    # str.isdigit holds for both; int() refuses the first and reads the second as 1
    for text in ("x²", "x١"):
        with pytest.raises(ValueError, match="cannot parse site observable"):
            site(text)


@pytest.mark.parametrize(
    "bad, error",
    [(SiteObservable(0, "x"), "outside 1..4"), (SiteObservable(1, "w"), "unknown observable kind")],
    ids=["qubit-0", "kind-w"],
)
def test_joint_distribution_rejects_a_bad_observable(bad, error):
    # qubit 0 would otherwise read axis -1, the last qubit
    with pytest.raises(ValueError, match=error):
        joint_distribution(make_psi(), [bad])


# ---------------------------------------------------------------------------
# basis changes
# ---------------------------------------------------------------------------

PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


@pytest.mark.parametrize("kind", sorted(PAULI))
def test_basis_changes_diagonalize_the_paulis(kind):
    assert sorted(quantum._BASIS_CHANGES) == sorted(PAULI)
    u = quantum._BASIS_CHANGES[kind]
    assert np.allclose(u @ u.conj().T, np.eye(2), atol=1e-12)
    # the +1 eigenvector goes to |0>, the -1 eigenvector to |1>
    assert np.allclose(u @ PAULI[kind] @ u.conj().T, np.diag([1, -1]), atol=1e-12)


# ---------------------------------------------------------------------------
# joint_distribution
# ---------------------------------------------------------------------------


def test_x_on_basis_state_is_uniform():
    dist = joint_distribution(Statevector(1, np.array([1, 0], dtype=complex)), [site("x1")])
    assert dist[(+1,)] == pytest.approx(0.5)
    assert dist[(-1,)] == pytest.approx(0.5)


def test_z1_z3_perfectly_correlated_on_psi():
    dist = joint_distribution(make_psi(), sites("z1 z3"))
    assert dist[(+1, -1)] == pytest.approx(0.0, abs=1e-12)
    assert dist[(-1, +1)] == pytest.approx(0.0, abs=1e-12)
    assert dist[(+1, +1)] == pytest.approx(0.5)
    assert dist[(-1, -1)] == pytest.approx(0.5)


def test_xxyy_distribution_uniform_over_even_products():
    # Derived with the independent projector oracle: the eight tuples with
    # x1*x2 = y3*y4 each carry probability 1/8, the rest zero.
    observables = sites("x1 x2 y3 y4")
    dist = joint_distribution(make_psi(), observables)
    oracle = kron_projector_distribution(make_psi().amplitudes, as_pairs(observables))
    for values, p in dist.items():
        assert p == pytest.approx(oracle[values], abs=1e-12)
        prod = values[0] * values[1] * values[2] * values[3]
        assert p == pytest.approx(0.125 if prod == +1 else 0.0, abs=1e-12)


@pytest.mark.parametrize(
    "text",
    ["z1", "x2 y3", "y1 x2 z4", "x1 x2 x3 x4", "y1 y2 y3 y4", "z2 x3", "x1 z3 y4"],
)
def test_distribution_matches_projector_oracle(text):
    observables = sites(text)
    dist = joint_distribution(make_psi(), observables)
    oracle = kron_projector_distribution(make_psi().amplitudes, as_pairs(observables))
    for values in dist:
        assert dist[values] == pytest.approx(oracle[values], abs=1e-12)


def test_observable_order_is_respected():
    # z3 first, z1 second must transpose the key tuples, not the values
    fwd = joint_distribution(make_psi(), sites("z1 z3"))
    rev = joint_distribution(make_psi(), sites("z3 z1"))
    for (a, b), p in fwd.items():
        assert rev[(b, a)] == pytest.approx(p, abs=1e-12)


@pytest.mark.parametrize("name", sorted(trials.CATALOG))
def test_contexts_measured_together_are_measured_alone(name):
    # one batched pass over the game's contexts, bit for bit the per-context
    # distributions, and the ones the quantum dealer and quantum_reference use
    game = games.game_by_name(name)
    state = trials.quantum_strategy(game).state
    observables = [game.measured_observables(ctx) for ctx in game.contexts]
    alone = [joint_distribution(state, obs) for obs in observables]
    together = joint_distributions(state, observables)
    assert [list(d.items()) for d in together] == [list(d.items()) for d in alone]
    reference = trials.quantum_reference(game)
    assert list(reference) == [ctx.id for ctx in game.contexts]
    assert [list(d.items()) for d in reference.values()] == [list(d.items()) for d in alone]


def test_a_z_or_unmeasured_qubit_is_read_without_round_off():
    # neither goes through a basis change: |+-1/2|**2 = 1/4 is exact, and so
    # are the sums over qubits 1 and 3; the x4 context beside them changes nothing
    dist, _ = joint_distributions(make_psi(), [sites("z2 z4"), sites("x4")])
    assert dist == {(+1, +1): 0.5, (+1, -1): 0.0, (-1, +1): 0.0, (-1, -1): 0.5}


def test_contexts_measured_together_are_checked_as_alone():
    with pytest.raises(ValueError, match="need at least one context"):
        joint_distributions(make_psi(), [])
    for bad, error in [
        ([], "need at least one observable"),
        (sites("x1 z1"), "duplicate qubit"),
        ([SiteObservable(0, "x")], "outside 1..4"),
        ([SiteObservable(1, "w")], "unknown observable kind"),
    ]:
        with pytest.raises(ValueError, match=error):
            joint_distributions(make_psi(), [sites("z1 z3"), bad])


def test_a_state_needs_a_qubit():
    with pytest.raises(ValueError, match="need at least one qubit"):
        Statevector(0, np.ones(1))


def test_a_distribution_needs_an_observable():
    with pytest.raises(ValueError, match="need at least one observable"):
        joint_distribution(make_psi(), [])


def test_duplicate_qubit_rejected():
    with pytest.raises(ValueError):
        joint_distribution(make_psi(), sites("x1 z1"))


def test_qubit_out_of_range_rejected():
    with pytest.raises(ValueError):
        joint_distribution(make_ghz(2), sites("z3"))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 5),
    data=st.data(),
)
def test_distribution_properties_random_states(seed, n, data):
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    state = Statevector(n, raw / np.linalg.norm(raw))
    qubits = data.draw(
        st.lists(st.integers(1, n), min_size=1, max_size=n, unique=True)
    )
    kinds = data.draw(
        st.lists(st.sampled_from("xyz"), min_size=len(qubits), max_size=len(qubits))
    )
    observables = [SiteObservable(q, k) for q, k in zip(qubits, kinds)]
    dist = joint_distribution(state, observables)
    assert all(p >= 0 for p in dist.values())
    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)
    # marginalizing the joint equals measuring the subset directly
    sub = observables[: max(1, len(observables) - 1)]
    sub_dist = joint_distribution(state, sub)
    marginal = {}
    for values, p in dist.items():
        key = values[: len(sub)]
        marginal[key] = marginal.get(key, 0.0) + p
    for key, p in sub_dist.items():
        assert marginal.get(key, 0.0) == pytest.approx(p, abs=1e-10)


# ---------------------------------------------------------------------------
# expectation
# ---------------------------------------------------------------------------


def test_expectations_from_the_equalities():
    psi = make_psi()
    assert expectation(psi, sites("z1 z3")) == pytest.approx(1.0)
    assert expectation(psi, sites("y1 y3 z4")) == pytest.approx(-1.0)
    assert expectation(make_ghz(4), sites("z1 z2")) == pytest.approx(1.0)
    assert expectation(psi, sites("x1")) == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def test_sampling_frequencies_converge():
    # 1e5 draws from the (x1, x2) distribution: empirical TV below 0.02
    # and the x1 marginal lands in [0.47, 0.53].
    psi = make_psi()
    dist = joint_distribution(psi, sites("x1 x2"))
    rng = np.random.default_rng(7)
    counts = {}
    draws = 100_000
    for u in rng.random(draws):
        values = draw_from(dist, float(u))
        counts[values] = counts.get(values, 0) + 1
    tv = 0.5 * sum(
        abs(counts.get(k, 0) / draws - p) for k, p in dist.items()
    )
    assert tv < 0.02
    plus = sum(c for (x1, _), c in counts.items() if x1 == +1) / draws
    assert 0.47 <= plus <= 0.53


def test_marginal_uniformity_on_psi():
    psi = make_psi()
    for qubit in range(1, 5):
        for kind in "xyz":
            dist = joint_distribution(psi, [SiteObservable(qubit, kind)])
            assert dist[(+1,)] == pytest.approx(0.5, abs=1e-9)
            assert dist[(-1,)] == pytest.approx(0.5, abs=1e-9)


# ---------------------------------------------------------------------------
# reduced spectra
# ---------------------------------------------------------------------------


def test_reduced_spectra_frozen_values():
    psi = make_psi()
    assert reduced_spectrum(psi, {1}) == pytest.approx([0.5, 0.5], abs=1e-9)
    assert reduced_spectrum(psi, {1, 2}) == pytest.approx([0.25] * 4, abs=1e-9)
    assert reduced_spectrum(make_ghz(4), {1, 2}) == pytest.approx(
        [0.5, 0.5, 0.0, 0.0], abs=1e-9
    )


def test_reduced_spectrum_vs_dense_partial_trace():
    psi = make_psi()
    for keep in ({1}, {2}, {3, 4}, {1, 3}, {2, 3, 4}):
        spec = reduced_spectrum(psi, keep)
        # oracle: build the full density matrix and trace out index pairs
        rho = np.outer(psi.amplitudes, psi.amplitudes.conj()).reshape([2] * 8)
        for qubit in sorted(set(range(1, 5)) - keep, reverse=True):
            ax = qubit - 1
            rho = np.trace(rho, axis1=ax, axis2=ax + rho.ndim // 2)
        k = len(keep)
        dense = rho.reshape(2**k, 2**k)
        oracle = sorted(np.linalg.eigvalsh(dense).real, reverse=True)
        assert spec == pytest.approx(oracle, abs=1e-10)
        assert sum(spec) == pytest.approx(1.0, abs=1e-9)


def test_reduced_spectrum_rejects_bad_subsets():
    psi = make_psi()
    with pytest.raises(ValueError):
        reduced_spectrum(psi, set())
    with pytest.raises(ValueError):
        reduced_spectrum(psi, {1, 2, 3, 4})
    with pytest.raises(ValueError):
        reduced_spectrum(psi, {5})


# ---------------------------------------------------------------------------
# verify_constraints
# ---------------------------------------------------------------------------


def test_all_fourteen_hold_surely_on_psi():
    reports = verify_constraints(make_psi(), games.fourteen_equalities())
    assert len(reports) == 14
    for report in reports:
        assert report.holds_surely
        assert report.violation_mass < 1e-9


def test_constraints_are_reported_as_measured_one_by_one():
    psi = make_psi()
    constraints = [*games.fourteen_equalities(), games.parse_constraint_line("-1 x1 x2 y3 y4")]
    reports = verify_constraints(psi, iter(constraints))
    assert reports == [verify_constraints(psi, [c])[0] for c in constraints]
    for report, constraint in zip(reports, constraints):
        observables = sorted(constraint.vars)
        dist = joint_distribution(psi, observables)
        mass = 0.0
        for values, p in dist.items():
            if not constraint.holds(dict(zip(observables, values))):
                mass += p
        assert report.violation_mass == mass
    assert verify_constraints(psi, []) == []


def test_negated_equality_fails_with_full_mass():
    flipped = games.parse_constraint_line("-1 x1 x2 y3 y4")
    (report,) = verify_constraints(make_psi(), [flipped])
    assert not report.holds_surely
    assert report.violation_mass == pytest.approx(1.0)


def test_ghz_parity_constraint():
    constraint = games.parse_constraint_line("+1 z1 z2 z3 z4")
    (report,) = verify_constraints(make_ghz(4), [constraint])
    assert report.holds_surely


def test_malformed_constraint_rejected():
    bad = games.ParityConstraint(frozenset(sites("x1 z1")), +1)
    with pytest.raises(ValueError):
        verify_constraints(make_psi(), [bad])


def test_slightly_unnormalized_state_is_usable_throughout():
    # within the Statevector norm tolerance, so every routine must accept it
    amps = make_psi().amplitudes * (1 + 4e-10)
    state = Statevector(4, amps)
    dist = joint_distribution(state, sites("x1 x2 y3 y4"))
    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-8)
    assert reduced_spectrum(state, {1, 2}) == pytest.approx([0.25] * 4)
