"""Exact statevector simulation of local X/Y/Z measurements on a few qubits.

Conventions used throughout the package:

* qubit 1 is the leftmost tensor factor, i.e. the most significant bit of
  the computational-basis index,
* every single-qubit measurement has the two outcomes +1 and -1,
* for Z the +1 outcome is |0>; X and Y use the standard Pauli eigenbases,
* an observable is a ``games.SiteObservable``: a qubit and a kind letter
  ``"x"``, ``"y"`` or ``"z"``.

States are dense complex vectors. All probabilities arising from the
bundled games are dyadic rationals, so the 1e-9 "happens surely / never"
decision threshold is far away from every value that actually occurs.

``joint_distributions`` is the one path from a state to outcome
probabilities: it measures several contexts (lists of observables) in
one pass over a stack of copies of the state, one ``einsum`` per qubit
applying each context's basis change there (the identity for ``z`` and
for an unmeasured qubit, so those are read with no round-off), then
marginalizes each context on its own. ``joint_distribution`` is its
one-context case, and ``verify_constraints`` measures all its
constraints in one call.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .games import ParityConstraint, SiteObservable

#: probability threshold below which an event is treated as impossible
PROB_TOL = 1e-9
#: tolerance on a state's norm
NORM_TOL = 1e-9
#: tolerance on a total probability: the squared norm of any accepted state,
#: plus float roundoff
SUM_TOL = (2 + NORM_TOL) * NORM_TOL + 1e-12

_INV_SQRT2 = 1.0 / np.sqrt(2.0)


#: per kind letter, the unitary whose rows are the +1 and -1 eigenvectors
#: (conjugated): applying it maps the +1 eigenvector to |0> and the -1
#: eigenvector to |1>, turning a measurement of that kind into a
#: computational basis readout
_BASIS_CHANGES = {
    "x": np.array([[1, 1], [1, -1]], dtype=complex) * _INV_SQRT2,
    "y": np.array([[1, -1j], [1, 1j]], dtype=complex) * _INV_SQRT2,
    "z": np.eye(2, dtype=complex),
}


@dataclass(frozen=True)
class Statevector:
    """Normalized pure state on ``num_qubits`` qubits.

    ``amplitudes[i]`` is the coefficient of the basis state whose bits,
    read most significant first, give the qubit values in order 1..n.
    """

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        if self.num_qubits < 1:
            raise ValueError("need at least one qubit")
        amps = np.array(self.amplitudes, dtype=complex)
        if amps.shape != (2**self.num_qubits,):
            raise ValueError(
                f"expected {2**self.num_qubits} amplitudes, got shape {amps.shape}"
            )
        norm = float(np.linalg.norm(amps))
        if not abs(norm - 1.0) <= NORM_TOL:  # NaN fails too
            raise ValueError(f"state is not normalized (norm {norm!r})")
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    def amplitude(self, bits: str) -> complex:
        """Coefficient of a basis state given as a bit string like ``"0101"``."""
        if len(bits) != self.num_qubits or set(bits) - {"0", "1"}:
            raise ValueError(f"bad basis label {bits!r}")
        return complex(self.amplitudes[int(bits, 2)])


def make_psi() -> Statevector:
    """The four-qubit state behind every game in the catalog.

    Equal +1/2 amplitudes on |0000>, |0101>, |1010> and -1/2 on |1111>.
    It is the state obtained from two Bell pairs on qubit pairs (1,3) and
    (2,4) by applying CZ between qubits 1 and 2.
    """
    amps = np.zeros(16, dtype=complex)
    amps[0b0000] = 0.5
    amps[0b0101] = 0.5
    amps[0b1010] = 0.5
    amps[0b1111] = -0.5
    return Statevector(4, amps)


def make_ghz(num_qubits: int) -> Statevector:
    """(|0...0> + |1...1>)/sqrt(2) on ``num_qubits`` >= 2 qubits."""
    if num_qubits < 2:
        raise ValueError(f"GHZ state needs at least 2 qubits, got {num_qubits}")
    amps = np.zeros(2**num_qubits, dtype=complex)
    amps[0] = amps[-1] = _INV_SQRT2
    return Statevector(num_qubits, amps)


def _check_observables(
    state: Statevector, observables: Sequence[SiteObservable]
) -> None:
    if not observables:
        raise ValueError("need at least one observable")
    qubits = [o.qubit for o in observables]
    if len(set(qubits)) != len(qubits):
        raise ValueError(f"duplicate qubit in observables: {observables}")
    # qubit 0 would read axis -1, the last qubit
    out_of_range = [q for q in qubits if not 1 <= q <= state.num_qubits]
    if out_of_range:
        raise ValueError(f"qubit(s) {out_of_range} outside 1..{state.num_qubits}")
    unknown = [o for o in observables if o.kind not in _BASIS_CHANGES]
    if unknown:
        raise ValueError(f"unknown observable kind in {unknown}; kinds are x, y, z")


def joint_distribution(
    state: Statevector, observables: Sequence[SiteObservable]
) -> dict[tuple[int, ...], float]:
    """Joint outcome distribution of commuting single-qubit measurements.

    Returns a mapping from every tuple of +-1 values (ordered like
    ``observables``, +1 enumerated before -1) to its probability.
    Unmeasured qubits are marginalized. Probabilities sum to the squared
    norm of the state, which is 1 within ``SUM_TOL``.
    """
    return joint_distributions(state, [observables])[0]


def joint_distributions(
    state: Statevector, contexts: Sequence[Sequence[SiteObservable]]
) -> list[dict[tuple[int, ...], float]]:
    """``joint_distribution`` of each list of observables in ``contexts``,
    in order, computed together.

    The state is stacked once per context, and each qubit's basis changes
    (the identity where a context measures it in ``z`` or not at all) are
    applied to the whole stack in one ``einsum``; each context is then
    marginalized on its own. A bad observable in any context raises as
    ``joint_distribution`` does, before anything is computed.
    """
    if not contexts:
        raise ValueError("need at least one context")
    for observables in contexts:
        _check_observables(state, observables)
    n = state.num_qubits
    kinds = [{o.qubit: o.kind for o in observables} for observables in contexts]
    amps = np.broadcast_to(state.amplitudes.reshape([2] * n), (len(contexts),) + (2,) * n)
    # einsum axis labels: 0 the context, 1..n the qubits, n + 1 the summed one
    axes = list(range(n + 1))
    for q in range(1, n + 1):
        u = np.array([_BASIS_CHANGES[k.get(q, "z")] for k in kinds])
        summed = axes[:q] + [n + 1] + axes[q + 1 :]
        amps = np.einsum(u, [0, q, n + 1], amps, summed, axes)
    dists = []
    for observables, probs in zip(contexts, np.abs(amps) ** 2):
        measured_axes = [o.qubit - 1 for o in observables]
        unmeasured = tuple(ax for ax in range(n) if ax not in measured_axes)
        if unmeasured:
            probs = probs.sum(axis=unmeasured)
        # remaining axes are in qubit order; put them in observables order
        rank = np.argsort(np.argsort(measured_axes))
        probs = np.transpose(probs, rank)
        total = float(probs.sum())
        if not abs(total - 1.0) <= SUM_TOL:
            raise ValueError(f"probabilities sum to {total!r}, not 1")
        outcomes = itertools.product((+1, -1), repeat=len(observables))
        dists.append(dict(zip(outcomes, probs.ravel().tolist())))
    return dists


def expectation(state: Statevector, observables: Sequence[SiteObservable]) -> float:
    """Expected value of the product of the listed measurement outcomes."""
    dist = joint_distribution(state, observables)
    total = 0.0
    for values, p in dist.items():
        total += math.prod(values) * p
    return total


def reduced_spectrum(state: Statevector, keep: Iterable[int]) -> list[float]:
    """Eigenvalues of the reduced density operator on the kept qubits.

    ``keep`` must be a non-empty proper subset of the qubits. The result
    is sorted in descending order; it is invariant under local unitaries,
    which makes it a cheap witness for local-unitary inequivalence. It sums
    to the trace of the reduced operator, the state's squared norm, so to 1
    within ``SUM_TOL``.
    """
    keep_set = sorted(set(keep))
    n = state.num_qubits
    if not keep_set:
        raise ValueError("keep must not be empty")
    if any(q < 1 or q > n for q in keep_set):
        raise ValueError(f"kept qubits {keep_set} out of range 1..{n}")
    if len(keep_set) == n:
        raise ValueError("keep must be a proper subset of the qubits")
    axes = [q - 1 for q in keep_set]
    rest = [ax for ax in range(n) if ax not in axes]
    mat = np.transpose(state.amplitudes.reshape([2] * n), axes + rest)
    mat = mat.reshape(2 ** len(axes), -1)
    rho = mat @ mat.conj().T
    eigvals = np.linalg.eigvalsh(rho).real
    eigvals = np.clip(eigvals, 0.0, None)
    return sorted((float(v) for v in eigvals), reverse=True)


@dataclass(frozen=True)
class ConstraintReport:
    """Whether one parity constraint holds surely on a state."""

    constraint: ParityConstraint
    holds_surely: bool
    violation_mass: float


def verify_constraints(
    state: Statevector, constraints: Iterable[ParityConstraint]
) -> list[ConstraintReport]:
    """Check which parity constraints the state satisfies with certainty.

    For each constraint the listed observables are measured jointly and
    the probability mass on outcomes violating the required parity is
    reported; ``holds_surely`` means that mass is below 1e-9. All the
    constraints are measured by one ``joint_distributions`` call.
    """
    constraints = list(constraints)
    if not constraints:
        return []
    measured = [sorted(constraint.vars) for constraint in constraints]
    reports = []
    for constraint, observables, dist in zip(
        constraints, measured, joint_distributions(state, measured)
    ):
        mass = 0.0
        for values, p in dist.items():
            if not constraint.holds(dict(zip(observables, values))):
                mass += p
        reports.append(
            ConstraintReport(constraint, holds_surely=mass < PROB_TOL, violation_mass=mass)
        )
    return reports
