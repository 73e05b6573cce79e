"""Exact quantum statistics of the four-qubit state.

Builds the state, checks that all fourteen parity equalities hold with
certainty, shows that every single-qubit outcome is nevertheless
completely random, and compares reduced spectra against the four-qubit
GHZ state (they differ, so no local unitaries map one to the other).
"""

from nonlocalgames.games import SiteObservable, fourteen_equalities, sites
from nonlocalgames.quantum import (
    expectation,
    joint_distribution,
    make_ghz,
    make_psi,
    reduced_spectrum,
    verify_constraints,
)

psi = make_psi()

print("state amplitudes (nonzero):")
for bits in ("0000", "0101", "1010", "1111"):
    print(f"  |{bits}>  {psi.amplitude(bits).real:+.2f}")

print("\nthe fourteen parity equalities, verified exactly:")
for index, report in enumerate(verify_constraints(psi, fourteen_equalities()), 1):
    mark = "holds surely" if report.holds_surely else "VIOLATED"
    print(f"  eq{index:02d}  {report.constraint.text():<22} {mark}")

print("\nyet every individual measurement is a fair coin:")
for qubit in range(1, 5):
    row = []
    for kind in "xyz":
        dist = joint_distribution(psi, [SiteObservable(qubit, kind)])
        row.append(f"{kind}{qubit}: P(+1)={dist[(+1,)]:.2f}")
    print("  " + "   ".join(row))

print("\na joint measurement showing one equality at work (x1 x2 y3 y4):")
dist = joint_distribution(psi, sites("x1 x2 y3 y4"))
for values, p in dist.items():
    if p > 1e-12:
        pretty = " ".join(f"{v:+d}" for v in values)
        print(f"  ({pretty})  p={p:.4f}")
print("  every tuple satisfies x1*x2 = y3*y4, all equally likely")
print(f"  <x1*x2*y3*y4> = {expectation(psi, sites('x1 x2 y3 y4')):+.1f}")

print("\nreduced spectra on qubits {1,2} (a local-unitary invariant):")
print(f"  four-qubit state: {reduced_spectrum(psi, {1, 2})}")
print(f"  GHZ(4):           {reduced_spectrum(make_ghz(4), {1, 2})}")
print("  different spectra => not related by local unitaries")
