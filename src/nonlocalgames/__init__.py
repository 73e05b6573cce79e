"""Nonlocal games toolkit.

Exact statevector statistics for local X/Y/Z measurements, a catalog of
parity games on a four-qubit entangled state, exact classical-value
solvers over local hidden variable strategies, and a trial harness with
both an in-process and a distributed (one process per player) referee.
The namespace holds what the demos use; import the rest from its submodule.
"""

from .classical import (
    automaton_model,
    classical_value,
    lambda_mu_model,
    model_distribution,
    noncontextual_maxsat,
    noncontextual_value,
    win_probability,
)
from .games import (
    cabello_restricted,
    contradiction_subset,
    four_party_game,
    fourteen_equalities,
    sites,
)
from .netplay import run_local_session
from .quantum import (
    expectation,
    joint_distribution,
    make_ghz,
    make_psi,
    reduced_spectrum,
    verify_constraints,
)
from .trials import nested_subgame_report, quantum_strategy, run_trials, tv_distance

__version__ = "0.1.0"

__all__ = [
    "automaton_model",
    "cabello_restricted",
    "classical_value",
    "contradiction_subset",
    "expectation",
    "four_party_game",
    "fourteen_equalities",
    "joint_distribution",
    "lambda_mu_model",
    "make_ghz",
    "make_psi",
    "model_distribution",
    "nested_subgame_report",
    "noncontextual_maxsat",
    "noncontextual_value",
    "quantum_strategy",
    "reduced_spectrum",
    "run_local_session",
    "run_trials",
    "sites",
    "tv_distance",
    "verify_constraints",
    "win_probability",
]
