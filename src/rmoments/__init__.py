"""Randomized-measurement moments and local-unitary invariants for qubits.

Exact Haar-moment evaluation by permutation-operator calculus, Monte Carlo
and finite-shot protocol simulation, Makhlin/Kempe invariants, observable
classification by tensor rank, and a numerical verification suite.
"""

from .haar_mc import MCEstimate, haar_su2, mc_moment
from .invariants import (
    KempeRecord,
    MakhlinRecord,
    hodge_via_star,
    kempe,
    makhlin,
    makhlin_continuous,
)
from .observables import (
    SchmidtObservable,
    TripartiteObservable,
    det_prefactor,
    hodge_observable,
    pauli_sum_observable,
    schmidt_decompose,
    traceless_projection,
)
from .protocol_sim import (
    ProtocolConfig,
    RecoveryReport,
    recover_all,
    recover_invariant,
    recover_kempe,
    simulate_moment,
)
from .states import (
    ThreeQubitState,
    TwoQubitState,
    bell_state,
    bloch_from_density,
    density_from_bloch,
    ghz_state,
    maximally_mixed,
    negativity,
    partial_transpose_bloch,
    random_state,
)
from .symgroup import Permutation, enumerate_group, gram_matrix, v_matrix
from .twirl import (
    MomentDecomposition,
    TwirlCoefficients,
    decompose,
    exact_moment,
    odd_fit,
    odd_part,
    solve_factor_coefficients,
    twirl_coefficients,
)
from .verify import run_suite

__version__ = "0.1.0"

__all__ = [
    "MCEstimate", "haar_su2", "mc_moment",
    "KempeRecord", "MakhlinRecord", "hodge_via_star", "kempe", "makhlin",
    "makhlin_continuous",
    "SchmidtObservable", "TripartiteObservable", "det_prefactor",
    "hodge_observable", "pauli_sum_observable", "schmidt_decompose",
    "traceless_projection",
    "ProtocolConfig", "RecoveryReport", "recover_all", "recover_invariant",
    "recover_kempe", "simulate_moment",
    "ThreeQubitState", "TwoQubitState", "bell_state", "bloch_from_density",
    "density_from_bloch", "ghz_state", "maximally_mixed", "negativity",
    "partial_transpose_bloch", "random_state",
    "Permutation", "enumerate_group", "gram_matrix", "v_matrix",
    "MomentDecomposition", "TwirlCoefficients", "decompose", "exact_moment",
    "odd_fit", "odd_part", "solve_factor_coefficients", "twirl_coefficients",
    "run_suite",
]
