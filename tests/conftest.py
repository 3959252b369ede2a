import numpy as np
import pytest

from rmoments import symgroup as sg
from rmoments.linalg import kron_all
from rmoments.states import bell_state, bloch_from_density, ghz_state


def _matrix_to_json(m) -> list:
    return [[[z.real, z.imag] for z in row] for row in np.asarray(m, dtype=complex)]


def observable_to_json(terms, weights=None) -> dict:
    """Serialize a list of product terms (each a list of 2x2 factors) in the
    term-list format that ``observables.observable_from_json`` reads."""
    weights = [1.0] * len(terms) if weights is None else list(weights)
    return {
        "terms": [
            {"weight": float(w), "factors": [_matrix_to_json(f) for f in term]}
            for w, term in zip(weights, terms)
        ]
    }


def brute_trace(factors, p) -> complex:
    """tr(F_1 x ... x F_t V_p) for 2x2 factors, from the dense operators:
    the reference for the engine's cycle-product traces."""
    return complex(np.trace(kron_all(factors) @ sg.v_matrix(p, 2)))


@pytest.fixture
def rng():
    return np.random.default_rng(20240)


@pytest.fixture
def bell_record():
    return bloch_from_density(bell_state())


@pytest.fixture
def ghz_record():
    return bloch_from_density(ghz_state())
