import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_trace
from rmoments import linalg
from rmoments import symgroup as sg
from rmoments import twirl
from rmoments.paulis import PAULIS
from rmoments.states import bell_state


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_kron_identity_cases():
    np.testing.assert_allclose(linalg.kron(np.eye(2), np.eye(2)), np.eye(4))
    zz = linalg.kron(PAULIS[3], PAULIS[3])
    np.testing.assert_allclose(zz, np.diag([1, -1, -1, 1]).astype(complex))


def test_kron_against_index_formula(rng):
    a = random_complex(rng, (2, 2))
    b = random_complex(rng, (2, 2))
    out = linalg.kron(a, b)
    # brute-force index oracle: out[i1*2+i2, j1*2+j2] = a[i1,j1] b[i2,j2]
    for i1 in range(2):
        for i2 in range(2):
            for j1 in range(2):
                for j2 in range(2):
                    assert out[i1 * 2 + i2, j1 * 2 + j2] == pytest.approx(
                        a[i1, j1] * b[i2, j2]
                    )


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_kron_associative(seed):
    rng = np.random.default_rng(seed)
    a, b, c = (random_complex(rng, (2, 2)) for _ in range(3))
    lhs = linalg.kron(linalg.kron(a, b), c)
    rhs = linalg.kron(a, linalg.kron(b, c))
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_partial_transpose_involution(rng):
    m = random_complex(rng, (4, 4))
    np.testing.assert_allclose(
        linalg.partial_transpose(linalg.partial_transpose(m, 2), 2), m
    )
    m8 = random_complex(rng, (8, 8))
    for sub in (1, 2, 3):
        np.testing.assert_allclose(
            linalg.partial_transpose(linalg.partial_transpose(m8, sub), sub), m8
        )


def test_partial_transpose_bell_spectrum():
    eigs = np.sort(linalg.eigvalsh(linalg.partial_transpose(bell_state(), 2)))
    np.testing.assert_allclose(eigs, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)


def test_partial_transpose_product_state(rng):
    a = random_complex(rng, (2, 2))
    rho_a = a @ a.conj().T
    rho_a /= np.trace(rho_a)
    b = random_complex(rng, (2, 2))
    rho_b = b @ b.conj().T
    rho_b /= np.trace(rho_b)
    pt = linalg.partial_transpose(linalg.kron(rho_a, rho_b), 2)
    np.testing.assert_allclose(pt, linalg.kron(rho_a, rho_b.T), atol=1e-14)
    assert np.min(linalg.eigvalsh(pt)) >= -1e-12


def test_partial_transpose_rejects_bad_dims():
    with pytest.raises(linalg.DimensionError):
        linalg.partial_transpose(np.eye(3), 1)
    with pytest.raises(linalg.DimensionError):
        linalg.partial_transpose(np.eye(4), 3)


def test_min_norm_solution_orthogonal_to_kernel(rng):
    g = sg.gram_matrix(3, 2).astype(float)
    kernel = linalg.nullspace(g)
    assert kernel.shape[1] == 1
    factors = [random_complex(rng, (2, 2)) for _ in range(3)]
    rhs = np.array([brute_trace(factors, p) for p in sg.enumerate_group(3)])
    x = twirl.solve_factor_coefficients(factors)
    assert np.max(np.abs(g @ x - rhs)) <= 1e-9
    # any kernel shift still solves; the min-norm one has no kernel component
    shifted = x + 0.7 * kernel[:, 0]
    assert np.max(np.abs(g @ shifted - rhs)) <= 1e-9
    assert abs(kernel[:, 0] @ x) <= 1e-10


def test_hermitian_eigs_trace_det(rng):
    for dim in (4, 8):
        m = random_complex(rng, (dim, dim))
        h = (m + m.conj().T) / 2
        eigs = linalg.eigvalsh(h)
        assert np.sum(eigs) == pytest.approx(np.trace(h).real, abs=1e-10)
        assert np.prod(eigs) == pytest.approx(np.linalg.det(h).real, abs=1e-10)


def test_svd_reconstruction(rng):
    m = random_complex(rng, (4, 4))
    u, s, vt = np.linalg.svd(m)
    assert np.max(np.abs((u * s) @ vt - m)) <= 1e-10


def test_is_hermitian(rng):
    h = random_complex(rng, (4, 4))
    h = (h + h.conj().T) / 2
    assert linalg.is_hermitian(h)
    assert not linalg.is_hermitian(h + 1e-6 * 1j * np.eye(4))
