import numpy as np
import pytest

from rmoments import symgroup as sg
from rmoments.linalg import kron_all
from rmoments.paulis import PAULIS


def compose(p, q):
    """p o q: ``q`` acts first."""
    return sg.Permutation(tuple(p.images[j] for j in q.images))


def from_cycles(notation: str, t: int):
    """Parse 1-based cycle notation like ``(123)`` or ``(12)(34)``.

    Only single-digit entries are supported, which covers t <= 6.
    """
    images = list(range(t))
    body = notation.replace(" ", "")
    if body in ("", "()"):
        return sg.Permutation(tuple(images))
    if not (body.startswith("(") and body.endswith(")")):
        raise ValueError(f"malformed cycle notation: {notation!r}")
    for cyc in body[1:-1].split(")("):
        entries = [int(ch) - 1 for ch in cyc]
        if any(not 0 <= e < t for e in entries):
            raise ValueError(f"entry out of range in {notation!r} for t={t}")
        for a, b in zip(entries, entries[1:] + entries[:1]):
            images[a] = b
    return sg.Permutation(tuple(images))


def test_canonical_order_t3():
    names = [p.cycle_string() for p in sg.enumerate_group(3)]
    assert names == ["()", "(12)", "(13)", "(23)", "(123)", "(132)"]


def test_group_sizes():
    assert len(sg.enumerate_group(4)) == 24
    assert len(sg.enumerate_group(5)) == 120
    with pytest.raises(ValueError):
        sg.enumerate_group(7)


def test_composition_convention():
    # (12) o (13) maps 1 -> 3 -> 3, i.e. applying (13) first
    p12 = from_cycles("(12)", 3)
    p13 = from_cycles("(13)", 3)
    assert compose(p12, p13).cycle_string() == "(132)"
    # brute-force one-line composition oracle
    for p in sg.enumerate_group(3):
        for q in sg.enumerate_group(3):
            images = tuple(p.images[q.images[i]] for i in range(3))
            assert compose(p, q).images == images


def test_cycle_roundtrip():
    for t in (3, 4):
        for p in sg.enumerate_group(t):
            rebuilt = [None] * t
            for cyc in p.cycles():
                for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                    rebuilt[a] = b
            assert tuple(rebuilt) == p.images
            assert from_cycles(p.cycle_string(), t) == p


def test_reduced_support_is_canonical_filter():
    # the 14 permutations surviving the t=4 gauge appear in canonical order
    from rmoments.twirl import REDUCED_SUPPORT_T4

    names = [p.cycle_string() for p in sg.enumerate_group(4)]
    filtered = [n for n in names if n in REDUCED_SUPPORT_T4]
    assert filtered == list(REDUCED_SUPPORT_T4)


def test_v_matrix_identity_and_swap():
    ident = sg.v_matrix(sg.identity(3), 2)
    np.testing.assert_allclose(ident, np.eye(8))
    swap = sg.v_matrix(from_cycles("(12)", 2), 2)
    expected = np.zeros((4, 4))
    expected[0, 0] = expected[3, 3] = expected[1, 2] = expected[2, 1] = 1
    np.testing.assert_allclose(swap, expected)


def test_v_matrix_trace_is_cycle_power():
    for p in sg.enumerate_group(4):
        assert np.trace(sg.v_matrix(p, 2)).real == pytest.approx(2 ** p.num_cycles())


def test_v_matrix_size_cap():
    with pytest.raises(ValueError):
        sg.v_matrix(sg.identity(7), 4)


def test_v_product_matches_composition():
    # pins the operator convention V_p V_q = V_{q o p}
    for t in (2, 3, 4):
        perms = sg.enumerate_group(t)
        for p in perms:
            for q in perms:
                lhs = sg.v_matrix(p, 2) @ sg.v_matrix(q, 2)
                rhs = sg.v_matrix(compose(q, p), 2)
                assert np.array_equal(lhs, rhs)


def test_trace_with_v_examples(rng):
    ident3 = [np.eye(2)] * 3
    assert sg.trace_with_v(ident3, from_cycles("(12)", 3)) == pytest.approx(4.0)
    mats = [PAULIS[1], PAULIS[1], PAULIS[3]]
    val = sg.trace_with_v(mats, from_cycles("(12)", 3))
    assert val == pytest.approx(0.0)
    brute = np.trace(kron_all(mats) @ sg.v_matrix(from_cycles("(12)", 3), 2))
    assert val == pytest.approx(brute)


def test_trace_with_v_brute_force(rng):
    for t in (2, 3, 4):
        mats = [
            rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            for _ in range(t)
        ]
        big = kron_all(mats)
        for p in sg.enumerate_group(t):
            brute = np.trace(big @ sg.v_matrix(p, 2))
            assert sg.trace_with_v(mats, p) == pytest.approx(brute, abs=1e-12)


def test_trace_with_v_dimension_mismatch():
    with pytest.raises(ValueError):
        sg.trace_with_v([np.eye(2), np.eye(3)], from_cycles("(12)", 2))


EXPECTED_GRAM_T3_D2 = np.array([
    [8, 4, 4, 4, 2, 2],
    [4, 8, 2, 2, 4, 4],
    [4, 2, 8, 2, 4, 4],
    [4, 2, 2, 8, 4, 4],
    [2, 4, 4, 4, 2, 8],
    [2, 4, 4, 4, 8, 2],
])


def test_gram_matrix_t3_d2_exact():
    assert np.array_equal(sg.gram_matrix(3, 2), EXPECTED_GRAM_T3_D2)


def test_gram_diagonal_involutions():
    g = sg.gram_matrix(3, 2)
    perms = sg.enumerate_group(3)
    for i, p in enumerate(perms):
        if compose(p, p) == sg.identity(3):
            assert g[i, i] == 8


def test_gram_d3_leading_entry():
    assert sg.gram_matrix(3, 3)[0, 0] == 27


def test_gram_entries_use_the_smallest_signed_type():
    assert sg.gram_matrix(6, 2).dtype == np.int8
    assert sg.gram_matrix(5, 3).dtype == np.int16
    assert sg.gram_block(sg.enumerate_group(2), sg.enumerate_group(2), 200).dtype == np.int32


def test_gram_matches_brute_force():
    for t in (2, 3, 4):
        perms = sg.enumerate_group(t)
        g = sg.gram_matrix(t, 2)
        for a, p in enumerate(perms):
            for b, q in enumerate(perms):
                brute = round(np.trace(sg.v_matrix(p, 2) @ sg.v_matrix(q, 2)).real)
                assert g[a, b] == brute


def test_gram_matches_cycle_count_loop():
    # the vectorised cycle count against Permutation.num_cycles
    for d in (2, 3):
        for t in range(1, 6):
            perms = sg.enumerate_group(t)
            loop = np.array([[d ** compose(p, q).num_cycles() for q in perms] for p in perms])
            assert np.array_equal(sg.gram_matrix(t, d), loop)
    perms = sg.enumerate_group(6)
    g = sg.gram_matrix(6, 2)
    rng = np.random.default_rng(6)
    for a, b in rng.integers(0, len(perms), (2000, 2)):
        assert g[a, b] == 2 ** compose(perms[a], perms[b]).num_cycles()
    rows = [perms[i] for i in rng.integers(0, len(perms), 70)]
    assert np.array_equal(sg.gram_block(rows, perms[:5], 2),
                          [[2 ** compose(p, q).num_cycles() for q in perms[:5]] for p in rows])


def test_kernel_dimensions_and_vectors():
    k3 = sg.kernel_basis(sg.gram_matrix(3, 2))
    assert k3.shape[1] == 1
    v = k3[:, 0] / k3[0, 0]
    np.testing.assert_allclose(v, [1, -1, -1, -1, 1, 1], atol=1e-9)
    assert sg.kernel_basis(sg.gram_matrix(4, 2)).shape[1] == 10
    assert sg.kernel_basis(sg.gram_matrix(3, 3)).shape[1] == 0


def test_kernel_vectors_are_operator_identities():
    for t in (3, 4):
        kernel = sg.kernel_basis(sg.gram_matrix(t, 2))
        perms = sg.enumerate_group(t)
        for col in range(kernel.shape[1]):
            op = sum(kernel[i, col] * sg.v_matrix(p, 2) for i, p in enumerate(perms))
            assert np.max(np.abs(op)) <= 1e-9
