import tracemalloc

import numpy as np
import pytest

from conftest import brute_trace
from rmoments import symgroup as sg
from rmoments.linalg import nullspace
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


#: the 14 permutations whose coefficients the t=4 reduced gauge leaves free
REDUCED_SUPPORT_T4 = (
    "()", "(12)", "(13)", "(14)", "(23)", "(24)", "(34)",
    "(123)", "(1234)", "(1243)", "(1324)", "(1342)", "(1423)", "(1432)",
)


def test_reduced_support_is_canonical_filter():
    # the 14 permutations surviving the t=4 gauge appear in canonical order,
    # and they are exactly those that the gauge does not zero
    from rmoments.twirl import GAUGE_ZEROS

    names = [p.cycle_string() for p in sg.enumerate_group(4)]
    filtered = [n for n in names if n in REDUCED_SUPPORT_T4]
    assert filtered == list(REDUCED_SUPPORT_T4)
    assert sorted(REDUCED_SUPPORT_T4 + GAUGE_ZEROS[4]) == sorted(names)


def test_cycle_index_follows_group_order():
    for t in range(1, sg.MAX_MOMENT + 1):
        index = sg.cycle_index(t)
        assert list(index) == [p.cycle_string() for p in sg.enumerate_group(t)]
        assert list(index.values()) == list(range(len(sg.enumerate_group(t))))
        assert sg.cycle_index(t) is index
        with pytest.raises(TypeError):
            index["()"] = 1


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


def test_v_matrix_trace_examples():
    # tr(A x B x C V_(12)) = tr(AB) tr(C)
    ident3 = [np.eye(2)] * 3
    assert brute_trace(ident3, from_cycles("(12)", 3)) == pytest.approx(4.0)
    mats = [PAULIS[1], PAULIS[1], PAULIS[3]]
    assert brute_trace(mats, from_cycles("(12)", 3)) == pytest.approx(0.0)


def test_v_matrix_trace_is_cycle_product(rng):
    # the dense trace factorizes over the cycles of p, each cycle's factors
    # multiplied in cycle order from its smallest point
    for t in (2, 3, 4):
        mats = [
            rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            for _ in range(t)
        ]
        for p in sg.enumerate_group(t):
            want = 1.0 + 0.0j
            for cyc in p.cycles():
                prod = np.eye(2)
                for i in cyc:
                    prod = prod @ mats[i]
                want *= np.trace(prod)
            assert brute_trace(mats, p) == pytest.approx(want, abs=1e-12)


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


def test_gram_entries_hold_powers_of_two_at_the_type_boundary():
    # d^t = 2^7, 2^15, 2^31 fit -d^t but not +d^t in the type of -d^t
    assert np.array_equal(sg.gram_matrix(1, 128), [[128]])
    assert sg.gram_matrix(1, 128).dtype == np.int16
    assert sg.gram_matrix(3, 32)[0, 0] == 32768
    assert sg.gram_matrix(3, 32).dtype == np.int32
    assert sg.gram_matrix(1, 2**31)[0, 0] == 2**31


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


def pointer_chasing_gram_block(rows, cols, d):
    """Reference kernel: each composition's points labelled with the
    smallest point of their cycle by pointer-chasing, cycles counted as the
    points that are their own label."""
    left = np.array([p.images for p in rows], dtype=np.intp)
    right = np.array([p.images for p in cols], dtype=np.intp)
    t = left.shape[1]
    points = np.arange(t)
    out = np.empty((len(left), len(right)), dtype=np.min_scalar_type(-d ** t))
    for start in range(0, len(left), 64):
        comp = np.take(left[start:start + 64], right, axis=1)
        label = np.broadcast_to(points, comp.shape)
        for _ in range(t - 1):
            label = np.minimum(label, np.take_along_axis(label, comp, axis=-1))
        out[start:start + len(comp)] = d ** np.sum(label == points, axis=-1)
    return out


def assert_same_block(rows, cols, d):
    got, want = sg.gram_block(rows, cols, d), pointer_chasing_gram_block(rows, cols, d)
    assert got.dtype == want.dtype and np.array_equal(got, want)


def test_gram_block_matches_pointer_chasing():
    for t in range(1, 7):
        perms = sg.enumerate_group(t)
        for d in (2, 3):
            assert_same_block(perms, perms, d)
        assert_same_block(sg.commutant_basis(t), perms, 2)
    perms = sg.enumerate_group(6)
    rng = np.random.default_rng(18)
    cols = [perms[i] for i in rng.choice(len(perms), 40, replace=False)]
    for size in (1, 63, 65, 200):
        rows = [perms[i] for i in rng.integers(0, len(perms), size)]
        assert_same_block(rows, cols, 2)
    assert_same_block(sg.enumerate_group(2), sg.enumerate_group(2), 200)


def test_cold_gram_block_memory():
    # the lookup kernel never holds a (rows, cols, t) composition array: it
    # peaks near 2 MB, the pointer-chasing kernel at 9.0 MB in row blocks and
    # the whole S_6 x S_6 x 6 composition array is 25 MB
    perms = sg.enumerate_group(6)
    sg._cycle_counts.cache_clear()
    tracemalloc.start()
    try:
        sg.gram_block(perms, perms, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.5 * 2**20


def longest_decreasing(images):
    best = []
    for i, v in enumerate(images):
        best.append(1 + max((best[j] for j in range(i) if images[j] > v), default=0))
    return max(best, default=0)


def test_commutant_basis_bounds_decreasing_subsequences():
    for t in range(1, 7):
        for d in (1, 2, 3, 7):
            want = [p for p in sg.enumerate_group(t) if longest_decreasing(p.images) <= d]
            assert list(sg.commutant_basis(t, d)) == want


def test_kernel_dimensions_and_vectors():
    k3 = nullspace(sg.gram_matrix(3, 2))
    assert k3.shape[1] == 1
    v = k3[:, 0] / k3[0, 0]
    np.testing.assert_allclose(v, [1, -1, -1, -1, 1, 1], atol=1e-9)
    assert nullspace(sg.gram_matrix(4, 2)).shape[1] == 10
    assert nullspace(sg.gram_matrix(3, 3)).shape[1] == 0


def test_kernel_vectors_are_operator_identities():
    for t in (3, 4):
        kernel = nullspace(sg.gram_matrix(t, 2))
        perms = sg.enumerate_group(t)
        for col in range(kernel.shape[1]):
            op = sum(kernel[i, col] * sg.v_matrix(p, 2) for i, p in enumerate(perms))
            assert np.max(np.abs(op)) <= 1e-9
