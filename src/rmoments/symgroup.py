"""Symmetric-group combinatorics and permutation operators.

Conventions pinned here and relied on everywhere else:

* a permutation is stored in one-line notation as a tuple ``images`` with
  0-based entries, ``pi(i) = images[i]``;
* composition is ``(pi o rho)(i) = pi(rho(i))``, i.e. ``rho`` acts first;
* the permutation operator acts as
  ``V_pi |j_1 ... j_t> = |j_{pi(1)} ... j_{pi(t)}>``, which gives the
  operator identity ``V_pi V_rho = V_{rho o pi}``;
* the canonical group order lists cycle types from short to long supports
  (identity, transpositions, double transpositions, 3-cycles, 4-cycles, ...)
  and sorts within a type lexicographically by cycle notation.  For t = 3
  this is exactly ``(), (12), (13), (23), (123), (132)``.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations as _iter_combinations
from itertools import permutations as _iter_permutations
from types import MappingProxyType

import numpy as np

MAX_MOMENT = 6
V_MATRIX_SIZE_CAP = 4096


@dataclass(frozen=True)
class Permutation:
    """Element of S_t in one-line notation (0-based images)."""

    images: tuple

    def __post_init__(self):
        if sorted(self.images) != list(range(len(self.images))):
            raise ValueError(f"not a permutation of 0..{len(self.images) - 1}: {self.images}")

    @property
    def size(self) -> int:
        return len(self.images)

    def inverse(self) -> "Permutation":
        inv = [0] * self.size
        for i, j in enumerate(self.images):
            inv[j] = i
        return Permutation(tuple(inv))

    def cycles(self) -> tuple:
        """Cycle decomposition including fixed points, each cycle starting
        at its smallest element, cycles sorted by starting element."""
        seen = [False] * self.size
        out = []
        for start in range(self.size):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            j = self.images[start]
            while j != start:
                cyc.append(j)
                seen[j] = True
                j = self.images[j]
            out.append(tuple(cyc))
        return tuple(out)

    def num_cycles(self) -> int:
        """Number of cycles including fixed points."""
        return len(self.cycles())

    def cycle_string(self) -> str:
        """1-based cycle notation, e.g. ``(12)(34)``; identity is ``()``."""
        parts = [
            "(" + "".join(str(i + 1) for i in c) + ")"
            for c in self.cycles()
            if len(c) > 1
        ]
        return "".join(parts) if parts else "()"


def identity(t: int) -> Permutation:
    return Permutation(tuple(range(t)))


def _canonical_key(p: Permutation):
    lengths = tuple(sorted(len(c) for c in p.cycles() if len(c) > 1))
    flat = tuple(
        i for c in sorted((c for c in p.cycles() if len(c) > 1)) for i in c
    )
    return (lengths, flat)


@lru_cache(maxsize=None)
def enumerate_group(t: int) -> tuple:
    """All of S_t in the canonical deterministic order (t <= 6)."""
    if not 1 <= t <= MAX_MOMENT:
        raise ValueError(f"moment order t={t} outside supported range 1..{MAX_MOMENT}")
    elems = [Permutation(img) for img in _iter_permutations(range(t))]
    return tuple(sorted(elems, key=_canonical_key))


@lru_cache(maxsize=None)
def cycle_index(t: int) -> MappingProxyType:
    """Read-only map from cycle notation to position in ``enumerate_group(t)``."""
    return MappingProxyType({p.cycle_string(): i for i, p in enumerate(enumerate_group(t))})


@lru_cache(maxsize=None)
def commutant_basis(t: int, d: int = 2) -> tuple:
    """Permutations with no decreasing subsequence longer than d, in the
    canonical order.

    By RSK their number is the dimension of span{V_pi} on (C^d)^xt, and
    their Gram block is nonsingular (checked for d = 2, 3 and t <= 6), so
    they index a basis of the commutant.  For qubits (d = 2) these are the
    321-avoiding permutations, C_t (Catalan) of them: 1, 2, 5, 14, 42, 132
    for t = 1..6.  The set is closed under inversion.
    """
    group = enumerate_group(t)
    # images on every (d + 1)-subset of positions, in increasing position order
    subsets = np.array(list(_iter_combinations(range(t), d + 1)),
                       dtype=np.intp).reshape(-1, d + 1)
    images = np.array([p.images for p in group])[:, subsets]
    decreasing = np.all(np.diff(images, axis=-1) < 0, axis=-1).any(axis=-1)
    return tuple(p for p, drop in zip(group, decreasing) if not drop)


def v_matrix(p: Permutation, d: int) -> np.ndarray:
    """Permutation operator on the computational product basis.

    0/1 matrix of size d^t with ``V |j_1..j_t> = |j_{p(1)}..j_{p(t)}>``.
    """
    t = p.size
    dim = d**t
    if dim > V_MATRIX_SIZE_CAP:
        raise ValueError(f"d^t = {dim} exceeds size cap {V_MATRIX_SIZE_CAP}")
    # column j maps to row i with i_k = j_{p(k)}
    cols = np.arange(dim)
    digits = np.empty((t, dim), dtype=np.int64)
    rem = cols.copy()
    for k in range(t - 1, -1, -1):
        digits[k] = rem % d
        rem //= d
    rows = np.zeros(dim, dtype=np.int64)
    for k in range(t):
        rows = rows * d + digits[p.images[k]]
    v = np.zeros((dim, dim), dtype=complex)
    v[rows, cols] = 1.0
    return v


_GRAM_ROW_BLOCK = 64


def _codes(images: np.ndarray, t: int) -> np.ndarray:
    """Base-t code sum_i images[..., i] t^(k-1-i) of the last axis (length k)."""
    return images @ t ** np.arange(images.shape[-1] - 1, -1, -1)


@lru_cache(maxsize=None)
def _cycle_counts(t: int) -> np.ndarray:
    """Read-only int8 table of #cycles(pi), indexed by the base-t code of
    pi's one-line images; codes of non-permutations hold 0.

    Each point is labelled with the smallest point of its cycle by
    pointer-chasing over all t! permutations at once, and the cycles are
    counted as the points that are their own label.
    """
    perms = np.array(list(_iter_permutations(range(t))), dtype=np.intp)
    points = np.arange(t)
    label = np.broadcast_to(points, perms.shape)
    for _ in range(t - 1):
        label = np.minimum(label, np.take_along_axis(label, perms, axis=-1))
    counts = np.zeros(t ** t, dtype=np.int8)
    counts[_codes(perms, t)] = np.sum(label == points, axis=-1)
    counts.setflags(write=False)
    return counts


def gram_block(rows, cols, d: int) -> np.ndarray:
    """Integer block (d^{#cycles(a o b)})_{a in rows, b in cols}, in the
    smallest signed integer type that holds d^t: convert it before any
    arithmetic that could leave that range.

    The cycle count of a composition is looked up by its base-t code
    sum_i a(b(i)) t^(t-1-i) in ``_cycle_counts(t)``.  The code splits into
    a part over the first floor(t/2) positions i and one over the rest.  For
    a block of rows, each part is tabulated at every tuple of positions
    (b(i))_i of its length, and each column b picks its entry by the code of
    its own tuple.  A row block then costs two gathers, one add and two
    lookups (the cycle count, then d to that power), and no (rows, cols, t)
    composition array is built.
    """
    left = np.array([p.images for p in rows], dtype=np.intp)
    right = np.array([p.images for p in cols], dtype=np.intp)
    t = left.shape[1]
    place = t ** np.arange(t - 1, -1, -1)
    halves = []
    for h in (slice(0, t // 2), slice(t // 2, t)):
        k = h.stop - h.start
        # every k-tuple of positions in code order, and each column's k-tuple
        halves.append((np.indices((t,) * k).reshape(k, t ** k).T, place[h],
                       _codes(right[:, h], t)))
    counts = _cycle_counts(t)
    # -d^t - 1 forces a signed type wide enough for +d^t as well
    dtype = np.min_scalar_type(-(d ** t) - 1)
    powers = (d ** np.arange(t + 1)).astype(dtype)
    out = np.empty((len(left), len(right)), dtype=dtype)
    for start in range(0, len(left), _GRAM_ROW_BLOCK):
        block = left[start:start + _GRAM_ROW_BLOCK]
        code0, code1 = (np.take(block[:, tuples] @ weights, key, axis=1)
                        for tuples, weights, key in halves)
        out[start:start + len(block)] = powers[counts[code0 + code1]]
    return out


@lru_cache(maxsize=None)
def gram_matrix(t: int, d: int) -> np.ndarray:
    """Gram matrix (tr V_{pi o pi'}) of the permutation operators, with entry
    (pi, pi') = d^{#cycles(pi o pi')}: a read-only array of exact integers."""
    perms = enumerate_group(t)
    g = gram_block(perms, perms, d)
    g.setflags(write=False)
    return g

