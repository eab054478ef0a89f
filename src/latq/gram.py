"""The lattice type and the exact linear algebra on Gram matrices.

`GramLattice` with its constructors (A_n, D_n, E7, E8, U, <k>, direct sums,
rescalings), Bareiss determinants, the integer LDL^T data of `_cholesky`,
one matrix product, the closed theta series of E7 and E8, and the level
stack `_Levels` of the depth-first array kernels.  `kodaira` and `siegel`
need no other lattice code, so a process that runs only them never loads
`lattices`, which imports every name here back.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import gcd, isqrt, lcm
from operator import mul

from .arith import _cross_check, _mul_trunc


# ---------------------------------------------------------------------------
# lattice type and constructors


@dataclass(frozen=True)
class GramLattice:
    """An integral lattice presented by a symmetric Gram matrix.

    ``gram`` is a tuple-of-tuples of integers; ``label`` records how the
    lattice was built, for display only: no computation reads it.
    """

    gram: tuple
    label: str = ""

    def __post_init__(self):
        n = len(self.gram)
        if n == 0:
            raise ValueError("empty Gram matrix")
        for row in self.gram:
            if len(row) != n:
                raise ValueError("Gram matrix must be square")
        for i in range(n):
            for j in range(n):
                if self.gram[i][j] != self.gram[j][i]:
                    raise ValueError("Gram matrix must be symmetric")
        if self.det == 0:
            raise ValueError("degenerate Gram matrix")

    @property
    def rank(self) -> int:
        return len(self.gram)

    @cached_property
    def det(self) -> int:
        return _det_bareiss(self.gram)

    @property
    def is_even(self) -> bool:
        return all(self.gram[i][i] % 2 == 0 for i in range(self.rank))

    @property
    def is_positive_definite(self) -> bool:
        try:
            _cholesky(self.gram)
            return True
        except ValueError:
            return False

    def vector(self, coords) -> "LatticeVector":
        return LatticeVector(self, tuple(int(c) for c in coords))

    def __repr__(self):
        name = self.label or f"gram{self.rank}"
        return f"GramLattice({name}, rank={self.rank}, det={self.det})"


@dataclass(frozen=True)
class LatticeVector:
    """Integer coordinate vector in the basis of an owning lattice."""

    lattice: GramLattice
    coords: tuple

    def __post_init__(self):
        if len(self.coords) != self.lattice.rank:
            raise ValueError("coordinate length does not match lattice rank")

    def inner(self, other: "LatticeVector") -> int:
        if other.lattice.gram != self.lattice.gram:
            raise ValueError("vectors belong to different lattices")
        return inner(self.lattice, self.coords, other.coords)

    def norm(self) -> int:
        return inner(self.lattice, self.coords, self.coords)

    def divisor(self) -> int:
        return divisor(self.lattice, self.coords)


def _freeze(mat) -> tuple:
    return tuple(tuple(int(x) for x in row) for row in mat)


def _a_gram(n: int) -> tuple:
    """The Gram matrix of A_n in the basis of `A`."""
    if n < 1:
        raise ValueError("A_n needs n >= 1")
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = 2
        if i + 1 < n:
            g[i][i + 1] = g[i + 1][i] = -1
    return _freeze(g)


def A(n: int) -> GramLattice:
    """Root lattice A_n in the simple-root basis e_{i+1}-e_i of the sum-zero
    hyperplane of Z^{n+1}."""
    return GramLattice(_a_gram(n), f"A{n}")


def _d_gram(n: int) -> tuple:
    """The Gram matrix of D_n in the basis of `D`."""
    if n < 2:
        raise ValueError("D_n needs n >= 2")
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = 2
    for i in range(n - 2):
        g[i][i + 1] = g[i + 1][i] = -1
    if n >= 3:
        # the fork: e_{n-1}+e_n pairs with e_{n-2}-e_{n-1}
        g[n - 3][n - 1] = g[n - 1][n - 3] = -1
    return _freeze(g)


def D(n: int) -> GramLattice:
    """Root lattice D_n = {x in Z^n : sum x_i even}, simple roots
    e_i - e_{i+1} (i < n) and e_{n-1} + e_n."""
    return GramLattice(_d_gram(n), f"D{n}")


# E7 simple roots inside Q^8: v_i = e_{i+2}-e_{i+1} for i=1..6 and
# v_7 = (e_1+e_2+e_3+e_4)/2 - (e_5+e_6+e_7+e_8)/2.  Stored doubled so all
# coordinates are integers; inner products carry a factor 4.
E7_SIMPLE_DOUBLED = (
    (0, -2, 2, 0, 0, 0, 0, 0),
    (0, 0, -2, 2, 0, 0, 0, 0),
    (0, 0, 0, -2, 2, 0, 0, 0),
    (0, 0, 0, 0, -2, 2, 0, 0),
    (0, 0, 0, 0, 0, -2, 2, 0),
    (0, 0, 0, 0, 0, 0, -2, 2),
    (1, 1, 1, 1, -1, -1, -1, -1),
)

E8_SIMPLE_DOUBLED = (
    (1, -1, -1, -1, -1, -1, -1, 1),
    (2, 2, 0, 0, 0, 0, 0, 0),
    (-2, 2, 0, 0, 0, 0, 0, 0),
    (0, -2, 2, 0, 0, 0, 0, 0),
    (0, 0, -2, 2, 0, 0, 0, 0),
    (0, 0, 0, -2, 2, 0, 0, 0),
    (0, 0, 0, 0, -2, 2, 0, 0),
    (0, 0, 0, 0, 0, -2, 2, 0),
)


def _gram_from_doubled(vectors) -> tuple:
    n = len(vectors)
    g = [[sum(a * b for a, b in zip(vectors[i], vectors[j])) // 4 for j in range(n)] for i in range(n)]
    return _freeze(g)


def E7() -> GramLattice:
    return GramLattice(_gram_from_doubled(E7_SIMPLE_DOUBLED), "E7")


def E8() -> GramLattice:
    return GramLattice(_gram_from_doubled(E8_SIMPLE_DOUBLED), "E8")


def U() -> GramLattice:
    """Hyperbolic plane [[0,1],[1,0]]."""
    return GramLattice(((0, 1), (1, 0)), "U")


def span(k: int) -> GramLattice:
    """Rank-1 lattice <k> generated by a vector of norm k."""
    if k == 0:
        raise ValueError("<0> is degenerate")
    return GramLattice(((int(k),),), f"<{k}>")


def direct_sum(*lattices: GramLattice) -> GramLattice:
    if not lattices:
        raise ValueError("empty direct sum")
    n = sum(L.rank for L in lattices)
    g = [[0] * n for _ in range(n)]
    off = 0
    for L in lattices:
        r = L.rank
        for i in range(r):
            for j in range(r):
                g[off + i][off + j] = L.gram[i][j]
        off += r
    label = "+".join(L.label or "?" for L in lattices)
    return GramLattice(_freeze(g), label)


def rescale(L: GramLattice, m: int) -> GramLattice:
    if m == 0:
        raise ValueError("rescale by 0 is degenerate")
    g = [[m * x for x in row] for row in L.gram]
    base = L.label or "?"
    return GramLattice(_freeze(g), f"{base}({m})")


# ---------------------------------------------------------------------------
# exact linear algebra helpers


def _det_bareiss(gram) -> int:
    n = len(gram)
    m = [[int(x) for x in row] for row in gram]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


@lru_cache(maxsize=256)
def _cholesky(gram):
    """Integers (s, w, m, c) with
    s * x^T G x = sum_i w_i (m_i x_i + sum_{j>i} c_ij x_j)^2,  s, w_i, m_i > 0.

    They clear the denominators of the rational LDL^T form
    x^T G x = sum_i d_i (x_i + sum_{j>i} u_ij x_j)^2, read off fraction-free
    Bareiss elimination of the upper triangle of G: row i of the eliminated
    matrix starts with the leading principal minor D_i of size i + 1, and
    d_i = D_i / D_{i-1} (D_{-1} = 1), u_ij = b_ij / D_i.  m_i is the least
    common denominator of the row u_i, and s that of every d_i / m_i^2.
    c[i] holds c_ij = m_i u_ij for j > i only.  Raises ValueError at the
    first minor D_i <= 0, so by Sylvester's criterion exactly when G is not
    positive definite, and AssertionError unless s G = U^T diag(w) U for the
    upper triangular U with diagonal m and c above it.
    """
    n = len(gram)
    b = [[int(x) for x in row] for row in gram]
    prev = 1
    for k in range(n):
        piv = b[k][k]
        if piv <= 0:
            raise ValueError("not positive definite")
        for i in range(k + 1, n):
            for j in range(i, n):
                b[i][j] = (b[i][j] * piv - b[k][i] * b[k][j]) // prev
        prev = piv
    minors = [1] + [b[i][i] for i in range(n)]
    m = [lcm(*(b[i][i] // gcd(b[i][i], b[i][j]) for j in range(i + 1, n))) for i in range(n)]
    dens = [minors[i] * m[i] ** 2 for i in range(n)]
    s = lcm(*(den // gcd(den, b[i][i]) for i, den in enumerate(dens)))
    w = tuple(s * b[i][i] // den for i, den in enumerate(dens))
    c = tuple(tuple(m[i] * b[i][j] // b[i][i] for j in range(i + 1, n)) for i in range(n))
    u = [[0] * i + [m[i], *c[i]] for i in range(n)]
    ldl = _mat_mul(list(zip(*u)), [[wi * x for x in row] for wi, row in zip(w, u)])
    _cross_check(ldl == [[s * x for x in row] for row in gram], "gram.ldl_product", "LDL^T data do not reproduce the Gram matrix")
    return s, w, tuple(m), c


def inner(L: GramLattice, v, w) -> int:
    g = L.gram
    n = L.rank
    if len(v) != n or len(w) != n:
        raise ValueError("coordinate length does not match lattice rank")
    return sum(int(v[i]) * g[i][j] * int(w[j]) for i in range(n) for j in range(n))


def norm(L: GramLattice, v) -> int:
    return inner(L, v, v)


def divisor(L: GramLattice, v) -> int:
    """Positive generator of the ideal of inner products (v, L)."""
    if not any(v):
        raise ValueError("divisor of the zero vector is undefined")
    g = L.gram
    n = L.rank
    vals = [sum(g[i][j] * int(v[j]) for j in range(n)) for i in range(n)]
    d = 0
    for x in vals:
        d = gcd(d, x)
    return d


def _mat_mul(a, b):
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


def _congruent(g, u):
    """u^T g u for integer matrices."""
    return _mat_mul(_mat_mul(list(zip(*u)), g), u)


# ---------------------------------------------------------------------------
# closed theta series of E7 and E8, from classical identities (Conway &
# Sloane, SPLAG, ch. 4) written with exponent m for norm 2m.  They share no
# code with the coordinate models and the walk of `lattices` or the E7 shell
# search, so those counts and these series certify each other.


def _check_prec(prec: int):
    if prec < 1:
        raise ValueError("prec must be positive")


def theta_e7(prec: int):
    """c[m] = N_{E7}(2m) from Theta_E7 = theta3(2t)^7 + 7 theta3(2t)^3 theta2(2t)^4.

    Like `lattices.counts_e7`, the list is sliced from one cached table
    built to the next power of two at or above prec.
    """
    _check_prec(prec)
    return list(_theta_e7_table(1 << (prec - 1).bit_length())[:prec])


@lru_cache(maxsize=None)
def _theta_e7_table(prec: int) -> tuple:
    """theta_e7 up to prec: theta3(2t) = sum_n q^(n^2) and
    theta2(2t)^4 = q (sum_n q^(n(n+1)))^4, the sums over all n in Z, in six
    truncated products."""
    t3 = [0] * prec
    t2 = [0] * prec
    for n in range(isqrt(prec - 1) + 1):
        t3[n * n] = 2 if n else 1
        if n * (n + 1) < prec:
            t2[n * (n + 1)] = 2
    t3_2 = _mul_trunc(t3, t3, prec)
    t3_3 = _mul_trunc(t3_2, t3, prec)
    t3_7 = _mul_trunc(_mul_trunc(t3_2, t3_2, prec), t3_3, prec)
    t2_2 = _mul_trunc(t2, t2, prec)
    t2_4 = [0] + _mul_trunc(t2_2, t2_2, prec - 1)
    return tuple(x + 7 * y for x, y in zip(t3_7, _mul_trunc(t3_3, t2_4, prec)))


def theta_e8(prec: int):
    """c[m] = N_{E8}(2m) from Theta_E8 = E_4 = 1 + 240 sum_{m >= 1} sigma_3(m) q^m,
    the divisor sums by one sieve."""
    _check_prec(prec)
    sigma3 = [0] * prec
    for d in range(1, prec):
        for m in range(d, prec, d):
            sigma3[m] += d**3
    return [1] + [240 * s for s in sigma3[1:]]


# ---------------------------------------------------------------------------
# shared by the array kernels: the int64 bound, the integer square root,
# index dtypes and the level stack of the depth-first kernels


_INT64_MAX = 2**63 - 1


def _isqrt(x):
    """Elementwise isqrt of a nonnegative integer array: math.isqrt on an
    object array, the floor of the float square root on int64 entries, which
    must be below 2^52.  There x is an exact float, the root of a square is
    exact, and the root of any other x < (k + 1)^2 lies at least
    1 / (2k + 2) >= 2^-27 below k + 1, more than half a float spacing, so it
    cannot round up to k + 1."""
    import numpy as np

    if x.dtype == object:
        return np.frompyfunc(isqrt, 1, 1)(x)
    return np.sqrt(x).astype(np.int64)


# the depth-first array kernels (the walk of lattices, kodaira's shell
# search and weyl's orthogonal tuples) grow at most this many array entries
# (rows times row width) at a time, 1 MiB as int64; the rest waits on a
# `_Levels` stack
_BLOCK = 1 << 17


def _index_dtype(n: int):
    """The narrowest unsigned integer dtype that holds 0..n - 1."""
    import numpy as np

    return np.min_scalar_type(max(n - 1, 0))


class _Levels(list):
    """The level stack of the depth-first array kernels (the walk of
    `lattices`, kodaira's shell search, weyl's orthogonal tuples).  Row p of
    a level has n[p] children, numbered before[p] .. before[p] + n[p] - 1
    across the level; the top level hands them out in order, at most
    ``_BLOCK // width`` but at least one at a time, so memory holds one
    block per level besides the output, and the output keeps its order."""

    def push(self, n, width, *rows):
        """Add a level of arrays rows, of one length, whose row p has n[p]
        children of width array entries each; keep it if it has children."""
        ends = n.cumsum()
        if len(ends) and ends[-1]:
            self.append([rows, n, ends - n, ends, int(ends[-1]), max(1, _BLOCK // width), 0])

    def take(self):
        """(k, first, last, before, rows) for children first .. last - 1 of
        the top level: the rows that own them, k[p] of them for row p, whose
        earlier children number before[p]; None once every level is taken."""
        import numpy as np

        if not self:
            return None
        level = self[-1]
        rows, k, before, ends, total, step, first = level
        last = level[6] = min(total, first + step)
        if last == total:
            self.pop()
        if last - first < total:
            p0, p1 = ends.searchsorted((first, last - 1), side="right")
            part = slice(int(p0), int(p1) + 1)
            k = np.minimum(ends[part], last) - np.maximum(before[part], first)
            rows, before = [r[part] for r in rows], before[part]
        return k, first, last, before, rows
