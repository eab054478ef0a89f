"""Exact integral-lattice arithmetic.

Lattices are given by integer Gram matrices in a fixed basis.  Everything in
this module works over exact integers / rationals: determinants use Bareiss
elimination, short vectors come from one integer Fincke-Pohst walk over an
LDL^T decomposition whose denominators are cleared once, kernels and
discriminant groups use integer normal forms.  No floating point enters any
decision path.

Vector counts of the standard root lattices come from Z^k coordinate models
(one dynamic-programming kernel, one exact convolution).  A model is chosen
by structure: the lattice's label must rebuild its Gram matrix exactly.  The
counts leave int64 for Python integers before they could overflow, so they
are exact at any size.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, isqrt, lcm, prod

import numpy as np

__all__ = [
    "GramLattice",
    "LatticeVector",
    "DiscriminantGroup",
    "standard_lattice",
    "A",
    "D",
    "E7",
    "E8",
    "U",
    "span",
    "direct_sum",
    "rescale",
    "inner",
    "norm",
    "divisor",
    "enumerate_norm",
    "rep_count",
    "roots",
    "theta_counts",
    "orthogonal_complement",
    "is_isometric",
    "reflection",
    "reflection_orbits",
    "discriminant_group",
    "smith_normal_form",
]


# ---------------------------------------------------------------------------
# lattice type and constructors


@dataclass(frozen=True)
class GramLattice:
    """An integral lattice presented by a symmetric Gram matrix.

    ``gram`` is a tuple-of-tuples of integers; ``label`` records how the
    lattice was built (for display, and to propose a counting model, which
    is used only if the label rebuilds ``gram`` exactly).
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

    def basis_vector(self, i: int) -> "LatticeVector":
        coords = [0] * self.rank
        coords[i] = 1
        return LatticeVector(self, tuple(coords))

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


def A(n: int) -> GramLattice:
    """Root lattice A_n in the simple-root basis e_{i+1}-e_i of the sum-zero
    hyperplane of Z^{n+1}."""
    if n < 1:
        raise ValueError("A_n needs n >= 1")
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = 2
        if i + 1 < n:
            g[i][i + 1] = g[i + 1][i] = -1
    return GramLattice(_freeze(g), f"A{n}")


def D(n: int) -> GramLattice:
    """Root lattice D_n = {x in Z^n : sum x_i even}, simple roots
    e_i - e_{i+1} (i < n) and e_{n-1} + e_n."""
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
    return GramLattice(_freeze(g), f"D{n}")


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


def standard_lattice(name: str) -> GramLattice:
    """Build a lattice from a compact name.

    Accepts  A<n>, D<n>, E7, E8, U, <k>, summands joined by '+', an integer
    multiplicity prefix (3U = U+U+U) and a trailing (m) rescale, e.g.
    ``3U+2E8(-1)+<-2>`` or ``A1+D4``.
    """
    parts = [p.strip() for p in name.split("+")]
    pieces = []
    for part in parts:
        if not part:
            raise ValueError(f"bad lattice name {name!r}")
        mult = 1
        i = 0
        while i < len(part) and part[i].isdigit():
            i += 1
        if i and i < len(part) and part[i] in "ADEU<":
            mult = int(part[:i])
            part = part[i:]
        scale = 1
        if part.endswith(")"):
            j = part.rindex("(")
            scale = int(part[j + 1 : -1])
            part = part[:j]
        if part == "U":
            L = U()
        elif part == "E7":
            L = E7()
        elif part == "E8":
            L = E8()
        elif part.startswith("A"):
            L = A(int(part[1:]))
        elif part.startswith("D"):
            L = D(int(part[1:]))
        elif part.startswith("<") and part.endswith(">"):
            L = span(int(part[1:-1]))
        else:
            raise ValueError(f"unknown lattice name {part!r}")
        if scale != 1:
            L = rescale(L, scale)
        pieces.extend([L] * mult)
    return pieces[0] if len(pieces) == 1 else direct_sum(*pieces)


def hyperkahler_lattice(t: int) -> GramLattice:
    """The signature (3,20) lattice 3U + 2E8(-1) + <-2t>."""
    return standard_lattice(f"3U+2E8(-1)+<{-2 * t}>")


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

    The rational LDL^T form x^T G x = sum_i d_i (x_i + sum_{j>i} u_ij x_j)^2
    is computed once; m_i clears the denominators of the row u_i and s those
    of every d_i / m_i^2.  c[i] holds c_ij for j > i only.  Raises ValueError
    unless G is positive definite.
    """
    n = len(gram)
    q = [[Fraction(gram[i][j]) for j in range(n)] for i in range(n)]
    for i in range(n):
        if q[i][i] <= 0:
            raise ValueError("not positive definite")
        for j in range(i + 1, n):
            q[j][i] = q[i][j]
            q[i][j] = q[i][j] / q[i][i]
        for k in range(i + 1, n):
            for l in range(k, n):
                q[k][l] = q[k][l] - q[k][i] * q[i][l]
                q[l][k] = q[k][l]
    m = [lcm(*(q[i][j].denominator for j in range(i + 1, n))) for i in range(n)]
    s = lcm(*((q[i][i] / m[i] ** 2).denominator for i in range(n)))
    w = tuple(int(s * q[i][i] / m[i] ** 2) for i in range(n))
    c = tuple(tuple(int(m[i] * q[i][j]) for j in range(i + 1, n)) for i in range(n))
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


# ---------------------------------------------------------------------------
# short vectors (integer Fincke-Pohst)


def _short_vectors(L: GramLattice, bound: int):
    """All lattice vectors of norm <= bound (positive definite L only), in one
    walk: out[k] is the sorted list of coordinate tuples of norm k.

    With s * x^T G x = sum_i w_i y_i^2 and y_i = m_i x_i + t_i, where
    t_i = sum_{j>i} c_ij x_j, the coordinates are fixed from the last to the
    first.  rem is what is left of s * bound, so |y_i| <= isqrt(rem // w_i)
    bounds x_i by two floor divisions, and every x_0 in range closes a vector.
    """
    if bound < 0:
        raise ValueError("norm must be nonnegative")
    s, w, m, c = _cholesky(L.gram)
    top = s * bound
    out = [[] for _ in range(bound + 1)]
    coords = [0] * L.rank

    def descend(i, rem):
        t = sum(cij * x for cij, x in zip(c[i], coords[i + 1 :]))
        r = isqrt(rem // w[i])
        for x in range(-((r + t) // m[i]), (r - t) // m[i] + 1):
            coords[i] = x
            left = rem - w[i] * (m[i] * x + t) ** 2
            if i:
                descend(i - 1, left)
            else:
                out[(top - left) // s].append(tuple(coords))

    descend(L.rank - 1, top)
    for vecs in out:
        vecs.sort()
    return out


def enumerate_norm(L: GramLattice, n: int):
    """All lattice vectors of norm exactly n (positive definite L only).

    Returns a deterministically ordered list of coordinate tuples, closed
    under negation; [()] placeholder semantics: n = 0 yields the zero vector.
    """
    return _short_vectors(L, n)[n]


def rep_count(L: GramLattice, n: int, method: str = "auto") -> int:
    """Number of lattice vectors of norm n.

    ``method='auto'`` uses the exact counting models when the lattice is,
    by its Gram matrix, the standard construction its label names (A_n, D_n,
    E7, even <k> and their direct sums), and Fincke-Pohst otherwise;
    ``method='fincke-pohst'`` forces the generic enumerator.  Counts are
    exact Python integers, also past int64.  A lattice that is not
    positive definite is refused at every n, n = 0 included.
    """
    if n < 0:
        raise ValueError("norm must be nonnegative")
    if not L.is_positive_definite:
        raise ValueError("rep_count expects a positive-definite lattice")
    if n == 0:
        return 1
    if method == "auto":
        counts = _model_counts(L, n // 2 + 1) if L.is_even else None
        if counts is not None:
            return counts[n // 2] if n % 2 == 0 else 0
    elif method not in ("fincke-pohst",):
        raise ValueError(f"unknown method {method!r}")
    return len(enumerate_norm(L, n))


def roots(L: GramLattice):
    """All vectors of norm 2."""
    return enumerate_norm(L, 2)


def theta_counts(L: GramLattice, prec: int, method: str = "auto"):
    """Counts c[m] = #{v : norm(v) = 2m} for 0 <= m < prec (even PD lattice).

    This is the coefficient list of the theta series on the integer exponent
    grid, obtained by exhaustive counting: dynamic programming over a Z^k
    coordinate model when the Gram matrix is that of the standard
    construction the label names, Fincke-Pohst otherwise.  Coefficients are
    exact Python integers, also past int64.
    """
    if not L.is_even:
        raise ValueError("theta_counts expects an even lattice")
    if method == "auto":
        c = _model_counts(L, max(prec, 1))
        if c is not None:
            return list(c[:prec])
    vecs = _short_vectors(L, 2 * max(prec - 1, 0))
    return [len(vecs[2 * m]) for m in range(prec)]


# -- fast exact counting models for standard lattices -----------------------


@lru_cache(maxsize=64)
def _model_counts(L: GramLattice, prec: int):
    """Vector counts by half-norm from the Z^k coordinate models, or None.

    A model is used only when ``L.label`` names a standard construction whose
    Gram matrix is exactly ``L.gram``; the label alone is never trusted.
    """
    try:
        std = standard_lattice(L.label)
    except ValueError:
        return None
    if std.gram != L.gram:
        return None
    acc = [1]
    for part in std.label.split("+"):
        c = _atom_counts(part, prec)
        if c is None:
            return None
        acc = _convolve_exact(acc, c)[:prec]
    return tuple(int(x) for x in acc)


def _atom_counts(label: str, prec: int):
    if label == "U" or "(" in label:
        return None
    if label.startswith("A") and label[1:].isdigit():
        return counts_sum_zero(int(label[1:]) + 1, prec)
    if label.startswith("D") and label[1:].isdigit():
        return counts_even_sum(int(label[1:]), prec)
    if label == "E7":
        return counts_e7(prec)
    if label.startswith("<") and label.endswith(">"):
        k = int(label[1:-1])
        if k <= 0 or k % 2:
            return None
        c = [0] * prec
        for x in itertools.count(0):
            half = k * x * x // 2
            if half >= prec:
                break
            c[half] += 1 if x == 0 else 2
        return c
    return None


_INT64_MAX = 2**63 - 1


def _max_abs(arr) -> int:
    return max(abs(int(arr.max())), abs(int(arr.min())))


def _convolve_exact(a, b) -> np.ndarray:
    """Full linear convolution of two integer sequences, exact at any size.

    int64 arithmetic is used only when max|a| * max|b| * min(len a, len b)
    bounds every partial sum below 2^63; otherwise the product runs on
    Python integers (object arrays).
    """
    # Python-int lists go through object arrays: np.asarray would silently
    # turn entries past int64 into floats
    a, b = (x if isinstance(x, np.ndarray) else np.array(x, dtype=object) for x in (a, b))
    if _max_abs(a) * _max_abs(b) * min(len(a), len(b)) <= _INT64_MAX:
        return np.convolve(a.astype(np.int64), b.astype(np.int64))
    return np.convolve(a.astype(object), b.astype(object))


def _coordinate_counts(values, n_coords: int, max_sq: int, modulus: int):
    """col[s] = #{x in values^n_coords : sum x_i^2 = s, sum x_i = 0 mod modulus}
    for 0 <= s <= max_sq.

    The table is indexed by (sum of squares, coordinate sum mod modulus); one
    coordinate value shifts it by (v^2, v mod modulus), a cyclic shift being
    two slice-adds.  The last coordinate feeds only the column where the sum
    is = 0.  A pass adds at most len(values) entries into each cell, so the
    table leaves int64 for Python integers before a pass whose sums could
    pass 2^63.
    """
    rows = max_sq + 1
    table = np.zeros((rows, modulus), dtype=np.int64)
    table[0, 0] = 1
    for k in range(n_coords):
        if table.dtype != object and int(table.max()) * len(values) > _INT64_MAX:
            table = table.astype(object)
        if k == n_coords - 1:
            col = np.zeros(rows, dtype=table.dtype)
            for v in values:
                col[v * v :] += table[: rows - v * v, -v % modulus]
            return col
        new = np.zeros_like(table)
        for v in values:
            sq, r = v * v, v % modulus
            src = table[: rows - sq]
            new[sq:, r:] += src[:, : modulus - r]
            new[sq:, :r] += src[:, modulus - r :]
        table = new
    return table[:, 0]


def counts_sum_zero(n_coords: int, prec: int):
    """c[m] = #{x in Z^n : sum x_i = 0, sum x_i^2 = 2m}  (the A_{n-1} model)."""
    max_sq = 2 * (prec - 1)
    xmax = isqrt(max_sq)
    col = _coordinate_counts(range(-xmax, xmax + 1), n_coords, max_sq, 2 * n_coords * xmax + 1)
    return [int(col[2 * m]) for m in range(prec)]


def counts_even_sum(n_coords: int, prec: int):
    """c[m] = #{x in Z^n : sum x_i even, sum x_i^2 = 2m}  (the D_n model)."""
    max_sq = 2 * (prec - 1)
    xmax = isqrt(max_sq)
    col = _coordinate_counts(range(-xmax, xmax + 1), n_coords, max_sq, 2)
    return [int(col[2 * m]) for m in range(prec)]


def counts_e7(prec: int):
    """c[m] = N_{E7}(2m) via the zero-sum Z^8 model: vectors are z/2 with
    z in Z^8, sum z = 0, all z_i of equal parity, sum z_i^2 = 8m."""
    max_sq = 8 * (prec - 1)
    zmax = isqrt(max_sq)
    out = [0] * prec
    for parity in (0, 1):
        values = [z for z in range(-zmax, zmax + 1) if z % 2 == parity]
        modulus = 2 * 8 * max(values, default=0) + 1
        col = _coordinate_counts(values, 8, max_sq, modulus)
        for m in range(prec):
            out[m] += int(col[8 * m])
    return out


# ---------------------------------------------------------------------------
# orthogonal complements, isometry testing, reflections


def orthogonal_complement(L: GramLattice, vectors) -> GramLattice:
    """Gram matrix of the saturated sublattice orthogonal to the given
    (linearly independent) vectors."""
    vecs = [tuple(int(c) for c in getattr(v, "coords", v)) for v in vectors]
    n = L.rank
    m = [[sum(L.gram[i][j] * v[j] for j in range(n)) for i in range(n)] for v in vecs]
    kern = integer_kernel(m)
    if len(kern) != n - len(vecs):
        raise ValueError("vectors are linearly dependent")
    g = [[sum(kern[a][i] * L.gram[i][j] * kern[b][j] for i in range(n) for j in range(n)) for b in range(len(kern))] for a in range(len(kern))]
    return GramLattice(_freeze(g), f"perp({L.label})" if L.label else "perp")


def integer_kernel(m):
    """Basis (rows) of the saturated integer kernel {x : m x = 0}."""
    rows = len(m)
    if rows == 0:
        raise ValueError("empty matrix")
    n = len(m[0])
    dmat, _, v = smith_normal_form(m)
    rank = sum(1 for i in range(min(rows, n)) if dmat[i][i] != 0)
    # kernel basis: columns of V past the rank
    return [tuple(v[i][j] for i in range(n)) for j in range(rank, n)]


def smith_normal_form(mat):
    """Smith normal form with transforms: returns (D, Ut, V) with Ut*M*V = D,
    Ut and V unimodular, D diagonal with d1 | d2 | ... ."""
    m = [[int(x) for x in row] for row in mat]
    rows, cols = len(m), len(m[0])
    ut = [[int(i == j) for j in range(rows)] for i in range(rows)]
    v = [[int(i == j) for j in range(cols)] for i in range(cols)]

    def swap_rows(i, j):
        m[i], m[j] = m[j], m[i]
        ut[i], ut[j] = ut[j], ut[i]

    def swap_cols(i, j):
        for r in m:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    def addmul_row(dst, src, c):
        m[dst] = [a + c * b for a, b in zip(m[dst], m[src])]
        ut[dst] = [a + c * b for a, b in zip(ut[dst], ut[src])]

    def addmul_col(dst, src, c):
        for r in m:
            r[dst] += c * r[src]
        for r in v:
            r[dst] += c * r[src]

    t = 0
    while t < min(rows, cols):
        # find a nonzero pivot in the remaining block
        piv = None
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                if m[i][j] != 0 and (best is None or abs(m[i][j]) < best):
                    best = abs(m[i][j])
                    piv = (i, j)
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        while True:
            progressed = False
            for i in range(t + 1, rows):
                if m[i][t]:
                    q = m[i][t] // m[t][t]
                    addmul_row(i, t, -q)
                    if m[i][t]:
                        swap_rows(t, i)
                        progressed = True
            for j in range(t + 1, cols):
                if m[t][j]:
                    q = m[t][j] // m[t][t]
                    addmul_col(j, t, -q)
                    if m[t][j]:
                        swap_cols(t, j)
                        progressed = True
            if not progressed:
                break
        # divisibility condition: pivot must divide the remaining block
        fixed = True
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if m[i][j] % m[t][t]:
                    addmul_row(t, i, 1)
                    fixed = False
                    break
            if not fixed:
                break
        if fixed:
            if m[t][t] < 0:
                m[t] = [-x for x in m[t]]
                ut[t] = [-x for x in ut[t]]
            t += 1
    dmat = [[m[i][j] if i == j else 0 for j in range(cols)] for i in range(rows)]
    # sanity: D == Ut * mat * V
    chk = _mat_mul(_mat_mul(ut, [list(r) for r in mat]), v)
    if chk != dmat:
        raise AssertionError("SNF transform mismatch")
    return dmat, ut, v


def _mat_mul(a, b):
    rows, inner_, cols = len(a), len(b), len(b[0])
    return [[sum(a[i][k] * b[k][j] for k in range(inner_)) for j in range(cols)] for i in range(rows)]


ISOMETRY_MAX_RANK = 8


def _search_order(gram) -> list:
    """Basis indices in the order the isometry search places them: a vector
    of smallest norm first, then always the vector with the most nonzero
    inner products with those already placed (ties by norm, then index).
    Every placed vector then cuts down the candidates of the next one as
    early as possible (the basis ordering of Plesken & Souvignier, J.
    Symbolic Comput. 24 (1997))."""
    order: list = []
    rest = list(range(len(gram)))
    while rest:
        i = min(rest, key=lambda i: (-sum(gram[i][j] != 0 for j in order), gram[i][i], i))
        order.append(i)
        rest.remove(i)
    return order


def is_isometric(L1: GramLattice, L2: GramLattice) -> bool:
    """Backtracking isometry test for positive-definite lattices of rank
    <= ISOMETRY_MAX_RANK: the images of L1's basis vectors, placed in
    ``_search_order``, are drawn from L2's vectors of the same norm."""
    if L1.rank != L2.rank:
        return False
    if L1.rank > ISOMETRY_MAX_RANK:
        raise ValueError(f"rank {L1.rank} exceeds the cap {ISOMETRY_MAX_RANK}")
    if L1.det != L2.det:
        return False
    if not (L1.is_positive_definite and L2.is_positive_definite):
        raise ValueError("is_isometric expects positive-definite lattices")
    norms = sorted({L1.gram[i][i] for i in range(L1.rank)})
    short1, cands = _short_vectors(L1, norms[-1]), _short_vectors(L2, norms[-1])
    if any(len(cands[n]) != len(short1[n]) for n in norms):
        return False
    order = _search_order(L1.gram)
    g1 = [[L1.gram[a][b] for b in order] for a in order]
    rank = L1.rank
    # int64 holds every partial sum of the inner products below unless the
    # entries are huge; then the same arrays hold Python integers
    pools = {n: np.array(cands[n], dtype=object) for n in norms}
    big = max(abs(x) for row in L2.gram for x in row) * max(np.abs(p).max() for p in pools.values()) ** 2
    dtype = np.int64 if rank * rank * big <= _INT64_MAX else object
    g2 = np.array(L2.gram, dtype=dtype)
    pools = {n: p.astype(dtype) for n, p in pools.items()}
    images = {n: pools[n] @ g2 for n in norms}  # row k: G2 w_k
    chosen = np.zeros((rank, rank), dtype=dtype)

    def place(i):
        if i == rank:
            return True
        n = g1[i][i]
        fits = np.all(images[n] @ chosen[:i].T == np.array(g1[i][:i], dtype=dtype), axis=1)
        for k in np.flatnonzero(fits):
            chosen[i] = pools[n][k]
            if place(i + 1):
                return True
        return False

    return place(0)


def reflection(L: GramLattice, r, x):
    """Image of x under the reflection in r: x - 2(x,r)/(r,r) * r."""
    r = tuple(getattr(r, "coords", r))
    x = tuple(getattr(x, "coords", x))
    rr = norm(L, r)
    if rr == 0:
        raise ValueError("cannot reflect in an isotropic vector")
    xr2 = 2 * inner(L, x, r)
    if xr2 % rr:
        raise ValueError("reflection image is not integral")
    c = xr2 // rr
    return tuple(xi - c * ri for xi, ri in zip(x, r))


# ---------------------------------------------------------------------------
# reflection orbits of sublattice descriptors


def _sign_normalize(vec):
    for c in vec:
        if c != 0:
            return vec if c > 0 else tuple(-x for x in vec)
    raise ValueError("zero vector in sublattice descriptor")


def canonical_object(obj):
    """Canonical form of a set of roots: each root sign-normalized by its
    first nonzero coordinate, the tuple sorted."""
    return tuple(sorted(_sign_normalize(tuple(v)) for v in obj))


def reflection_orbits(L: GramLattice, objects, generators=None):
    """Partition sublattice descriptors into orbits of the reflection group.

    ``objects``: iterable of root collections (each root a coordinate tuple),
    all of the same size.  ``generators``: reflection vectors to close under;
    defaults to the basis vectors when the basis consists of roots (then they
    generate the full Weyl group), otherwise all roots of L.

    Returns (orbit_count, orbit_sizes, representatives); representatives are
    the lexicographically smallest canonical object of each orbit and
    orbit_sizes is sorted descending, ties in the order of each orbit's
    first object.

    The closure runs on arrays: the distinct sign-normalized roots get
    indices in lexicographic order, an object becomes the sorted tuple of
    its root indices packed into one int64 key, each generator permutes the
    roots once and so the object keys, and labels fall to the smallest
    object index of each orbit by min-label propagation.
    """
    arr = np.array(list(objects), dtype=np.int64)  # (N, k, n)
    if arr.ndim != 3 or arr.shape[2] != L.rank:
        raise ValueError("objects must be equal-size collections of coordinate vectors")
    count, size = arr.shape[:2]
    flat = _sign_normalize_rows(arr.reshape(-1, L.rank))
    _, first, root_of = np.unique(_pack_rows(flat), return_index=True, return_inverse=True)
    root_rows = flat[first]  # lexicographic order
    members = np.sort(root_of.reshape(count, size), axis=1)  # canonical objects
    keys = _pack_rows(members)
    order = np.argsort(keys, kind="stable")
    if np.any(keys[order][1:] == keys[order][:-1]):
        raise ValueError("objects are not distinct after canonicalization")
    if generators is None:
        if all(L.gram[i][i] == 2 for i in range(L.rank)):
            generators = [tuple(1 if j == i else 0 for j in range(L.rank)) for i in range(L.rank)]
        else:
            generators = roots(L)
    gram_np = np.array(L.gram, dtype=np.int64)
    moves = []  # per generator: index of each object's image
    for r in generators:
        rv = np.array(r, dtype=np.int64)
        gr = gram_np @ rv
        rr = int(rv @ gr)
        if rr == 0:
            raise ValueError("cannot reflect in an isotropic vector")
        coeff = 2 * (root_rows @ gr)
        if np.any(coeff % rr):
            raise ValueError("reflection image is not integral")
        images = _sign_normalize_rows(root_rows - (coeff // rr)[:, None] * rv)
        root_keys, image_keys = _pack_rows(np.stack([root_rows, images]))
        to = _lookup(root_keys, image_keys)
        obj_keys, moved_keys = _pack_rows(np.stack([members, np.sort(to[members], axis=1)]))
        moves.append(order[_lookup(obj_keys[order], moved_keys)])
    # each move is an involution, so a label that no move lowers is the
    # smallest object index of its orbit; labels[labels] jumps along chains
    labels = np.arange(count)
    while True:
        new = labels
        for move in moves:
            new = np.minimum(new, new[move])
        new = new[new]
        if np.array_equal(new, labels):
            break
        labels = new
    firsts, orbit_of, sizes = np.unique(labels, return_inverse=True, return_counts=True)
    rank_of = np.empty(count, dtype=np.int64)
    rank_of[order] = np.arange(count)
    smallest = np.full(len(firsts), count)
    np.minimum.at(smallest, orbit_of, rank_of)
    by_size = np.lexsort((firsts, -sizes))
    reps = [tuple(tuple(int(x) for x in root_rows[j]) for j in members[order[smallest[o]]]) for o in by_size]
    return len(firsts), [int(sizes[o]) for o in by_size], reps


def _sign_normalize_rows(rows):
    """Negate, in place, each row whose first nonzero entry is negative."""
    nonzero = rows != 0
    if not nonzero.any(axis=1).all():
        raise ValueError("zero vector in sublattice descriptor")
    flip = rows[np.arange(len(rows)), nonzero.argmax(axis=1)] < 0
    rows[flip] = -rows[flip]
    return rows


def _lookup(sorted_keys, keys):
    """Positions of keys in the ascending array sorted_keys; ValueError when
    one is missing, i.e. the objects are not closed under a generator."""
    at = np.minimum(np.searchsorted(sorted_keys, keys), len(sorted_keys) - 1)
    if np.any(sorted_keys[at] != keys):
        raise ValueError("object set is not closed under the reflection group")
    return at


def _pack_rows(arr):
    """Pack the last axis of an integer array into int64 keys that order the
    rows lexicographically: row digits are offset by the array's smallest
    entry, in the base its range needs.  Raises ValueError when the keys
    would not fit in int64."""
    lo, hi = int(arr.min()), int(arr.max())
    base = hi - lo + 1
    if base ** arr.shape[-1] > _INT64_MAX:
        raise ValueError("coordinates too large to pack")
    out = np.zeros(arr.shape[:-1], dtype=np.int64)
    for i in range(arr.shape[-1]):
        out = out * base + (arr[..., i] - lo)
    return out


# ---------------------------------------------------------------------------
# discriminant groups


@dataclass(frozen=True)
class DiscriminantGroup:
    """The finite quadratic group dual/L: invariant factors d1 | d2 | ...,
    generators in lattice-basis rational coordinates, q values mod 2 and
    bilinear values mod 1."""

    invariant_factors: tuple
    generators: tuple
    q_values: tuple
    b_matrix: tuple

    @property
    def order(self) -> int:
        return prod(self.invariant_factors)

    @property
    def is_cyclic(self) -> bool:
        return len(self.invariant_factors) <= 1


def discriminant_group(L: GramLattice) -> DiscriminantGroup:
    g = [list(r) for r in L.gram]
    n = L.rank
    dmat, ut, v = smith_normal_form(g)
    dets = abs(L.det)
    facs = []
    gens = []
    for i in range(n):
        d = dmat[i][i]
        if d in (1, -1):
            continue
        d = abs(d)
        # generator: G * (V e_i) = d * (Ut^{-1} e_i)  =>  (V e_i)/d lies in the dual
        col = [Fraction(v[r][i], d) for r in range(n)]
        facs.append(d)
        gens.append(tuple(col))
    if prod(facs) != dets:
        raise AssertionError("invariant factor product mismatch")
    qv = []
    for gvec in gens:
        val = _bilinear_fraction(g, gvec, gvec) % 2
        qv.append(val)
    bm = []
    for a in gens:
        row = []
        for b in gens:
            row.append(_bilinear_fraction(g, a, b) % 1)
        bm.append(tuple(row))
    return DiscriminantGroup(tuple(facs), tuple(gens), tuple(qv), tuple(bm))


def _bilinear_fraction(g, a, b) -> Fraction:
    n = len(g)
    return sum(a[i] * g[i][j] * b[j] for i in range(n) for j in range(n))
