"""Exact integral-lattice arithmetic.

Lattices are given by integer Gram matrices in a fixed basis.  Their type,
constructors and exact Gram-matrix algebra (Bareiss determinants, the
integer LDL^T data) live in `gram`, and this module imports each of those
names back, so ``lattices.<name>`` reaches them too.  Everything here works
over exact integers / rationals: short vectors come from one integer
Fincke-Pohst walk over that LDL^T data, its denominators cleared once (level
by level on arrays), kernels and discriminant groups use integer normal
forms.  No floating point enters any decision path: the walk's float square
roots are corrected to exact integer ones.

Vector counts of the standard root lattices come from Z^k coordinate models
(one dynamic-programming kernel; direct sums multiply their counts with the
exact product `arith._mul_trunc`).  The Gram matrix alone chooses a model:
each of its orthogonal diagonal blocks must be the Gram matrix of an atom
exactly, and the label is never read.  The counts leave int64 for Python
integers before they could overflow, so they are exact at any size.  The
theta series of E7 and E8 also have closed forms, in `gram`, from
classical identities that share no code with the models.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import isqrt, prod

from .arith import _cross_check, _mul_trunc

# every name of gram, so that lattices.<name> is the same object, and a cache
# reset that walks this namespace also empties `_cholesky` and `_theta_e7_table`
from .gram import E7_SIMPLE_DOUBLED, E8_SIMPLE_DOUBLED, A, D, E7, E8, GramLattice, LatticeVector, U, _a_gram, _d_gram, _freeze, _gram_from_doubled, direct_sum, rescale, span
from .gram import _cholesky, _congruent, _det_bareiss, _mat_mul, divisor, inner, norm
from .gram import _check_prec, _theta_e7_table, theta_e7, theta_e8
from .gram import _BLOCK, _INT64_MAX, _index_dtype, _isqrt, _Levels

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
    "theta_e7",
    "theta_e8",
    "orthogonal_complement",
    "is_isometric",
    "reflection",
    "reflection_orbits",
    "discriminant_group",
    "smith_normal_form",
]


# ---------------------------------------------------------------------------
# lattices by name


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
    return direct_sum(U(), U(), U(), rescale(E8(), -1), rescale(E8(), -1), span(-2 * t))


# ---------------------------------------------------------------------------
# short vectors (integer Fincke-Pohst)


def _short_vectors(L: GramLattice, bound: int, coords: bool = True):
    """(rows, norms) for every lattice vector of norm <= bound (positive
    definite L only): its coordinates as a row of an (N, rank) array, in
    lexicographic order of (x_{n-1}, ..., x_0), and its norm.  With coords
    false, rows is None and norms is a dict from each norm that occurs to
    its number of vectors, in ascending order; no per-vector array is kept.

    With s * x^T G x = sum_i w_i y_i^2 and y_i = m_i x_i + t_i, where
    t_i = sum_{j>i} c_ij x_j, the coordinates are fixed from the last to the
    first, one array step per level for a block of partial vectors.  rem is
    what each has left of s * bound, so |y_i| <= isqrt(rem // w_i) bounds x_i
    by two floor divisions, and each partial vector has one child per x_i in
    range.  The levels wait on one `_Levels` stack, which hands out their
    children in blocks of at most ``_BLOCK`` array entries, so memory holds
    one block per level besides the output.  The steps run on int64 when
    the LDL^T data and bounds on every |x_i| and |t_i| fit there and
    s * bound is below the 2^52 of the float isqrt, and otherwise on Python
    integers in object arrays.
    """
    import numpy as np

    if bound < 0:
        raise ValueError("norm must be nonnegative")
    s, w, m, c = _cholesky(L.gram)
    top = s * bound
    xmax, big = [], max([top, *w, *m, *(abs(x) for row in c for x in row)])
    for i in reversed(range(L.rank)):
        reach = isqrt(top // w[i]) + sum(abs(cij) * x for cij, x in zip(c[i], xmax))
        xmax.insert(0, reach // m[i])
        big = max(big, 2 * reach)
    dtype = np.int64 if top < 2**52 and big <= _INT64_MAX else object
    levels, found, counts = _Levels(), [], Counter()
    i, rows, rem = L.rank - 1, np.zeros((1, 0), dtype=dtype), np.array([top], dtype=dtype)
    while True:
        if i < 0:
            norms = (top - rem) // s
            if coords:
                found.append((rows, norms))
            else:
                # one count per run of equal norms after a sort
                norms = np.sort(norms)
                cuts = [0, *(np.flatnonzero(norms[1:] != norms[:-1]) + 1).tolist(), len(norms)]
                for lo, hi in zip(cuts, cuts[1:]):
                    counts[int(norms[lo])] += hi - lo
        else:
            t = rows @ np.array(c[i], dtype=dtype)
            r = _isqrt(rem // w[i])
            lo = -((r + t) // m[i])
            n = ((r - t) // m[i] - lo + 1).astype(np.int64, copy=False)
            # the child j of partial vector p takes x_i = lo_p + j
            levels.push(n, L.rank - i + 1, rows, rem, t, lo)
        block = levels.take()
        if block is None:
            break
        n, first, last, before, (rows, rem, t, lo) = block
        # the level's partial vectors have x_{i+1}, ..., x_{n-1} fixed
        i = L.rank - 1 - rows.shape[1]
        x = np.repeat(lo - before, n) + np.arange(first, last)
        y = m[i] * x + np.repeat(t, n)
        rem = np.repeat(rem, n) - w[i] * y * y
        if i or coords:
            rows = np.concatenate((x[:, None], np.repeat(rows, n, axis=0)), axis=1)
        i -= 1
    if coords:
        return np.concatenate([r for r, _ in found]), np.concatenate([v for _, v in found])
    return None, dict(sorted(counts.items()))


def enumerate_norm(L: GramLattice, n: int):
    """All lattice vectors of norm exactly n (positive definite L only), as
    a lexicographically sorted list of coordinate tuples; n = 0 gives the
    zero vector alone."""
    import numpy as np

    rows, norms = _short_vectors(L, n)
    rows = rows[norms == n]
    return list(map(tuple, rows[np.lexsort(rows.T[::-1])].tolist()))


def rep_count(L: GramLattice, n: int, method: str = "auto") -> int:
    """Number of lattice vectors of norm n.

    ``method='auto'`` uses the exact counting models when the Gram matrix is
    a block-diagonal sum of the standard Gram matrices of A_n, D_n, E7 and
    even <k> (whatever the label says), and Fincke-Pohst otherwise;
    ``method='fincke-pohst'`` forces the generic walk, which counts norms
    without building the vectors; only the walk loads numpy.  Counts are
    exact Python integers, also past int64.  A lattice that is not positive
    definite is refused at every n, n = 0 included.
    """
    if n < 0:
        raise ValueError("norm must be nonnegative")
    if not L.is_positive_definite:
        raise ValueError("rep_count expects a positive-definite lattice")
    if n == 0:
        return 1
    if method == "auto":
        counts = _model_counts(L.gram, n // 2 + 1) if L.is_even else None
        if counts is not None:
            return counts[n // 2] if n % 2 == 0 else 0
    elif method not in ("fincke-pohst",):
        raise ValueError(f"unknown method {method!r}")
    return _short_vectors(L, n, coords=False)[1].get(n, 0)


def roots(L: GramLattice):
    """All vectors of norm 2."""
    return enumerate_norm(L, 2)


def theta_counts(L: GramLattice, prec: int, method: str = "auto"):
    """Counts c[m] = #{v : norm(v) = 2m} for 0 <= m < prec (even PD lattice).

    This is the coefficient list of the theta series on the integer exponent
    grid, obtained by exhaustive counting: dynamic programming over a Z^k
    coordinate model, without numpy, when each orthogonal block of the Gram
    matrix is a standard atom (as in `rep_count`), otherwise the
    Fincke-Pohst walk, which counts the norms of each block of vectors
    without keeping them.
    Coefficients are exact Python integers, also past int64.
    """
    if not L.is_even:
        raise ValueError("theta_counts expects an even lattice")
    if prec < 0:
        raise ValueError("prec must be non-negative")
    if method == "auto":
        c = _model_counts(L.gram, max(prec, 1))
        if c is not None:
            return list(c[:prec])
    elif method not in ("fincke-pohst",):
        raise ValueError(f"unknown method {method!r}")
    counts = _short_vectors(L, 2 * max(prec - 1, 0), coords=False)[1]
    return [counts.get(2 * k, 0) for k in range(prec)]


# -- fast exact counting models for standard lattices -----------------------


@lru_cache(maxsize=64)
def _model_counts(gram: tuple, prec: int):
    """Vector counts by half-norm from the Z^k coordinate models, or None.

    The Gram matrix is cut into its contiguous orthogonal diagonal blocks,
    and each block must have a model (`_atom_counts`); the counts of a
    direct sum are the product of its blocks' counts.
    """
    acc, start, n = [1], 0, len(gram)
    while start < n:
        # the block grows until no row in it reaches past its end
        end = start + 1
        while any(gram[i][j] for i in range(start, end) for j in range(end, n)):
            end += 1
        c = _atom_counts(tuple(row[start:end] for row in gram[start:end]), prec)
        if c is None:
            return None
        acc = _mul_trunc(acc, c, prec)
        start = end
    return tuple(acc)


def _atom_counts(block: tuple, prec: int):
    """The counts of one block by its model, or None: the block must be
    exactly the Gram matrix of A_n, D_n or E7, or a 1x1 even <k>, k > 0.
    It is compared with the Gram tuples that `A`, `D` and `E7` are built
    from, so no lattice is constructed."""
    n = len(block)
    if n == 1:
        k = block[0][0]
        if k <= 0 or k % 2:
            return None
        c = [0] * prec
        for x in itertools.count(0):
            half = k * x * x // 2
            if half >= prec:
                break
            c[half] += 1 if x == 0 else 2
        return c
    if block == _a_gram(n):
        return counts_sum_zero(n + 1, prec)
    if block == _d_gram(n):
        return counts_even_sum(n, prec)
    if block == _gram_from_doubled(E7_SIMPLE_DOUBLED):
        return counts_e7(prec)
    return None


def _max_abs(arr) -> int:
    return max(abs(int(arr.max())), abs(int(arr.min())))


def _coordinate_counts(steps, n_coords: int, rows: int, modulus: int):
    """col[s] = number of n_coords-tuples of steps whose row shifts add up to
    s and whose residues add up to 0 mod modulus, for 0 <= s < rows.

    Each step is a pair (row shift, residue) with 0 <= shift < rows.  The
    table holds one Python integer per residue class, the count at row s in
    slot s of b bits (Kronecker substitution); a step masks off the slots it
    would push past rows, shifts and adds, steps of equal shift (v and -v)
    sharing the shifted integer.  A cell counts tuples of steps, so it is at
    most len(steps)^n_coords < 2^b: no slot carries into the next, and the
    counts are exact at any size.  The last coordinate feeds only the class
    where the residue sum is = 0.
    """
    b = (len(steps) ** n_coords).bit_length() + 1
    mask = (1 << (b * rows)) - 1
    moves = [(b * sh, mask >> (b * sh), [r for t, r in steps if t == sh]) for sh in dict.fromkeys(sh for sh, _ in steps)]
    table = [1] + [0] * (modulus - 1)
    for _ in range(n_coords - 1):
        new = [0] * modulus
        for c, x in enumerate(table):
            if x:
                for s, low, residues in moves:
                    y = (x & low) << s
                    for r in residues:
                        new[(c + r) % modulus] += y
        table = new
    col = sum((table[-r % modulus] & low) << s for s, low, rs in moves for r in rs) if n_coords else 1
    slot = (1 << b) - 1
    return [(col >> (b * s)) & slot for s in range(rows)]


def _square_steps(xmax: int, modulus: int):
    """The steps (v^2, v mod modulus) of the integer coordinates |v| <= xmax."""
    return [(v * v, v % modulus) for v in range(-xmax, xmax + 1)]


def counts_sum_zero(n_coords: int, prec: int):
    """c[m] = #{x in Z^n : sum x_i = 0, sum x_i^2 = 2m}  (the A_{n-1} model)."""
    _check_prec(prec)
    rows = 2 * prec - 1
    xmax = isqrt(rows - 1)
    modulus = 2 * n_coords * xmax + 1
    col = _coordinate_counts(_square_steps(xmax, modulus), n_coords, rows, modulus)
    return [int(col[2 * m]) for m in range(prec)]


def counts_even_sum(n_coords: int, prec: int):
    """c[m] = #{x in Z^n : sum x_i even, sum x_i^2 = 2m}  (the D_n model)."""
    _check_prec(prec)
    rows = 2 * prec - 1
    col = _coordinate_counts(_square_steps(isqrt(rows - 1), 2), n_coords, rows, 2)
    return [int(col[2 * m]) for m in range(prec)]


def counts_e7(prec: int):
    """c[m] = N_{E7}(2m) via the zero-sum Z^8 model: vectors are z/2 with
    z in Z^8, sum z = 0, all z_i of equal parity, sum z_i^2 = 8m.

    The list is sliced from one cached table built to the next power of two
    at or above prec, so a sweep over growing precisions builds each size
    once.
    """
    _check_prec(prec)
    return list(_e7_table(1 << (prec - 1).bit_length())[:prec])


@lru_cache(maxsize=None)
def _e7_table(prec: int) -> tuple:
    """counts_e7 up to prec, by coordinate type.

    Even z = 2x are the A7 model.  Odd z = 2k+1 have (z^2 - 1)/8 = k(k+1)/2,
    so sum z^2 = 8m becomes a sum of eight triangular numbers equal to
    m - 1: prec - 1 rows instead of the 8(prec - 1) + 1 of the squares.
    """
    out = counts_sum_zero(8, prec)
    if prec > 1:
        rows = prec - 1
        zmax = isqrt(8 * (rows - 1) + 1)  # largest |z| with (z^2 - 1)/8 < rows
        modulus = 2 * 8 * zmax + 1
        steps = [((z * z - 1) // 8, z % modulus) for z in range(-zmax, zmax + 1) if z % 2]
        col = _coordinate_counts(steps, 8, rows, modulus)
        for m in range(1, prec):
            out[m] += int(col[m - 1])
    return tuple(out)


# ---------------------------------------------------------------------------
# orthogonal complements, isometry testing, reflections


def orthogonal_complement(L: GramLattice, vectors) -> GramLattice:
    """Gram matrix of the saturated sublattice orthogonal to the given
    (linearly independent) vectors."""
    vecs = [tuple(int(c) for c in getattr(v, "coords", v)) for v in vectors]
    # the rows v^T G (G is symmetric)
    kern = integer_kernel(_mat_mul(vecs, L.gram))
    if len(kern) != L.rank - len(vecs):
        raise ValueError("vectors are linearly dependent")
    # K G once, then (K G) K^t: k n^2 + k^2 n products
    g = _congruent(L.gram, list(zip(*kern)))
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
    _cross_check(chk == dmat, "lattices.snf_transform", "SNF transform mismatch")
    return dmat, ut, v


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


@lru_cache(maxsize=64)
def _norm_pools(L: GramLattice, norms: tuple):
    """(dtype, pools, images) for the isometry search into L: for each n in
    the sorted tuple ``norms``, pools[n] holds L's vectors of norm n as rows
    in lexicographic order and images[n] the rows G w of the same vectors.

    int64 holds every partial sum of the inner products the search takes
    with these rows unless the entries are huge; then the arrays hold Python
    integers.  A pool may be empty.  The arrays are read-only, since every
    caller shares them.
    """
    import numpy as np

    rows, found = _short_vectors(L, norms[-1])
    pools = {n: rows[found == n] for n in norms}
    big = max(abs(x) for row in L.gram for x in row) * max((_max_abs(p) for p in pools.values() if p.size), default=0) ** 2
    dtype = np.int64 if L.rank * L.rank * big <= _INT64_MAX else object
    g = np.array(L.gram, dtype=dtype)
    pools = {n: p[np.lexsort(p.T[::-1])].astype(dtype) for n, p in pools.items()}
    images = {n: p @ g for n, p in pools.items()}
    for arr in (*pools.values(), *images.values()):
        arr.flags.writeable = False
    return dtype, pools, images


def is_isometric(L1: GramLattice, L2: GramLattice) -> bool:
    """Backtracking isometry test for positive-definite lattices of rank
    <= ISOMETRY_MAX_RANK: the images of L1's basis vectors, placed in
    ``_search_order``, are drawn in lexicographic order from L2's vectors of
    the same norm.  Those pools and their images under L2's Gram matrix come
    from ``_norm_pools``, built once per (L2, norms) and shared by every test
    into L2 from a lattice with the same set of basis norms; L1 is only
    walked to count its vectors of each basis norm, which must match the
    pool sizes."""
    import numpy as np

    if L1.rank != L2.rank:
        return False
    if L1.rank > ISOMETRY_MAX_RANK:
        raise ValueError(f"rank {L1.rank} exceeds the cap {ISOMETRY_MAX_RANK}")
    if L1.det != L2.det:
        return False
    if not (L1.is_positive_definite and L2.is_positive_definite):
        raise ValueError("is_isometric expects positive-definite lattices")
    norms = tuple(sorted({L1.gram[i][i] for i in range(L1.rank)}))
    found = _short_vectors(L1, norms[-1], coords=False)[1]
    dtype, pools, images = _norm_pools(L2, norms)
    if any(len(pools[n]) != found.get(n, 0) for n in norms):
        return False
    order = _search_order(L1.gram)
    g1 = [[L1.gram[a][b] for b in order] for a in order]
    rank = L1.rank
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


def reflection_orbits(L: GramLattice, objects, generators=None):
    """Partition sublattice descriptors into orbits of the reflection group.

    ``objects``: iterable of root collections (each root a coordinate tuple),
    all of the same size; an empty iterable has no orbits.  ``generators``:
    reflection vectors to close under; defaults to the basis vectors when
    the basis consists of roots (then they generate the full Weyl group),
    otherwise all roots of L.

    Returns (orbit_count, orbit_sizes, representatives); representatives are
    the lexicographically smallest canonical object of each orbit and
    orbit_sizes is sorted descending, ties in the order of each orbit's
    first object.

    Two steps: ``_canonical_members`` gives the distinct sign-normalized
    roots, in lexicographic order, and each object as the ascending tuple of
    its root indices; ``_orbit_partition`` closes those index tuples under
    the group of the generators, moving them by the product of all the
    generators and by the generators it cannot show to lie in the group of
    that product and the ones already kept.  ``weyl.orbit_summary``
    enumerates index tuples directly and hands them to the same closure.
    """
    root_rows, members = _canonical_members(L, objects)
    count, sizes, reps = _orbit_partition(L, root_rows, members, generators)
    rows = [tuple(r) for r in root_rows.tolist()]
    return count, sizes, [tuple(rows[j] for j in members[i].tolist()) for i in reps]


def _canonical_members(L: GramLattice, objects):
    """(root_rows, members) for a collection of coordinate objects: the
    distinct sign-normalized roots as an (m, n) int64 array in lexicographic
    order, and an (N, k) array whose row i holds the indices of object i's
    roots in ascending order (its canonical form)."""
    import numpy as np

    arr = np.array(list(objects), dtype=np.int64)  # (N, k, n)
    if arr.shape == (0,):
        return np.zeros((0, L.rank), dtype=np.int64), np.zeros((0, 0), dtype=np.int64)
    if arr.ndim != 3 or arr.shape[2] != L.rank:
        raise ValueError("objects must be equal-size collections of coordinate vectors")
    count, size = arr.shape[:2]
    flat = _sign_normalize_rows(arr.reshape(-1, L.rank))
    _, first, root_of = np.unique(_pack_rows(flat), return_index=True, return_inverse=True)
    return flat[first], np.sort(root_of.reshape(count, size), axis=1)


def _orbit_partition(L: GramLattice, root_rows, members, generators=None):
    """Orbits of the index objects ``members`` (rows of ascending indices
    into the lexicographically ordered roots ``root_rows``) under the
    reflections in ``generators`` (default as in ``reflection_orbits``).

    Returns (orbit_count, orbit_sizes, representatives) with each
    representative given as a row index of ``members``.  Every generator's
    permutation of the roots is computed, which refuses isotropic and
    non-integral generators and images outside the roots.  The objects are
    then moved only by the generators that ``_kept_generators`` keeps, and,
    when it drops any, by the product c of all the generators (a Coxeter
    element when they are the simple roots) and by c^-1.  That set
    generates the same group, so a finite set closed under it is closed
    under the group.  Each object is packed once into an int64 key in base
    len(root_rows), which orders objects like their root tuples; sorting the
    moved keys and matching them to the sorted keys gives a move's
    permutation of the objects, or shows that the set is not closed.  Labels
    then fall to the smallest object index of each orbit by min-label
    propagation.  Root indices, object moves and labels are held in the
    narrowest unsigned dtype that holds them (``_index_dtype``).
    """
    import numpy as np

    count = len(members)
    if not count:
        return 0, [], []
    base = len(root_rows)
    at_root, at_object = _index_dtype(base), _index_dtype(count + 1)
    keys = _pack_rows(members, base)
    order = np.argsort(keys)
    sorted_keys = keys[order]
    order = order.astype(at_object)
    del keys
    if np.any(sorted_keys[1:] == sorted_keys[:-1]):
        raise ValueError("objects are not distinct after canonicalization")
    if generators is None:
        if all(L.gram[i][i] == 2 for i in range(L.rank)):
            generators = [tuple(1 if j == i else 0 for j in range(L.rank)) for i in range(L.rank)]
        else:
            generators = roots(L)
    generators = list(generators)
    # G r, (x, r) and x - c r stay in int64 unless the entries are huge; then
    # they run on Python integers, and images too large to pack are refused
    big = max(abs(x) for row in L.gram for x in row) * max([_max_abs(root_rows), *(abs(int(x)) for r in generators for x in r)]) ** 3
    dtype = np.int64 if 2 * L.rank**2 * big < _INT64_MAX // 2 else object
    gram_np = np.array(L.gram, dtype=dtype)
    tos = []  # per generator: index of each root's image
    for r in generators:
        rv = np.array(r, dtype=dtype)
        gr = gram_np @ rv
        rr = int(rv @ gr)
        if rr == 0:
            raise ValueError("cannot reflect in an isotropic vector")
        coeff = 2 * (root_rows @ gr)
        if np.any(coeff % rr):
            raise ValueError("reflection image is not integral")
        images = _sign_normalize_rows(root_rows - (coeff // rr)[:, None] * rv)
        root_keys, image_keys = _pack_rows(np.stack([root_rows, images]))
        tos.append(_lookup(root_keys, image_keys).astype(at_root))

    def object_move(to):
        # a min/max network over the columns sorts each moved object's root
        # indices; ``keys`` showed that the packed moves fit int64
        cols = [to[col] for col in members.T]
        for last in range(len(cols) - 1, 0, -1):
            for j in range(last):
                cols[j], cols[j + 1] = np.minimum(cols[j], cols[j + 1]), np.maximum(cols[j], cols[j + 1])
        moved = cols[0].astype(np.int64)
        for col in cols[1:]:
            moved = moved * base + col
        by_moved = np.argsort(moved)
        if not np.array_equal(moved[by_moved], sorted_keys):
            raise ValueError("object set is not closed under the reflection group")
        move = np.empty(count, dtype=at_object)
        move[by_moved] = order
        return move

    coxeter = np.arange(base, dtype=at_root)
    for to in tos:
        coxeter = to[coxeter]
    line_of = {row: i for i, row in enumerate(map(tuple, root_rows.tolist()))}
    lines = [line_of.get(_sign_normalize(tuple(int(x) for x in r)), -1) for r in generators]
    kept = _kept_generators(coxeter, tos, lines)
    moves = [object_move(tos[i]) for i in kept]
    if len(kept) < len(tos):
        move = object_move(coxeter)
        back = np.empty(count, dtype=at_object)
        back[move] = np.arange(count)
        moves += [move, back]
    # the moves are closed under inverses (reflections are involutions), so a
    # label that no move lowers is the smallest object index of its orbit;
    # labels[labels] jumps along chains
    labels = np.arange(count, dtype=at_object)
    while True:
        new = labels
        for move in moves:
            new = np.minimum(new, new[move])
        new = new[new]
        if np.array_equal(new, labels):
            break
        labels = new
    firsts = np.flatnonzero(labels == np.arange(count))
    sizes = np.bincount(labels)[firsts]
    rank_of = np.empty(count, dtype=at_object)
    rank_of[order] = np.arange(count)
    smallest = np.full(count, count, dtype=at_object)
    np.minimum.at(smallest, labels, rank_of)
    by_size = np.lexsort((firsts, -sizes))
    return len(firsts), sizes[by_size].tolist(), order[smallest[firsts[by_size]]].tolist()


def _kept_generators(coxeter, tos, lines):
    """Indices of the generators whose reflections, with the product c of
    all of them (``coxeter``, a permutation of the root lines), generate the
    group of all of them.

    ``tos[i]`` is generator i's permutation of the root lines and
    ``lines[i]`` its own line, or -1 when its vector is not one of the
    sign-normalized roots.  Since w s_a w^-1 = s_{w(a)}, the group H of c and
    the kept reflections holds the reflection in every line of the H-orbit
    of a kept line.  Generators are taken in order: one whose line lies in
    that orbit is dropped, any other is kept, and a kept line grows the
    orbit again under c and the kept permutations.
    """
    import numpy as np

    known = np.zeros(len(coxeter), dtype=bool)
    kept = []
    for i, line in enumerate(lines):
        if line >= 0 and known[line]:
            continue
        kept.append(i)
        if line < 0:
            continue
        known[line] = True
        while True:
            grown = known.copy()
            for to in (coxeter, *(tos[k] for k in kept)):
                grown[to[grown]] = True
            if np.array_equal(grown, known):
                break
            known = grown
    return kept


def _sign_normalize_rows(rows):
    """Negate, in place, each row whose first nonzero entry is negative."""
    import numpy as np

    nonzero = rows != 0
    if not nonzero.any(axis=1).all():
        raise ValueError("zero vector in sublattice descriptor")
    flip = rows[np.arange(len(rows)), nonzero.argmax(axis=1)] < 0
    rows[flip] = -rows[flip]
    return rows


def _lookup(sorted_keys, keys):
    """Positions of keys in the ascending array sorted_keys; ValueError when
    one is missing, i.e. the objects are not closed under a generator."""
    import numpy as np

    at = np.minimum(np.searchsorted(sorted_keys, keys), len(sorted_keys) - 1)
    if np.any(sorted_keys[at] != keys):
        raise ValueError("object set is not closed under the reflection group")
    return at


def _pack_rows(arr, base=None):
    """Pack the last axis of an integer array into int64 keys that order the
    rows lexicographically: row digits are offset by the array's smallest
    entry, in the base its range needs, unless ``base`` is given, when the
    entries must already be digits in range(base).  Raises ValueError when
    the keys would not fit in int64."""
    import numpy as np

    lo = 0
    if base is None:
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
    dmat, _, v = smith_normal_form(L.gram)
    facs, gens = [], []
    for i in range(L.rank):
        d = abs(dmat[i][i])
        if d == 1:
            continue
        # generator: G * (V e_i) = d * (Ut^{-1} e_i)  =>  (V e_i)/d lies in the dual
        facs.append(d)
        gens.append(tuple(Fraction(row[i], d) for row in v))
    _cross_check(prod(facs) == abs(L.det), "lattices.invariant_factor_product", "invariant factor product mismatch")
    # every b(x, y) at once: g^T G g for the generators as the columns of g
    b = _congruent(L.gram, list(zip(*gens)))
    q_values = tuple(row[i] % 2 for i, row in enumerate(b))
    return DiscriminantGroup(tuple(facs), tuple(gens), q_values, tuple(tuple(x % 1 for x in row) for row in b))
