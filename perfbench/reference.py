"""Reference computations for the benchmark's correctness checks.

Nothing here imports latq: every count is recomputed from a coordinate model
in plain Python integers, so a check compares latq against an independent
computation, never against a stored copy of latq's output.  The published
witness table and the paper's statements on small and large degrees are
transcribed from the source paper.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import gcd, isqrt

# ---------------------------------------------------------------------------
# coordinate-model vector counts; c[m] = number of vectors of norm 2m, m < prec


def _square_sum_counts(values, n_coords, max_sq, constraint_mod):
    """Count x in values^n by (sum x_i mod constraint_mod or exact sum,
    sum x_i^2); returns {(s, q): count} after all coordinates."""
    states = {(0, 0): 1}
    for left in range(n_coords - 1, -1, -1):
        nxt = {}
        for (s, q), c in states.items():
            for x in values:
                q2 = q + x * x
                if q2 > max_sq:
                    continue
                if constraint_mod:
                    s2 = (s + x) % constraint_mod
                else:
                    s2 = s + x
                    # the remaining coordinates must bring the sum back to 0
                    if s2 * s2 > left * (max_sq - q2):
                        continue
                key = (s2, q2)
                nxt[key] = nxt.get(key, 0) + c
        states = nxt
    return states


@lru_cache(maxsize=None)
def counts_A(n: int, prec: int) -> tuple:
    """A_n: x in Z^(n+1) with sum x_i = 0."""
    max_sq = 2 * (prec - 1)
    r = isqrt(max_sq)
    states = _square_sum_counts(range(-r, r + 1), n + 1, max_sq, 0)
    out = [0] * prec
    for (s, q), c in states.items():
        if s == 0 and q % 2 == 0:
            out[q // 2] += c
    return tuple(out)


@lru_cache(maxsize=None)
def counts_D(n: int, prec: int) -> tuple:
    """D_n: x in Z^n with sum x_i even."""
    max_sq = 2 * (prec - 1)
    r = isqrt(max_sq)
    states = _square_sum_counts(range(-r, r + 1), n, max_sq, 2)
    out = [0] * prec
    for (s, q), c in states.items():
        if s == 0 and q % 2 == 0:
            out[q // 2] += c
    return tuple(out)


@lru_cache(maxsize=None)
def counts_E7(prec: int) -> tuple:
    """E7: z/2 with z in Z^8, all z_i of one parity, sum z_i = 0; the norm
    of z/2 is sum z_i^2 / 4."""
    max_sq = 8 * (prec - 1)
    r = isqrt(max_sq)
    out = [0] * prec
    for parity in (0, 1):
        vals = [z for z in range(-r, r + 1) if z % 2 == parity]
        for (s, q), c in _square_sum_counts(vals, 8, max_sq, 0).items():
            if s == 0 and q % 8 == 0:
                out[q // 8] += c
    return tuple(out)


def sigma(k: int, n: int) -> int:
    return sum(d**k for d in range(1, n + 1) if n % d == 0)


def counts_E8(prec: int) -> tuple:
    """E8: the theta series is the weight-4 Eisenstein series 1 + 240 sum sigma_3(m) q^m."""
    return tuple([1] + [240 * sigma(3, m) for m in range(1, prec)])


def convolve(a, b) -> tuple:
    """Counts of an orthogonal direct sum."""
    n = min(len(a), len(b))
    return tuple(sum(a[i] * b[m - i] for i in range(m + 1)) for m in range(n))


def counts_A1D4(prec: int) -> tuple:
    return convolve(counts_A(1, prec), counts_D(4, prec))


def counts_named(name: str, prec: int) -> tuple:
    """Counts for the lattice names the benchmark uses: A<n>, D<n>, E7, E8, A1D4."""
    if name == "E7":
        return counts_E7(prec)
    if name == "E8":
        return counts_E8(prec)
    if name == "A1D4":
        return counts_A1D4(prec)
    if name[0] == "A":
        return counts_A(int(name[1:]), prec)
    if name[0] == "D":
        return counts_D(int(name[1:]), prec)
    raise ValueError(f"no reference model for {name!r}")


@lru_cache(maxsize=None)
def five_square_counts(bound: int) -> tuple:
    """r_5(t) = #{x in Z^5 : sum x_i^2 = t} for 0 <= t < bound."""
    r = isqrt(bound)
    out = [0] * bound
    for (_, q), c in _square_sum_counts(range(-r, r + 1), 5, bound - 1, 1).items():
        out[q] += c
    return tuple(out)


def siegel_count(form: str, t: int) -> int:
    """Representations of t by S(X) = A[X]/2 for the three quintary forms."""
    if form == "S5":
        return five_square_counts(t + 1)[t]
    return counts_named(form, t + 1)[t]


# ---------------------------------------------------------------------------
# E7 in the doubled sum-zero model: simple roots, Cartan matrix, the 126 roots

# v_i = e_{i+2} - e_{i+1} (i = 1..6) and v_7 = (e_1+..+e_4 - e_5-..-e_8)/2,
# doubled so that every coordinate is an integer
E7_SIMPLE_DOUBLED = tuple(
    tuple(2 * ((k == i + 1) - (k == i)) for k in range(8)) for i in range(1, 7)
) + ((1, 1, 1, 1, -1, -1, -1, -1),)

# Dynkin diagram in the same order: the chain v1 - ... - v6 with v7 on v3
E7_CARTAN = tuple(
    tuple(2 if i == j else -1 if {i, j} in ({0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {2, 6}) else 0 for j in range(7))
    for i in range(7)
)


@lru_cache(maxsize=1)
def e7_roots_doubled() -> tuple:
    """The 126 roots, doubled: 2(e_i - e_j) and the half-vectors with four
    coordinates +1 and four -1."""
    out = []
    for i, j in itertools.permutations(range(8), 2):
        v = [0] * 8
        v[i], v[j] = 2, -2
        out.append(tuple(v))
    for plus in itertools.combinations(range(8), 4):
        out.append(tuple(1 if k in plus else -1 for k in range(8)))
    return tuple(out)


def e7_norm(lam) -> int:
    """Norm of a vector given in simple-root coordinates, from the Cartan matrix."""
    return sum(lam[i] * E7_CARTAN[i][j] * lam[j] for i in range(7) for j in range(7))


def e7_doubled(lam) -> tuple:
    return tuple(sum(c * v[k] for c, v in zip(lam, E7_SIMPLE_DOUBLED)) for k in range(8))


def e7_orthogonal_roots(lam) -> int:
    """Number of the 126 roots orthogonal to a vector in simple-root coordinates."""
    z = e7_doubled(lam)
    return sum(1 for r in e7_roots_doubled() if sum(a * b for a, b in zip(z, r)) == 0)


# ---------------------------------------------------------------------------
# E8 roots (the even coordinate system), for sublattice counts


@lru_cache(maxsize=1)
def e8_roots_doubled() -> tuple:
    out = []
    for i, j in itertools.combinations(range(8), 2):
        for si in (2, -2):
            for sj in (2, -2):
                v = [0] * 8
                v[i], v[j] = si, sj
                out.append(tuple(v))
    for signs in itertools.product((1, -1), repeat=8):
        if signs.count(-1) % 2 == 0:
            out.append(signs)
    return tuple(out)


def sublattice_counts(roots_doubled) -> dict:
    """Numbers of A1+A1, A2 and 4A1 sublattices spanned by roots: unordered
    orthogonal pairs of root lines, triples of root lines closing an A2, and
    quadruples of pairwise orthogonal root lines."""
    lines = [r for r in roots_doubled if next(x for x in r if x) > 0]
    n = len(lines)
    dot = [[sum(a * b for a, b in zip(lines[i], lines[j])) for j in range(n)] for i in range(n)]
    orth = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if dot[i][j] == 0:
                orth[i] |= 1 << j
    pairs = sum(bin(m).count("1") for m in orth)
    # root lines meeting at +-60 degrees: doubled inner product +-4
    a2_pairs = sum(1 for i in range(n) for j in range(i + 1, n) if abs(dot[i][j]) == 4)
    quads = 0
    for i in range(n):
        for j in _bits(orth[i]):
            mj = orth[i] & orth[j]
            for k in _bits(mj):
                quads += bin(mj & orth[k]).count("1")
    return {"A1+A1": pairs, "A2": a2_pairs // 3, "4A1": quads}


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# ---------------------------------------------------------------------------
# the paper's statements on the E7 search and the published witness table

# (d, orthogonal root pairs, witness in simple-root coordinates), as published
WITNESS_TABLE = (
    (9, 8, (-1, 2, 3, 1, 2, 1, 3)),
    (11, 8, (3, 3, 0, -1, -2, -1, 0)),
    (12, 7, (2, 1, 2, -2, 0, 0, 1)),
    (13, 7, (2, 3, -1, 1, 0, 0, -1)),
    (14, 6, (2, 0, 3, 0, 2, 1, 1)),
    (15, 7, (1, -2, 0, 2, 4, 2, 0)),
    (16, 6, (1, 0, -1, 3, 0, 0, -2)),
    (18, 5, (3, 2, 3, 2, 0, 0, -2)),
    (19, 6, (2, 3, 2, -3, -4, -2, 1)),
)
WITNESS_BOUND = {d: 2 * p for d, p, _ in WITNESS_TABLE}


def verdict_problems(d: int, classification: str, n_orthogonal, weight, witness) -> list:
    """Everything wrong with a verdict for degree d, checked against the
    paper's statements: general type for d >= 12; no vector with
    2 <= N <= 14 for d <= 11; N = 16 (weight 20) at d = 9 and 11."""
    bad = []
    if d >= 12:
        if classification != "GeneralType" or n_orthogonal is None or not 2 <= n_orthogonal <= 14:
            bad.append(f"d={d}: expected GeneralType with 2 <= N <= 14, got {classification} N={n_orthogonal}")
    elif classification == "GeneralType" or (n_orthogonal is not None and 2 <= n_orthogonal <= 14):
        bad.append(f"d={d}: no vector with 2 <= N <= 14 exists for d <= 11")
    if d in (9, 11) and (classification != "NonNegativeKodaira" or n_orthogonal != 16):
        bad.append(f"d={d}: expected NonNegativeKodaira with N = 16")
    if d in WITNESS_BOUND and n_orthogonal is not None and n_orthogonal > WITNESS_BOUND[d]:
        bad.append(f"d={d}: N={n_orthogonal} exceeds the published witness bound {WITNESS_BOUND[d]}")
    if n_orthogonal is not None and weight is not None and weight != 12 + n_orthogonal // 2:
        bad.append(f"d={d}: weight {weight} != 12 + N/2")
    if witness is not None:
        if e7_norm(witness) != 2 * d:
            bad.append(f"d={d}: witness norm {e7_norm(witness)} != {2 * d}")
        if e7_orthogonal_roots(witness) != n_orthogonal:
            bad.append(f"d={d}: witness is orthogonal to {e7_orthogonal_roots(witness)} roots, not {n_orthogonal}")
    elif classification != "Inconclusive":
        bad.append(f"d={d}: {classification} without a witness")
    return bad


# ---------------------------------------------------------------------------
# polarisation-orbit and stable-index counts from their definitions


def orbit_count(t: int, d: int, f: int) -> int:
    """Residues c mod f with gcd(c, f) = 1 and f^2 | d + c^2 t."""
    if gcd(2 * t, 2 * d) % f:
        return 0
    return sum(1 for c in range(f) if gcd(c, f) == 1 and (d + c * c * t) % (f * f) == 0)


def stable_index_w(t: int, d: int, f: int) -> int:
    """The invariant w = gcd(g, f), g = gcd(2t/f, 2d/f)."""
    return gcd(gcd(2 * t // f, 2 * d // f), f)


def stable_index(t: int, f: int) -> int:
    """#{x mod 2t/f : x^2 = 1 mod 2^eps 2t/f}, eps = 1 for odd f."""
    n = 2 * t // f
    mod = (2 if f % 2 else 1) * n
    return sum(1 for x in range(n) if (x * x - 1) % mod == 0)
