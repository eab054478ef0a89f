"""Short vectors of E7 orthogonal to few roots, and the resulting
Kodaira-dimension verdicts for split-polarised moduli of dimension 20.

A vector l of norm 2d in E7 that is orthogonal to N roots with 2 <= N <= 14
yields a cusp form of weight 12 + N/2 < 20 and hence a general-type verdict;
N = 16 (weight 20) still forces nonnegative Kodaira dimension.  The search
is exhaustive over the norm-2d shell, organized by the coordinate model
E7 = {x in Z^8 union (Z + 1/2)^8 : sum x_i = 0} whose vectors are doubled to
integer 8-tuples of constant parity; permutation-symmetry classes (sorted
tuples) cut the work by orders of magnitude without losing exhaustiveness.

The classes are enumerated one coordinate at a time as rows of integer
arrays, depth first on ``gram._Levels`` in blocks of at most ``gram._BLOCK``
array entries, so memory holds one block per level.
Each value is bounded from both the remaining sum and the remaining sum of
squares: the later coordinates are no smaller, so their squares can sum
neither to less than when all are equal nor to more than when all but one
equal this value.  The last two come in closed form from (b-a)^2 = 2q-s^2.

The invariants of a shell's classes are computed on the same array: the
orthogonal-root count (equal pairs, plus the zero sums of the 35
four-subsets through coordinate 0 by one matrix product), the class size
8!/prod m!, and the lex-smallest witness.  The witness is built, not
searched: one candidate per class (its minimum, then the rest in descending
order) instead of 8!, narrowed column by column to the lex-min.
Each shell is cached as one compact int16 class array with its root counts,
and every shell size is checked against the coefficient of the closed theta
identity `theta_e7`, which shares no code with the enumeration.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import lru_cache
from math import factorial, isqrt

from .arith import _cross_check
from .gram import _BLOCK, E7, E7_SIMPLE_DOUBLED, _isqrt, _Levels, theta_e7

__all__ = [
    "WITNESS_TABLE",
    "E7SearchResult",
    "Verdict",
    "orthogonal_root_count",
    "search",
    "weight",
    "inequality_check",
    "verdict",
    "lambda_to_doubled",
    "doubled_to_lambda",
]


# published witness rows (degree d, orthogonal root pairs p, coordinates in
# the simple-root basis); each is re-verified by the acceptance suite
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


def _integer_coords(v, n):
    """The n coordinates of v as ints; anything else is refused."""
    if len(v) != n:
        raise ValueError(f"expected {n} coordinates, got {len(v)}")
    try:
        return tuple(map(operator.index, v))
    except TypeError:
        raise ValueError(f"coordinates must be integers: {tuple(v)}") from None


def lambda_to_doubled(lam):
    """Simple-root coordinates -> doubled ambient 8-tuple (sum zero)."""
    lam = _integer_coords(lam, 7)
    z = [0] * 8
    for coef, vec in zip(lam, E7_SIMPLE_DOUBLED):
        for i in range(8):
            z[i] += coef * vec[i]
    _cross_check(sum(z) == 0, "kodaira.doubled_sum_zero", "doubled vector does not sum to zero")
    return tuple(z)


def doubled_to_lambda(z):
    """Doubled ambient 8-tuple -> integer simple-root coordinates.

    Only v7 touches e_1, so its coefficient is z[0]; the rest is a prefix
    sum along the difference chain v_1..v_6.
    """
    z = _integer_coords(z, 8)
    lam7 = z[0]
    v7 = E7_SIMPLE_DOUBLED[6]
    u = [zi - lam7 * vi for zi, vi in zip(z, v7)]
    lam = []
    acc = 0
    for i in range(1, 7):
        acc += u[i]
        if acc % 2:
            raise ValueError("vector is not in the lattice")
        lam.append(-acc // 2)
    lam.append(lam7)
    lam = tuple(lam)
    if lambda_to_doubled(lam) != z:
        raise ValueError("vector is not in the lattice")
    return lam


@lru_cache(maxsize=1)
def _e7_root_forms():
    """G r for each of the 126 roots r of E7 (Gram matrix G), so that the
    inner product of lam with r is the dot product of lam and G r.

    The roots are the closure of the simple roots e_i under the simple
    reflections r -> r - (r, e_i) e_i, where (r, e_i) = (G r)_i: pure Python,
    so that `table1` loads no numpy, and independent of the doubled model
    that the shell search uses."""
    g = E7().gram
    forms = {}
    todo = [tuple(int(i == j) for j in range(7)) for i in range(7)]
    while todo:
        r = todo.pop()
        if r not in forms:
            forms[r] = gr = tuple(sum(gi[j] * r[j] for j in range(7)) for gi in g)
            todo.extend(r[:i] + (r[i] - gr[i],) + r[i + 1 :] for i in range(7))
    return tuple(forms[r] for r in sorted(forms))


def orthogonal_root_count(lam) -> int:
    """Number of the 126 roots orthogonal to the given vector
    (simple-root coordinates)."""
    lam = _integer_coords(lam, 7)
    if not any(lam):
        raise ValueError("the zero vector is excluded")
    return sum(1 for w in _e7_root_forms() if sum(a * b for a, b in zip(lam, w)) == 0)


# ---------------------------------------------------------------------------
# exhaustive shell search in the sum-zero model


def _next_values(prefix, parity, lo, s, q):
    """(start, n): every admissible next value of each prefix is one of
    start, start + 2, ..., n of them.

    With k coordinates left that sum to s and whose squares sum to q, put
    D = k*q - s^2.  The next value v is the least of the k, so the other
    j = k - 1 are >= v and sum to s - v.  Their squares sum to at least
    (s - v)^2 / j (all equal) and to at most (j - 1)*v^2 + (s - j*v)^2 (all but
    one equal to v).  In t = s - k*v >= 0 the two bounds read t^2 <= j*D and
    j*t^2 >= D, so every v in range leaves a shell that real numbers can
    fill.
    """
    import numpy as np

    k = 8 - prefix.shape[1]
    j = k - 1
    D = k * q - s * s
    t_max = _isqrt(j * D)
    t_min = _isqrt(-(-D // j))
    t_min += j * t_min * t_min < D
    start = np.maximum(lo, -((t_max - s) // k))
    start += (start - parity) % 2
    # how many of start, start + 2, ... are <= (s - t_min) // k
    return start, np.maximum((s - t_min) // k - start, -2) // 2 + 1


def _sorted_shells(total_sq: int):
    """Nondecreasing integer 8-tuples z with sum 0, sum z^2 = total_sq and all
    z_i of one parity, as int64 arrays of rows: the even tuples, then the odd
    ones, each in lex order.

    The tuples grow one coordinate at a time (`_next_values`), and the last
    two coordinates a <= b follow from (b - a)^2 = 2q - s^2.  The levels
    wait on one `gram._Levels` stack, which hands out their children in
    blocks of at most ``_BLOCK`` array entries, so memory holds one block
    per level besides the yielded rows.
    """
    import numpy as np

    # one row per prefix: its values, their parity, the least next value,
    # and the sum and the sum of squares still to place
    state = (
        np.zeros((2, 0), dtype=np.int64),
        np.array([0, 1]),
        np.full(2, -isqrt(total_sq)),
        np.zeros(2, dtype=np.int64),
        np.full(2, total_sq),
    )
    levels = _Levels()
    while True:
        prefix, parity, lo, s, q = state
        if prefix.shape[1] == 6:
            e = 2 * q - s * s
            gap = _isqrt(np.maximum(e, 0))
            a = (s - gap) // 2
            # s is minus a sum of six values of one parity, so even, and a is exact
            ok = (gap * gap == e) & (gap % 2 == 0) & (a >= lo) & (a % 2 == parity)
            yield np.column_stack((prefix[ok], a[ok], a[ok] + gap[ok]))
        else:
            start, n = _next_values(*state)
            # the child j of prefix p takes the value start_p + 2j
            levels.push(n, prefix.shape[1] + 5, prefix, parity, start, s, q)
        block = levels.take()
        if block is None:
            return
        n, first, last, before, (prefix, parity, start, s, q) = block
        v = np.repeat(start - 2 * before, n) + 2 * np.arange(first, last)
        state = (
            np.column_stack((np.repeat(prefix, n, axis=0), v)),
            np.repeat(parity, n),
            v,
            np.repeat(s, n) - v,
            np.repeat(q, n) - v * v,
        )


@lru_cache(maxsize=1)
def _quad_matrix():
    """(8, 35) 0/1 matrix: one column per four-subset {0, a, b, c}, which
    holds coordinate 0 and so stands for one of each complementary pair."""
    import numpy as np

    m = np.zeros((8, 35), dtype=np.int64)
    for col, rest in enumerate(itertools.combinations(range(1, 8), 3)):
        m[(0, *rest), col] = 1
    return m


def _class_invariants(z):
    """Orthogonal-root counts and permutation-class sizes of sorted rows z.

    Integer roots e_i - e_j are orthogonal to z iff z_i = z_j, which gives
    sum m(m - 1) over the runs of equal values, twice the sum of each
    entry's 0-based position within its run.  A half-vector root is
    orthogonal iff its four-subset P has sum_P z = 0, one +/- pair each; a
    class sums to zero, so P does iff its complement does, and the subsets
    through coordinate 0 are counted twice.  The class size is
    8! / prod m! = 8! / prod (1-based position within the run).
    """
    import numpy as np

    pos = np.zeros_like(z)
    for i in range(1, 8):
        pos[:, i] = (pos[:, i - 1] + 1) * (z[:, i] == z[:, i - 1])
    counts = 2 * pos.sum(axis=1) + 2 * np.count_nonzero(z @ _quad_matrix() == 0, axis=1)
    sizes = factorial(8) // np.prod(pos + 1, axis=1)
    return counts, sizes


@dataclass(frozen=True, slots=True)
class E7SearchResult:
    d: int
    shell_size: int
    achievable: tuple  # sorted orthogonal-root counts >= 2 that occur
    min_orthogonal: int | None  # minimum over counts >= 2
    witness: tuple | None  # lex-smallest simple-root coordinates attaining it
    max_roots: int

    @property
    def weight(self):
        return None if self.min_orthogonal is None else weight(self.min_orthogonal)

    @property
    def success(self) -> bool:
        return self.min_orthogonal is not None and self.min_orthogonal <= self.max_roots


@lru_cache(maxsize=64)
def _shell_classes(d: int):
    """(shell size, classes, counts) for the norm-2d shell: one int16 row per
    permutation class (a sorted doubled 8-tuple) and its orthogonal-root
    count."""
    import numpy as np

    # |z_i| <= sqrt(8d) must fit the int16 cache; this also keeps the
    # enumeration's square roots (of at most 448d) below 2^52
    if isqrt(8 * d) > np.iinfo(np.int16).max:
        raise ValueError(f"d={d} is beyond the int16 class cache")
    shell, classes, counts = 0, [], []
    for z in _sorted_shells(8 * d):
        n, sizes = _class_invariants(z)
        shell += int(sizes.sum())
        classes.append(z.astype(np.int16))
        counts.append(n.astype(np.int16))
    expected = theta_e7(d + 1)[d]
    _cross_check(shell == expected, "kodaira.shell_size", f"shell size mismatch at d={d}: {shell} vs {expected}")
    return shell, np.concatenate(classes), np.concatenate(counts)


def _lex_min_witness(classes) -> tuple:
    """Lexicographically smallest simple-root coordinate tuple over all
    coordinate permutations of the given shell classes (doubled 8-tuples).

    lambda_7 = z_0 and lambda_i = lambda_{i-1} - (z_i - z_0 * v7_i) / 2, so
    lambda_1 = (z_0 - z_1) / 2 is least when z_0 is the class minimum and z_1
    its maximum, and with z_0 fixed each later lambda_i falls as z_i grows:
    one candidate per class, its minimum followed by the rest in descending
    order, instead of 8! permutations.  The classes are read ``_BLOCK``
    array entries at a time, and the least of the blocks' minima wins.
    """
    import numpy as np

    classes, step, best = np.asarray(classes).reshape(-1, 8), max(1, _BLOCK // 8), None
    for i in range(0, len(classes), step):
        z = np.sort(classes[i : i + step].astype(np.int64), axis=1)
        # all permutations lie in the lattice iff one parity and sum zero
        _cross_check(not z.sum(axis=1).any() and not (z % 2 != z[:, :1] % 2).any(), "kodaira.class_in_lattice", "shell class left the lattice")
        cand = z[:, [0, 7, 6, 5, 4, 3, 2, 1]]
        # doubled_to_lambda on every candidate: a prefix sum along v_1..v_6
        num = np.cumsum(cand[:, 1:7] - cand[:, :1] * np.array(E7_SIMPLE_DOUBLED[6][1:7]), axis=1)
        _cross_check(not (num % 2).any(), "kodaira.even_numerator", "odd simple-root numerator in a lattice class")
        lam = np.column_stack((-num // 2, cand[:, 0]))
        # lex-min row: narrow to the minimum of each column in turn
        keep = np.arange(len(lam))
        for col in range(7):
            keep = keep[lam[keep, col] == lam[keep, col].min()]
        row = tuple(lam[keep[0]].tolist())
        if best is None or row < best[0]:
            best = row, tuple(cand[keep[0]].tolist())
    # exact reconstruction check on the chosen witness
    _cross_check(doubled_to_lambda(best[1]) == best[0], "kodaira.witness_round_trip", "witness does not round-trip through the doubled model")
    return best[0]


@lru_cache(maxsize=128)
def search(d: int, max_roots: int = 14) -> E7SearchResult:
    """Exhaustive scan of the norm-2d shell of E7.

    Returns the achievable set of orthogonal-root counts >= 2, the minimum,
    and the lexicographically smallest witness vector attaining it.
    """
    import numpy as np

    if d < 1:
        raise ValueError("d must be positive")
    shell, classes, counts = _shell_classes(d)
    achievable = tuple(n for n in np.flatnonzero(np.bincount(counts)).tolist() if n >= 2)
    if not achievable:
        return E7SearchResult(d, shell, achievable, None, None, max_roots)
    best = achievable[0]
    return E7SearchResult(d, shell, achievable, best, _lex_min_witness(classes[counts == best]), max_roots)


def weight(n_orthogonal: int) -> int:
    """Cusp-form weight 12 + N/2 attached to a vector orthogonal to N >= 2
    roots."""
    if n_orthogonal % 2:
        raise ValueError("orthogonal-root counts are even")
    if n_orthogonal < 2:
        raise ValueError("need at least one orthogonal root pair")
    return 12 + n_orthogonal // 2


# ---------------------------------------------------------------------------
# the counting inequality and the final verdict


@lru_cache(maxsize=4)
def _theta_tables(prec: int):
    # only the inequality reads theta series; a search or verdict loads no qseries
    from .qseries import theta_A, theta_D

    d6 = theta_D(6, prec).coeffs
    a5 = theta_A(5, prec).coeffs
    a1 = theta_A(1, prec)
    d4 = theta_D(4, prec)
    a1d4 = (a1 * d4).coeffs
    return d6, a1d4, a5


def inequality_check(m: int, coefficient: int):
    """Slack of coefficient*N_{D6}(2m) - 30 N_{A1+D4}(2m) - 16 N_{A5}(2m).

    Returns (holds, slack) with holds = (slack > 0).  The coefficient at m
    is the same at every precision above m, so the tables are built at the
    least power of two >= 128 that covers m: a scan to m_max builds
    O(log m_max) of them.
    """
    if coefficient not in (5, 6):
        raise ValueError("coefficient must be 5 or 6")
    if m < 1:
        raise ValueError("m must be positive")
    d6, a1d4, a5 = _theta_tables(1 << (max(m + 1, 128) - 1).bit_length())
    slack = coefficient * d6[m] - 30 * a1d4[m] - 16 * a5[m]
    return slack > 0, slack


@dataclass(frozen=True, slots=True)
class Verdict:
    d: int
    classification: str  # GeneralType | NonNegativeKodaira | Inconclusive
    n_orthogonal: int | None
    weight: int | None
    witness: tuple | None

    @property
    def certificate(self):
        return {
            "witness": self.witness,
            "n_orthogonal": self.n_orthogonal,
            "weight": self.weight,
            "exhaustive": True,
        }


def verdict(d: int) -> Verdict:
    """Kodaira-dimension verdict for polarisation degree d, certified by the
    exhaustive shell search."""
    res = search(d)
    if res.min_orthogonal is not None and 2 <= res.min_orthogonal <= 14:
        return Verdict(d, "GeneralType", res.min_orthogonal, weight(res.min_orthogonal), res.witness)
    if 16 in res.achievable:
        _, classes, counts = _shell_classes(d)
        return Verdict(d, "NonNegativeKodaira", 16, weight(16), _lex_min_witness(classes[counts == 16]))
    return Verdict(d, "Inconclusive", res.min_orthogonal, None, None)
