"""Short vectors of E7 orthogonal to few roots, and the resulting
Kodaira-dimension verdicts for split-polarised moduli of dimension 20.

A vector l of norm 2d in E7 that is orthogonal to N roots with 2 <= N <= 14
yields a cusp form of weight 12 + N/2 < 20 and hence a general-type verdict;
N = 16 (weight 20) still forces nonnegative Kodaira dimension.  The search
is exhaustive over the norm-2d shell, organized by the coordinate model
E7 = {x in Z^8 union (Z + 1/2)^8 : sum x_i = 0} whose vectors are doubled to
integer 8-tuples of constant parity; permutation-symmetry classes (sorted
tuples) cut the work by orders of magnitude without losing exhaustiveness.
A class's lex-smallest witness is built, not searched: at most 8 candidates
(one per first coordinate, the rest in descending order) instead of 8!.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from math import factorial, isqrt

from .lattices import E7, E7_SIMPLE_DOUBLED, counts_e7, enumerate_norm, inner
from .qseries import theta_A, theta_D

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


def lambda_to_doubled(lam):
    """Simple-root coordinates -> doubled ambient 8-tuple (sum zero)."""
    z = [0] * 8
    for coef, vec in zip(lam, E7_SIMPLE_DOUBLED):
        for i in range(8):
            z[i] += coef * vec[i]
    if sum(z) != 0:
        raise AssertionError("doubled vector does not sum to zero")
    return tuple(z)


def doubled_to_lambda(z):
    """Doubled ambient 8-tuple -> integer simple-root coordinates.

    Only v7 touches e_1, so its coefficient is z[0]; the rest is a prefix
    sum along the difference chain v_1..v_6.
    """
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
    if lambda_to_doubled(lam) != tuple(z):
        raise ValueError("vector is not in the lattice")
    return lam


@lru_cache(maxsize=1)
def _e7_roots_basis():
    return enumerate_norm(E7(), 2)


def orthogonal_root_count(lam) -> int:
    """Number of the 126 roots orthogonal to the given vector
    (simple-root coordinates)."""
    L = E7()
    if not any(lam):
        raise ValueError("the zero vector is excluded")
    return sum(1 for r in _e7_roots_basis() if inner(L, lam, r) == 0)


# ---------------------------------------------------------------------------
# exhaustive shell search in the sum-zero model


def _sorted_shells(total_sq: int, parity: int):
    """Nondecreasing integer 8-tuples z with sum 0, sum z^2 = total_sq and
    all z_i = parity mod 2."""
    out = []
    z = [0] * 8

    def rec(idx, lo, rem_sum, rem_sq):
        k = 8 - idx
        if k == 1:
            if rem_sum >= lo and rem_sum * rem_sum == rem_sq and rem_sum % 2 == parity:
                z[idx] = rem_sum
                out.append(tuple(z))
            return
        # k coordinates, each >= val and nondecreasing:
        #   k*val <= rem_sum            (monotone bound)
        #   (rem_sum - val)^2 <= (k-1)(rem_sq - val^2)   (Cauchy-Schwarz)
        root = isqrt(rem_sq)
        hi = min(root, rem_sum // k)
        start = max(lo, rem_sum - isqrt((k - 1) * rem_sq), -root)
        if (start - parity) % 2:
            start += 1
        for val in range(start, hi + 1, 2):
            sq = val * val
            nq = rem_sq - sq
            if nq < 0:
                continue
            ns = rem_sum - val
            if ns * ns > (k - 1) * nq:
                continue
            z[idx] = val
            rec(idx + 1, val, ns, nq)
        z[idx] = 0

    lo0 = -isqrt(total_sq) - 1
    rec(0, lo0, 0, total_sq)
    return out


# the 35 four-subsets {0, a, b, c} of the coordinates, one of each
# complementary pair
_QUAD_REST = tuple(itertools.combinations(range(1, 8), 3))


def _class_root_count(z) -> int:
    """Orthogonal-root count of a shell class (permutation invariant)."""
    # integer roots e_i - e_j: orthogonal iff z_i = z_j
    counts = Counter(z)
    n_int = sum(m * (m - 1) for m in counts.values())
    # half-vector roots: subsets P of size 4 with sum_P z = 0 give a +/- pair.
    # The class sums to zero, so P sums to 0 exactly when its complement
    # does: count the subsets holding coordinate 0 and double.
    target = -z[0]
    n_half = 2 * sum(z[a] + z[b] + z[c] == target for a, b, c in _QUAD_REST)
    return n_int + n_half


def _class_size(z) -> int:
    size = factorial(8)
    for m in Counter(z).values():
        size //= factorial(m)
    return size


@dataclass(frozen=True)
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
    """(shell size, {orthogonal count: [sorted class tuples]}) for norm 2d."""
    per_class = {}
    shell = 0
    for parity in (0, 1):
        for z in _sorted_shells(8 * d, parity):
            n = _class_root_count(z)
            shell += _class_size(z)
            per_class.setdefault(n, []).append(z)
    expected = counts_e7(d + 1)[d]
    if shell != expected:
        raise AssertionError(f"shell size mismatch at d={d}: {shell} vs {expected}")
    return shell, per_class


def _lex_min_witness(classes) -> tuple:
    """Lexicographically smallest simple-root coordinate tuple over all
    coordinate permutations of the given shell classes.

    lambda_7 = z_0 and lambda_i = lambda_{i-1} - (z_i - z_0 * v7_i) / 2, so
    with z_0 fixed each lambda_i falls as z_i grows and the lex-min puts the
    other seven values in descending order: one candidate per distinct z_0.
    """
    best = None
    for z in classes:
        # all permutations lie in the lattice iff one parity and sum zero
        if sum(z) or len({zi % 2 for zi in z}) != 1:
            raise AssertionError("shell class left the lattice")
        desc = sorted(z, reverse=True)
        for z0 in set(z):
            i = desc.index(z0)
            cand = doubled_to_lambda((z0, *desc[:i], *desc[i + 1 :]))
            if best is None or cand < best:
                best = cand
    # exact reconstruction check on the chosen witness
    if doubled_to_lambda(lambda_to_doubled(best)) != best:
        raise AssertionError("witness does not round-trip through the doubled model")
    return best


@lru_cache(maxsize=128)
def search(d: int, max_roots: int = 14) -> E7SearchResult:
    """Exhaustive scan of the norm-2d shell of E7.

    Returns the achievable set of orthogonal-root counts >= 2, the minimum,
    and the lexicographically smallest witness vector attaining it.
    """
    if d < 1:
        raise ValueError("d must be positive")
    shell, per_class = _shell_classes(d)
    achievable = tuple(sorted(n for n in per_class if n >= 2))
    if not achievable:
        return E7SearchResult(d, shell, achievable, None, None, max_roots)
    best = achievable[0]
    return E7SearchResult(d, shell, achievable, best, _lex_min_witness(per_class[best]), max_roots)


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
    d6 = theta_D(6, prec).coeffs
    a5 = theta_A(5, prec).coeffs
    a1 = theta_A(1, prec)
    d4 = theta_D(4, prec)
    a1d4 = (a1 * d4).coeffs
    return d6, a1d4, a5


def inequality_check(m: int, coefficient: int, prec: int = 128):
    """Slack of coefficient*N_{D6}(2m) - 30 N_{A1+D4}(2m) - 16 N_{A5}(2m).

    Returns (holds, slack) with holds = (slack > 0).
    """
    if coefficient not in (5, 6):
        raise ValueError("coefficient must be 5 or 6")
    if m >= prec:
        prec = m + 1
    d6, a1d4, a5 = _theta_tables(max(prec, 128))
    slack = coefficient * d6[m] - 30 * a1d4[m] - 16 * a5[m]
    return slack > 0, slack


@dataclass(frozen=True)
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
    if res.achievable and 16 in res.achievable:
        _, per_class = _shell_classes(d)
        return Verdict(d, "NonNegativeKodaira", 16, weight(16), _lex_min_witness(per_class[16]))
    return Verdict(d, "Inconclusive", res.min_orthogonal, None, None)
