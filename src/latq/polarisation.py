"""Orbit classification of primitive polarisation vectors in the rank-23
lattice 3U + 2E8(-1) + <-2t>.

A primitive vector h of norm 2d > 0 and divisor f determines the invariants
    g = gcd(2t/f, 2d/f),  w = gcd(g, f),  g1 = g/w,  f1 = f/w,
    t1 = 2t/(fg),  d1 = 2d/(fg),
and its orbit under the stable orthogonal group is determined by the residue
c mod f in h = f*v + c*l (gcd(c, f) = 1, l the norm -2t generator).  The
orbit count is therefore the number of admissible residues c, which the
oracle counts directly from the congruence f^2 | d + c^2 t; the case-split
closed formulas are checked against it.

The closed formulas factor through `arith._factor`, the one factorisation
in latq; the oracles count residues and factor nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .arith import _cross_check, _factor

__all__ = [
    "PolarisationQuery",
    "OrbitReport",
    "orbit_count_oracle",
    "orbit_witnesses",
    "orbit_count_formula",
    "perp_gram",
    "stable_index_oracle",
    "stable_index_formula",
    "disc_auto_order",
    "HypothesisViolation",
]


class HypothesisViolation(ValueError):
    """Raised when a query leaves the w = 1 regime the index formulas need."""


def _check_positive(t: int, d: int, f: int):
    # before any `% f`: f = 0 would raise ZeroDivisionError, f < 0 count nothing
    if t < 1 or d < 1 or f < 1:
        raise ValueError("t, d, f must be positive")


@dataclass(frozen=True)
class PolarisationQuery:
    t: int
    d: int
    f: int
    g: int
    w: int
    g1: int
    f1: int
    t1: int
    d1: int

    @classmethod
    def build(cls, t: int, d: int, f: int) -> "PolarisationQuery":
        _check_positive(t, d, f)
        if gcd(2 * t, 2 * d) % f:
            raise ValueError("f must divide gcd(2t, 2d)")
        g = gcd(2 * t // f, 2 * d // f)
        w = gcd(g, f)
        q = cls(
            t=t,
            d=d,
            f=f,
            g=g,
            w=w,
            g1=g // w,
            f1=f // w,
            t1=2 * t // (f * g),
            d1=2 * d // (f * g),
        )
        _cross_check(2 * t == q.w**2 * q.f1 * q.g1 * q.t1, "polarisation.t_factors", "2t != w^2 f1 g1 t1")
        _cross_check(2 * d == q.w**2 * q.f1 * q.g1 * q.d1, "polarisation.d_factors", "2d != w^2 f1 g1 d1")
        _cross_check(gcd(q.t1, q.d1) == 1 and gcd(q.f1, q.g1) == 1, "polarisation.coprime_invariants", "t1, d1 or f1, g1 are not coprime")
        return q


@dataclass(frozen=True)
class OrbitReport:
    t: int
    d: int
    f: int
    exists: bool
    count: int
    case: str
    witness_c: int | None

    def __post_init__(self):
        _cross_check((self.count > 0) == self.exists, "polarisation.count_vs_exists", "orbit count disagrees with existence")


def orbit_witnesses(t: int, d: int, f: int):
    """All residues c mod f with gcd(c, f) = 1 and f^2 | d + c^2 t."""
    return [c for c in range(f) if gcd(c, f) == 1 and (d + c * c * t) % (f * f) == 0]


def orbit_count_oracle(t: int, d: int, f: int) -> int:
    """Number of orbits of primitive norm-2d vectors with divisor f,
    counted directly via the defining congruence."""
    _check_positive(t, d, f)
    if gcd(2 * t, 2 * d) % f:
        return 0
    return len(orbit_witnesses(t, d, f))


def _rho(n: int) -> int:
    """The number of distinct primes dividing n."""
    return len(list(_factor(n)))


def _phi(n: int) -> int:
    out = n
    for p, _ in _factor(n):
        out -= out // p
    return out


def _w_split(w: int, f1: int):
    """w = w_plus * w_minus, w_plus the maximal-prime-power part of w at
    primes dividing f1."""
    w_plus = 1
    for p, e in _factor(w):
        if f1 % p == 0:
            w_plus *= p**e
    return w_plus, w // w_plus


def orbit_count_formula(t: int, d: int, f: int) -> OrbitReport:
    """Case-split closed formula for the orbit count."""
    _check_positive(t, d, f)
    if gcd(2 * t, 2 * d) % f:
        return OrbitReport(t, d, f, False, 0, "invalid-f", None)
    q = PolarisationQuery.build(t, d, f)
    w_plus, w_minus = _w_split(q.w, q.f1)
    base = w_plus * _phi(w_minus)
    witnesses = orbit_witnesses(t, d, f)
    wit = min(witnesses) if witnesses else None

    def report(exists, count, case):
        return OrbitReport(t, d, f, exists, count if exists else 0, case, wit if exists else None)

    if q.g1 % 2 == 0:
        case = "i"
        exists = (
            gcd(q.d1, q.f1) == 1
            and gcd(q.f1, q.t1) == 1
            and _solvable_quadratic(q.t1, q.d1, q.f1)
        )
        return report(exists, base * 2 ** _rho(q.f1), case)
    if q.f1 % 2 == 0 or q.d1 % 2 == 1:
        exists = (
            gcd(q.d1, q.f1) == 1
            and gcd(q.t1, 2 * q.f1) == 1
            and _solvable_quadratic(q.t1, q.d1, 2 * q.f1)
        )
        if q.f1 % 2 == 0:
            case = "ii-even-f1"
            count = base * 2 ** _rho(q.f1 // 2)
        else:
            case = "ii-odd-f1-odd-d1"
            count = base * 2 ** _rho(q.f1)
        return report(exists, count, case)
    case = "iii"
    exists = (
        gcd(q.d1, q.f1) == 1
        and gcd(q.t1, 2 * q.f1) == 1
        and q.w % 2 == 1
        and _solvable_quadratic(4 * q.t1, q.d1, q.f1)
    )
    return report(exists, base * 2 ** _rho(q.f1), case)


def _solvable_quadratic(tcoef: int, dcoef: int, mod: int) -> bool:
    """Does t1 x^2 = -d1 (mod mod) have a solution?"""
    return any((tcoef * x * x + dcoef) % mod == 0 for x in range(mod))


def perp_gram(t: int, d: int, f: int, c: int):
    """Gram matrix B of the rank-2 part of the orthogonal complement of
    h = f e1 + f b e2 + c l inside U + <-2t>; the full complement is
    2U + 2E8(-1) + B.

    Requires positive t, d, f with f | gcd(2t, 2d), gcd(c, f) = 1 and
    f^2 | d + c^2 t; b = (d + c^2 t)/f^2.
    """
    _check_positive(t, d, f)
    if gcd(2 * t, 2 * d) % f:
        raise ValueError("f must divide gcd(2t, 2d)")
    if gcd(c, f) != 1 or (d + c * c * t) % (f * f):
        raise ValueError("c is not an admissible residue for (t, d, f)")
    b = (d + c * c * t) // (f * f)
    s = c * 2 * t // f
    bmat = ((-2 * b, s), (s, -2 * t))
    det = 4 * b * t - s * s
    _cross_check(det == 4 * d * t // (f * f), "polarisation.complement_det", "complement determinant is not 4dt/f^2")
    return bmat


def stable_index_oracle(t: int, d: int, f: int) -> int:
    """Index of the stable subgroup inside the h-stabilizer, counted as
    #{x mod 2t/f : x^2 = 1 mod 2^{eps(f)} (2t/f)}, eps odd-f = 1."""
    _require_w1(t, d, f)
    n = 2 * t // f
    eps = 1 if f % 2 else 0
    mod = (2**eps) * n
    return sum(1 for x in range(n) if (x * x - 1) % mod == 0)


def stable_index_formula(t: int, d: int, f: int) -> int:
    """Closed form for the same index: 2^rho(t/f) for odd f, and
    2^{rho(2t/f) + delta} with the 2-adic correction delta for even f."""
    _require_w1(t, d, f)
    if f % 2:
        return 2 ** _rho(t // f)
    n = 2 * t // f
    if n % 2 == 1 or n % 8 == 4:
        delta = 0
    elif n % 4 == 2:
        delta = -1
    else:  # 0 mod 8
        delta = 1
    return 2 ** (_rho(n) + delta)


def _require_w1(t: int, d: int, f: int):
    q = PolarisationQuery.build(t, d, f)
    if q.w != 1:
        raise HypothesisViolation(f"w = {q.w} != 1 for (t, d, f) = ({t}, {d}, {f})")


def disc_auto_order(t: int) -> int:
    """Order of the automorphism group of the discriminant form of
    3U + 2E8(-1) + <-2t>: #{x mod 2t : x^2 = 1 mod 4t}."""
    if t < 1:
        raise ValueError("t must be positive")
    return sum(1 for x in range(2 * t) if (x * x - 1) % (4 * t) == 0)
