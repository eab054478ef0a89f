"""Representation numbers of odd-rank quadratic forms via local densities.

For an even positive-definite Gram matrix A of odd rank m = 2*m1 + 1 and the
integer-valued form S(X) = A[X]/2, the genus average of the representation
numbers factors into local densities.  This module provides, all in exact
arithmetic:

  * Kronecker symbols, fundamental discriminants, square-root counts mod 4n
    (the b_n coefficients) and the resulting Dirichlet series evaluated both
    numerically with a rigorous tail bound and exactly at nonpositive
    integers via generalized Bernoulli numbers (the Cohen numbers),
  * closed-form 2- and 3-adic densities for the three one-class quintary
    forms handled here (sum of five squares, A1+D4, A5),
  * a definitional counting oracle: block-diagonalize the form over Z_p with
    an exact unimodular transform and count solutions of S(X) = t mod p^a:
    each distinct block's value counts by a split x = x0 + p^ceil(a/2) z (a
    bincount over p^(ceil(a/2) k) points), convolved as functions on the
    O(a) square classes {u^2 v} of Z/p^a, with stabilization checking; a
    form key is read as its S-matrix, and the counts are memoised per
    (S-matrix, p, a),
  * the assembled representation numbers r(t) with two independent routes
    (exact Cohen-number route, numeric L-value route) that must agree.

Every factorisation in latq (square-free kernels, divisors, Moebius, and
the polarisation counts) is read off the one trial division
`arith._factor`, and every integer p-adic valuation is `arith._ord`.  The
numeric L-value route factors no n: it tabulates b_n for all n at once over
a prime sieve, with the Legendre symbols (delta/p) of every prime from one
Euler-criterion pass on arrays, not from `kronecker`, so that for p not
dividing delta it checks the Cohen route's chi_D rather than sharing it.
Its enclosure is memoised per (delta, terms), so each discriminant builds
one table however many t share it.  The Cohen number is memoised per
(m1, delta) the same way, in its own cache: a round of t = 1..40 on the
three forms computes 43 Cohen numbers, not 120.  `siegel_r` factors 2 t |A|
once and reads t_a, t1, t2, D and every chi_D(p) off that split; the
closed 2- and 3-adic densities read only the class of t.  The Cohen
route's generalized Bernoulli numbers come from integer power sums
sum_a chi(a) a^j, with rationals only in the final n + 1 terms.  Neither
the enclosure's memo nor the power sums factor anything.  The counting
oracle factors nothing either, so it stays independent of the closed forms
it certifies.  The oracle's Jordan split is verified on integer matrices,
each scaled by one common denominator.

Densities are normalized as limits of p^{-a(m-1)} #{X mod p^a : S(X) = t}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, isqrt, lcm

from .arith import _cross_check, _factor, _ord
from .gram import A as _A
from .gram import D as _D
from .gram import _congruent, _det_bareiss, direct_sum, span

__all__ = [
    "kronecker",
    "field_discriminant",
    "split_discriminant",
    "decompose_t",
    "ZagierDiscriminant",
    "discriminant_of",
    "zagier_L_numeric",
    "bernoulli_number",
    "generalized_bernoulli",
    "cohen_H",
    "alpha_infinity",
    "alpha_regular",
    "alpha2_S5",
    "alpha2_A1D4",
    "alpha2_A5",
    "alpha3_A5",
    "jordan_split",
    "local_density_oracle",
    "oracle_alpha",
    "OddForm",
    "FORMS",
    "DensityReport",
    "siegel_r",
    "nd6",
    "local_factor",
]


# ---------------------------------------------------------------------------
# characters and discriminants


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a/n), defined for all integers."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    sign = 1
    if n < 0:
        n = -n
        if a < 0:
            sign = -sign
    result = sign
    while n % 2 == 0:
        n //= 2
        if a % 2 == 0:
            return 0
        if a % 8 in (3, 5):
            result = -result
    # now n odd; Jacobi symbol by reciprocity
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _squarefree_kernel(n: int):
    """(k, s) with n = k * s^2 and k squarefree (sign carried by k)."""
    if n == 0:
        raise ValueError("kernel of 0 is undefined")
    k, s = (-1 if n < 0 else 1), 1
    for p, e in _factor(abs(n)):
        s *= p ** (e // 2)
        if e % 2:
            k *= p
    return k, s


def field_discriminant(n: int) -> int:
    """Discriminant of Q(sqrt(n)); 1 when n is a square."""
    k, _ = _squarefree_kernel(n)
    return k if k % 4 == 1 else 4 * k


def split_discriminant(delta: int):
    """Split delta = D*f^2 with D a fundamental discriminant (delta = 0,1 mod 4)."""
    if delta % 4 not in (0, 1) or delta == 0:
        raise ValueError("argument must be a nonzero discriminant (0 or 1 mod 4)")
    k, s = _squarefree_kernel(delta)
    if k % 4 == 1:
        return k, s
    if s % 2:
        raise ValueError("not a discriminant")
    return 4 * k, s // 2


def decompose_t(t: int, det_a: int):
    """t = t_A * t1 * t2^2 with t_A supported on primes of det_a, t1 squarefree."""
    if t < 1:
        raise ValueError("t must be positive")
    t_a = 1
    for p, _ in _factor(abs(det_a)):
        t_a *= p ** _ord(t, p)
    t1, t2 = _squarefree_kernel(t // t_a)
    return t_a, t1, t2


@dataclass(frozen=True)
class ZagierDiscriminant:
    """delta = D * f^2 with D fundamental (or 1)."""

    delta: int
    D: int
    f: int

    def __post_init__(self):
        if self.delta != self.D * self.f * self.f:
            raise ValueError("delta != D * f^2")


def discriminant_of(form: "OddForm", t: int) -> ZagierDiscriminant:
    """The discriminant D*t2^2 entering the L-value for the pair (form, t)."""
    _, _, t2 = decompose_t(t, form.det_a)
    dd = field_discriminant(2 * t * form.det_a)
    return ZagierDiscriminant(dd * t2 * t2, dd, t2)


def _split_t(t: int, det_a: int) -> tuple:
    """(t_a, t1, t2, D): `decompose_t(t, det_a)` and the field discriminant
    D of 2 t |A|, read off one factorisation of 2 t |A|.

    The exponent of p in t is its exponent in 2 t |A| less its exponent in
    2 |A|, and the square-free kernel of 2 t |A| is the product of the p
    with an odd exponent.
    """
    two_det = 2 * det_a
    t_a = t1 = t2 = kernel = 1
    for p, e in _factor(two_det * t):
        if e % 2:
            kernel *= p
        if two_det % p == 0:
            e -= _ord(two_det, p)
        if det_a % p == 0:
            t_a *= p**e
        else:
            t1 *= p ** (e % 2)
            t2 *= p ** (e // 2)
    return t_a, t1, t2, kernel if kernel % 4 == 1 else 4 * kernel


# ---------------------------------------------------------------------------
# b_n counts and the associated Dirichlet series


def _sqrt_count_mod_pp(delta: int, p: int, e: int) -> int:
    """#{x mod p^e : x^2 = delta mod p^e} for delta != 0."""
    j = _ord(delta, p)
    if j >= e:
        return p ** (e // 2)
    if j % 2:
        return 0
    d = delta // p**j
    scale = p ** (j // 2)
    r = e - j
    if p != 2:
        return 2 * scale if kronecker(d, p) == 1 else 0
    if r == 1:
        return scale
    if r == 2:
        return 2 * scale if d % 4 == 1 else 0
    return 4 * scale if d % 8 == 1 else 0


@lru_cache(maxsize=4)
def _primes_upto(n: int) -> np.ndarray:
    """The primes p <= n as a read-only int64 array, by the sieve of Eratosthenes."""
    import numpy as np

    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    primes = np.flatnonzero(sieve).astype(np.int64)
    primes.flags.writeable = False  # shared by every caller through the cache
    return primes


def _small_prime_count(terms: int) -> int:
    """How many primes p <= terms are small: 2 and the p with p^2 <= terms."""
    import numpy as np

    return max(1, int(np.searchsorted(_primes_upto(terms), isqrt(terms), side="right")))


@lru_cache(maxsize=4)
def _large_prime_index(terms: int) -> np.ndarray:
    """big[n] = i if the i-th large prime (the odd p with p^2 > terms) divides
    n, else -1, for 0 <= n <= terms, as a read-only int32 array.

    n <= terms has at most one prime factor p with p^2 > terms, and p || n,
    so one index per n says all that the large primes contribute to b_n, and
    the multiples k * p (1 <= k <= terms // p) of all the large primes are
    written by one scatter, with no two writes to the same n.
    """
    import numpy as np

    large = _primes_upto(terms)[_small_prime_count(terms) :]
    counts = terms // large
    owner = np.repeat(np.arange(large.size, dtype=np.int32), counts)
    k = np.arange(1, owner.size + 1) - np.repeat(np.cumsum(counts) - counts, counts)
    big = np.full(terms + 1, -1, dtype=np.int32)
    big[k * large[owner]] = owner
    big.flags.writeable = False
    return big


def _legendre(residues: np.ndarray, primes: np.ndarray) -> np.ndarray:
    """(r/p) for increasing primes p and 0 <= r < p, all at once by Euler's
    criterion r^((p-1)/2) = (r/p) mod p, as an int64 array.  The entry at
    p = 2 means nothing.

    Left-to-right square-and-multiply, in place: the bits of every exponent
    (p - 1)/2 are boolean planes, most significant first, and plane i
    multiplies by r where it is set and by 1 elsewhere (a shorter exponent
    squares 1 until its leading bit).  Every product is below p^2, so the
    ladder runs in uint32 while p < 2^16 and in uint64 otherwise, and p^2
    must stay below 2^63.
    """
    import numpy as np

    top = int(primes[-1]) if primes.size else 0
    if top * top >= 2**63:
        raise ValueError("Euler's criterion on int64 primes needs p^2 < 2^63")
    dtype = np.uint32 if top < 2**16 else np.uint64
    p, r = primes.astype(dtype), residues.astype(dtype)
    bits = dtype(1) << np.arange((top // 2).bit_length() - 1, -1, -1, dtype=dtype)[:, None]
    planes = (((p - 1) >> 1) & bits) != 0
    bases = planes * r + ~planes  # r where the bit is set, 1 elsewhere
    power = np.ones_like(p)
    for base in bases:
        power *= power
        power %= p
        power *= base
        power %= p
    symbols = power.astype(np.int64)
    symbols[power == p - 1] = -1
    return symbols


def _b_table(delta: int, terms: int) -> np.ndarray:
    """[b_n(delta, n) for n in 0..terms] as an int64 array; factors no n.

    b_n is half the product over p^e || 4n of the local counts
    `_sqrt_count_mod_pp(delta, p, e)`.  For an odd p not dividing delta the
    count is 1 + (delta/p) at every exponent (Hensel), and the symbols of
    all primes p <= terms come from one Euler-criterion pass over delta mod
    p.  delta is reduced on int64 when |delta| < 2^63 and on Python ints
    otherwise, so any |delta| is exact.  So:

      * the large primes (p^2 > terms) divide each n at most once and at
        most one of them divides n, so the table starts as one gather of
        1 + (delta/p) through `_large_prime_index`.  A large p | delta has
        count 1 = 1 + 0;
      * 2 and the odd p | delta with p^2 <= terms multiply the multiples of
        p by their count at the exponent of p in 4n (the odd n by the
        2-adic count at 2^2);
      * the other odd p with p^2 <= terms multiply every multiple of p by
        1 + (delta/p), one slice each.

    A local count at p^e is at most p^e, so every entry and partial product
    is at most 4 * terms: int64 is exact.
    """
    import numpy as np

    primes = _primes_upto(terms)
    small = _small_prime_count(terms)
    if -(2**63) < delta < 2**63:
        residues = np.int64(delta) % primes
    else:
        residues = (delta % primes.astype(object)).astype(np.int64)
    loc = 1 + _legendre(residues, primes)
    # index -1 (no large prime factor) picks the trailing 1
    h = np.append(loc[small:], 1)[_large_prime_index(terms)]
    h[0] = 0
    h[1::2] *= _sqrt_count_mod_pp(delta, 2, 2)
    for p, r, c in zip(primes[:small].tolist(), residues[:small].tolist(), loc[:small].tolist()):
        if p != 2 and r:
            h[p::p] *= c
            continue
        # local[k - 1] is the count for n = p * k; p^e | n  <=>  p^(e-1) | k
        shift = 2 if p == 2 else 0
        local = np.full(terms // p, _sqrt_count_mod_pp(delta, p, 1 + shift), dtype=np.int64)
        q, e = p, 2
        while q * p <= terms:
            local[q - 1 :: q] = _sqrt_count_mod_pp(delta, p, e + shift)
            q *= p
            e += 1
        h[p::p] *= local
    return h // 2


ZETA2 = math.pi**2 / 6
ZETA4 = math.pi**4 / 90


@lru_cache(maxsize=512)
def zagier_L_numeric(delta: int, terms: int = 20000):
    """Rigorous enclosure (lo, hi) of zeta(4)/zeta(2) * sum b_n(delta) n^-2,
    the L-value at s = 2, the only point the representation numbers need.

    The enclosure depends on (delta, terms) alone and one delta serves many
    (form, t): t and p^2 t for p | det A share it, and S5 and A1+D4 give
    the same delta at every t.  So it is cached, and each discriminant
    builds its b_n table once.

    The b_n come from `_b_table`, which reads them off Euler's criterion
    over a prime sieve and factors no n.  The partial sum is the last entry
    of `np.cumsum` of b_n / n^2 over the n with b_n != 0, taken from the
    mask `table != 0` (nonzero on a bool array is several times faster than
    on int64): add.accumulate adds left to right, so the float is the one a
    loop over increasing n gives, bit for bit (each term is the correctly
    rounded quotient, as n^2 < 2^53 is exact).  np.sum (pairwise),
    math.fsum and, from Python 3.12, the builtin sum (compensated) would each
    change the last bits, and with them the L2_bounds of `siegel --report`.
    The tail is bounded through b_n <= 2 * 2^omega(n) * sqrt|delta|.
    """
    import numpy as np

    if delta % 4 not in (0, 1):
        raise ValueError("delta must be 0 or 1 mod 4")
    if delta == 0:
        raise ValueError("delta = 0 is not supported")
    if terms < 1:
        raise ValueError("terms must be positive")
    table = _b_table(delta, terms)
    nz = (table != 0).nonzero()[0]
    partial = float(np.cumsum(table[nz] / nz.astype(np.float64) ** 2)[-1])
    # sum_{n>N} d(n) n^-2 <= (2 ln N + 3.7) / N  (see module tests)
    tail_d = (2 * math.log(terms) + 3.7) / terms
    tail = 2.0 * math.sqrt(abs(delta)) * tail_d
    front = ZETA4 / ZETA2
    return front * partial, front * (partial + tail)


# ---------------------------------------------------------------------------
# Bernoulli machinery and Cohen numbers


@lru_cache(maxsize=64)
def bernoulli_number(n: int) -> Fraction:
    if n == 0:
        return Fraction(1)
    # sum_{k=0}^{n} C(n+1,k) B_k = 0
    acc = Fraction(0)
    for k in range(n):
        acc += comb(n + 1, k) * bernoulli_number(k)
    return -acc / (n + 1)


@lru_cache(maxsize=512)
def generalized_bernoulli(n: int, D: int) -> Fraction:
    """B_{n,chi_D} for the Kronecker character of a fundamental discriminant D.

    Expanding the definition f^(n-1) sum_a chi(a) B_n(a/f) over a = 1..f,
    f = |D|, by B_n(x) = sum_k C(n, k) B_k x^(n-k) gives
    sum_k C(n, k) B_k f^(k-1) S_(n-k) with the integer power sums
    S_j = sum_a chi(a) a^j, so the rationals enter only n + 1 times.
    """
    f = abs(D)
    sums = [0] * (n + 1)
    for a in range(1, f + 1):
        chi = kronecker(D, a)
        if chi:
            for j in range(n + 1):
                sums[j] += chi
                chi *= a
    return sum(comb(n, k) * bernoulli_number(k) * Fraction(f**k, f) * sums[n - k] for k in range(n + 1))


@lru_cache(maxsize=512)
def cohen_H(m1: int, delta: int) -> Fraction:
    """H(m1, delta) = L(1 - m1, delta), an exact rational.

    Computed as L(1-m1, chi_D) * sum_{a | f} mu(a) chi_D(a) a^{m1-1}
    sigma_{2m1-1}(f/a) for delta = D f^2.  Memoised per (m1, delta), like
    the numeric enclosure: the reports that share a delta share one Cohen
    number (the 120 reports for t <= 40 have 43).
    """
    if m1 < 1:
        raise ValueError("need m1 >= 1")
    D, f = split_discriminant(delta)
    lval = -generalized_bernoulli(m1, D) / m1
    acc = Fraction(0)
    for a in _divisors(f):
        mu = _moebius(a)
        if mu == 0:
            continue
        chi = kronecker(D, a)
        if chi == 0:
            continue
        acc += mu * chi * a ** (m1 - 1) * _sigma(2 * m1 - 1, f // a)
    return lval * acc


def _divisors(n: int):
    out = [1]
    for p, e in _factor(n):
        out = [d * p**i for d in out for i in range(e + 1)]
    return sorted(out)


def _moebius(n: int) -> int:
    fac = tuple(_factor(n))
    if any(e > 1 for _, e in fac):
        return 0
    return -1 if len(fac) % 2 else 1


def _sigma(k: int, n: int) -> int:
    return sum(d**k for d in _divisors(n))


# ---------------------------------------------------------------------------
# archimedean density


@dataclass(frozen=True)
class ArchimedeanDensity:
    """(coeff * pi^pi_power) * sqrt(radicand); value() evaluates as float."""

    coeff: Fraction
    pi_power: int
    radicand: Fraction

    def value(self) -> float:
        return float(self.coeff) * math.pi**self.pi_power * math.sqrt(float(self.radicand))


def alpha_infinity(t, m: int, det_a: int) -> ArchimedeanDensity:
    """(2 pi)^{m/2} Gamma(m/2)^{-1} t^{m/2-1} |A|^{-1/2} for odd m."""
    if m % 2 == 0:
        raise ValueError("odd rank only")
    if t <= 0:
        raise ValueError("t must be positive")
    dfact = 1
    for k in range(m - 2, 0, -2):
        dfact *= k
    coeff = Fraction(2 ** (m - 1), dfact)
    radicand = Fraction(2 * t ** (m - 2), det_a)
    return ArchimedeanDensity(coeff, (m - 1) // 2, radicand)


# ---------------------------------------------------------------------------
# closed-form local densities


def alpha_regular(p: int, t: int, m: int, det_a: int) -> Fraction:
    """Local density at a prime p not dividing det A (classical formula)."""
    if t < 1:
        raise ValueError("t must be positive")
    if det_a % p == 0:
        raise ValueError("p divides det A; use the counting oracle")
    l = _ord(t, p)
    tt = t // p**l
    pm = Fraction(1, p ** (m - 1))
    if l % 2:
        return (1 - pm) * sum(Fraction(1, p ** ((m - 2) * j)) for j in range((l + 1) // 2))
    eps = kronecker((-1) ** ((m - 1) // 2) * det_a * 2 * tt, p)
    head = sum(Fraction(1, p ** ((m - 2) * j)) for j in range(l // 2))
    last = Fraction(1, p ** ((m - 2) * (l // 2))) / (1 - eps * Fraction(1, p ** ((m - 1) // 2)))
    return (1 - pm) * (head + last)


def _alpha2(t: int, k: int, c4: int, e4: int) -> Fraction:
    """The 2-adic density of the three forms at t, one formula in (k, c, e):
    1 + c (1 - 8^-b)/7 + e ((-1)^D / 2^(3b+2) - chi_D(2) / 2^(3b+3)), with
    b = floor(ord_2(t) / 2) and D the field discriminant of k t.  It is read
    as one integer numerator over 28 * 2^(3b+3), with c4 = 4c and e4 = 4e.

    D depends on t only through its class: with k t = 2^e u, u odd, D is odd
    exactly when e is even and u = 1 mod 4, and then D = u mod 8, because
    every odd square is 1 mod 8.  So nothing is factored."""
    if t < 1:
        raise ValueError("t must be positive")
    e = _ord(t, 2)
    n = 8 << 3 * (e // 2)
    u = k * (t >> e) % 8
    # (-1)^D and chi_D(2): 1 and 0 for even D, -1 and (2/u) for odd D
    parity, chi2 = (-1, 1 if u == 1 else -1) if e % 2 == 0 and u % 4 == 1 else (1, 0)
    return Fraction(28 * n + 8 * c4 * (n // 8 - 1) + 7 * e4 * (2 * parity - chi2), 28 * n)


def alpha2_S5(t: int) -> Fraction:
    """2-adic density of x1^2+...+x5^2 at t."""
    return _alpha2(t, 1, -8, 4)


def alpha2_A1D4(t: int) -> Fraction:
    """2-adic density of the A1+D4 form at t."""
    return _alpha2(t, 1, -4, 2)


def alpha2_A5(t: int) -> Fraction:
    """2-adic density of the A5 form at t."""
    return _alpha2(t, 3, 2, -1)


def alpha3_A5(t: int) -> Fraction:
    """3-adic density of the A5 form at t.

    Over Z_3 the form splits as a rank-4 unimodular part of determinant
    class 2 plus a <6> block; the unimodular part has density
    (10/9) * sum_{i<=j} (-1/3)^i at 3^j * unit, and averaging over the <6>
    coordinate gives a finite sum of geometric series (certified against the
    counting oracle).  Summed, it is one integer quotient on each class of
    t, read off c = ord_3 t, q = 27^floor(c/2) and u = t / 3^c mod 3:
    (10/9) (9q + 4) / (13q) for even c, (10/9) (27q - 1) / (39q) for odd c
    and u = 1, and (10/9) (135q + 8) / (195q) for odd c and u = 2.
    """
    if t < 1:
        raise ValueError("t must be positive")
    c = _ord(t, 3)
    q = 27 ** (c // 2)
    if c % 2 == 0:
        num, den = 9 * q + 4, 13 * q
    elif t // 3**c % 3 == 1:
        num, den = 27 * q - 1, 39 * q
    else:
        num, den = 135 * q + 8, 195 * q
    return Fraction(10 * num, 9 * den)


# ---------------------------------------------------------------------------
# the three quintary forms


def _half_gram(L):
    g = L.gram
    n = L.rank
    return tuple(tuple(Fraction(g[i][j], 2) for j in range(n)) for i in range(n))


@dataclass(frozen=True)
class OddForm:
    """An odd-rank positive form S(X) = A[X]/2 given by its S-matrix."""

    key: str
    m: int
    det_a: int
    s_matrix: tuple
    bad_primes: tuple

    def alpha_closed(self, p: int, t: int) -> Fraction:
        fn = _CLOSED_ALPHAS.get((self.key, p))
        if fn is None:
            raise ValueError(f"no closed-form density for {self.key} at p={p}")
        return fn(t)

    def chi(self, p: int, t: int) -> int:
        return kronecker(field_discriminant(2 * t * self.det_a), p)


_CLOSED_ALPHAS = {
    ("S5", 2): alpha2_S5,
    ("A1D4", 2): alpha2_A1D4,
    ("A5", 2): alpha2_A5,
    ("A5", 3): alpha3_A5,
}

_IDENT5 = tuple(tuple(Fraction(int(i == j)) for j in range(5)) for i in range(5))

FORMS = {
    "S5": OddForm("S5", 5, 32, _IDENT5, (2,)),
    "A1D4": OddForm("A1D4", 5, 8, _half_gram(direct_sum(span(2), _D(4))), (2,)),
    "A5": OddForm("A5", 5, 6, _half_gram(_A(5)), (2, 3)),
}


# ---------------------------------------------------------------------------
# p-adic block diagonalization (exact) and the counting oracle


def _val_p(x: Fraction, p: int):
    if x == 0:
        return math.inf
    return _ord(x.numerator, p) - _ord(x.denominator, p)


def jordan_split(s_matrix, p: int):
    """Split a symmetric rational matrix into p-adic Jordan blocks.

    Returns (T, blocks) with T in GL_n(Z_(p)) (entries p-integral, det a
    p-unit) and T^t M T block diagonal with 1x1 blocks, plus 2x2 blocks when
    p = 2.  The factorization is verified exactly before returning.
    """
    _check_prime_level(p, 1)
    n = len(s_matrix)
    m0 = [[Fraction(x) for x in row] for row in s_matrix]
    if any(len(row) != n for row in m0) or any(m0[i][j] != m0[j][i] for i in range(n) for j in range(i)):
        raise ValueError("jordan_split needs a symmetric square matrix")
    m = [row[:] for row in m0]
    t = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]

    def swap(i, j):
        if i == j:
            return
        for r in range(n):
            m[r][i], m[r][j] = m[r][j], m[r][i]
        m[i], m[j] = m[j], m[i]
        for r in range(n):
            t[r][i], t[r][j] = t[r][j], t[r][i]

    def addmul(dst, src, c):
        # column op: col_dst += c * col_src, applied congruently
        for r in range(n):
            m[r][dst] += c * m[r][src]
        for r in range(n):
            m[dst][r] += c * m[src][r]
        for r in range(n):
            t[r][dst] += c * t[r][src]

    # every pass at p = 2 places a block, and at odd p an off-diagonal pass
    # is followed by a diagonal pivot, so 2n passes suffice; no input
    # reaches the bound 8n, which guards the loop itself
    done, passes, blocks = 0, 0, []
    while done < n and passes < 8 * n:
        passes += 1
        best = None
        best_val = math.inf
        for i in range(done, n):
            v = _val_p(m[i][i], p)
            if v < best_val:
                best_val = v
                best = (i, i)
        for i in range(done, n):
            for j in range(i + 1, n):
                v = _val_p(m[i][j], p)
                if v < best_val:
                    best_val = v
                    best = (i, j)
        if best is None or best_val is math.inf:
            raise ValueError("degenerate form")
        i, j = best
        if i == j:
            swap(done, i)
            piv = m[done][done]
            for k in range(done + 1, n):
                if m[done][k]:
                    addmul(k, done, -m[done][k] / piv)
            blocks.append(((piv,),))
            done += 1
        elif p != 2:
            addmul(i, j, Fraction(1))
            continue
        else:
            swap(done, i)
            swap(done + 1, j if j != done else i)
            a_, b_, c_ = m[done][done], m[done][done + 1], m[done + 1][done + 1]
            det = a_ * c_ - b_ * b_
            for k in range(done + 2, n):
                v1, v2 = m[done][k], m[done + 1][k]
                if v1 or v2:
                    c1 = (c_ * v1 - b_ * v2) / det
                    c2 = (a_ * v2 - b_ * v1) / det
                    addmul(k, done, -c1)
                    addmul(k, done + 1, -c2)
            blocks.append(((a_, b_), (b_, c_)))
            done += 2
    _cross_check(done == n, "siegel.jordan_converges", f"{n - done} of {n} rows unsplit after {passes} passes")
    # verification: T p-integral with unit determinant, T^t M0 T block diagonal
    _cross_check(all(x.denominator % p for row in t for x in row), "siegel.jordan_p_integral", "transform not p-integral")
    expected = [[Fraction(0)] * n for _ in range(n)]
    off = 0
    for blk in blocks:
        for i, row in enumerate(blk):
            expected[off + i][off : off + len(blk)] = row
        off += len(blk)
    # on one common denominator each: (s_t T)^t (s_m M0) (s_t T) in integers
    scale_t = lcm(*(x.denominator for row in t for x in row))
    scale_m = lcm(*(x.denominator for row in m0 for x in row))
    ti = [[int(x * scale_t) for x in row] for row in t]
    mi = [[int(x * scale_m) for x in row] for row in m0]
    # scale_t is prime to p, so det T is a p-unit exactly when det(s_t T) is
    _cross_check(_det_bareiss(ti) % p != 0, "siegel.jordan_unit_det", "transform determinant is not a p-unit")
    scale = scale_t * scale_t * scale_m
    _cross_check(_congruent(mi, ti) == [[x * scale for x in row] for row in expected], "siegel.jordan_block_diagonal", "T^t M T is not the block diagonal matrix")
    return t, blocks


def _mod_frac(x: Fraction, modulus: int) -> int:
    den = x.denominator
    if gcd(den, modulus) != 1:
        raise ValueError("denominator not invertible modulo p^a")
    return x.numerator * pow(den, -1, modulus) % modulus


def _block_distribution(block, p: int, a: int) -> np.ndarray:
    """Value distribution of a 1x1 or 2x2 block's form Q over (Z/p^a)^k.

    With x = x0 + p^c z and c = ceil(a/2), Q(x) = Q(x0) + p^c B(x0, z) mod
    p^a.  The linear form z -> B(x0, z) mod p^(a-c) takes each value of
    g Z/p^(a-c) equally often, g the gcd of p^(a-c) and its coefficients,
    so the counts are bincounts of Q(x0) mod p^c g over the p^(ck) points
    x0, one per g.
    """
    import numpy as np

    mod, c = p**a, (a + 1) // 2
    low = p ** (a - c)
    x = np.arange(p**c, dtype=np.int64)
    if len(block) == 1:
        qa = _mod_frac(block[0][0], mod)
        vals = (x * x % mod) * qa % mod
        g = np.gcd(2 * qa % low * x % low, low)
    else:
        (a_, b_), (_, c_) = block
        qa, qb, qc = _mod_frac(a_, mod), _mod_frac(2 * b_, mod), _mod_frac(c_, mod)
        x, y = (v.ravel() for v in np.meshgrid(x, x, indexing="ij"))
        vals = ((x * x % mod) * qa % mod + (x * y % mod) * qb % mod + (y * y % mod) * qc % mod) % mod
        # B((x, y), (z, w)) = (2 qa x + qb y) z + (qb x + 2 qc y) w
        g = np.gcd(np.gcd((2 * qa % low * x + qb % low * y) % low, (qb % low * x + 2 * qc % low * y) % low), low)
    out = np.zeros(mod, dtype=np.int64)
    for gv in np.flatnonzero(np.bincount(g)).tolist():
        step = p**c * gv
        hist = np.bincount(vals[g == gv] % step, minlength=step)
        out += np.tile(hist * (low ** (len(block) - 1) * gv), mod // step)
    return out


@lru_cache(maxsize=32)
def _square_classes(p: int, a: int):
    """The classes {u^2 v : u a unit} of Z/p^a; a form's value counts are
    constant on them, because Q(ux) = u^2 Q(x).

    Class 0 is {0}; then, for v = p^j w by increasing j, the square class
    of the unit w mod p (2a + 1 classes for odd p), or w mod min(8, 2^(a-j))
    (4a - 4 classes for p = 2, a >= 2).  Level j labels every multiple
    p^j w, w = 1..p^(a-j) - 1, through one strided slice; the multiples of
    p^(j+1) among them are labelled again at level j + 1.  Returns the label
    of every residue and the smallest member and the size of every class.

    Those follow from the construction: a class of level j is p^j times the
    units w < p^(a-j) of one residue class mod r (r = p, or min(8, 2^(a-j))
    at p = 2), so its smallest member is p^j times the least unit in [1, r)
    of that class, and it holds 1/(the number of its level's classes) of the
    p^(a-j) - p^(a-j-1) units.
    """
    import numpy as np

    labels = np.zeros(p**a, dtype=np.int64)
    w = np.arange(1, p**a, dtype=np.int64)
    nonsquare = np.ones(p, dtype=bool)
    nonsquare[np.arange(1, p) ** 2 % p] = False
    reps, sizes = [0], [1]
    for j in range(a):
        units = w[: p ** (a - j) - 1]
        if p == 2:
            r = min(8, 2 ** (a - j))  # the only unit square mod r is 1
            labels[p**j :: p**j] = len(reps) + units % r // 2
            least = range(1, r, 2)
        else:
            labels[p**j :: p**j] = len(reps) + nonsquare[units % p]
            least = (1, int(np.argmax(nonsquare[1:])) + 1)
        reps += [p**j * u for u in least]
        sizes += [(p - 1) * p ** (a - j - 1) // len(least)] * len(least)
    labels.flags.writeable = False  # shared by every caller through the cache
    return labels, tuple(reps), tuple(sizes)


@lru_cache(maxsize=32)
def _class_constants(p: int, a: int) -> tuple:
    """Row k: the (i, j, n) with n = #{w in C_i : v_k - w in C_j} > 0, v_k
    the smallest member of class k, so (f * g)(v_k) = sum n f_i g_j.
    labels[(v - w) mod p^a] over w = 0, 1, ... is the reversed labels
    rolled by v + 1."""
    import numpy as np

    labels, reps, _ = _square_classes(p, a)
    n_cls, reverse = len(reps), labels[::-1]
    rows = []
    for v in reps:
        pairs = np.bincount(labels * n_cls + np.roll(reverse, v + 1), minlength=n_cls**2)
        nz = np.flatnonzero(pairs)
        rows.append(tuple(zip((nz // n_cls).tolist(), (nz % n_cls).tolist(), pairs[nz].tolist())))
    return tuple(rows)


def _block_counts(blocks, p: int, a: int) -> list:
    """Value counts mod p^a of the orthogonal sum of the blocks, one per square class.

    Each distinct block is counted once per call (S5 is five equal <1>
    blocks), and its histogram must be constant on the classes; the class
    functions are convolved through `_class_constants` in exact Python
    integers, and after each block the total sum |C_k| h_k must be
    p^(a * rank).  No input can break either check: they guard the tables.
    """
    import numpy as np

    labels, reps, sizes = _square_classes(p, a)
    counted, acc, rank = {}, None, 0
    for blk in blocks:
        if blk not in counted:
            hist = _block_distribution(blk, p, a)
            vec = hist[list(reps)]
            _cross_check(np.array_equal(hist, vec[labels]), "siegel.class_constant_histogram", f"histogram mod {p}^{a} is not constant on the square classes")
            counted[blk] = vec.tolist()
        vec = counted[blk]
        acc = vec if acc is None else [sum(n * acc[i] * vec[j] for i, j, n in row) for row in _class_constants(p, a)]
        rank += len(blk)
        _cross_check(sum(s * h for s, h in zip(sizes, acc)) == p ** (a * rank), "siegel.class_count_total", f"counts mod {p}^{a} do not add up to {p}^({a}*{rank})")
    return acc


@lru_cache(maxsize=64)
def _blocks_for(s_matrix: tuple, p: int):
    _, blocks = jordan_split(s_matrix, p)
    return tuple(blocks)


@lru_cache(maxsize=64)
def _form_counts(s_matrix: tuple, p: int, a: int) -> tuple:
    """#{X mod p^a : S(X) = v}, one v per square class; one split per (S, p)."""
    return tuple(_block_counts(_blocks_for(s_matrix, p), p, a))


def _check_prime_level(p: int, a: int):
    # a primality test by trial division, not a factorisation
    if p < 2 or any(p % d == 0 for d in range(2, isqrt(p) + 1)):
        raise ValueError(f"p = {p} is not a prime")
    if a < 1:
        raise ValueError(f"the level a = {a} must be at least 1")


def local_density_oracle(p: int, a: int, local_form, t: int) -> Fraction:
    """Level-a density approximation p^{-a(m-1)} #{X mod p^a : S(X)=t}.

    ``local_form`` is a form key ('S5', 'A1D4', 'A5'), read as its
    S-matrix, or an explicit symmetric rational matrix; p must be a prime
    and a >= 1.
    """
    _check_prime_level(p, a)
    s_matrix = FORMS[local_form].s_matrix if isinstance(local_form, str) else tuple(map(tuple, local_form))
    counts = _form_counts(s_matrix, p, a)
    return Fraction(counts[_square_classes(p, a)[0][t % p**a]], p ** (a * (len(s_matrix) - 1)))


class StabilizationError(RuntimeError):
    pass


def oracle_alpha(form, p: int, t: int, a: int | None = None) -> Fraction:
    """Stabilized local density: equal values at consecutive levels, else error."""
    key = form.key if isinstance(form, OddForm) else form
    if t < 1:
        raise ValueError(f"t must be positive, got {t}")
    if a is None:
        _check_prime_level(p, 1)
        a = _ord(2 * t, p) + 4
    v1 = local_density_oracle(p, a, key, t)
    v2 = local_density_oracle(p, a + 1, key, t)
    if v1 != v2:
        raise StabilizationError(f"density at p={p}, t={t} not stable at level {a}")
    return v1


# ---------------------------------------------------------------------------
# assembled representation numbers


@dataclass(frozen=True, slots=True)
class DensityReport:
    form: str
    t: int
    t_a: int
    t1: int
    t2: int
    D: int
    delta: int
    alphas: tuple  # ((p, Fraction), ...)
    local_factors: tuple
    cohen: Fraction
    l_value_bounds: tuple
    r: int
    routes_agree: bool

    def alpha(self, p: int) -> Fraction:
        return dict(self.alphas)[p]


def _euler_factor(form: OddForm, p: int, chi: int, alpha: Fraction) -> Fraction:
    """(1 - chi p^(-m1)) / (1 - p^(1-m)) * alpha as one quotient of integers,
    (p^m1 - chi) p^m1 alpha / (p^(2 m1) - 1), with m = 2 m1 + 1."""
    pm = p ** ((form.m - 1) // 2)
    return Fraction((pm - chi) * pm * alpha.numerator, (pm * pm - 1) * alpha.denominator)


def local_factor(form: OddForm, p: int, t: int) -> Fraction:
    """(1 - chi_D(p) p^{(1-m)/2}) / (1 - p^{1-m}) * alpha_p(t, S)."""
    return _euler_factor(form, p, form.chi(p, t), form.alpha_closed(p, t))


def siegel_r(form, t: int) -> DensityReport:
    """Exact representation number of t by the genus of the form.

    Assembles the Cohen-number route exactly and checks it, on every call,
    against the numeric L-value route, whose rigorous enclosure the report
    carries as l_value_bounds; a disagreement raises AssertionError.

    One factorisation of 2 t |A| gives t_a, t1, t2, D and every chi_D(p);
    each closed alpha_p is computed once, and the exact r is one quotient of
    integers.  The Cohen number and the enclosure are memoised per delta.
    """
    if isinstance(form, str):
        form = FORMS[form]
    if t < 1:
        raise ValueError("t must be positive")
    m1 = (form.m - 1) // 2
    if m1 != 2:
        raise ValueError("assembled only for rank 5")
    t_a, t1, t2, dd = _split_t(t, form.det_a)
    delta = dd * t2 * t2
    fa2, rem = divmod(2 * t * form.det_a, delta)
    fa = isqrt(fa2)
    _cross_check(not rem and fa * fa == fa2, "siegel.square_cofactor", "2 t |A| / delta is not a perfect square")
    hval = cohen_H(m1, delta)
    _cross_check((-1) ** (m1 // 2) * hval.numerator > 0, "siegel.cohen_sign", "Cohen number has the wrong sign")
    alphas = []
    factors = []
    prod_num = prod_den = 1
    for p in form.bad_primes:
        al = form.alpha_closed(p, t)
        alphas.append((p, al))
        fac = _euler_factor(form, p, kronecker(dd, p), al)
        factors.append((p, fac))
        prod_num *= fac.numerator
        prod_den *= fac.denominator
    # r = sqrt(2^5 t^3 / (delta^3 |A|)) * 2 |2 m1 / B_{2 m1}| * (-H) * prod
    # with the square root 2 f_A^3 / |A|^2 and |4 / B_4| = 120
    bern = bernoulli_number(2 * m1)
    r_num = 2 * fa**3 * 2 * (2 * m1) * bern.denominator * -hval.numerator * prod_num
    r_den = form.det_a**2 * abs(bern.numerator) * hval.denominator * prod_den
    r_exact, rem = divmod(r_num, r_den)
    _cross_check(not rem and r_exact >= 0, "siegel.integral_r", f"assembled representation number is not a nonnegative integer: {r_num}/{r_den}")
    lo, hi = l_bounds = zagier_L_numeric(delta)  # the cached tuple, shared by every report of delta
    c_inf = alpha_infinity(t, form.m, form.det_a).value()
    scale = c_inf / ZETA4 * (prod_num / prod_den)
    r_lo, r_hi = scale * lo, scale * hi
    pad = 1e-9 * max(1.0, r_hi)
    _cross_check(r_lo - pad <= r_exact <= r_hi + pad, "siegel.routes_agree", f"Siegel routes disagree for {form.key}, t={t}: exact {r_exact}, numeric [{r_lo}, {r_hi}]")
    return DensityReport(
        form=form.key,
        t=t,
        t_a=t_a,
        t1=t1,
        t2=t2,
        D=dd,
        delta=delta,
        alphas=tuple(alphas),
        local_factors=tuple(factors),
        cohen=hval,
        l_value_bounds=l_bounds,
        r=r_exact,
        routes_agree=True,  # reached only past the check above
    )


def nd6(m: int) -> int:
    """N_{D6}(2m) = 64 sigma~_2(m, chi_4) - 4 sigma_2(m, chi_4)."""
    if m < 1:
        raise ValueError("m must be positive")
    s_plain = 0
    s_tilde = 0
    for d in _divisors(m):
        s_plain += kronecker(-4, d) * d * d
        s_tilde += kronecker(-4, m // d) * d * d
    return 64 * s_tilde - 4 * s_plain
