"""Truncated q-expansions with exact integer coefficients.

A QSeries stores Python-int coefficients on the exponent grid (1/N)*Z>=0,
valid for all exponents below its precision.  The Jacobi theta function at
the rational shifts k/6 pairs n with -n, so its coefficients
zeta^{nk} + zeta^{-nk} = 2 cos(pi nk/3) are rational integers too; that is
enough for the classical theta identities of the A_n (n+1 | 6) and D_n root
lattices.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from functools import lru_cache
from math import lcm

from .arith import _cross_check, _mul_trunc

__all__ = [
    "QSeries",
    "theta3",
    "theta3_shifted",
    "scale_tau",
    "shift_tau_by_one",
    "theta_A",
    "theta_D",
    "save_theta_cache",
    "load_theta_cache",
]

DEFAULT_PREC = 128


@dataclass(frozen=True)
class QSeries:
    """Coefficients c[k] at exponent k/grid, valid for exponents < prec.

    prec is measured in q-units; the number of stored coefficients is
    grid * prec (exponent units k with k/grid < prec).
    """

    grid: int
    prec: int
    coeffs: tuple

    def __post_init__(self):
        if self.grid < 1 or self.prec < 1:
            raise ValueError("grid and prec must be positive")
        if len(self.coeffs) != self.grid * self.prec:
            raise ValueError("coefficient array length must equal grid*prec")

    @property
    def units(self) -> int:
        return self.grid * self.prec

    def coefficient(self, exponent):
        """Coefficient at a rational exponent (int or Fraction)."""
        num = exponent * self.grid
        if num != int(num):
            return 0
        num = int(num)
        if num < 0 or num >= self.units:
            raise ValueError("exponent outside stored precision")
        return self.coeffs[num]

    def _common(self, other):
        if not isinstance(other, QSeries):
            raise TypeError("expected a QSeries")
        grid = lcm(self.grid, other.grid)
        prec = min(self.prec, other.prec)
        return self.regrid(grid).truncate(prec), other.regrid(grid).truncate(prec)

    def __add__(self, other):
        a, b = self._common(other)
        return QSeries(a.grid, a.prec, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))

    def __sub__(self, other):
        a, b = self._common(other)
        return QSeries(a.grid, a.prec, tuple(x - y for x, y in zip(a.coeffs, b.coeffs)))

    def __mul__(self, other):
        if isinstance(other, int):
            return QSeries(self.grid, self.prec, tuple(other * c for c in self.coeffs))
        a, b = self._common(other)
        return QSeries(a.grid, a.prec, tuple(_mul_trunc(a.coeffs, b.coeffs, a.units)))

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative powers: use inverse() first")
        result = QSeries(self.grid, self.prec, tuple([1] + [0] * (self.units - 1)))
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def inverse(self):
        """Multiplicative inverse; the constant coefficient must be a unit."""
        if self.coeffs[0] not in (1, -1):
            raise ValueError("constant coefficient must be a unit")
        one = QSeries(self.grid, self.prec, (1,) + (0,) * (self.units - 1))
        return _divide_exact(one, self)

    def truncate(self, prec: int):
        if prec > self.prec:
            raise ValueError("cannot extend precision")
        return QSeries(self.grid, prec, self.coeffs[: self.grid * prec])

    def regrid(self, grid: int):
        """Re-express on a finer grid (grid must be a multiple of the old)."""
        if grid == self.grid:
            return self
        if grid % self.grid:
            raise ValueError("new grid must refine the old one")
        f = grid // self.grid
        out = [0] * (grid * self.prec)
        for k, c in enumerate(self.coeffs):
            out[k * f] = c
        return QSeries(grid, self.prec, tuple(out))

    def to_integer_grid(self):
        """Drop to grid 1; every off-grid coefficient must vanish."""
        out = []
        for k, c in enumerate(self.coeffs):
            if k % self.grid == 0:
                out.append(c)
            elif c:
                raise ValueError("series does not live on integer exponents")
        return QSeries(1, self.prec, tuple(out))

    def integer_coefficients(self):
        """Coefficient list on the integer grid (asserts integrality)."""
        return list(self.to_integer_grid().coeffs)


# ---------------------------------------------------------------------------
# Jacobi theta building blocks


def _check_prec(prec: int):
    if prec < 1:
        raise ValueError("prec must be positive")


def theta3(prec: int = DEFAULT_PREC) -> QSeries:
    """Sum_n q^{n^2/2} on the half-integer grid: the unshifted theta3_shifted."""
    return theta3_shifted(0, prec)


# 2 cos(pi j/3) = zeta^j + zeta^-j for j = 0..5, zeta = e^{i pi/3}
_TWO_COS = (2, 1, -1, -2, -1, 1)


def theta3_shifted(k: int, prec: int = DEFAULT_PREC) -> QSeries:
    """Sum_n q^{n^2/2} zeta6^{nk}: the terms n and -n add to 2 cos(pi nk/3)."""
    if not 0 <= k <= 5:
        raise ValueError("shift index must be in 0..5")
    _check_prec(prec)
    units = 2 * prec
    c = [0] * units
    c[0] = 1
    n = 1
    while n * n < units:
        c[n * n] = _TWO_COS[n * k % 6]
        n += 1
    return QSeries(2, prec, tuple(c))


def scale_tau(s: QSeries, m: int) -> QSeries:
    """q^e -> q^{me}; exponents leaving the window are truncated away."""
    if m < 1:
        raise ValueError("scale factor must be a positive integer")
    out = [0] * s.units
    for k, c in enumerate(s.coeffs):
        if c:
            if k * m < s.units:
                out[k * m] = c
    return QSeries(s.grid, s.prec, tuple(out))


def shift_tau_by_one(s: QSeries) -> QSeries:
    """Multiply the coefficient at exponent e by e^{2 pi i e}.

    On the grid N=2 this is (-1)^(2e); finer grids would need roots of unity
    outside the coefficient ring and are rejected.
    """
    if s.grid not in (1, 2):
        raise ValueError("tau -> tau+1 needs the half-integer exponent grid")
    if s.grid == 1:
        return s
    return QSeries(s.grid, s.prec, tuple(-c if k % 2 else c for k, c in enumerate(s.coeffs)))


# ---------------------------------------------------------------------------
# root-lattice theta series in closed form


@lru_cache(maxsize=32)
def theta_A(n: int, prec: int = DEFAULT_PREC) -> QSeries:
    """Theta series of the root lattice A_n, for n+1 dividing 6.

    Classical identity: sum_{k mod n+1} theta3(tau, k/(n+1))^{n+1} divided by
    (n+1) * theta3((n+1) tau); integrality of the result is cross-checked.
    Each shifted theta has the integer coefficients 2 cos(pi j/3), so every
    product runs on ints.
    """
    if (n + 1) not in (2, 3, 6):
        raise ValueError("theta_A is implemented for n in {1, 2, 5}")
    step = 6 // (n + 1)
    num = None
    for k in range(n + 1):
        term = theta3_shifted((k * step) % 6, prec) ** (n + 1)
        num = term if num is None else num + term
    den = scale_tau(theta3(prec), n + 1) * (n + 1)
    # constant terms: num starts with n+1, den with n+1 -> normalize exactly
    quotient = _divide_exact(num, den)
    return quotient.to_integer_grid()


def _divide_exact(num: QSeries, den: QSeries) -> QSeries:
    """num / den for integer series whose quotient must again be integral.

    Long division from the constant term: each quotient coefficient reads
    only the nonzero divisor coefficients, so a sparse divisor (a theta
    series) costs its number of terms per coefficient, not the precision.
    """
    c0 = den.coeffs[0]
    if c0 == 0:
        raise ValueError("division by a series with zero constant term")
    n = min(num.units, den.units)
    terms = [(i, c) for i, c in enumerate(den.coeffs[1:n], 1) if c]
    out = []
    for k in range(n):
        s = num.coeffs[k]
        for i, c in terms:
            if i > k:
                break
            s -= c * out[k - i]
        q, r = divmod(s, c0)
        _cross_check(not r, "qseries.integral_quotient", "quotient is not integral")
        out.append(q)
    return QSeries(num.grid, n // num.grid, tuple(out[: (n // num.grid) * num.grid]))


@lru_cache(maxsize=32)
def theta_D(n: int, prec: int = DEFAULT_PREC) -> QSeries:
    """Theta series of D_n: (theta3(tau)^n + theta3(tau+1)^n) / 2."""
    if n < 2:
        raise ValueError("theta_D needs n >= 2")
    t3 = theta3(prec)
    t4 = shift_tau_by_one(t3)
    s = t3**n + t4**n
    _cross_check(not any(c % 2 for c in s.coeffs), "qseries.even_theta_d", "theta_D coefficient is not an even integer")
    return QSeries(s.grid, s.prec, tuple(c // 2 for c in s.coeffs)).to_integer_grid()


# ---------------------------------------------------------------------------
# plain-text coefficient cache


CACHE_MAGIC = "latq-theta-cache v2"
_CACHE_FIRST = re.compile(re.escape(CACHE_MAGIC) + r" records=([0-9]+)")
_CACHE_HEADER = re.compile(r"record name=(\S+) grid=([0-9]+) prec=([0-9]+) count=([0-9]+) sha256=([0-9a-f]{64})")


def _record_digest(name, grid, prec, body) -> str:
    # the key is hashed with the coefficients, so an altered header cannot
    # file them under another lattice or precision
    text = "\n".join([f"{name} {grid} {prec}", *body])
    return hashlib.sha256(text.encode()).hexdigest()


def save_theta_cache(path, records):
    """Write {(name, grid, prec): coefficient list} to a plain-text file.

    A header that `load_theta_cache` would not read back (a negative prec,
    say) is refused before the file is opened: the loader refuses the whole
    file, so the next store would drop every record.
    """
    # the first line counts the records, so that losing a record of no
    # coefficients (a header line alone) is detected too
    lines = [f"{CACHE_MAGIC} records={len(records)}"]
    for (name, grid, prec), coeffs in sorted(records.items()):
        body = [str(int(c)) for c in coeffs]
        digest = _record_digest(name, grid, prec, body)
        head = f"record name={name} grid={grid} prec={prec} count={len(body)} sha256={digest}"
        if _CACHE_HEADER.fullmatch(head) is None:
            raise ValueError(f"cannot store the record ({name!r}, {grid!r}, {prec!r})")
        lines.append(head)
        lines.extend(body)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_theta_cache(path):
    """Read a cache file; raises ValueError on a version, header or integrity mismatch.

    An empty file (0 bytes, say one made by ``touch``) is a cache with no
    records, so the first store fills it; any other file must start with
    the version line.
    """
    with open(path) as fh:
        text = fh.read()
    if not text:
        return {}
    lines = text.splitlines()
    first = _CACHE_FIRST.fullmatch(lines[0])
    if first is None:
        raise ValueError("unrecognized cache file version")
    records = {}
    i = 1
    while i < len(lines):
        head = _CACHE_HEADER.fullmatch(lines[i])
        if head is None:
            raise ValueError("malformed cache record header")
        name, grid, prec, count = head[1], int(head[2]), int(head[3]), int(head[4])
        body = lines[i + 1 : i + 1 + count]
        if _record_digest(name, grid, prec, body) != head[5]:
            raise ValueError(f"cache integrity check failed for {name}")
        records[(name, grid, prec)] = [int(x) for x in body]
        i += 1 + count
    if len(records) != int(first[1]):
        raise ValueError(f"cache file holds {len(records)} records, not {first[1]}")
    return records
