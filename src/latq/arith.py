"""The one factorisation, the one p-adic valuation, the one exact
truncated product of coefficient lists and the one cross-check in latq.

`siegel` and `polarisation` import the first two by name; `qseries` and
`lattices` multiply their theta series and counting models with the third.
Every certified step fails through `_cross_check`, under a stable dotted
name that `cli.main` prints with exit code 3.
The module imports nothing, so a process that only needs a factorisation
(the polarisation subcommands) loads neither `siegel` nor `lattices`, and
one that multiplies q-series or coordinate-model counts (`theta`,
`inequality`, `repcount` on a model lattice) loads no numpy.
"""

from __future__ import annotations


def _cross_check(ok: bool, name: str, detail: str = "") -> None:
    """Raise AssertionError("name: detail") unless ok.

    name is a unique dotted literal `<module>.<check>`.  The raise is
    explicit, so `python -O` keeps the check, as it would not an `assert`.
    """
    if not ok:
        raise AssertionError(f"{name}: {detail}")


def _ord(n: int, p: int) -> int:
    """The exponent of the prime p in n != 0."""
    if n == 0 or p < 2:
        raise ValueError("the valuation needs n != 0 and p >= 2")
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def _factor(n: int):
    """Yield (p, e) with n = prod p^e and p increasing, for n >= 1.

    Trial division by 2 and then by odd d with d^2 <= n; this is the only
    factorisation in latq.  The pairs come lazily, so a caller that stops
    early also stops the trial division.
    """
    if n < 1:
        raise ValueError("only a positive integer has a factorisation")
    d, step = 2, 1
    while d * d <= n:
        if n % d == 0:
            e = _ord(n, d)
            yield d, e
            n //= d**e
        d += step
        step = 2
    if n > 1:
        yield n, 1


def _mul_trunc(a, b, n: int) -> list:
    """The first n coefficients of the product of the Python-int coefficient
    lists a and b, exact at any size (Kronecker substitution).

    Each list is packed into one integer, its coefficients in slots of w
    bytes, and the two integers are multiplied once.  Every coefficient c of
    the product has |c| <= min(max|a| * sum|b|, sum|a| * max|b|) < 2^(8w-1),
    so adding 2^(8w-1) to every slot makes all of them nonnegative: that
    bias absorbs the signed borrow between slots, and each slot is read back
    on its own by `int.from_bytes`.
    """
    if n < 0:
        raise ValueError("the number of coefficients must be nonnegative")
    a, b = a[:n], b[:n]
    bound = min(max(map(abs, a), default=0) * sum(map(abs, b)), sum(map(abs, a)) * max(map(abs, b), default=0))
    if bound == 0:
        return [0] * n
    w = (bound.bit_length() + 8) // 8
    half = 1 << (8 * w - 1)
    slot = half.to_bytes(w, "little")

    def pack(c):
        raw = b"".join((x + half).to_bytes(w, "little") for x in c)
        return int.from_bytes(raw, "little") - int.from_bytes(slot * len(c), "little")

    k = min(n, len(a) + len(b) - 1)
    low = (pack(a) * pack(b) + int.from_bytes(slot * k, "little")) & ((1 << (8 * w * k)) - 1)
    raw = low.to_bytes(w * k, "little")
    return [int.from_bytes(raw[i : i + w], "little") - half for i in range(0, w * k, w)] + [0] * (n - k)
