"""The one factorisation and the one p-adic valuation in latq.

`siegel` and `polarisation` import them by name.  The module imports
nothing, so a process that only needs a factorisation (the polarisation
subcommands) loads neither `siegel` nor `lattices`.
"""

from __future__ import annotations


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
    early (b_n on a zero local count) also stops the trial division.
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
