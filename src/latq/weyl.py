"""Root-system combinatorics: sublattice descriptors and their orbits under
the reflection (Weyl) group.

Sublattice descriptors are canonical collections of roots in the basis
coordinates of the ambient lattice: an A1+A1 is an orthogonal pair of
sign-normalized roots, an A2 is the triple of positive roots it contains,
a 4A1 is a quadruple of pairwise orthogonal sign-normalized roots.
"""

from __future__ import annotations

from functools import lru_cache

from .lattices import GramLattice, _sign_normalize, canonical_object, inner, reflection_orbits, roots

__all__ = [
    "positive_roots",
    "a1a1_sublattices",
    "a2_sublattices",
    "four_a1_sublattices",
    "orbit_summary",
]


def positive_roots(L: GramLattice):
    """One representative per +/- pair, sign-normalized."""
    seen = set()
    out = []
    for r in roots(L):
        c = _sign_normalize(r)
        if c not in seen:
            seen.add(c)
            out.append(c)
    return out


def a1a1_sublattices(L: GramLattice):
    """All A1+A1 sublattices: unordered orthogonal pairs of root lines."""
    pos = positive_roots(L)
    out = []
    for i in range(len(pos)):
        for j in range(i + 1, len(pos)):
            if inner(L, pos[i], pos[j]) == 0:
                out.append(canonical_object((pos[i], pos[j])))
    return out


def a2_sublattices(L: GramLattice):
    """All A2 sublattices, each given by its three positive roots."""
    pos = positive_roots(L)
    seen = set()
    for i in range(len(pos)):
        for j in range(len(pos)):
            if i == j:
                continue
            # a pair of roots spanning an A2 meets at inner product -1 after
            # flipping signs; normalize via |(r,s)| = 1
            pr = inner(L, pos[i], pos[j])
            if pr not in (1, -1):
                continue
            a = pos[i]
            b = pos[j] if pr == -1 else tuple(-x for x in pos[j])
            third = tuple(x + y for x, y in zip(a, b))
            seen.add(canonical_object((a, b, third)))
    return sorted(seen)


def four_a1_sublattices(L: GramLattice):
    """All 4A1 sublattices: quadruples of pairwise orthogonal root lines."""
    pos = positive_roots(L)
    n = len(pos)
    adj = [0] * n
    for i in range(n):
        for j in range(n):
            if i != j and inner(L, pos[i], pos[j]) == 0:
                adj[i] |= 1 << j
    above = [((1 << n) - 1) << (i + 1) for i in range(n)]
    out = []
    for i in range(n):
        mi = adj[i] & above[i]
        for j in _bits(mi):
            mj = mi & adj[j] & above[j]
            for k in _bits(mj):
                mk = mj & adj[k] & above[k]
                for l in _bits(mk):
                    out.append(canonical_object((pos[i], pos[j], pos[k], pos[l])))
    return out


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@lru_cache(maxsize=8)
def orbit_summary(L: GramLattice, kind: str):
    """(object count, orbit count, orbit sizes) for a sublattice type.

    kind is one of 'A1+A1', 'A2', '4A1'.
    """
    if kind == "A1+A1":
        objs = a1a1_sublattices(L)
    elif kind == "A2":
        objs = a2_sublattices(L)
    elif kind == "4A1":
        objs = four_a1_sublattices(L)
    else:
        raise ValueError(f"unknown sublattice kind {kind!r}")
    count, sizes, _ = reflection_orbits(L, objs)
    return len(objs), count, tuple(sizes)
