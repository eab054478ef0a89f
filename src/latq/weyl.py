"""Root-system combinatorics: sublattice descriptors and their orbits under
the reflection (Weyl) group.

Sublattice descriptors are canonical collections of roots in the basis
coordinates of the ambient lattice: an A1+A1 is an orthogonal pair of
sign-normalized roots, an A2 is the triple of positive roots it contains,
a 4A1 is a quadruple of pairwise orthogonal sign-normalized roots.

Configurations are enumerated on root indices.  The positive roots and
their Gram matrix are built once per lattice; orthogonal pairs and
quadruples are read off the zero pattern of that matrix, growing tuples one
root at a time through boolean rows, depth first on the one level stack
``gram._Levels`` in blocks of at most ``_BLOCK`` array entries, and
A2 triples from its entries +/-1 with the third root found by a lookup of
sign-normalized rows.  Each
configuration is an ascending tuple of indices into the lexicographically
ordered positive roots, in the narrowest unsigned dtype that holds them,
which is its canonical form.  ``orbit_summary`` hands those index arrays
straight to the closure core of ``lattices.reflection_orbits``, which moves
them by a Coxeter element c of the simple reflections and by the few simple
reflections whose lines c and the kept ones do not reach (one of E8's
eight); the public enumerators turn the same arrays into coordinate tuples.
"""

from __future__ import annotations

from functools import lru_cache

from .gram import _INT64_MAX, GramLattice, _index_dtype, _Levels
from .lattices import _orbit_partition, _pack_rows, _sign_normalize, _sign_normalize_rows, roots

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
    return _as_tuples(*_configurations(L, "A1+A1"))


def a2_sublattices(L: GramLattice):
    """All A2 sublattices, each given by its three positive roots."""
    return _as_tuples(*_configurations(L, "A2"))


def four_a1_sublattices(L: GramLattice):
    """All 4A1 sublattices: quadruples of pairwise orthogonal root lines."""
    return _as_tuples(*_configurations(L, "4A1"))


def _as_tuples(rows, members):
    rows = [tuple(r) for r in rows.tolist()]
    return [tuple(rows[j] for j in obj) for obj in members.tolist()]


def _configurations(L: GramLattice, kind: str):
    """(rows, members): the positive roots as an (m, n) int64 array in
    lexicographic order, and one row of ascending indices into it per
    configuration of the given kind, in the narrowest dtype that holds them.

    Configurations come in the order of the positive roots (``positive_roots``)
    they are built from: pairs and quadruples i < j < k < l lexicographically,
    A2 triples sorted by their canonical form.
    """
    import numpy as np

    pos = np.array(positive_roots(L), dtype=np.int64).reshape(-1, L.rank)
    # roots of a positive-definite lattice meet in -2..2 (Cauchy-Schwarz), but
    # the partial sums of P G P^T leave int64 when the entries are huge; then
    # the product runs on Python integers
    big = max(abs(x) for row in L.gram for x in row) * int(np.abs(pos).max(initial=0)) ** 2
    dtype = np.int64 if L.rank * L.rank * big <= _INT64_MAX else object
    gram = (pos.astype(dtype) @ np.array(L.gram, dtype=dtype) @ pos.T.astype(dtype)).astype(np.int64)
    by_lex = np.lexsort(pos.T[::-1])
    lex = np.empty(len(pos), dtype=_index_dtype(len(pos)))
    lex[by_lex] = np.arange(len(pos))
    rows = pos[by_lex]
    if kind == "A1+A1":
        idx = _orthogonal_tuples(gram, 2)
    elif kind == "4A1":
        idx = _orthogonal_tuples(gram, 4)
    elif kind == "A2":
        # a pair at inner product +/-1 spans an A2; its third positive root
        # is the sign-normalized a - (a, b) b
        i, j = np.nonzero(np.triu(np.abs(gram) == 1, 1))
        if not len(i):
            return rows, np.zeros((0, 3), dtype=lex.dtype)
        third = _sign_normalize_rows(pos[i] - gram[i, j][:, None] * pos[j])
        row_keys, third_keys = np.split(_pack_rows(np.concatenate([rows, third])), [len(rows)])
        k = np.searchsorted(row_keys, third_keys).astype(lex.dtype)  # the third vector is a root
        return rows, np.unique(np.sort(np.column_stack([lex[i], lex[j], k]), axis=1), axis=0)
    else:
        raise ValueError(f"unknown sublattice kind {kind!r}")
    return rows, np.sort(lex[idx], axis=1)


def _orthogonal_tuples(gram, size: int):
    """Index tuples i_1 < ... < i_size of pairwise orthogonal roots, in
    lexicographic order, in the narrowest dtype that holds the indices: each
    tuple is extended by every later root that the boolean row of its last
    root and the tuple's running mask both allow.  The levels wait on one
    `gram._Levels` stack, which hands out their extensions in blocks of
    at most ``_BLOCK`` array entries (tuple and mask) but at least one, so
    the masks of one block per level are held at once."""
    import numpy as np

    dtype = _index_dtype(len(gram))
    orth = np.triu(gram == 0, 1)
    levels, found = _Levels(), [np.zeros((0, size), dtype=dtype)]
    idx, mask = np.arange(len(gram), dtype=dtype)[:, None], orth
    while True:
        if idx.shape[1] == size:
            found.append(idx)
        else:
            width = idx.shape[1] + 1 + (len(gram) if idx.shape[1] + 1 < size else 0)
            levels.push(np.count_nonzero(mask, axis=1), width, idx, mask)
        block = levels.take()
        if block is None:
            return np.concatenate(found)
        _, first, last, before, (idx, mask) = block
        # the owners' extensions in order, from the first one in the block
        skip = first - int(before[0])
        parent, nxt = (a[skip : skip + last - first] for a in np.nonzero(mask))
        idx = np.column_stack((idx[parent], nxt.astype(dtype)))
        mask = mask[parent] & orth[nxt] if idx.shape[1] < size else None


@lru_cache(maxsize=8)
def orbit_summary(L: GramLattice, kind: str):
    """(object count, orbit count, orbit sizes) for a sublattice type.

    kind is one of 'A1+A1', 'A2', '4A1'.  A lattice with no configuration of
    the kind gives (0, 0, ()).
    """
    rows, members = _configurations(L, kind)
    count, sizes, _ = _orbit_partition(L, rows, members)
    return len(members), count, tuple(sizes)
