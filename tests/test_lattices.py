import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import isqrt, lcm, prod
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from latq import gram as gm
from latq import lattices as lt
from latq import qseries as qs
from latq import weyl
from latq.arith import _mul_trunc

SRC = Path(__file__).resolve().parent.parent / "src"


def test_standard_dets_and_ranks():
    assert lt.A(1).det == 2
    assert lt.A(5).det == 6
    assert lt.D(4).det == 4
    assert lt.D(6).det == 4
    assert lt.E7().det == 2
    assert lt.E8().det == 1
    assert lt.U().det == -1
    assert lt.span(-6).det == -6
    a1d4 = lt.standard_lattice("A1+D4")
    assert a1d4.det == 8 and a1d4.rank == 5
    assert all(L.is_even for L in (lt.A(5), lt.D(6), lt.E7(), lt.E8(), lt.U()))


def test_name_parser():
    L = lt.standard_lattice("3U+2E8(-1)+<-6>")
    assert L.rank == 23
    assert L.det == 6
    assert lt.standard_lattice("A2").gram == ((2, -1), (-1, 2))
    with pytest.raises(ValueError):
        lt.standard_lattice("Q7")
    with pytest.raises(ValueError):
        lt.span(0)


def test_root_counts():
    assert len(lt.roots(lt.E7())) == 126
    assert len(lt.roots(lt.E8())) == 240
    assert len(lt.roots(lt.D(6))) == 60
    assert len(lt.roots(lt.A(5))) == 30
    assert len(lt.roots(lt.A(2))) == 6
    assert len(lt.roots(lt.standard_lattice("A1+D4"))) == 26
    assert len(lt.roots(lt.rescale(lt.span(-2), -1))) == 2


def test_u_has_no_short_vectors():
    for n in (0, 2):
        with pytest.raises(ValueError):
            lt.enumerate_norm(lt.U(), n)
    # U has infinitely many vectors of norm 0, so no theta coefficient exists
    for prec in (0, 1, 3):
        with pytest.raises(ValueError):
            lt.theta_counts(lt.U(), prec)
    assert not lt.U().is_positive_definite


def test_inner_norm_divisor_basics():
    e7 = lt.E7()
    assert lt.norm(e7, (1, 0, 0, 0, 0, 0, 0)) == 2
    lam = (2, 1, 2, -2, 0, 0, 1)
    assert lt.norm(e7, lam) == 24
    m6 = lt.span(-6)
    assert lt.norm(m6, (1,)) == -6
    u = lt.U()
    assert lt.divisor(u, (1, 1)) == 1
    assert lt.divisor(lt.span(-10), (1,)) == 10
    v = u.vector((1, 1))
    assert v.norm() == 2 and v.divisor() == 1
    with pytest.raises(ValueError):
        lt.divisor(u, (0, 0))
    with pytest.raises(ValueError):
        u.vector((1, 1)).inner(e7.vector((1, 0, 0, 0, 0, 0, 0)))


def test_divisor_of_polarisation_vectors():
    # h = f e1 + f b e2 + c l in U + <-2t> has divisor f whenever f | 2tc
    for t, d, f, c in [(3, 1, 2, 1), (6, 3, 3, 1), (6, 3, 3, 2), (5, 5, 2, 1), (1, 7, 2, 1)]:
        if (d + c * c * t) % (f * f):
            continue
        b = (d + c * c * t) // (f * f)
        L = lt.direct_sum(lt.U(), lt.span(-2 * t))
        h = (f, f * b, c)
        assert lt.norm(L, h) == 2 * d
        assert lt.divisor(L, h) == f


def test_enumeration_symmetry_and_parity():
    d6 = lt.D(6)
    for n in (2, 4, 6):
        vs = lt.enumerate_norm(d6, n)
        assert set(vs) == {tuple(-x for x in v) for v in vs}
        assert len(vs) % 2 == 0
    assert lt.rep_count(d6, 0) == 1
    with pytest.raises(ValueError):
        lt.rep_count(d6, -2)
    with pytest.raises(ValueError):
        lt.enumerate_norm(d6, -1)
    assert lt.enumerate_norm(d6, 0) == [(0,) * 6]


def test_rep_count_models_match_fincke_pohst():
    for L in (lt.A(5), lt.D(6), lt.E7(), lt.standard_lattice("A1+D4")):
        fast = lt.theta_counts(L, 12)
        slow = [lt.rep_count(L, 2 * m, method="fincke-pohst") for m in range(12)]
        assert fast == slow


def _inverse_diagonal(gram):
    """Diagonal of G^-1, by exact Gauss-Jordan elimination over Fraction."""
    n = len(gram)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(gram)]
    for k in range(n):
        piv = next(r for r in range(k, n) if a[r][k])
        a[k], a[piv] = a[piv], a[k]
        a[k] = [x / a[k][k] for x in a[k]]
        for r in range(n):
            if r != k and a[r][k]:
                a[r] = [x - a[r][k] * y for x, y in zip(a[r], a[k])]
    return [a[i][n + i] for i in range(n)]


def _brute_force_by_norm(L, bound):
    """Vectors of norm <= bound, sorted, from the box x_i^2 <= bound * (G^-1)_ii,
    which holds for them by Cauchy-Schwarz against the dual basis."""
    box = [isqrt(int(bound * g)) for g in _inverse_diagonal(L.gram)]
    pts = np.array(list(itertools.product(*(range(-b, b + 1) for b in box))), dtype=np.int64)
    norms = np.einsum("vi,ij,vj->v", pts, np.array(L.gram, dtype=np.int64), pts)
    out = [[] for _ in range(bound + 1)]
    for x, k in zip(pts[norms <= bound].tolist(), norms[norms <= bound].tolist()):
        out[k].append(tuple(x))
    return out


@st.composite
def _positive_definite_grams(draw):
    """U^T G0 U for a unimodular U and a G0 with off-diagonal entries in
    {-1, 0, 1} and a diagonal that makes it strictly diagonally dominant, hence
    positive definite; the diagonal's parity makes G0 even when asked."""
    rank = draw(st.integers(1, 5))
    even = draw(st.booleans())
    g = [[0] * rank for _ in range(rank)]
    for i, j in itertools.combinations(range(rank), 2):
        g[i][j] = g[j][i] = draw(st.integers(-1, 1))
    for i in range(rank):
        d = sum(map(abs, g[i])) + draw(st.integers(1, 2))
        g[i][i] = d + d % 2 if even else d
    for _ in range(draw(st.integers(0, 2))):
        i, j = draw(st.integers(0, rank - 1)), draw(st.integers(0, rank - 1))
        c = draw(st.sampled_from((-1, 1))) if i != j else 0
        # basis vector j += c * basis vector i: column j, then row j
        for k in range(rank):
            g[k][j] += c * g[k][i]
        for k in range(rank):
            g[j][k] += c * g[i][k]
    return lt.GramLattice(tuple(map(tuple, g)))


def test_isqrt_is_exact():
    # squares and their neighbours up to the 2^52 edge of the int64 route,
    # and Python integers past int64
    k = np.arange(2**26 - 2000, 2**26, dtype=np.int64)
    x = np.concatenate([k * k - 1, k * k, k * k + 1, np.arange(10**4)])
    assert lt._isqrt(x).tolist() == [isqrt(v) for v in x.tolist()]
    huge = np.array([0, 2**64 - 1, 10**40 + 7], dtype=object)
    assert lt._isqrt(huge).tolist() == [isqrt(v) for v in huge.tolist()]


def _sheared(L, k):
    """L in the basis e_0, e_j + k e_0 (j >= 1), and the map of coordinates
    into it: x_0 becomes x_0 - k (x_1 + ... + x_{n-1})."""
    s = [[int(i == j) + (k if i == 0 < j else 0) for j in range(L.rank)] for i in range(L.rank)]
    gram = [[sum(s[a][i] * L.gram[a][b] * s[b][j] for a in range(L.rank) for b in range(L.rank)) for j in range(L.rank)] for i in range(L.rank)]
    return lt.GramLattice(lt._freeze(gram)), lambda x: (x[0] - k * sum(x[1:]),) + x[1:]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_positive_definite_grams(), st.integers(2**52, 2**60), st.integers(2**32, 2**70))
def test_short_vectors_match_brute_force(L, scale, shear):
    brute = _brute_force_by_norm(L, 8)
    for n in range(9):
        assert lt.enumerate_norm(L, n) == brute[n]
        assert lt.rep_count(L, n, method="fincke-pohst") == len(brute[n])
    if L.is_even:
        for prec in range(6):
            assert lt.theta_counts(L, prec, method="fincke-pohst") == [len(brute[2 * m]) for m in range(prec)]
    # norms past 2^52 leave the float isqrt: the walk runs on Python integers
    scaled = lt.GramLattice(tuple(tuple(scale * x for x in row) for row in L.gram))
    for n in range(9):
        assert lt.enumerate_norm(scaled, scale * n) == brute[n]
        assert lt.rep_count(scaled, scale * n, method="fincke-pohst") == len(brute[n])
    # Gram entries past 2^63, and past 2^63 / 2^40 the walk's own bounds too
    sheared, move = _sheared(L, shear)
    for n in range(9):
        assert lt.enumerate_norm(sheared, n) == sorted(map(move, brute[n]))
        assert lt.rep_count(sheared, n, method="fincke-pohst") == len(brute[n])
    if L.is_even:
        assert lt.theta_counts(sheared, 5, method="fincke-pohst") == [len(brute[2 * m]) for m in range(5)]
    rows, norms = lt._short_vectors(sheared, 8)
    assert lt._short_vectors(sheared, 8, coords=False)[1] == dict(zip(*(a.tolist() for a in np.unique(norms, return_counts=True))))


BLOCKS = (1, 2, 3, 20, 100, gm._BLOCK)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_positive_definite_grams(), st.integers(0, 8))
def test_short_vectors_are_block_invariant(L, bound):
    # blocks of 1, 2 and 3 entries take one vector at a time at every level,
    # 20 and 100 cut levels inside the range of one partial vector; the
    # scaled lattice runs the walk on Python integers
    scale = 2**52
    scaled = lt.GramLattice(tuple(tuple(scale * x for x in row) for row in L.gram))
    for M, top in ((L, bound), (scaled, scale * bound)):
        rows, norms = lt._short_vectors(M, top)
        assert np.array_equal(np.lexsort(rows.T), np.arange(len(rows)))  # lex order of (x_{n-1}, ..., x_0)
        counts = dict(zip(*(a.tolist() for a in np.unique(norms, return_counts=True))))
        for block in BLOCKS:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(gm, "_BLOCK", block)
                got_rows, got_norms = lt._short_vectors(M, top)
                assert np.array_equal(got_rows, rows) and np.array_equal(got_norms, norms), block
                assert lt._short_vectors(M, top, coords=False) == (None, counts), block


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.integers(0, 5), max_size=12), st.integers(1, 12), st.integers(1, 64))
@example([], 1, 1)
@example([0, 0, 0], 2, 1)
def test_levels_cut_a_level_at_child_boundaries(n, width, block):
    # row p of a level has n[p] children; the blocks of the level, put
    # together, give its (row, child) pairs in order, each block 1 ..
    # max(1, block // width) of them, with k[p] of them for owner row p
    naive = [(p, j) for p, count in enumerate(n) for j in range(count)]
    pairs = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gm, "_BLOCK", block)
        levels = lt._Levels()
        levels.push(np.array(n, dtype=np.int64), width, np.arange(len(n)))
        while (taken := levels.take()) is not None:
            k, first, last, before, (owners,) = taken
            assert first == len(pairs) and 1 <= last - first <= max(1, block // width)
            got = list(zip(np.repeat(owners, k).tolist(), (np.arange(first, last) - np.repeat(before, k)).tolist()))
            assert got == naive[first:last]
            assert k.tolist() == [sum(p == q for p, _ in got) for q in owners.tolist()]
            pairs += got
    assert pairs == naive


def test_generic_theta_of_e8_is_the_eisenstein_series():
    # theta_E8 = E_4 = 1 + 240 sum sigma_3(n) q^n; E8 has no counting model
    sigma3 = [sum(d**3 for d in range(1, n + 1) if n % d == 0) for n in range(10)]
    assert lt.theta_counts(lt.E8(), 10, method="fincke-pohst") == [1] + [240 * s for s in sigma3[1:]]
    assert lt.theta_counts(lt.E8(), 0, method="fincke-pohst") == []


def test_d24_counts_are_exact_past_int64():
    # N_{D24}(76) = 11318878100909407680 > 2^63: the counting table holds
    # Python integers in slots wide enough for every count, so counts past
    # int64 are exact by construction
    assert lt.theta_counts(lt.D(24), 300) == list(qs.theta_D(24, 300).coeffs)
    assert lt.rep_count(lt.D(24), 76) == 11318878100909407680


@st.composite
def _kernel_cases(draw):
    """(rows, modulus, steps): steps with repeats and any shift below rows."""
    rows, modulus = draw(st.integers(1, 12)), draw(st.integers(1, 9))
    steps = draw(st.lists(st.tuples(st.integers(0, rows - 1), st.integers(0, modulus - 1)), min_size=1, max_size=7))
    return rows, modulus, steps


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_kernel_cases(), st.integers(0, 4))
def test_coordinate_counts_match_brute_force(case, n_coords):
    # every tuple of steps, repeats and zero shifts included, counted by hand
    rows, modulus, steps = case
    col = [0] * rows
    for t in itertools.product(steps, repeat=n_coords):
        s = sum(sh for sh, _ in t)
        if s < rows and sum(r for _, r in t) % modulus == 0:
            col[s] += 1
    assert lt._coordinate_counts(steps, n_coords, rows, modulus) == col


@pytest.mark.parametrize("size", [1, 2, 3, 4, 7, 8])
def test_coordinate_counts_saturated_slot(size):
    # all steps (0, 0): row 0 counts every tuple, len(steps)^n_coords exactly,
    # the most a slot holds; a slot one bit too narrow would lose it
    for n_coords in range(1, 5):
        assert lt._coordinate_counts([(0, 0)] * size, n_coords, 3, 2) == [size**n_coords, 0, 0]


def test_counting_model_is_chosen_by_structure():
    # an A5 Gram matrix labelled "D5" must not be counted with the D5 model
    relabelled = lt.GramLattice(lt.A(5).gram, "D5")
    assert lt.rep_count(relabelled, 2) == 30
    assert lt.theta_counts(relabelled, 3) == lt.theta_counts(lt.A(5), 3)
    # the Gram matrix decides, so a label that names no lattice changes nothing
    assert lt.rep_count(lt.GramLattice(lt.D(4).gram, "not a lattice"), 2) == 24
    # and a permuted basis of D4 is no atom's Gram matrix: the walk counts it
    order = (1, 0, 3, 2)
    permuted = lt.GramLattice(tuple(tuple(lt.D(4).gram[i][j] for j in order) for i in order), "D4")
    assert lt._model_counts(permuted.gram, 2) is None
    assert lt.rep_count(permuted, 2) == 24


def _counts_e7_reference(prec):
    """counts_e7 by the uncompressed formula: both parities of z on the rows
    sum z^2 = 0..8(prec - 1), through the one counting kernel."""
    max_sq = 8 * (prec - 1)
    zmax = isqrt(max_sq)
    out = [0] * prec
    for parity in (0, 1):
        values = [z for z in range(-zmax, zmax + 1) if z % 2 == parity]
        modulus = 2 * 8 * max(values, default=0) + 1
        col = lt._coordinate_counts([(z * z, z % modulus) for z in values], 8, max_sq + 1, modulus)
        for m in range(prec):
            out[m] += int(col[8 * m])
    return out


def test_counts_e7_matches_uncompressed_formula():
    reference = _counts_e7_reference(140)
    for p in (1, 2, 3, 17):
        assert _counts_e7_reference(p) == reference[:p]
    for p in range(1, 141):
        assert lt.counts_e7(p) == reference[:p]
        assert lt.theta_e7(p) == reference[:p]


def test_counts_e7_digest():
    digest = hashlib.sha256(repr(lt.counts_e7(256)).encode()).hexdigest()
    assert digest == "c24ccdc5dd5772ed55520abb01548cb9ef3155df823552f7d02fdeece6575cd9"


def test_model_counts_digest():
    # the coordinate models of every atom and a few sums, byte for byte
    names = [f"A{n}" for n in range(1, 9)] + [f"D{n}" for n in range(2, 11)] + ["D24", "E7", "A1+D4", "A2+E7", "D4+D4"]
    digest = hashlib.sha256(repr([(x, lt.theta_counts(lt.standard_lattice(x), 64)) for x in names]).encode()).hexdigest()
    assert digest == "6d6f230f43821043494028ed91019cc61c1be6ea696d09ce092da3006396e061"


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.integers(1, 200), st.booleans()), min_size=2, max_size=6))
def test_counts_e7_slices_agree_in_any_order(calls):
    # each call is (prec, empty the table cache first)
    seen = []
    for prec, clear in calls:
        if clear:
            lt._e7_table.cache_clear()
        seen.append(lt.counts_e7(prec))
    longest = max(seen, key=len)
    assert all(c == longest[: len(c)] for c in seen)
    # the caller owns the list it gets; the cached table is not touched
    seen[-1][0] = -1
    assert lt.counts_e7(1) == [1]


def test_counting_models_refuse_nonpositive_prec():
    for prec in (0, -1):
        for count in (lt.counts_e7, lt.theta_e7, lt.theta_e8, lambda p: lt.counts_sum_zero(8, p), lambda p: lt.counts_even_sum(6, p)):
            with pytest.raises(ValueError, match="prec must be positive"):
                count(prec)


_MODEL_ATOMS = (*(lt.A(n) for n in range(1, 7)), *(lt.D(n) for n in range(4, 8)), lt.E7())
_atoms = st.one_of(st.sampled_from(_MODEL_ATOMS), st.integers(1, 6).map(lambda k: lt.span(2 * k)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(_atoms, min_size=1, max_size=2), st.sampled_from(("", "perp", "D5", "E7+A2")), st.integers(0, 8))
def test_auto_theta_matches_fincke_pohst(parts, label, prec):
    # the Gram matrix alone chooses the model: a missing or wrong label
    # changes neither the choice nor the counts
    L = lt.GramLattice(lt.direct_sum(*parts).gram, label)
    assert lt._model_counts(L.gram, 1) is not None
    auto = lt.theta_counts(L, prec)
    # the generic walk visits every vector; keep it to a few 10^4
    while sum(auto) > 30_000:
        auto.pop()
    assert lt.theta_counts(L, len(auto), method="fincke-pohst") == auto


def _naive_convolution(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


# entries of up to `bits` bits, so that both sides of the int64 guard occur
_int_lists = st.integers(0, 62).flatmap(lambda bits: st.lists(st.integers(-(2**bits), 2**bits), min_size=1, max_size=12))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_int_lists, _int_lists)
def test_convolve_exact_matches_naive(a, b):
    # the full product, as the counting models' convolution once returned it
    assert _mul_trunc(a, b, len(a) + len(b) - 1) == _naive_convolution(a, b)


# signed entries far past 2^63, lists of zeros, and empty lists
_coefficient_lists = st.one_of(
    st.integers(0, 200).flatmap(lambda bits: st.lists(st.integers(-(2**bits), 2**bits), max_size=12)),
    st.lists(st.just(0), max_size=12),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_coefficient_lists, _coefficient_lists, st.integers(0, 30))
def test_mul_trunc_matches_naive(a, b, n):
    # n runs past len(a) + len(b) - 1, where the product has only zeros
    naive = [0] * n
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if i + j < n:
                naive[i + j] += x * y
    assert _mul_trunc(a, b, n) == naive


def test_mul_trunc_refuses_negative_length():
    with pytest.raises(ValueError):
        _mul_trunc([1], [1], -1)


def test_det_is_computed_once(monkeypatch):
    gram, calls, bareiss = lt.A(5).gram, [], gm._det_bareiss
    monkeypatch.setattr(gm, "_det_bareiss", lambda g: calls.append(g) or bareiss(g))
    a5 = lt.GramLattice(gram, "A5")
    assert (a5.det, repr(a5), lt.discriminant_group(a5).order) == (6, "GramLattice(A5, rank=5, det=6)", 6)
    assert lt.is_isometric(a5, a5) and a5.is_positive_definite
    assert len(calls) == 1


def test_divisor_reflection_invariance():
    rng = random.Random(7)
    e7 = lt.E7()
    rts = lt.roots(e7)
    for _ in range(20):
        v = tuple(rng.randint(-3, 3) for _ in range(7))
        if not any(v):
            continue
        w = v
        for _ in range(rng.randint(1, 5)):
            w = lt.reflection(e7, rng.choice(rts), w)
        assert lt.divisor(e7, v) == lt.divisor(e7, w)
        assert lt.norm(e7, v) == lt.norm(e7, w)


def test_reflection_basics():
    e7 = lt.E7()
    r = (1, 0, 0, 0, 0, 0, 0)
    assert lt.reflection(e7, r, r) == tuple(-x for x in r)
    x = (0, 0, 0, 1, 0, 0, 0)
    assert lt.inner(e7, r, x) == 0
    assert lt.reflection(e7, r, x) == x
    # reflecting in c - d maps c to d for roots with (c, d) = 1
    rts = lt.roots(e7)
    c = rts[0]
    d = next(s for s in rts if lt.inner(e7, c, s) == 1)
    diff = tuple(a - b for a, b in zip(c, d))
    assert lt.norm(e7, diff) == 2
    assert lt.reflection(e7, diff, c) == d


def test_orthogonal_complement_of_root_in_e7():
    e7 = lt.E7()
    r = lt.roots(e7)[0]
    perp = lt.orthogonal_complement(e7, [r])
    assert perp.rank == 6
    assert perp.det == 4
    assert len(lt.roots(perp)) == 60
    assert lt.is_isometric(perp, lt.D(6))


def test_orthogonal_complement_a2_in_e7_is_a5():
    e7 = lt.E7()
    rts = lt.roots(e7)
    a = rts[0]
    b = next(s for s in rts if lt.inner(e7, a, s) == -1)
    perp = lt.orthogonal_complement(e7, [a, b])
    assert perp.rank == 5 and perp.det == 6
    assert lt.is_isometric(perp, lt.A(5))


def test_orthogonal_complement_a1_in_d6():
    d6 = lt.D(6)
    perp = lt.orthogonal_complement(d6, [lt.roots(d6)[0]])
    assert lt.is_isometric(perp, lt.standard_lattice("A1+D4"))


def test_orthogonal_complement_split_polarisation():
    # h with divisor 1 in U + <-2t>: complement is <-2d> + <-2t>
    for t, d in [(1, 5), (3, 2), (4, 7)]:
        L = lt.direct_sum(lt.U(), lt.span(-2 * t))
        h = (1, d, 0)
        perp = lt.orthogonal_complement(L, [h])
        diag = sorted(perp.gram[i][i] for i in range(2))
        assert diag == sorted((-2 * d, -2 * t))
        assert perp.gram[0][1] == 0


def test_orthogonal_complement_rejects_dependent():
    e7 = lt.E7()
    r = lt.roots(e7)[0]
    with pytest.raises(ValueError):
        lt.orthogonal_complement(e7, [r, tuple(-x for x in r)])


def test_is_isometric_negative_and_cap():
    assert not lt.is_isometric(lt.D(6), lt.direct_sum(lt.A(1), lt.D(4)))  # det 4 vs 8
    assert not lt.is_isometric(lt.D(4), lt.D(6))  # rank mismatch
    # equal determinants and equal numbers of vectors of every basis norm of
    # the first lattice, so only the search can tell them apart
    z_binary = lt.GramLattice(((1, 0, 0), (0, 3, -1), (0, -1, 3)))
    diagonal = lt.GramLattice(((1, 0, 0), (0, 2, 0), (0, 0, 4)))
    skew = lt.GramLattice(((1, -1, -1), (-1, 3, 1), (-1, 1, 5)))
    assert not lt.is_isometric(z_binary, diagonal)
    assert not lt.is_isometric(skew, z_binary)
    # here an image that fits the last placed vector can still clash with an
    # earlier one, so every constraint must be checked
    wide = lt.GramLattice(((3, 1, -1, 1), (1, 1, 0, 1), (-1, 0, 3, 0), (1, 1, 0, 3)))
    assert not lt.is_isometric(wide, lt.GramLattice(((4, -1, -1, 0), (-1, 3, 1, -1), (-1, 1, 2, 0), (0, -1, 0, 1))))
    e8a1 = lt.direct_sum(lt.E8(), lt.A(1))
    with pytest.raises(ValueError):
        lt.is_isometric(e8a1, e8a1)
    with pytest.raises(ValueError):
        lt.is_isometric(lt.U(), lt.U())


def test_e8_root_line_complements_are_e7():
    e8, e7 = lt.E8(), lt.E7()
    lines = {lt._sign_normalize(r) for r in lt.roots(e8)}
    assert len(lines) == 120 and (0, 1, 0, 0, 0, 0, 0, 0) in lines
    assert all(lt.is_isometric(lt.orthogonal_complement(e8, [r]), e7) for r in lines)


@st.composite
def _nonsingular(draw, max_rank=5):
    """A nonsingular square matrix with entries in {-1, 0, 1}."""
    n = draw(st.integers(1, max_rank))
    b = draw(st.lists(st.lists(st.integers(-1, 1), min_size=n, max_size=n), min_size=n, max_size=n))
    assume(lt._det_bareiss(b) != 0)
    return b


@st.composite
def _unimodular(draw, n):
    """A product of elementary column operations and one optional sign flip."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for i, j, c in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.sampled_from((-1, 1))), max_size=6)):
        if i != j:
            for row in u:
                row[i] += c * row[j]
    if draw(st.booleans()):
        for row in u:
            row[0] = -row[0]
    return u


def _identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _lattice(g):
    return lt.GramLattice(lt._freeze(g))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_is_isometric_under_change_of_basis(data):
    b = data.draw(_nonsingular())
    g = lt._congruent(_identity(len(b)), b)
    u = data.draw(_unimodular(len(b)))
    assert lt.is_isometric(_lattice(g), _lattice(lt._congruent(g, u)))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_is_isometric_false_when_theta_series_differ(data):
    # B^T B and B^T S^T S B have the same determinant for unimodular S, and
    # are isometric when S^T S = 1; otherwise they mostly are not
    b = data.draw(_nonsingular())
    n = len(b)
    sts = lt._congruent(_identity(n), data.draw(_unimodular(n)))
    g1, g2 = lt._congruent(_identity(n), b), lt._congruent(sts, b)
    L1, L2 = _lattice(g1), _lattice(lt._congruent(g2, data.draw(_unimodular(n))))
    bound = max(g1[k][k] for k in range(n)) + 2
    theta1, theta2 = (lt._short_vectors(L, bound, coords=False)[1] for L in (L1, L2))
    if theta1 != theta2:
        assert not lt.is_isometric(L1, L2)
    if sts == _identity(n):
        assert lt.is_isometric(L1, L2)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(1, 4).flatmap(lambda n: st.lists(st.lists(st.integers(-9, 9), min_size=n, max_size=n), min_size=n, max_size=n)))
def test_smith_normal_form_identity(m):
    det = lt._det_bareiss(m)
    assume(det != 0)
    d, ut, v = lt.smith_normal_form(m)
    ut_, m_, v_ = (np.array(a, dtype=object) for a in (ut, m, v))
    assert (ut_ @ m_ @ v_).tolist() == d
    diag = [d[i][i] for i in range(len(m))]
    assert prod(diag) == abs(det) and all(x > 0 for x in diag)
    assert all(diag[i + 1] % diag[i] == 0 for i in range(len(diag) - 1))
    assert abs(lt._det_bareiss(ut)) == abs(lt._det_bareiss(v)) == 1


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.tuples(*[st.integers(-100, 100)] * 8), min_size=1, max_size=30))
def test_pack_rows_orders_like_tuples(rows):
    keys = lt._pack_rows(np.array(rows, dtype=np.int64))
    assert [rows[i] for i in np.argsort(keys, kind="stable")] == sorted(rows)
    assert len(set(keys.tolist())) == len(set(rows))


def test_pack_rows_rank8_sign_and_range():
    e = [tuple(int(k == i) for k in range(8)) for i in range(8)]
    rows = [tuple(-x for x in e[0]), e[0], e[7], tuple(-x for x in e[7]), (2, 2, 4, 5, 4, 3, 2, 1)]
    keys = lt._pack_rows(np.array(rows, dtype=np.int64))
    assert [rows[i] for i in np.argsort(keys)] == sorted(rows)
    assert keys[0] < keys[1]
    # 301^8 > 2^63: the keys cannot be exact, so packing refuses
    with pytest.raises(ValueError):
        lt._pack_rows(np.array([(-150,) + (0,) * 7, (150,) + (0,) * 7], dtype=np.int64))


def test_rep_count_refuses_indefinite_at_every_norm():
    for L in (lt.U(), lt.standard_lattice("E8(-1)"), lt.span(-2), lt.standard_lattice("A1+<-2>")):
        for n in (0, 2, 4):
            for method in ("auto", "fincke-pohst"):
                with pytest.raises(ValueError, match="positive-definite"):
                    lt.rep_count(L, n, method=method)


def test_counts_refuse_unknown_methods():
    with pytest.raises(ValueError, match="unknown method 'bogus'"):
        lt.theta_counts(lt.A(2), 3, method="bogus")
    with pytest.raises(ValueError, match="unknown method 'bogus'"):
        lt.rep_count(lt.A(2), 2, method="bogus")


def test_is_isometric_past_int64():
    # a badly reduced basis of A2: the norm-2 vectors have coordinates near
    # 3e9 and the Gram entries pass 2^63, so the search runs on Python ints
    k = 3 * 10**9
    skewed = lt.GramLattice(((2, 2 * k + 1), (2 * k + 1, 2 * k * k + 2 * k + 2)))
    assert lt.is_isometric(lt.A(2), skewed)


def test_is_isometric_with_huge_basis_norms():
    # the walk to norm 10^19 meets 5 vectors; its memory must follow them,
    # not the bound
    L = lt.GramLattice(((10**19, 1), (1, 10**19)))
    assert lt.enumerate_norm(L, 10**19) == [(-1, 0), (0, -1), (0, 1), (1, 0)]
    assert lt.rep_count(L, 10**19 - 1) == 0
    assert lt.is_isometric(L, L)


def _ldl_reference(gram):
    """`_cholesky` by rational LDL^T elimination, the reference the integer
    Bareiss version must match tuple for tuple."""
    n = len(gram)
    q = [[Fraction(gram[i][j]) for j in range(n)] for i in range(n)]
    for i in range(n):
        if q[i][i] <= 0:
            raise ValueError("not positive definite")
        for j in range(i + 1, n):
            q[j][i] = q[i][j]
            q[i][j] = q[i][j] / q[i][i]
        for k in range(i + 1, n):
            for l in range(k, n):
                q[k][l] = q[k][l] - q[k][i] * q[i][l]
                q[l][k] = q[k][l]
    m = [lcm(*(q[i][j].denominator for j in range(i + 1, n))) for i in range(n)]
    s = lcm(*((q[i][i] / m[i] ** 2).denominator for i in range(n)))
    w = tuple(int(s * q[i][i] / m[i] ** 2) for i in range(n))
    c = tuple(tuple(int(m[i] * q[i][j]) for j in range(i + 1, n)) for i in range(n))
    return s, w, tuple(m), c


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(1, 7).flatmap(lambda n: st.lists(st.lists(st.integers(-(10**9), 10**9) | st.integers(-2, 2), min_size=n, max_size=n), min_size=n, max_size=n)))
def test_cholesky_matches_rational_ldl(b):
    # B^T B + 1 is positive definite; entries up to 10^9 put the LDL^T data
    # past int64, where the walk runs on object arrays
    n = len(b)
    g = lt._freeze([[sum(b[k][i] * b[k][j] for k in range(n)) + (i == j) for j in range(n)] for i in range(n)])
    assert lt._cholesky.__wrapped__(g) == _ldl_reference(g)


def test_cholesky_reaches_object_walk():
    b = [[10**9, 3, -7], [1, 10**9, 5], [-2, 4, 10**9]]
    g = lt._freeze([[sum(b[k][i] * b[k][j] for k in range(3)) + (i == j) for j in range(3)] for i in range(3)])
    assert lt._cholesky.__wrapped__(g) == _ldl_reference(g)
    assert lt._short_vectors(lt.GramLattice(g), 1)[1].dtype == object


@pytest.mark.parametrize(
    "gram",
    [
        ((0, 1), (1, 2)),  # zero first pivot
        ((1, 1, 0), (1, 1, 0), (0, 0, 1)),  # semidefinite
        ((2, 1, 1), (1, 2, -1), (1, -1, 1)),  # minors 2, 3, -3
    ],
)
def test_cholesky_refuses_at_first_bad_minor(gram):
    for ldl in (lt._cholesky.__wrapped__, _ldl_reference):
        with pytest.raises(ValueError, match="not positive definite"):
            ldl(gram)


def test_cholesky_checks_its_result(monkeypatch):
    # with no denominators cleared the floor divisions round, and the
    # product U^T diag(w) U no longer gives s G
    monkeypatch.setattr(gm, "lcm", lambda *args: 1)
    with pytest.raises(AssertionError, match=r"^gram\.ldl_product: LDL"):
        lt._cholesky.__wrapped__(lt.E7().gram)


@pytest.mark.parametrize(
    "attr, wrong, call, name",
    [
        # a wrong product on the check's side only: the transforms are right
        ("_mat_mul", lambda mat_mul: lambda a, b: [[x + 1 for x in row] for row in mat_mul(a, b)], lambda: lt.smith_normal_form([[2, 1], [1, 2]]), "snf_transform"),
        # a wrong product of the invariant factors: the determinant is right
        ("prod", lambda prod: lambda xs: prod(xs) + 1, lambda: lt.discriminant_group(lt.A(2)), "invariant_factor_product"),
    ],
    ids=["snf_transform", "invariant_factor_product"],
)
def test_normal_form_checks_fire(monkeypatch, attr, wrong, call, name):
    monkeypatch.setattr(lt, attr, wrong(getattr(lt, attr)))
    with pytest.raises(AssertionError, match=rf"^lattices\.{name}: "):
        call()


def _odd_twin(L):
    """The odd lattice Z^(n-1) + <det L>: L's rank and determinant, other
    counts of norm-2 vectors."""
    return lt.GramLattice(tuple(tuple(int(i == j) * (L.det if i == j == L.rank - 1 else 1) for j in range(L.rank)) for i in range(L.rank)))


@pytest.mark.parametrize("name, kind, target", [("E7", "root", "D6"), ("E7", "A2", "A5"), ("E8", "root", "E7"), ("D6", "root", "A1+D4")])
def test_norm_pools_cache_keeps_answers(name, kind, target):
    L = {"E7": lt.E7(), "E8": lt.E8(), "D6": lt.D(6)}[name]
    configs = [(r,) for r in weyl.positive_roots(L)] if kind == "root" else [t[:2] for t in weyl.a2_sublattices(L)]
    comps = [lt.orthogonal_complement(L, vecs) for vecs in configs[:4]]
    T = lt.standard_lattice(target)
    twin = lt.GramLattice(T.gram, "twin")

    def answers():
        return [(lt.is_isometric(C, T), lt.is_isometric(C, twin), lt.is_isometric(C, _odd_twin(T))) for C in comps]

    lt._norm_pools.cache_clear()
    cold = answers()
    assert cold == [(True, True, False)] * len(comps)
    warm = answers()
    assert lt._norm_pools.cache_info().hits >= 3 * len(comps)
    lt._norm_pools.cache_clear()
    assert cold == warm == answers()


def test_norm_pools_may_be_empty():
    # <1> + <4> has vectors of norm 1, <2> + <2> none: an empty pool
    L1, L2 = lt.GramLattice(((1, 0), (0, 4))), lt.GramLattice(((2, 0), (0, 2)))
    lt._norm_pools.cache_clear()
    for _ in range(2):
        assert not lt.is_isometric(L1, L2)
    dtype, pools, images = lt._norm_pools(L2, (1, 4))
    assert pools[1].shape == images[1].shape == (0, 2)
    assert len(pools[4]) == 4 and not pools[4].flags.writeable


# sha256 over the complements of every root line (its positive root) or every
# A2 (its first two positive roots) of each ambient lattice, in weyl's order,
# of enumerate_norm for n <= 6, theta_counts to prec 4 by Fincke-Pohst, and
# is_isometric with the first complement of the family; taken on the
# recursive walk that the array walk replaced
COMPLEMENT_PINS = {
    ("E7", "root", 63): "05428d9e26aa23d67b6781f590d74dcd368a617b60a42dc5ff78973a1a44b0b8",
    ("E7", "A2", 336): "7894ef6154fe8f52a9444d59429416fd92beb546c049c26bfb5af6307e657f27",
    ("E8", "root", 120): "bf5b11ca6bf630b7894078166752487b5ec1e8207499a1e5dcda9cc632f893c5",
    ("E8", "A2", 1120): "f9fc04cdbca4b4907f35ad74d4f3a2ee4b22090fc4f0ec3e4adac2e0e1097bcf",
    ("D6", "root", 30): "945fbe57a21f05887184a31d713bcc53a1555c8aac690bed4d1a14f511526378",
    ("D6", "A2", 80): "7c4e23af868941743ca279b243bf4febe66e762d1855cc76e3ceb4cbf0638f59",
}


def _walk_record(L, target):
    return repr(([lt.enumerate_norm(L, n) for n in range(7)], lt.theta_counts(L, 4, "fincke-pohst"), lt.is_isometric(L, target))).encode()


@pytest.mark.parametrize("name, kind, count", list(COMPLEMENT_PINS), ids=lambda x: str(x))
def test_complement_walks_are_pinned(name, kind, count):
    L = {"E7": lt.E7(), "E8": lt.E8(), "D6": lt.D(6)}[name]
    configs = [(r,) for r in weyl.positive_roots(L)] if kind == "root" else [t[:2] for t in weyl.a2_sublattices(L)]
    assert len(configs) == count
    digest = hashlib.sha256()
    target = None
    for vecs in configs:
        C = lt.orthogonal_complement(L, vecs)
        target = target or C
        digest.update(_walk_record(C, target))
    assert digest.hexdigest() == COMPLEMENT_PINS[name, kind, count]


def test_e8_walk_is_pinned():
    e8 = lt.E8()
    assert hashlib.sha256(_walk_record(e8, e8)).hexdigest() == "35acc3a1e8a2228e22acbf4b91a023dfdb6b316e760af458d4a73681f01f9f4c"


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
def test_e8_theta_memory():
    # the walk counts norms without building vectors: theta of E8 to prec 10
    # (522 001 vectors) rose the peak by about 63 MB as tuples and 38 MB as
    # one norm array.  To prec 30 (about 46 M vectors) the breadth-first walk
    # rose it by about 2450 MB, and the walk in blocks by about 9 MB
    code = """
import json
from latq import lattices as lt

def high_water_kb():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))

e8 = lt.E8()
lt.theta_counts(e8, 2, "fincke-pohst")
before = high_water_kb()
counts = lt.theta_counts(e8, 30, "fincke-pohst")
print(json.dumps([counts, (high_water_kb() - before) / 1024]))
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    counts, rise_mb = json.loads(proc.stdout.splitlines()[-1])
    assert counts == lt.theta_e8(30)
    assert rise_mb < 32, rise_mb


def test_smith_normal_form_random():
    rng = random.Random(11)
    for _ in range(25):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        d, u, v = lt.smith_normal_form(m)
        diag = [d[i][i] for i in range(min(rows, cols))]
        for i in range(len(diag) - 1):
            if diag[i + 1]:
                assert diag[i] != 0 and diag[i + 1] % diag[i] == 0
        assert abs(lt._det_bareiss(u)) == 1
        assert abs(lt._det_bareiss(v)) == 1


def test_discriminant_groups():
    dg = lt.discriminant_group(lt.A(5))
    assert dg.invariant_factors == (6,)
    assert dg.q_values[0] == Fraction(5, 6)
    assert dg.is_cyclic

    assert lt.discriminant_group(lt.U()).invariant_factors == ()
    assert lt.discriminant_group(lt.E8()).invariant_factors == ()

    for t in (1, 2, 5, 6):
        dg = lt.discriminant_group(lt.hyperkahler_lattice(t))
        assert dg.invariant_factors == (2 * t,)
        assert dg.order == 2 * t
        assert dg.is_cyclic

    for L in (lt.A(2), lt.A(5), lt.D(4), lt.D(6), lt.E7(), lt.standard_lattice("A1+D4")):
        dg = lt.discriminant_group(L)
        assert dg.order == abs(L.det)
        # even lattice: q(g) agrees with b(g, g) modulo 1
        for i in range(len(dg.generators)):
            assert dg.q_values[i] % 1 == dg.b_matrix[i][i]


def test_d4_discriminant_values():
    # every nonzero class of the D4 discriminant group has q = 1 mod 2
    dg = lt.discriminant_group(lt.D(4))
    assert sorted(dg.invariant_factors) == [2, 2]
    assert all(q % 2 == 1 for q in dg.q_values)
