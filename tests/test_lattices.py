import itertools
import random
from fractions import Fraction
from math import isqrt, prod

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from latq import lattices as lt
from latq import qseries as qs


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


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_positive_definite_grams())
def test_short_vectors_match_brute_force(L):
    brute = _brute_force_by_norm(L, 8)
    for n in range(9):
        assert lt.enumerate_norm(L, n) == brute[n]
    if L.is_even:
        for prec in range(6):
            assert lt.theta_counts(L, prec, method="fincke-pohst") == [len(brute[2 * m]) for m in range(prec)]


def test_generic_theta_of_e8_is_the_eisenstein_series():
    # theta_E8 = E_4 = 1 + 240 sum sigma_3(n) q^n; E8 has no counting model
    sigma3 = [sum(d**3 for d in range(1, n + 1) if n % d == 0) for n in range(10)]
    assert lt.theta_counts(lt.E8(), 10, method="fincke-pohst") == [1] + [240 * s for s in sigma3[1:]]
    assert lt.theta_counts(lt.E8(), 0, method="fincke-pohst") == []


def test_d24_counts_are_exact_past_int64():
    # N_{D24}(76) = 11318878100909407680 > 2^63: the counting table must leave
    # int64 before it wraps
    assert lt.theta_counts(lt.D(24), 300) == list(qs.theta_D(24, 300).coeffs)
    assert lt.rep_count(lt.D(24), 76) == 11318878100909407680


def test_counting_model_is_chosen_by_structure():
    # an A5 Gram matrix labelled "D5" must not be counted with the D5 model
    relabelled = lt.GramLattice(lt.A(5).gram, "D5")
    assert lt.rep_count(relabelled, 2) == 30
    assert lt.theta_counts(relabelled, 3) == lt.theta_counts(lt.A(5), 3)
    # labels that do not parse fall back to the generic enumerator
    assert lt.rep_count(lt.GramLattice(lt.D(4).gram, "not a lattice"), 2) == 24


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
    assert [int(x) for x in lt._convolve_exact(a, b)] == _naive_convolution(a, b)


def test_det_is_computed_once(monkeypatch):
    gram, calls, bareiss = lt.A(5).gram, [], lt._det_bareiss
    monkeypatch.setattr(lt, "_det_bareiss", lambda g: calls.append(g) or bareiss(g))
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


def _congruent(g, u):
    """u^T g u"""
    return lt._mat_mul(lt._mat_mul([list(r) for r in zip(*u)], g), u)


def _identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _lattice(g):
    return lt.GramLattice(lt._freeze(g))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_is_isometric_under_change_of_basis(data):
    b = data.draw(_nonsingular())
    g = _congruent(_identity(len(b)), b)
    u = data.draw(_unimodular(len(b)))
    assert lt.is_isometric(_lattice(g), _lattice(_congruent(g, u)))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_is_isometric_false_when_theta_series_differ(data):
    # B^T B and B^T S^T S B have the same determinant for unimodular S, and
    # are isometric when S^T S = 1; otherwise they mostly are not
    b = data.draw(_nonsingular())
    n = len(b)
    sts = _congruent(_identity(n), data.draw(_unimodular(n)))
    g1, g2 = _congruent(_identity(n), b), _congruent(sts, b)
    L1, L2 = _lattice(g1), _lattice(_congruent(g2, data.draw(_unimodular(n))))
    bound = max(g1[k][k] for k in range(n)) + 2
    theta1, theta2 = ([len(v) for v in lt._short_vectors(L, bound)] for L in (L1, L2))
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


def test_is_isometric_past_int64():
    # a badly reduced basis of A2: the norm-2 vectors have coordinates near
    # 3e9 and the Gram entries pass 2^63, so the search runs on Python ints
    k = 3 * 10**9
    skewed = lt.GramLattice(((2, 2 * k + 1), (2 * k + 1, 2 * k * k + 2 * k + 2)))
    assert lt.is_isometric(lt.A(2), skewed)


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
