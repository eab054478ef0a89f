from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latq import lattices as lt
from latq import polarisation as po


def divisors_of_gcd(t, d):
    g = gcd(2 * t, 2 * d)
    return [f for f in range(1, g + 1) if g % f == 0]


def test_query_invariants():
    q = po.PolarisationQuery.build(6, 3, 3)
    assert (q.g, q.w, q.g1, q.f1, q.t1, q.d1) == (2, 1, 2, 3, 2, 1)
    with pytest.raises(ValueError):
        po.PolarisationQuery.build(1, 1, 4)


@pytest.mark.parametrize("t, d, f", [(3, 3, 0), (3, 3, -2), (0, 3, 1), (3, -1, 1)])
def test_orbit_counts_refuse_nonpositive_input(t, d, f):
    # f = 0 used to reach `% f` and f < 0 to count no orbits
    for count in (po.orbit_count_formula, po.orbit_count_oracle):
        with pytest.raises(ValueError, match="must be positive"):
            count(t, d, f)


def test_split_case_always_one_orbit():
    for t in range(1, 12):
        for d in range(1, 12):
            rep = po.orbit_count_formula(t, d, 1)
            assert rep.exists and rep.count == 1 and rep.witness_c == 0


def test_f2_congruence_rule():
    for t in range(1, 20):
        for d in range(1, 20):
            if gcd(2 * t, 2 * d) % 2:
                continue
            count = po.orbit_count_oracle(t, d, 2)
            assert (count == 1) == ((d + t) % 4 == 0)
            assert count <= 1


def test_formula_matches_oracle_sweep():
    for t in range(1, 21):
        for d in range(1, 21):
            for f in divisors_of_gcd(t, d):
                rep = po.orbit_count_formula(t, d, f)
                assert rep.count == po.orbit_count_oracle(t, d, f), (t, d, f)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(1, 2000), st.integers(1, 2000))
def test_factor_helpers_match_brute_force(n, f1):
    primes = [p for p in range(2, n + 1) if n % p == 0 and all(p % q for q in range(2, p))]
    assert po._rho(n) == len(primes)
    assert po._phi(n) == sum(1 for x in range(1, n + 1) if gcd(x, n) == 1)
    # the part of n on the primes of f1 is gcd(n, f1^k) for any k >= log2(n)
    w_plus = gcd(n, f1**11)
    assert po._w_split(n, f1) == (w_plus, n // w_plus)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(1, 300), st.integers(1, 300), st.data())
def test_formulas_match_oracles_drawn(t, d, data):
    f = data.draw(st.sampled_from(divisors_of_gcd(t, d)))
    assert po.orbit_count_formula(t, d, f).count == po.orbit_count_oracle(t, d, f)
    if po.PolarisationQuery.build(t, d, f).w == 1:
        assert po.stable_index_formula(t, d, f) == po.stable_index_oracle(t, d, f)
    else:
        with pytest.raises(po.HypothesisViolation):
            po.stable_index_formula(t, d, f)


def test_multiplicity_dichotomy():
    # f <= 2 gives at most one orbit; f > 2 gives zero or more than one
    for t in range(1, 31):
        for d in range(1, 31):
            for f in divisors_of_gcd(t, d):
                count = po.orbit_count_oracle(t, d, f)
                if f <= 2:
                    assert count <= 1
                else:
                    assert count != 1, (t, d, f)


def test_existence_symmetry():
    for t in range(1, 25):
        for d in range(1, 25):
            for f in divisors_of_gcd(t, d):
                a = po.orbit_count_oracle(t, d, f) > 0
                b = po.orbit_count_oracle(d, t, f) > 0
                assert a == b


def test_orbit_example_multi():
    rep = po.orbit_count_formula(6, 3, 3)
    assert rep.exists and rep.count == 2 and rep.case == "i"


def test_perp_gram_examples():
    assert po.perp_gram(3, 1, 2, 1) == ((-2, 3), (3, -6))
    for t, d in [(1, 1), (2, 5), (3, 7)]:
        b = po.perp_gram(t, d, 1, 0)
        assert b == ((-2 * d, 0), (0, -2 * t))


@pytest.mark.parametrize(
    "t, d, f, c, message",
    [
        # c not coprime to f
        (3, 1, 2, 2, "not an admissible residue"),
        # f does not divide gcd(2t, 2d): s = 2ct/f used to round down
        (1, 8, 3, 1, "f must divide gcd"),
        # f = 0 used to reach `% (f * f)`, t = 0 to give a degenerate form
        (1, 1, 0, 1, "must be positive"),
        (0, 1, 1, 0, "must be positive"),
    ],
)
def test_perp_gram_refuses_outside_its_domain(t, d, f, c, message):
    with pytest.raises(ValueError, match=message):
        po.perp_gram(t, d, f, c)


@pytest.mark.parametrize(
    "t, d, f, wrong, name",
    [
        # the invariants are off in the query alone; the checks recompute
        # the factorisations of 2t and 2d from t and d
        (6, 3, 3, {"t1": 3}, "t_factors"),
        (6, 3, 3, {"d1": 2}, "d_factors"),
        (2, 2, 1, {"f1": 2, "g1": 2}, "coprime_invariants"),
    ],
)
def test_query_checks_fire(monkeypatch, t, d, f, wrong, name):
    init = po.PolarisationQuery.__init__
    monkeypatch.setattr(po.PolarisationQuery, "__init__", lambda self, **fields: init(self, **{**fields, **wrong}))
    with pytest.raises(AssertionError, match=rf"^polarisation\.{name}: "):
        po.PolarisationQuery.build(t, d, f)


def test_count_vs_exists_fires(monkeypatch):
    # a zero Euler phi makes the formula's count 0 where an orbit exists
    monkeypatch.setattr(po, "_phi", lambda n: 0)
    with pytest.raises(AssertionError, match=r"^polarisation\.count_vs_exists: "):
        po.orbit_count_formula(6, 3, 3)


def test_complement_det_fires(monkeypatch):
    # a gcd that lets f = 3 divide gcd(2, 16) = 2 admits (t, d, f) = (1, 8, 3);
    # then s = 2ct/f rounds down and the determinant is off
    monkeypatch.setattr(po, "gcd", lambda a, b: 6 if (a, b) == (2, 16) else gcd(a, b))
    with pytest.raises(AssertionError, match=r"^polarisation\.complement_det: "):
        po.perp_gram(1, 8, 3, 1)


def test_perp_gram_properties():
    for t in range(1, 16):
        for d in range(1, 16):
            for f in divisors_of_gcd(t, d):
                for c in po.orbit_witnesses(t, d, f):
                    bmat = po.perp_gram(t, d, f, c)
                    det = bmat[0][0] * bmat[1][1] - bmat[0][1] ** 2
                    assert det == 4 * d * t // (f * f)
                    assert bmat[0][0] < 0 and det > 0  # negative definite
                    q = po.PolarisationQuery.build(t, d, f)
                    b = (d + c * c * t) // (f * f)
                    entries_gcd = gcd(gcd(abs(bmat[0][0]), abs(bmat[0][1])), abs(bmat[1][1]))
                    assert entries_gcd == q.g1 * gcd(2 * b // q.g1, q.w)


def test_perp_gram_matches_lattice_complement():
    # the complement computed by the generic kernel machinery agrees with the
    # stated 2x2 Gram up to a unimodular change of basis
    for t, d, f, c in [(3, 1, 2, 1), (6, 3, 3, 1), (1, 3, 2, 1), (5, 4, 2, 1), (6, 3, 3, 2)]:
        if (d + c * c * t) % (f * f):
            continue
        b = (d + c * c * t) // (f * f)
        amb = lt.direct_sum(lt.U(), lt.span(-2 * t))
        h = (f, f * b, c)
        assert lt.divisor(amb, h) == f and lt.norm(amb, h) == 2 * d
        perp = lt.orthogonal_complement(amb, [h])
        bmat = po.perp_gram(t, d, f, c)
        detp = perp.det
        detb = bmat[0][0] * bmat[1][1] - bmat[0][1] ** 2
        assert detp == detb
        # compare reduced positive definite forms of the negations
        ra = _gauss_reduce(-perp.gram[0][0], -perp.gram[0][1], -perp.gram[1][1])
        rb = _gauss_reduce(-bmat[0][0], -bmat[0][1], -bmat[1][1])
        assert ra == rb, (t, d, f, c, ra, rb)


def _gauss_reduce(a, b, c):
    """GL2(Z)-canonical (a, |b|, c) of the positive definite Gram
    [[a, b], [b, c]]: classical reduction to |2b| <= a <= c."""
    assert a > 0 and a * c - b * b > 0
    while True:
        k = (2 * b + a) // (2 * a)  # nearest integer to b/a (ties go down)
        if k:
            c = c - 2 * k * b + k * k * a
            b = b - k * a
            continue
        if c < a:
            a, b, c = c, -b, a
            continue
        return a, abs(b), c


def test_stable_index_examples():
    assert po.stable_index_formula(1, 5, 1) == 1
    assert po.stable_index_formula(1, 3, 2) == 1
    # f = t odd forces index 1 (the two groups coincide)
    for t in (3, 5, 9, 15):
        for d in range(1, 30):
            if gcd(2 * t, 2 * d) % t:
                continue
            try:
                assert po.stable_index_formula(t, d, t) == 1
            except po.HypothesisViolation:
                pass
    assert po.stable_index_formula(6, 5, 1) == 4  # rho(6) = 2


def test_stable_index_formula_matches_oracle():
    for t in range(1, 31):
        for d in range(1, 31):
            for f in divisors_of_gcd(t, d):
                try:
                    a = po.stable_index_formula(t, d, f)
                except po.HypothesisViolation:
                    with pytest.raises(po.HypothesisViolation):
                        po.stable_index_oracle(t, d, f)
                    continue
                b = po.stable_index_oracle(t, d, f)
                assert a == b
                assert a & (a - 1) == 0  # power of two


def test_stable_index_refuses_w_not_1():
    with pytest.raises(po.HypothesisViolation):
        po.stable_index_formula(4, 4, 4)


def test_disc_auto_order():
    assert po.disc_auto_order(1) == 1
    assert po.disc_auto_order(2) == 2
    for t in range(1, 101):
        n = po.disc_auto_order(t)
        # elementary abelian 2-group: order is a power of two
        assert n & (n - 1) == 0
        group = [x for x in range(2 * t) if (x * x - 1) % (4 * t) == 0]
        for x in group:
            for y in group:
                assert ((x * y) % (2 * t)) in group
