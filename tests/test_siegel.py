import contextlib
import hashlib
import inspect
import io
import math
import random
from fractions import Fraction
from functools import cache
from math import gcd, isqrt

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latq import lattices as lt
from latq import polarisation as po
from latq import siegel as sg
from latq.arith import _factor


def legendre(a, p):
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def test_kronecker_examples():
    assert sg.kronecker(5, 2) == -1
    assert all(sg.kronecker(1, n) == 1 for n in range(1, 12))
    assert sg.kronecker(12, 3) == 0
    assert sg.kronecker(-4, 3) == -1
    assert sg.kronecker(8, 3) == -1


def test_kronecker_vs_legendre_and_multiplicativity():
    for p in (3, 5, 7, 11, 13, 17):
        for a in range(-20, 21):
            assert sg.kronecker(a, p) == legendre(a, p)
    rng = random.Random(1)
    for _ in range(100):
        a = rng.randint(-30, 30)
        m, n = rng.randint(1, 30), rng.randint(1, 30)
        assert sg.kronecker(a, m * n) == sg.kronecker(a, m) * sg.kronecker(a, n)


def test_discriminant_helpers():
    assert sg.field_discriminant(1) == 1
    assert sg.field_discriminant(2) == 8
    assert sg.field_discriminant(3) == 12
    assert sg.field_discriminant(4) == 1
    assert sg.field_discriminant(5) == 5
    assert sg.field_discriminant(45) == 5
    assert sg.split_discriminant(45) == (5, 3)
    assert sg.split_discriminant(12) == (12, 1)
    assert sg.split_discriminant(9) == (1, 3)
    with pytest.raises(ValueError):
        sg.split_discriminant(7)


def _is_prime(p):
    return p > 1 and all(p % d for d in range(2, isqrt(p) + 1))


def _is_squarefree(n):
    return all(n % (d * d) for d in range(2, isqrt(abs(n)) + 1))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(1, 10**7))
def test_factor_is_the_prime_factorisation(n):
    fac = list(sg._factor(n))
    assert math.prod(p**e for p, e in fac) == n
    primes = [p for p, _ in fac]
    assert all(a < b for a, b in zip(primes, primes[1:]))
    assert all(_is_prime(p) and e >= 1 for p, e in fac)


def test_factor_refuses_nonpositive():
    for n in (0, -3):
        with pytest.raises(ValueError):
            list(sg._factor(n))


@cache
def _moebius_by_divisor_sums(n):
    # sum_{d | n} mu(d) = [n == 1]
    return 1 if n == 1 else -sum(_moebius_by_divisor_sums(d) for d in range(1, n) if n % d == 0)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(1, 2000), st.integers(0, 3))
def test_divisor_helpers_match_brute_force(n, k):
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    assert sg._divisors(n) == divisors
    assert sg._sigma(k, n) == sum(d**k for d in divisors)
    assert sg._moebius(n) == _moebius_by_divisor_sums(n)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(-2000, 2000).filter(bool))
def test_squarefree_kernel_matches_definition(n):
    k, s = sg._squarefree_kernel(n)
    assert k * s * s == n and s >= 1 and _is_squarefree(k)


def test_decompose_t():
    assert sg.decompose_t(12, 6) == (12, 1, 1)
    assert sg.decompose_t(15, 32) == (1, 15, 1)  # odd squarefree, coprime to 2
    assert sg.decompose_t(9, 8) == (1, 1, 3)
    assert sg.decompose_t(72, 6) == (72, 1, 1)
    assert sg.decompose_t(50, 8) == (2, 1, 5)
    t_a, t1, t2 = sg.decompose_t(60, 6)
    assert (t_a, t1, t2) == (12, 5, 1)
    assert t_a * t1 * t2 * t2 == 60


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(1, 10**6), st.integers(-(10**4), 10**4).filter(bool))
def test_decompose_t_properties(t, det_a):
    t_a, t1, t2 = sg.decompose_t(t, det_a)
    assert t == t_a * t1 * t2 * t2
    assert t1 >= 1 and _is_squarefree(t1)
    # t_A is exactly the part of t on the primes of det_a
    assert pow(det_a, 64, t_a) == 0
    assert gcd(t // t_a, det_a) == 1


# the per-n b_n, one factorisation per n, and its brute force: references
# for the b_n table `_b_table` of the numeric route, which factors no n


def b_n(delta: int, n: int) -> int:
    """#{x mod 2n : x^2 = delta mod 4n}; 0 for n < 1."""
    if delta % 4 not in (0, 1):
        raise ValueError("delta must be 0 or 1 mod 4")
    if delta == 0:
        raise ValueError("delta = 0 is not supported")
    if n < 1:
        return 0
    total = 1
    for p, e in _factor(4 * n):
        total *= sg._sqrt_count_mod_pp(delta, p, e)
        if total == 0:
            return 0
    return total // 2


def b_n_bruteforce(delta: int, n: int) -> int:
    """#{x mod 2n : x^2 = delta mod 4n} by trying every x."""
    return sum(1 for x in range(2 * n) if (x * x - delta) % (4 * n) == 0)


def test_b_n_values_and_bruteforce():
    assert all(b_n(delta, 1) == 1 for delta in (1, 5, 8, 12, 24, 33))
    assert b_n(1, 3) == 2
    assert b_n(5, 2) == 0
    for delta in (1, 5, 8, 12, 24, 33, 40):
        for n in range(-2, 120):  # n <= 0 counts nothing
            assert b_n(delta, n) == b_n_bruteforce(delta, n), (delta, n)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(-(10**4), 10**4).filter(lambda d: d != 0 and d % 4 in (0, 1)), st.integers(1, 500))
def test_b_n_matches_bruteforce(delta, n):
    assert b_n(delta, n) == b_n_bruteforce(delta, n)


def test_oracles_do_not_factor(monkeypatch):
    # the oracles certify the factorising closed forms, so they must stay
    # independent of the one factorisation
    def oracle_values():
        return (
            b_n_bruteforce(-31, 45),
            po.orbit_count_oracle(6, 3, 3),
            po.stable_index_oracle(10, 5, 1),
            po.disc_auto_order(30),
            sg.local_density_oracle(3, 4, "A5", 6),
            sg.local_density_oracle(5, 2, sg.FORMS["S5"].s_matrix, 10),
        )

    def refuse(n):
        raise AssertionError("an oracle called _factor")

    expected = oracle_values()
    monkeypatch.setattr(sg, "_factor", refuse)
    monkeypatch.setattr(po, "_factor", refuse)
    sg._blocks_for.cache_clear()
    sg._form_counts.cache_clear()
    assert oracle_values() == expected


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(-(10**4), 10**4).filter(lambda d: d != 0 and d % 4 in (0, 1)), st.integers(1, 500))
def test_b_table_matches_bruteforce(delta, terms):
    table = sg._b_table(delta, terms).tolist()
    assert table[0] == 0
    for n in range(1, terms + 1):
        assert table[n] == b_n_bruteforce(delta, n) == b_n(delta, n), (delta, n)


def test_numeric_route_does_not_factor(monkeypatch):
    # the b_n table multiplies per-prime-power counts over a prime sieve;
    # a per-n factorisation must not come back into the numeric route
    def values():
        return [sg.zagier_L_numeric(delta) for delta in (1, 5, 8, 12, 24, 60, 420)]

    def refuse(n):
        raise AssertionError("the numeric route called _factor")

    expected = values()
    monkeypatch.setattr(sg, "_factor", refuse)
    sg._primes_upto.cache_clear()
    sg._large_prime_index.cache_clear()
    sg.zagier_L_numeric.cache_clear()
    assert values() == expected


_ODD_PRIMES = sg._primes_upto(20000)[1:]


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.one_of(st.integers(-(10**6), 10**6), st.integers(-(2**100), 2**100)))
@example(-4 * 19997)
@example(3 * 5 * 7 * 11 * 13 * 17 * 19 * 23)
@example(2**63 + 1)
@example(-(2**64) - 3)
@example(7**40)
def test_legendre_is_kronecker_on_every_prime(delta):
    residues = (delta % _ODD_PRIMES.astype(object)).astype(np.int64)
    assert sg._legendre(residues, _ODD_PRIMES).tolist() == [sg.kronecker(delta, p) for p in _ODD_PRIMES.tolist()]


def test_legendre_needs_p_squared_in_int64():
    # the largest prime with p^2 < 2^63 still works; one past it is refused
    p = isqrt(2**63 - 1)
    while not _is_prime(p):
        p -= 1
    residues = np.array([1, 2, 3, p - 1], dtype=np.int64)
    got = sg._legendre(residues, np.full(4, p, dtype=np.int64)).tolist()
    assert got == [sg.kronecker(int(r), p) for r in residues.tolist()]
    q = p + 2
    while not _is_prime(q):
        q += 2
    with pytest.raises(ValueError, match="2\\^63"):
        sg._legendre(np.array([1], dtype=np.int64), np.array([q], dtype=np.int64))


def test_legendre_does_not_call_kronecker(monkeypatch):
    # the numeric route's symbols check the Cohen route, whose chi_D is
    # kronecker: a fault in kronecker must not reach Euler's criterion
    deltas = (-4 * 19997, 5, 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23, 2**64 + 5)
    expected = {delta: [sg.kronecker(delta, p) for p in _ODD_PRIMES.tolist()] for delta in deltas}

    def refuse(a, n):
        raise AssertionError("_legendre called kronecker")

    monkeypatch.setattr(sg, "kronecker", refuse)
    for delta in deltas:
        residues = (delta % _ODD_PRIMES.astype(object)).astype(np.int64)
        assert sg._legendre(residues, _ODD_PRIMES).tolist() == expected[delta], delta


@pytest.mark.parametrize("terms", [1, 2, 3, 4, 8, 9, 10, 97, 1000, 20000])
def test_large_prime_index_matches_a_loop_over_the_primes(terms):
    primes = sg._primes_upto(terms).tolist()
    large = [p for p in primes if p * p > terms and p != 2]
    big = [-1] * (terms + 1)
    for i, p in enumerate(large):
        for n in range(p, terms + 1, p):
            big[n] = i
    got = sg._large_prime_index(terms)
    assert got.tolist() == big and got.dtype == np.int32 and not got.flags.writeable


@settings(max_examples=12, deadline=None, derandomize=True)
@given(st.integers(-(10**6), 10**6).filter(lambda d: d != 0 and d % 4 in (0, 1)), st.integers(501, 5000))
def test_b_table_matches_b_n_on_longer_tables(delta, terms):
    table = sg._b_table(delta, terms).tolist()
    assert table == [b_n(delta, n) for n in range(terms + 1)]


def test_b_table_beyond_int64():
    delta = 2**64 + 1
    table = sg._b_table(delta, 3000).tolist()
    assert table == [b_n(delta, n) for n in range(3001)]


@pytest.mark.parametrize("delta", [2**63 - 3, 1 - 2**63, 2**63 + 1, -(2**63) - 3])
def test_b_table_on_both_sides_of_int64(delta):
    # |delta| < 2^63 is reduced modulo the primes on int64, larger on Python ints
    assert sg._b_table(delta, 3000).tolist() == [b_n(delta, n) for n in range(3001)]


@pytest.mark.parametrize("delta, terms", [(1, 1), (-3, 2), (5, 97), (-24, 1000), (420, 20000), (-(2**64) - 3, 5000)])
def test_partial_sum_adds_left_to_right(delta, terms):
    partial = 0.0
    for n, bn in enumerate(sg._b_table(delta, terms).tolist()):
        if bn:
            partial += bn / n**2
    lo, _ = sg.zagier_L_numeric(delta, terms=terms)
    assert lo == sg.ZETA4 / sg.ZETA2 * partial


# sha256 of repr((delta, zagier_L_numeric(delta))), concatenated, for every
# discriminant 0 < |delta| <= 1000 and three beyond 2^63, as the int64
# square-and-multiply pass over Python-int residues computed them
L_NUMERIC_SHA256 = "56e41ada9346663be1a3b4af4e8f9ebd964e0bc581753ea15d41295dc848265f"


def test_numeric_enclosures_are_pinned():
    deltas = [d for d in range(-1000, 1001) if d and d % 4 in (0, 1)] + [2**63 + 1, -(2**64) - 3, 7**40]
    sg.zagier_L_numeric.cache_clear()
    digest = hashlib.sha256()
    for delta in deltas:
        digest.update(repr((delta, sg.zagier_L_numeric(delta))).encode())
    assert len(deltas) == 1003 and digest.hexdigest() == L_NUMERIC_SHA256


# sha256 of the `siegel --report` envelopes for t = 1..120, concatenated,
# as the loop-summed numeric route printed them
REPORT_SHA256 = {
    "A1D4": "e1f6ac2a07b6d0afa488822195c16da5480cb3dc53d692add6317238bf065bfe",
    "A5": "8d930f8841cdf37e5c24972ede4338425246ccb260a80978b7b083ccb6e14bf2",
    "S5": "57076ce860b41e12fcff342063364f0ac3ea482baff1b3a0f76477c9faa4e393",
}


@pytest.mark.parametrize("form", sorted(REPORT_SHA256))
def test_report_envelopes_are_pinned(form):
    from latq import cli

    parser, text = cli.build_parser(), io.StringIO()
    with contextlib.redirect_stdout(text):
        for t in range(1, 121):
            args = parser.parse_args(["siegel", "--form", form, "--t", str(t), "--report"])
            assert args.func(args) == 0
    assert hashlib.sha256(text.getvalue().encode()).hexdigest() == REPORT_SHA256[form]


def test_zagier_L_interval_vs_functional_equation():
    for delta in (1, 5, 8, 12, 24, 60):
        lo, hi = sg.zagier_L_numeric(delta, terms=20000)
        exact = -2 * math.pi**2 * delta ** (-1.5) * float(sg.cohen_H(2, delta))
        assert lo - 1e-12 <= exact <= hi + 1e-12, (delta, lo, exact, hi)


def test_zagier_L_refuses_other_points():
    for delta in (0, 2, 3, -1, -2, 7, 10):
        with pytest.raises(ValueError):
            sg.zagier_L_numeric(delta)
    for terms in (0, -1):
        with pytest.raises(ValueError, match="terms must be positive"):
            sg.zagier_L_numeric(5, terms=terms)


def test_bernoulli_numbers():
    assert sg.bernoulli_number(2) == Fraction(1, 6)
    assert sg.bernoulli_number(4) == Fraction(-1, 30)
    assert sg.bernoulli_number(3) == 0


def _generalized_bernoulli_by_definition(n, D):
    """f^(n-1) sum_{a=1}^{f} chi_D(a) B_n(a/f), f = |D|, in Fractions."""
    f = abs(D)
    # B_n(x) = sum_k C(n, k) B_k x^(n-k), by Horner from the x^n coefficient
    coeffs = [math.comb(n, k) * sg.bernoulli_number(k) for k in range(n + 1)]
    acc = Fraction(0)
    for a in range(1, f + 1):
        chi = sg.kronecker(D, a)
        if chi:
            x, value = Fraction(a, f), Fraction(0)
            for c in coeffs:
                value = value * x + c
            acc += chi * value
    return f ** (n - 1) * acc


def test_generalized_bernoulli_matches_definition():
    # the power-sum route against the definition, on every fundamental D
    # with |D| <= 500 (D = 1 included)
    fundamental = [D for D in range(-500, 501) if D != 0 and sg.field_discriminant(D) == D]
    assert len(fundamental) == 307 and 1 in fundamental
    sg.generalized_bernoulli.cache_clear()
    for D in fundamental:
        for n in range(1, 5):
            assert sg.generalized_bernoulli(n, D) == _generalized_bernoulli_by_definition(n, D), (n, D)


def _clear_siegel_caches():
    for obj in vars(sg).values():
        clear = getattr(obj, "cache_clear", None)
        if callable(clear):
            clear()


@pytest.mark.parametrize("form", sorted(sg.FORMS))
def test_siegel_r_does_not_depend_on_call_order(form):
    # the memoised L-value enclosure and Bernoulli numbers give the same
    # report cold, in any order, as warm in ascending order
    order = list(range(1, 41))
    random.Random(17).shuffle(order)
    _clear_siegel_caches()
    cold = {t: repr(sg.siegel_r(form, t)) for t in order}
    assert [cold[t] for t in range(1, 41)] == [repr(sg.siegel_r(form, t)) for t in range(1, 41)]


def test_each_discriminant_builds_one_b_table(monkeypatch):
    # S5 and A1D4 share every delta, and t, 4t share one: the 120 reports
    # for t <= 40 need 43 tables
    built = []
    b_table = sg._b_table
    monkeypatch.setattr(sg, "_b_table", lambda delta, terms: built.append(delta) or b_table(delta, terms))
    _clear_siegel_caches()
    deltas = [sg.siegel_r(form, t).delta for form in sorted(sg.FORMS) for t in range(1, 41)]
    assert sorted(built) == sorted(set(deltas)) and len(built) == 43


def test_cohen_numbers():
    assert sg.cohen_H(2, 1) == Fraction(-1, 12)
    assert sg.cohen_H(2, 5) == Fraction(-2, 5)
    assert sg.cohen_H(2, 8) == -1
    assert sg.cohen_H(2, 12) == -2
    assert sg.cohen_H(2, 24) == -6
    for delta in [d for d in range(1, 150) if d % 4 in (0, 1)]:
        h = sg.cohen_H(2, delta)
        assert -h > 0  # (-1)^{floor(m1/2)} H > 0
        assert 120 % h.denominator == 0


def test_cohen_pinned_by_five_squares():
    # invert the assembled formula against the enumerated count r(1, S5) = 10
    rep = sg.siegel_r("S5", 1)
    assert rep.r == 10 and rep.delta == 1
    f_a = 8  # 2 * 1 * 32 / delta = 64
    prefactor = Fraction(2 * f_a**3, 32**2)
    local = sg.local_factor(sg.FORMS["S5"], 2, 1)
    pinned_H = -Fraction(10) / (prefactor * 240 * local)
    assert pinned_H == sg.cohen_H(2, 1) == Fraction(-1, 12)


def test_alpha_infinity():
    a = sg.alpha_infinity(1, 5, 1)
    assert a.coeff == Fraction(16, 3) and a.pi_power == 2 and a.radicand == 2
    gamma_form = (2 * math.pi) ** 2.5 / math.gamma(2.5)
    assert a.value() == pytest.approx(gamma_form, rel=1e-12)
    assert sg.alpha_infinity(4, 5, 1).value() / sg.alpha_infinity(1, 5, 1).value() == pytest.approx(8.0)
    assert sg.alpha_infinity(1, 5, 4).value() / sg.alpha_infinity(1, 5, 1).value() == pytest.approx(0.5)


def test_alpha_regular_forms():
    # ord_p(t) = 0: single-summand form
    for p, m, det_a, t in [(3, 5, 32, 1), (5, 5, 6, 2), (7, 5, 8, 3)]:
        eps = sg.kronecker(det_a * 2 * t, p)
        expect = (1 - Fraction(1, p ** (m - 1))) / (1 - eps * Fraction(1, p ** ((m - 1) // 2)))
        assert sg.alpha_regular(p, t, m, det_a) == expect
    # ord_p(t) = 1: 1 - p^{1-m}
    assert sg.alpha_regular(3, 3, 5, 32) == 1 - Fraction(1, 81)
    assert sg.alpha_regular(5, 5, 5, 6) == 1 - Fraction(1, 625)
    with pytest.raises(ValueError):
        sg.alpha_regular(2, 1, 5, 32)


def test_alpha_regular_matches_oracle():
    for key, p, ts in [("S5", 3, (1, 2, 3, 9, 18, 27)), ("A5", 5, (1, 5, 25, 10)), ("A1D4", 3, (1, 3, 9))]:
        form = sg.FORMS[key]
        for t in ts:
            reg = sg.alpha_regular(p, t, form.m, form.det_a)
            assert sg.oracle_alpha(key, p, t, a=sg._ord(2 * t, p) + 3) == reg


def test_closed_alphas_match_oracle_small():
    for t in range(1, 17):
        assert sg.alpha2_S5(t) == sg.oracle_alpha("S5", 2, t)
        assert sg.alpha2_A1D4(t) == sg.oracle_alpha("A1D4", 2, t)
        assert sg.alpha2_A5(t) == sg.oracle_alpha("A5", 2, t)
        assert sg.alpha3_A5(t) == sg.oracle_alpha("A5", 3, t)


@pytest.mark.parametrize("t", [0, -4])
@pytest.mark.parametrize(
    "density",
    [sg.alpha2_S5, sg.alpha2_A1D4, sg.alpha2_A5, sg.alpha3_A5, lambda t: sg.alpha_regular(5, t, 5, 32)],
    ids=["alpha2_S5", "alpha2_A1D4", "alpha2_A5", "alpha3_A5", "alpha_regular"],
)
def test_closed_alphas_refuse_nonpositive_t(density, t):
    with pytest.raises(ValueError, match="t must be positive"):
        density(t)


def test_alpha_values_pinned():
    assert sg.alpha2_S5(1) == Fraction(5, 8)
    assert sg.alpha2_A1D4(1) == Fraction(13, 16)
    assert sg.alpha2_A5(3) == Fraction(35, 32)
    assert sg.alpha3_A5(1) == Fraction(10, 9)
    assert sg.alpha3_A5(3) == Fraction(20, 27)
    assert sg.alpha3_A5(6) == Fraction(22, 27)


def test_alpha3_deep_powers_frozen_oracle_values():
    # counted once with the mod-3^a oracle at stabilization and frozen here;
    # exercises high ord_3(t) beyond the acceptance sweep
    assert sg.alpha3_A5(81) == Fraction(5050, 6561)
    assert sg.alpha3_A5(108) == Fraction(560, 729)
    assert sg.alpha3_A5(162) == Fraction(5050, 6561)
    assert sg.alpha3_A5(192) == Fraction(20, 27)


def test_jordan_split_shapes():
    for key in ("S5", "A1D4", "A5"):
        for p in (2, 3, 5):
            _, blocks = sg.jordan_split(sg.FORMS[key].s_matrix, p)
            assert sum(len(b) for b in blocks) == 5
            if p != 2:
                assert all(len(b) == 1 for b in blocks)


def _perturbed_congruence(congruent):
    def wrong(m0, t):
        out = congruent(m0, t)
        out[0][0] += 1
        return out

    return wrong


@pytest.mark.parametrize(
    "attr, patch, message",
    [
        # pivots chosen with no regard to valuation divide by 3 in T
        ("_val_p", lambda _: lambda x, p: 0 if x else math.inf, "not p-integral"),
        ("_det_bareiss", lambda _: lambda t: 3, "not a p-unit"),
        ("_congruent", _perturbed_congruence, "not the block diagonal"),
    ],
)
def test_jordan_split_verification_refuses(monkeypatch, attr, patch, message):
    m = ((Fraction(3), Fraction(1)), (Fraction(1), Fraction(1)))
    t, blocks = sg.jordan_split(m, 3)
    assert all(x.denominator % 3 for row in t for x in row) and len(blocks) == 2
    monkeypatch.setattr(sg, attr, patch(getattr(sg, attr)))
    with pytest.raises(AssertionError, match=message):
        sg.jordan_split(m, 3)


def test_oracle_form_scaling_identities():
    key = "A5"
    m = sg.FORMS[key].s_matrix
    m2 = tuple(tuple(2 * x for x in row) for row in m)
    for t in (1, 2, 3, 6):
        a = sg._ord(2 * t, 3) + 4
        assert sg.local_density_oracle(3, a, m, t) == sg.local_density_oracle(3, a, m2, 2 * t)
        a = sg._ord(2 * t, 2) + 5
        assert sg.local_density_oracle(2, a, m2, 2 * t) == 2 * sg.local_density_oracle(2, a, m, t)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.sampled_from(sorted(sg.FORMS)),
    st.sampled_from([(2, 1), (2, 3), (2, 5), (3, 1), (3, 2), (3, 4), (5, 1), (5, 2), (7, 1), (7, 2)]),
    st.integers(1, 60),
    st.lists(st.integers(-3, 3), min_size=10, max_size=10),
)
def test_oracle_direct_route_matches_cached_route(key, level, t, upper):
    # U^T S U for a unipotent integer U is the same form over every Z_p, so
    # it has the key's density; so has S itself written as a list of lists
    p, a = level
    s = sg.FORMS[key].s_matrix
    u = [[int(i == j) for j in range(5)] for i in range(5)]
    for (i, j), x in zip([(i, j) for i in range(5) for j in range(i + 1, 5)], upper):
        u[i][j] = x
    su = [[sum(s[i][k] * u[k][j] for k in range(5)) for j in range(5)] for i in range(5)]
    moved = tuple(tuple(sum(u[k][i] * su[k][j] for k in range(5)) for j in range(5)) for i in range(5))
    want = sg.local_density_oracle(p, a, key, t)
    assert sg.local_density_oracle(p, a, moved, t) == want
    assert sg.local_density_oracle(p, a, [list(row) for row in s], t) == want


@pytest.mark.parametrize("key", sorted(sg.FORMS))
@pytest.mark.parametrize("p, levels", [(2, range(1, 9)), (3, range(1, 6))])
def test_counts_fold_down_one_level(key, p, levels):
    # every X mod p^a lifts to p^m vectors mod p^(a+1), so the level-(a+1)
    # counts summed over v = w mod p^a are p^m times the level-a count of w
    s = sg.FORMS[key].s_matrix
    for a in levels:
        low, high = (np.array(sg._form_counts(s, p, b), dtype=object)[sg._square_classes(p, b)[0]] for b in (a, a + 1))
        assert high.reshape(p, p**a).sum(axis=0).tolist() == (p ** len(s) * low).tolist(), a


def test_oracle_rank_one_form_counts_squares():
    # a single block: the direct route reads the block distribution itself
    for c, p, a in [(Fraction(1), 3, 3), (Fraction(3), 5, 2), (Fraction(1, 2), 3, 4), (Fraction(2), 2, 5)]:
        mod = p**a
        c_mod = c.numerator * pow(c.denominator, -1, mod)
        for t in range(8):
            expect = sum(1 for x in range(mod) if (c_mod * x * x - t) % mod == 0)
            assert sg.local_density_oracle(p, a, ((c,),), t) == expect


def test_oracle_stabilization_reporting():
    with pytest.raises(sg.StabilizationError):
        sg.oracle_alpha("A5", 3, 48, a=1)
    # and the default level is stable
    assert sg.oracle_alpha("A5", 3, 48) == sg.alpha3_A5(48)


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: sg._ord(0, 2), id="ord-of-zero"),
        pytest.param(lambda: sg._ord(12, 1), id="ord-base-one"),
        pytest.param(lambda: sg.oracle_alpha("S5", 2, 0), id="alpha-t-zero"),
        pytest.param(lambda: sg.oracle_alpha("A5", 3, -1), id="alpha-t-negative"),
        pytest.param(lambda: sg.oracle_alpha("A5", 4, 1), id="alpha-p-four"),
        pytest.param(lambda: sg.oracle_alpha("A5", 3, 1, a=0), id="alpha-level-zero"),
        pytest.param(lambda: sg.local_density_oracle(1, 2, "S5", 1), id="oracle-p-one"),
        pytest.param(lambda: sg.local_density_oracle(6, 2, sg.FORMS["S5"].s_matrix, 1), id="oracle-p-six"),
        pytest.param(lambda: sg.local_density_oracle(4, 2, sg.FORMS["S5"].s_matrix, 1), id="oracle-matrix-p-four"),
        pytest.param(lambda: sg.local_density_oracle(4, 2, "A5", 1), id="oracle-key-p-four"),
        pytest.param(lambda: sg.local_density_oracle(2, 0, "S5", 1), id="oracle-level-zero"),
        pytest.param(lambda: sg.local_density_oracle(2, -1, "S5", 1), id="oracle-level-negative"),
        pytest.param(lambda: sg.local_density_oracle(3, 2, ((1, 1), (0, 1)), 1), id="oracle-non-symmetric"),
        pytest.param(lambda: sg.local_density_oracle(3, 2, ((1, 0, 0), (0, 1)), 1), id="oracle-non-square"),
    ],
)
def test_oracle_refuses_out_of_range_arguments(call):
    with pytest.raises(ValueError):
        call()


# every (p, a) with p^(2a) <= 2*10^4: small enough to count 2x2 blocks by brute force
_SMALL_LEVELS = [(p, a) for p in (2, 3, 5, 7) for a in range(1, 8) if p ** (2 * a) <= 20000]


def _brute_histogram(block, p, a):
    """Count Q(x) = v mod p^a over all x in (Z/p^a)^k, one x at a time."""
    mod = p**a

    def red(x):
        x = Fraction(x)
        return x.numerator * pow(x.denominator, -1, mod) % mod

    hist = [0] * mod
    if len(block) == 1:
        c = red(block[0][0])
        for x in range(mod):
            hist[c * x * x % mod] += 1
        return hist
    (qa, b), (_, qc) = block
    qa, qb, qc = red(qa), red(2 * Fraction(b)), red(qc)
    for x in range(mod):
        for y in range(mod):
            hist[(qa * x * x + qb * x * y + qc * y * y) % mod] += 1
    return hist


@st.composite
def _small_block(draw, p, a):
    # entries scaled by powers of p, so that the split meets every gcd g;
    # the off-diagonal entry may be half-integral (an odd cross term at p = 2)
    def entry():
        return draw(st.integers(-40, 40)) * p ** draw(st.integers(0, a))

    if draw(st.booleans()):
        return ((Fraction(entry()),),)
    b = Fraction(entry(), draw(st.sampled_from([1, 2])))
    return ((Fraction(entry()), b), (b, Fraction(entry())))


@st.composite
def _level_and_blocks(draw, max_blocks):
    p, a = draw(st.sampled_from(_SMALL_LEVELS))
    return p, a, draw(st.lists(_small_block(p, a), min_size=1, max_size=max_blocks))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_level_and_blocks(1))
def test_split_histogram_matches_brute_force(case):
    p, a, (block,) = case
    assert sg._block_distribution(block, p, a).tolist() == _brute_histogram(block, p, a)


def _cyclic_convolution(f, g):
    f, g = np.array(f, dtype=object), np.array(g, dtype=object)
    out = np.zeros(len(f), dtype=object)
    for i, x in enumerate(f.tolist()):
        if x:
            out += x * np.roll(g, i)
    return out.tolist()


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_level_and_blocks(3))
def test_class_convolution_matches_full_convolution(case):
    p, a, blocks = case
    full = _brute_histogram(blocks[0], p, a)
    for blk in blocks[1:]:
        full = _cyclic_convolution(full, _brute_histogram(blk, p, a))
    counts = sg._block_counts(blocks, p, a)
    labels, _, sizes = sg._square_classes(p, a)
    assert [counts[c] for c in labels.tolist()] == full
    assert len(sizes) == (2 * a + 1 if p > 2 else max(4 * a - 4, 2))


@pytest.mark.parametrize("p, a", [(2, 1), (2, 2), (2, 7), (2, 12), (3, 1), (3, 8), (5, 4), (7, 3), (13, 2)])
def test_square_classes_list_smallest_members_and_sizes(p, a):
    labels, reps, sizes = sg._square_classes(p, a)
    labels = labels.tolist()
    assert reps == tuple(labels.index(k) for k in range(len(sizes)))
    assert sizes == tuple(labels.count(k) for k in range(len(sizes)))


# sha256 of repr((p, a, labels, reps, sizes, _class_constants(p, a))),
# concatenated over the levels below, as the modulo masks over all p^a
# residues computed them
CLASS_TABLES_SHA256 = "425cb0302de2052b6fe1edfb5c877fbce4e3c302390069e4adc57e8072358d2b"


def test_class_tables_are_pinned():
    sg._square_classes.cache_clear()
    sg._class_constants.cache_clear()
    digest = hashlib.sha256()
    for p, top in ((2, 12), (3, 8), (5, 6), (7, 5)):
        for a in range(1, top + 1):
            labels, reps, sizes = sg._square_classes(p, a)
            digest.update(repr((p, a, labels.tolist(), reps, sizes, sg._class_constants(p, a))).encode())
    assert digest.hexdigest() == CLASS_TABLES_SHA256


def test_block_counts_count_each_distinct_block_once(monkeypatch):
    counted = []
    honest = sg._block_distribution
    monkeypatch.setattr(sg, "_block_distribution", lambda block, p, a: counted.append(block) or honest(block, p, a))
    for key in ("S5", "A5"):
        blocks = sg._blocks_for(sg.FORMS[key].s_matrix, 3)
        counted.clear()
        sg._block_counts(blocks, 3, 4)
        assert sorted(counted) == sorted(set(blocks)), key
    assert len(set(sg._blocks_for(sg.FORMS["S5"].s_matrix, 3))) == 1


def test_class_convolution_refuses_bad_histograms(monkeypatch):
    blocks = sg._blocks_for(sg.FORMS["A5"].s_matrix, 3)
    honest = sg._block_distribution
    sg._block_counts(blocks, 3, 3)  # the true histograms pass

    def off_class(block, p, a):
        hist = honest(block, p, a).copy()
        hist[1] += 1  # 1 shares its class with 4, 7, ...; the mass moves off 0
        hist[0] -= 1
        return hist

    monkeypatch.setattr(sg, "_block_distribution", off_class)
    with pytest.raises(AssertionError, match=r"^siegel\.class_constant_histogram: "):
        sg._block_counts(blocks, 3, 3)
    monkeypatch.setattr(sg, "_block_distribution", lambda block, p, a: 2 * honest(block, p, a))
    with pytest.raises(AssertionError, match=r"^siegel\.class_count_total: "):
        sg._block_counts(blocks, 3, 3)


def test_closed_alphas_match_oracle_on_every_cell():
    # the closed forms depend on t through ord_p t and the unit class of t
    # (mod 8 at p = 2, mod 3 at p = 3): one t per cell, up to ord_2 t = 12
    # (levels 17 and 18) and ord_3 t = 6
    for e in range(13):
        for u in (1, 3, 5, 7):
            t = 2**e * u
            assert sg.alpha2_S5(t) == sg.oracle_alpha("S5", 2, t), t
            assert sg.alpha2_A1D4(t) == sg.oracle_alpha("A1D4", 2, t), t
            assert sg.alpha2_A5(t) == sg.oracle_alpha("A5", 2, t), t
    for e in range(7):
        for u in (1, 2):
            t = 3**e * u
            assert sg.alpha3_A5(t) == sg.oracle_alpha("A5", 3, t), t


def test_siegel_r_examples():
    assert sg.siegel_r("S5", 1).r == 10
    assert sg.siegel_r("A1D4", 1).r == 26
    assert sg.siegel_r("A5", 1).r == 30
    rep = sg.siegel_r("A5", 6)
    assert rep.r == 330 and rep.routes_agree
    assert dict(rep.local_factors)[3] == Fraction(11, 12)


def test_siegel_r_exactness_small():
    a5 = lt.theta_counts(lt.A(5), 20)
    a1d4 = lt.theta_counts(lt.standard_lattice("A1+D4"), 20)
    for t in range(1, 20):
        assert sg.siegel_r("A5", t).r == a5[t]
        assert sg.siegel_r("A1D4", t).r == a1d4[t]


def test_reports_carry_a_checked_enclosure():
    # the numeric route runs on every call: finite bounds, lo <= hi
    for key in sorted(sg.FORMS):
        for t in range(1, 41):
            rep = sg.siegel_r(key, t)
            lo, hi = rep.l_value_bounds
            assert math.isfinite(lo) and math.isfinite(hi) and lo <= hi, (key, t)
            assert rep.routes_agree


@pytest.mark.parametrize(
    "attr, wrong, name",
    [
        # D = 5, so 5 = delta does not divide 2 t |A| = 64
        ("_split_t", lambda honest: lambda t, det_a: honest(t, det_a)[:3] + (5,), "square_cofactor"),
        ("cohen_H", lambda honest: lambda m1, delta: -honest(m1, delta), "cohen_sign"),
        ("_euler_factor", lambda honest: lambda form, p, chi, alpha: honest(form, p, chi, alpha) / 7, "integral_r"),
        ("zagier_L_numeric", lambda honest: lambda delta: tuple(2 * x for x in honest(delta)), "routes_agree"),
    ],
)
def test_siegel_r_checks_fire(monkeypatch, attr, wrong, name):
    # each patch moves one side of one comparison; the other side stays honest
    assert sg.siegel_r("S5", 1).r == 10
    monkeypatch.setattr(sg, attr, wrong(getattr(sg, attr)))
    with pytest.raises(AssertionError, match=rf"^siegel\.{name}: "):
        sg.siegel_r("S5", 1)


# sha256 of repr(siegel_r(form, t)), concatenated over the forms S5, A1D4,
# A5 and, within each form, t = 1..400, as the assembly through
# `discriminant_of` and `local_factor` with Fraction products computed them
SIEGEL_R_SHA256 = "d432df5862f0f5250540b38608e1dd82257ce90b28a3c21c368bc9b3ac6460fe"


def test_siegel_r_reports_are_pinned():
    digest = hashlib.sha256()
    for form in ("S5", "A1D4", "A5"):
        for t in range(1, 401):
            digest.update(repr(sg.siegel_r(form, t)).encode())
    assert digest.hexdigest() == SIEGEL_R_SHA256


def test_public_helpers_agree_with_the_reports():
    # siegel_r splits t once and builds each Euler factor once; the public
    # helpers compute the same quantities on their own
    for key in ("S5", "A1D4", "A5"):
        form = sg.FORMS[key]
        for t in range(1, 401):
            rep = sg.siegel_r(form, t)
            zd = sg.discriminant_of(form, t)
            assert (zd.D, zd.delta, zd.f) == (rep.D, rep.delta, rep.t2), (key, t)
            assert sg.decompose_t(t, form.det_a) == (rep.t_a, rep.t1, rep.t2), (key, t)
            assert rep.local_factors == tuple((p, sg.local_factor(form, p, t)) for p in form.bad_primes), (key, t)


def test_each_discriminant_computes_one_cohen_number():
    # like the enclosure, the Cohen number is memoised per delta: the 120
    # reports for t <= 40 have 43 distinct delta
    sg.cohen_H.cache_clear()
    for form in sorted(sg.FORMS):
        for t in range(1, 41):
            sg.siegel_r(form, t)
    assert sg.cohen_H.cache_info().misses == 43


def test_a_warm_report_factors_only_2_t_det_a(monkeypatch):
    # one factorisation of 2 t |A| gives t_a, t1, t2, D and every chi_D(p);
    # the closed densities read the class of t and factor nothing
    factored = []
    honest = sg._factor
    monkeypatch.setattr(sg, "_factor", lambda n: factored.append(n) or honest(n))
    for key in sorted(sg.FORMS):
        form = sg.FORMS[key]
        for t in range(1, 61):
            sg.siegel_r(form, t)
            factored.clear()
            sg.siegel_r(form, t)
            assert factored == [2 * t * form.det_a], (key, t)


def test_zagier_discriminant_refuses_inconsistent_input():
    assert sg.ZagierDiscriminant(20, 5, 2).f == 2
    with pytest.raises(ValueError, match="delta != D"):
        sg.ZagierDiscriminant(20, 5, 1)


def test_jordan_split_guards_its_loop(monkeypatch):
    # no input reaches the bound: at odd p an off-diagonal pass is followed
    # by a diagonal pivot.  A valuation that ranks every non-integer below
    # the integers keeps choosing A5's half-integral off-diagonal entries,
    # which the pass keeps half-integral, so the loop never pivots
    honest = sg._val_p
    monkeypatch.setattr(sg, "_val_p", lambda x, p: honest(x, p) - (x.denominator != 1))
    with pytest.raises(AssertionError, match=r"^siegel\.jordan_converges: "):
        sg.jordan_split(sg.FORMS["A5"].s_matrix, 3)


def test_exact_route_guards_the_b_table(capsys, monkeypatch):
    # a wrong b_n table reaches the CLI as exit 3, not as a wrong answer
    from latq import cli

    honest = sg._b_table
    monkeypatch.setattr(sg, "_b_table", lambda delta, terms: 2 * honest(delta, terms))
    sg.zagier_L_numeric.cache_clear()
    try:
        code = cli.main(["siegel", "--form", "S5", "--t", "1"])
    finally:
        sg.zagier_L_numeric.cache_clear()
    out = capsys.readouterr()
    assert (code, out.out) == (cli.CROSSCHECK_FAILED, "")
    assert out.err.startswith("internal cross-check failure: siegel.routes_agree: "), out.err


def test_traced_parameter_names():
    # perfbench's tracer binds these parameters by name
    assert list(inspect.signature(sg.siegel_r).parameters) == ["form", "t"]
    assert list(inspect.signature(sg.zagier_L_numeric).parameters) == ["delta", "terms"]
    assert inspect.signature(sg.zagier_L_numeric).parameters["terms"].default == 20000
    assert list(inspect.signature(sg.local_density_oracle).parameters)[:2] == ["p", "a"]


def test_report_identities():
    # D = D_A * t1 with D_A the det-supported part of D
    for key in ("S5", "A1D4", "A5"):
        form = sg.FORMS[key]
        for t in range(1, 40):
            rep = sg.siegel_r(key, t)
            d_a = 1
            d = abs(rep.D)
            for p in (2, 3, 5, 7, 11, 13):
                if form.det_a % p == 0:
                    while d % p == 0:
                        d //= p
                        d_a *= p
            assert d_a * rep.t1 == rep.D
            assert rep.t_a * rep.t1 * rep.t2**2 == t


def test_nd6():
    assert sg.nd6(1) == 60
    assert sg.nd6(2) == 252
    counts = lt.theta_counts(lt.D(6), 41)
    for m in range(1, 41):
        assert sg.nd6(m) == counts[m]
