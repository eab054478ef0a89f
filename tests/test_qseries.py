import hashlib
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latq import cli
from latq import lattices as lt
from latq import qseries as qs


def test_theta3_expansion():
    t3 = qs.theta3(6)
    # exponents n^2/2: units n^2
    assert t3.coeffs[0] == 1
    assert t3.coeffs[1] == 2
    assert t3.coeffs[4] == 2
    assert t3.coeffs[9] == 2
    assert all(c == 0 for k, c in enumerate(t3.coeffs) if k not in (0, 1, 4, 9))
    assert t3.coefficient(0) == 1
    from fractions import Fraction

    assert t3.coefficient(Fraction(1, 2)) == 2
    assert t3.coefficient(Fraction(1, 3)) == 0


def test_theta3_shifts():
    assert qs.theta3_shifted(0, 10).coeffs == qs.theta3(10).coeffs
    alt = qs.theta3_shifted(3, 10)
    t3 = qs.theta3(10)
    assert all(a == (-b if k % 2 else b) for k, (a, b) in enumerate(zip(alt.coeffs, t3.coeffs)))


@pytest.mark.parametrize("k", range(6))
def test_theta3_shifted_is_integer(k):
    # zeta^{nk} + zeta^{-nk} = 2 cos(pi nk/3) at unit n^2, nothing off the squares
    coeffs = qs.theta3_shifted(k, 40).coeffs
    assert all(type(c) is int for c in coeffs)
    expected = [1] + [0] * (len(coeffs) - 1)
    for n in range(1, math.isqrt(len(coeffs) - 1) + 1):
        expected[n * n] = round(2 * math.cos(math.pi * n * k / 3))
    assert list(coeffs) == expected


# sha256 of repr(integer_coefficients()) at prec 128, as computed when the
# shifted thetas still had Eisenstein-integer coefficients
_CLOSED_SHA256 = {
    "A1": "e819956beb105e9afe54b946f4745ccea3e7188a38a6c040a7329b194a28d06e",
    "A2": "01283bf9d1448c752d6beb4f0eb6dac5066bcd473b5f009d103eae3968243439",
    "A5": "0c2b0e445d5a7eccce48936bd3a9b7eec102852366d050e0b3c36bcd4083ea3c",
    "D4": "9abb3b7fb2314ca41cc4defc83e687b5322c26ffdf2d207f892b10b27b4f7c1b",
    "D6": "97a3dc66b0456f18321f37fe69cced13feb97a8159b7c388521303c27ee6dfc3",
    "A1D4": "f95257a757defb29cb057a51ac803e12dd1dd6be0340f05cfb61b5aba30411a9",
    # theta_counts(E7, 128) from the coordinate model, before E7 had a closed form
    "E7": "4041d3104974d2eba26f9a5cb5d2daec34e8811d1c2f478f60213c31c5e49557",
}


def test_closed_thetas_pinned():
    assert set(cli._THETA_CLOSED) == set(_CLOSED_SHA256)
    for name, build in cli._THETA_CLOSED.items():
        coeffs = build(128).integer_coefficients()
        assert hashlib.sha256(repr(coeffs).encode()).hexdigest() == _CLOSED_SHA256[name], name


def test_scale_and_shift():
    t3 = qs.theta3(16)
    scaled = qs.scale_tau(t3, 6)
    assert scaled.coefficient(3) == 2
    assert scaled.coefficient(12) == 2
    assert scaled.coefficient(1) == 0
    sh = qs.shift_tau_by_one(t3)
    assert qs.shift_tau_by_one(sh).coeffs == t3.coeffs
    # integer-grid series are fixed
    d6 = qs.theta_D(6, 8)
    assert qs.shift_tau_by_one(d6).coeffs == d6.coeffs
    with pytest.raises(ValueError):
        qs.shift_tau_by_one(qs.QSeries(3, 2, (1, 0, 0, 0, 0, 0)))


def test_theta_A_values():
    assert qs.theta_A(1, 8).coeffs == (1, 2, 0, 0, 2, 0, 0, 0)
    a2 = qs.theta_A(2, 10)
    assert list(a2.coeffs) == lt.theta_counts(lt.A(2), 10, method="fincke-pohst")
    a5 = qs.theta_A(5, 8)
    assert a5.coeffs[:5] == (1, 30, 90, 140, 270)
    with pytest.raises(ValueError):
        qs.theta_A(3, 8)


@pytest.mark.parametrize("n", [1, 2, 5])
def test_theta_A_matches_enumeration(n):
    counts = lt.theta_counts(lt.A(n), 64)
    for prec in range(1, 65):
        assert list(qs.theta_A(n, prec).coeffs) == counts[:prec]


def test_theta_A_coefficients_pinned():
    # sha256 of the coefficients as computed when the shifted thetas still
    # had Eisenstein-integer coefficients: the integer blocks change nothing
    precs = (1, 2, 3, 8, 33, 103, 128, 200)
    coeffs = [qs.theta_A(n, prec).coeffs for n in (1, 2, 5) for prec in precs]
    assert hashlib.sha256(repr(coeffs).encode()).hexdigest() == "4e94490b4fae11f3cb190f7e826da3f181106dc8badafc6b4ca7f8e97e8a8480"


@pytest.mark.parametrize("prec", [0, -2])
def test_theta_blocks_refuse_nonpositive_prec(prec):
    for build in (qs.theta3, lambda p: qs.theta3_shifted(1, p), lambda p: qs.theta_A(5, p), lambda p: qs.theta_D(4, p)):
        with pytest.raises(ValueError, match="prec must be positive"):
            build(prec)


def test_theta_D_values():
    assert qs.theta_D(6, 4).coeffs == (1, 60, 252, 544)
    assert qs.theta_D(4, 3).coeffs == (1, 24, 24)
    assert qs.theta_D(2, 4).coeffs[:2] == (1, 4)
    assert list(qs.theta_D(5, 8).coeffs) == lt.theta_counts(lt.D(5), 8, method="fincke-pohst")


def test_theta_by_enumeration():
    a1d4 = lt.theta_counts(lt.standard_lattice("A1+D4"), 6)
    assert a1d4[:2] == [1, 26]
    e7 = lt.theta_counts(lt.E7(), 4)
    assert e7[1] == 126
    two = lt.theta_counts(lt.span(2), 9)
    assert tuple(two) == qs.theta_A(1, 9).coeffs


def test_product_and_inverse():
    a1 = qs.theta_A(1, 24)
    d4 = qs.theta_D(4, 24)
    prod = a1 * d4
    assert list(prod.coeffs) == lt.theta_counts(lt.standard_lattice("A1+D4"), 24)
    inv = prod.inverse()
    one = prod * inv
    assert one.coeffs[0] == 1 and all(c == 0 for c in one.coeffs[1:])
    assert (-1 * prod).inverse().coeffs == (-1 * inv).coeffs
    with pytest.raises(ValueError):
        (2 * a1).inverse()


def test_ring_laws_random():
    rng = random.Random(5)

    def rand_series():
        return qs.QSeries(1, 12, tuple(rng.randint(-4, 4) for _ in range(12)))

    for _ in range(20):
        a, b, c = rand_series(), rand_series(), rand_series()
        assert (a * b).coeffs == (b * a).coeffs
        assert ((a * b) * c).coeffs == (a * (b * c)).coeffs
        assert (a * (b + c)).coeffs == (a * b + a * c).coeffs


def test_truncation_consistency():
    # low coefficients of a product do not depend on discarded tails
    a = qs.theta3(30)
    b = qs.theta3(14)
    assert (a * a).truncate(14).coeffs == (b * b).coeffs


def test_mixed_grid_arithmetic():
    t3 = qs.theta3(10)  # grid 2
    one = qs.QSeries(1, 10, (1,) + (0,) * 9)  # grid 1
    s = t3 + one
    assert s.grid == 2
    assert s.coefficient(0) == 2


def test_power_matches_repeated_product():
    t3 = qs.theta3(12)
    assert (t3**3).coeffs == (t3 * t3 * t3).coeffs
    assert (t3**0).coeffs[0] == 1


def test_integrality_guards():
    t3 = qs.theta3(6)
    with pytest.raises(ValueError):
        t3.to_integer_grid()
    # shifted series collapse conjugate terms into integers
    shifted = qs.theta3_shifted(1, 6)
    assert shifted.coeffs[:5] == (1, 1, 0, 0, -1)


def test_cache_roundtrip(tmp_path):
    path = tmp_path / "theta.cache"
    records = {
        ("D6", 1, 8): list(qs.theta_D(6, 8).coeffs),
        ("A5", 1, 8): list(qs.theta_A(5, 8).coeffs),
    }
    qs.save_theta_cache(path, records)
    loaded = qs.load_theta_cache(path)
    assert loaded == records
    # tampering must be detected
    text = path.read_text().replace("60", "61", 1)
    path.write_text(text)
    with pytest.raises(ValueError):
        qs.load_theta_cache(path)


def test_cache_refuses_malformed_or_altered_headers(tmp_path):
    path = tmp_path / "theta.cache"
    qs.save_theta_cache(path, {("A5", 1, 4): [1, 30, 90, 140]})
    head = path.read_text().splitlines()[1]
    bad_heads = (
        head.replace("name=A5", "name=A6"),
        head.replace("grid=1", "grid=2"),
        head.replace("prec=4", "prec=5"),
        head.replace(" count=4", ""),
        head.replace(" sha256=", " digest="),
        head.replace("count=4", "count=-1"),
        head.replace("count=4", "count=x"),
        head.replace("grid=1", "grid"),
        head + " extra=1",
    )
    for k, bad in enumerate(bad_heads):
        bad_path = tmp_path / f"bad{k}.cache"
        bad_path.write_text(f"{qs.CACHE_MAGIC} records=1\n{bad}\n1\n30\n90\n140\n")
        with pytest.raises(ValueError):
            qs.load_theta_cache(bad_path)


_cache_records = st.dictionaries(
    st.tuples(st.text("ADEU0123456789+", min_size=1, max_size=5), st.integers(1, 12), st.integers(0, 40)),
    st.lists(st.integers(-(10**30), 10**30), max_size=6),
    max_size=4,
)
_printable = st.characters(min_codepoint=32, max_codepoint=126)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_cache_records, st.data())
def test_cache_roundtrip_and_corruption(tmp_path_factory, records, data):
    # fresh files for every example: rewriting a file in place can cost far
    # more than creating one
    base = tmp_path_factory.mktemp("theta-cache")
    qs.save_theta_cache(base / "saved", records)
    assert qs.load_theta_cache(base / "saved") == records
    # one line dropped, truncated, retyped in one character, or replaced
    lines = (base / "saved").read_text().splitlines()
    i = data.draw(st.integers(0, len(lines) - 1))
    kind = data.draw(st.sampled_from(["drop", "truncate", "retype", "replace"]))
    if kind == "drop":
        del lines[i]
    elif kind == "truncate":
        lines[i] = lines[i][: data.draw(st.integers(0, len(lines[i]) - 1))]
    elif kind == "retype":
        j = data.draw(st.integers(0, len(lines[i]) - 1))
        c = data.draw(_printable.filter(lambda c: c != lines[i][j]))
        lines[i] = lines[i][:j] + c + lines[i][j + 1 :]
    else:
        lines[i] = data.draw(st.text(_printable, max_size=80).filter(lambda t: t != lines[i]))
    (base / "corrupt").write_text("\n".join(lines) + "\n")
    try:
        loaded = qs.load_theta_cache(base / "corrupt")
    except ValueError:
        return
    assert loaded == records
