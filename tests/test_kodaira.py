import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
from math import isqrt
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latq import gram as gm
from latq import kodaira as ko
from latq import lattices as lt


SRC = Path(__file__).resolve().parent.parent / "src"
E7 = lt.E7()


def test_witness_table_rows():
    for d, p, lam in ko.WITNESS_TABLE:
        assert lt.norm(E7, lam) == 2 * d
        assert ko.orthogonal_root_count(lam) == 2 * p


def test_orthogonal_root_count_basics():
    root = lt.roots(E7)[0]
    assert ko.orthogonal_root_count(root) == 60
    assert ko.orthogonal_root_count((2, 1, 2, -2, 0, 0, 1)) == 14
    assert ko.orthogonal_root_count((-1, 2, 3, 1, 2, 1, 3)) == 16
    with pytest.raises(ValueError):
        ko.orthogonal_root_count((0,) * 7)


def test_root_forms_come_from_all_roots():
    # the reflection closure of the simple roots finds the roots of the
    # generic walk; G is invertible, so equal forms G r mean equal roots
    g = E7.gram
    walk = {tuple(sum(gi[j] * r[j] for j in range(7)) for gi in g) for r in lt.enumerate_norm(E7, 2)}
    forms = ko._e7_root_forms()
    assert len(forms) == len(walk) == 126
    assert set(forms) == walk


def test_counts_invariant_under_reflections():
    rng = random.Random(13)
    rts = lt.roots(E7)
    for _ in range(15):
        v = tuple(rng.randint(-2, 2) for _ in range(7))
        if not any(v):
            continue
        w = v
        for _ in range(rng.randint(1, 4)):
            w = lt.reflection(E7, rng.choice(rts), w)
        assert ko.orthogonal_root_count(v) == ko.orthogonal_root_count(w)


def test_non_integer_coordinates_are_refused():
    for bad in ((1.5, 0, 0, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0, 0.0), (1, 0, 0)):
        with pytest.raises(ValueError):
            ko.orthogonal_root_count(bad)
        with pytest.raises(ValueError):
            ko.lambda_to_doubled(bad)
    with pytest.raises(ValueError):
        ko.doubled_to_lambda((0.5, 0.5, 0.5, 0.5, -0.5, -0.5, -0.5, -0.5))


def test_coordinate_model_round_trip():
    rng = random.Random(17)
    for _ in range(30):
        lam = tuple(rng.randint(-4, 4) for _ in range(7))
        z = ko.lambda_to_doubled(lam)
        assert ko.doubled_to_lambda(z) == lam
        assert sum(x * x for x in z) == 4 * lt.norm(E7, lam)


def test_search_against_generic_enumeration():
    # certify the symmetry-class search against the Fincke-Pohst kernel
    for d in (1, 2, 3):
        res = ko.search(d)
        counts = sorted(
            {
                ko.orthogonal_root_count(v)
                for v in lt.enumerate_norm(E7, 2 * d)
            }
        )
        eligible = [n for n in counts if n >= 2]
        assert list(res.achievable) == eligible
        assert res.shell_size == len(lt.enumerate_norm(E7, 2 * d))


# blocks of 1, 2 and 3 array entries take one row at a time at every level;
# 20 and 100 cut levels inside the values of one prefix
BLOCKS = (1, 2, 3, 20, 100, ko._BLOCK)


def test_sorted_shells_match_brute_force(monkeypatch):
    # every nondecreasing 8-tuple of one parity, filtered by sum and norm
    takes, take = [], lt._Levels.take
    monkeypatch.setattr(lt._Levels, "take", lambda self: takes.append(1) or take(self))
    for d in range(1, 9):
        r = isqrt(8 * d)
        brute = [
            list(z)
            for parity in (0, 1)
            for z in itertools.combinations_with_replacement(range(-r + (r - parity) % 2, r + 1, 2), 8)
            if sum(z) == 0 and sum(x * x for x in z) == 8 * d
        ]
        blocks = {}
        for block in BLOCKS:
            # the level stack reads the bound from gram
            monkeypatch.setattr(gm, "_BLOCK", block)
            takes.clear()
            assert np.concatenate(list(ko._sorted_shells(8 * d))).tolist() == brute, (d, block)
            blocks[block] = len(takes)
        assert blocks[1] > blocks[BLOCKS[-1]], d


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
def test_shell_search_memory():
    # search(1600) grows 1.16 M five-coordinate prefixes: held all at once,
    # with the witness pass over every class of the least count on int64,
    # they rose the peak by about 119 MB; in blocks by about 33 MB, mostly
    # the int16 class cache.  The child reads its own high-water mark, as in
    # test_weyl.test_four_a1_in_e8_memory
    code = """
import json
from latq import kodaira as ko, lattices as lt

def high_water_kb():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))

lt.theta_e7(1601)
ko.search(1)
before = high_water_kb()
res = ko.search(1600)
print(json.dumps([res.shell_size, res.witness, (high_water_kb() - before) / 1024]))
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    shell, witness, rise_mb = json.loads(proc.stdout.splitlines()[-1])
    assert shell == lt.theta_e7(1601)[1600]
    assert lt.norm(E7, witness) == 3200
    assert rise_mb < 48, rise_mb


def test_class_root_counts_match_root_enumeration():
    # the array count against the 126 enumerated roots, class by class
    for d in range(1, 16):
        _, classes, counts = ko._shell_classes(d)
        for z, n in zip(classes.tolist(), counts.tolist()):
            assert ko.orthogonal_root_count(ko.doubled_to_lambda(z)) == n, (d, z)


def test_search_and_verdict_digest():
    # sha256 of repr(search(d)) + repr(verdict(d)) for d = 1..100, as the
    # recursive enumeration with per-class Python invariants produced them
    digest = hashlib.sha256()
    for d in range(1, 101):
        digest.update((repr(ko.search(d)) + repr(ko.verdict(d))).encode())
    assert digest.hexdigest() == "d1eeca1924c9cbc54e2774e5f6b586eddde1a4576fed505c868bd76dc51c15e1"


# sha256 of repr(search(d)) + repr(verdict(d)), as computed while the shell
# sizes were still checked against counts_e7: degrees on both sides of the
# power-of-two table sizes, and d = 800
LARGE_DEGREE_SHA256 = {
    127: "340b00b4b7c9ffd74a6c9604e2e650400fa8dfee58f670746e93bc0b3841938d",
    128: "1c1ac7cf06075eda1a37c22e732ec8288a53c6412f12dd3027c0fcb6bf72286c",
    255: "b00528d02e65358a0d82a720cf07e0b2fdea9226937404014278532fdfe0be0a",
    256: "792e1030e7b9ff6156edc906b045312e946fddf183aced6e337298d5d94936e1",
    400: "defd584f7ae739aa81f43ec1a3365847ab0fdce2882304ca2c2e5918dbce01eb",
    511: "dc022778b8b2b1e345e4e9365d9ac9a13fa59f4d41386c75e6f020e354da8275",
    512: "f1a59fc2b6e810a8e0afb720ded6c6d45c2d94760d83088f834edf38e3768001",
    800: "04ed765e54b3c55df8496ff084620d5c517b6ffae01eaba14e6970c697d1b7f2",
}


def test_large_degree_search_and_verdict_pinned():
    got = {d: hashlib.sha256((repr(ko.search(d)) + repr(ko.verdict(d))).encode()).hexdigest() for d in LARGE_DEGREE_SHA256}
    assert got == LARGE_DEGREE_SHA256


@pytest.mark.parametrize("d", [1, 12, 127, 200])
def test_shell_check_catches_one_wrong_theta_coefficient(monkeypatch, d):
    table = list(lt.theta_e7(256))
    table[d] += 1
    monkeypatch.setattr(gm, "_theta_e7_table", lambda prec: tuple(table))
    with pytest.raises(AssertionError, match="shell size mismatch"):
        ko._shell_classes.__wrapped__(d)


def test_verdict_does_not_need_the_coordinate_model(monkeypatch):
    # the shell check reads the closed theta identity; counts_e7 stays the
    # independent count that certifies it (criterion 4)
    def refuse(*args):
        raise AssertionError("counts_e7 was called")

    monkeypatch.setattr(lt, "counts_e7", refuse)
    monkeypatch.setattr(lt, "_e7_table", refuse)
    ko.search.cache_clear()
    ko._shell_classes.cache_clear()
    for d in range(1, 131):
        ko.verdict(d)


def test_search_small_degrees():
    res = ko.search(1)
    assert res.achievable == (60,)
    assert res.min_orthogonal == 60
    assert lt.norm(E7, res.witness) == 2
    assert ko.search(9).achievable[0] == 16
    assert ko.search(11).achievable[0] == 16
    assert ko.search(10).achievable[0] == 18


def test_search_witness_properties():
    for d in (12, 13, 19):
        res = ko.search(d)
        assert lt.norm(E7, res.witness) == 2 * d
        assert ko.orthogonal_root_count(res.witness) == res.min_orthogonal
        assert res.min_orthogonal <= 14
        assert res.success
        # deterministic
        assert ko.search(d).witness == res.witness


def test_achievable_counts_are_even():
    for d in (1, 2, 5, 9, 12):
        res = ko.search(d)
        assert all(n % 2 == 0 for n in res.achievable)
        assert all(2 <= n <= 126 for n in res.achievable)


def test_weight():
    assert ko.weight(14) == 19
    assert ko.weight(16) == 20
    assert ko.weight(2) == 13
    with pytest.raises(ValueError):
        ko.weight(15)
    with pytest.raises(ValueError):
        ko.weight(0)


def test_inequality_examples():
    assert ko.inequality_check(17, 5) == (True, 12120)
    holds, slack = ko.inequality_check(19, 5)
    assert not holds and slack < 0
    assert ko.inequality_check(12, 6)[0]
    with pytest.raises(ValueError):
        ko.inequality_check(5, 7)
    # a nonpositive m would index the theta tables from the end
    for m in (0, -1):
        with pytest.raises(ValueError):
            ko.inequality_check(m, 5)


def test_inequality_scan_builds_few_tables():
    # the tables are built at powers of two, not at every m >= 128
    ko._theta_tables.cache_clear()
    for m in range(1, 301):
        ko.inequality_check(m, 5)
    assert ko._theta_tables.cache_info().misses <= 3


# sha256 of `latq inequality --coeff c --m-max 300`, as the scan that built
# one table per m >= 128 printed it
INEQUALITY_SHA256 = {
    "5": "df8a69312cd15e1f66b820d6e95cff6927b4f4e158ffa37f8cd38acff2f5eac0",
    "6": "9a178be2a2ce80a4f01b31f674ea3f4dc4660ea8ab02722c99826877b9a697b2",
}


@pytest.mark.parametrize("coeff", sorted(INEQUALITY_SHA256))
def test_inequality_scan_output_is_pinned(coeff, capsys):
    from latq import cli

    assert cli.main(["inequality", "--coeff", coeff, "--m-max", "300"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == INEQUALITY_SHA256[coeff]


def test_inequality_implies_search_success():
    for d in range(1, 31):
        if ko.inequality_check(d, 5)[0]:
            assert ko.search(d).min_orthogonal <= 14, d
        if ko.inequality_check(d, 6)[0]:
            assert ko.search(d).min_orthogonal <= 16, d


def test_verdicts():
    assert ko.verdict(12).classification == "GeneralType"
    assert ko.verdict(12).weight == 19
    v11 = ko.verdict(11)
    assert v11.classification == "NonNegativeKodaira"
    assert v11.weight == 20
    assert lt.norm(E7, v11.witness) == 22
    assert ko.orthogonal_root_count(v11.witness) == 16
    assert ko.verdict(1).classification == "Inconclusive"
    assert ko.verdict(1).weight is None


def test_verdict_certificate():
    cert = ko.verdict(12).certificate
    assert cert["exhaustive"] and cert["weight"] == 19


def brute_witness(classes):
    """Lex-min simple-root coordinates over every distinct permutation."""
    return min(
        ko.doubled_to_lambda(p) for z in classes for p in set(itertools.permutations(z))
    )


def test_witness_matches_brute_force_per_class():
    for d in range(1, 9):
        _, classes, _ = ko._shell_classes(d)
        for z in classes.tolist():
            assert ko._lex_min_witness([z]) == brute_witness([z]), (d, z)


def test_witness_matches_brute_force_on_search_classes():
    for d in (9, 11, 12, 19, 40):
        _, classes, counts = ko._shell_classes(d)
        res = ko.search(d)
        assert res.witness == brute_witness(classes[counts == res.min_orthogonal].tolist())
        # verdict reads the N = 16 classes at d = 9, 11 and the search elsewhere
        assert ko.verdict(d).witness == res.witness


@st.composite
def lattice_classes(draw):
    """Sum-zero 8-tuples of one parity with entries in [-6, 6]."""
    parity = draw(st.integers(0, 1))
    vals = st.integers(-3, 3 - parity).map(lambda x: 2 * x + parity)
    head = draw(st.lists(vals, min_size=7, max_size=7).filter(lambda h: abs(sum(h)) <= 6))
    return (*head, -sum(head))


@settings(deadline=None, derandomize=True, max_examples=60)
@given(lattice_classes())
def test_witness_matches_brute_force_drawn(z):
    assert ko._lex_min_witness([z]) == brute_witness([z])


def test_witness_is_block_invariant(monkeypatch):
    for d in (9, 12, 19, 40):
        _, classes, counts = ko._shell_classes(d)
        for n in np.unique(counts).tolist():
            want = ko._lex_min_witness(classes[counts == n])
            for block in BLOCKS:
                monkeypatch.setattr(ko, "_BLOCK", block)
                assert ko._lex_min_witness(classes[counts == n]) == want, (d, n, block)
            monkeypatch.undo()


def test_odd_numerator_is_refused(monkeypatch):
    # in a lattice class every z_i has one parity, so z_j - z_0 v7_j is even
    # for v7_j = +/-1; a v7 with an even entry breaks only the numerator side
    v7 = (1, 0, 1, 1, -1, -1, -1, -1)
    monkeypatch.setattr(ko, "E7_SIMPLE_DOUBLED", (*lt.E7_SIMPLE_DOUBLED[:6], v7))
    with pytest.raises(AssertionError, match="odd simple-root numerator"):
        ko._lex_min_witness([(-1, -1, -1, -1, 1, 1, 1, 1)])


def test_doubled_sum_zero_fires(monkeypatch):
    # a v7 whose entries do not sum to zero breaks the doubled vector alone
    v7 = (1, 1, 1, 1, -1, -1, -1, 1)
    monkeypatch.setattr(ko, "E7_SIMPLE_DOUBLED", (*lt.E7_SIMPLE_DOUBLED[:6], v7))
    with pytest.raises(AssertionError, match=r"^kodaira\.doubled_sum_zero: "):
        ko.lambda_to_doubled((0, 0, 0, 0, 0, 0, 1))


def test_witness_round_trip_is_checked(monkeypatch):
    # the reconstruction side alone is shifted off the array witness
    exact = ko.doubled_to_lambda
    monkeypatch.setattr(ko, "doubled_to_lambda", lambda z: tuple(x + 1 for x in exact(z)))
    with pytest.raises(AssertionError, match="does not round-trip"):
        ko._lex_min_witness([(-1, -1, -1, -1, 1, 1, 1, 1)])


def test_class_outside_lattice_is_refused():
    with pytest.raises(AssertionError, match="left the lattice"):
        ko._lex_min_witness([(-3, -1, 0, 0, 0, 0, 1, 3)])
    with pytest.raises(AssertionError, match="left the lattice"):
        ko._lex_min_witness([(0, 0, 0, 0, 0, 0, 0, 2)])
