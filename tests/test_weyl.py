import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from latq import gram as gm
from latq import lattices as lt, weyl

SRC = Path(__file__).resolve().parent.parent / "src"


def canonical_object(obj):
    """Canonical form of a set of roots: each root sign-normalized by its
    first nonzero coordinate, the tuple sorted."""
    return tuple(sorted(lt._sign_normalize(tuple(v)) for v in obj))


def test_object_counts():
    e7 = lt.E7()
    assert len(weyl.positive_roots(e7)) == 63
    assert len(weyl.a1a1_sublattices(e7)) == 945
    assert len(weyl.a2_sublattices(e7)) == 336
    assert len(weyl.positive_roots(lt.E8())) == 120


def test_a1a1_orbit_in_e7():
    objects, orbits, sizes = weyl.orbit_summary(lt.E7(), "A1+A1")
    assert objects == 945
    assert orbits == 1
    assert sizes == (945,)


def test_a2_orbit_in_e7():
    objects, orbits, sizes = weyl.orbit_summary(lt.E7(), "A2")
    assert objects == 336
    assert orbits == 1


def test_four_a1_orbits_in_e8():
    objects, orbits, sizes = weyl.orbit_summary(lt.E8(), "4A1")
    assert objects == 122850
    assert orbits == 2
    assert sum(sizes) == 122850


def test_a2_objects_have_a2_grams():
    e7 = lt.E7()
    for obj in weyl.a2_sublattices(e7)[:10]:
        a, b, c = obj
        norms = sorted(abs(lt.inner(e7, x, y)) for x in obj for y in obj if x != y)
        assert all(lt.norm(e7, x) == 2 for x in obj)
        assert norms == [1, 1, 1, 1, 1, 1]
        assert len({a, b, c}) == 3


def test_canonicalization_rejects_zero():
    with pytest.raises(ValueError):
        canonical_object(((0, 0, 0, 0, 0, 0, 0),))


def test_unknown_kind():
    with pytest.raises(ValueError):
        weyl.orbit_summary(lt.E7(), "B2")


def test_reflection_orbits_of_roots_is_single():
    # the root system itself forms one orbit
    a5 = lt.A(5)
    objs = [(r,) for r in weyl.positive_roots(a5)]
    count, sizes, reps = lt.reflection_orbits(a5, objs)
    assert count == 1
    assert sizes == [15]


WEYL_ORDER = {"E7": 2903040, "E8": 696729600}
# the lexicographically smallest canonical object of each 4A1 class in E8
E8_4A1_REPS = [
    ((0, 0, 0, 0, 0, 0, 0, 1), (0, 0, 0, 0, 0, 1, 0, 0), (0, 0, 0, 1, 0, 0, 0, 0), (0, 1, 1, 1, 0, 0, 0, 0)),
    ((0, 0, 0, 0, 0, 0, 0, 1), (0, 0, 0, 0, 0, 1, 0, 0), (0, 0, 0, 1, 0, 0, 0, 0), (2, 2, 4, 5, 4, 3, 2, 1)),
]


@pytest.mark.parametrize("name", ["E7", "E8"])
@pytest.mark.parametrize("kind", ["A1+A1", "A2", "4A1"])
def test_orbit_sizes_divide_weyl_order(name, kind):
    objects, orbits, sizes = weyl.orbit_summary(getattr(lt, name)(), kind)
    assert len(sizes) == orbits and sum(sizes) == objects
    assert list(sizes) == sorted(sizes, reverse=True)
    assert all(WEYL_ORDER[name] % s == 0 for s in sizes)


def test_four_a1_representatives_in_e8():
    e8 = lt.E8()
    count, sizes, reps = lt.reflection_orbits(e8, weyl.four_a1_sublattices(e8))
    assert (count, sizes, reps) == (2, [113400, 9450], E8_4A1_REPS)


def test_equal_orbit_sizes_keep_first_object_order():
    a1a1 = lt.standard_lattice("A1+A1")
    assert lt.reflection_orbits(a1a1, [((0, 1),), ((1, 0),)]) == (2, [1, 1], [((0, 1),), ((1, 0),)])


def test_reflection_orbits_refusals():
    a2 = lt.A(2)
    with pytest.raises(ValueError, match="not distinct"):
        lt.reflection_orbits(a2, [((1, 0),), ((-1, 0),)])
    with pytest.raises(ValueError, match="not closed"):
        lt.reflection_orbits(a2, [((1, 0),)])
    with pytest.raises(ValueError, match="not closed"):
        lt.reflection_orbits(a2, [((1, 0),), ((1, 1),)])
    # the roots are closed, the objects are not: s_1 takes {a1, a2} to {a1, a1 + a2}
    with pytest.raises(ValueError, match="not closed"):
        lt.reflection_orbits(a2, [((1, 0), (0, 1)), ((1, 1), (1, 1))])
    # 2 (x, r) / (r, r) = -1/2 for x = (0, 1), r = (2, 0)
    with pytest.raises(ValueError, match="not integral"):
        lt.reflection_orbits(a2, [((1, 0),), ((0, 1),), ((1, 1),)], generators=[(2, 0)])
    with pytest.raises(ValueError, match="isotropic"):
        lt.reflection_orbits(lt.U(), [((1, 0),)], generators=[(1, 0)])
    with pytest.raises(ValueError, match="zero vector"):
        lt.reflection_orbits(a2, [((0, 0),)])
    with pytest.raises(ValueError):
        lt.reflection_orbits(a2, [((1, 0, 0),)])


def _orbits_by_reflection(L, objects, generators):
    """reflection_orbits by closing each canonical object under
    `lattices.reflection`, one Python tuple at a time."""
    seen, orbits = set(), []
    for obj in map(canonical_object, objects):
        if obj in seen:
            continue
        orbit, todo = {obj}, [obj]
        while todo:
            cur = todo.pop()
            for r in generators:
                image = canonical_object([lt.reflection(L, r, v) for v in cur])
                if image not in orbit:
                    orbit.add(image)
                    todo.append(image)
        seen |= orbit
        orbits.append(orbit)
    orbits.sort(key=len, reverse=True)
    return len(orbits), [len(o) for o in orbits], [min(o) for o in orbits]


@pytest.mark.parametrize("n", [10**9, 3 * 10**9, 10**10])
def test_orbits_with_gram_entries_past_int64(n):
    # A2 in the basis with Gram ((2, 2n - 1), (2n - 1, 2n^2 - 2n + 2)): the root
    # coordinates are near n, the Gram entries pass 2^63 from n = 3e9 on, and
    # the root coordinates no longer pack into int64 keys at n = 1e10
    L = lt.GramLattice(((2, 2 * n - 1), (2 * n - 1, 2 * n * n - 2 * n + 2)))
    pos = weyl.positive_roots(L)
    assert sorted(pos) == [(1, 0), (n - 1, -1), (n, -1)]
    lines = [(r,) for r in pos]
    expected = _orbits_by_reflection(L, lines, lt.roots(L))
    assert expected == (1, [3], [((1, 0),)])
    assert _orbits_by_reflection(L, [pos], lt.roots(L)) == (1, [1], [tuple(sorted(pos))])
    if n < 10**10:
        assert lt.reflection_orbits(L, lines) == expected
        # generators may come as an iterator, read once
        assert lt.reflection_orbits(L, lines, iter(lt.roots(L))) == expected
        assert weyl.orbit_summary(L, "A2") == (1, 1, (1,))
    else:
        with pytest.raises(ValueError, match="too large to pack"):
            lt.reflection_orbits(L, lines)
        with pytest.raises(ValueError, match="too large to pack"):
            weyl.orbit_summary(L, "A2")


# ---------------------------------------------------------------------------
# outputs pinned before the enumerators and the closure moved to root indices:
# sha256 of repr(...), taken from the per-pair loop enumerators below and the
# coordinate-tuple closure they fed


def _sha(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()


ENUMERATOR_SHA256 = {
    ("E7", "a1a1_sublattices"): "7dfb3a5ea15b53e6c4550865a75f626e11c3b4ccc69e2bd20bb7f51b7f847064",
    ("E7", "a2_sublattices"): "b291850616986397b491a26d4099b4a42415d48f58ad069428f16885417234d8",
    ("E7", "four_a1_sublattices"): "7b056bd37581f405f577e93dcca27f6be40236891115e0056e4f8d47c571d60f",
    ("E8", "a1a1_sublattices"): "8a8ae70564eaa8c781e4881a1ba0c5fdc18afcc0eba30bc062870d6586eff824",
    ("E8", "a2_sublattices"): "ede22a6a35617340f68cfa954070b069ab451638c134b20d9b07df87f28ce8e2",
    ("E8", "four_a1_sublattices"): "a32f2a8fb4d547591517829a2265d76d4137ace83f7de19564ea63e1fbff69d6",
    ("D6", "a1a1_sublattices"): "d68e09519f2d6619d76f3a3911227fa75dcbe7ace1356285b113391dbcd0b3db",
    ("D6", "a2_sublattices"): "785f801a167c860fd3de1ae7f12a8e9225b48148137844b06b8e173b78462c29",
    ("D6", "four_a1_sublattices"): "6a94358999555ae945dafdc24f9ee4cbf87125a0242ecd2dc06c82840b981649",
}

SUMMARY_SHA256 = {
    ("A5", "A1+A1"): "55927d8e9a8f0a06bc67685416ea73d64c77d425d5fca384b0a158bd24bcee71",
    ("A5", "A2"): "0f1ca69b838fd31302debc872ac111598d5d62c0b016162735bb89192e60d548",
    ("D4", "A1+A1"): "bd0d98ad532c3a92b744e008a9b1bfef19e202e2bdf6e465af4525b04650f460",
    ("D4", "A2"): "8c19ac4517faed54b0a0817422065861f292b85bb3f93373e9a12e12bd388f6a",
    ("D4", "4A1"): "921373b3f7546687054c4f394ac3f419d8e6e1037583f845d0ec3d4d0fdfa287",
    ("D6", "A1+A1"): "05c7cad781d75c7beb23309b136cf57aff2508fd151e1c8632cbdd04011fb2b1",
    ("D6", "A2"): "6906b6647dd46d1680c623a6000f1972b807dbbd3243ad76c4195fcdaa7ed824",
    ("D6", "4A1"): "8b81e41b181a60ffe27adf2a024116310446b9be9e2461f07a507f73ea572532",
    ("E7", "A1+A1"): "71c4ab2cdc3da1aeb5dbd25cfac4b7f6e68ca9704e4556b332826a4a19d586b0",
    ("E7", "A2"): "e8360fb6a08167f96d16a67c0534ae565f38d087b45d31ad62863e0c885d3c22",
    ("E7", "4A1"): "4cbdff040b856e3d4c3e77f1a2beaaf9e3d33f166d066570e406dc11f88e0a41",
    ("E8", "A1+A1"): "b45a9448a2951681a5193977eb64638529300f2817e6c89e28dfd3423171b8fd",
    ("E8", "A2"): "0cf5f35099dc908d15b706322bcd4b89b991867ee8d0dd8d2d3a94ed287a1eae",
    ("E8", "4A1"): "23a6fd80ce8cf69964cdf440a2259c1c13d5036f9b741e1b6499293c171aec52",
    ("A1+D4", "A1+A1"): "1ed92e42bc116b6b8e3dba41caec2d99c7047c2770f7935a2900ac1b218b7272",
    ("A1+D4", "A2"): "8c19ac4517faed54b0a0817422065861f292b85bb3f93373e9a12e12bd388f6a",
    ("A1+D4", "4A1"): "21cf5136c63ee4a7addcbb24b25ea179edd6c2bbc776febe617e9078aaca2012",
}

FOUR_A1_ORBITS_SHA256 = {
    "E7": "7ec5cd65e4076fe07ead8f5c032bd9a986fd25d2a86236ac072e80a93ff8ddce",
    "E8": "eb5f4ce1eba10212ef521395e7ff3b80912ac08d8b98a4b99e13191249be6f01",
}


@pytest.mark.parametrize(("name", "fn"), sorted(ENUMERATOR_SHA256))
def test_enumerators_match_pins(name, fn):
    assert _sha(getattr(weyl, fn)(lt.standard_lattice(name))) == ENUMERATOR_SHA256[name, fn]


@pytest.mark.parametrize(("name", "kind"), sorted(SUMMARY_SHA256))
def test_orbit_summary_matches_pins(name, kind):
    assert _sha(weyl.orbit_summary(lt.standard_lattice(name), kind)) == SUMMARY_SHA256[name, kind]


@pytest.mark.parametrize("name", ["E7", "E8"])
def test_four_a1_reflection_orbits_match_pins(name):
    L = lt.standard_lattice(name)
    assert _sha(lt.reflection_orbits(L, weyl.four_a1_sublattices(L))) == FOUR_A1_ORBITS_SHA256[name]


# the per-pair loop enumerators on lt.inner and canonical_object, kept as the
# brute-force reference for the index enumeration


def _loop_a1a1(L):
    pos = weyl.positive_roots(L)
    return [
        canonical_object((pos[i], pos[j]))
        for i in range(len(pos))
        for j in range(i + 1, len(pos))
        if lt.inner(L, pos[i], pos[j]) == 0
    ]


def _loop_a2(L):
    pos = weyl.positive_roots(L)
    seen = set()
    for a in pos:
        for b in pos:
            pr = lt.inner(L, a, b)
            if a != b and pr in (1, -1):
                b = b if pr == -1 else tuple(-x for x in b)
                seen.add(canonical_object((a, b, tuple(x + y for x, y in zip(a, b)))))
    return sorted(seen)


def _loop_four_a1(L):
    pos = weyl.positive_roots(L)
    n = len(pos)
    orth = [[lt.inner(L, pos[i], pos[j]) == 0 for j in range(n)] for i in range(n)]
    return [
        canonical_object((pos[i], pos[j], pos[k], pos[l]))
        for i in range(n)
        for j in range(i + 1, n)
        if orth[i][j]
        for k in range(j + 1, n)
        if orth[i][k] and orth[j][k]
        for l in range(k + 1, n)
        if orth[i][l] and orth[j][l] and orth[k][l]
    ]


@pytest.mark.parametrize("name", ["A2", "A5", "D4", "D6", "E7"])
def test_index_enumerators_match_loops(name):
    L = lt.standard_lattice(name)
    assert weyl.a1a1_sublattices(L) == _loop_a1a1(L)
    assert weyl.a2_sublattices(L) == _loop_a2(L)
    assert weyl.four_a1_sublattices(L) == _loop_four_a1(L)


def test_empty_configuration_sets():
    assert weyl.orbit_summary(lt.A(5), "4A1") == (0, 0, ())
    for kind in ("A1+A1", "A2", "4A1"):
        assert weyl.orbit_summary(lt.A(1), kind) == (0, 0, ())
    # lattices without roots: the tuple kernel starts from an empty level
    for L in (lt.rescale(lt.E8(), 2), lt.span(4)):
        for kind in ("A1+A1", "A2", "4A1"):
            assert weyl.orbit_summary(L, kind) == (0, 0, ())
        assert weyl.a1a1_sublattices(L) == []
        assert weyl.four_a1_sublattices(L) == []
    assert weyl.four_a1_sublattices(lt.A(5)) == []
    assert lt.reflection_orbits(lt.A(2), []) == (0, [], [])
    assert lt.reflection_orbits(lt.A(2), iter(())) == (0, [], [])


def test_malformed_objects_are_still_refused():
    a2 = lt.A(2)
    with pytest.raises(ValueError):  # ragged: objects of different sizes
        lt.reflection_orbits(a2, [((1, 0),), ((1, 0), (0, 1))])
    with pytest.raises(ValueError):  # ragged: roots of different lengths
        lt.reflection_orbits(a2, [((1, 0),), ((1, 0, 0),)])
    with pytest.raises(ValueError, match="equal-size"):  # wrong rank
        lt.reflection_orbits(a2, [((1, 0, 0),), ((0, 1, 0),)])
    with pytest.raises(ValueError, match="equal-size"):  # vectors, not collections
        lt.reflection_orbits(a2, [(1, 0), (0, 1)])


@pytest.mark.parametrize("kind", ["A1+A1", "A2", "4A1"])
def test_orbit_summary_does_no_per_object_python_work(monkeypatch, kind):
    # the configurations are enumerated and closed on root-index arrays; a
    # per-pair inner product must not return (the per-object canonical tuple
    # is no longer in the package at all)
    def refuse(*args):
        raise AssertionError("orbit_summary called a per-object helper")

    e8 = lt.E8()
    expected = weyl.orbit_summary(e8, kind)
    weyl.orbit_summary.cache_clear()
    monkeypatch.setattr(gm, "inner", refuse)
    monkeypatch.setattr(lt, "inner", refuse)
    monkeypatch.setattr(weyl, "inner", refuse, raising=False)
    assert weyl.orbit_summary(e8, kind) == expected


# ---------------------------------------------------------------------------
# the closure moves objects by a Coxeter element c and the reflections that c
# and the kept ones do not reach; every generating set must give the same
# orbits

ENUMERATORS = {"A1+A1": weyl.a1a1_sublattices, "A2": weyl.a2_sublattices, "4A1": weyl.four_a1_sublattices}


def _basis(L):
    return [tuple(int(i == j) for j in range(L.rank)) for i in range(L.rank)]


def _generator_sets(L):
    basis = _basis(L)
    roots = lt.roots(L)
    return {
        "default": None,
        "reversed basis": basis[::-1],
        "shuffled roots": random.Random(23).sample(roots, len(roots)),
        "roots": roots,
        "roots iterator": iter(roots),
        "basis with a repeat": basis[:2] + basis[1:],
    }


def _spy_kept(monkeypatch):
    """Record (kept indices, generator count) of every _kept_generators call."""
    calls = []
    real = lt._kept_generators

    def spy(coxeter, tos, lines):
        kept = real(coxeter, tos, lines)
        calls.append((list(kept), len(tos)))
        return kept

    monkeypatch.setattr(lt, "_kept_generators", spy)
    return calls


@pytest.mark.parametrize("kind", sorted(ENUMERATORS))
@pytest.mark.parametrize("name", ["A2", "A5", "D4", "D6", "E7", "A1+D4"])
def test_generating_sets_give_the_same_orbits(name, kind):
    L = lt.standard_lattice(name)
    objects = ENUMERATORS[kind](L)
    if name == "E7":
        # the brute force takes seconds here; the default answer is pinned
        expected = lt.reflection_orbits(L, objects)
        count, sizes, _ = expected
        assert _sha((len(objects), count, tuple(sizes))) == SUMMARY_SHA256[name, kind]
        if kind == "4A1":
            assert _sha(expected) == FOUR_A1_ORBITS_SHA256[name]
    else:
        expected = _orbits_by_reflection(L, objects, _basis(L))
    for label, generators in _generator_sets(L).items():
        assert lt.reflection_orbits(L, objects, generators) == expected, label


def test_nothing_dropped_from_orthogonal_lines(monkeypatch):
    # s_1 and s_2 fix both lines of A1+A1, so c fixes them too: each
    # generator's line is reached by no other, both are kept and no c is built
    L = lt.standard_lattice("A1+A1")
    objects = [((0, 1),), ((1, 0),)]
    calls = _spy_kept(monkeypatch)
    assert lt.reflection_orbits(L, objects) == _orbits_by_reflection(L, objects, _basis(L))
    assert calls == [([0, 1], 2)]


def test_generator_off_the_roots_is_kept(monkeypatch):
    # the A2 objects of A1+D4 lie in D4, so the A1 generator's line is not
    # among their roots: nothing shows that c reaches it, and it stays kept
    L = lt.standard_lattice("A1+D4")
    objects = weyl.a2_sublattices(L)
    assert all(v[0] == 0 for obj in objects for v in obj)
    calls = _spy_kept(monkeypatch)
    assert lt.reflection_orbits(L, objects) == _orbits_by_reflection(L, objects, _basis(L))
    [(kept, total)] = calls
    assert kept[0] == 0 and len(kept) < total


def test_refusals_see_every_generator():
    # the first two generators already give the whole group; the third is
    # still checked at the root level
    a2 = lt.A(2)
    lines = [((1, 0),), ((0, 1),), ((1, 1),)]
    with pytest.raises(ValueError, match="not integral"):
        lt.reflection_orbits(a2, lines, generators=[(1, 0), (0, 1), (2, 0)])
    with pytest.raises(ValueError, match="isotropic"):
        lt.reflection_orbits(a2, lines, generators=[(1, 0), (0, 1), (0, 0)])
    # s_(1,1) swaps the two lines of A1+A1, after two generators that fix them
    with pytest.raises(ValueError, match="not closed"):
        lt.reflection_orbits(lt.standard_lattice("A1+A1"), [((1, 0),)], generators=[(1, 0), (0, 1), (1, 1)])
    # closed under s_1, which is kept, but not under the dropped s_2
    with pytest.raises(ValueError, match="not closed"):
        lt.reflection_orbits(a2, [((1, 0), (0, 1)), ((1, 0), (1, 1))])


# kept generators of each set, for the objects of all positive root lines
KEPT_COUNTS = [
    ("A1+A1", "basis", 2),
    ("A2", "basis", 1),
    ("A5", "basis", 1),
    ("D4", "basis", 2),
    ("D6", "basis", 2),
    ("A1+D4", "basis", 3),
    ("E7", "basis", 2),
    ("E8", "basis", 1),
    ("D24", "basis", 2),
    ("E7", "roots", 7),
    ("E8", "roots", 9),
]


@pytest.mark.parametrize(("name", "generators", "kept"), KEPT_COUNTS)
def test_kept_generator_counts(monkeypatch, name, generators, kept):
    L = lt.standard_lattice(name)
    lines = [(r,) for r in weyl.positive_roots(L)]
    calls = _spy_kept(monkeypatch)
    lt.reflection_orbits(L, lines, None if generators == "basis" else lt.roots(L))
    [(indices, total)] = calls
    assert (len(indices), total) == (kept, L.rank if generators == "basis" else len(lt.roots(L)))


def test_orbit_summary_keeps_one_simple_reflection_of_e8(monkeypatch):
    weyl.orbit_summary.cache_clear()
    calls = _spy_kept(monkeypatch)
    assert weyl.orbit_summary(lt.E8(), "4A1") == (122850, 2, (113400, 9450))
    weyl.orbit_summary.cache_clear()
    assert calls == [([0], 8)]


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
def test_four_a1_in_e8_memory():
    # the coordinate-tuple route rose by about 92 MB here, the index route by
    # about 35 MB at first and 25 MB with one object permutation per
    # generator, by about 17 MB on the Coxeter-element closure, and by about
    # 7.5 MB with the tuples grown in blocks and narrow index dtypes.  The child
    # reads its own high-water mark (VmHWM, the ru_maxrss of its address
    # space): ru_maxrss itself starts at the peak of the process that spawned
    # it, which in a test run already exceeds the rise
    code = """
import json
from latq import lattices as lt, weyl

def high_water_kb():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))

e8 = lt.E8()
lt.roots(e8)
before = high_water_kb()
weyl.orbit_summary(e8, "4A1")
print(json.dumps((high_water_kb() - before) / 1024))
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    rise_mb = json.loads(proc.stdout.splitlines()[-1])
    assert rise_mb < 12, rise_mb


# blocks of 1, 2 and 3 array entries extend one tuple by one root at a time,
# 20 and 100 by a few roots at a time
BLOCKS = (1, 2, 3, 20, 100, gm._BLOCK)


@pytest.mark.parametrize("name, sizes", [("A5", (2, 4)), ("D6", (2, 4)), ("E7", (2, 4)), ("A1+D4", (2, 4)), ("E8", (2,))])
def test_orthogonal_tuples_match_combinations(monkeypatch, name, sizes):
    L = lt.standard_lattice(name)
    pos = np.array(weyl.positive_roots(L), dtype=np.int64)
    gram = pos @ np.array(L.gram, dtype=np.int64) @ pos.T
    takes, take = [], lt._Levels.take
    monkeypatch.setattr(lt._Levels, "take", lambda self: takes.append(1) or take(self))
    for size in sizes:
        combos = np.array(list(itertools.combinations(range(len(pos)), size)), dtype=np.int64).reshape(-1, size)
        ok = np.ones(len(combos), dtype=bool)
        for a, b in itertools.combinations(range(size), 2):
            ok &= gram[combos[:, a], combos[:, b]] == 0
        blocks = {}
        for block in BLOCKS:
            # the level stack reads the bound from gram
            monkeypatch.setattr(gm, "_BLOCK", block)
            takes.clear()
            got = weyl._orthogonal_tuples(gram, size)
            assert got.dtype == np.uint8 and got.tolist() == combos[ok].tolist(), (size, block)
            blocks[block] = len(takes)
        assert blocks[1] > blocks[BLOCKS[-1]], size
