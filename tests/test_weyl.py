import pytest

from latq import lattices as lt, weyl


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
        lt.canonical_object(((0, 0, 0, 0, 0, 0, 0),))


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
    # 2 (x, r) / (r, r) = -1/2 for x = (0, 1), r = (2, 0)
    with pytest.raises(ValueError, match="not integral"):
        lt.reflection_orbits(a2, [((1, 0),), ((0, 1),), ((1, 1),)], generators=[(2, 0)])
    with pytest.raises(ValueError, match="isotropic"):
        lt.reflection_orbits(lt.U(), [((1, 0),)], generators=[(1, 0)])
    with pytest.raises(ValueError, match="zero vector"):
        lt.reflection_orbits(a2, [((0, 0),)])
    with pytest.raises(ValueError):
        lt.reflection_orbits(a2, [((1, 0, 0),)])
