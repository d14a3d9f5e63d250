import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcsolve.perm import (
    DomainMismatchError,
    OrbitPartition,
    Permutation,
    compose,
    is_elementary_abelian,
    orbit_partition,
    order,
)
from util import bfs_orbits, eight_point_gens


@st.composite
def permutations_st(draw, n=None, max_n=8):
    if n is None:
        n = draw(st.integers(min_value=1, max_value=max_n))
    images = draw(st.permutations(list(range(1, n + 1))))
    return Permutation(tuple(images))


@st.composite
def same_domain_triples(draw, max_n=8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    return tuple(draw(permutations_st(n=n)) for _ in range(3))


def test_permutation_rejects_non_bijection():
    with pytest.raises(ValueError):
        Permutation((1, 1, 3))
    with pytest.raises(ValueError):
        Permutation((0, 1))


def test_compose_with_identity():
    g = Permutation.from_cycles(6, [(1, 2), (3, 4, 5)])
    assert compose(g, Permutation.identity(6)) == g
    assert compose(Permutation.identity(6), g) == g


def test_compose_involution_gives_identity():
    swap = Permutation.from_cycles(2, [(1, 2)])
    assert compose(swap, swap).is_identity()


def test_compose_applies_left_then_right():
    u = Permutation.from_cycles(3, [(1, 2)])
    v = Permutation.from_cycles(3, [(2, 3)])
    # 1 -> 2 under u, then 2 -> 3 under v
    assert compose(u, v).image(1) == 3
    assert compose(v, u).image(1) == 2


def test_compose_eight_point_generators_square_to_identity():
    for g in eight_point_gens():
        assert compose(g, g).is_identity()


def test_compose_domain_mismatch():
    with pytest.raises(DomainMismatchError):
        compose(Permutation.identity(2), Permutation.identity(3))


def test_order_identity():
    assert order(Permutation.identity(5)) == 1


def test_order_matches_repeated_composition():
    g = Permutation.from_cycles(6, [(1, 2), (3, 4, 5)])
    acc, count = g, 1
    while not acc.is_identity():
        acc = compose(acc, g)
        count += 1
    assert count == 6
    assert order(g) == count


def test_order_eight_point_generators_is_two():
    for g in eight_point_gens():
        assert order(g) == 2


def test_orbit_partition_single_generator():
    g = Permutation.from_cycles(6, [(1, 2), (3, 4, 5)])
    part = orbit_partition([g])
    assert part.blocks == ((1, 2), (3, 4, 5), (6,))


def test_orbit_partition_empty_generators():
    assert orbit_partition([], n=3) == OrbitPartition.bottom(3)
    with pytest.raises(ValueError):
        orbit_partition([])


def test_orbit_partition_eight_point_group_is_transitive():
    part = orbit_partition(list(eight_point_gens()))
    assert part.blocks == (tuple(range(1, 9)),)


@settings(max_examples=60)
@given(same_domain_triples())
def test_orbit_partition_matches_bfs_closure(gens):
    gens = list(gens)
    n = gens[0].n
    assert orbit_partition(gens, n).blocks == bfs_orbits(gens, n)


@settings(max_examples=60)
@given(same_domain_triples())
def test_orbit_partition_matches_join_fold(gens):
    n = gens[0].n
    for k in range(len(gens) + 1):
        fold = OrbitPartition.bottom(n)
        for g in gens[:k]:
            fold = fold.join(OrbitPartition.from_perm(g))
        assert orbit_partition(gens[:k], n) == fold


def test_join_lattice_identities():
    g = Permutation.from_cycles(6, [(1, 2), (3, 4, 5)])
    part = orbit_partition([g])
    bottom = OrbitPartition.bottom(6)
    assert part.join(bottom) == part
    assert part.join(part) == part


@settings(max_examples=40)
@given(same_domain_triples())
def test_join_commutative_associative(gens):
    pa, pb, pc = (OrbitPartition.from_perm(g) for g in gens)
    assert pa.join(pb) == pb.join(pa)
    assert pa.join(pb).join(pc) == pa.join(pb.join(pc))


@settings(max_examples=40)
@given(same_domain_triples())
def test_join_of_orbit_partitions_is_union_orbits(gens):
    ga, gb, gc = gens
    left = orbit_partition([ga], ga.n).join(orbit_partition([gb, gc], ga.n))
    assert left == orbit_partition([ga, gb, gc], ga.n)


@settings(max_examples=80)
@given(same_domain_triples())
def test_compose_associative(gens):
    u, v, w = gens
    assert compose(compose(u, v), w) == compose(u, compose(v, w))


def test_is_elementary_abelian_eight_point_example():
    ok, detail = is_elementary_abelian(list(eight_point_gens()), 2)
    assert ok and detail is None


def test_is_elementary_abelian_wrong_order():
    ok, detail = is_elementary_abelian([Permutation.from_cycles(3, [(1, 2, 3)])], 2)
    assert not ok
    assert "order 3" in detail


def test_is_elementary_abelian_noncommuting_pair():
    a = Permutation.from_cycles(3, [(1, 2)])
    b = Permutation.from_cycles(3, [(1, 3)])
    # the two composition orders genuinely differ
    assert compose(a, b) != compose(b, a)
    ok, detail = is_elementary_abelian([a, b], 2)
    assert not ok
    assert "commute" in detail


@st.composite
def involution_pairs(draw, max_n=8):
    n = draw(st.integers(min_value=2, max_value=max_n))
    pair = []
    for _ in range(2):
        pts = draw(st.permutations(list(range(1, n + 1))))
        k = draw(st.integers(min_value=1, max_value=n // 2))
        pair.append(Permutation.from_cycles(n, [pts[2 * i:2 * i + 2] for i in range(k)]))
    return pair


@settings(max_examples=80)
@given(involution_pairs())
def test_is_elementary_abelian_commutation_matches_compose(pair):
    u, v = pair
    ok, detail = is_elementary_abelian([u, v], 2)
    assert ok == (compose(u, v) == compose(v, u))
    assert ok or detail == "generators 1 and 2 do not commute"


def test_is_elementary_abelian_identity_generators_ok():
    ok, _ = is_elementary_abelian([Permutation.identity(4)], 3)
    assert ok


def test_is_elementary_abelian_rejects_composite_p():
    with pytest.raises(ValueError):
        is_elementary_abelian([Permutation.identity(2)], 4)


def test_cycle_roundtrip_and_str():
    g = Permutation.from_cycles(6, [(1, 2), (3, 4, 5)])
    assert g.cycles() == [(1, 2), (3, 4, 5)]
    assert str(g) == "(1 2)(3 4 5)"
    assert str(Permutation.identity(3)) == "()"
