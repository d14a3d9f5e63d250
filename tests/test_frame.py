import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gcsolve.fpalg import RowReducer
from gcsolve.frame import FrameError, NotInSuperspaceError, build_frame
from gcsolve.perm import OrbitPartition, Permutation, compose, is_elementary_abelian
from util import group_closure, eight_point_gens


def combine(basis, coeffs, n):
    """Independent recomposition: the sum of coeff * basis vector, computed
    with raw permutation products."""
    acc = Permutation.identity(n)
    for c, b in zip(coeffs, basis):
        for _ in range(c):
            acc = compose(acc, b)
    return acc


def klein_gens():
    a = Permutation.from_cycles(4, [(1, 2), (3, 4)])
    b = Permutation.from_cycles(4, [(1, 3), (2, 4)])
    return a, b


def c3c3_gens():
    # translations of a 3x3 grid, point (r, c) = 3r + c + 1
    ga = Permutation.from_cycles(9, [(1, 4, 7), (2, 5, 8), (3, 6, 9)])
    gb = Permutation.from_cycles(9, [(1, 2, 3), (4, 5, 6), (7, 8, 9)])
    return ga, gb


def test_build_frame_eight_point_example_basis_order():
    g1, g2, g3 = eight_point_gens()
    fr = build_frame(8, [g1, g2, g3], 2)
    assert len(fr.orbit_frames) == 1
    of = fr.orbit_frames[0]
    assert of.origin == 1
    assert of.basis == (g3, g2, g1)
    assert of.dim == 3 and fr.dim == 3


def test_build_frame_empty_generators():
    fr = build_frame(4, [], 2)
    assert fr.dim == 0
    assert [of.points for of in fr.orbit_frames] == [(1,), (2,), (3,), (4,)]
    assert all(of.dim == 0 for of in fr.orbit_frames)


def test_build_frame_smallest_nontrivial():
    swap = Permutation.from_cycles(2, [(1, 2)])
    fr = build_frame(2, [swap], 2)
    of = fr.orbit_frames[0]
    assert of.basis == (swap,)
    assert of.coords == {1: (0,), 2: (1,)}
    assert of.point_of == {(0,): 1, (1,): 2}


def test_build_frame_rejects_non_elementary_abelian():
    with pytest.raises(FrameError, match="order 3"):
        build_frame(3, [Permutation.from_cycles(3, [(1, 2, 3)])], 2)
    a = Permutation.from_cycles(3, [(1, 2)])
    b = Permutation.from_cycles(3, [(1, 3)])
    with pytest.raises(FrameError, match="commute"):
        build_frame(3, [a, b], 2)
    # dihedral of order 8: one orbit of size 4 = 2^2, both generators
    # involutions, yet they do not commute
    a = Permutation.from_cycles(4, [(1, 2), (3, 4)])
    b = Permutation.from_cycles(4, [(1, 3)])
    with pytest.raises(FrameError, match="commute"):
        build_frame(4, [a, b], 2)


@st.composite
def generator_sets(draw):
    """p in {2, 3}, n <= 9 and up to four generators, each the identity, a
    product of disjoint p-cycles (order p) or an arbitrary permutation."""
    p = draw(st.sampled_from((2, 3)))
    n = draw(st.integers(min_value=1, max_value=9))
    gens = []
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        kind = draw(st.sampled_from(("identity", "p-cycles", "any")))
        pts = draw(st.permutations(list(range(1, n + 1))))
        if kind == "identity":
            gens.append(Permutation.identity(n))
        elif kind == "p-cycles":
            k = draw(st.integers(min_value=0, max_value=n // p))
            gens.append(Permutation.from_cycles(n, [pts[i * p:(i + 1) * p] for i in range(k)]))
        else:
            gens.append(Permutation(tuple(pts)))
    return p, n, gens


@settings(max_examples=300)
@given(generator_sets())
@example((2, 3, [Permutation.from_cycles(3, [(1, 2, 3)])]))  # wrong order
@example((2, 3, [Permutation.from_cycles(3, [(1, 2)]),
                 Permutation.from_cycles(3, [(2, 3)])]))  # orbit of size 3
@example((3, 5, [Permutation.from_cycles(5, [(1, 2, 3)]),
                 Permutation.from_cycles(5, [(3, 4, 5)])]))  # orbit of size 5
@example((2, 4, [Permutation.identity(4), Permutation.from_cycles(4, [(1, 2)])]))  # identity
def test_build_frame_accepts_exactly_the_elementary_abelian_groups(case):
    """The frame's own group check (a replay on its tables) agrees with the
    pairwise test, and a rejection carries the pairwise test's message."""
    p, n, gens = case
    ok, detail = is_elementary_abelian(gens, p)
    if ok:
        build_frame(n, gens, p)
    else:
        with pytest.raises(FrameError) as exc:
            build_frame(n, gens, p)
        assert str(exc.value) == f"generators are not an elementary Abelian {p}-group: {detail}"


def test_build_frame_rejects_domain_mismatch():
    with pytest.raises(FrameError):
        build_frame(3, [Permutation.identity(2)], 2)
    with pytest.raises(FrameError, match="differs from n"):
        build_frame(4, list(klein_gens()), 2, orbits=OrbitPartition(3, [(1, 2, 3)]))


def test_build_frame_names_an_orbit_whose_size_is_not_a_power_of_p():
    g = Permutation.from_cycles(3, [(1, 2)])
    with pytest.raises(FrameError, match="orbit of 1 has size 3, not a power of 2"):
        build_frame(3, [g], 2, orbits=OrbitPartition(3, [(1, 2, 3)]))


@pytest.mark.parametrize(
    "n,gens,p",
    [
        (8, eight_point_gens(), 2),
        (4, klein_gens(), 2),
        (9, c3c3_gens(), 3),
        (6, (Permutation.from_cycles(6, [(1, 2), (3, 4)]),
             Permutation.from_cycles(6, [(3, 4), (5, 6)])), 2),
    ],
)
def test_coordinate_tables_recompose(n, gens, p):
    """table[b] are exactly the coordinates whose recomposed permutation
    maps the origin to b (checked with raw products)."""
    fr = build_frame(n, list(gens), p)
    for of in fr.orbit_frames:
        assert p**of.dim == len(of.points)
        assert of.coords[of.origin] == (0,) * of.dim
        for b in of.points:
            u = combine(of.basis, of.coords[b], n)
            assert u.image(of.origin) == b
        # bijectivity of the table
        assert len(set(of.coords.values())) == len(of.points)
    assert fr.dim <= n // p if n else True


def test_coords_of_perm_identity_and_known_vector():
    g1, g2, g3 = eight_point_gens()
    fr = build_frame(8, [g1, g2, g3], 2)
    assert fr.coords_of_perm(Permutation.identity(8)) == (0, 0, 0)
    x = fr.coords_of_perm(g2)
    assert x == (0, 1, 0)
    assert combine(fr.basis, x, 8) == g2


def test_coords_of_perm_rejects_orbit_escape():
    # two orbits {1,2} and {3,4}; a 4-cycle mixes them
    gens = [Permutation.from_cycles(4, [(1, 2)]), Permutation.from_cycles(4, [(3, 4)])]
    fr = build_frame(4, gens, 2)
    mixing = Permutation.from_cycles(4, [(1, 3), (2, 4)])
    with pytest.raises(NotInSuperspaceError):
        fr.coords_of_perm(mixing)


def test_coords_of_perm_rejects_non_constituent_restriction():
    # Klein group on one orbit; the bare swap (1 2) stabilizes the orbit but
    # does not act like any group element on it
    fr = build_frame(4, list(klein_gens()), 2)
    lone_swap = Permutation.from_cycles(4, [(1, 2)])
    with pytest.raises(NotInSuperspaceError):
        fr.coords_of_perm(lone_swap)


def test_coords_of_perm_accepts_superspace_outside_group():
    # two 2-point orbits: F has dimension 2 while G = <(1 2)(3 4)> has
    # dimension 1; the lone swap is in F but not in G
    g = Permutation.from_cycles(4, [(1, 2), (3, 4)])
    fr = build_frame(4, [g], 2)
    lone = Permutation.from_cycles(4, [(1, 2)])
    assert fr.coords_of_perm(lone) == (1, 0)


def test_perm_of_coords_zero_units_roundtrip():
    g1, g2, g3 = eight_point_gens()
    fr = build_frame(8, [g1, g2, g3], 2)
    assert fr.perm_of_coords((0, 0, 0)).is_identity()
    for i, b in enumerate(fr.basis):
        unit = tuple(1 if j == i else 0 for j in range(fr.dim))
        assert fr.perm_of_coords(unit) == b
    with pytest.raises(FrameError):
        fr.perm_of_coords((0, 1))


@pytest.mark.parametrize(
    "n,gens,p",
    [(8, eight_point_gens(), 2), (9, c3c3_gens(), 3),
     (6, (Permutation.from_cycles(6, [(1, 2), (3, 4)]),
          Permutation.from_cycles(6, [(3, 4), (5, 6)])), 2)],
)
def test_perm_of_coords_inverse_of_coords_of_perm(n, gens, p):
    fr = build_frame(n, list(gens), p)
    rng = random.Random(5)
    for _ in range(200):
        x = tuple(rng.randrange(p) for _ in range(fr.dim))
        u = fr.perm_of_coords(x)
        assert fr.coords_of_perm(u) == x
        assert u == combine(fr.basis, x, n)


def test_subspace_basis_trivial_and_duplicate():
    g1, g2, g3 = eight_point_gens()
    fr = build_frame(8, [g1, g2, g3], 2)
    basis, dim = fr.subspace_basis([])
    assert basis == [] and dim == 0
    basis, dim = fr.subspace_basis([g1, g1])
    assert dim == 1 and len(basis) == 1


def test_subspace_basis_dependent_sum():
    g1, g2, g3 = eight_point_gens()
    fr = build_frame(8, [g1, g2, g3], 2)
    g12 = compose(g1, g2)
    basis, dim = fr.subspace_basis([g1, g2, g12])
    assert dim == 2
    # oracle: the three vectors span only 4 of the 8 group elements
    span = {
        combine([g1, g2, g12], t, 8).images
        for t in itertools.product(range(2), repeat=3)
    }
    assert len(span) == 4


def test_variety_matrix_full_and_empty_subspace():
    g1, g2, g3 = eight_point_gens()
    fr = build_frame(8, [g1, g2, g3], 2)
    full_basis, dim = fr.subspace_basis([g1, g2, g3])
    assert dim == 3
    m_full = fr.variety_matrix(full_basis)
    assert m_full.m.rows == ((0, 0, 0),) * 3
    m_empty = fr.variety_matrix([])
    assert m_empty.dim_sub == 0
    reducer = RowReducer(2, 3)
    for row in m_empty.m.rows:
        reducer.add(row)
    assert reducer.rank == 3
    assert m_empty.contains((0, 0, 0))
    assert not any(
        m_empty.contains(x)
        for x in itertools.product(range(2), repeat=3)
        if any(x)
    )


def test_variety_matrix_single_unit_vector():
    g1, g2, g3 = eight_point_gens()
    fr = build_frame(8, [g1, g2, g3], 2)
    m = fr.variety_matrix([(1, 0, 0)])
    for x in itertools.product(range(2), repeat=3):
        assert m.contains(x) == (x[1] == 0 and x[2] == 0)


def test_variety_matrix_rejects_dependent_basis():
    g1, g2, g3 = eight_point_gens()
    fr = build_frame(8, [g1, g2, g3], 2)
    with pytest.raises(FrameError, match="dependent"):
        fr.variety_matrix([(1, 0, 0), (1, 0, 0)])


def _generated_frame(p, dims, seed):
    from gcsolve.genbench import GenConfig, gen_instance

    inst = gen_instance(GenConfig(p=p, seed=seed, dims=dims)).instance
    return inst.n, inst.gens, p


@pytest.mark.parametrize(
    "n,gens,p",
    [
        (8, eight_point_gens(), 2),
        (9, c3c3_gens(), 3),
        _generated_frame(3, (2, 2, 1), seed=41),  # p=3 frame with d = 5
        _generated_frame(2, (3, 2, 2, 1), seed=42),  # p=2 frame with d = 8
    ],
)
def test_variety_matrix_cosets_exhaustive(n, gens, p):
    """m[u] = m[v] iff u - v lies in the subspace, checked over all of F
    against span membership computed independently."""
    fr = build_frame(n, list(gens), p)
    rng = random.Random(17)
    space = list(itertools.product(range(p), repeat=fr.dim))
    for _ in range(10):
        vecs = [tuple(rng.randrange(p) for _ in range(fr.dim)) for _ in range(rng.randrange(4))]
        reducer = RowReducer(p, fr.dim)
        basis = [v for v in vecs if reducer.add(v)]
        m = fr.variety_matrix(basis)
        members = {
            tuple(sum(c * b[j] for c, b in zip(t, basis)) % p for j in range(fr.dim))
            for t in itertools.product(range(p), repeat=len(basis))
        }
        v = space[rng.randrange(len(space))]
        mv = m.product(v)
        for u in space:
            diff = tuple((a - b) % p for a, b in zip(u, v))
            assert (m.product(u) == mv) == (diff in members)


def test_orbit_membership_matches_rank_test():
    """On a single regular orbit: u in a subspace H of the constituent iff
    the image of a point under u lies in that point's H-orbit."""
    rng = random.Random(31)
    for gens, n, p in [(eight_point_gens(), 8, 2), (c3c3_gens(), 9, 3), (klein_gens(), 4, 2)]:
        fr = build_frame(n, list(gens), p)
        of = fr.orbit_frames[0]
        elements = group_closure(list(gens), n)
        for _ in range(10):
            sub = [rng.choice(elements) for _ in range(rng.randrange(3))]
            reducer = RowReducer(p, fr.dim)
            basis = []
            for s in sub:
                x = fr.coords_of_perm(s)
                if reducer.add(x):
                    basis.append(s)
            # orbit of a under H, computed by closing over the chosen elements
            a = of.origin
            h_orbit = {a}
            frontier = [a]
            while frontier:
                b = frontier.pop()
                for s in basis:
                    c = s.image(b)
                    if c not in h_orbit:
                        h_orbit.add(c)
                        frontier.append(c)
            for u in elements:
                # u is in H when adding it to a fresh reducer of H's basis
                # leaves the rank unchanged
                span = RowReducer(p, fr.dim)
                for s in basis:
                    span.add(fr.coords_of_perm(s))
                in_h = not span.add(fr.coords_of_perm(u))
                assert in_h == (u.image(a) in h_orbit)


def test_affine_axioms_on_small_orbits():
    """Exhaustive check per orbit: composition of constituent elements stays
    in the constituent and every point map u -> a^u is a bijection."""
    cases = [
        (eight_point_gens(), 8, 2),
        (klein_gens(), 4, 2),
        (c3c3_gens(), 9, 3),
        ((Permutation.from_cycles(6, [(1, 2), (3, 4)]),
          Permutation.from_cycles(6, [(3, 4), (5, 6)])), 6, 2),
    ]
    for gens, n, p in cases:
        fr = build_frame(n, list(gens), p)
        for of in fr.orbit_frames:
            restricted = group_closure([_restrict_perm(g, of.points) for g in gens], n)
            assert len(restricted) == len(of.points)
            keys = {u.images for u in restricted}
            for u in restricted:
                for v in restricted:
                    assert compose(u, v).images in keys
            for a in of.points:
                images = {u.image(a) for u in restricted}
                assert images == set(of.points)


def _restrict_perm(g, block):
    images = list(range(1, g.n + 1))
    for a in block:
        images[a - 1] = g.image(a)
    return Permutation(tuple(images))
