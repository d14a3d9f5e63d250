import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gcsolve.fpalg import RowReducer
from gcsolve.frame import FrameError, NotInSuperspaceError, build_frame, translation_positions
from gcsolve.perm import (
    MAX_N,
    Permutation,
    compose,
    is_elementary_abelian,
    orbit_partition,
)
from util import eight_point_gens, group_closure, lex_tables, reference_coords, relabelled_frames


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
    assert of.lex == (1, 2)
    assert of.pos == {1: 0, 2: 1}
    assert lex_tables(of, 2) == ({1: (0,), 2: (1,)}, {(0,): 1, (1,): 2})


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
    with pytest.raises(FrameError, match="generator domain 4 differs from n = 3"):
        build_frame(3, list(klein_gens()), 2)


def test_build_frame_refuses_n_above_the_limit():
    with pytest.raises(ValueError, match=f"n = {MAX_N + 1} exceeds the limit {MAX_N}"):
        build_frame(MAX_N + 1, [], 2)


@settings(max_examples=150, deadline=None)
@given(relabelled_frames())
def test_the_frame_finds_the_orbits(case):
    """At p in {2, 3, 5}, on relabelled gen_instance groups with fixed
    points, the frame's orbits, in order of origin, are the orbit
    partition's blocks."""
    fr, _, _ = case
    blocks = orbit_partition(fr.gens, fr.n).blocks
    assert tuple(of.points for of in fr.orbit_frames) == blocks
    assert tuple(of.origin for of in fr.orbit_frames) == tuple(b[0] for b in blocks)


@pytest.mark.parametrize("n, cycles, p, detail", [
    (3, [[(1, 2, 3)]], 2, "generator 1 has order 3, expected 2"),
    # orbit {1, 2, 3}: the frame lists 1, 2 and then meets 1 again from 3
    (3, [[(1, 2)], [(2, 3)]], 2, "generators 1 and 2 do not commute"),
    # one orbit of size 4 = 2^2, both generators involutions
    (4, [[(1, 2), (3, 4)], [(1, 3)]], 2, "generators 1 and 2 do not commute"),
    (5, [[(1, 2, 3)], [(3, 4, 5)]], 3, "generators 1 and 2 do not commute"),
])
def test_frame_found_orbits_name_the_violation(n, cycles, p, detail):
    gens = [Permutation.from_cycles(n, c) for c in cycles]
    with pytest.raises(FrameError) as exc:
        build_frame(n, gens, p)
    assert str(exc.value) == f"generators are not an elementary Abelian {p}-group: {detail}"


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
    """The coordinates of b, rebuilt from lex, are exactly those whose
    recomposed permutation maps the origin to b (checked with raw
    products), and pos inverts lex."""
    fr = build_frame(n, list(gens), p)
    for of in fr.orbit_frames:
        assert p**of.dim == len(of.points)
        coords, _ = lex_tables(of, p)
        assert of.lex[0] == of.origin
        assert coords[of.origin] == (0,) * of.dim
        for b in of.points:
            u = combine(of.basis, coords[b], n)
            assert u.image(of.origin) == b
        # bijectivity of lex between the orbit and F_p^d
        assert len(of.lex) == len(of.points) and set(of.lex) == set(of.points)
        assert of.pos == {a: i for i, a in enumerate(of.lex)}
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


@pytest.mark.parametrize("n,gens,p,swap", [
    (4, klein_gens(), 2, [(2, 3)]),
    (9, c3c3_gens(), 3, [(2, 3)]),
    (9, c3c3_gens(), 3, [(5, 9), (6, 8)]),
])
def test_coords_of_perm_rejects_a_permutation_that_fixes_only_the_origin(n, gens, p, swap):
    # the origin 1 is fixed, so the coordinates read are 0, yet the other
    # points move: the replay must not stop at the origin
    fr = build_frame(n, list(gens), p)
    with pytest.raises(NotInSuperspaceError, match="orbit of 1 is not in the constituent"):
        fr.coords_of_perm(Permutation.from_cycles(n, swap))


@st.composite
def frames_and_moves(draw):
    """A relabelled frame and a permutation u of its points, of one of four
    kinds: an element of the superspace; that element with the images of
    two points of one orbit swapped, neither the origin (a non-translation
    that keeps the origin's image); with the images of points of two
    orbits swapped (an escape); or every orbit shuffled at random."""
    fr, _, w = draw(relabelled_frames())
    images = list(w.images)
    kinds = ["translation", "shuffle"]
    if any(len(of.points) >= 3 for of in fr.orbit_frames):
        kinds.append("swap-in-orbit")
    if len(fr.orbit_frames) >= 2:
        kinds.append("swap-across")
    kind = draw(st.sampled_from(kinds))
    if kind == "swap-in-orbit":
        of = draw(st.sampled_from([of for of in fr.orbit_frames if len(of.points) >= 3]))
        a, b = draw(st.permutations(of.points[1:]))[:2]
    elif kind == "swap-across":
        one, other = draw(st.permutations(fr.orbit_frames))[:2]
        a, b = draw(st.sampled_from(one.points)), draw(st.sampled_from(other.points))
    if kind.startswith("swap"):
        images[a - 1], images[b - 1] = images[b - 1], images[a - 1]
    elif kind == "shuffle":
        for of in fr.orbit_frames:
            for a, b in zip(of.points, draw(st.permutations(of.points))):
                images[a - 1] = b
    return fr, Permutation(tuple(images)), kind


@settings(max_examples=300, deadline=None)
@given(frames_and_moves())
def test_coords_of_perm_matches_tuple_arithmetic(case):
    """The replay through the translation table against digit arithmetic on
    the coordinate tables, at p in {2, 3, 5}: the same coordinates, or the
    same error; a swap is never a translation."""
    fr, u, kind = case
    try:
        expected = reference_coords(fr, u)
    except NotInSuperspaceError as exc:
        assert kind != "translation"
        with pytest.raises(NotInSuperspaceError) as got:
            fr.coords_of_perm(u)
        assert str(got.value) == str(exc)
    else:
        assert kind in ("translation", "shuffle")
        assert fr.coords_of_perm(u) == expected
        assert fr.perm_of_coords(expected) == u


def test_coords_of_perm_accepts_superspace_outside_group():
    # two 2-point orbits: F has dimension 2 while G = <(1 2)(3 4)> has
    # dimension 1; the lone swap is in F but not in G
    g = Permutation.from_cycles(4, [(1, 2), (3, 4)])
    fr = build_frame(4, [g], 2)
    lone = Permutation.from_cycles(4, [(1, 2)])
    assert fr.coords_of_perm(lone) == (1, 0)


def test_translation_table_keeps_orbits_of_other_dimensions_apart():
    # orbits {1, 2} (dim 1) and {3, 4, 5, 6} (dim 2); g has coordinates
    # (1) on the first and (0, 1) on the second, both position 1, so a
    # table keyed by the position alone would replay g on the second orbit
    # with the first orbit's translation
    g = Permutation.from_cycles(6, [(1, 2), (3, 4), (5, 6)])
    h = Permutation.from_cycles(6, [(3, 5), (4, 6)])
    fr = build_frame(6, [g, h], 2)
    assert [of.dim for of in fr.orbit_frames] == [1, 2]
    assert fr.gen_coords == ((1, 0, 1), (0, 1, 0))
    assert fr.perm_of_coords((1, 0, 1)) == g
    assert fr.perm_of_coords((1, 1, 1)) == compose(g, h)
    assert fr.coords_of_perm(compose(g, h)) == (1, 1, 1)


@pytest.mark.parametrize("d", range(7))
def test_translation_positions_at_p2_is_the_digit_construction(d):
    keys = list(itertools.product(range(2), repeat=d))
    index = {k: i for i, k in enumerate(keys)}
    for x in keys:
        want = [index[tuple((a + b) % 2 for a, b in zip(k, x))] for k in keys]
        assert translation_positions(x, 2) == want


@pytest.mark.parametrize("x,p,want", [
    ((3,), 5, [3, 4, 0, 1, 2]),
    ((1, 0), 3, [3, 4, 5, 6, 7, 8, 0, 1, 2]),
    ((1, 2), 3, [5, 3, 4, 8, 6, 7, 2, 0, 1]),
    ((2, 4), 5, [14, 10, 11, 12, 13, 19, 15, 16, 17, 18, 24, 20, 21, 22, 23,
                 4, 0, 1, 2, 3, 9, 5, 6, 7, 8]),
    ((0, 1, 2), 3, [5, 3, 4, 8, 6, 7, 2, 0, 1, 14, 12, 13, 17, 15, 16, 11, 9, 10,
                    23, 21, 22, 26, 24, 25, 20, 18, 19]),
])
def test_translation_positions_at_odd_p_are_pinned(x, p, want):
    assert translation_positions(x, p) == want


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
    x1 = fr.coords_of_perm(g1)
    basis, dim = fr.subspace_basis([x1, x1])
    assert dim == 1 and len(basis) == 1


def test_subspace_basis_dependent_sum():
    g1, g2, g3 = eight_point_gens()
    fr = build_frame(8, [g1, g2, g3], 2)
    g12 = compose(g1, g2)
    basis, dim = fr.subspace_basis([fr.coords_of_perm(g) for g in (g1, g2, g12)])
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
    full_basis, dim = fr.subspace_basis(fr.gen_coords)
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
        _generated_frame(5, (2, 1, 1), seed=43),  # p=5 frame with d = 4
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
