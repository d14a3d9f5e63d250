import itertools
import random
import sys
import tracemalloc
from collections import Counter
from math import prod

import pytest
from hypothesis import given, settings

from gcsolve import constraint, fpalg, frame, perm
from gcsolve.constraint import (
    DEFAULT_CAP,
    CapExceededError,
    LinearizedConstraint,
    SolveOutcome,
    compute_all_vo,
    compute_vo,
    group_variety,
    linearize,
    mmc_to_gc,
    normalize,
    solve,
    solve_enumerate,
    solve_linear,
    solve_product,
    verify,
    verify_detail,
)
from gcsolve.fpalg import PackedDigits, RowReducer, packed_digits
from gcsolve.frame import Frame, FrameError, VarietyMatrix, build_frame, translation_perms
from gcsolve.genbench import GenConfig, SplitMix64, derive_seed, gen_instance
from gcsolve.instfile import parse_instance, render_instance
from gcsolve.perm import Permutation, orbit_partition
from gcsolve.reduction import ClauseSet, one_in_k_brute, reduce_1in_k, reduce_2cstr
from util import (
    SchoolbookResidual,
    assert_vos_match_reference,
    constraint_k,
    eight_point_gens,
    group_closure,
    every_point_text,
    many_orbit_text,
    near_square_text,
    pack_vos,
    reference_coords,
    relabelled_frames,
    satisfies_pointwise,
    schoolbook_rank,
    schoolbook_solve_linear,
    schoolbook_variety_matrix,
    unpack_coords,
    unpack_vos,
)


def eight_point_frame_and_instance(cset={3}):
    gens = list(eight_point_gens())
    inst = normalize([(1, set(cset))], 8, gens, 2)
    fr = build_frame(8, gens, 2)
    return fr, inst


def test_normalize_intersects_repeated_points():
    gens = list(eight_point_gens())
    inst = normalize([(1, {2, 4}), (1, {4, 6})], 8, gens, 2)
    assert inst.cmap[1] == frozenset({4})
    assert constraint_k(inst) == 1


def test_normalize_empty_raw_gives_full_orbits():
    gens = list(eight_point_gens())
    inst = normalize([], 8, gens, 2)
    assert all(inst.cmap[a] == frozenset(range(1, 9)) for a in range(1, 9))
    assert constraint_k(inst) == 0
    assert verify(inst, Permutation.identity(8))


def test_normalize_restricts_to_orbit():
    g = Permutation.from_cycles(6, [(1, 2), (3, 4)])
    inst = normalize([(1, {5})], 6, [g], 2)
    assert inst.cmap[1] == frozenset()


def test_normalize_rejects_out_of_range():
    with pytest.raises(ValueError):
        normalize([(9, {1})], 8, list(eight_point_gens()), 2)
    with pytest.raises(ValueError):
        normalize([(1, {0})], 8, list(eight_point_gens()), 2)


def test_normalize_idempotent():
    gens = list(eight_point_gens())
    inst = normalize([(1, {2, 4}), (3, {3, 7}), (1, {4, 6})], 8, gens, 2)
    again = normalize(list(inst.cmap.items()), 8, gens, 2)
    assert again == inst
    assert constraint_k(again) == constraint_k(inst)


def test_compute_vo_unconstrained_orbit_is_whole_constituent():
    fr, inst = eight_point_frame_and_instance(cset=set(range(1, 9)))
    vo = compute_vo(fr, inst, 0)
    # at p = 2 a packed vector is its position
    assert vo == tuple(range(8))
    assert unpack_vos(fr, [vo]) == [tuple(itertools.product(range(2), repeat=3))]


def test_compute_vo_pinned_point_constraint():
    fr, inst = eight_point_frame_and_instance({3})
    assert unpack_vos(fr, [compute_vo(fr, inst, 0)]) == [((1, 0, 0),)]


def test_compute_vo_mutual_swap():
    g = Permutation.from_cycles(2, [(1, 2)])
    inst = normalize([(1, {2}), (2, {1})], 2, [g], 2)
    fr = build_frame(2, [g], 2)
    assert unpack_vos(fr, [compute_vo(fr, inst, 0)]) == [((1,),)]


def test_compute_vo_empty_when_unsatisfiable_on_orbit():
    g = Permutation.from_cycles(2, [(1, 2)])
    inst = normalize([(1, {2}), (2, {2})], 2, [g], 2)
    fr = build_frame(2, [g], 2)
    assert compute_vo(fr, inst, 0) == ()


def test_compute_vo_matches_definition_exhaustively():
    """Oracle: intersection over all points of the shifted constraint sets,
    computed directly from the constituent elements.  The eight points are
    one orbit, so a member of V_O, packed at the orbit's width, is the
    coordinates coords_of_perm packs.  The constraint maps leave no, three,
    four and seven admissible vectors."""
    gens = list(eight_point_gens())
    fr = build_frame(8, gens, 2)
    elements = group_closure(gens, 8)
    sizes = []
    for raw in ([(1, {3, 4}), (2, {1, 6}), (5, {7, 8, 1})],
                [(1, {3, 4, 5}), (2, {3, 4, 6, 7})],
                [(1, {3, 4, 5, 6}), (2, {4, 3, 5, 6})],
                [(1, set(range(2, 9)))]):
        inst = normalize(raw, 8, gens, 2)
        expected = {
            fr.coords_of_perm(u)
            for u in elements
            if all(u.image(a) in inst.cmap[a] for a in range(1, 9))
        }
        vo = compute_vo(fr, inst, 0)
        assert set(vo) == expected
        sizes.append(len(vo))
    assert sizes == [0, 3, 4, 7]


@settings(max_examples=200, deadline=None)
@given(relabelled_frames())
def test_compute_vo_matches_tuple_arithmetic(case):
    """V_O against the definition by digit arithmetic, on every orbit, at p
    in {2, 3, 5}: the members ascend, and unpacked they are the
    definition's vectors in lex order."""
    fr, inst, _ = case
    assert_vos_match_reference(fr, inst)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_compute_vo_matches_the_definition_on_reductions_and_disjuncts(p):
    """V_O against the definition on reduce_2cstr(..., strict=False) with
    empty clauses, whose blocks are p one-point orbits each, with clauses
    of two variables, and on the mmc_to_gc disjuncts of seeded models
    over gen_instance groups: the members ascend, and unpacked they are
    the definition's vectors."""
    sigma = ("a", "b", "c", "d")
    insts = [reduce_2cstr(ClauseSet(sigma, clauses), p, strict=False).instance
             for clauses in (((),), ((), ()), (("a", "b"), ("b", "d")))]
    rng = SplitMix64(derive_seed(3131, p))
    for seed in range(4):
        group = gen_instance(GenConfig(p=p, seed=derive_seed(3132, p, seed),
                                       dims=(2, 1) if p == 2 else (1, 1), k=1))
        model = [rng.below(3) for _ in range(group.instance.n)]
        insts.extend(mmc_to_gc(model, group.instance.gens, p))
    dims = set()
    for inst in insts:
        fr = build_frame(inst.n, inst.gens, p)
        assert_vos_match_reference(fr, inst)
        dims.update(of.dim for of in fr.orbit_frames)
    assert 0 in dims and 1 in dims


@pytest.mark.parametrize("p, dims", [(7, (1, 2)), (7, (2, 2)), (131, (1,)), (131, (1, 1))])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_compute_vo_matches_tuple_arithmetic_in_wide_fields(p, dims, k):
    """V_O against the definition at p = 7 and p = 131, whose packed
    fields are 4 and 9 bits wide, on gen_instance frames, planted and not:
    with every generated set, and with the sets of every other point, so
    that more candidates pass the first checks."""
    for seed in range(4):
        full = gen_instance(GenConfig(p=p, seed=seed, k=k, sat_bias=float(seed % 2),
                                      dims=dims)).instance
        fr = build_frame(full.n, full.gens, p)
        thinned = normalize([(a, cset) for a, cset in full.constraints.items() if a % 2],
                            full.n, full.gens, p)
        for inst in (full, thinned):
            assert_vos_match_reference(fr, inst)


def test_compute_vo_keeps_no_translation_per_candidate():
    """One orbit of 2^k points and one constrained point whose set has all
    but one of them: V_O has 2^k - 1 candidates, and the frame's
    translation table keeps only what the generator replay put there."""
    k = 6
    n = 2**k
    gens = [
        Permutation(tuple(((a - 1) ^ (1 << j)) + 1 for a in range(1, n + 1)))
        for j in range(k)
    ]
    inst = normalize([(1, set(range(2, n + 1)))], n, gens, 2)
    fr = build_frame(n, gens, 2)
    replayed = len(fr._translations)
    assert replayed <= k
    assert len(compute_vo(fr, inst, 0)) == n - 1
    assert len(fr._translations) == replayed


def test_compute_vo_at_odd_p_keeps_no_table_per_candidate():
    """The odd-p twin: one orbit of 3^6 points and one constrained point
    whose set has all but one of them.  V_O has 728 vectors, the frame's
    translation table is left as the replay filled it, and the call's
    memory peak, the packed vector of each position and its map back to
    the points included, stays within a few times the orbit's lex and pos."""
    k, p = 6, 3
    n = p**k
    gens = translation_perms(p, (k,), [[int(i == j) for i in range(k)] for j in range(k)])
    inst = normalize([(1, set(range(2, n + 1)))], n, gens, p)
    fr = build_frame(n, gens, p)
    of = fr.orbit_frames[0]
    replayed = len(fr._translations)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        vo = compute_vo(fr, inst, 0)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert len(vo) == n - 1
    assert len(fr._translations) == replayed
    assert peak < 8 * (sys.getsizeof(of.lex) + sys.getsizeof(of.pos))


def test_linear_branch_memory_grows_linearly_with_the_orbits():
    """k two-point orbits under 16 generators with one stated point
    (util.many_orbit_text), so that d = k and every orbit but the first is
    free: doubling k from 1024 to 2048 at most about doubles the memory
    peak of solve, which a d x d system would quadruple.  Each instance is
    solved once before it is traced, so that caches filled on first use
    are not counted."""
    insts = [parse_instance(many_orbit_text(2, k, 16)) for k in (1024, 2048)]
    peaks = []
    for inst in insts:
        assert solve(inst).method == "linear"
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            solve(inst)
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 2.5 * peaks[0]


def test_no_solve_or_verify_path_restricts_a_generator(monkeypatch):
    """The kept generators are restricted to their orbits (OrbitFrame.basis)
    only when a basis is read, and no decision reads one:
    not a linear, a product or an enumerate decision, nor its verify."""
    restricted = []
    restrict = frame._restrict
    monkeypatch.setattr(frame, "_restrict",
                        lambda g, block: restricted.append(g) or restrict(g, block))
    g1, g2, g3 = gens = eight_point_gens()
    linear = normalize([(1, {3})], 8, gens, 2)
    nonlinear = normalize([(1, {2, 3, 4})], 8, gens, 2)
    decisions = [(linear, solve(linear), "linear"), (nonlinear, solve(nonlinear), "product"),
                 (nonlinear, solve_enumerate(build_frame(8, gens, 2), nonlinear), "enumerate")]
    for inst, out, method in decisions:
        assert out.method == method
        assert verify(inst, out.witness)
    assert restricted == []
    # the eight points are one orbit, so its basis is the kept generators
    [of] = build_frame(8, gens, 2).orbit_frames
    assert of.basis == (g3, g2, g1)
    assert restricted == [g3, g2, g1]


def test_linearize_singletons_and_pairs_always_linear():
    fr, inst = eight_point_frame_and_instance({3})
    vos = compute_all_vo(fr, inst)
    lin = linearize(fr, vos)
    assert isinstance(lin, LinearizedConstraint)
    assert lin.w == 0b100
    [e_o] = lin.e_orbits
    assert e_o.rank == 0


def test_linearize_rejects_non_power_size():
    fr, _ = eight_point_frame_and_instance()
    lin = linearize(fr, pack_vos(fr, [((0, 0, 0), (1, 0, 0), (0, 1, 0))]))
    assert lin.status == "notlinear"
    assert lin.vo_size == 3 and lin.span_dim is None


def test_linearize_power_size_but_not_affine():
    # {000, 100, 010, 110} is affine; {000, 100, 010, 001} is not
    fr, _ = eight_point_frame_and_instance()
    good = linearize(fr, pack_vos(fr, [((0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 0))]))
    assert isinstance(good, LinearizedConstraint)
    [e_o] = good.e_orbits
    assert e_o.rank == 2
    assert [e_o.reduce(v) for v in ((0, 1, 0), (1, 0, 0), (0, 0, 1))] == [
        (0, 0, 0), (0, 0, 0), (0, 0, 1)]
    whole = pack_vos(fr, [tuple(itertools.product(range(2), repeat=3))])
    assert linearize(fr, whole).e_orbits == (None,)
    bad = linearize(fr, pack_vos(fr, [((0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0))]))
    assert bad.status == "notlinear"
    assert bad.vo_size == 4 and bad.span_dim == 3


@pytest.mark.parametrize("p", [3, 5])
def test_linearize_lines_off_the_origin_at_odd_p(p):
    """One orbit F_p^2 at odd p: a line w + span(e) with w off the line
    through 0 is affine, with E_O its direction and w its first member,
    whatever e is; a line bent at its last member is not."""
    g = Permutation.from_cycles(p * p, [tuple(range(lo, lo + p)) for lo in range(1, p * p, p)])
    h = Permutation.from_cycles(p * p, [tuple(range(c, p * p + 1, p)) for c in range(1, p + 1)])
    fr = build_frame(p * p, [g, h], p)
    for e in ((0, 1), (1, 1), (1, p - 1)):
        line = sorted(((1 + t * e[0]) % p, t * e[1] % p) for t in range(p))
        lin = linearize(fr, pack_vos(fr, [line]))
        assert isinstance(lin, LinearizedConstraint), e
        [e_o] = lin.e_orbits
        assert lin.w == packed_digits(p, 2).pack(line[0]) and e_o.rank == 1
        assert not any(e_o.reduce(e)) and any(e_o.reduce((1, 0) if e[0] == 0 else (0, 1)))
        bent = line[:-1] + [((line[-1][0] + 1) % p, line[-1][1])]
        out = linearize(fr, pack_vos(fr, [sorted(bent)]))
        assert (out.status, out.vo_size, out.span_dim) == ("notlinear", p, 2)


def test_linearize_empty_vo_reports_unsat_marker():
    fr, _ = eight_point_frame_and_instance()
    out = linearize(fr, [()])
    assert out.status == "unsat"
    assert out.orbit_min == 1


def test_linearize_two_element_sets_over_f2_linear():
    """Pairs over F_2 are always affine lines (the k = p = 2 guarantee)."""
    g = Permutation.from_cycles(6, [(1, 2), (3, 4)])
    h = Permutation.from_cycles(6, [(3, 4), (5, 6)])
    fr = build_frame(6, [g, h], 2)
    for vo_sizes in itertools.product([1, 2], repeat=3):
        vos = []
        for of, size in zip(fr.orbit_frames, vo_sizes):
            space = list(itertools.product(range(2), repeat=of.dim))
            vos.append(tuple(space[:size]))
        assert isinstance(linearize(fr, pack_vos(fr, vos)), LinearizedConstraint)


def test_linearized_constraint_per_orbit_invariants():
    """When linear: |V_O| = p^dim E_O per orbit, E_O is None exactly when
    V_O is the whole constituent, every difference from w's slice lies in
    E_O, and every admissible vector recomposes to a permutation
    satisfying the orbit's constraints."""
    from gcsolve.genbench import GenConfig, gen_instance

    for seed in range(10):
        inst = gen_instance(GenConfig(p=2, seed=seed + 300, k=2, q_range=(1, 3),
                                      dim_range=(1, 4))).instance
        fr = build_frame(inst.n, inst.gens, 2)
        packed = compute_all_vo(fr, inst)
        lin = linearize(fr, packed)
        if not isinstance(lin, LinearizedConstraint):
            continue
        vos = unpack_vos(fr, packed)
        packing = packed_digits(2, fr.dim)
        w = packing.unpack(lin.w)
        for i, of in enumerate(fr.orbit_frames):
            lo, hi = fr.slices[i]
            e_o = lin.e_orbits[i]
            assert (e_o is None) == (len(vos[i]) == 2 ** of.dim)
            assert len(vos[i]) == 2 ** (of.dim if e_o is None else e_o.rank)
            assert w[lo:hi] == vos[i][0]
            for v in vos[i]:
                if e_o is not None:
                    assert not any(e_o.reduce(tuple((a - b) % 2 for a, b in zip(v, vos[i][0]))))
                padded = (0,) * lo + v + (0,) * (fr.dim - hi)
                u = fr.perm_of_coords(packing.pack(padded))
                assert all(u.image(b) in inst.cmap[b] for b in of.points)


def test_solve_linear_unconstrained_returns_identity():
    gens = list(eight_point_gens())
    inst = normalize([], 8, gens, 2)
    out = solve(inst)
    assert out.status == "sat" and out.method == "linear"
    assert out.witness.is_identity()
    assert verify(inst, out.witness)


def test_solve_linear_unique_solution_by_regularity():
    fr, inst = eight_point_frame_and_instance({3})
    g3 = eight_point_gens()[2]
    out = solve(inst)
    assert out.status == "sat" and out.witness == g3
    # oracle: g3 is the only element of the 8 that satisfies the constraint
    hits = [u for u in group_closure(list(eight_point_gens()), 8) if satisfies_pointwise(inst, u)]
    assert hits == [g3]


def test_solve_linear_detects_inconsistent_system():
    # G is the diagonal of two 2-point orbits; forcing a swap on one orbit
    # and a fixed point on the other leaves no group element
    g = Permutation.from_cycles(4, [(1, 2), (3, 4)])
    inst = normalize([(1, {2}), (3, {3})], 4, [g], 2)
    fr = build_frame(4, [g], 2)
    lin = linearize(fr, compute_all_vo(fr, inst))
    assert isinstance(lin, LinearizedConstraint)
    direct = solve_linear(fr, lin)
    assert direct.status == "unsat" and direct.reason == "inconsistent"
    out = solve(inst)
    assert out.status == "unsat" and out.reason == "inconsistent"
    assert solve_enumerate(fr, inst).status == "unsat"


def test_solve_empty_vo_short_circuits():
    g = Permutation.from_cycles(2, [(1, 2)])
    inst = normalize([(1, set())], 2, [g], 2)
    out = solve(inst)
    assert out.status == "unsat" and out.reason == "empty-vo"


def test_empty_vo_reported_before_a_nonlinear_orbit():
    # orbit {1..4} admits three vectors (not affine); orbit {5, 6} admits none
    g = Permutation.from_cycles(6, [(1, 2), (3, 4)])
    h = Permutation.from_cycles(6, [(1, 3), (2, 4), (5, 6)])
    inst = normalize([(1, {2, 3, 4}), (5, set())], 6, [g, h], 2)
    fr = build_frame(6, [g, h], 2)
    assert linearize(fr, compute_all_vo(fr, inst)) == SolveOutcome.unsat("empty-vo", orbit_min=5)
    for fallback in ("product", "none"):
        out = solve(inst, fallback=fallback)
        assert (out.status, out.reason, out.orbit_min) == ("unsat", "empty-vo", 5)
    assert solve_enumerate(fr, inst).status == "unsat"


@pytest.mark.parametrize("p", [2, 3])
def test_solve_stops_at_the_first_empty_orbit(monkeypatch, p):
    """Four orbits of p points, one p-cycle on each; the second and the
    fourth admit no vector.  solve names the second and computes no V_O
    after it, and compute_all_vo still computes all four."""
    n = 4 * p
    gens = [Permutation.from_cycles(n, [tuple(range(lo, lo + p))]) for lo in range(1, n, p)]
    inst = normalize([(1, {2}), (p + 1, set()), (2 * p + 1, {2 * p + 2}), (3 * p + 1, set())],
                     n, gens, p)
    fr = build_frame(n, gens, p)
    vos = compute_all_vo(fr, inst)
    assert [len(vo) for vo in vos] == [1, 0, 1, 0]
    first = SolveOutcome.unsat("empty-vo", orbit_min=p + 1)
    assert linearize(fr, vos) == first

    computed = []
    real_vo = constraint.compute_vo
    monkeypatch.setattr(constraint, "compute_vo",
                        lambda fr, inst, i: computed.append(i) or real_vo(fr, inst, i))
    for fallback in ("product", "none"):
        computed.clear()
        assert solve(inst, fallback=fallback) == first
        assert computed == [0, 1]
    assert solve_enumerate(fr, inst).status == "unsat"


@pytest.mark.parametrize("p", [3, 5])
def test_solve_linear_inconsistent_diagonal_p_cycle(p):
    """One p-cycle acting diagonally on two orbits: every group element
    shifts both orbits alike, so asking for shifts 1 and 2 is inconsistent
    while asking for 1 on both is met by the generator itself."""
    g = Permutation.from_cycles(2 * p, [tuple(range(1, p + 1)), tuple(range(p + 1, 2 * p + 1))])
    fr = build_frame(2 * p, [g], p)
    clash = normalize([(1, {2}), (p + 1, {p + 3})], 2 * p, [g], p)
    assert isinstance(linearize(fr, compute_all_vo(fr, clash)), LinearizedConstraint)
    out = solve(clash, fallback="none")
    assert out.status == "unsat" and out.reason == "inconsistent"
    assert solve_enumerate(fr, clash).status == "unsat"
    agree = normalize([(1, {2}), (p + 1, {p + 2})], 2 * p, [g], p)
    out = solve(agree, fallback="none")
    assert out.status == "sat" and out.witness == g


@pytest.mark.parametrize("p, dim_range", [(2, (1, 3)), (3, (1, 2)), (5, (1, 2))])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_linear_path_agrees_with_enumeration(p, dim_range, k):
    linear = 0
    for seed in range(60):
        cfg = GenConfig(p=p, seed=1000 * p + 100 * k + seed, k=k, q_range=(1, 3),
                        dim_range=dim_range)
        inst = gen_instance(cfg).instance
        fast = solve(inst, fallback="none")
        if fast.status == "notlinear":
            continue
        linear += 1
        fr = build_frame(inst.n, inst.gens, p)
        assert fast.status == solve_enumerate(fr, inst).status, f"seed {cfg.seed}"
        if fast.status == "sat":
            assert verify(inst, fast.witness, fr)
    assert linear >= 50


@pytest.mark.parametrize("p, dim_range", [(2, (1, 3)), (3, (1, 2)), (5, (1, 2)), (131, (1, 1))])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_solve_linear_matches_the_schoolbook_reference(p, dim_range, k):
    """solve_linear against (M_E·[g_1 ... g_m])·a = M_E·w solved with free
    variables 0 (util.schoolbook_solve_linear, with M_E built by inversion
    from E's basis rebuilt from V_O): the same status, reason and witness
    on each linear gen_instance draw, on the draw with w moved to a random
    vector of F (often inconsistent), and on the draw with one more
    generator, g + e for a random g in G and a nonzero e of one orbit's
    E_O, put among the generators at a random place.  Then G ∩ E holds e,
    so there are several solutions, and which one is returned depends on
    that place.  When every E_O of the draw is 0, the sets of one orbit
    are dropped first, so that its E_O is the whole constituent.  At
    p = 131 a field is 9 bits wide.  Where orbits of dimension 2 are
    drawn, one more instance mixes every kind of orbit: util's
    every_point_text on k + 2 orbits, each with E_O of rank 1, with the
    first orbit's sets dropped, so that it is free, and the second's first
    point sent to one point, so that its E_O is 0; it is checked as
    stated and with w moved."""
    rng = random.Random(100 * p + k)
    seen = Counter()

    def check(fr_c, vos_c, lin_c, note):
        out = solve_linear(fr_c, lin_c)
        ref = schoolbook_solve_linear(fr_c, vos_c, lin_c.w)
        assert (out.status, out.reason, out.method, out.witness) == (
            ref.status, ref.reason, ref.method, ref.witness), note
        seen[out.status, out.reason] += 1

    def moved(fr_c, lin_c):
        w = tuple(rng.randrange(p) for _ in range(fr_c.dim))
        return LinearizedConstraint(packed_digits(p, fr_c.dim).pack(w), lin_c.e_orbits)

    for seed in range(40):
        cfg = GenConfig(p=p, seed=2000 * p + 100 * k + seed, k=k, q_range=(1, 3),
                        dim_range=dim_range)
        inst = gen_instance(cfg).instance
        fr = build_frame(inst.n, inst.gens, p)
        vos = compute_all_vo(fr, inst)
        lin = linearize(fr, vos)
        if not isinstance(lin, LinearizedConstraint):
            continue
        packing = packed_digits(p, fr.dim)
        g = [0] * fr.dim
        for x in map(packing.unpack, fr.gen_coords):
            c = rng.randrange(p)
            g = [(a + c * b) % p for a, b in zip(g, x)]
        wide = [i for i, vo in enumerate(vos) if len(vo) > 1]
        i = rng.choice(wide or [i for i, of in enumerate(fr.orbit_frames) if of.dim])
        of, (lo, hi), vo = fr.orbit_frames[i], fr.slices[i], unpack_vos(fr, vos)[i]
        stated = inst.constraints
        if not wide:  # E is 0: drop the orbit's sets, so that its E_O is its constituent
            stated = {a: cset for a, cset in stated.items() if a not in of.pos}
            vo = tuple(itertools.product(range(p), repeat=of.dim))
        g[lo:hi] = [(a + b - c) % p for a, b, c in zip(g[lo:hi], rng.choice(vo[1:]), vo[0])]
        at = rng.randrange(len(inst.gens) + 1)
        gens = inst.gens[:at] + (fr.perm_of_coords(packing.pack(g)),) + inst.gens[at:]
        joined = normalize(stated.items(), inst.n, gens, p)
        fr_joined = build_frame(joined.n, joined.gens, p)
        vos_joined = compute_all_vo(fr_joined, joined)
        lin_joined = linearize(fr_joined, vos_joined)
        for fr_c, vos_c, lin_c in ((fr, vos, lin), (fr, vos, moved(fr, lin)),
                                   (fr_joined, vos_joined, lin_joined)):
            check(fr_c, vos_c, lin_c, f"seed {cfg.seed}")
    assert seen["sat", None] and seen["unsat", "inconsistent"]
    if dim_range[1] > 1:
        base = parse_instance(every_point_text(p, k + 2))
        q = p * p
        stated = {a: cset for a, cset in base.constraints.items() if a > q}
        stated[q + 1] = frozenset([min(stated[q + 1])])
        inst = normalize(stated.items(), base.n, base.gens, p)
        fr = build_frame(inst.n, inst.gens, p)
        vos = compute_all_vo(fr, inst)
        lin = linearize(fr, vos)
        assert [None if e is None else e.rank for e in lin.e_orbits] == [None, 0] + [1] * k
        check(fr, vos, lin, "mixed")
        check(fr, vos, moved(fr, lin), "mixed, w moved")


@pytest.mark.parametrize("text", [every_point_text(2, 6), every_point_text(3, 4),
                                  near_square_text(12)], ids=["p2", "p3", "near-square"])
def test_a_linear_solve_adds_packed_rows_only(monkeypatch, text):
    """On a linear solve nothing calls RowReducer.add or RowReducer.reduce:
    linearize and solve_linear add packed vectors.  From the frame to the
    witness no d-wide vector is packed or unpacked: the generators'
    coordinates, w and the witness's coordinates stay packed, and the only
    vectors packed or unpacked are one orbit wide, where the frame reads a
    position's code and a code's translation."""
    inst = parse_instance(text)
    fr = build_frame(inst.n, inst.gens, inst.p)
    assert len(fr.orbit_frames) > 1
    widths = []
    real_pack, real_unpack = PackedDigits.pack, PackedDigits.unpack

    def pack(self, vec):
        widths.append(self.count)
        return real_pack(self, vec)

    def unpack(self, code):
        widths.append(self.count)
        return real_unpack(self, code)

    def refuse(*args):
        raise AssertionError("RowReducer.add or RowReducer.reduce called")

    monkeypatch.setattr(PackedDigits, "pack", pack)
    monkeypatch.setattr(PackedDigits, "unpack", unpack)
    monkeypatch.setattr(RowReducer, "add", refuse)
    monkeypatch.setattr(RowReducer, "reduce", refuse)
    out = solve(inst)
    assert (out.status, out.method) == ("sat", "linear")
    assert widths and set(widths) <= {of.dim for of in fr.orbit_frames} and fr.dim not in widths


def test_group_variety_built_only_to_test_membership(monkeypatch):
    """empty-vo, the linear solver, fallback none and the enumeration
    oracle never build M_G; the product fallback builds it once."""
    vm_calls = []
    real = constraint.group_variety

    def counted(fr):
        vm_calls.append(fr)
        return real(fr)

    monkeypatch.setattr(constraint, "group_variety", counted)
    nonlinear = reduce_1in_k(ClauseSet(("a", "b", "c"), (("a", "b", "c"),)), 2).instance
    assert solve(nonlinear, fallback="product").status == "sat"
    assert len(vm_calls) == 1

    def refuse(fr):
        raise AssertionError("group_variety called")

    monkeypatch.setattr(constraint, "group_variety", refuse)
    linear = normalize([(1, {3})], 8, list(eight_point_gens()), 2)
    assert solve(linear).status == "sat"
    diagonal = Permutation.from_cycles(4, [(1, 2), (3, 4)])
    assert solve(normalize([(1, {2}), (3, {3})], 4, [diagonal], 2)).reason == "inconsistent"
    empty = normalize([(1, set())], 8, list(eight_point_gens()), 2)
    assert solve(empty).reason == "empty-vo"
    assert solve(nonlinear, fallback="none").status == "notlinear"
    out = solve_enumerate(build_frame(nonlinear.n, nonlinear.gens, 2), nonlinear)
    assert out.status == "sat" and satisfies_pointwise(nonlinear, out.witness)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_group_variety_has_the_row_space_of_the_inverted_change_of_basis(p):
    """Two matrices whose kernel is G have one row space: stacking M_G on
    the reference built by inversion adds no rank."""
    for seed in range(6):
        inst = gen_instance(GenConfig(p=p, seed=seed, q_range=(1, 3), dim_range=(1, 2))).instance
        fr = build_frame(inst.n, inst.gens, p)
        basis, dim_g = fr.subspace_basis(fr.gen_coords)
        ours = group_variety(fr).m.rows
        ref = schoolbook_variety_matrix(fr, unpack_coords(fr, basis)).rows
        rank = schoolbook_rank(ours, p, fr.dim)
        assert rank == fr.dim - dim_g
        assert schoolbook_rank(ref, p, fr.dim) == schoolbook_rank(ours + ref, p, fr.dim) == rank


def test_no_solve_or_verify_path_inverts_a_matrix(monkeypatch):
    """A linear, a product-fallback and an inconsistent decision, and the
    verification of their witnesses, run with fpalg.invert and fpalg.solve
    refused."""

    def refuse(*args):
        raise AssertionError("fpalg.invert or fpalg.solve called")

    monkeypatch.setattr(fpalg, "invert", refuse)
    monkeypatch.setattr(fpalg, "solve", refuse)
    linear = normalize([(1, {3})], 8, list(eight_point_gens()), 2)
    nonlinear = reduce_1in_k(ClauseSet(("a", "b", "c"), (("a", "b", "c"),)), 3).instance
    diagonal = Permutation.from_cycles(4, [(1, 2), (3, 4)])
    inconsistent = normalize([(1, {2}), (3, {3})], 4, [diagonal], 2)
    for inst, method in ((linear, "linear"), (nonlinear, "product")):
        out = solve(inst)
        assert (out.status, out.method) == ("sat", method)
        assert verify_detail(inst, out.witness) == (True, None)
    out = solve(inconsistent)
    assert (out.status, out.reason) == ("unsat", "inconsistent")
    # (1 2) meets both constraints but lies in F, not in G
    lone = Permutation.from_cycles(4, [(1, 2)])
    assert verify_detail(inconsistent, lone) == (False, "witness not in group")


def test_no_solve_or_verify_path_reads_the_d_by_d_matrix(monkeypatch):
    """Linear, inconsistent and product decisions at p = 2 and p = 3, and
    the verification of their witnesses, test membership by residuals:
    VarietyMatrix.m, the lemma's d x d matrix, is refused."""

    def refuse(vm):
        raise AssertionError("VarietyMatrix.m read")

    monkeypatch.setattr(VarietyMatrix, "m", property(refuse))
    clause = ClauseSet(("a", "b", "c"), (("a", "b", "c"),))
    diagonal = Permutation.from_cycles(4, [(1, 2), (3, 4)])
    inconsistent = normalize([(1, {2}), (3, {3})], 4, [diagonal], 2)
    out = solve(inconsistent)
    assert (out.status, out.reason) == ("unsat", "inconsistent")
    linear = normalize([(1, {3})], 8, list(eight_point_gens()), 2)
    for inst, method in ((linear, "linear"),
                         (reduce_1in_k(clause, 2).instance, "product"),
                         (reduce_1in_k(clause, 3).instance, "product")):
        out = solve(inst)
        assert (out.status, out.method) == ("sat", method)
        assert verify_detail(inst, out.witness) == (True, None)
        fr = build_frame(inst.n, inst.gens, inst.p)
        assert verify_detail(inst, out.witness, fr, group_variety(fr)) == (True, None)
    lone = Permutation.from_cycles(4, [(1, 2)])
    assert verify_detail(inconsistent, lone) == (False, "witness not in group")


def test_verify_detail_refuses_a_frame_or_variety_of_another_group():
    """G = <(1 2)(3 4)> does not hold (1 2); the frame of <(1 2), (3 4)>,
    or G's frame with that group's variety, would let it through."""
    diagonal = Permutation.from_cycles(4, [(1, 2), (3, 4)])
    inst = normalize([], 4, [diagonal], 2)
    lone = Permutation.from_cycles(4, [(1, 2)])
    assert verify_detail(inst, lone) == (False, "witness not in group")
    fr = build_frame(4, [diagonal], 2)
    assert verify_detail(inst, lone, fr, group_variety(fr)) == (False, "witness not in group")
    wider = build_frame(4, [lone, Permutation.from_cycles(4, [(3, 4)])], 2)
    with pytest.raises(ValueError, match="other generators"):
        verify_detail(inst, lone, wider)
    with pytest.raises(ValueError, match="not the variety"):
        verify_detail(inst, lone, fr, group_variety(wider))
    # the variety of a subgroup of G leaves a generator of G outside it
    with pytest.raises(ValueError, match="not the variety"):
        verify_detail(inst, lone, fr, fr.variety_matrix([]))


def _p2_texts():
    return [
        render_instance(gen_instance(GenConfig(p=2, seed=seed, k=k, q_range=(1, 3),
                                               dim_range=(1, 3))).instance)
        for seed in range(12) for k in (1, 2)
    ]


def test_parse_and_solve_never_call_orbit_partition(monkeypatch):
    """The frame finds the orbits: parsing and solving a linear and a
    product-fallback decision, the enumeration oracle, and generated
    instances, never call orbit_partition (rendering does)."""
    clause = ClauseSet(("a", "b", "c"), (("a", "b", "c"),))
    linear = render_instance(normalize([(1, {3})], 8, list(eight_point_gens()), 2))
    nonlinear = render_instance(reduce_1in_k(clause, 3).instance)
    texts = _p2_texts()

    def refuse(gens, n=None):
        raise AssertionError("orbit_partition called")

    for module in (perm, constraint, frame):
        monkeypatch.setattr(module, "orbit_partition", refuse)
    for text, method in ((linear, "linear"), (nonlinear, "product")):
        out = solve(parse_instance(text))
        assert (out.status, out.method) == ("sat", method)
    inst = parse_instance(nonlinear)
    out = solve_enumerate(build_frame(inst.n, inst.gens, inst.p), inst)
    assert (out.status, out.method) == ("sat", "enumerate")
    for text in texts:
        solve(parse_instance(text))


def test_odd_p_decisions_never_call_position_sum(monkeypatch):
    """At p = 3 and p = 5, compute_vo and the product fallback add packed
    vectors: a product decision never calls position_sum, while the
    enumeration oracle, which keeps its digit arithmetic, does."""
    calls = []
    real = frame.position_sum

    def counted(i, j, p):
        calls.append(p)
        return real(i, j, p)

    for module in (frame, constraint):
        monkeypatch.setattr(module, "position_sum", counted)
    clause = ClauseSet(("a", "b", "c", "d"), (("a", "b", "c"), ("b", "c", "d")))
    for p in (3, 5):
        inst = reduce_1in_k(clause, p).instance
        fr = build_frame(inst.n, inst.gens, p)
        assert linearize(fr, compute_all_vo(fr, inst)).status == "notlinear"
        out = solve(inst)
        assert (out.status, out.method) == ("sat", "product")
        assert calls == []
        assert solve_enumerate(fr, inst).status == "sat"
        assert calls
        calls.clear()


def test_solve_reads_each_generator_once_per_decision(monkeypatch):
    """A linear and a product-fallback decision, and the enumeration oracle
    with the frame it builds, read each generator's coordinates once, in
    one batched read when the frame is built, and never read a single
    permutation's."""
    batches, singles = [], []
    real_batch, real_single = Frame.coords_of_perms, Frame.coords_of_perm

    def counted_batch(fr, perms):
        batches.append(list(perms))
        return real_batch(fr, perms)

    def counted_single(fr, u):
        singles.append(u)
        return real_single(fr, u)

    monkeypatch.setattr(Frame, "coords_of_perms", counted_batch)
    monkeypatch.setattr(Frame, "coords_of_perm", counted_single)
    linear = normalize([(1, {3})], 8, list(eight_point_gens()), 2)
    nonlinear = reduce_1in_k(ClauseSet(("a", "b", "c"), (("a", "b", "c"),)), 3).instance
    for inst, decide, method in ((linear, solve, "linear"),
                                 (nonlinear, solve, "product"),
                                 (nonlinear, lambda inst: solve_enumerate(None, inst), "enumerate")):
        batches.clear()
        out = decide(inst)
        assert (out.status, out.method) == ("sat", method)
        assert batches == [list(inst.gens)]
        assert singles == []


def test_solve_at_p2_is_the_same_on_the_list_path(monkeypatch):
    """Status, reason and witness are the same when the linear branch is
    the schoolbook reference, M_E·[g_1 ... g_m] solved by a list
    elimination with M_E built by inverting a change of basis, and the
    product fallback reads its syndromes from a list residual against G's
    generators (SchoolbookResidual) instead of packed residuals against an
    echelon form.  Reductions of clause sets with two to five clauses put
    the product fallback on groups of several orbits."""
    insts = [parse_instance(text) for text in _p2_texts()]
    insts.append(reduce_1in_k(ClauseSet(("a", "b", "c"), (("a", "b", "c"),)), 2).instance)
    rng = SplitMix64(derive_seed(2, 30))
    for _ in range(12):
        sigma = tuple(f"v{i}" for i in range(rng.randint(4, 7)))
        clauses = tuple(tuple(rng.sample(sigma, 3)) for _ in range(rng.randint(2, 5)))
        insts.append(reduce_1in_k(ClauseSet(sigma, clauses), 2).instance)
    diagonal = Permutation.from_cycles(4, [(1, 2), (3, 4)])
    insts.append(normalize([(1, {2}), (3, {3})], 4, [diagonal], 2))
    packed = [solve(inst) for inst in insts]
    assert {(out.status, out.reason) for out in packed} >= {
        ("sat", None), ("unsat", "empty-vo"), ("unsat", "inconsistent"), ("unsat", "exhausted")}
    assert sum(out.method == "product" and len(orbit_partition(inst.gens, inst.n)) > 1
               for inst, out in zip(insts, packed)) >= 10

    read = []  # the V_O sets of the instance being solved, as linearize reads them
    real_linearize = constraint.linearize
    monkeypatch.setattr(constraint, "linearize",
                        lambda fr, vos: read.append(vos) or real_linearize(fr, vos))
    monkeypatch.setattr(constraint, "solve_linear",
                        lambda fr, lin: schoolbook_solve_linear(fr, read[-1], lin.w))
    monkeypatch.setattr(constraint, "group_variety",
                        lambda fr: SchoolbookResidual(fr.p, fr.dim,
                                                      unpack_coords(fr, fr.gen_coords)))
    assert [solve(inst) for inst in insts] == packed


def test_verify_examples():
    fr, inst = eight_point_frame_and_instance({3})
    g1, g2, g3 = eight_point_gens()
    assert verify(inst, g3)
    assert not verify(inst, g1)
    ok, reason = verify_detail(inst, g1)
    assert not ok and "point 1" in reason


def test_verify_rejects_non_group_witness():
    gens = list(eight_point_gens())
    inst = normalize([], 8, gens, 2)
    rogue = Permutation.from_cycles(8, [(1, 2)])
    ok, reason = verify_detail(inst, rogue)
    assert not ok and "not in group" in reason
    three_cycle = Permutation.from_cycles(8, [(1, 2, 3)])
    ok, reason = verify_detail(inst, three_cycle)
    assert not ok


def test_verify_detail_refuses_a_witness_on_another_n():
    inst = normalize([], 8, list(eight_point_gens()), 2)
    ok, reason = verify_detail(inst, Permutation.identity(4))
    assert (ok, reason) == (False, "witness acts on 4 points, instance has 8")


def test_solve_refuses_an_unknown_fallback():
    inst = normalize([], 8, list(eight_point_gens()), 2)
    for fallback in ("bogus", "enumerate"):
        with pytest.raises(ValueError, match=rf"^unknown fallback '{fallback}'$"):
            solve(inst, fallback=fallback)


def test_verify_superspace_member_outside_group():
    g = Permutation.from_cycles(4, [(1, 2), (3, 4)])
    inst = normalize([], 4, [g], 2)
    lone = Permutation.from_cycles(4, [(1, 2)])
    ok, reason = verify_detail(inst, lone)
    assert not ok and "not in group" in reason


def test_verify_checks_the_stated_points_and_membership_keeps_the_orbits():
    """Only stated points are checked against their sets; a witness that
    meets its stated set by leaving the orbit is refused as not in G."""
    g = Permutation.from_cycles(4, [(1, 2), (3, 4)])
    inst = normalize([(1, {2, 3})], 4, [g], 2)
    assert inst.constraints == {1: frozenset({2, 3})}
    assert inst.cmap[1] == frozenset({2})
    assert verify_detail(inst, g) == (True, None)
    leaves = Permutation.from_cycles(4, [(1, 3), (2, 4)])
    assert verify_detail(inst, leaves) == (
        False, "witness not in group: point 1 leaves its orbit under the permutation")
    assert verify_detail(inst, Permutation.identity(4)) == (
        False, "point 1 maps to 1, outside its constraint set")


def test_solve_enumerate_identity_first_and_empty_set():
    gens = list(eight_point_gens())
    fr = build_frame(8, gens, 2)
    inst = normalize([], 8, gens, 2)
    out = solve_enumerate(fr, inst)
    assert out.status == "sat" and out.witness.is_identity()
    inst2 = normalize([(1, set())], 8, gens, 2)
    assert solve_enumerate(fr, inst2).status == "unsat"


def test_solve_enumerate_cap_refusal():
    gens = list(eight_point_gens())
    fr = build_frame(8, gens, 2)
    inst = normalize([(1, {3})], 8, gens, 2)
    with pytest.raises(CapExceededError):
        solve_enumerate(fr, inst, cap=4)


def test_solve_enumerate_refuses_a_frame_of_other_generators():
    gens = list(eight_point_gens())
    fr = build_frame(8, gens[:2], 2)
    inst = normalize([(1, {3})], 8, gens, 2)
    with pytest.raises(ValueError, match="other generators"):
        solve_enumerate(fr, inst)


def test_normalize_refuses_n_above_the_limit():
    with pytest.raises(ValueError, match=f"n = {constraint.MAX_N + 1} exceeds the limit"):
        normalize([], constraint.MAX_N + 1, [], 2)


def test_solve_product_single_orbit_cases():
    fr, inst = eight_point_frame_and_instance({3})
    vos = compute_all_vo(fr, inst)
    out = solve_product(fr, vos)
    assert out.status == "sat" and out.witness == eight_point_gens()[2]
    assert solve_product(fr, [()]).status == "unsat"
    # G is the whole constituent, so the first of its 8 vectors decides:
    # the cap bounds the candidates tested, not |V_O|
    out = solve_product(fr, pack_vos(fr, [tuple(itertools.product(range(2), repeat=3))]), cap=1)
    assert out.status == "sat" and out.witness.is_identity()


def test_solve_product_no_combination_in_group():
    g = Permutation.from_cycles(4, [(1, 2), (3, 4)])
    fr = build_frame(4, [g], 2)
    inst = normalize([(1, {2}), (3, {3})], 4, [g], 2)
    vos = compute_all_vo(fr, inst)
    assert all(len(v) == 1 for v in vos)
    out = solve_product(fr, vos)
    assert out.status == "unsat" and out.reason == "exhausted"
    assert solve_enumerate(fr, inst).status == "unsat"


def product_reference(fr, vos, m_g):
    """Brute-force product fallback over the V_O sets vos, as compute_vo
    gives them and unpacked first: the first combination in
    itertools.product order whose M_G product is 0, as (status, reason,
    witness)."""
    pack = packed_digits(fr.p, fr.dim).pack
    for combo in itertools.product(*unpack_vos(fr, vos)):
        x = tuple(c for part in combo for c in part)
        if m_g.contains(x):
            return "sat", None, fr.perm_of_coords(pack(x))
    return "unsat", "exhausted", None


def assert_product_matches_reference(fr, vos, m_g):
    out = solve_product(fr, vos)
    assert (out.status, out.reason, out.witness) == product_reference(fr, vos, m_g)
    return out


def test_solve_product_matches_brute_force_with_witnesses():
    """Same status, reason and witness as the brute-force loop on random
    instances at p in {2, 3, 5} x k in {1, 2, 3}, on reduced 1-in-3
    clause sets at p in {2, 3}, and on the mmc_to_gc disjuncts of random
    models over groups of two or three orbits at p in {2, 3, 5}."""
    instances = []
    for p, dim_range in [(2, (1, 3)), (3, (1, 2)), (5, (1, 2))]:
        for k in (1, 2, 3):
            for seed in range(20):
                cfg = GenConfig(p=p, seed=5000 + 1000 * p + 100 * k + seed, k=k,
                                q_range=(1, 3), dim_range=dim_range)
                instances.append(gen_instance(cfg).instance)
    for p in (2, 3):
        rng = SplitMix64(derive_seed(77, p))
        for _ in range(80):
            sigma = tuple(f"v{i}" for i in range(rng.randint(3, 6)))
            clauses = tuple(tuple(rng.sample(sigma, 3)) for _ in range(rng.randint(1, 5)))
            instances.append(reduce_1in_k(ClauseSet(sigma, clauses), p).instance)
    disjuncts = []
    for p, dims in ((2, (2, 1, 2)), (3, (1, 1, 1)), (5, (1, 1))):
        for seed in range(10):
            group = gen_instance(GenConfig(p=p, seed=derive_seed(88, p, seed), dims=dims, k=1))
            rng = SplitMix64(derive_seed(89, p, seed))
            model = [rng.below(4) for _ in range(group.instance.n)]
            disjuncts.extend(mmc_to_gc(model, group.instance.gens, p))
    nonlinear = Counter()
    sat = 0
    for i, inst in enumerate(instances + disjuncts):
        fr = build_frame(inst.n, inst.gens, inst.p)
        vos = compute_all_vo(fr, inst)
        if getattr(linearize(fr, vos), "status", "linear") == "notlinear":
            nonlinear["disjunct" if i >= len(instances) else "instance"] += 1
        out = assert_product_matches_reference(fr, vos, group_variety(fr))
        if out.status == "sat":
            sat += 1
            assert verify(inst, out.witness, fr)
    assert 3 * nonlinear["instance"] >= len(instances)
    assert nonlinear["disjunct"] >= 20
    assert 0 < sat < len(instances)


@pytest.mark.parametrize("p, dims, dim_g, k", [(7, (1, 2, 1), 2, 2), (17, (2, 1), 2, 3),
                                           (257, (1, 1), 1, 3)])
def test_packed_paths_agree_with_the_oracles_at_larger_primes(p, dims, dim_g, k):
    """At primes whose packed fields are 4, 6 and 10 bits wide, compute_vo
    equals reference_vo on every orbit, and solve_product agrees with
    solve_enumerate on the status, with a witness that verify_detail
    accepts and that the brute-force product loop finds first.  One stated
    point is kept per orbit, so V_O has k members, and every other
    instance is planted."""
    rng = SplitMix64(derive_seed(1414, p))
    statuses = []
    for seed in range(12):
        cfg = GenConfig(p=p, seed=derive_seed(p, seed), k=k, sat_bias=float(seed % 2),
                        dims=dims, dim_g=dim_g)
        full = gen_instance(cfg).instance
        kept = [block[rng.below(len(block))] for block in orbit_partition(full.gens, full.n)]
        inst = normalize([(a, full.constraints[a]) for a in kept], full.n, full.gens, p)
        fr = build_frame(inst.n, inst.gens, p)
        vos = assert_vos_match_reference(fr, inst)
        assert linearize(fr, vos).status == "notlinear"
        out = assert_product_matches_reference(fr, vos, group_variety(fr))
        assert out.status == solve_enumerate(fr, inst).status
        if out.status == "sat":
            assert verify_detail(inst, out.witness) == (True, None)
        statuses.append(out.status)
    assert set(statuses) == {"sat", "unsat"}


def test_solve_product_empty_vo_in_any_position_is_exhausted():
    gens = [Permutation.from_cycles(6, [(1, 2)]), Permutation.from_cycles(6, [(3, 4), (5, 6)])]
    fr = build_frame(6, gens, 2)
    assert len(fr.orbit_frames) == 3
    full = ((0,), (1,))
    for i in range(3):
        vos = [full] * 3
        vos[i] = ()
        out = solve_product(fr, pack_vos(fr, vos))
        assert (out.status, out.reason, out.method) == ("unsat", "exhausted", "product")


def test_solve_product_exhaustive_with_fixed_points():
    """Every choice of V_O subsets on orbits {1,2,3}, {4}, {5,6,7}, {8,9,10}
    at p = 3, where point 4 is fixed (a dimension-0 orbit) and G is a
    proper subspace, empty subsets included."""
    gens = [
        Permutation.from_cycles(10, [(1, 2, 3), (5, 6, 7)]),
        Permutation.from_cycles(10, [(5, 6, 7), (8, 9, 10)]),
    ]
    fr = build_frame(10, gens, 3)
    m_g = group_variety(fr)
    assert [of.dim for of in fr.orbit_frames] == [1, 0, 1, 1]
    assert m_g.dim_sub == 2
    line = [(0,), (1,), (2,)]
    subsets = [tuple(s) for r in range(4) for s in itertools.combinations(line, r)]
    outcomes = set()
    for a, b, c in itertools.product(subsets, repeat=3):
        out = assert_product_matches_reference(fr, pack_vos(fr, [a, ((),), b, c]), m_g)
        outcomes.add(out.status)
    assert outcomes == {"sat", "unsat"}


def test_solve_product_whole_superspace_takes_first_combination():
    gens = [Permutation.from_cycles(7, [(1, 2, 3)]), Permutation.from_cycles(7, [(4, 5, 6)])]
    fr = build_frame(7, gens, 3)
    m_g = group_variety(fr)
    assert not any(any(row) for row in m_g.m.rows)
    out = solve_product(fr, pack_vos(fr, [((2,), (1,)), ((1,),), ((),)]))
    assert out.status == "sat"
    assert out.witness == fr.perm_of_coords(packed_digits(3, 2).pack((2, 1)))


def test_solve_product_single_orbit_takes_first_vector():
    g = Permutation.from_cycles(9, [(1, 2, 3), (4, 5, 6), (7, 8, 9)])
    h = Permutation.from_cycles(9, [(1, 4, 7), (2, 5, 8), (3, 6, 9)])
    fr = build_frame(9, [g, h], 3)
    m_g = group_variety(fr)
    plane = tuple(itertools.product(range(3), repeat=2))
    for r in range(len(plane) + 1):
        vo = plane[::-1][:r]
        out = assert_product_matches_reference(fr, pack_vos(fr, [vo]), m_g)
        assert out.witness == (fr.perm_of_coords(packed_digits(3, 2).pack(vo[0])) if vo else None)


def test_solve_product_refuses_once_its_candidates_pass_the_cap(monkeypatch):
    """One generator acting diagonally on two orbits, asked to move one and
    fix the other: the walk tests orbit 0's one vector, then orbit 1's one
    vector, and cuts it.  Two candidates decide UNSAT, so a cap of 2
    decides and a cap of 1 refuses, after G's echelon form is built."""
    built = []
    real = constraint.group_variety
    monkeypatch.setattr(constraint, "group_variety", lambda fr: built.append(fr) or real(fr))
    g = Permutation.from_cycles(4, [(1, 2), (3, 4)])
    fr = build_frame(4, [g], 2)
    vos = compute_all_vo(fr, normalize([(1, {2}), (3, {3})], 4, [g], 2))
    out = solve_product(fr, vos, cap=2)
    assert (out.status, out.reason) == ("unsat", "exhausted")
    built.clear()
    with pytest.raises(CapExceededError, match=r"^candidates tested exceed cap 1$"):
        solve_product(fr, vos, cap=1)
    assert built == [fr]


def coupled_shape(kk):
    """README's coupled shape at p = 2: 2·kk orbits of 4 points, generator
    b of pair i translating orbit i and orbit kk + i by e_b together; orbit
    i's origin may go to positions {0, 1, 2} and orbit kk + i's only to
    position 3, so the instance is UNSAT with prod |V_O| = 3^kk."""
    vectors = []
    for i in range(kk):
        for e in ((1, 0), (0, 1)):
            v = [0] * (4 * kk)
            v[2 * i:2 * i + 2] = v[2 * (kk + i):2 * (kk + i) + 2] = e
            vectors.append(v)
    gens = translation_perms(2, [2] * (2 * kk), vectors)
    stated = [(4 * i + 1, {4 * i + 1, 4 * i + 2, 4 * i + 3}) for i in range(kk)]
    stated += [(4 * (kk + i) + 1, {4 * (kk + i) + 4}) for i in range(kk)]
    return normalize(stated, 8 * kk, gens, 2)


def test_solve_product_cap_is_a_budget_of_candidates():
    """On the coupled shape at kk = 4 the walk exhausts every prefix in
    201 candidates (3 + 9 + 27 + 81 on orbits 0 to 3, and 81 on orbit 4,
    where every prefix is cut): a cap of 201 decides UNSAT exhausted, 200 refuses, and
    solve turns the refusal into NOTLINEAR with it as the reason."""
    inst = coupled_shape(4)
    fr = build_frame(inst.n, inst.gens, 2)
    vos = compute_all_vo(fr, inst)
    assert [len(vo) for vo in vos] == [3] * 4 + [1] * 4
    out = solve_product(fr, vos, cap=201)
    assert (out.status, out.reason, out.method) == ("unsat", "exhausted", "product")
    with pytest.raises(CapExceededError):
        solve_product(fr, vos, cap=200)
    lin = linearize(fr, vos)
    assert solve(inst, cap=200) == SolveOutcome(
        "notlinear", reason="not linear; fallback refused: candidates tested exceed cap 200",
        orbit_min=lin.orbit_min, vo_size=3, span_dim=lin.span_dim)


def _clause_sets_18_by_18():
    """1-in-3 sets of 18 variables and 18 clauses: four seeded random sets
    and the circulant sets with clause i on x_i, x_{i+1} and x_{i+5} (SAT)
    or x_{i+7} (UNSAT), indices mod 18."""
    sigma = tuple(f"x{i}" for i in range(18))
    rng = SplitMix64(derive_seed(31, 18))
    sets = [ClauseSet(sigma, tuple(tuple(rng.sample(sigma, 3)) for _ in range(18)))
            for _ in range(4)]
    for step in (5, 7):
        sets.append(ClauseSet(sigma, tuple((sigma[i], sigma[(i + 1) % 18], sigma[(i + step) % 18])
                                           for i in range(18))))
    return sets


@pytest.mark.parametrize("p", [2, 3])
def test_solve_decides_clause_sets_whose_vo_product_passes_the_cap(p):
    """Each set's prod |V_O| is 3^18, above the default cap, and the walk
    decides each under that cap, which bounds the candidates it tests.
    Every verdict equals one_in_k_brute's, and every SAT witness
    verifies."""
    verdicts = []
    for s in _clause_sets_18_by_18():
        inst = reduce_1in_k(s, p).instance
        fr = build_frame(inst.n, inst.gens, p)
        assert prod(map(len, compute_all_vo(fr, inst))) > DEFAULT_CAP
        out = solve(inst)
        assert out.method == "product", out
        assert (out.status == "sat") == (one_in_k_brute(s) is not None)
        assert out.status == "unsat" or verify(inst, out.witness, fr)
        verdicts.append(out.status)
    assert verdicts[-2:] == ["sat", "unsat"] and "unsat" in verdicts[:-2]


def test_solve_product_memory_about_doubles_with_the_orbits():
    """Chained 1-in-3 sets at p = 3 with 7 and then 14 clauses, clause i
    on variables i, i + 1 and i + 2: one orbit and three admissible
    vectors per clause, so the product of the V_O sizes goes from 3^7 to
    3^14.  The walk holds one prefix beside the syndromes, so the memory
    peak of solve_product at most about doubles, where a table over half
    of the orbits would grow 27-fold.  Each search runs once before it is
    traced, so that caches filled on first use are not counted."""
    peaks = []
    for count in (7, 14):
        sigma = tuple(f"x{i}" for i in range(count + 2))
        chained = ClauseSet(sigma, tuple(sigma[i:i + 3] for i in range(count)))
        inst = reduce_1in_k(chained, 3).instance
        fr = build_frame(inst.n, inst.gens, 3)
        vos = compute_all_vo(fr, inst)
        assert [len(vo) for vo in vos] == [3] * count
        solve_product(fr, vos)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = solve_product(fr, vos)
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
        finally:
            tracemalloc.stop()
        assert out.status == "sat" and verify(inst, out.witness, fr)
    assert peaks[1] <= 3 * peaks[0]


def test_solve_without_fallback_returns_the_linearity_verdict():
    """Whenever linearize gives a verdict rather than a linear system,
    solve with fallback none returns that outcome field for field: on
    random instances at p in {2, 3, 5} x k in {1, 2, 3}, on both
    reductions of random clause sets at p in {2, 3, 5} and on the
    disjuncts of mmc_to_gc."""
    instances = []
    for p in (2, 3, 5):
        for k in (1, 2, 3):
            for seed in range(6):
                cfg = GenConfig(p=p, seed=derive_seed(2525, p, k, seed), k=k,
                                sat_bias=seed % 2, q_range=(1, 3), dim_range=(1, 2))
                instances.append(gen_instance(cfg).instance)
        rng = SplitMix64(derive_seed(2526, p))
        sigma = tuple(f"v{i}" for i in range(5))
        for _ in range(6):
            for size in sorted({3, p}):
                clauses = tuple(tuple(rng.sample(sigma, size)) for _ in range(rng.randint(1, 3)))
                s = ClauseSet(sigma, clauses)
                instances.append(reduce_1in_k(s, p).instance)
                if size == p:
                    instances.append(reduce_2cstr(s, p).instance)
    rng = random.Random(2527)
    for _ in range(6):
        model = [rng.randrange(3) for _ in range(8)]
        instances.extend(mmc_to_gc(model, eight_point_gens(), 2))
    statuses = Counter()
    for inst in instances:
        fr = build_frame(inst.n, inst.gens, inst.p)
        lin = linearize(fr, compute_all_vo(fr, inst))
        if isinstance(lin, LinearizedConstraint):
            continue
        statuses[lin.status] += 1
        assert solve(inst, fallback="none") == lin
    assert statuses["unsat"] and statuses["notlinear"]


def test_solve_fallback_none_reports_notlinear():
    clause = ClauseSet(("a", "b", "c"), (("a", "b", "c"),))
    inst = reduce_1in_k(clause, 2).instance
    out = solve(inst, fallback="none")
    assert out.status == "notlinear"
    assert out.vo_size == 3 and out.span_dim is None
    decided = solve(inst, fallback="product")
    assert decided.status == "sat"
    assert verify(inst, decided.witness)


def test_solve_fallback_cap_refusal_is_undecided():
    """The walk decides the clause stated twice in two candidates: a cap
    of 1 leaves it NOTLINEAR, with the refusal as its reason."""
    clause = ClauseSet(("a", "b", "c"), (("a", "b", "c"), ("a", "b", "c")))
    inst = reduce_1in_k(clause, 2).instance
    out = solve(inst, fallback="product", cap=1)
    assert out.status == "notlinear"
    assert out.reason == "not linear; fallback refused: candidates tested exceed cap 1"
    assert solve(inst, fallback="product", cap=2).status == "sat"


def test_satisfaction_lemma_on_whole_superspace():
    """Any vector of F satisfies the constraint pointwise exactly when each
    orbit slice lies in that orbit's admissible set."""
    from gcsolve.genbench import GenConfig, gen_instance

    big = gen_instance(GenConfig(p=2, seed=8, k=3, dims=(3, 3, 2))).instance
    cases = [
        ([(1, {3, 4}), (5, {6})], list(eight_point_gens()), 8, 2),
        (
            [(1, {2}), (3, {3, 4}), (5, {6})],
            [
                Permutation.from_cycles(6, [(1, 2), (3, 4)]),
                Permutation.from_cycles(6, [(3, 4), (5, 6)]),
            ],
            6,
            2,
        ),
        (list(big.cmap.items()), list(big.gens), big.n, 2),
    ]
    for raw, gens, n, p in cases:
        inst = normalize(raw, n, gens, p)
        fr = build_frame(n, gens, p)
        vos = [set(v) for v in unpack_vos(fr, compute_all_vo(fr, inst))]
        pack = packed_digits(p, fr.dim).pack
        for x in itertools.product(range(p), repeat=fr.dim):
            u = fr.perm_of_coords(pack(x))
            slices = [x[lo:hi] for lo, hi in fr.slices]
            lhs = satisfies_pointwise(inst, u)
            rhs = all(s in vo for s, vo in zip(slices, vos))
            assert lhs == rhs


def test_a_frame_wider_than_the_pack_chunk_agrees_with_the_oracle():
    """70 one-dimensional orbits at p = 3 under a group of dimension 3, so
    the frame's d = 70 is wider than fpalg._PACK_CHUNK and the oracle
    enumerates 27 members.  gen_coords is the reference's coordinates
    packed in chunks (PackedDigits.pack), solve agrees with solve_enumerate
    on the verdict, both witnesses verify, and perm_of_coords undoes
    coords_of_perm on every generator and every witness.  One stated point
    is kept per orbit with k = 1 and k = 2, so V_O has k members and the
    linear branch and the product walk both decide; every other instance
    is planted."""
    assert 70 > fpalg._PACK_CHUNK
    pack = packed_digits(3, 70).pack
    rng = SplitMix64(derive_seed(3, 70))
    seen = Counter()
    for k in (1, 2):
        for seed in range(8):
            full = gen_instance(GenConfig(p=3, seed=derive_seed(70, k, seed), k=k,
                                          sat_bias=float(seed % 2), dims=(1,) * 70,
                                          dim_g=3)).instance
            kept = [3 * j + 1 + rng.below(3) for j in range(70)]
            inst = normalize([(a, full.constraints[a]) for a in kept], full.n, full.gens, 3)
            fr = build_frame(inst.n, inst.gens, 3)
            assert fr.dim == 70
            assert fr.gen_coords == tuple(pack(reference_coords(fr, g)) for g in fr.gens)
            out = solve(inst)
            ref = solve_enumerate(fr, inst)
            assert out.status == ref.status
            witnesses = [o.witness for o in (out, ref) if o.witness is not None]
            for u in [*fr.gens, *witnesses]:
                assert fr.perm_of_coords(fr.coords_of_perm(u)) == u
            for u in witnesses:
                assert verify_detail(inst, u, fr) == (True, None)
            seen[out.status, out.method] += 1
    assert {("sat", "linear"), ("sat", "product"), ("unsat", "linear"),
            ("unsat", "product")} <= set(seen)


def test_the_empty_frame_is_decided_sat_on_every_path():
    """n = 0: a frame with no orbits.  solve, solve_linear, solve_product
    and solve_enumerate each return SAT with the empty witness, and verify
    accepts it; the product walk ends at depth 0 without backing up."""
    for p in (2, 3):
        inst = normalize([], 0, [], p)
        fr = build_frame(0, [], p)
        assert (fr.dim, fr.orbit_frames, fr.gen_coords) == (0, (), ())
        lin = linearize(fr, [])
        assert lin == LinearizedConstraint(0, ())
        empty = Permutation(())
        for out, method in ((solve(inst), "linear"), (solve_linear(fr, lin), "linear"),
                            (solve_product(fr, []), "product"),
                            (solve_enumerate(fr, inst), "enumerate")):
            assert (out.status, out.method, out.witness) == ("sat", method, empty)
        assert verify_detail(inst, empty) == (True, None)
        assert verify(inst, empty, fr)


def test_oracle_equivalence_random_smoke():
    """Linear pipeline and enumeration agree on seeded random two-option
    instances; witnesses verify."""
    agree = 0
    for seed in range(60):
        cfg = GenConfig(p=2, seed=seed * 7 + 1, k=2, q_range=(1, 3), dim_range=(1, 4))
        res = gen_instance(cfg)
        inst = res.instance
        fast = solve(inst)
        assert fast.status in ("sat", "unsat")
        fr = build_frame(inst.n, inst.gens, inst.p)
        slow = solve_enumerate(fr, inst)
        assert fast.status == slow.status
        if fast.status == "sat":
            assert verify(inst, fast.witness, fr)
            assert verify(inst, slow.witness, fr)
        if res.witness is not None:
            assert fast.status == "sat"
            assert verify(inst, res.witness, fr)
        agree += 1
    assert agree == 60


def test_product_fallback_agrees_with_enumerate_on_nonlinear():
    for seed in range(25):
        cfg = GenConfig(p=2, seed=seed * 13 + 5, k=3, q_range=(1, 3), dim_range=(2, 3))
        inst = gen_instance(cfg).instance
        fr = build_frame(inst.n, inst.gens, inst.p)
        via_product = solve(inst, fallback="product")
        via_enum = solve_enumerate(fr, inst)
        assert via_product.status == via_enum.status
        if via_product.status == "sat":
            assert verify(inst, via_product.witness, fr)


def test_mmc_all_equal_model_unsatisfiable():
    gens = list(eight_point_gens())
    instances = mmc_to_gc([1] * 8, gens, 2)
    assert len(instances) == 8
    for inst in instances:
        assert solve(inst).status == "unsat"


def test_mmc_three_variable_shape():
    g = Permutation.from_cycles(3, [(1, 2, 3)])
    model = [1, 0, 1]
    instances = mmc_to_gc(model, [g], 3)
    assert len(instances) == 3
    orbit = instances[0].orbit_of[1]
    # disjunct 1 constrains only position 1 to strictly smaller values
    assert instances[0].cmap[1] == frozenset({2}) & orbit | frozenset({2})
    # disjunct 2: position 1 keeps its value class, position 2 strictly smaller
    eq_one = {a for a in (1, 2, 3) if model[a - 1] == model[0]}
    assert instances[1].cmap[1] == frozenset(eq_one) & orbit
    assert instances[1].cmap[2] == frozenset()


def test_mmc_two_variable_swap():
    swap = Permutation.from_cycles(2, [(1, 2)])
    model = [1, 0]
    instances = mmc_to_gc(model, [swap], 2)
    first = solve(instances[0])
    assert first.status == "sat" and first.witness == swap
    # oracle over the 2-element group: permuted model strictly smaller at position 1
    hits = [u for u in group_closure([swap], 2) if model[u.image(1) - 1] < model[0]]
    assert hits == [swap]


def test_mmc_disjuncts_share_one_set_per_value():
    """Instances keep their sets as stated, so the n disjuncts share the
    sets of each value instead of holding n^2 copies."""
    model = [2, 0, 1, 2, 0, 1, 1, 0]
    instances = mmc_to_gc(model, list(eight_point_gens()), 2)
    sets = {id(cset) for inst in instances for cset in inst.constraints.values()}
    assert len(sets) <= 2 * len(set(model))
    assert instances[7].constraints[1] == frozenset({1, 4})
    assert instances[7].constraints[8] == frozenset()


def test_mmc_matches_brute_force_lex_comparison():
    cases = [
        (list(eight_point_gens()), 8, [1, 0, 1, 1, 0, 0, 1, 0]),
        (list(eight_point_gens()), 8, [0, 0, 0, 0, 1, 1, 1, 1]),
        ([Permutation.from_cycles(4, [(1, 2), (3, 4)])], 4, [1, 1, 0, 0]),
        ([Permutation.from_cycles(4, [(1, 2), (3, 4)])], 4, [0, 1, 0, 1]),
    ]
    for gens, n, model in cases:
        elements = group_closure(gens, n)
        truly = any(
            [model[u.image(a) - 1] for a in range(1, n + 1)] < model for u in elements
        )
        instances = mmc_to_gc(model, gens, 2)
        answered = any(solve(inst).status == "sat" for inst in instances)
        assert answered == truly
        for inst in instances:
            fr = build_frame(n, gens, 2)
            assert solve(inst).status == solve_enumerate(fr, inst).status


def test_mmc_builds_the_instances_normalize_builds(monkeypatch):
    """On a seeded model with repeated values, each disjunct equals the
    instance normalize builds from its conjuncts, stated sets included,
    and mmc_to_gc does not call normalize."""
    rng = random.Random(19)
    gens = list(eight_point_gens())
    model = [rng.randrange(3) for _ in range(8)]
    assert len(set(model)) < len(model)
    expected = []
    for i in range(1, 9):
        raw = [(j, {a for a in range(1, 9) if model[a - 1] == model[j - 1]}) for j in range(1, i)]
        raw.append((i, {a for a in range(1, 9) if model[a - 1] < model[i - 1]}))
        expected.append(normalize(raw, 8, gens, 2))

    def refuse(*args):
        raise AssertionError("normalize called")

    monkeypatch.setattr(constraint, "normalize", refuse)
    instances = mmc_to_gc(model, gens, 2)
    assert instances == expected
    assert [inst.constraints for inst in instances] == [inst.constraints for inst in expected]
    assert all(inst.gens == tuple(gens) for inst in instances)


def test_mmc_refuses_a_model_above_the_size_limit():
    with pytest.raises(ValueError, match="exceeds"):
        mmc_to_gc([0] * (constraint.MAX_N + 1), [], 2)
