import itertools

import pytest
from hypothesis import given, settings

from gcsolve import constraint, fpalg, frame, perm
from gcsolve.constraint import (
    CapExceededError,
    EmptyOrbit,
    LinearizedConstraint,
    NotLinear,
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
from gcsolve.frame import Frame, FrameError, VarietyMatrix, build_frame
from gcsolve.genbench import GenConfig, SplitMix64, derive_seed, gen_instance
from gcsolve.instfile import parse_instance, render_instance
from gcsolve.perm import Permutation
from gcsolve.reduction import ClauseSet, reduce_1in_k
from util import (
    constraint_k,
    eight_point_gens,
    group_closure,
    reference_vo,
    relabelled_frames,
    satisfies_pointwise,
    schoolbook_rank,
    schoolbook_solve,
    schoolbook_variety_matrix,
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
    assert inst.constrained_points() == ()
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
    assert vo == tuple(itertools.product(range(2), repeat=3))


def test_compute_vo_pinned_point_constraint():
    fr, inst = eight_point_frame_and_instance({3})
    assert compute_vo(fr, inst, 0) == ((1, 0, 0),)


def test_compute_vo_mutual_swap():
    g = Permutation.from_cycles(2, [(1, 2)])
    inst = normalize([(1, {2}), (2, {1})], 2, [g], 2)
    fr = build_frame(2, [g], 2)
    assert compute_vo(fr, inst, 0) == ((1,),)


def test_compute_vo_empty_when_unsatisfiable_on_orbit():
    g = Permutation.from_cycles(2, [(1, 2)])
    inst = normalize([(1, {2}), (2, {2})], 2, [g], 2)
    fr = build_frame(2, [g], 2)
    assert compute_vo(fr, inst, 0) == ()


def test_compute_vo_matches_definition_exhaustively():
    """Oracle: intersection over all points of the shifted constraint sets,
    computed directly from the constituent elements."""
    gens = list(eight_point_gens())
    fr = build_frame(8, gens, 2)
    elements = group_closure(gens, 8)
    raw = [(1, {3, 4}), (2, {1, 6}), (5, {7, 8, 1})]
    inst = normalize(raw, 8, gens, 2)
    expected = {
        fr.coords_of_perm(u)
        for u in elements
        if all(u.image(a) in inst.cmap[a] for a in range(1, 9))
    }
    assert set(compute_vo(fr, inst, 0)) == expected


@settings(max_examples=200, deadline=None)
@given(relabelled_frames())
def test_compute_vo_matches_tuple_arithmetic(case):
    """V_O against the definition by digit arithmetic, on every orbit, at p
    in {2, 3, 5}."""
    fr, inst, _ = case
    assert compute_all_vo(fr, inst) == [
        reference_vo(fr, inst, i) for i in range(len(fr.orbit_frames))
    ]


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


def test_no_solve_or_verify_path_restricts_a_generator(monkeypatch):
    """The kept generators are restricted to their orbits (OrbitFrame.basis
    and Frame.basis) only when a basis is read, and no decision reads one:
    not a linear, a product or an enumerate decision, nor its verify."""
    restricted = []
    restrict = frame._restrict
    monkeypatch.setattr(frame, "_restrict",
                        lambda g, block: restricted.append(g) or restrict(g, block))
    g1, g2, g3 = gens = eight_point_gens()
    linear = normalize([(1, {3})], 8, gens, 2)
    nonlinear = normalize([(1, {2, 3, 4})], 8, gens, 2)
    for inst, fallback, method in [(linear, "product", "linear"),
                                   (nonlinear, "product", "product"),
                                   (nonlinear, "enumerate", "enumerate")]:
        out = solve(inst, fallback=fallback)
        assert out.method == method
        assert verify(inst, out.witness)
    assert restricted == []
    fr = build_frame(8, gens, 2)
    assert fr.basis == (g3, g2, g1)
    assert restricted == [g3, g2, g1]


def test_linearize_singletons_and_pairs_always_linear():
    fr, inst = eight_point_frame_and_instance({3})
    vos = compute_all_vo(fr, inst)
    lin = linearize(fr, vos)
    assert isinstance(lin, LinearizedConstraint)
    assert lin.w == (1, 0, 0)
    assert lin.e_basis == ()


def test_linearize_rejects_non_power_size():
    fr, _ = eight_point_frame_and_instance()
    lin = linearize(fr, [((0, 0, 0), (1, 0, 0), (0, 1, 0))])
    assert isinstance(lin, NotLinear)
    assert lin.vo_size == 3 and lin.span_dim is None


def test_linearize_power_size_but_not_affine():
    # {000, 100, 010, 110} is affine; {000, 100, 010, 001} is not
    fr, _ = eight_point_frame_and_instance()
    good = linearize(fr, [((0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 0))])
    assert isinstance(good, LinearizedConstraint)
    assert len(good.e_basis) == 2
    bad = linearize(fr, [((0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0))])
    assert isinstance(bad, NotLinear)
    assert bad.vo_size == 4 and bad.span_dim == 3


def test_linearize_empty_vo_reports_unsat_marker():
    fr, _ = eight_point_frame_and_instance()
    out = linearize(fr, [()])
    assert isinstance(out, EmptyOrbit)
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
        assert isinstance(linearize(fr, vos), LinearizedConstraint)


def test_linearized_constraint_per_orbit_invariants():
    """When linear: |V_O| = p^dim<E_O> per orbit, and every admissible
    vector recomposes to a permutation satisfying the orbit's constraints."""
    from gcsolve.genbench import GenConfig, gen_instance

    for seed in range(10):
        inst = gen_instance(GenConfig(p=2, seed=seed + 300, k=2, q_range=(1, 3),
                                      dim_range=(1, 4))).instance
        fr = build_frame(inst.n, inst.gens, 2)
        vos = compute_all_vo(fr, inst)
        lin = linearize(fr, vos)
        if not isinstance(lin, LinearizedConstraint):
            continue
        for i, of in enumerate(fr.orbit_frames):
            lo, hi = fr.slices[i]
            e_o = [e for e in lin.e_basis if any(e[lo:hi])]
            assert len(vos[i]) == 2 ** len(e_o)
            assert lin.w[lo:hi] in vos[i]
            for v in vos[i]:
                padded = (0,) * lo + v + (0,) * (fr.dim - hi)
                u = fr.perm_of_coords(padded)
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
    direct = solve_linear(fr, group_variety(fr), lin)
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
    assert linearize(fr, compute_all_vo(fr, inst)) == EmptyOrbit(1, 5)
    for fallback in ("product", "enumerate", "none"):
        out = solve(inst, fallback=fallback)
        assert (out.status, out.reason, out.orbit_min) == ("unsat", "empty-vo", 5)


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


def test_group_variety_built_only_to_test_membership(monkeypatch):
    """empty-vo, fallback none and fallback enumerate never test membership
    through M_G; the linear solver and the product fallback build it once."""
    vm_calls = []
    real = constraint.group_variety

    def counted(fr):
        vm_calls.append(fr)
        return real(fr)

    monkeypatch.setattr(constraint, "group_variety", counted)
    linear = normalize([(1, {3})], 8, list(eight_point_gens()), 2)
    assert solve(linear).status == "sat"
    nonlinear = reduce_1in_k(ClauseSet(("a", "b", "c"), (("a", "b", "c"),)), 2).instance
    assert solve(nonlinear, fallback="product").status == "sat"
    assert len(vm_calls) == 2

    def refuse(fr):
        raise AssertionError("group_variety called")

    monkeypatch.setattr(constraint, "group_variety", refuse)
    empty = normalize([(1, set())], 8, list(eight_point_gens()), 2)
    assert solve(empty).reason == "empty-vo"
    assert solve(nonlinear, fallback="none").status == "notlinear"
    out = solve(nonlinear, fallback="enumerate")
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
        ref = schoolbook_variety_matrix(fr, basis).rows
        rank = schoolbook_rank(ours, p, fr.dim)
        assert rank == fr.dim - dim_g
        assert schoolbook_rank(ref, p, fr.dim) == schoolbook_rank(ours + ref, p, fr.dim) == rank


def test_no_solve_or_verify_path_inverts_a_matrix(monkeypatch):
    """A linear, a product-fallback and an inconsistent decision, and the
    verification of their witnesses, run with fpalg.invert refused."""

    def refuse(m):
        raise AssertionError("fpalg.invert called")

    monkeypatch.setattr(fpalg, "invert", refuse)
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
    """The frame finds the orbits: parsing and solving a linear, a
    product-fallback and an enumerate-fallback decision, and generated
    instances, never call orbit_partition (rendering does)."""
    clause = ClauseSet(("a", "b", "c"), (("a", "b", "c"),))
    linear = render_instance(normalize([(1, {3})], 8, list(eight_point_gens()), 2))
    nonlinear = render_instance(reduce_1in_k(clause, 3).instance)
    texts = _p2_texts()

    def refuse(gens, n=None):
        raise AssertionError("orbit_partition called")

    for module in (perm, constraint, frame):
        monkeypatch.setattr(module, "orbit_partition", refuse)
    for text, fallback, method in ((linear, "product", "linear"),
                                   (nonlinear, "product", "product"),
                                   (nonlinear, "enumerate", "enumerate")):
        out = solve(parse_instance(text), fallback=fallback)
        assert (out.status, out.method) == ("sat", method)
    for text in texts:
        solve(parse_instance(text))


def test_solve_reads_each_generator_once_per_decision(monkeypatch):
    """A linear, a product-fallback and an enumerate-fallback decision read
    each generator's coordinates once, when the frame is built."""
    calls = []
    real = Frame.coords_of_perm

    def counted(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(Frame, "coords_of_perm", counted)
    linear = normalize([(1, {3})], 8, list(eight_point_gens()), 2)
    nonlinear = reduce_1in_k(ClauseSet(("a", "b", "c"), (("a", "b", "c"),)), 3).instance
    for inst, fallback, method in ((linear, "product", "linear"),
                                   (nonlinear, "product", "product"),
                                   (nonlinear, "enumerate", "enumerate")):
        calls.clear()
        out = solve(inst, fallback=fallback)
        assert (out.status, out.method) == ("sat", method)
        assert calls == list(inst.gens)


def test_solve_at_p2_is_the_same_on_the_list_path(monkeypatch):
    """Status, reason and witness are the same when a schoolbook list
    elimination stands in for fpalg's solve, and M_G is built by inverting
    a change of basis and multiplied by list dot products instead of
    giving packed residuals against an echelon form."""
    insts = [parse_instance(text) for text in _p2_texts()]
    insts.append(reduce_1in_k(ClauseSet(("a", "b", "c"), (("a", "b", "c"),)), 2).instance)
    diagonal = Permutation.from_cycles(4, [(1, 2), (3, 4)])
    insts.append(normalize([(1, {2}), (3, {3})], 4, [diagonal], 2))
    packed = [solve(inst) for inst in insts]
    assert {(out.status, out.reason) for out in packed} >= {
        ("sat", None), ("unsat", "empty-vo"), ("unsat", "inconsistent")}

    monkeypatch.setattr(fpalg, "solve", schoolbook_solve)
    monkeypatch.setattr(constraint, "group_variety",
                        lambda fr: schoolbook_variety_matrix(fr, fr.subspace_basis(fr.gen_coords)[0]))
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
    m_g = group_variety(fr)
    vos = compute_all_vo(fr, inst)
    out = solve_product(fr, vos, m_g)
    assert out.status == "sat" and out.witness == eight_point_gens()[2]
    assert solve_product(fr, [()], m_g).status == "unsat"
    with pytest.raises(CapExceededError):
        solve_product(fr, [tuple(itertools.product(range(2), repeat=3))], m_g, cap=4)


def test_solve_product_no_combination_in_group():
    g = Permutation.from_cycles(4, [(1, 2), (3, 4)])
    fr = build_frame(4, [g], 2)
    inst = normalize([(1, {2}), (3, {3})], 4, [g], 2)
    m_g = group_variety(fr)
    vos = compute_all_vo(fr, inst)
    assert all(len(v) == 1 for v in vos)
    out = solve_product(fr, vos, m_g)
    assert out.status == "unsat" and out.reason == "exhausted"
    assert solve_enumerate(fr, inst).status == "unsat"


def product_reference(fr, vos, m_g):
    """Brute-force product fallback: the first combination in
    itertools.product order whose M_G product is 0, as (status, reason,
    witness)."""
    for combo in itertools.product(*vos):
        x = tuple(c for part in combo for c in part)
        if m_g.contains(x):
            return "sat", None, fr.perm_of_coords(x)
    return "unsat", "exhausted", None


def assert_product_matches_reference(fr, vos, m_g):
    out = solve_product(fr, vos, m_g)
    assert (out.status, out.reason, out.witness) == product_reference(fr, vos, m_g)
    return out


def test_solve_product_matches_brute_force_with_witnesses():
    """Same status, reason and witness as the brute-force loop on random
    instances at p in {2, 3, 5} x k in {1, 2, 3} and on reduced 1-in-3
    clause sets at p in {2, 3}."""
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
    nonlinear = sat = 0
    for inst in instances:
        fr = build_frame(inst.n, inst.gens, inst.p)
        vos = compute_all_vo(fr, inst)
        nonlinear += isinstance(linearize(fr, vos), NotLinear)
        out = assert_product_matches_reference(fr, vos, group_variety(fr))
        if out.status == "sat":
            sat += 1
            assert verify(inst, out.witness, fr)
    assert 3 * nonlinear >= len(instances)
    assert 0 < sat < len(instances)


def test_solve_product_empty_vo_in_any_position_is_exhausted():
    gens = [Permutation.from_cycles(6, [(1, 2)]), Permutation.from_cycles(6, [(3, 4), (5, 6)])]
    fr = build_frame(6, gens, 2)
    m_g = group_variety(fr)
    assert len(fr.orbit_frames) == 3
    full = ((0,), (1,))
    for i in range(3):
        vos = [full] * 3
        vos[i] = ()
        out = solve_product(fr, vos, m_g)
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
        out = assert_product_matches_reference(fr, [a, ((),), b, c], m_g)
        outcomes.add(out.status)
    assert outcomes == {"sat", "unsat"}


def test_solve_product_whole_superspace_takes_first_combination():
    gens = [Permutation.from_cycles(7, [(1, 2, 3)]), Permutation.from_cycles(7, [(4, 5, 6)])]
    fr = build_frame(7, gens, 3)
    m_g = group_variety(fr)
    assert not any(any(row) for row in m_g.m.rows)
    out = solve_product(fr, [((2,), (1,)), ((1,),), ((),)], m_g)
    assert out.status == "sat" and out.witness == fr.perm_of_coords((2, 1))


def test_solve_product_single_orbit_takes_first_vector():
    g = Permutation.from_cycles(9, [(1, 2, 3), (4, 5, 6), (7, 8, 9)])
    h = Permutation.from_cycles(9, [(1, 4, 7), (2, 5, 8), (3, 6, 9)])
    fr = build_frame(9, [g, h], 3)
    m_g = group_variety(fr)
    plane = tuple(itertools.product(range(3), repeat=2))
    for r in range(len(plane) + 1):
        vo = plane[::-1][:r]
        out = assert_product_matches_reference(fr, [vo], m_g)
        assert out.witness == (fr.perm_of_coords(vo[0]) if vo else None)


def test_solve_product_cap_refused_before_any_syndrome():
    class Untouchable:
        def __getattr__(self, name):
            raise AssertionError(f"m_g.{name} read before the cap check")

    fr, inst = eight_point_frame_and_instance(range(1, 9))
    vos = compute_all_vo(fr, inst)
    with pytest.raises(CapExceededError):
        solve_product(fr, vos, Untouchable(), cap=len(vos[0]) - 1)


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
    clause = ClauseSet(("a", "b", "c"), (("a", "b", "c"), ("a", "b", "c")))
    inst = reduce_1in_k(clause, 2).instance
    out = solve(inst, fallback="product", cap=2)
    assert out.status == "notlinear"
    assert "refused" in out.reason


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
        vos = [set(v) for v in compute_all_vo(fr, inst)]
        for x in itertools.product(range(p), repeat=fr.dim):
            u = fr.perm_of_coords(x)
            slices = [x[lo:hi] for lo, hi in fr.slices]
            lhs = satisfies_pointwise(inst, u)
            rhs = all(s in vo for s, vo in zip(slices, vos))
            assert lhs == rhs


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
    orbit = frozenset(instances[0].orbits.block_of(1))
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
