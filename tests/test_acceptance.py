"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with `pytest tests/test_acceptance.py -v -s` to see them)."""

import math
import time
from contextlib import contextmanager

import numpy as np

from gcsolve.constraint import (
    compute_all_vo,
    linearize,
    solve,
    solve_enumerate,
    solve_product,
    verify,
)
from gcsolve.fpalg import RowReducer
from gcsolve.frame import build_frame
from gcsolve.genbench import (
    GenConfig,
    SplitMix64,
    bench_run,
    derive_seed,
    dim_g_sweep,
    gen_instance,
    rows_to_csv,
)
from gcsolve.perm import compose
from gcsolve.reduction import ClauseSet, one_in_k_brute, reduce_1in_k, reduce_2cstr
from util import eight_point_gens

ROOT_SEED = 0x5EED_CAFE


@contextmanager
def criterion(num, description):
    try:
        yield
    except BaseException:
        print(f"[criterion {num}] FAIL {description}")
        raise
    print(f"[criterion {num}] PASS {description}")


def test_criterion_1_worked_example_frame():
    with criterion(1, "8-point frame reproduces the printed basis in under 10 ms"):
        g1, g2, g3 = eight_point_gens()
        best = math.inf
        for _ in range(5):
            t0 = time.perf_counter()
            fr = build_frame(8, [g1, g2, g3], 2)
            best = min(best, time.perf_counter() - t0)
        of = fr.orbit_frames[0]
        assert of.origin == 1
        assert of.basis == (g3, g2, g1)
        assert best < 0.010, f"frame construction took {best * 1000:.2f} ms"


def test_criterion_2_reduction_examples_bit_exact():
    with criterion(2, "both reduction constructions reproduce the worked examples"):
        s = ClauseSet(("a", "b", "c"), (("a", "b", "c"),))
        red = reduce_1in_k(s, 2)
        inst = red.instance
        assert inst.n == 8 and len(inst.gens) == 3
        fg3 = red.morphism({"b": 1, "c": 1})
        assert fg3 == compose(inst.gens[1], inst.gens[2])
        # (g0 g3)(g1 g2)(g4 g7)(g5 g6) under the documented ranking
        assert fg3.images == (4, 3, 2, 1, 8, 7, 6, 5)
        assert inst.cmap[4] == frozenset({8, 2, 3})

        red2 = reduce_2cstr(s, 2, strict=False)
        i2 = red2.instance
        fb = i2.gens[1]
        assert fb.image(red2.point(("var", "b", 0))) == red2.point(("var", "b", 1))
        assert fb.image(red2.point(("clause", 0, 0))) == red2.point(("clause", 0, 1))
        assert fb.images == (1, 2, 4, 3, 5, 6, 8, 7)
        fg3p = red2.morphism({"b": 1, "c": 1})
        c0 = red2.point(("clause", 0, 0))
        assert fg3p.image(c0) == c0
        assert i2.cmap[c0] == frozenset({red2.point(("clause", 0, 1))})


def _criterion3_config(index):
    seed = derive_seed(ROOT_SEED, 3, index)
    rng = SplitMix64(derive_seed(seed, 99))
    q = rng.randint(1, 6)
    dims = tuple(rng.randint(1, 8) for _ in range(q))
    # keep the ground-truth enumeration tractable: the group dimension stays
    # at most 12 (the parameter ranges above are unrestricted)
    dim_g = rng.randint(max(dims), min(sum(dims), 12))
    return GenConfig(p=2, seed=seed, k=2, dims=dims, dim_g=dim_g)


def test_criterion_3_oracle_equivalence_500():
    with criterion(3, "500 random p=k=2 instances: linear solver matches the "
                      "oracle, never bails out, witnesses verify, under 60 s"):
        t0 = time.perf_counter()
        verdicts = {"sat": 0, "unsat": 0}
        for i in range(500):
            res = gen_instance(_criterion3_config(i))
            inst = res.instance
            fr = build_frame(inst.n, inst.gens, inst.p)
            lin = linearize(fr, compute_all_vo(fr, inst))
            status = getattr(lin, "status", "linear")
            assert status != "notlinear", f"instance {i} declared not linear"
            fast = solve(inst, fallback="none")
            assert fast.status in ("sat", "unsat")
            slow = solve_enumerate(fr, inst)
            assert fast.status == slow.status, f"instance {i} verdict mismatch"
            verdicts[fast.status] += 1
            if fast.status == "sat":
                assert verify(inst, fast.witness, fr)
                assert verify(inst, slow.witness, fr)
            if res.witness is not None:
                assert fast.status == "sat"
        elapsed = time.perf_counter() - t0
        assert verdicts["sat"] and verdicts["unsat"]
        assert elapsed < 60.0, f"criterion suite took {elapsed:.1f} s"


def _random_frame(rng, max_d=12, max_orbit_dim=6):
    while True:
        q = rng.randint(1, 4)
        dims = tuple(rng.randint(1, max_orbit_dim) for _ in range(q))
        if sum(dims) <= max_d:
            break
    cfg = GenConfig(p=2, seed=rng.next_u64(), k=2, dims=dims)
    inst = gen_instance(cfg).instance
    return build_frame(inst.n, inst.gens, 2)


def test_criterion_4_variety_matrix_lemma_exhaustive():
    with criterion(4, "coset characterization checked over the full space for "
                      "50 frames x 20 subspaces, zero counterexamples"):
        rng = SplitMix64(derive_seed(ROOT_SEED, 4))
        checked = 0
        for _ in range(50):
            fr = _random_frame(rng)
            d = fr.dim
            space = ((np.arange(2**d)[:, None] >> np.arange(d - 1, -1, -1)) & 1).astype(
                np.int64
            )
            weights = 1 << np.arange(d - 1, -1, -1, dtype=np.int64)
            for _ in range(20):
                target = rng.randint(0, d)
                reducer = RowReducer(2, d)
                basis = []
                for _ in range(target):
                    v = tuple(rng.below(2) for _ in range(d))
                    if reducer.add(v):
                        basis.append(v)
                vm = fr.variety_matrix(basis)
                m = np.array(vm.m.rows, dtype=np.int64).reshape(d, d)
                r = len(basis)
                coeffs = ((np.arange(2**r)[:, None] >> np.arange(r)) & 1).astype(np.int64)
                b = np.array(basis, dtype=np.int64).reshape(r, d)
                members = set((((coeffs @ b) % 2) @ weights).tolist())
                products = (space @ m.T) % 2
                for _ in range(3):
                    v = space[rng.below(len(space))]
                    mv = (m @ v) % 2
                    claim = (products == mv).all(axis=1)
                    truth = np.isin(((space ^ v) @ weights), sorted(members))
                    assert np.array_equal(claim, truth)
                    checked += 1
        assert checked == 50 * 20 * 3


def _random_clause_set(rng, max_vars=8, size=3):
    nvars = rng.randint(size, max_vars)
    sigma = tuple(f"v{i}" for i in range(nvars))
    nclauses = rng.randint(1, 6)
    clauses = tuple(tuple(rng.sample(sigma, size)) for _ in range(nclauses))
    return ClauseSet(sigma, clauses)


def test_criterion_5_reduction_equivalence_100():
    with criterion(5, "100 random clause sets: brute-force 1-in-3 agrees with "
                      "the oracle on every reduced instance (both reductions)"):
        rng = SplitMix64(derive_seed(ROOT_SEED, 5))
        agreements = 0
        for i in range(100):
            s = _random_clause_set(rng)
            expected = one_in_k_brute(s) is not None
            for p in (2, 3):
                red = reduce_1in_k(s, p)
                fr = build_frame(red.instance.n, red.instance.gens, p)
                got = solve_enumerate(fr, red.instance).status == "sat"
                assert got == expected, f"set {i}, one-in-k at p={p}"
            red2 = reduce_2cstr(s, 3)
            fr2 = build_frame(red2.instance.n, red2.instance.gens, 3)
            got2 = solve_enumerate(fr2, red2.instance).status == "sat"
            assert got2 == expected, f"set {i}, two-constraint at p=3"
            agreements += 1
        assert agreements == 100


def test_criterion_6_nonlinear_fraction_and_product_fallback():
    with criterion(6, "reduced 3-clause instances at p=2 hit the honest "
                      "not-linear refusal; the product fallback matches the oracle"):
        rng = SplitMix64(derive_seed(ROOT_SEED, 6))
        notlinear = 0
        total = 40
        for _ in range(total):
            s = _random_clause_set(rng, max_vars=7)
            red = reduce_1in_k(s, 2)
            inst = red.instance
            fr = build_frame(inst.n, inst.gens, 2)
            vos = compute_all_vo(fr, inst)
            status = getattr(linearize(fr, vos), "status", "linear")
            assert status != "unsat"
            if status == "notlinear":
                notlinear += 1
                via_product = solve_product(fr, vos, cap=2**22)
                oracle = solve_enumerate(fr, inst)
                assert via_product.status == oracle.status
                if via_product.status == "sat":
                    assert verify(inst, via_product.witness, fr)
        assert notlinear > 0
        print(f"  not-linear fraction: {notlinear}/{total}")


def _fit_slope(xs, ys):
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum(
        (x - mx) ** 2 for x in xs
    )


def test_criterion_7_scaling_shape():
    with criterion(7, "oracle time doubles per unit of group dimension "
                      "(+-30%), pipeline time polynomial in n (log-log slope "
                      "<= 3), bench under 10 min with '-' for capped cells"):
        t0 = time.perf_counter()
        rows = bench_run(
            dim_g_sweep(range(5, 15), seed=derive_seed(ROOT_SEED, 7)),
            samples=50,
            oracle_cap=2**13,
        )
        elapsed = time.perf_counter() - t0
        assert elapsed < 600.0, f"bench took {elapsed:.0f} s"
        csv = rows_to_csv(rows)
        assert [r.param for r in rows] == list(range(5, 15))
        capped = [r for r in rows if r.t2_mean_ms is None]
        assert [r.param for r in capped] == [14]
        assert ",-,-," in csv.splitlines()[-1]

        oracle_pts = [(r.param, math.log2(r.t2_mean_ms)) for r in rows
                      if r.t2_mean_ms is not None]
        slope2 = _fit_slope([x for x, _ in oracle_pts], [y for _, y in oracle_pts])
        assert 0.7 <= slope2 <= 1.3, f"oracle slope {slope2:.3f}"

        pipe_pts = [(math.log(r.n_mean), math.log(r.t1_mean_ms)) for r in rows]
        slope1 = _fit_slope([x for x, _ in pipe_pts], [y for _, y in pipe_pts])
        assert slope1 <= 3.0, f"pipeline log-log slope {slope1:.3f}"
        print(f"  oracle slope {slope2:.3f}, pipeline slope {slope1:.3f}, "
              f"bench {elapsed:.0f} s")


def _affine_orbit_exhaustive(gens, points):
    """Closure of the restricted generators plus regularity, both checked on
    raw image arrays (independent of the frame's tables)."""
    idx = {a: i for i, a in enumerate(points)}
    s = len(points)
    base = [np.array([idx[g.image(a)] for a in points], dtype=np.int64) for g in gens]
    ident = np.arange(s, dtype=np.int64)
    elements = {ident.tobytes(): ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for u in frontier:
            for garr in base:
                w = garr[u]
                key = w.tobytes()
                if key not in elements:
                    elements[key] = w
                    nxt.append(w)
        frontier = nxt
    assert len(elements) == s, "constituent is not regular"
    rows = np.stack(list(elements.values()))
    # u -> a^u is onto for every a: every column hits every local point
    assert (np.sort(rows, axis=0) == np.arange(s)[:, None]).all()
    keys = set(elements)
    for u in rows:
        comps = rows[:, u]
        for row in comps:
            assert row.tobytes() in keys
    return s


def test_criterion_8_structural_invariants():
    with criterion(8, "dimension bound and per-orbit regularity on every "
                      "generated frame; affine axioms exhaustive on orbits "
                      "up to 256 points"):
        rng = SplitMix64(derive_seed(ROOT_SEED, 8))
        frames = [build_frame(8, list(eight_point_gens()), 2)]
        for i in range(60):
            cfg = _criterion3_config(1000 + i)
            inst = gen_instance(cfg).instance
            frames.append(build_frame(inst.n, inst.gens, inst.p))
        orbits_checked = 0
        for fr in frames:
            if fr.n:
                assert fr.dim <= fr.n // fr.p
            for of in fr.orbit_frames:
                assert fr.p**of.dim == len(of.points)
                if len(of.points) <= 256:
                    size = _affine_orbit_exhaustive(fr.gens, of.points)
                    assert size == len(of.points)
                    orbits_checked += 1
        assert orbits_checked >= 60
        print(f"  frames: {len(frames)}, orbits checked exhaustively: {orbits_checked}")
