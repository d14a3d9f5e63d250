import hashlib
import time
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gcsolve
from gcsolve.constraint import MAX_N, GcInstance, solve, verify
from gcsolve.frame import build_frame
from gcsolve.genbench import (
    GenConfig,
    SplitMix64,
    _draw_dims,
    bench_run,
    derive_seed,
    dim_g_sweep,
    gen_instance,
    n_sweep,
    rows_to_csv,
)
from gcsolve.frame import translation_perms
from gcsolve.instfile import render_instance, render_witness
from gcsolve.perm import is_elementary_abelian, orbit_partition
from gcsolve.reduction import ClauseSet, reduce_1in_k, reduce_2cstr
from util import (
    ScalarSplitMix64,
    assert_same_instance,
    reference_gen_instance,
    schoolbook_translation_perm,
)


def test_splitmix64_reference_vectors():
    # first outputs for seed 0 of the standard splitmix64 stream
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


def test_splitmix64_bounded_draws():
    rng = SplitMix64(1)
    draws = [rng.below(10) for _ in range(200)]
    assert all(0 <= d < 10 for d in draws)
    assert len(set(draws)) == 10
    rng = SplitMix64(2)
    assert all(3 <= rng.randint(3, 5) <= 5 for _ in range(50))
    with pytest.raises(ValueError):
        rng.below(0)


def test_splitmix64_sample_distinct():
    rng = SplitMix64(3)
    seq = tuple(range(100, 120))
    for k in (0, 1, 5, 19, 20, 25):
        got = rng.sample(seq, k)
        assert len(got) == min(k, len(seq))
        assert len(set(got)) == len(got)
        assert set(got) <= set(seq)


def test_derive_seed_is_stable_and_sensitive():
    a = derive_seed(42, 1, 2)
    assert a == derive_seed(42, 1, 2)
    assert a != derive_seed(42, 2, 1)
    assert a != derive_seed(43, 1, 2)


def test_gen_config_validation():
    with pytest.raises(ValueError, match="not prime"):
        GenConfig(p=4, seed=0)
    with pytest.raises(ValueError, match="dims"):
        GenConfig(p=2, seed=0, dims=(0, 2))
    with pytest.raises(ValueError, match=r"dims must lie in 1\.\.13"):
        GenConfig(p=2, seed=0, dims=(14,))
    with pytest.raises(ValueError, match=r"dim_range must lie in 1\.\.13"):
        GenConfig(p=2, seed=0, dim_range=(1, 14))
    GenConfig(p=2, seed=0, dims=(13,), dim_range=(13, 13))
    with pytest.raises(ValueError, match="dim_g"):
        GenConfig(p=2, seed=0, dims=(2, 2), dim_g=5)
    with pytest.raises(ValueError, match="sat_bias"):
        GenConfig(p=2, seed=0, sat_bias=1.5)
    with pytest.raises(ValueError, match="n_target"):
        GenConfig(p=2, seed=0, n_target=7)
    with pytest.raises(ValueError, match="dims give n = 65610, above the limit 65536"):
        GenConfig(p=3, seed=0, dims=(10, 8))
    with pytest.raises(ValueError, match=r"n_target must be a multiple of p in p\.\.65536"):
        GenConfig(p=2, seed=0, n_target=65538)
    # drawn orbits have multiples of p^dim_range[0] points, so no draw of
    # dimensions 2..3 ends at 6 points
    with pytest.raises(ValueError, match=r"^n_target must be a multiple of p\^2, "
                                         r"the smallest orbit that dim_range allows$"):
        GenConfig(p=2, seed=1, n_target=6, dim_range=(2, 3))
    with pytest.raises(ValueError, match=r"^n_target must be a multiple of p in p\.\.65536$"):
        GenConfig(p=2, seed=1, n_target=7, dim_range=(2, 3))
    # fixed dims are not held to dim_range
    GenConfig(p=2, seed=1, dims=(1, 2), n_target=6, dim_range=(2, 3))
    with pytest.raises(ValueError, match="q_range and dim_range give n above the limit"):
        GenConfig(p=3, seed=0, q_range=(2, 3), dim_range=(10, 10))


def test_drawn_dims_stay_within_the_limit():
    # at p = 3 the default ranges reach 6 * 3^10 points; such draws are redrawn
    cfg = GenConfig(p=3, seed=0)
    sizes = [sum(3**d for d in _draw_dims(cfg, SplitMix64(seed))) for seed in range(300)]
    assert max(sizes) <= MAX_N


def test_drawn_dims_that_cannot_reach_dim_g_are_refused_at_once():
    """n_target draws dims without looking at dim_g; a dim_g below their
    largest, or above their sum, is refused before any generator is drawn."""
    cfg = GenConfig(p=2, seed=0, n_target=64, dim_g=2, dim_range=(3, 6))
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match=r"drawn dims \(.*\) cannot reach dim_g=2: "
                                         r"it must lie between max\(dims\) and sum\(dims\)"):
        gen_instance(cfg)
    assert time.perf_counter() - t0 < 0.1
    # 4 points at p = 2 are one orbit of dimension 2 or two of dimension 1
    with pytest.raises(ValueError, match="cannot reach dim_g=3"):
        gen_instance(GenConfig(p=2, seed=0, n_target=4, dim_g=3))


def test_every_accepted_n_target_draw_fills_it():
    """A config accepts exactly the n_target that are multiples of
    p^dim_range[0], and each is drawn to exactly, with every dimension
    inside dim_range, at each p, dim_range and n_target tried."""
    accepted = 0
    for p in (2, 3, 5):
        for lo in range(1, 4):
            for hi in range(lo, 5):
                for n_target in range(p, min(3 * p**hi, MAX_N) + 1, p):
                    args = dict(p=p, seed=n_target, n_target=n_target, dim_range=(lo, hi))
                    if n_target % p**lo:
                        with pytest.raises(ValueError, match="smallest orbit"):
                            GenConfig(**args)
                        continue
                    cfg = GenConfig(**args)
                    accepted += 1
                    dims = _draw_dims(cfg, SplitMix64(derive_seed(p, lo, hi, n_target)))
                    assert sum(p**d for d in dims) == n_target
                    assert all(lo <= d <= hi for d in dims)
    assert accepted > 100


def test_gen_smallest_config():
    for seed in range(6):
        res = gen_instance(GenConfig(p=2, seed=seed, k=2, dims=(1,)))
        assert res.instance.n == 2
        assert res.dim_g == 1
        assert solve(res.instance).status in ("sat", "unsat")


def test_gen_deterministic_byte_for_byte():
    cfg = GenConfig(p=2, seed=20240, k=2, q_range=(1, 4), dim_range=(1, 5))
    a, b = gen_instance(cfg), gen_instance(cfg)
    assert render_instance(a.instance) == render_instance(b.instance)
    assert a.witness == b.witness
    assert a.dims == b.dims and a.dim_g == b.dim_g


def test_gen_respects_layout_and_dimension_target():
    for seed in range(12):
        cfg = GenConfig(p=2, seed=seed, k=2, dims=(3, 2, 1), dim_g=4)
        res = gen_instance(cfg)
        inst = res.instance
        assert res.dims == (3, 2, 1)
        assert inst.n == 8 + 4 + 2
        assert [len(b) for b in orbit_partition(inst.gens, inst.n)] == [8, 4, 2]
        ok, _ = is_elementary_abelian(inst.gens, 2)
        assert ok
        fr = build_frame(inst.n, inst.gens, 2)
        _, dim_g = fr.subspace_basis(fr.gen_coords)
        assert dim_g == 4 == res.dim_g


def test_gen_dim_bounds_without_target():
    for seed in range(20):
        cfg = GenConfig(p=3, seed=seed, k=2, q_range=(1, 3), dim_range=(1, 3))
        res = gen_instance(cfg)
        assert max(res.dims) <= res.dim_g <= sum(res.dims)
        fr = build_frame(res.instance.n, res.instance.gens, 3)
        _, dim_g = fr.subspace_basis(fr.gen_coords)
        assert dim_g == res.dim_g


def test_gen_constraint_sizes_and_planting():
    planted = unplanted = 0
    for seed in range(30):
        cfg = GenConfig(p=2, seed=seed, k=2, q_range=(1, 3), dim_range=(1, 4))
        res = gen_instance(cfg)
        inst = res.instance
        for a in range(1, inst.n + 1):
            assert len(inst.cmap[a]) == min(2, len(inst.orbit_of[a]))
        if res.witness is not None:
            planted += 1
            assert verify(inst, res.witness)
            assert solve(inst).status == "sat"
        else:
            unplanted += 1
    assert planted and unplanted


def test_gen_n_target_mode():
    for seed in range(8):
        cfg = GenConfig(p=2, seed=seed, k=2, n_target=32, dim_range=(1, 4))
        res = gen_instance(cfg)
        assert res.instance.n == 32
        assert sum(2**d for d in res.dims) == 32


# bounds for below: small ones, any up to 2^64, and ones that below rejects
# often (2^63 + 1 and 3 * 2^62, about one output in two and in four) or
# seldom (2^64 // 1000 + 1, about one in a thousand, so a bulk draw meets
# its first rejection after some batches are taken whole)
_BOUNDS = st.one_of(
    st.integers(1, 7),
    st.integers(1, 2**64),
    st.sampled_from((2**63 + 1, 3 << 62, 2**64 // 1000 + 1, 2**64)),
)
_REPEATS = st.integers(1, 300)
_CALLS = st.lists(st.one_of(
    st.tuples(st.just("next_u64"), st.just(()), _REPEATS),
    st.tuples(st.just("below"), st.tuples(_BOUNDS), _REPEATS),
    st.builds(lambda lo, span, r: ("randint", (lo, lo + span), r),
              st.integers(-3, 3), st.integers(0, 2**64 - 1), _REPEATS),
    st.tuples(st.just("uniform01"), st.just(()), _REPEATS),
    st.builds(lambda s, k, r: ("sample", (tuple(range(s)), k), r),
              st.integers(1, 40), st.integers(0, 45), st.integers(1, 20)),
    st.tuples(st.just("below_many"), st.tuples(_BOUNDS, st.integers(0, 5000)), st.just(1)),
), max_size=10)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), calls=_CALLS)
def test_splitmix64_matches_the_one_output_per_draw_reference(seed, calls):
    """Interleaved calls on the batched generator and on the reference give
    the same values in the same order, across batch boundaries."""
    rng, ref = SplitMix64(seed), ScalarSplitMix64(seed)
    for name, args, repeat in calls:
        for _ in range(repeat):
            if name == "below_many":
                n, count = args
                assert rng.below_many(n, count) == [ref.below(n) for _ in range(count)]
            else:
                assert getattr(rng, name)(*args) == getattr(ref, name)(*args)
    assert rng.next_u64() == ref.next_u64()


def test_below_many_draws_one_at_a_time_from_a_rejection_on():
    """A bulk draw that meets a rejection only in its second batch takes
    the first whole and the rest one at a time, as below would."""
    n = 2**64 // 1000 + 1
    limit = 2**64 - 2**64 % n
    ref = ScalarSplitMix64(5)
    stream = [ref.next_u64() for _ in range(10_000)]
    # 16 + 32 + ... + 2048 = 4080 outputs computed for 4000 single draws:
    # the bulk draw takes the last 80 of them whole, then a batch of 4096
    assert all(u < limit for u in stream[4000:4080])
    assert any(u >= limit for u in stream[4080:8000])
    rng, ref = SplitMix64(5), ScalarSplitMix64(5)
    assert [rng.next_u64() for _ in range(4000)] == [ref.next_u64() for _ in range(4000)]
    assert rng.below_many(n, 3000) == [ref.below(n) for _ in range(3000)]
    assert rng.below_many(n, 0) == []
    assert rng.next_u64() == ref.next_u64()
    with pytest.raises(ValueError):
        rng.below_many(0, 3)


@pytest.mark.parametrize("draw", [
    lambda rng: rng.below(2**64 + 1),
    lambda rng: rng.below_many(2**64 + 1, 1),
    lambda rng: rng.randint(0, 2**64),
])
def test_a_bound_above_2_64_is_refused(draw):
    """No 64-bit output lies below such a bound's limit, so drawing would
    never end."""
    with pytest.raises(ValueError, match="bound in 1..2"):
        draw(SplitMix64(0))


@st.composite
def translation_cases(draw):
    """(p, dims, vectors) at p in {2, 3, 5}: up to four blocks of dimension
    1-3 (1-2 at p = 5), and vectors drawn at random, as zero vectors, or
    as copies of earlier ones, so that blocks repeat within a vector and
    across the list and hit the table."""
    p = draw(st.sampled_from((2, 3, 5)))
    dims = tuple(draw(st.lists(st.integers(1, 2 if p == 5 else 3), min_size=1, max_size=4)))
    d = sum(dims)
    vectors = []
    for kind in draw(st.lists(st.sampled_from(("random", "zero", "repeat")), max_size=8)):
        if kind == "zero":
            vectors.append([0] * d)
        elif kind == "repeat" and vectors:
            vectors.append(list(draw(st.sampled_from(vectors))))
        else:
            vectors.append(draw(st.lists(st.integers(0, p - 1), min_size=d, max_size=d)))
    return p, dims, vectors


@settings(max_examples=150, deadline=None)
@given(translation_cases())
def test_translation_perms_match_the_block_by_block_reference(case):
    p, dims, vectors = case
    expected = [schoolbook_translation_perm(p, dims, v) for v in vectors]
    assert translation_perms(p, dims, vectors) == expected
    assert [translation_perms(p, dims, [v])[0] for v in vectors] == expected


def _boundary_cases():
    """n = MAX_N at p = 2: eight 13-dimensional blocks, whose last point,
    65536, is one past a 16-bit field; vectors drawn at random, all ones,
    zero, and one whose blocks all share their digits.  At p = 3 and 5,
    blocks of the same dimension that share digits at different offsets."""
    rng = SplitMix64(derive_seed(2, 13))
    dims = (13,) * 8
    block = rng.below_many(2, 13)
    yield 2, dims, [rng.below_many(2, 104), rng.below_many(2, 104), [1] * 104, [0] * 104,
                    block * 8]
    yield 3, (2, 1, 2, 2, 1), [[1, 2, 0, 1, 2, 1, 2, 0], [0, 0, 1, 0, 0, 0, 0, 1],
                               [2, 1, 1, 2, 1, 2, 1, 1]]
    yield 5, (1, 2, 1, 2), [[4, 3, 1, 4, 3, 1], [4, 3, 1, 4, 3, 1], [0, 0, 0, 0, 0, 0]]


@pytest.mark.parametrize("p, dims, vectors", list(_boundary_cases()))
def test_translation_perms_at_the_boundaries(p, dims, vectors):
    expected = [schoolbook_translation_perm(p, dims, v) for v in vectors]
    got = translation_perms(p, dims, vectors)
    assert got == expected
    assert got[0].n == sum(p**d for d in dims)


def _pinned_configs():
    """Each mode of gen_instance (fixed dims, a dim_g target, an n_target)
    at p = 2, 3 and 5, never and always planted, over two seeds."""
    for p in (2, 3, 5):
        modes = (
            dict(dims=(2, 1)),
            dict(dim_g=2, q_range=(1, 3), dim_range=(1, 2)),
            dict(n_target=4 * p, dim_range=(1, 2)),
        )
        for m, mode in enumerate(modes):
            for sat_bias in (0.0, 1.0):
                for seed in range(2):
                    yield GenConfig(p=p, seed=derive_seed(p, m, int(sat_bias), seed),
                                    k=1 + (m + seed) % 3, sat_bias=sat_bias, **mode)


def test_gen_output_is_pinned():
    h = hashlib.sha256()
    for cfg in _pinned_configs():
        res = gen_instance(cfg)
        h.update(render_instance(res.instance).encode())
        h.update(render_witness(res.witness).encode() if res.witness else b"-\n")
        h.update(f"{res.dims} {res.dim_g}\n".encode())
    assert h.hexdigest() == "218ba8b1911afc3e0cf7951ca7de75d114a556c5d60f524c9c7b4d510abe043c"


def test_gen_instance_matches_the_normalize_reference():
    """Built in one pass, every pinned and text config gives the instance,
    witness and dimensions that drawing Python sets through normalize
    gave."""
    for cfg in (*_pinned_configs(), *_text_configs()):
        res, ref = gen_instance(cfg), reference_gen_instance(cfg)
        assert_same_instance(res.instance, ref.instance)
        assert (res.witness, res.dims, res.dim_g) == (ref.witness, ref.dims, ref.dim_g)


def _text_configs():
    """gen_instance configs over p = 2, 3 and 5 and k = 1, 2 and 3, never
    and always planted: many small orbits (dims 1-3), drawn dims with and
    without a dim_g target, and an n_target; deep orbits (dims 8-10) at
    p = 2; and configs whose first draws fail the total rank test
    (dims (1,) * 6, dim_g 6) or a block rank test (dims (2, 2, 2),
    dim_g 2, and the same at p = 3)."""
    for p in (2, 3, 5):
        modes = (
            dict(dims=(3, 1, 2, 1, 3, 2)),
            dict(q_range=(1, 4), dim_range=(1, 3)),
            dict(dim_g=3, q_range=(1, 4), dim_range=(1, 3)),
            dict(n_target=p**3 + 2 * p, dim_range=(1, 3)),
        )
        for k in (1, 2, 3):
            for m, mode in enumerate(modes):
                for sat_bias in (0.0, 1.0):
                    yield GenConfig(p=p, seed=derive_seed(p, k, m, int(sat_bias)), k=k,
                                    sat_bias=sat_bias, **mode)
    for i, dims in enumerate(((10,), (9, 8), (8, 9, 8))):
        for sat_bias in (0.0, 1.0):
            yield GenConfig(p=2, seed=derive_seed(2, 8, i, int(sat_bias)), k=1 + i,
                            sat_bias=sat_bias, dims=dims)
    for p, mode in ((2, dict(dims=(1,) * 6, dim_g=6)), (2, dict(dims=(2, 2, 2), dim_g=2)),
                    (3, dict(dims=(2, 2, 2), dim_g=2))):
        for seed in range(4):
            yield GenConfig(p=p, seed=derive_seed(p, 9, seed), k=2, sat_bias=seed % 2, **mode)


def _clause_sets(p):
    """Seeded clause sets over six variables: clauses of size 2 and 3, and
    of size p for reduce_2cstr."""
    rng = SplitMix64(derive_seed(p, 10))
    sigma = tuple(f"x{i}" for i in range(1, 7))
    for size in sorted({2, 3, p}):
        count = rng.randint(1, 4)
        yield ClauseSet(sigma, tuple(tuple(rng.sample(sigma, size)) for _ in range(count)))


def test_generated_texts_are_pinned():
    """The rendered instance and witness of every config above, and the
    reductions of seeded clause sets with the image of one assignment:
    a change to how instances are built that moves any draw, generator,
    witness or constraint shows here."""
    h = hashlib.sha256()
    for cfg in _text_configs():
        res = gen_instance(cfg)
        h.update(render_instance(res.instance).encode())
        h.update(render_witness(res.witness).encode() if res.witness else b"-\n")
        h.update(f"{res.dims} {res.dim_g}\n".encode())
    for p in (2, 3, 5):
        rng = SplitMix64(derive_seed(p, 11))
        for s in _clause_sets(p):
            reductions = [reduce_1in_k(s, p)]
            if s.k == p:
                reductions.append(reduce_2cstr(s, p))
            for red in reductions:
                u = {v: rng.below(p) for v in s.sigma}
                h.update(render_instance(red.instance).encode())
                h.update(render_witness(red.morphism(u)).encode())
    assert h.hexdigest() == "8cbdf3f49477b353fdcb5c0fafb545e332ad74f13029b049e892b18b67155972"


def _built_instances():
    """(instance, whether its builder handed it its orbits) for every
    pinned and text config, and for reductions at p = 2, 3 and 5 of
    seeded clause sets of sizes 1-4 and p, strict and strict=False, and
    of one empty clause, whose reduce_2cstr block is p one-point orbits."""
    for cfg in (*_pinned_configs(), *_text_configs()):
        yield gen_instance(cfg).instance, True
    sigma = tuple(f"x{i}" for i in range(1, 7))
    for p in (2, 3, 5):
        rng = SplitMix64(derive_seed(p, 12))
        for size in sorted({1, 2, 3, 4, p}):
            count = rng.randint(1, 4)
            s = ClauseSet(sigma, tuple(tuple(rng.sample(sigma, size)) for _ in range(count)))
            yield reduce_1in_k(s, p).instance, True
            yield reduce_2cstr(s, p, strict=False).instance, True
            if size == p:
                yield reduce_2cstr(s, p).instance, True
        empty = ClauseSet(("a", "b"), ((),))
        yield reduce_1in_k(empty, p).instance, True
        yield reduce_2cstr(empty, p, strict=False).instance, True


def test_built_instances_carry_the_orbits_a_search_finds():
    """Each orbit map a builder hands over equals the one orbit_partition
    gives, one frozenset per orbit; rendering reads it to the same bytes
    as the same instance built plainly, which searches; and an instance
    made by dataclasses.replace searches for its own orbits."""
    handed = 0
    for inst, carried in _built_instances():
        assert ("orbit_of" in vars(inst)) == carried
        # the map's distinct sets are the orbits, each shared by its points
        orbits = {id(orbit): orbit for orbit in inst.orbit_of.values()}.values()
        assert sorted(tuple(sorted(orbit)) for orbit in orbits) == list(
            orbit_partition(inst.gens, inst.n))
        assert len(inst.orbit_of) == inst.n
        assert all(a in orbit for a, orbit in inst.orbit_of.items())
        plain = GcInstance(inst.p, inst.n, inst.gens, inst.constraints)
        assert render_instance(inst) == render_instance(plain)
        assert "orbit_of" not in vars(replace(inst))
        assert replace(inst, gens=()).orbit_of == {a: frozenset({a}) for a in range(1, inst.n + 1)}
        handed += carried
    assert handed == 161  # 126 generated, 35 reduced


def _outcome_configs():
    """108 configs at p = 2, 3 and 5 and k = 1, 2 and 3: unit orbits under
    a one-dimensional group, unit orbits with dim G drawn, and orbits of
    dimension 1-2 under a two-dimensional group, never and always
    planted.  Some are not linear and take the product fallback."""
    modes = (
        dict(dim_g=1, q_range=(2, 4), dim_range=(1, 1)),
        dict(q_range=(2, 4), dim_range=(1, 1)),
        dict(dim_g=2, q_range=(2, 3), dim_range=(1, 2)),
    )
    for p in (2, 3, 5):
        for k in (1, 2, 3):
            for m, mode in enumerate(modes):
                for seed in range(4):
                    yield GenConfig(p=p, seed=derive_seed(p, k, m, seed), k=k,
                                    sat_bias=seed % 2, **mode)


def test_solve_outcomes_are_pinned():
    """Status, reason, method, orbit and witness of every decision: a
    change to the solver that moves any of them shows here."""
    h = hashlib.sha256()
    kinds = set()
    for cfg in _outcome_configs():
        out = solve(gen_instance(cfg).instance)
        kinds.add(out.reason or out.method)
        images = out.witness.images if out.witness else None
        h.update(repr((out.status, out.reason, out.method, out.orbit_min, images)).encode())
    assert kinds == {"linear", "product", "empty-vo", "inconsistent"}
    assert h.hexdigest() == "526b43e7cd9bbbf893b6cc5cba3445c93c2b16672a0edbe6793de6d46055f84a"


@pytest.mark.parametrize("workload,seed,digest", [
    ("wide-p2", 1, "05310ceb89f56bb5b06d151b829ac723f3dfb90e4d44f839be4bf6757a0ac3bf"),
    ("wide-p2", 101, "d8586105e3a2b87d3cde863396696f053f58dd28d83ae93825338a61d5c66f49"),
    ("deep-p2", 1, "fff8621af0226afb5297af339a7e10149592666d4128ff4e8f62b0e2f0086d94"),
    ("deep-p2", 101, "77cabf003410808382771b121191feb8477426ea24714a4a894a3e371498cc56"),
    ("clauses-p3", 1, "198f81b2ef34de0072597cb8ad7acaf9168ebcb76756fa7f4341a0b7c9f6caa4"),
    ("clauses-p3", 101, "c2ba813a1265681cf2cf1a4e09e73dc7c3f04cc5d93daa39a8c27e7a7119a06b"),
])
def test_benchmark_corpora_are_pinned(monkeypatch, workload, seed, digest):
    """Every generator and witness of the benchmark corpora is built on
    frame.translation_positions, so a change to it that moves any
    position changes a rendered text and the corpus digest."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import workloads

    assert workloads.build_corpus(workload, seed, lib=gcsolve).digest == digest


def test_bench_empty_configs():
    assert rows_to_csv(bench_run([], 3)) == (
        "param,n_mean,n_sd_pct,dimG_mean,dimG_sd_pct,d_mean,d_sd_pct,"
        "t1_mean,t1_sd_pct,t2_mean,t2_sd_pct,samples\n"
    )


def test_bench_rows_sorted_and_capped_cells_dashed():
    configs = dim_g_sweep([6, 3], seed=5, q_range=(1, 2), dim_range=(1, 4))
    rows = bench_run(configs, samples=4, oracle_cap=2**3)
    assert [r.param for r in rows] == [3, 6]
    by_param = {r.param: r for r in rows}
    assert by_param[3].t2_mean_ms is not None
    assert by_param[6].t2_mean_ms is None
    csv = rows_to_csv(rows)
    lines = csv.strip().splitlines()
    assert lines[0].startswith("param,")
    assert lines[2].split(",")[9] == "-"
    assert lines[2].split(",")[10] == "-"


def test_bench_non_timing_columns_deterministic():
    configs = dim_g_sweep([3, 4], seed=11, q_range=(1, 2), dim_range=(1, 3))
    rows_a = bench_run(configs, samples=5, oracle_cap=2**10)
    rows_b = bench_run(configs, samples=5, oracle_cap=2**10)
    strip = lambda r: (r.param, r.n_mean, r.n_sd_pct, r.dimg_mean, r.dimg_sd_pct,
                       r.d_mean, r.d_sd_pct, r.samples)
    assert [strip(r) for r in rows_a] == [strip(r) for r in rows_b]


def test_bench_requires_sweep_parameter():
    with pytest.raises(ValueError, match="sweep parameter"):
        bench_run([GenConfig(p=2, seed=0, dims=(2,))], 2)


def test_n_sweep_cells_have_targets():
    configs = n_sweep([8, 16], seed=1)
    rows = bench_run(configs, samples=2, oracle_cap=2**12)
    assert [r.param for r in rows] == [8, 16]
    assert rows[0].n_mean == 8.0 and rows[0].n_sd_pct == 0.0
