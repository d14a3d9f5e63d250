import hashlib
import random

import pytest

from gcsolve.constraint import solve, solve_enumerate, verify
from gcsolve.frame import build_frame
from gcsolve.genbench import SplitMix64, derive_seed
from gcsolve.instfile import render_instance, render_witness
from gcsolve.perm import compose, is_elementary_abelian
from gcsolve.reduction import (
    ClauseFormatError,
    ClauseSet,
    one_in_k_brute,
    parse_clauses,
    reduce_1in_k,
    reduce_2cstr,
)
from util import (
    assert_same_instance,
    constraint_k,
    reference_one_in_k_brute,
    reference_reduce_1in_k,
    reference_reduce_2cstr,
)


def running_example():
    return ClauseSet(("a", "b", "c"), (("a", "b", "c"),))


def test_clause_set_canonicalizes_and_validates():
    s = ClauseSet(("a", "b", "c"), (("c", "a", "b"),))
    assert s.clauses == (("a", "b", "c"),)
    assert s.k == 3
    with pytest.raises(ValueError, match="undeclared"):
        ClauseSet(("a",), (("a", "b"),))
    with pytest.raises(ValueError, match="repeated"):
        ClauseSet(("a", "b"), (("a", "a"),))
    with pytest.raises(ValueError, match="mixed"):
        ClauseSet(("a", "b", "c"), (("a", "b"), ("a", "b", "c")))
    with pytest.raises(ValueError, match="duplicate"):
        ClauseSet(("a", "a"), ())


def test_parse_clauses_roundtrip_and_errors():
    s = parse_clauses("vars a b c\na b c\nb c a\n")
    assert s.sigma == ("a", "b", "c")
    assert s.clauses == (("a", "b", "c"), ("a", "b", "c"))
    with pytest.raises(ClauseFormatError, match="line 1"):
        parse_clauses("a b c\n")
    with pytest.raises(ClauseFormatError):
        parse_clauses("")
    with pytest.raises(ClauseFormatError, match="undeclared"):
        parse_clauses("vars a b\na q\n")


def test_one_in_k_brute_trivial_cases():
    assert one_in_k_brute(ClauseSet(("a", "b"), ())) == frozenset()
    got = one_in_k_brute(running_example())
    assert got is not None and len(got) == 1
    with pytest.raises(ValueError, match="too large"):
        one_in_k_brute(ClauseSet(tuple(f"v{i}" for i in range(21)), ()))


def test_one_in_k_brute_exhaustive_against_definition():
    rng = random.Random(2)
    for _ in range(40):
        nvars = rng.randrange(2, 6)
        sigma = tuple(f"v{i}" for i in range(nvars))
        k = min(nvars, rng.randrange(2, 4))
        clauses = tuple(
            tuple(rng.sample(sigma, k)) for _ in range(rng.randrange(0, 5))
        )
        s = ClauseSet(sigma, clauses)
        got = one_in_k_brute(s)
        # oracle: scan every subset directly
        all_good = [
            frozenset(x for i, x in enumerate(sigma) if mask >> i & 1)
            for mask in range(1 << nvars)
            if all(
                sum(1 for v in c if mask >> sigma.index(v) & 1) == 1 for c in s.clauses
            )
        ]
        assert (got is None) == (not all_good)
        if got is not None:
            assert got in all_good


def _seeded_clause_sets(p, count=20, max_vars=7, max_clauses=5):
    """Seeded clause sets of one to max_vars variables, with zero to
    max_clauses clauses of size 1-3 (or p), repeats allowed."""
    rng = SplitMix64(derive_seed(p, 12))
    for _ in range(count):
        sigma = tuple(f"v{i}" for i in range(rng.randint(1, max_vars)))
        size = min(len(sigma), (1, 2, 3, p)[rng.below(4)])
        clauses = tuple(tuple(rng.sample(sigma, size)) for _ in range(rng.randint(0, max_clauses)))
        yield ClauseSet(sigma, clauses)


def test_one_in_k_brute_returns_the_first_satisfying_subset_in_mask_order():
    # bit i of a mask is sigma[i]: {a}, {b} fail (c d) and {a, b} fails
    # (b c), so the first subset meeting both clauses once is {c}
    s = ClauseSet(("a", "b", "c", "d"), (("b", "c"), ("c", "d")))
    assert one_in_k_brute(s) == frozenset({"c"})
    for p in (2, 3, 5):
        for s in _seeded_clause_sets(p, count=40, max_vars=10, max_clauses=12):
            assert one_in_k_brute(s) == reference_one_in_k_brute(s)


def _assert_same_reduction(red, ref):
    assert_same_instance(red.instance, ref.instance)
    assert (red.clause_set, red.p, red.kind) == (ref.clause_set, ref.p, ref.kind)
    assert red.labels == ref.labels
    assert list(red._points.items()) == list(ref._points.items())
    assert [red.point(key) for key in ref._points] == list(ref._points.values())


@pytest.mark.parametrize("p", [2, 3, 5])
def test_reductions_match_the_normalize_reference(p):
    """Built in one pass, each reduction is the one normalize gave: the
    same generators, constraints in the same key order, labels and
    points."""
    for s in _seeded_clause_sets(p):
        if p ** s.k * len(s.clauses) <= 2000:
            _assert_same_reduction(reduce_1in_k(s, p), reference_reduce_1in_k(s, p))
        _assert_same_reduction(reduce_2cstr(s, p, strict=False), reference_reduce_2cstr(s, p))


def test_a_reduction_derives_its_labels_and_points_on_first_read():
    """Each reduction builds only its instance: the labels and the point
    map appear when first read, and are kept for the next read."""
    s = ClauseSet(("a", "b", "c"), (("a", "b", "c"),))
    for red in (reduce_1in_k(s, 3), reduce_2cstr(s, 3)):
        assert "labels" not in vars(red) and "_points" not in vars(red)
        labels = red.labels
        assert "labels" in vars(red) and "_points" not in vars(red)
        assert red.labels is labels and len(labels) == red.instance.n
        assert red.point(next(iter(red._points))) == 1
        assert red._points is red._points
    assert reduce_1in_k(s, 3).labels[:2] == ("c0:000", "c0:001")
    assert reduce_2cstr(s, 3).labels[:2] == ("a:0", "a:1")


def test_reduce_1in_k_worked_example_bit_exact():
    red = reduce_1in_k(running_example(), 2)
    inst = red.instance
    assert inst.n == 8 and len(inst.gens) == 3
    # the image of the assignment with the two low bits set
    fg3 = red.morphism({"b": 1, "c": 1})
    assert fg3 == compose(inst.gens[1], inst.gens[2])
    assert fg3.images == (4, 3, 2, 1, 8, 7, 6, 5)
    assert str(fg3) == "(1 4)(2 3)(5 8)(6 7)"
    # constraint at the point ranked 3 (low two bits set)
    assert inst.cmap[4] == frozenset({8, 2, 3})
    assert constraint_k(inst) == 3


def test_reduce_1in_k_empty_clause_set_trivially_sat():
    red = reduce_1in_k(ClauseSet(("a", "b"), ()), 2)
    assert red.instance.n == 0
    out = solve(red.instance)
    assert out.status == "sat" and out.witness.n == 0


def test_reduce_1in_k_structure():
    rng = random.Random(5)
    for p in (2, 3):
        for _ in range(10):
            sigma = tuple(f"v{i}" for i in range(rng.randrange(3, 6)))
            clauses = tuple(tuple(rng.sample(sigma, 3)) for _ in range(rng.randrange(1, 4)))
            red = reduce_1in_k(ClauseSet(sigma, clauses), p)
            inst = red.instance
            assert inst.n == p**3 * len(clauses)
            ok, _ = is_elementary_abelian(inst.gens, p)
            assert ok
            assert constraint_k(inst) == 3
            assert all(len(inst.cmap[a]) == 3 for a in range(1, inst.n + 1))


def test_reduce_1in_k_morphism_property():
    rng = random.Random(9)
    for p in (2, 3):
        red = reduce_1in_k(
            ClauseSet(("a", "b", "c", "d"), (("a", "b", "c"), ("b", "c", "d"))), p
        )
        for _ in range(20):
            u = {v: rng.randrange(p) for v in red.clause_set.sigma}
            v = {v_: rng.randrange(p) for v_ in red.clause_set.sigma}
            sum_uv = {x: (u[x] + v[x]) % p for x in u}
            assert compose(red.morphism(u), red.morphism(v)) == red.morphism(sum_uv)


def test_reduce_1in_k_equivalence_with_brute_force():
    rng = random.Random(77)
    for p in (2, 3):
        for _ in range(20):
            sigma = tuple(f"v{i}" for i in range(rng.randrange(3, 7)))
            clauses = tuple(
                tuple(rng.sample(sigma, 3)) for _ in range(rng.randrange(1, 5))
            )
            s = ClauseSet(sigma, clauses)
            red = reduce_1in_k(s, p)
            interp = one_in_k_brute(s)
            fr = build_frame(red.instance.n, red.instance.gens, p)
            out = solve_enumerate(fr, red.instance)
            assert (out.status == "sat") == (interp is not None)
            if interp is not None:
                assert verify(red.instance, red.morphism({v: 1 for v in interp}), fr)


def test_reduce_2cstr_worked_example_bit_exact():
    red = reduce_2cstr(running_example(), 2, strict=False)
    inst = red.instance
    assert inst.n == 8
    # generator of the second variable: swaps its own pair and the clause pair
    fb = inst.gens[1]
    assert fb.image(red.point(("var", "b", 0))) == red.point(("var", "b", 1))
    assert fb.image(red.point(("clause", 0, 0))) == red.point(("clause", 0, 1))
    assert fb.images == (1, 2, 4, 3, 5, 6, 8, 7)
    # the assignment with both low bits set fixes the clause point
    fg3 = red.morphism({"b": 1, "c": 1})
    c0 = red.point(("clause", 0, 0))
    assert fg3.image(c0) == c0
    assert inst.cmap[c0] == frozenset({red.point(("clause", 0, 1))})
    assert all(len(inst.cmap[a]) <= 2 for a in range(1, inst.n + 1))


def test_reduce_2cstr_strict_rejects_size_mismatch():
    with pytest.raises(ValueError, match="size 3, expected exactly 2"):
        reduce_2cstr(running_example(), 2)
    # size == p passes strict mode
    reduce_2cstr(ClauseSet(("a", "b"), (("a", "b"),)), 2)


@pytest.mark.parametrize("reduce, s, p, n", [
    # 80 clauses of ten variables: 80 blocks of 2^10 points
    (reduce_1in_k, ClauseSet(tuple(f"v{i}" for i in range(10)),
                             (tuple(f"v{i}" for i in range(10)),) * 80), 2, 81920),
    # one variable's orbit of 65537 points, one over the limit
    (reduce_2cstr, ClauseSet(("a",), ()), 65537, 65537),
], ids=["1in_k", "2cstr"])
def test_reductions_refuse_an_oversized_n_before_building_it(monkeypatch, reduce, s, p, n):
    def refuse(*args, **kwargs):
        raise AssertionError("generators built")

    monkeypatch.setattr("gcsolve.reduction.translation_perms", refuse)
    with pytest.raises(ValueError, match=f"^n = {n} exceeds the limit 65536$"):
        reduce(s, p)


def test_reduce_2cstr_structure_and_morphism():
    rng = random.Random(13)
    s = ClauseSet(("a", "b", "c", "d"), (("a", "b", "c"), ("b", "c", "d")))
    red = reduce_2cstr(s, 3)
    inst = red.instance
    assert inst.n == 3 * 4 + 3 * 2
    ok, _ = is_elementary_abelian(inst.gens, 3)
    assert ok
    assert constraint_k(inst) <= 2
    for _ in range(20):
        u = {v: rng.randrange(3) for v in s.sigma}
        w = {v: rng.randrange(3) for v in s.sigma}
        sum_uw = {x: (u[x] + w[x]) % 3 for x in u}
        assert compose(red.morphism(u), red.morphism(w)) == red.morphism(sum_uw)


def test_reduce_2cstr_equivalence_with_brute_force():
    rng = random.Random(99)
    for _ in range(20):
        sigma = tuple(f"v{i}" for i in range(rng.randrange(3, 7)))
        clauses = tuple(tuple(rng.sample(sigma, 3)) for _ in range(rng.randrange(1, 5)))
        s = ClauseSet(sigma, clauses)
        red = reduce_2cstr(s, 3)
        interp = one_in_k_brute(s)
        fr = build_frame(red.instance.n, red.instance.gens, 3)
        out = solve_enumerate(fr, red.instance)
        assert (out.status == "sat") == (interp is not None)
        if interp is not None:
            assert verify(red.instance, red.morphism({v: 1 for v in interp}), fr)


def _pinned_reductions():
    three = ClauseSet(("a", "b", "c", "d", "e"),
                      (("a", "b", "c"), ("b", "d", "e"), ("a", "c", "e")))
    two = ClauseSet(("a", "b", "c", "d"), (("a", "b"), ("b", "c"), ("c", "d")))
    empty = ClauseSet(("a", "b"), ())
    for p in (2, 3, 5):
        for s in (running_example(), three, two, empty):
            yield reduce_1in_k(s, p)
            yield reduce_2cstr(s, p, strict=False)


def test_reduction_output_is_pinned():
    h = hashlib.sha256()
    for red in _pinned_reductions():
        sigma = red.clause_set.sigma
        h.update(render_instance(red.instance).encode())
        h.update(" ".join(red.labels).encode() + b"\n")
        assignments = [{v: 1} for v in sigma] + [{v: i % red.p for i, v in enumerate(sigma)}]
        for u in assignments:
            h.update(render_witness(red.morphism(u)).encode())
    assert h.hexdigest() == "2b8406e427abfffb3e0719a48f3fb28d2eb4f0b78cccce674bd08f645e234441"


def test_reductions_with_seeded_stream_are_deterministic():
    rng1, rng2 = SplitMix64(4), SplitMix64(4)
    assert [rng1.next_u64() for _ in range(4)] == [rng2.next_u64() for _ in range(4)]
