import itertools
import math
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcsolve import fpalg
from gcsolve.fpalg import (
    FpMatrix,
    PackedDigits,
    RowReducer,
    SingularMatrixError,
    invert,
    is_prime,
    solve,
)
from gcsolve.frame import build_frame
from gcsolve.genbench import GenConfig
from gcsolve.instfile import InstanceFormatError, parse_instance
from gcsolve.perm import Permutation, is_elementary_abelian
from gcsolve.reduction import ClauseSet, reduce_1in_k, reduce_2cstr
from util import (
    schoolbook_invert,
    schoolbook_rank,
    schoolbook_residual,
    schoolbook_rref,
    schoolbook_solve,
)


def test_is_prime_small_values():
    primes = {2, 3, 5, 7, 11, 13}
    for n in range(-2, 15):
        assert is_prime(n) == (n in primes)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_field_axioms_exhaustive(p):
    elems = range(p)
    for a, b, c in itertools.product(elems, repeat=3):
        assert (a + b) % p == (b + a) % p
        assert ((a + b) + c) % p == (a + (b + c)) % p
        assert ((a * b) * c) % p == (a * (b * c)) % p
        assert (a * (b + c)) % p == (a * b + a * c) % p


def _identity(p, d):
    return FpMatrix(p, tuple(tuple(1 if i == j else 0 for j in range(d)) for i in range(d)))


def _rank(m):
    reducer = RowReducer(m.p, m.ncols)
    for row in m.rows:
        reducer.add(row)
    return reducer.rank


def _mat_vec(m, v):
    """m·v by list dot products."""
    return tuple(sum(a * b for a, b in zip(row, v)) % m.p for row in m.rows)


def _is_inverse(m, inv):
    """m·inv and inv·m send every unit vector to itself."""
    units = _identity(m.p, m.nrows).rows
    return all(_mat_vec(m, _mat_vec(inv, u)) == u and _mat_vec(inv, _mat_vec(m, u)) == u
               for u in units)


def test_row_reducer_rank_two_dependent_rows():
    rows = ((1, 1, 0), (0, 1, 1), (1, 0, 1))
    # oracle: the span has 2^rank distinct vectors
    span = set()
    for coeffs in itertools.product(range(2), repeat=3):
        v = tuple(sum(c * r[j] for c, r in zip(coeffs, rows)) % 2 for j in range(3))
        span.add(v)
    assert len(span) == 4
    assert _rank(FpMatrix(2, rows)) == 2


def _random_matrix(rng, p, nrows, ncols):
    return FpMatrix(p, tuple(tuple(rng.randrange(p) for _ in range(ncols)) for _ in range(nrows)))


def test_solve_identity_returns_rhs():
    m = _identity(5, 3)
    assert solve(m, (1, 4, 2)) == (1, 4, 2)


def test_solve_detects_inconsistency():
    m = FpMatrix(2, ((1, 1), (1, 1)))
    assert solve(m, (1, 0)) is None


def test_solve_plant_and_recover():
    rng = random.Random(11)
    for p in (2, 3):
        for _ in range(200):
            nrows, ncols = rng.randrange(1, 7), rng.randrange(1, 7)
            a = _random_matrix(rng, p, nrows, ncols)
            x0 = tuple(rng.randrange(p) for _ in range(ncols))
            b = _mat_vec(a, x0)
            x = solve(a, b)
            assert x is not None
            assert _mat_vec(a, x) == b


def test_solve_sets_free_variables_to_zero():
    # single equation x1 + x2 = 1 over F2: canonical solution pins the pivot
    m = FpMatrix(2, ((1, 1),))
    assert solve(m, (1,)) == (1, 0)


def test_solve_empty_system():
    m = FpMatrix(3, ())
    assert solve(m, ()) == ()


def test_invert_identity():
    m = _identity(5, 4)
    assert invert(m) == m


def test_invert_unitriangular_f2():
    m = FpMatrix(2, ((1, 1), (0, 1)))
    inv = invert(m)
    assert _is_inverse(m, inv)
    assert inv == m


def test_invert_scalar_f3():
    m = FpMatrix(3, ((2, 0), (0, 2)))
    assert invert(m) == m  # 2*2 = 4 = 1 mod 3


def test_invert_random_matrices():
    rng = random.Random(23)
    for p in (2, 3, 5):
        done = 0
        while done < 100:
            d = rng.randrange(1, 6)
            m = _random_matrix(rng, p, d, d)
            if _rank(m) < d:
                continue
            assert _is_inverse(m, invert(m))
            done += 1


def test_invert_singular_rejected():
    with pytest.raises(SingularMatrixError):
        invert(FpMatrix(2, ((1, 1), (1, 1))))
    with pytest.raises(SingularMatrixError):
        invert(FpMatrix(2, ((1, 1, 0), (0, 1, 1))))


def _spans(p, width, basis, vec):
    """Whether vec lies in the span of basis, by a fresh reducer: adding vec
    after the basis leaves the rank where it was."""
    reducer = RowReducer(p, width)
    for b in basis:
        reducer.add(b)
    return not reducer.add(vec)


def test_row_reducer_tracks_span():
    reducer = RowReducer(2, 3)
    assert reducer.add((1, 1, 0))
    assert not reducer.add((1, 1, 0))
    assert reducer.add((0, 1, 1))
    assert not reducer.add((1, 0, 1))  # sum of the first two
    assert reducer.rank == 2
    basis = [(1, 1, 0), (0, 1, 1)]
    assert _spans(2, 3, basis, (1, 0, 1))
    assert not _spans(2, 3, basis, (0, 0, 1))


def test_row_reducer_refuses_a_vector_nonzero_only_after_the_pivot_columns():
    """Such a vector is not kept, and its residual is zero in the pivot
    columns only."""
    for p in (2, 3):
        reducer = RowReducer(p, 2)
        assert reducer.add((1, 1, 0))
        assert not reducer.add((2, 2, 0))  # dependent throughout
        assert reducer.reduce((2, 2, 0)) == (0, 0, 0)
        assert not reducer.add((1, 1, 1))  # zero in the pivot columns only
        assert reducer.reduce((1, 1, 1)) == (0, 0, 1)
        assert reducer.rank == 1


def test_rows_kept_out_of_column_order_reduce_as_the_schoolbook_reference():
    """At p = 3 the first row kept has its pivot in column 1 and the second
    in column 0: the residual of every vector of F_3^5, pivots in the
    first 3 columns, is the schoolbook one."""
    p, width = 3, 3
    # (1, 2, 0, 2, 1) is kept as itself minus 2·(0, 1, 2, 1, 0); the third
    # vector is the sum of the first two; the fourth is kept scaled by 2
    vecs = [(0, 1, 2, 1, 0), (1, 2, 0, 2, 1), (1, 0, 2, 0, 1), (0, 0, 2, 1, 1)]
    reducer = RowReducer(p, width)
    assert [reducer.add(v) for v in vecs] == [True, True, False, True]
    assert _kept_rows(reducer) == [(1, (0, 1, 2, 1, 0)), (0, (1, 0, 2, 0, 1)), (2, (0, 0, 1, 2, 2))]
    for x in itertools.product(range(p), repeat=width + 2):
        assert reducer.reduce(x) == schoolbook_residual(vecs, x, p, width)


@pytest.mark.parametrize("p", [5, 7, 2**61 - 1])
def test_add_scales_every_pivot_to_one(p):
    """A kept row is the residual times the inverse of its pivot f, for
    every f in 1..p-1 (a sample of them at 2^61 - 1), f = 1 and f = p - 1
    included: two vectors with pivots f in columns 0 and 1 are kept scaled
    to pivot 1, and residuals are the schoolbook ones."""
    fs = range(1, p) if p < 100 else (1, 2, 3, 3**38, (p + 1) // 2, p - 2, p - 1)
    for f in fs:
        inv = pow(f, p - 2, p)
        vecs = [(f, 2, p - 1, 3), (0, f, 1, 0)]
        reducer = RowReducer(p, 2)
        assert all(reducer.add(v) for v in vecs)
        assert _kept_rows(reducer) == [(col, tuple(c * inv % p for c in v))
                                       for col, v in enumerate(vecs)]
        for x in ((3, 1, 4, 1), (p - 1, f, 0, 5)):
            assert reducer.reduce(x) == schoolbook_residual(vecs, x, p, 2)


def test_row_reducer_rejects_a_short_vector_or_a_changed_length():
    reducer = RowReducer(2, 3)
    with pytest.raises(ValueError, match="vector length 2"):
        reducer.add((1, 0))
    reducer.add((1, 0, 0, 1))
    with pytest.raises(ValueError, match="vector length 3 != 4"):
        reducer.add((0, 1, 0))


def _kept_rows(reducer):
    """The kept rows decoded, as (pivot column, row) in the order kept: at
    p = 2 a row is keyed by its pivot's bit length, at odd p by the shift
    of its pivot field, and kept as its negated doublings."""
    packing = reducer._packing
    out = []
    for key, row in reducer._rows.items():
        if reducer.p == 2:
            out.append((packing.count - key, packing.unpack(row)))
        else:
            out.append((packing.count - 1 - key // packing.width,
                        packing.unpack(packing.neg(row[0]))))
    return out


# -- RowReducer, solve and invert against a schoolbook elimination ----------

# At p = 2, widths at and around one and two 64-bit words, where a packed
# row's size in machine words changes, besides small ones.  At odd p a
# field is p.bit_length() + 1 bits: 3 and 4 at p = 3 and 5, and 8, 9, 10
# and 17 at 127, 131, 257 and 65521, so widths up to 8 already span one
# and two words at the larger primes.
WIDTHS = st.one_of(st.integers(0, 6), st.sampled_from([63, 64, 65, 130]))
# the first primes, 127 and 131, where a field goes from 8 to 9 bits, and
# two wider fields
SCHOOLBOOK_PRIMES = (2, 3, 5, 127, 131, 257, 65521)


@st.composite
def field_and_widths(draw, count):
    p = draw(st.sampled_from(SCHOOLBOOK_PRIMES))
    widths = WIDTHS if p == 2 else st.integers(0, 8)
    return (p, *(draw(widths) for _ in range(count)))


def _raw(rng, width):
    """A vector with entries outside [0, p), negatives included."""
    return [rng.randrange(-3, 4) for _ in range(width)]


def _outcome(f, *args):
    try:
        return f(*args)
    except SingularMatrixError as exc:
        return ("singular", str(exc))


@settings(max_examples=90, deadline=None)
@given(shape=field_and_widths(1), seed=st.integers(0, 2**32 - 1), singular=st.booleans())
def test_packed_invert_matches_list_path(shape, seed, singular):
    p, d = shape
    rng = random.Random(seed)
    rows = [_raw(rng, d) for _ in range(d)]
    if singular and d:
        # one row becomes a combination of some others (the zero row when none)
        i = rng.randrange(d)
        others = [(rng.randrange(p), r) for j, r in enumerate(rows) if j != i and rng.random() < 0.5]
        rows[i] = [sum(c * r[col] for c, r in others) for col in range(d)]
    m = FpMatrix(p, tuple(map(tuple, rows)))
    got = _outcome(invert, m)
    assert got == _outcome(schoolbook_invert, m)
    if singular and d:
        assert got[0] == "singular"


@settings(max_examples=90, deadline=None)
@given(shape=field_and_widths(2), seed=st.integers(0, 2**32 - 1), planted=st.booleans())
def test_packed_solve_matches_list_path(shape, seed, planted):
    p, nrows, ncols = shape
    rng = random.Random(seed)
    a = FpMatrix(p, tuple(tuple(_raw(rng, ncols)) for _ in range(nrows)))
    if planted:
        b = [y + p * rng.randrange(-1, 2) for y in _mat_vec(a, _raw(rng, a.ncols))]
    else:
        b = _raw(rng, nrows)
    x = solve(a, b)
    assert x == schoolbook_solve(a, b)
    if planted:
        assert x is not None
    if x is not None:
        assert _mat_vec(a, x) == tuple(y % p for y in b)


@settings(max_examples=90, deadline=None)
@given(shape=field_and_widths(1), count=st.integers(0, 12), seed=st.integers(0, 2**32 - 1))
def test_packed_row_reducer_matches_list_elimination(shape, count, seed):
    """add keeps a vector exactly when it leaves the schoolbook span, and a
    second reducer fed the same vectors packed, through packed_add, gives
    the same answers, rank, residuals and rows."""
    p, width = shape
    rng = random.Random(seed)
    reducer = RowReducer(p, width)
    packed = RowReducer(p, width)  # fed the same vectors through packed_add
    pack = fpalg.packed_digits(p, width).pack
    seen = []
    for _ in range(count + 1):
        if seen and rng.random() < 0.5:
            # a combination of earlier vectors, shifted by multiples of p
            picked = [(rng.randrange(p), v) for v in seen if rng.random() < 0.5]
            vec = [sum(c * v[col] for c, v in picked) + p * rng.randrange(-2, 3)
                   for col in range(width)]
        else:
            vec = _raw(rng, width)
        independent = schoolbook_rank(seen + [vec], p, width) > schoolbook_rank(seen, p, width)
        assert _spans(p, width, seen, vec) == (not independent)
        assert packed.packed_residual(pack(vec)) == pack(reducer.reduce(vec))
        if len(seen) == count:
            break  # the last vector only probes the span
        assert reducer.add(vec) == independent
        assert packed.packed_add(pack(vec), width) == independent
        seen.append(vec)
        assert reducer.rank == packed.rank == schoolbook_rank(seen, p, width)
    assert _snapshot(packed) == _snapshot(reducer)


@settings(max_examples=90, deadline=None)
@given(shape=field_and_widths(1), count=st.integers(0, 8), seed=st.integers(0, 2**32 - 1))
def test_reduce_matches_the_schoolbook_residual(shape, count, seed):
    """reduce gives the residual against the schoolbook echelon form: zero
    exactly on the span, equal exactly within one coset, and the reducer
    is left as it was."""
    p, width = shape
    rng = random.Random(seed)
    vecs = [_raw(rng, width) for _ in range(count)]
    reducer = RowReducer(p, width)
    for v in vecs:
        reducer.add(v)
    kept = _snapshot(reducer)
    x = _raw(rng, width)
    # a member of the span, and x moved by it within its coset
    coeffs = [rng.randrange(p) for _ in vecs]
    member = [sum(c * v[col] for c, v in zip(coeffs, vecs)) for col in range(width)]
    moved = [a + b for a, b in zip(x, member)]
    got = reducer.reduce(x)
    assert got == schoolbook_residual(vecs, x, p)
    assert reducer.reduce(moved) == got
    assert not any(reducer.reduce(member))
    assert (not any(got)) == _spans(p, width, vecs, x)
    assert (_snapshot(reducer), reducer.rank) == (kept, schoolbook_rank(vecs, p, width))


def _snapshot(reducer):
    # the kept rows decoded, by pivot column
    return dict(_kept_rows(reducer))


@settings(max_examples=90, deadline=None)
@given(p=st.sampled_from(SCHOOLBOOK_PRIMES), width=WIDTHS, count=st.integers(0, 12),
       seed=st.integers(0, 2**32 - 1))
def test_add_keeps_earlier_rows_and_reduce_changes_nothing(p, width, count, seed):
    """add stores a row and leaves every row kept before it as it was;
    reduce gives the schoolbook residual whether it is called before,
    between or after adds, and calling it changes no later add, reduce or
    rank."""
    rng = random.Random(seed)
    read = RowReducer(p, width)
    unread = RowReducer(p, width)
    seen = []
    for _ in range(count):
        if seen and rng.random() < 0.4:
            picked = [(rng.randrange(p), v) for v in seen if rng.random() < 0.5]
            vec = [sum(c * v[col] for c, v in picked) for col in range(width)]
        else:
            vec = _raw(rng, width)
        if rng.random() < 0.5:
            assert read.reduce(vec) == schoolbook_residual(seen, vec, p, width)
        before = _snapshot(read)
        added = read.add(vec)
        assert added == unread.add(vec)
        after = _snapshot(read)
        assert {key: after[key] for key in before} == before
        assert len(after) == len(before) + added
        seen.append(vec)
        x = _raw(rng, width)
        assert read.reduce(x) == schoolbook_residual(seen, x, p, width)
        assert read.rank == unread.rank
    assert _snapshot(read) == _snapshot(unread)


@settings(max_examples=90, deadline=None)
@given(p=st.sampled_from(SCHOOLBOOK_PRIMES), width=WIDTHS, extra=st.integers(1, 6),
       count=st.integers(0, 10), seed=st.integers(0, 2**32 - 1), mapped=st.booleans())
def test_extra_columns_reduce_as_the_schoolbook_reference(p, width, extra, count, seed, mapped):
    """Vectors with extra columns after the pivot width, pivots searched in
    the first width columns.  add keeps a vector exactly when it raises
    the rank of the pivot columns, and the residual, extra columns
    included, is the schoolbook one against the vectors kept.  A vector
    that is not kept has a residual that is zero in the pivot columns, and
    some such residual is nonzero after them exactly when the vectors so
    far have a combination that is zero in the pivot columns but not
    after them.
    When mapped, every vector's extra columns are a fixed linear image of
    its pivot columns, so no such combination exists.  A second reducer
    fed the same vectors packed, through packed_add, gives the same
    answers, rank, residuals and rows."""
    rng = random.Random(seed)
    image = [_raw(rng, width) for _ in range(extra)]
    reducer = RowReducer(p, width)
    packed = RowReducer(p, width)  # fed the same vectors through packed_add
    pack = fpalg.packed_digits(p, width + extra).pack
    vecs = []
    kept = []
    refused_nonzero = False
    for _ in range(count):
        vec = _raw(rng, width + extra)
        if vecs and rng.random() < 0.3:
            # the pivot columns of an earlier vector, other extra columns
            vec[:width] = vecs[rng.randrange(len(vecs))][:width]
        if mapped:
            vec[width:] = [sum(a * b for a, b in zip(row, vec)) for row in image]
        independent = schoolbook_rank(kept + [vec], p, width) > len(kept)
        assert packed.packed_residual(pack(vec)) == pack(reducer.reduce(vec))
        assert reducer.add(vec) == independent
        assert packed.packed_add(pack(vec), width + extra) == independent
        assert packed.rank == reducer.rank
        vecs.append(vec)
        if independent:
            kept.append(vec)
        else:
            r = reducer.reduce(vec)
            assert not any(r[:width])
            refused_nonzero |= any(r)
        rows = [[c % p for c in v] for v in vecs]
        pivots = schoolbook_rref(rows, p, width)
        assert refused_nonzero == any(any(row) for row in rows[len(pivots):])
    assert not (mapped and refused_nonzero)
    x = _raw(rng, width + extra)
    assert reducer.reduce(x) == schoolbook_residual(kept, x, p, width)
    assert packed.packed_residual(pack(x)) == pack(reducer.reduce(x))
    assert _snapshot(packed) == _snapshot(reducer)


def test_reduce_rejects_a_vector_of_the_wrong_length():
    for p in (2, 3, 5):
        reducer = RowReducer(p, 3)
        with pytest.raises(ValueError, match="vector length 2"):
            reducer.reduce((1, 0))
        with pytest.raises(ValueError, match="vector length 2 < 3"):
            reducer.packed_add(1, 2)
        reducer.add((1, 0, 0))
        with pytest.raises(ValueError, match="vector length 4 != 3"):
            reducer.reduce((1, 0, 0, 1))
        with pytest.raises(ValueError, match="vector length 4 != 3"):
            reducer.add((1, 0, 0, 1))
        with pytest.raises(ValueError, match="vector length 4 != 3"):
            reducer.packed_add(1, 4)
        assert reducer.reduce((1, 1, 1)) == (0, 1, 1)


def test_representation_follows_p():
    """RowReducer keeps a row as one packed int at p = 2 and as its
    p.bit_length() negated doublings at odd p, -2^i·row, and solve and
    invert give the same answers through either."""
    for p in (2, 3, 5, 127, 131):
        reducer = RowReducer(p, 2)
        for vec in ((1, 1, 0), (0, 1, 1), (1, 0, 1)):
            reducer.add(vec)
        packing = reducer._packing
        for row in reducer._rows.values():
            if p == 2:
                assert isinstance(row, int)
                continue
            assert len(row) == p.bit_length()
            first = packing.unpack(packing.neg(row[0]))
            assert [packing.unpack(r) for r in row] == [
                tuple(-(2**i) * c % p for c in first) for i in range(p.bit_length())]
        m = FpMatrix(p, ((1, 1), (0, 1)))
        assert invert(m) == FpMatrix(p, ((1, -1), (0, 1)))
        assert solve(m, (1, 1)) == (0, 1)


# -- primality ---------------------------------------------------------------


def _trial_division(n):
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def test_is_prime_matches_trial_division():
    assert [n for n in range(20_000) if is_prime(n)] == [
        n for n in range(20_000) if _trial_division(n)]


@pytest.mark.parametrize("n", [
    318665857834031151167461,  # psi_12: a strong pseudoprime to the first 12 prime bases
    3825123056546413051,  # a strong pseudoprime to the bases 2 through 23
])
def test_is_prime_rejects_strong_pseudoprimes(n):
    assert not is_prime(n)


def test_a_61_bit_prime_parses_quickly():
    p = 2**61 - 1
    assert is_prime(p)
    t0 = time.perf_counter()
    inst = parse_instance(f"gc 1\np {p}\nn 1\nm 0\n")
    assert time.perf_counter() - t0 < 0.1
    assert inst.p == p


def test_p_beyond_the_exact_prime_test_is_refused():
    psi_13 = 3317044064679887385961981
    with pytest.raises(ValueError, match="too large"):
        is_prime(psi_13)
    with pytest.raises(InstanceFormatError, match="line 2: p = .* too large"):
        parse_instance(f"gc 1\np {psi_13}\nn 1\nm 0\n")


@pytest.mark.parametrize("build", [
    lambda: build_frame(2, [Permutation((2, 1))], 4),
    lambda: is_elementary_abelian([Permutation((2, 1))], 4),
    lambda: GenConfig(p=4, seed=0),
    lambda: reduce_1in_k(ClauseSet(("a", "b"), (("a", "b"),)), 4),
    lambda: reduce_2cstr(ClauseSet(("a", "b"), (("a", "b"),)), 4, strict=False),
], ids=["build_frame", "is_elementary_abelian", "GenConfig", "reduce_1in_k", "reduce_2cstr"])
def test_every_builder_refuses_a_p_that_is_not_prime(build):
    with pytest.raises(ValueError, match=r"^p = 4 is not prime$"):
        build()


# primes at the edges of the packed field widths, p.bit_length() + 1 bits
# at odd p: one bit for 2, 3 for 3, 4 for 5 and 7, 8 for 127, 9 for 131, 10
# for 257, 18 for 65537, 62 for 2^61 - 1
PACKED_PRIMES = (2, 3, 5, 7, 11, 17, 31, 127, 131, 257, 65537, 2**61 - 1)


def _digit_vectors(p, count):
    digit = st.one_of(st.integers(0, p - 1), st.just(p - 1), st.just(0))
    return st.lists(digit, min_size=count, max_size=count)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_packed_digits_add_and_negate_digit_by_digit(data):
    """pack, add, neg and unpack against (a + b) % p and -a % p entry by
    entry, and packed vectors order as their tuples."""
    p = data.draw(st.sampled_from(PACKED_PRIMES))
    count = data.draw(st.integers(0, 40))
    a = data.draw(_digit_vectors(p, count))
    b = data.draw(_digit_vectors(p, count))
    packing = PackedDigits(p, count)
    pa, pb = packing.pack(a), packing.pack(b)
    assert packing.unpack(pa) == tuple(a)
    assert packing.add(pa, pb) == packing.pack([(x + y) % p for x, y in zip(a, b)])
    assert packing.unpack(packing.add(pa, pb)) == tuple((x + y) % p for x, y in zip(a, b))
    assert packing.neg(pa) == packing.pack([-x % p for x in a])
    assert packing.add(pa, packing.neg(pa)) == 0
    assert (pa < pb) == (tuple(a) < tuple(b))


@pytest.mark.parametrize("p", PACKED_PRIMES)
def test_packed_digits_largest_field_sums(p):
    """All-(p - 1) operands give the largest field sums, 2p - 2, in every
    field at once; the zero vector negates to itself."""
    for count in range(41):
        packing = PackedDigits(p, count)
        top = packing.pack([p - 1] * count)
        assert packing.unpack(packing.add(top, top)) == ((p - 2) % p,) * count
        assert packing.unpack(packing.neg(top)) == (1 % p,) * count
        assert packing.add(top, packing.neg(top)) == 0
        assert packing.neg(0) == 0


@pytest.mark.parametrize("p", [3, 5, 131, 65521])
def test_pack_matches_one_shift_per_entry(p):
    """pack gives the int that shifting each reduced entry in, first entry
    first, gives, and unpack reads the entries back, for short vectors and
    for long ones packed and unpacked in chunks (lengths around multiples
    of _PACK_CHUNK, 21845 and 43690), with entries outside [0, p) and as
    lists or tuples."""
    rng = random.Random(p)
    w = p.bit_length() + 1
    chunk = fpalg._PACK_CHUNK
    for count in (0, 1, 21, chunk - 1, chunk, chunk + 1, 2 * chunk, 3 * chunk + 7, 21845, 43690):
        vec = [rng.randrange(-2 * p, 3 * p) for _ in range(count)]
        code = 0
        for c in vec:
            code = (code << w) | c % p
        packing = PackedDigits(p, count)
        assert packing.pack(vec) == packing.pack(tuple(vec)) == code
        assert packing.unpack(code) == tuple(c % p for c in vec)
        assert packing.pack([p - 1] * count) == ((1 << w * count) - 1) // ((1 << w) - 1) * (p - 1)


def test_packed_digits_refuse_a_vector_of_the_wrong_length():
    with pytest.raises(ValueError, match="vector length 2 != 3"):
        PackedDigits(5, 3).pack((1, 2))
    # a count above _PACK_CHUNK, packed in chunks
    with pytest.raises(ValueError, match="vector length 99 != 100"):
        PackedDigits(3, 100).pack((1,) * 99)


@pytest.mark.parametrize("p, count", [(3, 0), (3, 2), (5, 3), (3, 5), (131, 1), (17, 2), (3, 6)])
def test_position_codes_pack_each_position_and_keep_only_short_lists(p, count):
    """Position i's code packs its base-p digits, most significant first,
    and the list is kept for the next call only up to _KEPT_CODES entries
    (243 and 131 are kept, 289 and 729 are not)."""
    packing = PackedDigits(p, count)
    codes = packing.position_codes()
    assert codes == [packing.pack(d) for d in itertools.product(range(p), repeat=count)]
    assert (packing.position_codes() is codes) == (p**count <= fpalg._KEPT_CODES)

