import itertools
import math
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcsolve.fpalg import (
    FpMatrix,
    RowReducer,
    SingularMatrixError,
    inv_mod,
    invert,
    is_prime,
    solve,
)
from gcsolve.instfile import InstanceFormatError, parse_instance
from util import schoolbook_invert, schoolbook_rank, schoolbook_solve


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
    for a in range(1, p):
        assert a * inv_mod(a, p) % p == 1


def test_inv_mod_of_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        inv_mod(0, 5)


def _identity(p, d):
    return FpMatrix(p, tuple(tuple(1 if i == j else 0 for j in range(d)) for i in range(d)))


def _rank(m):
    reducer = RowReducer(m.p, m.ncols)
    for row in m.rows:
        reducer.add(row)
    return reducer.rank


def _is_inverse(m, inv):
    """m·inv and inv·m send every unit vector to itself."""
    units = _identity(m.p, m.nrows).rows
    return all(m.mat_vec(inv.mat_vec(u)) == u and inv.mat_vec(m.mat_vec(u)) == u for u in units)


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
            b = a.mat_vec(x0)
            x = solve(a, b)
            assert x is not None
            assert a.mat_vec(x) == b


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


def test_row_reducer_flags_a_vector_nonzero_only_after_the_pivot_columns():
    for p in (2, 3):
        reducer = RowReducer(p, 2)
        assert reducer.add((1, 1, 0))
        assert not reducer.add((2, 2, 0))  # dependent throughout
        assert not reducer.inconsistent
        assert not reducer.add((1, 1, 1))  # zero in the pivot columns only
        assert reducer.inconsistent
        assert reducer.rank == 1


def test_row_reducer_echelon_is_reduced():
    reducer = RowReducer(3, 3)
    # the second row is scaled by 2 and then cleared from the first
    for vec in ((1, 1, 0, 0), (0, 2, 1, 1), (1, 0, 1, 1)):
        reducer.add(vec)
    assert reducer.echelon() == {0: (1, 0, 1, 1), 1: (0, 1, 2, 2)}


def test_row_reducer_rejects_a_short_vector_or_a_changed_length():
    reducer = RowReducer(2, 3)
    with pytest.raises(ValueError, match="vector length 2"):
        reducer.add((1, 0))
    reducer.add((1, 0, 0, 1))
    with pytest.raises(ValueError, match="vector length 3 != 4"):
        reducer.add((0, 1, 0))


# -- RowReducer, solve and invert against a schoolbook elimination ----------

# At p = 2, widths at and around one and two 64-bit words, where a packed
# row's size in machine words changes, besides small ones.  Rows at other
# primes are lists, so small widths reach every case there.
WIDTHS = st.one_of(st.integers(0, 6), st.sampled_from([63, 64, 65, 130]))


@st.composite
def field_and_widths(draw, count):
    p = draw(st.sampled_from([2, 3, 5]))
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
        b = [y + p * rng.randrange(-1, 2) for y in a.mat_vec(_raw(rng, a.ncols))]
    else:
        b = _raw(rng, nrows)
    x = solve(a, b)
    assert x == schoolbook_solve(a, b)
    if planted:
        assert x is not None
    if x is not None:
        assert a.mat_vec(x) == tuple(y % p for y in b)


@settings(max_examples=90, deadline=None)
@given(shape=field_and_widths(1), count=st.integers(0, 12), seed=st.integers(0, 2**32 - 1))
def test_packed_row_reducer_matches_list_elimination(shape, count, seed):
    p, width = shape
    rng = random.Random(seed)
    reducer = RowReducer(p, width)
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
        if len(seen) == count:
            break  # the last vector only probes the span
        assert reducer.add(vec) == independent
        seen.append(vec)
        assert reducer.rank == schoolbook_rank(seen, p, width)


@settings(max_examples=60, deadline=None)
@given(nrows=WIDTHS, ncols=WIDTHS, seed=st.integers(0, 2**32 - 1))
def test_packed_mat_vec_matches_list_formula(nrows, ncols, seed):
    rng = random.Random(seed)
    m = FpMatrix(2, tuple(tuple(_raw(rng, ncols)) for _ in range(nrows)))
    v = _raw(rng, m.ncols)
    assert m.mat_vec(v) == tuple(sum(a * b for a, b in zip(row, v)) % 2 for row in m.rows)


def test_representation_follows_p():
    """RowReducer keeps packed ints at p = 2 and lists at other primes, and
    solve and invert give the same answers through either."""
    for p, row_type in ((2, int), (3, list), (5, list)):
        reducer = RowReducer(p, 2)
        for vec in ((1, 1, 0), (0, 1, 1), (1, 0, 1)):
            reducer.add(vec)
        assert {type(row) for row in reducer._rows.values()} == {row_type}
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
