import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcsolve import fpalg
from gcsolve.fpalg import (
    FpMatrix,
    RowReducer,
    SingularMatrixError,
    inv_mod,
    invert,
    is_prime,
    solve,
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


def test_row_reducer_tracks_span():
    reducer = RowReducer(2, 3)
    assert reducer.add((1, 1, 0))
    assert not reducer.add((1, 1, 0))
    assert reducer.add((0, 1, 1))
    assert not reducer.add((1, 0, 1))  # sum of the first two
    assert reducer.rank == 2
    assert reducer.contains((1, 0, 1))
    assert not reducer.contains((0, 0, 1))


# -- the packed F_2 path against the list path ------------------------------

# Widths at and around one and two 64-bit words, where a packed row's size in
# machine words changes, besides small ones.
WIDTHS = st.one_of(st.integers(0, 6), st.sampled_from([63, 64, 65, 130]))


def _raw(rng, width):
    """A vector with entries outside [0, 2), negatives included."""
    return [rng.randrange(-3, 4) for _ in range(width)]


def _list_rank(vecs, width):
    return len(fpalg._eliminate([[x % 2 for x in v] for v in vecs], 2, width))


def _outcome(f, *args):
    try:
        return f(*args)
    except SingularMatrixError as exc:
        return ("singular", str(exc))


@settings(max_examples=60, deadline=None)
@given(d=WIDTHS, seed=st.integers(0, 2**32 - 1), singular=st.booleans())
def test_packed_invert_matches_list_path(d, seed, singular):
    rng = random.Random(seed)
    rows = [_raw(rng, d) for _ in range(d)]
    if singular and d:
        # one row becomes the sum of some others (the zero row when none)
        i = rng.randrange(d)
        others = [r for j, r in enumerate(rows) if j != i and rng.random() < 0.5]
        rows[i] = [sum(r[c] for r in others) for c in range(d)]
    m = FpMatrix(2, tuple(map(tuple, rows)))
    got = _outcome(invert, m)
    assert got == _outcome(fpalg._invert_lists, m)
    if singular and d:
        assert got[0] == "singular"


@settings(max_examples=60, deadline=None)
@given(nrows=WIDTHS, ncols=WIDTHS, seed=st.integers(0, 2**32 - 1), planted=st.booleans())
def test_packed_solve_matches_list_path(nrows, ncols, seed, planted):
    rng = random.Random(seed)
    a = FpMatrix(2, tuple(tuple(_raw(rng, ncols)) for _ in range(nrows)))
    if planted:
        b = [y + 2 * rng.randrange(-1, 2) for y in a.mat_vec(_raw(rng, a.ncols))]
    else:
        b = _raw(rng, nrows)
    x = solve(a, b)
    assert x == fpalg._solve_lists(a, b)
    if planted:
        assert x is not None
    if x is not None:
        assert a.mat_vec(x) == tuple(y % 2 for y in b)


@settings(max_examples=60, deadline=None)
@given(width=WIDTHS, count=st.integers(0, 12), seed=st.integers(0, 2**32 - 1))
def test_packed_row_reducer_matches_list_elimination(width, count, seed):
    rng = random.Random(seed)
    reducer = RowReducer(2, width)
    seen = []
    for _ in range(count + 1):
        if seen and rng.random() < 0.5:
            # a sum of earlier vectors, shifted by even amounts
            picked = [v for v in seen if rng.random() < 0.5]
            vec = [sum(v[c] for v in picked) + 2 * rng.randrange(-2, 3) for c in range(width)]
        else:
            vec = _raw(rng, width)
        independent = _list_rank(seen + [vec], width) > _list_rank(seen, width)
        assert reducer.contains(vec) == (not independent)
        if len(seen) == count:
            break  # the last vector only probes contains
        assert reducer.add(vec) == independent
        seen.append(vec)
        assert reducer.rank == _list_rank(seen, width)


@settings(max_examples=60, deadline=None)
@given(nrows=WIDTHS, ncols=WIDTHS, seed=st.integers(0, 2**32 - 1))
def test_packed_mat_vec_matches_list_formula(nrows, ncols, seed):
    rng = random.Random(seed)
    m = FpMatrix(2, tuple(tuple(_raw(rng, ncols)) for _ in range(nrows)))
    v = _raw(rng, m.ncols)
    assert m.mat_vec(v) == tuple(sum(a * b for a, b in zip(row, v)) % 2 for row in m.rows)


def test_representation_follows_p(monkeypatch):
    """p = 2 never reaches the list elimination; p = 3 still does."""

    def refuse(*args):
        raise AssertionError("list elimination called")

    monkeypatch.setattr(fpalg, "_eliminate", refuse)
    m2 = FpMatrix(2, ((1, 1), (0, 1)))
    assert invert(m2) == m2
    assert solve(m2, (1, 1)) == (0, 1)
    m3 = FpMatrix(3, ((1, 1), (0, 1)))
    with pytest.raises(AssertionError, match="list elimination"):
        invert(m3)
    with pytest.raises(AssertionError, match="list elimination"):
        solve(m3, (1, 1))
