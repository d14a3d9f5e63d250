"""Exact dense linear algebra over the field of integers mod a prime p.

There is one elimination, RowReducer: incremental Gaussian elimination,
which keeps each row as it was reduced when it was added.  Every answer
is read as a residual against the kept rows (RowReducer.reduce): a
vector is in their span exactly when its residual is zero, and solve and
invert are residual reads too, of vectors carried with an identity
block; nothing in the package calls those two.
Rows follow p.  At p = 2 a row is one Python int with bit j holding
column j, so a row operation is one XOR of whole rows: the standard GF(2)
technique (see M4RI in Albrecht, Bard and Hart, "Algorithm 898: Efficient
multiplication of dense matrices over GF(2)", ACM TOMS 37(1), 2010).  At
other primes a row is a plain list of residues and elimination is
schoolbook.  Residuals are unique, so every result is the same in either
representation.  Matrices are small (a few hundred rows at most in
practice).

PackedDigits packs a whole vector of residues into one int for the
solvers' sums of vectors: one bit per entry at p = 2, where addition is
XOR, and at odd p one field of p.bit_length() + 1 bits per entry, wide
enough that adding two vectors never carries from one field into the
next, so the sum mod p takes a few whole-int operations (SWAR, SIMD
within a register).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

# The first 13 primes.  As Miller-Rabin bases they decide primality exactly
# for every n below _PRIME_TEST_LIMIT, the 13th such threshold psi_13
# (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases",
# Math. Comp. 86, 2017).
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_TEST_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; raises ValueError for n >= psi_13."""
    if n < 2:
        return False
    for q in _PRIME_BASES:
        if n % q == 0:
            return n == q
    if n >= _PRIME_TEST_LIMIT:
        raise ValueError(
            f"p = {n} is too large: the prime test is exact only below {_PRIME_TEST_LIMIT}")
    d = (n - 1) >> 1
    s = 1
    while not d & 1:
        d >>= 1
        s += 1
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def exact_log(size: int, p: int) -> int | None:
    """r with p**r == size, for size >= 1; None when size is not a power of p."""
    r = 0
    while size % p == 0:
        size //= p
        r += 1
    return r if size == 1 else None


def inv_mod(x: int, p: int) -> int:
    """Multiplicative inverse of a nonzero residue."""
    if x % p == 0:
        raise ZeroDivisionError(f"0 has no inverse mod {p}")
    return pow(x, -1, p)


class SingularMatrixError(ValueError):
    """Inversion was asked of a matrix without full rank."""


_PARITY_DIGITS = bytes.maketrans(bytes(range(256)), b"01" * 128)
_DIGITS_TO_BYTES = bytes.maketrans(b"01", b"\0\1")


def _pack(vec) -> int:
    """The residues of vec mod 2 as one int, bit j holding vec[j] mod 2."""
    # one byte per entry, most significant first, its parity read as binary
    try:
        entries = bytes(reversed(vec))
    except ValueError:  # an entry outside [0, 256)
        entries = bytes([x & 1 for x in reversed(vec)])
    return int(entries.translate(_PARITY_DIGITS) or b"0", 2)


def _unpack(bits: int, width: int) -> tuple[int, ...]:
    """The first width bits of bits as a tuple of 0s and 1s."""
    if not width:
        return ()
    # the binary digits, least significant first, turned into bytes 0 and 1
    return tuple(format(bits, f"0{width}b")[::-1].encode().translate(_DIGITS_TO_BYTES))


class PackedDigits:
    """Vectors of count residues mod p, each packed into one int.

    Entry j of a vector sits in one field of width bits, the first entry in
    the top field, so packed vectors order as their tuples do.  At p = 2 a
    field is one bit, add is XOR and neg is the identity.  At odd p the
    width w is p.bit_length() + 1, so H = 2^(w-1) > p: a field of a + b is
    at most 2p - 2 < 2^w and never carries into the next, and adding H - p
    to every field sets a field's top bit exactly where the field is p or
    more.  add subtracts p there; neg takes p - a field by field and
    reduces the same way.
    """

    def __init__(self, p: int, count: int):
        self.p = p
        self.count = count
        w = self.width = 1 if p == 2 else p.bit_length() + 1
        ones = ((1 << w * count) - 1) // ((1 << w) - 1)
        self._p_ones = p * ones
        self._high = ones << (w - 1)
        self._bias = self._high - self._p_ones
        self.add = operator.xor if p == 2 else self._add

    def pack(self, vec) -> int:
        """The residues vec, count of them in [0, p), as one int."""
        if len(vec) != self.count:
            raise ValueError(f"vector length {len(vec)} != {self.count}")
        w = self.width
        code = 0
        for c in vec:
            code = (code << w) | c
        return code

    def unpack(self, code: int) -> tuple[int, ...]:
        """The residues packed in code, first entry first."""
        w = self.width
        mask = (1 << w) - 1
        return tuple((code >> w * k) & mask for k in range(self.count - 1, -1, -1))

    def _add(self, a: int, b: int) -> int:
        t = a + b
        return t - self.p * (((t + self._bias) & self._high) >> (self.width - 1))

    def neg(self, a: int) -> int:
        """The packed vector -a mod p."""
        # p·ONES - a has every field in [1, p], so no field borrows
        return a if self.p == 2 else self._add(self._p_ones, -a)


@dataclass(frozen=True)
class FpMatrix:
    """Dense matrix of residues in [0, p), row-major."""

    p: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(x % self.p for x in row) for row in self.rows)
        object.__setattr__(self, "rows", rows)
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("ragged rows")

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0


class RowReducer:
    """Incremental Gaussian elimination: feed vectors, keep an echelon form
    of their span.

    Pivots are searched in the first width columns.  A vector may carry
    more columns after those, such as a right-hand side or an identity
    block; they take part in every row operation but never hold a pivot.
    add() keeps a vector's residual, reduce(), as a new row when a pivot
    column of it is nonzero, scaled so that its pivot, its first nonzero
    entry, is 1.  Rows already kept are never touched, so a row is zero
    at the pivots of the rows kept before it.  reduce() walks the rows in
    the order they were kept: subtracting a row to clear its pivot leaves
    the earlier pivots zero and can change only later ones.  The
    coefficients that clear every pivot are unique, so the residual is
    too, in every column, extra columns included.

    At p = 2 the rows are packed ints, keyed by their pivot bit (the lowest
    set bit), and the lowest pivot bit set in a vector names the next row
    to XOR into it.  At other primes they are lists keyed by pivot column,
    in the order they were kept.
    """

    def __init__(self, p: int, width: int):
        self.p = p
        self.width = width
        self._length = width
        self._low = (1 << width) - 1
        self._rows: dict = {}
        self._pivot_bits = 0

    @property
    def rank(self) -> int:
        return len(self._rows)

    def reduce(self, vec) -> tuple[int, ...]:
        """vec minus the combination of kept rows that clears every pivot
        column: zero exactly on their span, and equal for two vectors
        exactly when they differ by a member of it.  Nothing is kept."""
        v = self._residual(vec)
        return _unpack(v, len(vec)) if self.p == 2 else tuple(v)

    def _residual(self, vec):
        # reduce() in the row representation
        if len(vec) < self.width or self._rows and len(vec) != self._length:
            raise ValueError(f"vector length {len(vec)} != {self._length}")
        p = self.p
        rows = self._rows
        if p == 2:
            v = _pack(vec)
            pivot_bits = self._pivot_bits
            hit = v & pivot_bits
            while hit:
                v ^= rows[hit & -hit]
                hit = v & pivot_bits
            return v
        v = [x % p for x in vec]
        for col, row in rows.items():
            factor = v[col]
            if factor:
                v = [(a - factor * b) % p for a, b in zip(v, row)]
        return v

    def add(self, vec) -> bool:
        """Add vec to the span; returns True when its residual, kept as the
        new row, was nonzero in the pivot columns."""
        v = self._residual(vec)
        self._length = len(vec)
        p = self.p
        if p == 2:
            if not v & self._low:
                return False
            bit = v & -v
            self._rows[bit] = v
            self._pivot_bits |= bit
            return True
        col = next((i for i in range(self.width) if v[i]), None)
        if col is None:
            return False
        inv = inv_mod(v[col], p)
        if inv != 1:
            v = [(x * inv) % p for x in v]
        self._rows[col] = v
        return True


def _unit(j: int, n: int) -> tuple[int, ...]:
    return (0,) * j + (1,) + (0,) * (n - 1 - j)


def solve(a: FpMatrix, b) -> tuple[int, ...] | None:
    """One solution x of a·x = b, with free variables set to 0, or None
    when the system is inconsistent.

    The columns of a are fed with identity tails, (a[:, j] | e_j), and
    (b | 0) is reduced: its residual is (b - a·x | -x) for the x that
    clears every pivot, and b lies in the column span exactly when the
    left half is zero.  A column that depends on earlier ones is not
    kept, so x is 0 there."""
    if len(b) != a.nrows:
        raise ValueError(f"right-hand side length {len(b)} != {a.nrows} rows")
    n = a.ncols
    reducer = RowReducer(a.p, a.nrows)
    for j, col in enumerate(zip(*a.rows)):
        reducer.add(col + _unit(j, n))
    r = reducer.reduce(tuple(b) + (0,) * n)
    if any(r[:a.nrows]):
        return None
    return tuple(-c % a.p for c in r[a.nrows:])


def invert(m: FpMatrix) -> FpMatrix:
    """Inverse of a square full-rank matrix: with the rows (m_i | e_i) kept,
    the residual of (e_j | 0) is (0 | -y) for the y with y·m = e_j, row j
    of m^-1."""
    d = m.nrows
    if d != m.ncols:
        raise SingularMatrixError(f"matrix is {d}x{m.ncols}, not square")
    reducer = RowReducer(m.p, d)
    for i, row in enumerate(m.rows):
        reducer.add(row + _unit(i, d))
    if reducer.rank != d:
        raise SingularMatrixError(f"matrix has rank {reducer.rank} < {d}")
    rows = (reducer.reduce(_unit(j, d) + (0,) * d)[d:] for j in range(d))
    return FpMatrix(m.p, tuple(tuple(-c for c in row) for row in rows))
