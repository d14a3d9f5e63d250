"""Exact dense linear algebra over the field of integers mod a prime p.

There is one elimination, RowReducer: incremental Gaussian elimination,
which keeps each row as it was reduced when it was added.  Every answer
is read as a residual against the kept rows (RowReducer.reduce): a
vector is in their span exactly when its residual is zero, and solve and
invert are residual reads too, of vectors carried with an identity
block; nothing in the package calls those two.

PackedDigits packs a whole vector of residues into one int, column 0 in
the top field, and every vector and row of RowReducer is packed so, at
every prime.  At p = 2 a field is one bit and a row operation is one XOR
of whole rows: the standard GF(2) technique (see M4RI in Albrecht, Bard
and Hart, "Algorithm 898: Efficient multiplication of dense matrices
over GF(2)", ACM TOMS 37(1), 2010).  At odd p a field is wide enough
that adding two vectors never carries from one field into the next, so
the sum mod p takes a few whole-int operations (SWAR, SIMD within a
register), and a row is kept with its negated doublings, so that
subtracting a multiple of it is a few such sums.  A caller that holds
its vectors packed adds and reduces them so (RowReducer.packed_add and
packed_residual), with no unpacking.  Matrices are small (a few hundred
rows at most in practice).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache

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


def check_prime(p: int):
    """Refuse (ValueError) a p that is not prime; a p too large for
    is_prime's exact test is refused with its error."""
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")


def exact_log(size: int, p: int) -> int | None:
    """r with p**r == size, for size >= 1; None when size is not a power of p."""
    r = 0
    while size % p == 0:
        size //= p
        r += 1
    return r if size == 1 else None


class SingularMatrixError(ValueError):
    """Inversion was asked of a matrix without full rank."""


# at p = 2 a vector's entries, one byte each, are read as binary digits
_PARITY_DIGITS = bytes.maketrans(bytes(range(256)), b"01" * 128)
_DIGITS_TO_BYTES = bytes.maketrans(b"01", b"\0\1")

# At odd p PackedDigits.pack and unpack shift one entry at a time up to this
# many entries, and take a longer vector in chunks of this many
_PACK_CHUNK = 64

# PackedDigits keeps its position codes up to this many; 32 cached
# instances then hold a few hundred kB of them at most
_KEPT_CODES = 256


class PackedDigits:
    """Vectors of count residues mod p, each packed into one int.

    Entry j of a vector sits in one field of width bits, the first entry in
    the top field, so packed vectors order as their tuples do.  At p = 2 a
    field is one bit, add is XOR and neg is the identity, and a vector is
    packed through its binary digits.  At odd p the width w is
    p.bit_length() + 1, so H = 2^(w-1) > p: a field of a + b is at most
    2p - 2 < 2^w and never carries into the next, and adding H - p to every
    field sets a field's top bit exactly where the field is p or more: add
    subtracts p there.  neg takes p - a field by field and reduces the same
    way, and mul(a, c) adds doublings of a.  The constants of that sum,
    bias (H - p in every field), high (H in every field) and top (the
    shift of H's bit in a field), are attributes at odd p, shared with
    constraint.compute_vo, which writes the same sum out in its candidate
    loop.  pack shifts the fields in one at a time and unpack shifts them
    out one at a time; for a count above _PACK_CHUNK both go a chunk at a
    time through one binary-digit string, so that each takes time linear
    in count.

    position_codes() lists the packed vector of every position, the count
    base-p digits of 0 .. p^count - 1.  packed_digits(p, count) shares one
    instance per (p, count).
    """

    def __init__(self, p: int, count: int):
        self.p = p
        self.count = count
        w = self.width = 1 if p == 2 else p.bit_length() + 1
        if p == 2:
            self.add = operator.xor
            self.neg = operator.pos  # the identity on ints
            self._binary = f"0{count}b"
            return
        ones = ((1 << w * count) - 1) // ((1 << w) - 1)
        # H - p and H in every field, and H's bit in a field
        self.high = ones << (w - 1)
        self.bias = self.high - p * ones
        self.top = w - 1
        self.add, self.neg = _swar(p, p * ones, self.bias, self.high, self.top)
        if count > _PACK_CHUNK:
            self.pack = self._pack_chunks
            self.unpack = self._unpack_chunks

    def pack(self, vec) -> int:
        """The entries of vec, count of them, reduced mod p, as one int."""
        if len(vec) != self.count:
            raise ValueError(f"vector length {len(vec)} != {self.count}")
        p = self.p
        if p == 2:
            try:
                entries = bytearray(vec)  # from a tuple, faster than bytes()
            except ValueError:  # an entry outside [0, 256)
                entries = bytearray([c & 1 for c in vec])
            # one byte per entry, its parity read as a binary digit
            return int(entries.translate(_PARITY_DIGITS) or b"0", 2)
        w = self.width
        code = 0
        for c in vec:
            code = (code << w) | c % p
        return code

    def _pack_chunks(self, vec) -> int:
        """pack at odd p for a count above _PACK_CHUNK, where one shift of
        a growing int per entry would be quadratic in count: the vector,
        padded in front with zeros to whole chunks, is packed a chunk at a
        time, and the chunks are read back together as binary digits."""
        if len(vec) != self.count:
            raise ValueError(f"vector length {len(vec)} != {self.count}")
        chunk = packed_digits(self.p, _PACK_CHUNK).pack
        vec = (0,) * (-self.count % _PACK_CHUNK) + tuple(vec)
        bits = f"0{_PACK_CHUNK * self.width}b"
        return int("".join([format(chunk(vec[i:i + _PACK_CHUNK]), bits)
                            for i in range(0, len(vec), _PACK_CHUNK)]), 2)

    def unpack(self, code: int) -> tuple[int, ...]:
        """The residues packed in code, first entry first."""
        count = self.count
        w = self.width
        if w == 1:
            if not count:
                return ()
            # the binary digits, turned into bytes 0 and 1
            return tuple(format(code, self._binary).encode().translate(_DIGITS_TO_BYTES))
        mask = (1 << w) - 1
        return tuple((code >> w * k) & mask for k in range(count - 1, -1, -1))

    def _unpack_chunks(self, code: int) -> tuple[int, ...]:
        """unpack at odd p for a count above _PACK_CHUNK, where one shift of
        the whole int per entry would be quadratic in count: the binary
        digits of code, padded in front with zeros to whole chunks, are
        read a chunk at a time, and each chunk is unpacked as above."""
        chunk = packed_digits(self.p, _PACK_CHUNK).unpack
        size = _PACK_CHUNK * self.width
        pad = -self.count % _PACK_CHUNK
        bits = format(code, f"0{(self.count + pad) * self.width}b")
        return tuple([c for i in range(0, len(bits), size)
                      for c in chunk(int(bits[i:i + size], 2))][pad:])

    def mul(self, a: int, c: int) -> int:
        """The packed vector c·a mod p, by doubling."""
        c %= self.p
        out = 0
        while c:
            if c & 1:
                out = self.add(out, a) if out else a
            c >>= 1
            if c:
                a = self.add(a, a)
        return out

    _codes = None

    def position_codes(self) -> list[int]:
        """The packed vector of each position, position i holding the
        base-p digits of i, most significant first.  The list is kept for
        the next call when it has at most _KEPT_CODES entries."""
        codes = self._codes
        if codes is not None:
            return codes
        w = self.width
        codes = [0]
        # built from the least significant digit up
        for shift in range(0, w * self.count, w):
            codes = [(v << shift) | c for v in range(self.p) for c in codes]
        if len(codes) <= _KEPT_CODES:
            self._codes = codes
        return codes


def _swar(p: int, p_ones: int, bias: int, high: int, top: int):
    """add(a, b) and neg(a) of packed vectors at odd p (see PackedDigits);
    p_ones holds p in every field."""

    def add(a: int, b: int) -> int:
        t = a + b
        # p off every field whose top bit t + bias sets
        return t - p * (((t + bias) & high) >> top)

    def neg(a: int) -> int:
        # p·ONES - a has every field in [1, p], so no field borrows
        return add(p_ones, -a)

    return add, neg


@lru_cache(maxsize=32)
def packed_digits(p: int, count: int) -> PackedDigits:
    """PackedDigits(p, count), built once while it is among the last 32
    asked for."""
    return PackedDigits(p, count)


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
    at the pivots of the rows kept before it.  The coefficients that clear
    every pivot are unique, so the residual is too, in every column, extra
    columns included.

    A vector is packed whole into one int, as packed_digits(p, length)
    packs it, column 0 in the top field; so is every row.  packed_add and
    packed_residual take a vector so packed; add packs its vector and
    hands it to packed_add, the one path that keeps a row.  A row is zero
    before its pivot, so in every field above it, and reduce() clears the
    highest pivot still set in the vector first: that changes only lower
    fields, so each pivot is cleared once at most, and a vector that is
    zero at every pivot meets no row.  At p = 2 a row is keyed by the bit
    length of its pivot, its highest set bit, and clearing a pivot is one
    XOR.  At odd p a row is kept as its negated doublings, -2^i·row for
    i < p.bit_length(), keyed by the shift of its pivot field, and a pivot
    holding f is cleared by adding the doublings at the set bits of f,
    popcount(f) SWAR additions.
    """

    def __init__(self, p: int, width: int):
        self.p = p
        self.width = width
        self._packing: PackedDigits | None = None  # the kept rows' packing
        self._rows: dict = {}
        self._pivot_bits = 0

    @property
    def rank(self) -> int:
        return len(self._rows)

    def reduce(self, vec) -> tuple[int, ...]:
        """vec minus the combination of kept rows that clears every pivot
        column: zero exactly on their span, and equal for two vectors
        exactly when they differ by a member of it.  Nothing is kept."""
        if len(vec) < self.width:
            raise ValueError(f"vector length {len(vec)} < {self.width}")
        # once a row is kept, its packing's pack refuses any other length
        packing = self._packing if self._rows else packed_digits(self.p, len(vec))
        return packing.unpack(self.packed_residual(packing.pack(vec)))

    def packed_residual(self, v: int) -> int:
        """reduce(vec) for vec given packed, as the kept rows' packing
        packs it, packed the same way; with no row kept, v itself."""
        pivot_bits = self._pivot_bits
        hit = v & pivot_bits
        if not hit:
            return v
        rows = self._rows
        if self.p == 2:
            while hit:
                v ^= rows[hit.bit_length()]
                hit = v & pivot_bits
            return v
        packing = self._packing
        add = packing.add
        w = packing.width
        mask = (1 << w) - 1
        while hit:
            shift = (hit.bit_length() - 1) // w * w
            negs = rows[shift]
            f = (v >> shift) & mask
            i = 0
            while f:
                if f & 1:
                    v = add(v, negs[i])
                f >>= 1
                i += 1
            hit = v & pivot_bits
        return v

    def add(self, vec) -> bool:
        """Add vec to the span; returns True when its residual, kept as the
        new row, was nonzero in the pivot columns.  vec is packed and
        handed to packed_add."""
        length = len(vec)
        return self.packed_add(packed_digits(self.p, length).pack(vec), length)

    def packed_add(self, v: int, length: int) -> bool:
        """add(vec) for vec of length entries given packed, as
        packed_digits(p, length) packs it: the same rows, pivots and
        scaling.  Once a row is kept, every vector added has its length."""
        if length < self.width:
            raise ValueError(f"vector length {length} < {self.width}")
        packing = self._packing
        if packing is None:
            packing = packed_digits(self.p, length)
        elif length != packing.count:
            raise ValueError(f"vector length {length} != {packing.count}")
        v = self.packed_residual(v)
        w = packing.width
        if not v >> (length - self.width) * w:
            return False
        self._packing = packing
        top = v.bit_length()
        if self.p == 2:
            self._rows[top] = v
            self._pivot_bits |= 1 << (top - 1)
            return True
        p = self.p
        shift = (top - 1) // w * w  # the pivot field's, the top nonzero one
        f = v >> shift
        # -row, the multiple of v whose pivot is p - 1, and its doublings
        neg = packing.mul(v, -pow(f, -1, p))
        negs = [neg]
        for _ in range(p.bit_length() - 1):
            neg = packing.add(neg, neg)
            negs.append(neg)
        self._rows[shift] = negs
        self._pivot_bits |= ((1 << w) - 1) << shift
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
