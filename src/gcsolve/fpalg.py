"""Exact dense linear algebra over the field of integers mod a prime p.

There is one elimination, RowReducer; solve and invert feed it augmented
rows and read its reduced row echelon form.  Its rows follow p.  At p = 2
a row is one Python int with bit j holding column j, so a row operation is
one XOR of whole rows and a dot product is the parity of a bit count: the
standard GF(2) technique (see M4RI in Albrecht, Bard and Hart, "Algorithm
898: Efficient multiplication of dense matrices over GF(2)", ACM TOMS
37(1), 2010).  At other primes a row is a plain list of residues and
elimination is schoolbook.  The reduced row echelon form is unique, so
every result is the same in either representation.  Matrices are small (a
few hundred rows at most in practice).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

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


@lru_cache(maxsize=None)
def _inverse_table(p: int) -> tuple[int, ...]:
    # index 0 unused; p is prime so Fermat exponentiation works
    return (0,) + tuple(pow(x, p - 2, p) for x in range(1, p))


def inv_mod(x: int, p: int) -> int:
    """Multiplicative inverse of a nonzero residue."""
    if x % p == 0:
        raise ZeroDivisionError(f"0 has no inverse mod {p}")
    return _inverse_table(p)[x % p]


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

    @cached_property
    def _packed(self) -> tuple[int, ...]:
        """The rows packed as ints (p = 2 only)."""
        return tuple(_pack(row) for row in self.rows)

    def mat_vec(self, v) -> tuple[int, ...]:
        if len(v) != self.ncols:
            raise ValueError(f"vector length {len(v)} != {self.ncols} columns")
        p = self.p
        if p == 2:
            x = _pack(v)
            return tuple((row & x).bit_count() & 1 for row in self._packed)
        return tuple(sum(a * b for a, b in zip(row, v)) % p for row in self.rows)


class RowReducer:
    """Incremental Gauss-Jordan elimination: feed vectors, keep the reduced
    row echelon form of their span.

    Pivots are searched in the first width columns.  A vector may carry
    more columns after those, such as a right-hand side or an identity
    block; they take part in every row operation but never hold a pivot.
    add() reduces the vector against the kept rows and keeps it when a
    pivot column stays nonzero, so rank grows by at most one per call.
    The new row is scaled so that its pivot, its first nonzero entry, is 1,
    and cleared from the older rows, so that no kept row has a nonzero
    entry at another row's pivot.  A vector that reduces to zero in the
    pivot columns but not after them sets `inconsistent`.

    At p = 2 the rows are packed ints, keyed by their pivot bit (the lowest
    set bit), and the set pivot bits of a vector name exactly the rows to
    XOR into it.  At other primes they are lists keyed by pivot column.
    """

    def __init__(self, p: int, width: int):
        self.p = p
        self.width = width
        self.inconsistent = False
        self._length = width
        self._low = (1 << width) - 1
        self._rows: dict = {}
        self._pivot_bits = 0

    @property
    def rank(self) -> int:
        return len(self._rows)

    def add(self, vec) -> bool:
        """Add vec to the span; returns True when it was independent in the
        pivot columns."""
        if len(vec) < self.width or self._rows and len(vec) != self._length:
            raise ValueError(f"vector length {len(vec)} != {self._length}")
        self._length = len(vec)
        if self.p == 2:
            return self._add_bits(_pack(vec))
        return self._add_list([x % self.p for x in vec])

    def _add_bits(self, v: int) -> bool:
        rows = self._rows
        hit = v & self._pivot_bits
        while hit:
            bit = hit & -hit
            v ^= rows[bit]
            hit ^= bit
        if not v & self._low:
            self.inconsistent |= v != 0
            return False
        bit = v & -v
        for b, other in rows.items():
            if other & bit:
                rows[b] = other ^ v
        rows[bit] = v
        self._pivot_bits |= bit
        return True

    def _add_list(self, v: list[int]) -> bool:
        p = self.p
        rows = self._rows
        for col, row in rows.items():
            factor = v[col]
            if factor:
                v = [(a - factor * b) % p for a, b in zip(v, row)]
        col = next((i for i in range(self.width) if v[i]), None)
        if col is None:
            self.inconsistent |= any(v)
            return False
        inv = inv_mod(v[col], p)
        if inv != 1:
            v = [(x * inv) % p for x in v]
        for c, other in rows.items():
            factor = other[col]
            if factor:
                rows[c] = [(a - factor * b) % p for a, b in zip(other, v)]
        rows[col] = v
        return True

    def echelon(self) -> dict[int, tuple[int, ...]]:
        """The kept rows, extra columns included, keyed by pivot column."""
        if self.p == 2:
            return {bit.bit_length() - 1: _unpack(row, self._length)
                    for bit, row in self._rows.items()}
        return {col: tuple(row) for col, row in self._rows.items()}


def solve(a: FpMatrix, b) -> tuple[int, ...] | None:
    """One solution x of a·x = b, with free variables set to 0, or None
    when the system is inconsistent (pivot in the augmented column)."""
    if len(b) != a.nrows:
        raise ValueError(f"right-hand side length {len(b)} != {a.nrows} rows")
    n = a.ncols
    reducer = RowReducer(a.p, n)
    for row, bi in zip(a.rows, b):
        reducer.add(row + (bi,))
    if reducer.inconsistent:
        return None
    x = [0] * n
    for col, row in reducer.echelon().items():
        x[col] = row[n]
    return tuple(x)


def invert(m: FpMatrix) -> FpMatrix:
    """Inverse of a square full-rank matrix: [m | I] reduces to [I | m^-1]."""
    d = m.nrows
    if d != m.ncols:
        raise SingularMatrixError(f"matrix is {d}x{m.ncols}, not square")
    reducer = RowReducer(m.p, d)
    for i, row in enumerate(m.rows):
        reducer.add(row + (0,) * i + (1,) + (0,) * (d - 1 - i))
    if reducer.rank != d:
        raise SingularMatrixError(f"matrix has rank {reducer.rank} < {d}")
    rows = reducer.echelon()
    return FpMatrix(m.p, tuple(rows[c][d:] for c in range(d)))
