"""Exact dense linear algebra over the field of integers mod a prime p.

The representation follows p.  At p = 2 a row is one Python int with bit j
holding column j, so a row operation is one XOR of whole rows and a dot
product is the parity of a bit count: the standard GF(2) technique (see
M4RI in Albrecht, Bard and Hart, "Algorithm 898: Efficient multiplication
of dense matrices over GF(2)", ACM TOMS 37(1), 2010).  At other primes a
row is a plain list of residues and elimination is schoolbook.  Both give
the same reduced row echelon form, which is unique, so every result is the
same whichever code computes it.  Matrices are small (a few hundred rows at
most in practice).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
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


# -- rows as lists of residues, for any p -----------------------------------


def _eliminate(rows: list[list[int]], p: int, pivot_width: int):
    """In-place reduced row echelon form; returns pivot column list.

    Pivots are searched top-down in the first pivot_width columns; row
    operations always span the full width, so callers can append augmented
    columns.
    """
    nrows = len(rows)
    pivots = []
    r = 0
    for col in range(pivot_width):
        pivot = next((i for i in range(r, nrows) if rows[i][col] % p), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = inv_mod(rows[r][col], p)
        if inv != 1:
            rows[r] = [(x * inv) % p for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][col] % p:
                factor = rows[i][col]
                rows[i] = [(a - factor * b) % p for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    return pivots


def _solve_lists(a: FpMatrix, b) -> tuple[int, ...] | None:
    p = a.p
    rows = [list(row) + [bi % p] for row, bi in zip(a.rows, b)]
    if not rows:
        return (0,) * a.ncols
    pivots = _eliminate(rows, p, a.ncols)
    for i in range(len(pivots), len(rows)):
        if rows[i][a.ncols] % p:
            return None
    x = [0] * a.ncols
    for r, col in enumerate(pivots):
        x[col] = rows[r][a.ncols]
    return tuple(x)


def _invert_lists(m: FpMatrix) -> FpMatrix:
    d = m.nrows
    rows = [list(r) + [1 if i == j else 0 for j in range(d)] for i, r in enumerate(m.rows)]
    pivots = _eliminate(rows, m.p, d)
    if len(pivots) != d:
        raise SingularMatrixError(f"matrix has rank {len(pivots)} < {d}")
    return FpMatrix(m.p, tuple(tuple(r[d:]) for r in rows))


# -- F_2 rows packed into ints ----------------------------------------------


_BYTES_TO_DIGITS = bytes.maketrans(b"\0\1", b"01")
_DIGITS_TO_BYTES = bytes.maketrans(b"01", b"\0\1")


def _pack(vec) -> int:
    """The residues of vec mod 2 as one int, bit j holding vec[j] mod 2."""
    # one byte 0 or 1 per entry, most significant first, read as binary
    return int(bytes([x & 1 for x in reversed(vec)]).translate(_BYTES_TO_DIGITS) or b"0", 2)


def _unpack(bits: int, width: int) -> tuple[int, ...]:
    """The first width bits of bits as a tuple of 0s and 1s."""
    if not width:
        return ()
    # the binary digits, least significant first, turned into bytes 0 and 1
    return tuple(format(bits, f"0{width}b")[::-1].encode().translate(_DIGITS_TO_BYTES))


def _eliminate_bits(rows, width: int) -> tuple[dict[int, int], int]:
    """Reduced row echelon form over F_2 of packed rows, pivots searched in
    the low width bits; the bits above them are carried along, so callers
    can append augmented columns.

    Returns the pivot rows keyed by their pivot bit, and the OR of the rows
    left without a pivot (nonzero only in the augmented bits).  Each new
    row is cleared at the current pivots, takes its lowest remaining bit as
    its pivot, and is then cleared from the older pivot rows.  So every
    pivot row keeps its pivot as its lowest bit and holds no other pivot:
    the form is reduced after every row, and clearing a pivot with one XOR
    never sets another.
    """
    low = (1 << width) - 1
    pivots: dict[int, int] = {}
    pivot_bits = 0
    rest = 0
    for row in rows:
        hit = row & pivot_bits
        while hit:
            bit = hit & -hit
            row ^= pivots[bit]
            hit ^= bit
        if not row & low:
            rest |= row
            continue
        bit = row & -row
        for b, other in pivots.items():
            if other & bit:
                pivots[b] = other ^ row
        pivots[bit] = row
        pivot_bits |= bit
    return pivots, rest


def _solve_bits(a: FpMatrix, b) -> tuple[int, ...] | None:
    n = a.ncols
    pivots, rest = _eliminate_bits((row | (bi & 1) << n for row, bi in zip(a._packed, b)), n)
    if rest:
        return None
    x = [0] * n
    for bit, row in pivots.items():
        x[bit.bit_length() - 1] = row >> n & 1
    return tuple(x)


def _invert_bits(m: FpMatrix) -> FpMatrix:
    d = m.nrows
    pivots, _ = _eliminate_bits((row | 1 << (d + i) for i, row in enumerate(m._packed)), d)
    if len(pivots) != d:
        raise SingularMatrixError(f"matrix has rank {len(pivots)} < {d}")
    return FpMatrix(2, tuple(_unpack(pivots[1 << c] >> d, d) for c in range(d)))


# -- entry points: the representation follows p -----------------------------


def solve(a: FpMatrix, b) -> tuple[int, ...] | None:
    """One solution x of a·x = b, with free variables set to 0, or None
    when the system is inconsistent (pivot in the augmented column)."""
    if len(b) != a.nrows:
        raise ValueError(f"right-hand side length {len(b)} != {a.nrows} rows")
    return _solve_bits(a, b) if a.p == 2 else _solve_lists(a, b)


def invert(m: FpMatrix) -> FpMatrix:
    """Inverse of a square full-rank matrix by Gauss-Jordan elimination."""
    if m.nrows != m.ncols:
        raise SingularMatrixError(f"matrix is {m.nrows}x{m.ncols}, not square")
    return _invert_bits(m) if m.p == 2 else _invert_lists(m)


class RowReducer:
    """Incremental rank tracker: feed vectors, keep an echelon basis.

    add() reduces the vector against the rows seen so far and keeps it when
    a nonzero residue remains, so rank grows by at most one per call.  Each
    kept row is scaled so that its first nonzero entry, its pivot, is 1.
    At p = 2 the rows are packed ints and a pivot is the row's lowest set
    bit; at other primes they are lists and a pivot is a column index.
    """

    def __init__(self, p: int, width: int):
        self.p = p
        self.width = width
        self._rows: list = []
        self._pivots: list[int] = []

    @property
    def rank(self) -> int:
        return len(self._rows)

    def _residue(self, vec):
        """vec reduced against the stored rows, in their representation;
        falsy exactly when vec lies in their span."""
        p = self.p
        if p == 2:
            v = _pack(vec)
            for row, bit in zip(self._rows, self._pivots):
                if v & bit:
                    v ^= row
            return v
        v = [x % p for x in vec]
        for row, col in zip(self._rows, self._pivots):
            factor = v[col]
            if factor:
                v = [(a - factor * b) % p for a, b in zip(v, row)]
        return v if any(v) else []

    def contains(self, vec) -> bool:
        return not self._residue(vec)

    def add(self, vec) -> bool:
        """Add vec to the span; returns True when it was independent."""
        if len(vec) != self.width:
            raise ValueError(f"vector length {len(vec)} != {self.width}")
        v = self._residue(vec)
        if not v:
            return False
        if self.p == 2:
            self._rows.append(v)
            self._pivots.append(v & -v)
            return True
        col = next(i for i, x in enumerate(v) if x)
        inv = inv_mod(v[col], self.p)
        if inv != 1:
            v = [(x * inv) % self.p for x in v]
        self._rows.append(v)
        self._pivots.append(col)
        return True
