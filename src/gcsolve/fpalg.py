"""Exact dense linear algebra over the field of integers mod a prime p.

Matrices are small (a few hundred rows at most in practice), so everything
is plain row-major lists of residues with schoolbook elimination.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


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

    def mat_vec(self, v) -> tuple[int, ...]:
        if len(v) != self.ncols:
            raise ValueError(f"vector length {len(v)} != {self.ncols} columns")
        p = self.p
        return tuple(sum(a * b for a, b in zip(row, v)) % p for row in self.rows)

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


def solve(a: FpMatrix, b) -> tuple[int, ...] | None:
    """One solution x of a·x = b, with free variables set to 0, or None
    when the system is inconsistent (pivot in the augmented column)."""
    if len(b) != a.nrows:
        raise ValueError(f"right-hand side length {len(b)} != {a.nrows} rows")
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


def invert(m: FpMatrix) -> FpMatrix:
    """Inverse of a square full-rank matrix by Gauss-Jordan elimination."""
    d = m.nrows
    if d != m.ncols:
        raise SingularMatrixError(f"matrix is {m.nrows}x{m.ncols}, not square")
    rows = [list(r) + [1 if i == j else 0 for j in range(d)] for i, r in enumerate(m.rows)]
    pivots = _eliminate(rows, m.p, d)
    if len(pivots) != d:
        raise SingularMatrixError(f"matrix has rank {len(pivots)} < {d}")
    return FpMatrix(m.p, tuple(tuple(r[d:]) for r in rows))


class RowReducer:
    """Incremental rank tracker: feed vectors, keep an echelon basis.

    add() reduces the vector against the rows seen so far and keeps it when
    a nonzero residue remains, so rank grows by at most one per call.
    """

    def __init__(self, p: int, width: int):
        self.p = p
        self.width = width
        self.pivot_rows: list[list[int]] = []
        self.pivot_cols: list[int] = []

    @property
    def rank(self) -> int:
        return len(self.pivot_rows)

    def residue(self, vec) -> list[int]:
        """vec reduced against the stored echelon rows."""
        p = self.p
        v = [x % p for x in vec]
        for row, col in zip(self.pivot_rows, self.pivot_cols):
            factor = v[col]
            if factor:
                v = [(a - factor * b) % p for a, b in zip(v, row)]
        return v

    def contains(self, vec) -> bool:
        return not any(self.residue(vec))

    def add(self, vec) -> bool:
        """Add vec to the span; returns True when it was independent."""
        if len(vec) != self.width:
            raise ValueError(f"vector length {len(vec)} != {self.width}")
        v = self.residue(vec)
        col = next((i for i, x in enumerate(v) if x), None)
        if col is None:
            return False
        inv = inv_mod(v[col], self.p)
        if inv != 1:
            v = [(x * inv) % self.p for x in v]
        self.pivot_rows.append(v)
        self.pivot_cols.append(col)
        return True
