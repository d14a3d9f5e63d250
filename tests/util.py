"""Shared helpers for the test suite: the 8-point worked example and small
brute-force oracles kept independent of the library's solving path."""

from __future__ import annotations

from gcsolve.fpalg import FpMatrix, SingularMatrixError
from gcsolve.perm import Permutation, compose


def eight_point_gens():
    """The 8-point generators used throughout: three commuting involutions
    whose group is regular on {1..8}."""
    g1 = Permutation.from_cycles(8, [(1, 2), (3, 4), (5, 6), (7, 8)])
    g2 = Permutation.from_cycles(8, [(1, 5), (2, 6), (3, 7), (4, 8)])
    g3 = Permutation.from_cycles(8, [(1, 3), (2, 4), (5, 7), (6, 8)])
    return g1, g2, g3


def group_closure(gens, n, cap=100_000):
    """All elements of <gens> by breadth-first multiplication."""
    ident = Permutation.identity(n)
    seen = {ident.images: ident}
    frontier = [ident]
    while frontier:
        new = []
        for u in frontier:
            for g in gens:
                w = compose(u, g)
                if w.images not in seen:
                    if len(seen) >= cap:
                        raise RuntimeError(f"group larger than cap {cap}")
                    seen[w.images] = w
                    new.append(w)
        frontier = new
    return list(seen.values())


def bfs_orbits(gens, n):
    """Orbit blocks via point-by-point breadth-first search over the
    generator images (no group enumeration)."""
    unseen = set(range(1, n + 1))
    blocks = []
    while unseen:
        start = min(unseen)
        orbit = {start}
        queue = [start]
        while queue:
            a = queue.pop()
            for g in gens:
                b = g.image(a)
                if b not in orbit:
                    orbit.add(b)
                    queue.append(b)
        blocks.append(tuple(sorted(orbit)))
        unseen -= orbit
    return tuple(sorted(blocks, key=lambda b: b[0]))


def satisfies_pointwise(inst, g):
    """Direct reading of the constraint: a^g in C(a) for every point."""
    return all(g.image(a) in inst.cmap[a] for a in range(1, inst.n + 1))


def constraint_k(inst):
    """k of a k-constraint: the largest constraint set among the points
    constrained to a proper subset of their orbit, 0 when there is none."""
    return max((len(inst.cmap[a]) for a in inst.constrained_points()), default=0)


# -- schoolbook elimination over F_p, a reference for fpalg ------------------


def schoolbook_rref(rows, p, pivot_width):
    """Reduce rows (lists of residues) in place to reduced row echelon form
    by column-by-column Gauss-Jordan; returns the pivot columns.

    Pivots are searched top-down in the first pivot_width columns; row
    operations span the full width, so augmented columns come along.
    """
    nrows = len(rows)
    pivots = []
    r = 0
    for col in range(pivot_width):
        pivot = next((i for i in range(r, nrows) if rows[i][col] % p), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = pow(rows[r][col], p - 2, p)
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


def schoolbook_rank(vecs, p, width):
    return len(schoolbook_rref([[x % p for x in v] for v in vecs], p, width))


def schoolbook_solve(a, b):
    """fpalg.solve's answer for the FpMatrix a: free variables 0, None when
    inconsistent."""
    p, n = a.p, a.ncols
    rows = [list(row) + [bi % p] for row, bi in zip(a.rows, b)]
    pivots = schoolbook_rref(rows, p, n)
    if any(row[n] for row in rows[len(pivots):]):
        return None
    x = [0] * n
    for row, col in zip(rows, pivots):
        x[col] = row[n]
    return tuple(x)


def schoolbook_invert(m):
    """fpalg.invert's answer for the FpMatrix m, by reducing [m | I]."""
    d = m.nrows
    if d != m.ncols:
        raise SingularMatrixError(f"matrix is {d}x{m.ncols}, not square")
    rows = [list(r) + [int(i == j) for j in range(d)] for i, r in enumerate(m.rows)]
    pivots = schoolbook_rref(rows, m.p, d)
    if len(pivots) != d:
        raise SingularMatrixError(f"matrix has rank {len(pivots)} < {d}")
    return FpMatrix(m.p, tuple(tuple(r[d:]) for r in rows))
