"""Shared helpers for the test suite: the 8-point worked example and small
brute-force oracles kept independent of the library's solving path."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from hypothesis import strategies as st

from gcsolve.constraint import UNSAT_INCONSISTENT, SolveOutcome, normalize
from gcsolve.fpalg import FpMatrix, SingularMatrixError, is_prime
from gcsolve.frame import FrameError, NotInSuperspaceError, build_frame, translation_positions
from gcsolve.genbench import GenConfig, gen_instance
from gcsolve.instfile import InstanceFormatError
from gcsolve.perm import MAX_N, Permutation, compose


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
    orbits = inst.orbits
    # C(a) is contained in the orbit, so proper subset = smaller size
    return max((len(cset) for a, cset in inst.cmap.items()
                if len(cset) < len(orbits.blocks[orbits.block_index(a)])), default=0)


def schoolbook_translation_perm(p, dims, vector):
    """The translation of consecutive blocks of points, block i a copy of
    F_p^dims[i] numbered in lex order, each by the matching slice of
    vector: built block by block, one translation_positions call per
    block and no table."""
    images: list[int] = []
    lo = 0
    for d in dims:
        off = len(images)
        images.extend(off + i + 1 for i in translation_positions(vector[lo:lo + d], p))
        lo += d
    return Permutation(tuple(images))


# -- tuple arithmetic on tables rebuilt from lex, a reference for positions --


@st.composite
def relabelled_frames(draw):
    """(frame, instance, element of the superspace) at p in {2, 3, 5}: up to
    three orbits of dimension 1-3 (1-2 at p = 5) from gen_instance, up to
    two fixed points, every point relabelled at random, and a constraint
    map drawn around the superspace element's images or at random."""
    p = draw(st.sampled_from((2, 3, 5)))
    dims = tuple(draw(st.lists(st.integers(1, 2 if p == 5 else 3), min_size=1, max_size=3)))
    seed = draw(st.integers(0, 2**32))
    gens = gen_instance(GenConfig(p=p, seed=seed, dims=dims)).instance.gens
    moved = sum(p**d for d in dims)
    n = moved + draw(st.integers(0, 2))
    label = draw(st.permutations(range(1, n + 1)))

    def relabelled(images):
        # the image of label[a] is label[images[a]]; points past the
        # orbits are fixed
        out = [0] * n
        for a in range(1, n + 1):
            b = images[a - 1] if a <= moved else a
            out[label[a - 1] - 1] = label[b - 1]
        return Permutation(tuple(out))

    vec = draw(st.lists(st.integers(0, p - 1), min_size=sum(dims), max_size=sum(dims)))
    w = relabelled(schoolbook_translation_perm(p, dims, vec).images)
    planted = draw(st.booleans())
    raw = []
    for a in draw(st.lists(st.integers(1, n), max_size=6)):
        cset = set(draw(st.lists(st.integers(1, n), max_size=4)))
        raw.append((a, cset | {w.image(a)} if planted else cset))
    gens = [relabelled(g.images) for g in gens]
    return build_frame(n, gens, p), normalize(raw, n, gens, p), w


def lex_tables(of, p):
    """The coordinate tables of an orbit, rebuilt from of.lex alone:
    (point -> digit tuple, digit tuple -> point), where lex[i] has the
    i-th tuple of itertools.product, so no position arithmetic is used."""
    keys = list(itertools.product(range(p), repeat=of.dim))
    return dict(zip(of.lex, keys)), dict(zip(keys, of.lex))


def _shifted(tables, a, x, p):
    """The point whose coordinates are those of a plus x, in an orbit's
    lex_tables."""
    coords, point_of = tables
    return point_of[tuple((c + t) % p for c, t in zip(coords[a], x))]


def reference_coords(fr, u):
    """Frame.coords_of_perm by digit arithmetic: per orbit, x is read off
    the image of the origin and every point a must map to the point with
    coordinates coords[a] + x; the same errors, in the same order."""
    out = []
    for of in fr.orbit_frames:
        tables = lex_tables(of, fr.p)
        x = tables[0].get(u.image(of.origin))
        if x is None:
            raise NotInSuperspaceError(
                f"point {of.origin} leaves its orbit under the permutation")
        for a in of.points:
            if u.image(a) != _shifted(tables, a, x, fr.p):
                raise NotInSuperspaceError(
                    f"restriction to the orbit of {of.origin} is not in the constituent")
        out.extend(x)
    return tuple(out)


def reference_vo(fr, inst, orbit_index):
    """constraint.compute_vo by its definition: every vector x of the
    constituent, in lexicographic order, that maps each point a of the
    orbit to a point of C(a)."""
    of = fr.orbit_frames[orbit_index]
    tables = lex_tables(of, fr.p)
    return tuple(
        x for x in itertools.product(range(fr.p), repeat=of.dim)
        if all(_shifted(tables, a, x, fr.p) in inst.cmap[a] for a in of.points)
    )


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


def schoolbook_echelon(vecs, p, width):
    """RowReducer.echelon's answer for vecs: the reduced row echelon rows,
    pivots in the first width columns, keyed by pivot column."""
    rows = [[c % p for c in v] for v in vecs]
    pivots = schoolbook_rref(rows, p, width)
    return {col: tuple(row) for col, row in zip(pivots, rows)}


def schoolbook_residual(vecs, x, p, width=None):
    """x minus the combination of the reduced row echelon rows of vecs that
    clears x at every pivot column; pivots lie in the first width columns
    (all of them by default)."""
    rows = [[c % p for c in v] for v in vecs]
    pivots = schoolbook_rref(rows, p, len(x) if width is None else width)
    out = [c % p for c in x]
    for row, col in zip(rows, pivots):
        factor = out[col]
        out = [(a - factor * b) % p for a, b in zip(out, row)]
    return tuple(out)


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


def schoolbook_solve_linear(fr, m_g, lin):
    """constraint.solve_linear by the system it decides: x = w + B_E·mu
    lies in G exactly when (M_G·B_E)·mu = -M_G·w, d equations on dim E
    unknowns, solved with free variables 0 (schoolbook_solve).  m_g is a
    variety matrix of G (any one: the answer depends on its kernel only)."""
    p = fr.p
    cols = [m_g.product(e) for e in lin.e_basis]
    rows = tuple(tuple(col[i] for col in cols) for i in range(fr.dim))
    rhs = tuple(-y % p for y in m_g.product(lin.w))
    mu = schoolbook_solve(FpMatrix(p, rows), rhs)
    if mu is None:
        return SolveOutcome.unsat(UNSAT_INCONSISTENT, method="linear")
    x = list(lin.w)
    for c, e in zip(mu, lin.e_basis):
        x = [(a + c * b) % p for a, b in zip(x, e)]
    return SolveOutcome.sat(fr.perm_of_coords(x), "linear")


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


@dataclass(frozen=True)
class SchoolbookVariety:
    """A d x d matrix M with the VarietyMatrix interface: products are list
    dot products of M's rows."""

    p: int
    rows: tuple[tuple[int, ...], ...]
    dim_sub: int

    def product(self, x):
        return tuple(sum(a * b for a, b in zip(row, x)) % self.p for row in self.rows)

    def contains(self, x):
        return not any(self.product(x))


def schoolbook_variety_matrix(fr, basis):
    """A variety matrix of the span of basis built by inversion: the basis
    is completed with unit vectors, left to right, to a change of basis P,
    and M is P's inverse with the rows of the basis coordinates zeroed.
    Its kernel, and so its row space, is that of Frame.variety_matrix,
    though its products are not the residuals that one gives."""
    p, d = fr.p, fr.dim
    columns = [tuple(v) for v in basis]
    if schoolbook_rank(columns, p, d) != len(columns):
        raise FrameError("subspace basis is linearly dependent")
    for i in range(d):
        unit = tuple(int(j == i) for j in range(d))
        if schoolbook_rank(columns + [unit], p, d) > len(columns):
            columns.append(unit)
    inv = schoolbook_invert(FpMatrix(p, tuple(zip(*columns)))).rows
    rows = tuple((0,) * d if i < len(basis) else inv[i] for i in range(d))
    return SchoolbookVariety(p, rows, len(basis))


# -- the instance parser token by token, a reference for instfile -------------


def reference_parse_instance(text):
    """instfile.parse_instance as it read every point token with int() and
    range-checked it on its own, before the table of canonical names: the
    same instances, and the same errors on the same lines."""
    lines = ((i, line.split()) for i, line in enumerate(text.splitlines(), start=1))
    lines = ((i, tokens) for i, tokens in lines if tokens)

    def take(expect):
        try:
            lineno, tokens = next(lines)
        except StopIteration:
            raise InstanceFormatError(f"unexpected end of file, expected `{expect}`") from None
        if tokens[0] != expect:
            raise InstanceFormatError(f"expected `{expect}`, found `{tokens[0]}`", lineno)
        return lineno, tokens

    def int_field(what):
        lineno, tokens = take(what)
        if len(tokens) != 2:
            raise InstanceFormatError(f"expected `{what} <int>`", lineno)
        try:
            return lineno, int(tokens[1])
        except ValueError:
            raise InstanceFormatError(f"{what} is not an integer", lineno) from None

    lineno, tokens = take("gc")
    if tokens[1:] != ["1"]:
        raise InstanceFormatError("unsupported format version, expected `gc 1`", lineno)
    lineno, p = int_field("p")
    try:
        prime = is_prime(p)
    except ValueError as exc:
        raise InstanceFormatError(str(exc), lineno) from None
    if not prime:
        raise InstanceFormatError(f"p = {p} is not prime", lineno)
    lineno, n = int_field("n")
    if n < 0:
        raise InstanceFormatError("n must be nonnegative", lineno)
    if n > MAX_N:
        raise InstanceFormatError(f"n = {n} exceeds the limit {MAX_N}", lineno)
    lineno, m = int_field("m")
    if m < 0:
        raise InstanceFormatError("m must be nonnegative", lineno)
    gens = []
    for _ in range(m):
        lineno, tokens = take("g")
        try:
            images = tuple(map(int, tokens[1:]))
        except ValueError:
            raise InstanceFormatError("generator images must be integers", lineno) from None
        if len(images) != n:
            raise InstanceFormatError(f"generator has {len(images)} images, expected {n}", lineno)
        try:
            gens.append(Permutation(images))
        except ValueError as exc:
            raise InstanceFormatError(str(exc), lineno) from None
    raw = []
    for lineno, tokens in lines:
        if tokens[0] != "c":
            raise InstanceFormatError(f"expected `c` line, found `{tokens[0]}`", lineno)
        if len(tokens) < 3 or tokens[2] != ":":
            raise InstanceFormatError("expected `c <point> : <points...>`", lineno)
        try:
            point = int(tokens[1])
            members = list(map(int, tokens[3:]))
        except ValueError:
            raise InstanceFormatError("constraint points must be integers", lineno) from None
        if not 1 <= point <= n:
            raise InstanceFormatError(f"constrained point {point} out of range 1..{n}", lineno)
        for b in members:
            if not 1 <= b <= n:
                raise InstanceFormatError(f"constraint value {b} out of range 1..{n}", lineno)
        raw.append((point, members))
    return normalize(raw, n, gens, p)
