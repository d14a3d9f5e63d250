"""Shared helpers for the test suite: the 8-point worked example and small
brute-force oracles kept independent of the library's solving path."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from hypothesis import strategies as st

from gcsolve.constraint import UNSAT_INCONSISTENT, SolveOutcome, compute_all_vo, normalize
from gcsolve.fpalg import (
    FpMatrix,
    PackedDigits,
    RowReducer,
    SingularMatrixError,
    is_prime,
    packed_digits,
)
from gcsolve.frame import FrameError, NotInSuperspaceError, build_frame, translation_positions
from gcsolve.genbench import GenConfig, GenResult, _draw_dims, gen_instance
from gcsolve.instfile import InstanceFormatError
from gcsolve.perm import MAX_N, Permutation, check_size, compose


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
    # C(a) is contained in the orbit, so proper subset = smaller size
    return max((len(cset) for a, cset in inst.cmap.items()
                if len(cset) < len(inst.orbit_of[a])), default=0)


def many_orbit_text(p, k, m):
    """An instance file of k orbits of p points each, orbit j holding
    p·j + 1 .. p·j + p, under m generators: generator i shifts orbit j by
    digit i of j + 1 in base p (at p = 2 it swaps pair j when bit i of
    j + 1 is set).  The one stated constraint is c 1 : 2, so every orbit
    but the first is free, and d = k while dim G <= m."""
    lines = [f"gc 1\np {p}\nn {p * k}\nm {m}"]
    for i in range(m):
        shifts = [(j + 1) // p**i % p for j in range(k)]
        images = [p * j + 1 + (t + s) % p for j, s in enumerate(shifts) for t in range(p)]
        lines.append("g " + " ".join(map(str, images)))
    lines.append("c 1 : 2\n")
    return "\n".join(lines)


def every_point_text(p, k):
    """An instance file of k orbits of p^2 points each, orbit j a copy of
    F_p^2 holding p^2·j + 1 .. p^2·j + p^2 in lex order of their vectors,
    with every point stated.  Generators 0 and 1 shift every orbit by
    (1, 0) and (0, 1); generator 2 + i shifts orbit j by digit i of j + 1
    in base p^2, read as the vector of its two base-p digits.  The point at
    u in orbit j must map into u + x_j + <e_j>, x_j orbit j's part of the
    sum of the digit generators and e_j the line of F_p^2 numbered j mod
    (p + 1), so every V_O is the affine line x_j + <e_j>, every E_O has
    rank 1, and that sum is a witness."""
    q = p * p
    digits = 1
    while q**digits <= k:
        digits += 1
    shifts = [[(1, 0)] * k, [(0, 1)] * k]
    shifts += [[divmod((j + 1) // q**i % q, p) for j in range(k)] for i in range(digits)]

    def point(j, u, s):
        # the point of orbit j at u + s, u a position and s a vector
        a, b = divmod(u, p)
        return q * j + 1 + (a + s[0]) % p * p + (b + s[1]) % p

    lines = [f"gc 1\np {p}\nn {q * k}\nm {len(shifts)}"]
    for row in shifts:
        lines.append("g " + " ".join(str(point(j, u, s)) for j, s in enumerate(row)
                                     for u in range(q)))
    directions = [(0, 1)] + [(1, c) for c in range(p)]
    for j in range(k):
        x = [sum(row[j][t] for row in shifts[2:]) % p for t in (0, 1)]
        e = directions[j % (p + 1)]
        for u in range(q):
            line = sorted(point(j, u, (x[0] + c * e[0], x[1] + c * e[1])) for c in range(p))
            lines.append(f"c {q * j + 1 + u} : " + " ".join(map(str, line)))
    return "\n".join(lines) + "\n"


def near_square_text(k):
    """An instance file of k two-point orbits at p = 2, pair j holding
    2j + 1 and 2j + 2, under k + 1 generators: generator i < k - 1 swaps
    pairs i and i + 1, generator k - 1 swaps pair k - 1 alone, so these k
    are independent, and generator k, the product of the first two, adds
    nothing.  Pair j is left free when j mod 3 is 0; its first point is
    sent to itself when it is 1 and to its partner when it is 2."""
    swapped = [(i, i + 1) for i in range(k - 1)] + [(k - 1,), (0, 2)]
    lines = [f"gc 1\np 2\nn {2 * k}\nm {k + 1}"]
    for pairs in swapped:
        images = list(range(1, 2 * k + 1))
        for j in pairs:
            images[2 * j:2 * j + 2] = 2 * j + 2, 2 * j + 1
        lines.append("g " + " ".join(map(str, images)))
    lines += [f"c {2 * j + 1} : {2 * j + j % 3}" for j in range(k) if j % 3]
    return "\n".join(lines) + "\n"


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


# -- splitmix64 one output per draw, a reference for the batched generator --

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(z):
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return z ^ (z >> 31)


class ScalarSplitMix64:
    """genbench.SplitMix64 as it computed each output when it was drawn:
    the same stream and the same methods, one mix per output."""

    def __init__(self, seed):
        self.state = seed & _MASK64

    def next_u64(self):
        self.state = (self.state + _GOLDEN) & _MASK64
        return _mix64(self.state)

    def below(self, n):
        if n <= 0:
            raise ValueError("below() needs a positive bound")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n

    def randint(self, lo, hi):
        return lo + self.below(hi - lo + 1)

    def uniform01(self):
        return (self.next_u64() >> 11) / float(1 << 53)

    def sample(self, seq, k):
        s = len(seq)
        if k >= s:
            return list(seq)
        if k > s // 2:
            pool = list(seq)
            for i in range(k):
                j = self.randint(i, s - 1)
                pool[i], pool[j] = pool[j], pool[i]
            return pool[:k]
        chosen = set()
        while len(chosen) < k:
            chosen.add(self.below(s))
        return [seq[i] for i in sorted(chosen)]


# -- the instance builders through normalize, a reference for their one pass --


def reference_one_in_k_brute(s):
    """reduction.one_in_k_brute as it built the set of every subset, in
    mask order, and intersected it with each clause: the same first
    satisfying subset, or None."""
    for mask in range(1 << len(s.sigma)):
        chosen = {v for i, v in enumerate(s.sigma) if mask >> i & 1}
        if all(len(chosen.intersection(c)) == 1 for c in s.clauses):
            return frozenset(chosen)
    return None


@dataclass(frozen=True)
class ReferenceReduction:
    """What a reference reduction gives, with its labels and point map
    built eagerly, point by point."""

    instance: object
    clause_set: object
    p: int
    kind: str
    labels: tuple[str, ...]
    _points: dict


def reference_reduce_1in_k(s, p):
    """reduction.reduce_1in_k as it numbered each point by a digit sum, made
    each set a Python set and passed the sets through normalize; the
    generators are built block by block (schoolbook_translation_perm)."""
    k = s.k
    block = p**k
    n = block * len(s.clauses)
    check_size(n)
    points = {}
    labels = []
    for t in range(len(s.clauses)):
        for w in itertools.product(range(p), repeat=k):
            points[(t, w)] = t * block + sum(x * p ** (k - 1 - i) for i, x in enumerate(w)) + 1
            labels.append(f"c{t}:" + "".join(map(str, w)))
    gens = [schoolbook_translation_perm(p, (k,) * len(s.clauses),
                                        [int(u == v) for clause in s.clauses for u in clause])
            for v in s.sigma]
    units = [translation_positions([int(j == i) for j in range(k)], p) for i in range(k)]
    cmap = {}
    for off in range(0, n, block):
        for r in range(block):
            cmap[off + r + 1] = {off + pos[r] + 1 for pos in units}
    inst = normalize(cmap.items(), n, gens, p)
    return ReferenceReduction(inst, s, p, "one-in-k", tuple(labels), points)


def reference_reduce_2cstr(s, p):
    """reduction.reduce_2cstr(strict=False) as it looked each point up by
    its key and passed Python sets through normalize."""
    n = p * (len(s.sigma) + len(s.clauses))
    check_size(n)
    points = {}
    labels = []
    idx = 0
    for v in s.sigma:
        for x in range(p):
            idx += 1
            points[("var", v, x)] = idx
            labels.append(f"{v}:{x}")
    for t in range(len(s.clauses)):
        for y in range(p):
            idx += 1
            points[("clause", t, y)] = idx
            labels.append(f"c{t}:{y}")
    gens = [schoolbook_translation_perm(
        p, (1,) * (len(s.sigma) + len(s.clauses)),
        [int(u == v) for u in s.sigma] + [int(v in clause) for clause in s.clauses])
        for v in s.sigma]
    cmap = {}
    for v in s.sigma:
        for x in range(p):
            cmap[points[("var", v, x)]] = {points[("var", v, x)], points[("var", v, (x + 1) % p)]}
    for t in range(len(s.clauses)):
        for y in range(p):
            cmap[points[("clause", t, y)]] = {points[("clause", t, (y + 1) % p)]}
    inst = normalize(cmap.items(), n, gens, p)
    return ReferenceReduction(inst, s, p, "two-cstr", tuple(labels), points)


def reference_gen_instance(cfg):
    """genbench.gen_instance as it drew Python sets and passed them through
    normalize: the same draws in the same order, each drawn one at a time
    (ScalarSplitMix64), the generators and the witness built block by block
    (schoolbook_translation_perm)."""
    rng = ScalarSplitMix64(cfg.seed)
    p = cfg.p
    dims = _draw_dims(cfg, rng)
    d = sum(dims)
    if cfg.dim_g is not None and not max(dims) <= cfg.dim_g <= d:
        raise ValueError(f"drawn dims {dims} cannot reach dim_g={cfg.dim_g}")
    dim_g = cfg.dim_g if cfg.dim_g is not None else rng.randint(max(dims), d)
    rows = None
    for _ in range(100_000):
        cand = [[rng.below(p) for _ in range(d)] for _ in range(dim_g)]
        total = RowReducer(p, d)
        if not all(total.add(row) for row in cand):
            continue
        lo = 0
        ok = True
        for di in dims:
            block = RowReducer(p, di)
            for row in cand:
                if block.add(row[lo:lo + di]) and block.rank == di:
                    break
            else:
                ok = False
                break
            lo += di
        if ok:
            rows = cand
            break
    if rows is None:
        raise ValueError(f"could not draw generators for {cfg}")
    gens = [schoolbook_translation_perm(p, dims, row) for row in rows]
    witness = None
    if rng.uniform01() < cfg.sat_bias:
        coeffs = [rng.below(p) for _ in range(dim_g)]
        witness_vec = [0] * d
        for c, row in zip(coeffs, rows):
            witness_vec = [(w + c * x) % p for w, x in zip(witness_vec, row)]
        witness = schoolbook_translation_perm(p, dims, witness_vec)
    cmap = {}
    off = 0
    for di in dims:
        size = p**di
        want = min(cfg.k, size)
        for a in range(off + 1, off + size + 1):
            cset = {witness.image(a)} if witness else set()
            while len(cset) < want:
                cset.add(off + 1 + rng.below(size))
            cmap[a] = cset
        off += size
    inst = normalize(cmap.items(), len(cmap), gens, p)
    return GenResult(inst, witness, dims, dim_g)


def assert_same_instance(inst, ref):
    """inst is ref, with the same constraints in the same key order, each a
    frozenset, and every stated point and member in 1..n."""
    assert (inst.p, inst.n, inst.gens) == (ref.p, ref.n, ref.gens)
    assert list(inst.constraints.items()) == list(ref.constraints.items())
    for a, cset in inst.constraints.items():
        assert type(cset) is frozenset
        assert 1 <= a <= inst.n and all(1 <= b <= inst.n for b in cset)


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


def pack_vos(fr, vos):
    """V_O sets given as digit tuples, one per orbit of fr from the first,
    in the form compute_vo gives: each member packed at its orbit's width
    (packed_digits(p, d_O)), in the order given."""
    return [tuple(map(packed_digits(fr.p, of.dim).pack, vo))
            for of, vo in zip(fr.orbit_frames, vos)]


def unpack_vos(fr, vos):
    """pack_vos undone: each member of V_O sets in compute_vo's form, one
    per orbit of fr from the first, as its digit tuple."""
    return [tuple(map(packed_digits(fr.p, of.dim).unpack, vo))
            for of, vo in zip(fr.orbit_frames, vos)]


def assert_vos_match_reference(fr, inst):
    """compute_all_vo on every orbit: members ascending, and as digit
    tuples the vectors reference_vo finds by the definition; returns the
    V_O sets as compute_all_vo gives them."""
    vos = compute_all_vo(fr, inst)
    for vo in vos:
        assert all(a < b for a, b in zip(vo, vo[1:]))
    assert unpack_vos(fr, vos) == [reference_vo(fr, inst, i) for i in range(len(fr.orbit_frames))]
    return vos


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


def schoolbook_e_basis(fr, vos):
    """A basis of E, the direct sum of the orbits' E_O, rebuilt from the
    V_O sets, given as compute_vo gives them and unpacked first: per
    orbit, the differences of V_O's vectors from its first one, padded
    with zeros outside the orbit's slice, each kept when it raises the
    rank (schoolbook_rank)."""
    p, d = fr.p, fr.dim
    basis = []
    for vo, (lo, hi) in zip(unpack_vos(fr, vos), fr.slices):
        for v in vo[1:]:
            e = (0,) * lo + tuple((a - b) % p for a, b in zip(v, vo[0])) + (0,) * (d - hi)
            if schoolbook_rank(basis + [e], p, d) > len(basis):
                basis.append(e)
    return basis


def schoolbook_solve_linear(fr, vos, w):
    """constraint.solve_linear by the system it decides: x = sum a_i g_i,
    over the generators' coordinates g_i, lies in w + E exactly when
    (M_E·[g_1 ... g_m])·a = M_E·w, d equations on m unknowns, solved with
    free variables 0 (schoolbook_solve).  M_E is a variety matrix of E
    built by inversion (schoolbook_variety_matrix) from E's basis rebuilt
    from the V_O sets vos, as compute_vo gives them (schoolbook_e_basis
    unpacks them); the answer depends on its kernel only."""
    p = fr.p
    m_e = schoolbook_variety_matrix(fr, schoolbook_e_basis(fr, vos))
    cols = [m_e.product(g) for g in fr.gen_coords]
    rows = tuple(tuple(col[i] for col in cols) for i in range(fr.dim))
    a = schoolbook_solve(FpMatrix(p, rows), m_e.product(w))
    if a is None:
        return SolveOutcome.unsat(UNSAT_INCONSISTENT, method="linear")
    x = [0] * fr.dim
    for c, g in zip(a, fr.gen_coords):
        x = [(s + c * b) % p for s, b in zip(x, g)]
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


@dataclass(frozen=True)
class SchoolbookResidual:
    """VarietyMatrix.packed_product as solve_product reads it: x given
    packed, its residual against the reduced row echelon form of vecs by
    list arithmetic (schoolbook_residual), packed the same way.  The
    product search reads the leading columns of a sum of residuals, so a
    matrix with the right kernel alone (schoolbook_variety_matrix) is not
    a reference for it."""

    p: int
    width: int
    vecs: tuple[tuple[int, ...], ...]

    def packed_product(self, code):
        packing = PackedDigits(self.p, self.width)
        return packing.pack(schoolbook_residual(self.vecs, packing.unpack(code), self.p))


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
