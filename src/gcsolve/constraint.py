"""Group-constraint instances and solvers.

An instance asks for an element g of an elementary Abelian permutation
p-group with a^g in C(a) for every point a.  It keeps the sets as stated,
one per constrained point; an unstated point is constrained only to its
orbit, and the solvers cut each stated set to its point's orbit as they
read it, so no orbit partition is built on the way to a verdict.
Solving goes through the frame: per orbit the admissible constituent
vectors V_O are collected, each member packed into one int at the
orbit's width (fpalg.PackedDigits) and kept so from compute_vo to the
witness; if every V_O is an affine subspace w_O + E_O the instance
reduces to one linear system over F_p, otherwise the product fallback
searches the product of the V_O sets.  The enumeration oracle
(solve_enumerate), which walks the whole group, is no fallback of solve:
tests call it directly.  The linearity test (linearize) returns that
system, a LinearizedConstraint, or else the verdict as the one outcome
type, SolveOutcome: UNSAT empty-vo naming the first orbit whose V_O is
empty, or NOTLINEAR naming the first orbit whose V_O is not affine,
which solve returns as it is unless a fallback decides.  solve computes
the V_O sets orbit by orbit in frame order and returns UNSAT empty-vo at
the first empty one, without computing the rest; compute_all_vo computes
every orbit's.  E is the direct sum of per-orbit spaces E_O, kept as one
echelon form per orbit, of the orbit's width; the linear system is
decided by one Gaussian elimination over G's generators, each with its
residual against E, so nothing of size d x d is built (solve_linear);
its rows are packed ints, each generator packed once, and a free
orbit's columns stay in them as zero columns.
The product search tests membership: x lies in G when its residual
against G's echelon form, M_G·x, is zero, and solve_product builds that
form itself, on no other branch.  It walks the orbits depth first in
product order and cuts a prefix as soon as its residual is nonzero on
the orbits it fixes, and the cap bounds the candidates it tests.  The
V_O search, the rank test, the linear system and the product search
add whole packed vectors, the layout RowReducer keeps its rows in
(RowReducer.packed_add), and digits are unpacked only where linearize
reads w_O and where solve_linear and solve_product read their witness;
the enumeration oracle keeps its digit arithmetic (frame.position_sum),
so that it stays independent of them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

from . import fpalg
from .fpalg import RowReducer, packed_digits
from .frame import (
    Frame,
    NotInSuperspaceError,
    VarietyMatrix,
    build_frame,
    digits,
    position,
    position_sum,
)
# MAX_N is re-exported: the instance size limit reads as constraint.MAX_N too
from .perm import MAX_N, Permutation, check_size, orbit_partition

DEFAULT_CAP = 2**24

SAT = "sat"
UNSAT = "unsat"
NOTLINEAR = "notlinear"

UNSAT_EMPTY_VO = "empty-vo"
UNSAT_INCONSISTENT = "inconsistent"
UNSAT_EXHAUSTED = "exhausted"


class CapExceededError(RuntimeError):
    """A search would exceed its configured cap: the group size for
    solve_enumerate, the candidates tested for solve_product."""


@dataclass(frozen=True, eq=False)
class GcInstance:
    """An instance as stated: p, domain size, generators and the stated
    constraints, point -> the set its image must lie in (the sets of a
    point stated twice intersected).  orbit_of and cmap, the normal form
    with every point's set cut to its orbit, are built on first read;
    orbit_of by a search of the generators (perm.orbit_partition), except
    on an instance made by _trusted, which is given its orbits as blocks.
    gen_instance, reduce_1in_k and reduce_2cstr make every instance they
    build so; parsed instances, normalize and mmc_to_gc search."""

    p: int
    n: int
    gens: tuple[Permutation, ...]
    constraints: dict[int, frozenset[int]]

    @classmethod
    def _trusted(cls, p: int, sizes, gens, constraints) -> GcInstance:
        """The instance on sum(sizes) points whose orbits are the
        consecutive blocks of the given sizes, set as orbit_of without the
        search.  The caller guarantees that the generators translate those
        blocks, each a copy of F_p^d of p^d points (frame.translation_perms),
        and together span each block's F_p^d, so each block is exactly one
        orbit.  A block may have dimension 0: one point that every
        generator fixes, as each point of an empty clause's block in
        reduce_2cstr is.  gen_instance, reduce_1in_k (whose point sets are
        the points' images under their clause's generators) and
        reduce_2cstr make every instance they build with it.  An instance
        made from this one by dataclasses.replace searches for its own."""
        orbit_of: dict[int, frozenset[int]] = {}
        lo = 1
        for size in sizes:
            block = range(lo, lo + size)
            orbit_of.update(dict.fromkeys(block, frozenset(block)))
            lo += size
        inst = cls(p, lo - 1, tuple(gens), constraints)
        # the slot cached_property fills on first read
        inst.__dict__["orbit_of"] = orbit_of
        return inst

    @cached_property
    def orbit_of(self) -> dict[int, frozenset[int]]:
        """Every point's orbit, one frozenset shared by the orbit's points."""
        orbit_of = {}
        for block in orbit_partition(self.gens, self.n):
            orbit_of.update(dict.fromkeys(block, frozenset(block)))
        return orbit_of

    @cached_property
    def cmap(self) -> dict[int, frozenset[int]]:
        """Every point's constraint set cut to its orbit; an unstated
        point's set is its whole orbit."""
        cmap = dict(self.orbit_of)
        for a, cset in self.constraints.items():
            cmap[a] = cmap[a] & cset
        return cmap

    def __eq__(self, other):
        return (
            isinstance(other, GcInstance)
            and (self.p, self.n, self.gens) == (other.p, other.n, other.gens)
            and self.cmap == other.cmap
        )


def normalize(raw, n: int, gens, p: int) -> GcInstance:
    """Turn raw conjuncts (x, X) into an instance: every point and member
    is range-checked once and same-point sets are intersected.  The sets
    are kept as stated, not cut to their orbits.  Empty sets are kept (the
    instance is then unsatisfiable).  More than MAX_N points are refused
    (ValueError)."""
    check_size(n)
    stated: dict[int, frozenset[int]] = {}
    for x, xset in raw:
        if not 1 <= x <= n:
            raise ValueError(f"constrained point {x} out of range 1..{n}")
        xset = frozenset(xset)
        if xset and (min(xset) < 1 or max(xset) > n):
            b = min(xset) if min(xset) < 1 else max(xset)
            raise ValueError(f"constraint value {b} out of range 1..{n}")
        stated[x] = stated[x] & xset if x in stated else xset
    return GcInstance(p, n, tuple(gens), stated)


# -- admissible vectors per orbit ----------------------------------------


def _orbit_checks(of, constraints) -> list[tuple[int, frozenset[int]]]:
    """(position, stated set) for each point of the orbit whose stated set
    leaves out some point of the orbit, in order of position.  The sets
    are not cut: a point of the orbit lies in a set exactly when it lies
    in the set's cut to the orbit."""
    size = len(of.lex)
    return [
        (x, cset) for x, cset in enumerate(map(constraints.get, of.lex))
        if cset is not None and (len(cset) < size or not cset.issuperset(of.lex))
    ]


def compute_vo(fr: Frame, inst: GcInstance, orbit_index: int) -> tuple[int, ...]:
    """Constituent vectors compatible with the constraint on one orbit, each
    packed as packed_digits(p, d_O) packs it, in ascending order, which is
    the lexicographic order of their digit tuples.

    Candidates come from the stated set with the fewest members, the
    first such in order of position, and a member outside the orbit is
    skipped; a candidate is kept when every other constrained point of
    the orbit maps inside its set.  With no constrained point the whole
    constituent qualifies: every position's packed vector
    (PackedDigits.position_codes).  A candidate is a packed vector x, and
    a point b maps to the point of b + x.  At p = 2 the packed vector is
    the position and the sum is one XOR.  At odd p it has one field per
    digit, the sum takes a few int operations, written out in the loop
    with the packing's constants, and the packed vectors of the positions
    are mapped back to the points once per call.
    """
    of = fr.orbit_frames[orbit_index]
    p = fr.p
    lex = of.lex
    pos = of.pos
    packing = packed_digits(p, of.dim)
    checks = _orbit_checks(of, inst.constraints)
    if not checks:
        return tuple(packing.position_codes())
    sizes = [len(cset) for _, cset in checks]
    base, pivot_set = checks[sizes.index(min(sizes))]
    if len(pivot_set) > len(lex):  # walk the orbit rather than a larger set
        pivot_set = pivot_set.intersection(lex)
    candidates = [pc for pc in map(pos.get, pivot_set) if pc is not None]
    out = []
    if p == 2:
        for pc in candidates:
            x = pc ^ base
            for b, bset in checks:
                if lex[b ^ x] not in bset:
                    break
            else:
                out.append(x)
        return tuple(sorted(out))
    codes = packing.position_codes()
    at = dict(zip(codes, lex))
    checks = [(codes[b], bset) for b, bset in checks]
    minus_base = packing.neg(codes[base])
    # packing.add written out: p off each field that the bias carries
    # into its top bit
    bias, high, top = packing.bias, packing.high, packing.top
    for pc in candidates:
        x = packing.add(codes[pc], minus_base)
        for b, bset in checks:
            t = b + x
            if at[t - p * (((t + bias) & high) >> top)] not in bset:
                break
        else:
            out.append(x)
    return tuple(sorted(out))


def compute_all_vo(fr: Frame, inst: GcInstance) -> list[tuple[int, ...]]:
    """compute_vo of every orbit, in frame order."""
    return [compute_vo(fr, inst, i) for i in range(len(fr.orbit_frames))]


# -- outcomes -------------------------------------------------------------


@dataclass(frozen=True)
class SolveOutcome:
    """A verdict with its method, or its reason and the orbit behind it.
    A NOTLINEAR outcome names the first orbit whose V_O is not an affine
    subspace, |V_O| and the rank of its differences (span_dim, None when
    |V_O| is not even a power of p: the rank test is skipped then)."""

    status: str
    witness: Permutation | None = None
    method: str | None = None
    reason: str | None = None
    orbit_min: int | None = None
    vo_size: int | None = None
    span_dim: int | None = None

    @staticmethod
    def sat(witness: Permutation, method: str) -> SolveOutcome:
        return SolveOutcome(SAT, witness=witness, method=method)

    @staticmethod
    def unsat(reason: str, method: str | None = None, orbit_min: int | None = None) -> SolveOutcome:
        return SolveOutcome(UNSAT, reason=reason, method=method, orbit_min=orbit_min)


# -- linearity ------------------------------------------------------------


@dataclass(frozen=True)
class LinearizedConstraint:
    """The admissible set as one affine variety w + E of the frame, E the
    direct sum of the orbits' spaces E_O.

    w holds, per orbit, the lexicographically smallest admissible vector.
    e_orbits holds, per orbit, E_O as the echelon form of V_O's
    differences from that vector (a RowReducer of width d_O, of rank 0
    when V_O is one vector), or None when V_O is the whole constituent.
    """

    w: tuple[int, ...]
    e_orbits: tuple[RowReducer | None, ...]


def linearize(fr: Frame, vos) -> LinearizedConstraint | SolveOutcome:
    """Check per orbit that V_O, its members packed as compute_vo packs
    them, is an affine subspace and assemble the global variety.  Returns
    the UNSAT empty-vo outcome naming the first empty V_O's orbit (every
    V_O is tested for emptiness before any linearity verdict), else the
    NOTLINEAR outcome naming the first failing orbit, else a
    LinearizedConstraint.  The rank test adds the differences v - w_O
    packed (RowReducer.packed_add); only w_O is unpacked to digits."""
    for of, vo in zip(fr.orbit_frames, vos):
        if not vo:
            return SolveOutcome.unsat(UNSAT_EMPTY_VO, orbit_min=of.origin)
    p = fr.p
    w: list[int] = []
    e_orbits: list[RowReducer | None] = []
    for of, vo in zip(fr.orbit_frames, vos):
        packing = packed_digits(p, of.dim)
        w.extend(packing.unpack(vo[0]))
        size = len(vo)
        reducer = None  # V_O is the whole constituent: trivially an affine subspace
        if size < p**of.dim:
            r = fpalg.exact_log(size, p)
            reducer = RowReducer(p, of.dim)
            if r is not None:
                minus_w = packing.neg(vo[0])
                for v in vo[1:]:
                    reducer.packed_add(packing.add(v, minus_w), of.dim)
            if reducer.rank != r:
                return SolveOutcome(NOTLINEAR, reason="not linear", orbit_min=of.origin,
                                    vo_size=size, span_dim=None if r is None else reducer.rank)
        e_orbits.append(reducer)
    return LinearizedConstraint(tuple(w), tuple(e_orbits))


# -- solvers ---------------------------------------------------------------


def solve_linear(fr: Frame, lin: LinearizedConstraint) -> SolveOutcome:
    """Find x in G ∩ (w + E) by one Gaussian elimination modulo E.

    res(x) is x's residual against E: per orbit, x_O's residual against
    E_O, which is x_O itself where E_O is 0, and 0 where E_O is the whole
    constituent.  x lies in w + E exactly when res(x) = res(w).  The rows
    (res(g) | g), one per generator's coordinates g, span the pairs
    (res(x) | x) for x in G, and the residual of (res(w) | 0) against
    them is zero on the left exactly when the system is consistent; its
    right half is then -x.  A generator's row is kept exactly when res(g)
    is independent of the rows kept before it, so x is the combination a
    of the kept generators that solves (M_E·[g_1 ... g_m])·a = M_E·w with
    the other generators' coefficients 0.  A row that is not kept leaves
    a residual (0 | y) with y in G ∩ E, and those y span G ∩ E: the other
    solutions are x plus its members.

    Every vector is packed, as fpalg.packed_digits packs it, and each
    generator is packed once: res(x) keeps the fields of the orbits that
    are not free by a mask, and replaces each orbit's slice whose E_O has
    rank above 0 by its packed residual against E_O.  A free orbit's
    columns stay as zero columns, which hold no pivot, so the rows kept,
    their pivots and the answer are those of the system without them.  A
    row (res(g) | g) is res(g) shifted above g, fed to
    RowReducer.packed_add.  Memory is O(m·d), and no row of E is built."""
    p, d = fr.p, fr.dim
    packing = packed_digits(p, d)
    w = packing.width
    half = d * w
    # every field of an orbit that is not free set, as one binary string
    keep = int("".join(("0" if e is None else "1") * ((hi - lo) * w)
                       for e, (lo, hi) in zip(lin.e_orbits, fr.slices)) or "0", 2)
    # per orbit whose E_O has rank above 0: its packed residual, and its
    # slice's bits in the binary string of a packed vector
    reduced = [(e.packed_residual, lo * w, hi * w)
               for e, (lo, hi) in zip(lin.e_orbits, fr.slices) if e is not None and e.rank]
    binary = f"0{half}b"

    def res(x: int) -> int:
        # the slices are cut from x's binary digits, so that the pass takes
        # time linear in d however many orbits it reduces
        x &= keep
        if not reduced:
            return x
        bits = format(x, binary)
        pieces = []
        done = 0  # bits[:done] is in pieces
        for residual, a, b in reduced:
            part = int(bits[a:b], 2)
            if (new := residual(part)) != part:
                pieces += bits[done:a], format(new, f"0{b - a}b")
                done = b
        if not done:
            return x
        pieces.append(bits[done:])
        return int("".join(pieces), 2)

    reducer = RowReducer(p, d)
    for g in map(packing.pack, fr.gen_coords):
        reducer.packed_add(res(g) << half | g, 2 * d)
    residual = reducer.packed_residual(res(packing.pack(lin.w)) << half)
    if residual >> half:
        return SolveOutcome.unsat(UNSAT_INCONSISTENT, method="linear")
    x = packing.neg(residual & ((1 << half) - 1))
    return SolveOutcome.sat(fr.perm_of_coords(packing.unpack(x)), "linear")


def group_variety(fr: Frame) -> VarietyMatrix:
    """Variety matrix of G itself inside its frame: the echelon form of
    fr.gen_coords, each packed once and added packed to one RowReducer."""
    d = fr.dim
    pack = packed_digits(fr.p, d).pack
    reducer = RowReducer(fr.p, d)
    for x in fr.gen_coords:
        reducer.packed_add(pack(x), d)
    return VarietyMatrix(reducer)


def _frame_of(inst: GcInstance, fr: Frame | None = None) -> Frame:
    """fr, refused (ValueError) unless it is the frame of inst's
    generators, or that frame built when fr is None."""
    if fr is None:
        return build_frame(inst.n, inst.gens, inst.p)
    if fr.gens != tuple(inst.gens):
        raise ValueError("frame was built from other generators than the instance's")
    return fr


def solve_enumerate(fr: Frame, inst: GcInstance, cap: int = DEFAULT_CAP) -> SolveOutcome:
    """Ground-truth search: enumerate every element of G in lexicographic
    coordinate order and return the first satisfying one.  fr must be the
    frame of inst's generators (ValueError otherwise): G is spanned by
    fr.gen_coords.

    Refuses (CapExceededError) when |G| exceeds the cap rather than
    truncating the search.
    """
    fr = _frame_of(inst, fr)
    basis, r = fr.subspace_basis(fr.gen_coords)
    p = fr.p
    if p**r > cap:
        raise CapExceededError(f"group size {p}^{r} exceeds cap {cap}")
    # the basis vectors and the search point x as one position per orbit
    steps = [tuple(position(b[lo:hi], p) for lo, hi in fr.slices) for b in basis]
    checks = [
        (len(cset) / len(of.lex), of.lex, a, cset, i)
        for i, of in enumerate(fr.orbit_frames)
        for a, cset in _orbit_checks(of, inst.constraints)
    ]
    checks.sort(key=lambda e: e[0])
    checks = [e[1:] for e in checks]

    x = [0] * len(fr.orbit_frames)
    odometer = [0] * r
    while True:
        for lex, a, cset, i in checks:
            if lex[position_sum(a, x[i], p)] not in cset:
                break
        else:
            coords = [c for of, xi in zip(fr.orbit_frames, x) for c in digits(xi, of.dim, p)]
            return SolveOutcome.sat(fr.perm_of_coords(coords), "enumerate")
        j = r - 1
        while j >= 0 and odometer[j] == p - 1:
            j -= 1
        if j < 0:
            return SolveOutcome.unsat(UNSAT_EXHAUSTED, method="enumerate")
        odometer[j] += 1
        for i in range(j + 1, r):
            odometer[i] = 0
        # rolled digits step their basis vector once more (order p)
        for step in steps[j:]:
            x = [position_sum(a, b, p) for a, b in zip(x, step)]


def solve_product(fr: Frame, vos, cap: int = DEFAULT_CAP) -> SolveOutcome:
    """Fallback for non-linear constraints: the lexicographically first
    combination, in itertools.product(*vos) order, of one admissible
    vector per orbit that lies in G.

    x lies in G exactly when its residual M_G·x, the sum of its parts'
    syndromes, is 0.  A syndrome is the residual of x_O placed in O's
    slice against G's echelon form (group_variety), computed once per
    admissible vector and kept packed, as VarietyMatrix.packed_product
    returns it (fpalg.PackedDigits), so the sums are SWAR additions; each
    member of V_O, packed at O's width as compute_vo gives it, is shifted
    into O's slice, so no d-wide tuple is built but the witness's, which
    is unpacked once from the sum of the members chosen.
    The search walks depth first over the orbits in frame order and over
    each V_O in its order, so its first leaf in G is the first member of G
    in product order.  A prefix is extended only while its syndrome sum is
    zero on the columns of the orbits it fixes.  The residual of a vector
    that is zero on its first c columns is zero there too, so that holds
    exactly when some member of G agrees with the prefix on those orbits.
    Members of one V_O with equal syndromes lead to the same subtree, so
    only the first of them is tried.  A candidate is one (syndrome,
    member) pair added to a prefix sum; at most
    sum_j prod_{i<=j} |V_O_i| are tested, under twice the product of the
    V_O sizes when every V_O has two or more members, and the walk
    refuses (CapExceededError) once it has tested more than cap.  The
    syndromes before the walk take sum |V_O| <= n residuals and no
    budget.  Memory is O(number of orbits) beside the syndromes.  An
    empty V_O leaves no combination, so the verdict is UNSAT exhausted."""
    packing = packed_digits(fr.p, fr.dim)
    add = packing.add
    syndrome = group_variety(fr).packed_product
    levels = []  # per orbit, its slice's shift and its members to try
    for (_, hi), vo in zip(fr.slices, vos):
        shift = (fr.dim - hi) * packing.width
        first = {}  # syndrome -> the first member of V_O that has it, in O's slice
        for v in vo:
            v <<= shift
            first.setdefault(syndrome(v), v)
        levels.append((shift, list(first.items())))
    depth = len(levels)
    # chosen[j + 1]: the syndrome sum of the prefix through orbit j, and
    # the member fixed on orbit j, in its slice
    chosen = [(0, 0)] * (depth + 1)
    left = [iter(members) for _, members in levels]  # members not yet tried
    tested = 0
    j = 0
    while 0 <= j < depth:
        (shift, members), (prefix, _) = levels[j], chosen[j]
        for t, v in left[j]:
            tested += 1
            if tested > cap:
                raise CapExceededError(f"candidates tested exceed cap {cap}")
            s = add(prefix, t)
            if not s >> shift:  # zero on the columns of orbits 0..j
                j += 1
                chosen[j] = (s, v)
                break
        else:  # orbit j is exhausted under this prefix: rewind it, back up one
            left[j] = iter(members)
            j -= 1
    if j < 0:
        return SolveOutcome.unsat(UNSAT_EXHAUSTED, method="product")
    # the members' slices are disjoint, so their sum is the whole vector
    return SolveOutcome.sat(fr.perm_of_coords(packing.unpack(sum(v for _, v in chosen))),
                            "product")


def solve(inst: GcInstance, fallback: str = "product", cap: int = DEFAULT_CAP) -> SolveOutcome:
    """Full pipeline: frame, V_O sets, linearity test, then either the
    linear solver or the configured fallback (product | none).  The V_O
    sets are computed orbit by orbit in frame order, and the first empty
    one ends the decision as UNSAT empty-vo naming its orbit, the orbit
    linearize would name, before any later orbit's V_O is computed.  The
    group's echelon form is built only for the product fallback, the one
    that tests membership.  A product walk that tests more than cap
    candidates is refused: the NOTLINEAR outcome is returned with the
    refusal as its reason."""
    if fallback not in ("product", "none"):
        raise ValueError(f"unknown fallback {fallback!r}")
    fr = build_frame(inst.n, inst.gens, inst.p)
    vos = []
    for i, of in enumerate(fr.orbit_frames):
        vo = compute_vo(fr, inst, i)
        if not vo:  # the orbits after it are not read
            return SolveOutcome.unsat(UNSAT_EMPTY_VO, orbit_min=of.origin)
        vos.append(vo)
    lin = linearize(fr, vos)
    if isinstance(lin, LinearizedConstraint):
        return solve_linear(fr, lin)
    if fallback == "none":
        return lin
    try:
        return solve_product(fr, vos, cap=cap)
    except CapExceededError as exc:
        return replace(lin, reason=f"not linear; fallback refused: {exc}")


# -- verification ----------------------------------------------------------


def verify_detail(
    inst: GcInstance,
    g: Permutation,
    fr: Frame | None = None,
    m_g: VarietyMatrix | None = None,
) -> tuple[bool, str | None]:
    """Check a^g in C(a) for every stated point a and membership of g in
    the group; an unstated point is constrained only to its orbit, which
    membership implies.  Returns (ok, reason).  fr and m_g, when given,
    must be the frame of inst's generators and G's variety in it
    (ValueError otherwise)."""
    if g.n != inst.n:
        return False, f"witness acts on {g.n} points, instance has {inst.n}"
    stated = inst.constraints
    for a in sorted(stated):
        if g.image(a) not in stated[a]:
            return False, f"point {a} maps to {g.image(a)}, outside its constraint set"
    fr = _frame_of(inst, fr)
    if m_g is None:
        m_g = group_variety(fr)
    elif (not all(map(m_g.contains, fr.gen_coords))
          or m_g.dim_sub != fr.subspace_basis(fr.gen_coords)[1]):
        raise ValueError("m_g is not the variety of the frame's group")
    try:
        x = fr.coords_of_perm(g)
    except NotInSuperspaceError as exc:
        return False, f"witness not in group: {exc}"
    if not m_g.contains(x):
        return False, "witness not in group"
    return True, None


def verify(inst: GcInstance, g: Permutation, fr: Frame | None = None) -> bool:
    return verify_detail(inst, g, fr)[0]


# -- lex-smaller model constraints -----------------------------------------


def mmc_to_gc(model, gens, p: int) -> list[GcInstance]:
    """Instances whose disjunction captures "the permuted model is
    lexicographically smaller".

    model assigns a hashable value to each point 1..n (points double as
    ordered propositional variables).  Disjunct i requires positions before i to
    keep their value class and position i to move to a strictly smaller
    value; the model admits a strictly-decreasing group element iff some
    returned instance is satisfiable.
    """
    model = list(model)
    n = len(model)
    check_size(n)
    gens = tuple(gens)
    points = range(1, n + 1)
    # one set per value, shared by every disjunct that states it: the
    # instances keep their sets as stated, so n^2 fresh copies would stay.
    # Every member lies in 1..n, so the instances are built directly, in
    # O(n) per disjunct, without normalize's range check of every set
    same: dict = {}
    below: dict = {}
    for v in model:
        if v not in same:
            same[v] = frozenset(a for a in points if model[a - 1] == v)
            below[v] = frozenset(a for a in points if model[a - 1] < v)
    kept = [same[v] for v in model]
    instances = []
    for i in points:
        stated = dict(zip(points, kept[:i - 1]))
        stated[i] = below[model[i - 1]]
        instances.append(GcInstance(p, n, gens, stated))
    return instances
