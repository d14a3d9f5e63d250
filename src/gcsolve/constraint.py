"""Group-constraint instances and solvers.

An instance asks for an element g of an elementary Abelian permutation
p-group with a^g in C(a) for every point a.  It keeps the sets as stated,
one per constrained point; an unstated point is constrained only to its
orbit, and the solvers cut each stated set to its point's orbit as they
read it, so no orbit partition is built on the way to a verdict.
Solving goes through the frame: per orbit the admissible constituent
vectors V_O are collected; if
every V_O is an affine subspace w + E the instance reduces to one linear
system over F_p, otherwise explicit fallbacks search the product of the
V_O sets or enumerate the whole group.  x lies in G when its residual
against G's echelon form, M_G·x, is zero; that form is built only on the
branches that test membership.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

from . import fpalg
from .fpalg import FpMatrix, RowReducer
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
from .perm import MAX_N, OrbitPartition, Permutation, check_size, orbit_partition

DEFAULT_CAP = 2**24

SAT = "sat"
UNSAT = "unsat"
NOTLINEAR = "notlinear"

UNSAT_EMPTY_VO = "empty-vo"
UNSAT_INCONSISTENT = "inconsistent"
UNSAT_EXHAUSTED = "exhausted"


class CapExceededError(RuntimeError):
    """An enumeration fallback would exceed its configured cap."""


@dataclass(frozen=True, eq=False)
class GcInstance:
    """An instance as stated: p, domain size, generators and the stated
    constraints, point -> the set its image must lie in (the sets of a
    point stated twice intersected).  cmap and orbits, the normal form
    with every point's set cut to its orbit, are built on first read."""

    p: int
    n: int
    gens: tuple[Permutation, ...]
    constraints: dict[int, frozenset[int]]

    @cached_property
    def orbits(self) -> OrbitPartition:
        return orbit_partition(self.gens, self.n)

    @cached_property
    def cmap(self) -> dict[int, frozenset[int]]:
        """Every point's constraint set cut to its orbit; an unstated
        point's set is its whole orbit."""
        orbits = self.orbits
        block_sets = [frozenset(b) for b in orbits.blocks]
        cmap = {a: block_sets[orbits.block_index(a)] for a in range(1, self.n + 1)}
        for a, cset in self.constraints.items():
            cmap[a] = cmap[a] & cset
        return cmap

    def __eq__(self, other):
        return (
            isinstance(other, GcInstance)
            and (self.p, self.n, self.gens) == (other.p, other.n, other.gens)
            and self.cmap == other.cmap
        )

    def constrained_points(self) -> tuple[int, ...]:
        """Points whose constraint set is a proper subset of their orbit."""
        # C(a) is contained in the orbit, so proper subset = smaller size
        return tuple(
            a for a in range(1, self.n + 1)
            if len(self.cmap[a]) != len(self.orbits.block_of(a))
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


def compute_vo(fr: Frame, inst: GcInstance, orbit_index: int) -> tuple[tuple[int, ...], ...]:
    """Constituent vectors compatible with the constraint on one orbit, in
    ascending lexicographic order.

    Candidates come from the stated set with the fewest members, the
    first such in order of position, and a member outside the orbit is
    skipped; a candidate is kept when every other constrained point of
    the orbit maps inside its set.  With no constrained point the whole
    constituent qualifies.  A candidate is a position x, and a point of
    position b maps to lex[position_sum(b, x)], one XOR at p = 2; digit
    tuples are made only for the vectors returned.
    """
    of = fr.orbit_frames[orbit_index]
    p = fr.p
    lex = of.lex
    pos = of.pos
    checks = _orbit_checks(of, inst.constraints)
    if not checks:
        return tuple(itertools.product(range(p), repeat=of.dim))
    sizes = [len(cset) for _, cset in checks]
    base, pivot_set = checks[sizes.index(min(sizes))]
    if len(pivot_set) > len(lex):  # walk the orbit rather than a larger set
        pivot_set = pivot_set.intersection(lex)
    out = []
    minus_base = position([-c for c in digits(base, of.dim, p)], p)
    for c in pivot_set:
        pc = pos.get(c)
        if pc is None:
            continue
        x = position_sum(pc, minus_base, p)
        for b, bset in checks:
            if lex[position_sum(b, x, p)] not in bset:
                break
        else:
            out.append(x)
    # positions order as their digit tuples do
    return tuple(digits(x, of.dim, p) for x in sorted(out))


def compute_all_vo(fr: Frame, inst: GcInstance) -> list[tuple[tuple[int, ...], ...]]:
    return [compute_vo(fr, inst, i) for i in range(len(fr.orbit_frames))]


# -- linearity ------------------------------------------------------------


@dataclass(frozen=True)
class EmptyOrbit:
    """Some orbit admits no vector at all: the instance is unsatisfiable."""

    orbit_index: int
    orbit_min: int


@dataclass(frozen=True)
class NotLinear:
    """A V_O is not an affine subspace; span_dim is None when |V_O| is not
    even a power of p (the rank test is skipped then)."""

    orbit_index: int
    orbit_min: int
    vo_size: int
    span_dim: int | None


@dataclass(frozen=True)
class LinearizedConstraint:
    """The admissible set as one affine variety w + <e_basis> of the frame.

    Per orbit, w holds the lexicographically smallest admissible vector and
    e_basis an independent difference basis, padded with zeros outside the
    orbit's slice of the frame.
    """

    w: tuple[int, ...]
    e_basis: tuple[tuple[int, ...], ...]


def linearize(fr: Frame, vos):
    """Check per orbit that V_O is an affine subspace and assemble the
    global variety.  Returns EmptyOrbit when some V_O is empty (every V_O
    is tested for emptiness before any linearity verdict), else NotLinear
    naming the first failing orbit, else a LinearizedConstraint."""
    for i, (of, vo) in enumerate(zip(fr.orbit_frames, vos)):
        if not vo:
            return EmptyOrbit(i, of.origin)
    p = fr.p
    w: list[int] = []
    e_basis: list[tuple[int, ...]] = []
    for i, (of, vo) in enumerate(zip(fr.orbit_frames, vos)):
        size = len(vo)
        if size == p**of.dim:
            # V_O is the whole constituent: trivially an affine subspace
            w_o = (0,) * of.dim
            basis_o = [tuple(1 if j == k else 0 for k in range(of.dim)) for j in range(of.dim)]
        else:
            r = fpalg.exact_log(size, p)
            if r is None:
                return NotLinear(i, of.origin, size, None)
            w_o = vo[0]
            reducer = RowReducer(p, of.dim)
            basis_o = []
            for v in vo[1:]:
                diff = tuple((a - b) % p for a, b in zip(v, w_o))
                if reducer.add(diff):
                    basis_o.append(diff)
            if reducer.rank != r:
                return NotLinear(i, of.origin, size, reducer.rank)
        lo, hi = fr.slices[i]
        w.extend(w_o)
        for v in basis_o:
            e_basis.append((0,) * lo + v + (0,) * (fr.dim - hi))
    return LinearizedConstraint(tuple(w), tuple(e_basis))


# -- outcomes -------------------------------------------------------------


@dataclass(frozen=True)
class SolveOutcome:
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

    @staticmethod
    def not_linear(info: NotLinear, reason: str = "not linear") -> SolveOutcome:
        return SolveOutcome(
            NOTLINEAR,
            reason=reason,
            orbit_min=info.orbit_min,
            vo_size=info.vo_size,
            span_dim=info.span_dim,
        )


# -- solvers ---------------------------------------------------------------


def solve_linear(fr: Frame, m_g: VarietyMatrix, lin: LinearizedConstraint) -> SolveOutcome:
    """Find x = w + B_E·mu in G: M_G·x = 0 exactly when
    (M_G·B_E)·mu = -M_G·w, d equations on dim E unknowns."""
    p = fr.p
    cols = [m_g.product(e) for e in lin.e_basis]
    rows = tuple(tuple(col[i] for col in cols) for i in range(fr.dim))
    rhs = tuple(-y % p for y in m_g.product(lin.w))
    mu = fpalg.solve(FpMatrix(p, rows), rhs)
    if mu is None:
        return SolveOutcome.unsat(UNSAT_INCONSISTENT, method="linear")
    x = list(lin.w)
    for c, e in zip(mu, lin.e_basis):
        if c:
            x = [(a + c * b) % p for a, b in zip(x, e)]
    return SolveOutcome.sat(fr.perm_of_coords(x), "linear")


def group_variety(fr: Frame) -> VarietyMatrix:
    """Variety matrix of G itself inside its frame: the echelon form of
    fr.gen_coords, reduced in one RowReducer."""
    reducer = RowReducer(fr.p, fr.dim)
    for x in fr.gen_coords:
        reducer.add(x)
    return VarietyMatrix(reducer)


def solve_enumerate(fr: Frame, inst: GcInstance, cap: int = DEFAULT_CAP) -> SolveOutcome:
    """Ground-truth search: enumerate every element of G in lexicographic
    coordinate order and return the first satisfying one.  fr must be the
    frame of inst's generators (ValueError otherwise): G is spanned by
    fr.gen_coords.

    Refuses (CapExceededError) when |G| exceeds the cap rather than
    truncating the search.
    """
    if fr.gens != tuple(inst.gens):
        raise ValueError("frame was built from other generators than the instance's")
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


def _combinations(groups, p: int, width: int):
    """Every combination of one (vector, syndrome) per group, lazily and in
    itertools.product order, as (joined vector, syndrome sum mod p)."""

    def extend(combos, group):
        return (
            (x + v, tuple((a + b) % p for a, b in zip(s, t)))
            for x, s in combos
            for v, t in group
        )

    combos = iter([((), (0,) * width)])
    for group in groups:
        combos = extend(combos, group)
    return combos


def solve_product(fr: Frame, vos, m_g: VarietyMatrix, cap: int = DEFAULT_CAP) -> SolveOutcome:
    """Fallback for non-linear constraints: the lexicographically first
    combination, in itertools.product(*vos) order, of one admissible
    vector per orbit that lies in G.

    x lies in G exactly when its residual M_G·x, the sum of its parts'
    syndromes (the residuals of x_O placed in O's slice, computed once per
    admissible vector), is 0.  The orbits are cut where the prefix and
    suffix combination counts add up least (meet in the middle).  The
    suffix combinations are tabulated by syndrome sum, in lexicographic
    order and keeping the first per sum; the prefixes are walked in
    lexicographic order, each looking up the negated sum of its own
    syndromes.  The first hit is therefore the first member of G in
    product order.  Memory is bounded by the suffix table.  The cap bounds
    the product of the V_O sizes and is checked before anything is
    computed; an empty V_O leaves no combination, so the verdict is UNSAT
    exhausted."""
    total = 1
    for vo in vos:
        total *= len(vo)
        if total > cap:
            raise CapExceededError(f"product of V_O sizes exceeds cap {cap}")
    p = fr.p
    sizes = [len(vo) for vo in vos]

    def cost(c):  # combinations walked plus tabulated; a tie takes the smaller table
        suffix = math.prod(sizes[c:])
        return math.prod(sizes[:c]) + suffix, suffix

    cut = min(range(len(vos) + 1), key=cost)
    groups = []
    for i, ((lo, hi), vo) in enumerate(zip(fr.slices, vos)):
        head, tail = (0,) * lo, (0,) * (fr.dim - hi)
        # prefix syndromes enter negated, as the residuals of -v
        groups.append([
            (v, m_g.product(head + (tuple(-c % p for c in v) if i < cut else v) + tail))
            for v in vo
        ])
    table: dict[tuple[int, ...], tuple[int, ...]] = {}
    for x, s in _combinations(groups[cut:], p, fr.dim):
        table.setdefault(s, x)
    for x, s in _combinations(groups[:cut], p, fr.dim):
        suffix = table.get(s)
        if suffix is not None:
            return SolveOutcome.sat(fr.perm_of_coords(x + suffix), "product")
    return SolveOutcome.unsat(UNSAT_EXHAUSTED, method="product")


def solve(inst: GcInstance, fallback: str = "product", cap: int = DEFAULT_CAP) -> SolveOutcome:
    """Full pipeline: frame, V_O sets, linearity test, then either the
    linear solver or the configured fallback (product | enumerate | none).
    The group's echelon form is built only for the linear solver and the
    product fallback, the two that test membership."""
    if fallback not in ("product", "enumerate", "none"):
        raise ValueError(f"unknown fallback {fallback!r}")
    fr = build_frame(inst.n, inst.gens, inst.p)
    vos = compute_all_vo(fr, inst)
    lin = linearize(fr, vos)
    if isinstance(lin, EmptyOrbit):
        return SolveOutcome.unsat(UNSAT_EMPTY_VO, orbit_min=lin.orbit_min)
    if isinstance(lin, LinearizedConstraint):
        return solve_linear(fr, group_variety(fr), lin)
    if fallback == "none":
        return SolveOutcome.not_linear(lin)
    try:
        if fallback == "product":
            return solve_product(fr, vos, group_variety(fr), cap=cap)
        return solve_enumerate(fr, inst, cap=cap)
    except CapExceededError as exc:
        return SolveOutcome.not_linear(lin, reason=f"not linear; fallback refused: {exc}")


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
    if fr is None:
        fr = build_frame(inst.n, inst.gens, inst.p)
    elif fr.gens != tuple(inst.gens):
        raise ValueError("frame was built from other generators than the instance's")
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


def verify(inst: GcInstance, g: Permutation, fr: Frame | None = None,
           m_g: VarietyMatrix | None = None) -> bool:
    return verify_detail(inst, g, fr, m_g)[0]


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
    points = range(1, n + 1)
    # one set per value, shared by every disjunct that states it: the
    # instances keep their sets as stated, so n^2 fresh copies would stay
    same: dict = {}
    below: dict = {}
    for v in model:
        if v not in same:
            same[v] = frozenset(a for a in points if model[a - 1] == v)
            below[v] = frozenset(a for a in points if model[a - 1] < v)
    instances = []
    for i in points:
        raw = [(j, same[model[j - 1]]) for j in range(1, i)]
        raw.append((i, below[model[i - 1]]))
        instances.append(normalize(raw, n, gens, p))
    return instances
