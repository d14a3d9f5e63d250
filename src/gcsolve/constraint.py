"""Group-constraint instances and solvers.

An instance asks for an element g of an elementary Abelian permutation
p-group with a^g in C(a) for every point a.  Solving goes through the
frame: per orbit the admissible constituent vectors V_O are collected; if
every V_O is an affine subspace w + E the instance reduces to one linear
system over F_p through the variety matrix M_G of the group, otherwise
explicit fallbacks search the product of the V_O sets (by syndrome lookup
through M_G) or enumerate the whole group.  M_G is built only on the
branches that test membership.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from . import fpalg
from .fpalg import FpMatrix, RowReducer
from .frame import Frame, NotInSuperspaceError, VarietyMatrix, build_frame
from .perm import Permutation, orbit_partition

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
    """Normalized instance: p, domain size, generators and the full
    constraint map (every point has an entry, contained in its orbit)."""

    p: int
    n: int
    gens: tuple[Permutation, ...]
    cmap: dict[int, frozenset[int]]
    orbits: object = field(repr=False)

    def __eq__(self, other):
        return (
            isinstance(other, GcInstance)
            and (self.p, self.n, self.gens) == (other.p, other.n, other.gens)
            and self.cmap == other.cmap
        )

    def orbit_set(self, a: int) -> frozenset[int]:
        return frozenset(self.orbits.block_of(a))

    def constrained_points(self) -> tuple[int, ...]:
        """Points whose constraint set is a proper subset of their orbit."""
        # C(a) is contained in the orbit, so proper subset = smaller size
        return tuple(
            a for a in range(1, self.n + 1)
            if len(self.cmap[a]) != len(self.orbits.block_of(a))
        )

    @property
    def k(self) -> int:
        """Largest constraint cardinality among properly constrained points."""
        sizes = [len(self.cmap[a]) for a in self.constrained_points()]
        return max(sizes) if sizes else 0

    @staticmethod
    def build(p: int, n: int, gens, cmap) -> GcInstance:
        """Construct from an already-complete constraint map (each point
        present, each set inside the point's orbit)."""
        gens = tuple(gens)
        orbits = orbit_partition(gens, n)
        full = {}
        for a in range(1, n + 1):
            cset = frozenset(cmap[a])
            if not cset <= frozenset(orbits.block_of(a)):
                raise ValueError(f"constraint of point {a} leaves its orbit")
            full[a] = cset
        return GcInstance(p, n, gens, full, orbits)


def normalize(raw, n: int, gens, p: int) -> GcInstance:
    """Turn raw conjuncts (x, X) into the normal form: same-point sets are
    intersected, every set is cut down to the point's orbit, and missing
    points default to their full orbit.  Empty sets are kept (the instance
    is then unsatisfiable)."""
    gens = tuple(gens)
    orbits = orbit_partition(gens, n)
    orbit_sets = [frozenset(b) for b in orbits.blocks]
    cmap = {a: orbit_sets[orbits.block_index(a)] for a in range(1, n + 1)}
    for x, xset in raw:
        if not 1 <= x <= n:
            raise ValueError(f"constrained point {x} out of range 1..{n}")
        xset = frozenset(xset)
        for b in xset:
            if not 1 <= b <= n:
                raise ValueError(f"constraint value {b} out of range 1..{n}")
        cmap[x] = cmap[x] & xset
    return GcInstance(p, n, gens, cmap, orbits)


# -- admissible vectors per orbit ----------------------------------------


def compute_vo(fr: Frame, inst: GcInstance, orbit_index: int) -> tuple[tuple[int, ...], ...]:
    """Constituent vectors compatible with the constraint on one orbit, in
    ascending lexicographic order.

    Candidates come from the constrained point with the fewest options and
    are kept when every other constrained point of the orbit maps inside
    its set; with no constrained point the whole constituent qualifies.
    """
    of = fr.orbit_frames[orbit_index]
    p = fr.p
    size = len(of.points)
    constrained = [(a, inst.cmap[a]) for a in of.points if len(inst.cmap[a]) != size]
    if not constrained:
        return tuple(itertools.product(range(p), repeat=of.dim))
    pivot, pivot_set = min(constrained, key=lambda item: (len(item[1]), item[0]))
    coords = of.coords
    point_of = of.point_of
    base = coords[pivot]
    out = []
    for c in pivot_set:
        x = tuple((yc - yb) % p for yb, yc in zip(base, coords[c]))
        ok = True
        for b, bset in constrained:
            yb = coords[b]
            if point_of[tuple((e + t) % p for e, t in zip(yb, x))] not in bset:
                ok = False
                break
        if ok:
            out.append(x)
    return tuple(sorted(out))


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


def _power_log(size: int, p: int) -> int | None:
    r = 0
    while size % p == 0:
        size //= p
        r += 1
    return r if size == 1 else None


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
            r = _power_log(size, p)
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
    """Variety matrix of G itself inside its frame."""
    basis, _ = fr.subspace_basis(fr.gens, trusted=True)
    return fr.variety_matrix(basis)


def solve_enumerate(fr: Frame, inst: GcInstance, cap: int = DEFAULT_CAP) -> SolveOutcome:
    """Ground-truth search: enumerate every element of G in lexicographic
    coordinate order and return the first satisfying one.

    Refuses (CapExceededError) when |G| exceeds the cap rather than
    truncating the search.
    """
    basis, r = fr.subspace_basis(inst.gens, trusted=True)
    p = fr.p
    if p**r > cap:
        raise CapExceededError(f"group size {p}^{r} exceeds cap {cap}")
    checks = []
    for i, of in enumerate(fr.orbit_frames):
        lo, _ = fr.slices[i]
        for a in of.points:
            cset = inst.cmap[a]
            if len(cset) != len(of.points):
                checks.append((len(cset) / len(of.points), of.point_of, of.coords[a], cset, lo))
    checks.sort(key=lambda e: e[0])
    checks = [e[1:] for e in checks]

    x = [0] * fr.dim
    digits = [0] * r
    while True:
        for point_of, ca, cset, lo in checks:
            key = tuple((e + x[lo + j]) % p for j, e in enumerate(ca))
            if point_of[key] not in cset:
                break
        else:
            return SolveOutcome.sat(fr.perm_of_coords(tuple(x)), "enumerate")
        j = r - 1
        while j >= 0 and digits[j] == p - 1:
            j -= 1
        if j < 0:
            return SolveOutcome.unsat(UNSAT_EXHAUSTED, method="enumerate")
        digits[j] += 1
        for i in range(j + 1, r):
            digits[i] = 0
        # rolled digits step their basis vector once more (order p)
        for bvec in basis[j:]:
            x = [(a + b) % p for a, b in zip(x, bvec)]


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

    x lies in G exactly when M_G·x = sum over orbits O of M_G[:, O]·x_O is
    0, so only M_G's nonzero rows count.  Each admissible vector gets its
    syndrome on those rows once.  The orbits are cut where the prefix and
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
    rows = [row for row in m_g.m.rows if any(row)]
    sizes = [len(vo) for vo in vos]

    def cost(c):  # combinations walked plus tabulated; a tie takes the smaller table
        suffix = math.prod(sizes[c:])
        return math.prod(sizes[:c]) + suffix, suffix

    cut = min(range(len(vos) + 1), key=cost)
    groups = []
    for i, ((lo, hi), vo) in enumerate(zip(fr.slices, vos)):
        block = [row[lo:hi] for row in rows]
        sign = -1 if i < cut else 1  # prefix syndromes enter negated
        groups.append([
            (v, tuple(sign * sum(a * b for a, b in zip(r, v)) % p for r in block))
            for v in vo
        ])
    table: dict[tuple[int, ...], tuple[int, ...]] = {}
    for x, s in _combinations(groups[cut:], p, len(rows)):
        table.setdefault(s, x)
    for x, s in _combinations(groups[:cut], p, len(rows)):
        suffix = table.get(s)
        if suffix is not None:
            return SolveOutcome.sat(fr.perm_of_coords(x + suffix), "product")
    return SolveOutcome.unsat(UNSAT_EXHAUSTED, method="product")


def solve(inst: GcInstance, fallback: str = "product", cap: int = DEFAULT_CAP) -> SolveOutcome:
    """Full pipeline: frame, V_O sets, linearity test, then either the
    linear solver or the configured fallback (product | enumerate | none).
    The group's variety matrix is built only for the linear solver and the
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
    """Check a^g in C(a) for all a and membership of g in the group.
    Returns (ok, reason)."""
    if g.n != inst.n:
        return False, f"witness acts on {g.n} points, instance has {inst.n}"
    for a in range(1, inst.n + 1):
        if g.image(a) not in inst.cmap[a]:
            return False, f"point {a} maps to {g.image(a)}, outside its constraint set"
    if fr is None:
        fr = build_frame(inst.n, inst.gens, inst.p)
    if m_g is None:
        m_g = group_variety(fr)
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

    model assigns a value to each point 1..n (points double as ordered
    propositional variables).  Disjunct i requires positions before i to
    keep their value class and position i to move to a strictly smaller
    value; the model admits a strictly-decreasing group element iff some
    returned instance is satisfiable.
    """
    model = list(model)
    n = len(model)
    instances = []
    for i in range(1, n + 1):
        raw = []
        for j in range(1, i):
            raw.append((j, {a for a in range(1, n + 1) if model[a - 1] == model[j - 1]}))
        raw.append((i, {a for a in range(1, n + 1) if model[a - 1] < model[i - 1]}))
        instances.append(normalize(raw, n, gens, p))
    return instances
