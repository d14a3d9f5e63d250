"""Coordinate frames for elementary Abelian permutation groups.

A Frame represents the super-space F: the direct sum of the transitive
constituents of G = <g1..gm>.  Each orbit O gets an origin (its smallest
point) and a basis of d_O kept generators, and every point of O gets a
position: the digits of its difference from the origin, read as a
base-p number, most significant digit first.  Both come from one pass
over the generators: each kept generator becomes the new most
significant digit, and the points of O, listed by position (lex), grow
by their own images under it.  So lex[i] is the point with position i
and pos maps each point back to i.  Positions add digit by digit mod p,
which at p = 2 is one XOR.  Digit tuples are made only where a vector
leaves the frame: the coordinates coords_of_perm returns and the ones
perm_of_coords takes.  The concatenated per-orbit bases form a global
basis of F of dimension d; the restrictions of the kept generators to
their orbits are built when a basis is first read.
The frame reads every generator's coordinates once, as its group check,
and keeps them as gen_coords.  Every translation it applies, in that
check and in perm_of_coords, goes through one table per frame from an
orbit's dimension and a position X to an operator.itemgetter that
translates a lex-ordered tuple by X in one C call.  A vector lies in a
subspace H of F when its residual against the reduced row echelon form
of a basis of H is zero.  That residual is M·x for H's variety matrix M,
which is written out only when read; no matrix is inverted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter
from typing import Callable

from .fpalg import FpMatrix, RowReducer, exact_log, is_prime
from .perm import (
    OrbitPartition,
    Permutation,
    is_elementary_abelian,
    orbit_partition,
)


class FrameError(ValueError):
    """A precondition of the coordinate construction is violated."""


class NotInSuperspaceError(FrameError):
    """A permutation does not decompose over the frame's constituents."""


def _restrict(g: Permutation, block: tuple[int, ...]) -> Permutation:
    """g acting on block only, extended by the identity elsewhere."""
    images = list(range(1, g.n + 1))
    gi = g.images
    for a in block:
        images[a - 1] = gi[a - 1]
    return Permutation._trusted(tuple(images))


@dataclass(frozen=True)
class OrbitFrame:
    """Origin, basis and point positions for one orbit."""

    points: tuple[int, ...]
    origin: int
    dim: int
    # the generators kept as the basis, most significant digit first
    kept: tuple[Permutation, ...]
    # the points in order of position: lex[i] is the point with position i
    lex: tuple[int, ...]
    # point -> position, the inverse of lex
    pos: dict[int, int]
    # get(u.images) is the images of lex's points under u, in lex order
    # (for an orbit of one point, the image itself)
    get: Callable = field(repr=False, compare=False)

    @cached_property
    def basis(self) -> tuple[Permutation, ...]:
        """The kept generators restricted to the orbit, built on first read."""
        return tuple(_restrict(g, self.points) for g in self.kept)


def position(x, p: int) -> int:
    """The digits x, reduced mod p, read as a base-p number, most
    significant digit first."""
    i = 0
    for c in x:
        i = i * p + c % p
    return i


def digits(i: int, d: int, p: int) -> tuple[int, ...]:
    """The d base-p digits of position i, most significant first."""
    out = [0] * d
    for j in range(d - 1, -1, -1):
        i, out[j] = divmod(i, p)
    return tuple(out)


def position_sum(i: int, j: int, p: int) -> int:
    """The position whose digits are those of i plus those of j, mod p."""
    if p == 2:
        return i ^ j
    out = 0
    stride = 1
    while i or j:
        i, a = divmod(i, p)
        j, b = divmod(j, p)
        out += (a + b) % p * stride
        stride *= p
    return out


def translation_positions(x, p: int) -> list[int]:
    """The translation by x (digits, most significant first) on
    F_p^len(x), with each vector numbered by its position: entry i is the
    position of the digits of i plus x.

    At p = 2 that is i ^ position(x); otherwise the list is built from
    the least significant digit up.  Either way no digit tuple is formed
    per position.
    """
    if p == 2:
        shift = position(x, 2)
        return [i ^ shift for i in range(1 << len(x))]
    pos = [0]
    stride = 1
    for xj in reversed(x):
        pos = [(v + xj) % p * stride + r for v in range(p) for r in pos]
        stride *= p
    return pos


@dataclass(frozen=True)
class VarietyMatrix:
    """A subspace H of F as the echelon form of a basis: product(x), x's
    residual against it, is M·x for the d x d matrix M of the lemma (see
    Frame.variety_matrix), and m writes M out on first read."""

    reducer: RowReducer

    @property
    def dim_sub(self) -> int:
        return self.reducer.rank

    def product(self, x) -> tuple[int, ...]:
        return self.reducer.reduce(x)

    def contains(self, x) -> bool:
        return not any(self.reducer.reduce(x))

    @cached_property
    def m(self) -> FpMatrix:
        d = self.reducer.width
        columns = [self.product(tuple(int(i == j) for i in range(d))) for j in range(d)]
        return FpMatrix(self.reducer.p, tuple(zip(*columns)))


class Frame:
    """Per-orbit bases and coordinates for the super-space of a group.

    gen_coords holds the coordinates of each generator, read once when the
    frame is built; that read is the group check, since it raises unless
    every generator acts as a translation on every orbit.
    """

    def __init__(self, p, n, gens, orbits, orbit_frames):
        self.p = p
        self.n = n
        self.gens = tuple(gens)
        self.orbits = orbits
        self.orbit_frames = tuple(orbit_frames)
        slices = []
        start = 0
        for of in self.orbit_frames:
            slices.append((start, start + of.dim))
            start += of.dim
        self.slices = tuple(slices)
        self.dim = start
        # (dim, position x) -> (digits of x, itemgetter translating
        # lex-ordered tuples by x), filled on first use; its keys are the
        # per-orbit positions of the permutations coords_of_perm and
        # perm_of_coords were given, and the dimension keeps orbits of
        # different sizes apart
        self._translations: dict[tuple[int, int], tuple[tuple[int, ...], Callable]] = {}
        self.gen_coords = tuple(self.coords_of_perm(g) for g in self.gens)

    @cached_property
    def basis(self) -> tuple[Permutation, ...]:
        """The per-orbit bases in orbit order, built on first read."""
        return tuple(v for of in self.orbit_frames for v in of.basis)

    # -- coordinates ------------------------------------------------------

    def translation(self, dim: int, x: int) -> tuple[tuple[int, ...], Callable]:
        """The digits of position x of F_p^dim, and the translation by x on
        an orbit of that dimension, on tuples in lex order: entry i of
        translation(dim, x)[1](of.lex) is the image of of.lex[i].

        The translation is an itemgetter over its positions; both are made
        on first use and kept in the frame's table."""
        entry = self._translations.get((dim, x))
        if entry is None:
            xd = digits(x, dim, self.p)
            entry = self._translations[dim, x] = (
                xd, itemgetter(*translation_positions(xd, self.p)))
        return entry

    def coords_of_perm(self, u: Permutation) -> tuple[int, ...]:
        """Coordinates of u in the global basis.

        Per orbit, the position x is read off the image of the origin; u is
        then replayed on every point of the orbit to confirm it decomposes
        over the constituents: its images in lex order must be lex
        translated by x.
        """
        if u.n != self.n:
            raise FrameError(f"domain size {u.n} differs from frame size {self.n}")
        ui = u.images
        out: list[int] = []
        for of in self.orbit_frames:
            origin = of.origin
            x = of.pos.get(ui[origin - 1])
            if x is None:
                raise NotInSuperspaceError(
                    f"point {origin} leaves its orbit under the permutation"
                )
            if of.dim == 0:
                continue
            xd, shift = self.translation(of.dim, x)
            if of.get(ui) != shift(of.lex):
                raise NotInSuperspaceError(
                    f"restriction to the orbit of {origin} is not in the constituent"
                )
            out.extend(xd)
        return tuple(out)

    def perm_of_coords(self, x) -> Permutation:
        """The permutation with global coordinates x (sum of basis multiples)."""
        if len(x) != self.dim:
            raise FrameError(f"coordinate length {len(x)} != frame dimension {self.dim}")
        p = self.p
        moved: dict[int, int] = {}
        for of, (lo, hi) in zip(self.orbit_frames, self.slices):
            xo = position(x[lo:hi], p)
            if xo:
                moved.update(zip(of.lex, self.translation(of.dim, xo)[1](of.lex)))
        points = range(1, self.n + 1)
        return Permutation._trusted(tuple(map(moved.get, points, points)))

    # -- subspaces --------------------------------------------------------

    def subspace_basis(self, vecs) -> tuple[list[tuple[int, ...]], int]:
        """Extract from vecs (coordinate vectors of F) a maximal
        independent subset: (basis, dimension)."""
        reducer = RowReducer(self.p, self.dim)
        basis = [x for x in vecs if reducer.add(x)]
        return basis, reducer.rank

    def variety_matrix(self, sub_basis) -> VarietyMatrix:
        """The span H of sub_basis as its echelon form, whose residual M·x
        is 0 exactly on H and equal exactly within one coset of H.  M is a
        parity-check matrix of H (MacWilliams and Sloane, The Theory of
        Error-Correcting Codes, 1977, ch. 1): the row of a pivot column is
        zero, and the row of a free column j is e_j minus, at each pivot
        column c, the entry at column j of c's echelon row."""
        reducer = RowReducer(self.p, self.dim)
        for v in sub_basis:
            if not reducer.add(v):
                raise FrameError("subspace basis is linearly dependent")
        return VarietyMatrix(reducer)


def _orbit_frame(gens, block: tuple[int, ...], p: int) -> OrbitFrame:
    """Origin, kept generators and positions of one orbit, in one pass
    over gens.

    The generators are scanned in input order.  Each one that moves the
    origin out of the points listed so far is kept as the new most
    significant digit: the list, in order of position, grows by its own
    images under g, g^2, ..., g^(p-1).
    """
    origin = block[0]
    dim = exact_log(len(block), p)
    if dim is None:
        raise FrameError(f"orbit of {origin} has size {len(block)}, not a power of {p}")
    lex = [origin]
    reached = {origin}
    kept: list[Permutation] = []
    for g in gens:
        if len(kept) == dim:
            break
        gi = g.images
        if gi[origin - 1] in reached:
            continue
        layer = lex
        for _ in range(p - 1):
            layer = [gi[a - 1] for a in layer]
            lex += layer
        reached = set(lex)
        kept.insert(0, g)
    if len(kept) != dim:
        raise FrameError(f"orbit of {origin} is not transitive under the generators")
    # the list holds the points reached from the origin; a block passed in
    # from outside may not be that orbit
    if reached != set(block):
        raise FrameError(f"block of {origin} is not an orbit of the generators")
    return OrbitFrame(
        points=block,
        origin=origin,
        dim=dim,
        kept=tuple(kept),
        lex=tuple(lex),
        pos=dict(zip(lex, range(len(lex)))),
        get=itemgetter(*[a - 1 for a in lex]),
    )


def build_frame(n: int, gens, p: int, orbits: OrbitPartition | None = None) -> Frame:
    """Build the frame for G = <gens> acting on {1..n}.

    The orbits are taken from orbits when given (as normalize stores them
    on an instance), else found in one pass over the generators.  Per
    orbit, one pass over the generators in input order keeps each one that
    moves the origin out of the points reached so far (newest first) and
    lists the points in order of position; the positions are read off
    that list.

    The group check is the frame's read of every generator's coordinates
    (Frame.gen_coords): each orbit's positions are a bijection between
    the orbit and F_p^d, so a generator that acts as a translation on
    every orbit has order p (or 1) and commutes with every other such
    generator, which makes G elementary Abelian.  The read also confirms a
    given partition: each orbit's list must cover its block, and each
    generator must map each block onto itself.  Only when the construction fails are the
    generators tested pairwise, so that the error names the violation:
    order or commutation when there is one, else the construction's own
    error.
    """
    gens = list(gens)
    for g in gens:
        if g.n != n:
            raise FrameError(f"generator domain {g.n} differs from n = {n}")
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    if orbits is None:
        orbits = orbit_partition(gens, n)
    elif orbits.n != n:
        raise FrameError(f"orbit partition of {orbits.n} points differs from n = {n}")
    try:
        return Frame(p, n, gens, orbits, [_orbit_frame(gens, b, p) for b in orbits.blocks])
    except FrameError:
        ok, detail = is_elementary_abelian(gens, p)
        if not ok:
            raise FrameError(
                f"generators are not an elementary Abelian {p}-group: {detail}"
            ) from None
        raise
