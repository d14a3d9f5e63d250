"""Coordinate frames for elementary Abelian permutation groups.

A Frame represents the super-space F: the direct sum of the transitive
constituents of G = <g1..gm>.  The frame finds the orbits itself: each
orbit O is grown from its origin, the smallest point no earlier orbit
holds, and gets a basis of d_O kept generators, and every point of O gets
a position: the digits of its difference from the origin, read as a
base-p number, most significant digit first.  All of it comes from one
pass over the generators: each kept generator becomes the new most
significant digit, and the points of O, listed by position (lex), grow
by their own images under it.  So lex[i] is the point with position i
and pos maps each point back to i.  Positions add digit by digit mod p,
which at p = 2 is one XOR.  The concatenated per-orbit bases form a
global basis of F of dimension d; the restrictions of the kept
generators to their orbit are built when the orbit's basis is first
read.  Coordinates in that basis have one form, from the frame to the
witness: one int, packed as fpalg.packed_digits(p, d) packs it, which
coords_of_perms returns and perm_of_coords takes.  Each orbit holds one
field of it, the first orbit the top field, and an orbit's field is the
code of its position at the orbit's width (at p = 2, the position).
The frame reads every generator's coordinates once, as its group check,
and keeps them as gen_coords.  The read goes orbit by orbit over all the
generators, so each orbit's lex translated by X is made once per distinct
image of its origin and dropped when the orbit is done, and each
generator's fields are joined once; coords_of_perm is the same read of
one permutation.  Every translation the frame applies, in that read and
in perm_of_coords, goes through one table per frame from an orbit's
dimension and the code of a vector X to an operator.itemgetter that
translates a lex-ordered tuple by X in one C call; orbits of one
dimension share its entries.  A vector lies in a subspace H of F when
its residual against an echelon form of a basis of H is zero (every
echelon form gives the same residual).  That residual is M·x for H's
variety matrix M, which is written out only when read; no matrix is
inverted.  translation_perms builds the permutations that translate
consecutive blocks of points, each a copy of F_p^d in lex order; the
instance builders in genbench and reduction make their generators and
witnesses with it.  It gathers each block's images from the block's
slice of one tuple of the points, through an itemgetter over the
translation's positions, made once per call for each distinct
translation and shared by the blocks of its dimension, so the images
are the ints that tuple holds and no int is made per image; a block
gathers each translation it meets once.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import accumulate, filterfalse
from operator import itemgetter
from typing import Callable

from .fpalg import FpMatrix, RowReducer, check_prime, packed_digits
from .perm import Permutation, check_size, is_elementary_abelian
# orbit_partition is re-exported: build_frame finds the orbits itself, and
# frame.orbit_partition stays for the callers that look it up here (the
# benchmark's tracer wraps it)
from .perm import orbit_partition  # noqa: F401


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
    def points(self) -> tuple[int, ...]:
        """The orbit's points in ascending order, built on first read."""
        return tuple(sorted(self.lex))

    @cached_property
    def basis(self) -> tuple[Permutation, ...]:
        """The kept generators restricted to the orbit, built on first read."""
        return tuple(_restrict(g, self.lex) for g in self.kept)


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


# the byte order of array("H"), in which the packed positions are read and written
_BYTE_ORDER = sys.byteorder


@lru_cache(maxsize=None)
def _packed_range(dim: int) -> tuple[int, int]:
    """range(2^dim) as one int of 16-bit fields, and the int with a 1 in
    each of those fields.  MAX_N = 2^16 keeps every position of a frame
    within a field; larger dimensions are refused (ValueError)."""
    check_size(1 << dim)
    fields = array("H", range(1 << dim)).tobytes()
    ones = array("H", [1]).tobytes() * (1 << dim)
    return int.from_bytes(fields, _BYTE_ORDER), int.from_bytes(ones, _BYTE_ORDER)


def translation_positions(x, p: int) -> list[int]:
    """The translation by x (digits, most significant first) on
    F_p^len(x), with each vector numbered by its position: entry i is the
    position of the digits of i plus x.

    At p = 2 that is i ^ position(x), taken for every i at once: the
    positions are packed into 16-bit fields of one int, XORed with
    position(x) in every field, and read back as a list.  Otherwise the
    list is built from the least significant digit up.  Either way no
    digit tuple is formed per position.
    """
    if p == 2:
        dim = len(x)
        fields, ones = _packed_range(dim)
        shifted = fields ^ position(x, 2) * ones
        return array("H", shifted.to_bytes(2 << dim, _BYTE_ORDER)).tolist()
    pos = [0]
    stride = 1
    for xj in reversed(x):
        pos = [(v + xj) % p * stride + r for v in range(p) for r in pos]
        stride *= p
    return pos


def translation_perms(p: int, dims, vectors) -> list[Permutation]:
    """The permutations translating consecutive blocks of points, block i a
    copy of F_p^dims[i] numbered in lex order (see translation_positions),
    each by the matching slice of one of the vectors.

    Each block's images are gathered from its slice of one tuple of the
    call's points, by an itemgetter over the positions of the block's
    translation, so every image is an int the points tuple already holds.
    One itemgetter per call is made for each distinct translation, and
    blocks of the same dimension share it; each block keeps what it
    gathered per translation, so a block that meets a translation again
    reuses its images."""
    points = tuple(range(1, sum(p**d for d in dims) + 1))
    blocks = []
    lo = off = 0
    for d in dims:
        blocks.append((lo, lo + d, points[off:off + p**d], {}))
        lo += d
        off += p**d
    gathers: dict[tuple[int, ...], Callable] = {}
    perms = []
    for vector in vectors:
        vector = tuple(vector)
        images: list[int] = []
        for lo, hi, block, gathered in blocks:
            xd = vector[lo:hi]
            part = gathered.get(xd)
            if part is None:
                gather = gathers.get(xd)
                if gather is None:
                    table = translation_positions(xd, p)
                    # an itemgetter of one index returns the item, not a
                    # tuple, so a one-point block is gathered whole, by a slice
                    gather = gathers[xd] = (itemgetter(*table) if len(table) > 1
                                            else itemgetter(slice(None)))
                part = gathered[xd] = gather(block)
            images += part
        perms.append(Permutation._trusted(tuple(images)))
    return perms


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

    def packed_product(self, code: int) -> int:
        """product(x) for x given packed, as fpalg.packed_digits(p, d)
        packs it; the product is packed the same way.  It is the residual
        against the echelon form, not any M with H as its kernel: every
        row starts at its pivot, so where x is zero on its first c
        columns, so is product(x).  constraint.solve_product prunes on
        that."""
        return self.reducer.packed_residual(code)

    def contains(self, x) -> bool:
        return not any(self.product(x))

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

    def __init__(self, p, n, gens, orbit_frames):
        self.p = p
        self.n = n
        self.gens = tuple(gens)
        self.orbit_frames = tuple(orbit_frames)
        # (first, past the last) digit of each orbit in the global basis
        ends = list(accumulate((of.dim for of in self.orbit_frames), initial=0))
        self.slices = tuple(zip(ends, ends[1:]))
        self.dim = ends[-1]
        # (dim, code) -> itemgetter translating lex-ordered tuples by the
        # vector packed_digits(p, dim) packs as code, filled on first use;
        # its keys are the per-orbit codes of the permutations
        # coords_of_perms and perm_of_coords were given.  The dimension
        # keeps orbits of different sizes apart, and orbits of one size
        # share an entry; an orbit's lex translated by the code is kept only
        # while coords_of_perms reads that orbit
        self._translations: dict[tuple[int, int], Callable] = {}
        self.gen_coords = self.coords_of_perms(self.gens)

    # -- coordinates ------------------------------------------------------

    def translation(self, dim: int, code: int) -> Callable:
        """The translation on an orbit of dimension dim by the vector that
        packed_digits(p, dim) packs as code (at p = 2 the code is the
        position), on tuples in lex order: entry i of
        translation(dim, code)(of.lex) is the image of of.lex[i].

        It is an itemgetter over the translation's positions, made on first
        use and kept in the frame's table."""
        get = self._translations.get((dim, code))
        if get is None:
            xd = packed_digits(self.p, dim).unpack(code)
            get = self._translations[dim, code] = itemgetter(*translation_positions(xd, self.p))
        return get

    def _field(self, dim: int, x: int) -> tuple[str, Callable]:
        """The code of position x of F_p^dim, as packed_digits(p, dim) packs
        it, in binary digits (empty at dim 0), and the translation by it."""
        packing = packed_digits(self.p, dim)
        code = x if self.p == 2 else packing.pack(digits(x, dim, self.p))
        return (format(code, f"0{dim * packing.width}b") if dim else "",
                self.translation(dim, code))

    def coords_of_perm(self, u: Permutation) -> int:
        """Coordinates of u in the global basis (see coords_of_perms)."""
        return self.coords_of_perms((u,))[0]

    def coords_of_perms(self, perms) -> tuple[int, ...]:
        """Coordinates of each permutation of perms in the global basis,
        each packed into one int as packed_digits(p, d) packs it.

        The read goes orbit by orbit, and on each orbit over all of perms.
        The position x is read off the image of the origin; each
        permutation is then replayed on every point of the orbit to
        confirm it decomposes over the constituents: its images in lex
        order must be lex translated by x.  Each orbit's field, the code
        packed_digits(p, d_O) gives x, is appended after the fields of the
        orbits before it, so the first orbit holds the top field; the
        fields are joined as binary digits, so that the read takes time
        linear in d however many orbits there are.  Within one call a field
        is made once per distinct (d_O, x), and within one orbit lex
        translated by x once per distinct image of the origin.  A
        one-point orbit is read the same way: its only position is 0, its
        field is empty, and the replay compares the image of the point
        with the point.  The first failing orbit raises, at its first
        failing permutation, so a single permutation gets its orbits'
        errors in orbit order.
        """
        n = self.n
        for u in perms:
            if u.n != n:
                raise FrameError(f"domain size {u.n} differs from frame size {n}")
        images = [u.images for u in perms]
        outs: list[list[str]] = [[] for _ in images]
        # (dim, position x) -> (x's field, the translation by x), for this call
        fields: dict[tuple[int, int], tuple[str, Callable]] = {}
        for of in self.orbit_frames:
            origin = of.origin
            at = origin - 1
            dim, lex, get, pos = of.dim, of.lex, of.get, of.pos
            # image of the origin -> (x's field, lex translated by x), for
            # this orbit of this call only
            shifted: dict[int, tuple[str, tuple[int, ...]]] = {}
            for ui, out in zip(images, outs):
                b = ui[at]
                entry = shifted.get(b)
                if entry is None:
                    x = pos.get(b)
                    if x is None:
                        raise NotInSuperspaceError(
                            f"point {origin} leaves its orbit under the permutation")
                    field, shift = fields.get((dim, x)) or fields.setdefault(
                        (dim, x), self._field(dim, x))
                    entry = shifted[b] = (field, shift(lex))
                if get(ui) != entry[1]:
                    raise NotInSuperspaceError(
                        f"restriction to the orbit of {origin} is not in the constituent")
                out.append(entry[0])
        return tuple(int("".join(out) or "0", 2) for out in outs)

    def perm_of_coords(self, x: int) -> Permutation:
        """The permutation with global coordinates x, packed as
        coords_of_perms packs them: each orbit's code is read from its
        field of x and translates the orbit's points."""
        d = self.dim
        w = packed_digits(self.p, d).width
        if not 0 <= x < 1 << d * w:
            raise FrameError(f"coordinates do not fit the frame's {d} fields")
        # the fields are cut from x's binary digits, so that the read takes
        # time linear in d however many orbits there are
        bits = format(x, f"0{d * w}b")
        moved: dict[int, int] = {}
        for of, (lo, hi) in zip(self.orbit_frames, self.slices):
            if lo < hi and (code := int(bits[lo * w:hi * w], 2)):
                moved.update(zip(of.lex, self.translation(of.dim, code)(of.lex)))
        points = range(1, self.n + 1)
        return Permutation._trusted(tuple(map(moved.get, points, points)))

    # -- subspaces --------------------------------------------------------

    def subspace_basis(self, vecs) -> tuple[list[int], int]:
        """Extract from vecs (coordinate vectors of F, packed as
        coords_of_perms packs them) a maximal independent subset:
        (basis, dimension)."""
        reducer = RowReducer(self.p, self.dim)
        basis = [x for x in vecs if reducer.packed_add(x, self.dim)]
        return basis, reducer.rank

    def variety_matrix(self, sub_basis) -> VarietyMatrix:
        """The span H of sub_basis as its echelon form, whose residual M·x
        is 0 exactly on H and equal exactly within one coset of H.  M is a
        parity-check matrix of H (MacWilliams and Sloane, The Theory of
        Error-Correcting Codes, 1977, ch. 1): the row of a pivot column is
        zero, and the row of a free column j is e_j minus, at each pivot
        column c, the entry at column j of c's row in the reduced row
        echelon form."""
        reducer = RowReducer(self.p, self.dim)
        for v in sub_basis:
            if not reducer.add(v):
                raise FrameError("subspace basis is linearly dependent")
        return VarietyMatrix(reducer)


def _orbit_frame(gens, origin: int, p: int, seen: set) -> OrbitFrame:
    """Origin, kept generators and positions of the orbit of origin, in one
    pass over gens.

    The generators are scanned in input order.  Each one that moves the
    origin to a point not yet in seen is kept as the new most significant
    digit: the list, in order of position, grows by its own images under
    g, g^2, ..., g^(p-1).  Every point listed joins seen; a point listed
    twice, in this orbit or an earlier one, is refused, so orbits stay
    disjoint and each has p^d points.
    """
    lex = [origin]
    seen.add(origin)
    kept: list[Permutation] = []
    for g in gens:
        gi = g.images
        if gi[origin - 1] in seen:
            continue
        grown: list[int] = []
        layer = lex
        for _ in range(p - 1):
            layer = [gi[a - 1] for a in layer]
            grown += layer
        before = len(seen)
        seen.update(grown)
        if len(seen) - before != len(grown):
            raise FrameError(f"orbit of {origin} meets a point listed before")
        lex += grown
        kept.insert(0, g)
    return OrbitFrame(
        origin=origin,
        dim=len(kept),
        kept=tuple(kept),
        lex=tuple(lex),
        pos=dict(zip(lex, range(len(lex)))),
        get=itemgetter(*[a - 1 for a in lex]),
    )


def build_frame(n: int, gens, p: int) -> Frame:
    """Build the frame for G = <gens> acting on {1..n}.

    The orbits are found in the same pass that builds them: from each
    point no earlier orbit holds, in ascending order, one pass over the
    generators in input order keeps each one that moves that origin out of
    the points reached so far (newest first) and lists the points in
    order of position; the positions are read off that list.  More than
    MAX_N points are refused (ValueError) before anything is built.

    The group check is the frame's read of every generator's coordinates
    (Frame.gen_coords): each orbit's positions are a bijection between
    the orbit and F_p^d, so a generator that acts as a translation on
    every orbit has order p (or 1) and commutes with every other such
    generator, which makes G elementary Abelian.  The read also proves the
    orbits closed: each generator must map each listed orbit onto itself.
    Only when the construction fails are the generators tested pairwise,
    so that the error names the violation: order or commutation when
    there is one, else the construction's own error.
    """
    gens = list(gens)
    for g in gens:
        if g.n != n:
            raise FrameError(f"generator domain {g.n} differs from n = {n}")
    check_prime(p)
    check_size(n)
    seen: set[int] = set()
    try:
        # filterfalse reads seen as it goes, so it skips what earlier orbits listed
        origins = filterfalse(seen.__contains__, range(1, n + 1))
        return Frame(p, n, gens, [_orbit_frame(gens, a, p, seen) for a in origins])
    except FrameError:
        ok, detail = is_elementary_abelian(gens, p)
        if not ok:
            raise FrameError(
                f"generators are not an elementary Abelian {p}-group: {detail}"
            ) from None
        raise
