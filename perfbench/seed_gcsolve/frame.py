"""Coordinate frames for elementary Abelian permutation groups.

A Frame represents the super-space F: the direct sum of the transitive
constituents of G = <g1..gm>.  Each orbit O gets an origin (its smallest
point), a basis of d_O restricted generators, and a table mapping every
point of O to the coordinates of its difference from the origin.  The
concatenated per-orbit bases form a global basis of F of dimension d, and
membership in any subspace of F is decided through a variety matrix M with
M·[u] = M·[v] iff u and v lie in the same coset of the subspace.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import fpalg
from .fpalg import FpMatrix, RowReducer
from .perm import Permutation, UnionFind, is_elementary_abelian, orbit_partition


class FrameError(ValueError):
    """A precondition of the coordinate construction is violated."""


class NotInSuperspaceError(FrameError):
    """A permutation does not decompose over the frame's constituents."""


def _restrict(g: Permutation, block: tuple[int, ...]) -> Permutation:
    """g acting on block only, extended by the identity elsewhere."""
    images = list(range(1, g.n + 1))
    for a in block:
        images[a - 1] = g.image(a)
    return Permutation(tuple(images))


def _log_exact(size: int, p: int) -> int:
    d = 0
    while size % p == 0:
        size //= p
        d += 1
    if size != 1:
        raise FrameError(f"orbit size is not a power of {p}")
    return d


@dataclass(frozen=True)
class OrbitFrame:
    """Origin, basis and coordinate table for one orbit."""

    points: tuple[int, ...]
    origin: int
    dim: int
    basis: tuple[Permutation, ...]
    coords: dict[int, tuple[int, ...]]
    point_of: dict[tuple[int, ...], int]

    @property
    def size(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class VarietyMatrix:
    """d x d matrix over F_p whose kernel is a given subspace H of F.

    Two vectors have equal products with m exactly when they differ by an
    element of H, so cosets of H are the level sets of the product.
    """

    m: FpMatrix
    dim_sub: int

    def product(self, x) -> tuple[int, ...]:
        return self.m.mat_vec(x)

    def contains(self, x) -> bool:
        return not any(self.m.mat_vec(x))


class Frame:
    """Per-orbit bases and coordinates for the super-space of a group."""

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
        self.basis = tuple(v for of in self.orbit_frames for v in of.basis)

    # -- coordinates ------------------------------------------------------

    def coords_of_perm(self, u: Permutation, trusted: bool = False) -> tuple[int, ...]:
        """Coordinates of u in the global basis.

        Per orbit, the coordinates are read off the image of the origin;
        unless trusted, the candidate is then replayed on every point of
        the orbit to confirm u really decomposes over the constituents.
        """
        if u.n != self.n:
            raise FrameError(f"domain size {u.n} differs from frame size {self.n}")
        p = self.p
        out: list[int] = []
        for of in self.orbit_frames:
            x = of.coords.get(u.image(of.origin))
            if x is None:
                raise NotInSuperspaceError(
                    f"point {of.origin} leaves its orbit under the permutation"
                )
            out.extend(x)
            if trusted or of.dim == 0:
                continue
            coords = of.coords
            point_of = of.point_of
            for a in of.points:
                ya = coords[a]
                if u.image(a) != point_of[tuple((c + e) % p for c, e in zip(ya, x))]:
                    raise NotInSuperspaceError(
                        f"restriction to the orbit of {of.origin} is not in the constituent"
                    )
        return tuple(out)

    def coords_of_diff(self, a: int, b: int) -> tuple[int, ...]:
        """Coordinates (length d_O) of the unique constituent vector mapping
        a to b; a and b must lie in the same orbit."""
        if not (1 <= a <= self.n and 1 <= b <= self.n):
            raise FrameError(f"points {a}, {b} out of range 1..{self.n}")
        ia = self.orbits.block_index(a)
        if ia != self.orbits.block_index(b):
            raise FrameError(f"points {a} and {b} lie in different orbits")
        of = self.orbit_frames[ia]
        p = self.p
        return tuple((y - x) % p for x, y in zip(of.coords[a], of.coords[b]))

    def perm_of_coords(self, x) -> Permutation:
        """The permutation with global coordinates x (sum of basis multiples)."""
        if len(x) != self.dim:
            raise FrameError(f"coordinate length {len(x)} != frame dimension {self.dim}")
        p = self.p
        images = list(range(1, self.n + 1))
        for of, (lo, hi) in zip(self.orbit_frames, self.slices):
            xo = tuple(c % p for c in x[lo:hi])
            if not any(xo):
                continue
            coords = of.coords
            point_of = of.point_of
            for a in of.points:
                ya = coords[a]
                images[a - 1] = point_of[tuple((c + e) % p for c, e in zip(ya, xo))]
        return Permutation(tuple(images))

    def orbit_slice(self, x, orbit_index: int) -> tuple[int, ...]:
        lo, hi = self.slices[orbit_index]
        return tuple(x[lo:hi])

    # -- subspaces --------------------------------------------------------

    def subspace_basis(self, vecs, trusted: bool = False) -> tuple[list[tuple[int, ...]], int]:
        """Extract from vecs (permutations in F) a maximal independent
        subset, as coordinate vectors: (basis, dimension)."""
        reducer = RowReducer(self.p, self.dim)
        basis = []
        for v in vecs:
            x = self.coords_of_perm(v, trusted=trusted)
            if reducer.add(x):
                basis.append(x)
        return basis, reducer.rank

    def variety_matrix(self, sub_basis) -> VarietyMatrix:
        """Matrix M with M·x = 0 exactly on the span of sub_basis.

        The basis is completed with unit vectors (left to right), giving a
        change-of-basis matrix P; M is the inverse of P with the rows for
        the sub_basis coordinates zeroed out.
        """
        d = self.dim
        p = self.p
        reducer = RowReducer(p, d)
        columns = []
        for v in sub_basis:
            if not reducer.add(v):
                raise FrameError("subspace basis is linearly dependent")
            columns.append(tuple(v))
        d_sub = len(columns)
        for i in range(d):
            if len(columns) == d:
                break
            unit = tuple(1 if j == i else 0 for j in range(d))
            if reducer.add(unit):
                columns.append(unit)
        change = FpMatrix(p, tuple(zip(*columns)) if columns else ())
        inv = fpalg.invert(change) if d else FpMatrix(p, ())
        rows = tuple(
            (0,) * d if i < d_sub else inv.rows[i] for i in range(d)
        )
        return VarietyMatrix(FpMatrix(p, rows), d_sub)


def _fill_table(origin: int, basis, p: int) -> tuple[dict, dict]:
    """Walk coordinate tuples in lexicographic order, tracking the image of
    the origin, to map every orbit point to its coordinates."""
    d = len(basis)
    coords = {origin: (0,) * d}
    point_of = {(0,) * d: origin}
    digits = [0] * d
    b = origin
    while True:
        j = d - 1
        while j >= 0 and digits[j] == p - 1:
            j -= 1
        if j < 0:
            return coords, point_of
        digits[j] += 1
        # rolling the lower digits over from p-1 to 0 is one more step of
        # each of their basis vectors (order p), so apply basis[j:] once
        for i in range(j + 1, d):
            digits[i] = 0
        for g in basis[j:]:
            b = g.image(b)
        key = tuple(digits)
        if b in coords:
            raise FrameError("constituent action is not regular on its orbit")
        coords[b] = key
        point_of[key] = b


def build_frame(n: int, gens, p: int) -> Frame:
    """Build the frame for G = <gens> acting on {1..n}.

    Per orbit, the basis is extracted by scanning the restricted generators
    in input order and keeping each one that moves the origin out of the
    suborbit generated so far (newest first), then the coordinate table is
    filled by lexicographic enumeration.
    """
    gens = list(gens)
    for g in gens:
        if g.n != n:
            raise FrameError(f"generator domain {g.n} differs from n = {n}")
    ok, detail = is_elementary_abelian(gens, p)
    if not ok:
        raise FrameError(f"generators are not an elementary Abelian {p}-group: {detail}")
    orbits = orbit_partition(gens, n)
    frames = []
    for block in orbits.blocks:
        try:
            dim = _log_exact(len(block), p)
        except FrameError:
            raise FrameError(
                f"orbit of {block[0]} has size {len(block)}, not a power of {p}"
            ) from None
        origin = block[0]
        uf = UnionFind(n)
        basis: list[Permutation] = []
        for g in gens:
            if len(basis) == dim:
                break
            r = _restrict(g, block)
            if uf.find(r.image(origin)) == uf.find(origin):
                continue
            basis.insert(0, r)
            for a in block:
                uf.union(a, r.image(a))
        if len(basis) != dim:
            raise FrameError(
                f"orbit of {origin} is not transitive under the generators"
            )
        coords, point_of = _fill_table(origin, basis, p)
        if len(coords) != len(block):
            raise FrameError("constituent action is not regular on its orbit")
        frames.append(
            OrbitFrame(
                points=block,
                origin=origin,
                dim=dim,
                basis=tuple(basis),
                coords=coords,
                point_of=point_of,
            )
        )
    return Frame(p, n, gens, orbits, frames)
