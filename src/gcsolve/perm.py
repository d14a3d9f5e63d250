"""Permutations on {1..n}, orbit partitions and the elementary Abelian test.

Points are 1-based contiguous integers.  Composition is written left to
right: ``compose(u, v)`` maps ``a`` to ``v(u(a))``, i.e. apply ``u`` first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .fpalg import check_prime

# Largest domain size: orbit partitions, frames and instances allocate per
# point even without generators, so a larger n is refused before that.
MAX_N = 2**16


def check_size(n: int):
    """Refuse (ValueError) a domain of more than MAX_N points."""
    if n > MAX_N:
        raise ValueError(f"n = {n} exceeds the limit {MAX_N}")


class DomainMismatchError(ValueError):
    """Raised when permutations on different domain sizes are combined."""


@dataclass(frozen=True)
class Permutation:
    """A bijection on {1..n}, stored as the tuple of images of 1, 2, ..., n."""

    images: tuple[int, ...]

    def __post_init__(self):
        images = tuple(self.images)
        object.__setattr__(self, "images", images)
        n = len(images)
        # n distinct values between 1 and n are exactly 1..n
        if n and (min(images) != 1 or max(images) != n or len(set(images)) != n):
            raise ValueError(f"images do not form a bijection on 1..{n}")

    @classmethod
    def _trusted(cls, images: tuple[int, ...]) -> Permutation:
        """Wrap an images tuple the library built from valid permutations,
        or checked to be a bijection itself, skipping the check that public
        construction runs."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "images", images)
        return obj

    @property
    def n(self) -> int:
        return len(self.images)

    def image(self, a: int) -> int:
        """Image of point a (written a^g)."""
        return self.images[a - 1]

    def is_identity(self) -> bool:
        return all(i + 1 == b for i, b in enumerate(self.images))

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each rotated to start at its smallest point."""
        out = []
        seen = bytearray(self.n + 1)
        for a in range(1, self.n + 1):
            if seen[a] or self.images[a - 1] == a:
                continue
            cyc = [a]
            b = self.images[a - 1]
            while b != a:
                seen[b] = 1
                cyc.append(b)
                b = self.images[b - 1]
            out.append(tuple(cyc))
        return out

    def __str__(self):
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + " ".join(map(str, c)) + ")" for c in cycs)

    @staticmethod
    def identity(n: int) -> Permutation:
        return Permutation(tuple(range(1, n + 1)))

    @staticmethod
    def from_cycles(n: int, cycles) -> Permutation:
        """Build a permutation of {1..n} from disjoint cycles, e.g. [(1, 2), (3, 4, 5)]."""
        images = list(range(1, n + 1))
        for cyc in cycles:
            for a, b in zip(cyc, cyc[1:]):
                images[a - 1] = b
            images[cyc[-1] - 1] = cyc[0]
        return Permutation(tuple(images))


def compose(u: Permutation, v: Permutation) -> Permutation:
    """Apply u, then v: the result maps a to (a^u)^v."""
    if u.n != v.n:
        raise DomainMismatchError(f"domain sizes differ: {u.n} vs {v.n}")
    vi = v.images
    return Permutation._trusted(tuple([vi[x - 1] for x in u.images]))


def order(g: Permutation) -> int:
    """Smallest positive k with g^k the identity: the lcm of cycle lengths."""
    return math.lcm(*(len(c) for c in g.cycles()))


def orbit_partition(gens, n: int | None = None) -> tuple[tuple[int, ...], ...]:
    """Orbits of the group generated by gens, each an ascending tuple,
    ordered by smallest point, found in one breadth-first pass over the
    generators' image tuples (O(m·n)).  n is required when gens is empty;
    more than MAX_N points are refused (ValueError)."""
    images = [g.images for g in gens]
    if n is None:
        if not images:
            raise ValueError("n is required for an empty generator list")
        n = len(images[0])
    check_size(n)
    for im in images:
        if len(im) != n:
            raise DomainMismatchError(f"generator domain {len(im)} differs from {n}")
    seen = bytearray(n + 1)
    blocks = []
    # each orbit starts at the smallest point no earlier orbit holds
    for start in range(1, n + 1):
        if seen[start]:
            continue
        seen[start] = 1
        block = [start]
        for a in block:  # grows while it is walked
            for im in images:
                b = im[a - 1]
                if not seen[b]:
                    seen[b] = 1
                    block.append(b)
        blocks.append(tuple(sorted(block)))
    return tuple(blocks)


def is_elementary_abelian(gens, p: int) -> tuple[bool, str | None]:
    """Check that all non-identity generators have order p and all pairs
    commute.  Returns (ok, detail) where detail names the first violation.

    Raises ValueError when p is not prime.
    """
    check_prime(p)
    gens = list(gens)
    for i, g in enumerate(gens):
        if g.is_identity():
            continue
        k = order(g)
        if k != p:
            return False, f"generator {i + 1} has order {k}, expected {p}"
    images = [g.images for g in gens]
    for i, u in enumerate(images):
        for j in range(i + 1, len(images)):
            v = images[j]
            if len(u) != len(v):
                raise DomainMismatchError(f"domain sizes differ: {len(u)} vs {len(v)}")
            # a^(uv) = v(b) and a^(vu) = u(c) for b = a^u, c = a^v
            if any(v[b - 1] != u[c - 1] for b, c in zip(u, v)):
                return False, f"generators {i + 1} and {j + 1} do not commute"
    return True, None
