"""Permutations on {1..n}, orbit partitions and the elementary Abelian test.

Points are 1-based contiguous integers.  Composition is written left to
right: ``compose(u, v)`` maps ``a`` to ``v(u(a))``, i.e. apply ``u`` first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .fpalg import is_prime


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
        seen = bytearray(n + 1)
        for b in images:
            if not 1 <= b <= n or seen[b]:
                raise ValueError(f"images do not form a bijection on 1..{n}")
            seen[b] = 1

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
    return Permutation(tuple(vi[x - 1] for x in u.images))


def inverse(g: Permutation) -> Permutation:
    inv = [0] * g.n
    for i, b in enumerate(g.images):
        inv[b - 1] = i + 1
    return Permutation(tuple(inv))


def power(g: Permutation, k: int) -> Permutation:
    """g composed with itself k times (k may be negative or zero)."""
    if k < 0:
        return power(inverse(g), -k)
    acc = Permutation.identity(g.n)
    base = g
    while k:
        if k & 1:
            acc = compose(acc, base)
        k >>= 1
        if k:
            base = compose(base, base)
    return acc


def order(g: Permutation) -> int:
    """Smallest positive k with g^k the identity: the lcm of cycle lengths."""
    return math.lcm(*(len(c) for c in g.cycles())) if g.cycles() else 1


class UnionFind:
    """Union-find over points 1..n with path compression and union by size."""

    def __init__(self, n: int):
        self.parent = list(range(n + 1))
        self.size = [1] * (n + 1)

    def find(self, a: int) -> int:
        p = self.parent
        root = a
        while p[root] != root:
            root = p[root]
        while p[a] != root:
            p[a], a = root, p[a]
        return root

    def union(self, a: int, b: int):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]


class OrbitPartition:
    """Partition of {1..n} into disjoint blocks, ordered by smallest element."""

    __slots__ = ("n", "blocks", "_block_of")

    def __init__(self, n: int, blocks):
        canon = sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0])
        self.n = n
        self.blocks = tuple(canon)
        self._block_of = [-1] * (n + 1)
        count = 0
        for i, block in enumerate(self.blocks):
            for a in block:
                if not 1 <= a <= n or self._block_of[a] != -1:
                    raise ValueError("blocks are not a partition of 1..%d" % n)
                self._block_of[a] = i
            count += len(block)
        if count != n:
            raise ValueError("blocks do not cover 1..%d" % n)

    def block_index(self, a: int) -> int:
        return self._block_of[a]

    def block_of(self, a: int) -> tuple[int, ...]:
        return self.blocks[self._block_of[a]]

    def same_block(self, a: int, b: int) -> bool:
        return self._block_of[a] == self._block_of[b]

    def __eq__(self, other):
        return (
            isinstance(other, OrbitPartition)
            and self.n == other.n
            and self.blocks == other.blocks
        )

    def __hash__(self):
        return hash((self.n, self.blocks))

    def __repr__(self):
        inner = ", ".join("{" + ",".join(map(str, b)) + "}" for b in self.blocks)
        return f"OrbitPartition({self.n}, [{inner}])"

    @staticmethod
    def bottom(n: int) -> OrbitPartition:
        return OrbitPartition(n, [(a,) for a in range(1, n + 1)])

    @staticmethod
    def top(n: int) -> OrbitPartition:
        return OrbitPartition(n, [tuple(range(1, n + 1))] if n else [])

    @staticmethod
    def from_perm(g: Permutation) -> OrbitPartition:
        """Partition of 1..n into the cycles of g (fixed points as singletons)."""
        uf = UnionFind(g.n)
        for a in range(1, g.n + 1):
            uf.union(a, g.image(a))
        return _from_union_find(g.n, uf)

    def join(self, other: OrbitPartition) -> OrbitPartition:
        """Least upper bound in the partition-refinement lattice."""
        if self.n != other.n:
            raise DomainMismatchError(f"partition sizes differ: {self.n} vs {other.n}")
        uf = UnionFind(self.n)
        for part in (self, other):
            for block in part.blocks:
                for a in block[1:]:
                    uf.union(block[0], a)
        return _from_union_find(self.n, uf)


def _from_union_find(n: int, uf: UnionFind) -> OrbitPartition:
    groups: dict[int, list[int]] = {}
    for a in range(1, n + 1):
        groups.setdefault(uf.find(a), []).append(a)
    return OrbitPartition(n, groups.values())


def orbit_partition(gens, n: int | None = None) -> OrbitPartition:
    """Orbits of the group generated by gens, as the join of per-generator
    cycle partitions.  n is required when gens is empty."""
    gens = list(gens)
    if not gens:
        if n is None:
            raise ValueError("n is required for an empty generator list")
        return OrbitPartition.bottom(n)
    if n is None:
        n = gens[0].n
    part = OrbitPartition.bottom(n)
    for g in gens:
        if g.n != n:
            raise DomainMismatchError(f"generator domain {g.n} differs from {n}")
        part = part.join(OrbitPartition.from_perm(g))
    return part


def is_elementary_abelian(gens, p: int) -> tuple[bool, str | None]:
    """Check that all non-identity generators have order p and all pairs
    commute.  Returns (ok, detail) where detail names the first violation.

    Raises ValueError when p is not prime.
    """
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    gens = list(gens)
    for i, g in enumerate(gens):
        if g.is_identity():
            continue
        k = order(g)
        if k != p:
            return False, f"generator {i + 1} has order {k}, expected {p}"
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            if compose(gens[i], gens[j]) != compose(gens[j], gens[i]):
                return False, f"generators {i + 1} and {j + 1} do not commute"
    return True, None
