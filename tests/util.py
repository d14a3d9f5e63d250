"""Shared helpers for the test suite: the 8-point worked example and small
brute-force oracles kept independent of the library's solving path."""

from __future__ import annotations

from gcsolve.perm import Permutation, compose


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
    return max((len(inst.cmap[a]) for a in inst.constrained_points()), default=0)
