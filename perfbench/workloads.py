"""The seeded workloads and the checks on their verdicts.

A workload turns a seed into a corpus of rendered instance texts; the
solver only ever sees those texts.  The structure of every corpus is
fixed (orbit shapes, group dimension, the share of planted or satisfiable
instances) and the seed draws everything else, so two seeds give corpora
of the same difficulty and run-to-run spread stays small.

Import this module only after ``source.load_gcsolve()``.  Corpora are
built with gcsolve's own generators, or with those of another copy of the
package passed as ``lib`` (the speed probe builds its instance with the
frozen copy, so that a change to gcsolve cannot change the probe).
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass

import gcsolve
from gcsolve import constraint, instfile
from gcsolve.frame import build_frame

# 32 orbits of dimension 1-3 (n = 146, d = 63) and a 48-dimensional group:
# many generators, so the m^2 group check and the d x d inversions dominate.
WIDE_DIMS = (1,) * 11 + (2,) * 11 + (3,) * 10
WIDE_DIM_G = 48

# Every way to fill n = 1024 points with orbits of dimension 8-10, cycled so
# each corpus holds the same shapes; dim G sits midway between its bounds.
DEEP_SHAPES = ((10,), (9, 9), (9, 8, 8), (8, 8, 8, 8))

CLAUSE_VARS = 7
CLAUSE_COUNT = 7
CLAUSE_SIZE = 3
# Satisfiable share of a clause corpus.  Deciding a satisfiable set stops
# early and an unsatisfiable one exhausts all 3^7 candidates, so the
# latencies are bimodal; holding the share below one half keeps the median
# and the 90th percentile inside the unsatisfiable mode for every seed.
CLAUSE_SAT_SHARE = 0.4

# Largest group the enumeration oracle may walk when confirming an UNSAT
# verdict that names no empty orbit.
ENUM_CAP = 2**16

OK = "ok"
UNCHECKED = "unchecked"
WRONG = "wrong"


@dataclass(frozen=True)
class Item:
    """One instance of a corpus, with what its generator knows about it."""

    text: str
    planted: bool | None = None  # gen_instance planted a witness
    brute_sat: bool | None = None  # one_in_k_brute found an assignment


@dataclass(frozen=True)
class Corpus:
    items: tuple[Item, ...]
    stage_ns: dict[str, int]  # set-up time per stage, summed over the corpus

    @property
    def digest(self) -> str:
        """sha256 of the rendered texts, in corpus order."""
        h = hashlib.sha256()
        for item in self.items:
            h.update(item.text.encode())
            h.update(b"\0")
        return h.hexdigest()


def _shuffled(seq, rng) -> tuple:
    out = list(seq)
    for i in range(len(out) - 1, 0, -1):
        j = rng.below(i + 1)
        out[i], out[j] = out[j], out[i]
    return tuple(out)


class _Stages:
    """Accumulates set-up time per named stage."""

    def __init__(self):
        self.ns: dict[str, int] = {}

    def run(self, name, fn, *args):
        start = time.perf_counter_ns()
        result = fn(*args)
        self.ns[name] = self.ns.get(name, 0) + time.perf_counter_ns() - start
        return result


def _gen_items(configs, stages: _Stages, lib):
    items = []
    for cfg, planted in configs:
        res = stages.run("genbench.gen", lib.genbench.gen_instance, cfg)
        text = stages.run("instfile.render", lib.instfile.render_instance, res.instance)
        items.append(Item(text, planted=planted))
    return items


def _wide(seed: int, size: int, stages: _Stages, lib):
    gb = lib.genbench
    configs = []
    for i in range(size):
        dims = _shuffled(WIDE_DIMS, gb.SplitMix64(gb.derive_seed(seed, 1, i, 0)))
        planted = i % 2 == 0
        cfg = gb.GenConfig(p=2, seed=gb.derive_seed(seed, 1, i, 1), k=2,
                           sat_bias=1.0 if planted else 0.0, dims=dims, dim_g=WIDE_DIM_G)
        configs.append((cfg, planted))
    return _gen_items(configs, stages, lib)


def _deep(seed: int, size: int, stages: _Stages, lib):
    gb = lib.genbench
    configs = []
    for i in range(size):
        shape = DEEP_SHAPES[i % len(DEEP_SHAPES)]
        dims = _shuffled(shape, gb.SplitMix64(gb.derive_seed(seed, 2, i, 0)))
        planted = (i // len(DEEP_SHAPES)) % 2 == 0
        dim_g = (max(dims) + sum(dims)) // 2
        cfg = gb.GenConfig(p=2, seed=gb.derive_seed(seed, 2, i, 1), k=2,
                           sat_bias=1.0 if planted else 0.0, dims=dims, dim_g=dim_g)
        configs.append((cfg, planted))
    return _gen_items(configs, stages, lib)


def draw_clause_set(rng, lib):
    """CLAUSE_COUNT clauses, each of CLAUSE_SIZE distinct variables."""
    sigma = tuple(f"x{i}" for i in range(1, CLAUSE_VARS + 1))
    clauses = tuple(_shuffled(sigma, rng)[:CLAUSE_SIZE] for _ in range(CLAUSE_COUNT))
    return lib.reduction.ClauseSet(sigma, clauses)


def _clauses(seed: int, size: int, stages: _Stages, lib):
    """Clause sets in draw order, keeping the first round(size * share)
    satisfiable and the first remaining unsatisfiable ones."""
    gb, red = lib.genbench, lib.reduction
    want = {True: round(size * CLAUSE_SAT_SHARE)}
    want[False] = size - want[True]
    items = []
    j = 0
    while want[True] or want[False]:
        s = stages.run("genbench.gen", draw_clause_set, gb.SplitMix64(gb.derive_seed(seed, 3, j)), lib)
        j += 1
        sat = stages.run("reduction.brute", red.one_in_k_brute, s) is not None
        if not want[sat]:
            continue
        want[sat] -= 1
        reduced = stages.run("reduction.reduce", red.reduce_1in_k, s, 3)
        text = stages.run("instfile.render", lib.instfile.render_instance, reduced.instance)
        items.append(Item(text, brute_sat=sat))
    return items


WORKLOADS = {
    "wide-p2": (_wide, 32),
    "deep-p2": (_deep, 32),
    "clauses-p3": (_clauses, 100),
}


def build_corpus(workload: str, seed: int, size: int | None = None, lib=gcsolve) -> Corpus:
    """The corpus of a workload for a seed; size defaults to the workload's,
    and lib is the copy of gcsolve whose generators build it."""
    make, default_size = WORKLOADS[workload]
    stages = _Stages()
    items = make(seed, default_size if size is None else size, stages, lib)
    return Corpus(tuple(items), stages.ns)


# -- verdict checks ----------------------------------------------------------


def _apply(images, word, a: int) -> int:
    for i in word:
        a = images[i][a - 1]
    return a


def orbit_unsatisfiable(inst: constraint.GcInstance, a0: int) -> bool:
    """True when no group element maps every point of a0's orbit into its
    constraint set, decided from the raw generator images alone.

    G is Abelian, so on one orbit it acts regularly: all elements taking a0
    to c agree on the orbit.  A breadth-first search gives, for each point
    c, a word in the generators taking a0 to c, and any solution must take
    a0 into C(a0), so testing those words covers every candidate.
    """
    images = [g.images for g in inst.gens]
    word = {a0: ()}
    frontier = [a0]
    while frontier:
        nxt = []
        for a in frontier:
            for i, img in enumerate(images):
                b = img[a - 1]
                if b not in word:
                    word[b] = word[a] + (i,)
                    nxt.append(b)
        frontier = nxt
    for c in inst.cmap[a0]:
        w = word.get(c)
        if w is not None and all(_apply(images, w, a) in inst.cmap[a] for a in word):
            return False
    return True


def check(item: Item, outcome: constraint.SolveOutcome) -> tuple[str, str | None]:
    """Judge a SAT or UNSAT verdict against a freshly parsed copy of its
    instance: (OK | UNCHECKED | WRONG, reason)."""
    inst = instfile.parse_instance(item.text)
    if outcome.status == constraint.SAT:
        ok, why = constraint.verify_detail(inst, outcome.witness)
        if not ok:
            return WRONG, f"witness rejected: {why}"
        if item.brute_sat is False:
            return WRONG, "SAT, but the clause set has no 1-in-3 assignment"
        return OK, None
    if outcome.status != constraint.UNSAT:
        raise ValueError(f"no check for status {outcome.status!r}")
    if item.planted:
        return WRONG, "planted instance reported UNSAT"
    if item.brute_sat is not None:
        if item.brute_sat:
            return WRONG, "UNSAT, but the clause set has a 1-in-3 assignment"
        return OK, None
    if outcome.reason == constraint.UNSAT_EMPTY_VO:
        if orbit_unsatisfiable(inst, outcome.orbit_min):
            return OK, None
        return WRONG, f"the orbit of {outcome.orbit_min} admits a solution"
    fr = build_frame(inst.n, inst.gens, inst.p)
    try:
        oracle = constraint.solve_enumerate(fr, inst, cap=ENUM_CAP)
    except constraint.CapExceededError:
        return UNCHECKED, f"{outcome.reason}: group larger than the enumeration cap"
    if oracle.status == constraint.SAT:
        return WRONG, "enumeration found a solution"
    return OK, None
