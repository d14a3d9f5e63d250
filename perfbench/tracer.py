"""Outside-in stage trace of gcsolve.

The tracer replaces gcsolve functions at the module or class attributes
their callers look up with wrappers that record a span (name, start, end,
parent, instance) and, for some stages, counts read from arguments or
results.  Wrappers only record while a root span is open, so set-up and
checks run untraced; every attribute is put back when tracing ends.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager

NAME, START, END, PARENT, INSTANCE = range(5)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index, instance]
        self.counts: dict[str, int] = {}  # metric -> count
        self._stack: list[int] = []
        self._instance = None
        self._saved: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def count(self, metric: str, amount: int = 1):
        self.counts[metric] = self.counts.get(metric, 0) + amount

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [name, 0, 0, parent, self._instance]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    @contextmanager
    def root(self, name: str, instance: int):
        """Open a top-level span; wrapped calls inside it become its children."""
        if self._stack:
            raise RuntimeError("root spans do not nest")
        self._instance = instance
        span = self._open(name)
        span[START] = time.perf_counter_ns()
        try:
            yield span
        finally:
            span[END] = time.perf_counter_ns()
            self._stack.pop()

    def _wrapper(self, name: str, fn, note):
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            span = self._open(name)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if note is not None:
                note(self, args, result)
            return result

        return traced

    # -- installing -------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, note=None):
        """Replace owner.attr (a module or class attribute) by a traced wrapper."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self._wrapper(name, original, note))

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self, gcsolve):
        install(self, gcsolve)
        try:
            yield self
        finally:
            self.restore()

    # -- aggregation ------------------------------------------------------

    def self_ns(self) -> list[int]:
        """Per span: its duration minus the durations of its direct children
        (children of one span run one after another, never overlapping)."""
        out = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                out[s[PARENT]] -= s[END] - s[START]
        return out

    def roots(self) -> list[int]:
        """Index of the root span above each span (parents precede children)."""
        out = []
        for i, s in enumerate(self.spans):
            out.append(i if s[PARENT] < 0 else out[s[PARENT]])
        return out

    def stages(self, root_name: str) -> dict[str, dict[str, int]]:
        """Calls, self time and inclusive time per span name, over the spans
        under roots called root_name.  "<parent>/<name>" keys count calls by
        the name of the calling span."""
        selfs = self.self_ns()
        roots = self.roots()
        out: dict[str, dict[str, int]] = {}
        for i, s in enumerate(self.spans):
            if self.spans[roots[i]][NAME] != root_name:
                continue
            keys = [s[NAME]]
            if s[PARENT] >= 0:
                keys.append(f"{self.spans[s[PARENT]][NAME]}/{s[NAME]}")
            for key in keys:
                entry = out.setdefault(key, {"calls": 0, "self_ns": 0, "total_ns": 0})
                entry["calls"] += 1
                entry["self_ns"] += selfs[i]
                entry["total_ns"] += s[END] - s[START]
        return out

    def write_csv(self, path):
        t0 = self.spans[0][START] if self.spans else 0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start_ns,end_ns,parent,instance\n")
            for i, s in enumerate(self.spans):
                fh.write(f"{i},{s[NAME]},{s[START] - t0},{s[END] - t0},{s[PARENT]},{s[INSTANCE]}\n")


# -- what is wrapped -----------------------------------------------------------


def _note_frame(t: Tracer, args, fr):
    t.count("frame.n", fr.n)
    t.count("frame.m", len(fr.gens))
    t.count("frame.orbits", len(fr.orbit_frames))
    t.count("frame.d", fr.dim)


def _note_group_variety(t: Tracer, args, vm):
    t.count("frame.dim_g", vm.dim_sub)


def _note_group_check(t: Tracer, args, result):
    # a passed check compares every pair of generators once
    if result[0]:
        m = len(args[0])
        t.count("perm.gen_pairs", m * (m - 1) // 2)


def _note_invert(t: Tracer, args, result):
    # Gauss-Jordan on [M | I]: d rows, width 2d, d pivots
    d = args[0].nrows
    t.count("fpalg.invert_cells", d * 2 * d * d)


def _note_solve(t: Tracer, args, result):
    # rows x (columns + rhs) x the most pivots the system can have
    a = args[0]
    t.count("fpalg.solve_cells", a.nrows * (a.ncols + 1) * min(a.nrows, a.ncols))


def _note_vo(t: Tracer, args, vos):
    t.count("constraint.vo_total", sum(len(vo) for vo in vos))


def _note_fallback(t: Tracer, args, result):
    space = 1
    for vo in args[1]:
        space *= len(vo)
    t.count("constraint.fallback_space", space)


def install(t: Tracer, gcsolve):
    """Wrap each stage at the attribute its callers look up.

    parse_instance and solve are looked up on their modules by the
    benchmark; normalize by instfile; build_frame, group_variety and the
    constraint stages by constraint; is_elementary_abelian and
    orbit_partition by frame and constraint; invert and solve on the fpalg
    module by frame and constraint; the rest are methods.
    """
    c, f, fp, inst, perm = (gcsolve.constraint, gcsolve.frame, gcsolve.fpalg,
                            gcsolve.instfile, gcsolve.perm)
    t.wrap(inst, "parse_instance", "instfile.parse")
    t.wrap(inst, "normalize", "constraint.normalize")
    t.wrap(c, "solve", "constraint.solve")
    t.wrap(c, "orbit_partition", "perm.orbits")
    t.wrap(f, "orbit_partition", "perm.orbits")
    t.wrap(f, "is_elementary_abelian", "perm.group_check", _note_group_check)
    t.wrap(perm.Permutation, "__post_init__", "perm.validate")
    t.wrap(c, "build_frame", "frame.build", _note_frame)
    t.wrap(c, "group_variety", "constraint.group_variety", _note_group_variety)
    t.wrap(f.Frame, "subspace_basis", "frame.group_basis")
    t.wrap(f.Frame, "variety_matrix", "frame.variety_matrix")
    t.wrap(f.Frame, "perm_of_coords", "frame.perm_of_coords")
    t.wrap(f.VarietyMatrix, "contains", "frame.contains")
    t.wrap(fp, "invert", "fpalg.invert", _note_invert)
    t.wrap(fp, "solve", "fpalg.solve", _note_solve)
    t.wrap(fp.RowReducer, "add", "fpalg.reducer_add")
    t.wrap(c, "compute_all_vo", "constraint.vo", _note_vo)
    t.wrap(c, "linearize", "constraint.linearity")
    t.wrap(c, "solve_linear", "constraint.solve_linear")
    t.wrap(c, "solve_product", "constraint.fallback", _note_fallback)
