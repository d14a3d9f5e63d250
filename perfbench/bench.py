"""Timed passes, traced pass and metrics of the gcsolve benchmark.

The measured operation is "decide one instance from its text":
``instfile.parse_instance`` followed by ``constraint.solve``, called in a
closed loop by one caller on one thread.  Verdicts are checked outside the
timed region.  With ``--trace 0`` every timed decision is bracketed by two
decisions of a frozen probe instance (see ``probe.py``), and the end-to-end
times are scaled to the probe's reference speed.  Import this module only
after ``source.load_gcsolve()``.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import time

import gcsolve
import workloads
from gcsolve import constraint, instfile
from probe import Probe
from source import ROOT
from tracer import END, START, Tracer

OUT_DIR = ROOT / ".bench_out"
# Corpus builds per run.  With --trace 0 they are spread evenly through the
# timed loop, each between two probe decisions, and setup_s is the median of
# their scaled times.
SETUP_REPEATS = 3

# name -> unit; printed with --trace 0.  Every time is scaled by the probe
# decisions around it to the probe's reference speed.  solve_ms_p50 and
# solve_ms_p90 are percentiles of every decision of the run, and
# throughput_ips is decisions per second of scaled decision time (one
# caller, so the inverse of the mean latency).
END_TO_END = {
    "solve_ms_p50": "ms",
    "solve_ms_p90": "ms",
    "throughput_ips": "instances/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics printed with --trace 1.  Times are means per instance
# of the self time of a stage (its span minus its child spans) unless the
# name says otherwise; everything else is an exact count over the corpus.
PER_LAYER_TIMES = {
    "instfile.parse_ms": "instfile.parse",
    "constraint.normalize_ms": "constraint.normalize",
    "perm.group_check_ms": "perm.group_check",
    "perm.validate_ms": "perm.validate",
    "perm.orbits_ms": "perm.orbits",
    "frame.build_ms": "frame.build",
    "frame.group_basis_ms": "frame.group_basis",
    "frame.variety_matrix_ms": "frame.variety_matrix",
    "frame.perm_of_coords_ms": "frame.perm_of_coords",
    "fpalg.invert_ms": "fpalg.invert",
    "fpalg.reducer_add_ms": "fpalg.reducer_add",
    "constraint.vo_ms": "constraint.vo",
    "constraint.linearity_ms": "constraint.linearity",
}
# Summed self time per module; instfile's only stage is parse_instance,
# reported as instfile.parse_ms (normalize is charged to constraint).
LAYERS = ("perm", "frame", "fpalg", "constraint")
PER_LAYER_CALLS = {
    "perm.validate_calls": "perm.validate",
    "perm.orbits_calls": "perm.orbits",
    "fpalg.invert_calls": "fpalg.invert",
    "fpalg.solve_calls": "fpalg.solve",
    "fpalg.reducer_add_calls": "fpalg.reducer_add",
    "frame.contains_calls": "frame.contains",
    "constraint.fallback_candidates": "constraint.fallback/frame.contains",
}
PER_LAYER_COUNTS = (
    "perm.gen_pairs",
    "fpalg.invert_cells",
    "fpalg.solve_cells",
    "constraint.vo_total",
    "constraint.fallback_space",
    "frame.n",
    "frame.m",
    "frame.orbits",
    "frame.d",
    "frame.dim_g",
)
OUTCOMES = {
    "constraint.sat": (constraint.SAT, None),
    "constraint.unsat_empty_vo": (constraint.UNSAT, constraint.UNSAT_EMPTY_VO),
    "constraint.unsat_inconsistent": (constraint.UNSAT, constraint.UNSAT_INCONSISTENT),
    "constraint.unsat_exhausted": (constraint.UNSAT, constraint.UNSAT_EXHAUSTED),
    "constraint.notlinear": (constraint.NOTLINEAR, None),
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in output order."""
    units = {name: "ms" for name in PER_LAYER_TIMES}
    units["constraint.system_ms"] = "ms"
    units["constraint.verify_ms"] = "ms"
    units.update({f"layer.{layer}_ms": "ms" for layer in LAYERS})
    units["trace.decide_ms"] = "ms"
    units["trace_overhead_pct"] = "%"
    units["setup.generate_ms"] = "ms"
    units["instfile.render_ms"] = "ms"
    for name in (*PER_LAYER_CALLS, *PER_LAYER_COUNTS, *OUTCOMES, "check.unchecked"):
        units[name] = "count"
    return units


def decide(text: str) -> constraint.SolveOutcome:
    # module attribute lookups, so the tracer's wrappers are seen
    return constraint.solve(instfile.parse_instance(text))


def _key(out) -> tuple:
    witness = out.witness.images if out.witness is not None else None
    return (out.status, out.reason, out.orbit_min, witness)


class Verdicts:
    """First verdict per instance; later calls must repeat it."""

    def __init__(self, size: int):
        self.first: list = [None] * size
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, index: int, out) -> None:
        self.attempted += 1
        if isinstance(out, Exception):
            why = f"{type(out).__name__}: {out}"
        elif out.status == constraint.NOTLINEAR:
            why = f"NOTLINEAR: {out.reason}"
        elif self.first[index] is None:
            self.first[index] = out
            return
        elif _key(out) == _key(self.first[index]):
            return
        else:
            why = "verdict differs from the first call"
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(f"instance {index}: {why}")

    def check(self, items) -> dict:
        """Check each instance's verdict once, outside any timed region.
        An instance whose every decision failed has no verdict to check
        and counts as unchecked."""
        tally = {workloads.OK: 0, workloads.UNCHECKED: 0, workloads.WRONG: 0}
        notes = []
        for index, (item, out) in enumerate(zip(items, self.first)):
            if out is None:
                result, why = workloads.UNCHECKED, "no verdict: every decision failed"
            else:
                result, why = workloads.check(item, out)
            tally[result] += 1
            if why and len(notes) < 5:
                notes.append(f"instance {index}: {result}: {why}")
        return {"tally": tally, "notes": notes}


def is_correct(verdicts: Verdicts, checked: dict) -> bool:
    """No decision failed (exception, NOTLINEAR or a changed verdict) and
    no checked verdict is wrong."""
    return verdicts.failed == 0 and checked["tally"][workloads.WRONG] == 0


def _try_decide(text: str):
    try:
        return decide(text)
    except Exception as exc:  # a failed decision is counted, never fatal
        return exc


class SetUp:
    """Builds a workload's corpus, timing every build; the first build's
    corpus is the one decided, and every later build must equal it.  With a
    probe, each build is timed between two probe decisions and its scaled
    time is kept in `scaled` (without one, `scaled` repeats `times`)."""

    def __init__(self, workload: str, seed: int, probe: Probe | None = None):
        self.workload, self.seed, self.probe = workload, seed, probe
        self.times: list[float] = []  # s, as measured
        self.scaled: list[float] = []  # s, at the probe's reference speed
        self.stage_ns: dict[str, int] = {}  # summed over the builds
        self.corpus = None
        self.build()

    def build(self) -> None:
        gc.collect()
        before = self.probe.time_ms() if self.probe else None
        start = time.perf_counter()
        corpus = workloads.build_corpus(self.workload, self.seed)
        elapsed = time.perf_counter() - start
        self.times.append(elapsed)
        if self.probe:
            elapsed *= self.probe.scale(before, self.probe.time_ms())
        self.scaled.append(elapsed)
        for stage, ns in corpus.stage_ns.items():
            self.stage_ns[stage] = self.stage_ns.get(stage, 0) + ns
        if self.corpus is None:
            self.corpus = corpus
        elif corpus.digest != self.corpus.digest:
            raise RuntimeError("the same seed produced different corpora")


def timed_passes(items, seconds: float, probe: Probe, between=None, slices: int = 1):
    """Cycle through the corpus for `seconds`, finishing at least one whole
    pass, with a probe decision before the first decision and after every
    decision.  The time is cut into `slices` equal slices and `between()`
    runs, untimed, before every slice but the first.  The last pass stops
    when time is up, so some instances may have one sample more than others.
    Returns latencies (ms, as measured) in call order, so sample j decided
    instance j % len(items); the probe's scale factor for each sample; and
    the verdicts."""
    verdicts = Verdicts(len(items))
    latencies, scales = [], []
    clock = time.perf_counter
    index = 0
    for k in range(slices):
        if k and between is not None:
            between()
        gc.collect()
        deadline = clock() + seconds / slices
        before = probe.time_ms()
        while clock() < deadline or (k == slices - 1 and index < len(items)):
            i = index % len(items)
            t0 = clock()
            out = _try_decide(items[i].text)
            latencies.append((clock() - t0) * 1000.0)
            after = probe.time_ms()
            scales.append(probe.scale(before, after))
            before = after
            verdicts.record(i, out)
            index += 1
    return latencies, scales, verdicts


def traced_pass(items):
    """One untraced and one traced decision per instance, interleaved, then
    a traced verify_detail of every SAT witness.  Both decisions of an
    instance must agree.  The wrappers are installed only around the traced
    decision, so the untraced one runs the program as it is."""
    tracer = Tracer()
    plain = Verdicts(len(items))
    traced = Verdicts(len(items))
    untraced_ns = traced_ns = 0
    for index, item in enumerate(items):
        t0 = time.perf_counter_ns()
        out = _try_decide(item.text)
        untraced_ns += time.perf_counter_ns() - t0
        plain.record(index, out)
        with tracer.installed(gcsolve), tracer.root("bench.decide", index) as span:
            out = _try_decide(item.text)
        traced_ns += span[END] - span[START]
        traced.record(index, out)
        if plain.first[index] is not None and traced.first[index] is not None:
            if _key(plain.first[index]) != _key(traced.first[index]):
                traced.failed += 1
                traced.failures.append(f"instance {index}: traced verdict differs")
    with tracer.installed(gcsolve):
        for index, (item, out) in enumerate(zip(items, traced.first)):
            if out is None or out.status != constraint.SAT:
                continue
            inst = instfile.parse_instance(item.text)
            fr = constraint.build_frame(inst.n, inst.gens, inst.p)
            m_g = constraint.group_variety(fr)
            with tracer.root("bench.verify", index):
                constraint.verify_detail(inst, out.witness, fr, m_g)
    return tracer, traced, untraced_ns, traced_ns


def layer_metrics(tracer: Tracer, verdicts: Verdicts, size: int, untraced_ns: int,
                  traced_ns: int, stage_ns: dict, builds: int,
                  unchecked: int) -> tuple[dict, dict]:
    """(per-layer metrics, full per-stage breakdown) of a traced pass;
    stage_ns holds the set-up stage times summed over `builds` builds."""
    stages = tracer.stages("bench.decide")
    verify = tracer.stages("bench.verify")

    def ms(ns):
        return ns / 1e6 / size

    def stat(name, field):
        return stages.get(name, {}).get(field, 0)

    out = {m: ms(stat(name, "self_ns")) for m, name in PER_LAYER_TIMES.items()}
    out["constraint.system_ms"] = ms(
        stat("constraint.solve_linear", "total_ns") + stat("constraint.fallback", "total_ns"))
    out["constraint.verify_ms"] = ms(verify.get("bench.verify", {}).get("total_ns", 0))
    for layer in LAYERS:
        out[f"layer.{layer}_ms"] = ms(sum(
            s["self_ns"] for name, s in stages.items()
            if "/" not in name and name.split(".")[0] == layer))
    out["trace.decide_ms"] = ms(traced_ns)
    out["trace_overhead_pct"] = (traced_ns / untraced_ns - 1.0) * 100.0
    per_item = size * builds
    generate = sum(ns for s, ns in stage_ns.items() if s != "instfile.render")
    out["setup.generate_ms"] = generate / 1e6 / per_item
    out["instfile.render_ms"] = stage_ns.get("instfile.render", 0) / 1e6 / per_item
    for m, name in PER_LAYER_CALLS.items():
        out[m] = stat(name, "calls")
    for m in PER_LAYER_COUNTS:
        out[m] = tracer.counts.get(m, 0)
    for m, (status, reason) in OUTCOMES.items():
        out[m] = sum(1 for o in verdicts.first
                     if o is not None and o.status == status and (reason is None or o.reason == reason))
    out["check.unchecked"] = unchecked
    breakdown = {
        name: {"calls": s["calls"], "self_ms": ms(s["self_ns"]), "total_ms": ms(s["total_ns"])}
        for name, s in sorted(stages.items())
    }
    breakdown["bench.verify"] = {
        "calls": verify.get("bench.verify", {}).get("calls", 0),
        "self_ms": out["constraint.verify_ms"], "total_ms": out["constraint.verify_ms"]}
    for stage, ns in sorted(stage_ns.items()):
        breakdown[f"setup:{stage}"] = {"calls": per_item, "self_ms": ns / 1e6 / per_item,
                                       "total_ms": ns / 1e6 / per_item}
    return out, breakdown


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; prints a readable report and returns the result
    object whose JSON form is the last line of output."""
    probe = None if trace else Probe(workload)
    setup = SetUp(workload, seed, probe)
    corpus = setup.corpus
    items = corpus.items
    print(f"perfbench {workload} seed={seed} corpus={len(items)} instances "
          f"digest=sha256:{corpus.digest}")
    _try_decide(items[0].text)  # warm-up, untimed
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{workload}-seed{seed}-trace{int(trace)}"
    if trace:
        for _ in range(SETUP_REPEATS - 1):
            setup.build()
        gc.collect()
        tracer, verdicts, untraced_ns, traced_ns = traced_pass(items)
        checked = verdicts.check(items)
        metrics, breakdown = layer_metrics(tracer, verdicts, len(items), untraced_ns, traced_ns,
                                           setup.stage_ns, len(setup.times),
                                           checked["tally"][workloads.UNCHECKED])
        units = per_layer_units()
        raw = None
        tracer.write_csv(stem.with_suffix(".spans.csv"))
        print(f"{'stage':<40} {'calls':>9} {'self ms/inst':>13} {'total ms/inst':>14}")
        for name, s in breakdown.items():
            if "/" not in name:
                print(f"{name:<40} {s['calls']:>9} {s['self_ms']:>13.3f} {s['total_ms']:>14.3f}")
        print(f"trace overhead {metrics['trace_overhead_pct']:.2f}% "
              f"({len(tracer.spans)} spans written to {stem.with_suffix('.spans.csv').name})")
    else:
        latencies, scales, verdicts = timed_passes(items, seconds, probe, setup.build,
                                                   SETUP_REPEATS)
        checked = verdicts.check(items)
        scaled = [ms * f for ms, f in zip(latencies, scales)]
        metrics = {
            "solve_ms_p50": statistics.median(scaled),
            "solve_ms_p90": statistics.quantiles(scaled, n=10)[8],
            "throughput_ips": 1000.0 * len(scaled) / sum(scaled),
            "setup_s": statistics.median(setup.scaled),
            "peak_rss_mb": _peak_rss_mb(),
        }
        units = END_TO_END
        breakdown = None
        raw = {"latencies_ms": latencies, "scales": scales, "probe_ms": probe.times_ms}
        print(f"samples={len(latencies)} passes={len(latencies) / len(items):.2f}; as measured: "
              f"p50 {statistics.median(latencies):.2f} ms, "
              f"p90 {statistics.quantiles(latencies, n=10)[8]:.2f} ms; probe median "
              f"{statistics.median(probe.times_ms):.2f} ms against {probe.ref_ms} ms")
    print("setup builds (s, as measured): " + " ".join(f"{t:.4f}" for t in setup.times))
    tally = checked["tally"]
    print(f"fail_rate = {verdicts.failed / verdicts.attempted:.6g} ratio "
          f"({verdicts.failed} failed of {verdicts.attempted} decisions); "
          f"checked verdicts: ok={tally[workloads.OK]} unchecked={tally[workloads.UNCHECKED]} "
          f"wrong={tally[workloads.WRONG]} of {len(items)} instances")
    for note in verdicts.failures + checked["notes"]:
        print("  " + note)
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    result = {
        "correct": is_correct(verdicts, checked),
        "attempted": verdicts.attempted,
        "failed": verdicts.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    summary = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
               "corpus_size": len(items), "corpus_digest": corpus.digest,
               "setup_builds_s": setup.times,
               "setup_builds_scaled_s": setup.scaled, "checks": checked, "result": result,
               "breakdown": breakdown, "timed": raw}
    stem.with_suffix(".json").write_text(json.dumps(summary, indent=1) + "\n")
    return result
