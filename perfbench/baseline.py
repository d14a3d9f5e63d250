"""Repeat the benchmark over several seeds and record a BENCH_*.json point.

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/BENCH_seed.json

Each (workload, seed) pair runs ``run.py --trace 0`` in its own process,
one after another, every workload for one seed before the next seed; then
one ``--trace 1`` run per workload (on the first seed) gives the per-stage
breakdown.  For every end-to-end metric the file holds the value of each
seed, their median and quartiles (``statistics.quantiles`` with n=4) and
the quartile spread as a share of the median, next to the bound from
BENCHMARK.json.  ``unscaled`` holds, per seed, the median latency as
measured and the probe's median time, before the probe's scaling.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from source import ROOT

RUN = ROOT / "perfbench" / "run.py"


def _seeds(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict, float]:
    """(result line, summary file, wall seconds) of one benchmark process."""
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    wall = time.perf_counter() - start
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    summary_path = ROOT / ".bench_out" / f"{workload}-seed{seed}-trace{trace}.json"
    return result, json.loads(summary_path.read_text()), wall


def _machine() -> str:
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return f"{model}, {os.cpu_count()} logical CPUs"


def spread_stats(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--out", default=None, help="where to write the JSON record")
    parser.add_argument("--label", default=None, help="what was measured, e.g. a commit")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    seeds = _seeds(args.seeds)

    record = {
        "label": args.label,
        "python": platform.python_version(),
        "machine": _machine(),
        "run_seconds": seconds,
        "seeds": seeds,
        "workloads": {},
    }
    per_metric: dict[str, dict[str, list[float]]] = {w: {} for w in names}
    entries = {w: {"corpus_digests": [], "failed_of_attempted": [], "run_wall_s": [],
                   "unscaled": {"solve_ms_p50": [], "probe_ms_p50": []}}
               for w in names}
    for seed in seeds:  # workloads interleaved, so slow spells of the host hit them alike
        for workload in names:
            result, summary, wall = run_once(workload, seed, seconds, 0)
            entry = entries[workload]
            entry["run_wall_s"].append(wall)
            entry["corpus_digests"].append(summary["corpus_digest"])
            entry["failed_of_attempted"].append(f"{result['failed']}/{result['attempted']}")
            entry["unscaled"]["solve_ms_p50"].append(statistics.median(summary["timed"]["latencies_ms"]))
            entry["unscaled"]["probe_ms_p50"].append(statistics.median(summary["timed"]["probe_ms"]))
            if not result["correct"]:
                print(f"{workload} seed {seed}: WRONG verdicts {summary['checks']}", file=sys.stderr)
            for name, m in result["metrics"].items():
                per_metric[workload].setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()) + f" wall={wall:.1f}s",
                file=sys.stderr)
    for workload in names:
        entry = entries[workload]
        entry["end_to_end"] = {}
        for name, values in per_metric[workload].items():
            stats = spread_stats(values)
            stats["bound"] = bounds.get(name)
            entry["end_to_end"][name] = stats
            print(f"{workload} {name}: median {stats['median']:.4g} spread {stats['spread']:.4f}"
                  f" (bound {stats['bound']})", file=sys.stderr)
        result, summary, _ = run_once(workload, seeds[0], seconds, 1)
        entry["traced_seed"] = seeds[0]
        entry["per_layer"] = {n: m["value"] for n, m in result["metrics"].items()}
        entry["stages"] = summary["breakdown"]
        record["workloads"][workload] = entry
    text = json.dumps(record, indent=1) + "\n"
    if args.out:
        (ROOT / args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
