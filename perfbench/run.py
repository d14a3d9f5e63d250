"""Benchmark entry point: decide seeded gcsolve instances from their text.

    python3 perfbench/run.py --workload wide-p2 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; gcsolve is imported from its ``src/``.
With ``--trace 0`` the corpus is decided round-robin for ``--seconds``,
at least one whole pass, and the end-to-end metrics are printed; with ``--trace 1`` every instance
is decided once untraced and once traced (whatever ``--seconds`` says) and
the per-layer metrics are printed.  The last line of output is one JSON
object; spans and a summary are written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json

from source import load_gcsolve

WORKLOADS = ("wide-p2", "deep-p2", "clauses-p3")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    load_gcsolve()
    import bench

    result = bench.run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
