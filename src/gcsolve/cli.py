"""Command-line front end: solve, check, gen, reduce and bench.

Exit codes: 0 = satisfiable / check passed, 1 = unsatisfiable / check
failed, 2 = undecided (constraint not linear and no fallback ran), 64 =
malformed input (a usage error included) or violated precondition.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import genbench
from .constraint import DEFAULT_CAP, SAT, UNSAT, solve, verify_detail
from .frame import FrameError
from .instfile import (
    InstanceFormatError,
    parse_instance,
    parse_witness,
    render_instance,
    render_witness,
)
from .perm import Permutation
from .reduction import parse_clauses, reduce_1in_k, reduce_2cstr

EXIT_SAT = 0
EXIT_UNSAT = 1
EXIT_UNDECIDED = 2
EXIT_INPUT = 64


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit with EXIT_INPUT."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _read(path: str) -> str:
    """The UTF-8 text of path, or of stdin for "-"; raises ValueError
    naming the line of a byte that is not UTF-8."""
    if path == "-":
        data = sys.stdin.buffer.read()
    else:
        with open(path, "rb") as fh:
            data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        name = "<stdin>" if path == "-" else path
        raise ValueError(f"{name}: line {lineno}: not UTF-8") from None


def _write(path: str, text: str):
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_INPUT


def cmd_solve(args) -> int:
    try:
        text = _read(args.file)
    except (OSError, ValueError) as exc:
        return _fail(str(exc))
    t0 = time.perf_counter()
    try:
        inst = parse_instance(text)
    except InstanceFormatError as exc:
        return _fail(str(exc))
    parse_ms = (time.perf_counter() - t0) * 1000.0
    t0 = time.perf_counter()
    try:
        outcome = solve(inst, fallback=args.fallback, cap=args.cap)
    except FrameError as exc:
        return _fail(str(exc))
    solve_ms = (time.perf_counter() - t0) * 1000.0

    if args.json:
        payload = {
            "status": outcome.status.upper(),
            "witness": list(outcome.witness.images) if outcome.witness else None,
            "method": outcome.method,
            "reason": outcome.reason,
            "orbit_min": outcome.orbit_min,
            "vo_size": outcome.vo_size,
            "span_dim": outcome.span_dim,
            "parse_ms": parse_ms,
            "solve_ms": solve_ms,
        }
        print(json.dumps(payload))
    else:
        print(outcome.status.upper())
        if outcome.witness is not None:
            print(render_witness(outcome.witness), end="")
        if outcome.method:
            print(f"method {outcome.method}")
        if outcome.reason:
            print(f"reason {outcome.reason}")
        for key in ("orbit_min", "vo_size", "span_dim"):
            value = getattr(outcome, key)
            if value is not None:
                print(f"{key} {value}")
        print(f"parse_ms {parse_ms:.3f}")
        print(f"solve_ms {solve_ms:.3f}")

    if outcome.status == SAT:
        return EXIT_SAT
    if outcome.status == UNSAT:
        return EXIT_UNSAT
    return EXIT_UNDECIDED


def cmd_check(args) -> int:
    try:
        inst = parse_instance(_read(args.file))
    except (OSError, ValueError) as exc:
        return _fail(str(exc))
    if args.witness_file:
        if args.images:
            return _fail("give either --witness-file or witness images, not both")
        try:
            g = parse_witness(_read(args.witness_file), inst.n)
        except (OSError, ValueError) as exc:
            return _fail(str(exc))
    else:
        if len(args.images) != inst.n:
            return _fail(f"witness has {len(args.images)} images, expected {inst.n}")
        try:
            g = Permutation(tuple(args.images))
        except ValueError as exc:
            return _fail(str(exc))
    try:
        ok, reason = verify_detail(inst, g)
    except FrameError as exc:
        return _fail(str(exc))
    if ok:
        print("OK")
        return EXIT_SAT
    print(f"FAIL {reason}")
    return EXIT_UNSAT


def cmd_gen(args) -> int:
    try:
        cfg = genbench.GenConfig(
            p=args.p,
            seed=args.seed,
            k=args.k,
            sat_bias=args.sat_bias,
            dims=tuple(int(t) for t in args.dims.split(",")) if args.dims else None,
            dim_g=args.dim_g,
            n_target=args.n_target,
        )
        result = genbench.gen_instance(cfg)
    except ValueError as exc:
        return _fail(str(exc))
    try:
        _write(args.out, render_instance(result.instance))
        if args.witness_out:
            if result.witness is None:
                print("instance was not planted; no witness file written", file=sys.stderr)
            else:
                _write(args.witness_out, render_witness(result.witness))
    except OSError as exc:
        return _fail(str(exc))
    return EXIT_SAT


def cmd_reduce(args) -> int:
    try:
        clauses = parse_clauses(_read(args.file))
    except (OSError, ValueError) as exc:
        return _fail(str(exc))
    try:
        if args.mode == "k3":
            red = reduce_1in_k(clauses, args.p)
        else:
            red = reduce_2cstr(clauses, args.p, strict=not args.any_clause_size)
    except ValueError as exc:
        return _fail(str(exc))
    try:
        _write(args.out, render_instance(red.instance))
    except OSError as exc:
        return _fail(str(exc))
    if args.labels:
        for a, label in enumerate(red.labels, start=1):
            print(f"{a} {label}", file=sys.stderr)
    return EXIT_SAT


def _parse_values(spec: str) -> list[int]:
    out = []
    try:
        for chunk in spec.split(","):
            if ":" in chunk:
                lo, hi = chunk.split(":", 1)
                out.extend(range(int(lo), int(hi) + 1))
            else:
                out.append(int(chunk))
    except ValueError:
        raise ValueError(f"--values {spec!r}: expected ints and lo:hi ranges") from None
    return out


def _parse_pair(flag: str, spec: str) -> tuple[int, int]:
    lo, _, hi = spec.partition(":")
    try:
        return int(lo), int(hi)
    except ValueError:
        raise ValueError(f"{flag} {spec!r}: expected lo:hi") from None


def cmd_bench(args) -> int:
    try:
        values = _parse_values(args.values)
        kwargs = dict(
            seed=args.seed,
            p=args.p,
            k=args.k,
            sat_bias=args.sat_bias,
            q_range=_parse_pair("--q-range", args.q_range),
            dim_range=_parse_pair("--dim-range", args.dim_range),
        )
        if args.sweep == "dimg":
            configs = genbench.dim_g_sweep(values, **kwargs)
        else:
            configs = genbench.n_sweep(values, **kwargs)
        rows = genbench.bench_run(
            configs, args.samples, oracle_cap=args.oracle_cap, fallback=args.fallback
        )
    except ValueError as exc:
        return _fail(str(exc))
    try:
        _write(args.out, genbench.rows_to_csv(rows))
    except OSError as exc:
        return _fail(str(exc))
    return EXIT_SAT


def _apply_config_file(argv, parser):
    """Pre-scan for --config and install its key=value pairs as defaults,
    so explicit flags still win."""
    path = None
    for i, token in enumerate(argv):
        if token == "--config" and i + 1 < len(argv):
            path = argv[i + 1]
        elif token.startswith("--config="):
            path = token.split("=", 1)[1]
    if path is None:
        return
    defaults = {}
    for lineno, line in enumerate(_read(path).splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.replace("-", "_")
        defaults[key] = value
    for action in parser._actions:
        if action.dest in defaults:
            raw = defaults.pop(action.dest)
            defaults[action.dest] = action.type(raw) if action.type else raw
    parser.set_defaults(**defaults)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gcsolve",
        description="Solve permutation constraints over elementary Abelian p-groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="solve an instance file")
    ps.add_argument("file")
    ps.add_argument("--fallback", choices=("product", "enumerate", "none"), default="product")
    ps.add_argument("--cap", type=int, default=DEFAULT_CAP)
    ps.add_argument("--json", action="store_true")
    ps.set_defaults(func=cmd_solve)

    pc = sub.add_parser("check", help="verify a witness against an instance file")
    pc.add_argument("file")
    pc.add_argument("images", nargs="*", type=int)
    pc.add_argument("--witness-file")
    pc.set_defaults(func=cmd_check)

    pg = sub.add_parser("gen", help="generate a seeded random instance")
    pg.add_argument("--p", type=int, default=2)
    pg.add_argument("--k", type=int, default=2)
    pg.add_argument("--seed", type=int, default=0)
    pg.add_argument("--sat-bias", type=float, default=0.5)
    pg.add_argument("--dims", help="comma-separated per-orbit dimensions")
    pg.add_argument("--dim-g", type=int, help="exact group dimension")
    pg.add_argument("--n-target", type=int, help="exact domain size")
    pg.add_argument("--out", default="-")
    pg.add_argument("--witness-out")
    pg.set_defaults(func=cmd_gen)

    pr = sub.add_parser("reduce", help="reduce a positive clause file to an instance")
    pr.add_argument("file")
    pr.add_argument("--mode", choices=("k3", "2cstr"), required=True)
    pr.add_argument("--p", type=int, required=True)
    pr.add_argument("--out", default="-")
    pr.add_argument("--labels", action="store_true", help="print point labels to stderr")
    pr.add_argument(
        "--any-clause-size",
        action="store_true",
        help="2cstr only: skip the clause-size-equals-p check",
    )
    pr.set_defaults(func=cmd_reduce)

    pb = sub.add_parser("bench", help="run a sweep and emit CSV aggregates")
    pb.add_argument("--sweep", choices=("dimg", "n"), default="dimg")
    pb.add_argument("--values", default="5:10", help="comma list and/or lo:hi ranges")
    pb.add_argument("--samples", type=int, default=20)
    pb.add_argument("--seed", type=int, default=0)
    pb.add_argument("--p", type=int, default=2)
    pb.add_argument("--k", type=int, default=2)
    pb.add_argument("--sat-bias", type=float, default=0.5)
    pb.add_argument("--q-range", default="1:6")
    pb.add_argument("--dim-range", default="1:10")
    pb.add_argument("--oracle-cap", type=int, default=2**20)
    pb.add_argument("--fallback", choices=("product", "enumerate", "none"), default="product")
    pb.add_argument("--out", default="-")
    pb.add_argument("--config", help="key=value file supplying defaults for these flags")
    pb.set_defaults(func=cmd_bench)

    parser.bench_parser = pb
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        if argv[:1] == ["bench"]:
            _apply_config_file(argv, parser.bench_parser)
    except (OSError, ValueError) as exc:
        return _fail(str(exc))
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
