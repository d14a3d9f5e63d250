"""Command-line front end: solve, check, gen, reduce and bench.

Exit codes: 0 = satisfiable / check passed, 1 = unsatisfiable / check
failed, 2 = undecided (constraint not linear, and the fallback was off
or its walk passed --cap), 64 =
malformed input (a usage error included), a file that cannot be read or
written, or violated precondition, 141 = stdout closed by its reader.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time

from . import genbench
from .constraint import DEFAULT_CAP, MAX_N, SAT, UNSAT, solve, verify_detail
from .instfile import _g_line, parse_instance, parse_witness, render_instance, render_witness
from .reduction import parse_clauses, reduce_1in_k, reduce_2cstr

EXIT_SAT = 0
EXIT_UNSAT = 1
EXIT_UNDECIDED = 2
EXIT_INPUT = 64
EXIT_PIPE = 141  # 128 + SIGPIPE: stdout closed by its reader


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit with EXIT_INPUT."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


class _Parsed(argparse.Action):
    """Store what read(flag, value) makes of the flag's value.  A value
    that read refuses raises its ValueError, which names the flag, past
    argparse to main; a config line gets its FILE:LINE: in front."""

    def __init__(self, option_strings, dest, read, **kwargs):
        super().__init__(option_strings, dest, **kwargs)
        self.read = read

    def __call__(self, parser, namespace, value, option_string=None):
        setattr(namespace, self.dest, self.read(option_string, value))


class _Count(argparse.Action):
    """Store an int flag's value (--cap, --samples, --oracle-cap), refusing
    one below 1 as the flag's usage error; a config line gets its
    FILE:LINE: in front."""

    def __call__(self, parser, namespace, value, option_string=None):
        if value < 1:
            raise argparse.ArgumentError(self, f"must be at least 1, got {value}")
        setattr(namespace, self.dest, value)


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


def _text_report(report: dict) -> str:
    """The solve report as text: the status line, then one "name value"
    line per field that is not None, with the witness as its `g` line and
    times to three decimals."""
    out = report["status"] + "\n"
    for key, value in report.items():
        if key == "status" or value is None:
            continue
        if key == "witness":
            out += render_witness(value)
        elif isinstance(value, float):
            out += f"{key} {value:.3f}\n"
        else:
            out += f"{key} {value}\n"
    return out


def cmd_solve(args) -> int:
    text = _read(args.file)
    t0 = time.perf_counter()
    inst = parse_instance(text)
    parse_ms = (time.perf_counter() - t0) * 1000.0
    t0 = time.perf_counter()
    outcome = solve(inst, fallback=args.fallback, cap=args.cap)
    solve_ms = (time.perf_counter() - t0) * 1000.0

    # the outcome's fields in their declared order, then the two times
    report = {f.name: getattr(outcome, f.name) for f in dataclasses.fields(outcome)}
    report.update(status=outcome.status.upper(), parse_ms=parse_ms, solve_ms=solve_ms)
    if args.json:
        print(json.dumps(report, default=lambda g: list(g.images)))
    else:
        print(_text_report(report), end="")

    if outcome.status == SAT:
        return EXIT_SAT
    if outcome.status == UNSAT:
        return EXIT_UNSAT
    return EXIT_UNDECIDED


def cmd_check(args) -> int:
    inst = parse_instance(_read(args.file))
    if args.witness_file:
        if args.images:
            raise ValueError("give either --witness-file or witness images, not both")
        g = parse_witness(_read(args.witness_file), inst.n)
    else:
        g = _g_line(args.images, inst.n, "witness")
    ok, reason = verify_detail(inst, g)
    if ok:
        print("OK")
        return EXIT_SAT
    print(f"FAIL {reason}")
    return EXIT_UNSAT


def cmd_gen(args) -> int:
    cfg = genbench.GenConfig(
        p=args.p,
        seed=args.seed,
        k=args.k,
        sat_bias=args.sat_bias,
        dims=args.dims,
        dim_g=args.dim_g,
        n_target=args.n_target,
    )
    result = genbench.gen_instance(cfg)
    _write(args.out, render_instance(result.instance))
    if args.witness_out:
        if result.witness is None:
            print("instance was not planted; no witness file written", file=sys.stderr)
        else:
            _write(args.witness_out, render_witness(result.witness))
    return EXIT_SAT


def cmd_reduce(args) -> int:
    clauses = parse_clauses(_read(args.file))
    if args.mode == "k3":
        red = reduce_1in_k(clauses, args.p)
    else:
        red = reduce_2cstr(clauses, args.p, strict=not args.any_clause_size)
    _write(args.out, render_instance(red.instance))
    if args.labels:
        for a, label in enumerate(red.labels, start=1):
            print(f"{a} {label}", file=sys.stderr)
    return EXIT_SAT


def _parse_dims(flag: str, spec: str) -> tuple[int, ...]:
    try:
        return tuple(int(t) for t in spec.split(","))
    except ValueError:
        raise ValueError(f"{flag} {spec!r}: expected comma-separated ints") from None


def _parse_values(flag: str, spec: str) -> list[int]:
    """Comma-separated ints and lo:hi ranges, each bound in 1..MAX_N,
    which no sweep cell exceeds, checked before a range is expanded."""
    bounds = []
    try:
        for chunk in spec.split(","):
            lo, colon, hi = chunk.partition(":")
            bounds.append((int(lo), int(hi if colon else lo)))
    except ValueError:
        raise ValueError(f"{flag} {spec!r}: expected ints and lo:hi ranges") from None
    if not all(1 <= v <= MAX_N for pair in bounds for v in pair):
        raise ValueError(f"{flag} {spec!r}: values must lie in 1..{MAX_N}")
    return [v for lo, hi in bounds for v in range(lo, hi + 1)]


def _parse_pair(flag: str, spec: str) -> tuple[int, int]:
    lo, _, hi = spec.partition(":")
    try:
        return int(lo), int(hi)
    except ValueError:
        raise ValueError(f"{flag} {spec!r}: expected lo:hi") from None


# the flag that sets each GenConfig field a sweep cell takes from --values
_SWEEP_FIELDS = {"dim_g": "values", "n_target": "values"}


def cmd_bench(args) -> int:
    sweep = genbench.dim_g_sweep if args.sweep == "dimg" else genbench.n_sweep
    try:
        configs = sweep(args.values, seed=args.seed, p=args.p, k=args.k,
                        sat_bias=args.sat_bias, q_range=args.q_range, dim_range=args.dim_range)
    except genbench.CrossFieldError as exc:
        # name the last config line that set a field the rule reads to
        # the value the rule saw (no flag gave another)
        dests = {_SWEEP_FIELDS.get(f, f) for f in exc.fields}
        lines = [(lineno, where) for dest, (lineno, where, value) in args.config_lines.items()
                 if dest in dests and getattr(args, dest) == value]
        if not lines:
            raise
        raise ValueError(f"{max(lines)[1]} {exc}") from None
    rows = genbench.bench_run(
        configs, args.samples, oracle_cap=args.oracle_cap, fallback=args.fallback
    )
    _write(args.out, genbench.rows_to_csv(rows))
    return EXIT_SAT


_GEN_FIELDS = {f.name for f in dataclasses.fields(genbench.GenConfig)}


def _apply_config_file(argv, parser):
    """Pre-scan for --config and install its key=value pairs as defaults,
    so explicit flags still win.  Each value goes through its flag's type,
    choices and action as it would on the command line, and a GenConfig
    field's value through GenConfig's rule for it; a line that is not
    key=value, names no flag, or holds a value that any of them refuses
    raises ValueError naming the file and line.  The rules across fields
    wait for the sweep's cells; config_lines keeps, per flag, the line
    and value that set it, for cmd_bench to name."""
    path = None
    for i, token in enumerate(argv):
        if token == "--config" and i + 1 < len(argv):
            path = argv[i + 1]
        elif token.startswith("--config="):
            path = token.split("=", 1)[1]
    if path is None:
        return
    actions = {a.dest: a for a in parser._actions
               if a.option_strings and a.dest not in ("help", "config")}
    defaults = argparse.Namespace()
    config_lines = {}
    for lineno, line in enumerate(_read(path).splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        where = f"{path}:{lineno}:"
        if "=" not in line:
            raise ValueError(f"{where} expected key=value")
        key, raw = (part.strip() for part in line.split("=", 1))
        action = actions.get(key.replace("-", "_"))
        if action is None:
            raise ValueError(f"{where} unknown key {key!r}")
        try:
            value = action.type(raw) if action.type else raw
        except ValueError:
            raise ValueError(
                f"{where} {key}: invalid {action.type.__name__} value {raw!r}") from None
        if action.choices is not None and value not in action.choices:
            raise ValueError(f"{where} {key}: invalid choice {raw!r} "
                             f"(choose from {', '.join(action.choices)})")
        try:
            action(parser, defaults, value, action.option_strings[0])
            if action.dest in _GEN_FIELDS:
                # GenConfig's own rule for the field; dims=(1,) leaves out
                # the rule tying q_range and dim_range to p, which only the
                # sweep's cells decide
                genbench.GenConfig(**{"p": 2, "seed": 0, "dims": (1,),
                                      action.dest: getattr(defaults, action.dest)})
        except argparse.ArgumentError as exc:
            raise ValueError(f"{where} {key}: {exc.message}") from None
        except ValueError as exc:
            # a reader's error names the flag, GenConfig's the field
            raise ValueError(f"{where} {exc}") from None
        config_lines[action.dest] = (lineno, where, getattr(defaults, action.dest))
    parser.set_defaults(**vars(defaults), config_lines=config_lines)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gcsolve",
        description="Solve permutation constraints over elementary Abelian p-groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="solve an instance file")
    ps.add_argument("file")
    ps.add_argument("--fallback", choices=("product", "none"), default="product")
    ps.add_argument("--cap", type=int, action=_Count, default=DEFAULT_CAP)
    ps.add_argument("--json", action="store_true")
    ps.set_defaults(func=cmd_solve)

    pc = sub.add_parser("check", help="verify a witness against an instance file")
    pc.add_argument("file")
    pc.add_argument("images", nargs="*", type=int, default=[])
    pc.add_argument("--witness-file")
    pc.set_defaults(func=cmd_check)

    pg = sub.add_parser("gen", help="generate a seeded random instance")
    pg.add_argument("--p", type=int, default=2)
    pg.add_argument("--k", type=int, default=2)
    pg.add_argument("--seed", type=int, default=0)
    pg.add_argument("--sat-bias", type=float, default=0.5)
    pg.add_argument("--dims", action=_Parsed, read=_parse_dims,
                    help="comma-separated per-orbit dimensions")
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
    pb.add_argument("--values", action=_Parsed, read=_parse_values, default=[5, 6, 7, 8, 9, 10],
                    help=f"comma list and/or lo:hi ranges, in 1..{MAX_N}")
    pb.add_argument("--samples", type=int, action=_Count, default=20)
    pb.add_argument("--seed", type=int, default=0)
    pb.add_argument("--p", type=int, default=2)
    pb.add_argument("--k", type=int, default=2)
    pb.add_argument("--sat-bias", type=float, default=0.5)
    pb.add_argument("--q-range", action=_Parsed, read=_parse_pair, default=(1, 6))
    pb.add_argument("--dim-range", action=_Parsed, read=_parse_pair, default=(1, 10))
    pb.add_argument("--oracle-cap", type=int, action=_Count, default=2**20)
    pb.add_argument("--fallback", choices=("product", "none"), default="product")
    pb.add_argument("--out", default="-")
    pb.add_argument("--config", help="key=value file supplying defaults for these flags")
    pb.set_defaults(func=cmd_bench, config_lines={})

    parser.check_parser, parser.bench_parser = pc, pb
    return parser


def main(argv=None) -> int:
    """Run one command.  Every refusal surfaces here as an OSError or a
    ValueError, printed as "error: <message>" with exit EXIT_INPUT; a
    stdout closed by its reader exits EXIT_PIPE without a message."""
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        if argv[:1] == ["bench"]:
            _apply_config_file(argv, parser.bench_parser)
        if argv[:1] == ["check"]:
            # intermixed, so that images may follow --witness-file
            args = parser.check_parser.parse_intermixed_args(argv[1:])
        else:
            args = parser.parse_args(argv)
        code = args.func(args)
        # a report still buffered fails here, inside the boundary
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # stdout's reader is gone: point stdout at devnull so that the
        # flush at interpreter exit stays silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
