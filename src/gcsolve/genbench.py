"""Seeded random instance generation and the timing harness.

All randomness flows through SplitMix64 so runs are reproducible across
platforms; per-sample streams are derived from (root seed, cell index,
sample index).  Orbit i of an instance is a block of consecutive points,
a copy of F_p^{d_i} numbered in lex order, so its generators and planted
witness are translations built on frame.translation_positions by
translation_perms, whose one table per call builds each distinct block
translation once, and the constraints are range-checked and kept as
stated by constraint.normalize, as a parsed instance keeps its own.  The
harness times the linear pipeline against the enumeration oracle and
aggregates summary rows (means and standard deviations as a percent of
the mean, with "-" for cells where the oracle was capped).
"""

from __future__ import annotations

import time
from dataclasses import astuple, dataclass, replace
from statistics import fmean, pstdev

from .constraint import GcInstance, normalize, solve, solve_enumerate
from .fpalg import RowReducer, is_prime
from .frame import build_frame, translation_positions
from .perm import MAX_N, Permutation

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix(z: int) -> int:
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK
    return z ^ (z >> 31)


class SplitMix64:
    """The splitmix64 generator: state += golden gamma, output = mix(state)."""

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + _GOLDEN) & _MASK
        return _mix(self.state)

    def below(self, n: int) -> int:
        """Uniform integer in [0, n), bias-free via rejection."""
        if n <= 0:
            raise ValueError("below() needs a positive bound")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi], both ends included."""
        return lo + self.below(hi - lo + 1)

    def uniform01(self) -> float:
        return (self.next_u64() >> 11) / float(1 << 53)

    def sample(self, seq, k: int) -> list:
        """k distinct elements of seq (order not meaningful)."""
        s = len(seq)
        if k >= s:
            return list(seq)
        if k > s // 2:
            pool = list(seq)
            for i in range(k):
                j = self.randint(i, s - 1)
                pool[i], pool[j] = pool[j], pool[i]
            return pool[:k]
        chosen: set[int] = set()
        while len(chosen) < k:
            chosen.add(self.below(s))
        return [seq[i] for i in sorted(chosen)]


def derive_seed(root: int, *parts: int) -> int:
    """Stable child seed from a root and integer salts (cell, sample, ...)."""
    x = root & _MASK
    for part in parts:
        x = _mix(((x ^ (part & _MASK)) + _GOLDEN) & _MASK)
    return x


# Largest orbit dimension a config may ask for.
MAX_DIM = 13


@dataclass(frozen=True)
class GenConfig:
    """Recipe for one random instance (or, in the harness, one sweep cell).

    With dims=None the per-orbit dimensions are drawn per instance from
    q_range x dim_range, honoring dim_g (exact group dimension) or
    n_target (exact domain size) when set.  Every instance has at most
    perm.MAX_N points: a config that asks for more is refused, and
    a drawn set of dimensions that gives more is drawn again.
    """

    p: int
    seed: int
    k: int = 2
    sat_bias: float = 0.5
    dims: tuple[int, ...] | None = None
    dim_g: int | None = None
    n_target: int | None = None
    q_range: tuple[int, int] = (1, 6)
    dim_range: tuple[int, int] = (1, 10)

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"p = {self.p} is not prime")
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if not 0.0 <= self.sat_bias <= 1.0:
            raise ValueError("sat_bias must lie in [0, 1]")
        if self.dims is not None:
            object.__setattr__(self, "dims", tuple(self.dims))
            if not self.dims or any(d < 1 or d > MAX_DIM for d in self.dims):
                raise ValueError(f"dims must lie in 1..{MAX_DIM}")
            if self.dim_g is not None and not (
                max(self.dims) <= self.dim_g <= sum(self.dims)
            ):
                raise ValueError("dim_g must lie between max(dims) and sum(dims)")
            n = sum(self.p**d for d in self.dims)
            if n > MAX_N:
                raise ValueError(f"dims give n = {n}, above the limit {MAX_N}")
        if not (1 <= self.dim_range[0] <= self.dim_range[1] <= MAX_DIM):
            raise ValueError(f"dim_range must lie in 1..{MAX_DIM}")
        if self.q_range[0] < 1 or self.q_range[0] > self.q_range[1]:
            raise ValueError("bad q_range")
        if self.n_target is not None and not (
            self.p <= self.n_target <= MAX_N and self.n_target % self.p == 0
        ):
            raise ValueError(f"n_target must be a multiple of p in p..{MAX_N}")
        if self.dims is None and self.n_target is None and (
            self.q_range[0] * self.p ** self.dim_range[0] > MAX_N
        ):
            raise ValueError(f"q_range and dim_range give n above the limit {MAX_N}")


@dataclass(frozen=True)
class GenResult:
    instance: GcInstance
    witness: Permutation | None
    dims: tuple[int, ...]
    dim_g: int

    @property
    def d(self) -> int:
        return sum(self.dims)


def _draw_dims(cfg: GenConfig, rng: SplitMix64) -> tuple[int, ...]:
    if cfg.dims is not None:
        return cfg.dims
    if cfg.n_target is not None:
        dims = []
        remaining = cfg.n_target
        while remaining:
            top = cfg.dim_range[1]
            while cfg.p**top > remaining:
                top -= 1
            dims.append(rng.randint(cfg.dim_range[0], max(cfg.dim_range[0], top)))
            remaining -= cfg.p ** dims[-1]
        return tuple(dims)
    for _ in range(100_000):
        q = rng.randint(*cfg.q_range)
        dims = tuple(rng.randint(*cfg.dim_range) for _ in range(q))
        if sum(cfg.p**d for d in dims) <= MAX_N and (
            cfg.dim_g is None or max(dims) <= cfg.dim_g <= sum(dims)
        ):
            return dims
    raise ValueError(
        f"could not draw dims reaching dim_g={cfg.dim_g} with n <= {MAX_N} from {cfg}")


def translation_perms(p: int, dims, vectors) -> list[Permutation]:
    """The permutations translating consecutive blocks of points, block i a
    copy of F_p^dims[i] numbered in lex order (see translation_positions),
    each by the matching slice of one of the vectors.

    One table per call maps a block's digits to their translation, so
    blocks of the same dimension share it and each distinct translation is
    built once; a block's images are its positions shifted past the
    blocks before it."""
    table: dict[tuple[int, ...], list[int]] = {}
    perms = []
    for vector in vectors:
        images: list[int] = []
        lo = 0
        for d in dims:
            digits = tuple(vector[lo:lo + d])
            positions = table.get(digits)
            if positions is None:
                positions = table[digits] = translation_positions(digits, p)
            images.extend(map((len(images) + 1).__add__, positions))
            lo += d
        perms.append(Permutation._trusted(tuple(images)))
    return perms


def translation_perm(p: int, dims, vector) -> Permutation:
    """The translation of the blocks by one vector (see translation_perms)."""
    return translation_perms(p, dims, [vector])[0]


def gen_instance(cfg: GenConfig) -> GenResult:
    """Deterministically generate one instance from the config's seed.

    Orbits are regular translation actions of F_p^{d_i}; generators are
    uniform random vectors of the product space, redrawn until they span
    every constituent and have rank exactly dim_g; constraints draw
    min(k, orbit) points per point, forced through the planted witness
    image when the instance is planted.
    """
    rng = SplitMix64(cfg.seed)
    p = cfg.p
    dims = _draw_dims(cfg, rng)
    d = sum(dims)
    dim_g = cfg.dim_g if cfg.dim_g is not None else rng.randint(max(dims), d)

    rows = None
    for _ in range(100_000):
        cand = [[rng.below(p) for _ in range(d)] for _ in range(dim_g)]
        total = RowReducer(p, d)
        if not all(total.add(row) for row in cand):
            continue
        lo = 0
        ok = True
        for di in dims:
            # more rows cannot change a rank that is already full
            block = RowReducer(p, di)
            for row in cand:
                if block.add(row[lo:lo + di]) and block.rank == di:
                    break
            else:
                ok = False
                break
            lo += di
        if ok:
            rows = cand
            break
    if rows is None:
        raise ValueError(f"could not draw generators for {cfg}")

    # building a permutation draws nothing, so the generators and the
    # witness are built together, through one table, after the draws
    planted = rng.uniform01() < cfg.sat_bias
    vectors = list(rows)
    if planted:
        coeffs = [rng.below(p) for _ in range(dim_g)]
        witness_vec = [0] * d
        for c, row in zip(coeffs, rows):
            if c:
                witness_vec = [(w + c * x) % p for w, x in zip(witness_vec, row)]
        vectors.append(witness_vec)
    gens = translation_perms(p, dims, vectors)
    witness = gens.pop() if planted else None

    cmap = {}
    off = 0
    for di in dims:
        size = p**di
        want = min(cfg.k, size)
        for a in range(off + 1, off + size + 1):
            cset = {witness.images[a - 1]} if planted else set()
            while len(cset) < want:
                cset.add(off + 1 + rng.below(size))
            cmap[a] = cset
        off += size

    inst = normalize(cmap.items(), len(cmap), gens, p)
    return GenResult(inst, witness, dims, dim_g)


# -- harness ----------------------------------------------------------------


@dataclass(frozen=True)
class BenchRow:
    param: int
    n_mean: float
    n_sd_pct: float
    dimg_mean: float
    dimg_sd_pct: float
    d_mean: float
    d_sd_pct: float
    t1_mean_ms: float
    t1_sd_pct: float
    t2_mean_ms: float | None
    t2_sd_pct: float | None
    samples: int


def _sd_pct(values) -> float:
    m = fmean(values)
    if m == 0:
        return 0.0
    return 100.0 * pstdev(values) / m


def dim_g_sweep(values, seed: int, p: int = 2, k: int = 2, **kwargs) -> list[GenConfig]:
    """One cell per target group dimension."""
    return [GenConfig(p=p, seed=seed, k=k, dim_g=v, **kwargs) for v in values]


def n_sweep(values, seed: int, p: int = 2, k: int = 2, **kwargs) -> list[GenConfig]:
    """One cell per exact domain size."""
    return [GenConfig(p=p, seed=seed, k=k, n_target=v, **kwargs) for v in values]


def bench_run(
    configs,
    samples: int,
    oracle_cap: int = 2**20,
    fallback: str = "product",
    clock=time.perf_counter,
) -> list[BenchRow]:
    """Generate and solve `samples` instances per cell config, timing the
    linear pipeline (t1) and the enumeration oracle (t2, skipped whenever
    p^dim_g exceeds oracle_cap; the row then shows no oracle time)."""
    rows = []
    for ci, cfg in enumerate(configs):
        if cfg.dim_g is None and cfg.n_target is None:
            raise ValueError("each cell needs dim_g or n_target as its sweep parameter")
        param = cfg.dim_g if cfg.dim_g is not None else cfg.n_target
        ns, dgs, ds, t1s, t2s = [], [], [], [], []
        oracle_complete = True
        for idx in range(samples):
            res = gen_instance(replace(cfg, seed=derive_seed(cfg.seed, ci, idx)))
            inst = res.instance
            start = clock()
            solve(inst, fallback=fallback)
            t1s.append((clock() - start) * 1000.0)
            if cfg.p**res.dim_g > oracle_cap:
                oracle_complete = False
            else:
                fr = build_frame(inst.n, inst.gens, inst.p)
                start = clock()
                solve_enumerate(fr, inst, cap=oracle_cap)
                t2s.append((clock() - start) * 1000.0)
            ns.append(inst.n)
            dgs.append(res.dim_g)
            ds.append(res.d)
        rows.append(
            BenchRow(
                param=param,
                n_mean=fmean(ns),
                n_sd_pct=_sd_pct(ns),
                dimg_mean=fmean(dgs),
                dimg_sd_pct=_sd_pct(dgs),
                d_mean=fmean(ds),
                d_sd_pct=_sd_pct(ds),
                t1_mean_ms=fmean(t1s),
                t1_sd_pct=_sd_pct(t1s),
                t2_mean_ms=fmean(t2s) if oracle_complete and t2s else None,
                t2_sd_pct=_sd_pct(t2s) if oracle_complete and t2s else None,
                samples=samples,
            )
        )
    rows.sort(key=lambda r: r.param)
    return rows


CSV_HEADER = (
    "param,n_mean,n_sd_pct,dimG_mean,dimG_sd_pct,d_mean,d_sd_pct,"
    "t1_mean,t1_sd_pct,t2_mean,t2_sd_pct,samples"
)


def _csv_cell(value) -> str:
    if value is None:
        return "-"
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def rows_to_csv(rows) -> str:
    """Render bench rows, one column per BenchRow field in declared order,
    using "-" for oracle columns of capped cells."""
    lines = [CSV_HEADER]
    lines.extend(",".join(_csv_cell(v) for v in astuple(r)) for r in rows)
    return "\n".join(lines) + "\n"
