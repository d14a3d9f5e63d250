"""Seeded random instance generation and the timing harness.

All randomness flows through SplitMix64 so runs are reproducible across
platforms; per-sample streams are derived from (root seed, cell index,
sample index).  Its outputs are computed in lane-packed batches, many
states mixed at once inside one int, and handed out in stream order: the
stream, and so the seed-0 vectors and every generated instance, is the
one that mixing a state per draw gives.  Orbit i of an instance is a
block of consecutive points, a copy of F_p^{d_i} numbered in lex order,
so its generators and planted witness are translations built by
frame.translation_perms, which gathers each block's images from one
tuple of the instance's points.  Each point's constraint set is drawn
inside its orbit and frozen as it is drawn; an orbit's draws share one
bound, so they go through one draw function (SplitMix64.below_fn), which
checks the bound and computes its rejection limit once.  The GcInstance
is made from the sets directly, kept as stated as a parsed instance
keeps its own, and is handed its orbits, the blocks, which the per-block
rank check proves to be orbits (GcInstance._trusted), so rendering it
searches for none.  Every instance the reductions build is handed its
orbits the same way: a 1-in-k point's set is its images under its
clause's generators, and an empty clause's block is p blocks of
dimension 0, one point each.  The harness times the linear pipeline
against the enumeration oracle and aggregates summary rows (means and
standard deviations as a percent of the mean, with "-" for cells where
the oracle was capped).
"""

from __future__ import annotations

import time
from array import array
from dataclasses import astuple, dataclass, replace
from functools import lru_cache
from statistics import fmean, pstdev
from typing import Callable

from .constraint import GcInstance, solve, solve_enumerate
from .fpalg import RowReducer, check_prime
from .frame import _BYTE_ORDER, build_frame, translation_perms
from .perm import MAX_N, Permutation

_MASK = (1 << 64) - 1
_SPAN = 1 << 64
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _mix(z: int) -> int:
    z = (z ^ (z >> 30)) * _MIX1 & _MASK
    z = (z ^ (z >> 27)) * _MIX2 & _MASK
    return z ^ (z >> 31)


# Draws are computed in batches of 16, 32, ... lanes, up to 4096, so that a
# short stream computes few outputs it does not use and _lane_constants
# holds at most nine sizes.  A batch of k holds the next k states in the
# low halves of k 128-bit lanes of one int, lane i the i-th, and runs _mix
# on all of them at once.  Each shift is masked back to the low 64 bits of
# its lane, and each product of a 64-bit value and a 64-bit constant fits
# its 128-bit lane, so no lane reaches the next.  The low words are read
# back through array("Q"), last lane first, so that list.pop() hands them
# out in stream order.
_FIRST_BATCH = 16
_MAX_BATCH = 4096
_LOW_WORDS = slice(-2, None, -2) if _BYTE_ORDER == "little" else slice(1, None, 2)


@lru_cache(maxsize=None)
def _lane_constants(k: int) -> tuple[int, int, int]:
    """For k lanes: a 1 in each lane, i golden gammas (mod 2^64) in lane
    i - 1, and the 64-bit mask in each lane.  Lane i is bits 128i up, as
    an int's value has it whatever the byte order of the host."""
    lanes = [(i * _GOLDEN & _MASK).to_bytes(16, "little") for i in range(1, k + 1)]
    ones = int.from_bytes((1).to_bytes(16, "little") * k, "little")
    return ones, int.from_bytes(b"".join(lanes), "little"), ones * _MASK


class SplitMix64:
    """The splitmix64 generator: state += golden gamma, output = mix(state).

    Outputs are computed ahead in lane-packed batches (see _lane_constants)
    and handed out in stream order, so every method gives what drawing one
    output at a time gives."""

    def __init__(self, seed: int):
        self._state = seed & _MASK  # the state of the last output computed
        self._batch = _FIRST_BATCH
        self._ahead: list[int] = []  # outputs computed and not yet taken, last first

    def _refill(self) -> list[int]:
        """Compute the next batch; the batches double up to _MAX_BATCH."""
        k = self._batch
        self._batch = min(2 * k, _MAX_BATCH)
        ones, ramp, mask = _lane_constants(k)
        z = (self._state * ones + ramp) & mask
        self._state = (self._state + k * _GOLDEN) & _MASK
        z = (z ^ (z >> 30) & mask) * _MIX1 & mask
        z = (z ^ (z >> 27) & mask) * _MIX2 & mask
        z ^= z >> 31 & mask
        self._ahead = array("Q", z.to_bytes(16 * k, _BYTE_ORDER))[_LOW_WORDS].tolist()
        return self._ahead

    def next_u64(self) -> int:
        return (self._ahead or self._refill()).pop()

    def below(self, n: int) -> int:
        """Uniform integer in [0, n), bias-free via rejection."""
        # above 2^64 no output lies below the limit, which would be 0
        if not 0 < n <= _SPAN:
            raise ValueError("below() needs a bound in 1..2^64")
        limit = _SPAN - _SPAN % n
        while True:
            u = (self._ahead or self._refill()).pop()
            if u < limit:
                return u % n

    def below_fn(self, n: int) -> Callable[[], int]:
        """A function of no arguments whose calls give what calls of
        below(n) give, from this stream, with the bound checked and the
        rejection limit computed once, when it is made."""
        if not 0 < n <= _SPAN:
            raise ValueError("below() needs a bound in 1..2^64")
        limit = _SPAN - _SPAN % n

        def draw() -> int:
            while True:
                u = (self._ahead or self._refill()).pop()
                if u < limit:
                    return u % n

        return draw

    def below_many(self, n: int, count: int) -> list[int]:
        """[below(n) for _ in range(count)], taken from the computed
        outputs a batch at a time; from the first batch holding an output
        that below would reject, the rest are drawn by below."""
        if not 0 < n <= _SPAN:
            raise ValueError("below() needs a bound in 1..2^64")
        limit = _SPAN - _SPAN % n
        out: list[int] = []
        need = count
        while need > 0:
            ahead = self._ahead or self._refill()
            cut = max(len(ahead) - need, 0)
            chunk = ahead[cut:]
            if limit < _SPAN and max(chunk) >= limit:
                out += [self.below(n) for _ in range(need)]
                break
            del ahead[cut:]
            chunk.reverse()
            out += map(n.__rmod__, chunk)
            need -= len(chunk)
        return out

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


class CrossFieldError(ValueError):
    """A GenConfig rule across fields that a sweep's cells meet refused the
    config; fields names the fields the rule reads, so that a caller can
    say where they were set."""

    def __init__(self, message: str, *fields: str):
        super().__init__(message)
        self.fields = fields


@dataclass(frozen=True)
class GenConfig:
    """Recipe for one random instance (or, in the harness, one sweep cell).

    With dims=None the per-orbit dimensions are drawn per instance from
    q_range x dim_range, honoring dim_g (exact group dimension) or
    n_target (exact domain size) when set.  Every instance has at most
    perm.MAX_N points: a config that asks for more is refused (a p above
    MAX_N on its own, since every orbit has at least p points), and
    a drawn set of dimensions that gives more is drawn again.  An n_target
    must equal the n that dims give, or with dims=None be a multiple of
    p^dim_range[0], the smallest orbit the draw may take; the draw then
    takes the orbits greedily, none larger than what is left, and fills
    n_target exactly.  Dimensions drawn for an n_target that cannot reach
    dim_g (it must lie between their largest and their sum) are refused
    by gen_instance.
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
        check_prime(self.p)
        if self.p > MAX_N:
            raise ValueError(f"p = {self.p} is above the limit {MAX_N}: "
                             "every orbit has at least p points")
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
        if self.n_target is not None:
            if not (self.p <= self.n_target <= MAX_N and self.n_target % self.p == 0):
                raise CrossFieldError(f"n_target must be a multiple of p in p..{MAX_N}",
                                      "p", "n_target")
            if self.dims is not None and n != self.n_target:
                raise ValueError(f"dims give n = {n}, but n_target = {self.n_target}")
            if self.dims is None and self.n_target % self.p ** self.dim_range[0]:
                raise CrossFieldError(f"n_target must be a multiple of p^{self.dim_range[0]}, "
                                      "the smallest orbit that dim_range allows",
                                      "p", "dim_range", "n_target")
        if self.dims is None and self.n_target is None and (
            self.q_range[0] * self.p ** self.dim_range[0] > MAX_N
        ):
            raise CrossFieldError(f"q_range and dim_range give n above the limit {MAX_N}",
                                  "p", "q_range", "dim_range")


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
        dims, remaining = [], cfg.n_target
        lo, hi = cfg.dim_range
        # remaining stays a multiple of p^lo (GenConfig), so an orbit fits
        while remaining:
            top = max(d for d in range(lo, hi + 1) if cfg.p**d <= remaining)
            dims.append(rng.randint(lo, top))
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
    if cfg.dim_g is not None and not max(dims) <= cfg.dim_g <= d:
        raise ValueError(f"drawn dims {dims} cannot reach dim_g={cfg.dim_g}: "
                         "it must lie between max(dims) and sum(dims)")
    dim_g = cfg.dim_g if cfg.dim_g is not None else rng.randint(max(dims), d)

    rows = None
    for _ in range(100_000):
        flat = rng.below_many(p, dim_g * d)
        cand = [flat[i:i + d] for i in range(0, dim_g * d, d)]
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
        coeffs = rng.below_many(p, dim_g)
        witness_vec = [0] * d
        for c, row in zip(coeffs, rows):
            if c:
                witness_vec = [(w + c * x) % p for w, x in zip(witness_vec, row)]
        vectors.append(witness_vec)
    gens = translation_perms(p, dims, vectors)
    witness = gens.pop() if planted else None

    # every draw lies in its point's orbit, so the sets lie in 1..n; all
    # of a block's draws share one bound, and so one draw function
    constraints = {}
    off = 0
    for di in dims:
        size = p**di
        want = min(cfg.k, size)
        draw = rng.below_fn(size)
        for a in range(off + 1, off + size + 1):
            cset = {witness.images[a - 1]} if planted else set()
            while len(cset) < want:
                cset.add(off + 1 + draw())
            constraints[a] = frozenset(cset)
        off += size

    # the block rank checks above make each block exactly one orbit
    inst = GcInstance._trusted(p, [p**di for di in dims], gens, constraints)
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
) -> list[BenchRow]:
    """Generate and solve `samples` instances per cell config, timing
    solve with the given fallback, product or none (t1), and the
    enumeration oracle solve_enumerate (t2, skipped whenever p^dim_g
    exceeds oracle_cap; the row then shows no oracle time)."""
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
            start = time.perf_counter()
            solve(inst, fallback=fallback)
            t1s.append((time.perf_counter() - start) * 1000.0)
            if cfg.p**res.dim_g > oracle_cap:
                oracle_complete = False
            else:
                fr = build_frame(inst.n, inst.gens, inst.p)
                start = time.perf_counter()
                solve_enumerate(fr, inst, cap=oracle_cap)
                t2s.append((time.perf_counter() - start) * 1000.0)
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
