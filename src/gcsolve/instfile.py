"""Text format for instances and witnesses.

Grammar, one item per line, in this order:

    gc 1
    p <prime>
    n <int>
    m <int>
    g <n space-separated 1-based images>     (exactly m lines)
    c <point> : <points...>                  (zero or more; omitted points
                                              are unconstrained)

A witness file is a single ``g`` line.  Rendering is canonical, so
parse(render(x)) reproduces x exactly.

The parser reads the point tokens of ``g`` and ``c`` lines through one
table per parse, from the canonical names "1".."n" to their ints, so one
lookup converts a token and checks its range.  The n tokens of a ``g``
line (n > 1) are looked up in one ``operator.itemgetter`` call, and when
all of them hit the table the line needs only the distinctness test.  A
line with any other token (``+3``, ``007``, ``0``, ``x``), another token
count, or n <= 1 is read again with int(), so the same files are
accepted and every error names its line.  The parsed
instance keeps the constraints as stated (see constraint.normalize); its
orbits are found when the frame is built.
"""

from __future__ import annotations

from operator import itemgetter

from .constraint import GcInstance
# normalize is re-exported: parse_instance builds its instance from tokens
# it has already checked, and instfile.normalize stays for the callers that
# look it up here (the benchmark's tracer wraps it)
from .constraint import normalize  # noqa: F401
from .fpalg import is_prime
from .perm import MAX_N, Permutation


class InstanceFormatError(ValueError):
    def __init__(self, message: str, lineno: int | None = None):
        self.lineno = lineno
        prefix = f"line {lineno}: " if lineno is not None else ""
        super().__init__(prefix + message)


def _numbered_tokens(text: str):
    for lineno, line in enumerate(text.splitlines(), start=1):
        tokens = line.split()
        if tokens:
            yield lineno, tokens


def _int_field(tokens, lineno, what) -> int:
    if len(tokens) != 2:
        raise InstanceFormatError(f"expected `{what} <int>`", lineno)
    try:
        return int(tokens[1])
    except ValueError:
        raise InstanceFormatError(f"{what} is not an integer", lineno) from None


def _generator(tokens, n: int, lineno: int) -> Permutation:
    """A `g` line that is not n distinct names of 1..n, read with int() so
    that its error names the line (or, for tokens such as `+3` or `007`,
    its permutation)."""
    try:
        images = tuple(map(int, tokens[1:]))
    except ValueError:
        raise InstanceFormatError("generator images must be integers", lineno) from None
    if len(images) != n:
        raise InstanceFormatError(f"generator has {len(images)} images, expected {n}", lineno)
    try:
        return Permutation(images)
    except ValueError as exc:
        raise InstanceFormatError(str(exc), lineno) from None


def _constraint(tokens, n: int, lineno: int) -> tuple[int, frozenset[int]]:
    """A `c` line with a token outside the names of 1..n, read with int()
    so that its error names the line (or, for tokens such as `+3` or
    `007`, its point and set)."""
    try:
        point = int(tokens[1])
        members = list(map(int, tokens[3:]))
    except ValueError:
        raise InstanceFormatError("constraint points must be integers", lineno) from None
    if not 1 <= point <= n:
        raise InstanceFormatError(f"constrained point {point} out of range 1..{n}", lineno)
    for b in members:
        if not 1 <= b <= n:
            raise InstanceFormatError(f"constraint value {b} out of range 1..{n}", lineno)
    return point, frozenset(members)


def parse_instance(text: str) -> GcInstance:
    lines = _numbered_tokens(text)

    def take(expect: str):
        try:
            lineno, tokens = next(lines)
        except StopIteration:
            raise InstanceFormatError(f"unexpected end of file, expected `{expect}`") from None
        if tokens[0] != expect:
            raise InstanceFormatError(f"expected `{expect}`, found `{tokens[0]}`", lineno)
        return lineno, tokens

    lineno, tokens = take("gc")
    if tokens[1:] != ["1"]:
        raise InstanceFormatError("unsupported format version, expected `gc 1`", lineno)
    lineno, tokens = take("p")
    p = _int_field(tokens, lineno, "p")
    try:
        prime = is_prime(p)
    except ValueError as exc:
        raise InstanceFormatError(str(exc), lineno) from None
    if not prime:
        raise InstanceFormatError(f"p = {p} is not prime", lineno)
    lineno, tokens = take("n")
    n = _int_field(tokens, lineno, "n")
    if n < 0:
        raise InstanceFormatError("n must be nonnegative", lineno)
    if n > MAX_N:
        raise InstanceFormatError(f"n = {n} exceeds the limit {MAX_N}", lineno)
    lineno, tokens = take("m")
    m = _int_field(tokens, lineno, "m")
    if m < 0:
        raise InstanceFormatError("m must be nonnegative", lineno)

    # the canonical names "1".."n" of the points: one lookup both converts a
    # token and checks its range, and the images share the table's ints
    names = {str(a): a for a in range(1, n + 1)}
    name = names.__getitem__
    gens = []
    for _ in range(m):
        lineno, tokens = take("g")
        images = None
        # n > 1 names read in one itemgetter call, which gives a tuple
        if n > 1 and len(tokens) == n + 1:
            try:
                images = itemgetter(*tokens[1:])(names)
            except KeyError:
                pass
        # n distinct names of 1..n are a bijection on 1..n
        if images is not None and len(set(images)) == n:
            gens.append(Permutation._trusted(images))
        else:
            gens.append(_generator(tokens, n, lineno))

    # the stated constraints as normalize keeps them, each member checked
    # once, by its lookup or by _constraint
    stated: dict[int, frozenset[int]] = {}
    for lineno, tokens in lines:
        if tokens[0] != "c":
            raise InstanceFormatError(f"expected `c` line, found `{tokens[0]}`", lineno)
        if len(tokens) < 3 or tokens[2] != ":":
            raise InstanceFormatError("expected `c <point> : <points...>`", lineno)
        try:
            point, members = name(tokens[1]), frozenset(map(name, tokens[3:]))
        except KeyError:
            point, members = _constraint(tokens, n, lineno)
        stated[point] = stated[point] & members if point in stated else members

    return GcInstance(p, n, tuple(gens), stated)


def render_instance(inst: GcInstance) -> str:
    out = [
        "gc 1",
        f"p {inst.p}",
        f"n {inst.n}",
        f"m {len(inst.gens)}",
    ]
    # the names "0".."n" of the points, each made once per render
    name = list(map(str, range(inst.n + 1))).__getitem__
    for g in inst.gens:
        out.append("g " + " ".join(map(name, g.images)) if g.n else "g")
    # each stated set cut to its point's orbit, written when the cut leaves
    # out part of the orbit; an unstated point is constrained to its orbit
    orbits = inst.orbits
    orbit_sets: dict[int, frozenset[int]] = {}
    for a in sorted(inst.constraints):
        i = orbits.block_index(a)
        orbit = orbit_sets.get(i)
        if orbit is None:
            orbit = orbit_sets[i] = frozenset(orbits.blocks[i])
        cut = inst.constraints[a] & orbit
        if len(cut) < len(orbit):
            out.append(f"c {a} : " + " ".join(map(name, sorted(cut))))
    return "\n".join(line.rstrip() for line in out) + "\n"


def parse_witness(text: str, n: int) -> Permutation:
    items = list(_numbered_tokens(text))
    if len(items) != 1 or items[0][1][0] != "g":
        raise InstanceFormatError("witness file must contain a single `g` line")
    lineno, tokens = items[0]
    try:
        images = tuple(map(int, tokens[1:]))
    except ValueError:
        raise InstanceFormatError("witness images must be integers", lineno) from None
    if len(images) != n:
        raise InstanceFormatError(f"witness has {len(images)} images, expected {n}", lineno)
    try:
        return Permutation(images)
    except ValueError as exc:
        raise InstanceFormatError(str(exc), lineno) from None


def render_witness(g: Permutation) -> str:
    return ("g " + " ".join(str(b) for b in g.images)).rstrip() + "\n"
