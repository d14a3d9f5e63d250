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
table per n, from the canonical names "1".."n" to their ints, so one
lookup converts a token and checks its range; the table of the last n
parsed is kept, so parses at one n share it.  The n tokens of a ``g``
line (n > 1) are looked up in one ``operator.itemgetter`` call, and when
all of them hit the table the line needs only the distinctness test.  A
line with any other token (``+3``, ``007``, ``0``, ``x``), another token
count, or n <= 1 is read again with int(), so the same files are
accepted and every error names its line.

The ``c`` lines after the generators form one section.  When it has two
or more lines, each starting with ``c `` and all of one width with at
least one member, as gen_instance and reduce_1in_k write them, the
section is split once and its points and members are looked up in one
itemgetter call each (_uniform_section).  Any other section (a blank
line, mixed widths, no members, a point stated twice, a token outside
the table, a line that is not a ``c`` line) is read line by line
(_constraint_lines), with the same result or the same error on the same
line.  The parsed instance keeps the constraints as stated (see
constraint.normalize); its orbits are found when the frame is built.
"""

from __future__ import annotations

from functools import lru_cache
from operator import itemgetter

from .constraint import GcInstance
# normalize is re-exported: parse_instance builds its instance from tokens
# it has already checked, and instfile.normalize stays for the callers that
# look it up here (the benchmark's tracer wraps it)
from .constraint import normalize  # noqa: F401
from .fpalg import check_prime
from .perm import MAX_N, Permutation


class InstanceFormatError(ValueError):
    def __init__(self, message: str, lineno: int | None = None):
        self.lineno = lineno
        prefix = f"line {lineno}: " if lineno is not None else ""
        super().__init__(prefix + message)


@lru_cache(maxsize=1)
def _point_names(n: int) -> dict[str, int]:
    """The canonical names "1".."n" of the points, each mapped to its int:
    one lookup both converts a token and checks its range, and the images
    parsed share the table's ints.  Only the last n's table is kept, and
    no caller changes it."""
    return {str(a): a for a in range(1, n + 1)}


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


def _g_line(tokens, n: int, noun: str, lineno: int | None = None) -> Permutation:
    """The permutation the images of a `g` line name (the tokens after the
    `g`, or the images given on the command line), read with int() so that
    each error names the line and the noun ("generator" or "witness"), or,
    for tokens such as `+3` or `007`, the permutation."""
    try:
        images = tuple(map(int, tokens))
    except ValueError:
        raise InstanceFormatError(f"{noun} images must be integers", lineno) from None
    if len(images) != n:
        raise InstanceFormatError(f"{noun} has {len(images)} images, expected {n}", lineno)
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


def _uniform_section(rest: list[str], names: dict[str, int]) -> dict[int, frozenset[int]] | None:
    """The stated sets of a constraint section of two or more lines that
    all start with `c `, all have one width w > 3 and all name points of
    the table, with no point stated twice; None for any other section.
    The section is split once, and its points and members are looked up
    in one itemgetter call each and grouped at C speed."""
    count = len(rest)
    section = "\n".join(rest)
    if count < 2 or not section.startswith("c ") or section.count("\nc ") != count - 1:
        return None
    tokens = section.split()
    w, extra = divmod(len(tokens), count)
    if extra or w < 4 or tokens[2::w].count(":") != count:
        return None
    # Every line starts with a `c` token, and the lookups below find every
    # token off the multiples of w to be ":" or a point name, none of which
    # is `c`.  So the count line starts fall on the count multiples of w,
    # and each line is one group of w tokens: `c`, its point, `:` and its
    # w - 3 members
    points = tokens[1::w]
    # drop each line's `:`, then its point, then its `c`: the members are left
    del tokens[2::w], tokens[1::w - 1], tokens[::w - 2]
    try:
        points = itemgetter(*points)(names)
        members = itemgetter(*tokens)(names)
    except KeyError:
        return None
    stated = dict(zip(points, map(frozenset, zip(*[iter(members)] * (w - 3)))))
    return stated if len(stated) == count else None


def _constraint_lines(rest: list[str], first: int, n: int,
                      names: dict[str, int]) -> dict[int, frozenset[int]]:
    """The stated sets of a constraint section that starts on line first,
    read line by line, so that each error names its line; the sets of a
    point stated twice are intersected."""
    name = names.__getitem__
    # the stated constraints as normalize keeps them, each member checked
    # once, by its lookup or by _constraint
    stated: dict[int, frozenset[int]] = {}
    for lineno, line in enumerate(rest, start=first):
        tokens = line.split()
        if not tokens:
            continue
        if tokens[0] != "c":
            raise InstanceFormatError(f"expected `c` line, found `{tokens[0]}`", lineno)
        if len(tokens) < 3 or tokens[2] != ":":
            raise InstanceFormatError("expected `c <point> : <points...>`", lineno)
        try:
            point, members = name(tokens[1]), frozenset(map(name, tokens[3:]))
        except KeyError:
            point, members = _constraint(tokens, n, lineno)
        stated[point] = stated[point] & members if point in stated else members
    return stated


def parse_instance(text: str) -> GcInstance:
    lines = text.splitlines()
    at = 0  # the index of the next line to read, and the number of the last read

    def take(expect: str):
        nonlocal at
        while at < len(lines):
            tokens = lines[at].split()
            at += 1
            if tokens:
                if tokens[0] != expect:
                    raise InstanceFormatError(f"expected `{expect}`, found `{tokens[0]}`", at)
                return at, tokens
        raise InstanceFormatError(f"unexpected end of file, expected `{expect}`")

    lineno, tokens = take("gc")
    if tokens[1:] != ["1"]:
        raise InstanceFormatError("unsupported format version, expected `gc 1`", lineno)
    lineno, tokens = take("p")
    p = _int_field(tokens, lineno, "p")
    try:
        check_prime(p)
    except ValueError as exc:
        raise InstanceFormatError(str(exc), lineno) from None
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

    names = _point_names(n)
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
            gens.append(_g_line(tokens[1:], n, "generator", lineno))

    rest = lines[at:]
    stated = _uniform_section(rest, names)
    if stated is None:
        stated = _constraint_lines(rest, at + 1, n, names)
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
        out.append(" ".join(["g", *map(name, g.images)]))
    # each stated set cut to its point's orbit, written when the cut leaves
    # out part of the orbit; an unstated point is constrained to its orbit.
    # A set that lies inside its orbit, as every built one does, is its cut
    orbit_of = inst.orbit_of
    for a in sorted(inst.constraints):
        orbit = orbit_of[a]
        cset = inst.constraints[a]
        cut = cset if cset <= orbit else cset & orbit
        if len(cut) < len(orbit):
            out.append(" ".join(["c", name(a), ":", *map(name, sorted(cut))]))
    return "\n".join(out) + "\n"


def parse_witness(text: str, n: int) -> Permutation:
    items = list(_numbered_tokens(text))
    # a file of one line that is not a `g` line names it; no one line is at
    # fault in a file of no lines or of several
    lineno, tokens = items[0] if len(items) == 1 else (None, None)
    if tokens is None or tokens[0] != "g":
        raise InstanceFormatError("witness file must contain a single `g` line", lineno)
    return _g_line(tokens[1:], n, "witness", lineno)


def render_witness(g: Permutation) -> str:
    return ("g " + " ".join(str(b) for b in g.images)).rstrip() + "\n"
