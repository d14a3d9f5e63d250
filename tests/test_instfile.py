"""The parser reads point tokens through a table of the names "1".."n" and
falls back to int() on any other token; it must accept the files, and
give the errors on the lines, that reading every token with int() gives
(tests/util.reference_parse_instance)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcsolve import instfile
from gcsolve.genbench import GenConfig, gen_instance
from gcsolve.instfile import InstanceFormatError, parse_instance, parse_witness, render_instance
from util import reference_parse_instance

SMALL = "gc 1\np 2\nn 4\nm 2\ng 2 1 4 3\ng 3 4 1 2\nc 1 : 2 4\nc 3 : 3 4\n"


@st.composite
def rendered_lines(draw):
    """A rendered gen_instance file at p in {2, 3}, as lists of tokens,
    and the (line, token) slots that hold a point."""
    p = draw(st.sampled_from((2, 3)))
    dims = tuple(draw(st.lists(st.integers(1, 2), min_size=1, max_size=3)))
    cfg = GenConfig(p=p, seed=draw(st.integers(0, 2**32)), k=draw(st.integers(1, 3)),
                    sat_bias=draw(st.sampled_from((0.0, 1.0))), dims=dims)
    lines = [line.split() for line in render_instance(gen_instance(cfg).instance).splitlines()]
    slots = [(i, j) for i, tokens in enumerate(lines) if tokens[0] in ("g", "c")
             for j in range(1, len(tokens)) if tokens[j] != ":"]
    return lines, slots


def _text(lines):
    return "\n".join(" ".join(tokens) for tokens in lines) + "\n"


def _outcome(parse, text):
    try:
        return "ok", parse(text)
    except InstanceFormatError as exc:
        return "error", str(exc), exc.lineno


@settings(max_examples=100, deadline=None)
@given(rendered_lines(), st.data())
def test_non_canonical_tokens_parse_to_the_same_instance(case, data):
    lines, slots = case
    text = _text(lines)
    for i, j in data.draw(st.sets(st.sampled_from(slots), max_size=8)):
        lines[i][j] = data.draw(st.sampled_from(("+{}", "00{}"))).format(lines[i][j])
    rewritten = _text(lines)
    inst = parse_instance(rewritten)
    assert inst == parse_instance(text) == reference_parse_instance(rewritten)
    assert inst.constraints == parse_instance(text).constraints


@settings(max_examples=200, deadline=None)
@given(rendered_lines(), st.data())
def test_a_bad_point_token_fails_as_the_int_reader_does(case, data):
    """Out of range, not an integer, or a repeated image or member: the
    same message on the same line, or the same instance."""
    lines, slots = case
    n = int(lines[2][1])
    i, j = data.draw(st.sampled_from(slots))
    same_line = [b for a, b in slots if a == i and b != j]
    bad = data.draw(st.sampled_from(
        ("0", "-3", str(n + 1), "x", "1.5", "+0", "repeat" if same_line else "0")))
    lines[i][j] = lines[i][data.draw(st.sampled_from(same_line))] if bad == "repeat" else bad
    text = _text(lines)
    assert _outcome(parse_instance, text) == _outcome(reference_parse_instance, text)


@pytest.mark.parametrize("old, new, message", [
    ("g 2 1 4 3", "g 2 1 5 3", "line 5: images do not form a bijection on 1..4"),
    ("g 2 1 4 3", "g 2 1 0 3", "line 5: images do not form a bijection on 1..4"),
    ("g 2 1 4 3", "g 2 1 1 3", "line 5: images do not form a bijection on 1..4"),
    ("g 2 1 4 3", "g 2 1 x 3", "line 5: generator images must be integers"),
    ("g 2 1 4 3", "g 2 1 4", "line 5: generator has 3 images, expected 4"),
    ("g 3 4 1 2", "g 3 4 1 +0", "line 6: images do not form a bijection on 1..4"),
    ("c 1 : 2 4", "c 5 : 2 4", "line 7: constrained point 5 out of range 1..4"),
    ("c 1 : 2 4", "c 1 : 2 -4", "line 7: constraint value -4 out of range 1..4"),
    ("c 3 : 3 4", "c 3 : 3 1.5", "line 8: constraint points must be integers"),
    ("c 3 : 3 4", "c 03 : 5 4", "line 8: constraint value 5 out of range 1..4"),
    # a section the section reader does not take, read line by line
    ("c 3 : 3 4", "c 3 : 3 4\n\nc 5 : 1 2", "line 10: constrained point 5 out of range 1..4"),
    ("c 3 : 3 4", "c 3 : 3 4\ng 2 1 4 3", "line 9: expected `c` line, found `g`"),
    ("c 3 : 3 4", "c 3 : 3 4\nc 1 2 4", "line 9: expected `c <point> : <points...>`"),
    ("c 1 : 2 4", "c 1 : 2 4 c 3 : 3\nc ", "line 7: constraint points must be integers"),
    ("c 1 : 2 4", "c 1 : 2 9", "line 7: constraint value 9 out of range 1..4"),
])
def test_each_error_keeps_its_message_and_line(old, new, message):
    text = SMALL.replace(old, new)
    with pytest.raises(InstanceFormatError) as exc:
        parse_instance(text)
    assert str(exc.value) == message
    assert _outcome(parse_instance, text) == _outcome(reference_parse_instance, text)
    assert _outcome(parse_instance, text) == _line_by_line(text)[0]


def _line_by_line(text):
    """The outcome of parsing text with its constraint section read line by
    line, and whether the section reader, left on, reads the section."""
    read = []

    def spy(rest, names):
        read.append(real(rest, names))
        return read[-1]

    real = instfile._uniform_section
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(instfile, "_uniform_section", spy)
        _outcome(parse_instance, text)
        mp.setattr(instfile, "_uniform_section", lambda rest, names: None)
        outcome = _outcome(parse_instance, text)
    return outcome, read[0] is not None if read else False


def _assert_both_readers_agree(text):
    """The section reader, the line-by-line reading and the int() reader
    give an equal instance with equal stated sets, or one error on one
    line; returns whether the section reader read the section."""
    by_line, taken = _line_by_line(text)
    outcome = _outcome(parse_instance, text)
    assert outcome == by_line == _outcome(reference_parse_instance, text)
    if outcome[0] == "ok":
        assert outcome[1].constraints == by_line[1].constraints
        assert outcome[1].constraints == reference_parse_instance(text).constraints
    return taken


def _generated_texts():
    texts = []
    for p, dims in ((2, (2, 3)), (3, (1, 2)), (5, (1, 1))):
        for k in range(1, 5):
            for seed in range(3):
                cfg = GenConfig(p=p, seed=seed, k=k, sat_bias=0.5, dims=dims)
                texts.append(render_instance(gen_instance(cfg).instance))
    return texts


def test_the_section_reader_reads_what_the_line_loop_reads():
    """gen_instance and reduce_1in_k state k members for each point they
    state, so the section reader reads their files whole; reduce_2cstr
    states sets of several sizes, as most mmc_to_gc disjuncts do, and
    such a section is read line by line."""
    from gcsolve.constraint import mmc_to_gc
    from gcsolve.perm import Permutation
    from gcsolve.reduction import ClauseSet, reduce_1in_k, reduce_2cstr

    uniform = _generated_texts()
    clauses = ClauseSet(("a", "b", "c", "d"), (("a", "b", "c"), ("b", "c", "d")))
    for p in (2, 3, 5):
        uniform.append(render_instance(reduce_1in_k(clauses, p).instance))
    assert all(map(_assert_both_readers_agree, uniform))

    mixed = [render_instance(reduce_2cstr(clauses, 3).instance)]
    gens = [Permutation.from_cycles(6, [(1, 2), (3, 4)]), Permutation.from_cycles(6, [(5, 6)])]
    for model in ([1, 0, 1, 0, 1, 0], [0, 1, 2, 0, 1, 2], [2, 2, 1, 1, 0, 0]):
        mixed.extend(render_instance(inst) for inst in mmc_to_gc(model, gens, 2))
    taken = list(map(_assert_both_readers_agree, mixed))
    assert not taken[0] and not all(taken)


@pytest.mark.parametrize("section, taken", [
    ("c 1 : 2 4\nc 3 : 3 4\n", True),
    ("c 1\t:  2\t4 \nc 3 : 3 4\r\n", True),
    ("c 1 : 2 4\n\nc 3 : 3 4\n", False),  # a blank line
    ("c 1 : 2 4\nc 3 : 3 4\n\n", False),  # a blank line at the end
    ("c 1 : 2 4\nc 1 : 4 3\n", False),  # a repeated point
    (" c 1 : 2 4\nc 3 : 3 4\n", False),  # leading whitespace
    ("c\t1 : 2 4\nc 3 : 3 4\n", False),  # a tab after the `c`
    ("c 1 : 2 4\nc 3 : 3\n", False),  # mixed widths
    ("c 1 : 2\nc 3 : 3 4 1\n", False),  # mixed widths, 2 lines of 5 tokens on average
    ("c 1 :\nc 3 :\n", False),  # no members
    ("c 5 :\nc 3 :\n", False),
    ("c 1 : 2 4\n", False),  # a single `c` line
    ("c 1 : +2 004\nc 3 : 3 4\n", False),  # tokens outside the table
    ("c 1 : 2 4\nc 3 : 3 4\ng 2 1 4 3\n", False),  # a trailing non-`c` line
    ("c 1 : 2 4 c 3 : 3 4\nc 2 : 1\n", False),  # two groups on one line
    ("c 1 : 2 4 c 3 : 3 4\n\n", False),  # two groups on one line, then a blank line
    ("c 1 : 2 4\nx 3 : 3 4\n", False),  # a line of the same width that is not a `c` line
    ("c 1 2 4 3\nc 3 : 3 4\n", False),  # a line of the same width without its `:`
])
def test_crafted_sections_read_alike(section, taken):
    text = SMALL[:SMALL.index("\nc ") + 1] + section
    assert _assert_both_readers_agree(text) == taken


@pytest.mark.parametrize("text", [
    "gc 1\np 2\nn 1\nm 1\ng 1\nc 1 : 1\n",
    "gc 1\np 2\nn 1\nm 0\nc 1 : 1\nc 1 : 1\n",
    "gc 1\np 2\nn 1\nm 0\nc 1 : 1\nc 2 : 1\n",
    "gc 1\np 2\nn 0\nm 0\nc 1 : 1\nc 1 : 1\n",
    "gc 1\np 2\nn 2\nm 0\n",
])
def test_tiny_sections_read_alike(text):
    assert not _assert_both_readers_agree(text)


def _gc(n, *g_lines):
    return f"gc 1\np 2\nn {n}\nm {len(g_lines)}\n" + "".join(f"{g}\n" for g in g_lines)


@pytest.mark.parametrize("text, outcome", [
    # n <= 1: every g line is read with int()
    (_gc(0, "g"), [()]),
    (_gc(0, "g 1"), "line 5: generator has 1 images, expected 0"),
    (_gc(1, "g 1"), [(1,)]),
    (_gc(1, "g 2"), "line 5: images do not form a bijection on 1..1"),
    (_gc(1, "g"), "line 5: generator has 0 images, expected 1"),
    (_gc(1, "g 1 1"), "line 5: generator has 2 images, expected 1"),
    (_gc(1, "g x"), "line 5: generator images must be integers"),
    # n = 2, the smallest line read in one lookup
    (_gc(2, "g 2 1"), [(2, 1)]),
    (_gc(2, "g 2 2"), "line 5: images do not form a bijection on 1..2"),
    (_gc(2, "g 2"), "line 5: generator has 1 images, expected 2"),
    (_gc(2, "g 2 1 1"), "line 5: generator has 3 images, expected 2"),
    (_gc(2, "g 2 1", "g 1 x"), "line 6: generator images must be integers"),
    # n and n + 2 tokens: one image too few or too many
    (_gc(4, "g 2 1 4 3", "g 3 4 1"), "line 6: generator has 3 images, expected 4"),
    (_gc(4, "g 2 1 4 3", "g 3 4 1 2 1"), "line 6: generator has 5 images, expected 4"),
    (_gc(4, "g 2 1 4 3", "g 3 4 1 2 5"), "line 6: generator has 5 images, expected 4"),
    (_gc(4, "g 2 1 4 3", "g 3 4 x 2 1"), "line 6: generator images must be integers"),
])
def test_g_lines_at_every_size_and_token_count(text, outcome):
    if isinstance(outcome, list):
        assert [g.images for g in parse_instance(text).gens] == outcome
    else:
        with pytest.raises(InstanceFormatError) as exc:
            parse_instance(text)
        assert str(exc.value) == outcome
    assert _outcome(parse_instance, text) == _outcome(reference_parse_instance, text)


def test_tokens_outside_the_table_that_int_reads_are_accepted():
    text = SMALL.replace("g 2 1 4 3", "g 02 +1 004 3").replace("c 1 : 2 4", "c 01 : +2 4 2")
    inst = parse_instance(text)
    assert inst == parse_instance(SMALL)
    assert inst.gens[0].images == (2, 1, 4, 3)
    assert inst.constraints == {1: frozenset({2, 4}), 3: frozenset({3, 4})}


def test_parses_at_one_n_share_one_table_of_names():
    """Two parses at n = 300 in a row read their points through one table,
    so the ints they hold are the same objects (int() makes each int above
    256 anew).  Only the last n's table is kept: a parse at n = 301 in
    between replaces it, and the next parse at n = 300 builds a new one."""
    text = "gc 1\np 2\nn 300\nm 0\nc 299 : 300 298\n"
    first = parse_instance(text)
    parse_instance(text.replace("n 300", "n 301"))
    second, third = parse_instance(text), parse_instance(text)
    (a,), (b,), (c,) = first.constraints, second.constraints, third.constraints
    assert a == b == c == 299
    assert b is c
    assert max(second.constraints[b]) is max(third.constraints[c]) == 300
    assert a is not b


def test_a_point_stated_twice_keeps_the_intersection():
    inst = parse_instance(SMALL + "c 1 : 4 3\n")
    assert inst.constraints[1] == frozenset({4})
    assert inst == reference_parse_instance(SMALL + "c 1 : 4 3\n")


@pytest.mark.parametrize("text, message", [
    # one line that is not a `g` line is at fault, and is named
    ("c 1 : 3\n", "line 1: witness file must contain a single `g` line"),
    ("\n\n 1 2\n", "line 3: witness file must contain a single `g` line"),
    # no line, or several: no one line is at fault
    ("", "witness file must contain a single `g` line"),
    ("\n \n", "witness file must contain a single `g` line"),
    ("g 2 1\ng 2 1\n", "witness file must contain a single `g` line"),
    ("\ng 2 x\n", "line 2: witness images must be integers"),
    ("g 2 1 3\n", "line 1: witness has 3 images, expected 2"),
])
def test_witness_errors_name_the_line_at_fault(text, message):
    with pytest.raises(InstanceFormatError) as exc:
        parse_witness(text, 2)
    assert str(exc.value) == message


def test_a_witness_line_is_read_wherever_it_stands():
    assert parse_witness("\n  g 2 1  \n\n", 2).images == (2, 1)


def test_generators_that_are_no_group_render_their_orbits():
    """Rendering needs only the orbits, not a group: (1 2 3) and (1 2) do
    not commute and (4 5 6 7) has order 4 at p = 2.  Point 1's set reaches
    outside its orbit and is cut, point 3's covers its orbit and is left
    out, and point 4's empty set is written empty."""
    from gcsolve.constraint import normalize
    from gcsolve.perm import Permutation

    gens = [Permutation.from_cycles(8, [(1, 2, 3)]), Permutation.from_cycles(8, [(1, 2)]),
            Permutation.from_cycles(8, [(4, 5, 6, 7)])]
    inst = normalize([(1, {2, 5}), (3, {1, 2, 3, 8}), (4, set()), (6, {4, 6})], 8, gens, 2)
    text = render_instance(inst)
    assert text == ("gc 1\np 2\nn 8\nm 3\n"
                    "g 2 3 1 4 5 6 7 8\ng 2 1 3 4 5 6 7 8\ng 1 2 3 5 6 7 4 8\n"
                    "c 1 : 2\nc 4 :\nc 6 : 4 6\n")
    assert parse_instance(text) == inst
    assert render_instance(parse_instance(text)) == text
