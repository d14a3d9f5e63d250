"""The parser reads point tokens through a table of the names "1".."n" and
falls back to int() on any other token; it must accept the files, and
give the errors on the lines, that reading every token with int() gives
(tests/util.reference_parse_instance)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcsolve.genbench import GenConfig, gen_instance
from gcsolve.instfile import InstanceFormatError, parse_instance, render_instance
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
])
def test_each_error_keeps_its_message_and_line(old, new, message):
    text = SMALL.replace(old, new)
    with pytest.raises(InstanceFormatError) as exc:
        parse_instance(text)
    assert str(exc.value) == message
    assert _outcome(parse_instance, text) == _outcome(reference_parse_instance, text)


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


def test_a_point_stated_twice_keeps_the_intersection():
    inst = parse_instance(SMALL + "c 1 : 4 3\n")
    assert inst.constraints[1] == frozenset({4})
    assert inst == reference_parse_instance(SMALL + "c 1 : 4 3\n")
