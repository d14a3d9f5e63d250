import argparse
import contextlib
import io
import json
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gcsolve
from gcsolve.cli import build_parser, main
from gcsolve.constraint import MAX_N, normalize, solve_enumerate
from gcsolve.frame import build_frame
from gcsolve.instfile import parse_instance, render_instance
from gcsolve.perm import Permutation
from util import eight_point_gens, every_point_text, many_orbit_text, near_square_text

EIGHT_POINT_FILE = """gc 1
p 2
n 8
m 3
g 2 1 4 3 6 5 8 7
g 5 6 7 8 1 2 3 4
g 3 4 1 2 7 8 5 6
c 1 : 3
"""


@pytest.fixture
def eight_point_path(tmp_path):
    path = tmp_path / "ex.gc"
    path.write_text(EIGHT_POINT_FILE)
    return str(path)


def test_solve_sat_report(eight_point_path, capsys):
    assert main(["solve", eight_point_path]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == "SAT"
    assert lines[1] == "g 3 4 1 2 7 8 5 6"
    assert "method linear" in out
    assert any(line.startswith("solve_ms") for line in lines)


def test_solve_json_mirrors_report(eight_point_path, capsys):
    assert main(["solve", eight_point_path, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "SAT"
    assert payload["witness"] == [3, 4, 1, 2, 7, 8, 5, 6]
    assert payload["method"] == "linear"
    assert payload["reason"] is None
    assert payload["parse_ms"] >= 0 and payload["solve_ms"] >= 0


def test_solve_unsat_empty_set(tmp_path, capsys):
    path = tmp_path / "empty.gc"
    path.write_text(EIGHT_POINT_FILE.replace("c 1 : 3", "c 1 :"))
    assert main(["solve", str(path)]) == 1
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "UNSAT"
    assert "empty-vo" in out


def test_solve_rejects_non_elementary_abelian(tmp_path, capsys):
    path = tmp_path / "bad.gc"
    path.write_text("gc 1\np 2\nn 3\nm 1\ng 2 3 1\n")
    assert main(["solve", str(path)]) == 64
    err = capsys.readouterr().err
    assert "elementary Abelian" in err and "order 3" in err


def test_solve_refuses_an_oversized_n_on_its_line(tmp_path, capsys):
    path = tmp_path / "huge.gc"
    path.write_text("gc 1\np 2\nn 1000000000\nm 0\n")
    assert main(["solve", str(path)]) == 64
    assert capsys.readouterr().err.startswith("error: line 3: n = 1000000000 exceeds")


def test_gen_writes_the_largest_n_that_parses_and_refuses_one_more(tmp_path, capsys):
    # eight orbits of F_2^13 fill the limit exactly
    path = tmp_path / "max.gc"
    dims = ",".join(["13"] * 8)
    args = ["gen", "--p", "2", "--dims", dims, "--dim-g", "14", "--k", "1"]
    assert main(args + ["--out", str(path)]) == 0
    assert parse_instance(path.read_text()).n == MAX_N
    # 65537 is prime, so one orbit of F_65537 is one point over the limit
    over = tmp_path / "over.gc"
    assert main(["gen", "--p", "65537", "--dims", "1", "--out", str(over)]) == 64
    assert capsys.readouterr().err == (
        "error: p = 65537 is above the limit 65536: every orbit has at least p points\n")
    assert not over.exists()


def test_gen_refuses_an_n_target_that_cannot_reach_dim_g(tmp_path, capsys):
    # 2 points at p = 2 are one orbit of dimension 1, below a dim_g of 2
    out = tmp_path / "i.gc"
    assert main(["gen", "--p", "2", "--n-target", "2", "--dim-g", "2", "--out", str(out)]) == 64
    assert capsys.readouterr().err == (
        "error: drawn dims (1,) cannot reach dim_g=2: it must lie between max(dims) and sum(dims)\n")
    assert not out.exists()


def test_gen_refuses_dims_and_an_n_target_that_disagree(tmp_path, capsys):
    # dims 2,2 at p = 2 give 8 points, not 64; an n_target they meet is taken
    out = tmp_path / "i.gc"
    assert main(["gen", "--dims", "2,2", "--n-target", "64", "--out", str(out)]) == 64
    assert capsys.readouterr().err == "error: dims give n = 8, but n_target = 64\n"
    assert not out.exists()
    assert main(["gen", "--dims", "2,2", "--n-target", "8", "--out", str(out)]) == 0
    assert parse_instance(out.read_text()).n == 8


def test_gen_refuses_dims_that_are_not_ints(tmp_path, capsys):
    out = tmp_path / "i.gc"
    assert main(["gen", "--dims", "1,x", "--out", str(out)]) == 64
    assert capsys.readouterr().err == "error: --dims '1,x': expected comma-separated ints\n"
    assert not out.exists()


@pytest.mark.parametrize("text, message", [
    ("gc 1\np 4\nn 2\nm 0\n", "line 2: p = 4 is not prime"),
    ("gc 1\np 2\nn 3\n", "unexpected end of file, expected `m`"),
    ("gc 1\np 2\nn -1\nm 0\n", "line 3: n must be nonnegative"),
    ("gc 1\np 2\nn 2\nm -1\n", "line 4: m must be nonnegative"),
])
def test_solve_refuses_a_bad_header(tmp_path, capsys, text, message):
    path = tmp_path / "bad.gc"
    path.write_text(text)
    assert main(["solve", str(path)]) == 64
    assert capsys.readouterr().err == f"error: {message}\n"


def test_solve_malformed_file_reports_line(tmp_path, capsys):
    path = tmp_path / "broken.gc"
    path.write_text("gc 1\np 2\nn 3\nm 1\ng 2 2 1\n")
    assert main(["solve", str(path)]) == 64
    assert "line 5" in capsys.readouterr().err


@pytest.mark.parametrize("gline", ["g 2 2 1", "g 2 4 1", "g 0 2 1", "g 1 3 3"])
def test_a_generator_that_is_not_a_bijection_names_its_line(tmp_path, capsys, gline):
    # a duplicate image, or one outside 1..n, on the second of two g lines
    path = tmp_path / "bad-g.gc"
    path.write_text(f"gc 1\np 2\nn 3\nm 2\ng 1 2 3\n{gline}\n")
    assert main(["solve", str(path)]) == 64
    assert capsys.readouterr().err == "error: line 6: images do not form a bijection on 1..3\n"


@pytest.mark.parametrize("cline, message", [
    ("c 9 : 1", "constrained point 9 out of range 1..2"),
    ("c 1 : 7", "constraint value 7 out of range 1..2"),
])
def test_solve_out_of_range_constraint_reports_line(tmp_path, capsys, cline, message):
    path = tmp_path / "range.gc"
    path.write_text(f"gc 1\np 2\nn 2\nm 1\ng 2 1\n{cline}\n")
    assert main(["solve", str(path)]) == 64
    assert capsys.readouterr().err == f"error: line 6: {message}\n"


def test_the_table_of_point_names_follows_n_from_parse_to_parse(tmp_path, capsys):
    """The parser keeps the table of the names 1..n of the last n it read:
    after a parse at n = 8, a `g` or `c` token 5 at n = 4 is refused on its
    line, and n = 8 then accepts 8 again."""
    eight = "gc 1\np 2\nn 8\nm 1\ng 2 1 4 3 6 5 8 7\nc 1 : 2\nc 7 : 8\n"
    four = "gc 1\np 2\nn 4\nm 1\n"
    path = tmp_path / "i.gc"
    for text, code, err in [
        (eight, 0, ""),
        (four + "g 2 1 5 3\n", 64, "error: line 5: images do not form a bijection on 1..4\n"),
        (eight, 0, ""),
        (four + "g 2 1 4 3\nc 1 : 5\n", 64,
         "error: line 6: constraint value 5 out of range 1..4\n"),
        (four + "g 2 1 4 3\nc 5 : 1\n", 64,
         "error: line 6: constrained point 5 out of range 1..4\n"),
        (eight, 0, ""),
    ]:
        path.write_text(text)
        assert main(["solve", str(path)]) == code
        assert capsys.readouterr().err == err


def test_solve_notlinear_exit_code(tmp_path, capsys):
    clause_file = tmp_path / "cl.txt"
    clause_file.write_text("vars a b c\na b c\n")
    inst_file = tmp_path / "red.gc"
    assert main(["reduce", str(clause_file), "--mode", "k3", "--p", "2",
                 "--out", str(inst_file)]) == 0
    capsys.readouterr()
    assert main(["solve", str(inst_file), "--fallback", "none"]) == 2
    assert capsys.readouterr().out.splitlines()[0] == "NOTLINEAR"
    # the product fallback then decides it
    assert main(["solve", str(inst_file)]) == 0


def text_report_fields(out):
    """Field name -> value of a text report: the status line, then one
    "name value" line per field, with the witness on its "g" line."""
    lines = out.splitlines()
    fields = {"status": lines[0]}
    for line in lines[1:]:
        name, _, value = line.partition(" ")
        fields["witness" if name == "g" else name] = value
    return fields


def test_solve_text_report_names_the_empty_orbit(tmp_path, capsys):
    # orbit {1..4} admits three vectors (not affine); orbit {5, 6} admits none
    g = Permutation.from_cycles(6, [(1, 2), (3, 4)])
    h = Permutation.from_cycles(6, [(1, 3), (2, 4), (5, 6)])
    path = tmp_path / "empty-vo.gc"
    path.write_text(render_instance(normalize([(1, {2, 3, 4}), (5, set())], 6, [g, h], 2)))
    assert main(["solve", str(path)]) == 1
    fields = text_report_fields(capsys.readouterr().out)
    assert (fields["status"], fields["reason"], fields["orbit_min"]) == ("UNSAT", "empty-vo", "5")


def test_solve_text_and_json_report_the_same_fields(tmp_path, capsys):
    clause_file = tmp_path / "cl.txt"
    clause_file.write_text("vars a b c\na b c\n")
    inst_file = tmp_path / "red.gc"
    assert main(["reduce", str(clause_file), "--mode", "k3", "--p", "2",
                 "--out", str(inst_file)]) == 0
    capsys.readouterr()
    assert main(["solve", str(inst_file), "--fallback", "none"]) == 2
    text = text_report_fields(capsys.readouterr().out)
    assert main(["solve", str(inst_file), "--fallback", "none", "--json"]) == 2
    payload = {k: v for k, v in json.loads(capsys.readouterr().out).items() if v is not None}
    assert text.keys() == payload.keys()
    assert text["status"] == payload["status"] == "NOTLINEAR"
    for name in ("reason", "orbit_min", "vo_size"):
        assert text[name] == str(payload[name])


def test_check_identity_on_unconstrained(tmp_path, capsys):
    path = tmp_path / "free.gc"
    path.write_text(EIGHT_POINT_FILE.replace("c 1 : 3\n", ""))
    images = [str(i) for i in range(1, 9)]
    assert main(["check", str(path), *images]) == 0
    assert "OK" in capsys.readouterr().out


def test_check_failing_witness(eight_point_path, capsys):
    assert main(["check", eight_point_path, "2", "1", "4", "3", "6", "5", "8", "7"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_check_witness_not_in_group(tmp_path, capsys):
    path = tmp_path / "free.gc"
    path.write_text(EIGHT_POINT_FILE.replace("c 1 : 3\n", ""))
    assert main(["check", str(path), "2", "3", "1", "4", "5", "6", "7", "8"]) == 1
    assert "not in group" in capsys.readouterr().out


def test_check_arity_mismatch(eight_point_path, capsys):
    assert main(["check", eight_point_path, "1", "2"]) == 64
    assert "expected 8" in capsys.readouterr().err


@pytest.mark.parametrize("images, message", [
    (["1", "2"], "witness has 2 images, expected 8"),
    (["1"] * 9, "witness has 9 images, expected 8"),
    (["1", "1", "3", "4", "5", "6", "7", "8"], "images do not form a bijection on 1..8"),
])
def test_check_images_are_read_as_a_witness_line(eight_point_path, capsys, images, message):
    """Images given on the command line go through the `g`-line reader,
    with its messages and no line number."""
    assert main(["check", eight_point_path, *images]) == 64
    assert capsys.readouterr().err == f"error: {message}\n"


def test_check_without_a_file_names_only_the_file(capsys):
    """The witness images are optional, so the usage error names the file
    alone."""
    with pytest.raises(SystemExit) as exc:
        main(["check"])
    assert exc.value.code == 64
    assert capsys.readouterr().err.endswith(
        "gcsolve check: error: the following arguments are required: file\n")


def test_check_witness_file(eight_point_path, tmp_path, capsys):
    wfile = tmp_path / "w.txt"
    wfile.write_text("g 3 4 1 2 7 8 5 6\n")
    assert main(["check", eight_point_path, "--witness-file", str(wfile)]) == 0


def test_check_refuses_a_witness_file_and_images_together(eight_point_path, tmp_path, capsys):
    """The images may come before or after the flag."""
    wfile = tmp_path / "w.txt"
    wfile.write_text("g 3 4 1 2 7 8 5 6\n")
    flag = ["--witness-file", str(wfile)]
    for argv in (["2", "1", *flag], [*flag, "2", "1"]):
        assert main(["check", eight_point_path, *argv]) == 64
        assert capsys.readouterr().err == (
            "error: give either --witness-file or witness images, not both\n")


def test_gen_writes_no_witness_file_for_an_unplanted_instance(tmp_path, capsys):
    wfile = tmp_path / "w.txt"
    assert main(["gen", "--sat-bias", "0", "--out", str(tmp_path / "i.gc"),
                 "--witness-out", str(wfile)]) == 0
    assert capsys.readouterr().err == "instance was not planted; no witness file written\n"
    assert not wfile.exists()


def test_gen_deterministic_and_witness_checks(tmp_path, capsys):
    out1, out2 = tmp_path / "a.gc", tmp_path / "b.gc"
    wfile = tmp_path / "w.txt"
    base = ["gen", "--p", "2", "--dims", "3,2", "--k", "2", "--seed", "9",
            "--sat-bias", "1.0"]
    assert main(base + ["--out", str(out1), "--witness-out", str(wfile)]) == 0
    assert main(base + ["--out", str(out2)]) == 0
    assert out1.read_text() == out2.read_text()
    assert main(["check", str(out1), "--witness-file", str(wfile)]) == 0


def test_reduce_writes_expected_instance(tmp_path, capsys):
    clause_file = tmp_path / "cl.txt"
    clause_file.write_text("vars a b c\na b c\n")
    out = tmp_path / "red.gc"
    assert main(["reduce", str(clause_file), "--mode", "k3", "--p", "2",
                 "--out", str(out)]) == 0
    inst = parse_instance(out.read_text())
    assert inst.n == 8 and len(inst.gens) == 3


def test_reduce_labels_name_each_point_on_stderr(tmp_path, capsys):
    clause_file = tmp_path / "s.txt"
    clause_file.write_text("vars a b c d\na b c\nb c d\n")
    assert main(["reduce", str(clause_file), "--mode", "k3", "--p", "3", "--labels",
                 "--out", str(tmp_path / "s.gc")]) == 0
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 54
    assert lines[:3] == ["1 c0:000", "2 c0:001", "3 c0:002"]
    assert lines[26:28] == ["27 c0:222", "28 c1:000"]
    assert lines[-1] == "54 c1:222"


def test_reduce_2cstr_strict_and_relaxed(tmp_path, capsys):
    clause_file = tmp_path / "cl.txt"
    clause_file.write_text("vars a b c\na b c\n")
    out = tmp_path / "red.gc"
    assert main(["reduce", str(clause_file), "--mode", "2cstr", "--p", "2",
                 "--out", str(out)]) == 64
    assert "expected exactly 2" in capsys.readouterr().err
    assert main(["reduce", str(clause_file), "--mode", "2cstr", "--p", "2",
                 "--any-clause-size", "--out", str(out)]) == 0
    assert parse_instance(out.read_text()).n == 8


@pytest.mark.parametrize("text, message", [
    ("vars a b c\na b c\n\na d b\n", "line 4: undeclared variable 'd'"),
    ("vars a b c\na b\nb c\na b c\n", "line 4: clauses have mixed sizes [2, 3]"),
    ("vars a b c\na b c\na a b\n", "line 3: repeated variable in clause ('a', 'a', 'b')"),
    ("vars a b a\na b\n", "line 1: duplicate variable names"),
    ("\na b c\n", "line 2: expected `vars <name>...` header"),
    ("\n\n", "missing `vars` header"),
])
def test_a_malformed_clause_file_names_its_line(tmp_path, capsys, text, message):
    path = tmp_path / "cl.txt"
    path.write_text(text)
    assert main(["reduce", str(path), "--mode", "k3", "--p", "2",
                 "--out", str(tmp_path / "out.gc")]) == 64
    assert capsys.readouterr().err == f"error: {message}\n"


def test_bench_writes_csv_with_capped_cell(tmp_path):
    out = tmp_path / "bench.csv"
    assert main(["bench", "--sweep", "dimg", "--values", "20", "--samples", "2",
                 "--seed", "3", "--oracle-cap", str(2**10), "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("param,")
    cells = lines[1].split(",")
    assert cells[0] == "20"
    assert cells[9] == "-" and cells[10] == "-"


def test_bench_config_file_supplies_defaults(tmp_path):
    cfg = tmp_path / "bench.cfg"
    cfg.write_text("values=3\nsamples=2\nseed=4\noracle-cap=1024\n")
    out = tmp_path / "bench.csv"
    assert main(["bench", "--config", str(cfg), "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 2
    assert lines[1].split(",")[0] == "3"
    assert lines[1].split(",")[11] == "2"



def test_bench_config_file_takes_the_equals_form_and_skips_comments(tmp_path, monkeypatch):
    from gcsolve import genbench

    seen = []
    monkeypatch.setattr(genbench, "bench_run",
                        lambda configs, samples, **kwargs: seen.append((configs, samples)) or [])
    cfg = tmp_path / "bench.cfg"
    cfg.write_text("# a comment\n\nvalues=3\n   \n  # indented\nsamples=2\n")
    assert main(["bench", f"--config={cfg}", "--out", str(tmp_path / "b.csv")]) == 0
    [(configs, samples)] = seen
    assert samples == 2
    assert [c.dim_g for c in configs] == [3]


def test_bench_config_line_without_equals_names_its_line(tmp_path, monkeypatch, capsys):
    from gcsolve import genbench

    def refuse(*args, **kwargs):
        raise AssertionError("bench ran")

    monkeypatch.setattr(genbench, "bench_run", refuse)
    cfg = tmp_path / "bench.cfg"
    cfg.write_text("# values\nsamples 2\n")
    assert main(["bench", "--config", str(cfg)]) == 64
    assert capsys.readouterr().err == f"error: {cfg}:2: expected key=value\n"


@pytest.mark.parametrize("line, message", [
    ("sampels=2", "unknown key 'sampels'"),
    ("sweep=bogus", "sweep: invalid choice 'bogus' (choose from dimg, n)"),
    ("samples=x", "samples: invalid int value 'x'"),
    ("q-range=3", "--q-range '3': expected lo:hi"),
    ("dim-range=a:2", "--dim-range 'a:2': expected lo:hi"),
    ("values=5:x", "--values '5:x': expected ints and lo:hi ranges"),
    ("values=1:65537", "--values '1:65537': values must lie in 1..65536"),
    ("p=4", "p = 4 is not prime"),
    ("k=0", "k must be at least 1"),
    ("sat-bias=2", "sat_bias must lie in [0, 1]"),
    ("dim-range=1:14", "dim_range must lie in 1..13"),
    ("q-range=3:2", "bad q_range"),
    ("p=65537", "p = 65537 is above the limit 65536: every orbit has at least p points"),
    ("oracle-cap=0", "oracle-cap: must be at least 1, got 0"),
    ("oracle-cap=-5", "oracle-cap: must be at least 1, got -5"),
])
def test_bench_config_file_refuses_a_bad_line(tmp_path, monkeypatch, capsys, line, message):
    """A bad line exits 64 naming its file and line before any run starts."""
    from gcsolve import genbench

    def refuse(*args, **kwargs):
        raise AssertionError("bench ran")

    monkeypatch.setattr(genbench, "bench_run", refuse)
    cfg = tmp_path / "bench.cfg"
    cfg.write_text(f"values=3\n{line}\n")
    assert main(["bench", "--config", str(cfg)]) == 64
    assert capsys.readouterr().err == f"error: {cfg}:2: {message}\n"


@pytest.mark.parametrize("value", ["0", "-3"])
def test_a_config_count_below_one_names_its_line(tmp_path, monkeypatch, capsys, value):
    """The count rule of --samples refuses a config value on its line,
    before any run starts."""
    from gcsolve import genbench

    def refuse(*args, **kwargs):
        raise AssertionError("bench ran")

    monkeypatch.setattr(genbench, "bench_run", refuse)
    cfg = tmp_path / "bench.cfg"
    cfg.write_text(f"values=3\nsamples={value}\n")
    assert main(["bench", "--config", str(cfg)]) == 64
    assert capsys.readouterr().err == (
        f"error: {cfg}:2: samples: must be at least 1, got {value}\n")


def test_a_config_line_is_not_held_to_rules_across_fields(tmp_path, monkeypatch):
    """A q-range whose smallest instance at p = 2 exceeds MAX_N is no
    fault of its line: an n sweep, whose cells fix n, takes it, as it
    takes a p whose single orbit fills MAX_N."""
    from gcsolve import genbench

    seen = []

    def run(configs, *args, **kwargs):
        seen.append(configs)
        return []

    monkeypatch.setattr(genbench, "bench_run", run)
    cfg = tmp_path / "bench.cfg"
    cfg.write_text("sweep=n\nvalues=65521\np=65521\nq-range=40000:40001\n")
    assert main(["bench", "--config", str(cfg), "--out", str(tmp_path / "b.csv")]) == 0
    [[cell]] = seen
    assert (cell.p, cell.n_target, cell.q_range) == (65521, 65521, (40000, 40001))


@pytest.mark.parametrize("lines, flags, where, message", [
    (["q-range=100:100", "dim-range=13:13", "values=2:3"], [], 2,
     "q_range and dim_range give n above the limit 65536"),
    (["sweep=n", "values=3:3"], [], 2, "n_target must be a multiple of p in p..65536"),
    (["values=6", "p=3", "sweep=n", "dim-range=2:2"], [], 4,
     "n_target must be a multiple of p^2, the smallest orbit that dim_range allows"),
    # a flag wins over its config line, which the message then does not name
    (["q-range=100:100", "dim-range=1:1"], ["--dim-range", "13:13"], 1,
     "q_range and dim_range give n above the limit 65536"),
    (["samples=2"], ["--q-range", "100:100", "--dim-range", "13:13"], None,
     "q_range and dim_range give n above the limit 65536"),
])
def test_a_rule_across_fields_names_the_last_config_line_it_reads(
        tmp_path, monkeypatch, capsys, lines, flags, where, message):
    """GenConfig's rules across fields run when the sweep builds its cells;
    a refusal names the last config line that set one of the fields the
    rule reads, and names none when flags set them all."""
    from gcsolve import genbench

    def refuse(*args, **kwargs):
        raise AssertionError("bench ran")

    monkeypatch.setattr(genbench, "bench_run", refuse)
    cfg = tmp_path / "bench.cfg"
    cfg.write_text("\n".join(lines) + "\n")
    assert main(["bench", "--config", str(cfg), *flags]) == 64
    prefix = "" if where is None else f"{cfg}:{where}: "
    assert capsys.readouterr().err == f"error: {prefix}{message}\n"


def test_render_parse_roundtrip_corpus(tmp_path):
    from gcsolve.constraint import normalize
    from gcsolve.genbench import GenConfig, gen_instance

    corpus = [parse_instance(EIGHT_POINT_FILE)]
    corpus.append(normalize([], 8, list(eight_point_gens()), 2))
    corpus.append(normalize([(1, set()), (3, {3, 7})], 8, list(eight_point_gens()), 2))
    for seed in range(4):
        corpus.append(gen_instance(GenConfig(p=2, seed=seed, q_range=(1, 3),
                                             dim_range=(1, 3))).instance)
    corpus.append(gen_instance(GenConfig(p=3, seed=1, dims=(2, 1))).instance)
    for inst in corpus:
        text = render_instance(inst)
        again = parse_instance(text)
        assert again == inst
        assert render_instance(again) == text


def test_solve_exit_codes_agree_with_oracle(tmp_path, capsys):
    from gcsolve.genbench import GenConfig, gen_instance

    for seed in range(10):
        inst = gen_instance(GenConfig(p=2, seed=seed + 100, q_range=(1, 3),
                                      dim_range=(1, 3))).instance
        path = tmp_path / f"i{seed}.gc"
        path.write_text(render_instance(inst))
        code = main(["solve", str(path)])
        capsys.readouterr()
        fr = build_frame(inst.n, inst.gens, inst.p)
        oracle = solve_enumerate(fr, inst)
        assert code == (0 if oracle.status == "sat" else 1)


# -- malformed input: exit 64 with a message, never a traceback -------------

NOT_UTF8 = EIGHT_POINT_FILE.encode().replace(b"c 1 : 3", b"c 1 : \xff3")


@pytest.mark.parametrize("argv, data, line", [
    (["solve", "FILE"], NOT_UTF8, 8),
    (["check", "FILE", *map(str, range(1, 9))], NOT_UTF8, 8),
    (["reduce", "FILE", "--mode", "k3", "--p", "3"], b"a b\n\xfe c\n", 2),
])
def test_a_file_that_is_not_utf8_names_its_line(tmp_path, capsys, argv, data, line):
    path = tmp_path / "bad"
    path.write_bytes(data)
    assert main([str(path) if a == "FILE" else a for a in argv]) == 64
    assert f"line {line}: not UTF-8" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["solve", "MISSING"],
    ["check", "MISSING", *map(str, range(1, 9))],
    ["reduce", "MISSING", "--mode", "k3", "--p", "3"],
    ["check", "INST", "--witness-file", "MISSING"],
    ["gen", "--out", "MISSING"],
    ["gen", "--sat-bias", "1", "--out", "SCRATCH", "--witness-out", "MISSING"],
    ["reduce", "CLAUSES", "--mode", "k3", "--p", "2", "--out", "MISSING"],
    ["bench", "--values", "2", "--samples", "1", "--out", "MISSING"],
])
def test_a_file_that_cannot_be_opened_exits_64(tmp_path, capsys, argv):
    """A missing input, or an output in a directory that does not exist,
    exits 64 with the operating system's message."""
    missing = tmp_path / "absent" / "file"
    inst = tmp_path / "inst.gc"
    inst.write_text(EIGHT_POINT_FILE)
    clauses = tmp_path / "cl.txt"
    clauses.write_text("vars a b c\na b c\n")
    paths = {"MISSING": missing, "INST": inst, "CLAUSES": clauses,
             "SCRATCH": tmp_path / "scratch.gc"}
    assert main([str(paths.get(a, a)) for a in argv]) == 64
    assert capsys.readouterr().err == (
        f"error: [Errno 2] No such file or directory: '{missing}'\n")


def _limited_run(argv, limit=1 << 30, timeout=60):
    """gcsolve argv in a child process whose address space is limited to
    limit bytes and which is killed after timeout seconds."""
    src = str(Path(gcsolve.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    return subprocess.run([sys.executable, "-m", "gcsolve.cli", *argv], capture_output=True,
                          text=True, env=env, preexec_fn=limit_memory, timeout=timeout)


def _decides_linear_and_checks(tmp_path, text):
    """solve decides the instance text SAT by the linear method and check
    accepts the printed witness, each in a _limited_run child."""
    inst = tmp_path / "inst.gc"
    inst.write_text(text)
    solved = _limited_run(["solve", str(inst)])
    assert solved.returncode == 0, solved.stderr
    lines = solved.stdout.splitlines()
    assert lines[0] == "SAT" and "method linear" in lines
    witness = tmp_path / "inst.w"
    witness.write_text("".join(line + "\n" for line in lines if line.startswith("g ")))
    checked = _limited_run(["check", str(inst), "--witness-file", str(witness)])
    assert (checked.returncode, checked.stdout) == (0, "OK\n"), checked.stderr


@pytest.mark.parametrize("p, k, m", [(2, 32768, 16), (3, 21845, 10)])
def test_many_orbits_at_max_n_decide_linear_within_a_gib(tmp_path, p, k, m):
    """k orbits of p points under m generators, n = 65536 at p = 2 and
    65535 at p = 3, with d = k: solve decides them linear and check
    accepts the printed witness, each in a child process limited to 1 GiB
    of address space and 60 s."""
    assert p * k > MAX_N - p
    _decides_linear_and_checks(tmp_path, many_orbit_text(p, k, m))


@pytest.mark.parametrize("p, k", [(2, 16384), (3, 7281)])
def test_every_point_stated_decides_linear_within_a_gib(tmp_path, p, k):
    """k orbits of p^2 points, n = 65536 at p = 2 and 65529 at p = 3, every
    point stated so that every V_O is an affine line (util's
    every_point_text), so every orbit's slice of every generator is reduced
    against its E_O: solve decides it linear and check accepts the printed
    witness, each in a child process limited to 1 GiB and 60 s."""
    assert p * p * k > MAX_N - p * p
    _decides_linear_and_checks(tmp_path, every_point_text(p, k))


def test_more_generators_than_orbits_decides_linear_within_a_gib(tmp_path):
    """1,024 two-point orbits under 1,024 independent generators and one
    redundant one (util's near_square_text), so the linear system has
    m = d + 1 rows, each reduced against up to d kept ones: solve decides
    it linear and check accepts the printed witness, each in a child
    process limited to 1 GiB and 60 s."""
    _decides_linear_and_checks(tmp_path, near_square_text(1024))


def _one_orbit_text(dim, stated):
    """One orbit of 2^dim points at p = 2: generator i sends point a to
    ((a - 1) XOR 2^i) + 1, so the orbit is F_2^dim; stated is its
    constraint lines."""
    n = 1 << dim
    lines = [f"gc 1\np 2\nn {n}\nm {dim}"]
    for i in range(dim):
        lines.append("g " + " ".join(str(((a - 1) ^ (1 << i)) + 1) for a in range(1, n + 1)))
    return "\n".join(lines + stated) + "\n"


def _big_prime_orbit_text():
    """One orbit of p = 65521 points, the largest prime below 2^16: the
    cycle 1 -> 2 -> ... -> p -> 1, with 1 sent to 3."""
    p = 65521
    return f"gc 1\np {p}\nn {p}\nm 1\ng {' '.join(map(str, range(2, p + 1)))} 1\nc 1 : 3\n"


@pytest.mark.parametrize("make", [
    lambda: _one_orbit_text(16, []),
    lambda: _one_orbit_text(16, ["c 1 : 2 3"]),
    _big_prime_orbit_text,
], ids=["dim16-free", "dim16-two-members", "p65521"])
def test_one_large_orbit_decides_linear_within_a_gib(tmp_path, make):
    """One orbit of dimension 16 at p = 2, once free (V_O is all 65,536
    vectors) and once with point 1 sent into {2, 3}, and one orbit of
    p = 65521 points: solve decides each linear and check accepts the
    printed witness, each in a child process limited to 1 GiB of address
    space and 60 s."""
    _decides_linear_and_checks(tmp_path, make())


@pytest.mark.parametrize("argv", [["solve", "INST", "--json"], ["gen", "--out", "-"]])
def test_a_closed_stdout_exits_141_quietly(eight_point_path, argv):
    """With stdout a pipe whose read end is already closed, the command
    exits 128 + SIGPIPE and writes nothing to stderr."""
    src = str(Path(gcsolve.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "gcsolve.cli",
             *(eight_point_path if a == "INST" else a for a in argv)],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, b"")


def test_stdin_that_is_not_utf8_names_its_line(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(NOT_UTF8)))
    assert main(["solve", "-"]) == 64
    assert "<stdin>: line 8: not UTF-8" in capsys.readouterr().err


@pytest.mark.parametrize("flags, message", [
    (["--values", "5:x"], "--values '5:x'"),
    (["--q-range", "3"], "--q-range '3'"),
    (["--dim-range", "a:2"], "--dim-range 'a:2'"),
])
def test_bench_rejects_a_malformed_range(tmp_path, capsys, flags, message):
    assert main(["bench", *flags, "--out", str(tmp_path / "out.csv")]) == 64
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("spec", ["0:3", "1:65537", "70000", "2,0"])
def test_bench_refuses_values_outside_1_to_max_n(monkeypatch, capsys, spec):
    """Each bound of --values is checked before any range is expanded,
    and before any cell runs."""
    from gcsolve import genbench

    def refuse(*args, **kwargs):
        raise AssertionError("bench ran")

    monkeypatch.setattr(genbench, "bench_run", refuse)
    assert main(["bench", "--values", spec]) == 64
    assert capsys.readouterr().err == f"error: --values {spec!r}: values must lie in 1..{MAX_N}\n"


@pytest.mark.parametrize("argv", [
    ["solve", "F", "--cap", "x"], ["check", "F", "1", "x"], ["solve"], ["frobnicate"],
    ["solve", "F", "--fallback", "enumerate"], ["bench", "--fallback", "enumerate"]])
def test_a_usage_error_exits_64(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 64
    assert "usage:" in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag", [
    (["solve", "F", "--cap", "-1"], "--cap"),
    (["solve", "F", "--cap", "0"], "--cap"),
    (["bench", "--samples", "0"], "--samples"),
    (["bench", "--oracle-cap", "0"], "--oracle-cap"),
    (["bench", "--oracle-cap", "-5"], "--oracle-cap"),
])
def test_a_count_below_one_is_a_usage_error(monkeypatch, capsys, argv, flag):
    from gcsolve import genbench

    def refuse(*args, **kwargs):
        raise AssertionError("bench ran")

    monkeypatch.setattr(genbench, "bench_run", refuse)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 64
    assert f"error: argument {flag}: must be at least 1" in capsys.readouterr().err


_MUTATION = st.tuples(
    st.sampled_from(["replace", "insert", "delete"]),
    st.integers(0, 2**16),
    st.sampled_from(b"0123456789 :-\ncgpmn\x00\x80\xc3\xff"),
)


def _mutated(text: str, mutations) -> bytes:
    data = bytearray(text.encode())
    for op, at, byte in mutations:
        at %= len(data) + 1
        if op == "insert":
            data[at:at] = bytes([byte])
        elif at < len(data):
            data[at:at + 1] = bytes([byte]) if op == "replace" else b""
    return bytes(data)


def _run_naming_a_line(argv, whole_file_errors: re.Pattern) -> int:
    """main(argv)'s exit status; a refusal (exit 64) must name its line, or
    be one of whole_file_errors, which no one line causes."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    if code == 64:
        message = err.getvalue()
        assert message.startswith("error: ") and message.endswith("\n")
        message = message[len("error: "):-1]
        assert re.match(r"line \d+: ", message) or whole_file_errors.fullmatch(message), message
    return code


# the UTF-8 error, which names its line after the file's name
UTF8_ERROR = re.compile(r".*: line \d+: not UTF-8")

# refusals of an instance file that no one line causes: the UTF-8 error and
# the group check, which reads every generator
INSTANCE_WHOLE_FILE_ERRORS = re.compile(
    rf"{UTF8_ERROR.pattern}|generators are not an elementary Abelian \d+-group: .*")


@settings(max_examples=150, deadline=None)
@given(mutations=st.lists(_MUTATION, min_size=1, max_size=4))
def test_mutated_instance_files_never_raise(tmp_path_factory, mutations):
    path = tmp_path_factory.mktemp("fuzz") / "mutated.gc"
    path.write_bytes(_mutated(EIGHT_POINT_FILE, mutations))
    errors = INSTANCE_WHOLE_FILE_ERRORS
    assert _run_naming_a_line(["solve", str(path)], errors) in (0, 1, 2, 64)
    assert _run_naming_a_line(["check", str(path), "3", "4", "1", "2", "7", "8", "5", "6"],
                              errors) in (0, 1, 64)


_WITNESS_MUTATION = st.tuples(
    st.sampled_from(["replace", "insert", "delete"]),
    st.integers(0, 2**16),
    st.sampled_from(b"0123456789 \ncg-\x00\xff"),
)

# refusals of a witness file that no one line causes: the UTF-8 error, and,
# for a file of no lines or of several, the want of a single `g` line
NOT_ONE_LINE_ERRORS = re.compile(rf"witness file must contain a single `g` line|{UTF8_ERROR.pattern}")


@settings(max_examples=150, deadline=None)
@given(mutations=st.lists(_WITNESS_MUTATION, min_size=1, max_size=4))
def test_mutated_witness_files_name_their_line(tmp_path_factory, mutations):
    folder = tmp_path_factory.mktemp("fuzz")
    (folder / "ex.gc").write_text(EIGHT_POINT_FILE)
    path = folder / "mutated.txt"
    data = _mutated("g 3 4 1 2 7 8 5 6\n", mutations)
    path.write_bytes(data)
    # no byte of the mutations splits lines or tokens other than as bytes do
    lines = [line for line in data.split(b"\n") if line.split()]
    errors = UTF8_ERROR if len(lines) == 1 else NOT_ONE_LINE_ERRORS
    argv = ["check", str(folder / "ex.gc"), "--witness-file", str(path)]
    assert _run_naming_a_line(argv, errors) in (0, 1, 64)


CLAUSE_FILE = "vars a b c d\na b c\nb c d\n"

_CLAUSE_MUTATION = st.tuples(
    st.sampled_from(["replace", "insert", "delete"]),
    st.integers(0, 2**16),
    st.sampled_from(b"abcdvz \n\x00\xff"),
)

# refusals that no one line of a clause file causes: no header, the
# reduction's n above the limit, a clause size other than p (2cstr), and
# the UTF-8 error, which names its line after the file's name
WHOLE_FILE_ERRORS = re.compile(
    r"missing `vars` header"
    r"|n = \d+ exceeds the limit \d+"
    r"|clause \(.*\) has size \d+, expected exactly 3"
    r"|.*: line \d+: not UTF-8"
)


@settings(max_examples=150, deadline=None)
@given(mutations=st.lists(_CLAUSE_MUTATION, min_size=1, max_size=4),
       mode=st.sampled_from(["k3", "2cstr"]))
def test_mutated_clause_files_name_their_line(tmp_path_factory, mutations, mode):
    folder = tmp_path_factory.mktemp("fuzz")
    path = folder / "mutated.txt"
    path.write_bytes(_mutated(CLAUSE_FILE, mutations))
    argv = ["reduce", str(path), "--mode", mode, "--p", "3", "--out", str(folder / "out.gc")]
    assert _run_naming_a_line(argv, WHOLE_FILE_ERRORS) in (0, 64)


BENCH_CONFIG = "# a two-cell sweep\nvalues=2:3\nsamples=2\nseed=4\n"

_CONFIG_MUTATION = st.tuples(
    st.sampled_from(["replace", "insert", "delete"]),
    st.integers(0, 2**16),
    st.sampled_from(b"0123456789=:-# \nps\x00\xff"),
)

# refusals of a config file that no one line causes: the UTF-8 error, and
# GenConfig's rules across fields, which it checks when the sweep builds
# its cells
CONFIG_WHOLE_FILE_ERRORS = re.compile(
    rf"{UTF8_ERROR.pattern}"
    r"|n_target must be a multiple of p in p\.\.65536"
    r"|q_range and dim_range give n above the limit 65536"
)


@settings(max_examples=150, deadline=None)
@given(mutations=st.lists(_CONFIG_MUTATION, min_size=1, max_size=4))
def test_mutated_config_files_name_their_line(tmp_path_factory, mutations):
    """bench --config on a mutated file exits 0, or 64 with a message that
    starts with FILE:N: or is one of the refusals no one line causes."""
    from gcsolve import genbench

    folder = tmp_path_factory.mktemp("fuzz")
    path = folder / "bench.cfg"
    path.write_bytes(_mutated(BENCH_CONFIG, mutations))
    err = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stderr(err):
        mp.setattr(genbench, "bench_run", lambda *args, **kwargs: [])
        mp.chdir(folder)
        code = main(["bench", "--config", str(path), "--out", str(folder / "b.csv")])
    assert code in (0, 64)
    if code == 64:
        message = err.getvalue()
        assert message.startswith("error: ") and message.endswith("\n")
        message = message[len("error: "):-1]
        assert (message.startswith(f"{path}:") and re.match(r"\d+: ", message[len(f"{path}:"):])
                or CONFIG_WHOLE_FILE_ERRORS.fullmatch(message)), message


def test_readme_synopsis_names_every_option():
    """Each subcommand's synopsis lines in the README name every option
    string its subparser accepts."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    synopsis = {}
    command = None
    for line in block.splitlines():
        if line.startswith("gcsolve "):
            command = line.split()[1]
        synopsis[command] = synopsis.get(command, "") + line + "\n"
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    assert synopsis.keys() == subparsers.choices.keys()
    for command, sub in subparsers.choices.items():
        for action in sub._actions:
            for option in action.option_strings:
                if option in ("-h", "--help"):
                    continue
                assert re.search(rf"(?<![\w-]){re.escape(option)}(?![\w-])",
                                 synopsis[command]), (command, option)
