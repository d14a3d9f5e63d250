import io
import json
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcsolve.cli import main
from gcsolve.constraint import normalize, solve_enumerate
from gcsolve.frame import build_frame
from gcsolve.instfile import parse_instance, render_instance
from gcsolve.perm import Permutation
from util import eight_point_gens

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


def test_solve_malformed_file_reports_line(tmp_path, capsys):
    path = tmp_path / "broken.gc"
    path.write_text("gc 1\np 2\nn 3\nm 1\ng 2 2 1\n")
    assert main(["solve", str(path)]) == 64
    assert "line 5" in capsys.readouterr().err


@pytest.mark.parametrize("cline, message", [
    ("c 9 : 1", "constrained point 9 out of range 1..2"),
    ("c 1 : 7", "constraint value 7 out of range 1..2"),
])
def test_solve_out_of_range_constraint_reports_line(tmp_path, capsys, cline, message):
    path = tmp_path / "range.gc"
    path.write_text(f"gc 1\np 2\nn 2\nm 1\ng 2 1\n{cline}\n")
    assert main(["solve", str(path)]) == 64
    assert capsys.readouterr().err == f"error: line 6: {message}\n"


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


def test_check_witness_file(eight_point_path, tmp_path, capsys):
    wfile = tmp_path / "w.txt"
    wfile.write_text("g 3 4 1 2 7 8 5 6\n")
    assert main(["check", eight_point_path, "--witness-file", str(wfile)]) == 0


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


@pytest.mark.parametrize("argv", [
    ["solve", "F", "--cap", "x"], ["check", "F", "1", "x"], ["solve"], ["frobnicate"]])
def test_a_usage_error_exits_64(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 64
    assert "usage:" in capsys.readouterr().err


_MUTATION = st.tuples(
    st.sampled_from(["replace", "insert", "delete"]),
    st.integers(0, 2**16),
    st.sampled_from(b"0123456789 :-\ncgpmn\x00\x80\xc3\xff"),
)


@settings(max_examples=150, deadline=None)
@given(mutations=st.lists(_MUTATION, min_size=1, max_size=4))
def test_mutated_instance_files_never_raise(tmp_path_factory, mutations):
    data = bytearray(EIGHT_POINT_FILE.encode())
    for op, at, byte in mutations:
        at %= len(data) + 1
        if op == "insert":
            data[at:at] = bytes([byte])
        elif at < len(data):
            data[at:at + 1] = bytes([byte]) if op == "replace" else b""
    path = tmp_path_factory.mktemp("fuzz") / "mutated.gc"
    path.write_bytes(bytes(data))
    assert main(["solve", str(path)]) in (0, 1, 2, 64)
    assert main(["check", str(path), "3", "4", "1", "2", "7", "8", "5", "6"]) in (0, 1, 64)
