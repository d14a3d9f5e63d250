"""Tests of the benchmark itself: python3 -m pytest -q perfbench"""

from __future__ import annotations

import json

import pytest

from source import ROOT, load_gcsolve

gcsolve = load_gcsolve()

import bench  # noqa: E402
import probe as speed_probe  # noqa: E402
import workloads  # noqa: E402
from gcsolve import constraint, instfile  # noqa: E402
from gcsolve.frame import build_frame  # noqa: E402
from tracer import END, PARENT, START  # noqa: E402

TINY = {"wide-p2": 2, "deep-p2": 4, "clauses-p3": 3}


@pytest.fixture(scope="module", params=sorted(TINY))
def traced(request):
    workload = request.param
    corpus = workloads.build_corpus(workload, 11, size=TINY[workload])
    tracer, verdicts, untraced_ns, traced_ns = bench.traced_pass(corpus.items)
    return workload, corpus, tracer, verdicts, untraced_ns, traced_ns


def test_traced_verdicts_equal_untraced(traced):
    _, corpus, tracer, verdicts, _, _ = traced
    assert verdicts.failed == 0, verdicts.failures
    for item, out in zip(corpus.items, verdicts.first):
        plain = bench.decide(item.text)
        assert bench._key(plain) == bench._key(out)
        assert workloads.check(item, out)[0] == workloads.OK


def test_wrappers_are_restored(traced):
    assert gcsolve.constraint.solve.__module__ == "gcsolve.constraint"
    assert not hasattr(gcsolve.constraint.solve, "__wrapped__")
    assert not hasattr(gcsolve.perm.Permutation.__post_init__, "__wrapped__")
    assert not hasattr(gcsolve.fpalg.RowReducer.add, "__wrapped__")
    assert not hasattr(gcsolve.instfile.normalize, "__wrapped__")


def test_child_spans_fit_in_parent(traced):
    tracer = traced[2]
    children = [0] * len(tracer.spans)
    for s in tracer.spans:
        if s[PARENT] >= 0:
            children[s[PARENT]] += s[END] - s[START]
            parent = tracer.spans[s[PARENT]]
            assert parent[START] <= s[START] <= s[END] <= parent[END]
    for s, child_ns in zip(tracer.spans, children):
        assert child_ns <= s[END] - s[START]


def test_stage_self_times_match_untraced_total(traced):
    # The stages' self times, the root's own share left out, should account
    # for the untraced decisions, off by no more than the measured overhead
    # plus the host's jitter between the two decisions of an instance.
    _, corpus, tracer, _, untraced_ns, traced_ns = traced
    stages = tracer.stages("bench.decide")
    assert stages["bench.decide"]["calls"] == len(corpus.items)
    summed_self = sum(s["self_ns"] for name, s in stages.items()
                      if "/" not in name and name != "bench.decide")
    overhead_ns = max(traced_ns - untraced_ns, 0)
    assert abs(summed_self - untraced_ns) <= overhead_ns + 0.25 * untraced_ns


def test_untraced_decisions_run_unwrapped(monkeypatch):
    wrapped = []
    real = bench.decide

    def spy(text):
        wrapped.append(hasattr(gcsolve.constraint.solve, "__wrapped__"))
        return real(text)

    monkeypatch.setattr(bench, "decide", spy)
    corpus = workloads.build_corpus("deep-p2", 11, size=1)
    bench.traced_pass(corpus.items)
    assert wrapped == [False, True]


@pytest.mark.parametrize("broken", ["raises", "notlinear"])
def test_failed_decisions_make_the_run_incorrect(monkeypatch, broken):
    def decide(text):
        if broken == "raises":
            raise RuntimeError("solver broke")
        return constraint.SolveOutcome(constraint.NOTLINEAR, reason="not linear")

    monkeypatch.setattr(bench, "decide", decide)
    corpus = workloads.build_corpus("clauses-p3", 11, size=2)
    _, _, verdicts = bench.timed_passes(corpus.items, 0.01, speed_probe.Probe("clauses-p3"))
    checked = verdicts.check(corpus.items)
    assert verdicts.failed == verdicts.attempted >= 2
    assert checked["tally"][workloads.UNCHECKED] == 2
    assert not bench.is_correct(verdicts, checked)


def test_frame_sizes_match_build_frame(traced):
    _, corpus, tracer, _, _, _ = traced
    want = {"frame.n": 0, "frame.d": 0, "frame.orbits": 0, "frame.m": 0}
    for item in corpus.items:
        inst = instfile.parse_instance(item.text)
        fr = build_frame(inst.n, inst.gens, inst.p)
        want["frame.n"] += fr.n
        want["frame.d"] += fr.dim
        want["frame.orbits"] += len(fr.orbit_frames)
        want["frame.m"] += len(fr.gens)
    for key, value in want.items():
        assert tracer.counts[key] == value


def test_layer_metrics_cover_benchmark_json(traced):
    _, corpus, tracer, verdicts, untraced_ns, traced_ns = traced
    metrics, breakdown = bench.layer_metrics(tracer, verdicts, len(corpus.items), untraced_ns,
                                             traced_ns, corpus.stage_ns, 1, 0)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert list(metrics) == [m["name"] for m in spec["per_layer"]]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.per_layer_units()
    assert [m["name"] for m in spec["end_to_end"]] == list(bench.END_TO_END)
    layers = sum(metrics[f"layer.{layer}_ms"] for layer in bench.LAYERS)
    assert layers + metrics["instfile.parse_ms"] <= metrics["trace.decide_ms"]
    assert "constraint.solve" in breakdown


@pytest.mark.parametrize("workload", sorted(TINY))
def test_same_seed_same_digest(workload):
    size = TINY[workload]
    a = workloads.build_corpus(workload, 5, size=size)
    b = workloads.build_corpus(workload, 5, size=size)
    c = workloads.build_corpus(workload, 6, size=size)
    assert a.digest == b.digest
    assert a.items == b.items
    assert a.digest != c.digest


def test_clause_corpus_keeps_its_sat_share():
    corpus = workloads.build_corpus("clauses-p3", 3, size=10)
    assert sum(item.brute_sat for item in corpus.items) == 4


def test_checks_reject_wrong_verdicts():
    corpus = workloads.build_corpus("deep-p2", 2, size=2)
    planted = corpus.items[0]
    assert planted.planted
    inst = instfile.parse_instance(planted.text)
    fake_unsat = constraint.SolveOutcome.unsat(constraint.UNSAT_INCONSISTENT)
    assert workloads.check(planted, fake_unsat)[0] == workloads.WRONG
    identity = gcsolve.Permutation.identity(inst.n)
    assert workloads.check(planted, constraint.SolveOutcome.sat(identity, "linear"))[0] == workloads.WRONG
    clauses = workloads.build_corpus("clauses-p3", 2, size=3)
    for item in clauses.items:
        flipped = (constraint.SolveOutcome.unsat(constraint.UNSAT_EXHAUSTED) if item.brute_sat
                   else constraint.SolveOutcome.sat(gcsolve.Permutation.identity(
                       instfile.parse_instance(item.text).n), "product"))
        assert workloads.check(item, flipped)[0] == workloads.WRONG


def test_orbit_check_agrees_with_enumeration():
    from gcsolve.genbench import GenConfig, gen_instance

    for seed in range(40):
        res = gen_instance(GenConfig(p=3, seed=seed, k=2, sat_bias=0.3, dims=(1, 2), dim_g=2))
        inst = res.instance
        fr = build_frame(inst.n, inst.gens, inst.p)
        for of in fr.orbit_frames:
            sub = constraint.normalize(
                [(a, inst.cmap[a]) for a in of.points], inst.n, inst.gens, inst.p)
            truth = constraint.solve_enumerate(fr, sub).status == constraint.UNSAT
            assert workloads.orbit_unsatisfiable(inst, of.origin) == truth


@pytest.mark.parametrize("workload", sorted(TINY))
def test_probe_runs_the_frozen_copy(workload):
    import seed_gcsolve

    probe = speed_probe.Probe(workload)
    assert seed_gcsolve.__file__ != gcsolve.__file__
    assert seed_gcsolve.constraint.solve is not gcsolve.constraint.solve
    # the frozen copy's generators give the probe instance, and the live
    # solver decides it alike
    item = workloads.build_corpus(workload, speed_probe.PROBE_SEED, size=1,
                                  lib=seed_gcsolve).items[0]
    assert item.text == probe.text
    out = bench.decide(item.text)
    assert (out.status, out.reason) == probe.verdict
    assert workloads.check(item, out)[0] == workloads.OK


def test_each_decision_sits_between_two_probes():
    probe = speed_probe.Probe("clauses-p3")
    corpus = workloads.build_corpus("clauses-p3", 4, size=3)
    latencies, scales, verdicts = bench.timed_passes(corpus.items, 0.01, probe)
    assert verdicts.failed == 0
    t = list(probe.times_ms)
    assert len(t) == len(latencies) + 1
    for j, factor in enumerate(scales):
        assert factor == pytest.approx(probe.ref_ms * 2 / (t[j] + t[j + 1]))
    # each slice opens with a probe of its own
    calls = []
    latencies, _, _ = bench.timed_passes(corpus.items, 0.01, probe, lambda: calls.append(1), 3)
    assert len(calls) == 2
    assert len(probe.times_ms) == len(t) + len(latencies) + 3


def test_probe_scale():
    probe = speed_probe.Probe("clauses-p3")
    assert probe.scale(probe.ref_ms, probe.ref_ms) == pytest.approx(1.0)
    # a host twice as slow doubles the probe time and halves the factor
    assert probe.scale(2 * probe.ref_ms, 2 * probe.ref_ms) == pytest.approx(0.5)
