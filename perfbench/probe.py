"""Host-speed probe: one fixed instance decided by a frozen copy of gcsolve.

A shared host can change speed by up to 1.8x, in spells
that last from a second to minutes, and every pure-Python workload slows
with it.  A slow spell that covers a whole run moves every wall-clock
timing of that run, whatever statistic is taken.  So each timed decision
is bracketed by two probe decisions, and its time is scaled by
``ref_ms / mean(probe before, probe after)``: the metrics read as if the
host ran at the speed at which the probe takes ``REF_MS[workload]``.

The probe decides, with the package in ``seed_gcsolve/`` (a copy of
gcsolve's ``src/gcsolve`` as it was when this benchmark was written), the
first instance of its workload's corpus for seed ``PROBE_SEED``, built by
that copy's own generators.  Nothing in it ever changes, so a change to
gcsolve moves the timed decisions and not the probe, while the host's
speed moves both alike.  The probe's code and inputs are those of the
workload it calibrates, so it slows in the same proportion: over ten runs
of wide-p2 the scaled median spread by 1.4% (IQR / median) where the
unscaled one spread by 27%.
"""

from __future__ import annotations

import time

import seed_gcsolve
import workloads

PROBE_SEED = 0
WARM_UP = 3

# The probe's decision time (ms) on an Intel Xeon with 2 logical CPUs and
# Python 3.11.7, in that host's fast spells; scaled times are in ms at
# that speed.
REF_MS = {
    "wide-p2": 100.0,
    "deep-p2": 66.0,
    "clauses-p3": 88.0,
}


class Probe:
    """Times one decision of the frozen probe instance per call."""

    def __init__(self, workload: str):
        corpus = workloads.build_corpus(workload, PROBE_SEED, size=1, lib=seed_gcsolve)
        self.text = corpus.items[0].text
        self.ref_ms = REF_MS[workload]
        self.verdict = None
        self.times_ms: list[float] = []
        for _ in range(WARM_UP):
            self._decide()

    def _decide(self) -> float:
        lib = seed_gcsolve
        start = time.perf_counter()
        out = lib.constraint.solve(lib.instfile.parse_instance(self.text))
        ms = (time.perf_counter() - start) * 1000.0
        verdict = (out.status, out.reason)
        if self.verdict is None:
            self.verdict = verdict
        elif verdict != self.verdict:
            raise RuntimeError(f"the probe's verdict changed: {self.verdict} -> {verdict}")
        return ms

    def time_ms(self) -> float:
        """One probe decision, in ms; every result is kept in times_ms."""
        ms = self._decide()
        self.times_ms.append(ms)
        return ms

    def scale(self, before_ms: float, after_ms: float) -> float:
        """Factor that turns a time measured between two probes into ms at
        the reference speed."""
        return self.ref_ms * 2.0 / (before_ms + after_ms)
