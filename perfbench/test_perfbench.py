"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import types
from dataclasses import replace
from pathlib import Path

import pytest

import uncertrack.encoder as encoder
from tracer import NO_PARENT, Tracer, self_times
from uncertrack.numerics import Tape
from workloads import END_TO_END, PER_LAYER, WORKLOADS, run_workload

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


# ---- self-time arithmetic ----------------------------------------------------

def test_self_times_nested_tree():
    # root [0, 10] > a [1, 4] > c [2, 3];  root > b [5, 9] > d [5, 6], e [5.5, 7]
    names = ["root", "a", "c", "b", "d", "e"]
    starts = [0.0, 1.0, 2.0, 5.0, 5.0, 5.5]
    ends = [10.0, 4.0, 3.0, 9.0, 6.0, 7.0]
    parents = [NO_PARENT, 0, 1, 0, 3, 3]
    got = dict(zip(names, self_times(starts, ends, parents)))
    # b's overlapping children cover [5, 7] once
    assert got == {"root": 3.0, "a": 2.0, "c": 1.0, "b": 2.0, "d": 1.0, "e": 1.5}


def test_self_times_clip_children_to_parent():
    got = self_times([0.0, 1.0, 3.0], [2.0, 3.0, 4.0], [NO_PARENT, 0, 0])
    assert got[0] == 1.0  # child [1, 3] covers only [1, 2]; [3, 4] lies outside


def test_tracer_spans_nest_and_reconcile():
    t = Tracer()
    inner = t.wrap("inner", lambda x: x + 1)
    outer = t.wrap("outer", lambda x: inner(inner(x)) * 2)
    assert outer(1) == 6
    assert t.names == ["outer", "inner", "inner"]
    assert t.parents == [NO_PARENT, 0, 0]
    incl, excl, calls, roots, self_sum = t.totals()
    assert calls == {"outer": 1, "inner": 2}
    assert math.isclose(self_sum, roots, rel_tol=1e-12)
    assert math.isclose(excl["outer"] + incl["inner"], incl["outer"], rel_tol=1e-12)


def test_tracer_restores_module_and_class_bindings():
    mod = types.ModuleType("m")
    mod.f = lambda: 1

    class C:
        def g(self):
            return 2

    f0, g0 = mod.f, C.__dict__["g"]
    t = Tracer()
    t.patch(mod, "f", t.wrap("f", mod.f))
    t.patch(C, "g", t.wrap("g", C.g))
    assert mod.f() == 1 and C().g() == 2 and t.names == ["f", "g"]
    assert t.restore() == []
    assert mod.f is f0 and C.__dict__["g"] is g0


# ---- tiny runs of every workload ----------------------------------------------

def tiny(name: str):
    wl = WORKLOADS[name]
    return replace(wl, agents=6, frames=60, dets_band=(0.5, 20.0), heldout_worlds=1)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_reports_every_metric(tmp_path, name, trace):
    gate = encoder.gate_positions
    op = Tape.__dict__["linear"]
    metrics, tally, details = run_workload(tiny(name), seed=3, seconds=0,
                                           trace=trace, workdir=tmp_path,
                                           log=lambda msg: None)
    assert tally.checks == [] and tally.attempted > 0 and tally.failed == 0
    want = PER_LAYER if trace else END_TO_END
    assert {k: u for k, (v, u) in metrics.items()} == want
    assert all(isinstance(v, float) and math.isfinite(v) for v, _ in metrics.values())
    if not trace:
        assert all(v > 0 for v, _ in metrics.values())
    # traced runs leave the program unpatched
    assert encoder.gate_positions is gate and Tape.__dict__["linear"] is op


def test_counts_repeat_exactly(tmp_path):
    def counts():
        metrics, _, _ = run_workload(tiny("train-sparse"), seed=5, seconds=0, trace=True,
                                     workdir=tmp_path, log=lambda msg: None)
        return {k: v for k, (v, u) in metrics.items() if u == "count"}
    assert counts() == counts()


def test_failed_check_fails_every_window(tmp_path):
    wl = replace(tiny("train-dense"), dets_band=(100.0, 200.0))
    _, tally, _ = run_workload(wl, seed=3, seconds=0, trace=False, workdir=tmp_path,
                               log=lambda msg: None)
    assert [c["check"] for c in tally.checks] == ["world.dets_per_frame_band"]
    assert tally.failed == tally.attempted > 0


def test_benchmark_json_matches_the_metrics():
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == PER_LAYER
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    for rel in BENCH["paths"]:
        shutil.copytree(HERE.parent / rel, tmp_path / rel,
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, *BENCH["command"][1:], "--workload",
                           "train-sparse", "--seed", "1", "--seconds", "1"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
