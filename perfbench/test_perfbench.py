"""Self-test of the benchmark: the gate catches corrupted results, the tracer
restores what it wraps, and the metric lists agree with BENCHMARK.json.

    python3 -m pytest perfbench/test_perfbench.py
"""
from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import gate  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


@pytest.fixture
def ctx(tmp_path):
    c = workloads.Context(str(tmp_path), seed=3, sun_nk=(2, 4))
    workloads.setup(c)
    return c


def _corrupt_eta(p):
    """The same pass with the first resolved bundle's eta negated."""
    r = p.resolutions[0]
    bundle = dataclasses.replace(r.bundle, eta=-r.bundle.eta)
    res = [dataclasses.replace(r, bundle=bundle)] + p.resolutions[1:]
    return dataclasses.replace(p, resolutions=res)


def test_clean_library_pass_matches_reference(ctx):
    summary = gate.summarize_library(workloads.smoke_su2x2(ctx, ctx.seed))
    assert gate.check_library(summary, gate.load_reference("smoke-su2x2")) == []


def test_corrupted_eta_trips_the_gate(ctx):
    p = _corrupt_eta(workloads.smoke_su2x2(ctx))
    bad = gate.check_library(gate.summarize_library(p),
                             gate.load_reference("smoke-su2x2"))
    assert len(bad) == 1 and bad[0].startswith("bundles:")


def test_flipped_check_pattern_trips_the_gate(ctx):
    p = workloads.smoke_su2x2(ctx)
    checks = next(iter(p.conditions["bundles"].values()))["checks"]
    checks["{6}"]["ok"] = False
    bad = gate.check_library(gate.summarize_library(p),
                             gate.load_reference("smoke-su2x2"))
    assert len(bad) == 1 and bad[0].startswith("bundles:")


def test_tolerances_trip_the_gate(ctx):
    summary = gate.summarize_library(workloads.smoke_su2x2(ctx))
    ref = gate.load_reference("smoke-su2x2")
    assert gate.check_library(dict(summary, modular_deviation=2e-9), ref)
    assert gate.check_library(dict(summary, eta_deviation=2e-8), ref)


def test_runner_counts_a_corrupted_pass_as_failed(ctx):
    runner = worker.Runner("smoke-cli-su2x2", ctx)
    runner.wl = dataclasses.replace(
        runner.wl, kind="library",
        run=lambda c, seed: _corrupt_eta(workloads.smoke_su2x2(c, seed)),
    )
    runner.run_for(0.0)
    assert runner.attempted == 1 and len(runner.failures) == 1


def test_corrupted_cli_output_trips_the_gate(ctx):
    ref = gate.load_reference("smoke-su2x2")
    p = workloads.smoke_cli_su2x2(ctx, ctx.seed)
    summary = gate.summarize_cli(p, ref["eta_order"])
    assert gate.check_cli(summary, ref, summary["digest"]) == []

    bundle_files = [f for f in os.listdir(p.out) if f.startswith("bundle_")]
    path = os.path.join(p.out, bundle_files[0])
    with open(path) as fh:
        doc = json.load(fh)
    doc["eta"][0] = [-x for x in doc["eta"][0]]
    with open(path, "w") as fh:
        json.dump(doc, fh)
    bad = gate.check_cli(gate.summarize_cli(p, ref["eta_order"]), ref,
                         summary["digest"])
    assert any(b.startswith("bundles:") for b in bad)
    assert "outputs differ from the first pass of this process" in bad


def test_failed_run_reports_incorrect():
    record = {"trace": 0, "attempted": 4, "failed": 1, "failures": ["x"],
              "provenance": {},
              "metrics": {k: 1.0 for k in metrics.END_TO_END}}
    assert run.report(record)["correct"] is False


def test_tracer_spans_nest_and_uninstall_restores():
    from fpres import cli, currents, extend, groups, modular, phases, validate, wzw

    mods = [cli, currents, extend, groups, modular, phases, validate, wzw]

    def snapshot():
        out = {}
        for m in mods:
            for k, v in vars(m).items():
                out[m.__name__, k] = v
                if isinstance(v, type):
                    out.update({(m.__name__, k, a): f for a, f in vars(v).items()})
        return out

    before = snapshot()
    norm1 = phases.norm1
    tracer = worker._make_tracer(mods)
    tracer.install()
    try:
        assert currents.norm1 is phases.norm1 is not norm1
        md = modular.tensor(wzw.su2(4), wzw.su2(4))
        currents.Theory(md)
    finally:
        tracer.uninstall()
    assert snapshot() == before
    ids = {s[0] for s in tracer.spans}
    assert len(ids) == len(tracer.spans)
    assert all(parent == 0 or parent in ids for _, parent, *_ in tracer.spans)
    top = sum(e - s for _, parent, _, s, e in tracer.spans if parent == 0)
    assert top == pytest.approx(tracer.top_level_s)
    assert tracer.calls("currents.Theory") == 1
    # one per factor of each of the 4 product currents
    assert tracer.calls("modular.fusion_matrix") == 8
    assert tracer.calls("phases.norm1") > 0


def test_layer_time_excludes_other_layers():
    from fpres import modular, wzw

    tracer = Tracer("fpres", [modular, wzw])
    tracer.install()
    try:
        modular.tensor(wzw.su2(4), wzw.su2(4))
    finally:
        tracer.uninstall()
    st = tracer.stats["modular.tensor"]
    assert 0 <= st.stage_s <= st.total_s
    assert tracer.layer_s("wzw") == pytest.approx(tracer.stats["wzw.su2"].total_s)


def test_tail_needs_ten_samples_beyond():
    assert metrics.tail([3, 1, 2, 4]) == (2.5, 50.0, 2)
    assert metrics.tail(list(range(1, 21))) == (10.5, 50.0, 10)
    assert metrics.tail(list(range(1, 22))) == (11, 100 * 11 / 21, 10)
    assert metrics.tail(list(range(1, 31))) == (20, 100 * 20 / 30, 10)
    assert metrics.tail(list(range(1, 101))) == (90, 90.0, 10)


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: v[0] for k, v in metrics.PER_LAYER.items()}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "su5-pair",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
