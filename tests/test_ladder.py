"""Smoke test of the stage ladder on its smallest workload and its closure
row."""
import json
import os
import subprocess
import sys

LADDER = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "ladder.py")


def test_ladder_writes_stage_medians_counts_and_peak_rss(tmp_path):
    proc = subprocess.run(
        [sys.executable, LADDER, "--only", "su2_4^3", "--only",
         "su2_4-su3_3-closure", "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    path = proc.stdout.strip().splitlines()[-1]
    assert os.path.dirname(path) == str(tmp_path)
    assert os.path.basename(path).startswith("BENCH_")
    doc = json.loads(open(path).read())
    assert doc["format"] == "fpres-ladder v1"
    assert set(doc["versions"]) >= {"fpres", "python", "numpy"}
    w = doc["workloads"]["su2_4^3"]
    assert list(w["stages_s"]) == doc["stages"]
    assert doc["stages"] == ["generate_tensor", "theory", "extend",
                             "check_modular", "resolve", "extended_theory",
                             "condition_report", "fusion_check"]
    assert all(t >= 0 for t in w["stages_s"].values())
    # the peak RSS after each stage of the first pass, in stage order
    rss = w["stages_peak_rss_mb"]
    assert list(rss) == doc["stages"]
    peaks = list(rss.values())
    assert 0 < peaks[0] and peaks == sorted(peaks)
    assert peaks[-1] <= w["peak_rss_mb"]
    assert len(w["runs_s"]) == w["repeats"]
    assert w["counts"] == {"fields": 125, "currents": 8, "orbits": 32,
                           "ext_fields": 33, "classes": 3, "ext_currents": 4}
    assert w["ok"] and w["peak_rss_mb"] > 0
    # the row whose resolution closes on a nontrivial current
    w = doc["workloads"]["su2_4-su3_3-closure"]
    assert w["counts"] == {"fields": 50, "currents": 6, "orbits": 10,
                           "ext_fields": 20, "classes": 1, "ext_currents": 8}
    assert w["ok"]
