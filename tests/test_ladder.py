"""Smoke test of the stage ladder on its smallest workload and its closure
row, and of its paired rounds against a revision."""
import json
import os
import subprocess
import sys

import pytest

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


def _git(*args):
    return subprocess.run(["git", "-C", os.path.dirname(LADDER), *args],
                          capture_output=True, text=True)


def test_ladder_pairs_the_working_tree_with_a_revision(tmp_path):
    try:
        head = _git("rev-parse", "--short", "HEAD")
    except OSError:
        pytest.skip("git is not installed")
    if head.returncode != 0:
        pytest.skip("not a git checkout")
    sha = head.stdout.strip()
    trees = _git("worktree", "list", "--porcelain").stdout
    proc = subprocess.run(
        [sys.executable, LADDER, "--only", "su2_4^3", "--against", "HEAD",
         "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    # the checkout of the revision is gone again
    assert _git("worktree", "list", "--porcelain").stdout == trees
    path = proc.stdout.strip().splitlines()[-1]
    assert os.path.basename(path).endswith(f"-vs-{sha}.json")
    doc = json.loads(open(path).read())
    assert doc["against"] == {"rev": "HEAD", "sha": sha, "rounds": 5}
    w = doc["workloads"]["su2_4^3"]
    assert list(w["stages_s"]) == doc["stages"] + ["total"]
    for stage in w["stages_s"].values():
        q1, median, q3 = stage["diff_s_quartiles"]
        assert q1 <= median <= q3
        assert stage["won"] in {k / 5 for k in range(6)}
        assert stage["head_s"] >= 0 and stage["base_s"] >= 0
    for side in ("head", "base"):
        assert len(w["runs"][side]) == 5
        assert list(w["stages_peak_rss_mb"][side]) == doc["stages"]
        assert w["peak_rss_mb"][side] > 0
    assert w["counts"]["ext_fields"] == 33 and w["ok"]
