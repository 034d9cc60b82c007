"""Stage ladder: the wall time of every stage of a checked simple-current
extension on a fixed set of workloads, written to `BENCH_<short-sha>.json`.

    python bench/ladder.py                      # the whole ladder, repo root
    python bench/ladder.py --only su2_4^3 --out /tmp/bench
    python bench/ladder.py --against HEAD~1 --only su5_5-pair   # paired

A run of one workload is the chain generate + tensor, `Theory`, `extend`,
`check_modular`, every resolution, the extended `Theory`, the condition
report and the fusion check. Each stage is timed from outside the library
with `perf_counter`, and the file records the median of each stage over the
workload's repeats. Every workload runs in a fresh interpreter, which
reports its own peak RSS, so one workload's memory does not hide another's,
and the peak RSS reached by the end of each stage of its first pass.
Each pass builds its theories from fresh objects, so nothing cached on a
theory object carries over.

fpres is imported from `PYTHONPATH` when that provides it, else from the
`src/` of this checkout; the short sha names the checkout that fpres came
from, with `-dirty` when its `src/` has uncommitted changes. OpenBLAS runs
on one thread unless `OPENBLAS_NUM_THREADS` says otherwise.

With `--against REV`, REV is checked out with `git worktree add` into a
temporary directory, removed afterwards, and each selected workload runs
ROUNDS times in fresh interpreters on both sides, the working tree's
`src/` and REV's, alternating which side runs first. Both sides run this
file's passes. The file, `BENCH_<sha>-vs-<REV sha>.json`, holds per workload
and stage both sides' medians, the quartiles of the paired differences
(working tree minus REV) over the rounds, the share of rounds the working
tree was faster, and both sides' `stages_peak_rss_mb`, medians per stage.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.append(os.path.join(ROOT, "src"))

ROUNDS = 5  # paired rounds per workload with --against
STAGES = ("generate_tensor", "theory", "extend", "check_modular", "resolve",
          "extended_theory", "condition_report", "fusion_check")

# name -> (factors, generator label, convention seed, repeats, warm su(N)
# cache). The su(2)_4^k theories are extended by the diagonal current
# (4, ..., 4), the su(5)_5 pair by its diagonal order-5 current. The cold
# su(5)_5 row builds S in every pass; the warm row reads it from a disk cache
# filled before the first timed pass. su(2)_4 x su(3)_3 is extended by
# (0, (3, 0)) with convention seed 0: its class representative r has order 6
# in a class of order 2, so r^2 is not the identity and the resolution
# phases are not all 0.
FACTORS = {"su2_4": (2, 4), "su3_3": (3, 3), "su5_5": (5, 5)}
WORKLOADS = {
    "su2_4^3": (("su2_4",) * 3, (4,) * 3, None, 5, False),
    "su2_4^4": (("su2_4",) * 4, (4,) * 4, None, 5, False),
    "su2_4^5": (("su2_4",) * 5, (4,) * 5, None, 3, False),
    "su2_4^6": (("su2_4",) * 6, (4,) * 6, None, 1, False),
    "su5_5-pair": (("su5_5",) * 2, ((5, 0, 0, 0),) * 2, None, 9, False),
    "su5_5-pair-warm": (("su5_5",) * 2, ((5, 0, 0, 0),) * 2, None, 9, True),
    "su2_4-su3_3-closure": (("su2_4", "su3_3"), (0, (3, 0)), 0, 25, False),
}


def make_factor(name: str, cache_dir=None):
    from fpres import wzw

    n, k = FACTORS[name]
    return wzw.su2(k) if n == 2 else wzw.sun(n, k, cache_dir=cache_dir)


def peak_rss_mb() -> float:
    # ru_maxrss is in kB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def one_pass(workload: str, cache_dir=None):
    """(stage times, peak RSS after each stage, counts, ok) of one chain on
    fresh objects."""
    from fpres import currents, extend, modular, validate

    factors, top, seed = WORKLOADS[workload][:3]
    times, rss = {}, {}
    clock = time.perf_counter

    def stage(name, fn, *args, **kwargs):
        t0 = clock()
        out = fn(*args, **kwargs)
        times[name] = clock() - t0
        rss[name] = peak_rss_mb()
        return out

    def generate():
        built = {f: make_factor(f, cache_dir) for f in dict.fromkeys(factors)}
        md = modular.tensor(*(built[f] for f in factors))
        return md, md.index(top)

    md, gen = stage("generate_tensor", generate)
    th = stage("theory", currents.Theory, md)
    ex = stage("extend", extend.extend, th, [gen], convention_seed=seed)
    checked = stage("check_modular", modular.check_modular, ex.ext_md)
    classes = [c for c in ex.residual_classes() if c.order > 1]
    res = stage("resolve", lambda: [ex.resolve(c) for c in classes])
    th2 = stage("extended_theory", ex.extended_theory,
                extra_bundles=[r.bundle for r in res])
    report = stage("condition_report", validate.condition_report, th2)
    fusion = stage("fusion_check", validate.check_fusion_integrality, ex.ext_md)
    counts = {"fields": md.size, "currents": len(th.perms),
              "orbits": len(ex.orbits), "ext_fields": ex.n_ext,
              "classes": len(classes), "ext_currents": len(th2.perms)}
    ok = bool(checked["ok"] and report["ok"] and fusion["ok"])
    return times, rss, counts, ok


def run_workload(name: str) -> dict:
    """Every repeat of one workload, in this interpreter."""
    import gc
    import tempfile

    factors, _, _, repeats, warm = WORKLOADS[name]
    runs, stage_rss, counts, ok = [], None, None, True
    with tempfile.TemporaryDirectory() as tmp:
        cache_dir = tmp if warm else None
        if warm:
            for f in set(factors):
                make_factor(f, cache_dir)
        for _ in range(repeats):
            gc.collect()
            times, rss, counts, good = one_pass(name, cache_dir)
            stage_rss = stage_rss or rss
            runs.append(times)
            ok = ok and good
    stages = {s: statistics.median(r[s] for r in runs) for s in STAGES}
    return {
        "repeats": repeats,
        "stages_s": stages,
        "stages_peak_rss_mb": stage_rss,
        "total_s": statistics.median(sum(r.values()) for r in runs),
        "runs_s": [[r[s] for s in STAGES] for r in runs],
        "counts": counts,
        "ok": ok,
        "peak_rss_mb": peak_rss_mb(),
    }


def git(*args, cwd=ROOT) -> str:
    proc = subprocess.run(["git", "-C", cwd, *args], capture_output=True,
                          text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"git {' '.join(args)}: {proc.stderr.strip()}")
    return proc.stdout.strip()


def fpres_src() -> str:
    """The directory that fpres is imported from."""
    import fpres

    return os.path.dirname(os.path.dirname(os.path.abspath(fpres.__file__)))


def source_sha() -> str:
    src = fpres_src()
    try:
        sha = git("rev-parse", "--short", "HEAD", cwd=src)
        dirty = git("status", "--porcelain", "--", ".", cwd=src)
    except RuntimeError:
        return "unknown"
    return sha + "-dirty" if dirty else sha


def versions() -> dict:
    import numpy

    import fpres

    return {
        "fpres": fpres.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "openblas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def worker(name: str, src=None) -> dict:
    """One fresh-interpreter run of workload `name`, with fpres from `src`
    when given; raises on failure."""
    env = os.environ.copy()
    if src is not None:
        env["PYTHONPATH"] = src
    proc = subprocess.run([sys.executable, os.path.abspath(__file__),
                           "--worker", name], capture_output=True, text=True,
                          env=env)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"workload {name} exited {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def paired(head: list, base: list) -> dict:
    """The comparison of one workload's rounds, run records of both sides
    in round order."""
    stages = {}
    for s in (*STAGES, "total"):
        h, b = ([r["total_s"] if s == "total" else r["stages_s"][s]
                 for r in side] for side in (head, base))
        stages[s] = {
            "head_s": statistics.median(h),
            "base_s": statistics.median(b),
            "diff_s_quartiles": statistics.quantiles(
                [x - y for x, y in zip(h, b)], n=4, method="inclusive"),
            "won": sum(x < y for x, y in zip(h, b)) / len(h),
        }
    return {
        "stages_s": stages,
        "stages_peak_rss_mb": {
            side: {s: statistics.median(r["stages_peak_rss_mb"][s]
                                        for r in runs) for s in STAGES}
            for side, runs in (("head", head), ("base", base))},
        "peak_rss_mb": {side: statistics.median(r["peak_rss_mb"] for r in runs)
                        for side, runs in (("head", head), ("base", base))},
        "counts": head[0]["counts"],
        "ok": all(r["ok"] for r in head + base),
        "runs": {"head": head, "base": base},
    }


def against(doc: dict, names, rev: str) -> str:
    """Fill `doc` with the paired rounds of `names` against `rev`; return
    the short sha of `rev`."""
    base_sha = git("rev-parse", "--short", f"{rev}^{{commit}}")
    tmp = tempfile.mkdtemp(prefix="fpres-ladder-")
    tree = os.path.join(tmp, base_sha)
    git("worktree", "add", "--detach", tree, base_sha)
    try:
        sides = {"head": fpres_src(), "base": os.path.join(tree, "src")}
        for name in names:
            runs = {"head": [], "base": []}
            for k in range(ROUNDS):
                order = ("head", "base") if k % 2 == 0 else ("base", "head")
                for side in order:
                    runs[side].append(worker(name, sides[side]))
            doc["workloads"][name] = w = paired(runs["head"], runs["base"])
            t = w["stages_s"]["total"]
            print(f"{name}: {t['head_s']:.3f} s against {t['base_s']:.3f} s, "
                  f"won {t['won']:.0%} of {ROUNDS} rounds, ok={w['ok']}",
                  file=sys.stderr)
    finally:
        subprocess.run(["git", "-C", ROOT, "worktree", "remove", "--force",
                        tree], capture_output=True)
        shutil.rmtree(tmp, ignore_errors=True)
    doc["against"] = {"rev": rev, "sha": base_sha, "rounds": ROUNDS}
    return base_sha


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--only", action="append", choices=list(WORKLOADS),
                   help="run only this workload (repeatable)")
    p.add_argument("--out", default=ROOT, help="directory for BENCH_<sha>.json")
    p.add_argument("--against", metavar="REV",
                   help="pair each workload with the checkout of REV")
    p.add_argument("--worker", choices=list(WORKLOADS), help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    if args.worker:
        print(json.dumps(run_workload(args.worker)))
        return 0

    doc = {"format": "fpres-ladder v1", "sha": source_sha(),
           "versions": versions(), "stages": list(STAGES), "workloads": {}}
    names = args.only or list(WORKLOADS)
    try:
        if args.against:
            suffix = "-vs-" + against(doc, names, args.against)
        else:
            suffix = ""
            for name in names:
                doc["workloads"][name] = w = worker(name)
                print(f"{name}: {w['total_s']:.3f} s, "
                      f"{w['peak_rss_mb']:.0f} MB, ok={w['ok']}",
                      file=sys.stderr)
    except RuntimeError as exc:
        print(f"ladder: {exc}", file=sys.stderr)
        return 1
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, f"BENCH_{doc['sha']}{suffix}.json")
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
