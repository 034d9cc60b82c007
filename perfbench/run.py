"""fpres benchmark: timed end-to-end passes and a traced per-layer pass.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run it from the root of a checkout; it imports fpres from `src/` there and
writes only under `.perfbench_work/`. Workloads (see workloads.py):

  su5-pair    su(5)_5 x su(5)_5 (15,876 fields, factorized S) extended by
              the diagonal order-5 current: current detection, charges,
              current permutations and the extended S dominate.
  su2x4-diag  su(2)_4^4 (625 fields, dense S) extended by the diagonal
              order-2 current: the per-orbit-pair resolution loop and the
              twist-based condition report dominate.
  cli-su5     the su5 pair through `fpres.cli.main`: generate, tensor,
              extend --out, validate --bundles, so JSON writing and reading
              count too.

Load model: closed loop, one caller, one process; each pass starts when the
previous one has ended. With `--trace 0`, `--seconds` of untraced passes
give the end-to-end metrics, and separate processes repeat the set-up to
give its median. With `--trace 1`, half the time goes to untraced passes and
then one traced pass (after a traced set-up) gives the per-layer metrics.
Every pass is checked against reference/; a failed pass makes the run exit 1.
The last line of stdout is the JSON result.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")
sys.path.insert(0, HERE)

import metrics  # noqa: E402

WORKLOADS = ("su5-pair", "su2x4-diag", "cli-su5")
SMOKE = ("smoke-su2", "smoke-cli-su2x2")
SETUP_SAMPLES = 9        # set-ups per --trace 0 run, one in the measuring process
DEADLINE_S = 170         # the whole run ends well inside 180 s


# One BLAS thread, as one caller in one process. On a 2-CPU machine shared
# with other work, a second OpenBLAS thread bought about 5% of wall time for
# about 1.7x the CPU time and gave the widest outliers.
BLAS_THREADS = "1"


def _blas_env() -> dict:
    """Child environment: BLAS pinned, no outside su(N) cache."""
    env = dict(os.environ)
    env["OPENBLAS_NUM_THREADS"] = BLAS_THREADS
    env["OMP_NUM_THREADS"] = BLAS_THREADS
    env.pop("FPRES_CACHE_DIR", None)
    return env


def _git_sha() -> str:
    """HEAD of the checkout, or "none" where it is not a git repository."""
    try:
        proc = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    lines = proc.stdout.split()
    # a checkout inside some other repository must not report that one
    if proc.returncode != 0 or len(lines) != 2 or not os.path.samefile(lines[0], ROOT):
        return "none"
    return lines[1]


def _src_digest() -> str:
    """sha256 over the package sources, which identifies the code measured
    also where the checkout is not a git repository."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def _worker(work, result, args, deadline, setup_only=False) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", work, "--result", result,
           "--spawned-at", repr(time.clock_gettime(time.CLOCK_MONOTONIC))]
    if setup_only:
        cmd.append("--setup-only")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise TimeoutError("no time left for another benchmark process")
    # run() kills the child on timeout and waits for it before raising
    proc = subprocess.run(cmd, cwd=ROOT, env=_blas_env(), timeout=timeout,
                          stdout=subprocess.DEVNULL)
    if proc.returncode != 0:
        raise RuntimeError(f"benchmark process exited {proc.returncode}")
    with open(result) as fh:
        return json.load(fh)


def measure(args) -> dict:
    """Run the workload's processes; return the full result record."""
    deadline = time.monotonic() + DEADLINE_S
    run_dir = os.path.join(WORK, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    setups = []
    if not args.trace:
        for i in range(SETUP_SAMPLES - 1):
            work = os.path.join(run_dir, f"setup{i}")
            setups.append(_worker(work, work + ".json", args, deadline,
                                  setup_only=True)["setup_s"])
            shutil.rmtree(work)
    work = os.path.join(run_dir, "measure")
    main = _worker(work, os.path.join(run_dir, "measure.json"), args, deadline)
    for sub in ("cli-run", "sun-cache", "inputs"):
        shutil.rmtree(os.path.join(work, sub), ignore_errors=True)
    setups.append(main["setup_s"])
    samples = main["samples"]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "attempted": main["attempted"],
        "failed": len(main["failures"]),
        "failures": main["failures"],
        "samples_s": samples,
        "setup_samples_s": setups,
        "provenance": {
            "git_sha": _git_sha(),
            "src_sha256": _src_digest(),
            "fpres": main["fpres_version"],
            "python": main["python"],
            "numpy": main["numpy"],
            "blas": main["blas"],
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "OPENBLAS_NUM_THREADS": BLAS_THREADS,
            "blas_threads_in_use": main["blas_threads_in_use"],
        },
    }
    if args.trace:
        record["metrics"] = main.get("per_layer", {})
        return record
    if samples:
        tail, pct, beyond = metrics.tail(samples)
        record["tail"] = {"percentile": pct, "beyond": beyond, "n": len(samples)}
        record["metrics"] = {
            "wall_s": statistics.median(samples),
            "wall_s_tail": tail,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": main["peak_rss_mb"],
            "success_rate": 1 - record["failed"] / record["attempted"],
        }
    return record


def _units(trace: int) -> dict:
    if trace:
        return {k: v[0] for k, v in metrics.PER_LAYER.items()}
    return dict(metrics.END_TO_END)


def report(record) -> dict:
    """Print the readable lines; return the final result object."""
    units = _units(record["trace"])
    values = record.get("metrics", {})
    for name, unit in units.items():
        if name in values:
            print(f"{name:40s} {values[name]!r:>24} {unit}")
    if "tail" in record:
        t = record["tail"]
        print(f"wall_s_tail is p{t['percentile']:.0f} of {t['n']} passes, "
              f"{t['beyond']} beyond it")
    for line in record["failures"]:
        print(f"FAILED: {line}")
    print("provenance: " + json.dumps(record["provenance"], sort_keys=True))
    complete = set(values) == set(units)
    return {
        "correct": record["failed"] == 0 and complete,
        "attempted": max(record["attempted"], 1),
        "failed": record["failed"] if complete else max(record["attempted"], 1),
        "metrics": {k: {"value": values[k], "unit": u}
                    for k, u in units.items() if k in values},
    }


def smoke() -> int:
    """Every metric name and unit, from short runs on tiny inputs."""
    ok = True
    for workload in SMOKE:
        for trace in (0, 1):
            args = argparse.Namespace(workload=workload, seed=1, seconds=1.0,
                                      trace=trace)
            print(f"== {workload} --trace {trace}")
            result = report(measure(args))
            ok = ok and result["correct"]
            print(json.dumps(result))
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + SMOKE)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run both tiny workloads in both modes")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "fpres", "__init__.py")):
        print(f"error: no fpres sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        ap.error("--workload is required")
    try:
        record = measure(args)
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result = report(record)
    os.makedirs(WORK, exist_ok=True)
    with open(os.path.join(WORK, f"{args.workload}-seed{args.seed}"
                                 f"-trace{args.trace}.json"), "w") as fh:
        json.dump({**record, "result": result}, fh, indent=1)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
