"""One benchmark process: set up, run timed passes, check each, report.

`run.py` starts this file in a fresh interpreter for every set-up sample
and every measured run, so no state of one run reaches the next. It imports
fpres from the checkout's `src/` and nothing else, and writes its result as
JSON to the path given by `--result`.
"""
from __future__ import annotations

import argparse
import ctypes
import gc
import glob
import json
import os
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _import_checkout_fpres():
    sys.path.insert(0, SRC)
    import fpres

    where = os.path.dirname(os.path.abspath(fpres.__file__))
    if where != os.path.join(SRC, "fpres"):
        raise RuntimeError(f"imported fpres from {where}, not from {SRC}")
    return fpres


def _numpy_info() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"numpy": numpy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads_in_use": None}
    # scipy-openblas wheels expose their thread count under a suffixed name
    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["blas_threads_in_use"] = fn()
                return info
    return info


def _make_tracer(fpres_modules):
    from tracer import Tracer

    def cache_load(t, args, kwargs, out):
        t.count("wzw.cache_hits" if out is not None else "wzw.cache_misses")

    def save(t, args, kwargs, out):
        t.count("modular.json_bytes_written", os.path.getsize(args[1]))
        if t.layer_open("cli"):
            t.count("cli.files_written")

    def load(t, args, kwargs, out):
        t.count("modular.json_bytes_read", os.path.getsize(args[0]))

    def write_json(t, args, kwargs, out):
        t.count("cli.files_written")

    def sha256(t, args, kwargs, out):
        t.count("cli.bytes_hashed", os.path.getsize(args[0]))

    def twist(t, args, kwargs, out):
        t.count_distinct("currents.twist_exponent_distinct", args[0], args[1:])

    def extended(t, args, kwargs, out):
        t.count("extend.orbits", len(out.orbits))
        t.count("extend.ext_fields", out.n_ext)

    def resolve(t, args, kwargs, out):
        if t.count_distinct("extend.classes", args[0], args[1].rep):
            t.count("extend.block_pairs", len(out.r_assignments) ** 2)

    def report(t, args, kwargs, out):
        for b in out["bundles"].values():
            skipped = sum(bool(c.get("skipped")) for c in b["checks"].values())
            t.count("validate.checks_skipped", skipped)
            t.count("validate.checks_run", len(b["checks"]) - skipped)

    hooks = {
        "wzw._cache_load": cache_load,
        "modular.save": save,
        "modular.load": load,
        "cli._write_json": write_json,
        "cli._sha256": sha256,
        "currents.Theory.twist_exponent": twist,
        "extend.extend": extended,
        "extend.Extension.resolve": resolve,
        "validate.condition_report": report,
    }
    return Tracer("fpres", fpres_modules, hooks)


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Runner:
    """Timed passes of one workload, each checked against the reference."""

    def __init__(self, name: str, ctx):
        import gate
        import workloads

        self.gate = gate
        self.wl = workloads.WORKLOADS[name]
        self.ctx = ctx
        self.ref = gate.load_reference(self.wl.reference)
        self.convention_seed = ctx.seed if self.wl.seeded_conventions else None
        self.samples: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []   # one entry per failed pass
        self.first_digest = None

    def timed_pass(self, tracer=None):
        """Seconds one checked pass took, or None when it raised."""
        self.attempted += 1
        gc.collect()
        if tracer is not None:
            tracer.install()
        try:
            start = time.perf_counter()
            out = self.wl.run(self.ctx, self.convention_seed)
            elapsed = time.perf_counter() - start
        except Exception as exc:
            self.failures.append(f"{type(exc).__name__}: {exc}")
            return None
        finally:
            if tracer is not None:
                tracer.uninstall()
        self.check(out)
        return elapsed

    def check(self, out) -> None:
        g = self.gate
        try:
            if self.wl.kind == "cli":
                summary = g.summarize_cli(out, self.ref["eta_order"])
                bad = g.check_cli(summary, self.ref, self.first_digest)
                if self.first_digest is None:
                    self.first_digest = summary["digest"]
            else:
                bad = g.check_library(g.summarize_library(out), self.ref)
        except Exception as exc:  # a pass whose outputs cannot be read fails
            bad = [f"{type(exc).__name__}: {exc}"]
        if bad:
            self.failures.append("; ".join(bad))

    def run_for(self, seconds: float) -> None:
        """Untraced passes until the next one would end after `seconds`."""
        start = time.perf_counter()
        while True:
            elapsed = self.timed_pass()
            if elapsed is None:
                return
            self.samples.append(elapsed)
            if time.perf_counter() - start + elapsed > seconds:
                return

    def seeded_convention_failures(self) -> int:
        """Failed condition checks when the library version of this
        workload runs with the seed as its convention seed."""
        p = self.wl.library_twin(self.ctx, self.ctx.seed)
        return self.gate.failed_checks(p.conditions)


def _traced_pass(runner: Runner, tracer) -> dict:
    import metrics

    covered = tracer.top_level_s
    traced_s = runner.timed_pass(tracer)
    covered = tracer.top_level_s - covered
    if traced_s is None or not runner.samples:
        return {}
    return metrics.per_layer(tracer, {
        "trace.overhead_ratio": traced_s / statistics.median(runner.samples),
        "trace.coverage": covered / traced_s,
        "trace.uncovered_s": traced_s - covered,
        "trace.spans": len(tracer.spans),
        "validate.seeded_convention_failures":
            runner.seeded_convention_failures(),
    })


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--work", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="CLOCK_MONOTONIC reading taken just before spawning")
    args = ap.parse_args(argv)

    fpres = _import_checkout_fpres()
    import workloads
    from fpres import cli, currents, extend, groups, modular, phases, validate, wzw

    wl = workloads.WORKLOADS[args.workload]
    ctx = workloads.Context(args.work, args.seed, wl.sun_nk)
    tracer = None
    if args.trace:
        tracer = _make_tracer([cli, currents, extend, groups, modular,
                               phases, validate, wzw])
        tracer.install()
    try:
        workloads.setup(ctx)
    finally:
        if tracer is not None:
            tracer.uninstall()
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.spawned_at
    result = {"setup_s": setup_s}
    if not args.setup_only:
        result.update(fpres_version=fpres.__version__,
                      python=sys.version.split()[0], **_numpy_info())
        runner = Runner(args.workload, ctx)
        if tracer is None:
            runner.run_for(args.seconds)
        else:
            runner.run_for(args.seconds / 2)
            result["per_layer"] = _traced_pass(runner, tracer)
            tracer.write(os.path.join(args.work, "trace.json.gz"))
        result.update(samples=runner.samples, attempted=runner.attempted,
                      failures=runner.failures)
    result["peak_rss_mb"] = _rss_mb()
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
