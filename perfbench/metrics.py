"""Names, units and sources of every metric the benchmark reports.

End-to-end metrics come from untraced passes; per-layer metrics from one
traced set-up and one traced pass (see `tracer.py`). A per-layer name ending
in `_s` is the layer time of that stage: its spans' duration minus the time
spent in other layers under them. `<layer>.self_s` is the layer's whole
layer time in the traced region.
"""
from __future__ import annotations

import statistics

END_TO_END = {
    "wall_s": "s",            # median wall time of one pass
    "wall_s_tail": "s",       # see tail()
    "setup_s": "s",           # median process start to first timed pass
    "peak_rss_mb": "MB",      # peak resident set of the measuring process
    "success_rate": "ratio",  # 1 - failed / attempted passes
}

# name -> (unit, kind, argument); kinds are read by `per_layer` below
PER_LAYER = {
    "wzw.sun_s": ("s", "stage", "wzw.sun"),
    "wzw.cache_hits": ("count", "counter", "wzw.cache_hits"),
    "wzw.cache_misses": ("count", "counter", "wzw.cache_misses"),
    "modular.tensor_s": ("s", "stage", "modular.tensor"),
    "modular.check_modular_s": ("s", "stage", "modular.check_modular"),
    "modular.fusion_matrix_calls": ("count", "calls", "modular.fusion_matrix"),
    "modular.fusion_matrix_s": ("s", "stage", "modular.fusion_matrix"),
    "modular.save_s": ("s", "stage", "modular.save"),
    "modular.load_s": ("s", "stage", "modular.load"),
    "modular.json_bytes_written": ("B", "counter", "modular.json_bytes_written"),
    "modular.json_bytes_read": ("B", "counter", "modular.json_bytes_read"),
    "currents.theory_s": ("s", "stage", "currents.Theory"),
    "currents.theories_built": ("count", "calls", "currents.Theory"),
    "currents.charge_exponent_calls": ("count", "calls", "currents.Theory.charge_exponent"),
    "currents.current_permutation_calls": ("count", "calls", "currents.current_permutation"),
    "currents.twist_exponent_calls": ("count", "calls", "currents.Theory.twist_exponent"),
    "currents.twist_exponent_distinct": ("count", "counter", "currents.twist_exponent_distinct"),
    "currents.bundle_entry_calls": ("count", "calls", "currents.Theory.bundle_entry"),
    "extend.extend_s": ("s", "stage", "extend.extend"),
    "extend.orbits": ("count", "counter", "extend.orbits"),
    "extend.ext_fields": ("count", "counter", "extend.ext_fields"),
    "extend.resolve_s": ("s", "stage", "extend.Extension.resolve"),
    "extend.resolve_calls": ("count", "calls", "extend.Extension.resolve"),
    "extend.classes": ("count", "counter", "extend.classes"),
    "extend.block_pairs": ("count", "counter", "extend.block_pairs"),
    "extend.extended_theory_s": ("s", "stage", "extend.Extension.extended_theory"),
    "validate.condition_report_s": ("s", "stage", "validate.condition_report"),
    "validate.fusion_integrality_s": ("s", "stage", "validate.check_fusion_integrality"),
    "validate.checks_run": ("count", "counter", "validate.checks_run"),
    "validate.checks_skipped": ("count", "counter", "validate.checks_skipped"),
    "validate.seeded_convention_failures": ("count", "worker", None),
    "phases.norm1_calls": ("count", "calls", "phases.norm1"),
    "phases.unit_calls": ("count", "calls", "phases.unit"),
    "phases.snap_phase_calls": ("count", "calls", "phases.snap_phase"),
    "phases.snap_phase_failed": ("count", "failed", "phases.snap_phase"),
    "phases.self_s": ("s", "layer", "phases"),
    "groups.mul_calls": ("count", "calls", "groups.MultGroup.mul"),
    "groups.char_calls": ("count", "calls", "groups.MultGroup.char_value groups.MultGroup.char_exponent"),
    "groups.self_s": ("s", "layer", "groups"),
    "cli.generate_s": ("s", "stage", "cli.cmd_generate"),
    "cli.tensor_s": ("s", "stage", "cli.cmd_tensor"),
    "cli.extend_s": ("s", "stage", "cli.cmd_extend"),
    "cli.validate_s": ("s", "stage", "cli.cmd_validate"),
    "cli.bytes_hashed": ("B", "counter", "cli.bytes_hashed"),
    "cli.files_written": ("count", "counter", "cli.files_written"),
    "trace.overhead_ratio": ("ratio", "worker", None),
    "trace.coverage": ("ratio", "worker", None),
    "trace.uncovered_s": ("s", "worker", None),
    "trace.spans": ("count", "worker", None),
}


def per_layer(tracer, worker_values: dict) -> dict:
    """Every per-layer metric as {name: value}."""
    out = {}
    for name, (_, kind, arg) in PER_LAYER.items():
        if kind == "stage":
            out[name] = tracer.stage_s(arg)
        elif kind == "calls":
            out[name] = sum(tracer.calls(q) for q in arg.split())
        elif kind == "failed":
            out[name] = tracer.failed(arg)
        elif kind == "counter":
            out[name] = tracer.counts.get(arg, 0)
        elif kind == "layer":
            out[name] = tracer.layer_s(arg)
        else:
            out[name] = worker_values[name]
    return out


def tail(samples) -> tuple:
    """(value, percentile, samples beyond it) for the wall-time tail.

    The tail is the highest nearest-rank percentile with at least ten
    samples beyond it. With 20 samples or fewer every such rank lies below
    the median, so the median is reported instead, as percentile 50, with
    the count of samples above it.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n > 20:
        return ordered[n - 11], 100.0 * (n - 10) / n, 10
    return statistics.median(ordered), 50.0, n // 2
