"""The correctness gate: invariants of a pass, compared with a stored reference.

The invariants do not depend on how fields are labelled, so a pass under
another generator or convention seed must reproduce them exactly:

* counts: base fields, orbits, extended fields, class orders, bundle
  dimensions;
* per resolved bundle, the multisets of its exact eta exponents and (for
  library passes) of its exact twist exponents F(a, K, J);
* per bundle, which condition checks pass, fail or are skipped;
* the fusion check's verdict, `check_modular` within 1e-9 and every eta
  deviation within 1e-8.

A CLI pass has no theory object to ask for twists; it is compared on the
rest, read back from the files it wrote, and its outputs must also be
byte-identical from one pass to the next.
"""
from __future__ import annotations

import cmath
import collections
import glob
import hashlib
import json
import math
import os
from fractions import Fraction

MODULAR_TOL = 1e-9
ETA_DEVIATION_TOL = 1e-8
ETA_SNAP_TOL = 1e-8


def _pattern(checks: dict) -> dict:
    return {
        cid: "skip" if c.get("skipped") else ("pass" if c["ok"] else "fail")
        for cid, c in checks.items()
    }


def _multiset(values) -> dict:
    return dict(sorted(collections.Counter(values).items()))


def _canonical(items) -> list:
    return sorted(items, key=lambda x: json.dumps(x, sort_keys=True))


def _eta_exponent(z: complex, order: int):
    """Exact exponent q with exp(2 pi i q) = z, on the grid 1/order."""
    q = Fraction(round(cmath.phase(z) / (2 * math.pi) * order) % order, order)
    if abs(z - cmath.exp(2j * math.pi * float(q))) > ETA_SNAP_TOL:
        return None
    return f"{q.numerator}/{q.denominator}"


def eta_order(theory) -> int:
    """Resolved etas are roots of unity of order dividing the theory's snap
    order times the square of its current-group exponent."""
    return theory.snap_order * theory.center.exponent() ** 2


def summarize_library(p) -> dict:
    """Invariants of a `workloads.LibraryPass`."""
    ex, th2 = p.ext, p.ext_theory
    order = eta_order(th2)
    bundles = []
    for r in p.resolutions:
        b = r.bundle
        twists = [
            str(th2.twist_exponent(a, k, b.current))
            for a in b.fields
            for k in th2.center.elements
            if th2.apply(k, a) == a
        ]
        bundles.append({
            "dim": b.dim,
            "eta": _multiset(str(_eta_exponent(z, order)) for z in b.eta),
            "twists": _multiset(twists),
            "checks": _pattern(p.conditions["bundles"][str(b.current)]["checks"]),
        })
    return {
        "base_fields": ex.theory.md.size,
        "orbits": len(ex.orbits),
        "ext_fields": ex.n_ext,
        "class_orders": sorted(c.order for c in ex.residual_classes()),
        "eta_order": order,
        "bundles": _canonical(bundles),
        "fusion_ok": bool(p.fusion["ok"]),
        "modular_deviation": float(p.modular["max_deviation"]),
        "eta_deviation": max((r.eta_deviation for r in p.resolutions),
                             default=0.0),
    }


def _read(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def summarize_cli(p, eta_grid: int) -> dict:
    """Invariants of a `workloads.CliPass`, read from the files it wrote.

    `eta_grid` is the reference's eta order: bundle files hold floats, which
    are snapped to that grid."""
    report = _read(os.path.join(p.out, "report.json"))
    validation = _read(p.validation)
    summary_ext = report["extension"]
    bundles = []
    for path in sorted(glob.glob(os.path.join(p.out, "bundle_*.json"))):
        doc = _read(path)
        eta = [complex(re, im) for re, im in doc["eta"]]
        bundles.append({
            "dim": len(doc["fields"]),
            "eta": _multiset(str(_eta_exponent(z, eta_grid)) for z in eta),
        })
    checks = [_pattern(b["checks"]) for b in report["conditions"]["bundles"].values()]
    validated = [_pattern(b["checks"]) for b in validation["bundles"].values()]
    return {
        "exit_codes": p.codes,
        "base_fields": summary_ext["base_fields"],
        "orbits": summary_ext["orbits"],
        "ext_fields": summary_ext["extended_fields"],
        "class_orders": sorted(c["order"] for c in summary_ext["residual_classes"]),
        "bundles": _canonical(bundles),
        "checks": _canonical(checks),
        "validate_checks": _canonical(validated),
        "fusion_ok": bool(report["fusion"]["ok"]),
        "digest": cli_digest(p),
    }


def cli_digest(p) -> str:
    """sha256 over report.json, the bundle files and the validate report."""
    digest = hashlib.sha256()
    paths = [os.path.join(p.out, "report.json"), p.validation]
    paths += sorted(glob.glob(os.path.join(p.out, "bundle_*.json")))
    for path in paths:
        digest.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def check_library(summary: dict, ref: dict) -> list:
    """Mismatches between a library summary and the reference."""
    bad = [
        f"{key}: got {summary[key]!r}, reference {ref[key]!r}"
        for key in ("base_fields", "orbits", "ext_fields", "class_orders",
                    "eta_order", "bundles", "fusion_ok")
        if summary[key] != ref[key]
    ]
    if not summary["modular_deviation"] <= MODULAR_TOL:
        bad.append(f"check_modular deviation {summary['modular_deviation']:.3e}"
                   f" over {MODULAR_TOL}")
    if not summary["eta_deviation"] <= ETA_DEVIATION_TOL:
        bad.append(f"eta deviation {summary['eta_deviation']:.3e}"
                   f" over {ETA_DEVIATION_TOL}")
    return bad


def check_cli(summary: dict, ref: dict, first_digest=None) -> list:
    """Mismatches between a CLI summary and the reference; `first_digest`
    is the output digest of the process's first pass."""
    bad = []
    if summary["exit_codes"] != [0, 0, 0, 0]:
        bad.append(f"exit codes {summary['exit_codes']}")
    for key in ("base_fields", "orbits", "ext_fields", "class_orders",
                "fusion_ok"):
        if summary[key] != ref[key]:
            bad.append(f"{key}: got {summary[key]!r}, reference {ref[key]!r}")
    ref_bundles = _canonical(
        {"dim": b["dim"], "eta": b["eta"]} for b in ref["bundles"]
    )
    if summary["bundles"] != ref_bundles:
        bad.append(f"bundles: got {summary['bundles']!r}, reference {ref_bundles!r}")
    ref_checks = _canonical(b["checks"] for b in ref["bundles"])
    for key in ("checks", "validate_checks"):
        if summary[key] != ref_checks:
            bad.append(f"{key}: got {summary[key]!r}, reference {ref_checks!r}")
    if first_digest is not None and summary["digest"] != first_digest:
        bad.append("outputs differ from the first pass of this process")
    return bad


def failed_checks(conditions: dict) -> int:
    """Number of failed checks in a condition report."""
    return sum(
        not c["ok"]
        for b in conditions["bundles"].values()
        for c in b["checks"].values()
    )


def load_reference(name: str) -> dict:
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "reference", f"{name}.json")
    return _read(path)
