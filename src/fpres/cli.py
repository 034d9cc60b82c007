"""Batch command line interface with JSON I/O and run manifests.

Commands: generate, tensor, currents, extend, validate, fusion. Every
file-writing command also writes a manifest with input and output hashes
plus the convention settings, so a rerun can be checked byte for byte.
Exit codes: 0 success, 1 validation failure, 2 usage or input error,
3 resource limit (`modular.dense_budget`, `wzw.SUN_WEYL_LIMIT`), before any work.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys

from . import __version__
from .currents import Theory, bundle_array_document, load_bundle
from .errors import (
    InvalidInputError,
    ResourceLimitError,
)
from .extend import extend
from .modular import (_beside, _label_from_json, _label_to_json,
                      dump_json, fusion_tensor, load, save, save_beside,
                      tensor)
from .phases import norm1
from .validate import CHECK_TOL, check_fusion_integrality, condition_report
from .wzw import ising, su2, sun


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_json(doc: dict, path, npy=None) -> dict:
    """Write `doc` to `path`. `npy` maps a key of `doc` to the name of an
    .npy file beside `path` that the key's array goes to instead, the key
    then naming it (`modular.save_beside`). Returns {.npy path: sha256}."""
    written = {}
    # the document is opened first, so an unwritable path fails as itself
    with open(path, "w") as fh:
        for key, name in (npy or {}).items():
            doc[key], digests = save_beside(path, name, doc[key])
            written.update(digests)
        dump_json(doc, fh)
    return written


def _emit(doc: dict, args, inputs, npy=None) -> None:
    """Print `doc`, or write it to --out (`_write_json`, with `npy`)
    together with its manifest."""
    if args.out is None:
        dump_json(doc, sys.stdout)
    else:
        written = _write_json(doc, args.out, npy)
        _manifest(args, inputs, {args.out: None, **written}, args.out)


def _sources(path, md) -> dict:
    """The input `path` and the S files its document names, each with the
    sha256 that its load checked."""
    return {path: None, **{f.s_file: f.s_sha256
                           for f in md.atomic_factors() if f.s_file}}


def _bundle_sources(paths, bundles) -> dict:
    """The bundle inputs `paths`, then the matrix files their documents
    name, each with the sha256 that its load checked."""
    return {**dict.fromkeys(paths), **{b.matrix_file: b.matrix_sha256
                                       for b in bundles if b.matrix_file}}


def _manifest(args, inputs, outputs, anchor) -> None:
    """Write the manifest of a run. `inputs` and `outputs` map each path to
    its sha256, or to None for a file to hash here."""
    doc = {
        "format": "run-manifest v1",
        "tool": {"name": "fpres", "version": __version__},
        "command": [args.command] + args.manifest_args,
        "conventions": {
            "tolerance": getattr(args, "tolerance", None),
            "seed": getattr(args, "seed_conventions", None),
            "floats": "shortest round-trip decimal",
            "rationals": "p/q strings",
        },
        "inputs": {p: d or _sha256(p) for p, d in inputs.items()},
        "outputs": {p: d or _sha256(p) for p, d in outputs.items()},
    }
    if os.path.isdir(anchor):
        path = os.path.join(anchor, "manifest.json")
    else:
        path = anchor + ".manifest.json"
    _write_json(doc, path)


def _parse_current(md, token: str) -> int:
    try:
        return int(token)
    except ValueError:
        pass
    try:
        parsed = json.loads(token)
    except (json.JSONDecodeError, RecursionError):
        parsed = token
    return md.index(_label_from_json(parsed))


# --- commands -------------------------------------------------------------


def cmd_generate(args) -> int:
    cache = args.cache_dir or os.environ.get("FPRES_CACHE_DIR")
    if args.family == "su2":
        if args.k is None:
            raise InvalidInputError("su2 needs --k")
        md = su2(args.k)
    elif args.family == "suN":
        if args.n is None or args.k is None:
            raise InvalidInputError("suN needs --n and --k")
        if cache:
            source = "--cache-dir" if args.cache_dir else "FPRES_CACHE_DIR"
            try:
                os.makedirs(cache, exist_ok=True)
            except OSError as exc:
                raise InvalidInputError(f"{source} {cache}: {exc.strerror}")
        md = sun(args.n, args.k, cache_dir=cache)
    else:
        md = ising()
    written = save(md, args.out)
    _manifest(args, {}, {args.out: None, **written}, args.out)
    return 0


def cmd_tensor(args) -> int:
    loaded = {p: load(p) for p in dict.fromkeys(args.inputs)}
    written = save(tensor(*(loaded[p] for p in args.inputs)), args.out)
    inputs = {}
    for p, md in loaded.items():
        inputs.update(_sources(p, md))
    _manifest(args, inputs, {args.out: None, **written}, args.out)
    return 0


def cmd_currents(args) -> int:
    md = load(args.input)
    th = Theory(md)
    doc = {
        "format": "current-report v1",
        "name": md.name,
        "center_orders": list(th.center.orders),
        "currents": [
            {
                "id": j,
                "label": _label_to_json(md.labels[j]),
                "h": str(md.h[j]),
                "order": th.center.order_of(j),
                "integer_spin": norm1(md.h[j]) == 0,
            }
            for j in th.center.elements
        ],
    }
    _emit(doc, args, _sources(args.input, md))
    return 0


def cmd_extend(args) -> int:
    md = load(args.input)
    extra = [load_bundle(md, p) for p in args.bundles]
    th = Theory(md, extra_bundles=extra)
    gens = [_parse_current(md, g) for g in args.by]
    ex = extend(th, gens, convention_seed=args.seed_conventions)

    os.makedirs(args.out, exist_ok=True)
    ext_path = os.path.join(args.out, "extended.json")
    outputs = {ext_path: None, **save(ex.ext_md, ext_path)}

    bundles = []
    for cls in ex.residual_classes():
        if cls.order == 1:
            continue
        res = ex.resolve(cls)
        bundles.append(res.bundle)
        j = res.bundle.current
        doc = bundle_array_document(ex.ext_md, res.bundle)
        doc["matrix"] = res.bundle.matrix  # to its .npy file as complex128
        path = os.path.join(args.out, f"bundle_{j}.json")
        outputs[path] = None
        outputs.update(_write_json(doc, path, {"matrix": f"matrix_{j}.npy"}))

    th2 = ex.extended_theory(extra_bundles=bundles)
    conditions = condition_report(th2, tol=args.tolerance)
    fus = check_fusion_integrality(ex.ext_md)
    report = {
        "format": "extension-report v1",
        "extension": ex.report(),
        "conditions": conditions,
        "fusion": fus,
    }
    report_path = os.path.join(args.out, "report.json")
    _write_json(report, report_path)
    outputs[report_path] = None
    inputs = {**_sources(args.input, md),
              **_bundle_sources(args.bundles, extra)}
    _manifest(args, inputs, outputs, args.out)
    return 0 if conditions["ok"] and fus["ok"] else 1


def cmd_validate(args) -> int:
    md = load(args.input)
    extra = [load_bundle(md, p) for p in args.bundles]
    th = Theory(md, extra_bundles=extra)
    currents = [b.current for b in extra] or None
    doc = condition_report(th, currents=currents, tol=args.tolerance)
    _emit(doc, args, {**_sources(args.input, md),
                      **_bundle_sources(args.bundles, extra)})
    return 0 if doc["ok"] else 1


def cmd_fusion(args) -> int:
    md = load(args.input)
    doc = {
        "format": "fusion-table v1",
        "name": md.name,
        "fields": [_label_to_json(lab) for lab in md.labels],
        "tables": fusion_tensor(md),
    }
    npy = args.out and {"tables": _beside(args.out, ".tables.npy")[0]}
    _emit(doc, args, _sources(args.input, md), npy)
    return 0


# --- argument parsing -----------------------------------------------------


def _tolerance(text: str) -> float:
    """--tolerance of the condition checks: a finite number > 0."""
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(
            f"must be a finite number > 0, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="fpres",
        description="simple-current extensions and fixed-point resolution",
    )
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write modular data for a family")
    p.add_argument("family", choices=["su2", "suN", "ising"])
    p.add_argument("--N", "--n", dest="n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--cache-dir")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("tensor", help="tensor several modular data files")
    p.add_argument("inputs", nargs="+")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_tensor)

    p = sub.add_parser("currents", help="list the simple currents")
    p.add_argument("input")
    p.add_argument("--out")
    p.set_defaults(func=cmd_currents)

    p = sub.add_parser("extend", help="extend by currents and resolve")
    p.add_argument("input")
    p.add_argument("--by", action="append", required=True,
                   help="generator: field id or exact label (repeatable)")
    p.add_argument("--bundles", nargs="*", default=[])
    p.add_argument("--tolerance", type=_tolerance, default=CHECK_TOL)
    p.add_argument("--seed-conventions", type=int)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_extend)

    p = sub.add_parser("validate", help="run the condition report")
    p.add_argument("input")
    p.add_argument("--bundles", nargs="*", default=[])
    p.add_argument("--tolerance", type=_tolerance, default=CHECK_TOL)
    p.add_argument("--out")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("fusion", help="full Verlinde fusion table")
    p.add_argument("input")
    p.add_argument("--out")
    p.set_defaults(func=cmd_fusion)
    return top


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    args.manifest_args = argv[1:]
    try:
        return args.func(args)
    except (InvalidInputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except ArithmeticError as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
