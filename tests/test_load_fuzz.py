"""A seeded fuzzer of the load boundary: mutated input documents make every
command exit 0, 1, 2 or 3, and never raise out of `cli.main`.

The documents are those of the chain `generate su2 --k 4` -> `tensor` ->
`extend --by "[4, 4]"`: the atomic document, the product, `extended.json`
and its bundle; and of the chain su2_2^4 -> `extend --by "[2, 2, 0, 0]"`:
its `extended.json` and a bundle of a current that fixes no field, whose
arrays are empty. Each case replaces, deletes or duplicates one or two nodes
of one document, with odd JSON values or bad `{file, sha256}` references,
writes it beside the original (so its .npy references resolve) and runs
the commands that read that document, in-process. The seed and the number
of cases are fixed, so a failure reproduces.
"""
import contextlib
import copy
import hashlib
import io
import json
import math
import os
import random

from fpres.cli import main

SEED = 0
CASES = 240
VALUES = [None, True, False, 2 ** 70, -0.0, 1e308, math.inf, math.nan,
          "1/0", "NaN", [], {}]


def _chain(tmp):
    run = lambda *argv: main([str(a) for a in argv])  # noqa: E731
    assert run("generate", "su2", "--k", "4", "--out", tmp / "a.json") == 0
    assert run("tensor", tmp / "a.json", tmp / "a.json",
               "--out", tmp / "p.json") == 0
    assert run("extend", tmp / "p.json", "--by", "[4, 4]",
               "--out", tmp / "ext") == 0
    bundles = sorted((tmp / "ext").glob("bundle_*.json"))
    assert len(bundles) == 1
    return bundles[0]


def _su2_2_chain(tmp):
    """The su2_2^4 chain in `tmp`: its extended.json, every bundle it
    wrote, and the first bundle with no fields."""
    run = lambda *argv: main([str(a) for a in argv])  # noqa: E731
    assert run("generate", "su2", "--k", "2", "--out", tmp / "a.json") == 0
    assert run("tensor", *[tmp / "a.json"] * 4, "--out", tmp / "p.json") == 0
    # exit 1 on the {5c} flags of the half-integer-spin currents
    assert run("extend", tmp / "p.json", "--by", "[2, 2, 0, 0]",
               "--out", tmp / "ext") in (0, 1)
    bundles = sorted((tmp / "ext").glob("bundle_*.json"))
    empty = [p for p in bundles if not json.loads(p.read_text())["fields"]]
    return tmp / "ext" / "extended.json", bundles, empty[0]


def _references(directory, root):
    """Bad {file, sha256} references from a document in `directory` to the
    .npy files of the chain under `root`: each by its relative path, with
    its sha256 and with a wrong one (a name out of the directory or of
    another shape), a missing file, a file that is not an .npy, an
    absolute path, and wrong types."""
    npys = sorted(root.rglob("*.npy"))
    digest = lambda p: hashlib.sha256(p.read_bytes()).hexdigest()  # noqa: E731
    manifest = sorted(directory.glob("*manifest.json"))[0]
    refs = [{"file": "missing.npy", "sha256": "0" * 64},
            {"file": manifest.name, "sha256": digest(manifest)},
            {"file": str(npys[0]), "sha256": digest(npys[0])},
            {"file": 7, "sha256": None},
            {"file": npys[0].name},
            {"sha256": digest(npys[0])}]
    for p in npys:
        name = os.path.relpath(p, directory)
        refs += [{"file": name, "sha256": digest(p)},
                 {"file": name, "sha256": "f" * 64}]
    return refs


def _nodes(doc):
    """(container, key) of every node below the root of `doc`."""
    out, stack = [], [doc]
    while stack:
        obj = stack.pop()
        keys = (list(obj) if isinstance(obj, dict)
                else range(len(obj)) if isinstance(obj, list) else ())
        for k in keys:
            out.append((obj, k))
            stack.append(obj[k])
    return out


def _mutate(rng, doc, values):
    """Replace, delete or duplicate one node of `doc`; a duplicated object
    member is copied under a sibling key. Returns what was done."""
    nodes = _nodes(doc)
    if not nodes:
        return "nothing to mutate"
    obj, key = rng.choice(nodes)
    op = rng.choice(["replace", "delete", "duplicate"])
    if op == "replace":
        obj[key] = copy.deepcopy(rng.choice(values))
        return f"{key!r} := {obj[key]!r}"
    if op == "delete":
        del obj[key]
        return f"del {key!r}"
    if isinstance(obj, list):
        obj.insert(key, copy.deepcopy(obj[key]))
        return f"dup [{key}]"
    other = rng.choice(list(obj))
    obj[other] = copy.deepcopy(obj[key])
    return f"{other!r} := copy of {key!r}"


def test_mutated_inputs_never_raise_out_of_the_cli(tmp_path):
    bundle = _chain(tmp_path)
    (tmp_path / "su2_2").mkdir()
    ext4, bundles4, empty = _su2_2_chain(tmp_path / "su2_2")
    by4 = "[[0, 0, 2, 2], []]"
    ext = tmp_path / "ext" / "extended.json"
    out = tmp_path / "out"
    # each document, and the commands to run on its mutated copy M
    targets = {
        "atomic": (tmp_path / "a.json", [
            ["validate", "M"], ["currents", "M"], ["fusion", "M"],
            ["tensor", "M", "M", "--out", out / "t.json"],
            ["extend", "M", "--by", "4", "--out", out / "e"]]),
        "product": (tmp_path / "p.json", [
            ["validate", "M"], ["currents", "M"], ["fusion", "M"],
            ["tensor", "M", tmp_path / "a.json", "--out", out / "t.json"],
            ["extend", "M", "--by", "[4, 4]", "--out", out / "e"]]),
        "extended": (ext, [
            ["validate", "M"], ["validate", "M", "--bundles", bundle],
            ["currents", "M"], ["fusion", "M"],
            ["tensor", "M", "--out", out / "t.json"],
            ["extend", "M", "--by", "2", "--out", out / "e"],
            ["extend", "M", "--by", "2", "--bundles", bundle,
             "--out", out / "e"]]),
        "bundle": (bundle, [
            ["validate", ext, "--bundles", "M"],
            ["extend", ext, "--by", "2", "--bundles", "M",
             "--out", out / "e"]]),
        "su2_2^4 extended": (ext4, [
            ["validate", "M", "--bundles", *bundles4],
            ["extend", "M", "--by", by4, "--bundles", *bundles4,
             "--out", out / "e"]]),
        "empty bundle": (empty, [
            ["validate", ext4, "--bundles", "M"],
            ["extend", ext4, "--by", by4, "--bundles", "M",
             "--out", out / "e"]]),
    }
    clean = {name: json.loads(path.read_text())
             for name, (path, _) in targets.items()}
    values = {name: VALUES + _references(path.parent, tmp_path)
              for name, (path, _) in targets.items()}
    rng = random.Random(SEED)
    failures, codes = [], {}
    for case in range(CASES):
        name = rng.choice(sorted(targets))
        path, commands = targets[name]
        doc = copy.deepcopy(clean[name])
        done = [_mutate(rng, doc, values[name])
                for _ in range(rng.randint(1, 2))]
        mutated = path.with_name("fuzz.json")
        mutated.write_text(json.dumps(doc))
        for command in commands:
            argv = [str(mutated) if a == "M" else str(a) for a in command]
            try:
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    rc = main(argv)
            except Exception as exc:
                rc = f"raised {exc!r}"
            codes[rc] = codes.get(rc, 0) + 1
            if rc not in (0, 1, 2, 3):
                failures.append((case, name, done, command[0], rc))
    assert not failures, failures
    # the cases reach past the load boundary as well as stop at it
    assert codes.get(0) and codes.get(2), codes
