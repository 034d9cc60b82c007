"""End-to-end command line runs against small models."""
import hashlib
import io
import json
import math
import os
import pickle
import time
from fractions import Fraction

import numpy as np
import pytest

from fpres.cli import main
from fpres.extend import match_fields
from fpres.modular import complex_pairs, dump_json, fusion_tensor, load, save_npy


def run(capsys, *argv):
    rc = main(list(argv))
    return rc, capsys.readouterr().out


def _atomic(doc):
    """The atomic parts of a modular-data document as fpres writes it."""
    return doc["product"] if "product" in doc else [doc]


def _refs(doc):
    """(dict, key) of each .npy file reference in a document as fpres
    writes it: the "matrix" of a bundle, or each atomic part's "s_matrix"."""
    if doc.get("format") == "fp-bundle v1":
        return [(doc, "matrix")]
    return [(part, "s_matrix") for part in _atomic(doc)]


def _npy_file(path):
    """The .npy file that the first reference of the document at `path`
    names: the S of its first atomic part, or a bundle's matrix."""
    obj, key = _refs(json.loads(path.read_text()))[0]
    return path.parent / obj[key]["file"]


def _inline(path):
    """The document at `path` with each S or bundle matrix inline, as
    [re, im] pairs: the format fpres wrote before .npy files."""
    doc = json.loads(path.read_text())
    for obj, key in _refs(doc):
        obj[key] = complex_pairs(np.load(path.parent / obj[key]["file"])).tolist()
    return doc


def _with_s(ext, s, out):
    """Write the document of the extended.json at `ext` to `out`, with its
    S replaced by `s` in a new .npy file beside `out`."""
    doc = json.loads(ext.read_text())
    name = out.stem + ".s.npy"
    doc["s_matrix"] = {"file": name, "sha256": save_npy(out.parent / name, s)}
    out.write_text(json.dumps(doc))
    return out


def test_generate_su2(tmp_path, capsys):
    out = tmp_path / "su24.json"
    rc, _ = run(capsys, "generate", "su2", "--k", "4", "--out", str(out))
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["format"] == "modular-data v1"
    assert len(doc["fields"]) == 5
    manifest = json.loads((tmp_path / "su24.json.manifest.json").read_text())
    assert manifest["format"] == "run-manifest v1"
    assert str(out) in manifest["outputs"]


def test_generate_ising(tmp_path, capsys):
    out = tmp_path / "ising.json"
    rc, _ = run(capsys, "generate", "ising", "--out", str(out))
    assert rc == 0
    assert len(json.loads(out.read_text())["fields"]) == 3


def _same_name(tmp_path, name):
    """`name` in two new directories of `tmp_path`."""
    paths = []
    for folder in ("one", "two"):
        (tmp_path / folder).mkdir()
        paths.append(tmp_path / folder / name)
    return paths


def _written(path):
    """The bytes of the modular-data document at `path` and of each S file
    beside it that it names, by file name."""
    names = {p["s_matrix"]["file"]
             for p in _atomic(json.loads(path.read_text()))}
    return {n: (path.parent / n).read_bytes() for n in names | {path.name}}


def test_generate_sun_uses_cache(tmp_path, capsys):
    cache = tmp_path / "cache"
    # one name in two directories, so that the S files have one name too
    out1, out2 = _same_name(tmp_path, "su42.json")
    rc, _ = run(capsys, "generate", "suN", "--N", "4", "--k", "2",
                "--cache-dir", str(cache), "--out", str(out1))
    assert rc == 0
    assert any(cache.iterdir())
    rc, _ = run(capsys, "generate", "suN", "--N", "4", "--k", "2",
                "--cache-dir", str(cache), "--out", str(out2))
    assert rc == 0
    assert _written(out1) == _written(out2)


def test_generate_sun_rejects_an_uncreatable_cache_dir(tmp_path, capsys,
                                                      monkeypatch):
    from fpres import wzw

    def forbidden(*args):
        raise AssertionError("the Weyl sum ran before the cache check")

    monkeypatch.setattr(wzw, "_sun_s_matrix", forbidden)
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = tmp_path / "out.json"
    rc = main(["generate", "suN", "--N", "3", "--k", "2",
               "--cache-dir", str(blocker / "x"), "--out", str(out)])
    assert rc == 2
    assert "--cache-dir" in capsys.readouterr().err
    assert not out.exists()


def test_generate_sun_names_an_unusable_cache_variable(tmp_path, capsys,
                                                       monkeypatch):
    blocker = tmp_path / "file"
    blocker.write_text("")
    monkeypatch.setenv("FPRES_CACHE_DIR", str(blocker / "x"))
    out = tmp_path / "out.json"
    rc = main(["generate", "suN", "--N", "3", "--k", "2", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "FPRES_CACHE_DIR" in err and "--cache-dir" not in err
    assert not out.exists()


def test_generate_sun_over_the_weyl_limit_exits_3(tmp_path, capsys):
    out = tmp_path / "out.json"
    t0 = time.perf_counter()
    rc = main(["generate", "suN", "--N", "12", "--k", "1", "--out", str(out)])
    assert time.perf_counter() - t0 < 1.0
    assert rc == 3
    assert "Weyl sum" in capsys.readouterr().err
    assert not out.exists()


def test_generate_su2_over_the_dense_budget_exits_3(tmp_path, capsys):
    # su2_6000 has 6,001 fields: its S would need 3.6e7 entries
    out = tmp_path / "out.json"
    t0 = time.perf_counter()
    rc = main(["generate", "su2", "--k", "6000", "--out", str(out)])
    assert time.perf_counter() - t0 < 1.0
    assert rc == 3
    assert "the S of su2_6000 would need 3.60e+07 entries" in \
        capsys.readouterr().err
    assert not out.exists()


def test_tensor_of_one_path_twice_matches_two_copies(tmp_path, capsys):
    # a repeated path is decoded once; the product is the same bytes
    one = tmp_path / "su24.json"
    copy = tmp_path / "copy.json"
    run(capsys, "generate", "su2", "--k", "4", "--out", str(one))
    copy.write_bytes(one.read_bytes())
    a, b = _same_name(tmp_path, "pair.json")
    run(capsys, "tensor", str(one), str(one), "--out", str(a))
    run(capsys, "tensor", str(one), str(copy), "--out", str(b))
    # one S file for the two equal parts
    assert sorted(_written(a)) == ["pair.json", "pair.s0.npy"]
    assert _written(a) == _written(b)


def test_generate_sun_rebuilds_an_empty_cache_file(tmp_path, capsys):
    cache = tmp_path / "cache"
    good, out = _same_name(tmp_path, "su32.json")
    rc, _ = run(capsys, "generate", "suN", "--N", "3", "--k", "2",
                "--cache-dir", str(cache), "--out", str(good))
    assert rc == 0
    (cache / "su3_2_s.npy").write_bytes(b"")
    rc, _ = run(capsys, "generate", "suN", "--N", "3", "--k", "2",
                "--cache-dir", str(cache), "--out", str(out))
    assert rc == 0
    assert _written(out) == _written(good)
    assert (cache / "su3_2_s.npy").stat().st_size > 0


def test_generate_missing_level(tmp_path, capsys):
    rc, _ = run(capsys, "generate", "su2", "--out", str(tmp_path / "x.json"))
    assert rc == 2


def test_tensor_and_currents(tmp_path, capsys):
    one = tmp_path / "i.json"
    run(capsys, "generate", "ising", "--out", str(one))
    prod = tmp_path / "ii.json"
    rc, _ = run(capsys, "tensor", str(one), str(one), "--out", str(prod))
    assert rc == 0
    assert len(json.loads(prod.read_text())["product"]) == 2

    rc, text = run(capsys, "currents", str(prod))
    assert rc == 0
    doc = json.loads(text)
    assert doc["format"] == "current-report v1"
    assert len(doc["currents"]) == 4
    spins = {tuple(c["label"]): c["integer_spin"] for c in doc["currents"]}
    assert spins[("psi", "psi")] is True
    assert spins[("1", "psi")] is False


def test_extend_pipeline_and_rerun_identical(tmp_path, capsys):
    src = tmp_path / "su24.json"
    run(capsys, "generate", "su2", "--k", "4", "--out", str(src))
    rc, _ = run(capsys, "extend", str(src), "--by", "4",
                "--out", str(tmp_path / "ext"))
    assert rc == 0
    ext = json.loads((tmp_path / "ext" / "extended.json").read_text())
    assert len(ext["fields"]) == 3
    report = json.loads((tmp_path / "ext" / "report.json").read_text())
    assert report["extension"]["extended_fields"] == 3
    assert report["conditions"]["ok"]
    assert report["fusion"]["ok"]

    rc, _ = run(capsys, "extend", str(src), "--by", "4",
                "--out", str(tmp_path / "ext2"))
    assert rc == 0
    for name in ("extended.json", "extended.s.npy"):
        first = (tmp_path / "ext" / name).read_bytes()
        again = (tmp_path / "ext2" / name).read_bytes()
        assert first == again, name


def test_extend_by_label_writes_resolved_bundles(tmp_path, capsys):
    one = tmp_path / "i.json"
    run(capsys, "generate", "ising", "--out", str(one))
    prod = tmp_path / "ii.json"
    run(capsys, "tensor", str(one), str(one), "--out", str(prod))
    rc, _ = run(capsys, "extend", str(prod), "--by", '["psi", "psi"]',
                "--out", str(tmp_path / "ext"))
    assert rc == 0
    report = json.loads((tmp_path / "ext" / "report.json").read_text())
    assert report["extension"]["extended_fields"] == 4


def test_a_second_extend_reads_every_bundle_the_first_wrote(tmp_path,
                                                            capsys):
    # su2_2^4 by (2, 2, 0, 0) writes a bundle for each surviving current,
    # those that fix no field among them; the first step exits 1 on the
    # {5c} flags of its half-integer-spin currents
    src, prod = tmp_path / "a.json", tmp_path / "p.json"
    run(capsys, "generate", "su2", "--k", "2", "--out", str(src))
    run(capsys, "tensor", *[str(src)] * 4, "--out", str(prod))
    rc, _ = run(capsys, "extend", str(prod), "--by", "[2,2,0,0]",
                "--out", str(tmp_path / "ext"))
    assert rc in (0, 1)
    ext = tmp_path / "ext" / "extended.json"
    bundles = sorted(str(p) for p in ext.parent.glob("bundle_*.json"))
    assert [json.loads(open(p).read())["fields"] for p in bundles].count(
        []) == 4
    rc, _ = run(capsys, "validate", str(ext), "--bundles", *bundles)
    assert rc in (0, 1)
    rc, _ = run(capsys, "extend", str(ext), "--by", "[[0,0,2,2],[]]",
                "--bundles", *bundles, "--out", str(tmp_path / "two"))
    assert rc in (0, 1)
    rc, _ = run(capsys, "extend", str(prod), "--by", "[2,2,0,0]",
                "--by", "[0,0,2,2]", "--out", str(tmp_path / "one"))
    assert rc in (0, 1)
    two = load(str(tmp_path / "two" / "extended.json"))
    one = load(str(tmp_path / "one" / "extended.json"))
    assert two.size == 16
    assert sorted(match_fields(two, one).tolist()) == list(range(16))


def test_extend_rejects_half_integer_current(tmp_path, capsys):
    src = tmp_path / "su22.json"
    run(capsys, "generate", "su2", "--k", "2", "--out", str(src))
    rc, _ = run(capsys, "extend", str(src), "--by", "2",
                "--out", str(tmp_path / "ext"))
    assert rc == 2


def test_validate_good_and_corrupted_bundle(tmp_path, capsys):
    src = tmp_path / "su24.json"
    run(capsys, "generate", "su2", "--k", "4", "--out", str(src))
    rc, text = run(capsys, "validate", str(src))
    assert rc == 0
    assert json.loads(text)["ok"]

    ext = tmp_path / "ext"
    run(capsys, "extend", str(src), "--by", "4", "--out", str(ext))
    # corrupt one entry of the extended S matrix and revalidate
    s = np.load(_npy_file(ext / "extended.json"))
    s[0, 0] += 0.1
    bad = _with_s(ext / "extended.json", s, tmp_path / "bad.json")
    rc, _ = run(capsys, "validate", str(bad))
    assert rc == 2  # a non-unitary S is refused at load


def test_validate_flags_half_integer_currents(tmp_path, capsys):
    one = tmp_path / "i.json"
    run(capsys, "generate", "ising", "--out", str(one))
    prod = tmp_path / "ii.json"
    run(capsys, "tensor", str(one), str(one), "--out", str(prod))
    rc, text = run(capsys, "validate", str(prod))
    assert rc == 1  # half-integer currents violate the conjugate eta rule
    doc = json.loads(text)
    failed = {
        j: [c for c, v in sub["checks"].items() if not v["ok"]]
        for j, sub in doc["bundles"].items()
    }
    assert failed == {"1": ["{5c}"], "3": ["{5c}"], "4": []}


def test_fusion_table(tmp_path, capsys):
    one = tmp_path / "i.json"
    run(capsys, "generate", "ising", "--out", str(one))
    rc, text = run(capsys, "fusion", str(one))
    assert rc == 0
    doc = json.loads(text)
    assert doc["format"] == "fusion-table v1"
    assert len(doc["tables"]) == 3
    assert doc["tables"][0] == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    # sigma x sigma = 1 + psi
    assert doc["tables"][2][2] == [1, 1, 0]


def test_fusion_respects_field_cap(tmp_path, capsys):
    # su2_6^3 has 343 fields: its fusion tensor, 4.0e7 entries, is over the
    # dense budget
    one = tmp_path / "su26.json"
    prod = tmp_path / "p.json"
    out = tmp_path / "fusion.json"
    run(capsys, "generate", "su2", "--k", "6", "--out", str(one))
    run(capsys, "tensor", str(one), str(one), str(one), "--out", str(prod))
    rc = main(["fusion", str(prod), "--out", str(out)])
    assert rc == 3
    assert "fusion tensor" in capsys.readouterr().err
    assert not out.exists()


def test_extension_over_the_dense_budget_exits_3_before_writing(tmp_path,
                                                               capsys):
    # su2_4^7 by the diagonal current has 19,533 extended fields: its
    # extended S alone would need 3.8e8 entries
    one = tmp_path / "su24.json"
    prod = tmp_path / "p7.json"
    out = tmp_path / "out"
    run(capsys, "generate", "su2", "--k", "4", "--out", str(one))
    run(capsys, "tensor", *[str(one)] * 7, "--out", str(prod))
    t0 = time.perf_counter()
    rc = main(["extend", str(prod), "--by", "[4,4,4,4,4,4,4]",
               "--out", str(out)])
    assert time.perf_counter() - t0 < 1.0
    assert rc == 3
    err = capsys.readouterr().err
    assert "the extended S of su2_4 x" in err and "3.82e+08 entries" in err
    assert not out.exists()


def test_fusion_fails_on_a_nan_in_s(tmp_path, capsys):
    one = tmp_path / "su24.json"
    run(capsys, "generate", "su2", "--k", "4", "--out", str(one))
    doc = _inline(one)
    doc["s_matrix"][1][2][0] = float("nan")
    bad = tmp_path / "nan.json"
    bad.write_text(json.dumps(doc))
    rc, text = run(capsys, "fusion", str(bad))
    assert rc == 2  # refused at load; test_fusion_kernel covers the NaN scan
    assert text == ""


@pytest.mark.parametrize("command", [
    ["validate"], ["currents"], ["fusion"], ["extend", "--by", "4", "--out"],
    ["tensor", "--out"]])
def test_non_unitary_s_exits_2_at_load(tmp_path, capsys, command):
    # S stays symmetric, so only the unitarity check can refuse it
    one = tmp_path / "su24.json"
    run(capsys, "generate", "su2", "--k", "4", "--out", str(one))
    doc = _inline(one)
    doc["s_matrix"][1][2][0] += 1e-3
    doc["s_matrix"][2][1][0] += 1e-3
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    argv = command[:1] + [str(bad)] + command[1:]
    if argv[-1] == "--out":
        argv.append(str(tmp_path / "out"))
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 2
    assert "s_matrix of su2_4 is not unitary and symmetric" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name", [7, None, ["su2_4"]])
@pytest.mark.parametrize("command", [
    ["tensor", "BAD", "BAD", "--out", "OUT"], ["validate", "BAD"],
    ["extend", "BAD", "--by", "4", "--out", "OUT"]])
def test_a_name_that_is_not_a_string_exits_2_at_load(tmp_path, capsys,
                                                      command, name):
    src = tmp_path / "su24.json"
    run(capsys, "generate", "su2", "--k", "4", "--out", str(src))
    doc = json.loads(src.read_text())
    doc["name"] = name
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    paths = {"BAD": str(bad), "OUT": str(tmp_path / "out")}
    rc = main([paths.get(arg, arg) for arg in command])
    err = capsys.readouterr().err
    assert rc == 2
    assert f"name must be a string, not {name!r}" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("where", ["product", "part"])
def test_a_product_name_that_is_not_a_string_exits_2(tmp_path, capsys, where):
    src, pair = tmp_path / "su24.json", tmp_path / "pair.json"
    run(capsys, "generate", "su2", "--k", "4", "--out", str(src))
    run(capsys, "tensor", str(src), str(src), "--out", str(pair))
    doc = json.loads(pair.read_text())
    (doc if where == "product" else doc["product"][1])["name"] = 7
    pair.write_text(json.dumps(doc))
    rc = main(["validate", str(pair)])
    assert rc == 2
    assert "name must be a string, not 7" in capsys.readouterr().err


def test_json_nested_past_the_recursion_limit_exits_2(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text('{"a": ' + "[" * 100_000 + "]" * 100_000 + "}")
    rc = main(["validate", str(deep)])
    assert rc == 2
    assert f"{deep}: JSON nested too deeply" in capsys.readouterr().err


@pytest.mark.parametrize("where", ["field", "--by"])
def test_a_label_nested_800_lists_deep_exits_2(tmp_path, capsys, where):
    src = tmp_path / "su24.json"
    run(capsys, "generate", "su2", "--k", "4", "--out", str(src))
    label = 4
    for _ in range(800):
        label = [label]
    by = "4"
    if where == "field":
        doc = json.loads(src.read_text())
        doc["fields"][4]["label"] = label
        src.write_text(json.dumps(doc))
    else:
        by = json.dumps(label)
    rc = main(["extend", str(src), "--by", by, "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "label nested deeper than 100 lists" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_missing_input_is_usage_error(tmp_path, capsys):
    rc, _ = run(capsys, "validate", str(tmp_path / "nope.json"))
    assert rc == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as err:
        main(["--version"])
    assert err.value.code == 0


def test_non_square_s_document_is_usage_error(tmp_path, capsys):
    doc = {
        "format": "modular-data v1",
        "name": "bad",
        "central_charge": "1",
        "fields": [{"label": "a", "h": "0"}, {"label": "b", "h": "1/2"}],
        "s_matrix": [[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
                     [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]]],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    rc = main(["currents", str(path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "S matrix of bad is not square: shape (2, 3)" in err


def test_weights_past_int64_exit_2(tmp_path, capsys):
    # su2_4 with weights over the prime p = 2**61 - 1: their common
    # denominator 24 p, and 48 p beside su2_2, leaves the int64 range
    p = 2 ** 61 - 1
    src = tmp_path / "su24.json"
    run(capsys, "generate", "su2", "--k", "4", "--out", str(src))
    doc = json.loads(src.read_text())
    for a, field in enumerate(doc["fields"]):
        field["h"] = str(Fraction(field["h"]) + Fraction(a, p))
    odd = tmp_path / "odd.json"
    odd.write_text(json.dumps(doc))
    rc = main(["currents", str(odd)])
    err = capsys.readouterr().err
    assert rc == 2
    assert f"denominator {24 * p}" in err

    two = tmp_path / "su22.json"
    run(capsys, "generate", "su2", "--k", "2", "--out", str(two))
    rc = main(["tensor", str(odd), str(two), "--out", str(tmp_path / "x.json")])
    err = capsys.readouterr().err
    assert rc == 2
    assert f"denominator {48 * p}" in err
    assert not (tmp_path / "x.json").exists()


def test_eta_order_past_the_snap_limit_exit_2(tmp_path, capsys):
    # weights over 24 q fit int64, but the eta order 96 q reaches 2**50
    q = 2 * 10 ** 13 + 3
    src = tmp_path / "su24.json"
    run(capsys, "generate", "su2", "--k", "4", "--out", str(src))
    doc = json.loads(src.read_text())
    for a, field in enumerate(doc["fields"]):
        field["h"] = str(Fraction(field["h"]) + Fraction(a, q))
    odd = tmp_path / "odd.json"
    odd.write_text(json.dumps(doc))
    rc = main(["currents", str(odd)])
    err = capsys.readouterr().err
    assert rc == 2
    assert f"eta order {96 * q}" in err


SPOIL_FIRST_PAIR = {
    "string": lambda p: [str(p[0]), p[1]],
    "null": lambda p: [None, p[1]],
    "ragged rows": lambda p: p[:1],
}
RESIZE_PAIRS = {
    "three numbers": lambda p: p + [0.0],
    "one number": lambda p: p[:1],
}


def _corrupt(pairs, case):
    """A list of [re, im] pairs (eta), or of rows of them (a matrix), with
    one defect the loader must reject."""
    if isinstance(pairs[0][0], list):
        rows = pairs[1:]
        if case in RESIZE_PAIRS:
            rows = [_corrupt(r, case) for r in rows]
        return [_corrupt(pairs[0], case)] + rows
    if case in RESIZE_PAIRS:
        return [RESIZE_PAIRS[case](p) for p in pairs]
    return [SPOIL_FIRST_PAIR[case](pairs[0])] + pairs[1:]


LOADER_CASES = list(SPOIL_FIRST_PAIR) + list(RESIZE_PAIRS)


@pytest.fixture
def extended_run(tmp_path, capsys):
    src = tmp_path / "su24.json"
    pair = tmp_path / "pair.json"
    run(capsys, "generate", "su2", "--k", "4", "--out", str(src))
    run(capsys, "tensor", str(src), str(src), "--out", str(pair))
    rc, _ = run(capsys, "extend", str(pair), "--by", "[4, 4]",
                "--out", str(tmp_path / "ext"))
    assert rc == 0
    bundle = sorted((tmp_path / "ext").glob("bundle_*.json"))[0]
    return tmp_path / "ext" / "extended.json", bundle


@pytest.mark.parametrize("case", LOADER_CASES)
def test_bad_s_matrix_pairs_are_usage_errors(extended_run, tmp_path, capsys, case):
    ext, _ = extended_run
    doc = _inline(ext)
    doc["s_matrix"] = _corrupt(doc["s_matrix"], case)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    rc = main(["validate", str(bad)])
    assert rc == 2
    assert "document: s_matrix " in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "extend"])
@pytest.mark.parametrize("field", ["matrix", "eta"])
@pytest.mark.parametrize("case", LOADER_CASES)
def test_bad_bundle_pairs_are_usage_errors(extended_run, tmp_path, capsys,
                                           case, field, command):
    ext, bundle = extended_run
    doc = _inline(bundle)
    doc[field] = _corrupt(doc[field], case)
    bad = tmp_path / "bad_bundle.json"
    bad.write_text(json.dumps(doc))
    argv = [command, str(ext), "--bundles", str(bad)]
    if command == "extend":
        argv += ["--by", "0", "--out", str(tmp_path / "again")]
    rc = main(argv)
    assert rc == 2
    assert f"document: {field} " in capsys.readouterr().err


@pytest.mark.parametrize("field", ["s_matrix", "matrix", "eta"])
def test_empty_pairs_of_an_array_with_entries_are_usage_errors(
        extended_run, tmp_path, capsys, field):
    # [] reads as an array only for a bundle of no fields
    ext, bundle = extended_run
    doc = _inline(ext if field == "s_matrix" else bundle)
    assert len(doc["fields"]) > 0
    doc[field] = []
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    rc = main(["validate", str(bad)] if field == "s_matrix" else
              ["validate", str(ext), "--bundles", str(bad)])
    assert rc == 2
    assert f"document: {field} " in capsys.readouterr().err


# --- the extended S in extended.s.npy, beside extended.json ---------------


def _set_ref(ext, **ref):
    """Update the first .npy reference of the document at `ext` by `ref`;
    returns its key."""
    doc = json.loads(ext.read_text())
    obj, key = _refs(doc)[0]
    obj[key].update(ref)
    ext.write_text(json.dumps(doc))
    return key


def _npy_bytes(a):
    buf = io.BytesIO()
    np.save(buf, a)
    return buf.getvalue()


def _replace_s_bytes(ext, data):
    """Write `data` as the S file of `ext`, under the hash of `data`."""
    path = _npy_file(ext)
    path.write_bytes(data)
    _set_ref(ext, sha256=hashlib.sha256(data).hexdigest())
    return str(path)


def _truncated(ext):
    path = _npy_file(ext)
    path.write_bytes(path.read_bytes()[:-16])
    return str(path)


def _edited(ext):
    path = _npy_file(ext)
    raw = bytearray(path.read_bytes())
    raw[-1] ^= 1
    path.write_bytes(bytes(raw))
    return str(path)


def _missing(ext):
    path = _npy_file(ext)
    path.unlink()
    return str(path)


def _wrong_hash(ext):
    _set_ref(ext, sha256="0" * 64)
    return str(_npy_file(ext))


def _outside(ext):
    # an existing copy of the S file in the parent directory
    (ext.parent.parent / "x.npy").write_bytes(_npy_file(ext).read_bytes())
    _set_ref(ext, file="../x.npy")
    return "'../x.npy'"


def _not_bare(name):
    return lambda ext: _set_ref(ext, file=name) and repr(name)


def _absolute(ext):
    path = str(_npy_file(ext).resolve())
    _set_ref(ext, file=path)
    return repr(path)


def _recast(change):
    return lambda ext: _replace_s_bytes(
        ext, _npy_bytes(change(np.load(_npy_file(ext)))))


S_FILE_CASES = {
    "truncated": _truncated,
    "truncated under its hash": lambda ext: _replace_s_bytes(
        ext, _npy_file(ext).read_bytes()[:-16]),
    "edited": _edited,
    "a wrong sha256": _wrong_hash,
    "missing": _missing,
    "complex64": _recast(lambda s: s.astype(np.complex64)),
    "float64": _recast(lambda s: s.real),
    "one field short": _recast(lambda s: s[:-1, :-1]),
    "Fortran order": _recast(np.asfortranarray),
    "a pickle": lambda ext: _replace_s_bytes(
        ext, pickle.dumps(np.load(_npy_file(ext)))),
    "../x.npy": _outside,
    "..": _not_bare(".."),
    "a/b": _not_bare("a/b"),
    "absolute path": _absolute,
    "a number for a hash": lambda ext: _set_ref(ext, sha256=5),
}


def _validate_exits_2_naming(path, capsys, case):
    named = S_FILE_CASES[case](path)
    rc = main(["validate", str(path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and named in err


@pytest.mark.parametrize("case", list(S_FILE_CASES))
def test_a_bad_s_file_exits_2_naming_it(extended_run, capsys, case):
    _validate_exits_2_naming(extended_run[0], capsys, case)


@pytest.mark.parametrize("case", list(S_FILE_CASES))
def test_a_bad_s_file_of_a_product_part_exits_2_naming_it(extended_run,
                                                          tmp_path, capsys,
                                                          case):
    # the pair's two parts share one file; a copy in a folder of its own
    # keeps "../x.npy" inside tmp_path
    path = tmp_path / "product" / "pair.json"
    path.parent.mkdir()
    for name in ("pair.json", "pair.s0.npy"):
        (path.parent / name).write_bytes((tmp_path / name).read_bytes())
    _validate_exits_2_naming(path, capsys, case)


@pytest.mark.parametrize("command", ["validate", "extend"])
@pytest.mark.parametrize("case", list(S_FILE_CASES))
def test_a_bad_bundle_matrix_file_exits_2_naming_it(extended_run, tmp_path,
                                                    capsys, case, command):
    ext, bundle = extended_run
    named = S_FILE_CASES[case](bundle)
    argv = [command, str(ext), "--bundles", str(bundle)]
    if command == "extend":
        argv += ["--by", "0", "--out", str(tmp_path / "again")]
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and named in err


def test_an_inline_bundle_validates_as_its_matrix_file(extended_run, tmp_path,
                                                       capsys):
    """A bundle in the format written before bundle matrix files."""
    ext, bundle = extended_run
    matrix = _npy_file(bundle)
    inline = tmp_path / "inline_bundle.json"
    inline.write_text(json.dumps(_inline(bundle)))
    reports = []
    for b in (bundle, inline):
        out = tmp_path / f"{b.stem}.report.json"
        assert main(["validate", str(ext), "--bundles", str(b),
                     "--out", str(out)]) == 0
        reports.append(out.read_bytes())
        inputs = json.loads((tmp_path / f"{out.name}.manifest.json")
                            .read_text())["inputs"]
        # the manifest lists the matrix file with the sha256 of its load
        assert inputs.get(str(matrix)) == (_sha(matrix) if b == bundle
                                           else None)
    assert reports[0] == reports[1]


def test_validate_reads_an_inline_s_as_the_s_file(extended_run, tmp_path,
                                                 capsys):
    ext, _ = extended_run
    inline = tmp_path / "inline.json"
    inline.write_text(json.dumps(_inline(ext)))
    bundles = sorted(str(p) for p in ext.parent.glob("bundle_*.json"))
    reports = []
    for src in (ext, inline):
        out = tmp_path / f"{src.stem}.report.json"
        assert main(["validate", str(src), "--bundles", *bundles,
                     "--out", str(out)]) == 0
        reports.append(out.read_bytes())
        inputs = json.loads((tmp_path / f"{out.name}.manifest.json")
                            .read_text())["inputs"]
        # the manifest hashes the S file of the sidecar form
        assert (str(_npy_file(ext)) in inputs) == (src == ext)
    assert reports[0] == reports[1]


def test_extend_reads_an_extended_json(tmp_path, capsys):
    """Two steps over su(3)_1^4, pointed, so no fixed points: by the spin-1
    current (a, a, a, 0), then by the spin-1 current (0, a, abar, a) of the
    extension, which leaves one field."""
    one, four = tmp_path / "su31.json", tmp_path / "four.json"
    run(capsys, "generate", "suN", "--N", "3", "--k", "1", "--out", str(one))
    run(capsys, "tensor", *[str(one)] * 4, "--out", str(four))
    rc, _ = run(capsys, "extend", str(four), "--by",
                "[[1, 0], [1, 0], [1, 0], [0, 0]]", "--out",
                str(tmp_path / "first"))
    assert rc == 0
    ext = tmp_path / "first" / "extended.json"
    again = tmp_path / "again"
    rc = main(["extend", str(ext), "--by",
               "[[[0, 0], [1, 0], [0, 1], [1, 0]], []]", "--out", str(again)])
    assert rc == 0, capsys.readouterr().err
    report = json.loads((again / "report.json").read_text())["extension"]
    assert (report["base_fields"], report["extended_fields"]) == (9, 1)
    manifest = json.loads((again / "manifest.json").read_text())
    assert str(_npy_file(ext)) in manifest["inputs"]
    s_out = again / "extended.s.npy"
    assert manifest["outputs"][str(s_out)] == hashlib.sha256(
        s_out.read_bytes()).hexdigest()


@pytest.mark.parametrize("form", ["inline", "file"])
def test_a_vacuum_entry_that_is_not_positive_exits_2(extended_run, tmp_path,
                                                     capsys, form):
    # -S is unitary and symmetric, with S_00 < 0
    ext, _ = extended_run
    bad = tmp_path / "neg.json"
    s = np.load(_npy_file(ext))
    if form == "inline":
        doc = _inline(ext)
        doc["s_matrix"] = complex_pairs(-s).tolist()
        bad.write_text(json.dumps(doc))
    else:
        _with_s(ext, -s, bad)
    rc = main(["validate", str(bad)])
    err = capsys.readouterr().err
    assert rc == 2
    name = json.loads(ext.read_text())["name"]
    assert f"s_matrix of {name}: the vacuum entry" in err


def _sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_manifests_list_the_s_files(tmp_path, capsys, monkeypatch):
    # an S file's digest comes from its save or its load, not a new read
    from fpres import cli
    hashed_here = []
    sha256 = cli._sha256
    monkeypatch.setattr(cli, "_sha256",
                        lambda path: hashed_here.append(path) or sha256(path))
    su24, ising = tmp_path / "su24.json", tmp_path / "ising.json"
    pair = tmp_path / "pair.json"
    run(capsys, "generate", "su2", "--k", "4", "--out", str(su24))
    run(capsys, "generate", "ising", "--out", str(ising))
    rc, _ = run(capsys, "tensor", str(su24), str(ising), "--out", str(pair))
    assert rc == 0
    rc, _ = run(capsys, "currents", str(pair), "--out",
                str(tmp_path / "currents.json"))
    assert rc == 0

    def manifest(name):
        return json.loads((tmp_path / f"{name}.manifest.json").read_text())

    def hashed(*names):
        return {str(tmp_path / n): _sha(tmp_path / n) for n in names}

    assert manifest("su24.json")["outputs"] == hashed("su24.json",
                                                      "su24.s.npy")
    assert manifest("pair.json")["inputs"] == hashed(
        "su24.json", "su24.s.npy", "ising.json", "ising.s.npy")
    assert manifest("pair.json")["outputs"] == hashed(
        "pair.json", "pair.s0.npy", "pair.s1.npy")
    assert manifest("currents.json")["inputs"] == hashed(
        "pair.json", "pair.s0.npy", "pair.s1.npy")
    assert hashed_here and not [p for p in hashed_here if p.endswith(".npy")]


def test_a_product_reads_its_shared_s_file_once(tmp_path, capsys,
                                                monkeypatch):
    # both parts of the su(5)_5 pair name product.s0.npy
    from fpres import currents, modular
    factor, product = tmp_path / "factor.json", tmp_path / "product.json"
    out = tmp_path / "ext"
    run(capsys, "generate", "suN", "--N", "5", "--k", "5", "--out", str(factor))
    rc, _ = run(capsys, "tensor", str(factor), str(factor), "--out",
                str(product))
    assert rc == 0
    s_file = str(tmp_path / "product.s0.npy")
    assert [p["s_matrix"]["file"] for p in
            json.loads(product.read_text())["product"]] == [
        "product.s0.npy"] * 2
    reads = []
    load_npy = modular.load_npy
    monkeypatch.setattr(modular, "load_npy", lambda path, *args: (
        reads.append(path) or load_npy(path, *args)))
    md = modular.load(str(product))
    assert reads == [s_file]
    # one ModularData for both parts, so every su(5)_5 current is
    # row-matched once and the extension builds one factor Theory
    assert md.factors[0] is md.factors[1]
    matched = []
    match_rows = currents._match_rows
    monkeypatch.setattr(currents, "_match_rows", lambda f, j: (
        matched.append(j) or match_rows(f, j)))
    currents.Theory(md)
    assert len(matched) == 5
    factor_theories = set()
    factor_theory = currents.Theory._factor_theory
    monkeypatch.setattr(currents.Theory, "_factor_theory", lambda th, f: (
        factor_theories.add(factor_theory(th, f)) or factor_theory(th, f)))
    reads.clear()
    rc, _ = run(capsys, "extend", str(product), "--by",
                "[[5, 0, 0, 0], [5, 0, 0, 0]]", "--out", str(out))
    assert rc == 0 and reads == [s_file] and len(factor_theories) == 1
    inputs = json.loads((out / "manifest.json").read_text())["inputs"]
    assert inputs == {str(product): _sha(product),
                      s_file: _sha(tmp_path / "product.s0.npy")}


def _chain(folder, capsys):
    """generate, tensor, extend, validate and fusion --out in `folder`."""
    one, pair, ext = folder / "su24.json", folder / "pair.json", folder / "ext"
    folder.mkdir(exist_ok=True)
    assert main(["generate", "su2", "--k", "4", "--out", str(one)]) == 0
    assert main(["tensor", str(one), str(one), "--out", str(pair)]) == 0
    assert main(["extend", str(pair), "--by", "[4, 4]", "--out", str(ext)]) == 0
    bundles = sorted(str(p) for p in ext.glob("bundle_*.json"))
    assert bundles
    assert main(["validate", str(ext / "extended.json"), "--bundles", *bundles,
                 "--out", str(folder / "validate.json")]) == 0
    assert main(["fusion", str(pair), "--out", str(folder / "fusion.json")]) == 0
    capsys.readouterr()
    return {str(p.relative_to(folder)): p.read_bytes()
            for p in sorted(folder.rglob("*")) if p.is_file()}


def test_the_chain_reruns_byte_identical(tmp_path, capsys):
    first = _chain(tmp_path / "run", capsys)
    assert {"su24.s.npy", "pair.s0.npy", "ext/extended.s.npy",
            "ext/matrix_2.npy", "fusion.tables.npy"} < set(first)
    # readers that glob "bundle_*" find bundle documents only
    assert all(name.endswith(".json") for name in first
               if os.path.basename(name).startswith("bundle_"))
    assert _chain(tmp_path / "run", capsys) == first


def test_no_written_document_holds_an_inline_s(tmp_path, capsys):
    """Nor an inline bundle matrix or fusion table: each names its .npy
    file with the sha256 of the file's bytes."""
    def arrays(obj):
        """Every value under an array key of the formats, in `obj`."""
        if isinstance(obj, dict):
            for k, v in obj.items():
                if k in ("s_matrix", "matrix", "tables"):
                    yield v
                else:
                    yield from arrays(v)
        elif isinstance(obj, list):
            for v in obj:
                yield from arrays(v)

    written = _chain(tmp_path, capsys)
    refs = {}
    for name, text in written.items():
        if name.endswith(".json"):
            for ref in arrays(json.loads(text)):
                assert set(ref) == {"file", "sha256"}, name
                refs[os.path.join(os.path.dirname(name), ref["file"])] = (
                    ref["sha256"])
    npy = [name for name in written if not name.endswith(".json")]
    assert len(npy) == 5 and sorted(refs) == sorted(npy)
    for name, digest in refs.items():
        assert hashlib.sha256(written[name]).hexdigest() == digest


def test_extend_writes_each_document_once_through_a_writer(tmp_path, capsys,
                                                          monkeypatch):
    """Each JSON file of `extend` comes from one `modular.save` or
    `cli._write_json` call, where perfbench counts the files written."""
    from fpres import cli
    src, pair, out = (tmp_path / name for name in ("su24.json", "pair.json",
                                                    "ext"))
    run(capsys, "generate", "su2", "--k", "4", "--out", str(src))
    run(capsys, "tensor", str(src), str(src), "--out", str(pair))
    paths = []
    for name in ("save", "_write_json"):
        monkeypatch.setattr(cli, name, lambda doc, path, *rest, fn=getattr(
            cli, name): paths.append(str(path)) or fn(doc, path, *rest))
    rc, _ = run(capsys, "extend", str(pair), "--by", "[4, 4]",
                "--out", str(out))
    assert rc == 0
    assert sorted(paths) == sorted(str(p) for p in out.glob("*.json"))
    assert len(list(out.glob("bundle_*.json"))) == len(
        list(out.glob("matrix_*.npy"))) > 0


def test_fusion_out_writes_the_table_as_an_npy_file(tmp_path, capsys,
                                                   monkeypatch):
    # the manifest takes the table's sha256 from the writer, not a new read
    from fpres import cli
    hashed_here = []
    sha256 = cli._sha256
    monkeypatch.setattr(cli, "_sha256",
                        lambda path: hashed_here.append(path) or sha256(path))
    src, out = tmp_path / "su24.json", tmp_path / "fusion.json"
    run(capsys, "generate", "su2", "--k", "4", "--out", str(src))
    hashed_here.clear()
    rc, text = run(capsys, "fusion", str(src), "--out", str(out))
    assert rc == 0 and text == ""
    npy = tmp_path / "fusion.tables.npy"
    assert json.loads(out.read_text())["tables"] == {
        "file": npy.name, "sha256": _sha(npy)}
    want = fusion_tensor(load(src))
    got = np.load(npy)
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()
    manifest = json.loads((tmp_path / "fusion.json.manifest.json").read_text())
    assert manifest["outputs"] == {str(out): _sha(out), str(npy): _sha(npy)}
    assert hashed_here and str(npy) not in hashed_here
    # without --out the table is printed inline
    rc, text = run(capsys, "fusion", str(src))
    assert rc == 0 and json.loads(text)["tables"] == want.tolist()


@pytest.mark.parametrize("command", ["generate", "tensor"])
def test_an_inline_input_extends_as_its_s_files(extended_run, tmp_path,
                                                capsys, command):
    """A document in the format written before S files: each output of
    extend and of validate has the bytes of the S file form's."""
    src, by = {"generate": ("su24.json", "4"),
               "tensor": ("pair.json", "[4, 4]")}[command]
    old = tmp_path / "old"
    old.mkdir()
    with open(old / src, "w") as fh:
        dump_json(_inline(tmp_path / src), fh)
    outputs = []
    for folder in (tmp_path, old):
        ext = folder / "out"
        assert main(["extend", str(folder / src), "--by", by,
                     "--out", str(ext)]) == 0
        bundles = sorted(str(p) for p in ext.glob("bundle_*.json"))
        assert main(["validate", str(ext / "extended.json"), "--bundles",
                     *bundles, "--out", str(ext / "validate.json")]) == 0
        outputs.append({p.name: p.read_bytes() for p in sorted(ext.iterdir())
                        if "manifest" not in p.name})
    assert {"extended.json", "extended.s.npy", "report.json",
            "validate.json"} <= set(outputs[0])
    assert outputs[0] == outputs[1]


# --- --tolerance sets only the condition checks ---------------------------


@pytest.mark.parametrize("command", ["extend", "validate"])
@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
def test_tolerance_must_be_finite_and_positive(tmp_path, capsys, command,
                                               value):
    src = tmp_path / "su24.json"
    run(capsys, "generate", "su2", "--k", "4", "--out", str(src))
    argv = [command, str(src), "--tolerance", value]
    if command == "extend":
        argv += ["--by", "4", "--out", str(tmp_path / "ext")]
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert "--tolerance" in capsys.readouterr().err
    assert not (tmp_path / "ext").exists()


def test_currents_takes_no_tolerance(tmp_path, capsys):
    src = tmp_path / "su24.json"
    run(capsys, "generate", "su2", "--k", "4", "--out", str(src))
    with pytest.raises(SystemExit) as err:
        main(["currents", str(src), "--tolerance", "1e-6"])
    assert err.value.code == 2


def test_a_loose_tolerance_leaves_the_extension_unchanged(extended_run,
                                                          tmp_path, capsys):
    """--tolerance 0.5 would have detected every su2_4 x su2_4 field as a
    current; it now sets the condition checks and nothing else."""
    default = extended_run[0].parent
    loose = tmp_path / "loose"
    rc, _ = run(capsys, "extend", str(tmp_path / "pair.json"), "--by",
                "[4, 4]", "--tolerance", "0.5", "--out", str(loose))
    assert rc == 0
    written = sorted(p.name for p in default.glob("*.json")
                     if p.name not in ("report.json", "manifest.json"))
    assert "extended.json" in written and len(written) > 1
    for name in written:
        assert (loose / name).read_bytes() == (default / name).read_bytes()
    report = json.loads((loose / "report.json").read_text())
    assert report["conditions"]["tolerance"] == 0.5


def _su2_4_document(tmp_path, capsys):
    src = tmp_path / "su24.json"
    run(capsys, "generate", "su2", "--k", "4", "--out", str(src))
    return src, json.loads(src.read_text())


def _write(path, doc):
    path.write_text(json.dumps(doc))
    return path


def _not_utf8(tmp_path, src, doc):
    bad = tmp_path / "latin.json"
    bad.write_bytes(b"\xff\xfe" + json.dumps(doc).encode())
    return [str(bad)], str(bad)


def _array_input(tmp_path, src, doc):
    return [str(_write(tmp_path / "array.json", [1, 2]))], "array.json"


def _array_bundle(tmp_path, src, doc):
    bad = _write(tmp_path / "array_bundle.json", [1, 2])
    return [str(src), "--bundles", str(bad)], "array_bundle.json"


def _product_number(tmp_path, src, doc):
    bad = {"format": "modular-data v1", "name": "p", "product": 5}
    return [str(_write(tmp_path / "p.json", bad))], "product"


def _product_of_numbers(tmp_path, src, doc):
    bad = {"format": "modular-data v1", "name": "p", "product": [5]}
    return [str(_write(tmp_path / "p.json", bad))], "product"


def _object_label(tmp_path, src, doc):
    doc["fields"][1]["label"] = {}
    return [str(_write(tmp_path / "label.json", doc))], "label {}"


def _directory_input(tmp_path, src, doc):
    folder = tmp_path / "folder.json"
    folder.mkdir()
    return [str(folder)], "folder.json"


def _zero_denominator(tmp_path, src, doc):
    doc["fields"][1]["h"] = "1/0"
    return [str(_write(tmp_path / "h.json", doc))], "h '1/0'"


def _infinite_weight(tmp_path, src, doc):
    doc["fields"][1]["h"] = math.inf  # written as Infinity
    return [str(_write(tmp_path / "h.json", doc))], "h inf"


def _not_a_number(tmp_path, src, doc):
    doc["central_charge"] = "2.5.1"
    return [str(_write(tmp_path / "c.json", doc))], "central_charge '2.5.1'"


def _through_a_file(tmp_path, src, doc):
    bad = src / "x.json"
    return [str(bad)], str(bad)


def _empty_file(tmp_path, src, doc):
    bad = tmp_path / "empty.json"
    bad.write_text("")
    return [str(bad)], "empty.json"


def _trailing_comma(tmp_path, src, doc):
    bad = tmp_path / "comma.json"
    bad.write_text("[1,]")
    return [str(bad)], "comma.json"


def _malformed_bundle(tmp_path, src, doc):
    bad = tmp_path / "bundle.json"
    bad.write_text('{"current": 1,')
    return [str(src), "--bundles", str(bad)], "bundle.json"


MALFORMED_INPUTS = {
    "not utf-8": _not_utf8,
    "array document": _array_input,
    "array bundle": _array_bundle,
    "product of a number": _product_number,
    "product of numbers": _product_of_numbers,
    "object label": _object_label,
    "directory": _directory_input,
    "zero denominator": _zero_denominator,
    "infinite weight": _infinite_weight,
    "central charge not a number": _not_a_number,
    "path through a file": _through_a_file,
    "empty file": _empty_file,
    "[1,]": _trailing_comma,
    "malformed bundle": _malformed_bundle,
}


@pytest.mark.parametrize("case", list(MALFORMED_INPUTS))
def test_malformed_input_exits_2_naming_it(tmp_path, capsys, case):
    src, doc = _su2_4_document(tmp_path, capsys)
    argv, named = MALFORMED_INPUTS[case](tmp_path, src, doc)
    rc = main(["validate", *argv])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and named in err


@pytest.mark.parametrize("command", ["generate", "tensor", "extend"])
def test_unwritable_out_path_exits_2_naming_it(tmp_path, capsys, command):
    src, _ = _su2_4_document(tmp_path, capsys)
    if command == "generate":  # a path through a regular file
        out = src / "x.json"
        argv = ["generate", "su2", "--k", "4", "--out", str(out)]
    elif command == "tensor":
        out = src / "x.json"
        argv = ["tensor", str(src), str(src), "--out", str(out)]
    else:  # an output directory that is a regular file
        out = src
        argv = ["extend", str(src), "--by", "4", "--out", str(out)]
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and str(out) in err
