"""The JSON writer, the reader behind `load` and `load_bundle` and the
vectorized [re, im] loader, against the encoders and the per-element path
they replace.

The oracle for every written document is `json.dump(native(doc), fh,
indent=1)` followed by a newline; the oracle for every loaded document is
`from_document(json.load(fh))` or `bundle_from_document(md, json.load(fh))`,
bit for bit, with a JSON syntax error raised as an `InvalidInputError` that
names the file, and for every loaded matrix `complex(re, im)` per pair.
"""
import glob
import hashlib
import io
import json
import math
import tempfile
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpres import modular
from fpres.cli import main
from fpres.currents import (
    FixedPointBundle,
    Theory,
    bundle_array_document,
    bundle_from_document,
    load_bundle,
)
from fpres.errors import InvalidInputError
from fpres.extend import extend
from fpres.modular import (
    ModularData,
    array_document,
    complex_array,
    dump_json,
    from_document,
    load,
    save,
    tensor,
)
from fpres.validate import check_fusion_integrality, condition_report
from fpres.wzw import ising, su2
from oracles import native


def oracle_text(doc) -> str:
    fh = io.StringIO()
    json.dump(native(doc), fh, indent=1)
    fh.write("\n")
    return fh.getvalue()


def written_text(doc) -> str:
    fh = io.StringIO()
    dump_json(doc, fh)
    return fh.getvalue()


def oracle_complex(rows):
    return np.array([[complex(re, im) for re, im in row] for row in rows])


def _su2x4_diagonal():
    md = tensor(su2(4), su2(4), su2(4), su2(4))
    return extend(Theory(md), [md.index((4, 4, 4, 4))])


def _su2_4_pair_run():
    md = tensor(su2(4), su2(4))
    ex = extend(Theory(md), [md.index((4, 4))])
    cls = next(c for c in ex.residual_classes() if c.order > 1)
    return ex, ex.resolve(cls).bundle


def _ising_pair_run():
    md = tensor(ising(), ising())
    ex = extend(Theory(md), [md.labels.index(("psi", "psi"))])
    cls = next(c for c in ex.residual_classes() if c.order > 1)
    return ex, ex.resolve(cls).bundle


def _empty_bundle_doc():
    ex, b = _ising_pair_run()
    return bundle_array_document(ex.ext_md, b)


def _bundle_docs():
    ex, b = _su2_4_pair_run()
    with_eta = bundle_array_document(ex.ext_md, b)
    without = dict(with_eta)
    del without["eta"]
    return [with_eta, without]


def _report():
    ex, b = _su2_4_pair_run()
    th2 = ex.extended_theory(extra_bundles=[b])
    return {
        "format": "extension-report v1",
        "extension": ex.report(),
        "conditions": condition_report(th2),
        "fusion": check_fusion_integrality(ex.ext_md),
    }


def _synthetic():
    special = np.array([-0.0, 5e-324, 1e16, 1e-7, math.nan, math.inf,
                        -math.inf, 0.0, -5e-324, 1e-5, 123456789012345678.0,
                        0.1, -2.5])
    return {
        "format": "synthetic",
        "label": "σ ⊗ éß",
        "fields": [{"label": ["é", 1, True, None], "h": "1/2"},
                   {"label": [], "h": "0"}],
        "empty": [[], {}, ""],
        "mixed": [1, 2.5, True, False, None, -0.0, math.inf, math.nan],
        "pairs": special.reshape(-1, 1) * np.ones((1, 2)),
        "cube": np.arange(-12.0, 12.0).reshape(2, 3, 2, 2) / 7.0,
        "flat": special,
        "nested": [np.array([[1.0, -0.0]]), {"deep": [np.ones((1, 1, 2))]}],
        "no rows": np.zeros((0, 2)),
        "empty rows": np.zeros((2, 0, 2)),
        "top": special[:4].reshape(2, 2),
        "int64 4-D": np.arange(-12, 12, dtype=np.int64).reshape(2, 3, 2, 2),
    }


def _int64_leaves():
    # 0, negatives and the int64 extremes, beside a float64 leaf
    ints = np.array([0, -1, 7, -(2 ** 63), 2 ** 63 - 1, 10 ** 18, -(10 ** 18),
                     0, 3, -1, 1, 2], dtype=np.int64)
    return {
        "format": "synthetic int64",
        "flat": ints,
        "grid": ints.reshape(3, 2, 2),
        "floats": np.array([1.0, -0.0]),
        "no rows": np.zeros((0, 3), dtype=np.int64),
        "one": np.zeros((1, 1, 1), dtype=np.int64),
    }


DOCUMENTS = {
    "su2_4": lambda: array_document(su2(4)),
    "ising": lambda: array_document(ising()),
    "su2_2 x ising": lambda: array_document(tensor(su2(2), ising())),
    "factorized product": lambda: array_document(tensor(su2(2), su2(5))),
    "su2_4^4 diagonal extension": lambda: array_document(_su2x4_diagonal().ext_md),
    "bundle with eta": lambda: _bundle_docs()[0],
    "bundle without eta": lambda: _bundle_docs()[1],
    "bundle on no fields": _empty_bundle_doc,
    "report": _report,
    "synthetic": _synthetic,
    "int64 leaves": _int64_leaves,
    "su2_4 fusion tensor": lambda: {"tables": modular.fusion_tensor(su2(4))},
    "top-level array": lambda: np.linspace(-1.0, 1.0, 12).reshape(3, 2, 2),
}


@pytest.mark.parametrize("name", list(DOCUMENTS))
def test_writer_matches_json_dump(name):
    doc = DOCUMENTS[name]()
    assert written_text(doc) == oracle_text(doc)


def test_writer_rejects_what_json_rejects():
    with pytest.raises(TypeError):
        written_text({"s": np.array([1 + 1j])})
    with pytest.raises(TypeError):
        written_text({"x": object()})


def test_native_documents_match_the_written_ones(tmp_path):
    md = tensor(su2(2), ising())
    assert native(array_document(md)) == json.loads(
        written_text(array_document(md)))
    ex, b = _su2_4_pair_run()
    with open(tmp_path / "b.json", "w") as fh:
        dump_json(bundle_array_document(ex.ext_md, b), fh)
    doc = json.loads((tmp_path / "b.json").read_text())
    assert doc == native(bundle_array_document(ex.ext_md, b))
    assert isinstance(doc["matrix"], list)


def test_loader_is_bitwise_the_per_element_path():
    md = _su2x4_diagonal().ext_md
    rows = native(array_document(md))["s_matrix"]
    rows[0][0] = [-0.0, -0.0]
    rows[0][1] = [0.0, -0.0]
    rows[1][0] = [1, True]
    rows[1][1] = [False, 5e-324]
    rows[2][2] = [-1e308, 2**62 + 1]
    new = complex_array(rows, "s_matrix")
    old = oracle_complex(rows)
    assert new.shape == old.shape
    assert np.array_equal(new.view(np.uint64), old.view(np.uint64))
    back = from_document(native(array_document(md)))
    assert np.array_equal(back.s.view(np.uint64), md.s.view(np.uint64))


def test_loader_accepts_integers_beyond_int64():
    rows = [[[10**30, 0], [1.5, -(10**20)]]]
    assert np.array_equal(complex_array(rows, "s_matrix").view(np.uint64),
                          oracle_complex(rows).view(np.uint64))


BAD_PAIRS = {
    "string": [[["1.0", 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
    "null": [[[None, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
    "ragged rows": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0]]],
    "three numbers": [[[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
                      [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]],
    "one number": [[[1.0], [0.0]], [[0.0], [1.0]]],
    "object": [[[{}, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
    "too large": [[[10**400, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
}


@pytest.mark.parametrize("case", list(BAD_PAIRS))
def test_loader_rejects_what_complex_rejected(case):
    with pytest.raises(InvalidInputError, match="s_matrix"):
        complex_array(BAD_PAIRS[case], "s_matrix")


def test_cli_files_are_json_fixed_points(tmp_path, capsys):
    src = tmp_path / "su24.json"
    pair = tmp_path / "pair.json"
    ext = tmp_path / "ext"
    report = tmp_path / "validate.json"
    assert main(["generate", "su2", "--k", "4", "--out", str(src)]) == 0
    assert main(["tensor", str(src), str(src), "--out", str(pair)]) == 0
    assert main(["extend", str(pair), "--by", "[4, 4]", "--out", str(ext)]) == 0
    bundles = sorted(glob.glob(str(ext / "bundle_*.json")))
    assert bundles
    assert main(["validate", str(ext / "extended.json"), "--bundles", *bundles,
                 "--out", str(report)]) == 0
    capsys.readouterr()
    written = sorted(glob.glob(str(tmp_path / "*.json"))
                     + glob.glob(str(ext / "*.json")))
    assert len(written) == 6 + 3 + len(bundles)
    for path in written:
        with open(path) as fh:
            text = fh.read()
        assert text == json.dumps(json.loads(text), indent=1) + "\n", path


# --- the reader behind `modular.load` and `currents.load_bundle`


def oracle_json_load(path):
    """json.load of the file at `path`, with a syntax error raised as the
    `InvalidInputError` naming the file that the reader gives."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvalidInputError(f"{path}: {exc}") from None


def oracle_load(path):
    return from_document(oracle_json_load(path))


def oracle_load_bundle(md, path):
    return bundle_from_document(md, oracle_json_load(path))


def bits(a):
    return None if a is None else (a.shape, a.dtype.str, a.tobytes())


def modular_key(md):
    """Everything a load fixes, with each S as its bits."""
    return (md.name, md.labels, md.h, md.c, md.is_product,
            [bits(f.s) for f in md.atomic_factors()])


def bundle_key(b):
    return b.current, b.fields, bits(b.matrix), bits(b.eta)


def outcome(read, key, *args):
    """key(read(*args)), or the class and message of what it raised."""
    try:
        return key(read(*args))
    except Exception as exc:
        return type(exc), str(exc)


WRITERS = {
    "dump_json": written_text,
    "one line": lambda doc: json.dumps(native(doc)),
    "compact": lambda doc: json.dumps(native(doc), separators=(",", ":")),
}
MODULAR_DOCUMENTS = ["su2_4", "ising", "su2_2 x ising", "factorized product",
                     "su2_4^4 diagonal extension"]
BUNDLE_THEORIES = {
    "bundle with eta": lambda: _su2_4_pair_run()[0].ext_md,
    "bundle without eta": lambda: _su2_4_pair_run()[0].ext_md,
    "bundle on no fields": lambda: _ising_pair_run()[0].ext_md,
}


def assert_reads_as_json_load(path, md=None):
    """load (or load_bundle over md) of `path` equals the json.load path,
    value for value and bit for bit, or raises the same error."""
    if md is None:
        assert (outcome(load, modular_key, path)
                == outcome(oracle_load, modular_key, path))
    else:
        assert (outcome(load_bundle, bundle_key, md, path)
                == outcome(oracle_load_bundle, bundle_key, md, path))


@pytest.mark.parametrize("writer", list(WRITERS))
@pytest.mark.parametrize("name", MODULAR_DOCUMENTS + list(BUNDLE_THEORIES))
def test_reader_matches_json_load(tmp_path, name, writer):
    path = tmp_path / "doc.json"
    path.write_text(WRITERS[writer](DOCUMENTS[name]()))
    md = BUNDLE_THEORIES[name]() if name in BUNDLE_THEORIES else None
    assert_reads_as_json_load(path, md)


SPECIAL = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, math.nan, math.inf,
           -math.inf, 0.1, -2.5, 1.0]


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 6), writer=st.sampled_from(list(WRITERS)),
       data=st.data())
def test_reader_matches_json_load_on_special_values(n, writer, data):
    values = st.lists(st.one_of(st.sampled_from(SPECIAL), st.floats()),
                      min_size=2 * n * n + 2 * n, max_size=2 * n * n + 2 * n)
    z = np.array(data.draw(values)).view(complex)
    md = ModularData(tuple(range(n)), (Fraction(0),) * n, Fraction(1),
                     z[:n * n].reshape(n, n), name="special")
    b = FixedPointBundle(0, tuple(range(n)), z[:n * n].reshape(n, n), z[n * n:])
    with tempfile.TemporaryDirectory() as tmp:
        s_path, b_path = Path(tmp) / "s.json", Path(tmp) / "b.json"
        s_path.write_text(WRITERS[writer](array_document(md)))
        b_path.write_text(WRITERS[writer](bundle_array_document(md, b)))
        assert_reads_as_json_load(s_path)
        assert_reads_as_json_load(b_path, md)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 6), writer=st.sampled_from(list(WRITERS)),
       data=st.data())
def test_reader_decodes_special_values_in_s_bit_for_bit(n, writer, data):
    # a load refuses an S that is not unitary and symmetric, which most S
    # of the test above are; here the decoded S is compared before that check
    values = st.lists(st.one_of(st.sampled_from(SPECIAL), st.floats()),
                      min_size=2 * n * n, max_size=2 * n * n)
    s = np.array(data.draw(values)).view(complex).reshape(n, n)
    md = ModularData(tuple(range(n)), (Fraction(0),) * n, Fraction(1), s,
                     name="special")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "s.json"
        path.write_text(WRITERS[writer](array_document(md)))
        got = modular._read_json(path)
        want = oracle_json_load(path)
    assert (bits(complex_array(got["s_matrix"], "s_matrix"))
            == bits(complex_array(want["s_matrix"], "s_matrix")))


MARK = 0.123456789  # one S entry, replaced in the text by a literal


def _spliced(literal):
    return lambda doc, text: text.replace(repr(MARK), literal)


def _set_s(change):
    def mutate(doc, text):
        change(doc["s_matrix"])
        return json.dumps(doc)
    return mutate


READER_CASES = {
    "int": _spliced("1"),
    "int past the first batch": _spliced("1"),
    "string past the first batch": _spliced('"1.0"'),
    "boolean": _spliced("true"),
    "int 10**30": _spliced(str(10 ** 30)),
    "int past float range": _spliced(str(10 ** 400)),
    "1e999": _spliced("1e999"),
    "null": _spliced("null"),
    "string": _spliced('"1.0"'),
    "[1,]": _spliced(f"{MARK},"),
    "[,1]": _spliced(f",{MARK}"),
    "junk between rows": lambda doc, text: text.replace("]], [[", "]]x[[", 1),
    "[]": _set_s(lambda s: s.clear()),
    "[[]]": _set_s(lambda s: s.__setitem__(slice(None), [[]])),
    "ragged rows": _set_s(lambda s: s[1].pop()),
    "ragged pairs": _set_s(lambda s: s[1][0].pop()),
    "rows of pairs and of numbers": _set_s(lambda s: s.__setitem__(1, [0.5, 0.5])),
    "all booleans": _set_s(lambda s: s.__setitem__(
        slice(None), [[[True, False]] * len(s)] * len(s))),
    "duplicate s_matrix key": lambda doc, text: text[:-1] + ', "s_matrix": '
        + json.dumps(doc["s_matrix"][:1]) + "}",
    "duplicate equal s_matrix key": lambda doc, text: text[:-1]
        + ', "s_matrix": ' + json.dumps(doc["s_matrix"]) + "}",
    "key text inside a string value": lambda doc, text: json.dumps(
        dict(doc, name='x", "s_matrix": [[[1.0, 0.0]]], "y": "')),
    "key text ending another key": lambda doc, text: text[:-1]
        + ', "x\\"s_matrix": [[[1.0, 0.0]]]}',
    "s_matrix inside a label": lambda doc, text: json.dumps(
        dict(doc, fields=[dict(doc["fields"][0], label={"s_matrix": [[0.5]]})]
             + doc["fields"][1:])),
    "s_matrix beside product": lambda doc, text: json.dumps(
        {"format": "modular-data v1", "product": [doc, doc],
         "s_matrix": doc["s_matrix"]}),
    "a placeholder in a string": lambda doc, text: json.dumps(
        dict(doc, name="\x000")),
    "a placeholder under a duplicate key": lambda doc, text: text[:-1]
        + ', "s_matrix": "\\u00000"}',
    "trailing text": lambda doc, text: text + "]",
}


@pytest.mark.parametrize("case", list(READER_CASES))
def test_reader_gives_the_json_load_outcome(tmp_path, case):
    doc = native(array_document(su2(4)))
    doc["s_matrix"][0][0][0] = MARK
    if case.endswith("past the first batch"):
        rows = doc["s_matrix"]  # 121 rows, the one with MARK last
        doc["s_matrix"] = json.loads(json.dumps(rows[1:] * 30 + rows[:1]))
    text = json.dumps(doc)
    path = tmp_path / "doc.json"
    path.write_text(READER_CASES[case](doc, text))
    assert_reads_as_json_load(path)


BUNDLE_CASES = {
    "int in eta": lambda doc: dict(doc, eta=[[1, 0]] + doc["eta"][1:]),
    "boolean in matrix": lambda doc: dict(
        doc, matrix=[[[True, 0.0]] + doc["matrix"][0][1:]] + doc["matrix"][1:]),
    "eta of numbers": lambda doc: dict(doc, eta=[0.5] * len(doc["eta"])),
    "empty eta": lambda doc: dict(doc, eta=[]),
}


@pytest.mark.parametrize("case", list(BUNDLE_CASES))
def test_bundle_reader_gives_the_json_load_outcome(tmp_path, case):
    ex, b = _su2_4_pair_run()
    doc = BUNDLE_CASES[case](native(bundle_array_document(ex.ext_md, b)))
    path = tmp_path / "b.json"
    path.write_text(json.dumps(doc))
    assert_reads_as_json_load(path, ex.ext_md)
    dup = tmp_path / "dup.json"
    dup.write_text(json.dumps(doc)[:-1] + ', "matrix": [[[1.0, 0.0]]]}')
    assert_reads_as_json_load(dup, ex.ext_md)


def test_reader_names_a_file_without_an_object(tmp_path):
    doc = native(array_document(su2(4)))
    path = tmp_path / "list.json"
    path.write_text(json.dumps([doc]))
    with pytest.raises(InvalidInputError,
                       match=f"{path} does not hold a JSON object"):
        load(path)


# --- an S in an .npy file beside its document


def test_an_s_file_loads_beside_its_document_only(tmp_path):
    md = su2(4)
    path = tmp_path / "su24.json"
    assert save(md, path) == {str(tmp_path / "su24.s.npy"): mock.ANY}
    doc = json.loads(path.read_text())
    assert doc["s_matrix"]["file"] == "su24.s.npy"
    got = load(path)
    assert bits(got.s) == bits(md.s)
    assert got.s_file == str(tmp_path / "su24.s.npy")
    assert got.s_sha256 == doc["s_matrix"]["sha256"]
    assert got.s.flags.writeable  # as np.load gives it
    with pytest.raises(InvalidInputError, match="not read from a file"):
        from_document(doc)
    # the parts of a product name their files relative to the product
    product = tmp_path / "p.json"
    product.write_text(json.dumps({"format": "modular-data v1", "name": "p",
                                   "product": [doc, doc]}))
    got = load(product)
    assert [bits(f.s) for f in got.factors] == [bits(md.s)] * 2
    assert {f.s_file for f in got.factors} == {str(tmp_path / "su24.s.npy")}


def test_save_names_one_s_file_per_distinct_part(tmp_path):
    a, b = su2(4), su2(2)
    # a copy of a: equal S bytes, another object
    again = from_document(native(array_document(a)))
    written = save(tensor(a, b, again, b), tmp_path / "p.json")
    assert list(written) == [str(tmp_path / n) for n in ("p.s0.npy", "p.s1.npy")]
    doc = json.loads((tmp_path / "p.json").read_text())
    refs = [part["s_matrix"] for part in doc["product"]]
    assert [r["file"] for r in refs] == ["p.s0.npy", "p.s1.npy"] * 2
    assert [r["sha256"] for r in refs[:2]] == list(written.values())
    got = load(tmp_path / "p.json")
    assert [bits(f.s) for f in got.factors] == [bits(f.s) for f in (a, b) * 2]
    # the name without a trailing .json gets the same files
    save(tensor(a, b), tmp_path / "q")
    assert (tmp_path / "q.s1.npy").read_bytes() == (
        tmp_path / "p.s1.npy").read_bytes()


def test_save_npy_writes_the_bytes_of_np_save(tmp_path):
    for a in (su2(4).s, np.zeros((0, 0), complex),
              np.asfortranarray(np.arange(6.0).reshape(2, 3) + 1j)):
        fh = io.BytesIO()
        np.save(fh, np.ascontiguousarray(a))
        digest = modular.save_npy(tmp_path / "a.npy", a)
        assert (tmp_path / "a.npy").read_bytes() == fh.getvalue()
        assert digest == hashlib.sha256(fh.getvalue()).hexdigest()
