"""The bulk JSON writer and the vectorized [re, im] loader, against the
encoders and the per-element path they replace.

The oracle for every written document is `json.dump(native(doc), fh,
indent=1)` followed by a newline; the oracle for every loaded matrix is
`complex(re, im)` per pair.
"""
import glob
import io
import json
import math

import numpy as np
import pytest

from fpres.cli import main
from fpres.currents import Theory, bundle_array_document, save_bundle
from fpres.errors import InvalidInputError
from fpres.extend import extend
from fpres.modular import (
    array_document,
    complex_array,
    dump_json,
    from_document,
    native,
    tensor,
    to_document,
)
from fpres.validate import check_fusion_integrality, condition_report
from fpres.wzw import ising, su2


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


def _empty_bundle_doc():
    md = tensor(ising(), ising())
    ex = extend(Theory(md), [md.labels.index(("psi", "psi"))])
    cls = next(c for c in ex.residual_classes() if c.order > 1)
    return bundle_array_document(ex.ext_md, ex.resolve(cls).bundle)


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
    "top-level array": lambda: np.linspace(-1.0, 1.0, 12).reshape(3, 2, 2),
}


@pytest.mark.parametrize("name", list(DOCUMENTS))
def test_writer_matches_json_dump(name):
    doc = DOCUMENTS[name]()
    assert written_text(doc) == oracle_text(doc)


def test_writer_keeps_strings_that_spell_the_placeholder():
    doc = {"\x00": "\x00", "label": '"\x00', "s": np.array([[0.5, -0.0]])}
    assert written_text(doc) == oracle_text(doc)


def test_writer_rejects_what_json_rejects():
    with pytest.raises(TypeError):
        written_text({"s": np.array([1 + 1j])})
    with pytest.raises(TypeError):
        written_text({"x": object()})


def test_native_documents_match_the_written_ones(tmp_path):
    md = tensor(su2(2), ising())
    assert to_document(md) == json.loads(written_text(array_document(md)))
    ex, b = _su2_4_pair_run()
    save_bundle(ex.ext_md, b, tmp_path / "b.json")
    doc = json.loads((tmp_path / "b.json").read_text())
    assert doc == native(bundle_array_document(ex.ext_md, b))
    assert isinstance(doc["matrix"], list)


def test_loader_is_bitwise_the_per_element_path():
    md = _su2x4_diagonal().ext_md
    rows = to_document(md)["s_matrix"]
    rows[0][0] = [-0.0, -0.0]
    rows[0][1] = [0.0, -0.0]
    rows[1][0] = [1, True]
    rows[1][1] = [False, 5e-324]
    rows[2][2] = [-1e308, 2**62 + 1]
    new = complex_array(rows, "s_matrix")
    old = oracle_complex(rows)
    assert new.shape == old.shape
    assert np.array_equal(new.view(np.uint64), old.view(np.uint64))
    back = from_document(to_document(md))
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
