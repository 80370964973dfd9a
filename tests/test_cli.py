import argparse
import builtins
import copy
import hashlib
import importlib.util
import json
import os
import re
import shutil
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from hlk import fileio
from hlk.cli import build_parser, main
from hlk.exactlin import DenseMatrix, Scalar
from hlk.gkcoh import AdmissibleModule


def run(args):
    return main(list(args))


@pytest.fixture(scope="module")
def catalog_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("catalog")
    for name in ("torus", "k3-mock", "abelian-surface", "genus2-suite",
                 "sl2-adjoint", "s1s2"):
        assert run(["catalog", name, "--out-dir", str(out)]) == 0
    assert run(["catalog", "g2-family", "--k", "2", "--out-dir", str(out)]) == 0
    return out


def stripped_report(path):
    doc = json.load(open(path))
    doc.pop("timings", None)
    return fileio.canonical_dumps(doc)


def test_catalog_unknown_name(tmp_path):
    assert run(["catalog", "not-a-model", "--out-dir", str(tmp_path)]) == 2


@pytest.mark.parametrize("argv", [
    pytest.param(["g2-family", "--k", "0"], id="g2-k0"),
    # windows that miss one of the module's weights wrote a module that
    # validate fails (exit 0, then exit 1)
    pytest.param(["sl2-adjoint", "--window", "1"], id="adjoint-window1"),
    pytest.param(["sl2-adjoint", "--window", "0"], id="adjoint-window0"),
    pytest.param(["sl2-adjoint", "--window", "-1"], id="adjoint-window-1"),
    pytest.param(["sl2-trivial", "--window", "-1"], id="trivial-window-1"),
])
def test_catalog_invalid_params(tmp_path, capsys, argv):
    assert run(["catalog", *argv, "--out-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("input error: ")
    assert not list(tmp_path.iterdir())


# sha256 of the catalog documents whose algebras are built from wedge
# signs (torus, abelian surface) or by llgen.product_model (s1s2)
CATALOG_DIGESTS = {
    "torus.algebra.json":
        "532b5a2b5cc4e12465429c62626514bb66e16d22302604a55a770974ff966f5e",
    "abelian-surface.algebra.json":
        "349b38e618e865efc3182ab046950fe33e480eb919ad2329913f49ff6036969d",
    "s1s2-N3.algebra.json":
        "148b66efee898fe2d9fb2425f33a57ecfcbb70034ab68618aeab41ed3c545c01",
}


def test_catalog_documents_digests(catalog_dir):
    for fname, digest in CATALOG_DIGESTS.items():
        data = (catalog_dir / fname).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest, fname


def test_catalog_round_trip(catalog_dir):
    for path in sorted(catalog_dir.glob("*.json")):
        raw = path.read_text()
        kind, obj = fileio.load_document(str(path))
        emit = {
            "algebra": fileio.algebra_to_doc,
            "pair": fileio.pair_to_doc,
            "module": fileio.module_to_doc,
            "spectrum": fileio.spectrum_to_doc,
        }[kind]
        assert fileio.canonical_dumps(emit(obj)) == raw


def test_validate_pass(catalog_dir, tmp_path):
    report = tmp_path / "report.json"
    code = run(["validate",
                "--input", str(catalog_dir / "torus.algebra.json"),
                "--input", str(catalog_dir / "sl2R.pair.json"),
                "--input", str(catalog_dir / "sl2-trivial.module.json"),
                "--report", str(report)])
    assert code == 0
    doc = json.loads(report.read_text())
    assert all(c["status"] in ("pass", "skip") for c in doc["checks"])


def test_validate_rejects_two_inputs_of_one_report_key(catalog_dir, tmp_path,
                                                      capsys):
    # one file given from two directories: both would report, and time,
    # as algebra:torus.algebra.json
    other = tmp_path / "other"
    other.mkdir()
    shutil.copy(catalog_dir / "torus.algebra.json", other)
    assert run(["validate",
                "--input", str(catalog_dir / "torus.algebra.json"),
                "--input", str(other / "torus.algebra.json")]) == 2
    assert capsys.readouterr().err == \
        "input error: duplicate input name 'algebra:torus.algebra.json'\n"
    # two pair files of one pair name: a module would meet either
    shutil.copy(catalog_dir / "sl2R.pair.json", other / "other.pair.json")
    assert run(["validate",
                "--input", str(catalog_dir / "sl2R.pair.json"),
                "--input", str(other / "other.pair.json")]) == 2
    assert capsys.readouterr().err == \
        "input error: duplicate pair name 'sl2R'\n"


def test_validate_broken_algebra(catalog_dir, tmp_path):
    doc = json.loads((catalog_dir / "torus.algebra.json").read_text())
    doc["nu"] = []
    bad = tmp_path / "broken.algebra.json"
    bad.write_text(fileio.canonical_dumps(doc))
    assert run(["validate", "--input", str(bad)]) == 1


def test_parse_error_exit_code(tmp_path):
    bad = tmp_path / "garbage.json"
    bad.write_text("{not json")
    assert run(["validate", "--input", str(bad)]) == 2


def _drop(path):
    def edit(doc):
        *parents, key = path
        for step in parents:
            doc = doc[step]
        del doc[key]
    return edit


def _set(key, value, where=lambda doc: doc):
    def edit(doc):
        where(doc)[key] = value
    return edit


def _dup(path):
    """Append a copy of the list element at ``path`` to its list."""
    def edit(doc):
        *parents, key = path
        for step in parents:
            doc = doc[step]
        doc.append(copy.deepcopy(doc[key]))
    return edit


MALFORMED_ALGEBRAS = {
    # a missing key ended in a KeyError traceback
    "missing-left": _drop(["products", 0, "left"]),
    "missing-right": _drop(["products", 0, "right"]),
    "missing-result-name": _drop(["products", 0, "result", 0, "name"]),
    "missing-of": _drop(["conjugation", 0, "of"]),
    "missing-nu-name": _drop(["nu", 0, "name"]),
    # non-integer degrees were coerced by int()
    "g-float": _set("g", 1.5),
    "g-bool": _set("g", True),
    "g-string": _set("g", "1"),
    "p-float": _set("p", 0.0, lambda doc: doc["basis"][0]),
    "q-string": _set("q", "0", lambda doc: doc["basis"][0]),
    # a list field that is not a list ended in a TypeError traceback
    "products-not-list": _set("products", 5),
    "result-not-list": _set("result", 3, lambda doc: doc["products"][0]),
    # a non-bool dense_leaf was coerced by bool()
    "dense-leaf-string": _set("dense_leaf", "no"),
    "dense-leaf-int": _set("dense_leaf", 0),
    # fraction parts were coerced by int(): a bool den loaded as 1
    "coeff-den-bool": _set("den", True,
                           lambda doc: doc["products"][0]["result"][0]
                           ["coeff_re"]),
    # a non-string name was coerced by str(): 3 loaded as "3"
    "name-int": _set("name", 3),
    # a repeated entry replaced the earlier one (exit 0)
    "duplicate-conjugation-of": _dup(["conjugation", 0]),
    "duplicate-conjugation-result": _dup(["conjugation", 1, "result", 0]),
    "duplicate-product-result": _dup(["products", 0, "result", 0]),
    "duplicate-nu-name": _dup(["nu", 0]),
    "duplicate-kahler-name": _dup(["kahler", 0]),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_ALGEBRAS))
def test_malformed_algebra_is_input_error(catalog_dir, tmp_path, capsys,
                                          case):
    doc = json.loads((catalog_dir / "torus.algebra.json").read_text())
    MALFORMED_ALGEBRAS[case](doc)
    bad = tmp_path / "malformed.algebra.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(fileio.InputError):
        fileio.load_document(str(bad))
    assert run(["validate", "--input", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and "Traceback" not in err
    assert err.startswith("input error: duplicate") == \
        case.startswith("duplicate")


NOT_JSON = {
    # a RecursionError traceback and exit 1, read as a failed check
    "nested-arrays": b"[" * 100000,
    # exit 2, without the file's name
    "not-utf8": b'{"kind": "\xff"}',
    "long-integer": b"[" + b"7" * 5000 + b"]",
}


@pytest.mark.parametrize("case", sorted(NOT_JSON))
def test_invalid_json_names_the_file(tmp_path, capsys, case):
    bad = tmp_path / f"{case}.json"
    bad.write_bytes(NOT_JSON[case])
    with pytest.raises(fileio.InputError):
        fileio.load_document(str(bad))
    assert run(["validate", "--input", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"input error: {bad} is not valid JSON: ")
    assert "Traceback" not in err


MALFORMED_GK = {
    # a non-bool unitary was coerced by bool(): "no" loaded as unitary
    "unitary-string": ("sl2-ds-plus.module.json", _set("unitary", "no")),
    # a float window was truncated by int(): 96.7 loaded as 96
    "window-float": ("sl2-ds-plus.module.json", _set("window", 96.7)),
    # string indices loaded, and validation failed (exit 1) on them
    "k-indices-string": ("sl2R.pair.json", _set("k_indices", ["0"])),
    "shift-string": ("sl2-ds-plus.module.json",
                     _set("shift", "2", lambda doc: doc["generators"][1])),
    "multiplicity-float": ("genus2.spectrum.json",
                           _set("multiplicity", 1.0, lambda doc: doc[0])),
    # fraction parts were coerced by int(): -1.5 loaded as -1, "1" as 1
    "pair-num-float": ("sl2R.pair.json",
                       _set("num", -1.5, lambda doc: doc["B"][0][0])),
    "form-num-string": ("sl2-ds-plus.module.json",
                        _set("num", "1", lambda doc: doc["weights"][0]
                             ["form"][0][0]["re"])),
    # names and references were coerced by str(): ["x"] loaded as "['x']"
    "module-name-list": ("sl2-ds-plus.module.json", _set("name", ["x"])),
    "module-pair-int": ("sl2-ds-plus.module.json", _set("pair", 5)),
    "pair-basis-name-int": ("sl2R.pair.json",
                            _set(0, 3, lambda doc: doc["basis"])),
    "pair-name-float": ("sl2R.pair.json", _set("name", 1.5)),
    "spectrum-module-int": ("genus2.spectrum.json",
                            _set("module", 3, lambda doc: doc[0])),
    # a non-list matrix row: 4 was caught as a TypeError, and {} iterated
    # as an empty row and failed validation (exit 1)
    "pair-b-row-int": ("sl2R.pair.json", _set(0, 4, lambda doc: doc["B"])),
    "action-row-object": ("sl2-ds-plus.module.json",
                          _set(0, {}, lambda doc: doc["weights"][0]
                               ["actions"][0]["matrix"])),
    # a kind outside the four names fell back to shape detection (exit 0)
    "kind-unknown": ("sl2R.pair.json", _set("kind", "x")),
    "kind-bool": ("sl2R.pair.json", _set("kind", True)),
    "kind-list": ("sl2R.pair.json", _set("kind", [1])),
    "kind-object": ("sl2R.pair.json", _set("kind", {})),
    # a repeated entry replaced the earlier one (exit 0)
    "duplicate-weight": ("sl2-ds-plus.module.json", _dup(["weights", 0])),
    "duplicate-action": ("sl2-ds-plus.module.json",
                         _dup(["weights", 1, "actions", 0])),
    "duplicate-generator-name": ("sl2-ds-plus.module.json",
                                 _dup(["generators", 0])),
    # a repeated pair basis name or index failed a pair check (exit 1)
    "duplicate-pair-basis-name": ("sl2R.pair.json", _dup(["basis", 0])),
    "duplicate-k-index": ("sl2R.pair.json", _dup(["k_indices", 0])),
    "duplicate-p-index": ("sl2R.pair.json", _dup(["p_indices", 0])),
    # a z0 of the wrong length loaded, and validated with exit 0
    "z0-short": ("sl2R.pair.json", lambda doc: doc["z0"].pop()),
    "z0-long": ("sl2R.pair.json",
                lambda doc: doc["z0"].append({"num": 0, "den": 1})),
    # a B of the wrong shape loaded, and failed the b-shape check (exit 1)
    "pair-b-2x2": ("sl2R.pair.json", lambda doc: doc.update(
        B=[row[:2] for row in doc["B"][:2]])),
    "pair-b-extra-row": ("sl2R.pair.json",
                         lambda doc: doc["B"].append(doc["B"][0])),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_GK))
def test_malformed_gk_document_is_input_error(catalog_dir, tmp_path, capsys,
                                              case):
    fname, edit = MALFORMED_GK[case]
    doc = json.loads((catalog_dir / fname).read_text())
    edit(doc)
    bad = tmp_path / fname
    bad.write_text(json.dumps(doc))
    with pytest.raises(fileio.InputError):
        fileio.load_document(str(bad))
    assert run(["validate", "--input", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and "Traceback" not in err
    assert err.startswith("input error: duplicate") == \
        case.startswith("duplicate")


FUZZ_DOCUMENTS = ("torus.algebra.json", "sl2R.pair.json",
                  "sl2-ds-plus.module.json", "genus2.spectrum.json")
FUZZ_VALUES = (1.5, True, "x", [], {}, None, -1, [1])
DELETE = ("delete",)


def _positions(node, path=()):
    """Every (path, is-object-key) slot of a JSON document."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield path + (key,), isinstance(node, dict)
        yield from _positions(child, path + (key,))


# a pair is validated with a module and a module against its pair
FUZZ_PARTNER = {"sl2R.pair.json": "sl2-ds-plus.module.json",
                "sl2-ds-plus.module.json": "sl2R.pair.json"}


def _validate_mutant(catalog_dir, tmp_path, capsys, fname, doc, label):
    """validate answers 0, 1 or 2 on a mutant document, with no traceback."""
    bad = tmp_path / f"mutant.{fname}"
    bad.write_text(json.dumps(doc))
    argv = ["validate", "--input", str(bad)]
    if fname in FUZZ_PARTNER:
        argv += ["--input", str(catalog_dir / FUZZ_PARTNER[fname])]
    try:
        code = run(argv)
    except Exception as exc:  # report the mutant, not just the error
        pytest.fail(f"{label}: {exc!r}")
    err = capsys.readouterr().err
    assert code in (0, 1, 2), label
    assert "Traceback" not in err, label


def test_mutation_fuzz_exit_status(catalog_dir, tmp_path, capsys):
    # each mutant deletes one object key or sets one slot to a wrong-typed
    # value; whatever it breaks, validate must answer 0, 1 or 2
    rng = random.Random("hlk-fuzz")
    texts = {f: (catalog_dir / f).read_text() for f in FUZZ_DOCUMENTS}
    slots = {f: list(_positions(json.loads(t))) for f, t in texts.items()}
    for trial in range(500):
        fname = FUZZ_DOCUMENTS[trial % len(FUZZ_DOCUMENTS)]
        doc = json.loads(texts[fname])
        path, is_key = rng.choice(slots[fname])
        parent = doc
        for step in path[:-1]:
            parent = parent[step]
        op = rng.choice(FUZZ_VALUES + ((DELETE,) if is_key else ()))
        if op is DELETE:
            del parent[path[-1]]
        else:
            parent[path[-1]] = op
        _validate_mutant(catalog_dir, tmp_path, capsys, fname, doc,
                         f"{fname} {list(path)} <- {op!r}")


def test_duplicate_fuzz_exit_status(catalog_dir, tmp_path, capsys):
    # each mutant appends a copy of one list element to its list
    rng = random.Random("hlk-fuzz-duplicates")
    texts = {f: (catalog_dir / f).read_text() for f in FUZZ_DOCUMENTS}
    slots = {f: [path for path, is_key in _positions(json.loads(t))
                 if not is_key] for f, t in texts.items()}
    for trial in range(500):
        fname = FUZZ_DOCUMENTS[trial % len(FUZZ_DOCUMENTS)]
        doc = json.loads(texts[fname])
        path = rng.choice(slots[fname])
        _dup(path)(doc)
        _validate_mutant(catalog_dir, tmp_path, capsys, fname, doc,
                         f"{fname} {list(path)} appended again")


def test_fraction_parts_parse_to_reduced_triples():
    # negative and unreduced denominators give the slots and hash of the
    # Fraction route; every part is checked as before
    def frac(num, den):
        return {"num": num, "den": den}

    for re, im in (((3, -6), (-4, 8)), ((0, -5), (2, -4)), ((6, 4), (0, 1)),
                   ((-1, 3), (5, -6)), ((4, 2), (-9, 3)), ((0, 7), (0, -2))):
        want = Scalar(Fraction(*re), Fraction(*im))
        for got in (
                fileio._scalar_parse({"re": frac(*re), "im": frac(*im)}),
                fileio._coeff_parse({"coeff_re": frac(*re),
                                     "coeff_im": frac(*im)})):
            assert (got._a, got._b, got._d) == (want._a, want._b, want._d)
            assert hash(got) == hash(want) and got == want
    for bad in (frac(1, 0), frac(True, 2), frac(1, True), frac(1.5, 2),
                frac(1, 2.0)):
        with pytest.raises(fileio.InputError):
            fileio._scalar_parse({"re": bad, "im": frac(0, 1)})
        with pytest.raises(fileio.InputError):
            fileio._coeff_parse({"coeff_re": frac(0, 1), "coeff_im": bad})


def test_lefschetz_unknown_omega_is_input_error(catalog_dir, capsys):
    # an unknown --omega name ended in a KeyError traceback
    assert run(["lefschetz", "--omega", "nosuch",
                "--input", str(catalog_dir / "torus.algebra.json")]) == 2
    err = capsys.readouterr().err
    assert err == "input error: unknown basis element 'nosuch'\n"


def test_lefschetz_k3_report(catalog_dir, tmp_path):
    report = tmp_path / "k3.json"
    code = run(["lefschetz",
                "--input", str(catalog_dir / "k3-mock.algebra.json"),
                "--report", str(report)])
    assert code == 0
    doc = json.loads(report.read_text())
    assert doc["summary"]["k3-mock:signature"] == -16


def test_llgen_g2(catalog_dir, tmp_path):
    report = tmp_path / "llgen.json"
    code = run(["llgen",
                "--input", str(catalog_dir / "g2-k2.algebra.json"),
                "--report", str(report)])
    assert code == 0
    doc = json.loads(report.read_text())
    assert doc["summary"]["g2-k2:dimension"] == 6


def test_llgen_product_model(catalog_dir, tmp_path):
    report = tmp_path / "s1s2.json"
    code = run(["llgen",
                "--input", str(catalog_dir / "s1s2-N3.algebra.json"),
                "--report", str(report)])
    assert code == 0
    doc = json.loads(report.read_text())
    assert doc["summary"]["s1s2-N3:dimension"] == 9
    assert doc["summary"]["s1s2-N3:minimal-ideals"] == [3, 3, 3]


@pytest.mark.parametrize("catalog_args,model,expected", [
    (["g2-family", "--k", "3"], "g2-k3",
     (10, "380bbab048cb44b60bf33612fa14ea84c0d320319d389aa3085fc7940167a66f",
      [10])),
    (["s1s2", "--n", "3"], "s1s2-N3",
     (9, "8c29963752c4079bb6af7ca2d552909fa2b29924e1684d63734eafdeac18edd2",
      [3, 3, 3])),
])
def test_llgen_golden_summary(tmp_path, catalog_args, model, expected):
    # dimension, bracket digest and census recorded from the matrix-space
    # implementation of the Lie layer
    assert run(["catalog", *catalog_args, "--out-dir", str(tmp_path)]) == 0
    report = tmp_path / "llgen.json"
    assert run(["llgen", "--input", str(tmp_path / f"{model}.algebra.json"),
                "--report", str(report)]) == 0
    summary = json.loads(report.read_text())["summary"]
    assert (summary[f"{model}:dimension"],
            summary[f"{model}:bracket-digest"],
            summary[f"{model}:minimal-ideals"]) == expected


def test_llgen_stops_on_invalid_algebra(tmp_path):
    # an extra product om.f1 = top breaks graded commutativity; llgen
    # passed its closure and census on it
    assert run(["catalog", "g2-family", "--k", "3",
                "--out-dir", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "g2-k3.algebra.json").read_text())
    one = {"num": 1, "den": 1}
    doc["products"].append({"left": "om", "right": "f1", "result": [
        {"name": "top", "coeff_re": one, "coeff_im": {"num": 0, "den": 1}}]})
    bad = tmp_path / "bad.algebra.json"
    bad.write_text(json.dumps(doc))
    report = tmp_path / "llgen.json"
    assert run(["llgen", "--input", str(bad), "--report", str(report)]) == 1
    checks = json.loads(report.read_text())["checks"]
    assert [(c["name"], c["status"]) for c in checks] == \
        [("g2-k3:validate", "fail")]
    assert checks[0]["detail"].startswith("graded-commutativity")


def test_llgen_g2_k11_runs_every_check(tmp_path):
    # an even part of dim 13, past the size gate that once skipped the
    # closure and every later check with exit 0
    assert run(["catalog", "g2-family", "--k", "11",
                "--out-dir", str(tmp_path)]) == 0
    report = tmp_path / "llgen.json"
    assert run(["llgen", "--input", str(tmp_path / "g2-k11.algebra.json"),
                "--report", str(report)]) == 0
    doc = json.loads(report.read_text())
    assert [(c["name"], c["status"], c["detail"]) for c in doc["checks"]] == [
        ("g2-k11:closure", "pass", "dimension 78 (mode even)"),
        ("g2-k11:family-stability", "pass",
         "an extra cone class stays inside the closure"),
        ("g2-k11:so-phi", "pass", "dim 78 vs so dim 78, annihilators True"),
        ("g2-k11:killing-nondegenerate", "pass", ""),
        ("g2-k11:lambda-kernel", "pass", "ker Lambda|H2 = ker L|H2"),
        ("g2-k11:ideal-census", "pass", "1 minimal ideal(s), dims [78]")]
    assert doc["summary"]["g2-k11:minimal-ideals"] == [78]


@pytest.mark.parametrize("model", ["torus", "g2-k3"])
def test_llgen_census_skips_a_zero_algebra(tmp_path, model):
    # no odd classes for L to act on: the closure is 0, and a census of
    # it has nothing to show
    args = ["torus"] if model == "torus" else ["g2-family", "--k", "3"]
    assert run(["catalog", *args, "--out-dir", str(tmp_path)]) == 0
    path = tmp_path / f"{model}.algebra.json"
    report = tmp_path / "llgen.json"
    assert run(["llgen", "--mode", "odd", "--input", str(path),
                "--report", str(report)]) == 0
    doc = json.loads(report.read_text())
    base = doc["checks"][0]["name"].split(":")[0]
    census = [c for c in doc["checks"] if c["name"] == f"{base}:ideal-census"]
    assert census == [{"name": f"{base}:ideal-census", "status": "skip",
                       "detail": "the algebra is zero"}]
    assert doc["summary"][f"{base}:dimension"] == 0
    assert doc["summary"][f"{base}:minimal-ideals"] == []


def test_gkcoh_suite(catalog_dir, tmp_path):
    report = tmp_path / "gk.json"
    code = run(["gkcoh",
                "--input", str(catalog_dir / "sl2R.pair.json"),
                "--input", str(catalog_dir / "sl2-trivial.module.json"),
                "--input", str(catalog_dir / "sl2-adjoint.module.json"),
                "--report", str(report)])
    assert code == 0
    doc = json.loads(report.read_text())
    assert doc["summary"]["sl2-trivial:hodge"] == {"0,0": 1, "1,1": 1}
    assert doc["summary"]["sl2-adjoint:hodge"] == {}


def write_rescaled_module(src, dst, rng):
    """The module of ``src`` in the basis u = s_w v, s_w a seeded positive
    rational per weight: forms pick up s_w^2, a block from w to w' picks
    up s_w / s_w'."""
    _, m = fileio.load_document(str(src))
    scale = {w: Fraction(rng.randint(1, 5), rng.randint(1, 5))
             for w in m.sorted_weights}
    actions = {(g, w): block.scale(Scalar(
        scale[w] / scale[w + m.gen_by_name[g].shift]))
        for (g, w), block in m.actions.items()}
    out = AdmissibleModule(
        name=m.name, pair_name=m.pair_name, window=m.window,
        weights=m.weights, generators=m.generators, actions=actions,
        forms={w: f.scale(Scalar(scale[w] ** 2)) for w, f in m.forms.items()},
        unitary=m.unitary)
    dst.write_text(fileio.canonical_dumps(fileio.module_to_doc(out)))


GK_MODULES = ("sl2-trivial", "sl2-ds-plus", "sl2-ds-minus", "sl2-adjoint")
GK_GOLDEN = {
    # sha256 of the canonical summary, and the checks, all of which pass
    "gkcoh": (
        "15c6946937fdb7d353ec4a1d4f8387c7f43ecf41df05934499dd56f8ad0dfa15",
        ["pair:sl2R"] + [f"{m}:{c}" for m in GK_MODULES
                         for c in ("validate", "d-squared", "dichotomy",
                                   "bigraded-total", "harmonic")]),
    "assemble": (
        "5573e8b18e04b3faf0b4552971c79bb705b2f05e1dd3a2c6b4ec10c4a79a29d8",
        ["pair:sl2R"] + [f"{m}:validate" for m in GK_MODULES[:3]]
        + [f"diamond:{c}" for c in ("hodge-symmetry", "odd-betti-even",
                                    "serre-symmetry", "hard-lefschetz")]),
}


def test_gk_golden_summary(tmp_path):
    # the window-96 catalog with the discrete series rescaled per weight;
    # the values were recorded from the per-vector module operators
    for name in ("genus2-suite", "sl2-adjoint"):
        assert run(["catalog", name, "--window", "96",
                    "--out-dir", str(tmp_path)]) == 0
    files = [tmp_path / f"{m}.module.json" for m in GK_MODULES]
    for t in (1, 2):
        rescaled = tmp_path / f"{GK_MODULES[t]}.rescaled.module.json"
        write_rescaled_module(files[t], rescaled,
                              random.Random(f"golden:{GK_MODULES[t]}"))
        files[t] = rescaled
    pair = ["--input", str(tmp_path / "sl2R.pair.json")]
    spectrum = ["--input", str(tmp_path / "genus2.spectrum.json")]
    argv = {
        "gkcoh": pair + sum((["--input", str(f)] for f in files), []),
        "assemble": pair + sum((["--input", str(f)] for f in files[:3]), [])
        + spectrum,
    }
    for command, (digest, checks) in GK_GOLDEN.items():
        report = tmp_path / f"{command}.json"
        assert run([command, *argv[command], "--report", str(report)]) == 0
        doc = json.loads(report.read_text())
        assert [(c["name"], c["status"]) for c in doc["checks"]] == \
            [(name, "pass") for name in checks]
        summary = fileio.canonical_dumps(doc["summary"]).encode()
        assert hashlib.sha256(summary).hexdigest() == digest, command


def test_assemble_suite(catalog_dir, tmp_path, capsys):
    report = tmp_path / "asm.json"
    code = run(["assemble",
                "--input", str(catalog_dir / "sl2R.pair.json"),
                "--input", str(catalog_dir / "sl2-trivial.module.json"),
                "--input", str(catalog_dir / "sl2-ds-plus.module.json"),
                "--input", str(catalog_dir / "sl2-ds-minus.module.json"),
                "--input", str(catalog_dir / "genus2.spectrum.json"),
                "--report", str(report)])
    assert code == 0
    doc = json.loads(report.read_text())
    assert doc["summary"]["betti"] == [1, 4, 1]
    assert doc["summary"]["hodge-table"] == {
        "0,0": 1, "0,1": 2, "1,0": 2, "1,1": 1}


def test_assemble_asymmetric_spectrum_fails(catalog_dir, tmp_path):
    spectrum = tmp_path / "bad.spectrum.json"
    spectrum.write_text(fileio.canonical_dumps(
        [{"module": "sl2-ds-plus", "multiplicity": 1, "k2_inv_dim": 1}]))
    code = run(["assemble",
                "--input", str(catalog_dir / "sl2R.pair.json"),
                "--input", str(catalog_dir / "sl2-ds-plus.module.json"),
                "--input", str(spectrum)])
    assert code == 1


def test_assemble_stops_on_invalid_module(catalog_dir, tmp_path):
    doc = json.loads((catalog_dir / "sl2-ds-plus.module.json").read_text())
    for entry in doc["weights"]:
        entry["form"] = [[{"re": {"num": -1, "den": 1},
                           "im": {"num": 0, "den": 1}}]]
        break
    bad = tmp_path / "sl2-ds-plus.module.json"
    bad.write_text(fileio.canonical_dumps(doc))
    report = tmp_path / "asm.json"
    code = run(["assemble",
                "--input", str(catalog_dir / "sl2R.pair.json"),
                "--input", str(catalog_dir / "sl2-trivial.module.json"),
                "--input", str(bad),
                "--input", str(catalog_dir / "sl2-ds-minus.module.json"),
                "--input", str(catalog_dir / "genus2.spectrum.json"),
                "--report", str(report)])
    assert code == 1
    checks = {c["name"]: c for c in json.loads(report.read_text())["checks"]}
    assert checks["sl2-ds-plus:validate"]["status"] == "fail"
    assert "form-positive" in checks["sl2-ds-plus:validate"]["detail"]
    assert not [name for name in checks if name.startswith("diamond:")]


@pytest.mark.parametrize("command", ["gkcoh", "assemble"])
def test_module_of_another_pair_is_input_error(catalog_dir, tmp_path, capsys,
                                               command):
    # both commands used to run on the supplied pair and exit 0
    doc = json.loads((catalog_dir / "sl2-trivial.module.json").read_text())
    doc["pair"] = "no-such-pair"
    other = tmp_path / "sl2-trivial.module.json"
    other.write_text(json.dumps(doc))
    inputs = ["--input", str(catalog_dir / "sl2R.pair.json"),
              "--input", str(other)]
    if command == "assemble":
        for name in ("sl2-ds-plus.module.json", "sl2-ds-minus.module.json",
                     "genus2.spectrum.json"):
            inputs += ["--input", str(catalog_dir / name)]
    assert run([command, *inputs]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and "Traceback" not in err
    assert "'no-such-pair'" in err and "'sl2R'" in err


SPECTRUM_MODULES = ("sl2-ds-plus.module.json", "sl2-ds-minus.module.json")


@pytest.mark.parametrize("command, extra, entry, message", [
    pytest.param("assemble", (), None, "exactly one ",
                 id="assemble-no-spectrum"),
    pytest.param("assemble", ("genus2.spectrum.json",) * 2, None,
                 "exactly one ", id="assemble-two-spectra"),
    pytest.param("gkcoh", ("sl2R.pair.json",), None, "exactly one ",
                 id="gkcoh-two-pairs"),
    # both spectrum errors used to come after the pair and module checks
    # had been printed
    # a repeated module was checked twice, and analysed once under its
    # name (exit 0)
    pytest.param("gkcoh", ("sl2-trivial.module.json",), None,
                 "duplicate module name 'sl2-trivial'",
                 id="gkcoh-duplicate-module"),
    pytest.param("assemble", ("sl2-ds-plus.module.json",) + SPECTRUM_MODULES
                 + ("genus2.spectrum.json",), None,
                 "duplicate module name 'sl2-ds-plus'",
                 id="assemble-duplicate-module"),
    pytest.param("assemble", SPECTRUM_MODULES, (1, "multiplicity", -1),
                 "multiplicities must be nonnegative",
                 id="assemble-negative-multiplicity"),
    pytest.param("assemble", SPECTRUM_MODULES, (2, "module", "nosuch"),
                 "spectrum references unknown module 'nosuch'",
                 id="assemble-unknown-module"),
])
def test_intake_error_writes_no_report(catalog_dir, tmp_path, capsys,
                                       command, extra, entry, message):
    files = [str(catalog_dir / f) for f in
             ("sl2R.pair.json", "sl2-trivial.module.json") + extra]
    if entry is not None:
        # the catalog spectrum with one field of one entry replaced
        doc = json.loads((catalog_dir / "genus2.spectrum.json").read_text())
        k, key, value = entry
        doc[k][key] = value
        files.append(str(tmp_path / "bad.spectrum.json"))
        (tmp_path / "bad.spectrum.json").write_text(json.dumps(doc))
    report = tmp_path / "report.json"
    assert run([command, *sum((["--input", f] for f in files), []),
                "--report", str(report)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"input error: {message}")
    assert not report.exists()


@pytest.mark.parametrize("command", ["lefschetz", "llgen"])
def test_duplicate_algebra_name_is_input_error(catalog_dir, tmp_path, capsys,
                                              command):
    # two algebras of one name shared their check, summary and timing
    # keys; the name counts, not the file
    torus = catalog_dir / "torus.algebra.json"
    copy_path = tmp_path / "copy.algebra.json"
    copy_path.write_text(torus.read_text())
    report = tmp_path / "report.json"
    assert run([command, "--input", str(torus), "--input", str(copy_path),
                "--report", str(report)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "input error: duplicate algebra name 'torus-g1'\n"
    assert not report.exists()


GENUS2_MODULES = ("sl2-trivial.module.json",) + SPECTRUM_MODULES


@pytest.mark.parametrize("entry, code, detail", [
    pytest.param(None, 0, "3 entries", id="catalog"),
    pytest.param((2, "module", "nosuch"), 1,
                 "entry 2 module 'nosuch' not among the supplied modules",
                 id="unknown-module"),
    pytest.param((1, "multiplicity", -1), 1, "entry 1 multiplicity -1 < 0",
                 id="negative-multiplicity"),
    pytest.param((0, "k2_inv_dim", -2), 1, "entry 0 k2_inv_dim -2 < 0",
                 id="negative-k2-invariants"),
])
def test_validate_names_spectrum_faults(catalog_dir, tmp_path, entry, code,
                                        detail):
    # with the sl2 pair and the genus-2 modules, a spectrum entry is
    # checked for its signs and for the module it names
    doc = json.loads((catalog_dir / "genus2.spectrum.json").read_text())
    if entry is not None:
        k, key, value = entry
        doc[k][key] = value
    spectrum = tmp_path / "genus2.spectrum.json"
    spectrum.write_text(json.dumps(doc))
    files = [str(catalog_dir / f)
             for f in ("sl2R.pair.json",) + GENUS2_MODULES] + [str(spectrum)]
    report = tmp_path / "report.json"
    assert run(["validate", *sum((["--input", f] for f in files), []),
                "--report", str(report)]) == code
    checks = {c["name"]: c for c in json.loads(report.read_text())["checks"]}
    check = checks["spectrum:genus2.spectrum.json"]
    assert check["status"] == ("pass" if code == 0 else "fail")
    assert check["detail"] == detail


def test_validate_spectrum_without_modules_checks_signs_only(catalog_dir,
                                                             tmp_path):
    doc = json.loads((catalog_dir / "genus2.spectrum.json").read_text())
    doc[2]["module"] = "nosuch"
    spectrum = tmp_path / "genus2.spectrum.json"
    spectrum.write_text(json.dumps(doc))
    assert run(["validate", "--input", str(spectrum)]) == 0


def test_gkcoh_stops_on_failed_pair(catalog_dir, tmp_path):
    doc = json.loads((catalog_dir / "sl2R.pair.json").read_text())
    doc["z0"] = [{"num": int(name == "W"), "den": 1} for name in doc["basis"]]
    pair = tmp_path / "sl2R.pair.json"
    pair.write_text(fileio.canonical_dumps(doc))
    report = tmp_path / "gk.json"
    assert run(["gkcoh", "--input", str(pair),
                "--input", str(catalog_dir / "sl2-trivial.module.json"),
                "--report", str(report)]) == 1
    doc = json.loads(report.read_text())
    assert [(c["name"], c["status"]) for c in doc["checks"]] == \
        [("pair:sl2R", "fail")]
    assert doc["checks"][0]["detail"].startswith("z0-square")
    assert doc["summary"] == {}


def test_parser_is_built_once(catalog_dir, monkeypatch):
    from hlk import cli

    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser",
                        lambda: built.append(1) or build())
    cli._parser.cache_clear()
    for _ in range(2):
        assert run(["validate", "--input",
                    str(catalog_dir / "torus.algebra.json")]) == 0
    assert built == [1]


def test_gkcoh_builds_each_complex_once(catalog_dir, monkeypatch):
    from hlk import gkcoh

    calls = []
    build = gkcoh.build_complex

    def counting(*args):
        calls.append(args[2].name)
        return build(*args)

    monkeypatch.setattr(gkcoh, "build_complex", counting)
    assert run(["gkcoh",
                "--input", str(catalog_dir / "sl2R.pair.json"),
                "--input", str(catalog_dir / "sl2-trivial.module.json"),
                "--input", str(catalog_dir / "sl2-adjoint.module.json")]) == 0
    assert calls == ["sl2-trivial", "sl2-adjoint"]


def test_gkcoh_inverts_each_generator_matrix_once(catalog_dir, monkeypatch):
    from hlk import gkcoh

    modules = [catalog_dir / f"{m}.module.json" for m in GK_MODULES]
    gammas = [DenseMatrix.from_columns([g.coords for g in m.generators])
              for m in (fileio.load_document(str(p))[1] for p in modules)]
    inverted = []
    invert = gkcoh.inverse

    def counting(m):
        if m in gammas:
            inverted.append(m)
        return invert(m)

    monkeypatch.setattr(gkcoh, "inverse", counting)
    assert run(["gkcoh", "--input", str(catalog_dir / "sl2R.pair.json"),
                *sum((["--input", str(p)] for p in modules), [])]) == 0
    assert len(inverted) == len(modules)


def test_validate_skips_module_of_failed_pair(catalog_dir, tmp_path,
                                              monkeypatch):
    from hlk import gkcoh

    doc = json.loads((catalog_dir / "sl2R.pair.json").read_text())
    doc["z0"] = [dict(x, num=2 * x["num"]) for x in doc["z0"]]
    doubled = tmp_path / "sl2R.pair.json"
    doubled.write_text(fileio.canonical_dumps(doc))
    module = str(catalog_dir / "sl2-ds-plus.module.json")
    report = tmp_path / "validate.json"
    assert run(["validate", "--input", str(doubled), "--input", module,
                "--report", str(report)]) == 1
    assert [(c["name"], c["status"], c["detail"]) for c in
            json.loads(report.read_text())["checks"]] == [
        ("pair:sl2R.pair.json", "fail",
         "z0-square: (ad z0)^2 is not -id on p"),
        ("module:sl2-ds-plus.module.json", "skip",
         "pair 'sl2R' failed validation")]
    # a valid pair is split once, however many modules it serves
    splits = []
    split_p = gkcoh.split_p
    monkeypatch.setattr(gkcoh, "split_p",
                        lambda pair: splits.append(pair) or split_p(pair))
    assert run(["validate", "--input", module,
                "--input", str(catalog_dir / "sl2R.pair.json"),
                "--input", str(catalog_dir / "sl2-trivial.module.json")]) == 0
    assert len(splits) == 1


def test_assemble_records_window_exit(tmp_path):
    # the same module windows that gkcoh records as failed window checks
    for name, window in (("sl2-pair", 6), ("genus2-spectrum", 6),
                         ("sl2-trivial", 1), ("sl2-ds-plus", 2),
                         ("sl2-ds-minus", 2)):
        assert run(["catalog", name, "--window", str(window),
                    "--out-dir", str(tmp_path)]) == 0
    inputs = sum((["--input", str(tmp_path / f)] for f in (
        "sl2R.pair.json", "sl2-trivial.module.json", "sl2-ds-plus.module.json",
        "sl2-ds-minus.module.json", "genus2.spectrum.json")), [])
    checks = {}
    for command in ("gkcoh", "assemble"):
        report = tmp_path / f"{command}.json"
        assert run([command, *inputs, "--report", str(report)]) == 1
        checks[command] = json.loads(report.read_text())["checks"]
    window = [c for c in checks["assemble"] if c["name"].endswith(":window")]
    assert window == [c for c in checks["gkcoh"]
                      if c["name"].endswith(":window")]
    assert window[0] == {"name": "sl2-trivial:window", "status": "fail",
                         "detail": "applying e from weight 0 exits the window"}
    assert not [c for c in checks["assemble"]
                if c["name"].startswith("diamond:")]


def test_internal_invariant_failure_exits_3(catalog_dir, monkeypatch,
                                            capsys):
    from hlk import lefschetz as lz

    constructive = lz._lambda_constructive

    def perturbed(ctx):
        lam = constructive(ctx)
        return lam.add(DenseMatrix.diagonal([1] + [0] * (lam.rows - 1)))

    monkeypatch.setattr(lz, "_lambda_constructive", perturbed)
    assert run(["lefschetz",
                "--input", str(catalog_dir / "torus.algebra.json")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("internal error: ") and "Traceback" not in err


def test_singular_lefschetz_basis_is_internal_error(catalog_dir, monkeypatch,
                                                    capsys):
    # no input makes the Lefschetz basis of a cone class singular: it
    # is an internal error, not an input error
    from hlk import lefschetz as lz

    monkeypatch.setattr(lz, "inverse", lambda m: None)
    assert run(["lefschetz",
                "--input", str(catalog_dir / "torus.algebra.json")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("internal error: ") and "Traceback" not in err


def test_readme_names_every_option():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    parsers = [build_parser()]
    options = set()
    while parsers:
        for action in parsers.pop()._actions:
            options.update(action.option_strings)
            if isinstance(action, argparse._SubParsersAction):
                parsers.extend(action.choices.values())
    options -= {"-h", "--help"}
    missing = sorted(o for o in options
                     if not re.search(re.escape(o) + r"(?![\w-])", readme))
    assert missing == []


@pytest.mark.parametrize("case", ["report-dir-missing", "out-dir-is-file"])
def test_unwritable_output_is_input_error(catalog_dir, tmp_path, capsys,
                                          case):
    if case == "report-dir-missing":
        args = ["validate", "--input", str(catalog_dir / "torus.algebra.json"),
                "--report", str(tmp_path / "no-such-dir" / "r.json")]
    else:
        taken = tmp_path / "F"
        taken.write_text("")
        args = ["catalog", "torus", "--out-dir", str(taken)]
    assert run(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: cannot write ") and \
        "Traceback" not in err


def test_catalog_list_order(capsys):
    assert run(["catalog", "--list"]) == 0
    assert capsys.readouterr().out.split() == [
        "torus", "abelian-surface", "k3-mock", "g2-family", "s1s2",
        "sl2-pair", "sl2-product-pair", "sl2-trivial", "sl2-adjoint",
        "sl2-ds-plus", "sl2-ds-minus", "genus2-spectrum", "genus2-suite"]


def test_assemble_dangling_module(catalog_dir, tmp_path):
    spectrum = tmp_path / "dangling.spectrum.json"
    spectrum.write_text(fileio.canonical_dumps(
        [{"module": "no-such-module", "multiplicity": 1, "k2_inv_dim": 1}]))
    code = run(["assemble",
                "--input", str(catalog_dir / "sl2R.pair.json"),
                "--input", str(catalog_dir / "sl2-trivial.module.json"),
                "--input", str(spectrum)])
    assert code == 2


def test_report_determinism(catalog_dir, tmp_path):
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    for rp in (r1, r2):
        assert run(["lefschetz",
                    "--input", str(catalog_dir / "torus.algebra.json"),
                    "--report", str(rp)]) == 0
    assert stripped_report(r1) == stripped_report(r2)


# catalog inputs of one run of each subcommand that reads inputs
SUBCOMMAND_INPUTS = {
    "validate": ["torus.algebra.json", "sl2R.pair.json"],
    "lefschetz": ["torus.algebra.json"],
    "llgen": ["g2-k2.algebra.json"],
    "gkcoh": ["sl2R.pair.json", "sl2-trivial.module.json"],
    "assemble": ["sl2R.pair.json", "sl2-trivial.module.json",
                 "sl2-ds-plus.module.json", "sl2-ds-minus.module.json",
                 "genus2.spectrum.json"],
}


def subcommand_argv(catalog_dir, command):
    return [command, *sum((["--input", str(catalog_dir / f)]
                           for f in SUBCOMMAND_INPUTS[command]), [])]


@pytest.mark.parametrize("command", sorted(SUBCOMMAND_INPUTS))
def test_each_input_is_read_once(catalog_dir, monkeypatch, command):
    # a second read to hash the file could see bytes that were never parsed
    opened = Counter()
    real_open = builtins.open

    def counting(file, *args, **kwargs):
        opened[str(file)] += 1
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting)
    assert run(subcommand_argv(catalog_dir, command)) == 0
    monkeypatch.undo()
    inputs = [str(catalog_dir / f) for f in SUBCOMMAND_INPUTS[command]]
    assert {path: opened[path] for path in inputs} == \
        {path: 1 for path in inputs}


@pytest.mark.parametrize("command", sorted(SUBCOMMAND_INPUTS))
def test_input_digests_are_sha256_of_the_file(catalog_dir, tmp_path,
                                               command):
    report = tmp_path / "report.json"
    assert run([*subcommand_argv(catalog_dir, command),
                "--report", str(report)]) == 0
    inputs = json.loads(report.read_text())["inputs"]
    assert [entry["path"] for entry in inputs] == \
        [str(catalog_dir / f) for f in SUBCOMMAND_INPUTS[command]]
    for entry in inputs:
        data = Path(entry["path"]).read_bytes()
        assert entry["sha256"] == hashlib.sha256(data).hexdigest()


SRC = Path(__file__).resolve().parents[1] / "src"
# runs one subcommand and prints whether OpenSSL's hash module was loaded
HASHLIB_PROBE = ("import sys\n"
                 "from hlk.cli import main\n"
                 "code = main(sys.argv[1:])\n"
                 "print('_hashlib' in sys.modules)\n"
                 "sys.exit(code)\n")


@pytest.mark.skipif(
    not any(importlib.util.find_spec(m) for m in ("_sha2", "_sha256")),
    reason="the interpreter has no builtin SHA-256 module")
@pytest.mark.parametrize("command", ["catalog", *sorted(SUBCOMMAND_INPUTS)])
def test_no_subcommand_loads_openssl(catalog_dir, tmp_path, command):
    if command == "catalog":
        argv = ["catalog", "genus2-suite", "--out-dir", str(tmp_path)]
    else:
        argv = [*subcommand_argv(catalog_dir, command),
                "--report", str(tmp_path / "report.json")]
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", HASHLIB_PROBE, *argv],
                         env=env, capture_output=True, text=True, check=True)
    assert out.stdout.splitlines()[-1] == "False"


def test_kindless_document_accepted(catalog_dir, tmp_path):
    doc = json.loads((catalog_dir / "torus.algebra.json").read_text())
    doc.pop("kind")
    bare = tmp_path / "bare.json"
    bare.write_text(fileio.canonical_dumps(doc))
    assert run(["validate", "--input", str(bare)]) == 0


def test_lefschetz_odd_mode(catalog_dir):
    assert run(["lefschetz", "--mode", "odd",
                "--input", str(catalog_dir / "abelian-surface.algebra.json")]) == 0


def test_llgen_odd_mode(catalog_dir):
    assert run(["llgen", "--mode", "odd",
                "--input", str(catalog_dir / "abelian-surface.algebra.json")]) == 0
