"""Interchange formats: canonical JSON for algebras, pairs, modules and
spectra.

All coefficients are exact integer fraction pairs {num, den}; complex
coefficients carry coeff_re/coeff_im (or re/im for raw scalars).
Serialization is canonical: sorted keys, fixed separators, a trailing
newline, and deterministic list orders derived from the objects, so
parse -> emit is byte-stable.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .algebra import BigradedAlgebra
from .exactlin import DenseMatrix, Scalar, ZERO
from .gkcoh import AdmissibleModule, ModuleGenerator, ReductivePair

__all__ = [
    "InputError",
    "canonical_dumps",
    "detect_kind",
    "load_document",
    "parse_document",
    "algebra_to_doc",
    "algebra_from_doc",
    "pair_to_doc",
    "pair_from_doc",
    "module_to_doc",
    "module_from_doc",
    "spectrum_to_doc",
    "spectrum_from_doc",
]


class InputError(ValueError):
    """Malformed or inconsistent input document."""


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _frac_doc(x: Fraction) -> dict:
    return {"num": x.numerator, "den": x.denominator}


def _frac_parse(doc) -> Fraction:
    num = _int_field(doc, "num", "fraction")
    den = _int_field(doc, "den", "fraction")
    if den == 0:
        raise InputError(f"bad fraction {doc!r}: zero denominator")
    return Fraction(num, den)


def _coeff_doc(s: Scalar) -> dict:
    return {"coeff_re": _frac_doc(s.re), "coeff_im": _frac_doc(s.im)}


def _coeff_parse(doc) -> Scalar:
    return Scalar(_frac_parse(_field(doc, "coeff_re", "coefficient")),
                  _frac_parse(_field(doc, "coeff_im", "coefficient")))


def _field(entry, key: str, what: str):
    """entry[key] of a JSON object, or InputError when it is missing."""
    if not isinstance(entry, dict) or key not in entry:
        raise InputError(f"{what} has no {key!r} field: {entry!r}")
    return entry[key]


def _list_field(entry, key: str, what: str, required: bool = False) -> list:
    """A JSON list field; an optional one is empty when absent."""
    value = _field(entry, key, what) if required else entry.get(key, [])
    if not isinstance(value, list):
        raise InputError(f"{what} field {key!r} must be a list, "
                         f"got {value!r}")
    return value


def _int_field(entry, key: str, what: str) -> int:
    """A JSON integer field: floats, bools and strings are rejected."""
    value = _field(entry, key, what)
    if type(value) is not int:
        raise InputError(f"{what} field {key!r} must be an integer, "
                         f"got {value!r}")
    return value


def _bool_field(entry, key: str, what: str, default: bool) -> bool:
    """An optional JSON bool field: numbers and strings are rejected."""
    value = entry.get(key, default)
    if not isinstance(value, bool):
        raise InputError(f"{what} field {key!r} must be true or false, "
                         f"got {value!r}")
    return value


def _int_list(entry, key: str, what: str) -> list:
    """A JSON list of integers: floats, bools and strings are rejected."""
    values = _list_field(entry, key, what, required=True)
    if any(type(x) is not int for x in values):
        raise InputError(f"{what} field {key!r} must hold integers, "
                         f"got {values!r}")
    return values


def _scalar_doc(s: Scalar) -> dict:
    return {"re": _frac_doc(s.re), "im": _frac_doc(s.im)}


def _scalar_parse(doc) -> Scalar:
    try:
        return Scalar(_frac_parse(doc["re"]), _frac_parse(doc["im"]))
    except (KeyError, TypeError) as exc:
        raise InputError(f"bad scalar {doc!r}: {exc}") from None


def _matrix_doc(m: DenseMatrix) -> list:
    return [[_scalar_doc(m.at(i, j)) for j in range(m.cols)]
            for i in range(m.rows)]


def _matrix_parse(doc, rows=None, cols=None) -> DenseMatrix:
    if not isinstance(doc, list):
        raise InputError("matrix must be a list of rows")
    data = [[_scalar_parse(x) for x in row] for row in doc]
    if rows is not None and len(data) != rows:
        raise InputError(f"matrix has {len(data)} rows, expected {rows}")
    if data and cols is not None and len(data[0]) != cols:
        raise InputError(f"matrix has {len(data[0])} cols, expected {cols}")
    if not data:
        return DenseMatrix.zero(rows or 0, cols or 0)
    return DenseMatrix.from_rows(data)


# -- algebra -----------------------------------------------------------------


def algebra_to_doc(a: BigradedAlgebra) -> dict:
    products = []
    for (i, j) in sorted(a._products):
        entry = a._products[(i, j)]
        result = [dict(name=a.names[k], **_coeff_doc(c))
                  for k, c in sorted(entry.items())]
        products.append({"left": a.names[i], "right": a.names[j],
                         "result": result})
    conjugation = []
    for j in range(a.n):
        col = a.conj_matrix.column(j)
        result = [dict(name=a.names[k], **_coeff_doc(c))
                  for k, c in enumerate(col) if not c.is_zero()]
        conjugation.append({"of": a.names[j], "result": result})
    doc = {
        "kind": "algebra",
        "name": a.name,
        "g": a.g,
        "dense_leaf": a.dense_leaf,
        "basis": [{"name": nm, "p": p, "q": q}
                  for nm, (p, q) in zip(a.names, a.bidegrees)],
        "products": products,
        "conjugation": conjugation,
        "nu": [dict(name=a.names[k], **_coeff_doc(c))
               for k, c in enumerate(a.nu) if not c.is_zero()],
    }
    if a.kahler is not None:
        doc["kahler"] = [dict(name=a.names[k], **_coeff_doc(c))
                         for k, c in enumerate(a.kahler) if not c.is_zero()]
    return doc


def algebra_from_doc(doc) -> BigradedAlgebra:
    g = _int_field(doc, "g", "algebra")
    basis = _field(doc, "basis", "algebra")
    if not isinstance(basis, list):
        raise InputError("algebra field 'basis' must be a list")
    names = [str(_field(b, "name", "basis element")) for b in basis]
    bidegrees = [(_int_field(b, "p", "basis element"),
                  _int_field(b, "q", "basis element")) for b in basis]
    dense_leaf = _bool_field(doc, "dense_leaf", "algebra", True)
    if len(set(names)) != len(names):
        raise InputError("duplicate basis names")
    index = {nm: t for t, nm in enumerate(names)}

    def idx(entry, key, what):
        nm = _field(entry, key, what)
        if not isinstance(nm, str) or nm not in index:
            raise InputError(f"unknown basis element {nm!r}")
        return index[nm]

    products = {}
    for p in _list_field(doc, "products", "algebra"):
        key = (idx(p, "left", "product"), idx(p, "right", "product"))
        if key in products:
            raise InputError(f"duplicate product entry for {p['left']},"
                             f" {p['right']}")
        products[key] = {idx(r, "name", "product result"): _coeff_parse(r)
                         for r in _list_field(p, "result", "product")}
    n = len(names)
    conj_cols = [[ZERO] * n for _ in range(n)]
    for c in _list_field(doc, "conjugation", "algebra"):
        j = idx(c, "of", "conjugation")
        for r in _list_field(c, "result", "conjugation"):
            conj_cols[j][idx(r, "name", "conjugation result")] = \
                _coeff_parse(r)
    conj = DenseMatrix.from_columns(conj_cols, rows=n)
    nu = [ZERO] * n
    for e in _list_field(doc, "nu", "algebra"):
        nu[idx(e, "name", "nu")] = _coeff_parse(e)
    kahler = None
    if doc.get("kahler"):
        kahler = [ZERO] * n
        for e in _list_field(doc, "kahler", "algebra"):
            kahler[idx(e, "name", "kahler")] = _coeff_parse(e)
    return BigradedAlgebra(
        g, names, bidegrees, products, conj, nu,
        dense_leaf=dense_leaf,
        name=str(doc.get("name", "")),
        kahler=tuple(kahler) if kahler is not None else None)


# -- reductive pair ----------------------------------------------------------


def pair_to_doc(p: ReductivePair) -> dict:
    constants = []
    for i in range(p.dim):
        for j in range(i + 1, p.dim):
            vec = p.bracket_basis(i, j)
            for k, c in enumerate(vec):
                if c.is_zero():
                    continue
                if not c.is_real():
                    raise InputError("pair structure constants must be real")
                constants.append({"i": i, "j": j, "k": k,
                                  "num": c.re.numerator,
                                  "den": c.re.denominator})
    return {
        "kind": "pair",
        "name": p.name,
        "basis": list(p.names),
        "structure_constants": constants,
        "k_indices": list(p.k_indices),
        "p_indices": list(p.p_indices),
        "B": [[_frac_doc(p.b_form.at(i, j).re) for j in range(p.dim)]
              for i in range(p.dim)],
        "z0": [_frac_doc(x.re) for x in p.z0],
    }


def pair_from_doc(doc) -> ReductivePair:
    try:
        names = [str(x)
                 for x in _list_field(doc, "basis", "pair", required=True)]
        dim = len(names)
        brackets = {}
        for sc in _list_field(doc, "structure_constants", "pair",
                              required=True):
            i, j, k = (_int_field(sc, key, "structure constant")
                       for key in ("i", "j", "k"))
            if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
                raise InputError("structure constant index out of range")
            vec = list(brackets.get((i, j), (ZERO,) * dim))
            vec[k] = vec[k] + Scalar(_frac_parse(sc))
            brackets[(i, j)] = tuple(vec)
        b = DenseMatrix.from_rows(
            [[Scalar(_frac_parse(x)) for x in row]
             for row in _list_field(doc, "B", "pair", required=True)])
        z0 = tuple(Scalar(_frac_parse(x))
                   for x in _list_field(doc, "z0", "pair", required=True))
        return ReductivePair(names, brackets,
                             tuple(_int_list(doc, "k_indices", "pair")),
                             tuple(_int_list(doc, "p_indices", "pair")), b, z0,
                             name=str(doc.get("name", "")))
    except (KeyError, TypeError, ZeroDivisionError) as exc:
        raise InputError(f"bad pair document: {exc}") from None


# -- module ------------------------------------------------------------------


def module_to_doc(m: AdmissibleModule) -> dict:
    gen_order = {g.name: t for t, g in enumerate(m.generators)}
    weight_docs = []
    for w in m.sorted_weights:
        actions = []
        for (gname, from_w), mat in sorted(
                m.actions.items(),
                key=lambda kv: (gen_order[kv[0][0]], kv[0][1])):
            gen = m.gen_by_name[gname]
            if from_w + gen.shift != w:
                continue
            actions.append({"generator": gname, "from_weight": from_w,
                            "matrix": _matrix_doc(mat)})
        weight_docs.append({
            "weight": w,
            "dim": m.weights[w],
            "form": _matrix_doc(m.forms[w]),
            "actions": actions,
        })
    return {
        "kind": "module",
        "name": m.name,
        "pair": m.pair_name,
        "window": m.window,
        "unitary": m.unitary,
        "generators": [{"name": g.name,
                        "coords": [_scalar_doc(c) for c in g.coords],
                        "shift": g.shift} for g in m.generators],
        "weights": weight_docs,
    }


def module_from_doc(doc) -> AdmissibleModule:
    try:
        generators = tuple(
            ModuleGenerator(
                str(_field(g, "name", "generator")),
                tuple(_scalar_parse(c) for c in
                      _list_field(g, "coords", "generator", required=True)),
                _int_field(g, "shift", "generator"))
            for g in _list_field(doc, "generators", "module", required=True))
        gen_names = {g.name for g in generators}
        weights = {}
        forms = {}
        actions = {}
        for wd in _list_field(doc, "weights", "module", required=True):
            w = _int_field(wd, "weight", "weight space")
            d = _int_field(wd, "dim", "weight space")
            weights[w] = d
            forms[w] = _matrix_parse(_field(wd, "form", "weight space"),
                                     rows=d, cols=d)
            for act in _list_field(wd, "actions", "weight space"):
                gname = str(_field(act, "generator", "action"))
                if gname not in gen_names:
                    raise InputError(f"action references unknown generator "
                                     f"{gname!r}")
                actions[(gname, _int_field(act, "from_weight", "action"))] = \
                    _matrix_parse(_field(act, "matrix", "action"))
        return AdmissibleModule(
            name=str(doc.get("name", "")),
            pair_name=str(doc.get("pair", "")),
            window=_int_field(doc, "window", "module"),
            weights=weights, forms=forms, generators=generators,
            actions=actions,
            unitary=_bool_field(doc, "unitary", "module", True))
    except (KeyError, TypeError) as exc:
        raise InputError(f"bad module document: {exc}") from None


# -- spectrum ----------------------------------------------------------------


def spectrum_to_doc(entries) -> list:
    return [{"module": e.module, "multiplicity": e.multiplicity,
             "k2_inv_dim": e.k2_inv_dim} for e in entries]


def spectrum_from_doc(doc):
    from .assembler import SpectrumEntry

    if not isinstance(doc, list):
        raise InputError("spectrum must be a JSON list")
    return [SpectrumEntry(module=str(_field(e, "module", "spectrum entry")),
                          multiplicity=_int_field(e, "multiplicity",
                                                  "spectrum entry"),
                          k2_inv_dim=_int_field(e, "k2_inv_dim",
                                                "spectrum entry"))
            for e in doc]


# -- kind dispatch -----------------------------------------------------------


def detect_kind(doc) -> str:
    if isinstance(doc, list):
        return "spectrum"
    if not isinstance(doc, dict):
        raise InputError("document must be a JSON object or list")
    kind = doc.get("kind")
    if kind in ("algebra", "pair", "module", "spectrum"):
        return kind
    if "basis" in doc and "g" in doc:
        return "algebra"
    if "structure_constants" in doc:
        return "pair"
    if "weights" in doc and "generators" in doc:
        return "module"
    raise InputError("cannot determine document kind")


def parse_document(doc):
    kind = detect_kind(doc)
    if kind == "algebra":
        return kind, algebra_from_doc(doc)
    if kind == "pair":
        return kind, pair_from_doc(doc)
    if kind == "module":
        return kind, module_from_doc(doc)
    return kind, spectrum_from_doc(doc)


def load_document(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from None
    return parse_document(doc)
