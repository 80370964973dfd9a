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
from math import lcm

from .algebra import BigradedAlgebra
from .exactlin import DenseMatrix, Scalar, ZERO
from .gkcoh import AdmissibleModule, ModuleGenerator, ReductivePair

__all__ = [
    "InputError",
    "canonical_dumps",
    "detect_kind",
    "load_document",
    "read_input",
    "decode_document",
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


_REQUIRED = object()
_TYPE_NAMES = {int: "an integer", bool: "true or false", str: "a string",
               list: "a list", dict: "an object"}


def _typed(value, kind: type, what: str):
    """``value`` when its JSON type is exactly ``kind``, else InputError.

    The test is on the exact type, so an int is never a bool or a float
    and nothing is coerced.
    """
    if type(value) is not kind:
        raise InputError(f"{what} must be {_TYPE_NAMES[kind]}, "
                         f"got {value!r}")
    return value


def _get(entry, key: str, what: str, kind: type, default=_REQUIRED):
    """Field ``key`` of the JSON object ``entry``, of exact type ``kind``.

    A missing field is an InputError unless a ``default`` is given.
    """
    if type(entry) is not dict:
        raise InputError(f"{what} must be an object, got {entry!r}")
    value = entry.get(key, _REQUIRED)
    if type(value) is kind:
        return value
    if value is not _REQUIRED:
        raise InputError(f"{what} field {key!r} must be "
                         f"{_TYPE_NAMES[kind]}, got {value!r}")
    if default is _REQUIRED:
        raise InputError(f"{what} has no {key!r} field: {entry!r}")
    return default


def _frac_doc(x: Fraction) -> dict:
    return {"num": x.numerator, "den": x.denominator}


def _frac_parse(doc) -> tuple:
    """(num, den) of a fraction document, with den > 0."""
    num = _get(doc, "num", "fraction", int)
    den = _get(doc, "den", "fraction", int)
    if den == 0:
        raise InputError(f"bad fraction {doc!r}: zero denominator")
    return (-num, -den) if den < 0 else (num, den)


def _real_parse(doc) -> Scalar:
    num, den = _frac_parse(doc)
    return Scalar.triple(num, 0, den)


def _parts_parse(re_doc, im_doc) -> Scalar:
    """The Scalar re + im*i of two fraction documents."""
    a, q = _frac_parse(re_doc)
    b, s = _frac_parse(im_doc)
    d = lcm(q, s)
    return Scalar.triple(a * (d // q), b * (d // s), d)


def _coeff_doc(s: Scalar) -> dict:
    return {"coeff_re": _frac_doc(s.re), "coeff_im": _frac_doc(s.im)}


def _coeff_parse(doc) -> Scalar:
    return _parts_parse(_get(doc, "coeff_re", "coefficient", dict),
                        _get(doc, "coeff_im", "coefficient", dict))


def _scalar_doc(s: Scalar) -> dict:
    return {"re": _frac_doc(s.re), "im": _frac_doc(s.im)}


def _scalar_parse(doc) -> Scalar:
    return _parts_parse(_get(doc, "re", "scalar", dict),
                        _get(doc, "im", "scalar", dict))


def _matrix_doc(m: DenseMatrix) -> list:
    return [[_scalar_doc(m.at(i, j)) for j in range(m.cols)]
            for i in range(m.rows)]


def _matrix_parse(doc: list, rows=None, cols=None) -> DenseMatrix:
    flat, widths = [], []
    for row in doc:
        row = _typed(row, list, "matrix row")
        widths.append(len(row))
        flat += [_scalar_parse(x) for x in row]
    if rows is not None and len(widths) != rows:
        raise InputError(f"matrix has {len(widths)} rows, expected {rows}")
    if widths and cols is not None and widths[0] != cols:
        raise InputError(f"matrix has {widths[0]} cols, expected {cols}")
    if not widths:
        return DenseMatrix.zero(rows or 0, cols or 0)
    if len(set(widths)) > 1:
        raise InputError("ragged rows")
    return DenseMatrix(len(widths), widths[0], flat)


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
    g = _get(doc, "g", "algebra", int)
    basis = _get(doc, "basis", "algebra", list)
    names = [_get(b, "name", "basis element", str) for b in basis]
    bidegrees = [(_get(b, "p", "basis element", int),
                  _get(b, "q", "basis element", int)) for b in basis]
    dense_leaf = _get(doc, "dense_leaf", "algebra", bool, True)
    if len(set(names)) != len(names):
        raise InputError("duplicate basis names")
    index = {nm: t for t, nm in enumerate(names)}

    def idx(entry, key, what):
        nm = _get(entry, key, what, str)
        if nm not in index:
            raise InputError(f"unknown basis element {nm!r}")
        return index[nm]

    def coeffs(entries, what) -> dict:
        """{basis index: coefficient} of a list of named coefficients."""
        out = {}
        for r in entries:
            t = idx(r, "name", what)
            if t in out:
                raise InputError(f"duplicate {what} entry for {names[t]!r}")
            out[t] = _coeff_parse(r)
        return out

    products = {}
    for p in _get(doc, "products", "algebra", list, []):
        key = (idx(p, "left", "product"), idx(p, "right", "product"))
        if key in products:
            raise InputError(f"duplicate product entry for {p['left']},"
                             f" {p['right']}")
        products[key] = coeffs(_get(p, "result", "product", list, []),
                               "product result")
    n = len(names)
    conj_of = {}
    for c in _get(doc, "conjugation", "algebra", list, []):
        j = idx(c, "of", "conjugation")
        if j in conj_of:
            raise InputError(f"duplicate conjugation entry for {names[j]!r}")
        conj_of[j] = coeffs(_get(c, "result", "conjugation", list, []),
                            "conjugation result")
    conj = DenseMatrix.from_columns(
        [[conj_of.get(j, {}).get(k, ZERO) for k in range(n)]
         for j in range(n)], rows=n)
    nu = coeffs(_get(doc, "nu", "algebra", list, []), "nu")
    kahler = coeffs(_get(doc, "kahler", "algebra", list, []), "kahler")
    return BigradedAlgebra(
        g, names, bidegrees, products, conj,
        [nu.get(k, ZERO) for k in range(n)],
        dense_leaf=dense_leaf,
        name=_get(doc, "name", "algebra", str, ""),
        kahler=tuple(kahler.get(k, ZERO) for k in range(n))
        if kahler else None)


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
    names = [_typed(x, str, "pair basis name")
             for x in _get(doc, "basis", "pair", list)]
    if len(set(names)) != len(names):
        raise InputError("duplicate pair basis names")
    dim = len(names)
    brackets = {}
    for sc in _get(doc, "structure_constants", "pair", list):
        i, j, k = (_get(sc, key, "structure constant", int)
                   for key in ("i", "j", "k"))
        if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
            raise InputError("structure constant index out of range")
        vec = list(brackets.get((i, j), (ZERO,) * dim))
        vec[k] = vec[k] + _real_parse(sc)
        brackets[(i, j)] = tuple(vec)
    b = DenseMatrix.from_rows(
        [[_real_parse(x) for x in _typed(row, list, "pair B row")]
         for row in _get(doc, "B", "pair", list)])
    if (b.rows, b.cols) != (dim, dim):
        raise InputError(f"pair B is {b.rows} x {b.cols} for {dim} basis "
                         "elements")
    z0 = tuple(_real_parse(x) for x in _get(doc, "z0", "pair", list))
    if len(z0) != dim:
        raise InputError(f"pair z0 has {len(z0)} entries for {dim} basis "
                         "elements")
    k_indices = tuple(_typed(x, int, "pair k_indices entry")
                      for x in _get(doc, "k_indices", "pair", list))
    p_indices = tuple(_typed(x, int, "pair p_indices entry")
                      for x in _get(doc, "p_indices", "pair", list))
    for key, indices in (("k_indices", k_indices), ("p_indices", p_indices)):
        if len(set(indices)) != len(indices):
            raise InputError(f"duplicate {key} entries")
    return ReductivePair(names, brackets, k_indices, p_indices, b, z0,
                         name=_get(doc, "name", "pair", str, ""))


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
    generators = tuple(
        ModuleGenerator(
            _get(g, "name", "generator", str),
            tuple(_scalar_parse(c)
                  for c in _get(g, "coords", "generator", list)),
            _get(g, "shift", "generator", int))
        for g in _get(doc, "generators", "module", list))
    gen_names = {g.name for g in generators}
    if len(gen_names) != len(generators):
        raise InputError("duplicate generator names")
    weights = {}
    forms = {}
    actions = {}
    for wd in _get(doc, "weights", "module", list):
        w = _get(wd, "weight", "weight space", int)
        if w in weights:
            raise InputError(f"duplicate weight {w}")
        d = _get(wd, "dim", "weight space", int)
        weights[w] = d
        forms[w] = _matrix_parse(_get(wd, "form", "weight space", list),
                                 rows=d, cols=d)
        for act in _get(wd, "actions", "weight space", list, []):
            gname = _get(act, "generator", "action", str)
            if gname not in gen_names:
                raise InputError(f"action references unknown generator "
                                 f"{gname!r}")
            key = (gname, _get(act, "from_weight", "action", int))
            if key in actions:
                raise InputError(f"duplicate action block ({gname}, from "
                                 f"weight {key[1]})")
            actions[key] = _matrix_parse(_get(act, "matrix", "action", list))
    return AdmissibleModule(
        name=_get(doc, "name", "module", str, ""),
        pair_name=_get(doc, "pair", "module", str, ""),
        window=_get(doc, "window", "module", int),
        weights=weights, forms=forms, generators=generators,
        actions=actions,
        unitary=_get(doc, "unitary", "module", bool, True))


# -- spectrum ----------------------------------------------------------------


def spectrum_to_doc(entries) -> list:
    return [{"module": e.module, "multiplicity": e.multiplicity,
             "k2_inv_dim": e.k2_inv_dim} for e in entries]


def spectrum_from_doc(doc):
    from .assembler import SpectrumEntry

    return [SpectrumEntry(module=_get(e, "module", "spectrum entry", str),
                          multiplicity=_get(e, "multiplicity",
                                            "spectrum entry", int),
                          k2_inv_dim=_get(e, "k2_inv_dim",
                                          "spectrum entry", int))
            for e in _typed(doc, list, "spectrum")]


# -- kind dispatch -----------------------------------------------------------


def detect_kind(doc) -> str:
    if isinstance(doc, list):
        return "spectrum"
    if not isinstance(doc, dict):
        raise InputError("document must be a JSON object or list")
    if "kind" in doc:
        kind = doc["kind"]
        if kind not in ("algebra", "pair", "module", "spectrum"):
            raise InputError(f"unknown document kind {kind!r}")
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


def read_input(path) -> bytes:
    """The bytes of the file at ``path``; an unreadable file is an
    InputError."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None


def decode_document(path, data: bytes):
    """(kind, object) of the document whose UTF-8 JSON bytes, read from
    ``path``, are ``data``."""
    try:
        doc = json.loads(data.decode("utf-8"))
    except (RecursionError, ValueError) as exc:
        # ValueError covers bad syntax, bytes that are not UTF-8 and
        # integer literals past the interpreter's digit limit
        raise InputError(f"{path} is not valid JSON: {exc}") from None
    return parse_document(doc)


def load_document(path):
    return decode_document(path, read_input(path))
