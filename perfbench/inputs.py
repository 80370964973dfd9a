"""Seeded benchmark inputs: the shipped catalog, rebased algebras and
rescaled discrete-series modules.

The catalog files come from the program's own ``catalog`` command.  The
rewrites are done here, on the JSON documents, with plain ``Fraction``
arithmetic that shares no code with ``hlk``; every rewrite is mapped
back through its inverse and compared with the original before any
timing starts, so a generator bug cannot pass as a program bug.

Q(i) values are ``(re, im)`` pairs of Fractions.  Every change of basis
here is real, so it acts on both parts alike.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from fractions import Fraction

ZERO = (Fraction(0), Fraction(0))
# off-diagonal entries of a rebasing block
BLOCK_ENTRIES = (Fraction(-1), Fraction(-1, 2), Fraction(1, 2), Fraction(1))
# numerators and denominators of the module weight-vector rescaling
RESCALE_RANGE = range(1, 6)


class GeneratorError(RuntimeError):
    """A rewritten document does not map back onto its original."""


def write_doc(path, doc):
    # the program's canonical form: sorted keys, no spaces, final newline
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")


def read_doc(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def run_catalog(hlk_main, out_dir, commands):
    """Write catalog files with the program's own ``catalog`` command."""
    for argv in commands:
        with contextlib.redirect_stdout(io.StringIO()):
            code = hlk_main(argv + ["--out-dir", out_dir])
        if code != 0:
            raise GeneratorError(f"hlk {' '.join(argv)} exited {code}")


# -- Q(i) values and real rational matrices ---------------------------------


def _frac(doc) -> Fraction:
    return Fraction(doc["num"], doc["den"])


def _frac_doc(x: Fraction) -> dict:
    return {"num": x.numerator, "den": x.denominator}


def _coeff(doc):
    return (_frac(doc["coeff_re"]), _frac(doc["coeff_im"]))


def _coeff_doc(name, z) -> dict:
    return {"name": name, "coeff_re": _frac_doc(z[0]),
            "coeff_im": _frac_doc(z[1])}


def _add(z, w):
    return (z[0] + w[0], z[1] + w[1])


def _scale(c: Fraction, z):
    return (c * z[0], c * z[1])


def _nonzero(z) -> bool:
    return bool(z[0] or z[1])


def _identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def _inverse(m):
    """Inverse of a square Fraction matrix, or None when singular."""
    n = len(m)
    aug = [list(row) + ident for row, ident in zip(m, _identity(n))]
    for c in range(n):
        piv = next((r for r in range(c, n) if aug[r][c]), None)
        if piv is None:
            return None
        aug[c], aug[piv] = aug[piv], aug[c]
        inv = Fraction(1) / aug[c][c]
        aug[c] = [inv * x for x in aug[c]]
        for r in range(n):
            f = aug[r][c]
            if r != c and f:
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[c])]
    return [row[n:] for row in aug]


def _apply(m, vec):
    """Matrix times a Q(i) vector."""
    out = []
    for row in m:
        acc = ZERO
        for a, z in zip(row, vec):
            if a and _nonzero(z):
                acc = _add(acc, _scale(a, z))
        out.append(acc)
    return out


# -- algebras ----------------------------------------------------------------


def parse_algebra(doc):
    """Dense coordinates of an algebra document, keyed by basis position."""
    names = [b["name"] for b in doc["basis"]]
    n = len(names)
    idx = {nm: t for t, nm in enumerate(names)}

    def vector(entries):
        vec = [ZERO] * n
        for e in entries:
            vec[idx[e["name"]]] = _coeff(e)
        return vec

    products = {(idx[p["left"]], idx[p["right"]]): vector(p["result"])
                for p in doc["products"]}
    conj = [vector([])] * n
    for c in doc["conjugation"]:
        conj[idx[c["of"]]] = vector(c["result"])
    return {
        "products": {k: v for k, v in products.items()
                     if any(map(_nonzero, v))},
        "conj": conj,                # conj[j] = image of basis vector j
        "nu": vector(doc["nu"]),
        "kahler": vector(doc["kahler"]) if doc.get("kahler") else None,
    }


def rebase(struct, p, q):
    """The same algebra in the basis f_j = sum_k p[k][j] e_k; q = p^-1."""
    n = len(p)
    cols = [[(k, p[k][j]) for k in range(n) if p[k][j]] for j in range(n)]
    products = {}
    for i in range(n):
        for j in range(n):
            acc = [ZERO] * n
            hit = False
            for a, pa in cols[i]:
                for b, pb in cols[j]:
                    res = struct["products"].get((a, b))
                    if res is None:
                        continue
                    hit = True
                    acc = [_add(x, _scale(pa * pb, y)) for x, y in zip(acc, res)]
            if hit:
                out = _apply(q, acc)
                if any(map(_nonzero, out)):
                    products[(i, j)] = out
    conj = []
    for j in range(n):
        # conj is antilinear, p is real: conj(f_j) = sum_k p[k][j] conj(e_k)
        acc = [ZERO] * n
        for k, pk in cols[j]:
            acc = [_add(x, _scale(pk, y)) for x, y in zip(acc, struct["conj"][k])]
        conj.append(_apply(q, acc))
    nu = []
    for j in range(n):
        acc = ZERO
        for k, pk in cols[j]:
            acc = _add(acc, _scale(pk, struct["nu"][k]))
        nu.append(acc)
    kahler = None if struct["kahler"] is None else _apply(q, struct["kahler"])
    return {"products": products, "conj": conj, "nu": nu, "kahler": kahler}


def algebra_doc(template, struct):
    """An algebra document with the header of ``template`` and the
    coordinates of ``struct``, in the program's canonical order."""
    names = [b["name"] for b in template["basis"]]

    def entries(vec):
        return [_coeff_doc(names[k], z) for k, z in enumerate(vec)
                if _nonzero(z)]

    doc = {key: template[key] for key in ("kind", "name", "g", "dense_leaf",
                                          "basis")}
    doc["products"] = [{"left": names[i], "right": names[j],
                        "result": entries(vec)}
                       for (i, j), vec in sorted(struct["products"].items())]
    doc["conjugation"] = [{"of": names[j], "result": entries(vec)}
                          for j, vec in enumerate(struct["conj"])]
    doc["nu"] = entries(struct["nu"])
    if struct["kahler"] is not None:
        doc["kahler"] = entries(struct["kahler"])
    return doc


def dense_block(m):
    """The m x m block of every rebasing: off-diagonal entries drawn once
    from +-1/2 and +-1 by a fixed stream, and the diagonal that makes
    every row sum to 1; redrawn until invertible."""
    rng = random.Random(f"dense-block-{m}")
    while True:
        block = [[rng.choice(BLOCK_ENTRIES) for _ in range(m)] for _ in range(m)]
        for r in range(m):
            block[r][r] = 1 - sum((x for c, x in enumerate(block[r]) if c != r),
                                  Fraction(0))
        if _inverse(block) is not None:
            return block


def rebasing_matrix(doc, rng):
    """A seeded bidegree-block-diagonal change of basis.

    Every block of dimension at least 2 is ``dense_block`` with its
    columns, the new basis vectors, in a seeded order; one-dimensional
    blocks (the unit of a connected model, the top class) stay fixed.
    The rows of a block sum to 1, so the sum of the block's basis
    vectors is fixed: the unit of a model whose (0,0) block holds
    several idempotents stays their sum, and for a model without a
    designated Kahler class the sum of the degree-2 basis classes stays
    the class the program falls back to.  Every seed gets the same
    block entries, so the height of the arithmetic does not vary with
    the seed; with entries drawn per seed, llgen on g2-k4 ranged over
    +-25% between seeds.
    """
    blocks = {}
    for t, b in enumerate(doc["basis"]):
        blocks.setdefault((b["p"], b["q"]), []).append(t)
    p = _identity(len(doc["basis"]))
    for _, members in sorted(blocks.items()):
        m = len(members)
        if m == 1:
            continue
        block = dense_block(m)
        perm = list(range(m))
        rng.shuffle(perm)
        for r, gr in enumerate(members):
            for c, gc in enumerate(members):
                p[gr][gc] = block[r][perm[c]]
    return p


def rebased_algebra(path, out_path, rng):
    """Rewrite one algebra file in a seeded basis and check the inverse."""
    doc = read_doc(path)
    original = parse_algebra(doc)
    p = rebasing_matrix(doc, rng)
    q = _inverse(p)
    write_doc(out_path, algebra_doc(doc, rebase(original, p, q)))
    back = rebase(parse_algebra(read_doc(out_path)), q, p)
    if back != original:
        raise GeneratorError(f"rebased {os.path.basename(path)} does not map "
                             "back onto the original")


# -- modules -----------------------------------------------------------------


def _scalar(doc):
    return (_frac(doc["re"]), _frac(doc["im"]))


def _scalar_doc(z) -> dict:
    return {"re": _frac_doc(z[0]), "im": _frac_doc(z[1])}


def _matrix(doc):
    return [[_scalar(x) for x in row] for row in doc]


def _matrix_doc(m):
    return [[_scalar_doc(z) for z in row] for row in m]


def parse_module(doc):
    """Forms and action blocks of a module document, keyed by weight."""
    forms = {w["weight"]: _matrix(w["form"]) for w in doc["weights"]}
    actions = {}
    for w in doc["weights"]:
        for act in w["actions"]:
            actions[(act["generator"], act["from_weight"], w["weight"])] = \
                _matrix(act["matrix"])
    return {"forms": forms, "actions": actions}


def rescale(struct, scale):
    """The module in the basis u = s_w v on each weight space w.

    Forms pick up s_w^2 (s is real) and an action block from w to w'
    picks up s_w / s_w'.
    """
    forms = {w: [[_scale(scale[w] ** 2, z) for z in row] for row in m]
             for w, m in struct["forms"].items()}
    actions = {(g, src, dst): [[_scale(scale[src] / scale[dst], z)
                                for z in row] for row in m]
               for (g, src, dst), m in struct["actions"].items()}
    return {"forms": forms, "actions": actions}


def module_doc(template, struct):
    doc = dict(template)
    weights = []
    for w in template["weights"]:
        wt = w["weight"]
        actions = [dict(act, matrix=_matrix_doc(
            struct["actions"][(act["generator"], act["from_weight"], wt)]))
            for act in w["actions"]]
        weights.append(dict(w, form=_matrix_doc(struct["forms"][wt]),
                            actions=actions))
    doc["weights"] = weights
    return doc


def rescaled_module(path, out_path, rng):
    """Rescale each weight space of one module file by a seeded positive
    rational and check that the inverse scaling restores it."""
    doc = read_doc(path)
    original = parse_module(doc)
    scale = {w["weight"]: Fraction(rng.choice(RESCALE_RANGE),
                                   rng.choice(RESCALE_RANGE))
             for w in doc["weights"]}
    write_doc(out_path, module_doc(doc, rescale(original, scale)))
    back = rescale(parse_module(read_doc(out_path)),
                   {w: 1 / s for w, s in scale.items()})
    if back != original:
        raise GeneratorError(f"rescaled {os.path.basename(path)} does not map "
                             "back onto the original")


def make_rng(seed: int, label: str) -> random.Random:
    """One independent stream per rewritten file, so that adding a file
    to a workload leaves the others' inputs unchanged."""
    return random.Random(f"{seed}:{label}")
