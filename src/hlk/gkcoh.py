"""Relative Lie algebra cohomology with its Hodge bigrading.

Over a symmetric pair (g1, k1) with its split p1C = p+ (+) p- (see
``reductive``): weight-windowed unitary modules, the equivariant
cochain complex Hom_{K1}(Lambda^p p+ (x) Lambda^q p-, V), its bigraded
cohomology, the Casimir scalar and the vanishing dichotomy, and the
invariant Lefschetz operator on the d = 0 branch.

Modules are stored over a finite weight window.  Weights inside the
window that carry no space are genuinely zero; weights outside are
unknown, and any operation that would need them raises WindowError
instead of silently truncating.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

from .algebra import ValidationReport
from .exactlin import (
    DenseMatrix,
    Scalar,
    SpanBuilder,
    ZERO,
    ONE,
    hermitian_definiteness,
    inverse,
    kernel,
    muladd,
    quotient_cohomology,
    _dense,
    _nonzero,
    _sparse_sum,
    unit_vector,
    vec_is_zero,
)
from .reductive import (
    PSplit,
    ReductivePair,
    split_p,
    validate_pair,
    _k_action,
    _omega_gram,
)

__all__ = [
    "WindowError",
    "ReductivePair",
    "PSplit",
    "ModuleGenerator",
    "AdmissibleModule",
    "RelativeComplex",
    "CasimirResult",
    "DichotomyResult",
    "ModuleAnalysis",
    "validate_pair",
    "split_p",
    "validate_module",
    "build_complex",
    "cohomology_bigraded",
    "ungraded_cohomology_dims",
    "laplacian_kernel_dims",
    "casimir_action",
    "vanishing_dichotomy",
    "lefschetz_on_complex",
    "analyze_module",
]


class WindowError(ValueError):
    """An operation needed module data beyond the stored weight window."""


# -- admissible weight-windowed modules -------------------------------------


@dataclass(frozen=True)
class ModuleGenerator:
    name: str
    coords: tuple    # coordinates in the pair basis, complex
    shift: int       # weight shift of the action


class AdmissibleModule:
    """K-weight graded module data over a finite window, with its operator
    calculus.

    rho(x) is sum_k c_k A_k for the expansion x = sum_k c_k gamma_k in
    the module's generators.  Each A_k is one sparse operator on the flat
    window basis, {column: {row: entry}} with nonzero entries only, read
    off the stored blocks A_k(w) (generator k from weight w to
    w + shift_k) on first use; the weight forms are one sparse Hermitian
    operator of the same shape.  Every operator here works on their
    nonzeros, so its cost follows the entries it touches, not the
    window.  A block that cannot be used (a window exit, a weight
    outside the window, a missing or misshapen block) raises only when a
    computation reads that generator from that weight.  The generator
    inverse, the expansions and the operators are built once per module,
    whichever check or phase asks.
    """

    def __init__(self, name, pair_name, window, weights, forms, generators,
                 actions, unitary=True):
        self.name = name
        self.pair_name = pair_name
        self.window = window
        # the adjoint-type test modules are not unitarizable; skewness
        # is only enforced when this flag is set
        self.unitary = unitary
        self.weights = {w: d for w, d in weights.items() if d}
        self.forms = dict(forms)
        self.generators = tuple(generators)
        self.actions = dict(actions)
        self.sorted_weights = sorted(self.weights)
        self.offsets = {}
        off = 0
        for w in self.sorted_weights:
            self.offsets[w] = off
            off += self.weights[w]
        self.total_dim = off
        self.columns = {w: range(self.offsets[w], self.offsets[w] + d)
                        for w, d in self.weights.items()}
        self.gen_by_name = {g.name: g for g in self.generators}
        self._gamma_inv = None
        self._expanded = {}
        self.interior_weights = _interior_weights(self)

    def slice_of(self, w: int):
        off = self.offsets[w]
        return off, off + self.weights[w]

    def gamma_inv(self, n: int) -> DenseMatrix:
        """Inverse of the matrix whose columns are the generators, as a
        basis of g1_C of dimension n; ValueError when they are not one."""
        if len(self.generators) != n:
            raise ValueError("module generators must form a basis of g1_C")
        if self._gamma_inv is None:
            self._gamma_inv = inverse(DenseMatrix.from_columns(
                [g.coords for g in self.generators], rows=n))
            if self._gamma_inv is None:
                raise ValueError("module generators are linearly dependent")
        return self._gamma_inv

    def expand(self, x) -> tuple:
        """Coefficients of a g1_C vector in the module's generator basis,
        computed once per distinct vector."""
        x = tuple(Scalar.of(v) for v in x)
        coeffs = self._expanded.get(x)
        if coeffs is None:
            coeffs = self._expanded[x] = self.gamma_inv(len(x)).apply(x)
        return coeffs

    @cached_property
    def _operators(self) -> tuple:
        """(the operator of each generator, its faults): the faults of
        generator k map each weight w it cannot be read from to the type
        and message of the error, checked in the order a stored block
        is checked."""
        ops, faults = [], []
        weights, offsets, window = self.weights, self.offsets, self.window
        for gen in self.generators:
            name, op, bad = gen.name, {}, {}
            for w, cols in weights.items():
                target = w + gen.shift
                if abs(target) > window:
                    bad[w] = (WindowError, f"applying {name} from weight "
                              f"{w} exits the window")
                    continue
                rows = weights.get(target)
                if rows is None:
                    continue
                block = self.actions.get((name, w))
                if abs(w) > window:
                    bad[w] = (WindowError,
                              f"weight {w} is outside the stored window")
                elif block is None:
                    bad[w] = (WindowError, f"action block ({name}, from "
                              f"weight {w}) is missing")
                elif block.rows != rows or block.cols != cols:
                    bad[w] = (ValueError, (
                        f"action block ({name}, {w}) has shape "
                        f"{block.rows}x{block.cols}, expected {rows}x{cols}"))
                else:
                    lo, tlo = offsets[w], offsets[target]
                    for t, x in enumerate(block.entries):
                        if x:
                            i, j = divmod(t, cols)
                            op.setdefault(lo + j, {})[tlo + i] = x
            ops.append(op)
            faults.append(bad)
        return ops, faults

    def operator(self, k: int, w: int) -> dict:
        """A_k, to be read from weight w: WindowError when that weight's
        image leaves the window, w lies outside it or its block is
        missing; ValueError when the stored block has the wrong shape."""
        ops, faults = self._operators
        fault = faults[k].get(w)
        if fault is not None:
            raise fault[0](fault[1])
        return ops[k]

    @cached_property
    def form_operator(self) -> dict:
        """The weight-space forms as one operator on the flat basis."""
        out = {}
        for w in self.sorted_weights:
            lo, hi = self.slice_of(w)
            form = self.forms[w]
            for j in range(hi - lo):
                out[lo + j] = {lo + i: x for i in range(hi - lo)
                               if (x := form.at(i, j))}
        return out

    def words(self, terms, weights) -> dict:
        """sum of c * A_k1 ... A_kr e_j over the terms (c, (k1, ..., kr)),
        for every column j of the ascending ``weights``, as {j: sparse
        vector}.  A word drops out of a weight once its image there is
        zero, and reads no generator left of that point there.  Of the
        generators it reads from a weight they cannot be read from (see
        ``operator``), the first in the order weight, term, letter raises
        its error."""
        ops, faults = self._operators
        spans = {w: self.columns[w] for w in weights}
        sums = {j: {} for span in spans.values() for j in span}
        first = None
        for t, (c, word) in enumerate(terms):
            # the letters in the order they apply; letter p of the word is
            # read from weight w + shift of each source weight w
            letters, shift = [], 0
            for p, k in enumerate(reversed(word)):
                letters.append(ops[k])
                for u, fault in faults[k].items():
                    w = u - shift
                    if w in spans and (first is None or (w, t, p) < first[0]) \
                            and any(_chain(letters[:p], j) for j in spans[w]):
                        first = (w, t, p), fault
                shift += self.generators[k].shift
            *inner, last = letters
            head, rest = (inner[0], inner[1:]) if inner else (None, ())
            # how the last letter's input picks up c: not at all (c is
            # in the unit vector, or 1), negated, or multiplied
            scale = 0 if head is None or c == ONE else 1 if c == -ONE else 2
            for j in sums:
                if head is None:
                    entries = ((j, c),)
                else:
                    vec = head.get(j)
                    for op in rest:
                        if not vec:
                            break
                        vec = _sparse_sum((x, op[s]) for s, x in vec.items()
                                          if s in op)
                    if not vec:
                        continue
                    entries = vec.items()
                acc = sums[j]
                for s, x in entries:
                    col = last.get(s)
                    if col is None:
                        continue
                    if scale:
                        x = -x if scale == 1 else c * x
                    for r, a in col.items():
                        _add_to(acc, r, a, x)
        if first is not None:
            raise first[1][0](first[1][1])
        return sums

    def apply(self, x, vec) -> tuple:
        """rho(x) on a flat windowed vector, from the weights where it
        is nonzero."""
        terms = [(c, (k,)) for k, c in enumerate(self.expand(x)) if c]
        images = self.words(terms, [
            w for w in self.sorted_weights
            if any(vec[j] for j in self.columns[w])])
        return _dense(_sparse_sum((v, images[j]) for j, v in enumerate(vec)
                                  if v), self.total_dim)


def _add_to(vec: dict, r: int, a: Scalar, x: Scalar):
    """vec[r] += a * x on a sparse vector, dropping a zero sum."""
    y = vec.get(r)
    if y is None:
        vec[r] = a if x is ONE else a * x
    elif (y := muladd(y, a, x)):
        vec[r] = y
    else:
        del vec[r]


def _chain(ops, j: int) -> dict:
    """The image of the unit vector e_j under the operators ``ops``
    applied in turn (e_j itself for none); empty once it is zero."""
    if not ops:
        return {j: ONE}
    vec = ops[0].get(j, {})
    for op in ops[1:]:
        vec = _sparse_sum((x, op[t]) for t, x in vec.items() if t in op)
    return vec


def _block_matrix(row_sizes: dict, col_sizes: dict, blocks: dict) -> DenseMatrix:
    """Dense matrix with row and column blocks in the order and of the
    sizes given ({key: size}), holding blocks {(row key, col key):
    matrix} and zeros elsewhere."""
    def offsets(sizes):
        out, off = {}, 0
        for key, size in sizes.items():
            out[key] = off
            off += size
        return out, off

    row_off, rows = offsets(row_sizes)
    col_off, cols = offsets(col_sizes)
    entries = [ZERO] * (rows * cols)
    for (rkey, ckey), m in blocks.items():
        r0, c0 = row_off[rkey], col_off[ckey]
        for i in range(m.rows):
            start = (r0 + i) * cols + c0
            entries[start:start + m.cols] = m.row(i)
    return DenseMatrix(rows, cols, entries)


def _interior_weights(module: AdmissibleModule) -> list:
    """Present weights from which every one- and two-step composition of
    generator shifts stays inside the window."""
    shifts = [g.shift for g in module.generators]
    if not shifts:
        return list(module.sorted_weights)
    # the extreme compositions are the largest and the smallest shifts,
    # taken once or twice
    top = max(max(shifts), 2 * max(shifts))
    bottom = min(min(shifts), 2 * min(shifts))
    w = module.window
    return [n for n in module.sorted_weights
            if n + top <= w and n + bottom >= -w]


def validate_module(pair: ReductivePair, split: PSplit,
                    module: AdmissibleModule) -> ValidationReport:
    """Exact checks: purity and span of the generators, presence and
    shapes of the interior action blocks, bracket compatibility on
    two-step interior weights, positive forms, and skew-Hermitian
    action of the real form (unitarity)."""
    rep = ValidationReport()
    n = pair.dim
    for g in module.generators:
        if len(g.coords) != n:
            rep.add("generator-shape", f"{g.name} has wrong coordinate length")
            return rep

    k_span = SpanBuilder(n)
    for i in pair.k_indices:
        k_span.add(pair.basis_vector(i))
    plus_span = SpanBuilder(n)
    for v in split.plus:
        plus_span.add(v)
    minus_span = SpanBuilder(n)
    for v in split.minus:
        minus_span.add(v)

    for g in module.generators:
        in_k = k_span.contains(g.coords)
        in_plus = plus_span.contains(g.coords)
        in_minus = minus_span.contains(g.coords)
        if not (in_k or in_plus or in_minus):
            rep.add("generator-purity",
                    f"{g.name} is not of pure type (k, p+ or p-)")
        if in_k and g.shift != 0:
            rep.add("generator-shift", f"k-type generator {g.name} must have shift 0")

    try:
        module.gamma_inv(n)
    except ValueError:
        rep.add("generator-span", "generators do not form a basis of g1_C")
        return rep

    for w, d in module.weights.items():
        if abs(w) > module.window:
            rep.add("window", f"weight {w} declared outside the window")
        g = module.forms.get(w)
        if g is None or g.rows != d or g.cols != d:
            rep.add("form-shape", f"weight {w} lacks a {d}x{d} form")
            continue
        try:
            if not hermitian_definiteness(g):
                rep.add("form-positive", f"form at weight {w} is not positive")
        except ValueError:
            rep.add("form-hermitian", f"form at weight {w} is not Hermitian")

    # required action blocks
    for g in module.generators:
        for w, d in module.weights.items():
            target = w + g.shift
            if abs(target) > module.window or module.weights.get(target, 0) == 0:
                continue
            block = module.actions.get((g.name, w))
            if block is None:
                rep.add("action-missing",
                        f"missing block ({g.name}, from weight {w})")
            elif (block.rows, block.cols) != (module.weights[target], d):
                rep.add("action-shape",
                        f"block ({g.name}, {w}) has the wrong shape")
    if not rep.ok:
        return rep

    interior = module.interior_weights
    gamma_inv = module.gamma_inv(n)

    # bracket compatibility on the interior columns, as sparse products:
    # A_i A_j - A_j A_i - sum_k c_k A_k = 0 for [gi, gj] = sum_k c_k gk.
    # When [gj, gi] expands to exactly minus [gi, gj], the (j, i)
    # identity is minus the (i, j) one and fails at the same weights.
    lies, bad = {}, {}
    for i, gi in enumerate(module.generators):
        for j, gj in enumerate(module.generators):
            if i == j:
                continue
            lie = lies[(i, j)] = gamma_inv.apply(
                pair.bracket(gi.coords, gj.coords))
            if (j, i) in bad and lie == tuple(-c for c in lies[(j, i)]):
                bad[(i, j)] = bad[(j, i)]
            else:
                terms = [(ONE, (i, j)), (-ONE, (j, i))] + \
                    [(-c, (k,)) for k, c in enumerate(lie) if c]
                images = module.words(terms, interior)
                bad[(i, j)] = [w for w in interior if any(
                    images[t] for t in module.columns[w])]
            for w in bad[(i, j)]:
                rep.add("bracket-compatibility",
                        f"rho([{gi.name},{gj.name}]) mismatch at weight {w}")

    # unitarity: rho(x)* = -rho(conj x) against the Hermitian forms F.
    # When the part of conj(g_j) that leads back is a g_i whose own part
    # is a g_j, with conj(a) a' = 1, the identity for g_j is the adjoint
    # of the one for g_i and fails on the reversed blocks.
    if not module.unitary:
        return rep
    backs = [[(c, k) for k, c in enumerate(
                 gamma_inv.apply(tuple(z.conjugate() for z in g.coords)))
              if c and module.generators[k].shift == -g.shift]
             for g in module.generators]
    unitary_bad = {}
    for j, g in enumerate(module.generators):
        mirror = backs[j][0][1] if len(backs[j]) == 1 else None
        if mirror in unitary_bad and len(backs[mirror]) == 1 and \
                backs[mirror][0][1] == j and \
                backs[mirror][0][0].conjugate() * backs[j][0][0] == ONE:
            shift = module.generators[mirror].shift
            unitary_bad[j] = [w + shift for w in unitary_bad[mirror]]
        else:
            unitary_bad[j] = _unitarity_failures(module, j, backs[j])
        for w in unitary_bad[j]:
            rep.add("unitarity",
                    f"{g.name} is not skew-adjoint from weight {w}")
    return rep


def _unitarity_failures(module: AdmissibleModule, i: int, back) -> list:
    """The source weights of the blocks where A_i^H F = -F N fails, N the
    combination ``back`` ([(c, k)]) of the generators leading back; each
    block is checked column by column of its target weight, as
    A_i^H F e_t + F N e_t = 0."""
    forms = module.form_operator
    shift = module.generators[i].shift
    out = []
    for w in module.sorted_weights:
        target = w + shift
        if abs(target) > module.window or module.weights.get(target, 0) == 0:
            continue
        # the rows of A_i from weight w, conjugated: u -> [(s, a)]
        op, adjoint = module.operator(i, w), {}
        for s in module.columns[w]:
            for u, a in op.get(s, {}).items():
                adjoint.setdefault(u, []).append((s, a.conjugate()))
        ops = [(c, module.operator(k, target)) for c, k in back]
        for t in module.columns[target]:
            acc = {}
            for u, f in forms[t].items():
                for s, a in adjoint.get(u, ()):
                    _add_to(acc, s, f, a)
            for c, op in ops:
                for v, n in op.get(t, {}).items():
                    n = c * n
                    for s, f in forms[v].items():
                        _add_to(acc, s, f, n)
            if acc:
                out.append(w)
                break
    return out


# -- the relative complex ---------------------------------------------------


def _sort_sign(seq):
    """Sort a tuple of indices; returns (sorted tuple, sign) or None."""
    seq = list(seq)
    sign = 1
    for i in range(len(seq)):
        for j in range(len(seq) - 1 - i):
            if seq[j] == seq[j + 1]:
                return None
            if seq[j] > seq[j + 1]:
                seq[j], seq[j + 1] = seq[j + 1], seq[j]
                sign = -sign
    return tuple(seq), sign


@dataclass
class RelativeComplex:
    """Equivariant cochains C^(p,q) with the two differential components.

    A wedge is a sorted tuple of slots into p+ (+) p-: slot t < d stands
    for split.plus[t] and slot d + t for split.minus[t].
    """

    p_dim: int                      # d = dim p+
    wedges: dict                    # (p,q) -> list of slot tuples
    bases: dict                     # (p,q) -> tuple of flat cochain vectors
    d_plus: dict                    # (p,q) -> matrix into (p+1, q)
    d_minus: dict                   # (p,q) -> matrix into (p, q+1)
    v_total: int
    spans: dict                     # (p,q) -> SpanBuilder of the basis

    def dim(self, p: int, q: int) -> int:
        return len(self.bases.get((p, q), ()))

    def dims(self) -> dict:
        d = self.p_dim
        return {(p, q): self.dim(p, q)
                for p in range(d + 1) for q in range(d + 1)}

    def differential_is_zero(self) -> bool:
        mats = list(self.d_plus.values()) + list(self.d_minus.values())
        return all(m.is_zero_matrix() for m in mats)

    @cached_property
    def total_differentials(self) -> tuple:
        """d: C^n -> C^(n+1) in the block bases, for n = 0 .. 2d."""
        out = []
        for n in range(2 * self.p_dim + 1):
            src = {k: self.dim(*k) for k in _degree_keys(self, n)}
            dst = {k: self.dim(*k) for k in _degree_keys(self, n + 1)}
            blocks = {}
            for p, q in src:
                for tkey, mat in (((p + 1, q), self.d_plus[(p, q)]),
                                  ((p, q + 1), self.d_minus[(p, q)])):
                    if tkey in dst:
                        blocks[(tkey, (p, q))] = mat
            out.append(_block_matrix(dst, src, blocks))
        return tuple(out)

    @cached_property
    def total_cohomology_dims(self) -> dict:
        """dim H^n of the total complex, per degree n."""
        tds = self.total_differentials
        out = {}
        for n, d_out in enumerate(tds):
            d_in = tds[n - 1] if n else DenseMatrix.zero(d_out.cols, 0)
            out[n] = quotient_cohomology(d_in, d_out).dim
        return out


def build_complex(pair: ReductivePair, split: PSplit,
                  module: AdmissibleModule) -> RelativeComplex:
    """Equivariant cochain bases and the bigraded differential.

    K1-invariance of a cochain is k1-equivariance, a linear system per
    bidegree; the differential is the action-only alternating sum, the
    bracket terms being absent for a symmetric pair.
    """
    gamma_inv = module.gamma_inv(pair.dim)   # a bad basis fails first
    d = split.dim
    dv = module.total_dim
    slots = split.plus + split.minus

    k_act = _k_action(pair, split)

    # rows of rho(k) as {column: coefficient}, read off its operators
    rho_k = {}
    for ki in pair.k_indices:
        terms = [(c, (k,)) for k, c in
                 enumerate(gamma_inv.column(ki)) if c]
        rows = rho_k[ki] = [{} for _ in range(dv)]
        for j, col in module.words(terms, module.sorted_weights).items():
            for r, c in col.items():
                rows[r][j] = c

    wedges, bases, spans = {}, {}, {}
    for p in range(d + 1):
        for q in range(d + 1):
            wl = [ii + tuple(d + j for j in jj)
                  for ii in combinations(range(d), p)
                  for jj in combinations(range(d), q)]
            wedges[(p, q)] = wl
            ambient = len(wl) * dv
            spans[(p, q)] = SpanBuilder(ambient)
            rows = []
            wpos = {w: t for t, w in enumerate(wl)}
            for ki in pair.k_indices:
                for wt, w in enumerate(wl):
                    # ad_h moves one slot at a time; coefficients per target
                    moved = {}
                    for a, s in enumerate(w):
                        for b, c in k_act[ki][s].items():
                            res = _sort_sign(w[:a] + (b,) + w[a + 1:])
                            if res is None:
                                continue
                            key, sgn = res
                            moved[key] = moved.get(key, ZERO) + Scalar(sgn) * c
                    # rho(h) f(xi) - f(ad_h xi) = 0, one row per V-coordinate
                    base = wt * dv
                    offsets = [(wpos[key] * dv, c) for key, c in moved.items()
                               if c]
                    for vout, rk_row in enumerate(rho_k[ki]):
                        row = {base + vin: c for vin, c in rk_row.items()}
                        for off, c in offsets:
                            x = row.pop(off + vout, ZERO) - c
                            if x:
                                row[off + vout] = x
                        if row:
                            rows.append(row)
            bases[(p, q)] = _blockwise_kernel(rows, ambient)
            for vec in bases[(p, q)]:
                spans[(p, q)].add(vec)

    cx = RelativeComplex(p_dim=d, wedges=wedges, bases=bases, d_plus={},
                         d_minus={}, v_total=dv, spans=spans)

    def inserted(plus):
        # one slot of p+ (p-) at position a, sign (-1)^a, acting by rho of it
        return lambda w: [((a,), -ONE if a % 2 else ONE, slots[s])
                          for a, s in enumerate(w) if (s < d) == plus]

    for p, q in bases:
        for tkey, store, plus in (((p + 1, q), cx.d_plus, True),
                                  ((p, q + 1), cx.d_minus, False)):
            store[(p, q)] = _wedge_map(
                cx, module, (p, q), tkey, inserted(plus),
                "differential left the equivariant subspace")
    return cx


def _blockwise_kernel(rows, ambient: int) -> tuple:
    """Reduced echelon basis of the kernel of the sparse system ``rows``
    ({column: coefficient} each) on Q(i)^ambient, one connected block of
    columns at a time.  A row in one unknown forces it to 0, which drops
    it from every other row; the other rows join their columns into
    blocks, and a column in no row is free.  The blocks share no
    coordinate, so the union of their kernels' reduced echelon bases,
    in pivot order, is the reduced echelon basis of the whole kernel."""
    zero = {c for row in rows if len(row) == 1 for c in row}
    rows = [r for row in rows if len(row) > 1
            and (r := {c: x for c, x in row.items() if c not in zero})]
    root = {c: c for row in rows for c in row}

    def find(c):
        while root[c] != c:
            root[c] = root[root[c]]
            c = root[c]
        return c

    for row in rows:
        first, *rest = row
        for c in rest:
            root[find(c)] = find(first)
    columns, equations = {}, {}
    for c in sorted(root):
        columns.setdefault(find(c), []).append(c)
    for row in rows:
        equations.setdefault(find(next(iter(row))), []).append(row)
    basis = [unit_vector(ambient, c) for c in range(ambient)
             if c not in zero and c not in root]
    for r, cols in columns.items():
        eqs = equations[r]
        if len(cols) == 1:
            continue    # a nonzero equation in one unknown forces it to 0
        local = DenseMatrix(len(eqs), len(cols),
                            [row.get(c, ZERO) for row in eqs for c in cols])
        for v in kernel(local).basis:
            full = [ZERO] * ambient
            for c, x in zip(cols, v):
                full[c] = x
            basis.append(tuple(full))
    return tuple(sorted(basis, key=lambda v: next(t for t, x in enumerate(v)
                                                  if x)))


def _wedge_map(cx: RelativeComplex, module, src_key, dst_key, terms,
               error: str) -> DenseMatrix:
    """Matrix from C^src to C^dst, in the echelon coordinates of both, of
    the wedge operator g(w) = sum of c * rho(x)(f(w minus positions))
    over ``terms(w)``, a list of (positions, c, x) for each target wedge
    w; x None is the identity on V.  A C^dst beyond the top degree is
    zero.  ArithmeticError(error) when an image leaves the equivariant
    span."""
    if dst_key not in cx.wedges:
        return DenseMatrix.zero(0, cx.dim(*src_key))
    dv = cx.v_total
    spos = {w: t for t, w in enumerate(cx.wedges[src_key])}
    # (target wedge, source wedge, c, x) for every term that meets C^src
    pieces = []
    for wt, w in enumerate(cx.wedges[dst_key]):
        for positions, c, x in terms(w):
            st = spos.get(tuple(s for a, s in enumerate(w)
                                if a not in positions))
            if st is not None:
                pieces.append((wt * dv, st * dv, c, x))
    cols = []
    for f in cx.bases[src_key]:
        img = [ZERO] * (len(cx.wedges[dst_key]) * dv)
        for lo, slo, c, x in pieces:
            piece = f[slo:slo + dv]
            if vec_is_zero(piece):
                continue
            if x is not None:
                piece = module.apply(x, piece)
            for t, val in enumerate(piece):
                if val:
                    img[lo + t] = img[lo + t] + c * val
        coords = cx.spans[dst_key].coordinates(tuple(img))
        if coords is None:
            raise ArithmeticError(error)
        cols.append(coords)
    return DenseMatrix.from_columns(cols, rows=cx.dim(*dst_key))


# -- cohomology --------------------------------------------------------------


def complex_sanity(cx: RelativeComplex) -> bool:
    """d_(n+1) d_n = 0 on the total complex.  On C^(p,q) the (p+2,q),
    (p+1,q+1) and (p,q+2) blocks of that product are d'd', d''d'+d'd''
    and d''d'', so d' and d'' square and anticommute to 0."""
    tds = cx.total_differentials
    return all(nxt.mul(cur).is_zero_matrix()
               for cur, nxt in zip(tds, tds[1:]))


def cohomology_bigraded(cx: RelativeComplex) -> dict:
    """dim H^(p,q) per bidegree, via the (0,1)-component column complexes.

    For fixed p the cochains (C^(p,.), d'') form an honest complex; its
    cohomology models the Dolbeault-type groups carrying the bigrading.
    """
    out = {}
    d = cx.p_dim
    for p in range(d + 1):
        for q in range(d + 1):
            d_out = cx.d_minus[(p, q)]
            if q == 0:
                d_in = DenseMatrix.zero(cx.dim(p, q), 0)
            else:
                d_in = cx.d_minus[(p, q - 1)]
            out[(p, q)] = quotient_cohomology(d_in, d_out).dim
    return out


def _degree_keys(cx: RelativeComplex, n: int):
    """Ordered (p,q) keys of total degree n."""
    return [(p, n - p) for p in range(max(0, n - cx.p_dim),
                                      min(cx.p_dim, n) + 1)]


def ungraded_cohomology_dims(cx: RelativeComplex) -> dict:
    """dim H^n of the total complex, per degree n."""
    return dict(cx.total_cohomology_dims)


def _cochain_grams(module: AdmissibleModule, cx: RelativeComplex) -> dict:
    """Positive Hermitian Gram on each C^(p,q) basis.

    The V side pairs values with the stored weight-space forms; the
    wedge coordinate basis is declared orthonormal, which is enough for
    finite-dimensional Hodge theory (any exact positive form gives
    dim ker(Laplacian) = dim H).
    """
    dv = cx.v_total
    forms = module.form_operator

    def inner(fa: dict, image: dict) -> Scalar:
        acc = ZERO
        for t, x in fa.items():
            y = image.get(t)
            if y is not None:
                acc = muladd(acc, x.conjugate(), y)
        return acc

    grams = {}
    for key, basis in cx.bases.items():
        # F applied to each basis cochain, one wedge's values at a time:
        # coordinate t is value v of the wedge at t - v, and F[r, v] x
        # goes to that wedge's value r
        sparse = [_nonzero(f) for f in basis]
        images = []
        for f in sparse:
            pieces = []
            for t, x in f.items():
                v = t % dv
                pieces.append((x, {t - v + r: y for r, y in forms[v].items()}))
            images.append(_sparse_sum(pieces))
        grams[key] = DenseMatrix(len(basis), len(basis), [
            inner(fa, image) for fa in sparse for image in images])
    return grams


def laplacian_kernel_dims(module: AdmissibleModule,
                          cx: RelativeComplex) -> dict:
    """dim ker(dd* + d*d) per total degree, for the induced inner products."""
    grams = _cochain_grams(module, cx)
    total_gram = []
    for n in range(2 * cx.p_dim + 1):
        sizes = {k: cx.dim(*k) for k in _degree_keys(cx, n)}
        total_gram.append(
            _block_matrix(sizes, sizes, {(k, k): grams[k] for k in sizes}))
    tds = cx.total_differentials
    # the adjoint d_n* = G_n^-1 d_n^H G_(n+1), once per degree, so each
    # Gram is inverted once
    stars = [inverse(total_gram[n]).mul(d_n.conj_transpose())
             .mul(total_gram[n + 1]) if d_n.rows and d_n.cols else None
             for n, d_n in enumerate(tds)]
    out = {}
    for n, d_n in enumerate(tds):
        lap = DenseMatrix.zero(d_n.cols, d_n.cols)
        if stars[n] is not None:
            lap = lap.add(stars[n].mul(d_n))
        if n > 0 and stars[n - 1] is not None:
            lap = lap.add(tds[n - 1].mul(stars[n - 1]))
        out[n] = kernel(lap).dim if lap.rows else 0
    return out


# -- Casimir and the dichotomy ----------------------------------------------


@dataclass
class CasimirResult:
    scalars: dict            # interior present weight -> Scalar
    non_scalar: list         # weights where C is not a scalar
    interior: list

    @property
    def is_scalar(self) -> bool:
        if self.non_scalar or not self.scalars:
            return False
        vals = list(self.scalars.values())
        return all(v == vals[0] for v in vals)

    @property
    def scalar(self) -> Scalar:
        if not self.is_scalar:
            raise ValueError("Casimir does not act by a single scalar")
        return next(iter(self.scalars.values()))


def casimir_action(pair: ReductivePair,
                   module: AdmissibleModule) -> CasimirResult:
    """Scalar of C = sum_i rho(e_i) rho(e^i) on each interior weight space.

    e^i is the B-dual basis.  A weight is interior when every 2-step
    composition of generator shifts stays inside the window; if no
    present weight is interior the window is too small.
    """
    gamma_inv = module.gamma_inv(pair.dim)   # a bad basis fails first
    b_inv = pair.b_inverse
    if b_inv is None:
        raise ValueError("B is degenerate")
    interior_weights = module.interior_weights
    if module.sorted_weights and not interior_weights:
        raise WindowError("window too small for any Casimir composition")
    # C = sum_kl M_kl A_k A_l, M_kl = sum_i expand(e_i)_k expand(e^i)_l,
    # expand(e_i) being column i of the generator inverse
    coeffs = {}
    for i in range(pair.dim):
        left = gamma_inv.column(i)
        right = gamma_inv.apply(b_inv.column(i))
        for k, a in enumerate(left):
            for l, b in enumerate(right):
                if a and b:
                    coeffs[(k, l)] = coeffs.get((k, l), ZERO) + a * b
    terms = [(c, word) for word, c in coeffs.items() if c]
    scalars = {}
    non_scalar = []
    images = module.words(terms, interior_weights)
    for n in interior_weights:
        # a scalar: every column of weight n is that multiple of itself
        # (off-weight components cancel, as C is central)
        span = module.columns[n]
        first = images[span[0]].get(span[0], ZERO)
        if all(images[j] == ({j: first} if first else {}) for j in span):
            scalars[n] = first
        else:
            non_scalar.append(n)
    return CasimirResult(scalars=scalars, non_scalar=non_scalar,
                         interior=interior_weights)


@dataclass
class DichotomyResult:
    branch: str          # "casimir-zero" | "casimir-nonzero" | "not-applicable"
    holds: bool
    detail: str


def vanishing_dichotomy(cx: RelativeComplex,
                        casimir: CasimirResult) -> DichotomyResult:
    """Either d vanishes identically (Casimir 0) or H vanishes entirely."""
    if not casimir.is_scalar:
        return DichotomyResult(
            branch="not-applicable", holds=False,
            detail="Casimir is not a single scalar; module is not "
                   "irreducible-typed")
    c = casimir.scalar
    if c.is_zero():
        holds = cx.differential_is_zero()
        return DichotomyResult(
            branch="casimir-zero", holds=holds,
            detail="d vanishes identically" if holds
            else "d is nonzero despite Casimir 0")
    dims = ungraded_cohomology_dims(cx)
    holds = all(v == 0 for v in dims.values())
    return DichotomyResult(
        branch="casimir-nonzero", holds=holds,
        detail="all cohomology vanishes" if holds
        else f"nonzero cohomology {dims} despite Casimir {c}")


# -- invariant Lefschetz operator -------------------------------------------


def lefschetz_on_complex(pair: ReductivePair, split: PSplit,
                         cx: RelativeComplex) -> dict:
    """Wedge with omega0(x, y) = -1/2 B(x, [z0, y]): C^(p,q) -> C^(p+1,q+1).

    Only meaningful when the cochains already are the cohomology, so
    this raises off the d = 0 branch.
    """
    if not cx.differential_is_zero():
        raise ValueError("Lefschetz operator requires the d = 0 branch")
    w_gram = _omega_gram(pair, split)

    def two_form(w):
        # wedge-with-a-2-form sign (-1)^(a+b+1), 0-based
        return [((a, b), -c if (a + b) % 2 == 0 else c, None)
                for a in range(len(w)) for b in range(a + 1, len(w))
                if (c := w_gram.at(w[a], w[b]))]

    return {(p, q): _wedge_map(cx, None, (p, q), (p + 1, q + 1), two_form,
                               "Lefschetz image left the equivariant subspace")
            for p, q in cx.bases}


# -- one-stop analysis bundle ------------------------------------------------


@dataclass
class ModuleAnalysis:
    hodge_dims: dict             # (p,q) -> dim H^(p,q)
    casimir: CasimirResult
    dichotomy: DichotomyResult
    lefschetz: dict | None       # (p,q) -> matrix, on the d = 0 branch
    cx: RelativeComplex          # the complex all of the above was read from

    @property
    def contributes(self) -> bool:
        return self.dichotomy.branch == "casimir-zero" and self.dichotomy.holds


def analyze_module(pair: ReductivePair, split: PSplit,
                   module: AdmissibleModule) -> ModuleAnalysis:
    cx = build_complex(pair, split, module)
    cas = casimir_action(pair, module)
    dich = vanishing_dichotomy(cx, cas)
    lef = None
    if dich.branch == "casimir-zero" and dich.holds:
        lef = lefschetz_on_complex(pair, split, cx)
    return ModuleAnalysis(
        hodge_dims=cohomology_bigraded(cx),
        casimir=cas,
        dichotomy=dich,
        lefschetz=lef,
        cx=cx)
