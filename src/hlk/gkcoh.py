"""Relative Lie algebra cohomology with its Hodge bigrading.

Symmetric pairs (g1, k1) with invariant complex structure ad z0, split
p1C = p+ (+) p-, weight-windowed unitary modules, the equivariant
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
from fractions import Fraction
from functools import cached_property
from itertools import combinations

from .algebra import ValidationReport
from .exactlin import (
    DenseMatrix,
    Scalar,
    SpanBuilder,
    ZERO,
    ONE,
    entry_product,
    hermitian_definiteness,
    inverse,
    kernel,
    quotient_cohomology,
    solve,
    unit_vector,
    vec_is_zero,
    zero_vector,
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


# -- reductive pairs --------------------------------------------------------


class ReductivePair:
    """Structure constants of g1 with Cartan split k1 (+) p1.

    ``brackets`` maps (i, j) -> coefficient vector of [e_i, e_j]; only
    nonzero pairs need to be given, antisymmetry is filled in.
    """

    def __init__(self, names, brackets, k_indices, p_indices, b_form, z0,
                 name=""):
        self.names = tuple(names)
        self.dim = len(self.names)
        self.k_indices = tuple(k_indices)
        self.p_indices = tuple(p_indices)
        self.b_form = b_form
        self.z0 = tuple(Scalar.of(x) for x in z0)
        self.name = name
        table = {}
        for (i, j), vec in brackets.items():
            table[(i, j)] = tuple(Scalar.of(x) for x in vec)
        for (i, j), vec in list(table.items()):
            if (j, i) not in table:
                table[(j, i)] = tuple(-x for x in vec)
        self.brackets = table

    def bracket_basis(self, i: int, j: int) -> tuple:
        return self.brackets.get((i, j), zero_vector(self.dim))

    def bracket(self, x, y) -> tuple:
        out = [ZERO] * self.dim
        for i, xi in enumerate(x):
            if xi.is_zero():
                continue
            for j, yj in enumerate(y):
                if yj.is_zero():
                    continue
                c = xi * yj
                for k, v in enumerate(self.bracket_basis(i, j)):
                    if not v.is_zero():
                        out[k] = out[k] + c * v
        return tuple(out)

    def ad(self, x) -> DenseMatrix:
        cols = [self.bracket(x, unit_vector(self.dim, j))
                for j in range(self.dim)]
        return DenseMatrix.from_columns(cols, rows=self.dim)

    def basis_vector(self, i: int) -> tuple:
        return unit_vector(self.dim, i)


def validate_pair(pair: ReductivePair) -> ValidationReport:
    """Check the symmetric-pair axioms, B-definiteness and z0 exactly."""
    rep = ValidationReport()
    n = pair.dim
    k_set, p_set = set(pair.k_indices), set(pair.p_indices)
    if k_set | p_set != set(range(n)) or k_set & p_set:
        rep.add("cartan-partition", "k and p indices do not partition the basis")
        return rep

    for i in range(n):
        for j in range(n):
            lhs = pair.bracket_basis(i, j)
            rhs = tuple(-x for x in pair.bracket_basis(j, i))
            if lhs != rhs:
                rep.add("antisymmetry",
                        f"[{pair.names[i]},{pair.names[j]}] != "
                        f"-[{pair.names[j]},{pair.names[i]}]")

    for i in range(n):
        ei = pair.basis_vector(i)
        for j in range(n):
            ej = pair.basis_vector(j)
            for k in range(n):
                ek = pair.basis_vector(k)
                total = [ZERO] * n
                for term in (pair.bracket(pair.bracket(ei, ej), ek),
                             pair.bracket(pair.bracket(ej, ek), ei),
                             pair.bracket(pair.bracket(ek, ei), ej)):
                    total = [a + b for a, b in zip(total, term)]
                if not vec_is_zero(tuple(total)):
                    rep.add("jacobi",
                            f"Jacobi fails on ({pair.names[i]},"
                            f"{pair.names[j]},{pair.names[k]})")

    def support_in(vec, allowed):
        return all(x.is_zero() for t, x in enumerate(vec) if t not in allowed)

    for i in pair.k_indices:
        for j in pair.k_indices:
            if not support_in(pair.bracket_basis(i, j), k_set):
                rep.add("cartan-kk", "[k,k] leaves k")
        for j in pair.p_indices:
            if not support_in(pair.bracket_basis(i, j), p_set):
                rep.add("cartan-kp", "[k,p] leaves p")
    for i in pair.p_indices:
        for j in pair.p_indices:
            if not support_in(pair.bracket_basis(i, j), k_set):
                rep.add("cartan-pp", "[p,p] leaves k")

    b = pair.b_form
    if b.rows != n or b.cols != n:
        rep.add("b-shape", "B has the wrong shape")
        return rep
    for x in b.entries:
        if not x.is_real():
            rep.add("b-real", "B has non-real entries")
            break
    b_t = b.transpose()
    if b_t != b:
        rep.add("b-symmetric", "B is not symmetric")
    for i in range(n):
        # column j of ad(e_i) is [e_i, e_j], so B^T ad(e_i) at [k, j] is
        # B([e_i, e_j], e_k) and B ad(e_i) at [j, k] is B(e_j, [e_i, e_k])
        ad_i = pair.ad(pair.basis_vector(i))
        lhs, rhs = b_t.mul(ad_i), b.mul(ad_i)
        for j in range(n):
            for k in range(n):
                if lhs.at(k, j) + rhs.at(j, k) != ZERO:
                    rep.add("b-invariance",
                            f"B([{pair.names[i]},{pair.names[j]}],"
                            f"{pair.names[k]}) + ... != 0")
    for i in pair.k_indices:
        for j in pair.p_indices:
            if b.at(i, j) != ZERO:
                rep.add("b-kp-orthogonal", "B does not see k and p orthogonally")
    k_idx = list(pair.k_indices)
    p_idx = list(pair.p_indices)
    if k_idx:
        neg_k = b.submatrix(k_idx, k_idx).scale(Scalar(-1))
        try:
            if not hermitian_definiteness(neg_k):
                rep.add("b-k-negative", "B restricted to k is not negative definite")
        except ValueError:
            rep.add("b-k-negative", "B restricted to k is not symmetric")
    if p_idx:
        try:
            if not hermitian_definiteness(b.submatrix(p_idx, p_idx)):
                rep.add("b-p-positive", "B restricted to p is not positive definite")
        except ValueError:
            rep.add("b-p-positive", "B restricted to p is not symmetric")

    if not support_in(pair.z0, k_set):
        rep.add("z0-location", "z0 is not in k")
    for i in pair.k_indices:
        if not vec_is_zero(pair.bracket(pair.z0, pair.basis_vector(i))):
            rep.add("z0-central", f"[z0, {pair.names[i]}] != 0")
    ad_z0 = pair.ad(pair.z0)
    sq = ad_z0.mul(ad_z0)
    for i in p_idx:
        col = sq.column(i)
        expect = tuple(Scalar(-1) if t == i else ZERO for t in range(n))
        if col != expect:
            rep.add("z0-square", "(ad z0)^2 is not -id on p")
            break
    return rep


@dataclass(frozen=True)
class PSplit:
    """Exact eigenbases of J = ad z0 on the complexified p1."""

    plus: tuple      # vectors in g1_C coordinates, +i eigenvectors
    minus: tuple     # -i eigenvectors

    @property
    def dim(self) -> int:
        return len(self.plus)


def split_p(pair: ReductivePair) -> PSplit:
    ad_z0 = pair.ad(pair.z0)
    n = pair.dim
    p_idx = list(pair.p_indices)
    block = ad_z0.submatrix(p_idx, p_idx)
    d2 = len(p_idx)
    plus, minus = [], []
    for sign, out in ((Scalar(0, 1), plus), (Scalar(0, -1), minus)):
        shifted = block.sub(DenseMatrix.diagonal([sign] * d2))
        for v in kernel(shifted).basis:
            full = [ZERO] * n
            for val, t in zip(v, p_idx):
                full[t] = val
            out.append(tuple(full))
    if len(plus) != len(minus) or 2 * len(plus) != d2:
        raise ValueError("ad z0 does not define a complex structure on p")
    return PSplit(plus=tuple(plus), minus=tuple(minus))


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
    the module's generators, where A_k(w) is the stored block of
    generator k from weight w to w + shift_k.  Every operator here works
    on those blocks, so its cost follows the weight spaces it touches,
    not the window.  The generator inverse, the expansions and the
    blocks are read once per module, whichever check or phase asks.
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
        self.gen_by_name = {g.name: g for g in self.generators}
        self._gamma_inv = None
        self._expanded = {}
        self._blocks = {}
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

    def block(self, k: int, w: int):
        """A_k(w) for a present weight w, or None when weight w + shift_k
        carries no space.  WindowError when that weight or w is outside
        the window or the block is missing; ValueError when the stored
        block has the wrong shape."""
        key = (k, w)
        if key in self._blocks:
            return self._blocks[key]
        gen = self.generators[k]
        target = w + gen.shift
        if abs(target) > self.window:
            raise WindowError(
                f"applying {gen.name} from weight {w} exits the window")
        rows, cols = self.weights.get(target, 0), self.weights.get(w, 0)
        block = self.actions.get((gen.name, w)) if rows else None
        if rows and abs(w) > self.window:
            raise WindowError(f"weight {w} is outside the stored window")
        if rows and block is None:
            raise WindowError(
                f"action block ({gen.name}, from weight {w}) is missing")
        if block is not None and (block.rows, block.cols) != (rows, cols):
            raise ValueError(
                f"action block ({gen.name}, {w}) has shape "
                f"{block.rows}x{block.cols}, expected {rows}x{cols}")
        self._blocks[key] = block
        return block

    def _word_sums(self, terms, w: int) -> dict:
        """sum of c * A_k1 ... A_kr over the terms (c, (k1, ..., kr)), on
        weight w, as {target weight: row-major entry list}.  Each word
        is composed on entry lists; it drops out once its product is
        zero, without reading the blocks left of that point."""
        out = {}
        cols = self.weights.get(w, 0)
        for c, word in terms:
            prod, at = None, w
            for k in reversed(word):
                step = self.block(k, at)
                if step is None:
                    break
                prod = step.entries if prod is None else entry_product(
                    step.entries, prod, step.rows, step.cols, cols)
                at += self.generators[k].shift
                if not any(prod):
                    break
            else:
                if c != ONE:
                    prod = [c * x for x in prod]
                total = out.get(at)
                out[at] = prod if total is None else \
                    [x + y for x, y in zip(total, prod)]
        return out

    def apply(self, x, vec) -> tuple:
        """rho(x) on a flat windowed vector, from the weights where it
        is nonzero."""
        terms = [(c, (k,)) for k, c in enumerate(self.expand(x)) if c]
        out = [ZERO] * self.total_dim
        for w in self.sorted_weights:
            piece = vec[slice(*self.slice_of(w))]
            if vec_is_zero(piece):
                continue
            for target, e in self._word_sums(terms, w).items():
                tlo, _ = self.slice_of(target)
                for t, val in enumerate(entry_product(
                        e, piece, self.weights[target], len(piece), 1)):
                    out[tlo + t] = out[tlo + t] + val
        return tuple(out)


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
    w = module.window
    return [n for n in module.sorted_weights
            if all(abs(n + s) <= w for s in shifts)
            and all(abs(n + s + t) <= w for s in shifts for t in shifts)]


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

    # bracket compatibility on interior weights, as block products:
    # A_i A_j - A_j A_i - sum_k c_k A_k = 0 for [gi, gj] = sum_k c_k gk.
    # When [gj, gi] expands to exactly minus [gi, gj], the (j, i)
    # identity is minus the (i, j) one and fails at the same weights.
    lies, bad = {}, {}
    for i, gi in enumerate(module.generators):
        for j, gj in enumerate(module.generators):
            if i == j:
                continue
            lie = lies[(i, j)] = module.expand(
                pair.bracket(gi.coords, gj.coords))
            if (j, i) in bad and lie == tuple(-c for c in lies[(j, i)]):
                bad[(i, j)] = bad[(j, i)]
            else:
                terms = [(ONE, (i, j)), (-ONE, (j, i))] + \
                    [(-c, (k,)) for k, c in enumerate(lie) if c]
                bad[(i, j)] = [w for w in interior if any(
                    any(e) for e in module._word_sums(terms, w).values())]
            for w in bad[(i, j)]:
                rep.add("bracket-compatibility",
                        f"rho([{gi.name},{gj.name}]) mismatch at weight {w}")

    # unitarity: rho(x)* = -rho(conj x), blockwise against the stored
    # forms: M^H F_target = -F_w N on entry lists
    if not module.unitary:
        return rep
    for i, g in enumerate(module.generators):
        # the generators of rho(conj x) that lead back to the source weight
        back = [(c, (k,)) for k, c in enumerate(
                    module.expand(tuple(z.conjugate() for z in g.coords)))
                if c and module.generators[k].shift == -g.shift]
        for w in module.sorted_weights:
            target = w + g.shift
            if abs(target) > module.window or module.weights.get(target, 0) == 0:
                continue
            r, c = module.weights[target], module.weights[w]
            m = module.block(i, w).entries
            m_h = [m[t * c + s].conjugate()
                   for s in range(c) for t in range(r)]
            lhs = entry_product(m_h, module.forms[target].entries, c, r, r)
            n_back = module._word_sums(back, target).get(w)
            rhs = [ZERO] * (c * r) if n_back is None else [
                -x for x in entry_product(module.forms[w].entries, n_back,
                                          c, c, r)]
            if lhs != rhs:
                rep.add("unitarity",
                        f"{g.name} is not skew-adjoint from weight {w}")
    return rep


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
            src = {k: self.dim(*k) for k in _total_blocks(self, n)}
            dst = {k: self.dim(*k) for k in _total_blocks(self, n + 1)}
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
    module.gamma_inv(pair.dim)     # a bad generator basis fails first
    d = split.dim
    dv = module.total_dim
    slots = split.plus + split.minus

    # ad-action of each k-basis element on p+ (+) p-: slot -> {slot: coeff}
    sides = [("+", 0, split.plus), ("-", d, split.minus)]
    columns = [DenseMatrix.from_columns(v, rows=pair.dim) for _, _, v in sides]
    k_act = {}
    for ki in pair.k_indices:
        h = pair.basis_vector(ki)
        table = []
        for (sign, first, vectors), m in zip(sides, columns):
            for u in vectors:
                coords = solve(m, pair.bracket(h, u))
                if coords is None:
                    raise ValueError(
                        f"[k, p{sign}] is not contained in p{sign}")
                table.append({first + b: c for b, c in enumerate(coords) if c})
        k_act[ki] = table

    # rows of rho(k) as {column: coefficient}, read off its weight blocks
    rho_k = {}
    for ki in pair.k_indices:
        terms = [(c, (k,)) for k, c in
                 enumerate(module.expand(pair.basis_vector(ki))) if c]
        rows = rho_k[ki] = [{} for _ in range(dv)]
        for w in module.sorted_weights:
            lo, _ = module.slice_of(w)
            cols = module.weights[w]
            for target, e in module._word_sums(terms, w).items():
                tlo, _ = module.slice_of(target)
                for t, c in enumerate(e):
                    if c:
                        rows[tlo + t // cols][lo + t % cols] = c

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
                    for vout, rk_row in enumerate(rho_k[ki]):
                        row = {wt * dv + vin: c for vin, c in rk_row.items()}
                        for key, c in moved.items():
                            col = wpos[key] * dv + vout
                            row[col] = row.get(col, ZERO) - c
                        row = {t: x for t, x in row.items() if x}
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
    columns at a time.  The blocks share no coordinate, so the union of
    their kernels' reduced echelon bases, in pivot order, is the reduced
    echelon basis of the whole kernel."""
    root = list(range(ambient))

    def find(c):
        while root[c] != c:
            root[c] = root[root[c]]
            c = root[c]
        return c

    for row in rows:
        first, *rest = row.keys()
        for c in rest:
            root[find(c)] = find(first)
    columns, equations = {}, {}
    for c in range(ambient):
        columns.setdefault(find(c), []).append(c)
    for row in rows:
        equations.setdefault(find(next(iter(row))), []).append(row)
    basis = []
    for r, cols in columns.items():
        eqs = equations.get(r, [])
        if eqs and len(cols) == 1:
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


def _total_blocks(cx: RelativeComplex, n: int):
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
    forms = [(module.slice_of(w), module.forms[w])
             for w in module.sorted_weights]
    grams = {}
    for key, basis in cx.bases.items():
        # the V-side form, one weight block of one wedge at a time
        pieces = [(wt * dv + lo, wt * dv + hi, form)
                  for wt in range(len(cx.wedges[key]))
                  for (lo, hi), form in forms]

        def inner(fa, fb):
            acc = ZERO
            for lo, hi, form in pieces:
                if not vec_is_zero(fa[lo:hi]):
                    for x, y in zip(fa[lo:hi], form.apply(fb[lo:hi])):
                        acc = acc + x.conjugate() * y
            return acc

        grams[key] = DenseMatrix(len(basis), len(basis),
                                 [inner(fa, fb) for fa in basis for fb in basis])
    return grams


def laplacian_kernel_dims(module: AdmissibleModule,
                          cx: RelativeComplex) -> dict:
    """dim ker(dd* + d*d) per total degree, for the induced inner products."""
    grams = _cochain_grams(module, cx)
    total_gram = []
    for n in range(2 * cx.p_dim + 1):
        sizes = {k: cx.dim(*k) for k in _total_blocks(cx, n)}
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
    module.gamma_inv(pair.dim)     # a bad generator basis fails first
    b_inv = inverse(pair.b_form)
    if b_inv is None:
        raise ValueError("B is degenerate")
    interior_weights = module.interior_weights
    if module.sorted_weights and not interior_weights:
        raise WindowError("window too small for any Casimir composition")
    # C = sum_kl M_kl A_k A_l, M_kl = sum_i expand(e_i)_k expand(e^i)_l
    coeffs = {}
    for i in range(pair.dim):
        left = module.expand(pair.basis_vector(i))
        right = module.expand(b_inv.column(i))
        for k, a in enumerate(left):
            for l, b in enumerate(right):
                if a and b:
                    coeffs[(k, l)] = coeffs.get((k, l), ZERO) + a * b
    terms = [(c, word) for word, c in coeffs.items() if c]
    scalars = {}
    non_scalar = []
    for n in interior_weights:
        blocks = module._word_sums(terms, n)
        dim_n = module.weights[n]
        diag = blocks.pop(n, None) or [ZERO] * (dim_n * dim_n)
        # off-weight components must cancel (C is central)
        first = diag[0]
        if not any(any(b) for b in blocks.values()) and all(
                x == (first if t % (dim_n + 1) == 0 else ZERO)
                for t, x in enumerate(diag)):
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
    # omega0(x, y) on the slots: -1/2 S^T B ad(z0) S, columns of S the slots
    s = DenseMatrix.from_columns(split.plus + split.minus, rows=pair.dim)
    w_gram = s.transpose().mul(pair.b_form).mul(pair.ad(pair.z0)).mul(s) \
        .scale(Scalar(Fraction(-1, 2)))

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
