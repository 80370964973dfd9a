"""Operator Lie algebras generated by Lefschetz sl2 triples.

Bracket closures of {L_w, Lambda_w} families, the symmetric form phi on
the even part of a g=2 dense-leaf model together with the so(phi)
identification, ideal probes, and the finite stand-in for the
product-foliation phenomenon (N commuting sl2 blocks).  Every algebra,
a closure or an ideal, is built by one routine that brackets its echelon
basis in rounds and keeps the structure constants of the last round.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .algebra import BigradedAlgebra
from .exactlin import (
    DenseMatrix,
    Scalar,
    SpanBuilder,
    Subspace,
    ZERO,
    ONE,
    entry_product,
    muladd,
    rank,
    unit_vector,
    vec_is_zero,
    vec_neg,
    zero_vector,
)

__all__ = [
    "OperatorLieAlgebra",
    "PhiForm",
    "SoPhiVerdict",
    "lie_closure",
    "ideal_probe",
    "phi_form",
    "so_phi_equality",
    "product_model",
    "structure_constants",
    "killing_form",
    "killing_nondegenerate",
    "minimal_ideals",
    "is_sl2_block",
    "bracket_table_digest",
]


@dataclass(frozen=True)
class OperatorLieAlgebra:
    """A bracket-closed span of endomorphisms with echelon-canonical basis.

    ``basis`` is the reduced row echelon basis of the span (flattened
    matrices as rows), so the coordinates of a member are its entries at
    the pivot columns.  ``echelon`` is the echelon span of the basis and
    ``table`` the structure constants, both handed in by ``_closure``,
    which builds every instance; the adjoint matrices are read from the
    table once, on first use.
    """

    ambient: int
    basis: tuple            # DenseMatrix members, canonical order
    echelon: SpanBuilder = field(compare=False, repr=False)
    table: dict = field(compare=False, repr=False)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def span(self) -> SpanBuilder:
        """A fresh echelon span of the basis, free for the caller to grow."""
        sb = SpanBuilder(self.ambient * self.ambient)
        for m in self.basis:
            sb.add(m.entries)
        return sb

    def contains(self, mat: DenseMatrix) -> bool:
        return self.echelon.contains(mat.entries)

    def coordinates(self, mat: DenseMatrix):
        """Coordinates of ``mat`` in ``basis``, or None outside the span."""
        return self.echelon.coordinates(mat.entries)

    @cached_property
    def _ad(self) -> tuple:
        """ad(b_i) by sparse columns: ``_ad[i][j]`` lists the (k, c(i, j)_k)
        with c(i, j)_k nonzero, where [b_i, b_j] = sum_k c(i, j)_k b_k."""
        table = structure_constants(self)
        return tuple(
            tuple([(k, c) for k, c in enumerate(table[(i, j)])
                   if c._a or c._b] for j in range(self.dim))
            for i in range(self.dim))


def _bracket_pairs(basis, span: SpanBuilder):
    """Bracket each pair i < j of ``basis``, the echelon basis of
    ``span``, once.

    Returns the structure constants {(i, j): coordinates of [b_i, b_j]}
    over all ordered pairs when every bracket lies in the span.
    Otherwise adds each bracket outside the span to it as it meets it,
    and returns None.
    """
    dim = len(basis)
    zero = zero_vector(dim)
    table = {(i, i): zero for i in range(dim)}
    for i in range(dim):
        for j in range(i + 1, dim):
            c = basis[i].commutator(basis[j]).entries
            coords = None if table is None else span.coordinates(c)
            if coords is None:
                span.add(c)
                table = None
            else:
                # [b_j, b_i] = -[b_i, b_j]
                table[(i, j)] = coords
                table[(j, i)] = vec_neg(coords)
    return table


def _closure(n: int, span: SpanBuilder) -> OperatorLieAlgebra:
    """Bracket closure of ``span`` (flattened n x n matrices), grown in
    place by rounds that bracket each pair of the current echelon basis
    once, until a round adds nothing and so yields the structure constants.
    """
    while True:
        basis = tuple(DenseMatrix(n, n, row) for row in span.basis)
        table = _bracket_pairs(basis, span)
        if table is not None:
            return OperatorLieAlgebra(n, basis, span, table)


def lie_closure(generators) -> OperatorLieAlgebra:
    """Smallest bracket-closed span containing the generators.

    The echelon span makes the result independent of generator
    enumeration order.
    """
    generators = list(generators)
    if not generators:
        raise ValueError("lie_closure needs at least one generator")
    n = generators[0].rows
    sb = SpanBuilder(n * n)
    for g in generators:
        if g.rows != n or g.cols != n:
            raise ValueError("generators must share one ambient dimension")
        sb.add(g.entries)
    return _closure(n, sb)


# -- ideals in structure-constant coordinates ------------------------------


def _ideal_coords(lie: OperatorLieAlgebra, seed) -> tuple:
    """Echelon coordinate basis of the smallest ideal containing ``seed``.

    Grows the ad-invariant span of the seed's coordinate vector and
    stops as soon as it is all of ``lie``.  Each vector that grew the
    span is queued as its residual modulo the span before it, which
    spans the same ideal with fewer nonzeros to sum over.
    """
    dim = lie.dim
    sb = SpanBuilder(dim)
    row = sb.add(seed)
    todo = [row] if row else []
    while todo and sb.dim < dim:
        x = todo.pop()
        support = [(j, v) for j, v in enumerate(x) if v._a or v._b]
        for ad in lie._ad:
            # ad_i x = sum_j x_j ad_i e_j over the nonzero x_j
            y = [ZERO] * dim
            for j, v in support:
                for k, c in ad[j]:
                    y[k] = muladd(y[k], c, v)
            if vec_is_zero(y):
                continue
            row = sb.add(y)
            if row:
                todo.append(row)
                if sb.dim == dim:
                    break
    return sb.basis


def _as_ideal(lie: OperatorLieAlgebra, rows) -> OperatorLieAlgebra:
    """The ideal with echelon coordinate basis ``rows``, as matrices."""
    if len(rows) == lie.dim:
        return lie
    n2 = lie.ambient * lie.ambient
    flat = entry_product([c for row in rows for c in row],
                         [x for b in lie.basis for x in b.entries],
                         len(rows), lie.dim, n2)
    sb = SpanBuilder(n2)
    for t in range(0, len(flat), n2):
        sb.add(flat[t:t + n2])
    # an ideal is closed: one round, which yields its table
    return _closure(lie.ambient, sb)


def ideal_probe(lie: OperatorLieAlgebra, seed: DenseMatrix) -> OperatorLieAlgebra:
    """Smallest ideal of ``lie`` containing ``seed``."""
    if seed.rows != lie.ambient or seed.cols != lie.ambient:
        raise ValueError("seed has the wrong shape")
    coords = lie.coordinates(seed)
    if coords is None:
        raise ValueError("seed is not in the span of the algebra")
    return _as_ideal(lie, _ideal_coords(lie, coords))


# -- structure constants, Killing form, ideals -----------------------------


def structure_constants(lie: OperatorLieAlgebra):
    """c[i][j] = coordinates of [b_i, b_j] in the canonical basis.

    The table is the one the closure built, shared by every caller.
    """
    return lie.table


def killing_form(lie: OperatorLieAlgebra) -> DenseMatrix:
    """K[i][j] = tr(ad b_i ad b_j), summed from the structure constants.

    (ad b_i)[k][l] = c(i, l)_k, so tr(ad b_i ad b_j) is the sum of
    c(i, l)_k c(j, k)_l over k and l: dim^4 products, no matrix products.
    """
    dim = lie.dim
    table = structure_constants(lie)
    nonzero = [[(k, l, x) for l, col in enumerate(ad) for k, x in col]
               for ad in lie._ad]
    entries = [ZERO] * (dim * dim)
    for i in range(dim):
        for j in range(i, dim):
            tr = ZERO
            for k, l, x in nonzero[i]:
                y = table[(j, k)][l]
                if y._a or y._b:
                    tr = muladd(tr, x, y)
            entries[i * dim + j] = entries[j * dim + i] = tr
    return DenseMatrix(dim, dim, entries)


def killing_nondegenerate(lie: OperatorLieAlgebra) -> bool:
    return rank(killing_form(lie)) == lie.dim


def minimal_ideals(lie: OperatorLieAlgebra):
    """Distinct minimal ideals among those generated by basis seeds."""
    dim = lie.dim
    ideals = list(dict.fromkeys(
        _ideal_coords(lie, unit_vector(dim, k)) for k in range(dim)))
    minimal = []
    for cand in ideals:
        space = Subspace(dim, cand)
        proper_sub = any(
            len(other) < len(cand) and all(space.contains(v) for v in other)
            for other in ideals)
        if not proper_sub:
            minimal.append(cand)
    return [_as_ideal(lie, rows) for rows in minimal]


def is_sl2_block(sub: OperatorLieAlgebra) -> bool:
    """dim 3 with nondegenerate Killing form, i.e. a copy of sl2 over C."""
    return sub.dim == 3 and killing_nondegenerate(sub)


def bracket_table_digest(lie: OperatorLieAlgebra) -> str:
    """Stable hash of the structure constants, for reports."""
    import hashlib

    table = structure_constants(lie)
    h = hashlib.sha256()
    for i in range(lie.dim):
        for j in range(lie.dim):
            # "c_0,c_1,...,c_last,;" for each pair
            h.update("".join([f"{c}," if c._a or c._b else "0,"
                              for c in table[(i, j)]]).encode() + b";")
    return h.hexdigest()


# -- the form phi and Theorem-5.2-style identification ---------------------


@dataclass(frozen=True)
class PhiForm:
    """Symmetric pairing on the even part of a g=2 dense-leaf model."""

    indices: tuple          # global basis indices of the even part, ascending
    matrix: DenseMatrix

    @property
    def nondegenerate(self) -> bool:
        return rank(self.matrix) == self.matrix.rows


def phi_form(a: BigradedAlgebra) -> PhiForm:
    """phi pairs H^k with H^(4-k); on H^2 x H^2 it is minus the cup pairing."""
    if a.g != 2:
        raise ValueError("phi is defined for g = 2 models")
    idx = sorted(k for k in range(a.n) if a.degree_of_index(k) % 2 == 0)
    entries = []
    for i in idx:
        di = a.degree_of_index(i)
        row = []
        for j in idx:
            dj = a.degree_of_index(j)
            if di + dj != 4:
                row.append(ZERO)
                continue
            val = a.pairing_gram.at(i, j)
            row.append(-val if di == 2 else val)
        entries.append(row)
    return PhiForm(indices=tuple(idx), matrix=DenseMatrix.from_rows(entries))


@dataclass(frozen=True)
class SoPhiVerdict:
    annihilators: bool      # every basis member X satisfies X^t phi + phi X = 0
    dim: int
    so_dim: int

    @property
    def equal(self) -> bool:
        return self.annihilators and self.dim == self.so_dim


def so_phi_equality(a: BigradedAlgebra, lie: OperatorLieAlgebra) -> SoPhiVerdict:
    """Compare a closed algebra on H^even with so(H^even, phi)."""
    phi = phi_form(a)
    if lie.ambient != len(phi.indices):
        raise ValueError("algebra does not act on the even part")
    ann = all(x.transpose().mul(phi.matrix).add(phi.matrix.mul(x)).is_zero_matrix()
              for x in lie.basis)
    n = len(phi.indices)
    return SoPhiVerdict(annihilators=ann, dim=lie.dim, so_dim=n * (n - 1) // 2)


# -- product model (no dense leaf) -----------------------------------------


def product_model(n_factors: int):
    """N independent copies of the 2-sphere algebra over N leaf-space points.

    Returns the graded algebra (``dense_leaf=False``) and a family of
    cone classes, tuples with a nonzero coefficient in every factor,
    whose L and Lambda operators generate N commuting sl2 blocks.
    """
    if n_factors < 1:
        raise ValueError("need at least one factor")
    names = [f"e{k + 1}" for k in range(n_factors)] + \
            [f"t{k + 1}" for k in range(n_factors)]
    bidegrees = [(0, 0)] * n_factors + [(1, 1)] * n_factors
    products = {}
    for kf in range(n_factors):
        e, t = kf, n_factors + kf
        products[(e, e)] = {e: ONE}
        products[(e, t)] = {t: ONE}
        products[(t, e)] = {t: ONE}
    conj = DenseMatrix.identity(2 * n_factors)
    nu = [ZERO] * (2 * n_factors)
    alg = BigradedAlgebra(1, names, bidegrees, products, conj, nu,
                          dense_leaf=False, name=f"s1s2-N{n_factors}")
    family = []
    for j in range(n_factors):
        coeffs = [ZERO] * (2 * n_factors)
        for k in range(n_factors):
            coeffs[n_factors + k] = Scalar(2 if k == j else 1)
        family.append(tuple(coeffs))
    return alg, family
