"""Operator Lie algebras generated by Lefschetz sl2 triples.

Bracket closures of {L_w, Lambda_w} families, the symmetric form phi on
the even part of a g=2 dense-leaf model together with the so(phi)
identification, ideal probes, and the finite stand-in for the
product-foliation phenomenon (N commuting sl2 blocks).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
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
    """A span of endomorphisms with echelon-canonical basis.

    ``basis`` is the reduced row echelon basis of the span (flattened
    matrices as rows), so the coordinates of a member are its entries at
    the pivot columns.  The echelon span, the structure constants and
    the adjoint matrices are computed once, on first use, unless the
    constructor is handed the span (``echelon``) and the table
    (``table``), as ``lie_closure`` does.
    """

    ambient: int
    basis: tuple            # DenseMatrix members, canonical order
    closed: bool
    echelon: SpanBuilder | None = field(default=None, compare=False,
                                        repr=False)
    table: dict | None = field(default=None, compare=False, repr=False)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def span(self) -> SpanBuilder:
        """A fresh echelon span of the basis, free for the caller to grow."""
        sb = SpanBuilder(self.ambient * self.ambient)
        for m in self.basis:
            sb.add(m.entries)
        return sb

    @cached_property
    def _echelon(self) -> SpanBuilder:
        return self.span() if self.echelon is None else self.echelon

    def contains(self, mat: DenseMatrix) -> bool:
        return self._echelon.contains(mat.entries)

    def coordinates(self, mat: DenseMatrix):
        """Coordinates of ``mat`` in ``basis``, or None outside the span."""
        return self._echelon.coordinates(mat.entries)

    @cached_property
    def _table(self) -> dict:
        if self.table is not None:
            return self.table
        table, outside = _bracket_pairs(self.basis, self._echelon)
        if outside:
            raise ValueError("algebra is not bracket closed")
        return table

    @cached_property
    def _ad(self) -> tuple:
        """ad(b_i) by sparse columns: ``_ad[i][j]`` lists the (k, c(i, j)_k)
        with c(i, j)_k nonzero, where [b_i, b_j] = sum_k c(i, j)_k b_k."""
        table = structure_constants(self)
        return tuple(
            tuple([(k, c) for k, c in enumerate(table[(i, j)])
                   if c._a or c._b] for j in range(self.dim))
            for i in range(self.dim))


def _bracket_pairs(basis, echelon: SpanBuilder):
    """Bracket each pair i < j of ``basis``, the echelon basis of
    ``echelon``, once.

    Returns the structure constants {(i, j): coordinates of [b_i, b_j]}
    over all ordered pairs and the brackets outside the span; the table
    is complete only when no bracket is outside.
    """
    dim = len(basis)
    zero = zero_vector(dim)
    table, outside = {}, []
    for i in range(dim):
        table[(i, i)] = zero
        for j in range(i + 1, dim):
            c = basis[i].commutator(basis[j])
            coords = echelon.coordinates(c.entries)
            if coords is None:
                outside.append(c)
            elif not outside:
                # [b_j, b_i] = -[b_i, b_j]
                table[(i, j)] = coords
                table[(j, i)] = vec_neg(coords)
    return table, outside


def lie_closure(generators, cap: int = 2000) -> OperatorLieAlgebra:
    """Smallest bracket-closed span containing the generators.

    Grows the span by rounds: each round brackets every pair of the
    current echelon basis once and adds the brackets outside the span.
    A round with nothing outside has the algebra's structure constants,
    which the result keeps.  The echelon span makes the result
    independent of generator enumeration order.  When a round would
    start above ``cap`` the partial result is returned with
    ``closed=False``.
    """
    generators = list(generators)
    if not generators:
        raise ValueError("lie_closure needs at least one generator")
    n = generators[0].rows
    for g in generators:
        if g.rows != n or g.cols != n:
            raise ValueError("generators must share one ambient dimension")
    sb = SpanBuilder(n * n)
    for g in generators:
        sb.add(g.entries)
    while True:
        basis = tuple(DenseMatrix(n, n, row) for row in sb.basis)
        if sb.dim > cap:
            return OperatorLieAlgebra(ambient=n, basis=basis, closed=False)
        table, outside = _bracket_pairs(basis, sb)
        if not outside:
            return OperatorLieAlgebra(ambient=n, basis=basis, closed=True,
                                      echelon=sb, table=table)
        for c in outside:
            sb.add(c.entries)


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
        return lie if lie.closed else replace(lie, closed=True)
    # lie.basis is reduced echelon with an identity block at its pivot
    # columns, so the images of reduced echelon coordinate rows are
    # already the reduced echelon basis of the ideal
    n2 = lie.ambient * lie.ambient
    flat = entry_product([c for row in rows for c in row],
                         [x for b in lie.basis for x in b.entries],
                         len(rows), lie.dim, n2)
    basis = tuple(DenseMatrix(lie.ambient, lie.ambient, flat[t:t + n2])
                  for t in range(0, len(flat), n2))
    return OperatorLieAlgebra(ambient=lie.ambient, basis=basis, closed=True)


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

    The table is computed once per algebra and shared by every caller.
    """
    return lie._table


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
