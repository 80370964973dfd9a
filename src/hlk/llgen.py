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
from math import isqrt, lcm

from . import sha256
from .algebra import BigradedAlgebra
from .exactlin import (
    DenseMatrix,
    Scalar,
    SpanBuilder,
    Subspace,
    ZERO,
    ONE,
    _commutator,
    _dense,
    _left_index,
    _nonzero,
    _null_vectors,
    _row_nonzeros,
    _sparse_sum,
    entry_product,
    kernel,
    muladd,
    rank,
    solve,
    unit_vector,
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
    "CensusError",
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
    which builds every instance.
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
    def _by_left(self) -> dict:
        return _left_index(self.table)


def _bracket_pairs(n: int, basis, span: SpanBuilder):
    """Bracket each pair i < j of ``basis``, the echelon basis of
    ``span`` as n x n matrices, once.

    Returns the structure constants when every bracket lies in the span,
    sparse like an algebra's products: {(i, j): {k: c}} with
    [b_i, b_j] = sum_k c b_k, holding only the nonzero c and only the
    pairs with a nonzero bracket.  Otherwise adds each bracket outside
    the span to it as it meets it, and returns None.
    """
    dim = len(basis)
    # each member's row nonzeros, listed once for all its pairs
    rows = [_row_nonzeros(m.entries, n) for m in basis]
    table = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            c = _commutator(rows[i], rows[j], n)
            coords = None if table is None else span.coordinates(c)
            if coords is None:
                span.add(c)
                table = None
                continue
            col = _nonzero(coords)
            if col:
                # [b_j, b_i] = -[b_i, b_j]
                table[(i, j)] = col
                table[(j, i)] = {k: -x for k, x in col.items()}
    return table


def _closure(n: int, span: SpanBuilder) -> OperatorLieAlgebra:
    """Bracket closure of ``span`` (flattened n x n matrices), grown in
    place by rounds that bracket each pair of the current echelon basis
    once, until a round adds nothing and so yields the structure constants.
    """
    while True:
        basis = tuple(DenseMatrix(n, n, row) for row in span.basis)
        table = _bracket_pairs(n, basis, span)
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
        x = _nonzero(todo.pop())
        for i in range(dim):
            # ad_i x = sum_j x_j [b_i, b_j] over the nonzero x_j
            y = _sparse_sum((v, col) for j, col in lie._by_left.get(i, ())
                            if (v := x.get(j)) is not None)
            if not y:
                continue
            row = sb.add(_dense(y, dim))
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
    """{(i, j): {k: c}} with [b_i, b_j] = sum_k c b_k in the canonical
    basis, nonzero c only; a pair with a zero bracket is absent.

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
    entries = [ZERO] * (dim * dim)
    for i in range(dim):
        # the nonzero (ad b_i)[k][l] = c(i, l)_k as (k, l, c)
        ad_i = [(k, l, x) for l, col in lie._by_left.get(i, ())
                for k, x in col.items()]
        for j in range(i, dim):
            tr = ZERO
            for k, l, x in ad_i:
                y = table.get((j, k), {}).get(l)
                if y is not None:
                    tr = muladd(tr, x, y)
            entries[i * dim + j] = entries[j * dim + i] = tr
    return DenseMatrix(dim, dim, entries)


def killing_nondegenerate(lie: OperatorLieAlgebra) -> bool:
    return rank(killing_form(lie)) == lie.dim


class CensusError(Exception):
    """The census could not certify a decomposition into simple ideals."""


def minimal_ideals(lie: OperatorLieAlgebra, triples):
    """The simple ideals of ``lie``, the algebra generated by the sl2
    ``triples`` (L_w, Lambda_w, B), read off the g_0-commutant on g_2.

    ad B grades the algebra as g_-2 + g_0 + g_2 with g_2 = span{L_w},
    and g_0 is spanned by the h_ab = [L_a, Lambda_b].  Every ideal is
    graded, and a simple ideal meets g_2: one that did not would commute
    with every L_w and Lambda_w (in an sl2 module (ad L_w)^2 is
    injective on weight -2), so it would be central.  The simple ideals
    therefore cut g_2 into g_0-submodules, and the commutant of g_0 on
    g_2 has one idempotent per ideal.  A 1-dimensional commutant means
    ``lie`` is simple.  Otherwise g_2 is split by the minimal
    polynomials of commutant elements, factored exactly over Q(i), until
    every piece has a commutant that is a field; each piece generates
    one ideal.  Raises CensusError when a factorisation stays open or
    the ideals do not sum directly to ``lie``.
    """
    if lie.dim == 0:
        return []
    n = lie.ambient
    g2 = SpanBuilder(n * n)
    for tri in triples:
        g2.add(tri.L.entries)
    l_basis = [DenseMatrix(n, n, row) for row in g2.basis]
    m = len(l_basis)
    actions = []
    h_span = SpanBuilder(n * n)

    def recorded():
        for a, ta in enumerate(triples):
            for b, tb in enumerate(triples):
                if a == b:
                    continue    # [L_a, Lambda_a] = -B acts on g_2 by -2
                h = ta.L.commutator(tb.Lambda)
                if not h_span.add(h.entries):
                    continue    # ad h combines the earlier actions
                cols = [g2.coordinates(h.commutator(x).entries)
                        for x in l_basis]
                if None in cols:
                    raise CensusError("undetermined: [g_0, g_2] leaves "
                                      "the span of the L_w")
                actions.append(DenseMatrix.from_columns(cols, rows=m))
                yield actions[-1]

    commutant = _commutant(recorded(), m)
    if len(commutant) == 1:
        return [lie]
    # a larger commutant consumed every action
    pieces = _split([unit_vector(m, t) for t in range(m)], actions,
                    commutant)
    rows = []
    l_cols = DenseMatrix.from_columns(g2.basis)
    for piece in pieces:
        coords = [lie.coordinates(DenseMatrix(n, n, l_cols.apply(v)))
                  for v in piece]
        if None in coords:
            raise CensusError("the L_w are not in the algebra")
        ideal = _ideal_coords(lie, coords[0])
        if not all(Subspace(lie.dim, ideal).contains(c) for c in coords):
            raise CensusError(
                f"a piece of g_2 of dim {len(piece)} is not inside the "
                f"ideal it generates")
        rows.append(ideal)
    dims = sorted(len(r) for r in rows)
    if sum(dims) != lie.dim or \
            rank(DenseMatrix.from_rows([v for r in rows for v in r])) \
            != lie.dim:
        raise CensusError(f"ideals of dims {dims} do not sum directly to "
                          f"the algebra of dim {lie.dim}")
    return [_as_ideal(lie, r) for r in rows]


def _commutant(actions, d: int) -> list:
    """Basis of the d x d matrices X with XA = AX for every A in
    ``actions``, as DenseMatrix members; just the identity as soon as
    the equations reach rank d^2 - 1."""
    size = d * d
    identity = DenseMatrix.identity(d)
    if d == 1:
        return [identity]
    sb = SpanBuilder(size)
    for act in actions:
        e = act.entries
        for i in range(d):
            for j in range(d):
                # (XA - AX)_ij = sum_k X_ik A_kj - A_ik X_kj
                row = [ZERO] * size
                for k in range(d):
                    row[i * d + k] = row[i * d + k] + e[k * d + j]
                    row[k * d + j] = row[k * d + j] - e[i * d + k]
                if sb.add(row) and sb.dim == size - 1:
                    return [identity]
    return [DenseMatrix(d, d, v)
            for v in _null_vectors(sb.basis, sb.pivots, size)]


def _split(piece, actions, commutant=None) -> list:
    """Split the g_0-submodule ``piece`` of g_2 (a list of independent
    vectors in g_2 coordinates) into pieces whose commutant is a field.

    ``actions`` are the matrices of g_0 on g_2; ``commutant``, when
    given, is the commutant on ``piece`` in the coordinates of its
    vectors.  An element c of the commutant whose minimal polynomial has
    a simple root t in Q(i) (``_root`` finds no other) and degree >= 2
    splits the piece into ker (c - t) and im (c - t), both nonzero
    g_0-submodules.
    """
    d = len(piece)
    if d == 1:
        return [piece]
    if commutant is None:
        span = SpanBuilder(len(piece[0]))
        for v in piece:
            span.add(v)
        piece = list(span.basis)
        restricted = []
        for act in actions:
            cols = [span.coordinates(act.apply(v)) for v in piece]
            if None in cols:
                raise CensusError("undetermined: a piece of g_2 is not "
                                  "g_0-invariant")
            restricted.append(DenseMatrix.from_columns(cols, rows=d))
        commutant = _commutant(restricted, d)
    if len(commutant) == 1:
        return [piece]
    rootless = set()     # degrees of minimal polynomials with no root
    for c in commutant:
        poly = _minimal_polynomial(c)
        if len(poly) < 3:
            continue
        root = _root(poly)
        if root is None:
            rootless.add(len(poly) - 1)
            continue
        shifted = c.sub(DenseMatrix.identity(d).scale(root))
        ker = kernel(shifted).basis
        image = Subspace.from_vectors(
            d, [shifted.column(j) for j in range(d)]).basis
        cols = DenseMatrix.from_columns(piece)
        return [p for part in (ker, image)
                for p in _split([cols.apply(v) for v in part], actions)]
    if len(commutant) in rootless and len(commutant) <= 3:
        # Q(i)[c] fills the commutant, and c's minimal polynomial has no
        # root and degree 2 or 3, so is irreducible: a field
        return [piece]
    raise CensusError(
        f"undetermined: a commutant of dim {len(commutant)} on a piece of "
        f"g_2 of dim {d} is neither split nor shown to be a field")


def _minimal_polynomial(c: DenseMatrix) -> list:
    """Coefficients, lowest first, of the monic minimal polynomial of c:
    the first power c^k that is a combination of the lower ones."""
    d = c.rows
    powers = [DenseMatrix.identity(d).entries]
    while True:
        top = DenseMatrix(d, d, powers[-1]).mul(c).entries
        sol = solve(DenseMatrix.from_columns(powers, rows=d * d), top)
        if sol is not None:
            return [-x for x in sol] + [ONE]
        powers.append(top)


def _root(poly):
    """A simple root in Q(i) of the monic ``poly`` (lowest coefficient
    first, degree >= 1), or None when it has no root; raises CensusError
    when its roots cannot be shown simple.

    x -> y/D, D the common denominator, turns ``poly`` into a monic
    polynomial over Z[i], whose roots in Q(i) all lie in Z[i] (the
    rational-root test); ``_gaussian_integer_roots`` finds them all.
    """
    deg = len(poly) - 1
    den = 1
    for c in poly:
        den = lcm(den, c._d)
    ints = []
    for j, c in enumerate(poly):
        c = c * Scalar(den ** (deg - j))
        ints.append((c._a, c._b))
    roots = _gaussian_integer_roots(ints)
    return Scalar(*roots[0]) / Scalar(den) if roots else None


def _horner(coeffs, x: int, y: int, mod=None):
    """The value at x + y i of the polynomial with Gaussian-integer
    coefficients (re, im), lowest first; reduced mod ``mod`` if given."""
    re = im = 0
    for a, b in reversed(coeffs):
        re, im = re * x - im * y + a, re * y + im * x + b
        if mod:
            re, im = re % mod, im % mod
    return re, im


# primes p = 3 mod 4, for which Z[i]/p is the field F_p[i]
_PRIMES = (3, 7, 11, 19, 23, 31, 43, 47, 59, 67, 71, 79, 83)


def _gaussian_integer_roots(ints) -> list:
    """Every root in Z[i] of the monic polynomial with Gaussian-integer
    coefficients ``ints``, pairs (re, im) lowest first.

    A root y has |y| <= 1 + max |a_j| (Cauchy).  Modulo a prime p = 3
    mod 4 at which every root is simple, each root of the polynomial in
    F_p[i] lifts by Newton's iteration to a unique root modulo p^e, so
    every root in Z[i] is the symmetric residue of one of those lifts
    once p^e exceeds twice the bound; each candidate is checked exactly.
    """
    bound = 1 + max(isqrt(a * a + b * b) + 1 for a, b in ints[:-1])
    deriv = [(j * a, j * b) for j, (a, b) in enumerate(ints)][1:]
    for p in _PRIMES:
        mod_roots = [(x, y) for x in range(p) for y in range(p)
                     if _horner(ints, x, y, p) == (0, 0)]
        if any(_horner(deriv, x, y, p) == (0, 0) for x, y in mod_roots):
            continue    # a multiple root modulo p
        out = []
        for x, y in mod_roots:
            m = p
            while m <= 2 * bound:
                m *= m
                f, g = _horner(ints, x, y, m), _horner(deriv, x, y, m)
                # 1/(u + v i) = (u - v i)/(u^2 + v^2), a unit mod p
                inv = pow(g[0] * g[0] + g[1] * g[1], -1, m)
                u, v = g[0] * inv, -g[1] * inv
                x = (x - f[0] * u + f[1] * v) % m
                y = (y - f[0] * v - f[1] * u) % m
            x, y = (x - m if 2 * x > m else x), (y - m if 2 * y > m else y)
            if _horner(ints, x, y) == (0, 0):
                out.append((x, y))
        return out
    raise CensusError("undetermined: a minimal polynomial has a multiple "
                      "root modulo every prime tried")


def is_sl2_block(sub: OperatorLieAlgebra) -> bool:
    """dim 3 with nondegenerate Killing form, i.e. a copy of sl2 over C."""
    return sub.dim == 3 and killing_nondegenerate(sub)


def bracket_table_digest(lie: OperatorLieAlgebra) -> str:
    """Stable hash of the structure constants, for reports."""
    table = structure_constants(lie)
    h = sha256()
    for i in range(lie.dim):
        for j in range(lie.dim):
            # "c_0,c_1,...,c_last,;" for each pair, "0," for a zero c_k
            col = table.get((i, j), {})
            h.update("".join([f"{col[k]}," if k in col else "0,"
                              for k in range(lie.dim)]).encode() + b";")
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
