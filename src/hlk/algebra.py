"""Finite bigraded models of reduced leafwise cohomology algebras.

A model is a graded-commutative unital algebra over Q(i) whose basis
elements carry bidegrees (p, q) with 0 <= p, q <= g, together with an
antilinear conjugation swapping (p, q) and (q, p), and a linear
functional nu supported on the one-dimensional (g, g) component.  The
"dense leaf" normalization (1-dimensional top, nu an isomorphism,
non-degenerate cup pairing) is checked by the validator; product models
without a dense leaf reuse the same container with ``dense_leaf=False``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .exactlin import (
    DenseMatrix,
    Scalar,
    ZERO,
    ONE,
    SpanBuilder,
    _bilinear,
    _dense,
    _left_index,
    _nonzero,
    _sparse_sum,
    _table,
    rank,
    solve,
    vec_add,
    vec_sub,
    vec_conj,
    vec_is_zero,
    vec_scale,
    unit_vector,
)

__all__ = ["BigradedAlgebra", "Violation", "ValidationReport", "validate_algebra"]


class BigradedAlgebra:
    """Structure-constant model of a bigraded cohomology algebra."""

    def __init__(self, g, names, bidegrees, products, conj, nu,
                 dense_leaf=True, name="", kahler=None):
        """products: dict (i, j) -> {k: Scalar} giving e_i cup e_j.

        Missing (i, j) pairs mean the product is zero.  ``conj`` is the
        matrix of the antilinear conjugation in the given basis, ``nu``
        a coefficient vector, ``kahler`` an optional distinguished real
        (1,1) class.
        """
        self.g = g
        self.names = tuple(names)
        self.bidegrees = tuple((int(p), int(q)) for p, q in bidegrees)
        n = len(self.names)
        if len(self.bidegrees) != n:
            raise ValueError("bidegree count does not match basis size")
        self.n = n
        self._products = _table(products)
        self._by_left = _left_index(self._products)
        self.conj_matrix = conj
        self.nu = tuple(Scalar.of(x) for x in nu)
        if len(self.nu) != n:
            raise ValueError("nu length does not match basis size")
        self.dense_leaf = dense_leaf
        self.name = name
        self.kahler = tuple(kahler) if kahler is not None else None

        self.by_degree = {}
        self.by_bidegree = {}
        for idx, (p, q) in enumerate(self.bidegrees):
            self.by_degree.setdefault(p + q, []).append(idx)
            self.by_bidegree.setdefault((p, q), []).append(idx)
        self._name_index = {nm: k for k, nm in enumerate(self.names)}
        self._unit = None
        # Lefschetz data per (class, mode), kept here so that it is freed
        # together with the algebra
        self.lefschetz_contexts = {}

    # -- basic access -------------------------------------------------

    def index_of(self, name: str) -> int:
        return self._name_index[name]

    def basis_vector(self, idx) -> tuple:
        if isinstance(idx, str):
            idx = self.index_of(idx)
        return unit_vector(self.n, idx)

    def degree_of_index(self, idx: int) -> int:
        p, q = self.bidegrees[idx]
        return p + q

    def degree_indices(self, r: int):
        return tuple(self.by_degree.get(r, ()))

    def bidegree_indices(self, p: int, q: int):
        return tuple(self.by_bidegree.get((p, q), ()))

    def degree_of_vector(self, vec):
        """Total degree of a homogeneous vector, or None for 0 / mixed."""
        degs = {self.degree_of_index(k) for k, x in enumerate(vec)
                if not x.is_zero()}
        if len(degs) != 1:
            return None
        return degs.pop()

    # -- algebra operations -------------------------------------------

    def mulvec(self, x, y) -> tuple:
        return _dense(_bilinear(self._by_left, _nonzero(x), _nonzero(y)),
                      self.n)

    def conj_vec(self, x) -> tuple:
        return self.conj_matrix.apply(vec_conj(x))

    def nu_of(self, x) -> Scalar:
        return self._nu_sparse(_nonzero(x))

    def _nu_sparse(self, x: dict) -> Scalar:
        acc = ZERO
        for k, xk in x.items():
            c = self.nu[k]
            if not c.is_zero():
                acc = acc + c * xk
        return acc

    def pairing(self, x, y) -> Scalar:
        """The cup pairing nu(x cup y)."""
        return self._nu_sparse(_bilinear(self._by_left, _nonzero(x),
                                         _nonzero(y)))

    @cached_property
    def pairing_gram(self) -> DenseMatrix:
        """Gram matrix of the cup pairing: entry (i, j) is nu(e_i cup e_j)."""
        n = self.n
        entries = [ZERO] * (n * n)
        for (i, j), entry in self._products.items():
            entries[i * n + j] = self._nu_sparse(entry)
        return DenseMatrix(n, n, entries)

    @property
    def unit(self) -> tuple:
        if self._unit is None:
            self._unit = self._find_unit()
        return self._unit

    def _find_unit(self):
        candidates = self.bidegree_indices(0, 0)
        if not candidates:
            raise ValueError("no (0,0) component, algebra cannot be unital")
        # Solve  sum_j x_j (e_j cup e_k) = e_k  for all k  over the (0,0)
        # part: one equation per component t that the products or e_k touch
        rows = []
        rhs = []
        for k in range(self.n):
            by_component = {k: [ZERO] * len(candidates)}
            for col, j in enumerate(candidates):
                for t, c in self._products.get((j, k), {}).items():
                    by_component.setdefault(
                        t, [ZERO] * len(candidates))[col] = c
            for t in sorted(by_component):
                rows.append(by_component[t])
                rhs.append(ONE if t == k else ZERO)
        sol = solve(DenseMatrix.from_rows(rows), rhs)
        if sol is None:
            raise ValueError("algebra has no left unit")
        u = [ZERO] * self.n
        for j, c in zip(candidates, sol):
            u[j] = c
        us = _nonzero(u)
        for k in range(self.n):
            ek = {k: ONE}
            if _bilinear(self._by_left, ek, us) != ek or \
                    _bilinear(self._by_left, us, ek) != ek:
                raise ValueError("algebra has no two-sided unit")
        return tuple(u)

    def real_degree_basis(self, r: int):
        """A conjugation-fixed Q(i)-basis of the degree-r component.

        Candidates v + conj(v) and i(v - conj(v)) over the coordinate
        basis, greedily selected to keep the original (real) vectors
        rather than echelon-normalized combinations.
        """
        idxs = self.degree_indices(r)
        builder = SpanBuilder(self.n)
        chosen = []
        i_scalar = Scalar(0, 1)
        for k in idxs:
            v = self.basis_vector(k)
            cv = self.conj_vec(v)
            for cand in (vec_add(v, cv), vec_scale(i_scalar, vec_sub(v, cv))):
                if vec_is_zero(cand):
                    continue
                if builder.add(cand):
                    chosen.append(cand)
        if len(chosen) != len(idxs):
            raise ValueError(
                f"degree {r} has no conjugation-fixed basis; conjugation "
                "may not preserve this degree")
        return chosen


@dataclass(frozen=True)
class Violation:
    code: str
    detail: str


@dataclass
class ValidationReport:
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, code: str, detail: str):
        self.violations.append(Violation(code, detail))

    def codes(self):
        return sorted({v.code for v in self.violations})

    def summary(self) -> str:
        if self.ok:
            return "valid"
        return "; ".join(f"{v.code}: {v.detail}" for v in self.violations)


def validate_algebra(a: BigradedAlgebra) -> ValidationReport:
    """Check every structural invariant of a bigraded model.

    Products of basis vectors are read from the sparse product table
    {(i, j): {k: c}}, and the conjugation from the sparse columns of its
    matrix; violations are reported in (i, j, k) order.  Dense-leaf extras (1-dimensional top, nu nonzero and conjugation
    compatible, non-degenerate pairing, even odd-degree dimensions,
    Hodge symmetry) are only enforced when ``a.dense_leaf`` is set.
    """
    rep = ValidationReport()
    n = a.n
    g = a.g

    for idx, (p, q) in enumerate(a.bidegrees):
        if not (0 <= p <= g and 0 <= q <= g):
            rep.add("bidegree-range",
                    f"basis element {a.names[idx]} has bidegree ({p},{q})")

    # bidegree additivity of the product
    for (i, j), entry in a._products.items():
        pi, qi = a.bidegrees[i]
        pj, qj = a.bidegrees[j]
        for k in entry:
            if a.bidegrees[k] != (pi + pj, qi + qj):
                rep.add("bidegree",
                        f"{a.names[i]} cup {a.names[j]} hits {a.names[k]} "
                        f"outside bidegree ({pi + pj},{qi + qj})")

    # unit
    try:
        unit = a.unit
    except ValueError as exc:
        rep.add("unit", str(exc))
        unit = None

    # graded commutativity: e_i e_j = (-1)^(rs) e_j e_i, from the table
    table = a._products
    for i in range(n):
        ri = a.degree_of_index(i)
        for j in range(i, n):
            ji = table.get((j, i), {})
            if (ri * a.degree_of_index(j)) % 2:
                ji = {k: -c for k, c in ji.items()}
            if table.get((i, j), {}) != ji:
                rep.add("graded-commutativity",
                        f"{a.names[i]} cup {a.names[j]} != "
                        f"(-1)^(rs) {a.names[j]} cup {a.names[i]}")

    # associativity: sum_t P[i,j]_t P[t,k] = sum_t P[j,k]_t P[i,t], over
    # the nonzero products only; for each i the two sides are collected
    # as terms by (j, k) and compared in (j, k) order
    by_result = {}     # t -> [((j, k), P[j,k]_t)]
    for jk, entry in table.items():
        for t, c in entry.items():
            by_result.setdefault(t, []).append((jk, c))
    for i in range(n):
        left, right = {}, {}
        for j, ij in a._by_left.get(i, ()):
            for t, c in ij.items():
                for k, tk in a._by_left.get(t, ()):
                    left.setdefault((j, k), []).append((c, tk))
        for t, it in a._by_left.get(i, ()):
            for jk, c in by_result.get(t, ()):
                right.setdefault(jk, []).append((c, it))
        for j, k in sorted(left.keys() | right.keys()):
            if _sparse_sum(left.get((j, k), ())) != \
                    _sparse_sum(right.get((j, k), ())):
                rep.add("associativity",
                        f"({a.names[i]} {a.names[j]}) {a.names[k]} != "
                        f"{a.names[i]} ({a.names[j]} {a.names[k]})")

    # conjugation: antilinear involution, algebra map, swaps (p,q) <-> (q,p)
    cc = a.conj_matrix.mul(a.conj_matrix.conj())
    if cc != DenseMatrix.identity(n):
        rep.add("conjugation-involution", "conj(conj(x)) != x")
    # column t of the conjugation matrix is conj(e_t)
    cols = [_nonzero(a.conj_matrix.column(t)) for t in range(n)]
    for i in range(n):
        p, q = a.bidegrees[i]
        for k in cols[i]:
            if a.bidegrees[k] != (q, p):
                rep.add("conjugation-swap",
                        f"conj({a.names[i]}) has a component at "
                        f"{a.names[k]} outside bidegree ({q},{p})")
    for i in range(n):
        for j in range(n):
            lhs = _sparse_sum((c.conjugate(), cols[t])
                              for t, c in table.get((i, j), {}).items())
            if lhs != _bilinear(a._by_left, cols[i], cols[j]):
                rep.add("conjugation-multiplicative",
                        f"conj({a.names[i]} cup {a.names[j]}) != "
                        f"conj({a.names[i]}) cup conj({a.names[j]})")

    for k, c in enumerate(a.nu):
        if not c.is_zero() and a.bidegrees[k] != (g, g):
            rep.add("nu-support", f"nu touches {a.names[k]} outside ({g},{g})")

    if not a.dense_leaf:
        return rep

    top = a.bidegree_indices(g, g)
    if len(top) != 1:
        rep.add("top-dimension",
                f"(g,g) component has dimension {len(top)}, expected 1")
    if all(c.is_zero() for c in a.nu):
        rep.add("nu-vanishes", "nu vanishes")

    # nu respects the real structure: nu(conj x) = conj(nu x)
    for k in range(n):
        if a._nu_sparse(cols[k]) != a.nu[k].conjugate():
            rep.add("nu-real", f"nu(conj {a.names[k]}) != conj(nu {a.names[k]})")

    # non-degenerate cup pairing
    rk = rank(a.pairing_gram)
    if rk != n:
        rep.add("pairing-degenerate", f"cup pairing has rank {rk} < {n}")

    for r, idxs in a.by_degree.items():
        if r % 2 == 1 and len(idxs) % 2 == 1:
            rep.add("odd-degree-dimension",
                    f"degree {r} has odd dimension {len(idxs)}")

    seen = set()
    for (p, q), idxs in a.by_bidegree.items():
        if (q, p) in seen:
            continue
        seen.add((p, q))
        other = a.by_bidegree.get((q, p), [])
        if len(idxs) != len(other):
            rep.add("hodge-symmetry",
                    f"dim H^({p},{q}) = {len(idxs)} != dim H^({q},{p}) = "
                    f"{len(other)}")

    if unit is not None:
        du = a.degree_of_vector(unit)
        if du != 0:
            rep.add("unit-degree", "unit is not concentrated in degree (0,0)")

    return rep
