"""Lefschetz theory on a bigraded model: cone tests, primitive
decomposition, sl2 triples, polarization forms, signatures, filtrations
and the unitary "Frobenius" check.

All operations are exact.  Each (class, mode) has one context, kept on
the algebra and freed with it, that caches the powers of L, the
primitive basis of each degree, the Lefschetz basis {L^s xi} with its
inverse (read by Lambda and by Q) and, in full mode, the Gram matrix of
Q on each degree.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .algebra import BigradedAlgebra
from .exactlin import (
    DenseMatrix,
    Scalar,
    Subspace,
    ZERO,
    i_power,
    inverse,
    kernel,
    muladd,
    rank,
    symmetric_signature,
    vec_add,
    vec_is_zero,
    vec_scale,
    zero_vector,
)

__all__ = [
    "ConeError",
    "SL2Triple",
    "HodgeFiltration",
    "SignatureResult",
    "lefschetz_operator",
    "weil_operator",
    "kahler_cone_membership",
    "dual_lefschetz",
    "polarization_form",
    "polarization_gram",
    "hodge_inner_product",
    "hodge_gram",
    "hodge_signature",
    "hodge_filtration",
    "filtration_opposed",
    "serre_pairing_check",
    "frobenius_check",
    "cone_check_family",
    "spanning_cone_family",
]


class ConeError(ValueError):
    """The given degree-2 class is not in the requested Lefschetz cone."""


def lefschetz_operator(a: BigradedAlgebra, w) -> DenseMatrix:
    """Matrix of x -> x cup w on the full basis: column j is e_j cup w,
    summed from the sparse product table over the nonzeros of w."""
    n = a.n
    w = [Scalar.of(x) for x in w]
    entries = [ZERO] * (n * n)
    for j, products in a._by_left.items():
        for i, entry in products:
            if w[i]._a or w[i]._b:
                for k, c in entry.items():
                    entries[k * n + j] = muladd(entries[k * n + j], c, w[i])
    return DenseMatrix(n, n, entries)


def weil_operator(a: BigradedAlgebra) -> DenseMatrix:
    """Diagonal operator i^(p-q) on the (p,q) component."""
    return DenseMatrix.diagonal(
        [i_power(p - q) for (p, q) in a.bidegrees])


def _check_degree_two(a: BigradedAlgebra, w):
    w = tuple(Scalar.of(x) for x in w)
    if vec_is_zero(w):
        return w
    if a.degree_of_vector(w) != 2:
        raise ValueError("Lefschetz class must be homogeneous of degree 2")
    return w


class _Context:
    """Cached Lefschetz data for one (algebra, class, parity-mode)."""

    def __init__(self, a: BigradedAlgebra, w, mode: str):
        if mode not in ("full", "even", "odd"):
            raise ValueError(f"unknown mode {mode!r}")
        self.a = a
        self.w = _check_degree_two(a, w)
        self.mode = mode
        if mode == "full":
            self.indices = list(range(a.n))
        else:
            parity = 0 if mode == "even" else 1
            self.indices = [k for k in range(a.n)
                            if a.degree_of_index(k) % 2 == parity]
        self.dim = len(self.indices)
        lf = lefschetz_operator(a, self.w)
        self.L = lf.submatrix(self.indices, self.indices)
        self.degrees = [a.degree_of_index(k) for k in self.indices]
        self.B = DenseMatrix.diagonal([Scalar(a.g - d) for d in self.degrees])
        self._lpow = {0: DenseMatrix.identity(self.dim), 1: self.L}
        self._in_cone = None
        self._prim = {}
        self.q_grams = {}

    # -- coordinates ----------------------------------------------------

    def local_degree_positions(self, r: int):
        return [loc for loc, d in enumerate(self.degrees) if d == r]

    def l_power(self, k: int) -> DenseMatrix:
        if k not in self._lpow:
            self._lpow[k] = self.l_power(k - 1).mul(self.L)
        return self._lpow[k]

    # -- cone membership --------------------------------------------------

    def required_ks(self):
        # k >= 1 of the mode's parity: L^0, the identity, is bijective
        g = self.a.g
        if self.mode == "full":
            return list(range(1, g + 1))
        parity = g % 2 if self.mode == "even" else (g + 1) % 2
        return [k for k in range(1, g + 1) if k % 2 == parity]

    def in_cone(self) -> bool:
        if self._in_cone is None:
            self._in_cone = all(self._bijective(k) for k in self.required_ks())
        return self._in_cone

    def _bijective(self, k: int) -> bool:
        g = self.a.g
        src = self.local_degree_positions(g - k)
        dst = self.local_degree_positions(g + k)
        if len(src) != len(dst):
            return False
        if not src:
            return True
        return rank(self.l_power(k).submatrix(dst, src)) == len(src)

    def require_cone(self):
        if not self.in_cone():
            raise ConeError(
                f"class is not in the {self.mode} Lefschetz cone")

    # -- primitive theory --------------------------------------------------

    def primitive_local(self, r: int):
        """Canonical local basis of the primitive part of degree r."""
        if r in self._prim:
            return self._prim[r]
        g = self.a.g
        idxs = self.local_degree_positions(r)
        if not 0 <= r <= g or not idxs:
            self._prim[r] = []
            return []
        power = self.l_power(g - r + 1)
        block = power.submatrix(list(range(self.dim)), idxs)
        basis = []
        for v in kernel(block).basis:
            vec = [ZERO] * self.dim
            for val, loc in zip(v, idxs):
                vec[loc] = val
            basis.append(tuple(vec))
        self._prim[r] = basis
        return basis

    @cached_property
    def levels(self):
        """The Lefschetz basis: (columns, inverse, labels), one column
        L^s xi per primitive xi of degree d <= g and s = 0..g-d, labelled
        (d, s, xi)."""
        g = self.a.g
        columns, labels = [], []
        for d in range(0, g + 1):
            for xi in self.primitive_local(d):
                for s in range(0, g - d + 1):
                    columns.append(self.l_power(s).apply(xi))
                    labels.append((d, s, xi))
        m_mat = DenseMatrix.from_columns(columns, rows=self.dim)
        if m_mat.cols != self.dim:
            raise ConeError(
                "Lefschetz level basis does not span; class not in cone")
        inv = inverse(m_mat)
        if inv is None:
            raise ArithmeticError("Lefschetz level basis is singular")
        return columns, inv, labels


def _context(a: BigradedAlgebra, w, mode: str = "full") -> _Context:
    key = (tuple(Scalar.of(x) for x in w), mode)
    ctx = a.lefschetz_contexts.get(key)
    if ctx is None:
        ctx = _Context(a, w, mode)
        a.lefschetz_contexts[key] = ctx
    return ctx


def kahler_cone_membership(a: BigradedAlgebra, w, mode: str = "full") -> bool:
    """True iff L_w^k is bijective on every required degree pair."""
    return _context(a, w, mode).in_cone()


@dataclass(frozen=True)
class SL2Triple:
    """The sl2 triple (L, Lambda, B) on a graded space.

    ``dual_lefschetz`` returns one only once it has checked the
    relations, so the triples it returns carry that verdict.
    """

    L: DenseMatrix
    Lambda: DenseMatrix
    B: DenseMatrix
    indices: tuple


def _lambda_constructive(ctx: _Context) -> DenseMatrix:
    # Lambda = N M^{-1}, N the images of the Lefschetz basis columns
    columns, inv, labels = ctx.levels
    g = ctx.a.g
    images = [zero_vector(ctx.dim) if s == 0
              else vec_scale(Scalar(s * (g - d - s + 1)), columns[k - 1])
              for k, (d, s, _) in enumerate(labels)]
    return DenseMatrix.from_columns(images, rows=ctx.dim).mul(inv)


def dual_lefschetz(a: BigradedAlgebra, w, mode: str = "full") -> SL2Triple:
    """The sl2 triple of a cone class, Lambda checked by its defining
    relation.

    Lambda is built by the classical weight formula
    Lambda(L^s xi) = s(m-s+1) L^(s-1) xi on primitive xi.  It must have
    degree -2, L degree 2, and [Lambda, L] = B.  On a cone class that
    pins Lambda down: the difference of two degree -2 solutions of
    [Lambda, L] = B commutes with L and has ad-B weight +2, and the
    kernel of ad L holds only weights <= 0.  B is diagonal, acting by
    g - r on degree r, so the degrees give [B, L] = -2L and
    [B, Lambda] = 2 Lambda.  A failed check is an internal fault.
    """
    ctx = _context(a, w, mode)
    ctx.require_cone()
    lam = _lambda_constructive(ctx)
    degs, n = ctx.degrees, ctx.dim
    if not (all(degs[k // n] - degs[k % n] == 2
                for k, x in enumerate(ctx.L.entries) if x._a or x._b)
            and all(degs[k // n] - degs[k % n] == -2
                    for k, x in enumerate(lam.entries) if x._a or x._b)
            and lam.commutator(ctx.L) == ctx.B):
        raise ArithmeticError(
            "constructive Lambda is not the degree -2 solution of "
            "[Lambda, L] = B")
    return SL2Triple(L=ctx.L, Lambda=lam, B=ctx.B,
                     indices=tuple(ctx.indices))


# -- polarization ---------------------------------------------------------


def polarization_gram(a: BigradedAlgebra, w, r: int) -> DenseMatrix:
    """Gram matrix of Q on the degree-r coordinate basis, G_r = M^T D M.

    M holds the coordinates of the degree-r basis vectors in the
    Lefschetz basis {L^s xi} (the degree-r rows of its inverse).  There Q
    is block diagonal, by the Hodge-Riemann relations: for primitive xi,
    eta of degree d = r - 2s, D = Q(L^s xi, L^s eta) =
    (-1)^(s + r(r+1)/2) nu(L^(g-d)(xi cup eta)), and Q pairs different
    levels to 0."""
    ctx = _context(a, w, "full")
    gram = ctx.q_grams.get(r)
    if gram is None:
        ctx.require_cone()
        _, inv, labels = ctx.levels
        rows = [t for t, (d, s, _) in enumerate(labels) if d + 2 * s == r]
        # full mode: local coordinates are global ones
        m = inv.submatrix(rows, a.degree_indices(r))
        picked = [labels[t] for t in rows]
        base = (r * (r + 1)) // 2
        d_rows = []
        for d, s, xi in picked:
            sign = Scalar(-1 if (s + base) % 2 else 1)
            lift = ctx.l_power(a.g - d)
            d_rows.append([sign * a.nu_of(lift.apply(a.mulvec(xi, eta)))
                           if level == s else ZERO
                           for _, level, eta in picked])
        gram = m.transpose().mul(DenseMatrix.from_rows(d_rows)).mul(m)
        ctx.q_grams[r] = gram
    return gram


def polarization_form(a: BigradedAlgebra, w, x, y) -> Scalar:
    """Q(x, y) = x^T G_r y, G_r the Gram matrix of Q on degree r."""
    _context(a, w, "full")   # a class not of degree 2 fails even for x = 0
    x = tuple(Scalar.of(v) for v in x)
    y = tuple(Scalar.of(v) for v in y)
    if vec_is_zero(x) or vec_is_zero(y):
        return ZERO
    rx = a.degree_of_vector(x)
    ry = a.degree_of_vector(y)
    if rx is None or ry is None or rx != ry:
        raise ValueError("Q needs homogeneous arguments of equal degree")
    idxs = a.degree_indices(rx)
    gy = polarization_gram(a, w, rx).apply([y[j] for j in idxs])
    total = ZERO
    for i, v in zip(idxs, gy):
        total = total + x[i] * v
    return total


def hodge_inner_product(a: BigradedAlgebra, w, x, y) -> Scalar:
    """T(x, y) = Q(x, J conj(y)); positive definite for cone classes of
    genuinely Kaehler type."""
    jy = weil_operator(a).apply(a.conj_vec(tuple(Scalar.of(v) for v in y)))
    return polarization_form(a, w, x, jy)


def hodge_gram(a: BigradedAlgebra, w, r: int) -> DenseMatrix:
    """Gram matrix of T on the degree-r coordinate basis: G_r (J C)_r,
    since T(e_i, e_j) = Q(e_i, J conj e_j) = Q(e_i, J C e_j).  J is
    diagonal, so (J C)_r = J_r C_r."""
    idxs = a.degree_indices(r)
    jc = weil_operator(a).submatrix(idxs, idxs).mul(
        a.conj_matrix.submatrix(idxs, idxs))
    return polarization_gram(a, w, r).mul(jc)


# -- signature ------------------------------------------------------------


@dataclass(frozen=True)
class SignatureResult:
    formula: int
    diagonalization: tuple   # (plus, minus, zero) of the middle pairing
    agree: bool


def hodge_signature(a: BigradedAlgebra) -> SignatureResult:
    """Hodge index number, by bigraded count and by exact diagonalization.

    The formula value is sum over p = q mod 2 of (-1)^p dim H^(p,q); the
    second computation diagonalizes the middle cup pairing on a real
    basis.  For genuinely polarizable models the two agree.
    """
    if a.g % 2 != 0:
        raise ValueError("signature needs even complex leaf dimension")
    formula = 0
    for (p, q), idxs in a.by_bidegree.items():
        if (p - q) % 2 == 0:
            formula += (-1 if p % 2 else 1) * len(idxs)
    real_basis = a.real_degree_basis(a.g)
    gram = DenseMatrix.from_rows(
        [[a.pairing(v, u) for u in real_basis] for v in real_basis])
    counts = symmetric_signature(gram)
    diag_value = counts[0] - counts[1]
    return SignatureResult(formula=formula, diagonalization=counts,
                           agree=(formula == diag_value))


# -- filtration and Serre pairing ----------------------------------------


@dataclass(frozen=True)
class HodgeFiltration:
    n: int
    chain: tuple   # Subspaces F^0 >= F^1 >= ... >= F^(n+1)

    def step(self, i: int) -> Subspace:
        return self.chain[i]


def hodge_filtration(a: BigradedAlgebra, n: int) -> HodgeFiltration:
    """F^i = span of H^(p,q) with p + q = n and p >= i."""
    chain = []
    for i in range(n + 2):
        vectors = [a.basis_vector(k) for k in a.degree_indices(n)
                   if a.bidegrees[k][0] >= i]
        chain.append(Subspace.from_vectors(a.n, vectors))
    return HodgeFiltration(n=n, chain=tuple(chain))


def filtration_opposed(a: BigradedAlgebra, filt: HodgeFiltration) -> bool:
    """F^i and conj(F^(n-i+1)) are complementary inside degree n."""
    n = filt.n
    total = len(a.degree_indices(n))
    for i in range(n + 2):
        f_i = filt.step(i)
        other = filt.step(n - i + 1) if 0 <= n - i + 1 <= n + 1 else None
        if other is None:
            continue
        conj_other = Subspace.from_vectors(
            a.n, [a.conj_vec(v) for v in other.basis])
        s = f_i.sum_with(conj_other)
        if s.dim != f_i.dim + conj_other.dim or s.dim != total:
            return False
    return True


@dataclass
class SerreReport:
    failures: list

    @property
    def ok(self) -> bool:
        return not self.failures


def serre_pairing_check(a: BigradedAlgebra) -> SerreReport:
    """Full-rank test of the pairings H^(p,q) x H^(g-p,g-q) -> top."""
    failures = []
    g = a.g
    for p in range(g + 1):
        for q in range(g + 1):
            idxs = a.bidegree_indices(p, q)
            dual = a.bidegree_indices(g - p, g - q)
            if not idxs and not dual:
                continue
            if len(idxs) != len(dual):
                failures.append((p, q, f"dim {len(idxs)} vs dual {len(dual)}"))
                continue
            r = rank(a.pairing_gram.submatrix(idxs, dual))
            if r != len(idxs):
                failures.append((p, q, f"pairing rank {r} < {len(idxs)}"))
    return SerreReport(failures=failures)


# -- Frobenius (Serre's unitarity) ----------------------------------------


@dataclass
class FrobeniusReport:
    precondition_violations: list
    degree_pass: dict

    @property
    def ok(self) -> bool:
        return (not self.precondition_violations
                and all(self.degree_pass.values()))

    def failing_degrees(self):
        return sorted(n for n, good in self.degree_pass.items() if not good)


def frobenius_check(a: BigradedAlgebra, w, f: DenseMatrix,
                    q) -> FrobeniusReport:
    """Check f* = q^(n/2) x unitary, degree by degree, without square roots.

    The unitarity of q^(-n/2) f* on degree n is equivalent to the exact
    Gram identity T(f a, f b) = q^n T(a, b), which stays inside Q(i): f
    keeps degree n, and F_n^T H_n conj(F_n) = q^n H_n with H_n the T Gram
    (T(x, y) = x^T H_n conj(y)) and F_n the degree-n block of f.
    Precondition problems (not an algebra endomorphism, conjugation or
    bidegree not respected, f(w) not q w) are reported, not raised, so a
    deliberately broken f still yields a per-degree verdict.
    """
    q = Fraction(q)
    if q <= 0:
        raise ValueError("scaling factor q must be positive")
    violations = []
    unit = a.unit
    if f.apply(unit) != unit:
        violations.append("f does not fix the unit")
    for i in range(a.n):
        fi = f.apply(a.basis_vector(i))
        for j in range(a.n):
            lhs = f.apply(a.mulvec(a.basis_vector(i), a.basis_vector(j)))
            rhs = a.mulvec(fi, f.apply(a.basis_vector(j)))
            if lhs != rhs:
                violations.append(
                    f"f is not multiplicative on ({a.names[i]}, {a.names[j]})")
    for i in range(a.n):
        v = a.basis_vector(i)
        if f.apply(a.conj_vec(v)) != a.conj_vec(f.apply(v)):
            violations.append(f"f does not commute with conjugation at {a.names[i]}")
        p, q_b = a.bidegrees[i]
        for k, c in enumerate(f.apply(v)):
            if not c.is_zero() and a.bidegrees[k] != (p, q_b):
                violations.append(f"f does not preserve H^({p},{q_b})")
                break
    w = tuple(Scalar.of(x) for x in w)
    if f.apply(w) != vec_scale(Scalar(q), w):
        violations.append("f(w) is not q.w")

    try:
        grams = {r: hodge_gram(a, w, r) for r in a.by_degree}
    except ValueError:
        grams = {}   # a class outside the cone: every degree fails
    degree_pass = {}
    for r in sorted(a.by_degree):
        idxs = a.degree_indices(r)
        others = [k for k in range(a.n) if a.degree_of_index(k) != r]
        f_r = f.submatrix(idxs, idxs)
        degree_pass[r] = (
            r in grams
            and f.submatrix(others, idxs).is_zero_matrix()
            and f_r.transpose().mul(grams[r]).mul(f_r.conj())
            == grams[r].scale(q ** r))
    return FrobeniusReport(precondition_violations=sorted(set(violations)),
                           degree_pass=degree_pass)


# -- families of cone classes ---------------------------------------------


def cone_check_family(a: BigradedAlgebra, omega0, mode: str = "full"):
    """A deterministic family of 3 to 6 cone classes.

    Starts from the distinguished class and perturbs the degree-2
    coordinate basis into the cone by adding small integer multiples of
    it; pads with integer multiples of the class when the space is tiny.
    """
    omega0 = tuple(Scalar.of(x) for x in omega0)
    if not kahler_cone_membership(a, omega0, mode):
        raise ConeError("the distinguished class is not in the cone")
    family = [omega0]
    for k in a.degree_indices(2):
        if len(family) >= 6:
            break
        base = a.basis_vector(k)
        for lam in range(0, 5):
            cand = vec_add(base, vec_scale(Scalar(lam), omega0))
            if cand in family:
                continue
            if kahler_cone_membership(a, cand, mode):
                family.append(cand)
                break
    mult = 2
    while len(family) < 3:
        family.append(vec_scale(Scalar(mult), omega0))
        mult += 1
    return family


def spanning_cone_family(a: BigradedAlgebra, omega0, mode: str = "full"):
    """Cone classes whose span contains all of H^2, with the shifts used.

    Every degree-2 basis class b_j is moved into the cone as
    b_j + lambda_j omega0 with the smallest workable lambda_j >= 0; the
    record of shifts makes the generating family reproducible.
    """
    omega0 = tuple(Scalar.of(x) for x in omega0)
    if not kahler_cone_membership(a, omega0, mode):
        raise ConeError("the distinguished class is not in the cone")
    family = [omega0]
    record = [("omega0", 0)]
    for k in a.degree_indices(2):
        base = a.basis_vector(k)
        chosen = None
        for lam in range(0, 9):
            cand = vec_add(base, vec_scale(Scalar(lam), omega0))
            if kahler_cone_membership(a, cand, mode):
                chosen = (cand, lam)
                break
        if chosen is None:
            raise ConeError(
                f"basis class {a.names[k]} cannot be shifted into the cone")
        family.append(chosen[0])
        record.append((a.names[k], chosen[1]))
    return family, record
