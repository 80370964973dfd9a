"""Symmetric pairs (g1, k1) and their complex structure.

The structure constants of g1 with its Cartan split k1 (+) p1, the
invariant form B and z0, their exact validation, the eigenbases p+ and
p- of J = ad z0 on p1C, and the values that every module over a pair
and split shares: B^-1, the action of k1 on p+ (+) p- and the omega0
Gram on p+ (+) p-.  The (g,K)-cohomology of the modules lives in
``gkcoh``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .algebra import ValidationReport
from .exactlin import (
    DenseMatrix,
    Scalar,
    ZERO,
    ONE,
    hermitian_definiteness,
    inverse,
    kernel,
    solve,
    _bilinear,
    _dense,
    _left_index,
    _nonzero,
    _sparse_sum,
    _table,
    unit_vector,
)

__all__ = [
    "ReductivePair",
    "PSplit",
    "validate_pair",
    "split_p",
]


# -- reductive pairs --------------------------------------------------------


class ReductivePair:
    """Structure constants of g1 with Cartan split k1 (+) p1.

    ``brackets`` is a table {(i, j): {k: c}} with [e_i, e_j] =
    sum_k c e_k; only nonzero pairs need to be given, and a pair (j, i)
    not given is filled in as minus (i, j).
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
        table = dict(brackets)
        for (i, j), col in brackets.items():
            if (j, i) not in brackets:
                table[(j, i)] = {k: -c for k, c in col.items()}
        self.brackets = _table(table)
        self._by_left = _left_index(self.brackets)
        # values computed once per pair and split (see _per_split)
        self._split_constants = {}

    @cached_property
    def b_inverse(self) -> DenseMatrix | None:
        """B^-1, or None when B is degenerate."""
        return inverse(self.b_form)

    def bracket(self, x, y) -> tuple:
        return _dense(_bilinear(self._by_left, _nonzero(x), _nonzero(y)),
                      self.dim)

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
    def col(i, j):
        return pair.brackets.get((i, j), {})

    for i in range(n):
        for j in range(n):
            if col(i, j) != {k: -c for k, c in col(j, i).items()}:
                rep.add("antisymmetry",
                        f"[{pair.names[i]},{pair.names[j]}] != "
                        f"-[{pair.names[j]},{pair.names[i]}]")

    # [[e_i, e_j], e_k] = sum_t c(i, j)_t [e_t, e_k], cyclically summed
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if _sparse_sum((c, col(t, z))
                               for x, y, z in ((i, j, k), (j, k, i), (k, i, j))
                               for t, c in col(x, y).items()):
                    rep.add("jacobi",
                            f"Jacobi fails on ({pair.names[i]},"
                            f"{pair.names[j]},{pair.names[k]})")

    for i in pair.k_indices:
        for j in pair.k_indices:
            if not k_set.issuperset(col(i, j)):
                rep.add("cartan-kk", "[k,k] leaves k")
        for j in pair.p_indices:
            if not p_set.issuperset(col(i, j)):
                rep.add("cartan-kp", "[k,p] leaves p")
    for i in pair.p_indices:
        for j in pair.p_indices:
            if not k_set.issuperset(col(i, j)):
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

    z0 = _nonzero(pair.z0)
    if not k_set.issuperset(z0):
        rep.add("z0-location", "z0 is not in k")
    for i in pair.k_indices:
        if _bilinear(pair._by_left, z0, {i: ONE}):
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


def _per_split(compute):
    """compute(pair, split), kept on the pair for each split object, so
    that every module over them shares one value; an error is raised
    again on every call."""
    def cached(pair, split):
        key = (compute.__name__, id(split))
        hit = pair._split_constants.get(key)
        if hit is None or hit[0] is not split:
            hit = pair._split_constants[key] = (split, compute(pair, split))
        return hit[1]
    return cached


@_per_split
def _k_action(pair: ReductivePair, split: PSplit) -> dict:
    """ad-action of each k-basis element on the slots of p+ (+) p-:
    {k index: [{slot: coefficient} per slot]}."""
    d = split.dim
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
    return k_act


@_per_split
def _omega_gram(pair: ReductivePair, split: PSplit) -> DenseMatrix:
    """omega0(x, y) = -1/2 B(x, [z0, y]) on the slots: -1/2 S^T B ad(z0) S,
    the columns of S the slots."""
    s = DenseMatrix.from_columns(split.plus + split.minus, rows=pair.dim)
    return s.transpose().mul(pair.b_form).mul(pair.ad(pair.z0)).mul(s) \
        .scale(Scalar(Fraction(-1, 2)))
