from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hlk.exactlin import (
    DenseMatrix,
    _inertia,
    Scalar,
    ZERO,
    entry_product,
    SpanBuilder,
    Subspace,
    hermitian_definiteness,
    inverse,
    kernel,
    kernel_image,
    muladd,
    quotient_cohomology,
    rank,
    rref,
    solve,
    symmetric_signature,
    vec_is_zero,
)

def determinant(a):
    """Reference determinant by Gaussian elimination with row swaps."""
    n = a.rows
    m = [list(a.row(i)) for i in range(n)]
    det = Scalar(1)
    for k in range(n):
        pivot_row = next((r for r in range(k, n) if not m[r][k].is_zero()),
                         None)
        if pivot_row is None:
            return Scalar(0)
        if pivot_row != k:
            m[k], m[pivot_row] = m[pivot_row], m[k]
            det = -det
        det = det * m[k][k]
        for r in range(k + 1, n):
            f = m[r][k] / m[k][k]
            for j in range(k, n):
                m[r][j] = m[r][j] - f * m[k][j]
    return det


rationals = st.fractions(min_value=-4, max_value=4, max_denominator=3)
scalars = st.builds(Scalar, rationals, rationals)


def small_matrices(max_dim=4):
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(
                st.lists(scalars, min_size=c, max_size=c),
                min_size=r, max_size=r).map(DenseMatrix.from_rows)))


def test_scalar_arithmetic():
    a = Scalar(1, 2)
    b = Scalar(Fraction(1, 2), -1)
    assert a * b == Scalar(Fraction(5, 2), 0)
    assert (a / b) * b == a
    assert a.conjugate().conjugate() == a
    assert Scalar(0, 1) * Scalar(0, 1) == -1


def test_solve_identity():
    m = DenseMatrix.identity(3)
    b = (Scalar(2), Scalar(0, 1), Scalar(-1))
    assert solve(m, b) == b


def test_solve_inconsistent():
    m = DenseMatrix.zero(2, 2)
    assert solve(m, (Scalar(1), Scalar(0))) is None


def test_solve_canonical_free_vars():
    m = DenseMatrix.from_rows([[Scalar(1), Scalar(0, 1)],
                               [Scalar(0), Scalar(0)]])
    assert solve(m, (Scalar(1), Scalar(0))) == (Scalar(1), Scalar(0))


def test_solve_dimension_mismatch():
    with pytest.raises(ValueError):
        solve(DenseMatrix.identity(2), (Scalar(1),))


def test_kernel_image_examples():
    k, im = kernel_image(DenseMatrix.zero(3, 3))
    assert (k.dim, im.dim) == (3, 0)
    k, im = kernel_image(DenseMatrix.identity(3))
    assert (k.dim, im.dim) == (0, 3)
    k, im = kernel_image(DenseMatrix.from_rows([[1, 1], [1, 1]]))
    assert (k.dim, im.dim) == (1, 1)


@given(small_matrices())
@settings(max_examples=60, deadline=None)
def test_rank_nullity(m):
    k, im = kernel_image(m)
    assert k.dim + im.dim == m.cols


@given(st.lists(st.lists(scalars, min_size=3, max_size=3),
                min_size=1, max_size=4), st.randoms())
@settings(max_examples=60, deadline=None)
def test_echelon_canonical(rows, rng):
    shuffled = list(rows)
    rng.shuffle(shuffled)
    assert Subspace.from_vectors(3, rows) == Subspace.from_vectors(3, shuffled)
    once, _ = rref(rows)
    twice, _ = rref(once)
    assert list(once) == list(twice)


def test_quotient_examples():
    z33 = DenseMatrix.zero(3, 3)
    assert quotient_cohomology(z33, z33).dim == 3
    # exact pair: im = ker in the middle of 0 -> Q -> Q^2 -> Q -> 0
    d_in = DenseMatrix.from_rows([[1], [0]])
    d_out = DenseMatrix.from_rows([[0, 1]])
    assert quotient_cohomology(d_in, d_out).dim == 0
    # rank-1 differential out of a 2-dim space
    d_in0 = DenseMatrix.zero(2, 0)
    d_rank1 = DenseMatrix.from_rows([[1, 1], [1, 1]])
    assert quotient_cohomology(d_in0, d_rank1).dim == 1
    assert quotient_cohomology(d_rank1, DenseMatrix.zero(0, 2)).dim == 1


def test_quotient_rejects_nonzero_composition():
    ident = DenseMatrix.identity(2)
    with pytest.raises(ValueError):
        quotient_cohomology(ident, ident)


def test_signature_examples():
    assert symmetric_signature(DenseMatrix.diagonal([1, 1, -1])) == (2, 1, 0)
    assert symmetric_signature(
        DenseMatrix.from_rows([[0, 1], [1, 0]])) == (1, 1, 0)
    assert symmetric_signature(DenseMatrix.zero(2, 2)) == (0, 0, 2)
    # non-integral negative pivots
    third, fifth = Fraction(1, 3), Fraction(1, 5)
    g = DenseMatrix.diagonal([-third, 2 * fifth])
    assert symmetric_signature(g) == ref_signature(g) == (1, 1, 0)
    g = DenseMatrix.diagonal([-third, -2 * fifth, Fraction(-7, 2)])
    assert symmetric_signature(g) == ref_signature(g) == (0, 3, 0)
    # zero diagonal: the first pivot comes from the mate step
    g = DenseMatrix.from_rows([[0, -third, 0], [-third, 0, 0],
                               [0, 0, -fifth]])
    assert symmetric_signature(g) == ref_signature(g) == (1, 2, 0)


def test_signature_k3_intersection_form():
    # middle intersection Gram of the K3 mock: the (2,0)+(0,2) real plane
    # contributes diag(2, 2), omega gives +1, nineteen classes give -1
    diag = [2, 2, 1] + [-1] * 19
    assert symmetric_signature(DenseMatrix.diagonal(diag)) == (3, 19, 0)


def test_signature_rejects_bad_input():
    with pytest.raises(ValueError):
        symmetric_signature(DenseMatrix.from_rows([[0, 1], [0, 0]]))
    with pytest.raises(ValueError):
        symmetric_signature(DenseMatrix.from_rows([[Scalar(0, 1)]]))


@given(st.integers(2, 4), st.randoms())
@settings(max_examples=40, deadline=None)
def test_signature_congruence_invariant(n, rng):
    g_rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = rng.randint(-3, 3)
            g_rows[i][j] = v
            g_rows[j][i] = v
    g = DenseMatrix.from_rows(g_rows)
    # random integer unimodular-style P: unit triangular times permutation
    p_rows = [[0] * n for _ in range(n)]
    perm = list(range(n))
    rng.shuffle(perm)
    for i in range(n):
        p_rows[i][perm[i]] = 1
        for j in range(perm[i] + 1, n):
            p_rows[i][j] += rng.randint(-2, 2)
    p = DenseMatrix.from_rows(p_rows)
    if determinant(p).is_zero():
        return
    assert symmetric_signature(p.transpose().mul(g).mul(p)) == \
        symmetric_signature(g)
    # complex congruence P* H P keeps the definiteness of a Hermitian H
    h_rows = [[Scalar(0)] * n for _ in range(n)]
    for i in range(n):
        h_rows[i][i] = Scalar(rng.randint(-1, 4))
        for j in range(i + 1, n):
            x = Scalar(rng.randint(-1, 1), rng.randint(-1, 1))
            h_rows[i][j], h_rows[j][i] = x, x.conjugate()
    h = DenseMatrix.from_rows(h_rows)
    q = DenseMatrix.from_rows(
        [[x + Scalar(0, rng.randint(-1, 1)) if x else x for x in row]
         for row in p.row_lists()])
    if determinant(q).is_zero():
        return
    assert hermitian_definiteness(q.conj_transpose().mul(h).mul(q)) == \
        hermitian_definiteness(h)
    assert _inertia(q.conj_transpose().mul(h).mul(q)) == _inertia(h)


# -- signature and definiteness against the old separate loops ------------


def ref_signature(g):
    """Real symmetric congruence diagonalization on Fractions."""
    n = g.rows
    m = [[g.at(i, j).re for j in range(n)] for i in range(n)]
    plus = minus = zero = 0
    for k in range(n):
        if m[k][k] == 0:
            swap = None
            for j in range(k + 1, n):
                if m[j][j] != 0:
                    swap = j
                    break
            if swap is not None:
                m[k], m[swap] = m[swap], m[k]
                for row in m:
                    row[k], row[swap] = row[swap], row[k]
            else:
                mate = None
                for j in range(k + 1, n):
                    if m[k][j] != 0:
                        mate = j
                        break
                if mate is None:
                    zero += 1
                    continue
                for j in range(n):
                    m[k][j] += m[mate][j]
                for row in m:
                    row[k] += row[mate]
        pivot = m[k][k]
        if pivot > 0:
            plus += 1
        else:
            minus += 1
        for r in range(k + 1, n):
            f = m[r][k] / pivot
            if f == 0:
                continue
            for j in range(n):
                m[r][j] -= f * m[k][j]
            for row in m:
                row[r] -= f * row[k]
    return plus, minus, zero


def ref_definite(g):
    """Leading principal minors by elimination without pivoting, stopping
    at the first non-positive pivot."""
    n = g.rows
    m = [[g.at(i, j) for j in range(n)] for i in range(n)]
    for k in range(n):
        pivot = m[k][k]
        if not pivot.is_real() or pivot.re <= 0:
            return False
        for r in range(k + 1, n):
            f = m[r][k] / pivot
            if f.is_zero():
                continue
            for j in range(k, n):
                m[r][j] = m[r][j] - f * m[k][j]
    return True


small_ints = st.integers(-3, 3)


@st.composite
def real_symmetric(draw):
    """Up to 5x5, diagonal often zero (the mate step), often singular."""
    n = draw(st.integers(1, 5))
    zero_diag = draw(st.booleans())
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = 0 if i == j and zero_diag else draw(small_ints)
            rows[i][j] = rows[j][i] = v
    return DenseMatrix.from_rows(rows)


@st.composite
def hermitian(draw):
    """Hermitian over Q(i): A* A + c I is positive definite for c > 0,
    indefinite or singular for c <= 0; or any Hermitian entries with a
    zero diagonal, purely imaginary off-diagonals among them."""
    n = draw(st.integers(1, 4))
    if draw(st.booleans()):
        a = DenseMatrix.from_rows(
            [[Scalar(draw(small_ints), draw(small_ints)) for _ in range(n)]
             for _ in range(n)])
        c = draw(st.integers(-6, 2))
        return a.conj_transpose().mul(a).add(DenseMatrix.diagonal([c] * n))
    rows = [[Scalar(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            x = Scalar(draw(st.sampled_from([0, draw(small_ints)])),
                       draw(small_ints))
            rows[i][j], rows[j][i] = x, x.conjugate()
    return DenseMatrix.from_rows(rows)


@given(real_symmetric())
@settings(max_examples=150, deadline=None)
def test_signature_matches_reference(g):
    assert symmetric_signature(g) == ref_signature(g)
    assert sum(ref_signature(g)) == g.rows


@given(hermitian())
@settings(max_examples=150, deadline=None)
def test_definiteness_matches_reference(g):
    assert hermitian_definiteness(g) == ref_definite(g)


def test_hermitian_zero_diagonal_examples():
    g = DenseMatrix.from_rows([[0, Scalar(0, 1)], [Scalar(0, -1), 0]])
    assert not hermitian_definiteness(g)
    assert not ref_definite(g)
    assert symmetric_signature(DenseMatrix.from_rows(
        [[0, 1, 0], [1, 0, 1], [0, 1, 0]])) == (1, 1, 1)


def test_hermitian_examples():
    assert hermitian_definiteness(DenseMatrix.identity(3))
    assert not hermitian_definiteness(DenseMatrix.diagonal([1, -1]))
    m = DenseMatrix.from_rows([[Scalar(2), Scalar(0, 1)],
                               [Scalar(0, -1), Scalar(2)]])
    assert hermitian_definiteness(m)
    # the two leading principal minors, computed independently
    assert determinant(m.submatrix([0], [0])) == Scalar(2)
    assert determinant(m) == Scalar(3)
    with pytest.raises(ValueError):
        hermitian_definiteness(DenseMatrix.from_rows([[Scalar(0, 1)]]))
    # entries in (1/2)Z[i], pivots non-integral and often negative
    half = Fraction(1, 2)
    w = Scalar(half, half)
    for diag, inertia in (([-half, Fraction(3, 2)], (1, 1, 0)),
                          ([Fraction(-3, 2), -half], (0, 2, 0)),
                          ([half, Fraction(3, 2)], (2, 0, 0)),
                          ([-half, -1], (0, 1, 1))):
        h = DenseMatrix.from_rows([[diag[0], w], [w.conjugate(), diag[1]]])
        assert _inertia(h) == inertia
        assert hermitian_definiteness(h) == ref_definite(h) == \
            (inertia == (2, 0, 0))


@given(small_matrices(), st.lists(scalars, min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_solve_is_a_solution_or_inconsistent(m, xs):
    xs = (xs + [Scalar(0)] * m.cols)[:m.cols]
    b = m.apply(tuple(xs))
    sol = solve(m, b)
    assert sol is not None
    assert m.apply(sol) == b


@given(small_matrices())
@settings(max_examples=40, deadline=None)
def test_solve_none_means_outside_image(m):
    b = tuple(Scalar(1) for _ in range(m.rows))
    sol = solve(m, b)
    _, image = kernel_image(m)
    if sol is None:
        assert not image.contains(b)
    else:
        assert m.apply(sol) == b


@given(small_matrices())
@settings(max_examples=40, deadline=None)
def test_quotient_dimension_formula(m):
    # build a complex: d_in = m, d_out = a matrix with rows spanning the
    # left kernel of m, so that d_out . d_in = 0 by construction
    left_kernel, _ = kernel_image(m.transpose())
    if left_kernel.dim:
        d_out = DenseMatrix.from_rows(list(left_kernel.basis))
    else:
        d_out = DenseMatrix.zero(0, m.rows)
    quotient = quotient_cohomology(m, d_out)
    kernel, _ = kernel_image(d_out)
    _, image = kernel_image(m)
    assert quotient.dim == kernel.dim - image.dim
    for rep in quotient.basis:
        assert kernel.contains(rep)


def test_determinant():
    m = DenseMatrix.from_rows([[Scalar(1), Scalar(2)], [Scalar(3), Scalar(4)]])
    assert determinant(m) == Scalar(-2)
    assert determinant(DenseMatrix.zero(2, 2)).is_zero()


# -- Scalar against a plain (re, im) pair of Fractions --------------------

F0 = Fraction(0)


def ref_add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def ref_sub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def ref_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def ref_div(x, y):
    n = y[0] * y[0] + y[1] * y[1]
    return ((x[0] * y[0] + x[1] * y[1]) / n, (x[1] * y[0] - x[0] * y[1]) / n)


def ref_hash(x):
    return hash(x[0]) if x[1] == 0 else hash(x)


def ref_str(x):
    re, im = x
    if im == 0:
        return str(re)
    if re == 0:
        return f"{im}i"
    return f"{re}{'+' if im > 0 else '-'}{abs(im)}i"


def ref_repr(x):
    return f"Scalar({x[0]})" if x[1] == 0 else f"Scalar({x[0]}, {x[1]})"


# zero, one, real and non-real parts, with the special values drawn often
special_parts = st.sampled_from(
    [(F0, F0), (Fraction(1), F0), (Fraction(-1), F0), (F0, Fraction(1)),
     (Fraction(3, 2), F0), (F0, Fraction(-2, 3))])
parts = st.one_of(special_parts, st.tuples(rationals, st.just(F0)),
                  st.tuples(rationals, rationals))
# an operand is a Scalar (given by its parts) or a plain int
operands = st.one_of(parts, st.integers(-3, 3))


def as_scalar(op):
    return Scalar(*op) if isinstance(op, tuple) else op


def as_parts(op):
    return op if isinstance(op, tuple) else (Fraction(op), F0)


def assert_parts(value, expected):
    assert isinstance(value, Scalar)
    assert type(value.re) is Fraction and type(value.im) is Fraction
    assert (value.re, value.im) == expected
    # the stored triple (a + b i)/d is reduced, so equal values have
    # equal slots
    a, b, d = value._a, value._b, value._d
    assert type(a) is int and type(b) is int and type(d) is int
    assert d > 0 and gcd(a, b, d) == 1
    assert str(value) == ref_str(expected)
    assert repr(value) == ref_repr(expected)


@given(parts, operands)
@example((Fraction(2, 4), Fraction(2, 4)), (Fraction(1, 2), Fraction(1, 2)))
@example((Fraction(-7, 6), F0), (Fraction(5, 12), F0))
@example((Fraction(1, 2), Fraction(1, 3)), (Fraction(1, 2), Fraction(2, 3)))
@settings(max_examples=250, deadline=None)
def test_scalar_matches_fraction_pairs(xp, yop):
    x, y, yp = Scalar(*xp), as_scalar(yop), as_parts(yop)
    assert_parts(x, xp)
    assert_parts(x + y, ref_add(xp, yp))
    assert_parts(y + x, ref_add(yp, xp))
    assert_parts(x - y, ref_sub(xp, yp))
    assert_parts(y - x, ref_sub(yp, xp))
    assert_parts(x * y, ref_mul(xp, yp))
    assert_parts(y * x, ref_mul(yp, xp))
    if yp != (F0, F0):
        assert_parts(x / y, ref_div(xp, yp))
    else:
        with pytest.raises(ZeroDivisionError):
            x / y
    if xp != (F0, F0):
        assert_parts(y / x, ref_div(yp, xp))
    else:
        with pytest.raises(ZeroDivisionError):
            y / x
    assert_parts(-x, (-xp[0], -xp[1]))
    assert_parts(x.conjugate(), (xp[0], -xp[1]))
    assert bool(x) == (xp != (F0, F0))
    assert x.is_zero() == (xp == (F0, F0))
    assert x.is_real() == (xp[1] == 0)
    assert (x == y) == (xp == yp)
    if isinstance(y, Scalar) and x == y:
        assert hash(x) == hash(y)
    assert (x != y) == (xp != yp)
    assert hash(x) == ref_hash(xp)
    if xp[1] == 0:
        assert x == xp[0] and hash(x) == hash(xp[0])
    # the same value built another way has the same slots and hash
    again = Scalar(6 * xp[0], 6 * xp[1]) / 6
    assert (again._a, again._b, again._d) == (x._a, x._b, x._d)
    assert again == x and hash(again) == hash(x)
    # operands come back unchanged from the fast paths
    assert (x.re, x.im) == xp
    assert Scalar.of(y) == Scalar(*yp)


# -- rref, kernel and inverse against an independent elimination -----------


def ref_rref(rows):
    """Gauss-Jordan on lists of (re, im) Fraction pairs: pivot, divide the
    whole row, clear the whole column."""
    m = [list(r) for r in rows]
    out, pivots = [], []
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        k = next((k for k, r in enumerate(m) if r[c] != (F0, F0)), None)
        if k is None:
            continue
        piv = m.pop(k)
        piv = [ref_div(x, piv[c]) for x in piv]
        m = [[ref_sub(x, ref_mul(r[c], p)) for x, p in zip(r, piv)]
             for r in m]
        out = [[ref_sub(x, ref_mul(r[c], p)) for x, p in zip(r, piv)]
               for r in out]
        out.append(piv)
        pivots.append(c)
    return out, pivots


def ref_kernel(rows, ncols):
    red, pivots = ref_rref(rows)
    vectors = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [(F0, F0)] * ncols
        v[f] = (Fraction(1), F0)
        for r, p in zip(red, pivots):
            v[p] = (-r[f][0], -r[f][1])
        vectors.append(v)
    return ref_rref(vectors)[0] if vectors else []


def to_parts(rows):
    return [[(x.re, x.im) for x in r] for r in rows]


# mostly zero entries, nonzero ones rarely 1, so pivots need scaling
sparse_parts = st.one_of(st.just((F0, F0)), st.just((F0, F0)),
                         st.just((F0, F0)), parts)


@st.composite
def sparse_matrices(draw, square=False):
    r = draw(st.integers(1, 5))
    c = r if square else draw(st.integers(1, 7))
    rows = draw(st.lists(st.lists(sparse_parts, min_size=c, max_size=c),
                         min_size=r, max_size=r))
    return DenseMatrix.from_rows([[Scalar(*x) for x in row] for row in rows])


@given(sparse_matrices())
@settings(max_examples=100, deadline=None)
def test_rref_and_kernel_match_reference(m):
    rows, pivots = rref(m.row_lists())
    ref_rows, ref_pivots = ref_rref(to_parts(m.row_lists()))
    assert (to_parts(rows), pivots) == (ref_rows, ref_pivots)
    assert rank(m) == len(ref_rows)
    ker = kernel(m)
    assert to_parts(ker.basis) == ref_kernel(to_parts(m.row_lists()), m.cols)
    assert ker == kernel_image(m)[0]
    for v in ker.basis:
        assert not any(m.apply(v))
    # the span builder reaches the same echelon basis one row at a time
    sb = SpanBuilder(m.cols)
    for row in m.row_lists():
        sb.add(row)
    assert to_parts(sb.basis) == ref_rows
    for row in m.row_lists():
        coords = sb.coordinates(row)
        combo = [Scalar(0)] * m.cols
        for c, b in zip(coords, sb.basis):
            combo = [x + c * y for x, y in zip(combo, b)]
        assert combo == list(row)


@given(sparse_matrices(square=True))
@settings(max_examples=80, deadline=None)
def test_inverse_or_none(m):
    inv = inverse(m)
    if determinant(m).is_zero():
        assert inv is None
        return
    ident = DenseMatrix.identity(m.rows)
    assert m.mul(inv) == ident
    assert inv.mul(m) == ident


def test_inverse_examples():
    m = DenseMatrix.from_rows([[2, Scalar(0, 1)], [0, 3]])
    inv = inverse(m)
    assert inv == DenseMatrix.from_rows(
        [[Fraction(1, 2), Scalar(0, Fraction(-1, 6))], [0, Fraction(1, 3)]])
    assert inverse(DenseMatrix.from_rows([[1, 2], [2, 4]])) is None
    assert inverse(DenseMatrix.zero(2, 3)) is None
    assert inverse(DenseMatrix.zero(0, 0)) == DenseMatrix.zero(0, 0)


@st.composite
def product_operands(draw):
    """Row-major n x m and m x p entry lists, n, m, p in 0..4, mostly
    zero entries."""
    n, m, p = (draw(st.integers(0, 4)) for _ in range(3))
    entry = st.one_of(st.just(Scalar(0)), st.just(Scalar(0)), scalars)
    a = draw(st.lists(entry, min_size=n * m, max_size=n * m))
    b = draw(st.lists(entry, min_size=m * p, max_size=m * p))
    return a, b, n, m, p


@given(product_operands())
@example(([Scalar(0, 1)], [Scalar(2)], 1, 1, 1))
@example(([Scalar(0)], [Scalar(3)], 1, 1, 1))
@example(([], [], 0, 0, 0))
@example(([], [], 3, 0, 2))
@example(([], [Scalar(1)] * 6, 0, 2, 3))
@settings(max_examples=150, deadline=None)
def test_entry_product_matches_triple_sum(case):
    a, b, n, m, p = case
    want = [sum((a[i * m + k] * b[k * p + j] for k in range(m)), Scalar(0))
            for i in range(n) for j in range(p)]
    assert entry_product(a, b, n, m, p) == want
    assert DenseMatrix(n, m, a).mul(DenseMatrix(m, p, b)) == \
        DenseMatrix(n, p, want)


# -- the fused multiply-accumulate, echelon supports and zero tests --------


def slots(x):
    return x._a, x._b, x._d


@given(parts, parts, parts)
# content that must be divided out: 1/6 + 1/2 * 1/3 = 2/6 = 1/3
@example((Fraction(1, 6), F0), (Fraction(1, 2), F0), (Fraction(1, 3), F0))
@example((F0, Fraction(1, 2)), (F0, Fraction(1)), (Fraction(3, 2), F0))
# s = f*x, real and non-real: s - f*x is zero
@example((Fraction(2), F0), (Fraction(1), F0), (Fraction(2), F0))
@example((Fraction(-1, 3), Fraction(1, 3)), (F0, Fraction(1)),
         (Fraction(1, 3), Fraction(1, 3)))
@example((F0, F0), (F0, F0), (Fraction(1, 2), F0))
@settings(max_examples=250, deadline=None)
def test_fused_multiply_accumulate_matches_operators(sp, fp, xp):
    # s - f*x is computed as muladd(s, -f, x)
    s, f, x = Scalar(*sp), Scalar(*fp), Scalar(*xp)
    assert slots(muladd(s, f, x)) == slots(s + f * x)
    assert slots(muladd(s, -f, x)) == slots(s - f * x)
    assert slots(muladd(s, f, x)) == \
        slots(Scalar(*ref_add(sp, ref_mul(fp, xp))))
    assert slots(muladd(s, -f, x)) == \
        slots(Scalar(*ref_sub(sp, ref_mul(fp, xp))))
    assert slots(muladd(f * x, -f, x)) == slots(ZERO)
    assert slots(muladd(-(f * x), f, x)) == slots(ZERO)


@given(sparse_matrices())
@settings(max_examples=100, deadline=None)
def test_span_builder_supports_match_rows(m):
    ref_rows, ref_pivots = ref_rref(to_parts(m.row_lists()))
    sb = SpanBuilder(m.cols)
    for vector in m.row_lists():
        sb.add(vector)
        # every stored support is its row's nonzero columns, pivot first
        for p, row, support in sb._rows:
            assert support == [j for j, x in enumerate(row) if x]
            assert p == support[0] and row[p] == Scalar(1)
    assert to_parts(sb.basis) == ref_rows
    assert [p for p, _, _ in sb._rows] == ref_pivots
    for vector in m.row_lists():
        # in a reduced echelon basis, coordinates are the pivot entries
        want = tuple(vector[p] for p in ref_pivots)
        assert sb.coordinates(vector) == want
        assert sb.contains(vector)
        assert Subspace(m.cols, sb.basis).contains(vector)


def test_vec_is_zero():
    assert vec_is_zero(())
    assert vec_is_zero((ZERO,) * 5)
    assert vec_is_zero((Scalar(0), Scalar(Fraction(0, 3), 0), ZERO - ZERO))
    for n in (1, 4):
        for k in range(n):
            for x in (Scalar(1), Scalar(0, -1), Scalar(Fraction(1, 3))):
                v = [ZERO] * n
                v[k] = x
                assert not vec_is_zero(v)


# -- the fused commutator and zero-keeping scale ---------------------------


@st.composite
def square_pairs(draw):
    """Two n x n matrices, n in 1..5, mostly zero entries."""
    n = draw(st.integers(1, 5))

    def square():
        rows = draw(st.lists(st.lists(sparse_parts, min_size=n, max_size=n),
                             min_size=n, max_size=n))
        return DenseMatrix.from_rows([[Scalar(*x) for x in row]
                                      for row in rows])

    return square(), square()


@given(square_pairs())
@example((DenseMatrix.identity(3), DenseMatrix.identity(3)))
@example((DenseMatrix.from_rows([[0, 1], [0, 0]]),
          DenseMatrix.from_rows([[0, 0], [1, 0]])))
@settings(max_examples=150, deadline=None)
def test_commutator_matches_products(case):
    a, b = case
    want = a.mul(b).sub(b.mul(a))
    got = a.commutator(b)
    assert got == want
    assert [slots(x) for x in got.entries] == \
        [slots(x) for x in want.entries]
    assert b.commutator(a) == want.scale(-1)


def test_commutator_forms_no_products(monkeypatch):
    a = DenseMatrix.from_rows([[1, 2], [0, Scalar(0, 1)]])
    b = DenseMatrix.from_rows([[0, 1], [3, 0]])
    want = a.mul(b).sub(b.mul(a))

    def forbidden(*args):
        raise AssertionError("commutator called a product or a difference")

    monkeypatch.setattr(DenseMatrix, "mul", forbidden)
    monkeypatch.setattr(DenseMatrix, "sub", forbidden)
    assert a.commutator(b) == want


@pytest.mark.parametrize("a, b", [
    (DenseMatrix.zero(2, 2), DenseMatrix.zero(3, 3)),
    (DenseMatrix.zero(2, 3), DenseMatrix.zero(3, 2)),
    (DenseMatrix.zero(2, 3), DenseMatrix.zero(2, 3)),
    (DenseMatrix.zero(2, 2), DenseMatrix.zero(2, 3)),
])
def test_commutator_rejects_mismatched_shapes(a, b):
    with pytest.raises(ValueError):
        a.commutator(b)
    with pytest.raises(ValueError):
        b.commutator(a)


@given(sparse_matrices(), operands)
@example(DenseMatrix.from_rows([[0, 1], [2, 0]]), 0)
@settings(max_examples=100, deadline=None)
def test_scale_keeps_values_and_zeros(m, cop):
    c = as_scalar(cop)
    got = m.scale(c)
    assert (got.rows, got.cols) == (m.rows, m.cols)
    assert [slots(x) for x in got.entries] == \
        [slots(c * x) for x in m.entries]
    assert all(x is ZERO for x, y in zip(got.entries, m.entries)
               if not y)


@given(sparse_matrices())
@settings(max_examples=100, deadline=None)
def test_span_builder_add_returns_the_residual(m):
    # add answers None for a vector in the span, and otherwise the new
    # row as inserted: 1 at its pivot, 0 at every earlier pivot, and
    # together with the old span it spans the new one
    sb = SpanBuilder(m.cols)
    for vector in m.row_lists():
        before = sb.basis
        old_pivots = [p for p, _, _ in sb._rows]
        row = sb.add(vector)
        if row is None:
            assert sb.basis == before
            continue
        assert isinstance(row, tuple) and sb.dim == len(before) + 1
        pivot = next(j for j, x in enumerate(row) if x)
        assert row[pivot] == Scalar(1) and pivot not in old_pivots
        assert all(not row[p] for p in old_pivots)
        assert Subspace.from_vectors(m.cols, list(before) + [row]).basis \
            == sb.basis
