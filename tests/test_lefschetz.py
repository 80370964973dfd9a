import gc
import random
import weakref
from fractions import Fraction

import pytest

from hlk import catalog
from hlk import lefschetz as lz
from hlk import llgen
from hlk.algebra import BigradedAlgebra, validate_algebra
from hlk.exactlin import (
    DenseMatrix,
    Scalar,
    Subspace,
    ZERO,
    ONE,
    hermitian_definiteness,
    inverse,
    rref,
    solve,
    vec_add,
    vec_is_zero,
    vec_scale,
    zero_vector,
)


def half_i():
    return Scalar(0, Fraction(1, 2))


# -- the counting operator and the primitive decomposition -------------------
#
# No CLI route reads these; they read the production Lefschetz context
# (its primitive bases and its Lefschetz basis with inverse), which the
# tests below check against independent constructions.


def counting_operator(a: BigradedAlgebra) -> DenseMatrix:
    """Diagonal operator acting by g - r on the degree-r component."""
    return DenseMatrix.diagonal(
        [Scalar(a.g - a.degree_of_index(k)) for k in range(a.n)])


def primitive_subspace(a: BigradedAlgebra, w, r: int) -> Subspace:
    """ker L^(g-r+1) inside degree r; the zero space for r > g."""
    ctx = lz._context(a, w, "full")
    ctx.require_cone()
    # full mode: local coordinates are global ones
    return Subspace.from_vectors(a.n, ctx.primitive_local(r))


def primitive_decompose(a: BigradedAlgebra, w, x):
    """List of (s, x_s), descending in s, with x = sum_s L^s x_s and x_s
    primitive: the coordinates of x in the Lefschetz basis, grouped by
    level s."""
    ctx = lz._context(a, w, "full")
    x = tuple(x)
    if vec_is_zero(x):
        return []
    if a.degree_of_vector(x) is None:
        raise ValueError("primitive decomposition needs a homogeneous input")
    ctx.require_cone()
    _, inv, labels = ctx.levels
    out = {}
    for c, (_, s, xi) in zip(inv.apply(x), labels):
        if not c.is_zero():
            out[s] = vec_add(out.get(s, zero_vector(a.n)), vec_scale(c, xi))
    return [(s, v) for s, v in sorted(out.items(), reverse=True)
            if not vec_is_zero(v)]


# -- L, cone membership -------------------------------------------------------


def test_lefschetz_operator_zero_class(torus):
    zero = tuple(ZERO for _ in range(torus.n))
    assert lz.lefschetz_operator(torus, zero).is_zero_matrix()


def test_lefschetz_operator_torus(torus):
    gen = torus.basis_vector("dz1^dzb1")
    l_op = lz.lefschetz_operator(torus, gen)
    assert l_op.apply(torus.unit) == gen
    assert vec_is_zero(l_op.apply(gen))


def test_lefschetz_operator_k3_rank(k3):
    l_op = lz.lefschetz_operator(k3, k3.kahler)
    assert l_op.apply(k3.unit) == k3.kahler
    deg2 = k3.degree_indices(2)
    images = [l_op.apply(k3.basis_vector(i)) for i in deg2]
    nonzero = [v for v in images if not vec_is_zero(v)]
    assert len(nonzero) == 1   # only omega itself pairs into the top class


def test_lefschetz_operator_postconditions(abelian):
    # real (1,1) class: L commutes with conjugation and shifts bidegree
    l_op = lz.lefschetz_operator(abelian, abelian.kahler)
    c = abelian.conj_matrix
    assert l_op.mul(c) == c.mul(l_op.conj())
    for j in range(abelian.n):
        p, q = abelian.bidegrees[j]
        for k, entry in enumerate(l_op.column(j)):
            if not entry.is_zero():
                assert abelian.bidegrees[k] == (p + 1, q + 1)


def test_cone_zero_class_fails(torus):
    zero = tuple(ZERO for _ in range(torus.n))
    assert not lz.kahler_cone_membership(torus, zero)


def test_cone_torus_generator(torus):
    assert lz.kahler_cone_membership(torus, torus.basis_vector("dz1^dzb1"))


def test_cone_even_mode_square_zero(g2k2):
    # omega + f1 squares to zero, so it fails the even-mode test
    w = vec_add(g2k2.basis_vector("om"), g2k2.basis_vector("f1"))
    assert vec_is_zero(g2k2.mulvec(w, w))
    assert not lz.kahler_cone_membership(g2k2, w, "even")
    assert lz.kahler_cone_membership(g2k2, g2k2.kahler, "even")


def test_cone_matches_square_criterion(g2k3):
    # on an even g=2 dense model, K_even = {w : w^2 != 0}
    omega = g2k3.kahler
    candidates = [g2k3.basis_vector(k) for k in g2k3.degree_indices(2)]
    candidates += [vec_add(omega, c) for c in candidates]
    for w in candidates:
        square_nonzero = not vec_is_zero(g2k3.mulvec(w, w))
        assert lz.kahler_cone_membership(g2k3, w, "even") == square_nonzero


def test_cone_data_is_freed_with_its_algebra():
    alg = catalog.torus_algebra()
    assert lz.kahler_cone_membership(alg, alg.kahler)
    lz.dual_lefschetz(alg, alg.kahler)
    ref = weakref.ref(alg)
    del alg
    gc.collect()
    assert ref() is None


def reference_in_cone(a, w, mode) -> bool:
    """Cone membership from powers of the full Lefschetz matrix: L^k
    bijective from H^(g-k) onto H^(g+k) for every k of the mode's
    parity, k = 0 included.  L raises the degree by 2, so it preserves
    the parity of degrees and the powers restrict to each parity."""
    g = a.g
    parity = {"full": None, "even": g % 2, "odd": (g + 1) % 2}[mode]
    lw = lz.lefschetz_operator(a, w)
    power = DenseMatrix.identity(a.n)
    for k in range(g + 1):
        if parity is None or k % 2 == parity:
            src, dst = a.degree_indices(g - k), a.degree_indices(g + k)
            if len(src) != len(dst):
                return False
            if src and len(rref(power.submatrix(dst, src).row_lists())[0]) \
                    != len(src):
                return False
        power = power.mul(lw)
    return True


def test_cone_membership_matches_reference_from_k_zero(monkeypatch):
    # every class the two cone families try, in every mode, on every
    # catalog model
    seen = []
    membership = lz.kahler_cone_membership

    def recording(a, w, mode="full"):
        got = membership(a, w, mode)
        seen.append((a, w, mode, got))
        return got

    monkeypatch.setattr(lz, "kahler_cone_membership", recording)
    models = [catalog.torus_algebra(), catalog.abelian_surface_algebra(),
              catalog.k3_algebra()] + \
        [catalog.g2_family_algebra(k) for k in range(2, 7)] + \
        [llgen.product_model(n)[0] for n in (3, 5)]
    for alg in models:
        omega = alg.kahler or tuple(
            ONE if alg.degree_of_index(k) == 2 else ZERO
            for k in range(alg.n))
        for mode in ("full", "even", "odd"):
            for family in (lz.cone_check_family, lz.spanning_cone_family):
                try:
                    family(alg, omega, mode)
                except lz.ConeError:
                    pass
    assert {got for *_, got in seen} == {True, False}
    for a, w, mode, got in seen:
        assert got == reference_in_cone(a, w, mode), (a.name, mode, w)


# -- primitive theory ---------------------------------------------------------


def test_primitive_subspace_examples(torus, k3):
    assert primitive_subspace(torus, torus.kahler, 0).dim == 1
    assert primitive_subspace(torus, torus.kahler, torus.g + 1).dim == 0
    assert primitive_subspace(k3, k3.kahler, 2).dim == 21


def test_primitive_decompose_primitive_input(k3):
    e = k3.basis_vector("f1")
    dec = primitive_decompose(k3, k3.kahler, e)
    assert dec == [(0, e)]


def test_primitive_decompose_omega(k3):
    dec = primitive_decompose(k3, k3.kahler, k3.kahler)
    assert len(dec) == 1
    s, piece = dec[0]
    assert s == 1 and piece == k3.unit


def test_primitive_decompose_mixed(k3):
    x = vec_add(k3.kahler, k3.basis_vector("f1"))
    dec = primitive_decompose(k3, k3.kahler, x)
    assert dec == [(1, k3.unit), (0, k3.basis_vector("f1"))]


def test_primitive_decompose_roundtrip(abelian):
    omega = abelian.kahler
    l_op = lz.lefschetz_operator(abelian, omega)
    for k in range(abelian.n):
        x = abelian.basis_vector(k)
        total = tuple(ZERO for _ in range(abelian.n))
        for s, piece in primitive_decompose(abelian, omega, x):
            lifted = piece
            for _ in range(s):
                lifted = l_op.apply(lifted)
            total = vec_add(total, lifted)
        assert total == x


# -- sl2 triples --------------------------------------------------------------


def test_dual_lefschetz_explicit_g2_values(g2k2, k3, abelian):
    for alg in (g2k2, k3, abelian):
        tri = lz.dual_lefschetz(alg, alg.kahler)
        omega = alg.kahler
        # Lambda(omega) = 2 . unit and Lambda(omega^2) = 2 omega
        assert tri.Lambda.apply(omega) == vec_scale(Scalar(2), alg.unit)
        omega2 = alg.mulvec(omega, omega)
        assert tri.Lambda.apply(omega2) == vec_scale(Scalar(2), omega)
        # no degree -2 below H^0
        assert vec_is_zero(tri.Lambda.apply(alg.unit))


def relations_hold(tri):
    """The three sl2 relations, each formed from the matrices."""
    return (tri.Lambda.commutator(tri.L) == tri.B
            and tri.B.commutator(tri.L) == tri.L.scale(Scalar(-2))
            and tri.B.commutator(tri.Lambda) == tri.Lambda.scale(Scalar(2)))


def test_sl2_relations_and_solve_agreement(torus, g2k2, abelian):
    for alg in (torus, g2k2, abelian):
        for w in lz.cone_check_family(alg, alg.kahler):
            tri = lz.dual_lefschetz(alg, w)
            assert relations_hold(tri)
            ref_lam, _ = reference_lambda_by_solve(lz._context(alg, w))
            assert tri.Lambda == ref_lam


def _perturbed_lambda(monkeypatch, pick):
    """Patch the constructive Lambda to add 1 at the first position
    (i, j), in row-major order, for which pick(deg i, deg j) holds."""
    constructive = lz._lambda_constructive

    def perturbed(ctx):
        lam = constructive(ctx)
        n, degs = lam.rows, ctx.degrees
        k = next(k for k in range(n * n) if pick(degs[k // n], degs[k % n]))
        entries = list(lam.entries)
        entries[k] = entries[k] + Scalar(1)
        return DenseMatrix(n, n, entries)

    monkeypatch.setattr(lz, "_lambda_constructive", perturbed)


@pytest.mark.parametrize("case", ["degree-minus-2-entry", "stray-entry"])
def test_dual_lefschetz_rejects_a_wrong_lambda(monkeypatch, abelian, case):
    if case == "degree-minus-2-entry":
        # right degree, so only [Lambda, L] = B can catch it
        _perturbed_lambda(monkeypatch, lambda di, dj: di == dj - 2)
    else:
        _perturbed_lambda(monkeypatch, lambda di, dj: di == dj + 1)
    with pytest.raises(ArithmeticError):
        lz.dual_lefschetz(abelian, abelian.kahler)


def test_counting_operator_torus(torus):
    b = counting_operator(torus)
    degrees = [torus.degree_of_index(k) for k in range(torus.n)]
    for k, d in enumerate(degrees):
        assert b.at(k, k) == Scalar(torus.g - d)
    # the B of the production sl2 triple, in full mode
    assert lz._context(torus, torus.kahler, "full").B == b


def test_dual_lefschetz_rejects_non_cone(g2k2):
    w = vec_add(g2k2.basis_vector("om"), g2k2.basis_vector("f1"))
    with pytest.raises(lz.ConeError):
        lz.dual_lefschetz(g2k2, w, mode="even")


# -- Weil operator ------------------------------------------------------------


def test_weil_operator_values(abelian):
    j = lz.weil_operator(abelian)
    one_one = abelian.index_of("dz1^dzb1")
    assert j.at(one_one, one_one) == ONE
    ten = abelian.index_of("dz1")
    assert j.at(ten, ten) == Scalar(0, 1)
    two_zero = abelian.index_of("dz1^dz2")
    assert j.at(two_zero, two_zero) == Scalar(-1)


def test_weil_square_and_conjugation(abelian):
    j = lz.weil_operator(abelian)
    j2 = j.mul(j)
    for k in range(abelian.n):
        r = abelian.degree_of_index(k)
        assert j2.at(k, k) == Scalar(-1 if r % 2 else 1)
    # J conj = conj J^{-1}: with conj acting as x -> C conj(x), the
    # matrix identity is J C = C conj(J), and conj(J) = J^{-1}
    c = abelian.conj_matrix
    assert j.mul(c) == c.mul(j.conj())
    assert j.mul(j.conj()) == DenseMatrix.identity(abelian.n)


# -- polarization -------------------------------------------------------------


def test_polarization_unit_value(k3):
    omega = k3.kahler
    q = lz.polarization_form(k3, omega, k3.unit, k3.unit)
    omega_g = k3.mulvec(omega, omega)
    assert q == k3.nu_of(omega_g) == ONE


def test_polarization_levels_orthogonal(k3):
    omega = k3.kahler
    # f1 is primitive (level 0), omega is L(unit) (level 1)
    assert lz.polarization_form(k3, omega, k3.basis_vector("f1"),
                                omega).is_zero()


def test_polarization_torus_value(torus):
    omega = torus.kahler
    x = torus.basis_vector("dz1")
    y = vec_scale(half_i(), torus.basis_vector("dzb1"))
    assert torus.pairing(x, y) == ONE
    assert lz.polarization_form(torus, omega, x, y) == Scalar(-1)


def test_polarization_symmetry_sign(abelian):
    omega = abelian.kahler
    for r in sorted(abelian.by_degree):
        sign = Scalar(-1 if r % 2 else 1)
        idxs = abelian.degree_indices(r)
        for i in idxs:
            for j in idxs:
                a, b = abelian.basis_vector(i), abelian.basis_vector(j)
                assert lz.polarization_form(abelian, omega, a, b) == \
                    sign * lz.polarization_form(abelian, omega, b, a)


def test_polarization_j_invariance(abelian):
    omega = abelian.kahler
    j = lz.weil_operator(abelian)
    for i in abelian.degree_indices(2):
        for k in abelian.degree_indices(2):
            a, b = abelian.basis_vector(i), abelian.basis_vector(k)
            assert lz.polarization_form(abelian, omega, j.apply(a),
                                        j.apply(b)) == \
                lz.polarization_form(abelian, omega, a, b)


def test_polarization_rejects_mixed_degrees(torus):
    x = vec_add(torus.unit, torus.basis_vector("dz1"))
    with pytest.raises(ValueError):
        lz.polarization_form(torus, torus.kahler, x, x)
    # the class is checked first, so a class not of degree 2 fails even
    # on zero arguments
    zero = tuple(ZERO for _ in range(torus.n))
    with pytest.raises(ValueError):
        lz.polarization_form(torus, torus.unit, zero, zero)


# -- Hodge inner product ------------------------------------------------------


def test_hodge_inner_product_values(torus):
    omega = torus.kahler
    dz = torus.basis_vector("dz1")
    assert lz.hodge_inner_product(torus, omega, dz, dz) == Scalar(2)
    assert lz.hodge_inner_product(torus, omega, torus.unit,
                                  torus.unit) == ONE
    zero = tuple(ZERO for _ in range(torus.n))
    assert lz.hodge_inner_product(torus, omega, zero, zero).is_zero()


def test_hodge_inner_level_orthogonality(k3):
    # T(L^s xi, L^t eta) = 0 for primitives of different Lefschetz levels
    omega = k3.kahler
    for name in ("f1", "sigma", "sigmabar"):
        prim = k3.basis_vector(name)
        assert lz.hodge_inner_product(k3, omega, omega, prim).is_zero()
        assert lz.hodge_inner_product(k3, omega, prim, omega).is_zero()


def test_hodge_inner_bidegree_orthogonality(abelian):
    omega = abelian.kahler
    for i in abelian.degree_indices(2):
        for j in abelian.degree_indices(2):
            if abelian.bidegrees[i] != abelian.bidegrees[j]:
                assert lz.hodge_inner_product(
                    abelian, omega, abelian.basis_vector(i),
                    abelian.basis_vector(j)).is_zero()


def test_hodge_gram_positive_definite(torus, abelian, g2k2):
    for alg in (torus, abelian, g2k2):
        for r in sorted(alg.by_degree):
            assert hermitian_definiteness(lz.hodge_gram(alg, alg.kahler, r))


def test_primitive_gram_positive_definite(k3):
    omega = k3.kahler
    prim = primitive_subspace(k3, omega, 2)
    rows = [[lz.hodge_inner_product(k3, omega, a, b) for b in prim.basis]
            for a in prim.basis]
    assert hermitian_definiteness(DenseMatrix.from_rows(rows))


# -- references: level-by-level decomposition, entry-by-entry Q -------------
#
# The Lefschetz basis and the Q Gram of lefschetz.py must reproduce the
# downward induction (one solve per level) and the entry-by-entry Q that
# they replaced; both are kept here as references.


def unitriangular_rebase(alg, seed):
    """``alg`` in the basis e'_j = sum_i P[i, j] e_i, where P is an
    integer matrix, zero across bidegree blocks and unitriangular inside
    each, so that the Lefschetz coordinates of the new basis are denser
    than on the catalog basis."""
    rng = random.Random(seed)
    rows = [[ONE if i == j else ZERO for j in range(alg.n)]
            for i in range(alg.n)]
    for idxs in alg.by_bidegree.values():
        for t, i in enumerate(idxs):
            for j in idxs[t + 1:]:
                rows[i][j] = Scalar(rng.choice((-2, -1, 1, 2)))
    p = DenseMatrix.from_rows(rows)
    p_inv = inverse(p)
    cols = [p.column(j) for j in range(alg.n)]
    products = {(i, j): dict(enumerate(p_inv.apply(alg.mulvec(x, y))))
                for i, x in enumerate(cols) for j, y in enumerate(cols)}
    # conjugation is antilinear and P is real: conj' = P^-1 C P
    out = BigradedAlgebra(
        alg.g, alg.names, alg.bidegrees, products,
        p_inv.mul(alg.conj_matrix).mul(p),
        [alg.nu_of(x) for x in cols], name=f"{alg.name}-rebased",
        kahler=p_inv.apply(alg.kahler))
    assert validate_algebra(out).ok
    return out


REFERENCE_MODELS = {
    "torus": catalog.torus_algebra,
    "abelian-surface": catalog.abelian_surface_algebra,
    "k3": catalog.k3_algebra,
    "g2-k2": lambda: catalog.g2_family_algebra(2),
    "g2-k3": lambda: catalog.g2_family_algebra(3),
    "g2-k4": lambda: catalog.g2_family_algebra(4),
    "abelian-surface-rebased": lambda: unitriangular_rebase(
        catalog.abelian_surface_algebra(), "abelian-surface"),
    "g2-k3-rebased": lambda: unitriangular_rebase(
        catalog.g2_family_algebra(3), "g2-k3"),
}


def reference_decompose(ctx, x):
    """{s: x_s} by downward induction on s: the top Lefschetz level is
    isolated by an L-power projection and solved for, then subtracted."""
    if vec_is_zero(x):
        return {}
    (r,) = {d for d, v in zip(ctx.degrees, x) if not v.is_zero()}
    g = ctx.a.g
    rest = list(x)
    out = {}
    for s in range(r // 2, max(0, r - g) - 1, -1):
        basis = ctx.primitive_local(r - 2 * s)
        if not basis:
            continue
        cols = [ctx.l_power(g - r + 2 * s).apply(b) for b in basis]
        m = DenseMatrix.from_columns(cols, rows=ctx.dim)
        coeffs = solve(m, ctx.l_power(g - r + s).apply(tuple(rest)))
        assert coeffs is not None
        piece = tuple(ZERO for _ in range(ctx.dim))
        for c, b in zip(coeffs, basis):
            piece = vec_add(piece, vec_scale(c, b))
        if not vec_is_zero(piece):
            out[s] = piece
            lifted = ctx.l_power(s).apply(piece)
            rest = [u - v for u, v in zip(rest, lifted)]
    assert vec_is_zero(tuple(rest))
    return out


def reference_q(ctx, dec_x, dec_y):
    """Q(x, y) = sum_s (-1)^(s + r(r+1)/2) nu(L^(g-r+2s)(x_s cup y_s)),
    from the reference decompositions of x and y on a full-mode context
    (local coordinates are global ones)."""
    a = ctx.a
    total = ZERO
    for s, xs in dec_x.items():
        if s in dec_y:
            r = a.degree_of_vector(xs) + 2 * s
            lifted = ctx.l_power(a.g - r + 2 * s).apply(
                a.mulvec(xs, dec_y[s]))
            sign = Scalar(-1 if (s + r * (r + 1) // 2) % 2 else 1)
            total = total + sign * a.nu_of(lifted)
    return total


def random_combination(a, r, rng):
    """A Q(i)-integer combination of the degree-r basis vectors."""
    x = tuple(ZERO for _ in range(a.n))
    for i in a.degree_indices(r):
        c = Scalar(rng.randint(-3, 3), rng.randint(-3, 3))
        x = vec_add(x, vec_scale(c, a.basis_vector(i)))
    return x


@pytest.mark.parametrize("model", sorted(REFERENCE_MODELS))
def test_decompose_matches_level_induction(model):
    alg = REFERENCE_MODELS[model]()
    rng = random.Random(model)
    for w in lz.cone_check_family(alg, alg.kahler):
        ctx = lz._context(alg, w, "full")
        for r in sorted(alg.by_degree):
            xs = [alg.basis_vector(i) for i in alg.degree_indices(r)]
            xs += [random_combination(alg, r, rng) for _ in range(3)]
            for x in xs:
                ref = reference_decompose(ctx, x)
                assert primitive_decompose(alg, w, x) == \
                    sorted(ref.items(), reverse=True)
        # the context keeps no per-vector cache
        sizes = {k: len(v) for k, v in vars(ctx).items()
                 if isinstance(v, dict)}
        primitive_decompose(alg, w, random_combination(alg, alg.g, rng))
        assert sizes == {k: len(v) for k, v in vars(ctx).items()
                         if isinstance(v, dict)}


@pytest.mark.parametrize("model", sorted(REFERENCE_MODELS))
def test_q_grams_match_entrywise_q(model):
    alg = REFERENCE_MODELS[model]()
    rng = random.Random(model)
    jc = lz.weil_operator(alg).mul(alg.conj_matrix)
    for w in lz.cone_check_family(alg, alg.kahler):
        ctx = lz._context(alg, w, "full")

        def ref_q(x, y):
            return reference_q(ctx, reference_decompose(ctx, x),
                               reference_decompose(ctx, y))

        for r in sorted(alg.by_degree):
            basis = [alg.basis_vector(i) for i in alg.degree_indices(r)]
            decs = [reference_decompose(ctx, x) for x in basis]
            jc_decs = [reference_decompose(ctx, jc.apply(y)) for y in basis]
            ref = [[reference_q(ctx, dx, dy) for dy in decs] for dx in decs]
            assert lz.polarization_gram(alg, w, r) == \
                DenseMatrix.from_rows(ref)
            assert [[lz.polarization_form(alg, w, x, y) for y in basis]
                    for x in basis] == ref
            for _ in range(3):
                x = random_combination(alg, r, rng)
                y = random_combination(alg, r, rng)
                assert lz.polarization_form(alg, w, x, y) == ref_q(x, y)
            # T(e_i, e_j) = Q(e_i, J conj e_j), entry by entry
            ref_t = [[reference_q(ctx, dx, dy) for dy in jc_decs]
                     for dx in decs]
            gram_t = lz.hodge_gram(alg, w, r)
            assert gram_t == DenseMatrix.from_rows(ref_t)
            assert gram_t == DenseMatrix.from_rows(
                [[lz.hodge_inner_product(alg, w, x, y) for y in basis]
                 for x in basis])


# -- reference: the dense Lambda oracle ---------------------------------------
#
# The degree -2 solution of [Lambda, L] = B, from the dense n^2-row system
# and two row reductions.  At run time dual_lefschetz checks its
# constructive Lambda against the relation alone; this solve is the second
# construction.


def reference_lambda_by_solve(ctx):
    dim = ctx.dim
    degs = ctx.degrees
    unknowns = [(i, j) for i in range(dim) for j in range(dim)
                if degs[j] - degs[i] == 2]
    rows = []
    rhs = []
    for i in range(dim):
        for j in range(dim):
            row = [ZERO] * len(unknowns)
            for t, (a_, b_) in enumerate(unknowns):
                coeff = ZERO
                if a_ == i:
                    coeff = coeff + ctx.L.at(b_, j)
                if b_ == j:
                    coeff = coeff - ctx.L.at(i, a_)
                row[t] = coeff
            if any(row) or not ctx.B.at(i, j).is_zero():
                rows.append(row)
                rhs.append(ctx.B.at(i, j))
    system = DenseMatrix.from_rows(rows) if rows \
        else DenseMatrix.zero(0, len(unknowns))
    sol = solve(system, rhs)
    if sol is None:
        raise lz.ConeError("[Lambda, L] = B has no degree-(-2) solution")
    _, pivots = rref(system.row_lists())
    lam = [[ZERO] * dim for _ in range(dim)]
    for (i, j), x in zip(unknowns, sol):
        lam[i][j] = x
    return DenseMatrix.from_rows(lam), len(pivots) == len(unknowns)


@pytest.mark.parametrize("model", sorted(REFERENCE_MODELS))
def test_lambda_solve_matches_dense_reference(model):
    # the solve has a unique solution on every cone class, the
    # constructive Lambda; and none off the cone, where an sl2 triple
    # would make L^k bijective
    alg = REFERENCE_MODELS[model]()
    for mode in ("full", "even"):
        if not lz.kahler_cone_membership(alg, alg.kahler, mode):
            continue
        for w in lz.cone_check_family(alg, alg.kahler, mode):
            ctx = lz._context(alg, w, mode)
            ref_lam, ref_unique = reference_lambda_by_solve(ctx)
            assert lz.dual_lefschetz(alg, w, mode).Lambda == ref_lam
            assert ref_unique
    # classes outside the cone: zero, and a basis class that fails it
    outside = [tuple(ZERO for _ in range(alg.n))]
    outside += [alg.basis_vector(k) for k in alg.degree_indices(2)
                if not lz.kahler_cone_membership(alg, alg.basis_vector(k))]
    for w in outside:
        with pytest.raises(lz.ConeError):
            reference_lambda_by_solve(lz._context(alg, w, "full"))
        with pytest.raises(lz.ConeError):
            lz.dual_lefschetz(alg, w)


# -- signature ----------------------------------------------------------------


def test_hodge_signature_k3(k3):
    sig = lz.hodge_signature(k3)
    assert sig.formula == -16
    assert sig.diagonalization == (3, 19, 0)
    assert sig.agree


def test_hodge_signature_abelian(abelian):
    sig = lz.hodge_signature(abelian)
    assert sig.formula == 0
    assert sig.diagonalization == (3, 3, 0)
    assert sig.agree


def test_hodge_signature_two_point_model():
    # only H^(0,0) and H^(g,g), g = 2: the formula gives 1 + 1 = 2 while
    # the middle pairing is empty (no Kahler class exists here)
    names = ["one", "top"]
    products = {(0, 0): {0: ONE}, (0, 1): {1: ONE}, (1, 0): {1: ONE}}
    alg = BigradedAlgebra(2, names, [(0, 0), (2, 2)], products,
                          DenseMatrix.identity(2), [ZERO, ONE])
    assert validate_algebra(alg).ok
    sig = lz.hodge_signature(alg)
    assert sig.formula == 2
    assert sig.diagonalization == (0, 0, 0)
    assert not sig.agree


def test_hodge_signature_rejects_odd_g(torus):
    with pytest.raises(ValueError):
        lz.hodge_signature(torus)


# -- filtration and Serre -----------------------------------------------------


def test_hodge_filtration_torus(torus):
    filt = lz.hodge_filtration(torus, 1)
    assert filt.step(0).dim == 2
    assert filt.step(1).dim == 1
    assert filt.step(2).dim == 0
    assert filt.step(1).contains(torus.basis_vector("dz1"))
    assert lz.filtration_opposed(torus, filt)


def test_hodge_filtration_opposed_all_catalog(abelian, k3, g2k2):
    for alg in (abelian, k3, g2k2):
        for n in sorted(alg.by_degree):
            assert lz.filtration_opposed(alg, lz.hodge_filtration(alg, n))


def test_serre_pairing(torus, k3):
    assert lz.serre_pairing_check(torus).ok
    assert lz.serre_pairing_check(k3).ok


def test_serre_pairing_degenerate():
    names = ["one", "x", "y", "t"]
    bidegrees = [(0, 0), (1, 0), (0, 1), (1, 1)]
    products = {(0, j): {j: ONE} for j in range(4)}
    for j in range(1, 4):
        products[(j, 0)] = {j: ONE}
    conj = DenseMatrix.from_rows(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])
    alg = BigradedAlgebra(1, names, bidegrees, products, conj,
                          [ZERO, ZERO, ZERO, ONE])
    report = lz.serre_pairing_check(alg)
    assert not report.ok
    assert any(p == 1 and q == 0 for p, q, _ in report.failures)


# -- Frobenius ----------------------------------------------------------------


def _torus_frobenius(torus):
    diag = []
    for k in range(torus.n):
        p, q = torus.bidegrees[k]
        diag.append(Scalar(1, 1) if (p, q) == (1, 0)
                    else Scalar(1, -1) if (p, q) == (0, 1)
                    else Scalar(2) if (p, q) == (1, 1) else ONE)
    return DenseMatrix.diagonal(diag)


def test_frobenius_identity(torus):
    rep = lz.frobenius_check(torus, torus.kahler,
                             DenseMatrix.identity(torus.n), 1)
    assert rep.ok and not rep.precondition_violations


def test_frobenius_torus_passes(torus):
    rep = lz.frobenius_check(torus, torus.kahler, _torus_frobenius(torus), 2)
    assert rep.ok, (rep.precondition_violations, rep.degree_pass)


def test_frobenius_violator_fails_degree_one(torus):
    diag = [Scalar(2) if torus.degree_of_index(k) == 2 else ONE
            for k in range(torus.n)]
    rep = lz.frobenius_check(torus, torus.kahler,
                             DenseMatrix.diagonal(diag), 2)
    assert rep.failing_degrees() == [1]
    assert rep.precondition_violations   # not multiplicative


def test_frobenius_determinant_consequence(torus):
    # |det f*|^2 on degree n equals q^(n dim) when the check passes
    f = _torus_frobenius(torus)
    idxs = list(torus.degree_indices(1))
    assert len(idxs) == 2
    block = f.submatrix(idxs, idxs)
    det = block.at(0, 0) * block.at(1, 1) - block.at(0, 1) * block.at(1, 0)
    assert det * det.conjugate() == Fraction(2) ** (1 * len(idxs))


def test_frobenius_class_outside_cone_fails_every_degree(torus):
    zero = tuple(ZERO for _ in range(torus.n))
    rep = lz.frobenius_check(torus, zero, DenseMatrix.identity(torus.n), 1)
    assert not rep.precondition_violations
    assert rep.failing_degrees() == [0, 1, 2]


def test_frobenius_degree_moving_map_fails_that_degree(torus):
    # f(dz1) = dz1 + dz1^dzb1 moves part of degree 1 into degree 2
    f = DenseMatrix.identity(torus.n).row_lists()
    f[torus.index_of("dz1^dzb1")][torus.index_of("dz1")] = ONE
    rep = lz.frobenius_check(torus, torus.kahler, DenseMatrix.from_rows(f), 1)
    assert rep.failing_degrees() == [1]


def test_q_grams_and_frobenius_read_no_entrywise_form(monkeypatch):
    # Q is M^T D M on the Lefschetz basis, and Frobenius one Gram identity
    # per degree: neither decomposes basis vectors nor evaluates T per entry
    calls = []
    decompose = getattr(lz._Context, "decompose", None)
    inner = lz.hodge_inner_product

    def counting_decompose(self, x):
        calls.append("decompose")
        return decompose(self, x)

    def counting_inner(*args):
        calls.append("hodge_inner_product")
        return inner(*args)

    monkeypatch.setattr(lz._Context, "decompose", counting_decompose,
                        raising=False)
    monkeypatch.setattr(lz, "hodge_inner_product", counting_inner)
    alg = catalog.k3_algebra()
    for r in sorted(alg.by_degree):
        lz.polarization_gram(alg, alg.kahler, r)
    assert calls == []
    rep = lz.frobenius_check(alg, alg.kahler, DenseMatrix.identity(alg.n), 1)
    assert rep.ok and calls == []
