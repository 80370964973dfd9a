import importlib.util
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hlk import catalog, fileio
from hlk import lefschetz as lz
from hlk import llgen
from hlk.algebra import BigradedAlgebra
from hlk.exactlin import (
    ZERO,
    DenseMatrix,
    Scalar,
    SpanBuilder,
    inverse,
    kernel,
    kernel_image,
    unit_vector,
)


def even_triples(alg, mode="even"):
    family, _ = lz.spanning_cone_family(alg, alg.kahler, mode=mode)
    gens = []
    for w in family:
        tri = lz.dual_lefschetz(alg, w, mode=mode)
        gens.extend([tri.L, tri.Lambda])
    return family, gens


def product_triples(n_factors):
    alg, family = llgen.product_model(n_factors)
    return [lz.dual_lefschetz(alg, w) for w in family]


def closure_of(triples):
    return llgen.lie_closure([x for tri in triples
                              for x in (tri.L, tri.Lambda)])


def product_closure(n_factors):
    return closure_of(product_triples(n_factors))


def census(triples):
    """The closure of ``triples`` and its minimal ideals."""
    lie = closure_of(triples)
    return lie, llgen.minimal_ideals(lie, triples)


def g2_triples(alg):
    family, _ = even_triples(alg)
    return [lz.dual_lefschetz(alg, w, mode="even") for w in family]


def conjugated_triples(triples, conj):
    """Each triple with L, Lambda and B mapped by ``conj``."""
    return [lz.SL2Triple(conj(t.L), conj(t.Lambda), conj(t.B), t.indices)
            for t in triples]


# -- matrix-space references for the coordinate layer ------------------------


def dense_table(lie):
    """The sparse structure constants written out: the coordinate tuple
    of [b_i, b_j] for every ordered pair, zeros included."""
    table = llgen.structure_constants(lie)
    return {(i, j): tuple(table.get((i, j), {}).get(k, ZERO)
                          for k in range(lie.dim))
            for i in range(lie.dim) for j in range(lie.dim)}


def reference_probe(lie, seed):
    """Echelon basis of the smallest ideal containing seed, grown by
    n x n commutators with the basis."""
    sb = SpanBuilder(lie.ambient * lie.ambient)
    frontier = [seed] if sb.add(seed.entries) else []
    while frontier:
        new_frontier = []
        for x in frontier:
            for b in lie.basis:
                c = x.commutator(b)
                if sb.add(c.entries):
                    new_frontier.append(c)
        frontier = new_frontier
    n = lie.ambient
    return tuple(DenseMatrix(n, n, row) for row in sb.basis)


def reference_killing(lie):
    """tr(ad_i ad_j) from dense products of the adjoint matrices."""
    dim = lie.dim
    table = dense_table(lie)
    ad = [DenseMatrix.from_columns([table[(i, j)] for j in range(dim)],
                                   rows=dim) for i in range(dim)]
    entries = []
    for i in range(dim):
        for j in range(dim):
            prod = ad[i].mul(ad[j])
            tr = ZERO
            for k in range(dim):
                tr = tr + prod.at(k, k)
            entries.append(tr)
    return DenseMatrix(dim, dim, entries)


def reference_minimal_ideals(lie):
    """Minimal ideals among the reference probes of the basis members.

    This seed census is right only in a basis whose members each lie in
    one simple ideal; in general it depends on the basis."""
    ideals = list(dict.fromkeys(reference_probe(lie, b) for b in lie.basis))
    minimal = []
    for cand in ideals:
        sb = SpanBuilder(lie.ambient * lie.ambient)
        for m in cand:
            sb.add(m.entries)
        if not any(len(o) < len(cand) and all(sb.contains(m.entries)
                                               for m in o)
                   for o in ideals):
            minimal.append(cand)
    return minimal


def check_ideal(ideal):
    """An ideal holds its basis and the structure constants of the
    matrix-space reference."""
    assert all(ideal.contains(b) for b in ideal.basis)
    assert dense_table(ideal) == reference_table(ideal.basis)


def conjugated_product_closure(n_factors, rng):
    """product_closure(n_factors) conjugated by a random unitriangular P,
    so that its echelon basis no longer splits along the factors, and
    the map M -> P M P^-1."""
    lie = product_closure(n_factors)
    n = lie.ambient
    nil = DenseMatrix.from_rows([[rng.randint(-2, 2) if j > i else 0
                                  for j in range(n)] for i in range(n)])
    p = DenseMatrix.identity(n).add(nil)
    p_inv = DenseMatrix.identity(n)
    term = DenseMatrix.identity(n)
    for _ in range(n - 1):
        term = term.mul(nil.scale(-1))
        p_inv = p_inv.add(term)
    assert p.mul(p_inv) == DenseMatrix.identity(n)

    def conj(m):
        return p.mul(m).mul(p_inv)

    return lie, llgen.lie_closure([conj(b) for b in lie.basis]), conj


def random_member(lie, rng):
    """A member of lie with random coefficients, about half of them zero."""
    n = lie.ambient
    out = DenseMatrix.zero(n, n)
    for b in lie.basis:
        if rng.random() < 0.5:
            c = Scalar(rng.randint(-3, 3), rng.randint(-2, 2))
            out = out.add(b.scale(c))
    return out


def test_closure_single_triple_is_sl2(g2k2):
    tri = lz.dual_lefschetz(g2k2, g2k2.kahler, mode="even")
    closed = llgen.lie_closure([tri.L, tri.Lambda])
    assert closed.dim == 3
    assert llgen.is_sl2_block(closed)
    assert closed.contains(tri.B)


def test_closure_zero_generator(g2k2):
    n = g2k2.n
    closed = llgen.lie_closure([DenseMatrix.zero(n, n)])
    assert closed.dim == 0


def test_closure_g2_k3_is_so5(g2k3):
    _, gens = even_triples(g2k3)
    closed = llgen.lie_closure(gens)
    assert closed.dim == 10


@given(st.randoms())
@settings(max_examples=8, deadline=None)
def test_closure_order_independent(rng):
    from hlk.catalog import g2_family_algebra

    alg = g2_family_algebra(2)
    _, gens = even_triples(alg)
    shuffled = list(gens)
    rng.shuffle(shuffled)
    a = llgen.lie_closure(gens)
    b = llgen.lie_closure(shuffled)
    assert a.basis == b.basis


def test_phi_form_values(g2k2):
    phi = llgen.phi_form(g2k2)
    pos = {g_idx: t for t, g_idx in enumerate(phi.indices)}
    om = pos[g2k2.index_of("om")]
    one = pos[g2k2.index_of("one")]
    top = pos[g2k2.index_of("top")]
    assert phi.matrix.at(om, om) == Scalar(-1)      # -integral of om^2
    assert phi.matrix.at(top, one) == Scalar(1)
    assert phi.matrix.at(one, om).is_zero()         # degrees 0 + 2 != 4
    assert phi.nondegenerate


def test_phi_rejects_wrong_dimension(torus):
    with pytest.raises(ValueError):
        llgen.phi_form(torus)


def test_so_phi_equality_small_models(g2k2, g2k3):
    for alg, so_dim in ((g2k2, 6), (g2k3, 10)):
        _, gens = even_triples(alg)
        closed = llgen.lie_closure(gens)
        verdict = llgen.so_phi_equality(alg, closed)
        assert verdict.annihilators
        assert verdict.dim == so_dim == verdict.so_dim
        assert verdict.equal


def test_single_triple_is_proper_subalgebra(g2k2):
    tri = lz.dual_lefschetz(g2k2, g2k2.kahler, mode="even")
    closed = llgen.lie_closure([tri.L, tri.Lambda])
    verdict = llgen.so_phi_equality(g2k2, closed)
    assert verdict.annihilators and not verdict.equal
    assert verdict.dim == 3 < verdict.so_dim


def test_generators_annihilate_phi(g2k3):
    phi = llgen.phi_form(g2k3)
    _, gens = even_triples(g2k3)
    for x in gens:
        assert x.transpose().mul(phi.matrix).add(
            phi.matrix.mul(x)).is_zero_matrix()


def test_ideal_probe_simple_model(g2k2):
    _, gens = even_triples(g2k2)
    closed = llgen.lie_closure(gens)
    for seed in closed.basis:
        assert llgen.ideal_probe(closed, seed).dim == closed.dim


def test_ideal_probe_zero_seed(g2k2):
    _, gens = even_triples(g2k2)
    closed = llgen.lie_closure(gens)
    n = closed.ambient
    ideal = llgen.ideal_probe(closed, DenseMatrix.zero(n, n))
    assert ideal.dim == 0 and llgen.structure_constants(ideal) == {}
    check_ideal(ideal)


def test_ideal_probe_rejects_outside_span(g2k2):
    for closed in (llgen.lie_closure(even_triples(g2k2)[1]),
                   product_closure(2)):
        outside = DenseMatrix.identity(closed.ambient)
        assert not closed.contains(outside)
        with pytest.raises(ValueError):
            llgen.ideal_probe(closed, outside)
        with pytest.raises(ValueError):
            llgen.ideal_probe(closed, DenseMatrix.zero(1, 1))


def test_ideal_probe_matches_commutator_closure(g2k2):
    rng = random.Random(20020411)
    closed = llgen.lie_closure(even_triples(g2k2)[1])
    cases = [(closed, random_member(closed, rng)) for _ in range(8)]
    # proper ideals whose echelon bases mix several basis members of
    # the algebra: members of one factor of a conjugated product model
    product, conjugated, conj = conjugated_product_closure(2, rng)
    factors = llgen.minimal_ideals(product, product_triples(2))
    assert len(factors) == 2
    for _ in range(4):
        for factor in factors:
            cases.append((conjugated, conj(random_member(factor, rng))))
        cases.append((product, random_member(product, rng)))
    proper = 0
    for lie, seed in cases:
        ideal = llgen.ideal_probe(lie, seed)
        assert ideal.basis == reference_probe(lie, seed)
        check_ideal(ideal)
        proper += 0 < ideal.dim < lie.dim
    assert proper >= 8


def theory_ideals(model):
    """The census theory gives, as perfbench/oracle.py encodes it: for
    g2-kk so(k+2), which is sl2 + sl2 at k = 2 and simple otherwise; for
    s1s2-N, N copies of sl2."""
    if model.startswith("g2-k"):
        m = int(model[4:]) + 2
        return [3, 3] if m == 4 else [m * (m - 1) // 2]
    return [3] * int(model[len("s1s2-N"):])


def check_census(lie, ideals, want):
    """The census has the dims ``want``; each ideal is generated, in the
    matrix-space reference, by its first member (so it is an ideal with
    no smaller ideal around that member) and has the reference table."""
    assert sorted(i.dim for i in ideals) == want
    for ideal in ideals:
        assert reference_probe(lie, ideal.basis[0]) == ideal.basis
        check_ideal(ideal)


def test_minimal_ideals_match_reference(g2k2, g2k3):
    # theory gives every census; the seed census of the reference agrees
    # where every basis member lies in one simple ideal
    for triples, model in ((g2_triples(g2k2), "g2-k2"),
                           (g2_triples(g2k3), "g2-k3"),
                           (product_triples(2), "s1s2-N2")):
        lie, ideals = census(triples)
        check_census(lie, ideals, theory_ideals(model))
        if model != "g2-k2":
            assert {i.basis for i in ideals} == \
                set(reference_minimal_ideals(lie))
    # a conjugated product model, where no basis member isolates the
    # second factor: the seed census misses it
    _, conjugated, conj = conjugated_product_closure(2, random.Random(7))
    lie, ideals = census(conjugated_triples(product_triples(2), conj))
    assert lie.basis == conjugated.basis
    check_census(lie, ideals, [3, 3])
    assert [len(i) for i in reference_minimal_ideals(lie)] == [3]


def test_killing_form_matches_ad_products(g2k2, g2k3):
    for closed in (llgen.lie_closure(even_triples(g2k2)[1]),
                   llgen.lie_closure(even_triples(g2k3)[1]),
                   product_closure(2)):
        assert llgen.killing_form(closed) == reference_killing(closed)


def test_structure_constants_are_cached(g2k2):
    closed = llgen.lie_closure(even_triples(g2k2)[1])
    table = llgen.structure_constants(closed)
    assert llgen.structure_constants(closed) is table
    # one sparse table: only nonzero brackets, only nonzero coordinates
    assert all(col and all(not c.is_zero() for c in col.values())
               for col in table.values())
    for (i, j), coords in dense_table(closed).items():
        bracket = closed.basis[i].commutator(closed.basis[j])
        assert closed.coordinates(bracket) == coords


def test_killing_nondegenerate_dense_models(g2k2, g2k3):
    for alg in (g2k2, g2k3):
        _, gens = even_triples(alg)
        assert llgen.killing_nondegenerate(llgen.lie_closure(gens))


def test_jacobi_on_closure_basis(g2k2):
    _, gens = even_triples(g2k2)
    closed = llgen.lie_closure(gens)
    for a in closed.basis:
        for b in closed.basis:
            ab = a.commutator(b)
            for c in closed.basis:
                jac = ab.commutator(c).add(
                    b.commutator(c).commutator(a)).add(
                    c.commutator(a).commutator(b))
                assert jac.is_zero_matrix()


def test_lambda_kernel_property(g2k3):
    family, _ = even_triples(g2k3)
    for w in family:
        tri = lz.dual_lefschetz(g2k3, w, mode="even")
        deg2 = [t for t, g_idx in enumerate(tri.indices)
                if g2k3.degree_of_index(g_idx) == 2]
        lker, _ = kernel_image(tri.L.submatrix(range(tri.L.rows), deg2))
        mker, _ = kernel_image(tri.Lambda.submatrix(range(tri.L.rows), deg2))
        assert lker == mker


def center_dimension(lie):
    """Dimension of {x in L : [x, L] = 0}, from the structure constants."""
    table = dense_table(lie)
    rows = [[table[(k, j)][t] for k in range(lie.dim)]
            for j in range(lie.dim) for t in range(lie.dim)]
    return kernel(DenseMatrix.from_rows(rows)).dim if rows else 0


def test_product_model_dimensions():
    for n in (1, 2, 3):
        closed = product_closure(n)
        assert closed.dim == 3 * n
        ideals = llgen.minimal_ideals(closed, product_triples(n))
        assert len(ideals) == n
        assert all(llgen.is_sl2_block(i) for i in ideals)
        assert center_dimension(closed) == 0


def random_invertible(n, rng):
    """A random invertible n x n integer matrix, the identity with up to
    two entries +-1 added to each row, and its inverse."""
    while True:
        rows = [[int(i == j) for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in rng.sample(range(n), 2):
                if j != i:
                    rows[i][j] = rng.choice((-1, 1))
        p = DenseMatrix.from_rows(rows)
        p_inv = inverse(p)
        if p_inv is not None:
            return p, p_inv


def test_product_model_census_is_basis_free():
    # N sl2 ideals in every basis; in most of these no member of the
    # closure's echelon basis isolates every factor, so a census of the
    # ideals of basis seeds finds too few
    rng = random.Random(20021104)
    for n in range(1, 6):
        triples = product_triples(n)
        base = closure_of(triples)
        for _ in range(20):
            p, p_inv = random_invertible(2 * n, rng)

            def conj(m):
                return p.mul(m).mul(p_inv)

            lie = llgen.lie_closure([conj(b) for b in base.basis])
            ideals = llgen.minimal_ideals(lie, conjugated_triples(triples,
                                                                  conj))
            assert lie.dim == 3 * n
            assert len(ideals) == n
            assert all(llgen.is_sl2_block(i) for i in ideals)


def test_census_of_the_zero_algebra_is_empty():
    zero = DenseMatrix.zero(2, 2)
    tri = lz.SL2Triple(zero, zero, zero, (0, 1))
    assert llgen.minimal_ideals(llgen.lie_closure([zero]), [tri]) == []


def g2k2_with_form(c):
    """g2-k2 with f1 cup f1 = -c top: phi has discriminant a square in
    Q(i) times c."""
    alg = catalog.g2_family_algebra(2)
    products = {key: dict(v) for key, v in alg._products.items()}
    products[(2, 2)] = {3: Scalar(-c)}
    return BigradedAlgebra(2, alg.names, alg.bidegrees, products,
                           alg.conj_matrix, alg.nu, name=f"g2-k2-{c}",
                           kahler=alg.kahler)


@pytest.mark.parametrize("c, dims", [(1, [3, 3]), (4, [3, 3]), (-1, [3, 3]),
                                     (2, [6]), (3, [6]), (-2, [6])])
def test_census_reads_the_base_field(c, dims):
    # so(4, phi) = sl2 + sl2 over Q(i) exactly when disc phi is a square
    # in Q(i) (-1 is one); otherwise the commutant on g_2 is the field
    # Q(i)(sqrt c) and so(4, phi) is simple over Q(i)
    lie, ideals = census(g2_triples(g2k2_with_form(c)))
    check_census(lie, ideals, dims)


def test_factor_search_matches_sympy():
    # the root search of the census against sympy's factorisation over
    # Q(i): a root exactly when some factor is linear
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    rng = random.Random(5)

    def gauss(top):
        return Fraction(rng.randint(-top, top), rng.randint(1, top)) + \
            sympy.I * Fraction(rng.randint(-top, top), rng.randint(1, top))

    seen = set()
    for _ in range(25):
        poly = sympy.Integer(1)
        for _ in range(rng.randint(0, 3)):
            poly *= x - gauss(30)
        for _ in range(rng.randint(0, 2)):
            poly *= x ** rng.randint(2, 3) + rng.randint(-9, 9) * x + \
                rng.randint(-9, 9)
        coeffs = sympy.Poly(sympy.expand(poly), x).all_coeffs()[::-1]
        if len(coeffs) < 3:
            continue
        ours = [Scalar(Fraction(str(sympy.re(c))), Fraction(str(sympy.im(c))))
                for c in coeffs]
        ours = [c / ours[-1] for c in ours]
        factors = sympy.factor_list(poly, gaussian=True)[1]
        linear = any(sympy.degree(f, x) == 1 for f, _ in factors)
        root = llgen._root(ours)
        assert (root is not None) == linear
        if root is not None:
            value = ZERO
            for c in reversed(ours):
                value = value * root + c
            assert value == ZERO
        seen.add((linear, len(coeffs) > 3))
    assert seen == {(False, False), (False, True), (True, False),
                    (True, True)}


@pytest.mark.parametrize("rows", [[[0, 1], [0, 0]], [[1, 1], [0, 1]],
                                  [[2, 1], [0, 2]]])
def test_split_of_a_nilpotent_action_is_undetermined(rows):
    # g_0 acting by a Jordan block: the commutant {a + b N} is no field,
    # and no element of it has a simple root to split by
    with pytest.raises(llgen.CensusError, match="undetermined"):
        llgen._split([unit_vector(2, 0), unit_vector(2, 1)],
                     [DenseMatrix.from_rows(rows)])


@pytest.mark.parametrize("poly", [
    pytest.param([0, 0, 1], id="x^2"),
    pytest.param([2, -3, 0, 1], id="(x-1)^2(x+2)"),
    pytest.param([Scalar(Fraction(-1, 4)), Scalar(0, -1), 1],
                 id="(x-i/2)^2"),
])
def test_root_of_a_repeated_linear_factor_is_undetermined(poly):
    with pytest.raises(llgen.CensusError, match="undetermined"):
        llgen._root([Scalar.of(c) for c in poly])


def test_product_model_factor_ideal_is_proper():
    closed = product_closure(3)
    ideals = llgen.minimal_ideals(closed, product_triples(3))
    assert all(i.dim == 3 for i in ideals)
    assert all(i.dim < closed.dim for i in ideals)


def test_spanning_family_stable_under_enlargement(g2k2):
    family, _ = lz.spanning_cone_family(g2k2, g2k2.kahler, mode="even")
    gens = []
    for w in family:
        tri = lz.dual_lefschetz(g2k2, w, mode="even")
        gens.extend([tri.L, tri.Lambda])
    base = llgen.lie_closure(gens)
    # add one more cone class: 3 omega + f1
    from hlk.exactlin import vec_add, vec_scale

    extra = vec_add(vec_scale(Scalar(3), g2k2.kahler),
                    g2k2.basis_vector("f1"))
    tri = lz.dual_lefschetz(g2k2, extra, mode="even")
    enlarged = llgen.lie_closure(gens + [tri.L, tri.Lambda])
    assert enlarged.basis == base.basis


# -- closure by bracket rounds against the pairwise worklist ------------------


def reference_closure(generators):
    """Basis of the pairwise worklist that the bracket rounds replaced:
    each new member is bracketed once with every earlier one."""
    n = generators[0].rows
    sb = SpanBuilder(n * n)
    members = [g for g in generators if sb.add(g.entries)]
    for t, x in enumerate(members):
        for y in members[:t]:
            c = x.mul(y).sub(y.mul(x))
            if sb.add(c.entries):
                members.append(c)
    return tuple(DenseMatrix(n, n, row) for row in sb.basis)


def reference_table(basis):
    """Coordinates of [b_i, b_j] in ``basis`` for every ordered pair, from
    two products and a difference against a fresh echelon span."""
    n = basis[0].rows if basis else 0
    sb = SpanBuilder(n * n)
    for b in basis:
        sb.add(b.entries)
    return {(i, j): sb.coordinates(a.mul(b).sub(b.mul(a)).entries)
            for i, a in enumerate(basis) for j, b in enumerate(basis)}


def reference_digest(lie):
    """The table digest hashed one entry at a time."""
    import hashlib

    table = dense_table(lie)
    h = hashlib.sha256()
    for i in range(lie.dim):
        for j in range(lie.dim):
            for c in table[(i, j)]:
                h.update(str(c).encode())
                h.update(b",")
            h.update(b";")
    return h.hexdigest()


def llgen_triples(alg):
    """The sl2 triples of the spanning cone family that ``hlk llgen``
    brackets, with its fallback class when ``alg`` designates none."""
    mode = "even" if alg.g == 2 else "full"
    omega = alg.kahler
    if omega is None:
        omega = tuple(Scalar(int(k in alg.degree_indices(2)))
                      for k in range(alg.n))
    family, _ = lz.spanning_cone_family(alg, omega, mode=mode)
    return [lz.dual_lefschetz(alg, w, mode=mode) for w in family]


def llgen_generators(alg):
    """The L and Lambda of ``llgen_triples``."""
    return [x for tri in llgen_triples(alg) for x in (tri.L, tri.Lambda)]


def strict_upper_chain(n):
    """E_12, E_23, ..., E_(n-1)n: they generate the strictly upper
    triangular n x n matrices, one superdiagonal per bracket depth."""
    out = []
    for k in range(n - 1):
        entries = [ZERO] * (n * n)
        entries[k * n + k + 1] = Scalar(1)
        out.append(DenseMatrix(n, n, entries))
    return out


def closure_cases():
    rng = random.Random(19)
    for k in range(2, 7):
        yield f"g2-k{k}", llgen_generators(catalog.g2_family_algebra(k)), 2
    for n in (3, 5):
        yield f"s1s2-N{n}", llgen_generators(llgen.product_model(n)[0]), 2
    for n in (2, 3):
        _, conjugated, _ = conjugated_product_closure(n, rng)
        yield f"conjugated-N{n}", list(conjugated.basis), 1
    # the rounds start at dimensions 4, 7 and 10: the second round's
    # brackets reach both the third and the fourth superdiagonal
    yield "upper-chain-5", strict_upper_chain(5), 3


@pytest.mark.parametrize("label, gens, rounds",
                         list(closure_cases()),
                         ids=[c[0] for c in closure_cases()])
def test_closure_matches_worklist_reference(monkeypatch, label, gens, rounds):
    calls = []
    bracket_pairs = llgen._bracket_pairs
    monkeypatch.setattr(llgen, "_bracket_pairs",
                        lambda *a: calls.append(1) or bracket_pairs(*a))
    lie = llgen.lie_closure(gens)
    # each round brackets the pairs of the current basis once; the last
    # one has every bracket inside the span
    assert len(calls) == rounds
    assert lie.basis == reference_closure(gens)
    # the closure keeps the last round's table: no pair is bracketed again
    table = dense_table(lie)
    assert len(calls) == rounds
    assert table == reference_table(lie.basis)
    assert llgen.bracket_table_digest(lie) == reference_digest(lie)


_INPUTS = importlib.util.spec_from_file_location(
    "perfbench_inputs",
    Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py")
perfbench_inputs = importlib.util.module_from_spec(_INPUTS)
_INPUTS.loader.exec_module(perfbench_inputs)


def rebased_copy(alg, tmp_path, seed):
    """``alg`` rewritten in the benchmark's seeded block change of basis."""
    src = tmp_path / f"{alg.name}.algebra.json"
    dst = tmp_path / f"{alg.name}-{seed}.algebra.json"
    src.write_text(fileio.canonical_dumps(fileio.algebra_to_doc(alg)))
    perfbench_inputs.rebased_algebra(
        str(src), str(dst), perfbench_inputs.make_rng(seed, alg.name))
    kind, out = fileio.load_document(str(dst))
    assert kind == "algebra"
    return out


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_minimal_ideals_match_reference_rebased(tmp_path, seed):
    # in the dense basis of a rebased model every basis member meets
    # several simple ideals: the census must still give theory's answer
    for alg in (catalog.g2_family_algebra(3), llgen.product_model(3)[0]):
        lie, ideals = census(llgen_triples(rebased_copy(alg, tmp_path, seed)))
        check_census(lie, ideals, theory_ideals(alg.name))
        assert dense_table(lie) == reference_table(lie.basis)
