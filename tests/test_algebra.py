import functools
import random

from hlk import algebra, catalog, exactlin, llgen
from hlk.algebra import BigradedAlgebra, ValidationReport, validate_algebra
from hlk.exactlin import (
    DenseMatrix,
    Scalar,
    ZERO,
    ONE,
    rref,
    solve,
    vec_scale,
)


def test_catalog_models_are_valid(torus, abelian, k3, g2k2):
    for alg in (torus, abelian, k3, g2k2):
        report = validate_algebra(alg)
        assert report.ok, f"{alg.name}: {report.summary()}"


def test_unit_of_torus(torus):
    assert torus.unit == torus.basis_vector("1")


def test_nu_vanishes_is_reported(g2k2):
    broken = BigradedAlgebra(
        g2k2.g, g2k2.names, g2k2.bidegrees, g2k2._products,
        g2k2.conj_matrix, [ZERO] * g2k2.n, name="broken")
    report = validate_algebra(broken)
    assert not report.ok
    assert "nu-vanishes" in report.codes()


def test_hodge_asymmetry_is_reported():
    # dim H^(1,0) = 1 but dim H^(0,1) = 2
    names = ["one", "x", "y1", "y2"]
    bidegrees = [(0, 0), (1, 0), (0, 1), (0, 1)]
    products = {(0, j): {j: ONE} for j in range(4)}
    for j in range(1, 4):
        products[(j, 0)] = {j: ONE}
    conj = DenseMatrix.identity(4)
    nu = [ZERO] * 4
    alg = BigradedAlgebra(1, names, bidegrees, products, conj, nu)
    report = validate_algebra(alg)
    assert "hodge-symmetry" in report.codes()


def test_graded_commutativity_violation():
    # two degree-1 classes that commute instead of anticommuting
    names = ["one", "x", "y", "t"]
    bidegrees = [(0, 0), (1, 0), (0, 1), (1, 1)]
    products = {(0, j): {j: ONE} for j in range(4)}
    for j in range(1, 4):
        products[(j, 0)] = {j: ONE}
    products[(1, 2)] = {3: ONE}
    products[(2, 1)] = {3: ONE}
    conj = DenseMatrix.from_rows([
        [1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, -1]])
    nu = [ZERO, ZERO, ZERO, Scalar(0, -2)]
    alg = BigradedAlgebra(1, names, bidegrees, products, conj, nu)
    report = validate_algebra(alg)
    assert "graded-commutativity" in report.codes()


def test_missing_unit_is_reported():
    names = ["a"]
    alg = BigradedAlgebra(1, names, [(0, 0)], {}, DenseMatrix.identity(1),
                          [ZERO])
    report = validate_algebra(alg)
    assert "unit" in report.codes()


def test_degenerate_pairing_is_reported():
    # a torus with the top product removed: nu pairing degenerates
    names = ["one", "x", "y", "t"]
    bidegrees = [(0, 0), (1, 0), (0, 1), (1, 1)]
    products = {(0, j): {j: ONE} for j in range(4)}
    for j in range(1, 4):
        products[(j, 0)] = {j: ONE}
    conj = DenseMatrix.from_rows([
        [1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])
    nu = [ZERO, ZERO, ZERO, ONE]
    alg = BigradedAlgebra(1, names, bidegrees, products, conj, nu)
    report = validate_algebra(alg)
    assert "pairing-degenerate" in report.codes()


def test_conjugation_involution_checked(torus):
    bad_conj = torus.conj_matrix.scale(Scalar(2))
    alg = BigradedAlgebra(torus.g, torus.names, torus.bidegrees,
                          torus._products, bad_conj, torus.nu)
    report = validate_algebra(alg)
    assert "conjugation-involution" in report.codes()


def test_real_degree_basis_is_fixed_by_conjugation(k3):
    for r in sorted(k3.by_degree):
        for v in k3.real_degree_basis(r):
            assert k3.conj_vec(v) == v


def test_mulvec_matches_structure_constants(torus):
    x = torus.basis_vector("dz1")
    y = torus.basis_vector("dzb1")
    assert torus.mulvec(x, y) == torus.basis_vector("dz1^dzb1")
    assert torus.mulvec(y, x) == tuple(-c for c in torus.basis_vector("dz1^dzb1"))


# -- reference: the dense validator -------------------------------------------
#
# validate_algebra reads the sparse product table.  The dense validator it
# replaced, which multiplies unit vectors, is kept here as the reference:
# on every mutant below both must give the same violations in the same order.


def reference_mulvec(a, x, y):
    out = [ZERO] * a.n
    ys = [(j, yj) for j, yj in enumerate(y) if not yj.is_zero()]
    for i, xi in enumerate(x):
        if xi.is_zero():
            continue
        for j, yj in ys:
            entry = a._products.get((i, j))
            if not entry:
                continue
            c = xi * yj
            for k, coeff in entry.items():
                out[k] = out[k] + c * coeff
    return tuple(out)


def reference_unit(a):
    candidates = a.bidegree_indices(0, 0)
    if not candidates:
        raise ValueError("no (0,0) component, algebra cannot be unital")
    rows = []
    rhs = []
    for k in range(a.n):
        for t in range(a.n):
            rows.append([a._products.get((j, k), {}).get(t, ZERO)
                         for j in candidates])
            rhs.append(ONE if t == k else ZERO)
    sol = solve(DenseMatrix.from_rows(rows), rhs)
    if sol is None:
        raise ValueError("algebra has no left unit")
    u = [ZERO] * a.n
    for j, c in zip(candidates, sol):
        u[j] = c
    u = tuple(u)
    for k in range(a.n):
        ek = a.basis_vector(k)
        if reference_mulvec(a, ek, u) != ek or reference_mulvec(a, u, ek) != ek:
            raise ValueError("algebra has no two-sided unit")
    return u


def reference_validate(a):
    rep = ValidationReport()
    n = a.n
    g = a.g
    e = [a.basis_vector(i) for i in range(n)]
    mul = functools.partial(reference_mulvec, a)

    for idx, (p, q) in enumerate(a.bidegrees):
        if not (0 <= p <= g and 0 <= q <= g):
            rep.add("bidegree-range",
                    f"basis element {a.names[idx]} has bidegree ({p},{q})")
    for (i, j), entry in a._products.items():
        pi, qi = a.bidegrees[i]
        pj, qj = a.bidegrees[j]
        for k in entry:
            if a.bidegrees[k] != (pi + pj, qi + qj):
                rep.add("bidegree",
                        f"{a.names[i]} cup {a.names[j]} hits {a.names[k]} "
                        f"outside bidegree ({pi + pj},{qi + qj})")
    try:
        unit = reference_unit(a)
    except ValueError as exc:
        rep.add("unit", str(exc))
        unit = None
    for i in range(n):
        ri = a.degree_of_index(i)
        for j in range(i, n):
            rj = a.degree_of_index(j)
            sign = -1 if (ri * rj) % 2 else 1
            if mul(e[i], e[j]) != vec_scale(Scalar(sign), mul(e[j], e[i])):
                rep.add("graded-commutativity",
                        f"{a.names[i]} cup {a.names[j]} != "
                        f"(-1)^(rs) {a.names[j]} cup {a.names[i]}")
    for i in range(n):
        for j in range(n):
            ij = mul(e[i], e[j])
            for k in range(n):
                if mul(ij, e[k]) != mul(e[i], mul(e[j], e[k])):
                    rep.add("associativity",
                            f"({a.names[i]} {a.names[j]}) {a.names[k]} != "
                            f"{a.names[i]} ({a.names[j]} {a.names[k]})")
    if a.conj_matrix.mul(a.conj_matrix.conj()) != DenseMatrix.identity(n):
        rep.add("conjugation-involution", "conj(conj(x)) != x")
    for i in range(n):
        p, q = a.bidegrees[i]
        for k, x in enumerate(a.conj_vec(e[i])):
            if not x.is_zero() and a.bidegrees[k] != (q, p):
                rep.add("conjugation-swap",
                        f"conj({a.names[i]}) has a component at "
                        f"{a.names[k]} outside bidegree ({q},{p})")
    for i in range(n):
        for j in range(n):
            if a.conj_vec(mul(e[i], e[j])) != \
                    mul(a.conj_vec(e[i]), a.conj_vec(e[j])):
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
    for k in range(n):
        if a.nu_of(a.conj_vec(e[k])) != a.nu_of(e[k]).conjugate():
            rep.add("nu-real", f"nu(conj {a.names[k]}) != conj(nu {a.names[k]})")
    rows, _ = rref([[a.nu_of(mul(e[i], e[j])) for j in range(n)]
                    for i in range(n)])
    if len(rows) != n:
        rep.add("pairing-degenerate",
                f"cup pairing has rank {len(rows)} < {n}")
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
    if unit is not None and a.degree_of_vector(unit) != 0:
        rep.add("unit-degree", "unit is not concentrated in degree (0,0)")
    return rep


_MUTATION_FACTORS = (Scalar(-1), Scalar(2), Scalar(0, 1), Scalar(1, -1))


def mutate(a, rng):
    """A copy of ``a`` with one to three random edits of its product
    table (an entry scaled, dropped or added) or of its conjugation."""
    products = {key: dict(entry) for key, entry in a._products.items()}
    conj = [list(a.conj_matrix.row(i)) for i in range(a.n)]
    for _ in range(rng.randint(1, 3)):
        kind = rng.choice(("scale", "drop", "add", "conj"))
        if kind in ("scale", "drop") and products:
            key = rng.choice(sorted(products))
            k = rng.choice(sorted(products[key]))
            if kind == "scale":
                products[key][k] = products[key][k] * rng.choice(
                    _MUTATION_FACTORS)
            else:
                del products[key][k]
                if not products[key]:
                    del products[key]
        elif kind == "add" or kind in ("scale", "drop"):
            i, j = rng.randrange(a.n), rng.randrange(a.n)
            (pi, qi), (pj, qj) = a.bidegrees[i], a.bidegrees[j]
            fits = a.bidegree_indices(pi + pj, qi + qj)
            k = rng.choice(fits) if fits and rng.random() < 0.8 \
                else rng.randrange(a.n)
            products.setdefault((i, j), {})[k] = rng.choice(_MUTATION_FACTORS)
        else:
            i = rng.randrange(a.n)
            nonzero = [j for j in range(a.n) if conj[i][j]]
            j = rng.choice(nonzero) if nonzero and rng.random() < 0.7 \
                else rng.randrange(a.n)
            conj[i][j] = conj[i][j] + rng.choice(_MUTATION_FACTORS)
    return BigradedAlgebra(a.g, a.names, a.bidegrees, products,
                           DenseMatrix.from_rows(conj), a.nu,
                           dense_leaf=a.dense_leaf, name=a.name,
                           kahler=a.kahler)


PINNED_MODELS = {
    "torus": (catalog.torus_algebra, 16),
    "abelian-surface": (catalog.abelian_surface_algebra, 3),
    "s1s2-N3": (lambda: llgen.product_model(3)[0], 10),
    **{f"g2-k{k}": (functools.partial(catalog.g2_family_algebra, k), 10)
       for k in range(2, 7)},
}


def test_validate_matches_dense_reference():
    codes = set()
    for model, (build, count) in sorted(PINNED_MODELS.items()):
        base = build()
        rng = random.Random(model)
        for alg in [base] + [mutate(base, rng) for _ in range(count)]:
            ref = reference_validate(alg)
            assert validate_algebra(alg).summary() == ref.summary(), model
            codes.update(ref.codes())
    assert codes >= {"graded-commutativity", "associativity",
                     "conjugation-involution", "conjugation-swap",
                     "conjugation-multiplicative", "unit",
                     "pairing-degenerate"}, sorted(codes)


def test_validate_visits_only_nonzero_products(monkeypatch):
    # associativity over all n^3 triples made 4478 sparse sums on the
    # abelian surface and 6494 on k3-mock
    # both bindings: the conjugation-multiplicative products sum through
    # exactlin._bilinear, which reads exactlin's own
    calls = []
    sparse_sum = exactlin._sparse_sum

    def counting(terms):
        calls.append(1)
        return sparse_sum(terms)

    monkeypatch.setattr(algebra, "_sparse_sum", counting)
    monkeypatch.setattr(exactlin, "_sparse_sum", counting)
    for build, limit in ((catalog.abelian_surface_algebra, 1500),
                         (catalog.k3_algebra, 2000)):
        calls.clear()
        assert validate_algebra(build()).ok
        assert len(calls) <= limit
