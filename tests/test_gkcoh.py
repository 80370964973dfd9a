import hashlib
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hlk import catalog, gkcoh, reductive
from hlk.algebra import ValidationReport
from hlk.exactlin import (DenseMatrix, Scalar, SpanBuilder, ZERO, ONE,
                          hermitian_definiteness, inverse, kernel, rref,
                          solve, unit_vector)
from hlk.gkcoh import AdmissibleModule, ModuleGenerator, ReductivePair


def full_basis(ambient):
    return tuple(unit_vector(ambient, j) for j in range(ambient))


# -- pair validation ----------------------------------------------------------


def test_sl2_pair_valid(sl2):
    assert gkcoh.validate_pair(sl2).ok


def test_product_pair_valid():
    pair = catalog.sl2_product_pair()
    assert gkcoh.validate_pair(pair).ok
    split = gkcoh.split_p(pair)
    assert (len(split.plus), len(split.minus)) == (2, 2)


def test_doubled_z0_rejected(sl2):
    doubled = ReductivePair(sl2.names, sl2.brackets, sl2.k_indices,
                            sl2.p_indices, sl2.b_form,
                            tuple(Scalar(2) * x for x in sl2.z0))
    report = gkcoh.validate_pair(doubled)
    assert "z0-square" in report.codes()


def test_wrong_b_sign_rejected(sl2):
    flipped = ReductivePair(sl2.names, sl2.brackets, sl2.k_indices,
                            sl2.p_indices, sl2.b_form.scale(Scalar(-1)),
                            sl2.z0)
    report = gkcoh.validate_pair(flipped)
    assert "b-k-negative" in report.codes()
    assert "b-p-positive" in report.codes()


def reference_b_invariance(pair) -> list:
    """b-invariance details from the literal sums B([e_i, e_j], e_k) +
    B(e_j, [e_i, e_k]), in (i, j, k) order."""
    b = pair.b_form

    def bilinear(x, y):
        acc = ZERO
        for i, xi in enumerate(x):
            if xi.is_zero():
                continue
            for j, yj in enumerate(y):
                if not yj.is_zero():
                    acc = acc + xi * b.at(i, j) * yj
        return acc

    n = pair.dim
    out = []
    for i in range(n):
        ei = pair.basis_vector(i)
        for j in range(n):
            ej = pair.basis_vector(j)
            for k in range(n):
                ek = pair.basis_vector(k)
                lhs = bilinear(pair.bracket(ei, ej), ek)
                rhs = bilinear(ej, pair.bracket(ei, ek))
                if lhs + rhs != ZERO:
                    out.append(f"B([{pair.names[i]},{pair.names[j]}],"
                               f"{pair.names[k]}) + ... != 0")
    return out


def b_invariance_mutants(rng):
    """sl2R and sl2R-x-sl2R, a non-symmetric B, a non-antisymmetric
    bracket table, and seeded changes of one B entry or one structure
    constant."""
    bases = [catalog.sl2_pair(), catalog.sl2_product_pair()]
    sl2 = bases[0]
    b = list(sl2.b_form.entries)
    b[1] = ONE
    brackets = dict(sl2.brackets)
    brackets[(1, 0)] = brackets[(0, 1)]
    out = list(bases) + [
        ReductivePair(sl2.names, sl2.brackets, sl2.k_indices, sl2.p_indices,
                      DenseMatrix(3, 3, b), sl2.z0),
        ReductivePair(sl2.names, brackets, sl2.k_indices, sl2.p_indices,
                      sl2.b_form, sl2.z0)]
    values = (ZERO, ONE, -ONE, Scalar(2), Scalar(Fraction(1, 2)))
    for _ in range(24):
        base = rng.choice(bases)
        n = base.dim
        b = list(base.b_form.entries)
        brackets = dict(base.brackets)
        if rng.random() < 0.5:
            b[rng.randrange(n * n)] = rng.choice(values)
        else:
            i, j = rng.randrange(n), rng.randrange(n)
            col = dict(base.brackets.get((i, j), {}))
            col[rng.randrange(n)] = rng.choice(values)
            brackets[(i, j)] = col
        out.append(ReductivePair(base.names, brackets, base.k_indices,
                                 base.p_indices, DenseMatrix(n, n, b),
                                 base.z0))
    return out


def test_b_invariance_matches_literal_sums():
    failing = 0
    for pair in b_invariance_mutants(random.Random("b-invariance")):
        got = [v.detail for v in gkcoh.validate_pair(pair).violations
               if v.code == "b-invariance"]
        want = reference_b_invariance(pair)
        assert got == want, pair.names
        failing += bool(want)
    assert failing >= 10


def reference_bracket_checks(pair) -> list:
    """(code, detail) of the antisymmetry, Jacobi, Cartan and z0 checks,
    from dense bracket vectors summed term by term over the table, in
    the order validate_pair reports them."""
    n = pair.dim
    names = pair.names

    def bracket(x, y):
        out = [ZERO] * n
        for (i, j), col in pair.brackets.items():
            for k, c in col.items():
                out[k] = out[k] + x[i] * y[j] * c
        return tuple(out)

    def zero(v):
        return all(x == ZERO for x in v)

    e = [unit_vector(n, i) for i in range(n)]
    out = []
    for i in range(n):
        for j in range(n):
            if bracket(e[i], e[j]) != tuple(-x for x in bracket(e[j], e[i])):
                out.append(("antisymmetry", f"[{names[i]},{names[j]}] != "
                                            f"-[{names[j]},{names[i]}]"))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                total = [ZERO] * n
                for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                    term = bracket(bracket(e[a], e[b]), e[c])
                    total = [s + t for s, t in zip(total, term)]
                if not zero(total):
                    out.append(("jacobi", f"Jacobi fails on ({names[i]},"
                                          f"{names[j]},{names[k]})"))

    def inside(v, allowed):
        return all(x == ZERO for t, x in enumerate(v) if t not in allowed)

    ks, ps = set(pair.k_indices), set(pair.p_indices)
    for i in pair.k_indices:
        for j in pair.k_indices:
            if not inside(bracket(e[i], e[j]), ks):
                out.append(("cartan-kk", "[k,k] leaves k"))
        for j in pair.p_indices:
            if not inside(bracket(e[i], e[j]), ps):
                out.append(("cartan-kp", "[k,p] leaves p"))
    for i in pair.p_indices:
        for j in pair.p_indices:
            if not inside(bracket(e[i], e[j]), ks):
                out.append(("cartan-pp", "[p,p] leaves k"))
    if not inside(pair.z0, ks):
        out.append(("z0-location", "z0 is not in k"))
    for i in pair.k_indices:
        if not zero(bracket(pair.z0, e[i])):
            out.append(("z0-central", f"[z0, {names[i]}] != 0"))
    return out


BRACKET_CODES = {"antisymmetry", "jacobi", "cartan-kk", "cartan-kp",
                 "cartan-pp", "z0-location", "z0-central"}


def test_bracket_checks_match_dense_sums():
    # the b-invariance mutants, [W, A] with a component in k, and z0
    # moved off k or off the centre
    pairs = b_invariance_mutants(random.Random("bracket-checks"))
    sl2 = pairs[0]
    brackets = dict(sl2.brackets)
    brackets[(0, 1)] = {0: ONE, 2: Scalar(-2)}
    pairs.append(ReductivePair(sl2.names, brackets, sl2.k_indices,
                               sl2.p_indices, sl2.b_form, sl2.z0))
    for base in pairs[:2]:
        for shift in (1, base.dim - 1):
            z0 = list(base.z0)
            z0[shift] = ONE
            pairs.append(ReductivePair(base.names, base.brackets,
                                       base.k_indices, base.p_indices,
                                       base.b_form, z0))
    codes = set()
    for pair in pairs:
        got = [(v.code, v.detail) for v in gkcoh.validate_pair(pair).violations
               if v.code in BRACKET_CODES]
        want = reference_bracket_checks(pair)
        assert got == want, pair.names
        codes.update(code for code, _ in want)
    assert codes == BRACKET_CODES, codes


def test_split_p_dims(sl2, sl2_split):
    assert (len(sl2_split.plus), len(sl2_split.minus)) == (1, 1)
    # ad z0 acts by +i on p+, -i on p-
    for sign, vectors in ((Scalar(0, 1), sl2_split.plus),
                          (Scalar(0, -1), sl2_split.minus)):
        for v in vectors:
            image = sl2.bracket(sl2.z0, v)
            assert image == tuple(sign * x for x in v)


# -- module validation --------------------------------------------------------


def test_catalog_modules_valid(sl2, sl2_split, sl2_modules):
    for module in sl2_modules.values():
        rep = gkcoh.validate_module(sl2, sl2_split, module)
        assert rep.ok, f"{module.name}: {rep.summary()}"


def test_unitarity_violation_detected(sl2, sl2_split):
    mod = catalog.sl2_discrete_series_module(1)
    # break the Gram recursion: all forms equal
    broken = AdmissibleModule(
        name=mod.name, pair_name=mod.pair_name, window=mod.window,
        weights=mod.weights, forms={w: DenseMatrix.identity(1)
                                    for w in mod.weights},
        generators=mod.generators, actions=mod.actions)
    rep = gkcoh.validate_module(sl2, sl2_split, broken)
    assert "unitarity" in rep.codes()


def test_bracket_violation_detected(sl2, sl2_split):
    mod = catalog.sl2_adjoint_module()
    actions = dict(mod.actions)
    actions[("e", 0)] = DenseMatrix.from_rows([[Scalar(0, -3)]])  # was -2i
    broken = AdmissibleModule(
        name=mod.name, pair_name=mod.pair_name, window=mod.window,
        weights=mod.weights, forms=mod.forms,
        generators=mod.generators, actions=actions, unitary=False)
    rep = gkcoh.validate_module(sl2, sl2_split, broken)
    assert "bracket-compatibility" in rep.codes()


# -- the complex --------------------------------------------------------------


def nonzero_dims(d):
    return {k: v for k, v in sorted(d.items()) if v}


def test_complex_dims_trivial(sl2, sl2_split, sl2_modules):
    cx = gkcoh.build_complex(sl2, sl2_split, sl2_modules["trivial"])
    assert nonzero_dims(cx.dims()) == {(0, 0): 1, (1, 1): 1}
    assert cx.differential_is_zero()


def test_complex_dims_ds_plus(sl2, sl2_split, sl2_modules):
    cx = gkcoh.build_complex(sl2, sl2_split, sl2_modules["ds-plus"])
    assert nonzero_dims(cx.dims()) == {(1, 0): 1}


def test_complex_dims_adjoint(sl2, sl2_split, sl2_modules):
    cx = gkcoh.build_complex(sl2, sl2_split, sl2_modules["adjoint"])
    assert nonzero_dims(cx.dims()) == {(0, 0): 1, (1, 0): 1,
                                       (0, 1): 1, (1, 1): 1}
    assert not cx.differential_is_zero()


def test_complex_sanity_all(sl2, sl2_split, sl2_modules):
    for module in sl2_modules.values():
        cx = gkcoh.build_complex(sl2, sl2_split, module)
        assert gkcoh.complex_sanity(cx)


def synthetic_complex(plus: dict, minus: dict) -> gkcoh.RelativeComplex:
    """p_dim 2 with every C^(p,q) one-dimensional; d' and d'' are the
    1x1 blocks {(p,q): entry} given, zero elsewhere."""
    keys = [(p, q) for p in range(3) for q in range(3)]

    def blocks(entries, dp, dq):
        return {(p, q): DenseMatrix.zero(0, 1) if max(p + dp, q + dq) > 2
                else DenseMatrix.from_rows([[Scalar(entries.get((p, q), 0))]])
                for p, q in keys}

    return gkcoh.RelativeComplex(
        p_dim=2, wedges={k: [()] for k in keys},
        bases={k: (unit_vector(1, 0),) for k in keys},
        d_plus=blocks(plus, 1, 0), d_minus=blocks(minus, 0, 1),
        v_total=1, spans={})


@pytest.mark.parametrize("plus, minus, ok", [
    # d' from p = 0, d'' from q = 0, with d'(0,1) = -1: they anticommute
    ({(0, 0): 1, (0, 1): -1}, {(0, 0): 1, (1, 0): 1}, True),
    # the same with d'(0,1) = +1: d''d' + d'd'' = 2 from C^(0,0)
    ({(0, 0): 1, (0, 1): 1}, {(0, 0): 1, (1, 0): 1}, False),
    # d'd' = 1 from C^(0,q); d'' = 0
    ({(p, q): 1 for p in (0, 1) for q in range(3)}, {}, False),
    # d''d'' = 1 from C^(p,0); d' = 0
    ({}, {(p, q): 1 for p in range(3) for q in (0, 1)}, False),
], ids=["anticommuting", "anticommutator", "d-plus-squared",
        "d-minus-squared"])
def test_complex_sanity_synthetic(plus, minus, ok):
    assert gkcoh.complex_sanity(synthetic_complex(plus, minus)) is ok


def test_cohomology_bigraded(sl2, sl2_split, sl2_modules):
    expectations = {
        "trivial": {(0, 0): 1, (1, 1): 1},
        "ds-plus": {(1, 0): 1},
        "ds-minus": {(0, 1): 1},
        "adjoint": {},
    }
    for name, module in sl2_modules.items():
        cx = gkcoh.build_complex(sl2, sl2_split, module)
        dims = gkcoh.cohomology_bigraded(cx)
        assert nonzero_dims(dims) == expectations[name], name


def test_bigraded_sums_match_total(sl2, sl2_split, sl2_modules):
    for module in sl2_modules.values():
        cx = gkcoh.build_complex(sl2, sl2_split, module)
        graded = gkcoh.cohomology_bigraded(cx)
        total = gkcoh.ungraded_cohomology_dims(cx)
        sums = {}
        for (p, q), d in graded.items():
            sums[p + q] = sums.get(p + q, 0) + d
        for n in set(sums) | set(total):
            assert sums.get(n, 0) == total.get(n, 0)


def test_laplacian_matches_cohomology(sl2, sl2_split, sl2_modules):
    for module in sl2_modules.values():
        cx = gkcoh.build_complex(sl2, sl2_split, module)
        lap = gkcoh.laplacian_kernel_dims(module, cx)
        total = gkcoh.ungraded_cohomology_dims(cx)
        for n in set(lap) | set(total):
            assert lap.get(n, 0) == total.get(n, 0)


def test_laplacian_inverts_each_gram_once(sl2, sl2_split, monkeypatch):
    # the adjoint module has two total degrees with a nonzero differential
    # into or out of them; each of their Grams is inverted once
    module = catalog.sl2_adjoint_module(96)
    cx = gkcoh.build_complex(sl2, sl2_split, module)
    inverted = []
    invert = gkcoh.inverse

    def counting(m):
        inverted.append(m)
        return invert(m)

    monkeypatch.setattr(gkcoh, "inverse", counting)
    assert gkcoh.laplacian_kernel_dims(module, cx) == \
        gkcoh.ungraded_cohomology_dims(cx)
    assert len(inverted) == 2


def test_interior_weights_computed_once(sl2, sl2_split, monkeypatch):
    computed = []
    compute = gkcoh._interior_weights

    def counting(m):
        computed.append(m)
        return compute(m)

    monkeypatch.setattr(gkcoh, "_interior_weights", counting)
    module = catalog.sl2_discrete_series_module(1, 96)
    assert gkcoh.validate_module(sl2, sl2_split, module).ok
    gkcoh.analyze_module(sl2, sl2_split, module)
    assert computed == [module]
    assert module.interior_weights == ref_interior_weights(module)


def test_pair_constants_computed_once(sl2_modules, monkeypatch):
    # B^-1, ad(k) on p+ (+) p- and the omega0 Gram are computed once per
    # pair and split, however many modules are analysed over them
    pair = catalog.sl2_pair()
    split = gkcoh.split_p(pair)
    solved, inverted = [], []
    solve, inverse = reductive.solve, reductive.inverse

    def counting_solve(m, v):
        solved.append(v)
        return solve(m, v)

    def counting_inverse(m):
        inverted.append(m is pair.b_form)
        return inverse(m)

    monkeypatch.setattr(reductive, "solve", counting_solve)
    monkeypatch.setattr(reductive, "inverse", counting_inverse)
    for module in sl2_modules.values():
        gkcoh.analyze_module(pair, split, module)
    assert len(solved) == len(pair.k_indices) * 2 * split.dim
    assert sum(inverted) == 1
    assert gkcoh._omega_gram(pair, split) is gkcoh._omega_gram(pair, split)
    # a degenerate B fails on every module, not only the first
    flat = ReductivePair(pair.names, pair.brackets, pair.k_indices,
                         pair.p_indices, DenseMatrix.zero(3, 3), pair.z0)
    for module in sl2_modules.values():
        with pytest.raises(ValueError, match="B is degenerate"):
            gkcoh.casimir_action(flat, module)


# -- Casimir and dichotomy ----------------------------------------------------


def test_casimir_values(sl2, sl2_split, sl2_modules):
    cas = gkcoh.casimir_action(sl2, sl2_modules["trivial"])
    assert cas.is_scalar and cas.scalar.is_zero()
    cas = gkcoh.casimir_action(sl2, sl2_modules["adjoint"])
    assert cas.is_scalar and cas.scalar == Scalar(4)
    cas = gkcoh.casimir_action(sl2, sl2_modules["ds-plus"])
    assert cas.is_scalar and cas.scalar.is_zero()


def test_dichotomy_branches(sl2, sl2_split, sl2_modules):
    for name, branch in (("trivial", "casimir-zero"),
                         ("ds-plus", "casimir-zero"),
                         ("ds-minus", "casimir-zero"),
                         ("adjoint", "casimir-nonzero")):
        module = sl2_modules[name]
        cx = gkcoh.build_complex(sl2, sl2_split, module)
        cas = gkcoh.casimir_action(sl2, module)
        res = gkcoh.vanishing_dichotomy(cx, cas)
        assert res.branch == branch and res.holds, (name, res.detail)


def test_dichotomy_not_applicable_for_direct_sum(sl2, sl2_split, sl2_modules):
    summed = direct_sum_module(sl2_modules["trivial"], sl2_modules["adjoint"])
    rep = gkcoh.validate_module(sl2, sl2_split, summed)
    assert rep.ok, rep.summary()
    cas = gkcoh.casimir_action(sl2, summed)
    assert not cas.is_scalar
    cx = gkcoh.build_complex(sl2, sl2_split, summed)
    res = gkcoh.vanishing_dichotomy(cx, cas)
    assert res.branch == "not-applicable"


# -- windows ------------------------------------------------------------------


def test_window_independence(sl2, sl2_split):
    results = []
    for window in (6, 8):
        module = catalog.sl2_discrete_series_module(1, window)
        cx = gkcoh.build_complex(sl2, sl2_split, module)
        cas = gkcoh.casimir_action(sl2, module)
        res = gkcoh.vanishing_dichotomy(cx, cas)
        results.append((nonzero_dims(cx.dims()),
                        nonzero_dims(gkcoh.cohomology_bigraded(cx)),
                        res.branch, res.holds))
    assert results[0] == results[1]


def test_window_too_small_raises(sl2, sl2_split):
    module = catalog.sl2_discrete_series_module(1, window=2)
    with pytest.raises(gkcoh.WindowError):
        gkcoh.casimir_action(sl2, module)


def test_action_exit_detected(sl2, sl2_split):
    module = catalog.sl2_discrete_series_module(1, window=6)
    vec = [ZERO] * module.total_dim
    lo, _ = module.slice_of(6)
    vec[lo] = ONE
    with pytest.raises(gkcoh.WindowError):
        module.apply(module.gen_by_name["e"].coords, tuple(vec))


# -- the Lefschetz operator ---------------------------------------------------


def test_lefschetz_on_trivial(sl2, sl2_split, sl2_modules):
    module = sl2_modules["trivial"]
    cx = gkcoh.build_complex(sl2, sl2_split, module)
    lef = gkcoh.lefschetz_on_complex(sl2, sl2_split, cx)
    block = lef[(0, 0)]
    assert block.rows == block.cols == 1
    assert not block.at(0, 0).is_zero()


def test_lefschetz_on_ds(sl2, sl2_split, sl2_modules):
    module = sl2_modules["ds-plus"]
    cx = gkcoh.build_complex(sl2, sl2_split, module)
    lef = gkcoh.lefschetz_on_complex(sl2, sl2_split, cx)
    assert all(m.is_zero_matrix() for m in lef.values())


def test_lefschetz_rejects_nonzero_differential(sl2, sl2_split, sl2_modules):
    module = sl2_modules["adjoint"]
    cx = gkcoh.build_complex(sl2, sl2_split, module)
    with pytest.raises(ValueError):
        gkcoh.lefschetz_on_complex(sl2, sl2_split, cx)


# -- product pair complex -----------------------------------------------------


def test_trivial_module_over_product_pair():
    pair = catalog.sl2_product_pair()
    split = gkcoh.split_p(pair)
    gens = []
    half = Scalar(Fraction(1, 2))
    i = Scalar(0, 1)
    # adapted generators: both W's, and the p+/p- vectors of each factor
    gens.append(ModuleGenerator("h1", (ONE, ZERO, ZERO, ZERO, ZERO, ZERO), 0))
    gens.append(ModuleGenerator("h2", (ZERO, ZERO, ZERO, ONE, ZERO, ZERO), 0))
    gens.append(ModuleGenerator("e1", (ZERO, ONE, i, ZERO, ZERO, ZERO), 2))
    gens.append(ModuleGenerator("f1", (ZERO, ONE, -i, ZERO, ZERO, ZERO), -2))
    gens.append(ModuleGenerator("e2", (ZERO, ZERO, ZERO, ZERO, ONE, i), 2))
    gens.append(ModuleGenerator("f2", (ZERO, ZERO, ZERO, ZERO, ONE, -i), -2))
    actions = {(g.name, 0): DenseMatrix.from_rows([[ZERO]])
               for g in gens if g.shift == 0}
    module = AdmissibleModule(
        name="trivial2", pair_name=pair.name, window=6,
        weights={0: 1}, forms={0: DenseMatrix.identity(1)},
        generators=tuple(gens), actions=actions)
    rep = gkcoh.validate_module(pair, split, module)
    assert rep.ok, rep.summary()
    cx = gkcoh.build_complex(pair, split, module)
    dims = nonzero_dims(gkcoh.cohomology_bigraded(cx))
    # H(sl2 x sl2, K, C) = H of a product of two diamonds: (1+t u)^2 pattern
    assert dims == {(0, 0): 1, (1, 1): 2, (2, 2): 1}
    lef = gkcoh.lefschetz_on_complex(pair, split, cx)
    assert not lef[(0, 0)].is_zero_matrix()


# -- one active factor over sl2R x sl2R ----------------------------------------


def one_factor_module(base: AdmissibleModule, active: int) -> AdmissibleModule:
    """V (x) C (active 0) or C (x) V (active 1) over sl2R-x-sl2R: the sl2
    module ``base`` acts through factor ``active``, and the other factor's
    h, e and f act by zero blocks at shift 0."""
    gens, actions = [], {}
    for factor in (0, 1):
        for g in base.generators:
            coords = [ZERO] * 6
            coords[3 * factor:3 * factor + 3] = g.coords
            name = f"{g.name}{factor + 1}"
            if factor == active:
                gens.append(ModuleGenerator(name, tuple(coords), g.shift))
                for (gname, w), block in base.actions.items():
                    if gname == g.name:
                        actions[(name, w)] = block
            else:
                gens.append(ModuleGenerator(name, tuple(coords), 0))
                for w, d in base.weights.items():
                    actions[(name, w)] = DenseMatrix.zero(d, d)
    side = "V(x)C" if active == 0 else "C(x)V"
    return AdmissibleModule(
        name=f"{base.name}:{side}", pair_name="sl2R-x-sl2R",
        window=base.window, weights=base.weights, forms=base.forms,
        generators=tuple(gens), actions=actions, unitary=base.unitary)


# Kuenneth with H(sl2R, SO(2); C) = {(0,0), (1,1)}: h^(p,q)(V) shifted by
# the trivial factor's diamond
KUENNETH = {
    "trivial": {(0, 0): 1, (1, 1): 2, (2, 2): 1},
    "ds-plus": {(1, 0): 1, (2, 1): 1},
    "ds-minus": {(0, 1): 1, (1, 2): 1},
    "adjoint": {},
}


@pytest.fixture(scope="module")
def product():
    pair = catalog.sl2_product_pair()
    return pair, gkcoh.split_p(pair)


@pytest.mark.parametrize("active", [0, 1])
@pytest.mark.parametrize("name", sorted(KUENNETH))
def test_one_factor_kuenneth(product, sl2_modules, name, active):
    pair, split = product
    module = one_factor_module(sl2_modules[name], active)
    rep = gkcoh.validate_module(pair, split, module)
    assert rep.ok, rep.summary()
    cx = gkcoh.build_complex(pair, split, module)
    assert gkcoh.complex_sanity(cx)
    assert nonzero_dims(gkcoh.cohomology_bigraded(cx)) == KUENNETH[name]
    total = gkcoh.ungraded_cohomology_dims(cx)
    assert gkcoh.laplacian_kernel_dims(module, cx) == total
    cas = gkcoh.casimir_action(pair, module)
    if name == "adjoint":
        assert not cx.differential_is_zero()
        assert cas.scalar == Scalar(4)
    else:
        assert cas.scalar.is_zero()


def complex_digest(pair, split, module) -> str:
    """sha256 over every cochain basis, d', d'', total differential and,
    on the d = 0 branch, Lefschetz block of the module's complex."""
    cx = gkcoh.build_complex(pair, split, module)
    h = hashlib.sha256()

    def put(tag, rows, cols, entries):
        h.update(f"{tag} {rows}x{cols}:".encode())
        h.update(" ".join(f"{x.re},{x.im}" for x in entries).encode())
        h.update(b"\n")

    def put_matrix(tag, m):
        put(tag, m.rows, m.cols, m.entries)

    for key in sorted(cx.bases):
        basis = cx.bases[key]
        put(f"C{key}", len(basis), len(basis[0]) if basis else 0,
            [x for vec in basis for x in vec])
        put_matrix(f"d'{key}", cx.d_plus[key])
        put_matrix(f"d''{key}", cx.d_minus[key])
    for n, dn in enumerate(cx.total_differentials):
        put_matrix(f"d{n}", dn)
    if cx.differential_is_zero():
        lef = gkcoh.lefschetz_on_complex(pair, split, cx)
        for key in sorted(lef):
            put_matrix(f"L{key}", lef[key])
    return h.hexdigest()


DIGESTS = {
    "adjoint":
        "25291b2d6594ccc9d1e1560b4fc0775057c2a0fe08361635d52daba4112367f6",
    "sl2-adjoint:V(x)C":
        "f0ba9a074e7bf7e4a585a68b75a661164bcc44c7656ad63a239e1f30ff344c94",
    "sl2-adjoint:C(x)V":
        "f3b6748400cc96e025993cd67aeb0967d99e278cc5fcb16046360bd658c3de07",
    "ds-minus":
        "f7d3ecc567d1abf631971afdaf235c1046bdf2401ac6aa678a28fc4ba900dbe6",
    "sl2-ds-minus:V(x)C":
        "da30ceac2f94dd071ccd19ecafd0f21313964765dfd59fb5655ab599199b7d96",
    "sl2-ds-minus:C(x)V":
        "60336c2bc22544d26f80622eaf1fd0f47ab979beb3a0857c6415e2ec89f9ca3f",
    "ds-plus":
        "690b25cc7277375031b635fec5d29586245deaffba6605187894ffb24b5b384a",
    "sl2-ds-plus:V(x)C":
        "cd42e3966448e2dc9b0130805eaedb45b8d03c212b74bcf82bda1eeb4d667530",
    "sl2-ds-plus:C(x)V":
        "425b41bec09eb1f476e75aeb18a767a214a6c68a9a16639c42562f24bb249833",
    "trivial":
        "b1a1585ea9f17a81344b84f553f2e19c686cdf6337342d301df121cd3b1b6eac",
    "sl2-trivial:V(x)C":
        "263d59715a483bfa9018f2fd5921a3c5a43607b6eedd1ea95ad9b98426d4bae3",
    "sl2-trivial:C(x)V":
        "263d59715a483bfa9018f2fd5921a3c5a43607b6eedd1ea95ad9b98426d4bae3",
}


def test_complex_digests(sl2, sl2_split, sl2_modules, product):
    got = {}
    for name, module in sorted(sl2_modules.items()):
        got[name] = complex_digest(sl2, sl2_split, module)
        for active in (0, 1):
            m = one_factor_module(module, active)
            got[m.name] = complex_digest(*product, m)
    assert got == DIGESTS


# -- the per-vector references --------------------------------------------------
#
# The bracket check, the Casimir and the K-equivariance system as they were
# computed before the block operators: rho on sparse flat vectors, one basis
# vector e_t at a time, and one dense kernel over the whole window.  The
# block code must give the same reports, Casimir results and complexes.


def ref_sparse_add(a: dict, b: dict, c=None) -> dict:
    out = dict(a)
    for t, v in b.items():
        out[t] = out.get(t, ZERO) + (v if c is None else c * v)
    return {t: v for t, v in out.items() if v}


def action_block(module, gen_name, from_w) -> DenseMatrix:
    """The stored block of ``gen_name`` from weight ``from_w``, checked
    against the window and the weight dimensions."""
    def dim_at(w):
        if abs(w) > module.window:
            raise gkcoh.WindowError(f"weight {w} is outside the stored window")
        return module.weights.get(w, 0)

    rows = dim_at(from_w + module.gen_by_name[gen_name].shift)
    cols = dim_at(from_w)
    block = module.actions.get((gen_name, from_w))
    if block is None:
        if rows == 0 or cols == 0:
            return DenseMatrix.zero(rows, cols)
        raise gkcoh.WindowError(
            f"action block ({gen_name}, from weight {from_w}) is missing")
    if block.rows != rows or block.cols != cols:
        raise ValueError(
            f"action block ({gen_name}, {from_w}) has shape "
            f"{block.rows}x{block.cols}, expected {rows}x{cols}")
    return block


class ReferenceOps:
    """rho(x) on sparse vectors {flat index: nonzero Scalar}."""

    def __init__(self, pair, module):
        self.module = module
        self.gamma_inv = inverse(DenseMatrix.from_columns(
            [g.coords for g in module.generators], rows=pair.dim))

    def expand(self, x):
        return self.gamma_inv.apply(tuple(Scalar.of(v) for v in x))

    def apply_sparse(self, x, sv: dict) -> dict:
        out = {}
        for c, gen in zip(self.expand(x), self.module.generators):
            if c:
                out = ref_sparse_add(out, self.gen_sparse(gen, sv), c)
        return out

    def gen_sparse(self, gen, sv: dict) -> dict:
        m = self.module
        weight_at = [w for w in m.sorted_weights for _ in range(m.weights[w])]
        out = {}
        for w in dict.fromkeys(weight_at[t] for t in sorted(sv)):
            target = w + gen.shift
            if abs(target) > m.window:
                raise gkcoh.WindowError(
                    f"applying {gen.name} from weight {w} exits the window")
            if m.weights.get(target, 0) == 0:
                continue
            block = action_block(m, gen.name, w)
            lo, hi = m.slice_of(w)
            tlo, _ = m.slice_of(target)
            piece = [sv.get(t, ZERO) for t in range(lo, hi)]
            for t, val in enumerate(block.apply(piece)):
                if val:
                    out[tlo + t] = val
        return out

    def dense(self, sv: dict) -> tuple:
        out = [ZERO] * self.module.total_dim
        for t, v in sv.items():
            out[t] = v
        return tuple(out)

    def apply(self, x, vec) -> tuple:
        return self.dense(self.apply_sparse(
            x, {t: v for t, v in enumerate(vec) if v}))

    def matrix(self, x) -> DenseMatrix:
        d = self.module.total_dim
        return DenseMatrix.from_columns(
            [self.dense(self.apply_sparse(x, {j: ONE})) for j in range(d)],
            rows=d)


def ref_interior_weights(module):
    shifts = [g.shift for g in module.generators]
    w = module.window
    return [n for n in module.sorted_weights
            if all(abs(n + s) <= w for s in shifts)
            and all(abs(n + s + t) <= w for s in shifts for t in shifts)]


def reference_validate_module(pair, split, module) -> ValidationReport:
    rep = ValidationReport()
    n = pair.dim
    for g in module.generators:
        if len(g.coords) != n:
            rep.add("generator-shape", f"{g.name} has wrong coordinate length")
            return rep
    k_span = SpanBuilder(n)
    for i in pair.k_indices:
        k_span.add(pair.basis_vector(i))
    plus_span = SpanBuilder(n)
    for v in split.plus:
        plus_span.add(v)
    minus_span = SpanBuilder(n)
    for v in split.minus:
        minus_span.add(v)
    for g in module.generators:
        in_k = k_span.contains(g.coords)
        in_plus = plus_span.contains(g.coords)
        in_minus = minus_span.contains(g.coords)
        if not (in_k or in_plus or in_minus):
            rep.add("generator-purity",
                    f"{g.name} is not of pure type (k, p+ or p-)")
        if in_k and g.shift != 0:
            rep.add("generator-shift",
                    f"k-type generator {g.name} must have shift 0")
    gamma = DenseMatrix.from_columns([g.coords for g in module.generators],
                                     rows=n)
    rows, _ = rref(gamma.row_lists())
    if gamma.cols != n or len(rows) != n:
        rep.add("generator-span", "generators do not form a basis of g1_C")
        return rep
    for w, d in module.weights.items():
        if abs(w) > module.window:
            rep.add("window", f"weight {w} declared outside the window")
        g = module.forms.get(w)
        if g is None or g.rows != d or g.cols != d:
            rep.add("form-shape", f"weight {w} lacks a {d}x{d} form")
            continue
        try:
            if not hermitian_definiteness(g):
                rep.add("form-positive", f"form at weight {w} is not positive")
        except ValueError:
            rep.add("form-hermitian", f"form at weight {w} is not Hermitian")
    for g in module.generators:
        for w, d in module.weights.items():
            target = w + g.shift
            if abs(target) > module.window:
                continue
            if module.weights.get(target, 0) == 0:
                continue
            block = module.actions.get((g.name, w))
            if block is None:
                rep.add("action-missing",
                        f"missing block ({g.name}, from weight {w})")
            elif (block.rows, block.cols) != (module.weights[target], d):
                rep.add("action-shape",
                        f"block ({g.name}, {w}) has the wrong shape")
    if not rep.ok:
        return rep
    ops = ReferenceOps(pair, module)
    interior = ref_interior_weights(module)
    for gi in module.generators:
        for gj in module.generators:
            lie = pair.bracket(gi.coords, gj.coords)
            for w in interior:
                lo, hi = module.slice_of(w)
                for t in range(lo, hi):
                    e_t = {t: ONE}
                    lhs = ops.apply_sparse(gi.coords,
                                           ops.apply_sparse(gj.coords, e_t))
                    rhs = ops.apply_sparse(gj.coords,
                                           ops.apply_sparse(gi.coords, e_t))
                    if lhs != ref_sparse_add(rhs, ops.apply_sparse(lie, e_t)):
                        rep.add("bracket-compatibility",
                                f"rho([{gi.name},{gj.name}]) mismatch at "
                                f"weight {w}")
                        break
    if not module.unitary:
        return rep
    for g in module.generators:
        coeffs = ops.expand(tuple(c.conjugate() for c in g.coords))
        for w in module.sorted_weights:
            target = w + g.shift
            if abs(target) > module.window or module.weights.get(target, 0) == 0:
                continue
            m_block = action_block(module, g.name, w)
            n_block = DenseMatrix.zero(module.weights[w],
                                       module.weights[target])
            for c, gen2 in zip(coeffs, module.generators):
                if c.is_zero() or gen2.shift != -g.shift:
                    continue
                n_block = n_block.add(
                    action_block(module, gen2.name, target).scale(c))
            lhs = m_block.conj_transpose().mul(module.forms[target])
            rhs = module.forms[w].mul(n_block).scale(Scalar(-1))
            if lhs != rhs:
                rep.add("unitarity",
                        f"{g.name} is not skew-adjoint from weight {w}")
    return rep


def reference_casimir(pair, split, module) -> gkcoh.CasimirResult:
    ops = ReferenceOps(pair, module)
    b_inv = inverse(pair.b_form)
    interior_weights = ref_interior_weights(module)
    if module.sorted_weights and not interior_weights:
        raise gkcoh.WindowError("window too small for any Casimir composition")
    scalars, non_scalar = {}, []
    for n in interior_weights:
        lo, hi = module.slice_of(n)
        dim_n = hi - lo
        cols = []
        for t in range(dim_n):
            total = {}
            for i in range(pair.dim):
                step = ops.apply_sparse(b_inv.column(i), {lo + t: ONE})
                step = ops.apply_sparse(pair.basis_vector(i), step)
                total = ref_sparse_add(total, step)
            cols.append(total)
        ok = all(lo <= t < hi for col in cols for t in col)
        diag = None
        if ok:
            first = None
            for t in range(dim_n):
                val = cols[t].get(lo + t, ZERO)
                if first is None:
                    first = val
                for s in range(dim_n):
                    expected = first if s == t else ZERO
                    if cols[t].get(lo + s, ZERO) != expected:
                        ok = False
            diag = first
        if ok and diag is not None:
            scalars[n] = diag
        else:
            non_scalar.append(n)
    return gkcoh.CasimirResult(scalars=scalars, non_scalar=non_scalar,
                               interior=interior_weights)


def ref_apply_d(ops, slots, wedges, f, src_key, dst_key, dv):
    d = len(slots) // 2
    plus = dst_key[0] > src_key[0]
    spos = {w: t for t, w in enumerate(wedges[src_key])}
    dst_w = wedges[dst_key]
    out = [ZERO] * (len(dst_w) * dv)
    for wt, w in enumerate(dst_w):
        acc = [ZERO] * dv
        for a, s in enumerate(w):
            if (s < d) != plus:
                continue
            st = spos[w[:a] + w[a + 1:]]
            piece = f[st * dv:(st + 1) * dv]
            if all(not x for x in piece):
                continue
            img = ops.apply(slots[s], piece)
            sgn = Scalar(-1 if a % 2 else 1)
            for t, val in enumerate(img):
                if val:
                    acc[t] = acc[t] + sgn * val
        out[wt * dv:(wt + 1) * dv] = acc
    return tuple(out)


def reference_complex(pair, split, module):
    """Cochain bases from one dense kernel per bidegree, and the
    differentials from the per-vector action."""
    ops = ReferenceOps(pair, module)
    d = split.dim
    dv = module.total_dim
    slots = split.plus + split.minus
    k_act = {}
    for ki in pair.k_indices:
        h = pair.basis_vector(ki)
        table = []
        for sign, first, vectors in (("+", 0, split.plus),
                                     ("-", d, split.minus)):
            for u in vectors:
                coords = solve(
                    DenseMatrix.from_columns(vectors, rows=pair.dim),
                    pair.bracket(h, u))
                if coords is None:
                    raise ValueError(
                        f"[k, p{sign}] is not contained in p{sign}")
                table.append({first + b: c for b, c in enumerate(coords) if c})
        k_act[ki] = table
    rho_k = {ki: ops.matrix(pair.basis_vector(ki)) for ki in pair.k_indices}
    wedges, bases, spans = {}, {}, {}
    for p in range(d + 1):
        for q in range(d + 1):
            wl = [ii + tuple(d + j for j in jj)
                  for ii in combinations(range(d), p)
                  for jj in combinations(range(d), q)]
            wedges[(p, q)] = wl
            ambient = len(wl) * dv
            spans[(p, q)] = SpanBuilder(ambient)
            if ambient == 0:
                bases[(p, q)] = ()
                continue
            rows = []
            wpos = {w: t for t, w in enumerate(wl)}
            for ki in pair.k_indices:
                rk = rho_k[ki]
                for wt, w in enumerate(wl):
                    moved = {}
                    for a, s in enumerate(w):
                        for b, c in k_act[ki][s].items():
                            res = gkcoh._sort_sign(w[:a] + (b,) + w[a + 1:])
                            if res is None:
                                continue
                            key, sgn = res
                            moved[key] = moved.get(key, ZERO) + Scalar(sgn) * c
                    for vout in range(dv):
                        row = [ZERO] * ambient
                        for vin in range(dv):
                            c = rk.at(vout, vin)
                            if not c.is_zero():
                                row[wt * dv + vin] = row[wt * dv + vin] + c
                        for key, c in moved.items():
                            if c.is_zero():
                                continue
                            row[wpos[key] * dv + vout] = \
                                row[wpos[key] * dv + vout] - c
                        if any(not x.is_zero() for x in row):
                            rows.append(row)
            if rows:
                bases[(p, q)] = kernel(DenseMatrix.from_rows(rows)).basis
            else:
                bases[(p, q)] = full_basis(ambient)
            for vec in bases[(p, q)]:
                spans[(p, q)].add(vec)
    d_plus, d_minus = {}, {}
    for (p, q), src in bases.items():
        for (tp, tq), store in (((p + 1, q), d_plus), ((p, q + 1), d_minus)):
            if tp > d or tq > d:
                store[(p, q)] = DenseMatrix.zero(0, len(src))
                continue
            cols = []
            for f in src:
                img = ref_apply_d(ops, slots, wedges, f, (p, q), (tp, tq), dv)
                coords = spans[(tp, tq)].coordinates(img)
                if coords is None:
                    raise ArithmeticError(
                        "differential left the equivariant subspace")
                cols.append(coords)
            store[(p, q)] = DenseMatrix.from_columns(
                cols, rows=len(bases[(tp, tq)]))
    return bases, d_plus, d_minus


# -- comparison inputs ----------------------------------------------------------


def rebuilt(module, **changes) -> AdmissibleModule:
    fields = dict(name=module.name, pair_name=module.pair_name,
                  window=module.window, weights=module.weights,
                  forms=module.forms, generators=module.generators,
                  actions=module.actions, unitary=module.unitary)
    fields.update(changes)
    return AdmissibleModule(**fields)


def rescaled(module, rng) -> AdmissibleModule:
    """The module in the basis u = s_w v on each weight space, s_w a seeded
    positive rational: forms pick up s_w^2, a block from w to w' picks up
    s_w / s_w'."""
    scale = {w: Fraction(rng.randint(1, 5), rng.randint(1, 5))
             for w in module.sorted_weights}
    forms = {w: m.scale(Scalar(scale[w] ** 2))
             for w, m in module.forms.items()}
    actions = {}
    for (gname, w), block in module.actions.items():
        target = w + module.gen_by_name[gname].shift
        actions[(gname, w)] = block.scale(Scalar(scale[w] / scale[target]))
    return rebuilt(module, name=module.name + ":rescaled", forms=forms,
                   actions=actions)


def mutant(module, rng, kind) -> AdmissibleModule:
    """One seeded defect: an action entry scaled at an interior weight, a
    form entry changed, or a generator shift changed."""
    if kind == "action":
        interior = set(ref_interior_weights(module))
        keys = sorted(k for k, m in module.actions.items()
                      if k[1] in interior and not m.is_zero_matrix())
        key = rng.choice(keys)
        block = module.actions[key]
        spots = [t for t, x in enumerate(block.entries) if x]
        entries = list(block.entries)
        t = rng.choice(spots)
        entries[t] = entries[t] * Scalar(rng.choice(
            [Fraction(2), Fraction(-1), Fraction(1, 3), Fraction(5, 2)]))
        actions = dict(module.actions)
        actions[key] = DenseMatrix(block.rows, block.cols, entries)
        return rebuilt(module, actions=actions)
    if kind == "form":
        w = rng.choice(module.sorted_weights)
        form = module.forms[w]
        entries = list(form.entries)
        t = rng.randrange(len(entries))
        entries[t] = entries[t] + Scalar(rng.choice([1, -1, 2]),
                                         rng.choice([0, 0, 1]))
        forms = dict(module.forms)
        forms[w] = DenseMatrix(form.rows, form.cols, entries)
        return rebuilt(module, forms=forms)
    gens = list(module.generators)
    t = rng.randrange(len(gens))
    g = gens[t]
    gens[t] = ModuleGenerator(g.name, g.coords,
                              g.shift + rng.choice([-4, -2, -1, 1, 2, 4]))
    return rebuilt(module, generators=tuple(gens))


def direct_sum_module(trivial, adjoint) -> AdmissibleModule:
    """trivial (+) adjoint: weight 0 is 2-dimensional, +-2 come from the
    adjoint, whose vectors sit in the first slot of each weight space."""
    weights = {-2: 1, 0: 2, 2: 1}
    forms = {-2: DenseMatrix.identity(1), 0: DenseMatrix.identity(2),
             2: DenseMatrix.identity(1)}
    actions = {}
    for (gname, from_w), mat in adjoint.actions.items():
        to_w = from_w + adjoint.gen_by_name[gname].shift
        entries = [[ZERO] * weights.get(from_w, 0)
                   for _ in range(weights.get(to_w, 0))]
        for i in range(mat.rows):
            for j in range(mat.cols):
                entries[i][j] = mat.at(i, j)
        actions[(gname, from_w)] = DenseMatrix.from_rows(entries)
    return AdmissibleModule(
        name="trivial+adjoint", pair_name="sl2R", window=adjoint.window,
        weights=weights, forms=forms, generators=adjoint.generators,
        actions=actions, unitary=False)


def coupled_module() -> AdmissibleModule:
    """Not a module: h shifts by 2, so rho(h) couples the weights and the
    equivariance system has blocks of columns across weights; e and f act
    by 0, so the complex still completes."""
    i = Scalar(0, 1)
    gens = tuple(ModuleGenerator(g.name, g.coords, 2 if g.name == "h"
                                 else g.shift)
                 for g in catalog.sl2_trivial_module().generators)
    weights = {0: 1, 2: 2, 4: 1}
    actions = {
        ("h", 0): DenseMatrix.from_rows([[i], [ONE]]),
        ("h", 2): DenseMatrix.from_rows([[ONE, -i]]),
        ("e", 0): DenseMatrix.zero(2, 1), ("e", 2): DenseMatrix.zero(1, 2),
        ("f", 2): DenseMatrix.zero(1, 2), ("f", 4): DenseMatrix.zero(2, 1),
    }
    return AdmissibleModule(
        name="coupled", pair_name="sl2R", window=6, weights=weights,
        forms={w: DenseMatrix.identity(d) for w, d in weights.items()},
        generators=gens, actions=actions, unitary=False)


def outcome(fn, *args):
    """fn(*args), or the type and message of the error it raises."""
    try:
        return fn(*args)
    except (ValueError, ArithmeticError) as exc:
        return type(exc).__name__, str(exc)


def compared(pair, split, module):
    """(new, reference) pairs of the validation summary, the Casimir
    result and the complex of one module."""
    def casimir(fn, *args):
        res = outcome(fn, *args)
        if isinstance(res, gkcoh.CasimirResult):
            return res.scalars, res.non_scalar, res.interior
        return res

    def cochains():
        cx = gkcoh.build_complex(pair, split, module)
        return cx.bases, cx.d_plus, cx.d_minus

    return [
        (gkcoh.validate_module(pair, split, module).summary(),
         reference_validate_module(pair, split, module).summary()),
        (casimir(gkcoh.casimir_action, pair, module),
         casimir(reference_casimir, pair, split, module)),
        (outcome(cochains), outcome(reference_complex, pair, split, module)),
    ]


def sl2_inputs(window):
    return {
        "trivial": catalog.sl2_trivial_module(window),
        "adjoint": catalog.sl2_adjoint_module(window),
        "ds-plus": catalog.sl2_discrete_series_module(1, window),
        "ds-minus": catalog.sl2_discrete_series_module(-1, window),
    }


@pytest.mark.parametrize("window", [2, 4, 6, 96])
def test_block_operators_match_references_catalog(sl2, sl2_split, window):
    mods = sl2_inputs(window)
    if window == 96:
        for sign, name in ((1, "ds-plus"), (-1, "ds-minus")):
            mods[f"{name}:rescaled"] = rescaled(
                mods[name], random.Random(f"rescale:{name}"))
    else:
        mods["trivial+adjoint"] = direct_sum_module(mods["trivial"],
                                                    mods["adjoint"])
        mods["coupled"] = coupled_module()
    for name, module in mods.items():
        for got, want in compared(sl2, sl2_split, module):
            assert got == want, name


def test_block_operators_match_references_kuenneth(product, sl2_modules):
    pair, split = product
    for name in sorted(KUENNETH):
        for active in (0, 1):
            module = one_factor_module(sl2_modules[name], active)
            for got, want in compared(pair, split, module):
                assert got == want, module.name


def test_block_operators_match_references_mutants(sl2, sl2_split):
    rng = random.Random(20260)
    bases = list(sl2_inputs(10).values())
    bases.append(direct_sum_module(bases[0], bases[1]))
    codes, casimirs = set(), []
    for base in bases:
        for kind, count in (("action", 2), ("form", 2), ("shift", 4)):
            if kind == "action" and base.name == "sl2-trivial":
                continue    # its only block is zero
            for _ in range(count):
                module = mutant(base, rng, kind)
                pairs = compared(sl2, sl2_split, module)
                for got, want in pairs:
                    assert got == want, (base.name, kind)
                codes |= set(reference_validate_module(
                    sl2, sl2_split, module).codes())
                if base.name != "trivial+adjoint":
                    casimirs.append(pairs[1][1])
    assert len(casimirs) >= 30
    assert {"bracket-compatibility", "unitarity"} <= codes
    # a Casimir with off-weight parts, and one with differing scalars
    results = [c for c in casimirs if len(c) == 3]
    assert any(non_scalar for _, non_scalar, _ in results)
    assert any(len(set(scalars.values())) > 1 for scalars, _, _ in results)


def test_blockwise_kernel_matches_dense_kernel():
    # seeded sparse systems of every shape, columns coupled at random
    rng = random.Random(7)
    values = [Scalar(a, b) for a in (-2, -1, 1, 3) for b in (0, 0, 1)]
    for _ in range(300):
        ambient = rng.randint(1, 9)
        rows = []
        for _ in range(rng.randint(0, 8)):
            cols = rng.sample(range(ambient), rng.randint(1, min(3, ambient)))
            rows.append({c: rng.choice(values) for c in cols})
        dense = [[row.get(c, ZERO) for c in range(ambient)] for row in rows]
        want = kernel(DenseMatrix.from_rows(dense)).basis if rows \
            else full_basis(ambient)
        assert gkcoh._blockwise_kernel(rows, ambient) == want


# -- block words on entry lists ----------------------------------------------


WORD_ENTRIES = (ZERO, ZERO, ZERO, ONE, -ONE, Scalar(2), Scalar(0, 1),
                Scalar(Fraction(1, 2), -1))


@st.composite
def word_combinations(draw):
    """Blocks of sl2R's generators h, e, f (shifts 0, 2, -2) on weights
    -4..4, each weight space of dim 1-3 or absent, with mostly zero
    entries (so products vanish midway), a present weight and terms of
    words up to length 3.  The window 12 holds every path, so no block
    read fails."""
    weights = {w: d for w in range(-4, 5, 2)
               if (d := draw(st.integers(1 if w == 0 else 0, 3)))}
    gens = catalog.sl2_trivial_module().generators
    actions = {}
    for g in gens:
        for w, d in weights.items():
            r = weights.get(w + g.shift, 0)
            if r:
                actions[(g.name, w)] = DenseMatrix(r, d, draw(st.lists(
                    st.sampled_from(WORD_ENTRIES), min_size=r * d,
                    max_size=r * d)))
    module = AdmissibleModule(
        name="words", pair_name="", window=12, weights=weights, forms={},
        generators=gens, actions=actions, unitary=False)
    terms = draw(st.lists(st.tuples(
        st.sampled_from(WORD_ENTRIES[3:]),
        st.lists(st.integers(0, 2), min_size=1, max_size=3).map(tuple)),
        max_size=6))
    return module, terms, draw(st.sampled_from(sorted(weights)))


def reference_combination(module, terms, w) -> dict:
    """Whole DenseMatrix products: a word counts unless it reaches an
    absent weight space or its full product is zero."""
    out = {}
    for c, word in terms:
        prod, at = DenseMatrix.identity(module.weights[w]), w
        for k in reversed(word):
            gen = module.generators[k]
            if not module.weights.get(at + gen.shift):
                break
            prod = module.actions[(gen.name, at)].mul(prod)
            at += gen.shift
        else:
            if not prod.is_zero_matrix():
                prod = prod.scale(c)
                out[at] = out[at].add(prod) if at in out else prod
    return out


@given(word_combinations())
@settings(max_examples=150, deadline=None)
def test_block_words_match_dense_references(sl2, sl2_split, case):
    # the operators' word sums on the columns of weight w, as flat
    # vectors, against the dense block products placed in the window
    module, terms, w = case
    lo, hi = module.slice_of(w)
    want = [[ZERO] * module.total_dim for _ in range(lo, hi)]
    for at, block in reference_combination(module, terms, w).items():
        tlo, _ = module.slice_of(at)
        for i in range(block.rows):
            for j in range(block.cols):
                want[j][tlo + i] = block.at(i, j)
    got = module.words(terms, [w])
    assert list(got) == list(range(lo, hi))
    assert all(x for img in got.values() for x in img.values())
    assert [[got[j].get(t, ZERO) for t in range(module.total_dim)]
            for j in range(lo, hi)] == want
    got = gkcoh.casimir_action(sl2, module)
    want = reference_casimir(sl2, sl2_split, module)
    assert (got.scalars, got.non_scalar, got.interior) == \
        (want.scalars, want.non_scalar, want.interior)


def block_read(module, k, w):
    """The stored block A_k(w) as the block-by-block code read it: None
    when weight w + shift carries no space; the window exit, the weight
    outside the window, the missing and the misshapen block raise, in
    that order."""
    gen = module.generators[k]
    target = w + gen.shift
    if abs(target) > module.window:
        raise gkcoh.WindowError(
            f"applying {gen.name} from weight {w} exits the window")
    rows, cols = module.weights.get(target, 0), module.weights.get(w, 0)
    block = module.actions.get((gen.name, w)) if rows else None
    if rows and abs(w) > module.window:
        raise gkcoh.WindowError(f"weight {w} is outside the stored window")
    if rows and block is None:
        raise gkcoh.WindowError(
            f"action block ({gen.name}, from weight {w}) is missing")
    if block is not None and (block.rows, block.cols) != (rows, cols):
        raise ValueError(
            f"action block ({gen.name}, {w}) has shape "
            f"{block.rows}x{block.cols}, expected {rows}x{cols}")
    return block


def reference_words(module, terms, weights) -> dict:
    """The word sums weight by weight, term by term and letter by
    letter, on whole blocks: a word drops out of a weight once its block
    product there is zero, and the first block read that fails raises.
    As flat columns {j: sparse vector}."""
    out = {}
    for w in weights:
        lo, hi = module.slice_of(w)
        total = {}
        for c, word in terms:
            prod, at = None, w
            for k in reversed(word):
                block = block_read(module, k, at)
                if block is None:
                    break
                prod = block if prod is None else block.mul(prod)
                at += module.generators[k].shift
                if prod.is_zero_matrix():
                    break
            else:
                prev = total.get(at)
                prod = prod.scale(c)
                total[at] = prod if prev is None else prev.add(prod)
        for j in range(hi - lo):
            col = {}
            for at, m in total.items():
                tlo, _ = module.slice_of(at)
                col.update({tlo + i: x for i in range(m.rows)
                            if (x := m.at(i, j))})
            out[lo + j] = col
    return out


@st.composite
def faulty_words(draw):
    """sl2R's generators on weights -6..6 of dim 1-2 or absent, window 4,
    so weights +-6 lie outside it and e, f exit it; each block may be
    missing, misshapen or zero.  Terms of words up to length 3 and an
    ascending set of present weights."""
    weights = {w: d for w in range(-6, 7, 2)
               if (d := draw(st.integers(1 if w == 0 else 0, 2)))}
    gens = catalog.sl2_trivial_module().generators
    actions = {}
    for g in gens:
        for w, d in weights.items():
            r = weights.get(w + g.shift, 0)
            kind = draw(st.sampled_from(["block", "block", "block", "zero",
                                         "missing", "misshapen"]))
            if kind == "missing":
                continue
            rows = r + 1 if kind == "misshapen" else r
            if rows == 0:
                continue
            actions[(g.name, w)] = DenseMatrix(rows, d, draw(st.lists(
                st.sampled_from(WORD_ENTRIES if kind == "block" else [ZERO]),
                min_size=rows * d, max_size=rows * d)))
    module = AdmissibleModule(
        name="faulty", pair_name="", window=4, weights=weights, forms={},
        generators=gens, actions=actions, unitary=False)
    terms = draw(st.lists(st.tuples(
        st.sampled_from(WORD_ENTRIES[3:]),
        st.lists(st.integers(0, 2), min_size=1, max_size=3).map(tuple)),
        min_size=1, max_size=4))
    chosen = draw(st.lists(st.sampled_from(sorted(weights)), min_size=1,
                           unique=True))
    return module, terms, sorted(chosen)


@given(faulty_words())
@settings(max_examples=300, deadline=None)
def test_word_faults_match_block_reads(case):
    # the operators raise what the first failing block read raised, and
    # only when that block is read: a zero product reads no further
    module, terms, weights = case
    assert outcome(module.words, terms, weights) == \
        outcome(reference_words, module, terms, weights)


def test_module_checks_make_no_matrix_products(sl2, sl2_split, monkeypatch):
    # the bracket, unitarity and Casimir checks compose blocks on entry
    # lists, whatever the window
    calls = []
    mul = DenseMatrix.mul

    def counting(self, other):
        calls.append((self.rows, self.cols, other.cols))
        return mul(self, other)

    monkeypatch.setattr(DenseMatrix, "mul", counting)
    module = catalog.sl2_discrete_series_module(1, 96)
    assert gkcoh.validate_module(sl2, sl2_split, module).ok
    assert gkcoh.casimir_action(sl2, module).is_scalar
    assert calls == []


def test_bracket_check_on_a_non_antisymmetric_table(sl2):
    # [A, W] given as [W, A]: [gj, gi] is not minus [gi, gj], so each
    # ordered pair of generators is checked on its own
    brackets = dict(sl2.brackets)
    brackets[(1, 0)] = brackets[(0, 1)]
    pair = ReductivePair(sl2.names, brackets, sl2.k_indices, sl2.p_indices,
                         sl2.b_form, sl2.z0, name="sl2R-symmetric-WA")
    split = gkcoh.split_p(pair)
    for module in (catalog.sl2_discrete_series_module(1, 10),
                   catalog.sl2_adjoint_module(6)):
        got = gkcoh.validate_module(pair, split, module).summary()
        assert got == reference_validate_module(pair, split, module).summary()
        assert "rho([e,h]) mismatch" in got
        assert "rho([h,e])" not in got
