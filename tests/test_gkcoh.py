import hashlib
from fractions import Fraction

import pytest

from hlk import catalog, gkcoh
from hlk.exactlin import DenseMatrix, Scalar, ZERO, ONE
from hlk.gkcoh import AdmissibleModule, ModuleGenerator, ReductivePair


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
        lap = gkcoh.laplacian_kernel_dims(sl2, sl2_split, module, cx)
        total = gkcoh.ungraded_cohomology_dims(cx)
        for n in set(lap) | set(total):
            assert lap.get(n, 0) == total.get(n, 0)


# -- Casimir and dichotomy ----------------------------------------------------


def test_casimir_values(sl2, sl2_split, sl2_modules):
    cas = gkcoh.casimir_action(sl2, sl2_split, sl2_modules["trivial"])
    assert cas.is_scalar and cas.scalar.is_zero()
    cas = gkcoh.casimir_action(sl2, sl2_split, sl2_modules["adjoint"])
    assert cas.is_scalar and cas.scalar == Scalar(4)
    cas = gkcoh.casimir_action(sl2, sl2_split, sl2_modules["ds-plus"])
    assert cas.is_scalar and cas.scalar.is_zero()


def test_dichotomy_branches(sl2, sl2_split, sl2_modules):
    for name, branch in (("trivial", "casimir-zero"),
                         ("ds-plus", "casimir-zero"),
                         ("ds-minus", "casimir-zero"),
                         ("adjoint", "casimir-nonzero")):
        module = sl2_modules[name]
        cx = gkcoh.build_complex(sl2, sl2_split, module)
        cas = gkcoh.casimir_action(sl2, sl2_split, module)
        res = gkcoh.vanishing_dichotomy(sl2, sl2_split, module, cx, cas)
        assert res.branch == branch and res.holds, (name, res.detail)


def test_dichotomy_not_applicable_for_direct_sum(sl2, sl2_split, sl2_modules):
    trivial = sl2_modules["trivial"]
    adjoint = sl2_modules["adjoint"]
    # direct sum: weight 0 is 2-dimensional, +-2 come from the adjoint
    weights = {-2: 1, 0: 2, 2: 1}
    forms = {-2: DenseMatrix.identity(1), 0: DenseMatrix.identity(2),
             2: DenseMatrix.identity(1)}
    actions = {}
    for (gname, from_w), mat in adjoint.actions.items():
        to_w = from_w + adjoint.gen_by_name[gname].shift
        rows = weights.get(to_w, 0)
        cols = weights.get(from_w, 0)
        entries = [[ZERO] * cols for _ in range(rows)]
        # adjoint sits in the first slot of each weight space; the
        # trivial summand occupies the second slot of weight 0
        for i in range(mat.rows):
            for j in range(mat.cols):
                entries[i][j] = mat.at(i, j)
        actions[(gname, from_w)] = DenseMatrix.from_rows(entries)
    summed = AdmissibleModule(
        name="trivial+adjoint", pair_name="sl2R", window=adjoint.window,
        weights=weights, forms=forms, generators=adjoint.generators,
        actions=actions, unitary=False)
    rep = gkcoh.validate_module(sl2, sl2_split, summed)
    assert rep.ok, rep.summary()
    cas = gkcoh.casimir_action(sl2, sl2_split, summed)
    assert not cas.is_scalar
    cx = gkcoh.build_complex(sl2, sl2_split, summed)
    res = gkcoh.vanishing_dichotomy(sl2, sl2_split, summed, cx, cas)
    assert res.branch == "not-applicable"


# -- windows ------------------------------------------------------------------


def test_window_independence(sl2, sl2_split):
    results = []
    for window in (6, 8):
        module = catalog.sl2_discrete_series_module(1, window)
        cx = gkcoh.build_complex(sl2, sl2_split, module)
        cas = gkcoh.casimir_action(sl2, sl2_split, module)
        res = gkcoh.vanishing_dichotomy(sl2, sl2_split, module, cx, cas)
        results.append((nonzero_dims(cx.dims()),
                        nonzero_dims(gkcoh.cohomology_bigraded(cx)),
                        res.branch, res.holds))
    assert results[0] == results[1]


def test_window_too_small_raises(sl2, sl2_split):
    module = catalog.sl2_discrete_series_module(1, window=2)
    with pytest.raises(gkcoh.WindowError):
        gkcoh.casimir_action(sl2, sl2_split, module)


def test_action_exit_detected(sl2, sl2_split):
    module = catalog.sl2_discrete_series_module(1, window=6)
    ops = gkcoh.ModuleOps(sl2, sl2_split, module)
    vec = [ZERO] * module.total_dim
    lo, _ = module.slice_of(6)
    vec[lo] = ONE
    with pytest.raises(gkcoh.WindowError):
        ops.apply(module.gen_by_name["e"].coords, tuple(vec))


# -- the Lefschetz operator ---------------------------------------------------


def test_lefschetz_on_trivial(sl2, sl2_split, sl2_modules):
    module = sl2_modules["trivial"]
    cx = gkcoh.build_complex(sl2, sl2_split, module)
    lef = gkcoh.lefschetz_on_complex(sl2, sl2_split, module, cx)
    block = lef[(0, 0)]
    assert block.rows == block.cols == 1
    assert not block.at(0, 0).is_zero()


def test_lefschetz_on_ds(sl2, sl2_split, sl2_modules):
    module = sl2_modules["ds-plus"]
    cx = gkcoh.build_complex(sl2, sl2_split, module)
    lef = gkcoh.lefschetz_on_complex(sl2, sl2_split, module, cx)
    assert all(m.is_zero_matrix() for m in lef.values())


def test_lefschetz_rejects_nonzero_differential(sl2, sl2_split, sl2_modules):
    module = sl2_modules["adjoint"]
    cx = gkcoh.build_complex(sl2, sl2_split, module)
    with pytest.raises(ValueError):
        gkcoh.lefschetz_on_complex(sl2, sl2_split, module, cx)


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
    lef = gkcoh.lefschetz_on_complex(pair, split, module, cx)
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
    assert gkcoh.laplacian_kernel_dims(pair, split, module, cx) == total
    cas = gkcoh.casimir_action(pair, split, module)
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
        lef = gkcoh.lefschetz_on_complex(pair, split, module, cx)
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
