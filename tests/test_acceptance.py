"""Acceptance criteria, one test per criterion, exact arithmetic only.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one verdict
line per criterion, printed whether the criterion passes or fails.
"""

import functools
import json
import random

from hlk import assembler as asm
from hlk import catalog, fileio, gkcoh
from hlk import lefschetz as lz
from hlk import llgen
from hlk.cli import main as cli_main
from hlk.exactlin import (
    DenseMatrix,
    Scalar,
    ONE,
    hermitian_definiteness,
    rref,
    vec_is_zero,
    vec_scale,
)
from test_lefschetz import reference_lambda_by_solve, relations_hold

SEED = 20260811


def criterion(num, text):
    """Print one [PASS]/[FAIL] line per criterion, even on failure."""

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] criterion {num}: {text}")
                raise
            print(f"[PASS] criterion {num}: {text}")
        return wrapper

    return decorate


def catalog_algebras():
    algs = [catalog.torus_algebra(), catalog.abelian_surface_algebra(),
            catalog.k3_algebra()]
    algs += [catalog.g2_family_algebra(k) for k in range(2, 7)]
    return algs


@criterion(1, "hard Lefschetz rank checks and omega^g != 0, >=3 cone classes per catalog algebra")
def test_criterion_1_hard_lefschetz():
    checked = 0
    for alg in catalog_algebras():
        family = lz.cone_check_family(alg, alg.kahler)
        assert len(family) >= 3
        for w in family:
            l_op = lz.lefschetz_operator(alg, w)
            power = DenseMatrix.identity(alg.n)
            powers = [power]
            for _ in range(2 * alg.g):
                power = l_op.mul(power)
                powers.append(power)
            for r in range(alg.g):
                src = alg.degree_indices(r)
                dst = alg.degree_indices(2 * alg.g - r)
                assert len(src) == len(dst)
                if not src:
                    continue
                block = powers[alg.g - r].submatrix(dst, src)
                rows, _ = rref(block.row_lists())
                assert len(rows) == len(src), \
                    f"{alg.name}: L^(g-r) not bijective at r={r}"
            top = alg.unit
            for _ in range(alg.g):
                top = alg.mulvec(top, w)
            assert not vec_is_zero(top), f"{alg.name}: omega^g = 0"
            checked += 1
    assert checked >= 3 * 8


@criterion(2, "sl2 triples: constructive Lambda = solved Lambda, exact relations, explicit g=2 values")
def test_criterion_2_sl2_triples():
    checked = 0
    for alg in catalog_algebras():
        for w in lz.cone_check_family(alg, alg.kahler):
            tri = lz.dual_lefschetz(alg, w)
            ref_lam, _ = reference_lambda_by_solve(lz._context(alg, w))
            assert tri.Lambda == ref_lam
            assert relations_hold(tri)
            checked += 1
        if alg.g == 2:
            tri = lz.dual_lefschetz(alg, alg.kahler)
            omega = alg.kahler
            assert tri.Lambda.apply(omega) == vec_scale(Scalar(2), alg.unit)
            omega2 = alg.mulvec(omega, omega)
            assert tri.Lambda.apply(omega2) == vec_scale(Scalar(2), omega)
    assert checked >= 3 * 8


@criterion(3, "Q-antisymmetry, J-invariance, Hermitian-minor positivity of T on all degrees")
def test_criterion_3_polarization():
    for alg in catalog_algebras():
        omega = alg.kahler
        jmat = lz.weil_operator(alg)
        for r in sorted(alg.by_degree):
            idxs = alg.degree_indices(r)
            sign = Scalar(-1 if r % 2 else 1)
            for i in idxs:
                a = alg.basis_vector(i)
                ja = jmat.apply(a)
                for j in idxs:
                    b = alg.basis_vector(j)
                    q_ab = lz.polarization_form(alg, omega, a, b)
                    assert q_ab == sign * lz.polarization_form(
                        alg, omega, b, a)
                    assert lz.polarization_form(
                        alg, omega, ja, jmat.apply(b)) == q_ab
            assert hermitian_definiteness(lz.hodge_gram(alg, omega, r))


@criterion(4, "Hodge index: k3-mock -16, abelian-surface 0, formula = diagonalization exactly")
def test_criterion_4_hodge_index():
    k3 = catalog.k3_algebra()
    sig = lz.hodge_signature(k3)
    assert sig.formula == -16 and sig.agree, sig
    ab = catalog.abelian_surface_algebra()
    sig2 = lz.hodge_signature(ab)
    assert sig2.formula == 0 and sig2.agree, sig2


@criterion(5, "closure dim n(n-1)/2 for n in 4..8, members annihilate phi, 10 random probes full")
def test_criterion_5_so_phi():
    rng = random.Random(SEED)
    for k in range(2, 7):
        alg = catalog.g2_family_algebra(k)
        n = k + 2
        family, _ = lz.spanning_cone_family(alg, alg.kahler, mode="even")
        gens = []
        for w in family:
            tri = lz.dual_lefschetz(alg, w, mode="even")
            gens.extend([tri.L, tri.Lambda])
        closed = llgen.lie_closure(gens)
        assert closed.dim == n * (n - 1) // 2, (k, closed.dim)
        phi = llgen.phi_form(alg)
        for x in closed.basis:
            assert x.transpose().mul(phi.matrix).add(
                phi.matrix.mul(x)).is_zero_matrix()
        for _ in range(10):
            coeffs = [Scalar(rng.randint(-3, 3), rng.randint(-3, 3))
                      for _ in closed.basis]
            seed = DenseMatrix.zero(closed.ambient, closed.ambient)
            for c, b in zip(coeffs, closed.basis):
                seed = seed.add(b.scale(c))
            if seed.is_zero_matrix():
                continue
            ideal = llgen.ideal_probe(closed, seed)
            assert ideal.dim == closed.dim, "proper ideal found"


@criterion(6, "product model: dimension 3N, exactly N minimal ideals, each an sl2, N in {1,2,3,5}")
def test_criterion_6_product_model():
    for n in (1, 2, 3, 5):
        alg, family = llgen.product_model(n)
        triples = [lz.dual_lefschetz(alg, w) for w in family]
        closed = llgen.lie_closure(
            [x for tri in triples for x in (tri.L, tri.Lambda)])
        assert closed.dim == 3 * n, (n, closed.dim)
        ideals = llgen.minimal_ideals(closed, triples)
        assert len(ideals) == n, (n, len(ideals))
        assert all(llgen.is_sl2_block(i) for i in ideals)


@criterion(7, "(1+-i)-endomorphism with q=2 passes the Gram identity; violator fails exactly degree 1")
def test_criterion_7_frobenius():
    torus = catalog.torus_algebra()
    diag = []
    for t in range(torus.n):
        p, q = torus.bidegrees[t]
        diag.append(Scalar(1, 1) if (p, q) == (1, 0)
                    else Scalar(1, -1) if (p, q) == (0, 1)
                    else Scalar(2) if (p, q) == (1, 1) else ONE)
    good = lz.frobenius_check(torus, torus.kahler,
                              DenseMatrix.diagonal(diag), 2)
    assert good.ok and not good.precondition_violations
    bad_diag = [Scalar(2) if torus.degree_of_index(t) == 2 else ONE
                for t in range(torus.n)]
    bad = lz.frobenius_check(torus, torus.kahler,
                             DenseMatrix.diagonal(bad_diag), 2)
    assert bad.failing_degrees() == [1]


@criterion(8, "trivial/D+/D-/adjoint diamonds and Casimir branches; windows w and w+2 identical")
def test_criterion_8_gk_dichotomy():
    pair = catalog.sl2_pair()
    split = gkcoh.split_p(pair)

    def analysis(module):
        cx = gkcoh.build_complex(pair, split, module)
        cas = gkcoh.casimir_action(pair, module)
        dich = gkcoh.vanishing_dichotomy(cx, cas)
        dims = {k: v for k, v in gkcoh.cohomology_bigraded(cx).items() if v}
        return cx, cas, dich, dims

    cx, cas, dich, dims = analysis(catalog.sl2_trivial_module())
    assert dims == {(0, 0): 1, (1, 1): 1}
    assert dich.branch == "casimir-zero" and dich.holds
    assert cx.differential_is_zero()

    _, _, dich_p, dims_p = analysis(catalog.sl2_discrete_series_module(1))
    assert dims_p == {(1, 0): 1} and dich_p.holds
    _, _, dich_m, dims_m = analysis(catalog.sl2_discrete_series_module(-1))
    assert dims_m == {(0, 1): 1} and dich_m.holds

    _, cas_a, dich_a, dims_a = analysis(catalog.sl2_adjoint_module())
    assert cas_a.is_scalar and not cas_a.scalar.is_zero()
    assert dich_a.branch == "casimir-nonzero" and dich_a.holds
    assert dims_a == {}

    for build in (catalog.sl2_trivial_module, catalog.sl2_adjoint_module,
                  lambda w=6: catalog.sl2_discrete_series_module(1, w),
                  lambda w=6: catalog.sl2_discrete_series_module(-1, w)):
        small = analysis(build(6))
        large = analysis(build(8))
        assert small[3] == large[3]
        assert small[2].branch == large[2].branch
        assert small[2].holds == large[2].holds


@criterion(9, "genus-2 mock: Betti (1,4,1), h^(1,0)=h^(0,1)=2, diamond checks pass; D+-only flagged")
def test_criterion_9_assembly():
    pair = catalog.sl2_pair()
    split = gkcoh.split_p(pair)
    modules = [catalog.sl2_trivial_module(),
               catalog.sl2_discrete_series_module(1),
               catalog.sl2_discrete_series_module(-1)]
    analyses = {m.name: gkcoh.analyze_module(pair, split, m) for m in modules}
    entries = catalog.genus2_spectrum()
    out = asm.assemble(entries, analyses)
    assert out.betti_numbers() == [1, 4, 1]
    assert out.h(1, 0) == out.h(0, 1) == 2
    report = asm.diamond_checks(out, analyses)
    assert report.ok, report.failures
    lonely = asm.assemble([asm.SpectrumEntry("sl2-ds-plus", 1, 1)], analyses)
    lonely_report = asm.diamond_checks(lonely, analyses)
    assert not lonely_report.hodge_symmetric
    assert not lonely_report.odd_betti_even


@criterion(10, "suites re-run byte-identically on identical inputs, timings excluded")
def test_criterion_10_determinism(tmp_path):
    cat = tmp_path / "catalog"
    assert cli_main(["catalog", "genus2-suite", "--out-dir", str(cat)]) == 0
    assert cli_main(["catalog", "torus", "--out-dir", str(cat)]) == 0
    assert cli_main(["catalog", "g2-family", "--k", "2",
                     "--out-dir", str(cat)]) == 0
    assert cli_main(["catalog", "s1s2", "--n", "2",
                     "--out-dir", str(cat)]) == 0
    suites = [
        ["validate", "--input", str(cat / "torus.algebra.json"),
         "--input", str(cat / "sl2R.pair.json"),
         "--input", str(cat / "sl2-trivial.module.json")],
        ["lefschetz", "--input", str(cat / "torus.algebra.json")],
        ["lefschetz", "--input", str(cat / "g2-k2.algebra.json")],
        ["llgen", "--input", str(cat / "g2-k2.algebra.json")],
        ["llgen", "--input", str(cat / "s1s2-N2.algebra.json")],
        ["gkcoh", "--input", str(cat / "sl2R.pair.json"),
         "--input", str(cat / "sl2-trivial.module.json"),
         "--input", str(cat / "sl2-ds-plus.module.json")],
        ["assemble", "--input", str(cat / "sl2R.pair.json"),
         "--input", str(cat / "sl2-trivial.module.json"),
         "--input", str(cat / "sl2-ds-plus.module.json"),
         "--input", str(cat / "sl2-ds-minus.module.json"),
         "--input", str(cat / "genus2.spectrum.json")],
    ]
    for t, args in enumerate(suites):
        payloads = []
        for attempt in (0, 1):
            report = tmp_path / f"report-{t}-{attempt}.json"
            code = cli_main(args + ["--report", str(report)])
            assert code == 0, args
            doc = json.loads(report.read_text())
            doc.pop("timings")
            payloads.append(fileio.canonical_dumps(doc))
        assert payloads[0] == payloads[1], f"suite {args[0]} not deterministic"
