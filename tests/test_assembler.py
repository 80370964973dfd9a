import pytest

from hlk import assembler as asm
from hlk import catalog, gkcoh


@pytest.fixture(scope="module")
def analyses(sl2, sl2_split, sl2_modules):
    return {module.name: gkcoh.analyze_module(sl2, sl2_split, module)
            for module in sl2_modules.values()}


def genus2_entries():
    return catalog.genus2_spectrum()


def test_empty_spectrum(analyses):
    out = asm.assemble([], analyses)
    assert out.table == {}
    assert out.betti_numbers() == [0, 0, 0]


def test_genus2_mock(analyses):
    out = asm.assemble(genus2_entries(), analyses)
    assert out.h(0, 0) == 1 and out.h(1, 1) == 1
    assert out.h(1, 0) == 2 and out.h(0, 1) == 2
    assert out.betti_numbers() == [1, 4, 1]
    report = asm.diamond_checks(out, analyses)
    assert report.ok, report.failures


def test_k2_dim_linearity(analyses):
    entries = [asm.SpectrumEntry("sl2-ds-plus", 2, 3),
               asm.SpectrumEntry("sl2-ds-minus", 2, 3)]
    out = asm.assemble(entries, analyses)
    assert out.h(1, 0) == out.h(0, 1) == 6


def test_additivity(analyses):
    e1 = genus2_entries()
    e2 = [asm.SpectrumEntry("sl2-trivial", 3, 1)]
    combined = asm.assemble(e1 + e2, analyses)
    separate1 = asm.assemble(e1, analyses)
    separate2 = asm.assemble(e2, analyses)
    for key in set(combined.table) | set(separate1.table) | set(separate2.table):
        assert combined.table.get(key, 0) == \
            separate1.table.get(key, 0) + separate2.table.get(key, 0)


def test_doubling(analyses):
    base = asm.assemble(genus2_entries(), analyses)
    doubled_entries = [asm.SpectrumEntry(e.module, 2 * e.multiplicity,
                                         e.k2_inv_dim)
                       for e in genus2_entries()]
    doubled = asm.assemble(doubled_entries, analyses)
    for key, value in base.table.items():
        assert doubled.table[key] == 2 * value


def test_ds_plus_only_fails_symmetry(analyses):
    out = asm.assemble([asm.SpectrumEntry("sl2-ds-plus", 1, 1)], analyses)
    report = asm.diamond_checks(out, analyses)
    assert not report.ok
    assert not report.hodge_symmetric
    assert not report.odd_betti_even


def test_trivial_only_passes(analyses):
    out = asm.assemble([asm.SpectrumEntry("sl2-trivial", 1, 1)], analyses)
    report = asm.diamond_checks(out, analyses)
    assert report.ok
    assert out.betti_numbers() == [1, 0, 1]


def test_nonzero_casimir_module_is_flagged(analyses):
    entries = genus2_entries() + [asm.SpectrumEntry("sl2-adjoint", 4, 1)]
    out = asm.assemble(entries, analyses)
    assert out.flagged == ["sl2-adjoint"]
    assert out.betti_numbers() == [1, 4, 1]


def test_dangling_module_id(analyses):
    with pytest.raises(KeyError):
        asm.assemble([asm.SpectrumEntry("missing", 1, 1)], analyses)


def test_conjugation_paired_spectrum_has_even_odd_betti(analyses):
    for mult in (1, 2, 5):
        entries = [asm.SpectrumEntry("sl2-ds-plus", mult, 1),
                   asm.SpectrumEntry("sl2-ds-minus", mult, 1)]
        out = asm.assemble(entries, analyses)
        assert out.betti(1) % 2 == 0


def test_zero_weight_entries_dropped(analyses):
    out = asm.assemble([asm.SpectrumEntry("sl2-ds-plus", 0, 7),
                        asm.SpectrumEntry("sl2-ds-plus", 7, 0)], analyses)
    assert out.table == {}


def test_render_diamond(analyses):
    out = asm.assemble(genus2_entries(), analyses)
    text = asm.render_diamond(out)
    lines = text.splitlines()
    assert len(lines) == 3
    assert lines[0].strip() == "1"
    assert lines[1].split() == ["2", "2"]


def test_assembled_diamond_matches_a_curve_model(analyses):
    """The mock spectrum assembles to the diamond of an honest genus-2
    curve ring, which itself passes the polarization machinery."""
    from fractions import Fraction

    from hlk import lefschetz as lz
    from hlk.algebra import BigradedAlgebra, validate_algebra
    from hlk.exactlin import DenseMatrix, Scalar, ZERO, ONE, \
        hermitian_definiteness

    names = ["one", "z1", "z2", "w1", "w2", "top"]
    bidegrees = [(0, 0), (1, 0), (1, 0), (0, 1), (0, 1), (1, 1)]
    products = {(0, j): {j: ONE} for j in range(6)}
    for j in range(1, 6):
        products[(j, 0)] = {j: ONE}
    products[(1, 3)] = {5: ONE}
    products[(3, 1)] = {5: Scalar(-1)}
    products[(2, 4)] = {5: ONE}
    products[(4, 2)] = {5: Scalar(-1)}
    conj_cols = []
    swap = {0: 0, 1: 3, 2: 4, 3: 1, 4: 2, 5: 5}
    for j in range(6):
        col = [ZERO] * 6
        col[swap[j]] = Scalar(-1) if j == 5 else ONE
        conj_cols.append(col)
    conj = DenseMatrix.from_columns(conj_cols, rows=6)
    nu = [ZERO] * 5 + [Scalar(0, -2)]
    kahler = tuple(Scalar(0, Fraction(1, 2)) if j == 5 else ZERO
                   for j in range(6))
    curve = BigradedAlgebra(1, names, bidegrees, products, conj, nu,
                            name="genus2-curve", kahler=kahler)
    assert validate_algebra(curve).ok

    assembled = asm.assemble(genus2_entries(), analyses)
    curve_dims = {pq: len(idx) for pq, idx in curve.by_bidegree.items()}
    assert curve_dims == assembled.table

    # and the curve model is genuinely polarized
    assert lz.kahler_cone_membership(curve, curve.kahler)
    for r in (0, 1, 2):
        assert hermitian_definiteness(lz.hodge_gram(curve, curve.kahler, r))
