"""Built-in example objects: bigraded algebras, reductive pairs,
weight-windowed modules, and a mock spectrum.

Every constructor returns fully validated in-memory objects; the CLI
serializes them to the interchange formats.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .algebra import BigradedAlgebra
from .assembler import SpectrumEntry
from .exactlin import DenseMatrix, Scalar, ZERO, ONE
from .gkcoh import AdmissibleModule, ModuleGenerator, ReductivePair, _sort_sign

__all__ = [
    "exterior_torus_algebra",
    "torus_algebra",
    "abelian_surface_algebra",
    "k3_algebra",
    "g2_family_algebra",
    "sl2_pair",
    "sl2_product_pair",
    "sl2_trivial_module",
    "sl2_adjoint_module",
    "sl2_discrete_series_module",
    "genus2_spectrum",
]


def exterior_torus_algebra(g: int) -> BigradedAlgebra:
    """Exterior algebra on dz_1..dz_g, dzb_1..dzb_g, the complex g-torus.

    nu is normalized so the real volume form integrates to 1; the
    distinguished Kaehler class is sum (i/2) dz_j ^ dzb_j.
    """
    symbols = [f"dz{j + 1}" for j in range(g)] + \
              [f"dzb{j + 1}" for j in range(g)]
    subsets = []
    for size in range(2 * g + 1):
        subsets.extend(combinations(range(2 * g), size))
    names = ["1" if not s else "^".join(symbols[t] for t in s)
             for s in subsets]
    index = {s: t for t, s in enumerate(subsets)}
    bidegrees = []
    for s in subsets:
        p = sum(1 for t in s if t < g)
        bidegrees.append((p, len(s) - p))
    products = {}
    for a, sa in enumerate(subsets):
        for b, sb in enumerate(subsets):
            res = _sort_sign(sa + sb)
            if res is None:
                continue
            merged, sign = res
            products[(a, b)] = {index[merged]: Scalar(sign)}
    # conjugation swaps dz_j <-> dzb_j with the resorting sign
    swap = {t: (t + g) % (2 * g) for t in range(2 * g)}
    conj_cols = []
    for s in subsets:
        target, sign = _sort_sign(swap[t] for t in s)
        col = [ZERO] * len(subsets)
        col[index[target]] = Scalar(sign)
        conj_cols.append(col)
    conj = DenseMatrix.from_columns(conj_cols, rows=len(subsets))
    nu = [ZERO] * len(subsets)
    top_sign = -1 if (g * (g - 1) // 2) % 2 else 1
    nu[index[tuple(range(2 * g))]] = _top_nu(g, top_sign)
    kahler = [ZERO] * len(subsets)
    half_i = Scalar(0, Fraction(1, 2))
    for j in range(g):
        kahler[index[(j, g + j)]] = half_i
    return BigradedAlgebra(g, names, bidegrees, products, conj, nu,
                           name=f"torus-g{g}", kahler=tuple(kahler))


def _top_nu(g: int, top_sign: int) -> Scalar:
    val = ONE
    minus_2i = Scalar(0, -2)
    for _ in range(g):
        val = val * minus_2i
    return val * Scalar(top_sign)


def torus_algebra() -> BigradedAlgebra:
    return exterior_torus_algebra(1)


def abelian_surface_algebra() -> BigradedAlgebra:
    return exterior_torus_algebra(2)


def k3_algebra() -> BigradedAlgebra:
    """g=2 mock with h^(2,0) = h^(0,2) = 1 and h^(1,1) = 20.

    Intersection data: omega^2 = top, nineteen (-1)-classes, and the
    (2,0)/(0,2) plane pairing to +1, so the middle signature is (3,19).
    """
    names = ["one", "sigma", "omega"] + [f"f{j}" for j in range(1, 20)] + \
            ["sigmabar", "top"]
    n = len(names)
    idx = {nm: t for t, nm in enumerate(names)}
    bidegrees = [(0, 0), (2, 0), (1, 1)] + [(1, 1)] * 19 + [(0, 2), (2, 2)]
    products = {}
    one, top = idx["one"], idx["top"]
    for j in range(n):
        products[(one, j)] = {j: ONE}
        if j != one:
            products[(j, one)] = {j: ONE}
    products[(idx["omega"], idx["omega"])] = {top: ONE}
    for j in range(1, 20):
        fj = idx[f"f{j}"]
        products[(fj, fj)] = {top: Scalar(-1)}
    products[(idx["sigma"], idx["sigmabar"])] = {top: ONE}
    products[(idx["sigmabar"], idx["sigma"])] = {top: ONE}
    conj_cols = []
    for t in range(n):
        col = [ZERO] * n
        if t == idx["sigma"]:
            col[idx["sigmabar"]] = ONE
        elif t == idx["sigmabar"]:
            col[idx["sigma"]] = ONE
        else:
            col[t] = ONE
        conj_cols.append(col)
    conj = DenseMatrix.from_columns(conj_cols, rows=n)
    nu = [ZERO] * n
    nu[top] = ONE
    kahler = [ZERO] * n
    kahler[idx["omega"]] = ONE
    return BigradedAlgebra(2, names, bidegrees, products, conj, nu,
                           name="k3-mock", kahler=tuple(kahler))


def g2_family_algebra(k: int) -> BigradedAlgebra:
    """g=2 dense-leaf model with dim H^2 = k, all of type (1,1).

    Intersection form diag(+1, -1, ..., -1) on H^2, so every class is
    polarization-compatible with the distinguished omega.
    """
    if k < 1:
        raise ValueError("need dim H^2 >= 1")
    names = ["one", "om"] + [f"f{j}" for j in range(1, k)] + ["top"]
    n = k + 2
    bidegrees = [(0, 0)] + [(1, 1)] * k + [(2, 2)]
    products = {}
    for j in range(n):
        products[(0, j)] = {j: ONE}
        if j:
            products[(j, 0)] = {j: ONE}
    products[(1, 1)] = {n - 1: ONE}
    for j in range(2, k + 1):
        products[(j, j)] = {n - 1: Scalar(-1)}
    conj = DenseMatrix.identity(n)
    nu = [ZERO] * (n - 1) + [ONE]
    kahler = tuple(ONE if t == 1 else ZERO for t in range(n))
    return BigradedAlgebra(2, names, bidegrees, products, conj, nu,
                           name=f"g2-k{k}", kahler=kahler)


# -- reductive pairs ---------------------------------------------------------


def sl2_pair() -> ReductivePair:
    """sl2(R) with basis W (rotation), A, S; k = span W, p = span{A, S}.

    B is the trace form diag(-2, 2, 2) and z0 = W/2, so ad z0 squares
    to -1 on p.
    """
    two = Scalar(2)
    brackets = {
        (0, 1): {2: -two},    # [W, A] = -2S
        (0, 2): {1: two},     # [W, S] = 2A
        (1, 2): {0: two},     # [A, S] = 2W
    }
    b = DenseMatrix.diagonal([Scalar(-2), Scalar(2), Scalar(2)])
    z0 = (Scalar(Fraction(1, 2)), ZERO, ZERO)
    return ReductivePair(["W", "A", "S"], brackets, (0,), (1, 2), b, z0,
                         name="sl2R")


def sl2_product_pair() -> ReductivePair:
    """sl2(R) x sl2(R), blockwise."""
    single = sl2_pair()
    dim = 6
    brackets = {(i + blk, j + blk): {k + blk: c for k, c in col.items()}
                for (i, j), col in single.brackets.items() for blk in (0, 3)}
    b_entries = [single.b_form.at(i % 3, j % 3) if i // 3 == j // 3 else ZERO
                 for i in range(dim) for j in range(dim)]
    half = Scalar(Fraction(1, 2))
    z0 = (half, ZERO, ZERO, half, ZERO, ZERO)
    return ReductivePair(["W1", "A1", "S1", "W2", "A2", "S2"], brackets,
                         (0, 3), (1, 2, 4, 5),
                         DenseMatrix(dim, dim, b_entries), z0,
                         name="sl2R-x-sl2R")


# -- sl2 modules -------------------------------------------------------------


def _sl2_generators():
    i = Scalar(0, 1)
    return (
        ModuleGenerator("h", (ONE, ZERO, ZERO), 0),          # W
        ModuleGenerator("e", (ZERO, ONE, i), 2),             # A + iS
        ModuleGenerator("f", (ZERO, ONE, -i), -2),           # A - iS
    )


def _one(x) -> DenseMatrix:
    return DenseMatrix.from_rows([[Scalar.of(x)]])


def sl2_trivial_module(window: int = 6) -> AdmissibleModule:
    if window < 0:
        raise ValueError("window must reach weight 0")
    actions = {("h", 0): _one(0)}
    return AdmissibleModule(
        name="sl2-trivial", pair_name="sl2R", window=window,
        weights={0: 1}, forms={0: _one(1)},
        generators=_sl2_generators(), actions=actions)


def sl2_adjoint_module(window: int = 6) -> AdmissibleModule:
    """The adjoint representation, weight basis P-, W, P+.

    Not unitarizable (the invariant form has signature (2,1)); stored
    with positive forms and flagged non-unitary.  Its Casimir scalar is
    4 for the trace-form normalization.
    """
    if window < 2:
        raise ValueError("window must reach weights -2 and 2")
    i2 = Scalar(0, 2)
    i4 = Scalar(0, 4)
    actions = {
        ("h", -2): _one(-i2), ("h", 0): _one(0), ("h", 2): _one(i2),
        ("e", -2): _one(-i4),            # [P+, P-] = -4i W
        ("e", 0): _one(-i2),             # [P+, W] = -2i P+
        ("f", 2): _one(i4),              # [P-, P+] = 4i W
        ("f", 0): _one(i2),              # [P-, W] = 2i P-
    }
    return AdmissibleModule(
        name="sl2-adjoint", pair_name="sl2R", window=window,
        weights={-2: 1, 0: 1, 2: 1},
        forms={-2: _one(1), 0: _one(1), 2: _one(1)},
        generators=_sl2_generators(), actions=actions, unitary=False)


def sl2_discrete_series_module(sign: int, window: int = 6) -> AdmissibleModule:
    """Lowest (sign=+1) / highest (sign=-1) K-weight +-2 module with
    Casimir 0, weight spaces one-dimensional, windowed.

    Raising acts by 1 on the holomorphic side; the forms grow so the
    action of the real form stays skew-Hermitian.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if window < 2:
        raise ValueError("window must reach the lowest K-type")
    weights = {}
    forms = {}
    actions = {}
    ws = [sign * t for t in range(2, window + 1, 2)]
    gram = Fraction(1)
    for t, w in enumerate(ws):
        weights[w] = 1
        if t > 0:
            prev = abs(ws[t - 1])
            gram = gram * prev * (prev + 2)
        forms[w] = _one(gram)
        actions[("h", w)] = _one(Scalar(0, w))
    # e raises, f lowers; on the side away from the lowest K-type the
    # free direction acts by 1 and its partner by -n(n+2) (zero Casimir).
    for w in ws:
        if abs(w + 2) <= window and weights.get(w + 2):
            actions[("e", w)] = _one(1 if sign > 0 else -w * (w + 2))
        if abs(w - 2) <= window and weights.get(w - 2):
            actions[("f", w)] = _one(-(w - 2) * w if sign > 0 else 1)
    name = "sl2-ds-plus" if sign > 0 else "sl2-ds-minus"
    return AdmissibleModule(
        name=name, pair_name="sl2R", window=window,
        weights=weights, forms=forms,
        generators=_sl2_generators(), actions=actions)


def genus2_spectrum() -> list:
    """Mock spectrum of a genus-2 curve leaf space: trivial once, each
    discrete series twice, all with one-dimensional K2-invariants."""
    return [SpectrumEntry("sl2-trivial", 1, 1),
            SpectrumEntry("sl2-ds-plus", 2, 1),
            SpectrumEntry("sl2-ds-minus", 2, 1)]
