"""Assemble per-representation cohomology into a global Hodge diamond.

Each spectrum entry contributes multiplicity * k2_inv_dim copies of its
module's bigraded cohomology; only modules that landed on the
Casimir-zero branch of the dichotomy contribute, the rest are flagged.
The assembled diamond is then subjected to the symmetry and hard
Lefschetz checks expected of a polarizable model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .exactlin import rank
from .gkcoh import ModuleAnalysis

__all__ = [
    "SpectrumEntry",
    "AssembledCohomology",
    "DiamondReport",
    "assemble",
    "diamond_checks",
    "render_diamond",
]


@dataclass(frozen=True)
class SpectrumEntry:
    module: str
    multiplicity: int
    k2_inv_dim: int

    def weight(self) -> int:
        return self.multiplicity * self.k2_inv_dim


@dataclass
class AssembledCohomology:
    g: int
    table: dict                  # (p,q) -> dimension
    contributions: dict          # (p,q) -> list of (module, added dimension)
    flagged: list                # module names that contribute 0

    def betti(self, n: int) -> int:
        return sum(d for (p, q), d in self.table.items() if p + q == n)

    def betti_numbers(self):
        return [self.betti(n) for n in range(2 * self.g + 1)]

    def h(self, p: int, q: int) -> int:
        return self.table.get((p, q), 0)


def assemble(entries, analyses: dict) -> AssembledCohomology:
    """Sum multiplicity-weighted diamonds over the spectrum.

    ``analyses`` maps module ids to ModuleAnalysis records; a dangling
    id raises KeyError.  Entries with zero weight are dropped.
    """
    if not analyses:
        raise ValueError("no module analyses supplied")
    g = None
    for an in analyses.values():
        dims_g = max((p for (p, q) in an.hodge_dims), default=0)
        g = dims_g if g is None else max(g, dims_g)
    table = {}
    contributions = {}
    flagged = []
    for entry in entries:
        if entry.multiplicity < 0 or entry.k2_inv_dim < 0:
            raise ValueError("multiplicities must be nonnegative")
        if entry.weight() == 0:
            continue
        analysis = analyses[entry.module]
        if not analysis.contributes:
            if entry.module not in flagged:
                flagged.append(entry.module)
            continue
        for (p, q), d in analysis.hodge_dims.items():
            if d == 0:
                continue
            add = d * entry.weight()
            table[(p, q)] = table.get((p, q), 0) + add
            contributions.setdefault((p, q), []).append((entry.module, add))
    return AssembledCohomology(g=g or 0, table=table,
                               contributions=contributions, flagged=flagged)


@dataclass
class DiamondReport:
    hodge_symmetric: bool
    odd_betti_even: bool
    serre_symmetric: bool
    lefschetz_injective: bool
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (self.hodge_symmetric and self.odd_betti_even
                and self.serre_symmetric and self.lefschetz_injective)


def diamond_checks(a: AssembledCohomology,
                   analyses: dict) -> DiamondReport:
    """Hodge symmetry, even odd-Betti numbers, Serre symmetry and the
    hard Lefschetz inequalities h^r <= h^(r+2) for r < g.

    The Lefschetz inequality is certified operator-wise: the invariant
    wedge operator of every contributing module must be injective on
    its degree-r part, which bounds the assembled dimensions.
    """
    failures = []
    g = a.g
    hodge = True
    for (p, q), d in a.table.items():
        if a.h(q, p) != d:
            hodge = False
            failures.append(f"h^({p},{q}) = {d} != h^({q},{p}) = {a.h(q, p)}")
    odd_even = True
    for n in range(1, 2 * g + 1, 2):
        if a.betti(n) % 2:
            odd_even = False
            failures.append(f"odd Betti number b_{n} = {a.betti(n)} is odd")
    serre = True
    seen = set()
    for (p, q), d in a.table.items():
        if (p, q) in seen:
            continue
        seen.add((p, q))
        seen.add((g - p, g - q))
        if a.h(g - p, g - q) != d:
            serre = False
            failures.append(
                f"h^({p},{q}) = {d} != h^({g - p},{g - q}) = "
                f"{a.h(g - p, g - q)}")
    lefschetz = True
    for r in range(0, g):
        if a.betti(r) > a.betti(r + 2):
            lefschetz = False
            failures.append(f"b_{r} = {a.betti(r)} > b_{r + 2} = "
                            f"{a.betti(r + 2)}")
    if lefschetz:
        contributing = {name for lst in a.contributions.values()
                        for (name, _) in lst}
        for name in sorted(contributing):
            analysis = analyses[name]
            if analysis.lefschetz is None:
                continue
            for r in range(0, g):
                if not _degree_injective(analysis, r):
                    lefschetz = False
                    failures.append(
                        f"module {name}: L is not injective on degree {r}")
    return DiamondReport(hodge_symmetric=hodge, odd_betti_even=odd_even,
                         serre_symmetric=serre,
                         lefschetz_injective=lefschetz, failures=failures)


def _degree_injective(analysis: ModuleAnalysis, r: int) -> bool:
    """Injectivity of the module's wedge operator on total degree r.

    The (p,q) blocks of degree r map into disjoint targets (p+1,q+1),
    so blockwise column-rank checks suffice.
    """
    for (p, q), mat in sorted(analysis.lefschetz.items()):
        if p + q != r or mat.cols == 0:
            continue
        if mat.rows == 0:
            return False
        if rank(mat) != mat.cols:
            return False
    return True


def render_diamond(a: AssembledCohomology) -> str:
    """Plain-text Hodge diamond, one total degree per line."""
    g = a.g
    width = max((len(str(d)) for d in a.table.values()), default=1) + 2
    lines = []
    for n in range(2 * g + 1):
        cells = []
        for p in range(max(0, n - g), min(g, n) + 1):
            cells.append(str(a.h(p, n - p)).center(width))
        pad = " " * ((g - len(cells) + 1) * width // 2)
        lines.append(pad + "".join(cells))
    return "\n".join(lines)
