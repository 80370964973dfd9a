"""Command-line entry point.

Subcommands: ``catalog`` (write example input files), ``validate``,
``lefschetz``, ``llgen``, ``gkcoh`` and ``assemble`` (run a module's
full check battery over input files).

Exit status: 0 all checks pass, 1 at least one check failed, 2 input
error, 3 internal error (an exact invariant of the computation failed,
such as the constructive Lambda failing [Lambda, L] = B).  Reports are
canonical JSON (sorted keys); everything except the "timings" section is
deterministic for identical inputs.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys
import time

from . import __version__, sha256
from . import assembler as asm
from . import catalog
from . import fileio
from . import gkcoh
from . import lefschetz as lz
from . import llgen
from .algebra import validate_algebra
from .exactlin import Scalar, hermitian_definiteness, kernel


class Report:
    def __init__(self, command: str):
        self.doc = {
            "command": command,
            "version": __version__,
            "inputs": [],
            "checks": [],
            "summary": {},
            "timings": {},
        }

    def add_input(self, path: str, data: bytes):
        """Record ``path`` with the digest of ``data``, the bytes read
        from it and parsed."""
        self.doc["inputs"].append(
            {"path": str(path), "sha256": sha256(data).hexdigest()})

    def check(self, name: str, ok, detail=""):
        status = "pass" if ok else "fail"
        self.doc["checks"].append(
            {"name": name, "status": status, "detail": str(detail)})
        print(f"[{status.upper():4s}] {name}" + (f": {detail}" if detail else ""))

    def skip(self, name: str, detail=""):
        self.doc["checks"].append(
            {"name": name, "status": "skip", "detail": str(detail)})
        print(f"[SKIP] {name}" + (f": {detail}" if detail else ""))

    def timing(self, name: str, seconds: float):
        self.doc["timings"][name] = round(seconds, 6)

    @property
    def failed(self) -> bool:
        return any(c["status"] == "fail" for c in self.doc["checks"])

    def write(self, path):
        if path:
            with _writing(path), open(path, "w", encoding="utf-8") as fh:
                fh.write(fileio.canonical_dumps(self.doc))


@contextlib.contextmanager
def _writing(path):
    """An OSError while writing output to ``path`` is an input error: the
    path given cannot be written."""
    try:
        yield
    except OSError as exc:
        raise fileio.InputError(
            f"cannot write {path}: {exc.strerror or exc}") from exc


# -- catalog -----------------------------------------------------------------


def _module_file(fname, build):
    return lambda args: [(fname, fileio.module_to_doc(build(args.window)))]


def _genus2_suite_files(args):
    return [f for sub in ("sl2-pair", "sl2-trivial", "sl2-ds-plus",
                          "sl2-ds-minus", "genus2-spectrum")
            for f in CATALOG[sub](args)]


# catalog name -> builder of its (file name, document) list, in --list order
CATALOG = {
    "torus": lambda args: [(
        "torus.algebra.json",
        fileio.algebra_to_doc(catalog.torus_algebra()))],
    "abelian-surface": lambda args: [(
        "abelian-surface.algebra.json",
        fileio.algebra_to_doc(catalog.abelian_surface_algebra()))],
    "k3-mock": lambda args: [(
        "k3-mock.algebra.json",
        fileio.algebra_to_doc(catalog.k3_algebra()))],
    "g2-family": lambda args: [(
        f"g2-k{args.k}.algebra.json",
        fileio.algebra_to_doc(catalog.g2_family_algebra(args.k)))],
    "s1s2": lambda args: [(
        f"s1s2-N{args.n}.algebra.json",
        fileio.algebra_to_doc(llgen.product_model(args.n)[0]))],
    "sl2-pair": lambda args: [(
        "sl2R.pair.json", fileio.pair_to_doc(catalog.sl2_pair()))],
    "sl2-product-pair": lambda args: [(
        "sl2R-x-sl2R.pair.json",
        fileio.pair_to_doc(catalog.sl2_product_pair()))],
    "sl2-trivial": _module_file("sl2-trivial.module.json",
                                catalog.sl2_trivial_module),
    "sl2-adjoint": _module_file("sl2-adjoint.module.json",
                                catalog.sl2_adjoint_module),
    "sl2-ds-plus": _module_file(
        "sl2-ds-plus.module.json",
        lambda window: catalog.sl2_discrete_series_module(1, window)),
    "sl2-ds-minus": _module_file(
        "sl2-ds-minus.module.json",
        lambda window: catalog.sl2_discrete_series_module(-1, window)),
    "genus2-spectrum": lambda args: [(
        "genus2.spectrum.json",
        fileio.spectrum_to_doc(catalog.genus2_spectrum()))],
    "genus2-suite": _genus2_suite_files,
}


def cmd_catalog(args) -> int:
    if args.list:
        for nm in CATALOG:
            print(nm)
        return 0
    if not args.name:
        print("catalog: a name is required (or --list)", file=sys.stderr)
        return 2
    if args.name not in CATALOG:
        raise fileio.InputError(f"unknown catalog name {args.name!r}")
    files = CATALOG[args.name](args)
    with _writing(args.out_dir):
        os.makedirs(args.out_dir, exist_ok=True)
    for fname, doc in files:
        path = os.path.join(args.out_dir, fname)
        with _writing(path), open(path, "w", encoding="utf-8") as fh:
            fh.write(fileio.canonical_dumps(doc))
        print(path)
    return 0


# -- validate ----------------------------------------------------------------


def cmd_validate(args, report: Report, loaded):
    _unique_names([f"{kind}:{os.path.basename(path)}"
                   for kind, _, path in loaded], "input")
    # modules find their pair by name
    _unique_names([obj.name for kind, obj, _ in loaded if kind == "pair"],
                  "pair")
    # pairs first, so that a module meets only a valid pair, split once
    pairs, pair_reps = {}, {}
    modules = {obj.name for kind, obj, _ in loaded if kind == "module"}
    for kind, obj, _ in loaded:
        if kind == "pair":
            pair_reps[id(obj)] = rep = gkcoh.validate_pair(obj)
            pairs[obj.name] = (obj, gkcoh.split_p(obj) if rep.ok else None)
    for kind, obj, path in loaded:
        t0 = time.perf_counter()
        label = f"{kind}:{os.path.basename(path)}"
        if kind == "algebra":
            rep = validate_algebra(obj)
            report.check(label, rep.ok, rep.summary())
        elif kind == "pair":
            rep = pair_reps[id(obj)]
            report.check(label, rep.ok, rep.summary())
        elif kind == "module":
            pair, split = pairs.get(obj.pair_name, (None, None))
            if pair is None:
                report.skip(label, f"pair {obj.pair_name!r} not supplied")
            elif split is None:
                report.skip(label, f"pair {obj.pair_name!r} failed validation")
            else:
                rep = gkcoh.validate_module(pair, split, obj)
                report.check(label, rep.ok, rep.summary())
        else:
            faults = _spectrum_faults(obj, modules)
            report.check(label, not faults,
                         "; ".join(faults) or f"{len(obj)} entries")
        report.timing(label, time.perf_counter() - t0)


def _spectrum_faults(spectrum, modules) -> list:
    """What is wrong with each spectrum entry, one text per offending
    field.  A module name counts only when some module was supplied."""
    faults = []
    for t, e in enumerate(spectrum):
        for fld, value in (("multiplicity", e.multiplicity),
                           ("k2_inv_dim", e.k2_inv_dim)):
            if value < 0:
                faults.append(f"entry {t} {fld} {value} < 0")
        if modules and e.module not in modules:
            faults.append(f"entry {t} module {e.module!r} not among the "
                          f"supplied modules")
    return faults


# -- lefschetz ---------------------------------------------------------------


def _designated_kahler(alg, args):
    if args.omega:
        if args.omega not in alg.names:
            raise fileio.InputError(
                f"unknown basis element {args.omega!r}")
        return alg.basis_vector(args.omega)
    if alg.kahler is None:
        raise fileio.InputError(
            "algebra designates no kahler class; pass --omega NAME")
    return alg.kahler


def _unique_names(names, what: str):
    """Raise an input error at the first name that repeats: report
    checks, summary and timing keys are per name."""
    seen = set()
    for name in names:
        if name in seen:
            raise fileio.InputError(f"duplicate {what} name {name!r}")
        seen.add(name)


def _algebra_inputs(loaded, command: str) -> list:
    """(algebra, report name) for each algebra input, the name being the
    algebra's own or else its file's."""
    algebras = [(obj, obj.name or os.path.basename(path))
                for kind, obj, path in loaded if kind == "algebra"]
    if not algebras:
        raise fileio.InputError(f"{command} needs an algebra input")
    _unique_names([base for _, base in algebras], "algebra")
    return algebras


def cmd_lefschetz(args, report: Report, loaded):
    for alg, base in _algebra_inputs(loaded, "lefschetz"):
        t0 = time.perf_counter()
        rep = validate_algebra(alg)
        report.check(f"{base}:validate", rep.ok, rep.summary())
        if not rep.ok:
            continue
        omega = _designated_kahler(alg, args)
        in_cone = lz.kahler_cone_membership(alg, omega, args.mode)
        report.check(f"{base}:kahler-in-cone", in_cone, f"mode {args.mode}")
        if not in_cone:
            continue
        family = lz.cone_check_family(alg, omega, mode=args.mode)
        report.doc["summary"][f"{base}:family-size"] = len(family)

        hl_ok = True
        for w in family:
            ctx_ok = lz.kahler_cone_membership(alg, w, args.mode)
            power = alg.unit
            for _ in range(alg.g):
                power = alg.mulvec(power, w)
            hl_ok = hl_ok and ctx_ok and not all(x.is_zero() for x in power)
        report.check(f"{base}:hard-lefschetz", hl_ok,
                     f"{len(family)} cone classes, L^(g-r) bijective "
                     f"(mode {args.mode}), omega^g != 0")

        # dual_lefschetz returns a triple only once its relations hold,
        # and by uniqueness its Lambda is the solved one
        for w in family:
            lz.dual_lefschetz(alg, w, mode=args.mode)
        report.check(f"{base}:sl2-triples", True,
                     "constructive Lambda = solved Lambda, relations exact")

        # the polarization battery decomposes across all degrees and
        # needs the class in the full cone
        if lz.kahler_cone_membership(alg, omega, "full"):
            q_ok, j_ok = _polarization_symmetries(alg, omega)
            report.check(f"{base}:q-symmetry", q_ok, "Q(a,b) = (-1)^r Q(b,a)")
            report.check(f"{base}:j-invariance", j_ok, "Q(Ja,Jb) = Q(a,b)")
            pd_ok = all(
                hermitian_definiteness(lz.hodge_gram(alg, omega, r))
                for r in sorted(alg.by_degree) if alg.degree_indices(r))
            report.check(f"{base}:polarization-positive", pd_ok,
                         "T Gram positive definite on every degree")
        else:
            report.skip(f"{base}:polarization",
                        "class is outside the full cone")

        if alg.g % 2 == 0:
            sig = lz.hodge_signature(alg)
            report.check(f"{base}:hodge-index", sig.agree,
                         f"signature {sig.formula} (formula) vs "
                         f"{sig.diagonalization} (diagonalization)")
            report.doc["summary"][f"{base}:signature"] = sig.formula
        serre = lz.serre_pairing_check(alg)
        report.check(f"{base}:serre-duality", serre.ok,
                     "; ".join(f"({p},{q}) {msg}" for p, q, msg in serre.failures))
        filt_ok = all(
            lz.filtration_opposed(alg, lz.hodge_filtration(alg, n))
            for n in sorted(alg.by_degree))
        report.check(f"{base}:hodge-filtration", filt_ok,
                     "F^i opposed to conj F^(n-i+1)")
        report.timing(base, time.perf_counter() - t0)


def _polarization_symmetries(alg, omega):
    """Q(a,b) = (-1)^r Q(b,a) and Q(Ja,Jb) = Q(a,b) on every degree r,
    read off the Gram matrix G_r of Q: G_r^T = (-1)^r G_r and
    J_r G_r J_r = G_r."""
    q_ok = True
    j_ok = True
    jmat = lz.weil_operator(alg)
    for r in sorted(alg.by_degree):
        idxs = alg.degree_indices(r)
        gram = lz.polarization_gram(alg, omega, r)
        jr = jmat.submatrix(idxs, idxs)
        q_ok = q_ok and gram.transpose() == gram.scale(-1 if r % 2 else 1)
        j_ok = j_ok and jr.mul(gram).mul(jr) == gram
    return q_ok, j_ok


# -- llgen -------------------------------------------------------------------


def cmd_llgen(args, report: Report, loaded):
    for alg, base in _algebra_inputs(loaded, "llgen"):
        t0 = time.perf_counter()
        rep = validate_algebra(alg)
        if not rep.ok:
            report.check(f"{base}:validate", False, rep.summary())
            continue
        mode = args.mode or ("even" if alg.g == 2 else "full")
        omega = alg.kahler
        if omega is None:
            # product-style models: any everywhere-nonzero tuple works;
            # fall back to the sum of the degree-2 basis classes
            omega = [Scalar(0)] * alg.n
            for k in alg.degree_indices(2):
                omega[k] = Scalar(1)
            omega = tuple(omega)
        try:
            family, record = lz.spanning_cone_family(alg, omega, mode=mode)
        except lz.ConeError as exc:
            report.check(f"{base}:spanning-family", False, str(exc))
            continue
        report.doc["summary"][f"{base}:family"] = \
            [{"base": nm, "shift": s} for nm, s in record]
        triples = [lz.dual_lefschetz(alg, w, mode=mode) for w in family]
        gens = []
        for tri in triples:
            gens.extend([tri.L, tri.Lambda])
        lie = llgen.lie_closure(gens)
        report.check(f"{base}:closure", True,
                     f"dimension {lie.dim} (mode {mode})")
        report.doc["summary"][f"{base}:dimension"] = lie.dim
        report.doc["summary"][f"{base}:bracket-digest"] = \
            llgen.bracket_table_digest(lie)

        # enlarging the generating family must not grow the algebra
        extra = None
        deg2 = alg.degree_indices(2)
        for lam in range(2, 7) if deg2 else ():
            cand = tuple(Scalar(lam) * x for x in omega)
            cand = tuple(a + b for a, b in
                         zip(cand, alg.basis_vector(deg2[0])))
            if lz.kahler_cone_membership(alg, cand, mode):
                extra = cand
                break
        if extra is not None:
            tri = lz.dual_lefschetz(alg, extra, mode=mode)
            stable = lie.contains(tri.L) and lie.contains(tri.Lambda)
            report.check(f"{base}:family-stability", stable,
                         "an extra cone class stays inside the closure")

        if alg.g == 2 and alg.dense_leaf and mode == "even":
            verdict = llgen.so_phi_equality(alg, lie)
            report.check(f"{base}:so-phi",
                         verdict.equal,
                         f"dim {verdict.dim} vs so dim {verdict.so_dim}, "
                         f"annihilators {verdict.annihilators}")
            report.check(f"{base}:killing-nondegenerate",
                         llgen.killing_nondegenerate(lie), "")
            kernels_ok = True
            for tri in triples:
                deg2 = [t for t, gidx in enumerate(tri.indices)
                        if alg.degree_of_index(gidx) == 2]
                lker = kernel(tri.L.submatrix(range(tri.L.rows), deg2))
                mker = kernel(tri.Lambda.submatrix(
                    range(tri.Lambda.rows), deg2))
                kernels_ok = kernels_ok and lker == mker
            report.check(f"{base}:lambda-kernel",
                         kernels_ok, "ker Lambda|H2 = ker L|H2")
        try:
            ideals = llgen.minimal_ideals(lie, triples)
        except llgen.CensusError as exc:
            report.check(f"{base}:ideal-census", False, str(exc))
        else:
            dims = sorted(i.dim for i in ideals)
            report.doc["summary"][f"{base}:minimal-ideals"] = dims
            if ideals:
                report.check(f"{base}:ideal-census", True,
                             f"{len(ideals)} minimal ideal(s), dims {dims}")
            else:
                report.skip(f"{base}:ideal-census", "the algebra is zero")
        report.timing(base, time.perf_counter() - t0)


# -- gkcoh -------------------------------------------------------------------


def _pair_and_modules(loaded, report: Report):
    """The one pair among the inputs and its modules, with the pair's
    validation recorded as ``pair:<name>``.  Returns (pair, split,
    modules); split is None when the pair fails validation."""
    pairs = [obj for kind, obj, _ in loaded if kind == "pair"]
    modules = [obj for kind, obj, _ in loaded if kind == "module"]
    if len(pairs) != 1:
        raise fileio.InputError("exactly one pair input is required")
    if not modules:
        raise fileio.InputError("at least one module input is required")
    _unique_names([m.name for m in modules], "module")
    pair = pairs[0]
    for m in modules:
        if m.pair_name != pair.name:
            raise fileio.InputError(
                f"module {m.name!r} names pair {m.pair_name!r}, "
                f"but the supplied pair is {pair.name!r}")
    rep = gkcoh.validate_pair(pair)
    report.check(f"pair:{pair.name}", rep.ok, rep.summary())
    return pair, gkcoh.split_p(pair) if rep.ok else None, modules


def _analysis(pair, split, module, report: Report):
    """The module's analysis, or None after recording a failed
    ``<module>:window`` check when its operators leave the window."""
    try:
        return gkcoh.analyze_module(pair, split, module)
    except gkcoh.WindowError as exc:
        report.check(f"{module.name}:window", False, str(exc))
        return None


def _same_dims(a: dict, b: dict) -> bool:
    """Two {degree: dimension} maps agree, a missing degree counting 0."""
    return all(a.get(n, 0) == b.get(n, 0) for n in a.keys() | b.keys())


def cmd_gkcoh(args, report: Report, loaded):
    pair, split, modules = _pair_and_modules(loaded, report)
    if split is None:
        return
    report.doc["summary"]["p-split-dims"] = [len(split.plus), len(split.minus)]
    for module in modules:
        t0 = time.perf_counter()
        label = module.name
        vrep = gkcoh.validate_module(pair, split, module)
        report.check(f"{label}:validate", vrep.ok, vrep.summary())
        if not vrep.ok:
            continue
        analysis = _analysis(pair, split, module, report)
        if analysis is None:
            continue
        cx = analysis.cx
        report.check(f"{label}:d-squared", gkcoh.complex_sanity(cx),
                     "d'^2 = d''^2 = d'd''+d''d' = 0")
        report.check(f"{label}:dichotomy", analysis.dichotomy.holds
                     or analysis.dichotomy.branch == "not-applicable",
                     f"{analysis.dichotomy.branch}: "
                     f"{analysis.dichotomy.detail}")
        total = gkcoh.ungraded_cohomology_dims(cx)
        graded = analysis.hodge_dims
        sums = {}
        for (p, q), d in graded.items():
            sums[p + q] = sums.get(p + q, 0) + d
        report.check(f"{label}:bigraded-total", _same_dims(sums, total),
                     "sum of h^(p,q) equals ungraded dim H^n")
        lap = gkcoh.laplacian_kernel_dims(module, cx)
        report.check(f"{label}:harmonic", _same_dims(lap, total),
                     "dim ker Laplacian = dim H^n")
        report.doc["summary"][f"{label}:hodge"] = \
            {f"{p},{q}": d for (p, q), d in sorted(graded.items()) if d}
        report.doc["summary"][f"{label}:casimir"] = \
            {str(w): str(s) for w, s in analysis.casimir.scalars.items()}
        report.timing(label, time.perf_counter() - t0)


# -- assemble ----------------------------------------------------------------


def cmd_assemble(args, report: Report, loaded):
    spectra = [obj for kind, obj, _ in loaded if kind == "spectrum"]
    if len(spectra) != 1:
        raise fileio.InputError("exactly one spectrum input is required")
    # a bad spectrum is an input error before any check is recorded
    names = {obj.name for kind, obj, _ in loaded if kind == "module"}
    for entry in spectra[0]:
        if entry.multiplicity < 0 or entry.k2_inv_dim < 0:
            raise fileio.InputError("multiplicities must be nonnegative")
        if entry.weight() and entry.module not in names:
            raise fileio.InputError(
                f"spectrum references unknown module {entry.module!r}")
    pair, split, modules = _pair_and_modules(loaded, report)
    if split is None:
        return
    for module in modules:
        vrep = gkcoh.validate_module(pair, split, module)
        report.check(f"{module.name}:validate", vrep.ok, vrep.summary())
    # diamond verdicts computed from an invalid module would mean nothing
    if report.failed:
        return
    analyses = {m.name: _analysis(pair, split, m, report) for m in modules}
    if report.failed:
        return
    assembled = asm.assemble(spectra[0], analyses)
    report.doc["summary"]["hodge-table"] = \
        {f"{p},{q}": d for (p, q), d in sorted(assembled.table.items())}
    report.doc["summary"]["betti"] = assembled.betti_numbers()
    report.doc["summary"]["flagged"] = assembled.flagged
    print(asm.render_diamond(assembled))
    checks = asm.diamond_checks(assembled, analyses)
    report.check("diamond:hodge-symmetry", checks.hodge_symmetric, "")
    report.check("diamond:odd-betti-even", checks.odd_betti_even, "")
    report.check("diamond:serre-symmetry", checks.serre_symmetric, "")
    report.check("diamond:hard-lefschetz", checks.lefschetz_injective, "")
    if checks.failures:
        report.doc["summary"]["diamond-failures"] = checks.failures


# -- argument parsing ---------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hlk",
        description="Exact checks for polarized Lefschetz structures, "
                    "operator Lie algebras and relative Lie algebra "
                    "cohomology on finite models.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    cat = sub.add_parser("catalog", help="write example input files")
    cat.add_argument("name", nargs="?", help="catalog entry name")
    cat.add_argument("--list", action="store_true", help="list entries")
    cat.add_argument("--out-dir", default=".", help="output directory")
    cat.add_argument("--k", type=int, default=3,
                     help="dim H^2 for g2-family")
    cat.add_argument("--n", type=int, default=3, help="factors for s1s2")
    cat.add_argument("--window", type=int, default=6,
                     help="weight window for module files")

    def common(p):
        p.add_argument("--input", action="append", required=True,
                       help="input file (repeatable)")
        p.add_argument("--report", default=None, help="report file path")

    val = sub.add_parser("validate", help="validate input files")
    common(val)
    val.set_defaults(func=cmd_validate)

    lef = sub.add_parser("lefschetz", help="Lefschetz/Hodge check battery")
    common(lef)
    lef.add_argument("--mode", default="full", choices=["full", "even", "odd"])
    lef.add_argument("--omega", default=None,
                     help="basis element to use as the Kahler class")
    lef.set_defaults(func=cmd_lefschetz)

    llg = sub.add_parser("llgen", help="operator Lie algebra battery")
    common(llg)
    llg.add_argument("--mode", default=None, choices=["full", "even", "odd"])
    llg.set_defaults(func=cmd_llgen)

    gkc = sub.add_parser("gkcoh", help="relative Lie algebra cohomology")
    common(gkc)
    gkc.set_defaults(func=cmd_gkcoh)

    asmp = sub.add_parser("assemble", help="assemble a mock spectrum")
    common(asmp)
    asmp.set_defaults(func=cmd_assemble)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    """Run one subcommand.  Every subcommand but ``catalog`` loads its
    inputs into a report, runs its battery on them and writes the report;
    an exception leaves without writing it."""
    args = _parser().parse_args(argv)
    try:
        if args.command == "catalog":
            return cmd_catalog(args)
        report = Report(args.command)
        loaded = []
        for path in args.input:
            data = fileio.read_input(path)
            kind, obj = fileio.decode_document(path, data)
            report.add_input(path, data)
            loaded.append((kind, obj, path))
        args.func(args, report, loaded)
        report.write(args.report)
        return 1 if report.failed else 0
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
