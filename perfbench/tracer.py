"""Outside-in tracing of ``hlk``: spans around calls into each layer's
public functions, recorded by patching every ``hlk.*`` namespace that
bound them (``from .exactlin import rref`` makes ``hlk.algebra.rref``,
``hlk.lefschetz.rref`` and so on separate bindings of one function).

A span is (name, start, end, parent).  Spans stay in memory while a pass
runs and are aggregated, and written out, after it ends.  A span's self
time is its duration minus the durations of its child spans; summed by
phase and by layer (the module name, the first component of a span
name) the self times of a pass, plus the time no span covers, add up to
the pass's traced wall time.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

# (module, attribute path, span name, phase); the phase groups spans into
# the battery steps the per-layer metrics report, the layer is the first
# component of the span name
TARGETS = [
    ("hlk.exactlin", "rref", "exactlin.rref", None),
    ("hlk.exactlin", "solve", "exactlin.solve", None),
    ("hlk.exactlin", "kernel_image", "exactlin.kernel_image", None),
    ("hlk.exactlin", "quotient_cohomology", "exactlin.quotient_cohomology",
     None),
    ("hlk.exactlin", "symmetric_signature", "exactlin.symmetric_signature",
     None),
    ("hlk.exactlin", "hermitian_definiteness",
     "exactlin.hermitian_definiteness", None),
    ("hlk.exactlin", "DenseMatrix.mul", "exactlin.matmul", None),
    ("hlk.exactlin", "DenseMatrix.commutator", "exactlin.commutator", None),
    ("hlk.exactlin", "SpanBuilder.add", "exactlin.span_add", None),
    ("hlk.exactlin", "SpanBuilder.coordinates", "exactlin.span_coordinates",
     None),
    ("hlk.exactlin", "SpanBuilder.contains", "exactlin.span_contains", None),
    ("hlk.exactlin", "Subspace.contains", "exactlin.subspace_contains", None),
    ("hlk.algebra", "validate_algebra", "algebra.validate", None),
    ("hlk.algebra", "BigradedAlgebra.mulvec", "algebra.mulvec", None),
    ("hlk.lefschetz", "kahler_cone_membership", "lefschetz.cone_membership",
     "lefschetz.cone"),
    ("hlk.lefschetz", "cone_check_family", "lefschetz.cone_check_family",
     "lefschetz.cone"),
    ("hlk.lefschetz", "spanning_cone_family", "lefschetz.spanning_family",
     "lefschetz.cone"),
    ("hlk.lefschetz", "dual_lefschetz", "lefschetz.dual_lefschetz",
     "lefschetz.sl2"),
    ("hlk.lefschetz", "polarization_form", "lefschetz.polarization_form",
     "lefschetz.polarization"),
    ("hlk.lefschetz", "hodge_inner_product", "lefschetz.hodge_inner_product",
     "lefschetz.polarization"),
    ("hlk.lefschetz", "hodge_gram", "lefschetz.hodge_gram",
     "lefschetz.polarization"),
    ("hlk.lefschetz", "hodge_signature", "lefschetz.hodge_signature",
     "lefschetz.signature"),
    ("hlk.lefschetz", "serre_pairing_check", "lefschetz.serre", None),
    ("hlk.lefschetz", "hodge_filtration", "lefschetz.filtration", None),
    ("hlk.lefschetz", "filtration_opposed", "lefschetz.filtration_opposed",
     "lefschetz.filtration"),
    ("hlk.llgen", "lie_closure", "llgen.closure", None),
    ("hlk.llgen", "minimal_ideals", "llgen.minimal_ideals", "llgen.ideals"),
    ("hlk.llgen", "ideal_probe", "llgen.ideal_probe", "llgen.ideals"),
    ("hlk.llgen", "is_sl2_block", "llgen.is_sl2_block", "llgen.ideals"),
    ("hlk.llgen", "structure_constants", "llgen.structure_constants", None),
    ("hlk.llgen", "killing_form", "llgen.killing_form", "llgen.killing"),
    ("hlk.llgen", "killing_nondegenerate", "llgen.killing_nondegenerate",
     "llgen.killing"),
    ("hlk.llgen", "bracket_table_digest", "llgen.digest", None),
    ("hlk.llgen", "so_phi_equality", "llgen.so_phi", None),
    ("hlk.llgen", "OperatorLieAlgebra.span", "llgen.span", None),
    ("hlk.gkcoh", "validate_pair", "gkcoh.validate_pair", None),
    ("hlk.gkcoh", "split_p", "gkcoh.split_p", None),
    ("hlk.gkcoh", "validate_module", "gkcoh.validate_module", None),
    ("hlk.gkcoh", "analyze_module", "gkcoh.analyze_module", None),
    ("hlk.gkcoh", "build_complex", "gkcoh.build_complex", None),
    ("hlk.gkcoh", "complex_sanity", "gkcoh.complex_sanity", None),
    ("hlk.gkcoh", "cohomology_bigraded", "gkcoh.cohomology", None),
    ("hlk.gkcoh", "ungraded_cohomology_dims", "gkcoh.ungraded_cohomology",
     "gkcoh.cohomology"),
    ("hlk.gkcoh", "laplacian_kernel_dims", "gkcoh.laplacian", None),
    ("hlk.gkcoh", "casimir_action", "gkcoh.casimir", None),
    ("hlk.gkcoh", "vanishing_dichotomy", "gkcoh.dichotomy", None),
    ("hlk.gkcoh", "lefschetz_on_complex", "gkcoh.lefschetz_on_complex", None),
    ("hlk.assembler", "assemble", "assembler.assemble", None),
    ("hlk.assembler", "diamond_checks", "assembler.diamond_checks", None),
    ("hlk.assembler", "render_diamond", "assembler.render_diamond", None),
    ("hlk.fileio", "load_document", "fileio.load", None),
    ("hlk.fileio", "canonical_dumps", "fileio.dump", None),
    ("hlk.cli", "main", "cli.main", None),
    ("hlk.cli", "_polarization_symmetries", "cli.polarization_symmetries",
     None),
]
# spans whose results are inspected: the bit height of rref/solve
# outputs, and whether SpanBuilder.add grew the span
SCANNED = {"exactlin.rref", "exactlin.solve"}
USEFUL = {"exactlin.span_add"}
SCAN_SPAN = "trace.scan"


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def _max_bits(values) -> int:
    best = 0
    for x in values:
        for f in (x.re, x.im):
            best = max(best, f.numerator.bit_length(),
                       f.denominator.bit_length())
    return best


class Tracer:
    def __init__(self):
        self.names = [SCAN_SPAN] + [t[2] for t in TARGETS]
        self.phase = {t[2]: t[3] or t[2] for t in TARGETS}
        self.phase[SCAN_SPAN] = SCAN_SPAN
        self._index = {nm: k for k, nm in enumerate(self.names)}
        self._bindings = []      # (namespace, attribute, original, wrapper)
        self.reset()

    def reset(self):
        self.spans = []          # [name index, start, end, parent index]
        self._stack = []
        self.useful = Counter()
        self.max_bits = 0

    # -- patching -----------------------------------------------------

    def install(self):
        """Wrap every binding of every target in every loaded hlk module."""
        modules = [m for nm, m in sorted(sys.modules.items())
                   if nm == "hlk" or nm.startswith("hlk.")]
        for mod_name, path, span, _ in TARGETS:
            owner = sys.modules[mod_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
            wrapper = self._wrap(original, span)
            spaces = [owner] if outer else modules
            for ns in spaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._bindings.append((ns, key, original, wrapper))
                        setattr(ns, key, wrapper)

    def uninstall(self):
        for ns, key, original, _ in reversed(self._bindings):
            setattr(ns, key, original)
        self._bindings = []

    def _wrap(self, fn, span):
        idx = self._index[span]
        clock = time.perf_counter
        scan = span in SCANNED
        useful = span in USEFUL

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans, stack = self.spans, self._stack
            me = len(spans)
            rec = [idx, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(rec)
            stack.append(me)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if useful and result:
                self.useful[span] += 1
            if scan and result is not None:
                self._scan(result if span == "exactlin.solve"
                           else [x for row in result[0] for x in row], me)
            return result
        return traced

    def _scan(self, values, parent_of):
        rec = [0, 0.0, 0.0, self.spans[parent_of][3]]
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        self.max_bits = max(self.max_bits, _max_bits(values))
        rec[2] = time.perf_counter()

    # -- aggregation --------------------------------------------------

    def aggregate(self, wall: float) -> dict:
        """Calls per span name and self time per span name, phase and
        layer, for the spans recorded since the last reset, and the part
        of ``wall``, the traced time of the pass, that no span covers."""
        spans = self.spans
        self_time = [s[2] - s[1] for s in spans]
        for s in spans:
            if s[3] >= 0:
                self_time[s[3]] -= s[2] - s[1]
        calls = Counter()
        by = defaultdict(float)     # span name, phase and layer -> self time
        for s, own in zip(spans, self_time):
            name = self.names[s[0]]
            calls[name] += 1
            by[name] += own
            if self.phase[name] != name:
                by[self.phase[name]] += own
            by[layer_of(name)] += own
        covered = sum(s[2] - s[1] for s in spans if s[3] < 0)
        return {"calls": dict(calls), "self_s": dict(by),
                "useful": dict(self.useful), "max_bits": self.max_bits,
                "uncovered_s": wall - covered}

    def write(self, path):
        """Write the recorded spans, times relative to the first start."""
        origin = min((s[1] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names,
                       "fields": ["name", "start_s", "end_s", "parent"],
                       "spans": [[s[0], round(s[1] - origin, 9),
                                  round(s[2] - origin, 9), s[3]]
                                 for s in self.spans]}, fh)
