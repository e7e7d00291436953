"""Per-module spans for the traced run, recorded from outside the package.

``Tracer`` wraps public functions of ``gauss_hodge`` modules in timing
wrappers and rebinds every module-level name bound to the original, so the
names other modules imported with ``from .x import y`` are traced too. Methods
are wrapped on their class; constructors are wrapped only to be counted.

A span is ``(name, start, end, parent, op)``: ``parent`` is the index of the
enclosing span in ``spans``, or -1. A name's self time is its spans' duration
minus the time their child spans cover. Its inclusive time counts only spans
not nested in a span of the same name, so nesting is not counted twice.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter
from time import perf_counter

PACKAGE = "gauss_hodge"

# (span name, module, function): several functions may share one span name.
FUNCTION_SPANS = (
    ("cli", "cli", "main"),
    ("potentials.parse_potential", "potentials", "parse_potential"),
    ("calculus.ddbar", "calculus", "ddbar"),
    ("calculus.exterior_d", "calculus", "exterior_d"),
    ("calculus.codifferential", "calculus", "codifferential"),
    ("calculus.dbar_adjoint", "calculus", "dbar_adjoint"),
    ("calculus.dbar_function", "calculus", "dbar_function"),
    ("calculus.type_purity", "calculus", "partial_of_10"),
    ("calculus.type_purity", "calculus", "dbar_of_01"),
    ("calculus.wirtinger", "calculus", "wirtinger_dz"),
    ("calculus.wirtinger", "calculus", "wirtinger_dzbar"),
    ("bridge.decompose_11", "bridge", "decompose_11"),
    ("bridge.split_bidegree", "bridge", "split_bidegree"),
    ("bridge.pipeline", "bridge", "solve_poincare_lelong_full"),
    ("solver.d_solve", "solver", "solve_d_min_norm_full"),
    ("solver.dbar_solve", "solver", "solve_dbar_min_norm_full"),
    ("identities.dual_basis", "identities", "ddbar_adjoint_dual_basis"),
    ("identities.adjoint_report", "identities", "ddbar_adjoint_identity_report"),
    ("identities.bochner", "identities", "bochner_identity_report"),
    ("identities.d_norm_expansion", "identities", "d_norm_expansion_report"),
    ("identities.conjugation", "identities", "conjugation_identities_check"),
    ("randomforms", "randomforms", "random_pform"),
    ("randomforms", "randomforms", "random_complexform11"),
    ("randomforms", "randomforms", "random_complex_function"),
)

# (span name, module, class, method)
METHOD_SPANS = (
    ("fields.multiply", "fields", "ScalarField", "multiply"),
    ("fields.norm_sq", "fields", "ScalarField", "norm_sq"),
    ("fields.weighted_inner", "fields", "ScalarField", "weighted_inner"),
)

# (count name, module, class or None, attribute): calls counted, not timed.
COUNTED = (
    ("fields.construct", "fields", "ScalarField", "__init__"),
    ("scalars.QC", "scalars", "QC", "__init__"),
    ("hermite.calls", "hermite", "HermiteSeries", "__init__"),
    ("hermite.calls", "hermite", None, "differentiate"),
    ("hermite.calls", "hermite", None, "apply_delta"),
    ("hermite.calls", "hermite", None, "multiply_by_coordinate"),
    ("hermite.calls", "hermite", None, "inner_product_1d"),
    ("hermite.calls", "hermite", None, "evaluate"),
)

DUAL_BASIS = "identities.dual_basis"


class Tracer:
    """Spans and counts for the calls made while installed.

    ``op`` tags new spans; spans are kept only while ``record`` is true.
    ``take_totals()`` returns and clears the aggregates gathered so far.
    """

    def __init__(self):
        self.op = -1
        self.record = False
        self.spans: list = []
        self._stack: list[list] = []  # [name, start, child seconds, span index]
        self._depth: Counter = Counter()
        self.inclusive: Counter = Counter()
        self.self_time: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._patches: list[tuple[object, str, object, object]] = []
        self._build_patches()

    def take_totals(self) -> dict:
        totals = {"inclusive": self.inclusive, "self": self.self_time,
                  "calls": self.calls, "counts": self.counts}
        copies = {key: Counter(c) for key, c in totals.items()}
        for c in totals.values():
            c.clear()
        return copies

    # -- wrappers ---------------------------------------------------------------

    def _timed(self, name: str, fn, after=None):
        stack, depth = self._stack, self._depth

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = -1
            if self.record:
                index = len(self.spans)
                self.spans.append(None)
            depth[name] += 1
            stack.append([name, perf_counter(), 0.0, index])
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                _, start, child, _ = stack.pop()
                duration = end - start
                depth[name] -= 1
                if not depth[name]:
                    self.inclusive[name] += duration
                self.self_time[name] += duration - child
                self.calls[name] += 1
                if stack:
                    stack[-1][2] += duration
                if index >= 0:
                    parent = stack[-1][3] if stack else -1
                    self.spans[index] = (name, start, end, parent, self.op)
            if after is not None:
                after(result)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _add_blocks(self, result):
        self.counts["solver.blocks_solved"] += result[2].blocks_solved

    def _count_dual_basis_ddbar(self, result):
        if self._depth[DUAL_BASIS]:
            self.counts["identities.dual_basis.ddbar_calls"] += 1

    def _build_patches(self):
        after = {"solver.d_solve": self._add_blocks,
                 "solver.dbar_solve": self._add_blocks,
                 "calculus.ddbar": self._count_dual_basis_ddbar}
        modules = [m for key, m in sys.modules.items()
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]

        def module(short: str):
            return sys.modules[f"{PACKAGE}.{short}"]

        def rebind_everywhere(original, wrapper):
            for owner in modules:
                for key, value in list(vars(owner).items()):
                    if value is original:
                        self._patches.append((owner, key, original, wrapper))

        for name, mod, attr in FUNCTION_SPANS:
            original = getattr(module(mod), attr)
            rebind_everywhere(original, self._timed(name, original, after.get(name)))
        for name, mod, cls, attr in METHOD_SPANS:
            owner = getattr(module(mod), cls)
            original = owner.__dict__[attr]
            self._patches.append((owner, attr, original, self._timed(name, original)))
        for name, mod, cls, attr in COUNTED:
            if cls is None:
                original = getattr(module(mod), attr)
                rebind_everywhere(original, self._counted(name, original))
            else:
                owner = getattr(module(mod), cls)
                original = owner.__dict__[attr]
                self._patches.append((owner, attr, original, self._counted(name, original)))

    def install(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    def write_spans(self, path):
        """Write the recorded spans as JSON lines, start and end in seconds."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
