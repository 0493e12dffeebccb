"""Spans around the public functions of each normlds layer, kept in memory.

The benchmark wraps the functions from its own files; the program is not
changed. A wrapper replaces the name in every normlds module that holds it
(so `from .exactlinalg import det` in basisforge is traced too), and
`uninstall` puts the originals back, so untraced rounds pay nothing.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

# span name -> (module, attribute path) of each callable it covers
TARGETS = {
    "numberfield.NumberField": [("numberfield", "NumberField.__init__")],
    "numberfield.mul": [("numberfield", "FieldElement.__mul__"), ("numberfield", "FieldElement.__rmul__")],
    "numberfield.coords": [("numberfield", "ModuleBasis.coords")],
    "numberfield.min_poly": [("numberfield", "min_poly")],
    "numberfield.norm": [("numberfield", "norm")],
    "numberfield.parse": [("numberfield", "parse_polynomial"), ("numberfield", "parse_element")],
    "exactlinalg.det": [("exactlinalg", "det")],
    "exactlinalg.hnf_column": [("exactlinalg", "hnf_column")],
    "exactlinalg.snf": [("exactlinalg", "snf")],
    "exactlinalg.inverse_unimodular": [("exactlinalg", "inverse_unimodular")],
    "exactlinalg.complete_primitive": [("exactlinalg", "complete_primitive")],
    "basisforge.quad_construct": [("basisforge", "quad_construct")],
    "basisforge.quartic_module_construct": [("basisforge", "quartic_module_construct")],
    "basisforge.quartic_full_construct": [("basisforge", "quartic_full_construct")],
    "basisforge.snf_criterion_matrix": [("basisforge", "snf_criterion_matrix")],
    "basisforge.family_basis": [("basisforge", "family_basis")],
    "coordseq.generate": [("coordseq", "generate")],
    "coordseq.verify_lds": [("coordseq", "verify_lds")],
    "coordseq.verify_recurrence": [("coordseq", "verify_recurrence")],
    "dkseq.dk_sequence": [("dkseq", "dk_sequence")],
    "dkseq.dk_level_scan": [("dkseq", "dk_level_scan")],
    "dkseq.dk_recurrence_check": [("dkseq", "dk_recurrence_check")],
    "dkseq.sparse_minpoly_scan": [("dkseq", "sparse_minpoly_scan")],
    "dkseq.discriminant_power_basis": [("dkseq", "discriminant_power_basis")],
}

# the span each report runs in; its self time is the CLI's own work
ROOT = "cli"


class Tracer:
    """Records (name, start, end, parent) spans while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.generated: list = []  # SequenceReports returned by coordseq.generate
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        keep = self.generated.append if name == "coordseq.generate" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][2] = clock()
                stack.pop()
            if keep is not None:
                keep(result)
            return result

        return traced

    def install(self) -> None:
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "normlds" or name.startswith("normlds.")}
        for name, places in TARGETS.items():
            for module, path in places:
                owner = modules[f"normlds.{module}"]
                if "." in path:
                    cls_name, attr = path.split(".")
                    owner = getattr(owner, cls_name)
                    original = owner.__dict__[attr]
                    self._patch(owner, attr, self._wrap(name, original))
                    continue
                original = getattr(owner, path)
                wrapper = self._wrap(name, original)
                for mod in modules.values():
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, wrapper)

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def root(self):
        """Open the root span of one report; returns a function that closes it."""
        index = len(self.spans)
        self.spans.append([ROOT, time.perf_counter(), 0.0, -1])
        self.stack.append(index)

        def close() -> None:
            self.spans[index][2] = time.perf_counter()
            self.stack.pop()

        return close

    def collect(self) -> tuple[Counter, dict[str, float]]:
        """Calls and self time per span name since the last collect; clears the spans."""
        calls: Counter = Counter()
        self_s: dict[str, float] = defaultdict(float)
        for name, start, end, parent in self.spans:
            calls[name] += 1
            self_s[name] += end - start
            if parent >= 0:
                self_s[self.spans[parent][0]] -= end - start
        self.spans.clear()
        return calls, self_s
