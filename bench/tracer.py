"""Spans around blockdet's public functions, recorded from the benchmark's side.

blockdet's modules bind the names they import when they are imported, so a
function is wrapped in the namespace of each module that calls it
(``blockdet.checks.det``, ``blockdet.linalg.hermitian_eigensystem``,
``blockdet.search.check_*``, ...).  Spans stay in memory with a link to the
span that was open when they started; self time is a span's duration minus
that of its direct children.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict

import blockdet.checks as checks_mod
import blockdet.cli as cli_mod
import blockdet.linalg as linalg_mod
import blockdet.search as search_mod
from blockdet.linalg import DEFAULT_TOL, LinalgError

KERNELS = ("det", "hermitian_eigensystem", "general_eigenvalues", "singular_values",
           "abs_matrix", "predicates", "schur_complement", "solve")
CHECKERS = ("fischer", "thm1", "cor_c0", "cor_c1", "lemma1", "djokovic", "thm2", "drury",
            "thm3", "weyl", "log_major", "schur_identity", "e21")
VERDICTS = ("holds_strict", "equality", "violated", "precondition_failed")
MISMATCH_FINDINGS = frozenset({"structural_numeric_mismatch", "margin_within_equality_band"})
NEAR_BAND_WINDOWS = 10.0


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []    # (name, start, end, parent index or -1)
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def wrap(self, name: str, fn, after=None):
        """``fn`` recording one span named ``name`` per call."""
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)   # filled on exit; an all-atomic tuple stays out of the gc
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except LinalgError as err:
                if not getattr(err, "_bench_counted", False):
                    err._bench_counted = True
                    counts["linalg.errors"] += 1
                raise
            finally:
                spans[index] = (name, start, clock(), parent)
                stack.pop()
            if after is not None:
                after(result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced name; :meth:`uninstall` puts the originals back."""
        for module in (linalg_mod, checks_mod, search_mod):
            for kernel in KERNELS:
                if kernel in vars(module):
                    after = self._after_det if kernel == "det" else None
                    self._patch(module, kernel, f"linalg.{kernel}", after)
        for ineq in CHECKERS:
            self._patch(search_mod, f"check_{ineq}", f"checks.{ineq}", self._after_check)
        self._patch(search_mod, "generate", "search.generate")
        self._patch(search_mod, "generate_block_family", "search.generate")
        self._patch(cli_mod, "search_violations", "search.loop")

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def _patch(self, module, attr: str, name: str, after=None) -> None:
        """Wrap ``module.attr`` if it exists; a missing name shows as zero calls."""
        original = getattr(module, attr, None)
        if original is None:
            return
        self._patches.append((module, attr, original))
        setattr(module, attr, self.wrap(name, original, after))

    def _after_det(self, result) -> None:
        if result.is_zero:
            self.counts["linalg.det.zero_flags"] += 1

    def _after_check(self, report) -> None:
        counts = self.counts
        counts[f"checks.verdict.{report.verdict.value}"] += 1
        anchor = 0.0 if report.lhs.is_zero else abs(report.lhs.log_magnitude)
        if abs(report.margin) <= NEAR_BAND_WINDOWS * DEFAULT_TOL.eq_rel * max(1.0, anchor):
            counts["checks.near_band"] += 1
        if any(f.name in MISMATCH_FINDINGS for f in report.diagnostics):
            counts["checks.mismatch_findings"] += 1

    def totals(self) -> dict[str, tuple[int, float]]:
        """Span name -> (calls, self seconds)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Counter = Counter()
        self_s: defaultdict = defaultdict(float)
        for index, (name, start, end, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - child[index]
        return {name: (calls[name], self_s[name]) for name in calls}

    def write(self, path) -> None:
        with open(path, "w") as out:
            for index, (name, start, end, parent) in enumerate(self.spans):
                out.write(json.dumps({"id": index, "name": name, "start": start,
                                      "end": end, "parent": parent}) + "\n")
