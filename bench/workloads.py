"""The two benchmark workloads and the checks on their outputs.

Load model: a closed loop with one caller in one process; the next call
starts only after the previous one returned.  A workload is a sequence of
seeded rounds with the same composition.  Outputs are verified after each
round, outside the timed calls and the traced spans.

* ``control_grid``: criterion 4's mix (thm1, cor_c0, thm2, drury and thm3 at
  p = 1, 1.5, 2, 3 in 4:4:4:4:1:1:1:1 trials) over every generator family
  and criterion 4's five (n, r, m) sizes, through ``search_violations``.
  The acceptance traffic: LU ``det``, per-trial drawing, Jacobi for thm3.
* ``edge_check``: single in-process ``blockdet check`` / ``reproduce`` calls
  through ``blockdet.cli.main`` on the seeded corpus of :mod:`corpus`.  No
  search layer; verdicts sit at extreme scales and near the equality band.

A third workload, a hunt with e21, cor_c1, weyl and log_major searches, is
left out: its time goes to the pure-Python complex Jacobi, whose speed on a
shared 2-core host swung 1.4-1.7x with the host's load, so ten runs spread
by 0.17-0.27 of their median.  Its kernels and checkers are still traced
on ``edge_check`` and in the kernel sweep.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import statistics
import time
import warnings
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import blockdet.linalg as linalg
from blockdet.cli import main as cli_main
from blockdet.search import FAMILIES, GeneratorSpec, recheck_witness, search_violations

import corpus
import oracle
from tracer import CHECKERS, KERNELS, VERDICTS, Tracer

SIZES = ((4, 2, 2), (6, 3, 3), (8, 4, 4), (8, 2, 1), (5, 1, 4))   # criterion 4's (n, r, m)
CELLS = tuple((family, size) for family in FAMILIES for size in SIZES)
# (predicate, params, trials per call): criterion 4's 4:4:4:4:1:1:1:1 proportions
CONTROL_MIX = (
    ("thm1", None, 4), ("cor_c0", None, 4), ("thm2", None, 4), ("drury", None, 4),
    ("thm3", {"p": 1.0}, 1), ("thm3", {"p": 1.5}, 1), ("thm3", {"p": 2.0}, 1),
    ("thm3", {"p": 3.0}, 1),
)
SEARCH_PREDICATES = ("thm1", "cor_c0", "thm2", "drury", "thm3")
SWEEP_KERNELS = ("det", "hermitian_eigensystem", "general_eigenvalues", "singular_values")
SWEEP_SIZES = (2, 4, 8, 16)
SWEEP_BUDGET_S, SWEEP_MAX_REPS = 0.15, 25   # per kernel and size, after three calls
# Rounds traced per trace run: fixed work, so per-layer counts compare across commits.
TRACE_ROUNDS = {"control_grid": 3, "edge_check": 10}
# Names each workload must reach; zero calls means the wrapping missed them.
MUST_CALL = {
    "control_grid": ("linalg.det", "linalg.hermitian_eigensystem", "checks.thm1",
                     "checks.cor_c0", "checks.thm2", "checks.drury", "checks.thm3",
                     "search.generate", "search.loop"),
    "edge_check": ("cli", "linalg.det", "linalg.predicates", "linalg.abs_matrix",
                   "linalg.hermitian_eigensystem", "linalg.general_eigenvalues",
                   "linalg.singular_values", "checks.thm1", "checks.cor_c0", "checks.cor_c1",
                   "checks.weyl", "checks.log_major", "checks.e21"),
}
DETERMINISM_TRIALS = 40


@dataclass
class Tally:
    """What a run attempted, what failed, and its timing samples."""

    attempted: int = 0
    failed: int = 0                                      # wrong outside known defects
    known: int = 0                                       # wrong as a known defect
    failures: Counter = field(default_factory=Counter)   # description -> count
    rounds: list = field(default_factory=list)   # (timed seconds, ms per operation)
    runtime_warnings: int = 0
    recheck_mismatches: int = 0
    predicate_time: Counter = field(default_factory=Counter)
    predicate_trials: Counter = field(default_factory=Counter)

    def fail(self, what: str, count: int = 1, known: bool = False) -> None:
        """Count a wrong answer: a known defect of blockdet, or a failed operation."""
        if known:
            self.known += count
        else:
            self.failed += count
        self.failures[what + (" [known defect]" if known else "")] += count


# ---------------------------------------------------------------------------
# search workloads


@dataclass(frozen=True)
class SearchCall:
    predicate: str
    params: dict | None
    trials: int
    spec: GeneratorSpec


def proven_violated(where: str, matrices, tally: Tally) -> None:
    """Count a ``violated`` verdict on a proven inequality as a failure."""
    kappa = oracle.condition(matrices)
    tally.fail(f"{where} violated a proven inequality (condition number {kappa:.1e})",
               known=kappa >= oracle.GRAM_KAPPA)


class Workload:
    """Seeded rounds of calls; a subclass says what one call does and checks."""

    name = ""
    entry = staticmethod(cli_main)   # the public function each call goes through
    span = "cli"                     # the span name ``entry`` is traced under

    def __init__(self, seed: int):
        self.seed = seed

    def execute(self, calls, fn) -> list:
        """Run ``calls`` through ``fn``: (call, outcome or exception, seconds) each."""
        clock = time.perf_counter
        results = []
        for call in calls:
            start = clock()
            try:
                outcome = self.call(fn, call)
            except Exception as err:   # a raising call is a failed operation
                outcome = err
            results.append((call, outcome, clock() - start))
        return results

    def finish(self, tally: Tally) -> None:
        """Checks made once per run, after the rounds."""


class ControlWorkload(Workload):
    """Rounds over every (family, size) cell of criterion 4's grid."""

    name = "control_grid"
    entry = staticmethod(search_violations)
    span = "search.loop"

    def round_calls(self, index: int) -> list[SearchCall]:
        calls = []
        for c, (family, (n, r, m)) in enumerate(CELLS):
            for j, (predicate, params, trials) in enumerate(CONTROL_MIX):
                spec_seed = (self.seed * 1_000_003 + index) * 10_000 + c * 100 + j
                spec = GeneratorSpec(family=family, n=n, r=r, m=m, seed=spec_seed)
                calls.append(SearchCall(predicate, params, trials, spec))
        return calls

    @staticmethod
    def operations(call: SearchCall) -> int:
        return call.trials

    @staticmethod
    def call(fn, call: SearchCall):
        return fn(call.spec, call.predicate, call.trials, params=call.params)

    def verify(self, results, tally: Tally) -> int:
        """Judge one round's reports; returns the violations they record."""
        violations = 0
        for call, report, _ in results:
            tally.attempted += call.trials
            where = f"{self.name} {call.predicate}"
            if isinstance(report, Exception):
                tally.fail(f"{where} raised {type(report).__name__}: {report}", call.trials)
            elif report.trials != call.trials:
                tally.fail(f"{where} ran {report.trials} of {call.trials} trials", call.trials)
            else:
                violations += len(report.violations)
                for record in report.violations:
                    again = recheck_witness(record.witness)
                    if again.verdict != record.report.verdict:
                        tally.recheck_mismatches += 1
                        tally.fail(f"{where} violation rechecked to {again.verdict.value}")
                    proven_violated(where, record.witness.matrices, tally)
        return violations

    def finish(self, tally: Tally) -> None:
        """Criterion 8 from outside: one seeded structured fuzz, twice, byte for byte."""
        argv = ["fuzz", "--predicate", "e21", "--trials", str(DETERMINISM_TRIALS),
                "--seed", str(self.seed), "--family", "gaussian", "--format", "structured"]
        runs = [cli_call(cli_main, argv) for _ in range(2)]
        tally.attempted += 1
        if runs[0] != runs[1] or runs[0][0] != 0 or not runs[0][1]:
            tally.fail("structured fuzz output differs between two runs")


# ---------------------------------------------------------------------------
# edge_check


def cli_call(main, argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue()


class EdgeWorkload(Workload):
    name = "edge_check"

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed)
        self.cases = corpus.build(seed, workdir)
        random.Random(seed).shuffle(self.cases)

    def round_calls(self, index: int):
        return self.cases

    @staticmethod
    def call(fn, case):
        return cli_call(fn, case.argv)

    @staticmethod
    def operations(case) -> int:
        return 1

    def verify(self, results, tally: Tally) -> int:
        """Judge one round's answers; a single check records no search violations."""
        for case, outcome, _ in results:
            tally.attempted += 1
            problem, answer = judge(case, outcome)
            if problem:
                tally.fail(f"{case.name}: {problem}", known=answer in case.known_defect)
        return 0


def judge(case, outcome) -> tuple[str | None, str | None]:
    """Why a cli answer contradicts the case's expectation (None if it does
    not), and the answer: its verdict, or its exit code when it wrote no report."""
    if isinstance(outcome, Exception):
        return f"raised {type(outcome).__name__}: {outcome}", None
    code, text = outcome
    try:
        docs = [json.loads(line) for line in text.splitlines()]
    except json.JSONDecodeError:
        return "unparseable output", None
    if case.example is not None:
        problems = oracle.published_rows_ok(case.example, docs)
        if code != 0:
            problems.insert(0, f"exit {code}")
        return "; ".join(problems) or None, None
    verdict = docs[-1].get("verdict") if docs else None
    answer = verdict or f"exit {code}"
    allowed_codes = {oracle.EXIT_CODE[v] for v in case.accepted}
    expected = "/".join(sorted(case.accepted))
    if code not in allowed_codes:
        return f"exit {code} ({verdict or 'no report'}), expected {expected}", answer
    if verdict is None and oracle.PRECONDITION not in case.accepted:
        return f"no report, expected {expected}", answer
    if verdict is not None and verdict not in case.accepted:
        return f"verdict {verdict}, expected {expected}", answer
    return None, answer


# ---------------------------------------------------------------------------
# driving a run


def make(workload: str, seed: int, workdir: Path):
    if workload == "control_grid":
        return ControlWorkload(seed)
    return EdgeWorkload(seed, workdir)


def first_call(workload) -> None:
    """One untimed call, so lazy set-up is done before timing starts."""
    workload.execute(workload.round_calls(0)[:1], workload.entry)


@dataclass
class Traced:
    """Totals over the traced rounds of a trace run."""

    ops: int = 0
    violations: int = 0
    bytes_out: int = 0
    seconds: float = 0.0
    untraced_seconds: float = 0.0
    runtime_warnings: int = 0


def _execute(workload, calls, fn, log: list) -> tuple[list, int]:
    """Run one round; returns its results and the RuntimeWarnings the calls raised."""
    log.clear()   # drop what the previous round's verification raised
    results = workload.execute(calls, fn)
    return results, sum(1 for w in log if issubclass(w.category, RuntimeWarning))


def run(workload, seconds: float, spans_out: Path | None = None) -> tuple[Tally, dict, list]:
    """Run whole rounds for about ``seconds`` of wall time, verification
    included; with ``spans_out`` also trace the first rounds.

    Each traced round repeats an untraced round on the same inputs, first or
    second in turn, so the two times give the tracing overhead.  Only the
    calls are traced: the tracer is removed before their outputs are
    verified.  The spans are written to ``spans_out`` at the end.  Returns
    the tally, the per-layer metrics of a traced run and the layers it could
    not measure.
    """
    tally = Tally()
    tracer = Tracer()
    traced_fn = tracer.wrap(workload.span, workload.entry)
    traced = Traced()
    trace_rounds = TRACE_ROUNDS[workload.name] if spans_out is not None else 0
    with warnings.catch_warnings(record=True) as log:
        warnings.simplefilter("always")

        def trace_round(calls) -> None:
            tracer.install()
            try:
                results, warned = _execute(workload, calls, traced_fn, log)
            finally:
                tracer.uninstall()
            traced.violations += workload.verify(results, tally)
            traced.runtime_warnings += warned
            traced.seconds += sum(t for _, _, t in results)
            for call, outcome, _ in results:
                traced.ops += workload.operations(call)
                if isinstance(outcome, tuple):
                    traced.bytes_out += len(outcome[1].encode())

        def timed_round(calls) -> float:
            results, warned = _execute(workload, calls, workload.entry, log)
            latencies = []
            for call, _, seconds in results:
                ops = workload.operations(call)
                latencies.extend([1e3 * seconds / ops] * ops)   # one sample per operation
                if isinstance(call, SearchCall):
                    tally.predicate_time[call.predicate] += seconds
                    tally.predicate_trials[call.predicate] += call.trials
            elapsed = sum(t for _, _, t in results)
            tally.rounds.append((elapsed, latencies))
            tally.runtime_warnings += warned
            workload.verify(results, tally)
            return elapsed

        index, spent, round_s = 0, 0.0, 0.0
        start = time.perf_counter()
        # Another round only when it ends nearer to ``seconds`` than stopping now.
        while index < max(1, trace_rounds) or spent + round_s / 2 < seconds:
            calls = workload.round_calls(index)
            pair = index < trace_rounds
            if pair and index % 2:   # alternate which of the pair runs first
                trace_round(calls)
            elapsed = timed_round(calls)
            if pair:
                traced.untraced_seconds += elapsed
                if not index % 2:
                    trace_round(calls)
            index += 1
            spent = time.perf_counter() - start
            round_s = spent / index
        workload.finish(tally)
    if spans_out is None:
        return tally, {}, []
    tracer.write(spans_out)
    return tally, *per_layer(workload, tracer, tally, traced)


def per_layer(workload, tracer: Tracer, tally: Tally, traced: Traced) -> tuple[dict, list]:
    totals = tracer.totals()
    counts = tracer.counts
    metrics: dict[str, tuple[float, str]] = {}

    def span(name: str):
        calls, self_s = totals.get(name, (0, 0.0))
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_s"] = (self_s, "s")

    for kernel in KERNELS:
        span(f"linalg.{kernel}")
    metrics["linalg.det.zero_flags"] = (counts["linalg.det.zero_flags"], "count")
    metrics["linalg.errors"] = (counts["linalg.errors"], "count")
    metrics.update(kernel_sweep(workload.seed))
    for ineq in CHECKERS:
        span(f"checks.{ineq}")
    for verdict in VERDICTS:
        metrics[f"checks.verdict.{verdict}"] = (counts[f"checks.verdict.{verdict}"], "count")
    metrics["checks.near_band"] = (counts["checks.near_band"], "count")
    metrics["checks.mismatch_findings"] = (counts["checks.mismatch_findings"], "count")
    metrics["checks.runtime_warnings"] = (traced.runtime_warnings, "count")
    metrics["checks.known_defect_frac"] = (tally.known / tally.attempted, "ratio")
    span("search.generate")
    metrics["search.loop.self_s"] = (totals.get("search.loop", (0, 0.0))[1], "s")
    metrics["search.trials"] = (traced.ops if isinstance(workload, ControlWorkload) else 0,
                                "count")
    metrics["search.violations"] = (traced.violations, "count")
    metrics["search.recheck_mismatches"] = (tally.recheck_mismatches, "count")
    for predicate in SEARCH_PREDICATES:
        seconds = tally.predicate_time[predicate]
        rate = tally.predicate_trials[predicate] / seconds if seconds else 0.0
        metrics[f"search.{predicate}.trials_per_s"] = (rate, "1/s")
    calls, self_s = totals.get("cli", (0, 0.0))
    metrics["cli.calls"] = (calls, "count")
    metrics["cli.self_s"] = (self_s, "s")
    metrics["cli.bytes_out"] = (traced.bytes_out, "bytes")
    metrics["trace.overhead_frac"] = (traced.seconds / traced.untraced_seconds - 1.0, "ratio")
    unmeasured = sorted({name.split(".")[0] for name in MUST_CALL[workload.name]
                         if totals.get(name, (0, 0.0))[0] == 0})
    metrics["trace.unmeasured_layers"] = (len(unmeasured), "count")
    return metrics, unmeasured


def kernel_sweep(seed: int) -> dict:
    """Median microseconds per call of each kernel at n = 2, 4, 8, 16."""
    rng = np.random.default_rng([seed, 0x5EE9])
    metrics = {}
    clock = time.perf_counter
    for n in SWEEP_SIZES:
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h = a @ a.conj().T
        h = (h + h.conj().T) / 2.0
        args = {"det": a, "hermitian_eigensystem": h, "general_eigenvalues": a,
                "singular_values": a}
        for kernel in SWEEP_KERNELS:
            fn, x = getattr(linalg, kernel), args[kernel]
            samples = []
            begin = clock()
            while len(samples) < 3 or (len(samples) < SWEEP_MAX_REPS and clock() - begin < SWEEP_BUDGET_S):
                start = clock()
                fn(x)
                samples.append(clock() - start)
            metrics[f"linalg.{kernel}.us_n{n}"] = (1e6 * statistics.median(samples), "us")
    return metrics
