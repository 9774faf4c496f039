"""Interleaved A/B timing of two blockdet trees in one process.

Separate benchmark processes on a shared host drift apart by more than a
small change saves.  This tool imports two source trees into one process,
under the package names ``blockdet_parent`` and ``blockdet_change``, and
alternates their calls, which side goes first switching with every call
and, for the same call, with every round.  It also checks that the two
trees answer every call identically.

``--workload control_grid`` (the default) alternates ``search_violations``
calls over criterion 4's control grid (every family at each of criterion
4's (n, r, m), thm1, cor_c0, thm2 and drury at 4 trials, thm3 at p 1, 1.5,
2 and 3 at 1 trial).  It prints, per call id, each side's median
microseconds per call and the change/parent ratio; the median one-trial
thm3 call per family; and each side's in-process p50 and p99 milliseconds
per trial, one sample per trial as the benchmark counts them.

``--workload edge_check`` builds the benchmark's ``edge_check`` corpus for
``--seed`` with ``bench/corpus.py`` into a temporary directory and
alternates each case's ``cli.main`` call, its standard output and error
captured.  It prints, per inequality id (``reproduce`` for the published
examples), each side's median microseconds per call and the ratio; then
each side's calls per second and per-call p50 and p99, and the
change/parent ratio of each.

    git worktree add ../parent HEAD~1
    OPENBLAS_NUM_THREADS=1 python tools/interleave.py --parent ../parent/src --rounds 20
    OPENBLAS_NUM_THREADS=1 python tools/interleave.py --parent ../parent/src \\
        --workload edge_check --rounds 20 --seed 7

``--parent`` and ``--change`` name a tree's ``src`` directory (or its root);
``--change`` defaults to this checkout.  Exit status: 0, or 1 when a report
(control_grid), or an exit code, standard output or standard error
(edge_check), differs between the trees.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import statistics
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("control_grid", "edge_check")
SIZES = ((4, 2, 2), (6, 3, 3), (8, 4, 4), (8, 2, 1), (5, 1, 4))   # criterion 4's (n, r, m)
# (id, params, trials per call): criterion 4's 4:4:4:4:1:1:1:1 proportions
MIX = (("thm1", None, 4), ("cor_c0", None, 4), ("thm2", None, 4), ("drury", None, 4)) + tuple(
    ("thm3", {"p": p}, 1) for p in (1.0, 1.5, 2.0, 3.0))


def load(tree: str, name: str, module: str):
    """The ``blockdet`` package of ``tree`` (its ``src`` or its root),
    imported as ``name``, and its module ``module``."""
    path = Path(tree).resolve()
    package = path / "blockdet" if (path / "blockdet").is_dir() else path / "src" / "blockdet"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(
            name, package / "__init__.py", submodule_search_locations=[str(package)])
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return importlib.import_module(f"{name}.{module}")


def round_calls(families, seed: int, index: int) -> list[tuple]:
    """(label, family, id, params, trials, spec arguments) of one round, as
    the benchmark's control_grid seeds its calls."""
    calls = []
    cells = [(family, size) for family in families for size in SIZES]
    for c, (family, (n, r, m)) in enumerate(cells):
        for j, (ineq_id, params, trials) in enumerate(MIX):
            label = ineq_id if params is None else f"{ineq_id} p={params['p']:g}"
            spec_seed = (seed * 1_000_003 + index) * 10_000 + c * 100 + j
            calls.append((label, family, ineq_id, params, trials,
                          dict(family=family, n=n, r=r, m=m, seed=spec_seed)))
    return calls


def quantile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def alternate(sides: dict, rounds: int, calls, invoke) -> tuple[dict, int]:
    """Run ``calls(index)``, (key, call) pairs, for ``rounds`` rounds, each
    call on both sides in turn, which goes first switching with every call
    and, for the same call, with every round (a round of an even number of
    calls would otherwise give each call the same first side every round);
    ``invoke(module, call)`` gives the seconds and the output of one.
    Returns each side's seconds per key and the count of differing outputs."""
    times = {side: defaultdict(list) for side in sides}
    differ = 0
    orders = (list(sides), list(sides)[::-1])
    for index in range(rounds):
        for position, (key, call) in enumerate(calls(index)):
            outputs = {}
            for side in orders[(index + position) % 2]:
                seconds, outputs[side] = invoke(sides[side], call)
                times[side][key].append(seconds)
            differ += outputs["parent"] != outputs["change"]
    return times, differ


def search_call(search, call) -> tuple[float, str]:
    """One control-grid ``search_violations`` call: its seconds and its report."""
    _, _, ineq_id, params, trials, spec_args = call
    spec = search.GeneratorSpec(**spec_args)
    start = time.perf_counter()
    report = search.search_violations(spec, ineq_id, trials, params=params)
    seconds = time.perf_counter() - start
    return seconds, json.dumps(report.to_json_dict())


def cli_call(cli, argv) -> tuple[float, tuple]:
    """One ``cli.main`` call: its seconds, and its exit code, standard output
    and standard error."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        code = cli.main(list(argv))
        seconds = time.perf_counter() - start
    return seconds, (code, out.getvalue(), err.getvalue())


def print_ratio_row(label: str, a: float, b: float, width: int = 12) -> None:
    print(f"{label:<{width}} {1e6 * a:>10.1f} {1e6 * b:>10.1f} {b / a:>7.3f}")


def print_control_table(times: dict) -> None:
    parent, change = times["parent"], times["change"]
    labels = sorted({label for label, _, _ in parent}, key=lambda s: (s.split()[0], s))
    print(f"{'call':<12} {'parent us':>10} {'change us':>10} {'ratio':>7}")
    for label in labels:
        keys = [k for k in parent if k[0] == label]
        print_ratio_row(label, statistics.median(t for k in keys for t in parent[k]),
                        statistics.median(t for k in keys for t in change[k]))
    print()
    print("one-trial thm3, per family")
    print(f"{'family':<32} {'parent us':>10} {'change us':>10} {'ratio':>7}")
    for family in sorted({f for _, f, _ in parent}):
        keys = [k for k in parent if k[1] == family and k[2] == 1]
        print_ratio_row(family, statistics.median(t for k in keys for t in parent[k]),
                        statistics.median(t for k in keys for t in change[k]), 32)
    print()
    for side in ("parent", "change"):
        samples = [1e3 * t / trials for (_, _, trials), ts in times[side].items()
                   for t in ts for _ in range(trials)]
        print(f"{side}: p50 {quantile(samples, 0.50):.4f} ms, p99 {quantile(samples, 0.99):.4f} ms "
              f"per trial over {len(samples)} samples")


def run_control_grid(sides: dict, rounds: int, seed: int) -> tuple[int, int]:
    """Time the control grid; returns the count of calls and of differing reports."""
    searches = {side: load(tree, f"blockdet_{side}", "search") for side, tree in sides.items()}
    families = searches["parent"].FAMILIES

    def grid(seed: int):
        return lambda index: [((c[0], c[1], c[4]), c) for c in round_calls(families, seed, index)]

    alternate(searches, 1, grid(seed + 1), search_call)   # warm both trees' caches and imports
    times, differ = alternate(searches, rounds, grid(seed), search_call)
    print_control_table(times)
    return sum(len(ts) for ts in times["change"].values()), differ


def case_id(argv) -> str:
    """A corpus case's inequality id, or its command where it names none."""
    return argv[argv.index("--ineq") + 1] if "--ineq" in argv else argv[0]


def print_edge_table(times: dict) -> None:
    parent, change = times["parent"], times["change"]
    ids = sorted({key for key, _ in parent})
    print(f"{'id':<16} {'parent us':>10} {'change us':>10} {'ratio':>7}")
    for ineq_id in ids:
        keys = [k for k in parent if k[0] == ineq_id]
        print_ratio_row(ineq_id, statistics.median(t for k in keys for t in parent[k]),
                        statistics.median(t for k in keys for t in change[k]), 16)
    print()
    figures = {}
    for side in ("parent", "change"):
        samples = [t for ts in times[side].values() for t in ts]
        figures[side] = (len(samples) / sum(samples), 1e3 * quantile(samples, 0.50),
                         1e3 * quantile(samples, 0.99))
        ops, p50, p99 = figures[side]
        print(f"{side}: {ops:.1f} calls/s, p50 {p50:.4f} ms, p99 {p99:.4f} ms per call "
              f"over {len(samples)} calls")
    ratios = [b / a for a, b in zip(figures["parent"], figures["change"])]
    print("change/parent: calls/s {:.3f}, p50 {:.3f}, p99 {:.3f}".format(*ratios))


def run_edge_check(sides: dict, rounds: int, seed: int) -> tuple[int, int]:
    """Time the edge_check corpus; returns the count of calls and of
    differing outputs."""
    clis = {side: load(tree, f"blockdet_{side}", "cli") for side, tree in sides.items()}
    sys.path.insert(0, str(ROOT / "bench"))
    import corpus   # bench/corpus.py, with bench/oracle.py

    with tempfile.TemporaryDirectory(prefix="interleave-") as workdir:
        cases = corpus.build(seed, Path(workdir))
        keyed = [((case_id(case.argv), case.name), case.argv) for case in cases]
        alternate(clis, 1, lambda index: keyed, cli_call)   # warm both trees
        times, differ = alternate(clis, rounds, lambda index: keyed, cli_call)
    print_edge_table(times)
    return sum(len(ts) for ts in times["change"].values()), differ


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="the parent tree's src (or root)")
    parser.add_argument("--change", default=str(ROOT / "src"),
                        help="the changed tree's src (or root); default this checkout")
    parser.add_argument("--workload", choices=WORKLOADS, default="control_grid")
    parser.add_argument("--rounds", type=int, default=20)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be positive")
    sides = {"parent": args.parent, "change": args.change}
    runner = run_control_grid if args.workload == "control_grid" else run_edge_check
    calls, differ = runner(sides, args.rounds, args.seed)
    what = "reports" if args.workload == "control_grid" else "outputs"
    print(f"{differ} of {calls} {what} differ between the trees")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
