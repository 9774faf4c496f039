"""Interleaved A/B timing of two blockdet trees in one process.

Separate benchmark processes on a shared host drift apart by more than a
small change saves.  This tool imports two source trees into one process,
under the package names ``blockdet_parent`` and ``blockdet_change``, and
alternates their ``search_violations`` calls over criterion 4's control
grid (every family at each of criterion 4's (n, r, m), thm1, cor_c0, thm2
and drury at 4 trials, thm3 at p 1, 1.5, 2 and 3 at 1 trial), which side
goes first switching with every call.  It prints, per call id, each side's
median microseconds per call and the change/parent ratio; the median
one-trial thm3 call per family; and each side's in-process p50 and p99
milliseconds per trial, one sample per trial as the benchmark counts them.
It also checks that the two trees' reports are identical.

    git worktree add ../parent HEAD~1
    OPENBLAS_NUM_THREADS=1 python tools/interleave.py --parent ../parent/src --rounds 20

``--parent`` and ``--change`` name a tree's ``src`` directory (or its root);
``--change`` defaults to this checkout.  Exit status: 0, or 1 when a report
differs between the trees.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIZES = ((4, 2, 2), (6, 3, 3), (8, 4, 4), (8, 2, 1), (5, 1, 4))   # criterion 4's (n, r, m)
# (id, params, trials per call): criterion 4's 4:4:4:4:1:1:1:1 proportions
MIX = (("thm1", None, 4), ("cor_c0", None, 4), ("thm2", None, 4), ("drury", None, 4)) + tuple(
    ("thm3", {"p": p}, 1) for p in (1.0, 1.5, 2.0, 3.0))


def load(tree: str, name: str):
    """The ``blockdet`` package of ``tree`` (its ``src`` or its root),
    imported as ``name``, and its ``search`` module."""
    path = Path(tree).resolve()
    package = path / "blockdet" if (path / "blockdet").is_dir() else path / "src" / "blockdet"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.search")


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


def run(sides: dict, rounds: int, seed: int) -> tuple[dict, int]:
    """Alternate the two trees' calls for ``rounds`` rounds; returns each
    side's seconds per (label, family) and the count of differing reports."""
    times = {side: defaultdict(list) for side in sides}
    differ = 0
    clock = time.perf_counter
    order = list(sides)
    families = sides["parent"].FAMILIES
    for index in range(rounds):
        for label, family, ineq_id, params, trials, spec_args in round_calls(families, seed, index):
            reports = {}
            for side in order:
                search = sides[side]
                spec = search.GeneratorSpec(**spec_args)
                start = clock()
                report = search.search_violations(spec, ineq_id, trials, params=params)
                times[side][label, family, trials].append(clock() - start)
                reports[side] = json.dumps(report.to_json_dict())
            differ += len(set(reports.values())) > 1
            order.reverse()
    return times, differ


def print_table(times: dict) -> None:
    parent, change = times["parent"], times["change"]
    labels = sorted({label for label, _, _ in parent}, key=lambda s: (s.split()[0], s))
    print(f"{'call':<12} {'parent us':>10} {'change us':>10} {'ratio':>7}")
    for label in labels:
        keys = [k for k in parent if k[0] == label]
        a = statistics.median(t for k in keys for t in parent[k])
        b = statistics.median(t for k in keys for t in change[k])
        print(f"{label:<12} {1e6 * a:>10.1f} {1e6 * b:>10.1f} {b / a:>7.3f}")
    print()
    print("one-trial thm3, per family")
    print(f"{'family':<32} {'parent us':>10} {'change us':>10} {'ratio':>7}")
    for family in sorted({f for _, f, _ in parent}):
        keys = [k for k in parent if k[1] == family and k[2] == 1]
        a = statistics.median(t for k in keys for t in parent[k])
        b = statistics.median(t for k in keys for t in change[k])
        print(f"{family:<32} {1e6 * a:>10.1f} {1e6 * b:>10.1f} {b / a:>7.3f}")
    print()
    for side in ("parent", "change"):
        samples = [1e3 * t / trials for (_, _, trials), ts in times[side].items()
                   for t in ts for _ in range(trials)]
        print(f"{side}: p50 {quantile(samples, 0.50):.4f} ms, p99 {quantile(samples, 0.99):.4f} ms "
              f"per trial over {len(samples)} samples")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="the parent tree's src (or root)")
    parser.add_argument("--change", default=str(ROOT / "src"),
                        help="the changed tree's src (or root); default this checkout")
    parser.add_argument("--rounds", type=int, default=20)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be positive")
    sides = {"parent": load(args.parent, "blockdet_parent"),
             "change": load(args.change, "blockdet_change")}
    run(sides, 1, args.seed + 1)   # warm both trees' caches and lazy imports
    times, differ = run(sides, args.rounds, args.seed)
    print_table(times)
    calls = sum(len(ts) for ts in times["change"].values())
    print(f"{differ} of {calls} reports differ between the trees")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
