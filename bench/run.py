"""blockdet benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload control_grid --seed 1 --seconds 60 --trace 0

Run from the root of a blockdet checkout; blockdet is imported from its
``src/``.  Workloads (see ``workloads.py``): ``control_grid`` and
``edge_check``.

With ``--trace 0`` the run reports the end-to-end metrics, measured with
tracing off:

* ``trials_per_s``: operations completed per timed second.  An operation is
  one search trial, or one ``blockdet check``/``reproduce`` call on
  ``edge_check``.
* ``check_ms_p50``, ``check_ms_p99``: milliseconds per operation, one sample
  per operation; a search call's time is split evenly over its trials.
* ``setup_s``: spawn of a fresh interpreter until ``import blockdet`` and the
  workload's first call are done; median over several probes.
* ``peak_rss_mb``: ``ru_maxrss`` of the process that ran the workload.

With ``--trace 1`` it reports the per-layer metrics instead (see
``tracer.py``): spans around blockdet's public functions over a fixed number
of traced rounds, each paired with the same round untraced, plus a kernel
size sweep.  The spans are written to ``bench/.work/spans-WORKLOAD-seedN.ndjson``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  An operation whose answer
contradicts the benchmark's own expectation is either a known defect of
blockdet or a failure.  A known defect is a ``known_defect`` case of
``corpus.py`` giving the wrong answer recorded for it, or a false
``violated`` from a search on an input with condition number
``oracle.GRAM_KAPPA`` or more; known defects are counted and listed, as
``known_defect_frac``, but not as failed.  ``failed`` counts every other
wrong answer, and any raising call, and ``correct`` is false when it is not
0.  The lines before it are a readable table, the wrong answers and a JSON
line of run metadata.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"   # one caller, one thread; before numpy loads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "bench" / ".work"
WORKLOADS = ("control_grid", "edge_check")
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description="blockdet benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def measure_setup(workload: str, workdir: Path) -> list[float]:
    """Seconds from spawning a fresh interpreter to its ``ready`` line.

    One unmeasured probe first compiles the bytecode cache, as any earlier
    use of the checkout would have.
    """
    matrix = workdir / "setup.json"
    matrix.write_text(json.dumps({"rows": 2, "cols": 2,
                                  "entries": [[2, 0], [1, 0], [0, 0], [3, 0]]}))
    command = [sys.executable, str(Path(__file__).with_name("probe.py")), str(SRC), workload,
               str(matrix)]
    samples = []
    for _ in range(SETUP_PROBES + 1):
        start = time.perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as probe:
            try:
                line = probe.stdout.readline()
                elapsed = time.perf_counter() - start
                probe.wait(timeout=PROBE_TIMEOUT_S)
            finally:
                if probe.poll() is None:
                    probe.kill()
        if line.strip() != "ready" or probe.returncode != 0:
            raise RuntimeError(f"set-up probe failed with exit code {probe.returncode}")
        samples.append(elapsed)
    return samples[1:]


def spans_path(args) -> Path:
    return WORK / f"spans-{args.workload}-seed{args.seed}.ndjson"


def metadata() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {key: blas.get(key) for key in ("name", "version", "openblas configuration")}
    except (AttributeError, KeyError, TypeError):
        blas = None
    cpu = None
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": blas,
        "cpu_model": cpu or platform.processor() or None,
        "nproc": len(os.sched_getaffinity(0)),
        "thread_env": {name: os.environ.get(name) for name in THREAD_ENV},
        "git_commit": git_commit(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
    }


def git_commit() -> str | None:
    """The checkout's commit, or None when it is not a git checkout."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}   # look in ROOT only
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def end_to_end(tally, setup: list[float], rss_mb: float) -> dict:
    latencies = [ms for _, samples in tally.rounds for ms in samples]
    return {
        "trials_per_s": (len(latencies) / sum(seconds for seconds, _ in tally.rounds), "1/s"),
        "check_ms_p50": (statistics.median(latencies), "ms"),
        "check_ms_p99": (statistics.quantiles(latencies, n=100)[98], "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def report(args, tally, metrics: dict, unmeasured: list, setup: list[float]) -> None:
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"rounds {len(tally.rounds)}  operations {sum(len(r[1]) for r in tally.rounds)} timed, "
          f"{tally.attempted} verified")
    for name, (value, unit) in metrics.items():
        hidden = name.split(".")[0] in unmeasured and ".us_n" not in name   # the sweep is untraced
        shown = "unmeasured" if hidden else f"{value:.6g}"
        print(f"  {name:<44} {shown:>14} {unit}")
    if not args.trace:
        for name, count in (("failed_frac", tally.failed), ("known_defect_frac", tally.known)):
            print(f"  {name:<44} {count / tally.attempted:>14.6g} ratio "
                  f"({count} of {tally.attempted})")
        print(f"  check_ms_p99 over {sum(len(r[1]) for r in tally.rounds)} samples; "
              f"setup_s over {len(setup)} probes; "
              f"{tally.runtime_warnings} numpy RuntimeWarnings")
    else:
        print(f"  spans written to {spans_path(args).relative_to(ROOT)}")
    if unmeasured:
        print(f"  unmeasured layers (a must-call name recorded no calls): {unmeasured}")
    if tally.failures:
        print(f"wrong answers ({tally.failed} failed, {tally.known} known defects):")
        for what, count in sorted(tally.failures.items()):
            print(f"  {count:>6}  {what}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "blockdet" / "__init__.py").is_file():
        print(f"bench: no blockdet sources under {SRC}; run from a blockdet checkout",
              file=sys.stderr)
        return 2
    workdir = WORK / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        setup = measure_setup(args.workload, workdir)
        sys.path.insert(0, str(SRC))
        import blockdet
        import workloads

        if Path(blockdet.__file__).resolve().parent != (SRC / "blockdet").resolve():
            print(f"bench: imported blockdet from {blockdet.__file__}, not {SRC}",
                  file=sys.stderr)
            return 2
        workload = workloads.make(args.workload, args.seed, workdir)
        workloads.first_call(workload)
        tally, layers, unmeasured = workloads.run(workload, args.seconds,
                                                  spans_path(args) if args.trace else None)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()   # only succeeds when no other run is using it
        except OSError:
            pass
    metrics = layers if args.trace else end_to_end(tally, setup, rss_mb)
    report(args, tally, metrics, unmeasured, setup)
    print(json.dumps({"run_metadata": metadata()}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
