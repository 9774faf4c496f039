"""A hashed manifest of blockdet's output over a fixed grid of commands.

Each command is one in-process ``blockdet.cli.main`` call.  The manifest
records, per command, its exit code, the sha256 of each line it writes to
stdout, the sha256 of what it writes to stderr (an error message) and of
each warning it raises, so that a change to any output byte shows as the
command it changed.  The grid:

* ``fuzz``, as ``search_violations`` and with ``--sharpness`` as
  ``sharpness_probe``, for every id, generator family and n in {2, 4, 6},
  at each entry bound the family takes: the integer families integer
  bounds, the others positive scales; thm3 and log_major also at p 1.5,
  cor_c1 also with ``--allow-hypothesis-violation``;
* every ``check`` and ``reproduce`` case of the benchmark's ``edge_check``
  corpus (``bench/corpus.py``), seeds 1-10;
* criterion 4's control-grid cells, as the benchmark's ``control_grid``
  calls ``search_violations``: every family at each of criterion 4's
  (n, r, m), thm1, cor_c0, thm2 and drury at 4 trials and thm3 at p 1,
  1.5, 2 and 3 at 1 trial, each command its own seed.

The hashes hold for the numpy and BLAS build they were recorded under,
which the manifest names.  Usage::

    PYTHONPATH=src python tests/manifest.py           # check the whole grid
    PYTHONPATH=src python tests/manifest.py --write   # record it anew
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

from blockdet.cli import main
from blockdet.search import FAMILIES, PREDICATE_IDS

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden_manifest.json"

SIZES = (2, 4, 6)
INTEGER_BOUNDS = (None, "1e154", "1e308", "0", "0:1")
SCALE_BOUNDS = (None, "1e-100", "1e154", "1e308")
INTEGER_FAMILIES = ("integer_uniform", "upper_triangular", "block_triangular")
# (id, extra flags): every id as it is, and the variants that change what it reads
VARIANTS = tuple((ineq_id, ()) for ineq_id in PREDICATE_IDS) + (
    ("thm3", ("--p", "1.5")), ("log_major", ("--p", "1.5")),
    ("cor_c1", ("--allow-hypothesis-violation",)))
TRIALS, SEED = "16", "1"
EDGE_SEEDS = tuple(range(1, 11))
# criterion 4's (n, r, m), and its mix of (id, extra flags, trials per search)
GRID_SIZES = ((4, 2, 2), (6, 3, 3), (8, 4, 4), (8, 2, 1), (5, 1, 4))
GRID_MIX = (("thm1", (), 4), ("cor_c0", (), 4), ("thm2", (), 4), ("drury", (), 4)) + tuple(
    ("thm3", ("--p", p), 1) for p in ("1", "1.5", "2", "3"))
_DIR = "$DIR"   # a corpus's matrix files are written to a fresh directory


def fuzz_commands(sizes=SIZES) -> list[tuple[str, list[str]]]:
    """(name, argv) of each ``fuzz`` command of the grid at the sizes ``sizes``."""
    commands = []
    for ineq_id, extra in VARIANTS:
        for family in FAMILIES:
            bounds = INTEGER_BOUNDS if family in INTEGER_FAMILIES else SCALE_BOUNDS
            for n in sizes:
                for bound in bounds:
                    for mode in ((), ("--sharpness",)):
                        argv = ["fuzz", "--predicate", ineq_id, "--family", family,
                                "--n", str(n)]
                        if bound is not None:
                            argv += ["--entry-bound", bound]
                        argv += ["--trials", TRIALS, "--seed", SEED, *extra, *mode,
                                 "--format", "structured"]
                        commands.append((" ".join(argv), argv))
    return commands


def grid_commands() -> list[tuple[str, list[str]]]:
    """(name, argv) of each ``fuzz`` command of criterion 4's control grid."""
    commands = []
    cells = [(family, size) for family in FAMILIES for size in GRID_SIZES]
    for c, (family, (n, r, m)) in enumerate(cells):
        for j, (ineq_id, extra, trials) in enumerate(GRID_MIX):
            argv = ["fuzz", "--predicate", ineq_id, "--family", family, "--n", str(n),
                    "--r", str(r), "--m", str(m), "--trials", str(trials),
                    "--seed", str(100 * c + j), *extra, "--format", "structured"]
            commands.append((" ".join(argv), argv))
    return commands


def _corpus():
    """``bench/corpus.py``, imported as the benchmark imports it."""
    bench = str(ROOT / "bench")
    if bench not in sys.path:
        sys.path.insert(0, bench)
    import corpus
    return corpus


def edge_entries(seeds=EDGE_SEEDS) -> dict[str, dict]:
    """The manifest entry of every ``edge_check`` case of the corpus seeds ``seeds``."""
    corpus = _corpus()
    entries = {}
    for seed in seeds:
        with tempfile.TemporaryDirectory() as workdir:
            for case in corpus.build(seed, Path(workdir)):
                argv = [arg.replace(workdir, _DIR) for arg in case.argv]
                name = f"edge_check seed {seed} {case.name}: {' '.join(argv)}"
                entries[name] = run(case.argv, workdir)
    return entries


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run(argv: list[str], workdir: str | None = None) -> dict:
    """One command's entry: its exit code and the sha256 of each stdout
    line, of its stderr and of each warning, with ``workdir`` written as
    ``$DIR``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(list(argv))
    entry: dict = {"exit": code}
    lines = out.getvalue().splitlines()
    if lines:
        entry["lines"] = [_sha(line) for line in lines]
    message = err.getvalue()
    if workdir is not None:
        message = message.replace(workdir, _DIR)
    if message:
        entry["error"] = _sha(message)
    if caught:
        entry["warnings"] = [_sha(f"{w.category.__name__}: {w.message}") for w in caught]
    return entry


def environment() -> dict:
    """The numpy version and BLAS build the hashes were taken under."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__,
            "blas": " ".join(str(blas.get(key, "")) for key in ("name", "version")),
            "blas_configuration": str(blas.get("openblas configuration", ""))}


def entries(sizes=SIZES, seeds=EDGE_SEEDS) -> dict[str, dict]:
    """The grid's entries, in grid order: the ``fuzz`` commands at ``sizes``,
    the corpus of the seeds ``seeds``, then the control-grid cells."""
    found = {name: run(argv) for name, argv in fuzz_commands(sizes)}
    found.update(edge_entries(seeds))
    found.update((name, run(argv)) for name, argv in grid_commands())
    return found


def recorded() -> dict:
    return json.loads(GOLDEN.read_text())


def differences(found: dict[str, dict], golden: dict) -> list[str]:
    """Each command of ``found`` whose entry is not the recorded one, in
    order, with what differs."""
    commands = golden["commands"]
    changed = []
    for name, entry in found.items():
        if name not in commands:
            changed.append(f"{name}: not in the manifest")
        elif entry != commands[name]:
            keys = sorted(k for k in set(entry) | set(commands[name])
                          if entry.get(k) != commands[name].get(k))
            changed.append(f"{name}: {', '.join(keys)} differ")
    return changed


def build_note(golden: dict) -> str:
    """Where the numpy or BLAS build differs from the recording's, a note
    saying so: it may explain a difference."""
    if golden["environment"] == environment():
        return ""
    return f"recorded under {golden['environment']}, running under {environment()}"


def write(found: dict[str, dict]) -> None:
    lines = [f"  {json.dumps(name)}: {json.dumps(entry, sort_keys=True)}"
             for name, entry in found.items()]
    GOLDEN.write_text("{\n" f'"environment": {json.dumps(environment(), sort_keys=True)},\n'
                      '"commands": {\n' + ",\n".join(lines) + "\n}}\n")


def cli(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true",
                        help="record the grid's output as the manifest")
    args = parser.parse_args(argv)
    found = entries()
    if args.write:
        write(found)
        print(f"wrote {len(found)} commands to {GOLDEN.relative_to(ROOT)}")
        return 0
    golden = recorded()
    changed = differences(found, golden)
    missing = [name for name in golden["commands"] if name not in found]
    for line in changed[:20] + [f"{name}: recorded, not run" for name in missing[:20]]:
        print(line)
    if changed or missing:
        print(f"{len(changed)} of {len(found)} commands differ, {len(missing)} not run")
        print(build_note(golden) or "under the recording's numpy and BLAS build")
        return 1
    print(f"all {len(found)} commands match {GOLDEN.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(cli())
