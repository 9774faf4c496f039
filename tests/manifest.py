"""A hashed manifest of blockdet's output over a fixed grid of commands.

Each command is one in-process ``blockdet.cli.main`` call.  The manifest
records, per command, its exit code, the sha256 of each line it writes to
stdout, the sha256 of what it writes to stderr (an error message) and of
each warning it raises, so that a change to any output byte shows as the
command it changed.  Beside the hashes, a structured command's entry
records what each line says in clear (``fields``): a ``check``'s verdict
and boolean findings, a ``fuzz``'s violation count and violated trials, a
``reproduce`` row's pass, and every margin, ``min_margin`` and
``min_positive_margin`` as the ``repr`` of its float.  The grid:

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
  1.5, 2 and 3 at 1 trial, each command its own seed;
* in text form, the default ``--format``: every ``edge_check`` case and
  control-grid cell again, with ``--format structured`` taken out, and
  ``reproduce all``.  Their entries hold only the exit code and hashes.

The hashes hold for the numpy and BLAS build they were recorded under,
which the manifest names.  Usage::

    PYTHONPATH=src python tests/manifest.py           # check the whole grid
    PYTHONPATH=src python tests/manifest.py --diff    # sort what differs
    PYTHONPATH=src python tests/manifest.py --write   # record it anew

``--diff`` sorts each differing command into "exit or verdict changed" and
"numbers only", giving for the latter the largest relative move of each
recorded number, and exits non-zero only on a verdict change.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
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
STRUCTURED = ("--format", "structured")
NUMBERS = ("margin", "min_margin", "min_positive_margin")   # recorded as repr strings


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
                                 *STRUCTURED]
                        commands.append((" ".join(argv), argv))
    return commands


def _text_form(argv) -> list[str]:
    """``argv`` with its ``--format structured`` taken out."""
    at = argv.index(STRUCTURED[0])
    return [*argv[:at], *argv[at + 2:]]


def grid_commands(text: bool = False) -> list[tuple[str, list[str]]]:
    """(name, argv) of each ``fuzz`` command of criterion 4's control grid,
    with ``text`` in text form."""
    commands = []
    cells = [(family, size) for family in FAMILIES for size in GRID_SIZES]
    for c, (family, (n, r, m)) in enumerate(cells):
        for j, (ineq_id, extra, trials) in enumerate(GRID_MIX):
            argv = ["fuzz", "--predicate", ineq_id, "--family", family, "--n", str(n),
                    "--r", str(r), "--m", str(m), "--trials", str(trials),
                    "--seed", str(100 * c + j), *extra, *STRUCTURED]
            if text:
                argv = _text_form(argv)
            commands.append((" ".join(argv), argv))
    return commands


def _corpus():
    """``bench/corpus.py``, imported as the benchmark imports it."""
    bench = str(ROOT / "bench")
    if bench not in sys.path:
        sys.path.insert(0, bench)
    import corpus
    return corpus


def edge_entries(seeds=EDGE_SEEDS, text: bool = False) -> dict[str, dict]:
    """The manifest entry of every ``edge_check`` case of the corpus seeds
    ``seeds``, with ``text`` in text form."""
    corpus = _corpus()
    entries = {}
    for seed in seeds:
        with tempfile.TemporaryDirectory() as workdir:
            for case in corpus.build(seed, Path(workdir)):
                argv = _text_form(case.argv) if text else list(case.argv)
                shown = [arg.replace(workdir, _DIR) for arg in argv]
                name = f"edge_check seed {seed} {case.name}: {' '.join(shown)}"
                entries[name] = run(argv, workdir)
    return entries


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _number(v) -> str | None:
    """A margin as the ``repr`` of its float (``"inf"`` for the JSON string
    ``"inf"``); ``None`` where there is none."""
    return None if v is None else repr(float(v))


def fields(doc: dict) -> dict:
    """What one structured line says in clear: a ``check``'s verdict, boolean
    findings and margin; a ``fuzz``'s violation count, violated trials and
    margins; a ``reproduce`` row's pass."""
    if "verdict" in doc:
        found = {"verdict": doc["verdict"],
                 "findings": {d["name"]: d["value"] for d in doc["diagnostics"]
                              if isinstance(d["value"], bool)}}
    elif "violations" in doc:
        found = {"violations": len(doc["violations"]),
                 "violated_trials": [v["trial_index"] for v in doc["violations"]]}
    else:
        return {"pass": doc["pass"]}
    found.update((key, _number(doc[key])) for key in NUMBERS if key in doc)
    return found


def run(argv: list[str], workdir: str | None = None) -> dict:
    """One command's entry: its exit code and the sha256 of each stdout
    line, of its stderr and of each warning, with ``workdir`` written as
    ``$DIR``; for a structured command, each line's :func:`fields`."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(list(argv))
    entry: dict = {"exit": code}
    lines = out.getvalue().splitlines()
    if lines:
        entry["lines"] = [_sha(line) for line in lines]
        if STRUCTURED[1] in argv:
            entry["fields"] = [fields(json.loads(line)) for line in lines]
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
    the corpus of the seeds ``seeds``, the control-grid cells, then the
    corpus and the cells in text form and ``reproduce all``."""
    found = {name: run(argv) for name, argv in fuzz_commands(sizes)}
    found.update(edge_entries(seeds))
    found.update((name, run(argv)) for name, argv in grid_commands())
    found.update(edge_entries(seeds, text=True))
    found.update((name, run(argv)) for name, argv in grid_commands(text=True))
    found["reproduce all"] = run(["reproduce", "all"])
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


def _verdicts(entry: dict) -> tuple:
    """An entry's exit code and its fields but the numbers."""
    return entry["exit"], [{k: v for k, v in line.items() if k not in NUMBERS}
                           for line in entry.get("fields", ())]


def _verdict_change(entry: dict, old: dict) -> str:
    """What moved between ``old``'s and ``entry``'s :func:`_verdicts`."""
    (new_exit, new_lines), (old_exit, old_lines) = _verdicts(entry), _verdicts(old)
    changes = [f"exit {old_exit} -> {new_exit}"] if new_exit != old_exit else []
    if len(new_lines) != len(old_lines):
        changes.append(f"{len(old_lines)} -> {len(new_lines)} lines of fields")
    for new_line, old_line in zip(new_lines, old_lines):
        changes += [f"{key} {old_line.get(key)!r} -> {new_line.get(key)!r}"
                    for key in sorted(set(new_line) | set(old_line))
                    if new_line.get(key) != old_line.get(key)]
    return ", ".join(changes)


def _move(new: str | None, old: str | None) -> float:
    """The relative move from the number ``old`` to ``new``: inf where either
    is missing or not finite and they differ, or where ``old`` is 0."""
    if new == old:
        return 0.0
    if new is None or old is None or not math.isfinite(float(new) - float(old)):
        return math.inf
    return abs(float(new) - float(old)) / abs(float(old)) if float(old) else math.inf


def moves(entry: dict, old: dict) -> dict[str, float]:
    """The largest relative move of each number from ``old`` to ``entry``,
    over their lines; both have the same lines of fields."""
    largest: dict[str, float] = {}
    for new_line, old_line in zip(entry.get("fields", ()), old.get("fields", ())):
        for key in NUMBERS:
            if key in old_line:
                move = _move(new_line[key], old_line[key])
                largest[key] = max(largest.get(key, 0.0), move)
    return largest


def classify(found: dict[str, dict], golden: dict) -> tuple[list[str], list[str]]:
    """Each command of ``found`` whose entry is not the recorded one, sorted:
    those whose exit code or a verdict field changed (with a command that is
    not recorded, or recorded and not run), and those whose numbers or bytes
    alone moved, each with the largest relative move of each number."""
    commands = golden["commands"]
    verdict, numbers = [], []
    for name, entry in found.items():
        old = commands.get(name)
        if old is None:
            verdict.append(f"{name}: not in the manifest")
        elif _verdicts(entry) != _verdicts(old):
            verdict.append(f"{name}: exit or verdict changed, {_verdict_change(entry, old)}")
        elif entry != old:
            moved = ", ".join(f"{key} {move:.3g}" for key, move in moves(entry, old).items()
                              if move) or "no recorded number moved"
            numbers.append(f"{name}: numbers only, {moved}")
    verdict += [f"{name}: recorded, not run" for name in commands if name not in found]
    return verdict, numbers


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
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--write", action="store_true",
                      help="record the grid's output as the manifest")
    mode.add_argument("--diff", action="store_true",
                      help="sort each differing command into a verdict or a numbers-only "
                           "change; exit 1 only on a verdict change")
    args = parser.parse_args(argv)
    found = entries()
    if args.diff:
        return diff(found, recorded())
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


def diff(found: dict[str, dict], golden: dict) -> int:
    """Print :func:`classify`'s two groups, the first 20 of each, and their
    counts; 1 if an exit code or a verdict changed."""
    verdict, numbers = classify(found, golden)
    for line in verdict[:20] + numbers[:20]:
        print(line)
    print(f"{len(verdict) + len(numbers)} of {len(found)} commands differ: "
          f"{len(verdict)} exit or verdict changed, {len(numbers)} numbers only")
    if verdict or numbers:
        print(build_note(golden) or "under the recording's numpy and BLAS build")
    return 1 if verdict else 0


if __name__ == "__main__":
    raise SystemExit(cli())
