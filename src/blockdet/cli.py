"""Command-line surface: check matrices from files, reproduce the published
counterexample numbers, and run seeded violation/sharpness fuzzing.

Exit codes
----------
check:      0 the inequality holds (strictly or with equality)
            1 violated
            2 precondition failed (including input matrices of the wrong shape)
            3 parse or usage error
reproduce:  0 every computed value matches its recorded value, 1 otherwise,
            3 unknown example id
fuzz:       0 expected outcome (control predicate with zero violations, or a
              refutable predicate with at least one), 1 unexpected outcome,
            3 usage error

Structured output is newline-delimited JSON, one object per line, and is
byte-identical across reruns with the same inputs and seed.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import math
import sys
from pathlib import Path

from .checks import CheckReport, Verdict
from .linalg import DEFAULT_TOL, LinalgError, Tolerances, matrix_from_json_dict
from .search import (
    DEFAULT_P,
    FAMILIES,
    INEQUALITIES,
    PAPER_EXAMPLE_IDS,
    GeneratorSpec,
    SearchReport,
    Witness,
    compare_paper_example,
    search_violations,
    sharpness_probe,
)

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_UNEXPECTED = 1
EXIT_PRECONDITION = 2
EXIT_USAGE = 3

class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on errors; the contract here is 3."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _tolerances(args) -> Tolerances:
    """The tolerances of ``--tol-eq``, which every command reads first."""
    if args.tol_eq is None:
        return DEFAULT_TOL
    try:
        return Tolerances(eq_rel=args.tol_eq)
    except ValueError:
        need = "finite" if args.tol_eq == math.inf else "positive"
        raise _UsageError(f"--tol-eq must be {need}, got {args.tol_eq}")


def _write(lines: list[str], out: str | None) -> None:
    """Write a command's lines to ``out``, or to stdout without one; a path
    that cannot be written is a usage error, as an input that cannot be
    read is."""
    payload = "\n".join(lines) + ("\n" if lines else "")
    if not out:
        sys.stdout.write(payload)
        return
    path = Path(out)
    try:
        path.write_text(payload)
    except OSError as err:
        raise _UsageError(f"cannot write {path}: {err}")


class _UsageError(Exception):
    pass


def _parse_entry_bound(text: str | None):
    if text is None:
        return None
    if ":" in text:
        lo, hi = text.split(":", 1)
        try:
            return (int(lo), int(hi))
        except ValueError:
            raise _UsageError(f"bad --entry-bound {text!r}: expected LO:HI integers")
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        raise _UsageError(f"bad --entry-bound {text!r}")


# each flag that only some ids take, and the parameter it sets
_ID_FLAGS = (("--p", "p"), ("--allow-hypothesis-violation", "allow_hypothesis_violation"),
             ("--r", "r"))


def _takers(key: str) -> list[str]:
    """The ids that take the parameter ``key``, in registry order."""
    return [ineq.id for ineq in INEQUALITIES.values() if key in ineq.params]


def _require_flags(ineq, p: float | None, allow_hypothesis_violation: bool,
                   r: int | None = None) -> None:
    """Refuse a ``--p`` below 1 or not finite, then a flag the id does not
    take (``r``: ``check``'s ``--r``); ``ineq`` None is an unknown id."""
    if p is not None and not 1.0 <= p < math.inf:   # NaN compares false
        raise _UsageError(f"--p must be >= 1, got {p}")
    if ineq is None:
        return
    given = (p is not None, allow_hypothesis_violation, r is not None)
    for (flag, key), flag_given in zip(_ID_FLAGS, given):
        if flag_given and key not in ineq.params:
            raise _UsageError(f"{ineq.id} takes no {flag}; only {', '.join(_takers(key))} do")


def _load_matrix_file(path: str):
    """One matrix document: the file read whole in one unbuffered read,
    parsed, then checked and converted in one pass by
    :func:`matrix_from_json_dict`.  ``path`` is opened as given, as ``open``
    opens it: an empty path is no file, and ``m.json/`` is not the file
    ``m.json``."""
    try:
        with io.FileIO(path) as file:
            data = file.readall()
    except OSError as err:
        raise _UsageError(f"cannot read {path}: {err}")
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as err:
        raise _UsageError(f"{path}: invalid JSON at line {err.lineno}, "
                          f"column {err.colno}: {err.msg}")
    except ValueError as err:   # undecodable bytes, or an integer literal past str's limit
        raise _UsageError(f"{path}: invalid JSON: {err}")
    try:
        return matrix_from_json_dict(doc)
    except LinalgError as err:
        raise _UsageError(f"{path}: {err}")


# json.dumps(doc, separators=(", ", ": "), allow_nan=False) builds its encoder anew
# on every call; the documents are trees of fresh dicts and lists, never circular
_ENCODER = json.JSONEncoder(separators=(", ", ": "), allow_nan=False, check_circular=False)


def _json_line(doc: dict) -> str:
    """One structured output line: ``doc`` as JSON with no NaN or infinity,
    byte for byte what ``json.dumps`` with these separators writes."""
    return _ENCODER.encode(doc)


def _format_sld(s) -> str:
    if s.is_zero:
        return "0 (flagged zero)"
    value = s.value
    mag = f"exp({s.log_magnitude:.6f})"
    if abs(value) < 1e16:
        return f"{value.real:.6g}{value.imag:+.3g}i ({mag})" if abs(value.imag) > 1e-9 * abs(
            value) else f"{value.real:.6g} ({mag})"
    return f"phase ({s.phase.real:.6f}{s.phase.imag:+.6f}i) * {mag}"


def _check_lines(report: CheckReport, output_format: str) -> list[str]:
    if output_format == "structured":
        return [_json_line(report.to_json_dict())]
    return [f"inequality: {report.inequality_id}",
            f"verdict:    {report.verdict.value}",
            f"margin:     {report.margin:.6e}",
            f"lhs:        {_format_sld(report.lhs)}",
            f"rhs:        {_format_sld(report.rhs)}",
            *(f"  {finding.name}: {finding.value}" for finding in report.diagnostics)]


_CHECK_EXIT = {
    Verdict.HOLDS_STRICT: EXIT_OK,
    Verdict.EQUALITY: EXIT_OK,
    Verdict.VIOLATED: EXIT_VIOLATED,
    Verdict.PRECONDITION_FAILED: EXIT_PRECONDITION,
}


def cmd_check(args) -> int:
    tol = _tolerances(args)
    ineq = INEQUALITIES.get(args.ineq)
    if ineq is None:
        raise _UsageError(f"unknown inequality {args.ineq!r}, "
                          f"expected one of {', '.join(INEQUALITIES)}")
    lo, hi = ineq.files
    if len(args.files) < lo or (hi is not None and len(args.files) > hi):
        expected = f"exactly {lo}" if lo == hi else (f"at least {lo}" if hi is None
                                                     else f"between {lo} and {hi}")
        raise _UsageError(f"{ineq.id} needs {expected} matrix file(s), got {len(args.files)}")
    matrices = tuple(_load_matrix_file(f) for f in args.files)
    if "r" in ineq.params and args.r is None:
        raise _UsageError(f"{ineq.id} needs --r (top-left block dimension)")
    _require_flags(ineq, args.p, args.allow_hypothesis_violation, args.r)
    params = ineq.call_params(args.r, args.p, args.allow_hypothesis_violation)
    witness = Witness(ineq.id, 0, 0, params, matrices)
    try:
        report = ineq.check(witness, tol)
        lines = _check_lines(report, args.format)
    except LinalgError as err:
        print(f"precondition failed: {err}", file=sys.stderr)
        return EXIT_PRECONDITION
    except ValueError as err:
        raise _UsageError(str(err))
    _write(lines, args.out)
    return _CHECK_EXIT[report.verdict]


def cmd_reproduce(args) -> int:
    tol = _tolerances(args)
    ids = PAPER_EXAMPLE_IDS if args.example == "all" else (args.example,)
    for example_id in ids:
        if example_id not in PAPER_EXAMPLE_IDS:
            raise _UsageError(f"unknown example {example_id!r}, "
                              f"expected one of {', '.join(PAPER_EXAMPLE_IDS)} or all")
    all_pass = True
    rows = []
    for example_id in ids:
        rows.extend(compare_paper_example(example_id, tol))
    lines = []
    for row in rows:
        all_pass = all_pass and row["pass"]
        if args.format == "structured":
            lines.append(_json_line(row))
        else:
            computed = row["computed"]
            shown = computed if isinstance(computed, str) else f"{computed:.6g}"
            lines.append(
                f"{row['example']:>15}  {row['quantity']:<12} computed {shown:>12}  "
                f"recorded {row['recorded']!s:>8}  ({row['tolerance']})  "
                f"{'pass' if row['pass'] else 'FAIL'}"
            )
    if args.format != "structured":
        lines.append(f"overall: {'pass' if all_pass else 'FAIL'}")
    _write(lines, args.out)
    return EXIT_OK if all_pass else EXIT_UNEXPECTED


def _search_lines(report: SearchReport, output_format: str) -> list[str]:
    if output_format == "structured":
        return [_json_line(report.to_json_dict())]
    lines = [f"predicate:  {report.predicate_id}",
             f"spec:       {report.spec.to_json_dict()}",
             f"trials:     {report.trials}",
             f"violations: {report.violation_count}"]
    if report.min_margin is not None:
        lines.append(f"min margin: {report.min_margin:.6e} (trial {report.min_margin_trial})")
    if report.min_positive_margin is not None:
        lines.append(f"min positive margin: {report.min_positive_margin:.6e} "
                     f"(trial {report.min_positive_margin_trial})")
    for v in report.violations[:10]:
        lines.append(f"  violated at trial {v.trial_index}: margin {v.report.margin:.6e}")
    if report.violation_count > 10:
        lines.append(f"  ... and {report.violation_count - 10} more")
    return lines


def cmd_fuzz(args) -> int:
    tol = _tolerances(args)
    if args.trials < 1:
        raise _UsageError(f"--trials must be >= 1, got {args.trials}")
    try:
        spec = GeneratorSpec(
            family=args.family,
            n=args.n,
            r=args.r if args.r is not None else max(1, args.n // 2),
            m=args.m,
            entry_bound=_parse_entry_bound(args.entry_bound),
            seed=args.seed,
        )
    except ValueError as err:
        raise _UsageError(str(err))
    _require_flags(INEQUALITIES.get(args.predicate), args.p, args.allow_hypothesis_violation)
    params: dict = {} if args.p is None else {"p": args.p}
    if args.allow_hypothesis_violation:
        params["allow_hypothesis_violation"] = True
    runner = sharpness_probe if args.sharpness else search_violations
    kwargs = {} if args.sharpness else {"stop_on_first": args.stop_on_first}
    try:
        report = runner(spec, args.predicate, args.trials, tol, params=params, **kwargs)
    except (LinalgError, ValueError) as err:
        raise _UsageError(str(err))
    _write(_search_lines(report, args.format), args.out)
    if args.sharpness:
        return EXIT_OK
    violation_expected = INEQUALITIES[args.predicate].expects_violation(report.params)
    expected = report.violation_count >= 1 if violation_expected else report.violation_count == 0
    return EXIT_OK if expected else EXIT_UNEXPECTED


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tol-eq", type=float, default=None,
                        help="override the relative log-domain equality window (default 1e-8)")
    parser.add_argument("--out", default=None, help="write output to this path instead of stdout")
    parser.add_argument("--format", choices=("human", "structured"), default="human",
                        help="human-readable text or newline-delimited JSON")


def build_parser() -> _Parser:
    parser = _Parser(prog="blockdet",
                     description="determinantal inequality checks for block triangular matrices")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    parser.commands = sub.choices   # name -> command parser, filled in below
    p_takers = "/".join(_takers("p"))

    p_check = sub.add_parser("check",
                             help="evaluate one inequality on matrices from JSON files")
    p_check.add_argument("files", nargs="+", metavar="FILE",
                         help="matrix documents: {rows, cols, entries: [[re, im], ...]}")
    p_check.add_argument("--ineq", required=True, help="inequality id")
    p_check.add_argument("--r", type=int, default=None, help="top-left block dimension")
    p_check.add_argument("--p", type=float, default=None,
                         help=f"exponent for {p_takers} (default {DEFAULT_P:g})")
    p_check.add_argument("--allow-hypothesis-violation", action="store_true",
                         help=f"let {'/'.join(_takers('allow_hypothesis_violation'))} report "
                              f"a margin verdict even without normal blocks")
    _add_common(p_check)
    p_check.set_defaults(func=cmd_check)

    p_rep = sub.add_parser("reproduce",
                           help="recompute the published counterexample values")
    p_rep.add_argument("example", help=" | ".join(PAPER_EXAMPLE_IDS + ("all",)))
    _add_common(p_rep)
    p_rep.set_defaults(func=cmd_reproduce)

    p_fuzz = sub.add_parser("fuzz",
                            help="seeded random search against one predicate")
    p_fuzz.add_argument("--predicate", required=True, help="predicate id")
    p_fuzz.add_argument("--trials", type=int, default=1000)
    p_fuzz.add_argument("--seed", type=int, default=0)
    p_fuzz.add_argument("--n", type=int, default=4, help="matrix dimension")
    p_fuzz.add_argument("--r", type=int, default=None,
                        help="top-left block dimension (default n // 2)")
    p_fuzz.add_argument("--m", type=int, default=2, help="family size")
    p_fuzz.add_argument("--family", default="integer_uniform",
                        help="generator family (" + ", ".join(FAMILIES) + ")")
    p_fuzz.add_argument("--entry-bound", default=None,
                        help="integer bound B, range LO:HI, or scale for continuous families")
    p_fuzz.add_argument("--p", type=float, default=None, help=f"exponent for {p_takers}")
    p_fuzz.add_argument("--allow-hypothesis-violation", action="store_true")
    mode = p_fuzz.add_mutually_exclusive_group()   # a probe has no first violation
    mode.add_argument("--sharpness", action="store_true",
                      help="probe minimum positive margins instead of hunting violations")
    mode.add_argument("--stop-on-first", action="store_true",
                      help="stop at the first violation")
    _add_common(p_fuzz)
    p_fuzz.set_defaults(func=cmd_fuzz)
    return parser


@functools.cache
def _shared_parser() -> _Parser:
    """The parser every :func:`main` call uses; parsing leaves it unchanged."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    """Run one command; repeated calls in one process share one parser.

    An ``argv`` that starts with a command name goes straight to that
    command's parser, as the top-level parser would hand it on; arguments
    that parser does not know are reported by the top-level parser, as
    argparse does.  Every other ``argv`` (none, ``-h``, an unknown command)
    goes through the top-level parser.
    """
    if argv is None:
        argv = sys.argv[1:]
    parser = _shared_parser()
    try:
        command = parser.commands.get(argv[0]) if argv else None
        if command is None:
            args = parser.parse_args(argv)
        else:
            args, unknown = command.parse_known_args(argv[1:])
            if unknown:
                parser.error(f"unrecognized arguments: {' '.join(unknown)}")
        return args.func(args)
    except _UsageError as err:
        print(f"blockdet: error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as err:
        return err.code if isinstance(err.code, int) else EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
