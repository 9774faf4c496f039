"""Command-line behavior: exit codes, formats, determinism."""

import json
import math
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from reference import main_through_top_level_parser
from blockdet import cli, search
from blockdet.checks import CheckReport, Verdict, _Sides, _report
from blockdet.cli import main
from blockdet.linalg import SignedLogDet, Tolerances, matrix_to_json_dict
from blockdet.search import _EXAMPLE1_T1, _EXAMPLE1_T2, INEQUALITIES, GeneratorSpec


def _write_matrix(path, rows):
    a = np.asarray(rows, dtype=complex)
    path.write_text(json.dumps(matrix_to_json_dict(a)))
    return str(path)


@pytest.fixture
def diag_file(tmp_path):
    return _write_matrix(tmp_path / "diag.json", [[1, 0], [0, 2]])


def test_check_drury_diagonal_exit_zero(diag_file, capsys):
    assert main(["check", diag_file, "--ineq", "drury"]) == 0
    assert "equality" in capsys.readouterr().out


def test_check_structured_output_is_a_report(diag_file, capsys):
    assert main(["check", diag_file, "--ineq", "drury", "--format", "structured"]) == 0
    line = capsys.readouterr().out.strip()
    report = CheckReport.from_json_dict(json.loads(line))
    assert report.inequality_id == "drury"
    assert report.verdict is Verdict.EQUALITY


def test_check_cor_c1_paper_pair_exits_one(tmp_path):
    f1 = _write_matrix(tmp_path / "t1.json", _EXAMPLE1_T1)
    f2 = _write_matrix(tmp_path / "t2.json", _EXAMPLE1_T2)
    code = main(["check", f1, f2, "--ineq", "cor_c1", "--r", "2",
                 "--allow-hypothesis-violation"])
    assert code == 1
    # without the flag the hypothesis gate fires instead
    assert main(["check", f1, f2, "--ineq", "cor_c1", "--r", "2"]) == 2


def test_check_fischer_non_psd_exits_two(tmp_path):
    f = _write_matrix(tmp_path / "npsd.json", [[1, 2], [2, 1]])
    assert main(["check", f, "--ineq", "fischer", "--r", "1"]) == 2


def test_check_nonzero_corner_is_precondition_failure(tmp_path, capsys):
    f = _write_matrix(tmp_path / "full.json", [[1, 2], [3, 4]])
    assert main(["check", f, "--ineq", "cor_c0", "--r", "1"]) == 2
    assert "exactly zero" in capsys.readouterr().err


def test_check_malformed_file_exits_three(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["check", str(bad), "--ineq", "drury"]) == 3
    err = capsys.readouterr().err
    assert "line 1" in err
    missing = tmp_path / "missing-keys.json"
    missing.write_text(json.dumps({"rows": 1, "cols": 1}))
    assert main(["check", str(missing), "--ineq", "drury"]) == 3


def _load_error(capsys, path) -> str:
    """The error line of a check whose one matrix file cannot be loaded."""
    assert main(["check", str(path), "--ineq", "drury"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    return captured.err


def test_a_file_that_cannot_be_read_is_a_usage_error_naming_the_os_error(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert _load_error(capsys, missing) == (
        f"blockdet: error: cannot read {missing}: "
        f"[Errno 2] No such file or directory: '{missing}'\n")
    assert _load_error(capsys, tmp_path) == (
        f"blockdet: error: cannot read {tmp_path}: [Errno 21] Is a directory: '{tmp_path}'\n")
    # the path as given, as open and cat take it: no file is named '', and m.json/ is
    # not m.json (pathlib read '' as the directory '.', and m.json/ as the file)
    assert _load_error(capsys, "") == (
        "blockdet: error: cannot read : [Errno 2] No such file or directory: ''\n")
    real = _write_matrix(tmp_path / "m.json", [[1, 0], [0, 2]])
    assert _load_error(capsys, real + "/") == (
        f"blockdet: error: cannot read {real}/: [Errno 20] Not a directory: '{real}/'\n")


@pytest.mark.parametrize("content, message", [
    (b'{"rows": \xff}',
     "invalid JSON: 'utf-8' codec can't decode byte 0xff in position 9: invalid start byte"),
    (b'{not json', "invalid JSON at line 1, column 2: "
                   "Expecting property name enclosed in double quotes"),
    (b'{\n  "rows": 1,\n  "cols": 1\n  "entries": []}',
     "invalid JSON at line 4, column 3: Expecting ',' delimiter"),
    (b'[[1, 0]]', "matrix document must be an object, got list"),
    (b'{"rows": 1, "cols": 1, "entries": [[true, 0]]}',
     "entry 0: expected a [re, im] pair of reals, got [True, 0]"),
    (b'{"rows": 2, "cols": 2, "entries": [[1, 0], [0, 0], [2, 0]]}', "expected 4 entries, got 3"),
    # a JSON true is an int to isinstance
    (b'{"rows": true, "cols": true, "entries": [[2, 0]]}',
     "rows and cols must be positive integers, got True, True"),
])
def test_a_file_that_is_not_a_matrix_document_is_a_usage_error_naming_why(content, message,
                                                                          tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_bytes(content)
    assert _load_error(capsys, path) == f"blockdet: error: {path}: {message}\n"


def test_a_matrix_file_loads_the_bits_it_was_written_from(tmp_path):
    tiny = np.nextafter(0.0, 1.0)   # the smallest subnormal
    parts = [0.0, -0.0, tiny, -tiny, 2.2e-308, -1e-310, 1e308, -1e308, np.finfo(float).max,
             1.0 / 3.0, -math.pi]
    a = (np.array(parts) + 1j * np.array(parts[::-1])).reshape(1, -1)
    rng = np.random.default_rng(5)
    for matrix in (a, a.reshape(-1, 1), rng.standard_normal((4, 3)) * 10.0 ** rng.integers(
            -300, 300, (4, 3)) + 1j * rng.standard_normal((4, 3))):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(matrix_to_json_dict(matrix)))
        loaded = cli._load_matrix_file(str(path))
        assert loaded.shape == matrix.shape
        assert loaded.dtype == complex
        assert np.array_equal(loaded.view(np.uint64), matrix.view(np.uint64))


def test_check_usage_errors_exit_three(diag_file):
    assert main(["check", diag_file, "--ineq", "nosuch"]) == 3
    assert main(["check", diag_file, "--ineq", "cor_c0"]) == 3  # missing --r
    assert main(["check", diag_file, "--ineq", "thm3", "--r", "1", "--p", "0.5"]) == 3
    assert main(["check", diag_file, diag_file, "--ineq", "drury"]) == 3  # too many files
    assert main(["check", diag_file, "--ineq", "drury", "--tol-eq", "-1"]) == 3


def test_tol_eq_must_be_positive(diag_file, capsys):
    for bad in ("0", "-1e-8", "nan"):
        assert main(["check", diag_file, "--ineq", "drury", f"--tol-eq={bad}"]) == 3
        assert capsys.readouterr().err == (
            f"blockdet: error: --tol-eq must be positive, got {float(bad)}\n")
    # an infinite window read both published counterexamples as equality
    for argv in (["check", diag_file, "--ineq", "drury"], ["reproduce", "all"],
                 ["fuzz", "--predicate", "e21", "--trials", "2"]):
        assert main(argv + ["--tol-eq=inf"]) == 3
        assert capsys.readouterr().err == "blockdet: error: --tol-eq must be finite, got inf\n"


# ids whose equality case is structural: the window alone never makes them equal
_STRUCTURAL_IDS = {"cor_c0", "lemma1", "thm2", "drury", "thm3"}


@pytest.mark.parametrize("ineq_id", list(INEQUALITIES))
def test_tol_eq_reaches_every_checker(ineq_id, tmp_path, capsys):
    ineq = INEQUALITIES[ineq_id]
    params = ineq.call_params(2, allow_hypothesis_violation=True)
    spec = GeneratorSpec(family="gaussian", n=4, r=2, m=2, seed=11)
    witness = ineq.draw_trials(spec, range(1, 2), params)[0].witness(0)
    files = [_write_matrix(tmp_path / f"m{k}.json", m) for k, m in enumerate(witness.matrices)]
    argv = ["check", *files, "--ineq", ineq_id, "--format", "structured"]
    if "r" in ineq.params:
        argv += ["--r", "2"]
    if "allow_hypothesis_violation" in ineq.params:
        argv.append("--allow-hypothesis-violation")

    def check(eq_rel):
        report = ineq.check(witness, Tolerances(eq_rel=eq_rel))
        code = main(argv + ["--tol-eq", repr(float(eq_rel))])
        out = capsys.readouterr()
        assert code in (0, 1), (code, out.err, argv)
        assert CheckReport.from_json_dict(json.loads(out.out)) == report
        return report

    default = ineq.check(witness)
    # the window is eq_rel * max(1, |log lhs|); djokovic's applies to the determinant's value,
    # and schur_identity's must also cover its phase rounding, which is compared to eq_rel
    anchor = max(1.0, abs(default.lhs.log_magnitude))
    reach = abs(default.lhs.value.real) if ineq_id == "djokovic" else abs(default.margin)
    if ineq_id == "schur_identity":
        reach = max(reach, default.finding("phase_distance") * anchor)
    just_inside = 2.0 * reach / anchor
    wide = check(just_inside if reach > 0.0 else 1e-8)
    if ineq_id in _STRUCTURAL_IDS:
        assert wide.verdict is Verdict.HOLDS_STRICT
        assert wide.finding("margin_within_equality_band") is True
    else:
        assert wide.verdict is Verdict.EQUALITY
    if default.verdict in (Verdict.HOLDS_STRICT, Verdict.VIOLATED):
        assert check(just_inside / 4.0) == default
    else:   # schur_identity, an identity: a window below its phase rounding breaks it
        assert ineq_id == "schur_identity"
        assert check(default.finding("phase_distance") / 2.0).verdict is Verdict.VIOLATED


def test_usage_messages_name_what_is_wrong(diag_file, capsys):
    cases = [
        (["check", diag_file, "--ineq", "nosuch"],
         "unknown inequality 'nosuch', expected one of fischer, thm1, cor_c0, cor_c1, lemma1, "
         "djokovic, thm2, drury, thm3, weyl, log_major, schur_identity, e21"),
        (["check", diag_file, diag_file, "--ineq", "drury"],
         "drury needs exactly 1 matrix file(s), got 2"),
        (["check", diag_file, "--ineq", "e21", "--r", "1"],
         "e21 needs exactly 2 matrix file(s), got 1"),
        (["check", diag_file, "--ineq", "cor_c0"], "cor_c0 needs --r (top-left block dimension)"),
        (["check", diag_file, "--ineq", "thm3", "--r", "1", "--p", "0.5"],
         "--p must be >= 1, got 0.5"),
        (["check", diag_file, "--ineq", "log_major", "--p", "0.5"], "--p must be >= 1, got 0.5"),
        (["fuzz", "--predicate", "nosuch"],
         "unknown predicate 'nosuch', expected one of fischer, thm1, cor_c0, cor_c1, lemma1, "
         "djokovic, thm2, drury, thm3, weyl, log_major, schur_identity, e21"),
        (["fuzz", "--predicate", "thm1", "--family", "nosuch"],
         "unknown family 'nosuch', expected one of integer_uniform, gaussian, symmetric, "
         "normal_via_unitary_conjugation, upper_triangular, block_triangular"),
    ]
    for argv, message in cases:
        assert main(argv) == 3
        assert capsys.readouterr().err == f"blockdet: error: {message}\n"


def test_main_builds_the_parser_once(monkeypatch, diag_file, capsys):
    builds = []

    def counting_build():
        builds.append(1)
        return real_build()

    real_build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", counting_build)
    cli._shared_parser.cache_clear()
    try:
        for _ in range(3):
            assert main(["check", diag_file, "--ineq", "drury"]) == 0
        assert main(["reproduce", "nosuch"]) == 3
        assert main(["check", diag_file]) == 3
    finally:
        cli._shared_parser.cache_clear()
    assert len(builds) == 1


@pytest.mark.parametrize("argv", [
    [], ["-h"], ["nosuch"], ["--format", "structured"],
    ["check", "-h"], ["check", "--ineq", "drury"], ["fuzz", "--trials", "x"], ["reproduce"],
    ["check", "FILE", "--ineq", "drury", "--bogus", "1"],   # reported by the top-level parser
    ["check", "FILE", "--ineq", "drury", "--format", "structured"],
    ["reproduce", "example3"],
])
def test_main_answers_as_the_top_level_parser(argv, diag_file, capsys):
    argv = [diag_file if a == "FILE" else a for a in argv]
    code = main(argv)
    direct = code, *capsys.readouterr()
    code = main_through_top_level_parser(argv)
    assert direct == (code, *capsys.readouterr())


def test_main_without_argv_reads_sys_argv(monkeypatch, diag_file, capsys):
    monkeypatch.setattr(sys, "argv", ["blockdet", "check", diag_file, "--ineq", "drury"])
    assert main() == 0
    assert "equality" in capsys.readouterr().out
    monkeypatch.setattr(sys, "argv", ["blockdet", "nosuch"])
    assert main() == 3


def test_check_entry_past_the_double_range_exits_three(tmp_path, capsys):
    # an integer literal of 401 digits: json reads it as an int no double holds
    f = tmp_path / "big.json"
    f.write_text('{"rows": 1, "cols": 1, "entries": [[1' + "0" * 400 + ', 0]]}')
    assert main(["check", str(f), "--ineq", "weyl"]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"blockdet: error: {f}: entry 0: non-finite component [1000")
    longer = tmp_path / "longer.json"   # past str's digit limit, which json.loads enforces
    longer.write_text('{"rows": 1, "cols": 1, "entries": [[1' + "0" * 5000 + ', 0]]}')
    assert main(["check", str(longer), "--ineq", "weyl"]) == 3
    assert capsys.readouterr().err.startswith(f"blockdet: error: {longer}: invalid JSON: ")


def test_calls_in_one_process_answer_as_when_run_alone(diag_file, capsys):
    calls = [
        (["check", diag_file, "--ineq", "nosuch"], 3),        # usage error
        (["check", diag_file], 3),                            # argparse: no --ineq
        (["check", diag_file, "--ineq", "drury", "--format", "structured"], 0),
        (["reproduce", "all", "--format", "structured"], 0),
        (["fuzz", "--predicate", "cor_c1", "--trials", "5", "--seed", "3",
          "--allow-hypothesis-violation", "--format", "structured"], 0),
    ]

    def run(argv):
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    alone = []
    for argv, _ in calls:
        cli._shared_parser.cache_clear()
        alone.append(run(argv))
    cli._shared_parser.cache_clear()
    together = [run(argv) for argv, _ in calls]
    assert together == alone
    assert [code for code, _, _ in alone] == [code for _, code in calls]


def test_reproduce_all_passes(capsys):
    assert main(["reproduce", "all"]) == 0
    out = capsys.readouterr().out
    assert "example1" in out and "remark_minus12" in out and "example3" in out
    assert "FAIL" not in out


def test_reproduce_structured_rows(capsys):
    assert main(["reproduce", "remark_minus12", "--format", "structured"]) == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert rows[0]["quantity"] == "det_xbar_x"
    assert rows[0]["pass"] is True


def test_reproduce_unknown_exits_three():
    assert main(["reproduce", "nosuch"]) == 3


def test_fuzz_control_predicate_exit_zero(capsys):
    code = main(["fuzz", "--predicate", "thm1", "--trials", "60", "--seed", "42",
                 "--n", "4", "--r", "2", "--m", "2"])
    assert code == 0
    assert "violations: 0" in capsys.readouterr().out


def test_fuzz_refutable_predicate_expects_violation(capsys):
    code = main(["fuzz", "--predicate", "e21", "--trials", "5", "--seed", "42"])
    assert code == 0
    assert "violated at trial 0" in capsys.readouterr().out


@pytest.mark.parametrize("predicate", ["djokovic", "lemma1"])
def test_fuzz_past_dbl_max_entry_moduli_reads_no_false_verdict(predicate, tmp_path):
    # seed 5 draws entries whose parts are near 1.3e308, so that an entry's modulus
    # overflows; det(I + conj(X) X) is near e^2836, far from zero
    out = tmp_path / "fuzz.ndjson"
    code = main(["fuzz", "--predicate", predicate, "--family", "gaussian", "--entry-bound",
                 "1e308", "--trials", "2", "--n", "2", "--r", "1", "--m", "1", "--seed", "5",
                 "--format", "structured", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["violations"] == []
    if predicate == "djokovic":
        assert report["min_margin"] > 2800.0


def _fuzz_near_dbl_max(predicate, m, seed, tmp_path, n=2, r=1, trials=2) -> dict:
    out = tmp_path / "fuzz.ndjson"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["fuzz", "--predicate", predicate, "--family", "gaussian", "--entry-bound",
                     "1e308", "--trials", str(trials), "--n", str(n), "--r", str(r),
                     "--m", str(m), "--seed", str(seed), "--format", "structured",
                     "--out", str(out)])
    assert code == 0
    report = _strict_json(out.read_text())
    assert report["trials"] == trials
    return report


def _strict_json(text: str):
    """``text`` parsed as JSON proper: NaN, Infinity and -Infinity are refused."""
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("predicate, m, seed", [
    ("schur_identity", 1, 4),   # LAPACK's solve of the unscaled leading block returned 0
    ("schur_identity", 1, 5),   # a21 a11^-1 a12 past DBL_MAX: the search aborted
    ("cor_c1", 1, 5),           # sigma_max of [T] read inf, and the rank floor with it
    ("thm1", 2, 24),            # the same, on both sides: inf - inf
    ("weyl", 1, 4),             # sigma_max and |lambda_max| read inf: inf - inf, margin 0
])
def test_fuzz_near_dbl_max_reads_no_false_violation(predicate, m, seed, tmp_path):
    # every draw is finite, with entries near 1e308; each claim holds (cor_c1 at one
    # member and schur_identity are identities)
    report = _fuzz_near_dbl_max(predicate, m, seed, tmp_path)
    assert report["violations"] == []
    assert math.isfinite(report["min_margin"]) and report["min_margin"] > -1e-12
    if predicate == "weyl":   # trial 0's strict-prefix gap is 0.307 (a 50-digit mpmath check)
        assert report["min_margin"] > 0.1


@pytest.mark.parametrize("predicate, n, r, seed, trials", [
    ("cor_c0", 4, 2, 1, 2),      # both sides read inf: inf - inf in the batched evaluator
    ("log_major", 2, 1, 10, 1),  # s * sqrt|lambda| overflowed (trial 1's draw overflows)
])
def test_fuzz_past_dbl_max_runs_clean_with_finite_margins(predicate, n, r, seed, trials,
                                                          tmp_path):
    report = _fuzz_near_dbl_max(predicate, 1, seed, tmp_path, n=n, r=r, trials=trials)
    assert report["violations"] == []
    assert math.isfinite(report["min_margin"]) and abs(report["min_margin"]) < 1e-9


# T = [[X, Y], [0, Z]] with X = 1.3e308 (1 + i): its modulus is past DBL_MAX, and LAPACK's
# SVD returned NaN without a warning; the reports read "margin": NaN, which is not JSON
_PAST_DBL_MAX_UPPER = [[1.3e308, 1.3e308], [1, 0], [0, 0], [3, 0]]
_PAST_DBL_MAX_DENSE = [[1.3e308, 1.3e308], [1, 0], [2, 0], [3, 0]]


@pytest.mark.parametrize("ineq_id, entries, verdict", [
    ("thm1", _PAST_DBL_MAX_UPPER, "equality"),    # one member: an identity
    ("cor_c0", _PAST_DBL_MAX_UPPER, "equality"),  # ||Y|| is below the gate against ||T||
    ("cor_c1", _PAST_DBL_MAX_UPPER, "equality"),  # both sides flagged at the T stack's floor
    ("thm2", _PAST_DBL_MAX_UPPER, "equality"),
    ("thm3", _PAST_DBL_MAX_UPPER, "equality"),
    ("drury", _PAST_DBL_MAX_UPPER, "equality"),
    ("lemma1", _PAST_DBL_MAX_DENSE, "equality"),  # ||X - X^T|| is below the gate
])
def test_structured_check_past_dbl_max_is_json_with_no_nan(ineq_id, entries, verdict,
                                                          tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"rows": 2, "cols": 2, "entries": entries}))
    argv = ["check", str(path), "--ineq", ineq_id, "--format", "structured"]
    assert main(argv + (["--r", "1"] if "r" in INEQUALITIES[ineq_id].params else [])) == 0
    report = _strict_json(capsys.readouterr().out)
    sides = [report[side] for side in ("lhs", "rhs")]
    assert all(math.isfinite(side["log_magnitude"]) for side in sides)
    if not any(side["is_zero"] for side in sides):
        assert math.isfinite(report["margin"])
    assert report["verdict"] == verdict


def test_check_a_nan_side_exits_two(monkeypatch, diag_file, capsys):
    def nan_drury(t, tol):
        return _report("drury", _Sides(math.nan, 0.0), tol)

    monkeypatch.setattr(search, "check_drury", nan_drury)
    assert main(["check", diag_file, "--ineq", "drury", "--format", "structured"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "drury: the lhs is NaN" in captured.err


def test_json_lines_refuse_nan():
    with pytest.raises(ValueError):
        cli._json_line({"margin": math.nan})
    with pytest.raises(ValueError):
        cli._json_line({"margin": -math.inf})


def test_json_lines_are_json_dumps_with_their_separators():
    spec = GeneratorSpec("gaussian", 4, 2, 2, seed=3)
    shared = [1.0, -0.0, 5e-324, 1e308]
    docs = [search.search_violations(spec, "cor_c1", 3, params={
                "allow_hypothesis_violation": True}).to_json_dict(),
            *search.compare_paper_example("example1"),
            {"a": shared, "b": shared, "c": {"d": [True, None, "x\u00e9\n", 2 ** 70]}}]
    for doc in docs:
        assert cli._json_line(doc) == json.dumps(doc, separators=(", ", ": "), allow_nan=False)


def test_fuzz_e21_near_dbl_max_answers_every_trial(tmp_path):
    # trial 1's |T1| + |T1|* and |T1| + |T2| are past DBL_MAX: the search aborted with
    # "matrix entries must be finite"; trial 0 is the paper's witness, a violation
    report = _fuzz_near_dbl_max("e21", 1, 1, tmp_path)
    assert [v["trial_index"] for v in report["violations"]] == [0]
    assert report["min_positive_margin_trial"] == 1
    assert 0.1 < report["min_positive_margin"] < 0.2   # 0.1402 on the pair divided by 2^1020


def test_fuzz_unknown_predicate_exits_three():
    assert main(["fuzz", "--predicate", "nosuch"]) == 3


def test_fuzz_usage_validation(capsys):
    assert main(["fuzz", "--predicate", "thm1", "--trials", "0"]) == 3
    assert main(["fuzz", "--predicate", "thm1", "--family", "nosuch"]) == 3
    assert main(["fuzz", "--predicate", "thm3", "--p", "0.2", "--trials", "2"]) == 3
    assert main(["fuzz", "--predicate", "thm1", "--entry-bound", "a:b", "--trials", "2"]) == 3
    # a probe has no first violation to stop at
    assert main(["fuzz", "--predicate", "thm1", "--sharpness", "--stop-on-first"]) == 3
    assert capsys.readouterr().err.endswith(
        "error: argument --stop-on-first: not allowed with argument --sharpness\n")


@pytest.mark.parametrize("bound", ["inf", "-inf", "1e400"])
def test_fuzz_a_non_finite_bound_on_an_integer_family_is_a_usage_error(bound, capsys):
    argv = ["fuzz", "--predicate", "thm1", f"--entry-bound={bound}", "--trials", "2"]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("blockdet: error: integer families need an integer bound or (lo, hi)")


@pytest.mark.parametrize("family", ["gaussian", "normal_via_unitary_conjugation"])
def test_fuzz_an_integer_bound_past_the_double_range_on_a_continuous_family_is_a_usage_error(
        family, capsys):
    # float() of the bound raised OverflowError, a traceback and exit 1; it counts as
    # infinite, as in a matrix document, and ends as --entry-bound 1e400 does
    bound = "1" + "0" * 400
    argv = ["fuzz", "--predicate", "thm1", "--family", family, "--trials", "2"]
    assert main(argv + [f"--entry-bound={bound}"]) == 3
    assert capsys.readouterr().err == (f"blockdet: error: seed 0, trial 0: entry_bound {bound} "
                                       f"overflows, drawing non-finite entries\n")
    assert main(argv + ["--entry-bound=1e400"]) == 3
    assert capsys.readouterr().err == ("blockdet: error: seed 0, trial 0: entry_bound inf "
                                       "overflows, drawing non-finite entries\n")


@pytest.mark.parametrize("bound, shown", [
    ("1e100", "1e+100"), ("1e308", "1e+308"), ("0:9223372036854775808", "(0, 9223372036854775808)"),
    ("-9223372036854775809:0", "(-9223372036854775809, 0)")])
def test_fuzz_an_integer_bound_past_int64_is_a_usage_error_naming_it(bound, shown, capsys):
    # numpy's int64 draw refused these with "low is out of bounds for int64"
    argv = ["fuzz", "--predicate", "thm1", f"--entry-bound={bound}", "--trials", "2"]
    assert main(argv) == 3
    assert capsys.readouterr().err == (
        f"blockdet: error: integer families need an integer bound or (lo, hi), got {shown}\n")
    widest = f"--entry-bound={-2**63}:{2**63 - 1}"
    assert main(["fuzz", "--predicate", "thm1", widest, "--trials", "2"]) == 0


@pytest.mark.parametrize("bound", [2**63 - 1, 2**53 + 1])
def test_fuzz_an_exact_integer_bound_past_2_53_draws_inside_it(bound, capsys):
    # a double cannot hold these bounds, and they were refused as no integer
    argv = ["fuzz", "--predicate", "thm1", "--entry-bound", str(bound), "--trials", "2",
            "--format", "structured"]
    assert main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["spec"]["entry_bound"] == bound
    entries = [part for matrix in doc["min_positive_witness"]["matrices"]
               for pair in matrix["entries"] for part in pair]
    assert all(float(part).is_integer() and abs(part) <= float(bound) for part in entries)
    assert max(map(abs, entries)) > bound / 4   # the draw spans the range, not a default


@pytest.mark.parametrize("p", ["nan", "inf", "-inf"])
def test_a_non_finite_p_is_a_usage_error(diag_file, p, capsys):
    for argv in (["check", diag_file, "--ineq", "thm3", "--r", "1", f"--p={p}"],
                 ["check", diag_file, "--ineq", "log_major", f"--p={p}"],
                 ["fuzz", "--predicate", "thm3", f"--p={p}", "--trials", "2"],
                 ["fuzz", "--predicate", "thm1", f"--p={p}", "--trials", "2"]):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(argv) == 3
        assert capsys.readouterr().err == f"blockdet: error: --p must be >= 1, got {p}\n"


def test_p_for_an_id_that_takes_no_exponent_is_a_usage_error(diag_file, capsys):
    # fuzz recorded "p" in its report's params, and check dropped it silently
    takes = [ineq.id for ineq in INEQUALITIES.values() if "p" in ineq.params]
    assert takes == ["thm3", "log_major"]
    for ineq in INEQUALITIES.values():
        argvs = [["fuzz", "--predicate", ineq.id, "--p", "2", "--trials", "2"]]
        if ineq.id in ("thm1", "drury"):
            argvs.append(["check", diag_file, "--ineq", ineq.id, "--r", "1", "--p", "2"])
        for argv in argvs:
            code = main(argv + ["--format", "structured"])
            out = capsys.readouterr()
            if ineq.id in takes:
                assert code == 0 and json.loads(out.out)["params"]["p"] == 2.0
            else:
                assert code == 3 and out.out == ""
                assert out.err == (f"blockdet: error: {ineq.id} takes no --p; "
                                   f"only thm3, log_major do\n")


def test_r_for_an_id_without_a_block_split_is_a_usage_error(diag_file, capsys):
    # check dropped --r silently for these ids, and exited 0
    takes = [ineq.id for ineq in INEQUALITIES.values() if "r" in ineq.params]
    assert takes == ["fischer", "thm1", "cor_c0", "cor_c1", "thm2", "thm3", "schur_identity",
                     "e21"]
    for ineq in INEQUALITIES.values():
        argv = ["check", *[diag_file] * ineq.files[0], "--ineq", ineq.id, "--r", "1"]
        code = main(argv + ["--format", "structured"])
        out = capsys.readouterr()
        if ineq.id in takes:
            assert code == 0 and json.loads(out.out)["inequality_id"] == ineq.id
        else:
            assert code == 3 and out.out == ""
            assert out.err == (f"blockdet: error: {ineq.id} takes no --r; "
                               f"only {', '.join(takes)} do\n")


@pytest.mark.parametrize("ineq_id, largest", [("thm3", "1e+300"), ("log_major", "5e+299")])
def test_a_p_past_the_largest_exponent_is_a_usage_error_naming_it(ineq_id, largest, diag_file,
                                                                 capsys):
    # thm3 warned of an overflow and of inf - inf and answered "the margin is NaN";
    # log_major answered "got inf", its doubled exponent
    r = ["--r", "1"] if "r" in INEQUALITIES[ineq_id].params else []
    for argv in (["fuzz", "--predicate", ineq_id, "--p", "1e308", "--trials", "2"],
                 ["check", diag_file, "--ineq", ineq_id, *r, "--p", "1e308"]):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(argv) == 3
        assert capsys.readouterr().err == (
            f"blockdet: error: the exponent must satisfy p <= {largest}, got 1e+308\n")
    with warnings.catch_warnings():   # the largest exponent overflows nothing, at any scale
        warnings.simplefilter("error", RuntimeWarning)
        for bound in ("1e300", "1e-300"):
            argv = ["fuzz", "--predicate", ineq_id, "--p", largest, "--trials", "20",
                    "--family", "gaussian", "--entry-bound", bound, "--format", "structured"]
            assert main(argv) == 0
            assert json.loads(capsys.readouterr().out)["trials"] == 20


def test_allow_hypothesis_violation_for_an_id_without_the_gate_is_a_usage_error(
        diag_file, capsys):
    # fuzz recorded the flag in its report's params, and check dropped it silently
    takes = [ineq.id for ineq in INEQUALITIES.values()
             if "allow_hypothesis_violation" in ineq.params]
    assert takes == ["cor_c1"]
    for ineq in INEQUALITIES.values():
        argvs = [["fuzz", "--predicate", ineq.id, "--trials", "2"]]
        if ineq.id in ("thm1", "cor_c1"):
            argvs.append(["check", diag_file, "--ineq", ineq.id, "--r", "1"])
        for argv in argvs:
            code = main(argv + ["--allow-hypothesis-violation", "--format", "structured"])
            out = capsys.readouterr()
            if ineq.id in takes:
                assert out.err == ""
                if argv[0] == "fuzz":   # the published witness is trial 0: a violation
                    assert code == 0
                    assert json.loads(out.out)["params"]["allow_hypothesis_violation"] is True
            else:
                assert code == 3 and out.out == ""
                assert out.err == (f"blockdet: error: {ineq.id} takes no "
                                   f"--allow-hypothesis-violation; only cor_c1 do\n")


def test_fuzz_structured_reruns_byte_identical(tmp_path):
    first = tmp_path / "a.ndjson"
    second = tmp_path / "b.ndjson"
    argv = ["fuzz", "--predicate", "cor_c0", "--trials", "40", "--seed", "42",
            "--n", "5", "--r", "2", "--format", "structured"]
    assert main(argv + ["--out", str(first)]) == 0
    assert main(argv + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    doc = json.loads(first.read_text())
    assert doc["predicate_id"] == "cor_c0"
    assert doc["trials"] == 40


# golden_fuzz.ndjson holds one structured fuzz line per argv below, in order: a
# 65-trial search crosses a chunk boundary, so the chunked draw and the batched
# evaluators must keep every drawn matrix and every margin as written there
_GOLDEN_FUZZ = [["thm1"], ["cor_c0"], ["thm2"], ["drury"], ["thm3", "--p", "1.5"]]


def test_fuzz_structured_output_is_the_golden_file_byte_for_byte(tmp_path):
    out = tmp_path / "fuzz.ndjson"
    lines = []
    for predicate in _GOLDEN_FUZZ:
        argv = ["fuzz", "--predicate", *predicate, "--trials", "65", "--seed", "12",
                "--family", "normal_via_unitary_conjugation", "--n", "5", "--r", "1",
                "--m", "4", "--format", "structured", "--out", str(out)]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(argv) == 0
        lines.append(out.read_bytes())
    golden = (Path(__file__).parent / "golden_fuzz.ndjson").read_bytes()
    assert b"".join(lines) == golden


# golden_thm1_one_member.ndjson holds one structured fuzz line per family, then one
# sharpness probe: at one member thm1 is an identity, so nearly every trial is an
# equality the batched evaluator settles without the checker
_GOLDEN_THM1 = [["--family", family] for family in search.FAMILIES] + [
    ["--family", "gaussian", "--sharpness"]]


def test_one_member_thm1_fuzz_output_is_the_golden_file_byte_for_byte(tmp_path):
    out = tmp_path / "fuzz.ndjson"
    lines = []
    for extra in _GOLDEN_THM1:
        argv = ["fuzz", "--predicate", "thm1", "--n", "8", "--r", "2", "--m", "1", "--trials",
                "65", "--seed", "12", *extra, "--format", "structured", "--out", str(out)]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(argv) == 0
        lines.append(out.read_bytes())
    golden = (Path(__file__).parent / "golden_thm1_one_member.ndjson").read_bytes()
    assert b"".join(lines) == golden


# golden_fuzz_degenerate.ndjson holds one structured fuzz line per predicate and
# flag set below, in order: all-zero blocks and 0/1 triangular ones, whose stacks
# are rank deficient, whose Y is often 0 and whose sides are often flagged zero
_DEGENERATE_FLAGS = [
    ["--family", "integer_uniform", "--entry-bound", "0", "--n", "4", "--r", "2", "--m", "2"],
    ["--family", "upper_triangular", "--entry-bound", "0:1", "--n", "5", "--r", "2", "--m", "3"]]


def test_degenerate_fuzz_output_is_the_golden_file_byte_for_byte(tmp_path):
    out = tmp_path / "fuzz.ndjson"
    lines = []
    for predicate in ("thm1", "cor_c0", "thm2", "drury", "thm3"):
        for flags in _DEGENERATE_FLAGS:
            argv = ["fuzz", "--predicate", predicate, "--trials", "65", "--seed", "3", *flags,
                    "--format", "structured", "--out", str(out)]
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                assert main(argv) == 0
            lines.append(out.read_bytes())
    golden = (Path(__file__).parent / "golden_fuzz_degenerate.ndjson").read_bytes()
    assert b"".join(lines) == golden


def test_weyl_fuzz_where_both_prefixes_reach_log_zero_runs_without_a_warning(capsys):
    # trial 33 is a rank-3 upper-triangular 5x5 whose singular values and eigenvalue
    # moduli both reach 0: its strict-prefix gaps once took -inf - -inf
    argv = ["fuzz", "--predicate", "weyl", "--family", "upper_triangular", "--entry-bound=-3:5",
            "--n", "5", "--r", "1", "--m", "1", "--seed", "12", "--trials", "67",
            "--format", "structured"]
    outputs = []
    for action in ("error", "ignore"):
        with warnings.catch_warnings():
            warnings.simplefilter(action, RuntimeWarning)
            assert main(argv) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["violations"] == []


def test_fuzz_sharpness_mode(capsys):
    code = main(["fuzz", "--predicate", "cor_c0", "--trials", "30", "--seed", "1",
                 "--sharpness"])
    assert code == 0
    assert "min positive margin" in capsys.readouterr().out


def test_check_log_major_via_matrix_file(diag_file):
    assert main(["check", diag_file, "--ineq", "log_major", "--p", "2"]) == 0


@pytest.mark.parametrize("scale", [1e-160, 1e160, 1e300])
def test_check_log_major_at_extreme_scale_exits_zero(tmp_path, capsys, scale):
    # conj(X) X overflows at 1e160 and underflows to subnormals, which lose the
    # final product, at 1e-160; it is formed of X divided by a power of two
    rng = np.random.default_rng(4)
    f = _write_matrix(tmp_path / "x.json", scale * (rng.standard_normal((3, 3))
                                                    + 1j * rng.standard_normal((3, 3))))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["check", f, "--ineq", "log_major", "--format", "structured"]) == 0
    report = CheckReport.from_json_dict(json.loads(capsys.readouterr().out))
    assert report.diagnostics == ()


def test_check_fischer_on_subnormal_psd_input_exits_zero(tmp_path):
    # every row's largest modulus is subnormal, so 1 / scale would overflow in det
    f = _write_matrix(tmp_path / "tiny.json", [[2e-310, 1e-310], [1e-310, 3e-310]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["check", f, "--ineq", "fischer", "--r", "1"]) == 0


def test_check_e21_paper_pair_via_files(tmp_path):
    from blockdet.search import _EXAMPLE3_T1, _EXAMPLE3_T2

    f1 = _write_matrix(tmp_path / "e1.json", _EXAMPLE3_T1)
    f2 = _write_matrix(tmp_path / "e2.json", _EXAMPLE3_T2)
    assert main(["check", f1, f2, "--ineq", "e21", "--r", "2"]) == 1
    assert main(["check", f1, "--ineq", "e21", "--r", "2"]) == 3  # needs two files


def test_check_thm1_multiple_files(tmp_path):
    f1 = _write_matrix(tmp_path / "m1.json", [[1, 1], [0, 1]])
    f2 = _write_matrix(tmp_path / "m2.json", [[2, 0], [0, 3]])
    assert main(["check", f1, f2, "--ineq", "thm1", "--r", "1"]) == 0


def test_check_structured_rerun_byte_identical(tmp_path, diag_file):
    one, two = tmp_path / "one.json", tmp_path / "two.json"
    argv = ["check", diag_file, "--ineq", "drury", "--format", "structured"]
    assert main(argv + ["--out", str(one)]) == 0
    assert main(argv + ["--out", str(two)]) == 0
    assert one.read_bytes() == two.read_bytes()


@pytest.mark.parametrize("command", [["check", "DIAG", "--ineq", "drury"], ["reproduce", "all"],
                                     ["fuzz", "--predicate", "thm1", "--trials", "2"]])
def test_an_out_path_that_cannot_be_written_is_a_usage_error(command, tmp_path, diag_file,
                                                             capsys):
    # a missing directory and a directory read as the usage error an unreadable input is
    argv = [diag_file if arg == "DIAG" else arg for arg in command]
    for out in (tmp_path / "no" / "such" / "x.json", tmp_path):
        assert main(argv + ["--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith(f"blockdet: error: cannot write {out}: ")
        assert "Traceback" not in captured.err and captured.out == ""
    assert not (tmp_path / "no").exists()


def test_check_writes_to_out_file(tmp_path, diag_file):
    out = tmp_path / "report.json"
    assert main(["check", diag_file, "--ineq", "drury", "--format", "structured",
                 "--out", str(out)]) == 0
    report = CheckReport.from_json_dict(json.loads(out.read_text()))
    assert report.verdict is Verdict.EQUALITY


# every argument's help string, as each command's parser holds it (the wrapped
# --help text depends on the terminal width and on the Python version)
_HELP = {
    "check": {
        "help": "show this help message and exit",
        "files": "matrix documents: {rows, cols, entries: [[re, im], ...]}",
        "ineq": "inequality id",
        "r": "top-left block dimension",
        "p": "exponent for thm3/log_major (default 2)",
        "allow_hypothesis_violation":
            "let cor_c1 report a margin verdict even without normal blocks",
        "tol_eq": "override the relative log-domain equality window (default 1e-8)",
        "out": "write output to this path instead of stdout",
        "format": "human-readable text or newline-delimited JSON",
    },
    "reproduce": {
        "help": "show this help message and exit",
        "example": "example1 | remark_minus12 | example3 | all",
        "tol_eq": "override the relative log-domain equality window (default 1e-8)",
        "out": "write output to this path instead of stdout",
        "format": "human-readable text or newline-delimited JSON",
    },
    "fuzz": {
        "help": "show this help message and exit",
        "predicate": "predicate id",
        "trials": None,
        "seed": None,
        "n": "matrix dimension",
        "r": "top-left block dimension (default n // 2)",
        "m": "family size",
        "family": "generator family (integer_uniform, gaussian, symmetric, "
                  "normal_via_unitary_conjugation, upper_triangular, block_triangular)",
        "entry_bound": "integer bound B, range LO:HI, or scale for continuous families",
        "p": "exponent for thm3/log_major",
        "allow_hypothesis_violation": None,
        "sharpness": "probe minimum positive margins instead of hunting violations",
        "stop_on_first": "stop at the first violation",
        "tol_eq": "override the relative log-domain equality window (default 1e-8)",
        "out": "write output to this path instead of stdout",
        "format": "human-readable text or newline-delimited JSON",
    },
}


def test_every_argument_help_string_is_pinned():
    parser = cli.build_parser()
    assert {a.dest: a.help for a in parser._actions} == {
        "help": "show this help message and exit", "command": None}
    assert list(parser.commands) == list(_HELP)
    for name, command in parser.commands.items():
        assert {a.dest: a.help for a in command._actions} == _HELP[name], name
    commands = next(a for a in parser._actions if a.dest == "command")
    assert [(a.dest, a.help) for a in commands._choices_actions] == [
        ("check", "evaluate one inequality on matrices from JSON files"),
        ("reproduce", "recompute the published counterexample values"),
        ("fuzz", "seeded random search against one predicate")]


def test_a_command_that_fails_creates_no_out_file(tmp_path, diag_file, capsys):
    three = _write_matrix(tmp_path / "three.json", np.eye(3))
    out = tmp_path / "out.txt"
    # exit 2: a thm1 family of a 2x2 and a 3x3 matrix is refused as a ShapeError
    assert main(["check", diag_file, three, "--ineq", "thm1", "--r", "1",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("precondition failed: member 1 has partition "
                                       "(n=3, r=1), expected (n=2, r=1)\n")
    # exit 3: an equality window of 0, and an unknown id
    for argv in (["check", diag_file, "--ineq", "drury", "--tol-eq", "0"],
                 ["reproduce", "all", "--tol-eq", "0"],
                 ["fuzz", "--predicate", "thm1", "--trials", "2", "--tol-eq", "0"],
                 ["check", diag_file, "--ineq", "nosuch"],
                 ["reproduce", "nosuch"],
                 ["fuzz", "--predicate", "nosuch", "--trials", "2"]):
        assert main(argv + ["--out", str(out)]) == 3, argv
        assert capsys.readouterr().err.startswith("blockdet: error: "), argv
    assert not out.exists()
