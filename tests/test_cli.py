"""Command-line behavior: exit codes, formats, determinism."""

import json

import numpy as np
import pytest

from blockdet import cli
from blockdet.checks import CheckReport, Verdict
from blockdet.cli import main
from blockdet.linalg import Tolerances, matrix_to_json_dict
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


# ids whose equality case is structural: the window alone never makes them equal
_STRUCTURAL_IDS = {"cor_c0", "lemma1", "thm2", "drury", "thm3"}


@pytest.mark.parametrize("ineq_id", list(INEQUALITIES))
def test_tol_eq_reaches_every_checker(ineq_id, tmp_path, capsys):
    ineq = INEQUALITIES[ineq_id]
    params = ineq.call_params(2, allow_hypothesis_violation=True)
    witness = ineq.draw(GeneratorSpec(family="gaussian", n=4, r=2, m=2, seed=11), 1, params)
    files = [_write_matrix(tmp_path / f"m{k}.json", m) for k, m in enumerate(witness.matrices)]
    argv = ["check", *files, "--ineq", ineq_id, "--format", "structured"]
    if ineq.needs_r:
        argv += ["--r", "2"]
    if ineq.hypothesis_gate:
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


def test_fuzz_unknown_predicate_exits_three():
    assert main(["fuzz", "--predicate", "nosuch"]) == 3


def test_fuzz_usage_validation():
    assert main(["fuzz", "--predicate", "thm1", "--trials", "0"]) == 3
    assert main(["fuzz", "--predicate", "thm1", "--family", "nosuch"]) == 3
    assert main(["fuzz", "--predicate", "thm3", "--p", "0.2", "--trials", "2"]) == 3
    assert main(["fuzz", "--predicate", "thm1", "--entry-bound", "a:b", "--trials", "2"]) == 3


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


def test_fuzz_sharpness_mode(capsys):
    code = main(["fuzz", "--predicate", "cor_c0", "--trials", "30", "--seed", "1",
                 "--sharpness"])
    assert code == 0
    assert "min positive margin" in capsys.readouterr().out


def test_check_log_major_via_matrix_file(diag_file):
    assert main(["check", diag_file, "--ineq", "log_major", "--p", "2"]) == 0


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


def test_check_writes_to_out_file(tmp_path, diag_file):
    out = tmp_path / "report.json"
    assert main(["check", diag_file, "--ineq", "drury", "--format", "structured",
                 "--out", str(out)]) == 0
    report = CheckReport.from_json_dict(json.loads(out.read_text()))
    assert report.verdict is Verdict.EQUALITY
