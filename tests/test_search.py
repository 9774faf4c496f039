"""Generators, violation search, witnesses, and the published examples."""

import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

import reference
from blockdet import search
from blockdet.checks import (
    BlockFamily,
    Verdict,
    check_cor_c0,
    check_lemma1,
    check_thm1,
    check_thm2,
    _VERDICTS,
    _Sides,
    _bordered,
    _evaluate,
    _is_normal,
    _thm1_sides,
    _thm2_sides,
)
from blockdet.linalg import (
    DEFAULT_TOL,
    BlockUpperTriangular,
    LinalgError,
    ShapeError,
    det,
)
from blockdet.search import (
    FAMILIES,
    INEQUALITIES,
    PREDICATE_IDS,
    GeneratorSpec,
    Witness,
    compare_paper_example,
    recheck_witness,
    reproduce_paper_example,
    search_violations,
    sharpness_probe,
    _CHUNK,
)


# ---------------------------------------------------------------------------
# generation


def _raised(drawn, error):
    """A chunk drawer's one-trial draw; the overflow error that left the trial out is raised."""
    if error is not None:
        raise error
    return drawn


def _drawn_matrices(spec, trial):
    """The trial's m square n-by-n matrices, a one-trial chunk of the chunk drawer."""
    return list(_raised(*search._draw_stack(spec, range(trial, trial + 1), spec.m, False))[0])


def _drawn_family(spec, trial):
    """The trial's block family, split from the witness of a one-trial chunk of thm1's draw."""
    return search._block_family_from(
        _one_trial(INEQUALITIES["thm1"], spec, trial, {"r": spec.r}).witness(0))


def _one_trial(ineq, spec, trial, params):
    """The trial as a search of ``ineq`` draws it from ``spec``: a one-trial
    chunk of :meth:`Inequality.draw_trials`."""
    return _raised(*ineq.draw_trials(spec, range(trial, trial + 1), params))


def test_generate_is_deterministic_and_per_trial_independent():
    spec = GeneratorSpec(family="gaussian", n=5, r=2, m=3, seed=123)
    first = _drawn_matrices(spec, 7)
    second = _drawn_matrices(spec, 7)
    for a, b in zip(first, second):
        assert np.array_equal(a, b)
    other = _drawn_matrices(spec, 8)
    assert not np.array_equal(first[0], other[0])


def _draw_or_error(draw, spec, trial):
    try:
        return draw(spec, trial)
    except (ValueError, LinalgError) as err:
        return type(err), str(err)


def _same_bits(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("family", FAMILIES)
def test_one_call_draw_is_the_block_by_block_draw_bitwise(family):
    # the stream of (seed, trial) must keep naming the same matrices: a recorded
    # seed reproduces its witness; a bound the family does not take raises alike
    for n, r in ((2, 1), (4, 1), (4, 3), (5, 2)):
        for m in (1, 2, 3, 4):
            for bound in (None, 1e-100, 1e100, (-3, 5)):
                spec = GeneratorSpec(family=family, n=n, r=r, m=m, entry_bound=bound,
                                     seed=1000 * n + 10 * m + r)
                for trial in range(25):
                    mats = _draw_or_error(_drawn_matrices, spec, trial)
                    expected = _draw_or_error(reference.block_by_block_generate, spec, trial)
                    if isinstance(expected, tuple):
                        assert mats == expected
                    else:
                        assert len(mats) == m
                        assert all(_same_bits(a, b) for a, b in zip(mats, expected))
                    drawn = _draw_or_error(_drawn_family, spec, trial)
                    expected = _draw_or_error(reference.block_by_block_family, spec, trial)
                    if isinstance(expected, tuple):
                        assert drawn == expected
                        continue
                    blocks = [(b.x, b.y, b.z, b.assemble()) for b in drawn.members]
                    expected = [(*want, BlockUpperTriangular(*want).assemble()) for want in expected]
                    assert len(blocks) == m
                    assert all(_same_bits(a, b) for got, want in zip(blocks, expected)
                               for a, b in zip(got, want))


@pytest.mark.parametrize("family", FAMILIES)
def test_every_trial_of_a_chunk_is_the_block_by_block_draw_bitwise(family):
    # a search draws a chunk of trials at once, into one stack; each row must be the
    # trial drawn alone, block by block, and a bound the family does not take raises alike
    for n, r, m in ((2, 1, 2), (5, 2, 3)):
        for bound in (None, 1e-100, 1e100, (-3, 5)):
            spec = GeneratorSpec(family=family, n=n, r=r, m=m, entry_bound=bound, seed=7 * n + m)
            for size in (1, 4, _CHUNK, _CHUNK + 1):
                trials = range(3, 3 + size)
                matrices = [_draw_or_error(reference.block_by_block_generate, spec, trial)
                            for trial in trials]
                blocks = [_draw_or_error(reference.block_by_block_family, spec, trial)
                          for trial in trials]
                if isinstance(blocks[0], tuple):   # every trial raises the same error
                    for split, expected in ((False, matrices[0]), (True, blocks[0])):
                        with pytest.raises((ValueError, LinalgError)) as err:
                            search._draw_stack(spec, trials, m, split)
                        assert expected == (err.type, str(err.value))
                    continue
                mats, error = search._draw_stack(spec, trials, m, False)
                assert error is None and mats.shape == (size, m, n, n)
                assert all(_same_bits(a, b) for got, want in zip(mats, matrices)
                           for a, b in zip(got, want))
                t, error = search._draw_stack(spec, trials, m, True)
                assert error is None and t.shape == (size, m, n, n)
                for i, members in enumerate(blocks):
                    for k, want in enumerate(members):
                        u = t[i, k]
                        got = (u[:r, :r], u[:r, r:], u[r:, r:], u)
                        want = (*want, BlockUpperTriangular(*want).assemble())
                        assert all(_same_bits(a, b) for a, b in zip(got, want))
                # the first matrix of each trial, transformed on the stack or per matrix
                for ineq_id, transform in (("drury", np.triu),
                                           ("fischer", lambda g: g.conj().T @ g)):
                    ineq = INEQUALITIES[ineq_id]
                    drawn, error = ineq.draw_trials(replace(spec, m=1), trials, {})
                    assert error is None and drawn.trials == trials
                    assert all(_same_bits(drawn.t[i, 0], transform(want[0]))
                               for i, want in enumerate(matrices))


def test_unitaries_take_phase_one_where_r_has_an_exact_zero_on_its_diagonal():
    # no draw reaches it: an all-zero matrix, and one whose first column is zero, give R
    # an exact zero on its diagonal; the stack's unitaries are the reference's, matrix by
    # matrix, bitwise, and where R's diagonal is zero Q's column is kept (phase 1)
    rng = np.random.default_rng(41)
    g = rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4))
    g[0] = 0.0
    g[1, :, 0] = 0.0
    (u,) = search._unitaries(g)
    assert all(_same_bits(u[k], reference.unitary_factor(g[k])) for k in range(3))
    q, r = np.linalg.qr(g)
    zero = np.diagonal(r, axis1=-2, axis2=-1) == 0.0
    assert zero[0].all() and zero[1].tolist() == [True, False, False, False] and not zero[2].any()
    for k, j in zip(*np.nonzero(zero)):
        assert np.array_equal(u[k, :, j], q[k, :, j])


# first overflowing trial of this spec: 98, in the second chunk, for every id but fischer,
# whose G* G overflows sooner
_OVERFLOW_AT_98 = GeneratorSpec(family="gaussian", n=2, r=1, m=2, entry_bound=4e307, seed=14)


@pytest.mark.parametrize("ineq_id", [i for i in PREDICATE_IDS if i != "fischer"])
def test_a_chunk_cut_short_by_an_overflow_reports_the_trials_before_it(ineq_id, monkeypatch):
    ineq = INEQUALITIES[ineq_id]
    spec, params = replace(_OVERFLOW_AT_98, m=ineq.files[1] or 2), ineq.call_params(1)
    message = "seed 14, trial 98: entry_bound 4e+307 overflows, drawing non-finite entries"
    alone = (reference.block_by_block_generate if ineq.shape == "matrix"
             else reference.block_by_block_family)
    assert _draw_or_error(alone, spec, 98) == (LinalgError, message)
    drawn, error = ineq.draw_trials(spec, range(_CHUNK, 2 * _CHUNK), params)
    assert drawn.trials == range(_CHUNK, 98) and str(error) == message
    reached = []
    with pytest.raises(LinalgError) as raised:
        for trial, *_ in search._outcomes(ineq, spec, 2 * _CHUNK, DEFAULT_TOL, params, True):
            reached.append(trial)
    assert reached == list(range(98)) and str(raised.value) == message
    batched = search_violations(_OVERFLOW_AT_98, ineq_id, 98).to_json_dict()
    assert batched["trials"] == 98
    _scalar_record(monkeypatch, ineq_id)
    assert search_violations(_OVERFLOW_AT_98, ineq_id, 98).to_json_dict() == batched


def test_generate_zero_bound_gives_zero_matrix():
    spec = GeneratorSpec(family="integer_uniform", n=4, entry_bound=0, seed=1)
    (mat,) = _drawn_matrices(spec, 0)
    assert np.all(mat == 0)


def test_generate_integer_entries_respect_range():
    spec = GeneratorSpec(family="integer_uniform", n=6, m=2, entry_bound=(-3, 5), seed=9)
    for mat in _drawn_matrices(spec, 4):
        assert np.all(mat.imag == 0)
        assert np.all(mat.real == np.round(mat.real))
        assert mat.real.min() >= -3 and mat.real.max() <= 5


def test_generate_symmetric_family_exactly_symmetric():
    spec = GeneratorSpec(family="symmetric", n=6, seed=5)
    (s,) = _drawn_matrices(spec, 3)
    assert np.array_equal(s, s.T)


def test_generate_triangular_and_block_triangular_structure():
    (t,) = _drawn_matrices(GeneratorSpec(family="upper_triangular", n=5, seed=2), 0)
    assert np.all(np.tril(t, -1) == 0)
    (b,) = _drawn_matrices(GeneratorSpec(family="block_triangular", n=6, r=2, seed=2), 0)
    assert np.all(b[2:, :2] == 0)
    assert np.any(b[:2, 2:] != 0)


def test_generate_normal_family_passes_predicate():
    spec = GeneratorSpec(family="normal_via_unitary_conjugation", n=5, seed=11)
    (m,) = _drawn_matrices(spec, 1)
    assert _is_normal(m)


def test_generate_block_family_structures_diagonal_blocks():
    spec = GeneratorSpec(family="symmetric", n=6, r=2, m=2, seed=3)
    family = _drawn_family(spec, 0)
    assert family.m == 2 and family.n == 6 and family.r == 2
    for member in family.members:
        assert np.array_equal(member.x, member.x.T)
        assert np.array_equal(member.z, member.z.T)
        assert member.y.any()
    again = _drawn_family(spec, 0)
    for a, b in zip(family.members, again.members):
        assert np.array_equal(a.assemble(), b.assemble())


def test_generate_block_family_needs_valid_split():
    with pytest.raises(ShapeError, match="0 < r < n"):
        _drawn_family(GeneratorSpec(family="gaussian", n=3, r=3, seed=0), 0)


def test_generator_spec_validation():
    with pytest.raises(ValueError, match="unknown family"):
        GeneratorSpec(family="cauchy")
    with pytest.raises(ValueError, match="positive"):
        GeneratorSpec(n=0)
    with pytest.raises(ValueError, match="scale"):
        _drawn_matrices(GeneratorSpec(family="gaussian", entry_bound=(-2, 2)), 0)


@pytest.mark.parametrize("bound", [math.inf, -math.inf, math.nan, (0, math.inf), (-math.inf, 0),
                                   (0, math.nan), 10**400, (-2.5, 2.5), (0.5, 0.7), 2.5])
def test_an_integer_family_refuses_a_bound_that_is_no_integer(bound):
    # int() of an infinite bound raises OverflowError, of a NaN one its own ValueError;
    # int() truncated a fractional end of a pair, (0.5, 0.7) drawing all zeros
    spec = GeneratorSpec(family="integer_uniform", entry_bound=bound)
    for run in (lambda: _drawn_matrices(spec, 0), lambda: search_violations(spec, "thm1", 2)):
        with pytest.raises(ValueError, match="integer families need an integer bound or"):
            run()


def test_drawn_blocks_and_their_assembled_matrix_are_read_only():
    for family in FAMILIES:
        spec = GeneratorSpec(family=family, n=5, r=2, m=2, seed=4)
        for member in _drawn_family(spec, 0).members:
            full = member.assemble()
            assert full is member.assemble()
            for block in (member.x, member.y, member.z, full):
                assert not block.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    block[0, 0] = 1.0


@pytest.mark.parametrize("predicate, family", [
    ("cor_c0", "gaussian"), ("thm1", "symmetric"), ("drury", "gaussian"),
    ("thm2", "normal_via_unitary_conjugation"),
])
def test_draw_overflow_is_one_error_naming_seed_trial_and_bound(predicate, family):
    spec = GeneratorSpec(family=family, n=4, r=2, m=2, entry_bound=1e308, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(LinalgError, match=r"^seed 0, trial 0: entry_bound 1e\+308 overflows"):
            search_violations(spec, predicate, 3)


def test_every_family_generates():
    for family in FAMILIES:
        spec = GeneratorSpec(family=family, n=4, r=2, m=2, seed=17)
        mats = _drawn_matrices(spec, 0)
        assert len(mats) == 2
        blocks = _drawn_family(spec, 0)
        assert blocks.m == 2


# ---------------------------------------------------------------------------
# violation search


def test_thm1_control_run_has_zero_violations():
    spec = GeneratorSpec(family="integer_uniform", n=6, r=3, m=3, seed=42)
    report = search_violations(spec, "thm1", 200)
    assert report.trials == 200
    assert report.violation_count == 0
    assert report.min_margin is not None and report.min_margin >= 0.0


def test_e21_embedded_witness_fires_at_trial_zero():
    spec = GeneratorSpec(family="integer_uniform", n=4, r=2, m=2, seed=42)
    report = search_violations(spec, "e21", 3)
    assert report.violation_count >= 1
    assert report.violations[0].trial_index == 0
    assert report.violations[0].report.verdict is Verdict.VIOLATED


def test_cor_c1_embedded_witness_needs_hypothesis_mode():
    spec = GeneratorSpec(family="integer_uniform", n=4, r=2, m=2, seed=42)
    gated = search_violations(spec, "cor_c1", 1)
    assert gated.violation_count == 0  # precondition_failed, not violated
    open_mode = search_violations(spec, "cor_c1", 1,
                                  params={"allow_hypothesis_violation": True})
    assert open_mode.violation_count == 1


def test_search_stop_on_first():
    spec = GeneratorSpec(family="integer_uniform", n=4, r=2, m=2, seed=42)
    report = search_violations(spec, "e21", 50, stop_on_first=True)
    assert report.trials == 1
    assert report.violation_count == 1


def test_unknown_predicate_rejected():
    with pytest.raises(ValueError, match="unknown predicate"):
        search_violations(GeneratorSpec(), "nosuch", 1)


def test_search_reports_identical_across_runs():
    spec = GeneratorSpec(family="gaussian", n=4, r=2, m=2, seed=7)
    a = search_violations(spec, "cor_c0", 25)
    b = search_violations(spec, "cor_c0", 25)
    assert json.dumps(a.to_json_dict()) == json.dumps(b.to_json_dict())


def test_witness_roundtrip_reproduces_verdict_and_margin():
    spec = GeneratorSpec(family="integer_uniform", n=4, r=2, m=2, seed=42)
    report = search_violations(spec, "e21", 5)
    for record in report.violations:
        doc = json.loads(json.dumps(record.witness.to_json_dict()))
        witness = Witness.from_json_dict(doc)
        again = recheck_witness(witness)
        assert again.verdict is record.report.verdict
        assert again.margin == pytest.approx(record.report.margin, abs=1e-12)
    probe = sharpness_probe(spec, "cor_c0", 10)
    assert probe.min_positive_witness is not None
    doc = json.loads(json.dumps(probe.min_positive_witness.to_json_dict()))
    again = recheck_witness(Witness.from_json_dict(doc))
    assert again.margin == pytest.approx(probe.min_positive_margin, abs=1e-12)


def test_log_major_witness_below_p_one_is_rejected():
    # the sequences are unsquared and the checker takes 2p, so p is checked before it doubles
    witness = Witness("log_major", 0, 0, {"p": 0.75}, (np.diag([2.0, 1.0]).astype(complex),))
    with pytest.raises(ValueError, match=">= 1"):
        recheck_witness(witness)


def _trial_witness(ineq, spec, report, trial):
    """The witness a search used at ``trial``: a recorded violation, or a redraw."""
    for record in report.violations:
        if record.trial_index == trial:
            return record.witness
    return _one_trial(ineq, spec, trial, dict(report.params)).witness(0)


def _json_round_trip(witness):
    return Witness.from_json_dict(json.loads(json.dumps(witness.to_json_dict())))


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("ineq_id", PREDICATE_IDS)
def test_search_margins_equal_rechecked_json_witness_margins(ineq_id, family):
    # the search checks the blocks it drew; recheck_witness re-splits the recorded matrices
    ineq = INEQUALITIES[ineq_id]
    spec = GeneratorSpec(family=family, n=4, r=2, m=2, seed=31)
    params = ({"allow_hypothesis_violation": True}
              if "allow_hypothesis_violation" in ineq.params else None)
    for run in (search_violations, sharpness_probe):
        report = run(spec, ineq_id, 8, params=params)
        if report.min_margin is not None:
            witness = _trial_witness(ineq, spec, report, report.min_margin_trial)
            assert recheck_witness(_json_round_trip(witness)).margin == report.min_margin
        if report.min_positive_margin is not None:
            again = recheck_witness(_json_round_trip(report.min_positive_witness))
            assert again.margin == report.min_positive_margin


def test_every_id_has_exactly_one_registry_record():
    from blockdet import search

    assert tuple(search.INEQUALITIES) == search.PREDICATE_IDS
    for ineq_id, record in search.INEQUALITIES.items():
        assert record.id == ineq_id
        assert callable(getattr(search, f"check_{ineq_id}"))


def test_all_predicates_run_one_trial():
    spec = GeneratorSpec(family="gaussian", n=4, r=2, m=2, seed=3)
    from blockdet.search import PREDICATE_IDS

    for predicate in PREDICATE_IDS:
        report = search_violations(spec, predicate, 2)
        assert report.trials >= 1


# ---------------------------------------------------------------------------
# the batched trial engine

_CRITERION_4_SIZES = ((4, 2, 2), (6, 3, 3), (8, 4, 4), (8, 2, 1), (5, 1, 4))   # (n, r, m)
_HOLDS, _EQUAL = Verdict.HOLDS_STRICT, Verdict.EQUALITY
# (id, params, the verdicts its draws in the pin test below read): every id, and every
# variant of the manifest, tests/manifest.py
_SCORED = [("thm1", None, {_HOLDS, _EQUAL}), ("cor_c0", None, {_HOLDS, _EQUAL}),
           ("thm2", None, {_HOLDS, _EQUAL}), ("drury", None, {_HOLDS, _EQUAL})] + [
    ("thm3", {"p": p}, {_HOLDS, _EQUAL}) for p in (1.0, 1.5, 2.0, 3.0)] + [
    ("fischer", None, {_HOLDS, _EQUAL}),
    ("cor_c1", None, {_HOLDS, _EQUAL, Verdict.PRECONDITION_FAILED}),
    ("cor_c1", {"allow_hypothesis_violation": True}, {_HOLDS, _EQUAL}),
    ("lemma1", None, {_HOLDS, _EQUAL}),
    ("djokovic", None, {_HOLDS}),
    ("weyl", None, {_HOLDS, _EQUAL}),
    ("log_major", None, {_HOLDS, _EQUAL, Verdict.PRECONDITION_FAILED}),
    ("log_major", {"p": 1.5}, {_HOLDS, _EQUAL, Verdict.PRECONDITION_FAILED}),
    ("schur_identity", None, {_EQUAL, Verdict.PRECONDITION_FAILED}),
    ("e21", None, {_HOLDS, _EQUAL, Verdict.VIOLATED})]
_BATCHED = [(ineq_id, params) for ineq_id, params, _ in _SCORED]


def _bits(x) -> bytes:
    return np.float64(x).tobytes()


def _drawn(ineq, spec, trials, params):
    """One chunk of ``trials`` trials, drawn as a search of ``ineq`` draws them."""
    call_params = ineq.call_params(spec.r)
    call_params.update(params or {})
    drawn, error = ineq.draw_trials(spec, range(trials), call_params)
    assert error is None and len(drawn.trials) == trials
    return drawn


# all-zero blocks (bound 0) and 0/1 triangular ones: rank-deficient stacks, Y = 0,
# flagged-zero sides
_DEGENERATE = (GeneratorSpec(family="integer_uniform", n=4, r=2, m=2, entry_bound=0, seed=1),
               GeneratorSpec(family="upper_triangular", n=5, r=2, m=3, entry_bound=(0, 1), seed=2))


# gaussian draws near DBL_MAX, where every side is taken of a rescaled stack; many
# overflow, and a search's chunk stops before the first that does
_NEAR_DBL_MAX = tuple(GeneratorSpec("gaussian", n, r, m, entry_bound=1e308, seed=n + m)
                      for n, r, m in ((2, 1, 1), (2, 1, 2), (4, 2, 1), (4, 2, 2)))


def _near_dbl_max(ineq):
    """The near-DBL_MAX specs of ``ineq``: fischer's Gram G* G squares its draw's
    entries, so its draws are taken at 1e153, where the Gram's are near 1e306."""
    if ineq.id != "fischer":
        return _NEAR_DBL_MAX
    return tuple(replace(spec, entry_bound=1e153) for spec in _NEAR_DBL_MAX)


def _finite_chunks(ineq, spec, trials, params):
    """The chunks a search of ``ineq`` draws of ``range(trials)``, each cut
    short before a trial whose draw overflows, which is skipped."""
    call_params = ineq.call_params(spec.r)
    call_params.update(params or {})
    start = 0
    while start < trials:
        drawn, _ = ineq.draw_trials(spec, range(start, trials), call_params)
        if drawn.trials:
            yield drawn
        start += len(drawn.trials) + 1


@pytest.mark.parametrize("ineq_id, params, verdicts", [
    pytest.param(*case, id=f"{case[0]}-{'None' if case[1] is None else f'params{i}'}")
    for i, case in enumerate(_SCORED)])
def test_batched_margins_and_verdicts_equal_the_checker_bitwise(ineq_id, params, verdicts):
    # every trial's code is its checker's verdict and its margin the checker's, bit
    # for bit: flagged-zero sides, Y = 0, singular blocks and rescaled stacks included
    ineq = INEQUALITIES[ineq_id]
    specs = [GeneratorSpec(family=family, n=n, r=r, m=m, seed=17 * n + m)
             for family in FAMILIES for n, r, m in _CRITERION_4_SIZES] + list(_DEGENERATE)
    chunks = [_drawn(ineq, spec, 6, params) for spec in specs] + [
        drawn for spec in _near_dbl_max(ineq) for drawn in _finite_chunks(ineq, spec, 40, params)]
    seen = {verdict: 0 for verdict in Verdict}
    for drawn in chunks:
        margins, codes = ineq.score(drawn, DEFAULT_TOL)
        for i in range(len(drawn.trials)):
            report = ineq.check(drawn.witness(i), DEFAULT_TOL)
            where = (drawn.spec, drawn.trials[i], report.verdict, report.margin, margins[i])
            assert _VERDICTS[codes[i]] is report.verdict, where
            assert _bits(margins[i]) == _bits(report.margin), where
            seen[report.verdict] += 1
    near_dbl_max = sum(len(drawn.trials) for drawn in chunks[len(specs):])
    assert {verdict for verdict, count in seen.items() if count} == verdicts
    assert near_dbl_max > 20


@pytest.mark.parametrize("ineq_id, params", _BATCHED)
def test_a_search_checks_only_the_trials_its_rule_reads_as_violated_or_nan(
        ineq_id, params, monkeypatch):
    # Inequality.check looks the checker up by name per call, so the wrapper counts
    # every trial that reaches it; the rule reads no NaN on these draws
    ineq = INEQUALITIES[ineq_id]
    specs = [GeneratorSpec(family=family, n=5, r=2, m=2, seed=9) for family in FAMILIES]
    specs += list(_DEGENERATE) + list(_near_dbl_max(ineq))
    trials, expected = _CHUNK + 6, 0
    for spec in specs:   # the chunks a search draws, up to the first trial that overflows
        call_params = {**ineq.call_params(spec.r), **(params or {})}
        for start in range(0, trials, _CHUNK):
            drawn, error = ineq.draw_trials(spec, range(
                start, min(start + _CHUNK, trials)), call_params)
            codes = ineq.score(drawn, DEFAULT_TOL)[1].tolist() if drawn.trials else []
            expected += sum(_VERDICTS[code] in (None, Verdict.VIOLATED) for code in codes)
            if error is not None:
                break
    checked, real_check = [], getattr(search, f"check_{ineq_id}")

    def check(*args, **kwargs):
        report = real_check(*args, **kwargs)
        checked.append(report.verdict)
        return report

    monkeypatch.setattr(search, f"check_{ineq_id}", check)
    for spec in specs:
        try:
            sharpness_probe(spec, ineq_id, trials, params=params)
        except LinalgError:   # a draw that overflows, after the trials before it
            pass
    assert checked == [Verdict.VIOLATED] * expected
    assert (expected > 0) == (ineq_id == "e21")


@pytest.mark.parametrize("bound", [1e-150, 1e150, 1e300])
def test_thm2_stacked_bordered_determinants_are_the_checker_s_bitwise(bound):
    # one chunk's bordered matrices go to det's rules as one stack; every family's
    # draws are scaled to the bound, which the integer families do not take; row i of
    # the chunk's sides is the one-row call of the checker on member i
    compared = 0
    for family in FAMILIES:
        for n, r, m in _CRITERION_4_SIZES:
            spec = GeneratorSpec(family=family, n=n, r=r, m=m, seed=31 * n + m)
            drawn = _drawn(INEQUALITIES["thm2"], spec, _CHUNK, None)
            members = [BlockUpperTriangular(bound * t.x, bound * t.y, bound * t.z)
                       for t in (search._block_family_from(drawn.witness(i)).members[0]
                                 for i in range(_CHUNK))]
            stack = np.array([t.assemble() for t in members])
            sides = _thm2_sides(stack, r)
            stacked_x, stacked_z = sides.detail[:2]
            margins, codes = _evaluate(sides, DEFAULT_TOL)
            for i, t in enumerate(members):
                for block, (phase, log_mag, zero) in ((t.x, stacked_x), (t.z, stacked_z)):
                    single = det(_bordered(block.conj(), block))
                    assert zero[i] == single.is_zero
                    if not single.is_zero:
                        assert complex(phase[i]) == single.phase
                        assert _bits(log_mag[i]) == _bits(single.log_magnitude)
                        compared += 1
                report = check_thm2(t)
                assert _bits(margins[i]) == _bits(report.margin), (family, n, i)
                assert _VERDICTS[codes[i]] is report.verdict, (family, n, i)
    assert compared > len(FAMILIES) * len(_CRITERION_4_SIZES) * _CHUNK


def test_a_flagged_zero_side_is_settled_by_the_evaluator():
    # Z = 0 in both members, while [T1; T2] has full rank: thm1's rhs is zero, margin +inf
    family = BlockFamily((BlockUpperTriangular([[1.0]], [[3.0]], [[0.0]]),
                          BlockUpperTriangular([[2.0]], [[-1.0]], [[0.0]])))
    margins, codes = _evaluate(INEQUALITIES["thm1"].sides(np.array([family.assemble()] * 2), 1),
                               DEFAULT_TOL)
    assert [_VERDICTS[code] for code in codes.tolist()] == [Verdict.HOLDS_STRICT] * 2
    assert margins.tolist() == [np.inf, np.inf]
    report = search.check_thm1(family)
    assert report.verdict is Verdict.HOLDS_STRICT and report.margin == np.inf


def test_one_member_thm1_searches_reach_no_checker(monkeypatch):
    # at one member thm1 is an identity: the evaluator settles every trial as equality
    # or holds_strict, those with a stack flagged at the rank floor among them
    specs = [GeneratorSpec(family=family, n=4, r=2, m=1, seed=5) for family in FAMILIES] + [
        GeneratorSpec(family="upper_triangular", n=4, r=2, m=1, entry_bound=(0, 1), seed=6)]
    flagged = 0
    for spec in specs:
        for trial in range(_CHUNK + 6):
            report = check_thm1(_drawn_family(spec, trial))
            flagged += report.lhs.is_zero or report.rhs.is_zero
    checked, real_check = [], search.check_thm1

    def check(family, tol=DEFAULT_TOL):
        checked.append(family.assemble().tobytes())
        return real_check(family, tol)

    monkeypatch.setattr(search, "check_thm1", check)
    for spec in specs:
        assert search_violations(spec, "thm1", _CHUNK + 6).violation_count == 0
    assert checked == []
    assert flagged > 0


def test_the_one_member_thm1_case_flagged_only_on_its_left_side_still_reaches_the_checker():
    # the T stack's rank floor flags the left side but neither X nor Z, so the checker
    # reads violated, margin -inf, on an identity (a known defect); the evaluator must
    # leave it to the checker rather than settle it
    t = np.array([[1e10, 1e20], [0.0, 1e10]], dtype=complex)
    margins, codes = _evaluate(_thm1_sides(t[None, None], 1), DEFAULT_TOL)
    assert _VERDICTS[int(codes[0])] is Verdict.VIOLATED and margins[0] == -math.inf
    report = check_thm1(BlockFamily((BlockUpperTriangular.from_matrix(t, 1),)))
    assert report.lhs.is_zero and not report.rhs.is_zero
    assert report.verdict is Verdict.VIOLATED and report.margin == -math.inf


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1, -1, 2**70 + 12345])
def test_trial_streams_are_numpy_s_seed_sequence_of_the_masked_pair(seed):
    # tests/reference.py draws through _trial_rng itself, so the seeding is pinned here
    mask = (1 << 64) - 1
    for trial in (0, 1, 63, 64, 2**32 - 1, 2**32, 2**40):
        want = np.random.default_rng(np.random.SeedSequence([seed & mask, trial & mask]))
        assert search._trial_rng(seed, trial).bit_generator.state == want.bit_generator.state


@pytest.mark.parametrize("ineq_id, params, message", [
    ("thm3", {"r": 1}, "r comes from the generator spec (r=2), not from params"),
    ("thm1", {"p": 2.0}, "thm1 takes no parameters; got p"),
    ("thm1", {"nonsense": 1}, "thm1 takes no parameters; got nonsense"),
    ("thm3", {"p": 1.5, "allow_hypothesis_violation": True},
     "thm3 takes only p; got allow_hypothesis_violation"),
    ("cor_c1", {"p": 2.0}, "cor_c1 takes only allow_hypothesis_violation; got p")])
def test_a_parameter_the_id_does_not_take_is_refused(ineq_id, params, message):
    # these were recorded as given; a recorded r of 1 made the rechecked witness
    # of a thm3 search at r 2 fail its block split
    spec = GeneratorSpec(family="gaussian", n=4, r=2, seed=5)
    for run in (search_violations, sharpness_probe):
        with pytest.raises(ValueError) as info:
            run(spec, ineq_id, 3, params=params)
        assert str(info.value) == message
    report = search_violations(spec, "thm3", 3, params={"p": 1.5})
    assert report.params == {"r": 2, "p": 1.5}
    assert recheck_witness(report.min_positive_witness).margin == report.min_positive_margin


def _no_verdict(stack, *params):
    """Sides that give no trial of ``stack`` a verdict, so that each reaches its checker."""
    return _Sides(np.full(len(stack), math.nan), np.zeros(len(stack)))


def _scalar_record(monkeypatch, ineq_id):
    """Make a search of ``ineq_id`` check every trial with its checker alone."""
    monkeypatch.setitem(INEQUALITIES, ineq_id, replace(INEQUALITIES[ineq_id], sides=_no_verdict))


@pytest.mark.parametrize("ineq_id, params", _BATCHED)
def test_one_chunk_plus_one_trials_report_as_the_scalar_loop(ineq_id, params, monkeypatch):
    spec = GeneratorSpec(family="gaussian", n=5, r=2, m=2, seed=77)
    runs = [search_violations(spec, ineq_id, _CHUNK + 1, params=params),
            sharpness_probe(spec, ineq_id, _CHUNK + 1, params=params)]
    _scalar_record(monkeypatch, ineq_id)
    scalar = [search_violations(spec, ineq_id, _CHUNK + 1, params=params),
              sharpness_probe(spec, ineq_id, _CHUNK + 1, params=params)]
    assert runs[0].trials == _CHUNK + 1
    assert [r.to_json_dict() for r in runs] == [r.to_json_dict() for r in scalar]


def test_every_id_near_dbl_max_reads_no_nan_margin_and_keeps_the_identities():
    # gaussian draws at entry bound 1e308, some with entry moduli past DBL_MAX, where
    # LAPACK's SVD returns NaN without a warning: NaN margins read holds_strict (thm1 and
    # cor_c1 at one member, identities, among them), and sigma_max read inf
    found, identities, checked = [], 0, 0
    for n, r, m in ((2, 1, 1), (4, 2, 2)):
        for ineq in INEQUALITIES.values():
            spec = GeneratorSpec("gaussian", n, r, m, 1e308, seed=7)
            for trial in range(1, 100):
                try:
                    drawn = _one_trial(ineq, spec, trial, ineq.call_params(r))
                except LinalgError:   # the draw itself overflows
                    continue
                report = ineq.check(drawn.witness(0), DEFAULT_TOL)
                checked += 1
                where = (ineq.id, n, r, spec.m, trial)
                if math.isnan(report.margin):
                    found.append(("NaN margin",) + where)
                elif math.isinf(report.margin) and not (report.lhs.is_zero or report.rhs.is_zero):
                    found.append(("infinite margin on two nonzero sides",) + where)
                if ineq.id in ("thm1", "cor_c1") and spec.m == 1:
                    identities += 1
                    if report.verdict is not Verdict.EQUALITY:
                        found.append((report.verdict.value,) + where)
    assert found == []
    assert checked > 700 and identities > 100


@pytest.mark.parametrize("ineq_id", PREDICATE_IDS)
def test_degenerate_draws_batch_without_warnings_as_the_scalar_loop(ineq_id, monkeypatch):
    # pytest turns any RuntimeWarning, such as log(0) on a rank-deficient stack, into an error
    runs = [search_violations(spec, ineq_id, 12).to_json_dict() for spec in _DEGENERATE]
    _scalar_record(monkeypatch, ineq_id)
    assert runs == [search_violations(spec, ineq_id, 12).to_json_dict() for spec in _DEGENERATE]


def _force_violation(monkeypatch, spec, target, batched):
    """cor_c0 reads ``violated`` on the member drawn at trial ``target``.

    The checker is wrapped to say so; with ``batched``, a test-only sides
    function gives that trial a negative margin and every other the
    checker's, with no structural equality, so only that trial reaches it.
    """
    bad_x = _drawn_family(spec, target).members[0].x
    real_check = search.check_cor_c0

    def check(t, tol=DEFAULT_TOL):
        report = real_check(t, tol)
        return replace(report, verdict=Verdict.VIOLATED) if np.array_equal(t.x, bad_x) else report

    def sides(t, r):
        members = [BlockUpperTriangular.from_matrix(matrix, r) for matrix in t]
        margins = [-1.0 if np.array_equal(m.x, bad_x) else real_check(m).margin for m in members]
        return _Sides(np.array(margins), np.zeros(len(members)),
                      structural_equality=np.zeros(len(members), dtype=bool))

    monkeypatch.setattr(search, "check_cor_c0", check)
    monkeypatch.setitem(INEQUALITIES, "cor_c0",
                        replace(INEQUALITIES["cor_c0"], sides=sides if batched else _no_verdict))


def test_stop_on_first_mid_chunk_counts_trials_as_the_scalar_loop(monkeypatch):
    spec = GeneratorSpec(family="gaussian", n=4, r=2, m=1, seed=8)
    reports = []
    for batched in (True, False):
        _force_violation(monkeypatch, spec, 5, batched)
        report = search_violations(spec, "cor_c0", 20, stop_on_first=True)
        assert report.trials == 6
        assert [v.trial_index for v in report.violations] == [5]
        assert search_violations(spec, "cor_c0", 20).trials == 20
        reports.append(report.to_json_dict())
    assert reports[0] == reports[1]


def test_recorded_witnesses_own_read_only_copies_of_their_matrices(monkeypatch):
    # a record copies its matrices out of the chunk's stack, so that it keeps no
    # whole chunk alive; they are the matrices the trial drew, bitwise
    spec = GeneratorSpec(family="gaussian", n=4, r=2, m=1, seed=8)
    reports = [sharpness_probe(replace(spec, m=3), "thm1", 70), sharpness_probe(spec, "drury", 70)]
    _force_violation(monkeypatch, spec, 5, batched=True)
    reports.append(search_violations(spec, "cor_c0", 70))
    assert [v.trial_index for v in reports[-1].violations] == [5]
    witnesses = [r.min_positive_witness for r in reports] + [reports[-1].violations[0].witness]
    for witness in witnesses:
        ineq = INEQUALITIES[witness.predicate_id]
        drawn = _one_trial(ineq, reports[0].spec if ineq.id == "thm1" else spec,
                           witness.trial_index, witness.params).witness(0)
        assert len(witness.matrices) == len(drawn.matrices)
        for matrix, want in zip(witness.matrices, drawn.matrices):
            assert matrix.flags.owndata and matrix.base is None
            assert not matrix.flags.writeable
            assert _same_bits(matrix, want)


def test_a_draw_that_raises_is_raised_only_when_the_loop_reaches_it(monkeypatch):
    # trials 0-6 draw finite entries near 1e308; trial 7's draw overflows
    spec = GeneratorSpec(family="gaussian", n=2, r=1, m=1, entry_bound=1e308, seed=11)
    with pytest.raises(LinalgError, match="seed 11, trial 7: entry_bound"):
        search_violations(spec, "cor_c0", 12)
    assert search_violations(spec, "cor_c0", 7).trials == 7
    for batched in (True, False):
        _force_violation(monkeypatch, spec, 3, batched)
        report = search_violations(spec, "cor_c0", 12, stop_on_first=True)
        assert report.trials == 4
        with pytest.raises(LinalgError, match="trial 7"):
            search_violations(spec, "cor_c0", 12)
    # an id without an evaluator: the published witness stops the search at trial 0
    e21 = GeneratorSpec(family="gaussian", n=4, r=2, entry_bound=1e308, seed=11)
    assert search_violations(e21, "e21", 12, stop_on_first=True).trials == 1


# ---------------------------------------------------------------------------
# sharpness probing


def test_sharpness_probe_tracks_min_positive_margin():
    spec = GeneratorSpec(family="gaussian", n=4, r=2, m=1, seed=21)
    report = sharpness_probe(spec, "cor_c0", 40)
    assert report.violation_count == 0
    assert report.min_positive_margin is not None and report.min_positive_margin > 0
    rerun = recheck_witness(report.min_positive_witness)
    assert rerun.margin == report.min_positive_margin


def test_sharpness_probe_does_not_inject_witnesses():
    spec = GeneratorSpec(family="integer_uniform", n=4, r=2, m=2, seed=42)
    probe = sharpness_probe(spec, "e21", 1)
    search = search_violations(spec, "e21", 1)
    assert search.violation_count == 1
    # trial 0 of the probe is a generated pair, not the published one
    assert probe.trials == 1
    if probe.violation_count:
        a = probe.violations[0].witness.matrices[0]
        b = search.violations[0].witness.matrices[0]
        assert not np.array_equal(a, b)


def test_margin_shrinks_as_y_scales_toward_zero():
    rng = np.random.default_rng(31)
    from blockdet.linalg import BlockUpperTriangular

    x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    y = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    margins = []
    for delta in (1.0, 1e-1, 1e-3):
        t = BlockUpperTriangular(x=x, y=delta * y, z=z)
        margins.append(check_cor_c0(t).margin)
    assert margins[0] > margins[1] > margins[2] > 0


def test_lemma1_margin_shrinks_with_asymmetry():
    rng = np.random.default_rng(33)
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    sym = (g + g.T) / 2
    anti = (g - g.T) / 2
    margins = []
    for delta in (1e-1, 1e-3):
        margins.append(check_lemma1(sym + delta * anti).margin)
    assert margins[0] > margins[1] > 0


# ---------------------------------------------------------------------------
# published examples


def test_reproduce_example1():
    report = reproduce_paper_example("example1")
    assert report.verdict is Verdict.VIOLATED
    assert report.lhs.value.real == pytest.approx(1.25e8, rel=5e-3)
    assert report.rhs.value.real == pytest.approx(9.93e8, rel=5e-3)


def test_reproduce_remark_minus12():
    report = reproduce_paper_example("remark_minus12")
    assert report.finding("det_xbar_x_re") == pytest.approx(-12.0, abs=1e-9)


def test_reproduce_example3():
    report = reproduce_paper_example("example3")
    assert report.verdict is Verdict.VIOLATED
    assert report.lhs.value.real == pytest.approx(5193.1, rel=2e-3)
    assert report.rhs.value.real == pytest.approx(20248.0, rel=2e-3)


def test_reproduce_unknown_id_rejected():
    with pytest.raises(ValueError, match="unknown example"):
        reproduce_paper_example("example9")


def test_compare_rows_all_pass():
    for example_id in ("example1", "remark_minus12", "example3"):
        rows = compare_paper_example(example_id)
        assert rows and all(row["pass"] for row in rows)
