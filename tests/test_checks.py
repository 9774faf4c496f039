"""Inequality checkers: frozen examples, equality diagnosis, invariants."""

import hashlib
import json
import math
import warnings

import numpy as np
import pytest

import exact
from reference import matrix_power_psd, predicates, y_zero_every_norm
from blockdet.checks import (
    BlockFamily,
    CheckReport,
    Verdict,
    check_c1_proof_step,
    check_cor_c0,
    check_cor_c1,
    check_djokovic,
    check_drury,
    check_e21,
    check_fischer,
    check_lemma1,
    check_log_major,
    check_schur_identity,
    check_thm1,
    check_thm1_schur_steps,
    check_thm2,
    check_thm3,
    check_weyl,
    _drury_sides,
    _fischer_sides,
    _is_normal,
    _is_symmetric,
    _psd,
    _VERDICTS,
    _Sides,
    _decide,
    _json_value,
    _report,
    _y_zero,
)
from blockdet.linalg import (
    DEFAULT_TOL,
    BlockUpperTriangular,
    LinalgError,
    ShapeError,
    SignedLogDet,
    det,
    _abs_matrix,
    _schur_complement,
)
from blockdet.search import INEQUALITIES, GeneratorSpec, _block_family_from

EX1_T1 = np.array([[-9, 10, 5, 12], [-7, 10, -11, -10], [0, 0, -2, 3], [0, 0, 2, 26]],
                  dtype=complex)
EX1_T2 = np.array([[13, -16, 3, 3], [-7, 9, 3, 11], [0, 0, 3, -16], [0, 0, -7, -13]],
                  dtype=complex)
EX3_T1 = np.array([[2, -3, 9, -1], [-4, 15, 1, -19], [0, 0, 0, -2], [0, 0, -4, 19]],
                  dtype=complex)
EX3_T2 = np.array([[0, 1, 6, 0], [4, -12, 12, 10], [0, 0, 14, -2], [0, 0, 23, -3]],
                  dtype=complex)


def _block(x, y, z):
    return BlockUpperTriangular(x=np.asarray(x, dtype=complex),
                                y=np.asarray(y, dtype=complex),
                                z=np.asarray(z, dtype=complex))


def _family(*matrices, r):
    return BlockFamily(tuple(BlockUpperTriangular.from_matrix(
        np.asarray(m, dtype=complex), r) for m in matrices))


def _rand_block(rng, n, r, scale=1.0, y_zero=False):
    x = scale * (rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r)))
    z = scale * (rng.standard_normal((n - r, n - r)) + 1j * rng.standard_normal((n - r, n - r)))
    if y_zero:
        y = np.zeros((r, n - r), dtype=complex)
    else:
        y = scale * (rng.standard_normal((r, n - r)) + 1j * rng.standard_normal((r, n - r)))
    return BlockUpperTriangular(x=x, y=y, z=z)


# ---------------------------------------------------------------------------
# fischer


def test_fischer_identity_is_equality():
    assert check_fischer(np.eye(4), 2).verdict is Verdict.EQUALITY


def test_fischer_hand_example_strict():
    report = check_fischer(np.array([[2, 1], [1, 1]], dtype=complex), 1)
    assert report.verdict is Verdict.HOLDS_STRICT
    assert report.margin == pytest.approx(math.log(2.0), rel=1e-10)


def test_fischer_block_diagonal_equality():
    rng = np.random.default_rng(2)
    g1 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    g2 = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    a = np.zeros((5, 5), dtype=complex)
    a[:2, :2] = g1.conj().T @ g1
    a[2:, 2:] = g2.conj().T @ g2
    assert check_fischer(a, 2).verdict is Verdict.EQUALITY


def test_fischer_rejects_non_psd():
    report = check_fischer(np.array([[1, 2], [2, 1]], dtype=complex), 1)
    assert report.verdict is Verdict.PRECONDITION_FAILED
    assert report.finding("min_eigenvalue") < 0


def test_fischer_reports_a_finite_min_eigenvalue_past_dbl_max():
    # both parts of c are 1.3e308, so its modulus overflows; no PSD matrix holds such an entry
    c = 1.3e308 * (1 + 1j)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = check_fischer(np.array([[1.3e308, c], [np.conj(c), 1.0]]), 1)
    assert report.verdict is Verdict.PRECONDITION_FAILED
    # an 80-digit reference rounds to -1.3e308
    assert report.finding("min_eigenvalue") == pytest.approx(-1.3e308, rel=1e-15)


def test_fischer_answers_on_input_hermitian_within_the_predicate_gate():
    # Hermitian to 4e-11 relative, so outside the eigensolver's 1e-12 gate
    rng = np.random.default_rng(41)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    k = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    psd = g.conj().T @ g
    psd = (psd + psd.conj().T) / 2
    k = (k - k.conj().T) / 2
    a = psd + 2e-11 * np.linalg.norm(psd) / np.linalg.norm(k) * k
    report = check_fischer(a, 2)
    assert report.verdict is check_fischer(psd, 2).verdict is Verdict.HOLDS_STRICT
    assert report.finding("is_psd") is True
    assert report.finding("min_eigenvalue") == pytest.approx(
        float(np.linalg.eigvalsh(psd)[0]), rel=1e-8)


# ---------------------------------------------------------------------------
# thm1 and its proof steps


def test_thm1_single_member_is_equality():
    report = check_thm1(_family([[1, 1, 0], [0, 2, 0], [0, 0, 3]], r=1))
    assert report.verdict is Verdict.EQUALITY
    report = check_thm1(_family([[1, 1], [0, 1]], r=1))
    assert report.verdict is Verdict.EQUALITY
    assert report.lhs.value.real == pytest.approx(1.0, rel=1e-10)
    assert report.finding("sum_xx_singular") is False


def test_thm1_flags_singular_x_sum():
    report = check_thm1(_family([[0, 1], [0, 1]], r=1))
    assert report.finding("sum_xx_singular") is True


def test_thm1_example1_family_matches_exact_oracle():
    family = _family(EX1_T1, EX1_T2, r=2)
    report = check_thm1(family)
    assert report.verdict is Verdict.HOLDS_STRICT
    lhs_exact = exact.exact_det(exact.exact_add(exact.exact_gram(exact.from_ndarray(EX1_T1)),
                                                exact.exact_gram(exact.from_ndarray(EX1_T2))))
    xs = exact.exact_add(exact.exact_gram(exact.from_ndarray(EX1_T1[:2, :2])),
                         exact.exact_gram(exact.from_ndarray(EX1_T2[:2, :2])))
    zs = exact.exact_add(exact.exact_gram(exact.from_ndarray(EX1_T1[2:, 2:])),
                         exact.exact_gram(exact.from_ndarray(EX1_T2[2:, 2:])))
    rhs_exact = exact.exact_det(xs) * exact.exact_det(zs)
    assert report.lhs.log_magnitude == pytest.approx(exact.log_abs(lhs_exact), rel=1e-10)
    assert report.rhs.log_magnitude == pytest.approx(exact.log_abs(rhs_exact), rel=1e-10)


def test_thm1_single_member_margin_zero_random():
    rng = np.random.default_rng(3)
    for _ in range(25):
        n = int(rng.integers(2, 7))
        r = int(rng.integers(1, n))
        t = _rand_block(rng, n, r)
        report = check_thm1(BlockFamily((t,)))
        assert report.verdict is Verdict.EQUALITY
        assert abs(report.margin) <= 1e-8 * max(1.0, abs(report.lhs.log_magnitude))


def test_thm1_mixed_partitions_rejected():
    t1 = _rand_block(np.random.default_rng(4), 4, 2)
    t2 = _rand_block(np.random.default_rng(5), 4, 1)
    with pytest.raises(ShapeError, match="partition"):
        BlockFamily((t1, t2))


def test_thm1_schur_steps_zero_y_and_hand_case():
    rng = np.random.default_rng(6)
    family = BlockFamily(tuple(_rand_block(rng, 4, 2, y_zero=True) for _ in range(3)))
    names = {f.name: f.value for f in check_thm1_schur_steps(family)}
    assert names == {"sum_xx_nonsingular": True, "stacked_gram_sum_psd": True,
                     "schur_complement_dominates_zz": True}
    # with every y zero the complement reduces to sum z* z exactly
    sum_tt = sum(m.assemble().conj().T @ m.assemble() for m in family.members)
    sum_zz = sum(m.z.conj().T @ m.z for m in family.members)
    complement, singular, _, _ = _schur_complement(sum_tt, 2)
    assert not singular
    gap = np.linalg.norm(complement - sum_zz)
    assert gap <= 1e-14 * np.linalg.norm(sum_zz)
    hand = _family([[1, 1], [0, 1]], r=1)
    names = {f.name: f.value for f in check_thm1_schur_steps(hand)}
    assert all(names.values())


def test_thm1_schur_steps_example1_family():
    names = {f.name: f.value for f in check_thm1_schur_steps(_family(EX1_T1, EX1_T2, r=2))}
    assert names == {"sum_xx_nonsingular": True, "stacked_gram_sum_psd": True,
                     "schur_complement_dominates_zz": True}


def test_thm1_schur_steps_singular_sum_short_circuits():
    family = _family(np.zeros((3, 3)), r=1)
    findings = check_thm1_schur_steps(family)
    assert findings == tuple(findings)
    assert findings[0].name == "sum_xx_nonsingular" and findings[0].value is False
    assert len(findings) == 1


def _schur_steps_corpus(count=1500, seed=23):
    """Seeded families at n 2-6, m 1-3 and scales 1e-150 to 1e150, with
    sum X_k* X_k = W diag(sigma^2) W* at condition 1e8 to 10^12.5 (both sides
    of the Schur gate's PIVOT_REL) and Y shrunk toward 0, one in ten exactly 0."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n, m = int(rng.integers(2, 7)), int(rng.integers(1, 4))
        r = int(rng.integers(1, n))
        scale = 10.0 ** rng.uniform(-150, 150)
        sigma = np.sqrt(np.logspace(0, -rng.uniform(8, 12.5), r)) if r > 1 else np.ones(1)
        w = _haar(rng, r)
        c = rng.standard_normal(m)
        c /= np.linalg.norm(c)
        shrink = 10.0 ** -rng.uniform(0, 16) if rng.random() < 0.9 else 0.0
        members = []
        for k in range(m):
            x = c[k] * (_haar(rng, r) * sigma) @ w.conj().T
            y = shrink * (rng.standard_normal((r, n - r)) + 1j * rng.standard_normal((r, n - r)))
            z = rng.standard_normal((n - r, n - r)) + 1j * rng.standard_normal((n - r, n - r))
            members.append(BlockUpperTriangular(x=scale * x, y=scale * y, z=scale * z))
        yield BlockFamily(tuple(members))


def _schur_steps_outcome(findings):
    """G: the gate rejects sum X* X; T: every finding true; D: the dominance
    false; P: the stacked Gram sum not PSD."""
    if not findings[0].value:
        return "G"
    if all(f.value for f in findings):
        return "T"
    return "P" if not findings[1].value else "D"


def test_thm1_schur_steps_findings_are_pinned_on_a_seeded_corpus():
    # the findings on 1,500 seeded families, pinned bitwise; all three outcomes occur
    outcomes = "".join(_schur_steps_outcome(check_thm1_schur_steps(family))
                       for family in _schur_steps_corpus())
    assert {key: outcomes.count(key) for key in "GTDP"} == {"G": 82, "T": 1409, "D": 9, "P": 0}
    assert hashlib.sha256(outcomes.encode()).hexdigest() == (
        "fc605a77a785a9e33759a8dfe27cfeeb8bf8740824af22a4128b7784c92bbfb2")


def _wide_scale_corpus(count=3000, seed=1):
    """Seeded families at n 2-5, m 1-3, each X, Y and Z of complex normal
    entries scaled by 10^u, u uniform in [-300, 300] per block: after the
    family's unit scaling, some sum X* X is subnormal yet passes the gate."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n, m = int(rng.integers(2, 6)), int(rng.integers(1, 4))
        r = int(rng.integers(1, n))
        members = []
        for _ in range(m):
            blocks = []
            for rows, cols in ((r, r), (r, n - r), (n - r, n - r)):
                g = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
                blocks.append(10.0 ** rng.uniform(-300, 300) * g)
            members.append(BlockUpperTriangular(*blocks))
        yield BlockFamily(tuple(members))


def test_thm1_schur_steps_answers_a_subnormal_sum_xx():
    # 43 of these families raised LinalgError: a Schur solve that only scaled a11
    # down formed reciprocals past DBL_MAX on a subnormal a11; 36 of them now read
    # T and 7 D.  D is the rounding of eps * ||Y||^2 against a small sum Z* Z (a
    # known defect, 303 of the other 2,957 at the parent too), pinned as it stands
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        outcomes = "".join(_schur_steps_outcome(check_thm1_schur_steps(family))
                           for family in _wide_scale_corpus())
    assert {key: outcomes.count(key) for key in "GTDP"} == {"G": 938, "T": 1752, "D": 310,
                                                             "P": 0}


# ---------------------------------------------------------------------------
# cor_c0


def _y_zero_inputs(rng):
    """(T, r) for the off-diagonal gate: single matrices and stacks at every
    scale from subnormal to past DBL_MAX, all-zero T, Y exactly 0, and Y
    swept through both the gate and the bound past which ||T||_F is not taken."""
    def g(*shape):   # largest part 1, so that any scale up to DBL_MAX stays finite
        a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        return a / np.maximum(np.abs(a.real), np.abs(a.imag)).max()

    cases = []
    for n in range(2, 7):
        for r in range(1, n):
            t = np.triu(g(n, n))
            for scale in (5e-324, 1e-310, 1e-300, 1e-150, 1.0, 1e150, 1e300, 1.7e308):
                cases.append((t * scale, r))
            for k in range(-16, -3):   # Y = 10^k Y0: through the gate and the bound
                u = t.copy()
                u[:r, r:] *= 10.0 ** k
                cases += [(u, r), (u * 1e-300, r)]
            cases.append((np.zeros((n, n), dtype=complex), r))
            x_z = t.copy()
            x_z[:r, r:] = 0.0
            cases.append((x_z, r))
            tiny = t.copy()
            tiny[1:, :] *= 1e-310   # subnormal entries beside normal ones
            cases.append((np.triu(tiny), r))
    for n, r in ((4, 2), (6, 3), (8, 2)):
        members = []
        for scale in (5e-324, 1e-300, 1.0, 1e300, 1.7e308):
            for k in (-14, -11, -10, -9, -6, 0):
                u = np.triu(g(n, n)) * scale
                u[:r, r:] *= 10.0 ** k
                members.append(u)
        members += [np.zeros((n, n), dtype=complex), np.triu(g(n, n))]
        members[-1][:r, r:] = 0.0
        stack = np.array(members)
        cases += [(stack, r), (stack[:1], r), (stack[None, :3], r), (stack[-2:], r)]
        far = np.triu(g(5, n, n))
        cases.append((far, r))   # no gate can hold
    return cases


def test_the_y_gate_is_bitwise_the_one_that_takes_every_norm():
    rng = np.random.default_rng(21)
    held = taken = 0
    for t, r in _y_zero_inputs(rng):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gate, s, y = _y_zero(t, r)
        want_gate, want_s, want_y = y_zero_every_norm(t, r)
        assert type(gate) is type(want_gate) and np.shape(gate) == np.shape(want_gate)
        assert np.array_equal(gate, want_gate)
        assert type(s) is type(want_s) and type(y) is type(want_y)
        for got, want in ((s, want_s), (y, want_y)):
            assert np.array_equal(np.asarray(got).view(np.uint64),
                                  np.asarray(want).view(np.uint64))
        held += int(np.sum(want_gate))
        taken += int(np.size(want_gate) - np.sum(want_gate))
    assert held > 100 and taken > 100   # both sides of the gate were reached


def test_cor_c0_zero_y_is_equality():
    rng = np.random.default_rng(7)
    for _ in range(10):
        t = _rand_block(rng, 5, 2, y_zero=True)
        assert check_cor_c0(t).verdict is Verdict.EQUALITY


def test_cor_c0_scalar_example_5_vs_4():
    report = check_cor_c0(_block([[1]], [[1]], [[1]]))
    assert report.verdict is Verdict.HOLDS_STRICT
    assert report.lhs.value.real == pytest.approx(5.0, rel=1e-12)
    assert report.rhs.value.real == pytest.approx(4.0, rel=1e-12)


def test_cor_c0_example1_member_strict():
    report = check_cor_c0(BlockUpperTriangular.from_matrix(EX1_T1, 2))
    assert report.verdict is Verdict.HOLDS_STRICT
    assert report.margin > 0


# ---------------------------------------------------------------------------
# cor_c1


def test_cor_c1_hermitian_blocks_single_member_equality():
    x = np.array([[2, 1 - 1j], [1 + 1j, 3]], dtype=complex)
    z = np.array([[1, 2j], [-2j, 5]], dtype=complex)
    t = BlockUpperTriangular(x=x, y=np.zeros((2, 2), dtype=complex), z=z)
    report = check_cor_c1(BlockFamily((t,)))
    assert report.verdict is Verdict.EQUALITY
    assert report.finding("blocks_all_normal") is True


def test_cor_c1_example1_violated_in_hypothesis_violated_mode():
    family = _family(EX1_T1, EX1_T2, r=2)
    report = check_cor_c1(family, allow_hypothesis_violation=True)
    assert report.verdict is Verdict.VIOLATED
    assert report.lhs.value.real == pytest.approx(1.25e8, rel=5e-3)
    assert report.rhs.value.real == pytest.approx(9.93e8, rel=5e-3)


def test_cor_c1_example1_default_mode_gates_on_hypothesis():
    report = check_cor_c1(_family(EX1_T1, EX1_T2, r=2))
    assert report.verdict is Verdict.PRECONDITION_FAILED
    assert report.finding("hypothesis_violated") is True
    assert report.finding("evaluated_verdict") == "violated"


def test_cor_c1_remark_inner_determinant_is_minus_12():
    x1 = np.array([[1, 2], [0, 1]], dtype=complex)
    members = tuple(
        BlockUpperTriangular(x=x, y=np.zeros((2, 1), dtype=complex),
                             z=np.ones((1, 1), dtype=complex))
        for x in (x1, x1.T)
    )
    report = check_cor_c1(BlockFamily(members), allow_hypothesis_violation=True)
    assert report.finding("det_xbar_x_re") == pytest.approx(-12.0, abs=1e-9)
    # the absolute value makes the bound 40 >= 24 rather than 40 >= -24
    assert report.lhs.value.real == pytest.approx(40.0, rel=1e-10)
    assert report.rhs.value.real == pytest.approx(24.0, rel=1e-10)
    assert report.verdict is Verdict.HOLDS_STRICT


def test_c1_proof_step_cases():
    rng = np.random.default_rng(8)
    real_x = rng.standard_normal((3, 3)).astype(complex)
    t = BlockUpperTriangular(x=real_x, y=np.zeros((3, 1), dtype=complex),
                             z=np.ones((1, 1), dtype=complex))
    assert check_c1_proof_step(BlockFamily((t,))).value is True
    assert check_c1_proof_step(_family(EX1_T1, EX1_T2, r=2)).value is True
    t_id = BlockUpperTriangular(x=np.eye(2, dtype=complex),
                                y=np.zeros((2, 1), dtype=complex),
                                z=np.ones((1, 1), dtype=complex))
    assert check_c1_proof_step(BlockFamily((t_id,))).value is True


@pytest.mark.parametrize("s", [1e-300, 1e-200, 1e-150, 1e160, 1e300])
def test_proof_step_findings_do_not_change_with_scale(s):
    rng = np.random.default_rng(9)
    families = [_family(EX1_T1, EX1_T2, r=2),
                BlockFamily(tuple(_rand_block(rng, 5, 2) for _ in range(3))),
                _family([[1, 2, 3], [2, 4, 5], [0, 0, 6]], r=2)]   # singular sum X*X
    for family in families:
        scaled = BlockFamily(tuple(_block(s * m.x, s * m.y, s * m.z) for m in family.members))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert check_thm1_schur_steps(scaled) == check_thm1_schur_steps(family)
            assert check_c1_proof_step(scaled) == check_c1_proof_step(family)


# ---------------------------------------------------------------------------
# lemma1 and djokovic


def test_lemma1_symmetric_is_equality():
    assert check_lemma1(np.array([[1, 2], [2, 3]], dtype=complex)).verdict is Verdict.EQUALITY


def test_lemma1_shear_8_vs_4():
    report = check_lemma1(np.array([[1, 2], [0, 1]], dtype=complex))
    assert report.verdict is Verdict.HOLDS_STRICT
    assert report.lhs.value.real == pytest.approx(8.0, rel=1e-12)
    assert report.rhs.value.real == pytest.approx(4.0, rel=1e-12)


def test_lemma1_1x1_always_equality():
    assert check_lemma1(np.array([[2 + 3j]])).verdict is Verdict.EQUALITY


def test_djokovic_examples():
    rng = np.random.default_rng(9)
    s = rng.standard_normal((3, 3))
    report = check_djokovic(((s + s.T) / 2).astype(complex))
    assert report.verdict in (Verdict.HOLDS_STRICT, Verdict.EQUALITY)
    report = check_djokovic(np.array([[0, -2], [2, 0]], dtype=complex))
    assert report.lhs.value.real == pytest.approx(9.0, rel=1e-12)
    assert report.verdict is Verdict.HOLDS_STRICT
    report = check_djokovic(np.array([[1, 2], [0, 1]], dtype=complex))
    assert report.lhs.value.real == pytest.approx(4.0, rel=1e-12)


def test_djokovic_boundary_determinant_zero():
    # conj(X) X = -I makes det(I + conj(X) X) exactly zero
    report = check_djokovic(np.array([[0, -1], [1, 0]], dtype=complex))
    assert report.verdict is Verdict.EQUALITY


# ---------------------------------------------------------------------------
# thm2


def test_thm2_equality_needs_zero_y_and_symmetry():
    rng = np.random.default_rng(10)
    x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    x = (x + x.T) / 2
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    z = (z + z.T) / 2
    t = BlockUpperTriangular(x=x, y=np.zeros((2, 2), dtype=complex), z=z)
    assert check_thm2(t).verdict is Verdict.EQUALITY


def test_thm2_shear_block_16_vs_8():
    t = _block([[1, 2], [0, 1]], np.zeros((2, 1)), [[1]])
    report = check_thm2(t)
    assert report.verdict is Verdict.HOLDS_STRICT
    assert report.lhs.value.real == pytest.approx(16.0, rel=1e-12)
    assert report.rhs.value.real == pytest.approx(8.0, rel=1e-12)


def test_thm2_symmetric_blocks_with_nonzero_y_strict():
    report = check_thm2(_block([[1]], [[1]], [[1]]))
    assert report.verdict is Verdict.HOLDS_STRICT
    assert report.lhs.value.real == pytest.approx(5.0, rel=1e-12)
    assert report.rhs.value.real == pytest.approx(4.0, rel=1e-12)


def test_thm2_rhs_never_exceeds_cor_c0_rhs():
    rng = np.random.default_rng(11)
    for _ in range(40):
        n = int(rng.integers(2, 7))
        r = int(rng.integers(1, n))
        t = _rand_block(rng, n, r, scale=2.0)
        rhs_weak = check_thm2(t).rhs
        rhs_strong = check_cor_c0(t).rhs
        assert rhs_weak.log_magnitude <= rhs_strong.log_magnitude + 1e-8


# ---------------------------------------------------------------------------
# drury


def test_drury_diagonal_equality():
    assert check_drury(np.diag([1 + 2j, 3.0, -1j])).verdict is Verdict.EQUALITY
    assert check_drury(np.zeros((3, 3))).verdict is Verdict.EQUALITY


def test_drury_shear_5_vs_4():
    report = check_drury(np.array([[1, 1], [0, 1]], dtype=complex))
    assert report.verdict is Verdict.HOLDS_STRICT
    assert report.lhs.value.real == pytest.approx(5.0, rel=1e-12)
    assert report.rhs.value.real == pytest.approx(4.0, rel=1e-12)


def test_drury_rejects_non_triangular():
    report = check_drury(np.array([[1, 0], [1, 1]], dtype=complex))
    assert report.verdict is Verdict.PRECONDITION_FAILED
    assert report.finding("is_upper_triangular") is False


# ---------------------------------------------------------------------------
# thm3


def test_thm3_zero_y_equality_for_several_exponents():
    rng = np.random.default_rng(12)
    t = _rand_block(rng, 5, 3, y_zero=True)
    for p in (1.0, 1.5, 2.0, 3.0, 7.5):
        assert check_thm3(t, p).verdict is Verdict.EQUALITY


def test_thm3_at_p2_agrees_with_cor_c0():
    rng = np.random.default_rng(13)
    for _ in range(25):
        n = int(rng.integers(2, 8))
        r = int(rng.integers(1, n))
        t = _rand_block(rng, n, r, scale=3.0)
        m_c0 = check_cor_c0(t).margin
        m_t3 = check_thm3(t, 2.0).margin
        assert m_t3 == pytest.approx(m_c0, abs=1e-8)


def test_thm3_p1_scalar_example_golden_ratio():
    report = check_thm3(_block([[1]], [[1]], [[1]]), 1.0)
    assert report.verdict is Verdict.HOLDS_STRICT
    assert report.lhs.value.real == pytest.approx(2.0 + math.sqrt(5.0), rel=1e-12)
    assert report.rhs.value.real == pytest.approx(4.0, rel=1e-12)


def test_thm3_rejects_p_below_one():
    t = _block([[1]], [[1]], [[1]])
    with pytest.raises(ValueError, match=">= 1"):
        check_thm3(t, 0.5)


def test_thm3_spectral_route_matches_matrix_route():
    rng = np.random.default_rng(14)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        r = int(rng.integers(1, n))
        t = _rand_block(rng, n, r, scale=2.0)
        p = float(rng.uniform(1.0, 3.5))
        report = check_thm3(t, p)
        full = t.assemble()
        via_matrices = (
            det(np.eye(n) + matrix_power_psd(_abs_matrix(full), p)).log_magnitude
            - det(np.eye(r) + matrix_power_psd(_abs_matrix(t.x), p)).log_magnitude
            - det(np.eye(n - r) + matrix_power_psd(_abs_matrix(t.z), p)).log_magnitude
        )
        assert report.margin == pytest.approx(via_matrices, abs=1e-9)


# ---------------------------------------------------------------------------
# log_major and weyl


def test_log_major_equal_sequences_equality():
    a = np.array([2.0, 1.0, 0.5])
    assert check_log_major(a, a, 2.0).verdict is Verdict.EQUALITY


def test_log_major_hand_example():
    report = check_log_major(np.array([1.0, 1.0]), np.array([2.0, 0.5]), 1.0)
    assert report.verdict is Verdict.HOLDS_STRICT
    assert report.lhs.value.real == pytest.approx(4.5, rel=1e-12)
    assert report.rhs.value.real == pytest.approx(4.0, rel=1e-12)


def test_log_major_from_lemma1_spectra():
    # spectra of conj(X) X and X* X for the shear [[1, 2], [0, 1]]
    a = np.array([1.0, 1.0])
    b = np.array([3.0 + 2.0 * math.sqrt(2.0), 3.0 - 2.0 * math.sqrt(2.0)])
    report = check_log_major(a, b, 1.0)
    assert report.verdict is Verdict.HOLDS_STRICT
    assert report.rhs.value.real == pytest.approx(4.0, rel=1e-12)
    assert report.lhs.value.real == pytest.approx(8.0, rel=1e-12)


def test_log_major_takes_tol_by_position_and_log_scale_by_keyword():
    a, b = np.array([2.0, 1.0]), np.array([4.0, 0.5])
    plain = check_log_major(a, b, 2.0, DEFAULT_TOL)
    assert plain == check_log_major(a, b, 2.0)
    scaled = check_log_major(a / 8.0, b / 8.0, 2.0, DEFAULT_TOL, log_scale=math.log(8.0))
    assert scaled.verdict is plain.verdict
    assert scaled.margin == pytest.approx(plain.margin, rel=1e-13)
    assert scaled.lhs.log_magnitude == pytest.approx(plain.lhs.log_magnitude, rel=1e-13)


def test_log_major_hypothesis_failure_names_prefix():
    report = check_log_major(np.array([3.0, 1.0]), np.array([2.0, 2.0]), 1.0)
    assert report.verdict is Verdict.PRECONDITION_FAILED
    assert report.finding("first_violating_k") == 1


def test_log_major_rejects_bad_sequences():
    with pytest.raises(ValueError, match="non-increasing"):
        check_log_major(np.array([1.0, 2.0]), np.array([2.0, 1.0]), 1.0)
    with pytest.raises(ValueError, match="nonnegative"):
        check_log_major(np.array([1.0, -1.0]), np.array([2.0, 1.0]), 1.0)
    with pytest.raises(ValueError, match=">= 1"):
        check_log_major(np.array([1.0]), np.array([1.0]), 0.5)


def test_weyl_normal_matrix_equality():
    rng = np.random.default_rng(15)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    q, _ = np.linalg.qr(g)
    d = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    report = check_weyl((q * d) @ q.conj().T)
    assert report.verdict is Verdict.EQUALITY


def test_weyl_shear_strict_with_tight_final_product():
    report = check_weyl(np.array([[1, 2], [0, 1]], dtype=complex))
    assert report.verdict is Verdict.HOLDS_STRICT
    assert abs(report.finding("final_product_gap")) <= 1e-10


def test_weyl_final_product_gap_within_rounding_is_not_violated():
    # The k = n gap compares two computed forms of |det A|.  With singular
    # values spread from 1 to 1e-12 both carry errors near eps * 1e12.
    rng = np.random.default_rng(17)
    for _ in range(5):
        u, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        v, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        report = check_weyl((u * np.logspace(0, -12, 4)) @ v.conj().T)
        assert report.verdict is not Verdict.VIOLATED, report.finding("final_product_gap")


def test_weyl_random_never_violated():
    rng = np.random.default_rng(16)
    for _ in range(40):
        n = int(rng.integers(1, 7))
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        assert check_weyl(a).verdict is not Verdict.VIOLATED


def _normal_and_not(rng, n):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    d = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return (q * d) @ q.conj().T, rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def test_is_normal_is_the_predicates_gate():
    # predicates: the one-matrix copy in tests/reference.py
    rng = np.random.default_rng(71)
    blocks = [np.zeros((3, 3), dtype=complex), np.array([[1, 1], [0, 1]], dtype=complex)]
    for n in (1, 2, 3, 5):
        normal, general = _normal_and_not(rng, n)
        for scale in (1.0, 1e-310, 1e-300, 1e300):   # subnormal and huge entries too
            blocks += [normal * scale, general * scale]
    # just inside and just outside the gate: N + tE crosses it as t grows
    normal, _ = _normal_and_not(rng, 3)
    shear = np.triu(rng.standard_normal((3, 3)), 1).astype(complex)
    inside, outside = 0.0, 1.0
    for _ in range(200):
        mid = (inside + outside) / 2.0
        if predicates(normal + mid * shear).is_normal:
            inside = mid
        else:
            outside = mid
    edge = [normal + inside * shear, normal + outside * shear]
    assert [predicates(b).is_normal for b in edge] == [True, False]
    blocks += edge + [np.ldexp(b.real, 990) + 1j * np.ldexp(b.imag, 990) for b in edge]
    for b in blocks:
        assert _is_normal(b) == predicates(b).is_normal
    assert sum(_is_normal(b) for b in blocks) not in (0, len(blocks))


def _gate_edge(base, push, passes):
    """base + t push at the last t in [0, 1] that ``passes`` and at the first
    that fails, bisected: the two sides of a gate."""
    inside, outside = 0.0, 1.0
    for _ in range(60):
        mid = (inside + outside) / 2.0
        if passes(base + mid * push):
            inside = mid
        else:
            outside = mid
    return [base + inside * push, base + outside * push]


def _gate_inputs(rng, n):
    """Zero, general, Hermitian, PSD, complex symmetric, normal and triangular
    n-square matrices, and pairs on both sides of each structural gate."""
    def rand():
        return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    g = rand()
    hermitian, psd, symmetric = g + g.conj().T, g.conj().T @ g, g + g.T
    normal, general = _normal_and_not(rng, n)
    upper = np.triu(rand())
    cases = [np.zeros((n, n), dtype=complex), general, hermitian, psd, symmetric, normal, upper,
             np.diag(rng.standard_normal(n)).astype(complex)]
    k = rand()
    cases += _gate_edge(psd, k - k.conj().T, lambda a: predicates(a).is_hermitian)
    if n > 1:
        v = rand()[:, :1]
        rank_one = v @ v.conj().T   # least eigenvalue at rounding level
        cases += [rank_one]
        cases += _gate_edge(rank_one, -np.eye(n), lambda a: predicates(a).is_psd)
        cases += _gate_edge(symmetric, k - k.T, lambda a: predicates(a).is_symmetric)
        cases += _gate_edge(normal, np.triu(rand(), 1), lambda a: predicates(a).is_normal)
        cases += _gate_edge(upper, np.tril(rand(), -1),
                            lambda a: predicates(a).is_upper_triangular)
    scaled = [c * scale for c in cases for scale in (1e-300, 1e-150, 1e150, 1e300)]
    exact = [np.ldexp(c.real, e) + 1j * np.ldexp(c.imag, e) for c in cases for e in (-990, 990)]
    return cases + scaled + exact


def _same_bits(x, y) -> bool:
    return np.float64(x).tobytes() == np.float64(y).tobytes()


def test_stacked_gates_are_bitwise_the_predicates_copy():
    # the proof steps' PSD test _psd, fischer's Hermitian and PSD tests and its
    # least eigenvalue, the symmetry and normality tests and drury's triangular
    # precondition, on one matrix and per matrix of a stack, against
    # tests/reference.py's predicates
    rng = np.random.default_rng(73)
    c = 1.3e308 * (1 + 1j)   # an entry modulus past DBL_MAX
    groups = {n: _gate_inputs(rng, n) for n in range(1, 7)}
    groups[2].append(np.array([[c, c], [0, c]]))
    groups[3].append(np.triu(np.full((3, 3), 1e308, dtype=complex)))   # ||A||_F overflows
    groups[4].append(1e308 * np.eye(4, dtype=complex))
    seen = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n, group in groups.items():
            expected = [predicates(a) for a in group]
            stack = np.stack(group)
            want = [[e.is_symmetric, e.is_normal, e.is_upper_triangular] for e in expected]
            for inputs in ([stack], group):
                got = [np.stack([_is_symmetric(a), _is_normal(a),
                                 ~_drury_sides(a).precondition_failed], axis=-1) for a in inputs]
                assert np.concatenate(got, axis=None).reshape(-1, 3).tolist() == want, n
            whole = _psd(stack)
            rows = [tuple(part[i] for part in whole) for i in range(len(group))]
            rows += [_psd(a) for a in group]
            if n > 1:   # fischer splits A at 0 < r < n; thm1's Gram sum is 1 x 1 at r = 1
                sides = [_fischer_sides(stack, 1)] + [_fischer_sides(a, 1) for a in group]
                rows += [(sides[0].detail[3][i], ~sides[0].precondition_failed[i],
                          sides[0].detail[4][i]) for i in range(len(group))]
                rows += [(single.detail[3], ~single.precondition_failed, single.detail[4])
                         for single in sides[1:]]
            for (hermitian, psd, least), e in zip(rows, expected * (len(rows) // len(group))):
                assert (bool(hermitian), bool(psd)) == (e.is_hermitian, e.is_psd)
                assert not e.is_hermitian or _same_bits(least, e.min_eigenvalue)
            seen += expected
    for gate in ("is_hermitian", "is_psd", "is_symmetric", "is_normal", "is_upper_triangular"):
        assert sum(getattr(e, gate) for e in seen) not in (0, len(seen)), gate


# ---------------------------------------------------------------------------
# Spectra and sums past DBL_MAX: checked on the exact quotient A/s, logs added back


def _times_2_1023(b: np.ndarray) -> np.ndarray:
    """b * 2^1023, exact: entries up to about 1.8e308, sigma_max past DBL_MAX."""
    b = np.asarray(b, dtype=complex)
    return np.ldexp(b.real, 1023) + 1j * np.ldexp(b.imag, 1023)


def _assert_scaled_report(big, small, n):
    shift = n * 1023 * math.log(2.0)
    assert big.verdict is small.verdict
    assert big.margin == pytest.approx(small.margin, abs=1e-9)
    for side_big, side_small in ((big.lhs, small.lhs), (big.rhs, small.rhs)):
        assert side_big.log_magnitude == pytest.approx(side_small.log_magnitude + shift,
                                                       rel=1e-14)


def test_weyl_past_dbl_max_is_weyl_of_the_quotient():
    rng = np.random.default_rng(72)
    for n in (2, 3, 4):
        b = rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))
        b[0] = 1 + 1j   # sigma_max(b) >= 2, so sigma_max past DBL_MAX below
        big = _times_2_1023(b)
        with np.errstate(over="ignore", invalid="ignore"):
            assert not np.isfinite(np.linalg.svd(big, compute_uv=False)).all()
        _assert_scaled_report(check_weyl(big), check_weyl(b), n)


def test_schur_identity_past_dbl_max_keeps_the_identity():
    # the complement of the leading 1x1 block, 0.5 - 8i times 2^1023, is past DBL_MAX
    b = np.array([[0.25, 1 + 1j], [1 + 1j, 0.5]])
    report = check_schur_identity(_times_2_1023(b), 1)
    assert report.verdict is Verdict.EQUALITY
    _assert_scaled_report(report, check_schur_identity(b, 1), 2)


def test_e21_past_dbl_max_is_e21_of_the_quotient():
    rng = np.random.default_rng(73)
    small = _family(*(np.triu(rng.uniform(-1, 1, (4, 4)) + 1j * rng.uniform(-1, 1, (4, 4)))
                      + np.diag([1 + 1j, 0, 0, 0]) for _ in range(2)), r=2)
    small = BlockFamily(tuple(BlockUpperTriangular(x=t.x, y=t.y, z=t.z)
                              for t in small.members))
    big = BlockFamily(tuple(BlockUpperTriangular(x=_times_2_1023(t.x), y=_times_2_1023(t.y),
                                                 z=_times_2_1023(t.z)) for t in small.members))
    _assert_scaled_report(check_e21(big), check_e21(small), 4)


def test_schur_identity_past_dbl_max_passes_the_gate_of_a_larger_leading_block():
    # sigma_max of the leading 2x2 block times 2^1023 is past DBL_MAX: the gate read
    # precondition_failed, with condition NaN, where scale 1 reads equality
    rng = np.random.default_rng(74)
    b = rng.uniform(-1, 1, (4, 4)) + 1j * rng.uniform(-1, 1, (4, 4))
    b[:2, :2] = [[1 + 1j, -1 + 1j], [1 + 1j, 1 - 1j]]
    report = check_schur_identity(_times_2_1023(b), 2)
    assert report.verdict is Verdict.EQUALITY
    _assert_scaled_report(report, check_schur_identity(b, 2), 4)
    # a leading block singular to working precision reports the condition of its quotient
    b[1, 1] = b[0, 1] = b[1, 0] = b[0, 0] * (1 + 1e-13)
    (_, small, small_top, small_bottom), (_, big, big_top, big_bottom) = (
        _schur_complement(a, 2) for a in (b, _times_2_1023(b)))
    assert small and big
    assert math.isfinite(big_top / big_bottom)
    assert big_top / big_bottom == small_top / small_bottom


def test_cor_c0_past_dbl_max_has_the_exact_margin():
    # trial 1 of fuzz --predicate cor_c0 --family gaussian --entry-bound 1e308 --n 2 --r 1
    # --seed 5: sigma(T) read (inf, 5.0e307), so the margin read +inf, the equality window
    # inf, and margin_within_equality_band followed from that alone
    drawn, _ = INEQUALITIES["cor_c0"].draw_trials(GeneratorSpec("gaussian", 2, 1, 1, 1e308, 5),
                                                  range(1, 2), {"r": 1})
    t = _block_family_from(drawn.witness(0)).members[0]
    report = check_cor_c0(t)

    def det_i_plus_gram(block):   # det(I + B*B), exactly
        b = exact.from_ndarray(block)
        return exact.exact_det(exact.exact_add(exact.exact_identity(len(b)), exact.exact_gram(b)))

    lhs = det_i_plus_gram(t.assemble())
    rhs = det_i_plus_gram(t.x) * det_i_plus_gram(t.z)
    assert lhs.im == 0 and rhs.im == 0
    exact_margin = math.log(lhs.re / rhs.re)   # the ratio is 1 + O(1e-600)
    assert math.isfinite(report.margin)
    assert report.margin == pytest.approx(exact_margin, abs=1e-9)
    window = 1e-8 * report.lhs.log_magnitude
    in_band = any(f.name == "margin_within_equality_band" for f in report.diagnostics)
    assert in_band == (abs(exact_margin) <= window)
    assert report.verdict is Verdict.HOLDS_STRICT   # Y is not zero


def test_report_refuses_a_nan_side_or_margin():
    for lhs, rhs, side in ((math.nan, 1.0, "lhs"), (1.0, math.nan, "rhs")):
        with pytest.raises(LinalgError, match=f"thm1: the {side} is NaN"):
            _report("thm1", _Sides(lhs, rhs), DEFAULT_TOL)
    with pytest.raises(LinalgError, match="djokovic: the margin is NaN"):
        _report("djokovic", _Sides(1.0, 1.0, margin=math.nan), DEFAULT_TOL)
    with pytest.raises(LinalgError, match="NaN"):
        _json_value(math.nan)
    assert _json_value(-math.inf) == "-inf"


def test_the_verdict_rule_gives_a_nan_no_verdict():
    # NaN compares false everywhere: elementwise it would read holds_strict
    tol = DEFAULT_TOL
    for windowed, log_lhs in ((math.nan, 0.0), (1.0, math.nan), (-math.inf, math.nan)):
        assert _VERDICTS[_decide(windowed, log_lhs, tol)[0]] is None
        code, _ = _decide(windowed, log_lhs, tol, True, precondition_failed=True)
        assert _VERDICTS[code] is None
    codes, _ = _decide(np.array([1.0, math.nan, 1.0, 0.0]), np.array([0.0, 0.0, math.nan, 0.0]),
                       tol, np.array([False, True, False, True]))
    assert [_VERDICTS[c] for c in codes.tolist()] == [
        Verdict.HOLDS_STRICT, None, None, Verdict.EQUALITY]


# (windowed, log lhs, structural equality, identity gap, phase gap, precondition
# failed, verdict, finding): one row per branch of _report
_RULE_CASES = [
    (1.0, 0.0, None, 0.0, 0.0, False, Verdict.HOLDS_STRICT, None),
    (math.inf, 0.0, None, 0.0, 0.0, False, Verdict.HOLDS_STRICT, None),
    (1e-9, 0.0, None, 0.0, 0.0, False, Verdict.EQUALITY, None),
    (0.0, 0.0, None, 0.0, 0.0, False, Verdict.EQUALITY, None),
    (-5e-7, 100.0, None, 0.0, 0.0, False, Verdict.EQUALITY, None),
    (-2e-6, 100.0, None, 0.0, 0.0, False, Verdict.VIOLATED, None),
    (-1.0, 0.0, None, 0.0, 0.0, False, Verdict.VIOLATED, None),
    (-math.inf, 0.0, None, 0.0, 0.0, False, Verdict.VIOLATED, None),
    (1.0, 0.0, None, 1e-6, 0.0, False, Verdict.VIOLATED, None),
    (0.0, 0.0, None, 0.0, 1e-7, False, Verdict.VIOLATED, None),
    (-1.0, 0.0, None, 0.0, 0.0, True, Verdict.PRECONDITION_FAILED, None),
    (1.0, 0.0, True, 0.0, 0.0, False, Verdict.EQUALITY, "structural_numeric_mismatch"),
    (0.0, 0.0, True, 0.0, 0.0, False, Verdict.EQUALITY, None),
    (1.0, 0.0, False, 0.0, 0.0, False, Verdict.HOLDS_STRICT, None),
    (1e-9, 0.0, False, 0.0, 0.0, False, Verdict.HOLDS_STRICT, "margin_within_equality_band"),
    (-1.0, 0.0, True, 0.0, 0.0, False, Verdict.VIOLATED, "structural_numeric_mismatch"),
    (-1.0, 0.0, False, 0.0, 0.0, False, Verdict.VIOLATED, None),
    (0.0, 0.0, False, 0.0, 1e-7, False, Verdict.VIOLATED, None),
    (-1.0, 0.0, True, 0.0, 0.0, True, Verdict.PRECONDITION_FAILED, None),
    (1e-9, 0.0, False, 0.0, 0.0, True, Verdict.PRECONDITION_FAILED, None),
]


def test_the_verdict_rule_takes_each_branch_of_report_elementwise():
    tol = DEFAULT_TOL
    for structural in (False, True):
        cases = [case for case in _RULE_CASES if (case[2] is not None) == structural]
        windowed, log_lhs, equal, identity, phase, failed, verdicts, findings = zip(*cases)
        codes, _ = _decide(np.array(windowed), np.array(log_lhs), tol,
                           np.array(equal) if structural else None, np.array(identity),
                           np.array(phase), np.array(failed))
        assert [_VERDICTS[c] for c in codes.tolist()] == list(verdicts)
        for case in cases:
            w, lhs, eq, identity, phase, failed, verdict, finding = case
            report = _report("rule", _Sides(lhs, 0.0, structural_equality=eq,
                                            precondition_failed=failed, margin=w,
                                            identity_gap=identity, phase_gap=phase), tol)
            assert report.verdict is verdict, case
            assert [f.name for f in report.diagnostics] == ([finding] if finding else []), case


def test_abs_matrix_near_dbl_max_is_finite():
    b = np.array([[1.5, 0.25], [0, 0.5j]])
    big = _abs_matrix(_times_2_1023(b))   # sigma_max below DBL_MAX, |T| + |T|* past it
    assert np.isfinite(big).all()
    assert np.allclose(big / 2.0 ** 1023, _abs_matrix(b), rtol=1e-14, atol=0.0)


# ---------------------------------------------------------------------------
# schur identity checker


def test_schur_identity_random_equality():
    rng = np.random.default_rng(17)
    for _ in range(30):
        n = int(rng.integers(2, 8))
        r = int(rng.integers(1, n))
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        report = check_schur_identity(a, r)
        assert report.verdict is Verdict.EQUALITY
        assert report.finding("phase_distance") <= 1e-8


def test_schur_identity_singular_block_precondition():
    a = np.zeros((3, 3), dtype=complex)
    a[2, 2] = 1.0
    report = check_schur_identity(a, 1)
    assert report.verdict is Verdict.PRECONDITION_FAILED
    assert report.finding("leading_block_condition") == "inf"


# ---------------------------------------------------------------------------
# e21


def test_e21_identical_members_zero_y_equality():
    rng = np.random.default_rng(18)
    t = _rand_block(rng, 4, 2, y_zero=True)
    report = check_e21(BlockFamily((t, t)))
    assert report.verdict is Verdict.EQUALITY


def test_e21_zero_second_member_equality():
    rng = np.random.default_rng(19)
    t = _rand_block(rng, 4, 2, y_zero=True)
    zero = BlockUpperTriangular(x=np.zeros((2, 2)), y=np.zeros((2, 2)), z=np.zeros((2, 2)))
    report = check_e21(BlockFamily((t, zero)))
    assert report.verdict is Verdict.EQUALITY


def test_e21_example3_violated_with_paper_values():
    report = check_e21(_family(EX3_T1, EX3_T2, r=2))
    assert report.verdict is Verdict.VIOLATED
    assert report.lhs.value.real == pytest.approx(5193.1, rel=2e-3)
    assert report.rhs.value.real == pytest.approx(20248.0, rel=2e-3)


def test_e21_needs_exactly_two_members():
    rng = np.random.default_rng(20)
    t = _rand_block(rng, 4, 2)
    with pytest.raises(ShapeError, match="exactly two"):
        check_e21(BlockFamily((t, t, t)))


# ---------------------------------------------------------------------------
# cross-checker invariants


def test_unconditional_checkers_never_violated_random():
    rng = np.random.default_rng(21)
    for trial in range(60):
        n = int(rng.integers(2, 7))
        r = int(rng.integers(1, n))
        scale = float(rng.choice([0.5, 1.0, 5.0]))
        t = _rand_block(rng, n, r, scale=scale)
        fam = BlockFamily(tuple(_rand_block(rng, n, r, scale=scale)
                                for _ in range(int(rng.integers(1, 4)))))
        assert check_thm1(fam).verdict is not Verdict.VIOLATED
        assert check_cor_c0(t).verdict is not Verdict.VIOLATED
        assert check_thm2(t).verdict is not Verdict.VIOLATED
        tri = np.triu(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        assert check_drury(tri).verdict is not Verdict.VIOLATED
        assert check_thm3(t, float(rng.choice([1.0, 1.5, 2.0, 3.0]))).verdict \
            is not Verdict.VIOLATED
        x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        assert check_lemma1(x).verdict is not Verdict.VIOLATED
        assert check_djokovic(x).verdict is not Verdict.VIOLATED


def test_equality_verdicts_match_structure_both_ways():
    rng = np.random.default_rng(22)
    for _ in range(30):
        n = int(rng.integers(2, 6))
        r = int(rng.integers(1, n))
        t = _rand_block(rng, n, r)
        report = check_cor_c0(t)
        structurally_zero = report.finding("y_frobenius") <= 1e-10 * (1 + 1.0)
        assert (report.verdict is Verdict.EQUALITY) == structurally_zero
        x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        report = check_lemma1(x)
        assert (report.verdict is Verdict.EQUALITY) == report.finding("is_symmetric")


def test_report_json_roundtrip():
    report = check_cor_c0(_block([[1]], [[1]], [[1]]))
    doc = report.to_json_dict()
    assert set(doc) == {"inequality_id", "lhs", "rhs", "margin", "verdict", "diagnostics"}
    assert set(doc["lhs"]) == {"phase_re", "phase_im", "log_magnitude", "is_zero"}
    text = json.dumps(doc)
    back = CheckReport.from_json_dict(json.loads(text))
    assert back == report


def test_report_json_handles_infinite_margin():
    # singular PSD input: det A = 0 while the block determinants are 1
    report = check_fischer(np.array([[1, 1], [1, 1]], dtype=complex), 1)
    assert report.margin == math.inf
    assert report.rhs.is_zero
    back = CheckReport.from_json_dict(json.loads(json.dumps(report.to_json_dict())))
    assert back.margin == math.inf
    assert back == report

    zero = BlockUpperTriangular(x=np.zeros((1, 1)), y=np.zeros((1, 1)), z=np.zeros((1, 1)))
    both_zero = check_thm1(BlockFamily((zero,)))
    assert both_zero.margin == 0.0
    assert both_zero.verdict is Verdict.EQUALITY


# ---------------------------------------------------------------------------
# extreme scales and bad conditioning: inputs that once gave wrong verdicts


def _extreme_inputs():
    rng = np.random.default_rng(2026)

    def g(rows, cols=None):
        cols = rows if cols is None else cols
        return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))

    def spread(sigma):
        u, _ = np.linalg.qr(g(len(sigma)))
        v, _ = np.linalg.qr(g(len(sigma)))
        return (u * np.asarray(sigma)) @ v.conj().T

    t1, t2, a, upper = _block(g(2), g(2), g(2)), _block(g(2), g(2), g(2)), g(4), np.triu(g(4))
    vec = [g(2, 1) for _ in range(5)]
    rank1 = _block(1e8 * vec[0] @ vec[1].conj().T, 1e8 * vec[0] @ vec[2].conj().T,
                   1e8 * vec[3] @ vec[4].conj().T)
    spread_t = _block(spread([1.0, 1e-12]), g(2), spread([1e6, 1e-6]))
    partner = _block(g(2), g(2), g(2))
    t3 = _block(np.eye(2), 1e6 * np.ones((2, 1)), np.eye(1))
    d13 = np.diag([1e13, 1.0, 1.0]).astype(complex)
    d13_block = BlockUpperTriangular.from_matrix(d13, 1)

    one_huge = g(3)
    one_huge[0, 0] = 1e160

    def herm(n):
        h = g(n)
        return (h + h.conj().T) / 2

    normal1, normal2 = _block(herm(2), g(2), herm(2)), _block(herm(2), g(2), herm(2))

    def scaled(t, s):
        return _block(s * t.x, s * t.y, s * t.z)

    # entries of 1e308: every ||T||_F overflows, every singular value stays finite
    huge = 1e308 * np.eye(2)
    shear_1e308, y0_1e308 = _block(huge, huge, np.zeros((2, 2))), _block(huge, 0 * huge, huge)
    upper_1e308 = 1e308 * np.array([[1, 1, 0], [0, 1, 0], [0, 0, 1]], dtype=complex)
    past_dbl_max = 0.5e308 * np.array([[1 + 1j, -1 + 2j], [1 - 1j, 2.6 + 2.6j]])

    cases = {
        "t3_1e6.cor_c0": (lambda: check_cor_c0(t3), Verdict.HOLDS_STRICT),
        "t3_1e6.thm2": (lambda: check_thm2(t3), Verdict.HOLDS_STRICT),
        "t3_1e6.thm1": (lambda: check_thm1(BlockFamily((t3,))), Verdict.EQUALITY),
        "thm1_y1e4": (lambda: check_thm1(BlockFamily((
            _block(np.eye(2), 1e4 * np.ones((2, 2)), np.eye(2)),))), Verdict.EQUALITY),
        "diag1e13.cor_c0": (lambda: check_cor_c0(d13_block), Verdict.EQUALITY),
        "diag1e13.thm3": (lambda: check_thm3(d13_block, 2.0), Verdict.EQUALITY),
        "diag1e13.drury": (lambda: check_drury(d13), Verdict.EQUALITY),
        "diag1e13.fischer": (lambda: check_fischer(d13, 1), Verdict.EQUALITY),
        "diag1e13.thm1": (lambda: check_thm1(BlockFamily((d13_block,))), Verdict.EQUALITY),
        "rank1.thm1": (lambda: check_thm1(BlockFamily((rank1, partner))), Verdict.HOLDS_STRICT),
        "rank1.thm3": (lambda: check_thm3(rank1, 1.0), Verdict.HOLDS_STRICT),
        "spread.thm1": (lambda: check_thm1(BlockFamily((spread_t, partner))),
                        Verdict.HOLDS_STRICT),
        "spread.thm1_one_member": (lambda: check_thm1(BlockFamily((spread_t,))),
                                   Verdict.EQUALITY),
        "1e+160.lemma1": (lambda: check_lemma1(1e160 * a), Verdict.HOLDS_STRICT),
        "1e+160.lemma1_symmetric": (lambda: check_lemma1(1e160 * (a + a.T)), Verdict.EQUALITY),
        "1e+160.djokovic": (lambda: check_djokovic(1e160 * a), Verdict.HOLDS_STRICT),
        "1e+160.thm2": (lambda: check_thm2(scaled(t1, 1e160)), Verdict.HOLDS_STRICT),
        "one_huge_entry.djokovic": (lambda: check_djokovic(one_huge), Verdict.HOLDS_STRICT),
        "1e+160.drury": (lambda: check_drury(1e160 * upper), Verdict.HOLDS_STRICT),
        "1e+160.cor_c1_normal": (lambda: check_cor_c1(BlockFamily((
            scaled(normal1, 1e160), scaled(normal2, 1e160)))), Verdict.HOLDS_STRICT),
        "1e+160.cor_c1_not_normal": (lambda: check_cor_c1(BlockFamily((
            scaled(t1, 1e160), scaled(t2, 1e160)))), Verdict.PRECONDITION_FAILED),
        "1e+160.cor_c1_allowed": (lambda: check_cor_c1(BlockFamily((
            scaled(t1, 1e160), scaled(t2, 1e160))), allow_hypothesis_violation=True),
                                  check_cor_c1(BlockFamily((t1, t2)),
                                               allow_hypothesis_violation=True).verdict),
        "1e+308.cor_c0_shear": (lambda: check_cor_c0(shear_1e308), Verdict.HOLDS_STRICT),
        "1e+308.thm3_shear": (lambda: check_thm3(shear_1e308, 2.0), Verdict.HOLDS_STRICT),
        "1e+308.thm2_shear": (lambda: check_thm2(shear_1e308), Verdict.HOLDS_STRICT),
        "1e+308.cor_c0_y0": (lambda: check_cor_c0(y0_1e308), Verdict.EQUALITY),
        "1e+308.thm2_y0": (lambda: check_thm2(y0_1e308), Verdict.EQUALITY),
        "1e+308.drury_shear": (lambda: check_drury(upper_1e308), Verdict.HOLDS_STRICT),
        "1e+308.drury_diagonal": (lambda: check_drury(1e308 * np.eye(4)), Verdict.EQUALITY),
        # both parts 1.3e308: every entry is finite, the modulus of the largest is not
        "dbl_max_modulus.djokovic": (lambda: check_djokovic(past_dbl_max), Verdict.HOLDS_STRICT),
        "dbl_max_modulus.lemma1": (lambda: check_lemma1(past_dbl_max), Verdict.HOLDS_STRICT),
        "dbl_max_modulus.lemma1_symmetric": (lambda: check_lemma1(past_dbl_max / 2 + past_dbl_max.T / 2),
                                             Verdict.EQUALITY),
    }
    for s in (1e100, 1e160):
        cases[f"{s:.0e}.cor_c0"] = (lambda s=s: check_cor_c0(scaled(t1, s)), Verdict.HOLDS_STRICT)
        cases[f"{s:.0e}.thm1"] = (lambda s=s: check_thm1(BlockFamily((scaled(t1, s), scaled(t2, s)))),
                                  Verdict.HOLDS_STRICT)
    for s in (1e100, 1e150):
        cases[f"{s:.0e}.drury"] = (lambda s=s: check_drury(s * upper), Verdict.HOLDS_STRICT)
    for s in (1e-150, 1e-100, 1e100, 1e150):
        cases[f"{s:.0e}.weyl"] = (lambda s=s: check_weyl(s * a), Verdict.HOLDS_STRICT)
    for s in (1e-150, 1e-100):
        cases[f"{s:.0e}.schur_identity"] = (lambda s=s: check_schur_identity(s * a, 2),
                                            Verdict.EQUALITY)
    return cases


_EXTREME = _extreme_inputs()


@pytest.mark.parametrize("case", sorted(_EXTREME))
def test_verdicts_right_at_extreme_scale_and_conditioning(case):
    run, expected = _EXTREME[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = run()
    assert report.verdict is expected, (report.verdict, report.margin)


@pytest.mark.parametrize("case", ["1e+308.cor_c0_shear", "1e+308.thm3_shear",
                                  "1e+308.thm2_shear"])
def test_overflowing_frobenius_norm_keeps_the_shear_margin(case):
    # X = 1e308 I, Y = 1e308 I, Z = 0: the margin is 2 log((1 + 2a^2) / (1 + a^2)), about 2 log 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = _EXTREME[case][0]()
    assert report.margin == pytest.approx(2.0 * math.log(2.0), rel=1e-9)
    assert report.finding("y_frobenius") == pytest.approx(math.sqrt(2.0) * 1e308)


# ---------------------------------------------------------------------------
# Bordered determinants at a wide singular-value spread: det(I + conj(X) X),
# det(sum conj(X_k) X_k) and the proof step's determinants


def _haar(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _spread_draws(s, n, count=200):
    """X = U diag(logspace(s, -s, n)) V for Haar unitaries U and V.

    Forming conj(X) X rounds at eps * 10^(2s), which swamps the identity: on
    these draws the product route read djokovic ``violated`` in about 190 of
    200 at s = 5, and ``violated`` or ``equality`` in all 200 at s = 6.
    """
    rng = np.random.default_rng(5)
    sigma = np.logspace(s, -s, n)
    return [(_haar(rng, n) * sigma) @ _haar(rng, n) for _ in range(count)]


@pytest.mark.parametrize("s", [5, 6])
def test_djokovic_holds_at_a_wide_singular_value_spread(s):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        reports = [check_djokovic(x) for x in _spread_draws(s, 4)]
    assert {r.verdict for r in reports} == {Verdict.HOLDS_STRICT}
    assert max(abs(r.finding("phase_im")) for r in reports) < 1e-9


@pytest.mark.parametrize("s", [5, 6])
def test_lemma1_right_at_a_wide_singular_value_spread(s):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        symmetric = [check_lemma1((x + x.T) / 2) for x in _spread_draws(s, 3)]
        general = [check_lemma1(x) for x in _spread_draws(s, 3)]
    # equality holds exactly for symmetric X; the margin stays inside the window
    assert {r.verdict for r in symmetric} == {Verdict.EQUALITY}
    assert not any(f.name == "structural_numeric_mismatch" for r in symmetric
                   for f in r.diagnostics)
    assert {r.verdict for r in general} == {Verdict.HOLDS_STRICT}
    assert all(math.isfinite(r.margin) and not r.rhs.is_zero for r in general)


@pytest.mark.parametrize("s", [5, 6])
def test_thm2_right_at_a_wide_singular_value_spread(s):
    rng = np.random.default_rng(7)
    pairs = zip(_spread_draws(s, 3), reversed(_spread_draws(s, 3)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        reports = [check_thm2(_block(x, rng.standard_normal((3, 3)), z)) for x, z in pairs]
    assert {r.verdict for r in reports} == {Verdict.HOLDS_STRICT}
    assert all(math.isfinite(r.margin) for r in reports)


def _normal_draw(rng, n, s):
    """X = U diag(logspace(s, -s, n) e^(i theta)) U* for a Haar unitary U."""
    u = _haar(rng, n)
    return (u * (np.logspace(s, -s, n) * np.exp(2j * np.pi * rng.random(n)))) @ u.conj().T


def test_cor_c1_single_member_is_equality_at_a_wide_singular_value_spread():
    # at m = 1 the claim is the identity |det T|^2 = |det X|^2 |det Z|^2; forming
    # conj(X) X read 91 of these 200 violated and the other 109 holds_strict
    rng = np.random.default_rng(11)
    members = [_block(_normal_draw(rng, 2, 3), rng.standard_normal((2, 2)), _normal_draw(rng, 2, 3))
               for _ in range(200)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        reports = [check_cor_c1(BlockFamily((t,))) for t in members]
    assert {r.verdict for r in reports} == {Verdict.EQUALITY}


def test_cor_c1_single_member_is_equality_past_the_t_stack_rank_floor():
    # sigma_min(T) = 3 is below the T stack's rank floor 2 eps sigma_max, which
    # zeroed the left side alone: the identity read violated, margin -inf
    t = _block([[1.3e100 * (1 + 1j)]], [[1.0]], [[3.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        reports = [check(BlockFamily((t,))) for check in (check_cor_c1, check_thm1)]
    assert [(r.verdict, r.lhs.is_zero, r.rhs.is_zero) for r in reports] == [
        (Verdict.EQUALITY, True, True)] * 2


def test_cor_c1_single_member_is_equality_at_tiny_entries():
    # unscaled, the identity block of the bordered matrix dwarfs blocks near 1e-100
    # and the right side is flagged zero (margin +inf)
    verdicts = set()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for family in ("gaussian", "symmetric", "normal_via_unitary_conjugation"):
            for n in range(2, 7):
                spec = GeneratorSpec(family=family, n=n, r=n // 2, m=1, entry_bound=1e-100, seed=3)
                drawn, _ = INEQUALITIES["cor_c1"].draw_trials(spec, range(8), {"r": n // 2})
                for trial in range(8):
                    report = check_cor_c1(_block_family_from(drawn.witness(trial)),
                                          allow_hypothesis_violation=True)
                    verdicts.add((report.verdict, math.isfinite(report.margin)))
    assert verdicts == {(Verdict.EQUALITY, True)}


def _exact_proof_step_psd(family):
    """Whether [[det sum conj(X)X', det sum conj(X)X], [det sum X*X', det sum X*X]]
    is PSD, in exact rational arithmetic; the matrix is Hermitian."""
    xs = [exact.from_ndarray(m.x) for m in family.members]

    def det_sum(left, right):
        total = None
        for x in xs:
            term = exact.exact_matmul(left(x), right(x))
            total = term if total is None else exact.exact_add(total, term)
        return exact.exact_det(total)

    d11 = det_sum(exact.exact_conj, exact.exact_transpose)
    d12 = det_sum(exact.exact_conj, lambda x: x)
    d22 = det_sum(exact.exact_adjoint, lambda x: x)
    return d11.re >= 0 and d22.re >= 0 and d11.re * d22.re - d12.abs2() >= 0


@pytest.mark.parametrize("s", [4, 5])
def test_c1_proof_step_right_at_a_wide_singular_value_spread(s):
    # forming the Gram-type sums read "not PSD" on all 50 of these families
    rng = np.random.default_rng(13)
    families = [BlockFamily(tuple(_block(_normal_draw(rng, 3, s), np.zeros((3, 1)),
                                         np.ones((1, 1))) for _ in range(2)))
                for _ in range(50)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        found = [check_c1_proof_step(family).value for family in families]
    assert found == [_exact_proof_step_psd(family) for family in families]
