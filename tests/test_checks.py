"""Inequality checkers: frozen examples, equality diagnosis, invariants."""

import json
import math
import warnings

import numpy as np
import pytest

import exact
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
)
from blockdet.linalg import (
    BlockUpperTriangular,
    ShapeError,
    abs_matrix,
    det,
    identity,
    matrix_power_psd,
)

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
    assert check_fischer(identity(4), 2).verdict is Verdict.EQUALITY


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
    from blockdet.linalg import schur_complement

    sum_tt = sum(m.assemble().conj().T @ m.assemble() for m in family.members)
    sum_zz = sum(m.z.conj().T @ m.z for m in family.members)
    gap = np.linalg.norm(schur_complement(sum_tt, 2) - sum_zz)
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


# ---------------------------------------------------------------------------
# cor_c0


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


@pytest.mark.parametrize("s", [1e-150, 1e160, 1e300])
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
            det(identity(n) + matrix_power_psd(abs_matrix(full), p)).log_magnitude
            - det(identity(r) + matrix_power_psd(abs_matrix(t.x), p)).log_magnitude
            - det(identity(n - r) + matrix_power_psd(abs_matrix(t.z), p)).log_magnitude
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
