"""Core linear algebra: operation examples and module invariants."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import exact
from blockdet.linalg import (
    DEFAULT_TOL,
    HERMITIAN_REL,
    MAJOR_REL,
    PIVOT_REL,
    PREDICATE_REL,
    PSD_REL,
    BlockUpperTriangular,
    ConvergenceError,
    LinalgError,
    MatrixFormatError,
    NotHermitianError,
    NotPositiveSemidefiniteError,
    ShapeError,
    SignedLogDet,
    SingularBlockError,
    abs_matrix,
    as_matrix,
    det,
    frobenius_norm,
    general_eigenvalues,
    hermitian_eigensystem,
    identity,
    matrix_from_json_dict,
    matrix_power_psd,
    matrix_to_json_dict,
    predicates,
    schur_complement,
    singular_values,
    solve,
    sort_by_modulus,
    Tolerances,
)


def _rand_complex(rng, n, m=None):
    m = n if m is None else m
    return rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))


def _rand_int(rng, n, lo=-20, hi=26):
    return rng.integers(lo, hi + 1, size=(n, n)).astype(complex)


# ---------------------------------------------------------------------------
# construction and validation


def test_identity_multiply_is_noop():
    rng = np.random.default_rng(0)
    m = _rand_complex(rng, 3)
    assert np.array_equal(identity(3) @ m, m)


def test_shape_mismatch_reports_both_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 2\).*\(3, 1\)"):
        solve(np.eye(2, dtype=complex), np.ones((3, 1), dtype=complex))


def test_nonfinite_entries_rejected():
    with pytest.raises(LinalgError, match="finite"):
        as_matrix([[np.nan, 0], [0, 1]])
    with pytest.raises(LinalgError, match="finite"):
        as_matrix([[complex(0, np.inf)]])


# ---------------------------------------------------------------------------
# frobenius norm


def test_frobenius_examples():
    assert frobenius_norm(identity(2)) == pytest.approx(math.sqrt(2), rel=1e-15)
    assert frobenius_norm(np.array([[3, 4]], dtype=complex)) == pytest.approx(5.0, rel=1e-15)
    assert frobenius_norm(np.array([[1j, 0], [0, 2]])) == pytest.approx(math.sqrt(5), rel=1e-15)


@given(st.lists(st.integers(-50, 50), min_size=4, max_size=4))
def test_frobenius_matches_trace_formula(entries):
    a = np.array(entries, dtype=complex).reshape(2, 2)
    via_trace = math.sqrt(abs(np.trace(a.conj().T @ a)))
    assert frobenius_norm(a) == pytest.approx(via_trace, rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# signed-log determinants


def test_det_identity():
    d = det(identity(5))
    assert not d.is_zero
    assert d.value == pytest.approx(1.0, rel=1e-14)


def test_det_remark_matrix_is_minus_12():
    d = det(np.array([[2, 4], [4, 2]], dtype=complex))
    assert d.value.real == pytest.approx(-12.0, abs=1e-9)
    assert abs(d.value.imag) < 1e-12


def test_det_triangular_is_diagonal_product():
    t = np.array([[2, 7, -1], [0, -3, 5], [0, 0, 4]], dtype=complex)
    d = det(t)
    assert d.value == pytest.approx(2 * (-3) * 4, rel=1e-13)


def test_det_zero_matrix_flags_zero():
    assert det(np.zeros((3, 3))).is_zero
    singular = np.array([[1, 2], [2, 4]], dtype=complex)
    assert det(singular).is_zero


def test_det_zero_flag_is_the_schur_gate_rule():
    # zero exactly when the row-equilibrated matrix has sigma_min <= PIVOT_REL * sigma_max,
    # the rule that rejects it as a leading Schur block; LU pivots can stay far above PIVOT_REL
    rng = np.random.default_rng(5)
    for _ in range(200):
        u, _ = np.linalg.qr(_rand_complex(rng, 4))
        a = (u * [1.0, 1e-2, 1e-6, 10.0 ** rng.uniform(-15, -10)]) @ u.conj().T
        work = a / np.max(np.abs(a), axis=1)[:, None]
        sigma = np.linalg.svd(work, compute_uv=False)
        padded = identity(5)
        padded[:4, :4] = work
        try:
            schur_complement(padded, 4)
            gated = False
        except SingularBlockError:
            gated = True
        assert det(a).is_zero == gated == (sigma[-1] <= PIVOT_REL * sigma[0])


def test_det_rejects_non_square():
    with pytest.raises(ShapeError):
        det(np.ones((2, 3)))


def test_det_survives_large_magnitudes():
    a = np.diag(np.full(40, 1e8)).astype(complex)
    d = det(a)
    assert d.log_magnitude == pytest.approx(40 * math.log(1e8), rel=1e-12)
    # one large row must not make the others look singular
    d = det(np.diag([1e13, 1.0, 1.0]))
    assert not d.is_zero
    assert d.log_magnitude == pytest.approx(math.log(1e13), rel=1e-14)
    # no intermediate may overflow at entries near 1e160
    rng = np.random.default_rng(2)
    g = _rand_complex(rng, 4)
    d = det(1e160 * g)
    assert not d.is_zero
    assert d.log_magnitude == pytest.approx(det(g).log_magnitude + 4 * math.log(1e160), rel=1e-12)


def test_signed_log_det_multiplication_and_zero():
    a = SignedLogDet.from_value(3 + 4j)
    b = SignedLogDet.from_value(-2.0)
    ab = a * b
    assert ab.value == pytest.approx((3 + 4j) * -2, rel=1e-12)
    assert (a * SignedLogDet.zero()).is_zero
    assert SignedLogDet.zero().log_ratio(SignedLogDet.zero()) == 0.0
    assert SignedLogDet.zero().log_ratio(a) == -math.inf
    assert a.log_ratio(SignedLogDet.zero()) == math.inf


def test_det_multiplicativity_random():
    rng = np.random.default_rng(7)
    for trial in range(200):
        n = int(rng.integers(1, 7))
        a = _rand_complex(rng, n)
        b = _rand_complex(rng, n)
        da, db, dab = det(a), det(b), det(a @ b)
        if da.is_zero or db.is_zero or dab.is_zero:
            continue
        assert dab.log_magnitude == pytest.approx(
            da.log_magnitude + db.log_magnitude, rel=1e-8, abs=1e-8
        )
        assert abs(dab.phase - da.phase * db.phase) < 1e-8


@given(st.lists(st.integers(-9, 9), min_size=9, max_size=9))
def test_det_matches_exact_cofactor_oracle(entries):
    a = np.array(entries, dtype=complex).reshape(3, 3)
    reference = exact.exact_det(exact.from_ndarray(a))
    d = det(a)
    if reference.is_zero():
        assert d.is_zero
    else:
        assert not d.is_zero
        assert d.log_magnitude == pytest.approx(exact.log_abs(reference), rel=1e-10, abs=1e-10)
        assert abs(d.phase - exact.phase(reference)) < 1e-10


def test_solve_matches_elimination():
    rng = np.random.default_rng(3)
    a = _rand_complex(rng, 5)
    b = _rand_complex(rng, 5, 2)
    x = solve(a, b)
    assert np.allclose(a @ x, b, atol=1e-10)
    with pytest.raises(SingularBlockError):
        solve(np.zeros((2, 2)), np.ones((2, 1)))
    with pytest.raises(ShapeError, match="row counts"):
        solve(np.eye(3, dtype=complex), np.ones((2, 1)))


def test_signed_log_det_normalizes_phase():
    s = SignedLogDet(3 + 4j, 2.0)
    assert abs(abs(s.phase) - 1.0) < 1e-15
    assert s.value == pytest.approx((0.6 + 0.8j) * math.exp(2.0), rel=1e-12)
    with pytest.raises(LinalgError):
        SignedLogDet(0j, 1.0)


# ---------------------------------------------------------------------------
# Hermitian eigensystem


def test_eigensystem_identity():
    w, v = hermitian_eigensystem(identity(4))
    assert np.allclose(w, 1.0)
    assert np.allclose(v.conj().T @ v, np.eye(4), atol=1e-12)


def test_eigensystem_2x2_hand_values():
    w, _ = hermitian_eigensystem(np.array([[2, 1], [1, 2]], dtype=complex))
    assert w == pytest.approx([3.0, 1.0], rel=1e-12)


def test_eigensystem_diagonal_sorted_descending():
    w, _ = hermitian_eigensystem(np.diag([5.0, -3.0]).astype(complex))
    assert w == pytest.approx([5.0, -3.0])


def test_eigensystem_reconstruction_contract():
    rng = np.random.default_rng(11)
    for trial in range(60):
        n = int(rng.integers(1, 9))
        g = _rand_complex(rng, n)
        h = (g + g.conj().T) / 2 if trial % 2 else g.conj().T @ g
        w, v = hermitian_eigensystem(h)
        norm = max(frobenius_norm(h), 1e-300)
        assert frobenius_norm((v * w) @ v.conj().T - h) <= 1e-10 * norm
        assert frobenius_norm(v.conj().T @ v - np.eye(n)) <= 1e-12
        assert np.all(np.diff(w) <= 1e-12)


def test_eigensystem_rejects_non_hermitian():
    with pytest.raises(NotHermitianError, match="deviates"):
        hermitian_eigensystem(np.array([[0, 1], [0, 0]], dtype=complex))


def _fail_lapack(monkeypatch, routine):
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("did not converge")

    monkeypatch.setattr(np.linalg, routine, no_convergence)


def test_eigensystem_convergence_error_carries_residual(monkeypatch):
    # LAPACK reports no residual; the error carries the routine and the input shape
    _fail_lapack(monkeypatch, "eigh")
    g = _rand_complex(np.random.default_rng(5), 6)
    with pytest.raises(ConvergenceError, match="eigh did not converge on a 6x6") as info:
        hermitian_eigensystem(g.conj().T @ g)
    assert (info.value.routine, info.value.shape) == ("eigh", (6, 6))


# ---------------------------------------------------------------------------
# singular values


def test_singular_values_examples():
    assert singular_values(identity(3)) == pytest.approx([1, 1, 1])
    s = singular_values(np.array([[1, 2], [0, 1]], dtype=complex))
    assert s == pytest.approx([1 + math.sqrt(2), math.sqrt(2) - 1], rel=1e-12)
    s = singular_values(np.array([[0, 1], [0, 0]], dtype=complex))
    assert s == pytest.approx([1.0, 0.0], abs=1e-12)


def test_singular_values_of_adjoint_match():
    rng = np.random.default_rng(13)
    for _ in range(40):
        n = int(rng.integers(1, 8))
        a = _rand_complex(rng, n)
        sa = singular_values(a)
        sb = singular_values(a.conj().T)
        assert np.allclose(sa, sb, rtol=1e-9, atol=1e-9 * max(1.0, sa[0]))


def test_svd_nonconvergence_raises_convergence_error(monkeypatch):
    _fail_lapack(monkeypatch, "svd")
    a = _rand_complex(np.random.default_rng(5), 4)
    for kernel in (singular_values, abs_matrix):
        with pytest.raises(ConvergenceError, match="svd did not converge") as info:
            kernel(a)
        assert (info.value.routine, info.value.shape) == ("svd", (4, 4))


# ---------------------------------------------------------------------------
# general eigenvalues


def test_general_eigenvalues_diagonal():
    lam = general_eigenvalues(np.diag([3.0, 2.0j]))
    assert lam[0] == pytest.approx(3.0)
    assert lam[1] == pytest.approx(2.0j)


def test_general_eigenvalues_triangular():
    lam = general_eigenvalues(np.array([[1, 1], [0, 1]], dtype=complex))
    assert lam == pytest.approx([1.0, 1.0])


def test_general_eigenvalues_rotation_block():
    lam = general_eigenvalues(np.array([[0, -2], [2, 0]], dtype=complex))
    assert lam[0] == pytest.approx(2j, abs=1e-12)
    assert lam[1] == pytest.approx(-2j, abs=1e-12)


def test_qr_iteration_budget_error_carries_diagnostics(monkeypatch):
    _fail_lapack(monkeypatch, "eigvals")
    with pytest.raises(ConvergenceError, match="eigvals did not converge on a 5x5") as info:
        general_eigenvalues(_rand_complex(np.random.default_rng(101), 5))
    assert (info.value.routine, info.value.shape) == ("eigvals", (5, 5))


def test_spectrum_tie_break_ordering():
    values = np.array([1 - 1j, 2.0, 1 + 1j, -2.0])
    ordered = sort_by_modulus(values)
    assert ordered == pytest.approx([2.0, -2.0, 1 + 1j, 1 - 1j])


def test_eigenvalue_product_matches_det():
    rng = np.random.default_rng(17)
    for _ in range(60):
        n = int(rng.integers(1, 9))
        a = _rand_complex(rng, n)
        lam = general_eigenvalues(a)
        d = det(a)
        if d.is_zero:
            continue
        log_prod = float(np.sum(np.log(np.abs(lam))))
        assert log_prod == pytest.approx(
            d.log_magnitude, rel=1e-8, abs=1e-8 * max(1.0, abs(d.log_magnitude))
        )


def test_weyl_majorization_invariant():
    rng = np.random.default_rng(19)
    for _ in range(60):
        n = int(rng.integers(1, 8))
        a = _rand_int(rng, n) if rng.integers(2) else _rand_complex(rng, n)
        lam = np.abs(general_eigenvalues(a))
        sig = singular_values(a)
        prod_l, prod_s = 1.0, 1.0
        for k in range(n):
            prod_l *= lam[k]
            prod_s *= sig[k]
            assert prod_l <= prod_s * (1 + 1e-8)
        if prod_s > 0:
            assert prod_l == pytest.approx(prod_s, rel=1e-8)


def test_normal_matrix_moduli_equal_singular_values():
    rng = np.random.default_rng(23)
    for _ in range(20):
        n = int(rng.integers(1, 7))
        g = _rand_complex(rng, n)
        q, _ = np.linalg.qr(g)
        d = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        a = (q * d) @ q.conj().T
        assert predicates(a).is_normal
        lam = np.abs(general_eigenvalues(a))
        sig = singular_values(a)
        assert np.allclose(lam, sig, rtol=1e-8, atol=1e-8)


# ---------------------------------------------------------------------------
# abs, powers


def test_abs_matrix_examples():
    assert np.allclose(abs_matrix(identity(3)), np.eye(3), atol=1e-12)
    a = abs_matrix(np.array([[0, 2], [0, 0]], dtype=complex))
    assert np.allclose(a, np.diag([0.0, 2.0]), atol=1e-12)
    rng = np.random.default_rng(29)
    g = _rand_complex(rng, 4)
    p = g.conj().T @ g
    assert np.allclose(abs_matrix(p), p, atol=1e-9 * frobenius_norm(p))


def test_abs_matrix_square_recovers_gram():
    rng = np.random.default_rng(31)
    for _ in range(30):
        n = int(rng.integers(1, 8))
        a = _rand_complex(rng, n)
        gram = a.conj().T @ a
        m = abs_matrix(a)
        assert frobenius_norm(m @ m - gram) <= 1e-9 * max(frobenius_norm(gram), 1e-300)


def test_matrix_power_examples():
    rng = np.random.default_rng(37)
    g = _rand_complex(rng, 3)
    p = g.conj().T @ g
    assert np.allclose(matrix_power_psd(p, 1.0), p, atol=1e-10 * frobenius_norm(p))
    assert np.allclose(matrix_power_psd(np.diag([4.0, 9.0]).astype(complex), 0.5),
                       np.diag([2.0, 3.0]), atol=1e-12)
    t = np.array([[1, 1], [0, 1]], dtype=complex)
    squared = matrix_power_psd(abs_matrix(t), 2.0)
    assert np.allclose(squared, t.conj().T @ t, atol=1e-9)


def test_matrix_power_rejects_indefinite():
    with pytest.raises(NotPositiveSemidefiniteError):
        matrix_power_psd(np.diag([1.0, -1.0]).astype(complex), 0.5)
    with pytest.raises(ValueError):
        matrix_power_psd(identity(2), -1.0)
    with pytest.raises(NotHermitianError):
        matrix_power_psd(np.array([[1, 1], [0, 1]], dtype=complex), 2.0)


def test_matrix_power_zero_exponent_gives_identity():
    rng = np.random.default_rng(97)
    g = _rand_complex(rng, 3)
    p = g.conj().T @ g
    assert np.allclose(matrix_power_psd(p, 0.0), np.eye(3), atol=1e-10)


# ---------------------------------------------------------------------------
# Schur complement


def test_schur_complement_hand_example():
    c = schur_complement(np.array([[2, 1], [1, 1]], dtype=complex), 1)
    assert c == pytest.approx(np.array([[0.5]]))
    d = det(np.array([[2, 1], [1, 1]], dtype=complex))
    assert d.value.real == pytest.approx(2 * 0.5, rel=1e-12)


def test_schur_complement_block_diagonal_passthrough():
    a = np.zeros((5, 5), dtype=complex)
    rng = np.random.default_rng(47)
    a[:2, :2] = _rand_complex(rng, 2) + 3 * np.eye(2)
    z = _rand_complex(rng, 3)
    a[2:, 2:] = z
    assert np.allclose(schur_complement(a, 2), z, atol=1e-12)
    assert np.allclose(schur_complement(identity(4), 2), np.eye(2), atol=1e-14)


def test_schur_determinant_identity_random():
    rng = np.random.default_rng(53)
    for _ in range(60):
        n = int(rng.integers(2, 9))
        r = int(rng.integers(1, n))
        a = _rand_complex(rng, n)
        try:
            c = schur_complement(a, r)
        except SingularBlockError:
            continue
        lhs = det(a[:r, :r]) * det(c)
        rhs = det(a)
        if rhs.is_zero:
            continue
        assert lhs.log_magnitude == pytest.approx(
            rhs.log_magnitude, rel=1e-8, abs=1e-8 * max(1.0, abs(rhs.log_magnitude))
        )
        assert abs(lhs.phase - rhs.phase) < 1e-8


def test_schur_rejects_singular_block_with_estimate():
    a = np.array([[0, 0, 1], [0, 0, 2], [1, 2, 3]], dtype=complex)
    with pytest.raises(SingularBlockError) as info:
        schur_complement(a, 2)
    assert info.value.condition_estimate == math.inf


# ---------------------------------------------------------------------------
# predicates


def test_predicates_hermitian_is_normal():
    h = np.array([[1, 2 + 1j], [2 - 1j, 5]], dtype=complex)
    p = predicates(h)
    assert p.is_hermitian and p.is_normal and p.is_psd


def test_predicates_shear_is_neither_normal_nor_symmetric():
    p = predicates(np.array([[1, 2], [0, 1]], dtype=complex))
    assert not p.is_normal
    assert not p.is_symmetric
    assert p.is_upper_triangular


def test_predicates_symmetric_example():
    assert predicates(np.array([[1, 2], [2, 3]], dtype=complex)).is_symmetric


def test_predicates_zero_matrix_passes_all():
    p = predicates(np.zeros((3, 3)))
    assert p.is_hermitian and p.is_psd and p.is_normal and p.is_symmetric
    assert p.is_upper_triangular


def test_predicates_complex_symmetric_not_hermitian():
    s = np.array([[1j, 2], [2, 0]], dtype=complex)
    p = predicates(s)
    assert p.is_symmetric and not p.is_hermitian


def test_predicates_classify_input_hermitian_within_their_own_gate():
    # Hermitian to 4e-11 relative: inside the predicates' 1e-10 gate, outside
    # the eigensolver's 1e-12 one; the eigenvalues come from the Hermitian part
    rng = np.random.default_rng(41)
    g = _rand_complex(rng, 4)
    psd = g.conj().T @ g
    psd = (psd + psd.conj().T) / 2
    k = _rand_complex(rng, 4)
    k = (k - k.conj().T) / 2
    a = psd + 2e-11 * frobenius_norm(psd) / frobenius_norm(k) * k
    with pytest.raises(NotHermitianError):
        hermitian_eigensystem(a)
    p = predicates(a)
    assert p.is_hermitian and p.is_psd
    assert p.min_eigenvalue == pytest.approx(float(np.linalg.eigvalsh(psd)[0]), rel=1e-8)
    assert predicates(psd).min_eigenvalue == float(hermitian_eigensystem(psd)[0][-1])
    assert predicates(k).min_eigenvalue is None


def test_tolerances_hold_only_a_positive_equality_window():
    assert [f.name for f in dataclasses.fields(Tolerances)] == ["eq_rel"]
    assert DEFAULT_TOL == Tolerances(eq_rel=1e-8)
    for bad in (0.0, -1e-8, math.nan):
        with pytest.raises(ValueError, match="must be positive"):
            Tolerances(eq_rel=bad)
    assert (PIVOT_REL, HERMITIAN_REL, PSD_REL, PREDICATE_REL, MAJOR_REL) == (
        1e-12, 1e-12, 1e-10, 1e-10, 1e-10)


# ---------------------------------------------------------------------------
# block structure


def test_block_assemble_roundtrip():
    rng = np.random.default_rng(59)
    t = BlockUpperTriangular(x=_rand_complex(rng, 2), y=_rand_complex(rng, 2, 3),
                             z=_rand_complex(rng, 3))
    full = t.assemble()
    assert np.all(full[2:, :2] == 0)
    again = BlockUpperTriangular.from_matrix(full, 2)
    assert np.array_equal(again.x, t.x)
    assert np.array_equal(again.y, t.y)
    assert np.array_equal(again.z, t.z)
    assert t.n == 5 and t.r == 2


def test_block_from_matrix_rejects_nonzero_corner():
    full = np.ones((4, 4), dtype=complex)
    with pytest.raises(ShapeError, match="exactly zero"):
        BlockUpperTriangular.from_matrix(full, 2)
    with pytest.raises(ShapeError):
        BlockUpperTriangular.from_matrix(np.zeros((4, 4)), 0)
    with pytest.raises(ShapeError):
        BlockUpperTriangular.from_matrix(np.zeros((4, 4)), 4)


def test_block_shape_validation():
    with pytest.raises(ShapeError):
        BlockUpperTriangular(x=np.ones((2, 2)), y=np.ones((3, 1)), z=np.ones((1, 1)))


# ---------------------------------------------------------------------------
# matrix JSON documents


def test_matrix_json_roundtrip_exact():
    rng = np.random.default_rng(61)
    a = _rand_complex(rng, 3, 4)
    doc = matrix_to_json_dict(a)
    assert doc["rows"] == 3 and doc["cols"] == 4
    back = matrix_from_json_dict(doc)
    assert np.array_equal(back, a)


@pytest.mark.parametrize(
    "doc, fragment",
    [
        ({"rows": 2, "cols": 2}, "missing keys"),
        ({"rows": 2, "cols": 2, "entries": [[1, 0]]}, "expected 4 entries"),
        ({"rows": 0, "cols": 2, "entries": []}, "positive"),
        ({"rows": 1, "cols": 1, "entries": [[1]]}, "entry 0"),
        ({"rows": 1, "cols": 1, "entries": [["a", 0]]}, "entry 0"),
        ({"rows": 1, "cols": 2, "entries": [[1, 0], [1e400, 0]]}, "entry 1"),
        ([1, 2], "must be an object"),
    ],
)
def test_matrix_json_rejects_malformed(doc, fragment):
    with pytest.raises(MatrixFormatError, match=fragment):
        matrix_from_json_dict(doc)
