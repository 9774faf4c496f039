"""Core linear algebra: operation examples and module invariants."""

import dataclasses
import math
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.linalg import _umath_linalg

import exact
from blockdet import search
from blockdet.checks import _drury_sides, _is_normal, _is_symmetric, _psd, check_fischer
from reference import (
    NotPositiveSemidefiniteError,
    matrix_power_psd,
    per_entry_matrix_from_json_dict,
)
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
    ShapeError,
    SignedLogDet,
    as_matrix,
    det,
    general_eigenvalues,
    hermitian_eigensystem,
    matrix_from_json_dict,
    matrix_to_json_dict,
    singular_values,
    Tolerances,
    _abs_matrix,
    _det_parts,
    _lapack,
    _rescaled,
    _schur_complement,
    _signed_log_det,
)


def _rand_complex(rng, n, m=None):
    m = n if m is None else m
    return rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))


def _rand_int(rng, n, lo=-20, hi=26):
    return rng.integers(lo, hi + 1, size=(n, n)).astype(complex)


# ---------------------------------------------------------------------------
# construction and validation


def test_shape_mismatch_reports_both_shapes():
    with pytest.raises(ShapeError, match=r"2x1, got \(3, 1\)"):
        BlockUpperTriangular(x=np.eye(2, dtype=complex), y=np.ones((3, 1), dtype=complex),
                             z=np.ones((1, 1), dtype=complex))


def test_nonfinite_entries_rejected():
    with pytest.raises(LinalgError, match="finite"):
        as_matrix([[np.nan, 0], [0, 1]])
    with pytest.raises(LinalgError, match="finite"):
        as_matrix([[complex(0, np.inf)]])


# ---------------------------------------------------------------------------
# signed-log determinants


def test_det_identity():
    d = det(np.eye(5))
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
        padded = np.eye(5, dtype=complex)
        padded[:4, :4] = work
        gated = _schur_complement(padded, 4)[1]
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


def test_det_and_predicates_where_an_entry_modulus_exceeds_dbl_max():
    # both parts 1.3e308: the matrix is finite, the modulus 1.84e308 of an entry is not
    c = 1.3e308 * (1 + 1j)
    shear = np.array([[c, c], [0, c]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        d = det(shear)
        upper, symmetric, normal = (_is_upper_triangular(shear), _is_symmetric(shear),
                                    _is_normal(shear))
    assert not d.is_zero
    assert d.log_magnitude == pytest.approx(2.0 * (math.log(1.3e308) + 0.5 * math.log(2.0)),
                                            rel=1e-14)
    assert d.phase == pytest.approx(1j, abs=1e-15)   # c^2 = 2 * 1.3e308^2 * i
    assert upper and not symmetric and not normal


def test_det_of_a_row_whose_largest_modulus_is_subnormal():
    # numpy divides a complex by a float through its reciprocal, and 1 / 1e-310 overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        d = det(np.array([[1e-310, 0], [0, 1]]))
        shear = det(np.array([[2e-310, 1e-310j], [0, 3.0]]))
    assert not d.is_zero and d.phase == 1.0
    assert d.log_magnitude == pytest.approx(math.log(1e-310), rel=1e-12)
    assert shear.log_magnitude == pytest.approx(math.log(6e-310), rel=1e-12)


def _det_bits(d: SignedLogDet) -> tuple:
    return (d.is_zero,) if d.is_zero else (
        np.complex128(d.phase).tobytes(), np.float64(d.log_magnitude).tobytes())


def _edge_stack(rng, n: int) -> np.ndarray:
    """Random n-square matrices, and each of det's edge cases at least once."""
    mats = [_rand_complex(rng, n) * 10.0 ** rng.integers(-200, 200) for _ in range(12)]
    for k, a in enumerate(_rand_complex(rng, n) for _ in range(8)):
        row = k % n
        if k % 4 == 0:
            a[row] = 0.0                           # an all-zero row
        elif k % 4 == 1:
            a[row] *= 1e-310                       # a row whose largest modulus is subnormal
        elif k % 4 == 2:
            a[row] = 1.3e308 * (1 + 1j)            # moduli above DBL_MAX, finite parts
        else:
            a[row] = a[(row + 1) % n] if n > 1 else 0.0   # flagged zero by the SVD rule
        mats.append(a)
    mats.append(np.zeros((n, n)))
    return np.array(mats)


@pytest.mark.parametrize("n", [1, 2, 4, 7])
def test_stacked_det_parts_are_each_matrix_det_bitwise(n):
    rng = np.random.default_rng(100 + n)
    stack = _edge_stack(rng, n)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sign, log_mag, zero = _det_parts(stack)
        nested = _det_parts(stack.reshape(3, -1, n, n))
        singles = [det(a) for a in stack]
    assert sign.shape == log_mag.shape == zero.shape == (len(stack),)
    assert {d.is_zero for d in singles} == {True, False}
    for k, d in enumerate(singles):
        assert _det_bits(_signed_log_det(sign[k], log_mag[k], zero[k])) == _det_bits(d), k
        assert _det_bits(_signed_log_det(*(part.reshape(-1)[k] for part in nested))) == _det_bits(d)
        assert _det_bits(_signed_log_det(*_det_parts(stack[k]))) == _det_bits(d)


def test_signed_log_det_multiplication_and_zero():
    a = SignedLogDet.from_value(3 + 4j)
    b = SignedLogDet.from_value(-2.0)
    ab = a * b
    assert ab.value == pytest.approx((3 + 4j) * -2, rel=1e-12)
    assert (a * SignedLogDet.zero()).is_zero
    assert SignedLogDet.zero().log_ratio(SignedLogDet.zero()) == 0.0
    assert SignedLogDet.zero().log_ratio(a) == -math.inf
    assert a.log_ratio(SignedLogDet.zero()) == math.inf


def test_signed_log_det_value_past_dbl_max_has_no_nan_part():
    # inf * 0 is NaN: a zero part of the phase stays zero, a nonzero one reads +-inf
    assert SignedLogDet.from_log(1000.0).value == complex(math.inf, 0.0)
    assert SignedLogDet.from_log(1000.0, -1j).value == complex(0.0, -math.inf)
    value = SignedLogDet.from_log(1000.0, (3 - 4j) / 5).value
    assert (value.real, value.imag) == (math.inf, -math.inf)


def _times_2_1023(b: np.ndarray) -> np.ndarray:
    """b * 2^1023, exact."""
    return np.ldexp(b.real, 1023) + 1j * np.ldexp(b.imag, 1023)


def test_rescaled_is_the_function_itself_bitwise_where_it_is_finite():
    rng = np.random.default_rng(81)
    for scale in (1e-150, 1.0, 1e150, 1e300):
        stack = scale * (rng.standard_normal((5, 3, 3)) + 1j * rng.standard_normal((5, 3, 3)))
        sigma, log_s = _rescaled(singular_values, stack)
        assert log_s == 0.0
        assert sigma.tobytes() == singular_values(stack).tobytes()
        (lam, sig), log_s = _rescaled(lambda u: (general_eigenvalues(u), singular_values(u)),
                                      stack[0])
        assert log_s == 0.0
        assert lam.tobytes() == general_eigenvalues(stack[0]).tobytes()
        assert sig.tobytes() == singular_values(stack[0]).tobytes()


def test_rescaled_takes_the_quotient_only_of_the_matrices_past_dbl_max():
    rng = np.random.default_rng(82)
    small = rng.uniform(-1, 1, (4, 3, 3)) + 1j * rng.uniform(-1, 1, (4, 3, 3))
    small[:, 0] = 1 + 1j   # sigma_max >= sqrt(6), past DBL_MAX once times 2^1023
    stack = small.copy()
    stack[[1, 3]] = _times_2_1023(small[[1, 3]])   # entry moduli past DBL_MAX
    with np.errstate(over="ignore", invalid="ignore"):
        assert not np.isfinite(np.linalg.svd(stack[1], compute_uv=False)).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sigma, log_s = _rescaled(singular_values, stack)
        one, log_one = _rescaled(singular_values, stack[1])
    # 2^1023 is the unit scale of the scaled matrices: the quotients are the small ones
    assert log_s.tolist() == [0.0, 1023 * math.log(2.0), 0.0, 1023 * math.log(2.0)]
    assert sigma.tobytes() == singular_values(small).tobytes()
    assert log_one == 1023 * math.log(2.0)
    assert one.tobytes() == singular_values(small[1]).tobytes()


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
    # _schur_complement's LU solve against r steps of Gaussian elimination
    rng = np.random.default_rng(3)
    a = _rand_complex(rng, 5)
    for r in (1, 2, 4):
        work = a.copy()
        for k in range(r):
            work[k + 1:] -= np.outer(work[k + 1:, k] / work[k, k], work[k])
        assert np.allclose(_schur_complement(a, r)[0], work[r:, r:], atol=1e-10)
    assert _schur_complement(np.zeros((3, 3), dtype=complex), 2)[1]


def test_signed_log_det_normalizes_phase():
    s = SignedLogDet(3 + 4j, 2.0)
    assert abs(abs(s.phase) - 1.0) < 1e-15
    assert s.value == pytest.approx((0.6 + 0.8j) * math.exp(2.0), rel=1e-12)
    with pytest.raises(LinalgError):
        SignedLogDet(0j, 1.0)


# ---------------------------------------------------------------------------
# numpy's LAPACK gufuncs, called directly


def _fail_lapack(monkeypatch, *gufuncs):
    """Make each of numpy's LAPACK gufuncs ``gufuncs`` fail as LAPACK does:
    by raising the floating-point invalid flag, here with 0/0."""
    def no_convergence(*operands, signature):
        return np.divide(np.zeros(1), 0.0)

    for gufunc in gufuncs:
        monkeypatch.setattr(_umath_linalg, gufunc, no_convergence)


def _pin_stacks(rng):
    """(square, rectangular) stacks for the pins: n 1 to 8, entries from
    1e-300 to 1e300, zero and rank-deficient matrices, and read-only,
    non-contiguous views of a larger stack."""
    square, rectangular = [], []
    for n in range(1, 9):
        for scale in (1e-300, 1e-150, 1.0, 1e150, 1e300):
            square.append(scale * _rand_complex_stack(rng, (3, n, n)))
            rectangular.append(scale * _rand_complex_stack(rng, (2, n, int(rng.integers(1, 9)))))
        low = _rand_complex_stack(rng, (2, n, 1)) @ _rand_complex_stack(rng, (2, 1, n))
        square += [np.zeros((2, n, n), dtype=complex), low]
    t = _rand_complex_stack(rng, (3, 8, 8))
    t.setflags(write=False)
    for r in (1, 3, 6):
        square.append(t[..., :r, :r].mT)
        rectangular += [t[..., :r, r:], t[..., r:, :r].mT]
    return square, rectangular


def _rand_complex_stack(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _outcome(f, *args):
    """The bytes, dtype and shape of each array ``f`` returns, or the text
    of numpy.linalg's LinAlgError behind its failure."""
    try:
        out = f(*args)
    except np.linalg.LinAlgError as err:
        return str(err)
    except ConvergenceError as err:
        return str(err.__cause__)
    return [(x.dtype, x.shape, x.tobytes()) for x in (out if isinstance(out, tuple) else (out,))]


def _direct_qr(a):
    q, factored = _lapack("qr", a)
    return q, np.diagonal(factored, axis1=-2, axis2=-1)


def _numpy_qr(a):
    q, r = np.linalg.qr(a)
    return q, np.diagonal(r, axis1=-2, axis2=-1)


def test_every_lapack_gufunc_is_its_numpy_linalg_routine_bitwise():
    rng = np.random.default_rng(83)
    square, rectangular = _pin_stacks(rng)
    pairs = [("svd", lambda a: np.linalg.svd(a, compute_uv=False), square + rectangular),
             ("svd_f", np.linalg.svd, square),
             ("slogdet", np.linalg.slogdet, square),
             ("eigh_lo", np.linalg.eigh, square),
             ("eigvals", np.linalg.eigvals, square)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for gufunc, routine, stacks in pairs:
            for a in stacks:
                assert _outcome(partial(_lapack, gufunc), a) == _outcome(routine, a), (
                    gufunc, a.shape)
        for a in square + rectangular:
            assert _outcome(_direct_qr, a) == _outcome(_numpy_qr, a), a.shape
        for a in square:
            b = _rand_complex_stack(rng, a.shape[:-1] + (int(rng.integers(1, 4)),))
            assert _outcome(_lapack, "solve", a, b) == _outcome(np.linalg.solve, a, b), a.shape
    zero = np.zeros((2, 3, 3), dtype=complex)
    assert _outcome(_lapack, "solve", zero, zero) == _outcome(np.linalg.solve, zero, zero)
    assert _outcome(np.linalg.solve, zero, zero) == "Singular matrix"


# ---------------------------------------------------------------------------
# Hermitian eigensystem


def test_eigensystem_identity():
    w, v = hermitian_eigensystem(np.eye(4))
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
        norm = max(np.linalg.norm(h), 1e-300)
        assert np.linalg.norm((v * w) @ v.conj().T - h) <= 1e-10 * norm
        assert np.linalg.norm(v.conj().T @ v - np.eye(n)) <= 1e-12
        assert np.all(np.diff(w) <= 1e-12)


def test_eigensystem_rejects_non_hermitian():
    with pytest.raises(NotHermitianError, match="deviates"):
        hermitian_eigensystem(np.array([[0, 1], [0, 0]], dtype=complex))


def test_eigensystem_convergence_error_carries_residual(monkeypatch):
    # LAPACK reports no residual; the error carries the routine and the input shape
    _fail_lapack(monkeypatch, "eigh_lo")
    g = _rand_complex(np.random.default_rng(5), 6)
    with pytest.raises(ConvergenceError, match="eigh did not converge on a 6x6") as info:
        hermitian_eigensystem(g.conj().T @ g)
    assert (info.value.routine, info.value.shape) == ("eigh", (6, 6))


# ---------------------------------------------------------------------------
# singular values


def test_singular_values_examples():
    assert singular_values(np.eye(3)) == pytest.approx([1, 1, 1])
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
    _fail_lapack(monkeypatch, "svd", "svd_f")
    a = _rand_complex(np.random.default_rng(5), 4)
    for kernel in (singular_values, _abs_matrix):
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


@pytest.mark.parametrize("gufunc", ["qr_r_raw", "qr_reduced"])
def test_qr_failure_raises_convergence_error_with_numpy_s_text(monkeypatch, gufunc):
    g = _rand_complex_stack(np.random.default_rng(7), (2, 3, 3))
    _fail_lapack(monkeypatch, gufunc)
    with pytest.raises(ConvergenceError, match="qr failed on a 3x3 matrix: "
                       "Incorrect argument found while performing QR factorization") as info:
        search._unitaries(g)
    assert (info.value.routine, info.value.shape) == ("qr", (2, 3, 3))


def test_solve_failure_raises_convergence_error_with_numpy_s_text(monkeypatch):
    _fail_lapack(monkeypatch, "solve")
    a = _rand_complex(np.random.default_rng(9), 5)
    with pytest.raises(ConvergenceError, match="solve failed on a 2x2 matrix: "
                       "Singular matrix") as info:
        _schur_complement(a, 2)
    assert (info.value.routine, info.value.shape) == ("solve", (2, 2))


def test_a_failure_in_a_call_of_several_stacks_names_the_stack_that_failed(monkeypatch):
    svd = _umath_linalg.svd

    def fail_on_3x3(a, signature):
        return np.divide(np.zeros(1), 0.0) if a.shape[-1] == 3 else svd(a, signature=signature)

    monkeypatch.setattr(_umath_linalg, "svd", fail_on_3x3)
    rng = np.random.default_rng(3)
    stacks = [_rand_complex_stack(rng, (2, n, n)) for n in (4, 3, 5)]
    with pytest.raises(ConvergenceError, match="svd did not converge on a 3x3 matrix") as info:
        _lapack("svd", *stacks)
    assert (info.value.routine, info.value.shape) == ("svd", (2, 3, 3))
    assert len(_lapack("svd", stacks[0], stacks[2])) == 2


def test_spectrum_tie_break_ordering():
    ordered = general_eigenvalues(np.diag([1 - 1j, 2.0, 1 + 1j, -2.0]))
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
        assert _is_normal(a)
        lam = np.abs(general_eigenvalues(a))
        sig = singular_values(a)
        assert np.allclose(lam, sig, rtol=1e-8, atol=1e-8)


# ---------------------------------------------------------------------------
# abs, powers


def test_abs_matrix_examples():
    assert np.allclose(_abs_matrix(as_matrix(np.eye(3))), np.eye(3), atol=1e-12)
    a = _abs_matrix(np.array([[0, 2], [0, 0]], dtype=complex))
    assert np.allclose(a, np.diag([0.0, 2.0]), atol=1e-12)
    rng = np.random.default_rng(29)
    g = _rand_complex(rng, 4)
    p = g.conj().T @ g
    assert np.allclose(_abs_matrix(p), p, atol=1e-9 * np.linalg.norm(p))


def test_abs_matrix_square_recovers_gram():
    rng = np.random.default_rng(31)
    for _ in range(30):
        n = int(rng.integers(1, 8))
        a = _rand_complex(rng, n)
        gram = a.conj().T @ a
        m = _abs_matrix(a)
        assert np.linalg.norm(m @ m - gram) <= 1e-9 * max(np.linalg.norm(gram), 1e-300)


def test_matrix_power_examples():
    rng = np.random.default_rng(37)
    g = _rand_complex(rng, 3)
    p = g.conj().T @ g
    assert np.allclose(matrix_power_psd(p, 1.0), p, atol=1e-10 * np.linalg.norm(p))
    assert np.allclose(matrix_power_psd(np.diag([4.0, 9.0]).astype(complex), 0.5),
                       np.diag([2.0, 3.0]), atol=1e-12)
    t = np.array([[1, 1], [0, 1]], dtype=complex)
    squared = matrix_power_psd(_abs_matrix(t), 2.0)
    assert np.allclose(squared, t.conj().T @ t, atol=1e-9)


def test_matrix_power_rejects_indefinite():
    with pytest.raises(NotPositiveSemidefiniteError):
        matrix_power_psd(np.diag([1.0, -1.0]).astype(complex), 0.5)
    with pytest.raises(ValueError):
        matrix_power_psd(np.eye(2), -1.0)
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
    c = _schur_complement(np.array([[2, 1], [1, 1]], dtype=complex), 1)[0]
    assert c == pytest.approx(np.array([[0.5]]))
    d = det(np.array([[2, 1], [1, 1]], dtype=complex))
    assert d.value.real == pytest.approx(2 * 0.5, rel=1e-12)


def test_schur_complement_block_diagonal_passthrough():
    a = np.zeros((5, 5), dtype=complex)
    rng = np.random.default_rng(47)
    a[:2, :2] = _rand_complex(rng, 2) + 3 * np.eye(2)
    z = _rand_complex(rng, 3)
    a[2:, 2:] = z
    assert np.allclose(_schur_complement(a, 2)[0], z, atol=1e-12)
    assert np.allclose(_schur_complement(np.eye(4, dtype=complex), 2)[0], np.eye(2), atol=1e-14)


def test_schur_determinant_identity_random():
    rng = np.random.default_rng(53)
    for _ in range(60):
        n = int(rng.integers(2, 9))
        r = int(rng.integers(1, n))
        a = _rand_complex(rng, n)
        c, singular, _, _ = _schur_complement(a, r)
        if singular:
            continue
        lhs = det(a[:r, :r]) * det(c)
        rhs = det(a)
        if rhs.is_zero:
            continue
        assert lhs.log_magnitude == pytest.approx(
            rhs.log_magnitude, rel=1e-8, abs=1e-8 * max(1.0, abs(rhs.log_magnitude))
        )
        assert abs(lhs.phase - rhs.phase) < 1e-8


def test_schur_complement_is_the_unscaled_solve_bitwise_away_from_dbl_max():
    # the leading block and a12 are divided by a11's power of two: an exact scaling
    rng = np.random.default_rng(61)
    for scale in (1e-3, 1.0, 37.0, 1e150):
        for _ in range(40):
            n = int(rng.integers(2, 7))
            r = int(rng.integers(1, n))
            a = scale * _rand_complex(rng, n)
            a11, a12 = a[:r, :r], a[:r, r:]
            expected = a[r:, r:] - a[r:, :r] @ np.linalg.solve(a11, a12)
            assert _schur_complement(a, r)[0].tobytes() == expected.tobytes()


def test_schur_complement_near_dbl_max_keeps_the_determinant_identity():
    # LAPACK's solve of the unscaled 1x1 blocks returns 0 here, where the quotient is
    # about -0.37 + 0.09i, and schur_identity read a false violation
    a = np.array([[-1.1e308 + 1.5e308j, 2.7e307 - 6.5e307j],
                  [0.0, 3.0e307 + 9.0e307j]])
    a[1, 0] = 1.6e308 - 8.0e307j
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        c = _schur_complement(a, 1)[0]
        lhs = det(a[:1, :1]) * det(c)
        rhs = det(a)
    quotient = (a[0, 1] / 2.0 ** 1023) / (a[0, 0] / 2.0 ** 1023)
    assert c[0, 0] == pytest.approx(a[1, 1] - a[1, 0] * quotient, rel=1e-14)
    assert lhs.log_magnitude == pytest.approx(rhs.log_magnitude, rel=1e-14)
    assert abs(lhs.phase - rhs.phase) < 1e-13


def test_schur_rejects_singular_block_with_estimate():
    a = np.array([[0, 0, 1], [0, 0, 2], [1, 2, 3]], dtype=complex)
    _, singular, _, sigma_min = _schur_complement(a, 2)
    assert singular and sigma_min == 0.0   # condition estimate sigma_max / sigma_min infinite


# ---------------------------------------------------------------------------
# structural predicates: the stacked gates of checks, on one matrix


def _is_upper_triangular(a: np.ndarray) -> bool:
    """drury's precondition: the strictly lower mass within the gate."""
    return not _drury_sides(a).precondition_failed


def test_predicates_hermitian_is_normal():
    h = np.array([[1, 2 + 1j], [2 - 1j, 5]], dtype=complex)
    hermitian, psd, _ = _psd(h)
    assert hermitian and _is_normal(h) and psd


def test_predicates_shear_is_neither_normal_nor_symmetric():
    a = np.array([[1, 2], [0, 1]], dtype=complex)
    assert not _is_normal(a)
    assert not _is_symmetric(a)
    assert _is_upper_triangular(a)


def test_predicates_symmetric_example():
    assert _is_symmetric(np.array([[1, 2], [2, 3]], dtype=complex))


def test_predicates_zero_matrix_passes_all():
    z = as_matrix(np.zeros((3, 3)))
    hermitian, psd, _ = _psd(z)
    assert hermitian and psd and _is_normal(z) and _is_symmetric(z)
    assert _is_upper_triangular(z)


def test_predicates_complex_symmetric_not_hermitian():
    s = np.array([[1j, 2], [2, 0]], dtype=complex)
    assert _is_symmetric(s) and not _psd(s)[0]


def test_predicates_classify_input_hermitian_within_their_own_gate():
    # Hermitian to 4e-11 relative: inside the structural 1e-10 gate, outside
    # the eigensolver's 1e-12 one; the eigenvalues come from the Hermitian part
    rng = np.random.default_rng(41)
    g = _rand_complex(rng, 4)
    psd = g.conj().T @ g
    psd = (psd + psd.conj().T) / 2
    k = _rand_complex(rng, 4)
    k = (k - k.conj().T) / 2
    a = psd + 2e-11 * np.linalg.norm(psd) / np.linalg.norm(k) * k
    with pytest.raises(NotHermitianError):
        hermitian_eigensystem(a)
    hermitian, is_psd, least = _psd(a)
    assert hermitian and is_psd
    assert least == pytest.approx(float(np.linalg.eigvalsh(psd)[0]), rel=1e-8)
    assert _psd(psd)[2] == float(hermitian_eigensystem(psd)[0][-1])
    # off the Hermitian gate the least eigenvalue is not reported
    assert not _psd(k)[0]
    assert "min_eigenvalue" not in {f.name for f in check_fischer(k, 1).diagnostics}


def test_tolerances_hold_only_a_positive_equality_window():
    assert [f.name for f in dataclasses.fields(Tolerances)] == ["eq_rel"]
    assert DEFAULT_TOL == Tolerances(eq_rel=1e-8)
    for bad in (0.0, -1e-8, math.nan, math.inf):
        with pytest.raises(ValueError, match="must be positive and finite"):
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


def test_predicates_answer_where_the_frobenius_norm_overflows():
    # ||a||_F = sqrt(6) 1e308 overflows; every structural test once passed as inf <= inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        a = as_matrix(np.triu(np.full((3, 3), 1e308)))
        hermitian, psd, _ = _psd(a)
        upper, symmetric, normal = _is_upper_triangular(a), _is_symmetric(a), _is_normal(a)
    assert upper
    assert not (hermitian or symmetric or normal or psd)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        hermitian, psd, least = _psd(as_matrix(1e308 * np.eye(4)))
    assert hermitian and psd and least == 1e308


def test_block_constructor_copies_and_freezes_caller_arrays():
    x, y, z = (np.array(b, dtype=complex) for b in (np.eye(2), np.ones((2, 1)), np.ones((1, 1))))
    t = BlockUpperTriangular(x=x, y=y, z=z)
    x[0, 0] = 5.0
    assert t.x[0, 0] == 1.0
    for block in (t.x, t.y, t.z, t.assemble()):
        assert not block.flags.writeable
    assert t.assemble() is t.assemble()
    # one matrix of the member's own: the blocks view it, and no caller's array
    for block in (t.x, t.y, t.z):
        assert np.shares_memory(block, t.assemble())
        assert not any(np.shares_memory(block, given) for given in (x, y, z))
    # from_matrix takes one copy: writing to the input after the split changes nothing
    full = np.array(t.assemble())
    split = BlockUpperTriangular.from_matrix(full, 2)
    assert not np.shares_memory(split.assemble(), full)
    assert all(np.shares_memory(block, split.assemble()) for block in (split.x, split.y, split.z))
    full[:2, :] = 7.0
    full[2, 2] = 7.0
    assert np.array_equal(split.assemble(), t.assemble())
    assert all(np.array_equal(a, b) for a, b in ((split.x, t.x), (split.y, t.y), (split.z, t.z)))


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
        # an int past the double range, as json.loads reads a long integer literal
        ({"rows": 1, "cols": 1, "entries": [[10 ** 400, 0]]}, "entry 0: non-finite"),
        ({"rows": 1, "cols": 2, "entries": [[1, 0], [0, -(2 ** 1024)]]}, "entry 1: non-finite"),
        ({"rows": True, "cols": True, "entries": [[2, 0]]}, "positive integers, got True, True"),
    ],
)
def test_matrix_json_rejects_malformed(doc, fragment):
    with pytest.raises(MatrixFormatError, match=fragment):
        matrix_from_json_dict(doc)


_FINITE_FLOATS = st.floats(allow_nan=False, allow_infinity=False)
_GOOD_PARTS = st.one_of(
    st.integers(-(2 ** 70), 2 ** 70),
    _FINITE_FLOATS,
    st.sampled_from([-0.0, 5e-324, -2.5e-320, 2.2250738585072014e-308,
                     2 ** 1024 - 2 ** 970 - 1]),   # the largest int below the double range
    _FINITE_FLOATS.map(np.float64),
)
_BAD_PARTS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, np.float64(math.inf),
                     2 ** 1024 - 2 ** 970, -(2 ** 1100)]),
    st.integers(300, 420).map(lambda k: (-1) ** k * 10 ** k),   # past the range from 10^309
    st.sampled_from([True, False, None, "", "1"]),
)
_GOOD_PAIRS = st.one_of(st.lists(_GOOD_PARTS, min_size=2, max_size=2),
                        st.tuples(_GOOD_PARTS, _GOOD_PARTS))
_BAD_PAIRS = st.one_of(
    st.tuples(_GOOD_PARTS, _BAD_PARTS).map(list),
    st.tuples(_BAD_PARTS, _GOOD_PARTS),
    st.lists(_GOOD_PARTS, max_size=1),                         # short
    st.lists(_GOOD_PARTS, min_size=3, max_size=4),             # long
    st.lists(st.lists(_GOOD_PARTS, max_size=2), min_size=2, max_size=2),   # nested
    _GOOD_PARTS,
    _BAD_PARTS,
)


@st.composite
def _matrix_documents(draw):
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    entries = draw(st.lists(_GOOD_PAIRS, min_size=rows * cols, max_size=rows * cols))
    for _ in range(draw(st.integers(0, 2))):   # none, one or two bad entries
        entries[draw(st.integers(0, len(entries) - 1))] = draw(_BAD_PAIRS)
    return {"rows": rows, "cols": cols, "entries": entries}


def _per_entry_rejects(pair) -> bool:
    try:
        per_entry_matrix_from_json_dict({"rows": 1, "cols": 1, "entries": [pair]})
    except (MatrixFormatError, OverflowError):
        return True
    return False


@settings(max_examples=400)
@given(_matrix_documents())
def test_one_pass_parse_is_the_per_entry_parse(doc):
    try:
        expected = per_entry_matrix_from_json_dict(doc)
    except OverflowError:
        # the per-entry parse crashed on an int past the double range, at the
        # first entry it rejects; the one-pass parse names that entry non-finite
        first = next(i for i, pair in enumerate(doc["entries"]) if _per_entry_rejects(pair))
        with pytest.raises(MatrixFormatError, match=rf"^entry {first}: non-finite component"):
            matrix_from_json_dict(doc)
        return
    except MatrixFormatError as err:
        with pytest.raises(MatrixFormatError) as raised:
            matrix_from_json_dict(doc)
        assert str(raised.value) == str(err)
        return
    got = matrix_from_json_dict(doc)
    assert got.shape == expected.shape and got.dtype == expected.dtype
    assert got.tobytes() == expected.tobytes()
