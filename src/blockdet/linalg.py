"""Dense complex linear algebra on numpy arrays.

Everything downstream (inequality checkers, the fuzzer, the CLI) works on
plain ``numpy`` arrays of ``complex128``.  This module owns:

* input validation with explicit shape errors,
* determinants in signed-log form (phase plus log-magnitude) from LAPACK's
  LU, with a scale-aware zero flag, safe from overflow at any finite
  magnitude,
* one spectral route, numpy's LAPACK bindings: Hermitian eigensystems,
  general eigenvalues, singular values of the unsquared input, ``|A|`` and
  PSD powers, with LAPACK non-convergence reported as
  :class:`ConvergenceError`,
* linear solves and Schur complements,
* structural predicates (Hermitian / PSD / normal / symmetric / triangular),
* the JSON matrix document format shared by every module.

All functions are pure: inputs are never mutated and there is no global
mutable state, so values can be shared freely across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LinalgError",
    "ShapeError",
    "NotHermitianError",
    "NotPositiveSemidefiniteError",
    "ConvergenceError",
    "SingularBlockError",
    "MatrixFormatError",
    "Tolerances",
    "DEFAULT_TOL",
    "as_matrix",
    "identity",
    "frobenius_norm",
    "SignedLogDet",
    "det",
    "solve",
    "hermitian_eigensystem",
    "singular_values",
    "general_eigenvalues",
    "sort_by_modulus",
    "abs_matrix",
    "matrix_power_psd",
    "schur_complement",
    "MatrixPredicates",
    "predicates",
    "BlockUpperTriangular",
    "matrix_to_json_dict",
    "matrix_from_json_dict",
]


class LinalgError(ValueError):
    """Base class for everything this module rejects or fails to compute."""


class ShapeError(LinalgError):
    """Operands have incompatible or unacceptable shapes."""


class NotHermitianError(LinalgError):
    """Input required to be Hermitian deviates beyond tolerance."""


class NotPositiveSemidefiniteError(LinalgError):
    """Eigenvalue more negative than the PSD clamp window admits."""


class ConvergenceError(LinalgError):
    """A LAPACK eigenvalue or singular value iteration did not converge.

    ``routine`` names the ``numpy.linalg`` routine that failed and ``shape``
    is the shape of the matrix it was given.
    """

    def __init__(self, message: str, routine: str, shape: tuple):
        super().__init__(message)
        self.routine = routine
        self.shape = shape


class SingularBlockError(LinalgError):
    """Leading block too close to singular for a Schur complement.

    ``condition_estimate`` is sigma_max / sigma_min of the leading block
    (``inf`` when the block is exactly rank deficient).
    """

    def __init__(self, message: str, condition_estimate: float):
        super().__init__(message)
        self.condition_estimate = condition_estimate


class MatrixFormatError(LinalgError):
    """Matrix JSON document malformed; message carries position info."""


# Fixed numerical gates, each relative to a scale stated where it is used.
PIVOT_REL = 1e-12       # sigma_min / sigma_max gate: det zero flag, Schur leading block
HERMITIAN_REL = 1e-12   # Hermiticity gate for the Hermitian eigensolver
PSD_REL = 1e-10         # eigenvalues in [-PSD_REL * sigma_max, 0) clamp to 0
PREDICATE_REL = 1e-10   # structural predicates (symmetric, normal, ...)
MAJOR_REL = 1e-10       # weak log-majorization hypothesis gate


@dataclass(frozen=True)
class Tolerances:
    """The one setting a caller can change: the checkers' equality window.

    ``eq_rel`` is the relative log-domain equality window every verdict is
    decided with (``--tol-eq`` on the command line); it must be positive.
    The other gates are the fixed module constants above, and LAPACK's own
    convergence criteria are not configurable.
    """

    eq_rel: float = 1e-8

    def __post_init__(self):
        if not self.eq_rel > 0.0:
            raise ValueError(f"the equality window must be positive, got {self.eq_rel}")


DEFAULT_TOL = Tolerances()


def as_matrix(data) -> np.ndarray:
    """Validate and convert to a 2-D complex128 array with finite entries."""
    a = np.asarray(data, dtype=complex)
    if a.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got ndim={a.ndim}")
    if a.shape[0] < 1 or a.shape[1] < 1:
        raise ShapeError(f"matrix dimensions must be positive, got {a.shape}")
    if not (np.all(np.isfinite(a.real)) and np.all(np.isfinite(a.imag))):
        raise LinalgError("matrix entries must be finite (no NaN or Inf)")
    return a


def _require_square(a: np.ndarray, what: str) -> None:
    if a.shape[0] != a.shape[1]:
        raise ShapeError(f"{what} requires a square matrix, got {a.shape}")


def identity(n: int) -> np.ndarray:
    if n < 1:
        raise ShapeError(f"identity dimension must be positive, got {n}")
    return np.eye(n, dtype=complex)


def frobenius_norm(a: np.ndarray) -> float:
    """sqrt of the sum of squared entry moduli; equals sqrt(tr a* a).

    Accumulated with ``hypot``, so squaring large entries never overflows.
    """
    return float(np.hypot.reduce(np.abs(a), axis=None))


_FLOAT_MAX = float(np.finfo(float).max)


def _product_may_overflow(norm: float) -> bool:
    """Whether a product of two matrices of Frobenius norm at most ``norm``,
    or the difference of two such products, can overflow.

    Every entry of such a product is at most norm^2 in modulus.
    """
    return 2.0 * norm * norm > _FLOAT_MAX


def _power_of_two_above(v):
    """A power of two above each ``v``, or 1 where ``v <= 1``.

    Dividing by a power of two is exact, so scaling by it changes no digit.
    """
    return np.where(v > 1.0, np.ldexp(1.0, np.frexp(v)[1]), 1.0)


def _lapack(routine: str, a: np.ndarray, **kwargs):
    """Call ``numpy.linalg.<routine>``, reporting non-convergence as ConvergenceError."""
    try:
        return getattr(np.linalg, routine)(a, **kwargs)
    except np.linalg.LinAlgError as err:
        raise ConvergenceError(f"{routine} did not converge on a {a.shape[0]}x{a.shape[1]} "
                               f"matrix: {err}", routine, a.shape) from err


# ---------------------------------------------------------------------------
# Signed-log determinants


@dataclass(frozen=True)
class SignedLogDet:
    """A determinant stored as unit phase times exp(log_magnitude).

    Immune to overflow: products of determinants add log-magnitudes instead
    of multiplying raw values.  A zero determinant is flagged with
    ``is_zero`` (phase 0, log_magnitude 0 by convention).
    """

    phase: complex
    log_magnitude: float
    is_zero: bool = False

    def __post_init__(self):
        if self.is_zero:
            object.__setattr__(self, "phase", 0j)
            object.__setattr__(self, "log_magnitude", 0.0)
        else:
            mod = abs(self.phase)
            if not math.isfinite(mod) or mod == 0.0:
                raise LinalgError(f"phase must be a finite nonzero complex, got {self.phase}")
            if abs(mod - 1.0) > 1e-12:
                object.__setattr__(self, "phase", self.phase / mod)

    @classmethod
    def zero(cls) -> "SignedLogDet":
        return cls(0j, 0.0, True)

    @classmethod
    def from_value(cls, value: complex) -> "SignedLogDet":
        value = complex(value)
        mod = abs(value)
        if mod == 0.0:
            return cls.zero()
        return cls(value / mod, math.log(mod))

    @classmethod
    def from_log(cls, log_magnitude: float, phase: complex = 1.0 + 0j) -> "SignedLogDet":
        return cls(phase, log_magnitude)

    @property
    def value(self) -> complex:
        """Reconstructed raw determinant; may overflow to inf by design."""
        if self.is_zero:
            return 0j
        return self.phase * math.exp(self.log_magnitude) if self.log_magnitude < 709.0 else (
            self.phase * float("inf")
        )

    def __mul__(self, other: "SignedLogDet") -> "SignedLogDet":
        if self.is_zero or other.is_zero:
            return SignedLogDet.zero()
        return SignedLogDet(self.phase * other.phase, self.log_magnitude + other.log_magnitude)

    def abs(self) -> "SignedLogDet":
        """Drop the phase, keeping the magnitude."""
        if self.is_zero:
            return SignedLogDet.zero()
        return SignedLogDet(1.0 + 0j, self.log_magnitude)

    def log_ratio(self, other: "SignedLogDet") -> float:
        """log |self| - log |other| with -inf/+inf for zero sides, 0 if both zero."""
        if self.is_zero and other.is_zero:
            return 0.0
        if self.is_zero:
            return float("-inf")
        if other.is_zero:
            return float("inf")
        return self.log_magnitude - other.log_magnitude


def det(a: np.ndarray) -> SignedLogDet:
    """Determinant in signed-log form, from LAPACK's LU (``numpy.linalg.slogdet``).

    Each row is first divided by its largest entry modulus and the logs of
    those scales are added to the result, so nothing overflows at any finite
    magnitude.  The zero flag is raised for an all-zero row, or when the
    equilibrated matrix is singular to working precision by the rule of the
    Schur gate (:func:`_singular_to_working_precision`); one large row
    therefore cannot make the others look singular.
    """
    a = as_matrix(a)
    _require_square(a, "det")
    scales = np.max(np.abs(a), axis=1)
    if scales.min() == 0.0:
        return SignedLogDet.zero()
    work = a / scales[:, None]
    if _singular_to_working_precision(_lapack("svd", work, compute_uv=False)):
        return SignedLogDet.zero()
    sign, log_mag = np.linalg.slogdet(work)
    return SignedLogDet(complex(sign), float(log_mag) + float(np.sum(np.log(scales))))


def solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a x = b by LAPACK's LU factorization with partial pivoting."""
    a = as_matrix(a)
    _require_square(a, "solve")
    b = as_matrix(b)
    if b.shape[0] != a.shape[0]:
        raise ShapeError(f"solve needs matching row counts, got {a.shape} and {b.shape}")
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError as err:
        raise SingularBlockError(f"solve: matrix is singular ({err})",
                                 condition_estimate=float("inf")) from err


# ---------------------------------------------------------------------------
# Spectra


def hermitian_eigensystem(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending, real) and unitary eigenvectors of a Hermitian matrix.

    The input must be Hermitian within ``HERMITIAN_REL * ||a||_F``; its
    Hermitian part goes to LAPACK (``numpy.linalg.eigh``).
    """
    a = as_matrix(a)
    _require_square(a, "hermitian_eigensystem")
    norm = frobenius_norm(a)
    deviation = frobenius_norm(a - a.conj().T)
    if deviation > HERMITIAN_REL * norm:
        raise NotHermitianError(
            f"matrix deviates from Hermitian by {deviation:.3e} (allowed {HERMITIAN_REL * norm:.3e})"
        )
    w, v = _lapack("eigh", (a + a.conj().T) / 2.0)
    return w[::-1], v[:, ::-1]


def _clamp_psd_eigenvalues(w: np.ndarray, context: str) -> np.ndarray:
    """Snap slightly negative eigenvalues to zero; reject genuinely negative ones.

    Eigenvalues in [-PSD_REL * sigma_max, 0) are rounding debris from a
    mathematically PSD source; anything more negative signals a bug upstream.
    """
    if w.size == 0:
        return w
    sigma_max = float(np.max(np.abs(w)))
    floor = -PSD_REL * sigma_max
    if np.any(w < floor):
        worst = float(np.min(w))
        raise NotPositiveSemidefiniteError(
            f"{context}: eigenvalue {worst:.6e} below the PSD clamp window {floor:.6e}"
        )
    return np.where(w < 0.0, 0.0, w)


def singular_values(a: np.ndarray) -> np.ndarray:
    """Singular values, non-increasing, from LAPACK's SVD of ``a`` itself.

    a* a is never formed: its rounding would square the condition number, so
    a small singular value would carry an error near sqrt(eps) * sigma_max
    instead of eps * sigma_max.
    """
    return _lapack("svd", as_matrix(a), compute_uv=False)


def _singular_to_working_precision(sigma: np.ndarray) -> bool:
    """The zero rule of :func:`det` and the gate of :func:`schur_complement`:
    the smallest singular value is at most ``PIVOT_REL`` times the largest."""
    return float(sigma[-1]) <= PIVOT_REL * float(sigma[0])


def sort_by_modulus(values: np.ndarray) -> np.ndarray:
    """Non-increasing modulus; ties by descending real part, then imaginary."""
    values = np.asarray(values, dtype=complex)
    order = np.lexsort((-values.imag, -values.real, -np.abs(values)))
    return values[order]


def general_eigenvalues(a: np.ndarray) -> np.ndarray:
    """All eigenvalues of a general complex square matrix (LAPACK).

    Output is sorted by non-increasing modulus with the deterministic
    tie-break of :func:`sort_by_modulus`.
    """
    a = as_matrix(a)
    _require_square(a, "general_eigenvalues")
    return sort_by_modulus(_lapack("eigvals", a))


# ---------------------------------------------------------------------------
# PSD matrix functions, Schur complement


def abs_matrix(a: np.ndarray) -> np.ndarray:
    """The PSD square root of a* a, built as V diag(sigma) V* from the SVD of ``a``."""
    a = as_matrix(a)
    _require_square(a, "abs_matrix")
    _, sigma, vh = _lapack("svd", a)
    p = (vh.conj().T * sigma) @ vh
    return (p + p.conj().T) / 2.0


def matrix_power_psd(p_matrix: np.ndarray, p: float) -> np.ndarray:
    """Spectral power of a Hermitian PSD matrix."""
    if p < 0.0:
        raise ValueError(f"exponent must be >= 0, got {p}")
    p_matrix = as_matrix(p_matrix)
    _require_square(p_matrix, "matrix_power_psd")
    w, v = hermitian_eigensystem(p_matrix)
    w = _clamp_psd_eigenvalues(w, "matrix_power_psd")
    powered = (v * np.power(w, p)) @ v.conj().T
    return (powered + powered.conj().T) / 2.0


def schur_complement(a: np.ndarray, r: int) -> np.ndarray:
    """a22 - a21 a11^{-1} a12 for the leading r-square block a11.

    Rejects a leading block that is singular to working precision (smallest
    singular value at or below ``PIVOT_REL`` times the largest), reporting
    the condition estimate.
    """
    a = as_matrix(a)
    _require_square(a, "schur_complement")
    n = a.shape[0]
    if not 0 < r < n:
        raise ShapeError(f"block split must satisfy 0 < r < n, got r={r}, n={n}")
    a11 = a[:r, :r]
    sigma = singular_values(a11)
    if _singular_to_working_precision(sigma):
        sigma_min, sigma_max = float(sigma[-1]), float(sigma[0])
        estimate = sigma_max / sigma_min if sigma_min > 0.0 else float("inf")
        raise SingularBlockError(
            f"leading {r}x{r} block is singular to working precision "
            f"(condition estimate {estimate:.3e})",
            condition_estimate=estimate,
        )
    return a[r:, r:] - a[r:, :r] @ solve(a11, a[:r, r:])


# ---------------------------------------------------------------------------
# Structural predicates


@dataclass(frozen=True)
class MatrixPredicates:
    is_hermitian: bool
    is_psd: bool
    is_normal: bool
    is_symmetric: bool
    is_upper_triangular: bool
    min_eigenvalue: float | None = None   # of the Hermitian part; None unless Hermitian


def predicates(a: np.ndarray) -> MatrixPredicates:
    """Tolerance-based structural classification of a square matrix.

    The zero matrix passes the Hermitian, PSD, normal, symmetric and
    triangular tests.  PSD requires Hermitian and smallest eigenvalue at
    least ``-PSD_REL * sigma_max``; the eigenvalues are those of the
    Hermitian part (a + a*) / 2, which passes the eigensolver's tighter gate
    exactly.  The normality test is scale-invariant; where the commutator
    could overflow it runs on ``a / s``, with ``s`` the power of two above
    ``||a||_F``.
    """
    a = as_matrix(a)
    _require_square(a, "predicates")
    norm = frobenius_norm(a)
    is_hermitian = frobenius_norm(a - a.conj().T) <= PREDICATE_REL * norm
    is_symmetric = frobenius_norm(a - a.T) <= PREDICATE_REL * norm
    s = float(_power_of_two_above(norm)) if _product_may_overflow(norm) else 1.0
    unit, unit_norm = a / s, norm / s
    commutator = unit @ unit.conj().T - unit.conj().T @ unit
    is_normal = frobenius_norm(commutator) <= PREDICATE_REL * unit_norm * unit_norm
    lower_mass = frobenius_norm(np.tril(a, -1))
    is_upper_triangular = lower_mass <= PREDICATE_REL * norm
    is_psd, min_eigenvalue = False, None
    if is_hermitian:
        w, _ = hermitian_eigensystem((a + a.conj().T) / 2.0)
        min_eigenvalue = float(w[-1])
        is_psd = bool(w[-1] >= -PSD_REL * float(np.max(np.abs(w))))
    return MatrixPredicates(
        is_hermitian=bool(is_hermitian),
        is_psd=is_psd,
        is_normal=bool(is_normal),
        is_symmetric=bool(is_symmetric),
        is_upper_triangular=bool(is_upper_triangular),
        min_eigenvalue=min_eigenvalue,
    )


# ---------------------------------------------------------------------------
# Block upper-triangular structure


@dataclass(frozen=True)
class BlockUpperTriangular:
    """The (x, y, z) block decomposition of an upper block-triangular matrix.

    Assembled form is [[x, y], [0, z]] with x r-square, z (n-r)-square and an
    exactly-zero lower-left block.
    """

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray

    def __post_init__(self):
        x = as_matrix(self.x)
        y = as_matrix(self.y)
        z = as_matrix(self.z)
        _require_square(x, "top-left block")
        _require_square(z, "bottom-right block")
        if y.shape != (x.shape[0], z.shape[0]):
            raise ShapeError(
                f"off-diagonal block must be {x.shape[0]}x{z.shape[0]}, got {y.shape}"
            )
        # own copies, frozen: callers' arrays must not be aliased or mutated
        for name, arr in (("x", x), ("y", y), ("z", z)):
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def r(self) -> int:
        return self.x.shape[0]

    @property
    def n(self) -> int:
        return self.x.shape[0] + self.z.shape[0]

    @classmethod
    def from_matrix(cls, t: np.ndarray, r: int) -> "BlockUpperTriangular":
        """Split a full matrix; the lower-left block must be exactly zero."""
        t = as_matrix(t)
        _require_square(t, "block split")
        n = t.shape[0]
        if not 0 < r < n:
            raise ShapeError(f"block split must satisfy 0 < r < n, got r={r}, n={n}")
        lower_left = t[r:, :r]
        if np.any(lower_left != 0):
            raise ShapeError(
                f"lower-left {n - r}x{r} block must be exactly zero, "
                f"found mass {float(np.linalg.norm(lower_left)):.3e}"
            )
        return cls(x=t[:r, :r], y=t[:r, r:], z=t[r:, r:])

    def assemble(self) -> np.ndarray:
        n, r = self.n, self.r
        t = np.zeros((n, n), dtype=complex)
        t[:r, :r] = self.x
        t[:r, r:] = self.y
        t[r:, r:] = self.z
        return t


# ---------------------------------------------------------------------------
# Matrix JSON documents


def matrix_to_json_dict(a: np.ndarray) -> dict:
    """Serialize to {rows, cols, entries} with row-major [re, im] pairs."""
    a = as_matrix(a)
    entries = [[float(v.real), float(v.imag)] for v in a.ravel()]
    return {"rows": int(a.shape[0]), "cols": int(a.shape[1]), "entries": entries}


def matrix_from_json_dict(doc: dict) -> np.ndarray:
    """Parse the {rows, cols, entries} document, reporting the bad position."""
    if not isinstance(doc, dict):
        raise MatrixFormatError(f"matrix document must be an object, got {type(doc).__name__}")
    missing = {"rows", "cols", "entries"} - set(doc)
    if missing:
        raise MatrixFormatError(f"matrix document missing keys: {sorted(missing)}")
    rows, cols, entries = doc["rows"], doc["cols"], doc["entries"]
    if not isinstance(rows, int) or not isinstance(cols, int) or rows < 1 or cols < 1:
        raise MatrixFormatError(f"rows and cols must be positive integers, got {rows!r}, {cols!r}")
    if not isinstance(entries, list) or len(entries) != rows * cols:
        count = len(entries) if isinstance(entries, list) else "non-list"
        raise MatrixFormatError(f"expected {rows * cols} entries, got {count}")
    data = np.empty(rows * cols, dtype=complex)
    for i, pair in enumerate(entries):
        if (not isinstance(pair, (list, tuple)) or len(pair) != 2
                or not all(isinstance(c, (int, float)) and not isinstance(c, bool) for c in pair)):
            raise MatrixFormatError(f"entry {i}: expected a [re, im] pair of reals, got {pair!r}")
        re, im = float(pair[0]), float(pair[1])
        if not (math.isfinite(re) and math.isfinite(im)):
            raise MatrixFormatError(f"entry {i}: non-finite component {pair!r}")
        data[i] = complex(re, im)
    return data.reshape(rows, cols)
