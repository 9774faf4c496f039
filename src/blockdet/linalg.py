"""Dense complex linear algebra on numpy arrays of ``complex128``.

This module owns:

* input validation with explicit shape errors,
* determinants in signed-log form (phase plus log-magnitude) from LAPACK's
  LU, with a scale-aware zero flag, safe from overflow at any finite
  magnitude,
* one LAPACK route, :func:`_lapack`, which calls numpy.linalg's stacked
  gufuncs directly, bitwise numpy.linalg's, for every factorization in the
  package (a failure is a :class:`ConvergenceError`), and one overflow
  policy, :func:`_rescaled`, which retakes a spectrum on A/s where A's is
  not finite,
* Schur complements with their gate's flag, ``|A|``, and
  :func:`_unit_masses`, the masses on which the checkers' structural gates
  (Hermitian / PSD / normal / symmetric / triangular) decide at every
  magnitude,
* the JSON matrix document format shared by every module.

All functions are pure: inputs are never mutated and there is no global
mutable state (a cache of read-only triangle masks aside).  Every public
function validates its arguments with :func:`as_matrix`, and so does
:class:`BlockUpperTriangular`, which copies its input once.  The checkers
call only the stacked kernels (:func:`_det_parts`, :func:`_singular_values`,
:func:`_abs_matrix`, :func:`_schur_complement`, :func:`_lapack`), which do
not validate again; the public :func:`det`, :func:`hermitian_eigensystem`,
:func:`general_eigenvalues` and :func:`singular_values` serve callers
outside the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain

import numpy as np
from numpy.linalg import _umath_linalg   # numpy.linalg's stacked LAPACK gufuncs

__all__ = [
    "LinalgError",
    "ShapeError",
    "NotHermitianError",
    "ConvergenceError",
    "MatrixFormatError",
    "Tolerances",
    "DEFAULT_TOL",
    "as_matrix",
    "SignedLogDet",
    "det",
    "hermitian_eigensystem",
    "singular_values",
    "general_eigenvalues",
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


class ConvergenceError(LinalgError):
    """A LAPACK routine failed: an eigenvalue or singular value iteration
    did not converge, or a QR or LU factorization met a bad argument or a
    singular matrix.  ``routine`` names the failed ``numpy.linalg`` routine,
    ``shape`` its input's shape; the message ends with numpy.linalg's text.
    """

    def __init__(self, message: str, routine: str, shape: tuple):
        super().__init__(message)
        self.routine = routine
        self.shape = shape


class MatrixFormatError(LinalgError):
    """Matrix JSON document malformed; message carries position info."""


# Fixed numerical gates, each relative to a scale stated where it is used.
PIVOT_REL = 1e-12       # sigma_min / sigma_max gate: det zero flag, Schur leading block
HERMITIAN_REL = 1e-12   # Hermiticity gate for the Hermitian eigensolver
PSD_REL = 1e-10         # eigenvalues in [-PSD_REL * sigma_max, 0) count as zero for PSD
PREDICATE_REL = 1e-10   # structural predicates (symmetric, normal, ...)
MAJOR_REL = 1e-10       # weak log-majorization hypothesis gate


@dataclass(frozen=True)
class Tolerances:
    """The one setting a caller can change: ``eq_rel``, the relative
    log-domain equality window every verdict is decided with (``--tol-eq``),
    positive and finite.  The other gates are the module constants above.
    """

    eq_rel: float = 1e-8

    def __post_init__(self):
        if not 0.0 < self.eq_rel < math.inf:   # NaN compares false
            raise ValueError(f"the equality window must be positive and finite, "
                             f"got {self.eq_rel}")


DEFAULT_TOL = Tolerances()


def as_matrix(data, stack: bool = False) -> np.ndarray:
    """Validate and convert to a 2-D complex128 array with finite entries;
    with ``stack``, also a stack (..., m, n) of such matrices."""
    a = np.asarray(data, dtype=complex)
    if a.ndim != 2 and not (stack and a.ndim > 2):
        raise ShapeError(f"expected a 2-D matrix{' or a stack of them' if stack else ''}, "
                         f"got ndim={a.ndim}")
    if a.shape[-2] < 1 or a.shape[-1] < 1:
        raise ShapeError(f"matrix dimensions must be positive, got {a.shape}")
    if not np.isfinite(a).all():
        raise LinalgError("matrix entries must be finite (no NaN or Inf)")
    return a


def _require_square(a: np.ndarray, what: str) -> np.ndarray:
    if a.shape[0] != a.shape[1]:
        raise ShapeError(f"{what} requires a square matrix, got {a.shape}")
    return a


def _require_split(n: int, r: int) -> None:
    if not 0 < r < n:
        raise ShapeError(f"block split must satisfy 0 < r < n, got r={r}, n={n}")


_FLOAT_MAX = float(np.finfo(float).max)
_FLOAT_TINY = float(np.finfo(float).tiny)   # the smallest normal float
_BELOW_2_1023 = math.nextafter(2.0 ** 1023, 0.0)   # frexp's exponent 1023, the last finite power


def _power_of_two_above(v):
    """A power of two above ``v``, or 1 if ``v <= 1``; elementwise on an array.

    Dividing by it is exact.  It is capped at 2^1023, the largest finite
    power, which scales a ``v`` up to DBL_MAX, and each part of a finite
    complex whose modulus ``v`` is infinite, to below 2.
    """
    if isinstance(v, float):   # math is several times faster than numpy on one value
        return math.ldexp(1.0, math.frexp(min(v, _BELOW_2_1023))[1]) if v > 1.0 else 1.0
    return np.where(v > 1.0, np.ldexp(1.0, np.frexp(np.minimum(v, _BELOW_2_1023))[1]), 1.0)


def _unit_scale(a: np.ndarray):
    """The power of two above the largest entry modulus of a matrix, or of
    each matrix of a stack."""
    return _power_of_two_above(np.abs(a).max(axis=(-2, -1)))


def _unit_scaled(a: np.ndarray, ndim: int | None = None, of: np.ndarray | None = None) -> tuple:
    """``a`` divided by ``s``, and ``s``: the one power of two, up or down,
    that brings the largest real or imaginary part of any entry of ``a``
    (or of ``of``, a part of ``a``) into [1, 2), 1 for an all-zero one; with
    ``ndim``, an ``s`` for each block of the last ``ndim`` axes (a matrix of
    a stack at 2, a family at 3).

    ``ldexp`` scales each part and forms no reciprocal, so ``s`` may be
    subnormal; the scaling is exact unless a part falls below the normal
    range.  An identity block bordering the quotient neither dwarfs it nor
    is dwarfed by it, and no product of two overflows.
    """
    of = a if of is None else of
    top = np.maximum(np.abs(of.real), np.abs(of.imag)).max(
        axis=None if ndim is None else tuple(range(-ndim, 0)))
    if np.ndim(top) == 0:   # one block: math is several times faster than numpy on one value
        if top == 0.0:
            return a, 1.0
        e = math.frexp(top)[1] - 1
        return np.ldexp(a.real, -e) + 1j * np.ldexp(a.imag, -e), math.ldexp(1.0, e)
    e = np.where(top == 0.0, 0, np.frexp(top)[1] - 1)
    shift = -e.reshape(e.shape + (1,) * ndim)
    return np.ldexp(a.real, shift) + 1j * np.ldexp(a.imag, shift), np.ldexp(1.0, e)


def _unit_masses(a: np.ndarray, *parts) -> tuple:
    """For a matrix, or each matrix A of a stack: s, its :func:`_unit_scale`,
    the quotient A/s, ||A/s||_F, and ||part(A/s)||_F for each of ``parts``.
    The division is exact and no norm of the quotient overflows, so the
    structural gates on these masses decide alike at every magnitude.
    """
    s = _unit_scale(a)
    unit = a / (s if isinstance(s, float) else s[..., None, None])
    return (s, unit, *(np.hypot.reduce(np.abs(m), axis=(-2, -1))
                       for m in [unit] + [part(unit) for part in parts]))


# numpy's overflow warnings off, as a decorator: a spectrum that overflows on A
# is taken again on A / s (_rescaled), so its warnings say nothing
_quiet = np.errstate(over="ignore", invalid="ignore")


def _rescaled(f, a: np.ndarray, *args) -> tuple:
    """The one overflow policy: ``f(a, *args)`` and log s = 0.0, or, where
    it is not finite, ``f(a / s, *args)`` and log s, s the
    :func:`_unit_scale` of ``a``; past DBL_MAX, LAPACK's SVD gives NaN
    without a warning.  ``f`` of a matrix, or of a stack, is an array or a
    tuple of arrays, a row per matrix; only a stack's matrices with rows not
    finite are taken again, s 1 for the others.  A finite first result is
    returned as it is.  An ``f`` whose own arithmetic can overflow is a
    :data:`_quiet` function; :func:`_lapack` sets its gufuncs' error state."""
    out = f(a, *args)
    single = not isinstance(out, tuple)
    parts = (out,) if single else out
    if np.isfinite(out).all() if single else all(np.isfinite(part).all() for part in parts):
        return out, 0.0
    finite = np.logical_and.reduce([np.isfinite(part).reshape(a.shape[:-2] + (-1,)).all(axis=-1)
                                    for part in parts])
    s = np.where(finite, 1.0, _unit_scale(a))
    if a.ndim == 2:
        return f(a / s, *args), np.log(s)
    again = f(a[~finite] / s[~finite][:, None, None], *args)
    for part, rows in zip(parts, (again,) if single else again):
        part[~finite] = rows
    return out, np.log(s)


def _asymmetry(u: np.ndarray) -> np.ndarray:
    return u - u.mT


def _anti_hermitian(u: np.ndarray) -> np.ndarray:
    return u - u.mT.conj()


def _commutator(u: np.ndarray) -> np.ndarray:
    """u u* - u* u, zero exactly when u is normal."""
    h = u.mT.conj()
    return u @ h - h @ u


@lru_cache(maxsize=None)
def _below_diagonal(n: int) -> np.ndarray:
    """The read-only n-square mask of the entries below the diagonal."""
    mask = np.tri(n, k=-1, dtype=bool)
    mask.setflags(write=False)
    return mask


def _strict_lower(u: np.ndarray) -> np.ndarray:
    return np.where(_below_diagonal(u.shape[-1]), u, 0.0)


def _calls(call, stacks: tuple, arity: int, signature, results: list) -> None:
    """``call`` on each ``arity`` stacks of ``stacks`` in turn, each result
    appended to ``results``."""
    for i in range(0, len(stacks), arity):
        results.append(call(*stacks[i:i + arity], signature=signature))


def _under(text: str):
    """:func:`_calls` under numpy.linalg's error state, whose handler raises
    ``LinAlgError(text)`` on LAPACK's failure flag as numpy.linalg's own do;
    one decorated function that every call reuses, as a new ``np.errstate``
    per call costs about as much as a small gufunc."""
    def handler(err, flag):
        raise np.linalg.LinAlgError(text)
    return np.errstate(call=handler, invalid="call", over="ignore", divide="ignore",
                       under="ignore")(_calls)


_SVD_CALLS = _under("SVD did not converge")
_EIG_CALLS = _under("Eigenvalues did not converge")

# gufunc: the numpy.linalg routine that calls it, the signature numpy.linalg
# gives it for complex input (qr: its pair of gufuncs, see _qr), and how its
# calls are made: under the error state numpy.linalg gives that routine, or,
# for slogdet, which sets none, under the caller's
_GUFUNCS = {
    "svd": ("svd", "D->d", _SVD_CALLS),
    "svd_f": ("svd", "D->DdD", _SVD_CALLS),
    "slogdet": ("slogdet", "D->Dd", _calls),
    "eigh_lo": ("eigh", "D->dD", _EIG_CALLS),
    "eigvals": ("eigvals", "D->D", _EIG_CALLS),
    "solve": ("solve", "DD->D", _under("Singular matrix")),
    "qr": ("qr", None, _under("Incorrect argument found while performing QR factorization")),
}


def _qr(a: np.ndarray, signature=None) -> tuple:
    """numpy.linalg.qr's reduced mode, called as a gufunc: ``qr_r_raw``
    factors a copy of ``a`` in place, leaving R in its upper triangle, and
    ``qr_reduced`` forms Q from it; returns Q and the factored copy."""
    factored = a.copy()
    tau = _umath_linalg.qr_r_raw(factored, signature="D->D")
    return _umath_linalg.qr_reduced(factored, tau, signature="DD->D"), factored


def _lapack(gufunc: str, *stacks):
    """numpy.linalg's stacked LAPACK gufunc ``gufunc`` on ``stacks``, called
    as numpy.linalg calls it on complex input, so every result is bitwise its
    own, under its error state; a failure is reported as
    :class:`ConvergenceError` naming the numpy.linalg routine and the failed
    stack's shape, as a non-convergence of svd, eigh or eigvals, or a failure
    of qr or solve.  ``solve`` takes two stacks, every other gufunc one; given
    several calls' stacks, it makes each call in turn under one error state and
    returns their results as a list, as ``numpy.atleast_1d`` does.
    numpy.linalg's checks and copies are not made (but qr's, which factors in
    place): callers pass finite complex128 stacks.  The gufuncs are private
    numpy, pinned against numpy.linalg by ``tests/test_linalg.py``.
    """
    routine, signature, calls = _GUFUNCS[gufunc]
    call = _qr if gufunc == "qr" else getattr(_umath_linalg, gufunc)
    arity = 2 if gufunc == "solve" else 1
    results: list = []
    try:
        calls(call, stacks, arity, signature, results)
    except np.linalg.LinAlgError as err:
        shape = stacks[len(results) * arity].shape   # the call that failed
        failed = "did not converge" if routine in ("svd", "eigh", "eigvals") else "failed"
        raise ConvergenceError(f"{routine} {failed} on a {shape[-2]}x{shape[-1]} matrix: "
                               f"{err}", routine, shape) from err
    return results[0] if len(results) == 1 else results


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
        """Reconstructed raw determinant; a nonzero part may overflow to
        +-inf by design, and a zero part stays zero (inf * 0 is NaN)."""
        if self.is_zero:
            return 0j
        if self.log_magnitude < 709.0:
            return self.phase * math.exp(self.log_magnitude)
        return complex(*(math.copysign(math.inf, part) if part else part
                         for part in (self.phase.real, self.phase.imag)))

    def __mul__(self, other: "SignedLogDet") -> "SignedLogDet":
        if self.is_zero or other.is_zero:
            return SignedLogDet.zero()
        return SignedLogDet(self.phase * other.phase, self.log_magnitude + other.log_magnitude)

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
    """Determinant in signed-log form, from LAPACK's LU (numpy's ``slogdet``).

    Each row is first divided by its largest entry modulus (largest
    max(|re|, |im|) past DBL_MAX), the logs of those scales added back, so
    nothing overflows.  The zero flag is raised for an all-zero row, or an
    equilibrated matrix singular to working precision by the Schur gate's
    rule (:func:`_singular_to_working_precision`), so one large row cannot
    make the others look singular.
    """
    a = _require_square(as_matrix(a), "det")
    return _signed_log_det(*_det_parts(a))


def _det_parts(a: np.ndarray) -> tuple:
    """:func:`det` of a square matrix as its phase, log magnitude and zero
    flag; of a stack (..., n, n), three arrays, each entry bitwise that
    matrix's :func:`det`.  A flagged matrix's phase and log are not used:
    one with an all-zero row is taken as the identity, so nothing divides by
    zero.
    """
    scales = np.abs(a).max(axis=-1)
    smallest = scales.min(axis=-1)
    zero = smallest == 0.0
    if _any(zero):
        a = np.where(zero[..., None, None], np.eye(a.shape[-1]), a)
        scales = np.where(zero[..., None], 1.0, scales)
        smallest = np.where(zero, 1.0, smallest)
    log_scale = np.log(scales).sum(axis=-1)
    over = log_scale == math.inf
    if _any(over):   # a modulus above DBL_MAX; the parts are finite
        parts = np.maximum(np.abs(a.real), np.abs(a.imag)).max(axis=-1)
        scales = np.where(over[..., None], parts, scales)
        log_scale = np.log(scales).sum(axis=-1)
    scales = scales[..., None]
    subnormal = smallest < _FLOAT_TINY
    if _any(subnormal):   # numpy divides through 1/scale, which a subnormal scale overflows
        subnormal = subnormal[..., None, None]
        split = a.real / scales + 1j * (a.imag / scales)
        work = np.where(subnormal, split, a / np.where(subnormal, 1.0, scales))
    else:
        work = a / scales
    zero |= _singular_to_working_precision(_lapack("svd", work))
    sign, log_mag = _lapack("slogdet", work)
    return sign, log_mag + log_scale, zero


def _any(flags) -> bool:
    """Whether any of a matrix's flag, or of a stack's flags, is set; a
    numpy scalar's ``any`` costs microseconds."""
    return bool(flags.any() if flags.ndim else flags)


def _signed_log_det(sign, log_magnitude, is_zero) -> SignedLogDet:
    """The :class:`SignedLogDet` of one matrix's :func:`_det_parts`."""
    return SignedLogDet.zero() if is_zero else SignedLogDet(complex(sign), float(log_magnitude))


# ---------------------------------------------------------------------------
# Spectra


def hermitian_eigensystem(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending, real) and unitary eigenvectors of a Hermitian matrix.

    The input must be Hermitian within ``HERMITIAN_REL * ||a||_F``, tested
    on the exact quotient of :func:`_unit_masses`; its Hermitian part,
    halved before the sum so that nothing overflows, goes to LAPACK
    (numpy's ``eigh_lo`` gufunc, as ``numpy.linalg.eigh`` calls it).
    """
    a = _require_square(as_matrix(a), "hermitian_eigensystem")
    s, _, norm, deviation = _unit_masses(a, _anti_hermitian)
    if deviation > HERMITIAN_REL * norm:
        raise NotHermitianError(f"matrix deviates from Hermitian by {s * deviation:.3e} "
                                f"(allowed {s * HERMITIAN_REL * norm:.3e})")
    w, v = _lapack("eigh_lo", a / 2.0 + a.conj().T / 2.0)
    return w[::-1], v[:, ::-1]


def singular_values(a: np.ndarray) -> np.ndarray:
    """Singular values, non-increasing, from LAPACK's SVD of ``a`` itself; of
    a stack (..., m, n), one row per matrix, each bitwise that matrix's.

    a* a is never formed: its rounding would square the condition number, so
    a small singular value would carry an error near sqrt(eps) * sigma_max
    instead of eps * sigma_max.
    """
    return _singular_values(as_matrix(a, stack=True))


def _singular_values(a: np.ndarray) -> np.ndarray:
    """:func:`singular_values` of a matrix or a stack already validated, at
    a draw or at a checker's entry: finite complex128, not checked again."""
    return _lapack("svd", a)


def _singular_to_working_precision(sigma: np.ndarray):
    """The zero rule of :func:`det` and the gate of :func:`_schur_complement`:
    the smallest singular value is at most ``PIVOT_REL`` times the largest,
    for a row of singular values or per row of a stack."""
    if sigma.ndim == 1:   # floats: numpy's 0-d arithmetic costs microseconds
        return float(sigma[-1]) <= PIVOT_REL * float(sigma[0])
    return sigma[..., -1] <= PIVOT_REL * sigma[..., 0]


def general_eigenvalues(a: np.ndarray) -> np.ndarray:
    """All eigenvalues of a general complex square matrix (LAPACK).

    Sorted by non-increasing modulus; ties by descending real part, then
    descending imaginary part.
    """
    a = _require_square(as_matrix(a), "general_eigenvalues")
    values = _lapack("eigvals", a)
    return values[np.lexsort((-values.imag, -values.real, -np.abs(values)))]


# ---------------------------------------------------------------------------
# PSD matrix functions, Schur complement


def _abs_matrix(a: np.ndarray) -> np.ndarray:
    """|A| of a validated square matrix, or of each of a stack: the PSD
    square root of A* A, built as V diag(sigma) V* from the SVD of A; past
    sigma_max = DBL_MAX / 4, halved before the sum, so that nothing overflows."""
    _, sigma, vh = _lapack("svd_f", a)
    p = (vh.conj().mT * sigma[..., None, :]) @ vh
    big = ~(sigma[..., 0] <= _FLOAT_MAX / 4.0)   # a NaN sigma_max counts as big
    if not big.any():
        return (p + p.conj().mT) / 2.0
    with np.errstate(over="ignore", invalid="ignore"):   # the big ones' sums are not used
        return np.where(big[..., None, None], p / 2.0 + p.conj().mT / 2.0,
                        (p + p.conj().mT) / 2.0)


def _schur_complement(a: np.ndarray, r: int) -> tuple:
    """a22 - a21 a11^{-1} a12 for the leading r-square block a11 of a
    validated matrix, or of each of a stack; whether the gate rejects a11,
    singular to working precision (smallest singular value at or below
    ``PIVOT_REL`` times the largest); and a11's largest and smallest
    singular values, whose ratio is its condition estimate.  A passing a11
    is solved by LAPACK's LU with partial pivoting; a rejected one is solved
    as I, so that no solve fails, and its complement reads 0."""
    a11 = a[..., :r, :r]
    sigma, _ = _rescaled(_singular_values, a11)   # the gate is a ratio: log s cancels
    singular = _singular_to_working_precision(sigma)
    # the top block row [a11 a12] scaled up or down by a11's power of two, so
    # that LAPACK's pivots and reciprocals neither overflow nor underflow, a
    # subnormal a11 included; exact, so the quotient a11^{-1} a12 is unchanged
    row, _ = _unit_scaled(a[..., :r, :], 2, of=a11)
    rejected = singular if a.ndim == 2 else singular[..., None, None]
    x = _lapack("solve", np.where(rejected, np.eye(r), row[..., :r]), row[..., r:])
    return (np.where(rejected, 0.0, a[..., r:, r:] - a[..., r:, :r] @ x), singular,
            sigma[..., 0], sigma[..., -1])


# ---------------------------------------------------------------------------
# Block upper-triangular structure


@dataclass(frozen=True)
class BlockUpperTriangular:
    """The (x, y, z) block decomposition of an upper block-triangular matrix.

    The member owns one read-only n-square matrix [[x, y], [0, z]], with x
    r-square, z (n-r)-square and an exactly-zero lower-left block; ``x``,
    ``y`` and ``z`` are views of it, and :meth:`assemble` returns it.  The
    constructor, or :meth:`from_matrix` for a full matrix, validates and
    copies the caller's arrays, which the member shares no memory with.
    """

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray

    def __post_init__(self):
        x, y, z = (as_matrix(b) for b in (self.x, self.y, self.z))
        _require_square(x, "top-left block")
        _require_square(z, "bottom-right block")
        r, c = x.shape[0], z.shape[0]
        if y.shape != (r, c):
            raise ShapeError(f"off-diagonal block must be {r}x{c}, got {y.shape}")
        t = np.zeros((r + c, r + c), dtype=complex)
        t[:r, :r], t[:r, r:], t[r:, r:] = x, y, z
        self._own(t, r)

    def _own(self, t: np.ndarray, r: int) -> "BlockUpperTriangular":
        """Take ``t``, the member's own copy, read-only, with its blocks as views."""
        t.setflags(write=False)
        object.__setattr__(self, "_matrix", t)
        for name, block in (("x", t[:r, :r]), ("y", t[:r, r:]), ("z", t[r:, r:])):
            object.__setattr__(self, name, block)
        return self

    @property
    def r(self) -> int:
        return self.x.shape[0]

    @property
    def n(self) -> int:
        return self._matrix.shape[0]

    @classmethod
    def from_matrix(cls, t: np.ndarray, r: int) -> "BlockUpperTriangular":
        """Split a full matrix; the lower-left block must be exactly zero."""
        t = _require_square(as_matrix(t), "block split")
        n = t.shape[0]
        _require_split(n, r)
        lower_left = t[r:, :r]
        if lower_left.any():
            raise ShapeError(
                f"lower-left {n - r}x{r} block must be exactly zero, "
                f"found mass {float(np.linalg.norm(lower_left)):.3e}"
            )
        return object.__new__(cls)._own(t.copy(), r)

    def assemble(self) -> np.ndarray:
        """The full matrix [[x, y], [0, z]], read-only."""
        return self._matrix


# ---------------------------------------------------------------------------
# Matrix JSON documents


def matrix_to_json_dict(a: np.ndarray) -> dict:
    """Serialize to {rows, cols, entries} with row-major [re, im] pairs."""
    a = as_matrix(a)
    entries = [[float(v.real), float(v.imag)] for v in a.ravel()]
    return {"rows": int(a.shape[0]), "cols": int(a.shape[1]), "entries": entries}


def _first_bad_pair(entries: list) -> int:
    """The index of the first entry that is not a [re, im] pair of reals
    (``int`` or ``float``, not ``bool``), or ``len(entries)``."""
    for i, pair in enumerate(entries):
        if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
            return i
        re, im = pair
        if not (isinstance(re, (int, float)) and isinstance(im, (int, float))) or (
                type(re) is bool or type(im) is bool):
            return i
    return len(entries)


def _double(part) -> float:
    try:
        return float(part)
    except OverflowError:   # an int past the double range
        return math.inf


def matrix_from_json_dict(doc: dict) -> np.ndarray:
    """Parse the {rows, cols, entries} document, reporting the bad position.

    The entries' types are checked in one pass and the pairs converted in
    one call; an error names the first bad entry, whether its type is wrong
    or a part is not finite (an int past the double range counts as
    infinite).
    """
    if not isinstance(doc, dict):
        raise MatrixFormatError(f"matrix document must be an object, got {type(doc).__name__}")
    missing = {"rows", "cols", "entries"} - set(doc)
    if missing:
        raise MatrixFormatError(f"matrix document missing keys: {sorted(missing)}")
    rows, cols, entries = doc["rows"], doc["cols"], doc["entries"]
    if type(rows) is not int or type(cols) is not int or rows < 1 or cols < 1:   # not bool
        raise MatrixFormatError(f"rows and cols must be positive integers, got {rows!r}, {cols!r}")
    if not isinstance(entries, list) or len(entries) != rows * cols:
        count = len(entries) if isinstance(entries, list) else "non-list"
        raise MatrixFormatError(f"expected {rows * cols} entries, got {count}")
    good = _first_bad_pair(entries)
    head = entries[:good]
    try:
        data = np.fromiter(chain.from_iterable(head), float, count=2 * good)
    except OverflowError:
        data = np.fromiter(map(_double, chain.from_iterable(head)), float, count=2 * good)
    finite = np.isfinite(data)
    if not finite.all():
        i = int(np.argmin(finite)) // 2
        raise MatrixFormatError(f"entry {i}: non-finite component {entries[i]!r}")
    if good < len(entries):
        raise MatrixFormatError(
            f"entry {good}: expected a [re, im] pair of reals, got {entries[good]!r}")
    return data.view(complex).reshape(rows, cols)
