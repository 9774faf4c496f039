"""One checker per determinantal inequality, with equality diagnostics.

Every checker returns a :class:`CheckReport` whose ``lhs`` is the side the
inequality claims dominates, so for a holding instance ``margin =
log|lhs| - log|rhs| >= 0``, compared in the log domain: the counterexample
families push determinants past 1e8, where raw differences are meaningless.

Each inequality is computed one way, by its sides function: on one input,
or elementwise on a stack, it gives a :class:`_Sides`, the sides' log
magnitudes and every other input of the one verdict rule, :func:`_decide`.
A search scores a stack by :func:`_evaluate`; a checker is its sides
function on its one input, reported by :func:`_report` with its findings:
every side and margin a report prints is read off that one :class:`_Sides`.
Where the inequality has a characterized equality case (cor_c0, lemma1,
thm2, drury, thm3), the verdict follows the structural condition, with a
diagnostic where the margin disagrees.  All checkers are pure functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    MAJOR_REL,
    PREDICATE_REL,
    PSD_REL,
    BlockUpperTriangular,
    LinalgError,
    ShapeError,
    SignedLogDet,
    Tolerances,
    as_matrix,
    _abs_matrix,
    _anti_hermitian,
    _asymmetry,
    _commutator,
    _det_parts,
    _lapack,
    _quiet,
    _rescaled,
    _require_split,
    _require_square,
    _schur_complement,
    _singular_values,
    _signed_log_det,
    _strict_lower,
    _unit_masses,
    _unit_scale,
    _unit_scaled,
)

__all__ = [
    "Verdict",
    "Finding",
    "CheckReport",
    "BlockFamily",
    "check_fischer",
    "check_thm1",
    "check_cor_c0",
    "check_cor_c1",
    "check_lemma1",
    "check_djokovic",
    "check_thm2",
    "check_drury",
    "check_thm3",
    "check_log_major",
    "check_weyl",
    "check_schur_identity",
    "check_e21",
]

class Verdict(str, Enum):
    HOLDS_STRICT = "holds_strict"
    EQUALITY = "equality"
    VIOLATED = "violated"
    PRECONDITION_FAILED = "precondition_failed"


@dataclass(frozen=True)
class Finding:
    """A named structural observation attached to a report."""

    name: str
    value: object

    def to_json_dict(self) -> dict:
        return {"name": self.name, "value": _json_value(self.value)}


def _json_value(v):
    """``v`` as JSON reads it: a numpy scalar as its Python value, an
    infinity as the string ``"inf"`` or ``"-inf"``; NaN has none."""
    if type(v) is bool or type(v) is float and -math.inf < v < math.inf:   # the usual values
        return v
    if isinstance(v, np.bool_):
        return bool(v)
    if isinstance(v, (bool, str)) or v is None:
        return v
    if isinstance(v, (int, np.integer)) and not isinstance(v, bool):
        return int(v)
    f = float(v)
    if math.isinf(f):
        return "inf" if f > 0 else "-inf"
    if math.isnan(f):
        raise LinalgError("NaN has no JSON value")
    return f


def _sld_to_json(s: SignedLogDet) -> dict:
    return {
        "phase_re": float(s.phase.real),
        "phase_im": float(s.phase.imag),
        "log_magnitude": float(s.log_magnitude),
        "is_zero": bool(s.is_zero),
    }


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one inequality evaluation.

    ``margin`` is log|lhs| - log|rhs| (+inf / -inf when exactly one side is a
    flagged zero, 0 when both are).  ``diagnostics`` carries named structural
    findings such as the off-diagonal mass that drives an equality verdict.
    """

    inequality_id: str
    lhs: SignedLogDet
    rhs: SignedLogDet
    margin: float
    verdict: Verdict
    diagnostics: tuple[Finding, ...] = ()

    def finding(self, name: str):
        for f in self.diagnostics:
            if f.name == name:
                return f.value
        raise KeyError(f"no diagnostic named {name!r}")

    def to_json_dict(self) -> dict:
        return {
            "inequality_id": self.inequality_id,
            "lhs": _sld_to_json(self.lhs),
            "rhs": _sld_to_json(self.rhs),
            "margin": _json_value(self.margin),
            "verdict": self.verdict.value,
            "diagnostics": [f.to_json_dict() for f in self.diagnostics],
        }


@dataclass(frozen=True)
class BlockFamily:
    """Conformally partitioned block upper-triangular matrices, shared (n, r)."""

    members: tuple[BlockUpperTriangular, ...]

    def __post_init__(self):
        if len(self.members) == 0:
            raise ShapeError("a block family needs at least one member")
        n, r = self.members[0].n, self.members[0].r
        for k, member in enumerate(self.members):
            if (member.n, member.r) != (n, r):
                raise ShapeError(
                    f"member {k} has partition (n={member.n}, r={member.r}), "
                    f"expected (n={n}, r={r})"
                )

    @property
    def n(self) -> int:
        return self.members[0].n

    @property
    def r(self) -> int:
        return self.members[0].r

    @property
    def m(self) -> int:
        return len(self.members)

    def assemble(self) -> np.ndarray:
        """The members' assembled matrices as one (m, n, n) stack."""
        return np.array([member.assemble() for member in self.members])


# ---------------------------------------------------------------------------
# Verdict machinery


# The verdict of each code :func:`_decide` gives: none (a NaN margin or side),
# then the four verdicts, each overriding those before it.
_VERDICTS = (None, Verdict.HOLDS_STRICT, Verdict.EQUALITY, Verdict.VIOLATED,
             Verdict.PRECONDITION_FAILED)


def _decide(windowed, log_lhs, tol: Tolerances, structural_equality=None,
            identity_gap=None, phase_gap=None, precondition_failed=None) -> tuple:
    """The one verdict rule, for one margin or elementwise for a stack of
    them: the code into :data:`_VERDICTS`, and whether ``windowed`` lies
    within the equality window, ``tol.eq_rel`` * max(1, |``log_lhs``|)
    (``log_lhs`` 0 for a zero lhs).

    The claim is violated when ``windowed`` falls below the window, or an
    exact quantity is off: ``identity_gap`` beyond the window, or
    ``phase_gap`` beyond ``tol.eq_rel``.  Otherwise it is an equality where
    ``structural_equality`` says so, or, where that is None, where
    ``windowed`` lies within the window, and holds strictly elsewhere.  A
    failed precondition overrides everything; a NaN ``windowed`` or
    ``log_lhs`` gets no verdict; an input left None does not apply.  Past
    the window's max, every operator works alike on floats, which keep one
    report off numpy's slower scalars, and on arrays.
    """
    size = abs(log_lhs)   # max(size, 1.0) keeps a NaN size, as np.maximum does
    eps = tol.eq_rel * (np.maximum(size, 1.0) if isinstance(size, np.ndarray) else max(size, 1.0))
    distance = abs(windowed)
    numeric_equality = distance <= eps
    decided = numeric_equality | (distance > eps)   # false only where a NaN is compared
    code = 1 + (numeric_equality if structural_equality is None else structural_equality)
    violated = windowed < -eps
    if identity_gap is not None:
        violated = violated | (identity_gap > eps)
    if phase_gap is not None:
        violated = violated | (phase_gap > tol.eq_rel)
    code = code + violated * (3 - code)
    if precondition_failed is not None:
        code = code + precondition_failed * (4 - code)
    return decided * code, numeric_equality


class _Sides(NamedTuple):
    """An inequality's sides on one input, or on each of a stack: their log
    magnitudes and zero flags, the inputs of :func:`_decide` (None where
    they do not apply), ``detail``, what the findings read, and the sides'
    phases, which only a one-input report prints.  ``margin`` replaces
    log|lhs| - log|rhs|, and ``value`` the margin in the window, where
    given; an equality of the value reads margin 0."""

    lhs: object
    rhs: object
    lhs_zero: object = False
    rhs_zero: object = False
    structural_equality: object = None   # these four in the order _decide takes them
    identity_gap: object = None
    phase_gap: object = None
    precondition_failed: object = None
    margin: object = None
    value: object = None
    detail: tuple = ()
    lhs_phase: object = 1.0
    rhs_phase: object = 1.0


def _evaluate(sides: _Sides, tol: Tolerances) -> tuple[np.ndarray, np.ndarray]:
    """Each input's margin (:meth:`SignedLogDet.log_ratio` elementwise, unless
    the sides give one) and code by :func:`_decide`, from the :class:`_Sides`
    of a stack; a flagged side reads log 0, and a NaN side no verdict.

    Sides that are never flagged (both flags the constant False) are finite
    or NaN, so their margin lhs - rhs is taken with no error state, and a NaN
    rhs makes it NaN, which :func:`_decide` gives no verdict by itself."""
    lhs, rhs, lhs_zero, rhs_zero = sides[:4]
    zero = lhs_zero | rhs_zero   # False where neither side is ever flagged
    margin = sides.margin
    if margin is None and zero is False:
        margin = lhs - rhs
    elif margin is None:
        with np.errstate(invalid="ignore"):   # inf - inf of flagged sides, whose logs are not used
            margin = lhs - rhs
    if zero is not False and zero.any():   # few chunks: the others skip the selections
        if sides.margin is None:
            margin = np.where(lhs_zero, np.where(rhs_zero, 0.0, -np.inf),
                              np.where(rhs_zero, np.inf, margin))
        lhs, rhs = np.where(lhs_zero, 0.0, lhs), np.where(rhs_zero, 0.0, rhs)
    code = _decide(margin if sides.value is None else sides.value, lhs, tol, *sides[4:8])[0]
    if sides.margin is not None or sides.value is not None or zero is not False:
        code = code * (rhs == rhs)   # a NaN rhs that the number decided on need not carry
    if sides.value is not None:   # an equality of the value reads margin 0
        margin = np.where(code == 2, 0.0, margin)
    return margin, code


_NUMPY_VALUES = (np.generic, np.ndarray)   # a one-input side's value that _report reads by .item()


def _report(inequality_id: str, sides: _Sides, tol: Tolerances,
            diagnostics: tuple[Finding, ...] = ()) -> CheckReport:
    """Every checker's report, decided as :func:`_evaluate` decides each of
    a stack, from the :class:`_Sides` of its one input, whose phases, log
    magnitudes and zero flags are the sides it prints, with its findings
    ``diagnostics``.  A NaN side or margin has no verdict and raises
    :class:`LinalgError`.  A ``structural_numeric_mismatch`` or
    ``margin_within_equality_band`` finding is added where the structural
    equality and the window disagree."""
    lhs = _signed_log_det(sides.lhs_phase, sides.lhs, sides.lhs_zero)
    rhs = _signed_log_det(sides.rhs_phase, sides.rhs, sides.rhs_zero)
    margin = lhs.log_ratio(rhs) if sides.margin is None else float(sides.margin)
    for side, v in (("lhs", lhs.log_magnitude), ("rhs", rhs.log_magnitude), ("margin", margin)):
        if math.isnan(v):   # every comparison with NaN is false: no verdict can follow
            raise LinalgError(f"{inequality_id}: the {side} is NaN")
    # as Python scalars: see _decide
    structural, identity_gap, phase_gap, failed, _, value = [
        v.item() if isinstance(v, _NUMPY_VALUES) else v for v in sides[4:10]]
    code, within = _decide(margin if value is None else value, lhs.log_magnitude, tol,
                           structural, identity_gap, phase_gap, failed)
    verdict = _VERDICTS[code]
    numeric_equality = within and verdict is not Verdict.VIOLATED
    if (structural is not None and verdict is not Verdict.PRECONDITION_FAILED
            and structural != numeric_equality):
        name = "structural_numeric_mismatch" if structural else "margin_within_equality_band"
        diagnostics += (Finding(name, True),)
    if verdict is Verdict.EQUALITY and value is not None:
        margin = 0.0
    return CheckReport(inequality_id, lhs, rhs, margin, verdict, diagnostics)


# Double-precision machine epsilon: a stack of blocks is numerically rank
# deficient, and its Gram determinant zero, when sigma_min is at or below
# max(rows, cols) * _EPS * sigma_max; computed spectra carry errors of
# about _EPS * sigma_max.
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).smallest_subnormal)

# The largest exponent: p |log v| < DBL_MAX / 2e5 for every positive finite v,
# so no side, a sum of n < 1e5 such terms, overflows, nor log_major's 2p.
_P_MAX = 1e300


def _log1p_pow(v: np.ndarray, log_s, p: float) -> np.ndarray:
    """log(1 + (s v)^p) for each nonnegative entry of v, the values of a
    matrix, or each of a stack, divided by s, and log s as :func:`_rescaled`
    gives them.  Entries above 1 take p log v + log1p(v^-p), so v^p never
    overflows; scaled ones take logaddexp(0, p log(s v)).  A side sums one
    row of these terms in order.  Of max(v, 1)^-p and min(v, 1)^p, one is
    exactly 1, so their product is the other exactly.
    """
    large = np.maximum(v, 1.0)
    terms = p * np.log(large) + np.log1p(large ** -p * np.minimum(v, 1.0) ** p)
    if isinstance(log_s, float) and not log_s:   # the 0.0 of an unscaled spectrum
        return terms
    log_s = np.reshape(log_s, np.shape(log_s) + (1,) * (v.ndim - np.ndim(log_s)))
    with np.errstate(divide="ignore"):   # log 0 = -inf, and logaddexp(0, -inf) = 0
        return np.where(log_s != 0.0, np.logaddexp(0.0, p * (np.log(v) + log_s)), terms)


def _cumulative_logs(v: np.ndarray, log_s) -> np.ndarray:
    """Prefix sums of log(s v) along each row of v, log 0 reading -inf."""
    with np.errstate(divide="ignore"):
        return np.cumsum(np.log(v) + (log_s if np.ndim(log_s) == 0 else log_s[..., None]), axis=-1)


def _bordered(left: np.ndarray, right: np.ndarray, corner: int = 1) -> np.ndarray:
    """[[corner I, -L], [R, I]] for L (k x j) and R (j x k), or each pair of
    two stacks, ``corner`` 1 or 0: its determinant is det(corner I + L R),
    without L R, whose rounding (eps * sigma_max^2 for L = conj(X), R = X)
    would swamp the identity or the smallest eigenvalue.
    """
    k, j = left.shape[-2:]
    b = np.zeros(left.shape[:-2] + (k + j, k + j), dtype=complex)
    b[..., :k, k:] = -left
    b[..., k:, :k] = right
    diagonal = np.arange(0 if corner else k, k + j)
    b[..., diagonal, diagonal] = 1.0
    return b


def _product_sum_parts(lefts: np.ndarray, rights: np.ndarray) -> tuple:
    """:func:`_det_parts` of sum L_k R_k for (m, k, j) and (m, j, k) stacks,
    or each pair of stacks of them, from :func:`_bordered` [L_1 ... L_m] and
    [R_1; ...; R_m] at corner 0, whose identity block neither dwarfs blocks
    :func:`_unit_scaled` brought to [1, 2) nor is dwarfed by them."""
    m, k, j = lefts.shape[-3:]
    lead = lefts.shape[:-3]
    return _det_parts(_bordered(lefts.swapaxes(-3, -2).reshape(lead + (k, m * j)),
                                rights.reshape(lead + (m * j, k)), 0))


def _log_det_gram(b: np.ndarray, floor=None) -> tuple:
    """log det(sum B_k* B_k) = 2 sum log sigma (by :func:`_rescaled`) of the
    stack [B_1; ...; B_m] of a family's (m, rows, cols) blocks, or of each
    family of a stack; whether it is flagged zero, its least sigma at or
    below ``floor``; and ``floor``, by default the rank floor
    max(rows, cols) * eps * sigma_max.  A flagged stack's log is not used:
    its zeros read the smallest subnormal, so that no log(0) warns."""
    stacked = b.reshape(b.shape[:-3] + (-1, b.shape[-1]))
    sigma, log_s = _rescaled(_singular_values, stacked)
    s = np.exp(log_s)
    if floor is None:
        floor = max(stacked.shape[-2:]) * _EPS * sigma[..., 0] * s
    return (2.0 * np.sum(np.log(np.maximum(sigma, _TINY)), axis=-1)
            + 2.0 * sigma.shape[-1] * log_s, sigma[..., -1] <= floor / s, floor)


# ---------------------------------------------------------------------------
# Structural tests, on a matrix or on each matrix of a stack


def _is_symmetric(a: np.ndarray):
    """Whether ||A - A^T||_F <= PREDICATE_REL ||A||_F, on A / s, for A or each A of a stack."""
    _, _, norm, asymmetry = _unit_masses(a, _asymmetry)
    return asymmetry <= PREDICATE_REL * norm


def _is_normal(a: np.ndarray):
    """Whether ||AA* - A*A||_F <= PREDICATE_REL ||A||_F^2, on A / s, for A or each A of a stack."""
    _, _, norm, commutator = _unit_masses(a, _commutator)
    return commutator <= PREDICATE_REL * norm * norm


def _psd(a: np.ndarray) -> tuple:
    """Whether A, or each A of a stack, is Hermitian (||A - A*||_F <= PREDICATE_REL
    ||A||_F), whether it is also PSD (its Hermitian part's least eigenvalue at least
    -PSD_REL times the largest modulus), and s lambda_min; all on A / s of
    :func:`_unit_masses`, halved before each sum, so that nothing overflows."""
    s, unit, norm, anti_hermitian = _unit_masses(a, _anti_hermitian)
    hermitian = anti_hermitian <= PREDICATE_REL * norm
    h = unit / 2.0 + unit.conj().mT / 2.0
    w = _lapack("eigh_lo", h / 2.0 + h.conj().mT / 2.0)[0]   # ascending
    psd = hermitian & (w[..., 0] >= -PSD_REL * np.abs(w).max(axis=-1))
    return hermitian, psd, s * w[..., 0]


def _y_zero(t: np.ndarray, r: int) -> tuple:
    """Whether ||Y||_F <= PREDICATE_REL * (1 + ||T||_F), Y = T[:r, r:], for
    T or each T of a stack; and s and ||Y / s||_F, the masses of the exact
    quotient T / s of :func:`_unit_masses`, both from one |T / s|.

    The gate reads ||Y / s||_F <= PREDICATE_REL * (1 / s + ||T / s||_F), with
    s >= 1.  Every entry of |T / s| is below 3 (below 1 unless max |T|
    passes 2^1023, where s is capped), so over T's N entries ||T / s||_F <
    3 sqrt(N) (1 + N eps), and a ||Y / s||_F above 4 PREDICATE_REL (1 + N)
    fails the gate whatever ||T / s||_F is: it is taken only where some T's
    gate can hold.
    """
    s = _unit_scale(t)
    moduli = np.abs(t / (s if isinstance(s, float) else s[..., None, None]))
    y = np.hypot.reduce(moduli[..., :r, r:], axis=(-2, -1))
    near = y <= 4.0 * PREDICATE_REL * (1.0 + t.shape[-2] * t.shape[-1])
    if not near.any():   # no gate holds: `near` is all false, as the gate would be
        return near, s, y
    norm = np.hypot.reduce(moduli, axis=(-2, -1))
    return y <= PREDICATE_REL * (1.0 / s + norm), s, y


def _diagonal_blocks(t: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray]:
    """X and Z of T = [[X, Y], [0, Z]], or of each T of a stack, as views."""
    return t[..., :r, :r], t[..., r:, r:]


# ---------------------------------------------------------------------------
# Checkers, each its sides function on one input


def check_fischer(a: np.ndarray, r: int, tol: Tolerances = DEFAULT_TOL) -> CheckReport:
    """det A11 * det A22 >= det A for PSD A split at r.

    Non-PSD input yields verdict ``precondition_failed`` with the offending
    minimum eigenvalue attached; both sides are still evaluated for context.
    """
    a = _require_square(as_matrix(a), "check_fischer")
    sides = _fischer_sides(a, r)
    hermitian, least = sides.detail
    diagnostics = (Finding("is_psd", not sides.precondition_failed),)
    if hermitian:
        diagnostics += (Finding("min_eigenvalue", float(least)),)
    return _report("fischer", sides, tol, diagnostics)


def _fischer_sides(a: np.ndarray, r: int) -> _Sides:
    """The sides of :func:`check_fischer` for A, or each A of a stack, PSD by
    :func:`_psd`.  The detail is whether A is Hermitian, and its least
    eigenvalue."""
    _require_split(a.shape[-1], r)
    d11, d22, d = (_det_parts(b) for b in (a[..., :r, :r], a[..., r:, r:], a))
    hermitian, psd, least = _psd(a)
    return _Sides(d11[1] + d22[1], d[1], d11[2] | d22[2], d[2], precondition_failed=~psd,
                  detail=(hermitian, least), lhs_phase=d11[0] * d22[0], rhs_phase=d[0])


def check_thm1(family: BlockFamily, tol: Tolerances = DEFAULT_TOL) -> CheckReport:
    """det(sum T_k* T_k) >= det(sum X_k* X_k) * det(sum Z_k* Z_k).

    Holds for any conformally partitioned family; no equality condition is
    claimed.  Each side comes from the singular values of the stacked
    blocks, each stack flagged zero against the T stack's rank floor, so a
    singular value at rounding level is zero on both sides alike: T's least
    is never above X's, nor, for one member (an identity), above Z's.  A
    finding flags a singular sum X_k* X_k, which the proof takes by
    continuity.
    """
    sides = _thm1_sides(family.assemble(), family.r)
    (x_zero,) = sides.detail
    return _report("thm1", sides, tol, (Finding("sum_xx_singular", bool(x_zero)),))


def _thm1_sides(t: np.ndarray, r: int) -> _Sides:
    """log det(sum T_k* T_k) against log det(sum X_k* X_k) det(sum Z_k* Z_k)
    for a family's (m, n, n) stack T, or each of a stack of them, each stack
    flagged against T's rank floor; the detail is X's zero flag."""
    lhs, lhs_zero, floor = _log_det_gram(t)
    (rhs_x, x_zero), (rhs_z, z_zero) = (_log_det_gram(b, floor)[:2]
                                        for b in _diagonal_blocks(t, r))
    return _Sides(lhs, rhs_x + rhs_z, lhs_zero, x_zero | z_zero, detail=(x_zero,))


def _abs_power_sides(t: np.ndarray, r: int, p: float) -> _Sides:
    """log det(I + |T|^p) and log det(I + |X|^p) det(I + |Z|^p) for T, or
    each T of a stack, as products of 1 + sigma^p over the singular values
    of the unsquared blocks (tests pin the matrix route of |.| to this one),
    under T's s, X's and Z's terms summed in one row.  Equality iff Y = 0;
    the detail is s and ||Y / s||_F of :func:`_y_zero`."""
    _require_exponent(p)
    sigma, log_s = _rescaled(_split_singular_values, t, r)
    sums = _log1p_pow(sigma.reshape(sigma.shape[:-1] + (2, -1)), log_s, p).sum(axis=-1)
    y_zero, s, y = _y_zero(t, r)
    return _Sides(sums[..., 0], sums[..., 1], structural_equality=y_zero, detail=(s, y))


def _split_singular_values(t: np.ndarray, r: int) -> np.ndarray:
    """sigma(T), sigma(X) and sigma(Z) of T, or of each T of a stack, in one
    row, from one :func:`_lapack` call on the three stacks."""
    return np.concatenate(_lapack("svd", t, *_diagonal_blocks(t, r)), axis=-1)


def _abs_power_report(inequality_id: str, t: BlockUpperTriangular, p: float,
                      tol: Tolerances, diagnostics: tuple[Finding, ...] = ()) -> CheckReport:
    """det(I + |T|^p) against det(I + |X|^p) * det(I + |Z|^p), equality iff Y = 0."""
    sides = _abs_power_sides(t.assemble(), t.r, p)
    s, y = sides.detail
    return _report(inequality_id, sides, tol,
                   (Finding("y_frobenius", float(s) * float(y)),) + diagnostics)


def check_cor_c0(t: BlockUpperTriangular, tol: Tolerances = DEFAULT_TOL) -> CheckReport:
    """det(I + T*T) >= det(I + X*X) * det(I + Z*Z), equality iff Y = 0: thm3 at p = 2."""
    return _abs_power_report("cor_c0", t, 2.0, tol)


def check_cor_c1(family: BlockFamily, tol: Tolerances = DEFAULT_TOL,
                 allow_hypothesis_violation: bool = False) -> CheckReport:
    """det(sum T_k* T_k) >= |det(sum conj(X_k) X_k)| * |det(sum conj(Z_k) Z_k)|.

    Requires every X_k and Z_k normal.  Off that hypothesis, which is what
    the violation search needs, the verdict is ``precondition_failed``, with
    the margin's as ``evaluated_verdict``, unless
    ``allow_hypothesis_violation`` lets the margin decide.  The signed inner
    determinants are findings: the X-factor can be negative inside |.|.
    """
    sides = _cor_c1_sides(family.assemble(), family.r, allow_hypothesis_violation)
    x_parts, x_log_s, z_parts, z_log_s, normal = sides.detail
    inner_x, inner_z = (_signed_log_det(*parts) * SignedLogDet(1.0 + 0j, float(log_s))
                        for parts, log_s in ((x_parts, x_log_s), (z_parts, z_log_s)))
    diagnostics = (Finding("blocks_all_normal", bool(normal)),
                   Finding("det_xbar_x_re", float(inner_x.value.real)),
                   Finding("det_xbar_x_im", float(inner_x.value.imag)),
                   Finding("det_zbar_z_re", float(inner_z.value.real)),
                   Finding("det_zbar_z_im", float(inner_z.value.imag)))
    if not normal:
        diagnostics += (Finding("hypothesis_violated", True),)
    report = _report("cor_c1", sides._replace(precondition_failed=None), tol, diagnostics)
    if not sides.precondition_failed:
        return report
    return _report("cor_c1", sides, tol,
                   diagnostics + (Finding("evaluated_verdict", report.verdict.value),))


def _cor_c1_sides(t: np.ndarray, r: int, allow_hypothesis_violation: bool = False) -> _Sides:
    """The sides of :func:`check_cor_c1` for a family's (m, n, n) stack T, or
    each of a stack, each inner determinant of blocks :func:`_unit_scaled` by
    one s.  As in thm1, T's rank floor zeroes the right side with the left
    where it flags X or Z (|det(sum conj(B) B)| <= det(sum B* B)).  The
    detail is each inner determinant's parts and log s^2k, and normality."""
    lhs, lhs_zero, floor = _log_det_gram(t)
    x, z = _diagonal_blocks(t, r)
    inner = []
    for b in (x, z):
        u, s = _unit_scaled(b, 3)
        inner += [_product_sum_parts(u.conj(), u), 2.0 * b.shape[-1] * np.log(s)]
    x_parts, x_log_s, z_parts, z_log_s = inner
    rhs_zero = x_parts[2] | z_parts[2]
    if lhs_zero.any():
        rhs_zero = rhs_zero | lhs_zero & (_log_det_gram(x, floor)[1] | _log_det_gram(z, floor)[1])
    normal = np.asarray(_is_normal(x).all(axis=-1))   # 0-d for one family
    if normal.any():   # Z matters only where every X is normal
        normal[normal] = _is_normal(z[normal]).all(axis=-1)
    return _Sides(lhs, (x_parts[1] + x_log_s) + (z_parts[1] + z_log_s), lhs_zero, rhs_zero,
                  precondition_failed=None if allow_hypothesis_violation else ~normal,
                  detail=(x_parts, x_log_s, z_parts, z_log_s, normal))


def check_lemma1(x: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> CheckReport:
    """det(I + X*X) >= det(I + conj(X) X), equality iff X is symmetric."""
    x = _require_square(as_matrix(x), "check_lemma1")
    sides = _lemma1_sides(x)
    s, asymmetry = sides.detail
    diagnostics = (Finding("is_symmetric", bool(sides.structural_equality)),
                   Finding("asymmetry_frobenius", float(s) * float(asymmetry)))
    return _report("lemma1", sides, tol, diagnostics)


def _lemma1_sides(x: np.ndarray) -> _Sides:
    """The sides of :func:`check_lemma1` for X, or each X of a stack; the
    detail is s and ||(X - X^T) / s||_F."""
    lhs = _log1p_pow(*_rescaled(_singular_values, x), 2.0).sum(axis=-1)
    rhs = _det_parts(_bordered(x.conj(), x))
    s, _, norm, asymmetry = _unit_masses(x, _asymmetry)
    return _Sides(lhs, rhs[1], False, rhs[2], asymmetry <= PREDICATE_REL * norm,
                  detail=(s, asymmetry), rhs_phase=rhs[0])


def check_djokovic(x: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> CheckReport:
    """det(I + conj(X) X) >= 0.

    One-sided: rhs is the zero determinant and the margin is sign(Re det) *
    log1p(|det|), finite, positive exactly when the determinant is, and
    comparable across scales.  The equality window applies to the
    determinant's value, and a phase off the real axis beyond it is a
    violation (the determinant is real in exact arithmetic).
    """
    x = _require_square(as_matrix(x), "check_djokovic")
    sides = _djokovic_sides(x)
    if sides.lhs_zero:
        diagnostics = (Finding("det_is_zero", True),)
    else:
        diagnostics = (Finding("phase_re", float(sides.lhs_phase.real)),
                       Finding("phase_im", float(sides.lhs_phase.imag)))
    return _report("djokovic", sides, tol, diagnostics)


def _djokovic_sides(x: np.ndarray) -> _Sides:
    """The sides of :func:`check_djokovic` for X, or each X of a stack, a
    flagged zero read as :meth:`SignedLogDet.zero` reads."""
    phase, log, zero = _det_parts(_bordered(x.conj(), x))
    if zero.any():
        phase, log = np.where(zero, 0.0, phase), np.where(zero, 0.0, log)
    return _Sides(log, 0.0, zero, True,
                  margin=np.copysign(np.logaddexp(0.0, log), phase.real),
                  value=phase.real * np.exp(np.minimum(log, 700.0)),
                  phase_gap=np.abs(phase.imag), lhs_phase=phase)


def check_thm2(t: BlockUpperTriangular, tol: Tolerances = DEFAULT_TOL) -> CheckReport:
    """det(I + T*T) >= det(I + conj(X) X) * det(I + conj(Z) Z).

    No absolute value on the right: each factor is itself nonnegative.
    Equality iff Y = 0 and both X and Z are symmetric.
    """
    sides = _thm2_sides(t.assemble(), t.r)
    _, _, s, y = sides.detail
    diagnostics = (Finding("y_frobenius", float(s) * float(y)),
                   Finding("x_is_symmetric", bool(_is_symmetric(t.x))),
                   Finding("z_is_symmetric", bool(_is_symmetric(t.z))))
    return _report("thm2", sides, tol, diagnostics)


def _thm2_sides(t: np.ndarray, r: int) -> _Sides:
    """log det(I + T*T) against log det(I + conj(X) X) det(I + conj(Z) Z)
    for T, or each T of a stack, each factor the :func:`det` of its bordered
    matrix; equality iff Y = 0 and X and Z are symmetric.  The detail is each
    factor's (phase, log magnitude, zero flag), and s and ||Y / s||_F."""
    lhs = _log1p_pow(*_rescaled(_singular_values, t), 2.0).sum(axis=-1)
    det_x, det_z = (_det_parts(_bordered(b.conj(), b)) for b in _diagonal_blocks(t, r))
    y_zero, s, y = _y_zero(t, r)
    equal = np.asarray(y_zero)   # 0-d for one T
    if equal.any():   # symmetric X and Z matter only where Y = 0
        x, z = _diagonal_blocks(t[equal], r)
        equal[equal] = _is_symmetric(x) & _is_symmetric(z)
    return _Sides(lhs, det_x[1] + det_z[1], False, det_x[2] | det_z[2], equal,
                  detail=(det_x, det_z, s, y), rhs_phase=det_x[0] * det_z[0])


def check_drury(t: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> CheckReport:
    """det(I + T*T) >= prod(1 + |t_jj|^2) for upper triangular T.

    Equality iff T is diagonal.  A non-triangular input is a failed
    precondition; both sides are still evaluated for context.
    """
    t = _require_square(as_matrix(t), "check_drury")
    sides = _drury_sides(t)
    s, off_mass = sides.detail
    diagnostics = (Finding("off_diagonal_frobenius", float(s) * float(off_mass)),)
    if sides.precondition_failed:
        diagnostics += (Finding("is_upper_triangular", False),)
    return _report("drury", sides, tol, diagnostics)


def _drury_sides(t: np.ndarray) -> _Sides:
    """For T, or each T of a stack: log det(I + T*T) against log prod(1 +
    |t_jj|^2); equality iff T is diagonal, a failed precondition unless it
    is upper triangular, each mass at most PREDICATE_REL ||T||_F on T / s.
    The detail is s and the off-diagonal mass of T / s."""
    rows, log_s = _rescaled(_drury_rows, t)
    sums = _log1p_pow(rows, log_s, 2.0).sum(axis=-1)
    s, _, norm, lower, off_mass = _unit_masses(
        t, _strict_lower, lambda u: np.where(np.eye(u.shape[-1], dtype=bool), 0.0, u))
    gate = PREDICATE_REL * norm
    return _Sides(sums[..., 0], sums[..., 1], structural_equality=off_mass <= gate,
                  precondition_failed=~(lower <= gate), detail=(s, off_mass))


@_quiet
def _drury_rows(t: np.ndarray) -> np.ndarray:
    """sigma(T) over |diag T| of T, or of each T of a stack."""
    return np.stack([_singular_values(t), np.abs(np.diagonal(t, axis1=-2, axis2=-1))], axis=-2)


def check_thm3(t: BlockUpperTriangular, p: float, tol: Tolerances = DEFAULT_TOL) -> CheckReport:
    """det(I + |T|^p) >= det(I + |X|^p) * det(I + |Z|^p) for p >= 1, equality iff Y = 0.

    p = 2 is :func:`check_cor_c0`; this report adds the finding ``p``.
    """
    return _abs_power_report("thm3", t, p, tol, (Finding("p", float(p)),))


def _require_exponent(p: float, power: float = 1.0) -> None:
    """Refuse an exponent below 1, or past ``_P_MAX / power`` where it is
    taken of ``power``-th powers (log_major's squared singular values)."""
    if not 1.0 <= p <= _P_MAX / power:   # NaN compares false
        bound = ">= 1" if not p >= 1.0 else f"<= {_P_MAX / power:g}"
        raise ValueError(f"the exponent must satisfy p {bound}, got {p}")


def check_log_major(a: np.ndarray, b: np.ndarray, p: float, tol: Tolerances = DEFAULT_TOL, *,
                    log_scale: float = 0.0) -> CheckReport:
    """prod(1 + b_j^p) >= prod(1 + a_j^p) when a is weakly log-majorized by b.

    Hypothesis: both sequences non-increasing and nonnegative, every partial
    product of a at most b's, and equal full products (within
    ``MAJOR_REL``); a failed one reports the first violating prefix length.
    Sequences divided by one s (:func:`_rescaled`) take ``log_scale`` log s.
    """
    _require_exponent(p)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 1 or b.ndim != 1 or a.shape != b.shape or a.size == 0:
        raise ShapeError(f"need two equal-length nonempty sequences, got {a.shape} and {b.shape}")
    if not math.isfinite(log_scale):
        raise ValueError(f"log_scale must be finite, got {log_scale}")
    for name, seq in (("a", a), ("b", b)):
        if not np.isfinite(seq).all():
            raise ValueError(f"sequence {name} must be finite")
        if np.any(seq < 0.0):
            raise ValueError(f"sequence {name} must be nonnegative")
        if np.any(np.diff(seq) > 0.0):
            raise ValueError(f"sequence {name} must be non-increasing")
    sides = _log_major_sides(a, b, p, log_scale)
    first, differ = sides.detail
    if first:
        diagnostics: tuple[Finding, ...] = (Finding("first_violating_k", int(first)),)
    else:
        diagnostics = (Finding("final_products_differ", True),) if differ else ()
    return _report("log_major", sides, tol, diagnostics)


def _log_major_sides(a: np.ndarray, b: np.ndarray, p: float, log_s=0.0) -> _Sides:
    """The sides of :func:`check_log_major` for two sequences, or each pair
    of rows of two stacks; the detail is the first violating prefix length
    (0: none), and whether, with none, the full products differ."""
    cum_a, cum_b = _cumulative_logs(a, log_s), _cumulative_logs(b, log_s)
    slack = MAJOR_REL * np.where(np.isfinite(cum_b), np.maximum(1.0, np.abs(cum_b)), 1.0)
    over = cum_a > cum_b + slack
    first = np.where(over.any(axis=-1), over.argmax(axis=-1) + 1, 0)
    last_a, last_b = cum_a[..., -1], cum_b[..., -1]   # a zero b product makes a prefix fail
    with np.errstate(invalid="ignore"):   # -inf - -inf, both products zero, is not apart
        differ = (first == 0) & (np.abs(last_a - last_b)
                                 > MAJOR_REL * np.maximum(1.0, np.abs(last_b)))
    return _Sides(_log1p_pow(b, log_s, p).sum(axis=-1), _log1p_pow(a, log_s, p).sum(axis=-1),
                  precondition_failed=(first > 0) | differ, detail=(first, differ))


def check_weyl(a: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> CheckReport:
    """Eigenvalue moduli weakly log-majorized by singular values.

    Every prefix product of the top eigenvalue moduli is bounded by that of
    the top singular values, and the full products agree.  ``margin`` is the
    smallest strict-prefix log gap (the k = n gap, an identity, is a
    finding); a normal matrix reads ``equality``.  The k = n gap violates
    only beyond both the window and the first-order error of the computed
    products, n * eps * sigma_max / sigma_min.
    """
    a = _require_square(as_matrix(a), "check_weyl")
    sides = _weyl_sides(a)
    (final_gap,) = sides.detail
    return _report("weyl", sides, tol, (Finding("final_product_gap", float(final_gap)),))


def _weyl_sides(a: np.ndarray) -> _Sides:
    """The sides of :func:`check_weyl` for A, or each A of a stack: sum log
    sigma against sum log |lambda|, each zero where it reads log 0, and the
    smallest finite strict-prefix gap (0 without one) as the margin; the
    detail is the k = n gap."""
    (moduli, sigma), log_s = _rescaled(_weyl_spectra, a)
    cum_l, cum_s = _cumulative_logs(moduli, log_s), _cumulative_logs(sigma, log_s)
    lhs, rhs = cum_s[..., -1], cum_l[..., -1]
    lhs_zero, rhs_zero = np.isinf(lhs), np.isinf(rhs)
    with np.errstate(divide="ignore", invalid="ignore"):   # log 0 - log 0, and sigma_min 0
        gaps = cum_s[..., :-1] - cum_l[..., :-1]
        final = np.where(lhs_zero & rhs_zero, 0.0, lhs - rhs)   # as SignedLogDet.log_ratio
        rounding = a.shape[-1] * _EPS * sigma[..., 0] / sigma[..., -1]   # never past at sigma_min 0
    margin = np.min(gaps, axis=-1, initial=np.inf, where=np.isfinite(gaps))
    beyond = np.isfinite(final) & (np.abs(final) > rounding)
    return _Sides(lhs, rhs, lhs_zero, rhs_zero, margin=np.where(margin < np.inf, margin, 0.0),
                  identity_gap=np.where(beyond, np.abs(final), 0.0), detail=(final,))


@_quiet
def _weyl_spectra(a: np.ndarray) -> tuple:
    """|lambda(A)| and sigma(A), each non-increasing, of A or each A of a stack."""
    return np.sort(np.abs(_lapack("eigvals", a)), axis=-1)[..., ::-1], _singular_values(a)


def check_schur_identity(a: np.ndarray, r: int, tol: Tolerances = DEFAULT_TOL) -> CheckReport:
    """det A = det A11 * det(A / A11): both magnitudes and phases must match."""
    a = _require_square(as_matrix(a), "check_schur_identity")
    sides = _schur_identity_sides(a, r)
    top, bottom = sides.detail
    if sides.precondition_failed:
        condition = float(top) / float(bottom) if bottom > 0.0 else math.inf
        diagnostics = (Finding("leading_block_condition", _json_value(condition)),)
    elif sides.lhs_zero or sides.rhs_zero:
        diagnostics = ()
    else:
        distance = abs(complex(sides.lhs_phase) - complex(sides.rhs_phase))
        diagnostics = (Finding("phase_distance", distance),)
    return _report("schur_identity", sides, tol, diagnostics)


def _schur_identity_sides(a: np.ndarray, r: int) -> _Sides:
    """The sides of :func:`check_schur_identity` for A, or each A of a stack,
    with their phase gap; both zero, a failed precondition, where A11 fails
    :func:`_schur_complement`'s gate.  The detail is A11's extreme sigmas."""
    n = a.shape[-1]
    _require_split(n, r)
    (complement, singular, top, bottom), log_s = _rescaled(_quiet(_schur_complement), a, r)
    d11, dc, d = _det_parts(a[..., :r, :r]), _det_parts(complement), _det_parts(a)
    lhs_zero, rhs_zero = d11[2] | dc[2] | singular, d[2] | singular
    lhs_phase = d11[0] * dc[0]
    phase_gap = np.where(lhs_zero | rhs_zero, 0.0, np.abs(lhs_phase - d[0]))
    return _Sides(d11[1] + (n - r) * log_s + dc[1], d[1], lhs_zero, rhs_zero,
                  precondition_failed=singular, phase_gap=phase_gap, detail=(top, bottom),
                  lhs_phase=lhs_phase, rhs_phase=d[0])


def check_e21(family: BlockFamily, tol: Tolerances = DEFAULT_TOL) -> CheckReport:
    """det(|T1| + |T2|) vs det(|X1| + |X2|) * det(|Z1| + |Z2|): false in
    general, so the verdict reports which way the pair's comparison falls."""
    if family.m != 2:
        raise ShapeError(f"this comparison needs exactly two members, got {family.m}")
    return _report("e21", _e21_sides(family.assemble(), family.r), tol)


def _e21_sides(t: np.ndarray, r: int) -> _Sides:
    """The sides of :func:`check_e21` for a pair's (2, n, n) stack, or each
    of a stack of them, under one s for [T1; T2] (:func:`_rescaled`):
    |T_k / s| = |T_k| / s, so each side is s^-n times the pair's."""
    n = t.shape[-1]
    (t_sum, x_sum, z_sum), log_s = _rescaled(_e21_sums, t.reshape(t.shape[:-3] + (2 * n, n)), r)
    d_t, d_x, d_z = _det_parts(t_sum), _det_parts(x_sum), _det_parts(z_sum)
    shift = n * log_s
    return _Sides(d_t[1] + shift, (d_x[1] + d_z[1]) + shift, d_t[2], d_x[2] | d_z[2],
                  lhs_phase=d_t[0], rhs_phase=d_x[0] * d_z[0])


@_quiet
def _e21_sums(pair: np.ndarray, r: int) -> tuple:
    """|T1| + |T2|, |X1| + |X2| and |Z1| + |Z2| of the pair [T1; T2], or of
    each pair of a stack."""
    n = pair.shape[-1]
    t1, t2 = pair[..., :n, :], pair[..., n:, :]
    return tuple(_abs_matrix(b1) + _abs_matrix(b2) for b1, b2 in
                 ((t1, t2), *zip(_diagonal_blocks(t1, r), _diagonal_blocks(t2, r))))
