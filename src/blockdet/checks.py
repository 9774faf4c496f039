"""One checker per determinantal inequality, with equality diagnostics.

Every checker returns a :class:`CheckReport` whose ``lhs`` is the side the
inequality claims dominates and whose ``rhs`` is the dominated side, so for
a holding instance ``margin = log|lhs| - log|rhs| >= 0``.  Comparisons run
entirely in the log domain: the counterexample families push determinants
to 1e8 and beyond, where raw subtraction in double precision is meaningless.

Every verdict is decided by one rule, :func:`_decide`, with one equality
window, and every report is built by :func:`_report`, which calls it.
Where the inequality has a characterized equality case (cor_c0, lemma1,
thm2, drury, thm3), classification is structural-first: the checker
computes both the numeric margin and the structural condition, the verdict
follows the structure, and a discrepancy diagnostic is attached if the two
disagree instead of silently trusting either.

All checkers are stateless pure functions over immutable inputs.  Five of
them (thm1, cor_c0, thm2, drury, thm3) take their sides and every input of
:func:`_decide` from one sides function, on their input or elementwise on a
stack of inputs; :func:`_evaluate` turns the sides of a stack into each
input's margin and verdict code for the search engine, so each trial's
verdict is the checker's.
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
    SingularBlockError,
    Tolerances,
    abs_matrix,
    as_matrix,
    det,
    frobenius_norm,
    general_eigenvalues,
    hermitian_eigensystem,
    predicates,
    schur_complement,
    singular_values,
    _asymmetry,
    _commutator,
    _det_parts,
    _rescaled,
    _require_square,
    _singular_values,
    _signed_log_det,
    _strict_lower,
    _unit_masses,
    _unit_scaled,
)

__all__ = [
    "Verdict",
    "Finding",
    "CheckReport",
    "BlockFamily",
    "check_fischer",
    "check_thm1",
    "check_thm1_schur_steps",
    "check_cor_c0",
    "check_cor_c1",
    "check_c1_proof_step",
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


def _float_from_json(v):
    if v == "inf":
        return float("inf")
    if v == "-inf":
        return float("-inf")
    return float(v)


def _sld_to_json(s: SignedLogDet) -> dict:
    return {
        "phase_re": float(s.phase.real),
        "phase_im": float(s.phase.imag),
        "log_magnitude": float(s.log_magnitude),
        "is_zero": bool(s.is_zero),
    }


def _sld_from_json(doc: dict) -> SignedLogDet:
    if doc["is_zero"]:
        return SignedLogDet.zero()
    return SignedLogDet(complex(doc["phase_re"], doc["phase_im"]), float(doc["log_magnitude"]))


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

    @classmethod
    def from_json_dict(cls, doc: dict) -> "CheckReport":
        return cls(
            inequality_id=doc["inequality_id"],
            lhs=_sld_from_json(doc["lhs"]),
            rhs=_sld_from_json(doc["rhs"]),
            margin=_float_from_json(doc["margin"]),
            verdict=Verdict(doc["verdict"]),
            diagnostics=tuple(Finding(d["name"], d["value"]) for d in doc["diagnostics"]),
        )


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
    within the equality window, ``tol.eq_rel`` * max(1, |``log_lhs``|) for
    an lhs of log magnitude ``log_lhs`` (0 for a zero lhs).

    The claim is violated when ``windowed`` falls below the window, or when
    a quantity that is exact in exact arithmetic is off: ``identity_gap``
    beyond the window, or ``phase_gap`` beyond ``tol.eq_rel``.  Otherwise
    it is an equality where ``structural_equality`` says so, or, where that
    is None, where ``windowed`` lies within the window, and it holds
    strictly elsewhere.  A failed precondition overrides everything.  A NaN
    ``windowed`` or ``log_lhs`` gets no verdict.  An input left None does
    not apply.  Every operator past the window's max works alike on floats,
    which keep one report's verdict off numpy's slower scalars, and on
    arrays.
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


def _report(
    inequality_id: str,
    lhs: SignedLogDet,
    rhs: SignedLogDet,
    tol: Tolerances,
    diagnostics: tuple[Finding, ...] = (),
    *,
    margin: float | None = None,
    value: float | None = None,
    structural_equality: bool | None = None,
    identity_gap: float | None = None,
    phase_gap: float | None = None,
    precondition_failed: bool | None = None,
) -> CheckReport:
    """Every checker's report, its verdict by :func:`_decide`.

    ``margin`` defaults to log|lhs| - log|rhs|.  The equality window is
    applied to ``value``, which defaults to the margin; djokovic passes the
    value of its determinant instead, and a value inside the window is then
    reported as margin 0.  ``identity_gap`` is a log gap already past its
    rounding allowance.  A NaN side or margin raises :class:`LinalgError`:
    it has no verdict.

    Where the inequality has a characterized equality case,
    ``structural_equality`` decides equality and the window only decides
    violation; a ``structural_numeric_mismatch`` or
    ``margin_within_equality_band`` finding is added when the numeric
    classification disagrees.
    """
    if margin is None:
        margin = lhs.log_ratio(rhs)
    for side, v in (("lhs", lhs.log_magnitude), ("rhs", rhs.log_magnitude), ("margin", margin)):
        if math.isnan(v):   # every comparison with NaN is false: no verdict can follow
            raise LinalgError(f"{inequality_id}: the {side} is NaN")
    code, within = _decide(margin if value is None else value, lhs.log_magnitude, tol,
                           structural_equality, identity_gap, phase_gap, precondition_failed)
    verdict = _VERDICTS[code]
    numeric_equality = within and verdict is not Verdict.VIOLATED
    if (structural_equality is not None and verdict is not Verdict.PRECONDITION_FAILED
            and structural_equality != numeric_equality):
        name = ("structural_numeric_mismatch" if structural_equality
                else "margin_within_equality_band")
        diagnostics += (Finding(name, True),)
    if verdict is Verdict.EQUALITY and value is not None:
        margin = 0.0
    return CheckReport(inequality_id, lhs, rhs, margin, verdict, diagnostics)


class _Sides(NamedTuple):
    """The log magnitudes of an inequality's sides on one input, or on each
    of a stack of inputs, their zero flags, the other inputs of
    :func:`_decide` (None where they do not apply), and ``detail``, what the
    checker's findings read."""

    lhs: object
    rhs: object
    lhs_zero: object = False
    rhs_zero: object = False
    structural_equality: object = None
    precondition_failed: object = None
    detail: tuple = ()


def _sides_report(inequality_id: str, sides: _Sides, tol: Tolerances, diagnostics=(),
                  rhs: SignedLogDet | None = None) -> CheckReport:
    """:func:`_report` on the :class:`_Sides` of one input; ``rhs``, where
    given, is its right side with the phase the report prints."""
    return _report(inequality_id, _sld(sides.lhs, sides.lhs_zero),
                   _sld(sides.rhs, sides.rhs_zero) if rhs is None else rhs, tol, diagnostics,
                   structural_equality=sides.structural_equality,
                   precondition_failed=sides.precondition_failed)


# Double-precision machine epsilon: a stack of blocks is numerically rank
# deficient, and its Gram determinant zero, when sigma_min is at or below
# max(rows, cols) * _EPS * sigma_max; computed spectra carry errors of
# about _EPS * sigma_max.
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).smallest_subnormal)


def _sld(log_magnitude, is_zero) -> SignedLogDet:
    """A side's positive determinant from its log magnitude, or the flagged zero."""
    return SignedLogDet.zero() if is_zero else SignedLogDet.from_log(float(log_magnitude))


def _log1p_pow(v: np.ndarray, log_s, p: float) -> np.ndarray:
    """log(1 + (s v)^p) for each nonnegative entry of v, the values of a
    matrix, or of each matrix of a stack, divided by s, as :func:`_rescaled`
    gives them and log s (0 where it did not scale).

    Entries above 1 take p log v + log1p(v^-p), so v^p is never formed where
    it could overflow; scaled ones take logaddexp(0, p log(s v)).  A side
    sums one row of these terms in order.
    """
    large = np.maximum(v, 1.0)
    terms = p * np.log(large) + np.log1p(np.where(v > 1.0, large ** -p, np.minimum(v, 1.0) ** p))
    if isinstance(log_s, float) and not log_s:   # the 0.0 of an unscaled spectrum
        return terms
    log_s = np.reshape(log_s, np.shape(log_s) + (1,) * (v.ndim - np.ndim(log_s)))
    with np.errstate(divide="ignore"):   # log 0 = -inf, and logaddexp(0, -inf) = 0
        return np.where(log_s != 0.0, np.logaddexp(0.0, p * (np.log(v) + log_s)), terms)


def _bordered(left: np.ndarray, right: np.ndarray, corner: int = 1) -> np.ndarray:
    """[[corner I, -L], [R, I]] for L (k x j) and R (j x k), or for each pair
    of two stacks; ``corner`` is 1 or 0.

    Its determinant is det(corner I + L R) (Schur's formula on the identity
    block), taken without forming L R, whose rounding (eps * sigma_max^2 for
    L = conj(X), R = X) would swamp the identity or the smallest eigenvalue.
    """
    k, j = left.shape[-2:]
    b = np.zeros(left.shape[:-2] + (k + j, k + j), dtype=complex)
    b[..., :k, k:] = -left
    b[..., k:, :k] = right
    diagonal = np.arange(0 if corner else k, k + j)
    b[..., diagonal, diagonal] = 1.0
    return b


def _det_product_sum(lefts: np.ndarray, rights: np.ndarray, s: float) -> SignedLogDet:
    """det(sum (s L_k)(s R_k)) for stacks of m blocks L_k (k x j) and R_k
    (j x k) that :func:`_unit_scaled` divided by s, from :func:`_bordered`
    [L_1 ... L_m] and [R_1; ...; R_m] at corner 0, whose identity block
    neither dwarfs such blocks nor is dwarfed by them."""
    m, k, j = lefts.shape
    return (det(_bordered(lefts.transpose(1, 0, 2).reshape(k, m * j), rights.reshape(m * j, k), 0))
            * SignedLogDet.from_log(2.0 * k * math.log(s)))


def _log_det_gram(b: np.ndarray, floor=None) -> tuple:
    """log det(sum B_k* B_k) = 2 sum log sigma over the singular values (by
    :func:`_rescaled`) of the stack [B_1; ...; B_m] of the blocks B_k of a
    family, (m, rows, cols), or of each family of a stack of them; whether
    it is flagged zero, its smallest singular value at or below ``floor``;
    and ``floor``, by default the stack's rank floor
    max(rows, cols) * eps * sigma_max, at or below which it is numerically
    rank deficient.  The log of a flagged stack is not used; its zeros are
    raised to the smallest subnormal, so that no log(0) warns, and no other
    value changes."""
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
    """The symmetry test of :func:`predicates`, on a matrix or per matrix of a stack."""
    _, _, norm, asymmetry = _unit_masses(a, _asymmetry)
    return asymmetry <= PREDICATE_REL * norm


def _is_normal(a: np.ndarray) -> bool:
    """The normality test of :func:`predicates`: ||A A* - A* A||_F of the
    exact quotient A/s at most ``PREDICATE_REL`` * ||A/s||_F^2."""
    _, _, norm, commutator = _unit_masses(a, _commutator)
    return bool(commutator <= PREDICATE_REL * norm * norm)


def _y_zero(t: np.ndarray, r: int) -> tuple:
    """Whether ||Y||_F <= PREDICATE_REL * (1 + ||T||_F), Y = T[:r, r:], for
    each T of the stack ``t``; and s and ||Y / s||_F of :func:`_unit_masses`."""
    s, _, norm, y = _unit_masses(t, lambda u: u[..., :r, r:])
    return y <= PREDICATE_REL * (1.0 / s + norm), s, y


# ---------------------------------------------------------------------------
# Checkers


def check_fischer(a: np.ndarray, r: int, tol: Tolerances = DEFAULT_TOL) -> CheckReport:
    """det A11 * det A22 >= det A for PSD A split at r.

    Non-PSD input yields verdict ``precondition_failed`` with the offending
    minimum eigenvalue attached; both sides are still evaluated for context.
    """
    a = as_matrix(a)
    _require_square(a, "check_fischer")
    n = a.shape[0]
    if not 0 < r < n:
        raise ShapeError(f"block split must satisfy 0 < r < n, got r={r}, n={n}")
    preds = predicates(a)
    diagnostics = (Finding("is_psd", preds.is_psd),)
    if preds.min_eigenvalue is not None:
        diagnostics += (Finding("min_eigenvalue", preds.min_eigenvalue),)
    lhs = det(a[:r, :r]) * det(a[r:, r:])
    return _report("fischer", lhs, det(a), tol, diagnostics, precondition_failed=not preds.is_psd)


def check_thm1(family: BlockFamily, tol: Tolerances = DEFAULT_TOL) -> CheckReport:
    """det(sum T_k* T_k) >= det(sum X_k* X_k) * det(sum Z_k* Z_k).

    Holds for any conformally partitioned family; no equality condition is
    claimed.  Each side comes from the singular values of the stacked
    blocks.  All three stacks are flagged zero against one absolute floor,
    the rank floor of the T stack, so a singular value at rounding level
    counts as zero on both sides alike: the smallest singular value of the
    T stack is never above that of the X stack, nor, for one member (where
    the claim is an identity), above that of Z.  The diagnostics flag a
    singular sum X_k* X_k, the case the proof handles by continuity.
    """
    sides = _thm1_sides(family.assemble(), family.r)
    (x_zero,) = sides.detail
    return _sides_report("thm1", sides, tol, (Finding("sum_xx_singular", bool(x_zero)),))


def _thm1_sides(t: np.ndarray, r: int) -> _Sides:
    """log det(sum T_k* T_k) against log det(sum X_k* X_k) det(sum Z_k* Z_k)
    for a family's (m, n, n) stack T, or each of a stack of them, each stack
    flagged against T's rank floor; the detail is X's zero flag."""
    lhs, lhs_zero, floor = _log_det_gram(t)
    (rhs_x, x_zero), (rhs_z, z_zero) = (_log_det_gram(b, floor)[:2]
                                        for b in _diagonal_blocks(t, r))
    return _Sides(lhs, rhs_x + rhs_z, lhs_zero, x_zero | z_zero, detail=(x_zero,))


def _diagonal_blocks(t: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray]:
    """X and Z of T = [[X, Y], [0, Z]], or of each T of a stack, as views."""
    return t[..., :r, :r], t[..., r:, r:]


def check_thm1_schur_steps(family: BlockFamily) -> tuple[Finding, ...]:
    """The two positivity facts behind the summed-Gram determinant bound.

    (i) the stacked Gram sum [[sum X*X, sum X*Y], [sum Y*X, sum Y*Y]] is PSD;
    (ii) the Schur complement of sum X*X in sum T*T dominates sum Z*Z in the
    PSD order.  A sum X*X that the Schur gate rejects short-circuits to a
    failed-precondition finding, since the complement then does not exist.
    Both facts are invariant under scaling the family by a positive
    constant, so the family is first put through :func:`_unit_scaled`.
    """
    r = family.r
    full, _ = _unit_scaled(family.assemble())
    sum_tt = sum(t.conj().T @ t for t in full)
    try:
        complement = schur_complement(sum_tt, r)
    except SingularBlockError:
        return (Finding("sum_xx_nonsingular", False),)
    gram_psd = predicates(sum(t[:r].conj().T @ t[:r] for t in full)).is_psd
    gap = complement - sum(t[r:, r:].conj().T @ t[r:, r:] for t in full)
    gap = (gap + gap.conj().T) / 2.0
    w, _ = hermitian_eigensystem(gap)
    scale = max(float(np.max(np.abs(w))), frobenius_norm(complement))
    dominates = bool(np.min(w) >= -PSD_REL * scale)
    return (
        Finding("sum_xx_nonsingular", True),
        Finding("stacked_gram_sum_psd", bool(gram_psd)),
        Finding("schur_complement_dominates_zz", dominates),
    )


def _abs_power_sides(t: np.ndarray, r: int, p: float) -> _Sides:
    """log det(I + |T|^p) and log det(I + |X|^p) det(I + |Z|^p) for T, or
    for each T of a stack, as products of 1 + sigma^p over the singular
    values of the unsquared blocks (the spectral form of building |.| and
    then its p-th power; the matrix route is pinned to this one by tests),
    X and Z taken from T, under T's s.  The right side sums the terms of X
    and Z in one row.  Equality iff Y = 0; the detail is s and ||Y / s||_F
    of :func:`_y_zero`."""
    _require_exponent(p)
    sigma, log_s = _rescaled(lambda u: np.concatenate(
        [_singular_values(b) for b in (u, *_diagonal_blocks(u, r))], axis=-1), t)
    sums = _log1p_pow(sigma.reshape(sigma.shape[:-1] + (2, -1)), log_s, p).sum(axis=-1)
    y_zero, s, y = _y_zero(t, r)
    return _Sides(sums[..., 0], sums[..., 1], structural_equality=y_zero, detail=(s, y))


def _abs_power_report(inequality_id: str, t: BlockUpperTriangular, p: float,
                      tol: Tolerances, diagnostics: tuple[Finding, ...] = ()) -> CheckReport:
    """det(I + |T|^p) against det(I + |X|^p) * det(I + |Z|^p), equality iff Y = 0."""
    sides = _abs_power_sides(t.assemble(), t.r, p)
    s, y = sides.detail
    return _sides_report(inequality_id, sides, tol,
                         (Finding("y_frobenius", float(s) * float(y)),) + diagnostics)


def check_cor_c0(t: BlockUpperTriangular, tol: Tolerances = DEFAULT_TOL) -> CheckReport:
    """det(I + T*T) >= det(I + X*X) * det(I + Z*Z), equality iff Y = 0: thm3 at p = 2."""
    return _abs_power_report("cor_c0", t, 2.0, tol)


def check_cor_c1(
    family: BlockFamily,
    tol: Tolerances = DEFAULT_TOL,
    allow_hypothesis_violation: bool = False,
) -> CheckReport:
    """det(sum T_k* T_k) >= |det(sum conj(X_k) X_k)| * |det(sum conj(Z_k) Z_k)|.

    Requires every X_k and Z_k normal.  When the hypothesis fails the sides
    are still evaluated (that configuration is exactly what the violation
    search needs); the verdict is ``precondition_failed``, with the verdict
    the margin gives as ``evaluated_verdict``, unless
    ``allow_hypothesis_violation`` is set, in which case the margin decides.
    The signed inner determinants are reported as diagnostics because the
    X-factor can be genuinely negative before the absolute value.

    Where the T stack's rank floor flags the left side zero, the right side
    is zero too if it flags the X or the Z stack, as in thm1: that factor's
    |det(sum conj(B_k) B_k)| is at most det(sum B_k* B_k).
    """
    normal = all(_is_normal(m.x) and _is_normal(m.z) for m in family.members)
    t = family.assemble()
    log_lhs, lhs_zero, floor = _log_det_gram(t)
    lhs = _sld(log_lhs, lhs_zero)
    blocks = _diagonal_blocks(t, family.r)
    inner_x, inner_z = (_det_product_sum(u.conj(), u, s) for u, s in map(_unit_scaled, blocks))
    rhs = inner_x.abs() * inner_z.abs()
    if lhs_zero and any(_log_det_gram(b, floor)[1] for b in blocks):
        rhs = SignedLogDet.zero()
    diagnostics = (
        Finding("blocks_all_normal", normal),
        Finding("det_xbar_x_re", float(inner_x.value.real)),
        Finding("det_xbar_x_im", float(inner_x.value.imag)),
        Finding("det_zbar_z_re", float(inner_z.value.real)),
        Finding("det_zbar_z_im", float(inner_z.value.imag)),
    )
    if not normal:
        diagnostics += (Finding("hypothesis_violated", True),)
    report = _report("cor_c1", lhs, rhs, tol, diagnostics)
    if normal or allow_hypothesis_violation:
        return report
    return _report("cor_c1", lhs, rhs, tol,
                   diagnostics + (Finding("evaluated_verdict", report.verdict.value),),
                   precondition_failed=True)


def check_c1_proof_step(family: BlockFamily) -> Finding:
    """PSD-ness of the 2x2 matrix of determinants built from the X blocks.

    The matrix is [[det sum conj(X)X', det sum conj(X)X],
                   [det sum X*X',      det sum X*X]].
    Scaling the family by a positive constant scales all four entries alike
    and leaves positive semidefiniteness unchanged, so the X blocks are
    first put through :func:`_unit_scaled`, each determinant of theirs is
    taken as :func:`_det_product_sum`, and the four are divided by the
    largest magnitude; nothing overflows.
    """
    xs, _ = _unit_scaled(_diagonal_blocks(family.assemble(), family.r)[0])
    xt, xh = xs.mT, xs.mT.conj()
    d11, d12, d21, d22 = (_det_product_sum(left, right, 1.0) for left, right in
                          ((xs.conj(), xt), (xs.conj(), xs), (xh, xt), (xh, xs)))
    logs = [d.log_magnitude for d in (d11, d12, d21, d22) if not d.is_zero]
    shift = max(logs) if logs else 0.0
    def scaled(d: SignedLogDet) -> complex:
        if d.is_zero:
            return 0j
        return d.phase * math.exp(d.log_magnitude - shift)
    m2 = np.array([[scaled(d11), scaled(d12)], [scaled(d21), scaled(d22)]], dtype=complex)
    return Finding("det_gram_2x2_psd", bool(predicates(m2).is_psd))


def check_lemma1(x: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> CheckReport:
    """det(I + X*X) >= det(I + conj(X) X), equality iff X is symmetric."""
    x = as_matrix(x)
    _require_square(x, "check_lemma1")
    lhs = _sld(_log1p_pow(*_rescaled(singular_values, x), 2.0).sum(), False)   # det(I + X*X)
    rhs = det(_bordered(x.conj(), x))
    s, _, norm, asymmetry = _unit_masses(x, _asymmetry)
    symmetric = bool(asymmetry <= PREDICATE_REL * norm)
    diagnostics = (
        Finding("is_symmetric", symmetric),
        Finding("asymmetry_frobenius", float(s) * float(asymmetry)),
    )
    return _report("lemma1", lhs, rhs, tol, diagnostics, structural_equality=symmetric)


def check_djokovic(x: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> CheckReport:
    """det(I + conj(X) X) >= 0.

    One-sided: rhs is the zero determinant and the margin is the signed,
    compressed value sign(Re det) * log1p(|det|) so that it is finite,
    positive exactly when the determinant is positive, and comparable
    across scales.  The equality window applies to the determinant's value,
    not to the compressed margin.  A determinant with a non-real phase
    beyond the equality window counts as a violation (the quantity is real
    in exact arithmetic).
    """
    x = as_matrix(x)
    _require_square(x, "check_djokovic")
    d = det(_bordered(x.conj(), x))
    if d.is_zero:
        diagnostics = (Finding("det_is_zero", True),)
    else:
        diagnostics = (Finding("phase_re", float(d.phase.real)),
                       Finding("phase_im", float(d.phase.imag)))
    return _report(
        "djokovic", d, SignedLogDet.zero(), tol, diagnostics,
        margin=math.copysign(float(np.logaddexp(0.0, d.log_magnitude)), d.phase.real),
        value=d.phase.real * math.exp(min(d.log_magnitude, 700.0)),
        phase_gap=abs(d.phase.imag),
    )


def check_thm2(t: BlockUpperTriangular, tol: Tolerances = DEFAULT_TOL) -> CheckReport:
    """det(I + T*T) >= det(I + conj(X) X) * det(I + conj(Z) Z).

    No absolute value on the right: each factor is itself nonnegative.
    Equality iff Y = 0 and both X and Z are symmetric.
    """
    sides = _thm2_sides(t.assemble(), t.r)
    det_x, det_z, s, y = sides.detail
    diagnostics = (
        Finding("y_frobenius", float(s) * float(y)),
        Finding("x_is_symmetric", bool(_is_symmetric(t.x))),
        Finding("z_is_symmetric", bool(_is_symmetric(t.z))),
    )
    return _sides_report("thm2", sides, tol, diagnostics,
                         rhs=_signed_log_det(*det_x) * _signed_log_det(*det_z))


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
                  detail=(det_x, det_z, s, y))


def check_drury(t: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> CheckReport:
    """det(I + T*T) >= prod(1 + |t_jj|^2) for upper triangular T.

    Equality iff T is diagonal.  A non-triangular input is a failed
    precondition; both sides are still evaluated for context.
    """
    t = as_matrix(t)
    _require_square(t, "check_drury")
    sides = _drury_sides(t)
    s, off_mass = sides.detail
    diagnostics = (Finding("off_diagonal_frobenius", float(s) * float(off_mass)),)
    if sides.precondition_failed:
        diagnostics += (Finding("is_upper_triangular", False),)
    return _sides_report("drury", sides, tol, diagnostics)


def _drury_sides(t: np.ndarray) -> _Sides:
    """For T, or each T of a stack: log det(I + T*T) against log prod(1 +
    |t_jj|^2); equality iff T is diagonal, a failed precondition unless it
    is upper triangular, each by the gates of :func:`predicates`.  The
    detail is s and the off-diagonal mass of T / s."""
    rows, log_s = _rescaled(lambda u: np.stack(
        [_singular_values(u), np.abs(np.diagonal(u, axis1=-2, axis2=-1))], axis=-2), t)
    sums = _log1p_pow(rows, log_s, 2.0).sum(axis=-1)
    s, _, norm, lower, off_mass = _unit_masses(
        t, _strict_lower, lambda u: np.where(np.eye(u.shape[-1], dtype=bool), 0.0, u))
    gate = PREDICATE_REL * norm
    return _Sides(sums[..., 0], sums[..., 1], structural_equality=off_mass <= gate,
                  precondition_failed=~(lower <= gate), detail=(s, off_mass))


def check_thm3(t: BlockUpperTriangular, p: float, tol: Tolerances = DEFAULT_TOL) -> CheckReport:
    """det(I + |T|^p) >= det(I + |X|^p) * det(I + |Z|^p) for p >= 1, equality iff Y = 0.

    p = 2 is :func:`check_cor_c0`; this report adds the finding ``p``.
    """
    return _abs_power_report("thm3", t, p, tol, (Finding("p", float(p)),))


def _require_exponent(p: float) -> None:
    if not 1.0 <= p < math.inf:   # NaN compares false
        raise ValueError(f"the exponent must satisfy p >= 1, got {p}")


def _cumulative_logs(values: np.ndarray, log_s: float) -> np.ndarray:
    """Prefix sums of log(s v) over values v divided by s."""
    with np.errstate(divide="ignore"):
        return np.cumsum(np.log(values) + log_s)


def check_log_major(
    a: np.ndarray,
    b: np.ndarray,
    p: float,
    tol: Tolerances = DEFAULT_TOL,
    *,
    log_scale: float = 0.0,
) -> CheckReport:
    """prod(1 + b_j^p) >= prod(1 + a_j^p) when a is weakly log-majorized by b.

    Hypothesis: both sequences non-increasing and nonnegative, every partial
    product of a bounded by the matching partial product of b, with equal
    full products (each within ``MAJOR_REL``).  A hypothesis failure is a
    failed precondition reporting the first violating prefix length.  The
    sequences may be given divided by one s (:func:`_rescaled`), and
    ``log_scale`` is then log s.
    """
    _require_exponent(p)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 1 or b.ndim != 1 or a.shape != b.shape or a.size == 0:
        raise ShapeError(f"need two equal-length nonempty sequences, got {a.shape} and {b.shape}")
    for name, seq in (("a", a), ("b", b)):
        if np.any(seq < 0.0):
            raise ValueError(f"sequence {name} must be nonnegative")
        if np.any(np.diff(seq) > 0.0):
            raise ValueError(f"sequence {name} must be non-increasing")
    cum_a = _cumulative_logs(a, log_scale)
    cum_b = _cumulative_logs(b, log_scale)
    lhs = SignedLogDet.from_log(float(_log1p_pow(b, log_scale, p).sum()))
    rhs = SignedLogDet.from_log(float(_log1p_pow(a, log_scale, p).sum()))
    diagnostics: tuple[Finding, ...] = ()
    for k in range(a.size):
        slack = MAJOR_REL * max(1.0, abs(cum_b[k]) if math.isfinite(cum_b[k]) else 1.0)
        if cum_a[k] > cum_b[k] + slack:
            diagnostics = (Finding("first_violating_k", k + 1),)
            break
    else:
        finite = math.isfinite(cum_a[-1]) and math.isfinite(cum_b[-1])
        both_zero = math.isinf(cum_a[-1]) and math.isinf(cum_b[-1])
        if not both_zero and (not finite or abs(cum_a[-1] - cum_b[-1])
                              > MAJOR_REL * max(1.0, abs(cum_b[-1]))):
            diagnostics = (Finding("final_products_differ", True),)
    return _report("log_major", lhs, rhs, tol, diagnostics, precondition_failed=bool(diagnostics))


def check_weyl(a: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> CheckReport:
    """Eigenvalue moduli weakly log-majorized by singular values.

    For every prefix, the product of the top eigenvalue moduli is bounded by
    the product of the top singular values, and the full products agree.
    ``margin`` is the smallest strict-prefix gap in the log domain (the k = n
    gap is an identity and is reported as a diagnostic instead); for a normal
    matrix every prefix is tight and the verdict is ``equality``.  The k = n
    gap is a violation only beyond both the equality window and the
    first-order error of the two computed products, n * eps * sigma_max /
    sigma_min.
    """
    a = as_matrix(a)
    _require_square(a, "check_weyl")
    (lam, sig), log_s = _rescaled(lambda u: (np.abs(general_eigenvalues(u)),
                                             singular_values(u)), a)
    cum_l = _cumulative_logs(lam, log_s)
    cum_s = _cumulative_logs(sig, log_s)
    lhs, rhs = (SignedLogDet.zero() if math.isinf(cum[-1])
                else SignedLogDet.from_log(float(cum[-1])) for cum in (cum_s, cum_l))
    with np.errstate(invalid="ignore"):   # -inf - -inf where both prefixes reach log 0
        gaps = cum_s[:-1] - cum_l[:-1]
    gaps = gaps[np.isfinite(gaps)]
    final_gap = lhs.log_ratio(rhs)
    rounding = lam.size * _EPS * float(sig[0]) / float(sig[-1]) if sig[-1] > 0.0 else math.inf
    beyond_rounding = math.isfinite(final_gap) and abs(final_gap) > rounding
    return _report("weyl", lhs, rhs, tol, (Finding("final_product_gap", final_gap),),
                   margin=float(np.min(gaps)) if gaps.size else 0.0,
                   identity_gap=abs(final_gap) if beyond_rounding else 0.0)


def check_schur_identity(a: np.ndarray, r: int, tol: Tolerances = DEFAULT_TOL) -> CheckReport:
    """det A = det A11 * det(A / A11): both magnitudes and phases must match."""
    a = as_matrix(a)
    _require_square(a, "check_schur_identity")
    try:
        complement, log_s = _rescaled(lambda u: schur_complement(u, r), a)
    except SingularBlockError as err:
        zero = SignedLogDet.zero()
        return _report("schur_identity", zero, zero, tol,
                       (Finding("leading_block_condition", _json_value(err.condition_estimate)),),
                       precondition_failed=True)
    lhs = det(a[:r, :r])
    if log_s:   # the complement of A/s is A's divided by s
        lhs = lhs * SignedLogDet.from_log((a.shape[0] - r) * log_s)
    lhs = lhs * det(complement)
    rhs = det(a)
    if lhs.is_zero or rhs.is_zero:
        return _report("schur_identity", lhs, rhs, tol)
    phase_gap = float(abs(lhs.phase - rhs.phase))
    return _report("schur_identity", lhs, rhs, tol, (Finding("phase_distance", phase_gap),),
                   phase_gap=phase_gap)


def check_e21(family: BlockFamily, tol: Tolerances = DEFAULT_TOL) -> CheckReport:
    """det(|T1| + |T2|) vs det(|X1| + |X2|) * det(|Z1| + |Z2|).

    A candidate inequality that is false in general: the verdict simply
    reports which way the comparison falls on the given pair.
    """
    if family.m != 2:
        raise ShapeError(f"this comparison needs exactly two members, got {family.m}")
    pair = np.concatenate([t.assemble() for t in family.members])   # [T1; T2]: one s for both
    (t_sum, x_sum, z_sum), log_s = _rescaled(lambda u: _abs_sums(u, family.r), pair)
    lhs, rhs = det(t_sum), det(x_sum) * det(z_sum)
    if log_s:   # |T_k / s| = |T_k| / s: each side is s^-n times the pair's
        lhs, rhs = (side * SignedLogDet.from_log(family.n * log_s) for side in (lhs, rhs))
    return _report("e21", lhs, rhs, tol)


def _abs_sums(pair: np.ndarray, r: int) -> tuple[np.ndarray, ...]:
    """|T1| + |T2| of the pair [T1; T2], and the same of the X and of the Z blocks."""
    t1, t2 = np.split(pair, 2)
    return tuple(abs_matrix(b1) + abs_matrix(b2) for b1, b2 in
                 ((t1, t2), (t1[:r, :r], t2[:r, :r]), (t1[r:, r:], t2[r:, r:])))


# ---------------------------------------------------------------------------
# The batched evaluator
#
# It scores a chunk of a search's trials at once from the :class:`_Sides`
# of the chunk's stack (each trial's T, or the (m, n, n) stack of its
# family), given by the sides function the id's checker reads: each trial's
# margin is bitwise the checker's, and its code the checker's verdict.


def _evaluate(sides: _Sides, tol: Tolerances) -> tuple[np.ndarray, np.ndarray]:
    """Each input's margin, :meth:`SignedLogDet.log_ratio` elementwise, and
    its code by :func:`_decide`, from the :class:`_Sides` of a stack of
    inputs; a flagged lhs's log magnitude reads 0, as in :func:`_report`."""
    lhs, rhs, lhs_zero, rhs_zero = sides[:4]
    margin = lhs - rhs
    zero = lhs_zero | rhs_zero   # False where neither side is ever flagged
    if zero is not False and zero.any():   # few chunks: the others skip the four selections
        margin = np.where(lhs_zero, np.where(rhs_zero, 0.0, -np.inf),
                          np.where(rhs_zero, np.inf, margin))
        lhs = np.where(lhs_zero, 0.0, lhs)
    return margin, _decide(margin, lhs, tol, sides.structural_equality,
                           precondition_failed=sides.precondition_failed)[0]
