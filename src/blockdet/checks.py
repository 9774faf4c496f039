"""One checker per determinantal inequality, with equality diagnostics.

Every checker returns a :class:`CheckReport` whose ``lhs`` is the side the
inequality claims dominates and whose ``rhs`` is the dominated side, so for
a holding instance ``margin = log|lhs| - log|rhs| >= 0``.  Comparisons run
entirely in the log domain: the counterexample families push determinants
to 1e8 and beyond, where raw subtraction in double precision is meaningless.

Every verdict is decided, and every report built, by one rule,
:func:`_report`, with one equality window.  Where the inequality has a
characterized equality case (cor_c0, lemma1, thm2, drury, thm3),
classification is structural-first: the checker computes both the numeric
margin and the structural condition, the verdict follows the structure, and
a discrepancy diagnostic is attached if the two disagree instead of
silently trusting either.

All checkers are stateless pure functions over immutable inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    MAJOR_REL,
    PREDICATE_REL,
    PSD_REL,
    BlockUpperTriangular,
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
    identity,
    predicates,
    schur_complement,
    singular_values,
    _power_of_two_above,
    _product_may_overflow,
    _require_square,
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


# ---------------------------------------------------------------------------
# Verdict machinery


def _eq_window(lhs: SignedLogDet, tol: Tolerances) -> float:
    anchor = abs(lhs.log_magnitude) if not lhs.is_zero else 0.0
    return tol.eq_rel * max(1.0, anchor)


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
    identity_gap: float = 0.0,
    phase_gap: float = 0.0,
    precondition_failed: bool = False,
) -> CheckReport:
    """The one verdict rule; every checker's report is built here.

    ``margin`` defaults to log|lhs| - log|rhs|.  The equality window
    :func:`_eq_window` is applied to ``value``, which defaults to the margin;
    djokovic passes the value of its determinant instead, and a value inside
    the window is then reported as margin 0.  The claim is violated when the
    value falls below the window, or, whatever the margin, when a quantity
    that is exact in exact arithmetic is off: ``identity_gap`` (a log gap
    already past its rounding allowance) beyond the window, or ``phase_gap``
    (the distance between unit phases) beyond ``tol.eq_rel``.  A failed
    precondition overrides everything.

    Where the inequality has a characterized equality case,
    ``structural_equality`` decides equality and the window only decides
    violation; a ``structural_numeric_mismatch`` or
    ``margin_within_equality_band`` finding is added when the numeric
    classification disagrees.
    """
    if margin is None:
        margin = lhs.log_ratio(rhs)
    windowed = margin if value is None else value
    eps = _eq_window(lhs, tol)
    numeric_equality = abs(windowed) <= eps
    if precondition_failed:
        verdict = Verdict.PRECONDITION_FAILED
    elif windowed < -eps or identity_gap > eps or phase_gap > tol.eq_rel:
        verdict = Verdict.VIOLATED
        if structural_equality:
            diagnostics += (Finding("structural_numeric_mismatch", True),)
    elif structural_equality is None:
        verdict = Verdict.EQUALITY if numeric_equality else Verdict.HOLDS_STRICT
    else:
        verdict = Verdict.EQUALITY if structural_equality else Verdict.HOLDS_STRICT
        if structural_equality != numeric_equality:
            name = ("structural_numeric_mismatch" if structural_equality
                    else "margin_within_equality_band")
            diagnostics += (Finding(name, True),)
    if verdict is Verdict.EQUALITY and value is not None:
        margin = 0.0
    return CheckReport(inequality_id, lhs, rhs, margin, verdict, diagnostics)


# Double-precision machine epsilon: a stack of blocks is numerically rank
# deficient, and its Gram determinant zero, when sigma_min is at or below
# max(rows, cols) * _EPS * sigma_max; computed spectra carry errors of
# about _EPS * sigma_max.
_EPS = float(np.finfo(float).eps)


def _sum_log1p_pow(v: np.ndarray, p: float) -> float:
    """sum log(1 + v^p) over nonnegative v.

    Entries above 1 take p log v + log1p(v^-p), so v^p is never formed where
    it could overflow.
    """
    big = v > 1.0
    small, large = v[~big], v[big]
    return float(np.sum(np.log1p(small ** p)) + np.sum(p * np.log(large) + np.log1p(large ** -p)))


def _log_det_identity_plus_abs_power(a: np.ndarray, p: float) -> SignedLogDet:
    """det(I + |A|^p) = prod(1 + sigma^p) over the singular values of A.

    At p = 2 this is det(I + A*A), taken without forming A*A.
    """
    return SignedLogDet.from_log(_sum_log1p_pow(singular_values(a), p))


def _stack_singular_values(blocks: list[np.ndarray]) -> tuple[np.ndarray, float]:
    """Singular values of the stack [B_1; ...; B_m] and its rank floor.

    The floor is max(rows, cols) * eps * sigma_max: a stack whose smallest
    singular value is at or below it is numerically rank deficient.
    """
    stacked = np.vstack(blocks)
    sigma = singular_values(stacked)
    return sigma, max(stacked.shape) * _EPS * float(sigma[0])


def _log_det_gram(sigma: np.ndarray, floor: float) -> SignedLogDet:
    """det(sum B_k* B_k) = prod sigma^2 over the stack's singular values.

    Flagged zero when the smallest is at or below ``floor``.
    """
    if sigma[-1] <= floor:
        return SignedLogDet.zero()
    return SignedLogDet.from_log(2.0 * float(np.sum(np.log(sigma))))


def _det_conj_product_sum(xs: list[np.ndarray], plus_identity: bool) -> SignedLogDet:
    """det(sum conj(X_k) X_k), or of I plus that sum, by LU without overflow.

    Where a product could overflow, D = diag(d_i) is factored out, d_i the
    power of two above the largest modulus in row i and column i of any X_k:
    det(I + sum conj(X_k) X_k)
        = det(D)^2 det(D^-2 + sum (D^-1 conj(X_k)) (X_k D^-1)),
    likewise without the identity, and no entry of the scaled sum exceeds
    m n in modulus.  One scale per index, not one for all the X_k, keeps the
    products of small entries clear of subnormals next to a huge one.
    """
    if not _product_may_overflow(math.hypot(*(frobenius_norm(x) for x in xs))):
        total = sum((x.conj() @ x for x in xs[1:]), xs[0].conj() @ xs[0])
        return det(total + identity(total.shape[0]) if plus_identity else total)
    mags = np.abs(np.array(xs))
    d = _power_of_two_above(np.maximum(mags.max(axis=(0, 1)), mags.max(axis=(0, 2))))
    inv = 1.0 / d
    products = [(x.conj() * inv[:, None]) @ (x * inv) for x in xs]
    scaled = sum(products[1:], products[0])
    if plus_identity:
        scaled = scaled + np.diag(inv * inv)
    return SignedLogDet.from_log(2.0 * float(np.sum(np.log(d)))) * det(scaled)


def _unit_scaled(mats: list[np.ndarray]) -> list[np.ndarray]:
    """The matrices divided by the power of two above their largest entry modulus.

    The division is exact, and no Gram-type sum of the results overflows.
    """
    s = float(_power_of_two_above(max(float(np.max(np.abs(m))) for m in mats)))
    return [m / s for m in mats]


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
    sigma_t, floor = _stack_singular_values([m.assemble() for m in family.members])
    lhs = _log_det_gram(sigma_t, floor)
    rhs_x = _log_det_gram(_stack_singular_values([m.x for m in family.members])[0], floor)
    rhs_z = _log_det_gram(_stack_singular_values([m.z for m in family.members])[0], floor)
    diagnostics = (Finding("sum_xx_singular", bool(rhs_x.is_zero)),)
    return _report("thm1", lhs, rhs_x * rhs_z, tol, diagnostics)


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
    full = _unit_scaled([m.assemble() for m in family.members])
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
    dominates = bool(np.min(w) >= -PSD_REL * max(scale, 1e-300))
    return (
        Finding("sum_xx_nonsingular", True),
        Finding("stacked_gram_sum_psd", bool(gram_psd)),
        Finding("schur_complement_dominates_zz", dominates),
    )


def _y_is_structurally_zero(t: BlockUpperTriangular) -> tuple[bool, float]:
    y_norm = frobenius_norm(t.y)
    total = math.hypot(frobenius_norm(t.x), y_norm, frobenius_norm(t.z))
    return y_norm <= PREDICATE_REL * (1.0 + total), y_norm


def _abs_power_report(inequality_id: str, t: BlockUpperTriangular, p: float,
                      tol: Tolerances, diagnostics: tuple[Finding, ...] = ()) -> CheckReport:
    """det(I + |T|^p) against det(I + |X|^p) * det(I + |Z|^p), equality iff Y = 0.

    Each side is the product of 1 + sigma^p over the singular values of the
    unsquared block (the spectral form of building |.| and then its p-th
    power; the matrix route is pinned to this one by tests).
    """
    lhs = _log_det_identity_plus_abs_power(t.assemble(), p)
    rhs = _log_det_identity_plus_abs_power(t.x, p) * _log_det_identity_plus_abs_power(t.z, p)
    y_zero, y_norm = _y_is_structurally_zero(t)
    return _report(inequality_id, lhs, rhs, tol, (Finding("y_frobenius", y_norm),) + diagnostics,
                   structural_equality=y_zero)


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
    """
    normal = all(
        predicates(m.x).is_normal and predicates(m.z).is_normal for m in family.members
    )
    lhs = _log_det_gram(*_stack_singular_values([m.assemble() for m in family.members]))
    inner_x = _det_conj_product_sum([m.x for m in family.members], plus_identity=False)
    inner_z = _det_conj_product_sum([m.z for m in family.members], plus_identity=False)
    rhs = inner_x.abs() * inner_z.abs()
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
    first put through :func:`_unit_scaled`, and the four determinants are
    divided by the largest magnitude; nothing overflows.
    """
    xs = _unit_scaled([m.x for m in family.members])
    d11 = det(sum(x.conj() @ x.T for x in xs))
    d12 = _det_conj_product_sum(xs, plus_identity=False)
    d21 = det(sum(x.conj().T @ x.T for x in xs))
    d22 = det(sum(x.conj().T @ x for x in xs))
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
    lhs = _log_det_identity_plus_abs_power(x, 2.0)
    rhs = _det_conj_product_sum([x], plus_identity=True)
    symmetric = predicates(x).is_symmetric
    diagnostics = (
        Finding("is_symmetric", symmetric),
        Finding("asymmetry_frobenius", frobenius_norm(x - x.T)),
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
    d = _det_conj_product_sum([x], plus_identity=True)
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
    lhs = _log_det_identity_plus_abs_power(t.assemble(), 2.0)
    rhs = (_det_conj_product_sum([t.x], plus_identity=True)
           * _det_conj_product_sum([t.z], plus_identity=True))
    y_zero, y_norm = _y_is_structurally_zero(t)
    x_sym = predicates(t.x).is_symmetric
    z_sym = predicates(t.z).is_symmetric
    diagnostics = (
        Finding("y_frobenius", y_norm),
        Finding("x_is_symmetric", x_sym),
        Finding("z_is_symmetric", z_sym),
    )
    return _report("thm2", lhs, rhs, tol, diagnostics,
                   structural_equality=y_zero and x_sym and z_sym)


def check_drury(t: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> CheckReport:
    """det(I + T*T) >= prod(1 + |t_jj|^2) for upper triangular T.

    Equality iff T is diagonal.  A non-triangular input is a failed
    precondition; both sides are still evaluated for context.
    """
    t = as_matrix(t)
    _require_square(t, "check_drury")
    triangular = predicates(t).is_upper_triangular
    lhs = _log_det_identity_plus_abs_power(t, 2.0)
    rhs = SignedLogDet.from_log(_sum_log1p_pow(np.abs(np.diagonal(t)), 2.0))
    off_mass = frobenius_norm(t - np.diag(np.diagonal(t)))
    diagnostics = (Finding("off_diagonal_frobenius", off_mass),)
    if not triangular:
        diagnostics += (Finding("is_upper_triangular", False),)
    return _report("drury", lhs, rhs, tol, diagnostics,
                   structural_equality=off_mass <= PREDICATE_REL * frobenius_norm(t),
                   precondition_failed=not triangular)


def check_thm3(t: BlockUpperTriangular, p: float, tol: Tolerances = DEFAULT_TOL) -> CheckReport:
    """det(I + |T|^p) >= det(I + |X|^p) * det(I + |Z|^p) for p >= 1, equality iff Y = 0.

    p = 2 is :func:`check_cor_c0`; this report adds the finding ``p``.
    """
    if p < 1.0:
        raise ValueError(f"the exponent must satisfy p >= 1, got {p}")
    return _abs_power_report("thm3", t, p, tol, (Finding("p", float(p)),))


def _cumulative_logs(values: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.cumsum(np.log(values))


def check_log_major(
    a: np.ndarray,
    b: np.ndarray,
    p: float,
    tol: Tolerances = DEFAULT_TOL,
) -> CheckReport:
    """prod(1 + b_j^p) >= prod(1 + a_j^p) when a is weakly log-majorized by b.

    Hypothesis: both sequences non-increasing and nonnegative, every partial
    product of a bounded by the matching partial product of b, with equal
    full products (each within ``MAJOR_REL``).  A hypothesis failure is a
    failed precondition reporting the first violating prefix length.
    """
    if p < 1.0:
        raise ValueError(f"the exponent must satisfy p >= 1, got {p}")
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 1 or b.ndim != 1 or a.shape != b.shape or a.size == 0:
        raise ShapeError(f"need two equal-length nonempty sequences, got {a.shape} and {b.shape}")
    for name, seq in (("a", a), ("b", b)):
        if np.any(seq < 0.0):
            raise ValueError(f"sequence {name} must be nonnegative")
        if np.any(np.diff(seq) > 0.0):
            raise ValueError(f"sequence {name} must be non-increasing")
    cum_a = _cumulative_logs(a)
    cum_b = _cumulative_logs(b)
    lhs = SignedLogDet.from_log(_sum_log1p_pow(b, p))
    rhs = SignedLogDet.from_log(_sum_log1p_pow(a, p))
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
    lam = np.abs(general_eigenvalues(a))
    sig = singular_values(a)
    cum_l = _cumulative_logs(lam)
    cum_s = _cumulative_logs(sig)
    lhs = SignedLogDet.zero() if math.isinf(cum_s[-1]) else SignedLogDet.from_log(float(cum_s[-1]))
    rhs = SignedLogDet.zero() if math.isinf(cum_l[-1]) else SignedLogDet.from_log(float(cum_l[-1]))
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
        complement = schur_complement(a, r)
    except SingularBlockError as err:
        zero = SignedLogDet.zero()
        return _report("schur_identity", zero, zero, tol,
                       (Finding("leading_block_condition", _json_value(err.condition_estimate)),),
                       precondition_failed=True)
    lhs = det(a[:r, :r]) * det(complement)
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
    t1, t2 = family.members
    lhs = det(abs_matrix(t1.assemble()) + abs_matrix(t2.assemble()))
    rhs = det(abs_matrix(t1.x) + abs_matrix(t2.x)) * det(abs_matrix(t1.z) + abs_matrix(t2.z))
    return _report("e21", lhs, rhs, tol)
