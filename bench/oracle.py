"""Independent reference values and verdict expectations for the benchmark.

Nothing here imports blockdet.  Every expectation comes from the theorem a
checker implements and from how its input was built:

* a proven inequality is never ``violated``;
* ``precondition_failed`` is expected only where the input breaks the
  precondition by construction;
* ``equality`` is expected exactly where the characterized equality
  condition holds exactly (Y = 0, a diagonal T, a symmetric X, ...);
* otherwise the true margin comes from numpy on the unsquared factors
  (singular values, ``slogdet``), never from a Gram matrix: where it lies
  clearly outside the equality window the verdict must be ``holds_strict``
  (``violated`` for a refutable comparison), and inside it either
  ``equality`` or ``holds_strict`` is accepted.

All logarithms stay in the log domain, so the references hold at entries
from 1e-150 to 1e160.
"""

from __future__ import annotations

import math

import numpy as np

# The package's documented default log-domain equality window (`--tol-eq`).
EQ_REL = 1e-8
# "Clearly outside the window" means by more than this many windows.
CLEAR = 10.0

HOLDS = "holds_strict"
EQUALITY = "equality"
VIOLATED = "violated"
PRECONDITION = "precondition_failed"

EXIT_CODE = {HOLDS: 0, EQUALITY: 0, VIOLATED: 1, PRECONDITION: 2}

# A Gram product squares the condition number, and its rounding (eps kappa^2)
# reaches the equality window near kappa = 1e4.  ROADMAP item 2 records the
# false verdicts that follow; a false ``violated`` on an input at least this
# ill-conditioned is that known defect.
GRAM_KAPPA = 1e4

# Published numbers: Example 1 (cor_c1 without normal blocks), the signed
# inner determinant of the remark, and Example 3 (e21).  Rounded as printed.
EXAMPLE1_T1 = ((-9, 10, 5, 12), (-7, 10, -11, -10), (0, 0, -2, 3), (0, 0, 2, 26))
EXAMPLE1_T2 = ((13, -16, 3, 3), (-7, 9, 3, 11), (0, 0, 3, -16), (0, 0, -7, -13))
EXAMPLE3_T1 = ((2, -3, 9, -1), (-4, 15, 1, -19), (0, 0, 0, -2), (0, 0, -4, 19))
EXAMPLE3_T2 = ((0, 1, 6, 0), (4, -12, 12, 10), (0, 0, 14, -2), (0, 0, 23, -3))
REMARK_X1 = ((1, 2), (0, 1))
PUBLISHED = {
    ("example1", "lhs_det"): (1.25e8, 5e-3),
    ("example1", "rhs_det"): (9.93e8, 5e-3),
    ("remark_minus12", "det_xbar_x"): (-12.0, None),
    ("example3", "lhs_det"): (5193.1, 2e-3),
    ("example3", "rhs_det"): (20248.0, 2e-3),
}


# ---------------------------------------------------------------------------
# log-domain building blocks


def _scaled(a: np.ndarray) -> tuple[np.ndarray, float]:
    """a / c and log c for c the largest entry modulus (1 for a zero matrix)."""
    c = float(np.max(np.abs(a))) if a.size else 0.0
    if c == 0.0 or not math.isfinite(c):
        return a, 0.0
    return a / c, math.log(c)


def log_sv(a: np.ndarray) -> np.ndarray:
    """log of the singular values, scale-safe; -inf for exact zeros."""
    b, shift = _scaled(np.asarray(a, dtype=complex))
    s = np.linalg.svd(b, compute_uv=False)
    with np.errstate(divide="ignore"):
        return np.log(s) + shift


def log1p_pow(log_v: np.ndarray, p: float) -> float:
    """sum log(1 + v^p) from log v."""
    return float(np.sum(np.logaddexp(0.0, p * np.asarray(log_v, dtype=float))))


def log_abs_det(a: np.ndarray) -> float:
    b, shift = _scaled(np.asarray(a, dtype=complex))
    sign, logdet = np.linalg.slogdet(b)
    return -math.inf if sign == 0 else float(logdet) + b.shape[0] * shift


def det_i_plus_conj_product(x: np.ndarray) -> tuple[complex, float]:
    """det(I + conj(X) X) as (sign, log|.|) without forming the product.

    det(I + conj(X) X) = det(I + X conj(X)) = det [[I, -conj(X)], [X, I]].
    """
    x = np.asarray(x, dtype=complex)
    n = x.shape[0]
    block = np.block([[np.eye(n), -x.conj()], [x, np.eye(n)]])
    sign, logdet = np.linalg.slogdet(block)
    return complex(sign), (-math.inf if sign == 0 else float(logdet))


def abs_matrix(a: np.ndarray) -> np.ndarray:
    """(A* A)^{1/2} = V diag(sigma) V* from the SVD of A itself."""
    _, s, vh = np.linalg.svd(np.asarray(a, dtype=complex))
    return (vh.conj().T * s) @ vh


def log_eig_moduli(a: np.ndarray) -> np.ndarray:
    """log |eigenvalues|, non-increasing; -inf for exact zeros."""
    b, shift = _scaled(np.asarray(a, dtype=complex))
    with np.errstate(divide="ignore"):
        return np.sort(np.log(np.abs(np.linalg.eigvals(b))))[::-1] + shift


def condition(mats) -> float:
    """The largest condition number sigma_max / sigma_min among ``mats``."""
    worst = 1.0
    for m in mats:
        s = np.linalg.svd(np.asarray(m, dtype=complex), compute_uv=False)
        worst = max(worst, math.inf if s[-1] == 0.0 else float(s[0] / s[-1]))
    return worst


# ---------------------------------------------------------------------------
# reference (lhs, margin) per inequality; lhs is the dominating side's log


def _blocks(t: np.ndarray, r: int):
    return t[:r, :r], t[:r, r:], t[r:, r:]


def ref_thm1(mats, r):
    lhs = 2.0 * float(np.sum(log_sv(np.vstack(mats))))
    rx = 2.0 * float(np.sum(log_sv(np.vstack([m[:r, :r] for m in mats]))))
    rz = 2.0 * float(np.sum(log_sv(np.vstack([m[r:, r:] for m in mats]))))
    return lhs, lhs - (rx + rz)


def ref_thm3(t, r, p=2.0):
    x, _, z = _blocks(t, r)
    lhs = log1p_pow(log_sv(t), p)
    return lhs, lhs - log1p_pow(log_sv(x), p) - log1p_pow(log_sv(z), p)


def ref_thm2(t, r):
    x, _, z = _blocks(t, r)
    lhs = log1p_pow(log_sv(t), 2.0)
    return lhs, lhs - det_i_plus_conj_product(x)[1] - det_i_plus_conj_product(z)[1]


def ref_cor_c1(mats, r):
    lhs = 2.0 * float(np.sum(log_sv(np.vstack(mats))))
    inner = 0.0
    for part in ([m[:r, :r] for m in mats], [m[r:, r:] for m in mats]):
        scaled = [_scaled(b) for b in part]
        shift = max(s for _, s in scaled)
        acc = sum((b * math.exp(s - shift)).conj() @ (b * math.exp(s - shift)) for b, s in scaled)
        inner += log_abs_det(acc) + 2.0 * acc.shape[0] * shift
    return lhs, lhs - inner


def ref_drury(t):
    lhs = log1p_pow(log_sv(t), 2.0)
    with np.errstate(divide="ignore"):
        diag = np.log(np.abs(np.diagonal(t)))
    return lhs, lhs - log1p_pow(diag, 2.0)


def ref_lemma1(x):
    lhs = log1p_pow(log_sv(x), 2.0)
    return lhs, lhs - det_i_plus_conj_product(x)[1]


def ref_fischer(a, r):
    lhs = log_abs_det(a[:r, :r]) + log_abs_det(a[r:, r:])
    return lhs, lhs - log_abs_det(a)


def ref_weyl(a):
    cum_s = np.cumsum(log_sv(a))
    cum_l = np.cumsum(log_eig_moduli(a))
    gaps = (cum_s - cum_l)[:-1]
    gaps = gaps[np.isfinite(gaps)]
    return float(cum_s[-1]), (float(np.min(gaps)) if gaps.size else 0.0)


def ref_log_major(x, p=2.0):
    b = 2.0 * log_sv(x)
    xs, shift = _scaled(np.asarray(x, dtype=complex))
    with np.errstate(divide="ignore"):
        a = np.log(np.abs(np.linalg.eigvals(xs.conj() @ xs))) + 2.0 * shift
    lhs = log1p_pow(b, p)
    return lhs, lhs - log1p_pow(a, p)


def ref_e21(mats, r):
    lhs = log_abs_det(abs_matrix(mats[0]) + abs_matrix(mats[1]))
    rx = log_abs_det(abs_matrix(mats[0][:r, :r]) + abs_matrix(mats[1][:r, :r]))
    rz = log_abs_det(abs_matrix(mats[0][r:, r:]) + abs_matrix(mats[1][r:, r:]))
    return lhs, lhs - (rx + rz)


# ---------------------------------------------------------------------------
# expectations


def window(lhs_log: float) -> float:
    return EQ_REL * max(1.0, abs(lhs_log) if math.isfinite(lhs_log) else 0.0)


def expected_from_margin(lhs_log: float, margin: float, proven: bool = True) -> frozenset:
    """Accepted verdicts for a reference margin with no exact equality case."""
    w = CLEAR * window(lhs_log)
    if margin > w:
        return frozenset({HOLDS})
    if margin < -w:
        if proven:
            raise ValueError(f"reference margin {margin:.3e} contradicts a proven inequality")
        return frozenset({VIOLATED})
    if proven:
        return frozenset({HOLDS, EQUALITY})
    return frozenset({HOLDS, EQUALITY, VIOLATED})


def expected_verdicts(ineq: str, mats, r=None, p=None, *, equality=False,
                      precondition_broken=False, allow_hypothesis_violation=False) -> frozenset:
    """Accepted verdicts for one ``blockdet check`` call.

    ``equality`` and ``precondition_broken`` state how the input was built;
    nothing here reads blockdet's answer.
    """
    if precondition_broken and not (ineq == "cor_c1" and allow_hypothesis_violation):
        return frozenset({PRECONDITION})
    if equality:
        return frozenset({EQUALITY})
    proven = ineq != "e21" and not (ineq == "cor_c1" and precondition_broken)
    if ineq == "djokovic":
        _, logdet = det_i_plus_conj_product(mats[0])
        value_ok = logdet > math.log(CLEAR * window(logdet)) if math.isfinite(logdet) else False
        return frozenset({HOLDS}) if value_ok else frozenset({HOLDS, EQUALITY})
    if ineq == "schur_identity":
        return frozenset({EQUALITY})
    lhs, margin = {
        "thm1": lambda: ref_thm1(mats, r),
        "cor_c0": lambda: ref_thm3(mats[0], r, 2.0),
        "thm3": lambda: ref_thm3(mats[0], r, p),
        "thm2": lambda: ref_thm2(mats[0], r),
        "cor_c1": lambda: ref_cor_c1(mats, r),
        "drury": lambda: ref_drury(mats[0]),
        "lemma1": lambda: ref_lemma1(mats[0]),
        "fischer": lambda: ref_fischer(mats[0], r),
        "weyl": lambda: ref_weyl(mats[0]),
        "log_major": lambda: ref_log_major(mats[0], p if p is not None else 2.0),
        "e21": lambda: ref_e21(mats, r),
    }[ineq]()
    return expected_from_margin(lhs, margin, proven)


def published_rows_ok(example: str, rows: list[dict]) -> list[str]:
    """Problems with one ``reproduce --format structured`` answer, empty if none.

    Each numeric row must match both the published figure (at its printed
    precision) and an independent numpy evaluation of the published matrices;
    each verdict row must read ``violated``.
    """
    problems = []
    reference = _published_reference(example)
    for row in rows:
        quantity, computed = row.get("quantity"), row.get("computed")
        if quantity == "verdict":
            if computed != VIOLATED:
                problems.append(f"{example} verdict {computed!r}, expected violated")
            continue
        published, rel = PUBLISHED[(example, quantity)]
        value = float(computed)
        tol = 1e-9 if rel is None else rel * abs(published)
        if abs(value - published) > tol:
            problems.append(f"{example} {quantity} {value!r} vs published {published!r}")
        ref = reference[quantity]
        if abs(value - ref) > 1e-8 * max(1.0, abs(ref)):
            problems.append(f"{example} {quantity} {value!r} vs numpy {ref!r}")
    expected = {q for (e, q) in PUBLISHED if e == example}
    if example != "remark_minus12":
        expected.add("verdict")
    seen = {row.get("quantity") for row in rows}
    if seen != expected:
        problems.append(f"{example} rows {sorted(seen)}, expected {sorted(expected)}")
    return problems


def _published_reference(example: str) -> dict:
    if example == "example1":
        t1, t2 = np.array(EXAMPLE1_T1, dtype=complex), np.array(EXAMPLE1_T2, dtype=complex)
        lhs = np.linalg.det(t1.conj().T @ t1 + t2.conj().T @ t2).real
        inner = [np.linalg.det(a.conj() @ a + b.conj() @ b)
                 for a, b in ((t1[:2, :2], t2[:2, :2]), (t1[2:, 2:], t2[2:, 2:]))]
        return {"lhs_det": float(lhs), "rhs_det": float(abs(inner[0]) * abs(inner[1]))}
    if example == "example3":
        t1, t2 = np.array(EXAMPLE3_T1, dtype=complex), np.array(EXAMPLE3_T2, dtype=complex)
        lhs = np.linalg.det(abs_matrix(t1) + abs_matrix(t2)).real
        rhs = (np.linalg.det(abs_matrix(t1[:2, :2]) + abs_matrix(t2[:2, :2]))
               * np.linalg.det(abs_matrix(t1[2:, 2:]) + abs_matrix(t2[2:, 2:]))).real
        return {"lhs_det": float(lhs), "rhs_det": float(rhs)}
    x = np.array(REMARK_X1, dtype=complex)
    return {"det_xbar_x": float(np.linalg.det(x.conj() @ x + x.T.conj() @ x.T).real)}
