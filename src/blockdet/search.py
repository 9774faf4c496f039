"""Seeded random-matrix generation and violation/sharpness search.

Matrix generation is counter-based: every trial derives its own generator
from ``(seed, trial_index)``, so trials are independent, reproducible in
isolation, and the search result does not depend on scheduling.  The two
counterexample-bearing predicates (``cor_c1`` under a violated normality
hypothesis and ``e21``) get the published witness pair injected as trial 0,
which makes "the fuzzer finds a violation" deterministic instead of lucky.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

# Inequality.check calls the check_* functions by their names in this module.
from .checks import (
    BlockFamily,
    CheckReport,
    Verdict,
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
    check_thm2,
    check_thm3,
    check_weyl,
    _json_value,
)
from .linalg import (
    DEFAULT_TOL,
    BlockUpperTriangular,
    ShapeError,
    Tolerances,
    as_matrix,
    general_eigenvalues,
    matrix_from_json_dict,
    matrix_to_json_dict,
    singular_values,
)

__all__ = [
    "FAMILIES",
    "GeneratorSpec",
    "Witness",
    "ViolationRecord",
    "SearchReport",
    "PREDICATE_IDS",
    "Inequality",
    "INEQUALITIES",
    "generate",
    "generate_block_family",
    "search_violations",
    "sharpness_probe",
    "recheck_witness",
    "reproduce_paper_example",
    "compare_paper_example",
    "PAPER_EXAMPLE_IDS",
]

FAMILIES = (
    "integer_uniform",
    "gaussian",
    "symmetric",
    "normal_via_unitary_conjugation",
    "upper_triangular",
    "block_triangular",
)

_INTEGER_FAMILIES = frozenset({"integer_uniform", "upper_triangular", "block_triangular"})
_DEFAULT_INT_RANGE = (-20, 26)
_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class GeneratorSpec:
    """What to draw: structural family, dimensions, entry scale, seed."""

    family: str = "integer_uniform"
    n: int = 4
    r: int = 2
    m: int = 1
    entry_bound: object = None
    seed: int = 0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}, expected one of {FAMILIES}")
        if self.n < 1:
            raise ValueError(f"dimension must be positive, got n={self.n}")
        if self.m < 1:
            raise ValueError(f"family size must be positive, got m={self.m}")

    def to_json_dict(self) -> dict:
        bound = self.entry_bound
        if isinstance(bound, tuple):
            bound = list(bound)
        return {
            "family": self.family,
            "n": self.n,
            "r": self.r,
            "m": self.m,
            "entry_bound": bound,
            "seed": self.seed,
        }


def _trial_rng(seed: int, trial_index: int) -> np.random.Generator:
    if trial_index < 0:
        raise ValueError(f"trial index must be nonnegative, got {trial_index}")
    return np.random.default_rng(
        np.random.SeedSequence([seed & _MASK64, trial_index & _MASK64])
    )


def _int_range(spec: GeneratorSpec) -> tuple[int, int]:
    bound = spec.entry_bound
    if bound is None:
        return _DEFAULT_INT_RANGE
    if isinstance(bound, tuple) and len(bound) == 2:
        lo, hi = int(bound[0]), int(bound[1])
    elif isinstance(bound, (int, float)) and float(bound) == int(bound):
        b = abs(int(bound))
        lo, hi = -b, b
    else:
        raise ValueError(f"integer families need an integer bound or (lo, hi), got {bound!r}")
    if lo > hi:
        raise ValueError(f"empty entry range ({lo}, {hi})")
    return lo, hi


def _scale(spec: GeneratorSpec) -> float:
    bound = spec.entry_bound
    if bound is None:
        return 1.0
    if isinstance(bound, (int, float)) and float(bound) > 0:
        return float(bound)
    raise ValueError(f"continuous families need a positive scalar scale, got {bound!r}")


def _draw_dense(rng: np.random.Generator, spec: GeneratorSpec, rows: int, cols: int) -> np.ndarray:
    if spec.family in _INTEGER_FAMILIES:
        lo, hi = _int_range(spec)
        return rng.integers(lo, hi + 1, size=(rows, cols)).astype(complex)
    s = _scale(spec)
    return s * (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols)))


def _draw_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    mods = np.abs(d)
    safe = np.where(mods == 0.0, 1.0, mods)
    phases = np.where(mods == 0.0, 1.0 + 0j, d / safe)
    return q * phases


def _draw_structured(rng: np.random.Generator, spec: GeneratorSpec, n: int) -> np.ndarray:
    """One square matrix of size n with the family's structure, built exactly."""
    family = spec.family
    if family == "integer_uniform" or family == "block_triangular":
        return _draw_dense(rng, spec, n, n)
    if family == "gaussian":
        return _draw_dense(rng, spec, n, n)
    if family == "symmetric":
        g = _draw_dense(rng, spec, n, n)
        return (g + g.T) / 2.0
    if family == "normal_via_unitary_conjugation":
        u = _draw_unitary(rng, n)
        d = _scale(spec) * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        return (u * d) @ u.conj().T
    if family == "upper_triangular":
        return np.triu(_draw_dense(rng, spec, n, n))
    raise ValueError(f"unknown family {family!r}")


def generate(spec: GeneratorSpec, trial_index: int) -> list[np.ndarray]:
    """Draw the trial's m square n-by-n matrices.

    Pure function of ``(spec.seed, trial_index)``: the same pair always
    yields bitwise-identical output.  Structure is exact by construction
    (symmetric matrices satisfy s == s.T entrywise, triangular families
    carry exact zeros); the conjugation-built normal family is normal to
    within the predicate tolerance.
    """
    rng = _trial_rng(spec.seed, trial_index)
    out = []
    for _ in range(spec.m):
        mat = _draw_structured(rng, spec, spec.n)
        if spec.family == "block_triangular":
            if not 0 < spec.r < spec.n:
                raise ShapeError(f"block family needs 0 < r < n, got r={spec.r}, n={spec.n}")
            mat[spec.r:, : spec.r] = 0.0
        out.append(mat)
    return out


def generate_block_family(spec: GeneratorSpec, trial_index: int) -> BlockFamily:
    """Draw m block upper-triangular members whose diagonal blocks follow the family.

    X and Z are structured draws of sizes r and n-r (so a ``symmetric`` spec
    yields symmetric diagonal blocks, ``normal_via_unitary_conjugation``
    yields normal ones), while Y is a dense draw.  Deterministic in
    ``(seed, trial_index)`` with a fixed X, Y, Z draw order per member.
    """
    if not 0 < spec.r < spec.n:
        raise ShapeError(f"block family needs 0 < r < n, got r={spec.r}, n={spec.n}")
    rng = _trial_rng(spec.seed, trial_index)
    members = []
    for _ in range(spec.m):
        x = _draw_structured(rng, spec, spec.r)
        y = _draw_dense(rng, spec, spec.r, spec.n - spec.r)
        z = _draw_structured(rng, spec, spec.n - spec.r)
        members.append(BlockUpperTriangular(x=x, y=y, z=z))
    return BlockFamily(tuple(members))


# ---------------------------------------------------------------------------
# Witnesses and the inequality registry


@dataclass(frozen=True)
class Witness:
    """Self-contained re-checkable input: matrices plus the call parameters."""

    predicate_id: str
    seed: int
    trial_index: int
    params: dict
    matrices: tuple[np.ndarray, ...]

    def to_json_dict(self) -> dict:
        return {
            "predicate_id": self.predicate_id,
            "seed": self.seed,
            "trial_index": self.trial_index,
            "params": {k: _json_value(v) for k, v in self.params.items()},
            "matrices": [matrix_to_json_dict(m) for m in self.matrices],
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "Witness":
        return cls(
            predicate_id=doc["predicate_id"],
            seed=int(doc["seed"]),
            trial_index=int(doc["trial_index"]),
            params=dict(doc["params"]),
            matrices=tuple(matrix_from_json_dict(m) for m in doc["matrices"]),
        )


def _block_family_from(witness: Witness) -> BlockFamily:
    r = int(witness.params["r"])
    return BlockFamily(
        tuple(BlockUpperTriangular.from_matrix(m, r) for m in witness.matrices)
    )


def _gram(g: np.ndarray) -> np.ndarray:
    return g.conj().T @ g


def _log_major_spectra(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalue moduli of conj(X) X and squared singular values of X, non-increasing."""
    lam = np.abs(general_eigenvalues(x.conj() @ x))
    lam = np.sort(lam)[::-1]
    sig = np.sort(singular_values(x) ** 2)[::-1]
    return lam, sig


@dataclass(frozen=True)
class Inequality:
    """One inequality id: how to draw its input, check it, and read a search of it.

    ``shape`` is what the checker ``check_<id>`` takes: ``"matrix"`` (the
    first matrix, then ``r`` if ``needs_r``), ``"member"`` (the first matrix
    split at ``r``), ``"family"`` (every matrix split at ``r``) or
    ``"spectra"`` (the two sequences of :func:`_log_major_spectra`).
    ``files`` is the least and most number of input matrices (``None``: no
    limit); a draw makes ``files[1]`` matrices when that is set, otherwise
    the spec's ``m``.  ``transform`` reshapes a drawn matrix (into a PSD
    one, or a triangular one).  ``default_p``, when set, is the exponent's
    default and makes ``p`` a parameter.
    ``refutable`` ids are false in general and get the published witness as
    trial 0 of a search; with ``hypothesis_gate`` the checker answers
    ``precondition_failed`` off its hypothesis unless the parameter
    ``allow_hypothesis_violation`` is set, and only then is a violation
    expected.
    """

    id: str
    shape: str
    files: tuple[int, int | None] = (1, 1)
    needs_r: bool = False
    default_p: float | None = None
    transform: Callable[[np.ndarray], np.ndarray] | None = None
    refutable: bool = False
    hypothesis_gate: bool = False

    def call_params(self, r: int | None, p: float | None = None,
                    allow_hypothesis_violation: bool = False) -> dict:
        """The parameters a witness of this id records, defaults filled in."""
        params: dict = {}
        if self.needs_r:
            params["r"] = r
        if self.default_p is not None:
            params["p"] = self.default_p if p is None else p
        if self.hypothesis_gate:
            params["allow_hypothesis_violation"] = allow_hypothesis_violation
        return params

    def draw(self, spec: GeneratorSpec, trial_index: int, params: dict) -> Witness:
        if self.files[1] is not None:
            spec = replace(spec, m=self.files[1])
        if self.shape in ("member", "family"):
            family = generate_block_family(spec, trial_index)
            mats = tuple(member.assemble() for member in family.members)
        else:
            mat = generate(spec, trial_index)[0]
            mats = (mat if self.transform is None else self.transform(mat),)
        return Witness(self.id, spec.seed, trial_index, params, mats)

    def check(self, witness: Witness, tol: Tolerances = DEFAULT_TOL) -> CheckReport:
        # looked up per call, so a wrapper put on this module's name is the one called
        checker = globals()[f"check_{self.id}"]
        params = witness.params
        if self.shape == "matrix":
            args: tuple = (witness.matrices[0],)
            if self.needs_r:
                args += (int(params["r"]),)
        elif self.shape == "spectra":
            args = _log_major_spectra(witness.matrices[0])
        else:
            family = _block_family_from(witness)
            args = (family,) if self.shape == "family" else (family.members[0],)
        if self.default_p is not None:
            args += (float(params["p"]),)
        if self.hypothesis_gate:
            allow = bool(params.get("allow_hypothesis_violation", False))
            return checker(*args, tol, allow_hypothesis_violation=allow)
        return checker(*args, tol)

    def expects_violation(self, params: dict) -> bool:
        """Whether a search with these parameters should record a violation."""
        return self.refutable and (
            not self.hypothesis_gate or bool(params.get("allow_hypothesis_violation", False))
        )


INEQUALITIES: dict[str, Inequality] = {ineq.id: ineq for ineq in (
    Inequality("fischer", "matrix", needs_r=True, transform=_gram),
    Inequality("thm1", "family", files=(1, None), needs_r=True),
    Inequality("cor_c0", "member", needs_r=True),
    Inequality("cor_c1", "family", files=(1, None), needs_r=True, refutable=True,
               hypothesis_gate=True),
    Inequality("lemma1", "matrix"),
    Inequality("djokovic", "matrix"),
    Inequality("thm2", "member", needs_r=True),
    Inequality("drury", "matrix", transform=np.triu),
    Inequality("thm3", "member", needs_r=True, default_p=2.0),
    Inequality("weyl", "matrix"),
    Inequality("log_major", "spectra", default_p=2.0),
    Inequality("schur_identity", "matrix", needs_r=True),
    Inequality("e21", "family", files=(2, 2), needs_r=True, refutable=True),
)}

PREDICATE_IDS = tuple(INEQUALITIES)


def recheck_witness(witness: Witness, tol: Tolerances = DEFAULT_TOL) -> CheckReport:
    """Re-run the checker a witness was recorded against, from its own data."""
    if witness.predicate_id not in INEQUALITIES:
        raise ValueError(f"unknown predicate {witness.predicate_id!r}")
    return INEQUALITIES[witness.predicate_id].check(witness, tol)


# ---------------------------------------------------------------------------
# Published counterexample witnesses

_EXAMPLE1_T1 = (
    (-9, 10, 5, 12),
    (-7, 10, -11, -10),
    (0, 0, -2, 3),
    (0, 0, 2, 26),
)
_EXAMPLE1_T2 = (
    (13, -16, 3, 3),
    (-7, 9, 3, 11),
    (0, 0, 3, -16),
    (0, 0, -7, -13),
)
_EXAMPLE3_T1 = (
    (2, -3, 9, -1),
    (-4, 15, 1, -19),
    (0, 0, 0, -2),
    (0, 0, -4, 19),
)
_EXAMPLE3_T2 = (
    (0, 1, 6, 0),
    (4, -12, 12, 10),
    (0, 0, 14, -2),
    (0, 0, 23, -3),
)
_REMARK_X1 = ((1, 2), (0, 1))


def _paper_witness(predicate_id: str, params: dict) -> Witness | None:
    """The embedded published counterexample for a refutable predicate."""
    if predicate_id == "cor_c1":
        mats = (as_matrix(_EXAMPLE1_T1), as_matrix(_EXAMPLE1_T2))
        merged = {"r": 2, "allow_hypothesis_violation": params.get(
            "allow_hypothesis_violation", False)}
        return Witness("cor_c1", 0, 0, merged, mats)
    if predicate_id == "e21":
        mats = (as_matrix(_EXAMPLE3_T1), as_matrix(_EXAMPLE3_T2))
        return Witness("e21", 0, 0, {"r": 2}, mats)
    return None


PAPER_EXAMPLE_IDS = ("example1", "remark_minus12", "example3")


def reproduce_paper_example(example_id: str, tol: Tolerances = DEFAULT_TOL) -> CheckReport:
    """Evaluate one of the three published numeric examples from its matrices."""
    if example_id == "example1":
        witness = _paper_witness("cor_c1", {"allow_hypothesis_violation": True})
    elif example_id == "remark_minus12":
        x1 = as_matrix(_REMARK_X1)
        mats = tuple(BlockUpperTriangular(x=x, y=np.zeros((2, 1)), z=np.ones((1, 1))).assemble()
                     for x in (x1, x1.T))
        witness = Witness("cor_c1", 0, 0, {"r": 2, "allow_hypothesis_violation": True}, mats)
    elif example_id == "example3":
        witness = _paper_witness("e21", {})
    else:
        raise ValueError(f"unknown example {example_id!r}, expected one of {PAPER_EXAMPLE_IDS}")
    return recheck_witness(witness, tol)


_PAPER_EXPECTATIONS: dict[str, list[dict]] = {
    # recorded values are rounded as published: 3 significant figures for the
    # large determinants, 5 for the |.|-sum determinant, exact for the 2x2
    "example1": [
        {"quantity": "lhs_det", "extract": "lhs", "recorded": 1.25e8, "rel_tol": 5e-3},
        {"quantity": "rhs_det", "extract": "rhs", "recorded": 9.93e8, "rel_tol": 5e-3},
        {"quantity": "verdict", "extract": "verdict", "recorded": "violated"},
    ],
    "remark_minus12": [
        {"quantity": "det_xbar_x", "extract": "finding:det_xbar_x_re",
         "recorded": -12.0, "abs_tol": 1e-9},
    ],
    "example3": [
        {"quantity": "lhs_det", "extract": "lhs", "recorded": 5193.1, "rel_tol": 2e-3},
        {"quantity": "rhs_det", "extract": "rhs", "recorded": 20248.0, "rel_tol": 2e-3},
        {"quantity": "verdict", "extract": "verdict", "recorded": "violated"},
    ],
}


def compare_paper_example(example_id: str, tol: Tolerances = DEFAULT_TOL) -> list[dict]:
    """Computed-versus-recorded rows for one example, each with a pass flag."""
    report = reproduce_paper_example(example_id, tol)
    rows = []
    for expect in _PAPER_EXPECTATIONS[example_id]:
        extract = expect["extract"]
        if extract == "lhs":
            computed: object = float(report.lhs.value.real)
        elif extract == "rhs":
            computed = float(report.rhs.value.real)
        elif extract == "verdict":
            computed = report.verdict.value
        elif extract.startswith("finding:"):
            computed = report.finding(extract.split(":", 1)[1])
        else:
            raise ValueError(f"bad extraction {extract!r}")
        recorded = expect["recorded"]
        if isinstance(recorded, str):
            ok = computed == recorded
            tolerance = "exact"
        elif "abs_tol" in expect:
            ok = abs(float(computed) - recorded) <= expect["abs_tol"]
            tolerance = f"abs {expect['abs_tol']:g}"
        else:
            ok = abs(float(computed) - recorded) <= expect["rel_tol"] * abs(recorded)
            tolerance = f"rel {expect['rel_tol']:g}"
        rows.append({
            "example": example_id,
            "quantity": expect["quantity"],
            "computed": computed if isinstance(computed, str) else float(computed),
            "recorded": recorded,
            "tolerance": tolerance,
            "pass": bool(ok),
        })
    return rows


# ---------------------------------------------------------------------------
# Search loops


@dataclass(frozen=True)
class ViolationRecord:
    trial_index: int
    seed: int
    witness: Witness
    report: CheckReport

    def to_json_dict(self) -> dict:
        return {
            "trial_index": self.trial_index,
            "seed": self.seed,
            "witness": self.witness.to_json_dict(),
            "report": self.report.to_json_dict(),
        }


@dataclass(frozen=True)
class SearchReport:
    """Outcome of a seeded multi-trial run against one predicate.

    ``min_margin`` tracks the smallest margin over evaluated trials (the
    sharpest instance seen, negative if anything was violated);
    ``min_positive_margin`` tracks the sharpness of strictly-holding trials
    together with the witness attaining it.
    """

    predicate_id: str
    spec: GeneratorSpec
    params: dict
    trials: int
    violations: tuple[ViolationRecord, ...]
    min_margin: float | None
    min_margin_trial: int | None
    min_positive_margin: float | None
    min_positive_margin_trial: int | None
    min_positive_witness: Witness | None
    runtime_note: str

    @property
    def violation_count(self) -> int:
        return len(self.violations)

    def to_json_dict(self) -> dict:
        return {
            "predicate_id": self.predicate_id,
            "spec": self.spec.to_json_dict(),
            "params": {k: _json_value(v) for k, v in self.params.items()},
            "trials": self.trials,
            "violations": [v.to_json_dict() for v in self.violations],
            "min_margin": _json_value(self.min_margin),
            "min_margin_trial": self.min_margin_trial,
            "min_positive_margin": _json_value(self.min_positive_margin),
            "min_positive_margin_trial": self.min_positive_margin_trial,
            "min_positive_witness": (
                None if self.min_positive_witness is None
                else self.min_positive_witness.to_json_dict()
            ),
            "runtime_note": self.runtime_note,
        }


def _run_trials(
    spec: GeneratorSpec,
    predicate_id: str,
    max_trials: int,
    tol: Tolerances,
    params: dict | None,
    stop_on_first: bool,
    inject_paper_witness: bool,
) -> SearchReport:
    if predicate_id not in INEQUALITIES:
        raise ValueError(f"unknown predicate {predicate_id!r}, expected one of {PREDICATE_IDS}")
    if max_trials < 1:
        raise ValueError(f"trial count must be >= 1, got {max_trials}")
    ineq = INEQUALITIES[predicate_id]
    call_params = ineq.call_params(spec.r)
    if params:
        call_params.update(params)
    violations: list[ViolationRecord] = []
    min_margin = None
    min_margin_trial = None
    min_pos = None
    min_pos_trial = None
    min_pos_witness = None
    ran = 0
    for trial in range(max_trials):
        witness = None
        if trial == 0 and inject_paper_witness and ineq.refutable:
            witness = _paper_witness(predicate_id, call_params)
        if witness is None:
            witness = ineq.draw(spec, trial, dict(call_params))
        report = ineq.check(witness, tol)
        ran += 1
        if report.verdict is not Verdict.PRECONDITION_FAILED:
            margin = report.margin
            if math.isfinite(margin):
                if min_margin is None or margin < min_margin:
                    min_margin = margin
                    min_margin_trial = trial
                if report.verdict is Verdict.HOLDS_STRICT and margin > 0.0:
                    if min_pos is None or margin < min_pos:
                        min_pos = margin
                        min_pos_trial = trial
                        min_pos_witness = witness
        if report.verdict is Verdict.VIOLATED:
            violations.append(ViolationRecord(trial, spec.seed, witness, report))
            if stop_on_first:
                break
    return SearchReport(
        predicate_id=predicate_id,
        spec=spec,
        params=call_params,
        trials=ran,
        violations=tuple(violations),
        min_margin=min_margin,
        min_margin_trial=min_margin_trial,
        min_positive_margin=min_pos,
        min_positive_margin_trial=min_pos_trial,
        min_positive_witness=min_pos_witness,
        runtime_note=f"{ran} trials against {predicate_id}",
    )


def search_violations(
    spec: GeneratorSpec,
    predicate_id: str,
    max_trials: int,
    tol: Tolerances = DEFAULT_TOL,
    params: dict | None = None,
    stop_on_first: bool = False,
) -> SearchReport:
    """Run up to ``max_trials`` seeded checks, recording every violation.

    Refutable predicates get the published witness as trial 0; everything
    else is drawn from the generator spec.  Every recorded witness is
    self-contained and reproduces its verdict under :func:`recheck_witness`.
    """
    return _run_trials(spec, predicate_id, max_trials, tol, params, stop_on_first,
                       inject_paper_witness=True)


def sharpness_probe(
    spec: GeneratorSpec,
    predicate_id: str,
    max_trials: int,
    tol: Tolerances = DEFAULT_TOL,
    params: dict | None = None,
) -> SearchReport:
    """Empirical margin statistics: the minimum positive margin and its witness.

    No witness injection: the point is the behavior of the inequality on the
    generator family itself.
    """
    return _run_trials(spec, predicate_id, max_trials, tol, params, stop_on_first=False,
                       inject_paper_witness=False)
