"""Seeded random-matrix generation and violation/sharpness search.

Matrix generation is counter-based: every trial derives its own generator
from ``(seed, trial_index)``, so trials are independent, reproducible in
isolation, and the search result does not depend on scheduling.  The two
counterexample-bearing predicates (``cor_c1`` under a violated normality
hypothesis and ``e21``) get the published witness pair injected as trial 0,
which makes "the fuzzer finds a violation" deterministic instead of lucky.

The draw is the search's input boundary: under an ``entry_bound`` each
drawn block is checked finite once; the blocks then reach the checker
uncopied and read-only, and only a recheck re-splits a witness's matrices.
A search draws its trials a chunk at a time; an id with a batched evaluator
scores the chunk as stacks, and only the trials it is not sure of reach the
checker, whose reports are the ones a search records.
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
    _batch_cor_c0,
    _batch_drury,
    _batch_thm1,
    _batch_thm2,
    _batch_thm3,
    _json_value,
    _require_exponent,
)
from .linalg import (
    DEFAULT_TOL,
    BlockUpperTriangular,
    LinalgError,
    ShapeError,
    Tolerances,
    as_matrix,
    general_eigenvalues,
    matrix_from_json_dict,
    matrix_to_json_dict,
    singular_values,
    _below_diagonal,
    _rescaled,
    _unit_scaled,
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


def _draw(rng: np.random.Generator, spec: GeneratorSpec, m: int, counts) -> list[np.ndarray]:
    """All of a trial's entries in one generator call, split per member into
    consecutive parts of ``counts`` entries: a (m, count) array each.

    The integer families draw ``rng.integers`` over the entry range, the
    others standard normals.  One call of total length gives bitwise the
    values of consecutive calls of its parts, so the stream, and every
    matrix drawn from it, is the one a block-by-block draw made.
    """
    if spec.family in _INTEGER_FAMILIES:
        lo, hi = _int_range(spec)
        raw = rng.integers(lo, hi + 1, size=(m, sum(counts)))
    else:
        raw = rng.standard_normal((m, sum(counts)))
    parts, start = [], 0
    for count in counts:
        parts.append(raw[:, start:start + count])
        start += count
    return parts


def _dense_count(spec: GeneratorSpec, rows: int, cols: int) -> int:
    """Entries a dense rows-by-cols block takes from the stream: one per
    entry for the integer families, a real and an imaginary part otherwise."""
    return rows * cols if spec.family in _INTEGER_FAMILIES else 2 * rows * cols


def _structured_count(spec: GeneratorSpec, n: int) -> int:
    """Entries a structured n-square block takes: the normal family's also
    draws the n complex eigenvalues."""
    extra = 2 * n if spec.family == "normal_via_unitary_conjugation" else 0
    return _dense_count(spec, n, n) + extra


def _dense(raw: np.ndarray, spec: GeneratorSpec, rows: int, cols: int) -> np.ndarray:
    """The stack of dense rows-by-cols blocks drawn as ``raw``, one row per member."""
    if spec.family in _INTEGER_FAMILIES:
        return raw.reshape(-1, rows, cols).astype(complex)
    parts = raw.reshape(-1, 2, rows, cols)
    return _scale(spec) * (parts[:, 0] + 1j * parts[:, 1])


def _unitaries(g: np.ndarray) -> np.ndarray:
    """The unitary factor of each matrix of the stack ``g``, from one stacked
    QR, its columns rotated so that R has a positive real diagonal."""
    q, r = np.linalg.qr(g)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    mods = np.abs(d)
    safe = np.where(mods == 0.0, 1.0, mods)
    phases = np.where(mods == 0.0, 1.0 + 0j, d / safe)
    return q * phases[..., None, :]


def _structured(spec: GeneratorSpec, raws: list[np.ndarray], sizes: list[int]) -> list[np.ndarray]:
    """For each size n and its draws, the stack of the members' n-square
    blocks with the family's structure, built exactly.

    The normal family's blocks are U diag(d) U* for Haar-like U: their
    unitaries come from one stacked QR when the sizes agree.  Each U diag(d) U*
    is formed per member, as numpy's complex product on a stack of 1x1
    matrices differs in its last bits from the product on one.
    """
    family = spec.family
    if family != "normal_via_unitary_conjugation":
        blocks = [_dense(raw, spec, n, n) for raw, n in zip(raws, sizes)]
        if family == "symmetric":
            return [(g + g.mT) / 2.0 for g in blocks]
        if family == "upper_triangular":
            return [np.where(_below_diagonal(n), 0.0, g) for g, n in zip(blocks, sizes)]
        return blocks
    s = _scale(spec)
    gs, ds = [], []
    for raw, n in zip(raws, sizes):
        g, d = raw[:, :2 * n * n].reshape(-1, 2, n, n), raw[:, 2 * n * n:]
        gs.append(g[:, 0] + 1j * g[:, 1])
        ds.append(s * (d[:, :n] + 1j * d[:, n:]))
    if len(set(sizes)) == 1:
        u = _unitaries(np.concatenate(gs))
        us = [u[k * len(g):(k + 1) * len(g)] for k, g in enumerate(gs)]
    else:
        us = [_unitaries(g) for g in gs]
    return [np.array([(uk * dk) @ uk.conj().T for uk, dk in zip(u, d)]) for u, d in zip(us, ds)]


def _built(spec: GeneratorSpec, trial_index: int, build: Callable) -> list[np.ndarray]:
    """``build()``: a list of drawn blocks or stacks of blocks.

    Only a caller's ``entry_bound`` can make a draw overflow.  Under one the
    arithmetic runs with numpy's overflow warnings off, and each block is
    checked finite once; a draw without one is finite by construction.
    """
    if spec.entry_bound is None:
        return build()
    with np.errstate(over="ignore", invalid="ignore"):
        blocks = build()
    if not all(np.isfinite(b).all() for b in blocks):
        raise LinalgError(f"seed {spec.seed}, trial {trial_index}: entry_bound "
                          f"{spec.entry_bound!r} overflows, drawing non-finite entries")
    return blocks


def generate(spec: GeneratorSpec, trial_index: int) -> list[np.ndarray]:
    """Draw the trial's m square n-by-n matrices.

    Pure function of ``(spec.seed, trial_index)``: the same pair always
    yields bitwise-identical output.  Structure is exact by construction
    (symmetric matrices satisfy s == s.T entrywise, triangular families
    carry exact zeros); the conjugation-built normal family is normal to
    within the predicate tolerance.  An ``entry_bound`` that overflows a
    draw raises :class:`LinalgError`.
    """
    rng = _trial_rng(spec.seed, trial_index)
    n, r = spec.n, spec.r
    raws = _draw(rng, spec, spec.m, [_structured_count(spec, n)])
    if spec.family == "block_triangular" and not 0 < r < n:
        raise ShapeError(f"block family needs 0 < r < n, got r={r}, n={n}")
    (mats,) = _built(spec, trial_index, lambda: _structured(spec, raws, [n]))
    if spec.family == "block_triangular":
        mats[:, r:, :r] = 0.0
    return list(mats)


def generate_block_family(spec: GeneratorSpec, trial_index: int) -> BlockFamily:
    """Draw m block upper-triangular members whose diagonal blocks follow the family.

    X and Z are structured draws of sizes r and n-r (so a ``symmetric`` spec
    yields symmetric diagonal blocks, ``normal_via_unitary_conjugation``
    yields normal ones), while Y is a dense draw.  Deterministic in
    ``(seed, trial_index)``; each member takes its X, Y and Z from the
    stream in that order.  The blocks, and each member's assembled matrix,
    built as one stack, are frozen read-only, not copied; an
    ``entry_bound`` that overflows a draw raises :class:`LinalgError`.
    """
    r, c = spec.r, spec.n - spec.r
    if not 0 < r < spec.n:
        raise ShapeError(f"block family needs 0 < r < n, got r={r}, n={spec.n}")
    rng = _trial_rng(spec.seed, trial_index)
    raw_x, raw_y, raw_z = _draw(rng, spec, spec.m, [
        _structured_count(spec, r), _dense_count(spec, r, c), _structured_count(spec, c)])
    x, z, y = _built(spec, trial_index, lambda: [*_structured(spec, [raw_x, raw_z], [r, c]),
                                                 _dense(raw_y, spec, r, c)])
    t = np.zeros((spec.m, spec.n, spec.n), dtype=complex)
    t[:, :r, :r], t[:, :r, r:], t[:, r:, r:] = x, y, z
    return BlockFamily(tuple(BlockUpperTriangular._frozen(*blocks) for blocks in zip(x, y, z, t)))


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


def _log_major_spectra(x: np.ndarray, p: float) -> tuple:
    """The two sequences log_major compares for X, their exponent and log s.

    They are s' * sqrt|lambda(conj(X') X')| for X' = X / s' of
    :func:`_unit_scaled`, and sigma(X), both non-increasing and unsquared,
    each divided by s where :func:`_rescaled` scales; the exponent is 2p, as
    prod(1 + (sigma^2)^p) = prod(1 + sigma^(2p)).  p is checked before it
    doubles."""
    _require_exponent(p)
    (a, b), log_s = _rescaled(_major_pair, x)
    return a, b, 2.0 * p, log_s


def _major_pair(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    unit, s = _unit_scaled(x)
    return s * np.sqrt(np.abs(general_eigenvalues(unit.conj() @ unit))), singular_values(x)


@dataclass(frozen=True)
class Inequality:
    """One inequality id: how to draw its input, check it, and read a search of it.

    ``shape`` is what the checker ``check_<id>`` takes: ``"matrix"`` (the
    first matrix, then ``r`` if ``needs_r``), ``"member"`` (the first matrix
    split at ``r``), ``"family"`` (every matrix split at ``r``) or
    ``"spectra"`` (:func:`_log_major_spectra`; its log s goes by keyword).
    ``files`` is the least and most number of input matrices (``None``: no
    limit); a search draws from :meth:`draw_spec`, which asks for
    ``files[1]`` matrices when that is set, otherwise the spec's ``m``.
    ``transform`` reshapes a drawn matrix (into a PSD one, or a triangular
    one).  ``default_p``, when set, is the exponent's default and makes
    ``p`` a parameter.
    ``refutable`` ids are false in general and get the published witness as
    trial 0 of a search; with ``hypothesis_gate`` the checker answers
    ``precondition_failed`` off its hypothesis unless the parameter
    ``allow_hypothesis_violation`` is set, and only then is a violation
    expected.
    ``batch``, when set, is the batched evaluator :meth:`score` calls: it
    takes what the checker takes, with a list of all the trials' inputs in
    place of the first argument, and returns each trial's margin and where
    the checker's verdict is sure to be ``holds_strict``.
    """

    id: str
    shape: str
    files: tuple[int, int | None] = (1, 1)
    needs_r: bool = False
    default_p: float | None = None
    transform: Callable[[np.ndarray], np.ndarray] | None = None
    refutable: bool = False
    hypothesis_gate: bool = False
    batch: Callable | None = None

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

    def draw_spec(self, spec: GeneratorSpec) -> GeneratorSpec:
        """The spec a search of this id draws from."""
        return spec if self.files[1] is None else replace(spec, m=self.files[1])

    def draw(self, spec: GeneratorSpec, trial_index: int,
             params: dict) -> tuple[Witness, BlockFamily | None]:
        """One trial's witness from ``spec`` (a :meth:`draw_spec`), and, for
        the block shapes, the drawn family its matrices were assembled from."""
        family = None
        if self.shape in ("member", "family"):
            family = generate_block_family(spec, trial_index)
            mats = tuple(member.assemble() for member in family.members)
        else:
            mat = generate(spec, trial_index)[0]
            if self.transform is not None:
                (mat,) = _built(spec, trial_index, lambda: [self.transform(mat)])
            mats = (mat,)
        return Witness(self.id, spec.seed, trial_index, params, mats), family

    def _args(self, witness: Witness, family: BlockFamily | None) -> tuple:
        """The checker's arguments before ``tol``."""
        params = witness.params
        if self.shape == "matrix":
            args: tuple = (witness.matrices[0],)
            if self.needs_r:
                args += (int(params["r"]),)
        elif self.shape == "spectra":
            return _log_major_spectra(witness.matrices[0], float(params["p"]))
        else:
            if family is None:
                family = _block_family_from(witness)
            args = (family,) if self.shape == "family" else (family.members[0],)
        if self.default_p is not None:
            args += (float(params["p"]),)
        return args

    def check(self, witness: Witness, tol: Tolerances = DEFAULT_TOL,
              family: BlockFamily | None = None) -> CheckReport:
        """Check ``witness``; a block shape splits its matrices at ``r``
        unless ``family``, the blocks they were assembled from, is given."""
        # looked up per call, so a wrapper put on this module's name is the one called
        checker = globals()[f"check_{self.id}"]
        args, kwargs = self._args(witness, family), {}
        if self.hypothesis_gate:
            allow = bool(witness.params.get("allow_hypothesis_violation", False))
            kwargs["allow_hypothesis_violation"] = allow
        if self.shape == "spectra":   # log s, which the checker takes by keyword
            *args, kwargs["log_scale"] = args
        return checker(*args, tol, **kwargs)

    def score(self, drawn: list[tuple[Witness, BlockFamily | None]],
              tol: Tolerances) -> tuple[np.ndarray, np.ndarray]:
        """:attr:`batch` on drawn trials of one search: each trial's margin,
        and where its checker's verdict is sure to be ``holds_strict``."""
        args = [self._args(witness, family) for witness, family in drawn]
        return self.batch([a[0] for a in args], *args[0][1:], tol)

    def expects_violation(self, params: dict) -> bool:
        """Whether a search with these parameters should record a violation."""
        return self.refutable and (
            not self.hypothesis_gate or bool(params.get("allow_hypothesis_violation", False))
        )


INEQUALITIES: dict[str, Inequality] = {ineq.id: ineq for ineq in (
    Inequality("fischer", "matrix", needs_r=True, transform=_gram),
    Inequality("thm1", "family", files=(1, None), needs_r=True, batch=_batch_thm1),
    Inequality("cor_c0", "member", needs_r=True, batch=_batch_cor_c0),
    Inequality("cor_c1", "family", files=(1, None), needs_r=True, refutable=True,
               hypothesis_gate=True),
    Inequality("lemma1", "matrix"),
    Inequality("djokovic", "matrix"),
    Inequality("thm2", "member", needs_r=True, batch=_batch_thm2),
    Inequality("drury", "matrix", transform=np.triu, batch=_batch_drury),
    Inequality("thm3", "member", needs_r=True, default_p=2.0, batch=_batch_thm3),
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


# Trials drawn and scored together: a search holds at most this many drawn
# trials at once, whatever its trial count.
_CHUNK = 64


def _outcomes(ineq: Inequality, spec: GeneratorSpec, max_trials: int, tol: Tolerances,
              call_params: dict, inject_paper_witness: bool):
    """(trial, witness, report, margin, verdict) for each trial, in order.

    Trials are drawn a chunk at a time, each from its own stream, and scored
    by the batched evaluator where there is one.  A trial it is not sure of
    goes to the checker, whose report is the one returned; a sure one has no
    report.  A draw that raises is raised once the trials before it are out.
    """
    draw_spec = ineq.draw_spec(spec)
    for start in range(0, max_trials, _CHUNK):
        drawn, draw_error = [], None
        for trial in range(start, min(start + _CHUNK, max_trials)):
            try:
                if trial == 0 and inject_paper_witness and ineq.refutable:
                    drawn.append((_paper_witness(ineq.id, call_params), None))
                else:
                    drawn.append(ineq.draw(draw_spec, trial, dict(call_params)))
            except Exception as err:
                draw_error = err
                break
        sure = [False] * len(drawn)
        if ineq.batch is not None and len(drawn) > 1:
            try:
                margins, sure = ineq.score(drawn, tol)
            except ValueError:   # left to the checkers, which raise it at its own trial
                pass
        for i, (witness, family) in enumerate(drawn):
            if sure[i]:
                yield start + i, witness, None, float(margins[i]), Verdict.HOLDS_STRICT
            else:
                report = ineq.check(witness, tol, family)
                yield start + i, witness, report, report.margin, report.verdict
        if draw_error is not None:
            raise draw_error


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
    for trial, witness, report, margin, verdict in _outcomes(
            ineq, spec, max_trials, tol, call_params, inject_paper_witness):
        ran += 1
        if verdict is not Verdict.PRECONDITION_FAILED and math.isfinite(margin):
            if min_margin is None or margin < min_margin:
                min_margin = margin
                min_margin_trial = trial
            if verdict is Verdict.HOLDS_STRICT and margin > 0.0:
                if min_pos is None or margin < min_pos:
                    min_pos = margin
                    min_pos_trial = trial
                    min_pos_witness = witness
        if verdict is Verdict.VIOLATED:
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
