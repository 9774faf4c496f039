"""Seeded random-matrix generation and violation/sharpness search.

Matrix generation is counter-based: every trial derives its own generator
from ``(seed, trial_index)``, so trials are independent, reproducible in
isolation, and the search result does not depend on scheduling.  A search
of an id that names a published counterexample (``cor_c1`` under a violated
normality hypothesis, and ``e21``) takes that example's witness as trial 0,
which makes "the fuzzer finds a violation" deterministic instead of lucky.

A search draws its trials a chunk at a time, each from its own stream, into
read-only stacks, checked finite once under an ``entry_bound``.  Each id's
sides function scores the chunk by the checker's verdict rule; only trials
it reads as violated, or gives no verdict, reach the checker, as witnesses
over views of the stacks, and their reports are the ones a search records.
A recorded witness copies its matrices out of the chunk.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass, replace
from functools import lru_cache, partial
from itertools import accumulate
from operator import attrgetter, methodcaller
from typing import Callable

import numpy as np

from . import checks
# Inequality.check calls the check_* functions by their names in this module.
from .checks import (
    BlockFamily,
    CheckReport,
    Verdict,
    _VERDICTS,
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
    _evaluate,
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
    matrix_from_json_dict,
    matrix_to_json_dict,
    _below_diagonal,
    _double,
    _lapack,
    _quiet,
    _rescaled,
    _singular_values,
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
    "search_violations",
    "sharpness_probe",
    "recheck_witness",
    "reproduce_paper_example",
    "compare_paper_example",
    "PAPER_EXAMPLE_IDS",
    "DEFAULT_P",
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
_MASK32 = (1 << 32) - 1
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
            raise ValueError(f"unknown family {self.family!r}, "
                             f"expected one of {', '.join(FAMILIES)}")
        for name in ("n", "r", "m", "seed"):   # a numpy integer is taken as its int
            value = getattr(self, name)
            if type(value) is bool or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        bound = self.entry_bound
        ends = bound if isinstance(bound, tuple) else (bound,)
        if bool in map(type, ends):
            raise ValueError(f"entry_bound must be a number, not a bool, got {bound!r}")
        ends = tuple(int(v) if isinstance(v, np.integer) else v for v in ends)
        object.__setattr__(self, "entry_bound", ends if isinstance(bound, tuple) else ends[0])
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
    """``default_rng(SeedSequence([seed & M, trial_index & M]))``, M = 2^64 - 1,
    given the uint32 words it would assemble from that list, so numpy skips
    its Python-level coercion; its pool, state and stream are the same."""
    if trial_index < 0:
        raise ValueError(f"trial index must be nonnegative, got {trial_index}")
    words = _seed_words(seed & _MASK64) + _seed_words(trial_index & _MASK64)
    return np.random.default_rng(np.random.SeedSequence(np.array(words, dtype=np.uint32)))


def _seed_words(v: int) -> tuple:
    """A ``v`` below 2^64 as numpy's ``SeedSequence`` coerces an int: its
    32-bit words, least significant first, at least one."""
    return (v & _MASK32, v >> 32) if v >> 32 else (v,)


def _integer(v) -> int:
    """``v`` if it is an int, as it is (past 2^53 a double would round it),
    or a float without a fraction; anything else raises ``ValueError``."""
    if isinstance(v, int) or (isinstance(v, float) and v == int(v)):
        return int(v)   # int() of an infinite or NaN float raises too
    raise ValueError


def _int_range(spec: GeneratorSpec) -> tuple[int, int]:
    bound = spec.entry_bound
    if bound is None:
        return _DEFAULT_INT_RANGE
    try:
        if isinstance(bound, tuple) and len(bound) == 2:
            lo, hi = _integer(bound[0]), _integer(bound[1])
        else:
            b = abs(_integer(bound))
            lo, hi = -b, b
        if min(lo, hi) < -2**63 or max(lo, hi) >= 2**63:   # past numpy's int64 draw
            raise ValueError
    except (OverflowError, ValueError):
        raise ValueError(f"integer families need an integer bound or (lo, hi), "
                         f"got {bound!r}") from None
    if lo > hi:
        raise ValueError(f"empty entry range ({lo}, {hi})")
    return lo, hi


def _scale(spec: GeneratorSpec) -> float:
    bound = spec.entry_bound
    if bound is None:
        return 1.0
    if isinstance(bound, (int, float)) and bound > 0:
        return _double(bound)   # an int past the double range counts as infinite
    raise ValueError(f"continuous families need a positive scalar scale, got {bound!r}")


def _draw(spec: GeneratorSpec, trials: range, m: int, count: int) -> np.ndarray:
    """The entries of each trial of ``trials``, each trial's from its own
    stream in one generator call: a (len(trials) * m, count) array, a trial's
    m members in order, ``count`` entries each.

    The integer families draw ``rng.integers`` over the entry range, the
    others standard normals; a bound the family does not take raises before
    anything is drawn.  One call gives bitwise the values of consecutive
    calls of its parts: the stream a block-by-block draw made.
    """
    shape = (m, count)
    if spec.family in _INTEGER_FAMILIES:
        lo, hi = _int_range(spec)
        rows = [_trial_rng(spec.seed, trial).integers(lo, hi + 1, size=shape) for trial in trials]
    else:
        _scale(spec)
        rows = [_trial_rng(spec.seed, trial).standard_normal(shape) for trial in trials]
    return np.concatenate(rows)


@lru_cache(maxsize=None)
def _layout(family: str, n: int, r: int, split: bool) -> tuple:
    """Where the entries a member of ``family`` draws go in its n-square
    matrix T, drawn whole or, with ``split``, as X, Y and Z of the split at r.

    A member's stream takes each block in turn, a dense block's entries row
    by row: their real parts, then, for a complex family, their imaginary
    parts.  The normal family's X and Z, or its whole matrix, take G of
    U diag(d) U* so, then d's real parts and its imaginary parts.  Returns:
    the entries a member takes; the stream index of each entry's real part
    and, for a complex family, after them all, of each one's imaginary part,
    the normal family's G first, then the entries T takes as drawn, then its
    d; the flat index in T of each entry T takes as drawn, leaving out those
    the family's structure zeroes, and their count; and the (first row,
    size) of each diagonal block with the family's structure, X and Z or the
    whole matrix.  An index that runs through consecutive places is a slice,
    so that a whole matrix is taken and placed without a gather.
    """
    c = n - r
    blocks = ((0, 0, r, r, True), (0, r, r, c, False), (r, r, c, c, True)) if split else (
        (0, 0, n, n, True),)
    normal = family == "normal_via_unitary_conjugation"
    parts = 1 if family in _INTEGER_FAMILIES else 2
    g, drawn, d, at = [], [], [], []   # (real parts, imaginary parts) index pairs, flat T indices
    offset = 0
    for row, col, rows, cols, structured in blocks:
        size = rows * cols
        entries = offset + np.arange(size)
        if structured and normal:
            g.append((entries, entries + size))
            eigenvalues = offset + 2 * size + np.arange(rows)
            d.append((eigenvalues, eigenvalues + rows))
            offset += 2 * size + 2 * rows
            continue
        kept = np.ones((rows, cols), dtype=bool)
        if structured and family == "upper_triangular":
            kept = ~_below_diagonal(rows)
        if not split and family == "block_triangular":
            kept[r:, :r] = False
        kept = kept.ravel()
        drawn.append((entries[kept], entries[kept] + size))
        at.append(((row + np.arange(rows))[:, None] * n + col + np.arange(cols)).ravel()[kept])
        offset += parts * size
    pairs = g + drawn + d
    entries = np.concatenate([pair[part] for part in range(parts) for pair in pairs])
    at = np.concatenate(at or [np.zeros(0, dtype=np.intp)])
    square = tuple((row, rows) for row, _, rows, _, structured in blocks if structured)
    return offset, _index(entries), _index(at), len(at), square


def _index(index: np.ndarray):
    """``index``, read-only, or the slice it is where it runs through
    consecutive places."""
    if len(index) and (np.diff(index) == 1).all():
        return slice(int(index[0]), int(index[-1]) + 1)
    _read_only(index)
    return index


def _unitaries(*gs: np.ndarray) -> list[np.ndarray]:
    """The unitary factor of each matrix of each stack of ``gs`` (stacks of
    one leading shape), one stacked QR per stack, all under one error state,
    its columns rotated so that R has a positive real diagonal: each column
    times the phase of R's diagonal entry, or 1 where that entry is an exact
    zero, every stack's phases taken in one masked division.

    The QR is numpy.linalg.qr's, gufunc by gufunc; R's diagonal is read from
    the copy that LAPACK factors in place, and R itself is never formed."""
    factors = _lapack("qr", *gs)
    if len(gs) == 1:
        factors = [factors]
    diagonals = [np.diagonal(f, axis1=-2, axis2=-1) for _, f in factors]
    d = diagonals[0] if len(diagonals) == 1 else np.concatenate(diagonals, axis=-1)
    mods = np.abs(d)
    phases = np.divide(d, mods, out=np.ones_like(d), where=mods != 0.0)
    ends = accumulate(q.shape[-1] for q, _ in factors)
    return [q * phases[..., None, end - q.shape[-1]:end] for (q, _), end in zip(factors, ends)]


def _normal_blocks(g: np.ndarray, d: np.ndarray, sizes: list[int]) -> list[np.ndarray]:
    """The normal family's blocks U diag(d) U*, for Haar-like U, a stack for
    each size of ``sizes``, from the rows of G's and of d's entries, block
    after block.  Blocks of one size take one stacked QR and one stacked
    product, bitwise each block's own for n >= 2; at n = 1 numpy's complex
    product on a stack differs in its last bits, so each 1x1 block is formed
    on its own."""
    members = len(g)
    if len(set(sizes)) == 1:
        b = sizes[0]
        stacks = [(g.reshape(-1, b, b), d.reshape(-1, b))]
    else:
        g_ends, d_ends = accumulate(b * b for b in sizes), accumulate(sizes)
        stacks = [(g[:, e - b * b:e].reshape(-1, b, b), d[:, f - b:f])
                  for b, e, f in zip(sizes, g_ends, d_ends)]
    products = [(u * e[:, None, :]) @ u.conj().mT if u.shape[-1] > 1 else
                np.array([(uk * ek) @ uk.conj().T for uk, ek in zip(u, e)])
                for u, (_, e) in zip(_unitaries(*(s for s, _ in stacks)), stacks)]
    if len(products) == len(sizes):
        return products
    b = sizes[0]
    return list(products[0].reshape(members, len(sizes), b, b).swapaxes(0, 1))


def _assembled(spec: GeneratorSpec, raw: np.ndarray, layout: tuple) -> np.ndarray:
    """The stack of n-square matrices T drawn as the rows of ``raw``, built
    exactly in one pass: every complex entry assembled in one chain, as
    s * (re + 1j * im) but for the normal family's G, the entries T takes
    as drawn written in one call, then the family's structure made on T's
    diagonal blocks (:func:`_layout`); the normal family's T drawn whole is
    its one block's product itself."""
    n = spec.n
    _, entries, at, placed, square = layout
    parts = raw[:, entries]
    if spec.family in _INTEGER_FAMILIES:   # its entries as drawn
        t = np.zeros((len(raw), n * n), dtype=complex)
        t[:, at] = parts
        return t.reshape(-1, n, n)
    half = parts.shape[1] // 2
    values = parts[:, :half] + 1j * parts[:, half:]
    normal = spec.family == "normal_via_unitary_conjugation"
    unscaled = sum(b * b for _, b in square) if normal else 0   # G
    scaled = _scale(spec) * values[:, unscaled:]
    if normal:
        built = _normal_blocks(values[:, :unscaled], scaled[:, placed:], [b for _, b in square])
        if not placed:   # drawn whole: the product is T
            return built[0]
    t = np.zeros((len(raw), n * n), dtype=complex)
    t[:, at] = scaled[:, :placed]
    t = t.reshape(-1, n, n)
    if normal:
        for (row, b), block in zip(square, built):
            t[:, row:row + b, row:row + b] = block
    elif spec.family == "symmetric":
        for row, b in square:
            block = t[:, row:row + b, row:row + b]
            block[...] = (block + block.mT) / 2.0
    return t


def _finite_trials(spec: GeneratorSpec, trials: range, stack: np.ndarray) -> tuple:
    """How many trials of ``trials`` come before the first whose matrices in
    ``stack`` (the rows of a trial in order, trial by trial) are not all
    finite, and the :class:`LinalgError` naming that trial, or ``None``.

    Only a caller's ``entry_bound`` can make a draw overflow, so a draw
    without one is finite by construction and is not tested.
    """
    if spec.entry_bound is None or not trials:
        return len(trials), None
    finite = np.isfinite(stack.reshape(len(trials), -1)).all(axis=1)
    if finite.all():
        return len(trials), None
    first = int(np.argmin(finite))
    return first, LinalgError(f"seed {spec.seed}, trial {trials[first]}: entry_bound "
                              f"{spec.entry_bound!r} overflows, drawing non-finite entries")


def _overflow_quiet(spec: GeneratorSpec):
    """numpy's overflow warnings off while a draw is built under an
    ``entry_bound``, whose trials :func:`_finite_trials` then tests; without
    one, nothing to switch off."""
    if spec.entry_bound is None:
        return nullcontext()
    return np.errstate(over="ignore", invalid="ignore")


def _read_only(*stacks: np.ndarray) -> None:
    for stack in stacks:
        stack.setflags(write=False)


def _draw_stack(spec: GeneratorSpec, trials: range, m: int, split: bool) -> tuple:
    """The m square n-by-n matrices of each trial of ``trials``, as a
    (trials, m, n, n) stack, each drawn whole or, with ``split``, as
    T = [[X, Y], [0, Z]] taking X, Y and Z from its trial's stream in that
    order; under an ``entry_bound``, the trials from the first whose draw
    overflows on are left out, and the error naming that trial is returned
    beside the rest (otherwise ``None``)."""
    n, r = spec.n, spec.r
    if split and not 0 < r < n:
        raise ShapeError(f"block family needs 0 < r < n, got r={r}, n={n}")
    layout = _layout(spec.family, n, r, split)
    raw = _draw(spec, trials, m, layout[0])
    if spec.family == "block_triangular" and not 0 < r < n:
        raise ShapeError(f"block family needs 0 < r < n, got r={r}, n={n}")
    with _overflow_quiet(spec):
        t = _assembled(spec, raw, layout).reshape(len(trials), m, n, n)
    kept, error = _finite_trials(spec, trials, t)
    return t[:kept], error


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


def _grams(stack: np.ndarray) -> np.ndarray:
    """G* G for each matrix G of the stack, each product formed on its own."""
    return np.array([g.conj().T @ g for g in stack]).reshape(stack.shape)


def _log_major_spectra(x: np.ndarray, p: float) -> tuple:
    """The sequences log_major compares for X, or each X of a stack, their
    exponent and log s: s' sqrt|lambda(conj(X') X')| for X' = X / s' of
    :func:`_unit_scaled`, and sigma(X), non-increasing and unsquared, each
    divided by s where :func:`_rescaled` scales; the exponent is 2p, as
    prod(1 + (sigma^2)^p) = prod(1 + sigma^(2p)), p checked before it doubles."""
    _require_exponent(p, 2.0)
    (a, b), log_s = _rescaled(_major_pair, x)
    return a, b, 2.0 * p, log_s


@_quiet
def _major_pair(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    unit, s = _unit_scaled(x, 2)
    moduli = np.sort(np.abs(_lapack("eigvals", unit.conj() @ unit)), axis=-1)[..., ::-1]
    return np.expand_dims(s, -1) * np.sqrt(moduli), _singular_values(x)


def _log_major_matrix_sides(x: np.ndarray, p: float):
    """log_major's sides of :func:`_log_major_spectra` of X, or each X of a stack."""
    return checks._log_major_sides(*_log_major_spectra(x, p))


# the exponent p of an id that takes one, where a caller gives none
DEFAULT_P = 2.0

# each parameter a witness can record, as the sides functions and checkers take it
_PARAM_TYPES = {"r": int, "p": float, "allow_hypothesis_violation": bool}


def _param(params: dict, key: str):
    """``params[key]`` as the sides functions and checkers take it; a
    witness without ``allow_hypothesis_violation`` allows no violation."""
    value = params.get(key, False) if key == "allow_hypothesis_violation" else params[key]
    return _PARAM_TYPES[key](value)


@dataclass(frozen=True)
class Inequality:
    """One inequality id: how to draw its input, check it, and read a search of it.

    ``params`` are the keys a witness of the id records, in the order the
    sides function takes them after its stack: ``r``, the block split;
    ``p``, the exponent (:data:`DEFAULT_P` unless given); and
    ``allow_hypothesis_violation``, without which the checker answers
    ``precondition_failed`` off its hypothesis.  ``shape`` is what the
    checker ``check_<id>`` takes: ``"matrix"`` (the first matrix, then ``r``
    if the id takes it), ``"member"`` (the first matrix split at ``r``),
    ``"family"`` (every matrix split at ``r``) or ``"spectra"``
    (:func:`_log_major_spectra`; its log s goes by keyword); then ``p``,
    and ``allow_hypothesis_violation`` by keyword.  ``sides`` is the sides
    function the checker reads, which :meth:`score` calls on a chunk's stack
    (each trial's family, or its first matrix).  ``files`` is the least and
    most number of input matrices (``None``: no limit); a search draws
    ``files[1]`` where it is set, else the spec's ``m``.  ``transform``
    makes each drawn matrix PSD, or triangular.  ``published`` names the
    paper's counterexample to the id, one of :data:`PAPER_EXAMPLE_IDS`: the
    id is false in general, so a search takes that example's witness as
    trial 0 and expects a violation (of an id with a hypothesis, only where
    ``allow_hypothesis_violation`` is set).
    """

    id: str
    shape: str
    sides: Callable
    files: tuple[int, int | None] = (1, 1)
    params: tuple[str, ...] = ()
    transform: Callable[[np.ndarray], np.ndarray] | None = None
    published: str | None = None

    def call_params(self, r: int | None, p: float | None = None,
                    allow_hypothesis_violation: bool = False) -> dict:
        """The parameters a witness of this id records, defaults filled in."""
        given = {"r": r, "p": DEFAULT_P if p is None else p,
                 "allow_hypothesis_violation": allow_hypothesis_violation}
        return {key: given[key] for key in self.params}

    def draw_trials(self, spec: GeneratorSpec, trials: range, params: dict) -> tuple:
        """The trials ``trials`` from ``spec``, ``files[1]`` matrices each
        where it is set, else the spec's ``m``, drawn as one :class:`_Drawn`
        chunk, read-only; under an ``entry_bound``, cut short at the first
        trial whose draw overflows, with the :class:`LinalgError` naming it
        (otherwise ``None``)."""
        split = self.shape in ("member", "family")
        t, error = _draw_stack(spec, trials, self.files[1] or spec.m, split)
        if not split:
            mats = t[:, 0]
            if self.transform is not None:
                with _overflow_quiet(spec):
                    mats = self.transform(mats)
                kept, later = _finite_trials(spec, trials[:len(mats)], mats)
                mats, error = mats[:kept], error if later is None else later
            t = mats[:, None]
        _read_only(t)
        return _Drawn(self, spec, trials[:len(t)], params, t), error

    def _args(self, witness: Witness) -> tuple:
        """The checker's arguments before ``tol``: of its first matrix, or,
        for a family, of each (:func:`_block_family_from`)."""
        params = witness.params
        if self.shape == "matrix":
            args: tuple = (witness.matrices[0],)
            if "r" in self.params:
                args += (_param(params, "r"),)
        elif self.shape == "member":
            args = (BlockUpperTriangular.from_matrix(witness.matrices[0], _param(params, "r")),)
        elif self.shape == "spectra":
            return _log_major_spectra(witness.matrices[0], _param(params, "p"))
        else:
            args = (_block_family_from(witness),)
        if "p" in self.params:
            args += (_param(params, "p"),)
        return args

    def check(self, witness: Witness, tol: Tolerances = DEFAULT_TOL) -> CheckReport:
        """Check ``witness``: a member shape splits its first matrix at
        ``r``, a family shape each of its matrices."""
        # looked up per call, so a wrapper put on this module's name is the one called
        checker = globals()[f"check_{self.id}"]
        args, kwargs = self._args(witness), {}
        if "allow_hypothesis_violation" in self.params:
            kwargs["allow_hypothesis_violation"] = _param(witness.params,
                                                          "allow_hypothesis_violation")
        if self.shape == "spectra":   # log s, which the checker takes by keyword
            *args, kwargs["log_scale"] = args
        return checker(*args, tol, **kwargs)

    def score(self, drawn: _Drawn, tol: Tolerances) -> tuple[np.ndarray, np.ndarray]:
        """The sides of one chunk of drawn trials, as each trial's margin
        and its code into ``checks._VERDICTS``: the verdict its checker
        gives, or none (0) where its margin or a side is NaN."""
        stack = drawn.t if self.shape == "family" else drawn.t[:, 0]
        return _evaluate(self.sides(stack, *[_param(drawn.params, key) for key in self.params]),
                         tol)

    def expects_violation(self, params: dict) -> bool:
        """Whether a search with these parameters should record a violation."""
        return self.published is not None and (
            "allow_hypothesis_violation" not in self.params
            or _param(params, "allow_hypothesis_violation"))


@dataclass
class _Drawn:
    """A chunk of one id's trials, drawn as one stack: ``t`` holds each
    trial's matrices, read-only and (trials, m, n, n).  The witness a
    checker or a record takes is built from a row on demand, over views of
    it."""

    ineq: Inequality
    spec: GeneratorSpec
    trials: range
    params: dict
    t: np.ndarray

    def witness(self, i: int) -> Witness:
        return Witness(self.ineq.id, self.spec.seed, self.trials[i], dict(self.params),
                       tuple(self.t[i]))

    def record(self, i: int) -> Witness:
        """The witness of trial ``i`` over copies of its matrices (:func:`_owned`)."""
        return Witness(self.ineq.id, self.spec.seed, self.trials[i], dict(self.params),
                       _owned(self.t[i]))


INEQUALITIES: dict[str, Inequality] = {ineq.id: ineq for ineq in (
    Inequality("fischer", "matrix", checks._fischer_sides, params=("r",), transform=_grams),
    Inequality("thm1", "family", checks._thm1_sides, files=(1, None), params=("r",)),
    Inequality("cor_c0", "member", partial(checks._abs_power_sides, p=2.0), params=("r",)),
    Inequality("cor_c1", "family", checks._cor_c1_sides, files=(1, None),
               params=("r", "allow_hypothesis_violation"), published="example1"),
    Inequality("lemma1", "matrix", checks._lemma1_sides),
    Inequality("djokovic", "matrix", checks._djokovic_sides),
    Inequality("thm2", "member", checks._thm2_sides, params=("r",)),
    Inequality("drury", "matrix", checks._drury_sides, transform=np.triu),
    Inequality("thm3", "member", checks._abs_power_sides, params=("r", "p")),
    Inequality("weyl", "matrix", checks._weyl_sides),
    Inequality("log_major", "spectra", _log_major_matrix_sides, params=("p",)),
    Inequality("schur_identity", "matrix", checks._schur_identity_sides, params=("r",)),
    Inequality("e21", "family", checks._e21_sides, files=(2, 2), params=("r",),
               published="example3"),
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
# the remark's pair: X1 = [[1, 2], [0, 1]] and its transpose, each bordered by a 1
_REMARK_T1 = ((1, 2, 0), (0, 1, 0), (0, 0, 1))
_REMARK_T2 = ((1, 0, 0), (2, 1, 0), (0, 0, 1))


def _published(predicate_id: str, matrices) -> Witness:
    """A published example's witness at r 2, allowing a violation of a
    hypothesis where the id has one, over read-only matrices of its own."""
    mats = tuple(as_matrix(m) for m in matrices)
    _read_only(*mats)
    params = INEQUALITIES[predicate_id].call_params(2, allow_hypothesis_violation=True)
    return Witness(predicate_id, 0, 0, params, mats)


_LHS_DET, _RHS_DET = attrgetter("lhs.value.real"), attrgetter("rhs.value.real")
_VIOLATED = ("verdict", attrgetter("verdict.value"), "violated", None)

# each published example: its witness, and its rows (quantity, getter,
# recorded value, tolerance: (kind, bound), or None for an exact match).
# Recorded values are rounded as published: 3 significant figures for the
# large determinants, 5 for the |.|-sum determinant, exact for the 2x2
_PAPER_EXAMPLES: dict[str, tuple[Witness, tuple]] = {
    "example1": (_published("cor_c1", (_EXAMPLE1_T1, _EXAMPLE1_T2)), (
        ("lhs_det", _LHS_DET, 1.25e8, ("rel", 5e-3)),
        ("rhs_det", _RHS_DET, 9.93e8, ("rel", 5e-3)),
        _VIOLATED,
    )),
    "remark_minus12": (_published("cor_c1", (_REMARK_T1, _REMARK_T2)), (
        ("det_xbar_x", methodcaller("finding", "det_xbar_x_re"), -12.0, ("abs", 1e-9)),
    )),
    "example3": (_published("e21", (_EXAMPLE3_T1, _EXAMPLE3_T2)), (
        ("lhs_det", _LHS_DET, 5193.1, ("rel", 2e-3)),
        ("rhs_det", _RHS_DET, 20248.0, ("rel", 2e-3)),
        _VIOLATED,
    )),
}

PAPER_EXAMPLE_IDS = tuple(_PAPER_EXAMPLES)


def _paper_witness(ineq: Inequality, call_params: dict) -> Witness:
    """Trial 0 of a search of ``ineq``: the witness of its published
    example, with the search's parameters but the example's ``r``."""
    witness, _ = _PAPER_EXAMPLES[ineq.published]
    return replace(witness, params={**call_params, "r": witness.params["r"]})


def reproduce_paper_example(example_id: str, tol: Tolerances = DEFAULT_TOL) -> CheckReport:
    """Evaluate one of the three published numeric examples from its matrices."""
    if example_id not in _PAPER_EXAMPLES:
        raise ValueError(f"unknown example {example_id!r}, expected one of {PAPER_EXAMPLE_IDS}")
    witness, _ = _PAPER_EXAMPLES[example_id]
    return recheck_witness(witness, tol)


def compare_paper_example(example_id: str, tol: Tolerances = DEFAULT_TOL) -> list[dict]:
    """Computed-versus-recorded rows for one example, each with a pass flag."""
    report = reproduce_paper_example(example_id, tol)
    _, expectations = _PAPER_EXAMPLES[example_id]
    rows = []
    for quantity, get, recorded, tolerance in expectations:
        computed = get(report)
        if tolerance is None:
            ok = computed == recorded
            shown = "exact"
        else:
            kind, bound = tolerance
            limit = bound * abs(recorded) if kind == "rel" else bound
            ok = abs(float(computed) - recorded) <= limit
            shown = f"{kind} {bound:g}"
        rows.append({
            "example": example_id,
            "quantity": quantity,
            "computed": computed if isinstance(computed, str) else float(computed),
            "recorded": recorded,
            "tolerance": shown,
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
    """(trial, record, report, margin, verdict) for each trial, in order;
    ``record`` builds the trial's witness as a search records it when called.

    Trials are drawn and scored a chunk at a time.  A trial the rule reads
    as violated, whose record needs the report, or gives no verdict goes to
    the checker, whose report is returned; any other has none.  A draw, or
    a chunk's scoring, that raises is raised at its trial, once the trials
    before it are out.
    """
    first = 0
    if inject_paper_witness and ineq.published is not None:
        paper = _paper_witness(ineq, call_params)
        report = ineq.check(paper, tol)
        yield 0, lambda: paper, report, report.margin, report.verdict
        first = 1
    for start in range(first, max_trials, _CHUNK):
        drawn, error = ineq.draw_trials(spec, range(start, min(start + _CHUNK, max_trials)),
                                        call_params)
        margins, codes = [], [0] * len(drawn.trials)   # no verdict: the checkers raise
        if drawn.trials:
            try:
                margins, codes = (a.tolist() for a in ineq.score(drawn, tol))
            except ValueError:
                pass
        for i, trial in enumerate(drawn.trials):
            verdict = _VERDICTS[codes[i]]
            if verdict is not None and verdict is not Verdict.VIOLATED:
                yield trial, partial(drawn.record, i), None, margins[i], verdict
            else:
                report = ineq.check(drawn.witness(i), tol)
                yield trial, partial(drawn.record, i), report, report.margin, report.verdict
        if error is not None:
            raise error


def _owned(matrices) -> tuple:
    """Read-only copies of ``matrices``, which may view a whole chunk's
    stack: a record keeps no chunk alive."""
    copies = tuple(m.copy() for m in matrices)
    _read_only(*copies)
    return copies


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
        raise ValueError(f"unknown predicate {predicate_id!r}, "
                         f"expected one of {', '.join(PREDICATE_IDS)}")
    if max_trials < 1:
        raise ValueError(f"trial count must be >= 1, got {max_trials}")
    ineq = INEQUALITIES[predicate_id]
    call_params = ineq.call_params(spec.r)
    if params:
        if not params.keys() <= call_params.keys() - {"r"}:
            if "r" in params:
                raise ValueError(f"r comes from the generator spec (r={spec.r}), not from params")
            unknown = sorted(map(str, set(params) - set(call_params)))
            takes = ", ".join(k for k in call_params if k != "r")
            raise ValueError(f"{predicate_id} takes {f'only {takes}' if takes else 'no parameters'}"
                             f"; got {', '.join(unknown)}")
        call_params.update(params)
    violations: list[ViolationRecord] = []
    min_margin = None
    min_margin_trial = None
    min_pos = None
    min_pos_trial = None
    min_pos_witness = None   # the function that records it, until the end
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
            violations.append(ViolationRecord(trial, spec.seed, witness(), report))
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
        min_positive_witness=None if min_pos_witness is None else min_pos_witness(),
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

    An id with a published counterexample gets its witness as trial 0;
    everything else is drawn from the generator spec.  Every recorded witness
    reproduces its verdict under :func:`recheck_witness`.  ``params`` may
    set what :meth:`Inequality.call_params` records but ``r``, the spec's;
    any other key raises ``ValueError``, as for :func:`sharpness_probe`.
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
