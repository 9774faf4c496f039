"""References for what the package itself no longer computes that way.

Test oracles only: thm3's sides as the paper writes them, det(I + |A|^p)
with |A|^p built as a matrix, against the checker's singular-value route;
the search's trial draw made block by block, against its one-call draw; the
matrix document parsed entry by entry, against the one-pass parse; the
off-diagonal gate with every Frobenius norm taken, against the one that
takes ||T||_F only where the gate can hold; the command line parsed by the
top-level parser alone, against the dispatch that hands a command's
arguments straight to its parser; and the one-matrix structural
classification the package once exported, against the stacked gates the
checkers take.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from blockdet import cli, search
from blockdet.linalg import (
    PREDICATE_REL,
    PSD_REL,
    LinalgError,
    MatrixFormatError,
    ShapeError,
    _anti_hermitian,
    _asymmetry,
    _commutator,
    _require_square,
    _strict_lower,
    _unit_masses,
    _unit_scale,
    as_matrix,
    hermitian_eigensystem,
)


class NotPositiveSemidefiniteError(LinalgError):
    """Eigenvalue more negative than the PSD clamp window admits."""


def matrix_power_psd(p_matrix: np.ndarray, p: float) -> np.ndarray:
    """Spectral power of a Hermitian PSD matrix.

    Eigenvalues in [-PSD_REL * sigma_max, 0) are rounding debris and clamp
    to 0; anything more negative is rejected.
    """
    if p < 0.0:
        raise ValueError(f"exponent must be >= 0, got {p}")
    w, v = hermitian_eigensystem(as_matrix(p_matrix))
    floor = -PSD_REL * float(np.max(np.abs(w)))
    if np.any(w < floor):
        raise NotPositiveSemidefiniteError(
            f"eigenvalue {float(np.min(w)):.6e} below the PSD clamp window {floor:.6e}")
    powered = (v * np.power(np.where(w < 0.0, 0.0, w), p)) @ v.conj().T
    return (powered + powered.conj().T) / 2.0


# ---------------------------------------------------------------------------
# The trial draw block by block, two generator calls per block, as the search
# made it before it drew each trial in one call.  The one-call draw must give
# bitwise these matrices: the same seed and trial index name the same input.


def _require_finite(spec, trial_index: int, *blocks: np.ndarray) -> None:
    if spec.entry_bound is not None and not all(np.isfinite(b).all() for b in blocks):
        raise LinalgError(f"seed {spec.seed}, trial {trial_index}: entry_bound "
                          f"{spec.entry_bound!r} overflows, drawing non-finite entries")


def _draw_dense(rng, spec, rows: int, cols: int) -> np.ndarray:
    if spec.family in search._INTEGER_FAMILIES:
        lo, hi = search._int_range(spec)
        return rng.integers(lo, hi + 1, size=(rows, cols)).astype(complex)
    s = search._scale(spec)
    return s * (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols)))


def _draw_unitary(rng, n: int) -> np.ndarray:
    return unitary_factor(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))


def unitary_factor(g: np.ndarray) -> np.ndarray:
    """Q of ``numpy.linalg.qr(g)``, each column times the phase of R's
    diagonal entry, or 1 where that entry is an exact zero."""
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    mods = np.abs(d)
    safe = np.where(mods == 0.0, 1.0, mods)
    phases = np.where(mods == 0.0, 1.0 + 0j, d / safe)
    return q * phases


def _draw_structured(rng, spec, n: int) -> np.ndarray:
    family = spec.family
    if family in ("integer_uniform", "block_triangular", "gaussian"):
        return _draw_dense(rng, spec, n, n)
    if family == "symmetric":
        g = _draw_dense(rng, spec, n, n)
        return (g + g.T) / 2.0
    if family == "normal_via_unitary_conjugation":
        u = _draw_unitary(rng, n)
        d = search._scale(spec) * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        return (u * d) @ u.conj().T
    if family == "upper_triangular":
        return np.triu(_draw_dense(rng, spec, n, n))
    raise ValueError(f"unknown family {family!r}")


def block_by_block_generate(spec, trial_index: int) -> list[np.ndarray]:
    """:func:`blockdet.search.generate`, drawn block by block."""
    rng = search._trial_rng(spec.seed, trial_index)
    out = []
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(spec.m):
            mat = _draw_structured(rng, spec, spec.n)
            if spec.family == "block_triangular":
                if not 0 < spec.r < spec.n:
                    raise ShapeError(f"block family needs 0 < r < n, got r={spec.r}, n={spec.n}")
                mat[spec.r:, : spec.r] = 0.0
            _require_finite(spec, trial_index, mat)
            out.append(mat)
    return out


def block_by_block_family(spec, trial_index: int) -> list[tuple[np.ndarray, ...]]:
    """The (X, Y, Z) of each member :func:`blockdet.search.generate_block_family`
    draws, drawn block by block in the order X, Y, Z per member."""
    if not 0 < spec.r < spec.n:
        raise ShapeError(f"block family needs 0 < r < n, got r={spec.r}, n={spec.n}")
    rng = search._trial_rng(spec.seed, trial_index)
    members = []
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(spec.m):
            x = _draw_structured(rng, spec, spec.r)
            y = _draw_dense(rng, spec, spec.r, spec.n - spec.r)
            z = _draw_structured(rng, spec, spec.n - spec.r)
            _require_finite(spec, trial_index, x, y, z)
            members.append((x, y, z))
    return members


# ---------------------------------------------------------------------------
# The matrix document parsed entry by entry, as before the one-pass parse.
# The one-pass parse must return bitwise this array or raise this message;
# only an int past the double range differs, where this raises OverflowError.


def per_entry_matrix_from_json_dict(doc: dict) -> np.ndarray:
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


# ---------------------------------------------------------------------------
# checks._y_zero as it was before it took ||T / s||_F only where a gate can
# hold.  It must give bitwise this gate, s and ||Y / s||_F.


def y_zero_every_norm(t: np.ndarray, r: int) -> tuple:
    s = _unit_scale(t)
    moduli = np.abs(t / (s if isinstance(s, float) else s[..., None, None]))
    norm = np.hypot.reduce(moduli, axis=(-2, -1))
    y = np.hypot.reduce(moduli[..., :r, r:], axis=(-2, -1))
    return y <= PREDICATE_REL * (1.0 / s + norm), s, y


# ---------------------------------------------------------------------------
# linalg.predicates as the package exported it, one matrix at a time.  The
# stacked gates must give bitwise its answers: checks._fischer_sides its
# is_hermitian, is_psd and min_eigenvalue, checks._is_symmetric and
# checks._is_normal theirs, and checks._drury_sides' precondition its
# is_upper_triangular.


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

    The zero matrix passes every test.  PSD requires Hermitian and smallest
    eigenvalue at least ``-PSD_REL * sigma_max``, of the Hermitian part
    (a + a*) / 2, which passes the eigensolver's tighter gate exactly.  The
    tests run on the exact quotient A/s of ``_unit_masses``, where nothing
    overflows; ``min_eigenvalue`` is s times the quotient's least.
    """
    a = _require_square(as_matrix(a), "predicates")
    s, unit, norm, anti_hermitian, asymmetry, commutator, lower = _unit_masses(
        a, _anti_hermitian, _asymmetry, _commutator, _strict_lower)
    gate = PREDICATE_REL * norm
    is_hermitian = anti_hermitian <= gate
    is_symmetric = asymmetry <= gate
    is_normal = commutator <= gate * norm
    is_upper_triangular = lower <= gate
    is_psd, min_eigenvalue = False, None
    if is_hermitian:
        w, _ = hermitian_eigensystem(unit / 2.0 + unit.conj().T / 2.0)
        min_eigenvalue = s * float(w[-1])
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
# Every argv through the top-level parser, which hands a command's arguments
# on to that command's parser.  ``cli.main`` must answer each argv alike.


def main_through_top_level_parser(argv: list[str]) -> int:
    try:
        args = cli.build_parser().parse_args(argv)
        return args.func(args)
    except cli._UsageError as err:
        print(f"blockdet: error: {err}", file=sys.stderr)
        return cli.EXIT_USAGE
    except SystemExit as err:
        return err.code if isinstance(err.code, int) else cli.EXIT_USAGE
