"""Matrix-function references the package itself no longer computes.

Test oracle only: thm3's sides as the paper writes them, det(I + |A|^p)
with |A|^p built as a matrix, against the checker's singular-value route.
"""

from __future__ import annotations

import numpy as np

from blockdet.linalg import (
    PSD_REL,
    LinalgError,
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
