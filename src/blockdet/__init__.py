"""Determinantal inequality verification for block upper-triangular matrices.

Complex dense linear algebra (signed-log determinants, eigenvalues and
singular values through numpy's LAPACK, Schur complements), one checker per
inequality with equality-condition diagnostics, and a seeded fuzzer that
reproduces the published counterexamples deterministically.
"""

from .linalg import (
    BlockUpperTriangular,
    ConvergenceError,
    DEFAULT_TOL,
    LinalgError,
    MatrixFormatError,
    NotHermitianError,
    ShapeError,
    SignedLogDet,
    Tolerances,
    as_matrix,
    det,
    general_eigenvalues,
    hermitian_eigensystem,
    matrix_from_json_dict,
    matrix_to_json_dict,
    singular_values,
)
from .checks import (
    BlockFamily,
    CheckReport,
    Finding,
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
)
from .search import (
    FAMILIES,
    GeneratorSpec,
    PAPER_EXAMPLE_IDS,
    PREDICATE_IDS,
    SearchReport,
    Witness,
    compare_paper_example,
    recheck_witness,
    reproduce_paper_example,
    search_violations,
    sharpness_probe,
)

__version__ = "0.1.0"
