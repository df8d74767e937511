"""Exact signature tensors of paths and two-parameter membranes.

Public surface re-exported here: the rational scalar, dense matrices and
tensors, path/membrane signature routines, the linear-time piecewise-bilinear
algorithm and the variety diagnostics.
"""

from .fastsig import (
    advance_letter,
    sig_tensor_fast,
    sig_word_fast,
)
from .linalg import (
    CongruenceInvariants,
    Matrix,
    cosquare,
    det,
    kron,
    kron_jordan_structure,
    pm1_jordan_structure,
    rank,
    sym_skew_split,
)
from .membranes import (
    GridData,
    PiecewiseBilinearMembrane,
    PolynomialMembrane,
    axis_grid,
    bilinear_decompose,
    cell_derivatives,
    core_matrix,
    core_tensor,
    nu,
    nu_inv,
    product_sig_entry,
    reduce_grid,
    sig_via_congruence,
)
from .paths import (
    axis_path_sig_entry,
    linear_path_sig,
    moment_path_sig_entry,
    poly_path_sig_oracle,
    pw_linear_path_sig,
)
from .rational import Rat, rat, rat_str
from .tensor import SigTensor, tucker_apply
from .variety import (
    DimReport,
    congruence_invariants,
    congruent_check,
    core_invariants,
    core_rank_profile,
    degree_formula,
    dimension_formula,
    dimension_report,
    image_dimension,
    relation_checks,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
