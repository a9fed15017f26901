"""Matrix completion for columns on low-dimensional algebraic varieties.

Lift each column to its degree-p monomials, run low-rank completion in
the lifted space, and extract the column back via a rank-one step.
"""

from .identifiability import (
    ConstraintPatterns,
    IdentifiabilityVerdict,
    VarietyCoefficients,
    build_A,
    build_constraint_patterns,
    check_identifiable_algebraic,
    check_identifiable_combinatorial,
    coupon_collector_columns,
    evaluate_variety,
    in_variety,
    minimal_samples,
    spanning_set_uos,
    uos_tensor_rank,
)
from .lrmc import SolveDiagnostics, SvpOptions, svp_complete, truncated_svd_project
from .pipeline import CompletionReport, LadmcConfig, iladmc, ladmc, nrmse
from .preimage import preimage_column, resolve_sign, unlift
from .synth import UoSModel, gen_all_patterns, gen_mask_uniform, gen_uos
from .tensorize import (
    TensorIndexMap,
    augment_ones,
    build_index_map,
    tensor_dimension,
    tensorize_column,
    tensorize_mask,
    tensorize_matrix,
)

__version__ = "0.1.0"
