"""Commutator criteria for mixing: operators, Birkhoff averages, models.

The package splits into matrix infrastructure (operators), the commutator
and degree machinery (commutators), correlation and Fourier diagnostics
(mixing), torus and group-valued skew products (skew), directed-graph
windows (graphs), and a batch scenario runner (cli).
"""

from .errors import (
    AdmissibilityError,
    DimensionError,
    EvaluationError,
    RationalApproximationWarning,
    ResolutionError,
    SchemaError,
    SpectralCutWarning,
    SpectralSingularityError,
    StructureError,
)
from .operators import (
    KernelSplit,
    SpectralDecomposition,
    StructureReport,
    cayley_transform,
    check_structure,
    functional_calculus,
    inverse_cayley_transform,
    kernel_split,
    matrix_from_json,
    matrix_from_payload,
    matrix_to_json,
    matrix_to_payload,
    max_norm,
    spectral_decomposition,
    spectral_norm,
    spectral_projector,
)
from .commutators import (
    DegreeEstimate,
    FlowIdentityCheck,
    IdentityCheck,
    MixingBound,
    OperatorPair,
    SmoothWindow,
    birkhoff_continuous,
    birkhoff_discrete,
    degree_alternative,
    degree_identity_check,
    epsilon_commutator,
    epsilon_commutator_slope,
    estimate_degree,
    flow_identity_check,
    mixing_bound,
    project_onto_window,
    selfadjoint_symbol,
    tilde_conjugate,
    unitary_symbol,
)
from .mixing import (
    CorrelationSeries,
    DecayReport,
    FourierCalculus,
    PerpSpectrumReport,
    SummabilityReport,
    correlation_continuous,
    correlation_discrete,
    decay_report,
    eigen_in_perp,
    fourier_calculus,
    summability_report,
)
from .skew import (
    GridField,
    SU2Cocycle,
    ShiftModel,
    TorusCocycle,
    TorusFlow,
    cocycle_sum,
    sector_apply,
    sector_correlation,
    sector_matrix,
    sector_truncation_sweep,
    shift_weyl_model,
    su2_degree_field,
    su2_irrep,
    torus_degree_field,
    u2_frequency_separation,
    unit_grid,
)
from .graphs import (
    AdmissibilityReport,
    DirectedGraphWindow,
    GraphOperators,
    alternating_cycle4,
    build_operators,
    check_admissible,
    format_graph_window,
    graph_degree,
    grid2d_window,
    interior_residuals,
    line_window,
    parse_graph_window,
)

__version__ = "0.1.0"
