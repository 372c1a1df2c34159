"""degcount: exact, asymptotic and Monte-Carlo counting of graphs with a
prescribed degree sequence avoiding (or containing) a forbidden subgraph."""

from .graphcore import (
    DegreeSequence,
    ForbiddenGraph,
    InputFormatError,
    Parameters,
    compute_parameters,
    induced_spec,
    is_graphical,
    read_degrees,
    read_edges,
    relabel,
    write_degrees,
    write_edges,
)
from .exactcount import (
    CountLimitError,
    UndefinedProbabilityError,
    complement_degrees,
    enumerate_count,
    exact_count,
    exact_overlap_distribution,
    exact_probability,
)
from .saddle import (
    QuadratureError,
    SaddlePoint,
    SaddlePoleError,
    contour_point,
    fixed_radii_point,
    integral_quadrature,
    log_prefactor,
    solve_saddle,
)
from .asymptotics import (
    HypothesisFlag,
    LogEstimate,
    check_hypotheses,
    dense_count_estimate,
    induced_estimate,
    lambda_jk_expansion,
    miss_hit_estimate,
    naive_estimate,
    overlap_distribution_estimate,
    regular_graph_expectations,
    sparse_estimates,
    specialized_estimates,
)
from .mvintegral import (
    CoefficientSet,
    DegenerateProposalError,
    MCBoxResult,
    gaussian_reference,
    mc_box_integral,
    theta1,
    theta1_terms,
    z_factor,
    z_factor_terms,
)
from .mcsampler import (
    DEFAULT_SEED,
    MCEstimate,
    NonGraphicalError,
    estimate_probability,
    realize,
)

__version__ = "0.1.0"
