"""Decentralized proximal gradient methods in a unified primal-dual form.

Modules
-------
netgraph : graphs, combination matrices, consensus triples, assumptions
costs    : per-agent smooth costs (quadratic, logistic) and data handling
prox     : proximal operators, incl. the pairwise-difference counterexample
engine   : the algorithm registry and its synchronous iterations
analysis : rate theory, fixed-point residuals, decay classification
cli      : JSON-config experiment runner (`decprox` console script)
"""

from .netgraph import (
    AlgorithmId,
    ConsensusTriple,
    Graph,
    SpectralReport,
    build_graph,
    laplacian_matrix,
    metropolis_matrix,
    shift_positive,
    table1_matrices,
    validate_assumptions,
)
from .costs import (
    Dataset,
    SmoothCostSet,
    logistic_cost,
    partition_data,
    quadratic_cost,
    random_quadratic_cost,
    read_libsvm,
    synthetic_classification,
)
from .prox import (
    ChainSumProx,
    CounterexampleProx,
    L1Prox,
    ProxOperator,
    ZeroProx,
    prox_l1,
)
from .engine import (
    ALGORITHMS,
    BlockIterate,
    RunRecord,
    initial_state,
    rel_sq_error,
    run,
)
from .analysis import (
    FitVerdict,
    RateReport,
    centralized_reference,
    classify_decay,
    fixed_point_residuals,
    step_bound,
    theoretical_rate,
)

__version__ = "0.1.0"
