"""Clique and near-clique count estimation over a metered neighborhood oracle.

The package splits into a crawl side and a truth side.  The crawl side
(walks, layered sampling) touches the graph only through queries charged
to a ledger.  The truth side (the exact chain-count tally and the
degeneracy) reads the graph freely: it gives the crawl its ground truth.
"""

from .estimator import (
    DegenerateLayerError,
    EstimateConfig,
    EstimateResult,
    LayerState,
    estimate_count,
    final_level_successes,
    initial_layer,
    recommend_sample_sizes,
    scaling_constant,
)
from .graph import (
    EdgeListParseError,
    Graph,
    QueryLedger,
    edges_observed_fraction,
    load_edge_list,
    load_edge_list_path,
    neighbors,
)
from .instances import representative
from .oracle import (
    CountProfile,
    EnumerationBudgetError,
    count_profile,
    degeneracy,
    exact_count,
)
from .patterns import (
    Pattern,
    Segmentation,
    auto_segment,
    builtin_names,
    builtin_pattern,
    load_pattern_path,
    parse_pattern,
    require_feasible,
)
from .walk import (
    CollisionShortfallError,
    EdgeCountEstimate,
    WalkConfig,
    default_burn_in,
    estimate_edge_count,
    simple_random_walk,
)

__version__ = "0.1.0"
