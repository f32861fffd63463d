"""Clique and near-clique count estimation over a metered neighborhood oracle.

The package splits into a crawl side and a truth side.  The crawl side
(walks, layered sampling) touches the graph only through queries charged
to a ledger.  The truth side (exhaustive enumeration, chain counts,
density bounds) reads the graph freely and exists to verify the crawl.
"""

from .estimator import (
    DegenerateLayerError,
    EstimateConfig,
    EstimateResult,
    LayerBuild,
    LayerNiceness,
    LayerState,
    SampleSizeRecommendation,
    build_layers,
    estimate_count,
    final_level_successes,
    initial_layer,
    niceness_report,
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
from .instances import (
    Instance,
    check_extension,
    representative,
    seg_neighborhood,
)
from .oracle import (
    ArboricityBound,
    CountProfile,
    DegeneracyResult,
    EnumerationBudgetError,
    check_arboricity_bound,
    count_profile,
    degeneracy,
    enumerate_instances,
    exact_count,
    seg_degree_total,
)
from .patterns import (
    Pattern,
    Segmentation,
    SegmentationReport,
    auto_segment,
    builtin_names,
    builtin_pattern,
    load_pattern_path,
    parse_pattern,
    require_feasible,
    validate_segmentation,
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
