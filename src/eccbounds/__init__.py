"""Average eccentricity of graphs with prescribed girth: exact computation,
closed-form upper bounds, machine-checkable proof certificates, and the
chained extremal constructions that show how tight the bounds are."""

from .bounds import (
    BoundId,
    BoundResult,
    GraphParams,
    Measured,
    bound_legacy,
    bound_thm_girth,
    bound_thm_girth_maxdeg,
    evaluate_all,
    girth6_reduction_forms,
    lower_bound_chain,
    measure,
    moore_order,
    moore_order_even,
    moore_order_odd,
)
from .certify import (
    MatchingCertificate,
    NotCertifiableError,
    PackingCertificate,
    build_packing,
    build_spaced_matching,
    build_spanning_tree_from_packing,
    certify_even,
    certify_odd,
    weight_function,
)
from .extremal import (
    ChainSpec,
    MooreSpec,
    SharpnessRow,
    chain_graph,
    moore_catalog,
    sharpness_report,
    sharpness_rows_to_csv,
)
from .generators import (
    GenerationFailure,
    GeneratorConfig,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    emit_edge_list,
    heawood_graph,
    hoffman_singleton_graph,
    path_graph,
    petersen_graph,
    projective_plane_incidence,
    random_min_degree_girth,
)
from .graph import (
    UNREACHABLE,
    DisconnectedGraphError,
    EccentricityProfile,
    EdgeListParseError,
    Graph,
    WeightFunction,
    bfs_distances,
    eccentricity_profile,
    girth,
    is_connected,
    line_graph,
    multi_source_distances,
    parse_edge_list,
    path_avec_closed_form,
    weighted_avec,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
