"""Berge-path statistics and weight-sum verification for uniform hypergraphs."""

from .hypergraph import (
    Hypergraph,
    HypergraphError,
    from_edge_lists,
    from_masks,
    induced,
    is_connected,
    load_hypergraph,
    parse_hypergraph,
    serialize_hypergraph,
)
from .search import (
    Analysis,
    BergePath,
    PathQuery,
    SearchError,
    analyze,
    longest_berge_path,
    longest_path_length,
    p_edge,
)
from .weights import (
    TuranResult,
    WeightReport,
    f_r,
    gap_check,
    turan_exact,
    weight_report,
)
from .goodsets import (
    GoodSetCertificate,
    RotationFamily,
    check_good_set_existence,
    check_rotation_bound,
    check_spanning_cycle_property,
    find_good_set,
    is_good_set,
    rotation_closure,
)
from .verify import (
    SweepConfig,
    SweepReport,
    report_write,
    run_sweep,
)

__version__ = "0.1.0"
