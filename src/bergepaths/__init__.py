"""Berge-path statistics and weight-sum verification for uniform hypergraphs."""

from .hypergraph import (
    Hypergraph,
    HypergraphError,
    complete_hypergraph,
    components,
    delete_vertices,
    from_edge_lists,
    from_masks,
    is_connected,
    load_hypergraph,
    neighborhood,
    parse_hypergraph,
    serialize_hypergraph,
)
from .search import (
    Analysis,
    BergeCycle,
    BergePath,
    PathQuery,
    SearchError,
    analyze,
    find_berge_cycle,
    longest_berge_path,
    longest_path_length,
    p_edge,
)
from .oracle import oracle_length_table, oracle_longest_path
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
    check_spanning_cycle_property,
    enumerate_good_sets,
    find_good_set,
    is_good_set,
    rotation_closure,
)
from .verify import (
    SweepConfig,
    SweepReport,
    coro_path_check,
    report_read,
    report_write,
    run_sweep,
)

__version__ = "0.1.0"
