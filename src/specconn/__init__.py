"""Conditional connectivity and spectral radii of small graphs.

Bitset graphs with a graph6 codec and exact canonicalization; exhaustive
good-neighbor / component connectivity with certificates; power-iteration and
quotient-matrix spectral radii; one join-of-cliques Shape type with the
extremal families laid out as shapes; and an exhaustive pipeline verifying
that those families maximize the spectral radius in their classes.
"""

__version__ = "0.1.0"

from .census import CONNECTED_COUNTS, connected_census, ingest_graph6
from .connectivity import (
    CutCertificate,
    CutMode,
    CutQuery,
    MinCut,
    is_valid_cut,
    min_cut,
)
from .families import (
    Family,
    FamilyParams,
    InfeasibleFamilyError,
    Shape,
    claimed_extremal,
    construct,
    extremal_family_for,
    feasibility_violations,
    witness_cut,
)
from .graphs import (
    Graph,
    GraphFormatError,
    canonical_form,
    complete_bipartite,
    complete_graph,
    components,
    cycle_graph,
    degree_profile,
    disjoint_union,
    empty_graph,
    from_edges,
    graph6_decode,
    graph6_encode,
    induced_subgraph,
    is_connected,
    is_isomorphic,
    join,
    mask_of,
    path_graph,
    permute,
    vertices_of,
)
from .kernels import BACKEND
from .spectral import (
    ConvergenceError,
    SpectralResult,
    ViolationError,
    perron_compare,
    quotient_spectral_radius,
    spectral_radius,
)
from .transforms import (
    RotationSpec,
    check_join_rebalance,
    check_rotation_increase,
    check_subgraph_monotonicity,
    fuzz_rotation_increase,
    fuzz_subgraph_monotonicity,
    random_connected_graph,
    rotate,
)
from .verify import (
    ClassSpec,
    VerificationReport,
    run_verification,
    write_csv,
    write_json,
)
