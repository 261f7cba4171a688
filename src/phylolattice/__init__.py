"""Lattice models of phylogenetic networks and filtrations.

Cliquegrams and facegrams are piecewise-constant, refinement-monotone
maps from time to antichains of taxa subsets; they form lattices whose
joins solve the network reconstruction problem for families of trees.
The invariants (mergegram, labeled mergegram, face-Reeb graph) and their
metrics live alongside the constructions.
"""

from .taxa import TaxaSet, bits
from .faces import (
    CliqueSet,
    FaceSet,
    Graph,
    canonical_faces,
    cliqueset_from_graph,
    cliqueset_join,
    complex_to_faceset,
    faceset_join,
    faceset_leq,
    faceset_meet,
    faceset_to_complex,
    graph_from_cliqueset,
    is_pair_cover_closed,
    is_subpartition,
    maximal_cliques,
    maximal_masks,
)
from .networks import (
    NetworkValidationError,
    PhyloNetwork,
    Ultranetwork,
    as_ultranetwork,
    is_ultranetwork,
    network_join,
    validate_network,
    vr_value,
)
from .filtrations import (
    FacegramFiltration,
    Filtration,
    PullbackFiltration,
    Surjection,
    TableFiltration,
    VRFiltration,
    all_faces,
    filtration_interleaving,
    pullback_filtration,
)
from .grams import (
    Gram,
    cliquegram_from_network,
    facegram_from_filtration,
    filtration_from_facegram,
    gram_leq,
    is_treegram,
    join_grams,
    network_from_cliquegram,
    squash_to_cliquegram,
    treegram_from_ultranetwork,
)
from .mergegram import (
    Interval,
    LabeledMergegram,
    Mergegram,
    PersistenceDiagram,
    gram_from_labeled_mergegram,
    join_mergegram_of_treegrams,
    labeled_mergegram,
    labeled_mergegram_of_filtration,
    mergegram,
    mergegram_of_filtration,
    ph0_elder,
)
from .reeb import ReebGraph, face_reeb_graph
from .metrics import (
    Matching,
    bottleneck_distance,
    bottleneck_matching,
    facegram_interleaving,
    gromov_hausdorff_bruteforce,
    linf_labeled_distance,
    tripod_distance_bruteforce,
    vr_tripod_bruteforce,
)
from .clustering import agglomerative_ultrametric
from .formats import (
    FORMAT,
    diagram_svg,
    gram_json,
    labeled_mergegram_json,
    line_plot_svg,
    mergegram_json,
    parse_gram_json,
    parse_matrix_csv,
    parse_mergegram_json,
    reeb_dot,
    serialize_matrix_csv,
)
from .newick import (
    NewickError,
    NewickTree,
    newick_from_ultranetwork,
    parse_newick,
    ultranetwork_from_newick,
)
from .experiments import (
    ExperimentConfig,
    bottleneck_progression,
    gen_random_treegrams,
    partial_joins,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
