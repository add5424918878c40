"""permnet: permutations, source/sink networks, cell diagrams, forests,
and the graded lattice tying them together."""

from .perm import (
    PermError,
    check_word,
    compose,
    format_word,
    identity,
    inverse,
    parse_word,
    swap_covers,
    swap_length,
    swap_levels,
)
from .network import (
    Network,
    NetworkError,
    compatible,
    edge_order,
    enumerate_networks,
    format_network,
    format_signature,
    from_permutation,
    max_network,
    parse_network,
    parse_signature,
    signature_of,
    strip_neutral,
    to_permutation,
    validate,
)
from .diagram import (
    LabeledPolyomino,
    Polyomino,
    PolyominoError,
    RibbonError,
    boundary_ribbon,
    label_polyomino,
    maximal_dyck_tiling,
    peel_step,
    polyomino,
    polyomino_edges,
    polyomino_permutation,
    rothe_diagram,
    rothe_edges,
    rothe_step,
)
from .forest import (
    Forest,
    ForestError,
    crossing_cells,
    enumerate_forests,
    from_network,
    generating_function,
    leaf_deletion_permutation,
    make_forest,
    max_network_permutation,
    strand_permutation,
    to_network,
    young_shape,
)
from .poset import (
    LatticeError,
    NetworkLattice,
    build_lattice,
    whitney_direct,
    whitney_recurrence,
)

__version__ = "0.1.0"
