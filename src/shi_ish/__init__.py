"""Combinatorics of Shi and Ish hyperplane arrangement regions.

Regions are represented by ceiling diagrams -- a permutation plus either a
nonnesting set partition (Shi) or a dot-count sequence (Ish) -- with their
statistics (ceiling partition, degrees of freedom, dominance, relative
boundedness), the counting formulas, four region bijections, and an exact
rational geometric enumerator that validates all of it from the raw
hyperplanes.
"""

from .bijections import (
    DIAMOND,
    basic_bijection,
    basic_bijection_inverse,
    basic_parking_to_rook,
    basic_rook_to_parking,
    bounded_bijection,
    bounded_bijection_inverse,
    bounded_parking_to_rook,
    bounded_rook_to_parking,
    dominance_bijection,
    dominance_bijection_inverse,
    dominance_parking_to_rook,
    dominance_rook_to_parking,
    freedom_bijection,
    freedom_bijection_inverse,
    freedom_parking_to_rook,
    freedom_rook_to_parking,
    ish_diagram_to_parking,
    ish_diagram_to_parking_stages,
    parking_to_ish_diagram,
    parking_to_ish_diagram_stages,
)
from .core import (
    Graph,
    all_graphs,
    connected_components,
    cyclic_shift,
    is_nonnesting,
    orbit,
    position_partition,
    set_partitions,
)
from .geometry import (
    Arrangement,
    GeomRegion,
    Hyperplane,
    build_arrangement,
    cross_validate,
    enumerate_regions,
    enumerate_regions_sweep,
    oracle_pass,
    oracle_report,
    recession_dimension,
    region_ceilings,
    region_dominant,
    region_order,
)
from .ish import (
    Board,
    IshCeilingDiagram,
    RookPlacement,
    ceiling_partition_count,
    complete_placement,
    ish_char_poly,
    ish_diagram_to_laser_word,
    ish_diagram_to_placement,
    ish_diagram_to_rook_word,
    ish_diagrams,
    ish_region_count,
    ish_statistics,
    is_valid_ish,
    laser_word_to_ish_diagram,
    parking_to_placement,
    placement_laser_word,
    placement_to_ish_diagram,
    placement_to_parking,
    placement_to_rook_word,
    restrict_placement,
    rook_number,
    rook_word_to_ish_diagram,
    rook_word_to_placement,
    stir,
)
from .parking import (
    factorize_parking,
    compose_factors,
    is_parking_function,
    is_prime_parking_function,
    parking_functions,
    prime_components,
    prime_parking_functions,
    shuffle_compose,
    word_to_dyck,
)
from .rookwords import (
    is_prime_rook_word,
    is_rook_word,
    orbit_certificate,
    parking_to_rook_word,
    prime_parking_to_rook_word,
    prime_rook_word_to_parking,
    prime_rook_words,
    rook_word_to_parking,
    rook_words,
    tail_and_dof,
)
from .shi import (
    ShiCeilingDiagram,
    is_valid_shi,
    parking_to_shi_diagram,
    shi_diagram_to_parking,
    shi_diagrams,
    shi_statistics,
    shi_word_statistics,
)

__version__ = "0.1.0"
