"""Combinatorics of Shi and Ish hyperplane arrangement regions.

Regions are represented by ceiling diagrams -- a permutation plus either a
nonnesting set partition (Shi) or a dot-count sequence (Ish) -- with their
statistics (ceiling partition, degrees of freedom, dominance, relative
boundedness), the counting formulas, four region bijections, and an exact
rational geometric enumerator that validates all of it from the raw
hyperplanes.
"""

from .bijections import (
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
)
from .core import (
    Graph,
    all_graphs,
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
    oracle_pass,
    recession_dimension,
    region_order,
)
from .ish import (
    IshCeilingDiagram,
    ceiling_partition_count,
    ish_char_poly,
    ish_region_count,
    ish_statistics,
    is_valid_ish,
    rook_number,
)
from .parking import (
    is_parking_function,
    is_prime_parking_function,
    parking_functions,
    prime_parking_functions,
)
from .rookwords import (
    is_prime_rook_word,
    is_rook_word,
    orbit_certificate,
    prime_rook_words,
    rook_words,
    tail_and_dof,
)
from .shi import (
    ShiCeilingDiagram,
    is_valid_shi,
    parking_to_shi_diagram,
    shi_diagram_to_parking,
    shi_statistics,
    shi_word_statistics,
)

__version__ = "0.1.0"
