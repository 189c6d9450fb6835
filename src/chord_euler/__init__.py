"""Exact Euler characteristics of non-crossing chord families of simple polygons."""

from .geometry import (
    CollinearTriple,
    DuplicateVertex,
    Point,
    Polygon,
    PolygonError,
    Segment,
    SelfIntersection,
    orientation,
    validate_polygon,
)
from .chords import (
    Chord,
    ChordKind,
    ChordSet,
    a_diagonals,
    classify_chord,
    diagonals,
    epigonals,
    universe_of,
)
from .nc_euler import (
    FVector,
    chi_point_family,
    euler_recursive,
    f_vector,
    find_heart,
    hull_edge_in,
    is_heart,
)
from .partition import (
    ConvexLattice,
    PartitionResult,
    chi_epigonal_pockets,
    chi_inclusion_exclusion,
    chi_removed_direct,
    chi_removed_factorized,
    chi_removed_lemma1,
    chi_removed_lemma_d2,
    chi_removed_theorem2,
    convex_lattice,
    subdivide,
    xi,
)
from .classes import (
    ClassReport,
    class_report,
    is_class1,
    is_class2,
    is_class3,
    is_class4,
    is_class5,
    is_class6,
    verify_theorem1,
    verify_theorem3,
)
from .catalan import (
    alternating_sum_check,
    brute_a_diagonal_fvector,
    d_closed,
    d_recurrence_check,
    identity14_check,
)
from .generators import (
    GeneratorError,
    ZigzagInstance,
    class_exemplar,
    convex_ngon,
    random_simple_polygon,
    verify_zigzag_structure,
    zigzag_chi_target,
)

__all__ = [name for name in dir() if not name.startswith("_")]
