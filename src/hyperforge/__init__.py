"""Incidence geometries, halving constructions and cubic toroid
families, with a coset-enumeration engine underneath."""

from .errors import HyperforgeError
from .geometry import (
    IncidenceGeometry, build_geometry, residue, truncation, shadow,
    enumerate_chambers, is_geometry, is_connected,
    is_residually_connected, is_thin, buekenhout_diagram,
)
from .iso import automorphism_group, isomorphic, find_isomorphism, \
    is_flag_transitive
from .perms import PermGroup, coxeter_matrix, intersection_property
from .presentations import GroupPresentation, coxeter_presentation, \
    relator_parity_bipartite
from .toddcox import todd_coxeter, perm_image, CosetTable, backend_name
from .engine import coset_geometry, halving_group, natural_action
from .constructions import (
    parity_classes, partitioned_neighborhood, check_B1, check_B2,
    p_construction, bp_construction, halving_geometry,
    duality_correlation, b1b2_propagation,
)
from .toroids import (
    ToroidParams, cubic_toroid_presentation, build_cubic_toroid,
    predict_truncation_bipartite, predict_degenerate_leaf,
    halved_presentation, double_halved_presentation, verify_family,
)

__version__ = "0.1.0"
