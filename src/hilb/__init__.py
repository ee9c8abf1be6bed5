"""Exact wreath-product model of Hilbert-scheme cohomology rings.

Library layout:

- exact_poly: truncated power series in s, q, t over exact rationals
- symmetric_groups: permutations, cycle types, orbits, graph defect
- surface_ring: surface algebras, presets, validation, diagonal pushforward,
  signed-orthonormal filtered bases
- wreath_ring: A{S_n}, the S_n action, Lehn's cup product, ring-axiom suites
- perverse_filtration: abstract perversity and the filtration checkers
- generating_series: refined Goettsche products, closed forms, partition sums,
  the brute-force oracle, series comparison
- cli: the `hilb` command-line front end
"""

from .exact_poly import TruncatedSeries, geometric_factor
from .report import CheckReport
from .surface_ring import (
    PRESET_NAMES,
    SurfaceRing,
    diagonal_push,
    filtered_basis,
    load_ring,
    preset,
    save_ring,
    validate,
)
from .symmetric_groups import Perm, cycle_type, enumerate_sn, graph_defect, orbits
from .wreath_ring import (
    WreathClass,
    cup,
    cup_class,
    invariant_project,
    sn_act,
)
from .perverse_filtration import (
    BOTTOM,
    check_diagonal_bound,
    check_intersection_nondegenerate,
    check_monodromy_vanishing,
    check_multiplicativity,
    perversity,
    perversity_class,
    pw_transport,
)
from .generating_series import (
    SeriesSpec,
    brute_force_poincare,
    closed_form,
    compare_series,
    partition_sum,
    refined_goettsche,
)

__all__ = [
    "BOTTOM",
    "CheckReport",
    "Perm",
    "PRESET_NAMES",
    "SeriesSpec",
    "SurfaceRing",
    "TruncatedSeries",
    "WreathClass",
    "brute_force_poincare",
    "check_diagonal_bound",
    "check_intersection_nondegenerate",
    "check_monodromy_vanishing",
    "check_multiplicativity",
    "closed_form",
    "compare_series",
    "cup",
    "cup_class",
    "cycle_type",
    "diagonal_push",
    "enumerate_sn",
    "filtered_basis",
    "geometric_factor",
    "graph_defect",
    "invariant_project",
    "load_ring",
    "orbits",
    "partition_sum",
    "perversity",
    "perversity_class",
    "preset",
    "pw_transport",
    "refined_goettsche",
    "save_ring",
    "sn_act",
    "validate",
]
