"""Delay-coordinate reconstruction with continuous observables.

Builds (2d+1)-delay observation maps for injective systems, measures how
well an observable's delay map separates a set of state pairs, constructs
small perturbations that restore separation, and estimates the covering
and box-counting dimensions that govern the required number of delays.
"""

from .core import (
    Constant,
    Coordinate,
    Observable,
    PiecewiseAnchor,
    SumObservable,
    TrigPolynomial,
    observable_from_dict,
    observable_to_dict,
    sup_distance,
)
from .delay import (
    delay_count_for,
    delay_matrix,
    delay_vector,
    delay_vectors,
    periodic_extension,
)
from .genericity import (
    CompatibilityReport,
    PairSet,
    PerturbationError,
    compatibility_margin,
    genericity_monte_carlo,
    openness_radius,
    perturb_to_compatible,
    sample_pairs,
)
from .systems import (
    CatMap,
    CircleRotation,
    Henon,
    Odometer,
    SampledFlow,
    System,
    Trajectory,
    find_periodic,
    iterate,
    periodic_return_scan,
    system_from_dict,
    system_to_dict,
    yorke_certificate,
    yorke_threshold,
)
from .topology import (
    DimensionEstimate,
    box_counting,
    cover_order,
    covering_dimension_estimate,
    hypothesis_check,
    refine_order,
)

__version__ = "0.1.0"
