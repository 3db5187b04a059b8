"""Folding-free planar spline parameterization from boundary contours.

The mixed first-order form of the inverse-harmonic (elliptic grid
generation) equations is solved with a Schur-complement Jacobian-free
Newton-Krylov method; C0 knot lines and conforming multipatch domains with
extraordinary vertices are supported.
"""

__version__ = "0.1.0"

from .splines import KnotVector, TensorBasis, uniform_knots
from .mapping import SplineMap, make_map, transfinite_initial_guess, \
    metric_at, winslow, sampled_bijectivity, unit_square_map
from .assembly import MixedSystem, single_patch_system
from .multipatch import AffinePatchMap, Interface, PatchTopology, \
    build_topology, build_restriction, single_patch_topology
from .solver import SolverConfig, SolverReport, newton_solve, \
    build_system_hierarchy

__all__ = [
    "KnotVector", "TensorBasis", "uniform_knots",
    "SplineMap", "make_map", "transfinite_initial_guess", "metric_at",
    "winslow", "sampled_bijectivity", "unit_square_map",
    "MixedSystem", "single_patch_system",
    "AffinePatchMap", "Interface", "PatchTopology", "build_topology",
    "build_restriction", "single_patch_topology",
    "SolverConfig", "SolverReport", "newton_solve", "build_system_hierarchy",
]
