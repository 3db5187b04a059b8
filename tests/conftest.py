import time

import numpy as np
import pytest
from hypothesis import strategies as st

from eggmix.assembly import MixedSystem, boundary_values_from_faces
from eggmix.io_cli import parse_geometry
from eggmix.geometries import build_bat, build_lbend
from eggmix.solver import SolverConfig, newton_solve, transfinite_global, \
    folded_initial_guess
from eggmix.splines import KnotVector

from oracles import band_to_dense


def start(system, folded=False):
    """Inner coefficients of the transfinite starting net, optionally
    folded."""
    net = transfinite_global(system)
    if folded:
        net = folded_initial_guess(system, net)
    return system.net_as_c(net[system.topology.inner_indices])


def dense_laplacian(system, c):
    """K at c from its band (:meth:`MixedSystem.frozen_laplacian`), dense in
    the inner order."""
    return band_to_dense(system.frozen_laplacian(c), system._laplacian_factors.order)


@st.composite
def knot_vectors(draw):
    """Open knot vector of degree 1-3 with one to two interior breakpoints,
    each repeated up to the degree (a C0 line at full multiplicity)."""
    p = draw(st.integers(1, 3))
    breaks = sorted(draw(st.lists(st.sampled_from([0.2, 0.35, 0.5, 0.8]),
                                  min_size=1, max_size=2, unique=True)))
    knots = [0.0] * (p + 1)
    for b in breaks:
        knots += [b] * draw(st.integers(1, p))
    return KnotVector(p, knots + [1.0] * (p + 1))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


class SolvedProblem:
    def __init__(self, geometry_doc, mode, config, initial="transfinite"):
        t0 = time.perf_counter()
        self.config = config
        self.geo = parse_geometry(geometry_doc)
        self.topology = self.geo.topology
        bvals = boundary_values_from_faces(self.topology, self.geo.boundary_data)
        self.system = MixedSystem(self.topology, bvals, mode=mode)
        net = transfinite_global(self.system)
        if initial == "folded":
            net = folded_initial_guess(self.system, net)
        self.initial_net = net
        c0 = self.system.net_as_c(net[self.topology.inner_indices])
        self.c, self.report = newton_solve(self.system, c0, config)
        self.wall = time.perf_counter() - t0
        self.control = self.system.full_control_net(self.c)

    def patch_map(self, i=0):
        return self.topology.patch_map(i, self.control)


@pytest.fixture(scope="session")
def lbend_solved():
    """L-bend analog solved once per session in xi-only mode (tight
    tolerance so symmetry checks are meaningful)."""
    return SolvedProblem(build_lbend(), "xi", SolverConfig(newton_tol=1e-10))


@pytest.fixture(scope="session")
def bat_solved():
    """Three-patch bat analog solved once per session from the deliberately
    folded initial guess."""
    return SolvedProblem(build_bat(), "full", SolverConfig(), initial="folded")
