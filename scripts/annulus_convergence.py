#!/usr/bin/env python3
"""h-refinement study on the quarter annulus, whose inverse-harmonic map is
known in closed form: prints the interior L2 error and observed order per
level for p = 2 and p = 3.

Usage: python scripts/annulus_convergence.py
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from eggmix.assembly import boundary_values_from_faces  # noqa: E402
from eggmix.io_cli import parse_geometry, solve  # noqa: E402
from eggmix.geometries import build_quarter_annulus, exact_annulus_map  # noqa: E402
from eggmix.solver import SolverConfig, build_system_hierarchy  # noqa: E402


def l2_error(topology, control):
    m = topology.patch_map(0, control)
    pts, wts = m.basis.kv_xi.gauss_grid(6)
    X = m.grid_jet(pts, pts, 0)["x"]
    exact = exact_annulus_map(pts[:, None] * np.ones_like(pts)[None, :],
                              np.ones_like(pts)[:, None] * pts[None, :])
    err2 = ((X - exact) ** 2).sum(-1)
    return float(np.sqrt(np.sum(wts[:, None] * wts[None, :] * err2)))


def main():
    for p in (2, 3):
        print(f"degree p = {p}")
        prev = None
        for ne in (4, 8, 16, 32):
            geo = parse_geometry(build_quarter_annulus(p, ne))
            bvals = boundary_values_from_faces(geo.topology, geo.boundary_data)
            system, c, rep = solve(build_system_hierarchy(geo.topology, bvals, 0),
                                   "transfinite", SolverConfig(newton_tol=1e-10))
            err = l2_error(geo.topology, system.full_control_net(c))
            order = "" if prev is None else f"  order {np.log2(prev / err):.2f}"
            print(f"  {ne:3d}x{ne:<3d} elements: newton {rep.newton_iterations}"
                  f"  L2 error {err:.3e}{order}")
            prev = err
        print()


if __name__ == "__main__":
    main()
