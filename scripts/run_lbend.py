#!/usr/bin/env python3
"""Solve the L-bend sample (xi-only auxiliary mode), compare the resulting
Winslow energy against a projected gradient descent started from the solved
map, and export an SVG isoline plot.

Usage: python scripts/run_lbend.py [outdir]
"""

import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from eggmix.assembly import boundary_values_from_faces  # noqa: E402
from eggmix.io_cli import _write_svg, parse_geometry, solve  # noqa: E402
from eggmix.geometries import build_lbend  # noqa: E402
from eggmix.mapping import sampled_bijectivity, winslow, winslow_descent  # noqa: E402
from eggmix.solver import SolverConfig, build_system_hierarchy  # noqa: E402


def main():
    outdir = pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else pathlib.Path(".")
    outdir.mkdir(parents=True, exist_ok=True)
    geo = parse_geometry(build_lbend())
    bvals = boundary_values_from_faces(geo.topology, geo.boundary_data)
    hierarchy = build_system_hierarchy(geo.topology, bvals, 0, mode="xi")

    t0 = time.perf_counter()
    system, c, rep = solve(hierarchy, "transfinite", SolverConfig(newton_tol=1e-10))
    t_solve = time.perf_counter() - t0
    print(f"newton iterations : {rep.newton_iterations}")
    print(f"R_N evaluations   : {rep.rn_evals}")
    print(f"final ||R||       : {rep.final_residual:.3e}")
    print(f"solve time        : {t_solve:.2f} s")

    m = geo.topology.patch_map(0, system.full_control_net(c))
    bij = sampled_bijectivity(m, 5)
    print(f"min det J (5x5)   : {bij.min_detj:.4f}  folds: {bij.fold_count}")
    C = m.net()
    sym = np.abs(C - C[::-1][:, :, ::-1]).max()
    print(f"mirror asymmetry  : {sym:.2e}")

    w_mf = winslow(m)
    c_w, info = winslow_descent(m, max_iter=300)
    m_w = m.copy()
    m_w.control[m.inner_indices] = c_w
    w_w = winslow(m_w)
    print(f"winslow (solve)   : {w_mf:.6f}")
    print(f"winslow (descent) : {w_w:.6f}  ({info['iterations']} iterations)")
    print(f"relative gap      : {(w_mf - w_w) / w_w * 100:.4f} %")

    out = outdir / "lbend.svg"
    _write_svg(out, [m], 4)
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
