#!/usr/bin/env python3
"""Solve the three-patch bat sample from a deliberately folded initial guess
and export SVG isoline plots of the initial and final maps.

Usage: python scripts/run_bat.py [outdir]
"""

import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from eggmix.assembly import boundary_values_from_faces  # noqa: E402
from eggmix.io_cli import _write_svg, parse_geometry, solve  # noqa: E402
from eggmix.geometries import build_bat  # noqa: E402
from eggmix.mapping import sampled_bijectivity  # noqa: E402
from eggmix.solver import (  # noqa: E402
    SolverConfig, build_system_hierarchy, folded_initial_guess)


def main():
    outdir = pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else pathlib.Path(".")
    outdir.mkdir(parents=True, exist_ok=True)
    geo = parse_geometry(build_bat())
    topo = geo.topology
    bvals = boundary_values_from_faces(topo, geo.boundary_data)
    hierarchy = build_system_hierarchy(topo, bvals, 0, mode="full")

    net0 = folded_initial_guess(hierarchy[0].system)
    maps0 = [topo.patch_map(i, net0) for i in range(topo.n_patches)]
    folds = sum(sampled_bijectivity(m, 5).fold_count for m in maps0)
    print(f"initial guess     : {folds} folded samples across "
          f"{topo.n_patches} patches")
    _write_svg(outdir / "bat_initial.svg", maps0, 3)

    t0 = time.perf_counter()
    system, c, rep = solve(hierarchy, "folded", SolverConfig())
    print(f"newton iterations : {rep.newton_iterations}")
    print(f"R_N evaluations   : {rep.rn_evals}")
    print(f"final ||R||       : {rep.final_residual:.3e}")
    print(f"solve time        : {time.perf_counter() - t0:.2f} s")

    control = system.full_control_net(c)
    maps = [topo.patch_map(i, control) for i in range(topo.n_patches)]
    for i, m in enumerate(maps):
        bij = sampled_bijectivity(m, 5)
        print(f"patch {i}           : min det J {bij.min_detj:.4f}  "
              f"folds {bij.fold_count}")
    _write_svg(outdir / "bat_solved.svg", maps, 3)
    print(f"wrote {outdir / 'bat_initial.svg'} and {outdir / 'bat_solved.svg'}")


if __name__ == "__main__":
    main()
