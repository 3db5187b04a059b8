#!/usr/bin/env python3
"""Newton-Krylov counts and solve times over the baseline case table.

Each case runs in a fresh single-threaded child process, so that its peak
RSS (``resource.getrusage``) is its own. A solve case runs ``newton_solve``
with the default ``SolverConfig`` and records the primal DOF count,
Newton/GMRES/``rn_evals`` counts, whether every GMRES solve converged, the
seconds of the solved system's construction (``MixedSystem.__init__``), the
solve wall time, the mean milliseconds per call of ``MixedSystem.eval_RN``
(the nonlinear residual), of ``MixedSystem.laplace_preconditioner``
(frozen-metric Laplacian assembly and factorisation), of
``MixedSystem.eval_RL_tilde`` (the linear residual) and of
``MixedSystem.apply_ainv_b`` (the exact auxiliary-mass solve behind every
Schur matvec) inside that solve, the first and the last Newton step's
forcing term (its relative GMRES tolerance) and the GMRES iterations of the
last step, which show whether the step that ends the solve is oversolved,
the seconds of each phase that ``SolverReport.timings`` sums
(preconditioner build, GMRES, line search), and the peak RSS. A restart
case solves from the transfinite start and then runs ``newton_solve`` again
from the converged net, recording the Newton/GMRES/``rn_evals`` counts of
that second solve and the same forcing terms, last-step GMRES iterations
and phase seconds (None and zeros when it takes no step), so that a restart
that iterates on roundoff shows. A coarse-to-fine case solves a hierarchy
with ``eggmix.io_cli.solve`` from a start on its coarsest level, the path
``eggmix solve --coarse-levels`` takes, and records the totals and, per
level, the same counts, per-call times, forcing terms, last-step GMRES
iterations and phase seconds as a solve case. A setup case times
``build_system_hierarchy``, within it the construction and the mass-solver
build of the finest system (``assembly._CondensedMass``: interior Kronecker
factors, the factored interface Schur complement and the layout and work
arrays of the solve, which before that class were built on the first solve
and so left out of ``mass_build_s``), and then the
first-use pair tables and band layout of the frozen Laplacian
(``MixedSystem._laplacian_factors``) of the finest system, which on a
fresh system first builds the residual's plans (``MixedSystem._plans``),
whose scratch it works in, next to the DOF
count, the interface DOF count, the element count, the number of entries
in the band that K's couplings fill (its lower triangle) and the
bandwidth. A kernel case builds the finest system of a hierarchy at its start
iterate, without solving, and records the median milliseconds over repeated
calls of ``eval_RN``, ``eval_RL_tilde``, ``apply_ainv_b``, ``ainv_exact``
(the coupled mass solve of every field alone, on the derivative moments of
the start net) and of the preconditioner in three parts: the assembly of K
(``frozen_laplacian``, timed right after ``eval_RN`` at the same iterate,
so that it takes the metric that call left behind, the path every Newton
step takes), the factor (the ``laplace_preconditioner`` build given the
band that assembly returned, which it factors in place) and one apply to
both components;
``build_plus_six_applies_ms`` adds the three as one Newton step of six
GMRES iterations pays them, and ``laplacian_factors_ms`` is the one-time
set-up of the Laplacian's tables and band layout
(``MixedSystem._laplacian_factors``), the median over fresh systems on the
same topology whose residual plans are built first, as in a solve, timed
after the peak RSS is read. The post-processing case
solves each bundled geometry once, untimed, from the transfinite start in
the mode of its file, and then records per geometry the median
milliseconds over repeated calls of what the commands pay around the
solve: loading a solution file into
per-patch maps (``load_solution`` and ``solution_patch_maps``), the
quality block (``_quality_block``), the solution document
(``solution_document``), its write (``write_solution``) and the VTK, SVG
and CSV exports (``_write_vtk`` and ``_write_csv`` with their sampling,
``_write_svg``), with the bytes each write leaves. The system set-up
case records, for every bundled geometry in the mode of its file and for
the L-bend in xi mode once refined, the median milliseconds over
``FRESH_SYSTEMS`` fresh systems of ``MixedSystem.__init__``, of the
first build of the residual's plans (``MixedSystem._plans``), of the
frozen Laplacian's one-time tables and band layout
(``MixedSystem._laplacian_factors``) and of their sum: the quadrature and
table-build layer of a command. It also records the median microseconds
over ``COLLOCATION_CALLS`` calls of collocating every distinct primal
knot vector of the system with first derivatives on the
Gauss points of its bisection (``KnotVector.collocation``).

Usage: python scripts/bench.py [--out FILE]

Without ``--out`` the JSON goes to stdout. Counts repeat exactly between
runs; times depend on the machine and its load.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import resource
import subprocess
import sys
import tempfile
import time

import numpy as np
import scipy

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from eggmix.assembly import MixedSystem, _CondensedMass, \
    boundary_values_from_faces  # noqa: E402
from eggmix.geometries import BUILDERS  # noqa: E402
from eggmix.geometries import load as load_bundled  # noqa: E402
from eggmix.io_cli import _quality_block, _sample_patch, _write_csv, \
    _write_svg, _write_vtk, load_solution, parse_geometry, solution_document, \
    solution_patch_maps, solve, write_solution  # noqa: E402
from eggmix.solver import SolverConfig, build_system_hierarchy, \
    folded_initial_guess, newton_solve, transfinite_global  # noqa: E402

# key -> (geometry, mode, h-refinement level, folded start)
CASES = {
    "quarter_annulus-L0": ("quarter_annulus", "full", 0, False),
    "quarter_annulus-L1": ("quarter_annulus", "full", 1, False),
    "quarter_annulus-L2": ("quarter_annulus", "full", 2, False),
    "lbend-xi-L0": ("lbend", "xi", 0, False),
    "lbend-xi-L1": ("lbend", "xi", 1, False),
    "tube-xi-L0": ("tube", "xi", 0, False),
    "bat-folded-L0": ("bat", "full", 0, True),
    "bat-folded-L1": ("bat", "full", 1, True),
}
# key -> (geometry, mode, h-refinement level)
RESTART_CASES = {
    "square-restart": ("square", "full", 0),
    "quarter_annulus-restart": ("quarter_annulus", "full", 0),
    "lbend-xi-restart": ("lbend", "xi", 0),
    "lbend-xi-L1-restart": ("lbend", "xi", 1),
    "tube-xi-restart": ("tube", "xi", 0),
    "two_patch_square-restart": ("two_patch_square", "full", 0),
    "bat-restart": ("bat", "full", 0),
}
# key -> (geometry, mode, finest h-refinement level, folded start)
COARSE_TO_FINE_CASES = {
    "bat-folded-L2-c2f": ("bat", "full", 2, True),
    "bat-folded-L3-c2f": ("bat", "full", 3, True),
}
# key -> (geometry, mode, h-refinement level)
SETUP_CASES = {
    "bat-L2-setup": ("bat", "full", 2),
    "bat-L3-setup": ("bat", "full", 3),
}
# key -> (geometry, mode, h-refinement level, folded start, calls timed)
KERNEL_CASES = {
    "lbend-xi-L0-kernels": ("lbend", "xi", 0, False, 200),
    "bat-folded-L0-kernels": ("bat", "full", 0, True, 200),
    "lbend-xi-L1-kernels": ("lbend", "xi", 1, False, 40),
    "bat-folded-L2-kernels": ("bat", "full", 2, True, 20),
    "bat-folded-L3-kernels": ("bat", "full", 3, True, 5),
}
# fresh systems a kernel case times the Laplacian's set-up on, at most
FRESH_SYSTEMS = 10
# calls the system set-up case times the collocation of a system's knot
# vectors over
COLLOCATION_CALLS = 200
# key -> calls timed per step and geometry
POST_CASES = {"post-L0": 20}
# key -> the (geometry, mode, h-refinement level) systems whose one-time
# set-up is timed: every bundled geometry in the mode of its file, and the
# L-bend once refined
SYSTEM_SETUP_CASES = {"setup-L0": [
    (name, load_bundled(name)["solver"]["mode"], 0) for name in sorted(BUILDERS)]
    + [("lbend", "xi", 1)]}
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1"}


def machine():
    """The machine and library versions a table was measured with."""
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__, **PINNED}


def hierarchy_of(name, mode, level):
    geo = parse_geometry(BUILDERS[name]())
    bv = boundary_values_from_faces(geo.topology, geo.boundary_data)
    return build_system_hierarchy(geo.topology, bv, level, mode=mode)


def start_iterate(system, folded):
    """Transfinite start of ``system``, folded if asked."""
    net = transfinite_global(system)
    if folded:
        net = folded_initial_guess(system, net)
    return system.net_as_c(net[system.topology.inner_indices])


def start_system(name, mode, level, folded):
    """Finest system of a hierarchy and its start iterate."""
    system = hierarchy_of(name, mode, level)[-1].system
    return system, start_iterate(system, folded)


def time_calls(owner, name, seconds):
    """Shadow the method ``name`` of ``owner`` (a system, or a class) by a
    wrapper that appends each call's wall time to ``seconds``."""
    method = getattr(owner, name)

    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        out = method(*args, **kwargs)
        seconds.append(time.perf_counter() - t0)
        return out
    setattr(owner, name, timed)


def mean_ms(seconds):
    return 1e3 * sum(seconds) / len(seconds) if seconds else None


def forcing_and_timings(rep):
    """The first and the last forcing term of a report, the GMRES iterations
    of its last Newton step (None each without a Newton step) and its phase
    seconds."""
    steps = bool(rep.forcing_terms)
    return {"first_forcing_term": rep.forcing_terms[0] if steps else None,
            "last_forcing_term": rep.forcing_terms[-1] if steps else None,
            "last_step_gmres": rep.gmres_iterations[-1] if steps else None,
            "timings": dict(rep.timings)}


def last_step(records):
    """The last forcing term and last-step GMRES iterations of each record,
    as printed in the stderr table ("-" without a Newton step)."""
    return " ".join("-" if r["last_forcing_term"] is None else
                    f"{r['last_forcing_term']:.3g}/{r['last_step_gmres']}"
                    for r in records)


def phases(r):
    return " ".join(f"{k} {v:.3f}" for k, v in r["timings"].items())


def run_case(key):
    """Solve one case in this process; returns its record."""
    build_s = []
    time_calls(MixedSystem, "__init__", build_s)
    system, c0 = start_system(*CASES[key])
    rn_s, precond_s, rl_s, ainv_s = [], [], [], []
    time_calls(system, "eval_RN", rn_s)
    time_calls(system, "laplace_preconditioner", precond_s)
    time_calls(system, "eval_RL_tilde", rl_s)
    time_calls(system, "apply_ainv_b", ainv_s)
    t0 = time.perf_counter()
    _, rep = newton_solve(system, c0, SolverConfig())
    solve_s = time.perf_counter() - t0
    return {
        "n_sigma": system.topology.n_sigma,
        "converged": bool(rep.converged),
        "newton": rep.newton_iterations,
        "gmres": int(sum(rep.gmres_iterations)),
        "rn_evals": rep.rn_evals,
        "gmres_all_converged": all(rep.gmres_converged),
        "max_gmres_per_step": max(rep.gmres_iterations),
        **forcing_and_timings(rep),
        # the solved system is the finest, built last
        "system_build_s": build_s[-1],
        "solve_s": solve_s,
        "eval_rn_ms": mean_ms(rn_s),
        "laplace_preconditioner_ms": mean_ms(precond_s),
        "eval_rl_ms": mean_ms(rl_s),
        "apply_ainv_b_ms": mean_ms(ainv_s),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def run_coarse_to_fine_case(key):
    """Solve one hierarchy coarse-to-fine in this process; returns its
    record with one entry per level."""
    name, mode, level, folded = COARSE_TO_FINE_CASES[key]
    hierarchy = hierarchy_of(name, mode, level)
    timers = []
    for lv in hierarchy:
        timers.append(([], []))
        time_calls(lv.system, "eval_RN", timers[-1][0])
        time_calls(lv.system, "laplace_preconditioner", timers[-1][1])
    t0 = time.perf_counter()
    _, _, rep = solve(hierarchy, "folded" if folded else "transfinite",
                      SolverConfig())
    solve_s = time.perf_counter() - t0
    levels = [{
        "n_sigma": lv.system.topology.n_sigma,
        "converged": bool(r.converged),
        "newton": r.newton_iterations,
        "gmres": int(sum(r.gmres_iterations)),
        "rn_evals": r.rn_evals,
        "gmres_all_converged": all(r.gmres_converged),
        "eval_rn_ms": mean_ms(rn_s),
        "laplace_preconditioner_ms": mean_ms(precond_s),
        **forcing_and_timings(r),
    } for lv, r, (rn_s, precond_s) in zip(hierarchy, rep.levels, timers)]
    return {
        "n_sigma": levels[-1]["n_sigma"],
        "converged": bool(rep.converged),
        "newton": rep.newton_iterations,
        "gmres": int(sum(rep.gmres_iterations)),
        "rn_evals": rep.rn_evals,
        "solve_s": solve_s,
        "timings": dict(rep.timings),
        "levels": levels,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def run_restart_case(key):
    """Solve one case, then restart from its converged net, in this
    process; returns the restart's record."""
    system, c0 = start_system(*RESTART_CASES[key], False)
    c, rep = newton_solve(system, c0, SolverConfig())
    if not rep.converged:
        raise SystemExit(f"bench: {key} did not converge before the restart")
    t0 = time.perf_counter()
    c_restart, rep = newton_solve(system, c, SolverConfig())
    solve_s = time.perf_counter() - t0
    return {
        "n_sigma": system.topology.n_sigma,
        "converged": bool(rep.converged),
        "stagnated": bool(rep.stagnated),
        "newton": rep.newton_iterations,
        "gmres": int(sum(rep.gmres_iterations)),
        "rn_evals": rep.rn_evals,
        "max_net_change": float(np.abs(c_restart - c).max()),
        "solve_s": solve_s,
        **forcing_and_timings(rep),
    }


def run_setup_case(key):
    """Build one hierarchy and its finest pattern in this process; returns
    its record."""
    name, mode, level = SETUP_CASES[key]
    geo = parse_geometry(BUILDERS[name]())
    bv = boundary_values_from_faces(geo.topology, geo.boundary_data)
    build_s, mass_s = [], []
    time_calls(MixedSystem, "__init__", build_s)
    time_calls(_CondensedMass, "__init__", mass_s)
    t0 = time.perf_counter()
    system = build_system_hierarchy(geo.topology, bv, level, mode=mode)[-1].system
    t1 = time.perf_counter()
    lf = system._laplacian_factors
    t2 = time.perf_counter()
    # ru_maxrss is in KiB on Linux; read before the count below allocates
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    filled = np.zeros((lf.bandwidth + 1) * system.n_inner + 1, dtype=bool)
    filled[lf.places] = True
    return {
        "n_sigma": system.topology.n_sigma,
        "n_gamma": len(system._mass.gamma),
        "n_elements": sum(ctx.cache.n_el for ctx in system.patches),
        # the band slots K's entries are summed into, the slot past the
        # band (dropped entries) left out
        "band_entries": int(np.count_nonzero(filled[:-1])),
        "bandwidth": lf.bandwidth,
        "hierarchy_s": t1 - t0,
        # the finest system is built last
        "system_build_s": build_s[-1],
        "mass_build_s": mass_s[-1],
        "laplacian_factors_s": t2 - t1,
        "peak_rss_mb": peak_rss_mb,
    }


def run_kernel_case(key):
    """Time the residual and preconditioner kernels of one system in this
    process; returns its record."""
    name, mode, level, folded, calls = KERNEL_CASES[key]
    system, c0 = start_system(name, mode, level, folded)
    d0 = system.project_d(c0)
    y = np.random.default_rng(0).standard_normal(system.c_size)
    moments = system._derivative_moments(system._flat_net(c0))
    K = system.frozen_laplacian(c0)  # builds the Laplacian's factors and layout
    # the preconditioner build without the assembly of K: the factor alone,
    # in place on the band the timed frozen_laplacian call before it returned
    system.frozen_laplacian = lambda c: K
    times = {k: [] for k in ("eval_rn_ms", "frozen_laplacian_ms", "precond_factor_ms",
                             "precond_apply_ms", "eval_rl_ms", "apply_ainv_b_ms",
                             "ainv_exact_ms")}
    for _ in range(calls):
        t0 = time.perf_counter()
        system.eval_RN(d0, c0)
        t1 = time.perf_counter()
        K = MixedSystem.frozen_laplacian(system, c0)
        t2 = time.perf_counter()
        precond = system.laplace_preconditioner(c0)
        t3 = time.perf_counter()
        precond(y)
        t4 = time.perf_counter()
        system.eval_RL_tilde(d0, c0)
        t5 = time.perf_counter()
        system.apply_ainv_b(c0)
        t6 = time.perf_counter()
        system.ainv_exact(moments)
        t7 = time.perf_counter()
        for k, t, u in zip(times, (t0, t1, t2, t3, t4, t5, t6),
                           (t1, t2, t3, t4, t5, t6, t7)):
            times[k].append(u - t)
    ms = {k: 1e3 * float(np.median(v)) for k, v in times.items()}
    # ru_maxrss is in KiB on Linux; read before the fresh systems below
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    boundary = system._template[system.topology.boundary_indices]
    setup_s = []
    for _ in range(min(calls, FRESH_SYSTEMS)):
        fresh = MixedSystem(system.topology, boundary, mode=mode)
        fresh._plans
        t0 = time.perf_counter()
        fresh._laplacian_factors
        setup_s.append(time.perf_counter() - t0)
    return {
        "n_sigma": system.topology.n_sigma,
        "calls": calls,
        **ms,
        "build_plus_six_applies_ms": ms["frozen_laplacian_ms"] + ms["precond_factor_ms"]
        + 6 * ms["precond_apply_ms"],
        "laplacian_factors_ms": 1e3 * float(np.median(setup_s)),
        "peak_rss_mb": peak_rss_mb,
    }


def median_ms(fn, calls):
    """Median milliseconds of ``calls`` calls of ``fn()``."""
    seconds = []
    for _ in range(calls):
        t0 = time.perf_counter()
        fn()
        seconds.append(time.perf_counter() - t0)
    return 1e3 * float(np.median(seconds))


def run_post_case(key):
    """Time the post-processing of one solve of every bundled geometry in
    this process; returns its record."""
    calls = POST_CASES[key]
    geometries = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(BUILDERS):
            doc = load_bundled(name)
            mode = doc["solver"]["mode"]
            system, c, rep = solve(hierarchy_of(name, mode, 0), "transfinite",
                                   SolverConfig())
            settings = {"mode": mode, "mu": system.mu, "chi": system.chi,
                        "coarse_levels": 0}
            paths = {k: os.path.join(tmp, f"{name}.{k}")
                     for k in ("solution.json", "vtk", "svg", "csv")}
            sol = solution_document(doc, system, c, rep, settings)
            write_solution(paths["solution.json"], sol)
            maps = solution_patch_maps(load_solution(paths["solution.json"]))[1]
            r = {
                "load_maps_ms": median_ms(lambda: solution_patch_maps(
                    load_solution(paths["solution.json"])), calls),
                "quality_ms": median_ms(lambda: _quality_block(maps), calls),
                "document_ms": median_ms(lambda: solution_document(
                    doc, system, c, rep, settings), calls),
                "write_solution_ms": median_ms(lambda: write_solution(
                    paths["solution.json"], sol), calls),
                "vtk_ms": median_ms(lambda: _write_vtk(
                    paths["vtk"], [_sample_patch(m, 4) for m in maps]), calls),
                "svg_ms": median_ms(lambda: _write_svg(paths["svg"], maps, 4),
                                    calls),
                "csv_ms": median_ms(lambda: _write_csv(
                    paths["csv"], [_sample_patch(m, 4) for m in maps]), calls),
            }
            # a multipatch VTK export writes one file per patch
            vtk_files = [paths["vtk"]] if len(maps) == 1 else \
                [os.path.join(tmp, f"{name}_p{i}.vtk") for i in range(len(maps))]
            size = os.path.getsize
            r.update(solution_bytes=size(paths["solution.json"]),
                     vtk_bytes=sum(map(size, vtk_files)),
                     svg_bytes=size(paths["svg"]), csv_bytes=size(paths["csv"]))
            geometries[name] = {"n_patches": len(maps),
                                "converged": bool(rep.converged), **r}
    return {"calls": calls, "geometries": geometries,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def run_system_setup_case(key):
    """Time the one-time set-up of fresh systems in this process; returns
    its record, one entry per system of ``SYSTEM_SETUP_CASES``."""
    systems = {}
    for name, mode, level in SYSTEM_SETUP_CASES[key]:
        # the hierarchy's own systems warm every first-use path up
        system = hierarchy_of(name, mode, level)[-1].system
        boundary = system._template[system.topology.boundary_indices]
        seconds = []
        for _ in range(FRESH_SYSTEMS):
            t0 = time.perf_counter()
            fresh = MixedSystem(system.topology, boundary, mode=mode)
            t1 = time.perf_counter()
            fresh._plans
            t2 = time.perf_counter()
            fresh._laplacian_factors
            seconds.append((t1 - t0, t2 - t1, time.perf_counter() - t2))
        init, plans, factors = (1e3 * np.array(s) for s in zip(*seconds))
        # every distinct primal knot vector, collocated with first
        # derivatives on the Gauss points of its bisection, as the
        # quadrature tables and the samplers of the post-processing do
        knots = {(kv.degree, kv.knots.tobytes()): kv for tb in system.topology.bases
                 for kv in (tb.kv_xi, tb.kv_eta)}
        grids = [(kv, kv.bisected().gauss_grid(kv.degree + 1)[0]) for kv in knots.values()]
        systems[name if level == 0 else f"{name}-{mode}-L{level}"] = {
            "mode": mode, "level": level, "n_sigma": system.topology.n_sigma,
            "init_ms": float(np.median(init)), "plans_ms": float(np.median(plans)),
            "laplacian_factors_ms": float(np.median(factors)),
            "setup_ms": float(np.median(init + plans + factors)),
            "collocation_us": 1e3 * median_ms(
                lambda: [kv.collocation(pts, 1) for kv, pts in grids], COLLOCATION_CALLS)}
    return {"fresh_systems": FRESH_SYSTEMS, "systems": systems,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


RUNNERS = {**dict.fromkeys(CASES, run_case),
           **dict.fromkeys(COARSE_TO_FINE_CASES, run_coarse_to_fine_case),
           **dict.fromkeys(RESTART_CASES, run_restart_case),
           **dict.fromkeys(SETUP_CASES, run_setup_case),
           **dict.fromkeys(KERNEL_CASES, run_kernel_case),
           **dict.fromkeys(POST_CASES, run_post_case),
           **dict.fromkeys(SYSTEM_SETUP_CASES, run_system_setup_case)}


def run_child(key):
    env = dict(os.environ, **PINNED)
    proc = subprocess.run([sys.executable, __file__, "--child", key], env=env,
                          capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"bench: case {key} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=pathlib.Path)
    ap.add_argument("--child", choices=sorted(RUNNERS), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        print(json.dumps(RUNNERS[args.child](args.child)))
        return

    cases = {}
    for key in CASES:
        cases[key] = run_child(key)
        r = cases[key]
        print(f"{key:24s} {r['newton']:3d}/{r['gmres']:4d}/{r['rn_evals']:4d} "
              f"build {r['system_build_s']:6.3f} s {r['solve_s']:7.2f} s  "
              f"eval_RN {r['eval_rn_ms']:7.2f} ms  "
              f"precond {r['laplace_preconditioner_ms']:7.2f} ms  "
              f"R_L {r['eval_rl_ms']:6.3f} ms  A^-1 B {r['apply_ainv_b_ms']:6.2f} ms "
              f"{r['peak_rss_mb']:7.1f} MB  eta0 {r['first_forcing_term']:.3g}  "
              f"last eta/gmres {last_step([r])}  {phases(r)}", file=sys.stderr)
    for key in COARSE_TO_FINE_CASES:
        cases[key] = run_child(key)
        r = cases[key]
        print(f"{key:24s} {r['newton']:3d}/{r['gmres']:4d}/{r['rn_evals']:4d} "
              f"{r['solve_s']:7.2f} s  finest: eval_RN "
              f"{r['levels'][-1]['eval_rn_ms']:7.2f} ms  precond "
              f"{r['levels'][-1]['laplace_preconditioner_ms']:7.2f} ms "
              f"{r['peak_rss_mb']:7.1f} MB  last eta/gmres per level "
              f"{last_step(r['levels'])}  {phases(r)}", file=sys.stderr)
    for key in RESTART_CASES:
        cases[key] = run_child(key)
        r = cases[key]
        print(f"{key:24s} {r['newton']:3d}/{r['gmres']:4d}/{r['rn_evals']:4d} "
              f"{r['solve_s']:7.2f} s  net change {r['max_net_change']:.1e}  "
              f"last eta/gmres {last_step([r])}"
              f"{'  stagnated' if r['stagnated'] else ''}",
              file=sys.stderr)
    for key in SETUP_CASES:
        cases[key] = run_child(key)
        r = cases[key]
        print(f"{key:24s} {r['hierarchy_s']:7.2f} (finest {r['system_build_s']:5.3f}, "
              f"mass {r['mass_build_s']:5.3f}) "
              f"+ {r['laplacian_factors_s']:5.2f} s  band {r['band_entries']} entries, "
              f"bandwidth {r['bandwidth']} {r['peak_rss_mb']:7.1f} MB", file=sys.stderr)
    for key in KERNEL_CASES:
        cases[key] = run_child(key)
        r = cases[key]
        print(f"{key:24s} eval_RN {r['eval_rn_ms']:7.2f} ms  K "
              f"{r['frozen_laplacian_ms']:7.2f} ms  factor "
              f"{r['precond_factor_ms']:7.2f} ms  apply {r['precond_apply_ms']:6.2f} ms  "
              f"R_L {r['eval_rl_ms']:6.3f} ms  A^-1 B {r['apply_ainv_b_ms']:6.2f} ms "
              f"A^-1 {r['ainv_exact_ms']:6.2f} ms  K set-up "
              f"{r['laplacian_factors_ms']:6.2f} ms {r['peak_rss_mb']:7.1f} MB",
              file=sys.stderr)
    for key in POST_CASES:
        cases[key] = run_child(key)
        for name, r in cases[key]["geometries"].items():
            print(f"{key:8s} {name:16s} load {r['load_maps_ms']:6.2f}  quality "
                  f"{r['quality_ms']:6.2f}  document {r['document_ms']:6.2f}  "
                  f"write {r['write_solution_ms']:6.2f} ({r['solution_bytes']} B)  "
                  f"vtk {r['vtk_ms']:6.2f} ({r['vtk_bytes']} B)  svg "
                  f"{r['svg_ms']:6.2f} ({r['svg_bytes']} B)  csv "
                  f"{r['csv_ms']:6.2f} ms ({r['csv_bytes']} B)", file=sys.stderr)
    for key in SYSTEM_SETUP_CASES:
        cases[key] = run_child(key)
        for name, r in cases[key]["systems"].items():
            print(f"{key:8s} {name:16s} {r['mode']:4s} L{r['level']}  init "
                  f"{r['init_ms']:6.3f}  plans {r['plans_ms']:6.3f}  K set-up "
                  f"{r['laplacian_factors_ms']:6.3f}  sum {r['setup_ms']:6.3f} ms  "
                  f"collocation {r['collocation_us']:6.1f} us",
                  file=sys.stderr)
    doc = {"machine": machine(), "cases": cases}
    text = json.dumps(doc, indent=1)
    if args.out:
        args.out.write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


if __name__ == "__main__":
    main()
