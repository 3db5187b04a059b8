"""Per-layer metrics derived from one traced repetition.

Every value comes from spans recorded by :mod:`tracing` or from counters
the program already keeps (``MixedSystem.rn_eval_count``,
``KronSolver.solve_count``, ``GmresResult``, ``SolverReport``). Times are in
seconds unless the name says otherwise; counts are ints. "incl" is a span's
whole duration, "self" its duration minus its direct children.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

import numpy as np

def _by_name(tracer):
    spans = tracer.spans
    self_t = tracer.self_times()
    incl = defaultdict(float)
    slf = defaultdict(float)
    calls = defaultdict(int)
    for (name, start, end, _), s in zip(spans, self_t):
        incl[name] += end - start
        slf[name] += s
        calls[name] += 1
    return incl, slf, calls, self_t


def derive(tracer, traced_wall):
    """Metrics of one traced repetition (plus record-only extras)."""
    spans = tracer.spans
    incl, slf, calls, self_t = _by_name(tracer)

    rn_ms, line_search, initial_guess, restart_load = [], 0.0, 0.0, 0.0
    guesses = ("solver.transfinite_global", "solver.folded_initial_guess")
    for name, start, end, parent in spans:
        parent_name = spans[parent][0] if parent >= 0 else None
        if name == "assembly.eval_RN":
            rn_ms.append(1e3 * (end - start))
        if name in ("assembly.eval_RL", "assembly.eval_RN") \
                and parent_name == "solver.newton_solve":
            line_search += end - start
        elif name in guesses and parent_name not in guesses:
            initial_guess += end - start
        elif name in ("io_cli.load_solution", "io_cli.solution_system") \
                and parent_name == "io_cli.main:solve":
            restart_load += end - start
    reports = tracer.reports
    gm = tracer.gmres_results
    probes = sum(r.line_search_evals for r in reports)
    accepted = sum(len(r.nu_values) for r in reports)
    out = {
        "io_cli.parse_s": slf["io_cli.load_geometry"] + slf["io_cli.parse_geometry"]
        + slf["io_cli.load_solution"],
        "io_cli.post_s": incl["io_cli.solution_document"],
        "io_cli.write_s": incl["io_cli.write_solution"] + incl["io_cli.write_vtk"]
        + incl["io_cli.write_svg"] + incl["io_cli.write_csv"],
        "multipatch.topology_s": incl["multipatch.build_topology"],
        "multipatch.restriction_s": incl["multipatch.build_restriction"],
        "assembly.systems_built": len(tracer.systems),
        "assembly.system_build_s": slf["assembly.system_build"],
        "assembly.quadrature_s": incl["assembly.build_quadrature"],
        "assembly.eval_rn_calls": calls["assembly.eval_RN"],
        "assembly.eval_rn_s": incl["assembly.eval_RN"],
        "assembly.eval_rn_ms.p50": float(np.percentile(rn_ms, 50)),
        "assembly.eval_rn_ms.p99": float(np.percentile(rn_ms, 99)),
        "assembly.eval_rl_s": incl["assembly.eval_RL"],
        "assembly.mass_solve_calls": calls["assembly.ainv_exact"],
        "assembly.mass_solve_s": incl["assembly.ainv_exact"],
        "linalg.kron_block_solves": sum(ctx.kron.solve_count for s in tracer.systems
                                        for ctx in s.patches),
        "linalg.kron_s": incl["linalg.kron_solve_block"],
        "linalg.gmres_calls": len(gm),
        "linalg.gmres_iters": sum(g.iterations for g in gm),
        "linalg.gmres_unconverged": sum(not g.converged for g in gm),
        "linalg.gmres_self_s": slf["linalg.gmres"],
        "solver.newton_iters": sum(r.newton_iterations for r in reports),
        "solver.rn_evals": sum(r.rn_evals for r in reports),
        "solver.newton_s": incl["solver.newton_solve"],
        "solver.line_search_probes": probes,
        "solver.probe_accept_ratio": accepted / probes if probes else 1.0,
        "solver.line_search_s": line_search,
        "solver.schur_matvec_self_s": slf["solver.schur_matvec"],
        "solver.initial_guess_s": initial_guess,
        "mapping.bijectivity_s": incl["mapping.sampled_bijectivity"],
        "mapping.winslow_s": incl["mapping.winslow"],
    }
    extras = {
        "io_cli.restart_load_s": restart_load,
        "assembly.rn_eval_count": sum(s.rn_eval_count for s in tracer.systems),
        "trace.self_sum_s": float(sum(self_t)),
        "trace.residue_s": traced_wall - float(sum(self_t)),
        "trace.spans": len(spans),
    }
    return out, extras


def combine(reps):
    """(metrics, extras, counts_repeat) over the traced repetitions: the
    median of each time; counts as measured in the first repetition, with
    whether every repetition matched them exactly."""
    metrics = {}
    repeat = True
    for name in reps[0][0]:
        values = [r[0][name] for r in reps]
        if isinstance(values[0], int):
            repeat = repeat and len(set(values)) == 1
            metrics[name] = values[0]
        else:
            metrics[name] = float(statistics.median(values))
    extra = {name: float(statistics.median(r[1][name] for r in reps))
             for name in reps[0][1]}
    return metrics, extra, repeat


def self_time_table(tracer, traced_wall):
    """Calls, inclusive and self seconds and self share per span name, over
    the last traced repetition, largest self time first."""
    incl, slf, calls, _ = _by_name(tracer)
    rows = [{"span": n, "calls": calls[n], "incl_s": incl[n], "self_s": slf[n],
             "self_share": slf[n] / traced_wall} for n in incl]
    return sorted(rows, key=lambda r: -r["self_s"])
