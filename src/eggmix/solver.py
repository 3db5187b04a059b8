"""Schur-complement Jacobian-free Newton-Krylov driver.

The constant auxiliary block is eliminated exactly by one solver on every
topology: static condensation of the coupled mass onto the auxiliary DOFs
that patches share, with banded Kronecker solves on each patch's remaining
DOFs and a dense Cholesky factor of the interface Schur complement, built
once with the system (a single patch has no shared DOFs, so it takes the
plain Kronecker solve); all auxiliary fields are solved in one batched
call. The Schur operator is applied by finite differencing the nonlinear
residual only. GMRES solves the Schur equation right-preconditioned by the
frozen-metric Laplacian of the current iterate (its principal part,
sparse-LU factored once per Newton step), so its stopping test stays on the
true Schur residual. Its relative
tolerance is an Eisenstat-Walker forcing term (choice 2, SISC 17 (1996),
with Kelley's safeguard): ``gmres_tol`` for the first Newton step, then
loose while the residual falls slowly and back down to ``gmres_tol`` in the
fast local phase. A backtracking line search on the residual norm globalizes
the iteration; the probe it accepts becomes the next iterate's state, so its
residual is not evaluated twice.

There is one stopping test, checked at every iterate before any Schur work:
the iterate has converged when ||(R_L, R_N)|| <= ``newton_tol`` * S. The scale
S = ||R_L(d=0, c=0)|| is the linear residual of the boundary net alone (see
:meth:`~eggmix.assembly.MixedSystem.residual_scale`); it depends only on the
boundary data and the discretisation, not on the iterate. Convergence is
therefore always a residual measured at an accepted iterate, never a step
inferred from a possibly failed GMRES solve, and a start that already meets
the test returns after 0 Newton steps (Kelley, Iterative Methods for Linear
and Nonlinear Equations, SIAM 1995, sections 5.2 and 8.2).
"""

from __future__ import annotations

import json
import math
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, StagnationError
from .linalg import gmres
from .mapping import SplineMap, transfinite_initial_guess
from .multipatch import build_topology
from .assembly import MixedSystem

SQRT_EPS = float(np.sqrt(np.finfo(float).eps))

# Eisenstat-Walker choice 2: eta_k = EW_GAMMA (||R_k|| / ||R_k-1||)^EW_ALPHA,
# at most EW_ETA_MAX
EW_GAMMA = 0.9
EW_ALPHA = 2.0
EW_ETA_MAX = 0.9

# backtracking line search: accept nu when ||R_new|| <= (1 - LS_DECREASE nu)
# ||R_old||, else multiply nu by LS_BACKTRACK; give up below LS_MIN_NU
LS_BACKTRACK = 0.5
LS_DECREASE = 1e-4
LS_MIN_NU = 1e-4
# floor of the direction norm in the finite-difference step
FD_FLOOR = 1e-14


@dataclass
class SolverConfig:
    """Tolerances of the Newton-Krylov solve.

    ``newton_tol`` is the stopping test: an iterate has converged when
    ||(R_L, R_N)|| <= newton_tol * S, with S the residual scale of the
    boundary data (``MixedSystem.residual_scale``). ``max_newton`` caps the
    Newton steps. ``gmres_tol`` is the first and the smallest forcing term:
    the relative GMRES tolerance of the first Newton step and the floor of
    every later one (see ``forcing_term``). ``gmres_restart`` and
    ``gmres_max_iter`` bound each GMRES solve. ``verbose`` writes one JSON
    line per Newton step to stderr. The line-search and finite-difference
    constants are module constants (``LS_*``, ``FD_FLOOR``).
    """
    newton_tol: float = 1e-8
    max_newton: int = 50
    gmres_tol: float = 1e-3
    gmres_restart: int = 50
    gmres_max_iter: int = 200
    verbose: bool = False

    def __post_init__(self):
        for name in ("newton_tol", "gmres_tol"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise InputError(f"{name} must be positive and finite, got {v}")
        # at 1 or above GMRES returns the zero step, which reads as converged
        if self.gmres_tol > EW_ETA_MAX:
            raise InputError(f"gmres_tol must lie in (0, {EW_ETA_MAX:g}]")


def fd_epsilon(state_norm: float, dir_norm: float) -> float:
    """Finite-difference step: sqrt(machine eps) * (1 + |state|) / |s|,
    with the direction norm floored."""
    return SQRT_EPS * (1.0 + state_norm) / max(dir_norm, FD_FLOOR)


@dataclass
class SolverReport:
    converged: bool = False
    stagnated: bool = False
    newton_iterations: int = 0
    residual_norms: list = field(default_factory=list)
    step_norms: list = field(default_factory=list)
    nu_values: list = field(default_factory=list)
    gmres_iterations: list = field(default_factory=list)
    gmres_matvecs: list = field(default_factory=list)
    gmres_converged: list = field(default_factory=list)
    gmres_residuals: list = field(default_factory=list)
    forcing_terms: list = field(default_factory=list)
    min_denominators: list = field(default_factory=list)
    rn_evals: int = 0
    line_search_evals: int = 0
    wall_time: float = 0.0
    final_residual: float = np.nan
    levels: list = field(default_factory=list)

    def to_dict(self):
        # wall_time is deliberately left out: solution files must be
        # byte-identical across runs with identical inputs
        out = {
            "converged": bool(self.converged),
            "stagnated": bool(self.stagnated),
            "newton_iterations": self.newton_iterations,
            "residual_norms": [float(v) for v in self.residual_norms],
            "step_norms": [float(v) for v in self.step_norms],
            "nu_values": [float(v) for v in self.nu_values],
            "gmres_iterations": list(self.gmres_iterations),
            "gmres_matvecs": list(self.gmres_matvecs),
            "gmres_converged": [bool(v) for v in self.gmres_converged],
            "gmres_residuals": [float(v) for v in self.gmres_residuals],
            "forcing_terms": [float(v) for v in self.forcing_terms],
            "min_denominators": [float(v) for v in self.min_denominators],
            "rn_evals": self.rn_evals,
            "line_search_evals": self.line_search_evals,
            "final_residual": float(self.final_residual),
        }
        if self.levels:
            out["levels"] = [lv.to_dict() for lv in self.levels]
        return out


class NewtonState:
    """One (d, c) iterate with its residual pieces.

    ``r_n`` and ``min_denominator`` may be passed in when ``eval_RN`` has
    already run at (d, c) (the accepted line-search probe); otherwise they
    are evaluated here. The linear pieces are always recomputed: they are
    per-patch products of univariate factors, cheap next to ``eval_RN``,
    and the Schur right-hand side needs the union moments.
    """

    def __init__(self, system: MixedSystem, d, c, r_n=None,
                 min_denominator=None):
        self.system = system
        self.d = np.asarray(d, dtype=float)
        self.c = np.asarray(c, dtype=float)
        self.rl_tilde = system.eval_RL_tilde(d, c)
        self.r_l = system.reduce_tilde(self.rl_tilde).ravel()
        if r_n is None:
            r_n = system.eval_RN(d, c)
            min_denominator = system.last_min_denominator
        self.r_n = r_n
        self.min_denominator = min_denominator
        self.r_norm = float(np.sqrt(self.r_l @ self.r_l + self.r_n @ self.r_n))
        self.state_norm = float(np.sqrt(self.d @ self.d + self.c @ self.c))


def schur_matvec(system: MixedSystem, state: NewtonState, s):
    """Finite-difference product of the Schur complement with ``s``."""
    s = np.asarray(s, dtype=float)
    q = system.apply_ainv_b(s)
    eps = fd_epsilon(state.state_norm, float(np.linalg.norm(s)))
    rn = system.eval_RN(state.d + eps * q, state.c + eps * s)
    return (rn - state.r_n) / eps


def schur_rhs(system: MixedSystem, state: NewtonState):
    """Right-hand side b - C A^-1 a of the Schur equation.

    A consistent linear part (a ~ 0, i.e. pure solver noise) short-circuits
    the finite-difference term and returns b exactly.
    """
    a = -state.r_l
    b = -state.r_n
    anorm = float(np.linalg.norm(a))
    if anorm <= 1e-12 * max(1.0, float(np.linalg.norm(b))):
        return b
    q = system.ainv_exact(-state.rl_tilde).ravel()
    eps = fd_epsilon(state.state_norm, float(np.linalg.norm(q)))
    rn = system.eval_RN(state.d + eps * q, state.c)
    return b - (rn - state.r_n) / eps


def schur_solve(system: MixedSystem, state: NewtonState, rhs, tol: float,
                config: SolverConfig):
    """Newton step delta_c of the Schur equation S delta_c = rhs.

    GMRES runs on the right-preconditioned operator y -> S P^-1 y, with P
    the frozen-metric Laplacian of the iterate, and delta_c = P^-1 y. Its
    stopping test ||rhs - S delta_c|| <= tol ||rhs|| is therefore on the
    true Schur residual. Returns ``(delta_c, GmresResult)``.
    """
    precond = system.laplace_preconditioner(state.c)
    gm = gmres(lambda y: schur_matvec(system, state, precond(y)), rhs,
               tol=tol, restart=config.gmres_restart,
               max_iter=config.gmres_max_iter)
    return precond(gm.solution), gm


def forcing_term(gmres_tol: float, residual_norms, forcing_terms) -> float:
    """Eisenstat-Walker (choice 2) GMRES tolerance of the next Newton step.

    ``residual_norms`` ends with the current ||R_k|| and ``forcing_terms``
    holds the terms of the steps before it. The first term is ``gmres_tol``;
    then eta_k = gamma (||R_k|| / ||R_k-1||)^alpha, raised to
    gamma eta_k-1^alpha when that exceeds 0.1 (Kelley's safeguard against
    a term falling faster than the residual), and clipped to
    [gmres_tol, EW_ETA_MAX].
    """
    if not forcing_terms:
        return gmres_tol
    eta = EW_GAMMA * (residual_norms[-1] / residual_norms[-2]) ** EW_ALPHA
    safeguard = EW_GAMMA * forcing_terms[-1] ** EW_ALPHA
    if safeguard > 0.1:
        eta = max(eta, safeguard)
    return min(max(eta, gmres_tol), EW_ETA_MAX)


def _line_search(residual_norm_of, r_old: float):
    """Backtracking on the residual norm; returns (nu, new_norm, probes).

    Accepts the first nu with ||R_new|| <= (1 - LS_DECREASE * nu) ||R_old||;
    raises StagnationError below the nu floor LS_MIN_NU.
    """
    nu = 1.0
    probes = 0
    while nu >= LS_MIN_NU:
        r_new = residual_norm_of(nu)
        probes += 1
        if r_new <= (1.0 - LS_DECREASE * nu) * r_old:
            return nu, r_new, probes
        nu *= LS_BACKTRACK
    raise StagnationError(
        f"line search hit nu floor {LS_MIN_NU:g} without decrease "
        f"from ||R|| = {r_old:.3e}")


def newton_solve(system: MixedSystem, initial, config: SolverConfig | None = None):
    """Run the Newton-Krylov iteration.

    ``initial`` is a SplineMap (single patch; its inner control points seed
    the iteration and receive the solution on success) or an inner
    coefficient array. Returns ``(c_final, report)`` with c in the flat
    (x..., y...) layout. Bijectivity of the start is not required. Raises
    InputError when the residual scale is zero (all boundary points
    coincide).
    """
    config = config or SolverConfig()
    target_map = initial if isinstance(initial, SplineMap) else None
    if target_map is not None:
        c = system.net_as_c(target_map.control[target_map.inner_indices])
    else:
        c = np.asarray(initial, dtype=float)
        if c.shape == (system.n_inner, 2):
            c = system.net_as_c(c)
    c = c.copy()
    scale = system.residual_scale()
    if scale == 0.0:
        raise InputError("all boundary points coincide: the residual scale "
                         "of the boundary data is zero")
    r_tol = config.newton_tol * scale
    d = system.project_d(c)

    report = SolverReport()
    rn0 = system.rn_eval_count
    t0 = time.perf_counter()
    converged = False
    state = NewtonState(system, d, c)

    for it in range(config.max_newton + 1):
        report.residual_norms.append(state.r_norm)
        report.min_denominators.append(state.min_denominator)
        converged = state.r_norm <= r_tol
        if converged or it == config.max_newton:
            break
        eta = forcing_term(config.gmres_tol, report.residual_norms,
                           report.forcing_terms)
        report.forcing_terms.append(eta)
        rhs = schur_rhs(system, state)
        delta_c, gm = schur_solve(system, state, rhs, eta, config)
        delta_d = system.solve_delta_d(-state.rl_tilde, delta_c)
        n_norm = float(np.sqrt(delta_d @ delta_d + delta_c @ delta_c))
        report.newton_iterations = it + 1
        report.step_norms.append(n_norm)
        report.gmres_iterations.append(gm.iterations)
        report.gmres_matvecs.append(gm.matvec_count)
        report.gmres_converged.append(bool(gm.converged))
        r0 = gm.residual_norms[0]
        gmres_residual = gm.residual_norms[-1] / r0 if r0 > 0.0 else 0.0
        report.gmres_residuals.append(gmres_residual)
        if config.verbose:
            print(json.dumps({
                "newton_iteration": it + 1, "residual_norm": state.r_norm,
                "step_norm": n_norm, "gmres_iterations": gm.iterations,
                "gmres_converged": bool(gm.converged),
                "gmres_residual": gmres_residual, "forcing_term": eta,
                "min_denominator": state.min_denominator,
                "rn_evals": system.rn_eval_count - rn0}, sort_keys=True),
                file=sys.stderr)

        probe = {}

        def trial_norm(nu):
            rl = system.eval_RL(d + nu * delta_d,
                                c + nu * delta_c)
            rn = system.eval_RN(d + nu * delta_d, c + nu * delta_c)
            # the accepted probe is the last one: it becomes the next state
            probe.update(r_n=rn, min_denominator=system.last_min_denominator)
            return float(np.sqrt(rl @ rl + rn @ rn))

        try:
            nu, _, probes = _line_search(trial_norm, state.r_norm)
        except StagnationError as exc:
            report.rn_evals = system.rn_eval_count - rn0
            report.wall_time = time.perf_counter() - t0
            report.final_residual = state.r_norm
            report.stagnated = True
            raise StagnationError(str(exc), report=report, state=(d, c),
                                  system=system) from None
        report.line_search_evals += probes
        report.nu_values.append(nu)
        d = d + nu * delta_d
        c = c + nu * delta_c
        state = NewtonState(system, d, c, **probe)

    report.converged = converged
    report.rn_evals = system.rn_eval_count - rn0
    report.wall_time = time.perf_counter() - t0
    report.final_residual = state.r_norm
    if converged and target_map is not None:
        target_map.control[target_map.inner_indices] = system.c_as_net(c)
    return c, report


# -- initial guesses -----------------------------------------------------------

def transfinite_global(system: MixedSystem):
    """Control-net transfinite (Coons) interior on every patch, by
    :func:`~eggmix.mapping.transfinite_initial_guess`.

    Interface curves, which are unknowns, get straight-segment placeholders
    between their endpoint values (domain centroid when an endpoint is itself
    interior, e.g. an extraordinary vertex). Returns the full control net.
    """
    topo = system.topology
    net = system._template.copy()
    known = np.zeros(topo.n_sigma, dtype=bool)
    known[topo.boundary_indices] = True
    centroid = net[topo.boundary_indices].mean(axis=0)

    for itf in topo.interfaces:
        tb = topo.bases[itf.patch_a]
        gl = topo.sig_l2g[itf.patch_a][tb.face_indices(itf.face_a)]
        for g in (gl[0], gl[-1]):
            if not known[g]:
                net[g] = centroid
                known[g] = True
    for itf in topo.interfaces:
        tb = topo.bases[itf.patch_a]
        gl = topo.sig_l2g[itf.patch_a][tb.face_indices(itf.face_a)]
        ratios = tb.face_knotvector(itf.face_a).greville
        v0, v1 = net[gl[0]], net[gl[-1]]
        for g, r in zip(gl[1:-1], ratios[1:-1]):
            if not known[g]:
                net[g] = (1.0 - r) * v0 + r * v1
                known[g] = True

    # every face of a patch is now known, and a patch's inner DOFs belong
    # to that patch alone
    for p, tb in enumerate(topo.bases):
        net[topo.sig_l2g[p][tb.inner_indices]] = transfinite_initial_guess(
            topo.patch_map(p, net))
    return net


def folded_initial_guess(system: MixedSystem, c_full=None):
    """Deliberately folded start: mirror the interior x-coordinates across
    the vertical line through the boundary centroid, reversing the interior
    orientation relative to the fixed boundary."""
    topo = system.topology
    net = (transfinite_global(system) if c_full is None
           else np.array(c_full, dtype=float))
    cx = net[topo.boundary_indices, 0].mean()
    net[topo.inner_indices, 0] = 2.0 * cx - net[topo.inner_indices, 0]
    return net


# -- coarse-to-fine continuation -------------------------------------------------

@dataclass
class HierarchyLevel:
    system: MixedSystem
    prolong: object = None  # callable net_coarse -> net_fine, None at level 0


def _refined_topology(topo):
    patches = list(zip(topo.bar_bases, topo.maps))
    return build_topology(patches, topo.interfaces)


def _prolong_net(topo_c, topo_f, prolongations, net):
    """Fine control net from a coarse one: each global fine DOF takes its
    value from the first (patch, local index) that holds it."""
    fine = np.concatenate([P @ net[l2g] for P, l2g
                           in zip(prolongations, topo_c.sig_l2g)])
    dofs, first = np.unique(np.concatenate(topo_f.sig_l2g), return_index=True)
    out = np.zeros((topo_f.n_sigma, 2))
    out[dofs] = fine[first]
    return out


def build_system_hierarchy(topology, boundary_values, levels: int, *,
                           mode="full", chi=0.5, mu=1e-4):
    """Nested systems from ``levels`` global refinements of a root topology.

    The root is the coarsest level; boundary data refines exactly through the
    prolongation (clamped edge rows only mix edge coefficients).
    """
    out = [HierarchyLevel(MixedSystem(topology, boundary_values,
                                      mode=mode, chi=chi, mu=mu))]
    topo = topology
    for _ in range(levels):
        # the auxiliary bases of a topology are the global h-refinement of
        # its primal bases, so they are the next level's primal bases
        prol = topo.bar_prolongations
        topo_f = _refined_topology(topo)
        net_f = _prolong_net(topo, topo_f, prol, out[-1].system._template)
        sysf = MixedSystem(topo_f, net_f[topo_f.boundary_indices],
                           mode=mode, chi=chi, mu=mu)

        def make_prolong(tc, tf, pr):
            return lambda net: _prolong_net(tc, tf, pr, net)

        out.append(HierarchyLevel(sysf, make_prolong(topo, topo_f, prol)))
        topo = topo_f
    return out


def coarse_to_fine_solve(hierarchy, initial, config: SolverConfig | None = None):
    """Solve coarse-to-fine, prolonging only the c-component and recomputing
    the auxiliary part by L2 projection at each level.

    Returns ``(c_final, report)`` on the finest level; per-level reports are
    collected in ``report.levels``.
    """
    config = config or SolverConfig()
    t0 = time.perf_counter()
    c = initial
    reports = []
    for k, level in enumerate(hierarchy):
        if k > 0:
            net = hierarchy[k - 1].system.full_control_net(c)
            net_f = level.prolong(net)
            c = level.system.net_as_c(net_f[level.system.topology.inner_indices])
        c, rep = newton_solve(level.system, c, config)
        reports.append(rep)
    final = reports[-1]
    out = SolverReport(
        converged=all(r.converged for r in reports),
        newton_iterations=sum(r.newton_iterations for r in reports),
        residual_norms=final.residual_norms,
        step_norms=final.step_norms,
        nu_values=final.nu_values,
        gmres_iterations=final.gmres_iterations,
        gmres_matvecs=final.gmres_matvecs,
        gmres_converged=final.gmres_converged,
        gmres_residuals=final.gmres_residuals,
        forcing_terms=final.forcing_terms,
        min_denominators=final.min_denominators,
        rn_evals=sum(r.rn_evals for r in reports),
        line_search_evals=sum(r.line_search_evals for r in reports),
        wall_time=time.perf_counter() - t0,
        final_residual=final.final_residual,
        levels=reports)
    return c, out
