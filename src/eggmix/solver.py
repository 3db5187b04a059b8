"""Schur-complement Jacobian-free Newton-Krylov driver.

The constant auxiliary block is eliminated exactly by one solver on every
topology: static condensation of the coupled mass onto the auxiliary DOFs
that patches share, with Kronecker solves on each patch's remaining DOFs
(two dense products with the inverses of the univariate mass factors) and
a dense Cholesky factor of the interface Schur complement, built once with
the system (a single patch has no shared DOFs, so it takes the plain
Kronecker solve); all auxiliary fields are solved in one batched call. The
Schur operator is applied by finite differencing the nonlinear residual
only. GMRES, one Krylov cycle of at most ``gmres_max_iter`` iterations,
solves the Schur equation right-preconditioned by the frozen-metric
Laplacian of the current iterate (its principal part, factored
once per Newton step by banded Cholesky in a bandwidth-reducing order fixed
once per system), so its stopping test stays on the true Schur residual. Its
relative tolerance is an Eisenstat-Walker forcing term (choice 2, SISC 17
(1996), with Kelley's safeguard): loose while the residual falls slowly and
back down to ``gmres_tol`` in the fast local phase. The first term measures
the start's residual against the residual scale S below in place of a
previous norm, so a cold start is solved loosely and a warm restart, whose
residual is far below S, to ``gmres_tol``. A backtracking line search on the
residual norm globalizes the iteration; the probe it accepts becomes the
next iterate's state, so its residual is not evaluated twice.

There is one stopping test, checked at every iterate before any Schur work:
the iterate has converged when ||(R_L, R_N)|| <= ``newton_tol`` * S. The scale
S = ||R_L(d=0, c=0)|| is the linear residual of the boundary net alone (see
:meth:`~eggmix.assembly.MixedSystem.residual_scale`); it depends only on the
boundary data and the discretisation, not on the iterate. Convergence is
therefore always a residual measured at an accepted iterate, never a step
inferred from a possibly failed GMRES solve, and a start that already meets
the test returns after 0 Newton steps (Kelley, Iterative Methods for Linear
and Nonlinear Equations, SIAM 1995, sections 5.2 and 8.2).

A solve that does not converge is not an error: ``newton_solve`` returns the
last accepted iterate with a report that says why it stopped (the step
limit, or a line search without descent). ``build_system_hierarchy`` builds
the nested systems of a coarse-to-fine solve; the level loop that runs
``newton_solve`` on them is :func:`eggmix.io_cli.solve`, the one entry of
the command line and the library.
"""

from __future__ import annotations

import json
import math
import numbers
import sys
import time
from dataclasses import dataclass, field, fields

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
    Newton steps. ``gmres_tol`` is the smallest forcing term: the floor of
    the relative GMRES tolerance of every Newton step, met by the first step
    of a warm restart and by the steps near the solution (see
    ``forcing_term``). ``gmres_max_iter`` bounds the iterations of each
    GMRES solve, one Krylov cycle; it and ``max_newton`` are integers of at
    least 1. ``verbose`` writes one JSON line per Newton step to stderr,
    with the seconds of each entry of ``TIMED_PHASES`` and the step's own
    ``eval_RN`` calls (``rn_evals``). The line-search and
    finite-difference constants are module constants
    (``LS_*``, ``FD_FLOOR``).
    """
    newton_tol: float = 1e-8
    max_newton: int = 50
    gmres_tol: float = 1e-3
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
        for name in ("max_newton", "gmres_max_iter"):
            v = getattr(self, name)
            # bool is an Integral too
            if isinstance(v, bool) or not isinstance(v, numbers.Integral) or v < 1:
                raise InputError(f"{name} must be an integer of at least 1, got {v!r}")


def fd_epsilon(state_norm: float, dir_norm: float) -> float:
    """Finite-difference step: sqrt(machine eps) * (1 + |state|) / |s|,
    with the direction norm floored."""
    return SQRT_EPS * (1.0 + state_norm) / max(dir_norm, FD_FLOOR)


# the fields a multi-level report takes from its last level
LAST_LEVEL_FIELDS = ("converged", "stagnated", "final_residual")
# the seconds of a Newton step that SolverReport.timings sums: three
# consecutive phases, then two kernels that run inside them and between them
TIMED_PHASES = ("precond_s", "gmres_s", "line_search_s", "residual_s", "mass_solve_s")


@dataclass
class SolverReport:
    """Why a Newton-Krylov solve stopped and what it cost.

    A solve that stops short of the tolerance has ``converged`` False, with
    ``stagnated`` True when the line search found no descent along its last
    step and False when ``max_newton`` ran out. ``residual_norms`` and
    ``min_denominators`` hold one entry per iterate, the other lists one per
    Newton step; ``gmres_iterations`` are also the Schur matvecs of each
    GMRES solve, and ``rn_evals`` counts ``eval_RN`` calls. ``timings`` sums
    the seconds of each entry of ``TIMED_PHASES`` over the Newton steps:
    the preconditioner build, the GMRES solve and the line search, then the
    seconds spent in ``eval_RN`` (``residual_s``) and in the exact mass
    solve (``mass_solve_s``, :meth:`~eggmix.assembly.MixedSystem.ainv_exact`)
    during the steps. The last two overlap the first three: the residual
    runs in every GMRES matvec and line-search probe, the mass solve in
    every matvec and in the Schur right-hand side and the delta_d recovery
    around GMRES. A solve over several levels reports in the form of
    :meth:`merge`.
    """
    converged: bool = False
    stagnated: bool = False
    newton_iterations: int = 0
    residual_norms: list = field(default_factory=list)
    step_norms: list = field(default_factory=list)
    nu_values: list = field(default_factory=list)
    gmres_iterations: list = field(default_factory=list)
    gmres_converged: list = field(default_factory=list)
    gmres_residuals: list = field(default_factory=list)
    forcing_terms: list = field(default_factory=list)
    min_denominators: list = field(default_factory=list)
    rn_evals: int = 0
    line_search_evals: int = 0
    wall_time: float = 0.0
    timings: dict = field(default_factory=lambda: dict.fromkeys(TIMED_PHASES, 0.0))
    final_residual: float = np.nan
    levels: list = field(default_factory=list)

    @classmethod
    def merge(cls, reports):
        """The report of a solve that ran ``reports`` in turn, one per level:
        every list concatenated over the levels, ``LAST_LEVEL_FIELDS`` from
        the last level, every other field summed (``timings`` phase by
        phase), and the reports themselves in ``levels``. A single report is its own merge."""
        if len(reports) == 1:
            return reports[0]
        merged = {}
        for f in fields(cls):
            values = [getattr(r, f.name) for r in reports]
            if f.name == "levels":
                merged[f.name] = list(reports)
            elif f.name in LAST_LEVEL_FIELDS:
                merged[f.name] = values[-1]
            elif isinstance(values[0], list):
                merged[f.name] = [v for vs in values for v in vs]
            elif isinstance(values[0], dict):
                merged[f.name] = {k: sum(v[k] for v in values) for k in values[0]}
            else:
                merged[f.name] = sum(values)
        return cls(**merged)

    def to_dict(self):
        """Every field as plain JSON values (numpy scalars as Python ones),
        and ``levels`` as the dicts of the level reports when there are
        any. ``wall_time`` and ``timings`` are left out: solution files
        must be byte-identical across runs with identical inputs."""
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "levels":
                if value:
                    out[f.name] = [lv.to_dict() for lv in value]
            elif f.name not in ("wall_time", "timings"):
                out[f.name] = ([_plain(v) for v in value]
                               if isinstance(value, list) else _plain(value))
        return out


def _plain(value):
    """A numpy scalar as the Python value it holds; any other value as is."""
    return value.item() if isinstance(value, np.generic) else value


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
                config: SolverConfig, precond):
    """Newton step delta_c of the Schur equation S delta_c = rhs.

    GMRES runs on the right-preconditioned operator y -> S P^-1 y, with
    ``precond`` applying P^-1 (P the frozen-metric Laplacian of the iterate,
    ``system.laplace_preconditioner(state.c)``), and delta_c = P^-1 y. Its
    stopping test ||rhs - S delta_c|| <= tol ||rhs|| is therefore on the
    true Schur residual. Returns ``(delta_c, GmresResult)``.
    """
    gm = gmres(lambda y: schur_matvec(system, state, precond(y)), rhs,
               tol=tol, max_iter=config.gmres_max_iter)
    return precond(gm.solution), gm


def forcing_term(gmres_tol: float, scale: float, residual_norms,
                 forcing_terms) -> float:
    """Eisenstat-Walker (choice 2) GMRES tolerance of the next Newton step.

    ``residual_norms`` ends with the current ||R_k|| and ``forcing_terms``
    holds the terms of the steps before it. eta_k = gamma (||R_k|| /
    ||R_k-1||)^alpha, raised to gamma eta_k-1^alpha when that exceeds 0.1
    (Kelley's safeguard against a term falling faster than the residual),
    and clipped to [gmres_tol, EW_ETA_MAX]. The first term has no previous
    norm and takes the residual scale S = ``scale`` of the boundary data in
    its place: a cold start (||R_0|| near S) is solved loosely, as Eisenstat
    and Walker and Kelley start the sequence, while a warm restart
    (||R_0|| << S) keeps ``gmres_tol``, so it gains no Newton steps.
    """
    if not forcing_terms:
        eta = EW_GAMMA * (residual_norms[-1] / scale) ** EW_ALPHA
    else:
        eta = EW_GAMMA * (residual_norms[-1] / residual_norms[-2]) ** EW_ALPHA
        safeguard = EW_GAMMA * forcing_terms[-1] ** EW_ALPHA
        if safeguard > 0.1:
            eta = max(eta, safeguard)
    return min(max(eta, gmres_tol), EW_ETA_MAX)


def _line_search(residual_norm_of, r_old: float):
    """Backtracking on the residual norm; returns (nu, new_norm, probes).

    Accepts the first nu with ||R_new|| <= (1 - LS_DECREASE * nu) ||R_old||;
    raises StagnationError below the nu floor LS_MIN_NU, which
    ``newton_solve`` reports as a stagnated solve.
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
    (x..., y...) layout: the converged iterate, or the last accepted one
    when the solve stagnates or runs out of ``max_newton`` steps (see
    :class:`SolverReport`). Bijectivity of the start is not required.
    Raises InputError when the residual scale is zero (all boundary points
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
        eta = forcing_term(config.gmres_tol, scale, report.residual_norms,
                           report.forcing_terms)
        report.forcing_terms.append(eta)
        rn_count, rn_s, mass_s = (system.rn_eval_count, system.rn_eval_s,
                                  system.mass_solve_s)
        rhs = schur_rhs(system, state)
        t_precond = time.perf_counter()
        precond = system.laplace_preconditioner(state.c)
        t_gmres = time.perf_counter()
        delta_c, gm = schur_solve(system, state, rhs, eta, config, precond)
        t_gmres_end = time.perf_counter()
        delta_d = system.solve_delta_d(-state.rl_tilde, delta_c)
        n_norm = float(np.sqrt(delta_d @ delta_d + delta_c @ delta_c))
        report.newton_iterations = it + 1
        report.step_norms.append(n_norm)
        report.gmres_iterations.append(gm.iterations)
        report.gmres_converged.append(bool(gm.converged))
        r0 = gm.residual_norms[0]
        gmres_residual = gm.residual_norms[-1] / r0 if r0 > 0.0 else 0.0
        report.gmres_residuals.append(gmres_residual)
        probe = {}

        def trial_norm(nu):
            rl = system.eval_RL(d + nu * delta_d,
                                c + nu * delta_c)
            rn = system.eval_RN(d + nu * delta_d, c + nu * delta_c)
            # the accepted probe is the last one: it becomes the next state
            probe.update(r_n=rn, min_denominator=system.last_min_denominator)
            return float(np.sqrt(rl @ rl + rn @ rn))

        t_search = time.perf_counter()
        try:
            nu, _, probes = _line_search(trial_norm, state.r_norm)
        except StagnationError:
            # no descent along this step: the last accepted iterate stands
            nu = None
        step_timings = {"precond_s": t_gmres - t_precond,
                        "gmres_s": t_gmres_end - t_gmres,
                        "line_search_s": time.perf_counter() - t_search,
                        "residual_s": system.rn_eval_s - rn_s,
                        "mass_solve_s": system.mass_solve_s - mass_s}
        for phase, seconds in step_timings.items():
            report.timings[phase] += seconds
        if config.verbose:
            print(json.dumps({
                "newton_iteration": it + 1, "residual_norm": state.r_norm,
                "step_norm": n_norm, "gmres_iterations": gm.iterations,
                "gmres_converged": bool(gm.converged),
                "gmres_residual": gmres_residual, "forcing_term": eta,
                "min_denominator": state.min_denominator,
                "rn_evals": system.rn_eval_count - rn_count, **step_timings},
                sort_keys=True),
                file=sys.stderr)
        if nu is None:
            report.stagnated = True
            break
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


# -- nested hierarchy ----------------------------------------------------------

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

    The root is the coarsest level, and ``levels`` = 0 gives the root
    system alone; boundary data refines exactly through the prolongation
    (clamped edge rows only mix edge coefficients). Only the levels below
    the finest read their topology's ``bar_prolongations``, so a direct
    solve forms none.
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
