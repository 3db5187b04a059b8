"""Eisenstat-Walker forcing terms for the Schur GMRES and the reuse of the
accepted line-search probe as the next Newton state."""

import json

import numpy as np
import pytest

import eggmix.solver
from eggmix.assembly import MixedSystem, boundary_values_from_faces
from eggmix.geometries import build_bat, build_lbend, build_quarter_annulus
from eggmix.io_cli import parse_geometry, solve
from eggmix.solver import EW_ALPHA, EW_ETA_MAX, EW_GAMMA, GMRES_TOL, \
    NewtonState, SolverConfig, build_system_hierarchy, forcing_term, \
    newton_solve

from conftest import start


def test_forcing_term_rule():
    scale = 2.0
    # the stopping test newton_tol * S: the final safeguard 0.5 r_tol / ||R_k||
    # stays below GMRES_TOL in every case until the last block
    r_tol = 1e-8 * scale
    # first Newton step: choice 2 with the residual scale S as the previous
    # norm; a cold start (||R_0|| near S) is clipped at 0.9
    assert forcing_term(scale, r_tol, [5.0], []) == EW_ETA_MAX == 0.9
    assert forcing_term(scale, r_tol, [2.0], []) == EW_ETA_MAX
    # in between: 0.9 (0.5 / 2)^2
    assert forcing_term(scale, r_tol, [0.5], []) == pytest.approx(0.9 / 16)
    # a warm restart (||R_0|| << S) keeps GMRES_TOL
    assert forcing_term(scale, r_tol, [2e-3], []) == GMRES_TOL
    # choice 2: 0.9 (||R_k|| / ||R_k-1||)^2, whatever S is
    assert forcing_term(scale, r_tol, [1.0, 0.5], [GMRES_TOL]) == \
        pytest.approx(0.9 * 0.25)
    # safeguard: 0.9 * 0.5^2 = 0.225 > 0.1 lifts 0.9 * 0.1^2 = 0.009
    assert forcing_term(scale, r_tol, [1.0, 0.1], [0.5]) == pytest.approx(0.225)
    # no safeguard once 0.9 eta_k-1^2 <= 0.1
    assert forcing_term(scale, r_tol, [1.0, 0.1], [0.3]) == pytest.approx(0.009)
    # clipped below at GMRES_TOL and above at 0.9
    assert forcing_term(scale, r_tol, [1.0, 1e-4], [0.3]) == GMRES_TOL
    assert forcing_term(scale, r_tol, [1.0, 2.0], [GMRES_TOL]) == EW_ETA_MAX
    assert forcing_term(scale, r_tol, [1.0, 1.0], [0.9]) == EW_ETA_MAX
    # while 0.5 r_tol / ||R_k|| <= GMRES_TOL the final safeguard changes no
    # term: each equals the term without it (r_tol = 0)
    for norms, terms in [([5.0], []), ([0.5], []), ([1e-5], []),
                         ([1.0, 0.5], [GMRES_TOL]), ([1.0, 0.1], [0.5]),
                         ([1.0, 0.1], [0.3]), ([1.0, 1e-4], [0.3]),
                         ([1e-3, 1e-5], [0.3])]:
        assert 0.5 * r_tol / norms[-1] <= GMRES_TOL
        assert forcing_term(scale, r_tol, norms, terms) == \
            forcing_term(scale, 0.0, norms, terms)
    # the final safeguard raises a small term to 0.5 r_tol / ||R_k||: here
    # choice 2 gives 0.9 (1e-6 / 1e-3)^2 = 9e-7 and GMRES_TOL 1e-3, against
    # 0.5 * 2e-8 / 1e-6 = 0.01
    assert forcing_term(scale, r_tol, [1e-3, 1e-6], [0.3]) == \
        pytest.approx(0.01)
    # ... on the first step too: 0.5 * 2e-8 / 4e-8 = 0.25
    assert forcing_term(scale, r_tol, [4e-8], []) == pytest.approx(0.25)
    # and never above 0.9, even for a residual already below r_tol
    assert forcing_term(scale, r_tol, [1e-3, 1e-8], [0.3]) == EW_ETA_MAX
    assert forcing_term(scale, r_tol, [1e-8], []) == EW_ETA_MAX


@pytest.mark.parametrize("solved", ["bat_solved", "lbend_solved"])
def test_gmres_meets_forcing_terms(solved, request):
    problem = request.getfixturevalue(solved)
    rep = problem.report
    cfg = problem.config
    assert rep.converged and all(rep.gmres_converged)
    assert len(rep.forcing_terms) == rep.newton_iterations
    # the first term measures ||R_0|| against the residual scale S
    scale = problem.system.residual_scale()
    first = EW_GAMMA * (rep.residual_norms[0] / scale) ** EW_ALPHA
    assert rep.forcing_terms[0] == min(EW_ETA_MAX, max(GMRES_TOL, first))
    assert all(GMRES_TOL <= eta <= EW_ETA_MAX for eta in rep.forcing_terms)
    assert all(r <= eta for r, eta in zip(rep.gmres_residuals, rep.forcing_terms))
    # the step that ends the solve takes choice 2 with Kelley's first
    # safeguard, raised by the final one to 0.5 r_tol / ||R_n-1||
    norms, terms = rep.residual_norms, rep.forcing_terms
    ew = EW_GAMMA * (norms[-2] / norms[-3]) ** EW_ALPHA
    if EW_GAMMA * terms[-2] ** EW_ALPHA > 0.1:
        ew = max(ew, EW_GAMMA * terms[-2] ** EW_ALPHA)
    final = 0.5 * cfg.newton_tol * scale / norms[-2]
    assert terms[-1] == min(EW_ETA_MAX, max(GMRES_TOL, ew, final))
    # so it is not solved to GMRES_TOL, far below the stopping test
    assert terms[-1] > 10 * GMRES_TOL
    # and the folded phase is not either
    assert max(rep.forcing_terms) > 10 * GMRES_TOL


# geometry, mode, level, folded start, Newton steps, most GMRES iterations
@pytest.mark.parametrize("builder, mode, level, folded, newton, gmres", [
    (build_bat, "full", 0, True, 10, 21),
    (build_lbend, "xi", 1, False, 7, 26),
])
def test_final_safeguard_counts(builder, mode, level, folded, newton, gmres):
    # the step that ends the solve is not solved far below the stopping
    # test: fewer GMRES iterations, and no Newton step more
    geo = parse_geometry(builder())
    bv = boundary_values_from_faces(geo.topology, geo.boundary_data)
    system = build_system_hierarchy(geo.topology, bv, level, mode=mode)[-1].system
    cfg = SolverConfig()
    _, rep = newton_solve(system, start(system, folded=folded), cfg)
    assert rep.converged and all(rep.gmres_converged)
    assert rep.newton_iterations == newton
    assert sum(rep.gmres_iterations) <= gmres
    assert rep.final_residual <= cfg.newton_tol * system.residual_scale()


def perturbed_boundary(doc, rel=5e-4):
    """``doc`` with every unglued face bent along its chord normal by a
    half sine of amplitude ``rel`` times the face's polygon length; the face
    ends stay exact."""
    out = json.loads(json.dumps(doc))
    for patch in out["patches"]:
        for face, pts in patch.get("boundary", {}).items():
            pts = np.asarray(pts, dtype=float)
            chord = pts[-1] - pts[0]
            normal = np.array([-chord[1], chord[0]]) / np.linalg.norm(chord)
            length = np.linalg.norm(np.diff(pts, axis=0), axis=1).sum()
            bend = rel * length * np.sin(np.pi * np.linspace(0.0, 1.0, len(pts)))
            patch["boundary"][face] = (pts + bend[:, None] * normal).tolist()
    return out


def doc_system(doc, mode):
    geo = parse_geometry(doc)
    bv = boundary_values_from_faces(geo.topology, geo.boundary_data)
    return MixedSystem(geo.topology, bv, mode=mode)


# geometry, mode, Newton steps and GMRES per step of the warm restart, and
# its rn_evals: the counts of the GMRES_TOL first term
@pytest.mark.parametrize("builder, mode, newton, gmres, rn_evals", [
    (build_lbend, "xi", 2, [5, 6], 14),
    (build_bat, "full", 2, [5, 5], 13),
])
def test_warm_restart_first_term_is_gmres_tol(builder, mode, newton, gmres,
                                              rn_evals):
    doc = builder()
    system = doc_system(doc, mode)
    c, rep = newton_solve(system, start(system), SolverConfig())
    assert rep.converged
    # the converged net of the boundary bent by about 0.05%
    warm = doc_system(perturbed_boundary(doc), mode)
    _, rep = newton_solve(warm, c, SolverConfig())
    assert rep.converged and all(rep.gmres_converged)
    assert rep.residual_norms[0] < 0.02 * warm.residual_scale()
    assert rep.forcing_terms[0] == GMRES_TOL
    assert rep.newton_iterations == newton
    assert rep.gmres_iterations == gmres
    assert rep.rn_evals == rn_evals


def test_bat_refined_folded_converges_without_capped_gmres():
    geo = parse_geometry(build_bat())
    bv = boundary_values_from_faces(geo.topology, geo.boundary_data)
    system = build_system_hierarchy(geo.topology, bv, 1)[-1].system
    c, rep = newton_solve(system, start(system, folded=True), SolverConfig())
    assert rep.converged and all(rep.gmres_converged)
    assert rep.newton_iterations <= 15
    assert sum(rep.gmres_iterations) <= 60


def test_accepted_probe_state_matches_fresh_state(monkeypatch):
    geo = parse_geometry(build_bat())
    bv = boundary_values_from_faces(geo.topology, geo.boundary_data)
    system = MixedSystem(geo.topology, bv)
    states = []

    class Recorded(NewtonState):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            states.append((self, bool(kwargs)))

    rl_calls = []
    eval_rl_tilde = system.eval_RL_tilde

    def counted(d, c):
        rl_calls.append(1)
        return eval_rl_tilde(d, c)

    monkeypatch.setattr(eggmix.solver, "NewtonState", Recorded)
    monkeypatch.setattr(system, "eval_RL_tilde", counted)
    c, rep = newton_solve(system, start(system, folded=True), SolverConfig())
    assert rep.converged
    # one state evaluated from scratch, then one accepted probe per step
    assert [reused for _, reused in states] == \
        [False] + [True] * len(rep.nu_values)
    # the linear residual is evaluated once per line-search probe and once
    # for the start, not again for the state an accepted probe becomes
    assert len(rl_calls) == rep.line_search_evals + 1
    for state, _ in states[1:]:
        fresh = NewtonState(system, state.d, state.c)
        np.testing.assert_array_equal(state.rl_tilde, fresh.rl_tilde)
        np.testing.assert_array_equal(state.r_l, fresh.r_l)
        np.testing.assert_array_equal(state.r_n, fresh.r_n)
        assert state.r_norm == fresh.r_norm
        assert state.min_denominator == fresh.min_denominator
    assert rep.min_denominators == [s.min_denominator for s, _ in states]


def test_forcing_terms_reported(capsys):
    geo = parse_geometry(build_quarter_annulus())
    bv = boundary_values_from_faces(geo.topology, geo.boundary_data)
    hier = build_system_hierarchy(geo.topology, bv, 1)
    cfg = SolverConfig(verbose=True)
    _, c, rep = solve(hier, "transfinite", cfg)
    assert rep.converged
    fine = rep.levels[-1]
    assert len(fine.forcing_terms) == fine.newton_iterations
    # a multi-level report concatenates its levels' lists
    assert rep.forcing_terms == [eta for lv in rep.levels
                                 for eta in lv.forcing_terms]
    d = rep.to_dict()
    assert d["forcing_terms"] == rep.forcing_terms
    assert [lv["forcing_terms"] for lv in d["levels"]] == \
        [lv.forcing_terms for lv in rep.levels]
    assert "wall_time" not in d
    lines = [json.loads(ln) for ln in capsys.readouterr().err.splitlines()]
    assert [ln["forcing_term"] for ln in lines] == \
        [eta for lv in rep.levels for eta in lv.forcing_terms]
