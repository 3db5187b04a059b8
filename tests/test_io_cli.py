import json
import math
import os
import pathlib
import stat

import numpy as np
import pytest

import eggmix.io_cli
from eggmix.io_cli import SOLVER_KEYS, SOLVER_RANGES, load_solution, main, \
    parse_geometry, solution_patch_maps, solution_system, svg_isolines, \
    validate_geometry
from eggmix.geometries import BUILDERS, build_square, build_two_patch_square, \
    load as load_bundled, path as bundled_path
from eggmix.errors import InputError
from eggmix.mapping import SplineMap

from oracles import per_line_svg_isolines, per_point_svg_points, \
    per_point_vtk_text, two_pass_quality_block, two_pass_quality_text

DATA = pathlib.Path(__file__).resolve().parent / "data"
RESTART = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "restart"
RESTART_SOLUTIONS = sorted(RESTART.glob("*.solution.json"))


def run_cli(*args):
    return main([str(a) for a in args])


@pytest.fixture(scope="session")
def square_solution(tmp_path_factory):
    out = tmp_path_factory.mktemp("sol") / "square.solution.json"
    code = run_cli("solve", bundled_path("square"), "--out", out)
    assert code == 0
    return out


@pytest.fixture(scope="session")
def lbend_solution(tmp_path_factory):
    out = tmp_path_factory.mktemp("sol") / "lbend.solution.json"
    code = run_cli("solve", bundled_path("lbend"), "--mode", "xi",
                   "--out", out, "--tol", "1e-10")
    assert code == 0
    return out


def test_lbend_cli_iteration_budget(lbend_solution):
    sol = load_solution(lbend_solution)
    assert sol["report"]["newton_iterations"] <= 10


def test_bat_cli_folded_initial(tmp_path):
    out = tmp_path / "bat.solution.json"
    assert run_cli("solve", bundled_path("bat"), "--initial", "folded",
                   "--out", out) == 0
    sol = load_solution(out)
    assert sol["converged"] and sol["quality"]["fold_count"] == 0
    assert sol["quality"]["min_detj"] > 0.0


def test_bundled_files_match_builders():
    for name, builder in BUILDERS.items():
        assert load_bundled(name) == json.loads(
            json.dumps(builder()))  # via-JSON round trip normalizes types


def test_schema_findings_have_json_pointers():
    doc = build_square()
    doc["patches"][0]["degree_xi"] = 0
    doc["patches"][0]["knots_eta"] = "nope"
    doc["interfaces"] = [{"patch_a": 5, "face_a": "up",
                          "patch_b": 0, "face_b": "west"}]
    pointers = {f.pointer for f in validate_geometry(doc)
                if f.severity == "error"}
    assert "/patches/0/degree_xi" in pointers
    assert "/patches/0/knots_eta" in pointers
    assert "/interfaces/0/patch_a" in pointers
    assert "/interfaces/0/face_a" in pointers


def test_schema_validates_knot_vectors():
    doc = build_square()
    doc["patches"][0]["knots_xi"] = [0, 0, 0.7, 0.3, 1, 1]
    ptrs = {f.pointer for f in validate_geometry(doc)}
    assert "/patches/0/knots_xi" in ptrs


def test_parse_rejects_glued_face_with_curve():
    doc = build_two_patch_square()
    doc["patches"][0]["boundary"]["east"] = doc["patches"][0]["boundary"]["west"]
    with pytest.raises(InputError):
        parse_geometry(doc)


def test_check_ok_on_bundled(capsys):
    for name in BUILDERS:
        assert run_cli("check", bundled_path(name)) == 0
    assert "ok" in capsys.readouterr().out


def test_check_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli("check", bad) == 1


def test_check_reports_interface_knot_mismatch(tmp_path, capsys):
    doc = build_two_patch_square()
    from eggmix.splines import uniform_knots
    other = uniform_knots(2, 5)
    doc["patches"][1]["knots_eta"] = [float(v) for v in other.knots]
    # keep the patch self-consistent: resize the curves on its unglued faces
    g = other.greville
    doc["patches"][1]["boundary"]["east"] = [[1.0, float(t)] for t in g]
    p = tmp_path / "mismatch.json"
    p.write_text(json.dumps(doc))
    assert run_cli("check", p) == 1
    out = capsys.readouterr().out
    assert "interface" in out and "conform" in out


def test_check_reports_corner_mismatch(tmp_path, capsys):
    doc = build_square()
    doc["patches"][0]["boundary"]["south"][0][0] += 1e-3
    p = tmp_path / "corner.json"
    p.write_text(json.dumps(doc))
    assert run_cli("check", p) == 1
    assert "corner" in capsys.readouterr().out.lower() \
        or "disagree" in "".join(c for c in open(p).read())


def test_solve_square_quality(square_solution):
    sol = load_solution(square_solution)
    assert sol["converged"] is True
    assert abs(sol["quality"]["winslow_total"] - 2.0) < 1e-9
    assert sol["quality"]["fold_count"] == 0
    assert sol["report"]["newton_iterations"] <= 2


def test_solve_exit_1_on_bad_input(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert run_cli("solve", missing) == 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"version": 7}))
    assert run_cli("solve", bad) == 1


def test_solve_exit_2_and_writes_on_nonconvergence(tmp_path, capsys):
    doc = json.loads(json.dumps(load_bundled("quarter_annulus")))
    doc["solver"]["max_newton"] = 1
    p = tmp_path / "hard.json"
    p.write_text(json.dumps(doc))
    out = tmp_path / "hard.solution.json"
    assert run_cli("solve", p, "--out", out) == 2
    sol = load_solution(out)
    assert sol["converged"] is False


def test_solution_roundtrip_residual(lbend_solution):
    sol = load_solution(lbend_solution)
    system, c, _ = solution_system(sol)
    d = system.project_d(c)
    rl = system.eval_RL(d, c)
    rn = system.eval_RN(d, c)
    norm = float(np.sqrt(rl @ rl + rn @ rn))
    assert abs(norm - sol["residual_norm"]) <= 1e-10


def test_solution_determinism(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert run_cli("solve", bundled_path("square"), "--out", out1) == 0
    assert run_cli("solve", bundled_path("square"), "--out", out2) == 0
    a = json.loads(out1.read_text())
    b = json.loads(out2.read_text())
    a.pop("created_at")
    b.pop("created_at")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_sample_csv_row_count_and_corners(square_solution, tmp_path):
    out = tmp_path / "grid.csv"
    assert run_cli("sample", square_solution, "--format", "csv",
                   "--resolution", 2, "--out", out) == 0
    lines = out.read_text().strip().splitlines()
    doc = load_bundled("square")
    nelems = 4
    expect = (2 * nelems + 1) ** 2
    assert len(lines) == 1 + expect
    pts = {(round(float(r.split(",")[5]), 9), round(float(r.split(",")[6]), 9))
           for r in lines[1:]}
    for corner in [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]:
        assert corner in pts


def test_sample_vtk_structure(square_solution, tmp_path):
    out = tmp_path / "grid.vtk"
    assert run_cli("sample", square_solution, "--format", "vtk",
                   "--resolution", 2, "--out", out) == 0
    text = out.read_text().splitlines()
    assert text[0].startswith("# vtk DataFile")
    assert any(line.startswith("DIMENSIONS 9 9 1") for line in text)
    assert any(line.startswith("SCALARS detj") for line in text)


def test_sample_vtk_multipatch_one_file_per_patch(tmp_path):
    sol_path = tmp_path / "tp.solution.json"
    assert run_cli("solve", bundled_path("two_patch_square"),
                   "--out", sol_path) == 0
    out = tmp_path / "tp.vtk"
    assert run_cli("sample", sol_path, "--format", "vtk", "--out", out) == 0
    assert (tmp_path / "tp_p0.vtk").exists()
    assert (tmp_path / "tp_p1.vtk").exists()
    csv = tmp_path / "tp.csv"
    assert run_cli("sample", sol_path, "--format", "csv", "--resolution", 3,
                   "--out", csv) == 0
    rows = csv.read_text().strip().splitlines()
    assert len(rows) == 1 + 2 * (3 * 4 + 1) ** 2  # patches * (res*elems+1)^2


def test_sample_unknown_format(square_solution, tmp_path, capsys):
    assert run_cli("sample", square_solution, "--format", "csv",
                   "--out", tmp_path / "ok.csv") == 0
    capsys.readouterr()
    assert run_cli("sample", square_solution, "--format", "obj") == 1
    assert "invalid choice: 'obj'" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["solve", "SQUARE", "--mu", "abc", "--out", "OUT"],
    ["solve", "SQUARE", "--mu", "-1e-4", "--out", "OUT"],
    ["solve", "SQUARE", "--initial", "nowhere", "--out", "OUT"],
    ["frobnicate"], []])
def test_usage_errors_exit_1(argv, tmp_path, capsys):
    # argparse's own exit code 2 would read as non-convergence
    out = tmp_path / "out.json"
    names = {"SQUARE": bundled_path("square"), "OUT": out}
    assert run_cli(*[names.get(a, a) for a in argv]) == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_help_exits_0(capsys):
    assert run_cli("solve", "--help") == 0
    assert "--tol" in capsys.readouterr().out


def test_commands_in_one_process_read_as_alone(square_solution, tmp_path, capsys):
    # main() builds its parser once per process: a usage error and the
    # commands after it must give the exit codes and output that each gives
    # with a fresh parser, as in a process of its own
    square = bundled_path("square")
    calls = [("solve", square, "--mu", "abc"), ("check", square),
             ("quality", square_solution),
             ("solve", square, "--out", tmp_path / "square.solution.json")]

    def run(argv):
        code = run_cli(*argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    alone = []
    for argv in calls:
        eggmix.io_cli._parser.cache_clear()
        alone.append(run(argv))
    eggmix.io_cli._parser.cache_clear()
    in_turn = [run(argv) for argv in calls]
    assert eggmix.io_cli._parser.cache_info().misses == 1
    assert in_turn == alone
    assert [code for code, _, _ in alone] == [1, 0, 0, 0]
    assert "invalid float value: 'abc'" in alone[0][2]


def test_sample_deterministic_bytes(square_solution, tmp_path):
    outs = []
    for name in ("s1.svg", "s2.svg"):
        out = tmp_path / name
        assert run_cli("sample", square_solution, "--format", "svg",
                       "--out", out) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_svg_isolines_mirror_symmetric(lbend_solution):
    sol = load_solution(lbend_solution)
    from eggmix.io_cli import solution_patch_maps
    _, maps = solution_patch_maps(sol)
    polylines = svg_isolines(maps, 4)

    def mirrored(poly):
        return poly[:, ::-1]  # swap x and y

    for poly in polylines:
        target = mirrored(poly)
        found = any(
            (q.shape == target.shape
             and (np.abs(q - target).max() < 1e-6
                  or np.abs(q[::-1] - target).max() < 1e-6))
            for q in polylines)
        assert found


@pytest.mark.parametrize("solution", RESTART_SOLUTIONS,
                         ids=lambda p: p.name.split(".")[0])
def test_vtk_matches_per_point_format(solution, tmp_path):
    _, maps = solution_patch_maps(load_solution(solution))
    out = tmp_path / "grid.vtk"
    assert run_cli("sample", solution, "--format", "vtk", "--resolution", 3,
                   "--out", out) == 0
    for pi, pmap in enumerate(maps):
        path = out if len(maps) == 1 else tmp_path / f"grid_p{pi}.vtk"
        want = per_point_vtk_text(*eggmix.io_cli._sample_patch(pmap, 3))
        assert path.read_text(encoding="utf-8") == want


@pytest.mark.parametrize("solution", RESTART_SOLUTIONS,
                         ids=lambda p: p.name.split(".")[0])
def test_svg_matches_per_line_isolines(solution, tmp_path, monkeypatch):
    _, maps = solution_patch_maps(load_solution(solution))
    for resolution in (1, 4, 7):
        got = svg_isolines(maps, resolution)
        want = per_line_svg_isolines(maps, resolution)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.shape == w.shape
            assert np.abs(g - w).max() <= 1e-14 * max(1.0, np.abs(w).max())
    out = tmp_path / "one_grid.svg"
    assert run_cli("sample", solution, "--format", "svg", "--out", out) == 0
    monkeypatch.setattr(eggmix.io_cli, "svg_isolines", per_line_svg_isolines)
    ref = tmp_path / "per_line.svg"
    assert run_cli("sample", solution, "--format", "svg", "--out", ref) == 0
    assert out.read_bytes() == ref.read_bytes()


@pytest.mark.parametrize("solution", RESTART_SOLUTIONS,
                         ids=lambda p: p.name.split(".")[0])
def test_svg_points_match_per_point_format(solution, tmp_path):
    _, maps = solution_patch_maps(load_solution(solution))
    out = tmp_path / "grid.svg"
    assert run_cli("sample", solution, "--format", "svg", "--out", out) == 0
    got = [line.split('"')[1] for line in out.read_text(encoding="utf-8").splitlines()
           if line.startswith("<polyline ")]
    assert got == [per_point_svg_points(poly) for poly in svg_isolines(maps, 4)]


def test_quality_identity(square_solution, capsys):
    assert run_cli("quality", square_solution) == 0
    out = capsys.readouterr().out
    assert "winslow 2.000000" in out


def test_quality_solved_lbend_is_finite(lbend_solution, capsys):
    assert run_cli("quality", lbend_solution) == 0
    out = capsys.readouterr().out
    value = float(out.split("total winslow:")[1].split()[0])
    assert np.isfinite(value) and value > 2.0  # the identity's energy is 2


def test_quality_reports_nonbijective(square_solution, tmp_path, capsys):
    sol = load_solution(square_solution)
    net = np.asarray(sol["control_nets"][0])
    geo = parse_geometry(sol["geometry"])
    inner = geo.topology.bases[0].inner_indices
    net[[inner[0], inner[-1]]] = net[[inner[-1], inner[0]]]
    sol["control_nets"][0] = net.tolist()
    p = tmp_path / "folded.solution.json"
    p.write_text(json.dumps(sol))
    assert run_cli("quality", p) == 0
    out = capsys.readouterr().out
    assert "nonbijective" in out


def test_solve_mode_override(tmp_path):
    out = tmp_path / "sq.solution.json"
    assert run_cli("solve", bundled_path("square"), "--mode", "eta",
                   "--out", out) == 0
    assert load_solution(out)["solver_settings"]["mode"] == "eta"


def test_solve_coarse_levels(tmp_path):
    out = tmp_path / "sq2.solution.json"
    assert run_cli("solve", bundled_path("square"), "--coarse-levels", 1,
                   "--out", out) == 0
    sol = load_solution(out)
    assert sol["converged"] and len(sol["report"]["levels"]) == 2
    # solution lives on the once-refined basis: (2*4 elements + p)^2 DOFs
    assert len(sol["control_nets"][0]) == (2 * 4 + 2) ** 2
    # the embedded geometry describes that refined basis, so the file
    # round-trips through quality/sample/re-evaluation like any other
    system, c, _ = solution_system(sol)
    assert system.topology.n_sigma == (2 * 4 + 2) ** 2
    d = system.project_d(c)
    rl = system.eval_RL(d, c)
    rn = system.eval_RN(d, c)
    norm = float(np.sqrt(rl @ rl + rn @ rn))
    assert abs(norm - sol["residual_norm"]) <= 1e-10
    assert run_cli("quality", out) == 0


def test_solve_initial_folded_two_patch(tmp_path):
    out = tmp_path / "tp.solution.json"
    assert run_cli("solve", bundled_path("two_patch_square"),
                   "--initial", "folded", "--out", out) == 0
    sol = load_solution(out)
    assert sol["converged"] and sol["quality"]["fold_count"] == 0


def test_solve_initial_from_file(square_solution, tmp_path):
    out = tmp_path / "warm.solution.json"
    assert run_cli("solve", bundled_path("square"), "--initial", "file",
                   "--initial-file", square_solution, "--out", out) == 0
    assert load_solution(out)["report"]["newton_iterations"] <= 2


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_restart_from_own_solution_takes_at_most_one_step(name, tmp_path):
    first = tmp_path / f"{name}.solution.json"
    assert run_cli("solve", bundled_path(name), "--out", first) == 0
    again = tmp_path / f"{name}.restart.json"
    assert run_cli("solve", bundled_path(name), "--initial", "file",
                   "--initial-file", first, "--out", again) == 0
    sol = load_solution(again)
    assert sol["converged"] and sol["report"]["newton_iterations"] <= 1
    a, b = (np.vstack(load_solution(p)["control_nets"]) for p in (first, again))
    diam = np.linalg.norm(a.max(axis=0) - a.min(axis=0))
    assert np.abs(a - b).max() <= 1e-8 * diam


def test_auxiliary_bases_refined_only_for_a_system(tmp_path, monkeypatch):
    from eggmix.splines import TensorBasis
    first = tmp_path / "two_patch_square.solution.json"
    assert run_cli("solve", bundled_path("two_patch_square"), "--out", first) == 0
    calls = []
    bisected = TensorBasis.bisected

    def counting_bisected(self):
        calls.append(self)
        return bisected(self)

    monkeypatch.setattr(TensorBasis, "bisected", counting_bisected)
    assert run_cli("quality", first) == 0
    assert run_cli("sample", first, "--format", "csv",
                   "--out", tmp_path / "s.csv") == 0
    assert calls == []
    # a restart refines the two patches of the system it solves, not those
    # of the start file's geometry
    assert run_cli("solve", bundled_path("two_patch_square"), "--initial", "file",
                   "--initial-file", first, "--out", tmp_path / "again.json") == 0
    assert len(calls) == 2


@pytest.mark.parametrize("levels", [0, 1])
def test_prolongations_formed_only_on_coarse_levels(levels, tmp_path, monkeypatch):
    # a direct solve never prolongs; a coarse-to-fine solve forms the
    # prolongation of each patch of every level but the finest
    from eggmix.splines import TensorBasis
    calls = []
    refine = TensorBasis.refine

    def counting_refine(self):
        calls.append(self)
        return refine(self)

    monkeypatch.setattr(TensorBasis, "refine", counting_refine)
    assert run_cli("solve", bundled_path("two_patch_square"), "--initial", "folded",
                   "--coarse-levels", levels, "--out", tmp_path / "s.json") == 0
    coarse = parse_geometry(load_bundled("two_patch_square")).topology.bases
    assert [(tb.n_xi, tb.n_eta) for tb in calls] \
        == [(tb.n_xi, tb.n_eta) for tb in coarse] * levels


def test_coincident_boundary_points_exit_1(tmp_path, capsys):
    doc = build_square()
    boundary = doc["patches"][0]["boundary"]
    for face, arr in boundary.items():
        boundary[face] = [[0.3, 0.7]] * len(arr)
    p = tmp_path / "point.json"
    p.write_text(json.dumps(doc))
    out = tmp_path / "point.solution.json"
    assert run_cli("solve", p, "--out", out) == 1
    assert "boundary points coincide" in capsys.readouterr().err
    assert not out.exists()


def test_check_refuses_coincident_boundary_points(tmp_path, capsys):
    doc = build_square()
    boundary = doc["patches"][0]["boundary"]
    for face, arr in boundary.items():
        boundary[face] = [[0.3, 0.7]] * len(arr)
    p = tmp_path / "point.json"
    p.write_text(json.dumps(doc))
    assert run_cli("check", p) == 1
    out = capsys.readouterr().out
    assert "error: /patches: all boundary points coincide" in out
    assert "ok" not in out.split()


def test_restart_builds_one_system(tmp_path, monkeypatch):
    import eggmix.solver
    from eggmix.assembly import MixedSystem
    from eggmix.solver import SolverConfig, newton_solve
    start = tmp_path / "tp.solution.json"
    assert run_cli("solve", bundled_path("two_patch_square"),
                   "--initial", "folded", "--out", start) == 0
    built = []

    class CountingSystem(MixedSystem):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    # build_system_hierarchy builds the systems of a solve
    monkeypatch.setattr(eggmix.solver, "MixedSystem", CountingSystem)
    out = tmp_path / "restart.solution.json"
    assert run_cli("solve", bundled_path("two_patch_square"), "--initial",
                   "file", "--initial-file", start, "--out", out) == 0
    assert len(built) == 1
    # the nets a restart through the stored solution's own system writes
    system, c0, _ = solution_system(load_solution(start))
    c, _ = newton_solve(system, c0, SolverConfig())
    control = system.full_control_net(c)
    want = [system.topology.gather_local(i, control).tolist()
            for i in range(system.topology.n_patches)]
    assert load_solution(out)["control_nets"] == want


def _fold_between_samples(sol):
    """The square solution with the inner control point next to the (0, 0)
    corner moved to (-0.1, -0.1): det J stays positive at all 5 samples per
    element but not at the Gauss points nearer the corner."""
    geo = parse_geometry(sol["geometry"])
    net = np.asarray(sol["control_nets"][0])
    corner = geo.topology.bases[0].inner_indices[0]
    assert np.allclose(net[corner], [0.125, 0.125])
    net[corner] = [-0.1, -0.1]
    return geo, net


def test_quality_reports_fold_between_samples(square_solution, tmp_path,
                                              capsys):
    from eggmix.io_cli import _quality_block
    sol = load_solution(square_solution)
    geo, net = _fold_between_samples(sol)
    block, _ = _quality_block([SplineMap(geo.topology.bases[0], net)])
    assert block["fold_count"] == 0 and block["min_detj"] > 0.0
    assert block["nonbijective"]
    assert block["winslow_per_patch"] is None and block["winslow_total"] is None
    sol["control_nets"][0] = net.tolist()
    p = tmp_path / "between.solution.json"
    p.write_text(json.dumps(sol))
    assert run_cli("quality", p) == 0
    out = capsys.readouterr().out
    assert "nonbijective" in out and "total winslow" not in out


def test_tube_solves(tmp_path):
    out = tmp_path / "tube.solution.json"
    assert run_cli("solve", bundled_path("tube"), "--out", out) == 0
    sol = load_solution(out)
    assert sol["converged"] and sol["quality"]["fold_count"] == 0


@pytest.mark.parametrize("key, value", [
    ("mode", "diagonal"), ("mu", "abc"), ("mu", 0.0), ("mu", True),
    ("chi", None), ("chi", 1.5), ("chi", -0.1), ("newton_tol", "x"),
    ("newton_tol", -1e-8), ("newton_tol", float("nan")), ("max_newton", 2.5),
    ("max_newton", True), ("max_newton", 0), ("gmres_tol", 0.95),
    ("gmres_tol", 0), ("gmres_max_iter", "10"),
    ("coarse_levels", -1), ("coarse_levels", False)])
def test_malformed_solver_setting_exits_1(key, value, tmp_path, capsys):
    doc = build_square()
    doc["solver"] = {key: value}
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    assert run_cli("check", p) == 1
    assert f"/solver/{key}" in capsys.readouterr().out
    out = tmp_path / "bad.solution.json"
    assert run_cli("solve", p, "--out", out) == 1
    assert f"/solver/{key}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [
    ("--mu", "nan"), ("--mu", "inf"), ("--mu", "0"), ("--mu", "-1"),
    ("--chi", "nan"), ("--chi", "1.5"), ("--coarse-levels", "-2"),
    ("--tol", "nan"), ("--tol", "inf"), ("--tol", "0"), ("--tol", "-1")])
def test_malformed_solver_flag_exits_1(flag, value, tmp_path, capsys):
    out = tmp_path / "bad.solution.json"
    assert run_cli("solve", bundled_path("square"), flag, value,
                   "--out", out) == 1
    assert flag in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("where", ["file", "flag"])
@pytest.mark.parametrize("levels", [5, 30])
def test_coarse_levels_above_4_refused_before_any_system(where, levels, tmp_path,
                                                         capsys, monkeypatch):
    from eggmix.assembly import MixedSystem

    def refuse(*args, **kwargs):
        raise AssertionError("a system was built")
    monkeypatch.setattr(MixedSystem, "__init__", refuse)
    doc = build_square()
    argv = []
    if where == "file":
        doc["solver"] = {"coarse_levels": levels}
    else:
        argv = ["--coarse-levels", levels]
    p = tmp_path / "square.json"
    p.write_text(json.dumps(doc))
    out = tmp_path / "square.solution.json"
    assert run_cli("solve", p, *argv, "--out", out) == 1
    err = capsys.readouterr().err
    assert ("/solver/coarse_levels" if where == "file" else "--coarse-levels") in err
    assert "expected an integer >= 0 and <= 4" in err
    assert not out.exists()


@pytest.mark.parametrize("fmt", ["vtk", "csv", "svg"])
@pytest.mark.parametrize("resolution", [0, -3])
def test_sample_resolution_below_1_exits_1(square_solution, fmt, resolution,
                                           tmp_path, capsys):
    out = tmp_path / f"square.{fmt}"
    assert run_cli("sample", square_solution, "--format", fmt,
                   "--resolution", resolution, "--out", out) == 1
    assert "input error: --resolution: expected an integer >= 1" \
        in capsys.readouterr().err
    assert not out.exists()


def test_initial_file_without_initial_file_mode_exits_1(square_solution, tmp_path,
                                                        capsys):
    out = tmp_path / "square.solution.json"
    for start in (square_solution, tmp_path / "missing.json"):
        assert run_cli("solve", bundled_path("square"), "--initial-file", start,
                       "--out", out) == 1
        assert "--initial-file needs --initial file" in capsys.readouterr().err
        assert not out.exists()
    assert run_cli("solve", bundled_path("square"), "--initial", "folded",
                   "--initial-file", square_solution, "--out", out) == 1
    assert not out.exists()


def test_solver_settings_at_their_bounds_accepted():
    doc = build_square()
    doc["solver"] = {"mode": "xi", "mu": 1e-6, "chi": 1, "newton_tol": 1e-6,
                     "max_newton": 1, "gmres_tol": 0.9, "gmres_max_iter": 1,
                     "coarse_levels": 0}
    assert validate_geometry(doc) == []
    doc["solver"]["coarse_levels"] = 4
    assert validate_geometry(doc) == []
    doc["solver"]["chi"] = 0.0
    assert validate_geometry(doc) == []


def test_retired_solver_setting_warns_and_is_ignored():
    # GMRES runs one Krylov cycle: an older file's restart length is no
    # setting any more
    doc = build_square()
    doc["solver"] = {"gmres_restart": 1}
    assert [(f.severity, f.pointer) for f in validate_geometry(doc)] == [
        ("warning", "/solver/gmres_restart")]
    assert parse_geometry(doc).topology.n_patches == 1


def test_schema_solver_block_matches_validator():
    # docs/geometry_schema.json read as plain JSON: the solver keys, the
    # type and bounds of every numeric one, and unknown keys allowed, as
    # validate_geometry only warns about them
    schema = json.loads((pathlib.Path(__file__).parents[1] / "docs"
                         / "geometry_schema.json").read_text())
    solver = schema["properties"]["solver"]
    assert solver["additionalProperties"] is not False
    props = solver["properties"]
    assert set(props) == set(SOLVER_KEYS)
    assert props["mode"]["enum"] == ["full", "xi", "eta"]
    bound_keys = {"minimum", "exclusiveMinimum", "maximum", "exclusiveMaximum"}
    for key, (integer, lo, lo_open, hi) in SOLVER_RANGES.items():
        entry = props[key]
        assert entry["type"] == ("integer" if integer else "number"), key
        want = {"exclusiveMinimum" if lo_open else "minimum": lo}
        if hi < math.inf:
            want["maximum"] = hi
        assert {k: v for k, v in entry.items() if k in bound_keys} == want, key


@pytest.mark.parametrize("damage", ["truncated", "missing", "extra", "text"])
def test_malformed_solution_nets_exit_1(damage, tmp_path, capsys):
    sol = load_solution(RESTART / "bat.solution.json")
    nets = sol["control_nets"]
    if damage == "truncated":
        nets[1] = nets[1][:-3]
    elif damage == "missing":
        nets.pop()
    elif damage == "extra":
        nets.append(nets[0])
    else:
        nets[2][4] = ["x", "y"]
    p = tmp_path / "bad.solution.json"
    p.write_text(json.dumps(sol))
    assert run_cli("quality", p) == 1
    assert run_cli("sample", p, "--format", "svg",
                   "--out", tmp_path / "bad.svg") == 1
    assert run_cli("solve", bundled_path("bat"), "--initial", "file",
                   "--initial-file", p, "--out", tmp_path / "out.json") == 1
    err = capsys.readouterr().err
    assert err.count("/control_nets") == 3
    assert not (tmp_path / "bad.svg").exists()
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("levels", [0, 1])
def test_initial_file_on_another_basis_exits_1(square_solution, levels,
                                               tmp_path, capsys):
    out = tmp_path / "bat.solution.json"
    assert run_cli("solve", bundled_path("bat"), "--initial", "file",
                   "--initial-file", square_solution, "--coarse-levels",
                   levels, "--out", out) == 1
    assert "start control net has shape (36, 2)" in capsys.readouterr().err
    assert not out.exists()


def test_non_object_solution_file_exits_1(tmp_path):
    p = tmp_path / "list.solution.json"
    p.write_text("[1, 2]")
    assert run_cli("quality", p) == 1
    assert run_cli("sample", p, "--out", tmp_path / "list.vtk") == 1
    assert run_cli("solve", bundled_path("square"), "--initial", "file",
                   "--initial-file", p, "--out", tmp_path / "out.json") == 1


def test_solve_exit_2_on_converged_folded_map(tmp_path, capsys):
    # a coarse bat whose boundary moved by 3% of each face: from the folded
    # start the solve converges to a map that folds between the samples
    out = tmp_path / "folds.solution.json"
    assert run_cli("solve", DATA / "bat_small_folded.json", "--initial",
                   "folded", "--out", out) == 2
    sol = load_solution(out)
    assert sol["converged"] and sol["quality"]["nonbijective"]
    assert "quality: nonbijective" in capsys.readouterr().out
    assert run_cli("quality", out) == 0
    assert "nonbijective" in capsys.readouterr().out


@pytest.mark.parametrize("case", [p.name.split(".")[0] for p in RESTART_SOLUTIONS]
                         + ["between", "swapped"])
def test_quality_matches_two_pass_report(case, tmp_path, capsys):
    if case in ("between", "swapped"):
        sol = load_solution(RESTART / "square.solution.json")
        if case == "between":
            _, net = _fold_between_samples(sol)
        else:
            net = np.asarray(sol["control_nets"][0])
            inner = parse_geometry(sol["geometry"]).topology.bases[0].inner_indices
            net[[inner[0], inner[-1]]] = net[[inner[-1], inner[0]]]
        sol["control_nets"][0] = net.tolist()
        path = tmp_path / f"{case}.solution.json"
        path.write_text(json.dumps(sol))
    else:
        path = RESTART / f"{case}.solution.json"
        sol = load_solution(path)
    _, maps = solution_patch_maps(sol)
    block, _ = eggmix.io_cli._quality_block(maps)
    assert json.dumps(block) == json.dumps(two_pass_quality_block(maps))
    assert run_cli("quality", path) == 0
    assert capsys.readouterr().out == two_pass_quality_text(maps)


def _true_patch_b(doc):
    doc["interfaces"][0]["patch_b"] = True


def _true_degree(doc):
    doc["patches"][0]["degree_xi"] = True


def _true_version(doc):
    doc["version"] = True


@pytest.mark.parametrize("doc, damage, pointer", [
    (build_two_patch_square(), _true_patch_b, "/interfaces/0/patch_b"),
    (build_square(degree=1), _true_degree, "/patches/0/degree_xi"),
    (build_square(), _true_version, "/version")],
    ids=["patch_b", "degree_xi", "version"])
def test_json_booleans_are_not_integers(doc, damage, pointer, tmp_path, capsys):
    # JSON true loads as a Python bool, which counts as the integer 1
    damage(doc)
    p = tmp_path / "bool.json"
    p.write_text(json.dumps(doc))
    assert run_cli("check", p) == 1
    assert f"error: {pointer}: " in capsys.readouterr().out
    out = tmp_path / "bool.solution.json"
    assert run_cli("solve", p, "--out", out) == 1
    assert pointer in capsys.readouterr().err
    assert not out.exists()


def test_output_files_take_the_mode_of_open(tmp_path):
    umask = os.umask(0o022)
    try:
        sol = tmp_path / "square.solution.json"
        assert run_cli("solve", bundled_path("square"), "--out", sol) == 0
        outs = [sol]
        for fmt in ("vtk", "svg", "csv"):
            outs.append(tmp_path / f"square.{fmt}")
            assert run_cli("sample", sol, "--format", fmt,
                           "--out", outs[-1]) == 0
        plain = tmp_path / "plain.txt"
        with open(plain, "w", encoding="utf-8") as fh:
            fh.write("x\n")
    finally:
        os.umask(umask)
    want = stat.S_IMODE(plain.stat().st_mode)
    assert want == 0o644
    assert {o.name: stat.S_IMODE(o.stat().st_mode) for o in outs} == \
        {o.name: want for o in outs}


def test_stalled_level_ends_a_coarse_to_fine_run(tmp_path, monkeypatch):
    # the quarter annulus takes 3 Newton steps on each of its two levels;
    # the square's start is already exact, so it would never line-search
    import eggmix.solver
    from eggmix.errors import StagnationError
    systems = []
    newton_solve = eggmix.io_cli.newton_solve
    line_search = eggmix.solver._line_search

    def level_newton(system, *args, **kwargs):
        systems.append(system)
        return newton_solve(system, *args, **kwargs)

    def stall_on_level_1(*args):
        if len(systems) == 2:
            raise StagnationError("stalled")
        return line_search(*args)

    monkeypatch.setattr(eggmix.io_cli, "newton_solve", level_newton)
    monkeypatch.setattr(eggmix.solver, "_line_search", stall_on_level_1)
    out = tmp_path / "qa.solution.json"
    assert run_cli("solve", bundled_path("quarter_annulus"),
                   "--coarse-levels", 1, "--out", out) == 2
    sol = load_solution(out)
    fine = systems[1].topology
    assert [len(net) for net in sol["control_nets"]] == \
        [tb.dim for tb in fine.bases]
    rep = sol["report"]
    assert rep["stagnated"] and not rep["converged"] and not sol["converged"]
    levels = rep["levels"]
    assert len(levels) == 2
    assert levels[0]["converged"] and levels[1]["stagnated"]
    assert [lv["newton_iterations"] for lv in levels] == [3, 1]
    for key in ("newton_iterations", "rn_evals", "line_search_evals"):
        assert rep[key] == sum(lv[key] for lv in levels), key
    for key in ("residual_norms", "gmres_iterations", "nu_values"):
        assert rep[key] == [v for lv in levels for v in lv[key]], key
    assert rep["final_residual"] == levels[1]["final_residual"]
