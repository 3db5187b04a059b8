"""Smoke runs of the example scripts, each started as its usage line says,
of single cases of the benchmark script, and of the README's library
examples."""

import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"
README_BLOCKS = re.findall(r"^```python\n(.*?)^```$",
                           (ROOT / "README.md").read_text(encoding="utf-8"),
                           re.MULTILINE | re.DOTALL)


@pytest.mark.parametrize("index", range(len(README_BLOCKS)))
def test_readme_python_block_converges(index, monkeypatch):
    # each block runs as written, from the repository root, and ends with
    # the report of a converged solve
    assert len(README_BLOCKS) >= 2  # the two library entry points at least
    monkeypatch.chdir(ROOT)
    namespace = {}
    exec(compile(README_BLOCKS[index], f"README.md block {index}", "exec"),
         namespace)
    assert namespace["report"].converged


@pytest.mark.parametrize("script, patches, svgs", [
    ("run_bat.py", 3, ["bat_initial.svg", "bat_solved.svg"]),
    ("run_lbend.py", 1, ["lbend.svg"]),
], ids=["bat", "lbend"])
def test_script_solves_fold_free(script, patches, svgs, tmp_path):
    done = subprocess.run([sys.executable, str(SCRIPTS / script), str(tmp_path)],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    # one "min det J ... folds N" line per patch
    folds = [int(m.group(1)) for m in
             re.finditer(r"min det J.*folds:? (\d+)$", done.stdout, re.MULTILINE)]
    assert folds == [0] * patches, done.stdout
    for name in svgs:
        text = (tmp_path / name).read_text()
        assert "<svg" in text and text.rstrip().endswith("</svg>")


COUNTS = {"n_sigma", "converged", "newton", "gmres", "rn_evals"}
STEPS = {"first_forcing_term", "last_forcing_term", "last_step_gmres", "timings"}
KERNEL_KEYS = {
    "n_sigma", "calls", "eval_rn_ms", "frozen_laplacian_ms", "precond_factor_ms",
    "precond_apply_ms", "eval_rl_ms", "apply_ainv_b_ms", "ainv_exact_ms",
    "build_plus_six_applies_ms", "laplacian_factors_ms", "peak_rss_mb"}
BENCH_RECORD_KEYS = {
    "lbend-xi-L0": COUNTS | STEPS | {
        "gmres_all_converged", "max_gmres_per_step", "system_build_s", "solve_s",
        "eval_rn_ms", "laplace_preconditioner_ms", "eval_rl_ms", "apply_ainv_b_ms",
        "peak_rss_mb"},
    "square-restart": COUNTS | STEPS | {"stagnated", "max_net_change", "solve_s"},
    "bat-folded-L2-c2f": COUNTS | {"solve_s", "timings", "levels", "peak_rss_mb"},
    "lbend-xi-L0-kernels": KERNEL_KEYS,
    "bat-folded-L0-kernels": KERNEL_KEYS,
    "lbend-xi-L1-kernels": KERNEL_KEYS,
    "post-L0": {"calls", "geometries", "peak_rss_mb"},
    "setup-L0": {"fresh_systems", "systems", "peak_rss_mb"},
    "bat-L2-setup": {"n_sigma", "n_gamma", "n_elements", "band_entries", "bandwidth",
                     "hierarchy_s", "system_build_s", "mass_build_s",
                     "laplacian_factors_s", "peak_rss_mb"},
}
POST_KEYS = {"n_patches", "converged", "load_maps_ms", "quality_ms", "document_ms",
             "write_solution_ms", "vtk_ms", "svg_ms", "csv_ms", "solution_bytes",
             "vtk_bytes", "svg_bytes", "csv_bytes"}
SETUP_KEYS = {"mode", "level", "n_sigma", "init_ms", "plans_ms", "laplacian_factors_ms",
              "setup_ms", "collocation_us"}


@pytest.mark.parametrize("case", sorted(BENCH_RECORD_KEYS))
def test_bench_case_prints_one_record(case):
    # the child mode of scripts/bench.py, one single-threaded process per
    # case as the full table runs it: a change to the kernel API that the
    # script calls fails here
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    done = subprocess.run([sys.executable, str(SCRIPTS / "bench.py"), "--child", case],
                          capture_output=True, text=True, timeout=120, env=env)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 1, done.stdout
    record = json.loads(lines[0])
    assert set(record) == BENCH_RECORD_KEYS[case]
    if case == "lbend-xi-L0":
        assert (record["newton"], record["gmres"], record["rn_evals"]) == (6, 23, 30)
        assert record["converged"] and record["gmres_all_converged"]
    if case == "bat-folded-L2-c2f":
        assert (record["newton"], record["gmres"], record["rn_evals"]) == (16, 50, 69)
        assert [(lv["newton"], lv["gmres"], lv["rn_evals"]) for lv in record["levels"]] \
            == [(10, 21, 32), (3, 16, 20), (3, 13, 17)]
        assert all(lv["converged"] and lv["gmres_all_converged"]
                   for lv in record["levels"])
    if case == "post-L0":
        geometries = record["geometries"]
        assert set(geometries) == {"bat", "lbend", "quarter_annulus", "square",
                                   "tube", "two_patch_square"}
        for r in geometries.values():
            assert set(r) == POST_KEYS and r["converged"]
            assert min(r["solution_bytes"], r["vtk_bytes"], r["svg_bytes"],
                       r["csv_bytes"]) > 0
    if case == "setup-L0":
        systems = record["systems"]
        assert set(systems) == {"bat", "lbend", "quarter_annulus", "square", "tube",
                                "two_patch_square", "lbend-xi-L1"}
        for r in systems.values():
            assert set(r) == SETUP_KEYS
            assert 0 < max(r["init_ms"], r["plans_ms"], r["laplacian_factors_ms"]) \
                <= r["setup_ms"]


def test_code_lines_counts_code_only(tmp_path):
    # a module of 4 code lines: its docstring, the function's docstring,
    # comments and blank lines do not count, and the two lines of the
    # string assigned to TEXT do
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "mod.py").write_text(
        '"""Module\ndocstring."""\n\n# a comment\nTEXT = """two\nlines"""\n\n\n'
        'def f():\n    """Docstring."""\n    return 1  # trailing comment\n',
        encoding="utf-8")
    (tmp_path / "pkg" / "empty.py").write_text("# nothing\n", encoding="utf-8")
    done = subprocess.run([sys.executable, str(SCRIPTS / "code_lines.py"),
                           str(tmp_path / "pkg")],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["0", str(tmp_path / "pkg" / "empty.py"),
                                   "4", str(tmp_path / "pkg" / "mod.py"),
                                   "4", "total"]
