"""Smoke runs of the example scripts, each started as its usage line says,
and of single cases of the benchmark script."""

import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"


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
BENCH_RECORD_KEYS = {
    "lbend-xi-L0": COUNTS | STEPS | {
        "gmres_all_converged", "max_gmres_per_step", "system_build_s", "solve_s",
        "eval_rn_ms", "laplace_preconditioner_ms", "eval_rl_ms", "apply_ainv_b_ms",
        "peak_rss_mb"},
    "square-restart": COUNTS | STEPS | {"stagnated", "max_net_change", "solve_s"},
    "lbend-xi-L1-kernels": {
        "n_sigma", "calls", "eval_rn_ms", "frozen_laplacian_ms", "precond_factor_ms",
        "precond_apply_ms", "eval_rl_ms", "apply_ainv_b_ms", "ainv_exact_ms",
        "build_plus_six_applies_ms", "peak_rss_mb"},
}


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
