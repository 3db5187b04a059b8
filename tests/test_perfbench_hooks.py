"""The benchmark's tracer (perfbench/tracing.py) finds every eggmix name it
hooks, and its layer table (perfbench/layers.py) derives every per-layer
metric that BENCHMARK.json declares, on one short traced CLI session. The
benchmark's worker (perfbench/worker.py) ends each set-up measurement at the
first call of ``eggmix.io_cli.newton_solve``, so every solve must enter
Newton through that name."""

import json
import pathlib
import sys

import pytest

import eggmix.io_cli
from eggmix.geometries import path as bundled_path

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_traced_cli_derives_every_per_layer_metric(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    # leave no byte-code files in the benchmark's directory
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    import layers
    import tracing

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    # run.py adds the tracing overhead itself, from untraced repetitions
    want = {m["name"] for m in spec["per_layer"]} - {"trace.overhead_frac"}
    sol = tmp_path / "qa.solution.json"
    calls = [
        ["solve", bundled_path("quarter_annulus"), "--out", sol],
        ["quality", sol],
        ["sample", sol, "--format", "svg", "--out", tmp_path / "qa.svg"],
    ]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        codes = [eggmix.io_cli.main([str(a) for a in argv]) for argv in calls]
    finally:
        tracer.uninstall()
    assert codes == [0, 0, 0]
    metrics, _ = layers.derive(tracer, 1.0)
    assert want <= set(metrics), sorted(want - set(metrics))
    # the spans were recorded, not just defaulted to zero
    for name in ("solver.newton_iters", "assembly.eval_rn_calls",
                 "assembly.mass_solve_calls", "linalg.gmres_calls",
                 "assembly.systems_built"):
        assert metrics[name] > 0, name
    for name in ("io_cli.post_s", "io_cli.write_s", "multipatch.topology_s",
                 "mapping.bijectivity_s", "mapping.winslow_s"):
        assert metrics[name] > 0.0, name


@pytest.mark.parametrize("levels, entries", [(0, 1), (1, 2)])
def test_every_level_enters_newton_through_io_cli(levels, entries, tmp_path,
                                                  monkeypatch):
    calls = []
    newton_solve = eggmix.io_cli.newton_solve

    def counting(*args, **kwargs):
        calls.append(1)
        return newton_solve(*args, **kwargs)

    monkeypatch.setattr(eggmix.io_cli, "newton_solve", counting)
    out = tmp_path / "qa.solution.json"
    assert eggmix.io_cli.main(["solve", str(bundled_path("quarter_annulus")),
                               "--coarse-levels", str(levels),
                               "--out", str(out)]) == 0
    assert len(calls) == entries
