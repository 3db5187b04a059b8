#!/usr/bin/env python3
"""Self-checks of the benchmark's own machinery. Run from a checkout root:

    python3 perfbench/selftest.py

1. Failure accounting: an exception raised by ``main()`` and a nonzero exit
   are counted as failed calls, and the run goes on.
2. The same accounting on two real defects: a coarse bat with a 3% boundary
   perturbation converges to a map that folds between the CLI's 5 det J
   samples per element, and ``eggmix solve`` dies with NonbijectiveMapError;
   restarting the seed-25 L-bend from its own converged solution stagnates
   at roundoff and exits with code 2.
3. Seeded inputs: seed 0 is byte-identical to the bundled files, other seeds
   repeat byte for byte, keep face ends and stay within the amplitude.
4. Tracing: self times partition the traced wall time, counters agree with
   spans, and uninstalling restores every patched attribute.
5. Speed calibration: the timer's kernel runs inside calls are left out of
   their wall time.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import pathlib  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import eggmix.io_cli  # noqa: E402
from eggmix.geometries import build_bat  # noqa: E402

import inputs  # noqa: E402
import layers  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402

WORK = ROOT / ".bench_runs" / "selftest"


def check(cond, what):
    print(("PASS " if cond else "FAIL ") + what)
    if not cond:
        sys.exit(1)


def accounting():
    square = WORK / "square.json"
    shutil.copy(inputs.bundled_path(ROOT, "square"), square)
    calls = [worker.solve_call("raises", square, WORK / "a.json"),
             worker.solve_call("exit2", square, WORK / "b.json"),
             worker.solve_call("ok", square, WORK / "c.json")]
    real_main = eggmix.io_cli.main
    outcomes = iter([RuntimeError("injected"), 2, None])

    def fake_main(argv):
        outcome = next(outcomes)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome if outcome is not None else real_main(argv)

    runner = worker.Runner(None)
    eggmix.io_cli.main = fake_main
    try:
        runner.run_calls(calls)
    finally:
        eggmix.io_cli.main = real_main
    failed = {f["call"]: f["problems"] for f in runner.failed}
    check(runner.attempted == 3 and set(failed) == {"raises", "exit2"},
          f"exception and exit code counted, run continued: {failed}")


def real_defect(max_seeds=30):
    doc = build_bat(2, 4, 4, 5)
    saved = inputs.AMPLITUDE
    inputs.AMPLITUDE = 0.03
    try:
        for seed in range(1, max_seeds + 1):
            pdoc, _ = inputs.perturbed(doc, seed, 0)
            path = WORK / f"bat_small_{seed}.json"
            path.write_text(json.dumps(pdoc), encoding="utf-8")
            runner = worker.Runner(None)
            runner.run_calls([worker.solve_call(
                f"bat_small_{seed}", path, WORK / f"bat_small_{seed}.sol.json",
                "--initial", "folded")])
            problems = [p for f in runner.failed for p in f["problems"]]
            if any("NonbijectiveMapError" in p for p in problems):
                check(runner.attempted == 1 and len(runner.failed) == 1,
                      f"seed {seed}: uncaught {problems[0]!r} counted as "
                      "one failed call")
                return
    finally:
        inputs.AMPLITUDE = saved
    check(False, f"no NonbijectiveMapError in {max_seeds} perturbed coarse bats")


def exact_restart_defect():
    files = inputs.write_geometries(ROOT, WORK / "s25", 25, ["lbend"])
    lbend = files["lbend"][0]
    prep = WORK / "s25" / "lbend.prep.json"
    runner = worker.Runner(None)
    runner.run_calls([
        worker.solve_call("prep", lbend, prep),
        worker.solve_call("exact-restart", lbend, WORK / "s25" / "r.json",
                          "--initial", "file", "--initial-file", str(prep))])
    check([f["call"] for f in runner.failed] == ["exact-restart"]
          and runner.failed[0]["problems"] == ["exit code 2"],
          "seed-25 L-bend restarted from its own solution: exit code 2 "
          "counted as one failed call")


def seeded_inputs():
    a = inputs.write_geometries(ROOT, WORK / "s0", 0)
    check(all(p.read_bytes() == inputs.bundled_path(ROOT, n).read_bytes()
              for n, (p, _) in a.items()), "seed 0 reproduces the bundled files")
    b = inputs.write_geometries(ROOT, WORK / "s7a", 7)
    c = inputs.write_geometries(ROOT, WORK / "s7b", 7)
    check(all(b[n][0].read_bytes() == c[n][0].read_bytes() for n in b),
          "seed 7 repeats byte for byte")
    worst, ends_kept = 0.0, True
    for n, (p, _) in b.items():
        orig = json.loads(inputs.bundled_path(ROOT, n).read_text())
        new = json.loads(p.read_text())
        for po, pn in zip(orig["patches"], new["patches"]):
            for face, pts in po.get("boundary", {}).items():
                o, q = np.asarray(pts), np.asarray(pn["boundary"][face])
                ends_kept &= np.array_equal(o[[0, -1]], q[[0, -1]])
                length = np.linalg.norm(np.diff(o, axis=0), axis=1).sum()
                worst = max(worst, np.abs(q - o).max() / length)
    check(ends_kept, "seed 7 keeps every face end point exactly")
    check(0.0 < worst <= inputs.AMPLITUDE,
          f"seed 7: largest displacement {worst:.2e} of face length "
          f"<= {inputs.AMPLITUDE:g}")


def trace_partition():
    geo = WORK / "two_patch_square.json"
    shutil.copy(inputs.bundled_path(ROOT, "two_patch_square"), geo)
    originals = {(id(o), a): getattr(o, a) for _, o, a in tracing.FUNCTIONS}
    runner = worker.Runner(None)
    tracer = tracing.Tracer()
    wall = runner.run_calls([worker.solve_call(
        "two_patch_square", geo, WORK / "tp.sol.json")], tracer).wall
    metrics, extras = layers.derive(tracer, wall)
    self_sum = sum(tracer.self_times())
    roots = sum(e - s for _, s, e, p in tracer.spans if p < 0)
    check(abs(self_sum - roots) < 1e-9 and abs(wall - self_sum) < 1e-3,
          f"self times sum to {self_sum:.6f} s of {wall:.6f} s traced wall "
          f"(residue {extras['trace.residue_s']:.2e} s)")
    check(metrics["assembly.eval_rn_calls"] == extras["assembly.rn_eval_count"],
          "eval_RN spans match MixedSystem.rn_eval_count")
    check(all(getattr(o, a) is originals[(id(o), a)]
              for _, o, a in tracing.FUNCTIONS)
          and all(not hasattr(getattr(c, a), "__wrapped__")
                  for _, c, a in tracing.METHODS),
          "uninstall restores every patched attribute")


def speed_clock():
    geo = WORK / "lbend_clock.json"
    shutil.copy(inputs.bundled_path(ROOT, "lbend"), geo)
    runner = worker.Runner(None)
    clock = speed.SpeedClock()
    t0 = time.perf_counter()
    with clock:
        timing = runner.run_calls([worker.solve_call(
            "lbend", geo, WORK / "lb.sol.json")], clock=clock)
    t1 = time.perf_counter()
    paused = sum(e - s for s, e in clock.pauses)
    check(len(clock.pauses) > 0 and timing.wall < t1 - t0 - paused,
          f"{len(clock.pauses)} timer samples inside the calls, "
          f"{paused * 1e3:.1f} ms, left out of their {timing.wall:.3f} s")
    check(0.2 < timing.cal_wall / timing.wall < 5.0,
          f"calibrated {timing.cal_wall:.3f} s for {timing.wall:.3f} s wall "
          f"(speed factors {min(clock.factors):.2f} to {max(clock.factors):.2f})")


def main():
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    try:
        accounting()
        seeded_inputs()
        trace_partition()
        speed_clock()
        real_defect()
        exact_restart_defect()
    finally:
        shutil.rmtree(WORK, ignore_errors=True)


if __name__ == "__main__":
    main()
