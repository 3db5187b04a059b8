#!/usr/bin/env python3
"""Regenerate the benchmark's stored data from the current program:

- ``restart/<geometry>.solution.json``: the converged solutions of the
  bundled geometries (the bat from its folded start, the others from the
  transfinite start) that the restart-post workload restarts from;
- ``reference.json``: the seed-0 control nets, Winslow energies and
  Newton/GMRES/rn_eval counts of every solve the workloads run.

Run from the root of a checkout:

    python3 perfbench/make_reference.py
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import pathlib  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import worker  # noqa: E402

RESTART_START = {"bat": ("--initial", "folded")}


def run_checked(runner, calls):
    runner.run_calls(calls)
    if runner.failed:
        sys.exit(f"failed: {runner.failed}")


def write_restart_starts(work):
    worker.RESTART.mkdir(exist_ok=True)
    files = inputs.write_geometries(ROOT, work, 0)
    run_checked(worker.Runner(None), [
        worker.solve_call(g, files[g][0], worker.RESTART / f"{g}.solution.json",
                          *RESTART_START.get(g, ()))
        for g in inputs.GEOMETRIES])


def main():
    work = ROOT / ".bench_runs" / "reference"
    shutil.rmtree(work, ignore_errors=True)
    write_restart_starts(work / "bundled")
    reference = {}
    for name, cls in worker.WORKLOADS.items():
        workload = cls(work / name, 0, ROOT)
        run_checked(worker.Runner(None), workload.calls)
        for call in workload.calls:
            if call.ref is None:
                continue
            sol = worker._solution(call.output)
            rep = sol["report"]
            reference[call.ref] = {
                "control_nets": sol["control_nets"],
                "quality": {k: sol["quality"][k]
                            for k in ("winslow_total", "winslow_per_patch")},
                "counts": [rep["newton_iterations"], sum(rep["gmres_iterations"]),
                           rep["rn_evals"]],
            }
            print(call.ref, reference[call.ref]["counts"])
    (HERE / "reference.json").write_text(json.dumps(reference, indent=0) + "\n",
                                         encoding="utf-8")
    shutil.rmtree(work)


if __name__ == "__main__":
    main()
