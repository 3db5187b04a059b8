#!/usr/bin/env python3
"""eggmix benchmark: one workload, one seed, one fresh single-threaded process.

    python3 perfbench/run.py --workload bat-folded --seed 0 --seconds 30 --trace 0

Run from the root of a checkout. The workload runs in a child process with
OPENBLAS_NUM_THREADS=1 and OMP_NUM_THREADS=1 and the checkout's ``src`` first
on its path. With ``--trace 0`` the run reports the end-to-end metrics of
BENCHMARK.json, with ``--trace 1`` its per-layer metrics. A table with units
and sample counts comes first on stdout, then one line with the detailed
record's path, and as the last line the JSON result. ``--workload all`` runs
every workload in both modes and prints every table.

Generated inputs and outputs go to a work directory under ``.bench_runs/``
in the checkout, removed at the end of the run; the detailed record (and the
spans of a traced run) stay there.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import shutil
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = ROOT / ".bench_runs"
WORKLOADS = ("bat-folded", "lbend-xi", "restart-post")
CHILD_TIMEOUT = 170
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1"}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail(f"{path} not found")
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def run_child(workload, seed, seconds, trace):
    """Run the worker; returns its record (with environment and paths)."""
    RUNS.mkdir(exist_ok=True)
    tag = f"{workload}-s{seed}-t{trace}"
    work = RUNS / f"work-{tag}-{os.getpid()}"
    result = RUNS / f"{tag}.json"
    result.unlink(missing_ok=True)
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    cmd = [sys.executable, str(HERE / "worker.py"), str(ROOT), str(work),
           str(result), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    load1 = os.getloadavg()[0]
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL)
    try:
        rc = proc.wait(timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"{workload}: worker exceeded {CHILD_TIMEOUT} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if rc != 0 or not result.is_file():
        fail(f"{workload}: worker exited with code {rc}")
    with open(result, "r", encoding="utf-8") as fh:
        record = json.load(fh)
    record["environment"] = {
        "nproc": os.cpu_count(), "python": platform.python_version(),
        **record.pop("versions"), "loadavg_1min_at_start": load1,
        **PINNED}
    with open(result, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    record["path"] = str(result.relative_to(ROOT))
    return record


def metrics_of(record, spec, trace):
    """(metrics for the result line, sample count per metric)."""
    if not trace:
        s = record["samples"]
        values = {"wall_s": (statistics.median(s["wall_s"]), len(s["wall_s"])),
                  "setup_s": (statistics.median(s["setup_s"]), len(s["setup_s"])),
                  "peak_rss_mb": (record["peak_rss_mb"], 1)}
        wanted = spec["end_to_end"]
    else:
        n = len(record["samples"]["traced_wall_s"])
        values = {k: (v, n) for k, v in record["per_layer"]["metrics"].items()}
        wanted = spec["per_layer"]
    metrics, samples = {}, {}
    for m in wanted:
        value, count = values[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        samples[m["name"]] = count
    return metrics, samples


def report(workload, seed, seconds, trace, spec):
    record = run_child(workload, seed, seconds, trace)
    metrics, samples = metrics_of(record, spec, trace)
    print(f"== {workload}  seed {seed}  trace {trace}  "
          f"{'correct' if record['correct'] else 'INCORRECT'}  "
          f"{record['failed']}/{record['attempted']} calls failed")
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:>14.6g} {m['unit']:6s} "
              f"n={samples[name]}")
    for f in record["failures"]:
        print(f"  failed: {f['call']}: {'; '.join(f['problems'])}")
    if not trace:
        raw = record["samples"]
        print(f"  {'(uncalibrated wall_s)':32s} "
              f"{statistics.median(raw['raw_wall_s']):>14.6g} s      "
              f"n={len(raw['raw_wall_s'])}")
        print(f"  {'(uncalibrated setup_s)':32s} "
              f"{statistics.median(raw['raw_setup_s']):>14.6g} s      "
              f"n={len(raw['raw_setup_s'])}")
    print(f"  record: {record['path']}")
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be >= 0")
    if not (ROOT / "src" / "eggmix" / "io_cli.py").is_file():
        fail(f"no eggmix sources under {ROOT / 'src'}")
    spec = load_spec()
    if args.workload != "all":
        result = report(args.workload, args.seed, args.seconds, args.trace,
                        spec)
    else:
        result = {w: {f"trace{t}": report(w, args.seed, args.seconds, t, spec)
                      for t in (0, 1)}
                  for w in WORKLOADS}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
