#!/usr/bin/env python3
"""Milliseconds per ``MixedSystem.eval_RN`` call over strip budgets.

``eval_RN`` walks each patch's xi Gauss points in strips of whole spans,
as few as keep one strip's grid arrays within ``eggmix.assembly.STRIP_BYTES``.
For each case and budget (0.5, 1, 2 and 4 MiB, and one strip per patch)
this builds the case's finest system with that budget in a fresh
single-threaded child process, evaluates at the start iterate (the folded
start on the bat, the transfinite one on the L-bend) and records the strips
per patch and the median milliseconds over repeated calls. The whole sweep
runs ``ROUNDS`` times, budgets interleaved, and each entry keeps the median
of its rounds next to every round's value.

Usage: python scripts/strip_sweep.py [--out FILE]

Without ``--out`` the JSON goes to stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys
import time

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import bench  # noqa: E402

import eggmix.assembly  # noqa: E402

# key -> (geometry, mode, h-refinement level, folded start, calls timed)
CASES = {
    "bat-folded-L0": ("bat", "full", 0, True, 200),
    "bat-folded-L1": ("bat", "full", 1, True, 100),
    "bat-folded-L3": ("bat", "full", 3, True, 10),
    "lbend-xi-L0": ("lbend", "xi", 0, False, 200),
    "lbend-xi-L1": ("lbend", "xi", 1, False, 100),
    "lbend-xi-L2": ("lbend", "xi", 2, False, 30),
}
# label -> strip budget in bytes; "one" leaves every patch one strip
BUDGETS = {"0.5MiB": 1 << 19, "1MiB": 1 << 20, "2MiB": 2 << 20, "4MiB": 4 << 20,
           "one": 1 << 62}
ROUNDS = 3


def run_child(key, budget):
    """Time ``eval_RN`` of one case with one budget in this process."""
    name, mode, level, folded, calls = CASES[key]
    eggmix.assembly.STRIP_BYTES = BUDGETS[budget]
    system, c = bench.start_system(name, mode, level, folded)
    d = system.project_d(c)
    system.eval_RN(d, c)
    seconds = []
    for _ in range(calls):
        t0 = time.perf_counter()
        system.eval_RN(d, c)
        seconds.append(time.perf_counter() - t0)
    return {"strips": [len(ctx.strips) for ctx in system.patches],
            "eval_rn_ms": 1e3 * float(np.median(seconds))}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=pathlib.Path)
    ap.add_argument("--child", nargs=2, metavar=("CASE", "BUDGET"),
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        print(json.dumps(run_child(*args.child)))
        return
    env = dict(os.environ, **bench.PINNED)
    rounds = {(key, budget): [] for key in CASES for budget in BUDGETS}
    strips = {}
    for _ in range(ROUNDS):
        for key, budget in rounds:
            proc = subprocess.run(
                [sys.executable, __file__, "--child", key, budget], env=env,
                capture_output=True, text=True, check=False)
            if proc.returncode != 0:
                raise SystemExit(f"strip_sweep: {key} {budget} failed:\n{proc.stderr}")
            r = json.loads(proc.stdout.splitlines()[-1])
            strips[key, budget] = r["strips"]
            rounds[key, budget].append(r["eval_rn_ms"])
    table = {key: {} for key in CASES}
    for (key, budget), ms in rounds.items():
        table[key][budget] = {"strips": strips[key, budget],
                              "calls": CASES[key][-1],
                              "eval_rn_ms": float(np.median(ms)), "rounds_ms": ms}
        print(f"{key:16s} {budget:7s} strips {strips[key, budget]}  "
              f"eval_RN {np.median(ms):8.3f} ms", file=sys.stderr)
    text = json.dumps({"machine": bench.machine(), "cases": table}, indent=1)
    if args.out:
        args.out.write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


if __name__ == "__main__":
    main()
