"""One benchmark run of one workload, in its own process.

Started by run.py with the thread-count variables set and the checkout's
``src`` on the path. Usage:

    worker.py ROOT WORKDIR RESULT --workload NAME --seed N --seconds S --trace 0|1

Writes the inputs for the seed into WORKDIR, drives ``eggmix.io_cli.main``
in-process, checks every output and writes a JSON record to RESULT (and, when
tracing, the spans of the last traced repetition to RESULT.spans).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import pathlib
import re
import resource
import statistics
import sys
import time
import traceback

import numpy as np
import scipy

import eggmix
import eggmix.io_cli
from eggmix.mapping import sampled_bijectivity

import inputs
import layers
from speed import SpeedClock
from tracing import Tracer

HERE = pathlib.Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
FINE_SAMPLES = 20       # det J samples per element and direction (CLI: 5)
NET_TOL = 1e-6          # control-net deviation, relative to the domain diameter
ENERGY_TOL = 1e-6       # relative Winslow-energy deviation
SETUP_PASSES = 3        # least number of set-up-only passes (after one warm-up)
SETUP_SHARE = 0.15      # share of the run spent on set-up-only passes, at least


class SetupDone(BaseException):
    """Raised at entry to the Newton solve to end a set-up-only pass; a
    BaseException so that the CLI's error handlers let it through."""


class Call:
    """One ``main()`` invocation of a repetition and what it must produce."""

    def __init__(self, label, argv, output=None, ref=None, same_as=None):
        self.label = label
        self.argv = argv
        self.output = output        # path of the file the call writes
        self.kind = argv[0]
        self.ref = ref              # reference key (seed 0 only)
        self.same_as = same_as      # solution file the output must agree with


# -- workloads ------------------------------------------------------------------

def solve_call(label, geometry, out, *extra, ref=None, same_as=None):
    return Call(label, ["solve", str(geometry), *extra, "--out", str(out)],
                output=out, ref=ref, same_as=same_as)


class BatFolded:
    def __init__(self, work, seed, root):
        files = inputs.write_geometries(root, work, seed, ["bat"])
        self.inputs = {"bat.json": files["bat"]}
        self.calls = [solve_call("bat", files["bat"][0], work / "bat.solution.json",
                                 "--initial", "folded", ref="bat-folded/bat")]


class LbendXi:
    def __init__(self, work, seed, root):
        files = inputs.write_geometries(root, work, seed, ["lbend"])
        l0 = files["lbend"][0]
        l1 = inputs.write_refined(l0, work / "lbend_L1.json", "xi")
        self.inputs = {"lbend.json": files["lbend"], "lbend_L1.json": (l1, 1)}
        self.calls = [
            solve_call("L0", l0, work / "lbend.solution.json", "--mode", "xi",
                       ref="lbend-xi/L0"),
            solve_call("L1", l1, work / "lbend_L1.solution.json", "--mode", "xi",
                       ref="lbend-xi/L1")]


RESTART = HERE / "restart"    # converged solutions of the bundled geometries


class RestartPost:
    """Restart the seeded geometries from the stored converged solutions of
    the bundled ones. At seed 0 that is a restart from the exact solution."""

    def __init__(self, work, seed, root):
        files = inputs.write_geometries(root, work, seed)
        self.inputs = {f"{g}.json": files[g] for g in inputs.GEOMETRIES}
        self.calls = []
        for g in inputs.GEOMETRIES:
            start = RESTART / f"{g}.solution.json"
            sol = work / f"{g}.restart.json"
            self.inputs[f"restart/{start.name}"] = (start, 1)
            self.calls += [
                solve_call(f"{g}/restart", files[g][0], sol, "--initial", "file",
                           "--initial-file", str(start), ref=f"restart-post/{g}",
                           same_as=start if seed == 0 else None),
                Call(f"{g}/quality", ["quality", str(sol)], same_as=sol),
                Call(f"{g}/vtk", ["sample", str(sol), "--format", "vtk",
                                  "--out", str(work / f"{g}.vtk")],
                     output=work / f"{g}.vtk", same_as=sol),
                Call(f"{g}/svg", ["sample", str(sol), "--format", "svg",
                                  "--out", str(work / f"{g}.svg")],
                     output=work / f"{g}.svg", same_as=sol),
            ]


WORKLOADS = {"bat-folded": BatFolded, "lbend-xi": LbendXi,
             "restart-post": RestartPost}


# -- output checks ----------------------------------------------------------------

def _solution(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _nets(sol):
    return [np.asarray(n, dtype=float) for n in sol["control_nets"]]


def _net_deviation(a, b):
    """Largest control-point distance between two solutions, relative to
    the diameter of the first one's control net."""
    na, nb = _nets(a), _nets(b)
    pts = np.vstack(na)
    diam = float(np.linalg.norm(pts.max(axis=0) - pts.min(axis=0)))
    return max(float(np.abs(x - y).max()) for x, y in zip(na, nb)) / diam


def check_solution(call, sol, reference):
    problems = []
    if not sol.get("converged"):
        problems.append("converged: false")
    q = sol["quality"]
    if q["nonbijective"]:
        problems.append(f"CLI quality block reports {q['fold_count']} folds")
    geo, maps = eggmix.io_cli.solution_patch_maps(sol)
    min_detj = min(sampled_bijectivity(m, FINE_SAMPLES).min_detj for m in maps)
    if min_detj <= 0.0:
        problems.append(f"fold at {FINE_SAMPLES} samples per element "
                        f"(min det J {min_detj:.3e})")
    for (pi, face), arr in geo.boundary_data.items():
        local = geo.topology.bases[pi].face_indices(face)
        if not np.array_equal(maps[pi].control[local], arr):
            problems.append(f"boundary of patch {pi} face {face} not kept")
    if call.same_as is not None and call.kind == "solve":
        dev = _net_deviation(_solution(call.same_as), sol)
        if dev > NET_TOL:
            problems.append(f"restart moved its exact start by {dev:.2e}")
    if reference is not None and call.ref is not None:
        ref = reference[call.ref]
        dev = _net_deviation(ref, sol)
        if dev > NET_TOL:
            problems.append(f"control nets deviate from reference by {dev:.2e}")
        w, w_ref = q["winslow_total"], ref["quality"]["winslow_total"]
        if w is None or abs(w - w_ref) > ENERGY_TOL * abs(w_ref):
            problems.append(f"Winslow energy {w} vs reference {w_ref}")
    return problems


def check_quality(call, stdout):
    sol = _solution(call.same_as)
    m = re.search(r"^total winslow: (\S+)$", stdout, re.M)
    if m is None:
        return ["quality did not report a total Winslow energy"]
    w = sol["quality"]["winslow_total"]
    if abs(float(m.group(1)) - w) > 5e-7 + 1e-9 * abs(w):
        return [f"quality printed {m.group(1)}, solution holds {w}"]
    return []


def _sample_counts(sol, resolution=4):
    geo, _ = eggmix.io_cli.solution_patch_maps(sol)
    return [(tb.kv_xi.nelems * resolution + 1, tb.kv_eta.nelems * resolution + 1,
             len(tb.kv_xi.breakpoints) + len(tb.kv_eta.breakpoints))
            for tb in geo.topology.bases]


def check_sample(call):
    sol = _solution(call.same_as)
    counts = _sample_counts(sol)
    out = pathlib.Path(call.output)
    if out.suffix == ".svg":
        text = out.read_text(encoding="utf-8")
        want = sum(c[2] for c in counts)
        got = text.count("<polyline ")
        return [] if got == want else [f"svg has {got} polylines, want {want}"]
    problems = []
    for pi, (nx, ny, _) in enumerate(counts):
        path = out if len(counts) == 1 else \
            out.with_name(f"{out.stem}_p{pi}{out.suffix}")
        lines = path.read_text(encoding="utf-8").splitlines()
        if f"POINTS {nx * ny} double" not in lines:
            problems.append(f"{path.name}: expected {nx * ny} points")
            continue
        vals = np.array([float(v) for ln in lines[6:6 + nx * ny]
                         for v in ln.split()[:2]])
        if vals.size != 2 * nx * ny or not np.all(np.isfinite(vals)):
            problems.append(f"{path.name}: bad point coordinates")
    return problems


def check_call(call, rc, stdout, reference):
    if rc != 0:
        return [f"exit code {rc}"]
    if call.kind == "solve":
        return check_solution(call, _solution(call.output), reference)
    if call.kind == "quality":
        return check_quality(call, stdout)
    return check_sample(call)


# -- running ------------------------------------------------------------------------

class Runner:
    def __init__(self, reference):
        self.reference = reference
        self.attempted = 0
        self.failed = []
        self.counts = []        # per repetition: {label: (newton, gmres, rn_evals)}
        self._stamps = []

    def _stamping(self, fn, stop=False):
        stamps = self._stamps

        def newton_entry(*args, **kwargs):
            stamps.append(time.perf_counter())
            if stop:
                raise SetupDone
            return fn(*args, **kwargs)
        return newton_entry

    def run_call(self, call, tracer=None):
        """Run one call; returns (start, end, Newton entry or None, exit
        code, stdout, error). An exception from main() is reported in
        ``error`` and makes a failed call, never an abort."""
        buf = io.StringIO()
        self._stamps.clear()
        main = eggmix.io_cli.main
        if tracer is not None:
            main = tracer.wrap(f"io_cli.main:{call.kind}", main)
        rc, err = None, None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                rc = main(call.argv)
        except (Exception, SystemExit) as exc:   # counted, reported below
            err = "".join(traceback.format_exception_only(type(exc), exc)).strip()
            rc = getattr(exc, "code", None) if isinstance(exc, SystemExit) else None
        t1 = time.perf_counter()
        stamp = self._stamps[0] if self._stamps else None
        if err is not None:
            rc = rc if rc not in (None, 0) else "exception"
            sys.stderr.write(f"{call.label}: {err}\n")
        return t0, t1, stamp, rc, buf.getvalue(), err

    def run_calls(self, calls, tracer=None, clock=None):
        """Run a list of calls, traced if a tracer is given, then check their
        outputs untraced; returns their summed :class:`Timing`. Calibrated
        times need a running :class:`speed.SpeedClock` and no tracer; without
        a clock they equal the wall times."""
        if tracer is not None:
            tracer.reset()
            tracer.install()
        saved = eggmix.io_cli.newton_solve
        eggmix.io_cli.newton_solve = self._stamping(saved)
        results = []
        try:
            for call in calls:
                results.append((call, *self.run_call(call, tracer)))
                if clock is not None:
                    clock.sample()
        finally:
            eggmix.io_cli.newton_solve = saved
            if tracer is not None:
                tracer.uninstall()
        total = Timing()
        counts = {}
        for call, t0, t1, stamp, rc, stdout, err in results:
            total.add(clock, t0, t1, stamp)
            self.attempted += 1
            try:
                problems = [err] if err else check_call(call, rc, stdout,
                                                        self.reference)
            except (OSError, ValueError, KeyError) as exc:
                problems = [f"output unreadable: {exc}"]
            if problems:
                # a call that exited 0 but failed its checks gave a wrong output
                self.failed.append({"call": call.label, "problems": problems,
                                    "wrong_output": rc == 0 and err is None})
            elif call.kind == "solve":
                rep = _solution(call.output)["report"]
                counts[call.label] = [rep["newton_iterations"],
                                      sum(rep["gmres_iterations"]), rep["rn_evals"]]
        self.counts.append(counts)
        return total

    def setup_pass(self, calls, clock=None):
        """Summed set-up :class:`Timing` of the solve calls, each ended at
        Newton entry. A call that ends otherwise adds nothing here; the full
        repetitions count it as failed."""
        saved = eggmix.io_cli.newton_solve
        eggmix.io_cli.newton_solve = self._stamping(saved, stop=True)
        total = Timing()
        try:
            for call in calls:
                if call.kind != "solve":
                    continue
                self._stamps.clear()
                t0 = time.perf_counter()
                done = False
                try:
                    with contextlib.redirect_stdout(io.StringIO()):
                        eggmix.io_cli.main(call.argv)
                except SetupDone:
                    done = True
                except (Exception, SystemExit):   # reported by the repetitions
                    pass
                if clock is not None:
                    clock.sample()
                if done:
                    total.add(clock, t0, self._stamps[0], self._stamps[0])
        finally:
            eggmix.io_cli.newton_solve = saved
        return total


class Timing:
    """Summed wall and calibrated seconds of calls and of their set-up
    parts (the time before Newton entry)."""

    def __init__(self):
        self.wall = self.setup = self.cal_wall = self.cal_setup = 0.0

    def add(self, clock, t0, t1, stamp):
        """Add the call that ran from ``t0`` to ``t1`` and entered Newton at
        ``stamp`` (None if it did not)."""
        measure = clock.measure if clock is not None else \
            (lambda a, b: (b - a, b - a))
        wall, cal = measure(t0, t1)
        setup, cal_setup = measure(t0, stamp) if stamp is not None else (0.0, 0.0)
        self.wall += wall
        self.cal_wall += cal
        self.setup += setup
        self.cal_setup += cal_setup


def _median(xs):
    return float(statistics.median(xs))


def measure(workload, runner, seconds, trace):
    """Repeats the workload for about ``seconds`` (at least once; no
    repetition starts that the last one's duration says would end past
    ``seconds``); returns (samples, per-layer results or None). Untimed
    repetitions run under a :class:`speed.SpeedClock`, traced ones without
    it."""
    runner.setup_pass(workload.calls)       # warm-up, discarded
    t_start = time.perf_counter()
    samples = {k: [] for k in ("wall_s", "setup_s", "raw_wall_s", "raw_setup_s",
                               "traced_wall_s")}

    def add(timing, wall=True):
        if wall:
            samples["wall_s"].append(timing.cal_wall)
            samples["raw_wall_s"].append(timing.wall)
        samples["setup_s"].append(timing.cal_setup)
        samples["raw_setup_s"].append(timing.setup)

    clock = SpeedClock()
    while not trace and (len(samples["setup_s"]) < SETUP_PASSES or
                         time.perf_counter() - t_start < SETUP_SHARE * seconds):
        with clock:
            add(runner.setup_pass(workload.calls, clock), wall=False)
    layer_reps = []
    tracer = Tracer() if trace else None
    while True:
        t_rep = time.perf_counter()
        with clock:
            add(runner.run_calls(workload.calls, clock=clock))
        if tracer is not None:
            twall = runner.run_calls(workload.calls, tracer).wall
            samples["traced_wall_s"].append(twall)
            layer_reps.append(layers.derive(tracer, twall))
        now = time.perf_counter()
        if now - t_start + (now - t_rep) > seconds:
            break
    samples["speed_factors"] = clock.factors
    if tracer is None:
        return samples, None
    metrics, extra, repeat = layers.combine(layer_reps)
    metrics["trace.overhead_frac"] = (_median(samples["traced_wall_s"])
                                      / _median(samples["raw_wall_s"]) - 1.0)
    traced = {"metrics": metrics, "extras": extra, "counts_repeat": repeat,
              "self_time_table": layers.self_time_table(
                  tracer, samples["traced_wall_s"][-1]),
              "spans": tracer.spans}
    return samples, traced


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("root")
    ap.add_argument("workdir")
    ap.add_argument("result")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    root = pathlib.Path(args.root).resolve()
    src = (root / "src").resolve()
    if src not in pathlib.Path(eggmix.__file__).resolve().parents:
        raise SystemExit(f"eggmix imported from {eggmix.__file__}, not {src}")
    work = pathlib.Path(args.workdir)
    work.mkdir(parents=True, exist_ok=True)
    reference = None
    if args.seed == 0:
        with open(REFERENCE, "r", encoding="utf-8") as fh:
            reference = json.load(fh)

    workload = WORKLOADS[args.workload](work, args.seed, root)
    runner = Runner(reference)
    samples, traced = measure(workload, runner, args.seconds, args.trace)
    rusage = resource.getrusage(resource.RUSAGE_SELF)
    repeat = all(c == runner.counts[0] for c in runner.counts)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "inputs": {name: {"sha256": inputs.sha256(path), "draws": draws}
                   for name, (path, draws) in workload.inputs.items()},
        "versions": {"numpy": np.__version__, "scipy": scipy.__version__},
        "attempted": runner.attempted,
        "failed": len(runner.failed),
        "failures": runner.failed,
        "correct": repeat and not any(f["wrong_output"] for f in runner.failed),
        "counts": runner.counts[0] if runner.counts else {},
        "counts_repeat": repeat,
        "samples": samples,
        "peak_rss_mb": rusage.ru_maxrss / 1024.0,
    }
    if reference is not None:
        record["counts_match_reference"] = {
            c.label: runner.counts[0].get(c.label) == reference[c.ref]["counts"]
            for c in workload.calls if c.kind == "solve"}
    if traced is not None:
        spans = traced.pop("spans")
        record["per_layer"] = traced
        record["counts_repeat"] = repeat and traced["counts_repeat"]
        record["correct"] = record["correct"] and traced["counts_repeat"]
        with open(args.result + ".spans", "w", encoding="utf-8") as fh:
            json.dump(spans, fh)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)


if __name__ == "__main__":
    main()
