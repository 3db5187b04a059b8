"""In-memory span tracing around eggmix's layer boundaries.

Spans are recorded only from this benchmark: the functions and methods that
eggmix callers look up at call time are replaced by timing wrappers while a
:class:`Tracer` is installed, and restored on uninstall. A span is
``(name, start, end, parent)`` with ``parent`` the index of the enclosing
span (-1 for a root). Self time is a span's duration minus the durations of
its direct children; over a single-threaded run the self times of all spans
partition the root spans exactly.
"""

from __future__ import annotations

import functools
import sys
import time

import eggmix.assembly
import eggmix.io_cli
import eggmix.linalg
import eggmix.mapping
import eggmix.multipatch
import eggmix.solver

# (span name, owner, attribute). Module functions are replaced in every
# eggmix module that holds a reference to them, so every call site sees the
# wrapper; methods are replaced on their class.
FUNCTIONS = (
    ("io_cli.load_geometry", eggmix.io_cli, "load_geometry"),
    ("io_cli.parse_geometry", eggmix.io_cli, "parse_geometry"),
    ("io_cli.load_solution", eggmix.io_cli, "load_solution"),
    ("io_cli.solution_system", eggmix.io_cli, "solution_system"),
    ("io_cli.solution_patch_maps", eggmix.io_cli, "solution_patch_maps"),
    ("io_cli.solution_document", eggmix.io_cli, "solution_document"),
    ("io_cli.write_solution", eggmix.io_cli, "write_solution"),
    ("io_cli.sample_patch", eggmix.io_cli, "_sample_patch"),
    ("io_cli.write_vtk", eggmix.io_cli, "_write_vtk"),
    ("io_cli.write_svg", eggmix.io_cli, "_write_svg"),
    ("io_cli.write_csv", eggmix.io_cli, "_write_csv"),
    ("multipatch.build_topology", eggmix.multipatch, "build_topology"),
    ("multipatch.build_restriction", eggmix.multipatch, "build_restriction"),
    ("assembly.boundary_values", eggmix.assembly, "boundary_values_from_faces"),
    ("assembly.build_quadrature", eggmix.assembly, "build_quadrature"),
    ("solver.newton_solve", eggmix.solver, "newton_solve"),
    ("solver.newton_state", eggmix.solver, "NewtonState"),
    ("solver.schur_rhs", eggmix.solver, "schur_rhs"),
    ("solver.schur_matvec", eggmix.solver, "schur_matvec"),
    ("solver.transfinite_global", eggmix.solver, "transfinite_global"),
    ("solver.folded_initial_guess", eggmix.solver, "folded_initial_guess"),
    ("linalg.gmres", eggmix.linalg, "gmres"),
    ("mapping.sampled_bijectivity", eggmix.mapping, "sampled_bijectivity"),
    ("mapping.winslow", eggmix.mapping, "winslow"),
)
METHODS = (
    ("assembly.system_build", eggmix.assembly.MixedSystem, "__init__"),
    ("assembly.eval_RN", eggmix.assembly.MixedSystem, "eval_RN"),
    ("assembly.eval_RL", eggmix.assembly.MixedSystem, "eval_RL"),
    ("assembly.ainv_exact", eggmix.assembly.MixedSystem, "ainv_exact"),
    ("assembly.mass_pcg", eggmix.assembly.MixedSystem, "_mass_pcg"),
    ("linalg.kron_solve_block", eggmix.linalg.KronSolver, "solve_block"),
)


def _eggmix_modules():
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "eggmix" or name.startswith("eggmix."))]


def replace_everywhere(original, replacement):
    """Point every eggmix module attribute bound to ``original`` at
    ``replacement``; returns the (module, name) pairs changed."""
    changed = []
    for mod in _eggmix_modules():
        for name, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, name, replacement)
                changed.append((mod, name))
    return changed


class Tracer:
    def __init__(self):
        self.spans = []
        self.systems = []        # MixedSystem instances built while traced
        self.gmres_results = []
        self.reports = []        # SolverReport of every newton_solve
        self._stack = []
        self._restore = []

    def wrap(self, name, fn, on_return=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if on_return is not None:
                on_return(args, out)
            return out
        return traced

    def install(self):
        hooks = {
            "linalg.gmres": lambda args, out: self.gmres_results.append(out),
            "solver.newton_solve": lambda args, out: self.reports.append(out[1]),
            "assembly.system_build": lambda args, out: self.systems.append(args[0]),
        }
        for name, owner, attr in FUNCTIONS:
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original, hooks.get(name))
            for mod, mod_attr in replace_everywhere(original, wrapper):
                self._restore.append((mod, mod_attr, original))
        for name, cls, attr in METHODS:
            original = cls.__dict__[attr]
            setattr(cls, attr, self.wrap(name, original, hooks.get(name)))
            self._restore.append((cls, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def reset(self):
        self.spans.clear()
        self.systems.clear()
        self.gmres_results.clear()
        self.reports.clear()

    def self_times(self):
        """Per-span self time, in span order."""
        self_t = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                self_t[parent] -= end - start
        return self_t
