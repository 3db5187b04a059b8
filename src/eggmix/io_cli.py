"""Geometry ingestion, solve orchestration, quality reporting and mesh export.

Geometry and solution files are JSON (schema in docs/geometry_schema.json);
mesh export writes legacy-VTK structured grids, SVG isoline plots or CSV
point tables. :func:`solve` is the one solve path of the command line and
the library: a direct solve is a hierarchy of one level. Exit codes: 0
converged to a bijective map, 1 input or usage error, 2 not converged (out
of Newton steps, or stagnated) or converged to a folded map.
"""

from __future__ import annotations

import argparse
import datetime
import functools
import json
import math
import os
import sys
import tempfile
import warnings
from dataclasses import dataclass

import numpy as np

from .assembly import MixedSystem, boundary_values_from_faces
from .errors import CornerMismatchError, EggmixError, InputError, \
    KnotMismatchError, NonbijectiveMapError
from .mapping import SplineMap, sampled_bijectivity, winslow
from .multipatch import AffinePatchMap, Interface, PatchTopology, build_topology
from .solver import EW_ETA_MAX, NewtonState, SolverConfig, SolverReport, \
    build_system_hierarchy, folded_initial_guess, newton_solve, \
    transfinite_global
from .splines import KnotVector, TensorBasis

FACE_NAMES = ("south", "north", "west", "east")
# the numeric solver settings of docs/geometry_schema.json:
# key -> (integer, minimum, minimum excluded, maximum)
SOLVER_RANGES = {
    "mu": (False, 0, True, math.inf),
    "chi": (False, 0, False, 1),
    "newton_tol": (False, 0, True, math.inf),
    "max_newton": (True, 1, False, math.inf),
    "gmres_tol": (False, 0, True, EW_ETA_MAX),
    "gmres_max_iter": (True, 1, False, math.inf),
    # each level multiplies the element count by 4
    "coarse_levels": (True, 0, False, 4),
}
SOLVER_KEYS = ("mode",) + tuple(SOLVER_RANGES)


@dataclass
class Finding:
    severity: str   # "error" | "warning"
    pointer: str    # JSON pointer into the document
    message: str

    def __str__(self):
        return f"{self.severity}: {self.pointer}: {self.message}"


@dataclass
class GeometryFile:
    doc: dict
    topology: PatchTopology
    boundary_data: dict
    solver: dict


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_integer(v):
    # JSON true and false load as bool, which Python counts as an int
    return isinstance(v, int) and not isinstance(v, bool)


def validate_geometry(doc) -> list:
    """Structural schema validation; returns findings with JSON-pointer paths."""
    out = []
    err = lambda ptr, msg: out.append(Finding("error", ptr, msg))
    if not isinstance(doc, dict):
        err("", "document must be a JSON object")
        return out
    if not (_is_integer(doc.get("version")) and doc["version"] == 1):
        err("/version", "expected format version 1")
    patches = doc.get("patches")
    if not isinstance(patches, list) or not patches:
        err("/patches", "expected a nonempty array of patches")
        patches = []
    points = set()  # distinct boundary points of well-formed faces
    for i, p in enumerate(patches):
        ptr = f"/patches/{i}"
        if not isinstance(p, dict):
            err(ptr, "patch must be an object")
            continue
        for key in ("degree_xi", "degree_eta"):
            if not _is_integer(p.get(key)) or p[key] < 1:
                err(f"{ptr}/{key}", "expected an integer >= 1")
        for key in ("knots_xi", "knots_eta"):
            kn = p.get(key)
            if not isinstance(kn, list) or not all(_is_number(v) for v in kn):
                err(f"{ptr}/{key}", "expected an array of numbers")
                continue
            deg = p.get("degree_xi" if key == "knots_xi" else "degree_eta")
            if _is_integer(deg) and deg >= 1:
                try:
                    KnotVector(deg, kn)
                except InputError as exc:
                    err(f"{ptr}/{key}", str(exc))
        aff = p.get("affine")
        if aff is not None:
            A = aff.get("A") if isinstance(aff, dict) else None
            b = aff.get("b") if isinstance(aff, dict) else None
            ok = (isinstance(A, list) and len(A) == 2
                  and all(isinstance(r, list) and len(r) == 2
                          and all(_is_number(v) for v in r) for r in A))
            if not ok:
                err(f"{ptr}/affine/A", "expected a 2x2 number matrix")
            if not (isinstance(b, list) and len(b) == 2
                    and all(_is_number(v) for v in b)):
                err(f"{ptr}/affine/b", "expected a 2-vector")
            if ok and A[0][0] * A[1][1] - A[0][1] * A[1][0] == 0:
                err(f"{ptr}/affine/A", "matrix must be invertible")
        bnd = p.get("boundary", {})
        if not isinstance(bnd, dict):
            err(f"{ptr}/boundary", "expected an object keyed by face name")
        else:
            for face, arr in bnd.items():
                if face not in FACE_NAMES:
                    err(f"{ptr}/boundary/{face}", "unknown face name")
                elif not (isinstance(arr, list)
                          and all(isinstance(q, list) and len(q) == 2
                                  and all(_is_number(v) for v in q) for q in arr)):
                    err(f"{ptr}/boundary/{face}", "expected an array of [x, y] pairs")
                else:
                    points.update(tuple(q) for q in arr)
    if len(points) == 1:
        err("/patches", "all boundary points coincide")
    itfs = doc.get("interfaces", [])
    if not isinstance(itfs, list):
        err("/interfaces", "expected an array")
        itfs = []
    for k, itf in enumerate(itfs):
        ptr = f"/interfaces/{k}"
        if not isinstance(itf, dict):
            err(ptr, "interface must be an object")
            continue
        for key in ("patch_a", "patch_b"):
            v = itf.get(key)
            if not _is_integer(v) or not 0 <= v < len(patches):
                err(f"{ptr}/{key}", "expected a valid patch index")
        for key in ("face_a", "face_b"):
            if itf.get(key) not in FACE_NAMES:
                err(f"{ptr}/{key}", f"expected one of {FACE_NAMES}")
        if "reversed" in itf and not isinstance(itf["reversed"], bool):
            err(f"{ptr}/reversed", "expected a boolean")
    solver = doc.get("solver", {})
    if not isinstance(solver, dict):
        err("/solver", "expected an object")
    else:
        for key in solver:
            if key not in SOLVER_KEYS:
                out.append(Finding("warning", f"/solver/{key}",
                                   "unknown solver setting (ignored)"))
        if "mode" in solver and solver["mode"] not in ("full", "xi", "eta"):
            err("/solver/mode", "expected full, xi or eta")
        for key in SOLVER_RANGES:
            if key in solver:
                problem = _solver_setting_error(key, solver[key])
                if problem:
                    err(f"/solver/{key}", problem)
    return out


def _solver_setting_error(key, v):
    """Why ``v`` is not a valid value of the numeric solver setting ``key``
    (see ``SOLVER_RANGES``), or None when it is."""
    integer, lo, lo_open, hi = SOLVER_RANGES[key]
    ok = _is_integer(v) if integer else (_is_number(v) and math.isfinite(v))
    if ok and (v > lo if lo_open else v >= lo) and v <= hi:
        return None
    kind = "an integer" if integer else "a finite number"
    upper = f" and <= {hi:g}" if hi < math.inf else ""
    return f"expected {kind} {'>' if lo_open else '>='} {lo:g}{upper}"


def parse_geometry(doc) -> GeometryFile:
    """Build the topology and boundary data from a validated document."""
    findings = [f for f in validate_geometry(doc) if f.severity == "error"]
    if findings:
        raise InputError("; ".join(str(f) for f in findings))
    patches = []
    for p in doc["patches"]:
        tb = TensorBasis(KnotVector(p["degree_xi"], p["knots_xi"]),
                         KnotVector(p["degree_eta"], p["knots_eta"]))
        aff = p.get("affine")
        am = (AffinePatchMap(np.array(aff["A"]), np.array(aff["b"]))
              if aff else AffinePatchMap.identity())
        patches.append((tb, am))
    interfaces = [Interface(i["patch_a"], i["face_a"], i["patch_b"], i["face_b"],
                            bool(i.get("reversed", False)))
                  for i in doc.get("interfaces", [])]
    topology = build_topology(patches, interfaces)
    boundary_data = {}
    for pi, p in enumerate(doc["patches"]):
        for face, arr in p.get("boundary", {}).items():
            boundary_data[(pi, face)] = np.asarray(arr, dtype=float)
    for pi in range(topology.n_patches):
        for face in topology.unglued_faces[pi]:
            if (pi, face) not in boundary_data:
                raise InputError(
                    f"/patches/{pi}/boundary/{face}: missing curve for unglued face")
    for (pi, face) in boundary_data:
        if face not in topology.unglued_faces[pi]:
            raise InputError(
                f"/patches/{pi}/boundary/{face}: face is glued; no curve allowed")
    return GeometryFile(doc=doc, topology=topology,
                        boundary_data=boundary_data,
                        solver=dict(doc.get("solver", {})))


def load_geometry(path) -> GeometryFile:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return parse_geometry(doc)


def _atomic_write(path, text: str):
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            # mkstemp creates the file 0600; give it the mode open() would
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(fh.fileno(), 0o666 & ~umask)
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _quality_block(maps):
    """Bijectivity/energy report of per-patch maps: ``(block, per_patch)``,
    with ``block`` the solution file's quality block and ``per_patch`` a
    (sampled report, energy) pair per patch. The energy is the Winslow
    energy, or the error message when the map folds between the samples,
    or None when a sample folds."""
    per_patch = []
    for m in maps:
        rep = sampled_bijectivity(m, 5)
        energy = None
        if not rep.fold_count:
            # the map can still fold between the samples, at a quadrature point
            try:
                energy = winslow(m)
            except NonbijectiveMapError as exc:
                energy = str(exc)
        per_patch.append((rep, energy))
    ws = [e for _, e in per_patch]
    bijective = all(isinstance(e, float) for e in ws)
    block = {"min_detj": float(min(rep.min_detj for rep, _ in per_patch)),
             "fold_count": int(sum(rep.fold_count for rep, _ in per_patch)),
             "nonbijective": not bijective,
             "winslow_per_patch": [float(w) for w in ws] if bijective else None,
             "winslow_total": float(sum(ws)) if bijective else None}
    return block, per_patch


def geometry_doc_from_system(system: MixedSystem) -> dict:
    """Reconstruct a geometry document on the system's own basis (needed when
    the solve refined the file's basis through coarse-to-fine levels)."""
    topo = system.topology
    patches = []
    for i, tb in enumerate(topo.bases):
        p = {
            "degree_xi": tb.kv_xi.degree,
            "degree_eta": tb.kv_eta.degree,
            "knots_xi": [float(v) for v in tb.kv_xi.knots],
            "knots_eta": [float(v) for v in tb.kv_eta.knots],
        }
        am = topo.maps[i]
        if not (np.array_equal(am.A, np.eye(2)) and np.array_equal(am.b, np.zeros(2))):
            p["affine"] = {"A": [[float(v) for v in row] for row in am.A],
                           "b": [float(v) for v in am.b]}
        boundary = {}
        for face in topo.unglued_faces[i]:
            gl = topo.sig_l2g[i][tb.face_indices(face)]
            boundary[face] = [[float(x), float(y)]
                              for x, y in system._template[gl]]
        p["boundary"] = boundary
        patches.append(p)
    interfaces = [{"patch_a": itf.patch_a, "face_a": itf.face_a,
                   "patch_b": itf.patch_b, "face_b": itf.face_b,
                   "reversed": itf.reversed} for itf in topo.interfaces]
    return {"version": 1, "patches": patches, "interfaces": interfaces,
            "solver": {"mode": system.mode, "mu": system.mu,
                       "chi": system.chi}}


def solution_document(geometry_doc: dict, system: MixedSystem, c, report,
                      settings) -> dict:
    topo = system.topology
    control = system.full_control_net(c)
    maps = [topo.patch_map(i, control) for i in range(topo.n_patches)]
    nets = [[[float(x), float(y)] for x, y in m.control] for m in maps]
    return {
        "format": "eggmix-solution",
        "version": 1,
        "created_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "geometry": geometry_doc,
        "solver_settings": settings,
        "control_nets": nets,
        "converged": bool(report.converged),
        "residual_norm": NewtonState(system, system.project_d(c), c).r_norm,
        "report": report.to_dict(),
        "quality": _quality_block(maps)[0],
    }


def write_solution(path, sol: dict):
    _atomic_write(path, json.dumps(sol, indent=1, sort_keys=True) + "\n")


def load_solution(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        sol = json.load(fh)
    if not isinstance(sol, dict) or sol.get("format") != "eggmix-solution":
        raise InputError(f"{path} is not a solution file")
    return sol


def solution_control(sol: dict):
    """The parsed geometry of a solution and its global (n_sigma, 2) control
    net."""
    geo, maps = solution_patch_maps(sol)
    control = np.zeros((geo.topology.n_sigma, 2))
    for l2g, m in zip(geo.topology.sig_l2g, maps):
        control[l2g] = m.control
    return geo, control


def solution_system(sol: dict):
    """Rebuild the mixed system and coefficient vector stored in a solution."""
    geo, control = solution_control(sol)
    settings = sol["solver_settings"]
    bvals = boundary_values_from_faces(geo.topology, geo.boundary_data)
    system = MixedSystem(geo.topology, bvals, mode=settings["mode"],
                         chi=settings["chi"], mu=settings["mu"])
    c = system.net_as_c(control[geo.topology.inner_indices])
    return system, c, control


def solution_patch_maps(sol: dict):
    """The parsed geometry of a solution and its per-patch maps, each
    control net checked against its patch basis."""
    geo = parse_geometry(sol.get("geometry"))
    bases = geo.topology.bases
    nets = sol.get("control_nets")
    if not isinstance(nets, list) or len(nets) != len(bases):
        raise InputError(f"/control_nets: expected {len(bases)} control nets, "
                         "one per patch")
    maps = []
    for i, (tb, net) in enumerate(zip(bases, nets)):
        try:
            maps.append(SplineMap(tb, net))
        except (InputError, TypeError, ValueError) as exc:
            raise InputError(f"/control_nets/{i}: {exc}") from None
    return geo, maps


def solve(hierarchy, start, config: SolverConfig | None = None):
    """Solve the levels of ``build_system_hierarchy`` coarse to fine; a
    hierarchy of one level is the direct solve.

    ``start`` is "transfinite", "folded" or a full (n_sigma, 2) control net
    of the coarsest level. Each finer level starts from the c-component of
    the level below, prolonged; ``newton_solve`` recomputes the auxiliary
    part by L2 projection. The solve stops at the first level that does not
    converge. Returns ``(system, c, report)``: the last level run, its
    iterate and ``SolverReport.merge`` of the level reports.
    """
    config = config or SolverConfig()
    system = hierarchy[0].system
    if isinstance(start, str):
        if start not in ("transfinite", "folded"):
            raise InputError(f"unknown start {start!r}")
        net = transfinite_global(system)
        if start == "folded":
            net = folded_initial_guess(system, net)
    else:
        net = np.asarray(start, dtype=float)
        want = (system.topology.n_sigma, 2)
        if net.shape != want:
            raise InputError(f"the start control net has shape {net.shape}, "
                             f"not the {want} of the coarsest level")
    reports = []
    for level in hierarchy:
        if reports:
            net = level.prolong(system.full_control_net(c))
            system = level.system
        # called through this module, so that a wrapper set here sees every
        # Newton entry
        c, report = newton_solve(
            system, system.net_as_c(net[system.topology.inner_indices]), config)
        reports.append(report)
        if not report.converged:
            break
    return system, c, SolverReport.merge(reports)


# -- commands --------------------------------------------------------------------

def cmd_solve(args) -> int:
    if args.initial == "file" and not args.initial_file:
        print("input error: --initial file needs --initial-file", file=sys.stderr)
        return 1
    if args.initial_file and args.initial != "file":
        print("input error: --initial-file needs --initial file", file=sys.stderr)
        return 1
    try:
        geo = load_geometry(args.input)
    except (InputError, json.JSONDecodeError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    settings = {"mode": "full", "mu": 1e-4, "chi": 0.5, "coarse_levels": 0}
    settings.update({k: v for k, v in geo.solver.items() if k in SOLVER_KEYS})
    for key, flag in (("mode", "--mode"), ("mu", "--mu"), ("chi", "--chi"),
                      ("coarse_levels", "--coarse-levels"),
                      ("newton_tol", "--tol")):
        v = getattr(args, key)
        if v is not None:
            problem = None if key == "mode" else _solver_setting_error(key, v)
            if problem:
                print(f"input error: {flag}: {problem}", file=sys.stderr)
                return 1
            settings[key] = v  # CLI flags win over file settings
    config_kwargs = {k: settings[k] for k in
                     ("newton_tol", "max_newton", "gmres_tol", "gmres_max_iter")
                     if k in settings}
    out_path = args.out or os.path.splitext(args.input)[0] + ".solution.json"
    try:
        config = SolverConfig(verbose=args.verbose, **config_kwargs)
        start = args.initial
        if start == "file":
            _, start = solution_control(load_solution(args.initial_file))
        bvals = boundary_values_from_faces(geo.topology, geo.boundary_data)
        hierarchy = build_system_hierarchy(
            geo.topology, bvals, int(settings["coarse_levels"]),
            mode=settings["mode"], chi=settings["chi"], mu=settings["mu"])
        system, c, report = solve(hierarchy, start, config)
    except (InputError, EggmixError, json.JSONDecodeError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    # the embedded geometry must describe the basis the control nets live on
    geometry_doc = geo.doc if system.topology is geo.topology \
        else geometry_doc_from_system(system)
    sol = solution_document(geometry_doc, system, c, report, settings)
    write_solution(out_path, sol)
    print(f"wrote {out_path}")
    print(f"converged: {report.converged}  newton_iterations: "
          f"{report.newton_iterations}  rn_evals: {report.rn_evals}  "
          f"residual: {sol['residual_norm']:.3e}")
    q = sol["quality"]
    if q["nonbijective"]:
        where = f"{q['fold_count']} folded samples" if q["fold_count"] \
            else "det J <= 0 between the samples"
        print(f"quality: nonbijective ({where}, min detJ {q['min_detj']:.3e})")
    else:
        print(f"quality: winslow {q['winslow_total']:.6f}  min detJ "
              f"{q['min_detj']:.3e}")
    # a converged map that folds has not reached the fold-free solution
    return 0 if report.converged and not q["nonbijective"] else 2


def cmd_check(args) -> int:
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read {args.input}: {exc}", file=sys.stderr)
        return 1
    findings = validate_geometry(doc)
    if not any(f.severity == "error" for f in findings):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                geo = parse_geometry(doc)
                boundary_values_from_faces(geo.topology, geo.boundary_data)
                geo.topology.convexity_warning()
            except (KnotMismatchError, CornerMismatchError, InputError) as exc:
                findings.append(Finding("error", "", str(exc)))
            for w in caught:
                if issubclass(w.category, UserWarning):
                    findings.append(Finding("warning", "", str(w.message)))
    for f in findings:
        print(str(f))
    if not findings:
        print("ok")
    return 1 if any(f.severity == "error" for f in findings) else 0


def _sample_grid(kv, resolution):
    pts = []
    for e in range(kv.nelems):
        a, b = kv.breakpoints[e], kv.breakpoints[e + 1]
        pts.extend(a + (b - a) * np.arange(resolution) / resolution)
    pts.append(kv.breakpoints[-1])
    return np.asarray(pts)


def _sample_patch(pmap, resolution):
    xs = _sample_grid(pmap.basis.kv_xi, resolution)
    ys = _sample_grid(pmap.basis.kv_eta, resolution)
    jets = pmap.grid_jet(xs, ys, 1)
    a, b = jets["x_xi"], jets["x_eta"]
    detj = a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]
    return xs, ys, jets["x"], detj


def _write_csv(path, patches_samples):
    lines = ["patch,i,j,s,t,x,y,detj"]
    for pi, (xs, ys, X, detj) in enumerate(patches_samples):
        for i in range(len(xs)):
            for j in range(len(ys)):
                lines.append("%d,%d,%d,%.17g,%.17g,%.17g,%.17g,%.17g" % (
                    pi, i, j, xs[i], ys[j], X[i, j, 0], X[i, j, 1], detj[i, j]))
    _atomic_write(path, "\n".join(lines) + "\n")


def _write_vtk(path, patches_samples):
    multi = len(patches_samples) > 1
    for pi, (xs, ys, X, detj) in enumerate(patches_samples):
        out = path
        if multi:
            stem, ext = os.path.splitext(path)
            out = f"{stem}_p{pi}{ext or '.vtk'}"
        n = len(xs) * len(ys)
        # one bulk format per block over Python floats, xi-major like the grid
        _atomic_write(out, "".join([
            "# vtk DataFile Version 3.0\neggmix structured grid\nASCII\n"
            f"DATASET STRUCTURED_GRID\nDIMENSIONS {len(ys)} {len(xs)} 1\n"
            f"POINTS {n} double\n",
            ("%.17g %.17g 0\n" * n) % tuple(X.ravel().tolist()),
            f"POINT_DATA {n}\nSCALARS detj double 1\nLOOKUP_TABLE default\n",
            ("%.17g\n" * n) % tuple(detj.ravel().tolist())]))


def svg_isolines(maps, resolution):
    """Images of all element-boundary knot lines, one polyline per line.

    Each patch is sampled once on a grid of r = ``max(resolution, 4)``
    points per element, whose every r-th line is a breakpoint line."""
    r = max(resolution, 4)
    polylines = []
    for pmap in maps:
        kx, ky = pmap.basis.kv_xi, pmap.basis.kv_eta
        X = pmap.grid_jet(_sample_grid(kx, r), _sample_grid(ky, r), 0)["x"]
        polylines.extend(X[::r])
        polylines.extend(X[:, ::r].swapaxes(0, 1))
    return polylines


def _write_svg(path, maps, resolution):
    polylines = svg_isolines(maps, resolution)
    allpts = np.vstack(polylines)
    lo = allpts.min(axis=0)
    hi = allpts.max(axis=0)
    margin = 0.05 * max(hi - lo)
    lo -= margin
    hi += margin
    w, h = hi - lo
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="%.6f %.6f %.6f %.6f" '
        f'width="640" height="%d">' % (lo[0], -hi[1], w, h, int(640 * h / w)),
        f'<g transform="scale(1,-1)" fill="none" stroke="black" '
        f'stroke-width="%.6f">' % (0.002 * max(w, h)),
    ]
    # one bulk format per polyline over Python floats, as in _write_vtk
    for poly in polylines:
        pts = " ".join(["%.6f,%.6f"] * len(poly)) % tuple(poly.ravel().tolist())
        lines.append(f'<polyline points="{pts}"/>')
    lines += ["</g>", "</svg>"]
    _atomic_write(path, "\n".join(lines) + "\n")


def cmd_sample(args) -> int:
    if args.resolution < 1:
        print("input error: --resolution: expected an integer >= 1", file=sys.stderr)
        return 1
    try:
        sol = load_solution(args.input)
        geo, maps = solution_patch_maps(sol)
    except (InputError, json.JSONDecodeError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    if args.format not in ("vtk", "svg", "csv"):
        print(f"input error: unknown format {args.format!r}", file=sys.stderr)
        return 1
    out = args.out or os.path.splitext(args.input)[0] + "." + args.format
    if args.format == "svg":
        _write_svg(out, maps, args.resolution)
    elif args.format == "csv":
        _write_csv(out, [_sample_patch(m, args.resolution) for m in maps])
    else:
        _write_vtk(out, [_sample_patch(m, args.resolution) for m in maps])
    print(f"wrote {out}")
    return 0


def cmd_quality(args) -> int:
    try:
        sol = load_solution(args.input)
        geo, maps = solution_patch_maps(sol)
    except (InputError, json.JSONDecodeError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    block, per_patch = _quality_block(maps)
    for i, (rep, energy) in enumerate(per_patch):
        if rep.fold_count:
            print(f"patch {i}: nonbijective ({rep.fold_count} folded samples)")
            for loc in rep.fold_locations[:10]:
                print("  fold at s=%.4f t=%.4f detJ=%.3e" % loc)
        elif isinstance(energy, str):
            print(f"patch {i}: nonbijective between the samples ({energy})")
        else:
            print(f"patch {i}: winslow {energy:.6f}  min detJ {rep.min_detj:.6e}")
    if block["nonbijective"]:
        print("nonbijective")
    else:
        print(f"total winslow: {block['winslow_total']:.6f}")
    print(f"min detJ: {block['min_detj']:.6e}")
    return 0


@functools.cache
def _parser():
    """The command-line parser, built once per process: ``main`` may run
    many commands in one process, and building the parser costs more than
    parsing."""
    parser = argparse.ArgumentParser(
        prog="eggmix",
        description="Folding-free planar spline parameterization from "
                    "boundary contours (mixed-form elliptic grid generation)")
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="solve a geometry file")
    ps.add_argument("input")
    ps.add_argument("--out", default=None)
    ps.add_argument("--mode", choices=("full", "xi", "eta"), default=None)
    ps.add_argument("--mu", type=float, default=None)
    ps.add_argument("--chi", type=float, default=None)
    ps.add_argument("--coarse-levels", dest="coarse_levels", type=int, default=None)
    ps.add_argument("--tol", dest="newton_tol", type=float, default=None,
                    help="stop when the residual norm is at most TOL times "
                         "the residual scale of the boundary data "
                         "(default 1e-8)")
    ps.add_argument("--initial", choices=("transfinite", "file", "folded"),
                    default="transfinite")
    ps.add_argument("--initial-file", default=None)
    ps.add_argument("--verbose", action="store_true")
    ps.set_defaults(fn=cmd_solve)

    pc = sub.add_parser("check", help="validate a geometry file")
    pc.add_argument("input")
    pc.set_defaults(fn=cmd_check)

    pm = sub.add_parser("sample", help="export a solved map as a mesh")
    pm.add_argument("input")
    pm.add_argument("--resolution", type=int, default=4)
    pm.add_argument("--format", choices=("vtk", "svg", "csv"), default="vtk")
    pm.add_argument("--out", default=None)
    pm.set_defaults(fn=cmd_sample)

    pq = sub.add_parser("quality", help="report Winslow energy and bijectivity")
    pq.add_argument("input")
    pq.set_defaults(fn=cmd_quality)
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, after printing its message;
        # 2 is this program's non-convergence code, so report 1 instead
        return 1 if exc.code else 0
    return args.fn(args)


def console_main():
    sys.exit(main())


if __name__ == "__main__":
    console_main()
