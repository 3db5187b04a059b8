"""Geometry ingestion, solve orchestration, quality reporting and mesh export.

Geometry and solution files are JSON (schema in docs/geometry_schema.json);
mesh export writes legacy-VTK structured grids, SVG isoline plots or CSV
point tables. :func:`solve` is the one solve path of the command line and
the library: a direct solve is a hierarchy of one level. Exit codes: 0
converged to a bijective map, 1 input or usage error, 2 not converged (out
of Newton steps, or stagnated) or converged to a folded map. The commands
raise on failure; :func:`main` alone maps an error to its exit code and its
one ``input error:`` line on stderr.
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import os
import sys
import tempfile
import warnings
from dataclasses import dataclass

import numpy as np

from .assembly import MixedSystem, boundary_values_from_faces
from .errors import EggmixError, InputError, NonbijectiveMapError
from .geometries import patch_doc
from .mapping import SplineMap, sampled_bijectivity, winslow
from .multipatch import AffinePatchMap, Interface, PatchTopology, build_topology
from .settings import DEFAULTS, MODES, is_integer, is_number, setting_problem
from .solver import SolverConfig, SolverReport, \
    build_system_hierarchy, folded_initial_guess, newton_solve, \
    transfinite_global
from .splines import FACES, KnotVector, TensorBasis

# the keys of the objects of docs/geometry_schema.json (the solver keys are
# those of settings.DEFAULTS); the validator warns about any other key, and
# parsing ignores it
TOP_KEYS = ("version", "patches", "interfaces", "solver")
PATCH_KEYS = ("degree_xi", "degree_eta", "knots_xi", "knots_eta", "affine",
              "boundary")
AFFINE_KEYS = ("A", "b")
INTERFACE_KEYS = ("patch_a", "face_a", "patch_b", "face_b", "reversed")


@dataclass
class Finding:
    severity: str   # "error" | "warning"
    pointer: str    # JSON pointer into the document
    message: str

    def __str__(self):
        return f"{self.severity}: {_located(self.pointer, self.message)}"


def _located(pointer, message):
    """``message`` prefixed with the JSON pointer it is about, unless that
    is the document root ``""``."""
    return f"{pointer}: {message}" if pointer else message


@dataclass
class GeometryFile:
    doc: dict
    topology: PatchTopology
    boundary_data: dict
    solver: dict


def _unknown_keys(obj, known, ptr, what="key"):
    """A warning for every key of the object ``obj`` (at JSON pointer
    ``ptr``) that is not in ``known``."""
    return [Finding("warning",
                    f"{ptr}/" + str(key).replace("~", "~0").replace("/", "~1"),
                    f"unknown {what} (ignored)")
            for key in obj if key not in known]


def _is_point_array(arr):
    """Whether ``arr`` is an array of [x, y] pairs of numbers, checked in
    one pass over the pairs."""
    return isinstance(arr, list) and all(
        isinstance(q, list) and len(q) == 2 and is_number(q[0])
        and is_number(q[1]) for q in arr)


def validate_geometry(doc) -> list:
    """Structural schema validation; returns findings with JSON-pointer
    paths: errors, and a warning for each unknown key, which is ignored."""
    return _validate(doc)[0]


def _validate(doc):
    """The findings of :func:`validate_geometry` and the knot vectors it
    built while checking them, ``{(patch index, "knots_xi" or
    "knots_eta"): KnotVector}`` for each valid one."""
    out = []
    knots = {}
    err = lambda ptr, msg: out.append(Finding("error", ptr, msg))
    if not isinstance(doc, dict):
        err("", "document must be a JSON object")
        return out, knots
    out += _unknown_keys(doc, TOP_KEYS, "")
    if not (is_integer(doc.get("version")) and doc["version"] == 1):
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
        out += _unknown_keys(p, PATCH_KEYS, ptr)
        for key in ("degree_xi", "degree_eta"):
            if not is_integer(p.get(key)) or p[key] < 1:
                err(f"{ptr}/{key}", "expected an integer >= 1")
        for key in ("knots_xi", "knots_eta"):
            kn = p.get(key)
            if not isinstance(kn, list) or not all(map(is_number, kn)):
                err(f"{ptr}/{key}", "expected an array of numbers")
                continue
            deg = p.get("degree_xi" if key == "knots_xi" else "degree_eta")
            if is_integer(deg) and deg >= 1:
                try:
                    knots[i, key] = KnotVector(deg, kn)
                except InputError as exc:
                    err(f"{ptr}/{key}", str(exc))
        aff = p.get("affine")
        if aff is not None:
            A = aff.get("A") if isinstance(aff, dict) else None
            b = aff.get("b") if isinstance(aff, dict) else None
            ok = (isinstance(A, list) and len(A) == 2
                  and all(isinstance(r, list) and len(r) == 2
                          and all(is_number(v) for v in r) for r in A))
            if not ok:
                err(f"{ptr}/affine/A", "expected a 2x2 number matrix")
            if not (isinstance(b, list) and len(b) == 2
                    and all(is_number(v) for v in b)):
                err(f"{ptr}/affine/b", "expected a 2-vector")
            if ok and A[0][0] * A[1][1] - A[0][1] * A[1][0] == 0:
                err(f"{ptr}/affine/A", "matrix must be invertible")
            if isinstance(aff, dict):
                out += _unknown_keys(aff, AFFINE_KEYS, f"{ptr}/affine")
        bnd = p.get("boundary", {})
        if not isinstance(bnd, dict):
            err(f"{ptr}/boundary", "expected an object keyed by face name")
        else:
            for face, arr in bnd.items():
                if face not in FACES:
                    err(f"{ptr}/boundary/{face}", "unknown face name")
                elif not _is_point_array(arr):
                    err(f"{ptr}/boundary/{face}", "expected an array of [x, y] pairs")
                else:
                    points.update(map(tuple, arr))
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
        out += _unknown_keys(itf, INTERFACE_KEYS, ptr)
        for key in ("patch_a", "patch_b"):
            v = itf.get(key)
            if not is_integer(v) or not 0 <= v < len(patches):
                err(f"{ptr}/{key}", "expected a valid patch index")
        for key in ("face_a", "face_b"):
            if itf.get(key) not in FACES:
                err(f"{ptr}/{key}", f"expected one of {FACES}")
        if "reversed" in itf and not isinstance(itf["reversed"], bool):
            err(f"{ptr}/reversed", "expected a boolean")
    solver = doc.get("solver", {})
    if not isinstance(solver, dict):
        err("/solver", "expected an object")
    else:
        out += _unknown_keys(solver, DEFAULTS, "/solver", "solver setting")
        for key in DEFAULTS:
            problem = setting_problem(key, solver[key]) if key in solver else None
            if problem:
                err(f"/solver/{key}", problem)
    return out, knots


def parse_geometry(doc) -> GeometryFile:
    """Build the topology and boundary data from a validated document; the
    patch bases share the knot vectors that validation built."""
    findings, knots = _validate(doc)
    errors = [_located(f.pointer, f.message) for f in findings
              if f.severity == "error"]
    if errors:
        raise InputError("; ".join(errors))
    patches = []
    for i, p in enumerate(doc["patches"]):
        tb = TensorBasis(knots[i, "knots_xi"], knots[i, "knots_eta"])
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


class _WriteError(OSError):
    """An output file that cannot be written; ``filename`` names it."""


def _unwritable(path):
    """Raise the :class:`_WriteError` that writing ``path`` would meet for
    want of its directory, of write access to it, or because ``path`` is a
    directory; return when none of these applies."""
    d = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.isdir(d):
        code = errno.ENOENT
    elif not os.access(d, os.W_OK | os.X_OK):
        code = errno.EACCES
    else:
        return
    raise _WriteError(code, os.strerror(code), path)


def _atomic_write(files):
    """Write the ``(path, text)`` pairs of ``files`` all or nothing.

    Each text goes to a temporary file in its path's directory; the
    temporary files move into place only when every one is written and no
    path is a directory. On failure no temporary file and no file of this
    call is left behind, and the :class:`_WriteError` raised names the path
    that could not be written."""
    # mkstemp creates its files 0600; give them the mode open() would
    umask = os.umask(0)
    os.umask(umask)
    written, moved = [], []  # (temporary, path) pairs; paths in place
    path = None
    try:
        for path, text in files:
            fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)),
                                       suffix=".tmp")
            written.append((tmp, path))
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                os.fchmod(fh.fileno(), 0o666 & ~umask)
                fh.write(text)
        for _, path in written:
            _unwritable(path)
        for tmp, path in written:
            os.replace(tmp, path)
            moved.append(path)
    except BaseException as exc:
        for tmp, _ in written:
            if os.path.lexists(tmp):
                os.unlink(tmp)
        for done in moved:
            os.unlink(done)
        if isinstance(exc, OSError) and exc.errno is not None:
            raise _WriteError(exc.errno, exc.strerror, path) from None
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
    the solve refined the file's basis through coarse-to-fine levels). Each
    patch is written by :func:`eggmix.geometries.patch_doc`, as the bundled
    builders write theirs."""
    topo = system.topology
    patches = []
    for i, (tb, am) in enumerate(zip(topo.bases, topo.maps)):
        identity = np.array_equal(am.A, np.eye(2)) \
            and np.array_equal(am.b, np.zeros(2))
        boundary = {face: system._template[topo.sig_l2g[i][tb.face_indices(face)]]
                    for face in topo.unglued_faces[i]}
        patches.append(patch_doc(tb.kv_xi, tb.kv_eta, boundary,
                                 None if identity else (am.A, am.b)))
    interfaces = [{"patch_a": itf.patch_a, "face_a": itf.face_a,
                   "patch_b": itf.patch_b, "face_b": itf.face_b,
                   "reversed": itf.reversed} for itf in topo.interfaces]
    return {"version": 1, "patches": patches, "interfaces": interfaces,
            "solver": {"mode": system.mode, "mu": system.mu,
                       "chi": system.chi}}


def solution_document(geometry_doc: dict, system: MixedSystem, c, report,
                      settings) -> dict:
    """The solution file's document for the iterate ``c`` of ``system`` that
    the solve behind ``report`` returned: the per-patch control nets as
    nested lists, the report, its quality block, and as ``residual_norm``
    the solve's ``report.final_residual``, the residual norm of (R_L, R_N)
    at the returned iterate (not evaluated again here)."""
    topo = system.topology
    control = system.full_control_net(c)
    maps = [topo.patch_map(i, control) for i in range(topo.n_patches)]
    return {
        "format": "eggmix-solution",
        "version": 1,
        "geometry": geometry_doc,
        "solver_settings": settings,
        "control_nets": [m.control.tolist() for m in maps],
        "converged": bool(report.converged),
        "residual_norm": float(report.final_residual),
        "report": report.to_dict(),
        "quality": _quality_block(maps)[0],
    }


def write_solution(path, sol: dict):
    """Write a solution document as one line of compact JSON with sorted
    keys (json's C encoder; ``python -m json.tool FILE`` pretty-prints
    it), atomically: see :func:`_atomic_write`."""
    _atomic_write([(path, json.dumps(sol, sort_keys=True) + "\n")])


def load_solution(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        sol = json.load(fh)
    if not isinstance(sol, dict) or sol.get("format") != "eggmix-solution":
        raise InputError(f"{path} is not a solution file")
    return sol


def solution_start(sol: dict, topology):
    """The global (n_sigma, 2) control net of ``topology`` assembled from
    the per-patch control nets of a solution, each checked against the
    patch basis of ``topology`` (see :func:`_solution_maps`). The solution's
    embedded geometry is not read: a start needs its nets alone."""
    control = np.zeros((topology.n_sigma, 2))
    for l2g, m in zip(topology.sig_l2g, _solution_maps(sol, topology.bases)):
        control[l2g] = m.control
    return control


def solution_system(sol: dict):
    """Rebuild the mixed system and coefficient vector stored in a solution."""
    geo = parse_geometry(sol.get("geometry"))
    control = solution_start(sol, geo.topology)
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
    return geo, _solution_maps(sol, geo.topology.bases)


def _solution_maps(sol: dict, bases):
    """The per-patch maps of the control nets of a solution on ``bases``:
    one net per basis, each of the basis's shape and finite, or InputError
    at the pointer of the first that is not."""
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
        if not np.isfinite(maps[-1].control).all():
            raise InputError(f"/control_nets/{i}: control points must be finite")
    return maps


def solve(hierarchy, start, config: SolverConfig | None = None):
    """Solve the levels of ``build_system_hierarchy`` coarse to fine; a
    hierarchy of one level is the direct solve.

    ``start`` is "transfinite", "folded" or a full (n_sigma, 2) control net
    of the coarsest level. Each finer level starts from the level's
    ``transfer`` times the c-component of the level below; ``newton_solve``
    recomputes the auxiliary part by L2 projection. The solve stops at the
    first level that does not converge. Returns ``(system, c, report)``:
    the last level run, its iterate and ``SolverReport.merge`` of the level
    reports.
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
    for i, level in enumerate(hierarchy):
        if reports:
            net = level.transfer @ system.full_control_net(c)
            system = level.system
        # called through this module, so that a wrapper set here sees every
        # Newton entry
        c, report = newton_solve(
            system, system.net_as_c(net[system.topology.inner_indices]), config,
            level=i)
        reports.append(report)
        if not report.converged:
            break
    return system, c, SolverReport.merge(reports)


# -- commands --------------------------------------------------------------------

def cmd_solve(args) -> int:
    if args.initial == "file" and not args.initial_file:
        raise InputError("--initial file needs --initial-file")
    if args.initial_file and args.initial != "file":
        raise InputError("--initial-file needs --initial file")
    out_path = args.out or os.path.splitext(args.input)[0] + ".solution.json"
    # refuse an output that cannot be written before any load or solve
    _unwritable(out_path)
    geo = load_geometry(args.input)
    # the solution file records the system's settings and the levels always,
    # the Newton settings when the file or a flag sets them
    settings = {k: DEFAULTS[k] for k in ("mode", "mu", "chi", "coarse_levels")}
    settings.update({k: v for k, v in geo.solver.items() if k in DEFAULTS})
    for key, flag in (("mode", "--mode"), ("mu", "--mu"), ("chi", "--chi"),
                      ("coarse_levels", "--coarse-levels"),
                      ("newton_tol", "--tol")):
        v = getattr(args, key)
        if v is not None:
            problem = setting_problem(key, v)
            if problem:
                raise InputError(f"{flag}: {problem}")
            settings[key] = v  # CLI flags win over file settings
    config_kwargs = {k: settings[k] for k in ("newton_tol", "max_newton")
                     if k in settings}
    config = SolverConfig(verbose=args.verbose, **config_kwargs)
    start = args.initial
    if start == "file":
        start = solution_start(load_solution(args.initial_file), geo.topology)
    bvals = boundary_values_from_faces(geo.topology, geo.boundary_data)
    hierarchy = build_system_hierarchy(
        geo.topology, bvals, settings["coarse_levels"],
        mode=settings["mode"], chi=settings["chi"], mu=settings["mu"])
    system, c, report = solve(hierarchy, start, config)
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
    with open(args.input, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    findings = validate_geometry(doc)
    if not any(f.severity == "error" for f in findings):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                geo = parse_geometry(doc)
                boundary_values_from_faces(geo.topology, geo.boundary_data)
                geo.topology.convexity_warning()
            except InputError as exc:
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
    parts = ["patch,i,j,s,t,x,y,detj\n"]
    for pi, (xs, ys, X, detj) in enumerate(patches_samples):
        # one bulk format per patch over Python floats, xi-major like the
        # grid; %d prints the integral floats of the index columns exactly
        n = len(xs) * len(ys)
        i, j = np.divmod(np.arange(n), len(ys))
        rows = np.column_stack([np.full(n, pi), i, j, xs[i], ys[j],
                                X.reshape(n, 2), detj.reshape(n)])
        parts.append(("%d,%d,%d,%.17g,%.17g,%.17g,%.17g,%.17g\n" * n)
                     % tuple(rows.ravel().tolist()))
    _atomic_write([(path, "".join(parts))])


def _vtk_files(path, patches_samples):
    """The (path, text) pair of each patch's structured-grid file: ``path``
    itself for one patch, ``STEM_pI.EXT`` for patch I of several.

    Points and det J are written with 9 significant digits (``%.9g``): a
    float32 round trip, within 5e-9 relative of the sampled doubles, under
    the ``double`` tag. CSV is the exact (``%.17g``) export. CPython formats
    up to 14 digits mostly by a floating-point fast path and 17 digits by
    bignum arithmetic, at over twice the cost per number."""
    multi = len(patches_samples) > 1
    for pi, (xs, ys, X, detj) in enumerate(patches_samples):
        out = path
        if multi:
            stem, ext = os.path.splitext(path)
            out = f"{stem}_p{pi}{ext or '.vtk'}"
        n = len(xs) * len(ys)
        # one bulk format per block over Python floats, xi-major like the grid
        yield out, "".join([
            "# vtk DataFile Version 3.0\neggmix structured grid\nASCII\n"
            f"DATASET STRUCTURED_GRID\nDIMENSIONS {len(ys)} {len(xs)} 1\n"
            f"POINTS {n} double\n",
            ("%.9g %.9g 0\n" * n) % tuple(X.ravel().tolist()),
            f"POINT_DATA {n}\nSCALARS detj double 1\nLOOKUP_TABLE default\n",
            ("%.9g\n" * n) % tuple(detj.ravel().tolist())])


def _write_vtk(path, patches_samples):
    """Write every patch's file of :func:`_vtk_files`, all or nothing."""
    _atomic_write(_vtk_files(path, patches_samples))


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
    if not (np.isfinite([*lo, *hi, w, h]).all() and w > 0 and h > 0):
        raise InputError("cannot draw the map: its sampled image is not "
                         "finite or has zero extent")
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
    _atomic_write([(path, "\n".join(lines) + "\n")])


def cmd_sample(args) -> int:
    if args.resolution < 1:
        raise InputError("--resolution: expected an integer >= 1")
    out = args.out or os.path.splitext(args.input)[0] + "." + args.format
    # refuse an output that cannot be written before the solution is loaded
    _unwritable(out)
    _, maps = solution_patch_maps(load_solution(args.input))
    if args.format == "svg":
        _write_svg(out, maps, args.resolution)
    elif args.format == "csv":
        _write_csv(out, [_sample_patch(m, args.resolution) for m in maps])
    else:
        _write_vtk(out, [_sample_patch(m, args.resolution) for m in maps])
    print(f"wrote {out}")
    return 0


def cmd_quality(args) -> int:
    _, maps = solution_patch_maps(load_solution(args.input))
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
    ps.add_argument("--mode", choices=MODES, default=None)
    ps.add_argument("--mu", type=float, default=None)
    ps.add_argument("--chi", type=float, default=None)
    ps.add_argument("--coarse-levels", dest="coarse_levels", type=int, default=None)
    ps.add_argument("--tol", dest="newton_tol", type=float, default=None,
                    help="stop when the residual norm is at most TOL times "
                         "the residual scale of the boundary data "
                         f"(default {DEFAULTS['newton_tol']:g})")
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
    try:
        return args.fn(args)
    except _WriteError as exc:
        print(f"input error: cannot write {exc.filename}: {exc.strerror}",
              file=sys.stderr)
    except (EggmixError, json.JSONDecodeError, UnicodeDecodeError,
            OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
    return 1


def console_main():
    sys.exit(main())


if __name__ == "__main__":
    console_main()
