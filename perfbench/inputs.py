"""Seeded benchmark inputs.

Seed 0 copies the bundled geometry files byte for byte. Any other seed moves
every boundary control point of every unglued face along the face's chord
normal by a smooth displacement (three sine modes in the face parameter) that
vanishes at the face ends and stays within ``AMPLITUDE`` of the face's control
polygon length. A draw is rejected and redrawn deterministically only when the
perturbed boundary polygon is not regular and simple; solver outcomes never
influence the inputs.
"""

from __future__ import annotations

import hashlib
import json
import pathlib

import numpy as np

GEOMETRIES = ("square", "quarter_annulus", "lbend", "tube", "two_patch_square",
              "bat")
AMPLITUDE = 0.0005
MODES = 3
MAX_DRAWS = 100


def bundled_path(root: pathlib.Path, name: str) -> pathlib.Path:
    return root / "src" / "eggmix" / "geometries" / f"{name}.json"


def sha256(path: pathlib.Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _dump(doc) -> str:
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def _segments_cross(p, q, r, s) -> bool:
    """Proper or touching intersection of segments pq and rs."""
    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    d1, d2 = orient(r, s, p), orient(r, s, q)
    d3, d4 = orient(p, q, r), orient(p, q, s)
    if d1 * d2 > 0 or d3 * d4 > 0:
        return False
    # collinear pieces count as crossing only when their extents overlap
    lo = np.maximum(np.minimum(p, q), np.minimum(r, s))
    hi = np.minimum(np.maximum(p, q), np.maximum(r, s))
    return bool(np.all(lo <= hi))


def boundary_is_simple(doc) -> bool:
    """All unglued-face control polygons are regular (no repeated point) and
    no two of their segments meet except consecutive segments of one face
    and segments sharing a face end point."""
    segs = []
    for pi, patch in enumerate(doc["patches"]):
        for face, pts in patch.get("boundary", {}).items():
            pts = np.asarray(pts, dtype=float)
            step = np.linalg.norm(np.diff(pts, axis=0), axis=1)
            if np.any(step <= 1e-9 * step.sum()):
                return False
            for k in range(len(pts) - 1):
                segs.append(((pi, face), k, pts[k], pts[k + 1]))
    for a in range(len(segs)):
        fa, ka, p, q = segs[a]
        for b in range(a + 1, len(segs)):
            fb, kb, r, s = segs[b]
            if fa == fb and abs(ka - kb) == 1:
                continue
            if fa != fb and _shares_end(p, q, r, s):
                continue
            if _segments_cross(p, q, r, s):
                return False
    return True


def _shares_end(p, q, r, s) -> bool:
    return any(np.array_equal(u, v) for u in (p, q) for v in (r, s))


def _perturb_face(pts, rng):
    pts = np.asarray(pts, dtype=float)
    chord = pts[-1] - pts[0]
    normal = np.array([-chord[1], chord[0]]) / np.linalg.norm(chord)
    length = float(np.linalg.norm(np.diff(pts, axis=0), axis=1).sum())
    t = np.linspace(0.0, 1.0, len(pts))
    coef = rng.uniform(-1.0, 1.0, MODES)
    shape = sum(c * np.sin((m + 1) * np.pi * t) for m, c in enumerate(coef))
    shape *= AMPLITUDE * length / np.abs(coef).sum()
    out = pts + shape[:, None] * normal[None, :]
    out[0], out[-1] = pts[0], pts[-1]   # face ends stay exact
    return out


def perturbed(doc, seed: int, index: int):
    """(document, draws) for one geometry; draws counts rejected draws + 1."""
    for draw in range(MAX_DRAWS):
        rng = np.random.default_rng([seed, index, draw])
        out = json.loads(json.dumps(doc))
        for patch in out["patches"]:
            for face in sorted(patch.get("boundary", {})):
                patch["boundary"][face] = [
                    [float(x), float(y)]
                    for x, y in _perturb_face(patch["boundary"][face], rng)]
        if boundary_is_simple(out):
            return out, draw + 1
    raise RuntimeError(f"no simple boundary after {MAX_DRAWS} draws")


def write_geometries(root: pathlib.Path, out_dir: pathlib.Path, seed: int,
                     names=GEOMETRIES) -> dict:
    """Write the seeded geometry files; returns {name: (path, draws)}."""
    out_dir.mkdir(parents=True, exist_ok=True)
    out = {}
    for name in names:
        src = bundled_path(root, name)
        dst = out_dir / f"{name}.json"
        if seed == 0:
            dst.write_bytes(src.read_bytes())
            out[name] = (dst, 1)
            continue
        doc = json.loads(src.read_text(encoding="utf-8"))
        pdoc, draws = perturbed(doc, seed, GEOMETRIES.index(name))
        dst.write_text(_dump(pdoc), encoding="utf-8")
        out[name] = (dst, draws)
    return out


def write_refined(geometry_path: pathlib.Path, dst: pathlib.Path, mode: str):
    """Exact one-level h-refinement of a geometry file through the program's
    own system hierarchy."""
    from eggmix.assembly import boundary_values_from_faces
    from eggmix.io_cli import geometry_doc_from_system, load_geometry
    from eggmix.solver import build_system_hierarchy

    geo = load_geometry(geometry_path)
    bvals = boundary_values_from_faces(geo.topology, geo.boundary_data)
    fine = build_system_hierarchy(geo.topology, bvals, 1, mode=mode)[-1].system
    dst.write_text(_dump(geometry_doc_from_system(fine)), encoding="utf-8")
    return dst
