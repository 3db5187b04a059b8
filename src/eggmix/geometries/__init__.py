"""Bundled sample geometries and their programmatic builders.

Every builder returns a geometry document (the JSON structure the CLI
consumes). The shipped ``*.json`` files are generated from these builders by
``scripts/make_geometries.py``; see README.md in this directory for what each
geometry is.
"""

from __future__ import annotations

import importlib.resources
import json

import numpy as np

from ..splines import KnotVector, uniform_knots


def path(name: str):
    """Filesystem path of a bundled geometry JSON (without extension ok)."""
    if not name.endswith(".json"):
        name = name + ".json"
    return importlib.resources.files(__package__) / name


def load(name: str) -> dict:
    with open(path(name), "r", encoding="utf-8") as fh:
        return json.load(fh)


def _curve(kv: KnotVector, fn):
    """Interpolated curve coefficients with endpoint snap (kills the solve
    roundoff at corners so adjacent faces agree exactly)."""
    coeffs = kv.interpolate(lambda t: np.asarray(fn(t), dtype=float))
    coeffs[0] = np.asarray(fn(0.0), dtype=float)
    coeffs[-1] = np.asarray(fn(1.0), dtype=float)
    return coeffs


def patch_doc(kv_xi, kv_eta, boundary=None, affine=None):
    """One patch object of a geometry document: the degrees and knot vectors
    of ``kv_xi`` and ``kv_eta``; ``affine``, an ``(A, b)`` pair, when given;
    and ``boundary``, a dict of (n, 2) curve control points per face name,
    whenever it is given, also when it is empty. Knots and coordinates
    become Python floats, so the object is ready for ``json.dumps``."""
    doc = {
        "degree_xi": kv_xi.degree,
        "degree_eta": kv_eta.degree,
        "knots_xi": [float(v) for v in kv_xi.knots],
        "knots_eta": [float(v) for v in kv_eta.knots],
    }
    if affine is not None:
        A, b = affine
        doc["affine"] = {"A": [[float(v) for v in row] for row in np.asarray(A)],
                         "b": [float(v) for v in np.asarray(b)]}
    if boundary is not None:
        doc["boundary"] = {face: [[float(x), float(y)] for x, y in arr]
                           for face, arr in boundary.items()}
    return doc


def build_square(degree: int = 2, nelems: int = 4) -> dict:
    """Unit square with identity boundary; the solved map is the identity."""
    kx = uniform_knots(degree, nelems)
    ky = uniform_knots(degree, nelems)
    gx, gy = kx.greville, ky.greville
    boundary = {
        "south": np.column_stack([gx, np.zeros_like(gx)]),
        "north": np.column_stack([gx, np.ones_like(gx)]),
        "west": np.column_stack([np.zeros_like(gy), gy]),
        "east": np.column_stack([np.ones_like(gy), gy]),
    }
    return {"version": 1,
            "patches": [patch_doc(kx, ky, boundary)],
            "interfaces": [],
            "solver": {"mode": "full"}}


def exact_annulus_map(xi, eta):
    """Closed-form inverse-harmonic map of the quarter annulus with radii 1
    and 2: both components of its inverse (log2 r and 2 theta / pi) are
    harmonic."""
    r = np.exp(np.log(2.0) * np.asarray(xi))
    th = 0.5 * np.pi * np.asarray(eta)
    return np.stack([r * np.cos(th), r * np.sin(th)], axis=-1)


def build_quarter_annulus(degree: int = 2, nelems: int = 4) -> dict:
    """Quarter annulus, radii 1 and 2; boundary curves interpolate the exact
    inverse-harmonic map on the four edges."""
    kx = uniform_knots(degree, nelems)
    ky = uniform_knots(degree, nelems)
    boundary = {
        "south": _curve(kx, lambda t: exact_annulus_map(t, 0.0)),
        "north": _curve(kx, lambda t: exact_annulus_map(t, 1.0)),
        "west": _curve(ky, lambda t: exact_annulus_map(0.0, t)),
        "east": _curve(ky, lambda t: exact_annulus_map(1.0, t)),
    }
    return {"version": 1,
            "patches": [patch_doc(kx, ky, boundary)],
            "interfaces": [],
            "solver": {"mode": "full"}}


def _lbend_outer(t):
    return (2.0 - 4.0 * t, 0.0) if t <= 0.5 else (0.0, 4.0 * t - 2.0)


def _lbend_inner(t):
    return (2.0 - 2.0 * t, 1.0) if t <= 0.5 else (1.0, 2.0 * t)


def build_lbend(degree: int = 3, nelems_xi: int = 8, nelems_eta: int = 8) -> dict:
    """L-shaped bend traversed lengthwise, with a degree-fold knot at
    xi = 0.5 resolving the two corners. Mirror-symmetric across y = x.

    The inner contour sits at eta = 0 and the outer at eta = 1 so that the
    parameterization is positively oriented (det J > 0)."""
    kx = uniform_knots(degree, nelems_xi, c0_breaks=(0.5,))
    ky = uniform_knots(degree, nelems_eta)
    gy = ky.greville
    boundary = {
        "south": _curve(kx, _lbend_inner),
        "north": _curve(kx, _lbend_outer),
        "west": np.column_stack([np.full_like(gy, 2.0), 1.0 - gy]),
        "east": np.column_stack([1.0 - gy, np.full_like(gy, 2.0)]),
    }
    return {"version": 1,
            "patches": [patch_doc(kx, ky, boundary)],
            "interfaces": [],
            "solver": {"mode": "xi"}}


def build_tube(degree: int = 3, nelems_xi: int = 10, nelems_eta: int = 4) -> dict:
    """Curved channel (half turn) with gently waving walls and a degree-fold
    knot at xi = 0.5; defaults to the xi-only auxiliary mode.

    xi runs along the channel, eta from the outer to the inner wall (that
    order keeps det J > 0)."""
    kx = uniform_knots(degree, nelems_xi, c0_breaks=(0.5,))
    ky = uniform_knots(degree, nelems_eta)

    def wall(radius_fn):
        def fn(t):
            th = np.pi * t
            r = radius_fn(t)
            return (r * np.cos(th), r * np.sin(th))
        return fn

    def r_in(t):
        return 0.72 + 0.06 * np.sin(5.0 * np.pi * t)

    def r_out(t):
        return 1.28 + 0.06 * np.cos(7.0 * np.pi * t)

    def cap(theta):
        def fn(t):
            ri, ro = r_in(theta / np.pi), r_out(theta / np.pi)
            r = (1.0 - t) * ro + t * ri
            return (r * np.cos(theta), r * np.sin(theta))
        return fn

    boundary = {
        "south": _curve(kx, wall(r_out)),
        "north": _curve(kx, wall(r_in)),
        "west": _curve(ky, cap(0.0)),
        "east": _curve(ky, cap(np.pi)),
    }
    return {"version": 1,
            "patches": [patch_doc(kx, ky, boundary)],
            "interfaces": [],
            "solver": {"mode": "xi"}}


def bat_outline(phi):
    """Scalloped star-shaped contour used as the multipatch target boundary."""
    rho = 1.0 + 0.25 * np.sin(3.0 * phi) - 0.10 * np.cos(6.0 * phi)
    return np.stack([rho * np.cos(phi), rho * np.sin(phi)], axis=-1)


def build_bat(degree: int = 2, n1: int = 10, n2: int = 11, n3: int = 12) -> dict:
    """Three rhombic patches tiling a regular hexagon around a valence-3
    vertex, mapped onto a scalloped contour. Element counts n1, n2, n3 run
    along the three interface directions.
    """
    P = [np.array([np.cos(k * np.pi / 3.0), np.sin(k * np.pi / 3.0)])
         for k in range(6)]
    O = np.zeros(2)
    # patch i: m(s, t) = s * span_s + t * span_t (parallelogram from O)
    spans = [(P[5], P[1]), (P[1], P[3]), (P[3], P[5])]
    elem_counts = [(n3, n1), (n1, n2), (n2, n3)]

    def target_on_segment(a, b):
        def fn(t):
            x = (1.0 - t) * a + t * b
            return bat_outline(np.arctan2(x[1], x[0]))
        return fn

    patches = []
    for (es, et), (vs, vt) in zip(elem_counts, spans):
        kx = uniform_knots(degree, es)
        ky = uniform_knots(degree, et)
        corner_e = vs          # m(1, 0)
        corner_n = vt          # m(0, 1)
        corner_ne = vs + vt    # m(1, 1)
        boundary = {
            "east": _curve(ky, target_on_segment(corner_e, corner_ne)),
            "north": _curve(kx, target_on_segment(corner_n, corner_ne)),
        }
        patches.append(patch_doc(
            kx, ky, boundary, affine=(np.column_stack([vs, vt]), O)))
    interfaces = [
        {"patch_a": 0, "face_a": "west", "patch_b": 1, "face_b": "south",
         "reversed": False},
        {"patch_a": 1, "face_a": "west", "patch_b": 2, "face_b": "south",
         "reversed": False},
        {"patch_a": 2, "face_a": "west", "patch_b": 0, "face_b": "south",
         "reversed": False},
    ]
    return {"version": 1,
            "patches": patches,
            "interfaces": interfaces,
            "solver": {"mode": "full"}}


def build_two_patch_square(degree: int = 2, nelems: int = 4) -> dict:
    """Unit square split at x = 0.5 into two patches with identity boundary;
    the solution is the identity map and the interface image is straight."""
    kx = uniform_knots(degree, nelems)
    ky = uniform_knots(degree, nelems)
    gx, gy = kx.greville, ky.greville
    patches = []
    for x0 in (0.0, 0.5):
        sx = 0.5 * gx + x0
        boundary = {
            "south": np.column_stack([sx, np.zeros_like(sx)]),
            "north": np.column_stack([sx, np.ones_like(sx)]),
        }
        cap = np.column_stack([np.full_like(gy, x0 if x0 == 0.0 else 1.0), gy])
        boundary["west" if x0 == 0.0 else "east"] = cap
        patches.append(patch_doc(
            kx, ky, boundary,
            affine=(np.array([[0.5, 0.0], [0.0, 1.0]]), np.array([x0, 0.0]))))
    interfaces = [{"patch_a": 0, "face_a": "east", "patch_b": 1,
                   "face_b": "west", "reversed": False}]
    return {"version": 1, "patches": patches, "interfaces": interfaces,
            "solver": {"mode": "full"}}


BUILDERS = {
    "square": build_square,
    "quarter_annulus": build_quarter_annulus,
    "lbend": build_lbend,
    "tube": build_tube,
    "bat": build_bat,
    "two_patch_square": build_two_patch_square,
}
