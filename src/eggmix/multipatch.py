"""Multipatch topology: affine patch maps, conforming face gluing with DOF
coupling into single-valued global bases, and the det-J-weighted restriction
from the patchwise-discontinuous auxiliary union onto the coupled basis.

A single patch with the identity affine map is the degenerate case; the
assembly and solver layers treat every problem as a (possibly 1-patch)
topology, so single- and multipatch paths are literally the same code.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .errors import InputError, KnotMismatchError
from .splines import FACES, KNOT_TOL, TensorBasis


@dataclass(frozen=True)
class AffinePatchMap:
    """Affine map s -> A s + b from the reference unit square onto a patch of
    the parametric multipatch domain."""
    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "A", np.asarray(self.A, dtype=float).reshape(2, 2))
        object.__setattr__(self, "b", np.asarray(self.b, dtype=float).reshape(2))
        if self.det == 0.0:
            raise InputError("affine patch map must be invertible")
        if self.det < 0.0:
            warnings.warn("affine patch map reverses orientation (det A < 0)")

    @property
    def det(self) -> float:
        A = self.A
        return float(A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0])

    @property
    def inv(self) -> np.ndarray:
        A, d = self.A, self.det
        return np.array([[A[1, 1], -A[0, 1]], [-A[1, 0], A[0, 0]]]) / d

    def apply(self, s):
        return np.asarray(s, dtype=float) @ self.A.T + self.b

    @staticmethod
    def identity():
        return AffinePatchMap(np.eye(2), np.zeros(2))


@dataclass(frozen=True)
class Interface:
    """One glued face pair. ``reversed`` flips the running parameter of
    face_b relative to face_a."""
    patch_a: int
    face_a: str
    patch_b: int
    face_b: str
    reversed: bool = False

    def __str__(self):
        flip = ", reversed" if self.reversed else ""
        return (f"({self.patch_a}.{self.face_a} <-> "
                f"{self.patch_b}.{self.face_b}{flip})")


def _components(n, edges):
    """Connected components of an undirected graph on ``n`` nodes, numbered
    in order of their lowest node; returns ``(n_components, labels)``.

    Min-label propagation: every node starts labelled with its own index,
    and each sweep lowers both ends of every edge to the smaller of their
    labels and then takes every label's own label (pointer jumping), until
    nothing changes. A label is always a node of the same component, so at
    the fixed point each component is labelled with its lowest node."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    a, b = edges[:, 0], edges[:, 1]
    label = np.arange(n)
    while True:
        low = np.minimum(label[a], label[b])
        new = label.copy()
        np.minimum.at(new, a, low)
        np.minimum.at(new, b, low)
        new = new[new]
        if np.array_equal(new, label):
            break
        label = new
    roots = label == np.arange(n)
    return int(roots.sum()), (np.cumsum(roots) - 1)[label]


def _face_pairs(interfaces, basis_list):
    """((patch_a, face DOFs), (patch_b, face DOFs)) of every interface in
    the bases ``basis_list``, patch_b's DOFs flipped on a reversed one."""
    out = []
    for itf in interfaces:
        ia = basis_list[itf.patch_a].face_indices(itf.face_a)
        ib = basis_list[itf.patch_b].face_indices(itf.face_b)
        if itf.reversed:
            ib = ib[::-1]
        out.append(((itf.patch_a, ia), (itf.patch_b, ib)))
    return out


def _couple(dims, face_index_lists):
    """Couple stacked local DOFs along glued faces; returns local-to-global
    tables and the global dimension. Global numbering follows first
    appearance in (patch, local index) order."""
    offsets = np.concatenate([[0], np.cumsum(dims)])
    edges = [np.stack([offsets[pa] + np.asarray(idx_a),
                       offsets[pb] + np.asarray(idx_b)], axis=1)
             for (pa, idx_a), (pb, idx_b) in face_index_lists]
    n_global, labels = _components(offsets[-1],
                                   np.concatenate(edges) if edges else [])
    l2g = labels.astype(int)
    tables = [l2g[offsets[p]: offsets[p + 1]] for p in range(len(dims))]
    return tables, n_global


@dataclass
class PatchTopology:
    """Patches with their primal basis, affine maps, interface list and the
    derived primal local-to-global DOF tables.

    The auxiliary side is built on first use, so that commands that only
    read the primal bases never refine them: each auxiliary basis
    (``bar_bases``) is the global h-refinement of its primal basis, by knot
    bisection alone, and ``bar_l2g``/``n_sigbar`` couple the auxiliary DOFs
    along the same interfaces."""
    bases: list
    maps: list
    interfaces: list
    sig_l2g: list
    n_sigma: int
    boundary_indices: np.ndarray
    inner_indices: np.ndarray
    unglued_faces: list

    @functools.cached_property
    def bar_bases(self):
        return [tb.bisected() for tb in self.bases]

    @functools.cached_property
    def _bar_coupling(self):
        bar_bases = self.bar_bases
        return _couple([bb.dim for bb in bar_bases],
                       _face_pairs(self.interfaces, bar_bases))

    @property
    def bar_l2g(self):
        return self._bar_coupling[0]

    @property
    def n_sigbar(self):
        return self._bar_coupling[1]

    @property
    def n_patches(self):
        return len(self.bases)

    @property
    def n_tilde(self):
        return int(sum(tb.dim for tb in self.bar_bases))

    @property
    def tilde_offsets(self):
        return np.concatenate([[0], np.cumsum([tb.dim for tb in self.bar_bases])])

    def tilde_to_global(self):
        """Index array mapping each discontinuous-union DOF to its coupled
        global auxiliary DOF."""
        return np.concatenate(self.bar_l2g)

    def bar_classes(self):
        """For each global auxiliary DOF, the contributing (patch, local)
        pairs in patch order."""
        classes = [[] for _ in range(self.n_sigbar)]
        for p, table in enumerate(self.bar_l2g):
            for loc, g in enumerate(table):
                classes[g].append((p, loc))
        return classes

    def patch_corners(self, i):
        unit = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        return self.maps[i].apply(unit)

    def total_area(self):
        return float(sum(abs(m.det) for m in self.maps))

    def gather_local(self, i, global_values):
        """Local control values of patch ``i`` from a global coefficient
        array (works for any trailing shape)."""
        return np.asarray(global_values)[self.sig_l2g[i]]

    def patch_map(self, i, global_control):
        from .mapping import SplineMap
        return SplineMap(self.bases[i], self.gather_local(i, global_control))

    def convexity_warning(self):
        """Warn when the union of patches is visibly nonconvex (hull area of
        the patch corners exceeds the summed patch areas). Heuristic only."""
        # imported here: scipy.spatial adds 5 MB to the memory of every
        # command that imports this module, and only `check` calls this
        from scipy.spatial import ConvexHull, QhullError
        pts = np.vstack([self.patch_corners(i) for i in range(self.n_patches)])
        try:
            hull = ConvexHull(pts).volume
        except QhullError:
            # the corners lie on one line to rounding: a patch is that thin
            # when det A, though nonzero, is tiny; its union is not nonconvex
            return False
        area = self.total_area()
        if hull > area * (1.0 + 1e-9) + 1e-12:
            warnings.warn(
                "parametric multipatch domain appears nonconvex "
                f"(hull area {hull:.6g} > patch area {area:.6g}); the "
                "inverse-harmonic bijectivity argument needs a convex domain")
            return True
        return False


def _check_interface_knots(tb_a, face_a, tb_b, face_b, flip, label):
    kv_a = tb_a.face_knotvector(face_a)
    kv_b = tb_b.face_knotvector(face_b)
    want = kv_a.flipped() if flip else kv_a
    if kv_b.degree != want.degree or len(kv_b.knots) != len(want.knots) \
            or not np.allclose(kv_b.knots, want.knots, atol=KNOT_TOL, rtol=0.0):
        raise KnotMismatchError(
            f"interface {label}: knot vectors do not conform")


def build_topology(patches, interfaces) -> PatchTopology:
    """Couple patch DOFs along conforming interfaces.

    ``patches``: sequence of (TensorBasis, AffinePatchMap) pairs. The
    auxiliary basis of each patch is the global h-refinement of its primal
    basis, bisected and coupled on first use. Gluing requires identical knot
    vectors along each interface (after the orientation flip); each face
    may be glued at most once.
    """
    if not patches:
        raise InputError("need at least one patch")
    bases, maps = [], []
    for tb, am in patches:
        if not isinstance(tb, TensorBasis):
            raise InputError("each patch needs a TensorBasis")
        bases.append(tb)
        maps.append(am if am is not None else AffinePatchMap.identity())
    interfaces = [itf if isinstance(itf, Interface) else Interface(*itf)
                  for itf in interfaces]
    used = set()
    glued = set()
    for itf in interfaces:
        for p, f in ((itf.patch_a, itf.face_a), (itf.patch_b, itf.face_b)):
            if not 0 <= p < len(bases):
                raise InputError(f"interface {itf} references unknown patch {p}")
            if f not in FACES:
                raise InputError(f"interface {itf} references unknown face {f!r}")
            if (p, f) in used:
                raise InputError(f"face {p}.{f} glued more than once")
            used.add((p, f))
        if (itf.patch_a, itf.face_a) == (itf.patch_b, itf.face_b):
            raise InputError(f"interface {itf} glues a face to itself")
        _check_interface_knots(bases[itf.patch_a], itf.face_a,
                               bases[itf.patch_b], itf.face_b,
                               itf.reversed, str(itf))
        glued.add((itf.patch_a, itf.face_a))
        glued.add((itf.patch_b, itf.face_b))

    sig_l2g, n_sigma = _couple([tb.dim for tb in bases],
                               _face_pairs(interfaces, bases))

    n_parts, _ = _components(len(bases), [(itf.patch_a, itf.patch_b)
                                          for itf in interfaces])
    if n_parts > 1:
        raise InputError("multipatch domain is not connected")

    unglued = []
    boundary = np.zeros(n_sigma, dtype=bool)
    for p, tb in enumerate(bases):
        faces = [f for f in FACES if (p, f) not in glued]
        unglued.append(faces)
        for f in faces:
            boundary[sig_l2g[p][tb.face_indices(f)]] = True

    return PatchTopology(
        bases=bases, maps=maps, interfaces=interfaces, sig_l2g=sig_l2g,
        n_sigma=n_sigma,
        boundary_indices=np.flatnonzero(boundary),
        inner_indices=np.flatnonzero(~boundary),
        unglued_faces=unglued)


def single_patch_topology(basis: TensorBasis) -> PatchTopology:
    """The degenerate 1-patch topology with the identity affine map."""
    return build_topology([(basis, AffinePatchMap.identity())], [])


@dataclass
class RestrictionOperator:
    """Maps discontinuous-union auxiliary coefficients onto the coupled
    auxiliary basis by det-J-weighted averaging of coinciding components.
    Weights per global DOF are normalized to sum to one exactly."""
    matrix: sparse.csr_matrix
    weights: list


def build_restriction(topology: PatchTopology) -> RestrictionOperator:
    offsets = topology.tilde_offsets
    rows, cols, vals = [], [], []
    weights = []
    for g, contributors in enumerate(topology.bar_classes()):
        dets = np.array([topology.maps[p].det for p, _ in contributors])
        w = dets / dets.sum()
        w[-1] = 1.0 - w[:-1].sum()  # exact unit sum
        weights.append(w)
        for (p, loc), wi in zip(contributors, w):
            rows.append(g)
            cols.append(offsets[p] + loc)
            vals.append(wi)
    mat = sparse.csr_matrix((vals, (rows, cols)),
                            shape=(topology.n_sigbar, topology.n_tilde))
    return RestrictionOperator(matrix=mat, weights=weights)
