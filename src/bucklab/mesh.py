"""Planar triangulations and 1D colatitude grids.

Meshes are produced by uniform refinement of hand-coded coarse meshes
(8-triangle fan for the disk, structured grid for rectangles, centroid
fan for convex polygons). Disk boundary vertices are reprojected onto
the circle after every refinement step, so the only geometric defect is
the chordal area error, which decays like h^2.

All arrays in a built :class:`Mesh` are read-only; construction
validates the incidence and orientation invariants once.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import MeshError, SizeLimitError

#: refinement levels beyond this raise SizeLimitError (memory guard)
MAX_REFINEMENT = 7
#: triangle count guard for refine_mesh
MAX_TRIANGLES = 8 * 4**MAX_REFINEMENT


class _ContentIdentity:
    """Equality and hash by ``content_hash()``, as every cache keys."""

    def __eq__(self, other):
        return type(other) is type(self) and self.content_hash() == other.content_hash()

    def __hash__(self) -> int:
        return hash(self.content_hash())


@dataclass(frozen=True, eq=False)
class Mesh(_ContentIdentity):
    """Conforming triangulation with edge incidence and boundary data.

    vertices : (nv, 2) float64 coordinates
    triangles : (nt, 3) vertex indices, positively oriented
    edges : (ne, 2) vertex pairs with first index < second
    tri_edges : (nt, 3) global edge index opposite local vertex i
    boundary_edges : indices into ``edges`` of edges with one adjacent triangle
    boundary_vertices : sorted vertex indices on the boundary
    edge_normals : (ne, 2) unit normals; outward on boundary edges
    domain_tag : "disk" | "rectangle" | "polygon"
    radius : circle radius for disk meshes, else None
    boundary_curvature : curvature of the smooth boundary this mesh
        approximates (1/radius for disks, 0 for straight-edged domains)
    """

    vertices: np.ndarray
    triangles: np.ndarray
    edges: np.ndarray
    tri_edges: np.ndarray
    boundary_edges: np.ndarray
    boundary_vertices: np.ndarray
    edge_normals: np.ndarray
    domain_tag: str
    radius: float | None = None
    boundary_curvature: float = 0.0
    _hash: str = ""

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def triangle_areas(self) -> np.ndarray:
        p = self.vertices[self.triangles]
        d1 = p[:, 1] - p[:, 0]
        d2 = p[:, 2] - p[:, 0]
        return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])

    def area(self) -> float:
        return float(np.sum(self.triangle_areas()))

    def edge_lengths(self) -> np.ndarray:
        d = self.vertices[self.edges[:, 1]] - self.vertices[self.edges[:, 0]]
        return np.hypot(d[:, 0], d[:, 1])

    def edge_midpoints(self) -> np.ndarray:
        return 0.5 * (self.vertices[self.edges[:, 0]] + self.vertices[self.edges[:, 1]])

    def perimeter(self) -> float:
        return float(np.sum(self.edge_lengths()[self.boundary_edges]))

    def h_max(self) -> float:
        return float(np.max(self.edge_lengths()))

    def boundary_loops(self) -> list[list[int]]:
        """Boundary vertex cycles, one list per closed loop."""
        nbr: dict[int, list[int]] = {}
        for a, b in self.edges[self.boundary_edges]:
            nbr.setdefault(int(a), []).append(int(b))
            nbr.setdefault(int(b), []).append(int(a))
        loops = []
        seen: set[int] = set()
        for start in sorted(nbr):
            if start in seen:
                continue
            loop = [start]
            seen.add(start)
            prev, cur = None, start
            while True:
                nxt = [v for v in nbr[cur] if v != prev]
                if not nxt:
                    raise MeshError("boundary edge chain is not closed")
                prev, cur = cur, nxt[0]
                if cur == start:
                    break
                loop.append(cur)
                seen.add(cur)
            loops.append(loop)
        return loops

    def content_hash(self) -> str:
        return self._hash


def _derive_edges(triangles: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Unique edges, per-triangle edge indices (opposite local vertex),
    adjacency counts, and one adjacent triangle per edge."""
    nt = len(triangles)
    raw = np.concatenate(
        [triangles[:, [1, 2]], triangles[:, [2, 0]], triangles[:, [0, 1]]]
    )
    raw_sorted = np.sort(raw, axis=1)
    edges, inverse, counts = np.unique(
        raw_sorted, axis=0, return_inverse=True, return_counts=True
    )
    inverse = inverse.reshape(3, nt).T.astype(np.int64)
    if np.any(counts > 2):
        raise MeshError("an edge is shared by more than two triangles")
    adj_tri = np.empty(len(edges), dtype=np.int64)
    adj_tri[inverse.T.reshape(-1)] = np.tile(np.arange(nt), 3)
    return edges.astype(np.int64), inverse, counts, adj_tri


def _build_mesh(
    vertices: np.ndarray,
    triangles: np.ndarray,
    domain_tag: str,
    radius: float | None = None,
) -> Mesh:
    if domain_tag == "disk" and radius is None:
        raise MeshError("a disk mesh needs its radius")
    radius = None if radius is None else float(radius)
    vertices = np.ascontiguousarray(vertices, dtype=np.float64)
    triangles = np.ascontiguousarray(triangles, dtype=np.int64)
    p = vertices[triangles]
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow shows as a non-finite area
        signed = 0.5 * (
            (p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
            - (p[:, 1, 1] - p[:, 0, 1]) * (p[:, 2, 0] - p[:, 0, 0])
        )
    if not (np.all(np.isfinite(vertices)) and np.all(np.isfinite(signed))):
        raise MeshError("non-finite vertex coordinates or triangle area")
    if np.any(signed <= 0):
        raise MeshError("triangle with non-positive signed area")

    edges, tri_edges, counts, adj_tri = _derive_edges(triangles)
    boundary_edges = np.flatnonzero(counts == 1).astype(np.int64)
    boundary_vertices = np.unique(edges[boundary_edges])

    # unit normals: boundary edges outward, interior edges oriented by the
    # (low index -> high index) tangent rotated clockwise
    d = vertices[edges[:, 1]] - vertices[edges[:, 0]]
    lengths = np.hypot(d[:, 0], d[:, 1])
    if np.any(lengths == 0):
        raise MeshError("zero-length edge")
    normals = np.column_stack([d[:, 1], -d[:, 0]]) / lengths[:, None]
    centroids = vertices[triangles].mean(axis=1)
    be = boundary_edges
    mids = 0.5 * (vertices[edges[be, 0]] + vertices[edges[be, 1]])
    inward = np.einsum("ij,ij->i", normals[be], centroids[adj_tri[be]] - mids) > 0
    normals[be[inward]] *= -1.0

    deg = np.bincount(edges[boundary_edges].ravel(), minlength=len(vertices))
    if np.any(deg[boundary_vertices] != 2):
        raise MeshError("boundary edges do not form closed loops")

    curvature = 0.0 if radius is None else 1.0 / radius
    # every field assembly and refinement read; result caches key on it
    h = hashlib.sha256()
    h.update(vertices.tobytes())
    h.update(triangles.tobytes())
    h.update(f"{domain_tag}|{radius!r}|{curvature!r}".encode())
    mesh = Mesh(
        vertices=vertices,
        triangles=triangles,
        edges=edges,
        tri_edges=tri_edges,
        boundary_edges=boundary_edges,
        boundary_vertices=boundary_vertices,
        edge_normals=normals,
        domain_tag=domain_tag,
        radius=radius,
        boundary_curvature=curvature,
        _hash=h.hexdigest()[:16],
    )
    for arr in (vertices, triangles, edges, tri_edges, boundary_edges,
                boundary_vertices, normals):
        arr.setflags(write=False)
    return mesh


def make_disk_mesh(radius: float, refinement: int) -> Mesh:
    """Symmetric triangulation of the disk of given radius.

    Starts from an 8-triangle fan and refines uniformly ``refinement``
    times; every new boundary vertex is projected back onto the circle.
    """
    if not 0 < radius < np.inf:
        raise ValueError("radius must be positive and finite")
    if refinement < 0:
        raise ValueError("refinement must be >= 0")
    if refinement > MAX_REFINEMENT:
        raise SizeLimitError(
            f"refinement {refinement} exceeds the cap {MAX_REFINEMENT}"
        )
    angles = np.arange(8) * (np.pi / 4.0)
    verts = np.vstack(
        [[0.0, 0.0], np.column_stack([radius * np.cos(angles), radius * np.sin(angles)])]
    )
    tris = np.array([[0, 1 + k, 1 + (k + 1) % 8] for k in range(8)])
    mesh = _build_mesh(verts, tris, "disk", radius=radius)
    for _ in range(refinement):
        mesh = refine_mesh(mesh)
    return mesh


def make_rectangle_mesh(a: float, b: float, nx: int, ny: int) -> Mesh:
    """Structured crossed-diagonal triangulation of [0,a] x [0,b]."""
    if not (0 < a < np.inf and 0 < b < np.inf):
        raise ValueError("side lengths must be positive and finite")
    if nx < 1 or ny < 1:
        raise ValueError("nx and ny must be >= 1")
    if 2 * nx * ny > MAX_TRIANGLES:
        raise SizeLimitError("rectangle grid exceeds the triangle cap")
    xs = np.linspace(0.0, a, nx + 1)
    ys = np.linspace(0.0, b, ny + 1)
    verts = np.array([(x, y) for y in ys for x in xs])

    def vid(i: int, j: int) -> int:
        return j * (nx + 1) + i

    tris = []
    for j in range(ny):
        for i in range(nx):
            v00, v10 = vid(i, j), vid(i + 1, j)
            v01, v11 = vid(i, j + 1), vid(i + 1, j + 1)
            if (i + j) % 2 == 0:
                tris += [(v00, v10, v11), (v00, v11, v01)]
            else:
                tris += [(v00, v10, v01), (v10, v11, v01)]
    return _build_mesh(verts, np.array(tris), "rectangle")


def make_polygon_mesh(corners: np.ndarray, refinement: int = 0) -> Mesh:
    """Fan triangulation of a convex polygon around its centroid."""
    corners = np.asarray(corners, dtype=np.float64)
    if corners.ndim != 2 or corners.shape[1] != 2 or len(corners) < 3:
        raise ValueError("need at least three corner points")
    if refinement < 0:
        raise ValueError("refinement must be >= 0")
    if refinement > MAX_REFINEMENT:
        raise SizeLimitError(f"refinement {refinement} exceeds the cap {MAX_REFINEMENT}")
    n = len(corners)
    d = np.roll(corners, -1, axis=0) - corners
    cross = d[:, 0] * np.roll(d, -1, axis=0)[:, 1] - d[:, 1] * np.roll(d, -1, axis=0)[:, 0]
    if np.any(cross <= 0):
        raise MeshError("polygon corners must be convex and counter-clockwise")
    centroid = corners.mean(axis=0)
    verts = np.vstack([centroid[None, :], corners])
    tris = np.array([[0, 1 + k, 1 + (k + 1) % n] for k in range(n)])
    mesh = _build_mesh(verts, tris, "polygon")
    for _ in range(refinement):
        mesh = refine_mesh(mesh)
    return mesh


def refine_mesh(mesh: Mesh) -> Mesh:
    """Uniform 1-to-4 refinement; disk boundary vertices are reprojected."""
    if 4 * mesh.n_triangles > MAX_TRIANGLES:
        raise SizeLimitError("refinement would exceed the triangle cap")
    nv = mesh.n_vertices
    new_verts = np.vstack([mesh.vertices, mesh.edge_midpoints()])
    if mesh.domain_tag == "disk":
        # reproject midpoints of boundary edges onto the circle
        idx = nv + mesh.boundary_edges
        r = np.hypot(new_verts[idx, 0], new_verts[idx, 1])
        new_verts[idx] *= (mesh.radius / r)[:, None]
    t = mesh.triangles
    e = mesh.tri_edges + nv  # midpoint vertex ids; column i is opposite vertex i
    children = np.concatenate(
        [
            np.column_stack([t[:, 0], e[:, 2], e[:, 1]]),
            np.column_stack([e[:, 2], t[:, 1], e[:, 0]]),
            np.column_stack([e[:, 1], e[:, 0], t[:, 2]]),
            np.column_stack([e[:, 0], e[:, 1], e[:, 2]]),
        ]
    )
    return _build_mesh(new_verts, children, mesh.domain_tag, radius=mesh.radius)


# ---------------------------------------------------------------------------
# 1D colatitude grids for the punctured sphere
# ---------------------------------------------------------------------------

#: interval growth ratio of geometric grading
GRADING_RATIO = 1.15
#: largest-to-smallest interval ratio allowed for geometric grading; keeps
#: the first interval above float resolution for large node counts
MAX_GRADING_GROWTH = 1e4


@dataclass(frozen=True, eq=False)
class RadialGrid(_ContentIdentity):
    """Strictly increasing colatitude nodes from theta=eps to theta=pi."""

    nodes: np.ndarray

    def content_hash(self) -> str:
        h = hashlib.sha256()
        h.update(self.nodes.tobytes())
        return h.hexdigest()[:16]


def make_radial_grid(eps: float, n: int, grading: str = "uniform") -> RadialGrid:
    """Grid of n intervals on [eps, pi].

    Geometric grading clusters nodes near theta=eps where cap
    eigenfunctions vary fastest: each interval is ``GRADING_RATIO``
    times the one before, a ratio lowered for large n so the first
    interval never collapses below float resolution.
    """
    if not 0 < eps < np.pi / 2:
        raise ValueError(f"eps must lie in (0, pi/2), got {eps}")
    if n < 8:
        raise ValueError("need at least 8 intervals")
    if grading == "uniform":
        nodes = np.linspace(eps, np.pi, n + 1)
    elif grading == "geometric":
        r = min(GRADING_RATIO, float(np.exp(np.log(MAX_GRADING_GROWTH) / (n - 1))))
        lens = r ** np.arange(n)
        lens *= (np.pi - eps) / lens.sum()
        nodes = eps + np.concatenate([[0.0], np.cumsum(lens)])
        nodes[0] = eps
        nodes[-1] = np.pi
    else:
        raise ValueError(f"unknown grading {grading!r}")
    if np.any(np.diff(nodes) <= 0):
        raise MeshError("grid spacing collapsed; reduce n or the grading ratio")
    nodes.setflags(write=False)
    return RadialGrid(nodes)


# ---------------------------------------------------------------------------
# plain-text serialization (bit-exact round trip via 17 significant digits)
# ---------------------------------------------------------------------------

def save_mesh(mesh: Mesh, path) -> None:
    with open(path, "w") as f:
        f.write(f"vertices {mesh.n_vertices} triangles {mesh.n_triangles}\n")
        for x, y in mesh.vertices:
            f.write(f"{x:.17g} {y:.17g}\n")
        for a, b, c in mesh.triangles:
            f.write(f"{a} {b} {c}\n")


def load_mesh(path, domain_tag: str = "polygon", radius: float | None = None) -> Mesh:
    with open(path) as f:
        header = f.readline().split()
        if len(header) != 4 or header[0] != "vertices" or header[2] != "triangles":
            raise MeshError(f"bad mesh header in {path}")
        nv, nt = int(header[1]), int(header[3])
        verts = np.array(
            [[float(v) for v in f.readline().split()] for _ in range(nv)]
        )
        tris = np.array(
            [[int(v) for v in f.readline().split()] for _ in range(nt)]
        )
    return _build_mesh(verts, tris, domain_tag, radius=radius)
