"""Quadratic-form assembly on triangulations.

Two element families are provided. Quadratic Lagrange (P2) gives the
gradient and mass forms of the second-order problems plus the boundary
trace mass. The Morley element (vertex values + edge-midpoint normal
derivatives, quadratic and nonconforming) carries the fourth-order
machinery: the element-wise bending form, the broken gradient form and
the boundary normal-derivative mass.

The bending matrix ``a_bend`` integrates the Frobenius product of the
per-element (constant) Hessians. On trial spaces with zero boundary
values, the continuum form it discretizes coincides with the integral
of products of Laplacians up to the boundary curvature term
``kappa * (normal derivative)^2``; :meth:`OperatorPair.fourth_order_matrix`
adds that term (kappa = 1/radius on disk meshes, 0 on straight-edged
domains), which keeps pencils on such spaces consistent with the smooth
domain the mesh approximates. On the clamped space the term vanishes.

Every form is summed from its element matrices by :func:`scatter` (or
:func:`scatter_dense`, by the same rule). The
gradient, mass (Lagrange) and bending (Morley) forms are immutable CSC
matrices, so assembly never allocates an n x n array; the boundary trace
mass is dense over the boundary-value DOFs only, and the boundary
normal-derivative mass a diagonal vector. Dense copies, where an
eigensolver still needs them, are made in :mod:`bucklab.eigen`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import _kernels
from .errors import DofKindError, MeshError
from .mesh import Mesh

DOF_VERTEX_VALUE = 0
DOF_EDGE_MIDPOINT_VALUE = 1
DOF_EDGE_NORMAL_DERIV = 2

# 1D boundary mass matrix of P2 per unit edge length (end, end, midpoint)
_EDGE_MASS_P2 = np.array(
    [[4.0, -1.0, 2.0], [-1.0, 4.0, 2.0], [2.0, 2.0, 16.0]]
) / 30.0


@dataclass(frozen=True)
class DofMap:
    """Degree-of-freedom table with boundary classification."""

    kind: str  # "lagrange-2" | "morley"
    n_dofs: int
    dof_kind: np.ndarray  # int8 DOF_* codes
    is_boundary: np.ndarray  # bool per DOF

    def boundary_dofs(self) -> np.ndarray:
        return np.flatnonzero(self.is_boundary)

    def boundary_value_dofs(self) -> np.ndarray:
        mask = self.is_boundary & (self.dof_kind != DOF_EDGE_NORMAL_DERIV)
        return np.flatnonzero(mask)

    def boundary_normal_dofs(self) -> np.ndarray:
        mask = self.is_boundary & (self.dof_kind == DOF_EDGE_NORMAL_DERIV)
        return np.flatnonzero(mask)


@dataclass(frozen=True)
class OperatorPair:
    """Assembled symmetric forms over one DOF set.

    k_grad : gradient form (broken gradient for Morley), CSC
    mass   : L2 mass (Lagrange only, else None), CSC
    a_bend : element-wise bending form (Morley only, else None), CSC
    b_trace : boundary L2 mass on the boundary-value DOFs listed in
        ``b_trace_dofs`` (Lagrange only, else None)
    b_normal_diag : full-length diagonal of the boundary
        normal-derivative mass (Morley only, else None)
    curvature : boundary curvature of the approximated smooth domain
    fourth_order : what :meth:`fourth_order_matrix` returns (Morley only)
    """

    mesh: Mesh
    dofmap: DofMap
    k_grad: sp.csc_array
    mass: sp.csc_array | None = None
    a_bend: sp.csc_array | None = None
    b_trace: np.ndarray | None = None
    b_trace_dofs: np.ndarray | None = None
    b_normal_diag: np.ndarray | None = None
    curvature: float = 0.0
    fourth_order: sp.csc_array | None = None

    def fourth_order_matrix(self) -> sp.csc_array:
        """Bending matrix plus the curvature boundary term, as CSC built
        once by :func:`assemble_morley`.

        This is the matrix every fourth-order pencil in the package is
        built from; on clamped vectors it acts exactly like ``a_bend``.
        """
        if self.fourth_order is None:
            raise DofKindError("fourth-order form requires a Morley pair")
        return self.fourth_order


def _check_not_degenerate(mesh: Mesh) -> np.ndarray:
    areas = mesh.triangle_areas()
    h = mesh.h_max()
    if np.any(areas < 1e-14 * h * h):
        raise MeshError("degenerate triangle (area below 1e-14 * h^2)")
    return areas


def scatter(n: int, dofs: np.ndarray, *local: np.ndarray) -> tuple[sp.csc_array, ...]:
    """The n x n sums of the element matrices ``local[e]`` at rows and
    columns ``dofs[e]``, one per stack in ``local``, as immutable CSC
    arrays sharing one pattern, whose keys are sorted once. An entry adds
    its contributions one by one in element order (``np.bincount``): the
    bits of a dense element-by-element scatter."""
    rows, cols = dofs[:, :, None], dofs[:, None, :]
    keys, slot = np.unique((cols * n + rows).ravel(), return_inverse=True)  # column-major
    indices, indptr = keys % n, np.searchsorted(keys, np.arange(n + 1) * n)
    forms = []
    for m in local:
        data = np.bincount(slot, weights=m.ravel(), minlength=len(keys))
        forms.append(_frozen(sp.csc_array((data, indices, indptr), shape=(n, n))))
        indices, indptr = forms[0].indices, forms[0].indptr
    return tuple(forms)


def scatter_dense(n: int, dofs: np.ndarray, local: np.ndarray) -> np.ndarray:
    """:func:`scatter`'s sum as a C-order array: the same bincount in
    element order, over the row-major flat index."""
    flat = (dofs[:, :, None] * n + dofs[:, None, :]).ravel()
    return np.bincount(flat, weights=local.ravel(), minlength=n * n).reshape(n, n)


def _frozen(m: sp.csc_array) -> sp.csc_array:
    for arr in (m.data, m.indices, m.indptr):
        arr.setflags(write=False)
    return m


def _vertex_edge_layout(mesh: Mesh, kind: str, edge_dof: int) -> tuple[np.ndarray, DofMap]:
    """Each triangle's DOFs and the DOF map of an element with one DOF
    per vertex, then one of kind ``edge_dof`` per edge (P2 and Morley)."""
    nv, ne = mesh.n_vertices, mesh.n_edges
    dof_kind = np.repeat(np.array([DOF_VERTEX_VALUE, edge_dof], dtype=np.int8), [nv, ne])
    is_boundary = np.zeros(nv + ne, dtype=bool)
    is_boundary[mesh.boundary_vertices] = True
    is_boundary[nv + mesh.boundary_edges] = True
    dofs = np.hstack([mesh.triangles, nv + mesh.tri_edges])
    return dofs, DofMap(kind, nv + ne, dof_kind, is_boundary)


def assemble_lagrange(mesh: Mesh) -> OperatorPair:
    """Gradient, mass and boundary-trace forms for P2 triangles."""
    _check_not_degenerate(mesh)
    dofs, dofmap = _vertex_edge_layout(mesh, "lagrange-2", DOF_EDGE_MIDPOINT_VALUE)
    coords = np.ascontiguousarray(mesh.vertices[mesh.triangles])
    k, m = scatter(dofmap.n_dofs, dofs, *_kernels.lagrange2_local(coords))

    # boundary trace mass on the boundary-value DOFs, from the edge mass
    # matrices of the boundary edges (btd is sorted)
    btd = dofmap.boundary_value_dofs()
    be = mesh.boundary_edges
    ends = np.column_stack([mesh.edges[be], mesh.n_vertices + be])
    bt = scatter_dense(len(btd), np.searchsorted(btd, ends),
                       mesh.edge_lengths()[be][:, None, None] * _EDGE_MASS_P2)

    for arr in (bt, btd):
        arr.setflags(write=False)
    return OperatorPair(
        mesh=mesh,
        dofmap=dofmap,
        k_grad=k,
        mass=m,
        b_trace=bt,
        b_trace_dofs=btd,
        curvature=mesh.boundary_curvature,
    )


def assemble_morley(mesh: Mesh) -> OperatorPair:
    """Morley bending and gradient forms plus the boundary normal mass.

    No L2 mass is assembled: every fourth-order pencil pairs the
    bending form with the gradient form."""
    _check_not_degenerate(mesh)
    dofs, dofmap = _vertex_edge_layout(mesh, "morley", DOF_EDGE_NORMAL_DERIV)
    coords = np.ascontiguousarray(mesh.vertices[mesh.triangles])
    normals = np.ascontiguousarray(mesh.edge_normals[mesh.tri_edges])
    a, k = scatter(dofmap.n_dofs, dofs, *_kernels.morley_local(coords, normals))
    b_normal = boundary_normal_mass(mesh, dofmap)
    b_normal.setflags(write=False)
    kappa = mesh.boundary_curvature
    f = a if kappa == 0.0 else _frozen((a + sp.diags_array(kappa * b_normal)).tocsc())
    return OperatorPair(
        mesh=mesh,
        dofmap=dofmap,
        k_grad=k,
        a_bend=a,
        b_normal_diag=b_normal,
        curvature=kappa,
        fourth_order=f,
    )


def boundary_normal_mass(mesh: Mesh, dofmap: DofMap) -> np.ndarray:
    """Diagonal of the boundary normal-derivative mass.

    Midpoint quadrature over each boundary edge gives the entry |e| on
    that edge's normal-derivative DOF; all other entries are zero. The
    result is returned as a full-length diagonal vector.
    """
    if dofmap.kind != "morley":
        raise DofKindError("boundary normal mass requires a Morley DOF map")
    diag = np.zeros(dofmap.n_dofs)
    nv = mesh.n_vertices
    diag[nv + mesh.boundary_edges] = mesh.edge_lengths()[mesh.boundary_edges]
    return diag


def classify_dofs(dofmap: DofMap, condition: str) -> tuple[np.ndarray, np.ndarray]:
    """Split DOFs into (constrained, free) for a boundary condition.

    dirichlet-value : all boundary value DOFs (Lagrange only)
    clamped         : boundary vertex values and boundary normal
                      derivatives (Morley only)
    navier          : boundary vertex values only; the second condition
                      of the simply supported problem stays natural
                      (Morley only)
    """
    if condition == "dirichlet-value":
        if dofmap.kind != "lagrange-2":
            raise DofKindError("dirichlet-value applies to Lagrange DOF maps")
        constrained = dofmap.boundary_value_dofs()
    elif condition == "clamped":
        if dofmap.kind != "morley":
            raise DofKindError("clamped conditions apply to Morley DOF maps")
        constrained = dofmap.boundary_dofs()
    elif condition == "navier":
        if dofmap.kind != "morley":
            raise DofKindError("navier conditions apply to Morley DOF maps")
        constrained = dofmap.boundary_value_dofs()
    else:
        raise ValueError(f"unknown condition {condition!r}")
    free = np.ones(dofmap.n_dofs, dtype=bool)
    free[constrained] = False
    return constrained, np.flatnonzero(free)
