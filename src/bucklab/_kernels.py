"""Element kernels, vectorized with numpy.

Each function takes stacked per-triangle data and returns stacked local
matrices; scattering into global matrices is done by the caller. The
Morley basis is constructed per element by inverting the 6x6 matrix of
degree-of-freedom functionals applied to centered monomials
{1, x, y, x^2, xy, y^2}.
"""
import numpy as np

from .quadrature import TRI_D2_POINTS, TRI_D2_WEIGHTS, TRI_D4_POINTS, TRI_D4_WEIGHTS

# P2 shape functions and barycentric gradients at the degree-4 points
_NQ = np.zeros((len(TRI_D4_POINTS), 6))
_DNQ = np.zeros((len(TRI_D4_POINTS), 6, 3))
for _q, _lam in enumerate(TRI_D4_POINTS):
    for _i in range(3):
        _NQ[_q, _i] = _lam[_i] * (2.0 * _lam[_i] - 1.0)
        _DNQ[_q, _i, _i] = 4.0 * _lam[_i] - 1.0
    for _i in range(3):
        _j, _k = (_i + 1) % 3, (_i + 2) % 3
        _NQ[_q, 3 + _i] = 4.0 * _lam[_j] * _lam[_k]
        _DNQ[_q, 3 + _i, _j] = 4.0 * _lam[_k]
        _DNQ[_q, 3 + _i, _k] = 4.0 * _lam[_j]
_NQ.setflags(write=False)
_DNQ.setflags(write=False)


def _signed_areas_and_grads(coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Signed areas and barycentric gradients for stacked triangles."""
    d1 = coords[:, 1] - coords[:, 0]
    d2 = coords[:, 2] - coords[:, 0]
    det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]  # 2 * area
    g = np.empty((len(coords), 3, 2))
    for i in range(3):
        v = coords[:, (i + 1) % 3] - coords[:, (i + 2) % 3]
        g[:, i, 0] = v[:, 1]
        g[:, i, 1] = -v[:, 0]
    g /= det[:, None, None]
    return 0.5 * det, g


def lagrange2_local(coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stiffness and mass of quadratic triangles; coords (m,3,2), DOFs
    vertices then midpoints, midpoint i opposite vertex i."""
    area, g = _signed_areas_and_grads(coords)
    gn = np.einsum("qia,mak->mqik", _DNQ, g)
    k = np.einsum("q,m,mqik,mqjk->mij", TRI_D4_WEIGHTS, area, gn, gn)
    m = np.einsum("q,m,qi,qj->mij", TRI_D4_WEIGHTS, area, _NQ, _NQ)
    return k, m


def morley_local(
    coords: np.ndarray, normals: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Morley element matrices.

    coords  : (m,3,2) triangle vertices
    normals : (m,3,2) unit normal of the edge opposite local vertex i,
              in the globally fixed orientation shared by both elements
              on the edge

    Returns (bending, stiffness) where bending[i,j] is the integral of
    the Frobenius product of the (constant) basis Hessians.
    """
    m_tri = len(coords)
    area, _ = _signed_areas_and_grads(coords)
    cen = coords.mean(axis=1)
    pl = coords - cen[:, None, :]
    mids = 0.5 * (pl[:, [1, 2, 0]] + pl[:, [2, 0, 1]])

    d = np.zeros((m_tri, 6, 6))
    x, y = pl[..., 0], pl[..., 1]
    d[:, :3, 0] = 1.0
    d[:, :3, 1] = x
    d[:, :3, 2] = y
    d[:, :3, 3] = x * x
    d[:, :3, 4] = x * y
    d[:, :3, 5] = y * y
    mx, my = mids[..., 0], mids[..., 1]
    nx, ny = normals[..., 0], normals[..., 1]
    d[:, 3:, 1] = nx
    d[:, 3:, 2] = ny
    d[:, 3:, 3] = 2.0 * mx * nx
    d[:, 3:, 4] = my * nx + mx * ny
    d[:, 3:, 5] = 2.0 * my * ny
    c = np.linalg.inv(d)  # column j holds the monomial coefficients of basis j

    a2, bxy, c2 = c[:, 3, :], c[:, 4, :], c[:, 5, :]
    bend = area[:, None, None] * (
        4.0 * np.einsum("mi,mj->mij", a2, a2)
        + 2.0 * np.einsum("mi,mj->mij", bxy, bxy)
        + 4.0 * np.einsum("mi,mj->mij", c2, c2)
    )

    k = np.zeros((m_tri, 6, 6))
    for q in range(len(TRI_D2_POINTS)):
        xy = TRI_D2_POINTS[q] @ pl  # (m,2)
        gx = c[:, 1, :] + 2.0 * a2 * xy[:, :1] + bxy * xy[:, 1:]
        gy = c[:, 2, :] + bxy * xy[:, :1] + 2.0 * c2 * xy[:, 1:]
        k += (TRI_D2_WEIGHTS[q] * area)[:, None, None] * (
            np.einsum("mi,mj->mij", gx, gx) + np.einsum("mi,mj->mij", gy, gy)
        )
    return bend, k
