"""Determinism and exactness of the element kernels."""
import numpy as np
import pytest

from bucklab import _kernels, make_disk_mesh


@pytest.fixture(scope="module")
def element_data():
    mesh = make_disk_mesh(1.0, 2)
    coords = np.ascontiguousarray(mesh.vertices[mesh.triangles])
    normals = np.ascontiguousarray(mesh.edge_normals[mesh.tri_edges])
    return coords, normals


def test_kernels_bit_deterministic(element_data):
    coords, normals = element_data
    first = _kernels.morley_local(coords, normals)
    second = _kernels.morley_local(coords, normals)
    for a, b in zip(first, second):
        assert np.array_equal(a, b)


def test_morley_affine_functions_have_zero_bending(element_data):
    coords, normals = element_data
    mesh = make_disk_mesh(1.0, 2)
    bend, _ = _kernels.morley_local(coords, normals)
    # DOF vector of u(x, y) = 3 - 2x + y on each element
    for t in (0, 7, len(coords) // 2):
        vals = 3.0 - 2.0 * coords[t, :, 0] + coords[t, :, 1]
        nrm = normals[t] @ np.array([-2.0, 1.0])
        local = np.concatenate([vals, nrm])
        assert abs(local @ bend[t] @ local) < 1e-12
