import numpy as np
import pytest

from bucklab import (
    MeshError,
    SizeLimitError,
    load_mesh,
    make_disk_mesh,
    make_polygon_mesh,
    make_radial_grid,
    make_rectangle_mesh,
    refine_mesh,
    save_mesh,
)


def test_disk_level0_inside_and_closed():
    m = make_disk_mesh(1.0, 0)
    r = np.hypot(m.vertices[:, 0], m.vertices[:, 1])
    assert np.all(r <= 1.0 + 1e-15)
    loops = m.boundary_loops()
    assert len(loops) == 1
    assert len(loops[0]) == len(m.boundary_vertices)


@pytest.mark.parametrize("level", [0, 1, 2])
def test_disk_refinement_quadruples_triangles(level):
    coarse = make_disk_mesh(1.0, level)
    fine = make_disk_mesh(1.0, level + 1)
    assert fine.n_triangles == 4 * coarse.n_triangles


def test_disk_boundary_radius_error_quadratic():
    # boundary vertices are projected, so their radius error is fp-level;
    # the quadratic bound with a constant fitted on levels 1-2 holds trivially
    fits = []
    for level in (1, 2, 3):
        m = make_disk_mesh(2.0, level)
        r = np.hypot(*m.vertices[m.boundary_vertices].T)
        err = np.max(np.abs(r - 2.0))
        fits.append((err, m.h_max()))
    c = max(err / h**2 for err, h in fits[:2]) + 1e-12
    err3, h3 = fits[2]
    assert err3 <= c * h3**2


def test_rectangle_counts_and_lengths():
    m = make_rectangle_mesh(1, 1, 1, 1)
    assert m.n_vertices == 4
    assert m.n_triangles == 2

    m = make_rectangle_mesh(1, 1, 4, 4)
    blen = m.edge_lengths()[m.boundary_edges]
    assert np.allclose(blen, 0.25)


def test_rectangle_area_exact():
    m = make_rectangle_mesh(2, 1, 8, 4)
    assert abs(m.area() - 2.0) <= 1e-12


def test_refine_vertex_count_and_area_preservation():
    m = make_rectangle_mesh(1.5, 1.0, 3, 2)
    fine = refine_mesh(m)
    assert fine.n_vertices == m.n_vertices + m.n_edges
    assert fine.area() == pytest.approx(m.area(), abs=1e-14)
    assert fine.domain_tag == m.domain_tag


def test_disk_area_converges_quadratically_and_monotone():
    areas = [make_disk_mesh(1.0, lev).area() for lev in (1, 2, 3)]
    defects = [np.pi - a for a in areas]
    assert all(d > 0 for d in defects)
    assert areas[0] < areas[1] < areas[2]
    rate = np.log2(defects[1] / defects[2])
    assert 1.7 <= rate <= 2.3


def test_refinement_preserves_loops_and_tag():
    m = make_disk_mesh(1.0, 1)
    f = refine_mesh(m)
    assert len(f.boundary_loops()) == len(m.boundary_loops()) == 1
    assert f.domain_tag == "disk"


def test_outward_normals_point_away_from_centroids():
    for m in (make_disk_mesh(1.0, 2), make_rectangle_mesh(2, 1, 4, 3)):
        lengths = np.hypot(*m.edge_normals.T)
        assert np.max(np.abs(lengths - 1.0)) < 1e-12
        centroid = m.vertices.mean(axis=0)
        mids = m.edge_midpoints()[m.boundary_edges]
        n = m.edge_normals[m.boundary_edges]
        assert np.all(np.einsum("ij,ij->i", n, mids - centroid) > 0)


def test_edges_shared_by_one_or_two_triangles(disk2):
    counts = np.zeros(disk2.n_edges, dtype=int)
    for t in range(disk2.n_triangles):
        counts[disk2.tri_edges[t]] += 1
    boundary = set(disk2.boundary_edges.tolist())
    for e, c in enumerate(counts):
        assert c == (1 if e in boundary else 2)


def test_polygon_mesh_convex_fan():
    hexagon = [(np.cos(t), np.sin(t)) for t in np.linspace(0, 2 * np.pi, 7)[:-1]]
    m = make_polygon_mesh(np.array(hexagon), refinement=1)
    assert m.domain_tag == "polygon"
    assert m.n_triangles == 24
    with pytest.raises(MeshError):
        make_polygon_mesh(np.array([(0, 0), (1, 0), (1, 1), (0.9, 0.1)]))


def test_size_guards():
    with pytest.raises(SizeLimitError):
        make_disk_mesh(1.0, 99)
    with pytest.raises(ValueError):
        make_disk_mesh(-1.0, 2)


def test_serialization_round_trip(tmp_path, disk2):
    path = tmp_path / "disk.mesh"
    save_mesh(disk2, path)
    loaded = load_mesh(path, domain_tag="disk", radius=1.0)
    assert np.array_equal(loaded.vertices, disk2.vertices)
    assert np.array_equal(loaded.triangles, disk2.triangles)
    assert loaded.content_hash() == disk2.content_hash()
    header = path.read_text().splitlines()[0]
    assert header == f"vertices {disk2.n_vertices} triangles {disk2.n_triangles}"


def test_radial_grid_uniform_and_geometric():
    g = make_radial_grid(0.1, 16, "uniform")
    assert g.nodes[0] == 0.1
    assert g.nodes[-1] == np.pi
    assert np.allclose(np.diff(g.nodes), (np.pi - 0.1) / 16)

    gg = make_radial_grid(0.1, 16, "geometric")
    d = np.diff(gg.nodes)
    assert d[0] < d[-1]
    assert np.all(d > 0)

    with pytest.raises(ValueError):
        make_radial_grid(-0.1, 16, "uniform")
    with pytest.raises(ValueError):
        make_radial_grid(2.0, 16, "uniform")


def test_radial_grid_large_n_keeps_positive_spacing():
    g = make_radial_grid(0.05, 512, "geometric")
    assert np.all(np.diff(g.nodes) > 0)


def test_mesh_immutable(disk2):
    with pytest.raises(ValueError):
        disk2.vertices[0, 0] = 99.0


def test_mesh_and_grid_equality_by_content():
    """Meshes and grids built separately from the same inputs are equal
    and hash alike, as every result cache treats them; another refine,
    radius or grid is unequal, and a mesh never equals a grid."""
    mesh = make_disk_mesh(1.0, 2)
    same = make_disk_mesh(1.0, 2)
    assert mesh is not same
    assert mesh == same and hash(mesh) == hash(same)
    assert len({mesh, same}) == 1
    assert mesh != make_disk_mesh(1.0, 3)
    assert mesh != make_disk_mesh(2.0, 2)
    assert make_rectangle_mesh(1.0, 1.0, 4, 4) == make_rectangle_mesh(1.0, 1.0, 4, 4)

    grid = make_radial_grid(0.1, 16, "geometric")
    twin = make_radial_grid(0.1, 16, "geometric")
    assert grid == twin and hash(grid) == hash(twin)
    assert grid != make_radial_grid(0.1, 16, "uniform")
    assert grid != make_radial_grid(0.2, 16, "geometric")
    assert grid != make_radial_grid(0.1, 32, "geometric")
    assert mesh != grid
