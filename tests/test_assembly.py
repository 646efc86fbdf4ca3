import tracemalloc

import numpy as np
import pytest

from bucklab import (
    DofKindError,
    assemble_lagrange,
    assemble_morley,
    boundary_normal_mass,
    classify_dofs,
    disk_oracle,
    make_disk_mesh,
    make_rectangle_mesh,
    sym_gen_eigs,
)
from bucklab import _kernels as kernels
from bucklab import assembly
from bucklab.spectra import get_pair, pencil_eigenvalues


@pytest.fixture(scope="module")
def rect4():
    return make_rectangle_mesh(1.0, 1.0, 4, 4)


def test_matrices_symmetric_and_mass_pd(disk2):
    lagrange, morley = get_pair(disk2, "lagrange"), get_pair(disk2, "morley")
    for mat in (lagrange.k_grad, lagrange.mass, morley.k_grad, morley.a_bend):
        scale = np.max(np.abs(mat))
        assert np.max(np.abs(mat - mat.T)) <= 1e-12 * scale
    w, _ = sym_gen_eigs(lagrange.mass.toarray(), np.eye(lagrange.mass.shape[0]), 1)
    assert w[0] > 0
    assert morley.mass is None


def test_unconstrained_gradient_kernel_is_constants(rect4):
    pair = assemble_lagrange(rect4)
    w, v = sym_gen_eigs(pair.k_grad.toarray(), pair.mass.toarray(), 2)
    assert abs(w[0]) < 1e-8
    assert w[1] > 1e-3
    ones = np.ones(pair.dofmap.n_dofs)
    assert np.max(np.abs(pair.k_grad @ ones)) < 1e-10 * np.max(np.abs(pair.k_grad))


def test_rect16_dirichlet_ground_value(rect16):
    pair = get_pair(rect16, "lagrange")
    _, free = classify_dofs(pair.dofmap, "dirichlet-value")
    w, _ = sym_gen_eigs(
        pair.k_grad[np.ix_(free, free)].toarray(), pair.mass[np.ix_(free, free)].toarray(), 1
    )
    target = 2 * np.pi**2
    assert abs(w[0] - target) / target < 0.002


def test_disk_dirichlet_vs_bessel_oracle(disk3):
    pair = get_pair(disk3, "lagrange")
    _, free = classify_dofs(pair.dofmap, "dirichlet-value")
    w, _ = sym_gen_eigs(
        pair.k_grad[np.ix_(free, free)].toarray(), pair.mass[np.ix_(free, free)].toarray(), 1
    )
    target = disk_oracle("dirichlet", 1).values[0]
    assert abs(w[0] - target) / target < 0.005


def test_morley_affine_interpolant_in_bending_kernel(disk2):
    pair = get_pair(disk2, "morley")
    nv = disk2.n_vertices
    grad = np.array([-2.0, 1.0])
    u = np.zeros(pair.dofmap.n_dofs)
    u[:nv] = 3.0 - 2.0 * disk2.vertices[:, 0] + disk2.vertices[:, 1]
    u[nv:] = disk2.edge_normals @ grad
    residual = pair.a_bend @ u
    assert np.linalg.norm(residual) < 1e-10


def test_morley_bending_energy_patch_test(disk2):
    # the interpolant of a global quadratic reproduces the element-wise
    # bending energy exactly (Hessian H = [[1, 0.3], [0.3, 1.6]])
    pair = get_pair(disk2, "morley")
    nv = disk2.n_vertices
    x, y = disk2.vertices[:, 0], disk2.vertices[:, 1]
    u = np.zeros(pair.dofmap.n_dofs)
    u[:nv] = 1.0 + 2.0 * x - y + 0.5 * x * x + 0.3 * x * y + 0.8 * y * y
    mids = disk2.edge_midpoints()
    grads = np.column_stack(
        [2.0 + 1.0 * mids[:, 0] + 0.3 * mids[:, 1],
         -1.0 + 0.3 * mids[:, 0] + 1.6 * mids[:, 1]]
    )
    u[nv:] = np.einsum("ij,ij->i", disk2.edge_normals, grads)
    frobenius_sq = 1.0**2 + 2 * 0.3**2 + 1.6**2
    exact = disk2.area() * frobenius_sq
    assert abs(u @ pair.a_bend @ u - exact) < 1e-10 * exact


def test_morley_clamped_pencil_matches_disk_oracle(disk3):
    pair = get_pair(disk3, "morley")
    _, free = classify_dofs(pair.dofmap, "clamped")
    f = pair.fourth_order_matrix()
    w, _ = sym_gen_eigs(
        f[np.ix_(free, free)].toarray(), pair.k_grad[np.ix_(free, free)].toarray(), 1
    )
    target = disk_oracle("buckling", 1).values[0]
    assert abs(w[0] - target) / target < 0.02


def test_bending_form_nonnegative(disk2, rng):
    pair = get_pair(disk2, "morley")
    for _ in range(20):
        x = rng.standard_normal(pair.dofmap.n_dofs)
        assert x @ pair.a_bend @ x >= -1e-10 * np.max(np.abs(pair.a_bend))


def test_morley_gradient_kernel_is_constants(disk2):
    pair = get_pair(disk2, "morley")
    const = np.zeros(pair.dofmap.n_dofs)
    const[: disk2.n_vertices] = 1.0  # constant field: unit values, zero slopes
    assert np.max(np.abs(pair.k_grad @ const)) < 1e-10 * np.max(np.abs(pair.k_grad))


def test_pair_matrices_immutable(disk2):
    pair = get_pair(disk2, "morley")
    with pytest.raises(ValueError):
        pair.k_grad[0, 0] = 1.0
    with pytest.raises(ValueError):
        pair.a_bend[0, 0] = 1.0


def test_gradient_energy_exact_for_linear(rect4):
    # v = x interpolated in P2; its gradient energy is the area
    pair = assemble_lagrange(rect4)
    nv = rect4.n_vertices
    v = np.concatenate([rect4.vertices[:, 0], rect4.edge_midpoints()[:, 0]])
    assert abs(v @ pair.k_grad @ v - 1.0) < 1e-12


def test_boundary_normal_mass(rect4, disk2, disk3):
    pair = assemble_morley(rect4)
    diag = boundary_normal_mass(rect4, pair.dofmap)
    nonzero = diag[diag != 0]
    assert np.allclose(nonzero, 0.25)
    assert len(nonzero) == len(rect4.boundary_edges)

    # trace converges to the circle perimeter at rate h^2
    defects = []
    for mesh in (disk2, disk3):
        d = boundary_normal_mass(mesh, get_pair(mesh, "morley").dofmap)
        defects.append(2 * np.pi - d.sum())
    assert defects[0] > defects[1] > 0
    assert 1.7 < np.log2(defects[0] / defects[1]) < 2.3

    # psi == 1 on boundary DOFs pairs to the perimeter
    psi = (diag != 0).astype(float)
    assert abs((diag * psi) @ psi - rect4.perimeter()) < 1e-12

    lag = assemble_lagrange(rect4)
    with pytest.raises(DofKindError):
        boundary_normal_mass(rect4, lag.dofmap)


def test_classify_dofs_counts(disk2):
    pair = get_pair(disk2, "morley")
    nb_v = len(disk2.boundary_vertices)
    nb_e = len(disk2.boundary_edges)
    constrained, _ = classify_dofs(pair.dofmap, "clamped")
    assert len(constrained) == nb_v + nb_e
    constrained, _ = classify_dofs(pair.dofmap, "navier")
    assert len(constrained) == nb_v

    lag = get_pair(disk2, "lagrange")
    with pytest.raises(DofKindError):
        classify_dofs(lag.dofmap, "navier")
    with pytest.raises(DofKindError):
        classify_dofs(pair.dofmap, "dirichlet-value")


def test_degenerate_all_boundary_grid(tmp_path):
    # on a single triangle every P2 DOF (three vertices, three edge
    # midpoints) lies on the boundary: empty free set, and the
    # eigensolver must reject the empty problem
    from bucklab import load_mesh

    mesh_file = tmp_path / "triangle.mesh"
    mesh_file.write_text("vertices 3 triangles 1\n0 0\n1 0\n0 1\n0 1 2\n")
    pair = assemble_lagrange(load_mesh(mesh_file))
    constrained, free = classify_dofs(pair.dofmap, "dirichlet-value")
    assert len(constrained) == 6
    assert len(free) == 0
    with pytest.raises(ValueError):
        sym_gen_eigs(np.zeros((0, 0)), np.zeros((0, 0)), 1)


def test_degenerate_sliver_triangle_rejected(tmp_path):
    # positive but far-below-threshold area next to a healthy triangle
    mesh_file = tmp_path / "sliver.mesh"
    mesh_file.write_text(
        "vertices 4 triangles 2\n"
        "0 0\n1 0\n0.5 1\n0.5 -1e-16\n"
        "0 1 2\n1 0 3\n"
    )
    from bucklab import MeshError, load_mesh

    mesh = load_mesh(mesh_file)
    with pytest.raises(MeshError):
        assemble_lagrange(mesh)


def test_assembly_bit_deterministic(disk2):
    a1 = assemble_morley(disk2)
    a2 = assemble_morley(disk2)
    for name in ("a_bend", "k_grad"):
        m1, m2 = getattr(a1, name), getattr(a2, name)
        for part in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(m1, part), getattr(m2, part))


def _per_edge_trace_mass(mesh, btd):
    """The boundary trace mass as a loop over the boundary edges summed
    it, one dense block update per edge: the oracle."""
    pos = {int(d): i for i, d in enumerate(btd)}
    out = np.zeros((len(btd), len(btd)))
    lengths = mesh.edge_lengths()
    for e in mesh.boundary_edges:
        va, vb = mesh.edges[e]
        loc = [pos[int(va)], pos[int(vb)], pos[int(mesh.n_vertices + e)]]
        out[np.ix_(loc, loc)] += lengths[e] * assembly._EDGE_MASS_P2
    return out


@pytest.mark.parametrize("mesh_name", ["disk2", "rect4"])
def test_trace_mass_equals_the_per_edge_loop(mesh_name, request):
    """The boundary trace mass has the bits of the per-edge loop, on the
    boundary-value DOFs."""
    mesh = request.getfixturevalue(mesh_name)
    pair = assemble_lagrange(mesh)
    assert np.array_equal(pair.b_trace_dofs, pair.dofmap.boundary_value_dofs())
    assert np.array_equal(pair.b_trace, _per_edge_trace_mass(mesh, pair.b_trace_dofs))
    assert pair.b_trace.flags.c_contiguous and not pair.b_trace.flags.writeable


@pytest.mark.parametrize("family", ["lagrange-2", "morley"])
def test_pair_forms_share_one_pattern(disk2, family):
    """Both forms of a pair are summed on one DOF layout, so they hold
    one ``indptr`` and one ``indices`` array between them."""
    if family == "morley":
        pair = assemble_morley(disk2)
        first, second = pair.a_bend, pair.k_grad
    else:
        pair = assemble_lagrange(disk2)
        first, second = pair.k_grad, pair.mass
    for part in ("indptr", "indices"):
        assert np.shares_memory(getattr(first, part), getattr(second, part))
    assert first.has_canonical_format and second.has_canonical_format


def test_dense_and_sparse_scatter_agree(disk2):
    """The dense and the sparse sums of one layout hold the same bits."""
    coords = np.ascontiguousarray(disk2.vertices[disk2.triangles])
    ke, me = kernels.lagrange2_local(coords)
    n = disk2.n_vertices + disk2.n_edges
    dofs = np.hstack([disk2.triangles, disk2.n_vertices + disk2.tri_edges])
    for local, m in zip((ke, me), assembly.scatter(n, dofs, ke, me)):
        d = assembly.scatter_dense(n, dofs, local)
        assert d.flags.c_contiguous
        assert np.array_equal(d, m.toarray())


def test_fourth_order_matrix_adds_curvature_only_on_boundary_normals(disk2, rect4):
    pair = get_pair(disk2, "morley")
    f_csc = pair.fourth_order_matrix()
    assert f_csc is pair.fourth_order_matrix()  # built once, at assembly
    assert not f_csc.data.flags.writeable
    f = f_csc.toarray()
    diff = f - pair.a_bend.toarray()
    expected = np.diag(pair.curvature * pair.b_normal_diag)
    # off-diagonal untouched; diagonal shifted by the curvature term
    assert np.array_equal(diff - np.diag(np.diag(diff)), np.zeros_like(diff))
    np.testing.assert_allclose(
        np.diag(diff), np.diag(expected), atol=1e-12 * np.max(np.abs(f))
    )
    assert pair.curvature == 1.0  # unit disk

    flat = assemble_morley(rect4)
    assert flat.curvature == 0.0
    assert np.array_equal(flat.fourth_order_matrix().toarray(), flat.a_bend.toarray())


def test_level5_assembles_sparse_and_counts_from_a_prefix():
    disk5 = make_disk_mesh(1.0, 5)
    n = disk5.n_vertices + disk5.n_edges
    assert n == 16641
    upto = 28.0  # between the Dirichlet eigenvalues 26.37 and 30.47
    tracemalloc.start()
    try:
        pair = assemble_morley(disk5)
        prefix = pencil_eigenvalues(disk5, "dirichlet", upto=upto)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    for mat in (pair.k_grad, pair.a_bend):
        assert mat.format == "csc" and mat.shape == (n, n)
    assert peak < 0.05 * 8 * n * n  # one dense n x n array is 2.2 GB
    oracle = disk_oracle("dirichlet", 8).values
    below = oracle[oracle < upto]
    assert prefix[-1] > upto
    assert np.sum(prefix < upto) == len(below) == 5
    assert np.all(np.abs(prefix[:len(below)] - below) <= 1e-3 * below)
