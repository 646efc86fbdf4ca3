import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bucklab import (
    FactorCheckError,
    MeshError,
    SpectrumRangeError,
    buckling_ground_state,
    disk_oracle,
    eigen,
    load_mesh,
    make_disk_mesh,
    save_mesh,
    spectra,
    spectrum,
    sym_gen_eigs,
    trace_operator,
    verify_identity,
)
from bucklab.runio import tallies
from bucklab.spectra import (
    Spectrum,
    get_pair,
    pencil_eigenvalues,
    pencil_pair,
    smallest_eigenpairs,
)

from oracles import dense_pencil_eigenvalues, inertia, sliced_forms

PROBLEMS = ["dirichlet", "neumann", "buckling", "navier"]


def test_rect_neumann_values(rect16):
    s = spectrum(rect16, "neumann", 2)
    assert abs(s.values[0]) < 1e-8
    assert abs(s.values[1] - np.pi**2) / np.pi**2 < 0.002


def test_disk_dirichlet_level3(disk3):
    s = spectrum(disk3, "dirichlet", 3)
    oracle = disk_oracle("dirichlet", 3)
    assert np.all(np.abs(s.values - oracle.values) / oracle.values < 0.01)


def test_disk_neumann_level3(disk3):
    s = spectrum(disk3, "neumann", 3)
    oracle = disk_oracle("neumann", 3)
    assert abs(s.values[0]) < 1e-8
    assert np.all(
        np.abs(s.values[1:] - oracle.values[1:]) / oracle.values[1:] < 0.01
    )


def test_disk_buckling_level3(disk3):
    s = spectrum(disk3, "buckling", 3)
    oracle = disk_oracle("buckling", 3)
    assert abs(s.values[0] - oracle.values[0]) / oracle.values[0] < 0.02
    assert np.all(np.abs(s.values[1:] - oracle.values[1:]) / oracle.values[1:] < 0.015)


def test_buckling_above_dirichlet(disk3, rect16):
    for mesh in (disk3, rect16):
        lam1 = spectrum(mesh, "dirichlet", 1).values[0]
        big = spectrum(mesh, "buckling", 1).values[0]
        assert big > lam1


def test_navier_matches_dirichlet(disk3, rect16):
    nav = spectrum(disk3, "navier", 5)
    dir_ = spectrum(disk3, "dirichlet", 5)
    assert np.all(np.abs(nav.values - dir_.values) / dir_.values < 0.02)

    nav_r = spectrum(rect16, "navier", 1)
    assert abs(nav_r.values[0] - 2 * np.pi**2) / (2 * np.pi**2) < 0.02


def test_disk_oracle_frozen_values():
    d = disk_oracle("dirichlet", 8)
    np.testing.assert_allclose(
        d.values,
        [5.783186, 14.681971, 14.681971, 26.374616, 26.374616, 30.471262,
         40.706466, 40.706466],
        atol=5e-6,
    )
    n = disk_oracle("neumann", 8)
    np.testing.assert_allclose(
        n.values,
        [0.0, 3.389958, 3.389958, 9.328363, 9.328363, 14.681971, 17.649989,
         17.649989],
        atol=5e-6,
    )
    b = disk_oracle("buckling", 8)
    np.testing.assert_allclose(
        b.values,
        [14.681971, 26.374616, 26.374616, 40.706466, 40.706466, 49.218456,
         57.582941, 57.582941],
        atol=5e-6,
    )
    with pytest.raises(SpectrumRangeError):
        disk_oracle("dirichlet", 51)


def test_payne_inequality_on_disk_oracles_and_fem(disk3):
    lam = disk_oracle("dirichlet", 7).values
    big = disk_oracle("buckling", 6).values
    for k in range(1, 6):
        assert big[k - 1] >= lam[k] - 1e-9
    # finite element counterpart within discretization tolerance
    lam_h = spectrum(disk3, "dirichlet", 7).values
    big_h = spectrum(disk3, "buckling", 6).values
    for k in range(1, 6):
        assert big_h[k - 1] >= lam_h[k] * (1 - 0.02)


def test_domain_monotonicity(disk3, rect16):
    disk_lam1 = spectrum(disk3, "dirichlet", 1).values[0]
    rect_lam1 = spectrum(rect16, "dirichlet", 1).values[0]
    assert disk_lam1 < rect_lam1


def test_convergence_rates():
    oracle_d = disk_oracle("dirichlet", 1).values[0]
    errs = []
    for level in (1, 2, 3):
        mesh = make_disk_mesh(1.0, level)
        errs.append(abs(spectrum(mesh, "dirichlet", 1).values[0] - oracle_d))
    rate = np.log2(errs[1] / errs[2])
    assert rate >= 1.7

    oracle_b = disk_oracle("buckling", 3).values
    errs_b = []
    for level in (1, 2, 3):
        mesh = make_disk_mesh(1.0, level)
        vals = spectrum(mesh, "buckling", 3).values
        errs_b.append(abs(vals[1] - oracle_b[1]))
    rate_b = np.log2(errs_b[1] / errs_b[2])
    assert rate_b >= 1.5


def test_every_entry_point_needs_no_element_argument(disk2):
    """There is one element per problem (P2 for Dirichlet and Neumann,
    Morley for buckling and Navier), so no call names one: each spectrum,
    identity check and trace operator runs on its positional arguments."""
    for problem in PROBLEMS:
        s = spectrum(disk2, problem, 3)
        assert s.problem == problem and len(s) == 3
    for kind, name in (("friedlander", "dtn"), ("liu", "ntl")):
        assert verify_identity(disk2, kind, 7.0).identity_holds
        assert trace_operator(disk2, kind, 7.0).kind == name


def test_spectrum_validates_ordering():
    with pytest.raises(ValueError):
        Spectrum("dirichlet", np.array([2.0, 1.0]), "x")


def test_result_caches_keyed_on_radius(tmp_path, disk2, monkeypatch):
    # same vertices and triangles, another radius: another boundary
    # curvature, so the reload must not be served the original's pair
    path = tmp_path / "disk.mesh"
    save_mesh(disk2, path)
    original = spectrum(disk2, "navier", 3).values
    reload = load_mesh(path, domain_tag="disk", radius=2.0)
    warm = spectrum(reload, "navier", 3).values
    monkeypatch.setattr(spectra, "_PAIR_CACHE", {})
    monkeypatch.setattr(spectra, "_PREFIX_CACHE", {})
    cold = spectrum(reload, "navier", 3).values
    assert np.array_equal(warm, cold)
    assert not np.allclose(warm, original)
    with pytest.raises(MeshError):
        load_mesh(path, domain_tag="disk")


@given(
    level=st.sampled_from([2, 3]),
    radius=st.floats(min_value=0.5, max_value=50.0),
    problem=st.sampled_from(PROBLEMS),
    count=st.integers(min_value=1, max_value=8),
)
# the disk has exactly double eigenvalues: count 2 splits the pair
# 14.68 (dirichlet, navier) and 3.39 (neumann), count 8 the pair 40.7
@example(level=3, radius=1.0, problem="dirichlet", count=2)
@example(level=2, radius=1.0, problem="neumann", count=2)
@example(level=2, radius=0.5, problem="buckling", count=2)
@example(level=3, radius=50.0, problem="navier", count=8)
@settings(max_examples=15, deadline=None)
def test_lanczos_eigenpairs_match_dense(level, radius, problem, count):
    pair = pencil_pair(make_disk_mesh(radius, level), problem)
    before = tallies()["solver"]["check_failed"]
    w, v, rows = smallest_eigenpairs(pair, problem, count)
    assert tallies()["solver"]["check_failed"] == before
    # the vectors over the free DOFs, as the dense forms order them
    free = spectra.free_dofs(pair, problem)
    v = v[np.argsort(rows)]
    assert np.array_equal(np.sort(rows), free)
    a, b = sliced_forms(pair, problem)
    # one value more, so that a pair split by count is whole here
    w_dense, v_dense = sym_gen_eigs(a.toarray(), b.toarray(), count + 1)
    scale = np.maximum(1.0, np.abs(w_dense[:count]))
    assert np.all(np.abs(w - w_dense[:count]) <= 1e-10 * scale)
    # each vector equals its dense counterpart up to sign, or, for a
    # multiple value, lies in the dense eigenspace
    for i in range(count):
        same = np.flatnonzero(np.abs(w_dense - w_dense[i]) <= 1e-8 * scale[i])
        basis = v_dense[:, same]
        rest = v[:, i] - basis @ (basis.T @ (b @ v[:, i]))
        assert np.sqrt(rest @ (b @ rest)) <= 1e-6


@pytest.mark.parametrize("problem", PROBLEMS)
def test_lanczos_certificate_catches_a_missed_value(disk2, problem, monkeypatch):
    """A Lanczos run that misses one eigenvalue (here the second, one
    copy of a double eigenvalue of each pencil on the disk) fails the
    inertia certificate at both tolerances: FactorCheckError, after one
    retry, and no value is returned."""
    real_eigsh = eigen.spla.eigsh

    def missing_second(*args, **kwargs):
        w, v = real_eigsh(*args, **kwargs)
        keep = np.delete(np.argsort(w), 1)
        return w[keep], v[:, keep]

    pair = pencil_pair(disk2, problem)
    monkeypatch.setattr(eigen.spla, "eigsh", missing_second)
    before = tallies()["solver"]
    with pytest.raises(FactorCheckError, match="3 smallest eigenpairs .* inertia certificate"):
        smallest_eigenpairs(pair, problem, 3)
    after = tallies()["solver"]
    assert after["lanczos_retry"] == before["lanczos_retry"] + 1
    assert after["check_failed"] == before["check_failed"]


@pytest.mark.parametrize("problem, count, forced", [
    ("dirichlet", 3, True),
    ("buckling", 3, True),
    # these fail the certificate at tolerance 1e-10 without any help
    ("neumann", 11, False),
    ("navier", 25, False),
])
def test_lanczos_retry_certifies_at_tolerance_zero(disk2, problem, count, forced,
                                                   monkeypatch):
    """A Lanczos result that fails its certificate at ARPACK tolerance
    1e-10 (``forced``: every such run drops its smallest Ritz pair) is
    solved again at tolerance 0, which certifies it: the values of a
    plain tolerance-0 solve, one retry, no failed check. The shift
    factor was dropped before the failed certificate factored, so the
    forced retry factors the shift again: four trusted factors, two
    shifts and two certificates."""
    pair = pencil_pair(disk2, problem)
    with monkeypatch.context() as m:
        m.setattr(eigen, "_LANCZOS_TOLS", (0.0,))
        plain = smallest_eigenpairs(pair, problem, count)[0]
    if forced:
        real_eigsh = eigen.spla.eigsh

        def drops_smallest(*args, tol=0.0, **kwargs):
            w, v = real_eigsh(*args, tol=tol, **kwargs)
            keep = np.argsort(w)[1 if tol > 0 else 0:]
            return w[keep], v[:, keep]

        monkeypatch.setattr(eigen.spla, "eigsh", drops_smallest)
    before = tallies()["solver"]
    w, _, _ = smallest_eigenpairs(pair, problem, count)
    after = tallies()["solver"]
    assert after["lanczos_retry"] == before["lanczos_retry"] + 1
    assert after["check_failed"] == before["check_failed"]
    if forced:
        assert after["sparse_ldlt"] == before["sparse_ldlt"] + 4
    assert np.array_equal(w, plain)


def test_level5_spectrum_and_ground_state_stay_sparse():
    disk5 = make_disk_mesh(1.0, 5)
    pair = get_pair(disk5, "morley")
    n = pair.dofmap.n_dofs
    assert n == 16641
    upto = 30.0  # between the buckling eigenvalues 26.37 and 40.71
    tracemalloc.start()
    try:
        values = spectrum(disk5, "buckling", 3).values
        _, lambda1 = buckling_ground_state(pair)
        prefix = pencil_eigenvalues(disk5, "buckling", upto=upto)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.05 * 8 * n * n  # one dense n x n array is 2.2 GB
    oracle = disk_oracle("buckling", 3).values
    assert np.all(np.abs(values - oracle) <= 1e-3 * oracle)
    assert abs(lambda1 - oracle[0]) <= 1e-3 * oracle[0]
    assert prefix[-1] > upto
    assert np.sum(prefix < upto) == 3
    assert np.all(np.abs(prefix[:3] - values) <= 1e-10 * values)


@pytest.mark.parametrize("mesh_name", ["disk2", "disk3", "rect16"])
@pytest.mark.parametrize("problem", PROBLEMS)
def test_prefix_counts_and_nearest_match_dense(request, mesh_name, problem, monkeypatch):
    """Below any bound ``upto``, the certified prefix counts the
    eigenvalues under ``lam`` exactly as the dense full spectrum does,
    and names the same nearest eigenvalue; a smaller bound later is
    served from the cache without a new solve."""
    mesh = request.getfixturevalue(mesh_name)
    dense = dense_pencil_eigenvalues(mesh, problem)
    monkeypatch.setattr(spectra, "_PREFIX_CACHE", {})

    @given(st.floats(-5.0, 100.0), st.floats(-5.0, 100.0))
    @settings(max_examples=6, deadline=None)
    def check(x, y):
        lam, upto = sorted((x, y))
        # a count is only defined away from the spectrum; the scans keep
        # lam 1e-3 away, the Lanczos values are good to about 1e-12
        assume(np.min(np.abs(dense - lam)) > 1e-8 * max(1.0, abs(lam)))
        prefix = pencil_eigenvalues(mesh, problem, upto=upto)
        assert prefix[-1] > upto
        assert np.sum(prefix < lam) == np.sum(dense < lam)
        nearest = dense[np.argmin(np.abs(dense - lam))]
        got = prefix[np.argmin(np.abs(prefix - lam))]
        assert abs(got - nearest) <= 1e-10 * max(1.0, abs(nearest))
        before = tallies()["solver"]
        assert pencil_eigenvalues(mesh, problem, upto=lam) is prefix
        assert tallies()["solver"] == before

    check()


def test_prefix_bound_is_required(disk2):
    with pytest.raises(TypeError):
        pencil_eigenvalues(disk2, "dirichlet")


def test_prefix_sized_by_one_inertia_count(disk3, monkeypatch):
    """A prefix is one inertia count at ``upto`` and one Lanczos solve for
    one value more than it counts: on disk level 3, the Neumann prefixes
    past 25 and then past 61 make one ``sparse_smallest_eigs`` call each,
    and the second holds N(61) + 1 = 20 values."""
    dense = dense_pencil_eigenvalues(disk3, "neumann")
    counts = []
    solve = spectra.sparse_smallest_eigs

    def counted(pencil, count, sigma):
        counts.append(count)
        return solve(pencil, count, sigma)

    monkeypatch.setattr(spectra, "_PREFIX_CACHE", {})
    monkeypatch.setattr(spectra, "sparse_smallest_eigs", counted)
    for upto in (25.0, 61.0):
        prefix = pencil_eigenvalues(disk3, "neumann", upto=upto)
        assert counts[-1] == len(prefix) == np.sum(dense < upto) + 1
        assert prefix[-1] > upto
    assert len(counts) == 2
    assert len(prefix) == 20


def test_prefix_bound_at_the_neumann_zero(disk2, monkeypatch):
    """At ``upto`` on the Neumann zero, A - upto B is singular: its
    checked factor fails the pivot test, and the count at a bound nudged
    above it takes the zero eigenvalue as one at ``upto``, with no failed
    check counted. The prefix is that value and the next, which lies
    above ``upto``."""
    monkeypatch.setattr(spectra, "_PREFIX_CACHE", {})
    before = tallies()["solver"]
    zero = pencil_eigenvalues(disk2, "neumann", upto=0.0)
    assert len(zero) == 2 and zero[-1] > 0.0
    assert tallies()["solver"]["check_failed"] == before["check_failed"]
    monkeypatch.setattr(spectra, "_PREFIX_CACHE", {})
    at_value = pencil_eigenvalues(disk2, "neumann", upto=float(zero[0]))
    assert len(at_value) == 2 and at_value[-1] > zero[0]


def test_prefix_bound_at_the_neumann_zero_beyond_the_dense_cap(disk2, monkeypatch):
    """With the dense cap below the free DOFs, a bound on an eigenvalue
    is still counted: the checked factor of A - upto B fails its pivot
    test at the Neumann zero, and a count at a bound nudged above it sizes
    the same prefix, with no failed check and nothing densified."""
    n = len(spectra.free_dofs(pencil_pair(disk2, "neumann"), "neumann"))
    monkeypatch.setattr(eigen, "MAX_DENSE_DOFS", n - 1)
    monkeypatch.setattr(spectra, "_PREFIX_CACHE", {})
    before = tallies()["solver"]
    zero = pencil_eigenvalues(disk2, "neumann", upto=0.0)
    assert len(zero) == 2 and zero[-1] > 0.0
    assert tallies()["solver"]["check_failed"] == before["check_failed"]


@pytest.mark.parametrize("mesh_name", ["disk2", "rect16"])
@pytest.mark.parametrize("problem", ["buckling", "navier"])
def test_morley_pencil_whose_forms_store_different_patterns(request, mesh_name, problem,
                                                           monkeypatch):
    """On the disk, F drops exact zeros of the bending form that K keeps,
    so A stores fewer entries than B; on the 16x16 rectangle both forms
    store entries that are zero in both. The pencil stores the nonzeros
    of |A| + |B| alone, its matrix at t is A - t B entry for entry, its
    counts equal the dense inertia between eigenvalues, on one and 1e-7
    relative above one (where the checked factor fails its pivot test
    and t is nudged), and its eigenpairs match dense ``eigh``."""
    mesh = request.getfixturevalue(mesh_name)
    pair = pencil_pair(mesh, problem)
    free = spectra.free_dofs(pair, problem)
    a, b = sliced_forms(pair, problem)
    a_dense, b_dense = a.toarray(), b.toarray()
    stored_a = sp.csc_array((np.ones(a.nnz), a.indices, a.indptr), shape=a.shape).toarray() > 0
    if mesh_name == "disk2":
        assert a.nnz < b.nnz
    else:
        assert np.any(stored_a & (a_dense == 0) & (b_dense == 0))

    pencil = eigen.boundary_last_pencil(*spectra.pencil_forms(pair, problem), free, [])
    assert pencil.n_interior == len(free) and np.array_equal(np.sort(pencil.rows), free)
    stored = np.searchsorted(free, pencil.rows)  # pencil row k is row stored[k] of a and b
    assert np.all((pencil.a_data != 0) | (pencil.b_data != 0))
    assert len(pencil.a_data) == np.count_nonzero((a_dense != 0) | (b_dense != 0))
    for t in (0.0, -3.0, 7.5, 61.0):
        assert np.array_equal(pencil.at(t).csc().toarray(),
                              (a - t * b).toarray()[np.ix_(stored, stored)])

    dense = dense_pencil_eigenvalues(mesh, problem)
    gaps = [k for k in range(8) if dense[k + 1] - dense[k] > 1e-3 * dense[k + 1]]
    shifts = [0.5 * (dense[k] + dense[k + 1]) for k in gaps]
    shifts += [dense[k] * f for k in (0, 1, 5) for f in (1.0, 1.0 + 1e-7)]
    refused = []
    checked = eigen._checked_factor

    def recorded(q):
        try:
            return checked(q)
        except FactorCheckError:
            refused.append(q)
            raise

    monkeypatch.setattr(eigen, "_checked_factor", recorded)
    for t in shifts:
        expected = inertia((a - t * b).toarray())
        assert eigen.pencil_count(pencil, t, 1.0 / mesh.area()) == expected.n_neg + expected.n_zero
    monkeypatch.undo()
    assert refused  # the nudge path ran

    w, _, _ = smallest_eigenpairs(pair, problem, 6)
    assert np.all(np.abs(w - dense[:6]) <= 1e-10 * np.maximum(1.0, np.abs(dense[:6])))


def test_prefix_miss_builds_one_pencil(disk2, monkeypatch):
    """A prefix cache miss builds exactly one pencil, asking for the
    fill-reducing order of its pattern once, and factors three of its matrices:
    the count at ``upto``, the Lanczos shift and the certificate. A hit
    builds, factors and classifies nothing, and counts as a hit."""
    built, factored, orders, classified = [], [], [], []
    build, factor, order = spectra.boundary_last_pencil, eigen._checked_factor, eigen.fill_order
    free_dofs = spectra.free_dofs

    def counted_free_dofs(*args):
        classified.append(args)
        return free_dofs(*args)

    def counted_build(*args):
        built.append(build(*args))
        return built[-1]

    def counted_factor(q):
        factored.append(q)
        return factor(q)

    def counted_order(m):
        orders.append(m)
        return order(m)

    monkeypatch.setattr(spectra, "boundary_last_pencil", counted_build)
    monkeypatch.setattr(eigen, "_checked_factor", counted_factor)
    monkeypatch.setattr(eigen, "fill_order", counted_order)
    monkeypatch.setattr(spectra, "free_dofs", counted_free_dofs)
    monkeypatch.setattr(spectra, "_PREFIX_CACHE", {})
    prefix = pencil_eigenvalues(disk2, "dirichlet", upto=30.0)
    assert len(built) == 1 and len(orders) == 1
    pencil = built[0]
    assert len(factored) == 3
    assert all(q.indptr is pencil.indptr and q.indices is pencil.indices for q in factored)
    assert np.array_equal(factored[0].data, pencil.at(30.0).data)
    assert np.array_equal(factored[1].data, pencil.at(-1.0 / disk2.area()).data)
    built.clear()
    factored.clear()
    classified.clear()
    before = tallies()["caches"]["prefixes"]
    assert pencil_eigenvalues(disk2, "dirichlet", upto=20.0) is prefix
    assert built == [] and factored == [] and classified == []
    assert tallies()["caches"]["prefixes"] == {"hits": before["hits"] + 1,
                                                  "misses": before["misses"]}
