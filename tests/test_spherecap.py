import dataclasses
import sys

import numpy as np
import pytest

from bucklab import (
    SpectrumRangeError,
    cap_buckling_lambda1,
    cap_operators,
    cap_scan,
    cap_spectrum,
    make_radial_grid,
)
from bucklab import spherecap
from bucklab.quadrature import gauss_on_interval
from bucklab.runio import tallies

from oracles import full_cap_buckling, full_cap_merge


def mode_eigs(eps, m, n, bc, k, order="second"):
    grid = make_radial_grid(eps, n, "geometric")
    return cap_operators(grid, m, order).smallest(bc, k)


def test_closed_sphere_limit_mode0():
    w = mode_eigs(1e-3, 0, 64, "neumann", 3)
    targets = np.array([0.0, 2.0, 6.0])
    assert abs(w[0]) < 1e-3
    assert np.all(np.abs(w[1:] - targets[1:]) / targets[1:] < 0.01)


def test_closed_sphere_limit_mode1():
    w = mode_eigs(1e-3, 1, 64, "neumann", 1)
    assert abs(w[0] - 2.0) / 2.0 < 0.01


def test_mode0_rowsum_constants_in_kernel():
    """For m = 0 the constant field lies in the kernel of every
    derivative form, and its mass is the cap area / 2 pi = 1 + cos(eps).
    Hermite constants have value DOFs 1 and derivative DOFs 0."""
    eps = 0.3
    grid = make_radial_grid(eps, 32, "uniform")
    for order in ("second", "fourth"):
        ops = cap_operators(grid, 0, order)
        c = np.ones(ops.n_dofs)
        if order == "fourth":
            c[1::2] = 0.0
        for form in [ops.k_m] + ([ops.a_m] if order == "fourth" else []):
            assert np.max(np.abs(form @ c)) < 1e-10 * np.max(np.abs(form))
        assert abs(c @ ops.m_m @ c - (1 + np.cos(eps))) <= 1e-12 * (1 + np.cos(eps))


@pytest.mark.parametrize("order", ["second", "fourth"])
def test_stacked_assembly_matches_element_loop(order):
    """The stacked assembly gives the bits of an element-by-element loop
    that maps the Gauss rule and evaluates the basis per element."""
    m = 2
    grid = make_radial_grid(0.1, 12, "geometric")
    ops = cap_operators(grid, m, order)
    ref = {key: np.zeros((ops.n_dofs, ops.n_dofs)) for key in "kma"}
    for e, (a, b) in enumerate(zip(grid.nodes[:-1], grid.nodes[1:])):
        xq, wq = gauss_on_interval(a, b, spherecap.GAUSS_POINTS)
        s = np.sin(xq)
        if order == "second":
            val, d1 = spherecap._lagrange_basis(a, b, xq)
            lap = val  # no bending form
        else:
            val, d1, d2 = spherecap._hermite_basis(a, b, xq)
            lap = d2 + (np.cos(xq) / s) * d1 - (m * m / s**2) * val
        wk, wm = wq * s, wq * (m * m) / s
        for i in range(len(val)):
            for j in range(len(val)):
                at = (2 * e + i, 2 * e + j)
                ref["k"][at] += np.sum(d1[i] * d1[j] * wk + val[i] * val[j] * wm)
                ref["m"][at] += np.sum(val[i] * val[j] * wk)
                ref["a"][at] += np.sum(lap[i] * lap[j] * wk)
    assert ops.k_m.tobytes() == ref["k"].tobytes()
    assert ops.m_m.tobytes() == ref["m"].tobytes()
    if order == "fourth":
        assert ops.a_m.tobytes() == ref["a"].tobytes()


def _add_at_form(t, integrand):
    """A cap form as the dense ``np.add.at`` scatter summed it, in the
    (local DOF, local DOF, element) order of the tables: the oracle."""
    dofs = t.dofs.T
    out = np.zeros((t.ndof, t.ndof))
    np.add.at(out, (dofs[:, None], dofs[None]), np.sum(integrand, axis=-1))
    return out


@pytest.mark.parametrize("grading", ["geometric", "uniform"])
@pytest.mark.parametrize("nodes", [16, 64])
@pytest.mark.parametrize("order", ["second", "fourth"])
def test_cap_forms_equal_the_add_at_scatter(order, nodes, grading):
    """Every cap form of modes 0-4 has the bits of a dense ``np.add.at``
    scatter of the same element integrands."""
    t = spherecap._basis_tables(make_radial_grid(0.2, nodes, grading), order)
    assert np.array_equal(t.m_m, _add_at_form(t, t.vv * t.wk))
    for m in range(5):
        ops = spherecap._mode_operators(t, m)
        wm = t.wq * (m * m) / t.s
        assert np.array_equal(ops.k_m, _add_at_form(t, t.dd_wk + t.vv * wm))
        if order == "fourth":
            lap = t.lap0 - (m * m / t.s**2) * t.val
            assert np.array_equal(ops.a_m, _add_at_form(t, spherecap._outer(lap) * t.wk))
        else:
            assert ops.a_m is None


def test_restrict_views_contiguous_free_sets():
    """Every free set a cap solve uses restricts a form to a view of it,
    but the clamped set of mode 1 (pole slope free, pole value fixed),
    which is copied; the Cholesky test of a mode leaves the forms as
    they were."""
    grid = make_radial_grid(0.2, 16, "geometric")
    for m in range(3):
        for order, bcs in (("second", ("dirichlet", "neumann")), ("fourth", ("clamped",))):
            ops = cap_operators(grid, m, order)
            for bc in bcs:
                free = ops.free_dofs(bc)
                block = spherecap._restrict(ops.k_m, free)
                assert np.array_equal(block, ops.k_m[np.ix_(free, free)])
                assert np.shares_memory(block, ops.k_m) == (order == "second" or m != 1)
        saved = ops.a_m.copy(), ops.k_m.copy()
        spherecap._clamped_above(ops, 1.0)
        assert np.array_equal(ops.a_m, saved[0]) and np.array_equal(ops.k_m, saved[1])


def test_matrices_symmetric():
    grid = make_radial_grid(0.2, 24, "geometric")
    for m in (0, 1, 3):
        for order in ("second", "fourth"):
            ops = cap_operators(grid, m, order)
            mats = [ops.k_m, ops.m_m] + ([ops.a_m] if ops.a_m is not None else [])
            for mat in mats:
                assert np.max(np.abs(mat - mat.T)) <= 1e-12 * np.max(np.abs(mat))


def test_pole_rules():
    grid = make_radial_grid(0.2, 16, "uniform")
    s0 = cap_operators(grid, 0, "second")
    assert s0.pole_value_dof() in s0.free_dofs("dirichlet")
    s1 = cap_operators(grid, 1, "second")
    assert s1.pole_value_dof() not in s1.free_dofs("dirichlet")
    for ops in (s0, s1):  # no derivative DOF to clamp
        with pytest.raises(ValueError):
            ops.free_dofs("clamped")

    f0 = cap_operators(grid, 0, "fourth")
    free0 = f0.free_dofs("clamped")
    assert f0.pole_value_dof() in free0
    assert f0.pole_derivative_dof() not in free0
    f1 = cap_operators(grid, 1, "fourth")
    free1 = f1.free_dofs("clamped")
    assert f1.pole_value_dof() not in free1
    assert f1.pole_derivative_dof() in free1
    f2 = cap_operators(grid, 2, "fourth")
    free2 = f2.free_dofs("clamped")
    assert f2.pole_value_dof() not in free2
    assert f2.pole_derivative_dof() not in free2


def test_cap_spectrum_small_eps():
    mu = cap_spectrum(0.1, "neumann", 3, 3)
    assert abs(mu.values[0]) < 1e-4
    assert abs(mu.values[1] - 2.0) / 2.0 < 0.02
    lam = cap_spectrum(0.1, "dirichlet", 3, 2)
    assert lam.values[0] < 0.7
    # the comparison inequality fails on the punctured sphere
    assert lam.values[0] < mu.values[1]


def test_mode_merge_multiplicity_clusters():
    spec = cap_spectrum(1e-3, "neumann", 5, 9, 64)
    values = spec.values
    clusters = {0.0: 0, 2.0: 0, 6.0: 0}
    for v in values:
        for center in clusters:
            if center == 0.0:
                if abs(v) < 1e-3:
                    clusters[center] += 1
            elif abs(v - center) / center < 0.02:
                clusters[center] += 1
    assert clusters[0.0] == 1
    assert clusters[2.0] == 3
    assert clusters[6.0] == 5


def test_grid_refinement_changes_lambda1_little():
    coarse = cap_spectrum(0.05, "dirichlet", 2, 1, 64).values[0]
    fine = cap_spectrum(0.05, "dirichlet", 2, 1, 128).values[0]
    assert abs(fine - coarse) / fine < 0.005


def test_buckling_mesh_cauchy_and_above_dirichlet():
    coarse = cap_buckling_lambda1(0.5, modes=3, n_nodes=64)
    fine = cap_buckling_lambda1(0.5, modes=3, n_nodes=128)
    assert abs(fine - coarse) / fine < spherecap.CAUCHY_TOL
    lam1 = cap_spectrum(0.5, "dirichlet", 3, 1).values[0]
    assert fine > lam1


@pytest.mark.parametrize("eps, exact, tol", [
    # the exact Legendre-function values (ROADMAP item 9, mpmath)
    (0.1, (0.19239302072912, 2.0147152385468, 1.9849660194049, 2.0147152385468), 1e-9),
    # the hemisphere: Dirichlet 2 (mode 0) and 6 (mode 1), Neumann 2
    # (mode 1), and Lambda1 the mode-1 Dirichlet value
    (np.pi / 2 - 1e-9, (2.0, 6.0, 2.0, 6.0), 1e-8),
])
def test_scan_values_exact_to_the_discretization(eps, exact, tol):
    """At 256 nodes a scan point's four values are the exact ones to the
    discretization error: the inverted pencil loses no digits to the
    graded forms."""
    (rec,) = cap_scan([eps], n_nodes=256).records
    for key, value in zip(("lambda1", "lambda2", "mu2", "Lambda1"), exact):
        assert abs(rec[key] - value) <= tol * value, key


@pytest.mark.parametrize("eps", [0.02, 0.1, 0.5, 1.0, np.pi / 2 - 1e-9])
@pytest.mark.parametrize("nodes", [16, 64, 256])
def test_mode0_clamped_value_is_the_mode1_dirichlet_value(eps, nodes):
    """With w = u', the clamped mode-0 pencil on cubic Hermite u is the
    mode-1 Dirichlet pencil on quadratic Lagrange w, up to quadrature:
    Lambda1^(0) = lambda^(1)_(D,1)."""
    clamped = mode_eigs(eps, 0, nodes, "clamped", 1, order="fourth")[0]
    dirichlet = mode_eigs(eps, 1, nodes, "dirichlet", 1)[0]
    assert abs(clamped - dirichlet) <= 1e-9 * dirichlet


def test_scan_point_one_grid_per_resolution_one_solve_site(monkeypatch):
    """A scan point builds one grid at ``nodes`` and one at ``2 * nodes``
    intervals, and solves on each the Dirichlet and Neumann pencils of
    modes 0 and 1 (no later mode can enter the two smallest merged
    values) and the clamped pencil of mode 0, every solve one dense
    eigensolver call in CapOperators.smallest; one Cholesky
    factorization per grid rules out each later clamped mode. Each grid's basis tables are built once per
    element family."""
    modes, grids, solves = 3, [], {"smallest": 0, "inside": 0, "all": 0}
    make_grid, solve, smallest = (spherecap.make_radial_grid, spherecap.sla.eigh,
                                  spherecap.CapOperators.smallest)
    tables, cholesky = [], []
    basis_tables, clamped_above = spherecap._basis_tables, spherecap._clamped_above

    def counted_grid(eps, n, grading):
        grids.append(n)
        return make_grid(eps, n, grading)

    def counted_solve(*args, **kwargs):
        solves["all"] += 1
        return solve(*args, **kwargs)

    def counted_smallest(self, bc, k):
        solves["smallest"] += 1
        before = solves["all"]
        out = smallest(self, bc, k)
        solves["inside"] += solves["all"] - before
        return out

    def counted_tables(grid, order):
        tables.append((len(grid.nodes) - 1, order))
        return basis_tables(grid, order)

    def counted_cholesky(ops, lam):
        out = clamped_above(ops, lam)
        cholesky.append((ops.m, out))
        return out

    monkeypatch.setattr(spherecap, "make_radial_grid", counted_grid)
    monkeypatch.setattr(spherecap.sla, "eigh", counted_solve)
    monkeypatch.setattr(spherecap.CapOperators, "smallest", counted_smallest)
    monkeypatch.setattr(spherecap, "_basis_tables", counted_tables)
    monkeypatch.setattr(spherecap, "_clamped_above", counted_cholesky)
    scan = cap_scan([0.2], n_nodes=16, modes=modes)
    assert len(scan.records) == 1
    assert grids == [16, 32]
    assert solves == {key: 2 * (2 * 2 + 1) for key in solves}
    assert cholesky == 2 * [(m, True) for m in range(1, modes + 1)]
    assert tables == [(n, order) for n in (16, 32) for order in ("second", "fourth")]


def test_clamped_mode_counts_lose_no_update_across_threads():
    """Scan points on more threads than cores, switching threads every
    microsecond, count every clamped mode once: per grid one solved and
    ``modes`` ruled out."""
    eps_list, modes = np.linspace(0.1, 0.6, 12), 3
    before = tallies()["clamped_modes"]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        scan = cap_scan(eps_list, n_nodes=8, modes=modes, threads=4)
    finally:
        sys.setswitchinterval(interval)
    assert len(scan.records) == len(eps_list)
    after = tallies()["clamped_modes"]
    grids = 2 * len(eps_list)
    assert {k: after[k] - before[k] for k in after} == {"solved": grids,
                                                       "ruled_out": modes * grids}


@pytest.mark.parametrize("eps", [0.02, 0.1, 0.5, 1.0, np.pi / 2 - 1e-9])
@pytest.mark.parametrize("nodes", [16, 64])
def test_cholesky_rule_changes_no_buckling_value(eps, nodes):
    """Ruling clamped modes out by a Cholesky factorization gives the
    same bits as solving every mode."""
    grid = make_radial_grid(eps, nodes, "geometric")
    for modes in (2, 4, 6):
        assert spherecap._buckling_lambda1(grid, modes) == full_cap_buckling(grid, modes)


def test_mode_that_fails_cholesky_is_solved(monkeypatch):
    """With mode 2's bending form scaled down it holds the smallest
    value: its Cholesky factorization fails, it is solved, and it sets
    the result, while modes 1, 3 and 4 are ruled out."""
    mode_operators, clamped_above = spherecap._mode_operators, spherecap._clamped_above
    smallest = spherecap.CapOperators.smallest
    cholesky, solved = {}, []

    def weak_mode2(tables, m):
        ops = mode_operators(tables, m)
        if m == 2 and ops.order == "fourth":
            ops = dataclasses.replace(ops, a_m=0.05 * ops.a_m)
        return ops

    def counted_cholesky(ops, lam):
        cholesky[ops.m] = clamped_above(ops, lam)
        return cholesky[ops.m]

    def counted_smallest(self, bc, k):
        solved.append(self.m)
        return smallest(self, bc, k)

    monkeypatch.setattr(spherecap, "_mode_operators", weak_mode2)
    grid = make_radial_grid(0.1, 16, "geometric")
    expected = full_cap_buckling(grid, 4)
    assert expected < full_cap_buckling(grid, 1)  # mode 2 wins
    monkeypatch.setattr(spherecap, "_clamped_above", counted_cholesky)
    monkeypatch.setattr(spherecap.CapOperators, "smallest", counted_smallest)
    assert spherecap._buckling_lambda1(grid, 4) == expected
    assert cholesky == {1: True, 2: False, 3: True, 4: True}
    assert solved == [0, 2]


@pytest.mark.parametrize("eps", [0.02, 0.1, 0.5, 1.0])
@pytest.mark.parametrize("nodes", [16, 64])
def test_merge_stop_changes_no_value(eps, nodes):
    """The merge that stops at the first mode unable to enter gives the
    same bits as solving every mode."""
    grid = make_radial_grid(eps, nodes, "geometric")
    for modes in (2, 4, 6):
        for k in (1, 2, 3, 6, 9):
            both = spherecap._merged_spectra(grid, ("dirichlet", "neumann"), modes, k)
            for spec in both:
                full = full_cap_merge(grid, spec.problem, modes, k)
                assert np.array_equal(spec.values, full)
                alone = spherecap._merged_spectra(grid, (spec.problem,), modes, k)[0]
                assert np.array_equal(alone.values, full)


def test_cap_scan_contract():
    scan = cap_scan([0.4, 0.2, 0.1, 0.05], n_nodes=48, modes=3)
    assert len(scan.records) == 4
    assert scan.skips == []
    lam1s = [r["lambda1"] for r in scan.records]
    # monotone in eps: smaller cap removed, smaller ground value
    assert all(a > b for a, b in zip(lam1s, lam1s[1:]))
    for r in scan.records:
        assert not r["resolution_warning"]
        assert r["Lambda1"] > r["lambda1"]
        if r["eps"] <= 0.1:
            assert r["friedlander_fails"]
            assert abs(r["mu2"] - 2.0) / 2.0 < 0.02
        assert isinstance(r["payne_fails"], bool)


def test_cap_spectrum_range_guard():
    with pytest.raises(SpectrumRangeError):
        cap_spectrum(0.3, "dirichlet", 2, 10_000, 16)
    with pytest.raises(ValueError):
        cap_spectrum(0.3, "dirichlet", 1, 2)


@pytest.mark.parametrize("threads", [1, 2])
def test_cap_scan_skips_domain_errors_only(monkeypatch, threads):
    def buggy(eps, *args):
        raise TypeError("programming error")

    def refused(eps, *args):
        raise SpectrumRangeError(f"no value at eps={eps}")

    monkeypatch.setattr(spherecap, "_scan_point", buggy)
    with pytest.raises(TypeError):
        cap_scan([0.4, 0.2], threads=threads)
    monkeypatch.setattr(spherecap, "_scan_point", refused)
    scan = cap_scan([0.4, 0.2], threads=threads)
    assert scan.records == []
    assert [s["index"] for s in scan.skips] == [0, 1]
    assert "eps=0.2" in scan.skips[1]["reason"]
