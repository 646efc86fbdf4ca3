import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bucklab import (
    BucklabError,
    ExcludedSpectrumError,
    FactorCheckError,
    make_disk_mesh,
    scan_beta1,
    scan_identities,
    trace_operator,
    trace_spectrum,
    verify_identity,
)
from bucklab.assembly import classify_dofs
from bucklab.eigen import boundary_last_pencil, schur_complement
from bucklab.runio import tallies
from bucklab import eigen, spectra, traceops
from bucklab.cli import main
from bucklab.spectra import free_dofs, get_pair, pencil_eigenvalues, pencil_pair
from bucklab.traceops import _IDENTITIES, relative_margin, trace_pencil

from oracles import dense_pencil_eigenvalues, dense_schur, dense_schur_counts, inertia


def _sparse_neg(q) -> int:
    """neg(Q) of a sparse symmetric Q: the negative pivots of the checked
    factor of the pencil (Q, 0) with no boundary, counted once in the
    ``solver`` tallies."""
    n = q.shape[0]
    pencil = boundary_last_pencil(q, sp.csc_array((n, n)), np.arange(n), [])
    return eigen._pencil_inertia(pencil.at(0.0))


def test_dtn_symmetric_and_margin(rect16):
    t = trace_operator(rect16, "friedlander", 5.0)
    scale = np.max(np.abs(t.matrix))
    assert np.max(np.abs(t.matrix - t.matrix.T)) <= 1e-10 * scale
    assert t.margin >= 1e-3


def test_dtn_identity_and_counts(rect16):
    for lam in (5.0, 15.0):
        rep = verify_identity(rect16, "friedlander", lam)
        assert rep.identity_holds
        assert rep.neg_count == rep.lhs_counting - rep.rhs_counting
    # at lam=5 only the Neumann zero mode sits below, at 15 three do
    rep5 = verify_identity(rect16, "friedlander", 5.0)
    assert (rep5.lhs_counting, rep5.rhs_counting) == (1, 0)
    rep15 = verify_identity(rect16, "friedlander", 15.0)
    assert rep15.lhs_counting == 3
    assert rep15.rhs_counting == 0


def test_dtn_excluded_spectrum(rect16):
    lam1 = pencil_eigenvalues(rect16, "dirichlet", upto=0.0)[0]
    with pytest.raises(ExcludedSpectrumError):
        trace_operator(rect16, "friedlander", float(lam1))


def test_dtn_at_zero_constant_kernel(disk2):
    t = trace_operator(disk2, "friedlander", 0.0)
    spec, beta1, neg = trace_spectrum(t)
    assert neg == 0
    assert abs(spec.values[0]) < 1e-8 * max(1.0, abs(spec.values[-1]))
    assert spec.values[1] > 1e-6
    assert beta1 == spec.values[0]


def test_dtn_form_monotone_in_lambda(disk2, rng):
    # within one gap of the excluded spectrum the quadratic form decreases
    lams = np.linspace(0.5, 4.5, 5)
    ops = [trace_operator(disk2, "friedlander", lam) for lam in lams]
    nb = len(ops[0].matrix)
    for _ in range(3):
        psi = rng.standard_normal(nb)
        vals = [psi @ t.matrix @ psi for t in ops]
        assert all(a > b for a, b in zip(vals, vals[1:]))


def test_ntl_signs_and_counts(disk3):
    t2 = trace_operator(disk3, "liu", 2.0)
    _, beta1, neg = trace_spectrum(t2)
    assert beta1 > 0
    assert neg == 0

    rep10 = verify_identity(disk3, "liu", 10.0)
    assert rep10.identity_holds
    assert rep10.neg_count >= 1
    assert (rep10.lhs_counting, rep10.rhs_counting) == (1, 0)

    rep20 = verify_identity(disk3, "liu", 20.0)
    assert rep20.identity_holds
    assert (rep20.neg_count, rep20.lhs_counting, rep20.rhs_counting) == (2, 3, 1)
    _, beta1_20, _ = trace_spectrum(trace_operator(disk3, "liu", 20.0))
    assert beta1_20 < 0


def test_friedlander_disk_matches_continuum_prediction(disk3):
    # at lam=4 the disk counts are far from any eigenvalue: two Neumann
    # values below (0 and 3.39 doubled gives three), none Dirichlet
    rep = verify_identity(disk3, "friedlander", 4.0)
    assert rep.identity_holds
    assert rep.lhs_counting == 3
    assert rep.rhs_counting == 0
    assert rep.neg_count == 3


def test_exact_haynsworth_triple(disk2):
    # neg(trace) + neg(interior block) = neg(full shifted form)
    pair = get_pair(disk2, "lagrange")
    bdofs, idofs = classify_dofs(pair.dofmap, "dirichlet-value")
    pencil = boundary_last_pencil(pair.k_grad, pair.mass, idofs, bdofs)
    for lam in (3.0, 12.0, 27.0):
        q = pair.k_grad - lam * pair.mass
        s = schur_complement(pencil.at(lam)).matrix
        assert inertia(s).n_neg + _sparse_neg(q[np.ix_(idofs, idofs)]) == _sparse_neg(q)


def test_ntl_excluded_spectrum_names_nearest(disk2):
    buck1 = pencil_eigenvalues(disk2, "buckling", upto=0.0)[0]
    with pytest.raises(ExcludedSpectrumError) as err:
        trace_operator(disk2, "liu", float(buck1))
    assert err.value.nearest == pytest.approx(buck1)


def test_scan_identities_all_hold(disk2):
    result = scan_identities(disk2, "liu", np.linspace(1, 60, 10))
    assert result.summary["all_hold"] is True
    assert len(result.records) + len(result.skips) == 10
    assert result.skips == []
    result_f = scan_identities(disk2, "friedlander", np.linspace(0.5, 40, 10))
    assert result_f.summary["all_hold"] is True
    assert result_f.skips == []


def test_scan_nudges_grid_point_on_eigenvalue(disk2):
    lam1 = float(pencil_eigenvalues(disk2, "buckling", upto=0.0)[0])
    result = scan_identities(disk2, "liu", [lam1])
    assert len(result.records) == 1
    rec = result.records[0]
    assert rec["nudged"] is True
    assert rec["lambda"] != lam1
    assert rec["holds"] is True


def test_scan_threads_match_serial(disk2):
    grid = np.linspace(1, 50, 8)
    serial = scan_identities(disk2, "liu", grid, threads=1)
    parallel = scan_identities(disk2, "liu", grid, threads=4)
    assert serial.records == parallel.records


def test_scan_without_a_verified_point_claims_nothing(disk2, tmp_path, monkeypatch, capsys):
    """An empty grid, or one whose every point is skipped, verifies no
    point: ``all_hold`` is None, and ``identity-scan`` says so."""
    assert scan_identities(disk2, "liu", []).summary["all_hold"] is None

    def refused(q):
        raise FactorCheckError("the sparse LDL^T failed its growth check")

    monkeypatch.setattr(traceops, "schur_complement", refused)
    result = scan_identities(disk2, "liu", [5.0, 7.0])
    assert result.records == [] and len(result.skips) == 2
    assert result.summary["all_hold"] is None
    capsys.readouterr()
    assert main(["identity-scan", "--domain", "disk", "--refine", "2", "--points", "3",
                 "--run-root", str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == (
        "all_hold=null points=0 skips=3 (no point verified)")


@pytest.mark.parametrize("kind", ["friedlander", "liu"])
def test_scan_points_are_verify_identity_on_cached_prefixes(disk2, kind):
    """Once the scan's prefixes are cached, each of its P points costs one
    sparse factorization, with no prefix counted again, and each record
    is bit for bit what :func:`verify_identity` reports at its lambda,
    a nudged point included."""
    inner = _IDENTITIES[kind][2]
    on_value = float(pencil_eigenvalues(disk2, inner, upto=0.0)[0])
    grid = np.append(np.linspace(0.5, 60.0, 6), on_value)
    scan_identities(disk2, kind, grid)  # caches the prefixes
    before = tallies()["solver"]
    result = scan_identities(disk2, kind, grid)
    after = tallies()["solver"]
    assert len(result.records) == len(grid)
    assert after["sparse_ldlt"] - before["sparse_ldlt"] == len(grid)
    assert after["check_failed"] == before["check_failed"]
    assert result.records[-1]["nudged"] is True
    for rec in result.records:
        rep = verify_identity(disk2, kind, rec["lambda"])
        assert (rec["neg_count"], rec["lhs"], rec["rhs"], rec["margin"]) == (
            rep.neg_count, rep.lhs_counting, rep.rhs_counting, rep.margin)


def test_scan_beta1_sign_change(disk2):
    nav1 = float(pencil_eigenvalues(disk2, "navier", upto=0.0)[0])
    buck1 = float(pencil_eigenvalues(disk2, "buckling", upto=0.0)[0])
    below = np.linspace(0.5, nav1 * 0.9, 4)
    between = np.linspace(nav1 * 1.1, buck1 * 0.95, 4)
    res = scan_beta1(disk2, np.concatenate([below, between]))
    betas = [r["beta1"] for r in res.records]
    assert all(b > 0 for b in betas[:4])
    assert all(b < 0 for b in betas[4:])
    assert res.summary["n_negative"] == 4


def test_scan_skips_point_whose_factor_fails_a_check(disk2, tmp_path, refuse_every_factor):
    """No factor is densified: a point whose checked factor fails a check
    is a skip whose reason names the lambda tried, the check and the
    factor's rows, in both scans and in the CLI, which exits 0 and
    counts each failed factor in the manifest's ``check_failed``."""
    # the second point, on the first buckling eigenvalue, is nudged
    grid = [5.0, float(pencil_eigenvalues(disk2, "buckling", upto=0.0)[0])]
    cli_args = ["identity-scan", "--domain", "disk", "--refine", "2", "--points", "2"]
    # the spectrum prefixes and the trace pencil, computed unrefused first
    tried = [r["lambda"] for r in scan_identities(disk2, "liu", grid).records]
    assert tried == [r["lambda"] for r in scan_beta1(disk2, grid).records]
    assert tried[0] == grid[0] and tried[1] != grid[1]
    assert main(cli_args + ["--run-root", str(tmp_path / "warm")]) == 0
    form = trace_pencil(disk2, "liu").form
    rows = f"{len(form.rows)} rows ({form.n_interior} interior)"
    with refuse_every_factor():
        results = (scan_identities(disk2, "liu", grid), scan_beta1(disk2, grid))
        root = tmp_path / "runs"
        assert main(cli_args + ["--run-root", str(root)]) == 0
    for result in results:
        assert result.records == []
        assert [s["index"] for s in result.skips] == [0, 1]
        for s, lam in zip(result.skips, tried):
            assert s["reason"].startswith(
                f"lambda={lam:.12g}: the sparse LDL^T of {rows} failed its growth check")
    (run_dir,) = root.iterdir()
    assert len((run_dir / "skips.csv").read_text().splitlines()) == 3
    solver = json.loads((run_dir / "manifest.json").read_text())["solver"]
    assert solver == {"sparse_ldlt": 0, "check_failed": 2, "lanczos_retry": 0}


def test_relative_margin():
    assert relative_margin(5.0, np.array([5.005])) == pytest.approx(0.001)
    assert relative_margin(0.1, np.array([0.2])) == pytest.approx(0.1)
    assert relative_margin(1.0, np.array([])) == np.inf


def _shifted_form(mesh, kind, lam):
    """Sparse Q(lam) of a trace operator with its interior/boundary split."""
    if kind == "dtn":
        pair = get_pair(mesh, "lagrange")
        bdofs, idofs = classify_dofs(pair.dofmap, "dirichlet-value")
        return pair.k_grad - lam * pair.mass, idofs, bdofs
    pair = get_pair(mesh, "morley")
    _, free = classify_dofs(pair.dofmap, "navier")
    bnd = np.searchsorted(free, pair.dofmap.boundary_normal_dofs())
    q = (pair.fourth_order_matrix() - lam * pair.k_grad)[np.ix_(free, free)]
    return q, np.setdiff1d(np.arange(len(free)), bnd), bnd


@pytest.mark.parametrize("mesh_name", ["disk2", "rect16"])
@pytest.mark.parametrize("kind", ["dtn", "ntl"])
def test_sparse_trace_operator_matches_dense_path(request, mesh_name, kind):
    mesh = request.getfixturevalue(mesh_name)
    outer, inner = ("neumann", "dirichlet") if kind == "dtn" else ("navier", "buckling")
    outer_vals = dense_pencil_eigenvalues(mesh, outer)
    inner_vals = dense_pencil_eigenvalues(mesh, inner)
    excluded = np.concatenate([outer_vals, inner_vals])
    # the inner prefix past every lam below, so that trace_operator reads
    # its margin from the cache and factors nothing but Q
    pencil_eigenvalues(mesh, inner, upto=61.0)

    @given(st.floats(min_value=0.1, max_value=60.0))
    @settings(max_examples=10, deadline=None)
    def check(lam):
        assume(relative_margin(lam, excluded) >= 1e-3)
        before = tallies()["solver"]
        t = trace_operator(mesh, "friedlander" if kind == "dtn" else "liu", lam)
        q, interior, boundary = _shifted_form(mesh, kind, lam)
        sparse_inner = _sparse_neg(q[np.ix_(interior, interior)])
        after = tallies()["solver"]
        assert after["sparse_ldlt"] - before["sparse_ldlt"] == 2
        assert after["check_failed"] == before["check_failed"]

        dense = q.toarray()
        s_dense = dense_schur(dense, interior, boundary)
        dense_inner = inertia(dense[np.ix_(interior, interior)])
        assert np.max(np.abs(t.matrix - s_dense)) <= 1e-10 * np.max(np.abs(s_dense))
        assert (sparse_inner, 0) == (dense_inner.n_neg, dense_inner.n_zero)
        n_outer = int(np.sum(outer_vals < lam))
        n_inner = int(np.sum(inner_vals < lam))
        assert sparse_inner == n_inner
        assert inertia(t.matrix).n_neg == inertia(s_dense).n_neg == n_outer - n_inner

    check()


@pytest.mark.parametrize("mesh_name", ["disk2", "rect16"])
@pytest.mark.parametrize("kind", ["friedlander", "liu"])
def test_identity_table_partitions(request, mesh_name, kind):
    """The inner pencil's free DOFs lie inside the outer pencil's, and the
    rest are exactly the DOFs each trace operator lives on."""
    mesh = request.getfixturevalue(mesh_name)
    name, outer, inner = _IDENTITIES[kind]
    pair = pencil_pair(mesh, outer)
    outer_free, inner_free = free_dofs(pair, outer), free_dofs(pair, inner)
    assert np.all(np.isin(inner_free, outer_free))
    assert len(inner_free) < len(outer_free)

    pencil = trace_pencil(mesh, kind)
    ni = pencil.form.n_interior
    assert np.array_equal(np.sort(pencil.form.rows), outer_free)
    assert np.array_equal(np.sort(pencil.form.rows[:ni]), inner_free)
    expected = (
        pair.b_trace_dofs if name == "dtn" else pair.dofmap.boundary_normal_dofs()
    )
    assert np.array_equal(pencil.boundary_dofs, expected)
    assert pencil.form.at(7.0).csc().shape == (len(outer_free), len(outer_free))
    t = trace_operator(mesh, kind, 7.0)
    assert np.array_equal(t.boundary_dofs, expected)
    assert t.boundary_mass.shape == t.matrix.shape == (len(expected), len(expected))


@pytest.mark.parametrize("kind", ["friedlander", "liu"])
def test_trace_operator_bits_independent_of_where_order_was_built(disk2, kind, monkeypatch):
    """The cached pencil, its elimination order included, comes from A
    and B alone, so S has the same bits whichever lambda first built it."""
    lam1, lam2 = 2.0, 7.0
    monkeypatch.setattr(traceops, "_PENCIL_CACHE", {})
    trace_operator(disk2, kind, lam1)
    after_lam1 = trace_operator(disk2, kind, lam2).matrix
    monkeypatch.setattr(traceops, "_PENCIL_CACHE", {})
    first = trace_operator(disk2, kind, lam2).matrix
    assert np.array_equal(after_lam1, first)


@pytest.mark.parametrize("kind", ["friedlander", "liu"])
def test_trace_pencil_built_with_every_checked_factor_refused(disk2, kind, monkeypatch,
                                                            refuse_every_factor):
    """The fill-reducing order comes from a factorization that needs no
    check, so a pencil built while every checked factor is refused is
    the pencil built without."""
    monkeypatch.setattr(traceops, "_PENCIL_CACHE", {})
    unforced = trace_pencil(disk2, kind)
    monkeypatch.setattr(traceops, "_PENCIL_CACHE", {})
    with refuse_every_factor():
        forced = trace_pencil(disk2, kind)
    assert forced is not unforced
    assert np.array_equal(forced.form.rows, unforced.form.rows)
    assert np.array_equal(forced.form.indices, unforced.form.indices)


def test_haynsworth_at_disk_level_5():
    """At 16641 DOFs, where no matrix can be densified, the boundary-last
    factor gives S with neg(Q_ii) + neg(S) = neg(Q), each count from its
    own sparse factorization, with no failed check and in a small
    fraction of the memory of one dense matrix."""
    mesh = make_disk_mesh(1.0, 5)
    lam = 7.3  # clear of every pencil's spectrum on the unit disk
    for kind in ("friedlander", "liu"):
        before = tallies()["solver"]
        tracemalloc.start()
        try:
            q = trace_pencil(mesh, kind).form.at(lam)
            s = schur_complement(q).matrix
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        q, ni = q.csc(), q.n_interior
        n_interior = _sparse_neg(q[:ni, :ni])
        n_full = _sparse_neg(q)
        after = tallies()["solver"]
        assert after["sparse_ldlt"] - before["sparse_ldlt"] == 3
        assert after["check_failed"] == before["check_failed"]
        assert n_interior + inertia(s).n_neg == n_full
        assert peak < 8 * q.shape[0] ** 2 / 20


def test_perturbed_cached_pencil_is_refused(disk2, monkeypatch):
    """The per-point symmetry check reads the cached pencil through its
    transpose map: one off-diagonal entry of A off by more than 1e-12
    relative raises, as an asymmetric matrix does."""
    pencil = trace_pencil(disk2, "liu")
    trace_operator(disk2, "liu", 7.0)
    form = pencil.form
    cols = np.repeat(np.arange(len(form.indptr) - 1), np.diff(form.indptr))
    k = int(np.flatnonzero((form.indices != cols) & (form.a_data != 0.0))[0])
    a_data = form.a_data.copy()
    a_data[k] += 1e-9 * np.max(np.abs(a_data))
    perturbed = replace(pencil, form=replace(form, a_data=a_data))
    key = (disk2.content_hash(), "liu")
    assert traceops._PENCIL_CACHE[key] is pencil
    monkeypatch.setitem(traceops._PENCIL_CACHE, key, perturbed)
    with pytest.raises(ValueError, match="not symmetric"):
        trace_operator(disk2, "liu", 7.0)


def test_one_factorization_per_point_one_order_between_both_identities(disk2, monkeypatch):
    """Each trace-operator point is one sparse factorization, and on the
    disk the interiors of both identities' trace pencils have one
    pattern, so they compute one fill order between them: one miss of
    ``caches.orders``, then a hit."""
    for kind in ("friedlander", "liu"):
        trace_operator(disk2, kind, 12.0)  # prefixes past every lambda below
    monkeypatch.setattr(traceops, "_PENCIL_CACHE", {})
    monkeypatch.setattr(eigen, "_ORDER_CACHE", {})
    start = tallies()
    for kind, orders in (("friedlander", {"hits": 0, "misses": 1}),
                         ("liu", {"hits": 1, "misses": 1})):
        for lam in (2.0, 7.0, 12.0):
            before = tallies()["solver"]
            trace_operator(disk2, kind, lam)
            after = tallies()["solver"]
            assert after["sparse_ldlt"] == before["sparse_ldlt"] + 1
            assert after["check_failed"] == before["check_failed"]
        assert tallies(since=start)["caches"]["orders"] == orders


def test_pencil_cache_keys(disk2, monkeypatch):
    """One pencil per mesh content and identity: a second call shares
    it, another identity or another radius gets its own."""
    monkeypatch.setattr(traceops, "_PENCIL_CACHE", {})
    liu = trace_pencil(disk2, "liu")
    assert trace_pencil(disk2, "liu") is liu
    assert list(traceops._PENCIL_CACHE) == [(disk2.content_hash(), "liu")]
    assert trace_pencil(disk2, "friedlander") is not liu
    other = trace_pencil(make_disk_mesh(0.5, 2), "liu")
    assert other is not liu
    assert len(traceops._PENCIL_CACHE) == 3
    assert not np.array_equal(other.form.a_data, liu.form.a_data)


@pytest.mark.parametrize("kind", ["friedlander", "liu"])
def test_trace_pencil_hit_looks_up_no_pair(disk2, kind):
    """A repeated ``trace_pencil`` is one hit of ``caches.trace_pencils``
    and no lookup of ``caches.pairs``: only a miss needs the pair."""
    pencil = trace_pencil(disk2, kind)
    start = tallies()
    assert trace_pencil(disk2, kind) is pencil
    caches = tallies(since=start)["caches"]
    assert caches["trace_pencils"] == {"hits": 1, "misses": 0}
    assert caches["pairs"] == {"hits": 0, "misses": 0}


def test_pencil_cache_keeps_the_most_recently_used(disk2, monkeypatch):
    """The cache holds at most ``CACHE_SIZE`` pencils and evicts the
    least recently used one first."""
    monkeypatch.setattr(traceops, "_PENCIL_CACHE", {})
    monkeypatch.setattr(spectra, "CACHE_SIZE", 2)
    liu = trace_pencil(disk2, "liu")
    friedlander = trace_pencil(disk2, "friedlander")
    assert trace_pencil(disk2, "liu") is liu  # now the most recent
    other = trace_pencil(make_disk_mesh(0.5, 2), "liu")
    kept = list(traceops._PENCIL_CACHE.values())
    assert len(kept) == 2 and kept[0] is liu and kept[1] is other
    assert trace_pencil(disk2, "friedlander") is not friedlander
    assert list(traceops._PENCIL_CACHE.values())[0] is other


@pytest.mark.parametrize("mesh_name", ["disk2", "disk3", "rect16"])
@pytest.mark.parametrize("kind", ["friedlander", "liu"])
def test_schur_counts_match_dense_inertia(request, mesh_name, kind):
    """neg(S) read off the pivots of the factor that produced S equals the
    Bunch-Kaufman count of S, and both counts read off that factor equal
    those of the dense oracle (the Bunch-Kaufman counts of the dense S
    and of the dense Q_ii), over a lambda sweep."""
    mesh = request.getfixturevalue(mesh_name)
    excluded = traceops._excluded_values(mesh, kind, 61.0)[2]
    form = trace_pencil(mesh, kind).form
    lams = [lam for lam in np.linspace(0.5, 60.0, 6) if relative_margin(lam, excluded) >= 1e-3]
    assert len(lams) >= 4
    n, ni = len(form.rows), form.n_interior
    for lam in lams:
        q = form.at(lam)
        sparse = schur_complement(q)
        n_neg, n_neg_interior = dense_schur_counts(q.csc(), np.arange(ni), np.arange(ni, n))
        assert sparse.n_neg == inertia(sparse.matrix).n_neg == n_neg
        assert sparse.n_neg_interior == n_neg_interior


def test_haynsworth_mismatch_raises(disk2, tmp_path, monkeypatch, capsys):
    """When the inner spectrum prefix lacks a value, the eliminated
    block's pivot count differs from the prefix's count: the scan raises,
    naming lambda, neg(Q_ii) and rhs, never records a skip, and
    ``identity-scan`` exits 1."""
    prefix = traceops.pencil_eigenvalues

    def lacking_first_buckling(mesh, problem, *, upto):
        values = prefix(mesh, problem, upto=upto)
        return values[1:] if problem == "buckling" else values

    monkeypatch.setattr(traceops, "pencil_eigenvalues", lacking_first_buckling)
    with pytest.raises(BucklabError, match=r"lambda=20: .*neg\(Q_ii\)=1 .*rhs=0"):
        scan_identities(disk2, "liu", [1.0, 20.0])
    code = main(["identity-scan", "--domain", "disk", "--refine", "2", "--kind", "liu",
                 "--points", "4", "--run-root", str(tmp_path)])
    assert code == 1
    assert "neg(Q_ii)=1" in capsys.readouterr().err
