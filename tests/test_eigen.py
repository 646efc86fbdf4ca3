import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from bucklab import (
    BucklabError,
    eigen,
    FactorCheckError,
    SizeLimitError,
    bounded_below_check,
    divergence_sweep,
    inertia,
    make_disk_mesh,
    schur_complement,
    spectra,
    sym_gen_eigs,
    traceops,
)
from bucklab.eigen import lift_to_interior, solver_path_counts, sparse_smallest_eigs
from bucklab.spectra import pencil_eigenvalues
from bucklab.traceops import relative_margin, scan_identities, trace_pencil

from oracles import dense_lift, dense_schur, jacobi_eigenvalues, random_symmetric, sliced_forms


def _boundary_last(q, interior, boundary):
    """``q`` (sparse or dense) stored boundary-last by
    :func:`~bucklab.eigen.boundary_last_pencil`, as the pencil (q, 0) at 0."""
    return eigen.boundary_last_pencil(q, sp.csc_array(np.shape(q)), interior, boundary).at(0.0)


def test_diagonal_pencil():
    w, v = sym_gen_eigs(np.diag([2.0, 8.0]), np.diag([1.0, 2.0]), 2)
    np.testing.assert_allclose(w, [2.0, 4.0], atol=1e-12)
    # B-orthonormal eigenvectors
    b = np.diag([1.0, 2.0])
    np.testing.assert_allclose(v.T @ b @ v, np.eye(2), atol=1e-12)


def test_residual_bound(rng):
    a = random_symmetric(40, rng)
    c = random_symmetric(40, rng, 0.1)
    b = c @ c.T + np.eye(40)
    w, v = sym_gen_eigs(a, b, 10)
    for i in range(10):
        r = a @ v[:, i] - w[i] * (b @ v[:, i])
        bound = 1e-8 * (np.linalg.norm(a) + abs(w[i]) * np.linalg.norm(b))
        assert np.linalg.norm(r) <= bound * np.linalg.norm(v[:, i])


def test_matches_jacobi_oracle(rng):
    a = random_symmetric(50, rng)
    w, _ = sym_gen_eigs(a, np.eye(50), 50)
    oracle = jacobi_eigenvalues(a)
    np.testing.assert_allclose(w, oracle, atol=1e-9, rtol=1e-9)


def test_error_contracts(rng):
    a = random_symmetric(5, rng)
    with pytest.raises(BucklabError):
        sym_gen_eigs(a, -np.eye(5), 2)  # not SPD
    with pytest.raises(ValueError):
        sym_gen_eigs(a, np.eye(5), 6)  # count > dim
    with pytest.raises(ValueError):
        sym_gen_eigs(np.ones((2, 3)), np.eye(2), 1)


def test_sym_gen_eigs_refuses_large_sparse_input(monkeypatch):
    """Sparse forms are densified up to ``MAX_DENSE_DOFS`` rows; beyond
    it SizeLimitError names the form, while dense input is never refused."""
    n = 12
    a = sp.diags_array([-np.ones(n - 1), 2.0 * np.ones(n), -np.ones(n - 1)], offsets=[-1, 0, 1])
    b = sp.eye_array(n)
    w, _ = sym_gen_eigs(a.toarray(), b.toarray(), 2)
    monkeypatch.setattr(eigen, "MAX_DENSE_DOFS", n - 1)
    with pytest.raises(SizeLimitError, match=f"A has {n} rows, beyond the dense cap {n - 1}"):
        sym_gen_eigs(a, b, 2)
    with pytest.raises(SizeLimitError, match=f"B has {n} rows"):
        sym_gen_eigs(a.toarray(), b, 2)
    assert np.array_equal(sym_gen_eigs(a.toarray(), b.toarray(), 2)[0], w)
    monkeypatch.setattr(eigen, "MAX_DENSE_DOFS", n)
    assert np.array_equal(sym_gen_eigs(a, b, 2)[0], w)


def test_inertia_examples():
    i = inertia(np.diag([1.0, -2.0, 0.0]))
    assert (i.n_neg, i.n_zero, i.n_pos) == (1, 1, 1)
    i = inertia(np.array([[1.0, 2.0], [2.0, 1.0]]))  # eigenvalues 3, -1
    assert (i.n_neg, i.n_zero, i.n_pos) == (1, 0, 1)
    assert sum(iter(i)) == 2
    # a 2x2 pivot block beside a zero pivot
    i = inertia(np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))
    assert (i.n_neg, i.n_zero, i.n_pos) == (1, 1, 1)


def test_inertia_agrees_with_eigensolver(rng):
    generic = random_symmetric(100, rng)
    # with a zero diagonal, Bunch-Kaufman takes many 2x2 pivot blocks
    zero_diagonal = generic - np.diag(np.diag(generic))
    for a in (generic, zero_diagonal):
        i = inertia(a)
        w, _ = sym_gen_eigs(a, np.eye(100), 100)
        assert i.n_neg == int(np.sum(w < 0))
        assert i.n_zero == 0
        assert i.n_neg + i.n_zero + i.n_pos == 100


def test_schur_by_hand():
    q = np.array([[1.0, 2.0], [2.0, 1.0]])
    s = schur_complement(_boundary_last(q, np.array([0]), np.array([1]))).matrix
    np.testing.assert_allclose(s, [[-3.0]], atol=1e-14)

    block = np.zeros((4, 4))
    block[:2, :2] = np.array([[2.0, 1.0], [1.0, 2.0]])
    block[2:, 2:] = np.array([[5.0, -1.0], [-1.0, 4.0]])
    s = schur_complement(_boundary_last(block, np.array([0, 1]), np.array([2, 3]))).matrix
    np.testing.assert_allclose(s, block[2:, 2:], atol=1e-14)


def test_schur_errors(rng):
    q = random_symmetric(6, rng)
    with pytest.raises(ValueError):
        _boundary_last(q, np.array([0, 1]), np.array([1, 2, 3, 4, 5]))
    singular = np.zeros((3, 3))
    singular[2, 2] = 1.0
    with pytest.raises(FactorCheckError, match="zero pivot check: the interior block is zero"):
        schur_complement(_boundary_last(singular, np.array([0, 1]), np.array([2])))


@pytest.mark.parametrize("sparse", [False, True])
def test_schur_partition_checked(sparse):
    """Index sets with a negative, an out-of-range or a repeated index
    do not partition the dimension: ``boundary_last_pencil`` raises
    ValueError, never a wrapped or an IndexError."""
    q = np.array([[2.0, 1.0], [1.0, 2.0]])
    q = sp.csc_array(q) if sparse else q
    for boundary in ([-1], [5], [0]):
        with pytest.raises(ValueError, match="partition"):
            eigen.boundary_last_pencil(q, q, [0], boundary)
    np.testing.assert_allclose(schur_complement(_boundary_last(q, [0], [1])).matrix, [[1.5]],
                               rtol=1e-15)


def test_sparse_symmetry_check_matches_dense(rng):
    """The sparse symmetry check sums duplicate entries on its own copy
    and decides as the dense check does, on split and perturbed input:
    an exactly symmetric matrix (the dense check's fast path) and
    asymmetries below 1e-12 relative pass, larger ones raise."""
    n = 12
    dense = random_symmetric(n, rng)
    dense[np.abs(dense) < 0.3] = 0.0
    rows, cols = np.nonzero(dense)
    part = rng.uniform(-2.0, 2.0, size=len(rows))  # each entry stored twice
    i, j = next((r, c) for r, c in zip(rows, cols) if r != c)
    twice = np.argsort(np.tile(cols, 2), kind="stable")
    indptr = np.concatenate([[0], np.cumsum(2 * np.bincount(cols, minlength=n))])
    for delta in (0.0, 1e-14, 1e-13, 1e-11, 1e-9):
        target = dense.copy()
        target[i, j] += delta * np.max(np.abs(dense))  # (j, i) unchanged
        assert np.array_equal(target, target.T) == (delta == 0.0)
        values = np.concatenate([part, target[rows, cols] - part])
        dup = sp.csc_array((values[twice], np.tile(rows, 2)[twice], indptr), shape=(n, n))
        stored = dup.data.copy()
        try:
            eigen._require_symmetric(target)
            dense_ok = True
        except ValueError:
            dense_ok = False
        try:
            checked = eigen._require_symmetric(dup)
            sparse_ok = True
        except ValueError:
            sparse_ok = False
        assert sparse_ok == dense_ok == (delta < 1e-12)
        assert dup.nnz == 2 * len(rows) and np.array_equal(dup.data, stored)
        if sparse_ok:
            assert checked.nnz == len(rows)
            assert np.array_equal(checked.toarray(), sp.coo_array(dup).toarray())


def test_haynsworth_additivity_exact(rng):
    for _ in range(20):
        n = int(rng.integers(6, 30))
        q = random_symmetric(n, rng)
        split = int(rng.integers(1, n))
        perm = rng.permutation(n)
        interior, boundary = perm[:split], perm[split:]
        try:
            schur = schur_complement(_boundary_last(q, interior, boundary))
        except FactorCheckError:
            continue
        full = inertia(q)
        inner = inertia(q[np.ix_(interior, interior)])
        outer = inertia(schur.matrix)
        assert full.n_neg == inner.n_neg + outer.n_neg
        assert full.n_pos == inner.n_pos + outer.n_pos
        # the counts read off the factor that produced S
        assert (schur.n_neg, schur.n_neg_interior) == (outer.n_neg, inner.n_neg)


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_inertia_invariant_under_congruence(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 12))
    # diagonal with well-separated signs, then a well-conditioned congruence
    signs = rng.choice([-1.0, 1.0], size=n)
    d = np.diag(signs * rng.uniform(0.5, 2.0, size=n))
    t = np.eye(n) + np.tril(rng.uniform(-0.3, 0.3, size=(n, n)), -1)
    a = t @ d @ t.T
    i = inertia(a)
    assert i.n_neg == int(np.sum(signs < 0))
    assert i.n_zero == 0


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_eigenvalues_invariant_under_permutation(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 10))
    a = random_symmetric(n, rng)
    c = random_symmetric(n, rng, 0.2)
    b = c @ c.T + np.eye(n)
    perm = rng.permutation(n)
    w1, _ = sym_gen_eigs(a, b, n)
    w2, _ = sym_gen_eigs(a[np.ix_(perm, perm)], b[np.ix_(perm, perm)], n)
    np.testing.assert_allclose(w1, w2, atol=1e-9, rtol=1e-9)


@pytest.mark.parametrize("matrix, check", [
    # off-diagonal pivots: zero diagonals, [[0, 1], [1, 0]] blocks
    ([[0.0, 1.0], [1.0, 0.0]], "diagonal pivot"),
    ([[0.0, 1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0],
      [0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 1.0, 0.0]], "diagonal pivot"),
    ([[0.0, 2.0, 1.0], [2.0, 0.0, 1.0], [1.0, 1.0, 0.0]], "diagonal pivot"),
    ([[0.0, 1.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 1.0]], "diagonal pivot"),
    # diagonal pivots, but element growth 1e7
    ([[1e-7, 1.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 1.0]], "growth"),
    # diagonal pivots, one below the zero tolerance
    ([[1.0, 0.0], [0.0, 1e-12]], "pivot size"),
], ids=[f"matrix{i}" for i in range(6)])
def test_sparse_inertia_names_the_failed_check(matrix, check):
    """A sparse matrix whose checked factor fails a check has no sparse
    inertia: FactorCheckError names the check, counted once in
    ``check_failed``. The same matrix passed dense gets the Bunch-Kaufman
    inertia, which counts as the eigenvalues do."""
    dense = np.array(matrix)
    before = solver_path_counts()
    with pytest.raises(FactorCheckError, match=f"failed its {check} check"):
        inertia(sp.csc_array(dense))
    after = solver_path_counts()
    assert after["sparse_ldlt"] == before["sparse_ldlt"]
    assert after["check_failed"] == before["check_failed"] + 1
    got = inertia(dense)
    w = np.linalg.eigvalsh(dense)
    assert got.n_neg == int(np.sum(w < -1e-9))
    assert got.n_pos == int(np.sum(w > 1e-9))


def test_sparse_singular_interior_raises():
    rank_one = np.zeros((3, 3))
    rank_one[:2, :2] = 1.0  # interior block [[1, 1], [1, 1]]
    rank_one[2, 2] = 1.0
    zero_block = np.zeros((3, 3))
    zero_block[2, 2] = 1.0
    interior, boundary = np.array([0, 1]), np.array([2])
    for q in (rank_one, zero_block):
        with pytest.raises(FactorCheckError, match="zero pivot"):
            schur_complement(_boundary_last(sp.csc_array(q), interior, boundary))
        with pytest.raises(FactorCheckError, match="zero pivot"):
            lift_to_interior(sp.csc_array(q), interior, boundary, np.ones(1))


class _Postordered:
    """A SuperLU factor reported with the row and column order
    ``perm``: an elimination-tree postorder of a reducible interior block
    that moves boundary columns between interior ones."""

    def __init__(self, lu, perm):
        self._lu = lu
        self.perm_r = self.perm_c = np.array(perm, dtype=np.int32)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class _Permuted:
    """The SuperLU factor of ``a`` with row and column ``i`` moved to
    position ``perm[i]``, reported with ``perm`` as its row and column
    order, as SuperLU reports an order of its own choosing."""

    def __init__(self, splu, a, perm, **kwargs):
        inv = np.argsort(perm)
        self._lu = splu(sp.csc_array(a[np.ix_(inv, inv)]), **kwargs)
        self.perm_r = self.perm_c = np.array(perm, dtype=np.int32)

    def __getattr__(self, name):
        return getattr(self._lu, name)


def test_schur_and_lift_refuse_a_factor_in_another_order(rng, monkeypatch):
    """A boundary-last factor that SuperLU reports in any order but the
    one it was given, even one that keeps interior before boundary, is
    not trusted: FactorCheckError names the order check, counted once in
    ``check_failed``. In the order it was given, the factor's S and lift
    are those of the dense oracles."""
    n, ni = 14, 9
    a = sp.random_array((n, n), density=0.3, rng=rng).toarray()
    a = a + a.T
    a += np.diag(rng.choice([-1.0, 1.0], n) * (1.0 + np.abs(a).sum(axis=1)))
    q = _boundary_last(a, np.arange(ni), np.arange(ni, n))
    dense = q.csc().toarray()
    interior, boundary = np.arange(ni), np.arange(ni, n)
    schur, lift = eigen.schur_and_lift(q)
    np.testing.assert_allclose(schur.matrix, dense_schur(dense, interior, boundary),
                               rtol=1e-12, atol=1e-12)
    psi = rng.standard_normal(n - ni)
    x = dense_lift(dense, interior, boundary, psi)
    np.testing.assert_allclose(lift(psi), x, rtol=1e-12, atol=1e-12 * np.max(np.abs(x)))

    perm = np.concatenate([rng.permutation(ni), ni + rng.permutation(n - ni)])
    assert not np.array_equal(perm, np.arange(n))
    splu = eigen.spla.splu
    monkeypatch.setattr(eigen.spla, "splu",
                        lambda a, **kwargs: _Permuted(splu, a, perm, **kwargs))
    before = solver_path_counts()
    with pytest.raises(FactorCheckError, match="failed its order check"):
        eigen.schur_and_lift(q)
    after = solver_path_counts()
    assert after["sparse_ldlt"] == before["sparse_ldlt"]
    assert after["check_failed"] == before["check_failed"] + 1


@pytest.mark.parametrize("matrix, interior, postorder, check", [
    # S = [[0]]: SuperLU stops at the exactly zero trailing pivot
    ([[1.0, 1.0], [1.0, 1.0]], [0], None, "zero pivot"),
    # interior pivot 1e-10, below the zero tolerance; growth only 5e5
    ([[1e-10, 5e-5, 0.0], [5e-5, 1.0, 1.0], [0.0, 1.0, 2.0]], [0, 1], None, "pivot size"),
    # interior pivots above the zero tolerance, but element growth 1e7
    ([[1e-7, 1.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 1.0]], [0, 1], None, "growth"),
    # two interior trees, each with its own boundary column as root
    ([[2.0, 0.0, 1.0, 0.0], [0.0, 2.0, 0.0, 1.0],
      [1.0, 0.0, 2.0, 0.0], [0.0, 1.0, 0.0, 2.0]], [0, 1], [0, 2, 1, 3], "order"),
    # S = [[1e-8, 1], [1, 1]]: no pivot-size test applies to the boundary,
    # but the tiny leading boundary pivot makes growth about 1e8
    ([[2.0, 1.0, 0.0], [1.0, 0.5 + 1e-8, 1.0], [0.0, 1.0, 1.0]], [0], None, "growth"),
], ids=["matrix0-interior0-None", "matrix1-interior1-None", "matrix2-interior2-None",
        "matrix3-interior3-postorder3", "matrix4-interior4-None"])
def test_sparse_schur_names_the_failed_check(matrix, interior, postorder, check,
                                             monkeypatch):
    """Each failed check of the boundary-last factor, interior or
    boundary, and SuperLU's error on an exactly zero pivot, raises
    FactorCheckError naming the check, counted once in ``check_failed``,
    never an S from the untrusted factor."""
    monkeypatch.setattr(eigen, "fill_order", lambda a: np.arange(a.shape[0]))
    if postorder is not None:
        splu = eigen.spla.splu
        monkeypatch.setattr(eigen.spla, "splu",
                            lambda *args, **kwargs: _Postordered(splu(*args, **kwargs), postorder))
    dense = np.array(matrix)
    interior = np.array(interior)
    boundary = np.setdiff1d(np.arange(len(dense)), interior)
    q = _boundary_last(sp.csc_array(dense), interior, boundary)
    before = solver_path_counts()
    with pytest.raises(FactorCheckError, match=f"failed its {check} check"):
        schur_complement(q)
    after = solver_path_counts()
    assert after["sparse_ldlt"] == before["sparse_ldlt"]
    assert after["check_failed"] == before["check_failed"] + 1


def test_nearly_singular_schur_stays_sparse(disk2):
    """lambda within 1e-9 relative of a Navier eigenvalue makes the
    Neumann-to-Laplacian operator nearly singular; its boundary pivots
    enter no check, so the sparse factor is still trusted."""
    navier = pencil_eigenvalues(disk2, "navier", upto=60.0)
    buckling = pencil_eigenvalues(disk2, "buckling", upto=60.0)
    mu = next(v for v in navier if v > 1.0 and relative_margin(v, buckling) >= 1e-3)
    lam = mu * (1.0 + 1e-10)
    q = trace_pencil(disk2, "liu", None).form.at(lam)
    before = solver_path_counts()
    s = schur_complement(q).matrix
    after = solver_path_counts()
    assert after["sparse_ldlt"] == before["sparse_ldlt"] + 1
    assert after["check_failed"] == before["check_failed"]
    n, ni = len(q.indptr) - 1, q.n_interior
    s_dense = dense_schur(q.csc(), np.arange(ni), np.arange(ni, n))
    assert np.max(np.abs(s - s_dense)) <= 1e-10 * np.max(np.abs(s_dense))
    assert np.min(np.abs(np.linalg.eigvalsh(s_dense))) <= 1e-6 * np.max(np.abs(s_dense))


def test_factor_maxima_read_from_data(disk2):
    """Maxima read from ``.data`` equal ``abs(...).max()``, which sorts
    the unsorted SuperLU factors first."""
    q = trace_pencil(disk2, "friedlander").form.at(7.0).csc()
    lu = eigen.spla.splu(q, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                         options={"SymmetricMode": True})
    for m in (q, lu.L, lu.U):
        assert eigen._max_abs(m.data) == abs(m).max()



# each case's (sparse_ldlt, check_failed, lanczos_retry) increments
_LANCZOS_PATHS = {
    "certified": (2, 0, 0),  # the shift factor and the certificate
    "tiny": (0, 0, 0),  # no factorization: the dense solver answers
    "sigma_inside_spectrum": (0, 1, 0),  # one shift factor, failed
    "no_convergence": (1, 0, 1),  # one shift factor; ARPACK fails twice
}


@pytest.mark.parametrize("case, raised", [
    ("certified", 0),
    ("tiny", 0),  # 4 + _LANCZOS_EXTRA values of 6: too few rows for ARPACK
    ("sigma_inside_spectrum", 1),  # a negative pivot: sigma is not below
    ("no_convergence", 1),
])
def test_sparse_smallest_eigs_paths(case, raised, monkeypatch):
    """A certified solve returns the dense solver's pairs, over the
    pencil's rows, and so does a pencil too small for ARPACK, without a
    factorization; a shift inside the spectrum and a Lanczos solve that
    fails twice raise FactorCheckError. Each factorization counts once."""
    n = 6 if case == "tiny" else 50
    a = sp.diags([-np.ones(n - 1), 2.0 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1], format="csc")
    b = sp.identity(n, format="csc")
    sigma = 0.5 if case == "sigma_inside_spectrum" else -0.5
    if case == "no_convergence":
        def no_convergence(*args, **kwargs):
            raise eigen.spla.ArpackNoConvergence("no convergence", np.zeros(0), np.zeros((n, 0)))

        monkeypatch.setattr(eigen.spla, "eigsh", no_convergence)
    pencil = eigen.boundary_last_pencil(a, b, np.arange(n), [])
    keys = ("sparse_ldlt", "check_failed", "lanczos_retry")
    before = solver_path_counts()
    if raised:
        match = "not below the spectrum" if case == "sigma_inside_spectrum" else "certificate"
        with pytest.raises(FactorCheckError, match=match):
            sparse_smallest_eigs(pencil, 4, sigma)
    else:
        w, v = sparse_smallest_eigs(pencil, 4, sigma)
        w_dense, v_dense = sym_gen_eigs(a, b, 4)
        np.testing.assert_allclose(w, w_dense, rtol=1e-12, atol=0)
        np.testing.assert_allclose(np.abs(v.T @ v_dense[pencil.rows]), np.eye(4), atol=1e-8)
    after = solver_path_counts()
    assert tuple(after[k] - before[k] for k in keys) == _LANCZOS_PATHS[case]


def test_pencil_count_raises_once_every_nudge_fails(refuse_every_factor, monkeypatch):
    """The count tries ``upto`` and each nudged bound above it; when the
    factor at every one fails a check, it raises the last one's
    FactorCheckError, and the count is one failed factorization in
    ``check_failed``, never a dense answer."""
    n = 50
    a = sp.diags_array([-np.ones(n - 1), 2.0 * np.ones(n), -np.ones(n - 1)], offsets=[-1, 0, 1])
    pencil = eigen.boundary_last_pencil(a, sp.eye_array(n), np.arange(n), [])
    assert eigen.pencil_count(pencil, 0.5, 1.0) == 11
    tried = []
    checked = eigen._checked_factor

    def recorded(q):
        tried.append(q)
        return checked(q)

    monkeypatch.setattr(eigen, "_checked_factor", recorded)
    before = solver_path_counts()
    with refuse_every_factor(), pytest.raises(FactorCheckError, match="failed its growth check"):
        eigen.pencil_count(pencil, 0.5, 1.0)
    after = solver_path_counts()
    assert len(tried) == 1 + len(eigen._COUNT_NUDGES)
    assert after["sparse_ldlt"] == before["sparse_ldlt"]
    assert after["check_failed"] == before["check_failed"] + 1


def _recorded_panel_sizes(monkeypatch) -> list:
    """``(rows, panel_size)`` of every SuperLU factorization from now on."""
    calls = []
    splu = eigen.spla.splu

    def recorded(a, *args, **kwargs):
        calls.append((a.shape[0], kwargs.get("panel_size")))
        return splu(a, *args, **kwargs)

    monkeypatch.setattr(eigen.spla, "splu", recorded)
    return calls


def _grid_laplacian(m: int) -> sp.csc_array:
    """The 5-point Laplacian of an m x m grid: symmetric positive definite."""
    t = sp.diags_array([-np.ones(m - 1), 2.0 * np.ones(m), -np.ones(m - 1)], offsets=[-1, 0, 1])
    return sp.csc_array(sp.kron(t, sp.eye_array(m)) + sp.kron(sp.eye_array(m), t))


def test_panel_width_set_by_the_dense_boundary_block(disk3, monkeypatch):
    """SuperLU factors with panels of one column when the dense trailing
    boundary block has at most ``_PANEL_ONE_MAX_BOUNDARY`` rows, none
    included (problem pencils), and at its default width beyond that."""
    pencils = {kind: trace_pencil(disk3, kind).form for kind in ("liu", "friedlander")}
    calls = _recorded_panel_sizes(monkeypatch)
    pencil_eigenvalues(disk3, "navier", upto=30.0)  # count, shift and certificate
    for kind, form in pencils.items():
        assert len(form.rows) - form.n_interior <= eigen._PANEL_ONE_MAX_BOUNDARY
        schur_complement(form.at(3.0))
    assert len(calls) >= 5 and {size for _, size in calls} == {1}

    lap = _grid_laplacian(24)  # 576 DOFs, the last rows boundary
    n, cut = lap.shape[0], eigen._PANEL_ONE_MAX_BOUNDARY
    qs = [_boundary_last(lap, np.arange(n - n_b), np.arange(n - n_b, n))
          for n_b in (cut, cut + 1, 300)]
    calls.clear()
    for q in qs:
        s = schur_complement(q)
        assert s.n_neg == 0 and s.matrix.shape == (n - q.n_interior,) * 2
    assert calls == [(n, 1), (n, None), (n, None)]


@pytest.mark.parametrize("mesh_name", ["disk3", "rect16"])
@pytest.mark.parametrize("kind, lmin, lmax", [("liu", 1.0, 60.0), ("friedlander", 0.5, 40.0)])
def test_panel_width_moves_no_count(mesh_name, kind, lmin, lmax, request, monkeypatch):
    """A scan at SuperLU's default panel width and one under the panel
    rule record the same counts; S agrees to 1e-10 max|S| at every point,
    and on one factor the read-off L_bb U_bb equals the product of the
    sparse slices bit for bit."""
    mesh = request.getfixturevalue(mesh_name)
    grid = np.linspace(lmin, lmax, 20)
    form = trace_pencil(mesh, kind).form
    ni = form.n_interior

    def scan():
        records = scan_identities(mesh, kind, grid).records
        schurs = [schur_complement(form.at(r["lambda"])) for r in records]
        return records, schurs

    with monkeypatch.context() as m:
        m.setattr(eigen, "_panel_size", lambda n_boundary: None)
        default, default_schurs = scan()
    ruled, ruled_schurs = scan()
    assert len(ruled) == len(grid)
    for key in ("lambda", "neg_count", "lhs", "rhs", "holds"):
        assert [r[key] for r in ruled] == [r[key] for r in default]
    for a, b in zip(ruled_schurs, default_schurs):
        assert (a.n_neg, a.n_neg_interior) == (b.n_neg, b.n_neg_interior)
        assert np.max(np.abs(a.matrix - b.matrix)) <= 1e-10 * np.max(np.abs(b.matrix))

    fac = eigen._checked_factor(form.at(ruled[len(ruled) // 2]["lambda"]))
    l_bb, u_bb = (eigen._trailing_block(f, ni) for f in (fac.l, fac.u))
    assert np.array_equal(l_bb, fac.l[ni:, ni:].toarray())
    assert np.array_equal(u_bb, fac.u[ni:, ni:].toarray())
    assert np.array_equal(l_bb @ u_bb, fac.l[ni:, ni:].toarray() @ fac.u[ni:, ni:].toarray())


def _recorded_orders(monkeypatch) -> tuple[list, list]:
    """``(specs, ordered)``: from now on, the ``permc_spec`` of every
    SuperLU factorization and the rows of every fill order computed
    (SuperLU's incomplete factorization), starting from an empty order
    memo."""
    specs, ordered = [], []
    splu, spilu = eigen.spla.splu, eigen.spla.spilu

    def recorded_splu(a, **kwargs):
        specs.append(kwargs.get("permc_spec"))
        return splu(a, **kwargs)

    def recorded_spilu(a, **kwargs):
        ordered.append(a.shape[0])
        return spilu(a, **kwargs)

    monkeypatch.setattr(eigen.spla, "splu", recorded_splu)
    monkeypatch.setattr(eigen.spla, "spilu", recorded_spilu)
    monkeypatch.setattr(eigen, "_ORDER_CACHE", {})
    return specs, ordered


def test_every_checked_factor_keeps_the_stored_order(disk2, monkeypatch, empty_clamped_fields):
    """Every sparse factorization of a spectrum, an identity scan and both
    counterexample regimes runs in the pencil's stored order: SuperLU is
    asked for ``NATURAL`` and nothing else, once per checked factor."""
    monkeypatch.setattr(spectra, "_PREFIX_CACHE", {})
    monkeypatch.setattr(traceops, "_PENCIL_CACHE", {})
    specs, _ = _recorded_orders(monkeypatch)
    before = solver_path_counts()
    for problem in spectra.PENCILS:
        spectra.spectrum(disk2, problem, 4, 2)
    for kind in ("friedlander", "liu"):
        assert scan_identities(disk2, kind, [2.0, 7.0]).summary["all_hold"]
    pair = spectra.get_pair(disk2, "morley")
    assert bounded_below_check(pair, 2.0, 5).passed
    divergence_sweep(pair, 30.0, [1e-1, 1e-2])
    after = solver_path_counts()
    assert after["check_failed"] == before["check_failed"]
    assert len(specs) == after["sparse_ldlt"] - before["sparse_ldlt"] > 20
    assert set(specs) == {"NATURAL"}


def test_one_fill_order_per_pattern(disk2, monkeypatch):
    """The disk's Dirichlet and buckling pencils and the interiors of both
    trace pencils have one pattern, so they compute one order between
    them; Neumann and Navier compute one each. A disk of another radius
    has the same patterns and computes none."""
    _, ordered = _recorded_orders(monkeypatch)
    monkeypatch.setattr(traceops, "_PENCIL_CACHE", {})

    def build(mesh, problems, kinds):
        for problem in problems:
            pair = spectra.pencil_pair(mesh, problem, 2)
            rows = spectra.smallest_eigenpairs(pair, problem, 1)[2]
            assert np.array_equal(np.sort(rows), spectra.free_dofs(pair, problem))
        for kind in kinds:
            trace_pencil(mesh, kind)

    build(disk2, ("dirichlet", "buckling"), ("friedlander", "liu"))
    assert ordered == [225]
    build(disk2, ("neumann", "navier"), ())
    assert ordered == [225, 289, 257]
    build(make_disk_mesh(0.6, 2), spectra.PENCILS, ("friedlander", "liu"))
    assert len(ordered) == 3


def test_fill_order_memo_shared_by_threads(monkeypatch):
    """Eight threads ordering twelve patterns through a memo of four,
    with the interpreter switching threads often, get the orders one
    thread gets, and the memo keeps at most four."""
    grids = [_grid_laplacian(m) for m in range(3, 15)]
    monkeypatch.setattr(eigen, "_ORDER_CACHE", {})
    expected = [eigen.fill_order(g) for g in grids]
    monkeypatch.setattr(eigen, "_ORDER_CACHE", {})
    monkeypatch.setattr(eigen, "_ORDER_CACHE_SIZE", 4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            got = list(pool.map(lambda k: eigen.fill_order(grids[k % 12]), range(240), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert all(np.array_equal(order, expected[k % 12]) for k, order in enumerate(got))
    assert len(eigen._ORDER_CACHE) <= 4


@pytest.mark.parametrize("mesh_name", ["disk2", "rect16"])
@pytest.mark.parametrize("problem", ["dirichlet", "neumann", "buckling", "navier"])
def test_fill_order_is_the_minimum_degree_order_of_the_pencil(mesh_name, problem, request):
    """A problem pencil stores its free DOFs in the column order SuperLU's
    multiple minimum degree chooses when it factors the pencil in the
    free DOFs' own order, at a shift inside the spectrum too."""
    pair = spectra.pencil_pair(request.getfixturevalue(mesh_name), problem, 2)
    free = spectra.free_dofs(pair, problem)
    pencil = eigen.boundary_last_pencil(*spectra.pencil_forms(pair, problem), free, [])
    assert pencil.n_interior == len(free)
    back = np.argsort(np.searchsorted(free, pencil.rows))  # row i of free is pencil row back[i]
    for t in (-1.0, 30.0):
        q = pencil.at(t).csc()[np.ix_(back, back)]
        lu = eigen.spla.splu(q, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                             options={"SymmetricMode": True})
        assert np.array_equal(free[np.argsort(lu.perm_c)], pencil.rows)


@pytest.mark.parametrize("problem", ["dirichlet", "neumann", "buckling", "navier"])
def test_vectors_and_lifts_over_the_pencil_rows_match_dense(disk2, problem, rng):
    """An eigenvector placed on the DOFs of the pencil's rows is the dense
    ground state, and a lift returned in the order of its (shuffled)
    interior list is the dense lift."""
    pair = spectra.pencil_pair(disk2, problem, 2)
    w, v, rows = spectra.smallest_eigenpairs(pair, problem, 1)
    a, b = sliced_forms(pair, problem)
    w_dense, v_dense = sym_gen_eigs(a, b, 2)
    assert w_dense[1] - w_dense[0] > 1e-3 * max(1.0, abs(w_dense[1]))  # a simple value
    u, u_dense = np.zeros(pair.dofmap.n_dofs), np.zeros(pair.dofmap.n_dofs)
    u[rows] = v[:, 0]
    u_dense[spectra.free_dofs(pair, problem)] = v_dense[:, 0]
    assert abs(w[0] - w_dense[0]) <= 1e-10 * max(1.0, abs(w_dense[0]))
    np.testing.assert_allclose(abs(u @ u_dense), u_dense @ u_dense, rtol=1e-8)

    form = spectra.pencil_forms(pair, problem)[0]
    free = spectra.free_dofs(pair, problem)
    interior = rng.permutation(free)[: len(free) // 2]
    boundary = np.setdiff1d(free, interior)
    psi = rng.standard_normal(len(boundary))
    lifted = lift_to_interior(form + sp.eye_array(form.shape[0]), interior, boundary, psi)
    expected = dense_lift(form + sp.eye_array(form.shape[0]), interior, boundary, psi)
    np.testing.assert_allclose(lifted, expected, rtol=0, atol=1e-10 * np.max(np.abs(expected)))


def _full_lu_order(pattern) -> np.ndarray:
    """The minimum-degree order as ``fill_order`` read it before it used
    an incomplete factorization: ``argsort(perm_c)`` of a full SuperLU
    factorization of the diagonally dominant matrix with the pattern."""
    n = pattern.shape[0]
    dominant = sp.csc_array((np.full(pattern.nnz, -1.0), pattern.indices, pattern.indptr),
                            shape=pattern.shape) + sp.diags_array(np.full(n, n + 1.0), format="csc")
    lu = eigen.spla.splu(dominant, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                         options={"SymmetricMode": True})
    return np.argsort(lu.perm_c)


@pytest.mark.slow
def test_fill_order_equals_the_full_factor_order_at_refine_5(monkeypatch):
    """At disk refine 5, the order read off the incomplete factorization
    equals the one a full factorization gives, on the pattern of every
    pencil of both identities: the four problem pencils and the interiors
    of both trace pencils."""
    mesh = make_disk_mesh(1.0, 5)
    monkeypatch.setattr(eigen, "_ORDER_CACHE", {})
    monkeypatch.setattr(traceops, "_PENCIL_CACHE", {})
    for problem in spectra.PENCILS:
        a, b = sliced_forms(spectra.pencil_pair(mesh, problem, 2), problem)
        pattern = sp.csc_array(abs(a) + abs(b))
        assert np.array_equal(eigen.fill_order(pattern), _full_lu_order(pattern))
    for kind, (_, outer, inner) in traceops._IDENTITIES.items():
        pair = spectra.pencil_pair(mesh, outer, 2)
        form = trace_pencil(mesh, kind).form
        interior = spectra.free_dofs(pair, inner)
        a, b = (m[np.ix_(interior, interior)] for m in spectra.pencil_forms(pair, outer))
        reference = interior[_full_lu_order(sp.csc_array(abs(a) + abs(b)))]
        assert np.array_equal(form.rows[:form.n_interior], reference)
