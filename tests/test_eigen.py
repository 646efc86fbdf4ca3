import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from bucklab import (
    BucklabError,
    eigen,
    SingularBlockError,
    SizeLimitError,
    inertia,
    schur_complement,
    sym_gen_eigs,
)
from bucklab.eigen import lift_to_interior, solver_path_counts, sparse_smallest_eigs
from bucklab.spectra import pencil_eigenvalues
from bucklab.traceops import relative_margin, trace_pencil

from oracles import dense_schur, jacobi_eigenvalues, random_symmetric


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
    with pytest.raises(SingularBlockError):
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
    and decides as the dense check does, on split and perturbed input."""
    n = 12
    dense = random_symmetric(n, rng)
    dense[np.abs(dense) < 0.3] = 0.0
    rows, cols = np.nonzero(dense)
    part = rng.uniform(-2.0, 2.0, size=len(rows))  # each entry stored twice
    i, j = next((r, c) for r, c in zip(rows, cols) if r != c)
    twice = np.argsort(np.tile(cols, 2), kind="stable")
    indptr = np.concatenate([[0], np.cumsum(2 * np.bincount(cols, minlength=n))])
    for delta in (0.0, 1e-14, 1e-9):
        target = dense.copy()
        target[i, j] += delta * np.max(np.abs(dense))  # (j, i) unchanged
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
        except SingularBlockError:
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


@pytest.mark.parametrize("matrix", [
    # off-diagonal pivots: zero diagonals, [[0, 1], [1, 0]] blocks
    [[0.0, 1.0], [1.0, 0.0]],
    [[0.0, 1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0],
     [0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 1.0, 0.0]],
    [[0.0, 2.0, 1.0], [2.0, 0.0, 1.0], [1.0, 1.0, 0.0]],
    [[0.0, 1.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 1.0]],
    # diagonal pivots, but element growth 1e7
    [[1e-7, 1.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 1.0]],
    # diagonal pivots, one below the zero tolerance
    [[1.0, 0.0], [0.0, 1e-12]],
])
def test_sparse_inertia_falls_back_to_bunch_kaufman(matrix):
    dense = np.array(matrix)
    before = solver_path_counts()
    got = inertia(sp.csc_array(dense))
    after = solver_path_counts()
    assert after["sparse_ldlt"] == before["sparse_ldlt"]
    assert after["dense_fallback"] == before["dense_fallback"] + 1
    assert tuple(got) == tuple(inertia(dense))
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
        with pytest.raises(SingularBlockError):
            schur_complement(_boundary_last(sp.csc_array(q), interior, boundary))
        with pytest.raises(SingularBlockError):
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
    not trusted: one dense fallback, which gives the dense S and lift."""
    n, ni = 14, 9
    a = sp.random_array((n, n), density=0.3, rng=rng).toarray()
    a = a + a.T
    a += np.diag(rng.choice([-1.0, 1.0], n) * (1.0 + np.abs(a).sum(axis=1)))
    q = _boundary_last(a, np.arange(ni), np.arange(ni, n))
    dense = q.csc().toarray()
    perm = np.concatenate([rng.permutation(ni), ni + rng.permutation(n - ni)])
    assert not np.array_equal(perm, np.arange(n))
    splu = eigen.spla.splu
    monkeypatch.setattr(eigen.spla, "splu",
                        lambda a, **kwargs: _Permuted(splu, a, perm, **kwargs))
    before = solver_path_counts()
    schur, lift = eigen.schur_and_lift(q)
    s = schur.matrix
    after = solver_path_counts()
    assert after["sparse_ldlt"] == before["sparse_ldlt"]
    assert after["dense_fallback"] == before["dense_fallback"] + 1
    interior, boundary = np.arange(ni), np.arange(ni, n)
    np.testing.assert_allclose(s, dense_schur(dense, interior, boundary), rtol=1e-12, atol=1e-12)
    psi = rng.standard_normal(n - ni)
    x = -np.linalg.solve(dense[:ni, :ni], dense[:ni, ni:] @ psi)
    np.testing.assert_allclose(lift(psi), x, rtol=1e-12, atol=1e-12 * np.max(np.abs(x)))


@pytest.mark.parametrize("matrix, interior, postorder", [
    # S = [[0]]: SuperLU stops at the exactly zero trailing pivot
    ([[1.0, 1.0], [1.0, 1.0]], [0], None),
    # interior pivot 1e-10, below the zero tolerance; growth only 5e5
    ([[1e-10, 5e-5, 0.0], [5e-5, 1.0, 1.0], [0.0, 1.0, 2.0]], [0, 1], None),
    # interior pivots above the zero tolerance, but element growth 1e7
    ([[1e-7, 1.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 1.0]], [0, 1], None),
    # two interior trees, each with its own boundary column as root
    ([[2.0, 0.0, 1.0, 0.0], [0.0, 2.0, 0.0, 1.0],
      [1.0, 0.0, 2.0, 0.0], [0.0, 1.0, 0.0, 2.0]], [0, 1], [0, 2, 1, 3]),
    # S = [[1e-8, 1], [1, 1]]: no pivot-size test applies to the boundary,
    # but the tiny leading boundary pivot makes growth about 1e8
    ([[2.0, 1.0, 0.0], [1.0, 0.5 + 1e-8, 1.0], [0.0, 1.0, 1.0]], [0], None),
])
def test_sparse_schur_falls_back_to_bunch_kaufman(matrix, interior, postorder, monkeypatch):
    """Each failed check of the boundary-last factor, interior or
    boundary, and SuperLU's error on an exactly zero pivot, is one dense
    fallback giving the dense S."""
    monkeypatch.setattr(eigen, "fill_order", lambda a: np.arange(a.shape[0]))
    if postorder is not None:
        splu = eigen.spla.splu
        monkeypatch.setattr(eigen.spla, "splu",
                            lambda *args, **kwargs: _Postordered(splu(*args, **kwargs), postorder))
    dense = np.array(matrix)
    interior = np.array(interior)
    boundary = np.setdiff1d(np.arange(len(dense)), interior)
    before = solver_path_counts()
    s = schur_complement(_boundary_last(sp.csc_array(dense), interior, boundary)).matrix
    after = solver_path_counts()
    assert after["sparse_ldlt"] == before["sparse_ldlt"]
    assert after["dense_fallback"] == before["dense_fallback"] + 1
    s_dense = dense_schur(dense, interior, boundary)
    assert np.array_equal(s, s_dense)
    assert tuple(inertia(s)) == tuple(inertia(s_dense))


def test_boundary_growth_beyond_dense_cap_raises(monkeypatch):
    """A tiny leading boundary pivot fails the growth check, and the
    dense fallback refuses an interior block beyond MAX_DENSE_DOFS rows:
    SizeLimitError naming Q_ii, counted as one dense fallback, never an
    S from the untrusted factor."""
    ni = 50
    q = sp.block_diag([sp.identity(ni - 1), [[2.0, 1.0, 0.0], [1.0, 0.5 + 1e-8, 1.0],
                                              [0.0, 1.0, 1.0]]], format="csc")
    interior, boundary = np.arange(ni), np.array([ni, ni + 1])  # S = [[1e-8, 1], [1, 1]]
    q = _boundary_last(q, interior, boundary)
    monkeypatch.setattr(eigen, "MAX_DENSE_DOFS", ni - 1)
    before = solver_path_counts()
    with pytest.raises(SizeLimitError, match=f"Q_ii has {ni} rows"):
        schur_complement(q)
    after = solver_path_counts()
    assert after["sparse_ldlt"] == before["sparse_ldlt"]
    assert after["dense_fallback"] == before["dense_fallback"] + 1
    monkeypatch.setattr(eigen, "MAX_DENSE_DOFS", ni)
    s = schur_complement(q).matrix
    np.testing.assert_allclose(s, [[1e-8, 1.0], [1.0, 1.0]], rtol=1e-7)


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
    assert after["dense_fallback"] == before["dense_fallback"]
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



@pytest.mark.parametrize("case, fallbacks", [
    ("certified", 0),
    ("sigma_inside_spectrum", 1),  # a negative pivot: sigma is not below
    ("no_convergence", 1),
])
def test_sparse_smallest_eigs_paths(case, fallbacks, monkeypatch):
    n = 50
    a = sp.diags([-np.ones(n - 1), 2.0 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1], format="csc")
    b = sp.identity(n, format="csc")
    sigma = 1.0 if case == "sigma_inside_spectrum" else -0.5
    if case == "no_convergence":
        def no_convergence(*args, **kwargs):
            raise eigen.spla.ArpackNoConvergence("no convergence", np.zeros(0), np.zeros((n, 0)))

        monkeypatch.setattr(eigen.spla, "eigsh", no_convergence)
    before = solver_path_counts()["dense_fallback"]
    w, v = sparse_smallest_eigs(eigen.boundary_last_pencil(a, b, np.arange(n), []), 4, sigma)
    assert solver_path_counts()["dense_fallback"] == before + fallbacks
    w_dense, v_dense = sym_gen_eigs(a, b, 4)
    np.testing.assert_allclose(w, w_dense, rtol=1e-12, atol=0)
    np.testing.assert_allclose(np.abs(v.T @ v_dense), np.eye(4), atol=1e-8)
