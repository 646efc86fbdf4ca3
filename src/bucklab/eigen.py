"""Symmetric eigenvalue, inertia, solve and Schur-complement kernel.

Assembled forms arrive as scipy sparse (CSC) matrices; boundary-sized
trace operators, 1D cap forms and test matrices arrive dense. This is
the one module that densifies a sparse matrix, and it refuses to do so
beyond ``MAX_DENSE_DOFS`` rows.

Dense generalized eigenproblems are solved through the Cholesky factor
of the mass matrix (LAPACK's standard path). The few smallest
eigenpairs of a sparse pencil come from shift-invert Lanczos
(:func:`sparse_smallest_eigs`), certified by inertia, with the dense
path as its fallback. Inertia, solves, Schur complements and the
shift-invert operator of sparse matrices use one SuperLU factorization
in symmetric mode: a symmetric fill-reducing ordering and diagonal pivots
only, so P A P^T = L U with U = D L^T, and inertia(A) = inertia(D) by
Sylvester's law. Unlike Bunch-Kaufman this factorization never pivots
for stability, so it is trusted only when the row and column
permutations agree, every pivot exceeds ``zero_tol * max|A|`` and the
factor shows no large element growth. Otherwise the dense path decides:
LDL^T with Bunch-Kaufman 1x1/2x2 pivots for inertia, then a dense solve,
exactly as for dense input, or the dense eigensolver for a Lanczos
result that fails its certificate. ``solver_path_counts`` reports how
many sparse factorizations and Lanczos solves took each path.

The Schur complement routine factors a sparse Q once, interior DOFs
first in a fill-reducing order and boundary DOFs last, and reads
S = Q_bb - L_bi U_ib off that factor. Its checks cover the interior
part only, so one factorization both certifies that Q_ii is nonsingular
and gives S, and the Haynsworth additivity inertia(Q) = inertia(Q_ii) +
inertia(S) holds as an exact integer identity whenever they pass.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import BucklabError, SingularBlockError, SizeLimitError

DEFAULT_ZERO_TOL = 1e-9
_SYM_RTOL = 1e-12
#: densifying a sparse matrix with more rows than this raises SizeLimitError
MAX_DENSE_DOFS = 6000
# Largest accepted element growth max(max|L|, max|U| / max|A|) of an
# unpivoted sparse factor. Its backward error is about machine epsilon
# times the growth times max|A|, so up to 1e6 it stays near 1e-10 max|A|,
# below the default zero tolerance; beyond it, pivot signs may be wrong.
_MAX_GROWTH = 1e6
# Lanczos computes this many values beyond those asked for, so that a
# multiple eigenvalue split by the count is still followed by a gap.
_LANCZOS_EXTRA = 3
# Two Ritz values are separated by a clear gap when they differ by more
# than this, relative to the larger one in magnitude. The certifying
# inertia count is taken at the gap's midpoint, which is then at least
# half this distance from either value: far above the Lanczos error and
# far enough from the spectrum for the checked factor to be trusted.
_GAP_RTOL = 1e-3

_PATH_LOCK = threading.Lock()
_PATH_COUNTS = {"sparse_ldlt": 0, "dense_fallback": 0}


@dataclass(frozen=True)
class Inertia:
    n_neg: int
    n_zero: int
    n_pos: int
    zero_tol: float

    def __iter__(self):
        return iter((self.n_neg, self.n_zero, self.n_pos))


def solver_path_counts() -> dict[str, int]:
    """Sparse factorizations so far in this process, by the path taken:
    ``sparse_ldlt`` (checked SuperLU factor trusted) or ``dense_fallback``
    (a check failed and the dense Bunch-Kaufman path ran instead). A
    Lanczos solve that the dense eigensolver replaces after its factor
    was trusted counts once more in ``dense_fallback``."""
    with _PATH_LOCK:
        return dict(_PATH_COUNTS)


def _count_path(path: str) -> None:
    with _PATH_LOCK:
        _PATH_COUNTS[path] += 1


def _require_symmetric(a, name: str = "matrix"):
    """``a`` as float64 CSC (sparse input) or ndarray, checked square and
    symmetric within 1e-12 relative."""
    if sp.issparse(a):
        a = sp.csc_array(a, dtype=np.float64)
        if a.shape[0] != a.shape[1]:
            raise ValueError(f"{name} must be square, got shape {a.shape}")
        scale = abs(a).max() if a.nnz else 0.0
        asym = abs(a - a.T).max() if a.nnz else 0.0
    else:
        a = np.asarray(a, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"{name} must be square, got shape {a.shape}")
        scale = np.max(np.abs(a)) if a.size else 0.0
        asym = np.max(np.abs(a - a.T)) if a.size else 0.0
    if asym > _SYM_RTOL * (scale or 1.0):
        raise ValueError(f"{name} is not symmetric within {_SYM_RTOL:g} relative")
    return a


def _dense(a, name: str = "matrix") -> np.ndarray:
    """Dense copy of a sparse matrix, refused beyond ``MAX_DENSE_DOFS`` rows;
    dense input passes through."""
    if not sp.issparse(a):
        return a
    if a.shape[0] > MAX_DENSE_DOFS:
        raise SizeLimitError(
            f"{name} has {a.shape[0]} rows, beyond the dense cap {MAX_DENSE_DOFS}"
        )
    return a.toarray()


def sym_gen_eigs(a, b, count: int) -> tuple[np.ndarray, np.ndarray]:
    """``count`` smallest eigenpairs of A x = gamma B x, B positive definite.

    Returns eigenvalues ascending and B-orthonormal eigenvectors as
    columns. Raises if B fails its Cholesky factorization.
    """
    a = _dense(_require_symmetric(a, "A"), "A")
    b = _dense(_require_symmetric(b, "B"), "B")
    n = len(a)
    if not 1 <= count <= n:
        raise ValueError(f"count must be in [1, {n}], got {count}")
    try:
        if count == n:
            w, v = sla.eigh(a, b)
        else:
            w, v = sla.eigh(a, b, subset_by_index=[0, count - 1])
    except sla.LinAlgError as exc:
        raise BucklabError(f"mass matrix is not positive definite: {exc}") from exc
    return w, v


def sparse_smallest_eigs(a, b, count: int, sigma: float) -> tuple[np.ndarray, np.ndarray]:
    """:func:`sym_gen_eigs` for a sparse pencil, by certified shift-invert
    Lanczos (Ericsson & Ruhe, Math. Comp. 1980).

    ``sigma`` must lie below the spectrum: every pivot of the checked
    sparse LDL^T of A - sigma B must be positive, which certifies it by
    Sylvester's law. ARPACK then runs on (A - sigma B)^{-1} B with that
    factor, from a fixed start vector so that results are reproducible,
    for a few more values than ``count``. The result is certified as in
    Grimes, Lewis & Simon (SIAM J. Matrix Anal. Appl. 15, 1994): at the
    midpoint of the first clear gap between Ritz values at or after
    position ``count - 1``, the inertia of A - mid B must count exactly
    the Ritz values below the midpoint, so no eigenvalue was missed,
    not even one copy of a multiple one. When any check fails the
    dense :func:`sym_gen_eigs` answers, which refuses beyond
    ``MAX_DENSE_DOFS`` rows.
    """
    a = _require_symmetric(a, "A")
    b = _require_symmetric(b, "B")
    n = a.shape[0]
    if not 1 <= count <= n:
        raise ValueError(f"count must be in [1, {n}], got {count}")
    pairs = _lanczos_smallest(a, b, count, sigma)
    if pairs is None:
        return sym_gen_eigs(a, b, count)
    return pairs


def _lanczos_smallest(a, b, count: int, sigma: float):
    """Certified ``count`` smallest eigenpairs, or None (counted as a
    dense fallback) when a check fails."""
    n = a.shape[0]
    nev = count + _LANCZOS_EXTRA
    if nev >= n:  # ARPACK needs nev < n; such a pencil is tiny anyway
        _count_path("dense_fallback")
        return None
    fac = _checked_sparse_ldlt(a - sigma * b, DEFAULT_ZERO_TOL)
    if fac is None:
        return None
    if np.any(fac[1] < 0):  # sigma is not below the spectrum
        _count_path("dense_fallback")
        return None
    op_inv = spla.LinearOperator((n, n), matvec=fac[0].solve, dtype=np.float64)
    v0 = np.random.default_rng(0).standard_normal(n)
    try:
        w, v = spla.eigsh(a, k=nev, M=b, sigma=sigma, OPinv=op_inv, v0=v0)
    except spla.ArpackError:
        _count_path("dense_fallback")
        return None
    order = np.argsort(w)
    w, v = w[order], v[:, order]
    gap = next(
        (j for j in range(count - 1, len(w) - 1)
         if w[j + 1] - w[j] > _GAP_RTOL * max(abs(w[j]), abs(w[j + 1]))),
        None,
    )
    if gap is None or inertia(a - 0.5 * (w[gap] + w[gap + 1]) * b).n_neg != gap + 1:
        _count_path("dense_fallback")
        return None
    return w[:count], v[:, :count]


def sym_gen_eigvals_all(a, b) -> np.ndarray:
    """All eigenvalues of the pencil (A, B), ascending."""
    a = _dense(_require_symmetric(a, "A"), "A")
    b = _dense(_require_symmetric(b, "B"), "B")
    try:
        return sla.eigh(a, b, eigvals_only=True)
    except sla.LinAlgError as exc:
        raise BucklabError(f"mass matrix is not positive definite: {exc}") from exc


def _sparse_ldlt(a: sp.csc_array, zero_tol: float):
    """(SuperLU factor, pivots) of a nonzero symmetric CSC matrix with
    diagonal pivots only, or None when the factor cannot be trusted."""
    a.sum_duplicates()
    scale = _max_abs(a.data)
    try:
        lu = spla.splu(
            a, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
    except RuntimeError:  # a pivot column was exactly zero
        return None
    if not np.array_equal(lu.perm_r, lu.perm_c):
        return None  # an off-diagonal pivot was taken: not an LDL^T
    u = lu.U
    pivots = u.diagonal()
    if np.min(np.abs(pivots)) <= zero_tol * scale:
        return None
    if max(_max_abs(lu.L.data), _max_abs(u.data) / scale) > _MAX_GROWTH:
        return None
    return lu, pivots


def _max_abs(values: np.ndarray) -> float:
    """max |v| over stored values, 0 when there are none. Reading a
    factor's ``.data`` directly skips the index sort that ``abs()`` of an
    unsorted SuperLU factor performs; no entry of a factor is stored
    twice, so the maximum is the same."""
    return float(np.max(np.abs(values))) if len(values) else 0.0


def _checked_sparse_ldlt(a: sp.csc_array, zero_tol: float):
    """:func:`_sparse_ldlt`, with the path taken counted."""
    fac = _sparse_ldlt(a, zero_tol)
    _count_path("dense_fallback" if fac is None else "sparse_ldlt")
    return fac


def inertia(a, zero_tol: float = DEFAULT_ZERO_TOL) -> Inertia:
    """Signs of the spectrum of a symmetric matrix, never forming eigenvalues.

    Sparse input: signs of the pivots of the checked sparse LDL^T, whose
    pivots all exceed ``zero_tol * max|A|``. Dense input, or a sparse
    factor that fails a check: LDL^T with Bunch-Kaufman pivoting, where
    diagonal blocks with magnitude below ``zero_tol * max|A|`` count as
    zero and 2x2 pivot blocks are classified through their closed-form
    eigenvalues.
    """
    a = _require_symmetric(a, "A")
    n = a.shape[0]
    if n == 0:
        return Inertia(0, 0, 0, zero_tol)
    if sp.issparse(a):
        if a.nnz == 0:
            return Inertia(0, n, 0, zero_tol)
        fac = _checked_sparse_ldlt(a, zero_tol)
        if fac is not None:
            pivots = fac[1]
            return Inertia(int(np.sum(pivots < 0)), 0, int(np.sum(pivots > 0)), zero_tol)
        a = _dense(a, "A")
    scale = float(np.max(np.abs(a)))
    if scale == 0.0:
        return Inertia(0, n, 0, zero_tol)
    _, d, _ = sla.ldl(a)
    thresh = zero_tol * scale
    n_neg = n_zero = n_pos = 0
    i = 0
    while i < n:
        if i + 1 < n and d[i + 1, i] != 0.0:
            # 2x2 block: eigenvalues from trace/determinant
            p, q, r = d[i, i], d[i + 1, i + 1], d[i + 1, i]
            mid = 0.5 * (p + q)
            disc = np.hypot(0.5 * (p - q), r)
            for ev in (mid - disc, mid + disc):
                if abs(ev) <= thresh:
                    n_zero += 1
                elif ev < 0:
                    n_neg += 1
                else:
                    n_pos += 1
            i += 2
        else:
            ev = d[i, i]
            if abs(ev) <= thresh:
                n_zero += 1
            elif ev < 0:
                n_neg += 1
            else:
                n_pos += 1
            i += 1
    return Inertia(n_neg, n_zero, n_pos, zero_tol)


def _nonsingular_solver(a, zero_tol: float):
    """Solve function for symmetric ``a`` (sparse or dense), after checking
    through the same factorization that ``a`` is nonsingular.

    Sparse input whose checked LDL^T is trusted is solved from that
    factor. Otherwise the dense path checks regularity by Bunch-Kaufman
    inertia and solves densely. Raises :class:`SingularBlockError`.
    """
    if sp.issparse(a) and a.nnz:
        fac = _checked_sparse_ldlt(a, zero_tol)
        if fac is not None:
            return fac[0].solve
    a = _dense(a, "A")
    if inertia(a, zero_tol).n_zero:
        raise SingularBlockError("interior block is singular at this parameter")
    return lambda rhs: sla.solve(a, rhs, assume_a="sym")


def sym_solve(a, rhs: np.ndarray, zero_tol: float = DEFAULT_ZERO_TOL) -> np.ndarray:
    """x with A x = rhs for a symmetric, nonsingular A (sparse or dense).

    Raises :class:`SingularBlockError` when A is singular by the
    inertia test of :func:`inertia`.
    """
    a = _require_symmetric(a, "A")
    return _nonsingular_solver(a, zero_tol)(np.asarray(rhs, dtype=np.float64))


def fill_order(a) -> np.ndarray:
    """Fill-reducing elimination order of a symmetric sparse matrix:
    ``a[np.ix_(order, order)]`` factors with little fill in its natural
    order. It is the column order SuperLU's multiple minimum degree (on
    the pattern of A^T + A) chooses, read off a factorization of the
    diagonally dominant matrix with the pattern of ``a`` plus the
    diagonal. Minimum degree reads the pattern alone, so every matrix
    of that pattern, singular or indefinite ones too, gets this order,
    and the factorization that finds it cannot fail."""
    a = sp.csc_array(a)
    n = a.shape[0]
    pattern = sp.csc_array((np.full(a.nnz, -1.0), a.indices, a.indptr), shape=a.shape)
    lu = spla.splu(
        pattern + sp.diags_array(np.full(n, n + 1.0), format="csc"),
        permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
        options={"SymmetricMode": True},
    )
    return np.argsort(lu.perm_c)


def schur_complement(q, interior_idx, boundary_idx, zero_tol: float = DEFAULT_ZERO_TOL,
                     *, order: np.ndarray | None = None) -> np.ndarray:
    """S = Q_bb - Q_bi Q_ii^{-1} Q_ib for a symmetric Q, as a dense array.

    Q may be sparse or dense. The two index sets must partition the
    dimension; the interior block must be nonsingular (checked by
    inertia), otherwise :class:`SingularBlockError` is raised.

    Sparse Q is factored once, by :func:`_boundary_last_schur`, with the
    interior DOFs first in the fill-reducing ``order`` (positions in
    ``interior_idx``; :func:`fill_order` of Q_ii when None) and the
    boundary DOFs last. When that factor fails a check, and for dense
    Q, the interior block's Bunch-Kaufman inertia decides regularity and
    a dense solve for the boundary columns gives S.
    """
    q = _require_symmetric(q, "Q")
    interior_idx = np.asarray(interior_idx, dtype=np.int64)
    boundary_idx = np.asarray(boundary_idx, dtype=np.int64)
    n = q.shape[0]
    merged = np.concatenate([interior_idx, boundary_idx])
    if len(merged) != n or len(np.unique(merged)) != n:
        raise ValueError("index sets must partition the matrix dimension")
    if sp.issparse(q):
        if order is None:
            order = fill_order(q[np.ix_(interior_idx, interior_idx)])
        elif not np.array_equal(np.sort(order), np.arange(len(interior_idx))):
            raise ValueError("order must be a permutation of the interior positions")
        s = _boundary_last_schur(q, interior_idx[order], boundary_idx, zero_tol)
        _count_path("dense_fallback" if s is None else "sparse_ldlt")
        if s is not None:
            return s

    def block(rows, cols):
        return _dense(q[np.ix_(rows, cols)], "Q")

    solve = _nonsingular_solver(block(interior_idx, interior_idx), zero_tol)
    if len(boundary_idx) == 0:
        return np.zeros((0, 0))
    q_ib = block(interior_idx, boundary_idx)
    s = block(boundary_idx, boundary_idx) - q_ib.T @ solve(q_ib)
    return 0.5 * (s + s.T)


def _boundary_last_schur(q: sp.csc_array, interior: np.ndarray, boundary: np.ndarray,
                         zero_tol: float):
    """S from one SuperLU factorization of Q in symmetric mode, or None
    when its interior part cannot be trusted.

    Q is factored in the order ``interior`` then ``boundary``, with
    diagonal pivots and no reordering (the partial factorization behind
    the Schur complement option of multifrontal solvers: Amestoy, Duff,
    L'Excellent & Koster, SIAM J. Matrix Anal. Appl. 23, 2001). The
    interior columns then factor Q_ii = L_ii U_ii, and S = Q_bb - L_bi
    U_ib comes from the off-diagonal blocks. The boundary pivots, those
    of S itself (indefinite, possibly nearly singular), enter no check:
    the checks of :func:`_sparse_ldlt` apply to the interior columns of
    L and rows of U, relative to max|Q_ii|. They pass only if Q_ii is
    nonsingular by them, and then inertia(Q_ii) is the signs of the
    interior pivots, so the Haynsworth additivity inertia(Q) =
    inertia(Q_ii) + inertia(S) holds for this one factorization.
    """
    ni = len(interior)
    perm = np.concatenate([interior, boundary])
    qp = q[np.ix_(perm, perm)]
    head = slice(0, qp.indptr[ni])  # the stored entries of the interior columns
    scale = _max_abs(qp.data[head][qp.indices[head] < ni])
    if scale == 0.0:
        return None
    try:
        lu = spla.splu(
            qp, permc_spec="NATURAL", diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
    except RuntimeError:  # a pivot column, interior or boundary, was exactly zero
        return None
    if not np.array_equal(lu.perm_r, lu.perm_c):
        return None  # an off-diagonal pivot was taken: not an LDL^T
    if np.any(lu.perm_c[:ni] >= ni):
        return None  # a boundary column was eliminated before an interior one
    l, u = lu.L, lu.U
    if np.min(np.abs(u.diagonal()[:ni])) <= zero_tol * scale:
        return None
    growth = max(_max_abs(l.data[:l.indptr[ni]]), _max_abs(u.data[u.indices < ni]) / scale)
    if growth > _MAX_GROWTH:
        return None
    if len(boundary) == 0:
        return np.zeros((0, 0))
    # L_bi and U_ib as dense blocks over only the interior columns that
    # reach the boundary: one BLAS product, and less memory than either
    # whole block or the boundary-column solve
    rows, cols, vals = _column_entries(l, 0, ni)
    below = rows >= ni
    rows_u, cols_u, vals_u = _column_entries(u, ni, ni + len(boundary))
    above = rows_u < ni
    reach = np.union1d(cols[below], rows_u[above])
    l_bi = np.zeros((len(boundary), len(reach)))
    l_bi[rows[below] - ni, np.searchsorted(reach, cols[below])] = vals[below]
    u_ib = np.zeros((len(reach), len(boundary)))
    u_ib[np.searchsorted(reach, rows_u[above]), cols_u[above] - ni] = vals_u[above]
    at = lu.perm_c[ni:] - ni  # factor position of each boundary DOF
    s = qp[ni:, ni:].toarray() - (l_bi @ u_ib)[np.ix_(at, at)]
    return 0.5 * (s + s.T)


def _column_entries(m: sp.csc_array, start: int, stop: int):
    """(rows, columns, values) of the entries stored in columns
    ``start`` to ``stop - 1`` of a CSC matrix."""
    lo, hi = m.indptr[start], m.indptr[stop]
    cols = np.repeat(np.arange(start, stop), np.diff(m.indptr[start:stop + 1]))
    return m.indices[lo:hi], cols, m.data[lo:hi]
