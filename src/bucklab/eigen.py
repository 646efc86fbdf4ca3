"""Symmetric eigenvalue, inertia and Schur-complement kernel.

A sparse pencil reaches this module in one form, a
:class:`BoundaryLastPencil` built once by :func:`boundary_last_pencil`
from the assembled forms and two disjoint DOF lists: A and B on one
shared pattern, interior DOFs first and boundary DOFs last, so that
``pencil.at(t)``, the matrix A - t B, is one vector update. A problem
pencil has no boundary; a trace pencil has its interior DOFs in a
fill-reducing order. Boundary-sized trace operators, 1D cap forms and
test matrices arrive dense. This is the one module that densifies a
sparse matrix, and it refuses to do so beyond ``MAX_DENSE_DOFS`` rows.

Every sparse factorization is one SuperLU factorization of a
``pencil.at(t)`` in symmetric mode (:func:`_checked_factor`), after a
symmetry check through the pencil's transpose map: diagonal pivots only,
in a fill-reducing order without a boundary and in the stored order
with one, so P A P^T = L U with U = D L^T, and inertia(A) = inertia(D)
by Sylvester's law. Unlike Bunch-Kaufman this factorization never
pivots for stability, so it is trusted only when the row and column
permutations agree, every pivot exceeds ``ZERO_TOL * max|A|`` and the
factor shows no large element growth. Otherwise the dense path decides:
LDL^T with Bunch-Kaufman 1x1/2x2 pivots for inertia, or the dense
eigensolver (through the Cholesky factor of the mass matrix) for a
Lanczos result that fails its certificate. Such factors count
eigenvalues (:func:`pencil_count`) and give the shift-invert operator
and the inertia certificate of Lanczos (:func:`sparse_smallest_eigs`,
rerun at a tighter tolerance when the certificate fails).
``solver_path_counts`` reports how many sparse factorizations and
Lanczos solves took each path.

A trace pencil's Q = ``pencil.at(lam)`` (a :class:`BoundaryLastMatrix`)
factored in its own order gives S = L_bb U_bb, the boundary block of
the factor. Its interior part passes the pivot and growth checks, so
one factorization certifies that Q_ii is nonsingular and gives S,
neg(Q_ii) and neg(S) from the pivot signs, and the Haynsworth
additivity inertia(Q) = inertia(Q_ii) + inertia(S) holds exactly
whenever they pass. The boundary part, the LDL^T of S, passes the same
growth bound but no pivot-size test, since S may be nearly singular.
The same factor lifts boundary values to the interior
(:func:`schur_and_lift`). A point that fails either part goes to the
dense path, which beyond ``MAX_DENSE_DOFS`` interior rows raises
:class:`SizeLimitError`. :func:`lift_to_interior` and :func:`inertia`
factor a sparse matrix as a pencil without a boundary.
"""
from __future__ import annotations

import ctypes
import threading
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import BucklabError, SingularBlockError, SizeLimitError

#: pivots and eigenvalues within this of zero, relative to max|A|, count as zero
ZERO_TOL = 1e-9
_SYM_RTOL = 1e-12
#: densifying a sparse matrix with more rows than this raises SizeLimitError
MAX_DENSE_DOFS = 6000
# Largest accepted element growth max(max|L|, max|U| / max|A|) of an
# unpivoted sparse factor. Its backward error is about machine epsilon
# times the growth times max|A|, so up to 1e6 it stays near 1e-10 max|A|,
# below ``ZERO_TOL``; beyond it, pivot signs may be wrong.
_MAX_GROWTH = 1e6
# Lanczos computes this many values beyond those asked for, so that a
# multiple eigenvalue split by the count is still followed by a gap.
_LANCZOS_EXTRA = 3
# ARPACK's relative residual tolerance, first try and retry. A Ritz
# value's error is about the square of its residual over the gap, so at
# 1e-10 the values already agree with those of tol=0 (machine epsilon)
# to rounding, and the iterations tol=0 adds change only the vectors, by
# about 1e-10. A result that fails its certificate at 1e-10 is solved
# again at 0, as it was before the tolerance was set, before the dense
# fallback decides.
_LANCZOS_TOLS = (1e-10, 0.0)
# Two Ritz values are separated by a clear gap when they differ by more
# than this, relative to the larger one in magnitude. The certifying
# inertia count is taken at the gap's midpoint, which is then at least
# half this distance from either value: far above the Lanczos error and
# far enough from the spectrum for the checked factor to be trusted.
_GAP_RTOL = 1e-3
# Steps, relative to the size of the eigenvalues, by which pencil_count
# moves a bound on which A - t B is singular within the zero tolerance:
# 1e-6 clears the pivot test at the Neumann zero and the first buckling
# and Navier values of the disk at refine 6, where 1e-7 does not.
_COUNT_NUDGES = (1e-6, 1e-4, 1e-2)

# glibc mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3

_PATH_LOCK = threading.Lock()
_PATH_COUNTS = {"sparse_ldlt": 0, "dense_fallback": 0, "lanczos_retry": 0}


class Inertia(NamedTuple):
    n_neg: int
    n_zero: int
    n_pos: int


def solver_path_counts() -> dict[str, int]:
    """Sparse factorizations so far in this process, by the path taken:
    ``sparse_ldlt`` (checked SuperLU factor trusted) or ``dense_fallback``
    (a check failed and the dense Bunch-Kaufman path ran instead). A
    Lanczos solve that the dense eigensolver replaces after its factor
    was trusted counts once more in ``dense_fallback``; ``lanczos_retry``
    counts the Lanczos solves rerun at ARPACK's default tolerance after
    the first one failed (see :func:`sparse_smallest_eigs`)."""
    with _PATH_LOCK:
        return dict(_PATH_COUNTS)


def _count_path(trusted: bool) -> None:
    """Count one sparse factorization by the path it took."""
    with _PATH_LOCK:
        _PATH_COUNTS["sparse_ldlt" if trusted else "dense_fallback"] += 1


def retain_factor_workspace() -> None:
    """Keep the heap from returning SuperLU's workspace to the system
    after every factorization, where the C library is glibc.

    A factorization allocates several MB of workspace and frees it
    again. glibc serves blocks that large by mmap and unmaps them on
    free, so each factorization of a scan pays the page faults anew,
    until the process happens to free a larger block, which raises the
    thresholds dynamically. Fixing the mmap threshold at 8 MiB and the
    trim threshold at 16 MiB keeps such workspace in the heap for the
    next factorization: Liu plus Friedlander scans of 4 points at disk
    refine 3 took 10-20% less time with them than at glibc's defaults,
    on a two-CPU virtual machine. The setting holds for the rest of the
    process. Without glibc's ``mallopt`` this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 8 << 20)
    mallopt(_M_TRIM_THRESHOLD, 16 << 20)


def _require_symmetric(a, name: str = "matrix"):
    """``a`` as float64 CSC (sparse input with duplicate entries: a copy
    with them summed) or ndarray, checked square and symmetric within
    1e-12 relative."""
    if sp.issparse(a):
        a = sp.csc_array(a, dtype=np.float64)
        if a.shape[0] != a.shape[1]:
            raise ValueError(f"{name} must be square, got shape {a.shape}")
        if not a.has_canonical_format:
            a = a.copy()
            a.sum_duplicates()
        scale = _max_abs(a.data)
        asym = _max_abs((a - a.T).data)
    else:
        a = np.asarray(a, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"{name} must be square, got shape {a.shape}")
        scale = np.max(np.abs(a)) if a.size else 0.0
        asym = np.max(np.abs(a - a.T)) if a.size else 0.0
    _check_symmetric(scale, asym, name)
    return a


def _check_symmetric(scale: float, asym: float, name: str) -> None:
    """Raise unless max|A - A^T| (``asym``) is within 1e-12 of max|A|."""
    if asym > _SYM_RTOL * (scale or 1.0):
        raise ValueError(f"{name} is not symmetric within {_SYM_RTOL:g} relative")


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


def sparse_smallest_eigs(pencil, count: int, sigma: float) -> tuple[np.ndarray, np.ndarray]:
    """:func:`sym_gen_eigs` for a sparse :class:`BoundaryLastPencil`, over
    its rows, by certified shift-invert Lanczos (Ericsson & Ruhe, Math.
    Comp. 1980).

    ``sigma`` must lie below the spectrum: every pivot of the checked
    sparse LDL^T of ``pencil.at(sigma)`` must be positive, which
    certifies it by Sylvester's law. ARPACK then runs on
    (A - sigma B)^{-1} B with that factor, from a fixed start vector so
    that results are reproducible, for a few more values than ``count``,
    to relative residual 1e-10. The result is certified as in Grimes,
    Lewis & Simon (SIAM J. Matrix Anal. Appl. 15, 1994): at the midpoint
    of the first clear gap between Ritz values at or after position
    ``count - 1``, the inertia of ``pencil.at(mid)`` must count exactly
    the Ritz values below the midpoint, so no eigenvalue was missed, not
    even one copy of a multiple one. When ARPACK fails or the certificate
    does, ARPACK runs once more on the same factor at its default
    tolerance (machine epsilon), under the same certificate; only when
    that fails too does the dense :func:`sym_gen_eigs` answer, which
    refuses beyond ``MAX_DENSE_DOFS`` rows.
    """
    n = len(pencil.rows)
    if not 1 <= count <= n:
        raise ValueError(f"count must be in [1, {n}], got {count}")
    pairs = _lanczos_smallest(pencil, count, sigma)
    if pairs is None:
        return sym_gen_eigs(*pencil.forms(), count)
    return pairs


def _lanczos_smallest(pencil: BoundaryLastPencil, count: int, sigma: float):
    """Certified ``count`` smallest eigenpairs, or None (counted as a
    dense fallback) when a check fails."""
    n = len(pencil.rows)
    nev = count + _LANCZOS_EXTRA
    if nev >= n:  # ARPACK needs nev < n; such a pencil is tiny anyway
        _count_path(False)
        return None
    fac = _checked_factor(pencil.at(sigma))
    _count_path(fac is not None)
    if fac is None:
        return None
    if np.any(fac.pivots < 0):  # sigma is not below the spectrum
        _count_path(False)
        return None
    op_inv = spla.LinearOperator((n, n), matvec=fac.lu.solve, dtype=np.float64)
    del fac  # ARPACK needs the solver alone, not the fetched copies of L and U
    a, b = pencil.forms()
    v0 = np.random.default_rng(0).standard_normal(n)
    for retry, tol in enumerate(_LANCZOS_TOLS):
        if retry:
            with _PATH_LOCK:
                _PATH_COUNTS["lanczos_retry"] += 1
        try:
            w, v = spla.eigsh(a, k=nev, M=b, sigma=sigma, OPinv=op_inv, v0=v0, tol=tol)
        except spla.ArpackError:
            continue
        order = np.argsort(w)
        w, v = w[order], v[:, order]
        gap = next(
            (j for j in range(count - 1, len(w) - 1)
             if w[j + 1] - w[j] > _GAP_RTOL * max(abs(w[j]), abs(w[j + 1]))),
            None,
        )
        if gap is not None and _pencil_inertia(
                pencil.at(0.5 * (w[gap] + w[gap + 1]))).n_neg == gap + 1:
            return w[:count], v[:, :count]
    _count_path(False)
    return None


class _Factor(NamedTuple):
    """A trusted SuperLU factorization P A P^T = L U, with its L, U and
    pivots (the diagonal of U) fetched once."""

    lu: spla.SuperLU
    l: sp.csc_array
    u: sp.csc_array
    pivots: np.ndarray


def _checked_factor(q: BoundaryLastMatrix):
    """One SuperLU factorization of the symmetric pencil matrix ``q`` in
    symmetric mode (diagonal pivots only), as a :class:`_Factor`, or None
    when it cannot be trusted. ``q`` is first checked symmetric within
    1e-12 relative through its transpose map (ValueError otherwise).

    Without a boundary, ``q`` is factored in a minimum-degree order (on
    the pattern of Q^T + Q). With one, it is factored in its own order
    (the partial factorization behind the Schur complement option of
    multifrontal solvers: Amestoy, Duff, L'Excellent & Koster, SIAM J.
    Matrix Anal. Appl. 23, 2001): the interior columns factor
    Q_ii = L_ii U_ii, and since Q_bb = L_bi U_ib + L_bb U_bb, the
    boundary block of the factor is S = L_bb U_bb.

    The factor is trusted only when the row and column permutations
    agree (an LDL^T), SuperLU kept the stored order if ``q`` has a
    boundary, every interior pivot exceeds ``ZERO_TOL * max|Q_ii|``, and
    the interior columns of L and rows of U show no element growth beyond
    ``_MAX_GROWTH`` relative to max|Q_ii|. Then Q_ii is nonsingular and
    inertia(Q_ii) is the signs of the interior pivots, so the Haynsworth
    additivity inertia(Q) = inertia(Q_ii) + inertia(S) holds for this
    one factorization. The boundary columns of L and rows of U, those of
    the LDL^T of S, pass the same growth bound relative to max|Q|, which
    keeps the backward error of S near 1e-10 max|Q|. No pivot-size test
    applies to them, so a nearly singular S, whose small pivot comes
    last, is still trusted; a small leading boundary pivot shows as
    growth.
    """
    d, ni = q.data, q.n_interior
    scale = _max_abs(d)
    _check_symmetric(scale, _max_abs(d - d[q.transpose]), "Q")
    a = q.csc()
    natural = ni < a.shape[0]
    head = slice(0, a.indptr[ni])  # the stored entries of the interior columns
    scale_ii = _max_abs(d[head][a.indices[head] < ni]) if natural else scale
    if scale_ii == 0.0:
        return None
    try:
        lu = spla.splu(
            a, permc_spec="NATURAL" if natural else "MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
    except RuntimeError:  # a pivot column, interior or boundary, was exactly zero
        return None
    if not np.array_equal(lu.perm_r, lu.perm_c):
        return None  # an off-diagonal pivot was taken: not an LDL^T
    if natural and np.any(lu.perm_c != np.arange(len(lu.perm_c))):
        return None  # SuperLU did not keep the given order
    l, u = lu.L, lu.U
    pivots = u.diagonal()
    if np.min(np.abs(pivots[:ni])) <= ZERO_TOL * scale_ii:
        return None
    # L's boundary columns hold rows >= ni only, U's interior columns rows
    # < ni only; U's boundary columns hold both
    lo, uo = l.indptr[ni], u.indptr[ni]
    u_tail = u.data[uo:]
    in_u = u.indices[uo:] < ni
    growth = max(
        _max_abs(l.data[:lo]), _max_abs(u.data[:uo]) / scale_ii,
        _max_abs(u_tail[in_u]) / scale_ii,
        _max_abs(l.data[lo:]), _max_abs(u_tail[~in_u]) / scale,
    )
    if growth > _MAX_GROWTH:
        return None
    return _Factor(lu, l, u, pivots)


def _max_abs(values: np.ndarray) -> float:
    """max |v| over stored values, 0 when there are none. Reading a
    factor's ``.data`` directly skips the index sort that ``abs()`` of an
    unsorted SuperLU factor performs; no entry of a factor is stored
    twice, so the maximum is the same."""
    return float(np.max(np.abs(values))) if len(values) else 0.0


def inertia(a) -> Inertia:
    """Signs of the spectrum of a symmetric matrix, read off an LDL^T factor.

    Sparse input: signs of the pivots of the checked sparse LDL^T of the
    pencil (A, 0) with no boundary, whose pivots all exceed
    ``ZERO_TOL * max|A|``. Dense input, or a sparse factor that fails a
    check: LDL^T with Bunch-Kaufman pivoting, whose block-diagonal D (1x1
    and 2x2 pivot blocks) is tridiagonal; the signs are those of its
    eigenvalues from LAPACK, and eigenvalues with magnitude at most
    ``ZERO_TOL * max|A|`` count as zero.
    """
    a = _require_symmetric(a, "A")
    n = a.shape[0]
    if n == 0:
        return Inertia(0, 0, 0)
    if sp.issparse(a):
        if a.nnz == 0:
            return Inertia(0, n, 0)
        pencil = boundary_last_pencil(a, sp.csc_array(a.shape), np.arange(n), [])
        return _pencil_inertia(pencil.at(0.0))
    scale = float(np.max(np.abs(a)))
    if scale == 0.0:
        return Inertia(0, n, 0)
    _, d, _ = sla.ldl(a)
    ev = sla.eigvalsh_tridiagonal(np.diag(d), np.diag(d, -1))
    thresh = ZERO_TOL * scale
    n_neg = int(np.sum(ev < -thresh))
    n_pos = int(np.sum(ev > thresh))
    n_zero = n - n_neg - n_pos
    return Inertia(n_neg, n_zero, n_pos)


def _pencil_inertia(q: BoundaryLastMatrix) -> Inertia:
    """:func:`inertia` of the pencil matrix ``q``: the pivot signs of its
    checked factor or, when a check fails, the dense count."""
    fac = _checked_factor(q)
    _count_path(fac is not None)
    if fac is None:
        return inertia(_dense(q.csc(), "A"))
    pivots = fac.pivots
    return Inertia(int(np.sum(pivots < 0)), 0, int(np.sum(pivots > 0)))


def pencil_count(pencil: BoundaryLastPencil, upto: float, scale: float) -> int:
    """``m``, the number of eigenvalues of the sparse ``pencil`` at or
    below a bound t >= ``upto``, so that the ``m + 1`` smallest hold every
    value up to ``upto`` and the next one above it: the negative pivots
    of the checked factor of ``pencil.at(t)``. At t = ``upto`` on an
    eigenvalue that factor fails its pivot test, so t moves up by each
    step of ``_COUNT_NUDGES`` times ``max(|upto|, scale)`` in turn. If
    every factor fails, the dense count at ``upto`` decides, its zero
    eigenvalues counted as at or below."""
    for nudge in (0.0, *_COUNT_NUDGES):
        fac = _checked_factor(pencil.at(upto + nudge * max(abs(upto), scale)))
        if fac is not None:
            _count_path(True)
            return int(np.sum(fac.pivots < 0))
    _count_path(False)
    below = inertia(_dense(pencil.at(upto).csc(), "A - t B"))
    return below.n_neg + below.n_zero


def fill_order(a) -> np.ndarray:
    """Fill-reducing elimination order of a symmetric sparse matrix:
    ``a[np.ix_(order, order)]`` factors with little fill in its natural
    order. It is the column order SuperLU's multiple minimum degree (on
    the pattern of A^T + A) chooses, read off one unchecked factorization
    of the diagonally dominant matrix with the pattern of ``a`` plus the
    diagonal. Minimum degree reads the pattern alone, so every matrix
    of that pattern, singular or indefinite ones too, gets this order;
    the matrix it is read off is strictly diagonally dominant, so its
    factorization cannot fail."""
    a = sp.csc_array(a)
    n = a.shape[0]
    pattern = sp.csc_array((np.full(a.nnz, -1.0), a.indices, a.indptr), shape=a.shape)
    dominant = pattern + sp.diags_array(np.full(n, n + 1.0), format="csc")
    lu = spla.splu(dominant, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                   options={"SymmetricMode": True})
    return np.argsort(lu.perm_c)


@dataclass(frozen=True)
class BoundaryLastMatrix:
    """A symmetric sparse matrix stored as its pencil stores it: its
    ``n_interior`` interior DOFs first, then its boundary DOFs, if it has
    any. Its CSC pattern (``indptr``, ``indices``) holds the transpose of
    every entry it holds; ``transpose[k]`` is the stored position of the
    transpose of entry ``k``. Made by :meth:`BoundaryLastPencil.at`."""

    indptr: np.ndarray
    indices: np.ndarray
    transpose: np.ndarray
    n_interior: int
    data: np.ndarray

    def csc(self) -> sp.csc_array:
        """The matrix as a CSC array sharing these arrays."""
        n = len(self.indptr) - 1
        return sp.csc_array((self.data, self.indices, self.indptr), shape=(n, n))


@dataclass(frozen=True)
class BoundaryLastPencil:
    """A symmetric sparse pencil A - lam B stored as a
    :class:`BoundaryLastMatrix` is, with A and B on one shared pattern,
    so the matrix at one lam is one vector update; ``rows[k]`` is the
    row (and column) of the assembled forms stored at position ``k``.
    Built by :func:`boundary_last_pencil`."""

    indptr: np.ndarray
    indices: np.ndarray
    transpose: np.ndarray
    n_interior: int
    rows: np.ndarray
    a_data: np.ndarray
    b_data: np.ndarray

    def at(self, lam: float) -> BoundaryLastMatrix:
        """The one matrix A - lam B, on the same pattern."""
        return BoundaryLastMatrix(self.indptr, self.indices, self.transpose,
                                  self.n_interior, self.a_data - lam * self.b_data)

    def forms(self) -> tuple[sp.csc_array, sp.csc_array]:
        """A and B as CSC arrays sharing the pencil's arrays."""
        n = len(self.rows)
        return tuple(sp.csc_array((d, self.indices, self.indptr), shape=(n, n))
                     for d in (self.a_data, self.b_data))


def boundary_last_pencil(a, b, interior, boundary) -> BoundaryLastPencil:
    """The symmetric forms ``a`` and ``b`` on the disjoint DOF lists
    ``interior`` and ``boundary`` (checked in O(n); ValueError otherwise)
    as a :class:`BoundaryLastPencil` on the nonzeros of |A| + |B|: the
    interior DOFs first, in the :func:`fill_order` of that pattern on them
    if there is a boundary and as given if not, then the boundary DOFs.
    The values are placed, never summed with each other, so they keep
    their bits; the arrays are read-only."""
    interior = np.asarray(interior, dtype=np.int64)
    boundary = np.asarray(boundary, dtype=np.int64)
    rows = np.concatenate([interior, boundary])
    if not (np.all((rows >= 0) & (rows < np.shape(a)[0])) and np.all(np.bincount(rows) <= 1)):
        raise ValueError("index sets must partition the pencil's DOFs: distinct rows of the forms")
    n, ni = len(rows), len(interior)
    forms = [sp.csc_array(m, dtype=np.float64)[np.ix_(rows, rows)] for m in (a, b)]
    for m in forms:
        m.sum_duplicates()
        m.eliminate_zeros()
    pattern = abs(forms[0]) + abs(forms[1])
    pattern = sp.csc_array(pattern + pattern.T)  # canonical

    def numbered(m):  # m's pattern, its entries numbered 1, 2, ... in CSC order
        return sp.csc_array((np.arange(1.0, m.nnz + 1), m.indices, m.indptr), shape=(n, n))

    def keys(m):  # column-major keys col * n + row, ascending for canonical CSC
        return np.repeat(np.arange(n), np.diff(m.indptr)) * n + m.indices

    # each stored entry names the pattern entry it holds
    permuted = numbered(pattern)
    if len(boundary):
        perm = np.concatenate([fill_order(pattern[:ni, :ni]), np.arange(ni, n)])
        rows = rows[perm]
        permuted = permuted[np.ix_(perm, perm)]
        permuted.sort_indices()
    source = permuted.data.astype(np.int64) - 1
    data = []
    for m in forms:
        values = np.zeros(pattern.nnz)
        values[np.searchsorted(keys(pattern), keys(m))] = m.data
        data.append(values[source])
    # the pattern is symmetric, so its transpose numbers each entry's transpose
    transpose = sp.csc_array(numbered(permuted).T).data.astype(np.int32) - 1
    fields = [permuted.indptr.astype(np.int32), permuted.indices.astype(np.int32),
              transpose, rows, *data]
    for arr in fields:
        arr.setflags(write=False)
    return BoundaryLastPencil(*fields[:3], ni, *fields[3:])


class SchurComplement(NamedTuple):
    """S = Q_bb - Q_bi Q_ii^{-1} Q_ib of a symmetric Q, dense over Q's
    boundary DOFs, with neg(S) and neg(Q_ii) read off the factorization
    that produced S (:func:`schur_and_lift`)."""

    matrix: np.ndarray
    n_neg: int
    n_neg_interior: int


def schur_complement(q: BoundaryLastMatrix) -> SchurComplement:
    """The :class:`SchurComplement` of a symmetric Q stored boundary-last
    (a :class:`BoundaryLastMatrix`, ``pencil.at(lam)``), in Q's boundary
    order. The interior block must be nonsingular, otherwise
    :class:`SingularBlockError` is raised. See :func:`schur_and_lift`,
    which this is without the lift."""
    return schur_and_lift(q)[0]


def schur_and_lift(q: BoundaryLastMatrix):
    """``(schur, lift)``: the :class:`SchurComplement` of ``q``, and the
    function ``lift(psi) = -Q_ii^{-1} Q_ib psi`` that extends boundary
    values ``psi`` to the interior DOFs (in Q's order) so that the
    interior rows of Q vanish, both from one factorization.

    Q is factored once in its own order by :func:`_checked_factor`, and
    S = L_bb U_bb is read off the boundary block of that factor. Its
    pivots count neg(Q_ii) (the negative interior ones) and neg(S) (the
    boundary ones below ``-ZERO_TOL * max|S|``: a smaller one bounds an
    eigenvalue of S that the dense count takes as zero). Since
    Q_ii = L_ii U_ii and Q_ib = L_ii U_ib, the lift is one triangular
    solve U_ii y = -U_ib psi in Q's order. When a check of the factor
    fails, the interior block's Bunch-Kaufman inertia decides regularity
    and gives neg(Q_ii), a dense solve X = Q_ii^{-1} Q_ib gives both
    S = Q_bb - Q_ib^T X and the lift -X psi, and neg(S) is the
    Bunch-Kaufman inertia of S; that densifies Q_ii, so beyond
    ``MAX_DENSE_DOFS`` interior rows a failed check raises
    :class:`SizeLimitError`. The lift holds U (or X) until it is dropped.
    """
    fac = _checked_factor(q)
    _count_path(fac is not None)
    ni, q = q.n_interior, q.csc()
    if fac is None:
        q_ii = _dense(q[:ni, :ni], "Q_ii")
        interior = inertia(q_ii)
        if interior.n_zero:
            raise SingularBlockError("interior block is singular at this parameter")
        q_ib = _dense(q[:ni, ni:], "Q_ib")
        x = sla.solve(q_ii, q_ib, assume_a="sym")
        s = _dense(q[ni:, ni:], "Q_bb") - q_ib.T @ x
        s = 0.5 * (s + s.T)
        schur = SchurComplement(s, inertia(s).n_neg, interior.n_neg)
        return schur, lambda psi: -(x @ psi)
    u = fac.u  # the lift holds U, not the SuperLU object
    s = fac.l[ni:, ni:].toarray() @ u[ni:, ni:].toarray()
    s = 0.5 * (s + s.T)
    schur = SchurComplement(s, int(np.sum(fac.pivots[ni:] < -ZERO_TOL * _max_abs(s))),
                            int(np.sum(fac.pivots[:ni] < 0)))

    def lift(psi):
        return spla.spsolve_triangular(u[:ni, :ni], -(u[:ni, ni:] @ psi), lower=False)

    return schur, lift


def lift_to_interior(a, interior: np.ndarray, boundary: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """The lift ``-A_ii^{-1} A_ib psi`` of :func:`schur_and_lift` for a
    symmetric sparse A given by index sets: one checked factor of A_ii, the
    pencil (A, 0) on the interior DOFs with no boundary, whose order costs
    no factorization of its own. On a failed check, A_ii's Bunch-Kaufman
    inertia decides regularity and a dense solve gives the lift; a
    singular A_ii raises :class:`SingularBlockError`."""
    a = _require_symmetric(a, "A")
    rhs = -(a[np.ix_(interior, boundary)] @ psi)
    q = boundary_last_pencil(a, sp.csc_array(a.shape), interior, []).at(0.0)
    fac = _checked_factor(q)
    _count_path(fac is not None)
    if fac is not None:
        return fac.lu.solve(rhs)
    a_ii = _dense(q.csc(), "A_ii")
    if inertia(a_ii).n_zero:
        raise SingularBlockError("interior block is singular at this parameter")
    return sla.solve(a_ii, rhs, assume_a="sym")
