"""Symmetric eigenvalue, inertia and Schur-complement kernel.

A sparse pencil reaches this module in one form, a
:class:`BoundaryLastPencil` built once by :func:`boundary_last_pencil`
from the assembled forms and two disjoint DOF lists: A and B on one
shared pattern, interior DOFs first in the fill order of their pattern
(:func:`fill_order`) and boundary DOFs, if any, last, so that
``pencil.at(t)``, the matrix A - t B, is one vector update. Trace
operators, 1D cap forms and test matrices arrive dense. Only
:func:`sym_gen_eigs` densifies a sparse matrix, and it refuses to do so
beyond ``MAX_DENSE_DOFS`` rows.

Every sparse factorization is one SuperLU factorization of a
``pencil.at(t)`` in symmetric mode and in the stored order
(:func:`_checked_factor`), after a symmetry check through the pencil's
transpose map: diagonal pivots only, so L U = A with U = D L^T, and
inertia(A) = inertia(D) by Sylvester's law. Unlike Bunch-Kaufman this
factorization never pivots for stability, so it is trusted only when
SuperLU kept the stored order, every pivot exceeds ``ZERO_TOL * max|A|``
and the factor shows no large element growth. A factor that fails a
check raises :class:`FactorCheckError` naming the check; no second,
dense answer is computed. Such factors count eigenvalues
(:func:`pencil_count`) and give the shift-invert operator and the
inertia certificate of Lanczos (:func:`sparse_smallest_eigs`, rerun at
a tighter tolerance when the certificate fails). ``solver_path_counts``
reports how many sparse factorizations were trusted and how many failed
a check. SuperLU updates panels of one column, not its default 20,
unless the factor's dense trailing boundary block has more than
``_PANEL_ONE_MAX_BOUNDARY`` rows, where the wide panel pays off.

A trace pencil's factor of Q = ``pencil.at(lam)`` gives S = L_bb U_bb,
neg(Q_ii) and neg(S) from its pivots, and lifts boundary values to the
interior (:func:`schur_and_lift`). Its interior part passes the pivot
and growth checks, its boundary part, the LDL^T of a possibly nearly
singular S, the growth check alone, and whenever they pass the
Haynsworth additivity inertia(Q) = inertia(Q_ii) + inertia(S) holds
exactly. :func:`lift_to_interior` and :func:`inertia` factor a sparse
matrix as a pencil without a boundary.
"""
from __future__ import annotations

import ctypes
import hashlib
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import BucklabError, FactorCheckError, SizeLimitError

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
# again at 0, as it was before the tolerance was set, before the solve
# gives up.
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
# Largest dense trailing boundary block n_b that SuperLU factors with
# panels of one column instead of its default 20. A panel update pays
# only on a large dense supernode, and the one large dense supernode of
# a pencil factor is its trailing boundary block. Checked factor time
# with panels of one column against the default, relative, same
# matrices in interleaved order, one BLAS thread, heap workspace
# retained (n_b in brackets; a problem pencil has n_b = 0):
#
#   disk refine | problem pencils | Liu trace   | Friedlander trace
#   3           | -17..-22%       | (64)  -17%  | (128)  -14%
#   4           | -15..-16%       | (128) -14%  | (256)  -11%
#   5           | -15..-20%       | (256) -14%  | (512)   +2%
#   6           | -12..-18%       | (512)  +3%  | (1024) +19%
_PANEL_ONE_MAX_BOUNDARY = 256

# glibc mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3

_PATH_LOCK = threading.Lock()
_PATH_COUNTS = {"sparse_ldlt": 0, "check_failed": 0, "lanczos_retry": 0}

_ORDER_LOCK = threading.Lock()
# SHA-1 of a pattern's indptr and indices -> its fill_order, oldest first
_ORDER_CACHE: dict[bytes, np.ndarray] = {}
_ORDER_CACHE_SIZE = 8


class Inertia(NamedTuple):
    n_neg: int
    n_zero: int
    n_pos: int


def solver_path_counts() -> dict[str, int]:
    """Checked sparse factorizations so far in this process, by outcome:
    ``sparse_ldlt`` (trusted, its answer used) or ``check_failed`` (a
    check failed and :class:`FactorCheckError` was raised: a check of
    the factor itself, or the positive pivots a Lanczos shift needs). A
    count that steps past a singular bound (:func:`pencil_count`) counts
    once, by the factor it ends with. ``lanczos_retry`` counts the
    Lanczos solves rerun at ARPACK's default tolerance after the first
    one failed (see :func:`sparse_smallest_eigs`)."""
    with _PATH_LOCK:
        return dict(_PATH_COUNTS)


def _count_path(path: str) -> None:
    """Count one event under ``path``, a key of :func:`solver_path_counts`."""
    with _PATH_LOCK:
        _PATH_COUNTS[path] += 1


@contextmanager
def _counted():
    """Count the one factorization checked in this block: in
    ``sparse_ldlt`` when the block ends normally, in ``check_failed``
    when it raises :class:`FactorCheckError`, which propagates."""
    try:
        yield
    except FactorCheckError:
        _count_path("check_failed")
        raise
    _count_path("sparse_ldlt")


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
        # an exactly symmetric matrix passes without the tolerance test's
        # temporaries; an unequal one is not empty
        if np.array_equal(a, a.T):
            return a
        scale = np.max(np.abs(a))
        asym = np.max(np.abs(a - a.T))
    _check_symmetric(scale, asym, name)
    return a


def _check_symmetric(scale: float, asym: float, name: str) -> None:
    """Raise unless max|A - A^T| (``asym``) is within 1e-12 of max|A|."""
    if asym > _SYM_RTOL * (scale or 1.0):
        raise ValueError(f"{name} is not symmetric within {_SYM_RTOL:g} relative")


def sym_gen_eigs(a, b, count: int) -> tuple[np.ndarray, np.ndarray]:
    """``count`` smallest eigenpairs of A x = gamma B x, B positive definite.

    Returns eigenvalues ascending and B-orthonormal eigenvectors as
    columns. Raises if B fails its Cholesky factorization. Sparse input
    is densified, and refused beyond ``MAX_DENSE_DOFS`` rows with
    :class:`SizeLimitError`.
    """
    forms = []
    for m, name in ((a, "A"), (b, "B")):
        m = _require_symmetric(m, name)
        if sp.issparse(m):
            if m.shape[0] > MAX_DENSE_DOFS:
                raise SizeLimitError(
                    f"{name} has {m.shape[0]} rows, beyond the dense cap {MAX_DENSE_DOFS}"
                )
            m = m.toarray()
        forms.append(m)
    a, b = forms
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
    tolerance (machine epsilon), under the same certificate. A failed
    retry, a shift factor with a negative pivot and a factor that fails
    its checks each raise :class:`FactorCheckError`. A pencil of at most
    ``count + _LANCZOS_EXTRA`` rows, too small for ARPACK, goes to the
    dense :func:`sym_gen_eigs` and factors nothing here.
    """
    n = len(pencil.rows)
    if not 1 <= count <= n:
        raise ValueError(f"count must be in [1, {n}], got {count}")
    nev = count + _LANCZOS_EXTRA
    if nev >= n:  # ARPACK needs nev < n
        return sym_gen_eigs(*pencil.forms(), count)
    with _counted():
        fac = _checked_factor(pencil.at(sigma))
        n_neg = int(np.sum(fac.pivots < 0))
        if n_neg:
            raise FactorCheckError(f"the Lanczos shift sigma={sigma:.12g} is not below the "
                                   f"spectrum: its factor has {n_neg} negative pivots")
    op_inv = spla.LinearOperator((n, n), matvec=fac.lu.solve, dtype=np.float64)
    del fac  # ARPACK needs the solver alone, not the fetched copies of L and U
    a, b = pencil.forms()
    v0 = np.random.default_rng(0).standard_normal(n)
    for retry, tol in enumerate(_LANCZOS_TOLS):
        if retry:
            _count_path("lanczos_retry")
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
    raise FactorCheckError(f"Lanczos found no {count} smallest eigenpairs of a {n}-row pencil "
                           f"that pass the inertia certificate at ARPACK tolerances "
                           f"{' and '.join(f'{tol:g}' for tol in _LANCZOS_TOLS)}")


class _Factor(NamedTuple):
    """A trusted SuperLU factorization P A P^T = L U, with its L, U and
    pivots (the diagonal of U) fetched once."""

    lu: spla.SuperLU
    l: sp.csc_array
    u: sp.csc_array
    pivots: np.ndarray


def _checked_factor(q: BoundaryLastMatrix) -> _Factor:
    """One SuperLU factorization of the symmetric pencil matrix ``q`` in
    symmetric mode (diagonal pivots only) and in its stored order, as a
    :class:`_Factor`; when it cannot be trusted, :class:`FactorCheckError`
    names the check it failed. ``q`` is first checked symmetric within
    1e-12 relative through its transpose map (ValueError otherwise). With
    a boundary this is the partial factorization behind the Schur
    complement option of multifrontal solvers (Amestoy, Duff, L'Excellent
    & Koster, SIAM J. Matrix Anal. Appl. 23, 2001): the interior columns
    factor Q_ii = L_ii U_ii, and since Q_bb = L_bi U_ib + L_bb U_bb, the
    boundary block of the factor is S = L_bb U_bb.

    The factor is trusted only when the row and column permutations
    agree (an LDL^T), SuperLU kept the stored order, every interior pivot
    exceeds ``ZERO_TOL * max|Q_ii|``, and the interior columns of L and
    rows of U show no element growth beyond ``_MAX_GROWTH`` relative to
    max|Q_ii|. Then Q_ii is nonsingular and inertia(Q_ii) is the signs of
    the interior pivots, so the Haynsworth additivity inertia(Q) =
    inertia(Q_ii) + inertia(S) holds for this one factorization. The
    boundary columns of L and rows of U, those of the LDL^T of S, pass
    the same growth bound relative to max|Q|, which keeps the backward
    error of S near 1e-10 max|Q|. No pivot-size test applies to them, so
    a nearly singular S, whose small pivot comes last, is still trusted;
    a small leading boundary pivot shows as growth.
    """
    d, ni = q.data, q.n_interior
    scale = _max_abs(d)
    _check_symmetric(scale, _max_abs(d - d[q.transpose]), "Q")
    a = q.csc()
    head = slice(0, a.indptr[ni])  # the stored entries of the interior columns
    scale_ii = _max_abs(d[head][a.indices[head] < ni])
    if scale_ii == 0.0:
        raise _failed(q, "zero pivot", "the interior block is zero")
    try:
        lu = spla.splu(a, permc_spec="NATURAL", diag_pivot_thresh=0.0,
                       panel_size=_panel_size(a.shape[0] - ni), options={"SymmetricMode": True})
    except RuntimeError as exc:  # a pivot column, interior or boundary, was exactly zero
        raise _failed(q, "zero pivot", f"SuperLU: {exc}") from None
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise _failed(q, "diagonal pivot", "an off-diagonal pivot was taken: not an LDL^T")
    if np.any(lu.perm_c != np.arange(len(lu.perm_c))):
        raise _failed(q, "order", "SuperLU did not keep the stored order")
    l, u = lu.L, lu.U
    pivots = u.diagonal()
    smallest = np.min(np.abs(pivots[:ni]))
    if smallest <= ZERO_TOL * scale_ii:
        raise _failed(q, "pivot size", f"an interior pivot of {smallest / scale_ii:.3g} "
                                       f"max|Q_ii| is at or below ZERO_TOL={ZERO_TOL:g}")
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
        raise _failed(q, "growth", f"element growth {growth:.3g} exceeds {_MAX_GROWTH:g}")
    return _Factor(lu, l, u, pivots)


def _failed(q: BoundaryLastMatrix, check: str, detail: str) -> FactorCheckError:
    """The error of a factor of ``q`` that failed ``check``."""
    return FactorCheckError(f"the sparse LDL^T of {len(q.indptr) - 1} rows ({q.n_interior} "
                            f"interior) failed its {check} check: {detail}")


def _panel_size(n_boundary: int) -> int | None:
    """SuperLU's panel width for a factor whose dense trailing boundary
    block has ``n_boundary`` rows: one column up to
    ``_PANEL_ONE_MAX_BOUNDARY``, SuperLU's default (None) beyond it."""
    return 1 if n_boundary <= _PANEL_ONE_MAX_BOUNDARY else None


def _max_abs(values: np.ndarray) -> float:
    """max |v| over stored values, 0 when there are none, with no |v|
    array. Reading a factor's ``.data`` directly skips the index sort that
    ``abs()`` of an unsorted SuperLU factor performs; no entry of a factor
    is stored twice, so the maximum is the same."""
    return max(float(np.max(values)), -float(np.min(values))) if len(values) else 0.0


def inertia(a) -> Inertia:
    """Signs of the spectrum of a symmetric matrix, read off an LDL^T factor.

    Sparse input: signs of the pivots of the checked sparse LDL^T of the
    pencil (A, 0) with no boundary, whose pivots all exceed
    ``ZERO_TOL * max|A|``; a factor that fails a check raises
    :class:`FactorCheckError`. Dense input: LDL^T with Bunch-Kaufman
    pivoting, whose block-diagonal D (1x1 and 2x2 pivot blocks) is
    tridiagonal; the signs are those of its eigenvalues from LAPACK, and
    eigenvalues with magnitude at most ``ZERO_TOL * max|A|`` count as
    zero. That threshold is relative to max|A|, so on a graded matrix it
    counts well-determined eigenvalues as zero: on the unscaled cap form
    A_2 - 2.0147 K_2 (eps 0.1, 64 nodes, clamped free DOFs, diagonal
    from 11.4 to 9.4e12, smallest eigenvalue 0.686) it returns
    ``Inertia(0, 73, 53)``.
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
    checked factor."""
    with _counted():
        pivots = _checked_factor(q).pivots
    return Inertia(int(np.sum(pivots < 0)), 0, int(np.sum(pivots > 0)))


def pencil_count(pencil: BoundaryLastPencil, upto: float, scale: float) -> int:
    """``m``, the number of eigenvalues of the sparse ``pencil`` at or
    below a bound t >= ``upto``, so that the ``m + 1`` smallest hold every
    value up to ``upto`` and the next one above it: the negative pivots
    of the checked factor of ``pencil.at(t)``. At t = ``upto`` on an
    eigenvalue that factor fails its pivot test, so t moves up by each
    step of ``_COUNT_NUDGES`` times ``max(|upto|, scale)`` in turn. If
    the factor at the last step fails too, its :class:`FactorCheckError`
    is raised."""
    with _counted():
        for nudge in (0.0, *_COUNT_NUDGES):
            try:
                fac = _checked_factor(pencil.at(upto + nudge * max(abs(upto), scale)))
                break
            except FactorCheckError:
                if nudge == _COUNT_NUDGES[-1]:
                    raise
    return int(np.sum(fac.pivots < 0))


def fill_order(a) -> np.ndarray:
    """Fill-reducing elimination order of a symmetric sparse matrix:
    ``a[np.ix_(order, order)]`` factors with little fill in its natural
    order. It is the column order of SuperLU's multiple minimum degree on
    the pattern of A^T + A, which reads the pattern alone (Liu, ACM TOMS
    11, 1985), read off SuperLU's incomplete factorization, at drop
    tolerance 1, of the diagonally dominant matrix with the pattern of
    ``a`` plus the diagonal. The last ``_ORDER_CACHE_SIZE`` patterns keep
    their orders."""
    a = sp.csc_array(a)
    digest = hashlib.sha1(memoryview(a.indptr))  # indptr fixes n
    digest.update(memoryview(a.indices))
    order = _ORDER_CACHE.get(key := digest.digest())
    if order is None:
        n = a.shape[0]
        pattern = sp.csc_array((np.full(a.nnz, -1.0), a.indices, a.indptr), shape=a.shape)
        dominant = pattern + sp.diags_array(np.full(n, n + 1.0), format="csc")
        ilu = spla.spilu(dominant, drop_tol=1.0, fill_factor=1.0, permc_spec="MMD_AT_PLUS_A",
                         diag_pivot_thresh=0.0, relax=1, panel_size=1,
                         options={"SymmetricMode": True})
        order = np.argsort(ilu.perm_c)
        order.setflags(write=False)
        with _ORDER_LOCK:  # the oldest pattern's order goes first
            _ORDER_CACHE[key] = order
            while len(_ORDER_CACHE) > _ORDER_CACHE_SIZE:
                del _ORDER_CACHE[next(iter(_ORDER_CACHE))]
    return order


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
    interior DOFs first, in the :func:`fill_order` of that pattern on
    them, then the boundary DOFs as given. The values are placed, never
    summed with each other, so they keep their bits; the arrays are
    read-only."""
    interior = np.asarray(interior, dtype=np.int64)
    boundary = np.asarray(boundary, dtype=np.int64)
    rows = np.concatenate([interior, boundary])
    if not (np.all((rows >= 0) & (rows < np.shape(a)[0])) and np.all(np.bincount(rows) <= 1)):
        raise ValueError("index sets must partition the pencil's DOFs: distinct rows of the forms")
    n, ni = len(rows), len(interior)

    def restricted(dofs):  # A and B on ``dofs``, and the pattern of A + A^T + B + B^T
        forms = [sp.csc_array(m, dtype=np.float64)[np.ix_(dofs, dofs)] for m in (a, b)]
        for m in forms:
            m.sum_duplicates()
            m.eliminate_zeros()
        # an entry's value codes whether A (bit 1) and B (bit 2) store it
        a_at, b_at = (sp.csc_array((np.full(m.nnz, bit), m.indices, m.indptr), shape=m.shape)
                      for bit, m in zip((1.0, 2.0), forms))
        code = a_at + b_at
        return forms, sp.csc_array(code + 4.0 * code.T)

    rows = np.concatenate([interior[fill_order(restricted(interior)[1])], boundary])
    forms, pattern = restricted(rows)
    code = pattern.data.astype(np.int64)
    data = [np.zeros(pattern.nnz), np.zeros(pattern.nnz)]
    for bit, m, values in zip((1, 2), forms, data):  # canonical, so in the pattern's order
        values[(code & bit) > 0] = m.data
    numbered = sp.csc_array((np.arange(1.0, pattern.nnz + 1), pattern.indices, pattern.indptr),
                            shape=(n, n))
    # the pattern is symmetric, so its transpose numbers each entry's transpose
    transpose = sp.csc_array(numbered.T).data.astype(np.int32) - 1
    fields = [pattern.indptr.astype(np.int32), pattern.indices.astype(np.int32),
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
    order. A factor that fails a check, a singular interior block among
    them, raises :class:`FactorCheckError`. See :func:`schur_and_lift`,
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
    solve U_ii y = -U_ib psi in Q's order. A factor that fails a check
    raises :class:`FactorCheckError`. The lift holds U until it is
    dropped.
    """
    with _counted():
        fac = _checked_factor(q)
    ni, u = q.n_interior, fac.u  # the lift holds U, not the SuperLU object
    s = _trailing_block(fac.l, ni) @ _trailing_block(u, ni)
    s = 0.5 * (s + s.T)
    schur = SchurComplement(s, int(np.sum(fac.pivots[ni:] < -ZERO_TOL * _max_abs(s))),
                            int(np.sum(fac.pivots[:ni] < 0)))

    def lift(psi):
        return spla.spsolve_triangular(u[:ni, :ni], -(u[:ni, ni:] @ psi), lower=False)

    return schur, lift


def _trailing_block(f: sp.csc_array, ni: int) -> np.ndarray:
    """The dense block ``f[ni:, ni:]`` of a factor, read off its CSC
    arrays: entries are stored once, so the values keep their bits."""
    n = f.shape[0]
    start = f.indptr[ni]
    rows = f.indices[start:]
    cols = np.repeat(np.arange(n - ni), np.diff(f.indptr[ni:]))
    keep = rows >= ni  # L's boundary columns hold rows >= ni only, U's both
    block = np.zeros((n - ni, n - ni))
    block[rows[keep] - ni, cols[keep]] = f.data[start:][keep]
    return block


def lift_to_interior(a, interior: np.ndarray, boundary: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """The lift ``-A_ii^{-1} A_ib psi`` of :func:`schur_and_lift` for a
    symmetric sparse A given by index sets, in the order of ``interior``:
    one checked factor of A_ii, the pencil (A, 0) on the interior DOFs
    with no boundary. A factor that fails a check, a singular A_ii among
    them, raises :class:`FactorCheckError`."""
    a = _require_symmetric(a, "A")
    pencil = boundary_last_pencil(a, sp.csc_array(a.shape), interior, [])
    rhs = -(a[np.ix_(pencil.rows, boundary)] @ psi)
    with _counted():
        fac = _checked_factor(pencil.at(0.0))
    lifted = np.zeros(a.shape[0])
    lifted[pencil.rows] = fac.lu.solve(rhs)
    return lifted[interior]
