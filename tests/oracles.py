"""Independent brute-force oracles used only by the test suite."""
from typing import NamedTuple

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from bucklab.eigen import ZERO_TOL
from bucklab.spectra import PENCILS, free_dofs, pencil_pair
from bucklab.spherecap import cap_operators

_PENCIL_SPECTRA = {}


class Inertia(NamedTuple):
    n_neg: int
    n_zero: int
    n_pos: int


def inertia(a) -> Inertia:
    """Signs of the spectrum of a dense symmetric matrix, read off its
    LDL^T factor with Bunch-Kaufman pivoting, whose block-diagonal D (1x1
    and 2x2 pivot blocks) is tridiagonal; the signs are those of its
    eigenvalues from LAPACK, and eigenvalues with magnitude at most
    ``ZERO_TOL * max|A|`` count as zero. That threshold is relative to
    max|A|, so on a graded matrix it counts well-determined eigenvalues
    as zero: on the unscaled cap form A_2 - 2.0147 K_2 (eps 0.1, 64
    nodes, clamped free DOFs, diagonal from 11.4 to 9.4e12, smallest
    eigenvalue 0.686) it returns ``Inertia(0, 73, 53)``."""
    a = np.asarray(a, dtype=np.float64)
    n = len(a)
    scale = float(np.max(np.abs(a))) if n else 0.0
    if scale == 0.0:
        return Inertia(0, n, 0)
    _, d, _ = sla.ldl(a)
    ev = sla.eigvalsh_tridiagonal(np.diag(d), np.diag(d, -1))
    n_neg = int(np.sum(ev < -ZERO_TOL * scale))
    n_pos = int(np.sum(ev > ZERO_TOL * scale))
    return Inertia(n_neg, n - n_neg - n_pos, n_pos)


def sym_gen_eigvals_all(a, b) -> np.ndarray:
    """All eigenvalues of the symmetric pencil (A, B), B positive
    definite, ascending, from dense LAPACK ``eigh``."""
    a, b = (m.toarray() if sp.issparse(m) else np.array(m, dtype=np.float64)
            for m in (a, b))
    return sla.eigh(a, b, eigvals_only=True, overwrite_a=True, overwrite_b=True)


def sliced_forms(pair, problem: str):
    """The assembled A and B of ``problem``'s pencil (as
    :data:`~bucklab.spectra.PENCILS` names them), sliced here to its free
    DOFs, as sparse matrices."""
    free = free_dofs(pair, problem)
    return tuple(getattr(pair, name)[np.ix_(free, free)] for name in PENCILS[problem][2:])


def dense_pencil_eigenvalues(mesh, problem: str) -> np.ndarray:
    """Every eigenvalue of ``problem``'s pencil on ``mesh`` by
    :func:`sym_gen_eigvals_all`, memoized per mesh content hash and
    problem (read-only)."""
    key = (mesh.content_hash(), problem)
    if key not in _PENCIL_SPECTRA:
        pair = pencil_pair(mesh, problem)
        vals = sym_gen_eigvals_all(*sliced_forms(pair, problem))
        vals.setflags(write=False)
        _PENCIL_SPECTRA[key] = vals
    return _PENCIL_SPECTRA[key]


def _dense(q) -> np.ndarray:
    return q.toarray() if sp.issparse(q) else np.asarray(q, dtype=np.float64)


def dense_schur(q, interior, boundary) -> np.ndarray:
    """Q_bb - Q_bi Q_ii^{-1} Q_ib of a symmetric Q by one dense LAPACK
    solve, symmetrized, from the index sets of the interior and boundary
    positions."""
    q = _dense(q)
    q_ib = q[np.ix_(interior, boundary)]
    x = sla.solve(q[np.ix_(interior, interior)], q_ib, assume_a="sym")
    s = q[np.ix_(boundary, boundary)] - q_ib.T @ x
    return 0.5 * (s + s.T)


def dense_schur_counts(q, interior, boundary) -> tuple[int, int]:
    """``(neg(S), neg(Q_ii))`` of a symmetric Q: the dense Bunch-Kaufman
    inertia of :func:`dense_schur` and of the interior block."""
    q = _dense(q)
    return (inertia(dense_schur(q, interior, boundary)).n_neg,
            inertia(q[np.ix_(interior, interior)]).n_neg)


def dense_lift(q, interior, boundary, psi) -> np.ndarray:
    """The lift -Q_ii^{-1} Q_ib psi of boundary values ``psi`` of a
    symmetric Q by one dense LAPACK solve."""
    q = _dense(q)
    return -sla.solve(q[np.ix_(interior, interior)], q[np.ix_(interior, boundary)] @ psi,
                      assume_a="sym")


def dense_perturbation(pair) -> np.ndarray:
    """The bending-energy minimizer with zero boundary values and unit
    boundary normal derivatives on a Morley ``pair``, by one dense LAPACK
    solve F_cc h_c = -F_cb 1 on the clamped free DOFs."""
    free = free_dofs(pair, "buckling")
    h = np.zeros(pair.dofmap.n_dofs)
    h[pair.dofmap.boundary_normal_dofs()] = 1.0
    f = pair.fourth_order_matrix().toarray()
    h[free] = sla.solve(f[np.ix_(free, free)], -(f @ h)[free], assume_a="sym")
    return h


def full_cap_merge(grid, bc: str, modes: int, k: int) -> np.ndarray:
    """The k smallest punctured-sphere values of ``bc`` on ``grid``,
    merged over every azimuthal mode 0..modes (m >= 1 doubled), with no
    mode left out."""
    vals = []
    for m in range(modes + 1):
        w = cap_operators(grid, m, "second").smallest(bc, k)
        vals.extend(float(x) for x in w for _ in range(1 if m == 0 else 2))
    return np.array(sorted(vals)[:k])


def full_cap_buckling(grid, modes: int) -> float:
    """The smallest clamped punctured-sphere buckling value on ``grid``
    over the azimuthal modes 0..modes, every mode solved."""
    return min(
        float(cap_operators(grid, m, "fourth").smallest("clamped", 1)[0])
        for m in range(modes + 1)
    )


def jacobi_eigenvalues(a: np.ndarray, tol: float = 1e-14, max_sweeps: int = 60) -> np.ndarray:
    """Symmetric eigenvalues by cyclic Jacobi rotations.

    Deliberately shares nothing with the LAPACK-backed solver: plain
    two-sided rotations applied until every off-diagonal entry dies.
    """
    a = np.array(a, dtype=np.float64)
    n = len(a)
    for _ in range(max_sweeps):
        off = np.sqrt(np.sum(np.tril(a, -1) ** 2))
        if off <= tol * np.sqrt(np.sum(np.diag(a) ** 2) + 1e-300):
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if a[p, q] == 0.0:
                    continue
                theta = 0.5 * (a[q, q] - a[p, p]) / a[p, q]
                t = np.sign(theta) / (abs(theta) + np.sqrt(theta * theta + 1.0))
                if theta == 0.0:
                    t = 1.0
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                rot_p = c * a[:, p] - s * a[:, q]
                rot_q = s * a[:, p] + c * a[:, q]
                a[:, p], a[:, q] = rot_p, rot_q
                rot_p = c * a[p, :] - s * a[q, :]
                rot_q = s * a[p, :] + c * a[q, :]
                a[p, :], a[q, :] = rot_p, rot_q
    return np.sort(np.diag(a))


def random_symmetric(n: int, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    a = rng.standard_normal((n, n)) * scale
    return 0.5 * (a + a.T)
