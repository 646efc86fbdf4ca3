"""Independent brute-force oracles used only by the test suite."""
import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from bucklab.spectra import PENCILS, free_dofs, pencil_pair
from bucklab.spherecap import cap_operators

_PENCIL_SPECTRA = {}


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


def dense_pencil_eigenvalues(mesh, problem: str, order=None) -> np.ndarray:
    """Every eigenvalue of ``problem``'s pencil on ``mesh`` by
    :func:`sym_gen_eigvals_all`, memoized per mesh content hash, problem
    and order (read-only)."""
    key = (mesh.content_hash(), problem, order)
    if key not in _PENCIL_SPECTRA:
        pair = pencil_pair(mesh, problem, order)
        vals = sym_gen_eigvals_all(*sliced_forms(pair, problem))
        vals.setflags(write=False)
        _PENCIL_SPECTRA[key] = vals
    return _PENCIL_SPECTRA[key]


def dense_schur(q, interior, boundary) -> np.ndarray:
    """Q_bb - Q_bi Q_ii^{-1} Q_ib of a symmetric Q by one dense LAPACK
    solve, symmetrized, from the index sets of the interior and boundary
    positions."""
    q = q.toarray() if sp.issparse(q) else np.asarray(q, dtype=np.float64)
    q_ib = q[np.ix_(interior, boundary)]
    x = sla.solve(q[np.ix_(interior, interior)], q_ib, assume_a="sym")
    s = q[np.ix_(boundary, boundary)] - q_ib.T @ x
    return 0.5 * (s + s.T)


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
        w = cap_operators(grid, m, "second").smallest(bc, k)[0]
        vals.extend(float(x) for x in w for _ in range(1 if m == 0 else 2))
    return np.array(sorted(vals)[:k])


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
