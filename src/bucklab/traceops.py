"""Boundary trace operators and the exact counting identities.

For a spectral parameter away from the excluded discrete eigenvalues,
the Dirichlet-to-Neumann operator is the Schur complement of
K_grad - lambda*M onto the boundary-value DOFs, and the
Neumann-to-Laplacian operator is the Schur complement of the
fourth-order pencil matrix onto the boundary normal-derivative DOFs
with the boundary values pinned to zero. The shifted form Q is built
sparse from the assembled CSC matrices; :func:`bucklab.eigen.schur_complement`
factors its interior block once (a checked sparse LDL^T, with the dense
Bunch-Kaufman path as fallback) and returns the boundary-sized
operator as a dense matrix.

Because Schur elimination and inertia obey Haynsworth additivity
exactly, the negative-eigenvalue count of each trace operator equals a
difference of counting functions of pencils assembled from the same
matrices; ``verify_identity`` checks that integer identity point by
point and ``scan_identities`` sweeps it over a parameter grid.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import OperatorPair, classify_dofs
from .eigen import inertia, schur_complement, sym_gen_eigs
from .errors import ExcludedSpectrumError, SingularBlockError
from .mesh import Mesh
from .runio import SweepResult, run_sweep
from .spectra import Spectrum, get_pair, pencil_eigenvalues

DEFAULT_MARGIN = 1e-3
NUDGE_STEPS = 10


@dataclass(frozen=True)
class TraceOperator:
    """Symmetric operator on boundary DOFs with its mass metric.

    ``matrix`` and ``boundary_mass`` are dense: both are boundary-sized
    (the Schur complement of the sparse shifted form and the boundary
    mass)."""

    kind: str  # "dtn" | "ntl"
    lam: float
    matrix: np.ndarray
    boundary_mass: np.ndarray
    source: str
    margin: float
    boundary_dofs: np.ndarray
    order: int | None = None


@dataclass(frozen=True)
class IdentityReport:
    kind: str
    lam: float
    neg_count: int
    lhs_counting: int
    rhs_counting: int
    identity_holds: bool
    margin: float
    nudged: bool = False


def relative_margin(lam: float, values: np.ndarray) -> float:
    """min |lam - v| / max(1, |lam|) over the excluded values."""
    if len(values) == 0:
        return np.inf
    return float(np.min(np.abs(values - lam)) / max(1.0, abs(lam)))


def _excluded_values(mesh: Mesh, kind: str, order: int | None) -> np.ndarray:
    if kind == "friedlander" or kind == "dtn":
        return np.concatenate(
            [
                pencil_eigenvalues(mesh, "dirichlet", order),
                pencil_eigenvalues(mesh, "neumann", order),
            ]
        )
    if kind == "liu" or kind == "ntl":
        return np.concatenate(
            [
                pencil_eigenvalues(mesh, "buckling"),
                pencil_eigenvalues(mesh, "navier"),
            ]
        )
    raise ValueError(f"unknown identity kind {kind!r}")


def _nearest(lam: float, excluded: np.ndarray) -> float:
    """The excluded value closest to ``lam``."""
    return float(excluded[np.argmin(np.abs(excluded - lam))])


def _check_margin(lam: float, excluded: np.ndarray, delta: float) -> float:
    margin = relative_margin(lam, excluded)
    if margin < delta:
        raise ExcludedSpectrumError(lam, _nearest(lam, excluded), margin, delta)
    return margin


def dtn_operator(
    mesh: Mesh, order: int, lam: float, delta: float = DEFAULT_MARGIN
) -> TraceOperator:
    """Dirichlet-to-Neumann operator at ``lam`` on the boundary-value DOFs.

    Its quadratic form on a boundary trace equals the gradient-minus-
    lambda-mass energy of the discrete Helmholtz extension of that
    trace; the boundary mass metric is the boundary L2 matrix. The
    operator exists whenever ``lam`` clears the interior (Dirichlet)
    spectrum; counting against the full pencil is the identity module's
    concern.
    """
    excluded = pencil_eigenvalues(mesh, "dirichlet", order)
    margin = _check_margin(lam, excluded, delta)
    pair = get_pair(mesh, "lagrange", order)
    bdofs, idofs = classify_dofs(pair.dofmap, "dirichlet-value")
    q = pair.k_grad - lam * pair.mass
    try:
        s = schur_complement(q, idofs, bdofs)
    except SingularBlockError:
        raise ExcludedSpectrumError(lam, _nearest(lam, excluded), margin, delta) from None
    if not np.array_equal(bdofs, pair.b_trace_dofs):
        raise AssertionError("boundary DOF ordering mismatch")
    return TraceOperator(
        "dtn", lam, s, pair.b_trace.copy(), mesh.content_hash(), margin, bdofs, order
    )


def ntl_blocks(pair: OperatorPair, lam: float):
    """``(q, free, interior, boundary)``: ``q = F - lam * K_grad`` on the
    Navier-free DOFs ``free``, and the positions in ``free`` of the DOFs
    the Neumann-to-Laplacian Schur complement eliminates and keeps."""
    _, free = classify_dofs(pair.dofmap, "navier")
    boundary = np.searchsorted(free, pair.dofmap.boundary_normal_dofs())
    interior = np.setdiff1d(np.arange(len(free)), boundary)
    q = (pair.fourth_order_matrix() - lam * pair.k_grad)[np.ix_(free, free)]
    return q, free, interior, boundary


def ntl_operator(mesh: Mesh, lam: float, delta: float = DEFAULT_MARGIN) -> TraceOperator:
    """Neumann-to-Laplacian operator at ``lam`` on the boundary
    normal-derivative DOFs, boundary values pinned to zero.

    The interior block eliminated is exactly the clamped fourth-order
    pencil block, so the operator exists iff ``lam`` avoids the discrete
    buckling spectrum. The mass metric is the boundary normal-derivative
    mass (the denominator of the trace Rayleigh quotient).
    """
    excluded = pencil_eigenvalues(mesh, "buckling")
    margin = _check_margin(lam, excluded, delta)
    pair = get_pair(mesh, "morley")
    q, free, interior, boundary = ntl_blocks(pair, lam)
    try:
        s = schur_complement(q, interior, boundary)
    except SingularBlockError:
        raise ExcludedSpectrumError(lam, _nearest(lam, excluded), margin, delta) from None
    bnd = free[boundary]
    boundary_mass = np.diag(pair.b_normal_diag[bnd])
    return TraceOperator(
        "ntl", lam, s, boundary_mass, mesh.content_hash(), margin, bnd, None
    )


def trace_spectrum(t: TraceOperator, k: int | None = None) -> tuple[Spectrum, float, int]:
    """Eigenvalues of (matrix, boundary_mass), the smallest one, and the
    negative count from coordinate inertia (the mass is positive
    definite, so the counts agree)."""
    n = len(t.matrix)
    if k is None:
        k = n
    w, _ = sym_gen_eigs(t.matrix, t.boundary_mass, k)
    neg = inertia(t.matrix).n_neg
    return Spectrum(t.kind, w, t.source), float(w[0]), neg


def verify_identity(
    mesh: Mesh,
    kind: str,
    lam: float,
    order: int = 2,
    delta: float = DEFAULT_MARGIN,
    nudged: bool = False,
) -> IdentityReport:
    """Check one counting identity at one parameter value.

    friedlander : neg(DtN(lam)) = N_neumann(lam) - N_dirichlet(lam)
    liu         : neg(NtL(lam)) = N_navier(lam) - N_buckling(lam)

    All counts come from pencils on the same mesh and matrices, so the
    identity is an exact integer statement. Counting needs ``lam`` to
    clear both pencils' spectra, not just the interior block.
    """
    excluded = _excluded_values(mesh, kind, order)
    margin = _check_margin(lam, excluded, delta)
    if kind == "friedlander":
        t = dtn_operator(mesh, order, lam, delta)
        lhs = int(np.sum(pencil_eigenvalues(mesh, "neumann", order) < lam))
        rhs = int(np.sum(pencil_eigenvalues(mesh, "dirichlet", order) < lam))
    else:  # liu; _excluded_values already validated the kind
        t = ntl_operator(mesh, lam, delta)
        lhs = int(np.sum(pencil_eigenvalues(mesh, "navier") < lam))
        rhs = int(np.sum(pencil_eigenvalues(mesh, "buckling") < lam))
    neg = inertia(t.matrix).n_neg
    return IdentityReport(
        kind, lam, neg, lhs, rhs, neg == lhs - rhs, margin, nudged
    )


def _nudge(lam: float, excluded: np.ndarray, delta: float) -> tuple[float, bool]:
    """Shift ``lam`` by steps of delta (relative) until clear of the
    excluded values; gives up beyond NUDGE_STEPS steps."""
    if relative_margin(lam, excluded) >= delta:
        return lam, False
    scale = max(1.0, abs(lam))
    for j in range(1, NUDGE_STEPS + 1):
        for sign in (1.0, -1.0):
            cand = lam + sign * j * delta * scale
            if relative_margin(cand, excluded) >= delta:
                return cand, True
    raise ExcludedSpectrumError(
        lam, _nearest(lam, excluded), relative_margin(lam, excluded), delta
    )


def scan_identities(
    mesh: Mesh,
    kind: str,
    lam_grid,
    order: int = 2,
    delta: float = DEFAULT_MARGIN,
    threads: int = 1,
) -> SweepResult:
    """One IdentityReport per grid point, with automatic nudging away
    from the excluded spectra; unplaceable points are skipped and
    recorded. Summary flag ``all_hold`` covers the non-skipped points."""
    excluded = _excluded_values(mesh, kind, order)

    def one(lam: float):
        lam_used, nudged = _nudge(lam, excluded, delta)
        rep = verify_identity(mesh, kind, lam_used, order, delta, nudged)
        return {
            "lambda": rep.lam,
            "neg_count": rep.neg_count,
            "lhs": rep.lhs_counting,
            "rhs": rep.rhs_counting,
            "holds": rep.identity_holds,
            "margin": rep.margin,
            "nudged": rep.nudged,
        }

    result = run_sweep("lambda", lam_grid, one, threads, ExcludedSpectrumError)
    result.summary["all_hold"] = all(r["holds"] for r in result.records)
    return result


def scan_beta1(
    mesh: Mesh,
    lam_grid,
    delta: float = DEFAULT_MARGIN,
    threads: int = 1,
) -> SweepResult:
    """Smallest trace eigenvalue of the Neumann-to-Laplacian operator
    over a parameter grid, with the same nudging discipline."""
    excluded = _excluded_values(mesh, "ntl", None)

    def one(lam: float):
        lam_used, nudged = _nudge(lam, excluded, delta)
        t = ntl_operator(mesh, lam_used, delta)
        _, beta1, neg = trace_spectrum(t, 1)
        return {
            "lambda": lam_used,
            "beta1": beta1,
            "neg_count": neg,
            "margin": t.margin,
            "nudged": nudged,
        }

    result = run_sweep("lambda", lam_grid, one, threads, ExcludedSpectrumError)
    result.summary["n_negative"] = sum(1 for r in result.records if r["beta1"] < 0)
    return result
