"""Boundary trace operators and the exact counting identities.

Each identity pairs an outer and an inner pencil on one assembled pair:
Friedlander's is Neumann (K_grad - lambda*M) over Dirichlet, Liu's is
Navier (F - lambda*K_grad) over buckling. Its trace operator, the
Dirichlet-to-Neumann or the Neumann-to-Laplacian operator, is the Schur
complement of the outer pencil's sparse shifted form Q onto the DOFs the
inner pencil constrains. Each identity's outer pencil is built once per
mesh into a cached :class:`TracePencil`, a
:class:`~bucklab.eigen.BoundaryLastPencil` on the outer free DOFs: the
interior DOFs, those the inner pencil leaves free, in their fill
order, then the boundary DOFs. At each lambda
:func:`bucklab.eigen.schur_complement` factors that pencil's shifted
form once (a checked sparse LDL^T) and returns the boundary block of the
factor as a dense matrix, with neg(S) and neg(Q_ii) from its pivots.
Nothing here keeps a factor past its point; :mod:`bucklab.counterexample`
lifts its fields from the same kind of factor.

Because Schur elimination and inertia obey Haynsworth additivity
exactly, neg(trace operator) = N_outer(lambda) - N_inner(lambda), a
difference of counting functions of pencils assembled from the same
matrices; ``verify_identity`` checks that integer identity point by
point, and neg(Q_ii) = N_inner(lambda) with it, and ``scan_identities``
sweeps it over a parameter grid. The counts N and the margins from the
excluded spectra are read off certified spectrum prefixes
(:func:`bucklab.spectra.pencil_eigenvalues`) past lambda, which lambda
must clear by the relative margin ``MARGIN``. A scan computes them once,
past the largest lambda a point may use, and then calls the public
functions at each point, whose prefixes the cache serves. No step forms
an n x n matrix, and a scan point whose factor fails a check is skipped
with the check it failed, as points too close to an excluded eigenvalue
are.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .eigen import (
    BoundaryLastPencil,
    boundary_last_pencil,
    retain_factor_workspace,
    schur_complement,
    sym_gen_eigs,
)
from .errors import BucklabError, ExcludedSpectrumError, FactorCheckError
from .mesh import Mesh
from .runio import SweepResult, run_sweep
from .spectra import (
    Spectrum,
    free_dofs,
    lru_get,
    lru_put,
    pencil_eigenvalues,
    pencil_forms,
    pencil_pair,
)

#: the relative distance every lambda keeps from the excluded eigenvalues
MARGIN = 1e-3
NUDGE_STEPS = 10
# scan points that raise these are recorded as skips: too close to an
# excluded eigenvalue, or a factor that failed a check (the reason names it)
_SKIPPED = (ExcludedSpectrumError, FactorCheckError)

# identity -> (trace operator, outer pencil, inner pencil)
_IDENTITIES = {
    "friedlander": ("dtn", "neumann", "dirichlet"),
    "liu": ("ntl", "navier", "buckling"),
}


@dataclass(frozen=True)
class TraceOperator:
    """Symmetric operator on boundary DOFs with its mass metric.

    ``matrix`` and ``boundary_mass`` are dense: both are boundary-sized
    (the Schur complement of the sparse shifted form and the boundary
    mass). ``n_neg`` is neg(matrix) and ``n_neg_interior`` neg(Q_ii) of
    the eliminated block, both read off the factor that produced the
    matrix."""

    kind: str  # "dtn" | "ntl"
    lam: float
    matrix: np.ndarray
    boundary_mass: np.ndarray
    source: str
    margin: float
    boundary_dofs: np.ndarray
    n_neg: int
    n_neg_interior: int


@dataclass(frozen=True)
class IdentityReport:
    kind: str
    lam: float
    neg_count: int
    lhs_counting: int
    rhs_counting: int
    identity_holds: bool
    margin: float


def relative_margin(lam: float, values: np.ndarray) -> float:
    """min |lam - v| / max(1, |lam|) over the excluded values."""
    if len(values) == 0:
        return np.inf
    return float(np.min(np.abs(values - lam)) / max(1.0, abs(lam)))


def _identity(kind: str) -> tuple[str, str, str]:
    try:
        return _IDENTITIES[kind]
    except KeyError:
        raise ValueError(f"unknown identity kind {kind!r}") from None


def _reach(lam: float, steps: float) -> float:
    """``lam`` moved up by ``steps`` nudges of ``MARGIN`` (relative)."""
    return lam + steps * MARGIN * max(1.0, abs(lam))


def _excluded_values(
    mesh: Mesh, kind: str, order: int | None, upto: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(outer, inner, excluded)``: the outer and the inner pencil's
    spectrum prefixes of identity ``kind`` past ``upto``, and the two
    together, the values every point up to ``upto`` must clear."""
    _, outer, inner = _identity(kind)
    outer_vals = pencil_eigenvalues(mesh, outer, order, upto=upto)
    inner_vals = pencil_eigenvalues(mesh, inner, order, upto=upto)
    return outer_vals, inner_vals, np.concatenate([inner_vals, outer_vals])


def _scan_values(mesh: Mesh, kind: str, order: int | None, grid) -> np.ndarray:
    """The excluded values of :func:`_excluded_values` past every lambda
    a scan of ``grid`` may try (one step beyond the last nudge of each
    grid point), so that the cache serves every point's prefixes."""
    upto = max((_reach(lam, NUDGE_STEPS + 1) for lam in grid), default=0.0)
    return _excluded_values(mesh, kind, order, upto)[2]


def _nearest(lam: float, excluded: np.ndarray) -> float:
    """The excluded value closest to ``lam``."""
    return float(excluded[np.argmin(np.abs(excluded - lam))])


def _cleared(lam: float, excluded: np.ndarray) -> float:
    """The relative margin of ``lam`` from ``excluded``; below ``MARGIN``
    :class:`ExcludedSpectrumError` is raised."""
    margin = relative_margin(lam, excluded)
    if margin < MARGIN:
        raise ExcludedSpectrumError(lam, _nearest(lam, excluded), margin, MARGIN)
    return margin


@dataclass(frozen=True)
class TracePencil:
    """The outer pencil of one identity on one mesh, ready for every lam:
    A and B on its free DOFs stored once as a
    :class:`~bucklab.eigen.BoundaryLastPencil` (the interior DOFs, those
    the inner pencil leaves free, in the fill order of the pencil's
    pattern on them, then the boundary DOFs), with the boundary mass
    (read-only)."""

    form: BoundaryLastPencil
    boundary_mass: np.ndarray

    @property
    def boundary_dofs(self) -> np.ndarray:
        """The DOFs of the boundary rows, the tail of ``form.rows``."""
        return self.form.rows[self.form.n_interior:]


# the trace pencils of the last few (mesh, identity, pair kind), least
# recently used first
_PENCIL_CACHE: dict[tuple, TracePencil] = {}


def trace_pencil(mesh: Mesh, kind: str, order: int | None = 2) -> TracePencil:
    """The memoized :class:`TracePencil` of identity ``kind``, one per mesh
    content hash, identity and pair kind (``order`` applies to Lagrange
    pairs only, so Liu's pencil is shared by every order); the
    :data:`~bucklab.spectra.CACHE_SIZE` most recently used ones are kept."""
    _, outer, inner = _identity(kind)
    pair = pencil_pair(mesh, outer, order)
    key = (mesh.content_hash(), kind, pair.dofmap.kind)
    pencil = lru_get(_PENCIL_CACHE, key, "trace_pencils")
    if pencil is not None:
        return pencil
    interior = free_dofs(pair, inner)
    boundary = np.setdiff1d(free_dofs(pair, outer), interior, assume_unique=True)
    form = boundary_last_pencil(*pencil_forms(pair, outer), interior, boundary)
    bnd = form.rows[form.n_interior:]
    if pair.b_trace is None:  # Morley pair
        boundary_mass = np.diag(pair.b_normal_diag[bnd])
    else:
        if not np.array_equal(bnd, pair.b_trace_dofs):
            raise AssertionError("boundary DOF ordering mismatch")
        boundary_mass = pair.b_trace.view()
    boundary_mass.setflags(write=False)
    pencil = TracePencil(form, boundary_mass)
    return lru_put(_PENCIL_CACHE, key, pencil)


def trace_operator(mesh: Mesh, kind: str, lam: float, order: int = 2) -> TraceOperator:
    """Trace operator of identity ``kind`` at ``lam``, with its boundary
    mass: Dirichlet-to-Neumann with the boundary L2 mass (friedlander),
    Neumann-to-Laplacian with the boundary normal-derivative mass, the
    denominator of the trace Rayleigh quotient (liu).

    The eliminated block is the inner pencil, so the operator exists iff
    ``lam`` clears the inner spectrum by the relative margin ``MARGIN``;
    ``margin`` is its distance from that spectrum. A point whose factor
    fails a check raises :class:`FactorCheckError` naming lam and the check.
    """
    name, _, inner = _identity(kind)
    margin = _cleared(lam, pencil_eigenvalues(mesh, inner, order, upto=lam))
    pencil = trace_pencil(mesh, kind, order)
    try:
        schur = schur_complement(pencil.form.at(lam))
    except FactorCheckError as exc:
        raise FactorCheckError(f"lambda={lam:.12g}: {exc}") from None
    return TraceOperator(name, lam, schur.matrix, pencil.boundary_mass, mesh.content_hash(),
                         margin, pencil.boundary_dofs, schur.n_neg, schur.n_neg_interior)


def trace_spectrum(t: TraceOperator, k: int | None = None) -> tuple[Spectrum, float, int]:
    """Eigenvalues of (matrix, boundary_mass), the smallest one, and the
    negative count of the matrix from its factor (the mass is positive
    definite, so the counts agree)."""
    n = len(t.matrix)
    if k is None:
        k = n
    w, _ = sym_gen_eigs(t.matrix, t.boundary_mass, k)
    return Spectrum(t.kind, w, t.source), float(w[0]), t.n_neg


def verify_identity(mesh: Mesh, kind: str, lam: float, order: int = 2) -> IdentityReport:
    """Check one counting identity at one parameter value.

    friedlander : neg(DtN(lam)) = N_neumann(lam) - N_dirichlet(lam)
    liu         : neg(NtL(lam)) = N_navier(lam) - N_buckling(lam)

    All counts come from pencils on the same mesh and matrices, so the
    identity is an exact integer statement. Counting needs ``lam`` to
    clear both pencils' spectra, not just the interior block. The
    eliminated block is the inner pencil's shifted form: when its count
    neg(Q_ii) differs from N_inner(lam), :class:`BucklabError` is raised.
    The report's ``margin`` is the distance from both spectra.
    """
    outer, inner, excluded = _excluded_values(mesh, kind, order, lam)
    margin = _cleared(lam, excluded)
    t = trace_operator(mesh, kind, lam, order)
    lhs = int(np.sum(outer < lam))
    rhs = int(np.sum(inner < lam))
    if t.n_neg_interior != rhs:
        raise BucklabError(f"lambda={lam:.12g}: neg(Q_ii)={t.n_neg_interior} from the Schur "
                           f"factor, rhs={rhs} from the inner spectrum prefix")
    return IdentityReport(kind, lam, t.n_neg, lhs, rhs, t.n_neg == lhs - rhs, margin)


def _nudge(lam: float, excluded: np.ndarray) -> tuple[float, bool]:
    """``(lam_used, nudged)``: ``lam`` shifted by steps of ``MARGIN``
    (relative) until clear of the excluded values, and whether it moved;
    gives up beyond NUDGE_STEPS steps."""
    for step in [0.0] + [sign * j for j in range(1, NUDGE_STEPS + 1) for sign in (1.0, -1.0)]:
        cand = _reach(lam, step)
        if relative_margin(cand, excluded) >= MARGIN:
            return cand, step != 0.0
    margin = relative_margin(lam, excluded)
    raise ExcludedSpectrumError(lam, _nearest(lam, excluded), margin, MARGIN)


def scan_identities(
    mesh: Mesh,
    kind: str,
    lam_grid,
    order: int = 2,
    threads: int = 1,
) -> SweepResult:
    """One :func:`verify_identity` report per grid point, with automatic
    nudging away from the excluded spectra; unplaceable points are
    skipped and recorded, as are points whose factor fails a check.
    Summary flag ``all_hold`` covers the non-skipped points, and is None
    when there are none."""
    retain_factor_workspace()
    excluded = _scan_values(mesh, kind, order, lam_grid)

    def one(lam: float):
        lam_used, nudged = _nudge(lam, excluded)
        rep = verify_identity(mesh, kind, lam_used, order)
        return {
            "lambda": rep.lam,
            "neg_count": rep.neg_count,
            "lhs": rep.lhs_counting,
            "rhs": rep.rhs_counting,
            "holds": rep.identity_holds,
            "margin": rep.margin,
            "nudged": nudged,
        }

    result = run_sweep("lambda", lam_grid, one, threads, _SKIPPED)
    records = result.records
    result.summary["all_hold"] = all(r["holds"] for r in records) if records else None
    return result


def scan_beta1(mesh: Mesh, lam_grid, threads: int = 1) -> SweepResult:
    """Smallest trace eigenvalue of the Neumann-to-Laplacian operator
    (:func:`trace_operator`) over a parameter grid, with the same nudging
    and skipping discipline; each margin is from the buckling spectrum
    alone."""
    retain_factor_workspace()
    excluded = _scan_values(mesh, "liu", None, lam_grid)

    def one(lam: float):
        lam_used, nudged = _nudge(lam, excluded)
        t = trace_operator(mesh, "liu", lam_used)
        _, beta1, neg = trace_spectrum(t, 1)
        return {
            "lambda": lam_used,
            "beta1": beta1,
            "neg_count": neg,
            "margin": t.margin,
            "nudged": nudged,
        }

    result = run_sweep("lambda", lam_grid, one, threads, _SKIPPED)
    result.summary["n_negative"] = sum(1 for r in result.records if r["beta1"] < 0)
    return result
