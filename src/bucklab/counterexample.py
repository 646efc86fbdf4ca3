"""Unboundedness of the trace Rayleigh quotient over the full
zero-boundary-value space.

The quotient

    [ bending(v) - lambda * gradient(v) ] / boundary-normal-mass(v)

restricted to discrete fields with zero boundary values is bounded
below exactly when the clamped fourth-order block at ``lambda`` is
positive definite, i.e. for lambda below the first buckling eigenvalue.
Beyond it, adding a small multiple of a fixed perturbation with unit
boundary normal derivative to the clamped ground state drives the
quotient to -infinity like 1/eps^2: the numerator tends to the negative
constant alpha while the denominator is exactly eps^2 times the
boundary perimeter. This module reproduces both regimes.

Both regimes hinge on the clamped ground state (u1, Lambda1) of
:func:`buckling_ground_state`, computed by certified shift-invert
Lanczos on the sparse clamped pencil, and on the perturbation of
:func:`make_perturbation`, the lift of unit normal derivatives through
the fourth-order form at lambda = 0. Both depend on the mesh alone, so
:func:`clamped_fields` solves them once per mesh per process and keeps
them for the :data:`~bucklab.spectra.CACHE_SIZE` most recently used
meshes; the caller chooses the regime from its Lambda1, and
:func:`divergence_sweep` and :func:`bounded_below_check` read the same
entry. An eigenvector has no sign of its own, so the entry signs u1 by
the perturbation (see :func:`_signed_ground`): no result depends on the
solver's sign. The bounded regime keeps lambda clear of Lambda1 alone,
which is certified smallest, and needs no other buckling eigenvalue. It
factors the cached Navier trace pencil's shifted form once: that factor
gives the Neumann-to-Laplacian operator, whose boundary-sized
generalized eigenproblem is the one dense one left here, and lifts its
minimizer to the interior. Every function here takes a Morley
:class:`~bucklab.assembly.OperatorPair`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .assembly import OperatorPair
from .eigen import lift_to_interior, schur_and_lift, sym_gen_eigs
from .errors import ConstraintViolationError
from .spectra import free_dofs, lru_get, lru_put, smallest_eigenpairs
from .traceops import MARGIN, trace_pencil

DENOMINATOR_FLOOR = 1e-14
BOUNDARY_VALUE_TOL = 1e-12


@dataclass(frozen=True)
class QuotientSample:
    """One evaluation of the trace Rayleigh quotient.

    ``eps`` is the perturbation size when the sample belongs to a
    sweep, else None. A denominator below 1e-14 is reported as a signed
    infinity marker carrying the numerator's sign, never as a float
    division.
    """

    eps: float | None
    numerator: float
    denominator: float
    quotient: float


@dataclass(frozen=True)
class DivergenceReport:
    lam: float
    lambda1_buckling: float
    alpha: float
    alpha_pencil: float
    samples: tuple[QuotientSample, ...]
    fitted_slope: float
    slope_stderr: float
    anomaly: bool = False


@dataclass(frozen=True)
class BoundedBelowReport:
    lam: float
    beta1: float
    n_trials: int
    min_quotient: float
    minimizer_quotient: float
    violations: int
    interior_residual: float
    passed: bool


def buckling_ground_state(pair: OperatorPair) -> tuple[np.ndarray, float]:
    """Clamped fourth-order ground state, normalized to unit gradient
    energy, lifted to the full DOF vector (zeros on constrained DOFs).
    Its sign is the solver's; the regimes fix their own."""
    w, v, rows = smallest_eigenpairs(pair, "buckling", 1)
    u1 = np.zeros(pair.dofmap.n_dofs)
    u1[rows] = v[:, 0]
    u1 /= math.sqrt(u1 @ pair.k_grad @ u1)
    return u1, float(w[0])


def alpha_value(u1: np.ndarray, lam: float, pair: OperatorPair) -> float:
    """Direct quadratic-form value bending(u1) - lam * gradient(u1).

    With the unit-gradient normalization of the ground state this
    equals (first buckling eigenvalue - lam) up to roundoff.
    """
    f = pair.fourth_order_matrix()
    return float(u1 @ f @ u1 - lam * (u1 @ pair.k_grad @ u1))


def alpha_pencil(lambda1: float, lam: float, u1: np.ndarray, pair: OperatorPair) -> float:
    """The one-line identity -(lam - lambda1) * gradient(u1)."""
    return float(-(lam - lambda1) * (u1 @ pair.k_grad @ u1))


def make_perturbation(pair: OperatorPair) -> np.ndarray:
    """Bending-energy minimizer with zero boundary values and unit
    boundary normal derivative DOFs; its boundary normal mass equals
    the mesh perimeter, giving the sweep a fixed positive denominator.
    It is ``-F_cc^{-1} F_cb 1``, the lift of unit normal derivatives to
    the clamped free DOFs (:func:`~bucklab.eigen.lift_to_interior`),
    whose :class:`~bucklab.errors.FactorCheckError` propagates."""
    free = free_dofs(pair, "buckling")
    normal = pair.dofmap.boundary_normal_dofs()
    h = np.zeros(pair.dofmap.n_dofs)
    h[normal] = 1.0
    h[free] = lift_to_interior(pair.fourth_order_matrix(), free, normal, h[normal])
    return h


def _signed_ground(u1: np.ndarray, h: np.ndarray, pair: OperatorPair) -> np.ndarray:
    """``u1`` or ``-u1``, whichever has a positive gradient form
    K(u1, h) with the perturbation ``h``. F(u1, h) is zero (h minimizes
    the bending energy for its boundary data, u1 vanishes there), so the
    cross term of the numerator at u1 + eps * h is -2 eps lam K(u1, h),
    and its sign follows u1's."""
    return u1 if u1 @ (pair.k_grad @ h) > 0 else -u1


@dataclass(frozen=True)
class ClampedFields:
    """The inputs both regimes take from the mesh alone: the clamped
    ground state ``u1`` signed by :func:`_signed_ground`, its eigenvalue
    ``lambda1`` and the perturbation ``h``. The arrays are read-only,
    since every caller of :func:`clamped_fields` shares them."""

    u1: np.ndarray
    lambda1: float
    h: np.ndarray


# the clamped fields of the last few (mesh, pair kind), least recently
# used first
_FIELDS_CACHE: dict[tuple, ClampedFields] = {}


def clamped_fields(pair: OperatorPair) -> ClampedFields:
    """The memoized :class:`ClampedFields` of ``pair``'s mesh, one per mesh
    content hash and pair kind; the :data:`~bucklab.spectra.CACHE_SIZE`
    most recently used ones are kept. A miss solves
    :func:`buckling_ground_state` and :func:`make_perturbation` once each."""
    key = (pair.mesh.content_hash(), pair.dofmap.kind)
    fields = lru_get(_FIELDS_CACHE, key, "clamped_fields")
    if fields is not None:
        return fields
    u1, lambda1 = buckling_ground_state(pair)
    h = make_perturbation(pair)
    u1 = _signed_ground(u1, h, pair)
    u1.setflags(write=False)
    h.setflags(write=False)
    return lru_put(_FIELDS_CACHE, key, ClampedFields(u1, lambda1, h))


def rayleigh_quotient(v: np.ndarray, lam: float, pair: OperatorPair,
                      eps: float | None = None) -> QuotientSample:
    """Evaluate the quotient at a field with zero boundary values."""
    bval = pair.dofmap.boundary_value_dofs()
    if len(bval) and np.max(np.abs(v[bval])) > BOUNDARY_VALUE_TOL:
        raise ConstraintViolationError(
            "trial field has nonzero boundary values"
        )
    f = pair.fourth_order_matrix()
    num = float(v @ (f @ v) - lam * (v @ (pair.k_grad @ v)))
    den = float((pair.b_normal_diag * v) @ v)
    if den <= DENOMINATOR_FLOOR:
        if num == 0.0:
            quot = 0.0
        else:
            quot = math.inf if num > 0 else -math.inf
    else:
        quot = num / den
    return QuotientSample(eps, num, den, quot)


def divergence_sweep(pair: OperatorPair, lam: float, eps_list) -> DivergenceReport:
    """Quotient samples along v = u1 + eps * perturbation for decreasing
    eps, with the log-log slope fit over the negative samples (expected
    slope -2); u1 and the perturbation are :func:`clamped_fields`'."""
    eps_arr = [float(e) for e in eps_list]
    if not eps_arr or any(e <= 0 for e in eps_arr):
        raise ValueError("eps_list must be nonempty and positive")
    if any(a <= b for a, b in zip(eps_arr, eps_arr[1:])):
        raise ValueError("eps_list must be strictly decreasing")
    fields = clamped_fields(pair)
    u1, lambda1, h = fields.u1, fields.lambda1, fields.h
    margin = MARGIN * max(1.0, abs(lambda1))
    if lam <= lambda1 + margin:
        raise ValueError(
            f"lambda={lam} must exceed the first buckling eigenvalue "
            f"{lambda1:.6g} by the margin {margin:.2g}"
        )
    samples = tuple(
        rayleigh_quotient(u1 + e * h, lam, pair, eps=e) for e in eps_arr
    )
    alpha = alpha_value(u1, lam, pair)
    neg = [
        s for s in samples if s.quotient < 0 and math.isfinite(s.quotient)
    ]
    if len(neg) >= 2:
        x = np.log([s.eps for s in neg])
        y = np.log([abs(s.quotient) for s in neg])
        slope, intercept = np.polyfit(x, y, 1)
        resid = y - (slope * x + intercept)
        dof = max(len(neg) - 2, 1)
        denom = float(np.sum((x - x.mean()) ** 2))
        stderr = math.sqrt(float(np.sum(resid**2)) / dof / denom)
    else:
        slope, stderr = math.nan, math.nan
    anomaly = any(s.quotient >= 0 for s in samples)
    return DivergenceReport(
        lam=lam,
        lambda1_buckling=lambda1,
        alpha=alpha,
        alpha_pencil=alpha_pencil(lambda1, lam, u1, pair),
        samples=samples,
        fitted_slope=float(slope),
        slope_stderr=float(stderr),
        anomaly=anomaly,
    )


def _trace_minimizer(pair: OperatorPair, lam: float) -> tuple[float, np.ndarray, float]:
    """``(beta1, v, residual)``: the smallest eigenvalue of the
    Neumann-to-Laplacian operator at ``lam`` and its eigenvector lifted
    to the Navier free DOFs, a unit vector on the full DOF vector,
    with the norm of its interior equations Q_ii v_i + Q_ib v_b, all
    from one factorization of the cached trace pencil's shifted form Q.
    The factor is freed on return."""
    pencil = trace_pencil(pair.mesh, "liu", None)
    q = pencil.form.at(lam)
    schur, lift = schur_and_lift(q)
    w, vecs = sym_gen_eigs(schur.matrix, pencil.boundary_mass, 1)
    psi = vecs[:, 0]
    v = np.concatenate([lift(psi), psi])  # in the pencil's row order
    v /= np.linalg.norm(v)
    residual = float(np.linalg.norm((q.csc() @ v)[:q.n_interior]))
    v_full = np.zeros(pair.dofmap.n_dofs)
    v_full[pencil.form.rows] = v
    return float(w[0]), v_full, residual


def bounded_below_check(
    pair: OperatorPair, lam: float, trials: int, seed: int = 0
) -> BoundedBelowReport:
    """Below the first buckling eigenvalue the infimum of the quotient
    over zero-boundary-value fields is the smallest trace eigenvalue.

    Evaluates the quotient at random trial fields plus the perturbation
    family and asserts none undercuts beta1; also lifts the minimizing
    trace direction to the full space and reports its interior equation
    residual (the discrete form of the attained infimum belonging to
    the solution space). u1, Lambda1 and the perturbation are
    :func:`clamped_fields`'.
    """
    fields = clamped_fields(pair)
    u1, lambda1, h = fields.u1, fields.lambda1, fields.h
    margin = MARGIN * max(1.0, abs(lambda1))
    if lam >= lambda1 - margin:
        raise ValueError(
            f"lambda={lam} must stay below the first buckling eigenvalue "
            f"{lambda1:.6g} by the margin {margin:.2g}"
        )
    # lam is below Lambda1, the smallest buckling eigenvalue, by the
    # margin, so the clamped block Q_ii is positive definite
    beta1, v_min, residual = _trace_minimizer(pair, lam)

    rng = np.random.default_rng(seed)
    navier_free = free_dofs(pair, "navier")
    quotients: list[float] = []
    for _ in range(trials):
        v = np.zeros(pair.dofmap.n_dofs)
        v[navier_free] = rng.standard_normal(len(navier_free))
        quotients.append(rayleigh_quotient(v, lam, pair).quotient)
    for e in (1e-1, 1e-2, 1e-3, 1e-4):
        quotients.append(rayleigh_quotient(u1 + e * h, lam, pair, eps=e).quotient)

    floor = beta1 - 1e-8 * abs(beta1)
    finite = [q for q in quotients if math.isfinite(q)]
    violations = sum(1 for q in finite if q < floor)
    min_q = min(finite) if finite else math.inf

    minimizer_q = rayleigh_quotient(v_min, lam, pair).quotient

    return BoundedBelowReport(
        lam=lam,
        beta1=beta1,
        n_trials=trials,
        min_quotient=float(min_q),
        minimizer_quotient=float(minimizer_q),
        violations=violations,
        interior_residual=residual,
        passed=violations == 0,
    )
