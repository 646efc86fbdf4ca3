"""Spectral experiments on the unit sphere with a polar cap removed.

Separation in the azimuthal angle reduces every problem to 1D forms on
the colatitude interval [eps, pi] with the sin(theta) area weight:

    K_m(u,v) = int (u'v' + m^2 uv / sin^2) sin dtheta
    M_m(u,v) = int uv sin dtheta
    A_m(u,v) = int (L_m u)(L_m v) sin dtheta,
    L_m u    = u'' + cot(theta) u' - m^2 u / sin^2(theta)

Second-order problems use quadratic Lagrange elements, the fourth-order
problem C1 cubic Hermite elements. One stacked path assembles both, for
all elements at once: one mapped Gauss rule and each family's basis table
at every quadrature point, built once per grid and family for all modes,
then per mode one sum over the quadrature axis per local form and
``assembly.scatter_dense`` into dense matrices (small, and dense for the
eigensolver). Boundary conditions act at theta=eps only. At the pole
the DOFs follow the regularity of smooth functions on the sphere:
values vanish unless m=0 and colatitude derivatives vanish unless m=1.
(Leaving these DOFs unconstrained admits fields whose true bending
energy is infinite but quadrature-finite, which wrecks convergence of
the fourth-order eigenvalues.)

Every eigensolve goes through :meth:`CapOperators.smallest`, the one
call of the dense eigensolver here, on an inverted pencil. The merge of
the second-order spectra over modes 0..modes stops before mode m >= 2 once,
for every boundary condition asked for, the k-th merged value so far is
at most the smallest value of mode m - 1. That is exact (Courant-Fischer):
for m >= 1 the free DOFs are the same, M_m does not depend on m and
K_m' - K_m = (m'^2 - m^2) W with W = int uv / sin positive semidefinite,
so no later mode has a value below that of mode m - 1. A k = 2 merge
thus solves modes 0 and 1 only. The fourth-order pencil (A_m, K_m) has
no such ordering in m, so the buckling value looks at every mode but
solves few: mode 0 sets Lambda, and a later mode is solved, and may
lower Lambda, only when A_m - Lambda K_m on its clamped free DOFs fails
a Cholesky factorization. By Sylvester's law of inertia a factorization
that succeeds shows that the mode has no value at or below Lambda.
(A Bunch-Kaufman count with a zero tolerance relative to max|A|
cannot decide this on these graded forms: their diagonal spans about
11 orders of magnitude.)

A scan point builds one grid per resolution, ``nodes`` and ``2 * nodes``
intervals, and computes all four quantities (lambda1, lambda2, mu2,
Lambda1) on it; a change of more than ``CAUCHY_TOL`` relative in any of
them under this node doubling sets the point's ``resolution_warning``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .assembly import scatter_dense
from .eigen import _require_symmetric
from .errors import BucklabError, SpectrumRangeError
from .mesh import RadialGrid, make_radial_grid
from .quadrature import gauss_on_interval
from .runio import SweepResult, run_sweep, tally
from .spectra import Spectrum

GAUSS_POINTS = 6
DEFAULT_MODES = 4
DEFAULT_NODES = 64
CAUCHY_TOL = 0.01
SHIFT = -1.0  # of every inverted pencil: below every cap spectrum (all are >= 0)


@dataclass(frozen=True)
class CapOperators:
    """Assembled 1D forms for one azimuthal mode.

    DOF 2i is the value at grid node i. DOF 2i+1 is the value at the
    midpoint of interval i for order "second" (quadratic Lagrange) and
    the colatitude derivative at node i for "fourth" (cubic Hermite).
    ``a_m`` is None for second-order operators.
    """

    m: int
    order: str
    k_m: np.ndarray
    m_m: np.ndarray
    a_m: np.ndarray | None

    @property
    def n_dofs(self) -> int:
        return len(self.k_m)

    def pole_value_dof(self) -> int:
        return self.n_dofs - (1 if self.order == "second" else 2)

    def pole_derivative_dof(self) -> int:
        if self.order != "fourth":
            raise ValueError("derivative DOFs exist only for fourth-order operators")
        return self.n_dofs - 1

    def free_dofs(self, bc: str) -> np.ndarray:
        """Free DOFs after the cap-edge condition and pole regularity.

        bc is one of dirichlet | neumann | clamped (clamped needs the
        fourth-order operators).
        """
        # the cap-edge value is DOF 0, its colatitude derivative DOF 1
        if bc == "dirichlet":
            drop = [0]
        elif bc == "clamped":
            if self.order != "fourth":
                raise ValueError("clamped needs the fourth-order operators")
            drop = [0, 1]
        elif bc == "neumann":
            drop = []
        else:
            raise ValueError(f"unknown boundary condition {bc!r}")
        if self.m != 0:
            drop.append(self.pole_value_dof())
        if self.order == "fourth" and self.m != 1:
            drop.append(self.pole_derivative_dof())
        return np.setdiff1d(np.arange(self.n_dofs), drop)

    def smallest(self, bc: str, k: int) -> np.ndarray:
        """The k smallest eigenvalues (fewer when there are fewer free DOFs)
        of (A, B) = (A_m, K_m) for ``bc="clamped"``, (K_m, M_m) otherwise,
        on ``free_dofs(bc)``: ``SHIFT + 1 / theta`` for the k largest theta
        of (B, A - SHIFT B), dense shift-invert (Ericsson & Ruhe 1980). A
        solve of (A, B) would reduce through a Cholesky factor of the graded
        B, which measures every value's error against the largest one."""
        free = self.free_dofs(bc)
        a, b = (self.a_m, self.k_m) if bc == "clamped" else (self.k_m, self.m_m)
        a, b = _require_symmetric(_restrict(a, free), "A"), _require_symmetric(_restrict(b, free), "B")
        try:  # .T: the same symmetric matrix, in the column order LAPACK takes uncopied
            theta = sla.eigh(b, (a - SHIFT * b).T, overwrite_b=True, eigvals_only=True,
                             subset_by_index=[max(len(b) - k, 0), len(b) - 1])
        except sla.LinAlgError as exc:
            raise BucklabError(f"A - SHIFT B is not positive definite: {exc}") from exc
        return SHIFT + 1.0 / theta[::-1]


def _restrict(a: np.ndarray, free: np.ndarray) -> np.ndarray:
    """``a`` on the rows and columns ``free``: a view when they are a
    contiguous range, as every set of free DOFs but the clamped one of
    mode 1 is (LAPACK copies its input into column order anyway), else a
    copy."""
    lo, hi = free[0], free[-1] + 1
    if hi - lo == len(free):
        return a[lo:hi, lo:hi]
    return a[np.ix_(free, free)]


def _lagrange_basis(a, b, xq: np.ndarray):
    """Quadratic Lagrange values and first derivatives (left end, midpoint,
    right end) at ``xq`` on [a, b], on a new first axis."""
    h = b - a
    xi = (2 * xq - (a + b)) / h
    val = np.stack([0.5 * xi * (xi - 1), 1 - xi**2, 0.5 * xi * (xi + 1)])
    d1 = np.stack([(2 * xi - 1) / h, -4 * xi / h, (2 * xi + 1) / h])
    return val, d1


def _hermite_basis(a, b, xq: np.ndarray):
    """Cubic Hermite values, first and second derivatives (value, slope at
    a, then at b) at ``xq`` on [a, b], on a new first axis."""
    h = b - a
    t = (xq - a) / h
    val = np.stack(
        [
            1 - 3 * t**2 + 2 * t**3,
            h * (t - 2 * t**2 + t**3),
            3 * t**2 - 2 * t**3,
            h * (-(t**2) + t**3),
        ]
    )
    d1 = np.stack(
        [
            (-6 * t + 6 * t**2) / h,
            1 - 4 * t + 3 * t**2,
            (6 * t - 6 * t**2) / h,
            -2 * t + 3 * t**2,
        ]
    )
    d2 = np.stack(
        [
            (-6 + 12 * t) / h**2,
            (-4 + 6 * t) / h,
            (6 - 12 * t) / h**2,
            (-2 + 6 * t) / h,
        ]
    )
    return val, d1, d2


@dataclass(frozen=True)
class _BasisTables:
    """One grid's mapped Gauss rule and one element family's basis
    values at every Gauss point, (local DOF, element, Gauss point), with
    the parts of the integrands that do not depend on the mode: every
    mode's forms are assembled from these by :func:`_mode_operators`."""

    order: str
    dofs: np.ndarray  # global DOF of each (element, local DOF)
    ndof: int
    wq: np.ndarray
    s: np.ndarray  # sin at the Gauss points
    wk: np.ndarray  # wq * s, the area weight
    val: np.ndarray
    dd_wk: np.ndarray  # outer(d1) * wk, the mode-free part of K_m's integrand
    vv: np.ndarray  # outer(val)
    m_m: np.ndarray  # the mass form, the same for every mode
    lap0: np.ndarray | None  # d2 + cot * d1 (fourth order): L_0 of the basis


def _outer(u: np.ndarray) -> np.ndarray:
    return u[:, None] * u[None]


def _form(dofs: np.ndarray, ndof: int, integrand: np.ndarray) -> np.ndarray:
    # the element matrices: integrand summed over its Gauss point axis
    return scatter_dense(ndof, dofs, np.moveaxis(np.sum(integrand, axis=-1), -1, 0))


def _basis_tables(grid: RadialGrid, order: str) -> _BasisTables:
    """The Gauss rule and ``order``'s basis tables on ``grid``, once for
    all modes."""
    a, b = grid.nodes[:-1, None], grid.nodes[1:, None]
    xq, wq = gauss_on_interval(a, b, GAUSS_POINTS)
    s = np.sin(xq)
    if order == "second":
        val, d1 = _lagrange_basis(a, b, xq)
        lap0 = None
    else:
        val, d1, d2 = _hermite_basis(a, b, xq)
        lap0 = d2 + (np.cos(xq) / s) * d1
    n_loc, n_el = val.shape[:2]
    # element e owns DOFs 2e .. 2e+n_loc-1 (numbering: see CapOperators)
    dofs = 2 * np.arange(n_el)[:, None] + np.arange(n_loc)
    ndof = 2 * n_el + n_loc - 2
    wk = wq * s
    vv = _outer(val)
    return _BasisTables(order, dofs, ndof, wq, s, wk, val, _outer(d1) * wk, vv,
                        _form(dofs, ndof, vv * wk), lap0)


def _mode_operators(t: _BasisTables, m: int) -> CapOperators:
    """Mode ``m``'s forms from the grid's tables; the mass form is the
    tables' own array, shared by every mode built from them."""
    wm = t.wq * (m * m) / t.s
    k = _form(t.dofs, t.ndof, t.dd_wk + t.vv * wm)
    aa = None
    if t.lap0 is not None:
        lap = t.lap0 - (m * m / t.s**2) * t.val
        aa = _form(t.dofs, t.ndof, _outer(lap) * t.wk)
    return CapOperators(m, t.order, k, t.m_m, aa)


def cap_operators(grid: RadialGrid, m: int, order: str) -> CapOperators:
    """Assemble the weighted 1D forms for azimuthal mode ``m``."""
    if m < 0:
        raise ValueError("mode must be >= 0")
    if order not in ("second", "fourth"):
        raise ValueError(f"order must be 'second' or 'fourth', got {order!r}")
    return _mode_operators(_basis_tables(grid, order), m)


def _merged_spectra(grid: RadialGrid, bcs: tuple[str, ...], modes: int, k: int) -> list[Spectrum]:
    """:func:`cap_spectrum` on ``grid`` for each boundary condition in
    ``bcs``, from one operator build per mode, up to the first mode that
    cannot enter the k smallest (see the module docstring)."""
    if modes < 2:
        raise ValueError("need modes >= 2 for a faithful merge")
    tables = _basis_tables(grid, "second")
    vals: dict[str, list[float]] = {bc: [] for bc in bcs}
    lowest: dict[str, float] = {}  # smallest value of the last mode solved
    for m in range(modes + 1):
        # For m' > m - 1 >= 1 the free DOFs and M_m are the same and
        # K_m' - K_{m-1} = (m'^2 - (m-1)^2) W, W = int uv / sin >= 0, so by
        # Courant-Fischer no value of mode m or later lies below the
        # smallest of mode m - 1: once that is no less than the k-th merged
        # value for every bc, the k smallest are settled.
        if m >= 2 and all(len(v) >= k and sorted(v)[k - 1] <= lowest[bc]
                          for bc, v in vals.items()):
            break
        ops = _mode_operators(tables, m)
        for bc in bcs:
            # each mode contributes at most k of the smallest k merged
            w = ops.smallest(bc, k)
            lowest[bc] = float(w[0])
            vals[bc].extend(float(x) for x in w for _ in range(1 if m == 0 else 2))
    count = min(len(v) for v in vals.values())
    if k > count:
        raise SpectrumRangeError(f"k={k} exceeds the merged count {count}")
    tag = f"cap:{grid.content_hash()}"
    return [Spectrum(bc, np.array(sorted(v)[:k]), tag) for bc, v in vals.items()]


def cap_spectrum(
    eps: float,
    bc: str,
    modes: int,
    k: int,
    n_nodes: int = DEFAULT_NODES,
    grading: str = "geometric",
) -> Spectrum:
    """k smallest Laplace-Beltrami eigenvalues on the punctured sphere,
    merged over azimuthal modes 0..modes with m >= 1 doubled."""
    return _merged_spectra(make_radial_grid(eps, n_nodes, grading), (bc,), modes, k)[0]


def _clamped_above(ops: CapOperators, lam: float) -> bool:
    """Whether A_m - lam K_m is positive definite on the clamped free
    DOFs, by one Cholesky factorization: if so, by Sylvester's law of
    inertia every clamped value of the mode exceeds ``lam``. Whether it
    succeeds does not depend on a diagonal scaling of the forms, up to
    rounding (Demmel, LAPACK Working Note 14, 1989), so the graded,
    unscaled forms serve as they are."""
    free = ops.free_dofs("clamped")
    # A - lam K factored in place (q.T is the same symmetric matrix in the
    # column order LAPACK factors without a copy)
    q = _restrict(ops.a_m, free) - lam * _restrict(ops.k_m, free)
    try:
        sla.cholesky(q.T, overwrite_a=True)
    except sla.LinAlgError:
        return False
    return True


def _buckling_lambda1(grid: RadialGrid, modes: int) -> float:
    """Smallest clamped fourth-order pencil eigenvalue on ``grid`` over
    the azimuthal modes 0..modes. Mode 0 is solved; a later mode only
    when :func:`_clamped_above` cannot rule it out at the smallest value
    so far, which it then may lower. The modes count as ``solved`` or
    ``ruled_out`` in the ``clamped_modes`` tallies."""
    tables = _basis_tables(grid, "fourth")
    lam = np.inf
    solved = 0
    for m in range(modes + 1):
        ops = _mode_operators(tables, m)
        if m == 0 or not _clamped_above(ops, lam):
            lam = min(lam, float(ops.smallest("clamped", 1)[0]))
            solved += 1
    tally("clamped_modes", solved=solved, ruled_out=modes + 1 - solved)
    return lam


def cap_buckling_lambda1(
    eps: float,
    modes: int = DEFAULT_MODES,
    n_nodes: int = DEFAULT_NODES,
    grading: str = "geometric",
) -> float:
    """Smallest fourth-order pencil eigenvalue over the azimuthal modes,
    clamped at the cap edge, on a grid of ``n_nodes`` intervals."""
    return _buckling_lambda1(make_radial_grid(eps, n_nodes, grading), modes)


def scan_grids(eps: float, n_nodes: int, grading: str) -> tuple[RadialGrid, RadialGrid]:
    """The two grids of a scan point at ``eps``: ``n_nodes`` intervals
    and the twice-finer one whose values the scan reports."""
    return tuple(make_radial_grid(eps, n, grading) for n in (n_nodes, 2 * n_nodes))


def _scan_point(eps: float, n_nodes: int, modes: int, grading: str) -> dict:
    """The four cap quantities on both :func:`scan_grids`; the finer
    values are reported, and ``resolution_warning`` is set when any of
    them moved by more than ``CAUCHY_TOL`` relative."""
    def quantities(grid: RadialGrid) -> dict:
        lam, mu = _merged_spectra(grid, ("dirichlet", "neumann"), modes, 2)
        return {
            "lambda1": float(lam.values[0]),
            "lambda2": float(lam.values[1]),
            "mu2": float(mu.values[1]),
            "Lambda1": _buckling_lambda1(grid, modes),
        }

    coarse, fine = (quantities(grid) for grid in scan_grids(eps, n_nodes, grading))
    warning = any(
        abs(fine[key] - coarse[key]) / max(abs(fine[key]), 1e-300) > CAUCHY_TOL
        for key in fine
    )
    return {
        "eps": eps,
        **fine,
        "friedlander_fails": fine["lambda1"] < fine["mu2"],
        "payne_fails": fine["Lambda1"] < fine["lambda2"],
        "resolution_warning": warning,
    }


def cap_scan(
    eps_list,
    n_nodes: int = DEFAULT_NODES,
    modes: int = DEFAULT_MODES,
    grading: str = "geometric",
    threads: int = 1,
) -> SweepResult:
    """Per-eps cap quantities with mesh-Cauchy enforcement under node
    doubling. A point that fails with a domain error (:class:`BucklabError`)
    is recorded as a skip and the scan continues; any other exception,
    including ValueError for an invalid argument, propagates."""
    return run_sweep(
        eps_list, lambda e: _scan_point(e, n_nodes, modes, grading), threads, BucklabError,
    )
