"""The four spectra and the one table of their pencils.

Dirichlet/Neumann use the quadratic Lagrange (P2) pencil (K_grad, M);
buckling and the simply-supported (Navier) problem use the Morley
fourth-order pencil (fourth-order form, K_grad) on the clamped and
vertex-constrained spaces, as the one table :data:`PENCILS` says. The disk oracle
produces analytic ground truth from the Bessel zeros of
``scipy.special``, independently of every finite element path.

Each solve builds its pencil from the sparse assembled forms once, as
a :class:`~bucklab.eigen.BoundaryLastPencil` with no boundary: the free
DOFs in their fill order. The k smallest eigenpairs
(:func:`smallest_eigenpairs`, vectors over the pencil's rows) come from
certified shift-invert Lanczos on its checked sparse factor. They serve
:func:`spectrum`, the clamped ground state of
:mod:`bucklab.counterexample`, and :func:`pencil_eigenvalues`, the
spectrum prefix up to a bound from which the identity scans count
eigenvalues and measure margins; its size is one inertia count of the
same pencil shifted to the bound. Assembled pairs and spectrum prefixes
are memoized per mesh content hash, which covers every mesh field
assembly reads; each memo keeps its ``CACHE_SIZE`` most recently used
entries (:func:`~bucklab.runio.lru_put`), and its hits and misses are
tallied under ``caches`` in each run's manifest.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import OperatorPair, assemble_lagrange, assemble_morley, classify_dofs
from .eigen import boundary_last_pencil, pencil_count, sparse_smallest_eigs
from .errors import MeshError, SpectrumRangeError
from .mesh import Mesh
from .runio import lru_get, lru_put

ORACLE_COUNT_CAP = 50
#: entries each result memo keeps, here and in traceops and
#: counterexample: a scan reuses the pencils of one mesh, and a command
#: at a new radius would otherwise add its own for the life of the process
CACHE_SIZE = 4

# problem -> (pair kind, classify_dofs condition or None when every DOF
# is free, OperatorPair attributes of the pencil's A and B)
PENCILS = {
    "dirichlet": ("lagrange", "dirichlet-value", "k_grad", "mass"),
    "neumann": ("lagrange", None, "k_grad", "mass"),
    "buckling": ("morley", "clamped", "fourth_order", "k_grad"),
    "navier": ("morley", "navier", "fourth_order", "k_grad"),
}


@dataclass(frozen=True)
class Spectrum:
    """Sorted eigenvalues with a problem tag and provenance descriptor."""

    problem: str  # dirichlet | neumann | buckling | navier | dtn | ntl
    values: np.ndarray
    source: str  # mesh/grid content hash or "oracle:..."

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if np.any(np.diff(v) < 0):
            raise ValueError("spectrum values must be ascending")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return len(self.values)


# ---------------------------------------------------------------------------
# assembled-pair and spectrum-prefix caches
# ---------------------------------------------------------------------------

_PAIR_CACHE: dict[tuple, OperatorPair] = {}
# (mesh hash, problem) -> ascending prefix
_PREFIX_CACHE: dict[tuple, np.ndarray] = {}


def get_pair(mesh: Mesh, kind: str) -> OperatorPair:
    """Memoized assembly; kind is 'lagrange' or 'morley'."""
    key = (mesh.content_hash(), kind)
    pair = lru_get(_PAIR_CACHE, key, "pairs")
    if pair is None:
        if kind == "lagrange":
            pair = assemble_lagrange(mesh)
        elif kind == "morley":
            pair = assemble_morley(mesh)
        else:
            raise ValueError(f"unknown pair kind {kind!r}")
        pair = lru_put(_PAIR_CACHE, key, pair, CACHE_SIZE)
    return pair


def pencil_pair(mesh: Mesh, problem: str) -> OperatorPair:
    """The memoized assembled pair ``problem``'s pencil is built from."""
    if problem not in PENCILS:
        raise ValueError(f"unknown problem {problem!r}")
    return get_pair(mesh, PENCILS[problem][0])


def free_dofs(pair: OperatorPair, problem: str) -> np.ndarray:
    """Sorted DOFs of ``pair`` that ``problem`` leaves free (all of them
    for neumann), without slicing any matrix."""
    condition = PENCILS[problem][1]
    if condition is None:
        return np.arange(pair.dofmap.n_dofs)
    _, free = classify_dofs(pair.dofmap, condition)
    if len(free) == 0:
        raise MeshError(f"no free DOFs for the {problem} problem")
    return free


def pencil_forms(pair: OperatorPair, problem: str):
    """The assembled A and B of ``problem``'s pencil on ``pair``."""
    return tuple(getattr(pair, name) for name in PENCILS[problem][2:])


def pencil_eigenvalues(mesh: Mesh, problem: str, *, upto: float) -> np.ndarray:
    """The smallest eigenvalues of ``problem``'s pencil, ascending, up to
    and past ``upto``: a certified prefix of the spectrum whose last
    value exceeds ``upto``, or the whole spectrum when no value does.
    So it holds every eigenvalue below any ``lam <= upto`` and the
    nearest one above it, and it answers counts and margins there as the
    full spectrum would.

    The prefix is sized by one inertia count: ``m`` eigenvalues lie at
    or below ``upto``, or below a bound just above it when ``upto`` is
    on an eigenvalue (:func:`~bucklab.eigen.pencil_count`), and one
    certified Lanczos solve of the same pencil, as in
    :func:`smallest_eigenpairs`, computes ``m + 1`` values (all of them
    when that is the whole spectrum). It is memoized per mesh
    content hash and problem, so a smaller ``upto`` is served
    from the cache and a larger one is counted and solved once more.
    There is no default bound: asking for the whole spectrum of a large
    mesh is a request for n eigenvalues.
    """
    if not np.isfinite(upto):
        raise ValueError(f"upto must be finite, got {upto!r}")
    pair = pencil_pair(mesh, problem)
    key = (mesh.content_hash(), problem)
    # only a prefix that ends at or below ``upto`` needs the DOFs classified
    cached = lru_get(_PREFIX_CACHE, key, "prefixes", usable=lambda vals: (
        vals[-1] > upto or len(vals) == len(free_dofs(pair, problem))))
    if cached is not None:
        return cached
    free = free_dofs(pair, problem)
    pencil = boundary_last_pencil(*pencil_forms(pair, problem), free, [])
    count = min(pencil_count(pencil, upto, 1.0 / mesh.area()) + 1, len(free))
    vals = sparse_smallest_eigs(pencil, count, sigma=-1.0 / mesh.area())[0]
    vals.setflags(write=False)
    return lru_put(_PREFIX_CACHE, key, vals, CACHE_SIZE)


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------

def smallest_eigenpairs(
    pair: OperatorPair, problem: str, count: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(values, vectors, rows)``: the ``count`` smallest eigenpairs of
    ``problem``'s pencil on ``pair``, ascending, with B-orthonormal
    eigenvectors as columns over the free DOFs ``rows``, in pencil order.

    The Lanczos shift is -1 / area: below every spectrum (the Neumann
    zero included), and scaled with the domain as the eigenvalues are,
    so it sits equally far below them at every radius.
    """
    free = free_dofs(pair, problem)
    if count > len(free):
        raise SpectrumRangeError(f"k={count} exceeds the {len(free)} free DOFs")
    pencil = boundary_last_pencil(*pencil_forms(pair, problem), free, [])
    w, v = sparse_smallest_eigs(pencil, count, sigma=-1.0 / pair.mesh.area())
    return w, v, pencil.rows


def spectrum(mesh: Mesh, problem: str, k: int) -> Spectrum:
    """k smallest eigenvalues of the pencil of ``problem``.

    dirichlet, neumann : Laplacian on quadratic Lagrange (P2) elements
    buckling           : clamped fourth-order pencil (Morley)
    navier             : fourth-order pencil (Morley) with only the
                         boundary values constrained; reproduces the
                         Dirichlet Laplacian spectrum up to
                         discretization error

    Computed by :func:`smallest_eigenpairs`. Nothing is densified but
    a pencil too small for ARPACK: a failed Lanczos certificate is
    retried at tolerance 0, and a second failure raises
    :class:`~bucklab.errors.FactorCheckError`.
    """
    w, _, _ = smallest_eigenpairs(pencil_pair(mesh, problem), problem, k)
    return Spectrum(problem, w, mesh.content_hash())


def disk_oracle(problem: str, count: int) -> Spectrum:
    """Analytic unit-disk spectra from ``scipy.special`` Bessel zeros.

    dirichlet : squares of zeros of J_m (m >= 1 doubled)
    neumann   : 0, then squares of the positive zeros of J_m'
    buckling  : squares of zeros of J_{m+1} (clamped plate buckling)
    """
    # imported here: no command calls the oracle, and the import would
    # lengthen every process start
    from scipy.special import jn_zeros, jnp_zeros

    if count < 1:
        raise ValueError("count must be >= 1")
    if count > ORACLE_COUNT_CAP:
        raise SpectrumRangeError(
            f"oracle supports at most {ORACLE_COUNT_CAP} values, got {count}"
        )
    if problem == "dirichlet":
        zero_fn = jn_zeros
    elif problem == "neumann":
        zero_fn = jnp_zeros
    elif problem == "buckling":
        def zero_fn(m, c):
            return jn_zeros(m + 1, c)
    else:
        raise ValueError(f"unknown oracle problem {problem!r}")

    vals: list[float] = [0.0] if problem == "neumann" else []
    m = 0
    while True:
        zs = zero_fn(m, count)
        mult = 1 if m == 0 else 2
        vals.extend(z * z for z in zs for _ in range(mult))
        vals.sort()
        # stop once even the lowest mode of the next order cannot enter
        nxt = zero_fn(m + 1, 1)[0] ** 2
        if len(vals) >= count and nxt > vals[count - 1]:
            break
        m += 1
    return Spectrum(problem, np.array(vals[:count]), "oracle:unit-disk")

