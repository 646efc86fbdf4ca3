"""The four spectra and the one table of their pencils.

Dirichlet/Neumann use the Lagrange pencil (K_grad, M); buckling and the
simply-supported (Navier) problem use the Morley fourth-order pencil
(fourth-order form, K_grad) on the clamped and vertex-constrained
spaces, as the one table :data:`PENCILS` says. The disk oracle
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
assembly reads; each cache keeps its few most recently used entries
(:func:`lru_get`, :func:`lru_put`) and counts its hits and misses
(:func:`cache_counts`), which each run's manifest records.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from .assembly import OperatorPair, assemble_lagrange, assemble_morley, classify_dofs
from .eigen import boundary_last_pencil, pencil_count, sparse_smallest_eigs
from .errors import MeshError, SpectrumRangeError
from .mesh import Mesh

ORACLE_COUNT_CAP = 50
#: entries each result cache keeps: a scan reuses the pencils of one
#: mesh, and a command at a new radius would otherwise add its own for
#: the life of the process
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

_CACHE_LOCK = threading.Lock()
# lookups so far in this process, per result cache, that found a usable
# entry (hits) or not (misses)
_CACHE_COUNTS = {name: {"hits": 0, "misses": 0}
                 for name in ("pairs", "prefixes", "trace_pencils", "clamped_fields")}


def cache_counts() -> dict[str, dict[str, int]]:
    """Hits and misses of each result cache so far in this process:
    assembled ``pairs``, spectrum ``prefixes``, ``trace_pencils`` and the
    counterexample's ``clamped_fields``."""
    with _CACHE_LOCK:
        return {name: dict(counts) for name, counts in _CACHE_COUNTS.items()}


def lru_get(cache: dict, key, name: str, usable=None):
    """``cache[key]``, now the most recently used entry, or None when
    there is none or ``usable(entry)`` is false; the lookup counts as a
    hit or a miss of the cache ``name`` (:func:`cache_counts`)."""
    with _CACHE_LOCK:
        value = cache.pop(key, None)
        if value is not None:
            cache[key] = value
    if value is not None and usable is not None and not usable(value):
        value = None
    with _CACHE_LOCK:
        _CACHE_COUNTS[name]["misses" if value is None else "hits"] += 1
    return value


def lru_put(cache: dict, key, value):
    """Store ``value`` as the most recently used entry of ``cache``, drop
    the least recently used ones beyond ``CACHE_SIZE``, return ``value``."""
    with _CACHE_LOCK:
        cache.pop(key, None)
        cache[key] = value
        while len(cache) > CACHE_SIZE:
            del cache[next(iter(cache))]
    return value


_PAIR_CACHE: dict[tuple, OperatorPair] = {}
# (mesh hash, problem, pair kind) -> ascending prefix
_PREFIX_CACHE: dict[tuple, np.ndarray] = {}


def get_pair(mesh: Mesh, kind: str, order: int | None = None) -> OperatorPair:
    """Memoized assembly; kind is 'lagrange' or 'morley'."""
    key = (mesh.content_hash(), kind, order)
    pair = lru_get(_PAIR_CACHE, key, "pairs")
    if pair is None:
        if kind == "lagrange":
            pair = assemble_lagrange(mesh, order)
        elif kind == "morley":
            pair = assemble_morley(mesh)
        else:
            raise ValueError(f"unknown pair kind {kind!r}")
        pair = lru_put(_PAIR_CACHE, key, pair)
    return pair


def pencil_pair(mesh: Mesh, problem: str, order: int | None = None) -> OperatorPair:
    """The memoized assembled pair ``problem``'s pencil is built from;
    ``order`` applies to Lagrange pairs only."""
    if problem not in PENCILS:
        raise ValueError(f"unknown problem {problem!r}")
    kind = PENCILS[problem][0]
    return get_pair(mesh, kind, order if kind == "lagrange" else None)


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


def pencil_eigenvalues(
    mesh: Mesh, problem: str, order: int | None = None, *, upto: float
) -> np.ndarray:
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
    content hash, problem and pair kind, so a smaller ``upto`` is served
    from the cache and a larger one is counted and solved once more.
    There is no default bound: asking for the whole spectrum of a large
    mesh is a request for n eigenvalues.
    """
    if not np.isfinite(upto):
        raise ValueError(f"upto must be finite, got {upto!r}")
    pair = pencil_pair(mesh, problem, order)
    key = (mesh.content_hash(), problem, pair.dofmap.kind)
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
    return lru_put(_PREFIX_CACHE, key, vals)


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


def spectrum(mesh: Mesh, problem: str, k: int, order: int | None = None) -> Spectrum:
    """k smallest eigenvalues of the pencil of ``problem``.

    dirichlet, neumann : Laplacian on Lagrange elements of ``order`` (1 or 2)
    buckling           : clamped fourth-order pencil (Morley; no order)
    navier             : fourth-order pencil with only the boundary values
                         constrained; reproduces the Dirichlet Laplacian
                         spectrum up to discretization error

    Computed by :func:`smallest_eigenpairs`, so no n x n array is formed
    unless the Lanczos certificate fails.
    """
    w, _, _ = smallest_eigenpairs(pencil_pair(mesh, problem, order), problem, k)
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


def spectrum_to_csv_rows(s: Spectrum) -> list[str]:
    """Rows of the `index,value,problem,mesh_hash` serialization."""
    return [
        f"{i},{v:.17g},{s.problem},{s.source}" for i, v in enumerate(s.values)
    ]
