"""The four spectra and their counting functions.

Dirichlet/Neumann use the Lagrange pencil (K_grad, M); buckling and the
simply-supported (Navier) problem use the Morley fourth-order pencil
(fourth-order form, K_grad) on the clamped and vertex-constrained
spaces. The disk oracle produces analytic ground truth from Bessel
zeros, independently of every finite element path.

Pencil matrices are sliced from the sparse assembled forms; the dense
eigensolvers in :mod:`bucklab.eigen` densify them. Assembled pairs and
full pencil spectra are memoized per mesh content hash, which covers
every mesh field assembly reads; caches are read-shared and write-once.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import bessel
from .assembly import OperatorPair, assemble_lagrange, assemble_morley, classify_dofs
from .eigen import sym_gen_eigs, sym_gen_eigvals_all
from .errors import MeshError, SpectrumRangeError
from .mesh import Mesh

ORACLE_COUNT_CAP = 50


class AmbiguousCountWarning(UserWarning):
    """The counting parameter sits numerically on a spectrum value."""


@dataclass(frozen=True)
class Spectrum:
    """Sorted eigenvalues with a problem tag and provenance descriptor."""

    problem: str  # dirichlet | neumann | buckling | navier | dtn | ntl
    values: np.ndarray
    source: str  # mesh/grid content hash or "oracle:..."
    order: int | None = None

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if np.any(np.diff(v) < 0):
            raise ValueError("spectrum values must be ascending")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return len(self.values)


def counting_function(s: Spectrum, lam: float) -> int:
    """Number of spectrum values strictly below ``lam``.

    Emits :class:`AmbiguousCountWarning` when ``lam`` is within 1e-9
    relative of a value, where strict-vs-weak counting would differ.
    """
    v = s.values
    if len(v) and np.min(np.abs(v - lam)) <= 1e-9 * max(1.0, abs(lam)):
        warnings.warn(
            f"count at lambda={lam!r} is ambiguous: a spectrum value is "
            "within 1e-9 relative",
            AmbiguousCountWarning,
            stacklevel=2,
        )
    return int(np.sum(v < lam))


# ---------------------------------------------------------------------------
# assembled-pair and full-spectrum caches
# ---------------------------------------------------------------------------

_PAIR_CACHE: dict[tuple, OperatorPair] = {}
_FULL_CACHE: dict[tuple, np.ndarray] = {}


def get_pair(mesh: Mesh, kind: str, order: int | None = None) -> OperatorPair:
    """Memoized assembly; kind is 'lagrange' or 'morley'."""
    key = (mesh.content_hash(), kind, order)
    pair = _PAIR_CACHE.get(key)
    if pair is None:
        if kind == "lagrange":
            pair = assemble_lagrange(mesh, order)
        elif kind == "morley":
            pair = assemble_morley(mesh)
        else:
            raise ValueError(f"unknown pair kind {kind!r}")
        pair = _PAIR_CACHE.setdefault(key, pair)
    return pair


def _pencil_matrices(
    mesh: Mesh, problem: str, order: int | None
) -> tuple[sp.csc_array, sp.csc_array]:
    """Sparse (A, B) of the pencil whose eigenvalues define ``problem`` on
    this mesh."""
    if problem in ("dirichlet", "neumann"):
        pair = get_pair(mesh, "lagrange", order)
        if problem == "dirichlet":
            _, free = classify_dofs(pair.dofmap, "dirichlet-value")
            if len(free) == 0:
                raise MeshError("no interior DOFs: mesh too coarse for dirichlet")
            return (
                pair.k_grad[np.ix_(free, free)],
                pair.mass[np.ix_(free, free)],
            )
        return pair.k_grad, pair.mass
    if problem in ("buckling", "navier"):
        pair = get_pair(mesh, "morley")
        condition = "clamped" if problem == "buckling" else "navier"
        _, free = classify_dofs(pair.dofmap, condition)
        if len(free) == 0:
            raise MeshError(f"no free DOFs for the {problem} problem")
        f = pair.fourth_order_matrix()
        return f[np.ix_(free, free)], pair.k_grad[np.ix_(free, free)]
    raise ValueError(f"unknown problem {problem!r}")


def pencil_eigenvalues(mesh: Mesh, problem: str, order: int | None = None) -> np.ndarray:
    """All pencil eigenvalues for counting functions, memoized."""
    key = (mesh.content_hash(), problem, order)
    vals = _FULL_CACHE.get(key)
    if vals is None:
        a, b = _pencil_matrices(mesh, problem, order)
        vals = sym_gen_eigvals_all(a, b)
        vals.setflags(write=False)
        vals = _FULL_CACHE.setdefault(key, vals)
    return vals


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------

def spectrum(mesh: Mesh, problem: str, k: int, order: int | None = None) -> Spectrum:
    """k smallest eigenvalues of the pencil of ``problem``.

    dirichlet, neumann : Laplacian on Lagrange elements of ``order`` (1 or 2)
    buckling           : clamped fourth-order pencil (Morley; no order)
    navier             : fourth-order pencil with only the boundary values
                         constrained; reproduces the Dirichlet Laplacian
                         spectrum up to discretization error
    """
    if problem in ("buckling", "navier"):
        order = None
    a, b = _pencil_matrices(mesh, problem, order)
    if k > a.shape[0]:
        raise SpectrumRangeError(f"k={k} exceeds the {a.shape[0]} free DOFs")
    w, _ = sym_gen_eigs(a, b, k)
    return Spectrum(problem, w, mesh.content_hash(), order)


def disk_oracle(problem: str, count: int) -> Spectrum:
    """Analytic unit-disk spectra from bisected Bessel zeros.

    dirichlet : squares of zeros of J_m (m >= 1 doubled)
    neumann   : 0, then squares of the positive zeros of J_m'
    buckling  : squares of zeros of J_{m+1} (clamped plate buckling)
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if count > ORACLE_COUNT_CAP:
        raise SpectrumRangeError(
            f"oracle supports at most {ORACLE_COUNT_CAP} values, got {count}"
        )
    if problem == "dirichlet":
        zero_fn = bessel.bessel_j_zeros
    elif problem == "neumann":
        zero_fn = bessel.bessel_jp_zeros
    elif problem == "buckling":
        def zero_fn(m, c):
            return bessel.bessel_j_zeros(m + 1, c)
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
