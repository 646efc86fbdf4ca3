"""Spans and counts around bucklab's layer boundaries, recorded from outside.

The tracer wraps public functions of each layer. A function is looked
up by name in its defining module, and its wrapper replaces the original
under every name any ``bucklab`` module holds it by (``traceops`` imports
``inertia`` by name, ``_kernels`` re-exports its backend's functions),
so calls are seen however they are looked up. A name that no longer
exists is reported as absent and the rest still trace.

Each call appends a span ``[hook, parent, start, end, info]`` to an
in-memory list; ``info`` is a size or count taken from the arguments or
the result after the span has ended. Traced calls must run on one
thread: the parent is taken from a single stack.
"""
from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from collections import Counter


def _first_len(args, kwargs, result):
    return len(args[0])


def _n_dofs(args, kwargs, result):
    return result.dofmap.n_dofs


def _nbytes(args, kwargs, result):
    return result.nbytes


def _written_bytes(args, kwargs, result):
    return sum(p.stat().st_size for p in result)


def _sweep_counts(args, kwargs, result):
    nudged = sum(1 for r in result.records if r.get("nudged"))
    return (len(result.grid), len(result.skips), nudged)


# (layer, defining module, qualified name, info function)
HOOKS = (
    ("cli", "bucklab.cli", "main", None),
    ("runio", "bucklab.runio", "new_run_dir", None),
    ("runio", "bucklab.runio", "write_results", _written_bytes),
    ("runio", "bucklab.runio", "plot_data_content", None),
    ("runio", "bucklab.runio", "SweepResult.to_csv", None),
    ("mesh", "bucklab.mesh", "make_disk_mesh", None),
    ("mesh", "bucklab.mesh", "make_rectangle_mesh", None),
    ("mesh", "bucklab.mesh", "refine_mesh", None),
    ("mesh", "bucklab.mesh", "make_radial_grid", None),
    ("mesh", "bucklab.mesh", "RadialGrid.content_hash", None),
    ("kernels", "bucklab._kernels", "lagrange1_local", _first_len),
    ("kernels", "bucklab._kernels", "lagrange2_local", _first_len),
    ("kernels", "bucklab._kernels", "morley_local", _first_len),
    ("assembly", "bucklab.assembly", "assemble_lagrange", _n_dofs),
    ("assembly", "bucklab.assembly", "assemble_morley", _n_dofs),
    ("assembly", "bucklab.assembly", "OperatorPair.fourth_order_matrix", _nbytes),
    ("assembly", "bucklab.assembly", "classify_dofs", None),
    ("spectra", "bucklab.spectra", "get_pair", None),
    ("spectra", "bucklab.spectra", "pencil_eigenvalues", None),
    ("spectra", "bucklab.spectra", "laplace_spectrum", None),
    ("spectra", "bucklab.spectra", "buckling_spectrum", None),
    ("spectra", "bucklab.spectra", "navier_spectrum", None),
    ("eigen", "bucklab.eigen", "sym_gen_eigs", _first_len),
    ("eigen", "bucklab.eigen", "sym_gen_eigvals_all", _first_len),
    ("eigen", "bucklab.eigen", "inertia", _first_len),
    ("eigen", "bucklab.eigen", "schur_complement", _first_len),
    ("traceops", "bucklab.traceops", "scan_identities", _sweep_counts),
    ("traceops", "bucklab.traceops", "scan_beta1", None),
    ("traceops", "bucklab.traceops", "verify_identity", None),
    ("traceops", "bucklab.traceops", "dtn_operator", None),
    ("traceops", "bucklab.traceops", "ntl_operator", None),
    ("traceops", "bucklab.traceops", "trace_spectrum", None),
    ("counterexample", "bucklab.counterexample", "buckling_ground_state", None),
    ("counterexample", "bucklab.counterexample", "make_perturbation", None),
    ("counterexample", "bucklab.counterexample", "rayleigh_quotient", None),
    ("counterexample", "bucklab.counterexample", "alpha_value", None),
    ("counterexample", "bucklab.counterexample", "divergence_sweep", None),
    ("counterexample", "bucklab.counterexample", "bounded_below_check", None),
    ("spherecap", "bucklab.spherecap", "cap_scan", None),
    ("spherecap", "bucklab.spherecap", "cap_spectrum", None),
    ("spherecap", "bucklab.spherecap", "cap_operators", None),
    ("spherecap", "bucklab.spherecap", "cap_buckling_lambda1", None),
    ("quadrature", "bucklab.quadrature", "gauss_on_interval", None),
    ("quadrature", "bucklab.quadrature", "gauss_legendre", None),
)
LAYERS = tuple(dict.fromkeys(layer for layer, *_ in HOOKS))
# dense n x n matrices each assembly routine allocates and fills
_DENSE_MATRICES = {"assemble_lagrange": 2, "assemble_morley": 3}
# a cache lookup with a span of these layers below it recomputed its value
_WORK_LAYERS = ("assembly", "eigen")


def _resolve(module: str, qualname: str):
    """(owner, attribute name, function), or None when the name is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    fn = getattr(owner, attr, None)
    if not callable(fn):
        return None
    return owner, attr, fn


class Tracer:
    """Wrappers for every hook that still resolves, patched in on demand."""

    def __init__(self):
        self.spans: list[list] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._class_hooks = []  # (class, attribute, original, wrapper)
        self._function_hooks = {}  # id(original) -> (original, wrapper)
        self._patched = []  # (owner, attribute, original) while installed
        for hook_id, (layer, module, qualname, info_fn) in enumerate(HOOKS):
            found = _resolve(module, qualname)
            if found is None:
                self.absent.append(f"{module}.{qualname}")
                continue
            owner, attr, fn = found
            wrapper = self._wrap(hook_id, fn, info_fn)
            if isinstance(owner, type):
                self._class_hooks.append((owner, attr, fn, wrapper))
            else:
                self._function_hooks[id(fn)] = (fn, wrapper)

    def _wrap(self, hook_id: int, fn, info_fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [hook_id, stack[-1] if stack else -1, clock(), 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if info_fn is not None:
                try:
                    rec[4] = info_fn(args, kwargs, result)
                except (AttributeError, TypeError, IndexError, OSError):
                    pass  # a changed signature loses the count, not the span
            return result

        return wrapper

    def install(self) -> None:
        for owner, attr, fn, wrapper in self._class_hooks:
            setattr(owner, attr, wrapper)
            self._patched.append((owner, attr, fn))
        for name, module in list(sys.modules.items()):
            if name != "bucklab" and not name.startswith("bucklab."):
                continue
            for attr, value in list(vars(module).items()):
                hook = self._function_hooks.get(id(value))
                if hook is not None and hook[0] is value:
                    setattr(module, attr, hook[1])
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()


def summarize(spans: list[list], start: int, stop: int) -> dict:
    """Per-layer figures of the spans ``start:stop`` (one op)."""
    child_s: Counter = Counter()
    has_work: set[int] = set()
    for i in range(stop - 1, start - 1, -1):  # children before parents
        hook, parent, t0, t1, _ = spans[i]
        if parent >= start:
            child_s[parent] += t1 - t0
            if i in has_work or HOOKS[hook][0] in _WORK_LAYERS:
                has_work.add(parent)
    self_s: Counter = Counter()
    calls: Counter = Counter()
    incl_s: Counter = Counter()
    info: dict[str, list] = {}
    hits: Counter = Counter()
    for i in range(start, stop):
        hook, _, t0, t1, value = spans[i]
        layer, _, qualname, _ = HOOKS[hook]
        name = qualname.rsplit(".", 1)[-1]
        self_s[layer] += (t1 - t0) - child_s[i]
        calls[name] += 1
        incl_s[name] += t1 - t0
        if value is not None:
            info.setdefault(name, []).append(value)
        if i not in has_work:
            hits[name] += 1

    def total(*names):
        return sum(sum(info.get(n, ())) for n in names)

    eigen_fns = ("sym_gen_eigs", "sym_gen_eigvals_all", "inertia", "schur_complement")
    dense_bytes = sum(
        k * 8 * n * n for fn, k in _DENSE_MATRICES.items() for n in info.get(fn, ())
    )
    sweeps = info.get("scan_identities", [])
    out = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
    out.update({
        "eigen.schur_s": incl_s["schur_complement"],
        "eigen.schur_calls": calls["schur_complement"],
        "eigen.inertia_s": incl_s["inertia"],
        "eigen.inertia_calls": calls["inertia"],
        "eigen.eigh_all_s": incl_s["sym_gen_eigvals_all"],
        "eigen.eigh_all_calls": calls["sym_gen_eigvals_all"],
        "eigen.eigh_s": incl_s["sym_gen_eigs"],
        "eigen.eigh_calls": calls["sym_gen_eigs"],
        "eigen.dim_max": max((n for fn in eigen_fns for n in info.get(fn, ())), default=0),
        "assembly.calls": calls["assemble_lagrange"] + calls["assemble_morley"],
        "assembly.n_dofs_max": max(
            info.get("assemble_lagrange", []) + info.get("assemble_morley", []), default=0
        ),
        "assembly.dense_bytes_computed": dense_bytes,
        "assembly.fourth_order_calls": calls["fourth_order_matrix"],
        "assembly.fourth_order_bytes_computed": total("fourth_order_matrix"),
        "counterexample.quotient_calls": calls["rayleigh_quotient"],
        "counterexample.quotient_s": incl_s["rayleigh_quotient"],
        "kernels.elements": total("lagrange1_local", "lagrange2_local", "morley_local"),
        "mesh.calls": sum(calls[q.rsplit(".", 1)[-1]] for lay, _, q, _ in HOOKS if lay == "mesh"),
        "traceops.points": sum(s[0] for s in sweeps),
        "traceops.skips": sum(s[1] for s in sweeps),
        "spherecap.operator_calls": calls["cap_operators"],
        "spherecap.operator_s": incl_s["cap_operators"],
        "quadrature.calls": calls["gauss_legendre"],
        "runio.bytes": total("write_results"),
    })
    # raw counts behind the run-level ratios
    out["_lookups"] = {
        "pair": (hits["get_pair"], calls["get_pair"]),
        "full": (hits["pencil_eigenvalues"], calls["pencil_eigenvalues"]),
        "nudged": (sum(s[2] for s in sweeps), out["traceops.points"]),
    }
    out["_self_total_s"] = sum(self_s.values())
    return out


def layer_metrics(summaries: list[dict]) -> dict:
    """Median over traced ops of each per-op figure; ratios over all ops."""
    if not summaries:
        return {}
    names = [k for k in summaries[0] if not k.startswith("_")]
    out = {k: statistics.median(s[k] for s in summaries) for k in names}
    for key, metric in (
        ("pair", "spectra.pair_hit_ratio"),
        ("full", "spectra.full_hit_ratio"),
        ("nudged", "traceops.nudged_ratio"),
    ):
        num = sum(s["_lookups"][key][0] for s in summaries)
        den = sum(s["_lookups"][key][1] for s in summaries)
        out[metric] = num / den if den else 0.0
    return out
