"""Seeded inputs and CLI argument lists of the benchmark workloads.

One op is a short, fixed sequence of ``bucklab`` CLI invocations. Op
``i`` of a run draws its inputs from ``(workload, seed, i)`` alone, so
the worker that times the ops and the checker that reads their outputs
regenerate the same values independently. The CLI receives only these
generated values; the warm-up op uses inputs outside every measured
range, so a measured op never repeats the warm-up's work.

Why each workload (one client, closed loop, ``--threads 1``):

* ``identity-scan``: one disk mesh for every op, so the assembled-pair
  and full-spectrum caches hit after warm-up and op time is the
  per-point Schur complement plus LDL^T inertia. Pairing the Liu and
  Friedlander scans covers both trace operators and keeps op times
  unimodal.
* ``spectra-mix``: every layer the scan leaves after warm-up. Schur
  complement and inertia take under 5% of its op time (one trace
  operator per counterexample call), so it is the control for changes
  to that path. One op runs, in this order:
  - the four k-smallest spectra at a new disk radius, so the caches
    always miss: mesh build, P2 and Morley assembly and ``eigh``.
    Module caches are never cleared, so their growth shows in
    ``peak_rss_mb``;
  - the bounded and the divergent counterexample regime: many
    quadratic-form evaluations and a ground-state ``eigh`` per call;
  - one punctured-sphere cap scan: 1D Python-loop assembly and Gauss
    quadrature, never the disk mesh, kernels or assembly.

The spectra, counterexample and cap scans share one workload, not one
each. On a shared two-CPU virtual machine the speed changes by up to
1.7x in phases of tens of seconds, so a run must last close to a minute
for its op time to be steady, and only two workloads of a minute keep
ten repeated runs of each, done twice, under an hour.
"""
from __future__ import annotations

import math
import random

WORKLOADS = ("identity-scan", "spectra-mix")
PROBLEMS = ("dirichlet", "neumann", "buckling", "navier")
REFINE = 3
SCAN_POINTS = 4
SPECTRUM_COUNT = 6
BOUNDED_TRIALS = 200
DIVERGENCE_EPS = (1e-1, 1e-2, 1e-3, 1e-4)

# Warm-up inputs, each outside the range its measured ops draw from.
WARMUP = {
    "identity-scan": {"lmin": 0.25, "lmax": 0.75},
    "spectra-mix": {"radius": 3.0, "lam_bounded": 0.5, "lam_divergent": 50.0, "eps": 0.75},
}


def op_params(workload: str, seed: int, index: int) -> dict:
    """Inputs of measured op ``index`` of a run with ``seed``."""
    rng = random.Random(f"{workload}/{seed}/{index}")
    if workload == "identity-scan":
        # a window of width 10..30 inside [1, 60]
        width = rng.uniform(10.0, 30.0)
        lmin = rng.uniform(1.0, 60.0 - width)
        return {"lmin": round(lmin, 4), "lmax": round(lmin + width, 4)}
    if workload == "spectra-mix":
        # The first buckling eigenvalue is about 14.68. The fitted slope
        # over eps = 1e-1..1e-4 reaches -2 only asymptotically: at refine 3
        # it is -1.84 at lambda 16, -1.90 at 18 and -1.96 at 40, so the
        # divergent regime starts at 18, where the 0.15 tolerance holds.
        return {
            "radius": round(rng.uniform(0.5, 2.0), 6),
            "lam_bounded": round(rng.uniform(1.0, 13.0), 4),
            "lam_divergent": round(rng.uniform(18.0, 40.0), 4),
            "eps": round(math.exp(rng.uniform(math.log(0.02), math.log(0.5))), 6),
        }
    raise ValueError(f"unknown workload {workload!r}")


def op_calls(workload: str, params: dict, threads: int = 1) -> list[list[str]]:
    """CLI argument lists of one op, without ``--run-root``."""
    common = ["--threads", str(threads)]
    if workload == "identity-scan":
        return [
            ["identity-scan", "--domain", "disk", "--refine", str(REFINE),
             "--kind", kind, "--points", str(SCAN_POINTS),
             "--lmin", repr(params["lmin"]), "--lmax", repr(params["lmax"])] + common
            for kind in ("liu", "friedlander")
        ]
    if workload == "spectra-mix":
        spectra = [
            ["spectrum", "--domain", "disk", "--refine", str(REFINE),
             "--radius", repr(params["radius"]), "--problem", problem,
             "--count", str(SPECTRUM_COUNT)] + common
            for problem in PROBLEMS
        ]
        base = ["counterexample", "--domain", "disk", "--refine", str(REFINE)]
        eps = ",".join(repr(e) for e in DIVERGENCE_EPS)
        counterexample = [
            base + ["--lambda", repr(params["lam_bounded"]),
                    "--trials", str(BOUNDED_TRIALS)] + common,
            base + ["--lambda", repr(params["lam_divergent"]), "--eps", eps] + common,
        ]
        spherecap = [["spherecap", "--eps-list", repr(params["eps"])] + common]
        return spectra + counterexample + spherecap
    raise ValueError(f"unknown workload {workload!r}")
