"""Output checks of one op, run after the workload process has ended.

Each check reads the CSV files the CLI wrote into the op's run
directories and returns ``None`` when the op is correct, else the
reason it failed. A nonzero exit code or an exception fails the op
before any file is read.
"""
from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

import workloads

# Largest relative error against the Bessel oracle (denominator
# max(|oracle|, 1/r^2), since the first Neumann value is 0) over the 6
# smallest values, measured at refine 3 for radii 0.5, 1.0 and 1.7:
# dirichlet 0.00192, neumann 0.00165, buckling 0.0157, navier (against
# the dirichlet oracle) 0.00935. Each tolerance is 1.5x that.
SPECTRUM_RTOL = {"dirichlet": 0.003, "neumann": 0.0025, "buckling": 0.024, "navier": 0.014}
SLOPE_TOL = 0.15  # as in tests/test_counterexample.py


def _rows(path: Path) -> list[dict]:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def _run_dir(run_root: str) -> Path:
    dirs = [p for p in Path(run_root).iterdir() if p.is_dir()]
    if len(dirs) != 1:
        raise ValueError(f"expected one run directory in {run_root}, found {len(dirs)}")
    return dirs[0]


class Checker:
    """Checks ops of one workload; oracle values are computed once."""

    def __init__(self, workload: str):
        self.workload = workload
        self._oracle = {}

    def oracle(self, problem: str) -> np.ndarray:
        if problem not in self._oracle:
            from bucklab.spectra import disk_oracle

            source = "dirichlet" if problem == "navier" else problem
            self._oracle[problem] = disk_oracle(source, workloads.SPECTRUM_COUNT).values
        return self._oracle[problem]

    def check(self, params: dict, calls: list[dict]) -> str | None:
        for call in calls:
            if call["code"] != 0:
                return f"exit code {call['code']}: {call['error']}"
        try:
            dirs = [_run_dir(c["run_root"]) for c in calls]
            return getattr(self, "_" + self.workload.replace("-", "_"))(params, dirs)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            return f"unreadable output: {exc!r}"

    def _identity_scan(self, params: dict, dirs: list[Path]) -> str | None:
        for d in dirs:
            rows = _rows(d / "identities.csv")
            skips = _rows(d / "skips.csv") if (d / "skips.csv").exists() else []
            if len(rows) + len(skips) != workloads.SCAN_POINTS:
                return f"{d.name}: {len(rows)} rows + {len(skips)} skips"
            for r in rows:
                if not params["lmin"] - 1.0 <= float(r["lambda"]) <= params["lmax"] + 1.0:
                    return f"{d.name}: lambda {r['lambda']} outside the window"
                if r["holds"] != "true" or int(r["neg_count"]) != int(r["lhs"]) - int(r["rhs"]):
                    return f"{d.name}: identity fails at lambda={r['lambda']}"
        return None

    def _spectra_mix(self, params: dict, dirs: list[Path]) -> str | None:
        # the call order of workloads.op_calls: 4 spectra, 2 counterexample, 1 cap
        n = len(workloads.PROBLEMS)
        return (self._spectra(params, dirs[:n])
                or self._counterexample(params, dirs[n:n + 2])
                or self._spherecap(params, dirs[n + 2:]))

    def _spectra(self, params: dict, dirs: list[Path]) -> str | None:
        r = params["radius"]
        for problem, d in zip(workloads.PROBLEMS, dirs):
            rows = _rows(d / "spectrum.csv")
            values = np.array([float(row["value"]) for row in rows])
            if len(values) != workloads.SPECTRUM_COUNT or any(
                row["problem"] != problem for row in rows
            ):
                return f"{problem}: wrong rows"
            expected = self.oracle(problem) / r**2
            err = np.abs(values - expected) / np.maximum(np.abs(expected), 1.0 / r**2)
            if not np.all(err <= SPECTRUM_RTOL[problem]):
                return f"{problem}: relative error {err.max():.3g} at r={r}"
        return None

    def _counterexample(self, params: dict, dirs: list[Path]) -> str | None:
        bounded = {row["quantity"]: row["value"] for row in _rows(dirs[0] / "bounded_below.csv")}
        if bounded["passed"] != "true" or int(bounded["violations"]) != 0:
            return f"bounded regime fails at lambda={params['lam_bounded']}"
        if float(bounded["lambda"]) != params["lam_bounded"]:
            return "bounded regime ran at another lambda"
        samples = _rows(dirs[1] / "divergence.csv")
        eps = np.array([float(s["eps"]) for s in samples])
        q = np.array([float(s["quotient"]) for s in samples])
        if not np.array_equal(eps, workloads.DIVERGENCE_EPS):
            return "divergence samples at other eps"
        if np.any(q >= 0) or not np.all(np.isfinite(q)):
            return f"divergence anomaly at lambda={params['lam_divergent']}"
        slope = np.polyfit(np.log(eps), np.log(np.abs(q)), 1)[0]
        if abs(slope + 2.0) > SLOPE_TOL:
            return f"divergence slope {slope:.4f} at lambda={params['lam_divergent']}"
        return None

    def _spherecap(self, params: dict, dirs: list[Path]) -> str | None:
        rows = _rows(dirs[0] / "spherecap.csv")
        if len(rows) != 1 or float(rows[0]["eps"]) != params["eps"]:
            return f"expected one row at eps={params['eps']}"
        row = rows[0]
        values = [float(row[k]) for k in ("lambda1", "lambda2", "mu2", "Lambda1")]
        if not all(math.isfinite(v) for v in values):
            return "non-finite cap value"
        if not values[0] <= values[1]:
            return "lambda1 > lambda2"
        return None
