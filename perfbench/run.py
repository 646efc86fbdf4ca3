#!/usr/bin/env python3
"""The bucklab benchmark: one workload through ``bucklab.cli.main``.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each run starts fresh worker processes
(``worker.py``) with BLAS fixed to one thread and the CLI at
``--threads 1``: a single client in a closed loop. After the workers
end, every op's CSV output is checked against oracles (``checks.py``).

A run lasts about ``--seconds``, set-ups included. It is split over
several worker processes, one after another: each sets up, which gives
one set-up time, then times ops until its share of the run has passed.

The op time reported is the 75th percentile of the pooled ops, not the
median or the mean. On a shared host with two CPUs, op times follow the
machine's speed, which changes by up to 1.7x in phases of tens of
seconds to minutes: in most of the time it runs slow, in bursts fast.
A run's median and mean move with the share of fast bursts it caught,
by 20% between runs of the same code; its 75th percentile is an op in
the slow phase, which nearly every run of a minute contains.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run (``tracing.py``). The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. Run directories live in a temporary
directory under ``.perfbench/`` in the checkout and are removed after
checking; spans and the full results are kept under ``.perfbench/``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
BLAS_THREADS = 1
PROCESSES = 3  # measuring worker processes per run
# peak_rss_mb is read after this many measured ops, not at the end: the
# result caches keep every op's matrices, so a faster program that fits
# more ops into the run would otherwise read as using more memory
RSS_OPS = 2
WORKER_TIMEOUT_S = 150
_BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# figures of the traced warm-up op, reported as setup.<name>: the work
# that set-up holds (full spectra, first assembly) shows only there
SETUP_LAYER_METRICS = [f"{layer}.self_s" for layer in tracing.LAYERS] + [
    "eigen.eigh_all_s", "eigen.eigh_all_calls", "eigen.eigh_s", "assembly.calls",
    "assembly.n_dofs_max", "assembly.dense_bytes_computed",
]


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = ROOT / ".git" / ref[5:]
    if ref_path.is_file():
        return ref_path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": BLAS_THREADS,
        "cli_threads": 1,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _git_commit(),
        "seed": seed,
    }


def _worker_env() -> dict:
    env = dict(os.environ)
    env.pop("BUCKLAB_RUNS", None)  # every call passes --run-root anyway
    env.pop("PYTHONPATH", None)
    for name in _BLAS_ENV:
        env[name] = str(BLAS_THREADS)
    return env


def run_worker(tmp: Path, tag: str, plan: dict) -> tuple[float, dict]:
    """Start one workload process; returns (setup seconds, its result)."""
    plan = dict(plan, run_root=str(tmp / tag))
    plan_path, result_path = tmp / f"{tag}-plan.json", tmp / f"{tag}-result.json"
    plan_path.write_text(json.dumps(plan))
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(plan_path), str(result_path)],
            cwd=ROOT, env=_worker_env(), capture_output=True, text=True,
            timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{tag} worker timed out after {exc.timeout} s") from None
    if proc.returncode != 0 or not result_path.exists():
        raise BenchError(f"{tag} worker exited {proc.returncode}: {proc.stderr[-3000:]}")
    result = json.loads(result_path.read_text())
    if "fatal" in result:
        raise BenchError(f"{tag}: {result['fatal']}: {result['warmup']}")
    # time.monotonic is one system-wide clock on Linux, so it spans processes
    return result["warm_end"] - started, result


def check_ops(workload: str, seed: int, ops: list[dict]) -> list[str]:
    checker = checks.Checker(workload)
    failures = []
    for op in ops:
        params = workloads.op_params(workload, seed, op["index"])
        reason = checker.check(params, op["calls"])
        if reason is not None:
            failures.append(f"op {op['index']}: {reason}")
    return failures


def end_to_end(results: list[tuple[float, dict]], failed: int) -> dict:
    """Medians over the worker processes' set-ups and RSS; the 75th
    percentile of the pooled ops."""
    seconds = [op["seconds"] for _, r in results for op in r["ops"]]
    rss = [r["ops"][min(RSS_OPS, len(r["ops"])) - 1]["rss_mb"] for _, r in results]
    return {
        "setup_s": (statistics.median(setup for setup, _ in results), "s"),
        "op_p75_s": (statistics.quantiles(seconds, n=4, method="inclusive")[2], "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
        "passed_ratio": ((len(seconds) - failed) / len(seconds), "ratio"),
    }


def per_layer(result: dict) -> dict:
    ops = result["ops"]
    traced = [op["seconds"] for op in ops if op["traced"]]
    plain = [op["seconds"] for op in ops if not op["traced"]]
    metrics = {name: (value, _unit(name)) for name, value in result["layers"].items()}
    traced_p50, plain_p50 = statistics.median(traced), statistics.median(plain)
    unaccounted = statistics.median(op["seconds"] - op["self_s"] for op in ops if op["traced"])
    metrics.update({
        "trace.op_p50_s": (traced_p50, "s"),
        "trace.untraced_op_p50_s": (plain_p50, "s"),
        "trace.overhead_s": (traced_p50 - plain_p50, "s"),
        "trace.unaccounted_s": (unaccounted, "s"),
        "trace.hooks_absent": (len(result["absent"]), "count"),
        "traceops.threads2_speedup": (result.get("threads", {}).get("speedup", 0.0), "ratio"),
        "setup.op_s": (result["warm_s"], "s"),
    })
    metrics.update({f"setup.{name}": (result["setup_layers"][name], _unit(name))
                    for name in SETUP_LAYER_METRICS})
    return metrics


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if "bytes" in name:
        return "B"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))  # the checker reads bucklab's oracles
    env = environment(args.seed)
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    plan = {"workload": args.workload, "seed": args.seed, "min_ops": RSS_OPS,
            "spans_path": str(OUT / f"spans-{tag}.json")}
    start = time.monotonic()
    try:
        if args.trace:
            _, result = run_worker(tmp, "trace", dict(
                plan, mode="trace", stop_at=start + args.seconds, first_index=0))
            ops = result["ops"]
            checked = ops + result.get("threads", {}).get("ops", [])
        else:
            # disjoint op indices, so no process repeats another's inputs
            results = [run_worker(tmp, f"measure{k}", dict(
                plan, mode="measure", stop_at=start + (k + 1) * args.seconds / PROCESSES,
                first_index=k * 1_000_000)) for k in range(PROCESSES)]
            ops = checked = [op for _, r in results for op in r["ops"]]
        failures = check_ops(args.workload, args.seed, checked)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    if args.trace:
        metrics = per_layer(result)
        stopped = [result.get("stopped")]
    else:
        metrics = end_to_end(results, len(failures))
        stopped = [r.get("stopped") for _, r in results]
    print(f"env {json.dumps(env, sort_keys=True)}")
    op_seconds = [op["seconds"] for op in ops]
    print(f"workload {args.workload}: {len(ops)} ops in "
          f"{sum(op_seconds):.2f} s, {len(failures)} failed")
    if not args.trace:
        # shown, not reported as metrics: they move with the host's speed phases
        print(f"op_p50_s {statistics.median(op_seconds):.6g} s, "
              f"ops_per_s {len(op_seconds) / sum(op_seconds):.6g} 1/s")
    for reason in filter(None, stopped):
        print(f"stopped early: {reason}")
    for failure in failures:
        print(f"FAILED {failure}")
    if args.trace and result["absent"]:
        print(f"absent hooks: {', '.join(result['absent'])}")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:.6g} {unit}")
    summary = {
        "correct": not failures,
        "attempted": len(checked),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    details = {"env": env, "failures": failures, "op_seconds": op_seconds}
    if not args.trace:
        details["setup_seconds"] = [setup for setup, _ in results]
    (OUT / f"result-{tag}.json").write_text(json.dumps(dict(summary, **details), indent=1))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
