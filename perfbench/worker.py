"""One workload process: import bucklab, run the warm-up op, then time ops.

Usage: python3 perfbench/worker.py PLAN_JSON RESULT_JSON

The plan names the workload, seed, mode and run root; ``run.py`` writes
it and reads the result. Modes:

* ``measure``: a closed loop of ops with tracing off until the
  ``time.monotonic`` clock reaches ``stop_at`` and at least ``min_ops``
  ops have run.
* ``trace``: the same loop, alternating untraced and traced ops, then
  one identity-scan op timed at ``--threads 1`` and ``--threads 2``.

Every CLI call gets its own ``--run-root`` under the plan's run root, so
the checker finds each call's run directory without parsing output.
The CLI's printed output is captured and dropped; its exit code and any
exception are recorded per call.
"""
from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
# A run stops early once the process holds this much: growing caches
# must not exhaust a shared machine.
RSS_STOP_MB = 3072
THREADS_PROBE_PAIRS = 2


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _run_op(cli, calls: list[list[str]], run_root: Path) -> tuple[float, list[dict]]:
    """Wall seconds of one op and the outcome of each of its CLI calls."""
    outcomes = []
    t0 = time.perf_counter()
    for j, argv in enumerate(calls):
        root = run_root / f"call{j}"
        sink = io.StringIO()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = cli.main(argv + ["--run-root", str(root)])
            error = None if code == 0 else sink.getvalue()[-2000:]
        except Exception:  # a crash is a failed op; the loop goes on
            code, error = None, traceback.format_exc()[-2000:]
        outcomes.append({"code": code, "error": error, "run_root": str(root)})
    return time.perf_counter() - t0, outcomes


def main(plan_path: str, result_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text())
    sys.path.insert(0, str(ROOT / "src"))
    import bucklab.cli as cli

    # only the checkout's own sources may be measured
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"bucklab imported from {cli.__file__}, not {ROOT / 'src'}", file=sys.stderr)
        return 2

    tracer = tracing.Tracer() if plan["mode"] == "trace" else None
    result = _warm_up(cli, plan, tracer)
    if "fatal" not in result:
        _loop(cli, plan, tracer, result)
        if tracer is not None:
            _finish_trace(cli, plan, tracer, result)
    Path(result_path).write_text(json.dumps(result))
    return 0


def _warm_up(cli, plan: dict, tracer) -> dict:
    """Run the untimed warm-up op; under tracing, set-up's work shows here."""
    workload = plan["workload"]
    if tracer is not None:
        tracer.install()
    warm_s, warm = _run_op(cli, workloads.op_calls(workload, workloads.WARMUP[workload]),
                           Path(plan["run_root"]) / "warmup")
    result = {"warm_end": time.monotonic(), "warm_s": warm_s, "warmup": warm, "ops": []}
    if tracer is not None:
        tracer.uninstall()
        result["absent"] = tracer.absent
        result["warm_span_range"] = [0, len(tracer.spans)]
        result["setup_layers"] = tracing.summarize(tracer.spans, 0, len(tracer.spans))
    if any(c["code"] != 0 for c in warm):
        result["fatal"] = "warm-up op failed"
    return result


def _finish_trace(cli, plan: dict, tracer, result: dict) -> None:
    """Per-layer figures, the threads probe, and the spans file."""
    traced = [op for op in result["ops"] if op["traced"]]
    result["layers"] = tracing.layer_metrics([op["summary"] for op in traced])
    for op in traced:
        op["self_s"] = op.pop("summary")["_self_total_s"]
    if plan["workload"] == "identity-scan":
        result["threads"] = _threads_probe(cli, plan["seed"], Path(plan["run_root"]))
    spans_path = Path(plan["spans_path"])
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    spans_path.write_text(json.dumps({
        "hooks": [h[:3] for h in tracing.HOOKS],
        "absent": tracer.absent,
        "warmup": {"seconds": result["warm_s"], "span_range": result["warm_span_range"]},
        "ops": [{k: op[k] for k in ("index", "seconds", "span_range")} for op in traced],
        "spans": tracer.spans,
    }))


def _loop(cli, plan: dict, tracer, result: dict) -> None:
    workload, seed = plan["workload"], plan["seed"]
    run_root = Path(plan["run_root"])
    ops = result["ops"]
    while True:
        i = plan["first_index"] + len(ops)
        calls = workloads.op_calls(workload, workloads.op_params(workload, seed, i))
        traced = tracer is not None and i % 2 == 1
        op = {"index": i, "traced": traced}
        if traced:
            tracer.install()
            first = len(tracer.spans)
        op["seconds"], op["calls"] = _run_op(cli, calls, run_root / f"op{i}")
        if traced:
            tracer.uninstall()
            op["span_range"] = [first, len(tracer.spans)]
            op["summary"] = tracing.summarize(tracer.spans, first, len(tracer.spans))
        op["rss_mb"] = _rss_mb()
        ops.append(op)
        if time.monotonic() >= plan["stop_at"] and len(ops) >= plan["min_ops"]:
            break
        if op["rss_mb"] > RSS_STOP_MB:
            result["stopped"] = f"peak RSS above {RSS_STOP_MB} MB"
            break


def _threads_probe(cli, seed: int, run_root: Path) -> dict:
    """One identity-scan op, untraced, at --threads 1 and at --threads 2,
    alternating; inputs lie beyond any index the timed loop reaches."""
    seconds = {1: [], 2: []}
    outcomes = []
    for k in range(THREADS_PROBE_PAIRS):
        params = workloads.op_params("identity-scan", seed, 1_000_000 + k)
        for threads in ((1, 2) if k % 2 == 0 else (2, 1)):
            calls = workloads.op_calls("identity-scan", params, threads)
            wall, calls_out = _run_op(cli, calls, run_root / f"threads{threads}-{k}")
            seconds[threads].append(wall)
            outcomes.append({"index": 1_000_000 + k, "threads": threads, "calls": calls_out})
    return {"speedup": sum(seconds[1]) / sum(seconds[2]), "ops": outcomes}


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
