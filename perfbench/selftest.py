#!/usr/bin/env python3
"""Self-test of the output checks: a corrupted output is a failed op.

Usage: python3 perfbench/selftest.py

For each case it runs op 0 of seed 0 through the CLI, checks that
the checker passes it, then corrupts one value in the op's output and
checks that the same op now counts as failed; a nonzero exit code must
fail the op too. A hook whose function no longer exists must be
reported as absent by the tracer. Exits 0 when every case behaves, 1
otherwise.
"""
from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

import run
import tracing
import worker
import workloads


def _replace_field(text: str, row: int, column: int, value) -> str:
    lines = text.splitlines()
    fields = lines[row].split(",")
    fields[column] = value(fields[column])
    lines[row] = ",".join(fields)
    return "\n".join(lines) + "\n"


# (workload, index of the op's CLI call, output file, corruption)
CORRUPTIONS = (
    # holds is the only column written as ",true," inside a row
    ("identity-scan", 0, "identities.csv", lambda t: t.replace(",true,", ",false,", 1)),
    # spectra-mix calls: 4 spectra, bounded, divergent, cap
    ("spectra-mix", 0, "spectrum.csv",
     lambda t: _replace_field(t, 1, 1, lambda v: repr(float(v) * 1.01))),
    ("spectra-mix", 5, "divergence.csv",
     lambda t: _replace_field(t, 1, 3, lambda v: v.lstrip("-"))),
    ("spectra-mix", 6, "spherecap.csv", lambda t: _replace_field(t, 1, 1, lambda v: "nan")),
)


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    import bucklab.cli as cli

    run.OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.OUT))
    problems = []
    try:
        for k, (workload, call, name, corrupt) in enumerate(CORRUPTIONS):
            calls = workloads.op_calls(workload, workloads.op_params(workload, 0, 0))
            _, outcomes = worker._run_op(cli, calls, tmp / f"case{k}")
            op = {"index": 0, "calls": outcomes}
            if run.check_ops(workload, 0, [op]):
                problems.append(f"{workload}: a correct op was counted as failed")
            path = next(Path(outcomes[call]["run_root"]).iterdir()) / name
            original = path.read_text()
            path.write_text(corrupt(original))
            if not run.check_ops(workload, 0, [op]):
                problems.append(f"{workload}: corrupted {name} passed the check")
            path.write_text(original)
            failed_call = dict(outcomes[call], code=1, error="injected failure")
            bad_exit = {"index": 0, "calls": outcomes[:call] + [failed_call] + outcomes[call + 1:]}
            if not run.check_ops(workload, 0, [bad_exit]):
                problems.append(f"{workload}: a nonzero exit code passed the check")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    hooks = tracing.HOOKS
    tracing.HOOKS = hooks + (("spectra", "bucklab.spectra", "removed_function", None),)
    try:
        if tracing.Tracer().absent != ["bucklab.spectra.removed_function"]:
            problems.append("a removed function was not reported as absent")
    finally:
        tracing.HOOKS = hooks
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest ok" if not problems else f"selftest: {len(problems)} failures")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
