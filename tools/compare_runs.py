#!/usr/bin/env python3
"""Byte comparison of the runs of two bucklab source trees.

    python3 tools/compare_runs.py PARENT_SRC CHANGE_SRC

Each ``*_SRC`` is a directory holding the ``bucklab`` package (a
checkout's ``src``). Every command of ``COMMANDS`` runs once per tree,
each in a fresh process at one BLAS thread with its own run root, and
``bucklab report`` runs on the run directory it wrote. The script prints
every difference between the two trees' results: exit code, stdout
(apart from the ``run_dir=`` line), stderr, each file of the run
directory (the manifest apart from its ``started_utc`` and
``finished_utc``) and the report. A CSV or ``.dat`` file that differs
but has the same shape and the same non-numeric cells in both trees
gets one more line, ``max relative difference X over N numeric cells``,
so that digits that moved are measured, not eyeballed. It exits 0 only
when nothing differs. Standard library only.
"""
from __future__ import annotations

import difflib
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

COMMANDS = [
    ["identity-scan", "--domain", "disk", "--refine", "3", "--kind", "liu",
     "--lmin", "1", "--lmax", "60", "--points", "20"],
    ["identity-scan", "--domain", "disk", "--refine", "3", "--kind", "friedlander",
     "--lmin", "0.5", "--lmax", "40", "--points", "20"],
    ["identity-scan", "--domain", "rectangle", "--nx", "16", "--ny", "16", "--kind", "liu",
     "--lmin", "1", "--lmax", "60", "--points", "20"],
    ["identity-scan", "--domain", "rectangle", "--nx", "16", "--ny", "16",
     "--kind", "friedlander", "--lmin", "0.5", "--lmax", "40", "--points", "20"],
    ["identity-scan", "--domain", "disk", "--refine", "5", "--kind", "liu",
     "--lmin", "1", "--lmax", "60", "--points", "4"],
    ["identity-scan", "--domain", "disk", "--refine", "5", "--kind", "friedlander",
     "--lmin", "-0.5", "--lmax", "-0.011", "--points", "2"],
    ["beta1-scan", "--domain", "disk", "--refine", "3", "--lmin", "0.4", "--lmax", "26",
     "--points", "20"],
    ["counterexample", "--domain", "disk", "--refine", "3", "--lambda", "7.5",
     "--trials", "50"],
    ["counterexample", "--domain", "disk", "--refine", "3", "--lambda", "20"],
    ["spectrum", "--domain", "rectangle", "--nx", "16", "--ny", "16", "--problem", "neumann",
     "--count", "6"],
    ["spectrum", "--domain", "disk", "--refine", "3", "--problem", "navier", "--count", "6"],
    # a new radius: fresh assembly and fresh pencils
    ["spectrum", "--domain", "disk", "--refine", "3", "--radius", "1.3",
     "--problem", "dirichlet", "--count", "6"],
    ["spectrum", "--domain", "disk", "--refine", "3", "--radius", "1.3",
     "--problem", "buckling", "--count", "6"],
    ["spherecap", "--eps-list", "0.1"],
    ["spherecap", "--eps-list", "0.4,0.2,0.1,0.05"],
    ["spherecap", "--eps-list", "0.3", "--grading", "uniform"],
    # exit 1: lambda within the margin below Lambda1 of disk level 2
    ["counterexample", "--domain", "disk", "--refine", "2", "--lambda", "14.685"],
    # exit 2: an out-of-range flag
    ["spectrum", "--count", "0"],
]

_TIMESTAMPS = ("started_utc", "finished_utc")


def _bucklab(src: Path, argv: list[str], cwd: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
    return subprocess.run([sys.executable, "-m", "bucklab.cli", *argv], cwd=cwd, env=env,
                          capture_output=True, text=True)


def capture(src: Path, argv: list[str], workdir: Path) -> dict[str, list[str]]:
    """What one command run from ``src`` shows, by aspect: its exit
    code, stdout, stderr, each file of its run directory and the report
    on it, each as lines with the run-specific parts left out."""
    root = workdir / "runs"
    proc = _bucklab(src, [*argv, "--run-root", str(root)], workdir)
    shown = {
        "exit code": [str(proc.returncode)],
        "stdout": [line for line in proc.stdout.splitlines()
                   if not line.startswith("run_dir=")],
        "stderr": proc.stderr.splitlines(),
    }
    for run_dir in sorted(root.iterdir()) if root.exists() else ():
        for path in sorted(run_dir.iterdir()):
            text = path.read_text()
            if path.name == "manifest.json":
                meta = {k: v for k, v in json.loads(text).items() if k not in _TIMESTAMPS}
                text = json.dumps(meta, indent=2, sort_keys=True)
            shown[f"file {path.name}"] = text.splitlines()
        report = _bucklab(src, ["report", "--run", str(run_dir)], workdir)
        shown["report"] = [f"exit code {report.returncode}", *report.stdout.splitlines(),
                           *report.stderr.splitlines()]
    return shown


def _number(cell: str) -> float | None:
    """The finite number a cell holds, or None."""
    try:
        value = float(cell)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def numeric_difference(a: list[str], b: list[str]) -> str | None:
    """``max relative difference X over N numeric cells`` of two tables
    of comma- or whitespace-separated cells, or None unless they have the
    same shape and the same non-numeric cells."""
    rows_a, rows_b = ([re.split(r"[,\s]+", line.strip()) for line in t] for t in (a, b))
    if [len(r) for r in rows_a] != [len(r) for r in rows_b]:
        return None
    worst, count = 0.0, 0
    for x, y in zip(sum(rows_a, []), sum(rows_b, [])):
        u, v = _number(x), _number(y)
        if u is None or v is None:
            if x != y:
                return None
            continue
        count += 1
        if u != v:
            worst = max(worst, abs(u - v) / max(abs(u), abs(v)))
    return f"max relative difference {worst:.3g} over {count} numeric cells"


def differences(parent: dict[str, list[str]], change: dict[str, list[str]]) -> list[str]:
    """One line per differing aspect, then its measured numeric difference
    (CSV and ``.dat`` files, see :func:`numeric_difference`) and its
    differing lines."""
    lines = []
    for aspect in sorted(parent.keys() | change.keys()):
        a, b = parent.get(aspect), change.get(aspect)
        if a == b:
            continue
        if a is None or b is None:
            lines.append(f"  {aspect}: only in {'parent' if b is None else 'change'}")
            continue
        lines.append(f"  {aspect}:")
        if aspect.endswith((".csv", ".dat")) and (measured := numeric_difference(a, b)):
            lines.append(f"    {measured}")
        lines.extend("    " + d for d in difflib.unified_diff(
            a, b, "parent", "change", lineterm="", n=0))
    return lines


def compare(parent_src, change_src, commands=COMMANDS) -> list[str]:
    """Every difference between the runs of ``commands`` from the two
    trees, as printable lines; empty when they agree."""
    parent_src, change_src = Path(parent_src).resolve(), Path(change_src).resolve()
    lines = []
    with tempfile.TemporaryDirectory(prefix="compare_runs-") as tmp:
        for k, argv in enumerate(commands):
            shown = []
            for side, src in (("parent", parent_src), ("change", change_src)):
                workdir = Path(tmp) / f"{k}-{side}"
                workdir.mkdir()
                shown.append(capture(src, argv, workdir))
            diff = differences(*shown)
            if diff:
                lines += [f"differs: bucklab {' '.join(argv)}", *diff]
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: compare_runs.py PARENT_SRC CHANGE_SRC", file=sys.stderr)
        return 2
    lines = compare(*argv)
    for line in lines:
        print(line)
    print(f"{len(COMMANDS)} commands: "
          + ("identical" if not lines else "differences found"))
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
