"""Run persistence: parameter sweeps, CSV/plot-data emission, manifests,
immutable run directories, flat key=value configs, and the process-wide
tallies and memos that manifests record.

Numeric CSV content is deterministic (17 significant digits, fixed
column order); timestamps live only in the manifest, which is written
last as the completion marker.

Every count a manifest records is a tally declared in one table and
raised by :func:`tally`; a run records the difference of two
:func:`tallies` snapshots. The result memos of the other modules are
plain dicts kept in least-recently-used order by :func:`lru_get` and
:func:`lru_put`, whose lookups count under ``caches``. One lock guards
all of them.
"""
from __future__ import annotations

import json
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError

RUN_ROOT_ENV = "BUCKLAB_RUNS"
ARTIFACT_VERSION = "0.1.0"

_LOCK = threading.Lock()
# every tally of the process, by manifest section; each starts at 0 and
# only grows. solver: checked sparse factorizations, trusted
# (sparse_ldlt) or failed a check (check_failed), and Lanczos solves
# rerun (lanczos_retry); clamped_modes: clamped cap modes solved by the
# eigensolver or ruled out by a Cholesky factorization; caches: lookups
# of each result memo that hit or missed
_TALLIES = {
    "solver": {"sparse_ldlt": 0, "check_failed": 0, "lanczos_retry": 0},
    "clamped_modes": {"solved": 0, "ruled_out": 0},
    "caches": {name: {"hits": 0, "misses": 0} for name in
               ("pairs", "prefixes", "trace_pencils", "clamped_fields", "orders")},
}


def tally(section: str, **counts: int) -> None:
    """Add each of ``counts`` to its tally in ``section``."""
    with _LOCK:
        for key, n in counts.items():
            _TALLIES[section][key] += n


def tallies(since: dict | None = None) -> dict:
    """Every tally so far in this process, by section (``solver``,
    ``clamped_modes``, ``caches``); with ``since``, an earlier snapshot,
    only the counts added after it."""
    with _LOCK:
        return _less(_TALLIES, since)


def _less(counts, since):
    if not isinstance(counts, dict):
        return counts - (since or 0)
    return {k: _less(v, since and since[k]) for k, v in counts.items()}


def lru_get(cache: dict, key, name: str, usable=None):
    """``cache[key]``, now the most recently used entry, or None when
    there is none or ``usable(entry)`` is false; the lookup counts as a
    hit or a miss of ``caches.name``."""
    with _LOCK:
        value = cache.pop(key, None)
        if value is not None:
            cache[key] = value
    if value is not None and usable is not None and not usable(value):
        value = None
    with _LOCK:
        _TALLIES["caches"][name]["misses" if value is None else "hits"] += 1
    return value


def lru_put(cache: dict, key, value, size: int):
    """Store ``value`` as the most recently used entry of ``cache``, drop
    the least recently used ones beyond ``size``, return ``value``."""
    with _LOCK:
        cache.pop(key, None)
        cache[key] = value
        while len(cache) > size:
            del cache[next(iter(cache))]
    return value


def fmt(value) -> str:
    """Deterministic text for CSV cells."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        if np.isposinf(value):
            return "+inf"
        if np.isneginf(value):
            return "-inf"
        return f"{float(value):.17g}"
    return str(value)


def csv_text(columns: list[str], rows) -> str:
    """CSV text: a header of ``columns``, then one line per row of
    ``rows`` (sequences as long as ``columns``), each cell through
    :func:`fmt`."""
    lines = [",".join(columns)]
    lines.extend(",".join(fmt(cell) for cell in row) for row in rows)
    return "\n".join(lines) + "\n"


@dataclass
class SweepResult:
    """Per-point records of a parameter sweep plus skip log and summary."""

    grid: list[float]
    records: list[dict] = field(default_factory=list)
    skips: list[dict] = field(default_factory=list)
    summary: dict = field(default_factory=dict)

    def to_csv(self, columns: list[str]) -> str:
        return csv_text(columns, ([rec[c] for c in columns] for rec in self.records))

    def tables(self, name: str, columns: list[str]) -> dict[str, str]:
        """Output files of the sweep: the records as CSV under ``name``
        and, when any point was skipped, ``skips.csv``, its grid index
        and reason (commas as semicolons)."""
        tables = {name: self.to_csv(columns)}
        if self.skips:
            tables["skips.csv"] = csv_text(
                ["index", "reason"],
                ((s["index"], str(s["reason"]).replace(",", ";")) for s in self.skips))
        return tables


def run_sweep(grid, point_fn, threads: int, skip) -> SweepResult:
    """Evaluate ``point_fn`` at every grid value, on ``threads`` worker
    threads when more than one.

    ``point_fn`` returns the record of one point. A point that raises
    ``skip`` (an exception type or tuple of types) is logged as a skip
    with its grid index and message, and the sweep goes on; any other
    exception propagates. Records and skips stay in grid order whatever
    the thread count.
    """
    grid = [float(x) for x in grid]

    def attempt(value: float):
        try:
            return point_fn(value)
        except skip as exc:
            return exc

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            outcomes = list(pool.map(attempt, grid))
    else:
        outcomes = [attempt(value) for value in grid]
    result = SweepResult(grid=grid)
    for i, out in enumerate(outcomes):
        if isinstance(out, BaseException):
            result.skips.append({"index": i, "reason": str(out)})
        else:
            result.records.append(out)
    return result


@dataclass
class RunManifest:
    command: str
    params: dict
    version: str = ARTIFACT_VERSION
    hashes: dict = field(default_factory=dict)
    started_utc: str = ""
    finished_utc: str = ""
    outputs: list[str] = field(default_factory=list)
    # the run's share of every tally (tallies), one JSON key per
    # section; kept out of the CSVs, which hold results only. A cache hit
    # may be a result computed by an earlier run of the process
    tallies: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(
            {
                "command": self.command,
                "params": self.params,
                "version": self.version,
                "hashes": self.hashes,
                "started_utc": self.started_utc,
                "finished_utc": self.finished_utc,
                "outputs": self.outputs,
                **self.tallies,
            },
            indent=2,
            sort_keys=True,
        )


def default_run_root() -> Path:
    return Path(os.environ.get(RUN_ROOT_ENV, "runs"))


def new_run_dir(root: Path | str, command: str) -> Path:
    """Fresh timestamped directory; collisions get a numeric suffix,
    existing runs are never reused or overwritten.

    When the plain name is taken, one scan of ``root`` finds the highest
    suffix taken in this second, and suffixes are tried from the next one
    up; ``mkdir`` decides, so a directory another process made meanwhile
    is skipped, not reused."""
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    base = f"{time.strftime('%Y%m%d-%H%M%S', time.gmtime())}-{command}"
    candidate, suffix = root / base, None
    while True:
        try:
            candidate.mkdir()
            return candidate
        except FileExistsError:
            if suffix is None:
                suffix = max((_run_suffix(name, base) for name in os.listdir(root)
                              if name.startswith(base)), default=0)
            suffix += 1
            candidate = root / f"{base}-{suffix}"


def _run_suffix(name: str, base: str) -> int:
    """The suffix of the run directory ``name`` made from ``base`` (0 for
    ``base`` itself), or -1 when ``name`` is not one of them."""
    if name == base:
        return 0
    rest = name[len(base) + 1:]
    return int(rest) if name.startswith(base + "-") and rest.isdecimal() else -1


def write_results(run_dir: Path | str, manifest: RunManifest, tables: dict[str, str]) -> list[Path]:
    """Write output files then the manifest (atomic completion marker).

    ``tables`` maps file names to fully formatted text content. Returns
    the written paths, manifest last.
    """
    run_dir = Path(run_dir)
    paths = []
    for name, content in tables.items():
        p = run_dir / name
        p.write_text(content)
        paths.append(p)
    manifest.outputs = sorted(tables)
    manifest.finished_utc = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    tmp = run_dir / "manifest.json.tmp"
    tmp.write_text(manifest.to_json() + "\n")
    final = run_dir / "manifest.json"
    os.replace(tmp, final)
    paths.append(final)
    return paths


def plot_data_content(series: dict[str, np.ndarray], xlog: bool = False, ylog: bool = False) -> str:
    """Whitespace-delimited columns with a '#' header naming columns and
    log-axis hints; consumable by gnuplot-style tools."""
    names = list(series)
    columns = [np.asarray(series[n], dtype=np.float64) for n in names]
    if columns and any(len(c) != len(columns[0]) for c in columns):
        raise ValueError("plot series must have equal lengths")
    lines = ["# " + " ".join(names)]
    hints = [h for h, on in (("xlog", xlog), ("ylog", ylog)) if on]
    if hints:
        lines.append("# " + " ".join(hints))
    n_rows = len(columns[0]) if columns else 0
    for i in range(n_rows):
        lines.append(" ".join(fmt(c[i]) for c in columns))
    return "\n".join(lines) + "\n"


def load_config(path: Path | str) -> dict[str, str]:
    """Flat `key = value` file; '#' comments and blank lines ignored."""
    raw: dict[str, str] = {}
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = stripped.partition("=")
            key, value = key.strip(), value.strip()
            if not key or not value:
                raise ConfigError(f"{path}:{lineno}: empty key or value")
            if key in raw:
                raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
            raw[key] = value
    return raw
