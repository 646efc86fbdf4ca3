import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from bucklab import ConfigError, RunManifest, load_config, runio, spectrum, write_results
from bucklab.cli import main
from bucklab.runio import (
    SweepResult,
    csv_text,
    fmt,
    lru_get,
    lru_put,
    new_run_dir,
    plot_data_content,
    run_sweep,
    tallies,
    tally,
)


def test_fmt_round_trips_floats():
    for x in (0.1, 1.0 / 3.0, 1e-300, np.pi):
        assert float(fmt(x)) == x
    assert fmt(True) == "true"
    assert fmt(False) == "false"
    assert fmt(float("inf")) == "+inf"
    assert fmt(float("-inf")) == "-inf"
    assert fmt(3) == "3"


def test_sweep_csv():
    res = SweepResult([1.0, 2.0])
    res.records.append({"lambda": 1.0, "holds": True})
    res.records.append({"lambda": 2.0, "holds": False})
    text = res.to_csv(["lambda", "holds"])
    assert text == "lambda,holds\n1,true\n2,false\n"
    assert res.tables("x.csv", ["lambda", "holds"]) == {"x.csv": text}
    res.skips.append({"index": 2, "reason": "no point, here"})
    assert res.tables("x.csv", ["lambda", "holds"]) == {
        "x.csv": text, "skips.csv": "index,reason\n2,no point; here\n"}


def test_spectrum_csv_rows(disk2):
    s = spectrum(disk2, "dirichlet", 2)
    rows = csv_text(["index", "value", "problem", "mesh_hash"],
                    [(i, v, s.problem, s.source) for i, v in enumerate(s.values)])
    rows = rows.splitlines()[1:]
    assert len(rows) == 2
    idx, value, problem, source = rows[0].split(",")
    assert idx == "0"
    assert problem == "dirichlet"
    assert source == disk2.content_hash()
    assert float(value) == s.values[0]


@pytest.mark.parametrize("threads", [1, 2])
def test_run_sweep_keeps_grid_order(threads):
    def point(x):
        time.sleep((5 - x) * 0.01)  # with threads, later points finish first
        if x in (2.0, 4.0):
            raise ValueError(f"no point at {x}")
        return {"x": x}

    res = run_sweep([1, 2, 3, 4, 5], point, threads, ValueError)
    assert res.grid == [1.0, 2.0, 3.0, 4.0, 5.0]
    assert [r["x"] for r in res.records] == [1.0, 3.0, 5.0]
    assert res.skips == [
        {"index": 1, "reason": "no point at 2.0"},
        {"index": 3, "reason": "no point at 4.0"},
    ]
    with pytest.raises(ZeroDivisionError):
        run_sweep([1, 0, 2], lambda x: {"y": 1 / x}, threads, ValueError)


def test_run_dirs_never_collide(tmp_path):
    a = new_run_dir(tmp_path, "spectrum")
    b = new_run_dir(tmp_path, "spectrum")
    assert a != b
    assert a.is_dir() and b.is_dir()


def test_run_dirs_in_one_second_probe_once(tmp_path, monkeypatch):
    """Runs of one command in the same second into one root each get a
    new directory from at most two mkdir attempts, not one attempt per
    earlier run: the plain name, then one past the highest suffix a scan
    of the root finds. A directory another process made, before the scan
    or between the scan and the mkdir, is skipped, never reused."""
    monkeypatch.setattr(time, "strftime", lambda fmt, t=None: "20260101-000000")
    attempts = []
    mkdir, listdir = Path.mkdir, os.listdir

    def counted(self, *args, **kwargs):
        if self.parent == tmp_path:
            attempts.append(self.name)
        return mkdir(self, *args, **kwargs)

    monkeypatch.setattr(Path, "mkdir", counted)
    made = []
    for i in range(200):
        if i == 100:  # another process takes the next suffix
            mkdir(tmp_path / "20260101-000000-identity-scan-100")
        if i == 150:  # ... and the one after it, unseen by the scan
            mkdir(tmp_path / "20260101-000000-identity-scan-151")
            monkeypatch.setattr(os, "listdir", lambda path: [
                name for name in listdir(path) if not name.endswith("-151")])
        before = len(attempts)
        made.append(new_run_dir(tmp_path, "identity-scan"))
        monkeypatch.setattr(os, "listdir", listdir)
        assert len(attempts) - before == (1 if i == 0 else 3 if i == 150 else 2)
    assert len(set(made)) == 200
    assert made[0].name == "20260101-000000-identity-scan"
    assert made[1].name == "20260101-000000-identity-scan-1"
    assert made[150].name == "20260101-000000-identity-scan-152"
    assert not {"20260101-000000-identity-scan-100",
                "20260101-000000-identity-scan-151"} & {p.name for p in made}
    assert new_run_dir(tmp_path, "spectrum").name == "20260101-000000-spectrum"


def test_write_results_manifest_last_and_complete(tmp_path):
    run_dir = new_run_dir(tmp_path, "demo")
    manifest = RunManifest(command="demo", params={"x": 1})
    paths = write_results(run_dir, manifest, {"out.csv": "a,b\n1,2\n"})
    assert paths[-1].name == "manifest.json"
    meta = json.loads((run_dir / "manifest.json").read_text())
    assert meta["outputs"] == ["out.csv"]
    assert all((run_dir / name).exists() for name in meta["outputs"])
    assert main(["report", "--run", str(run_dir)]) == 0
    (run_dir / "out.csv").unlink()  # a listed output missing
    assert main(["report", "--run", str(run_dir)]) == 1


def test_killed_run_detectable(tmp_path):
    run_dir = new_run_dir(tmp_path, "demo")
    (run_dir / "out.csv").write_text("a\n1\n")  # results but no manifest
    assert main(["report", "--run", str(run_dir)]) == 1


def test_plot_data_content():
    lines = plot_data_content(
        {"eps": np.array([0.1, 0.01]), "quotient": np.array([-1.0, -100.0])},
        xlog=True,
        ylog=True,
    ).splitlines()
    assert lines[0] == "# eps quotient"
    assert lines[1] == "# xlog ylog"
    assert len(lines) == 4

    assert plot_data_content({"eps": np.array([]), "q": np.array([])}) == "# eps q\n"

    with pytest.raises(ValueError):
        plot_data_content({"a": np.array([1.0]), "b": np.array([1.0, 2.0])})


def test_default_run_root_env(monkeypatch, tmp_path):
    from bucklab.runio import default_run_root

    monkeypatch.delenv("BUCKLAB_RUNS", raising=False)
    assert str(default_run_root()) == "runs"
    monkeypatch.setenv("BUCKLAB_RUNS", str(tmp_path / "elsewhere"))
    assert default_run_root() == tmp_path / "elsewhere"


def test_load_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\nrefine = 3\n\ndomain = disk  # inline\n")
    assert load_config(cfg) == {"refine": "3", "domain": "disk"}

    empty = tmp_path / "empty.cfg"
    empty.write_text("")
    assert load_config(empty) == {}

    bad = tmp_path / "bad.cfg"
    bad.write_text("refine 3\n")
    with pytest.raises(ConfigError) as err:
        load_config(bad)
    assert ":1:" in str(err.value)

    dup = tmp_path / "dup.cfg"
    dup.write_text("a = 1\na = 2\n")
    with pytest.raises(ConfigError):
        load_config(dup)


class _LockedOnly(dict):
    """A dict that fails every change made to it while the lock behind
    every memo and tally is not held."""

    def _changed(self, key):
        assert runio._LOCK.locked(), f"{key!r} changed without runio._LOCK"

    def __setitem__(self, key, value):
        self._changed(key)
        super().__setitem__(key, value)

    def __delitem__(self, key):
        self._changed(key)
        super().__delitem__(key)

    def pop(self, key, *default):
        self._changed(key)
        return super().pop(key, *default)


def _locked_only(table: dict) -> _LockedOnly:
    return _LockedOnly({k: _locked_only(v) if isinstance(v, dict) else v
                        for k, v in table.items()})


def test_tally_and_memo_writes_hold_the_lock(monkeypatch):
    """In one thread, so deterministically: every write to a tally and
    every change of a memo by ``lru_get``, ``lru_put`` and ``tally``
    happens while ``runio._LOCK`` is held, through a hit, a miss, an
    unusable hit, an eviction and a raise."""
    monkeypatch.setattr(runio, "_TALLIES", _locked_only(runio._TALLIES))
    start = tallies()
    memo = _LockedOnly()
    assert lru_get(memo, "a", "pairs") is None
    assert lru_put(memo, "a", 1, 1) == 1
    assert lru_get(memo, "a", "pairs") == 1
    assert lru_get(memo, "a", "pairs", usable=lambda value: False) is None
    lru_put(memo, "b", 2, 1)
    assert memo == {"b": 2}
    tally("solver", sparse_ldlt=1)
    counts = tallies(since=start)
    assert counts["caches"]["pairs"] == {"hits": 1, "misses": 2}
    assert counts["solver"]["sparse_ldlt"] == 1


def test_memos_and_tallies_shared_by_threads():
    """Eight threads, switching every microsecond, look up seven keys in
    two memos of sizes 3 and 5 and raise a tally at every lookup: each
    lookup counts once, as a hit or a miss, every raise is counted, each
    hit returns its key's value, each memo stays within its size and is
    changed only under the one lock."""
    memos = {"pairs": (_LockedOnly(), 3), "orders": (_LockedOnly(), 5)}
    lookups = 4000

    def look_up(i: int) -> bool:
        name = ("pairs", "orders")[i % 2]
        memo, size = memos[name]
        key = i % 7
        value = lru_get(memo, key, name)
        if value is None:
            value = lru_put(memo, key, ("value", key), size)
        tally("clamped_modes", solved=1, ruled_out=2)
        return value == ("value", key)

    start = tallies()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            found = list(pool.map(look_up, range(lookups), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert all(found)
    counts = tallies(since=start)
    for name, (memo, size) in memos.items():
        assert counts["caches"][name]["hits"] + counts["caches"][name]["misses"] == lookups // 2
        assert counts["caches"][name]["misses"] >= 7
        assert len(memo) <= size
    assert counts["clamped_modes"] == {"solved": lookups, "ruled_out": 2 * lookups}


def test_tallies_since_a_snapshot():
    """A snapshot copies the table, and ``since`` subtracts it key by key,
    nested sections too."""
    start = tallies()
    tally("solver", sparse_ldlt=2, check_failed=1)
    assert lru_get({}, "missing", "trace_pencils") is None
    counts = tallies(since=start)
    assert counts["solver"] == {"sparse_ldlt": 2, "check_failed": 1, "lanczos_retry": 0}
    assert counts["caches"]["trace_pencils"] == {"hits": 0, "misses": 1}
    assert counts["clamped_modes"] == {"solved": 0, "ruled_out": 0}
    assert tallies()["solver"]["sparse_ldlt"] == start["solver"]["sparse_ldlt"] + 2
