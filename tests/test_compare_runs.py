"""tools/compare_runs.py, the byte comparison of two source trees' runs."""
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ARGV = ["spectrum", "--domain", "disk", "--refine", "1", "--count", "2"]


def _tool():
    spec = importlib.util.spec_from_file_location("compare_runs",
                                                  ROOT / "tools" / "compare_runs.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_src_runs_identical_to_themselves(tmp_path):
    """Two runs of one command from ``src`` in fresh processes differ in
    nothing but their run directory and timestamps, and what is compared
    is a successful run with its files and report."""
    tool = _tool()
    assert tool.compare(ROOT / "src", ROOT / "src", [ARGV]) == []
    shown = tool.capture(ROOT / "src", ARGV, tmp_path)
    assert shown["exit code"] == ["0"]
    assert shown["stdout"][0].startswith("dirichlet spectrum: ")
    assert {"file spectrum.csv", "file manifest.json"} <= set(shown)
    assert shown["report"][:2] == ["exit code 0", "command: spectrum"]
    assert not any("utc" in line for line in shown["file manifest.json"])


def test_differences_name_each_differing_line():
    tool = _tool()
    parent = {"stdout": ["a", "b"], "file x.csv": ["h", "1"]}
    change = {"stdout": ["a", "c"], "file y.csv": ["h"]}
    lines = tool.differences(parent, change)
    assert "  stdout:" in lines and "    -b" in lines and "    +c" in lines
    assert "  file x.csv: only in parent" in lines
    assert "  file y.csv: only in change" in lines
    assert tool.differences(parent, dict(parent)) == []
