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


def test_numeric_files_report_their_max_relative_difference():
    """A CSV or .dat file that differs gets one line measuring how far its
    numbers moved, when both have the same shape and non-numeric cells;
    the differing lines follow it. Other files and tables of another
    shape or other text get no such line."""
    tool = _tool()
    parent = {"file a.csv": ["lambda,beta1,holds", "1.5,2.0,true", "3.0,-4.0,false"],
              "file a.dat": ["# x y", "1 2.0"], "stdout": ["1.0"]}
    change = {"file a.csv": ["lambda,beta1,holds", "1.5,2.000002,true", "3.0,-4.0,false"],
              "file a.dat": ["# x y", "1 2.5"], "stdout": ["1.1"]}
    lines = tool.differences(parent, change)
    assert lines[lines.index("  file a.csv:") + 1] == (
        "    max relative difference 1e-06 over 4 numeric cells")
    assert lines[lines.index("  file a.dat:") + 1] == (
        "    max relative difference 0.2 over 2 numeric cells")
    assert "    +1.5,2.000002,true" in lines
    assert not any("max relative" in line for line in lines[lines.index("  stdout:"):])
    for other in (["lambda,beta1,holds", "1.5,2.0,false", "3.0,-4.0,false"],
                  ["lambda,beta1,holds", "1.5,2.0,true"]):
        assert tool.numeric_difference(parent["file a.csv"], other) is None
