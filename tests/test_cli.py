import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

from bucklab import cli, counterexample, traceops
from bucklab.cli import main
from bucklab.mesh import make_radial_grid
from bucklab.runio import tallies


def run_cli(args, tmp_path, capsys):
    code = main(args + ["--run-root", str(tmp_path / "runs")])
    out = capsys.readouterr()
    return code, out.out, out.err


def latest_run(tmp_path, command):
    runs = sorted((tmp_path / "runs").glob(f"*-{command}*"))
    assert runs
    return runs[-1]


def assert_no_failed_check(run_dir):
    """The run's manifest records no sparse factor that failed a check,
    so a change that makes a natural input fail one fails here instead
    of showing later as skips."""
    assert json.loads((run_dir / "manifest.json").read_text())["solver"]["check_failed"] == 0


def test_usage_errors_exit_2(capsys):
    assert main(["unknown-command"]) == 2
    assert main([]) == 2
    assert main(["spectrum", "--problem", "plate"]) == 2  # invalid choice
    assert main(["spectrum", "--order", "2"]) == 2  # no such flag


def test_domain_error_exits_1(tmp_path, capsys):
    code, out, err = run_cli(
        ["spectrum", "--domain", "disk", "--refine", "99"], tmp_path, capsys
    )
    assert code == 1
    assert "exceeds" in err


def test_spectrum_command(tmp_path, capsys):
    code, out, _ = run_cli(
        ["spectrum", "--domain", "disk", "--refine", "2", "--problem",
         "dirichlet", "--count", "3"],
        tmp_path, capsys,
    )
    assert code == 0
    assert "dirichlet spectrum:" in out
    run_dir = latest_run(tmp_path, "spectrum")
    csv = (run_dir / "spectrum.csv").read_text().splitlines()
    assert csv[0] == "index,value,problem,mesh_hash"
    assert len(csv) == 4
    first = float(csv[1].split(",")[1])
    assert abs(first - 5.783186) / 5.783186 < 0.01
    meta = json.loads((run_dir / "manifest.json").read_text())
    assert meta["command"] == "spectrum"
    assert "spectrum.csv" in meta["outputs"]
    assert_no_failed_check(run_dir)
    for problem in ("neumann", "buckling", "navier"):
        root = tmp_path / problem
        assert main(["spectrum", "--domain", "disk", "--refine", "2", "--problem", problem,
                     "--count", "3", "--run-root", str(root)]) == 0
        (run_dir,) = root.iterdir()
        assert_no_failed_check(run_dir)


def test_spectrum_prints_rounding_noise_as_zero(tmp_path, capsys):
    """The Neumann zero, rounding noise within the zero tolerance of the
    largest value, prints as 0; the CSV keeps the computed value."""
    code, out, _ = run_cli(
        ["spectrum", "--domain", "rectangle", "--nx", "16", "--ny", "16", "--problem",
         "neumann", "--count", "6"],
        tmp_path, capsys,
    )
    assert code == 0
    values = out.splitlines()[0].split(": ")[1].split()
    assert values[0] == "0" and values[1] == "9.86962"
    csv = (latest_run(tmp_path, "spectrum") / "spectrum.csv").read_text().splitlines()
    assert abs(float(csv[1].split(",")[1])) < 1e-9


def test_identity_scan_command(tmp_path, capsys):
    code, out, _ = run_cli(
        ["identity-scan", "--domain", "disk", "--refine", "2", "--kind", "liu",
         "--lmin", "1", "--lmax", "60", "--points", "8"],
        tmp_path, capsys,
    )
    assert code == 0
    assert "all_hold=true" in out
    run_dir = latest_run(tmp_path, "identity-scan")
    lines = (run_dir / "identities.csv").read_text().splitlines()
    assert lines[0] == "lambda,neg_count,lhs,rhs,holds,margin,nudged"
    assert len(lines) == 9


def test_counterexample_command(tmp_path, capsys):
    code, out, _ = run_cli(
        ["counterexample", "--domain", "disk", "--refine", "2", "--lambda", "20",
         "--eps", "1e-1,1e-2,1e-3"],
        tmp_path, capsys,
    )
    assert code == 0
    assert "slope=" in out
    run_dir = latest_run(tmp_path, "counterexample")
    csv = (run_dir / "divergence.csv").read_text().splitlines()
    assert csv[0] == "eps,numerator,denominator,quotient"
    dat = (run_dir / "divergence_loglog.dat").read_text().splitlines()
    assert dat[0].startswith("# eps")
    assert dat[1] == "# xlog ylog"
    assert_no_failed_check(run_dir)
    assert main(["report", "--run", str(run_dir)]) == 0
    report = capsys.readouterr().out
    assert "divergence.csv (3 data rows)" in report
    assert "divergence_loglog.dat (3 data rows)" in report


def test_counterexample_bounded_regime(tmp_path, capsys):
    code, out, _ = run_cli(
        ["counterexample", "--domain", "disk", "--refine", "2", "--lambda", "2",
         "--trials", "20"],
        tmp_path, capsys,
    )
    assert code == 0
    assert "regime=bounded-below" in out
    assert "passed=true" in out
    run_dir = latest_run(tmp_path, "counterexample")
    rows = (run_dir / "bounded_below.csv").read_text().splitlines()
    assert rows[0] == "quantity,value"
    as_dict = dict(r.split(",", 1) for r in rows[1:])
    assert as_dict["passed"] == "true"
    assert float(as_dict["beta1"]) > 0
    assert_no_failed_check(run_dir)


def test_failed_bounded_check_exits_1_after_writing_its_run(tmp_path, capsys, monkeypatch):
    """A bounded-regime check that fails still writes its run directory
    and prints its summary and run_dir= line; only the exit code is 1."""
    check = counterexample.bounded_below_check

    def failed(*args, **kwargs):
        return dataclasses.replace(check(*args, **kwargs), violations=1, passed=False)

    monkeypatch.setattr(counterexample, "bounded_below_check", failed)
    code, out, _ = run_cli(
        ["counterexample", "--domain", "disk", "--refine", "2", "--lambda", "2",
         "--trials", "5"],
        tmp_path, capsys,
    )
    assert code == 1
    assert "violations=1" in out and "passed=false" in out
    run_dir = latest_run(tmp_path, "counterexample")
    assert out.splitlines()[-1] == f"run_dir={run_dir}"
    rows = dict(r.split(",", 1) for r in
                (run_dir / "bounded_below.csv").read_text().splitlines()[1:])
    assert rows["passed"] == "false" and rows["violations"] == "1"
    assert main(["report", "--run", str(run_dir)]) == 0


def test_counterexample_solves_ground_state_once(tmp_path, capsys, monkeypatch,
                                                 empty_clamped_fields):
    """The regime decision and both regimes on one mesh share one clamped
    ground-state eigensolve; another radius is another mesh and solves
    once more."""
    calls = []
    solve = counterexample.buckling_ground_state

    def counted(pair):
        calls.append(pair)
        return solve(pair)

    monkeypatch.setattr(counterexample, "buckling_ground_state", counted)
    for regime in (["--lambda", "2", "--trials", "5"], ["--lambda", "20"],
                   ["--radius", "1.5", "--lambda", "2", "--trials", "5"]):
        code, _, _ = run_cli(
            ["counterexample", "--domain", "disk", "--refine", "2", *regime],
            tmp_path, capsys,
        )
        assert code == 0
    assert len(calls) == 2
    assert calls[0].mesh.content_hash() != calls[1].mesh.content_hash()


def _counterexample_tables(args, root) -> dict[str, bytes]:
    assert main(["counterexample", "--domain", "disk", "--refine", "2", *args,
                 "--run-root", str(root)]) == 0
    (run_dir,) = root.iterdir()
    return {p.name: p.read_bytes() for p in sorted(run_dir.iterdir())
            if p.suffix in (".csv", ".dat")}


def test_counterexample_memo_changes_no_byte(tmp_path, capsys, empty_clamped_fields):
    """Runs that read the memoized clamped fields write the same CSV and
    .dat bytes as runs that solve them afresh; another radius gets its own
    entry, whose Lambda1 scales as 1 / radius^2."""
    runs = [["--lambda", "2", "--trials", "20"], ["--lambda", "20"],
            ["--lambda", "2", "--trials", "20"]]
    warm = [_counterexample_tables(args, tmp_path / f"warm{i}") for i, args in enumerate(runs)]
    assert len(counterexample._FIELDS_CACHE) == 1
    for i, args in enumerate(runs):
        empty_clamped_fields()
        assert _counterexample_tables(args, tmp_path / f"cold{i}") == warm[i]
    assert warm[0] and warm[1] and warm[0] == warm[2]

    _counterexample_tables(["--radius", "1.5", "--lambda", "2", "--trials", "5"],
                           tmp_path / "radius")
    unit, scaled = counterexample._FIELDS_CACHE.values()
    assert scaled.lambda1 == pytest.approx(unit.lambda1 / 1.5**2, rel=1e-10)
    capsys.readouterr()


def test_manifest_counts_cache_hits(tmp_path, capsys, monkeypatch, empty_clamped_fields):
    """Each manifest records its own run's lookups of the process-wide
    result caches: a second counterexample on the same mesh in one
    process finds its ground state, perturbation and trace pencil
    cached, and its manifest says so."""
    monkeypatch.setattr(traceops, "_PENCIL_CACHE", {})
    args = ["--lambda", "2", "--trials", "5"]
    first, second = (_counterexample_tables(args, tmp_path / name) for name in ("a", "b"))
    assert first == second
    caches = [json.loads((next((tmp_path / name).iterdir()) / "manifest.json").read_text())
              ["caches"] for name in ("a", "b")]
    assert caches[0]["clamped_fields"]["misses"] == 1
    assert caches[0]["trace_pencils"]["misses"] == 1
    for name in ("clamped_fields", "trace_pencils", "pairs"):
        assert caches[1][name]["misses"] == 0
        assert caches[1][name]["hits"] >= 1
    capsys.readouterr()


def test_counterexample_regime_margin(tmp_path, capsys):
    """On disk level 2 Lambda1 is 14.6914 and the margin 0.015: just below
    Lambda1 the bounded regime refuses lambda, just above it the divergent
    one does."""
    for lam, message in (("14.685", "must stay below"), ("14.70", "must exceed")):
        code, _, err = run_cli(
            ["counterexample", "--domain", "disk", "--refine", "2", "--lambda", lam],
            tmp_path, capsys,
        )
        assert code == 1
        assert message in err


def test_spherecap_command(tmp_path, capsys):
    code, out, _ = run_cli(
        ["spherecap", "--eps-list", "0.4,0.2", "--nodes", "24", "--modes", "2"],
        tmp_path, capsys,
    )
    assert code == 0
    run_dir = latest_run(tmp_path, "spherecap")
    lines = (run_dir / "spherecap.csv").read_text().splitlines()
    assert lines[0] == (
        "eps,lambda1,lambda2,mu2,Lambda1,friedlander_fails,payne_fails,"
        "resolution_warning"
    )
    assert len(lines) == 3
    assert (run_dir / "Lambda1.dat").exists()
    # the reported values come from the 2 * nodes grid, so it is recorded
    grids = json.loads((run_dir / "manifest.json").read_text())["hashes"]["grids"]
    assert make_radial_grid(0.4, 48, "geometric").content_hash() in grids
    assert main(["report", "--run", str(run_dir)]) == 0
    report = capsys.readouterr().out
    # the '#' plot-hint line of a .dat file is not a data row
    assert "spherecap.csv (2 data rows)" in report
    assert "Lambda1.dat (2 data rows)" in report


def test_spherecap_manifest_counts_clamped_modes(tmp_path, capsys):
    """Each grid of a scan point (16 and 32 intervals) solves clamped
    mode 0, and a Cholesky factorization rules out modes 1..3; two runs
    in one process each record only their own modes."""
    argv = ["spherecap", "--eps-list", "0.2", "--nodes", "16", "--modes", "3"]
    for _ in range(2):
        code, _, _ = run_cli(argv, tmp_path, capsys)
        assert code == 0
        run_dir = latest_run(tmp_path, "spherecap")
        meta = json.loads((run_dir / "manifest.json").read_text())
        assert meta["clamped_modes"] == {"solved": 2, "ruled_out": 6}
    assert main(["report", "--run", str(run_dir)]) == 0
    report = capsys.readouterr().out
    assert "clamped_modes: ruled_out=6 solved=2" in report
    assert "solver:" not in report  # a cap scan factors nothing sparse


def _tally_keys(counts: dict) -> dict:
    return {k: _tally_keys(v) if isinstance(v, dict) else None for k, v in counts.items()}


@pytest.mark.parametrize("argv, zero_section", [
    (["spectrum", "--domain", "rectangle", "--nx", "4", "--ny", "4", "--count", "2"],
     "clamped_modes"),
    (["identity-scan", "--refine", "1", "--lmin", "1", "--lmax", "10", "--points", "2"],
     "clamped_modes"),
    (["beta1-scan", "--refine", "1", "--lmin", "1", "--lmax", "10", "--points", "2"],
     "clamped_modes"),
    (["counterexample", "--refine", "2", "--lambda", "2", "--trials", "5"], "clamped_modes"),
    (["spherecap", "--eps-list", "0.2", "--nodes", "16", "--modes", "2"], "solver"),
], ids=lambda v: v[0] if isinstance(v, list) else v)
def test_manifest_records_every_tally(argv, zero_section, tmp_path, capsys):
    """Each experiment's manifest holds every declared tally section and
    key, at 0 where the run counted nothing."""
    code, _, _ = run_cli(argv, tmp_path, capsys)
    assert code == 0
    meta = json.loads((latest_run(tmp_path, argv[0]) / "manifest.json").read_text())
    declared = _tally_keys(tallies())
    assert _tally_keys({section: meta[section] for section in declared}) == declared
    assert set(meta[zero_section].values()) == {0}


def test_report_command(tmp_path, capsys):
    run_cli(
        ["spectrum", "--domain", "rectangle", "--nx", "4", "--ny", "4", "--count", "2"],
        tmp_path, capsys,
    )
    run_dir = latest_run(tmp_path, "spectrum")
    assert main(["report", "--run", str(run_dir)]) == 0
    out = capsys.readouterr().out
    assert "command: spectrum" in out
    assert "spectrum.csv" in out
    assert "solver: check_failed=0 lanczos_retry=0 sparse_ldlt=" in out
    assert "clamped_modes" not in out  # no cap run, nothing to report
    assert "caches: " in out and " pairs.hits=" in out and " pairs.misses=" in out

    incomplete = tmp_path / "runs" / "broken"
    incomplete.mkdir()
    assert main(["report", "--run", str(incomplete)]) == 1


def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("refine = 1\ncount = 2\nproblem = neumann\n")
    code, out, _ = run_cli(
        ["spectrum", "--config", str(cfg), "--refine", "2"], tmp_path, capsys
    )
    assert code == 0
    run_dir = latest_run(tmp_path, "spectrum")
    meta = json.loads((run_dir / "manifest.json").read_text())
    assert meta["params"]["refine"] == 2  # flag wins
    assert meta["params"]["count"] == 2
    assert meta["params"]["problem"] == "neumann"


def test_config_rejects_unknown_and_out_of_range(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("no_such_key = 1\n")
    code, _, err = run_cli(["spectrum", "--config", str(cfg)], tmp_path, capsys)
    assert code == 2
    assert "no_such_key" in err

    cfg2 = tmp_path / "bad2.cfg"
    cfg2.write_text("radius = -2\n")
    code, _, err = run_cli(["spectrum", "--config", str(cfg2)], tmp_path, capsys)
    assert code == 2
    assert "radius" in err


def test_csv_bit_determinism(tmp_path, capsys):
    args = ["beta1-scan", "--domain", "disk", "--refine", "2", "--lmin", "1",
            "--lmax", "12", "--points", "5"]
    run_cli(args, tmp_path, capsys)
    run_cli(args, tmp_path, capsys)
    runs = sorted((tmp_path / "runs").glob("*beta1-scan*"))
    assert len(runs) == 2
    first = (runs[0] / "beta1.csv").read_bytes()
    second = (runs[1] / "beta1.csv").read_bytes()
    assert first == second


@pytest.mark.parametrize("args", [
    ["spectrum", "--problem", "neumann", "--count", "6"],
    ["counterexample", "--lambda", "2", "--trials", "20"],
    ["counterexample", "--lambda", "20"],
], ids=["spectrum", "bounded", "divergent"])
def test_lanczos_csv_bit_determinism(tmp_path, args, empty_clamped_fields):
    """Lanczos starts from a fixed vector, so repeated runs agree to the
    last bit (the counterexample's memoized ground state is solved again
    for each run)."""
    tables = []
    for run in ("first", "second"):
        empty_clamped_fields()
        root = tmp_path / run
        assert main(args + ["--domain", "disk", "--refine", "2", "--run-root", str(root)]) == 0
        (run_dir,) = root.iterdir()
        tables.append({p.name: p.read_bytes() for p in run_dir.glob("*.csv")})
    assert tables[0] and tables[0] == tables[1]


@pytest.mark.parametrize("kind", ["liu", "friedlander"])
def test_identity_scan_at_refine_5(tmp_path, capsys, kind):
    """16641 DOFs, beyond the dense cap: counts and margins come from
    sparse spectrum prefixes, with no failed check."""
    code, out, _ = run_cli(
        ["identity-scan", "--domain", "disk", "--refine", "5", "--kind", kind,
         "--points", "2", "--lmax", "10"],
        tmp_path, capsys,
    )
    assert code == 0
    assert "all_hold=true points=2 skips=0" in out
    meta = json.loads((latest_run(tmp_path, "identity-scan") / "manifest.json").read_text())
    assert meta["solver"]["check_failed"] == 0


def test_identity_scan_bound_on_the_neumann_zero_at_refine_5(tmp_path, capsys):
    """Points at -0.5 and -0.011 put the spectrum-prefix bound on the
    Neumann zero; beyond the dense cap it is counted at a nudged bound."""
    code, out, _ = run_cli(
        ["identity-scan", "--domain", "disk", "--refine", "5", "--kind", "friedlander",
         "--points", "2", "--lmin", "-0.5", "--lmax", "-0.011"],
        tmp_path, capsys,
    )
    assert code == 0
    assert "all_hold=true points=2 skips=0" in out


def test_repeated_identity_scan_builds_no_mesh(tmp_path, monkeypatch):
    """A second identical command in one process reuses the memoized
    mesh and writes the same table."""
    builds = []
    build = cli.make_disk_mesh

    def counted(*args):
        builds.append(args)
        return build(*args)

    monkeypatch.setattr(cli, "make_disk_mesh", counted)
    cli._mesh.cache_clear()
    tables = []
    for run in ("first", "second"):
        root = tmp_path / run
        assert main(["identity-scan", "--domain", "disk", "--refine", "2", "--kind", "liu",
                     "--points", "4", "--run-root", str(root)]) == 0
        assert len(builds) == 1
        (run_dir,) = root.iterdir()
        tables.append((run_dir / "identities.csv").read_bytes())
    assert tables[0] == tables[1]


def test_manifest_started_before_finished(tmp_path, capsys, monkeypatch):
    """started_utc is taken when the command starts, not when its
    results are written: a clock that jumps an hour during the
    computation shows in finished_utc only."""
    import time

    from bucklab import cli

    real_gmtime = time.gmtime
    clock = [1_700_000_000.0]
    monkeypatch.setattr(time, "gmtime", lambda s=None: real_gmtime(clock[0] if s is None else s))
    real_spectrum = cli.spectrum

    def slow_spectrum(*args, **kwargs):
        clock[0] += 3600.0
        return real_spectrum(*args, **kwargs)

    monkeypatch.setattr(cli, "spectrum", slow_spectrum)
    code, _, _ = run_cli(
        ["spectrum", "--domain", "disk", "--refine", "1", "--problem", "dirichlet",
         "--count", "1"],
        tmp_path, capsys,
    )
    assert code == 0
    meta = json.loads((latest_run(tmp_path, "spectrum") / "manifest.json").read_text())
    assert meta["started_utc"] == "2023-11-14T22:13:20Z"
    assert meta["finished_utc"] == "2023-11-14T23:13:20Z"
    assert meta["started_utc"] < meta["finished_utc"]


def test_cli_import_leaves_scipy_special_unloaded():
    # only the disk oracle uses scipy.special, and no command calls it
    src = str(Path(cli.__file__).resolve().parents[1])
    code = "import sys, bucklab.cli; print('scipy.special' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=src, capture_output=True, text=True,
        check=True,
    ).stdout
    assert out.strip() == "False"
