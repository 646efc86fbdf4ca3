"""Batch experiment front door.

Each subcommand runs one pipeline, persists every numeric output into a
fresh timestamped run directory (CSV tables, plot-data files, manifest
written last) and prints a one-line summary. Exit codes: 0 success,
1 domain error, 2 usage error.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from . import counterexample as cex
from . import runio, spherecap, traceops
from .eigen import MAX_DENSE_DOFS, ZERO_TOL
from .errors import BucklabError, ConfigError
from .mesh import Mesh, make_disk_mesh, make_radial_grid, make_rectangle_mesh
from .runio import RunManifest, SweepResult, fmt
from .spectra import get_pair, spectrum, spectrum_to_csv_rows


def _float_list(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad numeric list {text!r}") from exc


@dataclass(frozen=True)
class Param:
    """One configurable parameter: how its flag and config value are
    read, which values are valid, and its default."""

    convert: Callable[[str], Any]
    check: Callable[[Any], bool]
    need: str  # the valid values, as usage errors name them
    default: Any
    choices: tuple | None = None  # also enforced by argparse on the flag
    flag: str | None = None  # default: "--" + name with "-" for "_"
    help: str | None = None


def _choice(convert, *choices, default) -> Param:
    return Param(convert, lambda v: v in choices, "|".join(map(str, choices)),
                 default, choices)


def _at_least(low: int, *, default: int, help: str | None = None) -> Param:
    return Param(int, lambda v: v >= low, f">= {low}", default, help=help)


def _positive(*, default: float) -> Param:
    return Param(float, lambda v: v > 0, "> 0", default)


def _real(*, default: float, flag: str | None = None) -> Param:
    return Param(float, lambda v: bool(np.isfinite(v)), "finite", default, flag=flag)


def _decreasing_positive(v: list[float]) -> bool:
    return bool(v) and all(x > 0 for x in v) and all(a > b for a, b in zip(v, v[1:]))


# a dense cap form on the fine grid (2 * nodes intervals) has 4 * nodes + 2 rows
_MAX_NODES = (MAX_DENSE_DOFS - 2) // 4
PARAMS = {
    "threads": _at_least(1, default=1),
    "domain": _choice(str, "disk", "rectangle", default="disk"),
    "refine": _at_least(0, default=3),
    "radius": _positive(default=1.0),
    "a": _positive(default=1.0),
    "b": _positive(default=1.0),
    "nx": _at_least(1, default=16),
    "ny": _at_least(1, default=16),
    "problem": _choice(str, "dirichlet", "neumann", "buckling", "navier",
                       default="dirichlet"),
    "kind": _choice(str, "friedlander", "liu", default="liu"),
    "order": _choice(int, 1, 2, default=2),
    "count": _at_least(1, default=6),
    "lmin": _real(default=1.0),
    "lmax": _real(default=60.0),
    "points": _at_least(1, default=20),
    "lam": _real(default=20.0, flag="--lambda"),
    "eps": Param(_float_list, _decreasing_positive,
                 "nonempty strictly decreasing positive list",
                 [1e-1, 1e-2, 1e-3, 1e-4], help="comma-separated decreasing list"),
    "trials": _at_least(0, default=200, help="random trial count for the bounded regime"),
    "seed": _at_least(0, default=0),
    "eps_list": Param(_float_list, lambda v: bool(v) and all(0 < x < np.pi / 2 for x in v),
                      "nonempty list in (0, pi/2)", [0.4, 0.2, 0.1, 0.05]),
    "nodes": Param(int, lambda v: 8 <= v <= _MAX_NODES,
                   f">= 8 and <= {_MAX_NODES} (4*nodes+2 <= MAX_DENSE_DOFS)", 64),
    "modes": _at_least(2, default=4),
    "grading": _choice(str, "uniform", "geometric", default="geometric"),
}

# parameters of each command, in the order --help lists their flags
_MESH = ["domain", "refine", "radius", "a", "b", "nx", "ny"]
_COMMAND_PARAMS = {
    "spectrum": ["threads", *_MESH, "problem", "order", "count"],
    "identity-scan": ["threads", *_MESH, "kind", "order", "lmin", "lmax", "points"],
    "beta1-scan": ["threads", *_MESH, "lmin", "lmax", "points"],
    "counterexample": ["threads", *_MESH, "lam", "eps", "trials", "seed"],
    "spherecap": ["threads", "eps_list", "nodes", "modes", "grading"],
}


def _flag(name: str) -> str:
    return PARAMS[name].flag or "--" + name.replace("_", "-")


def _checked(key: str, value, source: str):
    row = PARAMS[key]
    if not row.check(value):
        raise ConfigError(f"{source} out of range (need {row.need})")
    return value


def _merge_params(command: str, args: argparse.Namespace) -> dict:
    """defaults < config file < explicit CLI flags; unknown config keys
    and out-of-range values are rejected by name."""
    allowed = _COMMAND_PARAMS[command]
    params = {k: PARAMS[k].default for k in allowed}
    if args.config:
        for key, text in runio.load_config(args.config).items():
            if key not in allowed:
                raise ConfigError(f"unknown config key {key!r} for {command}")
            try:
                value = PARAMS[key].convert(text)
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise ConfigError(f"config key {key!r}: {exc}") from exc
            params[key] = _checked(key, value, f"config key {key!r}")
    for key in allowed:
        value = getattr(args, key)
        if value is not None:
            params[key] = _checked(key, value, f"flag {_flag(key)}")
    return params


def _build_mesh(params: dict) -> Mesh:
    if params["domain"] == "disk":
        return _mesh("disk", params["radius"], params["refine"])
    return _mesh("rectangle", params["a"], params["b"], params["nx"], params["ny"])


@functools.lru_cache(maxsize=4)
def _mesh(domain: str, *shape) -> Mesh:
    """Memoized mesh build for repeated calls of :func:`main` in one
    process; meshes are immutable, so sharing one is safe."""
    return (make_disk_mesh if domain == "disk" else make_rectangle_mesh)(*shape)


def _finish(command: str, params: dict, tables: dict[str, str],
            hashes: dict, args) -> Path:
    manifest = RunManifest(
        command=command,
        params={k: (v if not isinstance(v, list) else list(map(float, v)))
                for k, v in params.items()},
        hashes=hashes,
        tallies=runio.tallies(since=args.tallies_at_start),
        started_utc=args.started_utc,
    )
    run_dir = runio.new_run_dir(args.run_root, command)
    runio.write_results(run_dir, manifest, tables)
    return run_dir


def _skips_table(result: SweepResult) -> dict[str, str]:
    if not result.skips:
        return {}
    lines = ["index,reason"]
    for s in result.skips:
        reason = str(s["reason"]).replace(",", ";")
        lines.append(f"{s['index']},{reason}")
    return {"skips.csv": "\n".join(lines) + "\n"}


def _cmd_spectrum(args) -> int:
    params = _merge_params("spectrum", args)
    mesh = _build_mesh(params)
    spec = spectrum(mesh, params["problem"], params["count"], params["order"])
    rows = ["index,value,problem,mesh_hash"] + spectrum_to_csv_rows(spec)
    tables = {"spectrum.csv": "\n".join(rows) + "\n"}
    run_dir = _finish("spectrum", params, tables,
                      {"mesh": mesh.content_hash()}, args)
    # a value within the zero tolerance is rounding noise; the CSV keeps it
    floor = ZERO_TOL * np.max(np.abs(spec.values))
    values = " ".join("0" if abs(v) <= floor else f"{v:.6g}" for v in spec.values)
    print(f"{spec.problem} spectrum: {values}")
    print(f"run_dir={run_dir}")
    return 0


def _cmd_identity_scan(args) -> int:
    params = _merge_params("identity-scan", args)
    mesh = _build_mesh(params)
    grid = np.linspace(params["lmin"], params["lmax"], params["points"])
    result = traceops.scan_identities(
        mesh, params["kind"], grid, order=params["order"], threads=params["threads"]
    )
    columns = ["lambda", "neg_count", "lhs", "rhs", "holds", "margin", "nudged"]
    tables = {"identities.csv": result.to_csv(columns)}
    tables.update(_skips_table(result))
    run_dir = _finish("identity-scan", params, tables,
                      {"mesh": mesh.content_hash()}, args)
    points, skips = len(result.records), len(result.skips)
    if points:
        print(f"all_hold={fmt(result.summary['all_hold'])} points={points} skips={skips}")
    else:
        print(f"all_hold=null points=0 skips={skips} (no point verified)")
    print(f"run_dir={run_dir}")
    return 0


def _cmd_beta1_scan(args) -> int:
    params = _merge_params("beta1-scan", args)
    mesh = _build_mesh(params)
    grid = np.linspace(params["lmin"], params["lmax"], params["points"])
    result = traceops.scan_beta1(mesh, grid, threads=params["threads"])
    columns = ["lambda", "beta1", "neg_count", "margin", "nudged"]
    tables = {"beta1.csv": result.to_csv(columns)}
    lam = np.array([r["lambda"] for r in result.records])
    b1 = np.array([r["beta1"] for r in result.records])
    tables["beta1.dat"] = runio.plot_data_content({"lambda": lam, "beta1": b1})
    tables.update(_skips_table(result))
    run_dir = _finish("beta1-scan", params, tables,
                      {"mesh": mesh.content_hash()}, args)
    print(
        f"points={len(result.records)} negative={result.summary['n_negative']} "
        f"skips={len(result.skips)}"
    )
    print(f"run_dir={run_dir}")
    return 0


def _cmd_counterexample(args) -> int:
    params = _merge_params("counterexample", args)
    mesh = _build_mesh(params)
    pair = get_pair(mesh, "morley")
    lambda1 = cex.clamped_fields(pair).lambda1
    if params["lam"] < lambda1:
        return _run_bounded_below(params, pair, lambda1, args)
    report = cex.divergence_sweep(pair, params["lam"], params["eps"])
    rows = ["eps,numerator,denominator,quotient"]
    for s in report.samples:
        rows.append(
            f"{fmt(s.eps)},{fmt(s.numerator)},{fmt(s.denominator)},{fmt(s.quotient)}"
        )
    eps = np.array([s.eps for s in report.samples])
    q = np.array([abs(s.quotient) for s in report.samples])
    tables = {
        "divergence.csv": "\n".join(rows) + "\n",
        "divergence_loglog.dat": runio.plot_data_content(
            {"eps": eps, "abs_quotient": q}, xlog=True, ylog=True
        ),
    }
    run_dir = _finish("counterexample", params, tables,
                      {"mesh": mesh.content_hash()}, args)
    print(
        f"slope={report.fitted_slope:.4f} stderr={report.slope_stderr:.4f} "
        f"alpha={report.alpha:.10g} alpha_pencil={report.alpha_pencil:.10g} "
        f"Lambda1={report.lambda1_buckling:.10g} anomaly={fmt(report.anomaly)}"
    )
    print(f"run_dir={run_dir}")
    return 0


def _run_bounded_below(params: dict, pair, lambda1: float, args) -> int:
    """Below the buckling threshold the same command checks the bounded
    regime instead: random trial quotients never undercut the smallest
    trace eigenvalue."""
    report = cex.bounded_below_check(
        pair, params["lam"], params["trials"], seed=params["seed"]
    )
    rows = [
        "quantity,value",
        f"lambda,{fmt(report.lam)}",
        f"Lambda1,{fmt(lambda1)}",
        f"beta1,{fmt(report.beta1)}",
        f"n_trials,{report.n_trials}",
        f"min_quotient,{fmt(report.min_quotient)}",
        f"minimizer_quotient,{fmt(report.minimizer_quotient)}",
        f"violations,{report.violations}",
        f"interior_residual,{fmt(report.interior_residual)}",
        f"passed,{fmt(report.passed)}",
    ]
    tables = {"bounded_below.csv": "\n".join(rows) + "\n"}
    run_dir = _finish("counterexample", params, tables,
                      {"mesh": pair.mesh.content_hash()}, args)
    print(
        f"regime=bounded-below beta1={report.beta1:.8g} "
        f"min_quotient={report.min_quotient:.8g} violations={report.violations} "
        f"interior_residual={report.interior_residual:.2e} passed={fmt(report.passed)}"
    )
    print(f"run_dir={run_dir}")
    return 0 if report.passed else 1


def _cmd_spherecap(args) -> int:
    params = _merge_params("spherecap", args)
    result = spherecap.cap_scan(
        params["eps_list"], params["nodes"], params["modes"],
        params["grading"], params["threads"],
    )
    columns = [
        "eps", "lambda1", "lambda2", "mu2", "Lambda1",
        "friedlander_fails", "payne_fails", "resolution_warning",
    ]
    tables = {"spherecap.csv": result.to_csv(columns)}
    eps = np.array([r["eps"] for r in result.records])
    for curve in ("lambda1", "lambda2", "mu2", "Lambda1"):
        vals = np.array([r[curve] for r in result.records])
        tables[f"{curve}.dat"] = runio.plot_data_content(
            {"eps": eps, curve: vals}, xlog=True
        )
    tables.update(_skips_table(result))
    # each eps is solved on a coarse grid and on the twice-finer one it reports
    grid_hashes = ",".join(
        "/".join(make_radial_grid(e, n, params["grading"]).content_hash()
                 for n in (params["nodes"], 2 * params["nodes"]))
        for e in params["eps_list"]
    )
    run_dir = _finish("spherecap", params, tables, {"grids": grid_hashes}, args)
    for r in result.records:
        print(
            f"eps={r['eps']:g} lambda1={r['lambda1']:.5g} lambda2={r['lambda2']:.5g} "
            f"mu2={r['mu2']:.5g} Lambda1={r['Lambda1']:.5g} "
            f"friedlander_fails={fmt(r['friedlander_fails'])} "
            f"payne_fails={fmt(r['payne_fails'])}"
        )
    print(f"run_dir={run_dir}")
    return 0


def _cmd_report(args) -> int:
    run_dir = Path(args.run)
    manifest_path = run_dir / "manifest.json"
    if not manifest_path.exists():
        print(f"incomplete run (no manifest): {run_dir}", file=sys.stderr)
        return 1
    meta = json.loads(manifest_path.read_text())
    print(f"command: {meta['command']}")
    print(f"version: {meta['version']}")
    print(f"params: {json.dumps(meta['params'], sort_keys=True)}")
    for section in runio.tallies():
        counts = {}  # nested keys flattened: {"pairs.hits": 3, ...}
        for key, value in meta.get(section, {}).items():
            counts.update({f"{key}.{k}": n for k, n in value.items()}
                          if isinstance(value, dict) else {key: value})
        if any(counts.values()):
            print(f"{section}: " + " ".join(f"{k}={v}" for k, v in sorted(counts.items())))
    ok = True
    for name in meta.get("outputs", []):
        path = run_dir / name
        if path.exists():
            # a header line, then data rows; '#' lines are plot hints
            n_rows = sum(not line.startswith("#")
                         for line in path.read_text().splitlines()[1:])
            print(f"output: {name} ({n_rows} data rows)")
        else:
            print(f"output: {name} MISSING", file=sys.stderr)
            ok = False
    return 0 if ok else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process. Every experiment
    command gets one flag per entry of its ``_COMMAND_PARAMS`` list."""
    parser = argparse.ArgumentParser(
        prog="bucklab",
        description="Spectral laboratory: Laplace/buckling spectra, boundary "
        "trace operators, counting identities, quotient divergence and "
        "punctured-sphere experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, help_text, func in (
        ("spectrum", "compute one spectrum", _cmd_spectrum),
        ("identity-scan", "sweep a counting identity", _cmd_identity_scan),
        ("beta1-scan", "sweep the smallest trace eigenvalue", _cmd_beta1_scan),
        ("counterexample", "quotient divergence sweep (or, below the buckling "
         "threshold, the bounded-regime check)", _cmd_counterexample),
        ("spherecap", "punctured-sphere scan", _cmd_spherecap),
    ):
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", help="flat key = value parameter file")
        p.add_argument("--run-root", default=None,
                       help="run directory root (default $BUCKLAB_RUNS or ./runs)")
        for name in _COMMAND_PARAMS[command]:
            row = PARAMS[name]
            p.add_argument(_flag(name), dest=name, type=row.convert,
                           choices=row.choices, help=row.help)
        p.set_defaults(func=func)

    p = sub.add_parser("report", help="summarize a run directory")
    p.add_argument("--run", required=True)
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if getattr(args, "run_root", None) is None and args.command != "report":
        args.run_root = runio.default_run_root()
    args.tallies_at_start = runio.tallies()
    args.started_utc = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (BucklabError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
