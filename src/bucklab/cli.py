"""Batch experiment front door.

Every experiment command is one row of :data:`COMMANDS`: a function
from its merged parameters to an :class:`Outcome`, which computes and
persists nothing itself. :func:`main` alone merges the parameters, makes
the fresh timestamped run directory, writes the outcome into it (CSV
tables, plot-data files, manifest written last) and prints its summary
lines. Exit codes: 0 success, 1 domain error, 2 usage error.
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
from .mesh import Mesh, make_disk_mesh, make_rectangle_mesh
from .runio import RunManifest, csv_text, fmt
from .spectra import get_pair, spectrum


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
    return Param(float, lambda v: bool(np.isfinite(v)) and v > 0, "finite > 0", default)


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
                   f">= 8 and <= {_MAX_NODES} (4*nodes+2 <= MAX_DENSE_DOFS)",
                   spherecap.DEFAULT_NODES),
    "modes": _at_least(2, default=spherecap.DEFAULT_MODES),
    "grading": _choice(str, "uniform", "geometric", default="geometric"),
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
    allowed = COMMANDS[command].params
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


@dataclass(frozen=True)
class Outcome:
    """What one experiment computed: its output files (name -> text),
    the content hashes its manifest records, the summary lines to print
    and the exit code."""

    tables: dict[str, str]
    hashes: dict[str, str]
    lines: list[str]
    code: int = 0


def _spectrum(params: dict) -> Outcome:
    mesh = _build_mesh(params)
    spec = spectrum(mesh, params["problem"], params["count"])
    rows = [(i, v, spec.problem, spec.source) for i, v in enumerate(spec.values)]
    # a value within the zero tolerance is rounding noise; the CSV keeps it
    floor = ZERO_TOL * np.max(np.abs(spec.values))
    values = " ".join("0" if abs(v) <= floor else f"{v:.6g}" for v in spec.values)
    return Outcome({"spectrum.csv": csv_text(["index", "value", "problem", "mesh_hash"], rows)},
                   {"mesh": mesh.content_hash()}, [f"{spec.problem} spectrum: {values}"])


def _identity_scan(params: dict) -> Outcome:
    mesh = _build_mesh(params)
    grid = np.linspace(params["lmin"], params["lmax"], params["points"])
    result = traceops.scan_identities(mesh, params["kind"], grid, threads=params["threads"])
    points, skips = len(result.records), len(result.skips)
    line = (f"all_hold={fmt(result.summary['all_hold'])} points={points} skips={skips}"
            if points else f"all_hold=null points=0 skips={skips} (no point verified)")
    columns = ["lambda", "neg_count", "lhs", "rhs", "holds", "margin", "nudged"]
    return Outcome(result.tables("identities.csv", columns), {"mesh": mesh.content_hash()},
                   [line])


def _beta1_scan(params: dict) -> Outcome:
    mesh = _build_mesh(params)
    grid = np.linspace(params["lmin"], params["lmax"], params["points"])
    result = traceops.scan_beta1(mesh, grid, threads=params["threads"])
    tables = result.tables("beta1.csv", ["lambda", "beta1", "neg_count", "margin", "nudged"])
    tables["beta1.dat"] = runio.plot_data_content(
        {name: np.array([r[name] for r in result.records]) for name in ("lambda", "beta1")})
    line = (f"points={len(result.records)} negative={result.summary['n_negative']} "
            f"skips={len(result.skips)}")
    return Outcome(tables, {"mesh": mesh.content_hash()}, [line])


def _counterexample(params: dict) -> Outcome:
    """The quotient divergence sweep; below the buckling threshold the
    bounded regime instead, where random trial quotients must never
    undercut the smallest trace eigenvalue (exit code 1 when one does)."""
    mesh = _build_mesh(params)
    pair = get_pair(mesh, "morley")
    lambda1 = cex.clamped_fields(pair).lambda1
    hashes = {"mesh": mesh.content_hash()}
    if params["lam"] < lambda1:
        r = cex.bounded_below_check(pair, params["lam"], params["trials"], seed=params["seed"])
        rows = [("lambda", r.lam), ("Lambda1", lambda1), ("beta1", r.beta1),
                ("n_trials", r.n_trials), ("min_quotient", r.min_quotient),
                ("minimizer_quotient", r.minimizer_quotient), ("violations", r.violations),
                ("interior_residual", r.interior_residual), ("passed", r.passed)]
        line = (f"regime=bounded-below beta1={r.beta1:.8g} "
                f"min_quotient={r.min_quotient:.8g} violations={r.violations} "
                f"interior_residual={r.interior_residual:.2e} passed={fmt(r.passed)}")
        return Outcome({"bounded_below.csv": csv_text(["quantity", "value"], rows)},
                       hashes, [line], 0 if r.passed else 1)
    report = cex.divergence_sweep(pair, params["lam"], params["eps"])
    samples = report.samples
    rows = [(s.eps, s.numerator, s.denominator, s.quotient) for s in samples]
    tables = {
        "divergence.csv": csv_text(["eps", "numerator", "denominator", "quotient"], rows),
        "divergence_loglog.dat": runio.plot_data_content(
            {"eps": np.array([s.eps for s in samples]),
             "abs_quotient": np.array([abs(s.quotient) for s in samples])},
            xlog=True, ylog=True),
    }
    line = (f"slope={report.fitted_slope:.4f} stderr={report.slope_stderr:.4f} "
            f"alpha={report.alpha:.10g} alpha_pencil={report.alpha_pencil:.10g} "
            f"Lambda1={report.lambda1_buckling:.10g} anomaly={fmt(report.anomaly)}")
    return Outcome(tables, hashes, [line])


def _spherecap(params: dict) -> Outcome:
    eps_list, nodes, grading = params["eps_list"], params["nodes"], params["grading"]
    result = spherecap.cap_scan(eps_list, nodes, params["modes"], grading, params["threads"])
    tables = result.tables("spherecap.csv", [
        "eps", "lambda1", "lambda2", "mu2", "Lambda1",
        "friedlander_fails", "payne_fails", "resolution_warning",
    ])
    eps = np.array([r["eps"] for r in result.records])
    for curve in ("lambda1", "lambda2", "mu2", "Lambda1"):
        tables[f"{curve}.dat"] = runio.plot_data_content(
            {"eps": eps, curve: np.array([r[curve] for r in result.records])}, xlog=True)
    grids = ",".join("/".join(g.content_hash() for g in spherecap.scan_grids(e, nodes, grading))
                     for e in eps_list)
    lines = [
        f"eps={r['eps']:g} lambda1={r['lambda1']:.5g} lambda2={r['lambda2']:.5g} "
        f"mu2={r['mu2']:.5g} Lambda1={r['Lambda1']:.5g} "
        f"friedlander_fails={fmt(r['friedlander_fails'])} "
        f"payne_fails={fmt(r['payne_fails'])}"
        for r in result.records
    ]
    return Outcome(tables, {"grids": grids}, lines)


@dataclass(frozen=True)
class Command:
    """One row of :data:`COMMANDS`."""

    help: str
    run: Callable[[dict], Outcome]
    params: tuple[str, ...]  # in the order --help lists their flags


_MESH = ("domain", "refine", "radius", "a", "b", "nx", "ny")
COMMANDS = {
    "spectrum": Command("compute one spectrum", _spectrum,
                        ("threads", *_MESH, "problem", "count")),
    "identity-scan": Command("sweep a counting identity", _identity_scan,
                             ("threads", *_MESH, "kind", "lmin", "lmax", "points")),
    "beta1-scan": Command("sweep the smallest trace eigenvalue", _beta1_scan,
                          ("threads", *_MESH, "lmin", "lmax", "points")),
    "counterexample": Command("quotient divergence sweep (or, below the buckling "
                              "threshold, the bounded-regime check)", _counterexample,
                              ("threads", *_MESH, "lam", "eps", "trials", "seed")),
    "spherecap": Command("punctured-sphere scan", _spherecap,
                         ("threads", "eps_list", "nodes", "modes", "grading")),
}


def _report(run_dir: Path) -> int:
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
    command gets one flag per entry of its parameter list in
    :data:`COMMANDS`."""
    parser = argparse.ArgumentParser(
        prog="bucklab",
        description="Spectral laboratory: Laplace/buckling spectra, boundary "
        "trace operators, counting identities, quotient divergence and "
        "punctured-sphere experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--config", help="flat key = value parameter file")
        p.add_argument("--run-root", default=None,
                       help="run directory root (default $BUCKLAB_RUNS or ./runs)")
        for key in command.params:
            row = PARAMS[key]
            p.add_argument(_flag(key), dest=key, type=row.convert,
                           choices=row.choices, help=row.help)

    p = sub.add_parser("report", help="summarize a run directory")
    p.add_argument("--run", required=True)

    return parser


def main(argv=None) -> int:
    """Run one command: an experiment's outcome is written into a new
    run directory, whose path is printed after its summary lines."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    start = runio.tallies()
    started_utc = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    try:
        if args.command == "report":
            return _report(Path(args.run))
        params = _merge_params(args.command, args)
        outcome = COMMANDS[args.command].run(params)
        manifest = RunManifest(command=args.command, params=params, hashes=outcome.hashes,
                               tallies=runio.tallies(since=start), started_utc=started_utc)
        root = runio.default_run_root() if args.run_root is None else args.run_root
        run_dir = runio.new_run_dir(root, args.command)
        runio.write_results(run_dir, manifest, outcome.tables)
    except ConfigError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (BucklabError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in outcome.lines:
        print(line)
    print(f"run_dir={run_dir}")
    return outcome.code


if __name__ == "__main__":
    sys.exit(main())
