"""The CLI parameter table: each subcommand takes exactly its table
parameters under their documented flags, and a flag and a config key
read the same value and reject the same out-of-range values."""
import re

import pytest

from bucklab.cli import COMMANDS, PARAMS, _merge_params, build_parser, main
from bucklab.eigen import MAX_DENSE_DOFS
from bucklab.errors import ConfigError

# name -> (flag, a valid non-default value, an out-of-range value or None
# where every value of the type is valid)
SAMPLES = {
    "threads": ("--threads", "2", "0"),
    "domain": ("--domain", "rectangle", "square"),
    "refine": ("--refine", "2", "-1"),
    "radius": ("--radius", "2.5", "-2"),
    "a": ("--a", "1.5", "0"),
    "b": ("--b", "0.5", "-1"),
    "nx": ("--nx", "4", "0"),
    "ny": ("--ny", "5", "0"),
    "problem": ("--problem", "navier", "plate"),
    "kind": ("--kind", "friedlander", "weyl"),
    "count": ("--count", "4", "0"),
    "lmin": ("--lmin", "0.5", "nan"),
    "lmax": ("--lmax", "30", "inf"),
    "points": ("--points", "5", "0"),
    "lam": ("--lambda", "18.5", "-inf"),
    "eps": ("--eps", "0.1,0.01", "0.001,0.1"),
    "trials": ("--trials", "20", "-1"),
    "seed": ("--seed", "7", "-1"),
    "eps_list": ("--eps-list", "0.3,0.1", "0.3,2.0"),
    "nodes": ("--nodes", "16", "4"),
    "modes": ("--modes", "3", "1"),
    "grading": ("--grading", "uniform", "linear"),
}
CASES = [(command, name) for command, row in COMMANDS.items() for name in row.params]


def merged(command, argv):
    return _merge_params(command, build_parser().parse_args([command, *argv]))


def test_samples_cover_every_parameter():
    assert set(SAMPLES) == set(PARAMS)


@pytest.mark.parametrize("command", list(COMMANDS))
def test_subcommand_takes_exactly_its_parameters(command, capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args([command, "--help"])
    usage = capsys.readouterr().out.split("\n\n")[0]
    flags = re.findall(r"\[(--[\w-]+)", usage)
    expected = [SAMPLES[name][0] for name in COMMANDS[command].params]
    assert flags == ["--config", "--run-root", *expected]


@pytest.mark.parametrize("command,name", CASES)
def test_flag_and_config_agree(command, name, tmp_path, capsys):
    flag, valid, invalid = SAMPLES[name]
    cfg = tmp_path / "params.cfg"
    cfg.write_text(f"{name} = {valid}\n")
    from_flag = merged(command, [f"{flag}={valid}"])
    from_config = merged(command, ["--config", str(cfg)])
    assert from_flag == from_config
    assert type(from_flag[name]) is type(from_config[name])
    assert from_flag[name] != PARAMS[name].default
    if invalid is None:
        return
    cfg.write_text(f"{name} = {invalid}\n")
    with pytest.raises(ConfigError, match="out of range"):
        merged(command, ["--config", str(cfg)])
    if PARAMS[name].choices:  # argparse refuses an invalid choice itself
        with pytest.raises(SystemExit) as exc:
            merged(command, [f"{flag}={invalid}"])
        assert exc.value.code == 2
    else:
        with pytest.raises(ConfigError, match=f"flag {flag} out of range"):
            merged(command, [f"{flag}={invalid}"])
    capsys.readouterr()


def test_non_decreasing_eps_is_a_usage_error(tmp_path, capsys):
    """An eps list that is not strictly decreasing, or is empty, is
    refused before any run directory exists, from the flag and from the
    config key alike."""
    cfg = tmp_path / "eps.cfg"
    cases = [
        ("counterexample", "eps", "1e-3,1e-1", "strictly decreasing"),
        ("counterexample", "eps", ",", "nonempty"),
        ("spherecap", "eps_list", ",", "nonempty"),
    ]
    for command, key, value, need in cases:
        cfg.write_text(f"{key} = {value}\n")
        extra = ["--refine", "1", "--lambda", "20"] if command == "counterexample" else []
        for argv in ([SAMPLES[key][0], value], ["--config", str(cfg)]):
            code = main([command, *extra, *argv, "--run-root", str(tmp_path / "runs")])
            err = capsys.readouterr().err
            assert code == 2, (command, argv)
            assert "usage error" in err and need in err
    assert not (tmp_path / "runs").exists()


def test_nodes_bounded_by_dense_limit(tmp_path, capsys):
    """The fine cap grid's dense forms have 4 * nodes + 2 rows, so --nodes
    stops at the largest value within MAX_DENSE_DOFS, by flag and by
    config key, before any scan runs."""
    assert 4 * 1499 + 2 <= MAX_DENSE_DOFS < 4 * 1500 + 2
    assert merged("spherecap", ["--nodes", "1499"])["nodes"] == 1499
    cfg = tmp_path / "nodes.cfg"
    cfg.write_text("nodes = 1500\n")
    for argv in (["--nodes", "1500"], ["--config", str(cfg)]):
        code = main(["spherecap", *argv, "--run-root", str(tmp_path / "runs")])
        err = capsys.readouterr().err
        assert code == 2, argv
        assert "usage error" in err and "1499" in err
    assert not (tmp_path / "runs").exists()


def test_non_finite_geometry_is_a_usage_error(tmp_path, capsys):
    """An infinite radius or side length is refused as out of range, from
    the flag and from the config key alike, before any run directory
    exists; a finite radius whose triangle areas overflow is a mesh
    error (exit 1), never a numpy warning or a failed pivot check."""
    cfg = tmp_path / "geometry.cfg"
    for key in ("radius", "a", "b"):
        cfg.write_text(f"{key} = inf\n")
        for argv in ([SAMPLES[key][0], "inf"], ["--config", str(cfg)]):
            code = main(["spectrum", *argv, "--run-root", str(tmp_path / "runs")])
            err = capsys.readouterr().err
            assert code == 2, argv
            assert "usage error" in err and "finite > 0" in err
    assert not (tmp_path / "runs").exists()
    cfg.write_text("radius = 1e300\n")
    for argv in (["--radius", "1e300"], ["--config", str(cfg)]):
        code = main(["spectrum", "--refine", "1", *argv, "--run-root", str(tmp_path / "runs")])
        assert code == 1, argv
        assert capsys.readouterr().err == "error: non-finite vertex coordinates or triangle area\n"
