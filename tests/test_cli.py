"""Configuration parsing, subcommand behavior, and exit codes."""

import ast
import json
import logging
import math
import os
import pathlib
import pickle
import subprocess
import sys

import numpy as np
import pytest

from snpp import cli, errors, fem, macro, output, verify
from snpp.errors import ParseError, ValidationError

from oracles import read_coefficients


ERROR_CLASSES = {name: obj for name, obj in vars(errors).items()
                 if isinstance(obj, type) and issubclass(obj, errors.SnppError)
                 and obj is not errors.SnppError}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run(tmp_path, command, payload):
    return cli.main([command, "--config",
                     write_config(tmp_path, payload)])


def test_every_error_class_is_raised_and_every_origin_is_one():
    # The sources are parsed, so a class named only in an import or an
    # except clause does not count as raised.  Every construction but a
    # ValidationError's names its origin through where, which is the one
    # place the error report reads it from.  The same walk keeps the
    # package free of environment-variable knobs.
    classes = set(ERROR_CLASSES)
    constructed = set()
    unplaced = []
    environment = []
    for path in pathlib.Path(cli.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", getattr(func, "attr", None))
                constructed.add(name)
                if (name in classes and name != "ValidationError"
                        and "where" not in {k.arg for k in node.keywords}):
                    unplaced.append("%s:%d %s" % (path.name, node.lineno,
                                                  name))
            if isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name
            else:
                continue
            if name in ("environ", "getenv"):
                environment.append("%s: %s" % (path.name, name))
    assert classes - constructed == set()
    assert unplaced == []
    assert environment == []


def test_every_error_class_survives_a_pickle_round_trip():
    # A study run raises in a worker process, and its error reaches the
    # error report through pickle: message, origin and detail must all
    # arrive.
    for name, cls in ERROR_CLASSES.items():
        if cls is ParseError:
            error = cls("bad text", line=3, column=7, where="cli.parse")
        elif cls is ValidationError:
            error = cls("bad value", field="regime.alpha", where="cli.parse")
        else:
            error = cls("went wrong", where="module.operation")
        copy = pickle.loads(pickle.dumps(error))
        assert type(copy) is cls, name
        assert str(copy) == str(error), name
        assert vars(copy) == vars(error), name


def test_defaults_fill_missing_blocks():
    config = cli.parse_config("", command="macro")
    assert config.command == "macro"
    assert config.geometry.inclusion.radius == 0.25
    assert config.geometry.target_h == 0.025
    assert config.dt == 2e-3
    assert config.t_end == 0.1
    assert config.regime.bc_type == "neumann"
    assert config.formats == ("csv", "vtk")
    assert config.echo["discretization"] == {"h": 1 / 64, "dt": 2e-3,
                                             "t_end": 0.1}


def test_parse_accepts_time_alias_and_orders_scales():
    text = json.dumps({
        "discretization": {"T": 0.05, "eps": [0.25, 0.5, 0.125]}})
    config = cli.parse_config(text, command="converge")
    assert config.t_end == 0.05
    assert config.eps_list == [0.5, 0.25, 0.125]
    assert config.h == 1 / 64


def test_parse_rejects_bad_entries():
    with pytest.raises(ValidationError) as err:
        cli.parse_config('{"regime": {"alpha": "two"}}', command="macro")
    assert err.value.field == "regime.alpha"
    with pytest.raises(ValidationError):
        cli.parse_config('{"nonsense": 1}', command="cell")
    with pytest.raises(ValidationError) as err:
        cli.parse_config('{"geometry": {"radius": 0.25, "edge": 1}}',
                         command="cell")
    assert err.value.field == "geometry.edge"
    with pytest.raises(ValidationError) as err:
        cli.parse_config('{"command": "cell"}', command="macro")
    assert err.value.field == "command"
    with pytest.raises(ValidationError):
        cli.parse_config("{}", command=None)
    with pytest.raises(ValidationError):
        cli.parse_config('{"diagnostics": "rows.csv"}', command="macro")
    with pytest.raises(ValidationError):
        cli.parse_config('{"discretization": {"eps": [0.5]}}',
                         command="micro")
    with pytest.raises(ValidationError):
        cli.parse_config('{"discretization": {"eps": 0.5}}',
                         command="converge")
    with pytest.raises(ValidationError):
        cli.parse_config('{"discretization": {"dt": 1e400}}'
                         .replace("1e400", '"inf"'), command="macro")
    with pytest.raises(ValidationError):
        cli.parse_config('{"output": {"formats": ["hdf5"]}}', command="cell")
    for disc, field in (('{"T": 0.05, "t_end": 0.2}', "discretization.T"),
                        ('{"exact_stokes": true}',
                         "discretization.exact_stokes")):
        with pytest.raises(ValidationError) as err:
            cli.parse_config('{"discretization": %s}' % disc,
                             command="micro")
        assert err.value.field == field


def test_importing_the_cli_leaves_scipy_spatial_unloaded():
    # Only the disk-cell mesher needs scipy.spatial, whose import took
    # 79-157 ms of the 543 ms of importing the CLI; every command, check
    # included, pays the CLI's import.
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); "
         "import snpp.cli; print('scipy.spatial' in sys.modules)", src],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False"]


def test_parse_reports_syntax_position():
    with pytest.raises(ParseError) as err:
        cli.parse_config('{\n  "geometry": {,}\n}', command="cell")
    assert err.value.line == 2
    assert err.value.column is not None


def test_cell_command_writes_coefficients(tmp_path, capsys):
    outdir = tmp_path / "out"
    code = run(tmp_path, "cell", {
        "geometry": {"radius": 0.25, "cell_h": 0.1},
        "output": {"directory": str(outdir)}})
    assert code == 0
    back = read_coefficients(outdir / "coefficients.txt")
    assert sorted(back) == sorted(output.COEFFICIENT_KEYS)
    assert 0.0 < back["D11"] < back["porosity"]
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["command"] == "cell"
    assert manifest["version"]
    assert manifest["config"]["geometry"]["cell_h"] == 0.1


def test_cell_command_without_inclusion_marks_flow_keys(tmp_path):
    outdir = tmp_path / "out"
    code = run(tmp_path, "cell", {
        "geometry": {"radius": None, "cell_h": 0.125},
        "output": {"directory": str(outdir)}})
    assert code == 0
    back = read_coefficients(outdir / "coefficients.txt")
    assert back["porosity"] == 1.0
    assert abs(back["D11"] - 1.0) <= 1e-10
    assert math.isnan(back["K11"])
    assert math.isnan(back["dirichlet_mean"])


def test_macro_command_writes_tables_and_snapshots(tmp_path):
    outdir = tmp_path / "out"
    code = run(tmp_path, "macro", {
        "geometry": {"cell_h": 0.1},
        "discretization": {"h": 0.0625, "dt": 0.005, "T": 0.01},
        "output": {"directory": str(outdir)}})
    assert code == 0
    rows = output.read_diagnostics_csv(outdir / "diagnostics.csv")
    assert len(rows) == 3
    assert rows[0]["t"] == 0.0
    assert rows[-1]["t"] == 0.01
    assert sorted(os.listdir(outdir)) == [
        "diagnostics.csv", "macro_0000.vtk", "macro_0001.vtk",
        "macro_0002.vtk", "manifest.json"]


def test_micro_command_runs_pore_scale(tmp_path):
    outdir = tmp_path / "out"
    code = run(tmp_path, "micro", {
        "regime": {"bc": "dirichlet", "alpha": 2, "beta": 1, "gamma": 1,
                   "phi_d": 0.3},
        "discretization": {"eps": 0.5, "dt": 0.005, "T": 0.005},
        "output": {"directory": str(outdir), "formats": ["csv"]}})
    assert code == 0
    rows = output.read_diagnostics_csv(outdir / "diagnostics.csv")
    assert len(rows) == 2
    assert not any(name.endswith(".vtk") for name in os.listdir(outdir))


def test_profiles_record_the_peak_memory_of_each_run(tmp_path, caplog):
    # Each run's profile holds its own process's peak resident memory:
    # the forked workers of converge report theirs too.
    caplog.set_level(logging.INFO, logger="snpp")
    peaks, stokes_lu = {}, {}
    for command, discretization in (
            ("micro", {"eps": 0.5}), ("converge", {"eps": [0.5]})):
        outdir = tmp_path / command
        path = write_config(tmp_path, {
            "discretization": dict(discretization, h=0.0625, dt=0.005,
                                   T=0.005),
            "output": {"directory": str(outdir), "formats": ["csv"]}})
        assert cli.main([command, "--verbose", "--config", path]) == 0
        profiles = json.loads((outdir / "manifest.json").read_text())[
            "profile"]
        peaks.update((task, profile["peak_rss_mb"])
                     for task, profile in profiles.items())
        stokes_lu.update((task, profile.get("stokes_lu_entries", 0))
                         for task, profile in profiles.items())
    assert sorted(peaks) == ["eps=0.5", "macro", "micro"]
    assert all(0 < peak < 1e5 for peak in peaks.values())
    # A pore-scale run also names its Stokes LU, the allocation that
    # sets its memory; the macro run has none.
    assert all((stokes_lu[task] > 0) == (task != "macro")
               for task in peaks)
    # --verbose logs the profile of the run made in this process.
    [record] = [record for record in caplog.records
                if record.getMessage().startswith("micro run eps=0.5")]
    assert "'peak_rss_mb': %r" % peaks["micro"] in record.getMessage()


def test_converge_command_is_deterministic(tmp_path):
    outdir = tmp_path / "out"
    payload = {
        "discretization": {"h": 0.03125, "dt": 0.005, "T": 0.01,
                           "eps": [0.5]},
        "output": {"directory": str(outdir), "formats": ["csv"]}}
    assert run(tmp_path, "converge", payload) == 0
    first = (outdir / "study.csv").read_bytes()
    lines = first.decode().strip().split("\r\n")
    assert len(lines) == 2
    assert lines[0] == "eps,h,e_c_plus,e_c_minus,e_phi,e_v,observed_order"
    assert run(tmp_path, "converge", payload) == 0
    assert (outdir / "study.csv").read_bytes() == first
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["monotone"] is True


def test_converge_non_monotone_exits_three_with_artifacts(
        tmp_path, capsys, monkeypatch):
    # A real study this small decays monotonically, so its result is
    # marked non-monotone after it runs.
    study = verify.run_convergence_study

    def non_monotone(*args, **kwargs):
        result = study(*args, **kwargs)
        result.flags = ["v errors are not monotone: marked by the test"]
        result.monotone = False
        return result

    monkeypatch.setattr(verify, "run_convergence_study", non_monotone)
    outdir = tmp_path / "out"
    payload = {
        "discretization": {"h": 0.03125, "dt": 0.005, "T": 0.01,
                           "eps": [0.5]},
        "output": {"directory": str(outdir), "formats": ["csv"]}}
    assert run(tmp_path, "converge", payload) == 3
    assert (outdir / "study.csv").is_file()
    assert (outdir / "coefficients.txt").is_file()
    err = capsys.readouterr().err
    assert "NonMonotoneConvergence [verify.run_convergence_study]" in err


# The criterion-10 study: eps {1/2, 1/4}, h=1/32, T=0.01, and the table
# that snpp converge prints for it.
STUDY_PAYLOAD = {"discretization": {"h": 0.03125, "dt": 0.005, "T": 0.01,
                                    "eps": [0.5, 0.25]}}
STUDY_TABLE = [
    "eps      h          c_plus       c_minus      phi          v"
    "           ",
    "0.5      0.0625     2.25163e-02  4.62720e-02  2.41241e-01  "
    "8.83960e-01 ",
    "0.25     0.03125    2.02139e-02  2.00892e-02  1.58841e-02  "
    "6.18707e-01 ",
    ""]


def run_study(tmp_path, capsys):
    """Run the criterion-10 study; returns the exit code, the stdout table
    after the lines naming the written files, and the manifest."""
    outdir = tmp_path / "out"
    code = run(tmp_path, "converge", dict(STUDY_PAYLOAD, output={
        "directory": str(outdir), "formats": ["csv"]}))
    lines = capsys.readouterr().out.split("\n")
    assert lines[:3] == ["wrote %s" % (outdir / name) for name in
                         ("study.csv", "coefficients.txt", "manifest.json")]
    manifest = json.loads((outdir / "manifest.json").read_text())
    return code, lines[3:], manifest


def test_converge_printout_and_verdict_are_pinned(tmp_path, capsys):
    code, table, manifest = run_study(tmp_path, capsys)
    assert code == 0
    assert table == STUDY_TABLE
    assert manifest["flags"] == []
    assert manifest["monotone"] is True


def test_a_measure_added_to_the_table_reaches_every_output(
        tmp_path, capsys, monkeypatch):
    # One record added to verify.MEASURES, and nothing else: the error
    # table, study.csv, the printout and the verdict follow from it.
    extra = verify.Measure("extra", (macro.NEUMANN, macro.DIRICHLET),
                           lambda scale: {0.5: 0.25, 0.25: 0.5}[scale.eps],
                           column=True)
    monkeypatch.setattr(verify, "MEASURES", verify.MEASURES + (extra,))
    code, table, manifest = run_study(tmp_path, capsys)
    assert code == 3
    assert table == [STUDY_TABLE[0] + " extra       ",
                     STUDY_TABLE[1] + " 2.50000e-01 ",
                     STUDY_TABLE[2] + " 5.00000e-01 ", ""]
    flag = "extra errors are not monotone: ['2.500e-01', '5.000e-01']"
    assert manifest["flags"] == [flag]
    assert manifest["monotone"] is False
    lines = (tmp_path / "out" / "study.csv").read_text().splitlines()
    assert lines[0] == ("eps,h,e_c_plus,e_c_minus,e_phi,e_v,e_extra,"
                        "observed_order")
    assert [line.split(",")[6] for line in lines[1:]] == ["0.25", "0.5"]


def test_a_non_finite_study_error_exits_two_without_artifacts(
        tmp_path, capsys, monkeypatch):
    compare = verify.compare_scales

    def nan_velocity(*args):
        errors = compare(*args)
        errors["v"][-1] = float("nan")
        return errors

    monkeypatch.setattr(verify, "compare_scales", nan_velocity)
    outdir = tmp_path / "out"
    code = run(tmp_path, "converge", dict(STUDY_PAYLOAD, output={
        "directory": str(outdir), "formats": ["csv"]}))
    assert code == 2
    assert ("NonFiniteField [verify.study_verdict]: study errors of v are "
            "not finite" in capsys.readouterr().err)
    assert not (outdir / "study.csv").exists()


def test_check_command_pass_and_fail(tmp_path, capsys):
    good = tmp_path / "good.csv"
    rows = [{"t": 0.0, "mass": 1.0, "charge": 0.1, "min_c": 0.2,
             "max_c": 0.9, "fp_iters": 2},
            {"t": 0.1, "mass": 1.0, "charge": 0.05, "min_c": 0.2,
             "max_c": 0.9, "fp_iters": 2}]
    output.write_diagnostics_csv(good, rows)
    outdir = tmp_path / "out"
    code = run(tmp_path, "check", {"diagnostics": str(good),
                                   "output": {"directory": str(outdir)}})
    assert code == 0
    captured = capsys.readouterr()
    assert "PASS mass_conservation" in captured.out

    rows[1]["min_c"] = -0.5
    bad = tmp_path / "bad.csv"
    output.write_diagnostics_csv(bad, rows)
    code = run(tmp_path, "check", {"diagnostics": str(bad),
                                   "output": {"directory": str(outdir)}})
    assert code == 3
    captured = capsys.readouterr()
    assert "FAIL min_concentration" in captured.out


def test_check_requires_diagnostics_path(tmp_path, capsys):
    assert run(tmp_path, "check", {}) == 1
    assert "diagnostics" in capsys.readouterr().err


def test_usage_errors_exit_one(tmp_path, capsys):
    assert cli.main(["bogus"]) == 1
    capsys.readouterr()
    assert cli.main([]) == 1
    capsys.readouterr()
    assert cli.main(["--version"]) == 0
    capsys.readouterr()
    assert cli.main(["check", "--fast"]) == 1
    assert "unrecognized arguments: --fast" in capsys.readouterr().err
    assert cli.main(["cell", "--config", str(tmp_path / "missing.json")]) == 1
    assert "cannot read config" in capsys.readouterr().err
    path = write_config(tmp_path, {"regime": {"alpha": "two"}})
    assert cli.main(["macro", "--config", path]) == 1
    err = capsys.readouterr().err
    assert "regime.alpha" in err
    assert "cli.parse_config" in err
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("t,mass,charge,min_c,max_c,fp_iters\n0,1,0,0,1,0,5\n")
    assert run(tmp_path, "check", {"diagnostics": str(ragged)}) == 1
    assert ("MalformedDiagnostics [output.read_diagnostics_csv]"
            in capsys.readouterr().err)


def readme_config_text():
    readme = pathlib.Path(__file__).parents[1] / "README.md"
    return readme.read_text().split("```json\n")[1].split("```")[0]


@pytest.mark.parametrize("command, entries, field", [
    *(pytest.param(command, {"regime": {"bc": bc, "sigma": 0.05}},
                   "regime.sigma", id="%s-%s-sigma" % (command, bc))
      for command in ("cell", "macro", "micro", "converge")
      for bc in ("neumann", "dirichlet")),
    pytest.param("micro", {"regime": {"bc": "neumann", "phi_d": 0.7}},
                 "regime.phi_d", id="micro-neumann-phi_d"),
    pytest.param("macro", {"regime": {"bc": "robin"}}, "regime.bc",
                 id="macro-robin"),
    pytest.param("converge", {"discretization": {"eps": [0.5, 0.2]}},
                 "discretization.eps", id="converge-unsupported-scale"),
    pytest.param("converge", {"discretization": {"eps": [0.5, 0.5]}},
                 "discretization.eps", id="converge-repeated-scale"),
    pytest.param("micro", {"discretization": {"eps": 0.3}},
                 "discretization.eps", id="micro-non-reciprocal-scale"),
    pytest.param("micro", {"discretization": {"eps": 1e-320}},
                 "discretization.eps", id="micro-overflowing-reciprocal"),
    pytest.param("cell", {"geometry": {"radius": None, "center": "x"}},
                 "geometry.center", id="cell-no-disk-bad-center"),
    pytest.param("macro",
                 {"regime": json.loads(readme_config_text())["regime"]},
                 None, id="macro-readme-regime"),
    pytest.param("macro", {"discretization": {"eps": 0.5}},
                 "discretization.eps", id="macro-unread-eps"),
    *(pytest.param(command, {"discretization": {key: 0.5}},
                   "discretization." + key,
                   id="%s-unread-%s" % (command, key))
      for command in ("cell", "check") for key in ("h", "dt", "T", "eps")),
    *(pytest.param(command, {block: {key: value}}, "%s.%s" % (block, key),
                   id="%s-unread-%s" % (command, key))
      for command, block, key, value in (
          ("cell", "regime", "bc", "dirichlet"),
          ("cell", "regime", "alpha", 0),
          ("cell", "initial", "kind", "uniform"),
          ("cell", "initial", "lam", 2.0),
          ("cell", "output", "formats", ["csv"]),
          ("cell", "output", "snapshot_stride", 0),
          ("check", "regime", "bc", "neumann"),
          ("check", "regime", "phi_d", 0.0),
          ("check", "geometry", "radius", 0.3),
          ("check", "geometry", "cell_h", 0.05),
          ("check", "initial", "kind", "uniform"),
          ("check", "initial", "background", 0.1),
          ("check", "output", "formats", ["vtk"]),
          ("check", "output", "snapshot_stride", 0),
          ("converge", "geometry", "cell_h", 0.05),
          ("micro", "geometry", "cell_h", 0.05))),
])
def test_regime_takes_only_values_a_model_reads(tmp_path, capsys, command,
                                                 entries, field):
    # No surface-charge model runs, and phi_d is the Dirichlet wall
    # potential, so a value that no run would read is refused at parse
    # time, as is a key that the command does not read,
    # a scale that no run can tile and a center that is not a point,
    # disk or not; the README's zeros still run, and its example
    # parses.
    outdir = tmp_path / "out"
    discretization = {"h": 0.0625, "dt": 0.005, "T": 0.005,
                      "eps": [0.5] if command == "converge" else 0.5}
    reads = {name: cli.READS.get(command, {}).get(name, defaults)
             for name, defaults in cli.DEFAULTS.items()}
    payload = {
        "geometry": {"cell_h": 0.1} if "cell_h" in reads["geometry"] else {},
        "discretization": {key: value for key, value in discretization.items()
                           if {"T": "t_end"}.get(key, key)
                           in reads["discretization"]},
        "output": {"directory": str(outdir)}}
    for block, values in entries.items():
        payload[block] = dict(payload.get(block, {}), **values)
    code = run(tmp_path, command, payload)
    err = capsys.readouterr().err
    if field is None:
        assert code == 0
        assert cli.parse_config(readme_config_text()).command == "converge"
        return
    assert code == 1
    assert "ValidationError [cli.parse_config]" in err
    assert "(field %s)" % field in err
    assert not outdir.exists()


# One config per command; together they cover an empty cell, the
# Dirichlet branch, a format given as a string and the T alias.
ECHO_CONFIGS = {
    "cell": {"geometry": {"radius": None, "cell_h": 0.125}},
    "macro": {"regime": {"bc": "dirichlet", "alpha": 2, "beta": 1,
                         "gamma": 1, "phi_d": 0.3},
              "discretization": {"h": 0.0625, "T": 0.01}},
    "micro": {"discretization": {"eps": 0.25},
              "output": {"formats": "csv", "snapshot_stride": 0}},
    "converge": {"discretization": {"eps": [0.25, 0.5], "dt": 0.005}},
    "check": {"diagnostics": "rows.csv", "initial": {"lam": 2}},
}


@pytest.mark.parametrize("command", sorted(ECHO_CONFIGS))
def test_the_echo_parses_back_to_the_same_run(command):
    # The manifest records the resolved config with every default
    # filled, so parsing it again reproduces the run.
    config = cli.parse_config(json.dumps(ECHO_CONFIGS[command]),
                              command=command)
    again = cli.parse_config(json.dumps(config.echo))
    assert vars(again) == vars(config)
    assert sorted(config.echo) == sorted(
        ["command", *cli.DEFAULTS] + (["diagnostics"]
                                      if command == "check" else []))
    # The keys that the command does not read are left out.
    for name, defaults in cli.DEFAULTS.items():
        assert sorted(config.echo[name]) == sorted(
            cli.READS.get(command, {}).get(name, defaults))


@pytest.mark.parametrize("field", ["%s.%s" % (name, key)
                                   for name, defaults in cli.DEFAULTS.items()
                                   for key in defaults])
def test_every_config_key_is_checked(tmp_path, capsys, field):
    # Every key of the defaults table is resolved by a check that names
    # it: an object where a value belongs is refused at parse time.
    name, key = field.split(".")
    assert run(tmp_path, "macro", {name: {key: {}}}) == 1
    err = capsys.readouterr().err
    assert "[cli.parse_config]" in err
    assert "(field %s)" % field in err


@pytest.mark.parametrize("command", ["macro", "converge"])
def test_non_finite_field_exits_two_without_artifacts(
        tmp_path, capsys, monkeypatch, command):
    def broken_step(solver, velocity, drift, tensor, c_plus, c_minus,
                    refill=True):
        return c_plus.copy(), np.full_like(c_minus, np.inf)

    monkeypatch.setattr(fem, "step_reacting_pair", broken_step)
    outdir = tmp_path / "out"
    discretization = {"h": 0.0625, "dt": 0.005, "T": 0.01}
    if command == "converge":
        discretization["eps"] = [0.5]
    payload = {"discretization": discretization,
               "output": {"directory": str(outdir)}}
    if command == "macro":
        payload["geometry"] = {"cell_h": 0.1}
    code = run(tmp_path, command, payload)
    assert code == 2
    assert "NonFiniteField" in capsys.readouterr().err
    assert not (outdir / "diagnostics.csv").exists()
    assert not (outdir / "study.csv").exists()


def test_converge_worker_failure_exits_two_and_ends_the_pool(
        tmp_path, capsys, monkeypatch):
    # Only the macro task steps through step_macro_np, so its worker
    # raises while the pore-scale ones run.
    def broken_step(state, coeffs, model, ops, refill=True):
        return state.c_plus.copy(), np.full_like(state.c_minus, np.inf)

    monkeypatch.setattr(macro, "step_macro_np", broken_step)
    outdir = tmp_path / "out"
    code = run(tmp_path, "converge", {
        "discretization": {"h": 0.0625, "dt": 0.005, "T": 0.01,
                           "eps": [0.5, 0.25]},
        "output": {"directory": str(outdir)}})
    assert code == 2
    assert "NonFiniteField [macro.run_steps]" in capsys.readouterr().err
    assert not (outdir / "study.csv").exists()
    # No child process is left, not even an exited one waiting to be
    # reaped.
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
