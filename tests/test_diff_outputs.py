"""scripts/diff_outputs.py on two converge or pore-scale output directories."""

import json
import pathlib
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from snpp import output
from snpp.mesh import UnitCellGeometry, generate_unit_cell_mesh

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" \
    / "diff_outputs.py"
HEADER = "eps,h,e_c_plus,e_c_minus,e_phi,e_v,observed_order"
ROWS = [[0.5, 0.0625, 9.75e-3, 1.80e-2, 2.35e-1, 8.55e-1, float("nan")],
        [0.25, 0.03125, 8.04e-4, 1.09e-3, 8.57e-3, 5.49e-1, 3.6]]
COEFFS = {"porosity": 0.80865828381745508, "D12": -3.69e-18,
          "K11": 0.020456691261947706}


def write_run(directory, rows, coeffs, flags, monotone, profile=None,
              config=None, invariants=None):
    directory.mkdir()
    lines = [HEADER] + [",".join(repr(v) for v in row) for row in rows]
    (directory / "study.csv").write_text("\n".join(lines) + "\n")
    (directory / "coefficients.txt").write_text(
        "".join("%s=%r\n" % item for item in coeffs.items()))
    manifest = {"command": "converge", "wall_time_seconds": 1.0,
                "flags": flags, "monotone": monotone}
    if profile is not None:
        manifest["profile"] = profile
    if config is not None:
        manifest["config"] = config
    if invariants is not None:
        manifest["invariants"] = invariants
    (directory / "manifest.json").write_text(json.dumps(manifest))
    return str(directory)


def call_script(*directories):
    return subprocess.run([sys.executable, str(SCRIPT), *directories],
                          capture_output=True, text=True, timeout=60)


def run_script(*directories):
    done = call_script(*directories)
    printed = {}
    for line in done.stdout.splitlines():
        # A table column also prints its column-scaled difference, kept
        # under (source, key, "scaled").
        source, key, value, *scaled = line.split()
        printed[source, key] = value
        if scaled:
            printed[source, key, "scaled"] = scaled[0]
    return done.returncode, printed


def test_prints_the_largest_relative_difference_of_each_column_and_key(
        tmp_path):
    rows = [list(row) for row in ROWS]
    rows[1][4] *= 1 + 3e-10
    rows[0][5] *= 1 - 1e-12
    coeffs = dict(COEFFS, D12=-3.69e-18 * 1.5)
    first = write_run(tmp_path / "a", ROWS, COEFFS, [], True)
    second = write_run(tmp_path / "b", rows, coeffs, [], True)
    code, printed = run_script(first, second)
    assert code == 0
    assert float(printed["study.csv", "e_phi"]) == pytest.approx(3e-10,
                                                                rel=1e-3)
    assert float(printed["study.csv", "e_v"]) == pytest.approx(1e-12,
                                                              rel=1e-3)
    # Both nan counts as equal.
    for name in ("eps", "h", "e_c_plus", "e_c_minus", "observed_order"):
        assert float(printed["study.csv", name]) == 0.0
    assert float(printed["coefficients.txt", "D12"]) == pytest.approx(
        1 / 3, rel=1e-3)
    assert float(printed["coefficients.txt", "K11"]) == 0.0
    assert printed["manifest.json", "flags"] == "same"
    assert printed["manifest.json", "monotone"] == "same"


def test_table_columns_also_print_the_difference_over_the_column_scale(
        tmp_path):
    # An entry of round-off next to a large one reads as a large relative
    # difference by itself, and as round-off against the column's scale.
    rows = [list(row) for row in ROWS]
    rows[1][4] = 1e-17
    changed = [list(row) for row in rows]
    changed[1][4] = 2e-17
    changed[1][6] = 3.6 * (1 + 1e-12)
    first = write_run(tmp_path / "a", rows, COEFFS, [], True)
    second = write_run(tmp_path / "b", changed, COEFFS, [], True)
    code, printed = run_script(first, second)
    assert code == 0
    assert float(printed["study.csv", "e_phi"]) == pytest.approx(0.5)
    assert float(printed["study.csv", "e_phi", "scaled"]) == pytest.approx(
        1e-17 / 2.35e-1, rel=1e-3)
    # The nan of the first row, in both runs, is left out of the scale.
    assert float(printed["study.csv", "observed_order", "scaled"]) == \
        pytest.approx(1e-12, rel=1e-3)
    assert float(printed["study.csv", "e_v", "scaled"]) == 0.0
    assert ("coefficients.txt", "K11", "scaled") not in printed


@pytest.mark.parametrize("changed", [{"flags": ["v errors are not monotone"]},
                                     {"monotone": False}],
                         ids=["flags", "monotone"])
def test_a_changed_verdict_exits_one(tmp_path, changed):
    verdict = {"flags": [], "monotone": True}
    first = write_run(tmp_path / "a", ROWS, COEFFS, **verdict)
    second = write_run(tmp_path / "b", ROWS, COEFFS,
                       **dict(verdict, **changed))
    code, printed = run_script(first, second)
    assert code == 1
    [key] = changed
    assert printed["manifest.json", key] == "DIFFERS"
    assert float(printed["study.csv", "e_phi"]) == 0.0


def test_invariant_verdicts_are_compared_by_name_and_passed(tmp_path):
    def invariants(drift, passed=True):
        return {task: [{"name": "mass_conservation", "passed": passed,
                        "value": drift, "tolerance": 1e-9},
                       {"name": "min_concentration", "passed": True,
                        "value": 0.2, "tolerance": 1e-6}]
                for task in ("macro", "eps=0.5")}

    first = write_run(tmp_path / "a", ROWS, COEFFS, [], True,
                      invariants=invariants(3.4e-13))
    # Values that differ between runs alone are not a different verdict.
    code, printed = run_script(first, write_run(
        tmp_path / "b", ROWS, COEFFS, [], True,
        invariants=invariants(1.1e-13)))
    assert code == 0
    assert printed["manifest.json", "invariants"] == "same"
    changed = invariants(2e-6)
    changed["eps=0.5"][0]["passed"] = False
    code, printed = run_script(first, write_run(
        tmp_path / "c", ROWS, COEFFS, [], True, invariants=changed))
    assert code == 2
    assert printed["manifest.json", "invariants"] == "DIFFERS"
    assert printed["manifest.json", "flags"] == "same"
    # Without invariants in both manifests nothing is compared.
    code, printed = run_script(first, write_run(tmp_path / "d", ROWS,
                                                COEFFS, [], True))
    assert code == 0
    assert ("manifest.json", "invariants") not in printed


def test_profile_counts_that_differ_are_printed_per_task(tmp_path):
    profile = {"macro": {"run_s": 1.2, "peak_rss_mb": 120.5, "sweeps": 110,
                         "lu_entries": 9},
               "eps=0.5": {"run_s": 0.2, "peak_rss_mb": 98.0, "sweeps": 110,
                           "stokes_solves": 111,
                           "stokes_lu_entries": 2752108}}
    changed = json.loads(json.dumps(profile))
    changed["macro"].update(run_s=0.7, peak_rss_mb=131.0)
    changed["eps=0.5"].update(run_s=0.1, peak_rss_mb=97.5, sweeps=112,
                              stokes_solves=113,
                              stokes_lu_entries=2749389)
    same = write_run(tmp_path / "a", ROWS, COEFFS, [], True, profile)
    code, printed = run_script(same, write_run(tmp_path / "b", ROWS, COEFFS,
                                               [], True, profile))
    assert code == 0
    assert printed["manifest.json", "profile"] == "same"
    code, printed = run_script(same, write_run(tmp_path / "c", ROWS, COEFFS,
                                               [], True, changed))
    assert code == 0
    profile_lines = {key[1]: (value, printed[key + ("scaled",)])
                     for key, value in printed.items()
                     if len(key) == 2 and "/" in key[1]}
    # The timers and the peak memory differ too but are not counts.
    assert profile_lines == {"eps=0.5/stokes_solves": ("111", "113"),
                             "eps=0.5/stokes_lu_entries": ("2752108",
                                                           "2749389"),
                             "eps=0.5/sweeps": ("110", "112")}
    # Without a profile in both manifests nothing is compared.
    code, printed = run_script(same, write_run(tmp_path / "d", ROWS, COEFFS,
                                               [], True))
    assert code == 0
    assert ("manifest.json", "profile") not in printed


def test_coupled_factorizations_are_compared_like_every_count(tmp_path):
    # A transport solver that falls back to the coupled block counts it
    # in coupled_factorizations; a profile written before the count
    # existed shows it as "-".
    before = {"macro": {"run_s": 1.2, "transport_factorizations": 1,
                        "lu_entries": 1005624}}
    species = {"macro": {"run_s": 1.1, "transport_factorizations": 1,
                         "coupled_factorizations": 0,
                         "lu_entries": 406920}}
    fallback = json.loads(json.dumps(species))
    fallback["macro"].update(run_s=1.4, coupled_factorizations=1)
    first = write_run(tmp_path / "a", ROWS, COEFFS, [], True, before)
    second = write_run(tmp_path / "b", ROWS, COEFFS, [], True, species)
    third = write_run(tmp_path / "c", ROWS, COEFFS, [], True, fallback)
    for pair, expected in (
            ((first, second),
             {"macro/coupled_factorizations": ("-", "0"),
              "macro/lu_entries": ("1005624", "406920")}),
            ((second, third), {"macro/coupled_factorizations": ("0", "1")})):
        code, printed = run_script(*pair)
        assert code == 0
        assert {key[1]: (value, printed[key + ("scaled",)])
                for key, value in printed.items()
                if len(key) == 2 and "/" in key[1]} == expected


def test_field_updates_are_compared_like_every_count(tmp_path):
    # A run that solves its fields only for the sweeps that read them
    # counts fewer field_updates for the same sweeps; a profile written
    # before the count existed shows it as "-".
    before = {"eps=0.125": {"run_s": 2.2, "sweeps": 110,
                            "stokes_solves": 111}}
    counted = {"eps=0.125": {"run_s": 1.9, "sweeps": 110,
                             "field_updates": 111, "stokes_solves": 111}}
    fewer = json.loads(json.dumps(counted))
    fewer["eps=0.125"].update(run_s=1.2, field_updates=62, stokes_solves=62)
    first = write_run(tmp_path / "a", ROWS, COEFFS, [], True, before)
    second = write_run(tmp_path / "b", ROWS, COEFFS, [], True, counted)
    third = write_run(tmp_path / "c", ROWS, COEFFS, [], True, fewer)
    for pair, expected in (
            ((first, second), {"eps=0.125/field_updates": ("-", "111")}),
            ((second, third), {"eps=0.125/field_updates": ("111", "62"),
                               "eps=0.125/stokes_solves": ("111", "62")})):
        code, printed = run_script(*pair)
        assert code == 0
        assert {key[1]: (value, printed[key + ("scaled",)])
                for key, value in printed.items()
                if len(key) == 2 and "/" in key[1]} == expected


CONFIG = {"command": "converge",
          "discretization": {"h": 0.015625, "eps": [0.5, 0.25]},
          "output": {"directory": "a", "formats": ["csv"]}}


def test_config_entries_that_differ_are_printed_by_key(tmp_path):
    same = write_run(tmp_path / "a", ROWS, COEFFS, [], True, config=CONFIG)
    # Only the output directory differs, which is left out.
    moved = json.loads(json.dumps(CONFIG))
    moved["output"]["directory"] = "b"
    code, printed = run_script(same, write_run(tmp_path / "b", ROWS, COEFFS,
                                               [], True, config=moved))
    assert code == 0
    assert printed["manifest.json", "config"] == "same"
    changed = json.loads(json.dumps(moved))
    changed["discretization"]["eps"] = [0.5, 0.125]
    changed["command"] = "micro"
    changed["diagnostics"] = "rows.csv"
    done = call_script(same, write_run(tmp_path / "c", ROWS, COEFFS, [],
                                       True, config=changed))
    # A config difference is reported, and the exit code stays that of
    # the verdict.
    assert done.returncode == 0
    printed = done.stdout.splitlines()
    for line in ('manifest.json command "converge" "micro"',
                 'manifest.json diagnostics - "rows.csv"',
                 "manifest.json discretization.eps [0.5,0.25] [0.5,0.125]"):
        assert line in printed
    assert "output.directory" not in done.stdout
    assert "manifest.json config same" not in printed
    # Without a config in both manifests nothing is compared.
    code, printed = run_script(same, write_run(tmp_path / "d", ROWS, COEFFS,
                                               [], True))
    assert code == 0
    assert ("manifest.json", "config") not in printed


def test_mismatched_studies_exit_two(tmp_path):
    first = write_run(tmp_path / "a", ROWS, COEFFS, [], True)
    second = write_run(tmp_path / "b", ROWS[:1], COEFFS, [], True)
    done = call_script(first, second)
    assert done.returncode == 2
    assert "study.csv: 2 rows in the first run, 1 in the second" \
        in done.stderr
    assert run_script(first)[0] == 2
    # A column or a key that only one run holds is named, by run.
    renamed = write_run(tmp_path / "c", ROWS, COEFFS, [], True)
    study = pathlib.Path(renamed) / "study.csv"
    study.write_text(study.read_text().replace("e_v,", "e_u,"))
    done = call_script(first, renamed)
    assert done.returncode == 2
    assert ("study.csv: columns only in the first run: e_v; only in the "
            "second: e_u") in done.stderr
    (pathlib.Path(first) / "study.csv").unlink()
    study.unlink()
    extra = dict(COEFFS, K22=0.0205)
    (pathlib.Path(renamed) / "coefficients.txt").write_text(
        "".join("%s=%r\n" % item for item in extra.items()))
    done = call_script(first, renamed)
    assert done.returncode == 2
    assert ("coefficients.txt: keys only in the first run: none; only in "
            "the second: K22") in done.stderr


def test_studies_with_an_appended_column_compare_their_shared_columns(
        tmp_path):
    # A change that appends a measure to study.csv: the shared columns,
    # the coefficients and the verdict are still compared, the column of
    # one run is named, and the exit code is 2.
    rows = [list(row) for row in ROWS]
    rows[1][4] *= 1 + 3e-10
    first = write_run(tmp_path / "a", ROWS, COEFFS, [], True)
    second = write_run(tmp_path / "b", rows, COEFFS, [], True)
    study = pathlib.Path(second) / "study.csv"
    study.write_text("\n".join(
        line.replace(",observed_order", ",observed_order,e_extra")
        if k == 0 else line + ",%r" % (0.1 * k)
        for k, line in enumerate(study.read_text().splitlines())) + "\n")
    done = call_script(first, second)
    assert done.returncode == 2
    assert ("study.csv: columns only in the first run: none; only in the "
            "second: e_extra") in done.stderr
    printed = {tuple(line.split()[:2]): line.split()[2:]
               for line in done.stdout.splitlines()}
    assert float(printed["study.csv", "e_phi"][0]) == pytest.approx(
        3e-10, rel=1e-3)
    for name in ("eps", "h", "e_c_plus", "e_c_minus", "e_v",
                 "observed_order"):
        assert float(printed["study.csv", name][0]) == 0.0
    assert ("study.csv", "e_extra") not in printed
    assert float(printed["coefficients.txt", "K11"][0]) == 0.0
    assert printed["manifest.json", "flags"] == ["same"]


DIAGNOSTICS = [{"t": 0.0, "mass": 0.8, "charge": 1e-17, "min_c": 0.2,
                "max_c": 0.7, "fp_iters": 0},
               {"t": 2e-3, "mass": 0.8, "charge": -2e-17, "min_c": 0.21,
                "max_c": 0.69, "fp_iters": 2}]


def write_snapshots(directory, mesh, scale=1.0):
    """diagnostics.csv and two VTK snapshots, as a pore-scale run writes
    them; the pressure of the second snapshot is multiplied by scale."""
    directory.mkdir()
    output.write_diagnostics_csv(str(directory / "diagnostics.csv"),
                                 DIAGNOSTICS)
    x, y = mesh.nodes.T
    for k, factor in enumerate((1.0, scale)):
        state = SimpleNamespace(
            mesh=mesh, t=2e-3 * k, c_plus=0.2 + 0.5 * x * y, c_minus=0.7 - 0.5 * x * y,
            phi=np.sin(np.pi * x) * y, pressure=factor * (x - 0.5),
            velocity=np.tile([1e-3, -2e-3], (mesh.num_triangles, 1)))
        output.write_vtk(str(directory / ("micro_%04d.vtk" % k)), state)
    return str(directory)


def test_compares_the_diagnostics_and_vtk_fields_of_pore_scale_runs(
        tmp_path):
    mesh = generate_unit_cell_mesh(UnitCellGeometry(None, 0.25))
    first = write_snapshots(tmp_path / "a", mesh)
    second = write_snapshots(tmp_path / "b", mesh, scale=1 + 1e-9)
    code, printed = run_script(first, second)
    assert code == 0
    # The largest pressure difference over the largest pressure.
    assert float(printed["vtk", "pressure"]) == pytest.approx(1e-9, rel=1e-3)
    for name in ("points", "cells", "c_plus", "c_minus", "phi", "velocity"):
        assert float(printed["vtk", name]) == 0.0
    for name in ("t", "mass", "charge", "min_c", "max_c", "fp_iters"):
        assert float(printed["diagnostics.csv", name]) == 0.0
    assert ("study.csv", "eps") not in printed


def test_round_off_entries_read_against_the_quantity_they_vanish_next_to(
        tmp_path):
    # The charge is round-off next to the mass, and D12 and K12 next to
    # the diagonal coefficients; against their own size they read as O(1).
    coeffs = dict(COEFFS, D11=0.62, D22=0.65, K12=2e-19, K22=0.021)
    changed = dict(coeffs, D12=-1.2e-18, K12=-3e-19)
    first = write_run(tmp_path / "a", ROWS, coeffs, [], True)
    second = write_run(tmp_path / "b", ROWS, changed, [], True)
    output.write_diagnostics_csv(str(tmp_path / "a" / "diagnostics.csv"),
                                 DIAGNOSTICS)
    output.write_diagnostics_csv(
        str(tmp_path / "b" / "diagnostics.csv"),
        [dict(row, charge=-row["charge"]) for row in DIAGNOSTICS])
    code, printed = run_script(first, second)
    assert code == 0
    for figure in (("diagnostics.csv", "charge"),
                   ("diagnostics.csv", "charge", "scaled")):
        assert float(printed[figure]) == pytest.approx(4e-17 / 0.8,
                                                       rel=1e-3)
    assert float(printed["coefficients.txt", "D12"]) == pytest.approx(
        2.49e-18 / 0.65, rel=1e-3)
    assert float(printed["coefficients.txt", "K12"]) == pytest.approx(
        5e-19 / 0.021, rel=1e-3)
    assert float(printed["diagnostics.csv", "mass"]) == 0.0


def test_a_file_in_one_directory_only_or_another_mesh_exits_two(tmp_path):
    mesh = generate_unit_cell_mesh(UnitCellGeometry(None, 0.25))
    first = write_snapshots(tmp_path / "a", mesh)
    second = write_snapshots(tmp_path / "b", mesh)
    (tmp_path / "b" / "micro_0001.vtk").unlink()
    assert run_script(first, second)[0] == 2
    finer = generate_unit_cell_mesh(UnitCellGeometry(None, 0.125))
    third = write_snapshots(tmp_path / "c", finer)
    assert run_script(first, third)[0] == 2
