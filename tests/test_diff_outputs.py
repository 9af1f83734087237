"""scripts/diff_outputs.py on two converge output directories."""

import json
import pathlib
import subprocess
import sys

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" \
    / "diff_outputs.py"
HEADER = "eps,h,e_c_plus,e_c_minus,e_phi,e_v,observed_order"
ROWS = [[0.5, 0.0625, 9.75e-3, 1.80e-2, 2.35e-1, 8.55e-1, float("nan")],
        [0.25, 0.03125, 8.04e-4, 1.09e-3, 8.57e-3, 5.49e-1, 3.6]]
COEFFS = {"porosity": 0.80865828381745508, "D12": -3.69e-18,
          "K11": 0.020456691261947706}


def write_run(directory, rows, coeffs, flags, monotone):
    directory.mkdir()
    lines = [HEADER] + [",".join(repr(v) for v in row) for row in rows]
    (directory / "study.csv").write_text("\n".join(lines) + "\n")
    (directory / "coefficients.txt").write_text(
        "".join("%s=%r\n" % item for item in coeffs.items()))
    (directory / "manifest.json").write_text(json.dumps(
        {"command": "converge", "wall_time_seconds": 1.0, "flags": flags,
         "monotone": monotone}))
    return str(directory)


def run_script(*directories):
    done = subprocess.run([sys.executable, str(SCRIPT), *directories],
                          capture_output=True, text=True, timeout=60)
    printed = {}
    for line in done.stdout.splitlines():
        source, key, value = line.split()
        printed[source, key] = value
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


def test_mismatched_studies_exit_two(tmp_path):
    first = write_run(tmp_path / "a", ROWS, COEFFS, [], True)
    second = write_run(tmp_path / "b", ROWS[:1], COEFFS, [], True)
    assert run_script(first, second)[0] == 2
    assert run_script(first)[0] == 2
