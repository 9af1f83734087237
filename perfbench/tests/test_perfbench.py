"""Tests of the benchmark itself: a quick traced run of the harness on
tiny configs, and every output check rejecting a corrupted output.

    python3 -m pytest perfbench/tests
"""

import copy
import csv
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

TINY_STUDY = copy.deepcopy(run.STUDY)
TINY_STUDY["discretization"].update(h=1 / 16, T=0.01, eps=[0.5, 0.25])
TINY_MICRO = copy.deepcopy(run.MICRO)
TINY_MICRO["discretization"].update(h=1 / 32, eps=0.25)
WORKLOADS = {
    "study": {"command": "converge", "config": TINY_STUDY},
    "micro": {"command": "micro", "config": TINY_MICRO},
}


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    base = tmp_path_factory.mktemp("bench")
    store = str(base / "repeat.json")
    rounds = {name: run.run_round(workload, str(base / name), True, store)
              for name, workload in WORKLOADS.items()}
    return base, store, rounds


def test_quick_traced_run_passes_every_check(tiny):
    _, _, rounds = tiny
    for name, outcome in rounds.items():
        assert not outcome["failed"], (name, outcome["problems"])
        assert outcome["problems"] == [], name
        record = outcome["record"]
        assert set(record["layers"]) == set(tracer.METRICS)
        assert record["wall_s"] > 0 and record["cpu_s"] > 0
        assert record["peak_rss_mb"] > 0 and record["setup_s"] > 0
    study = rounds["study"]["record"]["layers"]
    assert study["fem.factorizations"] > 0 and study["macro.sweeps"] > 0
    assert study["micro.eps2.run_s"] > 0 and study["micro.eps4.run_s"] > 0
    assert study["fem.interpolated_points"] > 0
    micro = rounds["micro"]["record"]["layers"]
    assert micro["fem.interpolated_points"] == 0 and micro["macro.run_s"] == 0
    assert micro["output.bytes"] > 0


def test_second_run_repeats_bytes_and_counts(tiny, tmp_path):
    _, store, rounds = tiny
    again = run.run_round(WORKLOADS["study"], str(tmp_path / "study"), True,
                          store)
    assert again["problems"] == []
    first = rounds["study"]["record"]["layers"]
    second = again["record"]["layers"]
    assert {n: first[n] for n in tracer.COUNTS} \
        == {n: second[n] for n in tracer.COUNTS}


def test_summary_names_every_metric(tiny):
    _, _, rounds = tiny
    rounds = [rounds["study"], {"failed": True, "problems": ["exit 2"],
                                 "record": None}]
    result = run.summarize(rounds, [0.5, 0.7, 0.6], trace=False)
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert result["metrics"]["setup_s"]["value"] == 0.6
    assert (result["attempted"], result["failed"]) == (2, 1)
    assert result["correct"] is True
    traced = run.summarize(rounds, [0.5], trace=True)
    assert set(traced["metrics"]) == set(run.PER_LAYER)


def _copy(tiny, name, tmp_path):
    base, _, _ = tiny
    target = tmp_path / name
    shutil.copytree(base / name, target)
    return target


def _edit_study(path, column, row, value):
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    rows[row + 1][rows[0].index(column)] = repr(value)
    with open(path, "w", newline="") as handle:
        csv.writer(handle).writerows(rows)


def test_study_check_rejects_non_decreasing_error(tiny, tmp_path):
    directory = _copy(tiny, "study", tmp_path)
    path = directory / "study.csv"
    assert checks.check_study(path, TINY_STUDY["discretization"]["eps"]) == []
    with open(path, newline="") as handle:
        first = float(list(csv.DictReader(handle))[0]["e_v"])
    _edit_study(path, "e_v", 1, first)
    problems = checks.check_study(path, TINY_STUDY["discretization"]["eps"])
    assert len(problems) == 1 and "e_v" in problems[0]


def _edit_coefficients(path, **changes):
    values = {}
    with open(path) as handle:
        for line in handle:
            key, _, text = line.strip().partition("=")
            values[key] = float(text)
    values.update(changes)
    with open(path, "w") as handle:
        for key, value in values.items():
            handle.write("%s=%r\n" % (key, value))
    return values


@pytest.mark.parametrize("change, message", [
    (lambda v: {"D22": v["D22"] * (1 + 1e-6)}, "D is not isotropic"),
    (lambda v: {"K12": 1e-6 * v["K11"]}, "K is not isotropic"),
    (lambda v: {"porosity": 0.8036}, "porosity"),
    (lambda v: {"porosity": 0.82}, "porosity"),
    (lambda v: {"D11": v["porosity"] * 1.01, "D22": v["porosity"] * 1.01},
     "Wiener bound"),
    (lambda v: {"K11": -v["K11"], "K22": -v["K22"]}, "positive definite"),
])
def test_coefficient_check_rejects_bad_tensors(tiny, tmp_path, change,
                                               message):
    path = _copy(tiny, "study", tmp_path) / "coefficients.txt"
    radius = TINY_STUDY["geometry"]["radius"]
    assert checks.check_coefficients(path, radius) == []
    _edit_coefficients(path, **change(_edit_coefficients(path)))
    problems = checks.check_coefficients(path, radius)
    assert any(message in p for p in problems), problems


def _edit_vtk(path, header, edit):
    """Apply edit(values) to the block that follows a VTK header line."""
    with open(path) as handle:
        lines = handle.read().split("\n")
    start = lines.index(header) + (2 if header.startswith("SCALARS") else 1)
    end = start
    while end < len(lines) and lines[end] and not lines[end][0].isupper():
        end += 1
    rows = [[float(x) for x in line.split()] for line in lines[start:end]]
    for index, row in enumerate(edit(rows)):
        lines[start + index] = " ".join(repr(x) for x in row)
    with open(path, "w") as handle:
        handle.write("\n".join(lines))


def _scale(factor):
    return lambda rows: [[x * factor for x in row] for row in rows]


def _shift_node(node, delta):
    def edit(rows):
        rows[node][0] += delta
        return rows
    return edit


def _push_cell(rows):
    largest = max(abs(x) for row in rows for x in row)
    rows[len(rows) // 2][0] += 0.1 * largest
    return rows


@pytest.mark.parametrize("edits, message", [
    ([("SCALARS c_plus double 1", _scale(1 + 1e-6)),
      ("SCALARS c_minus double 1", _scale(1 + 1e-6))], "mass drifts"),
    ([("SCALARS c_plus double 1", _shift_node(5, 1e-6)),
      ("SCALARS c_minus double 1", _shift_node(5, -1e-6))], "net charge"),
    ([("SCALARS c_minus double 1", _shift_node(5, -1.0))], "leaves [0, 1]"),
    ([("SCALARS c_plus double 1", _shift_node(5, 1.0))], "leaves [0, 1]"),
    ([("VECTORS velocity double", _push_cell)], "weak divergence"),
    ([("VECTORS velocity double", _scale(0.0))], "identically zero"),
])
def test_micro_check_rejects_corrupted_vtk(tiny, tmp_path, edits, message):
    directory = _copy(tiny, "micro", tmp_path)
    assert checks.check_micro(directory, 1.0) == []
    for header, edit in edits:
        _edit_vtk(directory / "micro_0001.vtk", header, edit)
    problems = checks.check_micro(directory, 1.0)
    assert any(message in p for p in problems), problems


def test_repeat_check_rejects_changed_bytes(tiny, tmp_path):
    directory = _copy(tiny, "study", tmp_path)
    store = str(tmp_path / "repeat.json")
    path = directory / "study.csv"
    assert checks.check_repeat(store, "k", checks.digest_files([path])) == []
    assert checks.check_repeat(store, "k", checks.digest_files([path])) == []
    _edit_study(path, "e_c_plus", 0, 1.0)
    problems = checks.check_repeat(store, "k", checks.digest_files([path]))
    assert len(problems) == 1 and "study.csv" in problems[0]


def test_missing_output_is_a_failed_check(tiny, tmp_path, monkeypatch):
    directory = _copy(tiny, "micro", tmp_path)
    os.remove(directory / "diagnostics.csv")
    monkeypatch.setattr(run, "run_child", lambda *a, **k: (
        0, tiny[2]["micro"]["record"]))
    outcome = run.run_round(WORKLOADS["micro"], str(directory), False,
                            str(tmp_path / "repeat.json"))
    assert not outcome["failed"]
    assert "unreadable output" in outcome["problems"][0]


def test_run_needs_the_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"),
                tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "study_serial",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
