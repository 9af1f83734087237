"""The summary of scripts/bench_pairs.py on canned perfbench results."""

import importlib.util
import json
import pathlib

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" \
    / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def result(**values):
    return {"correct": True, "attempted": 1, "failed": 0,
            "metrics": {name: {"value": value, "unit": "s"}
                        for name, value in values.items()}}


def paired(parent, change, name="peak_rss_mb"):
    """Runs of the given values, alternating the side that goes first."""
    runs = []
    for pair, values in enumerate(zip(parent, change), start=1):
        sides = list(zip(bench_pairs.SIDES, values))
        for side, value in sides if pair % 2 else sides[::-1]:
            runs.append({"pair": pair, "side": side,
                         "result": result(**{name: value})})
    return runs


def test_a_lower_median_won_in_nine_of_ten_pairs_is_a_gain():
    parent = [150.0, 151.0, 152.0, 151.5, 150.5, 152.5, 151.0, 150.0,
              152.0, 151.0]
    change = [143.0, 144.0, 143.5, 144.5, 143.0, 144.0, 143.5, 151.0,
              143.0, 144.0]
    entry = bench_pairs.summarize(
        paired(parent, change), {"peak_rss_mb": "lower"})["peak_rss_mb"]
    assert entry["pairs"] == 10
    # Pair 8 is a tie, which counts for neither side.
    assert entry["won"] == 9
    assert entry["parent"] == {"q1": 150.625, "median": 151.0, "q3": 151.875}
    assert entry["change"]["median"] == 143.75
    assert entry["relative"] == pytest.approx((143.75 - 151.0) / 151.0)
    assert entry["gain"]


@pytest.mark.parametrize("change, won", [
    # Every pair won, but the medians differ by less than the parent's
    # quartile spread.
    ([9.5, 9.0, 9.5, 10.0, 9.5, 9.0], 6),
    # A large gap in the medians won in only four of six pairs.
    ([5.0, 5.0, 5.0, 5.0, 12.0, 11.0], 4),
])
def test_a_gain_needs_both_the_pairs_and_the_spread(change, won):
    parent = [10.0, 9.5, 10.5, 11.0, 10.0, 9.5]
    entry = bench_pairs.summarize(
        paired(parent, change, "wall_s"), {"wall_s": "lower"})["wall_s"]
    assert entry["won"] == won
    assert not entry["gain"]


def test_higher_is_better_reverses_the_comparison():
    entry = bench_pairs.summarize(
        paired([1.0, 1.1, 0.9], [2.0, 2.1, 1.9], "ratio"),
        {"ratio": "higher"})["ratio"]
    assert entry["won"] == 3
    assert entry["gain"]


def test_runs_without_a_result_or_metric_are_left_out():
    runs = paired([3.0, 4.0, 5.0], [2.0, 3.0, 4.0], "cpu_s")
    runs[0]["result"] = None
    entries = bench_pairs.summarize(runs, {"cpu_s": "lower",
                                           "wall_s": "lower"})
    assert list(entries) == ["cpu_s"]
    assert entries["cpu_s"]["pairs"] == 2
    assert entries["cpu_s"]["parent"]["median"] == 4.5
    assert entries["cpu_s"]["change"] == {"q1": 3.25, "median": 3.5,
                                          "q3": 3.75}


def test_main_alternates_the_sides_and_writes_every_run(tmp_path,
                                                       monkeypatch):
    (tmp_path / "BENCHMARK.json").write_text(
        '{"end_to_end": [{"name": "wall_s", "better": "lower"}]}')
    order = []

    def run_once(tree, workload):
        order.append((tree, workload))
        return result(wall_s=3.0 if tree == "old" else 2.0)

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    monkeypatch.chdir(tmp_path)
    status = bench_pairs.main(["old", str(tmp_path), "--workload", "w",
                               "--pairs", "3", "--out", "pairs.json"])
    assert status == 0
    assert [tree for tree, _ in order] == [
        "old", str(tmp_path), str(tmp_path), "old", "old", str(tmp_path)]
    written = json.loads((tmp_path / "pairs.json").read_text())
    runs = written["workloads"]["w"]["runs"]
    assert [(run["pair"], run["side"]) for run in runs] == [
        (1, "parent"), (1, "change"), (2, "change"), (2, "parent"),
        (3, "parent"), (3, "change")]
    assert written["workloads"]["w"]["summary"]["wall_s"]["won"] == 3


def test_main_prints_the_relative_median_change(tmp_path, monkeypatch,
                                                capsys):
    (tmp_path / "BENCHMARK.json").write_text(
        '{"end_to_end": [{"name": "cpu_s", "better": "lower"}, '
        '{"name": "setup_s", "better": "lower"}]}')
    values = {"old": iter([4.0, 3.0, 3.5]), "new": iter([3.0, 2.5, 2.8])}

    def run_once(tree, workload):
        cpu = next(values["old" if tree == "old" else "new"])
        return result(cpu_s=cpu, setup_s=0.0)

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    monkeypatch.chdir(tmp_path)
    status = bench_pairs.main(["old", str(tmp_path), "--workload", "w",
                               "--pairs", "3"])
    assert status == 0
    lines = {line.split()[1]: line for line in
             capsys.readouterr().out.splitlines() if " pair " not in line}
    # Medians 3.5 and 2.8: the change is 20% lower.
    assert "parent 3.5 [3.25, 3.75]  change 2.8 [2.65, 2.9]  -20.0%  " \
        "won 3/3" in lines["cpu_s"]
    # A parent median of 0 has no relative change.
    assert "  n/a  won 0/3" in lines["setup_s"]


@pytest.mark.parametrize("parent, change, label", [
    # A median 30% worse than the parent's is beyond a bound of 25%.
    ([10.0, 10.2, 9.8, 10.1, 9.9], [13.0, 13.1, 12.9, 13.0, 13.2],
     "regression"),
    # The parent's quartiles lie 40% of its median apart, and some runs
    # of the change read worse than some of the parent.
    ([6.0, 10.0, 14.0, 8.0, 12.0], [9.0, 10.0, 11.0, 9.5, 10.5],
     "unresolved"),
    # As wide a spread, but every run of the change reads better than
    # every run of the parent.
    ([6.0, 10.0, 14.0, 8.0, 12.0], [5.0, 4.0, 5.5, 3.0, 4.5], None),
    # A narrow spread and a median within the bound.
    ([10.0, 10.2, 9.8, 10.1, 9.9], [11.0, 11.2, 10.8, 11.1, 10.9], None),
])
def test_a_metric_is_labelled_against_its_bound(parent, change, label):
    entry = bench_pairs.summarize(
        paired(parent, change, "wall_s"), {"wall_s": "lower"},
        {"wall_s": 0.25})["wall_s"]
    assert entry["label"] == label


def test_higher_is_better_labels_a_fall_as_a_regression():
    entry = bench_pairs.summarize(
        paired([1.0, 1.1, 0.9], [0.5, 0.55, 0.45], "ratio"),
        {"ratio": "higher"}, {"ratio": 0.25})["ratio"]
    assert entry["label"] == "regression"


def test_main_prints_and_writes_the_label(tmp_path, monkeypatch, capsys):
    (tmp_path / "BENCHMARK.json").write_text(
        '{"end_to_end": [{"name": "peak_rss_mb", "better": "lower", '
        '"bound": 0.05}, {"name": "wall_s", "better": "lower"}]}')

    def run_once(tree, workload):
        return result(peak_rss_mb=100.0 if tree == "old" else 110.0,
                      wall_s=1.0)

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    monkeypatch.chdir(tmp_path)
    status = bench_pairs.main(["old", str(tmp_path), "--workload", "w",
                               "--pairs", "3", "--out", "pairs.json"])
    assert status == 0
    lines = {line.split()[1]: line for line in
             capsys.readouterr().out.splitlines() if " pair " not in line}
    assert lines["peak_rss_mb"].endswith("won 0/3  regression")
    # wall_s declares no bound, so it takes no label.
    assert lines["wall_s"].endswith("won 0/3")
    summary = json.loads((tmp_path / "pairs.json").read_text())[
        "workloads"]["w"]["summary"]
    assert summary["peak_rss_mb"]["label"] == "regression"
    assert summary["wall_s"]["label"] is None
