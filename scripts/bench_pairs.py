"""Paired benchmark runs of a parent tree and a changed tree.

    python3 scripts/bench_pairs.py PARENT_TREE CHANGE_TREE --workload W
        [--workload W2 ...] [--pairs N] [--out FILE]

Each tree is the root of a source checkout.  For each workload in
turn, a pair runs `python3 perfbench/run.py --workload W --seconds 0`
once in each tree, each from its own root with its own perfbench, the
parent first in odd pairs and the change first in even ones, so a drift
of the machine during the session falls on both sides alike.  For every
end-to-end metric that BENCHMARK.json of CHANGE_TREE declares, it
prints each side's median and quartiles over the runs, the change of
the median relative to the parent's, the pairs the change won (ties
count for neither side), and whether the change
resolves as a gain: it won at least nine tenths of the pairs and its
median is better than the parent's by more than the distance between
the parent's quartiles.  Against the metric's relative bound in
BENCHMARK.json it labels the metric "regression" when the change's
median is worse than the parent's by more than the bound, and else
"unresolved" when the parent's quartiles lie further apart than the
bound, relative to its median, and not every run of the change reads
better than every run of the parent.  It writes the raw results of
every run and that summary, by workload, to FILE (default
bench_pairs.json) as JSON.
N defaults to 10.  It exits 1 when a run printed no result, failed a round or failed an
output check, and 0 otherwise.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

SIDES = ("parent", "change")


def quartiles(values):
    """(q1, median, q3) of the values, the quartiles interpolated
    between the ordered values, all three equal for one value."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(runs, metrics, bounds=None):
    """The summary of paired runs.

    runs is a list of {"pair", "side", "result"}, result being the JSON
    object that perfbench/run.py prints last; metrics maps each
    end-to-end metric to "lower" or "higher", the better direction, and
    bounds, when given, a metric to its relative bound.  Returns
    {metric: {side: {"q1", "median", "q3"}, "relative", "won", "pairs",
    "gain", "label"}}, counting only the pairs where both sides measured
    it; relative is (change median - parent median) / parent median, or
    None for a parent median of 0, and label is "regression",
    "unresolved" or None, None also without a bound or a relative."""
    by_pair = {}
    for run in runs:
        values = run["result"]["metrics"] if run["result"] else {}
        by_pair.setdefault(run["pair"], {})[run["side"]] = values
    summary = {}
    for name, better in metrics.items():
        pairs = [(values["parent"][name]["value"],
                  values["change"][name]["value"])
                 for _, values in sorted(by_pair.items())
                 if all(name in values.get(side, {}) for side in SIDES)]
        if not pairs:
            continue
        sign = 1.0 if better == "lower" else -1.0
        entry = {}
        for side, values in zip(SIDES, zip(*pairs)):
            q1, median, q3 = quartiles(list(values))
            entry[side] = {"q1": q1, "median": median, "q3": q3}
        parent, change = entry["parent"], entry["change"]
        entry["relative"] = ((change["median"] - parent["median"])
                             / parent["median"] if parent["median"]
                             else None)
        entry["won"] = sum(sign * (old - new) > 0 for old, new in pairs)
        entry["pairs"] = len(pairs)
        entry["gain"] = (10 * entry["won"] >= 9 * len(pairs)
                         and sign * (parent["median"] - change["median"])
                         > parent["q3"] - parent["q1"])
        bound = (bounds or {}).get(name)
        entry["label"] = None
        if bound is not None and entry["relative"] is not None:
            olds, news = zip(*pairs)
            spread = (parent["q3"] - parent["q1"]) / abs(parent["median"])
            clear = all(sign * (old - new) > 0 for old in olds
                        for new in news)
            if sign * entry["relative"] > bound:
                entry["label"] = "regression"
            elif spread > bound and not clear:
                entry["label"] = "unresolved"
        summary[name] = entry
    return summary


def run_once(tree, workload):
    """The result object of one run of perfbench/run.py in tree, or None
    when it printed none.  run.py ends every run within 180 s."""
    try:
        done = subprocess.run(
            [sys.executable, os.path.join("perfbench", "run.py"),
             "--workload", workload, "--seconds", "0"], cwd=tree,
            capture_output=True, text=True, timeout=600)
    except subprocess.TimeoutExpired:
        return None
    lines = done.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if done.returncode == 0 else None
    except (IndexError, ValueError):
        return None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True, action="append")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", default="bench_pairs.json")
    args = parser.parse_args(argv)
    with open(os.path.join(args.change, "BENCHMARK.json")) as handle:
        declared = json.load(handle)["end_to_end"]
    metrics = {metric["name"]: metric["better"] for metric in declared}
    bounds = {metric["name"]: metric["bound"] for metric in declared
              if "bound" in metric}
    trees = dict(zip(SIDES, (args.parent, args.change)))
    workloads = {}
    for workload in args.workload:
        runs = []
        for pair in range(1, args.pairs + 1):
            for side in SIDES if pair % 2 else SIDES[::-1]:
                result = run_once(trees[side], workload)
                runs.append({"pair": pair, "side": side, "result": result})
                shown = "no result" if result is None else " ".join(
                    "%s=%.4g" % (name, metric["value"])
                    for name, metric in result["metrics"].items())
                print("%s pair %d %-6s %s" % (workload, pair, side, shown),
                      flush=True)
        summary = summarize(runs, metrics, bounds)
        for name, entry in summary.items():
            relative = "n/a" if entry["relative"] is None \
                else "%+.1f%%" % (100 * entry["relative"])
            labels = "".join("  " + label for label in (
                "gain" if entry["gain"] else None, entry["label"]) if label)
            print("%s %-12s %s  %s  won %d/%d%s" % (workload, name, "  ".join(
                "%s %.4g [%.4g, %.4g]" % (side, entry[side]["median"],
                                          entry[side]["q1"],
                                          entry[side]["q3"])
                for side in SIDES), relative, entry["won"], entry["pairs"],
                labels))
        workloads[workload] = {"runs": runs, "summary": summary}
    with open(args.out, "w") as handle:
        json.dump({"trees": trees, "pairs": args.pairs,
                   "workloads": workloads}, handle, indent=1)
    broken = any(run["result"] is None or run["result"]["failed"]
                 or not run["result"]["correct"]
                 for entry in workloads.values() for run in entry["runs"])
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
