"""Benchmark of the snpp scale study and the eps=1/16 pore-scale run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each round runs one snpp
command in a fresh interpreter (``child.py``), checks the files it
wrote, and records its wall time, CPU time and peak memory; rounds
repeat until S seconds have passed, and there is always at least one.
Set-up (importing the package and writing the config) is timed in
SETUP_REPEATS separate interpreters and in every round.  The last line
printed is a JSON object with the rounds attempted and failed, whether
every check passed, and the medians of the end-to-end metrics, or with
--trace 1 of the per-layer metrics.  The inputs are fixed configs: --seed is
accepted for the common interface and changes nothing.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import checks
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 3
# A run must end within 180 s; no round starts that would likely end
# after this point, and a round that overruns it is killed.
DEADLINE_S = 165.0

# Thread pools of the numerical libraries are pinned to one thread, so
# every workload runs on one core.
ENVIRONMENT = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1"}

STUDY = {
    "geometry": {"radius": 0.25, "center": [0.5, 0.5]},
    "regime": {"bc": "neumann", "alpha": 0, "beta": 0, "gamma": 0,
               "sigma": 0.0},
    "discretization": {"h": 1 / 64, "dt": 2e-3, "T": 0.1,
                       "eps": [0.5, 0.25, 0.125]},
    "output": {"formats": ["csv", "vtk"], "snapshot_stride": 1},
    "initial": {"kind": "charged_blobs", "background": 0.2,
                "amplitude": 0.5, "lam": 1.0},
}
MICRO = {
    "geometry": {"radius": 0.25, "center": [0.5, 0.5]},
    "regime": {"bc": "neumann", "alpha": 0, "beta": 0, "gamma": 0,
               "sigma": 0.0},
    "discretization": {"h": 1 / 128, "dt": 2e-3, "T": 2e-3, "eps": 1 / 16},
    "output": {"formats": ["csv", "vtk"], "snapshot_stride": 1},
    "initial": {"kind": "charged_blobs", "background": 0.2,
                "amplitude": 0.5, "lam": 1.0},
}
WORKLOADS = {
    "study_serial": {"command": "converge", "config": STUDY},
    "micro_eps16": {"command": "micro", "config": MICRO},
}
END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s",
              "peak_rss_mb": "MB"}
PER_LAYER = dict(tracer.METRICS, **{"trace.wall_s": "s"})


def repeat_key(workload):
    """Digest of the snpp sources and the config, which fix the outputs."""
    digest = hashlib.sha256()
    package = os.path.join(SRC, "snpp")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    digest.update(json.dumps([workload["command"], workload["config"]],
                             sort_keys=True).encode())
    return digest.hexdigest()


def run_child(workload, directory, trace=False, setup_only=False,
              timeout=DEADLINE_S):
    """Run one child interpreter; returns (exit status, record or None)."""
    shutil.rmtree(directory, ignore_errors=True)
    os.makedirs(directory)
    config = json.loads(json.dumps(workload["config"]))
    config["output"]["directory"] = directory
    spec = {"src": SRC, "command": workload["command"], "config": config,
            "trace": trace, "setup_only": setup_only}
    spec_path = os.path.join(directory, "spec.json")
    record_path = os.path.join(directory, "record.json")
    with open(spec_path, "w") as handle:
        json.dump(spec, handle)
    with open(os.path.join(directory, "child.log"), "w") as log:
        try:
            status = subprocess.run(
                [sys.executable, os.path.join(HERE, "child.py"), spec_path,
                 record_path], stdout=log, stderr=subprocess.STDOUT,
                env=dict(os.environ, **ENVIRONMENT),
                timeout=timeout).returncode
        except subprocess.TimeoutExpired:
            return "timeout", None
    if status != 0 or not os.path.exists(record_path):
        return status, None
    with open(record_path) as handle:
        return status, json.load(handle)


def check_outputs(workload, directory):
    """Problems found in a round's files, and digests of its CSVs."""
    config = workload["config"]
    if workload["command"] == "converge":
        problems = checks.check_study(
            os.path.join(directory, "study.csv"),
            config["discretization"]["eps"])
        problems += checks.check_coefficients(
            os.path.join(directory, "coefficients.txt"),
            config["geometry"]["radius"])
        files = ("study.csv", "coefficients.txt")
    else:
        problems = checks.check_micro(directory, config["initial"]["lam"])
        files = ("diagnostics.csv",)
    return problems, checks.digest_files(
        os.path.join(directory, name) for name in files)


def run_round(workload, directory, trace, store, timeout=DEADLINE_S):
    """One measured run of the workload and the checks of its outputs.

    Returns a dict with "failed" (the command did not finish with exit
    code 0), "problems" (failed output checks) and the child's record.
    """
    status, record = run_child(workload, directory, trace=trace,
                               timeout=timeout)
    if record is None or record["exit_code"] != 0:
        code = status if record is None else record["exit_code"]
        return {"failed": True, "problems": ["exit status %s" % code],
                "record": record}
    try:
        problems, digests = check_outputs(workload, directory)
    except (OSError, ValueError, KeyError) as exc:
        # The command exited with 0 but its files are missing or garbled.
        return {"failed": False, "problems": ["unreadable output: %r" % exc],
                "record": record}
    key = repeat_key(workload)
    problems += checks.check_repeat(store, key, digests)
    if trace:
        counts = {name: record["layers"][name] for name in tracer.COUNTS}
        problems += checks.check_repeat(store, key + "-counts", counts)
    return {"failed": False, "problems": problems, "record": record}


def summarize(rounds, setups, trace):
    """The result object: medians over the rounds that did not fail."""
    done = [r["record"] for r in rounds if not r["failed"]]
    metrics = {}
    if done and trace:
        for name, unit in PER_LAYER.items():
            if name == "trace.wall_s":
                values = [record["wall_s"] for record in done]
            else:
                values = [record["layers"][name] for record in done]
            metrics[name] = {"value": statistics.median(values),
                             "unit": unit}
    elif done:
        for name, unit in END_TO_END.items():
            values = setups if name == "setup_s" \
                else [record[name] for record in done]
            metrics[name] = {"value": statistics.median(values),
                             "unit": unit}
    return {"correct": not any(r["problems"] for r in rounds
                               if not r["failed"]),
            "attempted": len(rounds),
            "failed": sum(r["failed"] for r in rounds),
            "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.perf_counter()
    if not os.path.isfile(os.path.join(SRC, "snpp", "cli.py")):
        print("run.py: no snpp sources under %s" % SRC, file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    base = os.path.join(OUT, args.workload)
    store = os.path.join(OUT, "repeat.json")

    setups = []
    for _ in range(SETUP_REPEATS):
        _, record = run_child(workload, os.path.join(base, "setup"),
                              setup_only=True)
        if record is None:
            print("run.py: set-up failed; see %s"
                  % os.path.join(base, "setup", "child.log"), file=sys.stderr)
            return 2
        setups.append(record["setup_s"])

    rounds = []
    measured = time.perf_counter()
    while True:
        begin = time.perf_counter()
        outcome = run_round(workload, os.path.join(base, "round"),
                            bool(args.trace), store,
                            timeout=DEADLINE_S - (begin - started))
        rounds.append(outcome)
        if outcome["record"] is not None:
            setups.append(outcome["record"]["setup_s"])
        for problem in outcome["problems"]:
            print("round %d: %s" % (len(rounds), problem), file=sys.stderr)
        now = time.perf_counter()
        if now - measured >= args.seconds \
                or (now - started) + (now - begin) > DEADLINE_S:
            break

    result = summarize(rounds, setups, bool(args.trace))
    for name, metric in result["metrics"].items():
        print("%-26s %14.6f %s" % (name, metric["value"], metric["unit"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
