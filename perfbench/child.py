"""One snpp command in a fresh interpreter, measured from the inside.

    python3 child.py SPEC_JSON RECORD_JSON

SPEC_JSON names the source tree, the command, its config (written to
the output directory, which is the input generation), whether to trace,
and whether to stop after set-up.  The child writes RECORD_JSON with
the set-up time, the wall and CPU time of the call into
``snpp.cli.main`` and the peak resident memory, plus the per-layer
metrics when tracing.
"""

import json
import os
import resource
import sys
import time


def _cpu_seconds():
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def main(spec_path, record_path):
    with open(spec_path) as handle:
        spec = json.load(handle)
    started = time.perf_counter()
    sys.path.insert(0, spec["src"])
    import snpp.cli

    if not os.path.abspath(snpp.cli.__file__).startswith(spec["src"]):
        raise SystemExit("snpp was imported from %s, not from %s"
                         % (snpp.cli.__file__, spec["src"]))
    config_path = os.path.join(spec["config"]["output"]["directory"],
                               "config.json")
    with open(config_path, "w") as handle:
        json.dump(spec["config"], handle, indent=1, sort_keys=True)
    record = {"setup_s": time.perf_counter() - started}

    if not spec["setup_only"]:
        argv = [spec["command"], "--config", config_path]
        tracer = None
        if spec["trace"]:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        cpu = _cpu_seconds()
        wall = time.perf_counter()
        record["exit_code"] = snpp.cli.main(argv)
        record["wall_s"] = time.perf_counter() - wall
        record["cpu_s"] = _cpu_seconds() - cpu
        peak_kb = max(resource.getrusage(who).ru_maxrss for who in (
            resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
        record["peak_rss_mb"] = peak_kb / 1024.0
        if tracer is not None:
            record["layers"] = tracer.metrics()
    with open(record_path, "w") as handle:
        json.dump(record, handle)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
