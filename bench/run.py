"""Run one benchmark workload and print its metrics as one JSON line.

    python3 bench/run.py --workload lift2d-cli --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout: the program is imported from ``src/``
there, and artifacts (fields, masks, the trace) go to ``bench/out/<workload>``.
The workloads, metric names and units are those of ``BENCHMARK.json``.  With
``--trace 0`` the last line holds the end-to-end metrics; with ``--trace 1``
the run records spans at the layer boundaries and the last line holds the
per-layer metrics, 0 for a layer the workload does not reach.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

from tracing import NullTracer, Tracer
from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 3


def _import_program():
    """Put this checkout's src/ first on the path; refuse to run without it."""
    if not os.path.isfile(os.path.join(SRC, "zubov", "__init__.py")):
        sys.exit("bench: no program source under %s; run from the root of a "
                 "full checkout" % SRC)
    sys.path.insert(0, SRC)
    import zubov
    if os.path.dirname(os.path.dirname(os.path.abspath(zubov.__file__))) \
            != SRC:
        sys.exit("bench: imported zubov from %s, not from this checkout"
                 % zubov.__file__)


def _setup_once(workload):
    """Fresh-interpreter import of the package, then the workload's inputs."""
    env = dict(os.environ, PYTHONPATH=SRC)
    started = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import zubov.cli"], env=env,
                   check=True)
    workload.setup()
    return time.perf_counter() - started


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0.0:
        parser.error("--seconds must be positive")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    _import_program()

    out = os.path.join(ROOT, "bench", "out", args.workload)
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    tracer = Tracer() if args.trace else NullTracer()
    workload = WORKLOADS[args.workload](args.seed, out, tracer)

    setup_s = [_setup_once(workload) for _ in range(SETUP_REPEATS)]

    # whole rounds until the run has lasted --seconds; checks run between
    # rounds, outside the timed section
    rounds, walls, problems = [], [], []
    started = time.perf_counter()
    while True:
        tracer.round = len(rounds)
        t0 = time.perf_counter()
        rec = workload.run_round()
        walls.append(time.perf_counter() - t0)
        problems += workload.check(rec)
        rounds.append(rec)
        if time.perf_counter() - started >= args.seconds:
            break
    for problem in problems:
        print("check failed: %s" % problem, file=sys.stderr)

    if args.trace:
        values = workload.per_layer(rounds)
        values["trace.wall_s"] = statistics.median(walls)
        tracer.dump(os.path.join(out, "trace.json"))
        wanted = spec["per_layer"]
    else:
        values = workload.end_to_end(rounds)
        values.update(setup_s=statistics.median(setup_s),
                      wall_s=statistics.median(walls),
                      peak_rss_mb=_peak_rss_mb())
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted
               if not args.trace and m["name"] not in values]
    if missing:
        sys.exit("bench: workload %s measured no %s"
                 % (args.workload, ", ".join(missing)))
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)),
                           "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": not problems,
                      "attempted": workload.attempted,
                      "failed": workload.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
