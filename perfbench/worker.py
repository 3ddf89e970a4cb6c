"""One run of a workload in a fresh process; started by ``run.py``.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE [--setup-only]

Set-up (imports, data generation, CSV writing) is timed from the first
line of this file.  With ``--setup-only`` the process then times the
workload's speed probe PROBE_REPEATS times and stops.  Otherwise it runs
the first task once, untimed, as a warm-up, then runs the workload's
batch of tasks serially as many times as SECONDS holds at the probe's
reference speed (``BATCH_REF_S``; at least once).  After every task the
probe is timed, again and again, until the probes have taken PROBE_SHARE
of the task's time (at least once): the probe timings are then spread
evenly over the run.  With TRACE=1 the batches alternate untraced and
traced, at least one of each, so the tracing overhead is measured in the
same process.  The result is one JSON object on stdout.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import homoment  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

PROBE_REPEATS = 20         # probe timings in a set-up-only worker
PROBE_SHARE = 0.03         # probe time after a task, as a share of its time


def timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def run_task(run, task_id, tracer):
    start = time.perf_counter()
    code, ok, props = None, False, {}
    try:
        with tracer.task_span(task_id) if tracer else nullcontext():
            code, ok, props = run()
    except SystemExit as exc:          # argparse rejecting the command line
        code = exc.code
    except Exception:                  # counted as failed; the run goes on
        traceback.print_exc(file=sys.stderr)
    return {"id": task_id, "s": time.perf_counter() - start, "exit": code,
            "failed": code != 0, "correct": bool(ok) and code == 0,
            "props": props}


def run_batch(bench, traced):
    tracer = Tracer() if traced else None
    if tracer:
        tracer.install(homoment)
    tasks, probes = [], []
    try:
        for task_id, run in bench.tasks:
            tasks.append(run_task(run, task_id, tracer))
            spent = 0.0
            while spent == 0.0 or spent < PROBE_SHARE * tasks[-1]["s"]:
                probes.append(timed(bench.probe))
                spent += probes[-1]
    finally:
        if tracer:
            tracer.uninstall()
    batch = {"traced": traced, "wall_s": sum(t["s"] for t in tasks),
             "tasks": tasks, "probes_s": probes}
    if tracer:
        batch["layers"] = tracer.summary()
        batch["spans"] = tracer.spans
    return batch


def run_batches(bench, seconds, trace):
    # warm-up: the first calls into argparse, numpy and the library, untimed
    run_task(bench.tasks[0][1], bench.tasks[0][0], None)
    bench.probe()
    count = max(2 if trace else 1, int(seconds // bench.BATCH_REF_S))
    return [run_batch(bench, trace and i % 2 == 1) for i in range(count)]


def main(argv):
    workload, seed, seconds, trace = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1"
    setup_only = "--setup-only" in argv[4:]
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as workdir:
        setup_tracer = Tracer() if trace else None
        if setup_tracer:
            setup_tracer.install(homoment)
        try:
            bench = workloads.WORKLOADS[workload](seed, workdir)
        finally:
            if setup_tracer:
                setup_tracer.uninstall()
        result = {"setup_s": time.perf_counter() - START,
                  "probe_ref_s": bench.PROBE_REF_S}
        if setup_only:
            result["probes_s"] = [timed(bench.probe)
                                  for _ in range(PROBE_REPEATS)]
        else:
            result["batches"] = run_batches(bench, seconds, trace)
            result["probes_s"] = [p for b in result["batches"]
                                  for p in b["probes_s"]]
    result.update(
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        python=platform.python_version(), numpy=np.__version__,
        homoment_file=homoment.__file__)
    if setup_tracer:
        result["setup_layers"] = setup_tracer.summary()
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main(sys.argv[1:])
