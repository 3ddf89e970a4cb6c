"""homoment benchmark: one command per workload run.

    python3 perfbench/run.py --workload table|count|fit --seed N \
        --seconds S --trace 0|1

Run from the repository root.  The library is imported from ``src/``; no
install or build is needed.  Each run starts fresh worker processes (see
``worker.py``) with BLAS threads pinned to 1: several that only set up, for
the median set-up time, then one that sets up and measures.  One client
runs the tasks of a workload serially (a closed loop).

Times are scaled to the host speed the workload's probe reference stands
for (see ``workloads.py``): a worker's times are multiplied by
``PROBE_REF_S`` over the trimmed mean time of the probe in that worker.  The
raw times are printed beside them and kept in the record.

The last line of stdout is the result JSON.  With ``--trace 0`` its
metrics are the end-to-end ones; with ``--trace 1`` the per-layer ones
from traced batches.  A full record (environment, per-task times and
input properties, spans) goes to ``perfbench/out/``.
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time

from tracer import metric_unit

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("table", "count", "fit")
SETUP_ONLY_RUNS = 4        # plus the measuring worker's own set-up
TIME_LIMIT_S = 170         # the whole run, all workers included
BLAS_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
TAIL_BEYOND = 10           # samples required beyond the tail percentile

# Layers a workload must not reach (checked on every traced run).
ZERO_CALLS = {
    "table": ("ranktest.bootstrap_minor_scales.calls",),
    "count": ("exactla.rank.calls", "cli.read_csv_matrix.calls"),
    "fit": ("exactla.rank.calls", "ranktest.bootstrap_minor_scales.calls"),
}


class WorkerError(RuntimeError):
    pass


def run_worker(args, deadline, setup_only=False):
    argv = [sys.executable, WORKER, args.workload, str(args.seed),
            str(args.seconds), str(args.trace)]
    if setup_only:
        argv.append("--setup-only")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED="0",
               **BLAS_ENV)
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise WorkerError(f"worker passed the {TIME_LIMIT_S} s limit")
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    try:
        return json.loads(proc.stdout)
    except ValueError:
        raise WorkerError("worker printed no result")


def harrell_davis(values, p):
    """Harrell-Davis estimate of the p-quantile: the mean of the order
    statistics weighted by a Beta((n+1)p, (n+1)(1-p)) distribution.  It
    draws on every sample, so it moves less between runs than the single
    order statistic when task times are noisy."""
    ordered = sorted(values)
    n = len(ordered)
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    log_norm = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def density(x):
        return math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_norm)

    # weight of the i-th order statistic: Beta mass on (i/n, (i+1)/n),
    # by the midpoint rule on 400 steps
    steps = 400
    h = 1.0 / (n * steps)
    weights = (h * sum(density((i * steps + j + 0.5) * h) for j in range(steps))
               for i in range(n))
    return sum(w * value for w, value in zip(weights, ordered))


def tail(values):
    """Highest percentile with TAIL_BEYOND samples beyond it, and that
    percentile; the maximum when there are too few samples."""
    n = len(values)
    if n <= TAIL_BEYOND:
        return max(values), 100.0
    p = (n - TAIL_BEYOND) / n
    return harrell_davis(values, p), 100.0 * p


def source_digest():
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in sorted(os.walk(src)):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    return proc.stdout.strip() or None


def task_means(batches):
    """Each task's mean time over the batches of the run."""
    times = {}
    for batch in batches:
        for task in batch["tasks"]:
            times.setdefault(task["id"], []).append(task["s"])
    return [statistics.fmean(v) for v in times.values()]


def trimmed_mean(values, cut=0.1):
    """Mean of the values left after dropping the ``cut`` share at each end."""
    ordered = sorted(values)
    drop = int(cut * len(ordered))
    return statistics.fmean(ordered[drop:len(ordered) - drop])


def speed(worker):
    """Factor that turns a worker's measured seconds into seconds at the
    probe's reference speed.

    The host alternates between a fast state and one about 1.8x slower, so
    a single probe timing reads one or the other.  The mean over timings
    spread evenly over the run follows the share of time spent slow, which
    is what stretches the run's task times; the trimming drops the odd
    timing that a preemption inflates.
    """
    return worker["probe_ref_s"] / trimmed_mean(worker["probes_s"])


def times(batches, setups, factor=1.0, setup_factors=None):
    """The timing metrics, each measured time multiplied by ``factor``;
    set-up times by their own worker's factor."""
    setup_factors = setup_factors or [1.0] * len(setups)
    tail_s, tail_pct = tail([t["s"] for b in batches for t in b["tasks"]])
    return {
        "wall_s": factor * statistics.median(b["wall_s"] for b in batches),
        "task_p50_s": factor * harrell_davis(task_means(batches), 0.5),
        "task_tail_s": factor * tail_s,
        "setup_s": statistics.median(s * f for s, f in zip(setups, setup_factors)),
    }, tail_pct


def end_to_end(result, setup_workers):
    batches = result["batches"]
    workers = setup_workers + [result]
    setups = [w["setup_s"] for w in workers]
    factors = [speed(w) for w in workers]
    scaled, tail_pct = times(batches, setups, factors[-1], factors)
    raw, _ = times(batches, setups)
    tasks = [t for b in batches for t in b["tasks"]]
    failed = sum(t["failed"] for t in tasks)
    metrics = {key: (value, "s") for key, value in scaled.items()}
    metrics["peak_rss_mb"] = (result["peak_rss_mb"], "MB")
    metrics["correct_ratio"] = (sum(t["correct"] for t in tasks) / len(tasks),
                                "ratio")
    notes = {"task_tail_pct": tail_pct, "task_samples": len(tasks),
             "failed_ratio": failed / len(tasks), "batches": len(batches),
             "setup_samples": len(setups), "raw": raw,
             "speed": factors[-1], "setup_speeds": factors[:-1],
             "probe_samples": len(result["probes_s"])}
    errs = [t["props"]["param_err"] for t in tasks if "param_err" in t["props"]]
    if errs:
        notes["param_err"] = max(errs)
    return metrics, notes, len(tasks), failed


def per_layer(workload, batches, setup_layers):
    traced = [b for b in batches if b["traced"]]
    plain = [b for b in batches if not b["traced"]]
    metrics = {}
    for key in traced[0]["layers"]:
        metrics[key] = (statistics.median(b["layers"][key] for b in traced),
                        metric_unit(key))
    for key, value in setup_layers.items():
        if key.startswith("models.sample_mixture."):
            metrics[key] = (value, metrics[key][1])
    traced_wall = statistics.median(b["wall_s"] for b in traced)
    plain_wall = statistics.median(b["wall_s"] for b in plain)
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.untraced_wall_s"] = (plain_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s")

    problems = [f"{key} = {metrics[key][0]}, expected 0"
                for key in ZERO_CALLS[workload] if metrics[key][0] != 0]
    counted = [k for k, (_, unit) in metrics.items()
               if unit != "s" and not k.startswith("models.sample_mixture.")]
    for b in traced[1:]:
        changed = [k for k in counted if b["layers"][k] != traced[0]["layers"][k]]
        if changed:
            problems.append(f"counts differ between traced batches: {changed}")
    tasks = [t for b in batches for t in b["tasks"]]
    failed = sum(t["failed"] for t in tasks)
    correct = all(t["correct"] for t in tasks) and not problems
    return metrics, problems, correct, len(tasks), failed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "homoment", "__init__.py")):
        print(f"no homoment sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        setups = [] if args.trace else [
            run_worker(args, deadline, setup_only=True)
            for _ in range(SETUP_ONLY_RUNS)]
        result = run_worker(args, deadline)
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    batches = result["batches"]

    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "python": result["python"], "numpy": result["numpy"],
        "commit": commit(), "source_sha256": source_digest(),
        "blas_env": BLAS_ENV, "homoment_file": result["homoment_file"],
    }
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"batches {len(batches)}  nproc {record['nproc']}  "
          f"python {record['python']}  numpy {record['numpy']}")
    if args.trace:
        metrics, problems, correct, attempted, failed = per_layer(
            args.workload, batches, result["setup_layers"])
        record["problems"] = problems
        wall = metrics["trace.wall_s"][0]
        by_self = sorted((k for k in metrics if k.endswith(".self_s")),
                         key=lambda k: -metrics[k][0])
        for key in by_self[:6]:
            print(f"  {key:<48} {metrics[key][0]:10.4f} s  "
                  f"{100 * metrics[key][0] / wall:5.1f}% of traced wall")
        for problem in problems:
            print(f"self-check failed: {problem}")
    else:
        metrics, notes, attempted, failed = end_to_end(result, setups)
        correct = metrics["correct_ratio"][0] == 1.0
        record["notes"] = notes
        for key, (value, unit) in metrics.items():
            raw = notes["raw"].get(key)
            print(f"  {key:<16} {value:.6g} {unit}" +
                  (f"   (measured {raw:.6g} s)" if raw is not None else ""))
        print(f"  host speed {notes['speed']:.4g} x the probe reference, "
              f"from {notes['probe_samples']} probe timings")
        print(f"  task_tail_s is p{notes['task_tail_pct']:.1f} of "
              f"{notes['task_samples']} task samples")
        print(f"  failed_ratio     {notes['failed_ratio']:.6g} ratio")
        if "param_err" in notes:
            print(f"  param_err        {notes['param_err']:.6g} abs")

    record["metrics"] = {k: v for k, (v, _) in metrics.items()}
    record["setup_samples_s"] = [w["setup_s"] for w in setups]
    record["batches"] = batches
    path = os.path.join(HERE, "out", f"{args.workload}-seed{args.seed}"
                                     f"-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    print(f"record {os.path.relpath(path, ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
