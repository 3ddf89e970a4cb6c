"""Measure the baseline: every workload, untraced and traced, on the given
seeds, summarised into ``perfbench/baseline.json``.

    python3 perfbench/baseline.py SEED [SEED ...]

Run from the repository root.  Each run is one ``run.py`` invocation with
the benchmark's own ``run_seconds``; the summary keeps, per workload and
seed, the environment, the end-to-end metrics with their notes (tail
percentile, sample counts, failed ratio, param_err), the input properties
of each task, and the per-layer metrics of the traced run.  The first seed
is traced twice, and the counts that differ between the two runs are
listed (the list should be empty).
"""

import json
import os
import subprocess
import sys

from tracer import metric_unit

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
ENV_KEYS = ("nproc", "cpus_usable", "python", "numpy", "commit",
            "source_sha256", "blas_env")


def run(workload, seed, trace, seconds):
    subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                    "--workload", workload, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", str(trace)],
                   cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    path = os.path.join(HERE, "out", f"{workload}-seed{seed}-trace{trace}.json")
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def main(seeds):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    summary = {}
    for workload in (w["name"] for w in spec["workloads"]):
        for seed in seeds:
            plain = run(workload, seed, 0, spec["run_seconds"])
            traced = run(workload, seed, 1, spec["run_seconds"])
            summary.setdefault(workload, {})[str(seed)] = {
                "env": {k: plain[k] for k in ENV_KEYS},
                "end_to_end": plain["metrics"],
                "notes": plain["notes"],
                "inputs": [dict(t["props"], id=t["id"])
                           for t in plain["batches"][0]["tasks"]],
                "per_layer": traced["metrics"],
                "self_check_problems": traced["problems"],
            }
        # the counts of a traced run must repeat exactly for the same seed
        again = run(workload, seeds[0], 1, spec["run_seconds"])["metrics"]
        first = summary[workload][str(seeds[0])]["per_layer"]
        summary[workload][str(seeds[0])]["counts_differing_on_rerun"] = [
            k for k in first if metric_unit(k) != "s" and first[k] != again[k]]
    with open(os.path.join(HERE, "baseline.json"), "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main([int(s) for s in sys.argv[1:]])
