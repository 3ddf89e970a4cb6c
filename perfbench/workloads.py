"""The three workloads: inputs made from a seed, one task per unit of work,
and the check of each task's output.

Building a workload object is its set-up (data generation and CSV
writing).  It exposes ``tasks``: a list of
``(task_id, run)`` pairs where ``run()`` returns ``(exit_code, correct,
properties)``.  The library is reached only through its public entry
points, ``cli.main`` and ``ranktest.estimate_components_from_data``.

Each workload also has a speed probe, ``probe()``, and its reference time
``PROBE_REF_S``.  On a shared host the same task takes anywhere from 1x
to about 1.7x its uncontended time, depending on what the other tenants
of the core run, and that share changes over minutes.  The probe is a
fixed computation in benchmark code, never in ``homoment``, that does the
same kind of work as the workload's hot loop, so it slows with the host
as the workload does and no change to the library can move it.
``run.py`` scales a run's times by ``PROBE_REF_S`` over the probe's
mean time in that run.  ``BATCH_REF_S`` is a batch's time at that speed;
a run holds as many batches as fit in ``--seconds`` at it, so that the
number of task samples, and with it the tail percentile, is the same on
every run.
"""

import csv
import io
import json
import math
import os
from contextlib import redirect_stdout
from fractions import Fraction

import numpy as np

from homoment import cli, geometry, models, ranktest

SAMPLES = 100_000

# ----------------------------------------------------------------------
# table: the published order-3 classification, one row per task

ROW_FIELDS = ("n", "k", "d", "par", "ambient", "expected", "dim", "defect",
              "fiber_dim")


def _cli_json(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(argv)
    return code, (json.loads(out.getvalue()) if code == 0 else None)


# Published rows up to this n.  The 25 rows for n <= 6 take about 3.6 s at
# the probe's reference speed, so a 25 s run holds six passes and every
# latency figure draws on six samples per row.  The 11 rows for n = 7 alone
# take about 25 s, which would leave room for a single pass.
TABLE_MAX_N = 6


class Table:
    """``defect-table --n N --k K --d 3 --check`` for each published row
    with ``n <= TABLE_MAX_N``.

    Chosen because exact (Bareiss) rank dominates and row cost spans more
    than two orders of magnitude, so the tail is informative; numpy is
    unused.
    """

    PROBE_REF_S = 0.0055
    BATCH_REF_S = 3.6

    def __init__(self, seed, workdir):
        self.seed = seed
        self.tasks = [(f"n{row[0]}k{row[1]}", self._runner(row))
                      for row in geometry.ORDER3_TABLE if row[0] <= TABLE_MAX_N]

    @staticmethod
    def probe():
        """Exact rational arithmetic with growing denominators, as in the
        Bareiss elimination over ``Fraction`` entries."""
        total = Fraction(0)
        for _ in range(3):
            acc = Fraction(0)
            for i in range(1, 300):
                acc = acc * Fraction(i, i + 2) + Fraction(1, i)
            total += acc
        return total

    def _runner(self, expected):
        def run():
            code, payload = _cli_json(
                ["defect-table", "--n", str(expected[0]), "--k",
                 str(expected[1]), "--d", "3", "--check", "--format", "json",
                 "--seed", str(self.seed)])
            if code != 0:
                return code, False, {}
            rows = payload["rows"]
            got = tuple(rows[0][f] for f in ROW_FIELDS) if len(rows) == 1 else None
            ok = payload["check"]["passed"] and got == tuple(expected)
            # Jacobian rows are the free parameters, columns the moments
            return code, ok, {"jacobian_shape": [rows[0]["par"],
                                                 rows[0]["ambient"]]}
        return run


# ----------------------------------------------------------------------
# count: noise-calibrated component count on 100k-sample datasets

# Target share of negative values per dataset.  ``arr ** j`` costs about
# thirty times more on negative values than on positive ones, so task cost
# follows this share; a fixed ladder keeps the task mix, and hence the
# median and tail, the same for every seed.  1e-7 means no negatives.
# A batch of 14 datasets takes about 12 s at the probe's reference speed,
# so a 25 s run holds two batches.
NEGATIVE_SHARES = (1e-7, 0.05, 0.1, 0.15, 0.25, 0.35, 0.5)


def _mixture_quantile(means, weights, sigma, q):
    def cdf(x):
        return sum(w * 0.5 * (1.0 + math.erf((x - m) / (sigma * math.sqrt(2))))
                   for m, w in zip(means, weights))
    lo, hi = min(means) - 12 * sigma, max(means) + 12 * sigma
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if cdf(mid) < q else (lo, mid)
    return 0.5 * (lo + hi)


def count_params(rng, k, share):
    """Seed-drawn univariate parameters with ``share`` of the mass below 0.

    Two-component mixtures are separated by 4 to 5 standard deviations,
    so a correct count is 2 on every seed.
    """
    sigma = rng.uniform(0.5, 1.5)
    if k == 1:
        means, weights = [0.0], [1.0]
    else:
        lam = rng.uniform(0.3, 0.7)
        means, weights = [0.0, rng.uniform(4.0, 5.0) * sigma], [lam, 1.0 - lam]
    shift = -_mixture_quantile(means, weights, sigma, share)
    return models.HomoscedasticParams(
        means=[[m + shift] for m in means], weights=weights,
        cov=[[sigma * sigma]])


class Count:
    """``estimate_components_from_data(data, 2)``: half single Gaussians,
    half two-component mixtures, across the negative-share ladder.

    Chosen because raw moment powers dominate and the path bypasses
    ``geometry``, ``exactla`` and ``dual`` entirely.
    """

    PROBE_REF_S = 0.0046
    BATCH_REF_S = 11.7

    def __init__(self, seed, workdir):
        # the probe's input is the same for every seed
        self.probe_data = np.random.default_rng(0).normal(0.5, 1.0, 30_000)
        rng = np.random.default_rng(seed)
        self.tasks = []
        for k in (1, 2):
            for share in NEGATIVE_SHARES:
                params = count_params(rng, k, share)
                data = models.sample_mixture(params, SAMPLES,
                                             int(rng.integers(2**31)))
                props = {"k": k, "negative_share": float(np.mean(data < 0))}
                self.tasks.append((f"k{k}neg{share:g}",
                                   self._runner(data, k, props)))

    def probe(self):
        """Raw moment powers of mixed-sign values, as in
        ``ranktest.raw_moments``."""
        return [float(np.mean(self.probe_data ** j)) for j in range(1, 6)]

    @staticmethod
    def _runner(data, k, props):
        def run():
            k_hat, _ = ranktest.estimate_components_from_data(data, 2)
            return 0, k_hat == k, dict(props, k_hat=k_hat)
        return run


# ----------------------------------------------------------------------
# fit: CLI fits from 100k-row CSV files

README_2D = models.HomoscedasticParams(
    means=[[1.0, 0.0], [-0.43, 0.0]], weights=[0.3, 0.7],
    cov=[[1.0, 0.0], [0.0, 1.0]])
MIXTURE_3D = models.HomoscedasticParams(
    means=[[1.2, -0.8, 0.5], [-0.6, 0.4, -0.25]], weights=[0.35, 0.65],
    cov=[[1.0, 0.3, 0.0], [0.3, 0.8, 0.1], [0.0, 0.1, 0.6]])
MIXTURE_1D = models.HomoscedasticParams(
    means=[[0.0], [3.0]], weights=[0.4, 0.6], cov=[[0.5]])

# A fit is correct when every parameter is within this absolute error of
# the generating one.  It is far above the sampling error, including the
# noise^(1/3) error on the README's null mean coordinate (about 0.3-0.5),
# and far below what a wrong labelling or a failed root selection gives.
FIT_TOLERANCE = 1.0


def param_err(estimate, truth):
    """Largest absolute parameter error, minimised over label orders."""
    best = math.inf
    for order in ((0, 1), (1, 0)):
        errs = [abs(estimate["weights"][i] - truth.weights[t])
                for i, t in enumerate(order)]
        errs += [abs(x - float(y))
                 for i, t in enumerate(order)
                 for x, y in zip(estimate["means"][i], truth.means[t])]
        errs += [abs(x - float(y))
                 for row, true_row in zip(estimate["cov"], truth.cov)
                 for x, y in zip(row, true_row)]
        best = min(best, max(errs))
    return best


class Fit:
    """``fit2 --order 5`` (README 2-D), ``fit2 --order 4`` (3-D) and
    ``fit1d --k 2`` (1-D), each on its own 100k-row CSV.

    Chosen because CSV parsing dominates, ``series`` runs on floats and
    ``raw_moments`` makes a single pass, unlike in ``table`` and ``count``.
    """

    CASES = (("fit2_2d", README_2D, ["fit2", "--order", "5"]),
             ("fit2_3d", MIXTURE_3D, ["fit2", "--order", "4"]),
             ("fit1d_1d", MIXTURE_1D, ["fit1d", "--k", "2"]))

    PROBE_REF_S = 0.005
    BATCH_REF_S = 0.98

    def __init__(self, seed, workdir):
        # the probe's input is the same for every seed
        rows = np.random.default_rng(0).normal(0.0, 1.0, (3_000, 2))
        self.probe_text = "\n".join(f"{a!r},{b!r}" for a, b in rows.tolist())
        rng = np.random.default_rng(seed)
        self.tasks = []
        for name, params, argv in self.CASES:
            path = os.path.join(workdir, name + ".csv")
            data = models.sample_mixture(params, SAMPLES,
                                         int(rng.integers(2**31)))
            np.savetxt(path, data, fmt="%.17g", delimiter=",")
            props = {"rows": data.shape[0], "columns": data.shape[1],
                     "bytes": os.path.getsize(path)}
            self.tasks.append((name, self._runner(argv + ["--input", path],
                                                  params, props)))

    def probe(self):
        """CSV rows parsed into lists of floats, as in
        ``cli.read_csv_matrix``."""
        return [[float(c) for c in row]
                for row in csv.reader(io.StringIO(self.probe_text))]

    @staticmethod
    def _runner(argv, truth, props):
        def run():
            code, payload = _cli_json(argv)
            if code != 0:
                return code, False, dict(props)
            estimates = payload.get("estimates") or [payload["estimate"]]
            err = min(param_err(e, truth) for e in estimates)
            return code, err <= FIT_TOLERANCE, dict(props, param_err=err)
        return run


WORKLOADS = {"table": Table, "count": Count, "fit": Fit}
