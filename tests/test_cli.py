"""Command-line interface: subcommands, formats, exit codes."""

import contextlib
import gzip
import hashlib
import io
import json
import os
import tempfile
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import univariate_moments
from homoment import cli, geometry, models


def run(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_captured(args):
    """``cli.main`` with its output captured here, for tests that draw
    many inputs (function-scoped fixtures such as capsys are not reset
    between the draws)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(args)
    return code, out.getvalue(), err.getvalue()


def _no_constants(name):
    raise ValueError(f"{name} is not valid JSON")


def strict_json(text):
    """``json.loads`` that refuses the bare NaN/Infinity of Python's
    encoder."""
    return json.loads(text, parse_constant=_no_constants)


class TestDefectTable:
    def test_single_row_text(self, capsys):
        code, out, err = run(["defect-table", "--n", "2", "--k", "2",
                              "--check"], capsys)
        assert code == 0
        assert "2  2  3" in out.replace("   ", "  ")
        fields = out.splitlines()[1].split()
        assert fields == ["2", "2", "3", "8", "9", "8", "7", "1", "1"]

    def test_json_format(self, capsys):
        code, out, _ = run(["defect-table", "--n", "1", "--d", "3",
                            "--format", "json", "--check"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == "homoment/1"
        assert payload["check"]["passed"]
        rows = {(r["n"], r["k"]): r for r in payload["rows"]}
        assert rows[(1, 1)]["dim"] == 2
        assert rows[(1, 2)]["fiber_dim"] == 1

    def test_csv_format(self, capsys):
        code, out, _ = run(["defect-table", "--n", "1", "--k", "1",
                            "--format", "csv"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("n,k,d,")
        assert lines[1] == "1,1,3,2,3,2,2,0,0"

    def test_bad_range_is_input_error(self, capsys):
        code, _, err = run(["defect-table", "--n", "x..y"], capsys)
        assert code == cli.EXIT_INPUT
        assert json.loads(err)["error"]["code"] == "INPUT"

    def test_envelope_violation(self, capsys):
        code, _, err = run(["defect-table", "--n", "9"], capsys)
        assert code == cli.EXIT_INPUT

    @pytest.mark.parametrize("n", ["8", "4..9"])
    def test_envelope_checked_before_any_row(self, capsys, monkeypatch, n):
        # default_k_range(8, 3) runs to k = 15, past MAX_K = 12
        calls = []
        monkeypatch.setattr(geometry, "defect_report",
                            lambda *a, **kw: calls.append(a))
        code, out, err = run(["defect-table", "--n", n, "--d", "3"], capsys)
        assert code == cli.EXIT_INPUT
        assert out == ""
        error = strict_json(err)["error"]
        assert error["code"] == "PRECONDITION"
        assert "(n=8, k=13, d=3)" in error["message"]
        assert calls == []

    @pytest.mark.parametrize("n,d", [("8", "100"), ("1..2", "5..100"),
                                     ("9", "3")])
    def test_envelope_checked_before_default_k_range(self, capsys,
                                                      monkeypatch, n, d):
        real = geometry.default_k_range

        def spy(nvars, degree=3):
            # default_k_range runs k up to ambient_dim(n, d), about 3.5e11
            # for (8, 100): fail here rather than start that loop
            assert nvars <= geometry.MAX_N and degree <= geometry.MAX_D
            return real(nvars, degree)

        monkeypatch.setattr(geometry, "default_k_range", spy)
        code, out, err = run(["defect-table", "--n", n, "--d", d], capsys)
        assert code == cli.EXIT_INPUT
        assert out == ""
        assert strict_json(err)["error"]["code"] == "PRECONDITION"

    @pytest.mark.parametrize("args,digest", [
        ("--n 1..5 --d 3 --check --format json --seed 0",
         "462372ca5628e8e95e221420e66d0f4e2566ec4725494985ca75f5e3255f925d"),
        ("--n 1..4 --d 3..4 --format json --seed 0",
         "b03b10f75078654ecb7ee203b0636a0aa9df1dc485301f15781fbba3e8892112"),
    ], ids=["n1..5-d3-check", "n1..4-d3..4"])
    def test_output_is_pinned(self, capsys, args, digest):
        # byte-stable stdout, d = 4 cells included
        code, out, _ = run(["defect-table"] + args.split(), capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_jobs_match_serial(self, capsys, tmp_path):
        serial = tmp_path / "serial.json"
        parallel = tmp_path / "parallel.json"
        code, _, _ = run(["defect-table", "--n", "2", "--format", "json",
                          "--output", str(serial)], capsys)
        assert code == 0
        code, _, _ = run(["defect-table", "--n", "2", "--format", "json",
                          "--jobs", "2", "--output", str(parallel)], capsys)
        assert code == 0
        assert serial.read_text() == parallel.read_text()

    @pytest.mark.parametrize("jobs", ["0", "-3", "two"])
    def test_non_positive_jobs_is_input_error(self, capsys, jobs):
        code, out, err = run(["defect-table", "--n", "1", "--jobs", jobs],
                             capsys)
        assert code == cli.EXIT_INPUT
        assert out == ""
        assert "--jobs" in strict_json(err)["error"]["message"]

    @pytest.mark.parametrize("jobs,ks,cpus,workers", [
        ("64", "1..3", 8, 3),        # one worker per cell
        ("64", "1..12", 4, 4),       # one worker per CPU
        ("2", "1..12", 4, 2),
        ("64", "1..12", 1, None),    # one CPU: no pool
        ("64", "1..12", None, None),  # CPU count unknown: no pool
    ])
    def test_jobs_clamped_to_cpus_and_cells(self, capsys, monkeypatch,
                                            jobs, ks, cpus, workers):
        pools = []

        class FakePool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        code, out, _ = run(["defect-table", "--n", "1", "--k", ks,
                            "--jobs", jobs, "--format", "csv"], capsys)
        assert code == 0
        lo, hi = (int(x) for x in ks.split(".."))
        assert len(out.strip().splitlines()) == 1 + hi - lo + 1
        assert pools == ([] if workers is None else [workers])


class TestSimulateAndFit2:
    PARAMS = {
        "means": [[1.0, 0.0], [-3.0 / 7.0, 0.0]],
        "weights": [0.3, 0.7],
        "cov": [[1.0, 0.0], [0.0, 1.0]],
    }

    def _write_params(self, tmp_path):
        path = tmp_path / "params.json"
        path.write_text(json.dumps(self.PARAMS))
        return path

    def test_simulate_deterministic(self, capsys, tmp_path):
        params = self._write_params(tmp_path)
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for out in (a, b):
            code, _, _ = run(["simulate", "--params", str(params), "--count",
                              "200", "--seed", "7", "--output", str(out)],
                             capsys)
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_round_trip_recovers_truth(self, capsys, tmp_path):
        params = self._write_params(tmp_path)
        data = tmp_path / "data.csv"
        code, _, _ = run(["simulate", "--params", str(params), "--count",
                          "60000", "--seed", "1", "--output", str(data)],
                         capsys)
        assert code == 0
        out_json = tmp_path / "fit.json"
        code, _, _ = run(["fit2", "--input", str(data), "--order", "5",
                          "--output", str(out_json)], capsys)
        assert code == 0
        payload = json.loads(out_json.read_text())
        assert payload["schema"] == "homoment/1"
        est = payload["estimates"][0]
        weights = sorted(est["weights"])
        assert weights == pytest.approx([0.3, 0.7], abs=0.05)
        means = sorted(m[0] for m in est["means"])
        assert means == pytest.approx([-3.0 / 7.0, 1.0], abs=0.15)

    def test_order_four_returns_pair(self, capsys, tmp_path):
        params = self._write_params(tmp_path)
        data = tmp_path / "data.csv"
        run(["simulate", "--params", str(params), "--count", "20000",
             "--seed", "3", "--output", str(data)], capsys)
        code, out, _ = run(["fit2", "--input", str(data), "--order", "4"],
                           capsys)
        assert code == 0
        assert len(json.loads(out)["estimates"]) == 2

    def test_single_column_csv_univariate_path(self, capsys, tmp_path):
        p = tmp_path / "p1.json"
        p.write_text(json.dumps({
            "means": [[0.0], [3.0]], "weights": [0.3, 0.7], "cov": [[0.25]]}))
        data = tmp_path / "one_col.csv"
        run(["simulate", "--params", str(p), "--count", "60000", "--seed",
             "2", "--output", str(data)], capsys)
        code, out, _ = run(["fit2", "--input", str(data)], capsys)
        assert code == 0
        est = json.loads(out)["estimates"][0]
        assert est["n"] == 1
        assert sorted(m[0] for m in est["means"]) == \
            pytest.approx([0.0, 3.0], abs=0.1)

    def test_empty_csv(self, capsys, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        code, _, err = run(["fit2", "--input", str(empty)], capsys)
        assert code == cli.EXIT_INPUT
        assert json.loads(err)["error"]["code"] == "INPUT_EMPTY"

    def test_non_numeric_cells(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("x,y\n1.0,2.0\n3.0,oops\n")
        code, _, err = run(["fit2", "--input", str(bad)], capsys)
        assert code == cli.EXIT_INPUT
        assert json.loads(err)["error"]["code"] == "INPUT_PARSE"

    def test_header_detection(self, capsys, tmp_path):
        data = tmp_path / "with_header.csv"
        rows = ["x"] + ["%f" % v for v in np.linspace(-1, 1, 11)]
        data.write_text("\n".join(rows))
        code, out, _ = run(["fit1d", "--k", "1", "--input", str(data)], capsys)
        assert code == 0
        assert json.loads(out)["estimate"]["k"] == 1

    def test_symmetric_data_exit_code(self, capsys, tmp_path):
        # perfectly symmetric sample: third cumulants vanish identically
        data = tmp_path / "sym.csv"
        data.write_text("\n".join(["1.0", "-1.0", "2.0", "-2.0"] * 100))
        code, _, err = run(["fit2", "--input", str(data)], capsys)
        assert code == cli.EXIT_MODEL
        assert json.loads(err)["error"]["code"] == "SYMMETRIC_MIXTURE"

    @pytest.mark.parametrize("text,expected", [
        ("1,2\n\n3,4\n\n", [[1, 2], [3, 4]]),
        ("1,2\n,\n  ,  \n3,4\n", [[1, 2], [3, 4]]),
        (" 1 , 2 \r\n3,4\r\n", [[1, 2], [3, 4]]),
        ('"1.5",2\n3,4\n', [[1.5, 2], [3, 4]]),
        ('"x","y"\n1,2\n', [[1, 2]]),
        ("1,2\n3\n", "INPUT_PARSE"),
        ("1,2,\n3,4,\n", "INPUT_PARSE"),
        ("1,2\n3,4 # note\n", "INPUT_PARSE"),
        ("x,y\n", "INPUT_EMPTY"),
        ("x,y\n1,2\nnan,3\n", "INPUT_PARSE"),
        ("1,2\n1e999,3\n", "INPUT_PARSE"),
        ("\ufeff1,2\n3,4\n", [[1, 2], [3, 4]]),
        ("1, \n2,3\n", "INPUT_PARSE"),
        ("1,2 # note\n3,4\n", "INPUT_PARSE"),
        ("x,1\n2,3\n4,5\n", "INPUT_PARSE"),
    ], ids=["blank-lines", "comma-space-lines", "spaces-crlf",
            "quoted-number", "quoted-header", "ragged", "trailing-comma",
            "hash-note", "header-only", "nan", "overflow", "byte-order-mark",
            "blank-first-line-cell", "first-line-note", "mixed-first-line"])
    def test_csv_contract(self, capsys, tmp_path, text, expected):
        data = tmp_path / "data.csv"
        data.write_bytes(text.encode())
        if isinstance(expected, str):
            code, out, err = run(["fit2", "--input", str(data)], capsys)
            assert (code, out) == (cli.EXIT_INPUT, "")
            assert strict_json(err)["error"]["code"] == expected
        else:
            rows = np.asarray(cli.read_csv_matrix(str(data)), dtype=float)
            assert rows.tolist() == expected


class TestFit1d:
    def test_single_gaussian_from_moments(self, capsys):
        code, out, _ = run(["fit1d", "--k", "1", "--moments", "1,3"], capsys)
        assert code == 0
        est = json.loads(out)["estimate"]
        assert est["means"][0][0] == pytest.approx(1.0, abs=1e-9)
        assert est["cov"][0][0] == pytest.approx(2.0, abs=1e-9)

    def test_requires_one_source(self, capsys):
        code, _, err = run(["fit1d", "--k", "1"], capsys)
        assert code == cli.EXIT_INPUT

    def test_multicolumn_csv_rejected(self, capsys, tmp_path):
        data = tmp_path / "wide.csv"
        data.write_text("1.0,2.0\n3.0,4.0\n")
        code, _, _ = run(["fit1d", "--k", "1", "--input", str(data)], capsys)
        assert code == cli.EXIT_INPUT

    @pytest.mark.parametrize("k", ["0", "-1", "two"])
    def test_non_positive_k_is_input_error(self, capsys, k):
        code, out, err = run(["fit1d", "--k", k, "--moments", "1,3"], capsys)
        assert code == cli.EXIT_INPUT
        assert out == ""
        assert "--k" in strict_json(err)["error"]["message"]

    def test_non_utf8_input(self, tmp_path):
        # gzip bytes are not UTF-8 text
        data = tmp_path / "s.csv.gz"
        data.write_bytes(gzip.compress(b"1.0\n2.0\n", mtime=0))
        assert_rejected(["fit1d", "--k", "1", "--input", str(data)])

    def test_non_finite_csv_cell(self, capsys, tmp_path):
        data = tmp_path / "nan.csv"
        data.write_text("1.0\nnan\n2.0\n")
        code, _, err = run(["fit1d", "--k", "1", "--input", str(data)], capsys)
        assert code == cli.EXIT_INPUT
        assert strict_json(err)["error"]["code"] == "INPUT_PARSE"

    def test_input_fit_is_shift_equivariant(self, capsys, tmp_path):
        # uncentred, the sample moved to 1000 exited 3 (no nonnegative
        # variance root)
        params = models.HomoscedasticParams(means=[[0.0], [3.0]],
                                            weights=[0.3, 0.7], cov=[[0.25]])
        sample = models.sample_mixture(params, 2000, seed=3)
        fits = []
        for c in (0.0, 10.0, 100.0, 1000.0):
            data = tmp_path / f"shift{c:g}.csv"
            np.savetxt(data, sample + c, fmt="%.17g")
            code, out, _ = run(["fit1d", "--k", "2", "--input", str(data)],
                               capsys)
            assert code == 0
            est = json.loads(out)["estimate"]
            fits.append([m - c for m, in est["means"]] + est["weights"]
                        + est["cov"][0])
        for fit in fits[1:]:
            assert fit == pytest.approx(fits[0], abs=1e-9)

    @pytest.mark.parametrize("args,digest", [
        ("--k 2 --moments 1.05,1.85,2.77,5.00",
         "3a31e2d7cdda281183be3fce73d3139401e7f3065e057ef96584cbe93a51ffe7"),
        ("--k 1 --moments=-1,3",
         "dbf4f34719f0ecfe38da02adc2ca76ca6ba98cd4dcfe14c5c500826e836305f4"),
        ("--k 3 --moments 0.5,2.1,2.3,9.0,12.0,50.0",
         "04d706bfd141c4de7871af6c6548111606ff2c73ae6121fa3ab359bfc9ebe350"),
        ("--k 2 --input {csv}",
         "78bea883a6a3bbeaee172f759b2596a1bbc4491009ded922ed280bfbccd7fb9a"),
    ], ids=["k2", "k1-negative", "k3", "k2-csv"])
    def test_output_is_pinned(self, capsys, tmp_path, args, digest):
        # byte-stable stdout of the variance-polynomial path
        data = tmp_path / "sample.csv"
        if "{csv}" in args:
            params = tmp_path / "params.json"
            params.write_text(json.dumps({
                "means": [[0.0], [3.0]], "weights": [0.3, 0.7],
                "cov": [[0.25]]}))
            run(["simulate", "--params", str(params), "--count", "2000",
                 "--seed", "3", "--output", str(data)], capsys)
        code, out, _ = run(["fit1d"] + args.format(csv=data).split(), capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestRankTest:
    def test_two_mixture_counted(self, capsys):
        p = models.HomoscedasticParams(
            means=[[0], [3]], weights=[Fraction(2, 5), Fraction(3, 5)],
            cov=[[Fraction(1, 2)]])
        m = ",".join(str(float(x)) for x in univariate_moments(p, 7))
        code, out, _ = run(["rank-test", "--moments", m, "--kmax", "3"],
                           capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["estimated_components"] == 2
        assert [v["on_model"] for v in payload["verdicts"][:2]] == [False, True]

    def test_gaussian_counted(self, capsys):
        code, out, _ = run(["rank-test", "--moments", "1,3,7,25,81",
                            "--kmax", "2"], capsys)
        assert code == 0
        assert json.loads(out)["estimated_components"] == 1

    def test_insufficient_order(self, capsys):
        code, _, err = run(["rank-test", "--moments", "1,2,3", "--kmax", "2"],
                           capsys)
        assert code == cli.EXIT_INPUT
        assert json.loads(err)["error"]["code"] == "INSUFFICIENT_ORDER"


    @pytest.mark.parametrize("moments", ["nan,2,3", "1,inf,3", "1,2,-inf"])
    def test_non_finite_moments(self, capsys, moments):
        code, out, err = run(["rank-test", "--kmax", "1", "--moments",
                              moments], capsys)
        assert code == cli.EXIT_INPUT
        assert out == ""
        assert strict_json(err)["error"]["code"] == "INPUT_PARSE"

    def test_zero_kmax_is_input_error(self, capsys):
        code, out, err = run(["rank-test", "--kmax", "0", "--moments",
                              "1,2,3"], capsys)
        assert code == cli.EXIT_INPUT
        assert out == ""
        assert "--kmax" in strict_json(err)["error"]["message"]

    @pytest.mark.parametrize("threshold", ["nan", "inf", "0", "-1"])
    def test_non_positive_threshold_is_input_error(self, capsys, threshold):
        code, out, err = run(["rank-test", "--kmax", "1", "--moments",
                              "1,3,7", "--threshold", threshold], capsys)
        assert code == cli.EXIT_INPUT
        assert out == ""
        assert "--threshold" in strict_json(err)["error"]["message"]

    def test_threshold_accepted(self, capsys):
        code, out, _ = run(["rank-test", "--kmax", "1", "--moments",
                            "1,3,7", "--threshold", "1e-6"], capsys)
        assert code == 0
        payload = strict_json(out)
        assert payload["estimated_components"] == 1
        assert payload["verdicts"][0]["threshold"] == 1e-6


def test_emit_json_writes_non_finite_as_null(capsys):
    nan, inf = float("nan"), float("inf")
    cli._emit_json({"a": nan, "b": [inf, {"c": -inf, "d": (nan, 1.5)}],
                    "e": (-inf, [nan])}, None)
    payload = strict_json(capsys.readouterr().out)
    assert payload == {"a": None, "b": [None, {"c": None, "d": [None, 1.5]}],
                       "e": [None, [None]]}


NON_FINITE = st.sampled_from(["nan", "NaN", "-nan", "inf", "-inf", "Infinity",
                              "-Infinity", "1e999", "-1e999"])
FINITE = st.floats(-1e6, 1e6).map(repr)


def assert_rejected(args, error_code="INPUT_PARSE"):
    """Exit 2 with strict error JSON on stderr, nothing on stdout."""
    code, out, err = run_captured(args)
    assert code == cli.EXIT_INPUT
    assert out == ""
    assert "Traceback" not in err
    assert strict_json(err)["error"]["code"] == error_code


@st.composite
def with_non_finite(draw, size):
    """``size`` finite number strings, one of them replaced by a non-finite
    spelling."""
    values = draw(st.lists(FINITE, min_size=size, max_size=size))
    values[draw(st.integers(0, size - 1))] = draw(NON_FINITE)
    return values


@st.composite
def non_finite_csv(draw, max_cols):
    ncols = draw(st.integers(1, max_cols))
    nrows = draw(st.integers(1, 8))
    cells = draw(with_non_finite(nrows * ncols))
    header = ",".join(f"x{j}" for j in range(ncols)) + "\n"
    body = "\n".join(",".join(cells[i * ncols:(i + 1) * ncols])
                     for i in range(nrows))
    return (header if draw(st.booleans()) else "") + body + "\n"


class TestNegativeMoments:
    @pytest.mark.parametrize("command,moments", [
        (["rank-test", "--kmax", "1"], "-1,3,-7"),
        (["fit1d", "--k", "1"], "-1,3"),
    ])
    def test_separate_value_same_as_attached(self, capsys, command, moments):
        attached = run(command + ["--moments=" + moments], capsys)
        separate = run(command + ["--moments", moments], capsys)
        assert attached[0] == cli.EXIT_OK
        assert separate[:2] == attached[:2]

    def test_missing_value_still_reported(self, capsys):
        code, out, err = run(["rank-test", "--moments", "--kmax", "1"],
                             capsys)
        assert code == cli.EXIT_INPUT
        assert out == ""
        assert "--moments: expected one argument" in (
            strict_json(err)["error"]["message"])


class TestNonFiniteInput:
    @settings(deadline=None)
    @given(st.data())
    def test_rank_test_moments(self, data):
        kmax = data.draw(st.integers(1, 3))
        moments = data.draw(with_non_finite(2 * kmax + 1))
        # "--moments=" spelling; TestNegativeMoments covers the other
        assert_rejected(["rank-test", "--kmax", str(kmax),
                         "--moments=" + ",".join(moments)])

    @settings(deadline=None)
    @given(st.data())
    def test_fit1d_moments(self, data):
        k = data.draw(st.integers(1, 3))
        moments = data.draw(with_non_finite(2 * k))
        assert_rejected(["fit1d", "--k", str(k),
                         "--moments=" + ",".join(moments)])

    @settings(deadline=None)
    @given(st.sampled_from(["fit2", "fit1d"]), st.data())
    def test_csv_cell(self, command, data):
        text = data.draw(non_finite_csv(3 if command == "fit2" else 1))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "data.csv")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
            extra = ["--k", "1"] if command == "fit1d" else []
            assert_rejected([command, "--input", path] + extra)


class TestHugeInput:
    """Finite input too large for float Hankel minors or their scales."""

    @pytest.mark.parametrize("args", [
        "rank-test --kmax 1 --moments=1e200,1e200,1e200",
        "rank-test --kmax 1 --moments=1,1e308,1",
        "rank-test --kmax 1 --moments=1e300,1,1",
        "rank-test --kmax 1 --moments=1e100,1e100,1e100",
        "fit1d --k 2 --moments=1e200,1e200,1e200,1e200",
        "fit1d --k 3 --moments=1e60,1,1,1,1,1",   # quadrature lead scale
        "fit1d --k 1 --input {csv}",
        "fit1d --k 2 --input {csv}",
    ])
    def test_range_error(self, tmp_path, args):
        data = tmp_path / "huge.csv"
        data.write_text("1e300\n-1e300\n" * 20)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert_rejected(args.format(csv=data).split(),
                            error_code="INPUT_RANGE")
        # a numpy overflow warning would reach stderr beside the JSON
        assert caught == []


class TestSeedEnvironment:
    def test_env_seed_fallback(self, capsys, tmp_path, monkeypatch):
        params = tmp_path / "p.json"
        params.write_text(json.dumps({
            "means": [[0.0]], "weights": [1.0], "cov": [[1.0]]}))
        out1 = tmp_path / "s1.csv"
        out2 = tmp_path / "s2.csv"
        monkeypatch.setenv("HOMOMENT_SEED", "99")
        run(["simulate", "--params", str(params), "--count", "50",
             "--output", str(out1)], capsys)
        monkeypatch.delenv("HOMOMENT_SEED")
        run(["simulate", "--params", str(params), "--count", "50",
             "--seed", "99", "--output", str(out2)], capsys)
        assert out1.read_text() == out2.read_text()
