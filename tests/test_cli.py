"""Command-line interface: subcommands, formats, exit codes."""

import bz2
import contextlib
import decimal
import functools
import gzip
import hashlib
import io
import json
import lzma
import math
import os
import subprocess
import sys
import tempfile
import threading
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import VERONESE_SPORADIC, univariate_moments
import homoment
from homoment import cli, geometry, models
from homoment import series as ts
from homoment.errors import InputError, PreconditionError


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
        code, out, _ = run(["defect-table", "--n", "1..3", "--d", "3",
                            "--format", "json", "--check"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == "homoment/1"
        assert payload["version"] == homoment.__version__
        assert payload["check"]["passed"]
        rows = {(r["n"], r["k"]): r for r in payload["rows"]}
        assert rows[(1, 1)]["dim"] == 2
        assert rows[(1, 2)]["fiber_dim"] == 1
        for r in rows.values():
            assert r["points"] == len(r["ranks"])
            assert r["dim"] == max(r["ranks"])
            # one point exactly when it meets the dimension the paper's
            # order-3 theorem gives; (2, 2), (3, 2) and (3, 3) are defective
            settled = r["expected"] - geometry.predicted_defect_order3(
                r["n"], r["k"])
            assert (r["points"] == 1) == (r["dim"] == settled)

    def test_order3_classifier_past_the_published_table(self, capsys):
        # n = 8 is beyond the published n <= 7 rows: only the closed-form
        # classifier checks it
        code, out, _ = run(["defect-table", "--n", "8", "--k", "2..12",
                            "--d", "3", "--check", "--format", "json"],
                           capsys)
        assert code == 0
        payload = strict_json(out)
        assert payload["check"]["passed"]
        assert [r["defect"] for r in payload["rows"]] == \
            [1, 2, 2, 0, 0, 0, 0, 0, 1, 2, 3]

    def test_csv_format(self, capsys):
        code, out, _ = run(["defect-table", "--n", "1", "--k", "1",
                            "--format", "csv"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("n,k,d,")
        assert lines[1] == "1,1,3,2,3,2,2,0,0"

    @pytest.mark.parametrize("fmt", ["table", "json", "csv"])
    @pytest.mark.parametrize("target,wrong,mismatch", [
        ("predicted_defect_order3", lambda n, k: 7,
         "(n=2,k=2,d=3): computed defect 1, classifier 7"),
        ("order3_reference_row", lambda n, k: (n, k, 3, 0, 0, 0, 0, 0, 0),
         "(n=2,k=2,d=3): computed row (2, 2, 3, 8, 9, 8, 7, 1, 1), "
         "published (2, 2, 3, 0, 0, 0, 0, 0, 0)")])
    def test_check_mismatch_exits_4(self, capsys, monkeypatch, fmt, target,
                                    wrong, mismatch):
        # one mismatch, at d = 3: the d = 4 row is not checked, or the
        # patched function would report a second
        monkeypatch.setattr(geometry, target, wrong)
        code, out, err = run(["defect-table", "--n", "2", "--k", "2",
                              "--d", "3..4", "--check", "--format", fmt],
                             capsys)
        assert code == cli.EXIT_CHECK == 4
        assert err == "defect-table --check failed: 1 mismatch(es)\n"
        if fmt == "json":
            payload = strict_json(out)
            assert [r["d"] for r in payload["rows"]] == [3, 4]
            assert payload["check"] == {"passed": False,
                                        "mismatches": [mismatch]}
        elif fmt == "table":
            assert out.splitlines()[-2:] == [
                "check: MISMATCH (1 of 2 rows at d = 3)", "  " + mismatch]
        else:
            # csv carries the rows only
            assert [line.split(",")[2] for line in out.splitlines()] == \
                ["d", "3", "4"]

    def test_check_counts_the_rows_it_compares(self, capsys):
        # the classifier and the published table cover d = 3 alone: no d = 4
        # row is compared, and the summary said "ok (9 rows)"
        code, out, _ = run(["defect-table", "--n", "1..2", "--d", "3..4",
                            "--check"], capsys)
        assert code == 0
        assert out.splitlines()[-1] == "check: ok (4 of 9 rows at d = 3)"

    @pytest.mark.parametrize("defect", [3, 1],
                             ids=["overstated", "understated"])
    def test_wrong_classifier_cannot_hide(self, capsys, monkeypatch, defect):
        # the classifier also sets the row's ceiling: a first rank above it
        # (a counterexample) or below it draws more points, and --check
        # names the row
        real = geometry.predicted_defect_order3
        monkeypatch.setattr(geometry, "predicted_defect_order3",
                            lambda n, k: defect if (n, k) == (3, 3)
                            else real(n, k))
        report = geometry.defect_report(3, 3, 3, seed=0)
        assert report.points >= 2 and report.dim == 15
        code, out, err = run(["defect-table", "--n", "3", "--k", "3", "--d",
                              "3", "--check", "--format", "json"], capsys)
        assert code == cli.EXIT_CHECK == 4
        assert err == "defect-table --check failed: 1 mismatch(es)\n"
        assert strict_json(out)["check"] == {"passed": False, "mismatches": [
            f"(n=3,k=3,d=3): computed defect 2, classifier {defect}"]}

    def test_bad_range_is_input_error(self, capsys):
        # a range whose end is below its start is refused like a word
        for option, text in (("--n", "x..y"), ("--n", "5..3"), ("--k", "4..2")):
            code, _, err = run(["defect-table", "--n", "2", option, text],
                               capsys)
            assert code == cli.EXIT_INPUT, text
            assert json.loads(err)["error"]["code"] == "INPUT"
            assert json.loads(err)["version"] == homoment.__version__

    def test_parser_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_usage_error_leaves_no_state(self, capsys):
        # the parser outlives each call: after a rejected call, a valid one
        # prints what it prints in a fresh process
        args = ["defect-table", "--n", "2", "--format", "json", "--seed", "3"]
        env = dict(os.environ, PYTHONPATH=os.path.dirname(
            os.path.dirname(homoment.__file__)))
        fresh = subprocess.run([sys.executable, "-m", "homoment.cli"] + args,
                               capture_output=True, text=True, env=env,
                               check=True).stdout
        assert run(["rank-test", "--moments", "0,1,0", "--kmax", "two"],
                   capsys)[0] == cli.EXIT_INPUT
        assert run(args, capsys) == (cli.EXIT_OK, fresh, "")

    def test_envelope_violation(self, capsys):
        code, _, err = run(["defect-table", "--n", "9"], capsys)
        assert code == cli.EXIT_INPUT

    @pytest.mark.parametrize("n,cell", [("8", "(n=8, k=16, d=4)"),
                                        ("4..9", "(n=5, k=16, d=4)")],
                             ids=["8", "4..9"])
    def test_envelope_checked_before_any_row(self, capsys, monkeypatch, n,
                                             cell):
        # default_k_range(n, 4) runs past MAX_K = 15 from n = 5 on
        calls = []
        monkeypatch.setattr(geometry, "defect_report",
                            lambda *a, **kw: calls.append(a))
        code, out, err = run(["defect-table", "--n", n, "--d", "4"], capsys)
        assert code == cli.EXIT_INPUT
        assert out == ""
        error = strict_json(err)["error"]
        assert error["code"] == "PRECONDITION"
        assert cell in error["message"]
        assert calls == []

    def test_default_k_range_at_order_three_is_inside_the_envelope(self):
        for n in range(1, geometry.MAX_N + 1):
            for k in geometry.default_k_range(n, 3):
                geometry.check_envelope(n, k, 3)
        assert geometry.default_k_range(geometry.MAX_N, 3)[-1] == \
            geometry.MAX_K

    def test_largest_dimension_at_its_default_k_range(self, capsys):
        # default_k_range(8, 3) runs to k = 15, and MAX_K was 14: the
        # command refused its own default
        code, out, _ = run(["defect-table", "--n", "8", "--d", "3", "--check",
                            "--format", "json"], capsys)
        assert code == 0
        payload = strict_json(out)
        assert payload["check"]["passed"]
        assert [r["k"] for r in payload["rows"]] == list(range(2, 16))

    @pytest.mark.parametrize("n,d", [("8", "100"), ("1..2", "5..100"),
                                     ("9", "3")])
    def test_envelope_checked_before_default_k_range(self, capsys, n, d):
        # default_k_range runs k up to ambient_dim(n, d), about 3.5e11
        # steps for (8, 100): it checks its first cell before that loop
        start = time.perf_counter()
        with pytest.raises(PreconditionError):
            geometry.default_k_range(8, 100)
        with pytest.raises(PreconditionError):
            geometry.default_k_range(0, 3)
        code, out, err = run(["defect-table", "--n", n, "--d", d], capsys)
        assert time.perf_counter() - start < 1.0
        assert code == cli.EXIT_INPUT
        assert out == ""
        assert strict_json(err)["error"]["code"] == "PRECONDITION"

    @pytest.mark.parametrize("args,cell", [
        (["--n", "1..2", "--k", "2", "--d", "7"], "(n=1, k=2, d=7)"),
        (["--n", "1..2", "--k", "3..4", "--d", "0"], "(n=1, k=3, d=0)"),
        (["--n", "1..2", "--d", "7"], "(n=1, k=1, d=7)"),
        (["--n", "2..3", "--d", "7"], "(n=2, k=2, d=7)")],
        ids=["n=1,k=2,d=7", "n=1,k=3,d=0", "n=1,k=1,d=7", "n=2,k=2,d=7"])
    def test_envelope_error_names_a_requested_cell(self, capsys, args, cell):
        # the n and d check used k = 1, a cell not asked for when --k is
        # given or n > 1
        code, out, err = run(["defect-table", *args], capsys)
        assert code == cli.EXIT_INPUT
        assert out == ""
        assert cell in strict_json(err)["error"]["message"]

    @pytest.mark.parametrize("args", [
        ["--n", f"1..{10 ** 18}", "--d", "3"],
        ["--n", "2", "--k", f"2..{10 ** 18}"],
        ["--n", "2", "--k", "2", "--d", f"1..{10 ** 18}"]],
        ids=["n", "k", "d"])
    def test_huge_range_refused_at_its_first_bad_cell(self, capsys, args):
        # a range is walked, never listed: a list of 10**18 cells ended
        # in a bare MemoryError
        start = time.perf_counter()
        code, out, err = run(["defect-table", *args], capsys)
        assert time.perf_counter() - start < 1.0
        assert code == cli.EXIT_INPUT
        assert out == ""
        assert strict_json(err)["error"]["code"] == "PRECONDITION"

    @pytest.mark.parametrize("args,digest", [
        ("--n 1..5 --d 3 --check --format json --seed 0",
         "da8d92e726f346cbcd934703a577d8a025a95d57aa8dba43ba90c7fea9c1df61"),
        ("--n 1..4 --d 3..4 --format json --seed 0",
         "655350c1daf3104ac1ec7419c16837c9e03d53b013afc994e46bbc2215bc8787"),
        # every published row, as the table benchmark and CI run them
        ("--n 1..7 --d 3 --check --format json --seed 0",
         "ec9400da4ccb77b4ec452e6c964ce34c10bfa2086b50c3048a223c55429ca91b"),
        # d = 1 and 2: the rank block has no columns
        ("--n 1..3 --d 1..2 --format json --seed 0",
         "3db94b2fc803a26012956eef39a7920666e582a9035bed5784a8651ce5644f93"),
        # the largest rank blocks, as CI runs them
        ("--n 8 --k 2..12 --d 3 --check --format json --seed 0",
         "2f0af264329a6a5d83ad2ab19aa7cc6284b9fdcac1e5da80ecb1093f8df4f925"),
        # a negative seed is masked into each row's stream
        ("--n 1..3 --d 3 --format json --seed -5",
         "fd70bb901a93e24d42657023004b92243d5bf8161a13d8f0b1dc7d1ed9513fde"),
        # the whole envelope: 576 rows, d = 5 and 6 included
        ("--n 1..8 --k 1..12 --d 1..6 --format json --seed 0",
         "a53f68bd42f3e23953f889c8d013b5df60a9fb5718c58839d56464faa3f6b3c8"),
    ], ids=["n1..5-d3-check", "n1..4-d3..4", "n1..7-d3-check", "n1..3-d1..2",
            "n8-k2..12-d3-check", "n1..3-d3-seed-5", "n1..8-k1..12-d1..6"])
    def test_output_is_pinned(self, capsys, args, digest):
        # byte-stable stdout, d = 4 cells included
        code, out, _ = run(["defect-table"] + args.split(), capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_veronese_rows_are_pinned(self):
        # the sporadic defective Veronese secants, the d = 2 cells of
        # n <= 4, k <= 5, and a few with a rank block of no rows or columns
        cells = [(n, k, d) for n, d, k in VERONESE_SPORADIC]
        cells += [(n, k, 2) for n in range(1, 5) for k in range(1, 6)]
        cells += [(1, 1, 1), (3, 2, 1), (1, 2, 3)]
        rows = [geometry.veronese_report(n, k, d, seed=0).as_dict()
                for n, k, d in cells]
        assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == (
            "26e43956945dc5f00b186fa2f6871d3240c5f8df353c4d2a13448e323b542b9b")

    def test_veronese_envelope_is_pinned(self):
        # every Dirac cell of the envelope, n <= 8, k <= 12 and d = 1..6,
        # the 31 rows that rank two points included
        rows = [geometry.veronese_report(n, k, d, seed=0).as_dict()
                for n in range(1, 9) for k in range(1, 13)
                for d in range(1, 7)]
        assert sum(row["points"] == 2 for row in rows) == 31
        assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == (
            "280b19cf7afc309ee60c3c1df4f8f6947d52705389f6f1dbbd0d9d90628dd457")

    def test_row_does_not_depend_on_its_table(self, capsys):
        # each row draws from its own stream: the same row, ranks
        # included, whichever rows share its table
        code, out, _ = run(["defect-table", "--n", "1..4", "--d", "3..4",
                            "--format", "json"], capsys)
        assert code == 0
        rows = strict_json(out)["rows"]
        assert len(rows) > 1
        for row in rows:
            code, out, _ = run(["defect-table", "--n", str(row["n"]), "--k",
                                str(row["k"]), "--d", str(row["d"]),
                                "--format", "json"], capsys)
            assert code == 0
            assert strict_json(out)["rows"] == [row]

    def test_envelope_dims_do_not_depend_on_the_seed(self, capsys):
        # the generic rank does not depend on the points drawn: seeds 0
        # and 1 agree on the dim of every cell of the envelope
        dims = []
        for seed in ("0", "1"):
            code, out, _ = run(["defect-table", "--n", "1..8", "--k", "1..12",
                                "--d", "1..6", "--format", "json", "--seed",
                                seed], capsys)
            assert code == 0
            dims.append([(r["n"], r["k"], r["d"], r["dim"])
                         for r in strict_json(out)["rows"]])
        assert len(dims[0]) == 576
        assert dims[0] == dims[1]

    def test_import_loads_no_process_pool(self):
        # importing the CLI loads no process pool, nor the multiprocessing,
        # socket, subprocess and logging modules that it pulls in
        env = dict(os.environ, PYTHONPATH=os.path.dirname(
            os.path.dirname(homoment.__file__)))
        loaded = subprocess.run(
            [sys.executable, "-c", "import sys, homoment.cli; "
             "print('concurrent.futures' in sys.modules)"],
            capture_output=True, text=True, env=env, check=True).stdout
        assert loaded == "False\n"


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

    @pytest.mark.parametrize("spec", [
        '"weights": [NaN, 0.7]', '"means": [[NaN, 0.0], [1.0, 0.0]]',
        '"cov": [[Infinity, 0.0], [0.0, 1.0]]', '"cov": [[1.0, NaN], [NaN, 1.0]]',
        '"weights": [Infinity, 0.7]', '"means": [[0.0, 0.0], [1.0, -Infinity]]'])
    def test_non_finite_params(self, capsys, tmp_path, spec):
        # json reads NaN and Infinity, and the later key replaces the
        # finite one; the parameters refuse them before the weight sum
        # is checked
        params = tmp_path / "params.json"
        params.write_text(json.dumps(self.PARAMS)[:-1] + ", " + spec + "}")
        code, out, err = run(["simulate", "--params", str(params), "--count",
                              "20"], capsys)
        assert code == cli.EXIT_INPUT
        assert out == ""
        assert strict_json(err)["error"]["code"] == "INPUT_PARSE"

    @pytest.mark.parametrize("text", [
        "[1, 2]", '[["a"]]', '"parameters"', "null",
        '{"means": 5, "weights": [0.3, 0.7], "cov": [[1.0]]}',
        '{"means": [[0.0], [3.0]], "weights": 1, "cov": [[1.0]]}',
        '{"means": [0.0, 3.0], "weights": [0.3, 0.7], "cov": [[1.0]]}',
        '{"means": [["a"], [3.0]], "weights": [0.3, 0.7], "cov": [[1.0]]}',
        '{"means": [[0.0], [3.0]], "weights": [0.3, 0.7], "cov": [["x"]]}',
        '{"means": [[0.0], [3.0]], "weights": [true, 0.7], "cov": [[1.0]]}',
        '{"means": [[0.0], [3.0]], "weights": [0.3, 0.7], "cov": [[null]]}',
        '{"means": [[0.0], [3.0]], "weights": [0.3, 0.7], "cov": {"0": 1}}'])
    def test_malformed_params(self, capsys, tmp_path, text):
        # parsed JSON of the wrong shape or with entries that are not
        # numbers: exit 2 with INPUT_PARSE, not a traceback
        params = tmp_path / "params.json"
        params.write_text(text)
        code, out, err = run(["simulate", "--params", str(params), "--count",
                              "20"], capsys)
        assert code == cli.EXIT_INPUT
        assert out == ""
        assert strict_json(err)["error"]["code"] == "INPUT_PARSE"

    @pytest.mark.parametrize("text,error_code", [
        (None, "INPUT_IO"), ('{"means": [[0.0], [3.0]], "weights": [0.3',
                             "INPUT_PARSE")])
    def test_unreadable_params(self, capsys, tmp_path, text, error_code):
        # a missing file, and one whose JSON stops short
        params = tmp_path / "params.json"
        if text is not None:
            params.write_text(text)
        code, out, err = run(["simulate", "--params", str(params), "--count",
                              "20"], capsys)
        assert code == cli.EXIT_INPUT
        assert out == ""
        assert strict_json(err)["error"]["code"] == error_code

    def test_means_with_no_coordinate(self, capsys, tmp_path):
        # a mixture in no dimension: exit 2 with DIMENSION_MISMATCH, not a
        # linear-algebra traceback from the sampler
        params = tmp_path / "params.json"
        params.write_text('{"means": [[]], "weights": [1], "cov": []}')
        code, out, err = run(["simulate", "--params", str(params), "--count",
                              "20"], capsys)
        assert code == cli.EXIT_INPUT
        assert out == ""
        assert strict_json(err)["error"]["code"] == "DIMENSION_MISMATCH"

    def test_missing_params_field_is_precondition_error(self, capsys, tmp_path):
        params = tmp_path / "params.json"
        params.write_text('{"means": [[0.0], [3.0]], "weights": [0.3, 0.7]}')
        code, out, err = run(["simulate", "--params", str(params), "--count",
                              "20"], capsys)
        assert code == cli.EXIT_INPUT
        assert out == ""
        assert strict_json(err)["error"]["code"] == "PRECONDITION"

    def test_count_too_large_to_draw(self, capsys, tmp_path):
        # 2**60 rows ended in numpy's "array is too big" traceback; the
        # count is refused before anything is drawn
        params = self._write_params(tmp_path)
        code, out, err = run(["simulate", "--params", str(params), "--count",
                              str(2**60)], capsys)
        assert code == cli.EXIT_INPUT
        assert out == ""
        assert strict_json(err)["error"] == {
            "code": "PRECONDITION",
            "message": f"count is too large to draw, got {2**60}"}

    @pytest.mark.parametrize("spec,error_code", [
        ({"cov": [[1.0, 0.5], [0.2, 1.0]]}, "PRECONDITION"),
        ({"weights": [0.3, 0.6]}, "PRECONDITION"),
        ({"cov": [[1.0, 0.0]]}, "DIMENSION_MISMATCH"),
        # a 401-digit integer ended in an OverflowError traceback
        ({"means": [[10**400, 0.0], [0.0, 0.0]]}, "INPUT_RANGE"),
        ({"weights": [10**400, 0.7]}, "INPUT_RANGE"),
        ({"cov": [[1.0, 0.0], [0.0, 10**400]]}, "INPUT_RANGE")],
        ids=["asymmetric-cov", "weights-sum-to-0.9", "1x2-cov", "huge-mean",
             "huge-weight", "huge-cov"])
    def test_inconsistent_params(self, capsys, tmp_path, spec, error_code):
        params = tmp_path / "params.json"
        params.write_text(json.dumps({**self.PARAMS, **spec}))
        code, out, err = run(["simulate", "--params", str(params), "--count",
                              "10"], capsys)
        assert code == cli.EXIT_INPUT
        assert out == ""
        assert strict_json(err)["error"]["code"] == error_code

    def test_negative_seed_is_precondition_error(self, capsys, tmp_path):
        params = self._write_params(tmp_path)
        code, out, err = run(["simulate", "--params", str(params), "--count",
                              "3", "--seed", "-1"], capsys)
        assert code == cli.EXIT_INPUT
        assert out == ""
        assert strict_json(err)["error"]["code"] == "PRECONDITION"

    def test_seed_defaults_to_zero(self, capsys, tmp_path):
        params = self._write_params(tmp_path)
        outputs = []
        for seed_args in ([], ["--seed", "0"]):
            out = tmp_path / f"seed{len(seed_args)}.csv"
            code, _, _ = run(["simulate", "--params", str(params), "--count",
                              "50", "--output", str(out)] + seed_args, capsys)
            assert code == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

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
        assert payload["version"] == homoment.__version__
        est = payload["estimates"][0]
        weights = sorted(est["weights"])
        assert weights == pytest.approx([0.3, 0.7], abs=0.05)
        means = sorted(m[0] for m in est["means"])
        assert means == pytest.approx([-3.0 / 7.0, 1.0], abs=0.15)

    def test_swapped_columns_swap_the_fit(self, capsys, tmp_path):
        # the same weights, each mean with its coordinates swapped, and
        # the other pivot
        data = models.sample_mixture(
            models.HomoscedasticParams(**self.PARAMS), 20000, seed=7)
        fits = []
        for name, sample in (("data.csv", data),
                             ("swapped.csv", data[:, ::-1])):
            path = tmp_path / name
            np.savetxt(path, sample, fmt="%.17g", delimiter=",")
            code, out, _ = run(["fit2", "--input", str(path)], capsys)
            assert code == 0
            fits.append(strict_json(out)["estimates"][0])
        est, swapped = fits
        assert swapped["weights"] == pytest.approx(est["weights"], rel=1e-12)
        for mean, other in zip(est["means"], swapped["means"]):
            assert other[::-1] == pytest.approx(mean, rel=1e-12)
        assert swapped["diagnostics"]["pivot"] == \
            1 - est["diagnostics"]["pivot"]

    def test_small_units_fit_as_unit_scale(self, capsys, tmp_path):
        # the same sample in units 1e4 times smaller exited 3 with
        # SYMMETRIC_MIXTURE: the pivot tolerance was absolute below unit
        # covariance
        data = models.sample_mixture(models.HomoscedasticParams(
            means=[[1.0, 0.0], [-0.43, 0.0]], weights=[0.3, 0.7],
            cov=[[1.0, 0.0], [0.0, 1.0]]), 20000, seed=3)
        fits = []
        for t in (1.0, 1e-4):
            path = tmp_path / f"scaled{t}.csv"
            np.savetxt(path, data * t, fmt="%.17g", delimiter=",")
            code, out, _ = run(["fit2", "--order", "4", "--input", str(path)],
                               capsys)
            assert code == 0, out
            fits.append(strict_json(out)["estimates"][0])
        est, small = fits
        assert small["weights"] == pytest.approx(est["weights"], rel=1e-12)
        for mean, other in zip(est["means"], small["means"]):
            assert [x / 1e-4 for x in other] == pytest.approx(mean, rel=1e-9)

    def test_noise_column_in_any_unit_does_not_pivot(self, capsys, tmp_path):
        # column 0 separates nothing; scaled by 10 or more it took the
        # pivot by its raw third cumulant, and the fit exited 0 with
        # weight 2.1e-5
        data = models.sample_mixture(models.HomoscedasticParams(
            means=[[0.0, 0.0], [0.0, 3.0]], weights=[0.3, 0.7],
            cov=[[1.0, 0.0], [0.0, 1.0]]), 100_000, seed=1)
        for t in (1.0, 10.0, 100.0, 1e6):
            path = tmp_path / f"scaled{t}.csv"
            np.savetxt(path, data * [t, 1.0], fmt="%.17g", delimiter=",")
            code, out, _ = run(["fit2", "--order", "4", "--input", str(path)],
                               capsys)
            assert code == 0, out
            est, = strict_json(out)["estimates"]
            assert est["diagnostics"]["pivot"] == 1
            assert est["weights"][0] == pytest.approx(0.2978848, abs=1e-7), t

    def test_order_four_returns_pair(self, capsys, tmp_path):
        params = self._write_params(tmp_path)
        data = tmp_path / "data.csv"
        run(["simulate", "--params", str(params), "--count", "20000",
             "--seed", "3", "--output", str(data)], capsys)
        code, out, _ = run(["fit2", "--input", str(data), "--order", "4"],
                           capsys)
        assert code == 0
        est, = json.loads(out)["estimates"]
        assert est["weights"][0] <= est["weights"][1]

    @pytest.mark.parametrize("order", ["3", "6", "0"])
    def test_order_refused_before_the_csv(self, tmp_path, order):
        # the library's one order rule, before the missing file is read
        code, out, err = run_captured(["fit2", "--order", order, "--input",
                                       str(tmp_path / "missing.csv")])
        assert (code, out) == (cli.EXIT_INPUT, "")
        assert strict_json(err)["error"] == {
            "code": "PRECONDITION", "message": "order must be 4 or 5"}

    @pytest.mark.parametrize("params,order,digest", [
        ("readme", "4",
         "a2d1276c8540f78293f67bbc4bf8effa6b5f5ba315bb0e01eedbd13e8cf50a3b"),
        ("readme", "5",
         "c598eb3072f2f539c3a120527feb0b2654338c4fe8bca1b124e497f4cfdb89c4"),
        ("mixture_3d", "4",
         "963b888417635bd3d77fdc86ce6edb8fdd7335f1729e99c4787766bf31fbeb26"),
    ], ids=["readme-4", "readme-5", "mixture_3d-4"])
    def test_output_is_pinned(self, capsys, tmp_path, params, order, digest):
        # byte-stable stdout of the cumulant path: the README 2-D mixture
        # and the benchmark's 3-D one, 20k rows at seed 7
        spec = {"readme": {
            "means": [[1.0, 0.0], [-0.43, 0.0]], "weights": [0.3, 0.7],
            "cov": [[1.0, 0.0], [0.0, 1.0]]}, "mixture_3d": {
            "means": [[1.2, -0.8, 0.5], [-0.6, 0.4, -0.25]],
            "weights": [0.35, 0.65],
            "cov": [[1.0, 0.3, 0.0], [0.3, 0.8, 0.1], [0.0, 0.1, 0.6]]}}
        path, data = tmp_path / "params.json", tmp_path / "sample.csv"
        path.write_text(json.dumps(spec[params]))
        run(["simulate", "--params", str(path), "--count", "20000",
             "--seed", "7", "--output", str(data)], capsys)
        code, out, _ = run(["fit2", "--order", order, "--input", str(data)],
                           capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

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
        ("\n1,2\n3,4\n", [[1, 2], [3, 4]]),
        ('"1\n",2\n3,4\n', "INPUT_PARSE"),
    ], ids=["blank-lines", "comma-space-lines", "spaces-crlf",
            "quoted-number", "quoted-header", "ragged", "trailing-comma",
            "hash-note", "header-only", "nan", "overflow", "byte-order-mark",
            "blank-first-line-cell", "first-line-note", "mixed-first-line",
            "empty-first-line", "quote-across-lines"])
    def test_csv_contract(self, capsys, tmp_path, text, expected):
        data = tmp_path / "data.csv"
        data.write_bytes(text.encode())
        if isinstance(expected, str):
            with warnings.catch_warnings():
                # loadtxt warns on a file without data rows
                warnings.simplefilter("error")
                code, out, err = run(["fit2", "--input", str(data)], capsys)
            assert (code, out) == (cli.EXIT_INPUT, "")
            # nothing on stderr beside the error JSON
            assert err.count("\n") == 1
            assert strict_json(err)["error"]["code"] == expected
        else:
            rows = np.asarray(cli.read_csv_matrix(str(data)), dtype=float)
            assert rows.tolist() == expected

    @pytest.mark.parametrize("suffix,compress", [
        (".gz", gzip.compress), (".bz2", bz2.compress), (".xz", lzma.compress),
        (".lzma", functools.partial(lzma.compress, format=lzma.FORMAT_ALONE)),
    ], ids=[".gz", ".bz2", ".xz", ".lzma"])
    def test_compressed_name_read_as_text(self, capsys, tmp_path, suffix,
                                          compress):
        # given such a name numpy would decompress the file
        data = tmp_path / ("data.csv" + suffix)
        data.write_text("x,y\n1,2\n3,4\n")
        assert cli.read_csv_matrix(str(data)).tolist() == [[1, 2], [3, 4]]
        data.write_bytes(compress(b"1,2\n3,4\n"))
        code, _, err = run(["fit2", "--input", str(data)], capsys)
        assert code == cli.EXIT_INPUT
        assert strict_json(err)["error"]["code"] == "INPUT_PARSE"

    @pytest.mark.parametrize("text", ["1,2\n3,4\n", "x,y\r\n1,2\r\n3,4\r\n",
                                      "\ufeff\n\n1,2\n\n3,4"])
    def test_regular_file_skips_line_filter(self, monkeypatch, tmp_path,
                                            text):
        # a header, a blank first line and empty lines need no line list
        def no_filter(path):
            raise AssertionError("line filter used")

        monkeypatch.setattr(cli, "_read_filtered_lines", no_filter)
        data = tmp_path / "data.csv"
        data.write_bytes(text.encode())
        assert cli.read_csv_matrix(str(data)).tolist() == [[1, 2], [3, 4]]

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(["fit2", "--input", str(tmp_path / "none.csv")],
                           capsys)
        assert code == cli.EXIT_INPUT
        assert strict_json(err)["error"]["code"] == "INPUT_IO"

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_named_pipe_read_once(self, tmp_path):
        # a pipe is not a regular file: its bytes can be read only once
        fifo = tmp_path / "rows.csv"
        os.mkfifo(fifo)
        rows = "".join(f"{i},{2 * i}\n" for i in range(5000))
        read = []
        threads = [
            threading.Thread(target=fifo.write_text, args=(rows,),
                             daemon=True),
            threading.Thread(target=lambda: read.append(
                cli.read_csv_matrix(str(fifo))), daemon=True)]
        for thread in threads:
            thread.start()
        for thread in threads:
            # a second open of the pipe would wait for a writer forever
            thread.join(timeout=30)
            assert not thread.is_alive()
        assert read[0].tolist() == [[i, 2 * i] for i in range(5000)]


def line_filter_reader(path):
    """The CSV reader before numpy parsed files directly: every line of
    the file in a list, blank and comma-only lines dropped, then
    ``np.loadtxt`` over the list, with a data line holding an odd number
    of '"' refused first.  The reference for ``cli.read_csv_matrix``."""
    try:
        with open(path, encoding="utf-8-sig") as handle:
            lines = [line for line in handle if line.strip(" ,\t\r\n")]
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}", code="INPUT_IO")
    except UnicodeDecodeError as exc:
        raise InputError(f"cannot parse {path}: not UTF-8 text ({exc})",
                         code="INPUT_PARSE")

    def is_number(cell):
        try:
            float(cell)
        except ValueError:
            return False
        return True

    if lines:
        cells = [cell.strip().strip('"') for cell in lines[0].split(",")]
        if not any(is_number(cell) for cell in cells if cell):
            lines = lines[1:]
    if not lines:
        raise InputError(f"no data rows in {path}", code="INPUT_EMPTY")
    if any(line.count('"') % 2 for line in lines):
        raise InputError(f"cannot parse {path}: a quoted cell does not "
                         "close on its line", code="INPUT_PARSE")
    try:
        return np.loadtxt(lines, delimiter=",", quotechar='"', comments=None,
                          ndmin=2)
    except ValueError as exc:
        raise InputError(f"cannot parse {path}: {exc}", code="INPUT_PARSE")


NUMBER = st.from_regex(r"-?[0-9]{1,3}(\.[0-9]{0,2})?(e-?[0-9])?",
                       fullmatch=True)
BLANK_LINE = st.sampled_from(["", " ", "\t", ",", " , ", ",,", "\t,"])


@st.composite
def csv_texts(draw):
    """Small CSV texts, mostly well formed: a column count per text,
    numbers padded with spaces, tabs or quotes, now and then a cell or a
    line of the bare alphabet, blank and comma-only lines anywhere."""
    ncols = draw(st.integers(1, 3))
    pad = st.sampled_from(["", "", " ", "\t", '"'])

    def cell():
        if draw(st.integers(0, 9)) == 0:
            return draw(st.text('0123456789.-e ,\t"', max_size=4))
        left, right = draw(pad), draw(pad)
        if '"' in (left, right):
            left = right = '"'
        return left + draw(NUMBER) + right

    lines = []
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(BLANK_LINE))
        else:
            ragged = draw(st.integers(0, 9)) == 0
            width = draw(st.integers(1, 4)) if ragged else ncols
            lines.append(",".join(cell() for _ in range(width)))
    header = draw(st.sampled_from([None, ",".join("xyz"[:ncols]),
                                   ",".join(['"c"'] * ncols)]))
    if header is not None:
        lines.insert(0, header)
    if draw(st.booleans()):
        lines.insert(0, draw(BLANK_LINE))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    text = end.join(lines) + draw(st.sampled_from(["", end]))
    return draw(st.sampled_from(["", "\ufeff"])) + text


class TestCsvReader:
    @staticmethod
    def outcome(reader, path):
        try:
            data = reader(path)
        except InputError as exc:
            return exc.code, str(exc)
        return data.dtype, data.shape, data.tobytes()

    @settings(deadline=None, max_examples=300)
    @given(csv_texts())
    def test_matches_line_filter_reader(self, text):
        # the same array, or the same error code and message
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "data.csv")
            with open(path, "wb") as handle:
                handle.write(text.encode())
            assert (self.outcome(cli.read_csv_matrix, path)
                    == self.outcome(line_filter_reader, path))


class TestFit1d:
    def test_single_gaussian_from_moments(self, capsys):
        code, out, _ = run(["fit1d", "--k", "1", "--moments", "1,3"], capsys)
        assert code == 0
        assert json.loads(out)["version"] == homoment.__version__
        est = json.loads(out)["estimate"]
        assert est["means"][0][0] == pytest.approx(1.0, abs=1e-9)
        assert est["cov"][0][0] == pytest.approx(2.0, abs=1e-9)

    def test_requires_one_source(self, capsys):
        code, _, err = run(["fit1d", "--k", "1"], capsys)
        assert code == cli.EXIT_INPUT

    def test_both_sources_rejected(self, capsys, tmp_path):
        data = tmp_path / "sample.csv"
        data.write_text("1.0\n2.0\n")
        code, out, err = run(["fit1d", "--k", "1", "--moments", "0,1",
                              "--input", str(data)], capsys)
        assert code == cli.EXIT_INPUT
        assert out == ""
        error = strict_json(err)["error"]
        assert error["code"] == "INPUT"
        assert "--moments" in error["message"]
        assert "--input" in error["message"]

    def test_insufficient_order(self):
        # k = 3 takes six moments
        assert_rejected(["fit1d", "--k", "3", "--moments", "0,1,0,3"],
                        error_code="INSUFFICIENT_ORDER")

    def test_negative_variance_exit_code(self, capsys):
        code, out, err = run(["fit1d", "--k", "1", "--moments", "0,-1"],
                             capsys)
        assert code == cli.EXIT_MODEL
        assert out == ""
        assert strict_json(err)["error"] == {
            "code": "MODEL_MISMATCH",
            "message": "variance polynomial has no nonnegative real root"}

    def test_constant_input_far_from_zero(self, capsys, tmp_path):
        # about the float mean the square of its rounding overflows, which
        # was INPUT_RANGE: a constant column is a point mass at its value
        data = tmp_path / "constant.csv"
        data.write_text("1e250\n" * 1000)
        code, out, _ = run(["fit1d", "--k", "1", "--input", str(data)],
                           capsys)
        assert code == 0
        est = json.loads(out)["estimate"]
        assert (est["means"], est["cov"]) == ([[1e250]], [[0.0]])

    def test_multicolumn_csv_rejected(self, capsys, tmp_path):
        data = tmp_path / "wide.csv"
        data.write_text("1.0,2.0\n3.0,4.0\n")
        code, out, err = run(["fit1d", "--k", "1", "--input", str(data)],
                             capsys)
        assert code == cli.EXIT_INPUT
        assert out == ""
        assert strict_json(err)["error"]["code"] == "DIMENSION_MISMATCH"

    @pytest.mark.parametrize("k,error", [
        ("0", {"code": "PRECONDITION",
               "message": "k must be at least 1, got 0"}),
        ("-1", {"code": "PRECONDITION",
                "message": "k must be at least 1, got -1"}),
        ("two", {"code": "INPUT", "message": "homoment fit1d: argument "
                 "--k: invalid int value: 'two'"})],
        ids=["0", "-1", "two"])
    def test_non_positive_k_is_input_error(self, capsys, k, error):
        # argparse reads the integer, and the library's rule for k refuses
        # one below 1
        code, out, err = run(["fit1d", "--k", k, "--moments", "1,3"], capsys)
        assert code == cli.EXIT_INPUT
        assert out == ""
        assert strict_json(err)["error"] == error

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

    def test_oversized_pencil_refused_before_the_csv_is_read(
            self, capsys, tmp_path, monkeypatch):
        # k = 10**8 asks for 2 * 10**8 sample moments, a pencil that
        # --moments refuses at once; --input read the CSV and built a
        # 2 * 10**8-order index table first
        data = tmp_path / "tiny.csv"
        data.write_text("0.1\n0.5\n-0.3\n1.2\n")

        def unread(path):
            raise AssertionError("CSV read for an oversized pencil")

        monkeypatch.setattr(cli, "read_csv_matrix", unread)
        start = time.perf_counter()
        code, out, err = run(["fit1d", "--k", str(10 ** 8), "--input",
                              str(data)], capsys)
        assert time.perf_counter() - start < 1.0
        assert code == cli.EXIT_INPUT
        assert out == ""
        error = strict_json(err)["error"]
        assert error["code"] == "PRECONDITION"
        assert error["message"] == (
            "the pencil of 200000000 moments at k=100000000 is too large to "
            "evaluate (1 minor of order 100000001)")

    def test_order_past_the_size_rule_refused_before_the_pass(
            self, capsys, tmp_path, monkeypatch):
        # k = 29 takes 58 sample moments, one order past the size rule at
        # one column; the pass is never run
        data = tmp_path / "tiny.csv"
        data.write_text("0.1\n0.5\n-0.3\n1.2\n")

        def unrun(*args):
            raise AssertionError("moment pass run past the size rule")

        monkeypatch.setattr(ts, "moment_sums", unrun)
        code, out, err = run(["fit1d", "--k", "29", "--input", str(data)],
                             capsys)
        assert code == cli.EXIT_INPUT
        assert out == ""
        assert strict_json(err)["error"] == {
            "code": "DIMENSION_MISMATCH",
            "message": "max(degree * C(2 nvars + degree, degree), nvars "
                       "* C(nvars + degree, degree)) must be at most "
                       "101745, got nvars=1, degree=58"}

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

    def test_negative_weight_is_refused(self):
        # a negative fourth moment: the fit exited 0 with weights 1.5 and
        # -0.5
        code, out, err = run_captured(["fit1d", "--k", "2",
                                       "--moments=-0.5,0.5,-2,-0.5"])
        assert (code, out) == (cli.EXIT_MODEL, "")
        error = strict_json(err)["error"]
        assert error["code"] == "MODEL_MISMATCH"
        head, weight = error["message"].rsplit(" ", 1)
        assert head == "the fit is no mixture: quadrature weight 1 is"
        assert float(weight) == pytest.approx(-0.5, abs=1e-9)

    @pytest.mark.parametrize("args,digest", [
        ("--k 2 --moments 1.05,1.85,2.77,5.00",
         "1022841b7af9582f410fa8f2cce67c8f40f616c74f93102ca63402db794f6458"),
        ("--k 1 --moments=-1,3",
         "74b07765ac352e5591ac5480551e6e4f3e89bf366fd060ae4bd0b74206fca737"),
        ("--k 3 --moments 0.5,2.1,2.3,9.0,12.0,50.0",
         "12a5b2ca2ca46214d50e031a1ffa689a86413a2ac757130d86e3ba0ed19c1aa7"),
        ("--k 2 --input {csv}",
         "beb1ed592a9ebfa8bce150d89573d8705efadced9bd71437b3020954d4e9a973"),
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


def exact_decimal(x):
    """The decimal string of a rational whose denominator divides a power
    of ten."""
    x = Fraction(x)
    places = 0
    while 10 ** places % x.denominator:
        places += 1
    digits = str(abs(x.numerator) * 10 ** places // x.denominator)
    digits = digits.rjust(places + 1, "0")
    whole, frac = digits[:len(digits) - places], digits[len(digits) - places:]
    return ("-" if x < 0 else "") + whole + ("." + frac if frac else "")


# weights, atom offsets and variance of the sweep's mixtures
SWEEP_MIXTURES = {
    2: ([Fraction(3, 10), Fraction(7, 10)], [0, 2], Fraction(1, 4)),
    3: ([Fraction(1, 5), Fraction(1, 2), Fraction(3, 10)], [0, 2, 5],
        Fraction(3, 10)),
}


class TestShiftScaleSweep:
    """Exact decimal moments of a mixture moved to c and scaled by t: the
    count and the fit do not depend on c or t.  Before the normal form,
    rank-test counted right in 2 of these 18 cases and fit1d fitted 3."""

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("c", [0, 10 ** 3, 10 ** 6])
    @pytest.mark.parametrize("t", ["0.001", "1", "1000"])
    def test_count_and_fit(self, capsys, k, c, t):
        weights, offsets, variance = SWEEP_MIXTURES[k]
        t = Fraction(t)
        atoms = [t * (c + offset) for offset in offsets]
        params = models.HomoscedasticParams(
            means=[[a] for a in atoms], weights=weights,
            cov=[[variance * t * t]])
        m = [exact_decimal(x) for x in univariate_moments(params, 2 * k + 1)]
        code, out, _ = run(["rank-test", "--kmax", str(k),
                            "--moments=" + ",".join(m)], capsys)
        assert code == 0
        assert strict_json(out)["estimated_components"] == k
        code, out, _ = run(["fit1d", "--k", str(k),
                            "--moments=" + ",".join(m[:2 * k])], capsys)
        assert code == 0
        est = strict_json(out)["estimate"]
        order = sorted(range(k), key=lambda i: est["means"][i][0])
        t = float(t)
        assert [est["means"][i][0] for i in order] == pytest.approx(
            [float(a) for a in atoms], rel=0, abs=1e-9 * t)
        assert [est["weights"][i] for i in order] == pytest.approx(
            [float(w) for w in weights], rel=0, abs=1e-9)
        assert est["cov"][0][0] == pytest.approx(
            float(variance) * t * t, rel=0, abs=1e-9 * t * t)


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
        assert json.loads(out)["version"] == homoment.__version__

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

    # every pencil uses all the moments: 81 cells at k = 3 would evaluate
    # 1.5M minors (28 GiB), and the 25 moments of N(0, 1) at k = 6..9
    # stacks of 1.2-2.6 GiB
    @pytest.mark.parametrize("kmax,moments", [
        (3, ",".join(["0,1"] * 40 + ["0"])),
        (12, ",".join(str(0 if j % 2 else math.prod(range(j - 1, 0, -2)))
                      for j in range(1, 26)))],
        ids=["81-moments-kmax-3", "normal-25-kmax-12"])
    def test_oversized_pencil_refused(self, capsys, kmax, moments):
        start = time.perf_counter()
        code, out, err = run(["rank-test", "--kmax", str(kmax), "--moments",
                              moments], capsys)
        assert time.perf_counter() - start < 1.0
        assert code == cli.EXIT_INPUT
        assert out == ""
        error = strict_json(err)["error"]
        assert error["code"] == "PRECONDITION"
        assert "minors of order" in error["message"]

    def test_zero_kmax_is_input_error(self, capsys):
        code, out, err = run(["rank-test", "--kmax", "0", "--moments",
                              "1,2,3"], capsys)
        assert code == cli.EXIT_INPUT
        assert out == ""
        assert strict_json(err)["error"] == {
            "code": "PRECONDITION",
            "message": "k_max must be at least 1, got 0"}

    @pytest.mark.parametrize("threshold,error", [
        *[(text, {"code": "PRECONDITION", "message": "threshold must be "
                  f"finite and above 0, got {float(text)}"})
          for text in ("nan", "inf", "0", "-1")],
        ("abc", {"code": "INPUT", "message": "homoment rank-test: argument "
                 "--threshold: invalid float value: 'abc'"})],
        ids=["nan", "inf", "0", "-1", "abc"])
    def test_non_positive_threshold_is_input_error(self, capsys, threshold,
                                                   error):
        # argparse reads the float, and secant_membership refuses one
        # that is not finite or not above 0
        code, out, err = run(["rank-test", "--kmax", "1", "--moments",
                              "1,3,7", "--threshold", threshold], capsys)
        assert code == cli.EXIT_INPUT
        assert out == ""
        assert strict_json(err)["error"] == error

    def test_threshold_accepted(self, capsys):
        code, out, _ = run(["rank-test", "--kmax", "1", "--moments",
                            "1,3,7", "--threshold", "1e-6"], capsys)
        assert code == 0
        payload = strict_json(out)
        assert payload["estimated_components"] == 1
        assert payload["verdicts"][0]["threshold"] == 1e-6


@pytest.mark.parametrize("command,message", [
    ("fit1d --k 0 --moments 1,3", "k must be at least 1, got 0"),
    ("rank-test --kmax 0 --moments 1,2,3",
     "k_max must be at least 1, got 0"),
    ("rank-test --kmax 1 --moments 1,3,7 --threshold 0",
     "threshold must be finite and above 0, got 0.0"),
    ("simulate --params {params} --count 0",
     "count must be at least 1, got 0")],
    ids=["fit1d-k-0", "rank-test-kmax-0", "rank-test-threshold-0",
         "simulate-count-0"])
def test_bounds_are_the_library_rule(capsys, tmp_path, command, message):
    # the CLI parses numbers only; each bound is refused by the library
    # function that states it, in the same code and words
    params = tmp_path / "params.json"
    params.write_text(json.dumps(TestSimulateAndFit2.PARAMS))
    code, out, err = run(command.format(params=params).split(), capsys)
    assert code == cli.EXIT_INPUT
    assert out == ""
    assert strict_json(err)["error"] == {"code": "PRECONDITION",
                                         "message": message}


needs_dev_full = pytest.mark.skipif(not os.path.exists("/dev/full"),
                                    reason="no /dev/full on this system")


@pytest.mark.parametrize("target", [
    "missing/out.txt", ".", pytest.param("/dev/full", marks=needs_dev_full)])
@pytest.mark.parametrize("command", [
    "simulate --params {params} --count 5", "fit1d --k 1 --moments 0,1",
    "fit2 --input {csv}", "rank-test --kmax 1 --moments 0,1,0",
    "defect-table --n 1 --k 1"])
def test_unwritable_output(tmp_path, command, target):
    # a missing directory, a directory in place of a file, or a full
    # device, which opens and fails the buffered write at the latest when
    # the file is closed
    params = tmp_path / "params.json"
    params.write_text(json.dumps(TestSimulateAndFit2.PARAMS))
    csv = tmp_path / "data.csv"
    csv.write_text("".join(f"{x},{x * x % 7}\n" for x in range(40)))
    args = command.format(params=params, csv=csv).split()
    assert_rejected(args + ["--output", str(tmp_path / target)],
                    error_code="INPUT_IO")


def cli_process(args, tmp_path, **popen_args):
    """The command line in a new interpreter, from this source tree."""
    params = tmp_path / "params.json"
    params.write_text(json.dumps(TestSimulateAndFit2.PARAMS))
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(homoment.__file__)))
    return subprocess.Popen(
        [sys.executable, "-m", "homoment.cli"] + args.format(
            params=params).split(), env=env, stderr=subprocess.PIPE,
        text=True, **popen_args)


def assert_write_failed(stderr, returncode):
    assert returncode == cli.EXIT_INPUT
    assert "Traceback" not in stderr and "Exception ignored" not in stderr
    assert strict_json(stderr)["error"]["code"] == "INPUT_IO"


class TestStdoutFailure:
    """A write to stdout that fails is reported once, as INPUT_IO, and the
    interpreter's shutdown flush adds nothing."""

    @needs_dev_full
    @pytest.mark.parametrize("command", [
        "fit1d --k 1 --moments 0,1",
        "simulate --params {params} --count 100000",
        # argparse writes help itself, drops a failed write and exits 0
        "--help", "fit2 --help"])
    def test_full_device(self, tmp_path, command):
        with open("/dev/full", "w") as full, \
                cli_process(command, tmp_path, stdout=full) as proc:
            _, err = proc.communicate(timeout=120)
        assert_write_failed(err, proc.returncode)

    def test_help_to_pipe(self, tmp_path):
        with cli_process("--help", tmp_path, stdout=subprocess.PIPE) as proc:
            out, err = proc.communicate(timeout=120)
        assert proc.returncode == cli.EXIT_OK
        assert err == ""
        assert out == cli.build_parser().format_help()

    def test_closed_pipe(self, tmp_path):
        # as in `simulate --count 100000 | head -1`: the rows fill the
        # pipe long before the last one is written
        with cli_process("simulate --params {params} --count 100000",
                         tmp_path, stdout=subprocess.PIPE) as proc:
            first = proc.stdout.readline()
            proc.stdout.close()
            err = proc.stderr.read()
        assert len(first.split(",")) == 2
        assert_write_failed(err, proc.returncode)


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
    ], ids=["rank-test", "fit1d"])
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


class TestMomentParse:
    @settings(deadline=None)
    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_float_spelling_read_as_exact_decimal(self, x):
        text = repr(x)
        value, = cli._parse_moments(text)
        assert value == Fraction(text) == Fraction(decimal.Decimal(text))
        assert float(value) == x

    @settings(deadline=None)
    @given(NON_FINITE)
    def test_non_finite_spelling_rejected(self, text):
        with pytest.raises(InputError) as caught:
            cli._parse_moments(text)
        assert caught.value.code == "INPUT_PARSE"

    @settings(deadline=None)
    @given(st.text(alphabet="0123456789_.eE+-naifINF \t\u0663", max_size=10))
    def test_same_spellings_as_float(self, text):
        # accepted exactly when float reads it as a finite number, and
        # then equal to that float once rounded
        try:
            expected = float(text)
        except ValueError:
            expected = None
        if expected is None or not math.isfinite(expected):
            with pytest.raises(InputError):
                cli._parse_moments(text)
            return
        value, = cli._parse_moments(text)
        assert float(value) == expected

    @pytest.mark.parametrize("text,value", [
        ("1_000", 1000), (" 0.1 ", Fraction(1, 10)),
        ("1_0.2_5e-1_0", Fraction(1025, 10 ** 12)), (".5", Fraction(1, 2)),
        ("5.", 5), ("-0.0", 0), ("1e-400", 0), ("\u0661\u0662", 12),
        ("0e999999999", 0), ("1e-999999999", 0)], ids=str)
    def test_spellings(self, text, value):
        # underscores are read on Python 3.10, whose Fraction refuses them
        assert cli._parse_moments(text) == [value]

    @pytest.mark.parametrize("args,code", [
        ("fit1d --k 1 --moments 1,,3", "INPUT"),
        ("fit1d --k 1 --moments ,1,2", "INPUT"),
        ("rank-test --kmax 1 --moments=-1,,2,3", "INPUT"),
        ("rank-test --kmax 1 --moments=1,2,3,", "INPUT"),
        ("fit1d --k 1 --moments=", "INPUT_EMPTY")], ids=str)
    def test_empty_cell_refused(self, args, code):
        # refused, not dropped: that would move each later moment down
        # one order
        assert_rejected(args.split(), code)


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

    def test_fit2_moment_overflow(self, tmp_path):
        # the column means are finite but the centred squares are not:
        # out of float range (exit 2), not a model mismatch (exit 3)
        data = tmp_path / "huge2.csv"
        data.write_text("1e300,1\n-1e300,2\n1e300,5\n")
        for order in ("4", "5"):
            assert_rejected(["fit2", "--order", order, "--input", str(data)],
                            error_code="INPUT_RANGE")

