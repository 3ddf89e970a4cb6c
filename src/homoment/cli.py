"""Command-line interface.

Subcommands:

* ``defect-table``  classify homoscedastic secants over (n, k, d) ranges,
  one row after another in this process, each from its own seeded stream
* ``fit2``          two-component recovery from a CSV of observations
* ``fit1d``         univariate k-component recovery from moments or a CSV
* ``rank-test``     secant membership ladder / component-count estimate
* ``simulate``      draw reproducible samples from given parameters

All JSON output, error JSON included, carries ``"schema": "homoment/1"``
and the package ``"version"``.  Exit codes: 0 success, 2 unusable input
(``INPUT_IO`` for a failed output write, help text included), 3 input
inconsistent with the requested model, 4 internal check failure
(``defect-table --check`` mismatch).
"""

import argparse
import contextlib
import functools
import json
import math
import os
import sys
import warnings
from fractions import Fraction

import numpy as np

from . import __version__, estimate, geometry, models, ranktest
from .errors import HomomentError, InputError, ModelMismatchError

SCHEMA = "homoment/1"

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_MODEL = 3
EXIT_CHECK = 4

TABLE_COLUMNS = ("n", "k", "d", "par", "N", "exp", "dim", "delta", "Delta")


def _parse_range(text, name):
    """``'3'`` or ``'1..7'`` into an inclusive range, never listed: a
    range far past the envelope is refused at its first bad cell."""
    try:
        lo, hi = text.split("..", 1) if ".." in text else (text, text)
        lo, hi = int(lo), int(hi)
        if hi < lo:
            raise ValueError
        return range(lo, hi + 1)
    except ValueError:
        raise InputError(f"--{name} expects an integer or lo..hi, got {text!r}")


def _parse_moments(text):
    """The cells ``float`` reads as finite numbers (an empty one it does
    not), as the exact decimals they spell (``Fraction`` takes digit-group
    underscores only from Python 3.11).  A cell that underflows to zero
    is read as 0, so a huge exponent such as ``0e999999999`` is never
    expanded."""
    if not text.strip():
        raise InputError("empty moment vector", code="INPUT_EMPTY")
    cells = text.split(",")
    try:
        values = [float(x) for x in cells]
    except ValueError:
        raise InputError(f"--moments expects comma-separated numbers, got {text!r}")
    if not all(math.isfinite(v) for v in values):
        raise InputError(f"--moments must be finite, got {text!r}",
                         code="INPUT_PARSE")
    return [Fraction(x.strip().replace("_", "")) if v else Fraction(0)
            for x, v in zip(cells, values)]


def _is_number(cell):
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _is_header(line):
    """True when none of the line's non-empty cells is a number."""
    cells = [cell.strip().strip('"') for cell in line.split(",")]
    return not any(_is_number(cell) for cell in cells if cell)


# no quotechar: a '"' in a data line raises, and the line filter takes over
_parse_csv = functools.partial(np.loadtxt, delimiter=",", comments=None,
                               ndmin=2)

# names numpy would decompress
_COMPRESSED_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma")


def read_csv_matrix(path):
    """Observations from a CSV file as a 2-D float array.

    The file is UTF-8 text, with or without a byte-order mark.  Lines
    holding only spaces, tabs and commas are skipped, and the first line
    is skipped as a header only when none of its non-empty cells is a
    number.  A quoted cell closes on its own line: a data line with an
    odd number of '"' is a parse error.

    numpy parses a regular file straight from disk, in chunks, with no
    quote handling.  It skips empty lines and raises on any other line
    of spaces, tabs and commas and on any '"' past the header, and a
    blank first line counts as a header, so a file that parses there
    gives the rows the line filter gives.  A file that does not, an
    empty result, a name ending in .gz, .bz2, .xz or .lzma, and anything
    but a regular file (a pipe can be read only once) take the line
    filter, which returns the array or raises the error.
    """
    if os.path.isfile(path) and not str(path).endswith(_COMPRESSED_SUFFIXES):
        try:
            with open(path, encoding="utf-8-sig") as handle:
                skip = int(_is_header(handle.readline()))
            with warnings.catch_warnings():
                # "input contained no data": the line filter reports it
                warnings.simplefilter("ignore", UserWarning)
                # absolute, so that numpy never takes the name for a URL
                data = _parse_csv(os.path.abspath(path), skiprows=skip,
                                  encoding="utf-8-sig")
            if data.size:
                return data
        except (ValueError, OSError):
            pass
    return _read_filtered_lines(path)


def _read_filtered_lines(path):
    try:
        with open(path, encoding="utf-8-sig") as handle:
            lines = [line for line in handle if line.strip(" ,\t\r\n")]
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}", code="INPUT_IO")
    except UnicodeDecodeError as exc:
        raise InputError(f"cannot parse {path}: not UTF-8 text ({exc})",
                         code="INPUT_PARSE")
    if lines and _is_header(lines[0]):
        lines = lines[1:]
    if not lines:
        raise InputError(f"no data rows in {path}", code="INPUT_EMPTY")
    if any(line.count('"') % 2 for line in lines):
        # numpy would carry the open quote onto the next line
        raise InputError(f"cannot parse {path}: a quoted cell does not "
                         "close on its line", code="INPUT_PARSE")
    try:
        return _parse_csv(lines, quotechar='"')
    except ValueError as exc:
        raise InputError(f"cannot parse {path}: {exc}", code="INPUT_PARSE")


@contextlib.contextmanager
def _writing(output):
    """A text handle on the file ``output``, or on stdout when it is None.

    An ``OSError`` while opening, writing or closing (a full disk, a
    closed pipe) is ``INPUT_IO``.  Stdout is flushed here, not at
    interpreter exit; once a write to it fails, its descriptor is pointed
    at ``os.devnull``, so the shutdown flush of its buffer fails no more.
    """
    try:
        if output is None:
            yield sys.stdout
            sys.stdout.flush()
        else:
            with open(output, "w", encoding="utf-8") as handle:
                yield handle
    except OSError as exc:
        if output is None:
            output = "stdout"
            # a stream with no descriptor keeps its buffer in memory
            with contextlib.suppress(OSError, ValueError):
                fd = sys.stdout.fileno()
                devnull = os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, fd)
                os.close(devnull)
        raise InputError(f"cannot write {output}: {exc}", code="INPUT_IO")


def _emit(text, output):
    with _writing(output) as handle:
        handle.write(text if text.endswith("\n") else text + "\n")


def _finite_or_null(value):
    """``value`` with every non-finite float replaced by None, so that the
    JSON written is valid (no bare ``NaN`` or ``Infinity``)."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {key: _finite_or_null(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(v) for v in value]
    return value


def _payload(command, **fields):
    """A command's JSON payload: the shared header, then ``fields``."""
    return {"schema": SCHEMA, "version": __version__, "command": command,
            **fields}


def _emit_json(payload, output):
    _emit(json.dumps(_finite_or_null(payload), indent=2, allow_nan=False),
          output)


# ----------------------------------------------------------------------
# defect-table


def _table_cells(ns, ks, ds, seed):
    cells = []
    for n in ns:
        for d in ds:
            # every cell is checked before any row is computed
            cells += [geometry.check_envelope(n, k, d)[:3] for k in
                      ks or geometry.default_k_range(n, d)]
    return [geometry.defect_report(*cell, seed=seed) for cell in cells]


def _check_rows(reports):
    mismatches = []
    for r in reports:
        if r.d != 3:
            continue
        predicted = geometry.predicted_defect_order3(r.n, r.k)
        if predicted != r.defect:
            mismatches.append(f"(n={r.n},k={r.k},d=3): computed defect "
                              f"{r.defect}, classifier {predicted}")
        reference = geometry.order3_reference_row(r.n, r.k)
        if reference is not None and reference != r.as_row():
            mismatches.append(f"(n={r.n},k={r.k},d=3): computed row "
                              f"{r.as_row()}, published {reference}")
    return mismatches


def _format_table(reports):
    rows = [TABLE_COLUMNS] + [tuple(str(v) for v in r.as_row()) for r in reports]
    widths = [max(len(row[i]) for row in rows) for i in range(len(TABLE_COLUMNS))]
    lines = ["  ".join(cell.rjust(w) for cell, w in zip(row, widths))
             for row in rows]
    return "\n".join(lines)


def cmd_defect_table(args):
    ns = _parse_range(args.n, "n")
    ks = _parse_range(args.k, "k") if args.k else None
    ds = _parse_range(args.d, "d")
    reports = _table_cells(ns, ks, ds, args.seed)
    mismatches = _check_rows(reports) if args.check else []
    if args.format == "json":
        payload = _payload("defect-table",
                           rows=[r.as_dict() for r in reports])
        if args.check:
            payload["check"] = {"passed": not mismatches, "mismatches": mismatches}
        _emit_json(payload, args.output)
    elif args.format == "csv":
        lines = [",".join(TABLE_COLUMNS)]
        lines += [",".join(str(v) for v in r.as_row()) for r in reports]
        _emit("\n".join(lines), args.output)
    else:
        text = _format_table(reports)
        if args.check:
            status = "ok" if not mismatches else "MISMATCH"
            text += f"\ncheck: {status} ({len(reports)} rows)"
            text += "".join("\n  " + m for m in mismatches)
        _emit(text, args.output)
    if mismatches:
        print(f"defect-table --check failed: {len(mismatches)} mismatch(es)",
              file=sys.stderr)
        return EXIT_CHECK
    return EXIT_OK


# ----------------------------------------------------------------------
# fitting


def cmd_fit2(args):
    # an order the fit refuses is refused before the CSV is read
    estimate._check_fit_order(args.order)
    data = read_csv_matrix(args.input)
    cumulants = estimate.sample_cumulants(data, args.order)
    result = estimate.fit_two_gaussians(cumulants, order=args.order)
    payload = _payload("fit2", order=args.order, count=len(data),
                       estimates=[result.as_dict()])
    _emit_json(payload, args.output)
    return EXIT_OK


def cmd_fit1d(args):
    if args.moments is not None:
        moments = _parse_moments(args.moments)
    else:
        # a pencil too large to run is refused before the CSV is read
        ranktest._check_pencil(2 * args.k, args.k)
        moments = ranktest.sample_normal_form(read_csv_matrix(args.input),
                                              2 * args.k)
    result = estimate.fit_univariate(moments, args.k)
    payload = _payload("fit1d", k=args.k, estimate=result.as_dict())
    _emit_json(payload, args.output)
    return EXIT_OK


def cmd_rank_test(args):
    moments = _parse_moments(args.moments)
    verdicts = ranktest.component_ladder(moments, args.kmax,
                                         threshold=args.threshold)
    payload = _payload("rank-test", k_max=args.kmax,
                       estimated_components=ranktest.component_count(verdicts),
                       verdicts=[v.as_dict() for v in verdicts])
    _emit_json(payload, args.output)
    return EXIT_OK


def cmd_simulate(args):
    try:
        with open(args.params, encoding="utf-8") as handle:
            spec = json.load(handle)
    except OSError as exc:
        raise InputError(f"cannot read {args.params}: {exc}", code="INPUT_IO")
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON in {args.params}: {exc}",
                         code="INPUT_PARSE")
    params = models.HomoscedasticParams.from_dict(spec)
    draws = models.sample_mixture(params, args.count, args.seed)
    # an open handle: given a name ending in .gz, savetxt writes gzip
    with _writing(args.output) as handle:
        np.savetxt(handle, draws, fmt="%.17g", delimiter=",")
    return EXIT_OK


# ----------------------------------------------------------------------


class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors become input errors: exit 2 with error JSON."""

    def error(self, message):
        raise InputError(f"{self.prog}: {message}")

    def print_help(self, file=None):
        """Help goes to stdout through :func:`_writing`: argparse's own
        write drops an ``OSError``, and ``--help`` then exits 0."""
        _emit(self.format_help(), None)


@functools.lru_cache(maxsize=None)
def build_parser():
    """The argument parser, built once per process: ``parse_args`` keeps
    no state between calls and returns a new namespace each time."""
    parser = _ArgumentParser(
        prog="homoment",
        description="Moment-based analysis and recovery for homoscedastic "
                    "Gaussian mixtures")
    sub = parser.add_subparsers(dest="command", required=True)

    table = sub.add_parser("defect-table",
                           help="dimension/defect classification table")
    table.add_argument("--n", default="1..7", help="dimension range, e.g. 1..7")
    table.add_argument("--k", default=None,
                       help="component range; default covers the published rows")
    table.add_argument("--d", default="3", help="moment order range")
    table.add_argument("--seed", type=int, default=0)
    table.add_argument("--check", action="store_true",
                       help="verify rows against the closed-form classifier "
                            "and the published table")
    table.add_argument("--format", choices=("table", "json", "csv"),
                       default="table")
    table.add_argument("--output", default=None)
    table.set_defaults(func=cmd_defect_table)

    fit2 = sub.add_parser("fit2", help="two-component fit from a CSV sample")
    fit2.add_argument("--input", required=True, help="CSV of observations")
    fit2.add_argument("--order", type=int, default=5)
    fit2.add_argument("--output", default=None)
    fit2.set_defaults(func=cmd_fit2)

    fit1d = sub.add_parser("fit1d", help="univariate k-component fit")
    fit1d.add_argument("--k", type=int, required=True)
    source = fit1d.add_mutually_exclusive_group(required=True)
    source.add_argument("--moments", help="comma-separated m_1..m_2k")
    source.add_argument("--input", help="single-column CSV")
    fit1d.add_argument("--output", default=None)
    fit1d.set_defaults(func=cmd_fit1d)

    rank = sub.add_parser("rank-test", help="secant membership ladder")
    rank.add_argument("--moments", required=True,
                      help="comma-separated m_1..m_d with d >= 2*kmax+1")
    rank.add_argument("--kmax", type=int, required=True)
    rank.add_argument("--threshold", type=float,
                      default=ranktest.DEFAULT_THRESHOLD)
    rank.add_argument("--output", default=None)
    rank.set_defaults(func=cmd_rank_test)

    sim = sub.add_parser("simulate", help="reproducible mixture samples")
    sim.add_argument("--params", required=True,
                     help="JSON with means, weights, cov")
    sim.add_argument("--count", type=int, required=True)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--output", default=None)
    sim.set_defaults(func=cmd_simulate)

    return parser


def _attach_moments(argv):
    """``--moments VALUE`` as ``--moments=VALUE``: argparse reads a separate
    value that starts with '-' and is not a plain number, such as the
    moment vector -1,3,-7, as an option.  A following ``--option`` is
    left alone, so a missing value is still reported as missing."""
    joined = []
    for token in argv:
        if joined and joined[-1] == "--moments" and not token.startswith("--"):
            token = joined.pop() + "=" + token
        joined.append(token)
    return joined


def main(argv=None):
    parser = build_parser()
    try:
        with warnings.catch_warnings():
            # numpy overflow and fit-conditioning warnings would put text
            # beside the error JSON on stderr
            warnings.simplefilter("ignore", RuntimeWarning)
            args = parser.parse_args(
                _attach_moments(sys.argv[1:] if argv is None else argv))
            return args.func(args)
    except HomomentError as exc:
        error = {"code": exc.code, "message": str(exc)}
        print(json.dumps({"schema": SCHEMA, "version": __version__,
                          "error": error}), file=sys.stderr)
        return EXIT_MODEL if isinstance(exc, ModelMismatchError) else EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
