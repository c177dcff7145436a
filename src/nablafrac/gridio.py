"""Grid file I/O and deterministic report serialization.

Grid CSV format: header ``t,value``, one row per integer ``t``, contiguous
and ascending; values are decimals or ``p/q`` rationals.  Rationals round-trip
losslessly as ``p/q`` strings; floats are written with 17 significant digits.
JSON output is rendered with sorted keys and fixed separators so repeated
runs are byte-identical.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from fractions import Fraction
from typing import IO, Union

from . import __version__
from .errors import DomainError, ParameterError, ParseError
from .grid import GridFunction
from .scalars import Backend, Scalar, _backend

__all__ = [
    "format_scalar",
    "parse_scalar",
    "read_grid",
    "read_grid_csv",
    "read_grid_json",
    "render_report",
    "report_to_dict",
    "suite_to_dict",
    "to_json",
    "write_grid_csv",
    "write_grid_json",
    "write_report",
]


def format_scalar(value: Scalar) -> str:
    """Lossless textual form: rationals as ``p/q`` (or a plain integer), floats
    with 17 significant digits."""
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, int):
        return str(value)
    return f"{value:.17g}"


# The text ``format_scalar`` writes for every rational: an ASCII ``p`` or ``p/q``.
_P_OVER_Q = re.compile(r"([-+]?[0-9]+)(?:/([0-9]+))?").fullmatch


def parse_scalar(text: str, backend: Backend = Backend.EXACT) -> Scalar:
    """Parse a decimal or ``p/q`` value into the requested backend.

    ASCII ``p`` and ``p/q`` skip the ``Fraction`` text parser; every other form
    goes to it.  The float value is ``p / q``, correctly rounded, which is what
    ``float(Fraction(text))`` gives."""
    return _parse_scalar(text, _backend(backend))


def _parse_scalar(text: str, backend: Backend) -> Scalar:
    """:func:`parse_scalar` on a checked backend, once per value of the grid readers."""
    text = text.strip()
    lane = _P_OVER_Q(text)
    try:
        if lane is None:
            exact = Fraction(text)
            num, den = exact.numerator, exact.denominator
        else:
            num, den = int(lane[1]), int(lane[2] or 1)
        return num / den if backend is Backend.FLOAT else Fraction(num, den)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"malformed value {text!r}") from exc
    except OverflowError as exc:
        raise ParseError("grid value is out of the float range") from exc


def _finite_float(value) -> float:
    try:
        out = float(value)
    except OverflowError as exc:
        raise ParseError("grid value is out of the float range") from exc
    if not math.isfinite(out):
        raise ParseError(f"grid values must be finite, got {value!r}")
    return out


def _jsonable(value):
    if isinstance(value, Fraction):
        return format_scalar(value)
    if isinstance(value, float):
        if value != value:  # NaN
            return "nan"
        if value in (float("inf"), float("-inf")):
            return "inf" if value > 0 else "-inf"
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, Backend):
        return str(value)
    return value


def to_json(obj) -> str:
    """Deterministic JSON: sorted keys, fixed separators, trailing newline."""
    return json.dumps(_jsonable(obj), sort_keys=True, indent=2, allow_nan=False) + "\n"


# ---------------------------------------------------------------------------
# grids


def read_grid_csv(source: Union[str, IO[str]], backend: Backend = Backend.EXACT) -> GridFunction:
    """Read a ``t,value`` CSV into a grid function."""
    backend = _backend(backend)
    if isinstance(source, str):
        return _read_path(read_grid_csv, source, backend, newline="")
    reader = csv.reader(source)
    rows = list(reader)
    if not rows or [c.strip() for c in rows[0]] != ["t", "value"]:
        raise ParseError("line 1: expected header 't,value'")
    points = []
    values = []
    for lineno, row in enumerate(rows[1:], start=2):
        if not "".join(row).strip():
            continue
        if len(row) != 2:
            raise ParseError(f"line {lineno}: expected two columns, got {len(row)}")
        try:
            t = int(row[0].strip())
        except ValueError as exc:
            raise ParseError(f"line {lineno}: malformed index {row[0]!r}") from exc
        try:
            value = _parse_scalar(row[1], backend)
        except ParseError as exc:
            raise ParseError(f"line {lineno}: {exc}") from exc
        points.append(t)
        values.append(value)
    if not points:
        raise ParseError("no data rows")
    for prev, nxt in zip(points, points[1:]):
        if nxt != prev + 1:
            raise DomainError(f"grid misses index {prev + 1} (next row has t={nxt})")
    return GridFunction._of(points[0], tuple(values))


def _read_path(read, path: str, backend: Backend, newline=None) -> GridFunction:
    """``read`` on the UTF-8 text of the file at ``path``."""
    with open(path, "r", encoding="utf-8", newline=newline) as handle:
        try:
            return read(handle, backend)
        except UnicodeDecodeError as exc:
            raise ParseError(f"grid file {path!r} is not valid UTF-8: {exc.reason}") from exc


def _write_text(sink: Union[str, IO[str]], text: str, newline: str = None) -> None:
    """Write ``text`` to an open text stream, or to the file at the path ``sink`` in UTF-8."""
    if isinstance(sink, str):
        with open(sink, "w", encoding="utf-8", newline=newline) as handle:
            handle.write(text)
    else:
        sink.write(text)


def _csv_text(header: list, rows) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def write_grid_csv(f: GridFunction, sink: Union[str, IO[str]]) -> None:
    rows = ((t, format_scalar(v)) for t, v in enumerate(f.values, f.lo))
    _write_text(sink, _csv_text(["t", "value"], rows), newline="")


def read_grid_json(source: Union[str, IO[str]], backend: Backend = Backend.EXACT) -> GridFunction:
    """Read ``{"lo": int, "values": [...]}`` into a grid function."""
    backend = _backend(backend)
    if isinstance(source, str):
        return _read_path(read_grid_json, source, backend)
    try:
        payload = json.load(source)
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed JSON grid: {exc}") from exc
    if not isinstance(payload, dict) or "lo" not in payload or "values" not in payload:
        raise ParseError("JSON grid needs keys 'lo' and 'values'")
    lo = payload["lo"]
    if not isinstance(lo, int):
        raise ParseError(f"grid 'lo' must be an integer, got {lo!r}")
    if not isinstance(payload["values"], list):
        raise ParseError(f"grid 'values' must be a list, got {type(payload['values']).__name__}")
    values = []
    for v in payload["values"]:
        if isinstance(v, bool):
            raise ParseError("grid values must be numbers or 'p/q' strings")
        if isinstance(v, str):
            values.append(_parse_scalar(v, backend))
        elif isinstance(v, int):
            values.append(Fraction(v) if backend is Backend.EXACT else _finite_float(v))
        elif isinstance(v, float):
            if backend is Backend.EXACT:
                raise ParseError(
                    f"decimal literal {v!r} in an exact grid; quote it as a string"
                )
            values.append(_finite_float(v))
        else:
            raise ParseError(f"unsupported grid value {v!r}")
    if isinstance(lo, bool):
        raise ParameterError("lo must be an integer")
    if not values:
        raise ParameterError("a grid function needs at least one value")
    return GridFunction._of(lo, tuple(values))


def write_grid_json(f: GridFunction, sink: Union[str, IO[str]]) -> None:
    payload = {"lo": f.lo, "values": [format_scalar(v) for v in f.values]}
    _write_text(sink, to_json(payload))


def read_grid(path: str, fmt: str = None, backend: Backend = Backend.EXACT) -> GridFunction:
    """Read a grid file, dispatching on ``fmt`` (``csv``/``json``) or, when
    omitted, on the file extension."""
    _backend(backend)
    if fmt is None:
        fmt = "json" if path.endswith(".json") else "csv"
    if fmt == "csv":
        return read_grid_csv(path, backend)
    if fmt == "json":
        return read_grid_json(path, backend)
    raise ParameterError(f"unknown grid format {fmt!r}")


# ---------------------------------------------------------------------------
# reports


def report_to_dict(report) -> dict:
    """Serializable form of an inequality report (``nablafrac.InequalityReport``)."""
    return {
        "name": report.name,
        "params": _jsonable(report.params),
        "lhs": _jsonable(report.lhs),
        "rhs": _jsonable(report.rhs),
        "slack": _jsonable(report.slack),
        "holds": report.holds,
        "components": _jsonable(report.components),
    }


def suite_to_dict(result) -> dict:
    """Serializable form of a suite result (``nablafrac.SuiteResult``)."""
    return {
        "name": result.suite,
        "trials": result.trials,
        "master_seed": result.master_seed,
        "backend": str(result.backend),
        "version": __version__,
        "failures": result.failures,
        "worst_slack": _jsonable(result.worst_slack),
        "failing_seeds": list(result.failing_seeds),
    }


def _flatten(obj: dict) -> list:
    rows = []
    for key in sorted(obj):
        value = obj[key]
        if isinstance(value, dict):
            for sub, v in _flatten(value):
                rows.append((f"{key}.{sub}", v))
        elif isinstance(value, list):
            rows.append((key, ";".join(str(v) for v in value)))
        else:
            rows.append((key, value))
    return rows


def render_report(obj, fmt: str = "table") -> str:
    """Render an inequality report or a suite result as ``json``, ``csv`` or
    ``table`` text.  Only reports carry ``components``."""
    payload = report_to_dict(obj) if hasattr(obj, "components") else suite_to_dict(obj)
    if fmt == "json":
        return to_json(payload)
    rows = _flatten(payload)
    if fmt == "csv":
        return _csv_text(["field", "value"], rows)
    if fmt == "table":
        width = max(len(key) for key, _ in rows)
        return "\n".join(f"{key.ljust(width)}  {value}" for key, value in rows) + "\n"
    raise ParameterError(f"unknown format {fmt!r}")


def write_report(obj, sink: Union[str, IO[str]], fmt: str = "json") -> None:
    _write_text(sink, render_report(obj, fmt))
