"""File formats: sweep CSVs, derived tables, and bundled reference data.

Sweep files are RFC-4180 CSVs with a mandatory header.  Units everywhere:
powers in mW, rates in counts/s, repetition rate in Hz.  The sweep columns
are exactly ``power_mw, sc1, sc2, cc`` optionally followed by
``cc12, cc13, cc123``; within a row the optional trio is either fully
present or fully empty.  Powers must be strictly increasing and counts
non-negative.  Derived tables are emitted as CSV (for diffing) and JSON
(for chaining subcommands); missing or divergent values render as "-".
"""

from __future__ import annotations

import csv
from importlib import resources
from typing import TYPE_CHECKING

from .errors import SweepFormatError

if TYPE_CHECKING:
    # annotations only: each function that builds or tests a record imports
    # its type, and JSON is imported where it is read or written, so the
    # saturation curves load neither inversion, correlation nor json
    from .correlation import CorrelationReport
    from .inversion import CountRecord, FailedRow, TableOneRow

SWEEP_COLUMNS = ("power_mw", "sc1", "sc2", "cc")
SWEEP_OPTIONAL = ("cc12", "cc13", "cc123")

TABLE1_COLUMNS = (
    "power_mw", "sc1", "sc2", "cc", "tau", "eta1", "eta2",
    "pair_rate", "one_pair_rate", "mean_pairs", "status",
)

TABLE2_COLUMNS = (
    "power_mw", "g2_measured", "g2_predicted", "g2_heralded",
    "g2_unheralded", "g2_signal_idler", "g3_signal_idler",
    "g3_unheralded", "status",
)

CURVE_COLUMNS = ("source_kind", "eta", "variant", "mean", "detected")

MISSING = "-"
# status of a row that failed inversion, followed by its error
FAILED_PREFIX = "failed: "


def _fmt(value) -> str:
    if value is None:
        return MISSING
    return repr(float(value))


def _parse_float(text: str, line: int, column: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise SweepFormatError(
            f"column {column!r}: {text!r} is not a number", line
        ) from None


def read_sweep(path) -> list[CountRecord]:
    """Parse and validate a sweep CSV; raises SweepFormatError with the
    offending 1-based line number on any malformation."""
    from .inversion import CountRecord

    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SweepFormatError("missing header row", 1) from None
        header = tuple(h.strip() for h in header)
        if header not in (SWEEP_COLUMNS, SWEEP_COLUMNS + SWEEP_OPTIONAL):
            raise SweepFormatError(
                f"header must be {','.join(SWEEP_COLUMNS)} optionally "
                f"followed by {','.join(SWEEP_OPTIONAL)}; got "
                f"{','.join(header)}",
                1,
            )
        records: list[CountRecord] = []
        prev_power = None
        for line, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            row = [cell.strip() for cell in row]
            if len(row) != len(header):
                raise SweepFormatError(
                    f"expected {len(header)} columns, got {len(row)}", line
                )
            base = [
                _parse_float(cell, line, name)
                for cell, name in zip(row, SWEEP_COLUMNS)
            ]
            # the record checks the signs and that the trio is all or none
            split = [
                None if cell in ("", MISSING) else _parse_float(cell, line, name)
                for cell, name in zip(row[4:], SWEEP_OPTIONAL)
            ]
            try:
                record = CountRecord(*base, *split)
            except ValueError as exc:
                raise SweepFormatError(str(exc), line) from None
            if prev_power is not None and record.power_mw <= prev_power:
                raise SweepFormatError(
                    f"powers must be strictly increasing "
                    f"({record.power_mw} after {prev_power})",
                    line,
                )
            prev_power = record.power_mw
            records.append(record)
    return records


def _write_table(rows, columns: tuple[str, ...], path) -> None:
    """One CSV line per row: each column but the last is the attribute of
    that name, read from a failed row's record and "-" where it has none;
    the last is the row's status."""
    from .inversion import FailedRow

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for item in rows:
            failed = isinstance(item, FailedRow)
            source = item.record if failed else item
            writer.writerow(
                [_fmt(getattr(source, column, None)) for column in columns[:-1]]
                + [FAILED_PREFIX + item.error if failed else "ok"]
            )


def write_table1_csv(rows: list[TableOneRow | FailedRow], path) -> None:
    _write_table(rows, TABLE1_COLUMNS, path)


def _as_json(item: CountRecord | TableOneRow, status: str) -> dict:
    return dict(item._asdict(), status=status)


def _from_json(cls, raw: dict):
    """``cls`` built from the keys of ``raw`` that name its fields; a field
    with a default may be absent, and other keys (such as an old table's
    ``solver``) are ignored.  Each field must be a JSON number, or null
    where it has a default, which is None for every field."""
    defaults = cls._field_defaults
    values = {}
    for name in cls._fields:
        value = raw.get(name, defaults[name]) if name in defaults else raw[name]
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        if not number and (value is not None or name not in defaults):
            raise ValueError(f"{name} must be a number, got {value!r}")
        values[name] = value
    return cls(**values)


def write_table1_json(
    rows: list[TableOneRow | FailedRow], f: float, path
) -> None:
    import json

    from .inversion import FailedRow

    payload = {
        "repetition_rate_hz": f,
        "rows": [
            _as_json(item.record, FAILED_PREFIX + item.error)
            if isinstance(item, FailedRow) else _as_json(item, "ok")
            for item in rows
        ],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_table1_json(path) -> tuple[float, list[TableOneRow | FailedRow]]:
    import json

    from .inversion import CountRecord, FailedRow, TableOneRow
    from .photon_statistics import validate_positive

    with open(path, encoding="utf-8-sig") as fh:
        payload = json.load(fh)
    try:
        f = payload["repetition_rate_hz"]
        if isinstance(f, bool) or not isinstance(f, (int, float)):
            raise TypeError(f"repetition_rate_hz must be a number, got {f!r}")
        validate_positive(f, "repetition_rate_hz")
        raw_rows = payload["rows"]
        if not isinstance(raw_rows, list):
            raise TypeError(f"rows must be a list, got {raw_rows!r}")
    except (KeyError, TypeError, ValueError) as exc:
        raise SweepFormatError(f"not a valid inversion table: {exc}") from None
    rows: list[TableOneRow | FailedRow] = []
    for index, raw in enumerate(raw_rows, start=1):
        try:
            if not isinstance(raw, dict):
                raise ValueError(f"not an object: {raw!r}")
            # the record's checks run on every row, failed or not
            record = _from_json(CountRecord, raw)
            status = raw["status"]
            if not isinstance(status, str):
                raise ValueError(f"status must be a string, got {status!r}")
            if status != "ok":
                error = status.removeprefix(FAILED_PREFIX)
                rows.append(FailedRow(record=record, error=error))
                continue
            rows.append(_from_json(TableOneRow, raw))
        except (KeyError, ValueError) as exc:
            raise SweepFormatError(
                f"invalid inversion table row {index}: {exc}"
            ) from None
    return float(f), rows


def write_table2_csv(
    reports: list[CorrelationReport | FailedRow], path
) -> None:
    _write_table(reports, TABLE2_COLUMNS, path)


def write_curves_csv(curves, path) -> None:
    """Emit SaturationCurve objects in long format."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CURVE_COLUMNS)
        for cv in curves:
            for mean, detected in cv.points:
                writer.writerow(
                    [cv.source_kind, _fmt(cv.eta), cv.variant,
                     _fmt(mean), _fmt(detected)]
                )


def bundled_path(name: str):
    """Path-like handle to a bundled reference CSV."""
    return resources.files("spdc_stats.data").joinpath(name)


def load_bundled_sweep(name: str = "table1_measured.csv") -> list[CountRecord]:
    with resources.as_file(bundled_path(name)) as path:
        return read_sweep(path)
