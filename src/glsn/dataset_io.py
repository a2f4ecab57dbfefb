"""CSV serialization of the domain records (inverse of ingest parsing)."""

from __future__ import annotations

import csv
import io
from collections.abc import Sequence

from .model import (
    BILATERAL_COLUMNS,
    ECON_COLUMNS,
    PORT_COLUMNS,
    ROUTE_COLUMNS,
    ROUTE_META_COLUMNS,
    BilateralRecord,
    CountryEcon,
    DataError,
    Port,
    ServiceRoute,
)


def fmt(v) -> str:
    """One CSV/summary field: blank for None, `repr` for floats (so `inf`,
    `-inf` and shortest round-trip digits), `str` otherwise."""
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def csv_text(columns: Sequence[str], rows) -> str:
    """The header and rows as CSV, each line ended by "\n". A field that
    holds a comma, a quote or a line feed is quoted, so the parsers read it
    back whole. A field that holds a carriage return raises DataError: csv
    quotes it on some Python versions only, and the parsers' universal
    newlines would read it as a line break."""
    table = [columns, *(list(map(fmt, row)) for row in rows)]
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(table)
    text = buf.getvalue()
    if "\r" in text:
        line, j = next((i, j) for i, fields in enumerate(table, 1)
                       for j, field in enumerate(fields) if "\r" in field)
        raise DataError(f"line {line} column {columns[j]!r}: cannot write the carriage return "
                        f"in {table[line - 1][j]!r}")
    return text


def routes_csv(routes: list[ServiceRoute]) -> str:
    rows = []
    for r in sorted(routes, key=lambda r: r.route_id):
        for seq, pid in enumerate(r.port_calls, start=1):
            rows.append([r.route_id, seq, pid])
    return csv_text(ROUTE_COLUMNS, rows)


def routes_meta_csv(routes: list[ServiceRoute]) -> str:
    rows = [
        [r.route_id, r.capacity_teu]
        for r in sorted(routes, key=lambda r: r.route_id)
    ]
    return csv_text(ROUTE_META_COLUMNS, rows)


def ports_csv(ports: list[Port]) -> str:
    rows = [[getattr(p, c) for c in PORT_COLUMNS] for p in sorted(ports, key=lambda p: p.port_id)]
    return csv_text(PORT_COLUMNS, rows)


def countries_csv(econ: list[CountryEcon]) -> str:
    rows = [[getattr(e, c) for c in ECON_COLUMNS]
            for e in sorted(econ, key=lambda e: e.country_code)]
    return csv_text(ECON_COLUMNS, rows)


def bilateral_csv(bilateral: list[BilateralRecord]) -> str:
    rows = [
        [rec.pair[0], rec.pair[1], rec.btv_usd, rec.lsbci]
        for rec in sorted(bilateral, key=lambda r: r.pair)
    ]
    return csv_text(BILATERAL_COLUMNS, rows)
