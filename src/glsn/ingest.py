"""CSV/JSON parsers for routes, ports, country economics, and bilateral trade.

Each parser reads text streams; decoding the input's bytes is the caller's."""

from __future__ import annotations

import csv
import itertools
import json
from typing import IO, Iterator

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
    ValidationReport,
    check_capacity,
)


def _rows(stream: IO[str], required: tuple[str, ...], what: str,
          known: tuple[str, ...] | None = None) -> Iterator[tuple[str, dict]]:
    """(where, row) for each row of a CSV text stream, where `where` names the
    physical line the row ends on, so blank lines and quoted line breaks are
    counted. The header must have every `required` column and, when `known`
    is given, no column outside it: a file whose other columns are optional
    would read a misspelled one as missing data. A row with more fields than
    the header raises, since its values would land under the wrong columns.
    A byte-order mark (U+FEFF) that starts the text, as some editors save
    UTF-8, is dropped."""
    lines = iter(stream)
    head = next(lines, "").removeprefix("\ufeff")
    rd = csv.DictReader(itertools.chain([head] if head else [], lines))
    if rd.fieldnames is None:
        raise DataError(f"{what}: empty file, header row required")
    missing = [c for c in required if c not in rd.fieldnames]
    if missing:
        raise DataError(f"{what}: missing columns {missing}")
    unknown = [] if known is None else [c for c in rd.fieldnames if c not in known]
    if unknown:
        raise DataError(f"{what}: unknown columns {unknown}, expected some of {list(known)}")
    for row in rd:
        where = f"{what} line {rd.line_num}"
        if None in row:  # csv files the fields beyond the header under None
            width = len(rd.fieldnames)
            raise DataError(f"{where}: {width + len(row[None])} fields, the header has {width}")
        yield where, row


def _required(row: dict, columns: tuple[str, ...], where: str) -> list[str]:
    """The stripped values of `columns`. A short row, with fewer fields than
    the header (csv leaves None for each missing one), raises: it names the
    required columns it lacks, else the optional ones."""
    values = [row[c] for c in columns]
    if None in values:
        *head, last = columns
        raise DataError(f"{where}: needs {', '.join(head) + ' and ' if head else ''}{last}")
    missing = [c for c, v in row.items() if v is None]
    if missing:
        raise DataError(f"{where}: short row, no {', '.join(missing)}")
    return [v.strip() for v in values]


def _opt_float(raw: str | None, what: str) -> float | None:
    if raw is None or raw.strip() == "":
        return None
    try:
        return float(raw)
    except ValueError:
        raise DataError(f"{what}: not a number: {raw!r}") from None


def _checked(where: str, make, *args):
    """`make(*args)`: a record, or a check, whose DataError gains `where`."""
    try:
        return make(*args)
    except DataError as exc:
        raise DataError(f"{where}: {exc}") from None


def parse_routes(stream: IO[str], meta_stream: IO[str] | None = None) -> list[ServiceRoute]:
    """Parse routes.csv (route_id,seq,port_id) plus optional routes_meta.csv capacities.

    Port calls are kept in seq order, repeats included; deduplication happens
    at graph construction.
    """
    calls: dict[str, list[tuple[int, str]]] = {}
    lines: dict[tuple[str, int], str] = {}  # (route_id, seq) -> where it is
    for where, row in _rows(stream, ROUTE_COLUMNS, "routes"):
        rid, seq, pid = row["route_id"], row["seq"], row["port_id"]
        if rid is None or seq is None or pid is None:  # a short row: raises
            _required(row, ROUTE_COLUMNS, where)
        rid = rid.strip()
        pid = pid.strip()
        if not rid or not pid:
            raise DataError(f"{where}: blank route_id or port_id")
        try:
            seq = int(seq)
        except ValueError:
            raise DataError(f"{where}: bad seq {seq!r}") from None
        first = lines.setdefault((rid, seq), where)
        if first != where:
            raise DataError(f"{where}: route {rid!r} repeats seq {seq} of "
                            f"{first.removeprefix('routes ')}")
        calls.setdefault(rid, []).append((seq, pid))

    capacities: dict[str, float] = {}
    if meta_stream is not None:
        for where, row in _rows(meta_stream, ROUTE_META_COLUMNS, "routes_meta"):
            (rid,) = _required(row, ROUTE_META_COLUMNS[:1], where)
            if rid in capacities:
                raise DataError(f"{where}: duplicate route_id {rid!r}")
            cap = _opt_float(row["capacity_teu"], f"{where} capacity_teu")
            # checked here, not by ServiceRoute, so that the error names the
            # line, also for a route that routes.csv lacks
            _checked(where, check_capacity, rid, cap)
            if cap is not None:
                capacities[rid] = cap

    routes = []
    for rid in sorted(calls):
        seq_calls = sorted(calls[rid])
        routes.append(
            ServiceRoute(
                route_id=rid,
                port_calls=tuple(p for _, p in seq_calls),
                capacity_teu=capacities.get(rid),
            )
        )
    return routes


def parse_routes_json(stream: IO[str]) -> list[ServiceRoute]:
    """JSON alternative: array of {route_id, capacity_teu, ports: [...]}.
    A byte-order mark that starts the text is dropped, as `_rows` drops it."""
    try:
        data = json.loads(stream.read().removeprefix("\ufeff"))
    except json.JSONDecodeError as exc:
        raise DataError(f"routes json: malformed ({exc})") from None
    if not isinstance(data, list):
        raise DataError("routes json: top level must be an array")
    routes = []
    seen = set()
    for i, obj in enumerate(data):
        try:
            rid = obj["route_id"]
            ports = obj["ports"]
        except (TypeError, KeyError) as exc:
            raise DataError(f"routes json entry {i}: missing {exc}") from None
        if not (isinstance(rid, str) and rid):
            raise DataError(f"routes json entry {i}: route_id must be a non-empty string")
        if not (isinstance(ports, list) and all(isinstance(p, str) and p for p in ports)):
            raise DataError(f"routes json entry {i}: ports must be a list of non-empty strings")
        if rid in seen:
            raise DataError(f"routes json: duplicate route_id {rid!r}")
        seen.add(rid)
        cap = obj.get("capacity_teu")
        if cap is not None:
            # a JSON number only: not a string, nor true or false (ints to Python)
            if isinstance(cap, bool) or not isinstance(cap, (int, float)):
                raise DataError(f"routes json entry {i}: bad capacity {cap!r}")
            try:
                cap = float(cap)
            except OverflowError:
                raise DataError(f"routes json entry {i}: bad capacity, an integer beyond "
                                "the float range") from None
        routes.append(_checked(f"routes json entry {i}", ServiceRoute, rid, tuple(ports), cap))
    return sorted(routes, key=lambda r: r.route_id)


def parse_ports(stream: IO[str]) -> list[Port]:
    ports = []
    seen = set()
    for where, row in _rows(stream, PORT_COLUMNS, "ports"):
        pid, name, country = _required(row, PORT_COLUMNS, where)
        if pid in seen:
            raise DataError(f"{where}: duplicate port_id {pid!r}")
        seen.add(pid)
        ports.append(_checked(where, Port, pid, name, country))
    return ports


def parse_country_econ(stream: IO[str]) -> list[CountryEcon]:
    out = []
    seen = set()
    for where, row in _rows(stream, ECON_COLUMNS[:1], "countries", ECON_COLUMNS):
        (code,) = _required(row, ECON_COLUMNS[:1], where)
        if code in seen:
            raise DataError(f"{where}: duplicate country_code {code!r}")
        seen.add(code)
        values = [_opt_float(row.get(col), f"{where} {col}") for col in ECON_COLUMNS[1:]]
        out.append(_checked(where, CountryEcon, code, *values))
    return out


def parse_bilateral(stream: IO[str]) -> list[BilateralRecord]:
    out = []
    seen_pairs = set()
    for where, row in _rows(stream, BILATERAL_COLUMNS[:3], "bilateral", BILATERAL_COLUMNS):
        ci, cj = _required(row, BILATERAL_COLUMNS[:2], where)
        btv = _opt_float(row["btv_usd"], f"{where} btv_usd")
        if btv is None:
            raise DataError(f"{where}: btv_usd is required")
        lsbci = _opt_float(row.get("lsbci"), f"{where} lsbci")
        rec = _checked(where, BilateralRecord, ci, cj, btv, lsbci)
        if rec.pair in seen_pairs:
            raise DataError(f"{where}: duplicate unordered pair {rec.pair}")
        seen_pairs.add(rec.pair)
        out.append(rec)
    return out


def validate_dataset(
    routes: list[ServiceRoute],
    ports: list[Port],
    econ: list[CountryEcon] | None = None,
    strict: bool = False,
) -> ValidationReport:
    """Filter routes to the usable international set and report every drop.

    A route is retained when all its ports resolve, it touches >= 2 distinct
    ports, and its ports span more than one country. With strict=True any
    drop raises instead.
    """
    port_country = {p.port_id: p.country_code for p in ports}
    report = ValidationReport()

    for route in routes:
        bad = sorted(set(pid for pid in route.port_calls if pid not in port_country))
        if bad:
            report.unresolved_ports[route.route_id] = bad
            continue
        distinct = route.distinct_ports
        if len(distinct) < 2:
            report.dropped_too_few_ports.append(route.route_id)
            continue
        countries = {port_country[pid] for pid in distinct}
        if len(countries) < 2:
            report.dropped_domestic.append(route.route_id)
            continue
        report.retained.append(route)

    if econ is not None:
        known = {e.country_code for e in econ}
        used = {port_country[p] for r in report.retained for p in r.distinct_ports}
        report.countries_missing_econ = sorted(used - known)

    if strict and report.drop_count:
        raise DataError(
            "strict validation failed: " + "; ".join(report.summary_lines())
        )
    return report
