"""CSV/JSON parsers for routes, ports, country economics, and bilateral trade."""

from __future__ import annotations

import csv
import io
import json
import math
from contextlib import contextmanager
from typing import IO, Iterator

from .model import (
    BilateralRecord,
    CountryEcon,
    DataError,
    Port,
    ServiceRoute,
    ValidationReport,
)


@contextmanager
def _text(stream: IO) -> Iterator[IO]:
    """`stream` as text. A binary stream is read through a UTF-8 wrapper that
    is detached on exit, leaving the stream open: its caller owns it."""
    if not isinstance(stream, (io.RawIOBase, io.BufferedIOBase)):
        yield stream
        return
    text = io.TextIOWrapper(stream, encoding="utf-8")
    try:
        yield text
    finally:
        text.detach()


@contextmanager
def _reader(stream: IO, required: list[str], what: str) -> Iterator[csv.DictReader]:
    with _text(stream) as text:
        rd = csv.DictReader(text)
        if rd.fieldnames is None:
            raise DataError(f"{what}: empty file, header row required")
        missing = [c for c in required if c not in rd.fieldnames]
        if missing:
            raise DataError(f"{what}: missing columns {missing}")
        yield rd


def _required(row: dict, columns: tuple[str, ...], where: str) -> list[str]:
    """The stripped values of `columns`; a short row leaves one None."""
    values = [row[c] for c in columns]
    if None in values:
        *head, last = columns
        raise DataError(f"{where}: needs {', '.join(head) + ' and ' if head else ''}{last}")
    return [v.strip() for v in values]


def _opt_float(raw: str | None, what: str) -> float | None:
    if raw is None or raw.strip() == "":
        return None
    try:
        return float(raw)
    except ValueError:
        raise DataError(f"{what}: not a number: {raw!r}") from None


def _opt_finite(raw: str | None, what: str) -> float | None:
    value = _opt_float(raw, what)
    if value is not None and not math.isfinite(value):
        raise DataError(f"{what}: non-finite value {raw.strip()!r}")
    return value


def parse_routes(stream: IO, meta_stream: IO | None = None) -> list[ServiceRoute]:
    """Parse routes.csv (route_id,seq,port_id) plus optional routes_meta.csv capacities.

    Port calls are kept in seq order, repeats included; deduplication happens
    at graph construction.
    """
    calls: dict[str, list[tuple[int, str]]] = {}
    with _reader(stream, ["route_id", "seq", "port_id"], "routes") as rd:
        for lineno, row in enumerate(rd, start=2):
            rid = (row["route_id"] or "").strip()
            pid = (row["port_id"] or "").strip()
            if not rid or not pid:
                raise DataError(f"routes line {lineno}: blank route_id or port_id")
            try:
                seq = int(row["seq"])
            except (TypeError, ValueError):
                raise DataError(f"routes line {lineno}: bad seq {row['seq']!r}") from None
            calls.setdefault(rid, []).append((seq, pid))

    capacities: dict[str, float] = {}
    if meta_stream is not None:
        with _reader(meta_stream, ["route_id", "capacity_teu"], "routes_meta") as mrd:
            for lineno, row in enumerate(mrd, start=2):
                (rid,) = _required(row, ("route_id",), f"routes_meta line {lineno}")
                if rid in capacities:
                    raise DataError(f"routes_meta line {lineno}: duplicate route_id {rid!r}")
                cap = _opt_float(row["capacity_teu"], f"routes_meta line {lineno} capacity_teu")
                if cap is not None:
                    if not math.isfinite(cap):
                        raise DataError(f"routes_meta line {lineno}: non-finite capacity {cap}")
                    if cap < 0:
                        raise DataError(f"routes_meta line {lineno}: negative capacity {cap}")
                    capacities[rid] = cap

    routes = []
    for rid in sorted(calls):
        seq_calls = sorted(calls[rid])
        seqs = [s for s, _ in seq_calls]
        if len(set(seqs)) != len(seqs):
            raise DataError(f"route {rid!r}: duplicate seq values")
        routes.append(
            ServiceRoute(
                route_id=rid,
                port_calls=tuple(p for _, p in seq_calls),
                capacity_teu=capacities.get(rid),
            )
        )
    return routes


def parse_routes_json(stream: IO) -> list[ServiceRoute]:
    """JSON alternative: array of {route_id, capacity_teu, ports: [...]}."""
    try:
        with _text(stream) as text:
            data = json.load(text)
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
            try:
                cap = float(cap)
            except (TypeError, ValueError):
                raise DataError(f"routes json entry {i}: bad capacity {cap!r}") from None
            if not math.isfinite(cap):
                raise DataError(f"routes json entry {i}: non-finite capacity {cap}")
            if cap < 0:
                raise DataError(f"routes json entry {i}: negative capacity")
        routes.append(ServiceRoute(route_id=rid, port_calls=tuple(ports), capacity_teu=cap))
    return sorted(routes, key=lambda r: r.route_id)


def parse_ports(stream: IO) -> list[Port]:
    ports = []
    seen = set()
    with _reader(stream, ["port_id", "name", "country_code"], "ports") as rd:
        for lineno, row in enumerate(rd, start=2):
            pid, name, country = _required(
                row, ("port_id", "name", "country_code"), f"ports line {lineno}"
            )
            if pid in seen:
                raise DataError(f"ports line {lineno}: duplicate port_id {pid!r}")
            seen.add(pid)
            ports.append(Port(pid, name, country))
    return ports


def parse_country_econ(stream: IO) -> list[CountryEcon]:
    out = []
    seen = set()
    with _reader(stream, ["country_code"], "countries") as rd:
        for lineno, row in enumerate(rd, start=2):
            (code,) = _required(row, ("country_code",), f"countries line {lineno}")
            if code in seen:
                raise DataError(f"countries line {lineno}: duplicate country_code {code!r}")
            seen.add(code)
            where = f"countries line {lineno}"

            def g(col: str) -> float | None:
                return _opt_finite(row.get(col), f"{where} {col}")

            out.append(
                CountryEcon(
                    country_code=code,
                    trade_value_usd=g("trade_value_usd"),
                    export_usd=g("export_usd"),
                    import_usd=g("import_usd"),
                    gdp_usd=g("gdp_usd"),
                    lsci=g("lsci"),
                    capital_lat=g("capital_lat"),
                    capital_lon=g("capital_lon"),
                    trade_value_change_usd=g("trade_value_change_usd"),
                )
            )
    return out


def parse_bilateral(stream: IO) -> list[BilateralRecord]:
    out = []
    seen_pairs = set()
    with _reader(stream, ["country_i", "country_j", "btv_usd"], "bilateral") as rd:
        for lineno, row in enumerate(rd, start=2):
            ci, cj = _required(row, ("country_i", "country_j"), f"bilateral line {lineno}")
            btv = _opt_finite(row["btv_usd"], f"bilateral line {lineno} btv_usd")
            if btv is None:
                raise DataError(f"bilateral line {lineno}: btv_usd is required")
            rec = BilateralRecord(
                country_i=ci,
                country_j=cj,
                btv_usd=btv,
                lsbci=_opt_finite(row.get("lsbci"), f"bilateral line {lineno} lsbci"),
            )
            if rec.pair in seen_pairs:
                raise DataError(
                    f"bilateral line {lineno}: duplicate unordered pair {rec.pair}"
                )
            seen_pairs.add(rec.pair)
            out.append(rec)
    return out


def validate_dataset(
    routes: list[ServiceRoute],
    ports: list[Port],
    econ: list[CountryEcon] | None = None,
    bilateral: list[BilateralRecord] | None = None,
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
