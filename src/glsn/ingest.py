"""CSV/JSON parsers for routes, ports, country economics, and bilateral trade."""

from __future__ import annotations

import csv
import io
import json
from typing import IO

from .model import (
    BilateralRecord,
    CountryEcon,
    DataError,
    Port,
    ServiceRoute,
    ValidationReport,
)


def _text(stream: IO) -> io.TextIOWrapper | IO:
    if isinstance(stream, (io.RawIOBase, io.BufferedIOBase)):
        return io.TextIOWrapper(stream, encoding="utf-8")
    return stream


def _reader(stream: IO, required: list[str], what: str) -> csv.DictReader:
    rd = csv.DictReader(_text(stream))
    if rd.fieldnames is None:
        raise DataError(f"{what}: empty file, header row required")
    missing = [c for c in required if c not in rd.fieldnames]
    if missing:
        raise DataError(f"{what}: missing columns {missing}")
    return rd


def _opt_float(raw: str | None, what: str) -> float | None:
    if raw is None or raw.strip() == "":
        return None
    try:
        return float(raw)
    except ValueError:
        raise DataError(f"{what}: not a number: {raw!r}") from None


def parse_routes(stream: IO, meta_stream: IO | None = None) -> list[ServiceRoute]:
    """Parse routes.csv (route_id,seq,port_id) plus optional routes_meta.csv capacities.

    Port calls are kept in seq order, repeats included; deduplication happens
    at graph construction.
    """
    rd = _reader(stream, ["route_id", "seq", "port_id"], "routes")
    calls: dict[str, list[tuple[int, str]]] = {}
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
        mrd = _reader(meta_stream, ["route_id", "capacity_teu"], "routes_meta")
        for lineno, row in enumerate(mrd, start=2):
            rid = row["route_id"].strip()
            if rid in capacities:
                raise DataError(f"routes_meta line {lineno}: duplicate route_id {rid!r}")
            cap = _opt_float(row["capacity_teu"], f"routes_meta line {lineno} capacity_teu")
            if cap is not None:
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
        data = json.load(_text(stream))
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
            if cap < 0:
                raise DataError(f"routes json entry {i}: negative capacity")
        routes.append(ServiceRoute(route_id=rid, port_calls=tuple(ports), capacity_teu=cap))
    return sorted(routes, key=lambda r: r.route_id)


def parse_ports(stream: IO) -> list[Port]:
    rd = _reader(stream, ["port_id", "name", "country_code"], "ports")
    ports = []
    seen = set()
    for lineno, row in enumerate(rd, start=2):
        fields = [row[c] for c in ("port_id", "name", "country_code")]
        if None in fields:
            raise DataError(f"ports line {lineno}: needs port_id, name and country_code")
        pid, name, country = (f.strip() for f in fields)
        if pid in seen:
            raise DataError(f"ports line {lineno}: duplicate port_id {pid!r}")
        seen.add(pid)
        ports.append(Port(pid, name, country))
    return ports


def parse_country_econ(stream: IO) -> list[CountryEcon]:
    rd = _reader(stream, ["country_code"], "countries")
    out = []
    seen = set()
    for lineno, row in enumerate(rd, start=2):
        code = row["country_code"].strip()
        if code in seen:
            raise DataError(f"countries line {lineno}: duplicate country_code {code!r}")
        seen.add(code)
        where = f"countries line {lineno}"

        def g(col: str) -> float | None:
            return _opt_float(row.get(col), f"{where} {col}")

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
    rd = _reader(stream, ["country_i", "country_j", "btv_usd"], "bilateral")
    out = []
    seen_pairs = set()
    for lineno, row in enumerate(rd, start=2):
        btv = _opt_float(row["btv_usd"], f"bilateral line {lineno} btv_usd")
        if btv is None:
            raise DataError(f"bilateral line {lineno}: btv_usd is required")
        rec = BilateralRecord(
            country_i=row["country_i"].strip(),
            country_j=row["country_j"].strip(),
            btv_usd=btv,
            lsbci=_opt_float(row.get("lsbci"), f"bilateral line {lineno} lsbci"),
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
