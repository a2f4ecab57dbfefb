import io

import pytest

from glsn import dataset_io
from glsn.ingest import (
    parse_bilateral,
    parse_country_econ,
    parse_ports,
    parse_routes,
    parse_routes_json,
    validate_dataset,
)
from glsn.model import DataError, Port, ServiceRoute


def s(text: str) -> io.BytesIO:
    return io.BytesIO(text.encode())


ROUTES = "route_id,seq,port_id\nR1,1,A\nR1,2,B\nR1,3,C\n"
META = "route_id,capacity_teu\nR1,600\n"
PORTS = "port_id,name,country_code\nA,Alpha,XXA\nB,Beta,XXB\nC,Gamma,XXC\n"


def test_parse_routes_basic():
    routes = parse_routes(s(ROUTES), s(META))
    assert len(routes) == 1
    r = routes[0]
    assert r.port_calls == ("A", "B", "C")
    assert r.capacity_teu == 600


def test_parse_routes_circular_revisit_kept():
    text = "route_id,seq,port_id\nR2,1,A\nR2,2,B\nR2,3,C\nR2,4,A\n"
    (r,) = parse_routes(s(text))
    assert r.port_calls == ("A", "B", "C", "A")
    assert len(r.distinct_ports) == 3
    assert r.has_repeated_calls


def test_parse_routes_empty_file():
    assert parse_routes(s("route_id,seq,port_id\n")) == []


def test_parse_routes_bad_seq():
    with pytest.raises(DataError, match="line 2"):
        parse_routes(s("route_id,seq,port_id\nR1,x,A\n"))


def test_parse_routes_negative_capacity():
    with pytest.raises(DataError, match="negative"):
        parse_routes(s(ROUTES), s("route_id,capacity_teu\nR1,-5\n"))


def test_parse_routes_json():
    text = '[{"route_id": "R1", "capacity_teu": 600, "ports": ["A", "B"]}]'
    (r,) = parse_routes_json(s(text))
    assert r.port_calls == ("A", "B")
    assert r.capacity_teu == 600


@pytest.mark.parametrize("entries", [
    '{"route_id": "R1", "ports": 5}',
    '{"route_id": "R1", "ports": "AAA01AAB01"}',
    '{"route_id": "R1", "ports": ["A", "B"]}, {"route_id": 2, "ports": ["A", "B"]}',
    '{"route_id": "R1", "ports": [1, 2]}',
    '{"route_id": "R1", "ports": ["A", ""]}',
    '{"route_id": "", "ports": ["A", "B"]}',
])
def test_parse_routes_json_bad_types(entries):
    with pytest.raises(DataError, match="routes json entry"):
        parse_routes_json(s(f"[{entries}]"))


def test_parse_ports():
    ports = parse_ports(s("port_id,name,country_code\nSGSIN,Singapore,SGP\n"))
    assert ports == [Port("SGSIN", "Singapore", "SGP")]


def test_parse_ports_duplicate():
    with pytest.raises(DataError, match="duplicate"):
        parse_ports(s("port_id,name,country_code\nA,x,XXA\nA,y,XXB\n"))


@pytest.mark.parametrize("line", ["P2", "P2,Port Two"])
def test_parse_ports_short_row(line):
    with pytest.raises(DataError, match="ports line 3"):
        parse_ports(s(f"port_id,name,country_code\nP1,One,XXA\n{line}\n"))


def test_parse_country_econ_blank_is_missing():
    text = (
        "country_code,trade_value_usd,export_usd,import_usd,gdp_usd,lsci,"
        "capital_lat,capital_lon\nXXA,100,,,200,,1.5,2.5\n"
    )
    (e,) = parse_country_econ(s(text))
    assert e.trade_value_usd == 100
    assert e.export_usd is None
    assert e.lsci is None
    assert e.capital_lat == 1.5


def test_parse_country_econ_non_numeric():
    with pytest.raises(DataError, match="not a number"):
        parse_country_econ(s("country_code,trade_value_usd\nXXA,abc\n"))


def test_parse_bilateral_duplicate_unordered_pair():
    text = "country_i,country_j,btv_usd,lsbci\nX,Y,100,\nY,X,50,\n"
    with pytest.raises(DataError, match="duplicate unordered pair"):
        parse_bilateral(s(text))


def test_parse_bilateral_missing_lsbci():
    (rec,) = parse_bilateral(s("country_i,country_j,btv_usd,lsbci\nX,Y,100,\n"))
    assert rec.lsbci is None
    assert rec.pair == ("X", "Y")


def _ports():
    return [Port("A", "a", "XXA"), Port("B", "b", "XXB"), Port("C", "c", "XXA")]


def test_validate_drops_domestic():
    routes = [
        ServiceRoute("R1", ("A", "B")),
        ServiceRoute("R2", ("A", "C")),  # both XXA
    ]
    report = validate_dataset(routes, _ports())
    assert [r.route_id for r in report.retained] == ["R1"]
    assert report.dropped_domestic == ["R2"]


def test_validate_drops_single_port_after_dedup():
    routes = [ServiceRoute("R1", ("A", "A"))]
    report = validate_dataset(routes, _ports())
    assert report.retained == []
    assert report.dropped_too_few_ports == ["R1"]


def test_validate_unresolved_port():
    routes = [ServiceRoute("R1", ("A", "ZZZ"))]
    report = validate_dataset(routes, _ports())
    assert report.unresolved_ports == {"R1": ["ZZZ"]}


def test_validate_retained_count():
    routes = [
        ServiceRoute("R1", ("A", "B")),
        ServiceRoute("R2", ("B", "C")),
        ServiceRoute("R3", ("A", "B", "C")),
        ServiceRoute("R4", ("A", "C")),  # domestic
    ]
    report = validate_dataset(routes, _ports())
    assert len(report.retained) == 3


def test_validate_idempotent():
    routes = [
        ServiceRoute("R1", ("A", "B")),
        ServiceRoute("R2", ("A", "C")),
        ServiceRoute("R3", ("A", "A")),
    ]
    first = validate_dataset(routes, _ports())
    second = validate_dataset(first.retained, _ports())
    assert second.retained == first.retained
    assert second.drop_count == 0


def test_validate_strict_raises():
    routes = [ServiceRoute("R1", ("A", "C"))]
    with pytest.raises(DataError, match="strict"):
        validate_dataset(routes, _ports(), strict=True)


def test_roundtrip_routes():
    routes = parse_routes(s(ROUTES), s(META))
    again = parse_routes(
        s(dataset_io.routes_csv(routes)), s(dataset_io.routes_meta_csv(routes))
    )
    assert again == routes


def test_roundtrip_full_dataset():
    ports = parse_ports(s(PORTS))
    econ = parse_country_econ(
        s("country_code,trade_value_usd,gdp_usd,lsci,capital_lat,capital_lon\n"
          "XXA,100.5,200.25,,1.5,2.5\nXXB,,300.125,12.5,-3.5,4.5\n")
    )
    bilateral = parse_bilateral(s("country_i,country_j,btv_usd,lsbci\nXXA,XXB,99.5,0.5\n"))
    assert parse_ports(s(dataset_io.ports_csv(ports))) == ports
    assert parse_country_econ(s(dataset_io.countries_csv(econ))) == econ
    assert parse_bilateral(s(dataset_io.bilateral_csv(bilateral))) == bilateral
