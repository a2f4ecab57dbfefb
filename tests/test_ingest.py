import ast
import io
import re
from collections import Counter
from pathlib import Path

import pytest

import glsn
from glsn import dataset_io
from glsn.ingest import (
    parse_bilateral,
    parse_country_econ,
    parse_ports,
    parse_routes,
    parse_routes_json,
    validate_dataset,
)
from glsn.model import BilateralRecord, CountryEcon, DataError, Port, ServiceRoute

from test_float_sums import _Scoped


def s(text: str) -> io.StringIO:
    return io.StringIO(text)


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
    assert len(r.port_calls) > len(r.distinct_ports)


def test_parse_routes_empty_file():
    assert parse_routes(s("route_id,seq,port_id\n")) == []


def test_parse_routes_bad_seq():
    with pytest.raises(DataError, match="line 2"):
        parse_routes(s("route_id,seq,port_id\nR1,x,A\n"))


def test_parse_routes_duplicate_seq_names_both_lines():
    text = "route_id,seq,port_id\nR1,1,A\nR2,1,A\nR1,2,B\nR1,1,C\n"
    with pytest.raises(DataError, match="^routes line 5: route 'R1' repeats seq 1 of line 2$"):
        parse_routes(s(text))


def test_parse_routes_negative_capacity():
    with pytest.raises(DataError, match="negative"):
        parse_routes(s(ROUTES), s("route_id,capacity_teu\nR1,-5\n"))


def test_parse_routes_json():
    text = '[{"route_id": "R1", "capacity_teu": 600, "ports": ["A", "B"]}]'
    (r,) = parse_routes_json(s(text))
    assert r.port_calls == ("A", "B")
    assert r.capacity_teu == 600


@pytest.mark.parametrize("cap, shown", [
    ("true", "True"), ("false", "False"), ('"12"', "'12'"), ("[600]", "[600]"),
    ("{}", "{}"), ("1" + "0" * 400, "an integer beyond the float range"),
], ids=["true", "false", "string", "list", "object", "huge-int"])
def test_parse_routes_json_capacity_must_be_a_number(cap, shown):
    ok = '{"route_id": "R2", "capacity_teu": 12, "ports": ["A", "B"]}'
    bad = f'{{"route_id": "R1", "capacity_teu": {cap}, "ports": ["A", "B"]}}'
    with pytest.raises(DataError, match=f"^routes json entry 1: bad capacity.*{re.escape(shown)}$"):
        parse_routes_json(s(f"[{ok}, {bad}]"))


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


def test_parse_country_econ_short_row():
    with pytest.raises(DataError, match="countries line 2: needs country_code"):
        parse_country_econ(s("gdp_usd,country_code\n5\n"))


def test_parse_bilateral_short_row():
    with pytest.raises(DataError, match="bilateral line 2: needs country_i and country_j"):
        parse_bilateral(s("country_i,btv_usd,country_j\nAAA,5\n"))


@pytest.mark.parametrize("parse, text, needle", [
    (parse_country_econ, "country_code,gdp_usd,lsci\nAAA,5\n", "countries line 2: short row, no lsci"),
    (parse_bilateral, "country_i,country_j,btv_usd,lsbci\nAAA,AAB,5\n",
     "bilateral line 2: short row, no lsbci"),
    (lambda f: parse_routes(s(ROUTES), f), "route_id,capacity_teu\nR1\n",
     "routes_meta line 2: short row, no capacity_teu"),
])
def test_short_row_missing_an_optional_field(parse, text, needle):
    # a blank field is missing data; a missing field is a malformed row
    with pytest.raises(DataError, match=needle):
        parse(s(text))


def test_parse_routes_meta_short_row():
    with pytest.raises(DataError, match="routes_meta line 2: needs route_id"):
        parse_routes(s(ROUTES), s("capacity_teu,route_id\n5\n"))


# the non-finite numbers of Python's json module; a quoted "nan" is a string,
# which is not a capacity
JSON_NUMBER = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


@pytest.mark.parametrize("cap", ["nan", "inf"])
def test_non_finite_capacity(cap):
    with pytest.raises(DataError, match="non-finite capacity"):
        parse_routes(s(ROUTES), s(f"route_id,capacity_teu\nR1,{cap}\n"))
    with pytest.raises(DataError, match="non-finite capacity"):
        parse_routes_json(
            s(f'[{{"route_id": "R1", "capacity_teu": {JSON_NUMBER[cap]}, "ports": ["A", "B"]}}]')
        )
    with pytest.raises(DataError, match="non-finite capacity"):
        ServiceRoute("R1", ("A", "B"), float(cap))


@pytest.mark.parametrize("cap", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("rid", ["R1", "R9"])  # R9 is in routes_meta only
def test_non_finite_capacity_names_its_line(rid, cap):
    meta = f"route_id,capacity_teu\nR2,5\n{rid},{cap}\n"
    with pytest.raises(DataError,
                       match=f"^routes_meta line 3: route '{rid}': non-finite capacity {cap}$"):
        parse_routes(s(ROUTES), s(meta))
    ok = '{"route_id": "R2", "ports": ["A", "B"]}'
    bad = f'{{"route_id": "{rid}", "capacity_teu": {JSON_NUMBER[cap]}, "ports": ["A", "B"]}}'
    with pytest.raises(DataError,
                       match=f"^routes json entry 1: route '{rid}': non-finite capacity {cap}$"):
        parse_routes_json(s(f"[{ok}, {bad}]"))


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


COUNTRY_COLUMNS = ("trade_value_usd", "export_usd", "import_usd", "gdp_usd", "lsci",
                   "capital_lat", "capital_lon", "trade_value_change_usd")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", " NaN "])
@pytest.mark.parametrize("column", COUNTRY_COLUMNS)
def test_non_finite_country_value_names_line_and_column(column, value):
    header = "country_code," + ",".join(COUNTRY_COLUMNS)
    good = "XXA," + ",".join("1" for _ in COUNTRY_COLUMNS)
    bad = "XXB," + ",".join(value if c == column else "1" for c in COUNTRY_COLUMNS)
    with pytest.raises(DataError, match=f"^countries line 3: country 'XXB': non-finite {column}$"):
        parse_country_econ(s(f"{header}\n{good}\n{bad}\n"))


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("column", ["btv_usd", "lsbci"])
def test_non_finite_bilateral_value_names_line_and_column(column, value):
    row = {"btv_usd": "100", "lsbci": "0.5", column: value}
    text = f"country_i,country_j,btv_usd,lsbci\nX,Y,5,\nX,Z,{row['btv_usd']},{row['lsbci']}\n"
    # the record names btv_usd by its meaning, "trade value"
    what = {"btv_usd": "trade value", "lsbci": "lsbci"}[column]
    with pytest.raises(DataError,
                       match=fr"^bilateral line 3: bilateral pair \(X, Z\): non-finite {what}$"):
        parse_bilateral(s(text))


@pytest.mark.parametrize("cap", [float("nan"), float("inf"), float("-inf")])
def test_records_check_finiteness_before_sign(cap):
    with pytest.raises(DataError, match=f"^route 'R1': non-finite capacity {cap}$"):
        ServiceRoute("R1", ("A", "B"), cap)
    with pytest.raises(DataError, match=r"^bilateral pair \(X, Y\): non-finite trade value$"):
        BilateralRecord("X", "Y", cap)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("column", COUNTRY_COLUMNS)
def test_country_record_refuses_non_finite_values(column, value):
    with pytest.raises(DataError, match=f"^country 'XXA': non-finite {column}$"):
        CountryEcon("XXA", **{column: value})


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_bilateral_record_refuses_non_finite_lsbci(value):
    with pytest.raises(DataError, match=r"^bilateral pair \(X, Y\): non-finite lsbci$"):
        BilateralRecord("X", "Y", 1.0, lsbci=value)


@pytest.mark.parametrize("make, error", [
    (lambda: Port("", "x", "XXA"), "port_id must be non-empty"),
    (lambda: CountryEcon("XXA", capital_lat=90.5), "country 'XXA': latitude out of range"),
    (lambda: CountryEcon("XXA", capital_lon=-181.0), "country 'XXA': longitude out of range"),
    (lambda: BilateralRecord("X", "X", 1.0), "bilateral record 'X': countries must differ"),
    (lambda: BilateralRecord("X", "Y", -1.0), "bilateral pair (X, Y): negative trade value"),
], ids=["empty-port-id", "latitude", "longitude", "same-countries", "negative-trade"])
def test_record_value_rules(make, error):
    with pytest.raises(DataError, match=f"^{re.escape(error)}$"):
        make()


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


@pytest.mark.parametrize("parse, text, needle", [
    (parse_country_econ, "country_code,gdp,trade_value_usd\nAAA,5,6\n",
     "countries: unknown columns ['gdp']"),
    (parse_country_econ, "country_code,lsci,\nAAA,5,\n", "countries: unknown columns ['']"),
    (parse_bilateral, "country_i,country_j,btv_usd,lsbic\nAAA,AAB,5,1\n",
     "bilateral: unknown columns ['lsbic']"),
])
def test_unknown_column_raises_naming_it(parse, text, needle):
    # the optional columns may be left out, but a misspelled one is not read
    # as a column of missing data
    with pytest.raises(DataError, match=re.escape(needle)):
        parse(s(text))


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


def test_roundtrip_quotes_a_comma_a_quote_and_a_line_break():
    ports = [Port("P,1", 'The "One"', "XXA"), Port("P2", "Two\nlines", "XXB")]
    assert parse_ports(s(dataset_io.ports_csv(ports))) == ports
    routes = [ServiceRoute("R,1", ("P,1", "P2"), 5.0)]
    again = parse_routes(
        s(dataset_io.routes_csv(routes)), s(dataset_io.routes_meta_csv(routes))
    )
    assert again == routes


def test_carriage_return_in_a_field_is_refused():
    # csv.writer quotes a bare \r on some Python versions only, and the
    # parsers' universal newlines would read it as a line break
    ports = [Port("P1", "One", "XXA"), Port("P2", "Two\rlines", "XXB")]
    with pytest.raises(DataError, match=re.escape(
            r"line 3 column 'name': cannot write the carriage return in 'Two\rlines'")):
        dataset_io.ports_csv(ports)


# each CSV file: its parser, header, two good rows, and a bad row with its error
CSV_FILES = {
    "routes": (parse_routes, "route_id,seq,port_id", "R1,1,A", "R1,2,B", "R1,x,C",
               "bad seq 'x'"),
    "routes_meta": (lambda f: parse_routes(s(ROUTES), f), "route_id,capacity_teu",
                    "R1,600", "R2,700", "R3,-5", "route 'R3': negative capacity -5.0"),
    "ports": (parse_ports, "port_id,name,country_code", "P1,One,XXA", "P2,Two,XXB",
              "P3,Three,", "port 'P3': country_code must be non-empty"),
    "countries": (parse_country_econ, "country_code,capital_lat", "XXA,1", "XXB,2",
                  "XXC,91", "country 'XXC': latitude out of range"),
    "bilateral": (parse_bilateral, "country_i,country_j,btv_usd", "X,Y,1", "X,Z,2",
                  "Y,Y,3", "bilateral record 'Y': countries must differ"),
}


@pytest.mark.parametrize("gap", ["blank line", "quoted line break"])
@pytest.mark.parametrize("name", CSV_FILES)
def test_error_names_the_physical_line(name, gap):
    # the bad row follows a blank line (line 3), or the second good row with
    # a line break in its quoted last field (lines 3 and 4)
    parse, header, first, second, bad, error = CSV_FILES[name]
    head, _, last = second.rpartition(",")
    middle, line = ("", 4) if gap == "blank line" else (f'{head},"{last}\n"', 5)
    with pytest.raises(DataError, match=f"^{name} line {line}: {re.escape(error)}$"):
        parse(s(f"{header}\n{first}\n{middle}\n{bad}\n"))


@pytest.mark.parametrize("extra", [",1", ","], ids=["field", "trailing-comma"])
@pytest.mark.parametrize("name", CSV_FILES)
def test_row_longer_than_its_header_raises(name, extra):
    # csv would file the extra field under None and the row would parse
    parse, header, first, *_ = CSV_FILES[name]
    width = header.count(",") + 1
    with pytest.raises(DataError,
                       match=f"^{name} line 3: {width + 1} fields, the header has {width}$"):
        parse(s(f"{header}\n{first}\n{first}{extra}\n"))


def test_field_with_an_unquoted_comma_is_not_read_as_the_next_column():
    with pytest.raises(DataError, match="^ports line 2: 4 fields, the header has 3$"):
        parse_ports(s("port_id,name,country_code\nP1,Port, Inc,AAA\n"))


@pytest.mark.parametrize("name", CSV_FILES)
def test_leading_byte_order_mark_is_dropped(name):
    # as some editors save UTF-8: the mark would open the first column's name
    parse, header, first, second, bad, error = CSV_FILES[name]
    text = f"{header}\n{first}\n{second}\n"
    assert parse(s("\ufeff" + text)) == parse(s(text))
    with pytest.raises(DataError, match=f"^{name} line 4: {re.escape(error)}$"):
        parse(s(f"\ufeff{text}{bad}\n"))


@pytest.mark.parametrize("name", CSV_FILES)
def test_empty_file_raises(name):
    with pytest.raises(DataError, match=f"^{name}: empty file, header row required$"):
        CSV_FILES[name][0](s(""))


@pytest.mark.parametrize("text, error", [
    ('{"route_id": "R1", "ports": ["A", "B"]}', "routes json: top level must be an array"),
    ('[{"route_id": "R1"}]', "routes json entry 0: missing 'ports'"),
    ('[{"route_id": "R1", "ports": ["A", "B"]}, {"route_id": "R1", "ports": ["B", "C"]}]',
     "routes json: duplicate route_id 'R1'"),
], ids=["not-an-array", "missing-key", "duplicate-route"])
def test_parse_routes_json_structure(text, error):
    with pytest.raises(DataError, match=f"^{re.escape(error)}$"):
        parse_routes_json(s(text))


def test_only_rows_reads_csv():
    # every CSV row passes through ingest._rows, which numbers it by its
    # physical line and checks its width; every use of a csv reader counts
    found = Counter()
    for path in sorted(Path(glsn.__file__).parent.glob("*.py")):
        uses = _CsvReaderUses(path)
        uses.visit(ast.parse(path.read_text(), str(path)))
        found += uses.found
    assert dict(found) == {("ingest.py", "_rows"): 1}


_CSV_READERS = {"reader", "DictReader", "*"}


class _CsvReaderUses(_Scoped):
    """Counts the uses of csv.reader and csv.DictReader, and their imports
    from csv, by file and innermost function."""

    def __init__(self, path: Path):
        super().__init__()
        self.path = path

    def visit_Attribute(self, node):
        if (isinstance(node.value, ast.Name) and node.value.id == "csv"
                and node.attr in _CSV_READERS):
            self.found[(self.path.name, self.where[-1])] += 1
        self.generic_visit(node)

    def visit_ImportFrom(self, node):
        if node.module == "csv" and any(a.name in _CSV_READERS for a in node.names):
            self.found[(self.path.name, self.where[-1])] += 1
