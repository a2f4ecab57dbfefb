import math
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glsn.fixture import generate
from glsn.graph import (
    WeightScheme,
    build_glsn,
    edge_list_rows,
    graph_stats,
    route_edge_weight,
)
from glsn.model import DataError, Port, ServiceRoute

PORTS = [Port(p, p.lower(), c) for p, c in
         [("A", "XXA"), ("B", "XXB"), ("C", "XXC"), ("D", "XXD")]]


@pytest.mark.parametrize(
    "n,cap,scheme,expected",
    [
        (3, 600, WeightScheme.UNWEIGHTED, 1.0),
        (3, 600, WeightScheme.ONE, 1.0),
        (3, 600, WeightScheme.INV_N1, 0.5),
        (3, 600, WeightScheme.INV_PAIRS, 1 / 3),
        (3, 600, WeightScheme.CAP, 600.0),
        (3, 600, WeightScheme.CAP_N1, 300.0),
        (3, 600, WeightScheme.CAP_PAIRS, 200.0),
        (2, 100, WeightScheme.CAP_N1, 100.0),
    ],
)
def test_route_edge_weight(n, cap, scheme, expected):
    assert route_edge_weight(n, cap, scheme) == pytest.approx(expected)


def test_route_edge_weight_too_few_ports():
    with pytest.raises(DataError):
        route_edge_weight(1, 100, WeightScheme.ONE)


def test_route_edge_weight_missing_capacity():
    with pytest.raises(DataError, match="capacity"):
        route_edge_weight(3, None, WeightScheme.CAP_N1)


@pytest.mark.parametrize("calls, error", [
    (("A", "A"), "route 'R1': fewer than 2 distinct ports"),
    (("A", "Z"), "route 'R1': unknown port 'Z'"),
])
def test_unvalidated_route_error(calls, error):
    with pytest.raises(DataError, match=f"^{error}$"):
        build_glsn([ServiceRoute("R1", calls)], PORTS, WeightScheme.UNWEIGHTED)


def test_single_route_induces_clique():
    g = build_glsn([ServiceRoute("R1", ("A", "B", "C"))], PORTS, WeightScheme.UNWEIGHTED)
    assert set(g.edges) == {("A", "B"), ("A", "C"), ("B", "C")}


def test_unweighted_union_of_cliques():
    routes = [ServiceRoute("R1", ("A", "B", "C")), ServiceRoute("R2", ("B", "C", "D"))]
    g = build_glsn(routes, PORTS, WeightScheme.UNWEIGHTED)
    assert set(g.edges) == {("A", "B"), ("A", "C"), ("B", "C"), ("B", "D"), ("C", "D")}
    assert all(w == 1.0 for w in g.edges.values())


def test_weights_sum_across_routes():
    routes = [ServiceRoute("R1", ("A", "B", "C")), ServiceRoute("R2", ("A", "B"))]
    g = build_glsn(routes, PORTS, WeightScheme.ONE)
    assert g.edges[("A", "B")] == 2.0
    assert g.edges[("A", "C")] == 1.0
    assert g.edges[("B", "C")] == 1.0


@pytest.mark.parametrize("scheme", [s for s in WeightScheme
                                    if s is not WeightScheme.UNWEIGHTED])
def test_overlapping_weights_are_correctly_rounded_sums(scheme):
    # 200 routes over 100 ports: hundreds of pairs share routes, and on a few
    # of them a running sum rounds differently from the exact one
    ds = generate(7, n_ports=100, n_routes=200, n_countries=20)
    contributions = {}
    for r in ds.routes:
        distinct = sorted(r.distinct_ports)
        w = route_edge_weight(len(distinct), r.capacity_teu, scheme)
        for key in combinations(distinct, 2):
            contributions.setdefault(key, []).append(w)
    g = build_glsn(ds.routes, ds.ports, scheme)
    assert g.edges == {key: math.fsum(ws) for key, ws in sorted(contributions.items())}


def test_repeated_calls_no_self_loops_or_multiedges():
    g = build_glsn([ServiceRoute("R1", ("A", "B", "A", "C"))], PORTS, WeightScheme.ONE)
    assert ("A", "A") not in g.edges
    assert set(g.edges) == {("A", "B"), ("A", "C"), ("B", "C")}


def test_graph_stats_empty():
    g = build_glsn([], [], WeightScheme.UNWEIGHTED)
    assert graph_stats(g) == {"node_count": 0, "edge_count": 0, "ports_per_country": {}}


def test_graph_stats_clique():
    g = build_glsn([ServiceRoute("R1", ("A", "B", "C", "D"))], PORTS, WeightScheme.UNWEIGHTED)
    stats = graph_stats(g)
    assert stats["node_count"] == 4
    assert stats["edge_count"] == 6


def test_graph_stats_disjoint_triangles():
    ports = [Port(f"P{i}", "", "XXA" if i < 3 else "XXB") for i in range(6)]
    routes = [
        ServiceRoute("R1", ("P0", "P1", "P2")),
        ServiceRoute("R2", ("P3", "P4", "P5")),
    ]
    g = build_glsn(routes, ports, WeightScheme.UNWEIGHTED)
    stats = graph_stats(g)
    assert (stats["node_count"], stats["edge_count"]) == (6, 6)
    assert stats["ports_per_country"] == {"XXA": 3, "XXB": 3}


def test_edge_list_rows_sorted():
    routes = [ServiceRoute("R1", ("D", "A", "C"))]
    g = build_glsn(routes, PORTS, WeightScheme.UNWEIGHTED)
    rows = edge_list_rows(g)
    assert rows == sorted(rows)


route_strategy = st.lists(
    st.builds(
        lambda rid, ports: ServiceRoute(rid, tuple(ports)),
        st.uuids().map(str),
        st.lists(st.sampled_from(["A", "B", "C", "D"]), min_size=2, max_size=4, unique=True),
    ),
    max_size=6,
)


@settings(max_examples=50, deadline=None)
@given(route_strategy, st.randoms())
def test_permuting_route_order_is_bit_identical(routes, rnd):
    shuffled = list(routes)
    rnd.shuffle(shuffled)
    for scheme in (WeightScheme.ONE, WeightScheme.INV_PAIRS):
        g1 = build_glsn(routes, PORTS, scheme)
        g2 = build_glsn(shuffled, PORTS, scheme)
        assert g1.edges == g2.edges


@settings(max_examples=50, deadline=None)
@given(route_strategy, route_strategy)
def test_additivity_of_weights(routes1, routes2):
    ids1 = {r.route_id for r in routes1}
    routes2 = [r for r in routes2 if r.route_id not in ids1]
    combined = build_glsn(routes1 + routes2, PORTS, WeightScheme.INV_N1)
    g1 = build_glsn(routes1, PORTS, WeightScheme.INV_N1)
    g2 = build_glsn(routes2, PORTS, WeightScheme.INV_N1)
    for key in set(g1.edges) | set(g2.edges):
        expected = g1.edges.get(key, 0.0) + g2.edges.get(key, 0.0)
        assert combined.edges[key] == pytest.approx(expected, abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(route_strategy)
def test_all_schemes_share_edge_set(routes):
    routes = [
        ServiceRoute(r.route_id, r.port_calls, 100.0) for r in routes
    ]
    reference = set(build_glsn(routes, PORTS, WeightScheme.UNWEIGHTED).edges)
    for scheme in WeightScheme:
        assert set(build_glsn(routes, PORTS, scheme).edges) == reference
