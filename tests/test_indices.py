import math
from fractions import Fraction

import numpy as np
import pytest

from glsn.indices import (
    L_VALUES,
    country_connectivity,
    country_freeman,
    glsn_betweenness,
    glsn_betweenness_exact,
    glsn_betweenness_profile,
    port_betweenness,
    valid_shortest_path_profile,
)
from glsn.model import DataError
from glsn.oracle import all_shortest_paths, glsn_betweenness_oracle, port_betweenness_oracle

from conftest import make_glsn, random_glsn


class TestConnectivity:
    def test_domestic_edge_excluded(self):
        g = make_glsn(
            {"P1": "X", "P2": "X", "F1": "A", "F2": "B"},
            [("P1", "F1", 2), ("P2", "F2", 3), ("P1", "P2", 7)],
        )
        gc, gc_norm = country_connectivity(g)
        assert gc["X"] == 5
        assert gc_norm["X"] == 2.5

    def test_no_foreign_edges(self):
        g = make_glsn({"P1": "X", "P2": "X", "F1": "A"}, [("P1", "P2", 4)])
        gc, _ = country_connectivity(g)
        assert gc["X"] == 0
        assert gc["A"] == 0

    def test_matches_edge_scan_oracle_on_random_graph(self):
        rng = np.random.default_rng(7)
        ports = {f"P{i}": f"C{i % 3}" for i in range(10)}
        names = sorted(ports)
        edges = [
            (names[i], names[j], float(rng.uniform(0.5, 5)))
            for i in range(10)
            for j in range(i + 1, 10)
            if rng.random() < 0.4
        ]
        g = make_glsn(ports, edges)
        gc, _ = country_connectivity(g)
        for country in {"C0", "C1", "C2"}:
            expected = sum(
                w for (u, v, w) in edges
                if (ports[u] == country) != (ports[v] == country)
            )
            assert gc[country] == pytest.approx(expected, abs=1e-9)


class TestValidShortestPathProfile:
    def test_unique_foreign_intermediate(self, chain_graph):
        n_st, delta = valid_shortest_path_profile(chain_graph, "s", "t", 2)
        assert n_st == 1
        assert delta == {"Z": 1}

    def test_direct_edge_is_valid_with_no_intermediates(self):
        g = make_glsn({"s": "X", "t": "Y"}, [("s", "t")])
        n_st, delta = valid_shortest_path_profile(g, "s", "t", 2)
        assert (n_st, delta) == (1, {})

    def test_tie_between_two_intermediates(self):
        g = make_glsn(
            {"s": "X", "m1": "Z", "m2": "W", "t": "Y"},
            [("s", "m1"), ("m1", "t"), ("s", "m2"), ("m2", "t")],
        )
        n_st, delta = valid_shortest_path_profile(g, "s", "t", 2)
        assert n_st == 2
        assert delta == {"Z": 1, "W": 1}

    def test_intermediate_in_endpoint_country_invalid(self):
        g = make_glsn({"s": "X", "m": "X", "t": "Y"}, [("s", "m"), ("m", "t")])
        n_st, delta = valid_shortest_path_profile(g, "s", "t", 2)
        assert (n_st, delta) == (0, {})

    def test_beyond_lmax_contributes_nothing(self):
        g = make_glsn(
            {"s": "X", "a": "Z", "b": "W", "t": "Y"},
            [("s", "a"), ("a", "b"), ("b", "t")],
        )
        assert valid_shortest_path_profile(g, "s", "t", 2)[0] == 0
        assert valid_shortest_path_profile(g, "s", "t", 3)[0] == 1

    def test_same_country_endpoints_error(self):
        g = make_glsn({"s": "X", "t": "X"}, [("s", "t")])
        with pytest.raises(DataError):
            valid_shortest_path_profile(g, "s", "t", 2)

    def test_disconnected_pair(self):
        g = make_glsn({"s": "X", "t": "Y"}, [])
        assert valid_shortest_path_profile(g, "s", "t", 5) == (0, {})

    def test_two_intermediates_same_foreign_country_count_once(self):
        g = make_glsn(
            {"s": "X", "a": "Z", "b": "Z", "t": "Y"},
            [("s", "a"), ("a", "b"), ("b", "t")],
        )
        n_st, delta = valid_shortest_path_profile(g, "s", "t", 3)
        assert n_st == 1
        assert delta == {"Z": 1}


class TestGlsnBetweenness:
    def test_chain(self, chain_graph):
        gb = glsn_betweenness(chain_graph, 2)
        assert gb == {"X": 0.0, "Y": 0.0, "Z": 1.0}

    def test_tie_splits_credit(self):
        g = make_glsn(
            {"s": "X", "m1": "Z", "m2": "W", "t": "Y"},
            [("s", "m1"), ("m1", "t"), ("s", "m2"), ("m2", "t")],
        )
        gb = glsn_betweenness(g, 2)
        assert gb["Z"] == pytest.approx(0.5)
        assert gb["W"] == pytest.approx(0.5)

    def test_matches_oracle_small_sample(self):
        for seed in range(20):
            g = random_glsn(seed)
            for l_max in (2, 3, 4, 5):
                fast = glsn_betweenness(g, l_max)
                slow = glsn_betweenness_oracle(g, l_max)
                for c in slow:
                    assert fast[c] == pytest.approx(slow[c], abs=1e-9), (seed, l_max, c)

    def test_monotone_in_lmax(self):
        for seed in range(20):
            g = random_glsn(seed)
            profile = glsn_betweenness_profile(g, (2, 3, 4, 5))
            for k in (2, 3, 4):
                for c in profile[k]:
                    assert profile[k + 1][c] >= profile[k][c] - 1e-12

    def test_isolated_port_changes_nothing(self):
        g = make_glsn(
            {"s": "X", "m": "Z", "t": "Y"}, [("s", "m"), ("m", "t")]
        )
        g2 = make_glsn(
            {"s": "X", "m": "Z", "t": "Y", "iso": "Z"}, [("s", "m"), ("m", "t")]
        )
        assert glsn_betweenness(g, 2) == glsn_betweenness(g2, 2)

    def test_relabeling_permutes_values(self):
        g = random_glsn(3)
        mapping = {p: f"Q{p}" for p in g.country_of}
        g2 = make_glsn(
            {mapping[p]: c for p, c in g.country_of.items()},
            [(mapping[u], mapping[v], w) for (u, v), w in g.edges.items()],
        )
        assert glsn_betweenness(g, 3) == glsn_betweenness(g2, 3)


def _literal_gb(g, l_max):
    """gb as exact Fractions, one term per pair from its listed shortest paths."""
    totals = {c: Fraction(0) for c in set(g.country_of.values())}
    nodes = g.nodes()
    for i, s in enumerate(nodes):
        for t in nodes[i + 1:]:
            ends = {g.country_of[s], g.country_of[t]}
            if len(ends) == 1:
                continue
            inters = [
                {g.country_of[p] for p in path[1:-1]}
                for path in all_shortest_paths(g, s, t)
                if len(path) - 1 <= l_max
            ]
            valid = [inter for inter in inters if not inter & ends]
            for c in totals:
                k = sum(c in inter for inter in valid)
                if k:
                    totals[c] += Fraction(k, len(valid))
    return totals


class TestGlsnBetweennessExact:
    @pytest.mark.parametrize("seed", [*range(20), *range(50, 60)])
    def test_equals_literal_enumeration(self, seed):
        g = random_glsn(seed)
        literal = {l: _literal_gb(g, l) for l in L_VALUES}
        for l in L_VALUES:
            assert glsn_betweenness_exact(g, (l,)) == {l: literal[l]}, l
        assert glsn_betweenness_exact(g, L_VALUES) == literal


class TestPortBetweenness:
    def test_path(self):
        g = make_glsn({"P1": "A", "P2": "B", "P3": "C"}, [("P1", "P2"), ("P2", "P3")])
        b = port_betweenness(g)
        assert b == {"P1": 0.0, "P2": 1.0, "P3": 0.0}

    def test_star(self):
        g = make_glsn(
            {"c": "A", "l1": "B", "l2": "C", "l3": "D"},
            [("c", "l1"), ("c", "l2"), ("c", "l3")],
        )
        assert port_betweenness(g)["c"] == 3.0

    def test_complete_graph_all_zero(self):
        nodes = {f"P{i}": "A" for i in range(5)}
        names = sorted(nodes)
        edges = [(u, v) for i, u in enumerate(names) for v in names[i + 1:]]
        assert all(v == 0.0 for v in port_betweenness(make_glsn(nodes, edges)).values())

    def test_matches_oracle_small_sample(self):
        for seed in range(20):
            g = random_glsn(seed + 1000)
            fast = port_betweenness(g)
            slow = port_betweenness_oracle(g)
            for p in slow:
                assert fast[p] == pytest.approx(slow[p], abs=1e-9), (seed, p)


class TestCountryFreeman:
    def test_sum_and_mean(self):
        fb, fb_norm = country_freeman({"p": 1.0, "q": 3.0}, {"p": "X", "q": "X"})
        assert fb["X"] == 4.0
        assert fb_norm["X"] == 2.0

    def test_all_zero(self):
        fb, _ = country_freeman({"p": 0.0, "q": 0.0}, {"p": "X", "q": "X"})
        assert fb["X"] == 0.0

    def test_single_port_country(self):
        fb, fb_norm = country_freeman({"p": 2.5}, {"p": "X"})
        assert fb["X"] == fb_norm["X"] == 2.5


class TestOracleSelfChecks:
    def test_oracle_reproduces_trivial_gb_examples(self, chain_graph):
        assert glsn_betweenness_oracle(chain_graph, 2) == {"X": 0.0, "Y": 0.0, "Z": 1.0}
        tie = make_glsn(
            {"s": "X", "m1": "Z", "m2": "W", "t": "Y"},
            [("s", "m1"), ("m1", "t"), ("s", "m2"), ("m2", "t")],
        )
        gb = glsn_betweenness_oracle(tie, 2)
        assert gb["Z"] == 0.5 and gb["W"] == 0.5

    def test_oracle_reproduces_trivial_fb_examples(self):
        path = make_glsn({"P1": "A", "P2": "B", "P3": "C"}, [("P1", "P2"), ("P2", "P3")])
        assert port_betweenness_oracle(path)["P2"] == 1.0
        star = make_glsn(
            {"c": "A", "l1": "B", "l2": "C", "l3": "D"},
            [("c", "l1"), ("c", "l2"), ("c", "l3")],
        )
        assert port_betweenness_oracle(star)["c"] == 3.0

    def test_oracle_refuses_large_graph(self):
        nodes = {f"P{i:02d}": "A" for i in range(17)}
        g = make_glsn(nodes, [])
        with pytest.raises(DataError, match="16"):
            port_betweenness_oracle(g)


class TestEndpointCountryInvariant:
    def test_gb_gets_no_credit_from_own_pairs(self):
        for seed in range(10):
            g = random_glsn(seed + 50)
            # remove one country entirely, recompute: its gb must only come
            # from pairs it mediates, never from pairs it terminates
            gb = glsn_betweenness(g, 5)
            for c, val in gb.items():
                assert val >= 0
            # spot-check via the oracle's literal definition
            slow = glsn_betweenness_oracle(g, 5)
            for c in slow:
                assert gb[c] == pytest.approx(slow[c], abs=1e-9)
