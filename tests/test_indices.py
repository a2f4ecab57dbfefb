import functools
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import glsn.fork
import glsn.indices
from glsn.fixture import generate
from glsn.graph import Glsn, WeightScheme, build_glsn
from glsn.indices import (
    L_VALUES,
    _betweenness,
    build_index_table,
    country_connectivity,
    country_freeman,
    glsn_betweenness_exact,
    port_betweenness,
)
from glsn.ingest import parse_ports, parse_routes, validate_dataset
from glsn.model import DataError

from conftest import assert_no_child_and_mask, make_glsn, part_counts, random_glsn
from oracle import (
    all_shortest_paths,
    glsn_betweenness_oracle,
    port_betweenness_oracle,
    valid_shortest_path_profile,
)


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

    @pytest.mark.parametrize("s, t", [("s", "nowhere"), ("nowhere", "t")])
    def test_unknown_port_error_names_it(self, chain_graph, s, t):
        with pytest.raises(DataError, match="unknown port 'nowhere'"):
            valid_shortest_path_profile(chain_graph, s, t, 2)

    @pytest.mark.parametrize("l_max", [0, -1])
    def test_non_positive_cap_error(self, chain_graph, l_max):
        with pytest.raises(DataError, match="l_values must be positive"):
            valid_shortest_path_profile(chain_graph, "s", "t", l_max)

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
        gb = glsn_betweenness_exact(chain_graph, (2,))[2]
        assert gb == {"X": 0.0, "Y": 0.0, "Z": 1.0}

    def test_tie_splits_credit(self):
        g = make_glsn(
            {"s": "X", "m1": "Z", "m2": "W", "t": "Y"},
            [("s", "m1"), ("m1", "t"), ("s", "m2"), ("m2", "t")],
        )
        gb = glsn_betweenness_exact(g, (2,))[2]
        assert gb["Z"] == pytest.approx(0.5)
        assert gb["W"] == pytest.approx(0.5)

    def test_matches_oracle_small_sample(self):
        for seed in range(20):
            g = random_glsn(seed)
            for l_max in (2, 3, 4, 5):
                fast = glsn_betweenness_exact(g, (l_max,))[l_max]
                slow = glsn_betweenness_oracle(g, l_max)
                for c in slow:
                    assert fast[c] == pytest.approx(slow[c], abs=1e-9), (seed, l_max, c)

    def test_monotone_in_lmax(self):
        for seed in range(20):
            g = random_glsn(seed)
            profile = glsn_betweenness_exact(g, (2, 3, 4, 5))
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
        assert glsn_betweenness_exact(g, (2,))[2] == glsn_betweenness_exact(g2, (2,))[2]

    def test_relabeling_permutes_values(self):
        g = random_glsn(3)
        mapping = {p: f"Q{p}" for p in g.country_of}
        g2 = make_glsn(
            {mapping[p]: c for p, c in g.country_of.items()},
            [(mapping[u], mapping[v], w) for (u, v), w in g.edges.items()],
        )
        assert glsn_betweenness_exact(g, (3,))[3] == glsn_betweenness_exact(g2, (3,))[3]


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

    @pytest.mark.parametrize("caps", [(0,), (), (2, -1)])
    def test_no_cap_or_a_non_positive_one_error(self, chain_graph, caps):
        with pytest.raises(DataError, match="^l_values must be positive$"):
            glsn_betweenness_exact(chain_graph, caps)
        with pytest.raises(DataError, match="^l_values must be positive$"):
            build_index_table(chain_graph, chain_graph, caps)


def _two_components_and_isolated(seed):
    """Disjoint union of two random graphs plus an isolated port of its own country."""
    a, b = random_glsn(seed, edge_prob=0.25), random_glsn(seed + 1000, edge_prob=0.25)
    country_of = {**a.country_of, **{f"Q{p}": c for p, c in b.country_of.items()}, "Z": "C9"}
    edges = [*a.edges, *((f"Q{u}", f"Q{v}") for u, v in b.edges)]
    return make_glsn(country_of, edges)


def _in_process(fn, parts):
    """`fork.run_parts` with every worker's part run in this process, so
    that its batches are seen."""
    return [fn(part) for part in parts]


@functools.cache
def _seed55_graph():
    return _fixture_graph(55, 300, 100, 30)


@functools.cache
def _default_pass(graph):
    """repr of build_index_table and of gb alone, at the default batch size
    and worker count."""
    g = _two_components_and_isolated(3) if graph == "two_components" else _seed55_graph()
    return repr(build_index_table(g, g)), repr(glsn_betweenness_exact(g))


class TestSharedPass:
    """build_index_table takes gb and fb from one BFS per port; each must
    equal what the gb-only and fb-only callers compute."""

    @pytest.mark.parametrize("caps", [L_VALUES, (1,), (3,)])
    @pytest.mark.parametrize("seed", range(15))
    def test_table_equals_separate_indices(self, seed, caps):
        g = _two_components_and_isolated(seed)
        table = build_index_table(g, g, caps)
        exact = glsn_betweenness_exact(g, caps)
        assert table.gb == {l: {c: float(x) for c, x in gb.items()} for l, gb in exact.items()}
        fb, fb_norm = country_freeman(port_betweenness(g), g.country_of)
        assert repr(table.fb) == repr(fb)
        assert repr(table.fb_norm) == repr(fb_norm)

    def test_one_bfs_per_port(self, monkeypatch):
        batches = []
        batch = glsn.indices._batch

        def counted(a, src, *args):
            batches.append([a.ports[s] for s in src.tolist()])
            return batch(a, src, *args)

        g = _two_components_and_isolated(3)
        # batches of three sources over three workers
        per_source = len(g.country_of) + 2 * len(g.edges)
        monkeypatch.setattr(glsn.indices, "_BATCH_ELEMENTS", 3 * per_source + 1)
        monkeypatch.setattr(glsn.fork, "worker_count", lambda: 3)
        monkeypatch.setattr(glsn.fork, "run_parts", _in_process)
        monkeypatch.setattr(glsn.indices, "_batch", counted)
        build_index_table(g, g)
        assert sorted(p for b in batches for p in b) == g.nodes()
        assert max(map(len, batches)) == 3 and len(batches) > 3

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("per_batch", [1, 3, "block"])
    @pytest.mark.parametrize("graph", ["two_components", "seed55"])
    def test_any_batch_size_gives_the_same_bits(self, monkeypatch, graph, per_batch, workers):
        # gb's counts are ints and fb sums each port once with fsum, so how
        # the sources are cut into batches and blocks changes no bit
        g = _two_components_and_isolated(3) if graph == "two_components" else _seed55_graph()
        n = len(g.country_of)
        per_source = n + 2 * len(g.edges)
        block = -(-n // workers)
        sizes = []
        batch = glsn.indices._batch

        def counted(a, src, *args):
            sizes.append(src.size)
            return batch(a, src, *args)

        monkeypatch.setattr(glsn.indices, "_BATCH_ELEMENTS",
                            (block if per_batch == "block" else per_batch) * per_source)
        monkeypatch.setattr(glsn.fork, "worker_count", lambda: workers)
        monkeypatch.setattr(glsn.fork, "run_parts", _in_process)
        monkeypatch.setattr(glsn.indices, "_batch", counted)
        table, gb = _default_pass(graph)
        assert repr(build_index_table(g, g)) == table
        assert repr(glsn_betweenness_exact(g)) == gb
        assert max(sizes) == (block if per_batch == "block" else per_batch)


def _relabel(g, country, prefix=""):
    """g with port p renamed prefix + p and country c renamed country[c],
    ports and edges inserted in reverse sorted order."""
    ports = sorted(g.country_of, reverse=True)
    return Glsn(
        scheme=g.scheme,
        country_of={prefix + p: country[g.country_of[p]] for p in ports},
        edges={(prefix + u, prefix + v): w for (u, v), w in sorted(g.edges.items(), reverse=True)},
    )


def _union(parts):
    """Disjoint union of graphs with distinct port ids."""
    return make_glsn(
        {p: c for part in parts for p, c in part.country_of.items()},
        [e for part in parts for e in part.edges],
    )


class TestIntView:
    """The kernel's integer arrays (`_Arrays`) number ports and countries in
    sorted order; the indices must not depend on that numbering, however
    many countries there are and in whatever order the graph lists them."""

    @staticmethod
    def assert_matches_oracles(g, parts):
        """`g` is the disjoint union of `parts`, which share no country, so
        the oracles, run on each part, merge exactly."""
        gb = {l: {} for l in L_VALUES}
        b = {}
        for part in parts:
            for l in L_VALUES:
                gb[l].update(glsn_betweenness_oracle(part, l))
            b.update(port_betweenness_oracle(part))
        table = build_index_table(g, g)
        for l in L_VALUES:
            assert table.gb[l] == gb[l], l
        fb, _ = country_freeman(b, g.country_of)
        assert table.fb == pytest.approx(fb, abs=1e-9)
        assert port_betweenness(g) == pytest.approx(b, abs=1e-9)

    @pytest.mark.parametrize("seed", range(3))
    def test_more_countries_than_bits_in_a_word(self, seed):
        # five 16-port parts over 70 countries, interleaved in sorted order,
        # so intermediate-country masks reach bit 69
        codes = [f"K{j:02d}" for j in range(70)]
        parts = []
        for i in range(5):
            edges = random_glsn(100 * seed + i, max_nodes=16, edge_prob=0.25).edges
            part = make_glsn({f"P{k:02d}": f"C{k}" for k in range(16)}, list(edges))
            own = {f"C{k}": codes[i + 5 * (k % 14)] for k in range(16)}
            parts.append(_relabel(part, own, prefix=f"G{i}"))
        g = _union(parts)
        assert len(set(g.country_of.values())) == 70
        self.assert_matches_oracles(g, parts)

    @pytest.mark.parametrize("seed", range(10))
    def test_insertion_order_differs_from_sorted_order(self, seed):
        g = random_glsn(seed + 200, edge_prob=0.5)
        # the first country seen gets the last name in sorted order
        seen = dict.fromkeys(g.country_of[p] for p in sorted(g.country_of, reverse=True))
        g = _relabel(g, dict(zip(seen, ["ZZ", "MM", "BB", "AA"])))
        assert list(g.country_of) != g.nodes()
        first_seen = list(dict.fromkeys(g.country_of.values()))
        assert first_seen != sorted(first_seen)
        assert list(g.edges) != sorted(g.edges)
        self.assert_matches_oracles(g, [g])
        in_order = make_glsn(dict(sorted(g.country_of.items())), list(g.edges))
        rows = build_index_table(in_order, in_order).csv_rows()
        assert repr(build_index_table(g, g).csv_rows()) == repr(rows)

    def test_arrays_list_the_graph_in_sorted_order(self):
        # ports, countries and edges all inserted out of sorted order; k is isolated
        g = Glsn(WeightScheme.UNWEIGHTED,
                 country_of={"q": "ZZ", "b": "MM", "x": "AA", "k": "MM", "a": "ZZ", "m": "BB"},
                 edges={("b", "q"): 1.0, ("a", "x"): 1.0, ("a", "b"): 1.0, ("m", "q"): 1.0,
                        ("b", "x"): 1.0})
        assert list(g.country_of) != g.nodes() and list(g.edges) != sorted(g.edges)
        a = glsn.indices._Arrays.of(g)
        assert a.ports == ["a", "b", "k", "m", "q", "x"]
        nbrs = g.neighbors()
        for i, p in enumerate(a.ports):
            mine = a.indices[a.start[i]:a.start[i] + a.degree[i]].tolist()
            assert mine == sorted(mine)
            assert [a.ports[j] for j in mine] == nbrs[p]
        assert a.countries == ["AA", "BB", "MM", "ZZ"]
        assert [a.countries[c] for c in a.country.tolist()] == [g.country_of[p] for p in a.ports]
        assert a.degree[a.ports.index("k")] == 0
        assert a.start.dtype == glsn.indices._int(a.indices.size) == np.int32
        assert a.degree.dtype == a.indices.dtype == a.country.dtype == np.int32

    @pytest.mark.parametrize("seed", range(10))
    def test_isolated_port_and_two_components(self, seed):
        parts = [make_glsn({"z": "E9"}, [])]
        for i, x in enumerate("ab"):
            names = {f"C{k}": f"{x}{k}" for k in range(4)}
            parts.append(_relabel(random_glsn(seed + 500 * i, max_nodes=7), names, x))
        self.assert_matches_oracles(_union(parts), parts)


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
            gb = glsn_betweenness_exact(g, (5,))[5]
            for c, val in gb.items():
                assert val >= 0
            # spot-check via the oracle's literal definition
            slow = glsn_betweenness_oracle(g, 5)
            for c in slow:
                assert gb[c] == pytest.approx(slow[c], abs=1e-9)


def _bit_view(g):
    """g on ints for the reference: port i is ports[i] (sorted), adj[i] lists
    its neighbours ascending, cbit[i] is its country's bit, and countries
    maps 1 << j to the j-th country code in sorted order."""
    ports, nbrs = g.nodes(), g.neighbors()
    index = {p: i for i, p in enumerate(ports)}
    countries = {1 << j: c for j, c in enumerate(sorted(set(g.country_of.values())))}
    bit = {c: b for b, c in countries.items()}
    adj = [[index[q] for q in nbrs[p]] for p in ports]
    return ports, countries, adj, [bit[g.country_of[p]] for p in ports]


def _reference_bfs(adj, cbit, s, depth_cap, fb):
    """The single-loop traversal the indices were first computed with: every
    profile is pushed along every shortest-path edge within depth_cap, and
    the backward sweep reads every adjacency entry again."""
    dist, sigma = [-1] * len(adj), [0] * len(adj)
    dist[s], sigma[s], order = 0, 1, [s]
    profiles = {s: {0: 1}}
    for v in order:
        dv = dist[v]
        if dv >= depth_cap and not fb:
            break
        d1, sv = dv + 1, sigma[v]
        profile = profiles[v] if dv < depth_cap else None
        cv = 0 if v == s else cbit[v]
        for w in adj[v]:
            dw = dist[w]
            if dw < 0:
                dist[w], sigma[w] = d1, sv
                order.append(w)
                if profile is not None:
                    profiles[w] = {}
            elif dw == d1:
                sigma[w] += sv
            else:
                continue
            if profile is not None:
                target = profiles[w]
                for mask, count in profile.items():
                    key = mask | cv
                    target[key] = target.get(key, 0) + count
    if not fb:
        return dist, profiles, None
    dep = [0.0] * len(adj)
    for w in reversed(order):
        dv, sw, xw = dist[w] - 1, sigma[w], 1.0 + dep[w]
        for v in adj[w]:
            if dist[v] == dv:
                dep[v] += sigma[v] / sw * xw
    dep[s] = 0.0
    return dist, profiles, dep


def _reference_valid_paths(profile, forbidden):
    n_st, delta = 0, {}
    for mask, count in profile.items():
        if mask & forbidden:
            continue
        n_st += count
        while mask:
            bit = mask & -mask
            delta[bit] = delta.get(bit, 0) + count
            mask ^= bit
    return n_st, delta


def _reference_betweenness(g, l_values):
    """(exact gb per cap, port betweenness) as first computed: one Fraction
    per (distance, country bit, n_st) bucket, every pair s < t from s."""
    ports, countries, adj, cbit = _bit_view(g)
    buckets, deps = {}, []
    for s, cs in enumerate(cbit):
        dist, profiles, dep = _reference_bfs(adj, cbit, s, max(l_values), True)
        for t, profile in profiles.items():
            if t <= s or cbit[t] == cs:
                continue
            n_st, delta = _reference_valid_paths(profile, cs | cbit[t])
            for bit, k in delta.items():
                key = (dist[t], bit, n_st)
                buckets[key] = buckets.get(key, 0) + k
        deps.append(dep)
    gb = {l_max: dict.fromkeys(countries.values(), Fraction(0)) for l_max in l_values}
    for (d, bit, n_st), k in buckets.items():
        for l_max, totals in gb.items():
            if d <= l_max:
                totals[countries[bit]] += Fraction(k, n_st)
    return gb, {p: math.fsum(ts) / 2.0 for p, ts in zip(ports, zip(*deps))}


def _route_graph(seed, n, k):
    """Seeded graph of n ports over min(n, k) countries: route cliques of 2-5
    ports within each of two components, plus at least one isolated port."""
    rng = np.random.default_rng(seed)
    codes = rng.permutation(np.arange(n) % k)  # every country has a port
    country_of = {f"P{i:03d}": f"K{c:02d}" for i, c in enumerate(codes)}
    names = sorted(country_of)
    edges = []
    for part in (names[: n // 2], names[n // 2: -1]):
        for _ in range(len(part) // 2):
            route = sorted(rng.choice(part, size=min(len(part), int(rng.integers(2, 6))),
                                      replace=False))
            edges += [(u, v) for i, u in enumerate(route) for v in route[i + 1:]]
    return make_glsn(country_of, edges)


def assert_matches_reference(g, caps):
    """gb ==, and fb, fb_norm and port betweenness repr-identical, to the
    reference on caps."""
    gb, b = _reference_betweenness(g, caps)
    assert glsn_betweenness_exact(g, caps) == gb
    table = build_index_table(g, g, caps)
    assert table.gb == {l: {c: float(x) for c, x in per.items()} for l, per in gb.items()}
    fb, fb_norm = country_freeman(b, g.country_of)
    assert repr(table.fb) == repr(fb)
    assert repr(table.fb_norm) == repr(fb_norm)
    assert repr(port_betweenness(g)) == repr(b)


class TestAgainstReference:
    """The three-pass traversal gives the bits of the single-loop one."""

    @pytest.mark.parametrize("caps", [(1,), (2,), (3,), (2, 4), L_VALUES])
    @pytest.mark.parametrize("seed, n, k", [
        (0, 20, 2), (1, 45, 30), (2, 80, 12), (3, 150, 40), (4, 120, 70), (5, 100, 5),
    ])
    def test_random_route_graphs(self, seed, n, k, caps):
        assert_matches_reference(_route_graph(seed, n, k), caps)

    def test_all_paths_through_source_country(self):
        # a-c runs only through b, a port of a's country: n_st is 0 for (a, c)
        g = make_glsn({"a": "X", "b": "X", "c": "Y", "d": "Z"},
                      [("a", "b"), ("b", "c"), ("c", "d")])
        assert valid_shortest_path_profile(g, "a", "c", 2) == (0, {})
        assert valid_shortest_path_profile(g, "c", "a", 2) == (0, {})
        assert glsn_betweenness_exact(g) == {l: _literal_gb(g, l) for l in L_VALUES}
        assert_matches_reference(g, L_VALUES)

    def test_source_country_port_on_the_way_to_some_targets_only(self):
        # from a, m (a's country) lies on a shortest path to t1 but not to t2
        g = make_glsn(
            {"a": "X", "m": "X", "z": "Z", "t1": "Y", "t2": "W"},
            [("a", "m"), ("a", "z"), ("m", "t1"), ("z", "t1"), ("z", "t2")],
        )
        assert valid_shortest_path_profile(g, "a", "t1", 2) == (1, {"Z": 1})
        assert valid_shortest_path_profile(g, "a", "t2", 2) == (1, {"Z": 1})
        assert glsn_betweenness_exact(g) == {l: _literal_gb(g, l) for l in L_VALUES}
        assert_matches_reference(g, L_VALUES)

    @pytest.mark.parametrize("seed, n, k", [(8, 200, 130), (10, 150, 90)])
    def test_many_countries_and_a_deep_cap(self, seed, n, k):
        # country indices past 64; both graphs have valid pairs 7 hops apart,
        # with six intermediate ports
        g = _route_graph(seed, n, k)
        assert len(set(g.country_of.values())) == k
        assert_matches_reference(g, (2, 7))

    def test_country_bit_merges_two_masks(self):
        # the paths to w carry masks {W} and {W, Z}; adding w's bit Z makes
        # them one mask, whose counts must add up
        g = make_glsn(
            {"a": "X", "p": "W", "q": "Z", "r": "W", "u": "W", "w": "Z", "t": "Y"},
            [("a", "p"), ("p", "q"), ("q", "w"), ("a", "r"), ("r", "u"), ("u", "w"),
             ("w", "t")],
        )
        assert valid_shortest_path_profile(g, "a", "t", 4) == (2, {"W": 2, "Z": 2})
        assert glsn_betweenness_exact(g) == {l: _literal_gb(g, l) for l in L_VALUES}
        assert_matches_reference(g, L_VALUES)


def _diamonds(k):
    """Ports m000 .. m{k}, m{i-1} and m{i} joined through a{i} and b{i}: 2**k
    shortest paths from m000 to m{k}. Countries alternate along the chain."""
    country_of = {"m000": "C0"}
    edges = []
    for i in range(1, k + 1):
        country_of.update({f"a{i:03d}": f"C{i % 3}", f"b{i:03d}": f"C{i % 3}",
                           f"m{i:03d}": f"C{(i + 1) % 3}"})
        edges += [(f"m{i - 1:03d}", f"{x}{i:03d}") for x in "ab"]
        edges += [(f"{x}{i:03d}", f"m{i:03d}") for x in "ab"]
    return make_glsn(country_of, edges)


def _foreign_diamonds(k):
    """s, m000, then k diamonds like those of `_diamonds`, then t: 2**k
    shortest paths from s to t, every intermediate port in country A or B,
    neither that of s nor that of t."""
    country_of = {"s": "X", "t": "Y", "m000": "B"}
    edges = [("s", "m000"), (f"m{k:03d}", "t")]
    for i in range(1, k + 1):
        country_of.update({f"a{i:03d}": "A", f"b{i:03d}": "A", f"m{i:03d}": "B"})
        edges += [(f"m{i - 1:03d}", f"{x}{i:03d}") for x in "ab"]
        edges += [(f"{x}{i:03d}", f"m{i:03d}") for x in "ab"]
    return make_glsn(country_of, edges)


class TestPathCountLimit:
    """fb divides shortest-path counts as doubles, exact below 2**53; from
    there on it raises instead of losing bits."""

    def test_54_diamonds_raise(self):
        g = _diamonds(54)
        assert len(g.country_of) == 163
        with pytest.raises(DataError, match=r"^2\*\*53 or more shortest paths from port '"):
            port_betweenness(g)
        with pytest.raises(DataError, match=r"^2\*\*53 or more shortest paths"):
            build_index_table(g, g)
        # gb alone stops the BFS at its cap, where the counts are small
        assert glsn_betweenness_exact(g, (5,)) == _reference_betweenness(g, (5,))[0]

    def test_52_diamonds_keep_every_bit(self):
        g = _diamonds(52)
        assert repr(port_betweenness(g)) == repr(_reference_betweenness(g, (2,))[1])

    def test_gb_alone_counts_past_int64_exactly(self):
        # gb counts in integers only, so 2**64 valid shortest paths 130 hops
        # long raise nothing and give the reference's Fractions
        g = _foreign_diamonds(64)
        assert glsn_betweenness_exact(g, (130,)) == _reference_betweenness(g, (130,))[0]
        with pytest.raises(DataError, match=r"^2\*\*53 or more shortest paths"):
            port_betweenness(g)

    def test_group_sums_past_int64_stay_exact(self):
        keys, sums = glsn.indices._sum_by(np.array([3, 1, 3]), np.array([2**62, 7, 2**62]))
        assert keys.tolist() == [1, 3] and sums.tolist() == [7, 2**63]


_terms = st.floats(min_value=2**-53, max_value=2**62, exclude_max=True)


class TestExactSums:
    """fb sums each port's dep terms as 32-bit limbs on the grid of 2**-105
    and rounds once: the bits of math.fsum, which rounds the exact sum."""

    @staticmethod
    def summed(columns):
        """The columns as one array, the shorter padded with 0.0, summed."""
        terms = np.zeros((max(map(len, columns)), len(columns)))
        for j, column in enumerate(columns):
            terms[:len(column), j] = column
        return glsn.indices._round_limbs(glsn.indices._limb_sums(terms))

    def assert_fsum(self, *columns):
        assert [x.hex() for x in self.summed(columns)] == [math.fsum(c).hex() for c in columns]

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 40).flatmap(lambda rows: st.lists(
        st.lists(_terms | st.just(0.0), min_size=rows, max_size=rows), min_size=1, max_size=4)))
    def test_same_bits_as_fsum(self, columns):
        self.assert_fsum(*columns)

    def test_half_way_ties_round_to_even(self):
        self.assert_fsum([1.0, 2**-53], [1.0 + 2**-52, 2**-53], [2**-53, 1.0, 2**-53])
        assert self.summed([[1.0, 2**-53], [1.0 + 2**-52, 2**-53]]) == [1.0, 1.0 + 2**-51]

    def test_many_equal_terms(self):
        self.assert_fsum([0.1] * 10_000, [2**-53] * 4097, [299.0 / 3.0] * 1000)

    def test_both_ends_of_the_grid(self):
        top = math.ldexp(1.0 - 2**-53, 87)  # the largest double below 2**87
        self.assert_fsum([2**-105], [2**-105] * 3, [top, 2**-105], [top, top, 1.0])
        assert self.summed([[top, top]]) == [2 * top]

    def test_no_terms(self):
        assert self.summed([[], []]) == [0.0, 0.0]
        assert self.summed([[0.0, 0.0]]) == [0.0]

    @pytest.mark.parametrize("term", [2**-106, 3 * 2**-106, 2.0**87, 2.0**100, -1.0,
                                      math.inf, math.nan])
    def test_a_term_off_the_grid_raises(self, term):
        with pytest.raises(ValueError):
            glsn.indices._limb_sums(np.array([[1.0], [term]]))


def _path_graph():
    """p0 - p1 - ... - p5, in countries A, B, C, A, B, C."""
    return make_glsn({f"p{i}": "ABC"[i % 3] for i in range(6)},
                     [(f"p{i}", f"p{i + 1}") for i in range(5)])


def _needed_edges(g, cap):
    """Per source s, how many shortest-path DAG edges v -> w within the cap
    carry rows toward a counted target: w is needed, a target t > s in a
    country not s's or a port in a country not s's with an edge into a
    needed port, and v is s or a needed port reached along such edges."""
    nbrs, cof = g.neighbors(), g.country_of
    out = {}
    for s in sorted(cof):
        dist, levels = {s: 0}, [[s]]
        while levels[-1] and len(levels) <= cap:
            levels.append([])
            for v in levels[-2]:
                for w in nbrs[v]:
                    if w not in dist:
                        dist[w] = len(levels) - 1
                        levels[-1].append(w)
        edges = [(v, w) for v in dist for w in nbrs[v] if dist.get(w) == dist[v] + 1 <= cap]
        need = {w for w in dist if w > s and cof[w] != cof[s]}
        for v, w in sorted(edges, key=lambda e: -dist[e[0]]):
            if w in need and cof[v] != cof[s]:
                need.add(v)
        rows = {s}
        for v, w in sorted(edges, key=lambda e: dist[e[0]]):
            if v in rows and w in need:
                rows.add(w)
        out[s] = sum(v in rows and w in need for v, w in edges)
    return out


class TestGbPruning:
    """gb joins its rows only along the DAG edges that lead to a pair it
    counts; every other row would reach no counted target."""

    @staticmethod
    def joined(monkeypatch, g, per_batch=None):
        """gb alone at the default caps in one process: the edges each
        batch passes to `_gb_level`, by the batch's sources."""
        joined = {}
        batch, gb_level = glsn.indices._batch, glsn.indices._gb_level

        def at_batch(a, src, *args):
            joined[tuple(a.ports[s] for s in src.tolist())] = 0
            return batch(a, src, *args)

        def at_level(a, at_state, rows, masks, ev, ew, *args):
            joined[next(reversed(joined))] += ev.size
            return gb_level(a, at_state, rows, masks, ev, ew, *args)

        if per_batch is not None:
            monkeypatch.setattr(glsn.indices, "_BATCH_ELEMENTS", per_batch)
        monkeypatch.setattr(glsn.fork, "worker_count", lambda: 1)
        monkeypatch.setattr(glsn.indices, "_batch", at_batch)
        monkeypatch.setattr(glsn.indices, "_gb_level", at_level)
        assert glsn_betweenness_exact(g) == _reference_betweenness(g, L_VALUES)[0]
        return joined

    def test_path_graph(self, monkeypatch):
        # from p0 only p1 and p2 are reached through foreign ports; p3 is in
        # A, so no row passes it. The last source counts no pair at all
        joined = self.joined(monkeypatch, _path_graph(), per_batch=1)
        assert joined == {("p0",): 2, ("p1",): 2, ("p2",): 2, ("p3",): 2, ("p4",): 1, ("p5",): 0}
        assert _needed_edges(_path_graph(), max(L_VALUES)) == {
            "p0": 2, "p1": 2, "p2": 2, "p3": 2, "p4": 1, "p5": 0}

    def test_seed55_joins_only_the_needed_edges(self, monkeypatch):
        g = _seed55_graph()
        joined = self.joined(monkeypatch, g)
        assert len(joined) == 7  # batches of 46 sources
        needed = _needed_edges(g, max(L_VALUES))
        assert sum(joined.values()) == sum(needed.values())
        for sources, edges in joined.items():
            assert edges == sum(needed[s] for s in sources)


def _golden_graph():
    """The structure graph that `report` builds from the golden fixture."""
    fixture = Path(__file__).parent / "data" / "fixture"
    with (open(fixture / "routes.csv", encoding="utf-8") as routes,
          open(fixture / "ports.csv", encoding="utf-8") as f):
        routes, ports = parse_routes(routes), parse_ports(f)
    return build_glsn(validate_dataset(routes, ports).retained, ports, WeightScheme.UNWEIGHTED)


@functools.cache
def _fixture_graph(seed, n_ports, n_routes, n_countries):
    ds = generate(seed=seed, n_ports=n_ports, n_routes=n_routes, n_countries=n_countries)
    return build_glsn(ds.routes, ds.ports, WeightScheme.UNWEIGHTED)


def _one_source_per_batch(monkeypatch, g):
    """A batch budget of one source, so that a graph too small to fork at
    the default budget holds a whole batch per port."""
    monkeypatch.setattr(glsn.indices, "_BATCH_ELEMENTS", len(g.country_of) + 2 * len(g.edges))


def _at(workers, g, l_values, fb):
    """`_betweenness` with `workers` forced through `fork.worker_count`."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(glsn.fork, "worker_count", lambda: workers)
        return _betweenness(g, l_values, fb)


@pytest.fixture(scope="module", params=[
    "golden", *((s, 300, 100, 30) for s in range(55, 60)), (11, 1000, 300, 60),
], ids=str)
def graph_and_serial(request):
    """One graph, the golden one or a generated one, with its one-process gb
    and port betweenness, and whether it is the golden one."""
    golden = request.param == "golden"
    g = _golden_graph() if golden else _fixture_graph(*request.param)
    return g, _at(1, g, L_VALUES, True), golden


class TestForkedPass:
    """Sources interleaved over forked workers give the bits of one process,
    whatever the worker count, and leave no child and the CPU mask as it was."""

    @pytest.mark.parametrize("workers", [2, 3])
    def test_same_bits_as_one_process(self, monkeypatch, graph_and_serial, workers):
        g, (gb, b), golden = graph_and_serial
        if golden:  # under two batches at the default budget
            _one_source_per_batch(monkeypatch, g)
        mask = os.sched_getaffinity(0)
        split_gb, split_b = _at(workers, g, L_VALUES, True)
        assert split_gb == gb
        assert repr(split_b) == repr(b)
        assert_no_child_and_mask(mask)

    @pytest.mark.parametrize("workers", [4, 7])
    def test_uneven_blocks(self, monkeypatch, workers):
        # 30 ports: blocks of 8 and 7 sources, or of 5 and 4; gb alone too
        g = _golden_graph()
        assert len(g.country_of) == 30
        _one_source_per_batch(monkeypatch, g)
        mask = os.sched_getaffinity(0)
        assert _at(workers, g, (2, 4), True) == _at(1, g, (2, 4), True)
        assert _at(workers, g, (3,), False) == _at(1, g, (3,), False)
        assert_no_child_and_mask(mask)

    def test_no_ports(self):
        # no source to deal out still makes one empty block
        g = Glsn(WeightScheme.UNWEIGHTED, {}, {})
        assert port_betweenness(g) == {}
        assert glsn_betweenness_exact(g) == {l: {} for l in L_VALUES}
        table = build_index_table(g, g)
        assert table.countries() == [] and table.fb == {}
        assert table.gb == {l: {} for l in L_VALUES}

    def test_more_workers_than_ports(self, monkeypatch, chain_graph):
        _one_source_per_batch(monkeypatch, chain_graph)
        mask = os.sched_getaffinity(0)
        assert _at(5, chain_graph, L_VALUES, True) == _at(1, chain_graph, L_VALUES, True)
        assert_no_child_and_mask(mask)

    @pytest.mark.parametrize("failing, raised", [(1, RuntimeError), (0, ZeroDivisionError)])
    def test_failed_block_raises_and_reaps(self, monkeypatch, capfd, failing, raised):
        # with two workers, source 1 is in the child's block and source 0 in
        # this process's; a child that fails sends no result and prints why
        batch = glsn.indices._batch

        def failing_batch(a, src, *args):
            if failing in src.tolist():
                raise ZeroDivisionError("planted")
            return batch(a, src, *args)

        monkeypatch.setattr(glsn.indices, "_batch", failing_batch)
        g = _golden_graph()
        _one_source_per_batch(monkeypatch, g)
        mask = os.sched_getaffinity(0)
        with pytest.raises(raised):
            _at(2, g, L_VALUES, True)
        assert_no_child_and_mask(mask)
        if failing == 1:
            assert "ZeroDivisionError: planted" in capfd.readouterr().err

    def test_worker_count_chooses_the_path(self, monkeypatch):
        g = _golden_graph()
        _one_source_per_batch(monkeypatch, g)
        counts = part_counts(monkeypatch)
        port_betweenness(g)
        for workers in [1, 3]:
            monkeypatch.setattr(glsn.fork, "worker_count", lambda w=workers: w)
            port_betweenness(g)
        cpus = len(os.sched_getaffinity(0))
        # one part runs in this process, with no fork
        assert [c for c in counts if c > 1] == ([cpus, 3] if cpus > 1 else [3])

    def test_under_two_batches_stays_in_one_process(self, monkeypatch):
        # at the default budget the golden graph's 30 sources fill under one
        # batch, and the 300-port benchmark fixture of seed 55 five or more
        golden, seed55 = _golden_graph(), _seed55_graph()
        counts = part_counts(monkeypatch)
        monkeypatch.setattr(glsn.fork, "worker_count", lambda: 3)
        build_index_table(golden, golden)
        monkeypatch.setattr(glsn.fork, "worker_count", lambda: 2)
        build_index_table(seed55, seed55)
        assert counts == [1, 2]


class TestWork:
    """A pass forks by the work it can do (`_work`), in batches of the
    budget: fb's BFS covers the whole component, while gb alone expands
    only the edge slots within its cap."""

    @pytest.mark.parametrize("cap", [1, 2, 3, 5, None])
    @pytest.mark.parametrize("graph", [
        "golden", (55, 300, 100, 30), (11, 1000, 300, 60)], ids=str)
    def test_work_bounds_the_slots_expanded(self, monkeypatch, graph, cap):
        # n states per source, and at least the slots `_new_edges` expands:
        # as many at caps 1 and 2, where no port is reached by two walks,
        # and never more than the whole component's E per source
        g = _golden_graph() if graph == "golden" else _fixture_graph(*graph)
        a = glsn.indices._Arrays.of(g)
        n = len(a.ports)
        expanded = []
        new_edges = glsn.indices._new_edges

        def counted(a, front, unseen):
            expanded.append(int(a.degree[front % n].sum()))
            return new_edges(a, front, unseen)

        monkeypatch.setattr(glsn.fork, "worker_count", lambda: 1)
        monkeypatch.setattr(glsn.indices, "_new_edges", counted)
        if cap is None:
            port_betweenness(g)
        else:
            glsn_betweenness_exact(g, (cap,))
        slots = glsn.indices._work(a, cap) - n * n
        assert n * len(a.indices) >= slots >= sum(expanded) > 0
        if cap in (1, 2):
            assert slots == sum(expanded)

    def test_gb_at_two_forks_by_the_edges_it_reaches(self, monkeypatch):
        # fixture.generate's gb at L = 2 on the seed-55 300-port fixture
        # reaches under one batch of work, while the table on it, and gb at
        # L = 2 on a 1,000-port fixture, hold two batches or more
        seed55, g1000 = _seed55_graph(), _fixture_graph(11, 1000, 300, 60)
        counts = part_counts(monkeypatch)
        monkeypatch.setattr(glsn.fork, "worker_count", lambda: 2)
        glsn_betweenness_exact(seed55, (2,))
        build_index_table(seed55, seed55)
        glsn_betweenness_exact(g1000, (2,))
        assert counts == [1, 2, 2]


def _traced_peak(run, g):
    """tracemalloc's peak while one process runs `run` over all sources of g."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(glsn.fork, "worker_count", lambda: 1)
        tracemalloc.start()
        try:
            run(g)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


class TestMemory:
    """One process takes all sources, 46 a batch at 300 ports, and holds the
    arrays of one batch: fb's dep rows are folded into a (6, ports) int64
    limb sum after each batch. On the 300-port fixtures of seeds 55-59 it
    measured 1.83-1.96 MB for the table and 1.68-1.83 MB for gb alone, the
    graph's integer arrays built inside the traced pass; the kernel that
    kept every dep row (a double per source and port) measured 2.55-2.61 MB
    and 1.54-1.62 MB. At 1,000 ports the table measured 2.55 MB, against
    10.43 MB with every dep row kept."""

    def test_traced_peak_of_one_worker(self):
        assert _traced_peak(lambda g: build_index_table(g, g), _seed55_graph()) < 4_000_000

    def test_traced_peak_of_gb_alone(self):
        # the path fixture.generate takes for every dataset, there at L = 2
        assert _traced_peak(glsn_betweenness_exact, _seed55_graph()) < 4_000_000

    def test_traced_peak_of_one_worker_at_1000_ports(self):
        # the dep rows of all 1,000 sources alone would take 8 MB
        g = _fixture_graph(11, 1000, 300, 60)
        assert _traced_peak(lambda g: build_index_table(g, g), g) < 4_000_000


_TABLE_REPR = """
from glsn.fixture import generate
from glsn.graph import WeightScheme, build_glsn
from glsn.indices import build_index_table

ds = generate(11, n_ports=300, n_routes=100, n_countries=30)
g = build_glsn(ds.routes, ds.ports, WeightScheme.UNWEIGHTED)
table = build_index_table(g, g)
per_country = [table.port_count, table.gc, table.gc_norm, *table.gb.values(), table.fb,
               table.fb_norm]
assert all(list(d) == table.countries() for d in per_country)
assert table.countries() == sorted(table.countries())
print(repr(table))
"""


class TestCountryOrder:
    def test_table_is_the_same_under_any_hash_seed(self):
        # every per-country dict lists its countries by code, never in the
        # order of a set of strings, which follows PYTHONHASHSEED
        src = str(Path(__file__).parent.parent / "src")

        def table_repr(hash_seed):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            return subprocess.run([sys.executable, "-c", _TABLE_REPR], env=env,
                                  capture_output=True, text=True, check=True).stdout

        first = table_repr("1")
        assert first.startswith("CountryIndexTable(")
        assert table_repr("2") == first
