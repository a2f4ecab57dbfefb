import math
from fractions import Fraction

import numpy as np
import pytest

import glsn.indices
from glsn.indices import (
    L_VALUES,
    build_index_table,
    country_connectivity,
    country_freeman,
    glsn_betweenness,
    glsn_betweenness_exact,
    glsn_betweenness_profile,
    port_betweenness,
    valid_shortest_path_profile,
)
from glsn.graph import Glsn
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


def _two_components_and_isolated(seed):
    """Disjoint union of two random graphs plus an isolated port of its own country."""
    a, b = random_glsn(seed, edge_prob=0.25), random_glsn(seed + 1000, edge_prob=0.25)
    country_of = {**a.country_of, **{f"Q{p}": c for p, c in b.country_of.items()}, "Z": "C9"}
    edges = [*a.edges, *((f"Q{u}", f"Q{v}") for u, v in b.edges)]
    return make_glsn(country_of, edges)


class TestSharedPass:
    """build_index_table takes gb and fb from one BFS per port; each must
    equal what the gb-only and fb-only callers compute."""

    @pytest.mark.parametrize("caps", [L_VALUES, (1,), (3,)])
    @pytest.mark.parametrize("seed", range(15))
    def test_table_equals_separate_indices(self, seed, caps):
        g = _two_components_and_isolated(seed)
        table = build_index_table(g, g, caps)
        assert table.gb == glsn_betweenness_profile(g, caps)
        fb, fb_norm = country_freeman(port_betweenness(g), g.country_of)
        assert repr(table.fb) == repr(fb)
        assert repr(table.fb_norm) == repr(fb_norm)

    def test_one_bfs_per_port(self, monkeypatch):
        sources = []
        bfs = glsn.indices._bfs

        def counted(view, s, *args, **kwargs):
            sources.append(view.ports[s])
            return bfs(view, s, *args, **kwargs)

        monkeypatch.setattr(glsn.indices, "_bfs", counted)
        g = _two_components_and_isolated(3)
        build_index_table(g, g)
        assert sorted(sources) == g.nodes()


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
    """The integer view numbers ports and countries in sorted order and keys
    path profiles on country bitmasks; the indices must not depend on it."""

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
        assert len(g.int_view.countries) == 70
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
            gb = glsn_betweenness(g, 5)
            for c, val in gb.items():
                assert val >= 0
            # spot-check via the oracle's literal definition
            slow = glsn_betweenness_oracle(g, 5)
            for c in slow:
                assert gb[c] == pytest.approx(slow[c], abs=1e-9)


def _reference_bfs(view, s, depth_cap, fb):
    """The single-loop traversal the indices were first computed with: every
    profile is pushed along every shortest-path edge within depth_cap, and
    the backward sweep reads every adjacency entry again."""
    adj, cbit = view.adj, view.cbit
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
    view, cbit = g.int_view, g.int_view.cbit
    buckets, deps = {}, []
    for s, cs in enumerate(cbit):
        dist, profiles, dep = _reference_bfs(view, s, max(l_values), True)
        for t, profile in profiles.items():
            if t <= s or cbit[t] == cs:
                continue
            n_st, delta = _reference_valid_paths(profile, cs | cbit[t])
            for bit, k in delta.items():
                key = (dist[t], bit, n_st)
                buckets[key] = buckets.get(key, 0) + k
        deps.append(dep)
    gb = {l_max: dict.fromkeys(view.countries.values(), Fraction(0)) for l_max in l_values}
    for (d, bit, n_st), k in buckets.items():
        for l_max, totals in gb.items():
            if d <= l_max:
                totals[view.countries[bit]] += Fraction(k, n_st)
    return gb, {p: math.fsum(ts) / 2.0 for p, ts in zip(view.ports, zip(*deps))}


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
