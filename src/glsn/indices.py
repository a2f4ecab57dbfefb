"""Country-level network indices: connectivity, constrained betweenness, Freeman betweenness.

Shortest paths are hop-count based throughout; edge weights only enter the
connectivity index. A shortest path between ports of two countries is *valid*
when its length is at most l_max and every intermediate port lies in a country
different from both endpoint countries. The country betweenness index credits
each country with the fraction of valid shortest paths it mediates.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction

from .graph import Glsn, port_counts
from .model import DataError

L_VALUES = (2, 3, 4, 5)


def country_connectivity(g: Glsn) -> tuple[dict[str, float], dict[str, float]]:
    """Sum of edge weights between each country's ports and foreign ports.

    Domestic edges contribute nothing. Normalized form divides by the
    country's port count. Every country in the port table appears, even with
    no foreign edges.
    """
    terms: dict[str, list[float]] = {c: [] for c in set(g.country_of.values())}
    for (u, v), w in sorted(g.edges.items()):
        cu, cv = g.country_of[u], g.country_of[v]
        if cu != cv:
            terms[cu].append(w)
            terms[cv].append(w)
    port_count = port_counts(g.country_of)
    gc = {c: math.fsum(ts) for c, ts in terms.items()}
    gc_norm = {c: gc[c] / port_count[c] for c in gc}
    return gc, gc_norm


def _shortest_path_country_profiles(
    g: Glsn, adj: dict[str, list[str]], s: str, depth_cap: int
) -> tuple[dict[str, int], dict[str, dict[frozenset, int]]]:
    """BFS from s up to depth_cap; for each reached node, count shortest paths
    grouped by the set of intermediate-port countries along the path.

    Path lengths are at most depth_cap, so at most depth_cap - 1 intermediate
    countries per path; the grouping stays small.
    """
    dist = {s: 0}
    order = [s]
    q = deque([s])
    while q:
        v = q.popleft()
        if dist[v] >= depth_cap:
            continue
        for w in adj[v]:
            if w not in dist:
                dist[w] = dist[v] + 1
                order.append(w)
                q.append(w)

    profiles: dict[str, dict[frozenset, int]] = {s: {frozenset(): 1}}
    for v in order:
        dv = dist[v]
        pv = profiles.get(v)
        if pv is None:
            continue
        for w in adj[v]:
            if dist.get(w) == dv + 1:
                key_extra = None if v == s else g.country_of[v]
                target = profiles.setdefault(w, {})
                for countries, count in pv.items():
                    key = countries if key_extra is None else countries | {key_extra}
                    target[key] = target.get(key, 0) + count
    return dist, profiles


def _valid_paths(
    profile: dict[frozenset, int], forbidden: set[str]
) -> tuple[int, dict[str, int]]:
    """(n_st, delta) over the shortest paths of one pair, grouped as in
    `profile`, keeping those with no intermediate port in `forbidden`."""
    n_st = 0
    delta: dict[str, int] = {}
    for countries, count in profile.items():
        if countries & forbidden:
            continue
        n_st += count
        for c in countries:
            delta[c] = delta.get(c, 0) + count
    return n_st, delta


def valid_shortest_path_profile(
    g: Glsn, s: str, t: str, l_max: int
) -> tuple[int, dict[str, int]]:
    """Count valid shortest paths between s and t and per-country mediation.

    Returns (n_st, delta) where delta[c] is the number of valid shortest paths
    with at least one intermediate port in country c; a path touching two
    ports of the same country counts once. n_st = 0 when the pair is
    disconnected, farther apart than l_max, or every shortest path is invalid.
    """
    cs, ct = g.country_of[s], g.country_of[t]
    if cs == ct:
        raise DataError(f"ports {s!r} and {t!r} are in the same country {cs!r}")
    adj = g.neighbors()
    dist, profiles = _shortest_path_country_profiles(g, adj, s, l_max)
    if t not in dist:
        return 0, {}
    return _valid_paths(profiles.get(t, {}), {cs, ct})


def _source_contributions(
    g: Glsn, adj: dict[str, list[str]], s: str, depth_cap: int
) -> list[tuple[int, str, Fraction]]:
    """Per-country betweenness terms from all valid pairs (s, t) with t > s.

    Returns (pair_distance, country, delta/n) triples with exact rational
    weights; the caller filters by the l_max actually requested, since all
    shortest paths of a pair share one length.
    """
    cs = g.country_of[s]
    dist, profiles = _shortest_path_country_profiles(g, adj, s, depth_cap)
    out: list[tuple[int, str, Fraction]] = []
    for t in sorted(profiles):
        if t <= s:
            continue
        ct = g.country_of[t]
        if ct == cs:
            continue
        n_st, delta = _valid_paths(profiles[t], {cs, ct})
        if n_st == 0:
            continue
        d = dist[t]
        for c in sorted(delta):
            out.append((d, c, Fraction(delta[c], n_st)))
    return out


def glsn_betweenness_exact(
    g: Glsn, l_values: tuple[int, ...] = L_VALUES
) -> dict[int, dict[str, Fraction]]:
    """Country betweenness for every requested path-length cap in one pass.

    Accumulation is exact rational arithmetic, so e.g. the per-pair valid-path
    weights of a country sum to integers without rounding error.
    """
    if not l_values or min(l_values) < 1:
        raise DataError("l_values must be positive")
    depth_cap = max(l_values)
    adj = g.neighbors()
    per_source = [_source_contributions(g, adj, s, depth_cap) for s in g.nodes()]

    countries = sorted(set(g.country_of.values()))
    result: dict[int, dict[str, Fraction]] = {}
    for l_max in l_values:
        totals = {c: Fraction(0) for c in countries}
        for contrib in per_source:
            for d, c, x in contrib:
                if d <= l_max:
                    totals[c] += x
        result[l_max] = totals
    return result


def glsn_betweenness_profile(
    g: Glsn, l_values: tuple[int, ...] = L_VALUES
) -> dict[int, dict[str, float]]:
    return {
        l: {c: float(v) for c, v in per_country.items()}
        for l, per_country in glsn_betweenness_exact(g, l_values).items()
    }


def glsn_betweenness(g: Glsn, l_max: int) -> dict[str, float]:
    return glsn_betweenness_profile(g, (l_max,))[l_max]


def _brandes_source(adj: dict[str, list[str]], s: str) -> dict[str, float]:
    dist = {s: 0}
    sigma = {s: 1}
    preds: dict[str, list[str]] = {s: []}
    order = [s]
    q = deque([s])
    while q:
        v = q.popleft()
        for w in adj[v]:
            if w not in dist:
                dist[w] = dist[v] + 1
                sigma[w] = 0
                preds[w] = []
                order.append(w)
                q.append(w)
            if dist[w] == dist[v] + 1:
                sigma[w] += sigma[v]
                preds[w].append(v)
    dep = {v: 0.0 for v in order}
    for w in reversed(order):
        for v in preds[w]:
            dep[v] += sigma[v] / sigma[w] * (1.0 + dep[w])
    del dep[s]
    return dep


def port_betweenness(g: Glsn) -> dict[str, float]:
    """Classical shortest-path betweenness, endpoints excluded, unordered pairs,
    unnormalized; disconnected pairs contribute nothing."""
    adj = g.neighbors()
    sources = g.nodes()
    deps = [_brandes_source(adj, s) for s in sources]
    terms: dict[str, list[float]] = {p: [] for p in sources}
    for dep in deps:
        for v, x in dep.items():
            terms[v].append(x)
    # each unordered pair is seen from both endpoints
    return {p: math.fsum(ts) / 2.0 for p, ts in terms.items()}


def country_freeman(
    b: dict[str, float], country_of: dict[str, str]
) -> tuple[dict[str, float], dict[str, float]]:
    """Country sum and country mean of port betweenness."""
    terms: dict[str, list[float]] = {c: [] for c in set(country_of.values())}
    for p in sorted(b):
        terms[country_of[p]].append(b[p])
    fb = {c: math.fsum(ts) for c, ts in terms.items()}
    counts = port_counts(country_of)
    fb_norm = {c: fb[c] / counts[c] for c in fb}
    return fb, fb_norm


@dataclass
class CountryIndexTable:
    """Per-country index rows, countries sorted by code in all exports."""

    port_count: dict[str, int]
    gc: dict[str, float]
    gc_norm: dict[str, float]
    gb: dict[int, dict[str, float]]  # l_max -> country -> value
    fb: dict[str, float]
    fb_norm: dict[str, float]
    lsci: dict[str, float | None] = field(default_factory=dict)

    def countries(self) -> list[str]:
        return sorted(self.port_count)

    def csv_rows(self) -> list[dict]:
        rows = []
        for c in self.countries():
            row = {
                "country_code": c,
                "port_count": self.port_count[c],
                "gc": self.gc[c],
                "gc_norm": self.gc_norm[c],
            }
            for l in L_VALUES:
                row[f"gb_l{l}"] = self.gb.get(l, {}).get(c, "")
            row["fb"] = self.fb[c]
            row["fb_norm"] = self.fb_norm[c]
            lsci = self.lsci.get(c)
            row["lsci"] = "" if lsci is None else lsci
            rows.append(row)
        return rows


def build_index_table(
    g_weighted: Glsn,
    g_structure: Glsn,
    l_values: tuple[int, ...] = L_VALUES,
    lsci: dict[str, float | None] | None = None,
) -> CountryIndexTable:
    """Full index table: connectivity on the requested weighting, betweenness
    on the (scheme-independent) structure."""
    gc, gc_norm = country_connectivity(g_weighted)
    gb = glsn_betweenness_profile(g_structure, l_values)
    b = port_betweenness(g_structure)
    fb, fb_norm = country_freeman(b, g_structure.country_of)
    return CountryIndexTable(
        port_count=port_counts(g_structure.country_of),
        gc=gc,
        gc_norm=gc_norm,
        gb=gb,
        fb=fb,
        fb_norm=fb_norm,
        lsci=lsci or {},
    )
