"""Country-level network indices: connectivity, constrained betweenness, Freeman betweenness.

Shortest paths are hop-count based throughout; edge weights only enter the
connectivity index. A shortest path between ports of two countries is *valid*
when its length is at most l_max and every intermediate port lies in a country
different from both endpoint countries. The country betweenness index (gb)
credits each country with the fraction of valid shortest paths it mediates;
Freeman betweenness (fb) sums classical port betweenness per country.

Both come from one BFS per source port in Brandes order over `Glsn.int_view`,
which numbers ports in sorted order and gives each country one bit. gb sums
mediated path counts as integers per (distance, country bit, n_st), so every
cap is an exact sum of a few fractions; fb runs the BFS over the whole
component, while gb alone stops it at the largest cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .graph import Glsn, IntView, port_counts
from .model import DataError

L_VALUES = (2, 3, 4, 5)


def _country_totals(country_of: dict[str, str], terms) -> tuple[dict[str, float], dict[str, float]]:
    """fsum of (country, value) terms per country, and that over the country's
    port count. Every country in `country_of` appears."""
    by_country: dict[str, list[float]] = {c: [] for c in set(country_of.values())}
    for c, x in terms:
        by_country[c].append(x)
    sums = {c: math.fsum(xs) for c, xs in by_country.items()}
    counts = port_counts(country_of)
    return sums, {c: sums[c] / counts[c] for c in sums}


def country_connectivity(g: Glsn) -> tuple[dict[str, float], dict[str, float]]:
    """Sum of edge weights between each country's ports and foreign ports, and
    that sum per port. Domestic edges add nothing; every country appears."""
    cof = g.country_of
    return _country_totals(cof, (
        (c, w) for (u, v), w in g.edges.items() if cof[u] != cof[v] for c in (cof[u], cof[v])
    ))


def _bfs(
    view: IntView, s: int, depth_cap: int, fb: bool
) -> tuple[list[int], dict[int, dict[int, int]], list[float] | None]:
    """One BFS from port s of `view` in Brandes order: (dist, profiles, dep).

    dist is -1 where not reached. profiles[t], for each t within depth_cap
    hops, counts the shortest s-t paths by the country mask of their
    intermediate ports; all predecessors of v are popped before v, so
    profiles[v] is complete when v pushes it on. With fb the BFS covers s's
    component and dep[v] is v's dependency on s (0.0 for s and unreached v),
    taking its terms in reversed BFS order; without fb it stops at depth_cap.
    """
    adj, cbit = view.adj, view.cbit
    dist, sigma = [-1] * len(adj), [0] * len(adj)
    dist[s], sigma[s], order = 0, 1, [s]
    profiles: dict[int, dict[int, int]] = {s: {0: 1}}
    for v in order:  # the list doubles as the queue
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
    for w in reversed(order):  # v precedes w when one hop closer to s
        dv, sw, xw = dist[w] - 1, sigma[w], 1.0 + dep[w]
        for v in adj[w]:
            if dist[v] == dv:
                dep[v] += sigma[v] / sw * xw
    dep[s] = 0.0
    return dist, profiles, dep


def _valid_paths(profile: dict[int, int], forbidden: int) -> tuple[int, dict[int, int]]:
    """(n_st, delta) over the shortest paths of one pair, grouped as in
    `profile`, keeping those whose mask misses `forbidden`; delta is by bit."""
    n_st = 0
    delta: dict[int, int] = {}
    for mask, count in profile.items():
        if mask & forbidden:
            continue
        n_st += count
        while mask:
            bit = mask & -mask
            delta[bit] = delta.get(bit, 0) + count
            mask ^= bit
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
    view = g.int_view
    i, j = view.ports.index(s), view.ports.index(t)
    _, profiles, _ = _bfs(view, i, l_max, fb=False)
    n_st, delta = _valid_paths(profiles.get(j, {}), view.cbit[i] | view.cbit[j])
    return n_st, {view.countries[bit]: k for bit, k in delta.items()}


def _check_caps(l_values: tuple[int, ...]) -> None:
    if not l_values or min(l_values) < 1:
        raise DataError("l_values must be positive")


def _betweenness(
    g: Glsn, l_values: tuple[int, ...], fb: bool
) -> tuple[dict[int, dict[str, Fraction]], dict[str, float] | None]:
    """Exact gb per cap in l_values and, with fb, port betweenness (else None).

    A pair's shortest paths share one length, so each valid pair adds its
    integer delta[c] to a bucket keyed by (pair distance, country bit, n_st); a
    cap's total sums delta/n_st over the buckets within it, one Fraction each.
    """
    view, cbit = g.int_view, g.int_view.cbit
    buckets: dict[tuple[int, int, int], int] = {}
    deps: list[list[float]] = []
    for s, cs in enumerate(cbit):
        dist, profiles, dep = _bfs(view, s, max(l_values, default=0), fb)
        for t, profile in profiles.items():
            if t <= s or cbit[t] == cs:
                continue
            n_st, delta = _valid_paths(profile, cs | cbit[t])
            for bit, k in delta.items():
                key = (dist[t], bit, n_st)
                buckets[key] = buckets.get(key, 0) + k
        if fb:
            deps.append(dep)

    gb = {l_max: dict.fromkeys(view.countries.values(), Fraction(0)) for l_max in l_values}
    for (d, bit, n_st), k in buckets.items():
        x = Fraction(k, n_st)
        for l_max, totals in gb.items():
            if d <= l_max:
                totals[view.countries[bit]] += x
    # each unordered pair is seen from both endpoints; fsum rounds once, so
    # the 0.0 terms of unreached ports change nothing
    return gb, {p: math.fsum(ts) / 2.0 for p, ts in zip(view.ports, zip(*deps))} if fb else None


def _floats(gb: dict[int, dict[str, Fraction]]) -> dict[int, dict[str, float]]:
    return {l: {c: float(v) for c, v in per_country.items()} for l, per_country in gb.items()}


def glsn_betweenness_exact(
    g: Glsn, l_values: tuple[int, ...] = L_VALUES
) -> dict[int, dict[str, Fraction]]:
    """Country betweenness for every requested path-length cap in one pass."""
    _check_caps(l_values)
    return _betweenness(g, l_values, fb=False)[0]


def glsn_betweenness_profile(
    g: Glsn, l_values: tuple[int, ...] = L_VALUES
) -> dict[int, dict[str, float]]:
    return _floats(glsn_betweenness_exact(g, l_values))


def glsn_betweenness(g: Glsn, l_max: int) -> dict[str, float]:
    return glsn_betweenness_profile(g, (l_max,))[l_max]


def port_betweenness(g: Glsn) -> dict[str, float]:
    """Classical shortest-path betweenness, endpoints excluded, unordered pairs,
    unnormalized; disconnected pairs contribute nothing."""
    return _betweenness(g, (), fb=True)[1]


def country_freeman(
    b: dict[str, float], country_of: dict[str, str]
) -> tuple[dict[str, float], dict[str, float]]:
    """Country sum and country mean of port betweenness."""
    return _country_totals(country_of, ((country_of[p], x) for p, x in b.items()))


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
    on the (scheme-independent) structure, gb and fb from one BFS per port."""
    _check_caps(l_values)
    gc, gc_norm = country_connectivity(g_weighted)
    gb, b = _betweenness(g_structure, l_values, fb=True)
    fb, fb_norm = country_freeman(b, g_structure.country_of)
    return CountryIndexTable(
        port_count=port_counts(g_structure.country_of),
        gc=gc,
        gc_norm=gc_norm,
        gb=_floats(gb),
        fb=fb,
        fb_norm=fb_norm,
        lsci=lsci or {},
    )
