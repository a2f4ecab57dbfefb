"""Country-level network indices: connectivity, constrained betweenness, Freeman betweenness.

Shortest paths are hop-count based throughout; edge weights only enter the
connectivity index. A shortest path between ports of two countries is *valid*
when its length is at most l_max and every intermediate port lies in a country
different from both endpoint countries. The country betweenness index (gb)
credits each country with the fraction of valid shortest paths it mediates;
Freeman betweenness (fb) sums classical port betweenness per country.

Both come from one traversal per source port over `Glsn.int_view`, which
numbers ports in sorted order and gives each country one bit. A forward BFS
records the shortest-path DAG as predecessor lists; a backward sweep over
those lists sums fb's dependencies in Brandes order and marks the targets gb
counts, and country-mask path profiles are built only along the marked part
of the DAG. gb sums mediated path counts as integers per (distance, n_st)
and country, so each cap is one exact fraction per country. fb runs the BFS
over the whole component, while gb alone stops it at the largest cap.

Each source's traversal is independent, so the sources are interleaved over
forked worker processes, one per CPU, through `fork.run_parts` (Bader &
Madduri, ICPP 2006). The blocks merge exactly: gb's counters are ints, and
fb sums each port's column once with fsum, so any worker count gives the
same bits.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain

from . import fork
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
    view: IntView, s: int, depth_cap: int, fb: bool, targets: range
) -> tuple[list[int], dict[int, dict[int, int]], list[float] | None]:
    """One BFS from port s of `view` in Brandes order: (dist, profiles, dep).

    The forward pass records dist (-1 where not reached), sigma, the BFS order
    and each port's predecessors, over s's component with fb, else up to
    depth_cap. The backward pass walks the predecessor lists: dep[v] is v's
    dependency on s (0.0 for s and unreached v), its terms in reversed BFS
    order, and it marks the counted targets (in `targets`, within depth_cap,
    not in s's country) and their ancestors. profiles[t] counts the shortest
    s-t paths of each counted t by the country mask of their intermediate
    ports, none through s's country: such a path is valid for no pair from s.
    """
    adj, cbit = view.adj, view.cbit
    n, cs = len(adj), cbit[s]
    dist, sigma, preds = [-1] * n, [0] * n, [None] * n
    dist[s], sigma[s], preds[s], order = 0, 1, [], [s]
    for v in order:  # the list doubles as the queue
        d1 = dist[v] + 1
        if d1 > depth_cap and not fb:
            break
        sv = sigma[v]
        for w in adj[v]:
            dw = dist[w]
            if dw < 0:
                dist[w], sigma[w], preds[w] = d1, sv, [v]
                order.append(w)
            elif dw == d1:
                sigma[w] += sv
                preds[w].append(v)
    dep, need = [0.0] * n, [0] * n  # need: bit 1 a counted target, bit 2 an ancestor
    for w in reversed(order):
        if fb:
            sw, xw = sigma[w], 1.0 + dep[w]
            for v in preds[w]:
                dep[v] += sigma[v] / sw * xw
        if dist[w] <= depth_cap:
            if w in targets and cbit[w] != cs:
                need[w] |= 1
            if need[w]:
                for v in preds[w]:
                    if cbit[v] != cs:
                        need[v] |= 2
    dep[s] = 0.0
    pushed = [{}] * n  # masks of the paths to v with v's bit added; {} in s's country
    pushed[s] = {0: 1}
    profiles: dict[int, dict[int, int]] = {}
    for w in order:
        if not need[w]:
            continue
        profile = pushed[preds[w][0]]  # shared with a lone predecessor, never written
        if len(preds[w]) > 1:
            profile = {}
            for v in preds[w]:
                for mask, count in pushed[v].items():
                    profile[mask] = profile.get(mask, 0) + count
        if need[w] & 1:
            profiles[w] = profile
        if need[w] & 2:
            cw, target = cbit[w], {}
            for mask, count in profile.items():  # two masks may become one
                mask |= cw
                target[mask] = target.get(mask, 0) + count
            pushed[w] = target
    return dist, profiles, dep if fb else None


def _valid_paths(profile: dict[int, int], forbidden: int, delta: dict[int, int]) -> int:
    """Add the shortest paths of one pair, grouped as in `profile`, whose mask
    misses `forbidden` to delta by country bit, and return their number."""
    n_st = 0
    for mask, count in profile.items():
        if mask & forbidden:
            continue
        n_st += count
        while mask:
            bit = mask & -mask
            delta[bit] = delta.get(bit, 0) + count
            mask ^= bit
    return n_st


def valid_shortest_path_profile(
    g: Glsn, s: str, t: str, l_max: int
) -> tuple[int, dict[str, int]]:
    """Count valid shortest paths between s and t and per-country mediation.

    Returns (n_st, delta) where delta[c] is the number of valid shortest paths
    with at least one intermediate port in country c; a path touching two
    ports of the same country counts once. n_st = 0 when the pair is
    disconnected, farther apart than l_max, or every shortest path is invalid.
    """
    for p in (s, t):
        if p not in g.country_of:
            raise DataError(f"unknown port {p!r}")
    _check_caps((l_max,))
    cs, ct = g.country_of[s], g.country_of[t]
    if cs == ct:
        raise DataError(f"ports {s!r} and {t!r} are in the same country {cs!r}")
    view = g.int_view
    i, j = view.ports.index(s), view.ports.index(t)
    _, profiles, _ = _bfs(view, i, l_max, False, range(j, j + 1))
    delta: dict[int, int] = {}
    n_st = _valid_paths(profiles.get(j, {}), view.cbit[j], delta)
    return n_st, {view.countries[bit]: k for bit, k in delta.items()}


def _check_caps(l_values: tuple[int, ...]) -> None:
    if not l_values or min(l_values) < 1:
        raise DataError("l_values must be positive")


def _block(
    view: IntView, sources: range, depth_cap: int, fb: bool
) -> tuple[dict[tuple[int, int], dict[int, int]], array]:
    """gb's counters and fb's dependency rows for the pairs counted from `sources`.

    A pair's shortest paths share one length, so each pair s < t, counted
    from s, adds its integer delta[c] to a counter per country bit under the
    key (pair distance, n_st). With fb, each source appends its dep row of
    one double per port.
    """
    cbit = view.cbit
    n = len(cbit)
    buckets: dict[tuple[int, int], dict[int, int]] = {}
    deps = array("d")  # 8 bytes a port, 32 in a list of floats
    for s in sources:
        dist, profiles, dep = _bfs(view, s, depth_cap, fb, range(s + 1, n))
        for t, profile in profiles.items():
            # n_st first, as it keys the counter; a path through t's country
            # is not valid for (s, t)
            ct, n_st = cbit[t], 0
            for mask, k in profile.items():
                if not mask & ct:
                    n_st += k
            if n_st:
                _valid_paths(profile, ct, buckets.setdefault((dist[t], n_st), {}))
        if fb:
            deps.fromlist(dep)
    return buckets, deps


def _merge(buckets: dict[tuple[int, int], dict[int, int]], part_buckets) -> None:
    """Add one block's counters to `buckets`. They are ints, so the sum does
    not depend on the order of the blocks."""
    for key, counter in part_buckets.items():
        into = buckets.setdefault(key, counter)
        if into is not counter:
            for bit, k in counter.items():
                into[bit] = into.get(bit, 0) + k


def _betweenness(
    g: Glsn, l_values: tuple[int, ...], fb: bool
) -> tuple[dict[int, dict[str, Fraction]], dict[str, float] | None]:
    """Exact gb per cap in l_values and, with fb, port betweenness (else None).

    The sources are interleaved over `fork.worker_count()` processes, at least
    one and at most one per port, worker i taking sources i, i + workers, ...;
    each block's counters are merged as it arrives and its dep rows kept. A
    cap's total sums delta/n_st exactly over the keys within it, as integers
    over the lcm of all n_st: one Fraction per country and cap.
    """
    view = g.int_view
    n = len(view.adj)
    workers = max(1, min(fork.worker_count(), n))
    depth_cap = max(l_values, default=0)
    buckets: dict[tuple[int, int], dict[int, int]] = {}
    parts: list[array] = []

    def take(block):
        _merge(buckets, block[0])
        parts.append(block[1])

    fork.run_parts(lambda sources: _block(view, sources, depth_cap, fb),
                   [range(i, n, workers) for i in range(workers)], take)

    lcm = math.lcm(*(n_st for _, n_st in buckets))
    num = {l_max: dict.fromkeys(view.countries, 0) for l_max in l_values}
    for (d, n_st), counter in buckets.items():
        for bit, k in counter.items():
            for l_max, totals in num.items():
                if d <= l_max:
                    totals[bit] += k * (lcm // n_st)
    gb = {l_max: {view.countries[bit]: Fraction(x, lcm) for bit, x in totals.items()}
          for l_max, totals in num.items()}
    # each unordered pair is seen from both endpoints; fsum rounds once, so
    # neither the row order nor the 0.0 terms of unreached ports change it
    return gb, {p: math.fsum(chain.from_iterable(d[i::n] for d in parts)) / 2.0
                for i, p in enumerate(view.ports)} if fb else None


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
