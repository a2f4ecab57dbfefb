"""Exhaustive shortest-path enumeration used to cross-check the fast index code.

Deliberately literal: enumerate every shortest path explicitly and apply the
definitions one path at a time. Refuses graphs with more than 16 nodes.
`valid_shortest_path_profile` gives one pair's valid paths, the terms that gb
sums over all pairs.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction

from glsn.graph import Glsn
from glsn.model import DataError

MAX_NODES = 16


def _check_size(g: Glsn) -> None:
    if g.node_count > MAX_NODES:
        raise DataError(f"oracle refuses graphs with more than {MAX_NODES} nodes")


def all_shortest_paths(g: Glsn, s: str, t: str) -> list[list[str]]:
    """Every shortest path from s to t as explicit node lists; [] if disconnected."""
    _check_size(g)
    adj = g.neighbors()
    dist = {s: 0}
    q = deque([s])
    while q:
        v = q.popleft()
        for w in adj[v]:
            if w not in dist:
                dist[w] = dist[v] + 1
                q.append(w)
    if t not in dist:
        return []

    paths: list[list[str]] = []

    def extend(path: list[str]) -> None:
        v = path[-1]
        if v == t:
            paths.append(list(path))
            return
        for w in adj[v]:
            if dist.get(w) == dist[v] + 1 and dist[w] <= dist[t]:
                path.append(w)
                extend(path)
                path.pop()

    extend([s])
    return [p for p in paths if len(p) - 1 == dist[t]]


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
    if l_max < 1:
        raise DataError("l_values must be positive")
    ends = {g.country_of[s], g.country_of[t]}
    if len(ends) == 1:
        raise DataError(f"ports {s!r} and {t!r} are in the same country {g.country_of[s]!r}")
    valid = []
    for path in all_shortest_paths(g, s, t):
        inter = {g.country_of[p] for p in path[1:-1]}
        if len(path) - 1 <= l_max and not inter & ends:
            valid.append(inter)
    delta: dict[str, int] = {}
    for inter in valid:
        for c in inter:
            delta[c] = delta.get(c, 0) + 1
    return len(valid), delta


def glsn_betweenness_oracle(g: Glsn, l_max: int) -> dict[str, float]:
    """Country betweenness by literal valid-path enumeration, exact arithmetic."""
    _check_size(g)
    nodes = g.nodes()
    totals = {c: Fraction(0) for c in set(g.country_of.values())}
    for i, s in enumerate(nodes):
        for t in nodes[i + 1 :]:
            cs, ct = g.country_of[s], g.country_of[t]
            if cs == ct:
                continue
            valid = []
            for path in all_shortest_paths(g, s, t):
                if len(path) - 1 > l_max:
                    continue
                inter = {g.country_of[p] for p in path[1:-1]}
                if inter & {cs, ct}:
                    continue
                valid.append(inter)
            if not valid:
                continue
            n_st = len(valid)
            for country in totals:
                delta = sum(1 for inter in valid if country in inter)
                if delta:
                    totals[country] += Fraction(delta, n_st)
    return {c: float(v) for c, v in totals.items()}


def port_betweenness_oracle(g: Glsn) -> dict[str, float]:
    """Freeman betweenness by enumerating all shortest paths, exact arithmetic."""
    _check_size(g)
    nodes = g.nodes()
    totals = {p: Fraction(0) for p in nodes}
    for i, s in enumerate(nodes):
        for t in nodes[i + 1 :]:
            paths = all_shortest_paths(g, s, t)
            if not paths:
                continue
            rho = len(paths)
            for p in nodes:
                if p in (s, t):
                    continue
                sigma = sum(1 for path in paths if p in path[1:-1])
                if sigma:
                    totals[p] += Fraction(sigma, rho)
    return {p: float(v) for p, v in totals.items()}
