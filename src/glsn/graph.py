"""Clique projection of service routes into the port graph, with seven weighting schemes."""

from __future__ import annotations

import enum
import math
from collections import Counter
from dataclasses import dataclass
from itertools import combinations

from .model import DataError, Port, ServiceRoute


class WeightScheme(enum.Enum):
    UNWEIGHTED = "none"
    ONE = "one"
    INV_N1 = "inv_n1"        # 1/(n-1)
    INV_PAIRS = "inv_pairs"  # 1/[n(n-1)/2]
    CAP = "cap"              # C
    CAP_N1 = "cap_n1"        # C/(n-1)
    CAP_PAIRS = "cap_pairs"  # C/[n(n-1)/2]

    @property
    def needs_capacity(self) -> bool:
        return self in (WeightScheme.CAP, WeightScheme.CAP_N1, WeightScheme.CAP_PAIRS)


def route_edge_weight(n: int, capacity_teu: float | None, scheme: WeightScheme) -> float:
    """Per-pair weight a route with n distinct ports contributes under a scheme."""
    if n < 2:
        raise DataError(f"route with {n} distinct ports cannot contribute edges")
    if scheme.needs_capacity:
        if capacity_teu is None:
            raise DataError(f"scheme {scheme.value} requires route capacity")
        c = capacity_teu
    if scheme in (WeightScheme.UNWEIGHTED, WeightScheme.ONE):
        return 1.0
    if scheme is WeightScheme.INV_N1:
        return 1.0 / (n - 1)
    if scheme is WeightScheme.INV_PAIRS:
        return 1.0 / (n * (n - 1) / 2)
    if scheme is WeightScheme.CAP:
        return c
    if scheme is WeightScheme.CAP_N1:
        return c / (n - 1)
    return c / (n * (n - 1) / 2)


@dataclass(frozen=True)
class Glsn:
    """Undirected port graph. Edge keys are lexicographically ordered pairs."""

    scheme: WeightScheme
    country_of: dict[str, str]               # port_id -> country_code
    edges: dict[tuple[str, str], float]

    @property
    def node_count(self) -> int:
        return len(self.country_of)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def nodes(self) -> list[str]:
        return sorted(self.country_of)

    def neighbors(self) -> dict[str, list[str]]:
        adj: dict[str, list[str]] = {p: [] for p in self.country_of}
        for (u, v) in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return {p: sorted(ns) for p, ns in adj.items()}


def build_glsn(
    routes: list[ServiceRoute], ports: list[Port], scheme: WeightScheme
) -> Glsn:
    """Overlay each route's clique over its distinct ports; sum weights across routes.

    Each edge's weight is the correctly rounded sum (math.fsum) of its routes'
    weights, so it is bit-identical whatever the route order or the Python
    version (the built-in sum compensates from 3.12 on). Edges are keyed in
    sorted pair order. Ports never touched by a route are still nodes
    (isolated).
    """
    country_of = {p.port_id: p.country_code for p in ports}
    contributions: dict[tuple[str, str], list[float]] = {}
    for route in routes:
        distinct = sorted(route.distinct_ports)
        if len(distinct) < 2:
            raise DataError(f"route {route.route_id!r}: fewer than 2 distinct ports")
        for pid in distinct:
            if pid not in country_of:
                raise DataError(f"route {route.route_id!r}: unknown port {pid!r}")
        w = route_edge_weight(len(distinct), route.capacity_teu, scheme)
        for u, v in combinations(distinct, 2):
            contributions.setdefault((u, v), []).append(w)

    edges: dict[tuple[str, str], float] = {}
    for key in sorted(contributions):
        if scheme is WeightScheme.UNWEIGHTED:
            edges[key] = 1.0
        else:
            edges[key] = math.fsum(contributions[key])
    return Glsn(scheme=scheme, country_of=country_of, edges=edges)


def port_counts(country_of: dict[str, str]) -> dict[str, int]:
    """Number of ports per country, sorted by code: the one country order
    that the index layer and its exports read."""
    return dict(sorted(Counter(country_of.values()).items()))


def graph_stats(g: Glsn) -> dict:
    return {
        "node_count": g.node_count,
        "edge_count": g.edge_count,
        "ports_per_country": port_counts(g.country_of),
    }


def edge_list_rows(g: Glsn) -> list[tuple[str, str, float]]:
    """Edge list for CSV export, pairs in lexicographic order."""
    return [(u, v, w) for (u, v), w in sorted(g.edges.items())]
