"""Country-level network indices: connectivity, constrained betweenness, Freeman betweenness.

Shortest paths are hop-count based throughout; edge weights only enter the
connectivity index. A shortest path between ports of two countries is *valid*
when its length is at most l_max and every intermediate port lies in a country
different from both endpoint countries. The country betweenness index (gb)
credits each country with the fraction of valid shortest paths it mediates;
Freeman betweenness (fb) sums classical port betweenness per country.

Both come from one traversal per source port over `Glsn.int_view`, which
numbers ports and countries in sorted order. The sources are traversed in
batches, all of a batch at once, level by level, with numpy arrays: the
algebraic form of Brandes' algorithm (Brandes, Social Networks 2008; Buluc &
Gilbert, IJHPCA 2011). A batch holds _BATCH_ELEMENTS // (ports + directed
edges) sources, at least one. Each level keeps the order of a one-source
BFS, which is what makes fb's floats the same bits: the dependencies are
summed level by level from the deepest, each port's terms in reversed BFS
order. gb is integer counting only: paths are grouped by the countries of
their intermediate ports, and each target adds its integer delta[c] per
country under (distance, n_st), so each cap is one exact fraction per
country. fb runs the BFS over the whole component, while gb alone stops it
at the largest cap. Shortest-path counts are float64 for fb, exact below
2**53; a count that reaches 2**53 raises DataError.

Each source's traversal is independent, so the sources are interleaved over
forked worker processes, one per CPU, through `fork.run_parts` (Bader &
Madduri, ICPP 2006). The blocks merge exactly: gb's counters are ints, and
fb sums each port's column once with fsum, so any worker count and any
batch size give the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain

import numpy as np

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


def _check_caps(l_values: tuple[int, ...]) -> None:
    if not l_values or min(l_values) < 1:
        raise DataError("l_values must be positive")


_BATCH_ELEMENTS = 1 << 16  # sources x (ports + directed edges) traversed at once
_EXACT = 1 << 53  # float64 holds every integer below this


@dataclass(frozen=True)
class _Arrays:
    """An IntView as arrays: port i's neighbours, ascending, are
    indices[indptr[i]:indptr[i + 1]], and its country's bit is
    1 << country[i]."""

    ports: list[str]
    n_countries: int
    indptr: np.ndarray
    indices: np.ndarray
    country: np.ndarray

    @classmethod
    def of(cls, view: IntView) -> _Arrays:
        indptr = np.zeros(len(view.adj) + 1, np.int64)
        np.cumsum([len(a) for a in view.adj], out=indptr[1:])
        indices = np.fromiter(chain.from_iterable(view.adj), np.int32, int(indptr[-1]))
        country = np.array([b.bit_length() - 1 for b in view.cbit], np.int32)
        return cls(view.ports, len(view.countries), indptr, indices, country)


def _int(bound: int) -> type:
    """int32 if it holds 0 .. bound, else int64."""
    return np.int32 if bound < 1 << 31 else np.int64


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The ranges starts[i], ..., starts[i] + counts[i] - 1, concatenated:
    the cumulative sum of steps of 1, with a jump where each range starts."""
    starts, counts = starts[counts > 0], counts[counts > 0]
    out = np.ones(int(counts.sum()), _int(int((starts + counts).max(initial=0))))
    if out.size:
        out[0] = starts[0]
        out[np.cumsum(counts[:-1])] = starts[1:] - starts[:-1] - counts[:-1] + 1
        np.cumsum(out, out=out)
    return out


def _heads(x: np.ndarray) -> np.ndarray:
    """Where each run of equal values in x starts."""
    head = np.empty(x.size, bool)
    head[:1] = True
    np.not_equal(x[1:], x[:-1], out=head[1:])
    return np.flatnonzero(head)


def _sorted_runs(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """An order that sorts keys, and where each run of equal keys starts in it."""
    order = np.argsort(keys)
    return order, _heads(keys[order])


def _sum_by(keys: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct keys, ascending, and the sum of the values under each, as
    Python ints where an int64 sum could overflow."""
    if not keys.size:
        return keys, values
    if int(values.max()) * values.size >= 1 << 63:
        values = values.astype(object)
    order, starts = _sorted_runs(keys)
    return keys[order[starts]], np.add.reduceat(values[order], starts)


def _dense(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct keys, ascending, and the index of each key among them."""
    order, starts = _sorted_runs(keys)
    ids = np.empty(keys.size, _int(keys.size))
    ids[order] = np.repeat(np.arange(starts.size), np.diff(starts, append=keys.size))
    return keys[order[starts]], ids


def _gb_level(a: _Arrays, at_state: tuple, rows: tuple, masks: np.ndarray, sizes: np.ndarray,
              ev: np.ndarray, ew: np.ndarray, d: int, last: bool, counted: list) -> tuple:
    """gb at BFS level d of a batch, from its DAG edges ev -> ew, sorted by ew.

    at_state holds per state its port's country index, whether that country
    is not the source's, and whether the port is a target: such a port
    numbered after the source. A row (state, mask id, count) counts the
    shortest paths to a port whose intermediate ports lie in the countries
    of the mask, none in the source's country; mask id i lists sizes[i]
    distinct country indices in masks[:sizes[i], i]. The rows of level
    d - 1, sorted by state, are joined along the edges into ports outside
    the source's country and summed per (state, mask id). A target t > s
    takes the rows whose mask misses t's country: their counts sum to n_st,
    and each country of a mask adds the row's count under (d, n_st). Those
    sums go to `counted`. Unless d is the last level, returns the rows,
    masks and sizes of level d, each mask with its port's country added:
    one new id per (mask id, country) pair, so two ids may list one set,
    which only leaves their rows unmerged.
    """
    country, foreign, target = at_state
    keep = (target if last else foreign)[ew]
    state, mask, count = _join(rows, ev[keep], ew[keep], len(sizes), country.size)
    c = country[state]
    through = np.zeros(state.size, bool)  # the mask has the port's own country
    for j in range(len(masks)):
        through |= masks[j, mask] == c
    t = (~through & target[state]).nonzero()[0]
    if t.size:
        _count(state[t], mask[t], count[t], masks, sizes, a.n_countries, d, counted)
    if last:
        return rows, masks, sizes
    # the next table: the masks of rows that keep theirs, then one per pair
    width = a.n_countries
    kept, inv = _dense(mask[through])
    pairs, pair_inv = _dense(mask[~through].astype(_int(len(sizes) * width)) * width + c[~through])
    old = pairs // width
    added = masks[:, old]
    added[sizes[old], np.arange(pairs.size)] = pairs % width
    mask[through], mask[~through] = inv, kept.size + pair_inv
    return ((state, mask, count), np.concatenate([masks[:, kept], added], axis=1),
            np.concatenate([sizes[kept], sizes[old] + 1]))


def _join(rows: tuple, ev: np.ndarray, ew: np.ndarray, ids: int, states: int) -> tuple:
    """The rows, sorted by state, joined along the edges ev -> ew, sorted by
    ew, and summed per (state, mask id) of ew, sorted by both."""
    state, mask, count = rows
    heads = _heads(state)
    lo, k = np.zeros(states, _int(state.size)), np.zeros(states, _int(state.size))
    lo[state[heads]] = heads
    k[state[heads]] = np.diff(heads, append=state.size)
    at = _ranges(lo[ev], k[ev])
    key = np.repeat(ew, k[ev]).astype(_int(states * ids))
    key *= ids
    key += mask[at]
    key, count = _sum_by(key, count[at])
    return (key // ids).astype(np.int32), key % ids, count


def _count(state: np.ndarray, mask: np.ndarray, count: np.ndarray, masks: np.ndarray,
           sizes: np.ndarray, width: int, d: int, counted: list) -> None:
    """Append to `counted` the sums (d, n_st, country index, count) of the
    valid rows of level d's targets, sorted by state."""
    starts = _heads(state)
    n_st, nid = _dense(np.add.reduceat(count, starts))
    nid = np.repeat(nid.astype(_int(n_st.size * width)), np.diff(starts, append=state.size))
    size = sizes[mask]
    for j in range(int(size.max())):
        p = (size > j).nonzero()[0]
        keys, sums = _sum_by(nid[p] * width + masks[j, mask[p]], count[p])
        counted.append((d, n_st[keys // width], keys % width, sums))


def _new_edges(a: _Arrays, front: np.ndarray, seen: np.ndarray) -> tuple:
    """The edges ev -> ew out of the states of `front` into states not seen,
    sorted by ew, each ew's in the order found: by the BFS order of ev, then
    ascending ew; heads[j] starts the edges into the j-th new state, and
    first[j] is the place of its first edge in that order."""
    ports = front % len(a.ports)
    start = a.indptr[ports]
    degree = a.indptr[ports + 1] - start
    ew = np.repeat(front - ports, degree)
    ew += a.indices[_ranges(start, degree)]
    new = ~seen[ew]
    ev, ew = np.repeat(front, degree)[new], ew[new]
    int_t = _int(seen.size * ew.size)
    order = np.argsort(ew.astype(int_t) * ew.size + np.arange(ew.size, dtype=int_t))
    ev, ew = ev[order], ew[order]
    heads = _heads(ew)
    return ev, ew, heads, order[heads]


def _batch(
    a: _Arrays, src: np.ndarray, depth_cap: int, counted: list, dep: np.ndarray | None
) -> None:
    """gb's counts into `counted` (see `_gb_level`) and, for fb, the dep rows
    into `dep`, (len(src), n), for one batch of sources traversed together.

    Port v seen from src[b] is state b * n + v. Each level is found from the
    one before in BFS order: the edges out of it in the order of their ports,
    each port's neighbours ascending, and a new port takes its first edge's
    place. The BFS runs over the whole component for fb, else to depth_cap.
    sigma counts shortest paths as float64, exact below 2**53: a count of
    2**53 or more raises DataError. fb's dep sums the Brandes terms sigma[v] / sigma[w] *
    (1 + dep[w]) level by level from the deepest, each level's edges in
    reversed BFS order of w, with np.add.at, which adds in array order: each
    dep[v] gets its terms in the order of a one-source traversal, so the
    same bits. The sources and unreached ports keep 0.0.
    """
    fb = dep is not None
    n = len(a.ports)
    front = np.arange(src.size, dtype=np.int32) * n + src
    seen = np.zeros(src.size * n, bool)
    sigma = np.zeros(src.size * n)
    seen[front] = True
    sigma[front] = 1.0
    country = np.tile(a.country, src.size)
    foreign = country != np.repeat(a.country[src], n)
    at_state = (country, foreign, foreign & (np.tile(np.arange(n), src.size) > np.repeat(src, n)))
    rows = (front, np.zeros(src.size, np.int64), np.ones(src.size, np.int64))
    masks = np.full((max(depth_cap - 1, 0), 1), -1, np.int32)
    sizes = np.zeros(1, np.int32)
    dag = []
    d = 0
    while front.size and (fb or d < depth_cap):
        ev, ew, heads, first = _new_edges(a, front, seen)
        if not ew.size:
            break
        level, sig = ew[heads], np.add.reduceat(sigma[ev], heads)
        if sig.max() >= _EXACT:
            b, w = divmod(int(level[np.argmax(sig)]), n)
            raise DataError(f"2**53 or more shortest paths from port {a.ports[src[b]]!r} to "
                            f"{a.ports[w]!r}: such counts are not exact as doubles")
        seen[level] = True
        sigma[level] = sig
        bfs = np.argsort(first)
        front = level[bfs]
        if fb:
            e = _ranges(heads[bfs], np.diff(heads, append=ew.size)[bfs])[::-1]
            dag.append((ev[e], ew[e]))
        d += 1
        if d <= depth_cap:
            rows, masks, sizes = _gb_level(a, at_state, rows, masks, sizes, ev, ew, d,
                                           d == depth_cap, counted)
    if fb:
        flat = dep.reshape(-1)
        for ev, ew in reversed(dag):
            np.add.at(flat, ev, sigma[ev] / sigma[ew] * (1.0 + flat[ew]))
        dep[np.arange(src.size), src] = 0.0


def _buckets(counted: list) -> dict[tuple[int, int], dict[int, int]]:
    """gb's counters {(distance, n_st): {country bit: count}} from the
    (distance, n_st, country index, count) groups of `_count`."""
    if not counted:
        return {}
    d = np.concatenate([np.full(len(n_st), d) for d, n_st, _, _ in counted])
    n_st, nid = _dense(np.concatenate([x[1] for x in counted]))
    c = np.concatenate([x[2] for x in counted])
    depths, width = int(d.max()) + 1, int(c.max()) + 1
    keys, sums = _sum_by((nid.astype(np.int64) * depths + d) * width + c,
                         np.concatenate([x[3] for x in counted]))
    buckets: dict[tuple[int, int], dict[int, int]] = {}
    n_st = n_st.tolist()
    for key, k in zip(keys.tolist(), sums.tolist()):
        i, rest = divmod(key, depths * width)
        buckets.setdefault((rest // width, n_st[i]), {})[1 << rest % width] = k
    return buckets


def _block(
    a: _Arrays, sources: range, depth_cap: int, fb: bool
) -> tuple[dict[tuple[int, int], dict[int, int]], np.ndarray | None]:
    """gb's counters and, with fb, the dep rows for the pairs counted from
    `sources`.

    A pair's shortest paths share one length, so each pair s < t, counted
    from s, adds its integer delta[c] to a counter per country bit under the
    key (pair distance, n_st). The sources are traversed in batches of
    _BATCH_ELEMENTS // (ports + directed edges), at least one. The dep rows
    hold a double per port for each source, in the order of `sources`.
    """
    size = max(1, _BATCH_ELEMENTS // max(1, len(a.ports) + len(a.indices)))
    src = np.arange(sources.start, sources.stop, sources.step, dtype=np.int32)
    buckets: dict[tuple[int, int], dict[int, int]] = {}
    deps = np.zeros((src.size, len(a.ports))) if fb else None
    for i in range(0, src.size, size):
        counted: list = []
        _batch(a, src[i:i + size], depth_cap, counted, None if deps is None else deps[i:i + size])
        _merge(buckets, _buckets(counted))
    return buckets, deps


def _merge(buckets: dict[tuple[int, int], dict[int, int]], part_buckets) -> None:
    """Add one batch's or block's counters to `buckets`. They are ints, so
    the sum does not depend on the order of the batches or blocks."""
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
    a = _Arrays.of(view)
    n = len(view.adj)
    workers = max(1, min(fork.worker_count(), n))
    depth_cap = max(l_values, default=0)
    buckets: dict[tuple[int, int], dict[int, int]] = {}
    parts: list[np.ndarray] = []

    def take(block):
        _merge(buckets, block[0])
        parts.append(block[1])

    fork.run_parts(lambda sources: _block(a, sources, depth_cap, fb),
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
    return gb, {p: math.fsum(chain.from_iterable(d[:, i].tolist() for d in parts)) / 2.0
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
