"""Country-level network indices: connectivity, constrained betweenness, Freeman betweenness.

Shortest paths are hop-count based throughout; edge weights only enter the
connectivity index. A shortest path between ports of two countries is *valid*
when its length is at most l_max and every intermediate port lies in a country
different from both endpoint countries. The country betweenness index (gb)
credits each country with the fraction of valid shortest paths it mediates;
Freeman betweenness (fb) sums classical port betweenness per country.

Both come from one traversal per source port over `_Arrays`, which
numbers ports and countries in sorted order. The sources are traversed in
batches, all of a batch at once, level by level, with numpy arrays: the
algebraic form of Brandes' algorithm (Brandes, Social Networks 2008; Buluc &
Gilbert, IJHPCA 2011). A batch holds _BATCH_ELEMENTS // (ports + directed
edges) sources, at least one; each numpy call costs about the same fixed
time whatever its size, so the widest batches pay it the fewest times, and
_BATCH_ELEMENTS keeps one process over a 300-port graph under a 4 MB traced
peak. For fb each level keeps the order of a one-source BFS: the
dependencies are summed level by level from the deepest, each port's terms
in reversed BFS order, so each source's dep row has the bits of a
one-source loop. gb is integer counting only and needs no order: paths are
grouped by the countries of their intermediate ports, and each target adds
its integer delta[c] per country under (n_st, distance). gb's rows are built
only toward the pairs it counts: the batch's BFS levels are kept, the
states that lead to a counted target are marked backward through foreign
ports, and the rows go forward along the marked edges only. Each worker
folds its batches' counts into one sorted pair of arrays, keys and sums, so
each cap is one exact fraction per country. fb runs the BFS over the whole
component, while gb alone stops it at the largest cap. Shortest-path counts
are float64 for fb, exact below 2**53; a count that reaches 2**53 raises
DataError. gb's counts are int32 or int64 where they fit and Python ints
where they may not.

fb is summed exactly, on a fixed integer grid (Neal, "Fast exact summation
using small and large superaccumulators", arXiv:1505.05571, 2015; Demmel &
Nguyen, "Parallel reproducible summation", IEEE TC 64(7), 2015). With every
shortest-path count below 2**53, each nonzero dep value lies in [2**-53, n)
and so on the grid of 2**-105; each worker splits its batches' dep rows
into 32-bit limbs on that grid, exactly, and keeps one int64 sum per limb
and port, never a dep row per source.

Each source's traversal is independent, so the sources are interleaved over
forked worker processes through `fork.run_parts` (Bader & Madduri, ICPP
2006): one per CPU, but at most one per whole batch of work
(`fork.workers`), so a pass of under two batches stays in one process. The
work is what the pass can touch, in a batch's units (`_work`): per source
its n states and the edge slots its BFS expands, all E for fb, at most
min(E, sum over k < cap of (A**k degree)(s)) for gb alone. So fb's pass
counts n // size batches, and gb alone at L = 2 on the 300-port fixtures,
under one batch, stays in one process, while the table there and gb at
L = 2 on a 1,000-port fixture fork. A worker sends back its gb keys and
sums and, with fb, its limb sums. The blocks merge exactly: the gb counts
are summed once as integers, and fb's limbs are summed as integers and
each port's exact sum rounded once, as math.fsum rounds, so any worker
count and any batch size give the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import fork
from .graph import Glsn, port_counts
from .model import DataError

L_VALUES = (2, 3, 4, 5)
# the indices.csv columns, in order
INDEX_COLUMNS = ("country_code", "port_count", "gc", "gc_norm", *(f"gb_l{l}" for l in L_VALUES),
                 "fb", "fb_norm", "lsci")


def _country_totals(country_of: dict[str, str], terms) -> tuple[dict[str, float], dict[str, float]]:
    """fsum of (country, value) terms per country, and that over the country's
    port count. Every country in `country_of` appears, in `port_counts` order."""
    counts = port_counts(country_of)
    by_country: dict[str, list[float]] = {c: [] for c in counts}
    for c, x in terms:
        by_country[c].append(x)
    sums = {c: math.fsum(xs) for c, xs in by_country.items()}
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


_BATCH_ELEMENTS = 1 << 17  # sources x (ports + directed edges) traversed at once
_EXACT = 1 << 53  # float64 holds every integer below this


@dataclass(frozen=True)
class _Arrays:
    """A Glsn on ints, ports and countries numbered in sorted order: port i is
    ports[i], its degree[i] neighbours, ascending, are indices[start[i]:
    start[i] + degree[i]], and its country is countries[country[i]]."""

    ports: list[str]
    countries: list[str]
    start: np.ndarray
    degree: np.ndarray
    indices: np.ndarray
    country: np.ndarray

    @classmethod
    def of(cls, g: Glsn) -> _Arrays:
        ports, nbrs = g.nodes(), g.neighbors()
        index = {p: i for i, p in enumerate(ports)}
        countries = list(port_counts(g.country_of))
        number = {c: j for j, c in enumerate(countries)}
        degree = np.array([len(nbrs[p]) for p in ports], np.int32)
        indices = np.fromiter((index[q] for p in ports for q in nbrs[p]), np.int32)
        start = (np.cumsum(degree) - degree).astype(_int(indices.size))
        country = np.array([number[g.country_of[p]] for p in ports], np.int32)
        return cls(ports, countries, start, degree, indices, country)


def _int(bound: int) -> type:
    """int32 if it holds 0 .. bound, else int64, else Python ints."""
    return np.int32 if bound < 1 << 31 else np.int64 if bound < 1 << 63 else object


def _key(hi: np.ndarray, scale: int, lo) -> np.ndarray:
    """hi * scale + lo, for 0 <= lo < scale, in the narrowest type of `_int`."""
    key = hi.astype(_int((int(hi.max(initial=0)) + 1) * scale))
    key *= scale
    key += lo
    return key


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The ranges starts[i], ..., starts[i] + counts[i] - 1, concatenated:
    0, 1, 2, ... shifted by starts[i] less the place where range i starts."""
    ends = np.cumsum(counts)
    total = int(ends[-1]) if ends.size else 0
    out = np.arange(total, dtype=_int(total + int(starts.max(initial=0))))
    out += np.repeat(starts - ends + counts, counts)
    return out


def _heads(x: np.ndarray) -> np.ndarray:
    """Where each run of equal values in x starts."""
    head = np.empty(x.size, bool)
    head[:1] = True
    np.not_equal(x[1:], x[:-1], out=head[1:])
    return head.nonzero()[0]


def _lengths(starts: np.ndarray, total: int) -> np.ndarray:
    """The lengths of the runs that start at `starts`, ascending, the last
    ending at total."""
    out = np.empty_like(starts)
    np.subtract(starts[1:], starts[:-1], out=out[:-1])
    out[-1:] = total - starts[-1:]
    return out


def _sorted_runs(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """An order that sorts keys, and where each run of equal keys starts in it."""
    order = np.argsort(keys)
    return order, _heads(keys[order])


def _sum_by(keys: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct keys, ascending, and the sum of the non-negative values
    under each, in the narrowest type of `_int` that holds the total of all
    the values."""
    if not keys.size:
        return keys, values
    values = values.astype(_int(int(values.max()) * values.size), copy=False)
    order, starts = _sorted_runs(keys)
    return keys[order[starts]], np.add.reduceat(values[order], starts, dtype=values.dtype)


def _dense(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct keys, ascending, and the index of each key among them."""
    order, starts = _sorted_runs(keys)
    ids = np.empty(keys.size, _int(keys.size))
    ids[order] = np.repeat(np.arange(starts.size, dtype=ids.dtype), _lengths(starts, keys.size))
    return keys[order[starts]], ids


def _gb_level(a: _Arrays, at_state: tuple, rows: tuple, masks: np.ndarray, ev: np.ndarray,
              ew: np.ndarray, d: int, depth_cap: int, counted: list) -> tuple:
    """gb at BFS level d of a batch, from the DAG edges ev -> ew that lead
    to a counted target (see `_gb`).

    at_state holds per state its port's country index and whether the port
    is a target: in a country not the source's, numbered after the source.
    A row (state, mask id, count) counts the shortest paths to a port whose
    intermediate ports lie in the countries of the mask, none in the
    source's country; mask id i lists its distinct country indices in
    masks[:, i], the unused slots -1. The rows of level d - 1, sorted by
    state, are joined along the edges and summed per (state, mask id). A
    target t > s takes the rows whose mask misses t's country: their counts
    sum to n_st, and each country of a mask adds the row's count under
    (n_st, d); see `_count`. Unless d is depth_cap, returns the rows and
    masks of level d, each mask with its port's country added: the table
    keeps its ids and takes one new id per (mask id, country) pair, so two
    ids may list one set, which only leaves their rows unmerged.
    """
    country, target = at_state
    width = len(a.countries)
    state, mask, count = _join(rows, ev, ew, masks.shape[1], country.size)
    c = country[state]
    # take, unlike masks[:, mask], gives a C-ordered array, which any() and
    # the boolean index in `_count` scan several times faster
    through = (masks.take(mask, axis=1) == c).any(axis=0)  # the mask has the port's own country
    t = (target[state] & ~through).nonzero()[0]
    if t.size:
        _count(state[t], mask[t], count[t], masks, d, width, depth_cap, counted)
    if d == depth_cap:
        return rows, masks
    ids = masks.shape[1]
    new = (~through).nonzero()[0]
    pairs, inv = _dense(_key(mask[new], width, c[new]))
    table = np.full((d, ids + pairs.size), -1, np.int32)
    table[:-1, :ids] = masks
    table[:-1, ids:] = masks.take(pairs // width, axis=1)
    table[-1, ids:] = pairs % width
    mask[new] = ids + inv
    return (state, mask, count), table


def _join(rows: tuple, ev: np.ndarray, ew: np.ndarray, ids: int, states: int) -> tuple:
    """The rows, sorted by state, joined along the edges ev -> ew, in any
    order, and summed per (state, mask id) of ew, sorted by both."""
    state, mask, count = rows
    per_state = np.bincount(state, minlength=states)
    k = per_state[ev]
    at = _ranges(np.cumsum(per_state)[ev] - k, k)
    key, count = _sum_by(_key(np.repeat(ew, k), ids, mask[at]), count[at])
    return (key // ids).astype(np.int32), (key % ids).astype(np.int32), count


def _count(state: np.ndarray, mask: np.ndarray, count: np.ndarray, masks: np.ndarray, d: int,
           width: int, depth_cap: int, counted: list) -> None:
    """Append to `counted` a (key, count) pair of arrays for the valid rows
    of level d's targets, sorted by state, with their masks' countries
    listed: each country index c of a row's mask takes the row's count under
    the key (n_st * (depth_cap + 1) + d) * width + c."""
    heads = _heads(state)
    # count's type holds the total of its values (see `_sum_by`), so any n_st
    n_st = np.repeat(np.add.reduceat(count, heads, dtype=count.dtype),
                     _lengths(heads, state.size))
    listed = masks.take(mask, axis=1)
    on = listed >= 0
    counted.append(_sum_by(_key(np.broadcast_to(n_st, on.shape)[on], (depth_cap + 1) * width,
                                d * width + listed[on]), np.broadcast_to(count, on.shape)[on]))


def _new_edges(a: _Arrays, front: np.ndarray, unseen: np.ndarray) -> tuple:
    """The edges ev -> ew out of the states of `front` into unseen states,
    sorted by ew, each ew's in the order found: by the order of ev in
    `front`, then ascending ew; heads[j] starts the edges into the j-th new
    state, and first[j] is the place of its first edge in that order."""
    ports = front % len(a.ports)
    degree = a.degree[ports]
    ew = np.repeat(front - ports, degree)
    ew += a.indices[_ranges(a.start[ports], degree)]
    new = unseen[ew].nonzero()[0]
    ev, ew = np.repeat(front, degree)[new], ew[new]
    int_t = _int(unseen.size * ew.size)
    order = np.argsort(ew.astype(int_t) * ew.size + np.arange(ew.size, dtype=int_t))
    ev, ew = ev[order], ew[order]
    heads = _heads(ew)
    return ev, ew, heads, order[heads]


def _fb_level(a: _Arrays, src: np.ndarray, sigma: np.ndarray, ev: np.ndarray, ew: np.ndarray,
              heads: np.ndarray, first: np.ndarray, level: np.ndarray) -> tuple:
    """fb at one BFS level of a batch, from its edges ev -> ew as `_new_edges`
    gives them and its new states, ascending: sets their sigma, and returns
    the new states in BFS order and the level's edges ev, ew in reversed BFS
    order of ew."""
    sig = np.add.reduceat(sigma[ev], heads)
    if sig.max() >= _EXACT:
        b, w = divmod(int(level[np.argmax(sig)]), len(a.ports))
        raise DataError(f"2**53 or more shortest paths from port {a.ports[src[b]]!r} to "
                        f"{a.ports[w]!r}: such counts are not exact as doubles")
    sigma[level] = sig
    bfs = np.argsort(first)
    e = _ranges(heads[bfs], _lengths(heads, ew.size)[bfs])[::-1]
    return level[bfs], ev[e], ew[e]


def _gb(a: _Arrays, src: np.ndarray, levels: list, depth_cap: int, counted: list) -> None:
    """gb's counts for one batch into `counted` (see `_gb_level`), from its
    DAG edges ev -> ew at each level up to depth_cap.

    Port v seen from src[b] is state b * n + v. A state is needed when it is
    a target, or a foreign port (in a country not the source's) with an edge
    into a needed state: marked backward from the deepest level, these are
    the states through which a row reaches a counted pair within the cap.
    The rows are then built forward from the sources along the edges out of
    states that hold rows into needed states only; a dropped row would reach
    no counted target, so no count changes.
    """
    if not levels:  # fb alone, or no edge out of the sources
        return
    n = len(a.ports)
    start = np.arange(src.size, dtype=np.int32) * n + src
    country = np.tile(a.country, src.size)
    foreign = country != np.repeat(a.country[src], n)
    target = foreign & (np.tile(np.arange(n, dtype=np.int32), src.size) > np.repeat(src, n))
    need = target.copy()
    for ev, ew in reversed(levels[1:]):
        need[ev[(need[ew] & foreign[ev]).nonzero()[0]]] = True
    reached = np.zeros(need.size, bool)  # the states that hold rows
    reached[start] = True
    rows = (start, np.zeros(src.size, np.int32), np.ones(src.size, np.int32))
    masks = np.full((0, 1), -1, np.int32)
    for d, (ev, ew) in enumerate(levels, 1):
        # indexing by nonzero()'s positions, not by a boolean mask, which
        # numpy took several times longer to apply
        keep = (reached[ev] & need[ew]).nonzero()[0]
        if not keep.size:  # no row at level d, so none deeper
            break
        ev, ew = ev[keep], ew[keep]
        reached[ew] = True
        rows, masks = _gb_level(a, (country, target), rows, masks, ev, ew, d, depth_cap, counted)


def _batch(
    a: _Arrays, src: np.ndarray, depth_cap: int, counted: list, fb: bool
) -> np.ndarray | None:
    """gb's counts into `counted` (see `_gb`) and, for fb, the dep rows,
    (len(src), n), for one batch of sources traversed together.

    Port v seen from src[b] is state b * n + v. The BFS runs level by level
    over the whole component for fb, else to depth_cap, and keeps each
    level's edges; gb then counts along them (see `_gb`). For fb, each level
    is found from the one before in BFS order: the edges out of it in the
    order of their ports, each port's neighbours ascending, and a new port
    takes its first edge's place; gb's integer sums need no order, so gb
    alone takes each level in state order. sigma counts shortest paths as
    float64, exact below 2**53: a count of 2**53 or more raises DataError.
    fb's dep sums the Brandes terms sigma[v] / sigma[w] * (1 + dep[w]) level
    by level from the deepest, each level's edges in reversed BFS order of
    w, with np.add.at, which adds in array order: each dep[v] gets its terms
    in the order of a one-source traversal, so the same bits. The sources
    and unreached ports keep 0.0.
    """
    n = len(a.ports)
    front = np.arange(src.size, dtype=np.int32) * n + src
    unseen = np.ones(src.size * n, bool)
    unseen[front] = False
    if fb:
        sigma = np.zeros(src.size * n)
        sigma[front] = 1.0
    levels = []  # each level's (ev, ew); with fb, in reversed BFS order of ew
    while front.size and (fb or len(levels) < depth_cap):
        ev, ew, heads, first = _new_edges(a, front, unseen)
        if not ew.size:
            break
        front = ew[heads]
        unseen[front] = False
        if fb:
            front, ev, ew = _fb_level(a, src, sigma, ev, ew, heads, first, front)
        levels.append((ev, ew))
        del heads, first  # free before the next level's are built: a lower peak
    del unseen
    _gb(a, src, levels[:depth_cap], depth_cap, counted)
    if not fb:
        return None
    dep = np.zeros(src.size * n)
    for ev, ew in reversed(levels):
        np.add.at(dep, ev, sigma[ev] / sigma[ew] * (1.0 + dep[ew]))
    dep = dep.reshape(src.size, n)
    dep[np.arange(src.size), src] = 0.0
    return dep


# fb is summed exactly on the grid of the multiples of 2**_GRID, in _LIMBS
# limbs of 32 bits: every double at or above 2**-53 lies on the grid, and
# the limbs hold every double below 2**(_GRID + 32 * _LIMBS) = 2**87
_GRID = -105
_LIMBS = 6


def _limb_sums(terms: np.ndarray) -> np.ndarray:
    """The column sums of `terms`, (rows, n) doubles, exactly: (_LIMBS, n)
    int64, where limb k sums bits 32k .. 32k + 31 of each term over
    2**_GRID. Each term is split by exact steps (ldexp, floor, subtract); a
    term that is negative, off the grid or at or above 2**87 raises
    ValueError, never rounds. Each limb sum is below rows * 2**32, so int64
    holds it for fewer than 2**31 rows."""
    y = np.ldexp(terms, -_GRID)
    low, top = float(y.min(initial=0.0)), float(y.max(initial=0.0))
    if not (low >= 0.0 and top < 2.0 ** (32 * _LIMBS)):  # so is NaN
        raise ValueError(f"a term outside [0, 2**{_GRID + 32 * _LIMBS})")
    out = np.zeros((_LIMBS, y.shape[1]), np.int64)
    for k in reversed(range(_LIMBS)):
        if top >= 2.0 ** (32 * k):  # else every term's limb k is 0
            limb = np.floor(np.ldexp(y, -32 * k))
            y -= np.ldexp(limb, 32 * k)
            out[k] = limb.astype(np.int64).sum(axis=0)
    if y.any():
        raise ValueError(f"a term off the grid of 2**{_GRID}")
    return out


def _round_limbs(limbs: np.ndarray) -> list[float]:
    """Each column's exact sum from its limb sums (see `_limb_sums`), built
    as a Python int by shifts and rounded once to the nearest double, ties
    to even, as math.fsum rounds."""
    exact = [0] * limbs.shape[1]
    for row in limbs[::-1].tolist():
        exact = [(x << 32) + y for x, y in zip(exact, row)]
    return [math.ldexp(float(x), _GRID) for x in exact]


def _block(
    a: _Arrays, sources: range, depth_cap: int, fb: bool, size: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """gb's counts and, with fb, the limb sums of the dep rows for the pairs
    counted from `sources`.

    A pair's shortest paths share one length d, so each pair s < t, counted
    from s, adds its integer delta[c] for each country index c under the
    key (n_st * (depth_cap + 1) + d) * width + c. The sources are traversed
    in batches of `size`, and each batch's counts are summed into the
    block's as it ends: the distinct keys, ascending, and the count under
    each. Each batch's dep rows are split into limbs and added into one
    (_LIMBS, n) int64 accumulator (see `_limb_sums`), so a worker holds the
    dep rows of one batch at a time.
    """
    src = np.arange(sources.start, sources.stop, sources.step, dtype=np.int32)
    keys, sums = np.zeros(0, np.int64), np.zeros(0, np.int64)
    limbs = np.zeros((_LIMBS, len(a.ports)), np.int64) if fb else None
    for i in range(0, src.size, size):
        counted = [(keys, sums)]
        dep = _batch(a, src[i:i + size], depth_cap, counted, fb)
        keys, sums = _sum_by(np.concatenate([k for k, _ in counted]),
                             np.concatenate([x for _, x in counted]))
        if fb:
            limbs += _limb_sums(dep)
        del dep  # free before the next batch's are built: a lower peak
    return keys, sums, limbs


def _work(a: _Arrays, cap: int | None) -> int:
    """The elements a pass over all sources can touch, in the units of a
    batch's budget: per source, its n states and the edge slots its BFS
    expands. fb's BFS (cap None) covers the whole component, so n + E per
    source, E the directed edges. gb alone stops at `cap`: the ports at
    distance k from s are ends of walks of length k, so s expands at most
    min(E, sum over k < cap of (A**k degree)(s)) slots, A the adjacency
    matrix, which is exact at caps 1 and 2. Each product is clamped at E,
    which leaves that minimum as it is and keeps the sums in int64."""
    n, e = len(a.ports), a.indices.size
    if cap is None:
        return n * (n + e)
    step = a.degree.astype(np.int64)
    total = step.copy()
    walks = np.zeros(e + 1, np.int64)
    for _ in range(cap - 1):
        np.cumsum(step[a.indices], out=walks[1:])
        step = np.minimum(walks[a.start + a.degree] - walks[a.start], e)
        total += step
    return n * n + int(np.minimum(total, e).sum())


def _betweenness(
    g: Glsn, l_values: tuple[int, ...], fb: bool
) -> tuple[dict[int, dict[str, Fraction]], dict[str, float] | None]:
    """Exact gb per cap in l_values and, with fb, port betweenness (else None).

    The sources are interleaved over `fork.workers` of the whole batches of
    `_work`, worker i taking sources i, i + workers, ...; the blocks'
    counts are summed once, when all have arrived. A cap's total sums delta/n_st
    exactly over the keys within it, as integers over the lcm of all n_st:
    one Fraction per country and cap. fb adds the blocks' limb sums as
    integers and rounds each port's exact sum once.
    """
    a = _Arrays.of(g)
    n = len(a.ports)
    elements = max(1, n + len(a.indices))
    size = max(1, _BATCH_ELEMENTS // elements)
    depth_cap = max(l_values, default=0)
    workers = fork.workers(_work(a, None if fb else depth_cap) // (size * elements))
    parts = fork.run_parts(lambda sources: _block(a, sources, depth_cap, fb, size),
                           [range(i, n, workers) for i in range(workers)])

    keys, sums = _sum_by(np.concatenate([part[0] for part in parts]),
                         np.concatenate([part[1] for part in parts]))
    # keys are (n_st, distance, country), ascending: scale each count to the
    # lcm of all n_st, then sum per (distance, country) and over distances
    span = (depth_cap + 1) * len(a.countries)
    n_st = keys // span
    heads = _heads(n_st)
    distinct = n_st[heads].tolist()
    lcm = math.lcm(*distinct)
    scale = np.array([lcm // x for x in distinct], object)
    num = np.zeros(span, object)
    np.add.at(num, (keys % span).astype(np.int64),
              sums.astype(object) * np.repeat(scale, _lengths(heads, keys.size)))
    num = num.reshape(depth_cap + 1, len(a.countries)).cumsum(axis=0).tolist()
    gb = {l_max: {country: Fraction(x, lcm) for country, x in zip(a.countries, num[l_max])}
          for l_max in l_values}
    if not fb:
        return gb, None
    # each unordered pair is seen from both endpoints; the exact sum is
    # rounded once, as fsum rounds, so no worker count or order moves a bit
    limbs = np.add.reduce([part[2] for part in parts])
    return gb, {p: x / 2.0 for p, x in zip(a.ports, _round_limbs(limbs))}


def glsn_betweenness_exact(
    g: Glsn, l_values: tuple[int, ...] = L_VALUES
) -> dict[int, dict[str, Fraction]]:
    """Country betweenness for every requested path-length cap in one pass."""
    _check_caps(l_values)
    return _betweenness(g, l_values, fb=False)[0]


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
    """Per-country index rows. Every per-country dict lists its countries in
    the order of `port_count`, which `build_index_table` takes from
    `port_counts`: sorted by code."""

    port_count: dict[str, int]
    gc: dict[str, float]
    gc_norm: dict[str, float]
    gb: dict[int, dict[str, float]]  # l_max -> country -> value
    fb: dict[str, float]
    fb_norm: dict[str, float]
    lsci: dict[str, float | None] = field(default_factory=dict)

    def countries(self) -> list[str]:
        return list(self.port_count)

    def csv_rows(self) -> list[dict]:
        """One dict per country, keyed by INDEX_COLUMNS; a cap not computed
        and a missing lsci are blank."""
        return [
            dict(zip(INDEX_COLUMNS, (
                c, self.port_count[c], self.gc[c], self.gc_norm[c],
                *(self.gb.get(l, {}).get(c, "") for l in L_VALUES),
                self.fb[c], self.fb_norm[c], "" if self.lsci.get(c) is None else self.lsci[c],
            ), strict=True))
            for c in self.countries()
        ]


def build_index_table(
    g_weighted: Glsn,
    g_structure: Glsn,
    l_values: tuple[int, ...] = L_VALUES,
    lsci: dict[str, float | None] | None = None,
) -> CountryIndexTable:
    """Full index table: connectivity on the requested weighting, betweenness
    on the (scheme-independent) structure, gb and fb from one BFS per port.
    Every caller passes one graph twice, but the benchmark's `indices_1000`
    calls build_index_table(g, g, caps), so the two-graph signature stays."""
    _check_caps(l_values)
    gc, gc_norm = country_connectivity(g_weighted)
    gb, b = _betweenness(g_structure, l_values, fb=True)
    fb, fb_norm = country_freeman(b, g_structure.country_of)
    return CountryIndexTable(
        port_count=port_counts(g_structure.country_of),
        gc=gc,
        gc_norm=gc_norm,
        gb={l: {c: float(x) for c, x in per_country.items()} for l, per_country in gb.items()},
        fb=fb,
        fb_norm=fb_norm,
        lsci=lsci or {},
    )
