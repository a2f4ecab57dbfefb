import os

import numpy as np
import pytest

import glsn.econometrics
import glsn.fork
import glsn.indices
from glsn.graph import Glsn, WeightScheme


def make_glsn(country_of: dict[str, str], edges, scheme=WeightScheme.UNWEIGHTED) -> Glsn:
    """Build a Glsn directly from an edge list of (u, v) or (u, v, w) tuples."""
    edge_map = {}
    for e in edges:
        u, v = e[0], e[1]
        w = e[2] if len(e) > 2 else 1.0
        edge_map[(min(u, v), max(u, v))] = float(w)
    return Glsn(scheme=scheme, country_of=dict(country_of), edges=dict(sorted(edge_map.items())))


def random_glsn(seed: int, max_nodes: int = 12, edge_prob: float = 0.3) -> Glsn:
    """Seeded random graph with 2-4 countries, used by the oracle suites."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, max_nodes + 1))
    n_countries = int(rng.integers(2, 5))
    countries = [f"C{rng.integers(0, n_countries)}" for _ in range(n)]
    # make sure at least two countries actually appear
    countries[0], countries[1] = "C0", "C1"
    country_of = {f"P{i:02d}": countries[i] for i in range(n)}
    nodes = sorted(country_of)
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < edge_prob:
                edges.append((nodes[i], nodes[j]))
    return make_glsn(country_of, edges)


@pytest.fixture
def chain_graph():
    """s(X) - m(Z) - t(Y), no direct s-t edge."""
    return make_glsn({"s": "X", "m": "Z", "t": "Y"}, [("s", "m"), ("m", "t")])


def assert_no_child_and_mask(mask):
    """No child of this process is left to reap, and its CPU mask is `mask`."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert os.sched_getaffinity(0) == mask


def part_counts(monkeypatch, of: str = "") -> list[int]:
    """The part count of every later `fork.run_parts` call whose function's
    qualified name starts with `of`, in call order."""
    counts = []
    run_parts = glsn.fork.run_parts

    def counted(fn, parts):
        if fn.__qualname__.startswith(of):
            counts.append(len(parts))
        return run_parts(fn, parts)

    monkeypatch.setattr(glsn.fork, "run_parts", counted)
    return counts


def fork_both_passes(monkeypatch) -> tuple[list[int], list[int]]:
    """Make each source of the gb/fb pass and each fit of the subset walk a
    whole batch, so both passes fork even on the 30-port golden fixture; the
    part counts of each pass's later `fork.run_parts` calls."""
    monkeypatch.setattr(glsn.indices, "_BATCH_ELEMENTS", 1)
    monkeypatch.setattr(glsn.econometrics, "_FIT_BATCH_ELEMENTS", 1)
    return (part_counts(monkeypatch, of="_betweenness."),
            part_counts(monkeypatch, of="select_model."))
