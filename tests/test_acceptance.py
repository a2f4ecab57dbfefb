"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import filecmp
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import glsn.fork
from glsn.cli import main as cli_main
from glsn.econometrics import (
    DesignMatrix,
    adjusted_r2_value,
    aic_value,
    ols_fit,
    select_model,
    standardize,
    vif,
)
from glsn.fixture import generate
from glsn.graph import WeightScheme, build_glsn
from glsn.gravity import GravityVariant, CountryPairSample, fit_gravity, great_circle_km
from glsn.indices import (
    build_index_table,
    glsn_betweenness_exact,
    port_betweenness,
)

from conftest import fork_both_passes, make_glsn, random_glsn
from oracle import glsn_betweenness_oracle, port_betweenness_oracle, valid_shortest_path_profile

DATA = Path(__file__).parent / "data"
N_SUITE = 200


def _announce(name: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"PASS: {name}{suffix}")


@pytest.fixture(scope="module")
def graph_suite():
    return [random_glsn(seed) for seed in range(N_SUITE)]


def test_criterion_gb_oracle_equivalence(graph_suite):
    start = time.monotonic()
    for i, g in enumerate(graph_suite):
        fast = glsn_betweenness_exact(g, (2, 3, 4, 5))
        for l_max in (2, 3, 4, 5):
            slow = glsn_betweenness_oracle(g, l_max)
            for c in slow:
                assert abs(fast[l_max][c] - slow[c]) <= 1e-9, (i, l_max, c)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    _announce("GLSN betweenness matches exhaustive oracle on "
              f"{N_SUITE} graphs x 4 caps", f"{elapsed:.1f}s")


def test_criterion_fb_oracle_equivalence(graph_suite):
    start = time.monotonic()
    for i, g in enumerate(graph_suite):
        fast = port_betweenness(g)
        slow = port_betweenness_oracle(g)
        for p in slow:
            assert abs(fast[p] - slow[p]) <= 1e-9, (i, p)
    # analytic values
    path = make_glsn({"P1": "A", "P2": "B", "P3": "C"}, [("P1", "P2"), ("P2", "P3")])
    assert port_betweenness(path) == {"P1": 0.0, "P2": 1.0, "P3": 0.0}
    star_nodes = {"c": "A", **{f"l{i}": "B" for i in range(5)}}
    star = make_glsn(star_nodes, [("c", f"l{i}") for i in range(5)])
    assert port_betweenness(star)["c"] == 10.0  # C(5,2) leaf pairs
    complete_nodes = {f"P{i}": "A" for i in range(6)}
    names = sorted(complete_nodes)
    complete = make_glsn(
        complete_nodes,
        [(u, v) for i, u in enumerate(names) for v in names[i + 1:]],
    )
    assert all(v == 0.0 for v in port_betweenness(complete).values())
    elapsed = time.monotonic() - start
    _announce("Freeman betweenness matches brute force + analytic values",
              f"{elapsed:.1f}s")


def _distance_2_valid_pair_count(g) -> int:
    from collections import deque

    adj = g.neighbors()
    count = 0
    nodes = g.nodes()
    for i, s in enumerate(nodes):
        dist = {s: 0}
        q = deque([s])
        while q:
            v = q.popleft()
            for w in adj[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    q.append(w)
        for t in nodes[i + 1:]:
            if g.country_of[s] == g.country_of[t] or dist.get(t) != 2:
                continue
            n_st, _ = valid_shortest_path_profile(g, s, t, 2)
            if n_st > 0:
                count += 1
    return count


def test_criterion_sum_gb_invariant(graph_suite):
    for i, g in enumerate(graph_suite):
        exact = glsn_betweenness_exact(g, (2,))[2]
        total = sum(exact.values(), Fraction(0))
        assert total == _distance_2_valid_pair_count(g), i
    _announce("sum of country betweenness at cap 2 equals valid distance-2 "
              "pair count, exactly")


def test_criterion_gb_monotonicity(graph_suite):
    for i, g in enumerate(graph_suite):
        profile = glsn_betweenness_exact(g, (2, 3, 4, 5))
        for k in (2, 3, 4):
            for c in profile[k]:
                assert profile[k + 1][c] >= profile[k][c] - 1e-12, (i, k, c)
    _announce("country betweenness is monotone in the path-length cap")


def test_criterion_formula_spot_checks():
    assert aic_value(10, 10.0, 2) == 4.0
    assert abs(adjusted_r2_value(0.5, 11, 1) - (1 - 0.5 * 10 / 9)) <= 1e-10
    d = DesignMatrix(("x1",), np.arange(5.0)[:, None], "y", np.arange(5.0))
    assert vif(d) == {"x1": 1.0}
    _announce("AIC, adjusted R2, and single-variable VIF formulas check out")


def test_criterion_regression_recovery():
    start = time.monotonic()
    ci_hits = 0
    select_hits = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(200, 4))  # x1, x2 real; x3, x4 pure noise
        y = 0.6 * x[:, 0] + 0.3 * x[:, 1] + rng.normal(0, 0.1, 200)
        d = DesignMatrix(("x1", "x2", "x3", "x4"), x, "y", y)
        rep = ols_fit(d.subset(("x1", "x2")))
        if (rep.ci95["x1"][0] <= 0.6 <= rep.ci95["x1"][1]
                and rep.ci95["x2"][0] <= 0.3 <= rep.ci95["x2"][1]):
            ci_hits += 1
        sel = select_model(d, vif_threshold=5.0)
        if sel.verdict.variables == ("x1", "x2"):
            select_hits += 1
    elapsed = time.monotonic() - start
    assert ci_hits >= 90
    assert select_hits >= 90
    assert elapsed < 60.0
    _announce("planted-coefficient recovery",
              f"CI hits {ci_hits}/100, selection hits {select_hits}/100, "
              f"{elapsed:.1f}s")


def test_criterion_gravity_identifiability():
    rng = np.random.default_rng(0)
    b0, b1, b2 = 1.0, 0.8, -1.1
    samples = [
        CountryPairSample(
            country_i=f"A{k}", country_j=f"B{k}",
            ln_gdp_product=float(rng.uniform(40, 50)),
            ln_distance=float(rng.uniform(5, 10)),
            ln_btv=0.0,
        )
        for k in range(200)
    ]
    samples = [
        CountryPairSample(
            s.country_i, s.country_j, s.ln_gdp_product, s.ln_distance,
            b0 + b1 * s.ln_gdp_product + b2 * s.ln_distance,
        )
        for s in samples
    ]
    rep = fit_gravity(samples, GravityVariant.BASE)
    assert abs(rep.coefficients["intercept"] - b0) <= 1e-8
    assert abs(rep.coefficients["ln_gdp_product"] - b1) <= 1e-8
    assert abs(rep.coefficients["ln_distance"] - b2) <= 1e-8
    assert abs(great_circle_km(0, 0, 0, 180) - 20015.09) <= 0.01
    _announce("noiseless gravity coefficients recovered to 1e-8; "
              "antipodal distance within 0.01 km")


@pytest.mark.parametrize("workers", [1, 4])
def test_criterion_end_to_end_determinism(tmp_path, monkeypatch, workers):
    fixture = DATA / "fixture"
    golden = DATA / "golden_report"
    monkeypatch.setattr(glsn.fork, "worker_count", lambda: workers)
    if workers > 1:
        passes = fork_both_passes(monkeypatch)
    start = time.monotonic()
    code = cli_main([
        "report",
        "--routes", str(fixture / "routes.csv"),
        "--routes-meta", str(fixture / "routes_meta.csv"),
        "--ports", str(fixture / "ports.csv"),
        "--countries", str(fixture / "countries.csv"),
        "--bilateral", str(fixture / "bilateral.csv"),
        "--out", str(tmp_path),
    ])
    elapsed = time.monotonic() - start
    assert code == 0
    assert elapsed < 5.0
    if workers > 1:
        assert passes == ([workers], [workers])
    names = sorted(p.name for p in golden.iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == names
    _, mismatch, errors = filecmp.cmpfiles(tmp_path, golden, names, shallow=False)
    assert mismatch == [] and errors == []
    _announce(f"report with {workers} worker(s) reproduces golden outputs "
              "byte-identically", f"{elapsed:.1f}s")


def test_criterion_scale_invariance():
    ds = generate(42)
    g = build_glsn(ds.routes, ds.ports, WeightScheme.UNWEIGHTED)
    table = build_index_table(g, g, (2,), {e.country_code: e.lsci for e in ds.econ})
    codes = table.countries()
    econ = {e.country_code: e for e in ds.econ}
    x = np.array(
        [[table.gc[c], table.gb[2][c], table.fb[c], table.lsci[c]] for c in codes]
    )
    y = np.array([econ[c].trade_value_usd for c in codes])
    names = ("gc", "gb", "fb", "lsci")
    base = select_model(standardize(DesignMatrix(names, x, "trade", y)), 5.0)
    for j in range(4):
        scaled = x.copy()
        scaled[:, j] *= 1000.0
        sel = select_model(standardize(DesignMatrix(names, scaled, "trade", y)), 5.0)
        assert sel.verdict.variables == base.verdict.variables, names[j]
        for r1, r2 in zip(base.table, sel.table):
            assert abs(r1.report.adjusted_r2 - r2.report.adjusted_r2) <= 1e-10
            assert abs(r1.report.aic - r2.report.aic) <= 1e-10
            assert abs(r1.report.max_vif - r2.report.max_vif) <= 1e-10
    _announce("scaling any raw index column by 1000 leaves the standardized "
              "selection identical")
