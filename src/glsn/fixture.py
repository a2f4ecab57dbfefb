"""Seeded synthetic dataset generator with known planted ground truth.

The planted model is documented so tests can assert recovery:

  * country trade value = 1e9 * (10 + 0.6*z(gc) + 0.3*z(gb_l2) + noise),
    where z() standardizes across the generated countries — so best-subset
    selection on standardized indices should recover {gc, gb_l2};
  * bilateral trade follows ln(btv) = b0 + b1*ln(gdp_i*gdp_j) + b2*ln(d_ij)
    + noise with (b0, b1, b2) = (-30, 0.8, -1.1), then a single global rescale
    aligns bilateral totals with country trade totals (a pure intercept shift,
    so the gravity law stays exact);
  * lsci is gc plus independent noise (a correlated but redundant regressor);
  * trade change = 0.1 * trade value + noise, for the trade-change mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graph import WeightScheme, build_glsn
from .gravity import country_adjacency, great_circle_km
from .indices import country_connectivity, glsn_betweenness_exact
from .model import BilateralRecord, CountryEcon, DataError, Port, ServiceRoute

GRAVITY_TRUTH = (-30.0, 0.8, -1.1)  # (b0, b1, b2)
GRAVITY_NOISE_SD = 0.2  # of ln(btv)
TRADE_TRUTH = (0.6, 0.3)  # coefficients on z(gc), z(gb_l2)
TRADE_NOISE_SD = 0.05  # of country trade value, in units of 1e9


@dataclass
class SyntheticDataset:
    ports: list[Port] = field(default_factory=list)
    routes: list[ServiceRoute] = field(default_factory=list)
    econ: list[CountryEcon] = field(default_factory=list)
    bilateral: list[BilateralRecord] = field(default_factory=list)


def _zscore(values: np.ndarray) -> np.ndarray:
    sd = values.std(ddof=1)
    if sd == 0:
        return np.zeros_like(values)
    return (values - values.mean()) / sd


def generate(
    seed: int,
    n_countries: int = 6,
    n_ports: int = 30,
    n_routes: int = 12,
) -> SyntheticDataset:
    if seed < 0:
        raise DataError(f"need a seed of at least 0, got {seed}")
    if n_countries < 2:
        raise DataError("need at least 2 countries for international routes")
    if n_countries > 26**3:
        raise DataError(f"at most {26**3} countries have three-letter codes, got {n_countries}")
    if n_ports < n_countries:
        raise DataError("need at least one port per country")
    if n_routes < 0:
        raise DataError(f"need a route count of at least 0, got {n_routes}")
    if n_routes > 0 and n_ports < 3:
        raise DataError("need at least 3 ports for a route")
    rng = np.random.default_rng(seed)

    codes = ["".join(chr(65 + (i // 26**k) % 26) for k in (2, 1, 0)) for i in range(n_countries)]
    ports = [
        Port(f"P{i:03d}", f"Port {i}", codes[i % n_countries]) for i in range(n_ports)
    ]
    port_ids = [p.port_id for p in ports]
    country_of = {p.port_id: p.country_code for p in ports}

    routes = []
    for r in range(n_routes):
        while True:
            k = int(rng.integers(3, min(7, n_ports) + 1))
            chosen = [port_ids[i] for i in rng.choice(n_ports, size=k, replace=False)]
            if len({country_of[p] for p in chosen}) >= 2:
                break
        cap = float(np.round(rng.uniform(500, 5000), 1))
        routes.append(ServiceRoute(f"R{r:03d}", tuple(chosen), cap))

    g = build_glsn(routes, ports, WeightScheme.UNWEIGHTED)
    gc, _ = country_connectivity(g)
    gb = glsn_betweenness_exact(g, (2,))[2]
    z_gc = _zscore(np.array([gc[c] for c in codes]))
    z_gb = _zscore(np.array([float(gb[c]) for c in codes]))

    a_gc, a_gb = TRADE_TRUTH
    trade = 1e9 * (
        10.0 + a_gc * z_gc + a_gb * z_gb + rng.normal(0, TRADE_NOISE_SD, n_countries)
    )
    export_share = rng.uniform(0.4, 0.6, n_countries)
    gdp = 1e9 * np.exp(rng.normal(3.0, 0.5, n_countries))
    lsci = 20.0 + 5.0 * z_gc + rng.normal(0, 0.5, n_countries)
    lat = rng.uniform(-60, 60, n_countries)
    lon = rng.uniform(-179, 179, n_countries)
    change = 0.1 * trade + 1e8 * rng.normal(0, 0.2, n_countries)

    econ = [
        CountryEcon(
            country_code=codes[i],
            trade_value_usd=float(trade[i]),
            export_usd=float(trade[i] * export_share[i]),
            import_usd=float(trade[i] * (1 - export_share[i])),
            gdp_usd=float(gdp[i]),
            lsci=float(lsci[i]),
            capital_lat=float(np.round(lat[i], 4)),
            capital_lon=float(np.round(lon[i], 4)),
            trade_value_change_usd=float(change[i]),
        )
        for i in range(n_countries)
    ]
    by_code = {e.country_code: e for e in econ}

    b0, b1, b2 = GRAVITY_TRUTH
    raw_pairs = []
    for ci, cj in sorted(country_adjacency(g)):
        ei, ej = by_code[ci], by_code[cj]
        d = great_circle_km(ei.capital_lat, ei.capital_lon, ej.capital_lat, ej.capital_lon)
        if d <= 0:
            continue
        ln_btv = (
            b0
            + b1 * np.log(ei.gdp_usd * ej.gdp_usd)
            + b2 * np.log(d)
            + rng.normal(0, GRAVITY_NOISE_SD)
        )
        raw_pairs.append((ci, cj, float(np.exp(ln_btv)), float(np.round(rng.uniform(0.1, 1.0), 4))))

    # each bilateral value enters two countries' coverage sums
    raw_total = sum(btv for _, _, btv, _ in raw_pairs)
    scale = 0.97 * float(trade.sum()) / (2.0 * raw_total) if raw_total > 0 else 1.0
    bilateral = [
        BilateralRecord(country_i=ci, country_j=cj, btv_usd=btv * scale, lsbci=lsbci)
        for ci, cj, btv, lsbci in raw_pairs
    ]

    return SyntheticDataset(ports=ports, routes=routes, econ=econ, bilateral=bilateral)
