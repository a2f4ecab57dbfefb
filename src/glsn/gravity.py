"""Gravity model of bilateral trade and country-level trade reconstruction.

The base model regresses ln(bilateral trade value) on ln(GDP product) and
ln(capital-to-capital distance); extended variants add ln(LSBCI) and the log
product of the two countries' betweenness or connectivity indices. Every
regressor is computed once per country pair (`shared_pairs`), and a variant
keeps the pairs that hold each of its regressors (`assemble_pairs`). Fitting
is plain OLS in log space (raw mode, no standardization).
"""

from __future__ import annotations

import enum
import math
import sys
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .econometrics import DesignMatrix, RegressionReport, ols_fit, pearson_r
from .graph import Glsn
from .model import BilateralRecord, CountryEcon, DataError

EARTH_RADIUS_KM = 6371.0  # mean Earth radius; antipodal distance 20015.09 km


def great_circle_km(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Haversine great-circle distance in kilometres."""
    for lat in (lat1, lat2):
        if not -90 <= lat <= 90:
            raise DataError(f"latitude out of range: {lat}")
    for lon in (lon1, lon2):
        if not -180 <= lon <= 180:
            raise DataError(f"longitude out of range: {lon}")
    phi1, phi2 = math.radians(lat1), math.radians(lat2)
    dphi = phi2 - phi1
    dlam = math.radians(lon2 - lon1)
    a = math.sin(dphi / 2) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2) ** 2
    return 2 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(a)))


class GravityVariant(enum.Enum):
    BASE = "base"
    LSBCI = "lsbci"
    GB = "gb"
    LSBCI_GB = "lsbci_gb"
    GC = "gc"
    LSBCI_GC = "lsbci_gc"

    def variable_names(self) -> tuple[str, ...]:
        return ("ln_gdp_product", "ln_distance") + _EXTRA_REGRESSORS[self]


# Each variant's regressors after ln(GDP product) and ln(distance), in the
# order lsbci -> gb -> gc that decides which reason excludes a pair.
_EXTRA_REGRESSORS = {
    GravityVariant.BASE: (),
    GravityVariant.LSBCI: ("ln_lsbci",),
    GravityVariant.GB: ("ln_gb_product",),
    GravityVariant.LSBCI_GB: ("ln_lsbci", "ln_gb_product"),
    GravityVariant.GC: ("ln_gc_product",),
    GravityVariant.LSBCI_GC: ("ln_lsbci", "ln_gc_product"),
}
_MISSING_REASON = {
    "ln_lsbci": "missing_lsbci",
    "ln_gb_product": "nonpositive_gb",
    "ln_gc_product": "nonpositive_gc",
}


@dataclass(frozen=True)
class CountryPairSample:
    country_i: str
    country_j: str
    ln_gdp_product: float
    ln_distance: float
    ln_btv: float
    ln_lsbci: float | None = None
    ln_gb_product: float | None = None
    ln_gc_product: float | None = None


@dataclass
class PairAssembly:
    samples: list[CountryPairSample] = field(default_factory=list)
    excluded: Counter[str] = field(default_factory=Counter)  # reason -> count


def country_adjacency(g: Glsn) -> set[tuple[str, str]]:
    """Unordered country pairs with at least one inter-country edge."""
    pairs = set()
    for (u, v) in g.edges:
        cu, cv = g.country_of[u], g.country_of[v]
        if cu != cv:
            pairs.add((min(cu, cv), max(cu, cv)))
    return pairs


def _ln_product(a: float, b: float) -> float | None:
    """ln(a * b), or None where either is <= 0. Where the product underflows
    or overflows a normal finite double, it is the sum of the two logs."""
    if a <= 0 or b <= 0:
        return None
    p = a * b
    if sys.float_info.min <= p < math.inf:
        return math.log(p)
    return math.log(a) + math.log(b)


def shared_pairs(
    econ: list[CountryEcon], bilateral: list[BilateralRecord], glsn: Glsn,
    gb: dict[str, float], gc: dict[str, float],
) -> PairAssembly:
    """The pairs whose countries are directly connected in the port graph,
    with both GDPs and capitals present, positive trade and positive
    distance, in pair order, each exclusion counted by reason. Each sample
    holds every variant's regressors, None where one is unavailable."""
    by_code = {e.country_code: e for e in econ}
    connected = country_adjacency(glsn)
    out = PairAssembly()
    for rec in sorted(bilateral, key=lambda r: r.pair):
        ci, cj = rec.pair
        ei, ej = by_code.get(ci), by_code.get(cj)
        if ei is None or ej is None:
            out.excluded["no_econ_record"] += 1
            continue
        if (ci, cj) not in connected:
            out.excluded["not_directly_connected"] += 1
            continue
        if rec.btv_usd <= 0:
            out.excluded["zero_trade"] += 1
            continue
        if ei.gdp_usd is None or ej.gdp_usd is None or ei.gdp_usd <= 0 or ej.gdp_usd <= 0:
            out.excluded["missing_gdp"] += 1
            continue
        if None in (ei.capital_lat, ei.capital_lon, ej.capital_lat, ej.capital_lon):
            out.excluded["missing_capital"] += 1
            continue
        d = great_circle_km(ei.capital_lat, ei.capital_lon, ej.capital_lat, ej.capital_lon)
        if d <= 0:
            out.excluded["zero_distance"] += 1
            continue
        out.samples.append(
            CountryPairSample(
                country_i=ci,
                country_j=cj,
                ln_gdp_product=_ln_product(ei.gdp_usd, ej.gdp_usd),
                ln_distance=math.log(d),
                ln_btv=math.log(rec.btv_usd),
                ln_lsbci=None if rec.lsbci is None or rec.lsbci <= 0 else math.log(rec.lsbci),
                ln_gb_product=_ln_product(gb.get(ci, 0.0), gb.get(cj, 0.0)),
                ln_gc_product=_ln_product(gc.get(ci, 0.0), gc.get(cj, 0.0)),
            )
        )
    return out


def assemble_pairs(shared: PairAssembly, variant: GravityVariant) -> PairAssembly:
    """The samples of `shared` that hold every regressor of `variant`; a
    dropped pair is counted under the first regressor it lacks."""
    out = PairAssembly(excluded=Counter(shared.excluded))
    extra = _EXTRA_REGRESSORS[variant]
    for s in shared.samples:
        missing = next((name for name in extra if getattr(s, name) is None), None)
        if missing is None:
            out.samples.append(s)
        else:
            out.excluded[_MISSING_REASON[missing]] += 1
    return out


def _design_from_samples(
    samples: list[CountryPairSample], variant: GravityVariant
) -> DesignMatrix:
    names = variant.variable_names()
    x = np.column_stack(
        [np.asarray([getattr(s, n) for s in samples], dtype=float) for n in names]
    )
    y = np.asarray([s.ln_btv for s in samples], dtype=float)
    return DesignMatrix(variables=names, x=x, response_name="ln_btv", y=y)


def fit_gravity(
    samples: list[CountryPairSample], variant: GravityVariant
) -> RegressionReport:
    """OLS in log space, unstandardized; coefficients are elasticities."""
    if len(samples) <= len(variant.variable_names()) + 1:
        raise DataError("too few pairs to fit the gravity model")
    return ols_fit(_design_from_samples(samples, variant))


def predict_ln_btv(report: RegressionReport, samples: list[CountryPairSample]) -> list[float]:
    """Predicted ln(trade) of each sample, in sample order."""
    coef = report.coefficients
    out = []
    for s in samples:
        pred = coef["intercept"]
        for name in report.variables:
            pred += coef[name] * getattr(s, name)
        out.append(pred)
    return out


@dataclass(frozen=True)
class TradeEstimate:
    ln_predicted: list[float]  # predicted ln(trade) of each sample, in sample order
    estimated: dict[str, float]  # country -> sum of predicted bilateral trade
    empirical: dict[str, float]  # country -> sum of observed bilateral trade
    pearson_r: float
    implied_adjusted_r2: float


def estimate_country_trade(
    report: RegressionReport, samples: list[CountryPairSample]
) -> TradeEstimate:
    """Country totals from exp of predicted ln(trade), summed over a country's
    included pairs; no log-normal correction is applied."""
    ln_predicted = predict_ln_btv(report, samples)
    est: dict[str, float] = {}
    emp: dict[str, float] = {}
    for s, ln_pred in zip(samples, ln_predicted):
        pred = math.exp(ln_pred)
        obs = math.exp(s.ln_btv)
        for c in (s.country_i, s.country_j):
            est[c] = est.get(c, 0.0) + pred
            emp[c] = emp.get(c, 0.0) + obs
    codes = sorted(est)
    r = pearson_r(np.array([emp[c] for c in codes]), np.array([est[c] for c in codes]))
    # r^2 adjusted for the single implicit regressor
    n = len(codes)
    adj = 1.0 - (1.0 - r * r) * (n - 1) / (n - 2)
    return TradeEstimate(ln_predicted=ln_predicted, estimated=est, empirical=emp,
                         pearson_r=r, implied_adjusted_r2=adj)


def coverage_filter(
    econ: list[CountryEcon],
    bilateral: list[BilateralRecord],
    threshold: float = 0.9,
) -> tuple[list[str], dict[str, str]]:
    """Retain countries whose positive bilateral flows cover strictly more than
    `threshold` of their total trade value. Returns (retained, excluded reasons)."""
    if not 0 < threshold <= 1:
        raise DataError("coverage threshold must be in (0, 1]")
    flows: dict[str, list[float]] = {}
    for rec in bilateral:
        if rec.btv_usd > 0:
            for c in (rec.country_i, rec.country_j):
                flows.setdefault(c, []).append(rec.btv_usd)
    sums = {c: math.fsum(xs) for c, xs in flows.items()}
    retained, excluded = [], {}
    for e in sorted(econ, key=lambda e: e.country_code):
        if e.trade_value_usd is None or e.trade_value_usd <= 0:
            excluded[e.country_code] = "no_total_trade_value"
            continue
        if sums.get(e.country_code, 0.0) > threshold * e.trade_value_usd:
            retained.append(e.country_code)
        else:
            excluded[e.country_code] = "insufficient_bilateral_coverage"
    return retained, excluded
