import math
from dataclasses import replace

import numpy as np
import pytest

from glsn import econometrics
from glsn.gravity import (
    GravityVariant,
    CountryPairSample,
    assemble_pairs,
    coverage_filter,
    estimate_country_trade,
    fit_gravity,
    great_circle_km,
    predict_ln_btv,
    shared_pairs,
)
from glsn.model import BilateralRecord, CountryEcon, DataError

from conftest import make_glsn


class TestGreatCircle:
    def test_antipodal_half_circumference(self):
        assert great_circle_km(0, 0, 0, 180) == pytest.approx(20015.09, abs=0.01)

    def test_quarter_circumference(self):
        assert great_circle_km(0, 0, 0, 90) == pytest.approx(10007.54, abs=0.01)

    def test_symmetric_and_nonnegative(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a = (rng.uniform(-90, 90), rng.uniform(-180, 180))
            b = (rng.uniform(-90, 90), rng.uniform(-180, 180))
            d1 = great_circle_km(*a, *b)
            d2 = great_circle_km(*b, *a)
            assert d1 == pytest.approx(d2, abs=1e-9)
            assert d1 >= 0

    def test_triangle_inequality(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            pts = [(rng.uniform(-90, 90), rng.uniform(-180, 180)) for _ in range(3)]
            ab = great_circle_km(*pts[0], *pts[1])
            bc = great_circle_km(*pts[1], *pts[2])
            ac = great_circle_km(*pts[0], *pts[2])
            assert ac <= ab + bc + 1e-6

    def test_out_of_range(self):
        with pytest.raises(DataError, match="^latitude out of range: 91$"):
            great_circle_km(91, 0, 0, 0)

    @pytest.mark.parametrize("lon", [181, -180.5])
    def test_longitude_out_of_range(self, lon):
        with pytest.raises(DataError, match=f"^longitude out of range: {lon}$"):
            great_circle_km(0, 0, 0, lon)


def _world():
    """Three countries, X-Y connected, Z isolated from X."""
    g = make_glsn(
        {"PX": "XXX", "PY": "YYY", "PZ": "ZZZ"},
        [("PX", "PY"), ("PY", "PZ")],
    )
    econ = [
        CountryEcon("XXX", trade_value_usd=300, gdp_usd=1e9, capital_lat=0, capital_lon=0),
        CountryEcon("YYY", trade_value_usd=200, gdp_usd=2e9, capital_lat=10, capital_lon=10),
        CountryEcon("ZZZ", trade_value_usd=100, gdp_usd=3e9, capital_lat=-20, capital_lon=40),
    ]
    bilateral = [
        BilateralRecord("XXX", "YYY", 100.0, lsbci=0.5),
        BilateralRecord("YYY", "ZZZ", 50.0, lsbci=None),
        BilateralRecord("XXX", "ZZZ", 25.0, lsbci=0.2),
    ]
    return g, econ, bilateral


class TestAssemblePairs:
    def test_pair_without_direct_connection_excluded(self):
        g, econ, bilateral = _world()
        out = assemble_pairs(shared_pairs(econ, bilateral, g, {}, {}), GravityVariant.BASE)
        pairs = {(s.country_i, s.country_j) for s in out.samples}
        assert ("XXX", "ZZZ") not in pairs
        assert out.excluded["not_directly_connected"] == 1

    def test_gb_zero_excluded_under_gb_variant(self):
        g, econ, bilateral = _world()
        gb = {"XXX": 1.0, "YYY": 0.0, "ZZZ": 2.0}
        out = assemble_pairs(shared_pairs(econ, bilateral, g, gb, {}), GravityVariant.GB)
        assert out.samples == []
        assert out.excluded["nonpositive_gb"] == 2

    def test_complete_pair_has_all_logs(self):
        g, econ, bilateral = _world()
        gb = {"XXX": 1.0, "YYY": 2.0, "ZZZ": 3.0}
        out = assemble_pairs(shared_pairs(econ, bilateral, g, gb, {}), GravityVariant.LSBCI_GB)
        (s,) = out.samples
        assert (s.country_i, s.country_j) == ("XXX", "YYY")
        assert s.ln_lsbci == pytest.approx(math.log(0.5))
        assert s.ln_gb_product == pytest.approx(math.log(2.0))
        assert s.ln_gdp_product == pytest.approx(math.log(2e18))
        # YYY-ZZZ dropped for missing lsbci
        assert out.excluded["missing_lsbci"] == 1

    def test_missing_capital_excluded(self):
        g, econ, bilateral = _world()
        econ[0] = CountryEcon("XXX", trade_value_usd=300, gdp_usd=1e9)
        out = assemble_pairs(shared_pairs(econ, bilateral, g, {}, {}), GravityVariant.BASE)
        assert out.excluded.get("missing_capital") == 1

    @pytest.mark.parametrize("gdp", [None, 0.0])
    def test_missing_or_zero_gdp_excluded(self, gdp):
        # ZZZ's only connected pair is YYY-ZZZ
        g, econ, bilateral = _world()
        econ[2] = replace(econ[2], gdp_usd=gdp)
        out = shared_pairs(econ, bilateral, g, {}, {})
        assert [(s.country_i, s.country_j) for s in out.samples] == [("XXX", "YYY")]
        assert out.excluded == {"missing_gdp": 1, "not_directly_connected": 1}

    def test_shared_capital_is_zero_distance(self):
        g, econ, bilateral = _world()
        econ[2] = replace(econ[2], capital_lat=10, capital_lon=10)  # YYY's capital
        out = shared_pairs(econ, bilateral, g, {}, {})
        assert [(s.country_i, s.country_j) for s in out.samples] == [("XXX", "YYY")]
        assert out.excluded == {"zero_distance": 1, "not_directly_connected": 1}

    @pytest.mark.parametrize("variant, reason", [
        (GravityVariant.LSBCI_GB, "nonpositive_gb"),
        (GravityVariant.LSBCI_GC, "nonpositive_gc"),
    ])
    def test_pair_lacking_lsbci_and_index_counted_once_as_missing_lsbci(self, variant, reason):
        # YYY-ZZZ has no lsbci and a zero index for ZZZ; XXX-YYY has both
        g, econ, bilateral = _world()
        index = {"XXX": 1.0, "YYY": 2.0, "ZZZ": 0.0}
        out = assemble_pairs(shared_pairs(econ, bilateral, g, index, index), variant)
        assert [(s.country_i, s.country_j) for s in out.samples] == [("XXX", "YYY")]
        assert out.excluded["missing_lsbci"] == 1
        assert reason not in out.excluded

    def test_log_products_never_raise_on_extreme_values(self):
        # every product underflows (GDPs, gc) or overflows (gb) a double
        g, econ, bilateral = _world()
        econ = [replace(e, gdp_usd=1e-200) for e in econ]
        gb = {"XXX": 1e200, "YYY": 1e200, "ZZZ": 1e200}
        gc = {"XXX": 1e-300, "YYY": 1e-300, "ZZZ": 1e-300}
        shared = shared_pairs(econ, bilateral, g, gb, gc)
        assert len(shared.samples) == 2
        for s in shared.samples:
            assert s.ln_gdp_product == 2 * math.log(1e-200)
            assert s.ln_gb_product == 2 * math.log(1e200)
            assert s.ln_gc_product == 2 * math.log(1e-300)


def synth_samples(rng, n, truth=(1.0, 0.8, -1.1), noise_sd=0.0):
    b0, b1, b2 = truth
    samples = []
    for k in range(n):
        ln_gdp = rng.uniform(40, 50)
        ln_d = rng.uniform(5, 10)
        eps = rng.normal(0, noise_sd) if noise_sd else 0.0
        samples.append(
            CountryPairSample(
                country_i=f"A{k:04d}",
                country_j=f"B{k:04d}",
                ln_gdp_product=ln_gdp,
                ln_distance=ln_d,
                ln_btv=b0 + b1 * ln_gdp + b2 * ln_d + eps,
            )
        )
    return samples


class TestFitGravity:
    @pytest.mark.parametrize("variant", [GravityVariant.BASE, GravityVariant.LSBCI_GB])
    def test_too_few_pairs_error(self, variant):
        # as many pairs as parameters, intercept included, leave no residual
        # degree of freedom
        samples = synth_samples(np.random.default_rng(0), len(variant.variable_names()) + 1)
        with pytest.raises(DataError, match="^too few pairs to fit the gravity model$"):
            fit_gravity(samples, variant)

    def test_noiseless_identification(self):
        rng = np.random.default_rng(0)
        samples = synth_samples(rng, 100)
        rep = fit_gravity(samples, GravityVariant.BASE)
        assert rep.coefficients["intercept"] == pytest.approx(1.0, abs=1e-8)
        assert rep.coefficients["ln_gdp_product"] == pytest.approx(0.8, abs=1e-8)
        assert rep.coefficients["ln_distance"] == pytest.approx(-1.1, abs=1e-8)

    def test_noisy_ci_coverage(self):
        hits = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            samples = synth_samples(rng, 2000, noise_sd=0.2)
            rep = fit_gravity(samples, GravityVariant.BASE)
            ok = all(
                rep.ci95[name][0] <= truth <= rep.ci95[name][1]
                for name, truth in [
                    ("intercept", 1.0),
                    ("ln_gdp_product", 0.8),
                    ("ln_distance", -1.1),
                ]
            )
            hits += ok
        assert hits >= 90

    def test_planted_gb_effect_significant(self):
        rng = np.random.default_rng(5)
        samples = []
        for k in range(500):
            ln_gdp = rng.uniform(40, 50)
            ln_d = rng.uniform(5, 10)
            ln_gb = rng.uniform(0, 4)
            samples.append(
                CountryPairSample(
                    country_i=f"A{k}",
                    country_j=f"B{k}",
                    ln_gdp_product=ln_gdp,
                    ln_distance=ln_d,
                    ln_btv=1 + 0.8 * ln_gdp - 1.1 * ln_d + 0.3 * ln_gb
                    + rng.normal(0, 0.2),
                    ln_gb_product=ln_gb,
                )
            )
        rep = fit_gravity(samples, GravityVariant.GB)
        assert rep.p_values["ln_gb_product"] < 0.01


class TestEstimateCountryTrade:
    def test_noiseless_reconstruction_exact(self):
        rng = np.random.default_rng(2)
        samples = synth_samples(rng, 60)
        rep = fit_gravity(samples, GravityVariant.BASE)
        est = estimate_country_trade(rep, samples)
        for c in est.empirical:
            assert est.estimated[c] == pytest.approx(est.empirical[c], rel=1e-6)
        assert est.pearson_r == pytest.approx(1.0, abs=1e-9)

    def test_single_partner_country_estimate_is_its_prediction(self):
        # every synthetic country has exactly one partner, so each country
        # total must equal exp of its pair's predicted log trade
        rng = np.random.default_rng(3)
        samples = synth_samples(rng, 50, noise_sd=0.1)
        rep = fit_gravity(samples, GravityVariant.BASE)
        est = estimate_country_trade(rep, samples)
        s = samples[7]
        expected = math.exp(predict_ln_btv(rep, [s])[0])
        assert est.estimated[s.country_i] == pytest.approx(expected)
        assert est.estimated[s.country_j] == pytest.approx(expected)

    def test_coefficients_read_once(self, monkeypatch):
        samples = synth_samples(np.random.default_rng(4), 40, noise_sd=0.1)
        rep = fit_gravity(samples, GravityVariant.BASE)
        reads = []
        coefficients = econometrics.RegressionReport.coefficients

        def counted(report):
            reads.append(report)
            return coefficients.fget(report)

        monkeypatch.setattr(econometrics.RegressionReport, "coefficients", property(counted))
        estimate_country_trade(rep, samples)
        assert len(reads) == 1

    def test_reconstruction_computes_no_p_value(self, monkeypatch):
        def no_tail(t, dof):
            raise AssertionError("the Pearson p-value is not used")

        monkeypatch.setattr(econometrics, "_t_two_sided_p", no_tail)
        samples = synth_samples(np.random.default_rng(11), 50, noise_sd=0.3)
        est = estimate_country_trade(fit_gravity(samples, GravityVariant.BASE), samples)
        assert est.pearson_r == pytest.approx(0.9942289786363592, abs=1e-12)

    def test_noisy_reconstruction_reproducible_golden(self):
        # 50-country world with seeded noise; value frozen from the first run
        rng = np.random.default_rng(11)
        samples = synth_samples(rng, 50, noise_sd=0.3)
        rep = fit_gravity(samples, GravityVariant.BASE)
        est = estimate_country_trade(rep, samples)
        assert 0.7 <= est.pearson_r <= 1.0
        assert est.pearson_r == pytest.approx(0.9942289786363592, abs=1e-12)


class TestCoverageFilter:
    def _econ(self, total):
        return [CountryEcon("XXX", trade_value_usd=total)]

    def _bilateral(self, value):
        return [BilateralRecord("XXX", "YYY", value)]

    def test_above_threshold_retained(self):
        retained, _ = coverage_filter(self._econ(100), self._bilateral(95))
        assert retained == ["XXX"]

    def test_below_threshold_excluded(self):
        retained, excluded = coverage_filter(self._econ(100), self._bilateral(85))
        assert retained == []
        assert excluded["XXX"] == "insufficient_bilateral_coverage"

    def test_exactly_at_threshold_excluded(self):
        retained, _ = coverage_filter(self._econ(100), self._bilateral(90))
        assert retained == []

    def test_no_total_trade_excluded_with_reason(self):
        retained, excluded = coverage_filter(
            [CountryEcon("XXX")], self._bilateral(100)
        )
        assert excluded["XXX"] == "no_total_trade_value"

    @pytest.mark.parametrize("threshold", [0.0, -0.5, 1.5, math.nan])
    def test_threshold_outside_unit_interval_error(self, threshold):
        with pytest.raises(DataError, match=r"^coverage threshold must be in \(0, 1\]$"):
            coverage_filter(self._econ(100), self._bilateral(95), threshold)

    def test_monotone_in_threshold(self):
        econ = [
            CountryEcon("XXX", trade_value_usd=100),
            CountryEcon("YYY", trade_value_usd=60),
        ]
        bilateral = [BilateralRecord("XXX", "YYY", 55.0)]
        prev = None
        for threshold in (0.5, 0.7, 0.9, 0.95, 1.0):
            retained, _ = coverage_filter(econ, bilateral, threshold)
            if prev is not None:
                assert set(retained) <= set(prev)
            prev = retained

    def test_coverage_does_not_depend_on_row_order(self):
        # added in this order with +=, the two 1s are lost against 1e16
        econ = [CountryEcon("AAA", trade_value_usd=1e16)]
        rows = [BilateralRecord("AAA", c, v) for c, v in (("BBB", 1e16), ("CCC", 1), ("DDD", 1))]
        for bilateral in (rows, rows[::-1]):
            retained, _ = coverage_filter(econ, bilateral, threshold=1.0)
            assert retained == ["AAA"]
