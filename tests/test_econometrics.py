import csv
import gc
import math
import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from glsn import econometrics
from glsn.econometrics import (
    DesignMatrix,
    adjusted_r2_value,
    aic_value,
    ols_fit,
    pearson,
    select_model,
    standardize,
    vif,
)
from glsn.model import DataError


def design(x, y, names=None, response="y"):
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    names = tuple(names or [f"x{i + 1}" for i in range(x.shape[1])])
    return DesignMatrix(variables=names, x=x, response_name=response, y=np.asarray(y, dtype=float))


class TestStandardize:
    def test_three_point_column(self):
        d = standardize(design([1, 2, 3], [3, 2, 1]))
        assert d.x[:, 0] == pytest.approx([-1, 0, 1])
        assert abs(d.x[:, 0].mean()) < 1e-12
        assert d.x[:, 0].std(ddof=1) == pytest.approx(1.0)

    def test_idempotent(self):
        d = standardize(design([1.0, 4.0, 6.0, 9.0], [0, 1, 2, 3]))
        d2 = standardize(d)
        assert np.allclose(d.x, d2.x, atol=1e-12)
        assert np.allclose(d.y, d2.y, atol=1e-12)

    def test_constant_column_errors(self):
        with pytest.raises(DataError, match="x1"):
            standardize(design([5, 5, 5], [1, 2, 3]))


class TestOlsFit:
    def test_exact_proportionality_unit_slope(self):
        x = np.arange(10.0)
        d = standardize(design(x, 2 * x))
        rep = ols_fit(d)
        assert rep.coefficients["x1"] == pytest.approx(1.0, abs=1e-10)
        assert rep.r2 == pytest.approx(1.0, abs=1e-10)

    def test_aic_formula(self):
        assert aic_value(10, 10.0, 2) == pytest.approx(4.0, abs=1e-12)

    def test_adjusted_r2_formula(self):
        assert adjusted_r2_value(0.5, 11, 1) == pytest.approx(1 - 0.5 * 10 / 9, abs=1e-10)

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(50, 3))
        y = x @ [1.0, -2.0, 0.5] + rng.normal(size=50)
        d = design(x, y)
        rep = ols_fit(d)
        xmat = np.column_stack([np.ones(50), x])
        beta = np.array([rep.coefficients["intercept"]] +
                        [rep.coefficients[v] for v in d.variables])
        resid = y - xmat @ beta
        assert np.abs(xmat.T @ resid).max() < 1e-8 * max(1.0, np.abs(y).sum())

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(40, 2))
        y = x @ [0.7, -0.2] + rng.normal(size=40)
        rep = ols_fit(design(x, y))
        xmat = np.column_stack([np.ones(40), x])
        beta = np.linalg.solve(xmat.T @ xmat, xmat.T @ y)
        assert rep.coefficients["intercept"] == pytest.approx(beta[0], abs=1e-9)
        assert rep.coefficients["x1"] == pytest.approx(beta[1], abs=1e-9)
        assert rep.coefficients["x2"] == pytest.approx(beta[2], abs=1e-9)

    def test_rank_deficient_errors(self):
        x = np.arange(10.0)
        with pytest.raises(DataError, match="rank"):
            ols_fit(design(np.column_stack([x, 2 * x]), x))

    def test_too_few_observations(self):
        with pytest.raises(DataError):
            ols_fit(design([[1, 2], [2, 3]], [1, 2]))

    def test_monotone_r2(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(30, 3))
        y = rng.normal(size=30)
        r2_small = ols_fit(design(x[:, :2], y)).r2
        r2_big = ols_fit(design(x, y)).r2
        assert r2_big >= r2_small - 1e-12

    def test_ci_recovery_monte_carlo(self):
        hits = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            x = rng.normal(size=(200, 2))
            y = 0.6 * x[:, 0] + 0.3 * x[:, 1] + rng.normal(0, 0.1, 200)
            rep = ols_fit(design(x, y))
            lo1, hi1 = rep.ci95["x1"]
            lo2, hi2 = rep.ci95["x2"]
            if lo1 <= 0.6 <= hi1 and lo2 <= 0.3 <= hi2:
                hits += 1
        assert hits >= 90


class TestVif:
    def test_single_variable_is_one(self):
        d = design([1.0, 2.0, 4.0, 5.0], [0, 1, 2, 3])
        assert vif(d) == {"x1": 1.0}

    def test_orthogonal_columns(self):
        x = np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]], dtype=float)
        out = vif(design(x, [0, 0, 0, 0]))
        assert out["x1"] == pytest.approx(1.0, abs=1e-10)
        assert out["x2"] == pytest.approx(1.0, abs=1e-10)

    def test_duplicated_column_is_inf(self):
        x = np.arange(6.0)
        out = vif(design(np.column_stack([x, x]), x))
        assert math.isinf(out["x1"]) and math.isinf(out["x2"])

    def test_zero_rows_error(self):
        with pytest.raises(DataError, match="observation"):
            vif(design(np.empty((0, 2)), np.empty(0)))

    def test_vif_at_least_one(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(25, 4))
        assert all(v >= 1.0 - 1e-12 for v in vif(design(x, rng.normal(size=25))).values())


class TestPearson:
    def test_perfect_positive(self):
        x = np.arange(10.0)
        r, p = pearson(x, x)
        assert r == pytest.approx(1.0)
        assert p < 1e-6

    def test_perfect_negative(self):
        x = np.arange(10.0)
        r, _ = pearson(x, -x)
        assert r == pytest.approx(-1.0)

    def test_constant_errors(self):
        with pytest.raises(DataError):
            pearson(np.ones(5), np.arange(5.0))

    def test_independent_samples_near_zero(self):
        small = 0
        for seed in range(40):
            rng = np.random.default_rng(seed)
            r, _ = pearson(rng.normal(size=1000), rng.normal(size=1000))
            if abs(r) < 0.1:
                small += 1
        assert small >= 38


class TestSelectModel:
    def test_four_candidates_fifteen_subsets(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(30, 4))
        y = x[:, 0] + rng.normal(size=30)
        sel = select_model(design(x, y), vif_threshold=5.0)
        assert len(sel.table) == 15

    def test_high_vif_inadmissible(self):
        rng = np.random.default_rng(5)
        base = rng.normal(size=40)
        x = np.column_stack([base, base + rng.normal(0, 0.2, 40)])
        sel = select_model(design(x, base), vif_threshold=5.0)
        both = next(r for r in sel.table if len(r.variables) == 2)
        assert both.report.max_vif > 5.0
        assert not both.admissible

    def test_collinear_pair_falls_back_to_admissible_single(self):
        # single-variable models always have VIF 1 and stay admissible, so the
        # verdict degrades gracefully when the joint model is too collinear
        rng = np.random.default_rng(6)
        x = np.arange(40.0)
        x2 = np.column_stack([x, x + rng.normal(0, 1e-3, 40)])
        sel = select_model(design(x2, x + 1), vif_threshold=5.0)
        assert len(sel.table) == 3
        assert sel.verdict is not None
        assert len(sel.verdict.variables) == 1

    def test_planted_single_variable_recovered(self):
        hits = 0
        for seed in range(100, 200):
            rng = np.random.default_rng(seed)
            x = rng.normal(size=(300, 3))
            y = x[:, 0] + rng.normal(0, 0.05, 300)
            sel = select_model(design(x, y), vif_threshold=5.0)
            if sel.verdict is not None and sel.verdict.variables == ("x1",):
                hits += 1
        assert hits >= 90

    def test_verdict_permutation_invariant(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(60, 3))
        y = 0.5 * x[:, 0] - 0.4 * x[:, 2] + rng.normal(0, 0.1, 60)
        d1 = design(x, y, names=["a", "b", "c"])
        d2 = design(x[:, ::-1], y, names=["c", "b", "a"])
        s1 = select_model(d1)
        s2 = select_model(d2)
        assert s1.verdict.variables == s2.verdict.variables

    def test_aic_ranks_like_rss_for_equal_k(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(50, 3))
        y = x[:, 1] + rng.normal(0, 0.3, 50)
        sel = select_model(design(x, y))
        singles = [r.report for r in sel.table if len(r.variables) == 1]
        by_aic = sorted(singles, key=lambda r: r.aic)
        by_rss = sorted(singles, key=lambda r: r.rss)
        assert [r.variables for r in by_aic] == [r.variables for r in by_rss]

    @pytest.mark.parametrize("k", range(1, 8))
    @pytest.mark.parametrize("standardized", [False, True])
    def test_every_subset_equals_its_own_fit(self, k, standardized):
        # bit-identity, not closeness: each table row must be the fit of that
        # subset alone, in canonical order (size, then names)
        rng = np.random.default_rng(100 + k)
        n = 12 + 5 * k
        x = rng.normal(size=(n, k)) * rng.uniform(0.01, 100.0, k) + rng.normal(0, 10, k)
        if k >= 2:
            x[:, 1] = x[:, 0] * 3.0 + rng.normal(0, 0.5 * x[:, 0].std(), n)  # VIF above 5
        y = x @ rng.normal(size=k) + rng.normal(0, x.std(), n)
        names = [f"v{(3 * j) % k}{j}" for j in range(k)]  # not in sorted order
        d = design(x, y, names=names)
        if standardized:
            d = standardize(d)
        sel = select_model(d)
        canonical = [c for size in range(1, k + 1)
                     for c in combinations(sorted(names), size)]
        assert [r.variables for r in sel.table] == canonical
        for row in sel.table:
            assert row.report == ols_fit(d.subset(row.variables)), row.variables
            assert row.admissible == (row.report.max_vif < sel.vif_threshold)
        if k >= 2:
            pair = next(r for r in sel.table if set(r.variables) == set(names[:2]))
            assert pair.report.max_vif > 5.0 and not pair.admissible

    def test_exactly_collinear_candidates_error(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(30, 3))
        x[:, 2] = x[:, 0] + x[:, 1]
        with pytest.raises(DataError, match="rank deficient"):
            select_model(design(x, rng.normal(size=30)))

    def test_too_few_observations_error(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(4, 4))
        # sizes 1 and 2 fit; size 3 is the first with no residual degree of freedom
        with pytest.raises(DataError, match="^need more than 4 observations, got 4$"):
            select_model(design(x, rng.normal(size=4)))

    def test_collinear_small_subset_reported_before_too_few_observations(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(5, 4))
        x[:, 3] = 2.0 * x[:, 1]
        with pytest.raises(DataError, match="rank deficient"):
            select_model(design(x, rng.normal(size=5)))


class TestScaleInvariance:
    def test_standardized_pipeline_ignores_column_scale(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(50, 3))
        y = 0.4 * x[:, 0] + 0.2 * x[:, 1] + rng.normal(0, 0.1, 50)
        sel1 = select_model(standardize(design(x, y)))
        x_scaled = x.copy()
        x_scaled[:, 1] *= 1000.0
        sel2 = select_model(standardize(design(x_scaled, y)))
        assert sel1.verdict.variables == sel2.verdict.variables
        for r1, r2 in zip(sel1.table, sel2.table):
            assert r1.report.adjusted_r2 == pytest.approx(r2.report.adjusted_r2, abs=1e-10)
            assert r1.report.aic == pytest.approx(r2.report.aic, abs=1e-10)
            assert r1.report.max_vif == pytest.approx(r2.report.max_vif, abs=1e-10)


GOLDEN_SCATTER = Path(__file__).parent / "data" / "golden_report" / "scatter.csv"


def golden_scatter_design() -> DesignMatrix:
    with GOLDEN_SCATTER.open() as f:
        rows = [r for r in csv.reader(f) if not r[0].startswith("#")]
    head, data = rows[0], rows[1:]
    x = np.array([[float(v) for v in r[1:-1]] for r in data])
    y = np.array([float(r[-1]) for r in data])
    return DesignMatrix(tuple(head[1:-1]), x, head[-1], y)


def exact_ols(d: DesignMatrix) -> tuple[list[Fraction], list[Fraction]]:
    """Coefficients and their variances in exact rational arithmetic, from the
    normal equations of [1 X] solved by Gauss-Jordan on Fractions."""
    xmat = [[Fraction(1)] + [Fraction(float(v)) for v in row] for row in d.x]
    y = [Fraction(float(v)) for v in d.y]
    p = len(xmat[0])
    aug = [
        [sum(r[i] * r[j] for r in xmat) for j in range(p)]
        + [Fraction(int(i == j)) for j in range(p)]
        for i in range(p)
    ]
    for c in range(p):
        aug[c] = [v / aug[c][c] for v in aug[c]]
        for i in range(p):
            if i != c:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[c])]
    inv = [row[p:] for row in aug]
    xty = [sum(r[i] * v for r, v in zip(xmat, y)) for i in range(p)]
    beta = [sum(inv[i][j] * xty[j] for j in range(p)) for i in range(p)]
    rss = sum((v - sum(b * x for b, x in zip(beta, r))) ** 2 for r, v in zip(xmat, y))
    sigma2 = rss / (len(y) - p)
    return beta, [sigma2 * inv[i][i] for i in range(p)]


def ulps_off(value: float, exact: Fraction) -> float:
    return float(abs(Fraction(value) - exact) / Fraction(math.ulp(float(exact))))


class TestBlasFreeFit:
    def test_layout_independent_and_near_exact_on_golden_scatter(self):
        full = standardize(golden_scatter_design())
        f_ordered = full.subset(("gb", "gc"))
        c_ordered = DesignMatrix(
            f_ordered.variables,
            np.ascontiguousarray(f_ordered.x),
            f_ordered.response_name,
            f_ordered.y.copy(),
            standardized=True,
        )
        assert f_ordered.x.flags.f_contiguous and not f_ordered.x.flags.c_contiguous
        assert c_ordered.x.flags.c_contiguous
        a, b = ols_fit(f_ordered), ols_fit(c_ordered)
        assert a.coefficients == b.coefficients
        assert a.ci95 == b.ci95
        assert a.p_values == b.p_values
        assert a.aic == b.aic
        assert a.vif == b.vif

        beta, variances = exact_ols(f_ordered)
        tcrit = Fraction(float(stats.t.ppf(0.975, f_ordered.n_obs - 3)))
        for i, name in enumerate(("intercept", "gb", "gc")):
            if name != "intercept":
                assert ulps_off(a.coefficients[name], beta[i]) <= 1.0, name
            with localcontext() as ctx:
                ctx.prec = 50
                se = Decimal(variances[i].numerator) / Decimal(variances[i].denominator)
                half_width = tcrit * Fraction(se.sqrt())
            lo, hi = a.ci95[name]
            assert ulps_off(lo, beta[i] - half_width) <= 4.0, name
            assert ulps_off(hi, beta[i] + half_width) <= 4.0, name


def correlated_design(k, n=60, seed=10):
    """k candidates in correlated pairs, standardized."""
    rng = np.random.default_rng(seed)
    base = rng.normal(size=(n, (k + 1) // 2))
    x = np.column_stack([base[:, j // 2] + rng.normal(0, 0.3, n) for j in range(k)])
    y = base @ rng.normal(size=base.shape[1]) + rng.normal(size=n)
    return standardize(design(x, y, names=[f"x{j:02d}" for j in range(k)]))


class TestPackedReport:
    def test_p_values_computed_only_when_read(self, monkeypatch):
        calls = []

        def counted(t, dof, _fn=econometrics._t_two_sided_p):
            calls.append(t)
            return _fn(t, dof)

        d = correlated_design(6)
        expected = ols_fit(d.subset(select_model(d).verdict.variables)).p_values
        monkeypatch.setattr(econometrics, "_t_two_sided_p", counted)
        sel = select_model(d)
        assert calls == []
        rep = sel.verdict.report
        assert rep.p_values == expected
        assert len(calls) == rep.k_params

    def test_selection_retains_under_1000_bytes_per_row(self):
        d = correlated_design(10)
        select_model(d)  # warm caches outside the traced region
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            sel = select_model(d)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(sel.table) == 1023
        assert retained / len(sel.table) < 1000

    def test_inf_vif_and_zero_rss_survive_packing(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=20)
        # b - a is 1e-7 of a: above the rank tolerance, inside the VIF one
        x = np.column_stack([a, a + 1e-7 * rng.normal(size=20), rng.normal(size=20)])
        d = design(x, a.copy(), names=["a", "b", "c"])
        sel = select_model(d)
        rows = {r.variables: r for r in sel.table}

        exact = rows[("a",)].report
        assert exact.rss == 0.0 and exact.aic == -math.inf and exact.r2 == 1.0
        assert exact.coefficients == {"intercept": 0.0, "a": 1.0}
        assert exact.ci95 == {"intercept": (0.0, 0.0), "a": (1.0, 1.0)}
        assert exact.p_values == {"intercept": 1.0, "a": 0.0}
        assert sel.verdict.variables == ("a",)

        near = rows[("a", "b")]
        assert near.report.vif == {"a": math.inf, "b": math.inf}
        assert near.report.max_vif == math.inf and not near.admissible
        assert rows[("a", "b", "c")].report.vif["a"] == math.inf

        for row in sel.table:
            assert row.report == ols_fit(d.subset(row.variables)), row.variables
        assert vif(d) == rows[("a", "b", "c")].report.vif
