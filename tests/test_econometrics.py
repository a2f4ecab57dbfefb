import csv
import gc
import math
import os
import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import glsn.fork
from glsn import econometrics
from glsn.econometrics import (
    DesignMatrix,
    adjusted_r2_value,
    aic_value,
    ols_fit,
    pearson_r,
    select_model,
    standardize,
    vif,
)
from glsn.model import DataError

from conftest import assert_no_child_and_mask, part_counts


def design(x, y, names=None, response="y"):
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    names = tuple(names or [f"x{i + 1}" for i in range(x.shape[1])])
    return DesignMatrix(variables=names, x=x, response_name=response, y=np.asarray(y, dtype=float))


@pytest.mark.parametrize("names, x, y, error", [
    (("x1",), np.zeros(3), np.zeros(3), "design must be a 2-d matrix with a 1-d response"),
    (("x1",), np.zeros((3, 1)), np.zeros(4), "row count mismatch between design and response"),
    (("x1", "x2"), np.zeros((3, 1)), np.zeros(3), "variable name count mismatch"),
    (("x1", "x1"), np.zeros((3, 2)), np.zeros(3), "duplicate variable names"),
    (("x1",), np.array([[0.0], [math.nan], [1.0]]), np.zeros(3),
     "design contains non-finite values"),
], ids=["1-d", "rows", "names", "duplicate-name", "non-finite"])
def test_design_matrix_guards(names, x, y, error):
    with pytest.raises(DataError, match=f"^{error}$"):
        DesignMatrix(variables=names, x=x, response_name="y", y=y)


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

    def test_constant_column_errors(self):
        with pytest.raises(DataError, match="^column 'x2' is constant$"):
            vif(design([[1.0, 5.0], [2.0, 5.0], [4.0, 5.0]], [0, 1, 2]))

    def test_vif_at_least_one(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(25, 4))
        assert all(v >= 1.0 - 1e-12 for v in vif(design(x, rng.normal(size=25))).values())


class TestPearson:
    def test_perfect_positive(self):
        x = np.arange(10.0)
        assert pearson_r(x, x) == pytest.approx(1.0)

    def test_perfect_negative(self):
        x = np.arange(10.0)
        assert pearson_r(x, -x) == pytest.approx(-1.0)

    def test_constant_errors(self):
        with pytest.raises(DataError):
            pearson_r(np.ones(5), np.arange(5.0))

    @pytest.mark.parametrize("x, y", [(np.arange(2.0), np.arange(2.0)),
                                      (np.arange(4.0), np.arange(5.0))])
    def test_short_or_unequal_vectors_error(self, x, y):
        with pytest.raises(DataError,
                           match="^pearson needs two equal-length vectors of length >= 3$"):
            pearson_r(x, y)

    def test_independent_samples_near_zero(self):
        small = 0
        for seed in range(40):
            rng = np.random.default_rng(seed)
            r = pearson_r(rng.normal(size=1000), rng.normal(size=1000))
            if abs(r) < 0.1:
                small += 1
        assert small >= 38


def mp_two_sided_tail(t, nu):
    """2 P(T > |t|) at mpmath's working precision: I_x(nu/2, 1/2), x = nu/(nu+t^2)."""
    mpmath = pytest.importorskip("mpmath")
    t = mpmath.mpf(t)
    return mpmath.betainc(mpmath.mpf(nu) / 2, mpmath.mpf(1) / 2, 0, nu / (nu + t * t),
                          regularized=True)


def tail_grid(n=300, seed=20):
    """Seeded (nu, t): nu log-uniform in 1..5000, |t| log-uniform in 1e-3..30,
    either sign, plus three points whose tail is below 1e-100."""
    rng = np.random.default_rng(seed)
    nus = np.exp(rng.uniform(0.0, math.log(5000), n)).round().astype(int).tolist()
    ts = (np.exp(rng.uniform(math.log(1e-3), math.log(30), n)) * rng.choice([-1, 1], n)).tolist()
    return list(zip(nus, ts)) + [(5000, 30.0), (1000, -25.0), (2000, 28.5)]


class TestStudentT:
    """The t distribution that gives the CIs and p-values, against mpmath at
    50 digits: every value must be the correctly rounded double."""

    QUANTILE_DOFS = list(range(1, 301)) + [400, 1000, 5000]

    def test_quantile_is_correctly_rounded(self):
        # mpmath's 50-digit quantile rounds to q exactly when the tail at the
        # two half-ulp points around q brackets the target
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            target = 2 * (1 - mpmath.mpf(0.975))
            for nu in self.QUANTILE_DOFS:
                q = econometrics._t_quantile_975(nu)
                lo = (mpmath.mpf(q) + math.nextafter(q, 0.0)) / 2
                hi = (mpmath.mpf(q) + math.nextafter(q, math.inf)) / 2
                assert mp_two_sided_tail(lo, nu) > target > mp_two_sided_tail(hi, nu), nu

    @pytest.mark.parametrize("nu", [1, 2, 3, 10, 144, 5000])
    def test_quantile_equals_mpmath_root(self, nu):
        mpmath = pytest.importorskip("mpmath")
        q = econometrics._t_quantile_975(nu)
        with mpmath.workdps(50):
            target = 2 * (1 - mpmath.mpf(0.975))
            root = mpmath.findroot(lambda t: mp_two_sided_tail(t, nu) - target, q)
            assert float(root) == q

    def test_tail_is_correctly_rounded(self):
        mpmath = pytest.importorskip("mpmath")
        ps = []
        with mpmath.workdps(50):
            for nu, t in tail_grid():
                p = econometrics._t_two_sided_p(t, nu)
                assert p == float(mp_two_sided_tail(t, nu)), (nu, t)
                ps.append(p)
        assert min(ps) < 1e-100

    def test_edge_cases(self):
        p = econometrics._t_two_sided_p
        for nu in (1, 2, 7, 5000):
            assert p(0.0, nu) == 1.0 and p(-0.0, nu) == 1.0
            assert p(math.inf, nu) == 0.0 and p(-math.inf, nu) == 0.0
            assert math.isnan(p(math.nan, nu))
        for nu, t in tail_grid(n=60, seed=21):
            assert p(t, nu) == p(-t, nu)

    def test_scipy_agrees_to_1e_12(self):
        for nu, t in tail_grid(n=100, seed=22):
            expected = 2 * stats.t.sf(abs(t), nu)
            assert econometrics._t_two_sided_p(t, nu) == pytest.approx(expected, rel=1e-12)
        for nu in self.QUANTILE_DOFS:
            assert econometrics._t_quantile_975(nu) == pytest.approx(
                stats.t.ppf(0.975, nu), rel=1e-12)


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
        assert len(sel.verdict.variables) == 1

    def test_planted_single_variable_recovered(self):
        hits = 0
        for seed in range(100, 200):
            rng = np.random.default_rng(seed)
            x = rng.normal(size=(300, 3))
            y = x[:, 0] + rng.normal(0, 0.05, 300)
            sel = select_model(design(x, y), vif_threshold=5.0)
            if sel.verdict.variables == ("x1",):
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
        # the full model's 5 parameters leave no residual degree of freedom
        with pytest.raises(DataError, match="^need more than 5 observations, got 4$"):
            select_model(design(x, rng.normal(size=4)))

    @pytest.mark.parametrize("k", [0, econometrics.MAX_CANDIDATES + 1])
    def test_candidate_count_out_of_range_error(self, k):
        d = design(np.ones((30, k)), np.arange(30.0))
        with pytest.raises(DataError, match=r"^candidate count must be in \[1, 20\]$"):
            select_model(d)

    @pytest.mark.parametrize("threshold", [1.0, 0.5, -math.inf, math.nan])
    def test_threshold_not_above_one_error(self, threshold):
        rng = np.random.default_rng(13)
        d = design(rng.normal(size=(20, 2)), rng.normal(size=20))
        with pytest.raises(DataError, match="^vif_threshold must exceed 1$"):
            select_model(d, threshold)

    @pytest.mark.parametrize("n, k, collinear", [(5, 4, True), (16, 16, False)])
    def test_too_few_observations_raise_before_any_fit(self, monkeypatch, n, k, collinear):
        # the shortage is the design's shape: no subset is fitted, so a
        # collinear pair among the candidates is never met
        rng = np.random.default_rng(12)
        x = rng.normal(size=(n, k))
        if collinear:
            x[:, 3] = 2.0 * x[:, 1]

        def extend(*args):
            raise AssertionError("a column step")

        monkeypatch.setattr(econometrics._Walk, "extend", extend)
        with pytest.raises(DataError, match=f"^need more than {k + 1} observations, got {n}$"):
            select_model(design(x, rng.normal(size=n)))


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


def near_collinear_design():
    """y = a exactly, so ("a",) fits with RSS 0; b - a is 1e-7 of a: above
    the rank tolerance, inside the VIF one."""
    rng = np.random.default_rng(4)
    a = rng.normal(size=20)
    x = np.column_stack([a, a + 1e-7 * rng.normal(size=20), rng.normal(size=20)])
    return design(x, a.copy(), names=["a", "b", "c"])


class TestPackedReport:
    def test_p_values_computed_only_when_read(self, monkeypatch):
        calls = []

        def counted(t, dof, _fn=econometrics._t_two_sided_p):
            calls.append(t)
            return _fn(t, dof)

        d = correlated_design(6)
        expected = ols_fit(d.subset(select_model(d).verdict.variables)).p_values
        # a forked worker's calls would not reach this process's counter
        monkeypatch.setattr(glsn.fork, "worker_count", lambda: 1)
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
        d = near_collinear_design()
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

    def test_p_values_compute_the_beta_once_per_dof(self):
        rep = ols_fit(correlated_design(6))
        econometrics._t_norm.cache_clear()
        first = rep.p_values
        assert rep.p_values == first
        info = econometrics._t_norm.cache_info()
        assert (info.misses, info.hits) == (1, 2 * rep.k_params - 1)
        assert econometrics._t_norm(rep.dof) == econometrics._t_norm.__wrapped__(rep.dof)


def k12_design(seed, n=150, pairs=6):
    """The select_k12 benchmark design: column j is base[:, j // 2] plus
    N(0, 0.3) noise, standardized."""
    rng = np.random.default_rng(seed)
    base = rng.normal(0.0, 1.0, (n, pairs))
    x = np.column_stack([base[:, j // 2] + rng.normal(0.0, 0.3, n) for j in range(2 * pairs)])
    y = base @ np.array((1.0, -0.8, 0.6, -0.4, 0.2, 0.0)) + rng.normal(0.0, 1.0, n)
    return standardize(design(x, y, names=[f"x{j + 1:02d}" for j in range(2 * pairs)]))


def selection_bits(sel):
    """Every row's variables, admissibility and packed doubles, and the verdict."""
    rows = [(r.variables, r.admissible, [repr(v) for v in r.report.packed]) for r in sel.table]
    return rows, sel.verdict and sel.verdict.variables


def _subsets(k):
    """The candidate positions of every nonempty subset of k candidates, in
    the walk's depth-first order."""
    out = []

    def walk(cols, pending):
        for at in range(len(pending)):
            out.append(cols + (pending[at],))
            walk(cols + (pending[at],), pending[at + 1:])

    walk((), tuple(range(k)))
    return out


class _ColumnsOnly(econometrics._Walk):
    """A walk that carries only each node's columns: its order, not its fits."""

    def __init__(self, k):
        self.y_centered, self.centered = None, [None] * k

    def extend(self, node, at):
        return node._replace(cols=node.cols + (node.pending[at][0],),
                             pending=node.pending[at + 1:])


@pytest.fixture(scope="module", params=[("k12", 11), ("k12", 29), 7, 8, 10], ids=str)
def walk_design(request):
    """A design and its selection in one process."""
    d = k12_design(request.param[1]) if isinstance(request.param, tuple) else correlated_design(
        request.param)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(glsn.fork, "worker_count", lambda: 1)
        return d, selection_bits(select_model(d))


# ids "k-k": a walk over k candidates, whose largest subset holds all k
K_IDS = "{0}-{0}".format


class TestForkedWalk:
    """The walk's ranges fitted in forked workers give the table and the
    verdict of one process, and leave no child and the CPU mask as it was."""

    @pytest.mark.parametrize("workers", [2, 3, 4, 5])
    def test_same_bits_as_one_process(self, walk_design, workers, monkeypatch):
        d, serial = walk_design
        mask = os.sched_getaffinity(0)
        monkeypatch.setattr(glsn.fork, "worker_count", lambda: workers)
        assert selection_bits(select_model(d)) == serial
        assert_no_child_and_mask(mask)

    @pytest.mark.parametrize("k", [12, 7, 10], ids=K_IDS)
    @pytest.mark.parametrize("workers", [1, 2, 3, 4, 8])
    def test_deal_covers_each_subset_once_and_balances(self, k, workers):
        """The walk dealt to w workers as select_model deals it: part i takes
        the range [n*i//w, n*(i+1)//w) of the n subsets' depth-first order."""
        walk = _ColumnsOnly(k)
        root = walk.root(range(k))
        order = _subsets(k)
        n, w = len(order), min(workers, len(order))
        parts = [[node.cols for node in walk.subtree(root, n * i // w, n * (i + 1) // w)]
                 for i in range(w)]
        assert [node.cols for node in walk.subtree(root)] == order
        assert [cols for part in parts for cols in part] == order
        assert {len(part) for part in parts} <= {n // w, -(-n // w)}

    @pytest.mark.parametrize("k", [10], ids=K_IDS)
    @pytest.mark.parametrize("workers", [2, 3, 8])
    def test_range_extends_only_its_subsets_and_their_ancestors(self, monkeypatch, k, workers):
        """A range takes a column step for each of its subsets and for at
        most k ancestors of its first one, and none elsewhere."""
        steps = []
        extend = econometrics._Walk.extend

        def counted(walk, node, at):
            steps.append(at)
            return extend(walk, node, at)

        monkeypatch.setattr(econometrics._Walk, "extend", counted)
        walk = econometrics._Walk(correlated_design(k))
        root = walk.root(range(k))
        n = (1 << k) - 1
        for i in range(workers):
            lo, hi = n * i // workers, n * (i + 1) // workers
            steps.clear()
            assert len(list(walk.subtree(root, lo, hi))) == hi - lo
            assert len(steps) <= (hi - lo) + k

    def test_deal_at_k12_over_two_workers(self, monkeypatch):
        # the first candidate's subtree, but for its last subset, against the rest
        parts = []
        run_parts = glsn.fork.run_parts

        def recorded(fn, ranges):
            results = run_parts(fn, ranges)
            parts.extend((part, len(r)) for part, r in zip(ranges, results))
            return results

        monkeypatch.setattr(glsn.fork, "run_parts", recorded)
        monkeypatch.setattr(glsn.fork, "worker_count", lambda: 2)
        select_model(k12_design(11))
        assert parts == [((0, 2047), 2047), ((2047, 4095), 2048)]

    def test_forks_from_two_whole_batches(self, monkeypatch):
        forks = part_counts(monkeypatch)
        monkeypatch.setattr(glsn.fork, "worker_count", lambda: 2)
        # the fits' stacked elements, sum of m * C(k, m) * n, over 1 << 13:
        # 11,520 (1 batch), 26,880 (3) and 13,440 (1)
        for k, n in [(6, 60), (7, 60), (7, 30)]:
            select_model(correlated_design(k, n=n))
        assert forks == [1, 2, 1]

    def test_no_more_parts_than_fits(self, monkeypatch):
        # 2 candidates over 10,000 rows: 40,000 stacked elements fill 4 whole
        # batches of 1 << 13, but the 3 fits make 3 batches at most
        forks = part_counts(monkeypatch)
        monkeypatch.setattr(glsn.fork, "worker_count", lambda: 8)
        assert len(select_model(correlated_design(2, n=10000)).table) == 3
        assert forks == [3]

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_exactly_collinear_design_raises(self, monkeypatch, workers):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(40, 8))
        x[:, 7] = x[:, 2] - 2.0 * x[:, 5]
        mask = os.sched_getaffinity(0)
        monkeypatch.setattr(glsn.fork, "worker_count", lambda: workers)
        with pytest.raises(DataError, match=r"^design matrix is rank deficient "):
            select_model(design(x, rng.normal(size=40)))
        assert_no_child_and_mask(mask)

    @pytest.mark.parametrize("in_child", [False, True])
    @pytest.mark.parametrize("planted, raised", [
        (DataError("planted"), DataError), (ZeroDivisionError("planted"), None),
    ])
    def test_planted_failure(self, monkeypatch, capfd, in_child, planted, raised):
        # a DataError reaches the caller from either side; any other error is
        # the parent's own, or a child's that sent nothing
        parent, reports = os.getpid(), econometrics._Walk.reports

        def failing(walk, nodes):
            if (os.getpid() != parent) == in_child:
                raise planted
            return reports(walk, nodes)

        mask = os.sched_getaffinity(0)
        monkeypatch.setattr(econometrics._Walk, "reports", failing)
        monkeypatch.setattr(glsn.fork, "worker_count", lambda: 2)
        if raised is None:
            raised = RuntimeError if in_child else ZeroDivisionError
        with pytest.raises(raised):
            select_model(correlated_design(7))
        assert_no_child_and_mask(mask)
        if raised is RuntimeError:
            assert "ZeroDivisionError: planted" in capfd.readouterr().err


# the batch budgets that put every subset in a batch of its own, and every
# subset of one size in one batch
BUDGETS = [1, 1 << 20]


class TestFitBatches:
    """Selection fits the subsets of one size in stacked batches; which
    subsets share a batch changes no bit."""

    @pytest.mark.parametrize("budget", BUDGETS)
    def test_same_bits_at_any_budget(self, walk_design, budget, monkeypatch):
        d, serial = walk_design
        monkeypatch.setattr(glsn.fork, "worker_count", lambda: 1)
        monkeypatch.setattr(econometrics, "_FIT_BATCH_ELEMENTS", budget)
        assert selection_bits(select_model(d)) == serial

    @pytest.mark.parametrize("budget", BUDGETS)
    def test_zero_rss_and_inf_vif_rows_equal_their_own_fits(self, budget, monkeypatch):
        d = near_collinear_design()
        monkeypatch.setattr(econometrics, "_FIT_BATCH_ELEMENTS", budget)
        for row in select_model(d).table:
            assert row.report == ols_fit(d.subset(row.variables)), row.variables

    def test_traced_peak_of_one_process(self, monkeypatch):
        """The k = 12 benchmark design's 4,095 fits in one process. In a
        fresh process the peak measured 3.25 MB with batches of 1 << 13
        elements, 2.45 MB for the code before batches, which fitted one
        subset at a time, and 9.87 MB when the batches held whole nodes,
        their pending first passes included, at 1 << 16."""
        d = k12_design(11)
        monkeypatch.setattr(glsn.fork, "worker_count", lambda: 1)
        tracemalloc.start()
        try:
            select_model(d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000
