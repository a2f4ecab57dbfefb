"""OLS with AIC/adjusted-R2/VIF diagnostics, Pearson screening, and exhaustive
best-subset selection.

The selection protocol: fit every nonempty subset of the candidate variables,
mark a model admissible when every VIF stays under the threshold, and pick the
admissible model with the lowest AIC (ties: fewer variables, then variable
names). Variables and the response are Z-score standardized by default; the
gravity module fits in raw mode because it already works in log space.

Fits use no BLAS or LAPACK, so every written digit is the same on every
machine, CPU and memory layout: numpy does only elementwise vector arithmetic,
and every dot product and sum is accumulated by `math.fsum`, which rounds
once and so depends on no summation order. The design columns are centered
and factored as QR one column at a time by modified Gram-Schmidt applied
twice; the centered response is carried as one more column, whose
coefficients give the slopes by back substitution. The intercept comes from
the means, the RSS from a residual evaluated in compensated (twice working
precision) arithmetic, standard errors from the squared row norms of R^-1
(1/n + ||R^-T mean||^2 for the intercept), and VIF_j = ||x_j - mean_j||^2
||row j of R^-1||^2, so VIFs need no auxiliary fits. The normal equations are
never formed: they square the condition number. RANK_TOL sets both
collinearity thresholds.

Selection fits the subsets in one depth-first walk over their prefix tree,
the enumeration of Furnival & Wilson's "leaps and bounds" (1974): a node is a
subset with its candidates in sorted-name order, and a child adds one later
candidate. Gram-Schmidt's first pass of a column against q_0..q_{m-1} is the
same sequence of operations whatever columns come after, so each node keeps,
for the response and for every later candidate, that pass carried up to its
own q's; a child advances each by one dot product against its new q and
finishes its new column of R with the full second pass. Column m of R^-1
needs only columns 0..m of R, so it too is computed once per node. Every float
of a subset's fit therefore comes from the same operations, in the same order,
as a fit of that subset alone: the walk's table equals per-subset fits bit for
bit. `ols_fit` and `vif` run the same column step along a single chain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import special

from .model import DataError

# Collinearity tolerance, applied at two strengths. ols_fit raises for exact
# collinearity: a centered column whose residual on the earlier centered
# columns has a norm of at most RANK_TOL times its own norm (the analogue of a
# smallest/largest singular value ratio; the test is taken on centered columns,
# so the intercept never counts). A VIF is inf where 1 - R^2_j <= RANK_TOL, a
# looser test: such a subset is still fitted and only marked inadmissible.
RANK_TOL = 1e-10
MAX_CANDIDATES = 20
# models within this AIC distance of the minimum are treated as equivalent and
# the tie-break (fewer variables, then names) applies; the standard reading of
# AIC differences under 2 as "no meaningful support for the larger model"
AIC_TIE_BAND = 2.0


@dataclass(frozen=True)
class DesignMatrix:
    variables: tuple[str, ...]
    x: np.ndarray  # (n_obs, n_vars), no intercept column
    response_name: str
    y: np.ndarray
    standardized: bool = False

    def __post_init__(self):
        if self.x.ndim != 2 or self.y.ndim != 1:
            raise DataError("design must be a 2-d matrix with a 1-d response")
        if self.x.shape[0] != self.y.shape[0]:
            raise DataError("row count mismatch between design and response")
        if len(self.variables) != self.x.shape[1]:
            raise DataError("variable name count mismatch")
        if len(set(self.variables)) != len(self.variables):
            raise DataError("duplicate variable names")
        if not (np.isfinite(self.x).all() and np.isfinite(self.y).all()):
            raise DataError("design contains non-finite values")

    @property
    def n_obs(self) -> int:
        return self.x.shape[0]

    def subset(self, names: tuple[str, ...]) -> "DesignMatrix":
        idx = [self.variables.index(n) for n in names]
        return DesignMatrix(
            variables=names,
            x=self.x[:, idx],
            response_name=self.response_name,
            y=self.y,
            standardized=self.standardized,
        )


def _zscore(col: np.ndarray, name: str) -> np.ndarray:
    sd = col.std(ddof=1)
    if sd == 0 or not np.isfinite(sd):
        raise DataError(f"column {name!r} is constant, cannot standardize")
    return (col - col.mean()) / sd


def standardize(design: DesignMatrix) -> DesignMatrix:
    """Z-score every column and the response, sample (n-1) standard deviation."""
    x = np.column_stack(
        [_zscore(design.x[:, j], design.variables[j]) for j in range(design.x.shape[1])]
    )
    y = _zscore(design.y, design.response_name)
    return DesignMatrix(
        variables=design.variables,
        x=x,
        response_name=design.response_name,
        y=y,
        standardized=True,
    )


@dataclass(frozen=True)
class RegressionReport:
    variables: tuple[str, ...]
    coefficients: dict[str, float]  # includes "intercept"
    ci95: dict[str, tuple[float, float]]
    p_values: dict[str, float]
    r2: float
    adjusted_r2: float
    aic: float
    vif: dict[str, float]  # math.inf marks exact collinearity
    n_obs: int
    k_params: int
    rss: float

    @property
    def max_vif(self) -> float:
        return max(self.vif.values()) if self.vif else 1.0


def aic_value(n_obs: int, rss: float, k_params: int) -> float:
    """N * ln(RSS/N) + 2K, intercept counted in K."""
    if rss <= 0:
        return -math.inf
    return n_obs * math.log(rss / n_obs) + 2 * k_params


def adjusted_r2_value(r2: float, n_obs: int, n_vars: int) -> float:
    """1 - (1 - R^2)(N - 1)/(N - K - 1), K = variable count without intercept."""
    return 1.0 - (1.0 - r2) * (n_obs - 1) / (n_obs - n_vars - 1)


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """Correctly rounded sum of the elementwise products: no summation order
    enters, so the bits do not depend on BLAS, SIMD width or memory layout."""
    return math.fsum((a * b).tolist())


def _mean(v: np.ndarray) -> float:
    return math.fsum(v.tolist()) / len(v)


def _sum_squares(v) -> float:
    return math.fsum(t * t for t in v)


_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's constant, splits a double in halves


def _split(a):
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


def _two_sum(a, b):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _residual(
    y: np.ndarray,
    intercept: float,
    columns: list[tuple[np.ndarray, np.ndarray, np.ndarray]],
    slopes: list[float],
) -> np.ndarray:
    """y - intercept - sum_j x_j slope_j, elementwise, as if in twice the
    working precision and rounded once (Ogita, Rump & Oishi's Dot2: error-free
    products and sums); each column comes with its Veltkamp halves. The fit
    cancels most of y, so a plainly rounded residual would lose the last
    digits of the RSS."""
    s, comp = _two_sum(y, -intercept)
    for (x, x_hi, x_lo), slope in zip(columns, slopes):
        b = -slope
        b_hi, b_lo = _split(b)
        prod = x * b
        prod_err = ((x_hi * b_hi - prod) + (x_lo * b_hi + x_hi * b_lo)) + x_lo * b_lo
        s, err = _two_sum(s, prod)
        comp = comp + (err + prod_err)
    return s + comp


def _row_sum_squares(inv: tuple[list[float], ...]) -> list[float]:
    """Squared row norms of the upper-triangular R^-1 given by columns."""
    return [_sum_squares(col[j] for col in inv[j:]) for j in range(len(inv))]


def _vif_values(
    names: tuple[str, ...], norms2: list[float], row_ss: list[float]
) -> dict[str, float]:
    """VIF_j = ||x_j - mean_j||^2 * ||row j of R^-1||^2, inf where 1 - R^2_j
    (= 1 / VIF_j) is at most RANK_TOL."""
    if len(names) == 1:
        return {names[0]: 1.0}
    out = {}
    for name, norm2, ss in zip(names, norms2, row_ss):
        value = norm2 * ss
        out[name] = math.inf if 1.0 / value <= RANK_TOL else value
    return out


def _t_two_sided_p(t: float, dof: int) -> float:
    """2 P(T > |t|) for Student's t; special.stdtr is what stats.t.sf calls,
    without the per-call frontend."""
    return float(2 * special.stdtr(dof, -abs(t)))


def _check_dof(n: int, k_params: int) -> None:
    if n <= k_params:
        raise DataError(f"need more than {k_params} observations, got {n}")


class _Node(NamedTuple):
    """One subset: its columns in walk order, the QR of their centered
    values, and Gram-Schmidt's first pass of every vector a child or the fit
    still projects. A first pass is (coefficients so far, partial residual)."""

    cols: tuple[int, ...]
    q: tuple[np.ndarray, ...]  # orthonormal columns of Q
    r: tuple[list[float], ...]  # R by columns: r[j][i] = R_ij for i <= j
    inv: tuple[list[float], ...]  # R^-1 by columns
    mean_proj: tuple[float, ...]  # R^-T applied to the column means
    y_pass: tuple[list[float], np.ndarray]
    pending: tuple[tuple[int, list[float], np.ndarray], ...]  # later candidates


def _second_pass(
    q: tuple[np.ndarray, ...], coef: list[float], v: np.ndarray
) -> tuple[list[float], np.ndarray]:
    """Gram-Schmidt's second pass of v against every q, its coefficients
    added to the first pass's."""
    coef = list(coef)
    for i, qi in enumerate(q):
        c = _dot(qi, v)
        v = v - c * qi
        coef[i] += c
    return coef, v


def _first_pass_step(
    q: np.ndarray, coef: list[float], v: np.ndarray
) -> tuple[list[float], np.ndarray]:
    """Carry a first pass one q further (the coefficient sums start at +0.0)."""
    c = _dot(q, v)
    return coef + [0.0 + c], v - c * q


class _Walk:
    """Fits subsets of one design, each one QR column beyond its parent.

    What every subset shares is computed once: each candidate's mean,
    centered column, squared norm and Veltkamp halves, the centered response
    and its TSS, and the t critical value per degree of freedom."""

    def __init__(self, design: DesignMatrix):
        self.names = design.variables
        self.n = design.n_obs
        self.y = design.y
        raw = [np.ascontiguousarray(design.x[:, j]) for j in range(design.x.shape[1])]
        self.columns = [(col, *_split(col)) for col in raw]
        self.means = [_mean(col) for col in raw]
        self.centered = [col - mean for col, mean in zip(raw, self.means)]
        self.norms2 = [_dot(c, c) for c in self.centered]
        self.y_mean = _mean(design.y)
        self.y_centered = design.y - self.y_mean
        self.tss = _dot(self.y_centered, self.y_centered)
        self._tcrit: dict[int, float] = {}

    def root(self, order) -> _Node:
        """The empty subset, whose children take the candidates in order."""
        return _Node(
            cols=(),
            q=(),
            r=(),
            inv=(),
            mean_proj=(),
            y_pass=([], self.y_centered),
            pending=tuple((c, [], self.centered[c]) for c in order),
        )

    def extend(self, node: _Node, at: int) -> _Node:
        """The child of node that adds its pending candidate at position at.

        Column m of R is c's first pass, already run against the node's q's,
        finished by the second pass, so it holds the same floats as
        Gram-Schmidt run from scratch on the child's columns. Column m of R^-1
        needs only columns 0..m of R. Raises on exact collinearity, as
        RANK_TOL defines it."""
        c, coef, v = node.pending[at]
        coef, v = _second_pass(node.q, coef, v)
        r_mm = math.sqrt(_dot(v, v))
        if r_mm <= RANK_TOL * math.sqrt(self.norms2[c]):
            raise DataError("design matrix is rank deficient (exactly collinear columns)")
        q_m = v / r_mm
        cols = node.cols + (c,)
        r = node.r + (coef + [r_mm],)
        m = len(node.cols)
        inv = [0.0] * m + [1.0 / r_mm]
        for i in range(m - 1, -1, -1):
            s = math.fsum(r[l][i] * inv[l] for l in range(i + 1, m + 1))
            inv[i] = -s / r[i][i]
        mean_proj = math.fsum(t * self.means[j] for t, j in zip(inv, cols))
        return _Node(
            cols=cols,
            q=node.q + (q_m,),
            r=r,
            inv=node.inv + (inv,),
            mean_proj=node.mean_proj + (mean_proj,),
            y_pass=_first_pass_step(q_m, *node.y_pass),
            pending=tuple(
                (p, *_first_pass_step(q_m, p_coef, p_v))
                for p, p_coef, p_v in node.pending[at + 1:]
            ),
        )

    def chain(self) -> _Node:
        """The node of every column, in design order."""
        node = self.root(range(len(self.columns)))
        while node.pending:
            node = self.extend(node, 0)
        return node

    def subtree(self, node: _Node, max_size: int):
        """Every descendant of node with at most max_size columns, depth first."""
        for at in range(len(node.pending)):
            child = self.extend(node, at)
            yield child
            if len(child.cols) < max_size:
                yield from self.subtree(child, max_size)

    def tcrit(self, dof: int) -> float:
        if dof not in self._tcrit:
            self._tcrit[dof] = float(special.stdtrit(dof, 0.975))
        return self._tcrit[dof]

    def report(self, node: _Node) -> RegressionReport:
        """The least-squares fit of y on the node's columns plus intercept."""
        n, k_vars = self.n, len(node.cols)
        k_params = k_vars + 1
        variables = tuple(self.names[c] for c in node.cols)
        r = node.r
        z, _ = _second_pass(node.q, *node.y_pass)

        slopes = [0.0] * k_vars
        for j in range(k_vars - 1, -1, -1):
            slopes[j] = math.fsum(
                [z[j]] + [-r[l][j] * slopes[l] for l in range(j + 1, k_vars)]
            ) / r[j][j]
        intercept = math.fsum(
            [self.y_mean] + [-b * self.means[c] for b, c in zip(slopes, node.cols)]
        )

        resid = _residual(
            self.y, intercept, [self.columns[c] for c in node.cols], slopes
        )
        rss = _dot(resid, resid)
        r2 = 1.0 if self.tss == 0 else 1.0 - rss / self.tss
        r2 = min(max(r2, 0.0), 1.0)

        # diagonal of (X'X)^-1 for [1 X]: 1/n + ||R^-T mean||^2 for the intercept,
        # squared row norms of R^-1 for the slopes
        row_ss = _row_sum_squares(node.inv)
        diag = [math.fsum([1.0 / n] + [t * t for t in node.mean_proj])] + row_ss

        dof = n - k_params
        sigma2 = rss / dof
        tcrit = self.tcrit(dof)

        coefficients, ci95, p_values = {}, {}, {}
        for name, b, d in zip(("intercept",) + variables, [intercept] + slopes, diag):
            coefficients[name] = b
            se = math.sqrt(max(sigma2 * d, 0.0))
            if se > 0:
                ci95[name] = (b - tcrit * se, b + tcrit * se)
                p_values[name] = _t_two_sided_p(b / se, dof)
            else:
                ci95[name] = (b, b)
                p_values[name] = 0.0 if b != 0 else 1.0

        return RegressionReport(
            variables=variables,
            coefficients=coefficients,
            ci95=ci95,
            p_values=p_values,
            r2=r2,
            adjusted_r2=adjusted_r2_value(r2, n, k_vars),
            aic=aic_value(n, rss, k_params),
            vif=_vif_values(variables, [self.norms2[c] for c in node.cols], row_ss),
            n_obs=n,
            k_params=k_params,
            rss=rss,
        )


def ols_fit(design: DesignMatrix) -> RegressionReport:
    """Least-squares fit with intercept; t-based CIs and two-sided p-values."""
    n, k_vars = design.x.shape
    _check_dof(n, k_vars + 1)
    walk = _Walk(design)
    return walk.report(walk.chain())


def vif(design: DesignMatrix) -> dict[str, float]:
    """VIF_j = 1 / (1 - R^2_j), column j regressed on the others plus intercept.

    Single-variable designs give exactly 1.0; exact collinearity gives inf.
    """
    k = design.x.shape[1]
    if k == 0:
        return {}
    if k == 1:
        return {design.variables[0]: 1.0}
    if design.n_obs == 0:
        raise DataError("vif needs at least one observation")
    for j, name in enumerate(design.variables):
        if (design.x[:, j] == design.x[0, j]).all():
            raise DataError(f"column {name!r} is constant")
    walk = _Walk(design)
    try:
        node = walk.chain()
    except DataError:
        return {name: math.inf for name in design.variables}
    return _vif_values(design.variables, walk.norms2, _row_sum_squares(node.inv))


def pearson(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Sample Pearson correlation with two-sided p-value via the t-transform."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1 or len(x) < 3:
        raise DataError("pearson needs two equal-length vectors of length >= 3")
    xc = x - _mean(x)
    yc = y - _mean(y)
    sxx, syy = _dot(xc, xc), _dot(yc, yc)
    if sxx == 0 or syy == 0:
        raise DataError("pearson is undefined for constant input")
    r = min(max(_dot(xc, yc) / (math.sqrt(sxx) * math.sqrt(syy)), -1.0), 1.0)
    dof = len(x) - 2
    if abs(r) == 1.0:
        return r, 0.0
    t = r * math.sqrt(dof / (1.0 - r * r))
    return r, _t_two_sided_p(t, dof)


@dataclass(frozen=True)
class SubsetResult:
    variables: tuple[str, ...]
    report: RegressionReport
    admissible: bool


@dataclass(frozen=True)
class SelectionResult:
    table: tuple[SubsetResult, ...]  # canonical order: subset size, then names
    verdict: SubsetResult | None  # None when no subset is admissible
    vif_threshold: float


def select_model(
    design: DesignMatrix, vif_threshold: float = 5.0
) -> SelectionResult:
    """Fit every nonempty candidate subset; verdict = admissible model with
    minimal AIC, where models within AIC_TIE_BAND of the minimum tie and the
    tie resolves to fewer variables, then lexicographic names."""
    if not 1 <= len(design.variables) <= MAX_CANDIDATES:
        raise DataError(f"candidate count must be in [1, {MAX_CANDIDATES}]")
    if vif_threshold <= 1:
        raise DataError("vif_threshold must exceed 1")

    n, k = design.x.shape
    # Subsets of first_unfit or more columns leave no residual degree of
    # freedom. Every smaller subset is fitted before the shortage is reported,
    # as canonical order meets them, so a collinear smaller subset wins.
    first_unfit = max(1, n - 1)
    results = []
    if first_unfit > 1:
        walk = _Walk(design)
        order = sorted(range(k), key=design.variables.__getitem__)
        for node in walk.subtree(walk.root(order), min(k, first_unfit - 1)):
            report = walk.report(node)
            results.append(
                SubsetResult(
                    variables=report.variables,
                    report=report,
                    admissible=report.max_vif < vif_threshold,
                )
            )
    if k >= first_unfit:
        _check_dof(n, first_unfit + 1)
    results.sort(key=lambda r: (len(r.variables), r.variables))

    admissible = [r for r in results if r.admissible]
    verdict = None
    if admissible:
        best_aic = min(r.report.aic for r in admissible)
        tied = [r for r in admissible if r.report.aic <= best_aic + AIC_TIE_BAND]
        verdict = min(tied, key=lambda r: (len(r.variables), r.variables, r.report.aic))
    return SelectionResult(
        table=tuple(results), verdict=verdict, vif_threshold=vif_threshold
    )
