"""OLS with AIC/adjusted-R2/VIF diagnostics, Pearson correlation, and
exhaustive best-subset selection.

The selection protocol: fit every nonempty subset of the candidate variables,
mark a model admissible when every VIF stays under the threshold, and pick the
admissible model with the lowest AIC (ties: fewer variables, then variable
names). Fits take the design as given: the `regress` command Z-scores its
variables and response with `standardize` first, and the gravity module fits
in raw mode because it already works in log space.

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

What is left of a fit once its node exists (the response's second pass, the
residual, the RSS) runs in batches of subsets of one size, stacked so that
each numpy call covers a batch: `_Walk.reports`. A batch is flushed once its
stacked (subsets, size, observations) columns reach _FIT_BATCH_ELEMENTS, and
its nodes wait without the first passes that only their children need. The
bits hold whatever shares a batch: numpy does only elementwise IEEE
operations on the stacked arrays, the residual's running sums are
np.add.accumulate along the columns, which adds them one after another in
the order a single fit takes, and each dot product is one fsum of its own
row. `ols_fit` fits its chain as a batch of one.

The walk's depth-first order is cut into equal contiguous ranges, one per
worker of `fork.workers`: one per CPU, but no more than the whole batches
its fits' stacked columns fill, so a walk of under two batches stays in one
process. A worker extends only the nodes of its range and their ancestors,
so each subset is still reached by the same chain of column steps. Each
worker returns its fits and the table is sorted into canonical order, so
any worker count gives the same table, bit for bit.

The t critical value and the p-values come from Student's t for integer
degrees of freedom, computed in `decimal` at 40 digits with only + - * / and
sqrt, which the decimal specification rounds correctly on every platform, and
rounded to a double once. The two-sided tail is the
regularized incomplete beta I_x(nu/2, 1/2), x = nu/(nu+t^2): its power series
on the symmetric side for |t| <= 6, its continued fraction beyond, and
B(nu/2, 1/2) from exact integers and a fixed digit string of pi. The 0.975
quantile solves the tail by Halley's method. Both give the correctly rounded
double at every point the tests check against mpmath at 50 digits.
"""

from __future__ import annotations

import functools
import math
from array import array
from dataclasses import dataclass
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal, localcontext
from typing import NamedTuple

import numpy as np

from . import fork
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
# Selection fits the subsets of one size in batches of about this many
# elements of their stacked (subsets, size, observations) columns; a waiting
# node keeps no pending first pass. At k = 12 and 150 rows, in one process,
# select_model's tracemalloc peak was 2.63 MB a fit at a time, 3.25 MB at
# 1 << 13, 5.96 MB at 1 << 15, and 9.87 MB at 1 << 16 with whole nodes
# waiting. On two workers 1 << 13 took 14% off that selection's wall time and
# raised its peak RSS by 0.9 MB (2-vCPU x86-64 VM).
_FIT_BATCH_ELEMENTS = 1 << 13
# where the coefficients start in RegressionReport.packed, after r2, adjusted
# R^2, AIC and RSS
_COEF = 4

# Student's t runs in decimal arithmetic at 40 digits; the exponent range is
# the widest, so no tail underflows before its final rounding to a double.
_T_CONTEXT = Context(prec=40, Emax=MAX_EMAX, Emin=MIN_EMIN)
_T_EPS = Decimal("1e-37")  # where a series or continued fraction stops
_PI = Decimal("3.14159265358979323846264338327950288419716939937510")
# t^2 up to which the two-sided tail is 1 - I_y(1/2, nu/2) by its power series
# (|t| <= 6): there the tail is at least 2e-9, so the subtraction keeps 30
# digits, and the series is several times cheaper than the continued fraction
# near its switch point
_T_SERIES_MAX_T2 = 36
# the normal 0.975 quantile, where the search for the t quantile starts
_Z975 = 1.959963984540054


@dataclass(frozen=True)
class DesignMatrix:
    variables: tuple[str, ...]
    x: np.ndarray  # (n_obs, n_vars), no intercept column
    response_name: str
    y: np.ndarray

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
    )


@dataclass(frozen=True, slots=True)
class RegressionReport:
    """One least-squares fit. Its floats are packed in one array of doubles:
    r2, adjusted R^2, AIC and RSS, then the coefficients (intercept first),
    their standard errors and the VIFs (math.inf marks exact collinearity). A
    double round-trips exactly through the array, so the dicts built on access
    hold the fit's bits; CIs and p-values are computed only when read."""

    variables: tuple[str, ...]
    n_obs: int
    k_params: int
    packed: array

    r2 = property(lambda self: self.packed[0])
    adjusted_r2 = property(lambda self: self.packed[1])
    aic = property(lambda self: self.packed[2])
    rss = property(lambda self: self.packed[3])

    @property
    def dof(self) -> int:
        return self.n_obs - self.k_params

    def _estimates(self):
        """(name, coefficient, standard error), intercept first."""
        k = self.k_params
        return zip(("intercept",) + self.variables,
                   self.packed[_COEF:_COEF + k], self.packed[_COEF + k:_COEF + 2 * k])

    @property
    def coefficients(self) -> dict[str, float]:
        return {name: b for name, b, _ in self._estimates()}

    @property
    def ci95(self) -> dict[str, tuple[float, float]]:
        tcrit = _t_quantile_975(self.dof)
        return {
            name: (b - tcrit * se, b + tcrit * se) if se > 0 else (b, b)
            for name, b, se in self._estimates()
        }

    @property
    def p_values(self) -> dict[str, float]:
        return {
            name: _t_two_sided_p(b / se, self.dof) if se > 0 else (0.0 if b != 0 else 1.0)
            for name, b, se in self._estimates()
        }

    @property
    def vif(self) -> dict[str, float]:
        return dict(zip(self.variables, self.packed[_COEF + 2 * self.k_params:]))

    @property
    def max_vif(self) -> float:
        vifs = self.packed[_COEF + 2 * self.k_params:]
        return max(vifs) if vifs else 1.0


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


def _two_product(x, x_hi, x_lo, b):
    """x * b and its rounding error, which add up to the exact product
    (Dekker's product, with x's Veltkamp halves given)."""
    b_hi, b_lo = _split(b)
    p = x * b
    return p, ((x_hi * b_hi - p) + (x_lo * b_hi + x_hi * b_lo)) + x_lo * b_lo


def _second_pass_coefs(q: np.ndarray, v: np.ndarray) -> list[list[float]]:
    """Gram-Schmidt's second pass of each row of v, shape (B, n), against its
    own q's, shape (B, m, n): for each q, the coefficient of every row."""
    coefs = []
    for i in range(q.shape[1]):
        cs = list(map(math.fsum, (v * q[:, i]).tolist()))
        v = v - np.array(cs)[:, None] * q[:, i]
        coefs.append(cs)
    return coefs


def _row_sum_squares(inv: tuple[list[float], ...]) -> list[float]:
    """Squared row norms of the upper-triangular R^-1 given by columns."""
    return [_sum_squares(col[j] for col in inv[j:]) for j in range(len(inv))]


def _vif_values(norms2: list[float], row_ss: list[float]) -> list[float]:
    """VIF_j = ||x_j - mean_j||^2 * ||row j of R^-1||^2, inf where 1 - R^2_j
    (= 1 / VIF_j) is at most RANK_TOL."""
    if len(norms2) == 1:
        return [1.0]
    values = [norm2 * ss for norm2, ss in zip(norms2, row_ss)]
    return [math.inf if 1.0 / v <= RANK_TOL else v for v in values]


@functools.cache
def _t_norm(nu: int) -> Decimal:
    """sqrt(nu) B(nu/2, 1/2), the t density's normalizing constant, from exact
    integers: B(m, 1/2) = 4^m / (m C(2m, m)), B(m + 1/2, 1/2) = pi C(2m, m) / 4^m.
    Computed once per nu, in _T_CONTEXT: C(2m, m) alone took 4.9 ms at
    nu = 11,000 and 68 ms at nu = 50,000, and every p-value needs it."""
    m, odd = divmod(nu, 2)
    c = math.comb(2 * m, m)
    with localcontext(_T_CONTEXT):
        beta = _PI * c / 4**m if odd else Decimal(4**m) / (m * c)
        return Decimal(nu).sqrt() * beta


def _beta_series(nu: int, y: Decimal) -> Decimal:
    """sum_n (a+b)_n / (a+1)_n y^n for a = 1/2, b = nu/2: I_y(a, b) over
    y^a (1-y)^b / (a B(a, b)) (A&S 26.5.4). Every term is positive; y <= 1/2."""
    total = term = 1
    n = 0
    while True:
        term = term * y * (nu + 1 + 2 * n) / (3 + 2 * n)
        n += 1
        total += term
        # the term ratio falls towards y; from 3/4 on, the rest is below 3 terms
        if term <= _T_EPS and 4 * (nu + 1 + 2 * n) * y <= 9 + 6 * n:
            return total


def _beta_cf(nu: int, x: Decimal) -> Decimal:
    """The continued fraction of I_x(a, b) over x^a (1-x)^b / (a B(a, b)) for
    a = nu/2, b = 1/2 (A&S 26.5.8), by the modified Lentz method; it converges
    fast for x < (a+1)/(a+b+2)."""
    c = 1
    d = 1 / (1 - (nu + 1) * x / (nu + 2))
    h = d
    m = 0
    while True:
        m += 1
        aa = 2 * m * (1 - 2 * m) * x / ((nu + 4 * m - 2) * (nu + 4 * m))
        d = 1 / (1 + aa * d)
        c = 1 + aa / c
        h *= d * c
        aa = -(nu + 2 * m) * (nu + 1 + 2 * m) * x / ((nu + 4 * m) * (nu + 4 * m + 2))
        d = 1 / (1 + aa * d)
        c = 1 + aa / c
        delta = d * c
        h *= delta
        if abs(delta - 1) <= _T_EPS:
            return h


def _t_tail(t: Decimal, nu: int, density: Decimal) -> Decimal:
    """2 P(T > t) for t >= 0 and nu degrees of freedom, given the density at
    t, in the current decimal context.

    The tail is I_x(nu/2, 1/2) with x = nu/(nu+t^2) and 1-x = t^2/(nu+t^2),
    and x^(nu/2) (1-x)^(1/2) / B(nu/2, 1/2) is t times the density. For t^2
    up to min(nu, _T_SERIES_MAX_T2) it is 1 - I_{1-x}(1/2, nu/2), else x is
    below the continued fraction's switch point (nu+2)/(nu+5)."""
    t2 = t * t
    front = 2 * t * density
    if t2 <= min(nu, _T_SERIES_MAX_T2):
        return 1 - front * _beta_series(nu, t2 / (nu + t2))
    return front * _beta_cf(nu, nu / (nu + t2)) / nu


def _t_density(t: Decimal, nu: int, norm: Decimal) -> Decimal:
    """x^((nu+1)/2) / norm with x = nu/(nu+t^2) = 1/(1 + t^2/nu), norm =
    _t_norm(nu): the integer power by repeated squaring, then a square root
    where nu is even. Each product rounds once, so the power's relative error
    stays below about nu ulps of the 40 digits."""
    x = nu / (nu + t * t)
    k, half = divmod(nu + 1, 2)
    power = x.sqrt() if half else Decimal(1)
    while k:
        if k & 1:
            power *= x
        k >>= 1
        if k:
            x *= x
    return power / norm


def _t_two_sided_p(t: float, dof: int) -> float:
    """2 P(T > |t|) for Student's t with dof degrees of freedom, computed to 30
    or more digits in decimal arithmetic and rounded to a double once."""
    if math.isnan(t):
        return math.nan
    if math.isinf(t):
        return 0.0
    with localcontext(_T_CONTEXT):
        t = abs(Decimal(t))
        return float(_t_tail(t, dof, _t_density(t, dof, _t_norm(dof))))


@functools.cache
def _t_quantile_975(dof: int) -> float:
    """The quantile of Student's t at the double 0.975, once per dof: Halley's
    method (Newton's with the second derivative) on the two-sided tail in
    decimal arithmetic, from the normal quantile, which lies below every t
    quantile. The tail's derivative is -2 density(t), its second
    2 density(t) (dof+1) t / (dof+t^2). For t > 0 the tail is convex and the
    steps converge cubically: once a step is below 1e-12 t, what is left is
    about its cube."""
    with localcontext(_T_CONTEXT):
        norm, target = _t_norm(dof), 2 * (1 - Decimal(0.975))
        t = Decimal(_Z975)
        while True:
            density = _t_density(t, dof, norm)
            newton = (_t_tail(t, dof, density) - target) / (2 * density)
            step = newton / (1 - newton * (dof + 1) * t / (2 * (dof + t * t)))
            t += step
            if abs(step) <= 1e-12 * float(t):
                return float(t)


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
    and its TSS."""

    def __init__(self, design: DesignMatrix):
        self.names = design.variables
        self.n = design.n_obs
        self.y = design.y
        # the candidates' columns as rows, and their Veltkamp halves
        self.x = np.ascontiguousarray(design.x.T)
        self.x_hi, self.x_lo = _split(self.x)
        raw = list(self.x)
        self.means = [_mean(col) for col in raw]
        self.centered = [col - mean for col, mean in zip(raw, self.means)]
        self.norms2 = [_dot(c, c) for c in self.centered]
        self.y_mean = _mean(design.y)
        self.y_centered = design.y - self.y_mean
        self.tss = _dot(self.y_centered, self.y_centered)

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
        node = self.root(range(len(self.names)))
        while node.pending:
            node = self.extend(node, 0)
        return node

    def subtree(self, node: _Node, max_size: int, lo: int = 0, hi: float = math.inf):
        """The descendants of node with at most max_size columns that are
        numbered lo to hi - 1 in depth-first order, counting from 0. A child
        whose whole subtree lies outside that range is not extended."""
        free = max_size - len(node.cols) - 1  # room below each child
        for at in range(len(node.pending)):
            if hi <= 0:
                return
            size = _subtree_size(len(node.pending) - at - 1, free)
            if lo < size:
                child = self.extend(node, at)
                if lo <= 0:
                    yield child
                if free > 0:
                    yield from self.subtree(child, max_size, lo - 1, hi - 1)
            lo, hi = lo - size, hi - size

    def _rss(self, cols: np.ndarray, slopes: np.ndarray, intercepts: np.ndarray) -> list[float]:
        """The RSS of each row's fit, given its columns, slopes and intercept.
        The residual y - intercept - sum_j x_j slope_j is evaluated
        elementwise as if in twice the working precision and rounded once
        (Ogita, Rump & Oishi's Dot2: error-free products and sums): the fit
        cancels most of y, so a plainly rounded residual would lose the last
        digits of the RSS."""
        prod, prod_err = _two_product(
            self.x[cols], self.x_hi[cols], self.x_lo[cols], -slopes[:, :, None])
        s0, comp0 = _two_sum(self.y, -intercepts[:, None])
        s = np.add.accumulate(np.concatenate([s0[:, None], prod], axis=1), axis=1)
        _, err = _two_sum(s[:, :-1], prod)
        comp = np.add.accumulate(
            np.concatenate([comp0[:, None], err + prod_err], axis=1), axis=1)
        resid = s[:, -1] + comp[:, -1]
        return list(map(math.fsum, (resid * resid).tolist()))

    def reports(self, nodes: list[_Node]) -> list[RegressionReport]:
        """The least-squares fits of y on each node's columns plus intercept,
        for nodes of one size m, in their order. Row b of each stacked array
        holds node b's bits whatever else is in the batch (see the module
        docstring)."""
        n, size, m = self.n, len(nodes), len(nodes[0].cols)
        second = _second_pass_coefs(
            np.array([node.q for node in nodes]).reshape(size, m, n),
            np.array([node.y_pass[1] for node in nodes]).reshape(size, n))
        slopes, intercepts = [], []
        for at, node in enumerate(nodes):
            z = [c + cs[at] for c, cs in zip(node.y_pass[0], second)]
            r, b = node.r, [0.0] * m
            for j in range(m - 1, -1, -1):
                b[j] = math.fsum([z[j]] + [-r[l][j] * b[l] for l in range(j + 1, m)]) / r[j][j]
            slopes.append(b)
            intercepts.append(math.fsum(
                [self.y_mean] + [-bj * self.means[c] for bj, c in zip(b, node.cols)]))
        rss_all = self._rss(
            np.array([node.cols for node in nodes], dtype=np.intp).reshape(size, m),
            np.array(slopes).reshape(size, m), np.array(intercepts))

        k_params = m + 1
        out = []
        for node, b, intercept, rss in zip(nodes, slopes, intercepts, rss_all):
            r2 = 1.0 if self.tss == 0 else 1.0 - rss / self.tss
            r2 = min(max(r2, 0.0), 1.0)

            # diagonal of (X'X)^-1 for [1 X]: 1/n + ||R^-T mean||^2 for the
            # intercept, squared row norms of R^-1 for the slopes
            row_ss = _row_sum_squares(node.inv)
            diag = [math.fsum([1.0 / n] + [t * t for t in node.mean_proj])] + row_ss

            sigma2 = rss / (n - k_params)
            ses = [math.sqrt(max(sigma2 * d, 0.0)) for d in diag]
            vifs = _vif_values([self.norms2[c] for c in node.cols], row_ss)
            fit = [r2, adjusted_r2_value(r2, n, m), aic_value(n, rss, k_params), rss]
            out.append(RegressionReport(
                variables=tuple(self.names[c] for c in node.cols),
                n_obs=n,
                k_params=k_params,
                packed=array("d", fit + [intercept] + b + ses + vifs),
            ))
        return out


def ols_fit(design: DesignMatrix) -> RegressionReport:
    """Least-squares fit with intercept; t-based CIs and two-sided p-values."""
    n, k_vars = design.x.shape
    _check_dof(n, k_vars + 1)
    walk = _Walk(design)
    return walk.reports([walk.chain()])[0]


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
    row_ss = _row_sum_squares(node.inv)
    return dict(zip(design.variables, _vif_values(walk.norms2, row_ss)))


def pearson_r(x: np.ndarray, y: np.ndarray) -> float:
    """Sample Pearson correlation."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1 or len(x) < 3:
        raise DataError("pearson needs two equal-length vectors of length >= 3")
    xc = x - _mean(x)
    yc = y - _mean(y)
    sxx, syy = _dot(xc, xc), _dot(yc, yc)
    if sxx == 0 or syy == 0:
        raise DataError("pearson is undefined for constant input")
    return min(max(_dot(xc, yc) / (math.sqrt(sxx) * math.sqrt(syy)), -1.0), 1.0)


@dataclass(frozen=True, slots=True)
class SubsetResult:
    variables: tuple[str, ...]
    report: RegressionReport
    admissible: bool


@dataclass(frozen=True)
class SelectionResult:
    table: tuple[SubsetResult, ...]  # canonical order: subset size, then names
    verdict: SubsetResult  # every single-variable subset, of VIF 1, is admissible
    vif_threshold: float


@functools.cache
def _subtree_size(pending: int, free: int) -> int:
    """Subsets in the subtree of a walk node, the node included, when it has
    `pending` later candidates and room for `free` more columns. Cached: a
    range of the walk asks for it once per child it passes."""
    return sum(math.comb(pending, j) for j in range(min(pending, free) + 1))


def select_model(
    design: DesignMatrix, vif_threshold: float = 5.0
) -> SelectionResult:
    """Fit every nonempty candidate subset; verdict = admissible model with
    minimal AIC, where models within AIC_TIE_BAND of the minimum tie and the
    tie resolves to fewer variables, then lexicographic names."""
    if not 1 <= len(design.variables) <= MAX_CANDIDATES:
        raise DataError(f"candidate count must be in [1, {MAX_CANDIDATES}]")
    if not vif_threshold > 1:  # NaN too
        raise DataError("vif_threshold must exceed 1")

    n, k = design.x.shape
    # Subsets of first_unfit or more columns leave no residual degree of
    # freedom. Every smaller subset is fitted before the shortage is reported,
    # as canonical order meets them, so a collinear smaller subset wins.
    first_unfit = max(1, n - 1)
    results = []
    if first_unfit > 1:
        walk = _Walk(design)
        root = walk.root(sorted(range(k), key=design.variables.__getitem__))
        max_size = min(k, first_unfit - 1)
        fits = _subtree_size(k, max_size) - 1  # the root is the empty subset
        # whole batches: every fit's stacked elements, m * C(k, m) * n summed
        # over the sizes m, over the budget; a batch holds one fit at least
        w = fork.workers(min(fits, n * k * _subtree_size(k - 1, max_size - 1)
                             // _FIT_BATCH_ELEMENTS))

        def fit_range(part):
            reports, batches = [], {}
            for node in walk.subtree(root, max_size, *part):
                m = len(node.cols)
                batch = batches.setdefault(m, [])
                batch.append(node._replace(pending=()))  # a fit needs no later candidate
                if len(batch) * m * n >= _FIT_BATCH_ELEMENTS:
                    reports += walk.reports(batch)
                    batch.clear()
            for batch in batches.values():
                if batch:
                    reports += walk.reports(batch)
            return reports

        parts = fork.run_parts(fit_range, [(fits * i // w, fits * (i + 1) // w) for i in range(w)])
        results = [SubsetResult(variables=r.variables, report=r,
                                admissible=r.max_vif < vif_threshold)
                   for reports in parts for r in reports]
    if k >= first_unfit:
        _check_dof(n, first_unfit + 1)
    results.sort(key=lambda r: (len(r.variables), r.variables))

    admissible = [r for r in results if r.admissible]
    best_aic = min(r.report.aic for r in admissible)
    tied = [r for r in admissible if r.report.aic <= best_aic + AIC_TIE_BAND]
    verdict = min(tied, key=lambda r: (len(r.variables), r.variables, r.report.aic))
    return SelectionResult(
        table=tuple(results), verdict=verdict, vif_threshold=vif_threshold
    )
