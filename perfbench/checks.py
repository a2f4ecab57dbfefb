"""Output checks for the benchmark workloads.

Two kinds of check:

* reference comparison: the output is compared token by token with the
  output stored under ``perfbench/reference/`` for that workload and seed;
* oracle checks, for any seed: identities the output must satisfy, computed
  here with numpy/scipy from the generated inputs (graph facts, and an
  exhaustive least-squares refit of every candidate subset).

Every check returns a list of error strings; an empty list means the output
passed.
"""

from __future__ import annotations

import math
import re
from itertools import combinations

import numpy as np
from scipy import sparse, stats
from scipy.sparse import csgraph

GB_COLUMNS = ("gb_l2", "gb_l3", "gb_l4", "gb_l5")
INDEX_COLUMNS = ("country_code", "port_count", "gc", "gc_norm", *GB_COLUMNS, "fb", "fb_norm", "lsci")
AIC_TIE_BAND = 2.0  # the selection protocol's tie band, restated for the oracle
ORACLE_RTOL = 1e-6  # oracle and program use different algorithms
# Absolute floor of the reference comparison: a coefficient fitted on
# z-scored data, such as the intercept, is rounding noise near 1e-16, which
# no relative tolerance can hold across summation orders or BLAS kernels.
REFERENCE_ATOL = 1e-12

_NUMBER = re.compile(r"[-+]?(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?|[-+]?inf|nan")
_INT = re.compile(r"[-+]?\d+")


def _same_float(a: float, b: float, rtol: float, atol: float = 0.0) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return math.isclose(a, b, rel_tol=rtol, abs_tol=atol)


def same_value(ref, got, rtol: float) -> bool:
    """Same type; floats to `rtol` or `REFERENCE_ATOL`, everything else exactly."""
    if type(ref) is not type(got):
        return False
    return _same_float(ref, got, rtol, REFERENCE_ATOL) if isinstance(ref, float) else ref == got


def compare_lines(name: str, ref: list[str], got: list[str], rtol: float) -> list[str]:
    """Token-wise text comparison: numbers with a decimal point or exponent
    to `rtol` or `REFERENCE_ATOL`, every other token exactly."""
    if len(ref) != len(got):
        return [f"{name}: {len(got)} lines, reference has {len(ref)}"]
    errors = []
    for i, (a, b) in enumerate(zip(ref, got), start=1):
        ta, tb = re.findall(r"[^,\s]+", a), re.findall(r"[^,\s]+", b)
        ok = len(ta) == len(tb)
        for x, y in zip(ta, tb) if ok else ():
            if _INT.fullmatch(x) or not _NUMBER.fullmatch(x):
                ok = x == y
            else:
                ok = bool(_NUMBER.fullmatch(y)) and not _INT.fullmatch(y) and _same_float(
                    float(x), float(y), rtol, REFERENCE_ATOL
                )
            if not ok:
                break
        if not ok:
            errors.append(f"{name} line {i}: {b!r} != reference {a!r}")
            if len(errors) >= 5:
                break
    return errors


def compare_rows(name: str, ref: list[list], got: list[list], rtol: float) -> list[str]:
    if len(ref) != len(got):
        return [f"{name}: {len(got)} rows, reference has {len(ref)}"]
    errors = []
    for i, (a, b) in enumerate(zip(ref, got)):
        if len(a) != len(b) or not all(same_value(x, y, rtol) for x, y in zip(a, b)):
            errors.append(f"{name} row {i}: {b!r} != reference {a!r}")
            if len(errors) >= 5:
                break
    return errors


# ---------------------------------------------------------------- graph facts


class GraphFacts:
    """Facts about the port graph of a dataset, computed with scipy.

    * port_count: ports per country;
    * gc: summed weight of cross-country edges per country, for the
      unweighted and cap_pairs schemes;
    * valid_d2_pairs: unordered cross-country port pairs at distance 2 with a
      path through a third country; the gb values at cap 2 sum to it;
    * fb_total: sum over connected port pairs of (distance - 1); the port
      betweenness values, hence the fb values, sum to it;
    * reach_pairs: cross-country port pairs within `lmax` hops.
    """

    def __init__(self, routes, ports, weighting: str, lmax: int):
        ids = sorted(p.port_id for p in ports)
        index = {pid: i for i, pid in enumerate(ids)}
        country_of = {p.port_id: p.country_code for p in ports}
        codes = sorted(set(country_of.values()))
        country = np.array([codes.index(country_of[pid]) for pid in ids])
        n = len(ids)

        contributions: dict[tuple[int, int], list[float]] = {}
        for route in routes:
            distinct = sorted(set(route.port_calls))
            k = len(distinct)
            if weighting == "none":
                w = 1.0
            elif weighting == "cap_pairs":
                w = route.capacity_teu / (k * (k - 1) / 2)
            else:
                raise ValueError(f"unsupported weighting {weighting!r}")
            for u, v in combinations(distinct, 2):
                contributions.setdefault((index[u], index[v]), []).append(w)
        rows = np.array([u for u, _ in contributions], dtype=np.int64)
        cols = np.array([v for _, v in contributions], dtype=np.int64)
        gc_terms: dict[str, list[float]] = {c: [] for c in codes}
        for (u, v), ws in contributions.items():
            if country[u] != country[v]:
                w = 1.0 if weighting == "none" else math.fsum(ws)
                gc_terms[codes[country[u]]].append(w)
                gc_terms[codes[country[v]]].append(w)
        self.gc = {c: math.fsum(ts) for c, ts in gc_terms.items()}
        self.port_count = {c: int(np.sum(country == i)) for i, c in enumerate(codes)}

        adj = sparse.coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n)).tocsr()
        adj = adj + adj.T
        dist = csgraph.shortest_path(adj, method="D", directed=False, unweighted=True)
        upper = np.triu(np.ones((n, n), dtype=bool), 1)
        cross = country[:, None] != country[None, :]
        finite = np.isfinite(dist)
        self.fb_total = float(np.sum(dist[upper & finite] - 1.0))
        self.reach_pairs = int(np.sum(upper & cross & (dist <= lmax)))

        a = adj.toarray()
        b = a * (~cross)  # edges to a same-country neighbour
        ba = b @ a
        through_third = a @ a - ba - ba.T  # 2-paths whose middle port is foreign to both ends
        self.valid_d2_pairs = int(np.sum(upper & cross & (dist == 2) & (through_third > 0.5)))


def check_index_rows(rows: list[dict], facts: GraphFacts) -> list[str]:
    """Identities every index table must satisfy, whatever the seed."""
    errors = []
    codes = [r["country_code"] for r in rows]
    if codes != sorted(facts.port_count):
        return [f"index table countries {codes[:5]}... differ from the port table"]
    for r in rows:
        c = r["country_code"]
        if r["port_count"] != facts.port_count[c]:
            errors.append(f"{c}: port_count {r['port_count']} != {facts.port_count[c]}")
        gbs = [r[col] for col in GB_COLUMNS]
        if any(a > b for a, b in zip(gbs, gbs[1:])):
            errors.append(f"{c}: gb not monotone in the path-length cap: {gbs}")
        if not _same_float(r["gc"], facts.gc[c], 1e-12):
            errors.append(f"{c}: gc {r['gc']!r} != {facts.gc[c]!r}")
    gb2 = math.fsum(r["gb_l2"] for r in rows)
    if not _same_float(gb2, facts.valid_d2_pairs, 1e-12):
        errors.append(f"sum of gb_l2 {gb2!r} != valid distance-2 pairs {facts.valid_d2_pairs}")
    fb = math.fsum(r["fb"] for r in rows)
    if not _same_float(fb, facts.fb_total, 1e-9):
        errors.append(f"sum of fb {fb!r} != sum of (distance - 1) {facts.fb_total!r}")
    return errors


# ------------------------------------------------------------- subset oracle


def _zscore(col: np.ndarray) -> np.ndarray:
    return (col - col.mean()) / col.std(ddof=1)


def subset_oracle(names: list[str], x: np.ndarray, y: np.ndarray, vif_threshold: float):
    """Refit every nonempty subset with numpy least squares on z-scored data.

    Returns ({variables: (adjusted_r2, aic, max_vif, admissible, borderline,
    design, coefficients, rss)} in canonical order, verdict variables or
    None). VIFs are the diagonal of the inverse correlation submatrix;
    `borderline` marks a max VIF within 1e-7 of the threshold, where the two
    computations may disagree on admissibility.
    """
    order = sorted(range(len(names)), key=lambda j: names[j])
    z = np.column_stack([_zscore(x[:, j]) for j in range(x.shape[1])])
    yz = _zscore(y)
    n = len(yz)
    corr = z.T @ z / (n - 1)
    tss = float(yz @ yz)
    fits = {}
    for size in range(1, len(names) + 1):
        for idx in combinations(order, size):
            xmat = np.column_stack([np.ones(n), z[:, idx]])
            beta, *_ = np.linalg.lstsq(xmat, yz, rcond=None)
            resid = yz - xmat @ beta
            rss = float(resid @ resid)
            r2 = min(max(1.0 - rss / tss, 0.0), 1.0)
            adj = 1.0 - (1.0 - r2) * (n - 1) / (n - size - 1)
            aic = n * math.log(rss / n) + 2 * (size + 1)
            max_vif = float(np.max(np.diag(np.linalg.inv(corr[np.ix_(idx, idx)]))))
            borderline = abs(max_vif - vif_threshold) <= 1e-7 * vif_threshold
            key = "+".join(names[j] for j in idx)
            fits[key] = (adj, aic, max_vif, max_vif < vif_threshold, borderline, xmat, beta, rss)
    admissible = [(k, f) for k, f in fits.items() if f[3]]
    verdict = None
    if admissible:
        best = min(f[1] for _, f in admissible)
        tied = [k for k, f in admissible if f[1] <= best + AIC_TIE_BAND]
        verdict = min(tied, key=lambda k: (k.count("+"), k.split("+")))
    return fits, verdict


def _verdict_rows(fit) -> list[tuple[float, float, float, float]]:
    _, _, _, _, _, xmat, beta, rss = fit
    n, k = xmat.shape
    dof = n - k
    se = np.sqrt(rss / dof * np.diag(np.linalg.inv(xmat.T @ xmat)))
    t = stats.t.ppf(0.975, dof)
    return [
        (float(b), float(b - t * s), float(b + t * s), float(2 * stats.t.sf(abs(b / s), dof)))
        for b, s in zip(beta, se)
    ]


def check_selection(
    names: list[str], x: np.ndarray, y: np.ndarray, vif_threshold: float,
    table: list[list], verdict: str, coefficients: list[list],
) -> list[str]:
    """Compare a selection table (rows: variables, adjusted_r2, aic, max_vif,
    admissible), its verdict and the verdict's coefficient rows (variable,
    coef, ci_lo, ci_hi, p_value) with the oracle."""
    fits, want_verdict = subset_oracle(names, x, y, vif_threshold)
    errors = []
    if [r[0] for r in table] != list(fits):
        return ["selection table does not list every subset once, in canonical order"]
    borderline = False
    for variables, adj, aic, max_vif, admissible in table:
        f = fits[variables]
        borderline |= f[4]
        close = all(
            _same_float(a, b, ORACLE_RTOL, 1e-9) for a, b in ((adj, f[0]), (aic, f[1]), (max_vif, f[2]))
        )
        if not close or (bool(admissible) != f[3] and not f[4]):
            errors.append(f"subset {variables}: {(adj, aic, max_vif, admissible)} != oracle {f[:4]}")
            if len(errors) >= 5:
                return errors
    want = want_verdict or "none admissible"
    if verdict != want and not borderline:
        errors.append(f"verdict {verdict!r} != oracle {want!r}")
    elif verdict == want and want_verdict is not None:
        want_rows = _verdict_rows(fits[want_verdict])
        got_names = [r[0] for r in coefficients]
        if got_names != ["intercept", *want_verdict.split("+")]:
            errors.append(f"coefficient rows {got_names} do not match verdict {want_verdict}")
        for row, want_row in zip(coefficients, want_rows):
            if not all(_same_float(a, b, ORACLE_RTOL, 1e-12) for a, b in zip(row[1:], want_row)):
                errors.append(f"coefficient row {row} != oracle {want_row}")
    return errors
