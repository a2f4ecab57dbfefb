"""Command-line front end: ingestion -> graphs -> indices -> regressions -> gravity.

Every output file starts with comment lines recording the tool version, a hash
of the run configuration, and hashes of the input files, so a run is fully
reproducible from its outputs. With a fixed seed and fixed inputs the output
directory is byte-identical across runs, CPUs and BLAS/LAPACK builds.

Each invocation is one run: flags are checked before any file is read or
written, each input file is read once, and the dataset, the port graph and
the index table are computed at most once, on first use, however many outputs
are written from them.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import sys
from collections.abc import Sequence
from functools import cached_property
from pathlib import Path

import numpy as np

from . import __version__, dataset_io
from .econometrics import DesignMatrix, select_model, standardize
from .fixture import generate
from .graph import Glsn, WeightScheme, build_glsn, edge_list_rows, graph_stats
from .gravity import (
    GravityVariant,
    assemble_pairs,
    coverage_filter,
    estimate_country_trade,
    fit_gravity,
    shared_pairs,
)
from .indices import INDEX_COLUMNS, L_VALUES, CountryIndexTable, build_index_table
from .ingest import (
    parse_bilateral,
    parse_country_econ,
    parse_ports,
    parse_routes,
    parse_routes_json,
    validate_dataset,
)
from .model import DataError

SCHEME_NAMES = {s.value: s for s in WeightScheme}
VARIANT_NAMES = {v.value: v for v in GravityVariant}
DEFAULT_VARIANTS = ["base", "lsbci", "gb", "lsbci_gb"]
DEPENDENTS = ("trade", "export", "import", "net_export", "gdp", "trade_change")
DEPENDENT_FIELDS = {
    "trade": "trade_value_usd", "export": "export_usd", "import": "import_usd",
    "gdp": "gdp_usd", "trade_change": "trade_value_change_usd",
}
CANDIDATES = ("gc", "gc_norm", "gb", "fb", "fb_norm", "lsci", "tv")
INPUTS = ("routes", "routes_meta", "ports", "countries", "bilateral")


def _config_hash(args: argparse.Namespace) -> str:
    # input paths are excluded: the header already records content hashes,
    # and outputs must not depend on where the inputs live
    skip = {"func", "out", *INPUTS}
    items = {k: str(v) for k, v in sorted(vars(args).items()) if k not in skip}
    return hashlib.sha256(json.dumps(items, sort_keys=True).encode()).hexdigest()[:16]


def _write(path: Path, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as f:
            f.write(text)
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc.strerror}") from None


def _lmax_caps(raw: str) -> tuple[int, ...]:
    try:
        caps = tuple(int(x) for x in raw.split(","))
    except ValueError:
        caps = ()
    if not caps or any(c not in L_VALUES for c in caps) or len(set(caps)) != len(caps):
        raise DataError(f"bad --lmax value {raw!r}: expected distinct caps from {L_VALUES}")
    return caps


def _names(raw: str, known, flag: str) -> list[str]:
    names = [n.strip() for n in raw.split(",") if n.strip()]
    unknown = [n for n in names if n not in known]
    if unknown:
        raise DataError(f"{flag}: unknown {','.join(unknown)} (known: {','.join(known)})")
    if not names or len(set(names)) != len(names):
        raise DataError(f"{flag}: expected distinct names, got {raw!r}")
    return names


def _has_rows(records: list, path: str) -> list:
    """The records parsed from the input at `path`, which a command needs
    (its flag is required, so only a file with no data rows gives none)."""
    if not records:
        raise DataError(f"{path}: no data rows")
    return records


class Run:
    """One invocation: its checked flags and the stages computed from its inputs.

    Every flag is checked on construction, before any file is read or written.
    Each input file is read once, so the parsers and the header's hashes see
    the same bytes, even from a pipe. The dataset, port graph, index table,
    output header and output directory are each computed on first use and
    then shared, so `report` computes them once and `build` never computes
    indices.
    """

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.inputs: dict[str, bytes] = {}  # path -> the bytes read from it
        flags = vars(args)
        if flags.get("routes_meta") and Path(args.routes).suffix == ".json":
            raise DataError("--routes-meta applies to CSV routes only; JSON routes carry "
                            "capacity_teu themselves")
        if "lmax" in flags:
            self.lmax = _lmax_caps(args.lmax)
        if "candidates" in flags:
            self.candidates = _names(args.candidates, CANDIDATES, "--candidates")
            if args.dependent == "trade_change" and "tv" not in self.candidates:
                self.candidates.append("tv")
            if not args.vif_threshold > 1:
                raise DataError("--vif-threshold must exceed 1")
        if "variant" in flags:
            names = VARIANT_NAMES if args.variant == "all" else _names(
                args.variant, VARIANT_NAMES, "--variant"
            )
            self.variants = [VARIANT_NAMES[v] for v in names]
            if not 0 < args.coverage <= 1:
                raise DataError("--coverage must be in (0, 1]")
            if not args.bilateral:
                raise DataError("--bilateral is required for gravity")

    def read(self, path: str) -> bytes:
        """The bytes of an input file, read on first use."""
        if path not in self.inputs:
            try:
                with open(path, "rb") as f:
                    self.inputs[path] = f.read()
            except OSError as exc:
                raise DataError(f"cannot read {exc.filename}: {exc.strerror}") from None
        return self.inputs[path]

    def parse(self, parser, *paths: str):
        """Parse the files at `paths`, each read once and decoded once as
        UTF-8 with universal newlines, with `parser`."""
        streams = []
        for path in paths:
            try:
                text = self.read(path).decode("utf-8")
            except UnicodeDecodeError as exc:
                raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None
            streams.append(io.StringIO(text, newline=None))
        return parser(*streams)

    @cached_property
    def dataset(self):
        """(retained routes, ports, econ or None, bilateral or None)."""
        args = self.args
        if Path(args.routes).suffix == ".json":
            routes = self.parse(parse_routes_json, args.routes)
        else:
            routes = self.parse(parse_routes, *filter(None, (args.routes, args.routes_meta)))
        ports = self.parse(parse_ports, args.ports)
        econ = self.parse(parse_country_econ, args.countries) if args.countries else None
        bilateral = self.parse(parse_bilateral, args.bilateral) if args.bilateral else None
        report = validate_dataset(routes, ports, econ, strict=args.strict)
        for line in report.summary_lines():
            print(f"validation: {line}", file=sys.stderr)
        if not report.retained:
            raise DataError("no retained routes after validation")
        return report.retained, ports, econ, bilateral

    @cached_property
    def graph(self) -> Glsn:
        """The port graph under --weighting. Betweenness and the gravity
        adjacency read only its edges, which every scheme shares."""
        routes, ports, _, _ = self.dataset
        return build_glsn(routes, ports, SCHEME_NAMES[self.args.weighting])

    @cached_property
    def table(self) -> CountryIndexTable:
        econ = self.dataset[2]
        lsci = {e.country_code: e.lsci for e in econ} if econ else {}
        return build_index_table(self.graph, self.graph, self.lmax, lsci)

    @cached_property
    def header(self) -> str:
        lines = [f"# glsn {__version__}", f"# config_hash {_config_hash(self.args)}"]
        for path in filter(None, (getattr(self.args, name) for name in INPUTS)):
            digest = hashlib.sha256(self.read(path)).hexdigest()
            lines.append(f"# input {Path(path).name} sha256 {digest}")
        return "\n".join(lines) + "\n"

    @cached_property
    def out(self) -> Path:
        out = Path(self.args.out)
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise DataError(f"cannot create --out {out}: {exc.strerror}") from None
        return out

    def write_csv(self, name: str, columns: Sequence[str], rows) -> None:
        _write(self.out / name, self.header + dataset_io.csv_text(columns, rows))


def cmd_build(run: Run) -> None:
    g = run.graph
    stats = graph_stats(g)
    run.write_csv(f"edges_{g.scheme.value}.csv", ["port_u", "port_v", "weight"],
                  edge_list_rows(g))
    _write(run.out / "stats.json",
           json.dumps({"scheme": g.scheme.value, **stats}, indent=2, sort_keys=True) + "\n")
    print(f"built {g.scheme.value}: {stats['node_count']} nodes, {stats['edge_count']} edges")


def cmd_indices(run: Run) -> None:
    rows = [[row[c] for c in INDEX_COLUMNS] for row in run.table.csv_rows()]
    run.write_csv("indices.csv", INDEX_COLUMNS, rows)
    print(f"indices for {len(rows)} countries -> {run.out / 'indices.csv'}")


def _candidate_values(table, econ_by_code, lmax: int) -> dict[str, dict[str, float | None]]:
    values: dict[str, dict[str, float | None]] = {}
    for c in table.countries():
        e = econ_by_code.get(c)
        values[c] = {
            "gc": table.gc[c],
            "gc_norm": table.gc_norm[c],
            "gb": table.gb[lmax][c],
            "fb": table.fb[c],
            "fb_norm": table.fb_norm[c],
            "lsci": table.lsci.get(c),
            "tv": e.trade_value_usd if e else None,
        }
    return values


def _dependent_value(e, dependent: str) -> float | None:
    if dependent != "net_export":
        return getattr(e, DEPENDENT_FIELDS[dependent])
    if e.export_usd is None or e.import_usd is None:
        return None
    return e.export_usd - e.import_usd


def cmd_regress(run: Run) -> None:
    args, candidates = run.args, run.candidates
    econ = _has_rows(run.dataset[2], args.countries)
    table = run.table
    econ_by_code = {e.country_code: e for e in econ}
    values = _candidate_values(table, econ_by_code, run.lmax[0])

    rows_x, rows_y, used = [], [], []
    excluded = 0
    for c in table.countries():
        e = econ_by_code.get(c)
        y = _dependent_value(e, args.dependent) if e else None
        xs = [values[c][name] for name in candidates]
        if y is None or None in xs or (args.log_response and y <= 0):
            excluded += 1
            continue
        rows_x.append(xs)
        rows_y.append(math.log(y) if args.log_response else y)
        used.append(c)
    if len(used) < len(candidates) + 2:
        raise DataError(
            f"only {len(used)} complete countries for {len(candidates)} candidates"
        )
    print(f"regress: {len(used)} countries used, {excluded} excluded", file=sys.stderr)

    design = DesignMatrix(
        variables=tuple(candidates),
        x=np.array(rows_x, dtype=float),
        response_name=args.dependent,
        y=np.array(rows_y, dtype=float),
    )
    selection = select_model(standardize(design), vif_threshold=args.vif_threshold)

    run.write_csv(
        "regression_report.csv",
        ["variables", "adjusted_r2", "aic", "max_vif", "admissible"],
        [
            ["+".join(r.variables), r.report.adjusted_r2, r.report.aic,
             r.report.max_vif, int(r.admissible)]
            for r in selection.table
        ],
    )
    rep = selection.verdict.report
    coef, ci95, p_values = rep.coefficients, rep.ci95, rep.p_values
    run.write_csv(
        "coefficients.csv",
        ["variable", "coef", "ci_lo", "ci_hi", "p_value"],
        [[name, b, *ci95[name], p_values[name]] for name, b in coef.items()],
    )
    verdict = "+".join(selection.verdict.variables)
    run.write_csv(
        "scatter.csv",
        ["country_code", *candidates, args.dependent],
        [[c, *rows_x[i], rows_y[i]] for i, c in enumerate(used)],
    )
    _write(run.out / "regress_summary.txt", run.header + "".join([
        f"dependent: {args.dependent}\n",
        f"log_response: {args.log_response}\n",
        f"candidates: {','.join(candidates)}\n",
        f"countries_used: {len(used)}\n",
        f"countries_excluded: {excluded}\n",
        f"vif_threshold: {dataset_io.fmt(args.vif_threshold)}\n",
        f"verdict: {verdict}\n",
    ]))
    print(f"verdict: {verdict}")


def cmd_gravity(run: Run) -> None:
    _, _, econ, bilateral = run.dataset
    econ = _has_rows(econ, run.args.countries)
    bilateral = _has_rows(bilateral, run.args.bilateral)
    shared = shared_pairs(econ, bilateral, run.graph, run.table.gb[run.lmax[0]], run.table.gc)

    report_rows = []
    first_fit = None
    for variant in run.variants:
        assembly = assemble_pairs(shared, variant)
        for reason, count in sorted(assembly.excluded.items()):
            print(f"gravity {variant.value}: excluded {count} pairs ({reason})",
                  file=sys.stderr)
        fit = fit_gravity(assembly.samples, variant)
        report_rows.append([variant.value, fit.adjusted_r2, fit.aic, fit.max_vif])
        if first_fit is None:
            first_fit = (variant, fit, assembly.samples)

    run.write_csv("gravity_report.csv", ["variant", "adjusted_r2", "aic", "max_vif"],
                  report_rows)

    variant, fit, samples = first_fit
    estimate = estimate_country_trade(fit, samples)
    run.write_csv(
        "pair_predictions.csv",
        ["country_i", "country_j", "ln_btv_emp", "ln_btv_pred"],
        [[s.country_i, s.country_j, s.ln_btv, ln_pred]
         for s, ln_pred in zip(samples, estimate.ln_predicted)],
    )
    retained, excluded = coverage_filter(econ, bilateral, run.args.coverage)
    run.write_csv(
        "country_estimates.csv",
        ["country_code", "empirical_btv_sum", "estimated_btv_sum", "covered"],
        [
            [c, estimate.empirical.get(c), estimate.estimated.get(c),
             int(c in retained)]
            for c in sorted(estimate.empirical)
        ],
    )
    _write(run.out / "gravity_summary.txt", run.header + "".join([
        f"primary_variant: {variant.value}\n",
        f"pairs_fitted: {len(samples)}\n",
        f"pearson_empirical_vs_estimated: {dataset_io.fmt(estimate.pearson_r)}\n",
        f"implied_adjusted_r2: {dataset_io.fmt(estimate.implied_adjusted_r2)}\n",
        f"coverage_threshold: {dataset_io.fmt(run.args.coverage)}\n",
        f"countries_covered: {len(retained)}\n",
        f"countries_excluded_by_coverage: {len(excluded)}\n",
        "note: country totals use exp of the fitted conditional mean of "
        "ln(btv); no log-normal correction\n",
    ]))
    print(f"gravity: {len(report_rows)} variants fitted, "
          f"reconstruction r={estimate.pearson_r:.4f}")


def cmd_report(run: Run) -> None:
    cmd_build(run)
    cmd_indices(run)
    cmd_regress(run)
    cmd_gravity(run)


def cmd_gen_fixture(run: Run) -> None:
    args = run.args
    ds = generate(
        seed=args.seed,
        n_countries=args.n_countries,
        n_ports=args.n_ports,
        n_routes=args.n_routes,
    )
    files = {
        "routes.csv": dataset_io.routes_csv(ds.routes),
        "routes_meta.csv": dataset_io.routes_meta_csv(ds.routes),
        "ports.csv": dataset_io.ports_csv(ds.ports),
        "countries.csv": dataset_io.countries_csv(ds.econ),
        "bilateral.csv": dataset_io.bilateral_csv(ds.bilateral),
    }
    for name, text in files.items():
        _write(run.out / name, text)
    print(f"fixture seed={args.seed}: {len(ds.ports)} ports, "
          f"{len({p.country_code for p in ds.ports})} countries, "
          f"{len(ds.routes)} routes -> {run.out}")


def _add_io_args(p: argparse.ArgumentParser, need_econ=False) -> None:
    p.add_argument("--routes", required=True)
    p.add_argument("--routes-meta", dest="routes_meta", default=None)
    p.add_argument("--ports", required=True)
    p.add_argument("--countries", required=need_econ, default=None)
    p.add_argument("--bilateral", default=None)
    p.add_argument("--weighting", choices=sorted(SCHEME_NAMES), default="none")
    p.add_argument("--lmax", default="2,3,4,5",
                   help="path-length caps; the first value feeds gb into regressions")
    p.add_argument("--out", required=True)
    p.add_argument("--strict", action="store_true")


def _add_regress_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dependent", choices=DEPENDENTS, default="trade")
    p.add_argument("--candidates", default="gc,gb,fb,lsci")
    p.add_argument("--vif-threshold", dest="vif_threshold", type=float, default=5.0)
    p.add_argument("--log-response", dest="log_response", action="store_true")


def _add_gravity_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--variant", default=",".join(DEFAULT_VARIANTS))
    p.add_argument("--coverage", type=float, default=0.9)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="glsn", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="construct the port graph and export edges")
    _add_io_args(p)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("indices", help="compute country index table")
    _add_io_args(p)
    p.set_defaults(func=cmd_indices)

    p = sub.add_parser("regress", help="best-subset regression of a country outcome")
    _add_io_args(p, need_econ=True)
    _add_regress_args(p)
    p.set_defaults(func=cmd_regress)

    p = sub.add_parser("gravity", help="gravity model fits and trade reconstruction")
    _add_io_args(p, need_econ=True)
    _add_gravity_args(p)
    p.set_defaults(func=cmd_gravity)

    p = sub.add_parser("report", help="run build + indices + regress + gravity")
    _add_io_args(p, need_econ=True)
    _add_regress_args(p)
    _add_gravity_args(p)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("gen-fixture", help="generate a seeded synthetic dataset")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--n-countries", dest="n_countries", type=int, default=6)
    p.add_argument("--n-ports", dest="n_ports", type=int, default=30)
    p.add_argument("--n-routes", dest="n_routes", type=int, default=12)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_fixture)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(Run(args))
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
