"""glsn benchmark: seeded workloads, end-to-end metrics and a traced per-layer run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload report_300 --seed 11 --seconds 45 --trace 0

Workloads, each one closed-loop caller in this process:

* report_300    ``glsn.cli.main(["report", ...])`` on five 300-port fixtures in turn;
* select_k12    ``select_model(standardize(design), 5.0)``, 12 candidates;
* indices_1000  ``build_glsn`` + ``build_index_table`` on a 1,000-port fixture.

BENCHMARK.json lists the first two. indices_1000 is for runs by hand: one
operation takes 12 to 20 s depending on the seed, so a run of the listed
length holds one or two operations and its figure is the seed's, not a
steady median.

The run sets up the inputs ``SETUP_REPS`` times (``setup_s`` is the median),
then runs operations until the next one would end past ``--seconds``. Every
operation's output is checked (see checks.py); the last stdout line is the
JSON result. With ``--trace 1`` operations alternate untraced and traced and
the result carries the per-layer metrics instead. ``--smoke`` shrinks every
workload for the self-tests in selftest.py.

``wall_s``, ``cpu_s`` and ``setup_s`` are seconds at a reference machine
speed: each timed region is scaled by a calibration loop run just before and
after it (see "calibration" below). The details line keeps the raw samples.
Per-layer times are raw seconds.

The process re-executes itself once with ``PYTHONHASHSEED=0`` and without
``GLSN_THREADS``: string-hash randomisation alone moved one indices_1000
operation between 15.6 s and 19.5 s on a 2-core VM, and the default
single-thread path is the one measured.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import gzip
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE_DIR = HERE / "reference"
SETUP_REPS = 3
VIF_THRESHOLD = 5.0
LMAX = (2, 3, 4, 5)

SIZES = {
    "report_300": {"n_ports": 300, "n_routes": 100, "n_countries": 30},
    "indices_1000": {"n_ports": 1000, "n_routes": 300, "n_countries": 60},
    "select_k12": {"n_obs": 150, "n_pairs": 6},
}
SMOKE_SIZES = {
    "report_300": {"n_ports": 30, "n_routes": 12, "n_countries": 6},
    "indices_1000": {"n_ports": 60, "n_routes": 20, "n_countries": 8},
    "select_k12": {"n_obs": 40, "n_pairs": 2},
}

E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s", "ok_ratio": "ratio"}


def _reexec_if_needed() -> None:
    if os.environ.get("PYTHONHASHSEED") == "0" and "GLSN_THREADS" not in os.environ:
        return
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("GLSN_THREADS", None)
    os.execve(sys.executable, [sys.executable, os.path.abspath(sys.argv[0]), *sys.argv[1:]], env)


def _import_glsn():
    """Import glsn from this checkout's source tree, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import glsn.cli  # noqa: F401  (loads every traced module)

    if Path(glsn.cli.__file__).resolve().parent.parent != SRC.resolve():
        raise ImportError(f"glsn imported from {glsn.cli.__file__}, not from {SRC}")
    return glsn


# ---------------------------------------------------------------- calibration
#
# On a shared VM the speed of the same code drifts for minutes at a time: one
# select_k12 operation took 3.8 s to 7.2 s within ten minutes, and a fixed
# dict loop 0.035 s to 0.082 s alongside; ten-run medians of the same
# workload measured at different times of one day differed by a third.
# Every end-to-end time is therefore scaled by the workload's reference time
# of its calibration loop over the mean of the loop's times just before and
# just after the timed region. Each workload uses the loop that tracked it
# best on a 2-core VM: over windows of 6 to 8 operations spanning fast and
# slow phases, the window medians of report_300 ranged x1.6 raw and x1.09
# scaled by the Fraction loop (the dict loop tracked it less well), those of
# select_k12 x1.7 raw and x1.26 scaled by the dict loop. The loops are the
# benchmark's own code, so a change to glsn moves the scaled times as much
# as the raw ones.


def _dict_loop() -> None:
    d: dict[int, int] = {}
    for i in range(1_200_000):
        d[i % 1000] = d.get(i % 1000, 0) + i


def _fraction_loop() -> None:
    acc: dict[int, Fraction] = {}
    for i in range(100_000):
        acc[i % 97] = acc.get(i % 97, Fraction(0)) + Fraction(1, 1 + i % 13)


def _calibrate(wl) -> float:
    """Wall seconds of the workload's calibration loop: the machine's speed
    just now, for code like the workload's."""
    t0 = time.perf_counter()
    wl.calibration_loop()
    return time.perf_counter() - t0


def _scale(wl, before: float, after: float) -> float:
    """Factor that takes a time measured between two calibrations to the
    workload's reference speed."""
    return wl.calibration_ref_s / ((before + after) / 2)


# ------------------------------------------------------------------ workloads


def _texts(out_dir: Path) -> dict[str, str]:
    return {p.name: p.read_text(encoding="utf-8") for p in sorted(out_dir.iterdir())}


def _body(text: str) -> list[str]:
    """Lines without the '#' header, which hashes the configuration."""
    return [line for line in text.splitlines() if not line.startswith("#")]


def _csv_rows(text: str) -> list[list[str]]:
    return [line.split(",") for line in _body(text)[1:]]


class ReportWorkload:
    """Rotates over five fixtures per run: one fixture's gb cost depends on
    its shortest-path structure, and seeds 1 to 5 alone differed by 17% in
    operation time, so one input per run would make the seed the spread."""

    name = "report_300"
    inputs = 5
    calibration_loop = staticmethod(_fraction_loop)  # gb sums Fractions
    calibration_ref_s = 0.240  # about the fastest seen on the 2-core VM
    weighting = "cap_pairs"

    def setup(self, glsn, seed: int, sizes: dict, work: Path):
        from glsn import dataset_io

        ds = glsn.fixture.generate(seed=seed, **sizes)
        inputs = work / "input"
        inputs.mkdir(parents=True, exist_ok=True)
        files = {
            "routes": ("routes.csv", dataset_io.routes_csv(ds.routes)),
            "routes-meta": ("routes_meta.csv", dataset_io.routes_meta_csv(ds.routes)),
            "ports": ("ports.csv", dataset_io.ports_csv(ds.ports)),
            "countries": ("countries.csv", dataset_io.countries_csv(ds.econ)),
            "bilateral": ("bilateral.csv", dataset_io.bilateral_csv(ds.bilateral)),
        }
        argv = ["report"]
        for flag, (fname, text) in files.items():
            (inputs / fname).write_text(text, encoding="utf-8", newline="\n")
            argv += [f"--{flag}", str(inputs / fname)]
        out = work / "out"
        argv += ["--weighting", self.weighting, "--out", str(out)]
        return {"ds": ds, "argv": argv, "out": out}

    def prepare(self, state) -> None:
        shutil.rmtree(state["out"], ignore_errors=True)

    def op(self, glsn, state):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = glsn.cli.main(state["argv"])
        if rc != 0:
            raise RuntimeError(f"glsn report exited {rc}: {sink.getvalue()[-500:]}")
        return _texts(state["out"])

    def record(self, texts) -> dict:
        return {name: _body(text) for name, text in texts.items()}

    def compare(self, ref: dict, rec: dict) -> list[str]:
        from checks import compare_lines

        if sorted(ref) != sorted(rec):
            return [f"output files {sorted(rec)} != reference {sorted(ref)}"]
        errors = []
        for name in sorted(ref):
            errors += compare_lines(name, ref[name], rec[name], rtol=1e-9)
        return errors

    def facts(self, state):
        from checks import GraphFacts

        ds = state["ds"]
        return GraphFacts(ds.routes, ds.ports, self.weighting, max(LMAX))

    def oracle(self, state, texts, facts) -> list[str]:
        import numpy as np
        from checks import INDEX_COLUMNS, check_index_rows, check_selection

        expected = {
            f"edges_{self.weighting}.csv", "stats.json", "indices.csv", "regression_report.csv",
            "coefficients.csv", "scatter.csv", "regress_summary.txt", "gravity_report.csv",
            "pair_predictions.csv", "country_estimates.csv", "gravity_summary.txt",
        }
        if set(texts) != expected:
            return [f"output files {sorted(texts)} != {sorted(expected)}"]
        errors = []

        head, *rows = _body(texts["indices.csv"])
        if tuple(head.split(",")) != INDEX_COLUMNS:
            return [f"indices.csv columns {head!r}"]
        parsed = [
            {c: (v if c == "country_code" else int(v) if c == "port_count" else float(v or "nan"))
             for c, v in zip(INDEX_COLUMNS, row.split(","))}
            for row in rows
        ]
        errors += check_index_rows(parsed, facts)

        scatter = _body(texts["scatter.csv"])
        names = scatter[0].split(",")[1:-1]
        data = np.array([[float(v) for v in r[1:]] for r in _csv_rows(texts["scatter.csv"])])
        table = [
            [r[0], float(r[1]), float(r[2]), float(r[3]), int(r[4])]
            for r in _csv_rows(texts["regression_report.csv"])
        ]
        summary = dict(line.split(": ", 1) for line in _body(texts["regress_summary.txt"]))
        coefs = [[r[0], *map(float, r[1:])] for r in _csv_rows(texts["coefficients.csv"])]
        errors += check_selection(
            names, data[:, :-1], data[:, -1], VIF_THRESHOLD, table, summary["verdict"], coefs
        )

        gsum = dict(line.split(": ", 1) for line in _body(texts["gravity_summary.txt"]))
        n_pred = len(_csv_rows(texts["pair_predictions.csv"]))
        if int(gsum["pairs_fitted"]) != n_pred:
            errors.append(f"pairs_fitted {gsum['pairs_fitted']} != {n_pred} predicted pairs")
        return errors

    def out_bytes(self, texts) -> int:
        return sum(len(t.encode("utf-8")) for t in texts.values())


class IndicesWorkload:
    name = "indices_1000"
    inputs = 1
    calibration_loop = staticmethod(_fraction_loop)
    calibration_ref_s = 0.240

    def setup(self, glsn, seed: int, sizes: dict, work: Path):
        return {"ds": glsn.fixture.generate(seed=seed, **sizes)}

    def prepare(self, state) -> None:
        pass

    def op(self, glsn, state):
        ds = state["ds"]
        g = glsn.graph.build_glsn(ds.routes, ds.ports, glsn.graph.WeightScheme.UNWEIGHTED)
        return glsn.indices.build_index_table(g, g, LMAX)

    def record(self, table) -> dict:
        from checks import INDEX_COLUMNS

        return {"rows": [[row[c] for c in INDEX_COLUMNS] for row in table.csv_rows()]}

    def compare(self, ref: dict, rec: dict) -> list[str]:
        from checks import compare_rows

        return compare_rows("indices", ref["rows"], rec["rows"], rtol=1e-12)

    def facts(self, state):
        from checks import GraphFacts

        ds = state["ds"]
        return GraphFacts(ds.routes, ds.ports, "none", max(LMAX))

    def oracle(self, state, table, facts) -> list[str]:
        from checks import check_index_rows

        return check_index_rows(table.csv_rows(), facts)

    def out_bytes(self, table) -> int:
        return 0


class SelectWorkload:
    """Six strongly correlated candidate pairs: column j is base[:, j//2] plus
    N(0, 0.3) noise, so pairs have VIF near 6 and singletons near 1; both
    branches of the admissibility test run."""

    name = "select_k12"
    inputs = 1
    calibration_loop = staticmethod(_dict_loop)
    calibration_ref_s = 0.160
    beta = (1.0, -0.8, 0.6, -0.4, 0.2, 0.0)

    def setup(self, glsn, seed: int, sizes: dict, work: Path):
        import numpy as np

        rng = np.random.default_rng(seed)
        n, pairs = sizes["n_obs"], sizes["n_pairs"]
        base = rng.normal(0.0, 1.0, (n, pairs))
        x = np.column_stack([base[:, j // 2] + rng.normal(0.0, 0.3, n) for j in range(2 * pairs)])
        y = base @ np.array(self.beta[:pairs]) + rng.normal(0.0, 1.0, n)
        names = tuple(f"x{j + 1:02d}" for j in range(2 * pairs))
        design = glsn.econometrics.DesignMatrix(variables=names, x=x, response_name="y", y=y)
        return {"design": design}

    def prepare(self, state) -> None:
        pass

    def op(self, glsn, state):
        econ = glsn.econometrics
        return econ.select_model(econ.standardize(state["design"]), VIF_THRESHOLD)

    def record(self, selection) -> dict:
        """What regression_report.csv and coefficients.csv would carry."""
        table = [
            ["+".join(r.variables), r.report.adjusted_r2, r.report.aic, r.report.max_vif,
             int(r.admissible)]
            for r in selection.table
        ]
        if selection.verdict is None:
            return {"table": table, "verdict": "none admissible", "coefficients": []}
        rep = selection.verdict.report
        coefs = [
            [name, rep.coefficients[name], rep.ci95[name][0], rep.ci95[name][1], rep.p_values[name]]
            for name in ("intercept",) + rep.variables
        ]
        return {"table": table, "verdict": "+".join(selection.verdict.variables), "coefficients": coefs}

    def compare(self, ref: dict, rec: dict) -> list[str]:
        from checks import compare_rows

        errors = compare_rows("regression_report", ref["table"], rec["table"], rtol=1e-9)
        if ref["verdict"] != rec["verdict"]:
            errors.append(f"verdict {rec['verdict']!r} != reference {ref['verdict']!r}")
        errors += compare_rows("coefficients", ref["coefficients"], rec["coefficients"], rtol=1e-9)
        return errors

    def facts(self, state):
        return None

    def oracle(self, state, selection, facts) -> list[str]:
        from checks import check_selection

        design = state["design"]
        rec = self.record(selection)
        return check_selection(
            list(design.variables), design.x, design.y, VIF_THRESHOLD,
            rec["table"], rec["verdict"], rec["coefficients"],
        )

    def out_bytes(self, selection) -> int:
        return 0


WORKLOADS = {w.name: w for w in (ReportWorkload(), IndicesWorkload(), SelectWorkload())}


def reference_path(workload: str, seed: int, smoke: bool) -> Path:
    return REFERENCE_DIR / f"{workload}{'-smoke' if smoke else ''}-seed{seed}.json.gz"


def load_reference(path: Path):
    if not path.exists():
        return None
    with gzip.open(path, "rt", encoding="utf-8") as f:
        return json.load(f)


def write_reference(path: Path, record: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    data = json.dumps(record, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as f:
        f.write(gzip.compress(data, mtime=0))


# ---------------------------------------------------------------- measuring


def _cpu() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def _import_seconds() -> float:
    """Wall time of importing glsn.cli in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import glsn.cli"], cwd=ROOT, env=env, check=True)
    return time.perf_counter() - t0


def input_seeds(wl, seed: int) -> list[int]:
    """The fixture or design seeds of one run: `seed` itself for a single
    input, else `inputs` consecutive seeds no other run seed shares."""
    return [seed * wl.inputs + j for j in range(wl.inputs)]


def set_up(glsn, wl, seed, sizes, work, tracer=None):
    """SETUP_REPS set-ups of every input; returns (states of the last set-up,
    set-up times at the reference speed, gb seconds inside fixture.generate per set-up if traced)."""
    times, gb_l2 = [], []
    states = None
    for _ in range(SETUP_REPS):
        cal0 = _calibrate(wl)
        t_import = _import_seconds()
        shutil.rmtree(work, ignore_errors=True)
        lo = tracer.mark() if tracer else 0
        if tracer:
            tracer.install()
        t0 = time.perf_counter()
        try:
            states = [wl.setup(glsn, s, sizes, work / str(s)) for s in input_seeds(wl, seed)]
        finally:
            t1 = time.perf_counter()
            if tracer:
                tracer.uninstall()
        times.append((t_import + t1 - t0) * _scale(wl, cal0, _calibrate(wl)))
        if tracer:
            gb_l2.append(tracer.summary(lo).under("fixture.generate", "indices.glsn_betweenness_exact"))
    return states, times, gb_l2


def run_ops(glsn, wl, states, seconds: float, tracer=None):
    """Closed loop over the inputs in turn: run operations until the next one,
    at the median duration so far, would end after `seconds`, but not before
    one whole turn over the inputs. With a tracer, odd operations are traced
    and two turns are the least, so that with an odd number of inputs every
    input is timed both traced and untraced.

    Every output must equal the first output of the same input exactly; only
    that first output is kept, so memory does not grow with the number of
    operations. Returns (one dict per operation, {input: first output})."""
    ops, first = [], {}
    minimum = len(states) * (2 if tracer is not None else 1)
    t_start = time.perf_counter()
    while True:
        traced = tracer is not None and len(ops) % 2 == 1
        j = len(ops) % len(states)
        wl.prepare(states[j])
        gc.collect()  # the previous operation's garbage is not this one's cost
        cal0 = _calibrate(wl)
        lo = tracer.mark() if traced else 0
        if traced:
            tracer.install()
        error, output = None, None
        c0, w0 = _cpu(), time.perf_counter()
        try:
            output = wl.op(glsn, states[j])
        except Exception as exc:  # a failed operation is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        w1, c1 = time.perf_counter(), _cpu()
        if traced:
            tracer.uninstall()
        scale = _scale(wl, cal0, _calibrate(wl))
        if error is None:
            record = wl.record(output)
            if j not in first:
                first[j] = (output, record)
            elif record != first[j][1]:
                error = "output differs from the run's first operation on this input"
        ops.append({
            "input": j, "wall": w1 - w0, "cpu": c1 - c0, "scale": scale, "traced": traced,
            "error": error,
            "out_bytes": wl.out_bytes(output) if error is None else 0,
            "spans": tracer.summary(lo) if traced else None,
        })
        del output
        elapsed = time.perf_counter() - t_start
        if len(ops) >= minimum and elapsed + statistics.median(o["wall"] for o in ops) > seconds:
            return ops, first


def input_median(ops, value) -> float:
    """Median over the run's inputs of each input's median `value`, so that
    every input weighs the same however often the run reached it."""
    by_input: dict[int, list[float]] = {}
    for o in ops:
        by_input.setdefault(o["input"], []).append(value(o))
    return statistics.median(statistics.median(v) for v in by_input.values())


def check_ops(wl, states, ops, first, reference, facts) -> list[str]:
    """Mark failed operations; returns the distinct errors seen.

    The first output of each input is checked by the oracle and, when a
    reference is stored for this seed, compared with it. If it fails, every
    operation on that input fails too."""
    errors = []
    for j, (output, record) in sorted(first.items()):
        problems = wl.oracle(states[j], output, facts[j])
        if reference is not None:
            problems += wl.compare(reference["inputs"][j], record)
        errors += problems
        for o in ops:
            if o["input"] == j and o["error"] is None and problems:
                o["error"] = problems[0]
    for o in ops:
        if o["error"] is not None and o["error"] not in errors:
            errors.append(o["error"])
    return errors


def layer_metrics(spans, out_bytes: int, facts) -> dict[str, float]:
    """Per-layer metrics of one traced operation, from its spans."""
    inc, own, calls, cnt = spans.inclusive, spans.self_time, spans.calls, spans.counters

    def t(name):
        return inc.get(name, 0.0)

    def n(name):
        return calls.get(name, 0)

    gb_s, gb_calls = t("indices.glsn_betweenness_exact"), n("indices.glsn_betweenness_exact")
    reach = facts.reach_pairs if facts is not None else 0
    select_s, subsets = t("econometrics.select_model"), cnt.get("econometrics.subsets", 0)
    return {
        "cli.build_s": t("cli.cmd_build"),
        "cli.indices_s": t("cli.cmd_indices"),
        "cli.regress_s": t("cli.cmd_regress"),
        "cli.gravity_s": t("cli.cmd_gravity"),
        "cli.self_s": sum(v for k, v in own.items() if k.startswith("cli.")),
        "cli.out_bytes": out_bytes,
        "ingest.parse_s": sum(v for k, v in inc.items() if k.startswith("ingest.parse_")),
        "ingest.validate_s": t("ingest.validate_dataset"),
        "ingest.validate_calls": n("ingest.validate_dataset"),
        "ingest.routes_kept": cnt.get("ingest.routes_kept", 0),
        "ingest.routes_dropped": cnt.get("ingest.routes_dropped", 0),
        "graph.build_s": t("graph.build_glsn"),
        "graph.build_calls": n("graph.build_glsn"),
        "graph.nodes": cnt.get("graph.nodes", 0),
        "graph.edges": cnt.get("graph.edges", 0),
        "indices.table_s": t("indices.build_index_table"),
        "indices.table_calls": n("indices.build_index_table"),
        "indices.gc_s": t("indices.country_connectivity"),
        "indices.gb_s": gb_s,
        "indices.fb_s": t("indices.port_betweenness") + t("indices.country_freeman"),
        "indices.gb_calls": gb_calls,
        "indices.fb_calls": n("indices.port_betweenness"),
        "indices.reach_pairs": reach,
        "indices.gb_us_per_pair": 1e6 * gb_s / (gb_calls * reach) if gb_calls and reach else 0.0,
        "econometrics.select_s": select_s,
        "econometrics.ols_s": own.get("econometrics.ols_fit", 0.0),
        "econometrics.vif_s": t("econometrics.vif"),
        "econometrics.subsets": subsets,
        "econometrics.admissible": cnt.get("econometrics.admissible", 0),
        "econometrics.ols_calls": n("econometrics.ols_fit"),
        "econometrics.us_per_subset": 1e6 * select_s / subsets if subsets else 0.0,
        "gravity.assemble_s": t("gravity.assemble_pairs"),
        "gravity.fit_s": t("gravity.fit_gravity"),
        "gravity.estimate_s": t("gravity.estimate_country_trade"),
        "gravity.pairs_fitted": cnt.get("gravity.pairs_fitted", 0),
        "gravity.pairs_excluded": cnt.get("gravity.pairs_excluded", 0),
    }


def src_lines() -> int:
    return sum(len(p.read_bytes().splitlines()) for p in sorted((SRC / "glsn").rglob("*.py")))


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None  # a plain checkout without .git
    digest = hashlib.sha256()
    for p in sorted((SRC / "glsn").rglob("*.py")):
        digest.update(p.relative_to(SRC).as_posix().encode() + b"\0" + p.read_bytes())
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_config": blas.get("openblas configuration") or blas.get("version"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "repo.src_lines": src_lines(),
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"),
        "GLSN_THREADS": os.environ.get("GLSN_THREADS"),
    }


def _metric(value, unit):
    return {"value": value, "unit": unit}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return {
        "cli.out_bytes": "bytes",
        "indices.gb_us_per_pair": "us",
        "econometrics.us_per_subset": "us",
        "trace.overhead_ratio": "ratio",
        "repo.src_lines": "lines",
    }.get(name, "count")


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False,
        glsn=None) -> tuple[dict, dict]:
    """One benchmark run; returns (result, details)."""
    from spans import Tracer

    glsn = glsn or _import_glsn()
    wl = WORKLOADS[workload]
    sizes = (SMOKE_SIZES if smoke else SIZES)[workload]
    work = ROOT / ".perfbench_work" / f"{workload}-{os.getpid()}"
    tracer = Tracer() if trace else None
    try:
        states, setup_times, gb_l2 = set_up(glsn, wl, seed, sizes, work, tracer)
        ops, first = run_ops(glsn, wl, states, seconds, tracer)
        peak_kb = max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        )
        facts = [wl.facts(st) if any(o["input"] == j for o in ops) else None
                 for j, st in enumerate(states)]
        reference = load_reference(reference_path(workload, seed, smoke))
        errors = check_ops(wl, states, ops, first, reference, facts)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(o["error"] is not None for o in ops)
    plain = [o for o in ops if not o["traced"]]
    if trace:
        traced = [o for o in ops if o["traced"]]
        for o in traced:
            o["layers"] = layer_metrics(o["spans"], o["out_bytes"], facts[o["input"]])
        # times: input medians over traced operations; counts: the first
        # traced operation's, so that they repeat exactly from run to run
        values = {
            k: input_median(traced, lambda o, k=k: o["layers"][k])
            if layer_unit(k) in ("s", "us") else v
            for k, v in traced[0]["layers"].items()
        }
        values["indices.gb_l2_s"] = statistics.median(gb_l2)
        values["trace.overhead_ratio"] = (
            input_median(traced, lambda o: o["wall"]) / input_median(plain, lambda o: o["wall"])
        )
        values["repo.src_lines"] = src_lines()
        metrics = {k: _metric(v, layer_unit(k)) for k, v in sorted(values.items())}
    else:
        values = {
            "wall_s": input_median(plain, lambda o: o["wall"] * o["scale"]),
            "cpu_s": input_median(plain, lambda o: o["cpu"] * o["scale"]),
            "peak_rss_mb": peak_kb / 1024.0,
            "setup_s": statistics.median(setup_times),
            "ok_ratio": (len(ops) - failed) / len(ops),
        }
        metrics = {k: _metric(v, E2E_UNITS[k]) for k, v in values.items()}
    result = {"correct": failed == 0, "attempted": len(ops), "failed": failed, "metrics": metrics}
    details = {
        "workload": workload, "seed": seed, "smoke": smoke, "reference": reference is not None,
        "ops": len(ops), "wall_s_samples": [round(o["wall"], 6) for o in ops],
        "scale_samples": [round(o["scale"], 4) for o in ops],
        "traced": [o["traced"] for o in ops],
        "setup_s_samples": [round(t, 6) for t in setup_times], "errors": errors[:10],
    }
    return result, details


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the self-tests")
    args = parser.parse_args(argv)
    _reexec_if_needed()
    try:
        glsn = _import_glsn()
    except ImportError as exc:
        print(f"perfbench: cannot import glsn from {SRC}: {exc}", file=sys.stderr)
        return 2
    result, details = run(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke,
                          glsn)
    print(json.dumps({"env": environment()}, sort_keys=True))
    print(json.dumps({"details": details}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    sys.exit(main())
