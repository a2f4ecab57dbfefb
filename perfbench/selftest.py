"""Self-tests of the benchmark, on the smoke-size workloads.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these tests out of the repository's own test run.
"""

from __future__ import annotations

import copy
import gzip
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import run  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SEED = 11  # has a stored smoke reference
SECONDS = 0.3


@pytest.fixture(scope="module")
def glsn():
    return run._import_glsn()


@pytest.fixture
def scratch():
    path = run.ROOT / ".perfbench_work" / "selftest"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _bindings() -> dict[tuple[str, str], object]:
    return {
        (name, attr): obj
        for name, module in list(sys.modules.items())
        if name == "glsn" or name.startswith("glsn.")
        for attr, obj in vars(module).items()
        if isinstance(obj, types.FunctionType)
    }


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_with_its_unit(glsn, workload, trace):
    result, details = run.run(workload, SEED, SECONDS, trace, smoke=True, glsn=glsn)
    assert result["correct"] and result["failed"] == 0, details["errors"]
    assert details["reference"], "smoke reference missing"
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    for v in result["metrics"].values():
        assert isinstance(v["value"], (int, float))


def test_traced_counts_repeat_and_originals_are_restored(glsn):
    before = _bindings()
    counts = []
    for _ in range(2):
        result, _ = run.run("report_300", SEED, SECONDS, True, smoke=True, glsn=glsn)
        counts.append({
            k: v["value"] for k, v in result["metrics"].items() if v["unit"] in ("count", "bytes")
        })
    after = _bindings()
    assert before.keys() == after.keys()
    assert all(after[k] is obj for k, obj in before.items())
    assert counts[0] == counts[1]
    assert counts[0]["indices.table_calls"] >= 1 and counts[0]["ingest.validate_calls"] >= 1


def test_tracer_wraps_direct_imports(glsn):
    from spans import Tracer

    original = glsn.cli.build_index_table
    with Tracer() as tracer:
        assert glsn.cli.build_index_table is not original
        assert glsn.indices.build_index_table is glsn.cli.build_index_table
    assert glsn.cli.build_index_table is original
    assert tracer.names == []


def _corrupt(reference, workload):
    reference = copy.deepcopy(reference)
    record = reference["inputs"][0]
    if workload == "select_k12":
        record["table"][0][2] *= 1 + 1e-6  # aic of the first subset
    elif workload == "indices_1000":
        record["rows"][0][2] *= 1 + 1e-6  # gc of the first country
    else:
        cells = record["indices.csv"][1].split(",")
        cells[2] = repr(float(cells[2]) * (1 + 1e-6))  # gc of the first country
        record["indices.csv"][1] = ",".join(cells)
    return reference


def _copy_benchmark(root: Path) -> Path:
    """A checkout at `root` holding BENCHMARK.json and perfbench/ only."""
    bench = root / "perfbench"
    shutil.copytree(run.HERE, bench, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", root)
    return bench


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_corrupted_reference_fails_the_run(workload, scratch):
    checkout = scratch / "corrupt"
    bench = _copy_benchmark(checkout)
    (checkout / "src").symlink_to(run.SRC.resolve(), target_is_directory=True)
    path = bench / run.reference_path(workload, SEED, smoke=True).relative_to(run.HERE)
    run.write_reference(path, _corrupt(run.load_reference(path), workload))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", str(SECONDS), "--smoke"],
        cwd=checkout, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert not result["correct"]
    assert result["failed"] >= 1
    assert result["metrics"]["ok_ratio"]["value"] < 1.0


def test_without_the_program_the_run_fails_silently(scratch):
    bare = scratch / "bare"
    _copy_benchmark(bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "select_k12", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_compare_lines_is_exact_on_ints_and_strings_and_relative_on_floats():
    ref = ["a,1,2.5,gc+gb"]
    assert checks.compare_lines("f", ref, ["a,1,2.5000000001,gc+gb"], 1e-9) == []
    assert checks.compare_lines("f", ref, ["a,1,2.6,gc+gb"], 1e-9)
    assert checks.compare_lines("f", ref, ["a,2,2.5,gc+gb"], 1e-9)
    assert checks.compare_lines("f", ref, ["a,1,2.5,gc"], 1e-9)
    assert checks.compare_lines("f", ref, ["a,1.0,2.5,gc+gb"], 1e-9)


def test_reference_comparison_holds_rounding_noise_near_zero():
    """A coefficient fitted on z-scored data, such as the intercept, is noise
    near 1e-16; another summation order must not fail the comparison."""
    ref = ["intercept,6.394323294180128e-16,-0.1,0.1,0.9999999999999993"]
    noisy = ["intercept,-3.6e-16,-0.1,0.1,0.9999999999999991"]
    assert checks.compare_lines("f", ref, noisy, 1e-9) == []
    assert checks.compare_lines("f", ref, ["intercept,1e-9,-0.1,0.1,0.9999999999999993"], 1e-9)
    row = [["intercept", 4.2302119736198256e-17, -0.100086658443568, 0.10008665844356808]]
    noisy = [["intercept", 4.2302119736198256e-17 + 1e-16, -0.100086658443568, 0.10008665844356808]]
    assert checks.compare_rows("coefficients", row, noisy, 1e-9) == []


def test_selection_oracle_catches_a_wrong_admissible_flag(glsn):
    wl = run.WORKLOADS["select_k12"]
    state = wl.setup(glsn, SEED, run.SMOKE_SIZES["select_k12"], None)
    selection = wl.op(glsn, state)
    rec = wl.record(selection)
    d = state["design"]
    args = (list(d.variables), d.x, d.y, run.VIF_THRESHOLD)
    assert checks.check_selection(*args, rec["table"], rec["verdict"], rec["coefficients"]) == []
    bad = copy.deepcopy(rec["table"])
    bad[-1][4] = 1 - bad[-1][4]
    assert checks.check_selection(*args, bad, rec["verdict"], rec["coefficients"])


def test_reference_files_are_gzip_json():
    for path in sorted(run.REFERENCE_DIR.glob("*.json.gz")):
        with gzip.open(path, "rt") as f:
            assert set(json.load(f)) == {"inputs"}, path
