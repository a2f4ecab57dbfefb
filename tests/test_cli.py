import contextlib
import filecmp
import hashlib
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import glsn.fork
from glsn import dataset_io
from glsn.cli import CANDIDATES, main
from glsn.fixture import generate
from glsn.indices import country_connectivity, glsn_betweenness_exact

from conftest import fork_both_passes, make_glsn, part_counts

DATA = Path(__file__).parent / "data"
FIXTURE = DATA / "fixture"
GOLDEN = DATA / "golden_report"

REPORT_ARGS = [
    "--routes", str(FIXTURE / "routes.csv"),
    "--routes-meta", str(FIXTURE / "routes_meta.csv"),
    "--ports", str(FIXTURE / "ports.csv"),
    "--countries", str(FIXTURE / "countries.csv"),
    "--bilateral", str(FIXTURE / "bilateral.csv"),
]


def run(argv):
    return main([str(a) for a in argv])


class TestGenFixture:
    def test_seed_42_defaults_regenerate_byte_identically(self, tmp_path):
        assert run(["gen-fixture", "--seed", "42", "--out", tmp_path]) == 0
        for name in ("routes.csv", "routes_meta.csv", "ports.csv",
                     "countries.csv", "bilateral.csv"):
            assert (tmp_path / name).read_bytes() == (FIXTURE / name).read_bytes(), name

    def test_different_seeds_differ(self, tmp_path):
        run(["gen-fixture", "--seed", "1", "--out", tmp_path / "a"])
        run(["gen-fixture", "--seed", "2", "--out", tmp_path / "b"])
        assert (tmp_path / "a/routes.csv").read_bytes() != (tmp_path / "b/routes.csv").read_bytes()

    def test_single_country_errors(self, tmp_path, capsys):
        assert run(["gen-fixture", "--seed", "1", "--n-countries", "1",
                    "--out", tmp_path]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, needle", [
        (["--n-routes", "-1"], "route count"),
        (["--n-ports", "2", "--n-countries", "2"], "3 ports"),
        (["--n-countries", "17577"], "three-letter codes"),
        (["--seed", "-1"], "seed"),  # the later --seed wins
        (["--n-ports", "3", "--n-countries", "4"], "one port per country"),
    ])
    def test_bad_size_exits_1_with_one_error_line(self, tmp_path, capsys, flags, needle):
        out = tmp_path / "out"
        assert run(["gen-fixture", "--seed", "1", *flags, "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert needle in err
        assert not out.exists()

    def test_seed_55_at_300_ports_keeps_its_routes(self):
        # the files that no float of numpy's exp and log reaches, so that
        # any CPU gives them; every port id a str, not a numpy one
        ds = generate(55, n_ports=300, n_routes=100, n_countries=30)
        for text, digest in [
            (dataset_io.routes_csv(ds.routes),
             "578f06b429917bb61031dc7d011027aaa5670ddecb09b55253f5f2262c50f7dd"),
            (dataset_io.routes_meta_csv(ds.routes),
             "2f66ed0fe8ae9ae70a0d2fbe719dc0f731475c48d91d3e2c70e53a76c9d39b1b"),
        ]:
            assert hashlib.sha256(text.encode()).hexdigest() == digest
        ids = [p.port_id for p in ds.ports] + [p for r in ds.routes for p in r.port_calls]
        assert {type(p) for p in ids} == {str}

    def test_two_ports_and_no_routes(self, tmp_path):
        assert run(["gen-fixture", "--seed", "1", "--n-ports", "2", "--n-countries", "2",
                    "--n-routes", "0", "--out", tmp_path]) == 0
        assert (tmp_path / "routes.csv").read_text().count("\n") == 1


class TestBuild:
    def test_fixture_stats(self, tmp_path):
        assert run(["build", *REPORT_ARGS, "--out", tmp_path]) == 0
        stats = (tmp_path / "stats.json").read_text()
        assert '"node_count": 30' in stats
        assert '"edge_count": 111' in stats

    def test_capacity_scheme_without_capacity_errors(self, tmp_path, capsys):
        # fixture routes parsed without the meta file carry no capacities
        code = run([
            "build",
            "--routes", FIXTURE / "routes.csv",
            "--ports", FIXTURE / "ports.csv",
            "--weighting", "cap_n1",
            "--out", tmp_path,
        ])
        assert code == 1
        assert "cap_n1" in capsys.readouterr().err

    def test_edges_quote_a_port_id_holding_a_comma(self, tmp_path):
        (tmp_path / "routes.csv").write_text('route_id,seq,port_id\nR1,1,"P,1"\nR1,2,P2\n')
        (tmp_path / "ports.csv").write_text('port_id,name,country_code\n"P,1",One,AAA\n'
                                            "P2,Two,AAB\n")
        assert run(["build", "--routes", tmp_path / "routes.csv",
                    "--ports", tmp_path / "ports.csv", "--out", tmp_path / "out"]) == 0
        edges = (tmp_path / "out/edges_none.csv").read_text().splitlines()
        assert [l for l in edges if not l.startswith("#")] == [
            "port_u,port_v,weight", '"P,1",P2,1.0']

    def test_inputs_saved_with_a_byte_order_mark(self, tmp_path):
        for name in ("routes.csv", "ports.csv"):
            (tmp_path / name).write_bytes(b"\xef\xbb\xbf" + (FIXTURE / name).read_bytes())
        assert run(["build", "--routes", tmp_path / "routes.csv",
                    "--ports", tmp_path / "ports.csv", "--out", tmp_path / "out"]) == 0
        assert '"node_count": 30' in (tmp_path / "out/stats.json").read_text()

    def test_empty_route_file_errors(self, tmp_path, capsys):
        empty = tmp_path / "routes.csv"
        empty.write_text("route_id,seq,port_id\n")
        code = run([
            "build",
            "--routes", empty,
            "--ports", FIXTURE / "ports.csv",
            "--out", tmp_path,
        ])
        assert code == 1
        assert "no retained routes" in capsys.readouterr().err


class TestIndices:
    def test_indices_byte_identical_across_runs_and_match_golden_data(self, tmp_path):
        assert run(["indices", *REPORT_ARGS, "--out", tmp_path / "a"]) == 0
        assert run(["indices", *REPORT_ARGS, "--out", tmp_path / "b"]) == 0
        assert (tmp_path / "a/indices.csv").read_bytes() == (tmp_path / "b/indices.csv").read_bytes()

        def rows(path):
            return [l for l in path.read_text().splitlines() if not l.startswith("#")]

        # data rows agree with the golden report (headers differ: the report
        # command hashes a wider config surface)
        assert rows(tmp_path / "a/indices.csv") == rows(GOLDEN / "indices.csv")

    def test_header_hashes_the_routes_read_from_a_pipe(self, tmp_path):
        routes = (FIXTURE / "routes.csv").read_bytes()
        env = dict(os.environ)
        src = str(Path(__file__).parent.parent / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        subprocess.run([sys.executable, "-m", "glsn.cli", "indices", "--routes", "/dev/stdin",
                        *REPORT_ARGS[2:6], "--out", str(tmp_path)],
                       input=routes, env=env, capture_output=True, check=True)
        lines = (tmp_path / "indices.csv").read_text().splitlines()
        assert f"# input stdin sha256 {hashlib.sha256(routes).hexdigest()}" in lines

    def test_input_removed_after_parsing_keeps_its_hash(self, tmp_path, monkeypatch):
        import glsn.cli

        routes = tmp_path / "routes.csv"
        routes.write_bytes((FIXTURE / "routes.csv").read_bytes())
        build = glsn.cli.build_index_table

        def removing(*args, **kwargs):
            routes.unlink()
            return build(*args, **kwargs)

        monkeypatch.setattr(glsn.cli, "build_index_table", removing)
        assert run(["indices", "--routes", routes, *REPORT_ARGS[2:6],
                    "--out", tmp_path / "out"]) == 0
        digest = hashlib.sha256((FIXTURE / "routes.csv").read_bytes()).hexdigest()
        assert f"# input routes.csv sha256 {digest}" in (
            tmp_path / "out/indices.csv").read_text().splitlines()

    def test_single_country_graph_has_zero_gb(self):
        g = make_glsn({"A": "XXX", "B": "XXX", "C": "XXX"}, [("A", "B"), ("B", "C")])
        assert all(v == 0.0 for v in glsn_betweenness_exact(g, (5,))[5].values())

    def test_two_countries_one_edge(self):
        g = make_glsn({"A": "XXX", "B": "YYY"}, [("A", "B")])
        gb = glsn_betweenness_exact(g, (5,))[5]
        gc, _ = country_connectivity(g)
        assert gb == {"XXX": 0.0, "YYY": 0.0}
        assert gc["XXX"] > 0 and gc["YYY"] > 0


class TestRegress:
    def test_four_candidates_fifteen_rows(self, tmp_path):
        assert run(["regress", *REPORT_ARGS, "--out", tmp_path]) == 0
        lines = [
            l for l in (tmp_path / "regression_report.csv").read_text().splitlines()
            if l and not l.startswith("#")
        ]
        assert len(lines) == 1 + 15  # header + subsets

    def test_planted_verdict_on_larger_fixture(self, tmp_path):
        run(["gen-fixture", "--seed", "9", "--n-countries", "20",
             "--n-ports", "80", "--n-routes", "60", "--out", tmp_path / "fix"])
        code = run([
            "regress",
            "--routes", tmp_path / "fix/routes.csv",
            "--routes-meta", tmp_path / "fix/routes_meta.csv",
            "--ports", tmp_path / "fix/ports.csv",
            "--countries", tmp_path / "fix/countries.csv",
            "--out", tmp_path / "out",
        ])
        assert code == 0
        summary = (tmp_path / "out/regress_summary.txt").read_text()
        assert "verdict: gb+gc" in summary

    def test_net_export_mode_runs(self, tmp_path):
        assert run(["regress", *REPORT_ARGS, "--dependent", "net_export",
                    "--out", tmp_path]) == 0

    @pytest.mark.parametrize("column", [2, 3], ids=["export", "import"])
    def test_net_export_excludes_a_country_missing_a_term(self, tmp_path, capsys, column):
        countries = (FIXTURE / "countries.csv").read_text().splitlines(keepends=True)
        fields = countries[1].split(",")
        fields[column] = ""
        countries[1] = ",".join(fields)
        (tmp_path / "countries.csv").write_text("".join(countries))
        args = [str(a).replace(str(FIXTURE / "countries.csv"), str(tmp_path / "countries.csv"))
                for a in REPORT_ARGS]
        assert run(["regress", *args, "--dependent", "net_export",
                    "--candidates", "gc,gb", "--out", tmp_path / "out"]) == 0
        assert "regress: 5 countries used, 1 excluded" in capsys.readouterr().err
        scatter = (tmp_path / "out/scatter.csv").read_text()
        assert "\nAAA," not in scatter and "\nAAB," in scatter

    def test_trade_change_mode_adds_tv(self, tmp_path):
        assert run(["regress", *REPORT_ARGS, "--dependent", "trade_change",
                    "--candidates", "gc,gb", "--out", tmp_path]) == 0
        summary = (tmp_path / "regress_summary.txt").read_text()
        assert "candidates: gc,gb,tv" in summary


class TestGravity:
    def test_four_variant_rows(self, tmp_path):
        assert run(["gravity", *REPORT_ARGS, "--out", tmp_path]) == 0
        lines = [
            l for l in (tmp_path / "gravity_report.csv").read_text().splitlines()
            if l and not l.startswith("#")
        ]
        assert lines[0] == "variant,adjusted_r2,aic,max_vif"
        assert [l.split(",")[0] for l in lines[1:]] == ["base", "lsbci", "gb", "lsbci_gb"]

    def test_shared_checks_run_once_for_every_variant(self, tmp_path, monkeypatch, capsys):
        # the same distances and exclusion lines as each variant on its own
        import glsn.gravity

        calls = []

        def counted(*args, _fn=glsn.gravity.great_circle_km):
            calls.append(args)
            return _fn(*args)

        # one pair with no trade and two with no lsbci, so that both kinds
        # of exclusion show
        rows = (FIXTURE / "bilateral.csv").read_text().splitlines()
        rows[1] = ",".join(rows[1].split(",")[:2] + ["0.0", "0.5"])
        rows[2] = rows[2].rsplit(",", 1)[0] + ","
        rows[3] = rows[3].rsplit(",", 1)[0] + ","
        (tmp_path / "bilateral.csv").write_text("\n".join(rows) + "\n")
        args = [str(a).replace(str(FIXTURE / "bilateral.csv"), str(tmp_path / "bilateral.csv"))
                for a in REPORT_ARGS]
        monkeypatch.setattr(glsn.gravity, "great_circle_km", counted)
        lines, distances = [], []
        for variant in ["base", "lsbci", "gb", "lsbci_gb", "gc", "lsbci_gc"]:
            assert run(["gravity", *args, "--variant", variant,
                        "--out", tmp_path / variant]) == 0
            lines += [l for l in capsys.readouterr().err.splitlines() if l.startswith("gravity ")]
            distances.append(calls[:])
            calls.clear()
        assert run(["gravity", *args, "--variant", "all", "--out", tmp_path / "all"]) == 0
        assert [l for l in capsys.readouterr().err.splitlines()
                if l.startswith("gravity ")] == lines
        assert "gravity lsbci_gc: excluded 2 pairs (missing_lsbci)" in lines
        assert calls == distances[0] and all(d == calls for d in distances)


class TestReportDeterminism:
    @pytest.mark.parametrize("workers", [1, 4])
    def test_byte_identical_to_golden(self, tmp_path, monkeypatch, workers):
        monkeypatch.setattr(glsn.fork, "worker_count", lambda: workers)
        if workers > 1:
            passes = fork_both_passes(monkeypatch)
        assert run(["report", *REPORT_ARGS, "--out", tmp_path]) == 0
        if workers > 1:
            assert passes == ([workers], [workers])
        golden_files = sorted(p.name for p in GOLDEN.iterdir())
        produced = sorted(p.name for p in tmp_path.iterdir())
        assert produced == golden_files
        match, mismatch, errors = filecmp.cmpfiles(
            tmp_path, GOLDEN, golden_files, shallow=False
        )
        assert mismatch == [] and errors == []


    def test_forked_pass_matches_one_process(self, tmp_path, monkeypatch):
        # a 300-port report with the gb/fb pass in one process, over the
        # CPUs of the mask and over three workers
        _assert_same_at_worker_counts(tmp_path, monkeypatch, ["--n-ports", "300", "--n-routes",
                                                              "100", "--n-countries", "30"])

    def test_forked_walk_matches_one_process(self, tmp_path, monkeypatch):
        # every candidate over 40 countries, so the walk's 127 fits fill two
        # whole batches and fork too; the golden fixture has 6 countries,
        # too few for 7 candidates, and 80 ports make gc_norm collinear
        walks = part_counts(monkeypatch, of="select_model.")
        _assert_same_at_worker_counts(
            tmp_path, monkeypatch, ["--n-ports", "100", "--n-routes", "40", "--n-countries", "40"],
            ["--candidates", ",".join(CANDIDATES)])
        assert walks[-1] > 1  # the three-worker run

    def test_collinear_forked_walk_is_a_data_error(self, tmp_path, monkeypatch, capfd):
        # 3 ports in each of 40 countries: gc_norm is gc / 3, exactly collinear
        data = tmp_path / "data"
        assert run(["gen-fixture", "--seed", "11", "--n-ports", "120", "--n-routes", "60",
                    "--n-countries", "40", "--out", data]) == 0
        args = [str(a).replace(str(FIXTURE), str(data)) for a in REPORT_ARGS]
        capfd.readouterr()
        walks = part_counts(monkeypatch, of="select_model.")
        errors = []
        for workers in [1, glsn.fork.worker_count(), 3]:
            monkeypatch.setattr(glsn.fork, "worker_count", lambda w=workers: w)
            assert run(["report", *args, "--candidates", ",".join(CANDIDATES),
                        "--out", tmp_path / str(workers)]) == 1
            err = capfd.readouterr().err
            assert "Traceback" not in err
            errors.append(err.splitlines()[-1])
        assert errors == [
            "error: design matrix is rank deficient (exactly collinear columns)"] * 3
        assert walks[-1] > 1  # the three-worker run


def _assert_same_at_worker_counts(tmp_path, monkeypatch, fixture_args, report_args=()):
    """`report` on a generated fixture gives the same bytes with one worker,
    the default count and three, each forced through `fork.worker_count`."""
    data = tmp_path / "data"
    assert run(["gen-fixture", "--seed", "11", *fixture_args, "--out", data]) == 0
    args = [str(a).replace(str(FIXTURE), str(data)) for a in REPORT_ARGS]
    worker_count = glsn.fork.worker_count
    for name, workers in [("one", lambda: 1), ("default", worker_count), ("three", lambda: 3)]:
        monkeypatch.setattr(glsn.fork, "worker_count", workers)
        assert run(["report", *args, *report_args, "--out", tmp_path / name]) == 0
    names = sorted(p.name for p in (tmp_path / "one").iterdir())
    for name in ["default", "three"]:
        assert sorted(p.name for p in (tmp_path / name).iterdir()) == names
        _, mismatch, errors = filecmp.cmpfiles(tmp_path / "one", tmp_path / name, names,
                                               shallow=False)
        assert mismatch == [] and errors == []


def _without_input_hashes(path):
    return [l for l in path.read_bytes().splitlines() if not l.startswith(b"# input ")]


class TestRowOrder:
    @settings(max_examples=10, deadline=None)
    @given(st.data())
    def test_report_ignores_row_order(self, data):
        # ports, countries, bilateral pairs and route capacities are keyed
        # rows, so their order is no input: only the input hashes may change
        with tempfile.TemporaryDirectory() as tmp:
            inputs, out = Path(tmp) / "in", Path(tmp) / "out"
            inputs.mkdir()
            for name in ("ports.csv", "countries.csv", "bilateral.csv", "routes_meta.csv"):
                head, *rows = (FIXTURE / name).read_text().splitlines(keepends=True)
                rows = data.draw(st.permutations(rows), label=name)
                (inputs / name).write_text(head + "".join(rows))
            (inputs / "routes.csv").write_bytes((FIXTURE / "routes.csv").read_bytes())
            args = [str(a).replace(str(FIXTURE), str(inputs)) for a in REPORT_ARGS]
            assert run(["report", *args, "--out", out]) == 0
            golden = sorted(p.name for p in GOLDEN.iterdir())
            assert sorted(p.name for p in out.iterdir()) == golden
            for name in golden:
                assert _without_input_hashes(out / name) == _without_input_hashes(GOLDEN / name)


class TestTruncatedRow:
    @pytest.mark.parametrize("name", [
        "routes.csv", "routes_meta.csv", "ports.csv", "countries.csv", "bilateral.csv",
    ])
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_report_exits_1_with_one_error_line(self, name, data):
        # a row cut short by at least one field, anywhere in any CSV input,
        # is malformed: the run names it in one error line and writes nothing
        with tempfile.TemporaryDirectory() as tmp:
            inputs, out = Path(tmp) / "in", Path(tmp) / "out"
            inputs.mkdir()
            for f in FIXTURE.iterdir():
                (inputs / f.name).write_bytes(f.read_bytes())
            head, *rows = (FIXTURE / name).read_text().splitlines(keepends=True)
            i = data.draw(st.integers(0, len(rows) - 1), label="row")
            fields = rows[i].rstrip("\n").split(",")
            kept = data.draw(st.integers(1, len(fields) - 1), label="fields kept")
            rows[i] = ",".join(fields[:kept]) + "\n"
            (inputs / name).write_text(head + "".join(rows))
            args = [str(a).replace(str(FIXTURE), str(inputs)) for a in REPORT_ARGS]
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                assert run(["report", *args, "--out", out]) == 1
            lines = err.getvalue().splitlines()
            assert [l for l in lines if l.startswith("error: ")] == lines[-1:], lines
            assert f"line {i + 2}" in lines[-1]
            assert not out.exists()


_FIELD_VALUES = [b"nan", b"inf", b"1e309", b"", b'"', b"\xff\xfe"]
_EDITS = ["replace", "drop", "duplicate", "truncate", "add"]


class TestEditedInputs:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_report_exits_0_or_with_one_error_line(self, data):
        # one to three edits anywhere in the golden inputs, headers included:
        # a field replaced, a line dropped, duplicated or cut short, or a
        # field added; a run that fails ends in one error line, no traceback
        files = {f.name: f.read_bytes().splitlines(keepends=True) for f in FIXTURE.iterdir()}
        for _ in range(data.draw(st.integers(1, 3), label="edits")):
            name = data.draw(st.sampled_from(sorted(n for n in files if files[n])), label="file")
            lines = files[name]
            i = data.draw(st.integers(0, len(lines) - 1), label="line")
            edit = data.draw(st.sampled_from(_EDITS), label="edit")
            if edit == "drop":
                del lines[i]
            elif edit == "duplicate":
                lines.insert(i, lines[i])
            else:
                line = lines[i].rstrip(b"\n")
                if edit == "replace":
                    fields = line.split(b",")
                    j = data.draw(st.integers(0, len(fields) - 1), label="field")
                    fields[j] = data.draw(st.sampled_from(_FIELD_VALUES), label="value")
                    line = b",".join(fields)
                elif edit == "truncate":
                    line = line[:data.draw(st.integers(0, max(0, len(line) - 1)), label="cut")]
                else:
                    line += b",1"
                lines[i] = line + b"\n"
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            inputs = Path(tmp) / "in"
            inputs.mkdir()
            for name, lines in files.items():
                (inputs / name).write_bytes(b"".join(lines))
            mp.setattr(glsn.fork, "worker_count", lambda: 1)
            args = [str(a).replace(str(FIXTURE), str(inputs)) for a in REPORT_ARGS]
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = run(["report", *args, "--out", Path(tmp) / "out"])
        assert code in (0, 1)
        if code == 1:
            lines = err.getvalue().splitlines()
            assert [l for l in lines if l.startswith("error: ")] == lines[-1:], lines
            assert "Traceback" not in err.getvalue()


class TestRunChecks:
    @pytest.mark.parametrize("flags, needle", [
        (["--variant", "bogus"], "bogus"),
        (["--lmax", "abc"], "'abc'"),
        (["--lmax", "2,,3"], "'2,,3'"),
        (["--lmax", "7"], "'7'"),
        (["--lmax", "1"], "'1'"),
        (["--candidates", "gc,nosuch"], "nosuch"),
        (["--candidates", ","], "--candidates"),
        (["--candidates", "gc,gc"], "--candidates"),
        (["--vif-threshold", "1"], "--vif-threshold"),
        (["--coverage", "2"], "--coverage"),
        (["--lmax", "2,2"], "'2,2'"),
    ])
    def test_bad_flag_exits_1_before_any_work(self, tmp_path, capsys, flags, needle):
        out = tmp_path / "out"
        assert run(["report", *REPORT_ARGS, *flags, "--out", out]) == 1
        err = capsys.readouterr().err
        # the error is the only line: no input was read
        assert err.startswith("error: ") and err.count("\n") == 1
        assert needle in err
        assert not out.exists()

    @pytest.mark.parametrize("name, content, needle", [
        ("absent.csv", None, "cannot read"),
        ("routes.csv", b"route_id,seq,port_id\nR1,1,P\xff\n", "not UTF-8"),
        ("routes.json", b'[{"route_id": "R1",', "malformed"),
        ("routes.json", b'[{"route_id": "R1", "capacity_teu": "big", "ports": ["A", "B"]}]',
         "bad capacity"),
    ])
    def test_bad_input_file_exits_1(self, tmp_path, capsys, name, content, needle):
        routes = tmp_path / name
        if content is not None:
            routes.write_bytes(content)
        out = tmp_path / "out"
        assert run(["build", "--routes", routes, "--ports", FIXTURE / "ports.csv",
                    "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and needle in err
        assert not out.exists()

    @pytest.mark.parametrize("name, column", [("bilateral.csv", 2), ("countries.csv", 5)])
    def test_non_finite_input_value_exits_1_before_any_work(self, tmp_path, capsys,
                                                             name, column):
        data = tmp_path / "data"
        data.mkdir()
        for f in FIXTURE.iterdir():
            (data / f.name).write_bytes(f.read_bytes())
        lines = (data / name).read_text().splitlines(keepends=True)
        fields = lines[1].split(",")
        fields[column] = "nan"
        lines[1] = ",".join(fields)
        (data / name).write_text("".join(lines))
        out = tmp_path / "out"
        args = [str(a).replace(str(FIXTURE), str(data)) for a in REPORT_ARGS]
        assert run(["report", *args, "--out", out]) == 1
        err = capsys.readouterr().err
        # the record names column 2, btv_usd, by its meaning; column 5 is lsci
        needle = {"bilateral.csv": "bilateral pair (AAA, AAB): non-finite trade value",
                  "countries.csv": "country 'AAA': non-finite lsci"}[name]
        assert err.splitlines()[-1] == f"error: {name[:-4]} line 2: {needle}"
        assert not out.exists()

    @pytest.mark.parametrize("command, name", [
        ("regress", "countries.csv"), ("gravity", "bilateral.csv"),
    ])
    def test_header_only_input_exits_1_naming_the_file(self, tmp_path, capsys,
                                                       command, name):
        empty = tmp_path / name
        empty.write_text((FIXTURE / name).read_text().splitlines()[0] + "\n")
        args = [str(a).replace(str(FIXTURE / name), str(empty)) for a in REPORT_ARGS]
        out = tmp_path / "out"
        assert run([command, *args, "--out", out]) == 1
        assert capsys.readouterr().err.splitlines()[-1] == f"error: {empty}: no data rows"
        assert not out.exists()

    def test_misspelled_column_exits_1_naming_it(self, tmp_path, capsys):
        countries = tmp_path / "countries.csv"
        countries.write_text((FIXTURE / "countries.csv").read_text().replace("gdp_usd", "gdp", 1))
        args = [str(a).replace(str(FIXTURE / "countries.csv"), str(countries))
                for a in REPORT_ARGS]
        out = tmp_path / "out"
        assert run(["regress", *args, "--out", out]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines()[-1].startswith("error: countries: unknown columns ['gdp']")
        assert not out.exists()

    def test_out_naming_a_file_exits_1(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.write_text("keep\n")
        assert run(["build", "--routes", FIXTURE / "routes.csv",
                    "--ports", FIXTURE / "ports.csv", "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.count("error: ") == 1
        assert err.splitlines()[-1].startswith("error: cannot create --out")
        assert out.read_text() == "keep\n"

    def test_unwritable_output_exits_1(self, tmp_path, capsys):
        (tmp_path / "stats.json").mkdir()
        assert run(["build", "--routes", FIXTURE / "routes.csv",
                    "--ports", FIXTURE / "ports.csv", "--out", tmp_path]) == 1
        err = capsys.readouterr().err
        assert err.count("error: ") == 1
        assert err.splitlines()[-1].startswith("error: cannot write")
        assert "stats.json" in err

    def test_perfect_fit_writes_negative_infinite_aic(self, tmp_path):
        # tv is the trade value itself, so the fit of trade on tv has RSS 0
        assert run(["regress", *REPORT_ARGS, "--candidates", "tv", "--out", tmp_path]) == 0
        rows = (tmp_path / "regression_report.csv").read_text().splitlines()
        assert rows[-1] == "tv,1.0,-inf,1.0,1"

    def test_gravity_without_bilateral_exits_1_before_any_work(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(["gravity", *REPORT_ARGS[:-2], "--out", out]) == 1
        assert capsys.readouterr().err == "error: --bilateral is required for gravity\n"
        assert not out.exists()

    def test_routes_meta_with_json_routes_exits_1_before_any_work(self, tmp_path, capsys):
        routes = tmp_path / "routes.json"
        routes.write_text('[{"route_id": "R1", "ports": ["P000", "P001"]}]')
        out = tmp_path / "out"
        assert run(["build", "--routes", routes,
                    "--routes-meta", FIXTURE / "routes_meta.csv",
                    "--ports", FIXTURE / "ports.csv", "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "--routes-meta" in err
        assert not out.exists()


class TestSinglePass:
    @pytest.mark.parametrize("weighting, graphs", [("none", 1), ("cap_pairs", 1)])
    def test_report_computes_each_stage_once(self, tmp_path, capsys, monkeypatch,
                                             weighting, graphs):
        import glsn.cli

        calls = {"validate_dataset": 0, "build_index_table": 0, "build_glsn": 0}
        for name in calls:
            def counted(*args, _fn=getattr(glsn.cli, name), _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(glsn.cli, name, counted)
        assert run(["report", *REPORT_ARGS, "--weighting", weighting,
                    "--out", tmp_path]) == 0
        assert calls == {"validate_dataset": 1, "build_index_table": 1, "build_glsn": graphs}
        assert capsys.readouterr().err.count("retained routes") == 1


def test_cli_import_loads_no_scipy():
    """glsn needs only numpy at run time; scipy serves the tests as an oracle."""
    env = dict(os.environ)
    src = str(Path(__file__).parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys, glsn.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"
