import filecmp
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from glsn.cli import main
from glsn.indices import country_connectivity, glsn_betweenness

from conftest import make_glsn

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

    def test_single_country_graph_has_zero_gb(self):
        g = make_glsn({"A": "XXX", "B": "XXX", "C": "XXX"}, [("A", "B"), ("B", "C")])
        assert all(v == 0.0 for v in glsn_betweenness(g, 5).values())

    def test_two_countries_one_edge(self):
        g = make_glsn({"A": "XXX", "B": "YYY"}, [("A", "B")])
        gb = glsn_betweenness(g, 5)
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


class TestReportDeterminism:
    @pytest.mark.parametrize("threads", ["1", "4"])
    def test_byte_identical_to_golden(self, tmp_path, monkeypatch, threads):
        monkeypatch.setenv("GLSN_THREADS", threads)
        assert run(["report", *REPORT_ARGS, "--out", tmp_path]) == 0
        golden_files = sorted(p.name for p in GOLDEN.iterdir())
        produced = sorted(p.name for p in tmp_path.iterdir())
        assert produced == golden_files
        match, mismatch, errors = filecmp.cmpfiles(
            tmp_path, GOLDEN, golden_files, shallow=False
        )
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
        header = lines[0].rstrip("\n").split(",")
        assert err.splitlines()[-1] == (
            f"error: {name[:-4]} line 2 {header[column]}: non-finite value 'nan'")
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
    @pytest.mark.parametrize("weighting, graphs", [("none", 1), ("cap_pairs", 2)])
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
