import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from jacobiflow import cli, contour, maps, powerseries, specfun, verify
from jacobiflow.cli import main
from jacobiflow.report import VerifyEntry, VerifyReport
from jacobiflow.verify import run_checks
from test_powerseries import _reference_mul_trunc
from test_specfun import _reference_charlier, _reference_jacobi, _reference_laguerre


class TestReport:
    def test_entry_pass_rule(self):
        assert VerifyEntry.make("x", 1e-12, 1e-10).passed
        assert not VerifyEntry.make("x", 1e-8, 1e-10).passed

    def test_report_conjunction(self):
        rep = VerifyReport()
        rep.check("a", 0.0, 1e-10)
        assert rep.passed
        rep.check("b", 1.0, 1e-10)
        assert not rep.passed
        data = rep.to_dict()
        assert data["passed"] is False
        assert len(data["entries"]) == 2


class TestRunChecks:
    def test_fast_suite_passes(self):
        rep = run_checks(0.5, 1.0, "fast")
        assert rep.passed, rep.format()

    def test_symmetric_suite_passes(self):
        rep = run_checks(0.0, 1.0, "fast")
        assert rep.passed, rep.format()

    def test_level_validation(self):
        with pytest.raises(ValueError):
            run_checks(0.5, 1.0, "medium")


class TestUnchangedReport:
    """The term-ratio evaluators leave every verify residual where the
    term-by-term sums put it."""

    @pytest.mark.parametrize("kappa,t", [(0.44, 1.78), (0.0, 1.0)])
    def test_reference_sums_give_the_same_report(self, kappa, t, monkeypatch):
        maps._seed_poly.cache_clear()
        got = run_checks(kappa, t, "fast").to_dict()
        references = {
            "laguerre": _reference_laguerre,
            "jacobi_poly": _reference_jacobi,
            "charlier": _reference_charlier,
        }
        for module in (specfun, contour, maps, verify):
            for name, ref in references.items():
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, ref)
        maps._seed_poly.cache_clear()
        want = run_checks(kappa, t, "fast").to_dict()
        maps._seed_poly.cache_clear()
        assert got == want

    def test_ring_loop_products_give_the_same_full_report(self, monkeypatch):
        got = run_checks(0.44, 1.78, "full").to_dict()
        monkeypatch.setattr(powerseries, "_mul_trunc", _reference_mul_trunc)
        want = run_checks(0.44, 1.78, "full").to_dict()
        assert got == want


class TestHerglotzCalls:
    def test_full_suite_batches_the_herglotz_grid(self, monkeypatch):
        # the radius x angle grid and its conjugates go in one array call
        # each; the points sent stay exactly those of one call per point
        calls = []
        solve = maps.herglotz_k

        def counted(t, y):
            calls.append(np.size(y))
            return solve(t, y)

        monkeypatch.setattr(maps, "herglotz_k", counted)
        monkeypatch.setattr(contour, "herglotz_k", counted)
        contour._kernel_cached.cache_clear()
        assert run_checks(0.44, 1.78, "full").passed
        contour._kernel_cached.cache_clear()
        assert len(calls) <= 60
        assert sum(calls) == 1707


class TestCliCoeffs:
    def test_csv_output(self, capsys):
        assert main(["coeffs", "--kappa", "0.5", "--t", "1.0", "--n", "4"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().split("\n")
        assert lines[0] == "n,a_n,b_n,S_n,phi_inv,M"
        assert len(lines) == 5
        first = lines[1].split(",")
        assert first[0] == "1"
        # S_1 = b_1 and M_1 = phi_inv_1 = S_1
        assert first[2] == first[3] == first[4] == first[5]

    def test_json_schema(self, capsys):
        assert main(["coeffs", "--kappa", "0", "--t", "1.0", "--n", "3", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["version"] == 1
        assert data["params"] == {"kappa": 0.0, "t": 1.0}
        assert [r["n"] for r in data["rows"]] == [1, 2, 3]
        assert set(data["rows"][0]) == {"n", "a_n", "b_n", "S_n", "phi_inv", "M"}

    def test_deterministic_bytes(self, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for p in paths:
            assert main(["coeffs", "--kappa", "0.3", "--t", "0.5", "--n", "8",
                         "--out", str(p)]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    @pytest.mark.parametrize(
        "argv",
        [
            ["coeffs", "--kappa", "1.2", "--t", "1.0"],
            ["coeffs", "--kappa", "0.5", "--t", "-1.0"],
            ["coeffs", "--kappa", "0.5", "--t", "1.0", "--n", "65"],
            ["coeffs", "--kappa", "0.5", "--t", "1.0", "--n", "0"],
            ["coeffs", "--t", "1.0"],
            ["coeffs", "--kappa", "abc", "--t", "1.0"],
            ["coeffs", "--kappa", "0.5", "--t", "inf"],
            ["integral", "--kappa", "0.5", "--t", "inf", "--z", "0.1"],
            ["verify", "--kappa", "0.5", "--t", "inf"],
            ["sweep", "--kappa", "0.5", "--t", "inf", "--out", "unused"],
        ],
    )
    def test_usage_errors(self, argv):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 64

    @pytest.mark.parametrize(
        "argv",
        [
            ["coeffs", "--kappa", "0", "--t", "740", "--n", "40"],
            ["coeffs", "--kappa", "0.5", "--t", "800"],
            ["verify", "--kappa", "0.5", "--t", "708.3964185322642"],
            ["integral", "--kappa", "0.5", "--t", "745.2", "--z", "0.1"],
            ["integral", "--kappa", "0", "--t", "800", "--z", "0.1"],
            ["sweep", "--kappa", "0.5", "--t", "1,800", "--out", "unused"],
        ],
    )
    def test_subnormal_decay_is_a_usage_error(self, argv, capsys):
        # above t = 708.3964185322641 the binary64 e^-t is subnormal or zero
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 64
        out, errtext = capsys.readouterr()
        assert out == ""
        assert errtext.startswith("error: t must be at most 708.3964185322641")
        assert errtext.count("\n") == 1

    def test_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("kappa = 0.5\nt = 1.0\nn_max = 2\nformat = json\n")
        assert main(["coeffs", "--config", str(cfg)]) == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data["rows"]) == 2

    def test_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("kappa=0.5\nt=1.0\nn_max=2\n")
        assert main(["coeffs", "--config", str(cfg), "--n", "3"]) == 0
        out = capsys.readouterr().out
        assert len(out.strip().split("\n")) == 4

    def test_bad_config_key(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("kappa=0.5\nunknown=1\n")
        with pytest.raises(SystemExit) as err:
            main(["coeffs", "--config", str(cfg), "--t", "1.0"])
        assert err.value.code == 64

    def test_parser_built_once(self, capsys):
        # one argparse tree per process; a usage error leaves it reusable
        parser = cli._build_parser()
        with pytest.raises(SystemExit) as err:
            main(["coeffs", "--kappa", "0.5", "--t", "1.0", "--n", "x"])
        assert err.value.code == 64
        assert main(["coeffs", "--kappa", "0", "--t", "1.0", "--n", "3"]) == 0
        assert capsys.readouterr().out == TestPinnedBytes.COEFFS_CSV
        assert cli._build_parser() is parser

    @pytest.mark.parametrize(
        "extra",
        [
            ["coeffs"],
            ["verify"],
            ["integral", "--z", "0.03"],
            ["sweep", "--out", "tables"],
        ],
    )
    @pytest.mark.parametrize("value", ["xml", "CSV", ""])
    def test_bad_config_format(self, extra, value, tmp_path, capsys):
        # a config file's format is held to the same choices as --format
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"kappa=0.5\nt=1.0\nn_max=2\nformat={value}\n")
        argv = [extra[0], "--config", str(cfg)] + [
            str(tmp_path / a) if a == "tables" else a for a in extra[1:]
        ]
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "format" in captured.err
        assert not (tmp_path / "tables").exists()


@pytest.fixture(scope="module")
def fast_report():
    return run_checks(0.4, 0.8, "fast")


class TestCliVerify:
    def test_exit_zero_on_pass(self, capsys):
        assert main(["verify", "--kappa", "0.4", "--t", "0.8", "--level", "fast"]) == 0
        out = capsys.readouterr().out
        assert "overall" in out and "FAIL" not in out

    def test_json_format(self, capsys, fast_report):
        assert main(["verify", "--kappa", "0.4", "--t", "0.8", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out) == fast_report.to_dict()

    def test_out_writes_the_text_report(self, tmp_path, capsys, fast_report):
        path = tmp_path / "verify.txt"
        assert main(["verify", "--kappa", "0.4", "--t", "0.8", "--out", str(path)]) == 0
        assert capsys.readouterr().out == ""
        assert path.read_text(encoding="utf-8") == fast_report.format() + "\n"

    def test_unwritable_out(self, tmp_path, capsys):
        path = tmp_path / "missing" / "verify.json"
        assert main(["verify", "--kappa", "0.4", "--t", "0.8", "--format", "json",
                     "--out", str(path)]) == 1
        assert "cannot write" in capsys.readouterr().err

    def test_numerical_failure_exit_code(self, capsys):
        assert main(["verify", "--kappa", "0.5", "--t", "8"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: numerical failure: ")
        assert err.count("\n") == 1


class TestCliIntegral:
    def test_matches_series_value(self, capsys):
        assert main(["integral", "--kappa", "0.5", "--t", "1.0", "--z", "0.03,0.0"]) == 0
        header, row = capsys.readouterr().out.strip().split("\n")
        fields = dict(zip(header.split(","), row.split(",")))
        from jacobiflow.flow import FlowParams, m_series_coeffs

        want = m_series_coeffs(FlowParams(0.5, 1.0), 16)(0.03)
        assert float(fields["value_re"]) == pytest.approx(want, rel=1e-6)
        assert float(fields["forms_residual"]) < 1e-9

    def test_symmetric_routes_to_closed_form(self, capsys):
        assert main(["integral", "--kappa", "0", "--t", "1.0", "--z", "0.05",
                     "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["form"] == "closed"
        from jacobiflow.maps import m_zero

        assert data["value_re"] == pytest.approx(m_zero(1.0, 0.05).real, rel=1e-12)

    def test_obstruction_exit_code(self, capsys):
        assert main(["integral", "--kappa", "0.9", "--t", "0.5", "--z", "0.2"]) == 2

    def test_numerical_failure_is_not_the_obstruction(self, capsys):
        assert main(["integral", "--kappa", "0.5", "--t", "10", "--z", "0.03"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: numerical failure: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_deterministic_bytes(self, tmp_path, fmt):
        paths = [tmp_path / f"a.{fmt}", tmp_path / f"b.{fmt}"]
        for p in paths:
            assert main(["integral", "--kappa", "0.2", "--t", "1.7", "--z", "0.7,0.1",
                         "--format", fmt, "--out", str(p)]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    @pytest.mark.parametrize("z", ["nan", "0.1,nan", "nan,0.1"])
    def test_nan_point_is_a_usage_error(self, z, capsys):
        with pytest.raises(SystemExit) as err:
            main(["integral", "--kappa", "0.5", "--t", "1.0", "--z", z])
        assert err.value.code == 64
        assert capsys.readouterr().err.startswith("error: z must lie in the open unit disc")

    def test_origin_value(self, capsys):
        assert main(["integral", "--kappa", "0.5", "--t", "1.0", "--z", "0,0"]) == 0
        header, row = capsys.readouterr().out.strip().split("\n")
        fields = dict(zip(header.split(","), row.split(",")))
        assert abs(float(fields["value_re"])) < 1e-12


class TestCliSweep:
    def test_grid_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "tables"
        assert main(["sweep", "--kappa", "0.0,0.5", "--t", "0.5,1.0", "--n", "4",
                     "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["version"] == 1
        assert len(manifest["entries"]) == 4
        for entry in manifest["entries"]:
            assert (out / entry["path"]).exists()

    def test_duplicate_grid_point_warns(self, tmp_path, capsys):
        out = tmp_path / "tables"
        assert main(["sweep", "--kappa", "0.5,0.5", "--t", "1.0", "--n", "2",
                     "--out", str(out)]) == 0
        assert "duplicate" in capsys.readouterr().err
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest["entries"]) == 1

    def test_missing_out_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["sweep", "--kappa", "0.5", "--t", "1.0", "--n", "2"])
        assert err.value.code == 64
        assert "--out" in capsys.readouterr().err

    def test_sweep_column_matches_coeffs(self, tmp_path, capsys):
        out = tmp_path / "tables"
        assert main(["sweep", "--kappa", "0", "--t", "1.0", "--n", "4",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["coeffs", "--kappa", "0", "--t", "1.0", "--n", "4"]) == 0
        single = capsys.readouterr().out
        assert (out / "table_000.csv").read_text() == single


class TestPinnedBytes:
    """Exact output bytes: 17 significant digits, key order, separators."""

    COEFFS_CSV = (
        "n,a_n,b_n,S_n,phi_inv,M\n"
        "1,0.18393972058572117,0.73575888234288467,0.73575888234288467,"
        "0.73575888234288467,0.73575888234288467\n"
        "2,0.075052949888283996,2.4016943964250879,-0.54134113294645081,"
        "-0.2706705664732254,-0.54134113294645081\n"
        "3,0.042120098164957029,8.0870588476717487,0.29872241020718371,"
        "0.099574136735727903,0.29872241020718371\n"
    )
    COEFFS_JSON = (
        '{"params":{"kappa":0,"t":1},"rows":['
        '{"n":1,"a_n":0.18393972058572117,"b_n":0.73575888234288467,'
        '"S_n":0.73575888234288467,"phi_inv":0.73575888234288467,"M":0.73575888234288467},'
        '{"n":2,"a_n":0.075052949888283996,"b_n":2.4016943964250879,'
        '"S_n":-0.54134113294645081,"phi_inv":-0.2706705664732254,"M":-0.54134113294645081},'
        '{"n":3,"a_n":0.042120098164957029,"b_n":8.0870588476717487,'
        '"S_n":0.29872241020718371,"phi_inv":0.099574136735727903,"M":0.29872241020718371}'
        '],"version":1}\n'
    )
    INTEGRAL_CSV = (
        "value_re,value_im,form,radius,samples,forms_residual\n"
        "0.035471581336987898,0,closed,0,0,0\n"
    )
    INTEGRAL_JSON = (
        '{"value_re":0.035471581336987898,"value_im":0,"form":"closed",'
        '"radius":0,"samples":0,"forms_residual":0}\n'
    )
    MANIFEST = (
        '{"entries":['
        '{"index":0,"kappa":0,"t":0.5,"path":"table_000.csv"},'
        '{"index":1,"kappa":0,"t":1,"path":"table_001.csv"},'
        '{"index":2,"kappa":0.5,"t":0.5,"path":"table_002.csv"},'
        '{"index":3,"kappa":0.5,"t":1,"path":"table_003.csv"}'
        '],"n_max":2,"version":1}\n'
    )

    @pytest.mark.parametrize(
        "argv,want",
        [
            (["coeffs", "--kappa", "0", "--t", "1.0", "--n", "3"], COEFFS_CSV),
            (["coeffs", "--kappa", "0", "--t", "1.0", "--n", "3", "--format", "json"],
             COEFFS_JSON),
            (["integral", "--kappa", "0", "--t", "1.0", "--z", "0.05"], INTEGRAL_CSV),
            (["integral", "--kappa", "0", "--t", "1.0", "--z", "0.05", "--format", "json"],
             INTEGRAL_JSON),
        ],
    )
    def test_stdout(self, argv, want, capsys):
        assert main(argv) == 0
        assert capsys.readouterr().out == want

    def test_python_dash_m(self):
        # python -m jacobiflow from a checkout, with src/ on the path only
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "jacobiflow", "coeffs", "--kappa", "0", "--t", "1.0", "--n", "3"],
            cwd=root, env=env, capture_output=True, text=True, timeout=120,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, self.COEFFS_CSV, "")

    CONTOUR_CSV = (
        "value_re,value_im,form,radius,samples,forms_residual\n"
        "0.1172430845497795,-0.010635895931860682,corollary,0.10000000000000001,"
        "512,2.9642967751672169e-17\n"
    )
    CONTOUR_JSON = (
        '{"value_re":0.1172430845497795,"value_im":-0.010635895931860682,'
        '"form":"corollary","radius":0.10000000000000001,"samples":512,'
        '"forms_residual":2.9642967751672169e-17}\n'
    )

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_contour_stdout(self, fmt, capsys):
        # the contour path: admissibility search, doublings and both forms
        argv = ["integral", "--kappa", "0.2", "--t", "1.7", "--z", "0.7,0.1", "--format", fmt]
        assert main(argv) == 0
        assert capsys.readouterr().out == (self.CONTOUR_CSV if fmt == "csv" else self.CONTOUR_JSON)

    def test_sweep_manifest(self, tmp_path):
        out = tmp_path / "tables"
        assert main(["sweep", "--kappa", "0.0,0.5", "--t", "0.5,1.0", "--n", "2",
                     "--out", str(out)]) == 0
        assert (out / "manifest.json").read_text(encoding="utf-8") == self.MANIFEST
