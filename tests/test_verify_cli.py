import json

import pytest

from jacobiflow.cli import main
from jacobiflow.report import VerifyEntry, VerifyReport
from jacobiflow.verify import run_checks


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
        ],
    )
    def test_usage_errors(self, argv):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 64

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

    def test_sweep_column_matches_coeffs(self, tmp_path, capsys):
        out = tmp_path / "tables"
        assert main(["sweep", "--kappa", "0", "--t", "1.0", "--n", "4",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["coeffs", "--kappa", "0", "--t", "1.0", "--n", "4"]) == 0
        single = capsys.readouterr().out
        assert (out / "table_000.csv").read_text() == single
