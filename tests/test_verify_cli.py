import cmath
import functools
import hashlib
import json
import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from jacobiflow import cli, contour, flow, maps, powerseries, specfun
from jacobiflow.cli import main
from jacobiflow.report import VerifyEntry, VerifyReport
from jacobiflow.verify import run_checks
from conftest import entries, report
from test_flow import TestPnmPoly
from test_powerseries import _reference_mul_trunc
from test_specfun import _reference_jacobi, _reference_laguerre, _reference_laguerre_sum


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
        assert report(0.5, 1.0, "fast").passed, report(0.5, 1.0, "fast").format()

    def test_symmetric_suite_passes(self):
        assert report(0.0, 1.0, "fast").passed, report(0.0, 1.0, "fast").format()

    def test_level_validation(self):
        with pytest.raises(ValueError):
            run_checks(0.5, 1.0, "medium")

    @pytest.mark.parametrize("kappa,t", [(-0.99999, 0.001), (0.99999, 1.0), (0.9999999, 0.5)])
    def test_critical_point_next_to_the_pole(self, kappa, t):
        # phi's pole at |kappa| lies 1 - |kappa| from the critical point 1;
        # the difference step shrinks with that distance
        [entry] = entries("phi-critical-point", kappa, t)
        assert entry.residual < 2e-6, entry

    @pytest.mark.parametrize("kappa,t,level", [(0.5, 1.0, "fast"), (0.3, 2.0, "full")])
    def test_pnm_formula_fault_fails_by_name(self, kappa, t, level, monkeypatch):
        # C(2k+m, m) for C(2k+m-1, m): off by one in the integer formula
        def faulty(n, m):
            return flow.RationalPoly((int(m == 0),) + tuple(
                (-1) ** (m + k) * math.comb(n, k) * math.comb(2 * k + m, m)
                for k in range(1, n + 1)))

        monkeypatch.setattr(flow, "pnm_poly", functools.lru_cache(maxsize=None)(faulty))
        rep = run_checks(kappa, t, level)
        assert [e.name for e in rep.entries if not e.passed] == ["residue-oracle"]
        with pytest.raises(AssertionError):
            TestPnmPoly().test_value_at_three_is_its_definition()

    @pytest.mark.parametrize("kappa,t", [(0.5, 1.0), (-0.3, 0.01)])
    @pytest.mark.parametrize(
        "n,column,names",
        [(3, 0, ["lagrange-inversion-oracle"]), (3, 1, ["lagrange-inversion-oracle"]),
         (5, 1, ["lagrange-inversion-oracle"]), (7, 2, ["m-series-two-routes"]),
         (7, 3, ["reversion-oracle", "kzero-closed-form"])],
        ids=["a_3", "b_3", "b_5", "S_7", "S_7/7"],
    )
    def test_one_ulp_coefficient_fault_fails_by_name(self, kappa, t, n, column, names,
                                                     monkeypatch):
        # one column of one (a_n, b_n, S_n, S_n/n) row moved up by one ulp; the
        # fault reaches every kappa, so S_n/n also fails kzero-closed-form,
        # which compares the kappa = 0 series at tolerance 0
        rounded_row = flow._rounded_row

        def faulty(k, *balls):
            row = rounded_row(k, *balls)
            if k != n or row[column] is None:
                return row
            return row[:column] + (math.nextafter(row[column], math.inf),) + row[column + 1:]

        monkeypatch.setattr(flow, "_rounded_row", faulty)
        flow._table.cache_clear()
        try:
            rep = run_checks(kappa, t, "full")
        finally:
            flow._table.cache_clear()
        assert [e.name for e in rep.entries if not e.passed] == names


    @pytest.mark.parametrize("kappa,t", [(0.5, 1.0), (-0.3, 0.5)])
    @pytest.mark.parametrize("eta,names", [
        pytest.param(1e-11, ["herglotz-inverse-grid"], id="1e-11"),
        # the grid's residual is checked at 1e-11; a certificate for delta
        # would make this row fail by name and flip the xfail
        pytest.param(1e-12, None, id="1e-12", marks=pytest.mark.xfail(
            strict=True, reason="a 1e-12 fault in delta fails no entry yet")),
    ])
    def test_herglotz_delta_fault_fails_by_name(self, kappa, t, eta, names, monkeypatch):
        # delta = K - 1 scaled by 1 + eta, for every caller, the cached
        # contour kernels included
        solve = maps._herglotz_delta

        def faulty(t, y):
            return solve(t, y) * (1 + eta)

        monkeypatch.setattr(maps, "_herglotz_delta", faulty)
        monkeypatch.setattr(contour, "_herglotz_delta", faulty)
        contour._kernel_cached.cache_clear()
        try:
            rep = run_checks(kappa, t, "full")
        finally:
            contour._kernel_cached.cache_clear()
        failed = [e.name for e in rep.entries if not e.passed]
        assert failed if names is None else failed == names


class TestEntryNames:
    """The ordered entry names of run_checks, so that a check dropped or
    added shows up as a test diff."""

    LEAD = (
        "moment-expansion-constant lagrange-inversion-oracle reversion-oracle "
        "kzero-closed-form m-series-two-routes herglotz-inverse-grid herglotz-positivity "
        "herglotz-conjugate-symmetry herglotz-series-agreement herglotz-left-inverse "
        "v-deformed-values v-deformed-positivity phi-critical-point psi-chain-identity "
        "flow-roundtrip-pointwise branch-positivity-real-axis branch-polynomial-margin "
        "residue-oracle"
    ).split()

    @pytest.mark.parametrize(
        "kappa,level,count",
        [(0.5, "fast", 26), (0.5, "full", 32), (0.0, "fast", 22), (0.0, "full", 24)],
    )
    def test_ordered_names(self, kappa, level, count):
        full = level == "full"
        if kappa:
            tail = ["kernel-nonvanishing", "geometric-ratio"] * (3 if full else 1) + [
                "m-integral-vs-series", "m-integral-forms-agree", "branch-bound-estimate"]
        else:
            tail = ["mzero-closed-form"]
        want = self.LEAD + ["laguerre-generating"] * (5 if full else 3) + tail
        assert len(want) == count
        assert [e.name for e in report(kappa, 1.0, level).entries] == want


class TestUnchangedReport:
    """The term-ratio evaluators leave every verify residual where the
    term-by-term sums put it."""

    @pytest.mark.parametrize("kappa,t", [(0.44, 1.78), (0.0, 1.0)])
    def test_reference_sums_give_the_same_report(self, kappa, t, monkeypatch):
        got = report(kappa, t, "fast").to_dict()
        # k_series_coeff reads the unreduced sum behind laguerre
        references = {
            "laguerre": _reference_laguerre,
            "_laguerre_sum": _reference_laguerre_sum,
            "jacobi_poly": _reference_jacobi,
        }
        for module in (specfun, contour, maps):
            for name, ref in references.items():
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, ref)
        want = run_checks(kappa, t, "fast").to_dict()
        assert got == want

    def test_ring_loop_products_give_the_same_full_report(self, monkeypatch):
        got = run_checks(0.44, 1.78, "full").to_dict()
        monkeypatch.setattr(powerseries, "_mul_trunc", _reference_mul_trunc)
        want = run_checks(0.44, 1.78, "full").to_dict()
        assert got == want


class TestHerglotzCalls:
    def test_full_suite_batches_the_herglotz_grid(self, monkeypatch):
        # every Herglotz point of the map checks goes in one array call, and
        # so do each contour's first doubled grid and the y of the five
        # Laguerre generating checks; the points sent stay exactly those of
        # one call per point.  contour solves for delta = K - 1
        calls = []

        def counting(solve):
            def counted(t, y):
                calls.append(np.size(y))
                return solve(t, y)
            return counted

        monkeypatch.setattr(maps, "herglotz_k", counting(maps.herglotz_k))
        monkeypatch.setattr(contour, "_herglotz_delta", counting(maps._herglotz_delta))
        contour._kernel_cached.cache_clear()
        assert run_checks(0.44, 1.78, "full").passed
        contour._kernel_cached.cache_clear()
        assert len(calls) == 5
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

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--kappa", "0.5", "--t", "1"],
            ["integral", "--kappa", "0.5", "--t", "1", "--z", "0.03"],
        ],
    )
    def test_config_fills_only_defined_arguments(self, argv, tmp_path, capsys):
        # n_max fills --n, which verify and integral do not define
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n_max=abc\n")
        runs = []
        for extra in ([], ["--config", str(cfg)]):
            try:
                code = main(argv + extra)
            except SystemExit as exc:
                code = exc.code
            runs.append((code, *capsys.readouterr()))
        assert runs[0][0] == 0
        assert runs[1] == runs[0]

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


class TestCliVerify:
    def test_exit_zero_on_pass(self, capsys):
        assert main(["verify", "--kappa", "0.4", "--t", "0.8", "--level", "fast"]) == 0
        out = capsys.readouterr().out
        assert "overall" in out and "FAIL" not in out

    def test_json_format(self, capsys):
        assert main(["verify", "--kappa", "0.4", "--t", "0.8", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out) == report(0.4, 0.8, "fast").to_dict()

    def test_out_writes_the_text_report(self, tmp_path, capsys):
        path = tmp_path / "verify.txt"
        assert main(["verify", "--kappa", "0.4", "--t", "0.8", "--out", str(path)]) == 0
        assert capsys.readouterr().out == ""
        assert path.read_text(encoding="utf-8") == report(0.4, 0.8, "fast").format() + "\n"

    def test_unwritable_out(self, tmp_path, capsys):
        path = tmp_path / "missing" / "verify.json"
        assert main(["verify", "--kappa", "0.4", "--t", "0.8", "--format", "json",
                     "--out", str(path)]) == 1
        assert "cannot write" in capsys.readouterr().err

    def test_numerical_failure_exit_code(self, capsys):
        # the circle around kappa = 1e-310 has a subnormal radius
        assert main(["verify", "--kappa", "1e-310", "--t", "1"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: numerical failure: ")
        assert err.count("\n") == 1

    def test_large_time_passes(self, capsys):
        got, out, err = _run(["verify", "--kappa", "0.5", "--t", "8"], capsys)
        assert (got, err) == (0, "")
        assert out.endswith("PASS  overall: 26/26 checks passed\n")

    @pytest.mark.parametrize("t", ["8", "10", "20", "50", "700"])
    def test_large_time_ends_in_named_entries(self, t, capsys):
        # some entries still fail at large t, each by name, and nothing
        # reaches stderr: the tests turn every numpy warning into an error
        got, out, err = _run(["verify", "--kappa", "0.5", "--t", t], capsys)
        assert got in (0, 1) and err == ""
        failed = re.findall(r"^FAIL  (\S+):", out, re.M)
        assert (got == 1) == bool(failed)
        assert set(failed) <= LARGE_TIME_FAILURES | {"overall"}

    @pytest.mark.parametrize("t", ["600", "700"])
    def test_symmetric_large_time_fails_cleanly(self, t, capsys):
        # e^{ts} overflows in the kappa = 0 psi chain, whose xi is then off the disc
        got, out, err = _run(["verify", "--kappa", "0", "--t", t], capsys)
        assert (got, err) == (1, "")
        assert re.findall(r"^FAIL  (\S+):", out, re.M) == [
            "herglotz-inverse-grid", "phi-critical-point", "flow-roundtrip-pointwise", "overall"]


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

        assert data["value_re"] == pytest.approx(m_zero(1.0, 0.05).real, rel=1e-12, abs=0)

    def test_obstruction_exit_code(self, capsys):
        assert main(["integral", "--kappa", "0.9", "--t", "0.5", "--z", "0.2"]) == 2

    def test_numerical_failure_is_not_the_obstruction(self, capsys):
        # the circle around kappa = 1e-310 has a subnormal radius
        assert main(["integral", "--kappa", "1e-310", "--t", "1", "--z", "0.03"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: numerical failure: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("t", [10.0, 50.0, 300.0, 700.0])
    def test_large_time_matches_series(self, t, capsys):
        argv = ["integral", "--kappa", "0.5", "--t", repr(t), "--z", "0.03", "--format", "json"]
        got, out, err = _run(argv, capsys)
        assert (got, err) == (0, "")
        data = json.loads(out)
        want = flow.m_series_coeffs(flow.FlowParams(0.5, t), 64)(0.03)
        assert abs(complex(data["value_re"], data["value_im"]) - want) <= 1e-12 * abs(want)

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

    def test_each_t_table_built_once(self, tmp_path):
        # six t values, more than flow._t_balls keeps, at two kappas; every
        # entry is decided by a ball pass, so no exact t-table is built
        kappas, ts = ["0.2", "-0.7"], ["0.3", "2.5", "0.9", "1.7", "4", "0.6"]
        flow._table.cache_clear()
        flow._t_balls.cache_clear()
        flow._t_rows.cache_clear()
        out = tmp_path / "tables"
        assert main(["sweep", "--kappa", ",".join(kappas), "--t", ",".join(ts), "--n", "12",
                     "--out", str(out)]) == 0
        assert flow._t_balls.cache_info().misses == 6
        assert flow._t_rows.cache_info().misses == 0
        grid = [(float(k), float(t)) for k in kappas for t in ts]  # kappa-major
        manifest = json.loads((out / "manifest.json").read_text())
        assert [(e["index"], e["kappa"], e["t"], e["path"]) for e in manifest["entries"]] == [
            (i, k, t, f"table_{i:03d}.csv") for i, (k, t) in enumerate(grid)]
        assert sorted(p.name for p in out.iterdir()) == sorted(
            [f"table_{i:03d}.csv" for i in range(len(grid))] + ["manifest.json"])
        for i, (k, t) in enumerate(grid):
            assert (out / f"table_{i:03d}.csv").read_text() == cli._render_table(k, t, 12, "csv")

    def test_sweep_column_matches_coeffs(self, tmp_path, capsys):
        out = tmp_path / "tables"
        assert main(["sweep", "--kappa", "0", "--t", "1.0", "--n", "4",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["coeffs", "--kappa", "0", "--t", "1.0", "--n", "4"]) == 0
        single = capsys.readouterr().out
        assert (out / "table_000.csv").read_text() == single


# the entries verify still fails at kappa = 0.5 and t in {8, 10, 20, 50, 700}:
# phi, big_phi and psi, and the K of herglotz-inverse-grid, are formed from K
# or xi, not from delta = K - 1, and the Laguerre partial sum meets inf * 0
LARGE_TIME_FAILURES = {
    "phi-critical-point", "herglotz-inverse-grid", "flow-roundtrip-pointwise",
    "laguerre-generating",
}


def _run(argv, capsys):
    """(exit code, stdout, stderr) of one in-process CLI run."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    return (code, *capsys.readouterr())


class TestFailureClasses:
    """Every failure class a subcommand can reach ends in its exit code and
    a fixed number of stderr lines, never in a traceback."""

    USAGE = "usage: jacobiflow "

    @pytest.mark.parametrize(
        "argv,code,prefix,lines",
        [
            (["coeffs", "--kappa", "abc", "--t", "1"], 64, USAGE, 2),
            (["coeffs", "--kappa", "0.5", "--t", "1", "--n", "1.5"], 64, USAGE, 2),
            (["coeffs", "--kappa", "0.5", "--t", "1", "--format", "xml"], 64, USAGE, 2),
            (["coeffs", "--kappa", "1.5", "--t", "1"], 64, "error: kappa must lie in", 1),
            (["coeffs", "--kappa", "0.5", "--t", "1", "--n", "65"], 64,
             "error: truncation order is capped at 64", 1),
            (["coeffs", "--t", "1"], 64, "error: --kappa and --t are required", 1),
            (["coeffs", "--kappa", "0.5", "--t", "1", "--config", "{tmp}/none.cfg"], 64,
             "error: cannot read config file", 1),
            (["coeffs", "--config", "{tmp}/latin1.cfg"], 64, "error: cannot read config file", 1),
            (["coeffs", "--kappa", "0.5", "--t", "1", "--out", "{tmp}/missing/a.csv"], 1,
             "error: cannot write {tmp}/missing/a.csv: ", 1),
            (["verify", "--kappa", "0.5", "--t", "0"], 64, "error: t must be positive", 1),
            (["verify", "--kappa", "0.4", "--t", "0.8", "--out", "{tmp}/missing/v.txt"], 1,
             "error: cannot write {tmp}/missing/v.txt: ", 1),
            (["integral", "--kappa", "0.9", "--t", "0.5", "--z", "0.2", "--form", "proposition"],
             2, "error: no admissible circle", 1),
            (["verify", "--kappa", "1e-310", "--t", "1"], 3, "error: numerical failure: ", 1),
            (["integral", "--kappa", "0.5", "--t", "1", "--z", "1,1"], 64,
             "error: z must lie in the open unit disc", 1),
            (["integral", "--kappa", "0.5", "--t", "1", "--z", "0.1,0.1,0.1"], 64,
             "error: --z expects re[,im]", 1),
            (["integral", "--kappa", "0.5", "--t", "1", "--z", "0.03",
              "--out", "{tmp}/missing/i.csv"], 1, "error: cannot write {tmp}/missing/i.csv: ", 1),
            (["integral", "--kappa", "0.9", "--t", "0.5", "--z", "0.2"], 2,
             "error: no admissible circle", 1),
            (["integral", "--kappa", "1e-310", "--t", "1", "--z", "0.03"], 3,
             "error: numerical failure: ", 1),
            (["sweep", "--kappa", "0.5,x", "--t", "1", "--out", "{tmp}/s"], 64,
             "error: --kappa expects comma-separated reals", 1),
            (["sweep", "--kappa", "0.5", "--t", "1"], 64, "error: sweep needs --out", 1),
            (["sweep", "--kappa", "0.5", "--t", "1", "--n", "2", "--out", "{tmp}/file/s"], 1,
             "error: cannot write {tmp}/file/s: ", 1),
            # the radius of a circle around a tiny kappa is not a normal
            # float: numerical failures, not exit 2
            (["verify", "--kappa", "4e-308", "--t", "1"], 3, "error: numerical failure: ", 1),
            (["integral", "--kappa", "3e-308", "--t", "1", "--z", "0.03,0.01"], 3,
             "error: numerical failure: ", 1),
            (["integral", "--kappa", "3e-308", "--t", "1e-300", "--z", "0.03,0.01"], 3,
             "error: numerical failure: ", 1),
            (["verify", "--kappa", "5e-324", "--t", "1"], 3, "error: numerical failure: ", 1),
            (["integral", "--kappa", "5e-324", "--t", "1", "--z", "0.03,0.01"], 3,
             "error: numerical failure: ", 1),
            (["integral", "--kappa", "1e-323", "--t", "1", "--z", "0.03"], 3,
             "error: numerical failure: ", 1),
            # a doubling beyond the admissibility grid puts a node's kernel
            # argument outside the unit disc
            (["integral", "--kappa=-0.3513548798481762", "--t", "2.6113509658179055",
              "--z", "0.5615114504579707,-0.44298765052345496"], 3,
             "error: numerical failure: ", 1),
            (["integral", "--kappa", "0.45119595864816286", "--t", "1.6551909559023368",
              "--z", "0.6130674614296436,-0.5379044737059789"], 3,
             "error: numerical failure: ", 1),
            # --n is the table's truncation order, not a coefficient index
            (["coeffs", "--kappa", "0.5", "--t", "1", "--n", "0"], 64,
             "error: truncation order must be a positive integer", 1),
        ],
    )
    def test_exit_code_and_one_message(self, argv, code, prefix, lines, tmp_path, capsys,
                                       monkeypatch):
        monkeypatch.setenv("COLUMNS", "400")  # one usage line, whatever the terminal
        (tmp_path / "file").write_text("")
        (tmp_path / "latin1.cfg").write_bytes("kappa=0.5\nt=1\n# \u00e9\n".encode("latin-1"))
        argv = [a.format(tmp=tmp_path) for a in argv]
        got, out, err = _run(argv, capsys)
        assert (got, out) == (code, "")
        assert err.startswith(prefix.format(tmp=tmp_path)), err
        assert err.count("\n") == lines and err.endswith("\n")


class TestSeededSweep:
    """Random extreme inputs through every subcommand, in both flag forms:
    each run ends in a documented exit code, and its stderr is empty on
    exit 0 and otherwise one line; a failing verify names its entry."""

    # a verify draw takes 0.3 to 2 s (exact Laguerre sums at a tiny t), a
    # draw of any other subcommand 20 ms at most
    COMMANDS = ("coeffs", "integral", "sweep") * 6 + ("verify",)
    # |z| of the integral draws in turn: uniform over the unit disc, then
    # log-uniform in (1e-300, 1), then down to the subnormals
    Z_BANDS = (None, (1e-300, 1), (1e-320, 1e-300))

    def test_every_outcome_is_classified(self, tmp_path, capsys):
        rng = random.Random(17)
        z_moduli = []

        def log_uniform(lo, hi):
            return math.exp(rng.uniform(math.log(lo), math.log(hi)))

        for i, command in enumerate(self.COMMANDS):
            kappas = [repr(rng.choice((-1, 1)) * log_uniform(1e-300, 1 - 1e-12))
                      for _ in range(2 if command == "sweep" else 1)]
            values = {"--kappa": ",".join(kappas), "--t": repr(log_uniform(1e-300, 708.39))}
            if command == "integral":
                band = self.Z_BANDS[len(z_moduli) % len(self.Z_BANDS)]
                z_moduli.append(log_uniform(*band) if band else math.sqrt(rng.random()))
                z = cmath.rect(z_moduli[-1], rng.uniform(-math.pi, math.pi))
                values["--z"] = f"{z.real!r},{z.imag!r}"
            if command == "sweep":
                values.update({"--n": "4", "--out": str(tmp_path / str(i))})
            argv = [command]
            for flag, value in values.items():
                argv += [f"{flag}={value}"] if rng.random() < 0.5 else [flag, value]
            code, out, err = _run(argv, capsys)
            assert code in (0, 1, 2, 3, 64) and "Traceback" not in err, (argv, code, err)
            if code == 0 or (code, command) == (1, "verify"):
                assert err == "", (argv, err)
            else:
                assert err.count("\n") == 1 and err.endswith("\n"), (argv, err)
            if (code, command) == (1, "verify"):
                assert re.search(r"^FAIL  (?!overall:)\S+:", out, re.M), (argv, out)
        assert min(z_moduli) < 1e-308, z_moduli  # a subnormal z was drawn

    @pytest.mark.parametrize("kappa,t", [("0", "600"), ("1e-300", "700")])
    def test_large_time_verify_fails_by_name(self, kappa, t, capsys):
        # the far end of the sweep's t: 1 + delta rounds to 1 in the batched
        # map layer, and every FAIL line names its entry, with nothing on stderr
        code, out, err = _run(["verify", "--kappa", kappa, "--t", t], capsys)
        assert (code, err) == (1, "")
        fails = [line for line in out.splitlines() if line.startswith("FAIL")]
        assert [re.match(r"FAIL  (\S+): ", line)[1] for line in fails] == [
            "herglotz-inverse-grid", "phi-critical-point", "flow-roundtrip-pointwise", "overall"]


class TestNegativeValues:
    """argparse reads -1e-3 or -0.5,0.5 as an option of its own; after a
    flag it is that flag's value, as in --flag=-1e-3."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["coeffs", "--t", "1", "--n", "3", "--kappa", "-1e-3"],
            ["coeffs", "--kappa", "0.5", "--t", "-1e-3"],
            ["verify", "--kappa", "0.5", "--t", "-1e-3"],
            ["integral", "--kappa", "0.5", "--t", "1", "--z", "-1e-3,0.01"],
            ["sweep", "--t", "1", "--n", "2", "--out", "{tmp}", "--kappa", "-0.5,0.5"],
        ],
    )
    def test_spaced_equals_glued(self, argv, tmp_path, capsys):
        argv = [a.format(tmp=tmp_path) for a in argv]
        spaced = _run(argv, capsys)
        assert spaced == _run(argv[:-2] + ["=".join(argv[-2:])], capsys)
        assert spaced[0] == (64 if argv[-2] == "--t" else 0), spaced


class TestTinyKappa:
    @pytest.mark.parametrize("kappa", ["1e-9", "1e-12", "1e-15", "1e-34", "1e-62", "1e-300"])
    def test_verify_passes(self, kappa, capsys):
        # condition (iv)'s margin is relative to |kappa|, so a circle is
        # admitted at |kappa| <= 1e-8 too; the residue oracle integrates in
        # u = (w - kappa) / rho, so no power of w - kappa underflows
        got, out, err = _run(["verify", "--kappa", kappa, "--t", "1", "--level", "full"], capsys)
        assert (got, err) == (0, "")
        assert out.endswith("PASS  overall: 32/32 checks passed\n")

    @pytest.mark.parametrize("kappa", ["1e-34", "1e-62", "1e-200", "1e-300"])
    def test_verify_fast_passes(self, kappa, capsys):
        got, out, err = _run(["verify", "--kappa", kappa, "--t", "1"], capsys)
        assert (got, err) == (0, "")
        assert out.endswith("PASS  overall: 26/26 checks passed\n")

    @pytest.mark.parametrize("level", ["fast", "full"])
    @pytest.mark.parametrize("kappa", ["4.4e-308", "4.4501477170144028e-308", "1e-306"])
    def test_verify_next_to_the_smallest_normal_is_classified(self, kappa, level, capsys):
        # at 4.4e-308 the circle radius |kappa|/2 is subnormal, a named numerical
        # failure; from twice the least normal float, 4.4501477170144028e-308,
        # pkm_residues integrates in u on the unit circle, where no factor
        # of its integrand overflows, and verify passes
        got, out, err = _run(["verify", "--kappa", kappa, "--t", "1", "--level", level], capsys)
        if kappa == "4.4e-308":
            assert (got, out) == (3, "") and err.startswith("error: numerical failure: ")
            assert err.count("\n") == 1 and err.endswith("is not a normal float\n")
        else:
            assert (got, err) == (0, "")
            assert re.search(r"^PASS  overall: (\d+)/\1 checks passed\n\Z", out, re.M)


    @pytest.mark.parametrize("t", ["1", "1e-300"])
    def test_integral_at_kappa_1e_300(self, t, capsys):
        # kappa sits inside the proposition integrand, which stays finite
        got, out, err = _run(["integral", "--kappa", "1e-300", "--t", t, "--z", "0.03,0.01",
                              "--format", "json"], capsys)
        assert (got, err) == (0, "")
        data = json.loads(out)
        want = flow.m_series_coeffs(flow.FlowParams(1e-300, float(t)), 64)(0.03 + 0.01j)
        assert abs(complex(data["value_re"], data["value_im"]) - want) <= 1e-12 * abs(want)
        assert data["samples"] == 512


class TestOneParse:
    """A config value goes through the same argparse conversion as the flag
    it fills: same exit code, stdout and stderr, good value or bad."""

    EXTRA = {"coeffs": [], "verify": [], "integral": ["--z", "0.03"],
             "sweep": ["--out", "{dir}"]}
    FLAGS = {"kappa": "--kappa", "t": "--t", "n_max": "--n", "format": "--format"}
    GOOD = {"kappa": "0.5", "t": "1", "n_max": "3", "format": "json"}

    def _run_in(self, command, source, out, capsys):
        extra = [a.format(dir=out) for a in self.EXTRA[command]]
        code, stdout, stderr = _run([command, *source, *extra], capsys)
        files = sorted((p.name, p.read_bytes()) for p in out.iterdir()) if out.exists() else []
        return code, stdout, stderr.replace(str(out), "DIR"), files

    def _flags(self, command, values):
        return [part for key, value in values.items()
                if key != "n_max" or command in ("coeffs", "sweep")
                for part in (self.FLAGS[key], value)]

    def _config(self, tmp_path, values):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{k}={v}\n" for k, v in values.items()))
        return ["--config", str(cfg)]

    @pytest.mark.parametrize("command", ["coeffs", "verify", "integral", "sweep"])
    @pytest.mark.parametrize(
        "bad", [{}, {"kappa": "abc"}, {"n_max": "1.5"}, {"format": "xml"}]
    )
    def test_config_equals_flags(self, command, bad, tmp_path, capsys):
        values = {**self.GOOD, **bad}
        from_config = self._run_in(command, self._config(tmp_path, values),
                                   tmp_path / "config", capsys)
        from_flags = self._run_in(command, self._flags(command, values),
                                  tmp_path / "flags", capsys)
        assert from_config == from_flags
        skipped = command in ("verify", "integral") and "n_max" in bad
        assert (from_config[0] == 0) == (not bad or skipped)

    @pytest.mark.parametrize("command", ["coeffs", "verify", "integral", "sweep"])
    def test_flags_override_config(self, command, tmp_path, capsys):
        other = {"kappa": "0.3", "t": "2", "n_max": "5", "format": "csv"}
        flags = self._flags(command, self.GOOD)
        both = self._run_in(command, self._config(tmp_path, other) + flags,
                            tmp_path / "both", capsys)
        assert both[0] == 0
        assert both == self._run_in(command, flags, tmp_path / "flags", capsys)


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
    # 3.1e-18 from a 40-digit root K of xi(K) = 0.05 at t = 1
    INTEGRAL_CSV = (
        "value_re,value_im,form,radius,samples,forms_residual\n"
        "0.035471581336987933,0,closed,0,0,0\n"
    )
    INTEGRAL_JSON = (
        '{"value_re":0.035471581336987933,"value_im":0,"form":"closed",'
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
        # python -m jacobiflow from a checkout, with src/ on the path only and
        # warnings as errors, as pyproject sets them for the tests themselves
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "jacobiflow",
             "coeffs", "--kappa", "0", "--t", "1.0", "--n", "3"],
            cwd=root, env=env, capture_output=True, text=True, timeout=120,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, self.COEFFS_CSV, "")

    # 7.4e-18 from bench/reference.py's 40-digit m_value, 0.1172430845497794
    # - 0.010635895931860689i
    CONTOUR_CSV = (
        "value_re,value_im,form,radius,samples,forms_residual\n"
        "0.1172430845497794,-0.010635895931860685,corollary,0.10000000000000001,"
        "512,0\n"
    )
    CONTOUR_JSON = (
        '{"value_re":0.1172430845497794,"value_im":-0.010635895931860685,'
        '"form":"corollary","radius":0.10000000000000001,"samples":512,'
        '"forms_residual":0}\n'
    )

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_contour_stdout(self, fmt, capsys):
        # the contour path: admissibility search, doublings and both forms
        argv = ["integral", "--kappa", "0.2", "--t", "1.7", "--z", "0.7,0.1", "--format", fmt]
        assert main(argv) == 0
        assert capsys.readouterr().out == (self.CONTOUR_CSV if fmt == "csv" else self.CONTOUR_JSON)

    # z = 1e-320 is subnormal, and so are the y it maps to
    SUBNORMAL_Z_CSV = {
        "0.5": "5.5187132640467239e-321,0,corollary,0.125,512,0\n",
        "0": "7.3615781230345735e-321,0,closed,0,0,0\n",
    }

    @pytest.mark.parametrize("kappa", ["0", "0.5"])
    def test_subnormal_z(self, kappa, capsys):
        argv = ["integral", "--kappa", kappa, "--t", "1", "--z", "1e-320"]
        assert _run(argv, capsys) == (
            0, "value_re,value_im,form,radius,samples,forms_residual\n"
            + self.SUBNORMAL_Z_CSV[kappa], "")

    def test_sweep_manifest(self, tmp_path):
        out = tmp_path / "tables"
        assert main(["sweep", "--kappa", "0.0,0.5", "--t", "0.5,1.0", "--n", "2",
                     "--out", str(out)]) == 0
        assert (out / "manifest.json").read_text(encoding="utf-8") == self.MANIFEST

    # every residual, tolerance and context of the full report, bit for bit
    VERIFY_FULL_JSON_SHA256 = "ee4e6cb0c36f7a75a591617024ce5f9a7fe28d4c601e0d11c3d3694192ba4783"

    def test_verify_stdout(self, capsys):
        argv = ["verify", "--kappa", "0.5", "--t", "1", "--level", "full", "--format", "json"]
        assert main(argv) == 0
        out = capsys.readouterr().out.encode()
        assert hashlib.sha256(out).hexdigest() == self.VERIFY_FULL_JSON_SHA256

    # kappa near 1, kappa = 0, and a negative kappa at a tiny t at full, and
    # the fast grids; the ids leave
    # the digest out, so a re-pin keeps each test's name
    @pytest.mark.parametrize(
        "kappa,t,level,digest",
        [
            pytest.param("0.92", "1.12", "full",
                         "1a4c5941da63c93e9983ce0ef3d5ab1fe3c53f070828920032d5774b82f05b4d",
                         id="0.92-1.12-full"),
            pytest.param("0", "1", "full",
                         "0ffc61760493a484e872601580c0d1d44627d92d58b452c4a643f2e1c455a9bb",
                         id="0-1-full"),
            pytest.param("0.5", "1", "fast",
                         "c347063a3dd14c149cb2cc9dbd34150d8e8b4151a3d1205057992b309d3b543b",
                         id="0.5-1-fast"),
            pytest.param("-0.3", "0.01", "full",
                         "9f8e3788f81488ae395c5a5d555b77b55e6682b37053ca10505d8aee7b7ce8fe",
                         id="-0.3-0.01-full"),
        ],
    )
    def test_verify_stdout_more(self, kappa, t, level, digest, capsys):
        argv = ["verify", "--kappa", kappa, "--t", t, "--level", level, "--format", "json"]
        assert main(argv) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
