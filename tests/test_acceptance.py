"""Acceptance criteria for the package, one test per criterion.

Each test prints a single pass/fail line with the measured residual and the
pinned tolerance (run pytest with -s to see them), then asserts.  Where a
criterion is a named check of ``jacobiflow.verify``, its line reports the
worst entry of that check over the criterion's (kappa, t) grid.
"""

from fractions import Fraction

import numpy as np
import pytest

from jacobiflow import cli, contour, flow, maps
from conftest import entries

KAPPAS = (0.3, 0.5, 0.7)
TIMES = (0.5, 1.0, 2.5)
GRID = [(kap, t) for kap in KAPPAS for t in TIMES]
POINTS = (0.02, 0.03 + 0.01j, 0.05)


def _report(name, residual, tolerance, detail=""):
    ok = residual <= tolerance
    line = f"{'PASS' if ok else 'FAIL'} {name}: residual={residual:.3e} tolerance={tolerance:.1e}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def _worst(name, grid, level="full"):
    """The largest residual of the verify entries called name over grid."""
    return max(e.residual for kap, t in grid for e in entries(name, kap, t, level))


@pytest.fixture(scope="module")
def integral_runs():
    """Both forms of the contour integral at every point of criterion 9."""
    return [contour.m_integral_detailed(flow.FlowParams(kap, t), z) for kap, t in GRID for z in POINTS]


def test_criterion_01_symmetric_closed_form():
    _report("criterion-01 symmetric-closed-form", _worst("kzero-closed-form", GRID), 0.0,
            "inverted-flow coefficients vs Herglotz coefficients, n <= 16")


def test_criterion_02_reversion_oracle():
    _report("criterion-02 reversion-oracle", _worst("reversion-oracle", GRID), 0.0,
            "closed coefficients vs Newton reversion of the map series, n <= 12")


def test_criterion_03_residue_oracle():
    worst = _worst("residue-oracle", [(kap, 1.0) for kap in (0.3, 0.6, 0.9)])
    _report("criterion-03 residue-oracle", worst, 1e-10,
            "quadrature vs exact polynomials, k <= 12, m <= 8")


def test_criterion_04_integral_vs_series():
    _report("criterion-04a integral-vs-series", _worst("m-integral-vs-series", GRID), 1e-6,
            "corollary form vs 16-term series at three points per (kappa, t)")
    _report("criterion-04b integral-forms-agree", _worst("m-integral-forms-agree", GRID), 1e-9)


def test_criterion_05_generating_identities():
    checks = contour.laguerre_gen_checks(
        [(m, y, 120, 1e-8) for m in range(0, 5) for y in (0.3, -0.25, 0.2 + 0.2j)], 1.0)
    checks += contour.laguerre_gen_checks([(m, 0.3, 120, 1e-8) for m in range(0, 5)], 2.5)
    worst = max(entry.residual for entry in checks)
    _report("criterion-05a laguerre-generating", worst, 1e-8, "m <= 4, |y| <= 0.3, 120 terms")

    worst = 0.0
    for j in range(1, 5):
        for z, w in ((0.2, 0.6), (0.15, 0.5 + 0.1j), (0.1, 0.3 + 0.3j)):
            worst = max(worst, contour.jacobi_gen_check(j, z, w, n_terms=150).residual)
    _report("criterion-05b jacobi-generating", worst, 1e-8, "j <= 4, |z| <= 0.2, 150 terms")


def test_criterion_06_exact_combinatorics():
    import random

    rng = random.Random(2024)
    seq = [Fraction(rng.randint(-50, 50), rng.randint(1, 11)) for _ in range(30)]
    back = flow.inv_binom_transform(flow.binom_transform(seq))
    worst = max(abs(a - b) for a, b in zip(back, seq))
    forms = sum(flow.invrel_weight(n, k) != flow.invrel_weight_split(n, k)
                for n in range(1, 31) for k in range(n + 1))
    _report("criterion-06 exact-combinatorics", float(worst) + forms, 0.0,
            "transform round-trip, length 30; both weight forms agree")


def test_criterion_07_map_inversion():
    worst = 0.0
    origin = 0.0
    for t in TIMES:
        origin = max(origin, abs(maps.herglotz_k(t, 0.0) - 1.0))
        for r in (0.1, 0.3, 0.5, 0.7, 0.8, 0.9):
            for ang in np.linspace(0, 2 * np.pi, 8, endpoint=False):
                y = r * np.exp(1j * ang)
                worst = max(worst, abs(maps.xi(t, maps.herglotz_k(t, complex(y))) - y))
    _report("criterion-07 map-inversion", max(worst, origin), 1e-11,
            "xi(K(y)) = y on radial grid |y| <= 0.9, and K(0) = 1")


def test_criterion_08_moment_expansion():
    worst = 0
    for kap in (Fraction(0), Fraction(1, 3), Fraction(-3, 5), Fraction(7, 10)):
        p = flow.FlowParams(kap, 1.0)
        out = flow.jacobi_moments([Fraction(1)] * 16, p, 16)
        worst = max(worst, max(abs(m - (1 + kap) / 2) for m in out))
    _report("criterion-08 moment-expansion", float(worst), 0.0,
            "constant unitary moments collapse to (1+kappa)/2, rational mode")


def test_criterion_09_kernel_nonvanishing(integral_runs):
    floor = min(res.min_kernel_denominator for res in integral_runs)
    _report("criterion-09 kernel-nonvanishing", max(0.0, 1e-6 - floor), 0.0,
            f"min |t K^2 + (2-t)| over all quadrature nodes = {floor:.3f}")


def test_criterion_10_sweep_determinism(tmp_path):
    args = ["sweep", "--kappa", "0.0,0.5", "--t", "0.5,1.0", "--n", "8"]
    out1, out2 = tmp_path / "first", tmp_path / "second"
    for out in (out1, out2):
        assert cli.main(args + ["--out", str(out)]) == 0
    names = sorted(p.name for p in out1.iterdir())
    assert names == sorted(p.name for p in out2.iterdir())
    differing = sum(
        (out1 / name).read_bytes() != (out2 / name).read_bytes() for name in names
    )
    _report("criterion-10 sweep-determinism", float(differing), 0.0,
            f"{len(names)} files byte-identical across two runs")
