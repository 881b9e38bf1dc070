"""The top-level namespace holds what the demos and the README import, plus
the error types and ``run_checks``; the rest lives in the submodules."""

import ast
import re
from pathlib import Path
from types import ModuleType

import jacobiflow

ROOT = Path(__file__).resolve().parent.parent

TOP_LEVEL = {
    "FlowParams", "a_coeff", "b_coeff", "s_coeff", "phi_inv_coeffs",
    "m_series_coeffs", "jacobi_moments",
    "alpha", "alpha_inv", "xi", "herglotz_k", "k_series_coeff", "m_zero",
    "phi_series", "big_phi_series", "psi", "v_deformed",
    "TruncatedSeries", "series_revert",
    "admissible_contour", "m_integral", "m_integral_detailed", "nonvanishing_check",
    "NoAdmissibleContourError", "DomainError", "ConvergenceError",
    "QuadratureError", "NonInvertibleError",
    "run_checks",
}


def _imported_from_top_level(source: str) -> set:
    return {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "jacobiflow" and not node.level
        for alias in node.names
    }


def test_top_level_names():
    public = {
        name for name, value in vars(jacobiflow).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert len(TOP_LEVEL) == 29
    assert public == TOP_LEVEL


def test_demo_and_readme_imports_are_top_level():
    used = set()
    for script in sorted((ROOT / "demos").glob("*.py")):
        used |= _imported_from_top_level(script.read_text(encoding="utf-8"))
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    for block in re.findall(r"```python\n(.*?)```", readme, re.S):
        used |= _imported_from_top_level(block)
    assert used
    assert used <= TOP_LEVEL
