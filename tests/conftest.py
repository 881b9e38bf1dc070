from functools import lru_cache

import pytest

from jacobiflow import maps
from jacobiflow.verify import run_checks


@lru_cache(maxsize=None)
def report(kappa: float, t: float, level: str):
    """run_checks(kappa, t, level), computed once per session; read-only.
    Each named check is defined once, in jacobiflow.verify, and the tests
    assert its entries over their own (kappa, t) grid."""
    return run_checks(kappa, t, level)


def entries(name: str, kappa: float, t: float, level: str = "fast") -> list:
    """The entries called ``name`` of report(kappa, t, level); at least one."""
    found = [e for e in report(kappa, t, level).entries if e.name == name]
    assert found, f"no {name} entry at kappa={kappa} t={t} level={level}"
    return found


def assert_entries(name: str, kappa: float, t: float, level: str = "fast"):
    for entry in entries(name, kappa, t, level):
        assert entry.passed, entry.format_line()


@pytest.fixture
def count_solves(monkeypatch):
    """Record each ``maps._newton_solve`` call as (batch size, iterations)."""
    calls = []
    solve = maps._newton_solve

    def counting(t, seeds, targets):
        out = solve(t, seeds, targets)
        calls.append((len(targets), out[3]))
        return out

    monkeypatch.setattr(maps, "_newton_solve", counting)
    return calls
