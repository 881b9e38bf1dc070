import pytest

from jacobiflow import maps


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
