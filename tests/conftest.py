"""Fixtures shared by the test modules."""

import pytest

import rspho.thermo


@pytest.fixture
def record_levels(monkeypatch):
    """A function that wraps thermo._level from the time it is called, and
    returns the list that then gets the n_r of each level computed."""
    def start():
        taken = []
        level = rspho.thermo._level
        monkeypatch.setattr(rspho.thermo, "_level", lambda terms, n_r, n_theta:
                            taken.append(n_r) or level(terms, n_r, n_theta))
        return taken
    return start
