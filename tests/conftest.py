"""Every test starts from the default degree cap, whatever the shell exports;
a test that needs another cap sets ``WQSYM_MAX_DEGREE`` itself."""

import pytest


@pytest.fixture(autouse=True)
def default_degree_cap(monkeypatch):
    monkeypatch.delenv("WQSYM_MAX_DEGREE", raising=False)
