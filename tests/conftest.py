import pytest

from tdcat import core


@pytest.fixture
def four_lanes(monkeypatch):
    """``core.row_blocks`` runs four lanes whatever the host's core count."""
    monkeypatch.setattr(core.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    monkeypatch.setattr(core, "_rows_pool", (None, 1, None))
