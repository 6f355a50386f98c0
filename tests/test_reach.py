"""scripts/reach.py runs each rung in its own child and reads its peak memory."""

import importlib.util
from pathlib import Path

import pytest

SPEC = importlib.util.spec_from_file_location(
    "reach", Path(__file__).resolve().parent.parent / "scripts" / "reach.py")
reach = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(reach)


def _touching(mb):
    """A stand-in for reach.rung that writes ``mb`` MB before it returns its row."""
    def rung(mode, kind, args):
        block = b"\x01" * (mb << 20)
        return {"args": list(args), "touched": len(block) >> 20}
    return rung


def test_each_rung_reports_its_own_peak_memory(monkeypatch):
    # A rung that writes 64 MB, then one that writes none: the second
    # must not read the first one's high-water mark.
    monkeypatch.setattr(reach, "rung", _touching(64))
    big = reach.measured("full", "uniform", (1,))
    monkeypatch.setattr(reach, "rung", _touching(0))
    small = reach.measured("full", "uniform", (2,))
    assert (big["touched"], small["args"]) == (64, [2])
    assert big["peak_rss_mb"] - small["peak_rss_mb"] >= 48


def test_a_rung_that_fails_stops_the_ladder(monkeypatch):
    # A child that raises exits 1 and sends no row; the ladder stops
    # with the rung named rather than print a row it does not have.
    def broken(mode, kind, args):
        raise RuntimeError("broken rung")

    monkeypatch.setattr(reach, "rung", broken)
    with pytest.raises(SystemExit, match=r"rung full uniform \(3,\) failed"):
        reach.measured("full", "uniform", (3,))
