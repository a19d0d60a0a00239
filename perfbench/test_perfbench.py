"""Tests of the benchmark's tracing: every traced name resolves, is called, and changes nothing.

    python3 -m pytest perfbench -q

A later change that renames or inlines a traced function fails here instead
of reporting zero time for it.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402  (pins BLAS to one thread before numpy is imported)
from tracing import TRACED, Tracer, TraceError, applicable, check_sites  # noqa: E402
from workloads import PIN_SEED, WORKLOADS, load_pins  # noqa: E402


def test_every_traced_name_resolves_at_every_call_site():
    assert check_sites() == []


def test_a_site_that_no_longer_calls_the_function_is_reported(monkeypatch):
    import frameattn.attention

    monkeypatch.setattr(frameattn.attention, "rotate_rows", lambda *args: None)
    assert check_sites() == ["frameattn.attention.rotate_rows is no longer frameattn.rope.rotate_rows"]
    with pytest.raises(TraceError):
        Tracer().install()


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_cycle_equals_untraced_and_calls_every_assigned_function(name, tmp_path):
    workload = WORKLOADS[name](PIN_SEED, tmp_path, load_pins(name, PIN_SEED))
    # Any positive budget runs exactly one untraced and one traced cycle.
    result = run.measure(workload, seconds=1e-9, trace=True)
    assert result["problems"] == []
    assert result["failed"] == 0
    assert [c["traced"] for c in result["cycles"]] == [False, True]
    snapshot = result["cycles"][1]["trace"]
    for spec in TRACED:
        calls = snapshot[f"{spec.name}.calls"]
        assert (calls > 0) == (name in spec.workloads), spec.name
        assert applicable(name, f"{spec.name}.self_s") == (name in spec.workloads)
    assert check_sites() == []  # wrappers removed again
