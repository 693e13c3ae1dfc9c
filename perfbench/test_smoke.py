"""Smoke test of the benchmark itself, on tiny inputs.

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import re
from dataclasses import replace

import pytest

import run

run.use_source_tree()

import workloads  # noqa: E402
from srpicsim.sorter import SrpicEngine  # noqa: E402
from tracer import ROOT_SPAN  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SETUP = {"setup_s": 0.5, "import_s": 0.4, "load_s": 0.002}
UNPINNED_SEED = 12345


def tiny(name: str):
    wl = workloads.WORKLOADS[name]
    if name == "trace_offline":
        wl = replace(wl, packets=1500)
    else:
        wl = replace(wl, duration=0.05)
    wl.setup()
    return wl


@pytest.fixture(scope="module")
def spec() -> dict:
    return json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_metrics_named_with_units(name, spec):
    wl = tiny(name)
    plain = run.measure(wl, 1, 0.01, False, None)
    traced = run.measure(wl, 1, 0.01, True, None)
    assert plain["failed"] == traced["failed"] == 0
    for found, listed in (
        (run.end_to_end(plain, SETUP), spec["end_to_end"]),
        (run.per_layer(traced, SETUP), spec["per_layer"]),
    ):
        assert {n: u for n, (_, u) in found.items()} == {m["name"]: m["unit"] for m in listed}
        for metric, (value, unit) in found.items():
            assert NAME.fullmatch(metric) and unit
            assert isinstance(value, float) and value >= 0.0


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_self_times_fit_in_wall_time(name):
    t = run.measure(tiny(name), 1, 0.01, True, None)["tracer"]
    program = sum(ns for span, ns in t.self_ns.items() if span != ROOT_SPAN)
    assert 0 < program <= t.ns[ROOT_SPAN]


def test_wrong_digest_is_a_failed_operation():
    res = run.measure(tiny("drops_sack"), 1, 0.01, False, ["0" * 64] * workloads.POOL)
    assert res["attempted"] > workloads.POOL
    assert res["failed"] == res["attempted"]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_unpinned_seed_runs_through_invariant_checks(name, monkeypatch):
    assert run.load_pinned(name, UNPINNED_SEED) is None
    wl = tiny(name)
    assert run.measure(wl, UNPINNED_SEED, 0.01, False, None)["failed"] == 0

    # A sorter that loses one packet per cycle must fail every operation.
    end_cycle = SrpicEngine.end_cycle
    monkeypatch.setattr(SrpicEngine, "end_cycle", lambda engine: end_cycle(engine)[1:])
    res = run.measure(wl, UNPINNED_SEED, 0.01, False, None)
    assert res["failed"] == res["attempted"]
