"""Golden CSV bytes: every shipped scenario must keep producing the same output.

Performance work on the event loop and the metrics must leave the CSV
byte-identical.  The digests below are the sha256 of
``rows_to_csv(run_scenario(cfg))`` for each ``scenarios/*.yaml`` with its
seed list cut to ``(1, 2)``; re-pin them only for a change that is meant
to alter simulated results.
"""

import hashlib
from dataclasses import replace
from pathlib import Path

import pytest

from srpicsim.scenario import load_scenario, rows_to_csv, run_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
SEEDS = (1, 2)

GOLDEN = {
    "adaptive_analog.yaml": "819bcd1cdb28882808150b70d47135740136f9f057acceb9735e3c0d4132c293",
    "inorder_baseline.yaml": "c8cf44ef29be519b672d126dcbe3e9f3906a10a7c0320ae1eb419dfa4f639c3c",
    "table4_analog.yaml": "f02385485e2b247bb5c89a378d6f156a75bd966a20c9568e679a8611e7c3c3bd",
    "table5_analog.yaml": "0d99618195a48bb3aec585311cb51745f44e5824c3ba5b51afa0881168b86ba4",
}


def test_every_shipped_scenario_is_pinned():
    assert sorted(p.name for p in SCENARIOS.glob("*.yaml")) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_csv_bytes_unchanged(name):
    cfg = replace(load_scenario(str(SCENARIOS / name)), seeds=SEEDS)
    text = rows_to_csv(run_scenario(cfg))
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN[name]
