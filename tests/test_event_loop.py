"""Cross-layer checks on the TCP event loop.

The loop drains the receive ring inline and keeps a single lazily queued
retransmission timer.  These tests tie both to independent references:
the offline coalescing model replayed on the loop's own arrival times, the
exact timeout schedule of a path that drops everything, and the outcome
of a run whose ACKs re-arm the timer several times at one instant (values
from the loop that queued one timeout event per arming).
"""

from pathlib import Path

import pytest

from srpicsim.channel import PathConfig
from srpicsim.coalescing import CoalescingParams, simulate_coalescing
from srpicsim.scenario import ScenarioConfig, SrpicSettings, load_scenario
from srpicsim.tcp import _StreamSim, run_transfer

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


@pytest.mark.parametrize("name", ["table4_analog.yaml", "table5_analog.yaml"])
@pytest.mark.parametrize("srpic_on", [False, True])
def test_cycle_sizes_match_offline_coalescing(name, srpic_on):
    cfg = load_scenario(str(SCENARIOS / name))
    sim = _StreamSim(cfg, 1, 0, srpic_on)
    sim.run()
    arrivals = [p.arrival_time for p in sim.arrival_trace]
    replay = simulate_coalescing(arrivals, cfg.coalescing)
    assert sim.cycle_sizes == [c.block_packets for c in replay]
    assert sum(sim.cycle_sizes) == len(sim.arrival_trace)


@pytest.mark.parametrize("srpic_on", [False, True])
def test_total_loss_timeout_schedule(srpic_on):
    # Nothing gets through: the initial window of 10 goes out at t=0 and
    # the timer fires at 0.2 s, 0.6 s and 1.4 s, doubling its backoff each
    # time; the next expiry (3.0 s) lies past the 2.2 s hard stop.
    cfg = ScenarioConfig(
        name="unit",
        duration=0.2,
        fwd=PathConfig(alpha_ms=2.5, beta=0.0, drop_rate=1.0),
        rev=PathConfig(alpha_ms=2.5, beta=0.0, drop_rate=0.0),
        coalescing=CoalescingParams(t_intr_us=120.0, r_sn_pps=3e5),
        max_cwnd=64,
        segment_spacing_us=4.0,
    )
    sim = _StreamSim(cfg, 1, 0, srpic_on)
    sim.run()
    assert sim.sender.pkts_retrans == 3
    assert sim.sender.segments_sent == 13
    assert sim.sender.rto_backoff == 8
    assert sim.now == 1.4e6


def test_rearms_at_one_instant_keep_the_first_expiry():
    # With no reverse delay, the ACKs of one sorter flush all arrive at the
    # flush instant, and each re-arms the timer to the same deadline.  The
    # expiry of the first of those armings fires, sees that snd_una moved
    # after it was armed, and restarts the timer instead of retransmitting.
    cfg = ScenarioConfig(
        name="unit",
        duration=0.3,
        fwd=PathConfig(alpha_ms=0.0, beta=0.2, drop_rate=0.02),
        rev=PathConfig(alpha_ms=0.0, beta=0.3, drop_rate=0.0),
        srpic=SrpicSettings(enabled=True, block_size=32, ringbuffer_size=32),
        coalescing=CoalescingParams(t_intr_us=0.0, r_sn_pps=1e5),
        max_cwnd=2,
        segment_spacing_us=0.5,
    )
    m = run_transfer(cfg, seed=136, srpic=True).aggregate
    assert (m.pkts_retrans, m.segments_sent, m.bytes_acked) == (1, 23, 31856)
