import math
import random

import numpy as np
import pytest

from srpicsim.coalescing import (
    CoalescingParams,
    ReceiverSaturationError,
    block_size_closed_form,
    hold_delay_bound,
    simulate_coalescing,
)

from oracles import naive_coalescing_blocks


class TestClosedForm:
    def test_idle_limit_is_one_packet(self):
        params = CoalescingParams(t_intr_us=30.0, r_sn_pps=1.2e6)
        assert block_size_closed_form(0.0, params) == 1

    def test_half_rate_no_interrupt_delay(self):
        params = CoalescingParams(t_intr_us=0.0, r_sn_pps=1e6)
        assert block_size_closed_form(5e5, params) == 2

    def test_half_rate_one_quantum_delay(self):
        # t_intr equal to one service quantum: (1 + 0.5) * 2 = 3
        params = CoalescingParams(t_intr_us=1.0, r_sn_pps=1e6)
        assert block_size_closed_form(5e5, params) == 3

    def test_saturation_rejected(self):
        params = CoalescingParams(t_intr_us=0.0, r_sn_pps=1e6)
        with pytest.raises(ReceiverSaturationError):
            block_size_closed_form(1e6, params)
        with pytest.raises(ReceiverSaturationError):
            block_size_closed_form(2e6, params)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            block_size_closed_form(-1.0, CoalescingParams())

    def test_monotone_in_rate_and_delay(self):
        params = CoalescingParams(t_intr_us=20.0, r_sn_pps=1e6)
        values = [
            block_size_closed_form(u * 1e6, params)
            for u in (0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 0.95)
        ]
        assert values == sorted(values)
        by_delay = [
            block_size_closed_form(5e5, CoalescingParams(t_intr_us=t, r_sn_pps=1e6))
            for t in (0.0, 5.0, 20.0, 80.0)
        ]
        assert by_delay == sorted(by_delay)


class TestSimulate:
    def test_sparse_arrivals_one_per_cycle(self):
        params = CoalescingParams(t_intr_us=30.0, r_sn_pps=1e6)
        arrivals = [i * 10_000.0 for i in range(20)]
        cycles = simulate_coalescing(arrivals, params)
        assert [c.block_packets for c in cycles] == [1] * 20

    def test_conservation_and_eq4(self):
        params = CoalescingParams(t_intr_us=15.0, r_sn_pps=5e5)
        rng = random.Random(3)
        arrivals = sorted(rng.uniform(0, 5_000) for _ in range(400))
        cycles = simulate_coalescing(arrivals, params)
        assert sum(c.block_packets for c in cycles) == 400
        for c in cycles:
            assert c.emptying_duration == pytest.approx(
                c.block_packets * params.quantum_us
            )

    def test_arrival_exactly_at_drain_end_opens_next_cycle(self):
        params = CoalescingParams(t_intr_us=10.0, r_sn_pps=1e6)
        # first cycle ends exactly at t_intr + quantum = 11us
        cycles = simulate_coalescing([0.0, 11.0], params)
        assert [c.block_packets for c in cycles] == [1, 1]
        assert cycles[1].start_time == 11.0
        # one tick earlier it joins the first cycle
        cycles = simulate_coalescing([0.0, 10.999], params)
        assert [c.block_packets for c in cycles] == [2]

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError):
            simulate_coalescing([5.0, 1.0], CoalescingParams())

    @pytest.mark.parametrize(
        "arrivals", [[0.0, math.inf], [0.0, math.nan, 1.0], [-math.inf, 0.0]]
    )
    def test_non_finite_rejected(self, arrivals):
        with pytest.raises(ValueError, match="finite"):
            simulate_coalescing(arrivals, CoalescingParams())

    def test_matches_naive_quantum_walk(self):
        rng = random.Random(17)
        params = CoalescingParams(t_intr_us=7.0, r_sn_pps=4e5)
        for _ in range(30):
            n = rng.randrange(1, 120)
            arrivals = sorted(rng.uniform(0, 800) for _ in range(n))
            fast = [c.block_packets for c in simulate_coalescing(arrivals, params)]
            slow = naive_coalescing_blocks(arrivals, 7.0, params.quantum_us)
            assert fast == slow
        # Equal-spaced grids with arrivals exactly on service completions,
        # where adding one quantum per service and drain start + k * quantum
        # round differently.
        for r_sn_pps, n, blocks in ((7e5, 98, [36, 36, 26]), (1.2e6, 177, [61, 60, 56])):
            params = CoalescingParams(t_intr_us=5.0, r_sn_pps=r_sn_pps)
            q = params.quantum_us
            arrivals = [i * 1.1 * q for i in range(n)]
            fast = [c.block_packets for c in simulate_coalescing(arrivals, params)]
            assert fast == naive_coalescing_blocks(arrivals, 5.0, q) == blocks

    def test_cbr_blocks_grow_with_rate(self):
        params = CoalescingParams(t_intr_us=30.0, r_sn_pps=1.2e6)
        means = []
        for util in (0.1, 0.3, 0.5, 0.7, 0.9):
            rate_per_us = util * 1.2  # packets per microsecond
            arrivals = [i / rate_per_us for i in range(30_000)]
            cycles = simulate_coalescing(arrivals, params)
            means.append(sum(c.block_packets for c in cycles) / len(cycles))
        assert all(b >= a for a, b in zip(means, means[1:]))
        assert means[0] < means[-1]

    def test_closed_form_is_exact_at_realized_cycle_rate(self):
        """Each cycle satisfies the block/rate balance identically: plugging
        the cycle's own average arrival rate (excluding the interrupt-raising
        packet) back into the closed form reproduces its block size."""
        params = CoalescingParams(t_intr_us=5.0, r_sn_pps=1e6)
        rng = np.random.default_rng(5)
        for util in (0.3, 0.7, 0.9):
            rate = util * 1.0  # per us
            gaps = rng.exponential(1.0 / rate, size=40_000)
            poisson = np.cumsum(gaps)
            cbr = np.arange(40_000) / rate
            for arrivals in (poisson, cbr):
                cycles = simulate_coalescing(arrivals.tolist(), params)
                for c in cycles[:2000]:
                    window_us = params.t_intr_us + c.emptying_duration
                    realized_pps = (c.block_packets - 1) / window_us * 1e6
                    value = (
                        (1.0 + realized_pps * 1e-6 * params.t_intr_us)
                        * params.r_sn_pps
                        / (params.r_sn_pps - realized_pps)
                    )
                    assert value == pytest.approx(c.block_packets, abs=1e-6)


class TestHoldDelayBound:
    def test_default_block(self):
        assert hold_delay_bound(32, 1e6) == pytest.approx(32.0)

    def test_zero_block(self):
        assert hold_delay_bound(0, 1e6) == 0.0

    def test_whole_ring(self):
        assert hold_delay_bound(512, 1e6) == pytest.approx(512.0)

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            hold_delay_bound(32, 0.0)
