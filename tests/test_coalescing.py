import math
import random

import numpy as np
import pytest

from srpicsim.coalescing import (
    CoalescingParams,
    ReceivePath,
    ReceiverSaturationError,
    SimulationError,
    block_size_cbr,
    block_size_closed_form,
    hold_delay_bound,
    simulate_coalescing,
)
from srpicsim.packets import FlowKey, Packet
from srpicsim.sorter import SrpicEngine

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


def _cbr_cycle_sizes(p_rate, params, cycles):
    """Cycle sizes of ``simulate_coalescing`` over arrivals every
    ``1/p_rate``, spaced as acceptance criterion 3b spaces them, enough for
    ``cycles`` cycles of ``block_size_cbr`` packets and one more packet."""
    n = cycles * block_size_cbr(p_rate, params) + 1
    rate = p_rate / 1e6  # packets per microsecond
    return [c.block_packets for c in simulate_coalescing([i / rate for i in range(n)], params)]


class TestCbrBlockSize:
    """``block_size_cbr`` is the exact cycle size for equally spaced
    arrivals: every cycle that the arrivals fill drains that many."""

    def test_criterion_3_grid(self):
        params = CoalescingParams(t_intr_us=5.0, r_sn_pps=1e6)
        utils = (0.1, 0.3, 0.5, 0.7, 0.9)
        assert [block_size_cbr(u * 1e6, params) for u in utils] == [1, 3, 5, 12, 45]
        for u in utils:
            sizes = _cbr_cycle_sizes(u * 1e6, params, 20)
            assert set(sizes[:-1]) == {block_size_cbr(u * 1e6, params)}

    @pytest.mark.parametrize(
        "t_intr, p_rate, r_sn, k",
        [
            # t_intr / (1/p - 1/r_sn) is a whole number: arrival k lands just
            # as the k-th service completes, and opens the next cycle.
            (5.0, 5e5, 1e6, 5),
            (2.0, 5e5, 1e6, 2),
            (8.0, 5e5, 1e6, 8),
            (4.0, 1e6 / 3, 1e6, 2),
            (12.0, 1.25e5, 5e5, 2),
            (1.0, 7.5e5, 1e6, 3),
            (5.0, 7.5e5, 1e6, 15),
            (30.0, 7.5e5, 1e6, 90),
            # No tie: one past the whole number, and the floor of one.
            (5.0, 4e5, 1e6, 4),
            (3.0, 2e5, 1e6, 1),
            (0.0, 5e5, 1e6, 1),
        ],
    )
    def test_exact_including_ties(self, t_intr, p_rate, r_sn, k):
        params = CoalescingParams(t_intr_us=t_intr, r_sn_pps=r_sn)
        assert block_size_cbr(p_rate, params) == k
        sizes = _cbr_cycle_sizes(p_rate, params, 4)
        assert sizes[:-1] == [k] * 4 and sizes[-1] == 1

    def test_matches_simulation_on_random_cases(self):
        rng = random.Random(2024)
        for _ in range(300):
            params = CoalescingParams(
                t_intr_us=rng.choice([0.0, 1.0, 5.0, 100.0, rng.uniform(0, 200)]),
                r_sn_pps=rng.choice([1e5, 1e6, rng.uniform(5e4, 2e6)]),
            )
            u = rng.choice([0.25, 0.5, 0.75, rng.uniform(0.01, 0.95)])
            p_rate = u * params.r_sn_pps
            k = block_size_cbr(p_rate, params)
            if k > 2000:
                continue
            sizes = _cbr_cycle_sizes(p_rate, params, 3)
            assert sizes[:-1] == [k] * 3, (params, p_rate)

    def test_idle_and_saturation(self):
        params = CoalescingParams(t_intr_us=30.0, r_sn_pps=1e6)
        assert block_size_cbr(0.0, params) == 1
        for p_rate in (1e6, 2e6):
            with pytest.raises(ReceiverSaturationError):
                block_size_cbr(p_rate, params)
        with pytest.raises(ValueError):
            block_size_cbr(-1.0, params)


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

    def test_arrival_exactly_at_drain_end_opens_next_cycle(self):
        params = CoalescingParams(t_intr_us=10.0, r_sn_pps=1e6)
        # first cycle ends exactly at t_intr + quantum = 11us
        cycles = simulate_coalescing([0.0, 11.0], params)
        assert [c.block_packets for c in cycles] == [1, 1]
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
                    window_us = params.t_intr_us + c.block_packets * params.quantum_us
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


class TestHoldBoundCheck:
    def test_hold_beyond_the_block_bound_raises(self):
        # The path takes its bound, one block of 1 packet at 10 us a
        # packet, from the engine it is built with.  A block of 100 then
        # holds the cycle's first packet from its fetch at 20 us until the
        # cycle ends at the last fetch, 40 us, twice the bound.
        engine = SrpicEngine(1, 512)
        path = ReceivePath(CoalescingParams(10.0, 1e5), engine)
        engine.block_size = 100
        flow = FlowKey(1, 2, 3, 4)
        deliver = lambda p, fetched_at, now, tag: None  # noqa: E731
        fetches = [path.arrive(Packet(flow, 100 * i, 100, send_index=i), 0.0, deliver) for i in range(3)]
        assert fetches == [20.0, 30.0, 40.0] and path.cycle_end == 40.0
        with pytest.raises(SimulationError, match=r"held a packet 20\.000us"):
            path.end_cycle(deliver)
