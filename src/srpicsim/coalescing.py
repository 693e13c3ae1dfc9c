"""Interrupt-coalescing receive cycles: closed form and discrete simulation.

A cycle starts when a packet lands in an empty ring buffer.  After the
hardware interrupt delay the softirq drains the ring at a fixed rate of
one packet per service quantum; packets arriving during the drain join
the same cycle.  The cycle ends at the first service completion that
finds the ring empty (an arrival landing exactly at that instant opens
the next cycle).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Sequence


class ReceiverSaturationError(ValueError):
    """Arrival rate at or above the service rate: the cycle never ends."""


@dataclass(frozen=True)
class CoalescingParams:
    """Receive-path timing constants.

    ``t_intr_us``: hardware interrupt dispatch+service delay before the
    drain starts.  ``r_sn_pps``: softirq packet service rate.
    """

    t_intr_us: float = 100.0
    r_sn_pps: float = 1e5

    def __post_init__(self):
        if self.r_sn_pps <= 0:
            raise ValueError("r_sn_pps must be > 0")
        if self.t_intr_us < 0:
            raise ValueError("t_intr_us must be >= 0")

    @property
    def quantum_us(self) -> float:
        return 1e6 / self.r_sn_pps


@dataclass(frozen=True)
class CycleRecord:
    start_time: float  # microseconds, first arrival into the empty ring
    emptying_duration: float  # microseconds spent draining
    block_packets: int


def _guarded_ceil(x: float) -> int:
    # The closed form frequently lands exactly on an integer; float rounding
    # must not bump such values to the next block.
    return math.ceil(x - 1e-9 * max(1.0, abs(x)))


def block_size_closed_form(p_rate: float, params: CoalescingParams) -> int:
    """Steady-state packets per coalescing cycle at arrival rate ``p_rate``.

    ``p_rate`` is in packets/second and must stay below the service rate,
    otherwise the sender overruns the receiver and no finite cycle exists.
    """
    if p_rate < 0:
        raise ValueError("p_rate must be >= 0")
    if p_rate >= params.r_sn_pps:
        raise ReceiverSaturationError(
            f"arrival rate {p_rate} pps >= service rate {params.r_sn_pps} pps"
        )
    t_intr_s = params.t_intr_us * 1e-6
    value = (1.0 + t_intr_s * p_rate) * params.r_sn_pps / (params.r_sn_pps - p_rate)
    return _guarded_ceil(value)


def simulate_coalescing(
    arrival_times: Sequence[float], params: CoalescingParams
) -> list[CycleRecord]:
    """Replay an arrival time series (microseconds, nondecreasing) through
    the cycle mechanics and report one record per cycle.

    Every arrival lands in exactly one cycle; the ring is unbounded
    (overflow is not modeled).
    """
    arr = list(arrival_times)
    for i in range(1, len(arr)):
        if arr[i] < arr[i - 1]:
            raise ValueError("arrival_times must be nondecreasing")
    q = params.quantum_us
    cycles: list[CycleRecord] = []
    i = 0
    n = len(arr)
    while i < n:
        start = arr[i]
        drain0 = start + params.t_intr_us
        # Completion of the k-th packet happens at drain0 + k*q.  The ring
        # after k completions holds (#arrivals < that instant) - k; jump by
        # the current ring size since it cannot empty any earlier.
        k = 1
        while True:
            avail = bisect_left(arr, drain0 + k * q, i) - i
            ring = avail - k
            if ring <= 0:
                break
            k += ring
        cycles.append(
            CycleRecord(start_time=start, emptying_duration=k * q, block_packets=k)
        )
        i += k
    return cycles


def hold_delay_bound(block_size: int, r_sn_prime: float) -> float:
    """Worst extra delay (microseconds) the sorter adds to the first packet
    of a block drained at ``r_sn_prime`` packets/second."""
    if r_sn_prime <= 0:
        raise ValueError("r_sn_prime must be > 0")
    return block_size * 1e6 / r_sn_prime
