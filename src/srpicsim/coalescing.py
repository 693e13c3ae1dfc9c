"""Interrupt-coalescing receive cycles: closed form and discrete simulation.

A cycle starts when a packet lands in an empty ring buffer.  After the
hardware interrupt delay the softirq drains the ring at a fixed rate of
one packet per service quantum; packets arriving during the drain join
the same cycle.  The cycle ends at the first fetch that finds the ring
empty.  ``ReceivePath`` is the one implementation: the first fetch is at
``arrival + t_intr_us + quantum_us``, each later one at the previous one
``+ quantum_us``.  A fetch comes before an arrival at the same instant, so
an arrival just as the ring empties opens the next cycle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import le
from typing import Callable, Sequence

from .config import CoalescingParams
from .packets import Packet
from .sorter import SrpicEngine

_INF = math.inf
Deliver = Callable[[Packet, float, float, object], None]  # (packet, fetched_at, now, tag)


class ReceiverSaturationError(ValueError):
    """Arrival rate at or above the service rate: the cycle never ends."""


class SimulationError(RuntimeError):
    """An internal invariant (e.g. a sorter hold-delay bound) was violated."""


@dataclass(frozen=True)
class CycleRecord:
    block_packets: int


def _guarded_ceil(x: float) -> int:
    # The closed form frequently lands exactly on an integer; float rounding
    # must not bump such values to the next block.
    return math.ceil(x - 1e-9 * max(1.0, abs(x)))


def _check_below_saturation(p_rate: float, params: CoalescingParams) -> None:
    if p_rate < 0:
        raise ValueError("p_rate must be >= 0")
    if p_rate >= params.r_sn_pps:
        raise ReceiverSaturationError(
            f"arrival rate {p_rate} pps >= service rate {params.r_sn_pps} pps"
        )


def block_size_closed_form(p_rate: float, params: CoalescingParams) -> int:
    """Steady-state packets per coalescing cycle at arrival rate ``p_rate``.

    ``p_rate`` is in packets/second and must stay below the service rate,
    otherwise the sender overruns the receiver and no finite cycle exists.
    """
    _check_below_saturation(p_rate, params)
    t_intr_s = params.t_intr_us * 1e-6
    value = (1.0 + t_intr_s * p_rate) * params.r_sn_pps / (params.r_sn_pps - p_rate)
    return _guarded_ceil(value)


def block_size_cbr(p_rate: float, params: CoalescingParams) -> int:
    """Packets per coalescing cycle for arrivals exactly ``1/p_rate`` apart.

    A cycle opens with an arrival at time 0 into the empty ring; its
    ``k``-th service completes at ``t_intr + k*q``, with ``q`` the service
    quantum, and arrivals come at ``j*g``, ``g = 1e6/p_rate`` microseconds.
    A completion comes before an arrival at the same instant, so only the
    arrivals strictly before it count: ``ceil((t_intr + k*q) / g)`` of
    them.  The ring is empty after the ``k``-th completion when that count
    is at most ``k``, that is when ``t_intr + k*q <= k*g``, or
    ``k >= t_intr / (g - q)``.  The cycle ends at the least such ``k``, and
    the next cycle opens at arrival ``k`` as this one did at arrival 0, so
    every cycle drains ``max(1, ceil(t_intr / (g - q)))`` packets.  At a
    tie, a whole quotient ``k``, arrival ``k`` comes just as the ``k``-th
    service completes and opens the next cycle; the ceiling is guarded as
    in ``block_size_closed_form``, so float rounding does not push a tie to
    ``k + 1``.  Unlike that closed form, this count carries no
    random-incidence term, which equally spaced arrivals do not realize.
    """
    _check_below_saturation(p_rate, params)
    gap_us = 1e6 / p_rate if p_rate else math.inf
    return max(1, _guarded_ceil(params.t_intr_us / (gap_us - params.quantum_us)))


class ReceivePath:
    """One FIFO receive ring, its fetch clock and an optional block sorter.

    ``arrive`` fixes a packet's fetch instant, ``cycle_end + quantum_us``
    while a cycle is open (``cycle_end > now``), else ``now + t_intr_us +
    quantum_us``; it makes it ``cycle_end``, returns it, and hands the packet
    on at once, to the engine or to ``deliver``.  The caller runs
    ``end_cycle`` at ``cycle_end`` (``inf`` while idle) before any later
    arrival: it flushes the engine and counts the cycle in ``cycles`` and
    ``cycle_packets``.  A packet fetched after ``hard_stop_us`` is not
    handed on, but it moves ``cycle_end``, so its cycle is never counted.
    A delivery is ``deliver(p, fetched_at, now, tag)``, ``now`` the fetch
    instant of its flush, ``tag`` the one the packet arrived with; holds go
    to ``max_hold_us``, checked against the one-flow block bound.  The path
    keeps ``(fetched_at, tag)`` for each packet its engine holds, and no
    more.  ``deliver`` is ``None`` only without an engine, and comes per
    call: a stored bound method of the owner would make a reference cycle.
    """

    def __init__(self, params: CoalescingParams, engine: SrpicEngine | None = None, hard_stop_us=_INF):
        self.quantum_us = params.quantum_us
        self.t_intr_us = params.t_intr_us
        self.engine = engine
        self.hard_stop_us = hard_stop_us
        self.cycle_end = _INF
        self.cycles = 0  # completed cycles
        self.cycle_packets = 0  # packets of completed cycles
        self._arrived = 0
        self.max_hold_us = 0.0
        if engine is not None:
            self._held: dict[int, tuple[float, object]] = {}  # id -> (fetched_at, tag)
            self._block_bound_us = hold_delay_bound(engine.block_size, params.r_sn_pps)

    def arrive(self, p: Packet, now: float, deliver: Deliver | None = None, tag: object = None) -> float:
        end = self.cycle_end
        end = now + self.t_intr_us + self.quantum_us if end == _INF else end + self.quantum_us
        self.cycle_end = end
        self._arrived += 1
        if deliver is None or end > self.hard_stop_us:
            return end
        # ingest/end_cycle looked up per call: tests patch them, and so do
        # perfbench's SorterAudit (its correctness check) and its tracer.
        engine = self.engine
        if engine is not None:
            self._held[id(p)] = end, tag
            emitted = engine.ingest(p)
            if emitted:
                self._release(emitted, end, deliver)
        else:
            deliver(p, end, end, tag)
        return end

    def end_cycle(self, deliver: Deliver | None = None) -> None:
        if self.engine is not None:
            self._release(self.engine.end_cycle(), self.cycle_end, deliver)
        self.cycles += 1
        self.cycle_packets = self._arrived
        self.cycle_end = _INF

    def _release(self, emitted: list[Packet], now: float, deliver: Deliver) -> None:
        for held in emitted:
            fetched_at, tag = self._held.pop(id(held))
            hold = now - fetched_at
            if hold > self._block_bound_us + 1e-6:
                raise SimulationError(f"sorter held a packet {hold:.3f}us, beyond its delay bound")
            if hold > self.max_hold_us:
                self.max_hold_us = hold
            deliver(held, fetched_at, now, tag)


def simulate_coalescing(
    arrival_times: Sequence[float], params: CoalescingParams
) -> list[CycleRecord]:
    """Replay an arrival time series (microseconds, finite, nondecreasing)
    through a ``ReceivePath`` and report one record per cycle, in order:
    the packets the cycle drained.  Every arrival lands in exactly one
    cycle; the ring is unbounded.  A cycle drains one packet per service
    quantum, so its emptying takes ``block_packets * quantum_us``.
    """
    n = len(arrival_times)
    if n and not -_INF < arrival_times[0] <= arrival_times[-1] < _INF or not all(
        map(le, arrival_times, arrival_times[1:])
    ):
        raise ValueError("arrival_times must be finite and nondecreasing")
    path = ReceivePath(params)
    arrive, end_cycle = path.arrive, path.end_cycle
    ends, end = [0], _INF  # packets of the cycles ended so far, after each
    for t in arrival_times:  # the ring gets arrival times, not packets
        if end <= t:
            end_cycle()
            ends.append(path.cycle_packets)
        end = arrive(t, t)
    ends.append(n)
    return [CycleRecord(b - a) for a, b in zip(ends, ends[1:]) if b > a]  # none if n == 0


def hold_delay_bound(block_size: int, r_sn_prime: float) -> float:
    """Worst extra delay (microseconds) the sorter adds to the first packet
    of a block drained at ``r_sn_prime`` packets/second."""
    if r_sn_prime <= 0:
        raise ValueError("r_sn_prime must be > 0")
    return block_size * 1e6 / r_sn_prime
