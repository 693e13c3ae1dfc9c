"""Interrupt-coalescing receive cycles: closed form and discrete simulation.

A cycle starts when a packet lands in an empty ring buffer.  After the
hardware interrupt delay the softirq drains the ring at a fixed rate of
one packet per service quantum; packets arriving during the drain join
the same cycle.  The cycle ends at the first service completion that
finds the ring empty.  ``ReceivePath`` is the one implementation: the first
completion is at ``arrival + t_intr_us + quantum_us``, each later one at the
previous one ``+ quantum_us``.  A completion comes before an arrival at the
same instant, so an arrival just as the ring empties opens the next cycle.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Callable, Sequence

from .packets import Packet
from .sorter import SrpicEngine


class ReceiverSaturationError(ValueError):
    """Arrival rate at or above the service rate: the cycle never ends."""


class SimulationError(RuntimeError):
    """An internal invariant (e.g. a sorter hold-delay bound) was violated."""


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
        if not math.isfinite(self.t_intr_us + self.quantum_us):
            raise ValueError("t_intr_us + 1e6 / r_sn_pps (in us) must be finite")

    @property
    def quantum_us(self) -> float:
        return 1e6 / self.r_sn_pps


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
    """One receive ring, its service clock and an optional block sorter.

    ``service`` completes the service due at ``svc_t`` (``inf`` while idle)
    and, when that empties the ring, flushes the engine and counts the
    cycle in ``cycles`` and its packets in ``cycle_packets``.  Each packet
    goes to ``deliver(p, fetched_at)``, and a TCP run ACKs it at the later
    of its flush and ``fetched_at`` plus the reverse delay: with in-order
    lossless arrivals and a constant reverse delay above the hold bound,
    the sorter arms then differ only in holds.  Holds go to
    ``max_hold_us``, checked against the one-flow block bound.
    ``deliver`` is ``None`` only without an engine, and comes per call: a
    stored bound method of the path's owner would make a reference cycle.
    """

    def __init__(self, params: CoalescingParams, engine: SrpicEngine | None = None):
        self.quantum_us = params.quantum_us
        self.t_intr_us = params.t_intr_us
        self.engine = engine
        self.ring: deque = deque()
        self.svc_t = math.inf
        self.cycles = 0  # completed cycles
        self.cycle_packets = 0  # packets of completed cycles
        self._served = 0  # packets fetched in the current cycle
        self.max_hold_us = 0.0
        if engine is not None:
            self._fetch_time: dict[int, float] = {}
            self._block_bound_us = hold_delay_bound(engine.block_size, params.r_sn_pps)

    def arrive(self, p: Packet, now: float) -> None:
        if not self.ring:
            self.svc_t = now + self.t_intr_us + self.quantum_us
        self.ring.append(p)

    def service(self, deliver: Callable[[Packet, float], None] | None = None) -> None:
        now = self.svc_t
        p = self.ring.popleft()
        self._served += 1
        engine = self.engine  # ingest/end_cycle looked up per call: tests patch them
        if engine is None:
            if deliver is not None:
                deliver(p, now)
        else:
            self._fetch_time[id(p)] = now
            emitted = engine.ingest(p)
            if not self.ring:
                emitted = emitted + engine.end_cycle()
            for held in emitted:
                fetched_at = self._fetch_time.pop(id(held))
                hold = now - fetched_at
                if hold > self._block_bound_us + 1e-6:
                    raise SimulationError(
                        f"sorter held a packet {hold:.3f}us, beyond its delay bound"
                    )
                if hold > self.max_hold_us:
                    self.max_hold_us = hold
                deliver(held, fetched_at)
        if self.ring:
            self.svc_t = now + self.quantum_us
        else:
            self.cycles += 1
            self.cycle_packets += self._served
            self._served = 0
            self.svc_t = math.inf


def simulate_coalescing(
    arrival_times: Sequence[float], params: CoalescingParams
) -> list[CycleRecord]:
    """Replay an arrival time series (microseconds, finite, nondecreasing)
    through a ``ReceivePath`` and report one record per cycle, in order:
    the packets the cycle drained.  Every arrival lands in exactly one
    cycle; the ring is unbounded.  A cycle drains one packet per service
    quantum, so its emptying takes ``block_packets * quantum_us``.
    """
    path = ReceivePath(params)
    ring, arrive, service = path.ring, path.arrive, path.service
    last = math.nextafter(-math.inf, 0.0)  # least finite float: -inf fails below
    firsts = []  # index of each cycle's first arrival
    for i, t in enumerate(arrival_times):
        if not last <= t < math.inf:
            raise ValueError("arrival_times must be finite and nondecreasing")
        last = t
        while path.svc_t <= t:
            service()
        if not ring:
            firsts.append(i)
        arrive(t, t)  # the ring holds arrival times, not packets
    while ring:
        service()
    return [
        CycleRecord(b - a) for a, b in zip(firsts, firsts[1:] + [len(arrival_times)])
    ]


def hold_delay_bound(block_size: int, r_sn_prime: float) -> float:
    """Worst extra delay (microseconds) the sorter adds to the first packet
    of a block drained at ``r_sn_prime`` packets/second."""
    if r_sn_prime <= 0:
        raise ValueError("r_sn_prime must be > 0")
    return block_size * 1e6 / r_sn_prime
