"""Netem-like path emulation: normal per-packet delay plus uniform drop.

Delay draws are i.i.d. normal with mean ``alpha`` and std-dev
``beta * alpha`` (negative draws clamp to zero).  The drop decision uses
a PRNG stream independent of the delay stream, and a delay is drawn for
every packet whether or not it survives, so the delay series at a given
seed is identical with and without drops — paired runs then differ only
where a drop actually removed a packet.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from operator import attrgetter
from statistics import NormalDist, StatisticsError

from .packets import Packet

_SEND_INDEX = attrgetter("send_index")
_ARRIVAL_TIME = attrgetter("arrival_time")


@dataclass(frozen=True)
class PathConfig:
    """One direction of the emulated path."""

    alpha_ms: float = 2.5  # mean one-way delay
    beta: float = 0.0  # relative std-dev factor; std-dev = beta * alpha
    drop_rate: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.alpha_ms < 0:
            raise ValueError("alpha_ms must be >= 0")
        if self.beta < 0:
            raise ValueError("beta must be >= 0")
        # A draw is mean + x * std, |x| <= 8.21 for random() > 0: 9 std-devs bound it.
        mean_us = self.alpha_ms * 1000.0
        if not math.isfinite(mean_us + 9.0 * (self.beta * mean_us)):
            raise ValueError("alpha_ms * 1000 + 9 * beta * alpha_ms * 1000 (in us) must be finite")
        if not 0.0 <= self.drop_rate <= 1.0:
            raise ValueError("drop_rate must be in [0, 1]")


class PathStreams:
    """Per-path PRNG streams usable packet by packet.

    String seeding keeps the streams stable across platforms and runs;
    the k-th draw of each stream is a pure function of (seed, k), which is
    what lets paired simulation arms consume identical channel randomness.
    """

    def __init__(self, cfg: PathConfig):
        self._drop_rng = random.Random(f"{cfg.seed}:drop")
        self._delay_rng = random.Random(f"{cfg.seed}:delay")
        self._drop_rate = cfg.drop_rate
        self._mean_us = mean = cfg.alpha_ms * 1000.0
        std = cfg.beta * mean
        # NormalDist(mean, std).inv_cdf(u) is mean + x * std for the
        # standard quantile x of u, bit for bit the same as
        # mean + std * NormalDist().inv_cdf(u).  A zero std-dev has no
        # NormalDist (its inv_cdf raises), and it draws nothing.
        self._delay_at = NormalDist(mean, std).inv_cdf if std != 0.0 else None

    def next_dropped(self) -> bool:
        if self._drop_rate <= 0.0:
            return False
        return self._drop_rng.random() < self._drop_rate

    def next_delay_us(self) -> float:
        if self._delay_at is None:
            return self._mean_us
        try:
            d = self._delay_at(self._delay_rng.random())
        except StatisticsError:
            # random() gave exactly 0.0, outside inv_cdf's 0 < u < 1.  As
            # u -> 0 the draw falls toward -inf, which clamps to zero.
            return 0.0
        return d if d > 0.0 else 0.0


def apply_path(trace: list[Packet], cfg: PathConfig) -> list[Packet]:
    """Send a send-ordered trace through the path; returns survivors in
    arrival order.

    Equal arrival times go by ``send_index`` (FIFO), then by trace order:
    the order of the key ``(arrival_time, send_index)``.  Two stable sorts
    give it without building a key tuple per packet.  The first, by
    ``send_index``, is a single pass over a send-ordered trace; the second,
    by ``arrival_time`` alone, compares plain floats, and its stability
    keeps the first sort's order among equal arrival times.
    """
    streams = PathStreams(cfg)
    next_dropped = streams.next_dropped
    next_delay_us = streams.next_delay_us
    survivors: list[Packet] = []
    append = survivors.append
    for p in trace:
        dropped = next_dropped()
        delay = next_delay_us()
        if dropped:
            continue
        # Every field copied positionally, in declaration order.
        append(
            Packet(
                p.flow,
                p.seq,
                p.payload_len,
                p.flags,
                p.is_fragment,
                p.has_disallowed_options,
                p.send_index,
                p.send_time,
                p.send_time + delay,
            )
        )
    survivors.sort(key=_SEND_INDEX)
    survivors.sort(key=_ARRIVAL_TIME)
    return survivors
