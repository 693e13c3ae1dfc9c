"""Netem-like path emulation: normal per-packet delay plus uniform drop.

Delay draws are i.i.d. normal with mean ``alpha`` and std-dev
``beta * alpha`` (negative draws clamp to zero).  The drop decision uses
a PRNG stream independent of the delay stream, and a delay is drawn for
every packet whether or not it survives, so the delay series at a given
seed is identical with and without drops — paired runs then differ only
where a drop actually removed a packet.

Each stream is drawn in chunks of ``_CHUNK`` values and read through an
endless iterator (``PathStreams.drops`` and ``PathStreams.delays``), so
the per-packet loops take each draw with one ``next()`` on a prefilled
list.  Chunking changes no value: the k-th draw is the one a per-packet
draw would give.
"""

from __future__ import annotations

import random
from itertools import chain, repeat
from operator import attrgetter
from statistics import NormalDist

from .config import PathConfig
from .packets import Packet

_SEND_INDEX = attrgetter("send_index")
_ARRIVAL_TIME = attrgetter("arrival_time")
# Draws per chunk of a path stream.
_CHUNK = 256
_CHUNK_RANGE = range(_CHUNK)


def _drop_chunks(rng: random.Random, rate: float):
    """Endless lists of ``_CHUNK`` drop decisions ``rng.random() < rate``."""
    while True:
        draw = rng.random
        yield [draw() < rate for _ in _CHUNK_RANGE]


def _delay_chunks(rng: random.Random, at):
    """Endless lists of ``_CHUNK`` delays ``at(rng.random())``, clamped at zero.

    ``random()`` may give exactly 0.0, outside ``inv_cdf``'s 0 < u < 1.  As
    u -> 0 the draw falls toward -inf, which clamps to zero, so that draw
    is 0.0 and still takes one value of the stream.
    """
    while True:
        draw = rng.random
        chunk = []
        for _ in _CHUNK_RANGE:
            u = draw()
            d = at(u) if u > 0.0 else 0.0
            chunk.append(d if d > 0.0 else 0.0)
        yield chunk


class PathStreams:
    """Per-path PRNG streams, read packet by packet.

    ``drops`` and ``delays`` are endless iterators: ``next(drops)`` is the
    next packet's drop decision and ``next(delays)`` its delay in µs.
    String seeding keeps the streams stable across platforms and runs;
    the k-th draw of each stream is a pure function of (seed, k), which is
    what lets paired simulation arms consume identical channel randomness.

    A stream with a drop rate or a std-dev of zero draws nothing: it
    repeats ``False`` or the mean.  Otherwise it draws ``_CHUNK`` values
    at a time, the first chunk on the first ``next``, so a stream holds at
    most one chunk of pending draws.  The chunk generators hold the
    ``random.Random`` instance, not ``self``, so no reference cycle runs
    through the streams, and they look up its ``random`` once per chunk.
    """

    def __init__(self, cfg: PathConfig):
        drop_rng = random.Random(f"{cfg.seed}:drop")
        delay_rng = random.Random(f"{cfg.seed}:delay")
        rate = cfg.drop_rate
        mean = cfg.alpha_ms * 1000.0
        std = cfg.beta * mean
        if rate > 0.0:
            self.drops = chain.from_iterable(_drop_chunks(drop_rng, rate))
        else:
            self.drops = repeat(False)
        if std > 0.0:
            # NormalDist(mean, std).inv_cdf(u) is mean + x * std for the
            # standard quantile x of u, bit for bit the same as
            # mean + std * NormalDist().inv_cdf(u).  With a zero std-dev
            # inv_cdf raises, so that stream repeats the mean instead.
            at = NormalDist(mean, std).inv_cdf
            self.delays = chain.from_iterable(_delay_chunks(delay_rng, at))
        else:
            self.delays = repeat(mean)

    def next_dropped(self) -> bool:
        return next(self.drops)

    def next_delay_us(self) -> float:
        return next(self.delays)


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
    survivors: list[Packet] = []
    append = survivors.append
    # The trace leads the zip, so nothing is drawn past its last packet.
    for p, dropped, delay in zip(trace, streams.drops, streams.delays):
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
