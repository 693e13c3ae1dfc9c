"""Reordering measurement over single-flow packet orders.

The reordered test is RFC 4737's next-expected walk: a packet at or above
the next expected sequence number is in order and moves the expectation
to the end of its payload; a packet below it is reordered.  A reordered
packet's extent is the number of greater-sequence packets before it.
``_Walk`` is the one implementation.  It takes one packet at a time and
keeps the expectation, the count, the best extent and the earlier offsets
in ascending order, one offset per packet.

Given consecutive blocks, a reordered packet is intra-block when every
earlier packet with a greater sequence lies in its own block.  Those
outside its block are exactly the earlier blocks' packets, so it is
inter-block exactly when the largest offset over the earlier blocks
exceeds its own; ``_Walk.end_block`` takes that maximum at a block's end.

``_unwrapper`` places each packet at its serial distance from the one
before it, so an order may cross the 2**32 wrap any number of times.

The one-trace functions raise ``OverlappingSegmentsError`` when two packets
share a payload byte.  A TCP run carries retransmitted copies, so
``FirstCopyReports`` walks the first copy of each payload range in arrival
and in delivery order as the run goes, and keeps no packet.  Arrivals are
unwrapped against the set of kept byte ranges.  Every report field is
unchanged when all offsets shift by one amount, so the delivered first
copies are unwrapped in their own order.  Only the rare later copies are
remembered, by ``id``, until they are delivered: a packet is held, and so
alive, from its arrival until its delivery.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import islice
from math import inf
from operator import add
from typing import Callable, Sequence

from .packets import Packet, SEQ_HALF, SEQ_MOD


class OverlappingSegmentsError(ValueError):
    """Trace contains packets with overlapping payload ranges."""


class PartitionError(ValueError):
    """Block partition does not cover the trace contiguously."""


@dataclass(frozen=True)
class ReorderReport:
    total_packets: int
    reordered_count: int
    ratio: float
    max_extent: int
    intra_block: int | None = None
    inter_block: int | None = None


def _ratio(count: int, total: int) -> float:
    return count / total if total else 0.0


def _unwrapper() -> Callable[[int], int]:
    """A function giving each sequence passed to it a plain-int offset
    ordered like ``seq_cmp``: its serial distance from the one before (the
    first from 0), valid while consecutive packets are less than 2**31
    apart.  A primed generator keeps the state in fast locals."""
    def offsets():
        prev = off = 0
        while True:
            seq = yield off
            off += ((seq - prev + SEQ_HALF) % SEQ_MOD) - SEQ_HALF
            prev = seq

    gen = offsets()
    next(gen)
    return gen.send


def _unwrap(trace: Sequence[Packet]) -> list[int]:
    return list(map(_unwrapper(), [p.seq for p in trace]))


class _Walk:
    """The next-expected walk over offsets, fed one packet at a time."""

    __slots__ = ("next_exp", "count", "seen", "best", "mark", "inter")

    def __init__(self):
        self.next_exp = -inf
        self.count = self.best = self.inter = 0
        # Every offset so far, ascending.  A packet that is not reordered
        # starts at or above every one of them, so it appends.
        self.seen: list[int] = []
        self.mark = -inf  # seen[-1] at the last end_block()

    def add(self, off: int, length: int) -> None:
        seen = self.seen
        if off >= self.next_exp:
            self.next_exp = off + length
            seen.append(off)
            return
        self.count += 1
        i = bisect_right(seen, off)
        if len(seen) - i > self.best:
            self.best = len(seen) - i
        seen.insert(i, off)
        if self.mark > off:
            self.inter += 1

    def end_block(self) -> None:
        if self.seen:
            self.mark = self.seen[-1]

    def report(self, blocks: bool = False) -> ReorderReport:
        n, count, inter = len(self.seen), self.count, self.inter
        split = (count - inter, inter) if blocks else (None, None)
        return ReorderReport(n, count, _ratio(count, n), self.best, *split)


def _check_disjoint(offsets: list[int], lens: list[int]) -> None:
    # Ranges in (start, end) order; each must start at or past the end of
    # the one before it.
    ranges = sorted(zip(offsets, map(add, offsets, lens)))
    for (s1, e1), (s2, e2) in zip(ranges, islice(ranges, 1, None)):
        if s2 < e1:
            raise OverlappingSegmentsError(
                f"payload ranges [{s1},{e1}) and [{s2},{e2}) overlap"
            )


def _walk(trace: Sequence[Packet], partition: Sequence[int] | None = None) -> _Walk:
    """The walk over one checked trace, marked at each block's end."""
    offsets = _unwrap(trace)
    lens = [p.payload_len for p in trace]
    _check_disjoint(offsets, lens)
    n = len(trace)
    if partition is None:
        partition = (n,)
    elif any(b <= 0 for b in partition) or sum(partition) != n:
        raise PartitionError(
            f"block lengths {list(partition)} do not cover a {n}-packet trace"
        )
    walk = _Walk()
    add = walk.add
    pairs = zip(offsets, lens)
    for length in partition:
        for off, size in islice(pairs, length):
            add(off, size)
        walk.end_block()
    return walk


def reordered_count(trace: Sequence[Packet]) -> tuple[int, float]:
    """Count of reordered packets and the reordering ratio (count/total)."""
    count = _walk(trace).count
    return count, _ratio(count, len(trace))


def max_reordering_extent(trace: Sequence[Packet]) -> int:
    """Largest extent over all reordered packets, 0 when none."""
    return _walk(trace).best


def classify_block_reordering(
    trace: Sequence[Packet], partition: Sequence[int]
) -> tuple[int, int]:
    """Split the reordered count into intra-block and inter-block parts.

    ``partition`` lists consecutive block lengths over the arrival order.
    A reordered packet is intra-block when every earlier-arriving packet
    with a greater sequence lies in the same block, inter-block otherwise.
    """
    walk = _walk(trace, partition)
    return walk.count - walk.inter, walk.inter


def reorder_report(
    trace: Sequence[Packet], partition: Sequence[int] | None = None
) -> ReorderReport:
    """Full report on one trace; block fields filled when a partition is given.

    One walk fills every field.
    """
    return _walk(trace, partition).report(partition is not None)


def sum_reports(reports: Sequence[ReorderReport]) -> ReorderReport:
    """One report over several streams: packet and reordered counts add
    up, the extent is the largest, and the block fields stay unset."""
    total = sum(r.total_packets for r in reports)
    count = sum(r.reordered_count for r in reports)
    return ReorderReport(
        total_packets=total,
        reordered_count=count,
        ratio=_ratio(count, total),
        max_extent=max((r.max_extent for r in reports), default=0),
    )


class FirstCopyReports:
    """A run's reports on the first copies, fed as packets arrive and are
    delivered: ``arrive(p)`` in arrival order, ``deliver(p)`` in delivery
    order, each packet delivered at most once and after its arrival."""

    __slots__ = ("pre", "post", "_arrivals", "_deliveries", "_starts", "_ends", "_later")

    def __init__(self):
        self.pre = _Walk()
        self.post = _Walk()
        self._arrivals = _unwrapper()
        self._deliveries = _unwrapper()
        # Bytes already kept, as sorted disjoint ranges [starts[i], ends[i]).
        # Ranges that touch are merged, so the lists stay as short as the
        # number of holes.
        self._starts: list[int] = []
        self._ends: list[int] = []
        self._later: set[int] = set()  # ids of later copies not yet delivered

    def arrive(self, p: Packet) -> int | None:
        """Take the next arrival; returns its offset if it is a first copy.

        A packet is a later copy when it shares a byte with one kept
        before it; an empty payload raises ``ValueError``.
        """
        s = self._arrivals(p.seq)
        e = s + p.payload_len
        if e <= s:
            raise ValueError(f"packet send_index={p.send_index} has no payload")
        starts, ends = self._starts, self._ends
        if ends and ends[-1] == s:  # in order: extends the last range
            ends[-1] = e
        else:
            i = bisect_left(starts, s)
            right = i < len(starts)
            if right and starts[i] < e or i and ends[i - 1] > s:
                self._later.add(id(p))
                return None
            if i and ends[i - 1] == s:
                if right and starts[i] == e:
                    ends[i - 1] = ends.pop(i)
                    del starts[i]
                else:
                    ends[i - 1] = e
            elif right and starts[i] == e:
                starts[i] = s
            else:
                starts.insert(i, s)
                ends.insert(i, e)
        self.pre.add(s, p.payload_len)
        return s

    def deliver(self, p: Packet) -> None:
        later = self._later
        if later and id(p) in later:
            later.remove(id(p))
        else:
            self.post.add(self._deliveries(p.seq), p.payload_len)

    def reports(self) -> tuple[ReorderReport, ReorderReport]:
        """Reports on the first copies in arrival and in delivery order."""
        return self.pre.report(), self.post.report()


def _first_copies(trace: Sequence[Packet]) -> tuple[list[Packet], list[int]]:
    """The first-arriving copy of each payload range, with its offset."""
    keep = FirstCopyReports().arrive
    kept: list[Packet] = []
    offsets: list[int] = []
    for p in trace:
        off = keep(p)
        if off is not None:
            kept.append(p)
            offsets.append(off)
    return kept, offsets


def first_copy_reports(
    arrivals: Sequence[Packet], deliveries: Sequence[Packet]
) -> tuple[ReorderReport, ReorderReport]:
    """Reports on the first copies in arrival order and in delivery order.

    ``arrivals`` may hold retransmitted copies; an empty payload raises
    ``ValueError``.  ``deliveries`` holds the same packet objects, possibly
    fewer.
    """
    acc = FirstCopyReports()
    for p in arrivals:
        acc.arrive(p)
    for p in deliveries:
        acc.deliver(p)
    return acc.reports()
