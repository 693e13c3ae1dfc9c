"""Reordering measurement over single-flow packet orders.

The reordered test is RFC 4737's next-expected walk: a packet at or above
the next expected sequence number is in order and moves the expectation
to the end of its payload; a packet below it is reordered.  A reordered
packet's extent is the number of greater-sequence packets before it.
``_RangeWalk`` is the one implementation.  It takes disjoint, nonempty
packets one at a time and keeps their merged byte ranges, each with its
packet count: one range per hole.

Given consecutive blocks, a reordered packet is intra-block when every
earlier packet with a greater sequence lies in its own block.  Those
outside its block are exactly the earlier blocks' packets.  Packets are
disjoint and nonempty, so an earlier packet ends above a packet's first
byte exactly when it starts above it: the packet is inter-block exactly
when the largest end over the earlier blocks exceeds its start.
``_RangeWalk.end_block`` takes that largest end, the top range's end, as
the mark.

``_unwrapper`` places each packet at its serial distance from the one
before it, so an order may cross the 2**32 wrap any number of times.

Every packet walked must carry payload: an empty one raises
``ValueError`` naming its ``send_index``, in the one-trace functions and in
a run alike.  The one-trace functions raise ``OverlappingSegmentsError``
when two packets share a payload byte.  A TCP run carries retransmitted
copies, so ``FirstCopyReports`` walks the first copy of each payload range
in arrival and in delivery order as the run goes, and keeps no packet and
nothing per packet.  The arrival walk's ranges mark a later copy: it shares
a byte with one of them.  Each first copy's arrival offset waits in a dict
keyed by ``id`` until the delivery walk takes it: a packet is held, and so
alive, from its arrival until its delivery, so no two packets in the dict
share an ``id``.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import islice
from math import inf
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


def _no_payload(p: Packet) -> ValueError:
    return ValueError(f"packet send_index={p.send_index} has no payload")


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


def _walk(trace: Sequence[Packet], partition: Sequence[int] | None = None) -> _RangeWalk:
    """The walk over one trace, marked at each block's end."""
    n = len(trace)
    if partition is None:
        partition = (n,)
    elif any(b <= 0 for b in partition) or sum(partition) != n:
        raise PartitionError(
            f"block lengths {list(partition)} do not cover a {n}-packet trace"
        )
    walk = _RangeWalk()
    add = walk.add
    unwrap = _unwrapper()
    packets = iter(trace)
    for length in partition:
        for p in islice(packets, length):
            s = unwrap(p.seq)
            e = s + p.payload_len
            if e <= s:
                raise _no_payload(p)
            if not add(s, e):
                raise OverlappingSegmentsError(
                    f"packet send_index={p.send_index} shares a payload byte"
                    " with an earlier packet"
                )
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


class _RangeWalk:
    """The next-expected walk over disjoint, nonempty packets, kept as
    sorted byte ranges merged where they touch (one per hole), each with
    its packet count.  The next expected offset is the top range's end, and
    a reordered packet's extent is the sum of the counts above it.  A
    reordered packet that starts below ``mark``, the top range's end at the
    last ``end_block()``, is inter-block.
    """

    __slots__ = ("starts", "ends", "counts", "count", "best", "mark", "inter")

    def __init__(self):
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.counts: list[int] = []  # packets in each range
        self.count = self.best = self.inter = 0
        self.mark = -inf

    def add(self, s: int, e: int) -> bool:
        """Take the packet ``[s, e)``; False, keeping nothing, when it
        shares a byte with a kept range."""
        ends = self.ends
        if ends and ends[-1] == s:  # in order: extends the top range
            ends[-1] = e
            self.counts[-1] += 1
            return True
        starts, counts = self.starts, self.counts
        i = bisect_right(starts, s)  # ranges below i start at or before s
        if i and ends[i - 1] > s:
            return False
        if i == len(starts):  # in order, past a hole
            starts.append(s)
            ends.append(e)
            counts.append(1)
            return True
        if starts[i] < e:
            return False
        self.count += 1
        if self.mark > s:
            self.inter += 1
        extent = sum(counts[i:])
        if extent > self.best:
            self.best = extent
        if i and ends[i - 1] == s:
            if starts[i] == e:  # fills a hole exactly
                del starts[i]
                ends[i - 1] = ends.pop(i)
                counts[i - 1] += counts.pop(i) + 1
            else:
                ends[i - 1] = e
                counts[i - 1] += 1
        elif starts[i] == e:
            starts[i] = s
            counts[i] += 1
        else:
            starts.insert(i, s)
            ends.insert(i, e)
            counts.insert(i, 1)
        return True

    def end_block(self) -> None:
        if self.ends:
            self.mark = self.ends[-1]

    def report(self, blocks: bool = False) -> ReorderReport:
        n, count, inter = sum(self.counts), self.count, self.inter
        split = (count - inter, inter) if blocks else (None, None)
        return ReorderReport(n, count, _ratio(count, n), self.best, *split)


class FirstCopyReports:
    """A run's reports on the first copies, fed as packets arrive and are
    delivered: ``arrive(p)`` in arrival order, ``deliver(p)`` in delivery
    order, each packet delivered at most once and after its arrival.

    Both walks are ``_RangeWalk``s: merged byte ranges of the first copies
    so far, each with its packet count.  A later first copy shares no byte
    with them, and a range is contiguous, so each range lies all below or
    all above it, and its extent is the sum of the counts above it.  Arrivals
    are unwrapped in their own order, and a first copy is delivered at the
    offset it arrived with, kept in ``_held`` by ``id`` until then.
    """

    __slots__ = ("pre", "post", "_arrivals", "_held")

    def __init__(self):
        self.pre = _RangeWalk()
        self.post = _RangeWalk()
        self._arrivals = _unwrapper()
        self._held: dict[int, int] = {}  # id -> offset, first copies not yet delivered

    def arrive(self, p: Packet) -> int | None:
        """Take the next arrival; returns its offset if it is a first copy.

        A packet is a later copy when it shares a byte with one kept
        before it; an empty payload raises ``ValueError``.
        """
        s = self._arrivals(p.seq)
        e = s + p.payload_len
        if e <= s:
            raise _no_payload(p)
        if not self.pre.add(s, e):
            return None
        self._held[id(p)] = s
        return s

    def deliver(self, p: Packet) -> None:
        s = self._held.pop(id(p), None)
        if s is not None:
            self.post.add(s, s + p.payload_len)

    def reports(self) -> tuple[ReorderReport, ReorderReport]:
        """Reports on the first copies in arrival and in delivery order."""
        return self.pre.report(), self.post.report()
