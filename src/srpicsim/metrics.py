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

Each packet is placed at an offset: its serial distance from the packet
before it in the same order, ``((seq - prev + 2**31) % 2**32) - 2**31``,
added to that packet's offset (the first packet's from 0).  So an order may
cross the 2**32 wrap any number of times, as long as consecutive packets
are less than 2**31 apart.  ``tests/oracles.py`` states this serial step
once, as ``unwrapper``.  It is written out inline in ``_walk`` and in
``FirstCopyReports.arrive``, the hot paths, each with its own local state.
So is ``_RangeWalk.add``'s in-order case: a packet that starts at the top
range's end extends that range, and every other packet goes to ``add``.

Every packet walked must carry payload: an empty one raises
``ValueError`` naming its ``send_index``, in a whole-trace report and in a
run alike.  A whole-trace report, ``reorder_report`` or its block split
``classify_block_reordering``, is one walk; it raises
``OverlappingSegmentsError`` when two packets share a payload byte.  A TCP
run carries retransmitted copies, so ``FirstCopyReports`` walks the first
copy of each payload range in arrival and in delivery order as the run
goes, and keeps no packet and nothing per packet.  The arrival walk's
ranges mark a later copy: it shares a byte with one of them.  The caller
carries each first copy's arrival offset to its delivery.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from math import inf
from operator import index
from typing import Sequence

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


def _no_payload(p: Packet) -> ValueError:
    return ValueError(f"packet send_index={p.send_index} has no payload")


def _walk(trace: Sequence[Packet], partition: Sequence[int] | None = None) -> _RangeWalk:
    """The walk over one trace, marked at each block's end.

    ``partition`` lists the block lengths: integers, each at least 1,
    summing to the trace's length.
    """
    n = len(trace)
    if partition is None:
        lengths = [n]
    else:
        try:
            lengths = [index(b) for b in partition]
        except TypeError:
            lengths = None
        if lengths is None or min(lengths, default=1) < 1 or sum(lengths) != n:
            raise PartitionError(
                f"block lengths {list(partition)} are not integers of at least 1"
                f" that cover a {n}-packet trace"
            )
    walk = _RangeWalk()
    add, end_block = walk.add, walk.end_block
    ends, counts = walk.ends, walk.counts
    top = None  # ends[-1] once there is a range
    blocks = iter(lengths)
    left = next(blocks, 0)  # packets still to come in the current block
    prev = s = 0
    for p in trace:
        seq = p.seq
        s += ((seq - prev + SEQ_HALF) % SEQ_MOD) - SEQ_HALF
        prev = seq
        e = s + p.payload_len
        if e <= s:
            raise _no_payload(p)
        if s == top:
            top = ends[-1] = e
            counts[-1] += 1
        elif add(s, e):
            top = ends[-1]
        else:
            raise OverlappingSegmentsError(
                f"packet send_index={p.send_index} shares a payload byte"
                " with an earlier packet"
            )
        left -= 1
        if not left:
            end_block()
            left = next(blocks, 0)
    return walk


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
        starts, ends, counts = self.starts, self.ends, self.counts
        if not ends or ends[-1] < s:  # in order, past a hole
            starts.append(s)
            ends.append(e)
            counts.append(1)
            return True
        if ends[-1] == s:  # in order: extends the top range
            ends[-1] = e
            counts[-1] += 1
            return True
        # s is below the top range's end, so i < len(starts) unless the
        # top range holds s.
        i = bisect_right(starts, s)  # ranges below i start at or before s
        if i and ends[i - 1] > s:
            return False
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
        return ReorderReport(n, count, count / n if n else 0.0, self.best, *split)


class FirstCopyReports:
    """A run's reports on the first copies, fed as packets arrive and are
    delivered: ``s = arrive(p)`` in arrival order, ``deliver(p, s)`` in
    delivery order, each packet delivered at most once, after its arrival
    and with what its ``arrive`` returned.

    Both walks are ``_RangeWalk``s: merged byte ranges of the first copies
    so far, each with its packet count.  A later first copy shares no byte
    with them, and a range is contiguous, so each range lies all below or
    all above it, and its extent is the sum of the counts above it.  Arrivals
    are unwrapped in their own order, and a first copy is delivered at the
    offset it arrived with.
    """

    __slots__ = ("pre", "post", "_seq", "_off")

    def __init__(self):
        self.pre = _RangeWalk()
        self.post = _RangeWalk()
        self._seq = self._off = 0  # the last arrival's sequence and offset

    def arrive(self, p: Packet) -> int | None:
        """Take the next arrival; returns its offset if it is a first copy.

        A packet is a later copy when it shares a byte with one kept
        before it; an empty payload raises ``ValueError``.
        """
        seq = p.seq
        s = self._off = self._off + ((seq - self._seq + SEQ_HALF) % SEQ_MOD) - SEQ_HALF
        self._seq = seq
        e = s + p.payload_len
        if e <= s:
            raise _no_payload(p)
        pre = self.pre
        ends = pre.ends
        if ends and ends[-1] == s:
            ends[-1] = e
            pre.counts[-1] += 1
        elif not pre.add(s, e):
            return None
        return s

    def deliver(self, p: Packet, s: int | None) -> None:
        if s is not None:
            post = self.post
            ends = post.ends
            e = s + p.payload_len
            if ends and ends[-1] == s:
                ends[-1] = e
                post.counts[-1] += 1
            else:
                post.add(s, e)

    def reports(self) -> tuple[ReorderReport, ReorderReport]:
        """Reports on the first copies in arrival and in delivery order."""
        return self.pre.report(), self.post.report()
