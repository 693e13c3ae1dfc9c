"""Reordering measurement over single-flow arrival traces.

The reordered test follows the standard next-expected walk: the receiver
tracks the next expected sequence number; a packet at or above it is
in-order and advances the expectation to the end of its payload, a packet
below it counts as reordered.  A reordered packet's extent is the number
of greater-sequence packets that arrived before it.

Given a partition of the arrival order into consecutive blocks, a
reordered packet is intra-block when every earlier-arriving packet with a
greater sequence lies in its own block, inter-block otherwise.  Since the
earlier packets outside its block are exactly those of the earlier blocks,
a reordered packet is inter-block exactly when the largest offset over the
earlier blocks exceeds its own, so one pass that carries that maximum
across block boundaries classifies a trace in O(n).

Every trace is unwrapped by ``_unwrap`` alone: each packet sits at its
serial distance from the one before it, so a trace may cross the 2**32
wrap any number of times.  Comparisons use the first payload byte.

The public one-trace functions raise ``OverlappingSegmentsError`` on a
trace in which two packets share a payload byte.  A TCP run's traces
carry retransmitted copies, so ``first_copy_reports`` drops every later
copy instead and reports on the first copies before and after the sorter.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate, islice
from math import inf
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


def _unwrap(trace: Sequence[Packet]) -> list[int]:
    # Map 32-bit sequences to plain ints ordered like seq_cmp: the first
    # packet sits at 0 and each later one at its serial distance from the
    # packet before it.  Valid while consecutive packets are less than
    # 2**31 apart, so a trace may span any number of wraps.
    seqs = [p.seq for p in trace]
    steps = [((b - a + SEQ_HALF) % SEQ_MOD) - SEQ_HALF for a, b in zip(seqs, seqs[1:])]
    return list(accumulate(steps, initial=0))


def _check_disjoint(offsets: list[int], trace: Sequence[Packet]) -> None:
    ranges = sorted(
        (off, off + p.payload_len) for off, p in zip(offsets, trace)
    )
    for (s1, e1), (s2, e2) in zip(ranges, ranges[1:]):
        if s2 < e1:
            raise OverlappingSegmentsError(
                f"payload ranges [{s1},{e1}) and [{s2},{e2}) overlap"
            )


def _reordered_flags(trace: Sequence[Packet]) -> tuple[list[int], list[bool]]:
    """Unwrapped offsets plus the per-packet reordered flag."""
    if not trace:
        return [], []
    offsets = _unwrap(trace)
    _check_disjoint(offsets, trace)
    return offsets, _flags(offsets, [p.payload_len for p in trace])


def _flags(offsets: list[int], payload_lens: Sequence[int]) -> list[bool]:
    # The next-expected walk; the first packet is never reordered.
    flags: list[bool] = []
    next_exp = -inf
    for off, length in zip(offsets, payload_lens):
        if off >= next_exp:
            next_exp = off + length
            flags.append(False)
        else:
            flags.append(True)
    return flags


def _ratio(count: int, total: int) -> float:
    return count / total if total else 0.0


def _max_extent(offsets: list[int], flags: list[bool]) -> int:
    # ``seen`` holds the earlier offsets in ascending order.  A packet that
    # is not reordered starts at or above every one of them, so it appends.
    seen: list[int] = []
    best = 0
    for off, reordered in zip(offsets, flags):
        if reordered:
            i = bisect_right(seen, off)
            if len(seen) - i > best:
                best = len(seen) - i
            seen.insert(i, off)
        else:
            seen.append(off)
    return best


def reordered_count(trace: Sequence[Packet]) -> tuple[int, float]:
    """Count of reordered packets and the reordering ratio (count/total)."""
    flags = _reordered_flags(trace)[1]
    count = sum(flags)
    return count, _ratio(count, len(flags))


def max_reordering_extent(trace: Sequence[Packet]) -> int:
    """Largest extent over all reordered packets, 0 when none."""
    return _max_extent(*_reordered_flags(trace))


def classify_block_reordering(
    trace: Sequence[Packet], partition: Sequence[int]
) -> tuple[int, int]:
    """Split the reordered count into intra-block and inter-block parts.

    ``partition`` lists consecutive block lengths over the arrival order.
    A reordered packet is intra-block when every earlier-arriving packet
    with a greater sequence lies in the same block, inter-block otherwise.
    """
    return _classify(*_reordered_flags(trace), partition)


def _classify(
    offsets: list[int], flags: list[bool], partition: Sequence[int]
) -> tuple[int, int]:
    n = len(flags)
    if any(b <= 0 for b in partition) or sum(partition) != n:
        raise PartitionError(
            f"block lengths {list(partition)} do not cover a {n}-packet trace"
        )
    intra = inter = 0
    # Largest offset over all earlier blocks; it moves only at a boundary.
    earlier_max = -inf
    pairs = zip(offsets, flags)
    for length in partition:
        block_max = earlier_max
        for off, reordered in islice(pairs, length):
            if reordered:
                if earlier_max > off:
                    inter += 1
                else:
                    intra += 1
            if off > block_max:
                block_max = off
        earlier_max = block_max
    return intra, inter


def reorder_report(
    trace: Sequence[Packet], partition: Sequence[int] | None = None
) -> ReorderReport:
    """Full report on one trace; block fields filled when a partition is given.

    The reordered flags are computed once and shared by every field.
    """
    return _report(*_reordered_flags(trace), partition)


def _report(
    offsets: list[int], flags: list[bool], partition: Sequence[int] | None
) -> ReorderReport:
    count = sum(flags)
    intra = inter = None
    if partition is not None:
        intra, inter = _classify(offsets, flags, partition)
    return ReorderReport(
        total_packets=len(flags),
        reordered_count=count,
        ratio=_ratio(count, len(flags)),
        max_extent=_max_extent(offsets, flags),
        intra_block=intra,
        inter_block=inter,
    )


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


def _first_copies(trace: Sequence[Packet]) -> tuple[list[Packet], list[int]]:
    """Keep the first-arriving copy of each payload range.

    A packet is dropped when it shares a byte with one kept before it;
    an empty payload raises ``ValueError``.  Returns the kept packets and
    their offsets in ``_unwrap`` of the whole trace, which order them like
    ``seq_cmp``.
    """
    kept: list[Packet] = []
    offsets: list[int] = []
    # Bytes already kept, as sorted disjoint ranges [starts[i], ends[i]).
    # Ranges that touch are merged, so the lists stay as short as the
    # number of holes.
    starts: list[int] = []
    ends: list[int] = []
    for p, s in zip(trace, _unwrap(trace)):
        e = s + p.payload_len
        if e <= s:
            raise ValueError(f"packet send_index={p.send_index} has no payload")
        i = bisect_left(starts, s)
        right = i < len(starts)
        if right and starts[i] < e:
            continue
        if i and ends[i - 1] > s:
            continue
        kept.append(p)
        offsets.append(s)
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
    return kept, offsets


def first_copy_reports(
    arrivals: Sequence[Packet], deliveries: Sequence[Packet]
) -> tuple[ReorderReport, ReorderReport]:
    """Reports on the first copies in arrival order and in delivery order.

    ``arrivals`` may hold retransmitted copies; an empty payload raises
    ``ValueError``.  ``deliveries`` holds the same packet objects, possibly
    fewer.  Both reports use the offsets ``_first_copies`` gives the
    arrivals, so neither trace is unwrapped or overlap-checked again.
    """
    kept, offsets = _first_copies(arrivals)
    offset_of = {id(p): off for p, off in zip(kept, offsets)}
    post_offsets: list[int] = []
    post_lens: list[int] = []
    for p in deliveries:
        off = offset_of.get(id(p))
        if off is not None:
            post_offsets.append(off)
            post_lens.append(p.payload_len)
    pre_lens = [p.payload_len for p in kept]
    return (
        _report(offsets, _flags(offsets, pre_lens), None),
        _report(post_offsets, _flags(post_offsets, post_lens), None),
    )
