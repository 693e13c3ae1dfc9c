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

All functions require duplicate-free traces (no two packets sharing a
payload byte); the walk is undefined otherwise and such traces are
rejected.  Variable payload lengths are fine — comparisons use the first
payload byte.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import islice
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
    # Map 32-bit sequences to plain ints ordered like seq_cmp, anchored at
    # the first packet.  Valid while pairwise serial distances stay < 2**31.
    ref = trace[0].seq
    return [((p.seq - ref + SEQ_HALF) % SEQ_MOD) - SEQ_HALF for p in trace]


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
    flags: list[bool] = []
    next_exp = offsets[0] + trace[0].payload_len
    flags.append(False)
    for off, p in zip(offsets[1:], trace[1:]):
        if off >= next_exp:
            next_exp = off + p.payload_len
            flags.append(False)
        else:
            flags.append(True)
    return offsets, flags


def _count(flags: list[bool]) -> tuple[int, float]:
    n = len(flags)
    count = sum(flags)
    return count, (count / n if n else 0.0)


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
    return _count(_reordered_flags(trace)[1])


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
    offsets, flags = _reordered_flags(trace)
    count, ratio = _count(flags)
    intra = inter = None
    if partition is not None:
        intra, inter = _classify(offsets, flags, partition)
    return ReorderReport(
        total_packets=len(trace),
        reordered_count=count,
        ratio=ratio,
        max_extent=_max_extent(offsets, flags),
        intra_block=intra,
        inter_block=inter,
    )
