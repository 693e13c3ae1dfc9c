"""Packet record, 32-bit sequence arithmetic, and the sorter suitability test."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple

SEQ_MOD = 1 << 32
SEQ_HALF = 1 << 31


class TcpFlags(enum.Flag):
    NONE = 0
    ACK = enum.auto()
    PSH = enum.auto()
    ECE = enum.auto()
    CWR = enum.auto()
    URG = enum.auto()
    RST = enum.auto()
    SYN = enum.auto()
    FIN = enum.auto()


# Control bits that force a packet past the sorter: such packets may need
# immediate attention from higher layers and must not sit in a hold list.
DISQUALIFYING_FLAGS = (
    TcpFlags.ECE | TcpFlags.CWR | TcpFlags.URG | TcpFlags.RST | TcpFlags.SYN | TcpFlags.FIN
)
# Integer mask of the same bits.  Testing ``flags._value_`` (the enum's
# documented sunder attribute) against it skips the enum's ``__and__`` and
# its ``value`` property, which would dominate the per-packet cost.
_DISQUALIFYING_BITS = DISQUALIFYING_FLAGS.value


class FlowKey(NamedTuple):
    """Identity of one simulated TCP stream (addresses are opaque ids).

    A tuple because the sorter looks up a manager by key for every packet,
    and a tuple hashes in C, about three times as fast as a dataclass.
    """

    src_addr: int
    dst_addr: int
    src_port: int
    dst_port: int


@dataclass(slots=True)
class Packet:
    """One simulated TCP segment.

    ``seq`` is the first payload byte's sequence number and wraps modulo
    2**32.  ``send_index`` is a per-flow monotone counter assigned at
    emission; it survives channel reordering and is the FIFO tie-breaker.
    ``has_disallowed_options`` covers any IP option or any TCP option
    other than timestamp.

    One packet object is shared by the arrival and delivery traces and
    the sorter's hold lists, which track it by ``id``, so it must not be
    mutated once built; derive a changed copy with ``dataclasses.replace``.
    The class is not frozen only because a frozen dataclass sets every
    field through ``object.__setattr__``, which more than doubles the
    cost of building one.  It is unhashable; nothing keys by its value.
    Hot paths build it positionally, at half the cost of keywords, so the
    field order is part of its interface and a test pins it.
    """

    flow: FlowKey
    seq: int
    payload_len: int
    flags: TcpFlags = TcpFlags.NONE
    is_fragment: bool = False
    has_disallowed_options: bool = False
    send_index: int = 0
    send_time: float = 0.0  # microseconds
    arrival_time: float = 0.0  # microseconds, set by the channel emulator


def seq_cmp(a: int, b: int) -> int:
    """TCP serial-number comparison: -1 if a precedes b, 0 if equal, 1 after.

    Valid when the serial distance between ``a`` and ``b`` is below 2**31,
    which holds for sequences within one flow's in-flight window.
    """
    if a == b:
        return 0
    return -1 if ((a - b) % SEQ_MOD) > SEQ_HALF else 1


def payload_end(p: Packet) -> int:
    """Sequence number one past the packet's last payload byte (mod 2**32)."""
    return (p.seq + p.payload_len) % SEQ_MOD


def is_suitable(p: Packet) -> bool:
    """True when the sorter may hold this packet.

    Fragments, packets carrying options other than timestamp, and packets
    with any of the ECE/CWR/URG/RST/SYN/FIN control bits are delivered
    upward immediately instead.  ACK and PSH do not disqualify.
    """
    return (
        not p.is_fragment
        and not p.has_disallowed_options
        and not (p.flags._value_ & _DISQUALIFYING_BITS)
    )
