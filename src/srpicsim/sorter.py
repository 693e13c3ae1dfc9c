"""Per-flow block sorter for the interrupt-coalesced receive path.

Each TCP stream gets a manager holding three ordered lists:

* ``curr_list`` — the contiguous in-sequence run, grown by tail appends;
* ``prev_list`` — out-of-order packets below the next expected sequence;
* ``after_list`` — out-of-order packets above it.

``SrpicEngine.ingest`` is the one way in, and it routes each packet in
one frame.  A packet costs one append when it opens a block or arrives
at ``next_exp``; when arrivals stay in order (drops alone, as in
``table5_analog``) every packet does.  After a block's first packet ahead
of its turn, only a packet that fills the gap at ``next_exp`` appends, and
the rest take ``_sorted_insert``: on ``table4_analog`` (seed 1, 1 s) 88%
of the sorter arm's packets at beta 0.002 and 86% at beta 0.01, though
60% and 31% of all packets land at the tail of their list.

``ingest`` flushes a manager (``prev ++ curr ++ after``, then reinit) when
it holds the engine's ``block_size`` packets, and every manager when the
global packet count reaches the ring-buffer size, so no flow stalls
another flow's delivery beyond one ring of service time; ``end_cycle``
flushes every manager at the end of each coalescing cycle.

Serial order is ``packets.seq_cmp``'s, and suitability is
``packets.is_suitable``'s.  The per-packet paths write both out inline,
and the tests check each inline form against its definition.
"""

from __future__ import annotations

from .packets import _DISQUALIFYING_BITS, SEQ_HALF, SEQ_MOD, FlowKey, Packet

DEFAULT_BLOCK_SIZE = 32
DEFAULT_RINGBUFFER_SIZE = 512


def _sorted_insert(lst: list[Packet], p: Packet) -> None:
    # Insert keeping ascending seq order; equal keys keep arrival order.
    # Steps left past every q with seq_cmp(q.seq, seq) == 1, written out
    # inline.
    seq = p.seq
    i = len(lst)
    while i:
        q = lst[i - 1].seq
        if q == seq or (q - seq) % SEQ_MOD > SEQ_HALF:
            break
        i -= 1
    lst.insert(i, p)


class SrpicManager:
    """Sorter state for one flow; its engine routes packets into the lists
    and holds the block size.

    ``next_exp`` is meaningful only while ``packet_cnt`` > 0; the first
    packet of a block always seeds ``curr_list`` and defines it.
    """

    __slots__ = ("packet_cnt", "next_exp", "prev_list", "curr_list", "after_list")

    def __init__(self) -> None:
        self.packet_cnt = 0
        self.next_exp = 0
        self.prev_list: list[Packet] = []
        self.curr_list: list[Packet] = []
        self.after_list: list[Packet] = []

    def flush(self) -> list[Packet]:
        """Deliver held packets in prev, curr, after order and reinitialize."""
        out = self.prev_list + self.curr_list + self.after_list
        self.prev_list = []
        self.curr_list = []
        self.after_list = []
        self.packet_cnt = 0  # so the next packet seeds next_exp
        return out


class SrpicEngine:
    """Sorting engine over all flows seen on one receive path.

    Single-threaded: callers must serialize access to one instance.
    Distinct instances share nothing.
    """

    def __init__(
        self,
        block_size: int = DEFAULT_BLOCK_SIZE,
        ringbuffer_size: int = DEFAULT_RINGBUFFER_SIZE,
    ):
        if block_size < 1:
            raise ValueError("block_size must be >= 1")
        if ringbuffer_size < 1:
            raise ValueError("ringbuffer_size must be >= 1")
        self.block_size = block_size
        self.ringbuffer_size = ringbuffer_size
        self.managers: dict[FlowKey, SrpicManager] = {}  # in creation order
        self.global_packet_cnt = 0

    def ingest(self, p: Packet) -> list[Packet]:
        """Process one packet fetched from the ring; returns everything
        delivered upward at this point (possibly empty).

        Unsuitable packets bypass the sorter and come straight back.  A
        manager reaching ``block_size`` flushes inline; the global counter
        reaching ``ringbuffer_size`` flushes every manager.
        """
        # not is_suitable(p), written out inline.
        if p.is_fragment or p.has_disallowed_options or p.flags._value_ & _DISQUALIFYING_BITS:
            return [p]
        m = self.managers.get(p.flow)
        if m is None:
            m = self.managers[p.flow] = SrpicManager()
        # A block's first packet seeds curr_list and next_exp; after it, a
        # packet at next_exp appends and the rest go to prev or after.
        seq, n = p.seq, m.packet_cnt
        if not n or seq == m.next_exp:
            m.curr_list.append(p)
            m.next_exp = (seq + p.payload_len) % SEQ_MOD  # payload_end(p)
        elif (seq - m.next_exp) % SEQ_MOD > SEQ_HALF:  # seq_cmp(seq, next_exp) < 0
            _sorted_insert(m.prev_list, p)
        else:
            _sorted_insert(m.after_list, p)
        m.packet_cnt = n = n + 1
        out = m.flush() if n >= self.block_size else []
        self.global_packet_cnt += 1
        if self.global_packet_cnt >= self.ringbuffer_size:
            out += self.flush_all()
        return out

    def flush_all(self) -> list[Packet]:
        """Flush every manager in creation order; resets the global count.

        Empty managers are skipped: flushing one yields nothing and resets
        state that is already reset.
        """
        out: list[Packet] = []
        for m in self.managers.values():
            if m.packet_cnt:
                out.extend(m.flush())
        self.global_packet_cnt = 0
        return out

    # One function, two names, bound here: a subclass overriding flush_all
    # rebinds end_cycle too.  ingest calls flush_all, so a replacement of
    # end_cycle (tests'; on the class, perfbench's tracer and SorterAudit,
    # the benchmark's correctness check) sees cycle-end flushes only.
    end_cycle = flush_all
