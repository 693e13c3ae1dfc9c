"""Per-flow block sorter for the interrupt-coalesced receive path.

Each TCP stream gets a manager holding three ordered lists:

* ``curr_list`` — the contiguous in-sequence run, grown by tail appends;
* ``prev_list`` — out-of-order packets below the next expected sequence;
* ``after_list`` — out-of-order packets above it.

Most packets arrive in sequence and cost one append.  A manager flushes
(``prev ++ curr ++ after``, then reinit) when it accumulates
``block_size`` packets; the engine additionally flushes every manager at
the end of each coalescing cycle and whenever the global packet count
reaches the ring-buffer size, so no flow can stall another flow's
delivery for longer than one ring worth of service time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .packets import FlowKey, Packet, is_suitable, payload_end, seq_cmp

DEFAULT_BLOCK_SIZE = 32
DEFAULT_RINGBUFFER_SIZE = 512


def _sorted_insert(lst: list[Packet], p: Packet) -> None:
    # Insert keeping ascending seq order; equal keys keep arrival order.
    i = len(lst)
    while i > 0 and seq_cmp(lst[i - 1].seq, p.seq) == 1:
        i -= 1
    lst.insert(i, p)


@dataclass
class SrpicManager:
    """Sorter state for one flow.

    ``next_exp`` is meaningful only while ``packet_cnt`` > 0; the first
    packet of a block always seeds ``curr_list`` and defines it.
    """

    block_size: int = DEFAULT_BLOCK_SIZE
    packet_cnt: int = 0
    next_exp: int = 0
    prev_list: list[Packet] = field(default_factory=list)
    curr_list: list[Packet] = field(default_factory=list)
    after_list: list[Packet] = field(default_factory=list)

    def add(self, p: Packet) -> None:
        """Route one suitable packet into the three lists (no flush check)."""
        if self.packet_cnt == 0:
            self.curr_list.append(p)
            self.next_exp = payload_end(p)
            self.packet_cnt = 1
            return
        c = seq_cmp(p.seq, self.next_exp)
        if c < 0:
            _sorted_insert(self.prev_list, p)
        elif c == 0:
            self.curr_list.append(p)
            self.next_exp = payload_end(p)
        else:
            _sorted_insert(self.after_list, p)
        self.packet_cnt += 1

    def flush(self) -> list[Packet]:
        """Deliver held packets in prev, curr, after order and reinitialize."""
        out = self.prev_list + self.curr_list + self.after_list
        self.prev_list = []
        self.curr_list = []
        self.after_list = []
        self.packet_cnt = 0
        self.next_exp = 0
        return out


def accept(manager: SrpicManager, p: Packet) -> list[Packet] | None:
    """Feed one suitable packet to a manager; returns the flushed block
    when this packet filled it, else None."""
    manager.add(p)
    if manager.packet_cnt >= manager.block_size:
        return manager.flush()
    return None


class SrpicEngine:
    """Sorting engine over all flows seen on one receive path.

    Single-threaded: callers must serialize access to one instance.
    Distinct instances share nothing.

    ``evict_idle_after``: if set, a manager that stays empty for that many
    consecutive cycles is dropped (it is recreated on the flow's next
    packet).  Off by default; eviction never affects packet ordering
    because only empty managers are evicted.
    """

    def __init__(
        self,
        block_size: int = DEFAULT_BLOCK_SIZE,
        ringbuffer_size: int = DEFAULT_RINGBUFFER_SIZE,
        evict_idle_after: int | None = None,
    ):
        if block_size < 1:
            raise ValueError("block_size must be >= 1")
        if ringbuffer_size < 1:
            raise ValueError("ringbuffer_size must be >= 1")
        self.block_size = block_size
        self.ringbuffer_size = ringbuffer_size
        self.evict_idle_after = evict_idle_after
        self.managers: dict[FlowKey, SrpicManager] = {}
        self.manager_order: list[FlowKey] = []
        self.global_packet_cnt = 0
        self._idle_cycles: dict[FlowKey, int] = {}
        self._active_this_cycle: set[FlowKey] = set()

    def find_or_create_manager(self, key: FlowKey) -> SrpicManager:
        m = self.managers.get(key)
        if m is None:
            m = SrpicManager(block_size=self.block_size)
            self.managers[key] = m
            self.manager_order.append(key)
            self._idle_cycles[key] = 0
        return m

    def ingest(self, p: Packet) -> list[Packet]:
        """Process one packet fetched from the ring; returns everything
        delivered upward at this point (possibly empty).

        Unsuitable packets bypass the sorter and come straight back.  A
        manager reaching ``block_size`` flushes inline; the global counter
        reaching ``ringbuffer_size`` flushes every manager.
        """
        if not is_suitable(p):
            return [p]
        m = self.find_or_create_manager(p.flow)
        self._active_this_cycle.add(p.flow)
        out = accept(m, p) or []
        self.global_packet_cnt += 1
        if self.global_packet_cnt >= self.ringbuffer_size:
            out = out + self.flush_all()
        return out

    def flush_all(self) -> list[Packet]:
        """Flush every manager in creation order; resets the global count."""
        out: list[Packet] = []
        for key in self.manager_order:
            out.extend(self.managers[key].flush())
        self.global_packet_cnt = 0
        return out

    def end_cycle(self) -> list[Packet]:
        """End-of-coalescing flush: everything still held goes upward."""
        out = self.flush_all()
        if self.evict_idle_after is not None:
            for key in list(self.manager_order):
                if key in self._active_this_cycle:
                    self._idle_cycles[key] = 0
                    continue
                self._idle_cycles[key] += 1
                if self._idle_cycles[key] >= self.evict_idle_after:
                    del self.managers[key]
                    del self._idle_cycles[key]
                    self.manager_order.remove(key)
        self._active_this_cycle.clear()
        return out

    def process_cycle(self, fetched: list[Packet]) -> list[Packet]:
        """Run one coalescing cycle's fetch order through the sorter.

        Output is a permutation of the input: unsuitable packets appear
        at their fetch position, sorted blocks at their flush points, and
        the cycle ends with a flush of all managers.
        """
        out: list[Packet] = []
        for p in fetched:
            out.extend(self.ingest(p))
        out.extend(self.end_cycle())
        return out
