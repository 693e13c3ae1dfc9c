"""Independent brute-force implementations used as oracles in tests.

These deliberately avoid the package's incremental algorithms: the
reordering checks restate the definitions as quadratic scans over plain
integers, and the coalescing walk steps one service quantum at a time.
The ``reference_*`` functions, ``ReferenceEngine``, ``ReferenceRing`` and
``ReferenceLoopSim`` are the straightforward earlier forms of code that
was since rewritten for speed or size; ``EagerTimerSim`` keeps the
retransmission timer as the textbook lazy-deletion timer, one queued
event per arming, in place of the run's one deadline;
``ShadowQueue`` rebuilds the sender's earlier queue of segment records
beside a run.
``reference_report`` is the whole-trace walk that kept one offset per
packet, and so holds the run's byte-range walk to an independent form.
``unwrapper`` is the one stated definition of the serial step that
``metrics`` writes out inline, and ``add_only_walk`` and
``add_only_reports`` feed ``metrics._RangeWalk`` through ``add`` alone, the
walks that the inline in-order steps must reproduce state for state.
``RecordingSim`` records the packet orders and the cycle sizes that a TCP
run does not keep, and ``first_copies`` and ``first_copy_reports`` feed
such whole orders through the run's ``metrics.FirstCopyReports``.
``sort_cycle`` runs one cycle's fetch order through a sorter engine.
``reference_draws`` draws a path's drops and delays one value at a time,
without ``channel.PathStreams``.  ``reordered_ratio_model`` and
``mean_extent_model`` are the closed forms of the share of packets a
jittered path reorders and of their mean reorder extent.
"""

import heapq
import math
import random
from bisect import bisect_left, bisect_right, insort
from collections import deque
from dataclasses import replace
from itertools import islice
from statistics import NormalDist

from srpicsim.coalescing import ReceivePath
from srpicsim.metrics import (
    FirstCopyReports,
    _RangeWalk,
    OverlappingSegmentsError,
    PartitionError,
    ReorderReport,
    classify_block_reordering,
    reorder_report,
)
from srpicsim.packets import (
    SEQ_HALF,
    SEQ_MOD,
    FlowKey,
    Packet,
    is_suitable,
    payload_end,
    seq_cmp,
)
from srpicsim.sorter import SrpicEngine, SrpicManager
from srpicsim.tcp import MSS, _StreamSim, sender_on_ack, sender_on_timeout, sender_start

FLOW = FlowKey(1, 2, 1000, 2000)


def make_trace(seqs, lens=None, flow=FLOW):
    lens = lens or [1] * len(seqs)
    return [
        Packet(flow=flow, seq=s, payload_len=l, send_index=i)
        for i, (s, l) in enumerate(zip(seqs, lens))
    ]


def brute_reordered_flags(trace):
    """A packet is reordered iff some earlier arrival's payload
    extends past this packet's first byte (cumulative-maximum form)."""
    flags = []
    for i, p in enumerate(trace):
        flags.append(any(q.seq + q.payload_len > p.seq for q in trace[:i]))
    return flags


def brute_reordered_count(trace):
    flags = brute_reordered_flags(trace)
    n = len(trace)
    return sum(flags), (sum(flags) / n if n else 0.0)


def brute_max_extent(trace):
    flags = brute_reordered_flags(trace)
    best = 0
    for i, p in enumerate(trace):
        if flags[i]:
            extent = sum(1 for q in trace[:i] if q.seq > p.seq)
            best = max(best, extent)
    return best


def brute_classify(trace, partition):
    block_of = []
    for b, length in enumerate(partition):
        block_of.extend([b] * length)
    flags = brute_reordered_flags(trace)
    intra = inter = 0
    for i, p in enumerate(trace):
        if not flags[i]:
            continue
        earlier_greater_blocks = {
            block_of[j] for j, q in enumerate(trace[:i]) if q.seq > p.seq
        }
        if earlier_greater_blocks - {block_of[i]}:
            inter += 1
        else:
            intra += 1
    return intra, inter


def first_empty(trace):
    """``send_index`` of the first packet with no payload, or None."""
    return next((p.send_index for p in trace if p.payload_len == 0), None)


def rejects_empty_payload(trace, partition, index):
    """True when each whole-trace function raises a plain ``ValueError``
    naming ``send_index=index`` on ``trace``, whole and cut by
    ``partition``."""
    calls = (
        lambda: reorder_report(trace),
        lambda: reorder_report(trace, partition),
        lambda: classify_block_reordering(trace, partition),
    )
    for call in calls:
        try:
            call()
        except ValueError as exc:
            if type(exc) is not ValueError or f"send_index={index} " not in str(exc):
                return False
        else:
            return False
    return True


def unwrapper():
    """The serial step: a function giving each sequence passed to it a
    plain-int offset ordered like ``seq_cmp``, its serial distance from the
    sequence before it, ``((seq - prev + 2**31) % 2**32) - 2**31``, added to
    that one's offset (the first from 0).  Valid while consecutive packets
    are less than 2**31 apart."""
    prev = off = 0

    def step(seq):
        nonlocal prev, off
        off += ((seq - prev + SEQ_HALF) % SEQ_MOD) - SEQ_HALF
        prev = seq
        return off

    return step


def walk_state(walk):
    """Every field of a ``metrics._RangeWalk``, by name."""
    return {name: getattr(walk, name) for name in _RangeWalk.__slots__}


def add_only_walk(trace, partition=None):
    """``metrics._walk`` with each packet placed by ``unwrapper`` and taken
    by ``_RangeWalk.add``, marked at each block's end."""
    walk = _RangeWalk()
    unwrap = unwrapper()
    packets = iter(trace)
    for length in [len(trace)] if partition is None else partition:
        for p in islice(packets, length):
            s = unwrap(p.seq)
            if not walk.add(s, s + p.payload_len):
                raise OverlappingSegmentsError(f"packet send_index={p.send_index}")
        walk.end_block()
    return walk


def add_only_reports(arrivals, deliveries):
    """``metrics.FirstCopyReports`` with each arrival placed by ``unwrapper``
    and each first copy taken by ``_RangeWalk.add``: the arrival and the
    delivery walks, and what ``arrive`` returns for each arrival."""
    pre, post = _RangeWalk(), _RangeWalk()
    unwrap = unwrapper()
    held, returned = {}, []
    for p in arrivals:
        s = unwrap(p.seq)
        kept = pre.add(s, s + p.payload_len)
        if kept:
            held[id(p)] = s
        returned.append(s if kept else None)
    for p in deliveries:
        s = held.pop(id(p), None)
        if s is not None:
            post.add(s, s + p.payload_len)
    return pre, post, returned


class _ReferenceWalk:
    """The next-expected walk over offsets, fed one packet at a time."""

    __slots__ = ("next_exp", "count", "seen", "best", "mark", "inter")

    def __init__(self):
        self.next_exp = -float("inf")
        self.count = self.best = self.inter = 0
        # Every offset so far, ascending.  A packet that is not reordered
        # starts at or above every one of them, so it appends.
        self.seen = []
        self.mark = -float("inf")  # seen[-1] at the last end_block()

    def add(self, off, length):
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

    def end_block(self):
        if self.seen:
            self.mark = self.seen[-1]

    def report(self, blocks=False):
        n, count, inter = len(self.seen), self.count, self.inter
        split = (count - inter, inter) if blocks else (None, None)
        return ReorderReport(n, count, count / n if n else 0.0, self.best, *split)


def reference_report(trace, partition=None):
    """``metrics.reorder_report`` as the walk that kept every packet's
    offset: a sort-based overlap check first, then the next-expected walk
    over one ascending offset per packet, marked with the largest offset
    at each block's end.  It accepts empty payloads at packet edges."""
    unwrap = unwrapper()
    offsets = [unwrap(p.seq) for p in trace]
    lens = [p.payload_len for p in trace]
    ranges = sorted((o, o + n) for o, n in zip(offsets, lens))
    for (s1, e1), (s2, e2) in zip(ranges, ranges[1:]):
        if s2 < e1:
            raise OverlappingSegmentsError(f"payload ranges [{s1},{e1}) and [{s2},{e2}) overlap")
    n = len(trace)
    blocks = partition is not None
    if not blocks:
        partition = (n,)
    elif any(b <= 0 for b in partition) or sum(partition) != n:
        raise PartitionError(f"block lengths {list(partition)} do not cover a {n}-packet trace")
    walk = _ReferenceWalk()
    pairs = zip(offsets, lens)
    for length in partition:
        for o, size in islice(pairs, length):
            walk.add(o, size)
        walk.end_block()
    return walk.report(blocks)


def naive_coalescing_blocks(arrivals, t_intr_us, quantum_us):
    """Literal quantum-by-quantum drain; returns per-cycle packet counts."""
    blocks = []
    i = 0
    n = len(arrivals)
    while i < n:
        start = arrivals[i]
        t = start + t_intr_us
        served = 0
        while True:
            t += quantum_us
            served += 1
            arrived = 0
            while i + arrived < n and arrivals[i + arrived] < t:
                arrived += 1
            if arrived - served <= 0:
                break
        blocks.append(served)
        i += served
    return blocks


def reference_first_copies(trace):
    """First-arriving copy of each payload range, against a sorted list of
    (start, end) tuples, one per kept packet."""
    kept = []
    intervals = []  # sorted, disjoint (start, end)
    for p in trace:
        s, e = p.seq, p.seq + p.payload_len
        i = bisect_left(intervals, (s,))
        if i < len(intervals) and intervals[i][0] < e:
            continue
        if i > 0 and intervals[i - 1][1] > s:
            continue
        insort(intervals, (s, e))
        kept.append(p)
    return kept


def first_copies(trace):
    """The first-arriving copy of each payload range, with its offset."""
    keep = FirstCopyReports().arrive
    kept = []
    offsets = []
    for p in trace:
        off = keep(p)
        if off is not None:
            kept.append(p)
            offsets.append(off)
    return kept, offsets


def first_copy_reports(arrivals, deliveries):
    """Reports on the first copies in arrival order and in delivery order.

    ``arrivals`` may hold retransmitted copies; an empty payload raises
    ``ValueError``.  ``deliveries`` holds the same packet objects, possibly
    fewer.
    """
    acc = FirstCopyReports()
    offsets = {}  # id -> offset, first copies not yet delivered
    for p in arrivals:
        s = acc.arrive(p)
        if s is not None:
            offsets[id(p)] = s
    for p in deliveries:
        acc.deliver(p, offsets.pop(id(p), None))
    return acc.reports()


def reference_mark_sacked(queue, blocks):
    """Mark every queued segment, one MSS long, that one SACK block covers.
    The sender's sequence numbers and SACK edges are unwrapped integers."""
    for bstart, bend in blocks:
        for seg in queue:
            if bstart <= seg.seq and seg.seq + MSS <= bend:
                seg.sacked = True


class ShadowRecord:
    """One segment of ``ShadowQueue``: its seq and the sender's two flags."""

    __slots__ = ("seq", "sacked", "retransmitted")

    def __init__(self, seq):
        self.seq = seq
        self.sacked = self.retransmitted = False


class ShadowQueue:
    """The sender's queue of segment records, one per unacknowledged
    segment, as the sender kept it before it kept only the flight's edges.
    It is rebuilt beside a run from what the sender is given and what it
    sends: ``sent`` appends each seq at or past the queue's own
    ``next_send_seq`` and flags any other as resent; ``ack`` marks what an
    ACK's SACK blocks cover, by ``reference_mark_sacked``, then pops every
    segment the ACK covers.  ``check`` asserts that a sender's two edges
    and two integers say what the records do, and that a sender in
    recovery has not sent less than its recovery point."""

    def __init__(self, next_send_seq):
        self.records = deque()
        self.next_send_seq = next_send_seq

    def sent(self, seqs):
        records = self.records
        for seq in seqs:
            if seq >= self.next_send_seq:
                assert seq == self.next_send_seq, (seq, self.next_send_seq)
                records.append(ShadowRecord(seq))
                self.next_send_seq = seq + MSS
            else:
                (resent,) = [r for r in records if r.seq == seq]
                resent.retransmitted = True

    def ack(self, ack):
        records = self.records
        reference_mark_sacked(records, ack.sack_blocks)
        while records and records[0].seq + MSS <= ack.ack_seq:
            records.popleft()

    def check(self, state):
        records = self.records
        above = list(islice(records, 1, None))
        assert [r.seq for r in records] == list(range(state.snd_una, state.next_send_seq, MSS))
        assert not any(r.retransmitted for r in above)
        assert (records[0].retransmitted if records else False) == (state.rtx_seq == state.snd_una)
        assert any(r.sacked for r in above) == (state.high_sacked >= state.snd_una + MSS)
        # high_sacked is the highest segment a block covered: in flight, the
        # highest marked record; below snd_una, none is marked.
        top = max((r.seq for r in records if r.sacked), default=None)
        assert top == (state.high_sacked if state.high_sacked >= state.snd_una else None)
        # recover_point was next_send_seq when recovery began, and
        # next_send_seq never decreases: a partial ACK leaves data in flight.
        assert not state.in_recovery or state.recover_point <= state.next_send_seq


def reference_sorted_insert(lst, p):
    """Insert ``p`` after every packet whose seq does not follow its own by
    ``seq_cmp``, scanning from the tail: equal keys keep arrival order."""
    i = len(lst)
    while i > 0 and seq_cmp(lst[i - 1].seq, p.seq) == 1:
        i -= 1
    lst.insert(i, p)


def reference_classify(offsets, flags, partition):
    """Intra/inter split by scanning every earlier packet of each
    reordered one: inter when an earlier, greater offset lies in another
    block."""
    n = len(flags)
    if any(b <= 0 for b in partition) or sum(partition) != n:
        raise PartitionError(
            f"block lengths {list(partition)} do not cover a {n}-packet trace"
        )
    blocks = []
    for b, length in enumerate(partition):
        blocks.extend([b] * length)
    intra = inter = 0
    for i, reordered in enumerate(flags):
        if not reordered:
            continue
        cross = any(
            offsets[j] > offsets[i] and blocks[j] != blocks[i] for j in range(i)
        )
        if cross:
            inter += 1
        else:
            intra += 1
    return intra, inter


def reference_draws(cfg):
    """Endless ``(dropped, delay)`` pairs of a path, drawn one per packet.

    The drop is ``random() < drop_rate`` on the ``f"{seed}:drop"`` stream,
    and a rate of zero draws nothing.  The delay is the mean plus the
    std-dev times the standard normal quantile of ``random()`` on the
    ``f"{seed}:delay"`` stream; a uniform of exactly 0.0 (outside the
    quantile's domain) and a negative draw give 0.0, and a std-dev of
    zero gives the mean and draws nothing.
    """
    drop_rng = random.Random(f"{cfg.seed}:drop")
    delay_rng = random.Random(f"{cfg.seed}:delay")
    mean = cfg.alpha_ms * 1000.0
    std = cfg.beta * mean
    standard = NormalDist()
    while True:
        dropped = drop_rng.random() < cfg.drop_rate if cfg.drop_rate > 0.0 else False
        delay = mean
        if std > 0.0:
            u = delay_rng.random()
            d = mean + std * standard.inv_cdf(u) if u != 0.0 else 0.0
            delay = d if d > 0.0 else 0.0
        yield dropped, delay


def reordered_ratio_model(alpha_ms, beta, spacing_us, points=4001):
    """The expected share of packets reordered, by RFC 4737's next-expected
    walk, when packets sent ``spacing_us`` apart take i.i.d. delays drawn
    from ``N(alpha, (beta * alpha)**2)``, ``alpha`` in ms.

    A packet is reordered exactly when a later-sent packet arrives first.
    Given its own delay offset ``d``, the ``k``-th packet after it does so
    with probability ``Phi((d - k g) / sigma)``, independently over ``k``;
    so the share is ``1 - integral phi_sigma(d) prod_k (1 - Phi((d - k g)
    / sigma)) dd``.  The integral takes the trapezoid rule on ``points``
    points over +-8 sigma, and the product stops at ``k g > 16 sigma``,
    where every factor left is 1 to within ``Phi(-8)``.  The clamp of
    negative delays at zero is ignored: at ``beta <= 0.1`` it lies 10 sigma
    below the mean.
    """
    sigma = beta * alpha_ms * 1000.0
    noise = NormalDist(0.0, sigma)
    width = 8.0 * sigma
    step = 2.0 * width / (points - 1)
    later = range(1, int(2.0 * width / spacing_us) + 2)
    total = 0.0
    for i in range(points):
        d = -width + i * step
        in_order = noise.pdf(d)
        for k in later:
            in_order *= 1.0 - noise.cdf(d - k * spacing_us)
        total += in_order / 2.0 if i in (0, points - 1) else in_order
    return 1.0 - step * total


def mean_extent_model(alpha_ms, beta, spacing_us):
    """The expected reorder extent of a packet, reordered or not, under
    ``reordered_ratio_model``'s channel: ``sum_k Phi(-k g / (sigma
    sqrt 2))`` over ``k >= 1``.

    A packet's extent is its count of later-sent packets that arrive
    first.  The ``k``-th packet after it does so when its delay falls
    more than ``k g`` below the packet's own, and the difference of two
    i.i.d. delays is ``N(0, 2 sigma**2)``.  The sum stops at ``k g > 16
    sigma sqrt 2``, where a term is below ``Phi(-16)``.
    """
    spread = beta * alpha_ms * 1000.0 * math.sqrt(2.0)
    std = NormalDist()
    total, k = 0.0, 1
    while k * spacing_us <= 16.0 * spread:
        total += std.cdf(-k * spacing_us / spread)
        k += 1
    return total


def reference_apply_path(trace, cfg):
    """Path emulation copying each survivor with ``dataclasses.replace``,
    with the draws of ``reference_draws``."""
    survivors = []
    for p, (dropped, delay) in zip(trace, reference_draws(cfg)):
        if dropped:
            continue
        survivors.append(replace(p, arrival_time=p.send_time + delay))
    survivors.sort(key=lambda p: (p.arrival_time, p.send_index))
    return survivors


def sort_cycle(engine, fetched):
    """One coalescing cycle through the sorter: ``ingest`` on each fetched
    packet, then ``end_cycle``, as ``ReceivePath`` calls them."""
    out = [q for p in fetched for q in engine.ingest(p)]
    return out + engine.end_cycle()


class ReferenceEngine(SrpicEngine):
    """Sorter engine with the plain ``ingest``/``flush_all`` pair: every
    packet looks its manager up through ``dict.setdefault``, is routed by
    ``seq_cmp`` against the block's next expected sequence and inserted by
    ``reference_sorted_insert``, and flushes its manager when it holds a
    block; every manager is flushed, empty or not."""

    def ingest(self, p):
        if not is_suitable(p):
            return [p]
        m = self.managers.setdefault(p.flow, SrpicManager())
        c = seq_cmp(p.seq, m.next_exp) if m.packet_cnt else 0
        if c == 0:
            m.curr_list.append(p)
            m.next_exp = payload_end(p)
        else:
            reference_sorted_insert(m.prev_list if c < 0 else m.after_list, p)
        m.packet_cnt += 1
        out = m.flush() if m.packet_cnt >= self.block_size else []
        self.global_packet_cnt += 1
        if self.global_packet_cnt >= self.ringbuffer_size:
            out = out + self.flush_all()
        return out

    def flush_all(self):
        out = []
        for m in self.managers.values():
            out.extend(m.flush())
        self.global_packet_cnt = 0
        return out

    end_cycle = flush_all  # SrpicEngine's is bound to its own flush_all


class ReferenceRing:
    """The receive path that served its ring one fetch at a time: a deque
    of arrived packets and the instant ``svc_t`` of the next fetch (``inf``
    while idle).  ``service`` fetches the head and, when that empties the
    ring, flushes the engine and counts the cycle.  It hands on the same
    packets, stamped and tagged the same way, as
    ``coalescing.ReceivePath``."""

    def __init__(self, params, engine=None):
        self.quantum_us = params.quantum_us
        self.t_intr_us = params.t_intr_us
        self.engine = engine
        self.ring = deque()
        self.svc_t = float("inf")
        self.cycles = 0
        self.cycle_packets = 0
        self._served = 0
        self.max_hold_us = 0.0
        self._held = {}  # id -> (fetched_at, tag)

    def arrive(self, p, now, tag=None):
        if not self.ring:
            self.svc_t = now + self.t_intr_us + self.quantum_us
        self.ring.append((p, tag))

    def service(self, deliver):
        now = self.svc_t
        p, tag = self.ring.popleft()
        self._served += 1
        engine = self.engine
        if engine is None:
            deliver(p, now, now, tag)
        else:
            self._held[id(p)] = now, tag
            emitted = engine.ingest(p)
            if not self.ring:
                emitted = emitted + engine.end_cycle()
            for held in emitted:
                fetched_at, tag = self._held.pop(id(held))
                self.max_hold_us = max(self.max_hold_us, now - fetched_at)
                deliver(held, fetched_at, now, tag)
        if self.ring:
            self.svc_t = now + self.quantum_us
        else:
            self.cycles += 1
            self.cycle_packets += self._served
            self._served = 0
            self.svc_t = float("inf")


class _ReferenceRingSim(_StreamSim):
    """TCP stream on a ``ReferenceRing``, which its own loop serves."""

    def __init__(self, *args):
        super().__init__(*args)
        self.hard_stop_us = self.cfg.hard_stop_us
        self.path = ReferenceRing(self.cfg.coalescing, self.path.engine)


class ReferenceLoopSim(_ReferenceRingSim):
    """TCP stream run by the loop that served the ring one fetch at a time:
    it takes the earliest of the next fetch, the heap top and the timeout,
    with ties in that order.  It records every packet it hands to the
    receiver, in delivery order.  It runs on one heap alone: at the top of
    each iteration it moves the items its pushes left in ``_run`` into
    ``_heap``."""

    def __init__(self, *args):
        super().__init__(*args)
        self.deliveries = []

    def _deliver_one(self, p, stamp, now, s):
        self.deliveries.append(p)
        super()._deliver_one(p, stamp, now, s)

    def run(self):
        for seq in sender_start(self.sender, 0.0):
            self._transmit(seq)
        self._arm_rto()
        heap, run, path, hard_stop = self._heap, self._run, self.path, self.hard_stop_us
        while True:
            while run:
                heapq.heappush(heap, run.popleft())
            t = path.svc_t
            rto_t = self._rto_t
            top = heap[0][0] if heap else float("inf")
            if top < t and top <= rto_t:
                t, prio, _n, _kind, payload = heapq.heappop(heap)
                if t > hard_stop:
                    break
                self.now = t
                if prio == 1:  # a packet arrival
                    path.arrive(payload, t, self.reorder.arrive(payload))
                else:
                    before = self.sender.snd_una
                    for seq in sender_on_ack(self.sender, payload, t):
                        self._transmit(seq)
                    if self.sender.snd_una != before:
                        self._arm_rto()
            elif rto_t < t:
                if rto_t > hard_stop:
                    break
                self.now = rto_t
                for seq in sender_on_timeout(self.sender, rto_t):
                    self._transmit(seq)
                self._arm_rto()
            elif t > hard_stop:
                break
            else:
                self.now = t
                path.service(self._deliver_one)
        return self._metrics()


class EagerTimerSim(_ReferenceRingSim):
    """TCP stream whose retransmission timer is the textbook lazy-deletion
    timer: each arming queues one timeout event carrying its arming
    number, and a popped event fires only if it belongs to the latest
    arming; the others were superseded.  Disarming supersedes them all.

    Timeouts sort after packet and ACK arrivals at one instant (heap
    priority 3), and ring service comes before every heap event.  The loop
    below is the two-source loop (ring service, then the heap) that this
    timer ran under, dispatching on each item's kind through a table of
    handlers, on one heap alone: at the top of each iteration it moves the
    items its pushes left in ``_run`` into ``_heap``.
    """

    _armings = 0  # the latest arming's number

    def _on_arrival(self, p):
        self.path.arrive(p, self.now, self.reorder.arrive(p))

    def _on_ack(self, ack):
        before = self.sender.snd_una
        for seq in sender_on_ack(self.sender, ack, self.now):
            self._transmit(seq)
        if self.sender.snd_una != before:
            self._arm_rto()

    def _arm_rto(self):
        self._armings += 1
        if self.sender.next_send_seq == self.sender.snd_una:
            return
        deadline = self.now + self.sender.rto_us()
        self._evseq += 1
        heapq.heappush(self._heap, (deadline, 3, self._evseq, "rto", self._armings))

    def _on_timeout_event(self, arming):
        if arming != self._armings:
            return
        for seq in sender_on_timeout(self.sender, self.now):
            self._transmit(seq)
        self._arm_rto()

    def run(self):
        for seq in sender_start(self.sender, 0.0):
            self._transmit(seq)
        self._arm_rto()
        handlers = {
            "arr": self._on_arrival,
            "ack": self._on_ack,
            "rto": self._on_timeout_event,
        }
        heap, run = self._heap, self._run
        path = self.path
        while True:
            while run:
                heapq.heappush(heap, run.popleft())
            t = path.svc_t
            if heap and heap[0][0] < t:
                t, _prio, _n, kind, payload = heapq.heappop(heap)
                if t > self.hard_stop_us:
                    break
                self.now = t
                handlers[kind](payload)
            elif t > self.hard_stop_us:
                break
            else:
                self.now = t
                path.service(self._deliver_one)
        return self._metrics()


class RecordingPath(ReceivePath):
    """Receive path that records every packet that arrives, in arrival
    order, and the size of each cycle as it ends."""

    def __init__(self, *args):
        super().__init__(*args)
        self.arrivals = []
        self.cycle_sizes = []

    def arrive(self, p, now, deliver=None, tag=None):
        self.arrivals.append(p)
        return super().arrive(p, now, deliver, tag)

    def end_cycle(self, deliver=None):
        before = self.cycle_packets
        super().end_cycle(deliver)
        self.cycle_sizes.append(self.cycle_packets - before)


class RecordingSim(_StreamSim):
    """TCP stream that records every packet it hands to the receiver, in
    delivery order, and whose ``RecordingPath`` records every packet that
    arrives, in arrival order (as ``arrivals``), and the size of each
    cycle."""

    def __init__(self, *args):
        super().__init__(*args)
        self.path = RecordingPath(self.cfg.coalescing, self.path.engine, self.cfg.hard_stop_us)
        self.arrivals = self.path.arrivals
        self.deliveries = []

    def _deliver_one(self, p, stamp, now, s):
        self.deliveries.append(p)
        super()._deliver_one(p, stamp, now, s)
