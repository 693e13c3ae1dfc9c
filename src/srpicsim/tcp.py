"""Simplified TCP sender/receiver pair over the emulated receive path.

The sender is Reno-flavored AIMD: slow start, congestion avoidance,
dupthresh-triggered fast retransmit with a simplified halving recovery,
and a timeout backstop.  The receiver generates one cumulative ACK per
data segment (no delayed ACKs), duplicate ACKs for out-of-order data,
and up to three SACK blocks, most recently changed first.

``dupthresh`` is either static (always 3) or adaptive: when a hole fills
through a late original rather than a retransmission, the threshold is
raised toward the observed duplicate-ACK count (capped at 127) and decays
back toward 3 over quiet periods.  A retransmission answered faster than
a fraction of the minimum RTT is treated as spurious evidence as well.

One transfer runs as a deterministic event loop: sender window fills ->
forward path delay/drop -> ring-buffer coalescing cycles -> optional
block sorter -> receiver -> reverse path -> ACK processing.  Sorter hold
times are tracked and checked against the per-block delay bound (which
the whole-ring bound never undercuts) on every run, but delivery
timestamps ignore the hold (it is microseconds against millisecond RTTs),
so a run whose arrivals are already in order is event-for-event identical
with the sorter on or off.

The heap holds only packet arrivals, ACK arrivals and retransmission
timeouts.  The ring drain runs inline: the loop keeps the next service
completion in one attribute and serves the ring whenever that instant is
not later than the next heap event, so service wins every tie.  The
retransmission timer is lazy: re-arming moves a deadline attribute, and
an event is pushed only when the deadline moves earlier than every
timeout event already queued; a queued timeout that finds the deadline
moved later queues one event at the new deadline.
"""

from __future__ import annotations

import hashlib
import heapq
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from .channel import PathStreams
from .coalescing import hold_delay_bound
from .metrics import ReorderReport, _report_offsets
from .packets import FlowKey, Packet, SEQ_HALF, SEQ_MOD, TcpFlags, seq_cmp
from .sorter import SrpicEngine

if TYPE_CHECKING:
    from .scenario import ScenarioConfig

MSS = 1448
INITIAL_CWND = 10.0
MIN_RTO_US = 200_000.0
DUPTHRESH_MIN = 3
DUPTHRESH_MAX = 127
# Retransmission answered faster than this fraction of min RTT cannot have
# been the retransmitted copy returning; the hole was filled by a late
# original, i.e. reordering.
SPURIOUS_RTT_FRACTION = 0.8
DRAIN_GRACE_US = 2_000_000.0


class SimulationError(RuntimeError):
    """An internal invariant (e.g. a sorter hold-delay bound) was violated."""


@dataclass(slots=True)
class SegmentRecord:
    seq: int
    length: int
    sacked: bool = False
    retransmitted: bool = False


@dataclass
class SenderState:
    mode: str = "static"  # "static" | "adaptive"
    max_cwnd: float = 64.0
    data_deadline_us: float = float("inf")
    # With SACK on, a duplicate ACK carrying no SACK block brings no new
    # information (e.g. the echo of a stale retransmission) and must not
    # count toward dupthresh.
    sack_aware: bool = False

    next_send_seq: int = 0
    snd_una: int = 0
    cwnd: float = INITIAL_CWND
    ssthresh: float = 1e12
    dupthresh: int = DUPTHRESH_MIN
    dup_ack_count: int = 0
    retransmit_queue: deque[SegmentRecord] = field(default_factory=deque)
    rtt_estimate: float = 0.0  # smoothed, microseconds
    min_rtt: float | None = None
    in_recovery: bool = False
    recover_point: int = 0
    last_rtx_time: float | None = None
    last_adapt_time: float = 0.0
    rto_backoff: int = 1

    pkts_retrans: int = 0
    dup_acks_in: int = 0
    sack_blocks_rcvd: int = 0
    segments_sent: int = 0
    bytes_acked: int = 0  # unwrapped: grows past 2**32

    def __post_init__(self):
        self.cwnd = min(self.cwnd, self.max_cwnd)

    def rto_us(self) -> float:
        return max(MIN_RTO_US, 2.0 * self.rtt_estimate) * self.rto_backoff


@dataclass
class ReceiverState:
    sack_enabled: bool = False
    isn: int = 0

    dup_acks_sent: int = 0
    delivered_bytes: int = 0

    _nxt: int = 0  # unwrapped next expected byte
    _ooo: list[list] = field(default_factory=list)  # [start, end, touch], unwrapped
    _touch: int = 0

    def __post_init__(self):
        self._nxt = self.isn

    @property
    def rcv_nxt(self) -> int:
        return self._nxt % SEQ_MOD

    @property
    def out_of_order_queue(self) -> list[tuple[int, int]]:
        return [(s % SEQ_MOD, e % SEQ_MOD) for s, e, _ in self._ooo]


@dataclass(slots=True)
class AckRecord:
    ack_seq: int
    sack_blocks: tuple[tuple[int, int], ...] = ()
    is_duplicate: bool = False
    # Send timestamp of the triggering data segment, echoed back for RTT
    # sampling (stands in for the TCP timestamp option).
    echo_send_time: float | None = None


@dataclass(frozen=True)
class TransferMetrics:
    goodput_proxy: float  # acknowledged bytes per simulated second
    pkts_retrans: int
    dup_acks_in: int
    sack_blocks_rcvd: int
    reorder_pre: ReorderReport
    reorder_post: ReorderReport
    mean_block_size: float
    max_hold_delay_us: float
    segments_sent: int
    bytes_acked: int
    dup_acks_sent: int
    dupthresh_final: int


@dataclass(frozen=True)
class TransferResult:
    streams: list[TransferMetrics]
    aggregate: TransferMetrics


def receiver_on_segment(state: ReceiverState, seg: Packet) -> AckRecord:
    """Process one data segment; returns the ACK it generates.

    In-order data advances the cumulative point through any now-contiguous
    out-of-order ranges.  Anything else produces a duplicate ACK; with
    SACK enabled it carries up to three blocks, most recently changed
    first.  Stale data entirely below the cumulative point is also
    answered with a duplicate ACK.
    """
    off = ((seg.seq - state._nxt) + SEQ_HALF) % SEQ_MOD - SEQ_HALF
    start = state._nxt + off
    end = start + seg.payload_len
    advanced = False

    if end <= state._nxt:
        pass  # stale duplicate, nothing to remember
    elif start <= state._nxt:
        old = state._nxt
        state._nxt = max(state._nxt, end)
        while state._ooo and state._ooo[0][0] <= state._nxt:
            state._nxt = max(state._nxt, state._ooo.pop(0)[1])
        state.delivered_bytes += state._nxt - old
        advanced = True
    else:
        state._touch += 1
        _ooo_insert(state._ooo, start, end, state._touch)

    blocks: tuple[tuple[int, int], ...] = ()
    if state.sack_enabled and state._ooo:
        recent = sorted(state._ooo, key=lambda r: -r[2])[:3]
        blocks = tuple((s % SEQ_MOD, e % SEQ_MOD) for s, e, _ in recent)
    if not advanced:
        state.dup_acks_sent += 1
    return AckRecord(
        ack_seq=state.rcv_nxt,
        sack_blocks=blocks,
        is_duplicate=not advanced,
        echo_send_time=seg.send_time,
    )


def _ooo_insert(ooo: list[list], start: int, end: int, touch: int) -> None:
    # Insert [start, end) keeping ranges sorted, disjoint and merged.
    i = 0
    while i < len(ooo) and ooo[i][1] < start:
        i += 1
    j = i
    while j < len(ooo) and ooo[j][0] <= end:
        start = min(start, ooo[j][0])
        end = max(end, ooo[j][1])
        j += 1
    ooo[i:j] = [[start, end, touch]]


def sender_on_ack(state: SenderState, ack: AckRecord, now: float) -> list[tuple]:
    """Apply one ACK; returns the actions it causes.

    Actions are ``("transmit", seq, len)`` and ``("retransmit", seq, len)``
    in the order they should happen.
    """
    actions: list[tuple] = []
    if ack.sack_blocks:
        state.sack_blocks_rcvd += len(ack.sack_blocks)
        _mark_sacked(state, ack.sack_blocks)

    c = seq_cmp(ack.ack_seq, state.snd_una)
    if c > 0:
        _on_advance(state, ack, now, actions)
    elif c == 0 and ack.is_duplicate:
        _on_dupack(state, ack, now, actions)
    # acks below snd_una are stale copies overtaken by newer ones: ignored

    _fill_window(state, now, actions)
    return actions


def _mark_sacked(state: SenderState, blocks) -> None:
    # A segment is sacked when one block covers it: seq_cmp(seq, start) >= 0
    # and seq_cmp(end, block end) <= 0, written out inline.
    for seg in state.retransmit_queue:
        if seg.sacked:
            continue
        seq = seg.seq
        end = (seq + seg.length) % SEQ_MOD
        for bstart, bend in blocks:
            if (seq - bstart) % SEQ_MOD <= SEQ_HALF and (
                end == bend or (end - bend) % SEQ_MOD > SEQ_HALF
            ):
                seg.sacked = True
                break


def _on_dupack(state: SenderState, ack: AckRecord, now: float, actions: list) -> None:
    state.dup_acks_in += 1
    if state.sack_aware and not ack.sack_blocks:
        return
    state.dup_ack_count += 1
    if (
        not state.in_recovery
        and state.dup_ack_count >= state.dupthresh
        and state.retransmit_queue
    ):
        seg = state.retransmit_queue[0]
        seg.retransmitted = True
        state.last_rtx_time = now
        state.pkts_retrans += 1
        state.ssthresh = max(state.cwnd / 2.0, 2.0)
        state.cwnd = state.ssthresh
        state.in_recovery = True
        state.recover_point = state.next_send_seq
        actions.append(("retransmit", seg.seq, seg.length))


def _on_advance(state: SenderState, ack: AckRecord, now: float, actions: list) -> None:
    head_was_retransmitted = (
        state.retransmit_queue[0].retransmitted if state.retransmit_queue else False
    )
    was_dupacks = state.dup_ack_count

    acked_segments = 0
    q = state.retransmit_queue
    while q and seq_cmp((q[0].seq + q[0].length) % SEQ_MOD, ack.ack_seq) <= 0:
        q.popleft()
        acked_segments += 1
    state.bytes_acked += (ack.ack_seq - state.snd_una) % SEQ_MOD
    state.snd_una = ack.ack_seq
    state.rto_backoff = 1

    if ack.echo_send_time is not None:
        sample = now - ack.echo_send_time
        if sample >= 0:
            if state.rtt_estimate == 0.0:
                state.rtt_estimate = sample
            else:
                state.rtt_estimate = 0.875 * state.rtt_estimate + 0.125 * sample
            if state.min_rtt is None or sample < state.min_rtt:
                state.min_rtt = sample

    if state.mode == "adaptive" and was_dupacks > 0:
        # The hole at snd_una just filled.  If we never retransmitted it, or
        # the "answer" came back impossibly fast, the data was reordered,
        # not lost: tolerate that depth of duplicate ACKs from now on.
        spurious = not head_was_retransmitted or (
            state.last_rtx_time is not None
            and state.min_rtt is not None
            and now - state.last_rtx_time < SPURIOUS_RTT_FRACTION * state.min_rtt
        )
        if spurious:
            state.dupthresh = min(DUPTHRESH_MAX, max(state.dupthresh, was_dupacks + 1))
            state.last_adapt_time = now
    state.dup_ack_count = 0

    if state.in_recovery:
        if seq_cmp(state.snd_una, state.recover_point) >= 0:
            state.in_recovery = False
            state.cwnd = state.ssthresh
        elif state.retransmit_queue:
            # Partial ack: retransmit the next hole rather than waiting for
            # the timeout, but only with evidence that it is actually lost.
            # With SACK that means data above the hole was selectively
            # acked; without SACK, pace by the RTT since holes fill one
            # round trip apart and faster "partial" acks are just echoes of
            # data that was never lost.
            seg = state.retransmit_queue[0]
            if state.sack_aware:
                queue_iter = iter(state.retransmit_queue)
                next(queue_iter)
                evidence = any(s.sacked for s in queue_iter)
            else:
                pace = 0.5 * (
                    state.min_rtt if state.min_rtt is not None else MIN_RTO_US
                )
                evidence = (
                    state.last_rtx_time is None
                    or now - state.last_rtx_time >= pace
                )
            if not seg.retransmitted and evidence:
                seg.retransmitted = True
                state.last_rtx_time = now
                state.pkts_retrans += 1
                actions.append(("retransmit", seg.seq, seg.length))

    if not state.in_recovery:
        for _ in range(acked_segments):
            if state.cwnd < state.ssthresh:
                state.cwnd += 1.0
            else:
                state.cwnd += 1.0 / state.cwnd
        if state.cwnd > state.max_cwnd:
            state.cwnd = state.max_cwnd

    if state.mode == "adaptive" and state.dupthresh > DUPTHRESH_MIN:
        if now - state.last_adapt_time >= state.rto_us():
            state.dupthresh -= 1
            state.last_adapt_time = now


def sender_on_timeout(state: SenderState, now: float) -> list[tuple]:
    """Retransmission timeout: resend the oldest segment, collapse cwnd."""
    if not state.retransmit_queue:
        return []
    seg = state.retransmit_queue[0]
    seg.retransmitted = True
    state.last_rtx_time = now
    state.pkts_retrans += 1
    state.ssthresh = max(state.cwnd / 2.0, 2.0)
    state.cwnd = 1.0
    state.in_recovery = False
    state.dup_ack_count = 0
    state.rto_backoff = min(state.rto_backoff * 2, 64)
    return [("retransmit", seg.seq, seg.length)]


def _fill_window(state: SenderState, now: float, actions: list) -> None:
    window = min(int(state.cwnd), int(state.max_cwnd))
    while len(state.retransmit_queue) < window and now < state.data_deadline_us:
        seq = state.next_send_seq % SEQ_MOD
        state.retransmit_queue.append(SegmentRecord(seq=seq, length=MSS))
        state.next_send_seq += MSS
        actions.append(("transmit", seq, MSS))


def sender_start(state: SenderState, now: float = 0.0) -> list[tuple]:
    actions: list[tuple] = []
    _fill_window(state, now, actions)
    return actions


# ---------------------------------------------------------------------------
# Event-driven transfer simulation
# ---------------------------------------------------------------------------

# Heap priorities break ties at one instant.  Ring service, which is not
# on the heap, comes before all of them.
_PRIO_ARRIVAL = 1
_PRIO_ACK = 2
_PRIO_RTO = 3
_INF = float("inf")


def _derive_seed(run_seed: int, stream_id: int, label: str) -> int:
    digest = hashlib.sha256(f"{run_seed}:{stream_id}:{label}".encode()).hexdigest()
    return int(digest[:16], 16)


class _StreamSim:
    """One TCP stream over its own forward/reverse paths and receive ring."""

    def __init__(self, cfg: "ScenarioConfig", run_seed: int, stream_id: int, srpic_on: bool):
        self.cfg = cfg
        self.flow = FlowKey(1, 2, 40000 + stream_id, 5001)
        self.duration_us = cfg.duration * 1e6
        self.hard_stop_us = self.duration_us + DRAIN_GRACE_US
        self.spacing_us = cfg.segment_spacing_us
        self.quantum_us = cfg.coalescing.quantum_us
        self.t_intr_us = cfg.coalescing.t_intr_us

        self.fwd = PathStreams(
            replace(cfg.fwd, seed=_derive_seed(run_seed, stream_id, "fwd"))
        )
        self.rev = PathStreams(
            replace(cfg.rev, seed=_derive_seed(run_seed, stream_id, "rev"))
        )

        self.sender = SenderState(
            mode=cfg.sender_mode,
            max_cwnd=float(cfg.max_cwnd),
            data_deadline_us=self.duration_us,
            sack_aware=cfg.sack_enabled,
            next_send_seq=cfg.isn,
            snd_una=cfg.isn,
            recover_point=cfg.isn,
        )
        self.receiver = ReceiverState(sack_enabled=cfg.sack_enabled, isn=cfg.isn)
        self.engine = None
        if srpic_on:
            self.engine = SrpicEngine(cfg.srpic.block_size, cfg.srpic.ringbuffer_size)
        # Only the block bound is checked: SrpicSettings requires
        # ringbuffer_size >= block_size, so the whole-ring bound is never
        # the smaller one.
        self._block_bound_us = hold_delay_bound(
            cfg.srpic.block_size, cfg.coalescing.r_sn_pps
        )

        self.now = 0.0
        self._heap: list[tuple] = []
        self._evseq = 0
        self._rto_deadline = _INF
        # The expiry that passes the deadline check first, and the snd_una
        # snapshot of the arming it stands for.
        self._rto_fire = _INF
        self._rto_snapshot = 0
        self._rto_queued: list[float] = []  # queued timeout instants, latest first
        self.ring: deque[Packet] = deque()
        self._svc_t = _INF  # next ring service completion; inf while idle
        self._cycle_count = 0
        self.cycle_sizes: list[int] = []
        self._fetch_time: dict[int, float] = {}
        self.max_hold_us = 0.0
        self._last_send_time = -self.spacing_us
        self.arrival_trace: list[Packet] = []
        self.delivery_trace: list[Packet] = []

    # -- event plumbing ----------------------------------------------------

    def _push(self, t: float, prio: int, kind: str, payload=None) -> None:
        self._evseq += 1
        heapq.heappush(self._heap, (t, prio, self._evseq, kind, payload))

    def _emit_actions(self, actions: list[tuple]) -> None:
        for _kind, seq, length in actions:
            self._transmit(seq, length)

    def _transmit(self, seq: int, length: int) -> None:
        st = max(self.now, self._last_send_time + self.spacing_us)
        self._last_send_time = st
        self.sender.segments_sent += 1
        idx = self.sender.segments_sent
        dropped = self.fwd.next_dropped()
        delay = self.fwd.next_delay_us()
        if dropped:
            return
        p = Packet(
            flow=self.flow,
            seq=seq,
            payload_len=length,
            flags=TcpFlags.ACK,
            send_index=idx,
            send_time=st,
            arrival_time=st + delay,
        )
        self._push(p.arrival_time, _PRIO_ARRIVAL, "arr", p)

    def _arm_rto(self) -> None:
        # One authoritative timer: re-arming supersedes the previous deadline.
        if not self.sender.retransmit_queue:
            self._rto_deadline = _INF
            return
        deadline = self.now + self.sender.rto_us()
        # A timeout is due from 1e-9 before its deadline, so the expiry of
        # an earlier arming that falls in [deadline - 1e-9, deadline] still
        # fires first, and judges progress by its own snd_una snapshot.
        if not deadline - 1e-9 <= self._rto_fire <= deadline:
            self._rto_fire = deadline
            self._rto_snapshot = self.sender.snd_una
        self._rto_deadline = deadline
        self._queue_rto()

    def _queue_rto(self) -> None:
        # A timeout event already queued at or before the firing instant
        # will come back to it; only an earlier instant needs an event now.
        queued = self._rto_queued
        if not queued or self._rto_fire < queued[-1]:
            queued.append(self._rto_fire)
            self._push(self._rto_fire, _PRIO_RTO, "rto", self._rto_snapshot)

    # -- receive path -------------------------------------------------------

    def _on_arrival(self, p: Packet) -> None:
        self.arrival_trace.append(p)
        self.ring.append(p)
        if self._svc_t == _INF:
            self._cycle_count = 0
            self._svc_t = self.now + self.t_intr_us + self.quantum_us

    def _on_service(self) -> None:
        p = self.ring.popleft()
        self._cycle_count += 1
        if self.engine is not None:
            self._fetch_time[id(p)] = self.now
            self._deliver(self.engine.ingest(p))
        else:
            self._deliver_one(p, self.now)
        if self.ring:
            self._svc_t = self.now + self.quantum_us
        else:
            if self.engine is not None:
                self._deliver(self.engine.end_cycle())
            self.cycle_sizes.append(self._cycle_count)
            self._svc_t = _INF

    def _deliver(self, emitted: list[Packet]) -> None:
        for p in emitted:
            fetched_at = self._fetch_time.pop(id(p))
            hold = self.now - fetched_at
            if hold > self._block_bound_us + 1e-6:
                raise SimulationError(
                    f"sorter held a packet {hold:.3f}us, beyond its delay bound"
                )
            if hold > self.max_hold_us:
                self.max_hold_us = hold
            self._deliver_one(p, fetched_at)

    def _deliver_one(self, p: Packet, stamp: float) -> None:
        self.delivery_trace.append(p)
        ack = receiver_on_segment(self.receiver, p)
        dropped = self.rev.next_dropped()
        delay = self.rev.next_delay_us()
        if dropped:
            return
        self._push(max(self.now, stamp + delay), _PRIO_ACK, "ack", ack)

    # -- sender events -------------------------------------------------------

    def _on_ack(self, ack: AckRecord) -> None:
        before = self.sender.snd_una
        self._emit_actions(sender_on_ack(self.sender, ack, self.now))
        if self.sender.snd_una != before:
            self._arm_rto()

    def _on_rto(self, snapshot: int) -> None:
        self._rto_queued.pop()  # events leave the heap latest-queued first
        if not self.sender.retransmit_queue:
            self._rto_deadline = _INF
            return
        if self.now + 1e-9 < self._rto_deadline:
            self._queue_rto()  # re-armed since: wait for the new deadline
            return
        if self.sender.snd_una == snapshot:
            self._emit_actions(sender_on_timeout(self.sender, self.now))
        self._arm_rto()

    # -- main loop ------------------------------------------------------------

    def run(self) -> TransferMetrics:
        self._emit_actions(sender_start(self.sender, 0.0))
        self._arm_rto()
        handlers = {"arr": self._on_arrival, "ack": self._on_ack, "rto": self._on_rto}
        heap = self._heap
        hard_stop = self.hard_stop_us
        while True:
            t = self._svc_t
            if heap and heap[0][0] < t:
                t, _prio, _n, kind, payload = heapq.heappop(heap)
                if t > hard_stop:
                    break
                self.now = t
                handlers[kind](payload)
            elif t > hard_stop:  # also ends the run once nothing is pending
                break
            else:
                self.now = t
                self._on_service()
        return self._metrics()

    def _metrics(self) -> TransferMetrics:
        pre, post = _reorder_reports(self.arrival_trace, self.delivery_trace)
        bytes_acked = self.sender.bytes_acked
        duration_s = self.cfg.duration
        mean_block = (
            sum(self.cycle_sizes) / len(self.cycle_sizes) if self.cycle_sizes else 0.0
        )
        return TransferMetrics(
            goodput_proxy=bytes_acked / duration_s,
            pkts_retrans=self.sender.pkts_retrans,
            dup_acks_in=self.sender.dup_acks_in,
            sack_blocks_rcvd=self.sender.sack_blocks_rcvd,
            reorder_pre=pre,
            reorder_post=post,
            mean_block_size=mean_block,
            max_hold_delay_us=self.max_hold_us,
            segments_sent=self.sender.segments_sent,
            bytes_acked=bytes_acked,
            dup_acks_sent=self.receiver.dup_acks_sent,
            dupthresh_final=self.sender.dupthresh,
        )


def _first_copies(trace: list[Packet]) -> tuple[list[Packet], list[int]]:
    """Keep the first-arriving copy of each payload range.

    Retransmissions duplicate payload bytes; the reordering metrics are
    defined only on duplicate-free traces, so later copies are excluded.
    Payloads must be nonempty, as every simulated segment's is.

    Returns the kept packets and their unwrapped offsets, the same offsets
    ``metrics._unwrap`` gives the kept trace: the first packet sits at 0
    and each later one at its serial distance from the packet that arrived
    before it, so a trace may cross the 2**32 wrap any number of times.
    """
    kept: list[Packet] = []
    offsets: list[int] = []
    s = 0
    prev = trace[0].seq if trace else 0
    # Bytes already kept, as sorted disjoint ranges [starts[i], ends[i]).
    # Ranges that touch are merged, so the lists stay as short as the
    # number of holes.
    starts: list[int] = []
    ends: list[int] = []
    for p in trace:
        seq = p.seq
        s += (seq - prev + SEQ_HALF) % SEQ_MOD - SEQ_HALF
        prev = seq
        e = s + p.payload_len
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


def _reorder_reports(
    arrivals: list[Packet], deliveries: list[Packet]
) -> tuple[ReorderReport, ReorderReport]:
    """Reports on the first copies in arrival order and in delivery order.

    ``deliveries`` holds the same packet objects as ``arrivals``, possibly
    fewer.  Both reports reuse the offsets ``_first_copies`` computed, so
    neither trace is unwrapped or checked for overlaps again.
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
    pre = _report_offsets(offsets, [p.payload_len for p in kept])
    return pre, _report_offsets(post_offsets, post_lens)


def _aggregate(streams: list[TransferMetrics]) -> TransferMetrics:
    def rep_sum(reports: list[ReorderReport]) -> ReorderReport:
        total = sum(r.total_packets for r in reports)
        count = sum(r.reordered_count for r in reports)
        return ReorderReport(
            total_packets=total,
            reordered_count=count,
            ratio=(count / total if total else 0.0),
            max_extent=max((r.max_extent for r in reports), default=0),
        )

    return TransferMetrics(
        goodput_proxy=sum(m.goodput_proxy for m in streams),
        pkts_retrans=sum(m.pkts_retrans for m in streams),
        dup_acks_in=sum(m.dup_acks_in for m in streams),
        sack_blocks_rcvd=sum(m.sack_blocks_rcvd for m in streams),
        reorder_pre=rep_sum([m.reorder_pre for m in streams]),
        reorder_post=rep_sum([m.reorder_post for m in streams]),
        mean_block_size=(
            sum(m.mean_block_size for m in streams) / len(streams) if streams else 0.0
        ),
        max_hold_delay_us=max((m.max_hold_delay_us for m in streams), default=0.0),
        segments_sent=sum(m.segments_sent for m in streams),
        bytes_acked=sum(m.bytes_acked for m in streams),
        dup_acks_sent=sum(m.dup_acks_sent for m in streams),
        dupthresh_final=max((m.dupthresh_final for m in streams), default=DUPTHRESH_MIN),
    )


def run_transfer(cfg: "ScenarioConfig", *, seed: int, srpic: bool) -> TransferResult:
    """Run one arm of a scenario at one seed: every stream independently,
    one result each plus the aggregate.  ``srpic`` selects the sorter arm."""
    streams = [_StreamSim(cfg, seed, sid, srpic).run() for sid in range(cfg.num_streams)]
    return TransferResult(streams=streams, aggregate=_aggregate(streams))
