"""Simplified TCP sender/receiver pair over the emulated receive path.

The sender is Reno-flavored AIMD: slow start, congestion avoidance,
dupthresh-triggered fast retransmit with a simplified halving recovery,
and a timeout backstop.  The receiver generates one cumulative ACK per
data segment (no delayed ACKs), duplicate ACKs for out-of-order data,
and up to three SACK blocks, most recently changed first.  Every data
segment carries one MSS, and the sender keeps no record per segment: its
flight is the range between two edges (see ``SenderState``).

``dupthresh`` is either static (always 3) or adaptive: when a hole fills
through a late original rather than a retransmission, the threshold is
raised toward the observed duplicate-ACK count (capped at 127) and decays
back toward 3 over quiet periods.  A retransmission answered faster than
a fraction of the minimum RTT is treated as spurious evidence as well.

One transfer runs as a deterministic event loop: sender window fills ->
forward path delay/drop -> ``coalescing.ReceivePath`` (ring and optional
sorter) -> receiver -> reverse path -> ACK processing.  The loop takes the
earliest of three instants: the end of the open coalescing cycle, the top
of the queued packet and ACK arrivals, and the retransmission timeout.
Ties go to the cycle end first, then to the queue (packet arrivals before
ACKs), then to the timeout.  One stop rule ends a run: a run ends once
every pending instant is past the hard stop, so nothing past it is ever
popped or run.  A queued item is ``(time, priority, event number, kind,
payload)``, and the loop runs a popped item's arrival or ACK step by its
priority.  An item greater than the last one in the FIFO ``_run`` is
appended to it, any other goes onto the heap ``_heap``.  The queue's top
is ``_run[0]`` (none while ``_run`` is empty), or ``_heap[0]`` when that
is smaller, and the loop pops it from the side it came from.  ``_run``
stays strictly increasing and event numbers make every item distinct, so
items pop in exactly a single heap's order.  Without jitter almost every
push takes the FIFO.  The timer is one RFC 6298-style deadline, re-armed
whenever the cumulative ACK advances: it expires one RTO after its last
arming, and armings at one instant share that expiry.

The path hands each packet on as it arrives, stamped with its closed-form
fetch instant, so no event runs per fetch.  The results are those of a
loop with one event per fetch: the receiver, the reorder walk and the
reverse draws see the deliveries in the same order; ACKs keep their
``(time, priority)`` and, like arrivals, their push order, so event
numbers break ties alike; and the sender never reads receiver state.
``metrics.FirstCopyReports`` builds a run's reordering reports as packets
arrive and are delivered; the path hands each back with its arrival offset.

The wire is 32-bit and serial: a data packet's ``seq`` wraps at 2**32,
and the sorter and the receiver's intake order it by ``packets.seq_cmp``.
The endpoints count unwrapped bytes from ``isn``, ACKs and SACK edges
too, and ``_transmit`` is the one wrap point; nothing reads an ACK's
wire form.

The loop pushes and pops heap items through the module's ``heapq`` name,
which therefore sees only the items pushed out of order; it appends to
and pops from ``_run`` through the methods of the deque it finds there
when it starts.  It calls the receiver and the sender through their
module names, looked up per call.  It takes each channel draw with
``next`` on the ``drops`` and ``delays`` iterators of the stream's
``fwd`` and ``rev`` path streams, also looked up per draw.  So a
replacement installed at any of these sees every call or draw.
"""

from __future__ import annotations

import hashlib
import heapq
from collections import deque
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from .channel import PathStreams
from .coalescing import ReceivePath
from .metrics import FirstCopyReports, ReorderReport
from .packets import FlowKey, Packet, SEQ_HALF, SEQ_MOD, TcpFlags
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


@dataclass
class SenderState:
    """One sender's congestion and recovery state.

    The flight is ``range(snd_una, next_send_seq, MSS)``, and two integers
    stand for the per-segment flags a queue of records would keep:
    ``rtx_seq``, the last head resent, and ``high_sacked``, the highest
    segment a SACK block has covered.  They give the queue's results
    exactly, on every input a run makes:

    - Every segment is one MSS, and ACKs and SACK edges are unwrapped and
      land on ``isn + k * MSS``, none past ``next_send_seq``.  So an
      advance acks ``(ack_seq - snd_una) // MSS`` segments, a window fill
      sends ``range(next_send_seq, snd_una + window * MSS, MSS)``, and the
      flight is empty exactly when ``next_send_seq == snd_una``.
    - Only the head is ever resent (``_retransmit_head``), and the queue
      grows only at its tail and shrinks only at its head.  So the head
      was resent exactly when ``rtx_seq == snd_una``.
    - The one reader of the SACK flags asks whether a segment above the
      head is SACKed.  A flag would last until its segment is acked, and a
      block covering a segment arrives after that segment was sent.  So
      the answer is ``high_sacked >= snd_una + MSS``, where ``high_sacked``
      is the largest ``bend - MSS`` over every block received.
    """

    mode: str = "static"  # "static" | "adaptive"
    max_cwnd: float = 64.0
    data_deadline_us: float = float("inf")
    # With SACK on, a duplicate ACK carrying no SACK block brings no new
    # information (e.g. the echo of a stale retransmission) and must not
    # count toward dupthresh.
    sack_aware: bool = False

    # The flight's edges, recover_point, rtx_seq and high_sacked count
    # unwrapped bytes from isn, as every AckRecord does; only the wire wraps.
    next_send_seq: int = 0
    snd_una: int = 0
    rtx_seq: int = -1  # the last head resent; -1 before any
    high_sacked: int = -1  # the highest segment a SACK block covered; -1 before any
    cwnd: float = INITIAL_CWND
    ssthresh: float = 1e12
    dupthresh: int = DUPTHRESH_MIN
    dup_ack_count: int = 0
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
    bytes_acked: int = 0

    def __post_init__(self):
        self.cwnd = min(self.cwnd, self.max_cwnd)

    def rto_us(self) -> float:
        return max(MIN_RTO_US, 2.0 * self.rtt_estimate) * self.rto_backoff


@dataclass
class ReceiverState:
    sack_enabled: bool = False
    isn: int = 0

    dup_acks_sent: int = 0

    _nxt: int = 0  # unwrapped next expected byte
    _ooo: list[list] = field(default_factory=list)  # [start, end, touch], unwrapped
    _touch: int = 0

    def __post_init__(self):
        self._nxt = self.isn


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


def receiver_on_segment(state: ReceiverState, seg: Packet) -> AckRecord:
    """Process one data segment; returns the ACK it generates.

    In-order data advances the cumulative point through any now-contiguous
    out-of-order ranges.  Anything else produces a duplicate ACK; with
    SACK enabled it carries up to three blocks, most recently changed
    first.  Stale data entirely below the cumulative point is also
    answered with a duplicate ACK.
    """
    nxt = state._nxt
    ooo = state._ooo
    start = nxt + ((seg.seq - nxt) + SEQ_HALF) % SEQ_MOD - SEQ_HALF
    end = start + seg.payload_len
    advanced = False

    if end <= nxt:
        pass  # stale duplicate, nothing to remember
    elif start <= nxt:
        nxt = end  # end > nxt here
        while ooo and ooo[0][0] <= nxt:
            e = ooo.pop(0)[1]
            if e > nxt:
                nxt = e
        state._nxt = nxt
        advanced = True
    else:
        state._touch += 1
        _ooo_insert(ooo, start, end, state._touch)

    blocks: tuple[tuple[int, int], ...] = ()
    if ooo and state.sack_enabled:
        recent = sorted(ooo, key=lambda r: -r[2])[:3]
        blocks = tuple((s, e) for s, e, _ in recent)
    if not advanced:
        state.dup_acks_sent += 1
    return AckRecord(nxt, blocks, not advanced, seg.send_time)


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


def sender_on_ack(state: SenderState, ack: AckRecord, now: float) -> list[int]:
    """Apply one ACK; returns the sequence numbers it puts on the wire, in
    order.  One below the ``next_send_seq`` from before the call is a
    retransmission of the head (at most one per ACK, and it comes first);
    the rest are new segments."""
    sent: list[int] = []
    blocks = ack.sack_blocks
    if blocks:
        state.sack_blocks_rcvd += len(blocks)
        for _bstart, bend in blocks:
            if bend - MSS > state.high_sacked:
                state.high_sacked = bend - MSS

    ack_seq, una = ack.ack_seq, state.snd_una
    if ack_seq > una:
        _on_advance(state, ack, now, sent)
    elif ack_seq == una and ack.is_duplicate:
        _on_dupack(state, ack, now, sent)
    # acks below snd_una are stale copies overtaken by newer ones: ignored

    _fill_window(state, now, sent)
    return sent


def _on_dupack(state: SenderState, ack: AckRecord, now: float, sent: list) -> None:
    state.dup_acks_in += 1
    if state.sack_aware and not ack.sack_blocks:
        return
    state.dup_ack_count += 1
    if (
        not state.in_recovery
        and state.dup_ack_count >= state.dupthresh
        and state.next_send_seq != state.snd_una
    ):
        _retransmit_head(state, now, sent)
        state.ssthresh = max(state.cwnd / 2.0, 2.0)
        state.cwnd = state.ssthresh
        state.in_recovery = True
        state.recover_point = state.next_send_seq


def _on_advance(state: SenderState, ack: AckRecord, now: float, sent: list) -> None:
    ack_seq, una = ack.ack_seq, state.snd_una
    head_was_retransmitted = state.rtx_seq == una
    was_dupacks = state.dup_ack_count

    acked_segments = (ack_seq - una) // MSS
    state.bytes_acked += ack_seq - una
    state.snd_una = ack_seq
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
        if ack_seq >= state.recover_point:  # snd_una is ack_seq by now
            state.in_recovery = False
            state.cwnd = state.ssthresh
        else:
            # Partial ack, so data is still in flight: ack_seq is below
            # recover_point, which was next_send_seq when recovery began,
            # and next_send_seq never decreases.  Retransmit the next hole
            # rather than waiting for the timeout, but only with evidence
            # that it is actually lost.  With SACK that means data above the
            # hole was selectively acked; without SACK, pace by the RTT since
            # holes fill one round trip apart and faster "partial" acks are
            # just echoes of data that was never lost.
            if state.sack_aware:
                evidence = state.high_sacked >= ack_seq + MSS
            else:
                pace = 0.5 * (
                    state.min_rtt if state.min_rtt is not None else MIN_RTO_US
                )
                evidence = (
                    state.last_rtx_time is None
                    or now - state.last_rtx_time >= pace
                )
            if state.rtx_seq != ack_seq and evidence:
                _retransmit_head(state, now, sent)

    if not state.in_recovery:
        # cwnd only grows here, so once it reaches the cap the rest of the
        # acked segments leave it there: an ACK costs at most max_cwnd
        # steps, however far it moves snd_una.
        cwnd, ssthresh, cap = state.cwnd, state.ssthresh, state.max_cwnd
        for _ in range(acked_segments):
            if cwnd >= cap:
                break
            if cwnd < ssthresh:
                cwnd += 1.0
            else:
                cwnd += 1.0 / cwnd
        state.cwnd = cwnd if cwnd < cap else cap

    if state.mode == "adaptive" and state.dupthresh > DUPTHRESH_MIN:
        if now - state.last_adapt_time >= state.rto_us():
            state.dupthresh -= 1
            state.last_adapt_time = now


def sender_on_timeout(state: SenderState, now: float) -> list[int]:
    """Retransmission timeout: resend the oldest segment, collapse cwnd."""
    sent: list[int] = []
    if state.next_send_seq == state.snd_una:
        return sent
    _retransmit_head(state, now, sent)
    state.ssthresh = max(state.cwnd / 2.0, 2.0)
    state.cwnd = 1.0
    state.in_recovery = False
    state.dup_ack_count = 0
    state.rto_backoff = min(state.rto_backoff * 2, 64)
    return sent


def _retransmit_head(state: SenderState, now: float, sent: list) -> None:
    """Resend the oldest unacknowledged segment: note it as resent, stamp
    the time, count it and queue it for the wire."""
    state.rtx_seq = state.snd_una
    state.last_rtx_time = now
    state.pkts_retrans += 1
    sent.append(state.snd_una)


def _fill_window(state: SenderState, now: float, sent: list) -> None:
    if not now < state.data_deadline_us:
        return
    window = int(state.cwnd)
    cap = int(state.max_cwnd)
    if cap < window:
        window = cap
    end = state.snd_una + window * MSS
    nxt = state.next_send_seq
    if nxt < end:
        sent.extend(range(nxt, end, MSS))
        state.next_send_seq = end


def sender_start(state: SenderState, now: float = 0.0) -> list[int]:
    sent: list[int] = []
    _fill_window(state, now, sent)
    return sent


# ---------------------------------------------------------------------------
# Event-driven transfer simulation
# ---------------------------------------------------------------------------

# Queue priorities break ties at one instant, after a cycle end.
_PRIO_ARRIVAL = 1
_PRIO_ACK = 2
_INF = float("inf")
_NONE = (_INF,)  # the top of an empty queue
_ACK = TcpFlags.ACK  # the flags of every data segment


def _derive_seed(run_seed: int, stream_id: int, label: str) -> int:
    digest = hashlib.sha256(f"{run_seed}:{stream_id}:{label}".encode()).hexdigest()
    return int(digest[:16], 16)


class _StreamSim:
    """One TCP stream over its own forward/reverse paths and receive ring."""

    def __init__(self, cfg: "ScenarioConfig", run_seed: int, stream_id: int, srpic_on: bool):
        self.cfg = cfg
        self.flow = FlowKey(1, 2, 40000 + stream_id, 5001)
        self.spacing_us = cfg.segment_spacing_us

        self.fwd = PathStreams(
            replace(cfg.fwd, seed=_derive_seed(run_seed, stream_id, "fwd"))
        )
        self.rev = PathStreams(
            replace(cfg.rev, seed=_derive_seed(run_seed, stream_id, "rev"))
        )

        self.sender = SenderState(
            mode=cfg.sender_mode,
            max_cwnd=float(cfg.max_cwnd),
            data_deadline_us=cfg.duration * 1e6,
            sack_aware=cfg.sack_enabled,
            next_send_seq=cfg.isn,
            snd_una=cfg.isn,
            recover_point=cfg.isn,
        )
        self.receiver = ReceiverState(sack_enabled=cfg.sack_enabled, isn=cfg.isn)
        engine = None
        if srpic_on:
            engine = SrpicEngine(cfg.srpic.block_size, cfg.srpic.ringbuffer_size)
        self.path = ReceivePath(cfg.coalescing, engine, cfg.hard_stop_us)

        self.now = 0.0
        self._heap: list[tuple] = []
        self._run: deque[tuple] = deque()  # strictly increasing items
        self._evseq = 0
        self._rto_t = _INF  # next timeout instant; inf while disarmed
        self._last_send_time = -self.spacing_us
        self.reorder = FirstCopyReports()

    # -- event plumbing ----------------------------------------------------

    def _transmit(self, seq: int) -> None:
        now = self.now
        st = self._last_send_time + self.spacing_us
        if not st > now:
            st = now
        self._last_send_time = st
        sender = self.sender
        idx = sender.segments_sent = sender.segments_sent + 1
        fwd = self.fwd
        dropped = next(fwd.drops)
        delay = next(fwd.delays)
        if dropped:
            return
        t = st + delay
        p = Packet(self.flow, seq % SEQ_MOD, MSS, _ACK, False, False, idx, st, t)
        self._evseq += 1
        item = (t, _PRIO_ARRIVAL, self._evseq, "arr", p)
        run = self._run
        if not run or item > run[-1]:  # in order: _run stays sorted
            run.append(item)
        else:
            heapq.heappush(self._heap, item)

    def _arm_rto(self) -> None:
        """Arm the one timer to expire one RTO from now, or disarm it while
        nothing is in flight.  It is armed at the start, on every advance of
        the cumulative ACK and at every expiry, and only an advance can
        empty the flight or refill an empty one.  So the timer runs exactly
        while data is in flight, and at its expiry nothing has been
        acknowledged since its last arming: a timeout is due.
        """
        sender = self.sender
        in_flight = sender.next_send_seq != sender.snd_una
        self._rto_t = self.now + sender.rto_us() if in_flight else _INF

    # -- receive path -------------------------------------------------------

    def _deliver_one(self, p: Packet, stamp: float, now: float, s: int | None) -> None:
        self.reorder.deliver(p, s)
        ack = receiver_on_segment(self.receiver, p)
        rev = self.rev
        dropped = next(rev.drops)
        delay = next(rev.delays)
        if dropped:
            return
        t = stamp + delay
        if not t > now:
            t = now
        self._evseq += 1
        item = (t, _PRIO_ACK, self._evseq, "ack", ack)
        run = self._run
        if not run or item > run[-1]:  # in order: _run stays sorted
            run.append(item)
        else:
            heapq.heappush(self._heap, item)

    # -- main loop ------------------------------------------------------------

    def run(self) -> TransferMetrics:
        sender, transmit = self.sender, self._transmit
        for seq in sender_start(sender, 0.0):
            transmit(seq)
        self._arm_rto()
        heap, run = self._heap, self._run
        popleft = run.popleft
        path, deliver = self.path, self._deliver_one
        hard_stop, fetch = path.hard_stop_us, path.arrive
        arrive = self.reorder.arrive
        while True:
            t = path.cycle_end
            rto_t = self._rto_t
            # The queue's top: the smaller of the heads of _run and _heap.
            item = run[0] if run else _NONE
            if heap and heap[0] < item:
                item = heap[0]
            top = item[0]
            if top > hard_stop and t > hard_stop and rto_t > hard_stop:
                break
            if top < t and top <= rto_t:
                if heap and heap[0] is item:
                    heapq.heappop(heap)
                else:
                    popleft()
                t, prio, _n, _kind, payload = item
                self.now = t
                if prio == _PRIO_ARRIVAL:
                    fetch(payload, t, deliver, arrive(payload))
                else:  # _PRIO_ACK
                    before = sender.snd_una
                    for seq in sender_on_ack(sender, payload, t):
                        transmit(seq)
                    if sender.snd_una != before:
                        self._arm_rto()
            elif rto_t < t:
                self.now = rto_t
                for seq in sender_on_timeout(sender, rto_t):
                    transmit(seq)
                self._arm_rto()
            else:
                path.end_cycle(deliver)
        return self._metrics()

    def _metrics(self) -> TransferMetrics:
        pre, post = self.reorder.reports()
        bytes_acked = self.sender.bytes_acked
        cycles = self.path.cycles
        mean_block = self.path.cycle_packets / cycles if cycles else 0.0
        return TransferMetrics(
            goodput_proxy=bytes_acked / self.cfg.duration,
            pkts_retrans=self.sender.pkts_retrans,
            dup_acks_in=self.sender.dup_acks_in,
            sack_blocks_rcvd=self.sender.sack_blocks_rcvd,
            reorder_pre=pre,
            reorder_post=post,
            mean_block_size=mean_block,
            max_hold_delay_us=self.path.max_hold_us,
            segments_sent=self.sender.segments_sent,
            bytes_acked=bytes_acked,
            dup_acks_sent=self.receiver.dup_acks_sent,
            dupthresh_final=self.sender.dupthresh,
        )


def run_transfer(cfg: "ScenarioConfig", *, seed: int, srpic: bool) -> list[TransferMetrics]:
    """Run one arm of a scenario at one seed: every stream independently,
    one result each, in stream order.  ``srpic`` selects the sorter arm."""
    return [_StreamSim(cfg, seed, sid, srpic).run() for sid in range(cfg.num_streams)]
