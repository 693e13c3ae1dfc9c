import tracemalloc
from dataclasses import fields, replace
from itertools import accumulate, combinations
from operator import attrgetter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srpicsim.channel import PathConfig
from srpicsim.coalescing import CoalescingParams, hold_delay_bound
from srpicsim.metrics import FirstCopyReports
from srpicsim.packets import SEQ_HALF, SEQ_MOD, FlowKey, Packet, TcpFlags
from srpicsim.scenario import _COLUMNS, ScenarioConfig, load_scenario, run_scenario
from srpicsim.tcp import (
    INITIAL_CWND,
    MSS,
    AckRecord,
    ReceiverState,
    SenderState,
    TransferMetrics,
    _StreamSim,
    receiver_on_segment,
    run_transfer,
    sender_on_ack,
    sender_on_timeout,
    sender_start,
)

from oracles import (
    RecordingSim,
    ShadowQueue,
    first_copies,
    first_copy_reports,
    make_trace,
    reference_first_copies,
    reference_report,
)

FLOW = FlowKey(1, 2, 3, 4)
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def seg(seq, length=10, send_time=0.0):
    return Packet(flow=FLOW, seq=seq, payload_len=length, send_time=send_time)


def scenario(**kw):
    base = dict(
        name="unit",
        duration=0.5,
        fwd=PathConfig(alpha_ms=2.5, beta=0.0, drop_rate=0.0),
        rev=PathConfig(alpha_ms=2.5, beta=0.0, drop_rate=0.0),
        sender_mode="static",
        sack_enabled=False,
        coalescing=CoalescingParams(t_intr_us=120.0, r_sn_pps=3e5),
        seeds=(1,),
        max_cwnd=64,
        segment_spacing_us=4.0,
    )
    base.update(kw)
    return ScenarioConfig(**base)


class TestReceiver:
    def test_in_order_segment(self):
        st = ReceiverState(isn=100)
        ack = receiver_on_segment(st, seg(100))
        assert ack.ack_seq == 110
        assert not ack.is_duplicate
        assert st.dup_acks_sent == 0

    def test_out_of_order_generates_dup_with_sack(self):
        st = ReceiverState(isn=100, sack_enabled=True)
        ack = receiver_on_segment(st, seg(120))
        assert ack.ack_seq == 100
        assert ack.is_duplicate
        assert ack.sack_blocks == ((120, 130),)
        assert st.dup_acks_sent == 1

    def test_hole_fill_advances_past_gap_start_only(self):
        st = ReceiverState(isn=100, sack_enabled=True)
        receiver_on_segment(st, seg(120))
        ack = receiver_on_segment(st, seg(100))
        assert ack.ack_seq == 110
        assert not ack.is_duplicate
        assert ack.sack_blocks == ((120, 130),)

    def test_contiguous_fill_absorbs_queue(self):
        st = ReceiverState(isn=100)
        receiver_on_segment(st, seg(110))
        ack = receiver_on_segment(st, seg(100))
        assert ack.ack_seq == 120
        assert st._ooo == []

    def test_in_order_stream_never_duplicates(self):
        st = ReceiverState(isn=0)
        for i in range(50):
            ack = receiver_on_segment(st, seg(i * 10))
            assert not ack.is_duplicate
        assert st.dup_acks_sent == 0

    def test_stale_segment_duplicates(self):
        st = ReceiverState(isn=100)
        receiver_on_segment(st, seg(100))
        ack = receiver_on_segment(st, seg(100))
        assert ack.is_duplicate
        assert ack.ack_seq == 110

    def test_sack_blocks_most_recent_first_max_three(self):
        st = ReceiverState(isn=0, sack_enabled=True)
        for start in (100, 300, 500, 700):
            ack = receiver_on_segment(st, seg(start))
        assert len(ack.sack_blocks) == 3
        assert ack.sack_blocks[0] == (700, 710)
        assert set(ack.sack_blocks) == {(700, 710), (500, 510), (300, 310)}

    def test_ooo_ranges_merge(self):
        st = ReceiverState(isn=0, sack_enabled=True)
        receiver_on_segment(st, seg(100))
        receiver_on_segment(st, seg(120))
        ack = receiver_on_segment(st, seg(110))
        assert ack.sack_blocks[0] == (100, 130)
        assert len(st._ooo) == 1


def dup_ack(ack_seq, blocks=()):
    return AckRecord(ack_seq=ack_seq, sack_blocks=blocks, is_duplicate=True)


def new_ack(ack_seq, echo=None):
    return AckRecord(ack_seq=ack_seq, is_duplicate=False, echo_send_time=echo)


def resends(st, ack, now):
    """Apply ``ack``; return the retransmissions it sends: the seqs below
    the sender's ``next_send_seq`` from before the call."""
    before = st.next_send_seq
    return [s for s in sender_on_ack(st, ack, now) if s < before]


class TestSenderStatic:
    def fresh(self):
        st = SenderState(mode="static", max_cwnd=64.0)
        sender_start(st, 0.0)
        return st

    def test_three_dupacks_trigger_one_retransmit(self):
        st = self.fresh()
        retransmits = []
        for i in range(5):
            retransmits.extend(resends(st, dup_ack(0), now=1000.0 + i))
        assert retransmits == [0]
        assert st.pkts_retrans == 1
        assert st.dup_acks_in == 5
        assert st.in_recovery

    def test_two_dupacks_then_cover_no_retransmit(self):
        st = self.fresh()
        sender_on_ack(st, dup_ack(0), now=1.0)
        sender_on_ack(st, dup_ack(0), now=2.0)
        assert resends(st, new_ack(3 * MSS), now=3.0) == []
        assert st.pkts_retrans == 0
        assert st.dup_ack_count == 0

    def test_dupthresh_never_adapts(self):
        st = self.fresh()
        for _ in range(10):
            sender_on_ack(st, dup_ack(0), now=1.0)
        sender_on_ack(st, new_ack(MSS), now=2.0)
        assert st.dupthresh == 3

    def test_halving_on_fast_retransmit(self):
        st = self.fresh()
        st.cwnd = 40.0
        for i in range(3):
            sender_on_ack(st, dup_ack(0), now=float(i))
        assert st.ssthresh == 20.0
        assert st.cwnd == 20.0

    def test_stale_acks_ignored(self):
        st = self.fresh()
        sender_on_ack(st, new_ack(4 * MSS), now=1.0)
        before = (st.snd_una, st.cwnd, st.dup_ack_count)
        assert resends(st, new_ack(2 * MSS), now=2.0) == []
        assert (st.snd_una, st.cwnd, st.dup_ack_count) == before


class TestSenderTimeout:
    def test_resends_the_head_and_collapses_cwnd(self):
        st = SenderState(mode="static", max_cwnd=64.0)
        sender_start(st, 0.0)
        st.cwnd, st.dup_ack_count = 9.0, 2
        (sent,) = sender_on_timeout(st, now=5.0)
        assert sent == 0 and st.rtx_seq == 0
        assert (st.last_rtx_time, st.pkts_retrans) == (5.0, 1)
        assert (st.ssthresh, st.cwnd) == (4.5, 1.0)
        assert st.dup_ack_count == 0 and not st.in_recovery
        sender_on_timeout(st, now=6.0)
        assert (st.ssthresh, st.pkts_retrans) == (2.0, 2)  # max(1 / 2, 2)

    def test_backoff_doubles_up_to_64(self):
        st = SenderState()
        sender_start(st, 0.0)
        backoffs = []
        for i in range(8):
            sender_on_timeout(st, now=float(i))
            backoffs.append(st.rto_backoff)
        assert backoffs == [2, 4, 8, 16, 32, 64, 64, 64]

    def test_empty_queue_sends_nothing(self):
        st = SenderState()
        assert sender_on_timeout(st, now=1.0) == []
        assert (st.pkts_retrans, st.rto_backoff, st.cwnd) == (0, 1, INITIAL_CWND)


class TestSenderAdaptive:
    def test_reordering_raises_dupthresh_to_extent_plus_one(self):
        st = SenderState(mode="adaptive", max_cwnd=256.0)
        sender_start(st, 0.0)
        st.min_rtt = 5000.0
        # ten duplicate acks, then the late original covers the hole;
        # nothing was retransmitted beyond the dupthresh=3 fast retransmit
        for i in range(10):
            sender_on_ack(st, dup_ack(0), now=100.0 + i)
        assert st.pkts_retrans == 1  # fired at 3 while threshold was low
        sender_on_ack(st, new_ack(MSS), now=120.0)  # covering ack, microseconds later
        assert 11 <= st.dupthresh <= 127

    def test_bursts_below_threshold_cause_no_retransmit(self):
        st = SenderState(mode="adaptive", max_cwnd=256.0)
        sender_start(st, 0.0)
        st.min_rtt = 5000.0
        st.dupthresh = 11
        for i in range(10):
            assert resends(st, dup_ack(0), now=200.0 + i) == []
        assert st.pkts_retrans == 0

    def test_cap_at_127(self):
        st = SenderState(mode="adaptive", max_cwnd=256.0)
        sender_start(st, 0.0)
        st.min_rtt = 5000.0
        st.dupthresh = 120
        for i in range(140):
            sender_on_ack(st, dup_ack(0), now=300.0 + i)
        sender_on_ack(st, new_ack(MSS), now=450.0)
        assert st.dupthresh == 127

    def test_decay_toward_three_when_quiet(self):
        st = SenderState(mode="adaptive", max_cwnd=64.0)
        sender_start(st, 0.0)
        st.dupthresh = 10
        st.last_adapt_time = 0.0
        now = 0.0
        for i in range(1, 40):
            now = i * st.rto_us() * 1.1
            sender_on_ack(st, new_ack(i * MSS), now=now)
        assert st.dupthresh == 3


class TestTransfer:
    def test_lossless_run_reaches_window_limit(self):
        cfg = scenario(duration=0.5)
        m = run_transfer(cfg, seed=1, srpic=False)[0]
        assert m.pkts_retrans == 0
        assert m.dup_acks_in == 0
        assert m.reorder_pre.reordered_count == 0
        # window-limited bound: max_cwnd * MSS / RTT
        bound = 64 * MSS / (2 * 2500.0 / 1e6)
        assert m.goodput_proxy <= bound
        assert m.goodput_proxy >= 0.95 * bound

    def test_clean_channel_arms_identical(self):
        cfg = scenario(duration=0.5)
        off = run_transfer(cfg, seed=3, srpic=False)[0]
        on = run_transfer(cfg, seed=3, srpic=True)[0]
        assert off.goodput_proxy == on.goodput_proxy
        assert off.pkts_retrans == on.pkts_retrans == 0
        assert off.dup_acks_in == on.dup_acks_in == 0
        assert off.segments_sent == on.segments_sent
        assert on.max_hold_delay_us > 0.0  # the sorter did hold packets

    def test_drops_only_arms_identical(self):
        cfg = scenario(
            duration=0.5,
            sack_enabled=True,
            fwd=PathConfig(alpha_ms=2.5, beta=0.0, drop_rate=0.002),
            coalescing=CoalescingParams(t_intr_us=10.0, r_sn_pps=1.2e6),
        )
        off = run_transfer(cfg, seed=5, srpic=False)[0]
        on = run_transfer(cfg, seed=5, srpic=True)[0]
        assert off.segments_sent == on.segments_sent
        assert off.pkts_retrans == on.pkts_retrans
        assert off.goodput_proxy == on.goodput_proxy

    def test_sorting_reduces_reordering_and_chatter(self):
        cfg = scenario(duration=1.0, fwd=PathConfig(alpha_ms=2.5, beta=0.01, drop_rate=0.0))
        off = run_transfer(cfg, seed=2, srpic=False)[0]
        on = run_transfer(cfg, seed=2, srpic=True)[0]
        assert on.dup_acks_in < off.dup_acks_in
        assert on.pkts_retrans < off.pkts_retrans
        assert on.goodput_proxy > off.goodput_proxy

    def test_post_reordering_never_exceeds_pre(self):
        for beta in (0.002, 0.02, 0.10):
            cfg = scenario(duration=0.5, fwd=PathConfig(alpha_ms=2.5, beta=beta, drop_rate=0.0))
            for seed in (1, 2, 3):
                m = run_transfer(cfg, seed=seed, srpic=True)[0]
                assert m.reorder_post.reordered_count <= m.reorder_pre.reordered_count

    def test_hold_delay_within_bounds(self):
        cfg = scenario(duration=0.5, fwd=PathConfig(alpha_ms=2.5, beta=0.02, drop_rate=0.0))
        m = run_transfer(cfg, seed=4, srpic=True)[0]
        assert m.max_hold_delay_us <= hold_delay_bound(32, 3e5)
        assert m.max_hold_delay_us <= hold_delay_bound(512, 3e5)

    def test_reliability_invariant(self):
        cfg = scenario(
            duration=0.5,
            sack_enabled=True,
            fwd=PathConfig(alpha_ms=2.5, beta=0.01, drop_rate=0.001),
        )
        for arm in (False, True):
            sim = _StreamSim(cfg, 7, 0, arm)
            sim.run()
            # all acknowledged data was delivered in order
            assert sim.receiver._nxt >= sim.sender.snd_una

    def test_dupacks_conserved_on_lossless_reverse_path(self):
        cfg = scenario(duration=0.5, fwd=PathConfig(alpha_ms=2.5, beta=0.02, drop_rate=0.0))
        m = run_transfer(cfg, seed=6, srpic=False)[0]
        assert m.dup_acks_in == m.dup_acks_sent

    def test_total_loss_terminates_with_zero_goodput(self):
        cfg = scenario(
            duration=0.2, fwd=PathConfig(alpha_ms=2.5, beta=0.0, drop_rate=1.0)
        )
        m = run_transfer(cfg, seed=1, srpic=True)[0]
        assert m.goodput_proxy == 0.0
        assert m.reorder_pre.total_packets == 0
        assert m.pkts_retrans >= 1  # timeout backstop kept trying

    def test_multiple_streams_reported_per_stream(self):
        # Each stream derives its own channel seeds, so over a jittered
        # path the three results differ, and each is one CSV row per arm.
        cfg = scenario(duration=0.2, num_streams=3, fwd=PathConfig(alpha_ms=2.5, beta=0.01))
        arms = {}
        for arm in ("off", "on"):
            streams = run_transfer(cfg, seed=1, srpic=arm == "on")
            assert len(streams) == 3
            assert all(type(m) is TransferMetrics for m in streams)
            assert all(a != b for a, b in combinations(streams, 2))
            arms[arm] = streams
        rows = run_scenario(cfg)
        assert [(r["stream_id"], r["srpic"]) for r in rows] == [
            (sid, arm) for sid in range(3) for arm in ("off", "on")
        ]
        for row in rows:
            m = arms[row["srpic"]][row["stream_id"]]
            for column, (_, attr) in _COLUMNS.items():
                if attr:
                    assert row[column] == attrgetter(attr)(m), column


class TestSequenceWrap:
    def test_acked_bytes_count_past_the_wrap(self):
        # The sender and its ACKs count unwrapped bytes.
        state = SenderState(next_send_seq=SEQ_MOD - 2 * MSS, snd_una=SEQ_MOD - 2 * MSS)
        sender_start(state)
        sender_on_ack(state, new_ack(SEQ_MOD - MSS), now=1.0)
        sender_on_ack(state, new_ack(SEQ_MOD + MSS), now=2.0)
        assert state.snd_una == SEQ_MOD + MSS
        assert state.bytes_acked == 3 * MSS

    def test_acks_and_sack_edges_count_past_the_wrap(self):
        # The receiver unwraps each wire seq near its cumulative point and
        # answers in unwrapped bytes, as the sender counts them.
        st = ReceiverState(isn=SEQ_MOD - 10, sack_enabled=True)
        ack = receiver_on_segment(st, seg(10))
        assert (ack.ack_seq, ack.sack_blocks) == (SEQ_MOD - 10, ((SEQ_MOD + 10, SEQ_MOD + 20),))
        ack = receiver_on_segment(st, seg(SEQ_MOD - 10))
        assert (ack.ack_seq, ack.sack_blocks) == (SEQ_MOD, ((SEQ_MOD + 10, SEQ_MOD + 20),))
        ack = receiver_on_segment(st, seg(0))
        assert (ack.ack_seq, ack.sack_blocks) == (SEQ_MOD + 20, ())

    @pytest.mark.parametrize("srpic_on", [False, True])
    def test_the_wire_wraps(self, srpic_on):
        # Only a data packet's seq is 32-bit: past 2**32 it starts again
        # from 0, below isn.
        isn = SEQ_MOD - 100 * MSS
        sim = RecordingSim(scenario(duration=0.05, isn=isn), 1, 0, srpic_on)
        sim.run()
        seqs = [p.seq for p in sim.arrivals]
        assert all(0 <= s < SEQ_MOD for s in seqs)
        assert any(s < isn for s in seqs)

    @pytest.mark.parametrize("srpic_on", [False, True])
    @pytest.mark.parametrize(
        "name, duration",
        [("table4_analog", 3.0), ("table5_analog", 1.0), ("adaptive_analog", 1.0)],
    )
    def test_table4_run_is_the_same_across_the_wrap(self, name, duration, srpic_on):
        # The stream crosses 2**32 halfway through the run's acked segments,
        # with the static, SACK and adaptive senders; everything but the
        # raw sequence numbers must match the run that starts at zero.
        cfg = replace(load_scenario(str(SCENARIOS / f"{name}.yaml")), duration=duration)
        base = run_transfer(cfg, seed=1, srpic=srpic_on)
        n = base[0].bytes_acked // MSS
        assert base[0].pkts_retrans > 0
        wrapped = run_transfer(replace(cfg, isn=SEQ_MOD - MSS * (n // 2)), seed=1, srpic=srpic_on)
        assert wrapped == base

    def test_first_copies_over_more_than_2_31_bytes(self):
        # 3 GiB in order: offsets measured from the first packet would put
        # everything past 2 GiB below it.
        trace = make_trace([(i << 20) % SEQ_MOD for i in range(3000)], [1 << 20] * 3000)
        kept, offsets = first_copies(trace)
        assert kept == trace
        assert all(a < b for a, b in zip(offsets, offsets[1:]))


class TestRewrittenHelpers:
    """The fast helpers agree with their straightforward earlier forms."""

    @given(
        segs=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=300),
                st.integers(min_value=1, max_value=40),
            ),
            max_size=40,
        ),
        base=st.one_of(st.just(0), st.integers(min_value=SEQ_MOD - 340, max_value=SEQ_MOD - 1)),
    )
    @settings(max_examples=400, derandomize=True)
    def test_first_copies_matches_reference(self, segs, base):
        # Small sequence space: duplicates, partial overlaps, exact touches.
        # The reference compares plain integers; the shifted copy of the
        # trace may cross the 2**32 wrap.
        plain = make_trace([s for s, _ in segs], [n for _, n in segs])
        shifted = make_trace([(base + s) % SEQ_MOD for s, _ in segs], [n for _, n in segs])
        kept, _offsets = first_copies(shifted)
        assert [p.send_index for p in kept] == [
            p.send_index for p in reference_first_copies(plain)
        ]

    @given(data=st.data())
    @settings(max_examples=400, derandomize=True)
    def test_high_sacked_matches_marked_records_across_the_wrap(self, data):
        # Unwrapped sequence numbers; a flight from a base near 2**32 runs
        # past it.  SACK edges lie on segment edges, as a run's do, and
        # stale ACKs bring them, so they move nothing else.  The shadow
        # marks its records by reference_mark_sacked.
        base = data.draw(
            st.sampled_from([0, SEQ_MOD - 5 * MSS, SEQ_MOD - 1, SEQ_HALF - 3 * MSS])
        )
        n = data.draw(st.integers(min_value=0, max_value=12))
        state = SenderState(
            next_send_seq=base + n * MSS, snd_una=base, data_deadline_us=0.0
        )
        shadow = ShadowQueue(base)
        shadow.sent(range(base, base + n * MSS, MSS))
        block = st.tuples(
            st.integers(min_value=-2, max_value=n), st.integers(min_value=1, max_value=n + 2)
        ).map(lambda kd: (base + kd[0] * MSS, base + min(kd[0] + kd[1], n) * MSS))
        for blocks in data.draw(st.lists(st.lists(block, min_size=1, max_size=3), max_size=4)):
            ack = dup_ack(base - MSS, tuple((s, e) for s, e in blocks if s < e))
            assert sender_on_ack(state, ack, now=1.0) == []
            shadow.ack(ack)
            shadow.check(state)


def _trace_with_copies(data):
    """A stream of segments, each arriving up to six places late, plus
    retransmitted copies that cover an earlier range, shifted or resized,
    near the original.  With 1 MiB units a trace spans up to 2 GiB; the
    start may sit just below the 2**32 wrap.  Returns the unwrapped
    ``(start, length)`` of each packet and the trace."""
    unit = data.draw(st.sampled_from([1, 1 << 20]))
    base = data.draw(st.one_of(st.just(0), st.integers(SEQ_MOD - 200 * unit, SEQ_MOD - 1)))
    lens = data.draw(st.lists(st.integers(1, 40), max_size=50))
    starts = list(accumulate(lens, initial=0))
    late = data.draw(st.lists(st.integers(0, 6), min_size=len(lens), max_size=len(lens)))
    order = sorted(range(len(lens)), key=lambda i: i + late[i])
    ranges = [(starts[i], lens[i]) for i in order]
    for _ in range(data.draw(st.integers(0, 10)) if ranges else 0):
        src = data.draw(st.integers(0, len(ranges) - 1))
        pos = data.draw(st.integers(max(0, src - 4), min(len(ranges), src + 8)))
        start, length = ranges[src]
        copy_start = start + data.draw(st.integers(-5, 5))
        ranges.insert(pos, (copy_start, data.draw(st.integers(1, 40))))
    trace = make_trace(
        [(base + s * unit) % SEQ_MOD for s, _ in ranges], [n * unit for _, n in ranges]
    )
    return ranges, trace


def _sorted_blocks(ranges, trace, block):
    """Delivery order as a block sorter gives it: each block of arrivals
    sorted by sequence."""
    delivered = []
    for i in range(0, len(trace), block):
        chunk = sorted(zip(ranges[i : i + block], trace[i : i + block]), key=lambda c: c[0])
        delivered.extend(p for _, p in chunk)
    return delivered


class TestTrustedReports:
    """Run metrics come from ``FirstCopyReports``, fed one packet at a
    time; they must equal ``reference_report`` on the first copies."""

    @given(data=st.data())
    @settings(max_examples=300, derandomize=True)
    def test_trusted_path_matches_reorder_report(self, data):
        ranges, trace = _trace_with_copies(data)
        kept, _offsets = first_copies(trace)
        assert first_copy_reports(trace, [])[0] == reference_report(kept)

        delivered = _sorted_blocks(ranges, trace, data.draw(st.integers(1, 8)))
        kept_ids = {id(p) for p in kept}
        post_trace = [p for p in delivered if id(p) in kept_ids]
        assert first_copy_reports(trace, delivered) == (
            reference_report(kept),
            reference_report(post_trace),
        )

    @given(data=st.data())
    @settings(max_examples=200, derandomize=True)
    def test_interleaved_deliveries_match_all_arrivals_first(self, data):
        # Each block is delivered once its last packet has arrived, as the
        # sorter does at a flush; the last block may stay held.
        ranges, trace = _trace_with_copies(data)
        block = data.draw(st.integers(1, 8))
        hold_last = data.draw(st.booleans())
        acc = FirstCopyReports()
        offsets, delivered = {}, []
        for i in range(0, len(trace), block):
            for p in trace[i : i + block]:
                offsets[id(p)] = acc.arrive(p)
            if hold_last and i + block >= len(trace):
                break
            for p in _sorted_blocks(ranges[i : i + block], trace[i : i + block], block):
                acc.deliver(p, offsets[id(p)])
                delivered.append(p)
        assert acc.reports() == first_copy_reports(trace, delivered)

    def test_a_later_copy_delivered_after_its_first_copy(self):
        # The copy of [0, 10) reaches the receiver after the original; were
        # it counted, it would be reordered behind [10, 20).
        a, b, c, copy_a = make_trace([0, 10, 20, 0], [10, 10, 10, 10])
        acc = FirstCopyReports()
        offsets = {id(p): acc.arrive(p) for p in (b, a, copy_a, c)}
        assert offsets[id(copy_a)] is None
        for p in (a, b, copy_a, c):
            acc.deliver(p, offsets[id(p)])
        assert acc.reports() == (reference_report([b, a, c]), reference_report([a, b, c]))
        assert acc.reports()[1].reordered_count == 0

    def test_a_first_copy_held_at_the_hard_stop(self):
        # [10, 20) arrived but was never delivered: only the arrival report
        # counts it.
        a, b, c = make_trace([10, 0, 20], [10, 10, 10])
        acc = FirstCopyReports()
        offsets = {id(p): acc.arrive(p) for p in (a, b, c)}
        for p in (b, c):
            acc.deliver(p, offsets[id(p)])
        pre, post = acc.reports()
        assert pre == reference_report([a, b, c]) and pre.reordered_count == 1
        assert post == reference_report([b, c]) and post.total_packets == 2

    def test_an_empty_payload_is_rejected_by_send_index(self):
        trace = make_trace([0, 10, 20], [10, 0, 10])
        with pytest.raises(ValueError, match="send_index=1"):
            first_copy_reports(trace, trace)


# Ten-byte segments with retransmitted copies that share bytes with a kept
# range: inside one, across a hole into two, over every range, and partway
# into a hole that a shorter first copy then fills.
_COPIES_OVER_KEPT_RANGES = [
    (0, 10), (10, 10), (40, 10), (50, 10),
    (5, 10),  # copy across two kept packets of one range
    (20, 10),
    (45, 10),  # copy inside a range above a hole
    (25, 20),  # copy over the hole [30, 40) and both ranges around it
    (30, 10),  # first copy that fills the hole exactly
    (0, 60),  # copy over everything kept
    (60, 10), (80, 10),
    (70, 5),  # first copy that half fills the hole [70, 80)
    (72, 8),  # copy that reaches back into it
    (75, 5),
    (65, 1),  # copy inside the top range
]
_SEGS = [(i * MSS, MSS) for i in range(64)]
# ``(start, length)`` pairs in arrival order, the stream's isn and the
# largest extent in arrival order.
_HOLE_HEAVY = {
    "evens_then_odds": (_SEGS[::2] + _SEGS[1::2], 0, 31),  # 1 behind 2, 4, ..., 62
    "reversed": (_SEGS[::-1], 0, 63),
    "first_last_across_the_wrap": (_SEGS[1:] + _SEGS[:1], SEQ_MOD - 3 * MSS, 63),
    "copies": (_COPIES_OVER_KEPT_RANGES, SEQ_MOD - 25, 2),
}


class TestHoleHeavyWalks:
    """Orders that keep many holes open or fill them all at once, through
    ``FirstCopyReports``: the reports equal ``reference_report`` on the first
    copies, and the range counts add up to the kept packets."""

    @pytest.mark.parametrize("name", list(_HOLE_HEAVY))
    @pytest.mark.parametrize("delivery", ["sorted_blocks", "reverse"])
    def test_reports_match_reorder_report(self, name, delivery):
        ranges, isn, pre_extent = _HOLE_HEAVY[name]
        trace = make_trace([(isn + s) % SEQ_MOD for s, _ in ranges], [n for _, n in ranges])
        kept, _offsets = first_copies(trace)
        plain = make_trace([s for s, _ in ranges], [n for _, n in ranges])
        assert [p.send_index for p in kept] == [
            p.send_index for p in reference_first_copies(plain)
        ]
        if delivery == "reverse":
            delivered = trace[::-1]
        else:
            delivered = _sorted_blocks(ranges, trace, 8)
        kept_ids = {id(p) for p in kept}
        post_trace = [p for p in delivered if id(p) in kept_ids]

        acc = FirstCopyReports()
        offsets = {id(p): acc.arrive(p) for p in trace}
        for p in delivered:
            acc.deliver(p, offsets[id(p)])
        assert acc.reports() == (reference_report(kept), reference_report(post_trace))
        assert acc.reports()[0].max_extent == pre_extent
        assert sum(acc.pre.counts) == sum(acc.post.counts) == len(kept)
        # Every byte kept is contiguous at the end: one range per walk.
        assert len(acc.pre.starts) == len(acc.post.starts) == 1


def _run_peak(cfg, srpic_on):
    """The run's metrics and the traced peak it adds, in bytes."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        m = _StreamSim(cfg, 1, 0, srpic_on).run()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    return m, peak


class TestRunMemory:
    """A run keeps nothing per segment: its reports hold one range per hole,
    and the receive path 8 bytes per coalescing cycle.  One offset per
    first copy per report cost about 85 bytes per segment sent, and keeping
    every arrived and delivered packet about 390."""

    @pytest.mark.parametrize("srpic_on", [True, False])
    def test_peak_bytes_per_segment(self, srpic_on):
        cfg = replace(load_scenario(str(SCENARIOS / "table4_analog.yaml")), duration=1.0)
        m, peak = _run_peak(cfg, srpic_on)
        assert m.segments_sent > 2000
        assert peak / m.segments_sent < 24

    @pytest.mark.parametrize("srpic_on", [True, False])
    def test_peak_of_a_full_table4_arm(self, srpic_on):
        # 3 s, the scenario's own length: 28,513 segments with the sorter.
        cfg = load_scenario(str(SCENARIOS / "table4_analog.yaml"))
        m, peak = _run_peak(cfg, srpic_on)
        assert m.segments_sent > 7000
        assert peak < 128 * 1024


class TestPositionalRecords:
    """The hot path builds its records positionally, so their field order
    is part of their interface."""

    def test_record_field_order(self):
        assert [f.name for f in fields(AckRecord)] == [
            "ack_seq",
            "sack_blocks",
            "is_duplicate",
            "echo_send_time",
        ]

    def test_first_arrival_of_a_stream(self):
        sim = RecordingSim(scenario(duration=0.001), 1, 0, False)
        sim.run()
        p = sim.arrivals[0]
        assert p.flow == sim.flow
        assert p.flags is TcpFlags.ACK
        assert not p.is_fragment and not p.has_disallowed_options
        assert p.send_time <= p.arrival_time
        assert p.send_index == 1
