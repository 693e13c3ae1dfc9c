import copy
from dataclasses import replace
from itertools import accumulate
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srpicsim.channel import PathConfig
from srpicsim.coalescing import CoalescingParams, hold_delay_bound
from srpicsim.metrics import _report_offsets, reorder_report
from srpicsim.packets import SEQ_HALF, SEQ_MOD, FlowKey, Packet
from srpicsim.scenario import ScenarioConfig, load_scenario
from srpicsim.tcp import (
    MSS,
    AckRecord,
    ReceiverState,
    SegmentRecord,
    SenderState,
    _first_copies,
    _mark_sacked,
    _reorder_reports,
    _StreamSim,
    receiver_on_segment,
    run_transfer,
    sender_on_ack,
    sender_start,
)

from oracles import make_trace, reference_first_copies, reference_mark_sacked

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
        assert st.delivered_bytes == 20

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
        assert len(st.out_of_order_queue) == 1


def dup_ack(ack_seq, blocks=()):
    return AckRecord(ack_seq=ack_seq, sack_blocks=blocks, is_duplicate=True)


def new_ack(ack_seq, echo=None):
    return AckRecord(ack_seq=ack_seq, is_duplicate=False, echo_send_time=echo)


class TestSenderStatic:
    def fresh(self):
        st = SenderState(mode="static", max_cwnd=64.0)
        sender_start(st, 0.0)
        return st

    def test_three_dupacks_trigger_one_retransmit(self):
        st = self.fresh()
        retransmits = []
        for i in range(5):
            acts = sender_on_ack(st, dup_ack(0), now=1000.0 + i)
            retransmits.extend(a for a in acts if a[0] == "retransmit")
        assert len(retransmits) == 1
        assert retransmits[0][1] == 0
        assert st.pkts_retrans == 1
        assert st.dup_acks_in == 5
        assert st.in_recovery

    def test_two_dupacks_then_cover_no_retransmit(self):
        st = self.fresh()
        sender_on_ack(st, dup_ack(0), now=1.0)
        sender_on_ack(st, dup_ack(0), now=2.0)
        acts = sender_on_ack(st, new_ack(3 * MSS), now=3.0)
        assert not [a for a in acts if a[0] == "retransmit"]
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
        acts = sender_on_ack(st, new_ack(2 * MSS), now=2.0)
        assert acts == [] or all(a[0] == "transmit" for a in acts)
        assert (st.snd_una, st.cwnd, st.dup_ack_count) == before


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
            acts = sender_on_ack(st, dup_ack(0), now=200.0 + i)
            assert not [a for a in acts if a[0] == "retransmit"]
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
        m = run_transfer(cfg, seed=1, srpic=False).aggregate
        assert m.pkts_retrans == 0
        assert m.dup_acks_in == 0
        assert m.reorder_pre.reordered_count == 0
        # window-limited bound: max_cwnd * MSS / RTT
        bound = 64 * MSS / (2 * 2500.0 / 1e6)
        assert m.goodput_proxy <= bound
        assert m.goodput_proxy >= 0.95 * bound

    def test_clean_channel_arms_identical(self):
        cfg = scenario(duration=0.5)
        off = run_transfer(cfg, seed=3, srpic=False).aggregate
        on = run_transfer(cfg, seed=3, srpic=True).aggregate
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
        off = run_transfer(cfg, seed=5, srpic=False).aggregate
        on = run_transfer(cfg, seed=5, srpic=True).aggregate
        assert off.segments_sent == on.segments_sent
        assert off.pkts_retrans == on.pkts_retrans
        assert off.goodput_proxy == on.goodput_proxy

    def test_sorting_reduces_reordering_and_chatter(self):
        cfg = scenario(duration=1.0, fwd=PathConfig(alpha_ms=2.5, beta=0.01, drop_rate=0.0))
        off = run_transfer(cfg, seed=2, srpic=False).aggregate
        on = run_transfer(cfg, seed=2, srpic=True).aggregate
        assert on.dup_acks_in < off.dup_acks_in
        assert on.pkts_retrans < off.pkts_retrans
        assert on.goodput_proxy > off.goodput_proxy

    def test_post_reordering_never_exceeds_pre(self):
        for beta in (0.002, 0.02, 0.10):
            cfg = scenario(duration=0.5, fwd=PathConfig(alpha_ms=2.5, beta=beta, drop_rate=0.0))
            for seed in (1, 2, 3):
                m = run_transfer(cfg, seed=seed, srpic=True).aggregate
                assert m.reorder_post.reordered_count <= m.reorder_pre.reordered_count

    def test_hold_delay_within_bounds(self):
        cfg = scenario(duration=0.5, fwd=PathConfig(alpha_ms=2.5, beta=0.02, drop_rate=0.0))
        m = run_transfer(cfg, seed=4, srpic=True).aggregate
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
            # all acknowledged data was delivered in-order exactly once
            assert sim.receiver._nxt >= sim.sender.snd_una
            assert sim.receiver.delivered_bytes == sim.receiver._nxt - sim.receiver.isn

    def test_dupacks_conserved_on_lossless_reverse_path(self):
        cfg = scenario(duration=0.5, fwd=PathConfig(alpha_ms=2.5, beta=0.02, drop_rate=0.0))
        m = run_transfer(cfg, seed=6, srpic=False).aggregate
        assert m.dup_acks_in == m.dup_acks_sent

    def test_total_loss_terminates_with_zero_goodput(self):
        cfg = scenario(
            duration=0.2, fwd=PathConfig(alpha_ms=2.5, beta=0.0, drop_rate=1.0)
        )
        m = run_transfer(cfg, seed=1, srpic=True).aggregate
        assert m.goodput_proxy == 0.0
        assert m.reorder_pre.total_packets == 0
        assert m.pkts_retrans >= 1  # timeout backstop kept trying

    def test_multiple_streams_reported_and_aggregated(self):
        cfg = scenario(duration=0.2, num_streams=3)
        res = run_transfer(cfg, seed=1, srpic=True)
        assert len(res.streams) == 3
        assert res.aggregate.segments_sent == sum(s.segments_sent for s in res.streams)
        assert res.aggregate.goodput_proxy == pytest.approx(
            sum(s.goodput_proxy for s in res.streams)
        )


class TestSequenceWrap:
    def test_acked_bytes_count_past_the_wrap(self):
        state = SenderState(next_send_seq=SEQ_MOD - 2 * MSS, snd_una=SEQ_MOD - 2 * MSS)
        sender_start(state)
        sender_on_ack(state, new_ack((SEQ_MOD - MSS) % SEQ_MOD), now=1.0)
        sender_on_ack(state, new_ack(MSS), now=2.0)
        assert state.snd_una == MSS
        assert state.bytes_acked == 3 * MSS

    @pytest.mark.parametrize("srpic_on", [False, True])
    def test_table4_run_is_the_same_across_the_wrap(self, srpic_on):
        # The stream crosses 2**32 after 5000 segments; everything but the
        # raw sequence numbers must match the run that starts at zero.
        cfg = load_scenario(str(SCENARIOS / "table4_analog.yaml"))
        base = run_transfer(cfg, seed=1, srpic=srpic_on)
        wrapped = run_transfer(replace(cfg, isn=SEQ_MOD - MSS * 5000), seed=1, srpic=srpic_on)
        assert base.aggregate.bytes_acked > MSS * 5000
        assert wrapped == base

    def test_first_copies_over_more_than_2_31_bytes(self):
        # 3 GiB in order: offsets measured from the first packet would put
        # everything past 2 GiB below it.
        trace = make_trace([(i << 20) % SEQ_MOD for i in range(3000)], [1 << 20] * 3000)
        kept, offsets = _first_copies(trace)
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
        kept, _offsets = _first_copies(shifted)
        assert [p.send_index for p in kept] == [
            p.send_index for p in reference_first_copies(plain)
        ]

    @given(data=st.data())
    @settings(max_examples=400, derandomize=True)
    def test_mark_sacked_matches_reference_across_the_wrap(self, data):
        base = data.draw(
            st.sampled_from([0, SEQ_MOD - 5 * MSS, SEQ_MOD - 1, SEQ_HALF - 3 * MSS])
        )
        n = data.draw(st.integers(min_value=0, max_value=12))
        queue = [
            SegmentRecord(
                seq=(base + i * MSS) % SEQ_MOD,
                length=MSS,
                sacked=data.draw(st.booleans()),
            )
            for i in range(n)
        ]
        # Block edges near the queue's segment edges, some exactly 2**31 away.
        edge = st.builds(
            lambda k, d, far: (base + k * MSS + d + (SEQ_HALF if far else 0)) % SEQ_MOD,
            st.integers(min_value=-2, max_value=n + 2),
            st.sampled_from([0, 0, -1, 1]),
            st.booleans(),
        )
        blocks = tuple(
            data.draw(st.lists(st.tuples(edge, edge), min_size=1, max_size=3))
        )
        state = SenderState()
        state.retransmit_queue.extend(queue)
        expected = copy.deepcopy(state)
        _mark_sacked(state, blocks)
        reference_mark_sacked(expected, blocks)
        assert [s.sacked for s in state.retransmit_queue] == [
            s.sacked for s in expected.retransmit_queue
        ]

    @pytest.mark.parametrize(
        "seq, block",
        [
            (SEQ_HALF, (0, SEQ_HALF + MSS)),  # start exactly 2**31 below seq
            (0, (SEQ_HALF, MSS)),  # start exactly 2**31 above seq
            (0, (0, SEQ_HALF + MSS)),  # end exactly 2**31 below block end
            (SEQ_MOD - MSS, (SEQ_MOD - MSS, 0)),  # segment ends at the wrap
        ],
    )
    def test_mark_sacked_serial_distance_edges(self, seq, block):
        state = SenderState()
        state.retransmit_queue.append(SegmentRecord(seq=seq, length=MSS))
        expected = copy.deepcopy(state)
        _mark_sacked(state, (block,))
        reference_mark_sacked(expected, (block,))
        assert state.retransmit_queue[0].sacked == expected.retransmit_queue[0].sacked


class TestTrustedReports:
    """Run metrics skip ``reorder_report``'s unwrap and overlap check by
    reusing the offsets of ``_first_copies``; they must not change a field."""

    @given(data=st.data())
    @settings(max_examples=300, derandomize=True)
    def test_trusted_path_matches_reorder_report(self, data):
        # A stream of segments, each arriving up to six places late, plus
        # retransmitted copies that cover an earlier range, shifted or
        # resized, near the original.  With 1 MiB units a trace spans up to
        # 2 GiB; the start may sit just below the 2**32 wrap.
        unit = data.draw(st.sampled_from([1, 1 << 20]))
        base = data.draw(
            st.one_of(st.just(0), st.integers(SEQ_MOD - 200 * unit, SEQ_MOD - 1))
        )
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
        kept, offsets = _first_copies(trace)
        assert _report_offsets(offsets, [p.payload_len for p in kept]) == reorder_report(kept)

        # Delivery order as a block sorter gives it: each block of
        # arrivals sorted by sequence.
        block = data.draw(st.integers(1, 8))
        delivered = []
        for i in range(0, len(trace), block):
            chunk = sorted(zip(ranges[i : i + block], trace[i : i + block]), key=lambda c: c[0])
            delivered.extend(p for _, p in chunk)
        kept_ids = {id(p) for p in kept}
        post_trace = [p for p in delivered if id(p) in kept_ids]
        assert _reorder_reports(trace, delivered) == (
            reorder_report(kept),
            reorder_report(post_trace),
        )
