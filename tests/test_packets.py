import dataclasses
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import reference_sorted_insert
from srpicsim.packets import (
    DISQUALIFYING_FLAGS,
    SEQ_HALF,
    SEQ_MOD,
    FlowKey,
    Packet,
    TcpFlags,
    is_suitable,
    payload_end,
    seq_cmp,
)
from srpicsim.sorter import SrpicEngine, _sorted_insert
from srpicsim.tcp import AckRecord, SenderState, sender_on_ack

FLOW = FlowKey(1, 2, 1000, 2000)


def pkt(**kw):
    base = dict(flow=FLOW, seq=100, payload_len=10)
    base.update(kw)
    return Packet(**base)


class TestSeqCmp:
    def test_equal(self):
        assert seq_cmp(5, 5) == 0

    def test_plain_less(self):
        assert seq_cmp(100, 200) == -1
        assert seq_cmp(200, 100) == 1

    def test_wraparound_less(self):
        # (2^32-10 - 10) mod 2^32 = 2^32 - 20 > 2^31, so it precedes 10
        assert seq_cmp(2**32 - 10, 10) == -1
        assert seq_cmp(10, 2**32 - 10) == 1

    @given(
        base=st.integers(min_value=0, max_value=2**32 - 1),
        da=st.integers(min_value=0, max_value=2**30),
        db=st.integers(min_value=0, max_value=2**30),
    )
    @settings(max_examples=200, derandomize=True)
    def test_antisymmetric_total_within_window(self, base, da, db):
        a = (base + da) % 2**32
        b = (base + db) % 2**32
        c = seq_cmp(a, b)
        assert c in (-1, 0, 1)
        assert c == -seq_cmp(b, a)
        if da == db:
            assert c == 0
        else:
            assert c == (-1 if da < db else 1)


class TestPayloadEnd:
    def test_plain(self):
        assert payload_end(pkt(seq=100, payload_len=10)) == 110

    def test_wrap(self):
        assert payload_end(pkt(seq=2**32 - 4, payload_len=8)) == 4

    def test_zero_length(self):
        assert payload_end(pkt(seq=7, payload_len=0)) == 7


class TestIsSuitable:
    def test_plain_data_segment(self):
        assert is_suitable(pkt(flags=TcpFlags.ACK | TcpFlags.PSH))

    def test_syn_disqualifies(self):
        assert not is_suitable(pkt(flags=TcpFlags.SYN))

    def test_fragment_disqualifies(self):
        assert not is_suitable(pkt(is_fragment=True))

    def test_options_disqualify(self):
        assert not is_suitable(pkt(has_disallowed_options=True))

    def test_every_control_bit_disqualifies(self):
        for flag in (
            TcpFlags.ECE,
            TcpFlags.CWR,
            TcpFlags.URG,
            TcpFlags.RST,
            TcpFlags.SYN,
            TcpFlags.FIN,
        ):
            assert not is_suitable(pkt(flags=flag | TcpFlags.ACK))

    @staticmethod
    def every_kind_of_packet():
        # Every subset of the eight flags, so every flag and every pair,
        # with and without fragment and options.
        subsets = [TcpFlags.NONE]
        for f in TcpFlags:
            subsets += [s | f for s in subsets]
        assert len(set(subsets)) == 2 ** len(TcpFlags)
        for flags in subsets:
            for frag, opts in itertools.product((False, True), repeat=2):
                yield pkt(flags=flags, is_fragment=frag, has_disallowed_options=opts)

    def test_every_flag_and_pair_matches_the_flag_rule(self):
        # is_suitable tests an integer mask, the rule is the enum's ``&``.
        for p in self.every_kind_of_packet():
            expected = (
                not (p.flags & DISQUALIFYING_FLAGS)
                and not p.is_fragment
                and not p.has_disallowed_options
            )
            assert is_suitable(p) == expected, p

    def test_ingest_bypasses_exactly_the_unsuitable(self):
        # SrpicEngine.ingest writes is_suitable out inline: a packet comes
        # straight back exactly when is_suitable rejects it, and a suitable
        # one is held and counted.
        for p in self.every_kind_of_packet():
            engine = SrpicEngine(block_size=2)
            out = engine.ingest(p)
            if is_suitable(p):
                assert out == [] and engine.global_packet_cnt == 1, p
            else:
                assert out == [p] and not engine.managers, p


class TestPacketFields:
    def test_field_order(self):
        # tcp and channel build packets positionally: a reordered field would
        # silently swap values such as send_time and arrival_time.
        assert [f.name for f in dataclasses.fields(Packet)] == [
            "flow",
            "seq",
            "payload_len",
            "flags",
            "is_fragment",
            "has_disallowed_options",
            "send_index",
            "send_time",
            "arrival_time",
        ]


class TestFlowKey:
    def test_fields_cannot_be_assigned(self):
        key = FlowKey(1, 2, 3, 4)
        for name in FlowKey._fields:
            with pytest.raises(AttributeError):
                setattr(key, name, 9)

    def test_equal_fields_are_one_key_and_one_manager(self):
        a = FlowKey(1, 2, 1000, 2000)
        b = FlowKey(src_addr=1, dst_addr=2, src_port=1000, dst_port=2000)
        assert a is not b
        assert a == b and hash(a) == hash(b)
        assert repr(a) == "FlowKey(src_addr=1, dst_addr=2, src_port=1000, dst_port=2000)"
        engine = SrpicEngine(block_size=8)
        engine.ingest(Packet(a, 100, 10))
        engine.ingest(Packet(b, 110, 10))
        assert len(engine.managers) == 1
        assert engine.managers[a].packet_cnt == 2

    def test_keys_differing_in_one_field_get_separate_managers(self):
        base = FlowKey(1, 2, 1000, 2000)
        engine = SrpicEngine(block_size=8)
        engine.ingest(Packet(base, 100, 10))
        for i, name in enumerate(FlowKey._fields):
            other = base._replace(**{name: base[i] + 1})
            assert other != base
            engine.ingest(Packet(other, 100, 10))
        assert len(engine.managers) == 1 + len(FlowKey._fields)
        assert all(m.packet_cnt == 1 for m in engine.managers.values())


# Sequence numbers within 3 of 0 (on both sides of the 2**32 wrap) and of
# 2**31, where an inline serial test that gets a boundary wrong would
# disagree with seq_cmp.  Equal offsets from one anchor give distances of
# exactly 0, and from the two anchors distances of exactly 2**31.
SERIAL = st.builds(
    lambda anchor, d: (anchor + d) % SEQ_MOD,
    st.sampled_from([0, SEQ_HALF]),
    st.integers(-3, 3),
)


# Unwrapped sequence numbers within 3 of 2**31 and of 2**32: pairs about
# 2**31 apart, which a serial test would misorder, and pairs across 2**32.
UNWRAPPED = st.builds(
    lambda anchor, d: anchor + d,
    st.sampled_from([SEQ_HALF, SEQ_MOD]),
    st.integers(-3, 3),
)


class TestInlineSerialTests:
    """Every hot-path comparison written out inline agrees with its one
    definition: seq_cmp for 32-bit wire numbers, plain integer order for
    the sender's unwrapped ones."""

    @settings(max_examples=300, derandomize=True)
    @given(ack_seq=UNWRAPPED, snd_una=UNWRAPPED, duplicate=st.booleans())
    def test_sender_on_ack_advance_dupack_split(self, ack_seq, snd_una, duplicate):
        # An empty queue and a passed deadline: the ACK only moves state.
        # It advances iff it is above snd_una, and is a dupack iff it is
        # equal and marked duplicate.
        state = SenderState(next_send_seq=snd_una, snd_una=snd_una, data_deadline_us=0.0)
        sender_on_ack(state, AckRecord(ack_seq, (), duplicate), 0.0)
        assert state.snd_una == max(ack_seq, snd_una)
        assert state.bytes_acked == max(ack_seq - snd_una, 0)
        assert state.dup_acks_in == (1 if ack_seq == snd_una and duplicate else 0)

    @settings(max_examples=300, derandomize=True)
    @given(seqs=st.lists(SERIAL, max_size=12))
    def test_sorted_insert_matches_seq_cmp_insertion(self, seqs):
        got, want = [], []
        for i, s in enumerate(seqs):
            p = pkt(seq=s, send_index=i)
            _sorted_insert(got, p)
            reference_sorted_insert(want, p)
        assert [p.send_index for p in got] == [p.send_index for p in want]

    @settings(max_examples=300, derandomize=True)
    @given(first=SERIAL, seq=SERIAL, length=st.integers(1, 3))
    def test_ingest_picks_lists_by_seq_cmp(self, first, seq, length):
        engine = SrpicEngine(block_size=3)
        assert engine.ingest(pkt(seq=first, payload_len=length)) == []
        m = engine.managers[FLOW]
        next_exp = payload_end(pkt(seq=first, payload_len=length))
        assert m.next_exp == next_exp
        p = pkt(seq=seq, payload_len=length)
        assert engine.ingest(p) == []
        c = seq_cmp(seq, next_exp)
        lists = {-1: m.prev_list, 0: m.curr_list, 1: m.after_list}
        assert lists[c][-1] is p
        assert sum(map(len, lists.values())) == 2
        assert m.next_exp == (payload_end(p) if c == 0 else next_exp)
