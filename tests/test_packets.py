import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from srpicsim.packets import (
    DISQUALIFYING_FLAGS,
    FlowKey,
    Packet,
    TcpFlags,
    is_suitable,
    payload_end,
    seq_cmp,
)

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

    def test_every_flag_and_pair_matches_the_flag_rule(self):
        singles = [TcpFlags.NONE, *TcpFlags]
        for a, b in itertools.combinations_with_replacement(singles, 2):
            for frag, opts in itertools.product((False, True), repeat=2):
                p = pkt(flags=a | b, is_fragment=frag, has_disallowed_options=opts)
                expected = (
                    not (p.flags & DISQUALIFYING_FLAGS) and not frag and not opts
                )
                assert is_suitable(p) == expected, (a | b, frag, opts)
