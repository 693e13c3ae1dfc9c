import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from srpicsim.metrics import reorder_report
from srpicsim.packets import FlowKey, Packet, TcpFlags, is_suitable
from srpicsim.sorter import SrpicEngine, SrpicManager

from oracles import FLOW, ReferenceEngine, make_trace, sort_cycle

FLOW_B = FlowKey(3, 4, 1111, 2222)


def seqs(packets):
    return [p.seq for p in packets]


def state(m):
    return seqs(m.prev_list), seqs(m.curr_list), seqs(m.after_list), m.next_exp


def held(packets):
    """The manager of ``FLOW`` after ``packets`` went through an engine
    whose block is larger than the trace, so nothing flushed."""
    eng = SrpicEngine(block_size=len(packets) + 1)
    for p in packets:
        assert eng.ingest(p) == []
    return eng.managers[FLOW]


class TestManagerGolden:
    """Step-by-step list states for the arrival order 2,3,1,4,6,7,5."""

    def states(self):
        # A block larger than the trace: ingest routes every packet and
        # flushes nothing.
        eng = SrpicEngine(block_size=8)
        observed = [state(SrpicManager())]
        for p in make_trace([2, 3, 1, 4, 6, 7, 5]):
            assert eng.ingest(p) == []
            observed.append(state(eng.managers[FLOW]))
        return eng.managers[FLOW], observed

    def test_all_eight_states(self):
        _, observed = self.states()
        assert observed == [
            ([], [], [], 0),          # init
            ([], [2], [], 3),         # 2 arrives
            ([], [2, 3], [], 4),      # 3 arrives
            ([1], [2, 3], [], 4),     # 1 arrives
            ([1], [2, 3, 4], [], 5),  # 4 arrives
            ([1], [2, 3, 4], [6], 5),  # 6 arrives
            ([1], [2, 3, 4], [6, 7], 5),  # 7 arrives
            ([1], [2, 3, 4, 5], [6, 7], 6),  # 5 arrives
        ]

    def test_flush_order_and_reinit(self):
        m, _ = self.states()
        assert seqs(m.flush()) == [1, 2, 3, 4, 5, 6, 7]
        assert m.packet_cnt == 0
        assert m.next_exp == 0
        assert m.prev_list == m.curr_list == m.after_list == []

    def test_ingest_flushes_at_block_size(self):
        eng = SrpicEngine(block_size=7)
        trace = make_trace([2, 3, 1, 4, 6, 7, 5])
        for p in trace[:-1]:
            assert eng.ingest(p) == []
        assert seqs(eng.ingest(trace[-1])) == [1, 2, 3, 4, 5, 6, 7]


class TestManagerBasics:
    def test_single_packet_no_flush(self):
        eng = SrpicEngine(block_size=32)
        assert eng.ingest(make_trace([9])[0]) == []
        assert seqs(eng.managers[FLOW].curr_list) == [9]

    def test_flush_empty_manager(self):
        assert SrpicManager().flush() == []

    def test_flush_in_order_block_is_identity(self):
        m = held(make_trace([10, 11, 12]))
        assert seqs(m.flush()) == [10, 11, 12]

    def test_zero_payload_does_not_advance_next_exp(self):
        m = held(make_trace([5], lens=[1]))
        assert m.next_exp == 6
        m = held(make_trace([5], lens=[1]) + [Packet(flow=FLOW, seq=6, payload_len=0)])
        assert m.next_exp == 6
        assert seqs(m.curr_list) == [5, 6]

    def test_duplicate_seq_keeps_arrival_order(self):
        first = Packet(flow=FLOW, seq=1, payload_len=1, send_index=1)
        second = Packet(flow=FLOW, seq=1, payload_len=1, send_index=2)
        m = held([make_trace([5])[0], first, second])  # 5 seeds curr, next_exp 6
        assert [p.send_index for p in m.prev_list] == [1, 2]


class TestEngine:
    def test_find_or_create(self):
        eng = SrpicEngine()
        eng.ingest(make_trace([1])[0])
        eng.ingest(make_trace([1], flow=FLOW_B)[0])
        assert list(eng.managers) == [FLOW, FLOW_B]
        eng.ingest(make_trace([2])[0])
        assert list(eng.managers) == [FLOW, FLOW_B]
        assert eng.managers[FLOW].packet_cnt == 2

    def test_in_order_cycle_is_identity(self):
        eng = SrpicEngine()
        trace = make_trace(list(range(1, 11)))
        assert sort_cycle(eng, trace) == trace

    def test_golden_cycle(self):
        eng = SrpicEngine(block_size=7)
        out = sort_cycle(eng, make_trace([2, 3, 1, 4, 6, 7, 5]))
        assert seqs(out) == [1, 2, 3, 4, 5, 6, 7]

    def test_unsuitable_delivered_immediately(self):
        eng = SrpicEngine()
        trace = make_trace([2, 3, 9, 4])
        syn = Packet(flow=FLOW, seq=9, payload_len=1, flags=TcpFlags.SYN)
        trace[2] = syn
        out = sort_cycle(eng, trace)
        # the SYN precedes the held data block
        assert out[0] is syn
        assert seqs(out[1:]) == [2, 3, 4]

    def test_interleaved_flows_flush_by_creation_order(self):
        a = make_trace([1, 2, 3])
        b = make_trace([1, 2, 3], flow=FLOW_B)
        eng = SrpicEngine(block_size=2)
        out = sort_cycle(eng, [a[0], b[0], a[1], b[1], a[2], b[2]])
        # each flow's pair flushes when it fills; leftovers flush in
        # creation order at end of cycle
        assert [(p.flow is FLOW, p.seq) for p in out] == [
            (True, 1), (True, 2), (False, 1), (False, 2), (True, 3), (False, 3),
        ]
        # per-flow subsequences stay in order
        assert seqs([p for p in out if p.flow is FLOW]) == [1, 2, 3]
        assert seqs([p for p in out if p.flow is FLOW_B]) == [1, 2, 3]

    def test_flush_all_empty_and_creation_order(self):
        eng = SrpicEngine()
        assert eng.flush_all() == []
        eng.ingest(make_trace([5])[0])
        eng.ingest(make_trace([9], flow=FLOW_B)[0])
        out = eng.flush_all()
        assert seqs(out) == [5, 9]
        assert eng.global_packet_cnt == 0

    def test_global_flush_at_ringbuffer_size(self):
        eng = SrpicEngine(block_size=32, ringbuffer_size=4)
        trace = make_trace([10, 12, 11, 14])  # never fills a 32 block
        emitted = []
        for i, p in enumerate(trace):
            out = eng.ingest(p)
            if i < 3:
                assert out == []
            else:
                emitted = out  # 4th suitable packet hits the global threshold
        assert seqs(emitted) == [10, 11, 12, 14]
        assert eng.global_packet_cnt == 0

    def test_global_count_ignores_unsuitable(self):
        eng = SrpicEngine(ringbuffer_size=2)
        syn = Packet(flow=FLOW, seq=1, payload_len=1, flags=TcpFlags.SYN)
        assert eng.ingest(syn) == [syn]
        assert eng.global_packet_cnt == 0

    def test_held_never_exceeds_bounds(self):
        eng = SrpicEngine(block_size=4, ringbuffer_size=8)
        trace = make_trace([7, 1, 5, 3, 9, 2, 8, 6, 4, 10, 12, 11])
        for p in trace:
            eng.ingest(p)
            held = sum(m.packet_cnt for m in eng.managers.values())
            assert all(m.packet_cnt < 4 for m in eng.managers.values())
            assert held < 8


def _suitable_trace(draw_seqs, flags):
    packets = []
    for i, (s, unsuitable) in enumerate(zip(draw_seqs, flags)):
        packets.append(
            Packet(
                flow=FLOW,
                seq=s,
                payload_len=1,
                flags=TcpFlags.RST if unsuitable else TcpFlags.ACK,
                send_index=i,
            )
        )
    return packets


class TestEngineProperties:
    @given(
        data=st.lists(
            st.tuples(st.integers(min_value=0, max_value=60), st.booleans()),
            max_size=40,
        ),
        block_size=st.integers(min_value=1, max_value=8),
        ring=st.integers(min_value=1, max_value=16),
    )
    @settings(max_examples=150, derandomize=True)
    def test_multiset_preserved_and_unsuitable_in_order(self, data, block_size, ring):
        trace = _suitable_trace([d[0] for d in data], [d[1] for d in data])
        eng = SrpicEngine(block_size=block_size, ringbuffer_size=max(ring, block_size))
        out = sort_cycle(eng, trace)
        assert sorted(p.send_index for p in out) == list(range(len(trace)))
        unsuitable_in = [p.send_index for p in trace if not is_suitable(p)]
        unsuitable_out = [p.send_index for p in out if not is_suitable(p)]
        assert unsuitable_in == unsuitable_out

    @given(
        perm=st.permutations(list(range(1, 13))),
        block_size=st.integers(min_value=1, max_value=13),
    )
    @settings(max_examples=150, derandomize=True)
    def test_single_flow_sorting_never_increases_reordering(self, perm, block_size):
        trace = make_trace(list(perm))
        pre = reorder_report(trace).reordered_count
        eng = SrpicEngine(block_size=block_size)
        post = reorder_report(sort_cycle(eng, trace)).reordered_count
        assert post <= pre

    def test_full_block_sort_yields_zero(self):
        for perm in itertools.islice(itertools.permutations(range(1, 8)), 0, 5040, 97):
            eng = SrpicEngine(block_size=7)
            out = sort_cycle(eng, make_trace(list(perm)))
            assert seqs(out) == list(range(1, 8))

    @given(perm=st.permutations(list(range(1, 10))))
    @settings(max_examples=100, derandomize=True)
    def test_flushed_blocks_internally_sorted(self, perm):
        eng = SrpicEngine(block_size=4)
        trace = make_trace(list(perm))
        emissions = []
        for p in trace:
            block = eng.ingest(p)
            if block:
                emissions.append(block)
        tail = eng.end_cycle()
        if tail:
            emissions.append(tail)
        for block in emissions:
            assert seqs(block) == sorted(seqs(block))


_UNSUITABLE_KINDS = ["flags", "options", "fragment"]


class TestEngineMatchesReference:
    """The engine emits exactly what the plain ingest/flush_all pair emits,
    packet by packet, over many flows and cycles."""

    @given(data=st.data())
    @settings(max_examples=300, derandomize=True)
    def test_multi_flow_cycles(self, data):
        n_flows = data.draw(st.integers(min_value=1, max_value=4))
        flows = [FlowKey(1, 2, 40000 + f, 5001) for f in range(n_flows)]
        base = data.draw(st.sampled_from([0, 2**32 - 24]))
        draws = data.draw(
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=n_flows - 1),
                    st.integers(min_value=0, max_value=48),
                    st.sampled_from(["ok"] * 4 + _UNSUITABLE_KINDS),
                    st.sampled_from(list(TcpFlags)),
                ),
                max_size=60,
            )
        )
        packets = [
            Packet(
                flow=flows[f],
                seq=(base + s) % 2**32,
                payload_len=1,
                flags=flag if kind == "flags" else TcpFlags.ACK,
                is_fragment=kind == "fragment",
                has_disallowed_options=kind == "options",
                send_index=i,
            )
            for i, (f, s, kind, flag) in enumerate(draws)
        ]
        cuts = sorted(data.draw(st.sets(st.integers(min_value=0, max_value=len(packets)))))
        cycles = [packets[a:b] for a, b in zip([0] + cuts, cuts + [len(packets)])]
        kwargs = dict(
            block_size=data.draw(st.integers(min_value=1, max_value=8)),
            ringbuffer_size=data.draw(st.integers(min_value=1, max_value=16)),
        )
        eng, ref = SrpicEngine(**kwargs), ReferenceEngine(**kwargs)
        for cycle in cycles:
            for p in cycle:
                assert eng.ingest(p) == ref.ingest(p)
                assert eng.global_packet_cnt == ref.global_packet_cnt
            assert eng.end_cycle() == ref.end_cycle()
            assert list(eng.managers) == list(ref.managers)
