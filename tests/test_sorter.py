import itertools
from operator import attrgetter

from hypothesis import given, settings
from hypothesis import strategies as st

from srpicsim.metrics import FirstCopyReports, reorder_report
from srpicsim.packets import FlowKey, Packet, TcpFlags, is_suitable
from srpicsim.sorter import SrpicEngine, SrpicManager

from oracles import FLOW, ReferenceEngine, make_trace, sort_cycle

FLOW_B = FlowKey(3, 4, 1111, 2222)
_SEND_INDEX = attrgetter("send_index")


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
        assert m.prev_list == m.curr_list == m.after_list == []
        # next_exp still holds the flushed block's 6, and means nothing
        # with packet_cnt 0: the next packet, 2, seeds curr_list and
        # next_exp as in a new manager.
        eng = SrpicEngine(block_size=8)
        eng.managers[FLOW] = m
        assert eng.ingest(make_trace([2])[0]) == []
        assert state(m) == ([], [2], [], 3)

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


# A base sequence number just below 2**32: segment 1 spans the wrap, so
# every run of two or more segments crosses it.
WRAP_BASE = 2**32 - 150


def _cut_sets(n):
    """Every set of positions, among ``1 .. n - 1``, at which a new cycle
    starts in ``n`` arrivals; a cycle always ends after the last one."""
    return [c for k in range(n) for c in itertools.combinations(range(1, n), k)]


def _cycles(trace, cuts):
    """``trace`` split into the cycles that start at 0 and at each cut."""
    return [trace[a:b] for a, b in zip((0, *cuts), (*cuts, len(trace)))]


def _flush_batches(engine, cycles):
    """The non-empty lists ``ingest`` and ``end_cycle`` hand up, in order,
    with ``end_cycle`` after each cycle's arrivals."""
    batches = []
    ingest, end_cycle = engine.ingest, engine.end_cycle
    for cycle in cycles:
        for p in cycle:
            out = ingest(p)
            if out:
                batches.append(out)
        out = end_cycle()
        if out:
            batches.append(out)
    return batches


def _arrival_indices(batches):
    """The batches as tuples of their packets' ``send_index``."""
    return tuple([tuple(map(_SEND_INDEX, b)) for b in batches])


def _small_world(n_max, duplicate):
    """Every arrival order of one flow's 100-byte segments ``0 .. n - 1``
    (``n <= n_max``), plus a second copy of one of them if ``duplicate``,
    through every block size and every set of cycle ends, once at base
    sequence 0 and once at ``WRAP_BASE``.

    An order's arrival walk must count the same at both bases, a run's
    batches must be the same at both bases, and at ``WRAP_BASE``
    they must be ``oracles.ReferenceEngine``'s, packet for packet.  Yields
    ``(order, pre, outcomes)`` per order: ``order`` the segment of each
    arrival, ``pre`` the number of reordered first copies in arrival order,
    and ``outcomes`` maps each distinct list of flush batches the runs of
    the order gave, as tuples of arrival indices (each packet's
    ``send_index``), to the number of runs that gave it and the number of
    reordered first copies in its delivery order at each base.  The walks
    are functions of the arrival and delivery orders, so each runs once
    per order and base, and once per distinct delivery order and base.
    """
    for n in range(1, n_max + 1):
        for segments in [[*range(n), d] for d in range(n)] if duplicate else [range(n)]:
            for order in itertools.permutations(segments):
                traces, offsets, pres = [], [], set()
                for base in (0, WRAP_BASE):
                    trace = [
                        Packet(FLOW, (base + 100 * s) % 2**32, 100, TcpFlags.ACK, send_index=i)
                        for i, s in enumerate(order)
                    ]
                    reports = FirstCopyReports()
                    offsets.append([reports.arrive(p) for p in trace])
                    traces.append(trace)
                    pres.add(reports.pre.count)
                (pre,) = pres
                splits = [
                    [_cycles(trace, cuts) for trace in traces] for cuts in _cut_sets(len(order))
                ]
                outcomes = {}
                for block in range(1, len(order) + 1):
                    for unwrapped_cycles, wrapped_cycles in splits:
                        wrapped = _flush_batches(SrpicEngine(block), wrapped_cycles)
                        assert wrapped == _flush_batches(ReferenceEngine(block), wrapped_cycles)
                        batches = _arrival_indices(wrapped)
                        unwrapped = _flush_batches(SrpicEngine(block), unwrapped_cycles)
                        assert _arrival_indices(unwrapped) == batches
                        if batches in outcomes:
                            outcomes[batches][0] += 1
                            continue
                        posts = []
                        for trace, offset in zip(traces, offsets):
                            post = FirstCopyReports()
                            for i in itertools.chain.from_iterable(batches):
                                post.deliver(trace[i], offset[i])
                            posts.append(post.post.count)
                        outcomes[batches] = [1, posts]
                yield order, pre, outcomes


class TestSmallWorldExhaustive:
    """Every arrival order of up to six segments of one flow, through every
    block size and every set of cycle ends, below and across the wrap."""

    def test_distinct_segments(self):
        runs = 0
        for order, pre, outcomes in _small_world(6, duplicate=False):
            for batches, (count, posts) in outcomes.items():
                runs += count
                assert sorted(itertools.chain.from_iterable(batches)) == list(range(len(order)))
                # Identity B: a delivered packet is reordered exactly when
                # an earlier batch holds a greater one.  Every batch leaves
                # in sequence order, so it adds none within itself.
                across, top = 0, -1
                for b in batches:
                    segs = [order[i] for i in b]
                    assert segs == sorted(segs)
                    across += sum(s < top for s in segs)
                    top = max(top, segs[-1])
                assert posts == [across, across]
                assert across <= pre
        assert runs == 148_689

    def test_one_duplicate_copy(self):
        # Output a permutation of the input and no added reordering only:
        # a batch holding both copies may leave out of sequence order
        # (test_duplicate_copy_flushes_after_the_next_segment), so identity
        # B does not hold there.
        runs = 0
        for order, pre, outcomes in _small_world(4, duplicate=True):
            for batches, (count, posts) in outcomes.items():
                runs += count
                assert sorted(itertools.chain.from_iterable(batches)) == list(range(len(order)))
                assert max(posts) <= pre
        assert runs == 40_856


def test_duplicate_copy_flushes_after_the_next_segment():
    # Records today's behaviour, which nothing requires: arrivals at
    # segments 0, 3, 1, 2, 3, 4 (block 32, one cycle).  The second copy of
    # 3 arrives when curr_list has reached 3, so it appends there, while
    # the first copy waits in after_list, which leaves after curr_list.
    # The first copy of 3 then leaves after 4, and the delivery walk counts
    # it reordered, where identity B, whose precondition this batch
    # breaks, would count none.  A change to how the sorter handles
    # duplicates shows up as an edit here.
    order = [0, 3, 1, 2, 3, 4]
    trace = [Packet(FLOW, 100 * s, 100, TcpFlags.ACK, send_index=i) for i, s in enumerate(order)]
    batches = _flush_batches(SrpicEngine(32), [trace])
    assert [[order[p.send_index] for p in b] for b in batches] == [[0, 1, 2, 3, 4, 3]]
    assert _arrival_indices(batches) == ((0, 2, 3, 4, 5, 1),)  # the later copy of 3 first
    reports = FirstCopyReports()
    offsets = [reports.arrive(p) for p in trace]
    for p in batches[0]:
        reports.deliver(p, offsets[p.send_index])
    assert (reports.pre.count, reports.post.count) == (2, 1)
