import random
import sys
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srpicsim.metrics import (
    FirstCopyReports,
    OverlappingSegmentsError,
    PartitionError,
    _walk,
    classify_block_reordering,
    reorder_report,
)
from srpicsim.packets import SEQ_HALF, SEQ_MOD
from srpicsim.sorter import SrpicEngine

from oracles import (
    add_only_reports,
    add_only_walk,
    brute_classify,
    brute_max_extent,
    brute_reordered_count,
    brute_reordered_flags,
    first_copies,
    first_empty,
    make_trace,
    reference_classify,
    reference_report,
    rejects_empty_payload,
    sort_cycle,
    walk_state,
)


def count_ratio(trace):
    report = reorder_report(trace)
    return report.reordered_count, report.ratio


class TestReorderedCount:
    def test_in_order(self):
        assert count_ratio(make_trace([1, 2, 3, 4, 5, 6, 7])) == (0, 0.0)

    def test_golden_arrival_order(self):
        count, ratio = count_ratio(make_trace([2, 3, 1, 4, 6, 7, 5]))
        assert count == 2
        assert ratio == pytest.approx(2 / 7)

    def test_sorted_output_clean(self):
        eng = SrpicEngine(block_size=7)
        out = sort_cycle(eng, make_trace([2, 3, 1, 4, 6, 7, 5]))
        assert count_ratio(out) == (0, 0.0)

    def test_empty(self):
        assert count_ratio([]) == (0, 0.0)

    def test_overlap_rejected(self):
        trace = make_trace([1, 1], lens=[2, 2])
        with pytest.raises(OverlappingSegmentsError):
            reorder_report(trace)

    def test_wraparound_trace(self):
        # in-order arrivals across the 2**32 boundary are clean
        trace = make_trace([2**32 - 2, 2**32 - 1, 0, 1])
        assert count_ratio(trace) == (0, 0.0)
        # 0 arrives after 1 has already advanced the expectation past it
        wrapped = reorder_report(make_trace([2**32 - 1, 1, 0, 2]))
        assert (wrapped.reordered_count, wrapped.max_extent) == (1, 1)

    def test_trace_spanning_more_than_2_31_bytes(self):
        # 3 GiB in order, crossing the wrap once: every packet is in order
        # relative to the one before it, however far it is from the first.
        trace = make_trace([(i << 20) % 2**32 for i in range(3000)], [1 << 20] * 3000)
        report = reorder_report(trace)
        assert (report.reordered_count, report.max_extent) == (0, 0)


class TestMaxExtent:
    def test_in_order(self):
        assert reorder_report(make_trace([1, 2, 3])).max_extent == 0

    def test_adjacent_swap(self):
        assert reorder_report(make_trace([2, 1])).max_extent == 1

    def test_displaced_by_three(self):
        assert reorder_report(make_trace([2, 3, 4, 1])).max_extent == 3


class TestClassification:
    def test_intra_only(self):
        assert classify_block_reordering(make_trace([2, 1, 3, 4]), [2, 2]) == (1, 0)

    def test_inter_only(self):
        assert classify_block_reordering(make_trace([2, 3, 1, 4]), [2, 2]) == (0, 1)

    def test_single_block_has_no_inter(self):
        trace = make_trace([5, 3, 1, 4, 2])
        intra, inter = classify_block_reordering(trace, [5])
        assert inter == 0
        assert intra == reorder_report(trace).reordered_count

    def test_partition_must_cover(self):
        with pytest.raises(PartitionError):
            classify_block_reordering(make_trace([1, 2, 3]), [2, 2])
        with pytest.raises(PartitionError):
            classify_block_reordering(make_trace([1, 2, 3]), [3, 0])

    @pytest.mark.parametrize(
        "partition",
        [[1.5, 1.5], [3.0], [1, 2.0], ["3"], [None, 3], [2, 1, 0], [4, -1], [np.float64(3)]],
    )
    def test_block_lengths_must_be_integers_of_at_least_one(self, partition):
        trace = make_trace([1, 3, 2])
        for walk in (classify_block_reordering, reorder_report, _walk):
            with pytest.raises(PartitionError):
                walk(trace, partition)

    def test_integer_types_are_block_lengths(self):
        trace = make_trace([1, 3, 2])
        want = reorder_report(trace, [2, 1])
        assert reorder_report(trace, np.array([2, 1])) == want
        assert reorder_report(trace, (True, 2)) == reorder_report(trace, [1, 2])

    def test_report_totals(self):
        trace = make_trace([2, 1, 4, 3])
        rep = reorder_report(trace, [2, 2])
        assert rep.intra_block + rep.inter_block == rep.reordered_count
        assert rep.total_packets == 4


class TestOracleAgreement:
    @given(perm=st.permutations(list(range(1, 8))))
    @settings(max_examples=300, derandomize=True)
    def test_unit_permutations(self, perm):
        trace = make_trace(list(perm))
        report = reorder_report(trace)
        assert (report.reordered_count, report.ratio) == brute_reordered_count(trace)
        assert report.max_extent == brute_max_extent(trace)

    @given(data=st.data())
    @settings(max_examples=150, derandomize=True)
    def test_byte_traces_with_partitions(self, data):
        n = data.draw(st.integers(min_value=1, max_value=16))
        starts = sorted(
            data.draw(
                st.lists(
                    st.integers(min_value=0, max_value=10_000),
                    min_size=n,
                    max_size=n,
                    unique=True,
                )
            )
        )
        lens = []
        for i, s in enumerate(starts):
            gap = (starts[i + 1] - s) if i + 1 < n else 1500
            lens.append(data.draw(st.integers(min_value=0, max_value=gap)))
        order = data.draw(st.permutations(list(range(n))))
        trace = make_trace([starts[i] for i in order], [lens[i] for i in order])
        # random contiguous partition
        cuts = sorted(
            data.draw(
                st.sets(st.integers(min_value=1, max_value=max(n - 1, 1)), max_size=3)
            )
        )
        partition = [b - a for a, b in zip([0] + cuts, cuts + [n]) if b - a > 0]
        empty = first_empty(trace)
        if empty is not None:
            assert rejects_empty_payload(trace, partition, empty)
            return
        report = reorder_report(trace, partition)
        assert (report.reordered_count, report.ratio) == brute_reordered_count(trace)
        assert report.max_extent == brute_max_extent(trace)
        assert (report.intra_block, report.inter_block) == brute_classify(trace, partition)


class TestClassifierOracles:
    """The classifier against the quadratic scan it replaced and against
    the brute-force definition, on byte traces that may wrap 2**32."""

    @given(data=st.data())
    @settings(max_examples=300, derandomize=True)
    def test_matches_reference_and_brute(self, data):
        n = data.draw(st.integers(min_value=1, max_value=24))
        starts = sorted(
            data.draw(
                st.lists(
                    st.integers(min_value=0, max_value=20_000),
                    min_size=n,
                    max_size=n,
                    unique=True,
                )
            )
        )
        lens = []
        for i, s in enumerate(starts):
            gap = (starts[i + 1] - s) if i + 1 < n else 1500
            lens.append(data.draw(st.integers(min_value=0, max_value=gap)))
        order = data.draw(st.permutations(list(range(n))))
        offsets = [starts[i] for i in order]
        lens = [lens[i] for i in order]
        # A base just below 2**32 makes the trace straddle the wrap.
        base = data.draw(
            st.one_of(st.just(0), st.integers(min_value=(1 << 32) - 20_000, max_value=(1 << 32) - 1))
        )
        trace = make_trace([(base + off) % (1 << 32) for off in offsets], lens)
        shape = data.draw(st.sampled_from(["one block", "single packets", "random"]))
        if shape == "one block":
            partition = [n]
        elif shape == "single packets":
            partition = [1] * n
        else:
            cuts = sorted(data.draw(st.sets(st.integers(min_value=1, max_value=max(n - 1, 1)))))
            partition = [b - a for a, b in zip([0] + cuts, cuts + [n]) if b - a > 0]
        empty = first_empty(trace)
        if empty is not None:
            assert rejects_empty_payload(trace, partition, empty)
            return
        got = classify_block_reordering(trace, partition)
        plain = make_trace(offsets, lens)
        assert got == reference_classify(offsets, brute_reordered_flags(plain), partition)
        assert got == brute_classify(plain, partition)
        report = reorder_report(trace, partition)
        assert (report.intra_block, report.inter_block) == got

    def test_partition_errors_match_reference(self):
        offsets = [3, 1, 2]
        flags = brute_reordered_flags(make_trace(offsets))
        for partition in ([2, 2], [3, 0], [4, -1], [1, 1]):
            with pytest.raises(PartitionError):
                reference_classify(offsets, flags, partition)
            with pytest.raises(PartitionError):
                classify_block_reordering(make_trace([3, 1, 2]), partition)


class TestReportSharesOnePass:
    @given(data=st.data())
    @settings(max_examples=200, derandomize=True)
    def test_report_equals_separate_functions(self, data):
        n = data.draw(st.integers(min_value=1, max_value=24))
        order = data.draw(st.permutations(list(range(n))))
        # Packets 3 bytes long at stride 5, shifted so some traces wrap 2**32.
        base = data.draw(st.sampled_from([0, (1 << 32) - 40]))
        trace = make_trace([(base + 5 * i) % (1 << 32) for i in order], [3] * n)
        cuts = sorted(data.draw(st.sets(st.integers(min_value=1, max_value=max(n - 1, 1)))))
        partition = [b - a for a, b in zip([0] + cuts, cuts + [n]) if b - a > 0]
        report = reorder_report(trace, partition)
        assert report.total_packets == n
        assert (report.intra_block, report.inter_block) == classify_block_reordering(
            trace, partition
        )
        # Without a partition, the same walk with the block fields unset.
        assert reorder_report(trace) == replace(report, intra_block=None, inter_block=None)

    def test_report_raises_like_the_parts(self):
        with pytest.raises(OverlappingSegmentsError):
            reorder_report(make_trace([0, 5], [10, 10]), [2])
        with pytest.raises(PartitionError):
            reorder_report(make_trace([1, 2, 3]), [2, 2])


class TestFirstCopiesAndOverlapCheck:
    """``first_copies`` drops a packet exactly when the public overlap
    check and the reference's sort-based check raise, on nonempty
    payloads."""

    @given(
        segs=st.lists(
            st.tuples(st.integers(0, 60), st.integers(1, 12)), max_size=30
        ),
        base=st.one_of(st.just(0), st.integers((1 << 32) - 80, (1 << 32) - 1)),
    )
    @settings(max_examples=400, derandomize=True)
    def test_drops_a_packet_exactly_when_the_check_raises(self, segs, base):
        # A small sequence space: shared starts, overlaps and exact touches,
        # with the start near the 2**32 wrap.
        trace = make_trace(
            [(base + s) % (1 << 32) for s, _ in segs], [n for _, n in segs]
        )
        kept, _offsets = first_copies(trace)
        for report in (reorder_report, reference_report):
            try:
                report(trace)
            except OverlappingSegmentsError:
                assert len(kept) < len(trace)
            else:
                assert len(kept) == len(trace)

    @pytest.mark.parametrize(
        "seqs, lens, inside",
        [
            ([0, 3], [6, 0], True),  # empty payload strictly inside another
            ([3, 0], [0, 6], True),  # the same, arriving first
            ([0, 0], [6, 0], False),  # at another packet's first byte
            ([0, 6], [6, 0], False),  # just past another packet's last byte
            ([4, 5, 5], [1, 3, 0], False),  # where two packets touch
        ],
    )
    def test_zero_length_payloads(self, seqs, lens, inside):
        # Wherever an empty payload lies, every whole-trace function
        # rejects it by its send_index, as a run does.
        trace = make_trace(seqs, lens)
        empty = first_empty(trace)
        e = trace[empty]
        assert inside == any(q.seq < e.seq < q.seq + q.payload_len for q in trace)
        assert rejects_empty_payload(trace, [len(trace)], empty)
        with pytest.raises(ValueError, match=f"send_index={empty} "):
            first_copies(trace)


class TestRangeWalkAgainstReference:
    """The byte-range walk against the walk that kept one offset per
    packet, on long disjoint, nonempty traces: shuffled or displaced within
    a window, some crossing 2**32, cut into random blocks."""

    @given(
        long=st.booleans(),
        seed=st.integers(0, 2**32),
        shape=st.sampled_from(["shuffled", "windowed", "in order"]),
        wrap=st.booleans(),
    )
    @settings(max_examples=60, derandomize=True, deadline=None)
    def test_reorder_report_equals_reference(self, long, seed, shape, wrap):
        # Seeded, not drawn value by value: a long trace would outgrow the
        # buffer Hypothesis draws from.
        rng = random.Random(seed)
        n = rng.randrange(1000, 2001) if long else rng.randrange(1, 65)
        starts, pos = [], 0
        for _ in range(n):
            starts.append(pos)
            pos += rng.randrange(1, 3000)
        # Half the packets touch the next one, as a stream's segments do.
        lens = [
            gap if rng.random() < 0.5 else rng.randrange(1, gap + 1)
            for gap in (b - a for a, b in zip(starts, starts[1:] + [pos]))
        ]
        order = list(range(n))
        if shape == "shuffled":
            rng.shuffle(order)
        elif shape == "windowed":
            window = rng.choice([2, 8, 64])
            order.sort(key=lambda i: i + rng.uniform(0, window))
        base = (1 << 32) - rng.randrange(1, pos + 1) if wrap else 0
        trace = make_trace(
            [(base + starts[i]) % (1 << 32) for i in order], [lens[i] for i in order]
        )
        cuts = sorted(rng.sample(range(1, n), rng.randrange(n))) if n > 1 else []
        partition = [b - a for a, b in zip([0] + cuts, cuts + [n])]
        assert reorder_report(trace, partition) == reference_report(trace, partition)
        assert reorder_report(trace) == reference_report(trace)


# Traces starting within 3 of 0 (on both sides of the 2**32 wrap) or of
# 2**31, with steps between packets that are small or lie within 3 of 2**31
# either way, where an inline serial step that gets the wrap or the half-way
# point wrong would disagree with ``unwrapper``.
ANCHORS = st.builds(
    lambda anchor, d: (anchor + d) % SEQ_MOD,
    st.sampled_from([0, SEQ_HALF]),
    st.integers(-3, 3),
)
STEPS = st.one_of(
    st.integers(-4, 4).map(lambda k: 4 * k),
    st.builds(lambda sign, d: sign * (SEQ_HALF + d), st.sampled_from([1, -1]), st.integers(-3, 3)),
)


@st.composite
def serial_traces(draw):
    seq = draw(ANCHORS)
    seqs = [seq]
    for step in draw(st.lists(STEPS, max_size=15)):
        seq = (seq + step) % SEQ_MOD
        seqs.append(seq)
    lens = draw(st.lists(st.integers(1, 4), min_size=len(seqs), max_size=len(seqs)))
    return make_trace(seqs, lens)


def _partitions(n):
    cuts = st.sets(st.integers(1, max(n - 1, 1))).map(lambda s: sorted(c for c in s if c < n))
    return cuts.map(lambda c: [b - a for a, b in zip([0] + c, c + [n])])


class TestInlineWalkSteps:
    """``_walk`` and ``FirstCopyReports`` write out the serial step and
    ``_RangeWalk.add``'s in-order case; each must leave the walk in the
    state that ``unwrapper`` offsets fed through ``add`` alone give."""

    @given(trace=serial_traces(), data=st.data())
    @settings(max_examples=400, derandomize=True, deadline=None)
    def test_walk_equals_add_only_walk(self, trace, data):
        partition = data.draw(_partitions(len(trace)))
        try:
            want = walk_state(add_only_walk(trace, partition))
        except OverlappingSegmentsError:
            with pytest.raises(OverlappingSegmentsError):
                _walk(trace, partition)
        else:
            assert walk_state(_walk(trace, partition)) == want

    @given(trace=serial_traces(), data=st.data())
    @settings(max_examples=400, derandomize=True, deadline=None)
    def test_first_copy_reports_equal_add_only_feeder(self, trace, data):
        # Arrivals may share bytes here: arrive drops such later copies.
        delivered = data.draw(st.permutations(trace))[: data.draw(st.integers(0, len(trace)))]
        pre, post, returned = add_only_reports(trace, delivered)
        acc = FirstCopyReports()
        assert [acc.arrive(p) for p in trace] == returned
        offsets = {id(p): s for p, s in zip(trace, returned)}
        for p in delivered:
            acc.deliver(p, offsets[id(p)])
        assert walk_state(acc.pre) == walk_state(pre)
        assert walk_state(acc.post) == walk_state(post)
        # Merged: no two kept ranges touch.
        for walk in (acc.pre, acc.post):
            assert all(e < s for e, s in zip(walk.ends, walk.starts[1:]))

    @given(seed=st.integers(0, 2**32), wrap=st.booleans())
    @settings(max_examples=60, derandomize=True, deadline=None)
    def test_one_packet_blocks_equal_reference(self, seed, wrap):
        # Every packet is its own block, so every reordered packet is
        # inter-block, and the mark moves after every packet.
        rng = random.Random(seed)
        n = rng.randrange(1, 200)
        order = list(range(n))
        order.sort(key=lambda i: i + rng.uniform(0, rng.choice([1, 4, 32])))
        base = (1 << 32) - rng.randrange(1, 3 * n + 1) if wrap else 0
        trace = make_trace([(base + 3 * i) % (1 << 32) for i in order], [rng.randrange(1, 4) for _ in order])
        ones = [1] * n
        walk = _walk(trace, ones)
        assert walk.report(True) == reference_report(trace, ones)
        assert walk.inter == walk.count
        assert walk_state(walk) == walk_state(add_only_walk(trace, ones))


def _python_calls(fn):
    """Python-level calls made while ``fn()`` runs, by qualified name."""
    calls = Counter()

    def profile(frame, event, arg):
        if event == "call":
            calls[frame.f_code.co_qualname] += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


class TestInOrderCallCount:
    """An in-order packet extends the top range inline: no ``add`` call,
    and no other Python call, per packet."""

    TRACE = make_trace([((1 << 32) - 5000 + 10 * i) % (1 << 32) for i in range(2000)], [10] * 2000)

    def test_reorder_report(self):
        calls = _python_calls(lambda: reorder_report(self.TRACE, [50] * 40))
        assert calls["_RangeWalk.add"] == 1
        assert calls["_RangeWalk.end_block"] == 40
        assert sum(calls.values()) - 40 < 20

    def test_arrive_and_deliver(self):
        acc = FirstCopyReports()
        offsets = []

        def feed():
            for p in self.TRACE:
                offsets.append(acc.arrive(p))
            for p, s in zip(self.TRACE, offsets):
                acc.deliver(p, s)

        calls = _python_calls(feed)
        assert calls["_RangeWalk.add"] == 2  # the first arrival and delivery
        per_packet = calls["FirstCopyReports.arrive"] + calls["FirstCopyReports.deliver"]
        assert per_packet == 4000
        assert sum(calls.values()) - per_packet < 5
        assert acc.reports() == (reference_report(self.TRACE),) * 2


class TestSortingTheorems:
    def _sorted_by_blocks(self, trace, block):
        out = []
        for i in range(0, len(trace), block):
            out.extend(sorted(trace[i : i + block], key=lambda p: p.seq))
        return out

    def test_elimination_of_intra_block_reordering(self):
        rng = random.Random(7)
        for _ in range(200):
            n = 20
            order = list(range(1, n + 1))
            rng.shuffle(order)
            trace = make_trace(order)
            for block in (4, 5, 10):
                partition = [block] * (n // block)
                intra, inter = classify_block_reordering(trace, partition)
                post = self._sorted_by_blocks(trace, block)
                post_count = reorder_report(post).reordered_count
                assert post_count <= inter

    def test_nested_partition_monotonicity(self):
        rng = random.Random(11)
        for _ in range(200):
            order = list(range(1, 21))
            rng.shuffle(order)
            trace = make_trace(order)
            counts = []
            for block in (5, 10, 20):
                post = self._sorted_by_blocks(trace, block)
                counts.append(reorder_report(post).reordered_count)
            assert counts[2] <= counts[1] <= counts[0]
            assert counts[2] == 0
