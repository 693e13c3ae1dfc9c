import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srpicsim.metrics import (
    OverlappingSegmentsError,
    PartitionError,
    _reordered_flags,
    classify_block_reordering,
    max_reordering_extent,
    reorder_report,
    reordered_count,
)
from srpicsim.sorter import SrpicEngine

from oracles import (
    brute_classify,
    brute_max_extent,
    brute_reordered_count,
    make_trace,
    reference_classify,
)


class TestReorderedCount:
    def test_in_order(self):
        assert reordered_count(make_trace([1, 2, 3, 4, 5, 6, 7])) == (0, 0.0)

    def test_golden_arrival_order(self):
        count, ratio = reordered_count(make_trace([2, 3, 1, 4, 6, 7, 5]))
        assert count == 2
        assert ratio == pytest.approx(2 / 7)

    def test_sorted_output_clean(self):
        eng = SrpicEngine(block_size=7)
        out = eng.process_cycle(make_trace([2, 3, 1, 4, 6, 7, 5]))
        assert reordered_count(out) == (0, 0.0)

    def test_empty(self):
        assert reordered_count([]) == (0, 0.0)

    def test_overlap_rejected(self):
        trace = make_trace([1, 1], lens=[2, 2])
        with pytest.raises(OverlappingSegmentsError):
            reordered_count(trace)

    def test_wraparound_trace(self):
        # in-order arrivals across the 2**32 boundary are clean
        trace = make_trace([2**32 - 2, 2**32 - 1, 0, 1])
        assert reordered_count(trace) == (0, 0.0)
        # 0 arrives after 1 has already advanced the expectation past it
        wrapped = make_trace([2**32 - 1, 1, 0, 2])
        assert reordered_count(wrapped)[0] == 1
        assert max_reordering_extent(wrapped) == 1

    def test_trace_spanning_more_than_2_31_bytes(self):
        # 3 GiB in order, crossing the wrap once: every packet is in order
        # relative to the one before it, however far it is from the first.
        trace = make_trace([(i << 20) % 2**32 for i in range(3000)], [1 << 20] * 3000)
        report = reorder_report(trace)
        assert (report.reordered_count, report.max_extent) == (0, 0)


class TestMaxExtent:
    def test_in_order(self):
        assert max_reordering_extent(make_trace([1, 2, 3])) == 0

    def test_adjacent_swap(self):
        assert max_reordering_extent(make_trace([2, 1])) == 1

    def test_displaced_by_three(self):
        assert max_reordering_extent(make_trace([2, 3, 4, 1])) == 3


class TestClassification:
    def test_intra_only(self):
        assert classify_block_reordering(make_trace([2, 1, 3, 4]), [2, 2]) == (1, 0)

    def test_inter_only(self):
        assert classify_block_reordering(make_trace([2, 3, 1, 4]), [2, 2]) == (0, 1)

    def test_single_block_has_no_inter(self):
        trace = make_trace([5, 3, 1, 4, 2])
        intra, inter = classify_block_reordering(trace, [5])
        assert inter == 0
        assert intra == reordered_count(trace)[0]

    def test_partition_must_cover(self):
        with pytest.raises(PartitionError):
            classify_block_reordering(make_trace([1, 2, 3]), [2, 2])
        with pytest.raises(PartitionError):
            classify_block_reordering(make_trace([1, 2, 3]), [3, 0])

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
        assert reordered_count(trace) == brute_reordered_count(trace)
        assert max_reordering_extent(trace) == brute_max_extent(trace)

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
        assert reordered_count(trace) == brute_reordered_count(trace)
        assert max_reordering_extent(trace) == brute_max_extent(trace)
        # random contiguous partition
        cuts = sorted(
            data.draw(
                st.sets(st.integers(min_value=1, max_value=max(n - 1, 1)), max_size=3)
            )
        )
        partition = [b - a for a, b in zip([0] + cuts, cuts + [n]) if b - a > 0]
        assert classify_block_reordering(trace, partition) == brute_classify(
            trace, partition
        )


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
        got = classify_block_reordering(trace, partition)
        assert got == reference_classify(*_reordered_flags(trace), partition)
        assert got == brute_classify(make_trace(offsets, lens), partition)
        report = reorder_report(trace, partition)
        assert (report.intra_block, report.inter_block) == got

    def test_partition_errors_match_reference(self):
        offsets, flags = _reordered_flags(make_trace([3, 1, 2]))
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
        count, ratio = reordered_count(trace)
        assert (report.total_packets, report.reordered_count, report.ratio) == (n, count, ratio)
        assert report.max_extent == max_reordering_extent(trace)
        assert (report.intra_block, report.inter_block) == classify_block_reordering(
            trace, partition
        )
        plain = reorder_report(trace)
        assert (plain.intra_block, plain.inter_block) == (None, None)
        assert plain.max_extent == report.max_extent

    def test_report_raises_like_the_parts(self):
        with pytest.raises(OverlappingSegmentsError):
            reorder_report(make_trace([0, 5], [10, 10]), [2])
        with pytest.raises(PartitionError):
            reorder_report(make_trace([1, 2, 3]), [2, 2])


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
                post_count, _ = reordered_count(post)
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
                counts.append(reordered_count(post)[0])
            assert counts[2] <= counts[1] <= counts[0]
            assert counts[2] == 0
