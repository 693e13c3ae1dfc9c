import hashlib
import math
import random
import statistics
from itertools import count, islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srpicsim.channel import _CHUNK, PathConfig, PathStreams, apply_path
from srpicsim.metrics import reorder_report
from srpicsim.packets import FlowKey, Packet, TcpFlags

from oracles import (
    mean_extent_model,
    reference_apply_path,
    reference_draws,
    reordered_ratio_model,
)

FLOW = FlowKey(9, 8, 7, 6)


def cbr_trace(n, spacing_us=10.0, payload=1448):
    return [
        Packet(
            flow=FLOW,
            seq=i * payload,
            payload_len=payload,
            send_index=i,
            send_time=i * spacing_us,
        )
        for i in range(n)
    ]


class TestApplyPath:
    def test_constant_delay_is_identity_on_order(self):
        trace = cbr_trace(50)
        out = apply_path(trace, PathConfig(alpha_ms=2.5, beta=0.0, drop_rate=0.0, seed=1))
        assert [p.send_index for p in out] == list(range(50))
        for p in out:
            assert p.arrival_time == pytest.approx(p.send_time + 2500.0)

    def test_full_drop_empties_trace(self):
        out = apply_path(cbr_trace(30), PathConfig(drop_rate=1.0, seed=1))
        assert out == []

    def test_binomial_survivor_count(self):
        trace = cbr_trace(10_000)
        out = apply_path(trace, PathConfig(alpha_ms=1.0, beta=0.0, drop_rate=0.01, seed=42))
        sigma = (10_000 * 0.01 * 0.99) ** 0.5
        assert abs(len(out) - 9_900) <= 3 * sigma

    def test_deterministic(self):
        trace = cbr_trace(500)
        cfg = PathConfig(alpha_ms=2.5, beta=0.05, drop_rate=0.02, seed=7)
        a = apply_path(trace, cfg)
        b = apply_path(trace, cfg)
        assert a == b

    def test_no_duplication(self):
        trace = cbr_trace(300)
        out = apply_path(trace, PathConfig(alpha_ms=2.5, beta=0.2, drop_rate=0.1, seed=3))
        indices = [p.send_index for p in out]
        assert len(set(indices)) == len(indices)
        assert set(indices) <= set(range(300))

    def test_jitter_produces_reordering(self):
        # std-dev 250us against 10us spacing: inversions are certain
        trace = cbr_trace(200)
        out = apply_path(trace, PathConfig(alpha_ms=2.5, beta=0.10, drop_rate=0.0, seed=5))
        assert reorder_report(out).reordered_count > 0

    def test_drop_stream_does_not_shift_delays(self):
        trace = cbr_trace(400)
        lossless = apply_path(trace, PathConfig(alpha_ms=2.5, beta=0.02, drop_rate=0.0, seed=11))
        lossy = apply_path(trace, PathConfig(alpha_ms=2.5, beta=0.02, drop_rate=0.5, seed=11))
        by_index = {p.send_index: p.arrival_time for p in lossless}
        for p in lossy:
            assert p.arrival_time == by_index[p.send_index]

    def test_negative_draws_clamp_to_zero(self):
        # enormous relative jitter forces negative raw draws
        trace = cbr_trace(2_000, spacing_us=1.0)
        out = apply_path(trace, PathConfig(alpha_ms=0.001, beta=50.0, drop_rate=0.0, seed=2))
        assert all(p.arrival_time >= p.send_time for p in out)
        assert any(p.arrival_time == p.send_time for p in out)

    def test_more_jitter_means_more_reordering(self):
        betas = (0.002, 0.01, 0.02, 0.10)
        means = []
        for beta in betas:
            ratios = []
            for seed in range(1, 31):
                out = apply_path(
                    cbr_trace(400),
                    PathConfig(alpha_ms=2.5, beta=beta, drop_rate=0.0, seed=seed),
                )
                ratios.append(reorder_report(out).ratio)
            means.append(statistics.mean(ratios))
        assert all(b >= a for a, b in zip(means, means[1:]))
        assert means[-1] > means[0]


class TestApplyPathOracle:
    @given(
        send_slots=st.lists(st.integers(min_value=0, max_value=40), max_size=60),
        drop_rate=st.sampled_from([0.0, 0.3, 1.0]),
        beta=st.sampled_from([0.0, 0.002, 0.5]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=200, derandomize=True)
    def test_matches_reference(self, send_slots, drop_rate, beta, seed):
        # Few distinct send instants, so many packets share one.
        trace = [
            Packet(
                flow=FLOW,
                seq=(i * 1000) % 2**32,
                payload_len=1 + i % 3,
                flags=TcpFlags.ACK if i % 5 else TcpFlags.FIN,
                is_fragment=i % 7 == 0,
                has_disallowed_options=i % 11 == 0,
                send_index=i,
                send_time=slot * 5.0,
            )
            for i, slot in enumerate(sorted(send_slots))
        ]
        cfg = PathConfig(alpha_ms=0.01, beta=beta, drop_rate=drop_rate, seed=seed)
        assert apply_path(trace, cfg) == reference_apply_path(trace, cfg)

    @given(
        packets=st.lists(
            st.tuples(st.integers(0, 2), st.integers(0, 5), st.integers(0, 5)), max_size=40
        ),
        drop_rate=st.sampled_from([0.0, 0.3]),
        beta=st.sampled_from([0.0, 0.002, 0.5]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=200, derandomize=True)
    def test_matches_reference_in_any_trace_order(self, packets, drop_rate, beta, seed):
        # (flow, send_index, send slot) in the trace's own order: send_index
        # need not follow it and repeats within and across flows, and with
        # beta 0 a repeated send slot is an exact arrival tie.  A distinct
        # seq per trace position makes equal lists equal in order.
        trace = [
            Packet(
                flow=FlowKey(9, 8, 7, flow),
                seq=i,
                payload_len=1,
                send_index=index,
                send_time=slot * 5.0,
            )
            for i, (flow, index, slot) in enumerate(packets)
        ]
        cfg = PathConfig(alpha_ms=0.01, beta=beta, drop_rate=drop_rate, seed=seed)
        assert apply_path(trace, cfg) == reference_apply_path(trace, cfg)

    def test_tied_arrivals_keep_send_order(self):
        trace = [
            Packet(flow=FLOW, seq=i, payload_len=1, send_index=i, send_time=7.0)
            for i in range(20)
        ]
        cfg = PathConfig(alpha_ms=1.0, beta=0.0, seed=4)
        out = apply_path(trace, cfg)
        assert out == reference_apply_path(trace, cfg)
        assert [p.send_index for p in out] == list(range(20))
        assert all(p.arrival_time == 1007.0 for p in out)


class TestReorderModel:
    """``apply_path`` against the closed-form share of packets reordered by
    i.i.d. normal delays (``oracles.reordered_ratio_model``) and their
    mean reorder extent (``oracles.mean_extent_model``), on a grid of
    jitter ``beta`` and send spacing ``g`` at a mean delay of 2.5 ms.

    The bound: the simulated value lies within four standard errors of
    the model.  The standard error is that of batch means over the trace:
    20 batches of 5,000 consecutive send slots, each with its own share
    or mean, give the standard deviation of those values over sqrt(20).
    A packet's reordering depends only on packets within 16 sigma / g
    send slots of it (at most 100 on this grid), so the batches are
    nearly independent.
    """

    PACKETS = 100_000
    BATCHES = 20

    @pytest.mark.parametrize(
        "beta, spacing_us",
        [(0.002, 4.0), (0.002, 12.0), (0.01, 4.0), (0.01, 50.0), (0.05, 80.0)],
    )
    def test_reordered_ratio_matches_the_model(self, beta, spacing_us):
        n = self.PACKETS
        out = apply_path(
            cbr_trace(n, spacing_us), PathConfig(alpha_ms=2.5, beta=beta, drop_rate=0.0, seed=7)
        )
        report = reorder_report(out)
        # Each packet's flag by the next-expected walk, filed by send slot.
        flags = [False] * n
        top = -1
        for p in out:
            flags[p.send_index] = p.seq < top
            top = max(top, p.seq + p.payload_len)
        assert sum(flags) == report.reordered_count
        size = n // self.BATCHES
        shares = [sum(flags[i : i + size]) / size for i in range(0, n, size)]
        stderr = statistics.stdev(shares) / math.sqrt(self.BATCHES)
        model = reordered_ratio_model(2.5, beta, spacing_us)
        assert abs(report.ratio - model) <= 4.0 * stderr, (report.ratio, model, stderr)

    @pytest.mark.parametrize("beta, spacing_us", [(0.002, 4.0), (0.01, 4.0), (0.05, 80.0)])
    def test_mean_extent_matches_the_model(self, beta, spacing_us):
        n = self.PACKETS
        out = apply_path(
            cbr_trace(n, spacing_us), PathConfig(alpha_ms=2.5, beta=beta, drop_rate=0.0, seed=7)
        )
        report = reorder_report(out)
        # Each packet's extent, filed by send slot: the later-sent packets
        # that arrive before it.  With every packet at most ``shift``
        # places from its send slot, one 2 * shift or more slots later
        # arrives after it.
        pos = np.empty(n, dtype=np.int64)
        pos[[p.send_index for p in out]] = np.arange(n)
        shift = int(np.abs(pos - np.arange(n)).max())
        extents = np.zeros(n, dtype=np.int64)
        for k in range(1, 2 * shift):
            extents[:-k] += pos[k:] < pos[:-k]
        assert extents.max() == report.max_extent
        means = extents.reshape(self.BATCHES, -1).mean(axis=1)
        stderr = means.std(ddof=1) / math.sqrt(self.BATCHES)
        model = mean_extent_model(2.5, beta, spacing_us)
        assert abs(extents.mean() - model) <= 4.0 * stderr, (extents.mean(), model, stderr)


class TestPathConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            PathConfig(alpha_ms=-1.0)
        with pytest.raises(ValueError):
            PathConfig(beta=-0.1)
        with pytest.raises(ValueError):
            PathConfig(drop_rate=1.5)

    @pytest.mark.parametrize(
        "alpha_ms, beta, message",
        [
            (1.0e306, 0.0, "alpha_ms \\* 1000"),
            (2.5, 1.0e306, "beta \\* alpha_ms \\* 1000"),
            (1.0e300, 1.0e10, "beta \\* alpha_ms \\* 1000"),
            # Mean and std-dev are finite (1e308 us each), but mean + x * std
            # overflows for x above about 0.8: many draws would be inf or 0.
            (1.0e305, 1.0, "9 \\* beta \\* alpha_ms \\* 1000"),
        ],
    )
    def test_delay_infinite_in_microseconds_rejected(self, alpha_ms, beta, message):
        # Finite in milliseconds but infinite in microseconds: the mean, the
        # std-dev or the far tail of the draws would be inf.
        with pytest.raises(ValueError, match=message):
            PathConfig(alpha_ms=alpha_ms, beta=beta)

    def test_every_draw_finite_at_the_accepted_extreme(self):
        streams = PathStreams(PathConfig(alpha_ms=1.0e300, beta=1.0, seed=3))
        assert all(math.isfinite(streams.next_delay_us()) for _ in range(10_000))

    def test_streams_are_reproducible_per_seed(self):
        cfg = PathConfig(alpha_ms=1.0, beta=0.1, drop_rate=0.3, seed=99)
        s1 = PathStreams(cfg)
        s2 = PathStreams(cfg)
        for _ in range(100):
            assert s1.next_dropped() == s2.next_dropped()
            assert s1.next_delay_us() == s2.next_delay_us()

    @pytest.mark.parametrize(
        "alpha_ms, beta, seed",
        [(2.5, 0.02, 1), (2.5, 0.1, 7), (0.001, 50.0, 2), (1.0, 0.3, 2**40 + 3)],
    )
    def test_delay_draw_is_the_standard_quantile_scaled(self, alpha_ms, beta, seed):
        # The k-th draw is mean + std * NormalDist().inv_cdf(u) for the k-th
        # u of the same delay stream, clamped at zero.
        streams = PathStreams(PathConfig(alpha_ms=alpha_ms, beta=beta, seed=seed))
        rng = random.Random(f"{seed}:delay")
        mean = alpha_ms * 1000.0
        std = beta * mean
        for _ in range(500):
            d = mean + std * statistics.NormalDist().inv_cdf(rng.random())
            assert streams.next_delay_us() == (d if d > 0.0 else 0.0)

    @pytest.mark.parametrize("at", [0, _CHUNK])
    @pytest.mark.parametrize("alpha_ms, beta", [(2.5, 0.02), (0.001, 50.0)])
    def test_a_zero_uniform_draws_zero_delay_and_shifts_nothing(self, alpha_ms, beta, at):
        # random() may return exactly 0.0, outside inv_cdf's domain.  That
        # draw is 0.0, the clamp's limit as u -> 0, and it takes one value
        # of the stream like any other: every other draw is that of an
        # unpatched stream.  Draw _CHUNK is the first of the second chunk.
        cfg = PathConfig(alpha_ms=alpha_ms, beta=beta, seed=8)
        expected = list(islice(PathStreams(cfg).delays, at + 3))
        expected[at] = 0.0
        streams = PathStreams(cfg)
        real = streams._delay_rng.random
        calls = count()

        def random_giving_zero_at():
            u = real()
            return 0.0 if next(calls) == at else u

        streams._delay_rng.random = random_giving_zero_at
        got = [streams.next_delay_us()] + list(islice(streams.delays, at + 2))
        assert got == expected

    @pytest.mark.parametrize("alpha_ms, beta", [(2.5, 0.0), (0.0, 0.3), (0.0, 0.0)])
    def test_a_zero_std_dev_gives_the_mean_and_draws_nothing(self, alpha_ms, beta):
        streams = PathStreams(PathConfig(alpha_ms=alpha_ms, beta=beta, seed=5))
        state = streams._delay_rng.getstate()
        assert [streams.next_delay_us() for _ in range(20)] == [alpha_ms * 1000.0] * 20
        assert streams._delay_rng.getstate() == state


class TestDrawStreams:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**64),
        alpha_ms=st.one_of(st.just(0.0), st.just(0.001), st.floats(0.0, 10.0)),
        beta=st.one_of(st.just(0.0), st.floats(0.0, 0.5), st.floats(0.0, 60.0)),
        drop_rate=st.one_of(st.just(0.0), st.floats(0.0, 1.0), st.just(1.0)),
        ways=st.lists(st.integers(0, 3), min_size=1, max_size=8),
    )
    def test_chunked_draws_equal_the_per_draw_reference(
        self, seed, alpha_ms, beta, drop_rate, ways
    ):
        # Over three chunks and a part of a fourth, each draw equals the
        # one-at-a-time reference, whether it is read with next() or
        # through next_dropped()/next_delay_us(), in any mix.
        cfg = PathConfig(alpha_ms=alpha_ms, beta=beta, drop_rate=drop_rate, seed=seed)
        n = 3 * _CHUNK + 7
        streams = PathStreams(cfg)
        got = []
        for k in range(n):
            way = ways[k % len(ways)]
            dropped = streams.next_dropped() if way & 1 else next(streams.drops)
            delay = streams.next_delay_us() if way & 2 else next(streams.delays)
            got.append((dropped, delay))
        assert got == list(islice(reference_draws(cfg), n))

    def test_a_stream_holds_at_most_one_chunk_of_pending_draws(self):
        # Nothing is drawn before the first next(); after k draws, a stream
        # has drawn the whole chunks that cover them, and no more.
        cfg = PathConfig(alpha_ms=2.5, beta=0.02, drop_rate=0.01, seed=3)
        streams = PathStreams(cfg)
        rngs = (streams._drop_rng, streams._delay_rng)
        refs = (random.Random("3:drop"), random.Random("3:delay"))
        assert [r.getstate() for r in rngs] == [r.getstate() for r in refs]
        drawn = 0
        for k in range(1, 2 * _CHUNK + 2):
            next(streams.drops)
            next(streams.delays)
            if drawn < k:
                for ref in refs:
                    for _ in range(_CHUNK):
                        ref.random()
                drawn += _CHUNK
            assert [r.getstate() for r in rngs] == [r.getstate() for r in refs]

    @pytest.mark.parametrize(
        "cfg, digest",
        [
            (
                PathConfig(alpha_ms=2.5, beta=0.02, drop_rate=0.01, seed=1),
                "b08667fbd6fc61d16ab25d839d045edf6ffb2e0a58bec9eada16a0dd2d88de6e",
            ),
            (
                PathConfig(alpha_ms=0.001, beta=50.0, drop_rate=0.3, seed=2**40 + 3),
                "13c0b86fc565dcdc3be4b10962fcfc26077b682c17a768a654e42cb607c92b65",
            ),
        ],
    )
    def test_the_first_draws_match_their_pinned_digest(self, cfg, digest):
        # The digest of the first 10,000 (drop, delay) pairs, taken from
        # the per-draw streams before they were drawn in chunks.
        streams = PathStreams(cfg)
        h = hashlib.sha256()
        for _ in range(10_000):
            dropped, delay = next(streams.drops), next(streams.delays)
            h.update(f"{dropped:d} {delay.hex()}\n".encode())
        assert h.hexdigest() == digest
