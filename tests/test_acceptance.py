"""Acceptance suite: one test per release criterion, printing a PASS/FAIL
line each (run with -s or -v to see them).

Criterion 3 is split: the Poisson half and the monotonicity clause hold;
the equal-spaced (CBR) half at high utilization cannot meet the stated
tolerance for structural reasons documented on the test itself.
"""

import itertools
import random
from pathlib import Path

import numpy as np

from srpicsim.coalescing import (
    CoalescingParams,
    block_size_closed_form,
    hold_delay_bound,
    simulate_coalescing,
)
from srpicsim.metrics import reorder_report
from srpicsim.scenario import load_scenario, override_param, rows_to_csv, run_scenario
from srpicsim.sorter import SrpicEngine
from srpicsim.tcp import run_transfer

from oracles import (
    brute_classify,
    brute_max_extent,
    brute_reordered_count,
    first_empty,
    make_trace,
    rejects_empty_payload,
    sort_cycle,
)

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def report(criterion: str, ok: bool, detail: str = ""):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def _scaled(cfg, seeds):
    from dataclasses import replace

    return replace(cfg, seeds=tuple(seeds))


# -- 1 ---------------------------------------------------------------------


def test_criterion_1_golden_sorting_walk():
    """Arrival order 2,3,1,4,6,7,5 reproduces every intermediate list state
    and flushes 1..7."""
    expected_states = [
        ([], [], [], 0),
        ([], [2], [], 3),
        ([], [2, 3], [], 4),
        ([1], [2, 3], [], 4),
        ([1], [2, 3, 4], [], 5),
        ([1], [2, 3, 4], [6], 5),
        ([1], [2, 3, 4], [6, 7], 5),
        ([1], [2, 3, 4, 5], [6, 7], 6),
    ]
    held = SrpicEngine(block_size=8)  # a block above the trace length: no flush
    seen = [([], [], [], 0)]
    for p in make_trace([2, 3, 1, 4, 6, 7, 5]):
        held.ingest(p)
        m = held.managers[p.flow]
        seen.append(
            (
                [q.seq for q in m.prev_list],
                [q.seq for q in m.curr_list],
                [q.seq for q in m.after_list],
                m.next_exp,
            )
        )
    flushed = [q.seq for q in m.flush()]
    ok = seen == expected_states and flushed == [1, 2, 3, 4, 5, 6, 7]
    # same trace through the engine must flush automatically at the block cap
    eng = SrpicEngine(block_size=7)
    out = [p.seq for p in sort_cycle(eng, make_trace([2, 3, 1, 4, 6, 7, 5]))]
    report("1 (golden sorting walk)", ok and out == [1, 2, 3, 4, 5, 6, 7])


# -- 2 ---------------------------------------------------------------------


def test_criterion_2_block_sorting_always_reduces():
    """1,000 displacement-bounded 20-packet shuffles: sorting in blocks of
    5/10/20 never increases the reordered count; whole-trace blocks zero it."""
    rng = random.Random(2024)
    n = 20
    reduced = {5: 0, 10: 0, 20: 0}
    zeroed = 0
    nonzero_pre = 0
    for _ in range(1000):
        keys = [i + rng.uniform(-3.0, 3.0) for i in range(n)]
        order = [s + 1 for s in sorted(range(n), key=lambda i: keys[i])]
        trace = make_trace(order)
        pre = reorder_report(trace).reordered_count
        nonzero_pre += pre > 0
        for block in (5, 10, 20):
            eng = SrpicEngine(block_size=block, ringbuffer_size=512)
            post = reorder_report(sort_cycle(eng, trace)).reordered_count
            reduced[block] += post <= pre
            if block == 20:
                zeroed += post == 0
    ok = all(v == 1000 for v in reduced.values()) and zeroed == 1000
    report(
        "2 (block sorting reduces reordering)",
        ok and nonzero_pre > 900,
        f"reduced={reduced} zeroed={zeroed}/1000 shuffles_with_reordering={nonzero_pre}",
    )


# -- 3 ---------------------------------------------------------------------

_C3_PARAMS = CoalescingParams(t_intr_us=5.0, r_sn_pps=1e6)
_C3_UTILS = (0.1, 0.3, 0.5, 0.7, 0.9)


def _mean_block(arrivals):
    cycles = simulate_coalescing(arrivals, _C3_PARAMS)
    return sum(c.block_packets for c in cycles) / len(cycles)


def test_criterion_3_closed_form_poisson_and_monotone():
    """Mean simulated block size tracks the closed form within one packet
    for Poisson arrivals, and grows monotonically with utilization."""
    rng = np.random.default_rng(33)
    lines = []
    ok = True
    poisson_means = []
    for util in _C3_UTILS:
        rate = util * 1.0  # packets per microsecond
        n = 30_000 if util < 0.7 else (120_000 if util < 0.9 else 1_500_000)
        arrivals = np.cumsum(rng.exponential(1.0 / rate, size=n))
        mean = _mean_block(arrivals.tolist())
        closed = block_size_closed_form(util * 1e6, _C3_PARAMS)
        poisson_means.append(mean)
        ok &= abs(mean - closed) <= 1.0
        lines.append(f"u={util}: sim {mean:.2f} vs closed {closed}")
    monotone = all(b >= a for a, b in zip(poisson_means, poisson_means[1:]))
    report("3a (closed form, Poisson + monotone)", ok and monotone, "; ".join(lines))


def test_criterion_3_closed_form_cbr():
    """Equal-spaced (CBR) agreement with the closed form at the same grid.

    Expected to fail at utilization 0.5 and above: with deterministic
    equal spacing, a cycle ends as soon as the integer ring drains,
    serving about t_intr*rate/(1-u) packets, while the closed form
    carries an extra 1/(1-u) term that only random (Palm-conditioned)
    arrivals realize.  That gap stays within one packet for u <= 0.3 but
    grows like 1/(1-u) beyond, independent of parameter choices, so the
    +-1-packet tolerance is unreachable at u in {0.5, 0.7, 0.9}.  Poisson
    arrivals (3a) meet the tolerance on the whole grid.
    """
    lines = []
    ok = True
    for util in _C3_UTILS:
        rate = util * 1.0
        arrivals = [i / rate for i in range(60_000)]
        mean = _mean_block(arrivals)
        closed = block_size_closed_form(util * 1e6, _C3_PARAMS)
        good = abs(mean - closed) <= 1.0
        ok &= good
        lines.append(f"u={util}: sim {mean:.2f} vs closed {closed} {'ok' if good else 'GAP'}")
    report("3b (closed form, CBR)", ok, "; ".join(lines))


# -- 4 ---------------------------------------------------------------------


def test_criterion_4_hold_delay_bounds():
    """No packet is ever held past block_size/r_sn, nor past
    ringbuffer_size/r_sn; checked by a live assertion in every run and
    re-verified here on the recorded maxima."""
    cfg = load_scenario(str(SCENARIO_DIR / "table4_analog.yaml"))
    block_bound = hold_delay_bound(cfg.srpic.block_size, cfg.coalescing.r_sn_pps)
    ring_bound = hold_delay_bound(cfg.srpic.ringbuffer_size, cfg.coalescing.r_sn_pps)
    worst = 0.0
    for beta in (0.0, 0.002, 0.1):
        point = override_param(_scaled(cfg, (1, 2)), "beta", beta)
        for seed in point.seeds:
            m = run_transfer(point, seed=seed, srpic=True)[0]
            worst = max(worst, m.max_hold_delay_us)
    ok = worst <= block_bound and worst <= ring_bound
    report(
        "4 (hold-delay bounds)",
        ok,
        f"max hold {worst:.1f}us vs block bound {block_bound:.1f}us, ring bound {ring_bound:.1f}us",
    )


# -- 5 ---------------------------------------------------------------------


def test_criterion_5_reordering_direction_static_sender():
    """Static sender, forward jitter, no drops: the sorting arm wins on
    duplicate ACKs and retransmissions in >=9/10 seeds at every beta, and
    on goodput in >=8/10 seeds for beta <= 2%.  The paired summary must
    show a duplicate-ACK ratio below one with the paired-difference
    interval excluding zero."""
    from dataclasses import replace

    from srpicsim.scenario import compare

    cfg = load_scenario(str(SCENARIO_DIR / "table4_analog.yaml"))
    betas = (0.002, 0.01, 0.02, 0.10)
    lines = []
    ok = True
    for beta in betas:
        point = replace(
            override_param(cfg, "beta", beta), name=f"table4[beta={beta}]"
        )
        rows = run_scenario(point)
        off = {r["seed"]: r for r in rows if r["srpic"] == "off"}
        on = {r["seed"]: r for r in rows if r["srpic"] == "on"}
        dup = sum(on[s]["dup_acks_in"] < off[s]["dup_acks_in"] for s in off)
        ret = sum(on[s]["pkts_retrans"] < off[s]["pkts_retrans"] for s in off)
        gp = sum(on[s]["goodput_proxy"] > off[s]["goodput_proxy"] for s in off)
        n = len(off)
        ok &= dup >= 9 and ret >= 9
        if beta <= 0.02:
            ok &= gp >= 8
        summary = {r["metric"]: r for r in compare(rows)}
        dup_stats = summary["dup_acks_in"]
        ok &= dup_stats["ratio"] < 1.0
        ok &= dup_stats["diff_mean"] + dup_stats["diff_ci95"] < 0.0
        lines.append(
            f"beta={beta}: dup {dup}/{n} ret {ret}/{n} gp {gp}/{n} "
            f"dup_ratio {dup_stats['ratio']:.3f}"
        )
    report("5 (directional reordering wins)", ok, "; ".join(lines))


# -- 6 ---------------------------------------------------------------------


def test_criterion_6_drops_only_no_harm():
    """Uniform drops without reordering: arm means stay within 5%
    relative difference for goodput, retransmissions and duplicate ACKs.
    Both deltas run in one ``run_scenario`` call, so the off arms run in
    its forked child where another CPU allows."""
    from dataclasses import replace

    cfg = load_scenario(str(SCENARIO_DIR / "table5_analog.yaml"))
    deltas = (0.001, 0.0001)
    points = [
        replace(override_param(cfg, "delta", delta), name=f"table5[delta={delta}]")
        for delta in deltas
    ]
    rows = run_scenario(*points)
    lines = []
    ok = True
    for delta, point in zip(deltas, points):
        sums = {"off": [0.0, 0.0, 0.0], "on": [0.0, 0.0, 0.0]}
        for r in rows:
            if r["scenario"] == point.name and r["stream_id"] == 0:
                arm = sums[r["srpic"]]
                arm[0] += r["goodput_proxy"]
                arm[1] += r["pkts_retrans"]
                arm[2] += r["dup_acks_in"]
        rels = []
        for i in range(3):
            base = sums["off"][i]
            rels.append(abs(sums["on"][i] - base) / base if base else 0.0)
        ok &= all(r <= 0.05 for r in rels)
        lines.append(
            f"delta={delta}: rel diffs gp {rels[0]:.3f} ret {rels[1]:.3f} dup {rels[2]:.3f}"
        )
    report("6 (drops-only parity within 5%)", ok, "; ".join(lines))


# -- 7 ---------------------------------------------------------------------


def test_criterion_7_adaptive_sender_contrast():
    """Adaptive dupthresh: retransmissions stay under 1% of segments in
    both arms while the sorter still cuts duplicate ACKs."""
    cfg = load_scenario(str(SCENARIO_DIR / "adaptive_analog.yaml"))
    frac = {"off": [], "on": []}
    dup = {"off": 0, "on": 0}
    wins = 0
    for seed in cfg.seeds:
        base = run_transfer(cfg, seed=seed, srpic=False)[0]
        srpic = run_transfer(cfg, seed=seed, srpic=True)[0]
        frac["off"].append(base.pkts_retrans / base.segments_sent)
        frac["on"].append(srpic.pkts_retrans / srpic.segments_sent)
        dup["off"] += base.dup_acks_in
        dup["on"] += srpic.dup_acks_in
        wins += srpic.dup_acks_in < base.dup_acks_in
    ok = (
        max(frac["off"]) < 0.01
        and max(frac["on"]) < 0.01
        and dup["on"] < dup["off"]
        and wins >= 9
    )
    report(
        "7 (adaptive sender contrast)",
        ok,
        f"retrans frac max off {max(frac['off']):.4f} on {max(frac['on']):.4f}; "
        f"dupacks {dup['off']} -> {dup['on']} ({wins}/10 seeds lower)",
    )


# -- 8 ---------------------------------------------------------------------


def test_criterion_8_metric_oracle_equivalence():
    """Every 7-packet permutation plus 10,000 random byte-sequence traces
    agree exactly with independent brute-force metric implementations; a
    trace holding an empty payload is rejected by that packet's
    send_index."""
    mismatches = empty_traces = 0
    for perm in itertools.permutations(range(1, 8)):
        trace = make_trace(list(perm))
        rep = reorder_report(trace)
        if (rep.reordered_count, rep.ratio) != brute_reordered_count(trace):
            mismatches += 1
        if rep.max_extent != brute_max_extent(trace):
            mismatches += 1
    rng = random.Random(88)
    for _ in range(10_000):
        n = rng.randrange(1, 25)
        starts = []
        pos = rng.randrange(0, 1_000_000)
        for _ in range(n):
            starts.append(pos)
            pos += rng.randrange(1, 3_000)
        lens = []
        for i, s in enumerate(starts):
            cap = (starts[i + 1] - s) if i + 1 < n else 1_500
            lens.append(rng.randrange(0, cap + 1))
        order = list(range(n))
        rng.shuffle(order)
        trace = make_trace([starts[i] for i in order], [lens[i] for i in order])
        # random contiguous partition
        partition = []
        left = n
        while left:
            take = rng.randrange(1, left + 1)
            partition.append(take)
            left -= take
        empty = first_empty(trace)
        if empty is not None:
            empty_traces += 1
            if not rejects_empty_payload(trace, partition, empty):
                mismatches += 1
            continue
        rep = reorder_report(trace, partition)
        if (rep.reordered_count, rep.ratio) != brute_reordered_count(trace):
            mismatches += 1
        if rep.max_extent != brute_max_extent(trace):
            mismatches += 1
        if (rep.intra_block, rep.inter_block) != brute_classify(trace, partition):
            mismatches += 1
    report(
        "8 (metric oracle equivalence)",
        mismatches == 0,
        f"mismatches={mismatches}, traces rejected for an empty payload={empty_traces}",
    )


# -- 9 ---------------------------------------------------------------------


def test_criterion_9_byte_identical_csv():
    """Two executions of the whole scenario suite (seeds fixed to 1,2)
    produce byte-identical CSV."""

    def run_suite() -> str:
        chunks = []
        for path in sorted(SCENARIO_DIR.glob("*.yaml")):
            cfg = _scaled(load_scenario(str(path)), (1, 2))
            chunks.append(rows_to_csv(run_scenario(cfg)))
        return "\n".join(chunks)

    first = run_suite()
    second = run_suite()
    ok = first == second and len(first) > 0
    report("9 (byte-identical CSV)", ok, f"{len(first)} bytes per pass")
