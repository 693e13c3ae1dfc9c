"""Cross-layer checks on the TCP event loop.

The loop takes the earliest of three instants (the end of the open
coalescing cycle, the top of the arrival heap and the retransmission
timeout), breaks ties in that order, and ends a run once every pending
instant is past the hard stop, which a property checks.  These tests tie
it to independent references: the loop that served the ring one fetch at
a time (``oracles.ReferenceLoopSim``), exactly, on random small configs;
the offline coalescing replay of the loop's own arrival times (on
shipped scenarios and on random small configs), the exact timeout
schedule of a path that drops everything, the textbook lazy-deletion
timer, which queues one timeout event per arming and fires only the
latest (``oracles.EagerTimerSim``), on random small configs, each
timeout coming one RTO after its last arming with nothing acknowledged
since, an ACK at exactly the timeout instant, the retransmission at the
shared deadline of ACKs that re-arm the timer several times at one
instant, window bursts cut into cycles of the CBR block size when
nothing jitters or drops, and the sorter seen from outside: each cycle
delivers what it fetched, within the hold bound, it never leaves a run
more reordered than it found it, and in-order arrivals with slow constant
ACKs give the same metrics in both arms.  Each packet comes back from the
receive path once, with the tag it arrived with, and the path keeps only
the packets the sorter holds.  A finished stream is freed by reference
counting alone, and replacements installed at the loop's patch points see
every call and every channel draw.  The sender's two edges say what the
record queue they replaced would (``oracles.ShadowQueue``), and the
receiver's ACK and SACK edges lie on the segment grid the sender relies
on.
"""

import gc
import heapq
import math
import weakref
from collections import Counter, deque
from dataclasses import replace
from itertools import accumulate, islice
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from oracles import (
    EagerTimerSim,
    RecordingSim,
    ReferenceLoopSim,
    ShadowQueue,
    reference_first_copies,
    reference_report,
)
from srpicsim import tcp
from srpicsim.channel import PathConfig
from srpicsim.coalescing import (
    CoalescingParams,
    block_size_cbr,
    hold_delay_bound,
    simulate_coalescing,
)
from srpicsim.packets import SEQ_MOD, Packet
from srpicsim.scenario import ScenarioConfig, SrpicSettings, load_scenario
from srpicsim.sorter import SrpicEngine
from srpicsim.tcp import MSS, _PRIO_ACK, AckRecord, _StreamSim, run_transfer

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

# Every property here runs whole transfers, so each shrink step reruns
# one; a failure is reported as first found, in seconds rather than
# minutes.
NO_SHRINK = tuple(p for p in Phase if p is not Phase.shrink)

DROPS = st.one_of(st.just(0.0), st.floats(0.0, 0.1), st.just(1.0))
PATHS = st.builds(
    PathConfig,
    alpha_ms=st.sampled_from([0.0, 0.5, 2.5]),
    beta=st.one_of(st.just(0.0), st.floats(0.0, 0.3)),
    drop_rate=DROPS,
)


def small_configs(fwd=PATHS, rev=PATHS):
    """One-stream scenarios of at most 30 simulated ms; ``fwd`` and ``rev``
    are the strategies for the two paths."""
    srpic = st.integers(1, 32).flatmap(
        lambda b: st.builds(
            SrpicSettings, block_size=st.just(b), ringbuffer_size=st.integers(b, b + 64)
        )
    )
    return st.builds(
        ScenarioConfig,
        name=st.just("unit"),
        duration=st.sampled_from([0.01, 0.03]),
        fwd=fwd,
        rev=rev,
        sender_mode=st.sampled_from(["static", "adaptive"]),
        sack_enabled=st.booleans(),
        srpic=srpic,
        coalescing=st.builds(
            CoalescingParams,
            t_intr_us=st.sampled_from([0.0, 30.0, 120.0]),
            r_sn_pps=st.sampled_from([1e5, 3e5, 1.2e6]),
        ),
        max_cwnd=st.integers(2, 64),
        segment_spacing_us=st.sampled_from([0.5, 4.0, 12.0]),
        isn=st.sampled_from([0, 2**32 - 10_000]),
    )


def _assert_cycles_match_replay(sim):
    # A cycle still open at the hard stop is the replay's last one.
    arrivals = [p.arrival_time for p in sim.arrivals]
    done = sim.path.cycle_sizes
    assert (sim.path.cycles, sim.path.cycle_packets) == (len(done), sum(done))
    rest = len(arrivals) - sum(done)
    assert bool(rest) == (sim.path.cycle_end < math.inf)
    replay = simulate_coalescing(arrivals, sim.cfg.coalescing)
    assert [c.block_packets for c in replay] == done + ([rest] if rest else [])


@pytest.mark.parametrize("name", ["table4_analog.yaml", "table5_analog.yaml"])
@pytest.mark.parametrize("srpic_on", [False, True])
def test_cycle_sizes_match_offline_coalescing(name, srpic_on):
    cfg = load_scenario(str(SCENARIOS / name))
    sim = RecordingSim(cfg, 1, 0, srpic_on)
    sim.run()
    assert sim.path.cycle_end == math.inf
    _assert_cycles_match_replay(sim)


@pytest.mark.parametrize("srpic_on", [False, True])
@settings(max_examples=100, deadline=None, derandomize=True, phases=NO_SHRINK)
@given(cfg=small_configs(), seed=st.integers(0, 2**16))
def test_cycle_sizes_match_offline_coalescing_on_small_configs(srpic_on, cfg, seed):
    sim = RecordingSim(cfg, seed, 0, srpic_on)
    sim.run()
    _assert_cycles_match_replay(sim)


def _burst_cycles(window, k):
    return [k] * (window // k) + ([window % k] if window % k else [])


@settings(max_examples=40, deadline=None, derandomize=True, phases=NO_SHRINK)
@given(spacing=st.floats(3.5, 40.0), srpic_on=st.booleans())
@example(spacing=8.0, srpic_on=False)
@example(spacing=8.0, srpic_on=True)
@example(spacing=6.0, srpic_on=False)
@example(spacing=6.0, srpic_on=True)
@example(spacing=4.0, srpic_on=False)
@example(spacing=4.0, srpic_on=True)
def test_window_bursts_are_cut_into_cycles_of_the_cbr_block_size(spacing, srpic_on):
    """Without jitter or drops, each window goes out as one burst of
    segments ``spacing`` us apart, and a round trip is far longer than the
    burst.  The receive path drains a burst in cycles of ``k =
    block_size_cbr(1e6 / spacing)`` packets and a last cycle of the rest,
    so after slow start's windows of 10, 20 and 40, every window of
    ``max_cwnd`` 64 forms ``[k] * (64 // k) + [64 % k]``.  At an exact tie
    (``t_intr / (spacing - quantum)`` whole, as at 6 us) float sums fall
    either side of it, and a window may form cycles of ``k + 1``.  A
    window the data deadline cuts short is not checked."""
    cfg = replace(
        load_scenario(str(SCENARIOS / "table4_analog.yaml")),
        duration=0.1,
        fwd=IN_TIME,
        rev=IN_TIME,
        segment_spacing_us=spacing,
    )
    sim = RecordingSim(cfg, 1, 0, srpic_on)
    sim.run()
    sizes = sim.path.cycle_sizes
    ends = list(accumulate(sizes))
    assert {10, 30, 70} <= set(ends)
    params = cfg.coalescing
    k = block_size_cbr(1e6 / spacing, params)
    allowed = [_burst_cycles(64, k)]
    quotient = params.t_intr_us / (spacing - params.quantum_us)
    if math.isclose(quotient, round(quotient)):
        allowed.append(_burst_cycles(64, k + 1))
    bursts, burst = [], []
    for size in sizes[ends.index(70) + 1 :]:
        burst.append(size)
        if sum(burst) >= 64:
            bursts.append(burst)
            burst = []
    assert len(bursts) >= 10
    assert all(b in allowed for b in bursts), (k, allowed, bursts)


@pytest.mark.parametrize("srpic_on", [False, True])
@settings(max_examples=100, deadline=None, derandomize=True, phases=NO_SHRINK)
@given(cfg=small_configs(), seed=st.integers(0, 2**16))
def test_streamed_reports_equal_the_batch_definition(srpic_on, cfg, seed):
    # The first copies come from the reference scan over sequence numbers
    # taken relative to isn, so a run that crosses 2**32 is judged on plain
    # integers; every transmission has its own send_index.
    sim = RecordingSim(cfg, seed, 0, srpic_on)
    m = sim.run()
    plain = [replace(p, seq=(p.seq - cfg.isn) % SEQ_MOD) for p in sim.arrivals]
    first = {p.send_index for p in reference_first_copies(plain)}
    assert m.reorder_pre == reference_report([p for p in sim.arrivals if p.send_index in first])
    assert m.reorder_post == reference_report(
        [p for p in sim.deliveries if p.send_index in first]
    )


def _run_keeping_pushes(sim):
    """Run ``sim``; return its metrics and the times of the items it
    queued, by kind, in push order, whether each went to the heap or to
    the in-order FIFO ``_run``."""
    pushes = {"arr": [], "ack": []}

    class Heapq:
        heappop = staticmethod(heapq.heappop)

        @staticmethod
        def heappush(heap, item):
            pushes[item[3]].append(item[0])
            heapq.heappush(heap, item)

    class Run(deque):
        def append(self, item):
            pushes[item[3]].append(item[0])
            super().append(item)

    sim._run = Run()
    with mock.patch.object(tcp, "heapq", Heapq):
        return sim.run(), pushes


@pytest.mark.parametrize("srpic_on", [False, True])
@settings(max_examples=100, deadline=None, derandomize=True, phases=NO_SHRINK)
@given(cfg=small_configs(), seed=st.integers(0, 2**16))
def test_loop_matches_the_loop_that_served_each_fetch(srpic_on, cfg, seed):
    # The loop runs no event per fetch: each packet's fetch instant is
    # fixed at its arrival, and items pushed in order skip the heap.  The
    # loop that stepped the ring one fetch at a time, on one heap alone,
    # must give the same metrics, the same delivery order and the same
    # packet and ACK times, each in push order.
    ref = ReferenceLoopSim(cfg, seed, 0, srpic_on)
    sim = RecordingSim(cfg, seed, 0, srpic_on)
    expected, expected_pushes = _run_keeping_pushes(ref)
    got, pushes = _run_keeping_pushes(sim)
    assert got == expected
    assert (sim.path.cycles, sim.path.cycle_packets) == (ref.path.cycles, ref.path.cycle_packets)
    # Long orders are compared by their first difference: a full diff of
    # thousands of items is slow to build and to read.
    orders = {
        "delivery": ([p.send_index for p in sim.deliveries], [p.send_index for p in ref.deliveries]),
        **{kind + " push": (pushes[kind], expected_pushes[kind]) for kind in pushes},
    }
    for name, (seen, want) in orders.items():
        first = next((i for i, (a, b) in enumerate(zip(seen, want)) if a != b), None)
        assert first is None and len(seen) == len(want), (name, first, len(seen), len(want))


# No jitter and no loss either way, with equal delays: on these runs every
# item is pushed after the one before it.
IN_TIME = PathConfig(alpha_ms=2.5, beta=0.0, drop_rate=0.0)
QUEUE_CONFIGS = {
    "small": lambda: ScenarioConfig(
        name="unit",
        duration=0.03,
        fwd=IN_TIME,
        rev=IN_TIME,
        srpic=SrpicSettings(block_size=8, ringbuffer_size=16),
        coalescing=CoalescingParams(t_intr_us=120.0, r_sn_pps=3e5),
        segment_spacing_us=4.0,
    ),
    "table5_analog": lambda: replace(
        load_scenario(str(SCENARIOS / "table5_analog.yaml")), duration=0.05
    ),
}


@pytest.mark.parametrize("srpic_on", [False, True])
@pytest.mark.parametrize("name", list(QUEUE_CONFIGS))
def test_pushes_in_time_order_never_reach_the_heap(name, srpic_on):
    # The fast path: with beta 0 both ways, every push takes the FIFO and
    # the heap stays empty for the whole run.
    sim = _StreamSim(QUEUE_CONFIGS[name](), 1, 0, srpic_on)
    heap_pushes = []

    class Heapq:
        heappop = staticmethod(heapq.heappop)

        @staticmethod
        def heappush(heap, item):
            heap_pushes.append(item)
            heapq.heappush(heap, item)

    with mock.patch.object(tcp, "heapq", Heapq):
        sim.run()
    assert heap_pushes == [] and sim._heap == []
    assert sim._evseq > sim.sender.segments_sent > 0


@pytest.mark.parametrize("srpic_on", [False, True])
@settings(max_examples=100, deadline=None, derandomize=True, phases=NO_SHRINK)
@given(cfg=small_configs(), seed=st.integers(0, 2**16))
def test_the_fifo_stays_strictly_increasing(srpic_on, cfg, seed):
    """After every push, ``_run`` is strictly increasing, so the loop
    pops its items in the order one heap holding every item would.  The
    configs draw jitter, which sends pushes to the heap, and zero delays,
    which queue arrivals and ACKs at one instant.

    Proof that the pop order is the heap's.  The pending items are those
    of ``_heap`` and ``_run`` together.  An item enters ``_run`` only when
    it is greater than ``_run[-1]``, and the loop removes ``_run[0]`` only,
    so ``_run`` stays strictly increasing (this test checks it after every
    append; a heap push leaves it as it was) and ``_run[0]`` is its least
    item.  ``_heap[0]`` is the least
    item of the heap, so the smaller of the two is the least pending item,
    the one a single heap would pop.  Every item carries its own event
    number, so no two items are equal: the least is unique, and tuple
    comparison never reaches an item's kind or payload.  So both loops pop
    the same item, run the same step and push the same items after it,
    and by induction over the pops they pop every item in the same order.
    """
    sim = _StreamSim(cfg, seed, 0, srpic_on)

    class Run(deque):
        def append(self, item):
            super().append(item)
            assert all(a < b for a, b in zip(self, list(self)[1:]))

    sim._run = Run()
    sim.run()


@pytest.mark.parametrize("srpic_on", [False, True])
@settings(max_examples=100, deadline=None, derandomize=True, phases=NO_SHRINK)
@given(cfg=small_configs(), seed=st.integers(0, 2**16), data=st.data())
def test_a_tag_comes_back_with_its_packet(srpic_on, cfg, seed, data):
    # Each arrival's tag goes in paired with a token of its own; each
    # delivery must bring back its packet's token, once, and the run's own
    # tag with it.  The path keeps a packet only while the engine holds it.
    # The hard stop is one fetch instant of the same run without a stop, so
    # the rest of that fetch's cycle, if it has any, is held when it comes.
    fetches = []
    sim = _StreamSim(cfg, seed, 0, srpic_on)
    arrive = sim.path.arrive

    def recorded_arrive(*args):
        fetches.append(arrive(*args))
        return fetches[-1]

    sim.path.arrive = recorded_arrive
    sim.run()
    sim = _StreamSim(cfg, seed, 0, srpic_on)
    path, engine = sim.path, sim.path.engine
    if fetches:
        path.hard_stop_us = data.draw(st.sampled_from(fetches))
    arrive, end_cycle, deliver_one = path.arrive, path.end_cycle, sim._deliver_one
    arrived, delivered = [], set()

    def tagged_arrive(p, now, deliver, tag):
        arrived.append(p)
        return arrive(p, now, deliver, (len(arrived) - 1, tag))

    def checked_deliver(p, stamp, now, tag):
        token, s = tag
        assert arrived[token] is p and token not in delivered
        delivered.add(token)
        deliver_one(p, stamp, now, s)

    def checked_end_cycle(deliver):
        end_cycle(deliver)
        assert not getattr(path, "_held", None)

    path.arrive, path.end_cycle, sim._deliver_one = tagged_arrive, checked_end_cycle, checked_deliver
    sim.run()
    if engine is None:
        assert not hasattr(path, "_held")
        return
    managers = engine.managers.values()
    held = {id(p) for m in managers for p in m.prev_list + m.curr_list + m.after_list}
    assert set(path._held) == held
    assert len(held) == sum(m.packet_cnt for m in managers) <= cfg.srpic.ringbuffer_size


@pytest.mark.parametrize("srpic_on", [False, True])
def test_a_finished_stream_is_freed_by_reference_counting(srpic_on):
    # A reference cycle through the receive path would keep every finished
    # stream, with its held packets, alive until the cycle collector runs.
    # The path streams' chunk generators must not hold the streams either.
    path = PathConfig(alpha_ms=2.5, beta=0.02, drop_rate=0.01)
    cfg = ScenarioConfig(name="unit", duration=0.01, fwd=path, rev=path)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        sim = _StreamSim(cfg, 1, 0, srpic_on)
        sim.run()
        refs = [weakref.ref(obj) for obj in (sim, sim.fwd, sim.rev)]
        del sim
        assert [ref() for ref in refs] == [None, None, None]
    finally:
        if was_enabled:
            gc.enable()


@pytest.mark.parametrize("srpic_on", [False, True])
def test_replacements_at_the_patch_points_see_every_call(monkeypatch, srpic_on):
    # The benchmark's tracer and audit replace the heapq module that tcp
    # holds, the sorter methods on their class, and the receiver and
    # sender functions by their names in tcp.  Items pushed in order go to
    # the stream's _run deque instead of the heap; a counting deque
    # stands in for it.  The loop reads the channel
    # draws from the drops and delays iterators of sim.fwd and sim.rev,
    # which this test wraps with counting iterators.  Each count taken
    # through a replacement must match one the run keeps itself.
    cfg = ScenarioConfig(
        name="unit",
        duration=0.02,
        fwd=PathConfig(alpha_ms=2.5, beta=0.05, drop_rate=0.03),
        rev=PathConfig(alpha_ms=2.5, beta=0.02, drop_rate=0.03),
        sack_enabled=True,
    )
    sim = _StreamSim(cfg, 1, 0, srpic_on)
    n = Counter()
    kept = Counter()  # (kind, handled) -> popped items

    def pushed(item, to):
        assert type(item) is tuple and len(item) == 5
        assert (item[3], type(item[4])) in {("arr", Packet), ("ack", AckRecord)}
        n["push." + item[3]] += 1
        n[to] += 1

    def popped(item):
        kept[item[3], item[0] <= sim.path.hard_stop_us] += 1
        return item

    class Heapq:
        @staticmethod
        def heappush(heap, item):
            pushed(item, "heap")
            heapq.heappush(heap, item)

        @staticmethod
        def heappop(heap):
            return popped(heapq.heappop(heap))

    class Run(deque):
        def append(self, item):
            pushed(item, "fifo")
            super().append(item)

        def popleft(self):
            return popped(super().popleft())

    def counting(name, fn, on_result=None):
        def wrapper(*args):
            result = fn(*args)
            n[name] += 1
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def counted_drops(side, drops):
        for dropped in drops:
            n[side + ".drops"] += 1
            n[side + ".dropped"] += dropped
            yield dropped

    def counted_delays(side, delays):
        for delay in delays:
            n[side + ".delays"] += 1
            yield delay

    def emitted(args, out):
        n["emitted"] += len(out)

    monkeypatch.setattr(tcp, "heapq", Heapq)
    sim._run = Run()
    for side, streams in (("fwd", sim.fwd), ("rev", sim.rev)):
        streams.drops = counted_drops(side, streams.drops)
        streams.delays = counted_delays(side, streams.delays)
    for name in ("ingest", "end_cycle"):
        fn = getattr(SrpicEngine, name)
        monkeypatch.setattr(SrpicEngine, name, counting(name, fn, emitted))
    for name in ("receiver_on_segment", "sender_on_ack"):
        monkeypatch.setattr(tcp, name, counting(name, getattr(tcp, name)))
    arrive = sim.path.arrive

    def counted_arrive(p, now, deliver, tag):
        # An arrival whose fetch comes after the hard stop is never fetched.
        fetch = arrive(p, now, deliver, tag)
        n["fetched late"] += fetch > sim.path.hard_stop_us
        return fetch

    sim.path.arrive = counted_arrive
    sim.run()

    sent = sim.sender.segments_sent
    delivered = n["receiver_on_segment"]
    assert n["fwd.delays"] == sent and n["rev.delays"] == delivered
    assert n["fwd.drops"] == n["fwd.delays"] and n["rev.drops"] == n["rev.delays"]
    assert n["fwd.drops"] + n["rev.drops"] == sent + delivered
    assert n["push.arr"] == sent - n["fwd.dropped"] > 0
    assert n["push.ack"] == delivered - n["rev.dropped"] > 0
    assert n["push.arr"] + n["push.ack"] == sum(kept.values()) + len(sim._heap) + len(sim._run)
    assert n["heap"] > 0 and n["fifo"] > 0
    assert n["sender_on_ack"] == kept["ack", True] > 0
    fetched = kept["arr", True] - n["fetched late"]
    if srpic_on:
        assert n["ingest"] == fetched
        assert n["end_cycle"] == sim.path.cycles > 0
        assert n["emitted"] == delivered
    else:
        assert n["ingest"] == n["end_cycle"] == 0
        assert delivered == fetched
    assert delivered > 0


TOTAL_LOSS = ScenarioConfig(
    name="unit",
    duration=0.2,
    fwd=PathConfig(alpha_ms=2.5, beta=0.0, drop_rate=1.0),
    rev=PathConfig(alpha_ms=2.5, beta=0.0, drop_rate=0.0),
    coalescing=CoalescingParams(t_intr_us=120.0, r_sn_pps=3e5),
    max_cwnd=64,
    segment_spacing_us=4.0,
)


@pytest.mark.parametrize("srpic_on", [False, True])
def test_total_loss_timeout_schedule(srpic_on):
    # Nothing gets through: the initial window of 10 goes out at t=0 and
    # the timer fires at 0.2 s, 0.6 s and 1.4 s, doubling its backoff each
    # time; the next expiry (3.0 s) lies past the 2.2 s hard stop.
    sim = _StreamSim(TOTAL_LOSS, 1, 0, srpic_on)
    sim.run()
    assert sim.sender.pkts_retrans == 3
    assert sim.sender.segments_sent == 13
    assert sim.sender.rto_backoff == 8
    assert sim.now == 1.4e6


@pytest.mark.parametrize("srpic_on", [False, True])
def test_a_run_stops_once_every_pending_instant_is_past_the_hard_stop(srpic_on):
    # The stop rule: nothing past the hard stop runs, and nothing at or
    # before it is left pending.  TOTAL_LOSS and the configs that draw
    # total loss end with their timer still armed, so some runs must stop
    # with a finite instant pending past the hard stop: there the rule's
    # break ends the run, not a queue and a timer that ran dry.
    finite_pending = []

    @settings(max_examples=150, deadline=None, derandomize=True, phases=NO_SHRINK)
    @given(cfg=small_configs(), seed=st.integers(0, 2**16))
    @example(cfg=TOTAL_LOSS, seed=1)
    def check(cfg, seed):
        sim = _StreamSim(cfg, seed, 0, srpic_on)
        sim.run()
        hard_stop = cfg.hard_stop_us
        top = min([q[0] for q in (sim._heap, sim._run) if q], default=(math.inf,))[0]
        pending = (top, sim.path.cycle_end, sim._rto_t)
        assert sim.now <= hard_stop
        assert all(t > hard_stop for t in pending), (pending, hard_stop)
        finite_pending.append(min(pending) < math.inf)

    check()
    assert any(finite_pending)


# With no reverse delay, the ACKs of one sorter flush all arrive at the
# flush instant, and each re-arms the timer to the same deadline.
REARMS_AT_ONE_INSTANT = ScenarioConfig(
    name="unit",
    duration=0.3,
    fwd=PathConfig(alpha_ms=0.0, beta=0.2, drop_rate=0.02),
    rev=PathConfig(alpha_ms=0.0, beta=0.3, drop_rate=0.0),
    srpic=SrpicSettings(block_size=32, ringbuffer_size=32),
    coalescing=CoalescingParams(t_intr_us=0.0, r_sn_pps=1e5),
    max_cwnd=2,
    segment_spacing_us=0.5,
)


def _record_timer(sim):
    """Wrap ``sim``'s own timer steps on the instance.  Each arming appends
    ``(now, snd_una, deadline)`` to the first list returned, the deadline
    one RTO from now while data is in flight and ``inf`` otherwise.  Each
    expiry appends ``(now, snd_una, in flight, retransmissions sent,
    latest arming)`` to the second."""
    armings, expiries = [], []
    arm, on_rto, sender = sim._arm_rto, sim._on_rto, sim.sender

    def recording_arm():
        arm()
        in_flight = sender.next_send_seq != sender.snd_una
        deadline = sim.now + sender.rto_us() if in_flight else math.inf
        armings.append((sim.now, sender.snd_una, deadline))

    def recording_on_rto():
        now, una, before = sim.now, sender.snd_una, sender.pkts_retrans
        in_flight = sender.next_send_seq != una
        latest = armings[-1]
        on_rto()
        expiries.append((now, una, in_flight, sender.pkts_retrans - before, latest))

    sim._arm_rto, sim._on_rto = recording_arm, recording_on_rto
    return armings, expiries


def test_the_expiry_after_rearms_at_one_instant_retransmits():
    # At seed 136 the sorter's flush at 200 us acks two segments, and the
    # segment after them is lost.  Both ACKs re-arm the timer to one
    # deadline, 200 us + RTO, and the expiry there retransmits the head
    # (RFC 6298, 5.4), as the timer that queues one event per arming does,
    # and as the sorter-off arm does, whose ACKs come 10 us apart.
    sim = _StreamSim(REARMS_AT_ONE_INSTANT, 136, 0, True)
    armings, expiries = _record_timer(sim)
    m = sim.run()
    deadline = 200.0 + tcp.MIN_RTO_US
    assert [a[2] for a in armings].count(deadline) == 2
    assert [(e[0], e[3]) for e in expiries] == [(deadline, 1), (400220.0, 1)]
    assert (m.pkts_retrans, m.segments_sent, m.bytes_acked) == (2, 27, 36200)
    assert m == EagerTimerSim(REARMS_AT_ONE_INSTANT, 136, 0, True).run()


# Sorter on and no reverse delay: a flush that acks two or more segments
# re-arms the timer that often at its instant, which the configs drawn
# with either arm and any reverse path seldom do.
REARMING_CASES = st.tuples(
    small_configs(rev=st.builds(PathConfig, alpha_ms=st.just(0.0), beta=st.just(0.0), drop_rate=DROPS)),
    st.just(True),
)


def test_each_timeout_fires_one_rto_after_its_last_arming():
    """The proof in ``_StreamSim._arm_rto``, run by run: every expiry comes
    exactly at its latest arming's deadline, nothing was acknowledged since
    that arming, data is in flight and the expiry retransmits.  Some drawn
    run must re-arm the timer two or more times at one instant, which a
    timer that judged progress by the snapshot of an older arming at that
    deadline would not retransmit on; part of the runs are drawn from
    ``REARMING_CASES`` to reach it, and ``REARMS_AT_ONE_INSTANT`` is run in
    both arms as well."""
    shared = []

    @settings(max_examples=150, deadline=None, derandomize=True, phases=NO_SHRINK)
    @given(
        case=st.one_of(st.tuples(small_configs(), st.booleans()), REARMING_CASES),
        seed=st.integers(0, 2**16),
    )
    @example(case=(REARMS_AT_ONE_INSTANT, False), seed=136)
    @example(case=(REARMS_AT_ONE_INSTANT, True), seed=136)
    def check(case, seed):
        cfg, srpic_on = case
        sim = _StreamSim(cfg, seed, 0, srpic_on)
        armings, expiries = _record_timer(sim)
        sim.run()
        for now, una, in_flight, sent, (_t, armed_una, deadline) in expiries:
            assert now == deadline
            assert una == armed_una
            assert in_flight and sent == 1
        if cfg is not REARMS_AT_ONE_INSTANT:
            at = Counter(t for t, _una, deadline in armings if deadline < math.inf)
            shared.append(max(at.values(), default=0) >= 2)

    check()
    assert any(shared)


@settings(max_examples=100, deadline=None, derandomize=True, phases=NO_SHRINK)
@given(
    beta=st.floats(0.0, 0.01),
    drop_rate=st.floats(0.0, 0.05),
    block_size=st.integers(1, 32),
    extra_ring=st.integers(0, 64),
    t_intr_us=st.sampled_from([0.0, 30.0, 120.0]),
    r_sn_pps=st.sampled_from([1e5, 3e5, 1.2e6]),
    sack=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_each_cycle_delivers_a_permutation_of_its_fetch_order(
    beta, drop_rate, block_size, extra_ring, t_intr_us, r_sn_pps, sack, seed
):
    cfg = ScenarioConfig(
        name="unit",
        duration=0.05,
        fwd=PathConfig(alpha_ms=2.5, beta=beta, drop_rate=drop_rate),
        rev=PathConfig(alpha_ms=2.5, beta=0.0, drop_rate=0.0),
        srpic=SrpicSettings(block_size=block_size, ringbuffer_size=block_size + extra_ring),
        coalescing=CoalescingParams(t_intr_us=t_intr_us, r_sn_pps=r_sn_pps),
        sack_enabled=sack,
        segment_spacing_us=4.0,
    )
    sim = RecordingSim(cfg, seed, 0, True)
    engine = sim.path.engine
    ingest, end_cycle = engine.ingest, engine.end_cycle
    fetched, emitted, fetch_time, holds, cycle_sizes = [], [], {}, [], []

    # A packet is ingested as it arrives, at the fetch instant its arrival
    # set as the cycle's end; a flush releases packets at that instant too.
    def record(out):
        holds.extend(sim.path.cycle_end - fetch_time[p.send_index] for p in out)
        emitted.extend(out)
        return out

    def audited_ingest(p):
        fetched.append(p)
        fetch_time[p.send_index] = sim.path.cycle_end
        return record(ingest(p))

    def audited_end_cycle():
        out = record(end_cycle())
        assert sorted(p.send_index for p in emitted) == sorted(p.send_index for p in fetched)
        cycle_sizes.append(len(fetched))
        fetched.clear()
        emitted.clear()
        return out

    engine.ingest, engine.end_cycle = audited_ingest, audited_end_cycle
    sim.run()
    assert cycle_sizes == sim.path.cycle_sizes and cycle_sizes
    bound = hold_delay_bound(block_size, r_sn_pps)
    assert all(0.0 <= h <= bound + 1e-6 for h in holds)


@settings(max_examples=150, deadline=None, derandomize=True, phases=NO_SHRINK)
@given(cfg=small_configs(), seed=st.integers(0, 2**16), srpic_on=st.booleans())
@example(cfg=REARMS_AT_ONE_INSTANT, seed=136, srpic_on=False)
@example(cfg=REARMS_AT_ONE_INSTANT, seed=136, srpic_on=True)
def test_loop_matches_one_timeout_event_per_arming(cfg, seed, srpic_on):
    expected = EagerTimerSim(cfg, seed, 0, srpic_on).run()
    assert _StreamSim(cfg, seed, 0, srpic_on).run() == expected


@pytest.mark.parametrize("srpic_on", [False, True])
def test_an_ack_at_the_timeout_instant_comes_first(srpic_on):
    # Nothing gets through, but an ACK for the first segment arrives at
    # exactly the instant the timer armed at t=0 expires.  The ACK is
    # handled first: it moves snd_una and re-arms the timer, so that
    # instant sends nothing and the first retransmission comes one timeout
    # later.
    cfg = ScenarioConfig(
        name="unit",
        duration=0.01,
        fwd=PathConfig(alpha_ms=2.5, beta=0.0, drop_rate=1.0),
        rev=PathConfig(alpha_ms=2.5, beta=0.0, drop_rate=0.0),
    )
    sim = _StreamSim(cfg, 1, 0, srpic_on)
    rto = sim.sender.rto_us()
    sim._evseq += 1
    heapq.heappush(sim._heap, (rto, _PRIO_ACK, sim._evseq, "ack", AckRecord(ack_seq=MSS)))
    sim.path.hard_stop_us = 2.5 * rto
    sim.run()
    assert sim.sender.bytes_acked == MSS
    assert sim.sender.pkts_retrans == 1
    assert sim.sender.last_rtx_time == 2 * rto


@settings(max_examples=300, deadline=None, derandomize=True, phases=NO_SHRINK)
@given(cfg=small_configs(), seed=st.integers(0, 2**16))
def test_the_sorter_never_adds_reordering_to_a_run(cfg, seed):
    """Criterion 2 per run: with the sorter on, every stream's reordered
    count after the sorter is at most its count before it.

    A stream has one flow, and every data segment is suitable, so the
    delivered packets are the arrivals in arrival order (the ring is FIFO),
    cut into consecutive flush batches, each sorted by sequence number.
    Packets still held at the hard stop are a suffix of the arrivals, so
    they only add to the count before the sorter.  A first copy ``curr``
    is in order when it starts at or above every end before it.  Within a
    sorted batch the first copies are disjoint and ascending, so the copy
    before ``curr`` ends at or below its start, and the one after starts
    at or above its end (``prev < curr < after``).  So in the sorted batch
    ``curr`` is in order exactly when it starts at or above the largest end
    before its batch.  That maximum is taken over the same set of earlier
    packets in both orders, so it does not depend on their order, and in
    arrival order ``curr`` needs the same bound and more.  So each batch's
    in-order count can only grow, and the reordered count can only fall.
    """
    for m in run_transfer(cfg, seed=seed, srpic=True):
        assert m.reorder_post.reordered_count <= m.reorder_pre.reordered_count


# A forward path that keeps the send order and loses nothing, and ACKs
# delayed by a constant longer than any hold bound small_configs draws
# (32 packets at 1e5 pps: 0.32 ms).  A held packet's ACK leaves at the
# later of its flush instant and its fetch instant plus the reverse delay,
# so this delay hides every hold; with no reverse delay, or a jittered one,
# the arms can differ.
IN_ORDER = st.builds(PathConfig, alpha_ms=st.sampled_from([0.0, 0.5, 2.5]), beta=st.just(0.0))
SLOW_ACKS = st.builds(
    PathConfig, alpha_ms=st.sampled_from([0.5, 2.5]), beta=st.just(0.0), drop_rate=DROPS
)


@settings(max_examples=80, deadline=None, derandomize=True, phases=NO_SHRINK)
@given(cfg=small_configs(fwd=IN_ORDER, rev=SLOW_ACKS), seed=st.integers(0, 2**16))
def test_in_order_arrivals_give_the_same_metrics_in_both_arms(cfg, seed):
    bound_us = hold_delay_bound(cfg.srpic.block_size, cfg.coalescing.r_sn_pps)
    assert cfg.rev.alpha_ms * 1000.0 > bound_us
    off = run_transfer(cfg, seed=seed, srpic=False)[0]
    on = run_transfer(cfg, seed=seed, srpic=True)[0]
    assert replace(on, max_hold_delay_us=0.0) == replace(off, max_hold_delay_us=0.0)


# Drops with SACK on a small window: at seed 2, in both arms, a partial ACK
# in recovery finds the highest SACKed segment just above the new head.
SACK_EDGE = ScenarioConfig(
    name="unit",
    duration=0.01,
    fwd=PathConfig(alpha_ms=0.5, beta=0.0, drop_rate=0.05),
    rev=PathConfig(alpha_ms=0.5, beta=0.0, drop_rate=0.0),
    sack_enabled=True,
    srpic=SrpicSettings(block_size=8, ringbuffer_size=16),
    coalescing=CoalescingParams(t_intr_us=30.0, r_sn_pps=3e5),
    max_cwnd=8,
    segment_spacing_us=4.0,
)


@pytest.mark.parametrize("srpic_on", [False, True])
def test_the_sender_queue_is_its_two_edges(srpic_on):
    """``oracles.ShadowQueue`` keeps the sender's earlier record queue
    beside the run, from what the sender is given and sends; after every
    call the sender's state must say what the records do.  A partial ACK
    in recovery resends the head only if no record flags it as resent, and
    with SACK exactly when a record above the head is marked SACKed."""
    partial_sack_acks = Counter()  # "resent", "held", and "edge" for SACK_EDGE's case
    start, on_ack, on_timeout = tcp.sender_start, tcp.sender_on_ack, tcp.sender_on_timeout

    @settings(max_examples=100, deadline=None, derandomize=True, phases=NO_SHRINK)
    @given(cfg=small_configs(), seed=st.integers(0, 2**16))
    @example(cfg=SACK_EDGE, seed=2)
    def check(cfg, seed):
        shadow = ShadowQueue(cfg.isn)

        def sent_by(call, state, *args):
            # A retransmission is a seq below next_send_seq from before the
            # call; at most one per call, and it comes first.
            before = state.next_send_seq
            sent = call(state, *args)
            resent = [s for s in sent if s < before]
            assert len(resent) <= 1 and sent[: len(resent)] == resent
            return sent, resent

        def checked_start(state, now=0.0):
            sent, _ = sent_by(start, state, now)
            shadow.sent(sent)
            shadow.check(state)
            return sent

        def checked_on_ack(state, ack, now):
            una, recovering, recover_point = state.snd_una, state.in_recovery, state.recover_point
            sent, resent = sent_by(on_ack, state, ack, now)
            shadow.ack(ack)
            records = shadow.records
            if recovering and una < ack.ack_seq < recover_point and records:
                head_resent = records[0].retransmitted
                assert not (resent and head_resent)
                if state.sack_aware:
                    evidence = any(r.sacked for r in islice(records, 1, None))
                    assert bool(resent) == (evidence and not head_resent)
                    partial_sack_acks["resent" if resent else "held"] += 1
                    partial_sack_acks["edge"] += state.high_sacked == ack.ack_seq + MSS
            shadow.sent(sent)
            shadow.check(state)
            return sent

        def checked_on_timeout(state, now):
            sent, _ = sent_by(on_timeout, state, now)
            shadow.sent(sent)
            shadow.check(state)
            return sent

        with (
            mock.patch.object(tcp, "sender_start", checked_start),
            mock.patch.object(tcp, "sender_on_ack", checked_on_ack),
            mock.patch.object(tcp, "sender_on_timeout", checked_on_timeout),
        ):
            _StreamSim(cfg, seed, 0, srpic_on).run()

    check()
    assert all(partial_sack_acks[k] > 0 for k in ("resent", "held", "edge")), partial_sack_acks


@pytest.mark.parametrize("srpic_on", [False, True])
def test_acks_and_sack_edges_lie_on_sent_segment_edges(srpic_on):
    """What the sender's edges rely on: every ACK and SACK edge the
    receiver returns lies on ``isn + k * MSS``, at or below the sender's
    ``next_send_seq``, and every SACK block is nonempty.  The configs draw
    an ``isn`` just below 2**32, so runs cross the wrap."""
    blocks_seen = Counter()
    on_segment = tcp.receiver_on_segment

    @settings(max_examples=100, deadline=None, derandomize=True, phases=NO_SHRINK)
    @given(cfg=small_configs(), seed=st.integers(0, 2**16))
    def check(cfg, seed):
        sim = _StreamSim(cfg, seed, 0, srpic_on)

        def checked(state, seg):
            ack = on_segment(state, seg)
            edges = [ack.ack_seq, *(e for block in ack.sack_blocks for e in block)]
            assert all((e - cfg.isn) % MSS == 0 for e in edges), edges
            assert max(edges) <= sim.sender.next_send_seq
            assert all(s < e for s, e in ack.sack_blocks)
            blocks_seen["blocks"] += len(ack.sack_blocks)
            return ack

        with mock.patch.object(tcp, "receiver_on_segment", checked):
            sim.run()

    check()
    assert blocks_seen["blocks"] > 0
