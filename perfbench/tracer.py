"""Per-layer tracing of srpicsim, installed from outside the package.

``traced(tracer)`` swaps the public entry points of each srpicsim module
for wrappers that time every call as a span, and puts the originals back
on exit.  Nothing under ``src/`` is edited.  Spans are aggregated in
memory per name: calls, inclusive time, items, and self time (a span's
duration minus the part its child spans cover).  A span name starts with
its layer, which is the srpicsim module.  Single spans are not kept, which
keeps the tracing cost per call small.

Counters sit at the same boundaries:

* ``seq_cmp`` calls, through a shim on every module's ``seq_cmp`` name;
* heap pushes by event kind, through a shim on the ``heapq`` name in
  ``srpicsim.tcp``;
* sorter flushes by cause and bypasses, read from each ``ingest`` /
  ``end_cycle`` result and from ``is_suitable``.
"""

from __future__ import annotations

import heapq
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter_ns

from srpicsim import channel, coalescing, metrics, packets, scenario, sorter, tcp

ROOT_SPAN = "bench.op"  # the benchmark's own operation; all spans nest in it


class Patcher:
    """Replaces attributes and puts the originals back on ``restore``."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def everywhere(self, fn, value) -> None:
        """Rebind ``fn`` in every srpicsim module that holds it by name."""
        mods = [m for n, m in sys.modules.items() if n.split(".")[0] == "srpicsim"]
        for mod in mods:
            for attr, bound in list(vars(mod).items()):
                if bound is fn:
                    self.set(mod, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


def _first_len(args) -> int:
    return len(args[0])


class Tracer:
    """Span and counter aggregates of one traced pass."""

    def __init__(self):
        self.calls: Counter[str] = Counter()
        self.ns: Counter[str] = Counter()  # inclusive time per span name
        self.items: Counter[str] = Counter()  # packets handed to a span
        self.self_ns: Counter[str] = Counter()  # exclusive time per span name
        self.count: Counter[str] = Counter()
        self._open: list[int] = []  # child time of each open span

    def span(self, name: str, fn, items=None, on_result=None):
        """Wrap ``fn`` so each call is a span; ``name`` starts with its layer.

        ``items(args)`` gives the packets a call handles; ``on_result(args,
        result)`` reads counters off the result after the span closes.
        """
        open_, calls, ns, self_ns = self._open, self.calls, self.ns, self.self_ns

        def wrapper(*args, **kwargs):
            open_.append(0)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter_ns() - t0
                child = open_.pop()
                if open_:
                    open_[-1] += dt
                calls[name] += 1
                ns[name] += dt
                self_ns[name] += dt - child
            if items is not None:
                self.items[name] += items(args)
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper


class _CountingHeapq:
    """Stands in for ``heapq`` in ``srpicsim.tcp``; counts pushes by kind."""

    heappop = staticmethod(heapq.heappop)

    def __init__(self, count: Counter):
        self._count = count

    def heappush(self, heap, item) -> None:
        self._count["push." + item[3]] += 1
        heapq.heappush(heap, item)


@contextmanager
def traced(t: Tracer):
    """Install spans and counters on srpicsim for the ``with`` body."""
    count = t.count
    span = t.span
    is_suitable = packets.is_suitable
    seq_cmp = packets.seq_cmp

    def counted_seq_cmp(a, b):
        count["seq_cmp"] += 1
        return seq_cmp(a, b)

    def counted_is_suitable(p):
        ok = is_suitable(p)
        if not ok:
            count["bypass"] += 1
        return ok

    def flush_causes(args, out):
        engine, p = args
        if not is_suitable(p):
            return
        if engine.global_packet_cnt == 0:
            count["flush.ring"] += 1
        # A manager holds fewer than block_size packets, so a run of
        # block_size packets of one flow can only be a block flush.
        bs = engine.block_size
        if len(out) >= bs and all(q.flow == p.flow for q in out[:bs]):
            count["flush.block"] += 1

    def cycles(args, out):
        count["coalescing.cycles"] += len(out)

    p = Patcher()
    try:
        for fn in (scenario.run_scenario, scenario.rows_to_csv):
            p.everywhere(fn, span("scenario." + fn.__name__, fn))
        for fn in (tcp.run_transfer, tcp.receiver_on_segment, tcp.sender_on_ack):
            p.everywhere(fn, span("tcp." + fn.__name__, fn))
        p.set(tcp, "heapq", _CountingHeapq(count))
        E = sorter.SrpicEngine
        p.set(E, "ingest", span("sorter.ingest", E.ingest, on_result=flush_causes))
        p.set(E, "end_cycle", span("sorter.end_cycle", E.end_cycle))
        p.everywhere(is_suitable, counted_is_suitable)
        p.everywhere(seq_cmp, counted_seq_cmp)
        p.everywhere(
            channel.apply_path,
            span("channel.apply_path", channel.apply_path, items=_first_len),
        )
        S = channel.PathStreams
        p.set(S, "next_delay_us", span("channel.draw", S.next_delay_us))
        p.set(S, "next_dropped", span("channel.draw", S.next_dropped))
        p.everywhere(
            coalescing.simulate_coalescing,
            span(
                "coalescing.simulate",
                coalescing.simulate_coalescing,
                items=_first_len,
                on_result=cycles,
            ),
        )
        for fn, name in (
            (metrics.reorder_report, "metrics.reorder_report"),
            (metrics.classify_block_reordering, "metrics.classify"),
        ):
            p.everywhere(fn, span(name, fn, items=_first_len))
        yield t
    finally:
        p.restore()


def layer_metrics(t: Tracer, segments: int, setup: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, by name, as ``(value, unit)``.

    ``segments`` is the simulated segments (or trace packets) the traced
    operations completed; ``setup`` holds the fresh-process timings.
    A layer that did no work on a workload reads 0.
    """
    wall = t.ns[ROOT_SPAN]

    def per_call(name: str) -> float:
        return t.ns[name] / t.calls[name] if t.calls[name] else 0.0

    def per_item(name: str) -> float:
        return t.ns[name] / t.items[name] if t.items[name] else 0.0

    def per_seg(n: float) -> float:
        return n / segments if segments else 0.0

    def share(layer: str) -> float:
        ns = sum(v for k, v in t.self_ns.items() if k.split(".")[0] == layer)
        return ns / wall if wall else 0.0

    ingests = t.calls["sorter.ingest"]

    def per_kpkt(n: int) -> float:
        return 1000.0 * n / ingests if ingests else 0.0

    cycles = t.count["coalescing.cycles"]
    return {
        "packets.seq_cmp_calls_per_seg": (per_seg(t.count["seq_cmp"]), "calls/seg"),
        "sorter.ingest_ns": (per_call("sorter.ingest"), "ns"),
        "sorter.end_cycle_ns": (per_call("sorter.end_cycle"), "ns"),
        "sorter.self_share": (share("sorter"), "ratio"),
        "sorter.flushes.block": (per_kpkt(t.count["flush.block"]), "1/kpkt"),
        "sorter.flushes.ring": (per_kpkt(t.count["flush.ring"]), "1/kpkt"),
        "sorter.flushes.cycle_end": (per_kpkt(t.calls["sorter.end_cycle"]), "1/kpkt"),
        "sorter.bypass_ratio": (t.count["bypass"] / ingests if ingests else 0.0, "ratio"),
        "coalescing.simulate_ns_per_pkt": (per_item("coalescing.simulate"), "ns/pkt"),
        "coalescing.mean_block_pkts": (
            t.items["coalescing.simulate"] / cycles if cycles else 0.0,
            "pkts",
        ),
        "channel.draw_ns": (per_call("channel.draw"), "ns"),
        "channel.draws_per_seg": (per_seg(t.calls["channel.draw"]), "calls/seg"),
        "channel.apply_path_ns_per_pkt": (per_item("channel.apply_path"), "ns/pkt"),
        "metrics.reorder_report_ns_per_pkt": (per_item("metrics.reorder_report"), "ns/pkt"),
        "metrics.classify_ns_per_pkt": (per_item("metrics.classify"), "ns/pkt"),
        "metrics.self_share": (share("metrics"), "ratio"),
        "tcp.receiver_on_segment_ns": (per_call("tcp.receiver_on_segment"), "ns"),
        "tcp.sender_on_ack_ns": (per_call("tcp.sender_on_ack"), "ns"),
        "tcp.heap_pushes_per_seg.arr": (per_seg(t.count["push.arr"]), "pushes/seg"),
        "tcp.heap_pushes_per_seg.svc": (per_seg(t.count["push.svc"]), "pushes/seg"),
        "tcp.heap_pushes_per_seg.ack": (per_seg(t.count["push.ack"]), "pushes/seg"),
        "tcp.heap_pushes_per_seg.rto": (per_seg(t.count["push.rto"]), "pushes/seg"),
        "tcp.event_loop_self_share": (
            t.self_ns["tcp.run_transfer"] / wall if wall else 0.0,
            "ratio",
        ),
        "scenario.import_s": (setup["import_s"], "s"),
        "scenario.load_ms": (setup["load_s"] * 1000.0, "ms"),
        "scenario.rows_to_csv_ms": (per_call("scenario.rows_to_csv") / 1e6, "ms"),
    }
