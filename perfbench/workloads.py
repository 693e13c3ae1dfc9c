"""The benchmark's workloads: inputs made from a seed, the timed operation,
and the checks on its output.

Each workload turns ``--seed`` into a small pool of inputs.  One
operation runs one input through srpicsim's public functions; its output
is reduced to a sha256 digest.  A checked run of each input, made before
timing starts, tests the workload's invariants; every later operation on
that input must reproduce the checked run's digest, and for the seeds in
``digests.json`` the checked digest must also equal the pinned one.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from dataclasses import asdict, dataclass, replace
from pathlib import Path

from srpicsim import channel, coalescing, metrics, scenario, sorter, tcp
from srpicsim.packets import FlowKey, Packet, TcpFlags

from tracer import Patcher

ROOT = Path(__file__).resolve().parent.parent
POOL = 3  # inputs per benchmark seed; operations cycle through them


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class SorterAudit:
    """Checks the sorter inside a TCP run from outside it.

    Each completed coalescing cycle must deliver a permutation of what it
    fetched, every packet the sorter emits must reach the receiver, and
    fetched packets must equal delivered ones plus those still held when
    the run stopped.
    """

    def __init__(self):
        self.errors: list[str] = []
        self._open: dict[object, tuple[list[int], list[int]]] = {}
        self.fetched = self.emitted = self.delivered = 0

    def install(self, p: Patcher) -> None:
        ingest, end_cycle = sorter.SrpicEngine.ingest, sorter.SrpicEngine.end_cycle
        on_segment, run_transfer = tcp.receiver_on_segment, tcp.run_transfer

        def audited_ingest(engine, pkt):
            out = ingest(engine, pkt)
            fetched, emitted = self._open.setdefault(engine, ([], []))
            fetched.append(id(pkt))
            emitted.extend(id(q) for q in out)
            self.fetched += 1
            self.emitted += len(out)
            return out

        def audited_end_cycle(engine):
            out = end_cycle(engine)
            fetched, emitted = self._open.pop(engine, ([], []))
            emitted.extend(id(q) for q in out)
            self.emitted += len(out)
            if sorted(fetched) != sorted(emitted):
                self.errors.append("a cycle's sorter output is not a permutation of its fetch order")
            return out

        def audited_on_segment(state, seg):
            self.delivered += 1
            return on_segment(state, seg)

        def audited_run_transfer(*args, **kwargs):
            self._open.clear()
            self.fetched = self.emitted = self.delivered = 0
            result = run_transfer(*args, **kwargs)
            if self.fetched:
                held = 0
                for fetched, emitted in self._open.values():
                    if Counter(emitted) - Counter(fetched):
                        self.errors.append("the sorter emitted a packet it never fetched")
                    held += len(fetched) - len(emitted)
                if self.delivered != self.emitted:
                    self.errors.append(
                        f"receiver got {self.delivered} packets, sorter emitted {self.emitted}"
                    )
                if self.fetched != self.delivered + held:
                    self.errors.append(
                        f"fetched {self.fetched} != delivered {self.delivered} + held {held}"
                    )
            return result

        p.set(sorter.SrpicEngine, "ingest", audited_ingest)
        p.set(sorter.SrpicEngine, "end_cycle", audited_end_cycle)
        p.everywhere(on_segment, audited_on_segment)
        p.everywhere(run_transfer, audited_run_transfer)


@dataclass
class ScenarioWorkload:
    """One shipped scenario file run the way ``srpicsim run`` runs it:
    ``run_scenario`` (both arms) and then ``rows_to_csv``, one scenario
    seed per operation."""

    name: str
    scenario_file: str
    why: str
    duration: float | None = None  # simulated seconds; None keeps the file's

    def setup(self) -> None:
        cfg = scenario.load_scenario(str(ROOT / "scenarios" / self.scenario_file))
        if self.duration is not None:
            cfg = replace(cfg, duration=self.duration)
        self.cfg = cfg

    def params(self) -> dict:
        return {"scenario": self.scenario_file, "duration_s": self.cfg.duration}

    def inputs(self, seed: int) -> list[int]:
        """Scenario seeds for one benchmark seed (disjoint across seeds)."""
        return [POOL * seed + i for i in range(POOL)]

    def labels(self, seed: int) -> list[str]:
        return [f"scenario seed {s}" for s in self.inputs(seed)]

    def run(self, scenario_seed: int) -> tuple[list[dict], str]:
        rows = scenario.run_scenario(replace(self.cfg, seeds=(scenario_seed,)))
        return rows, scenario.rows_to_csv(rows)

    def segments(self, out) -> int:
        """Acked segments, summed over both arms, read off the rows."""
        rows, _ = out
        return sum(round(r["goodput_proxy"] * self.cfg.duration / tcp.MSS) for r in rows)

    def digest(self, out) -> str:
        return sha256(out[1])

    def checked_run(self, scenario_seed: int):
        audit = SorterAudit()
        p = Patcher()
        audit.install(p)
        try:
            out = self.run(scenario_seed)
        finally:
            p.restore()
        errors = audit.errors + self._row_errors(out[0], scenario_seed)
        return out, errors

    def _row_errors(self, rows: list[dict], scenario_seed: int) -> list[str]:
        arms: dict[str, list] = {"off": [], "on": []}
        for r in rows:
            if r["seed"] != scenario_seed or r["srpic"] not in arms:
                return [f"unexpected row {r['seed']}/{r['srpic']}"]
            arms[r["srpic"]].append(r["stream_id"])
        want = list(range(self.cfg.num_streams))
        if sorted(arms["off"]) != want or sorted(arms["on"]) != want:
            return ["rows are not paired by seed and stream"]
        if not any(r["goodput_proxy"] > 0 for r in rows):
            return ["no segment was acked"]
        return []


@dataclass
class TraceOfflineWorkload:
    """A generated multi-flow trace through the receive path, with no TCP.

    ``apply_path`` -> ``simulate_coalescing`` -> one ``SrpicEngine`` fed
    cycle by cycle -> per-flow ``reorder_report`` with the cycle partition,
    before and after the sorter.
    """

    name: str
    why: str
    packets: int = 16_000
    # A flow gets about block_size packets per ring's worth, so blocks,
    # the ring and cycle ends all cause flushes.  Many small flows keep the
    # quadratic classify under half of an operation.
    flows: int = 16
    spacing_us: float = 1.0
    option_share: float = 0.02
    path: channel.PathConfig = channel.PathConfig(alpha_ms=2.5, beta=0.002, drop_rate=0.001)
    coal: coalescing.CoalescingParams = coalescing.CoalescingParams(
        t_intr_us=30.0, r_sn_pps=1.2e6
    )
    block_size: int = 8
    ringbuffer_size: int = 128

    def setup(self) -> None:
        pass

    def params(self) -> dict:
        return {
            "packets": self.packets,
            "flows": self.flows,
            "spacing_us": self.spacing_us,
            "option_share": self.option_share,
            "path": asdict(self.path),
            "coalescing": {"t_intr_us": self.coal.t_intr_us, "r_sn_pps": self.coal.r_sn_pps},
            "block_size": self.block_size,
            "ringbuffer_size": self.ringbuffer_size,
        }

    def labels(self, seed: int) -> list[str]:
        return [f"trace_offline:{seed}:{i}" for i in range(POOL)]

    def inputs(self, seed: int) -> list[tuple[list[Packet], channel.PathConfig]]:
        return [self._make_input(random.Random(label)) for label in self.labels(seed)]

    def _make_input(self, rng: random.Random):
        flows = [FlowKey(10, 20, 40000 + f, 5001) for f in range(self.flows)]
        next_seq = [rng.getrandbits(32) for _ in flows]  # some flows wrap
        picks = [rng.randrange(self.flows) for _ in range(self.packets)]
        trace = []
        for k, f in enumerate(picks):
            trace.append(
                Packet(
                    flow=flows[f],
                    seq=next_seq[f],
                    payload_len=tcp.MSS,
                    flags=TcpFlags.ACK,
                    has_disallowed_options=rng.random() < self.option_share,
                    send_index=k,
                    send_time=k * self.spacing_us,
                )
            )
            next_seq[f] = (next_seq[f] + tcp.MSS) % (1 << 32)
        return trace, replace(self.path, seed=rng.getrandbits(32))

    def run(self, item):
        trace, path = item
        arrived = channel.apply_path(trace, path)
        cycles = coalescing.simulate_coalescing([p.arrival_time for p in arrived], self.coal)
        engine = sorter.SrpicEngine(self.block_size, self.ringbuffer_size)
        fetched_by_cycle, delivered_by_cycle = [], []
        start = 0
        for c in cycles:
            fetched = arrived[start : start + c.block_packets]
            start += c.block_packets
            delivered = []
            for p in fetched:
                delivered.extend(engine.ingest(p))
            delivered.extend(engine.end_cycle())
            fetched_by_cycle.append(fetched)
            delivered_by_cycle.append(delivered)
        return {
            "packets": len(trace),
            "arrived": len(arrived),
            "cycles": [c.block_packets for c in cycles],
            "fetched": fetched_by_cycle,
            "delivered": delivered_by_cycle,
            "pre": _flow_reports(fetched_by_cycle),
            "post": _flow_reports(delivered_by_cycle),
        }

    def segments(self, out) -> int:
        return out["packets"]

    def digest(self, out) -> str:
        doc = {
            "cycles": out["cycles"],
            "flows": {
                str(port): [asdict(out["pre"][port]), asdict(out["post"][port])]
                for port in out["pre"]
            },
        }
        return sha256(json.dumps(doc, sort_keys=True))

    def checked_run(self, item):
        out = self.run(item)
        errors = []
        if sum(out["cycles"]) != out["arrived"]:
            errors.append("coalescing cycles do not cover the arrivals")
        for fetched, delivered in zip(out["fetched"], out["delivered"]):
            if sorted(map(id, fetched)) != sorted(map(id, delivered)):
                errors.append("a cycle's sorter output is not a permutation of its fetch order")
                break
        n_fetched = sum(map(len, out["fetched"]))
        n_delivered = sum(map(len, out["delivered"]))
        if n_delivered != n_fetched:
            errors.append(f"delivered {n_delivered} != fetched {n_fetched}")
        if set(out["pre"]) != set(out["post"]):
            errors.append("flows differ before and after the sorter")
        for port, pre in out["pre"].items():
            post = out["post"].get(port)
            for r in (pre, post):
                if r is None or r.intra_block + r.inter_block != r.reordered_count:
                    errors.append(f"flow {port}: intra + inter != reordered")
                    break
            if post is not None and post.total_packets != pre.total_packets:
                errors.append(f"flow {port}: packet count changed in the sorter")
        return out, errors


def _flow_reports(cycles: list[list[Packet]]) -> dict[int, metrics.ReorderReport]:
    """Per-flow report of one packet order, partitioned by coalescing cycle."""
    traces: dict[int, list[Packet]] = {}
    parts: dict[int, list[int]] = {}
    for cycle in cycles:
        per_flow = Counter()
        for p in cycle:
            traces.setdefault(p.flow.src_port, []).append(p)
            per_flow[p.flow.src_port] += 1
        for port, n in per_flow.items():
            parts.setdefault(port, []).append(n)
    return {port: metrics.reorder_report(traces[port], parts[port]) for port in sorted(traces)}


WORKLOADS = {
    "reorder_paired": ScenarioWorkload(
        "reorder_paired",
        "table4_analog.yaml",
        "Paper's headline case: shuffled ~44-packet blocks load sorter, channel "
        "draws, metrics and the dupACK path of the tcp event loop at once.",
    ),
    "drops_sack": ScenarioWorkload(
        "drops_sack",
        "table5_analog.yaml",
        "In-order arrivals with drops and SACK: the sorter stays on its append "
        "path and the tcp event loop takes nearly all the time.",
    ),
    "trace_offline": TraceOfflineWorkload(
        "trace_offline",
        "No TCP: many flows share one sorter (block, ring and cycle-end flushes, "
        "bypasses); the only user of simulate_coalescing and classify.",
    ),
}
