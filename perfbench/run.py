"""srpicsim benchmark: simulated segments per host-second, per workload.

    python3 perfbench/run.py --workload reorder_paired --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; srpicsim is imported from its
``src/`` tree, and the run fails without printing a result when that tree
is missing.  The load is a closed loop: one operation at a time, in this
one process.  Every timing is host time; simulated statistics only serve
as correctness checks.

A run measures set-up in fresh processes, makes a checked run of each
input the seed gives, then repeats operations until ``--seconds`` have
passed, checking each against its input's digest.  With ``--trace 0`` the
last stdout line carries the end-to-end metrics; with ``--trace 1`` each
operation runs untraced and then traced, and the line carries the
per-layer metrics and the tracing overhead.  Earlier lines are a readable
report and the run's provenance.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import heapq
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_PROBES = 5
# Host speed on a shared machine drifts by up to 1.5x within a minute.  A
# fixed allocation-heavy loop timed next to each operation tracks that
# drift, so each operation's rate is scaled by the loop's time over this
# reference: the loop's time on a 2-vCPU x86_64 host with Python 3.11.
REF_CALIBRATION_S = 0.05

# Which per-layer metric should move which end-to-end metric, by workload.
EFFECTS = [
    ("tcp.heap_pushes_per_seg.*, tcp.event_loop_self_share", "sim_segments_per_s",
     "most on drops_sack, then reorder_paired; none on trace_offline"),
    ("sorter.ingest_ns, sorter.flushes.*", "sim_segments_per_s",
     "trace_offline and the sorter-on arm of reorder_paired; about none on drops_sack"),
    ("metrics.classify_ns_per_pkt", "sim_segments_per_s",
     "trace_offline only, while no scenario run classifies"),
    ("metrics.reorder_report_ns_per_pkt, channel.draw_ns", "sim_segments_per_s",
     "more on reorder_paired than on drops_sack"),
    ("scenario.import_s", "setup_s", "every workload"),
    ("memory held in traces", "peak_rss_mb", "reorder_paired and trace_offline"),
]


def use_source_tree() -> None:
    """Import srpicsim from this checkout's ``src/`` or stop."""
    if not (SRC / "srpicsim" / "__init__.py").is_file():
        sys.exit(f"perfbench: no srpicsim sources under {SRC}")
    sys.path.insert(0, str(SRC))
    if str(BENCH) not in sys.path:
        sys.path.insert(0, str(BENCH))


def probe_setup(scenario_file: Path | None) -> dict:
    """Median set-up timings over fresh interpreters."""
    probes = []
    cmd = [sys.executable, str(BENCH / "probe.py")]
    if scenario_file is not None:
        cmd.append(str(scenario_file))
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            sys.exit(f"perfbench: set-up probe failed: {proc.stderr.strip()}")
        probes.append(json.loads(proc.stdout.splitlines()[-1]))
    return {
        "setup_s": statistics.median(p["import_s"] + p["load_s"] for p in probes),
        "import_s": statistics.median(p["import_s"] for p in probes),
        "load_s": statistics.median(p["load_s"] for p in probes),
    }


class _Rec:
    __slots__ = ("key", "n")

    def __init__(self, key: int, n: int):
        self.key = key
        self.n = n


def calibration_s() -> float:
    """Time a fixed loop of object, tuple, heap and dict work; it runs no
    srpicsim code."""
    t0 = time.perf_counter()
    heap: list = []
    counts: dict[int, int] = {}
    for i in range(60_000):
        r = _Rec((i * 7919) % 1000, i)
        heapq.heappush(heap, (r.key, i, r))
        counts[r.key] = counts.get(r.key, 0) + 1
        if len(heap) > 64:
            heapq.heappop(heap)
    return time.perf_counter() - t0


def _attempt(fn, *args):
    """Run one operation; an exception counts as a failure, not a crash."""
    try:
        return fn(*args)
    except Exception:
        traceback.print_exc()
        return None


def measure(wl, seed: int, seconds: float, trace: bool, pinned: list[str] | None) -> dict:
    """Checked runs of the seed's inputs, then timed operations.

    ``pinned`` holds the expected digest of each input, or None when the
    seed has none and only the invariant checks apply.
    """
    from tracer import ROOT_SPAN, Tracer, traced

    items = wl.inputs(seed)
    attempted = failed = 0
    refs: list[str | None] = []
    for i, item in enumerate(items):
        attempted += 1
        checked = _attempt(wl.checked_run, item)
        out, errors = checked if checked else (None, ["operation raised"])
        digest = wl.digest(out) if out is not None else None
        if pinned is not None and digest != pinned[i]:
            errors.append(f"digest {digest} != pinned {pinned[i]}")
        if errors:
            failed += 1
            print(f"FAILED input {i}: {'; '.join(errors)}", file=sys.stderr)
        refs.append(None if errors else digest)

    # The inputs and checked outputs live for the whole run; keep the
    # collector from rescanning them during timed operations.
    gc.collect()
    gc.freeze()
    tracer = Tracer() if trace else None
    rates: list[float] = []  # per operation, at the reference host speed
    raw_rates: list[float] = []
    cals: list[float] = []
    plain_s = 0.0
    traced_segments = 0
    deadline = time.perf_counter() + seconds
    cal_before = calibration_s()
    k = 0
    while k == 0 or time.perf_counter() < deadline:
        i = k % len(items)
        k += 1
        plain = None
        for with_trace in (False, True) if trace else (False,):
            attempted += 1
            if with_trace:
                with traced(tracer):
                    out = _attempt(tracer.span(ROOT_SPAN, wl.run), items[i])
            else:
                t0 = time.perf_counter()
                out = _attempt(wl.run, items[i])
                dt = time.perf_counter() - t0
            if out is None or refs[i] is None or wl.digest(out) != refs[i]:
                failed += 1
                print(f"FAILED operation on input {i}", file=sys.stderr)
                continue
            if with_trace:
                traced_segments += wl.segments(out)
            else:
                plain_s += dt
                plain = wl.segments(out) / dt
        cal_after = calibration_s()
        cals.append(cal_after)
        if plain is not None:
            raw_rates.append(plain)
            rates.append(plain * (cal_before + cal_after) / 2 / REF_CALIBRATION_S)
        cal_before = cal_after
    gc.unfreeze()
    return {
        "attempted": attempted,
        "failed": failed,
        "rates": rates,
        "raw_rates": raw_rates,
        "calibration_s": cals,
        "plain_s": plain_s,
        "tracer": tracer,
        "traced_segments": traced_segments,
    }


def end_to_end(res: dict, setup: dict) -> dict[str, tuple[float, str]]:
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    rate = statistics.median(res["rates"]) if res["rates"] else 0.0
    return {
        "sim_segments_per_s": (rate, "seg/s"),
        "setup_s": (setup["setup_s"], "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def per_layer(res: dict, setup: dict) -> dict[str, tuple[float, str]]:
    from tracer import ROOT_SPAN, layer_metrics

    t = res["tracer"]
    out = layer_metrics(t, res["traced_segments"], setup)
    wall = t.ns[ROOT_SPAN] / 1e9
    out["trace.overhead_ratio"] = (wall / res["plain_s"] if res["plain_s"] else 0.0, "ratio")
    return out


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        return (git / head[5:]).read_text().strip() if head.startswith("ref: ") else head
    except OSError:
        return "unknown"


def _source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "srpicsim").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def provenance(args, wl) -> dict:
    return {
        "workload": wl.name,
        "why": wl.why,
        "seed": args.seed,
        "inputs": wl.labels(args.seed),
        "params": wl.params(),
        "seconds": args.seconds,
        "trace": args.trace,
        "setup_probes": SETUP_PROBES,
        "load": "closed loop, one operation at a time, one process",
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "machine": platform.machine(),
        "commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "effects": [
            {"per_layer": p, "end_to_end": e, "effect": w} for p, e, w in EFFECTS
        ],
    }


def load_pinned(workload: str, seed: int) -> list[str] | None:
    pins = json.loads((BENCH / "digests.json").read_text())
    return pins.get(workload, {}).get(str(seed))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["reorder_paired", "drops_sack", "trace_offline"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")

    use_source_tree()
    import srpicsim
    import workloads

    if not Path(srpicsim.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: srpicsim imported from {srpicsim.__file__}, not {SRC}")
    wl = workloads.WORKLOADS[args.workload]
    scenario_file = getattr(wl, "scenario_file", None)
    setup = probe_setup(ROOT / "scenarios" / scenario_file if scenario_file else None)
    wl.setup()
    res = measure(wl, args.seed, args.seconds, bool(args.trace), load_pinned(wl.name, args.seed))
    found = per_layer(res, setup) if args.trace else end_to_end(res, setup)

    print(f"perfbench {wl.name} seed={args.seed} trace={args.trace}: "
          f"{res['attempted']} operations, {res['failed']} failed")
    if res["rates"]:
        r, raw = res["rates"], res["raw_rates"]
        print(f"  seg/s over {len(r)} untraced operations, at reference speed: "
              f"median {statistics.median(r):.1f}, min {min(r):.1f}, max {max(r):.1f}; "
              f"as timed: median {statistics.median(raw):.1f}; calibration loop: "
              f"median {statistics.median(res['calibration_s']) * 1000:.1f} ms")
    for name, (value, unit) in found.items():
        print(f"  {name:36s} {value:14.6g} {unit}")
    print("provenance " + json.dumps(provenance(args, wl)))
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in found.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
