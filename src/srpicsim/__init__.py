"""Simulation lab for receiver-side sorting of reordered TCP packets.

The receive path of an interrupt-coalescing NIC naturally hands packets
upward in blocks; sorting each TCP stream's packets inside such a block
removes most of the reordering the TCP layer would otherwise have to
absorb.  This package models that mechanism end to end: the packet types,
the per-flow block sorter, the coalescing cycle dynamics, a netem-style
delay/drop channel, RFC-4737-style reordering metrics, and a simplified
TCP sender/receiver pair driven by a deterministic event loop.
"""

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
from .tcp import (
    AckRecord,
    ReceiverState,
    SenderState,
    TransferMetrics,
    receiver_on_segment,
    run_transfer,
    sender_on_ack,
)
from .scenario import ConfigError, ScenarioConfig, compare, load_scenario, run_scenario

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
