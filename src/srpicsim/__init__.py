"""Simulation lab for receiver-side sorting of reordered TCP packets.

The receive path of an interrupt-coalescing NIC naturally hands packets
upward in blocks; sorting each TCP stream's packets inside such a block
removes most of the reordering the TCP layer would otherwise have to
absorb.  This package models that mechanism end to end: the packet types,
the per-flow block sorter, the coalescing cycle dynamics, a netem-style
delay/drop channel, RFC-4737-style reordering metrics, and a simplified
TCP sender/receiver pair driven by a deterministic event loop.

``import srpicsim`` loads no submodule.  ``_EXPORTS`` names each public
name once, under the submodule that defines it.  The first use of a name,
such as ``srpicsim.load_scenario``, or of a submodule, such as
``srpicsim.sorter``, imports that submodule (PEP 562).  A name is looked
up in its submodule on every use, never cached here.  Medians of 15 fresh
interpreters on a shared 2-vCPU x86_64 host, Python 3.11, put the bare
import at about 0.5 ms with no bytecode written and 0.2 ms with compiled
bytecode present, and import plus ``load_scenario`` on ``table4_analog``
at about 41 ms and 37 ms.
"""

import importlib

# Each submodule and the public names it defines, in ``__all__`` order.
_EXPORTS = {
    "packets": ("FlowKey", "Packet", "TcpFlags", "is_suitable", "payload_end", "seq_cmp"),
    "sorter": ("SrpicEngine", "SrpicManager"),
    "coalescing": (
        "CoalescingParams", "CycleRecord", "ReceiverSaturationError", "block_size_cbr",
        "block_size_closed_form", "hold_delay_bound", "simulate_coalescing",
    ),
    "channel": ("PathConfig", "apply_path"),
    "metrics": (
        "OverlappingSegmentsError", "PartitionError", "ReorderReport",
        "classify_block_reordering", "reorder_report",
    ),
    "tcp": (
        "AckRecord", "ReceiverState", "SenderState", "TransferMetrics",
        "receiver_on_segment", "run_transfer", "sender_on_ack",
    ),
    "scenario": ("ConfigError", "ScenarioConfig", "compare", "load_scenario", "run_scenario"),
}
_LAZY = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_LAZY)


def __getattr__(name: str):
    """Return a submodule named in ``_EXPORTS``, or the current binding of
    a public name in its submodule, uncached, so a replacement installed
    there is what this returns."""
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
