"""Independent brute-force implementations used as oracles in tests.

These deliberately avoid the package's incremental algorithms: the
reordering checks restate the definitions as quadratic scans over plain
integers, and the coalescing walk steps one service quantum at a time.
The ``reference_*`` functions are the straightforward earlier forms of
helpers that were since rewritten for speed.
"""

from bisect import bisect_left, insort

from srpicsim.packets import SEQ_MOD, FlowKey, Packet, seq_cmp

FLOW = FlowKey(1, 2, 1000, 2000)


def make_trace(seqs, lens=None, flow=FLOW):
    lens = lens or [1] * len(seqs)
    return [
        Packet(flow=flow, seq=s, payload_len=l, send_index=i)
        for i, (s, l) in enumerate(zip(seqs, lens))
    ]


def brute_reordered_flags(trace):
    """A packet is reordered iff some earlier arrival's payload
    extends past this packet's first byte (cumulative-maximum form)."""
    flags = []
    for i, p in enumerate(trace):
        flags.append(any(q.seq + q.payload_len > p.seq for q in trace[:i]))
    return flags


def brute_reordered_count(trace):
    flags = brute_reordered_flags(trace)
    n = len(trace)
    return sum(flags), (sum(flags) / n if n else 0.0)


def brute_max_extent(trace):
    flags = brute_reordered_flags(trace)
    best = 0
    for i, p in enumerate(trace):
        if flags[i]:
            extent = sum(1 for q in trace[:i] if q.seq > p.seq)
            best = max(best, extent)
    return best


def brute_classify(trace, partition):
    block_of = []
    for b, length in enumerate(partition):
        block_of.extend([b] * length)
    flags = brute_reordered_flags(trace)
    intra = inter = 0
    for i, p in enumerate(trace):
        if not flags[i]:
            continue
        earlier_greater_blocks = {
            block_of[j] for j, q in enumerate(trace[:i]) if q.seq > p.seq
        }
        if earlier_greater_blocks - {block_of[i]}:
            inter += 1
        else:
            intra += 1
    return intra, inter


def naive_coalescing_blocks(arrivals, t_intr_us, quantum_us):
    """Literal quantum-by-quantum drain; returns per-cycle packet counts."""
    blocks = []
    i = 0
    n = len(arrivals)
    while i < n:
        start = arrivals[i]
        t = start + t_intr_us
        served = 0
        while True:
            t += quantum_us
            served += 1
            arrived = 0
            while i + arrived < n and arrivals[i + arrived] < t:
                arrived += 1
            if arrived - served <= 0:
                break
        blocks.append(served)
        i += served
    return blocks


def reference_first_copies(trace):
    """First-arriving copy of each payload range, against a sorted list of
    (start, end) tuples, one per kept packet."""
    kept = []
    intervals = []  # sorted, disjoint (start, end)
    for p in trace:
        s, e = p.seq, p.seq + p.payload_len
        i = bisect_left(intervals, (s,))
        if i < len(intervals) and intervals[i][0] < e:
            continue
        if i > 0 and intervals[i - 1][1] > s:
            continue
        insort(intervals, (s, e))
        kept.append(p)
    return kept


def reference_mark_sacked(state, blocks):
    """Mark every queued segment that one SACK block covers, via seq_cmp."""
    for bstart, bend in blocks:
        for seg in state.retransmit_queue:
            if seq_cmp(seg.seq, bstart) >= 0 and seq_cmp(
                (seg.seq + seg.length) % SEQ_MOD, bend
            ) <= 0:
                seg.sacked = True
