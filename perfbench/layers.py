"""Per-layer figures from traced operations: span times and counter deltas.

A :class:`LayerTrace` wraps each traced operation in
``repro.obs.trace.tracing()`` and a before/after counter snapshot, and
accumulates, per span name, the wall time, the self time (wall minus the
wall of the span's children) and the entry count.  :meth:`metrics` turns
those totals into the per-operation layer metrics named in
``BENCHMARK.json``.
"""

from __future__ import annotations

import contextlib

from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.utils.cache import cache_stats

#: Layer metric -> span whose wall time per operation it reports.
SPAN_SECONDS = {
    "lte.decode_s": "lte.decode",
    "lte.viterbi_s": "lte.viterbi",
    "lte.transmit_s": "lte.transmit",
    "lte.channel_est_s": "lte.channel_est",
    "lte.demap_s": "lte.demap",
    "lte.ofdm_modulate_s": "lte.ofdm.modulate",
    "system.channel_s": "system.channel",
    "system.receive_s": "system.receive",
    "system.reference_s": "system.reference",
    "system.ambient_s": "system.ambient",
    "tag.sync_s": "tag.sync",
    "tag.schedule_s": "tag.schedule",
    "tag.reflect_s": "tag.reflect",
    "bsrx.phase_offset_s": "bsrx.phase_offset",
    "bsrx.equalise_s": "bsrx.equalise",
}
#: Layer metric -> span whose entries per operation it reports.
SPAN_CALLS = {
    "lte.viterbi_calls": "lte.viterbi",
    "bsrx.phase_offset_calls": "bsrx.phase_offset",
    "bsrx.equalise_calls": "bsrx.equalise",
}


class LayerTrace:
    """Span and counter totals over every traced operation of a run."""

    def __init__(self):
        #: span name -> {"wall_seconds", "cpu_seconds", "count", "self_seconds"}
        self.table = {}
        self.counters = {}
        self.ops = 0

    @contextlib.contextmanager
    def op(self, n_ops=1):
        """Trace the block as ``n_ops`` operations."""
        before = obs_metrics.counters_snapshot()
        with obs_trace.tracing():
            yield
        roots = obs_trace.snapshot()
        delta = obs_metrics.counter_delta(before, obs_metrics.counters_snapshot())
        obs_trace.flatten_stages(roots, into=self.table)
        nodes = list(roots)
        while nodes:
            node = nodes.pop()
            children = list(node.children.values())
            entry = self.table[node.name]
            entry["self_seconds"] = (
                entry.get("self_seconds", 0.0)
                + node.wall_seconds
                - sum(child.wall_seconds for child in children)
            )
            nodes.extend(children)
        for name, value in delta.items():
            self.counters[name] = self.counters.get(name, 0) + value
        self.ops += n_ops

    def per_op(self, name, key="wall_seconds"):
        entry = self.table.get(name)
        if entry is None or not self.ops:
            return 0.0
        return entry[key] / self.ops

    def rows(self):
        """``(span, wall_s, self_s, count)`` per operation, by wall time."""
        rows = [
            (
                name,
                self.per_op(name),
                self.per_op(name, "self_seconds"),
                self.per_op(name, "count"),
            )
            for name in self.table
        ]
        return sorted(rows, key=lambda row: -row[1])

    def metrics(self, op_wall_s):
        """The span- and counter-derived layer metrics, per operation.

        ``op_wall_s`` is the mean wall time of a traced operation, the
        denominator of ``lte.decode_share``.
        """
        out = {name: self.per_op(span) for name, span in SPAN_SECONDS.items()}
        out.update(
            {name: self.per_op(span, "count") for name, span in SPAN_CALLS.items()}
        )
        # The bsrx layer's time: every bsrx.* span's self time.  On a link
        # that is the bsrx.demodulate span; the batched fleet demod has no
        # enclosing span, so its phase-offset/equalise/demod spans add up.
        out["bsrx.demodulate_s"] = sum(
            self.per_op(name, "self_seconds")
            for name in self.table
            if name.startswith("bsrx.")
        )
        bsrx_windows = self.counters.get("bsrx.windows", 0)
        out["bsrx.windows"] = bsrx_windows / self.ops if self.ops else 0.0
        out["bsrx.useful_window_ratio"] = (
            self.counters.get("link.windows", 0) / bsrx_windows
            if bsrx_windows
            else 0.0
        )
        out["lte.decode_share"] = (
            self.per_op("lte.decode") / op_wall_s if op_wall_s else 0.0
        )
        return out


def cache_hit_ratio():
    """Hits over lookups across every memoised sequence cache, since import."""
    hits = misses = 0
    for stats in cache_stats().values():
        hits += stats["hits"]
        misses += stats["misses"]
    return hits / (hits + misses) if hits + misses else 0.0
