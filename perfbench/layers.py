"""The per-layer metrics: computed from span summaries plus counters.

Every traced run reports every metric below, on every workload; a layer
a workload does not exercise reads 0.  README.md lists which
end-to-end metric each one should move, and on which workload.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from common import percentile

#: (name, unit, better) — the ``per_layer`` list of BENCHMARK.json
PER_LAYER = [
    ("engine_fleet.rounds", "count", "lower"),
    ("engine_fleet.self_s", "s", "lower"),
    ("engine_fleet.parse_burst.busy_s", "s", "lower"),
    ("engine_fleet.parse_burst.chains", "count", "higher"),
    ("decisions.scalar.calls", "count", "lower"),
    ("decisions.scalar.busy_s", "s", "lower"),
    ("decisions.fleet.calls", "count", "lower"),
    ("decisions.fleet.busy_s", "s", "lower"),
    ("merges.detect.busy_s", "s", "lower"),
    ("merges.plan.busy_s", "s", "lower"),
    ("chain.apply_moves.busy_s", "s", "lower"),
    ("arena.apply_moves.busy_s", "s", "lower"),
    ("arena.apply_moves.cells_per_call", "cells", "higher"),
    ("arena.topology.busy_s", "s", "lower"),
    ("arena.topology.cells_per_call", "cells", "higher"),
    ("arena.admit.busy_s", "s", "lower"),
    ("arena.admit.chains", "count", "higher"),
    ("arena.admit.chains_per_call", "chains", "higher"),
    ("arena.retire.busy_s", "s", "lower"),
    ("arena.retire.chains_per_call", "chains", "higher"),
    ("arena.topo_rebuilds", "count", "lower"),
    ("arena.compactions", "count", "lower"),
    ("runs.advance.busy_s", "s", "lower"),
    ("runs.start.busy_s", "s", "lower"),
    ("runs.stop.busy_s", "s", "lower"),
    ("wal.append.calls", "count", "lower"),
    ("wal.append.busy_s", "s", "lower"),
    ("wal.snapshot.calls", "count", "lower"),
    ("wal.snapshot.busy_s", "s", "lower"),
    ("wal.bytes", "bytes", "lower"),
    ("wal.records", "count", "lower"),
    ("batch.wait_s", "s", "lower"),
    ("batch.sojourn_ms.p50", "ms", "lower"),
    ("batch.sojourn_ms.p99", "ms", "lower"),
    ("supervisor.parent_cpu_s", "s", "lower"),
    ("supervisor.worker_cpu_s", "s", "lower"),
    ("supervisor.worker_util", "ratio", "higher"),
    ("supervisor.submits", "count", "lower"),
    ("supervisor.payload_bytes", "bytes", "lower"),
    ("protocol.decode_line.calls", "count", "lower"),
    ("protocol.decode_line.busy_s", "s", "lower"),
    ("protocol.encode_frame.calls", "count", "lower"),
    ("protocol.encode_frame.busy_s", "s", "lower"),
    ("protocol.parse_positions.calls", "count", "lower"),
    ("protocol.parse_positions.busy_s", "s", "lower"),
    ("queue.submit.calls", "count", "lower"),
    ("queue.submit.busy_s", "s", "lower"),
    ("queue.take.calls", "count", "lower"),
    ("queue.take.busy_s", "s", "lower"),
    ("queue.wait_ms.p50", "ms", "lower"),
    ("queue.wait_ms.p99", "ms", "lower"),
    ("server.kernel_busy_s", "s", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.spans", "count", "lower"),
]

_EMPTY = {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "items": 0}


def queue_wait_ms(spans: Dict[str, np.ndarray]) -> Tuple[float, float]:
    """p50/p99 of submit-to-take, matched by the submission's seq."""
    names = list(spans["names"])
    if "queue.submit" not in names or "queue.take" not in names:
        return 0.0, 0.0
    sub = spans["name"] == names.index("queue.submit")
    take = (spans["name"] == names.index("queue.take")) \
        & (spans["ident"] >= 0)
    submitted = dict(zip(spans["ident"][sub].tolist(),
                         spans["start"][sub].tolist()))
    waits = [(t - submitted[s]) * 1e3
             for s, t in zip(spans["ident"][take].tolist(),
                             spans["end"][take].tolist()) if s in submitted]
    if not waits:
        return 0.0, 0.0
    return percentile(waits, 50), percentile(waits, 99)


def per_layer(summary: Dict[str, Dict[str, float]],
              extra: Dict[str, float]) -> Dict[str, float]:
    """Every PER_LAYER metric from a span summary and side counters."""
    def s(name: str) -> Dict[str, float]:
        return summary.get(name, _EMPTY)

    def per_call(name: str) -> float:
        c = s(name)
        return c["items"] / c["calls"] if c["calls"] else 0.0

    attach = s("arena.attach")
    out = {
        "engine_fleet.rounds": s("decisions.scalar")["calls"]
        + s("decisions.fleet")["calls"],
        "engine_fleet.self_s": s("engine_fleet.run")["self_s"]
        + s("engine_fleet.run_stream")["self_s"],
        "engine_fleet.parse_burst.busy_s": s("engine_fleet.parse_burst")
        ["busy_s"],
        "engine_fleet.parse_burst.chains": s("engine_fleet.parse_burst")
        ["items"],
        "arena.apply_moves.cells_per_call": per_call("arena.apply_moves"),
        "arena.topology.cells_per_call": per_call("arena.topology"),
        "arena.admit.busy_s": s("arena.reserve")["busy_s"]
        + attach["busy_s"],
        "arena.admit.chains": attach["items"],
        "arena.admit.chains_per_call": per_call("arena.attach"),
        "arena.retire.chains_per_call": per_call("arena.retire"),
        "supervisor.submits": s("supervisor.submit")["calls"],
        "supervisor.payload_bytes": s("supervisor.submit")["items"],
        "server.kernel_busy_s": max(
            0.0, s("engine_fleet.run_stream")["busy_s"]
            - s("queue.take")["busy_s"]) if s("queue.take")["calls"] else 0.0,
    }
    for span in ("decisions.scalar", "decisions.fleet", "wal.append",
                 "wal.snapshot", "protocol.decode_line",
                 "protocol.encode_frame", "protocol.parse_positions",
                 "queue.submit", "queue.take"):
        out[f"{span}.calls"] = s(span)["calls"]
        out[f"{span}.busy_s"] = s(span)["busy_s"]
    for span in ("merges.detect", "merges.plan", "chain.apply_moves",
                 "arena.apply_moves", "arena.topology", "arena.retire",
                 "runs.advance", "runs.start", "runs.stop"):
        out[f"{span}.busy_s"] = s(span)["busy_s"]
    out.update(extra)
    missing = [name for name, _u, _b in PER_LAYER if name not in out]
    if missing:
        raise KeyError(f"per-layer metrics not computed: {missing}")
    return {name: out[name] for name, _u, _b in PER_LAYER}
