"""The in-process workloads: solo, stream and scaleout.

Each runs its seeded inputs through the public API in whole passes
until the run's time is used (at least MIN_PASSES), checks every result,
and returns an :class:`Outcome`.  A traced run makes an untraced pass,
a traced pass and another untraced pass over the same inputs; its
per-layer metrics come from the traced pass and its tracing overhead
from comparing the walls.
"""

from __future__ import annotations

import glob
import multiprocessing
import os
import random
import resource
import shutil
import time
from array import array
from dataclasses import dataclass, field
from statistics import median
from typing import Dict, List, Optional, Sequence, Tuple

import inputs
from common import (Context, cpu_seconds, percentile, setup_seconds, tail_ok,
                    vm_hwm_mb)

#: passes an untraced run makes at least, whatever --seconds says: the
#: best-of estimates need repeats even when the host runs slow
MIN_PASSES = 3

#: metrics a traced run fills in beside the span summary (0 = unused)
ZERO_EXTRAS = {
    "arena.topo_rebuilds": 0, "arena.compactions": 0,
    "wal.bytes": 0, "wal.records": 0,
    "batch.wait_s": 0.0, "batch.sojourn_ms.p50": 0.0,
    "batch.sojourn_ms.p99": 0.0,
    "supervisor.parent_cpu_s": 0.0, "supervisor.worker_cpu_s": 0.0,
    "supervisor.worker_util": 0.0,
    "queue.wait_ms.p50": 0.0, "queue.wait_ms.p99": 0.0,
    "trace.overhead_pct": 0.0, "trace.spans": 0,
}


@dataclass
class Outcome:
    """What one run measured and how many of its chains were wrong."""

    attempted: int = 0
    failed: int = 0          # failed, missing, duplicated or not gathered
    mismatched: int = 0      # differ from the reference engine
    e2e: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def fail(self, count: int, why: str) -> None:
        if count:
            self.failed += count
            self.notes.append(f"FAIL {count} {why}")


Fingerprint = Tuple[bool, int, Tuple[Tuple[int, int], ...]]


def fingerprint(result) -> Fingerprint:
    return (bool(result.gathered), int(result.rounds),
            tuple(map(tuple, result.final_positions)))


def check_oracle(chains, got: Dict[int, Fingerprint], ctx: Context,
                 sample: int, oc: Outcome) -> None:
    """Compare a seeded sample against ``Simulator(engine="reference")``."""
    from repro.core.simulator import Simulator
    rng = random.Random(ctx.seed * 7919 + 17)
    picks = sorted(rng.sample(range(len(chains)), min(sample, len(chains))))
    for i in picks:
        ref = Simulator(chains[i], engine="reference",
                        check_invariants=False).run()
        if got.get(i) != fingerprint(ref):
            oc.mismatched += 1
            oc.fail(1, f"chain {i} differs from the reference engine")
    oc.notes.append(f"oracle: {len(picks)} sampled chains checked against "
                    f"the reference engine, {oc.mismatched} mismatched")


@dataclass
class Pass:
    """One pass over a workload's inputs."""

    wall: float
    latencies: Sequence[float]                # seconds, one per chain
    fps: Dict[int, Fingerprint]
    wait: float = 0.0                         # consumer blocked in next()
    cpu: Tuple[float, float] = (0.0, 0.0)     # (self, reaped children)
    wal: Tuple[int, int] = (0, 0)             # (log bytes, log records)
    stats: Dict[str, int] = field(default_factory=dict)
    per_chain: List[float] = field(default_factory=list)  # solo: build+run
    sojourn: Sequence[float] = ()             # stream: pull → yield
    order: Sequence[int] = ()                 # stream: yield order
    done_at: Sequence[float] = ()             # stream: yield times


def _passes(ctx: Context, run_pass, count: int, oc: Outcome):
    """Untraced passes until the run's time is used.

    A traced run makes an untraced pass, a traced pass and another
    untraced pass, so the overhead is read against both neighbours.
    Returns (untraced passes, traced pass or None, span summary or None,
    span count, mean untraced wall).
    """
    passes: List[Pass] = []
    first: Dict[int, Fingerprint] = {}

    def checked(traced: bool) -> Pass:
        ps = run_pass(traced)
        if not first:
            first.update(ps.fps)
        _check_pass(ps.fps, first, count, oc)
        # once checked, a pass shares the first pass's fingerprints: the
        # benchmark's own memory must not grow with the number of passes
        ps.fps = first
        return ps

    while True:
        passes.append(checked(False))
        walls = [p.wall for p in passes]
        if ctx.trace or (len(walls) >= MIN_PASSES and not _more_passes(
                sum(walls), len(walls), ctx.seconds)):
            break
    if not ctx.trace:
        return passes, None, None, 0, 0.0
    import tracer
    shutil.rmtree(ctx.trace_dir, ignore_errors=True)
    os.makedirs(ctx.trace_dir)
    os.environ["PERFBENCH_TRACE_DIR"] = ctx.trace_dir
    tracer.install()
    traced = checked(True)
    tracer.uninstall()
    passes.append(checked(False))
    # this process's spans, merged with those the pool workers wrote
    tracer.dump(os.path.join(ctx.trace_dir, f"trace-{os.getpid()}.npz"))
    spans = tracer.load(sorted(glob.glob(os.path.join(ctx.trace_dir,
                                                      "trace-*.npz"))))
    base = sum(p.wall for p in passes) / len(passes)
    oc.notes.append(f"trace: untraced passes {_secs([p.wall for p in passes])}"
                    f", traced pass {traced.wall:.2f} s")
    return passes, traced, tracer.summarize(spans), len(spans["end"]), base


def _reap_children(timeout: float = 30.0) -> None:
    """Wait until every pool worker this process started has exited."""
    deadline = time.monotonic() + timeout
    while multiprocessing.active_children():
        if time.monotonic() > deadline:
            for p in multiprocessing.active_children():
                p.kill()
                p.join()
            break
        time.sleep(0.01)


def _secs(walls: List[float]) -> str:
    return " ".join(f"{w:.2f}" for w in walls) + " s"


def _more_passes(elapsed: float, passes: int, seconds: float) -> bool:
    return elapsed + elapsed / passes <= seconds * 1.25


def best_of(passes: List["Pass"]) -> List[float]:
    """Per chain, the shortest of its latencies over the passes.

    Every pass runs the same inputs, and on a shared host interference
    only ever adds time, so the best repeat is the steadiest estimate of
    the program's own cost.
    """
    return [min(col) for col in zip(*(p.latencies for p in passes))]


def composite_wall(passes: List[Pass], segment: int = 100
                   ) -> Optional[float]:
    """A pass's wall time built from its fastest stretches.

    When every pass yielded the same chains in the same order (the
    in-process kernel is deterministic), the yield sequence is cut into
    stretches of ``segment`` results and each stretch takes the time of
    its fastest pass: the same best-repeat estimate as :func:`best_of`,
    at a grain finer than a whole pass.  None when the orders differ
    (the pool's workers race).
    """
    order = passes[0].order
    if any(p.order != order for p in passes):
        return None
    total, prev = 0.0, [0.0] * len(passes)
    for mark in list(range(segment, len(order), segment)) + [len(order)]:
        ends = [p.done_at[mark - 1] for p in passes]
        total += min(e - s for e, s in zip(ends, prev))
        prev = ends
    return total


# -- solo -----------------------------------------------------------------

def solo(ctx: Context) -> Outcome:
    """125 chains gathered one at a time by the single-chain kernel."""
    from repro.core.simulator import Simulator
    chains = inputs.solo_chains(ctx.seed)
    oc = Outcome()
    setup = setup_seconds("solo", ctx)
    for pts in chains[:10]:                       # warm-up, untimed
        Simulator(pts, engine="kernel", check_invariants=False).run()

    def run_pass(traced: bool) -> Pass:
        if traced:
            import tracer
        lat: List[float] = []
        total: List[float] = []
        fps: Dict[int, Fingerprint] = {}
        t0 = time.perf_counter()
        for i, pts in enumerate(chains):
            if traced:
                tracer.current_id = i
            t = time.perf_counter()
            sim = Simulator(pts, engine="kernel", check_invariants=False)
            t1 = time.perf_counter()
            r = sim.run()
            t2 = time.perf_counter()
            lat.append(t2 - t1)
            total.append(t2 - t)
            fps[i] = fingerprint(r)
        return Pass(time.perf_counter() - t0, lat, fps, per_chain=total)

    passes, traced, summary, spans, base = _passes(ctx, run_pass,
                                                   len(chains), oc)
    rss = vm_hwm_mb()
    check_oracle(chains, passes[0].fps, ctx, 12, oc)
    if traced is not None:
        from layers import per_layer
        oc.layers = per_layer(summary, dict(
            ZERO_EXTRAS, **{"trace.overhead_pct":
                            100 * (traced.wall / base - 1),
                            "trace.spans": spans}))
        return oc
    lats = best_of(passes)
    totals = [min(col) for col in zip(*(p.per_chain for p in passes))]
    assert tail_ok(len(lats), 90)
    oc.e2e = {
        "chains_per_s": len(chains) / sum(totals),
        "latency_p50_ms": 1e3 * percentile(lats, 50),
        "latency_tail_ms": 1e3 * percentile(lats, 90),
        "setup_s": median(setup),
        "peak_rss_mb": rss,
    }
    oc.notes.append(f"solo: {len(chains)} chains x {len(passes)} passes "
                    f"({_secs([p.wall for p in passes])}), best pass per "
                    f"chain; latency_tail_ms is p90 of {len(lats)} chains")
    return oc


def _check_pass(fps: Dict[int, Fingerprint], first: Dict[int, Fingerprint],
                count: int, oc: Outcome) -> None:
    oc.attempted += count
    oc.fail(count - len(fps), "chains missing from the pass")
    oc.fail(sum(1 for fp in fps.values() if not fp[0]), "not gathered")
    oc.fail(sum(1 for i, fp in fps.items() if first.get(i) != fp),
            "fingerprints changed between passes")


# -- stream and scaleout ---------------------------------------------------

def _stream_pass(chains, workers: Optional[int], wal_dir: Optional[str],
                 oc: Outcome):
    """One pass of the chain stream through ``BatchSimulator.run_stream``.

    A chain's latency is the time from the start of the pass, when the
    whole stream is handed over, to its result; its sojourn runs from
    the moment the pipeline pulls it from the input iterator.
    """
    from repro.core.batch import BatchSimulator
    from repro.core.results import ChainOutcome
    n = len(chains)
    pulled = [0.0] * n
    seen = [0] * n
    sojourn = [float("inf")] * n                   # by stream index
    finished = [float("inf")] * n
    fps: Dict[int, Fingerprint] = {}
    order: List[int] = []
    done_at: List[float] = []

    def feed():
        for i, pts in enumerate(chains):
            pulled[i] = time.perf_counter()
            yield pts

    sim = BatchSimulator([], engine="kernel", keep_reports=False,
                         workers=workers)
    wait = 0.0
    t0 = time.perf_counter()
    gen = sim.run_stream(feed(), slots=256, wal_dir=wal_dir,
                         on_error="quarantine")
    while True:
        t = time.perf_counter()
        try:
            idx, payload = next(gen)
        except StopIteration:
            break
        now = time.perf_counter()
        wait += now - t
        seen[idx] += 1
        sojourn[idx] = now - pulled[idx]
        finished[idx] = now - t0
        order.append(idx)
        done_at.append(now - t0)
        if isinstance(payload, ChainOutcome):
            if not payload.ok:
                oc.fail(1, f"chain {idx} quarantined: {payload.error}")
                continue
            payload = payload.result
        fps[idx] = fingerprint(payload)
    wall = time.perf_counter() - t0
    oc.fail(sum(1 for c in seen if c > 1), "chains yielded twice")
    return Pass(wall, array("d", finished), fps, wait=wait,
                sojourn=array("d", sojourn),
                stats=sim.last_stream_stats or {}, order=array("q", order),
                done_at=array("d", done_at))


def _wal_counts(wal_dir: str) -> Tuple[int, int]:
    """(log bytes, log records) of a finished stream's WAL."""
    from repro.io.wal import LOG_NAME
    path = os.path.join(wal_dir, LOG_NAME)
    with open(path, "rb") as fh:
        records = sum(1 for _ in fh)
    return os.path.getsize(path), records


def _wal_counts(wal_dir: str) -> Tuple[int, int]:
    """(log bytes, log records) of a finished stream's WAL."""
    from repro.io.wal import LOG_NAME
    path = os.path.join(wal_dir, LOG_NAME)
    with open(path, "rb") as fh:
        records = sum(1 for _ in fh)
    return os.path.getsize(path), records


def _streaming(ctx: Context, workers: Optional[int], wal: bool) -> Outcome:
    chains = inputs.stream_chains(ctx.seed)
    oc = Outcome()
    setup = setup_seconds("scaleout" if workers else "stream", ctx)
    wal_root = os.path.join(ctx.out, "wal")
    counter = iter(range(1 << 30))

    def run_pass(traced: bool, subset=chains) -> Pass:
        wal_dir = os.path.join(wal_root, str(next(counter))) if wal else None
        self0 = cpu_seconds(resource.RUSAGE_SELF)
        kids0 = cpu_seconds(resource.RUSAGE_CHILDREN)
        ps = _stream_pass(subset, workers, wal_dir, oc)
        _reap_children()
        ps.cpu = (cpu_seconds(resource.RUSAGE_SELF) - self0,
                  cpu_seconds(resource.RUSAGE_CHILDREN) - kids0)
        if wal:
            ps.wal = _wal_counts(wal_dir)
            shutil.rmtree(wal_dir)
        return ps

    run_pass(False, chains[:1000])                   # warm-up, untimed
    passes, traced, summary, spans, base = _passes(ctx, run_pass,
                                                   len(chains), oc)
    rss = vm_hwm_mb()
    check_oracle(chains, passes[0].fps, ctx, 32, oc)
    if traced is not None:
        from layers import per_layer
        # counters taken from outside come from an untraced pass
        u = passes[0]
        oc.layers = per_layer(summary, dict(
            ZERO_EXTRAS, **{
                "arena.topo_rebuilds": u.stats.get("topo_rebuilds", 0),
                "arena.compactions": u.stats.get("compactions", 0),
                "wal.bytes": u.wal[0], "wal.records": u.wal[1],
                "batch.wait_s": u.wait,
                "batch.sojourn_ms.p50": 1e3 * percentile(u.sojourn, 50),
                "batch.sojourn_ms.p99": 1e3 * percentile(u.sojourn, 99),
                "supervisor.parent_cpu_s": u.cpu[0] if workers else 0.0,
                "supervisor.worker_cpu_s": u.cpu[1],
                "supervisor.worker_util": (u.cpu[1] / (workers * u.wall)
                                           if workers else 0.0),
                "trace.overhead_pct": 100 * (traced.wall / base - 1),
                "trace.spans": spans,
            }))
        oc.notes.append(f"traced pass: {len(chains)} chains attempted")
        return oc
    # latency is the wait of a caller who hands over the whole stream;
    # the sojourn is no end-to-end metric because the pool returns
    # results per 512-chain chunk, which puts its median on a chunk
    # boundary at this stream length
    assert tail_ok(len(chains), 99)
    wall = composite_wall(passes) or min(p.wall for p in passes)
    oc.e2e = {
        "chains_per_s": len(passes[0].fps) / wall,
        "latency_p50_ms": 1e3 * min(percentile(p.latencies, 50)
                                    for p in passes),
        "latency_tail_ms": 1e3 * min(percentile(p.latencies, 99)
                                     for p in passes),
        "setup_s": median(setup),
        "peak_rss_mb": rss,
    }
    oc.notes.append(
        f"{ctx.workload}: {len(chains)} chains x {len(passes)} passes "
        f"({_secs([p.wall for p in passes])}), best of them "
        f"{wall:.2f} s; latency runs from the start of the pass to each "
        f"result, best pass, latency_tail_ms is p99 of {len(chains)} "
        f"chains")
    if wal:
        oc.notes.append(f"wal: {passes[0].wal[0]} bytes, {passes[0].wal[1]} "
                        f"records per pass")
    return oc


def stream(ctx: Context) -> Outcome:
    """~4000 mixed chains, in-process fleet with WAL and quarantine."""
    return _streaming(ctx, None, wal=True)


def scaleout(ctx: Context) -> Outcome:
    """The same stream over the supervised two-worker pickling pool."""
    return _streaming(ctx, 2, wal=False)
