"""Span tracing around the program's public functions, from outside.

:func:`install` replaces each function listed by :func:`_layers` with a
timing wrapper, in the namespace its caller looks it up in (a module
global for module-level functions, the class for methods).  Nothing in
the program is edited.  Each call records one span: name, start, end,
parent span (the innermost enclosing span on the same thread), an
optional chain/request id and an optional item count (cells, chains or
bytes the call handled).  Generator methods record one span per
resumption.  Spans stay in per-thread arrays in memory and are written
once, by :func:`dump`, as one ``.npz`` file per process.

Forked children (the scale-out pool's workers) inherit the wrappers;
an after-fork hook clears their copy of the parent's spans and
registers a dump at worker exit, so worker-side spans are kept too.

Untraced runs never call :func:`install`, so they run the program
exactly as shipped; :func:`uninstall` puts the originals back.
"""

from __future__ import annotations

import os
import threading
from array import array
from time import perf_counter
from typing import Callable, Dict, List, Optional

import numpy as np

#: id of the chain or request the benchmark is currently driving (set
#: by the solo loop; -1 when a call serves many chains at once)
current_id = -1


class _Buffer:
    __slots__ = ("name", "start", "end", "parent", "ident", "items",
                 "stack")

    def __init__(self) -> None:
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.ident = array("q")
        self.items = array("q")
        self.stack: List[int] = []


class Recorder:
    """Per-thread span buffers plus the name table."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self._local = threading.local()
        self._buffers: List[_Buffer] = []
        self._lock = threading.Lock()

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = self._local.buf = _Buffer()
            with self._lock:
                self._buffers.append(buf)
        return buf

    def reset(self) -> None:
        """Forget every span (after fork: the parent keeps its own)."""
        self._local = threading.local()
        self._buffers = []
        self._lock = threading.Lock()

    def arrays(self) -> Dict[str, np.ndarray]:
        """All spans as flat arrays; parents re-indexed globally."""
        cols = {k: [] for k in ("name", "start", "end", "parent", "ident",
                                "items")}
        offset = 0
        for buf in list(self._buffers):
            n = len(buf.end)
            parent = np.frombuffer(buf.parent, dtype=np.int32)[:n]
            parent = np.where(parent >= 0, parent + offset, -1)
            cols["parent"].append(parent.astype(np.int64))
            for key in ("name", "start", "end", "ident", "items"):
                cols[key].append(np.frombuffer(getattr(buf, key),
                                               dtype=_DTYPES[key])[:n])
            offset += n
        out = {k: (np.concatenate(v) if v else np.empty(0, _DTYPES[k]))
               for k, v in cols.items()}
        out["names"] = np.array(self.names, dtype=str)
        return out


_DTYPES = {"name": np.int32, "start": np.float64, "end": np.float64,
           "parent": np.int64, "ident": np.int64, "items": np.int64}

RECORDER = Recorder()


def _open(buf: _Buffer, nid: int, ident: int) -> int:
    idx = len(buf.start)
    buf.name.append(nid)
    buf.parent.append(buf.stack[-1] if buf.stack else -1)
    buf.ident.append(ident)
    buf.items.append(0)
    buf.end.append(0.0)
    buf.stack.append(idx)
    buf.start.append(perf_counter())
    return idx


def _close(buf: _Buffer, idx: int, items: int) -> None:
    buf.end[idx] = perf_counter()
    buf.stack.pop()
    buf.items[idx] = items


def wrap(fn: Callable, name: str,
         ident: Optional[Callable] = None,
         items: Optional[Callable] = None) -> Callable:
    """A span-recording stand-in for ``fn``.

    ``ident(args, kwargs, result)`` and ``items(args, kwargs, result)``
    (when given) fill the span's id and item count.
    """
    nid = RECORDER.name_id(name)
    buffer = RECORDER.buffer

    def traced(*args, **kwargs):
        buf = buffer()
        idx = _open(buf, nid, current_id)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            _close(buf, idx, items(args, kwargs, result) if items else 0)
            if ident is not None:
                buf.ident[idx] = ident(args, kwargs, result)

    traced.__wrapped__ = fn
    return traced


def wrap_generator(fn: Callable, name: str) -> Callable:
    """Like :func:`wrap` for a generator function: one span per step."""
    nid = RECORDER.name_id(name)
    buffer = RECORDER.buffer

    def traced(*args, **kwargs):
        gen = fn(*args, **kwargs)
        try:
            while True:
                buf = buffer()
                idx = _open(buf, nid, current_id)
                try:
                    item = next(gen)
                except StopIteration as stop:
                    return stop.value
                finally:
                    _close(buf, idx, 0)
                yield item
        finally:
            gen.close()

    traced.__wrapped__ = fn
    return traced


# -- the layers ---------------------------------------------------------

def _len_first(args, kwargs, result) -> int:
    return len(args[0])


def _len_second(args, kwargs, result) -> int:
    # methods: args[0] is the instance
    return len(args[1])


def _n_result(args, kwargs, result) -> int:
    return len(result) if result is not None else 0


def _topology_cells(args, kwargs, result) -> int:
    return len(result[0]) if result is not None else 0


def _payload_bytes(args, kwargs, result) -> int:
    import pickle
    return len(pickle.dumps(args[1:], protocol=pickle.HIGHEST_PROTOCOL))


def _submit_seq(args, kwargs, result) -> int:
    return int(args[2])


def _take_seq(args, kwargs, result) -> int:
    owner = args[0].owners[-1] if result is not None else None
    return owner[1] if owner else -1


def _layers():
    """(span name, namespace, attribute, ident fn, items fn, generator?)."""
    from concurrent.futures import ProcessPoolExecutor
    import repro.core.engine_fleet as fleet
    import repro.service.protocol as protocol
    import repro.service.server as server
    from repro.core.arena import ChainArena
    from repro.core.chain import ClosedChain
    from repro.core.engine_fleet import FleetKernel
    from repro.core.runs import RunRegistry
    from repro.core.simulator import Simulator
    from repro.io.wal import WalWriter
    from repro.service.queue import FairAdmissionQueue
    return [
        ("engine_fleet.run", Simulator, "run", None, None, False),
        ("engine_fleet.run_stream", FleetKernel, "run_stream", None, None,
         True),
        ("engine_fleet.parse_burst", fleet, "parse_burst", None, _len_first,
         False),
        ("decisions.scalar", fleet, "decide_and_apply_scalar", None, None,
         False),
        ("decisions.fleet", fleet, "decide_and_apply_fleet", None, None,
         False),
        ("merges.detect", fleet, "find_merge_patterns_np", None, None,
         False),
        ("merges.plan", fleet, "plan_merges_arrays", None, None, False),
        ("chain.apply_moves", ClosedChain, "apply_moves_indexed", None,
         _len_second, False),
        ("arena.apply_moves", ChainArena, "apply_moves", None, _len_second,
         False),
        ("arena.topology", ChainArena, "topology", None, _topology_cells,
         False),
        ("arena.reserve", ChainArena, "reserve_batch", None, _n_result,
         False),
        ("arena.attach", ChainArena, "attach_batch", None, _len_second, False),
        ("arena.retire", ChainArena, "retire_batch", None, _len_second, False),
        ("runs.advance", RunRegistry, "advance_fleet", None, None, False),
        ("runs.advance", RunRegistry, "advance_active", None, None, False),
        ("runs.start", RunRegistry, "start_fleet_bulk", None, None, False),
        ("runs.stop", RunRegistry, "stop_slots", None, None, False),
        ("runs.stop", RunRegistry, "drop_slots", None, None, False),
        ("wal.append", WalWriter, "append", None, None, False),
        ("wal.snapshot", WalWriter, "write_snapshot", None, None, False),
        ("supervisor.submit", ProcessPoolExecutor, "submit", None,
         _payload_bytes, False),
        ("protocol.decode_line", protocol, "decode_line", None, _len_first,
         False),
        ("protocol.encode_frame", server, "encode_frame", None, _n_result,
         False),
        ("protocol.parse_positions", server, "parse_positions", None,
         _n_result, False),
        ("queue.submit", FairAdmissionQueue, "submit", _submit_seq, None,
         False),
        ("queue.take", FairAdmissionQueue, "take", _take_seq, None, False),
    ]


#: (namespace, attribute, original) of every installed wrapper
_installed: List[tuple] = []


def install() -> None:
    """Wrap every layer function; register the worker dump hook."""
    if _installed:
        return
    for name, owner, attr, ident, items, is_gen in _layers():
        fn = getattr(owner, attr)
        wrapped = (wrap_generator(fn, name) if is_gen
                   else wrap(fn, name, ident, items))
        _installed.append((owner, attr, fn))
        setattr(owner, attr, wrapped)
    from multiprocessing import util
    util.register_after_fork(RECORDER, _after_fork)


def uninstall() -> None:
    """Put every original function back; recorded spans are kept."""
    while _installed:
        owner, attr, fn = _installed.pop()
        setattr(owner, attr, fn)


def _after_fork(recorder: Recorder) -> None:
    # a forked worker starts with an empty trace and dumps at its exit
    from multiprocessing import util
    if not _installed:
        return
    recorder.reset()
    out_dir = os.environ.get("PERFBENCH_TRACE_DIR")
    if out_dir:
        util.Finalize(recorder, dump, args=(
            os.path.join(out_dir, f"trace-{os.getpid()}.npz"),),
            exitpriority=10)


def dump(path: str) -> None:
    """Write this process's spans once, as compressed arrays."""
    np.savez(path, **RECORDER.arrays())


# -- analysis -----------------------------------------------------------

def load(paths: List[str]) -> Dict[str, np.ndarray]:
    """Merge span files of several processes into one span table."""
    parts = []
    for p in paths:
        with np.load(p) as z:
            parts.append({k: z[k] for k in z.files})
    names: List[str] = sorted({str(n) for part in parts
                               for n in part["names"]})
    index = {n: i for i, n in enumerate(names)}
    cols = {k: [] for k in ("name", "start", "end", "parent", "ident",
                            "items")}
    offset = 0
    for part in parts:
        remap = np.array([index[str(n)] for n in part["names"]] or [0],
                         dtype=np.int32)
        cols["name"].append(remap[part["name"]])
        parent = part["parent"]
        cols["parent"].append(np.where(parent >= 0, parent + offset, -1))
        for key in ("start", "end", "ident", "items"):
            cols[key].append(part[key])
        offset += len(part["end"])
    out = {k: (np.concatenate(v) if v else np.empty(0, _DTYPES[k]))
           for k, v in cols.items()}
    out["names"] = names
    return out


def summarize(spans: Dict[str, np.ndarray]) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, busy (wall) seconds, self seconds, items.

    A span's self time is its duration minus the durations of its
    direct children (children nest inside their parent on one thread).
    """
    dur = spans["end"] - spans["start"]
    parent = spans["parent"]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent],
                        minlength=len(dur))
    self_time = dur - child
    out: Dict[str, Dict[str, float]] = {}
    for i, name in enumerate(spans["names"]):
        sel = spans["name"] == i
        out[name] = {"calls": int(sel.sum()),
                     "busy_s": float(dur[sel].sum()),
                     "self_s": float(self_time[sel].sum()),
                     "items": int(spans["items"][sel].sum())}
    return out
