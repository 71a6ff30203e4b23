"""Span recording for the traced run, done entirely from outside the program.

The program has no wall-clock spans of its own (``repro.obs`` records modelled
time only), so the traced run wraps the program's layer boundaries here:
module functions are replaced *where they are imported* (``from x import f``
binds a second name that patching ``x.f`` would miss), methods are replaced on
their class, and ``install()`` / ``uninstall()`` swap every wrapper in and out
so untraced rounds run the original code.

A span is ``[name, start, end, parent, attrs]``.  Each thread keeps its own
span list and stack, so spans of the vectorized engine's pivot thread pool
never nest under whatever the main thread had open.  A layer's self time is
its span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import os
import pickle
import threading
from time import perf_counter, thread_time
from typing import Any, Dict, List, Optional, Tuple

#: Module functions, wrapped at every module that imports them.
#: ``canonical_encode`` recurses through its own module's global, which is
#: left unwrapped, so only outermost encode calls become spans.
FUNCTIONS = [
    ("repro.consensus.commitment", "canonical_encode", "serialization.encode"),
    ("repro.consensus.bit_encoding", "canonical_encode", "serialization.encode"),
    ("repro.net", "canonical_encode", "serialization.encode"),
    ("repro.net.network", "estimate_size", "serialization.size"),
    ("repro.net.message", "estimate_size", "serialization.size"),
    ("repro.net", "estimate_size", "serialization.size"),
    ("repro.consensus.rational_consensus", "majority_decision", "consensus.vote"),
    ("repro.consensus.multi_consensus", "majority_decision", "consensus.vote"),
    ("repro.auctions.engine.vectorized", "batch_greedy_assignments", "engine.greedy"),
    ("repro.auctions.engine.vectorized", "fast_local_search", "engine.local_search"),
]

#: Methods, wrapped on the class that defines them.
METHODS = [
    ("repro.consensus.commitment", "CommitmentScheme", "digest_of", "consensus.digest"),
    ("repro.net.network", "SimNetwork", "run", "net.run"),
    ("repro.net.protocol", "ProtocolNode", "on_start", "core.host"),
    ("repro.net.protocol", "ProtocolNode", "on_message", "core.host"),
    ("repro.runtime.bidder", "BidderNode", "on_start", "runtime.handler"),
    ("repro.runtime.bidder", "BidderNode", "on_message", "runtime.handler"),
    ("repro.runtime.provider", "CollectingProviderNode", "on_start", "runtime.handler"),
    ("repro.runtime.provider", "CollectingProviderNode", "on_message", "runtime.handler"),
    ("repro.auctions.double_auction", "DoubleAuction", "run", "auctions.solve"),
    ("repro.auctions.standard_auction", "StandardAuction", "run", "auctions.solve"),
    ("repro.auctions.standard_auction", "StandardAuction", "solve_allocation", "auctions.solve"),
    ("repro.auctions.standard_auction", "StandardAuction", "payments_for_users", "auctions.solve"),
    ("repro.auctions.standard_auction", "StandardAuction", "assemble", "auctions.solve"),
    ("repro.auctions.engine.vectorized", "VectorizedStandardAuction", "solve_allocation", "auctions.solve"),
    ("repro.auctions.base", "Allocation", "user_total", "auctions.totals"),
    ("repro.auctions.base", "Allocation", "provider_total", "auctions.totals"),
    ("repro.auctions.engine.pivot", "PivotExecutor", "pivot_welfares", "engine.pivot"),
    ("repro.scenarios.store", "ResultsStore", "append", "store.append"),
    ("repro.scenarios.chaos", "ChaosContext", "run_cell", "scenarios.cell"),
]

#: The public entry points: one root span per round, carrying its NetworkStats.
ENTRIES = [
    ("repro.core.framework", "DistributedAuctioneer", "run_from_bids"),
    ("repro.runtime.auction_run", "AuctionRun", "execute"),
]

#: Generator functions of the chaos grid; each ``next()`` is one span.
GENERATORS = [
    ("repro.scenarios.chaos_parallel", "execute_parallel", "dispatch.wait"),
    ("repro.scenarios.chaos", "execute_cells", "dispatch.wait"),
]

#: Modules whose ProtocolBlock subclasses get their handlers wrapped.
BLOCK_MODULES = [
    "repro.core.provider_protocol",
    "repro.core.bid_agreement",
    "repro.core.input_validation",
    "repro.core.common_coin",
    "repro.core.allocator",
    "repro.core.data_transfer",
    "repro.consensus.multi_consensus",
    "repro.consensus.rational_consensus",
    "repro.consensus.leader_election",
]

#: Protocol block families, keyed by the block-path segment that names them.
BLOCK_FAMILIES = {
    "framework": "framework",
    "ba": "bid_agreement",
    "iv": "input_validation",
    "coin": "common_coin",
    "alloc": "allocator",
}
CORE_BLOCKS = ("bid_agreement", "input_validation", "common_coin", "allocator", "data_transfer")


def block_family(path: str) -> Optional[str]:
    """The paper's building block a block path (or message tag path) belongs to."""
    for segment in reversed(path.split("/")):
        if segment.startswith("dt:"):
            return "data_transfer"
        family = BLOCK_FAMILIES.get(segment)
        if family is not None:
            return family
    return None


class _Buffer:
    """One thread's spans.  Pool threads time with their own CPU clock: their
    wall time would include waiting for the interpreter lock."""

    __slots__ = ("stack", "spans", "main", "clock")

    def __init__(self) -> None:
        self.stack: List[int] = []
        self.spans: List[list] = []
        self.main = threading.current_thread() is threading.main_thread()
        self.clock = perf_counter if self.main else thread_time


class Recorder:
    """Installs the wrappers and collects the spans they record."""

    def __init__(self) -> None:
        self._tls = threading.local()
        self._buffers: List[_Buffer] = []
        self._lock = threading.Lock()
        self._patches: List[Tuple[Any, str, Any]] = []
        self._families: Dict[str, str] = {}
        self.parent_pid = os.getpid()
        self.worker_dir: Optional[str] = None
        self._worker_files = 0

    # -- recording -------------------------------------------------------------
    def _buffer(self) -> _Buffer:
        buf = getattr(self._tls, "buf", None)
        if buf is None:
            buf = _Buffer()
            self._tls.buf = buf
            with self._lock:
                self._buffers.append(buf)
        return buf

    # The wrappers below repeat the span open/close inline rather than call a
    # shared helper: a fig4 round records ~30k spans, and an extra call per
    # span would show up as tracing overhead.
    def _wrap(self, fn, name: str, entry: bool = False):
        buffer = self._buffer

        def wrapper(*args, **kwargs):
            buf = buffer()
            stack = buf.stack
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(buf.spans))
            buf.spans.append(rec)
            clock = buf.clock
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
                if entry:
                    rec[4] = stats_summary(result.stats)
                return result
            finally:
                rec[2] = clock()
                stack.pop()

        return functools.update_wrapper(wrapper, fn)

    def _wrap_block(self, fn):
        buffer = self._buffer
        families = self._families

        def wrapper(block, ctx, *args, **kwargs):
            name = families.get(ctx.path)
            if name is None:
                name = families[ctx.path] = f"core.{block_family(ctx.path) or 'other'}"
            buf = buffer()
            stack = buf.stack
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(buf.spans))
            buf.spans.append(rec)
            clock = buf.clock
            rec[1] = clock()
            try:
                return fn(block, ctx, *args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        return functools.update_wrapper(wrapper, fn)

    def _wrap_generator(self, fn, name: str):
        buffer = self._buffer

        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            try:
                while True:
                    buf = buffer()
                    stack = buf.stack
                    rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
                    stack.append(len(buf.spans))
                    buf.spans.append(rec)
                    clock = buf.clock
                    rec[1] = clock()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        rec[2] = clock()
                        stack.pop()
                    yield item
            finally:
                inner.close()

        return functools.update_wrapper(wrapper, fn)

    def _wrap_chunk(self, fn):
        """Pool-worker chunk body: record in the worker, then write the spans out."""
        traced = self._wrap(fn, "scenarios.chunk")
        recorder = self

        def wrapper(*args, **kwargs):
            if os.getpid() == recorder.parent_pid or recorder.worker_dir is None:
                return fn(*args, **kwargs)
            # A forked worker inherits the parent's buffers: start clean.
            recorder._tls = threading.local()
            recorder._buffers = []
            try:
                return traced(*args, **kwargs)
            finally:
                recorder._dump_worker_spans()

        return functools.update_wrapper(wrapper, fn)

    def _dump_worker_spans(self) -> None:
        self._worker_files += 1
        path = os.path.join(self.worker_dir, f"{os.getpid()}-{self._worker_files}.pickle")
        with open(path, "wb") as handle:
            pickle.dump(self.drain(), handle, protocol=pickle.HIGHEST_PROTOCOL)

    def load_worker_spans(self) -> List[Tuple[bool, List[list]]]:
        """Read and delete the span files this run's pool workers wrote."""
        if self.worker_dir is None or not os.path.isdir(self.worker_dir):
            return []
        out: List[Tuple[bool, List[list]]] = []
        for name in sorted(os.listdir(self.worker_dir)):
            path = os.path.join(self.worker_dir, name)
            with open(path, "rb") as handle:
                out.extend(pickle.load(handle))
            os.remove(path)
        return out

    def drain(self) -> List[Tuple[bool, List[list]]]:
        """Hand over every thread's finished spans as ``(is_main, spans)``."""
        with self._lock:
            drained = []
            for buf in self._buffers:
                if buf.stack:
                    raise RuntimeError("drain() called while a span is still open")
                if buf.spans:
                    drained.append((buf.main, buf.spans))
                    buf.spans = []
            return drained

    # -- patching --------------------------------------------------------------
    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        if self._patches:
            return
        for module_name, attr, name in FUNCTIONS:
            module = importlib.import_module(module_name)
            self._patch(module, attr, self._wrap(getattr(module, attr), name))
        for module_name, cls_name, attr, name in METHODS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, staticmethod):
                self._patch(cls, attr, staticmethod(self._wrap(raw.__func__, name)))
            else:
                self._patch(cls, attr, self._wrap(raw, name))
        for module_name, cls_name, attr in ENTRIES:
            cls = getattr(importlib.import_module(module_name), cls_name)
            self._patch(cls, attr, self._wrap(cls.__dict__[attr], "round", entry=True))
        for module_name, attr, name in GENERATORS:
            module = importlib.import_module(module_name)
            self._patch(module, attr, self._wrap_generator(getattr(module, attr), name))
        chunk_module = importlib.import_module("repro.scenarios.chaos_parallel")
        self._patch(chunk_module, "execute_chunk", self._wrap_chunk(chunk_module.execute_chunk))
        grid_module = importlib.import_module("repro.scenarios.chaos")
        self._patch(grid_module, "run_chaos", self._wrap(grid_module.run_chaos, "scenarios.grid"))
        for cls in _block_classes():
            for attr in ("on_start", "on_message", "on_timer"):
                if attr in cls.__dict__:
                    self._patch(cls, attr, self._wrap_block(cls.__dict__[attr]))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _block_classes() -> List[type]:
    from repro.net.protocol import ProtocolBlock

    for module_name in BLOCK_MODULES:
        importlib.import_module(module_name)
    found, todo = [], list(ProtocolBlock.__subclasses__())
    while todo:
        cls = todo.pop()
        if cls not in found:
            found.append(cls)
            todo.extend(cls.__subclasses__())
    return sorted(found, key=lambda cls: (cls.__module__, cls.__qualname__))


def stats_summary(stats) -> Optional[Dict[str, Any]]:
    """The exact counts of one round's NetworkStats."""
    if stats is None:
        return None
    return {
        "msgs": stats.messages_delivered,
        "bytes": stats.bytes_delivered,
        "retransmissions": stats.retransmissions,
        "faults_injected": stats.faults_injected,
        "by_tag": dict(stats.messages_by_tag),
    }


class LayerTotals:
    """Per-span-name calls and self time, summed over the rounds added."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = {}
        self.self_s: Dict[str, float] = {}
        self.total_s: Dict[str, float] = {}
        self.main_self_s: Dict[str, float] = {}
        self.root_s = 0.0
        self.offthread_s = 0.0
        self.spans = 0
        self.rounds: List[Dict[str, Any]] = []

    def add(self, buffers) -> None:
        """Fold one unit of work's spans (``(is_main, spans)`` pairs) in."""
        for main, spans in buffers:
            child = [0.0] * len(spans)
            for name, start, end, parent, attrs in spans:
                if parent >= 0:
                    child[parent] += end - start
                elif main:
                    self.root_s += end - start
                else:
                    self.offthread_s += end - start
                if name == "round" and attrs is not None:
                    self.rounds.append(attrs)
            for index, (name, start, end, _parent, _attrs) in enumerate(spans):
                own = end - start - child[index]
                self.calls[name] = self.calls.get(name, 0) + 1
                self.total_s[name] = self.total_s.get(name, 0.0) + end - start
                self.self_s[name] = self.self_s.get(name, 0.0) + own
                if main:
                    self.main_self_s[name] = self.main_self_s.get(name, 0.0) + own
            self.spans += len(spans)
