"""Per-layer ledger built by wrapping the program's public functions.

Nothing under ``src/`` is edited.  For a traced pass the benchmark replaces
selected module functions and class methods with thin wrappers and puts
the originals back afterwards.  Each wrapper records a span on a
per-thread stack -- wall time (``perf_counter``) and thread CPU time
(``thread_time``) -- and subtracts its child spans to get self time, so a
layer's row never double-counts the layers it calls.

:func:`ledger_rows` turns two snapshots into CPU microseconds per op: one
row per layer (self time summed over every thread), one row per thread
role for the thread's time outside any span (the generator loop, the
dispatcher and shard loops, the supervisor), and an ``other`` row for the
process CPU no live thread accounts for.  The rows add up to the process
CPU of the window by construction; :func:`check_closure` verifies that no
role's spans claim more CPU than its threads used.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import defaultdict

#: (module, class or None, attribute, layer) of every wrapped frame-path call.
FRAME_LAYERS = (
    ("repro.vision.background", "BackgroundSubtractor", "apply", "vision.background"),
    ("repro.pipeline.system", None, "binary_open", "vision.morphology"),
    ("repro.pipeline.system", None, "binary_close", "vision.morphology"),
    ("repro.vision.connected_components", "ConnectedComponentLabeller", "label",
     "vision.connected_components"),
    ("repro.pipeline.system", None, "extract_blobs", "vision.blobs"),
    ("repro.pipeline.system", None, "filter_blobs_by_area", "vision.blobs"),
    ("repro.vision.tracker", "ObjectTracker", "update", "vision.tracker"),
    ("repro.pipeline.system", None, "rgb_histogram_batch", "signatures.histogram"),
    ("repro.signatures.binarize", "MeanThreshold", "binarize_batch", "signatures.binarize"),
    ("repro.core.classifier", "SomClassifier", "predict_batch", "core.classifier"),
    # predict_batch's zeros-and-ones check: the validate half of validate+pack.
    ("repro.core.classifier", None, "validate_binary_matrix", "signatures.packing"),
    ("repro.pipeline.system", "RecognitionSystem", "process_frame", "pipeline.system"),
)

_METRIC_RECORDERS = (
    "record_request", "record_response", "record_cache", "record_dedup",
    "record_batch", "record_swap", "record_backpressure",
)

#: Wrapped serve-path calls.  Completion (``_on_batch_done``) is bound when
#: the service is built, so wrappers go in before ``api.serve``.
SERVE_LAYERS = (
    ("repro.serve.service", None, "packed_signature_words", "signatures.packing"),
    ("repro.serve.service", "StreamingInferenceService", "submit", "serve.service"),
    ("repro.serve.service", "StreamingInferenceService", "_on_batch_done", "serve.request"),
    ("repro.serve.service", None, "resolve_requests", "serve.request"),
    ("repro.serve.service", None, "resolve_follower", "serve.request"),
    ("repro.serve.cache", "SignatureLruCache", "get", "serve.cache"),
    ("repro.serve.cache", "SignatureLruCache", "put", "serve.cache"),
    ("repro.serve.cache", "SignatureLruCache", "invalidate_model", "serve.cache"),
    ("repro.serve.batching", "MicroBatchScheduler", "submit", "serve.batching"),
    ("repro.serve.registry", "ModelRegistry", "submit", "serve.registry"),
    ("repro.serve.registry", "ModelRegistry", "resolve", "serve.registry"),
    ("repro.serve.registry", "ModelRegistry", "classifier", "serve.registry"),
    ("repro.serve.registry", "ModelRegistry", "swap", "serve.registry"),
    ("repro.core.classifier", "SomClassifier", "predict_batch_packed", "core.classifier"),
    *(("repro.serve.metrics", "ServiceMetrics", name, "serve.metrics")
      for name in _METRIC_RECORDERS),
    ("repro.obs.trace", "Tracer", "start", "obs.trace"),
    *(("repro.obs.trace", "Trace", name, "obs.trace")
      for name in ("begin", "end", "span", "finish")),
    ("repro.obs.trace", "Span", "add_link", "obs.trace"),
)

#: Row order of the printed ledger (layers absent from a workload read 0).
LEDGER_ROWS = (
    "loadgen", "pipeline.system", "vision.background", "vision.morphology",
    "vision.connected_components", "vision.blobs", "vision.tracker",
    "signatures.histogram", "signatures.binarize", "signatures.packing",
    "core.classifier", "serve.service", "serve.cache", "serve.batching",
    "serve.registry", "serve.dispatcher", "serve.shard", "serve.request",
    "serve.metrics", "serve.resilience", "obs.trace",
)


def thread_role(name: str) -> str:
    """Ledger row that owns a thread's time outside every span."""
    if name == "shard-supervisor":
        return "serve.resilience"
    if name.startswith("shard-"):
        return "serve.shard"
    if name == "serve-dispatcher":
        return "serve.dispatcher"
    if name == "MainThread":
        return "loadgen"
    return "other"


class _Book:
    """One thread's span stack and accumulators (written by that thread only)."""

    __slots__ = ("name", "stack", "acc")

    def __init__(self, name: str):
        self.name = name
        self.stack: list[list[float]] = []
        # "layer:function" -> [calls, wall, cpu, self_wall, self_cpu]
        self.acc: dict[str, list[float]] = {}


class Ledger:
    """Installs span wrappers and sums their per-thread accumulators."""

    def __init__(self):
        self._local = threading.local()
        self._books: list[_Book] = []
        self._books_lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        self._hooks: dict[str, object] = {}

    def on_return(self, key: str, hook) -> None:
        """Call ``hook(args, result)`` after each call of ``"layer:function"``."""
        self._hooks[key] = hook

    def _book(self) -> _Book:
        book = getattr(self._local, "book", None)
        if book is None:
            book = _Book(threading.current_thread().name)
            self._local.book = book
            with self._books_lock:
                self._books.append(book)
        return book

    def install(self, layers) -> "Ledger":
        for module_name, class_name, attribute, layer in layers:
            module = importlib.import_module(module_name)
            owner = module if class_name is None else getattr(module, class_name)
            original = vars(owner)[attribute]
            key = f"{layer}:{attribute}"
            wrapper = self._wrap(original, key, self._hooks.get(key))
            self._patches.append((owner, attribute, original))
            setattr(owner, attribute, wrapper)
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def _wrap(self, fn, key: str, hook):
        book_of = self._book
        wall, cpu = time.perf_counter, time.thread_time

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            book = book_of()
            stack = book.stack
            frame = [0.0, 0.0]
            stack.append(frame)
            w0, c0 = wall(), cpu()
            try:
                result = fn(*args, **kwargs)
            finally:
                w, c = wall() - w0, cpu() - c0
                stack.pop()
                rec = book.acc.get(key)
                if rec is None:
                    rec = book.acc[key] = [0, 0.0, 0.0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += w
                rec[2] += c
                rec[3] += w - frame[0]
                rec[4] += c - frame[1]
                if stack:
                    parent = stack[-1]
                    parent[0] += w
                    parent[1] += c
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    def snapshot(self) -> dict:
        """``(thread name, "layer:function") -> [calls, wall, cpu, self_wall, self_cpu]``."""
        with self._books_lock:
            books = list(self._books)
        out = {}
        for book in books:
            for key, rec in list(book.acc.items()):
                slot = out.setdefault((book.name, key), [0, 0.0, 0.0, 0.0, 0.0])
                for i, value in enumerate(rec):
                    slot[i] += value
        return out


def window(before: dict, after: dict) -> dict:
    """Accumulator deltas between two :meth:`Ledger.snapshot` results."""
    out = {}
    for key, rec in after.items():
        start = before.get(key, (0, 0.0, 0.0, 0.0, 0.0))
        out[key] = [end - begin for end, begin in zip(rec, start)]
    return out


def by_function(spans: dict) -> dict:
    """Sum a window over threads: ``"layer:function" -> [calls, wall, cpu, ...]``."""
    out: dict[str, list[float]] = {}
    for (_thread, key), rec in spans.items():
        slot = out.setdefault(key, [0, 0.0, 0.0, 0.0, 0.0])
        for i, value in enumerate(rec):
            slot[i] += value
    return out


def layer_self(spans: dict, index: int = 4) -> dict:
    """Self time per layer (CPU by default, wall with ``index=3``)."""
    out: dict[str, float] = defaultdict(float)
    for (_thread, key), rec in spans.items():
        out[key.split(":", 1)[0]] += rec[index]
    return out


def ledger_rows(spans: dict, thread_cpu: dict, process_cpu_s: float, n_ops: int) -> dict:
    """CPU microseconds per op for every ledger row, plus ``other`` and ``total``.

    ``thread_cpu`` is :func:`common.thread_cpu_delta` over the same window
    as ``spans``; each thread's CPU outside spans is charged to its role.
    """
    rows = {name: 0.0 for name in LEDGER_ROWS}
    attributed: dict[str, float] = defaultdict(float)
    for (thread, key), rec in spans.items():
        layer = key.split(":", 1)[0]
        rows[layer] = rows.get(layer, 0.0) + rec[4]
        attributed[thread_role(thread)] += rec[4]
    threads_total = 0.0
    for name, cpu in thread_cpu.values():
        role = thread_role(name)
        threads_total += cpu
        rows[role] = rows.get(role, 0.0) + cpu
    for role, cpu in attributed.items():
        rows[role] -= cpu
    rows["other"] = rows.get("other", 0.0) + process_cpu_s - threads_total
    scale = 1e6 / max(n_ops, 1)
    out = {name: value * scale for name, value in rows.items()}
    out["total"] = process_cpu_s * scale
    return out


def check_closure(rows: dict, tolerance: float = 0.02) -> list[str]:
    """Problems with a ledger: rows not summing to total, or negative remainders.

    A negative role row means spans in those threads claimed more CPU than
    the threads used -- a double count.  Clock reads of different threads
    are not simultaneous, so a small negative value is tolerated.
    """
    problems = []
    total = rows["total"]
    summed = sum(value for name, value in rows.items() if name != "total")
    if abs(summed - total) > 1e-6 * max(abs(total), 1.0):
        problems.append(f"rows sum to {summed:.3f}, total is {total:.3f}")
    for name, value in rows.items():
        if name != "total" and value < -tolerance * abs(total):
            problems.append(f"row {name} is negative: {value:.3f}")
    return problems
