"""``serve_unique`` and ``serve_hot``: open-loop Poisson arrivals into ``api.serve``.

One generator thread replays a seeded schedule against a service built
with the default :class:`~repro.serve.ServiceConfig`, over the paper's map
(40 neurons, 768 bits, trained on ``make_surveillance_dataset``).  Each
request is timed from its *due* time to the moment its future is resolved,
so a stall in the generator or the service delays every later request too.

Two phases follow a short warm-up: ``steady`` at 2000 req/s offered and
``overload`` at 8000 req/s offered.  ``serve_unique`` sends a fresh 5%
bit-flip of a test signature every time, so the cache and in-flight dedup
never answer.  ``serve_hot`` draws keys Zipf(1.0) from a pool of 8192
distinct signatures (4x the default cache) and hot-swaps between two
trained snapshots every 2 s, inline from the generator thread.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass

import numpy as np

from repro import api
from repro.datasets import make_surveillance_dataset
from repro.errors import ServiceError, ServiceOverloadedError
from repro.loadgen import PoissonProcess, ZipfKeySampler
from repro.serve.request import PendingResult

import common
import ledger as ledger_mod

MODEL = "hall"
N_NEURONS = 40
TRAIN_EPOCHS = 10
DATASET_SCALE = 0.1
STEADY_RPS = 2000.0
OVERLOAD_RPS = 8000.0
WARMUP_S = 0.5
STEADY_SHARE = 2.0 / 3.0
FLIP_SHARE = 0.05
HOT_POOL = 8192
ZIPF_EXPONENT = 1.0
SWAP_EVERY_S = 2.0
REFILL_WINDOW_S = 0.25
TRACE_POLL_S = 0.25
#: Window lengths for the windowed medians of the end-to-end metrics.
STEADY_WINDOW_S = 0.5  # ~1000 requests: p99 has ten samples beyond it
OVERLOAD_WINDOW_S = 0.5
DRAIN_TIMEOUT_S = 10.0
REFERENCE_CHUNK = 4096

KINDS = {"serve_unique": 1, "serve_hot": 2}


@dataclass
class Inputs:
    """Everything the generator sends, derived from the seed alone."""

    snapshots: list
    pool: np.ndarray
    durations: dict
    times: dict
    rows: dict


def _seed_int(seq: np.random.SeedSequence) -> int:
    return int(seq.generate_state(1)[0])


def _flip(bits: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Flip each bit with probability ``FLIP_SHARE`` (in chunks, to bound memory)."""
    out = np.empty_like(bits, dtype=np.uint8)
    for i in range(0, len(bits), REFERENCE_CHUNK):
        chunk = bits[i:i + REFERENCE_CHUNK]
        out[i:i + REFERENCE_CHUNK] = chunk ^ (rng.random(chunk.shape, dtype=np.float32) < FLIP_SHARE)
    return out


def make_schedule(kind: str, seed: int, seconds: float, test: np.ndarray):
    """Arrival offsets, the signature pool and per-request pool rows."""
    root = np.random.SeedSequence([seed, KINDS[kind], 1])
    s_sched, s_keys = root.spawn(2)
    steady_s = seconds * STEADY_SHARE
    durations = {"warmup": WARMUP_S, "steady": steady_s, "overload": seconds - steady_s}
    rates = {"warmup": STEADY_RPS, "steady": STEADY_RPS, "overload": OVERLOAD_RPS}
    sched_rng = np.random.default_rng(s_sched)
    times = {
        name: PoissonProcess(rates[name]).times(durations[name], sched_rng)
        for name in durations
    }
    key_rng = np.random.default_rng(s_keys)
    if kind == "serve_unique":
        total = sum(len(t) for t in times.values())
        pool = _flip(test[key_rng.integers(len(test), size=total)], key_rng)
        rows, start = {}, 0
        for name, t in times.items():
            rows[name] = np.arange(start, start + len(t))
            start += len(t)
    else:
        candidates = _flip(test[key_rng.integers(len(test), size=HOT_POOL + 256)], key_rng)
        _, first = np.unique(np.packbits(candidates, axis=1), axis=0, return_index=True)
        if len(first) < HOT_POOL:
            raise RuntimeError("could not draw enough distinct hot-pool signatures")
        pool = candidates[np.sort(first)[:HOT_POOL]]
        sampler = ZipfKeySampler(HOT_POOL, ZIPF_EXPONENT, seed=key_rng)
        rows = {name: sampler.draw(len(t)) for name, t in times.items()}
    return durations, times, pool, rows


def make_inputs(kind: str, seed: int, seconds: float) -> Inputs:
    """Train the served snapshots and draw the request schedule."""
    s_data, s_som_a, s_som_b = np.random.SeedSequence([seed, KINDS[kind], 0]).spawn(3)
    dataset = make_surveillance_dataset(
        scale=DATASET_SCALE, seed=_seed_int(s_data), use_cache=False
    )
    X, y = dataset.train_signatures, dataset.train_labels
    som_seeds = [s_som_a] if kind == "serve_unique" else [s_som_a, s_som_b]
    snapshots = [
        api.snapshot(api.train(X, y, n_neurons=N_NEURONS, epochs=TRAIN_EPOCHS,
                               seed=_seed_int(s)))
        for s in som_seeds
    ]
    durations, times, pool, rows = make_schedule(kind, seed, seconds,
                                                 dataset.test_signatures)
    return Inputs(snapshots=snapshots, pool=pool, durations=durations,
                  times=times, rows=rows)


def reference_answers(snapshot, pool: np.ndarray) -> tuple:
    """(labels, neurons, distances) of ``predict_batch`` on every pool row."""
    classifier = snapshot.to_classifier()
    parts = [
        classifier.predict_batch(pool[i:i + REFERENCE_CHUNK])
        for i in range(0, len(pool), REFERENCE_CHUNK)
    ]
    return tuple(
        np.concatenate([getattr(p, name) for p in parts])
        for name in ("labels", "neurons", "distances")
    )


def wrong_answers(answers: dict, references) -> np.ndarray:
    """Mask of answers that match no reference snapshot's prediction."""
    rows = answers["rows"]
    ok = np.zeros(len(rows), dtype=bool)
    for ref_labels, ref_neurons, ref_distances in references:
        ok |= (
            (answers["labels"] == ref_labels[rows])
            & (answers["neurons"] == ref_neurons[rows])
            & (answers["distances"] == ref_distances[rows])
        )
    return ~ok


class Recorder:
    """Records each request's outcome at the moment its future is resolved.

    Wraps ``PendingResult.set_result`` and ``set_exception`` for the life of
    the workload.  An answer is filed by its ``request_id``: the service
    numbers submits in order and the generator is its only caller, so
    ``request_id - base`` is the request's index in the phase.  Filing
    answers into flat lists lets the generator drop each future once it is
    resolved, so the harness does not grow the heap the program's garbage
    collector has to scan.
    """

    def __init__(self):
        self._originals = None
        self.begin(0, 0)

    def begin(self, base: int, n: int) -> None:
        self.base = base
        self.answered_at = [math.inf] * n
        self.how = [0] * n  # 1 kernel, 2 cache, 3 dedup; 0 not answered
        self.labels = [0] * n
        self.neurons = [0] * n
        self.distances = [0.0] * n
        self.errors: dict = {}

    def install(self) -> None:
        set_result = PendingResult.set_result
        set_exception = PendingResult.set_exception
        self._originals = (set_result, set_exception)
        clock = time.monotonic

        def recording_set_result(pending, response):
            k = response.request_id - self.base
            if 0 <= k < len(self.how):
                self.answered_at[k] = clock()
                self.labels[k] = response.label
                self.neurons[k] = response.neuron
                self.distances[k] = response.distance
                self.how[k] = 2 if response.cached else 3 if response.deduplicated else 1
            set_result(pending, response)

        def recording_set_exception(pending, error):
            self.errors[pending] = error
            set_exception(pending, error)

        PendingResult.set_result = recording_set_result
        PendingResult.set_exception = recording_set_exception

    def uninstall(self) -> None:
        if self._originals is not None:
            PendingResult.set_result, PendingResult.set_exception = self._originals
            self._originals = None


def _sweep(futures: list, cursor: int, stop: int, errors: dict) -> int:
    """Drop resolved futures up to the first one still in flight; keep failures."""
    while cursor < stop:
        future = futures[cursor]
        if future is not None:
            if not future.done():
                break
            if future not in errors:
                futures[cursor] = None
        cursor += 1
    return cursor


class Swapper:
    """Alternates ``swap_model`` between two snapshots every ``SWAP_EVERY_S``.

    Runs inline in the generator thread.  It reads the cache's miss counter
    ``REFILL_WINDOW_S`` before, at, and after each swap; the misses after
    minus the misses before are that swap's cold-refill misses.
    """

    def __init__(self, service, snapshots, first_swap_at: float):
        self.service = service
        self.snapshots = snapshots
        self.serving = 0
        self.swap_at = first_swap_at
        self.next_at = first_swap_at - REFILL_WINDOW_S
        self.stage = "before"
        self.misses = [0, 0]
        self.events: list[dict] = []

    def fire(self) -> None:
        misses = self.service.cache.misses
        if self.stage == "before":
            self.misses[0] = misses
            self.stage, self.next_at = "swap", self.swap_at
        elif self.stage == "swap":
            self.misses[1] = misses
            entries = len(self.service.cache)
            self.serving = 1 - self.serving
            start = time.monotonic()
            self.service.swap_model(MODEL, self.snapshots[self.serving])
            done = time.monotonic()
            self.events.append({"swap_ms": (done - start) * 1e3, "invalidated": entries})
            self.stage, self.next_at = "after", done + REFILL_WINDOW_S
        else:
            before = self.misses[1] - self.misses[0]
            self.events[-1]["refill_misses"] = (misses - self.misses[1]) - before
            self.swap_at += SWAP_EVERY_S
            self.stage, self.next_at = "before", self.swap_at - REFILL_WINDOW_S


class TracePoller:
    """Copies the tracer's completed-trace ring before it wraps around."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.traces: dict = {}

    def poll(self) -> None:
        for trace in self.tracer.completed():
            self.traces[trace.trace_id] = trace

    def span_durations_s(self, span_name: str, start: float, end: float) -> list:
        """Durations of ``span_name`` in traces whose request began in the window."""
        out = []
        for trace in self.traces.values():
            if start <= trace.root.start_s < end:
                span = trace.find(span_name)
                if span is not None and span.duration_s is not None:
                    out.append(span.duration_s)
        return out


@dataclass
class PhaseResult:
    name: str
    counts: dict
    due_s: np.ndarray
    answered_s: np.ndarray
    lags_s: np.ndarray
    start: float
    end: float
    process_cpu_s: float
    thread_cpu: dict
    marks: list
    answers: dict
    spans: dict

    @property
    def latencies_s(self) -> np.ndarray:
        """Due time to answer, per attempted request (inf for a miss)."""
        return self.answered_s - self.due_s

    @property
    def service_latencies_s(self) -> np.ndarray:
        """Send time (the submit call) to answer: due time minus generator lag."""
        return self.latencies_s - self.lags_s

    @property
    def ops(self) -> int:
        """Requests answered in any way (kernel, cache or dedup)."""
        return self.counts["answered"] + self.counts["cached"] + self.counts["deduplicated"]


def run_phase(service, inputs: Inputs, name: str, recorder: Recorder, base: int, *,
              swapper=None, poller=None, ledger=None, cut_at_end=False) -> PhaseResult:
    """Replay one phase open loop, drain it and account for every request.

    ``base`` is the number of requests submitted to ``service`` before this
    phase.  With ``cut_at_end`` the generator stops issuing when the phase's
    time is up, even if it is running late; requests it never sent are
    ``offered`` but not ``attempted``.
    """
    times, rows, pool = inputs.times[name], inputs.rows[name], inputs.pool
    n = len(times)
    futures: list = [None] * n
    shed_at_submit = np.zeros(n, dtype=bool)
    lags = np.zeros(n)
    recorder.begin(base, n)
    clock, sleep, submit = time.monotonic, time.sleep, service.submit
    spans_before = ledger.snapshot() if ledger is not None else None
    threads_before = common.thread_cpu_seconds()
    cpu_before = time.process_time()
    start = clock() + 0.002
    end_at = start + inputs.durations[name]
    next_poll = start
    marks = [(start, cpu_before, 0)]  # (time, process CPU, requests issued)
    next_mark = start + STEADY_WINDOW_S
    issued = cursor = 0
    for i in range(n):
        due = start + times[i]
        now = clock()
        if now < due:
            sleep(due - now)
            now = clock()
        if cut_at_end and now >= end_at:
            break
        if swapper is not None and now >= swapper.next_at:
            swapper.fire()
            now = clock()
        if poller is not None and now >= next_poll:
            poller.poll()
            next_poll = now + TRACE_POLL_S
        if now >= next_mark:
            marks.append((now, time.process_time(), i))
            next_mark += STEADY_WINDOW_S
            cursor = _sweep(futures, cursor, i, recorder.errors)
        lags[i] = now - due
        try:
            futures[i] = submit(pool[rows[i]], model=MODEL)
        except ServiceOverloadedError:
            shed_at_submit[i] = True
        issued = i + 1
    end = max(clock(), end_at) if cut_at_end else clock()
    deadline = clock() + DRAIN_TIMEOUT_S
    for future in futures[:issued]:
        if future is not None and not future.done():
            try:
                future.result(max(0.0, deadline - clock()))
            except ServiceError:
                pass
    process_cpu = time.process_time() - cpu_before
    thread_cpu = common.thread_cpu_delta(threads_before, common.thread_cpu_seconds())
    spans = ledger_mod.window(spans_before, ledger.snapshot()) if ledger else {}
    if poller is not None:
        poller.poll()

    how = np.asarray(recorder.how[:issued])
    counts = {
        "answered": int((how == 1).sum()),
        "cached": int((how == 2).sum()),
        "deduplicated": int((how == 3).sum()),
        "shed": int(shed_at_submit[:issued].sum()),
        "failed": 0,
    }
    for future in futures[:issued]:
        error = recorder.errors.get(future) if future is not None else None
        if isinstance(error, ServiceOverloadedError):
            counts["shed"] += 1
        elif error is not None:
            counts["failed"] += 1
    counts["unresolved"] = issued - sum(counts.values())
    counts["offered"], counts["attempted"] = n, issued
    answered = how > 0
    return PhaseResult(
        name=name, counts=counts, due_s=times[:issued],
        answered_s=np.asarray(recorder.answered_at[:issued]) - start, lags_s=lags[:issued],
        start=start, end=end, process_cpu_s=process_cpu, thread_cpu=thread_cpu,
        marks=marks, spans=spans,
        answers={
            "rows": rows[:issued][answered],
            "labels": np.asarray(recorder.labels[:issued])[answered],
            "neurons": np.asarray(recorder.neurons[:issued])[answered],
            "distances": np.asarray(recorder.distances[:issued])[answered],
        },
    )


def check_phases(phases: dict, inputs: Inputs) -> None:
    """Set ``checked`` and ``wrong`` on every phase against ``predict_batch``.

    serve_unique never swaps, so each answer must equal the served
    snapshot's; serve_hot's must equal one of the two it swaps between.
    """
    references = [reference_answers(s, inputs.pool) for s in inputs.snapshots]
    for phase in phases.values():
        phase.counts["checked"] = len(phase.answers["rows"])
        phase.counts["wrong"] = int(wrong_answers(phase.answers, references).sum())


class ServePass:
    """One service lifetime: start and warm up on construction, then run."""

    def __init__(self, inputs: Inputs, recorder: Recorder, *, poll_traces=False,
                 ledger=None):
        self.inputs = inputs
        self.recorder = recorder
        self.ledger = ledger
        self.service = api.serve({MODEL: inputs.snapshots[0]})
        self.poller = TracePoller(self.service.obs.tracer) if poll_traces else None
        self.swapper = None
        self.submitted = 0
        try:
            self._run_phase("warmup")
        except BaseException:
            self.service.stop()
            raise

    def _run_phase(self, name: str) -> PhaseResult:
        phase = run_phase(self.service, self.inputs, name, self.recorder, self.submitted,
                          swapper=self.swapper, poller=self.poller, ledger=self.ledger,
                          cut_at_end=(name == "overload"))
        self.submitted += phase.counts["attempted"]
        return phase

    def run(self) -> dict:
        try:
            if len(self.inputs.snapshots) > 1:
                self.swapper = Swapper(self.service, self.inputs.snapshots,
                                       time.monotonic() + SWAP_EVERY_S)
            return {name: self._run_phase(name) for name in ("steady", "overload")}
        finally:
            self.service.stop()


# ---------------------------------------------------------------------- #
# Metrics
# ---------------------------------------------------------------------- #
def _per(value: float, count: float) -> float:
    return value / count if count else 0.0


def windowed(phases: dict, steady_s: float, overload_s: float) -> dict:
    """Per-window values behind the end-to-end metrics (full windows only).

    ``steady``: p50 and p99 of send->answer latency per window of requests
    grouped by due time, and process CPU per request issued in the window.
    ``overload``: requests answered per second in each window.
    """
    steady, overload = phases["steady"], phases["overload"]
    latency, due = steady.service_latencies_s, steady.due_s
    out = {"p50_ms": [], "p99_ms": [], "cpu_us_per_op": [], "throughput_per_s": []}
    for w in range(int(steady_s // STEADY_WINDOW_S)):
        inside = (due >= w * STEADY_WINDOW_S) & (due < (w + 1) * STEADY_WINDOW_S)
        if inside.any():
            out["p50_ms"].append(common.percentile(latency[inside], 50) * 1e3)
            out["p99_ms"].append(common.percentile(latency[inside], 99) * 1e3)
    for (_, cpu0, n0), (_, cpu1, n1) in zip(steady.marks, steady.marks[1:]):
        if n1 > n0:
            out["cpu_us_per_op"].append((cpu1 - cpu0) * 1e6 / (n1 - n0))
    answered = overload.answered_s
    for w in range(int(overload_s // OVERLOAD_WINDOW_S)):
        inside = (answered >= w * OVERLOAD_WINDOW_S) & (answered < (w + 1) * OVERLOAD_WINDOW_S)
        out["throughput_per_s"].append(int(inside.sum()) / OVERLOAD_WINDOW_S)
    return out


def end_to_end(phases: dict, setup_s: float, inputs: Inputs) -> dict:
    """Medians over windows, so one stalled second moves a metric little."""
    windows = windowed(phases, inputs.durations["steady"], inputs.durations["overload"])
    metrics = {name: statistics.median(values) if values else 0.0
               for name, values in windows.items()}
    metrics.update({"setup_s": setup_s, "rss_mb": common.peak_rss_mb()})
    return metrics


def _cpu_shares(phase: PhaseResult) -> dict:
    by_role: dict = {}
    for thread_name, cpu in phase.thread_cpu.values():
        role = ledger_mod.thread_role(thread_name)
        by_role[role] = by_role.get(role, 0.0) + cpu
    return {role: _per(cpu, phase.process_cpu_s) for role, cpu in by_role.items()}


def per_layer(untraced: dict, traced: dict, swaps: list, poller: TracePoller) -> tuple:
    """Layer metrics: counts, shares and waits from the untraced pass,
    times per layer from the traced pass (both passes replay one schedule)."""
    steady, overload = untraced["steady"], untraced["overload"]
    queue = poller.span_durations_s("queue", steady.start, steady.end)
    shard = poller.span_durations_s("batch", overload.start, overload.end)
    shares = _cpu_shares(steady)
    untraced_cpu_per_op = _per(steady.process_cpu_s * 1e6, steady.ops)

    t_steady, t_over = traced["steady"], traced["overload"]
    ops = t_steady.ops
    fn = ledger_mod.by_function(t_steady.spans)
    selfs = ledger_mod.layer_self(t_steady.spans)

    def cpu_per_call(key):
        calls, _wall, cpu, *_ = fn.get(key, (0, 0.0, 0.0))
        return _per(cpu * 1e6, calls)

    dispatches = fn.get("serve.registry:submit", (0,))[0]
    kernel = fn.get("core.classifier:predict_batch_packed", (0, 0.0, 0.0))
    over_kernel = ledger_mod.by_function(t_over.spans).get(
        "core.classifier:predict_batch_packed", (0, 0.0, 0.0))
    submit = fn.get("serve.service:submit", (0, 0.0, 0.0))
    rows = ledger_mod.ledger_rows(t_steady.spans, t_steady.thread_cpu,
                                  t_steady.process_cpu_s, ops)
    metrics = {
        "signatures.packing.us_per_req": _per(selfs["signatures.packing"] * 1e6, ops),
        "serve.service.submit_us": _per(submit[1] * 1e6, submit[0]),
        "serve.service.submit_cpu_us": _per(submit[2] * 1e6, submit[0]),
        "serve.service.self_us": _per(selfs["serve.service"] * 1e6, ops),
        "serve.service.dedup_share": _per(steady.counts["deduplicated"],
                                          steady.counts["attempted"]),
        "serve.cache.get_us": cpu_per_call("serve.cache:get"),
        "serve.cache.put_us": cpu_per_call("serve.cache:put"),
        "serve.cache.hit_share": _per(steady.counts["cached"], steady.counts["attempted"]),
        "serve.cache.invalidated_entries": _mean(e["invalidated"] for e in swaps),
        "serve.cache.swap_refill_misses": _mean(
            e["refill_misses"] for e in swaps if "refill_misses" in e),
        "serve.batching.submit_us": cpu_per_call("serve.batching:submit"),
        "serve.batching.batch_size_mean": _per(t_steady.counts["answered"], dispatches),
        "serve.batching.wait_ms.p50": common.percentile(queue, 50) * 1e3 if queue else 0.0,
        "serve.batching.wait_ms.p99": common.percentile(queue, 99) * 1e3 if queue else 0.0,
        "serve.registry.dispatch_us_per_batch": cpu_per_call("serve.registry:submit"),
        "serve.registry.swap_ms": _mean(e["swap_ms"] for e in swaps),
        "serve.shard.queue_wait_ms.p50": common.percentile(shard, 50) * 1e3 if shard else 0.0,
        "serve.shard.queue_wait_ms.p99": common.percentile(shard, 99) * 1e3 if shard else 0.0,
        "core.classifier.kernel_us_per_batch": _per(kernel[2] * 1e6, kernel[0]),
        "core.classifier.kernel_us_per_req": _per(kernel[2] * 1e6, ops),
        "core.classifier.busy_share": _per(over_kernel[2], t_over.process_cpu_s),
        "serve.request.complete_us_per_req": _per(selfs["serve.request"] * 1e6, ops),
        "serve.metrics.us_per_req": _per(selfs["serve.metrics"] * 1e6, ops),
        "obs.trace.us_per_req": _per(selfs["obs.trace"] * 1e6, ops),
        "loadgen.cpu_share": shares.get("loadgen", 0.0),
        "serve.dispatcher.cpu_share": shares.get("serve.dispatcher", 0.0),
        "serve.shard.cpu_share": shares.get("serve.shard", 0.0),
        "serve.resilience.supervisor_cpu_share": shares.get("serve.resilience", 0.0),
        "loadgen.lag_ms.p50": common.percentile(steady.lags_s, 50) * 1e3,
        "loadgen.lag_ms.p99": common.percentile(steady.lags_s, 99) * 1e3,
        "trace.overhead_share": _per(rows["total"], untraced_cpu_per_op) - 1.0,
    }
    return metrics, rows


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


# ---------------------------------------------------------------------- #
# Entry point
# ---------------------------------------------------------------------- #
def run(kind: str, seed: int, seconds: float, trace: bool, setup_repeats: int) -> dict:
    """Run one serve workload; returns metrics, accounting and report rows."""
    recorder = Recorder()
    recorder.install()
    try:
        if not trace:
            return _run_untraced(kind, seed, seconds, recorder, setup_repeats)
        return _run_traced(kind, seed, seconds, recorder)
    finally:
        recorder.uninstall()


def _run_untraced(kind, seed, seconds, recorder, setup_repeats) -> dict:
    setup_times = []
    serve_pass = inputs = None
    for _ in range(setup_repeats):
        if serve_pass is not None:
            serve_pass.service.stop()
            serve_pass = inputs = None
        begin = time.perf_counter()
        inputs = make_inputs(kind, seed, seconds)
        serve_pass = ServePass(inputs, recorder)
        setup_times.append(time.perf_counter() - begin)
    phases = serve_pass.run()
    metrics = end_to_end(phases, statistics.median(setup_times), inputs)
    check_phases(phases, inputs)
    return {"metrics": metrics, "phases": phases, "setup_times": setup_times,
            "ledger": None}


def _run_traced(kind, seed, seconds, recorder) -> dict:
    # The two passes replay the same schedule, each for half the time.
    inputs = make_inputs(kind, seed, seconds / 2.0)
    untraced_pass = ServePass(inputs, recorder, poll_traces=True)
    untraced = untraced_pass.run()
    ledger = ledger_mod.Ledger().install(ledger_mod.SERVE_LAYERS)
    try:
        traced = ServePass(inputs, recorder, ledger=ledger).run()
    finally:
        ledger.uninstall()
    swaps = untraced_pass.swapper.events if untraced_pass.swapper else []
    metrics, rows = per_layer(untraced, traced, swaps, untraced_pass.poller)
    phases = {**untraced, **{f"traced {k}": v for k, v in traced.items()}}
    check_phases(phases, inputs)
    return {"metrics": metrics, "phases": phases, "setup_times": [], "ledger": rows}
