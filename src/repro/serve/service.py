"""The streaming inference service front-end.

:class:`StreamingInferenceService` is the piece a multi-camera deployment
talks to.  Per request it:

1. checks the signature LRU cache (packed-signature key) and answers
   immediately on a hit -- a repeated silhouette never touches the SOM,
2. coalesces the request onto an identical *in-flight* packed signature
   when one exists (cross-request deduplication: one kernel execution fans
   out to every waiting future, counted as ``dedup_hits``),
3. otherwise admits the request against a service-wide pending budget
   (raising :class:`~repro.errors.ServiceOverloadedError` when saturated --
   backpressure instead of unbounded queues),
4. hands it to the micro-batching scheduler, which cuts size- or
   deadline-bounded batches per model, and
5. routes each batch through the sharded model registry to a worker
   thread, whose completion path resolves the futures (followers
   included), fills the cache and records the telemetry.

Every terminal path -- success or failure, at submit, at dispatch or in
a shard -- ends a request in one order: retire its dedup entry, finish its
trace, release its pending-budget slot, record metrics and events, and
only then set its future (and its followers').  A caller woken by
``result()`` therefore always sees that bookkeeping done.  Failures all
go through one resolver, :meth:`StreamingInferenceService._fail`.

Model lifecycle: :meth:`register_model` / :meth:`swap_model` /
:meth:`evict_model` accept fitted classifiers or
:class:`~repro.core.snapshot.ModelSnapshot` objects.  ``swap_model`` is the
zero-drop hot-reload -- shards flip to the new model at a micro-batch
boundary while queued requests ride through untouched -- and every swap or
eviction bumps the model's *generation* so the completion path never
memoises a prediction computed by a superseded map.

A background dispatcher thread enforces the deadline flushes so a lone
low-rate stream still sees bounded latency.  The service is a context
manager: ``with StreamingInferenceService(...) as service: ...``.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from repro.core.classifier import BatchPrediction, SomClassifier
from repro.core.serialization import PathLike
from repro.errors import (
    CircuitOpenError,
    ConfigurationError,
    DeadlineExceededError,
    ModelEvictedError,
    ServiceError,
    ServiceOverloadedError,
    ShardFailedError,
)
from repro.obs import Observability
from repro.obs.trace import Trace
from repro.serve.batching import MicroBatch, MicroBatchScheduler
from repro.serve.cache import CachedOutcome, SignatureLruCache
from repro.serve.metrics import MetricsSnapshot, ServiceMetrics
from repro.serve.registry import ModelRegistry, ModelSource
from repro.serve.resilience import (
    BreakerBoard,
    BreakerConfig,
    FaultInjector,
    RetryPolicy,
    ShardSupervisor,
    SupervisorConfig,
)
from repro.serve.request import (
    ClassificationRequest,
    ClassificationResponse,
    PendingResult,
    fail_requests,
    resolve_follower,
    resolve_requests,
)
from repro.serve.rollout import RolloutConfig, RolloutManager
from repro.serve.shard import WorkerShard
from repro.signatures.packing import packed_signature_words


@dataclass(frozen=True)
class ServiceConfig:
    """Tuning knobs of the streaming service.

    Attributes
    ----------
    batch_size:
        Micro-batch size target; a full lane flushes immediately.
    max_delay_ms:
        Deadline bound: no admitted request waits longer than this for its
        batch to be cut.
    cache_capacity:
        Signature LRU cache entries (0 disables caching).
    n_shards:
        Worker shards per registered model.
    routing_policy:
        ``"round_robin"`` or ``"least_loaded"`` shard selection.
    shard_queue_capacity:
        Bounded batch queue per shard.
    max_pending:
        Service-wide cap on admitted-but-unresolved requests; submissions
        beyond it are refused with :class:`ServiceOverloadedError`.
    distance_backend:
        Distance-backend selection applied to every registered model's SOM
        (``"gemm"``, ``"packed"``, ``"naive"``, ``"auto"``, or a backend
        instance); ``None`` keeps each model's own choice.  Only used when
        the service builds its own registry.
    trace_sample_every:
        Trace every Nth request (``1`` = all, ``0`` = tracing off).  Only
        used when the service builds its own :class:`~repro.obs.Observability`;
        a passed-in ``obs`` keeps its own sampling rate.
    default_deadline_s:
        Deadline budget applied to every submit that does not pass its own
        ``deadline_s`` (``None`` = no deadline).  Expired requests are shed
        with :class:`~repro.errors.DeadlineExceededError` before batching
        and again before kernel launch.
    retry:
        :class:`~repro.serve.resilience.RetryPolicy` for transient submit
        refusals (pending budget, open circuits).  ``None`` (default)
        surfaces :class:`ServiceOverloadedError` to the caller on the first
        refusal, exactly as before.
    breaker:
        :class:`~repro.serve.resilience.BreakerConfig` enabling
        per-(model, shard) circuit breakers; the router skips open shards
        and the service degrades to stale cache answers when every shard
        of a model is open.  ``None`` (default) disables breakers.
    supervisor:
        :class:`~repro.serve.resilience.SupervisorConfig` for the shard
        watchdog (dead/wedged worker detection + bounded restarts).  On by
        default with conservative timeouts; ``None`` disables supervision.
    fault_injector:
        :class:`~repro.serve.resilience.FaultInjector` threaded into the
        cache, registry and shards -- chaos tests only, ``None`` in
        production.  Only used when the service builds its own registry;
        a passed-in registry keeps its own injector.
    """

    batch_size: int = 32
    max_delay_ms: float = 5.0
    cache_capacity: int = 2048
    n_shards: int = 2
    routing_policy: str = "round_robin"
    shard_queue_capacity: int = 8
    max_pending: int = 1024
    distance_backend: Optional[str] = None
    trace_sample_every: int = 16
    default_deadline_s: Optional[float] = None
    retry: Optional[RetryPolicy] = None
    breaker: Optional[BreakerConfig] = None
    supervisor: Optional[SupervisorConfig] = SupervisorConfig()
    fault_injector: Optional[FaultInjector] = None

    def __post_init__(self) -> None:
        for name in ("batch_size", "max_delay_ms", "max_pending"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(
                    f"{name} must be positive, got {getattr(self, name)}"
                )
        if self.trace_sample_every < 0:
            raise ConfigurationError(
                "trace_sample_every must be >= 0 (0 disables tracing), "
                f"got {self.trace_sample_every}"
            )
        if self.default_deadline_s is not None and self.default_deadline_s <= 0:
            raise ConfigurationError(
                f"default_deadline_s must be positive or None, "
                f"got {self.default_deadline_s}"
            )


class StreamingInferenceService:
    """Micro-batched, sharded, cached classification for camera streams.

    Parameters
    ----------
    registry:
        A :class:`ModelRegistry` to serve from; built from ``config`` when
        omitted.  The service binds the registry's completion path to its
        own cache/metrics pipeline.
    config:
        Service configuration (defaults are sensible for tests/demos).
    clock:
        Monotonic time source, injectable for tests.
    obs:
        The :class:`~repro.obs.Observability` bundle (metric registry +
        tracer + event log) the service reports through.  Built from
        ``config.trace_sample_every`` and ``clock`` when omitted; pass a
        shared instance to scrape several services with one exporter.
    """

    def __init__(
        self,
        registry: Optional[ModelRegistry] = None,
        config: Optional[ServiceConfig] = None,
        *,
        clock: Callable[[], float] = time.monotonic,
        obs: Optional[Observability] = None,
    ):
        self.config = config or ServiceConfig()
        self.obs = obs if obs is not None else Observability(
            sample_every=self.config.trace_sample_every, clock=clock
        )
        self.registry = registry or ModelRegistry(
            n_shards=self.config.n_shards,
            policy=self.config.routing_policy,
            queue_capacity=self.config.shard_queue_capacity,
            backend=self.config.distance_backend,
            clock=clock,
            fault_injector=self.config.fault_injector,
        )
        self.registry.bind_completion(
            self._on_batch_done, self._fail, self._on_model_retired
        )
        self.registry.bind_events(self.obs.events)
        self._clock = clock
        self.scheduler = MicroBatchScheduler(
            batch_size=self.config.batch_size,
            max_delay_s=self.config.max_delay_ms / 1e3,
            clock=clock,
        )
        self.cache = SignatureLruCache(
            self.config.cache_capacity, fault_injector=self.config.fault_injector
        )
        self.metrics = ServiceMetrics(registry=self.obs.registry)
        self._board: Optional[BreakerBoard] = None
        if self.config.breaker is not None:
            self._board = BreakerBoard(
                self.config.breaker,
                clock=clock,
                registry=self.obs.registry,
                events=self.obs.events,
            )
            self.registry.bind_breakers(self._board.allow)
        self._rollout: Optional[RolloutManager] = None
        self._supervisor: Optional[ShardSupervisor] = None
        if self.config.supervisor is not None:
            self._supervisor = ShardSupervisor(
                self.registry,
                config=self.config.supervisor,
                clock=clock,
                on_restart=self._on_shard_restart,
                on_disabled=self._on_shard_disabled,
            )
        self.obs.registry.gauge(
            "serve_pending_requests",
            fn=lambda: float(self.pending_requests),
            help="Admitted-but-unresolved requests (live, read at collection)",
        )
        self._pending = 0
        self._pending_lock = threading.Lock()
        # In-flight dedup table: (model, packed-signature key) -> the
        # primary request whose kernel execution will answer the group.
        self._inflight: dict[tuple[str, bytes], ClassificationRequest] = {}
        self._inflight_lock = threading.Lock()
        # Per-model generation counters, bumped on swap/evict; completion
        # only memoises outcomes whose request generation is still current,
        # so a hot-swap can never leave a superseded prediction in the cache.
        self._generations: dict[str, int] = {}
        self._gen_lock = threading.Lock()
        # next() on a count is atomic, so request ids need no lock.
        self._request_ids = itertools.count()
        self._running = False
        # stop() flips the running flag under this lock and submit()
        # enqueues under it, so no request can reach the scheduler after
        # stop() has drained the lanes and strand its future.
        self._state_lock = threading.Lock()
        self._stop_event = threading.Event()
        self._wake = threading.Event()
        self._dispatcher: Optional[threading.Thread] = None

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "StreamingInferenceService":
        if self._running:
            return self
        self._stop_event.clear()
        self.registry.start()
        if self._supervisor is not None:
            self._supervisor.start()
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="serve-dispatcher", daemon=True
        )
        self._running = True
        self._dispatcher.start()
        return self

    def stop(self, timeout: float = 5.0) -> None:
        with self._state_lock:
            if not self._running:
                return
            self._running = False
        # The watchdog goes first: a restart racing the shard teardown
        # below would resurrect workers the registry is trying to join.
        if self._supervisor is not None:
            self._supervisor.stop()
        # Rollouts next, while the registry is still up: demoting an
        # in-flight candidate drains and evicts its canary group cleanly.
        if self._rollout is not None:
            self._rollout.stop()
        self._stop_event.set()
        self._wake.set()
        if self._dispatcher is not None:
            self._dispatcher.join(timeout)
            self._dispatcher = None
        # Push whatever is still buffered through the shards, then drain them.
        for batch in self.scheduler.drain():
            self._dispatch(batch)
        leaked = self.registry.stop(timeout)
        if leaked:
            self.metrics.record_shard_leak(len(leaked))

    def __enter__(self) -> "StreamingInferenceService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    @property
    def running(self) -> bool:
        return self._running

    # ------------------------------------------------------------------ #
    # Model lifecycle (registry + cache/generation bookkeeping)
    # ------------------------------------------------------------------ #
    def register_model(self, name: str, model: ModelSource) -> None:
        """Register a fitted classifier or :class:`ModelSnapshot` under ``name``."""
        self.registry.register(name, model)

    def load_model(self, name: str, path: PathLike) -> SomClassifier:
        return self.registry.load(name, path)

    def swap_model(self, name: str, model: ModelSource) -> SomClassifier:
        """Hot-reload ``name`` with zero dropped requests; return the old model.

        The shards flip at a micro-batch boundary (:meth:`ModelRegistry.swap`),
        so queued requests are scored by whichever map is current when their
        batch runs -- reflashing the FPGA between patterns.  The registry's
        ``retired`` hook then bumps the generation and invalidates the cache.
        """
        previous = self.registry.swap(name, model)  # raises UnknownModelError
        self.metrics.record_swap()
        return previous

    def evict_model(self, name: str) -> SomClassifier:
        """Unregister ``name``; every queued future fails promptly and clearly.

        The registry fails shard-queued batches with
        :class:`~repro.errors.ModelEvictedError`; the scheduler lane is cut
        and failed here the same way, without waiting for a deadline flush.
        """
        classifier = self.registry.evict(name)  # fires _on_model_retired
        lane = self.scheduler.cut_lane(name)
        if lane is not None:
            self._fail(None, lane, ModelEvictedError(name, self.registry.names()))
        return classifier

    def enable_rollouts(
        self, config: Optional[RolloutConfig] = None
    ) -> RolloutManager:
        """Attach the guarded-rollout machinery (idempotent; returns it).

        :meth:`RolloutManager.begin` then shadow-evaluates candidates on
        live traffic and the :class:`~repro.serve.rollout.RolloutPolicy`
        promotes or demotes them; with breakers and ``rollback_on_breaker``
        a breaker opening on a fresh promotion swaps the previous back in.
        """
        if self._rollout is None:
            self._rollout = RolloutManager(self, config)
            if self._board is not None:
                self._board.on_open = self._rollout.on_breaker_open
        return self._rollout

    @property
    def rollouts(self) -> Optional[RolloutManager]:
        """The attached :class:`RolloutManager`, or ``None``."""
        return self._rollout

    def _on_model_retired(self, name: str) -> None:
        """Registry hook: a swap/evict (here or on the registry) displaced
        ``name``'s classifier.  Bumping the generation first blocks further
        cache fills from pre-swap requests; the invalidation then clears
        anything already memoised."""
        with self._gen_lock:
            self._generations[name] = self._generations.get(name, 0) + 1
        dropped = self.cache.invalidate_model(name)
        self.obs.events.emit("cache_invalidate", model=name, dropped_entries=dropped)

    # ------------------------------------------------------------------ #
    # Submission
    # ------------------------------------------------------------------ #
    def submit(
        self,
        signature: np.ndarray,
        *,
        model: str,
        stream_id: str = "",
        deadline_s: Optional[float] = None,
    ) -> PendingResult:
        """Queue one signature for classification; returns its future.

        The signature is checked (zeros and ones, model width) and packed
        once, here.  Cache hits resolve before this method returns.
        Raises :class:`ServiceOverloadedError` when the pending budget is
        full (or :class:`~repro.errors.CircuitOpenError` when every shard
        breaker of the model is open and no stale entry answers), and
        :class:`UnknownModelError` for an unregistered model.  Shard-queue
        saturation is only detectable at dispatch time, so that
        backpressure arrives through the future: ``result()`` re-raises
        :class:`ServiceOverloadedError`.  Treat both as "retry later";
        :func:`repro.serve.streams.drive_streams` shows the pattern.

        With ``config.retry`` set, submit-time refusals are retried under
        jittered exponential backoff, bounded by ``max_attempts`` and by
        the deadline.  A refused submit leaves no admitted state behind.

        ``deadline_s`` (default ``config.default_deadline_s``) is the
        caller's latency budget: expired requests are shed with
        :class:`~repro.errors.DeadlineExceededError` at dispatch or just
        before the kernel.
        """
        if deadline_s is None:
            deadline_s = self.config.default_deadline_s
        deadline_at = None if deadline_s is None else self._clock() + deadline_s
        policy = self.config.retry
        attempt = 0
        while True:
            try:
                return self._submit_once(
                    signature,
                    model=model,
                    stream_id=stream_id,
                    deadline_at=deadline_at,
                )
            except ServiceOverloadedError:
                attempt += 1
                if policy is None or attempt >= policy.max_attempts:
                    raise
                delay = policy.delay_s(attempt)
                if deadline_at is not None and self._clock() + delay >= deadline_at:
                    raise  # the backoff would outlive the deadline
                self.metrics.record_retry()
                time.sleep(delay)

    def _submit_once(
        self,
        signature: np.ndarray,
        *,
        model: str,
        stream_id: str,
        deadline_at: Optional[float],
    ) -> PendingResult:
        if not self._running:
            raise ServiceError("the service is not running; call start() first")
        # Canary routing: a logical name under an active traffic split
        # resolves to a concrete version here, once, so lanes, cache keys,
        # dedup keys and the response all carry the version that actually
        # serves the request.  Unrouted names pass through untouched.
        model = self.registry.resolve(model)
        classifier = self.registry.classifier(model)  # raises UnknownModelError
        signature = np.asarray(signature)
        # Check and pack exactly once: the uint64 words are both the cache
        # key (their raw bytes) and the shard's kernel input, and the
        # request keeps no other copy of the signature.
        packed = packed_signature_words(signature)
        key = packed.tobytes()
        if signature.size != classifier.som.n_bits:
            raise ConfigurationError(
                f"model {model!r} expects {classifier.som.n_bits}-bit signatures, "
                f"got {signature.size} bits"
            )
        now = self._clock()
        request_id = next(self._request_ids)
        trace = self.obs.tracer.start(
            t=now, model=model, stream_id=stream_id, request_id=request_id
        )
        identity = dict(model=model, stream_id=stream_id, request_id=request_id)

        try:
            outcome = self.cache.get(model, key)
        except Exception:
            # A corrupt entry / codec bug in the cache must degrade to a
            # miss, not fail the request: the SOM can always re-derive the
            # answer.  Counted so an elevated error rate is visible.
            self.metrics.record_cache_error()
            outcome = None
        if outcome is not None:
            return self._answer_cached(outcome, now, trace, stale=False, **identity)

        # Cross-request dedup: an identical packed signature already in
        # flight for this model answers us too.  The follower consumes no
        # pending-budget slot and never reaches a shard -- the primary's
        # one kernel execution fans out to every waiting future.
        with self._inflight_lock:
            primary = self._inflight.get((model, key))
            if primary is not None:
                follower = ClassificationRequest(
                    packed=packed,
                    cache_key=key,
                    enqueued_at=now,
                    generation=primary.generation,
                    trace=trace,
                    **identity,
                )
                if trace is not None:
                    # The follower never queues or reaches a shard; its one
                    # span records the coalesce and links to the primary's
                    # kernel span, which does the actual work.
                    span = trace.span(
                        "dedup", start=now, end=self._clock(),
                        primary_request_id=primary.request_id,
                    )
                    if primary.trace is not None:
                        span.add_link(trace_id=primary.trace.trace_id, span="kernel")
                # Append last: once the follower is visible to the
                # completion path its trace/span state must be final.
                primary.followers.append(follower)
                self.metrics.record_request()
                self.metrics.record_dedup()
                self.obs.events.emit(
                    "dedup", model=model, request_id=request_id,
                    primary_request_id=primary.request_id,
                )
                return follower.pending

        if self._board is not None:
            shard_names = self.registry.shard_names(model)
            if not self._board.would_allow_any(model, shard_names):
                # Every shard breaker of the model is open: degrade to the
                # stale cache tier if it can answer (flagged stale=True),
                # otherwise shed with CircuitOpenError so the retry policy
                # backs off until a half-open probe closes a breaker.
                stale = self.cache.get_stale(model, key)
                if stale is not None:
                    return self._answer_cached(stale, now, trace, stale=True, **identity)
                self._refuse(trace, model, "circuit_open")
                raise CircuitOpenError(
                    model,
                    open_shards=len(shard_names),
                    total_shards=len(shard_names),
                )

        with self._pending_lock:
            if self._pending >= self.config.max_pending:
                # Refused attempts count as backpressure only -- neither a
                # request nor a cache miss -- so requests_total keeps the
                # documented meaning of "requests accepted".
                self._refuse(trace, model, "pending_budget")
                raise ServiceOverloadedError(
                    "service pending budget",
                    pending=self._pending,
                    capacity=self.config.max_pending,
                )
            self._pending += 1
        self.metrics.record_request()
        self.metrics.record_cache(hit=False)
        with self._gen_lock:
            generation = self._generations.get(model, 0)
        request = ClassificationRequest(
            packed=packed,
            cache_key=key,
            enqueued_at=now,
            generation=generation,
            trace=trace,
            deadline_at=deadline_at,
            **identity,
        )
        if trace is not None:
            trace.begin("queue", t=now)
        with self._inflight_lock:
            # First-in becomes the primary; later identical signatures
            # coalesce onto it until its batch completes.
            self._inflight.setdefault((model, key), request)
        with self._state_lock:
            if not self._running:
                # stop() won the race after the entry check: fail fast
                # instead of stranding the request (and any follower that
                # already coalesced onto it) in a drained lane.
                error = ServiceError("the service is not running; call start() first")
                batch = MicroBatch(model, (request,), capacity=1, flushed_by="drain")
                self._fail(None, batch, error)
                raise error
            full_batch = self.scheduler.submit(request)
            if full_batch is not None:
                # Dispatch inside the lock so stop() cannot slip its shard
                # shutdown sentinel in front of this batch.
                self._dispatch(full_batch)
        if full_batch is None:
            self._wake.set()
        else:
            # Hand the GIL to the shard this batch woke: a tight submit loop
            # would otherwise keep it for a whole switch interval (5 ms) and
            # fill every shard queue before any worker ran.
            time.sleep(0)
        return request.pending

    def _answer_cached(
        self,
        outcome: CachedOutcome,
        now: float,
        trace: Optional[Trace],
        *,
        stale: bool,
        **identity,
    ) -> PendingResult:
        """Answer at submit time from the live or the stale cache tier.

        No dedup entry or budget slot exists yet, so the terminal order is
        just: finish the trace, record metrics and events, resolve."""
        response = ClassificationResponse(
            outcome.label, outcome.neuron, outcome.distance,
            outcome.rejected, outcome.confidence,
            cached=True,
            latency_s=max(0.0, self._clock() - now),
            stale=stale,
            trace_id=trace.trace_id if trace is not None else None,
            **identity,
        )
        flags = {"stale": True} if stale else {}
        if trace is not None:
            done = now + response.latency_s
            trace.span("cache", start=now, end=done, hit=True, **flags)
            trace.finish("ok", t=done, cached=True, label=response.label, **flags)
        self.metrics.record_request()
        if stale:
            self.metrics.record_stale_hit()
            self.obs.events.emit(
                "stale_hit", model=response.model, request_id=response.request_id
            )
        else:
            self.metrics.record_cache(hit=True)
        self.metrics.record_response(response.latency_s)
        pending = PendingResult()
        pending.set_result(response)
        return pending

    def _refuse(self, trace: Optional[Trace], model: str, reason: str) -> None:
        """Bookkeeping of a submit refused before admission (the caller raises)."""
        if trace is not None:
            trace.finish("shed", reason=reason)
        self.metrics.record_backpressure()
        self.obs.events.emit("shed", model=model, reason=reason, count=1)

    def submit_many(
        self,
        X: np.ndarray,
        *,
        model: str,
        stream_id: str = "",
        deadline_s: Optional[float] = None,
        drain_timeout_s: float = 30.0,
    ) -> list[PendingResult]:
        """Submit every row of ``X``; returns one future per row.

        All-or-nothing admission: if a row's ``submit`` is refused with
        :class:`ServiceOverloadedError` (after the retry policy, if any,
        gave up), the rows already submitted are drained -- their results
        awaited and discarded, dedup followers included, since a follower's
        future resolves with its primary -- before the error is re-raised.
        A retrying caller therefore never stacks orphaned requests onto the
        already-saturated pending budget.
        """
        X = np.asarray(X)
        if X.ndim == 1:
            X = X[np.newaxis, :]
        futures: list[PendingResult] = []
        try:
            for row in X:
                futures.append(self.submit(
                    row, model=model, stream_id=stream_id, deadline_s=deadline_s
                ))
        except ServiceOverloadedError:
            # Drain without flushing: the deadline dispatcher cuts the
            # orphans' lane within max_delay_ms, and a global flush here
            # would fragment every other caller's half-filled batches at
            # the exact moment the service is saturated.
            for future in futures:
                try:
                    future.result(drain_timeout_s)
                except ServiceError:
                    pass
            raise
        return futures

    def classify(
        self,
        model: str,
        X: np.ndarray,
        *,
        stream_id: str = "",
        timeout: float = 30.0,
        deadline_s: Optional[float] = None,
    ) -> list[ClassificationResponse]:
        """Synchronous convenience: submit every row of ``X`` and wait.

        This is the path :class:`repro.pipeline.system.RecognitionSystem`
        uses to push a frame's silhouettes through the service.  Delegates
        admission (and its all-or-nothing overload drain) to
        :meth:`submit_many`.
        """
        futures = self.submit_many(
            X, model=model, stream_id=stream_id, deadline_s=deadline_s,
            drain_timeout_s=timeout,
        )
        return [future.result(timeout) for future in futures]

    def flush(self) -> None:
        """Force-dispatch every buffered lane (bounded-latency barrier)."""
        for batch in self.scheduler.drain():
            self._dispatch(batch)

    # ------------------------------------------------------------------ #
    # Dispatch and the terminal paths
    # ------------------------------------------------------------------ #
    def _dispatch(self, batch: MicroBatch) -> None:
        # First deadline shed, before the shard queue (the shard sheds
        # again just before kernel launch).
        live, expired = batch.partition_expired(self._clock())
        if expired is not None:
            self._fail(None, expired, DeadlineExceededError(batch.model))
        if live is None:
            return
        self.metrics.record_batch(len(live), live.fill_fraction)
        for request in live.requests:
            if request.trace is not None:
                # The batch-cut timestamp is the queue/batch boundary: the
                # request stopped waiting for peers and started waiting for
                # a shard.  The shard ends the batch span at kernel start.
                request.trace.end("queue", t=live.cut_at)
                request.trace.begin("batch", t=live.cut_at)
        try:
            self.registry.submit(live)
        except BaseException as error:  # saturated queues shed, the rest fail
            self._fail(None, live, error)

    def _retire(self, requests: Sequence[ClassificationRequest]) -> None:
        """Retire requests from the dedup table (identity-checked).

        After this no submit can coalesce onto them, so each request's
        ``followers`` list is frozen and safe to iterate without the lock.
        """
        with self._inflight_lock:
            for request in requests:
                key = (request.model, request.cache_key)
                if self._inflight.get(key) is request:
                    del self._inflight[key]

    def _release(self, count: int) -> None:
        with self._pending_lock:
            self._pending -= count

    def _on_batch_done(
        self, shard: WorkerShard, batch: MicroBatch, prediction: BatchPrediction
    ) -> None:
        """Success path: answer a classified batch and its followers."""
        requests = batch.requests
        self._retire(requests)
        responses = resolve_requests(requests, prediction, clock=self._clock)
        answers = list(zip(requests, responses))
        answers += [
            (follower, resolve_follower(follower, response, clock=self._clock))
            for request, response in zip(requests, responses)
            for follower in request.followers
        ]
        for waiter, response in answers:
            if waiter.trace is not None:
                flags = {"deduplicated": True} if response.deduplicated else {}
                waiter.trace.finish("ok", label=response.label, **flags)
        self._release(len(requests))
        if self._board is not None:
            self._board.record(batch.model, shard.name, ok=True)
        for _, response in answers:
            self.metrics.record_response(response.latency_s)
        # Memoise before answering, so a caller that resubmits the moment
        # it is woken hits the cache.  Under the generation lock: a swap
        # bumps the generation only after the shards flipped, so a request
        # stamped with the current one was scored by the current map and no
        # superseded outcome is written after the swap's invalidation ran.
        with self._gen_lock:
            current = self._generations.get(batch.model, 0)
            for request, response in zip(requests, responses):
                if request.generation != current:
                    continue
                outcome = CachedOutcome(
                    response.label, response.neuron, response.distance,
                    response.rejected, response.confidence,
                )
                try:
                    self.cache.put(request.model, request.cache_key, outcome)
                except Exception:
                    # A cache write fault loses a memoisation, nothing
                    # else: the response is still delivered below.
                    self.metrics.record_cache_error()
        for waiter, response in answers:
            waiter.pending.set_result(response)
        if self._rollout is not None:
            # Shadow mirroring runs dead last: every caller already has its
            # answer, so a slow (or crashing) candidate cannot touch the
            # primary path.  The hook itself only enqueues.
            try:
                self._rollout.mirror_batch(batch, responses)
            except Exception:  # pragma: no cover - mirroring must not fail
                pass

    def _fail(
        self, shard: Optional[WorkerShard], batch: MicroBatch, error: BaseException
    ) -> None:
        """The one failure path: end ``batch`` and its followers with ``error``.

        The registry calls it as the shards' failure hook (kernel raise,
        pre-kernel deadline, cancelled queue, abandoned worker); the
        service calls it with ``shard=None`` (dispatch-time deadline,
        saturated shard queues, lane eviction, the stop race).  Deadline
        errors and saturated queues at dispatch are sheds; the rest are
        errors.
        """
        if isinstance(error, DeadlineExceededError):
            reason: Optional[str] = "deadline_exceeded"
        elif shard is None and isinstance(error, ServiceOverloadedError):
            reason = "shard_queues"
        else:
            reason = None
        requests = batch.requests
        self._retire(requests)
        status = "error" if reason is None else "shed"
        for request in requests:
            for waiter in (request, *request.followers):
                if waiter.trace is not None:
                    waiter.trace.finish(status, error=type(error).__name__)
        self._release(len(requests))
        if reason is not None:
            if reason == "deadline_exceeded":
                self.metrics.record_deadline_exceeded(len(requests))
            else:
                self.metrics.record_backpressure(len(requests))
            self.obs.events.emit(
                "shed", model=batch.model, reason=reason, count=len(requests)
            )
        elif (
            shard is not None
            and self._board is not None
            and not isinstance(error, (ModelEvictedError, ShardFailedError))
        ):
            # Kernel failures feed the breaker.  Evictions say nothing about
            # shard health; the supervisor's restart hook records deaths.
            self._board.record(batch.model, shard.name, ok=False)
        fail_requests(requests, error)

    def _on_shard_restart(self, model: str, shard_name: str, reason: str) -> None:
        """Supervisor hook: a dead/wedged worker was replaced."""
        self.metrics.record_shard_restart()
        self.obs.events.emit(
            "shard_restart", model=model, shard=shard_name, reason=reason
        )
        if self._board is not None:
            self._board.record(model, shard_name, ok=False)

    def _on_shard_disabled(self, model: str, shard_name: str, reason: str) -> None:
        """Supervisor hook: a shard exhausted its restart budget."""
        self.obs.events.emit(
            "shard_disabled", model=model, shard=shard_name, reason=reason
        )
        if self._board is not None:
            self._board.record(model, shard_name, ok=False)

    def _dispatch_loop(self) -> None:
        max_idle_wait = max(self.config.max_delay_ms / 1e3, 0.01)
        while not self._stop_event.is_set():
            deadline = self.scheduler.next_deadline()
            if deadline is None:
                self._wake.wait(timeout=max_idle_wait)
                self._wake.clear()
                continue
            remaining = deadline - self._clock()
            if remaining > 0:
                self._wake.wait(timeout=remaining)
                self._wake.clear()
            for batch in self.scheduler.due():
                self._dispatch(batch)

    # ------------------------------------------------------------------ #
    # Telemetry
    # ------------------------------------------------------------------ #
    @property
    def pending_requests(self) -> int:
        """Admitted requests not yet resolved (cache hits excluded)."""
        with self._pending_lock:
            return self._pending

    def metrics_snapshot(self) -> MetricsSnapshot:
        """Current counters plus a live per-shard queue-depth sample."""
        return self.metrics.snapshot(self.registry.queue_depths())
