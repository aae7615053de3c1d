"""Every terminal path of the streaming service, checked for "exactly once".

A request can end in eleven ways: a cache hit, a stale hit, as a dedup
follower, refused at submit (pending budget, open circuit), shed on its
deadline (at dispatch or just before the kernel), shed by saturated shard
queues, failed by a raising kernel, or failed by an eviction (from the
scheduler lane or from a shard queue).  For each, one parametrised test
counts every ``PendingResult.set_result``/``set_exception`` call with a
test-side wrapper and checks, at quiescence:

* each future is set exactly once,
* the pending budget is back to 0 and the dedup table is empty, and
* accepted = answered + failed + shed, with the service's own counters
  agreeing on accepted and answered.

The ordering tests below them pin the terminal order itself: a caller
woken by ``result()`` must already see its budget slot released and its
trace finished.
"""

from __future__ import annotations

import collections
import sys
import threading
import time

import pytest

from repro.core import SomClassifier
from repro.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    InjectedFaultError,
    ModelEvictedError,
    ServiceOverloadedError,
)
from repro.serve import (
    BreakerConfig,
    FaultInjector,
    FaultSpec,
    ServiceConfig,
    StreamingInferenceService,
)
from repro.serve.request import PendingResult
from repro.serve.resilience import KERNEL_RAISE
from tests.test_lifecycle import _fit


class GatedClassifier(SomClassifier):
    """Holds its worker inside the kernel until ``gate`` opens."""

    def __init__(self, fitted: SomClassifier):
        super().__init__(fitted.som)
        self.labelling = fitted.labelling
        self.entered = threading.Event()
        self.gate = threading.Event()

    def predict_batch_packed(self, input_words):
        self.entered.set()
        self.gate.wait(10.0)
        return super().predict_batch_packed(input_words)


@pytest.fixture()
def set_counts(monkeypatch):
    """Count every future resolution, keyed by the future's id."""
    counts: collections.Counter = collections.Counter()
    for name in ("set_result", "set_exception"):
        original = getattr(PendingResult, name)

        def counted(self, value, _original=original):
            counts[id(self)] += 1
            _original(self, value)

        monkeypatch.setattr(PendingResult, name, counted)
    return counts


def _service(classifier, *, injector=None, **config_kwargs):
    config_kwargs.setdefault("batch_size", 256)
    config_kwargs.setdefault("max_delay_ms", 60_000.0)
    config_kwargs.setdefault("n_shards", 1)
    config_kwargs.setdefault("cache_capacity", 0)
    config_kwargs.setdefault("supervisor", None)
    config = ServiceConfig(fault_injector=injector, **config_kwargs)
    service = StreamingInferenceService(config=config)
    service.register_model("m", classifier)
    return service.start()


def _submit_flush(service, x, **kwargs):
    future = service.submit(x, model="m", **kwargs)
    service.flush()
    return future


# Each scenario drives one terminal outcome and returns the accepted
# futures; it asserts that the outcome it is named for really happened.
def cache_hit(service, X, fitted):
    first = _submit_flush(service, X[0])
    first.result(10.0)
    hit = service.submit(X[0], model="m")
    assert hit.result(10.0).cached
    return [first, hit]


def stale_hit(service, X, fitted):
    fresh = _submit_flush(service, X[0])
    fresh.result(10.0)
    service.cache.invalidate_model("m")  # demote to the stale tier
    failing = _submit_flush(service, X[1])
    with pytest.raises(InjectedFaultError):
        failing.result(10.0)
    stale = service.submit(X[0], model="m")
    assert stale.result(10.0).stale
    return [fresh, failing, stale]


def dedup_follower(service, X, fitted):
    primary = service.submit(X[0], model="m")
    follower = _submit_flush(service, X[0])
    assert follower.result(10.0).deduplicated
    return [primary, follower]


def pending_budget_shed(service, X, fitted):
    kept = service.submit(X[0], model="m")
    with pytest.raises(ServiceOverloadedError):
        service.submit(X[1], model="m")
    service.flush()
    return [kept]


def circuit_open_shed(service, X, fitted):
    failing = _submit_flush(service, X[0])
    with pytest.raises(InjectedFaultError):
        failing.result(10.0)
    with pytest.raises(CircuitOpenError):
        service.submit(X[1], model="m")
    return [failing]


def dispatch_deadline_shed(service, X, fitted):
    doomed = service.submit(X[0], model="m", deadline_s=0.005)
    follower = service.submit(X[0], model="m")
    alive = service.submit(X[1], model="m")
    time.sleep(0.03)
    service.flush()
    for future in (doomed, follower):
        with pytest.raises(DeadlineExceededError):
            future.result(10.0)
    return [doomed, follower, alive]


def pre_kernel_deadline_shed(service, X, classifier):
    held = _submit_flush(service, X[0])
    assert classifier.entered.wait(10.0)
    doomed = _submit_flush(service, X[1], deadline_s=0.01)
    time.sleep(0.03)  # expires in the shard queue, behind the held batch
    classifier.gate.set()
    with pytest.raises(DeadlineExceededError):
        doomed.result(10.0)
    return [held, doomed]


def shard_queue_shed(service, X, classifier):
    held = _submit_flush(service, X[0])
    assert classifier.entered.wait(10.0)
    queued = _submit_flush(service, X[1])  # fills the one-deep queue
    shed = _submit_flush(service, X[2])
    with pytest.raises(ServiceOverloadedError):
        shed.result(10.0)
    classifier.gate.set()
    return [held, queued, shed]


def kernel_raise(service, X, fitted):
    primary = service.submit(X[0], model="m")
    follower = _submit_flush(service, X[0])
    for future in (primary, follower):
        with pytest.raises(InjectedFaultError):
            future.result(10.0)
    return [primary, follower]


def lane_eviction(service, X, fitted):
    primary = service.submit(X[0], model="m")
    follower = service.submit(X[0], model="m")
    service.evict_model("m")
    for future in (primary, follower):
        with pytest.raises(ModelEvictedError):
            future.result(10.0)
    return [primary, follower]


def shard_queue_eviction(service, X, classifier):
    held = _submit_flush(service, X[0])
    assert classifier.entered.wait(10.0)
    queued = service.submit(X[1], model="m")
    follower = _submit_flush(service, X[1])
    # Open the gate only after evict has cancelled the queue, so the held
    # batch finishes and the evicting stop() can join its worker.
    opener = threading.Timer(0.05, classifier.gate.set)
    opener.start()
    service.evict_model("m")
    opener.join(10.0)
    assert not opener.is_alive()
    for future in (queued, follower):
        with pytest.raises(ModelEvictedError):
            future.result(10.0)
    return [held, queued, follower]


KERNEL_FAULT = dict(injector=lambda: FaultInjector(specs=[FaultSpec(KERNEL_RAISE)]))
BREAKER = BreakerConfig(failure_threshold=1, reset_timeout_s=60.0)

SCENARIOS = {
    "cache_hit": (cache_hit, dict(cache_capacity=64)),
    "stale_hit": (
        stale_hit,
        dict(
            cache_capacity=64,
            breaker=BREAKER,
            injector=lambda: FaultInjector(specs=[FaultSpec(KERNEL_RAISE, start_after=1)]),
        ),
    ),
    "dedup_follower": (dedup_follower, {}),
    "pending_budget_shed": (pending_budget_shed, dict(max_pending=1)),
    "circuit_open_shed": (circuit_open_shed, dict(breaker=BREAKER, **KERNEL_FAULT)),
    "dispatch_deadline_shed": (dispatch_deadline_shed, {}),
    "pre_kernel_deadline_shed": (pre_kernel_deadline_shed, dict(gated=True)),
    "shard_queue_shed": (shard_queue_shed, dict(gated=True, shard_queue_capacity=1)),
    "kernel_raise": (kernel_raise, KERNEL_FAULT),
    "lane_eviction": (lane_eviction, {}),
    "shard_queue_eviction": (shard_queue_eviction, dict(gated=True)),
}


def _settle(future) -> None:
    """Wait for ``future`` to become terminal, whatever its outcome."""
    try:
        future.result(10.0)
    except Exception:
        pass


def _outcome(future) -> str:
    try:
        future.result(0)
    except (ServiceOverloadedError, DeadlineExceededError):
        return "shed"
    except Exception:
        return "failed"
    return "answered"


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_every_terminal_outcome_resolves_exactly_once(name, set_counts, cluster_data):
    X, y = cluster_data
    scenario, options = SCENARIOS[name]
    options = dict(options)
    fitted = _fit(X, y)
    classifier = GatedClassifier(fitted) if options.pop("gated", False) else fitted
    make_injector = options.pop("injector", None)
    injector = make_injector() if make_injector is not None else None
    service = _service(classifier, injector=injector, **options)
    try:
        futures = scenario(service, X, classifier)
        for future in futures:
            _settle(future)
    finally:
        if isinstance(classifier, GatedClassifier):
            classifier.gate.set()
        service.stop()

    assert all(future.done() for future in futures)
    assert [set_counts[id(future)] for future in futures] == [1] * len(futures)
    assert set(set_counts.values()) == {1}  # no hidden future set twice
    assert service.pending_requests == 0
    assert service._inflight == {}
    outcomes = collections.Counter(_outcome(future) for future in futures)
    accepted = len(futures)
    assert accepted == outcomes["answered"] + outcomes["failed"] + outcomes["shed"]
    assert service.metrics.requests_total == accepted
    assert service.metrics.responses_total == outcomes["answered"]


# --------------------------------------------------------------------- #
# Terminal order: bookkeeping is done before the future wakes its caller
# --------------------------------------------------------------------- #
@pytest.fixture()
def fast_thread_switches():
    """Switch threads every microsecond so an ordering race shows up."""
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(previous)


def _assert_bookkeeping_done(service) -> None:
    assert service.pending_requests == 0
    assert service.obs.tracer.active_count == 0
    trace = service.obs.tracer.completed()[-1]
    assert trace.finished and trace.status == "error"


def test_kernel_raise_bookkeeping_precedes_the_error(fast_thread_switches, cluster_data):
    X, y = cluster_data
    injector = FaultInjector(specs=[FaultSpec(KERNEL_RAISE)])
    service = _service(_fit(X, y), injector=injector, trace_sample_every=1)
    try:
        for _ in range(50):
            # Eight requests per batch widen the window a resolve-first
            # shard would leave between the first future and the budget.
            futures = [service.submit(x, model="m") for x in X[:8]]
            service.flush()
            with pytest.raises(InjectedFaultError):
                futures[0].result(10.0)
            _assert_bookkeeping_done(service)
            for future in futures[1:]:
                with pytest.raises(InjectedFaultError):
                    future.result(10.0)
    finally:
        service.stop()


def test_queued_eviction_bookkeeping_precedes_the_error(fast_thread_switches, cluster_data):
    X, y = cluster_data
    fitted = _fit(X, y)
    service = _service(fitted, trace_sample_every=1)
    try:
        for index in range(50):
            name = f"victim-{index}"
            service.register_model(name, fitted)
            # A stopped worker leaves the batch sitting in its shard queue,
            # where the eviction's cancel pass finds it.
            assert service.registry.group(name).shards[0].stop(timeout=5.0)
            future = service.submit(X[index % len(X)], model=name)
            service.flush()
            evictor = threading.Thread(target=service.evict_model, args=(name,))
            evictor.start()
            with pytest.raises(ModelEvictedError):
                future.result(10.0)
            _assert_bookkeeping_done(service)
            evictor.join(10.0)
            assert not evictor.is_alive()
    finally:
        service.stop()
