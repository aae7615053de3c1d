"""Request/response value objects for the streaming inference service.

A camera stream submits one :class:`ClassificationRequest` per silhouette
signature and receives a :class:`PendingResult` -- a small future that the
completion path resolves with a :class:`ClassificationResponse` once the
request's micro-batch has been classified (or immediately, on a cache hit).

The objects are deliberately dumb: all scheduling, caching and routing
policy lives in :mod:`repro.serve.service` and friends.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.errors import ResultTimeoutError, ServiceError
from repro.obs.trace import Trace


@dataclass(frozen=True)
class ClassificationResponse:
    """The service's answer to one classification request.

    Attributes
    ----------
    label:
        Predicted identity (``UNKNOWN_LABEL`` when rejected).
    neuron:
        Winning neuron index (``-1`` for cache hits recorded before the
        winning neuron was known -- never the case in practice, cached
        entries store the full outcome).
    distance:
        Winning (masked Hamming) distance.
    rejected:
        Whether the unknown-rejection threshold fired.
    confidence:
        Win-frequency purity of the winning neuron's label.
    model:
        Name of the registry model that served the request.
    stream_id:
        The camera stream the request came from.
    request_id:
        Service-wide monotonically increasing request number.
    cached:
        ``True`` when the answer came from the signature LRU cache and the
        SOM was never consulted.
    latency_s:
        Submit-to-resolve wall-clock latency in seconds.
    deduplicated:
        ``True`` when the answer was fanned out from another in-flight
        request with an identical packed signature -- the SOM executed one
        kernel for the whole group and this response rode along.
    stale:
        ``True`` when the answer came from the *stale* tier of the
        signature cache while every shard circuit breaker of the model was
        open (graceful degradation) -- the outcome may predate a hot-swap.
        Always ``cached=True`` as well.
    trace_id:
        Id of the request's trace when it was sampled
        (:class:`repro.obs.Tracer`); retrieve the full span breakdown with
        ``service.obs.trace(response.trace_id)``.  ``None`` when the
        request was not sampled.
    """

    label: int
    neuron: int
    distance: float
    rejected: bool
    confidence: float
    model: str
    stream_id: str
    request_id: int
    cached: bool
    latency_s: float
    deduplicated: bool = False
    stale: bool = False
    trace_id: Optional[int] = None


class PendingResult:
    """A minimal thread-safe future for one in-flight request.

    The wait primitive is one lock, taken at construction and released by
    the single :meth:`set_result` / :meth:`set_exception` call; waiters
    acquire and hand it straight back.  That is cheaper than a
    ``threading.Event`` (no condition variable per request) and makes
    "resolved exactly once" structural: a second resolution raises
    instead of silently replacing the answer.
    """

    __slots__ = ("_lock", "_done", "_response", "_error")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._lock.acquire()
        self._done = False
        self._response: Optional[ClassificationResponse] = None
        self._error: Optional[BaseException] = None

    def done(self) -> bool:
        """Whether a response (or error) has been delivered."""
        return self._done

    def set_result(self, response: ClassificationResponse) -> None:
        self._response = response
        self._resolve()

    def set_exception(self, error: BaseException) -> None:
        self._error = error
        self._resolve()

    def _resolve(self) -> None:
        if self._done:
            raise ServiceError("a PendingResult was resolved twice")
        self._done = True
        self._lock.release()

    def result(self, timeout: Optional[float] = None) -> ClassificationResponse:
        """Block until the response arrives; re-raise shard-side errors."""
        if not self._done:
            if not self._lock.acquire(timeout=-1 if timeout is None else max(timeout, 0)):
                raise ResultTimeoutError(timeout)
            self._lock.release()
        if self._error is not None:
            raise self._error
        assert self._response is not None
        return self._response


@dataclass
class ClassificationRequest:
    """One signature queued for micro-batched classification.

    ``packed`` is the request's only copy of its signature: ``uint64``
    words (:func:`repro.signatures.packing.packed_signature_words`),
    checked and packed once at submit time together with ``cache_key``
    (the words' raw bytes).  Shards stack the words and score them with
    :meth:`~repro.core.classifier.SomClassifier.predict_batch_packed`,
    which unpacks only for maps without a packed query path (the cSOM).

    ``generation`` stamps the model generation current at submit time (the
    service bumps it on every hot-swap/evict) so the completion path never
    memoises a prediction that might predate a swap.  ``followers`` holds
    deduplicated requests with an identical in-flight packed signature:
    they never reach a shard; the one kernel execution of this (primary)
    request resolves them all.

    ``trace`` rides along when the request was sampled: the scheduler, the
    worker shard and the completion path each stamp their stage spans onto
    it, so a single object reference carries the whole queue -> batch ->
    kernel -> resolve attribution across threads.

    ``deadline_at`` is the absolute monotonic clock value after which the
    caller no longer wants an answer (``None`` = no deadline).  The service
    sheds expired requests at dispatch time and the shard sheds again just
    before kernel launch, each with a terminal
    :class:`~repro.errors.DeadlineExceededError`.
    """

    packed: np.ndarray
    model: str
    stream_id: str
    request_id: int
    cache_key: bytes
    enqueued_at: float
    pending: PendingResult = field(default_factory=PendingResult)
    generation: int = 0
    followers: list["ClassificationRequest"] = field(default_factory=list)
    trace: Optional[Trace] = None
    deadline_at: Optional[float] = None

    def expired(self, now: float) -> bool:
        """Whether the request's deadline has passed at clock value ``now``."""
        return self.deadline_at is not None and now > self.deadline_at

    @property
    def trace_id(self) -> Optional[int]:
        return self.trace.trace_id if self.trace is not None else None


def resolve_requests(requests, prediction, *, clock) -> list[ClassificationResponse]:
    """Build each request's response from one row of a batch prediction.

    Shared by the service's completion path and by a registry used without
    a service: ``prediction`` is the :class:`repro.core.BatchPrediction`
    for the stacked signatures of ``requests``, in the same order.  No
    future is set here; the caller finishes its own bookkeeping first and
    then sets the futures.
    """
    responses: list[ClassificationResponse] = []
    now = clock()
    for row, request in enumerate(requests):
        response = ClassificationResponse(
            label=int(prediction.labels[row]),
            neuron=int(prediction.neurons[row]),
            distance=float(prediction.distances[row]),
            rejected=bool(prediction.rejected[row]),
            confidence=float(prediction.confidences[row]),
            model=request.model,
            stream_id=request.stream_id,
            request_id=request.request_id,
            cached=False,
            latency_s=max(0.0, now - request.enqueued_at),
            trace_id=request.trace_id,
        )
        responses.append(response)
    return responses


def resolve_follower(
    follower: ClassificationRequest, response: ClassificationResponse, *, clock
) -> ClassificationResponse:
    """Build a deduplicated follower's copy of its primary's response.

    The classification fields are shared -- one kernel execution answered
    the whole group -- but identity and latency are per-request, and the
    response is marked ``deduplicated`` so telemetry and tests can see the
    fan-out.
    """
    return ClassificationResponse(
        label=response.label,
        neuron=response.neuron,
        distance=response.distance,
        rejected=response.rejected,
        confidence=response.confidence,
        model=follower.model,
        stream_id=follower.stream_id,
        request_id=follower.request_id,
        cached=False,
        latency_s=max(0.0, clock() - follower.enqueued_at),
        deduplicated=True,
        trace_id=follower.trace_id,
    )


def fail_requests(requests, error: BaseException) -> None:
    """Fail every request's future with ``error``, dedup followers included.

    The last step of every failure path: a failed primary answers nobody,
    so its followers fail with it.
    """
    for request in requests:
        request.pending.set_exception(error)
        for follower in request.followers:
            follower.pending.set_exception(error)
