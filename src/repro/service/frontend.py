"""Labeling-as-a-service: admission control, micro-batching, drain.

The async front end over :class:`~repro.service.pool.WarmWorkerPool`.
Request lifecycle:

1. **admission** — :meth:`LabelService.submit` validates the image
   through the one shared gate (:func:`repro.types.ensure_input`, so a
   bad dtype is the same typed :class:`~repro.errors.InputError`
   everywhere), checks it fits a pool slot, then applies admission
   control: a full queue is an immediate typed
   :class:`~repro.errors.ServiceOverloadedError` (backpressure, not an
   unbounded queue) and a tenant over its in-flight quota an immediate
   :class:`~repro.errors.QuotaExceededError`;
2. **micro-batching** — a dispatcher thread drains the queue into
   batches of up to ``batch_size`` requests (a lone request ships as a
   1-image batch; it never waits for company longer than
   :data:`BATCH_WINDOW`) and dispatches each batch to one warm worker
   as a single pipe round-trip;
3. **completion** — each request's ``Future`` resolves to
   ``(labels, n_components)``, byte-identical to a direct
   :func:`repro.label` call;
4. **degradation** — if the pool exhausts its respawn budget, the
   dispatcher walks the :class:`~repro.faults.DegradationPolicy`
   ladder for that batch: ``threads`` / ``serial`` rungs run the same
   run-based kernel in-coordinator (through
   :func:`~repro.parallel.backends.executor.get_map_executor`), so
   requests still complete — slower, never wrong;
5. **drain** — :meth:`LabelService.drain` closes the front door
   (:class:`~repro.errors.ServiceClosedError` for new requests),
   finishes everything queued, then drains the pool; idempotent under
   double-signal, like every shutdown path in this repo.

Observability: ``service.queue_depth`` / ``service.inflight`` gauges
track occupancy, ``service.latency_p50_ms`` / ``p95`` / ``p99`` the
submit→complete latency distribution over a sliding window, and
``service.*`` counters the admission/batch/degrade traffic — the same
``repro.obs`` stream the perf gate reads, so SLOs regress loudly. The
gauges publish **incrementally** (on every completed batch, not just
at ``stats()``/drain), so a mid-run ``/metrics`` scrape sees live
values. Every service also carries an always-on
:class:`~repro.obs.runtime.RuntimeAggregator` (``service.runtime``)
feeding rolling-window latency quantiles, labelled rejection counters
and queue-depth gauges to the ``/metrics`` endpoint
(:func:`repro.obs.runtime.serve_service_metrics`) and the SLO
monitors; tracing adds a ``frontend`` lane span per request whose
``request_id`` attr stitches to the worker-lane spans shipped back
through the pool pipe (see docs/OBSERVABILITY.md and
docs/SERVICE.md).
"""

from __future__ import annotations

import dataclasses
import threading
import time
from concurrent.futures import Future
from typing import Sequence

import numpy as np

from ..ccl.run_based import run_based_vectorized
from ..errors import (
    InputError,
    QuotaExceededError,
    ReproError,
    ServiceClosedError,
    ServiceError,
    ServiceOverloadedError,
)
from ..faults import DegradationPolicy
from ..obs import get_recorder
from ..obs.runtime.aggregator import RuntimeAggregator
from ..obs.runtime.context import new_request_id
from ..parallel.backends.executor import get_map_executor
from ..types import ensure_input
from .pool import DEFAULT_SLOT_SHAPE, WarmWorkerPool

__all__ = ["ServiceConfig", "LabelService", "ServiceStats"]

#: How long (seconds) a dispatcher holding fewer than ``batch_size``
#: queued requests waits for batchmates before it ships them.
BATCH_WINDOW = 0.002


@dataclasses.dataclass(frozen=True)
class ServiceConfig:
    """Knobs for one :class:`LabelService`.

    ``max_queue`` bounds admission (backpressure past it);
    ``tenant_quota`` bounds one tenant's in-flight requests (queued +
    executing); ``batch_size`` is the micro-batch ceiling;
    ``latency_window`` sizes the sliding sample the percentile gauges
    are computed over.
    """

    workers: int = 2
    batch_size: int = 8
    max_queue: int = 64
    tenant_quota: int = 32
    slot_shape: tuple[int, int] = DEFAULT_SLOT_SHAPE
    connectivity: int = 8
    latency_window: int = 512

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.batch_size < 1:
            raise ValueError(
                f"batch_size must be >= 1, got {self.batch_size}"
            )
        if self.max_queue < 1:
            raise ValueError(
                f"max_queue must be >= 1, got {self.max_queue}"
            )
        if self.tenant_quota < 1:
            raise ValueError(
                f"tenant_quota must be >= 1, got {self.tenant_quota}"
            )


@dataclasses.dataclass
class ServiceStats:
    """A point-in-time service health snapshot (see :meth:`stats`)."""

    queue_depth: int
    in_flight: int
    completed: int
    rejected_overload: int
    rejected_quota: int
    batches: int
    degraded_batches: int
    pool_respawns: int
    latency_p50_ms: float
    latency_p95_ms: float
    latency_p99_ms: float


class _Request:
    __slots__ = (
        "image", "tenant", "future", "submitted", "connectivity",
        "request_id",
    )

    def __init__(self, image, tenant, connectivity) -> None:
        self.image = image
        self.tenant = tenant
        self.connectivity = connectivity
        self.future: Future = Future()
        self.submitted = time.perf_counter()
        self.request_id = new_request_id()


class LabelService:
    """A warm, bounded, batch-dispatching labeling service.

    >>> import numpy as np
    >>> with LabelService(ServiceConfig(workers=1)) as svc:
    ...     labels, n = svc.label(np.eye(16, dtype=np.uint8))
    >>> int(n)
    1
    """

    def __init__(
        self,
        config: ServiceConfig | None = None,
        recorder=None,
        resilience=None,
        degradation: DegradationPolicy | None = None,
        fault_plan=None,
    ) -> None:
        self.config = config if config is not None else ServiceConfig()
        self._rec = recorder if recorder is not None else get_recorder()
        self._degradation = degradation
        #: always-on live telemetry — cheap enough to keep even when
        #: span tracing is off; ``/metrics`` and the SLO monitors read
        #: it (:func:`repro.obs.runtime.serve_service_metrics`).
        self.runtime = RuntimeAggregator()
        self._forced_rung: str | None = None
        self._pool = WarmWorkerPool(
            workers=self.config.workers,
            batch_slots=self.config.batch_size,
            slot_shape=self.config.slot_shape,
            connectivity=self.config.connectivity,
            resilience=resilience,
            fault_plan=fault_plan,
            recorder=self._rec,
        )
        self._queue: list[_Request] = []
        self._lock = threading.Lock()
        self._work_ready = threading.Condition(self._lock)
        self._tenant_inflight: dict[str, int] = {}
        self._state = "running"
        self._closed_event = threading.Event()
        self._completed = 0
        self._rejected_overload = 0
        self._rejected_quota = 0
        self._batches = 0
        self._degraded_batches = 0
        self._latencies: list[float] = []
        self._dispatchers = [
            threading.Thread(
                target=self._dispatch_loop,
                name=f"label-service-dispatch-{i}",
                daemon=True,
            )
            for i in range(self.config.workers)
        ]
        for t in self._dispatchers:
            t.start()

    # -- client API --------------------------------------------------------

    def submit(
        self,
        image: np.ndarray,
        tenant: str = "default",
        connectivity: int | None = None,
    ) -> Future:
        """Admit one request; returns a ``Future`` of
        ``(labels, n_components)``.

        Raises immediately (never queues the rejection):
        :class:`~repro.errors.InputError` for an unusable image,
        :class:`~repro.errors.ServiceOverloadedError` past
        ``max_queue``, :class:`~repro.errors.QuotaExceededError` past
        the tenant's quota,
        :class:`~repro.errors.ServiceClosedError` after drain began.
        """
        img = ensure_input(image)
        rows, cols = img.shape
        srows, scols = self.config.slot_shape
        if rows * cols > srows * scols:
            raise InputError(
                f"image {img.shape!r} exceeds the service slot shape "
                f"{self.config.slot_shape!r}; submit tiles or run "
                "tiled_label directly"
            )
        conn = (
            self.config.connectivity
            if connectivity is None
            else connectivity
        )
        req = _Request(img, str(tenant), conn)
        with self._lock:
            if self._state != "running":
                raise ServiceClosedError(
                    "service is draining; not accepting requests"
                )
            depth = len(self._queue)
            if depth >= self.config.max_queue:
                self._rejected_overload += 1
                self.runtime.inc(
                    "service.rejected", labels={"reason": "overload"}
                )
                if self._rec.enabled:
                    self._rec.count("service.rejected.overload")
                raise ServiceOverloadedError(
                    f"queue full ({depth}/{self.config.max_queue}); "
                    "retry with backoff",
                    queue_depth=depth,
                )
            inflight = self._tenant_inflight.get(req.tenant, 0)
            if inflight >= self.config.tenant_quota:
                self._rejected_quota += 1
                self.runtime.inc(
                    "service.rejected", labels={"reason": "quota"}
                )
                if self._rec.enabled:
                    self._rec.count("service.rejected.quota")
                raise QuotaExceededError(
                    f"tenant {req.tenant!r} has {inflight} requests in "
                    f"flight (quota {self.config.tenant_quota})",
                    tenant=req.tenant,
                    in_flight=inflight,
                )
            self._tenant_inflight[req.tenant] = inflight + 1
            self._queue.append(req)
            self.runtime.inc("service.requests")
            self.runtime.set_gauge(
                "service.queue_depth", float(len(self._queue))
            )
            if self._rec.enabled:
                self._rec.count("service.requests")
                self._rec.gauge(
                    "service.queue_depth", float(len(self._queue))
                )
            self._work_ready.notify()
        return req.future

    def label(
        self,
        image: np.ndarray,
        tenant: str = "default",
        connectivity: int | None = None,
        timeout: float | None = 60.0,
    ) -> tuple[np.ndarray, int]:
        """Synchronous convenience: submit and wait."""
        return self.submit(image, tenant, connectivity).result(timeout)

    @property
    def state(self) -> str:
        """``running`` → ``draining`` → ``closed`` (readiness probes
        key off this: anything but ``running`` answers 503)."""
        return self._state

    def publish_runtime(self) -> None:
        """Refresh pull-only runtime gauges (scrape-time collect hook).

        Counter-style and latency values publish incrementally from
        the hot path; this covers the handful of values that are only
        observable by asking (pool respawn count, live queue depth
        between batches) so a scrape never reads startup zeros.
        """
        with self._lock:
            depth = len(self._queue)
            inflight = sum(self._tenant_inflight.values())
        self.runtime.set_gauge("service.queue_depth", float(depth))
        self.runtime.set_gauge("service.inflight", float(inflight))
        self.runtime.set_gauge(
            "service.pool_respawns", float(self._pool.respawns)
        )
        self.runtime.set_gauge(
            "service.degraded",
            0.0 if self._forced_rung is None else 1.0,
        )

    def force_degraded(self, rung: str = "threads") -> None:
        """Pin batch execution to an in-coordinator ladder rung.

        The SLO hook (:func:`repro.obs.runtime.degradation_trigger`)
        calls this on breach: subsequent batches skip the warm pool
        and run on the named :class:`~repro.faults.DegradationPolicy`
        rung (``threads`` or ``serial``) until
        :meth:`clear_degraded` — slower, never wrong, and the pool
        stays warm for the recovery. Idempotent per rung.
        """
        if rung not in ("threads", "serial"):
            raise ValueError(
                f"rung must be 'threads' or 'serial', got {rung!r}"
            )
        with self._lock:
            previous, self._forced_rung = self._forced_rung, rung
        if previous != rung:
            self.runtime.inc(
                "service.degrade.forced", labels={"rung": rung}
            )
            if self._rec.enabled:
                self._rec.count("service.degrade.forced")

    def clear_degraded(self) -> None:
        """Lift a :meth:`force_degraded` override (operator action)."""
        with self._lock:
            self._forced_rung = None

    def stats(self) -> ServiceStats:
        """Snapshot health and publish the gauges the perf gate reads."""
        with self._lock:
            depth = len(self._queue)
            inflight = sum(self._tenant_inflight.values())
            lat = sorted(self._latencies)
            completed = self._completed
            snapshot = ServiceStats(
                queue_depth=depth,
                in_flight=inflight,
                completed=completed,
                rejected_overload=self._rejected_overload,
                rejected_quota=self._rejected_quota,
                batches=self._batches,
                degraded_batches=self._degraded_batches,
                pool_respawns=self._pool.respawns,
                latency_p50_ms=_percentile(lat, 0.50) * 1e3,
                latency_p95_ms=_percentile(lat, 0.95) * 1e3,
                latency_p99_ms=_percentile(lat, 0.99) * 1e3,
            )
        if self._rec.enabled:
            self._rec.gauge("service.queue_depth", float(depth))
            self._rec.gauge("service.inflight", float(inflight))
            self._rec.gauge(
                "service.latency_p50_ms", snapshot.latency_p50_ms
            )
            self._rec.gauge(
                "service.latency_p95_ms", snapshot.latency_p95_ms
            )
            self._rec.gauge(
                "service.latency_p99_ms", snapshot.latency_p99_ms
            )
        return snapshot

    def drain(self, timeout: float | None = 60.0) -> None:
        """Graceful shutdown: finish the queue, then drain the pool.

        Idempotent under double-signal — the first caller does the
        work, any later or concurrent caller waits for it to finish.
        """
        with self._lock:
            if self._state == "running":
                self._state = "draining"
                owner = True
            else:
                owner = False
            self._work_ready.notify_all()
        if not owner:
            if not self._closed_event.wait(
                timeout if timeout is not None else 300.0
            ):
                raise ServiceError("drain did not complete in time")
            return
        deadline = (
            time.monotonic() + timeout if timeout is not None else None
        )
        for t in self._dispatchers:
            remaining = (
                None
                if deadline is None
                else max(0.0, deadline - time.monotonic())
            )
            t.join(remaining)
        self._pool.drain(
            None if deadline is None
            else max(0.0, deadline - time.monotonic())
        )
        with self._lock:
            self._state = "closed"
            leftovers = list(self._queue)
            self._queue.clear()
        for req in leftovers:  # pragma: no cover - dispatcher drains first
            req.future.set_exception(
                ServiceClosedError("service drained before dispatch")
            )
        self._closed_event.set()
        if self._rec.enabled:
            self._rec.count("service.drained")

    close = drain

    def __enter__(self) -> "LabelService":
        return self

    def __exit__(self, *exc) -> bool:
        self.drain()
        return False

    # -- dispatcher --------------------------------------------------------

    def _take_batch(self) -> list[_Request] | None:
        """Pop the next micro-batch (same-connectivity prefix), or
        ``None`` when draining and empty."""
        with self._lock:
            while True:
                while not self._queue:
                    if self._state != "running":
                        return None
                    self._work_ready.wait(timeout=0.5)
                if (
                    len(self._queue) < self.config.batch_size
                    and self._state == "running"
                ):
                    # brief company window: a lone request never waits
                    # longer than BATCH_WINDOW for batchmates. The wait
                    # drops the lock, so a sibling dispatcher may have
                    # taken the queue — re-check before popping.
                    self._work_ready.wait(timeout=BATCH_WINDOW)
                if self._queue:
                    break
            batch = [self._queue.pop(0)]
            while (
                self._queue
                and len(batch) < self.config.batch_size
                and self._queue[0].connectivity == batch[0].connectivity
            ):
                batch.append(self._queue.pop(0))
            if self._rec.enabled:
                self._rec.gauge(
                    "service.queue_depth", float(len(self._queue))
                )
        return batch

    def _dispatch_loop(self) -> None:
        while True:
            batch = self._take_batch()
            if batch is None:
                return
            self._run_batch(batch)

    def _run_batch(self, batch: list[_Request]) -> None:
        images = [req.image for req in batch]
        connectivity = batch[0].connectivity
        forced = self._forced_rung
        try:
            if forced is not None:
                labels, counts = self._run_inline(
                    images, connectivity, forced
                )
                degraded_to = forced
            else:
                labels, counts = self._pool.dispatch(
                    images,
                    connectivity,
                    request_ids=[req.request_id for req in batch],
                )
                degraded_to = None
        except ReproError as exc:
            labels, counts, degraded_to = self._degrade_batch(
                images, connectivity, exc, batch
            )
            if labels is None:
                return
        now = time.perf_counter()
        with self._lock:
            self._batches += 1
            if degraded_to is not None:
                self._degraded_batches += 1
            for req in batch:
                self._latencies.append(now - req.submitted)
                self._tenant_inflight[req.tenant] -= 1
                if self._tenant_inflight[req.tenant] <= 0:
                    del self._tenant_inflight[req.tenant]
                self._completed += 1
            excess = len(self._latencies) - self.config.latency_window
            if excess > 0:
                del self._latencies[:excess]
            lat = sorted(self._latencies)
        # incremental publication: gauges and rolling windows are
        # fresh after every batch, so a mid-run /metrics scrape (or
        # an SLO evaluation) sees live values, not drain-time flushes.
        self.runtime.inc("service.batches")
        if degraded_to is not None:
            self.runtime.inc(
                "service.degraded_batches", labels={"rung": degraded_to}
            )
        for req in batch:
            self.runtime.observe(
                "service.latency_ms", (now - req.submitted) * 1e3
            )
        self.runtime.set_gauge(
            "service.latency_p50_ms", _percentile(lat, 0.50) * 1e3
        )
        self.runtime.set_gauge(
            "service.latency_p95_ms", _percentile(lat, 0.95) * 1e3
        )
        self.runtime.set_gauge(
            "service.latency_p99_ms", _percentile(lat, 0.99) * 1e3
        )
        if self._rec.enabled:
            self._rec.count("service.batches")
            self._rec.count("service.batch_images", len(batch))
            self._rec.gauge(
                "service.latency_p50_ms", _percentile(lat, 0.50) * 1e3
            )
            self._rec.gauge(
                "service.latency_p95_ms", _percentile(lat, 0.95) * 1e3
            )
            self._rec.gauge(
                "service.latency_p99_ms", _percentile(lat, 0.99) * 1e3
            )
            for req in batch:
                attrs = {
                    "request_id": req.request_id,
                    "tenant": req.tenant,
                }
                if degraded_to is not None:
                    attrs["degraded_to"] = degraded_to
                self._rec.add_span(
                    "frontend",
                    "service.request",
                    req.submitted,
                    now,
                    attrs=attrs,
                )
        for req, lab, n in zip(batch, labels, counts):
            req.future.set_result((lab, n))

    def _run_inline(
        self,
        images: Sequence[np.ndarray],
        connectivity: int,
        rung: str,
    ) -> tuple[list[np.ndarray], list[int]]:
        """Label a batch in-coordinator on a degradation-ladder rung."""
        with get_map_executor(
            rung, max_workers=self.config.workers
        ) as ex:
            results = ex.map(
                _label_inline,
                [(img, connectivity) for img in images],
            )
        return [r[0] for r in results], [r[1] for r in results]

    def _degrade_batch(
        self,
        images: Sequence[np.ndarray],
        connectivity: int,
        exc: Exception,
        batch: list[_Request],
    ):
        """Walk the degradation ladder in-coordinator for one batch."""
        ladder = (
            self._degradation.ladder_from("processes")[1:]
            if self._degradation is not None
            else ()
        )
        for rung in ladder:
            self.runtime.inc(
                "service.degrade.fallback", labels={"rung": rung}
            )
            if self._rec.enabled:
                self._rec.count("service.degrade.fallback")
                self._rec.count(f"service.degrade.to.{rung}")
            try:
                labels, counts = self._run_inline(
                    images, connectivity, rung
                )
                return labels, counts, rung
            except ReproError:  # pragma: no cover - rung also broken
                continue
        self._fail_batch(batch, exc)
        return None, None, None

    def _fail_batch(self, batch: list[_Request], exc: Exception) -> None:
        with self._lock:
            for req in batch:
                self._tenant_inflight[req.tenant] -= 1
                if self._tenant_inflight[req.tenant] <= 0:
                    del self._tenant_inflight[req.tenant]
        self.runtime.inc("service.batch_failed")
        if self._rec.enabled:
            self._rec.count("service.batch_failed")
        for req in batch:
            req.future.set_exception(exc)


def _label_inline(args: tuple) -> tuple[np.ndarray, int]:
    """Degraded-rung labeler: same kernel the pool workers run."""
    img, connectivity = args
    local = run_based_vectorized(img, connectivity)
    return local.labels, int(local.n_components)


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending sample (0.0 if empty)."""
    if not sorted_values:
        return 0.0
    rank = min(
        len(sorted_values) - 1,
        max(0, int(round(q * (len(sorted_values) - 1)))),
    )
    return sorted_values[rank]
