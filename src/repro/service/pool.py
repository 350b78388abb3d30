"""The warm worker pool: pre-forked labelers over a long-lived arena.

The paper's PAREMSP pays its parallel dividend only when per-call setup
is amortised; ROADMAP item 1 names fork + shared-memory setup as the
dominant cost at service scale. This pool pays it **once**:

* the coordinator allocates one long-lived shared-memory **arena** —
  an image plane and a label plane, divided into fixed-size request
  slots — and pre-forks ``workers`` labeler processes on the pinned
  executor context (:func:`repro.parallel.backends.executor.
  executor_context`);
* each worker **attaches once** to the arena (through the
  concurrency-safe :func:`~repro.parallel.backends.processes._attach`
  — this is exactly the many-concurrent-attaches regime that made the
  register-swap race a release blocker) and then serves requests
  forever over a duplex pipe: the request is a few slot coordinates,
  the reply a component count — pixels never cross the pipe;
* each worker owns a **disjoint slot range** (worker *w* gets slots
  ``[w*batch_slots, (w+1)*batch_slots)``), so slot accounting is free
  and a respawned worker can redo a batch idempotently, the same
  disjoint-range contract the scan backend gets from Algorithm 7;
* worker death is detected through ``connection.wait`` on the reply
  pipe *and* the process sentinel, and the worker is respawned —
  attached to the same arena — with the
  :class:`~repro.faults.ResilienceConfig` retry/backoff budgets, the
  backoff interruptible by shutdown
  (:func:`repro.parallel.supervisor.interruptible_backoff`) so a
  closing pool never strands a respawning worker;
* ``drain()`` is **graceful and idempotent**: in-flight dispatches
  finish, workers get a stop message and are reaped through
  :func:`repro.parallel.supervisor.kill_workers`, the arena is
  unlinked exactly once — double-signal (two drains racing, drain
  during respawn backoff) is safe by construction.

Workers label with the run-based vectorised engine, whose finals are
byte-identical to sequential AREMSP (the PR-1 determinism contract), so
a service answer equals a direct :func:`repro.label` call.

Fault injection rides the ambient :class:`~repro.faults.FaultPlan`
under ``phase="service"``: ``kill_worker`` / ``delay_chunk`` directives
are shipped to workers at spawn, mirroring the scan backend's
coordinator-side arbitration.
"""

from __future__ import annotations

import os
import queue
import threading
import time
from multiprocessing import connection
from typing import Sequence

import numpy as np

from ..ccl.run_based import run_based_vectorized
from ..errors import (
    PhaseTimeoutError,
    ServiceClosedError,
    ServiceError,
    WorkerCrashError,
)
from ..faults import (
    DEFAULT_RESILIENCE,
    get_fault_plan,
    record_injection,
)
from ..obs import NULL_RECORDER
from ..parallel.backends.executor import executor_context
from ..parallel.backends.processes import (
    _apply_directives,
    _attach,
    create_segment,
)
from ..parallel.supervisor import interruptible_backoff, kill_workers
from ..types import LABEL_DTYPE, PIXEL_DTYPE

__all__ = ["WarmWorkerPool", "DEFAULT_SLOT_SHAPE"]

_LABEL_ITEMSIZE = np.dtype(LABEL_DTYPE).itemsize

#: default per-request slot: the small-image regime the micro-batching
#: path targets (Chen et al.'s coarse-to-fine CCL motivates <= 256^2).
DEFAULT_SLOT_SHAPE = (256, 256)

#: how often a blocked worker wakes to check its parent is alive.
_ORPHAN_POLL_S = 5.0


class _WorkerDied(Exception):
    """Internal: the dispatched worker died before replying."""

    def __init__(self, exitcode) -> None:
        super().__init__(f"pool worker died (exitcode {exitcode})")
        self.exitcode = exitcode


def _pool_worker(args: tuple) -> None:
    """Worker main loop: attach once, serve label requests forever.

    ``args`` is ``(img_name, lab_name, n_slots, slot_px, conn,
    parent_pid, directives)``. Requests are ``("job", job_id,
    [(slot, rows, cols, request_id), ...], connectivity, trace)``; the
    reply is ``("done", job_id, [n_components, ...], spans)`` — labels
    travel through the shared label plane, never the pipe. When
    *trace* is set the worker times every request (plus its engine
    phases, reconstructed from ``phase_seconds``) and ships the spans
    back as plain tuples; ``perf_counter`` is fork-comparable on
    Linux, so they line up with the coordinator's lanes. ``("stop",)``
    exits cleanly. A parent that vanishes (pipe EOF, or reparenting
    observed on the idle poll) ends the worker too: a warm pool must
    never orphan labelers.
    """
    (
        img_name,
        lab_name,
        n_slots,
        slot_px,
        conn,
        parent_pid,
        directives,
    ) = args
    try:
        segs = [_attach(img_name), _attach(lab_name)]
        img_arena = np.ndarray(
            (n_slots, slot_px), dtype=PIXEL_DTYPE, buffer=segs[0].buf
        )
        lab_arena = np.ndarray(
            (n_slots, slot_px), dtype=LABEL_DTYPE, buffer=segs[1].buf
        )
        pid = os.getpid()
        served = 0
        while True:
            while not conn.poll(_ORPHAN_POLL_S):
                if os.getppid() != parent_pid:
                    os._exit(0)
            try:
                msg = conn.recv()
            except EOFError:
                break
            if msg[0] == "stop":
                break
            _, job_id, items, connectivity, trace = msg
            if directives:
                _apply_directives(directives, served)
            counts = []
            spans: list[tuple] = []
            for slot, rows, cols, request_id in items:
                img = img_arena[slot, : rows * cols].reshape(rows, cols)
                t0 = time.perf_counter()
                local = run_based_vectorized(img, connectivity)
                t1 = time.perf_counter()
                lab_arena[slot, : rows * cols] = local.labels.ravel()
                counts.append(int(local.n_components))
                if trace:
                    attrs = {"pid": pid, "engine": local.algorithm}
                    if request_id is not None:
                        attrs["request_id"] = request_id
                    spans.append(
                        ("main", "request", t0, t1, 0, attrs)
                    )
                    # engine phases ran back-to-back inside [t0, t1];
                    # reconstruct them as nested sub-spans.
                    t = t0
                    sub = (
                        {"request_id": request_id}
                        if request_id is not None else None
                    )
                    for phase, dur in local.phase_seconds.items():
                        spans.append(
                            ("main", phase, t, t + dur, 1, sub)
                        )
                        t += dur
            conn.send(("done", job_id, counts, spans))
            served += 1
        for seg in segs:
            seg.close()
    except BaseException:
        import sys
        import traceback

        traceback.print_exc()
        sys.stderr.flush()
        os._exit(1)
    os._exit(0)


class WarmWorkerPool:
    """A persistent pre-forked labeling pool over a shared-memory arena.

    Parameters
    ----------
    workers:
        Pre-forked labeler processes (each owns a disjoint slot range).
    batch_slots:
        Request slots per worker — the maximum micro-batch one dispatch
        may carry.
    slot_shape:
        Per-request capacity; images larger than this are the caller's
        problem (the front end rejects them at admission).
    connectivity:
        Default connectivity for :meth:`dispatch`.
    resilience / fault_plan / recorder:
        The usual knobs (:class:`~repro.faults.ResilienceConfig`
        respawn budgets; ambient fault plan; ambient-or-given trace
        recorder).

    >>> import numpy as np
    >>> pool = WarmWorkerPool(workers=1, batch_slots=2)
    >>> img = np.eye(8, dtype=np.uint8)
    >>> labels, counts = pool.dispatch([img])
    >>> int(counts[0])
    1
    >>> pool.drain()
    """

    def __init__(
        self,
        workers: int = 2,
        batch_slots: int = 8,
        slot_shape: tuple[int, int] = DEFAULT_SLOT_SHAPE,
        connectivity: int = 8,
        resilience=None,
        fault_plan=None,
        recorder=None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if batch_slots < 1:
            raise ValueError(
                f"batch_slots must be >= 1, got {batch_slots}"
            )
        rows, cols = slot_shape
        if rows < 1 or cols < 1:
            raise ValueError(
                f"slot dimensions must be >= 1, got {slot_shape!r}"
            )
        self.workers = workers
        self.batch_slots = batch_slots
        self.slot_shape = (int(rows), int(cols))
        self.slot_px = int(rows) * int(cols)
        self.connectivity = connectivity
        self.resilience = (
            resilience if resilience is not None else DEFAULT_RESILIENCE
        )
        self._fault_plan = fault_plan
        self._rec = recorder if recorder is not None else NULL_RECORDER
        self._ctx = executor_context()
        n_slots = workers * batch_slots
        self._shm_img = create_segment(n_slots * self.slot_px)
        self._shm_lab = create_segment(
            n_slots * self.slot_px * _LABEL_ITEMSIZE
        )
        self._img_arena = np.ndarray(
            (n_slots, self.slot_px),
            dtype=PIXEL_DTYPE,
            buffer=self._shm_img.buf,
        )
        self._lab_arena = np.ndarray(
            (n_slots, self.slot_px),
            dtype=LABEL_DTYPE,
            buffer=self._shm_lab.buf,
        )
        #: (process, parent_conn, generation) per worker index.
        self._procs: list = [None] * workers
        self._generation = [0] * workers
        self._available: queue.Queue[int] = queue.Queue()
        self._job_seq = 0
        self._job_lock = threading.Lock()
        self._state = "running"
        self._state_lock = threading.Lock()
        self._closed_event = threading.Event()
        self._stop_event = threading.Event()
        self.respawns = 0
        try:
            for w in range(workers):
                self._spawn_worker(w)
                self._available.put(w)
        except BaseException:
            self._destroy_arena()
            raise
        if self._rec.enabled:
            self._rec.gauge(
                "service.arena_bytes",
                float(self._shm_img.size + self._shm_lab.size),
            )
            self._rec.count("service.pool_started")

    # -- lifecycle ---------------------------------------------------------

    def _plan(self):
        return (
            self._fault_plan
            if self._fault_plan is not None
            else get_fault_plan()
        )

    def _spawn_worker(self, w: int) -> None:
        """Fork worker *w* (or its replacement) attached to the arena."""
        plan = self._plan()
        directives: tuple = ()
        if plan.enabled:
            specs = plan.directives(
                "service", w, self._generation[w]
            )
            for spec in specs:
                record_injection(self._rec, spec)
            directives = tuple(
                (
                    spec.kind,
                    spec.after_chunks,
                    spec.exit_code
                    if spec.kind == "kill_worker"
                    else spec.delay_seconds,
                )
                for spec in specs
            )
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        job = (
            self._shm_img.name,
            self._shm_lab.name,
            self.workers * self.batch_slots,
            self.slot_px,
            child_conn,
            os.getpid(),
            directives,
        )
        proc = self._ctx.Process(
            target=_pool_worker, args=(job,), daemon=True
        )
        proc.start()
        child_conn.close()
        self._procs[w] = (proc, parent_conn)
        self._generation[w] += 1
        if self._rec.enabled:
            self._rec.count("service.worker_forked")

    def _destroy_arena(self) -> None:
        for seg in (self._shm_img, self._shm_lab):
            try:
                seg.close()
                seg.unlink()
            except (FileNotFoundError, OSError):
                pass

    @property
    def closed(self) -> bool:
        return self._state == "closed"

    def drain(self, timeout: float | None = None) -> None:
        """Gracefully stop the pool — idempotent under double-signal.

        The first caller flips the state to ``draining`` (new
        dispatches are rejected with
        :class:`~repro.errors.ServiceClosedError`), waits for every
        in-flight dispatch to check its worker back in, stops workers,
        reaps them through the idempotent
        :func:`~repro.parallel.supervisor.kill_workers`, and unlinks
        the arena. Every later (or concurrent) caller just waits for
        that first drain to finish — calling ``drain`` twice, or from
        two threads at once, or while a dispatch sits in respawn
        backoff, is safe: the backoff wakes on the stop event instead
        of re-forking, so no worker is stranded mid-respawn.
        """
        with self._state_lock:
            if self._state == "running":
                self._state = "draining"
                owner = True
            else:
                owner = False
        if not owner:
            if not self._closed_event.wait(
                timeout if timeout is not None else 300.0
            ):
                raise ServiceError("drain did not complete in time")
            return
        self._stop_event.set()
        deadline = (
            time.monotonic() + timeout if timeout is not None else None
        )
        try:
            for _ in range(self.workers):
                remaining = (
                    None
                    if deadline is None
                    else max(0.0, deadline - time.monotonic())
                )
                try:
                    self._available.get(timeout=remaining)
                except queue.Empty:
                    break  # in-flight dispatch overran: fall to kill
            procs = []
            for entry in self._procs:
                if entry is None:
                    continue
                proc, conn = entry
                try:
                    conn.send(("stop",))
                except (BrokenPipeError, OSError):
                    pass
                procs.append(proc)
            for entry in self._procs:
                if entry is None:
                    continue
                proc, conn = entry
                proc.join(5.0)
                try:
                    conn.close()
                except OSError:  # pragma: no cover - defensive
                    pass
            kill_workers(procs)
        finally:
            self._destroy_arena()
            self._state = "closed"
            self._closed_event.set()
            if self._rec.enabled:
                self._rec.count("service.pool_drained")

    close = drain

    def __enter__(self) -> "WarmWorkerPool":
        return self

    def __exit__(self, *exc) -> bool:
        self.drain()
        return False

    def __del__(self) -> None:  # pragma: no cover - GC timing
        if getattr(self, "_state", "closed") != "closed":
            try:
                self.drain(timeout=5.0)
            except Exception:
                pass

    # -- dispatch ----------------------------------------------------------

    def dispatch(
        self,
        images: Sequence[np.ndarray],
        connectivity: int | None = None,
        timeout: float | None = None,
        request_ids: Sequence[str | None] | None = None,
    ) -> tuple[list[np.ndarray], list[int]]:
        """Label a micro-batch of canonical images on one warm worker.

        *images* must be canonical binary arrays (the front end runs
        :func:`~repro.types.ensure_input` at admission) no larger than
        ``slot_shape``, at most ``batch_slots`` of them. Returns
        ``(labels, counts)`` — label arrays are fresh copies, the
        arena slots are reusable on return.

        *request_ids* (one per image, optional) travel to the worker
        and back on its spans, so a traced service request stitches
        into one multi-lane chrome trace across the fork boundary.

        A worker that dies mid-request is respawned (attached to the
        same arena) and the batch is redone — slot writes are
        idempotent — up to the resilience budget, then
        :class:`~repro.errors.WorkerCrashError`.
        """
        if not images:
            return [], []
        if len(images) > self.batch_slots:
            raise ServiceError(
                f"batch of {len(images)} exceeds batch_slots="
                f"{self.batch_slots}"
            )
        if self._state != "running":
            raise ServiceClosedError(
                "pool is draining or closed; no new dispatches"
            )
        conn_value = (
            self.connectivity if connectivity is None else connectivity
        )
        w = self._checkout(timeout)
        try:
            config = self.resilience
            last_exc: Exception | None = None
            for attempt in range(config.max_retries + 1):
                try:
                    return self._dispatch_once(
                        w, images, conn_value, request_ids
                    )
                except _WorkerDied as exc:
                    last_exc = exc
                    if self._rec.enabled:
                        self._rec.count("service.worker_crashed")
                    if attempt >= config.max_retries:
                        break
                    if interruptible_backoff(
                        config.backoff(attempt + 1), self._stop_event
                    ):
                        raise ServiceClosedError(
                            "pool drained while respawning a worker"
                        ) from exc
                    self._respawn(w)
            raise WorkerCrashError(
                f"pool worker {w} failed "
                f"{config.max_retries + 1} time(s): {last_exc}",
                ranks=(w,),
                phase="service",
                attempts=config.max_retries + 1,
            )
        finally:
            self._checkin(w)

    def _checkout(self, timeout: float | None) -> int:
        try:
            return self._available.get(
                timeout=timeout
                if timeout is not None
                else self.resilience.phase_timeout
            )
        except queue.Empty:
            raise ServiceError(
                "no pool worker became available in time"
            ) from None

    def _checkin(self, w: int) -> None:
        self._available.put(w)

    def _respawn(self, w: int) -> None:
        proc, conn = self._procs[w]
        kill_workers([proc])
        try:
            conn.close()
        except OSError:  # pragma: no cover - defensive
            pass
        self._spawn_worker(w)
        self.respawns += 1
        if self._rec.enabled:
            self._rec.count("service.worker_respawned")

    def _dispatch_once(
        self,
        w: int,
        images: Sequence[np.ndarray],
        connectivity: int,
        request_ids: Sequence[str | None] | None = None,
    ) -> tuple[list[np.ndarray], list[int]]:
        proc, pipe = self._procs[w]
        base = w * self.batch_slots
        trace = self._rec.enabled
        items = []
        for i, img in enumerate(images):
            rows, cols = img.shape
            if rows * cols > self.slot_px:
                raise ServiceError(
                    f"image {img.shape!r} exceeds the pool slot "
                    f"{self.slot_shape!r}"
                )
            slot = base + i
            self._img_arena[slot, : rows * cols] = img.ravel()
            rid = (
                request_ids[i]
                if request_ids is not None and i < len(request_ids)
                else None
            )
            items.append((slot, rows, cols, rid))
        with self._job_lock:
            self._job_seq += 1
            job_id = self._job_seq
        try:
            pipe.send(("job", job_id, items, connectivity, trace))
        except (BrokenPipeError, OSError):
            raise _WorkerDied(proc.exitcode) from None
        deadline = time.monotonic() + self.resilience.phase_timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                kill_workers([proc])
                if self._rec.enabled:
                    self._rec.count("watchdog.timeout")
                raise PhaseTimeoutError(
                    f"pool worker {w} did not reply within "
                    f"{self.resilience.phase_timeout:.1f}s",
                    phase="service",
                    timeout=self.resilience.phase_timeout,
                    ranks=(w,),
                )
            ready = connection.wait(
                [pipe, proc.sentinel], timeout=remaining
            )
            if pipe in ready:
                break
            if proc.sentinel in ready and not pipe.poll(0):
                # death detected the moment the kernel closes the
                # sentinel — not when a recv times out.
                proc.join()
                raise _WorkerDied(proc.exitcode)
        try:
            reply = pipe.recv()
        except EOFError:
            proc.join()
            raise _WorkerDied(proc.exitcode) from None
        if reply[0] != "done" or reply[1] != job_id:
            raise ServiceError(
                f"pool protocol violation from worker {w}: {reply[:2]!r}"
            )
        counts = reply[2]
        labels = []
        for (slot, rows, cols, _rid), _n in zip(items, counts):
            labels.append(
                np.array(
                    self._lab_arena[slot, : rows * cols].reshape(
                        rows, cols
                    ),
                    copy=True,
                )
            )
        if trace:
            self._absorb_worker_spans(w, reply[3])
            self._rec.count("service.dispatches")
            self._rec.count("service.images_labeled", len(images))
        return labels, [int(n) for n in counts]

    def _absorb_worker_spans(self, w: int, raw_spans) -> None:
        """Re-lane spans shipped back from worker *w* into the trace.

        The worker records on its own default lanes ("main"); here
        they become ``worker {w}`` so the chrome export shows one
        lane per pool worker next to the coordinator's frontend lane.
        ``perf_counter`` is fork-comparable on Linux, so the worker's
        raw timestamps slot straight in.
        """
        for lane, phase, start, stop, depth, attrs in raw_spans:
            if lane in ("main", "machine"):
                lane = f"worker {w}"
            else:
                lane = f"worker {w} {lane}"
            self._rec.add_span(
                lane, phase, start, stop, depth=depth, attrs=attrs
            )
