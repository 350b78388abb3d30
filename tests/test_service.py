"""The labeling service: warm pool, admission control, batching, drain.

Two layers under test. :class:`repro.service.pool.WarmWorkerPool` — the
pre-forked labelers over a long-lived shm arena — must return answers
byte-identical to the serial vectorised engine, survive worker death by
respawning, and drain idempotently without leaking a single ``psm_*``
segment. :class:`repro.service.frontend.LabelService` — the async front
end — must reject at admission with *typed* errors (overload, quota,
closed, bad input), batch correctly at the boundaries (a lone request
ships as a 1-image batch), and serve concurrent clients answers equal
to a direct :func:`repro.label` call.
"""

from __future__ import annotations

import os
import threading
import time

import numpy as np
import pytest

import repro
from repro.errors import (
    InputError,
    QuotaExceededError,
    ServiceClosedError,
    ServiceError,
    ServiceOverloadedError,
    WorkerCrashError,
)
from repro.faults import FaultPlan, FaultSpec, ResilienceConfig
from repro.service import LabelService, ServiceConfig, WarmWorkerPool
from repro.verify import canonicalize_labeling

FAST = ResilienceConfig(
    max_retries=2, backoff_base=0.01, backoff_factor=2.0,
    backoff_max=0.05, phase_timeout=60.0,
)


def _shm_segments() -> set[str]:
    try:
        return {f for f in os.listdir("/dev/shm") if f.startswith("psm_")}
    except FileNotFoundError:  # pragma: no cover - non-Linux
        return set()


def _rand_images(seed, n, shape=(32, 32), density=0.45):
    rng = np.random.default_rng(seed)
    return [
        (rng.random(shape) < density).astype(np.uint8) for _ in range(n)
    ]


class TestWarmWorkerPool:
    def test_byte_identical_to_serial_engine(self):
        imgs = _rand_images(0, 4, shape=(48, 48))
        with WarmWorkerPool(workers=2, batch_slots=4,
                            resilience=FAST) as pool:
            labels, counts = pool.dispatch(imgs)
        for img, lab, n in zip(imgs, labels, counts):
            exp, n_exp = repro.label(img, engine="vectorized")
            assert np.array_equal(lab, exp)
            assert n == n_exp
            # and partition-equal to the default (AREMSP) labeling
            dflt, n_dflt = repro.label(img)
            assert n == n_dflt
            assert np.array_equal(
                canonicalize_labeling(dflt), canonicalize_labeling(lab)
            )

    def test_empty_batch_is_noop(self):
        with WarmWorkerPool(workers=1, batch_slots=2,
                            resilience=FAST) as pool:
            assert pool.dispatch([]) == ([], [])

    def test_batch_larger_than_slots_rejected(self):
        imgs = _rand_images(1, 3, shape=(8, 8))
        with WarmWorkerPool(workers=1, batch_slots=2,
                            resilience=FAST) as pool:
            with pytest.raises(ServiceError):
                pool.dispatch(imgs)

    def test_oversized_image_rejected(self):
        big = np.ones((40, 40), dtype=np.uint8)
        with WarmWorkerPool(workers=1, batch_slots=2, slot_shape=(32, 32),
                            resilience=FAST) as pool:
            with pytest.raises(ServiceError):
                pool.dispatch([big])

    def test_drain_idempotent_and_leak_free(self):
        before = _shm_segments()
        pool = WarmWorkerPool(workers=2, batch_slots=2, resilience=FAST)
        pool.dispatch(_rand_images(2, 2, shape=(16, 16)))
        assert _shm_segments() - before  # arena exists while running
        pool.drain()
        pool.drain()  # double signal: pure no-op
        assert pool.closed
        assert _shm_segments() == before
        with pytest.raises(ServiceClosedError):
            pool.dispatch(_rand_images(3, 1, shape=(8, 8)))

    def test_concurrent_drain_single_owner(self):
        pool = WarmWorkerPool(workers=1, batch_slots=2, resilience=FAST)
        errors = []

        def drain():
            try:
                pool.drain(timeout=30.0)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=drain) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert pool.closed

    @pytest.mark.chaos
    def test_killed_worker_respawns_and_answers(self):
        """A kill_worker directive murders worker 0 on its first job;
        the dispatch must respawn it against the same arena and still
        return the right answer — and drain must leave /dev/shm clean."""
        before = _shm_segments()
        plan = FaultPlan(
            [FaultSpec(kind="kill_worker", phase="service", rank=0,
                       attempt=0, exit_code=9)]
        )
        img = _rand_images(4, 1, shape=(48, 48))[0]
        with WarmWorkerPool(workers=1, batch_slots=2, resilience=FAST,
                            fault_plan=plan) as pool:
            labels, counts = pool.dispatch([img])
            assert pool.respawns == 1
        exp, n_exp = repro.label(img, engine="vectorized")
        assert np.array_equal(labels[0], exp)
        assert counts[0] == n_exp
        assert _shm_segments() == before

    @pytest.mark.chaos
    def test_retry_exhaustion_is_typed(self):
        """Every generation of worker 0 dies: the dispatch must give up
        with a typed WorkerCrashError naming the phase, not hang."""
        config = ResilienceConfig(
            max_retries=1, backoff_base=0.01, backoff_factor=2.0,
            backoff_max=0.02, phase_timeout=60.0,
        )
        plan = FaultPlan(
            [FaultSpec(kind="kill_worker", phase="service", rank=0,
                       attempt=a, exit_code=9) for a in range(3)]
        )
        img = _rand_images(5, 1, shape=(16, 16))[0]
        with WarmWorkerPool(workers=1, batch_slots=2, resilience=config,
                            fault_plan=plan) as pool:
            with pytest.raises(WorkerCrashError) as err:
                pool.dispatch([img])
        assert err.value.phase == "service"
        assert err.value.ranks == (0,)


class _BlockedPool:
    """Stand-in pool whose dispatch blocks until released — pins the
    dispatcher inside a batch so admission control can be probed
    deterministically."""

    def __init__(self):
        self.release = threading.Event()
        self.entered = threading.Event()
        self.respawns = 0
        self.batches: list[tuple[int, int]] = []  # (connectivity, size)

    def dispatch(self, images, connectivity=8, timeout=None,
                 request_ids=None):
        self.entered.set()
        assert self.release.wait(30.0)
        self.batches.append((connectivity, len(images)))
        out = []
        counts = []
        for img in images:
            lab, n = repro.label(
                img, engine="vectorized", connectivity=connectivity
            )
            out.append(lab)
            counts.append(n)
        return out, counts

    def drain(self, timeout=None):
        self.release.set()


def _blocked_service(**cfg) -> tuple[LabelService, _BlockedPool]:
    svc = LabelService(ServiceConfig(workers=1, **cfg))
    real = svc._pool
    real.drain()
    blocked = _BlockedPool()
    svc._pool = blocked
    return svc, blocked


class TestAdmissionControl:
    def test_backpressure_typed_and_immediate(self):
        svc, blocked = _blocked_service(max_queue=3, tenant_quota=100,
                                        batch_size=1)
        try:
            first = svc.submit(np.eye(8, dtype=np.uint8))
            assert blocked.entered.wait(10.0)  # dispatcher is pinned
            for _ in range(3):
                svc.submit(np.eye(8, dtype=np.uint8))
            with pytest.raises(ServiceOverloadedError) as err:
                svc.submit(np.eye(8, dtype=np.uint8))
            assert err.value.queue_depth == 3
        finally:
            blocked.release.set()
            svc.drain()
        assert first.result(10.0)[1] == 1

    def test_tenant_quota_isolates_tenants(self):
        svc, blocked = _blocked_service(max_queue=50, tenant_quota=2,
                                        batch_size=1)
        try:
            svc.submit(np.eye(8, dtype=np.uint8), tenant="chatty")
            assert blocked.entered.wait(10.0)
            svc.submit(np.eye(8, dtype=np.uint8), tenant="chatty")
            with pytest.raises(QuotaExceededError) as err:
                svc.submit(np.eye(8, dtype=np.uint8), tenant="chatty")
            assert err.value.tenant == "chatty"
            assert err.value.in_flight == 2
            # the noisy neighbour must not starve anyone else
            other = svc.submit(np.eye(8, dtype=np.uint8), tenant="quiet")
        finally:
            blocked.release.set()
            svc.drain()
        assert other.result(10.0)[1] == 1

    def test_bad_inputs_rejected_at_admission(self):
        with LabelService(ServiceConfig(workers=1)) as svc:
            with pytest.raises(InputError):
                svc.submit(np.ones((4, 4, 4), dtype=np.uint8))  # 3-D
            with pytest.raises(InputError):
                svc.submit(np.array([[0.5, 1.5]]))  # non-binary floats
            with pytest.raises(InputError):
                svc.submit(np.ones((300, 300), dtype=np.uint8))  # > slot
            # coercible layouts are *accepted*, same as label()
            lab, n = svc.label(np.eye(8, dtype=bool))
            assert n == 1

    def test_submit_after_drain_is_closed_error(self):
        svc = LabelService(ServiceConfig(workers=1))
        svc.drain()
        with pytest.raises(ServiceClosedError):
            svc.submit(np.eye(8, dtype=np.uint8))


class TestBatching:
    def test_single_request_ships_as_one_image_batch(self):
        with LabelService(
            ServiceConfig(workers=1, batch_size=8)
        ) as svc:
            lab, n = svc.label(np.eye(16, dtype=np.uint8))
            stats = svc.stats()
        assert n == 1
        assert stats.batches == 1
        assert stats.completed == 1

    def test_batch_size_one_config(self):
        with LabelService(
            ServiceConfig(workers=1, batch_size=1)
        ) as svc:
            futs = [
                svc.submit(img)
                for img in _rand_images(6, 5, shape=(16, 16))
            ]
            for f in futs:
                f.result(30.0)
            stats = svc.stats()
        assert stats.batches == 5  # no coalescing possible

    def test_mixed_connectivity_never_shares_a_batch(self):
        img = _rand_images(7, 1, shape=(24, 24))[0]
        svc, blocked = _blocked_service(batch_size=8)
        try:
            pin = svc.submit(np.eye(8, dtype=np.uint8))
            assert blocked.entered.wait(10.0)  # dispatcher is pinned
            f8 = svc.submit(img, connectivity=8)
            f4 = svc.submit(img, connectivity=4)
        finally:
            blocked.release.set()
            svc.drain()
        assert pin.result(10.0)[1] == 1
        lab8, n8 = f8.result(10.0)
        lab4, n4 = f4.result(10.0)
        # both were queued together, yet each went out in its own batch
        assert blocked.batches == [(8, 1), (8, 1), (4, 1)]
        exp8, e8 = repro.label(img, engine="vectorized", connectivity=8)
        exp4, e4 = repro.label(img, engine="vectorized", connectivity=4)
        assert np.array_equal(lab8, exp8) and n8 == e8
        assert np.array_equal(lab4, exp4) and n4 == e4

    def test_invalid_config_rejected(self):
        for bad in (
            dict(workers=0),
            dict(batch_size=0),
            dict(max_queue=0),
            dict(tenant_quota=0),
        ):
            with pytest.raises(ValueError):
                ServiceConfig(**bad)


class TestConcurrentClients:
    def test_concurrent_clients_match_label(self):
        """The headline property: N threads hammering the service get
        answers byte-identical to the serial vectorised engine and
        partition-identical to the default label() call."""
        per_client = 6
        n_clients = 4
        results: dict[int, list] = {i: [] for i in range(n_clients)}
        errors: list[Exception] = []
        with LabelService(
            ServiceConfig(workers=2, max_queue=64, tenant_quota=64)
        ) as svc:

            def client(cid: int) -> None:
                try:
                    imgs = _rand_images(100 + cid, per_client)
                    futs = [
                        svc.submit(img, tenant=f"client-{cid}")
                        for img in imgs
                    ]
                    for img, fut in zip(imgs, futs):
                        results[cid].append((img, fut.result(60.0)))
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            threads = [
                threading.Thread(target=client, args=(i,))
                for i in range(n_clients)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            stats = svc.stats()
        assert not errors
        for cid in range(n_clients):
            assert len(results[cid]) == per_client
            for img, (lab, n) in results[cid]:
                exp, n_exp = repro.label(img, engine="vectorized")
                assert np.array_equal(lab, exp)
                assert n == n_exp
        assert stats.completed == per_client * n_clients
        assert stats.latency_p99_ms >= stats.latency_p50_ms >= 0.0

    def test_service_drain_idempotent_and_leak_free(self):
        before = _shm_segments()
        svc = LabelService(ServiceConfig(workers=2))
        fut = svc.submit(np.eye(16, dtype=np.uint8))
        threads = [
            threading.Thread(target=svc.drain) for _ in range(3)
        ]
        for t in threads:
            t.start()
        svc.drain()
        for t in threads:
            t.join()
        # the queued request was served, not dropped
        assert fut.result(10.0)[1] == 1
        assert _shm_segments() == before

    @pytest.mark.chaos
    def test_service_survives_worker_murder(self):
        plan = FaultPlan(
            [FaultSpec(kind="kill_worker", phase="service", rank=0,
                       attempt=0, exit_code=9)]
        )
        img = _rand_images(8, 1, shape=(48, 48))[0]
        before = _shm_segments()
        with LabelService(
            ServiceConfig(workers=1), resilience=FAST, fault_plan=plan
        ) as svc:
            lab, n = svc.label(img, timeout=60.0)
            stats = svc.stats()
        exp, n_exp = repro.label(img, engine="vectorized")
        assert np.array_equal(lab, exp)
        assert n == n_exp
        assert stats.pool_respawns == 1
        assert _shm_segments() == before
