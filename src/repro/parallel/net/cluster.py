"""The multi-host cluster coordinator: ``shard_label`` across hosts.

:func:`net_shard_label` runs the elastic sharded pipeline of
:mod:`repro.parallel.sharded` with the *ranks* replaced by **hosts** —
``repro-shard-worker`` daemons reached over the :mod:`.transport`
channels, or loopback "virtual hosts" forked by
:class:`VirtualHostPool` so CI can exercise every multi-host failure
mode on one machine. The division of labour:

* **bulk data stays on the shared filesystem** — the image memmap, the
  provisional-label memmap, forests, seam pairs, checkpoints and the
  durable done markers all live in the same scratch tree the
  single-host runtime uses; the sockets carry *control* only (task
  dispatch, replies, liveness), so the wire cost is independent of the
  raster size;
* **liveness is lease-based** (:class:`~.membership.LeaseTable` on the
  coordinator's monotonic clock): a host that stops answering pings
  loses its lease, its claimed tasks migrate to the survivors — the
  same claim-release path a dead local rank takes — and when the
  partition heals it rejoins with a bumped incarnation, its stale work
  deduplicated by the done markers;
* **degradation is a ladder**: unreachable-majority (quorum loss)
  steps down to the single-host elastic pool
  (:func:`~repro.parallel.sharded._run_phase`), which itself steps
  down to inline execution — each drop recorded as a reasoned
  ``meta["degraded_from"]``, never a silent behaviour change.

Byte-identity with serial ``tiled_label`` is inherited from the
sharded runtime: hosts execute exactly the tasks local ranks would,
against the same scratch tree, so the proof in
:mod:`repro.parallel.sharded`'s docstring applies unchanged.
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import tempfile
import threading
import time

import numpy as np

from ...ccl.labeling import CCLResult, check_label_capacity
from ...errors import (
    ClusterQuorumError,
    NetError,
    PeerUnreachableError,
    PhaseTimeoutError,
)
from ...faults import (
    DEFAULT_RESILIENCE,
    NULL_PLAN,
    degradation_reason,
    record_injection,
)
from ...obs import NULL_RECORDER, PhaseTimer, get_recorder
from ...obs.runtime import get_runtime_aggregator
from ...types import ensure_input, ensure_lazy_input
from ..backends.executor import executor_context
from ..sharded import (
    _compute_offsets,
    _finalize_output,
    _flatten_lut,
    _init_scratch,
    _open_prov,
    _phase_dir,
    _record_claims_released,
    _run_phase,
    _save_npy_atomic,
    _undone,
    build_reduce_schedule,
    plan_shards,
)
from ..supervisor import kill_workers
from .membership import LeaseTable
from .transport import NetConfig, PartitionLink, PeerClient
from .worker import serve

__all__ = ["parse_hosts", "VirtualHostPool", "NetPool", "net_shard_label"]

#: idle dispatcher / coordinator poll tick (seconds).
_NET_POLL = 0.02

#: default lease duration (seconds) — a partitioned host is declared
#: dead and its work migrated after this much ping silence.
DEFAULT_LEASE_DURATION = 2.0


def parse_hosts(spec) -> list[tuple[str, int]]:
    """Parse ``"host:port,host:port"`` (or an iterable of ``host:port``
    strings / ``(host, port)`` pairs) into address tuples.

    >>> parse_hosts("127.0.0.1:7071, 10.0.0.2:7071")
    [('127.0.0.1', 7071), ('10.0.0.2', 7071)]
    """
    if isinstance(spec, str):
        parts: list = [p.strip() for p in spec.split(",") if p.strip()]
    else:
        parts = list(spec)
    addrs: list[tuple[str, int]] = []
    for part in parts:
        if isinstance(part, (tuple, list)) and len(part) == 2:
            host, port = part
        else:
            host, _, port = str(part).strip().rpartition(":")
        if not host or not str(port).strip():
            raise ValueError(
                f"host entry {part!r} is not host:port (in {spec!r})"
            )
        try:
            addrs.append((str(host), int(port)))
        except ValueError:
            raise ValueError(
                f"host entry {part!r} has a non-numeric port"
            ) from None
    if not addrs:
        raise ValueError(f"no hosts in {spec!r}")
    return addrs


# ---------------------------------------------------------------------------
# loopback virtual hosts
# ---------------------------------------------------------------------------


def _virtual_host_main(port_file: str, parent_pid: int) -> None:
    server = serve(
        "127.0.0.1", 0, port_file=port_file, parent_pid=parent_pid
    )
    server.wait()


class VirtualHostPool:
    """N loopback worker hosts as forked local processes.

    The CI stand-in for real machines: each "host" is a
    :class:`~.worker.WorkerServer` in its own process on an ephemeral
    loopback port, sharing the coordinator's filesystem — so the full
    multi-host protocol (framing, leases, partitions, migration) runs
    unchanged, just with zero-latency links. Hosts watch the
    coordinator's pid and self-terminate if orphaned.
    """

    def __init__(self, n: int, spawn_timeout: float = 10.0) -> None:
        if n < 1:
            raise ValueError(f"need at least 1 virtual host, got {n}")
        self._tmp = tempfile.TemporaryDirectory(prefix="repro-vhost-")
        ctx = executor_context()
        parent = os.getpid()
        self.procs = []
        port_files = []
        for i in range(n):
            pf = pathlib.Path(self._tmp.name) / f"host-{i}.port"
            proc = ctx.Process(
                target=_virtual_host_main,
                args=(str(pf), parent),
                name=f"net-vhost-{i}",
                daemon=True,
            )
            proc.start()
            self.procs.append(proc)
            port_files.append(pf)
        self.addrs: list[tuple[str, int]] = []
        deadline = time.monotonic() + spawn_timeout
        try:
            for pf in port_files:
                while not pf.exists():
                    if time.monotonic() > deadline:
                        raise PeerUnreachableError(
                            f"virtual host never published {pf.name} "
                            f"within {spawn_timeout:.1f}s",
                            peer=pf.name,
                            attempts=0,
                        )
                    time.sleep(0.01)
                host, _, port = pf.read_text().rpartition(":")
                self.addrs.append((host, int(port)))
        except Exception:
            self.close()
            raise

    def close(self) -> None:
        kill_workers(self.procs)
        self._tmp.cleanup()

    def __enter__(self) -> "VirtualHostPool":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False


# ---------------------------------------------------------------------------
# the task board (coordinator-side work queue over the done markers)
# ---------------------------------------------------------------------------


class _TaskBoard:
    """Thread-safe claim/done/release tracking for one phase.

    The in-memory twin of the scratch tree's done-marker directory:
    markers on disk are the *durable* record (they survive coordinator
    restarts and deduplicate migrated work), the board is the live
    dispatch state shared by the per-host dispatcher threads.
    """

    def __init__(self, pdir: pathlib.Path, tasks: list[str]) -> None:
        self._order = list(tasks)
        undone = set(_undone(pdir, tasks))
        self._pending = set(undone)
        self._claims: dict[str, int] = {}
        self._done = set(tasks) - undone
        self._failures: dict[str, int] = {}
        self._lock = threading.Lock()

    def claim(self, host: int) -> str | None:
        with self._lock:
            for task in self._order:
                if task in self._pending:
                    self._pending.discard(task)
                    self._claims[task] = host
                    return task
        return None

    def done(self, task: str) -> None:
        with self._lock:
            self._claims.pop(task, None)
            self._pending.discard(task)
            self._done.add(task)

    def release(self, task: str, host: int) -> None:
        with self._lock:
            if self._claims.get(task) == host and task not in self._done:
                del self._claims[task]
                self._pending.add(task)

    def release_host(self, host: int) -> int:
        """Migrate every task *host* holds back to pending."""
        with self._lock:
            mine = [t for t, h in self._claims.items() if h == host]
            for task in mine:
                del self._claims[task]
                self._pending.add(task)
            return len(mine)

    def fail(self, task: str) -> int:
        with self._lock:
            self._failures[task] = self._failures.get(task, 0) + 1
            return self._failures[task]

    def finished(self) -> bool:
        with self._lock:
            return not self._pending and not self._claims


# ---------------------------------------------------------------------------
# the host pool
# ---------------------------------------------------------------------------


class _Host:
    __slots__ = ("index", "addr", "name", "link", "ping", "work")

    def __init__(self, index: int, addr: tuple[str, int], run_id: str,
                 ping_config: NetConfig, work_config: NetConfig,
                 recorder, fault_plan) -> None:
        self.index = index
        self.addr = addr
        self.name = f"{addr[0]}:{addr[1]}"
        # one blackout switch covers both channels: a partition takes
        # out pings and work alike, exactly like a vanished route.
        self.link = PartitionLink()
        self.ping = PeerClient(
            addr, f"{run_id}:ping:{index}", ping_config,
            recorder=recorder, link=self.link,
        )
        self.work = PeerClient(
            addr, f"{run_id}:exec:{index}", work_config,
            recorder=recorder, fault_plan=fault_plan,
            fault_rank=index, link=self.link,
        )


def _net_count(recorder, name: str, n: int = 1, labels=None) -> None:
    """Count on the run recorder and, when a live ``/metrics`` endpoint
    is attached, on the ambient aggregator with host labels."""
    if recorder.enabled:
        recorder.count(name, n)
    agg = get_runtime_aggregator()
    if agg is not None:
        agg.inc(name, n, labels=labels)


class NetPool:
    """A set of worker hosts, their channels, leases and dispatchers.

    One pool spans the whole run; :meth:`run_phase` drives one shard
    phase across every host whose lease is alive, migrating work off
    hosts that go silent and welcoming back hosts that rejoin.
    """

    def __init__(
        self,
        addrs,
        *,
        config: NetConfig | None = None,
        recorder=None,
        fault_plan=None,
        lease_duration: float = DEFAULT_LEASE_DURATION,
        heartbeat_interval: float | None = None,
        quorum: int | None = None,
    ) -> None:
        addrs = [(h, int(p)) for h, p in addrs]
        if not addrs:
            raise ValueError("NetPool needs at least one host")
        self.config = config if config is not None else NetConfig()
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        self.fault_plan = fault_plan if fault_plan is not None else NULL_PLAN
        if lease_duration <= 0:
            raise ValueError(
                f"lease_duration must be > 0, got {lease_duration}"
            )
        self.lease_duration = float(lease_duration)
        self.heartbeat_interval = (
            float(heartbeat_interval)
            if heartbeat_interval is not None
            else max(0.05, self.lease_duration / 4.0)
        )
        self.quorum = (
            int(quorum) if quorum is not None
            else max(1, (len(addrs) + 1) // 2)
        )
        self.leases = LeaseTable(self.lease_duration)
        # liveness probes must resolve well inside one lease period, so
        # the ping channel gets its own sharp-deadline, no-retry config
        # (the call loop's retries would stretch one probe across the
        # whole lease and mask a dead host).
        ping_timeout = max(0.1, min(
            self.config.call_timeout, self.lease_duration / 2.0
        ))
        ping_config = NetConfig(
            connect_timeout=min(self.config.connect_timeout, ping_timeout),
            call_timeout=ping_timeout,
            exec_timeout=self.config.exec_timeout,
            max_retries=0,
        )
        run_id = f"{os.getpid():x}-{os.urandom(3).hex()}"
        self.hosts = [
            _Host(i, addr, run_id, ping_config, self.config,
                  self.recorder, self.fault_plan)
            for i, addr in enumerate(addrs)
        ]
        #: run-wide recovery tallies (mirrored into result meta).
        self.stats = {
            "net_tasks": 0,
            "tasks_deduped": 0,
            "task_errors": 0,
            "lease_expired": 0,
            "rejoined": 0,
            "partitions": 0,
        }
        self._stats_lock = threading.Lock()

    def _bump(self, key: str, n: int = 1) -> None:
        with self._stats_lock:
            self.stats[key] += n

    # -- membership -------------------------------------------------------

    def connect(self) -> tuple[tuple[str, ...], tuple[str, ...]]:
        """Probe every host once; returns (reachable, unreachable)."""
        dead: list[str] = []
        for host in self.hosts:
            self.leases.add(host.name)
            try:
                host.ping.call({"t": "ping"})
                self.leases.renew(host.name)
            except (NetError, OSError):
                self.leases.expire(host.name)
                dead.append(host.name)
        return self.leases.alive_members(), tuple(dead)

    def close(self) -> None:
        for host in self.hosts:
            host.ping.close()
            host.work.close()

    # -- one phase --------------------------------------------------------

    def run_phase(
        self,
        phase: str,
        tasks: list[str],
        payload: dict | None,
        ctx_wire: dict,
        *,
        phase_timeout: float,
        degrade: bool,
    ) -> dict:
        """Drive one phase's tasks across the alive hosts.

        Returns an agg dict shaped like the local ``_run_phase``'s; on
        quorum loss / watchdog expiry with *degrade* allowed the agg
        carries a reasoned ``degraded`` record and the caller finishes
        the remaining tasks down the ladder. Task completion truth is
        the done markers, so a later local continuation (or a healed
        host's stale reply) can never double-run work.
        """
        scratch = pathlib.Path(ctx_wire["scratch"])
        pdir = _phase_dir(scratch, phase)
        for sub in ("claim", "done", "hb"):
            (pdir / sub).mkdir(parents=True, exist_ok=True)

        agg: dict = {
            "tasks": len(tasks),
            "net_tasks": 0,
            "tasks_deduped": 0,
            "task_errors": 0,
            "lease_expired": 0,
            "rejoined": 0,
            "partitions": 0,
            "claims_released": 0,
            "degraded": None,
        }
        if not _undone(pdir, tasks):
            agg["skipped"] = True
            return agg

        # partition directives are arbitrated here, at the phase
        # boundary: the fault names the shard phase it blacks out and
        # `delay_seconds` is the outage duration before the link heals.
        if self.fault_plan.enabled:
            for host in self.hosts:
                spec = self.fault_plan.take(
                    "partition", phase, rank=host.index
                )
                if spec is not None:
                    record_injection(self.recorder, spec)
                    host.link.cut(spec.delay_seconds)
                    agg["partitions"] += 1
                    self._bump("partitions")
                    _net_count(
                        self.recorder, "net.partitions",
                        labels={"host": host.name},
                    )

        board = _TaskBoard(pdir, tasks)
        stop = threading.Event()
        threads: list[threading.Thread] = []
        dispatchers: dict[int, threading.Thread] = {}
        thread_lock = threading.Lock()
        poison: list[str] = []

        def dispatch(host: _Host) -> None:
            while not stop.is_set():
                if not self.leases.is_alive(host.name):
                    return
                task = board.claim(host.index)
                if task is None:
                    if board.finished():
                        return
                    time.sleep(_NET_POLL)
                    continue
                msg = {
                    "t": "exec",
                    "ctx": ctx_wire,
                    "phase": phase,
                    "task": task,
                    "node": (payload or {}).get(task),
                }
                try:
                    reply = host.work.call(
                        msg, timeout=self.config.exec_timeout
                    )
                except (NetError, OSError):
                    board.release(task, host.index)
                    time.sleep(_NET_POLL)
                    continue
                if reply.get("ok"):
                    if reply.get("cached"):
                        # the task was already done-marked (a migrated
                        # duplicate, or pre-partition work that landed):
                        # idempotency made the re-send a no-op.
                        with self._stats_lock:
                            agg["tasks_deduped"] += 1
                        self._bump("tasks_deduped")
                        _net_count(
                            self.recorder, "net.tasks_deduped",
                            labels={"host": host.name},
                        )
                    else:
                        with self._stats_lock:
                            agg["net_tasks"] += 1
                        self._bump("net_tasks")
                    board.done(task)
                else:
                    with self._stats_lock:
                        agg["task_errors"] += 1
                    self._bump("task_errors")
                    board.release(task, host.index)
                    if board.fail(task) > self.config.max_retries:
                        # every host rejects this task: a deterministic
                        # task error, not a transport problem. Hand it
                        # down the ladder where the real exception can
                        # surface in-process.
                        poison.append(
                            f"{task}: {reply.get('etype', 'Error')}: "
                            f"{reply.get('error', '?')}"
                        )
                        return
                    time.sleep(_NET_POLL)

        def start_dispatcher(host: _Host) -> None:
            with thread_lock:
                existing = dispatchers.get(host.index)
                if existing is not None and existing.is_alive():
                    return
                thread = threading.Thread(
                    target=dispatch, args=(host,),
                    name=f"net-dispatch-{phase}-{host.index}",
                    daemon=True,
                )
                dispatchers[host.index] = thread
                threads.append(thread)
                thread.start()

        def monitor() -> None:
            while not stop.is_set():
                for host in self.hosts:
                    try:
                        host.ping.call({"t": "ping"})
                    except (NetError, OSError):
                        continue
                    if self.leases.renew(host.name):
                        # expired -> renewed: the partition healed. New
                        # incarnation, fresh dispatcher; its first
                        # re-claims dedup against the done markers.
                        agg["rejoined"] += 1
                        self._bump("rejoined")
                        _net_count(
                            self.recorder, "net.rejoined",
                            labels={"host": host.name},
                        )
                        start_dispatcher(host)
                for name in self.leases.sweep():
                    host = next(
                        h for h in self.hosts if h.name == name
                    )
                    released = board.release_host(host.index)
                    agg["lease_expired"] += 1
                    agg["claims_released"] += released
                    self._bump("lease_expired")
                    _net_count(
                        self.recorder, "net.lease_expired",
                        labels={"host": host.name},
                    )
                    _record_claims_released(
                        self.recorder, f"host{host.index}", released
                    )
                stop.wait(self.heartbeat_interval)

        deadline = time.monotonic() + phase_timeout
        mon = threading.Thread(
            target=monitor, name=f"net-monitor-{phase}", daemon=True
        )
        threads.append(mon)
        mon.start()
        for host in self.hosts:
            if self.leases.is_alive(host.name):
                start_dispatcher(host)

        degrade_reason: dict | None = None
        try:
            while not board.finished():
                if poison:
                    err = NetError(
                        f"net phase {phase!r}: task failed on every "
                        f"host ({poison[0]})"
                    )
                    if not degrade:
                        raise err
                    degrade_reason = degradation_reason(
                        "net-sharded", err
                    )
                    break
                if time.monotonic() > deadline:
                    if self.recorder.enabled:
                        self.recorder.count("watchdog.timeout")
                    err = PhaseTimeoutError(
                        f"net phase {phase!r} watchdog expired after "
                        f"{phase_timeout:.1f}s with "
                        f"{len(_undone(pdir, tasks))} task(s) "
                        "unfinished",
                        phase=phase,
                        timeout=phase_timeout,
                    )
                    if not degrade:
                        raise err
                    degrade_reason = degradation_reason(
                        "net-sharded", err
                    )
                    break
                alive = self.leases.alive_members()
                if len(alive) < self.quorum:
                    unreachable = tuple(
                        h.name for h in self.hosts if h.name not in alive
                    )
                    err = ClusterQuorumError(
                        f"net phase {phase!r} lost quorum: "
                        f"{len(alive)} of {len(self.hosts)} host(s) "
                        f"reachable (need {self.quorum}); unreachable: "
                        f"{list(unreachable)}",
                        reachable=alive,
                        unreachable=unreachable,
                        quorum=self.quorum,
                    )
                    if not degrade:
                        raise err
                    degrade_reason = degradation_reason(
                        "net-sharded", err
                    )
                    break
                stop.wait(_NET_POLL)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=1.0)

        if degrade_reason is not None:
            agg["degraded"] = degrade_reason
            _net_count(self.recorder, "net.degraded")
        else:
            # every done marker this phase produced, whoever wrote it
            for task in tasks:
                try:
                    stats = json.loads(
                        (pdir / "done" / task).read_text()
                    )
                except (OSError, ValueError):
                    continue
                for key in ("tiles", "rescan_chunks", "seam_recovered"):
                    if stats.get(key):
                        agg[key] = agg.get(key, 0) + int(stats[key])
                if stats.get("resumed"):
                    agg.setdefault("resumed_tasks", []).append(task)
        return agg


# ---------------------------------------------------------------------------
# the multi-host label entry point
# ---------------------------------------------------------------------------


def _wire_image_path(image, scratch: pathlib.Path) -> str:
    """A filesystem path every host can ``np.load(mmap_mode='r')``.

    A ``.npy``-backed memmap is referenced in place; anything else is
    copied once into the scratch tree (which must be shared anyway).
    """
    filename = getattr(image, "filename", None)
    if filename:
        try:
            np.load(filename, mmap_mode="r")
            return str(filename)
        except (OSError, ValueError):
            pass  # raw (non-.npy) memmap: fall through to the copy
    path = scratch / "input.npy"
    if not path.exists():
        _save_npy_atomic(path, np.asarray(image))
    return str(path)


def net_shard_label(
    image,
    hosts=None,
    *,
    virtual_hosts: int | None = None,
    n_shards: int = 4,
    tile_shape: tuple[int, int] = (256, 256),
    connectivity: int = 8,
    checkpoint_dir: str | os.PathLike | None = None,
    checkpoint_every: int = 8,
    resume: bool = False,
    out: str | pathlib.Path | None = None,
    recorder=None,
    resilience=None,
    fault_plan=None,
    net_config: NetConfig | None = None,
    lease_duration: float = DEFAULT_LEASE_DURATION,
    heartbeat_interval: float | None = None,
    quorum_hosts: int | None = None,
    degrade: bool = True,
) -> CCLResult:
    """Label *image* with shard tasks spread across worker hosts.

    Output is byte-identical to
    ``tiled_label(image, tile_shape, connectivity)`` — under any number
    of hosts, partitions that heal, hosts that die, and every network
    fault of the chaos matrix; see docs/SHARDED.md ("Multi-host").

    Parameters
    ----------
    hosts:
        ``"host:port,host:port"`` (or a list) of running
        ``repro-shard-worker`` daemons sharing this coordinator's
        filesystem. Mutually exclusive with *virtual_hosts*.
    virtual_hosts:
        Spawn this many loopback worker processes instead — the CI
        harness for the full multi-host protocol on one machine.
    quorum_hosts:
        Minimum reachable hosts to keep the cluster rung running
        (default ``max(1, (n_hosts + 1) // 2)`` — an unreachable
        *majority* degrades). Below it the run steps down to the
        single-host elastic pool, then inline, each drop recorded as a
        reasoned ``meta["degraded_from"]`` — unless ``degrade=False``,
        in which case :class:`~repro.errors.ClusterQuorumError`
        propagates.
    lease_duration:
        Ping silence (seconds, coordinator's monotonic clock) after
        which a host is declared dead and its claimed tasks migrate.
    net_config:
        Transport knobs (:class:`~.transport.NetConfig`): timeouts
        (argument > ``REPRO_NET_*`` env > default), retry budget,
        backoff shape.

    Everything else (sharding, checkpoints, ``resume``, ``out``) means
    exactly what it means for :func:`repro.parallel.sharded.shard_label`.
    """
    rec = recorder if recorder is not None else get_recorder()
    resilience = resilience if resilience is not None else DEFAULT_RESILIENCE
    fault_plan = fault_plan if fault_plan is not None else NULL_PLAN
    if (hosts is None) == (virtual_hosts is None):
        raise ValueError(
            "exactly one of hosts= or virtual_hosts= must be given"
        )
    th, tw = tile_shape
    if th < 1 or tw < 1:
        raise ValueError(f"tile dimensions must be >= 1, got {tile_shape!r}")
    if isinstance(image, np.memmap):
        image = ensure_lazy_input(image)
    else:
        image = ensure_input(image)
    rows, cols = image.shape
    check_label_capacity((rows, cols))
    if rows == 0 or cols == 0:
        from ..tiled import tiled_label

        return tiled_label(
            image, tile_shape=tile_shape, connectivity=connectivity,
            recorder=rec, out=out,
        )

    plan = plan_shards(rows, cols, (th, tw), n_shards)
    S = plan.n_shards
    # the same fingerprint as the single-host runtime on purpose: a
    # net-mode scratch is resumable by shard_label and vice versa.
    fingerprint = {
        "kind": "sharded",
        "shape": [rows, cols],
        "dtype": str(np.asarray(image).dtype),
        "tile_shape": [th, tw],
        "connectivity": connectivity,
        "n_shards": S,
    }

    tmp_ctx = None
    if checkpoint_dir is not None:
        ck_root = pathlib.Path(checkpoint_dir)
        ck_root.mkdir(parents=True, exist_ok=True)
        scratch = ck_root / "scratch"
        if not resume and scratch.exists():
            shutil.rmtree(scratch)
    else:
        tmp_ctx = tempfile.TemporaryDirectory(prefix="repro-netshard-")
        scratch = pathlib.Path(tmp_ctx.name) / "scratch"

    vpool: VirtualHostPool | None = None
    pool: NetPool | None = None
    mark = rec.mark()
    timer = PhaseTimer(rec)
    try:
        _init_scratch(scratch, fingerprint, rows, cols)
        image_path = _wire_image_path(image, scratch)

        ctx = {
            "scratch": str(scratch),
            "image": image,
            "plan": plan,
            "connectivity": connectivity,
            "checkpoint_every": checkpoint_every,
            "use_checkpoint": checkpoint_dir is not None,
            "fingerprint": fingerprint,
        }
        ctx_wire = {
            "scratch": str(scratch),
            "image_path": image_path,
            "rows": rows,
            "cols": cols,
            "tile_shape": [th, tw],
            "bands": [list(b) for b in plan.bands],
            "connectivity": connectivity,
            "checkpoint_every": checkpoint_every,
            "use_checkpoint": checkpoint_dir is not None,
            "fingerprint": fingerprint,
        }

        if virtual_hosts is not None:
            vpool = VirtualHostPool(int(virtual_hosts))
            addrs = vpool.addrs
        else:
            addrs = parse_hosts(hosts)
        quorum = (
            int(quorum_hosts) if quorum_hosts is not None
            else max(1, (len(addrs) + 1) // 2)
        )
        pool = NetPool(
            addrs,
            config=net_config,
            recorder=rec,
            fault_plan=fault_plan,
            lease_duration=lease_duration,
            heartbeat_interval=heartbeat_interval,
            quorum=quorum,
        )
        alive, unreachable = pool.connect()
        net_ok = len(alive) >= quorum
        degraded_from: dict | None = None
        if not net_ok:
            err = ClusterQuorumError(
                f"only {len(alive)} of {len(addrs)} host(s) reachable "
                f"at start (need {quorum}); unreachable: "
                f"{list(unreachable)}",
                reachable=alive,
                unreachable=unreachable,
                quorum=quorum,
            )
            if not degrade:
                raise err
            degraded_from = degradation_reason("net-sharded", err)
            _net_count(rec, "net.degraded")

        local_ranks = max(1, min(S, 8))
        phase_stats: dict[str, dict] = {}

        def run(phase: str, tasks: list[str], payload: dict | None) -> None:
            nonlocal net_ok, degraded_from
            net_stats = None
            if net_ok:
                net_stats = pool.run_phase(
                    phase, tasks, payload, ctx_wire,
                    phase_timeout=resilience.phase_timeout,
                    degrade=degrade,
                )
                if net_stats.get("degraded"):
                    # quorum loss (or a poisoned task) mid-run: step
                    # down the ladder for the rest of the job. The done
                    # markers make the scratch resume-correct, so the
                    # local pool only runs what the hosts did not.
                    net_ok = False
                    if degraded_from is None:
                        degraded_from = net_stats["degraded"]
            if not net_ok:
                local = _run_phase(
                    ctx, phase, tasks, payload,
                    n_ranks=local_ranks,
                    resilience=resilience,
                    fault_plan=fault_plan,
                    recorder=rec,
                    quorum=1,
                    heartbeat_timeout=None,
                    degrade=degrade,
                )
                if net_stats is not None:
                    local["net"] = net_stats
                phase_stats[phase] = local
            else:
                phase_stats[phase] = net_stats

        with timer.time("scan"):
            run("scan", [f"shard-{s:04d}" for s in range(S)], None)

        offsets, totals, total = _compute_offsets(scratch, S)

        with timer.time("seam"):
            if S > 1:
                run("seam", [f"seam-{s:04d}" for s in range(S - 1)], None)

        levels, top_ref = build_reduce_schedule(S)
        with timer.time("reduce"):
            for level, nodes in enumerate(levels):
                payload = {node["id"]: node for node in nodes}
                run(
                    f"reduce-{level}",
                    [node["id"] for node in nodes],
                    payload,
                )

        with timer.time("flatten"):
            lut, n_components = _flatten_lut(ctx, top_ref, total)

        with timer.time("label"):
            prov = _open_prov(ctx, "r")
            final = _finalize_output(lut, prov, plan, offsets, totals, out)
            del prov

        net_totals = dict(pool.stats)
        shutil.rmtree(scratch, ignore_errors=True)
    finally:
        if pool is not None:
            pool.close()
        if vpool is not None:
            vpool.close()
        if tmp_ctx is not None:
            tmp_ctx.cleanup()

    if rec.enabled:
        rec.gauge("net.n_hosts", len(addrs))
        rec.gauge("shard.n_shards", S)
    meta = {
        "n_shards": S,
        "n_hosts": len(addrs),
        "hosts": [f"{h}:{p}" for h, p in addrs],
        "virtual_hosts": virtual_hosts is not None,
        "quorum_hosts": quorum,
        "tile_shape": (th, tw),
        "n_tiles": plan.n_tiles,
        "reduce_levels": len(levels),
        "phases": phase_stats,
        "net": net_totals,
    }
    if degraded_from is not None:
        meta["degraded_from"] = degraded_from
    return CCLResult(
        labels=final,
        n_components=n_components,
        provisional_count=total,
        phase_seconds=timer.seconds,
        algorithm="net-sharded",
        meta=meta,
        timings=rec.report(since=mark) if rec.enabled else None,
    )
