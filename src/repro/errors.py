"""Exception hierarchy for the :mod:`repro` package.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause while
still letting programming errors (``TypeError`` from wrong argument types,
etc.) propagate unchanged.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "InputError",
    "ImageFormatError",
    "LabelOverflowError",
    "PartitionError",
    "ConnectivityError",
    "UnknownAlgorithmError",
    "BackendError",
    "WorkerCrashError",
    "PhaseTimeoutError",
    "DeadlockError",
    "CostModelError",
    "CheckpointError",
    "CheckpointCorruptError",
    "ResumeMismatchError",
    "InjectedCrashError",
    "ServiceError",
    "ServiceClosedError",
    "ServiceOverloadedError",
    "QuotaExceededError",
    "NetError",
    "FrameCorruptError",
    "FrameTruncatedError",
    "PeerUnreachableError",
    "ClusterQuorumError",
]


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class InputError(ReproError, ValueError):
    """A public-API input array is unusable as given.

    The umbrella for every input rejection the entry points and
    engines can make: non-2-D arrays, unsupported dtypes and values
    outside ``{0, 1}`` (all from :func:`repro.types.ensure_input` and
    its forms, as :class:`ImageFormatError`). Layout oddities
    (Fortran order, non-contiguous views, read-only memmaps, ``bool`` /
    ``uint16`` pixels) are *coerced*, not rejected — only genuinely
    uninterpretable inputs raise. Subclasses ``ValueError`` so
    pre-existing ``except ValueError`` callers keep working.
    """


class ImageFormatError(InputError):
    """An input array is not a valid binary image for CCL.

    Raised by the one input gate (:func:`repro.types.ensure_input` and
    its lazy and per-row forms) for non-2D inputs, unsupported dtypes or
    pixel values outside ``{0, 1}``, and by the PNM codec for malformed
    files.
    """


class LabelOverflowError(ReproError, OverflowError):
    """The provisional-label space of the chosen dtype was exhausted.

    The scan phase assigns at most one provisional label per foreground
    pixel; an ``M x N`` image therefore needs ``M * N + 1`` representable
    labels. This error indicates the configured label dtype is too narrow
    for the input image.
    """


class PartitionError(ReproError, ValueError):
    """A parallel row partition is invalid (empty chunks, bad alignment)."""


class ConnectivityError(ReproError, ValueError):
    """An algorithm was asked for a connectivity it does not define.

    The registry's :data:`~repro.ccl.registry.EIGHT_CONNECTIVITY_ONLY`
    entries (contour tracing, 2x2-block labeling) have no 4-connectivity
    formulation; asking for one is a typed, catchable error rather than
    a silently wrong answer. Subclasses ``ValueError`` so pre-existing
    ``except ValueError`` callers keep working.
    """


class UnknownAlgorithmError(ReproError, KeyError):
    """An algorithm name was not found in :mod:`repro.ccl.registry`.

    The message lists every registered name and, for near misses, a
    "did you mean" suggestion.
    """


class BackendError(ReproError, RuntimeError):
    """A parallel backend failed or was asked for an unsupported feature."""


class WorkerCrashError(BackendError):
    """One or more parallel workers died (process exit, injected kill).

    Carries enough diagnostics to answer *which* participant failed and
    *where*: ``ranks`` (worker/chunk indices), ``phase`` (``scan`` /
    ``merge`` / ...), ``exit_codes`` (process backend), and ``attempts``
    (how many supervised tries were made before giving up).
    """

    def __init__(
        self,
        message: str,
        *,
        ranks: tuple[int, ...] = (),
        phase: str | None = None,
        exit_codes: tuple[int, ...] = (),
        attempts: int | None = None,
    ) -> None:
        super().__init__(message)
        self.ranks = tuple(ranks)
        self.phase = phase
        self.exit_codes = tuple(exit_codes)
        self.attempts = attempts


class PhaseTimeoutError(BackendError, TimeoutError):
    """A parallel phase overran its watchdog deadline.

    The watchdog converts a hang (dead worker holding a barrier, lost
    message, runaway straggler) into a typed, bounded-latency failure.
    """

    def __init__(
        self,
        message: str,
        *,
        phase: str | None = None,
        timeout: float | None = None,
        ranks: tuple[int, ...] = (),
    ) -> None:
        super().__init__(message)
        self.phase = phase
        self.timeout = timeout
        self.ranks = tuple(ranks)


class DeadlockError(BackendError, TimeoutError):
    """A blocking receive or collective could not complete.

    Raised by :class:`repro.mp.comm.Communicator` when a message never
    arrives: either the awaited rank is known to have died (``dead``
    names it), the run was cancelled by the launcher's watchdog, or the
    receive deadline expired with every peer apparently alive
    (mismatched send/recv or collective ordering).
    """

    def __init__(
        self,
        message: str,
        *,
        rank: int | None = None,
        source: int | None = None,
        tag: int | None = None,
        phase: str | None = None,
        dead: tuple[int, ...] = (),
    ) -> None:
        super().__init__(message)
        self.rank = rank
        self.source = source
        self.tag = tag
        self.phase = phase
        self.dead = tuple(dead)


class CostModelError(ReproError, ValueError):
    """A simulated-machine cost model is inconsistent (negative costs...)."""


class CheckpointError(ReproError, RuntimeError):
    """Base class for checkpoint/resume failures (:mod:`repro.checkpoint`)."""


class CheckpointCorruptError(CheckpointError):
    """No valid snapshot survives in a checkpoint directory.

    Raised only when *every* snapshot fails validation (missing payload,
    size mismatch, checksum mismatch, unreadable manifest) — a corrupt
    newest snapshot with an older valid one behind it falls back
    silently instead. ``candidates`` lists the (seq, reason) pairs that
    were rejected.
    """

    def __init__(
        self,
        message: str,
        *,
        directory: str | None = None,
        candidates: tuple[tuple[int, str], ...] = (),
    ) -> None:
        super().__init__(message)
        self.directory = directory
        self.candidates = tuple(candidates)


class ResumeMismatchError(CheckpointError):
    """A snapshot exists but belongs to a different job.

    The manifest's job fingerprint (shape, dtype, connectivity,
    parameters) disagrees with the run asking to resume — restarting
    from it could silently produce labels for the wrong input, so the
    mismatch is fatal. ``expected``/``found`` carry both fingerprints.
    """

    def __init__(
        self,
        message: str,
        *,
        expected: dict | None = None,
        found: dict | None = None,
    ) -> None:
        super().__init__(message)
        self.expected = expected
        self.found = found


class ServiceError(ReproError, RuntimeError):
    """Base class for labeling-service failures (:mod:`repro.service`)."""


class ServiceClosedError(ServiceError):
    """A request arrived at a drained or never-started service.

    Graceful drain closes the front door first: requests already queued
    are completed, new ones get this error immediately instead of
    waiting on a queue that will never advance.
    """


class ServiceOverloadedError(ServiceError):
    """Admission control rejected a request: the queue is full.

    Backpressure is a *typed, immediate* rejection rather than an
    unbounded queue — the caller knows within microseconds that it
    should retry later or shed load, and the service's latency SLO is
    protected from convoy collapse. ``queue_depth`` carries the depth
    at rejection time.
    """

    def __init__(self, message: str, *, queue_depth: int = 0) -> None:
        super().__init__(message)
        self.queue_depth = queue_depth


class QuotaExceededError(ServiceError):
    """A tenant exceeded its in-flight request quota.

    Per-tenant admission control: one chatty client saturating the
    queue must not starve the rest. ``tenant`` and ``in_flight`` say
    who and by how much.
    """

    def __init__(
        self, message: str, *, tenant: str = "", in_flight: int = 0
    ) -> None:
        super().__init__(message)
        self.tenant = tenant
        self.in_flight = in_flight


class NetError(ReproError, RuntimeError):
    """Base class for socket-transport failures (:mod:`repro.parallel.net`)."""


class FrameCorruptError(NetError, ValueError):
    """A received frame failed its integrity check.

    Either the magic/header bytes are not the protocol's (``fatal`` is
    ``True``: the stream is desynchronised and the connection must be
    torn down) or the payload's CRC32 did not match (``fatal`` is
    ``False``: the header framed the bad bytes correctly, so the
    receiver can reject just this frame and keep the stream).
    """

    def __init__(
        self, message: str, *, seq: int | None = None, fatal: bool = False
    ) -> None:
        super().__init__(message)
        self.seq = seq
        self.fatal = fatal


class FrameTruncatedError(NetError, ConnectionError):
    """The stream ended mid-frame (peer died or connection was cut)."""

    def __init__(self, message: str, *, wanted: int = 0, got: int = 0) -> None:
        super().__init__(message)
        self.wanted = wanted
        self.got = got


class PeerUnreachableError(NetError, ConnectionError):
    """A peer could not be reached within the retry/backoff budget.

    ``peer`` names the ``host:port`` endpoint, ``attempts`` how many
    connect/send cycles were burned before giving up.
    """

    def __init__(
        self,
        message: str,
        *,
        peer: str = "",
        attempts: int = 0,
        phase: str | None = None,
    ) -> None:
        super().__init__(message)
        self.peer = peer
        self.attempts = attempts
        self.phase = phase


class ClusterQuorumError(NetError):
    """Too few hosts are reachable to keep a multi-host run going.

    Raised only when degradation is disabled; with ``degrade=True`` the
    runtime steps down the ladder (multi-host -> single-host sharded ->
    inline) and records the reason in ``meta["degraded_from"]``.
    """

    def __init__(
        self,
        message: str,
        *,
        reachable: tuple[str, ...] = (),
        unreachable: tuple[str, ...] = (),
        quorum: int = 0,
    ) -> None:
        super().__init__(message)
        self.reachable = tuple(reachable)
        self.unreachable = tuple(unreachable)
        self.quorum = quorum


class InjectedCrashError(ReproError, SystemError):
    """A deterministic in-process stand-in for a hard process death.

    The ``crash_at_checkpoint`` fault kind raises this instead of
    calling ``os._exit`` so single-process tests can simulate a crash at
    a checkpoint boundary and then resume; the chaos suite uses a real
    ``SIGKILL`` for the out-of-process version. Never caught by the
    library's own recovery machinery — a crash is a crash.
    """

    def __init__(self, message: str, *, seq: int | None = None) -> None:
        super().__init__(message)
        self.seq = seq
