"""Crash-consistent snapshot storage for in-flight labeling state.

A snapshot is two files in the checkpoint directory::

    snap-00000123.state.pkl      # the pickled state payload
    snap-00000123.manifest.json  # the commit record

and the write protocol makes the *manifest rename* the commit point:

1. payload -> ``snap-<seq>.state.pkl.tmp``, ``fsync``, atomic rename;
2. manifest (seq, payload name, byte size, SHA-256, job fingerprint)
   -> ``snap-<seq>.manifest.json.tmp``, ``fsync``, atomic rename;
3. directory ``fsync`` after each rename, so the entries themselves are
   durable.

A crash anywhere in that sequence leaves either (a) no new manifest —
the previous snapshot is still the latest — or (b) a complete manifest
over a fully-synced payload. A *torn* payload under a complete manifest
(injectable via the ``torn_write`` fault; possible in reality only if
the storage lies about durability) is caught by the size + checksum
validation in :meth:`SnapshotStore.latest`, which then falls back to the
newest older snapshot that does validate. Only when **no** snapshot
validates does :class:`~repro.errors.CheckpointCorruptError` escape —
a corrupt checkpoint directory can cost progress, never correctness.

The store is deliberately codec-boring: payloads are pickled plain-data
dicts (builtins + numpy arrays), manifests are JSON. Fault injection
(``crash_at_checkpoint``, ``torn_write``, ``corrupt_snapshot``) hooks
into :meth:`save` via the ambient :mod:`repro.faults` plan, and every
operation lands in the trace schema as ``checkpoint.*`` counters and
``checkpoint.save`` / ``checkpoint.load`` spans.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import pickle
import re
import time

from ..errors import CheckpointCorruptError, InjectedCrashError, ResumeMismatchError
from ..faults import get_fault_plan, record_injection
from ..obs import get_recorder

__all__ = ["SnapshotStore", "NullCheckpointer", "NULL_CHECKPOINT"]

_PAYLOAD_SUFFIX = ".state.pkl"
_MANIFEST_SUFFIX = ".manifest.json"
_TMP_SUFFIX = ".tmp"
_SEQ_RE = re.compile(r"^snap-(\d{8})\.manifest\.json$")

#: manifest schema version (bumped on incompatible layout changes).
MANIFEST_VERSION = 1


def _fsync_path(path: pathlib.Path) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _fsync_dir(path: pathlib.Path) -> None:
    # directory entries (the renames) need their own fsync on POSIX
    try:
        _fsync_path(path)
    except OSError:  # pragma: no cover - some filesystems refuse dir fds
        pass


def durable_replace(tmp: pathlib.Path, path: pathlib.Path) -> None:
    """Durably move the finished file *tmp* to *path*.

    *tmp* is fsynced before the rename, so *path* never names a torn
    file, and the directory after it, so the rename survives a crash.
    """
    _fsync_path(tmp)
    os.replace(tmp, path)
    _fsync_dir(path.parent)


def _write_atomic(path: pathlib.Path, data: bytes) -> None:
    tmp = path.with_name(path.name + _TMP_SUFFIX)
    tmp.write_bytes(data)
    durable_replace(tmp, path)


class NullCheckpointer:
    """Disabled-checkpointing sentinel, mirroring ``NULL_PLAN``.

    Job loops guard their per-row/per-tile checkpoint hook with a single
    ``ckpt.enabled`` attribute test; with this shared instance installed
    (the default when no ``--checkpoint-dir`` is given) that test is the
    entire cost — the same zero-overhead-when-off contract the recorder
    and the fault plan already keep, and the one the bench gate's
    ``disabled_overhead_estimate`` now includes.
    """

    __slots__ = ()

    enabled = False


#: the process-wide disabled checkpointer.
NULL_CHECKPOINT = NullCheckpointer()


class SnapshotStore:
    """Atomic, checksummed snapshot storage in one directory.

    *fingerprint* is a plain JSON-able dict identifying the job (image
    shape/dtype, parameters); it is stamped into every manifest and
    verified on load, so resuming against the wrong input or changed
    parameters raises :class:`~repro.errors.ResumeMismatchError` instead
    of silently mixing state. *keep* bounds how many committed
    snapshots are retained (older ones are pruned after each save; at
    least one previous snapshot is kept as the corruption fallback).
    """

    enabled = True

    def __init__(
        self,
        directory: str | os.PathLike,
        fingerprint: dict | None = None,
        keep: int = 2,
        recorder=None,
        fault_plan=None,
    ) -> None:
        if keep < 1:
            raise ValueError(f"keep must be >= 1, got {keep}")
        self.directory = pathlib.Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.fingerprint = dict(fingerprint or {})
        self.keep = keep
        self._rec = recorder if recorder is not None else get_recorder()
        self._plan = fault_plan if fault_plan is not None else get_fault_plan()
        #: saves committed through this store instance (the fault
        #: hooks' ``attempt`` coordinate: spec attempt=k fires on the
        #: k-th save of the run).
        self.saves = 0

    # -- paths -------------------------------------------------------------

    def _payload_path(self, seq: int) -> pathlib.Path:
        return self.directory / f"snap-{seq:08d}{_PAYLOAD_SUFFIX}"

    def _manifest_path(self, seq: int) -> pathlib.Path:
        return self.directory / f"snap-{seq:08d}{_MANIFEST_SUFFIX}"

    def sequences(self) -> list[int]:
        """Committed snapshot sequence numbers, ascending."""
        seqs = []
        for entry in self.directory.iterdir():
            m = _SEQ_RE.match(entry.name)
            if m:
                seqs.append(int(m.group(1)))
        return sorted(seqs)

    # -- write path --------------------------------------------------------

    def save(self, state: dict, seq: int) -> pathlib.Path:
        """Commit *state* as snapshot *seq*; returns the manifest path.

        Crash-consistent per the module docstring. Re-saving an existing
        *seq* (a resumed run overtaking a stale snapshot from the
        crashed attempt) atomically replaces it.
        """
        rec = self._rec
        plan = self._plan
        t0 = time.perf_counter()
        payload = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
        digest = hashlib.sha256(payload).hexdigest()
        torn = corrupt = crash = None
        if plan.enabled:
            torn = plan.take("torn_write", "checkpoint", attempt=self.saves)
            corrupt = plan.take(
                "corrupt_snapshot", "checkpoint", attempt=self.saves
            )
            crash = plan.take(
                "crash_at_checkpoint", "checkpoint", attempt=self.saves
            )
        payload_path = self._payload_path(seq)
        _write_atomic(payload_path, payload)
        manifest = {
            "manifest_version": MANIFEST_VERSION,
            "seq": seq,
            "payload": payload_path.name,
            "bytes": len(payload),
            "sha256": digest,
            "fingerprint": self.fingerprint,
        }
        _write_atomic(
            self._manifest_path(seq),
            json.dumps(manifest, indent=0, sort_keys=True).encode(),
        )
        self.saves += 1
        if torn is not None:
            # a torn write the checksum must catch: the manifest
            # committed, but the payload on disk is only a prefix
            with open(payload_path, "r+b") as fh:
                fh.truncate(max(1, len(payload) // 2))
            record_injection(rec, torn)
        if corrupt is not None:
            with open(payload_path, "r+b") as fh:
                fh.seek(len(payload) // 3)
                byte = fh.read(1)
                fh.seek(len(payload) // 3)
                fh.write(bytes([byte[0] ^ 0xFF]))
            record_injection(rec, corrupt)
        self._prune()
        if rec.enabled:
            rec.count("checkpoint.saves")
            rec.count("checkpoint.bytes", len(payload))
            rec.add_span("ckpt", "checkpoint.save", t0, time.perf_counter())
        if crash is not None:
            record_injection(rec, crash)
            raise InjectedCrashError(
                f"injected crash after committing snapshot {seq}", seq=seq
            )
        return self._manifest_path(seq)

    def _prune(self) -> None:
        seqs = self.sequences()
        for seq in seqs[: max(0, len(seqs) - self.keep)]:
            self._remove(seq)
            if self._rec.enabled:
                self._rec.count("checkpoint.pruned")

    def _remove(self, seq: int) -> None:
        # manifest first: without its commit record a payload is dead
        self._manifest_path(seq).unlink(missing_ok=True)
        self._payload_path(seq).unlink(missing_ok=True)

    def clear(self) -> None:
        """Remove every snapshot, manifest, and stray temp file.

        Called on successful job completion, so a finished run leaves
        zero snapshot/temp files behind.
        """
        for seq in self.sequences():
            self._remove(seq)
        for entry in list(self.directory.iterdir()):
            if entry.name.startswith("snap-") and (
                entry.name.endswith(_TMP_SUFFIX)
                or entry.name.endswith(_PAYLOAD_SUFFIX)
            ):
                entry.unlink(missing_ok=True)

    # -- read path ---------------------------------------------------------

    def _validate(self, seq: int) -> dict:
        """Load and fully validate snapshot *seq*; raises ValueError
        with a reason on any defect."""
        manifest_path = self._manifest_path(seq)
        try:
            manifest = json.loads(manifest_path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ValueError(f"unreadable manifest: {exc}") from exc
        payload_path = self.directory / str(manifest.get("payload", ""))
        if not payload_path.is_file():
            raise ValueError(f"stale manifest: payload {manifest.get('payload')!r} missing")
        payload = payload_path.read_bytes()
        if len(payload) != manifest.get("bytes"):
            raise ValueError(
                f"payload size {len(payload)} != manifest bytes "
                f"{manifest.get('bytes')} (torn write)"
            )
        digest = hashlib.sha256(payload).hexdigest()
        if digest != manifest.get("sha256"):
            raise ValueError("payload checksum mismatch (corrupt snapshot)")
        found = manifest.get("fingerprint") or {}
        if self.fingerprint and found != self.fingerprint:
            raise ResumeMismatchError(
                f"snapshot {seq} in {self.directory} belongs to a "
                "different job (fingerprint mismatch)",
                expected=self.fingerprint,
                found=found,
            )
        return pickle.loads(payload)

    def latest(self) -> tuple[int, dict] | None:
        """The newest snapshot that validates, as ``(seq, state)``.

        Walks committed snapshots newest-first; corrupt ones are skipped
        (counted as ``checkpoint.fallbacks``) until one validates.
        Returns ``None`` for an empty store;  raises
        :class:`~repro.errors.CheckpointCorruptError` when snapshots
        exist but none validates, and
        :class:`~repro.errors.ResumeMismatchError` as soon as a
        *structurally sound* snapshot belongs to a different job.
        """
        rec = self._rec
        t0 = time.perf_counter()
        seqs = self.sequences()
        if not seqs:
            return None
        rejected: list[tuple[int, str]] = []
        for seq in reversed(seqs):
            try:
                state = self._validate(seq)
            except ResumeMismatchError:
                raise
            except ValueError as exc:
                rejected.append((seq, str(exc)))
                if rec.enabled:
                    rec.count("checkpoint.corrupt_detected")
                    rec.count("checkpoint.fallbacks")
                continue
            if rec.enabled:
                rec.add_span(
                    "ckpt", "checkpoint.load", t0, time.perf_counter()
                )
            return seq, state
        raise CheckpointCorruptError(
            f"no valid snapshot in {self.directory} "
            f"({len(rejected)} rejected: "
            + "; ".join(f"seq {s}: {r}" for s, r in rejected)
            + ")",
            directory=str(self.directory),
            candidates=tuple(rejected),
        )
