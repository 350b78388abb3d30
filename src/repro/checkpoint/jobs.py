"""Resumable out-of-core labeling jobs over the snapshot store.

Two job shapes cover the two out-of-core paths:

* :class:`StreamingJob` — row-at-a-time labeling of a row-indexable
  raster (array or memmap). Snapshot state is the full
  :meth:`repro.ccl.streaming.StreamingLabeler.state` (frontier runs,
  active union-find, compaction watermark) plus the emitted-component
  ledger and the next row index. Finalised components are painted into
  an on-disk ``.npy`` label memmap as they are emitted.
* :class:`TiledJob` — the three-act tiled pipeline as an explicit
  checkpointable state machine: ``tiles`` (completed-tile bitmap +
  per-tile label counts, provisional labels in an on-disk memmap),
  ``merge`` (seam index + boundary-merge forest), ``label`` (final LUT
  + output-memmap high-water mark, in tile-row blocks).

Both jobs share the durability contract:

* work lands in ``<out>.partial`` and is atomically renamed to *out*
  (with ``fsync``) only when complete — a killed job can never leave an
  output that looks finished;
* a snapshot commits only after the output/provisional memmaps are
  flushed, so the snapshot's view of the files is durable;
* replay from any snapshot is deterministic, so an interrupted-then-
  resumed run produces **byte-identical** final labels to an
  uninterrupted one (every pixel written after the restored snapshot is
  rewritten with the same value);
* a completed job clears its snapshots and scratch files — zero
  leftovers.

Jobs constructed without a checkpoint directory run with the
:data:`~repro.checkpoint.snapshot.NULL_CHECKPOINT` sentinel: the
per-row/per-tile hook degenerates to one ``enabled`` attribute test
(the overhead the bench gate bounds at 2%).
"""

from __future__ import annotations

import dataclasses
import pathlib

import numpy as np
from numpy.lib.format import open_memmap

from ..ccl.run_based import run_based_vectorized
from ..ccl.streaming import StreamingLabeler
from ..errors import BackendError, CheckpointCorruptError
from ..obs import get_recorder
from ..parallel.backends.executor import map_with_payload
from ..parallel.boundary import merge_boundary_row
from ..types import LABEL_DTYPE, ensure_lazy_input
from ..unionfind.flatten import flatten
from ..unionfind.remsp import merge as remsp_merge
from .snapshot import NULL_CHECKPOINT, SnapshotStore, durable_replace

__all__ = ["JobResult", "StreamingJob", "TiledJob"]


@dataclasses.dataclass
class JobResult:
    """Outcome of a (possibly resumed) checkpointed labeling job.

    ``labels`` is a read-only memmap over the finalised output file;
    ``components`` is the streaming job's emission ledger as
    ``(ident, area, bbox)`` tuples (``None`` for tiled jobs).
    """

    labels: np.ndarray
    n_components: int
    out_path: pathlib.Path
    components: list[tuple] | None = None
    resumed_from: int | None = None
    checkpoints_written: int = 0
    meta: dict = dataclasses.field(default_factory=dict)


class _JobBase:
    """Shared store/paths plumbing for the two job shapes."""

    def __init__(
        self,
        image,
        out,
        checkpoint_dir=None,
        every: int = 0,
        keep: int = 2,
        recorder=None,
        fault_plan=None,
    ) -> None:
        self.image = ensure_lazy_input(image)
        self.out = pathlib.Path(out)
        self.partial = self.out.with_name(self.out.name + ".partial")
        self.every = int(every)
        self.keep = keep
        self.checkpoint_dir = (
            pathlib.Path(checkpoint_dir) if checkpoint_dir else None
        )
        self._rec = recorder if recorder is not None else get_recorder()
        self._fault_plan = fault_plan
        if self.checkpoint_dir is not None and self.every < 1:
            raise ValueError(
                f"checkpoint interval must be >= 1, got {self.every}"
            )

    def _store(self):
        if self.checkpoint_dir is None:
            return NULL_CHECKPOINT
        return SnapshotStore(
            self.checkpoint_dir,
            fingerprint=self._fingerprint(),
            keep=self.keep,
            recorder=self._rec,
            fault_plan=self._fault_plan,
        )

    def _fingerprint(self) -> dict:  # pragma: no cover - overridden
        raise NotImplementedError

    def _load(self, store, resume: bool):
        """Latest snapshot state when resuming, else a cleaned store."""
        if not store.enabled:
            return None
        if resume:
            loaded = store.latest()
            if loaded is not None and self._rec.enabled:
                self._rec.count("checkpoint.resumes")
            return loaded
        # a fresh run must not leave stale higher-seq snapshots behind
        # a crashed predecessor — they would shadow the new run's saves
        store.clear()
        return None


class StreamingJob(_JobBase):
    """Checkpointed row-streaming labeling into an on-disk label array.

    Components are numbered in completion order (the streaming
    contract); each finalised component's runs are painted into the
    output memmap the moment it is emitted. Peak memory is O(active
    area + width) — the run lists of still-active components.

    >>> import numpy as np, tempfile, pathlib
    >>> d = pathlib.Path(tempfile.mkdtemp())
    >>> img = np.eye(5, dtype=np.uint8)
    >>> r = StreamingJob(img, d / "labels.npy").run()
    >>> int(r.n_components), int(r.labels.max())
    (1, 1)
    """

    def __init__(
        self,
        image,
        out,
        checkpoint_dir=None,
        every: int = 256,
        connectivity: int = 8,
        keep: int = 2,
        recorder=None,
        fault_plan=None,
    ) -> None:
        super().__init__(
            image, out, checkpoint_dir,
            every=every if checkpoint_dir else 0,
            keep=keep, recorder=recorder, fault_plan=fault_plan,
        )
        self.connectivity = connectivity
        self.backend_name = "serial"

    def degrade_to(self, rung: str) -> None:
        """Streaming runs in-process; every rung is already 'serial'."""

    def _fingerprint(self) -> dict:
        rows, cols = self.image.shape
        return {
            "job": "streaming",
            "rows": int(rows),
            "cols": int(cols),
            "connectivity": self.connectivity,
            "out": self.out.name,
        }

    def run(self, resume: bool = False) -> JobResult:
        rows, cols = self.image.shape
        store = self._store()
        loaded = self._load(store, resume)
        if loaded is not None:
            seq, state = loaded
            labeler = StreamingLabeler.from_state(
                state["labeler"], recorder=self._rec
            )
            ledger: list[tuple] = [tuple(t) for t in state["ledger"]]
            next_row = int(state["next_row"])
            if not self.partial.is_file():
                raise CheckpointCorruptError(
                    f"snapshot {seq} found but work file {self.partial} "
                    "is missing; cannot resume",
                    directory=str(self.checkpoint_dir),
                )
            mm = open_memmap(self.partial, mode="r+")
            resumed_from: int | None = seq
        else:
            labeler = StreamingLabeler(
                cols, self.connectivity, recorder=self._rec, track_runs=True
            )
            ledger = []
            next_row = 0
            mm = open_memmap(
                self.partial, mode="w+", dtype=LABEL_DTYPE,
                shape=(int(rows), int(cols)),
            )
            resumed_from = None

        def paint(comp) -> None:
            for rr, s, e in comp.runs:
                mm[rr, s:e] = comp.ident
            ledger.append((comp.ident, comp.area, comp.bbox))

        ckpt = store  # one attribute test per row when disabled
        for r in range(next_row, rows):
            for comp in labeler.push_row(self.image[r]):
                paint(comp)
            if ckpt.enabled and (r + 1) % self.every == 0 and r + 1 < rows:
                mm.flush()
                store.save(
                    {
                        "labeler": labeler.state(),
                        "next_row": r + 1,
                        "ledger": ledger,
                    },
                    seq=r + 1,
                )
        for comp in labeler.finish():
            paint(comp)
        mm.flush()
        del mm
        durable_replace(self.partial, self.out)
        if store.enabled:
            store.clear()
        return JobResult(
            labels=np.load(self.out, mmap_mode="r"),
            n_components=len(ledger),
            out_path=self.out,
            components=ledger,
            resumed_from=resumed_from,
            checkpoints_written=getattr(store, "saves", 0),
            meta={"job": "streaming", "rows": int(rows), "cols": int(cols)},
        )


def _label_tile(args: tuple) -> tuple[int, np.ndarray, int]:
    t, tile, connectivity = args
    local = run_based_vectorized(tile, connectivity)
    return t, local.labels, local.n_components


def _label_tile_at_index(payload: tuple, i: int) -> tuple[int, np.ndarray, int]:
    """Payload-transport tile worker: slice the shared image by index.

    *payload* is ``(image, tile_shape, origins, connectivity)``
    installed once per pool worker; *i* indexes ``origins`` — the only
    thing pickled per tile.
    """
    image, (th, tw), origins, connectivity = payload
    r0, c0 = origins[i]
    tile = np.ascontiguousarray(image[r0 : r0 + th, c0 : c0 + tw])
    return _label_tile((i, tile, connectivity))


class TiledJob(_JobBase):
    """Checkpointed tiled labeling: tiles → seam merge → final relabel.

    The final labels are identical to
    :func:`repro.parallel.tiled.tiled_label` with the same tile shape —
    the job is the same algorithm with its loop state made durable.
    ``workers > 1`` labels tile batches in a pool (``pool`` selects
    ``processes`` / ``threads``); a broken pool surfaces as
    :class:`~repro.errors.BackendError`, which the
    :class:`~repro.checkpoint.runner.JobRunner` can degrade and resume
    past without losing completed tiles.
    """

    def __init__(
        self,
        image,
        out,
        checkpoint_dir=None,
        tile_shape: tuple[int, int] = (256, 256),
        every: int = 8,
        connectivity: int = 8,
        workers: int = 1,
        pool: str = "processes",
        keep: int = 2,
        recorder=None,
        fault_plan=None,
    ) -> None:
        super().__init__(
            image, out, checkpoint_dir,
            every=every if checkpoint_dir else 0,
            keep=keep, recorder=recorder, fault_plan=fault_plan,
        )
        th, tw = tile_shape
        if th < 1 or tw < 1:
            raise ValueError(
                f"tile dimensions must be >= 1, got {tile_shape!r}"
            )
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if pool not in ("processes", "threads", "serial"):
            raise ValueError(f"unknown pool {pool!r}")
        self.tile_shape = (th, tw)
        self.connectivity = connectivity
        self.workers = workers
        self.pool = pool if workers > 1 else "serial"
        self.prov_path = self.out.with_name(self.out.name + ".prov")

    @property
    def backend_name(self) -> str:
        return self.pool if self.workers > 1 else "serial"

    def degrade_to(self, rung: str) -> None:
        """Adopt a DegradationPolicy rung for the tile-labeling pool."""
        self.pool = rung
        if rung == "serial":
            self.workers = 1

    def _fingerprint(self) -> dict:
        rows, cols = self.image.shape
        return {
            "job": "tiled",
            "rows": int(rows),
            "cols": int(cols),
            "tile_shape": list(self.tile_shape),
            "connectivity": self.connectivity,
            "out": self.out.name,
        }

    # -- tile batch execution ---------------------------------------------

    def _label_batch(
        self, batch_idx: list[int], origins: list[tuple[int, int]]
    ) -> list[tuple]:
        """Label the tiles at *batch_idx* through the shared executor.

        Runs on the pinned-context pool of
        :mod:`repro.parallel.backends.executor` (``fork`` where
        available, documented ``spawn`` fallback): the image ships to
        workers once as the pool payload — free under ``fork``, once
        per worker under ``spawn`` — and the per-tile traffic is a tile
        index, so nothing tile-sized is pickled per call.
        """
        payload = (
            self.image, self.tile_shape, tuple(origins), self.connectivity
        )
        workers = self.workers
        if self.pool == "serial" or len(batch_idx) <= 1:
            workers = 1
        try:
            return map_with_payload(
                self.pool if workers > 1 else "serial",
                _label_tile_at_index,
                batch_idx,
                payload,
                max_workers=min(workers, len(batch_idx)),
            )
        except (OSError, RuntimeError, BackendError) as exc:
            raise BackendError(
                f"tile pool ({self.pool}) failed: {exc}"
            ) from exc

    # -- the three phases --------------------------------------------------

    def run(self, resume: bool = False) -> JobResult:
        rows, cols = self.image.shape
        th, tw = self.tile_shape
        origins = [
            (r0, c0)
            for r0 in range(0, rows, th)
            for c0 in range(0, cols, tw)
        ]
        n_tiles = len(origins)
        seams = [("h", r) for r in range(th, rows, th)] + [
            ("v", c) for c in range(tw, cols, tw)
        ]
        store = self._store()
        loaded = self._load(store, resume)
        phase = "tiles"
        done = np.zeros(n_tiles, dtype=bool)
        counts = np.zeros(n_tiles, dtype=np.int64)
        p: list[int] | None = None
        seam_idx = 0
        block_done = 0
        n_components = 0
        resumed_from: int | None = None
        if loaded is not None:
            seq, state = loaded
            resumed_from = seq
            phase = state["phase"]
            if not self.prov_path.is_file():
                raise CheckpointCorruptError(
                    f"snapshot {seq} found but provisional memmap "
                    f"{self.prov_path} is missing; cannot resume",
                    directory=str(self.checkpoint_dir),
                )
            if phase == "tiles":
                done = np.asarray(state["done"], dtype=bool).copy()
                counts = np.asarray(state["counts"], dtype=np.int64).copy()
            elif phase == "merge":
                counts = np.asarray(state["counts"], dtype=np.int64).copy()
                done[:] = True
                p = [int(v) for v in state["p"]]
                seam_idx = int(state["seam_idx"])
            else:  # label
                done[:] = True
                counts = np.asarray(state["counts"], dtype=np.int64).copy()
                p = [int(v) for v in state["p"]]
                n_components = int(state["n_components"])
                seam_idx = len(seams)
                block_done = int(state["block_done"])
        if loaded is not None:
            prov = open_memmap(self.prov_path, mode="r+")
        else:
            prov = open_memmap(
                self.prov_path, mode="w+", dtype=LABEL_DTYPE,
                shape=(int(rows), int(cols)),
            )

        # act 1: label tiles into disjoint provisional ranges
        if phase == "tiles":
            t = int(np.argmin(done)) if not done.all() else n_tiles
            batch_size = max(self.every, 1) if store.enabled else n_tiles
            while t < n_tiles:
                batch_idx = list(range(t, min(t + batch_size, n_tiles)))
                for i, local, k in self._label_batch(batch_idx, origins):
                    r0, c0 = origins[i]
                    offset = 1 + int(counts[:i].sum())
                    if k:
                        prov[r0 : r0 + th, c0 : c0 + tw] = np.where(
                            local > 0, local + (offset - 1), 0
                        )
                    counts[i] = k
                    done[i] = True
                t = batch_idx[-1] + 1
                if store.enabled and t < n_tiles:
                    prov.flush()
                    store.save(
                        {
                            "phase": "tiles",
                            "done": done.tolist(),
                            "counts": counts.tolist(),
                        },
                        seq=t,
                    )
            phase = "merge"
            p = None

        count = 1 + int(counts.sum())

        # act 2: stitch seams into the boundary-merge forest
        if phase == "merge":
            if p is None:
                p = list(range(count))
            while seam_idx < len(seams):
                kind, pos = seams[seam_idx]
                if kind == "h":
                    merge_boundary_row(
                        prov, pos, cols, p, remsp_merge, self.connectivity
                    )
                else:
                    col_pair = [prov[:, pos - 1], prov[:, pos]]
                    merge_boundary_row(
                        col_pair, 1, rows, p, remsp_merge, self.connectivity
                    )
                seam_idx += 1
                if (
                    store.enabled
                    and seam_idx % self.every == 0
                    and seam_idx < len(seams)
                ):
                    store.save(
                        {
                            "phase": "merge",
                            "seam_idx": seam_idx,
                            "p": list(p),
                            "counts": counts.tolist(),
                        },
                        seq=n_tiles + seam_idx,
                    )
            n_components = flatten(p, count)
            phase = "label"
            block_done = 0

        # act 3: gather final labels through the LUT, block by block
        lut = np.asarray(p, dtype=LABEL_DTYPE)
        blocks = list(range(0, rows, th)) or [0]
        if block_done and self.partial.is_file():
            final = open_memmap(self.partial, mode="r+")
        else:
            block_done = 0
            final = open_memmap(
                self.partial, mode="w+", dtype=LABEL_DTYPE,
                shape=(int(rows), int(cols)),
            )
        for bi in range(block_done, len(blocks)):
            r0 = blocks[bi]
            if rows:
                final[r0 : r0 + th] = lut[prov[r0 : r0 + th]]
            if (
                store.enabled
                and (bi + 1) % self.every == 0
                and bi + 1 < len(blocks)
            ):
                final.flush()
                store.save(
                    {
                        "phase": "label",
                        "block_done": bi + 1,
                        "p": lut.tolist(),
                        "n_components": int(n_components),
                        "counts": counts.tolist(),
                    },
                    seq=n_tiles + len(seams) + bi + 1,
                )
        final.flush()
        del final, prov
        durable_replace(self.partial, self.out)
        self.prov_path.unlink(missing_ok=True)
        if store.enabled:
            store.clear()
        if self._rec.enabled:
            self._rec.gauge("tiled.n_tiles", n_tiles)
        return JobResult(
            labels=np.load(self.out, mmap_mode="r"),
            n_components=int(n_components),
            out_path=self.out,
            components=None,
            resumed_from=resumed_from,
            checkpoints_written=getattr(store, "saves", 0),
            meta={
                "job": "tiled",
                "n_tiles": n_tiles,
                "tile_shape": list(self.tile_shape),
                "provisional_count": count - 1,
            },
        )
