"""Tile-decomposed labeling — the 2-D generalisation of PAREMSP's seams.

PAREMSP partitions rows; for images that arrive tile-wise (map servers,
scanned-raster mosaics, arrays memory-mapped from disk) a 2-D tile grid
is the natural unit. The algorithm is the same three acts:

1. label every tile independently (vectorised run engine) into a
   disjoint global label range;
2. stitch seams: every tile-boundary *row* is merged across the full
   image width and every boundary *column* within its band — together
   these cover all cross-tile adjacencies including the corner diagonals
   (a row seam sees the ``a``/``c`` diagonals; a column seam is the same
   pattern transposed, and :func:`merge_boundary_row` is reused verbatim
   on column views);
3. one sparse-free FLATTEN (tile ranges are packed contiguously) and a
   LUT gather.

The input is only ever *sliced*, so ``np.memmap`` arrays work unchanged
— the pixels of at most one tile are materialised by the labeling step
at a time.
"""

from __future__ import annotations

import pathlib
import time

import numpy as np

from ..ccl.labeling import CCLResult, check_label_capacity
from ..ccl.run_based import run_based_vectorized
from ..checkpoint.snapshot import durable_replace
from ..obs import PhaseTimer, get_recorder
from ..types import LABEL_DTYPE, ensure_input, ensure_lazy_input
from ..unionfind.flatten import flatten
from ..unionfind.remsp import merge as remsp_merge
from .boundary import merge_boundary_row

__all__ = ["tiled_label"]


def _label_tile(args: tuple) -> tuple[int, int, np.ndarray, int]:
    """Worker: label one tile; returns (r0, c0, local labels, count)."""
    r0, c0, tile, connectivity = args
    local = run_based_vectorized(tile, connectivity)
    return r0, c0, local.labels, local.n_components


def _label_tile_at(payload: tuple, item: tuple) -> tuple[int, int, np.ndarray, int]:
    """Payload-transport worker: slice the shared image at coordinates.

    *payload* is ``(image, tile_shape, connectivity)`` — installed once
    per pool worker by :func:`repro.parallel.backends.executor.
    map_with_payload` (inherited for free under ``fork``); *item* is
    just ``(r0, c0)``, so nothing tile-sized is pickled per call.
    """
    image, (th, tw), connectivity = payload
    r0, c0 = item
    tile = np.ascontiguousarray(image[r0 : r0 + th, c0 : c0 + tw])
    return _label_tile((r0, c0, tile, connectivity))


def _finalize_memmap(
    lut: np.ndarray, labels: np.ndarray, out, th: int
) -> np.ndarray:
    """Gather final labels into *out* with fsync + atomic rename.

    Writes tile-row blocks through the LUT into ``<out>.tmp``, flushes
    the memmap, then promotes it over *out* with
    :func:`~repro.checkpoint.snapshot.durable_replace` (file fsync,
    rename, directory fsync) — the promote the checkpoint store uses for
    its payloads. Returns a read-only memmap of the finalised file.
    """
    from numpy.lib.format import open_memmap

    out = pathlib.Path(out)
    tmp = out.with_name(out.name + ".tmp")
    rows = labels.shape[0]
    mm = open_memmap(tmp, mode="w+", dtype=LABEL_DTYPE, shape=labels.shape)
    for r0 in range(0, rows, th):
        mm[r0 : r0 + th] = lut[labels[r0 : r0 + th]]
    mm.flush()
    del mm
    durable_replace(tmp, out)
    return np.load(out, mmap_mode="r")


def tiled_label(
    image: np.ndarray,
    tile_shape: tuple[int, int] = (256, 256),
    connectivity: int = 8,
    workers: int = 1,
    recorder=None,
    out: str | pathlib.Path | None = None,
) -> CCLResult:
    """Label *image* tile by tile; result identical (as a partition) to
    whole-image labeling.

    ``workers > 1`` labels tiles in a fork-based process pool — tiles
    are independent, so this is the embarrassingly parallel phase; seam
    stitching and FLATTEN stay in the coordinator (they are O(seams) and
    O(labels), off the critical path like PAREMSP's merge step).

    *recorder* defaults to the ambient :func:`repro.obs.get_recorder`;
    when tracing is enabled the phases land as spans (plus per-tile
    spans on the in-process path), seam unions are counted, and the
    result's ``timings`` field carries the run's report.

    *image* meets the library's one input policy
    (:func:`repro.types.ensure_input`). A memmap is not read up front:
    :func:`repro.types.ensure_lazy_input` checks its shape and dtype,
    and the tile kernel checks each tile's values as it reads them, so
    the raster is read once.

    *out*, when given, is a ``.npy`` path the final labels are written
    to **atomically**: the gather lands in ``<out>.tmp``, is flushed
    and ``fsync``'d, and only then renamed over *out* — a run killed
    mid-write can never leave a truncated file at *out* masquerading as
    a complete result. The returned ``labels`` is a read-only memmap of
    the finalised file. (For crash *resume* on top of atomicity, see
    :class:`repro.checkpoint.TiledJob`.)

    >>> import numpy as np
    >>> img = np.ones((10, 10), dtype=np.uint8)
    >>> int(tiled_label(img, tile_shape=(4, 4)).n_components)
    1
    """
    th, tw = tile_shape
    if th < 1 or tw < 1:
        raise ValueError(f"tile dimensions must be >= 1, got {tile_shape!r}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    rec = recorder if recorder is not None else get_recorder()
    if isinstance(image, np.memmap):
        image = ensure_lazy_input(image)
    else:
        image = ensure_input(image)
    rows, cols = image.shape
    check_label_capacity((rows, cols))
    labels = np.zeros((rows, cols), dtype=LABEL_DTYPE)

    mark = rec.mark()
    timer = PhaseTimer(rec)
    with timer.time("scan"):
        origins = [
            (r0, c0)
            for r0 in range(0, rows, th)
            for c0 in range(0, cols, tw)
        ]
        n_tiles = len(origins)
        if workers > 1 and n_tiles > 1:
            # pinned-context pool via the shared executor: the image
            # ships to workers once (free under fork), the per-tile
            # traffic is the (r0, c0) pair — no tile arrays are
            # pickled per call.
            from .backends.executor import map_with_payload

            results = map_with_payload(
                "processes",
                _label_tile_at,
                origins,
                ((image, (th, tw), connectivity)),
                max_workers=min(workers, n_tiles),
            )
        elif rec.enabled:
            results = []
            for i, (r0, c0) in enumerate(origins):
                t0 = time.perf_counter()
                results.append(
                    _label_tile_at((image, (th, tw), connectivity), (r0, c0))
                )
                rec.add_span(f"tile {i}", "scan", t0, time.perf_counter())
        else:
            payload = (image, (th, tw), connectivity)
            results = [_label_tile_at(payload, o) for o in origins]
        count = 1
        for r0, c0, local_labels, k in results:
            if k:
                labels[r0 : r0 + th, c0 : c0 + tw] = np.where(
                    local_labels > 0, local_labels + (count - 1), 0
                )
                count += k

    seam_unions = 0
    with timer.time("merge"):
        p: list[int] = list(range(count))
        # horizontal seams: full-width boundary rows (cover corner
        # diagonals)
        for r in range(th, rows, th):
            seam_unions += merge_boundary_row(
                labels, r, cols, p, remsp_merge, connectivity
            )
        # vertical seams: boundary columns, reusing the row kernel on the
        # transposed pattern (left column plays the "row above")
        for c in range(tw, cols, tw):
            col_pair = [labels[:, c - 1], labels[:, c]]
            seam_unions += merge_boundary_row(
                col_pair, 1, rows, p, remsp_merge, connectivity
            )
    with timer.time("flatten"):
        n_components = flatten(p, count)
    with timer.time("label"):
        lut = np.asarray(p, dtype=LABEL_DTYPE)
        if out is not None:
            final = _finalize_memmap(lut, labels, out, th)
        else:
            final = lut[labels]
    if rec.enabled:
        rec.count("tiled.seam_unions", seam_unions)
        rec.gauge("tiled.n_tiles", n_tiles)
    return CCLResult(
        labels=final,
        n_components=n_components,
        provisional_count=count - 1,
        phase_seconds=timer.seconds,
        algorithm="tiled",
        meta={
            "tile_shape": (th, tw),
            "n_tiles": n_tiles,
            "seam_unions": seam_unions,
        },
        timings=rec.report(since=mark) if rec.enabled else None,
    )
