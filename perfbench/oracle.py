"""Output checks. Each returns ``None`` on a pass and a one-line reason
on a miss; the caller marks the operation failed.

The reference labeler is ``scipy.ndimage.label`` with the full 3×3
structure (8-connectivity), an independent native two-pass labeler.
"""

from __future__ import annotations

import hashlib

import numpy as np
from scipy import ndimage

STRUCTURE = np.ones((3, 3), dtype=bool)
BLOCK_ROWS = 512  # bounds the index temporaries of the partition check


def reference(img: np.ndarray) -> tuple[np.ndarray, int]:
    labels, k = ndimage.label(img, structure=STRUCTURE)
    return labels, int(k)


def digest(labels: np.ndarray) -> str:
    """Byte identity of a label image (dtype, shape and every byte)."""
    arr = np.ascontiguousarray(labels)
    h = hashlib.sha1(f"{arr.dtype.str}{arr.shape}".encode())
    h.update(memoryview(arr).cast("B"))
    return h.hexdigest()


def same_partition(labels, ref: np.ndarray, k: int) -> str | None:
    """Same foreground, K components, and a one-to-one label map: the
    distinct (program, reference) label pairs over the foreground number
    exactly K."""
    labels = np.asarray(labels)
    if labels.shape != ref.shape:
        return f"shape {labels.shape} != {ref.shape}"
    if labels.size == 0 or np.array_equal(labels, ref):
        return None  # SciPy also numbers in raster first-appearance order
    lo, hi = int(labels.min()), int(labels.max())
    if lo < 0 or hi != k:
        return f"labels span [{lo}, {hi}], expected [0, {k}]"
    # m[program label] = reference label, written block by block; a
    # second pass proves m is a function, the bincount that it is onto.
    m = np.zeros(k + 1, dtype=np.int64)
    rows = labels.shape[0]
    for r0 in range(0, rows, BLOCK_ROWS):
        blk, rblk = labels[r0 : r0 + BLOCK_ROWS], ref[r0 : r0 + BLOCK_ROWS]
        if not np.array_equal(blk > 0, rblk > 0):
            return f"foreground differs in rows {r0}..{r0 + len(blk) - 1}"
        m[blk] = rblk
    for r0 in range(0, rows, BLOCK_ROWS):
        blk, rblk = labels[r0 : r0 + BLOCK_ROWS], ref[r0 : r0 + BLOCK_ROWS]
        if not np.array_equal(m[blk], rblk):
            return "one program label covers two reference components"
    if k and np.bincount(m[1:], minlength=k + 1)[1:].max() != 1:
        return "two program labels share one reference component"
    return None


def phases_within_wall(result, wall: float) -> str | None:
    total = sum(result.phase_seconds.values())
    if total > wall:
        return f"phase_seconds sum {total:.4f}s exceeds the call's wall {wall:.4f}s"
    return None


def fault_free(rung: str, meta: dict) -> str | None:
    """A run without injected faults recovers from nothing."""
    if "degraded_from" in meta:
        return f"{rung} degraded: {meta['degraded_from']!r}"
    if rung == "shard":
        keys, stats = ("rank_deaths", "respawns"), meta
    elif rung == "net_shard":
        keys, stats = ("task_errors", "lease_expired"), meta.get("net", {})
    else:
        return None
    bad = {key: stats.get(key) for key in keys if stats.get(key) != 0}
    return f"{rung} reported {bad}" if bad else None


def equal(what: str, got, want) -> str | None:
    return None if got == want else f"{what}: {got!r} != {want!r}"
