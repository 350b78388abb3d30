"""Iterative label-equivalence CCL — whole-array min propagation.

The second speed regime ROADMAP item 2 asks for: no Python-level
per-pixel loop at all, following the iterative label-equivalence family
(Chen et al.'s optimized union-find on GPUs, arXiv:1708.08180, and the
classic SIMD propagation kernels it descends from). Every foreground
pixel starts with a unique label (its linear index + 1) and the image
iterates a *run-aware* neighbourhood-min operator to a fixed point:

1. **row sweep** — every horizontal run of foreground pixels collapses
   to the run's minimum (one ``minimum.reduceat`` + gather, so a label
   crosses an arbitrarily long run in a single step, where the naive
   Jacobi kernel of :func:`repro.ccl.multipass.propagation_vectorized`
   needs one step per pixel);
2. **column sweep** — the same operator down columns;
3. **diagonal step** (8-connectivity only) — ``np.minimum`` against the
   four diagonal shifts, which is all that remains once rows and
   columns propagate in full.

Run segmentation depends only on the (fixed) foreground mask, so both
axes' segment indexes are computed once and every sweep is a handful of
whole-array ``reduceat``/gather/minimum passes.

Labels are nonincreasing and bounded below, so a fixed point exists;
each non-final sweep grows every component's minimum-label region by at
least one pixel, giving the termination bound ``iterations <=
max-component-size + 1 <= foreground-pixels + 1`` that the property
tests assert. At the fixed point each pixel holds its component's
minimal initial label — the raster-first linear index — so final
numbering falls out of one ``unique`` + ``searchsorted`` instead of a
union-find.

The regime where this engine wins (see ``make bench-density`` /
``docs/ALGORITHMS.md``): images whose components span long rows or
columns but fragment into *many short horizontal runs* — thin vertical
structure, dense stripe/ridge fields — where the run-based engine pays
per run and per overlap edge while this kernel converges in two or
three sweeps. Its worst case is serpentine/diagonal structure
(labels cross one bend per sweep), which the coarse-to-fine variant
(:mod:`repro.ccl.coarse2fine`) exists to contain.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConnectivityError
from ..obs import PhaseTimer, get_recorder
from ..types import LABEL_DTYPE, as_binary_image
from .labeling import CCLResult, check_label_capacity

__all__ = ["itequiv", "iteration_bound", "sweep_once"]

#: sentinel larger than any real label (labels are linear indexes + 1,
#: capped by check_label_capacity to fit LABEL_DTYPE).
_BIG = np.iinfo(LABEL_DTYPE).max


def _segments(fg_last_axis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Run segmentation along the last axis of boolean *fg_last_axis*.

    Returns ``(starts, ids)`` over the flattened array: *starts* are the
    flat indexes where a foreground run begins (position 0 of every row
    is always a run start, so ``reduceat`` segments never cross rows)
    and *ids* maps every flat position to its run (background positions
    carry their predecessor's id and are masked by callers).
    """
    last = fg_last_axis.shape[-1]
    flat_fg = fg_last_axis.reshape(-1, last)
    starts2d = flat_fg.copy()
    if last > 1:
        starts2d[:, 1:] &= ~flat_fg[:, :-1]
    starts = np.flatnonzero(starts2d.ravel())
    # run count <= pixel count, which check_label_capacity already
    # bounds to int32 range, so int32 ids keep the gather cheap.
    ids = np.cumsum(starts2d.ravel(), dtype=np.int32) - 1
    np.maximum(ids, 0, out=ids)
    return starts, ids


def _run_min(
    work_flat: np.ndarray,
    fg_flat: np.ndarray,
    starts: np.ndarray,
    ids: np.ndarray,
) -> np.ndarray:
    """Collapse every run to its min: one ``reduceat`` + one gather."""
    if starts.size == 0:
        return work_flat
    run_min = np.minimum.reduceat(work_flat, starts)
    return np.where(fg_flat, run_min[ids], _BIG)


class _SweepPlan:
    """Per-image precomputation shared by every sweep iteration."""

    def __init__(self, fg: np.ndarray) -> None:
        self.fg = fg
        self.fg_flat = fg.ravel()
        self.fg_t = np.ascontiguousarray(fg.T)
        self.fg_t_flat = self.fg_t.ravel()
        self.row_starts, self.row_ids = _segments(fg)
        self.col_starts, self.col_ids = _segments(self.fg_t)

    def sweep(self, work: np.ndarray, connectivity: int) -> np.ndarray:
        rows, cols = work.shape
        flat = _run_min(work.ravel(), self.fg_flat, self.row_starts,
                        self.row_ids)
        work_t = np.ascontiguousarray(flat.reshape(rows, cols).T)
        flat_t = _run_min(work_t.ravel(), self.fg_t_flat, self.col_starts,
                          self.col_ids)
        work = np.ascontiguousarray(flat_t.reshape(cols, rows).T)
        if connectivity == 8 and rows > 1 and cols > 1:
            out = work.copy()
            np.minimum(out[1:, 1:], work[:-1, :-1], out=out[1:, 1:])
            np.minimum(out[1:, :-1], work[:-1, 1:], out=out[1:, :-1])
            np.minimum(out[:-1, 1:], work[1:, :-1], out=out[:-1, 1:])
            np.minimum(out[:-1, :-1], work[1:, 1:], out=out[:-1, :-1])
            work = np.where(self.fg, out, LABEL_DTYPE(_BIG))
        return work


def sweep_once(work: np.ndarray, fg: np.ndarray, connectivity: int) -> np.ndarray:
    """One full propagation sweep (row run-min, column run-min, diagonal
    steps). Exposed for the fixed-point property tests: the engine's
    output is exactly the *work* array for which ``sweep_once`` is the
    identity."""
    return _SweepPlan(fg).sweep(work, connectivity)


def iteration_bound(img: np.ndarray) -> int:
    """Upper bound on the sweeps :func:`itequiv` may take on *img*.

    Each non-final sweep grows every component's minimum-label region by
    at least one pixel (the region's boundary always has a foreground
    neighbour inside the component, and row/column run-min reaches it),
    so the fixed point arrives within max-component-size sweeps; one
    extra sweep detects it. Foreground pixel count bounds component size
    without labeling anything.
    """
    return int(np.asarray(img, dtype=bool).sum()) + 1


def _renumber(
    work: np.ndarray, fg: np.ndarray, init: np.ndarray
) -> tuple[np.ndarray, int]:
    """Fixed-point labels → canonical 1..K finals, no sort needed.

    At the fixed point each pixel carries its component's minimal
    initial label = the component's raster-first linear index + 1, so
    ascending label order *is* raster first-appearance order. Better
    still, a pixel is its component's representative exactly when it
    kept its own initial label (background holds ``_BIG`` and can never
    match), so scanning for ``work == init`` yields the representatives
    in raster order and a direct lookup table renumbers in one gather —
    no ``unique`` sort over the full image.
    """
    reps = np.flatnonzero(work.ravel() == init.ravel())
    n = int(reps.size)
    lut = np.zeros(work.size + 1, dtype=LABEL_DTYPE)
    lut[reps + 1] = np.arange(1, n + 1, dtype=LABEL_DTYPE)
    lab = np.where(fg, work, 0)
    labels = lut[lab]
    return labels, n


def itequiv(image: np.ndarray, connectivity: int = 8) -> CCLResult:
    """Label *image* by iterative run-aware min-label propagation.

    >>> import numpy as np
    >>> int(itequiv(np.eye(4, dtype=np.uint8)).n_components)
    1
    """
    if connectivity not in (4, 8):
        raise ConnectivityError(
            f"connectivity must be 4 or 8, got {connectivity!r}"
        )
    img = as_binary_image(image)
    rows, cols = img.shape
    check_label_capacity((rows, cols))
    fg = img != 0

    rec = get_recorder()
    mark = rec.mark()
    timer = PhaseTimer(rec)
    iterations = 0
    with timer.time("scan"):
        init = np.arange(1, rows * cols + 1, dtype=LABEL_DTYPE).reshape(
            rows, cols
        )
        work = np.where(fg, init, LABEL_DTYPE(_BIG))
        if fg.any():
            plan = _SweepPlan(fg)
            while True:
                nxt = plan.sweep(work, connectivity)
                iterations += 1
                if np.array_equal(nxt, work):
                    break
                work = nxt
    with timer.time("label"):
        labels, n = _renumber(work, fg, init)
    timer.seconds.setdefault("flatten", 0.0)
    if rec.enabled:
        rec.gauge("itequiv.iterations", float(iterations))
    return CCLResult(
        labels=labels,
        n_components=n,
        provisional_count=int(fg.sum()),
        phase_seconds=timer.seconds,
        algorithm="itequiv",
        meta={"iterations": iterations, "bound": iteration_bound(img)},
        timings=rec.report(since=mark) if rec.enabled else None,
    )
