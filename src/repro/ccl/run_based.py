"""RUN — the run-based two-scan algorithm of He, Chao, Suzuki (2008).

Reference [43], the "RUN" column of the paper's comparison. Instead of
labeling pixels, the first scan identifies maximal horizontal *runs* of
foreground pixels; each run either adopts the label of an 8-connected run
in the previous row (overlap of column intervals, widened by one on each
side for diagonal contact) or receives a new label, and additional
overlapping runs trigger equivalence resolution in the rtable/next/tail
structure. The second scan paints whole runs — the per-pixel work
collapses to run bookkeeping, which is why this algorithm vectorises so
well.

Two engines:

* :func:`run_based` — interpreter engine, faithful row/run loops;
* :func:`run_based_vectorized` — NumPy engine: run extraction via
  ``diff`` over the padded image, interval-overlap matching via
  ``searchsorted``, unions via hook-and-compress on run ids, painting
  via an interval prefix-sum. This is the library's throughput engine
  for large images (used by ``repro.label(..., engine="vectorized")``).

The NumPy engine and PAREMSP's chunk scan (:func:`scan_runs_chunk`)
share one band loop: extraction, overlap search and union run per
*band* of whole rows sized to stay in cache (``_BAND_PIXELS`` pixels),
and the *seams* where bands meet are unioned once, on band roots only.
The result is the parent array one whole-image union would give, so
labels do not depend on the band height.
"""

from __future__ import annotations

import time

import numpy as np

from ..types import LABEL_DTYPE, as_binary_image
from ..unionfind.flatten import flatten
from .arun_ds import RunEquivalence
from .labeling import CCLResult

__all__ = [
    "run_based",
    "run_based_vectorized",
    "row_runs",
    "extract_runs",
    "scan_runs_chunk",
]

#: Pixels per band of the NumPy run kernels: ``max(1, _BAND_PIXELS //
#: cols)`` whole rows (32 at 4096 px) keep a band's run, edge and paint
#: arrays in cache. 2**16 to 2**18 measured within noise on 4096²
#: rasters.
_BAND_PIXELS = 2**17


def row_runs(row: np.ndarray) -> list[tuple[int, int]]:
    """Maximal foreground runs of a 1-D binary row as ``(start, stop)``
    half-open column intervals (vectorised)."""
    padded = np.empty(len(row) + 2, dtype=np.int8)
    padded[0] = padded[-1] = 0
    padded[1:-1] = row
    d = np.diff(padded)
    starts = np.flatnonzero(d == 1)
    stops = np.flatnonzero(d == -1)
    return list(zip(starts.tolist(), stops.tolist()))


def extract_runs(img: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All maximal runs of a 2-D binary image in raster order.

    Returns ``(row, start, stop)`` arrays with half-open image-space
    column intervals. One ``diff`` over the zero-padded, flattened image
    finds every run: padding guarantees runs never cross row boundaries.
    """
    rows, cols = img.shape
    W = cols + 2
    padded = np.zeros((rows, W), dtype=np.int8)
    padded[:, 1:-1] = img
    d = np.diff(padded.ravel())
    starts_flat = np.flatnonzero(d == 1)
    stops_flat = np.flatnonzero(d == -1)
    run_row = starts_flat // W
    # d[k] == 1 at k = r*W + (padded col of first fg) - 1, and image col =
    # padded col - 1, so the image-space start is starts_flat % W; the
    # half-open stop works out to stops_flat % W the same way.
    run_s = starts_flat - run_row * W
    run_e = stops_flat - run_row * W
    return run_row, run_s, run_e


def _overlap_pairs(
    run_row: np.ndarray,
    run_s: np.ndarray,
    run_e: np.ndarray,
    rows: int,
    reach: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Indices ``(ii, jj)`` of every (current, previous-row) run overlap.

    Composite keys ``row * W + col`` are globally ascending (cols stay
    below ``W = max(col) + 2``), so two whole-array ``searchsorted`` calls
    locate each run's overlap slice, clamped to the previous row's range:
    prev ``j`` overlaps cur ``i`` iff ``prev_e[j] > cur_s[i] - reach`` and
    ``prev_s[j] < cur_e[i] + reach``. Returns 0-based run indices.
    """
    empty = np.empty(0, dtype=np.int64)
    if len(run_s) == 0:
        return empty, empty
    W = int(run_e.max()) + 2
    s_keys = run_row * W + run_s
    e_keys = run_row * W + run_e
    cur_idx = np.flatnonzero(run_row > 0)
    if not len(cur_idx):
        return empty, empty
    prev_base = (run_row[cur_idx] - 1) * W
    first = np.searchsorted(
        e_keys, prev_base + run_s[cur_idx] - reach, side="right"
    )
    last = np.searchsorted(
        s_keys, prev_base + run_e[cur_idx] + reach, side="left"
    )
    row_begin = np.searchsorted(run_row, np.arange(rows), side="left")
    row_end = np.searchsorted(run_row, np.arange(rows), side="right")
    prev_rows = run_row[cur_idx] - 1
    first = np.maximum(first, row_begin[prev_rows])
    last = np.minimum(last, row_end[prev_rows])
    counts = np.maximum(0, last - first)
    total = int(counts.sum())
    if not total:
        return empty, empty
    cum = np.cumsum(counts)
    ii = np.repeat(cur_idx, counts)  # current-run index
    jj = np.arange(total) - np.repeat(cum - counts, counts)
    jj += np.repeat(first, counts)  # previous-run index
    return ii, jj


def _union_min_runs(
    n_runs: int, ii: np.ndarray, jj: np.ndarray
) -> np.ndarray:
    """Resolve run-overlap edges to per-run component minima, in NumPy.

    Classic hook-and-compress: every edge hooks the larger of the two
    endpoint roots onto the smaller (``minimum.at`` resolves colliding
    hooks to the smallest candidate), then pointer jumping fully
    compresses the forest; repeat until no edge spans two roots.
    Converges in O(log n) rounds and replaces the per-edge interpreter
    union loop. Returns the fully-compressed 0-based parent array:
    ``parent[i]`` is the smallest run index of ``i``'s component —
    exactly the root REMSP would settle on, since Rem's invariant keeps
    each set's minimum as its root regardless of merge order.
    """
    parent = np.arange(n_runs, dtype=np.int64)
    if not len(ii):
        return parent
    while True:
        pu, pv = parent[ii], parent[jj]
        hi = np.maximum(pu, pv)
        lo = np.minimum(pu, pv)
        live = hi != lo
        if not live.any():
            return parent
        np.minimum.at(parent, hi[live], lo[live])
        while True:
            hop = parent[parent]
            if np.array_equal(hop, parent):
                break
            parent = hop


def _paint_runs(
    run_row: np.ndarray,
    run_s: np.ndarray,
    run_e: np.ndarray,
    values: np.ndarray,
    out: np.ndarray,
) -> None:
    """Expand per-run *values* into *out*, a ``(rows, cols)`` pixel array
    (background becomes 0).

    Interval painting by prefix sum: scatter ``+value`` at each run start
    and ``-value`` one past each run end in the padded flat image, then
    one ``cumsum`` reconstructs the fill. Runs are disjoint with at least
    the padding column between rows, so the running sum is always either
    0 or the enclosing run's value — two O(runs) scatters plus one
    O(pixels) scan, with no materialised per-pixel index arrays. Every
    pixel of *out* is written.
    """
    rows, cols = out.shape
    W = cols + 1  # one padding column separates consecutive rows
    delta = np.zeros(rows * W + 1, dtype=LABEL_DTYPE)
    if len(run_s):
        base = run_row * W
        delta[base + run_s] = values
        delta[base + run_e] = -values
    # cumsum into a preallocated buffer: NumPy's out-less int32 cumsum
    # takes a ~3x slower path, and this scan is the paint's entire
    # per-pixel cost.
    flat = np.empty(rows * W, dtype=LABEL_DTYPE)
    np.cumsum(delta[:-1], out=flat)
    out[:] = flat.reshape(rows, W)[:, :cols]


def _band_rows(cols: int) -> int:
    """Rows per band for an image *cols* pixels wide."""
    return max(1, _BAND_PIXELS // max(cols, 1))


_Band = tuple[int, int, np.ndarray, np.ndarray, np.ndarray]


def _scan_bands(
    img: np.ndarray, reach: int, band: int
) -> tuple[list[_Band], np.ndarray]:
    """Runs and their component roots, one band of *band* rows at a time.

    Each band runs :func:`extract_runs` over its rows plus the row above,
    :func:`_overlap_pairs` over those runs and :func:`_union_min_runs`
    over the band's internal edges, so every array stays band-sized.
    Edges into the row above are kept as seam edges in global run ids
    (raster order over the whole image). After the last band, the seam
    endpoints' band roots form one compact graph: one union over it and
    one gather over the parent array join the bands.

    Returns ``(bands, parent)``. Each band is ``(row0, row1, run_row,
    run_s, run_e)``, its runs in raster order with ``run_row`` relative
    to ``row0``; bands follow each other, so concatenated they are the
    image's runs. ``parent`` is what one whole-image
    :func:`_union_min_runs` returns: fully compressed, ``parent[i]``
    the smallest raster index of run ``i``'s component.
    """
    rows = img.shape[0]
    bands: list[_Band] = []
    parents: list[np.ndarray] = []
    seam_u: list[np.ndarray] = []
    seam_v: list[np.ndarray] = []
    n_runs = 0
    for row0 in range(0, rows, band):
        row1 = min(row0 + band, rows)
        top = max(row0 - 1, 0)
        run_row, run_s, run_e = extract_runs(img[top:row1])
        ii, jj = _overlap_pairs(run_row, run_s, run_e, row1 - top, reach)
        if row0:
            # the row above leads the arrays: its runs are the previous
            # band's last-row runs, global ids n_runs - above onwards
            above = int(np.searchsorted(run_row, 1))
            seam = jj < above
            seam_u.append(ii[seam] + (n_runs - above))
            seam_v.append(jj[seam] + (n_runs - above))
            inner = ~seam
            ii, jj = ii[inner] - above, jj[inner] - above
            run_row, run_s, run_e = run_row[above:] - 1, run_s[above:], run_e[above:]
        local = _union_min_runs(len(run_s), ii, jj)
        local += n_runs
        parents.append(local)
        bands.append((row0, row1, run_row, run_s, run_e))
        n_runs += len(run_s)
    parent = np.concatenate(parents) if parents else np.empty(0, np.int64)
    if seam_u:
        u = parent[np.concatenate(seam_u)]
        v = parent[np.concatenate(seam_v)]
        # sorted roots: the compact union's minima are the global minima
        roots, ends = np.unique(np.concatenate((u, v)), return_inverse=True)
        link = _union_min_runs(len(roots), ends[: len(u)], ends[len(u) :])
        parent[roots] = roots[link]
        parent = parent[parent]
    return bands, parent


def _paint_bands(bands: list[_Band], values: np.ndarray, out: np.ndarray) -> None:
    """Paint per-run *values* (all runs, raster order) into *out*, one
    band at a time."""
    first = 0
    for row0, row1, run_row, run_s, run_e in bands:
        last = first + len(run_s)
        _paint_runs(run_row, run_s, run_e, values[first:last], out[row0:row1])
        first = last


def scan_runs_chunk(
    img_chunk: np.ndarray,
    label_start: int,
    connectivity: int = 8,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, int, np.ndarray]:
    """Vectorised chunk scan for PAREMSP's ``vectorized`` engine.

    Labels one row chunk with the run-based first scan, allocating
    provisional labels from the chunk's disjoint range starting at
    *label_start* (Algorithm 7 line 7). Operates directly on the ndarray
    view — no ``tolist()`` marshalling.

    Returns ``(label_chunk, used, p_slice)``: the per-pixel provisional
    labels (``LABEL_DTYPE``, background 0), the watermark one past the
    last allocated label, and the equivalence slice covering
    ``[label_start, used)`` with *global* parent values. At most one run
    per two pixels, so the range can never collide with the next chunk's
    ``label_start``. With *out*, the label chunk is painted into that
    array (a backend's label-plane slice) and returned instead of a
    fresh allocation.

    The scan runs through the same band loop as
    :func:`run_based_vectorized`: extraction, overlap search and union
    per band of rows (pair-aligned here), then one seam union, in raster
    run order. The pair-order ids and parents below are derived from
    that raster-order result.

    Provisional ids are handed out in the order AREMSP's two-row scan
    would first touch each run — rows in pairs, column-major within a
    pair, an odd tail row last — not in raster run order. Chunks are
    pair-aligned and label ranges ascend with row ranges, so a
    component's smallest global id is its global first-visit, Rem's
    structure keeps that minimum as the root, and FLATTEN's ascending
    root numbering therefore reproduces sequential AREMSP's final
    numbering with no renumbering pass.
    """
    rows, cols = img_chunk.shape
    reach = 1 if connectivity == 8 else 0
    band = _band_rows(cols)
    # even band heights keep every band pair-aligned, so each band's
    # pair ids are one contiguous range
    bands, parent = _scan_bands(img_chunk, reach, band + (band & 1))
    n_runs = len(parent)
    # pair-traversal key of each run's first pixel: pair t spans
    # [t*2*cols, (t+1)*2*cols) with (r, c) at 2c + (r & 1); an odd tail
    # row continues with one key per column. Keys are unique (distinct
    # starts within a row, distinct parity across a pair's rows).
    even = (rows // 2) * 2
    pair_id = np.empty(n_runs, dtype=np.int64)
    first = 0
    for row0, _, run_row, run_s, _ in bands:
        key = (run_row >> 1) * (2 * cols) + np.where(
            run_row < even - row0, 2 * run_s + (run_row & 1), run_s
        )
        last = first + len(run_s)
        pair_id[first + np.argsort(key)] = np.arange(first, last)
        first = last
    # pair-space parent: each component's smallest pair id, gathered at
    # its raster-space root
    low = np.full(n_runs, n_runs, dtype=np.int64)
    np.minimum.at(low, parent, pair_id)
    p_slice = np.empty(n_runs, dtype=LABEL_DTYPE)
    p_slice[pair_id] = low[parent] + label_start
    label_chunk = np.empty((rows, cols), dtype=LABEL_DTYPE) if out is None else out
    _paint_bands(bands, (pair_id + label_start).astype(LABEL_DTYPE), label_chunk)
    return label_chunk, label_start + n_runs, p_slice


def run_based(image: np.ndarray, connectivity: int = 8) -> CCLResult:
    """Label *image* with the run-based two-scan algorithm (interpreter
    engine)."""
    img = as_binary_image(image)
    rows, cols = img.shape
    # a run consumes >= 1 foreground pixel + a gap => <= ceil(cols/2)/row;
    # +2 keeps degenerate (empty) images above the structure's minimum.
    capacity = rows * ((cols + 1) // 2) + 2
    eq = RunEquivalence(capacity)
    reach = 1 if connectivity == 8 else 0

    t0 = time.perf_counter()
    prev: list[tuple[int, int, int]] = []  # (start, stop, label)
    all_runs: list[list[tuple[int, int, int]]] = []
    for r in range(rows):
        cur: list[tuple[int, int, int]] = []
        j = 0  # cursor into prev (both run lists are sorted by column)
        for s, e in row_runs(img[r]):
            lo, hi = s - reach, e + reach
            label = 0
            while j < len(prev) and prev[j][1] <= lo:
                j += 1
            k = j
            while k < len(prev) and prev[k][0] < hi:
                if label == 0:
                    label = eq.rtable[prev[k][2]]
                else:
                    label = eq.resolve(label, prev[k][2])
                k += 1
            if label == 0:
                label = eq.alloc()
            cur.append((s, e, label))
        all_runs.append(cur)
        prev = cur
    t1 = time.perf_counter()
    count = eq.count
    n_components = flatten(eq.rtable, count)
    t2 = time.perf_counter()
    labels = np.zeros((rows, cols), dtype=LABEL_DTYPE)
    rt = eq.rtable
    for r, cur in enumerate(all_runs):
        lr = labels[r]
        for s, e, l in cur:
            lr[s:e] = rt[l]
    t3 = time.perf_counter()
    return CCLResult(
        labels=labels,
        n_components=n_components,
        provisional_count=count - 1,
        phase_seconds={"scan": t1 - t0, "flatten": t2 - t1, "label": t3 - t2},
        algorithm="run",
    )


def run_based_vectorized(image: np.ndarray, connectivity: int = 8) -> CCLResult:
    """Label *image* with the NumPy run-based engine.

    Vectorisation strategy (per the optimisation guide: replace per-pixel
    loops with array passes, keep access stride-1):

    1. the image is cut into bands of whole rows sized to stay in cache;
       steps 2–4 run per band, over the band's rows and the row above;
    2. all runs extracted with one ``diff`` (:func:`extract_runs`);
    3. per row, each current run's overlapping previous-row runs form a
       contiguous slice found with two ``searchsorted`` calls; the
       (current, previous) overlap pairs are materialised with ``repeat``
       arithmetic instead of nested Python loops;
    4. unions happen on *run ids* with a hook-and-compress pass
       (:func:`_union_min_runs`) — union traffic is proportional to
       overlaps, not pixels, and no interpreter loop remains;
    5. one seam union joins the bands, on band roots only;
    6. painting is an interval prefix-sum, band by band.
    """
    img = as_binary_image(image)
    rows, cols = img.shape
    reach = 1 if connectivity == 8 else 0

    t0 = time.perf_counter()
    bands, parent = _scan_bands(img, reach, _band_rows(cols))
    n_runs = len(parent)
    t1 = time.perf_counter()
    # FLATTEN over the compressed forest: roots (self-parented runs) take
    # consecutive finals in ascending index order — the same numbering
    # interpreter FLATTEN produces, since REMSP roots are component minima.
    rank = np.cumsum(parent == np.arange(n_runs), dtype=LABEL_DTYPE)
    n_components = int(rank[-1]) if n_runs else 0
    final = rank[parent]
    t2 = time.perf_counter()
    labels = np.empty((rows, cols), dtype=LABEL_DTYPE)
    _paint_bands(bands, final, labels)
    t3 = time.perf_counter()
    return CCLResult(
        labels=labels,
        n_components=n_components,
        provisional_count=n_runs,
        phase_seconds={"scan": t1 - t0, "flatten": t2 - t1, "label": t3 - t2},
        algorithm="run-vectorized",
    )
