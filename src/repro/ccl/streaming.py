"""Streaming (online, row-at-a-time) component labeling.

For rasters that arrive as a row stream — scanline sensors, decoded
imagery, files larger than memory — a two-pass algorithm is off the
table: the image cannot be revisited. But the paper's machinery is
enough for the *measurement* use cases (count objects, areas, bounding
boxes): keep only the previous row's runs and a union-find over the
still-active labels, and a component can be finalised the moment no run
of the current row touches it.

Peak memory is O(active components + row width), independent of image
height — the property the test suite asserts. Labels are allocated
append-only into the union-find array, so the labeler periodically
*compacts*: once the array outgrows a constant multiple of
(active + width) it is rebuilt over the live roots only, with an
order-preserving renumbering (emission order — sorted root order — is
unchanged, because renumbering is monotone and new labels are always
larger than every remapped one, exactly as before compaction).

Usage::

    labeler = StreamingLabeler(cols=8192)
    for row in rows:
        for comp in labeler.push_row(row):
            handle(comp)           # finalised: will never grow again
    for comp in labeler.finish():
        handle(comp)
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, Iterator

import numpy as np

from ..errors import InputError
from ..obs import get_recorder
from ..types import binary_pixels
from ..unionfind.remsp import find_root, merge as remsp_merge
from .run_based import row_runs

__all__ = ["FinishedComponent", "StreamingLabeler", "stream_label"]


@dataclasses.dataclass(frozen=True)
class FinishedComponent:
    """A component that can no longer grow.

    ``ident`` numbers components in completion order (1-based); ``bbox``
    is (row_min, col_min, row_max, col_max) inclusive. ``runs`` is
    ``None`` unless the labeler was constructed with ``track_runs=True``,
    in which case it holds every maximal run of the component as
    ``(row, start, stop)`` half-open column intervals — enough to paint
    the component's pixels (what the checkpointed streaming job does).
    """

    ident: int
    area: int
    bbox: tuple[int, int, int, int]
    runs: tuple[tuple[int, int, int], ...] | None = None


class _Stats:
    __slots__ = ("area", "r0", "c0", "r1", "c1")

    def __init__(self, r: int, s: int, e: int) -> None:
        self.area = e - s
        self.r0 = self.r1 = r
        self.c0 = s
        self.c1 = e - 1

    def add_run(self, r: int, s: int, e: int) -> None:
        self.area += e - s
        self.r1 = r
        if s < self.c0:
            self.c0 = s
        if e - 1 > self.c1:
            self.c1 = e - 1

    def fold(self, other: "_Stats") -> None:
        self.area += other.area
        self.r0 = min(self.r0, other.r0)
        self.c0 = min(self.c0, other.c0)
        self.r1 = max(self.r1, other.r1)
        self.c1 = max(self.c1, other.c1)


class StreamingLabeler:
    """Online labeler over a row stream of fixed width.

    *recorder* defaults to the ambient :func:`repro.obs.get_recorder`;
    with tracing enabled the labeler counts rows, runs, unions,
    finalisations, and compactions, and tracks the peak active-component
    and union-find-slot gauges.
    """

    def __init__(
        self,
        cols: int,
        connectivity: int = 8,
        recorder=None,
        track_runs: bool = False,
    ) -> None:
        if cols < 0:
            raise ValueError(f"row width must be >= 0, got {cols}")
        if connectivity not in (4, 8):
            raise ValueError(
                f"connectivity must be 4 or 8, got {connectivity}"
            )
        self.cols = cols
        self.reach = 1 if connectivity == 8 else 0
        self._rec = recorder if recorder is not None else get_recorder()
        self._p: list[int] = [0]
        self._stats: dict[int, _Stats] = {}
        self._prev: list[tuple[int, int, int]] = []  # (s, e, label)
        self._row = 0
        self._emitted = 0
        self._finished = False
        self._track_runs = bool(track_runs)
        # per-root run lists; peak memory becomes O(active area) when on
        self._runs: dict[int, list[tuple[int, int, int]]] = {}

    # -- internals ---------------------------------------------------------

    def _union(self, a: int, b: int) -> int:
        p = self._p
        ra, rb = find_root(p, a), find_root(p, b)
        if ra == rb:
            return ra
        remsp_merge(p, ra, rb)
        winner = find_root(p, ra)
        loser = rb if winner == ra else ra
        self._stats[winner].fold(self._stats.pop(loser))
        if self._track_runs:
            self._runs[winner].extend(self._runs.pop(loser))
        if self._rec.enabled:
            self._rec.count("stream.unions")
        return winner

    def _compact(self) -> None:
        """Rebuild the union-find over live roots only.

        The renumbering maps sorted active roots to 1..K, which is
        monotone — so the sorted-root emission order is preserved (see
        module docstring). ``_prev`` labels are resolved to roots first
        so the dropped interior of old union chains is never needed
        again.
        """
        p = self._p
        remap: dict[int, int] = {}
        new_p = [0]
        for root in sorted(self._stats):
            remap[root] = len(new_p)
            new_p.append(len(new_p))
        self._stats = {remap[r]: st for r, st in self._stats.items()}
        if self._track_runs:
            self._runs = {remap[r]: v for r, v in self._runs.items()}
        self._prev = [
            (s, e, remap[find_root(p, l)]) for s, e, l in self._prev
        ]
        self._p = new_p
        if self._rec.enabled:
            self._rec.count("stream.compactions")

    def _emit(self, root: int) -> FinishedComponent:
        st = self._stats.pop(root)
        self._emitted += 1
        return FinishedComponent(
            ident=self._emitted,
            area=st.area,
            bbox=(st.r0, st.c0, st.r1, st.c1),
            runs=tuple(self._runs.pop(root)) if self._track_runs else None,
        )

    # -- public API ----------------------------------------------------------

    @property
    def active_components(self) -> int:
        """Components still touching the frontier (may yet grow)."""
        return len(self._stats)

    @property
    def completed_components(self) -> int:
        return self._emitted

    @property
    def equivalence_slots(self) -> int:
        """Current union-find array length — the memory observable the
        O(active + width) claim bounds (see :meth:`_compact`)."""
        return len(self._p)

    def push_row(self, row: np.ndarray) -> list[FinishedComponent]:
        """Consume one row; return components finalised by it.

        A row meets the library's one input policy
        (:func:`repro.types.binary_pixels`, the value rule of
        :func:`repro.types.ensure_input`): ``bool``, wide-integer and
        binary float rows are coerced; other dtypes and values outside
        ``{0, 1}`` raise :class:`~repro.errors.ImageFormatError`. A row
        of the wrong width raises :class:`~repro.errors.InputError`.
        """
        if self._finished:
            raise RuntimeError("labeler already finished")
        row = np.asarray(row).ravel()
        if len(row) != self.cols:
            raise InputError(
                f"expected a row of width {self.cols}, got {len(row)}"
            )
        row = binary_pixels(row, "row")
        p = self._p
        r = self._row
        cur: list[tuple[int, int, int]] = []
        prev = self._prev
        j = 0
        for s, e in row_runs(row):
            lo, hi = s - self.reach, e + self.reach
            label = 0
            while j < len(prev) and prev[j][1] <= lo:
                j += 1
            k = j
            while k < len(prev) and prev[k][0] < hi:
                if label == 0:
                    label = find_root(p, prev[k][2])
                else:
                    label = self._union(label, prev[k][2])
                k += 1
            if label == 0:
                label = len(p)
                p.append(label)
                self._stats[label] = _Stats(r, s, e)
                if self._track_runs:
                    self._runs[label] = [(r, s, e)]
            else:
                self._stats[label].add_run(r, s, e)
                if self._track_runs:
                    self._runs[label].append((r, s, e))
            cur.append((s, e, label))
        # finalise: previous-row components with no successor run
        survivors = {find_root(p, l) for _, _, l in cur}
        done = [
            root
            for root in {find_root(p, l) for _, _, l in prev}
            if root not in survivors
        ]
        out = [self._emit(root) for root in sorted(done)]
        self._prev = cur
        self._row = r + 1
        if self._rec.enabled:
            rec = self._rec
            rec.count("stream.rows")
            rec.count("stream.runs", len(cur))
            rec.count("stream.finalized", len(out))
            rec.gauge_max("stream.active_peak", len(self._stats))
            rec.gauge_max("stream.slots_peak", len(p))
        if len(self._p) > max(64, 4 * (len(self._stats) + self.cols + 2)):
            self._compact()
        return out

    def state(self) -> dict:
        """A plain-data snapshot of the full labeler state.

        Everything a byte-identical continuation needs: the frontier
        (``prev`` runs and next row index), the active union-find array
        (whose length is the compaction watermark), per-root statistics
        and (when tracked) run lists, and the emission counter. The
        dict contains only builtins, so it serialises with any codec;
        :meth:`from_state` inverts it exactly.
        """
        return {
            "cols": self.cols,
            "connectivity": 8 if self.reach else 4,
            "p": list(self._p),
            "stats": {
                int(root): (st.area, st.r0, st.c0, st.r1, st.c1)
                for root, st in self._stats.items()
            },
            "prev": [tuple(t) for t in self._prev],
            "row": self._row,
            "emitted": self._emitted,
            "finished": self._finished,
            "track_runs": self._track_runs,
            "runs": (
                {int(r): [tuple(t) for t in v] for r, v in self._runs.items()}
                if self._track_runs
                else None
            ),
        }

    @classmethod
    def from_state(cls, state: dict, recorder=None) -> "StreamingLabeler":
        """Reconstruct a labeler from a :meth:`state` snapshot.

        The reconstruction is exact: pushing the same remaining rows
        into the restored labeler emits the same components (same
        idents, areas, bboxes, runs) as the original would have.
        """
        obj = cls(
            cols=state["cols"],
            connectivity=state["connectivity"],
            recorder=recorder,
            track_runs=state["track_runs"],
        )
        obj._p = [int(v) for v in state["p"]]
        stats: dict[int, _Stats] = {}
        for root, (area, r0, c0, r1, c1) in state["stats"].items():
            st = _Stats.__new__(_Stats)
            st.area, st.r0, st.c0, st.r1, st.c1 = area, r0, c0, r1, c1
            stats[int(root)] = st
        obj._stats = stats
        obj._prev = [tuple(t) for t in state["prev"]]
        obj._row = int(state["row"])
        obj._emitted = int(state["emitted"])
        obj._finished = bool(state["finished"])
        if state["track_runs"]:
            obj._runs = {
                int(r): [tuple(t) for t in v]
                for r, v in state["runs"].items()
            }
        return obj

    def finish(self) -> list[FinishedComponent]:
        """Signal end of stream; return all remaining components."""
        if self._finished:
            raise RuntimeError("labeler already finished")
        self._finished = True
        # the surviving stats keys are exactly the still-active roots
        out = [self._emit(root) for root in sorted(self._stats)]
        if self._rec.enabled:
            self._rec.count("stream.finalized", len(out))
        return out


def stream_label(
    rows: Iterable[np.ndarray],
    cols: int,
    connectivity: int = 8,
    recorder=None,
) -> Iterator[FinishedComponent]:
    """Generator convenience: yield finalised components from a row
    iterable.

    >>> import numpy as np
    >>> img = np.array([[1, 0, 1], [0, 0, 0], [1, 1, 1]], dtype=np.uint8)
    >>> [c.area for c in stream_label(img, cols=3)]
    [1, 1, 3]
    """
    labeler = StreamingLabeler(cols, connectivity, recorder=recorder)
    for row in rows:
        yield from labeler.push_row(row)
    yield from labeler.finish()
