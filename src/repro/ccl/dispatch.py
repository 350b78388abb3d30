"""Shape-statistics engine auto-dispatch — registry name ``"auto"``.

The registry now holds several vectorised engines whose relative speed
flips with image statistics: the run-based kernel pays per run and per
overlap edge, so it dominates when runs are long (horizontal structure,
sparse noise) and loses when the image fragments into very many
single-pixel runs with tall vertical structure; the iterative
propagation kernel (:mod:`repro.ccl.itequiv`) converges in two or three
sweeps exactly in that fragmented-vertical regime and melts down on
serpentine/diagonal structure; the 2x2-block kernel sits between. Rather
than asking callers to know this, ``auto`` measures three cheap
whole-array statistics —

* foreground **density**,
* **row runs per pixel** (horizontal 0→1 transitions — the run-based
  engine's exact workload), and
* **column runs per pixel** (the same statistic down columns — what
  separates vertical stripes, where propagation wins, from diagonal
  chains, where it is pathological)

— and picks the engine that a *measured* dispatch table says is fastest
for the nearest measured regime in that feature space.

The table is data-derived, not hand-tuned: ``make bench-density`` races
every candidate engine across a pattern x density sweep (i.i.d. noise
ladder plus structured stripe/diagonal families), records the timings
as :mod:`repro.perfdb` history records (benchmark ``density_sweep``),
and :func:`build_dispatch_table` reduces the record to a list of
measured cells — feature vector → winning engine — committed as
``dispatch_table.json`` next to this module. Dispatch is then
nearest-neighbour over the committed cells. Regenerating the table on
new hardware is one ``make`` target; shipping it is a reviewable JSON
diff.

Tiny images short-circuit to the default engine: below
:data:`SMALL_IMAGE_PIXELS` the constant costs of any vectorised kernel
dominate and measuring them is noise.

On the benchmark rasters (2048² and 4096², 2 vCPUs) the table's one
route away from ``run-vectorized`` gains nothing beyond run-to-run
spread, and the statistics make ``auto`` slower than calling
``run-vectorized`` directly; ``docs/ALGORITHMS.md`` has the figures.
"""

from __future__ import annotations

import dataclasses
import json
import math
import pathlib
from typing import Any, Mapping

import numpy as np

from ..obs import get_recorder
from ..types import as_binary_image
from .labeling import CCLResult

__all__ = [
    "SMALL_IMAGE_PIXELS",
    "DEFAULT_ENGINE",
    "CANDIDATE_ENGINES",
    "FEATURES",
    "TABLE_PATH",
    "DispatchStats",
    "image_stats",
    "load_dispatch_table",
    "build_dispatch_table",
    "choose_engine",
    "auto_label",
]

#: engine used when the image is tiny, the table has no opinion, or the
#: table's pick is not defined at the requested connectivity.
DEFAULT_ENGINE = "run-vectorized"

#: engines the density sweep races and the table may therefore name.
CANDIDATE_ENGINES: tuple[str, ...] = (
    "run-vectorized",
    "block2x2",
    "itequiv",
    "coarse2fine",
)

#: the feature vector order used by table cells and nearest-cell lookup.
FEATURES: tuple[str, ...] = (
    "density",
    "row_runs_per_pixel",
    "col_runs_per_pixel",
)

#: below this pixel count dispatch always uses :data:`DEFAULT_ENGINE`.
SMALL_IMAGE_PIXELS = 4096

#: the committed, bench-derived dispatch table.
TABLE_PATH = pathlib.Path(__file__).with_name("dispatch_table.json")

#: built-in fallback when no table file exists (fresh checkout mid-edit,
#: packaging that dropped the data file): the run-based engine
#: everywhere except the fragmented-vertical regime (density ~0.5, every
#: second column: row runs/px ~0.5 but almost no column runs), where the
#: iterative kernel converges in two sweeps — the qualitative shape
#: every measured table so far has had.
_FALLBACK_TABLE: dict[str, Any] = {
    "schema_version": 2,
    "source": "fallback",
    "default": DEFAULT_ENGINE,
    "features": list(FEATURES),
    "cells": [
        {"connectivity": c, "pattern": p, "density": d,
         "features": [d, rr, cr], "engine": e}
        for c in (4, 8)
        for p, d, rr, cr, e in (
            ("noise", 0.05, 0.05, 0.05, "run-vectorized"),
            ("noise", 0.50, 0.25, 0.25, "run-vectorized"),
            ("noise", 0.95, 0.05, 0.05, "run-vectorized"),
            ("vstripes", 0.50, 0.50, 0.0, "itequiv"),
            ("hstripes", 0.50, 0.0, 0.50, "run-vectorized"),
            ("diag", 0.50, 0.50, 0.50, "run-vectorized"),
        )
    ],
}


@dataclasses.dataclass(frozen=True)
class DispatchStats:
    """The cheap whole-array statistics dispatch decides on."""

    pixels: int
    density: float
    row_runs_per_pixel: float
    col_runs_per_pixel: float

    @property
    def features(self) -> tuple[float, ...]:
        """Feature vector in :data:`FEATURES` order."""
        return (self.density, self.row_runs_per_pixel,
                self.col_runs_per_pixel)


def image_stats(image: np.ndarray) -> DispatchStats:
    """Measure *image* for dispatch: a ``mean`` and two shift-``diff``
    passes, O(pixels) with small constants."""
    img = np.asarray(image)
    pixels = int(img.size)
    if pixels == 0:
        return DispatchStats(pixels=0, density=0.0, row_runs_per_pixel=0.0,
                             col_runs_per_pixel=0.0)
    fg = img != 0
    density = float(fg.mean())
    if fg.ndim == 2 and fg.shape[0] > 0 and fg.shape[1] > 0:
        # run starts per axis = runs the scanning engines will extract
        row_starts = int(fg[:, :1].sum()) + int(
            (fg[:, 1:] & ~fg[:, :-1]).sum()
        )
        col_starts = int(fg[:1, :].sum()) + int(
            (fg[1:, :] & ~fg[:-1, :]).sum()
        )
    else:
        row_starts = col_starts = int(fg.sum())
    return DispatchStats(
        pixels=pixels,
        density=density,
        row_runs_per_pixel=row_starts / pixels,
        col_runs_per_pixel=col_starts / pixels,
    )


def load_dispatch_table(path: pathlib.Path | str | None = None) -> dict:
    """Load the committed dispatch table, or the built-in fallback."""
    p = pathlib.Path(path) if path is not None else TABLE_PATH
    try:
        with open(p) as fh:
            table = json.load(fh)
    except (OSError, json.JSONDecodeError):
        return dict(_FALLBACK_TABLE)
    if (
        not isinstance(table, dict)
        or not isinstance(table.get("cells"), list)
        or table.get("schema_version") != 2
    ):
        return dict(_FALLBACK_TABLE)
    return table


def build_dispatch_table(
    record: Mapping[str, Any],
    *,
    default: str = DEFAULT_ENGINE,
) -> dict:
    """Reduce a ``density_sweep`` perfdb record to a dispatch table.

    The sweep's record carries one entry per ``(connectivity, pattern,
    density, engine)`` cell with the measured feature vector and best
    time; the table keeps, per ``(connectivity, pattern, density)``
    regime, the engine with the lowest time.
    """
    regimes: dict[tuple[int, str, float], dict[str, Any]] = {}
    for cell in record.get("cells") or []:
        try:
            key = (int(cell["connectivity"]), str(cell["pattern"]),
                   float(cell["density"]))
            engine = str(cell["engine"])
            seconds = float(cell["best_seconds"])
            features = [float(f) for f in cell["features"]]
        except (KeyError, TypeError, ValueError):
            continue
        regime = regimes.setdefault(key, {"features": features,
                                          "timings": {}})
        regime["timings"][engine] = seconds
    cells = []
    for (conn, pattern, density), regime in sorted(regimes.items()):
        timings = regime["timings"]
        best = min(timings, key=lambda e: timings[e])
        cells.append({
            "connectivity": conn,
            "pattern": pattern,
            "density": density,
            "features": regime["features"],
            "engine": best,
            "best_seconds": timings[best],
            "default_seconds": timings.get(DEFAULT_ENGINE),
        })
    return {
        "schema_version": 2,
        "source": record.get("benchmark", "density_sweep"),
        "default": default,
        "features": list(FEATURES),
        "cells": cells,
        "meta": {
            "env": (record.get("env") or {}),
            "created_utc": record.get("created_utc"),
        },
    }


def choose_engine(
    image: np.ndarray,
    connectivity: int = 8,
    *,
    table: Mapping[str, Any] | None = None,
    small_image_pixels: int = SMALL_IMAGE_PIXELS,
) -> tuple[str, dict]:
    """Pick an engine for *image* and explain the decision.

    Returns ``(engine_name, info)`` where *info* records the statistics,
    the nearest measured cell, and the rule that fired — it lands in
    ``CCLResult.meta["dispatch"]`` so every auto-dispatched result is
    auditable after the fact.
    """
    from .registry import ALGORITHMS, EIGHT_CONNECTIVITY_ONLY

    if table is None:
        table = load_dispatch_table()
    stats = image_stats(image)
    default = table.get("default", DEFAULT_ENGINE)
    info: dict = {
        "requested": "auto",
        "pixels": stats.pixels,
        "density": round(stats.density, 4),
        "row_runs_per_pixel": round(stats.row_runs_per_pixel, 4),
        "col_runs_per_pixel": round(stats.col_runs_per_pixel, 4),
        "table_source": table.get("source", "?"),
    }
    if stats.pixels < small_image_pixels:
        info["rule"] = "small-image"
        return default, info
    cells = [
        c for c in table.get("cells") or []
        if c.get("connectivity") == connectivity
        and isinstance(c.get("features"), list)
        and len(c["features"]) == len(FEATURES)
    ]
    if not cells:
        info["rule"] = "no-table-cells"
        return default, info
    target = stats.features

    def distance(cell: Mapping[str, Any]) -> float:
        # all features live in [0, 1]; unweighted L2 is enough
        return math.sqrt(sum(
            (float(f) - t) ** 2 for f, t in zip(cell["features"], target)
        ))

    nearest = min(cells, key=distance)
    engine = str(nearest.get("engine", default))
    info["nearest"] = {
        "pattern": nearest.get("pattern"),
        "density": nearest.get("density"),
        "distance": round(distance(nearest), 4),
    }
    if engine not in ALGORITHMS or (
        engine in EIGHT_CONNECTIVITY_ONLY and connectivity != 8
    ):
        info["rule"] = "cell-engine-unavailable"
        return default, info
    info["rule"] = "nearest-cell"
    return engine, info


def auto_label(image: np.ndarray, connectivity: int = 8) -> CCLResult:
    """Label *image* with the engine the dispatch table picks for it.

    The returned :class:`CCLResult` is the chosen engine's, with
    ``meta["dispatch"]`` describing the decision; ``result.algorithm``
    names the engine that actually ran.

    >>> import numpy as np
    >>> int(auto_label(np.eye(3, dtype=np.uint8)).n_components)
    1
    """
    from .registry import get_algorithm

    img = as_binary_image(image)
    engine, info = choose_engine(img, connectivity)
    rec = get_recorder()
    if rec.enabled:
        rec.count(f"dispatch.pick.{engine}")
        rec.count("dispatch.engine_selected")
        rec.gauge("dispatch.density", info["density"])
        rec.gauge("dispatch.pixels", float(info["pixels"]))
        # the decision rides the trace too: one span wrapping the
        # engine run, attributed with the pick and the rule that
        # fired, so a chrome export answers "which engine, and why"
        # per request without cross-referencing counters.
        with rec.span(
            "dispatch",
            attrs={
                "engine": engine,
                "rule": info["rule"],
                "density": info["density"],
                "pixels": info["pixels"],
            },
        ):
            result = get_algorithm(engine)(img, connectivity)
    else:
        result = get_algorithm(engine)(img, connectivity)
    meta = dict(result.meta)
    meta["dispatch"] = dict(info, engine=engine)
    return dataclasses.replace(result, meta=meta)
