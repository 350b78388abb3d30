"""Seeded inputs of the benchmark's workloads, made with its own NumPy.

Every workload has one 4096² *raster*, labeled by each public entry
point of the ladder in turn, and every other one of its 128² tiles as
the *requests* streamed through the labeling service. All inputs are
8-connected binary ``uint8`` images; the same seed gives the same bytes.
"""

from __future__ import annotations

import dataclasses

import numpy as np

SIDE = 4096
# 128² requests: with 256² tiles the stream's p99 read 2-4x its p50 and
# moved 0.6-0.8 of its median between runs; with 128² it reads ~1.5x p50.
REQUEST_SIDE = 128
NOISE_DENSITY = 0.45  # just above the 8-connected percolation threshold
BLOB_ROUNDS = 4

WORKLOADS = ("noise-4k", "blobs-4k")


@dataclasses.dataclass
class Inputs:
    raster: np.ndarray
    requests: list[np.ndarray]


def bernoulli(rng: np.random.Generator, shape: tuple[int, int], p: float) -> np.ndarray:
    """i.i.d. Bernoulli(*p*) raster, drawn in row blocks to bound the
    float temporary."""
    rows, cols = shape
    out = np.empty(shape, dtype=np.uint8)
    step = max(1, (1 << 22) // max(cols, 1))
    for r0 in range(0, rows, step):
        block = rng.random((min(step, rows - r0), cols))
        np.less(block, p, out=out[r0 : r0 + step], casting="unsafe")
    return out


def majority_smooth(img: np.ndarray, rounds: int) -> np.ndarray:
    """*rounds* of 3×3 majority voting (outside the raster counts as 0)."""
    rows, cols = img.shape
    for _ in range(rounds):
        padded = np.pad(img, 1)
        votes = np.zeros((rows, cols), dtype=np.uint8)
        for dr in range(3):
            for dc in range(3):
                votes += padded[dr : dr + rows, dc : dc + cols]
        img = (votes >= 5).astype(np.uint8)
    return img


def tiles(raster: np.ndarray, tile: int = REQUEST_SIDE) -> list[np.ndarray]:
    rows, cols = raster.shape
    return [
        np.ascontiguousarray(raster[r0 : r0 + tile, c0 : c0 + tile])
        for r0 in range(0, rows, tile)
        for c0 in range(0, cols, tile)
    ]


def make(workload: str, seed: int) -> Inputs:
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "noise-4k":
        raster = bernoulli(rng, (SIDE, SIDE), NOISE_DENSITY)
    elif workload == "blobs-4k":
        raster = majority_smooth(bernoulli(rng, (SIDE, SIDE), 0.5), BLOB_ROUNDS)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    # 512 requests, every other tile in raster order: a stream round takes
    # 1.2-1.6 s, so a run holds more ladder passes than with all 1,024
    return Inputs(raster, tiles(raster)[::2])


def count_runs(img: np.ndarray) -> int:
    """Maximal horizontal foreground runs: a run starts at a foreground
    pixel whose left neighbour is background or the border."""
    starts = np.count_nonzero(img[:, 0])
    return int(starts + np.count_nonzero(img[:, 1:] > img[:, :-1]))
