"""The labeling ladder: five public entry points on the same raster.

Rungs, each timed against the one beneath it on the same input:
whole-image ``run-vectorized``; serial ``tiled_label`` (256² tiles);
PAREMSP with 2 processes; ``shard_label`` with 2 shards and a checkpoint
directory; ``net_shard_label`` with 2 loopback hosts.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

from . import oracle
from .inputs import count_runs

RUNGS = ("whole", "tiled", "paremsp", "shard", "net_shard")
WORKERS = 2
# Cold, PAREMSP's first 4096² call on noise-4k took 1.97 s against 1.36-
# 1.50 s for the next two. After one pass on a 1024² corner only the
# whole-image engine's first full-size call was still slower than its
# later ones (noise-4k, +9% in 4 of 5 runs), hence its full-size warm-up.
WARM_SIDE = 1024


def call(rung: str, img: np.ndarray, ck_dir):
    """One entry-point call: ``(labels, n_components, result or None)``."""
    import repro
    from repro.parallel import net_shard_label
    from repro.parallel.sharded import shard_label

    if rung == "whole":
        labels, n = repro.label(img, engine="vectorized")
        return labels, n, None
    if rung == "tiled":
        res = repro.tiled_label(img)
    elif rung == "paremsp":
        res = repro.paremsp(img, n_threads=WORKERS, backend="processes", engine="vectorized")
    elif rung == "shard":
        res = shard_label(img, n_shards=WORKERS, checkpoint_dir=ck_dir)
    elif rung == "net_shard":
        res = net_shard_label(img, virtual_hosts=WORKERS, n_shards=WORKERS)
    else:
        raise ValueError(rung)
    return res.labels, res.n_components, res


@dataclasses.dataclass
class Pass:
    start: float
    end: float
    wall: dict  # rung -> seconds of its call (absent when the call failed)
    cpu: float  # process-tree CPU seconds of the pass's calls
    rung_cpu: dict  # rung -> process-tree CPU seconds
    results: dict  # rung -> (phase_seconds, meta) of its call


class Ladder:
    def __init__(self, run, img: np.ndarray) -> None:
        self.run = run
        self.img = img
        self.ref, self.k = oracle.reference(img)
        self.runs = count_runs(img)
        self.first: dict[str, str] = {}  # rung -> digest of its first checked call

    def warm_up(self) -> None:
        """Untimed, every output checked: each rung once on the raster's
        top-left ``WARM_SIDE``² corner, which pays for lazy imports, pools
        and sockets at a fraction of a full pass; then the whole-image
        engine once on the full raster, called directly so that its run
        count can be checked against the benchmark's own, which also
        grows the heap to its full-size working set. The full raster's
        first timed pass carries the rungs' SciPy checks (``check``)."""
        from repro.ccl import run_based_vectorized

        corner = Ladder(self.run, np.ascontiguousarray(self.img[:WARM_SIDE, :WARM_SIDE]))
        for rung in RUNGS:
            done = self.run.attempt(rung, lambda: call(rung, corner.img, self.run.ck_dir))
            if done is not None:
                (labels, n, res), seconds, _ = done
                corner.check(rung, labels, n, res, seconds)
                del done, labels, res
        img = self.img
        done = self.run.attempt("run-vectorized", lambda: run_based_vectorized(img))
        if done is not None:
            res = done[0]
            self.run.check(
                "run-vectorized",
                oracle.equal("provisional_count against the run count",
                             res.provisional_count, self.runs),
                oracle.equal("components", res.n_components, self.k),
                oracle.same_partition(res.labels, self.ref, self.k),
            )
            del res, done

    def one_pass(self, extra=None) -> Pass:
        """Every rung once; *extra()* runs after them (the traced run's
        rungs beneath)."""
        wall, results = {}, {}
        rung_cpu = dict.fromkeys(RUNGS, 0.0)
        start = time.perf_counter()
        for rung in RUNGS:
            done = self.run.attempt(
                rung, lambda: call(rung, self.img, self.run.ck_dir), span=f"rung.{rung}"
            )
            if done is None:
                continue
            (labels, n, res), wall[rung], rung_cpu[rung] = done
            self.check(rung, labels, n, res, wall[rung])
            if res is not None:
                results[rung] = (dict(res.phase_seconds), res.meta)
            del labels, res
        if extra is not None:
            extra()
        return Pass(start=start, end=time.perf_counter(), wall=wall,
                    cpu=sum(rung_cpu.values()), rung_cpu=rung_cpu, results=results)

    def check(self, rung, labels, n, res, seconds) -> None:
        got = oracle.digest(labels)
        misses = [oracle.equal("components", n, self.k)]
        if rung in self.first:
            misses.append(oracle.equal("bytes against the first checked call",
                                       got, self.first[rung]))
        else:
            misses.append(oracle.same_partition(labels, self.ref, self.k))
            self.first[rung] = got
        if rung in ("shard", "net_shard"):
            misses.append(oracle.equal("bytes against tiled_label", got,
                                       self.first.get("tiled")))
        if res is not None:
            misses.append(oracle.phases_within_wall(res, seconds))
            misses.append(oracle.fault_free(rung, res.meta))
        if rung == "paremsp":
            misses.append(oracle.equal("provisional_count against the run count",
                                       res.provisional_count, self.runs))
        self.run.check(rung, *misses)
