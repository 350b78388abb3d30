"""Metric extraction: end-to-end values of an untraced run, per-layer
values of a traced one.

A ladder figure is the median over passes of the pass's value.
Throughput is the median over stream rounds of the round's rate, so that
a host stall inside one round does not move it; latency is taken over
every timed request of the run (512 per round).
"""

from __future__ import annotations

import math
import statistics
import time

from . import oracle
from .ladder import RUNGS


def tail(values: list[float], q: float = 0.99) -> float:
    """The *q* quantile (nearest rank), lowered until at least ten samples
    lie beyond it."""
    ordered = sorted(values)
    rank = min(math.ceil(q * len(ordered)), len(ordered) - 10)
    return ordered[max(rank, 1) - 1]


def end_to_end(passes, flow, setup_s, rss_mb) -> dict[str, float]:
    med = statistics.median
    values = {f"{rung}_s": med(p.wall[rung] for p in passes if rung in p.wall)
              for rung in RUNGS}
    values.update(
        setup_s=setup_s,
        cpu_s=med(p.cpu for p in passes),
        peak_rss_mb=rss_mb,
        req_per_s=med(r.received / (r.end - r.start) for r in flow.rounds),
        latency_p50_ms=med(flow.latencies) * 1e3,
    )
    return values


class Beneath:
    """The traced run's rungs beneath the ladder, after each pass's rungs:
    PAREMSP at T=1, its two row chunks through ``scan_runs_chunk``
    in-process, and ``scipy.ndimage.label`` as the native reference.
    Each series holds one value per pass."""

    def __init__(self, run, ladder) -> None:
        self.run = run
        self.ladder = ladder
        self.t1: list[float] = []
        self.chunk_sum: list[float] = []
        self.chunk_max: list[float] = []
        self.scipy: list[float] = []

    def after_rungs(self) -> None:
        import repro
        from repro.ccl.run_based import scan_runs_chunk
        from repro.parallel.partition import partition_rows

        run, img = self.run, self.ladder.img
        done = run.attempt("paremsp T=1", lambda: repro.paremsp(
            img, n_threads=1, backend="processes", engine="vectorized"), span="rung.paremsp_t1")
        if done is not None:
            res, seconds, _ = done
            self.t1.append(seconds)
            run.check("paremsp T=1", oracle.equal(
                "bytes against T=2", oracle.digest(res.labels),
                self.ladder.first.get("paremsp")))
        chunks = partition_rows(*img.shape, 2)
        used, times = 0, []
        for c in chunks:
            done = run.attempt("chunk kernel", lambda: scan_runs_chunk(
                img[c.row_start:c.row_stop], c.label_start))
            if done is not None:
                times.append(done[1])
                used += done[0][1] - c.label_start
        run.check("chunk kernel", oracle.equal(
            "chunk run counts against the run count", used, self.ladder.runs))
        self.chunk_sum.append(sum(times))
        self.chunk_max.append(max(times, default=0.0))
        start = time.perf_counter()
        oracle.reference(img)
        self.scipy.append(time.perf_counter() - start)


def _pass_layers(tracer, p) -> dict[str, float]:
    spans = [s for s in tracer.within(p.start, p.end) if tracer.rung_of(s) in RUNGS]

    def total(name, rung=None, key=None):
        picked = [s for s in spans if s[0] == name
                  and (rung is None or tracer.rung_of(s) == rung)]
        if key is None:
            return sum(s[2] - s[1] for s in picked), len(picked)
        return sum(key(s[4]) for s in picked), len(picked)

    out = {}
    out["types.validate_s"], out["types.validate_calls"] = total("types.validate")
    out["ccl.kernel_s"], out["ccl.kernel_calls"] = total("ccl.kernel")
    out["ccl.extract_runs_s"], _ = total("ccl.extract_runs")
    out["ccl.apply_table_s"], _ = total("ccl.apply_table", "paremsp")
    whole_s, _ = total("ccl.kernel", "whole")
    whole_px, _ = total("ccl.kernel", "whole", lambda a: a["px"])
    out["ccl.ns_per_px"] = whole_s / whole_px * 1e9 if whole_px else 0.0
    for phase in ("scan", "flatten", "label"):
        out[f"whole.{phase}_s"], _ = total("ccl.kernel", "whole", lambda a: a["phases"][phase])
    out["backends.scan_s"], _ = total("backends.scan", "paremsp")
    out["backends.boundary_s"], _ = total("backends.boundary", "paremsp")
    out["boundary.seam_s"], out["boundary.seam_calls"] = total("boundary.seam", "tiled")
    out["unionfind.flatten_s"], _ = total("unionfind.flatten")
    out["unionfind.flatten_labels"], _ = total("unionfind.flatten", key=lambda a: a["labels"])
    out["boundary.seam_unions"] = p.results["tiled"][1]["seam_unions"]

    def phases(rung, prefix, names):
        for name in names:
            out[f"{prefix}.{name}_s"] = p.results[rung][0].get(name, 0.0)

    phases("paremsp", "paremsp", ("scan", "merge", "flatten", "label"))
    phases("tiled", "tiled", ("scan", "merge", "flatten", "label"))
    phases("shard", "shard", ("scan", "seam", "reduce", "flatten", "label"))
    phases("net_shard", "net", ("scan", "seam", "reduce", "flatten", "label"))
    shard, net = p.results["shard"][1], p.results["net_shard"][1]["net"]
    out["shard.rank_deaths"] = shard["rank_deaths"]
    out["shard.respawns"] = shard["respawns"]
    for key, name in (("net_tasks", "tasks"), ("task_errors", "task_errors"),
                      ("lease_expired", "lease_expired")):
        out[f"net.{name}"] = net[key]
    return out


def _service_layers(tracer, flow, inproc) -> dict[str, float]:
    med = statistics.median
    spans = tracer.within(flow.start, flow.end)
    submits = [s for s in spans if s[0] == "service.submit"]
    submitted = {s[4]["request_id"]: tracer.spans[s[3]][2]
                 for s in spans if s[0] == "service.request_id"}
    dispatches = [s for s in spans if s[0] == "service.dispatch"]
    waits = [d[1] - submitted[rid] for d in dispatches
             for rid in d[4]["request_ids"] if rid in submitted]
    before, after = flow.stats
    batches = after.batches - before.batches
    times = inproc
    return {
        "service.admit_ms": med(s[2] - s[1] for s in submits) * 1e3,
        "service.queue_wait_ms": med(waits) * 1e3,
        "service.dispatch_ms": med(d[2] - d[1] for d in dispatches) * 1e3,
        "service.requests_per_batch": (after.completed - before.completed) / max(batches, 1),
        "service.kernel_ms": med(times) * 1e3,
        "service.inprocess_req_per_s": len(times) / sum(times),
        "service.rejected": (after.rejected_overload + after.rejected_quota
                             - before.rejected_overload - before.rejected_quota),
        "service.degraded_batches": after.degraded_batches - before.degraded_batches,
        "service.pool_respawns": after.pool_respawns - before.pool_respawns,
    }


def per_layer(tracer, passes, flow, ladder, beneath, inproc, import_s, boot_s) -> dict[str, float]:
    med = statistics.median
    if any(len(p.wall) < len(RUNGS) for p in passes):
        return {}  # a failed rung (reported as it happened) left no phases to read
    per_pass = [_pass_layers(tracer, p) for p in passes]
    values = {name: med(d[name] for d in per_pass) for name in per_pass[0]}
    t1 = beneath.t1
    values.update({
        "setup.import_s": import_s,
        "setup.service_boot_s": boot_s,
        "ccl.runs": ladder.runs,
        "ccl.components": ladder.k,
        "backends.chunk_kernel_s": med(beneath.chunk_sum),
        "backends.fork_ipc_s": med(d["backends.scan_s"] - m
                                   for d, m in zip(per_pass, beneath.chunk_max)),
        "paremsp.t1_s": med(t1),
        "paremsp.speedup": med(a / p.wall["paremsp"] for a, p in zip(t1, passes)),
        "ref.scipy_s": med(beneath.scipy),
    })
    values.update(_service_layers(tracer, flow, inproc))
    return values
