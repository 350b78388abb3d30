"""Run one workload of the benchmark and print its result as JSON.

    python3 perfbench/run.py --workload noise-4k --seed 1 --seconds 45 --trace 0

Every output is checked (``perfbench/oracle.py``); an operation that
raises, leaks or returns a wrong answer is counted in ``failed``. The
last line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics of ``BENCHMARK.json`` with
``--trace 0``, its per-layer metrics with ``--trace 1``.
"""

import time

T0 = time.perf_counter()  # set-up is timed from here, before any heavy import

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pathlib  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
IN_PROCESS_ROUNDS = 2


class Run:
    """Operation counters and the checks that feed them."""

    def __init__(self, scratch: pathlib.Path, tracer) -> None:
        from perfbench.audit import Audit

        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.tracer = tracer
        self.audit = Audit(scratch)
        self.ck_dir = scratch / "checkpoint"
        self.ck_dir.mkdir()

    def fail(self, what: str, reason: str, wrong: bool = False) -> None:
        self.failed += 1
        self.correct = self.correct and not wrong
        print(f"FAILED {what}: {reason}", file=sys.stderr)

    def check(self, what: str, *misses) -> bool:
        """Record the output checks of one operation; ``True`` if all hold."""
        found = [m for m in misses if m]
        if found:
            self.fail(what, "; ".join(found), wrong=True)
        return not found

    def attempt(self, what: str, fn, span: str | None = None):
        """One audited operation: ``(result, wall seconds, CPU seconds)``,
        or ``None`` when it raised or leaked."""
        from perfbench.audit import rusage_cpu

        self.attempted += 1
        before = self.audit.snapshot()
        cpu0 = rusage_cpu()
        start = time.perf_counter()
        try:
            if span is not None and self.tracer is not None:
                with self.tracer.span(span):
                    out = fn()
            else:
                out = fn()
        except Exception as exc:  # noqa: BLE001 - a failed operation is counted, not fatal
            self.fail(what, f"raised {type(exc).__name__}: {exc}")
            self.audit.leaks(before)
            return None
        wall = time.perf_counter() - start
        cpu = rusage_cpu() - cpu0
        leak = self.audit.leaks(before)
        if leak:
            self.fail(what, leak)
            return None
        return out, wall, cpu


def log(what: str) -> None:
    print(f"[{time.perf_counter() - T0:7.2f}s] {what}", file=sys.stderr)


def cycles(req, ladder, seconds: float, extra=None) -> list:
    """Whole cycles until *seconds* have elapsed; a cycle is one stream
    round, then one ladder pass. Interleaving spreads both over the run,
    so that a stall of the host hits one cycle rather than all of one
    kind. Returns the ladder passes."""
    passes = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        r = req.timed_round()
        p = ladder.one_pass(extra)
        passes.append(p)
        log(f"cycle {len(passes)}: stream {r.received / (r.end - r.start):.1f} req/s; "
            + " ".join(f"{rung}={w:.4f}/{p.rung_cpu[rung]:.4f}s" for rung, w in p.wall.items())
            + f" cpu={p.cpu:.3f}s")
    return passes


def parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("noise-4k", "blobs-4k"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse(argv)
    src = ROOT / "src"
    sys.path[:0] = [str(src), str(ROOT)]
    try:
        import repro
    except ImportError as exc:
        print(f"cannot import the program from {src}: {exc}", file=sys.stderr)
        return 2

    import_s = time.perf_counter() - T0
    if not pathlib.Path(repro.__file__).resolve().is_relative_to(src.resolve()):
        print(f"repro was imported from {repro.__file__}, not {src}", file=sys.stderr)
        return 2
    import tempfile
    from multiprocessing import resource_tracker

    import numpy as np

    from perfbench import inputs, layers, oracle, stream
    from perfbench.audit import peak_rss_mb
    from perfbench.ladder import Ladder
    from perfbench.tracing import Tracer, install
    from repro.service import LabelService, ServiceConfig

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    scratch = OUT / f"scratch-{os.getpid()}"
    scratch.mkdir(parents=True)
    tempfile.tempdir = str(scratch)  # program temp dirs stay in the checkout
    os.environ["TMPDIR"] = str(scratch)
    tracer = Tracer() if args.trace else None
    run = Run(scratch, tracer)
    # multiprocessing's resource tracker lives as long as this process;
    # start it now so the audits do not count it as a leaked child
    resource_tracker.ensure_running()
    svc = None
    try:
        service_before = run.audit.snapshot()
        run.attempted += 1  # the service's lifetime, audited as one operation
        boot = time.perf_counter()
        svc = LabelService(ServiceConfig(workers=2))
        probe = np.tri(64, dtype=np.uint8)
        probe_labels, probe_n = svc.label(probe)
        boot_s = time.perf_counter() - boot
        setup_s = import_s + boot_s

        if tracer is not None:
            install(tracer)
        ref, k = oracle.reference(probe)
        run.check("probe", oracle.equal("components", probe_n, k),
                  oracle.same_partition(probe_labels, ref, k))

        log(f"set-up {setup_s:.3f}s")
        data = inputs.make(args.workload, args.seed)
        req = stream.RequestStream(run, svc, data.requests)
        ladder = Ladder(run, data.raster)
        log("inputs and references made")
        ladder.warm_up()
        log("ladder warm-up")
        beneath = layers.Beneath(run, ladder) if tracer is not None else None
        passes = cycles(req, ladder, args.seconds, beneath.after_rungs if beneath else None)
        flow = req.finish()
        # the stream's tail is logged, not reported: it is set by the host's
        # scheduling stalls and did not hold a 0.25 bound (perfbench/README.md)
        log(f"stream: {flow.received} requests, latency p99 "
            f"{layers.tail(flow.latencies) * 1e3:.3f} ms")
        inproc = req.in_process(IN_PROCESS_ROUNDS) if tracer is not None else None
        del req
        svc.drain()
        leak = run.audit.leaks(service_before)
        if leak:
            run.fail("service", leak)

        if tracer is None:
            values = layers.end_to_end(passes, flow, setup_s, peak_rss_mb())
            wanted = spec["end_to_end"]
        else:
            tracer.restore()
            values = layers.per_layer(tracer, passes, flow, ladder, beneath, inproc,
                                      import_s, boot_s)
            wanted = spec["per_layer"]
            tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}.json")
    finally:
        if svc is not None:
            svc.drain()  # idempotent; ends the warm workers on an error path
        shutil.rmtree(scratch, ignore_errors=True)
        # the tracker ends at EOF on its pipe; close it and reap it now
        # (``_stop`` is private, hence the guard)
        if hasattr(resource_tracker._resource_tracker, "_stop"):
            resource_tracker._resource_tracker._stop()

    names = {m["name"] for m in wanted}
    if set(values) != names:
        print(f"metrics {sorted(set(values) ^ names)} missing or unexpected", file=sys.stderr)
        return 3
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": run.correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
