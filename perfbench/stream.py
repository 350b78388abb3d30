"""Closed-loop request stream through ``LabelService(workers=2)``.

One client thread keeps two requests outstanding: a request is sent only
when an earlier one has completed, so a slow service receives less load.
Latency runs from just before ``submit`` to the moment the result is set
on the future. The stream is sent in rounds, each every request once;
every round keeps its own throughput and latencies, so that a stall of
the host shows in one round rather than in the whole stream.
"""

from __future__ import annotations

import dataclasses
import queue
import time

import numpy as np

from . import oracle

OUTSTANDING = 2
RESULT_TIMEOUT = 60.0


@dataclasses.dataclass
class Round:
    start: float
    end: float
    latencies: list[float]
    received: int


@dataclasses.dataclass
class Stream:
    rounds: list[Round]
    stats: tuple  # ServiceStats before and after the timed rounds

    @property
    def start(self) -> float:
        return self.rounds[0].start

    @property
    def end(self) -> float:
        return self.rounds[-1].end

    @property
    def received(self) -> int:
        return sum(r.received for r in self.rounds)

    @property
    def latencies(self) -> list[float]:
        return [x for r in self.rounds for x in r.latencies]


def _round(run, svc, requests, on_result) -> Round:
    """Send every request once."""
    pending: dict = {}  # future -> (request index, send time)
    completions: queue.SimpleQueue = queue.SimpleQueue()
    latencies: list[float] = []
    received = 0
    start = time.perf_counter()

    def collect() -> None:
        # the done callback runs after the future's waiters wake, so the
        # completion time travels with the future through this queue
        nonlocal received
        fut, done = completions.get(timeout=RESULT_TIMEOUT)
        index, sent = pending.pop(fut)
        run.attempted += 1
        try:
            labels, n = fut.result()
        except Exception as exc:  # noqa: BLE001 - a failed request is counted, not fatal
            run.fail("request", f"raised {type(exc).__name__}: {exc}")
            return
        received += 1
        latencies.append(done - sent)
        on_result(index, labels, n)

    for index, img in enumerate(requests):
        while len(pending) >= OUTSTANDING:
            collect()
        sent = time.perf_counter()
        fut = svc.submit(img)
        pending[fut] = (index, sent)
        fut.add_done_callback(lambda f: completions.put((f, time.perf_counter())))
    while pending:
        collect()
    return Round(start, time.perf_counter(), latencies, received)


class RequestStream:
    def __init__(self, run, svc, requests: list[np.ndarray]) -> None:
        self.run = run
        self.svc = svc
        self.requests = requests
        self.refs = [oracle.reference(img) for img in requests]
        self.rounds: list[Round] = []
        self.before = svc.stats()

    def check(self, what: str, index: int, labels, n) -> None:
        """Every response against SciPy on its own request; the partition
        check passes at the cost of one ``array_equal`` when the bytes
        equal SciPy's raster-order numbering."""
        ref, k = self.refs[index]
        self.run.check(what, oracle.equal("components", n, k),
                       oracle.same_partition(labels, ref, k))

    def timed_round(self) -> Round:
        done = _round(self.run, self.svc, self.requests,
                      lambda index, labels, n: self.check("request", index, labels, n))
        self.rounds.append(done)
        return done

    def finish(self) -> Stream:
        """The timed rounds, with the service's stats around them."""
        out = Stream(self.rounds, (self.before, self.svc.stats()))
        self.run.check("service", oracle.equal(
            "stats().completed growth against results received",
            out.stats[1].completed - self.before.completed, out.received))
        return out

    def in_process(self, rounds: int) -> list[float]:
        """The rung beneath the service: the same requests through
        ``repro.label`` in this process; seconds per request."""
        import repro

        times: list[float] = []
        for _ in range(rounds):
            for index, img in enumerate(self.requests):
                done = self.run.attempt("in-process", lambda: repro.label(img, engine="vectorized"))
                if done is not None:
                    (labels, n), seconds, _ = done
                    times.append(seconds)
                    self.check("in-process", index, labels, n)
        return times
