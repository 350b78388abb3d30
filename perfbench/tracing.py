"""In-memory spans around calls into the program's public functions.

The traced mode patches module, class and registry attributes from the
benchmark's side; nothing inside ``src/`` records spans. Work done in
forked children is invisible here and is attributed through the
coordinator-side spans and the ``phase_seconds`` the entry points
return.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import pathlib
import threading
import time


class Tracer:
    """Spans ``[name, start, end, parent, attrs]``; ``parent`` is the index
    of the span open on the same thread when this one began."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list[tuple] = []

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        stack = self._stack()
        rec = [name, time.perf_counter(), None, stack[-1] if stack else None, attrs]
        with self._lock:
            self.spans.append(rec)
            index = len(self.spans) - 1
        stack.append(index)
        try:
            yield attrs
        finally:
            stack.pop()
            rec[2] = time.perf_counter()

    def wrap(self, owner, attr: str, name: str, attrs_of=None) -> None:
        """Replace ``owner.attr`` (or ``owner[attr]`` for a dict) with a
        spanned call; ``attrs_of(args, kwargs, result)`` adds attributes."""
        is_dict = isinstance(owner, dict)
        original = owner[attr] if is_dict else getattr(owner, attr)

        def spanned(*args, **kwargs):
            with self.span(name) as attrs:
                out = original(*args, **kwargs)
                if attrs_of is not None:
                    attrs.update(attrs_of(args, kwargs, out))
            return out

        if is_dict:
            owner[attr] = spanned
        else:
            setattr(owner, attr, spanned)
        self._undo.append((owner, attr, original, is_dict))

    def restore(self) -> None:
        for owner, attr, original, is_dict in reversed(self._undo):
            if is_dict:
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._undo.clear()

    def within(self, start: float, end: float) -> list[list]:
        return [s for s in self.spans if s[2] is not None and start <= s[1] and s[2] <= end]

    def rung_of(self, span: list) -> str | None:
        """Name of the ``rung.*`` span enclosing *span*, if any."""
        parent = span[3]
        while parent is not None:
            above = self.spans[parent]
            if above[0].startswith("rung."):
                return above[0][len("rung."):]
            parent = above[3]
        return None

    def dump(self, path: pathlib.Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "attrs"],
             "spans": self.spans},
            default=str,
        ))


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics read."""
    # modules by path: ``repro.parallel.paremsp`` and friends are also
    # the names of the functions their packages re-export
    module = importlib.import_module
    repro = module("repro")
    registry, run_based = module("repro.ccl.registry"), module("repro.ccl.run_based")
    paremsp, sharded, tiled = (module(f"repro.parallel.{name}")
                               for name in ("paremsp", "sharded", "tiled"))
    frontend, pool = module("repro.service.frontend"), module("repro.service.pool")
    ProcessBackend = module("repro.parallel.backends.processes").ProcessBackend

    def validated(args, kwargs, out):
        return {"px": int(out.size)}

    for owner in (repro, tiled, sharded, paremsp, frontend):
        tracer.wrap(owner, "ensure_input", "types.validate", validated)
    tracer.wrap(run_based, "as_binary_image", "types.validate", validated)

    def kernel(args, kwargs, out):
        return {
            "px": int(out.labels.size),
            "provisional": int(out.provisional_count),
            "phases": dict(out.phase_seconds),
        }

    tracer.wrap(registry.ALGORITHMS, "run-vectorized", "ccl.kernel", kernel)
    for owner in (tiled, sharded, frontend):
        tracer.wrap(owner, "run_based_vectorized", "ccl.kernel", kernel)
    tracer.wrap(run_based, "extract_runs", "ccl.extract_runs")
    tracer.wrap(paremsp, "apply_table", "ccl.apply_table")

    tracer.wrap(ProcessBackend, "scan", "backends.scan")
    tracer.wrap(ProcessBackend, "boundary", "backends.boundary")
    tracer.wrap(tiled, "merge_boundary_row", "boundary.seam")

    tracer.wrap(tiled, "flatten", "unionfind.flatten",
                lambda a, k, out: {"labels": int(a[1]) - 1})
    tracer.wrap(sharded, "flatten", "unionfind.flatten",
                lambda a, k, out: {"labels": int(a[1]) - 1})
    tracer.wrap(paremsp, "flatten_ranges_array", "unionfind.flatten",
                lambda a, k, out: {"labels": sum(max(0, hi - max(lo, 1)) for lo, hi in a[1])})

    # submit mints the request id inside its span, so the id's parent is
    # the submit that queue wait is measured from.
    tracer.wrap(frontend, "new_request_id", "service.request_id",
                lambda a, k, rid: {"request_id": rid})
    tracer.wrap(frontend.LabelService, "submit", "service.submit")
    tracer.wrap(pool.WarmWorkerPool, "dispatch", "service.dispatch",
                lambda a, k, out: {"request_ids": list(k.get("request_ids") or ())})
