"""Each output check of the benchmark rejects a corrupted output.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import multiprocessing
import time
import types
from multiprocessing import resource_tracker
from multiprocessing.connection import wait

import numpy as np
import pytest

from perfbench import inputs, oracle, steady
from perfbench.audit import Audit
from perfbench.ladder import Ladder


class Recorder:
    """Stands in for the run: keeps the misses the checks report."""

    def __init__(self) -> None:
        self.misses: list[str] = []

    def check(self, what, *misses) -> bool:
        found = [m for m in misses if m]
        self.misses += found
        return not found


@pytest.fixture
def image():
    return inputs.bernoulli(np.random.default_rng(7), (48, 40), 0.45)


@pytest.fixture
def truth(image):
    return oracle.reference(image)


def relabel_one_pixel(labels: np.ndarray) -> np.ndarray:
    """Give one pixel of component 1 the label of component 2."""
    out = labels.copy()
    r, c = np.argwhere(out == 1)[0]
    out[r, c] = 2
    return out


def split_one_component(labels: np.ndarray) -> np.ndarray:
    """Move one pixel of the largest component to a fresh label."""
    out = labels.copy()
    big = np.bincount(out.ravel())[1:].argmax() + 1
    r, c = np.argwhere(out == big)[0]
    out[r, c] = out.max() + 1
    return out


def permuted(labels: np.ndarray) -> np.ndarray:
    k = int(labels.max())
    lut = np.concatenate([[0], np.random.default_rng(1).permutation(k) + 1]).astype(labels.dtype)
    return lut[labels]


CORRUPTIONS = [relabel_one_pixel, split_one_component]


def test_partition_accepts_other_numberings(truth):
    ref, k = truth
    assert oracle.same_partition(ref, ref, k) is None
    assert oracle.same_partition(permuted(ref), ref, k) is None


@pytest.mark.parametrize("corrupt", CORRUPTIONS)
def test_partition_rejects(corrupt, truth):
    ref, k = truth
    assert oracle.same_partition(corrupt(ref), ref, k) is not None
    assert oracle.same_partition(corrupt(permuted(ref)), ref, k) is not None


def test_partition_rejects_a_foreground_change(truth):
    ref, k = truth
    bad = ref.copy()
    bad[bad == 0] = 1  # background swallowed into component 1
    assert oracle.same_partition(bad, ref, k) is not None


CLEAN = {"rank_deaths": 0, "respawns": 0, "net": {"task_errors": 0, "lease_expired": 0}}


def result(phases=None, meta=None, provisional=0):
    return types.SimpleNamespace(phase_seconds=phases or {"scan": 0.1},
                                 meta=CLEAN if meta is None else meta,
                                 provisional_count=provisional)


@pytest.fixture
def ladder(image):
    lad = Ladder(Recorder(), image)
    for rung in ("tiled", "shard"):
        lad.check(rung, permuted(lad.ref), lad.k, result(), 1.0)
    assert lad.run.misses == []
    return lad


@pytest.mark.parametrize("corrupt", CORRUPTIONS)
@pytest.mark.parametrize("rung", ["whole", "paremsp"])
def test_first_call_rejects(corrupt, rung, ladder):
    ref, k = ladder.ref, ladder.k
    res = None if rung == "whole" else result(provisional=ladder.runs)
    ladder.check(rung, corrupt(ref), k, res, 1.0)
    assert ladder.run.misses


@pytest.mark.parametrize("corrupt", CORRUPTIONS)
def test_repeat_call_must_match_the_first(corrupt, ladder):
    ref, k = ladder.ref, ladder.k
    ladder.check("tiled", corrupt(permuted(ref)), k, result(), 1.0)
    assert any("first checked call" in m for m in ladder.run.misses)


@pytest.mark.parametrize("rung", ["shard", "net_shard"])
def test_shards_must_match_tiled_bytes(rung, ladder):
    ref, k = ladder.ref, ladder.k
    ladder.check(rung, ref, k, result(), 1.0)  # a valid partition, other bytes
    assert any("tiled_label" in m for m in ladder.run.misses)


def test_component_count_must_match(ladder):
    ref, k = ladder.ref, ladder.k
    ladder.check("whole", ref, k + 1, None, 1.0)
    assert ladder.run.misses


def test_phase_seconds_within_wall(ladder):
    ref, k = ladder.ref, ladder.k
    ladder.check("tiled", permuted(ref), k, result({"scan": 0.7, "label": 0.4}), 1.0)
    assert any("phase_seconds" in m for m in ladder.run.misses)


@pytest.mark.parametrize("rung,meta", [
    ("shard", {"rank_deaths": 1, "respawns": 0}),
    ("shard", {"rank_deaths": 0, "respawns": 1}),
    ("net_shard", {"net": {"task_errors": 1, "lease_expired": 0}}),
    ("net_shard", {"net": {"task_errors": 0, "lease_expired": 2}}),
    ("tiled", {"degraded_from": {"backend": "x"}}),
])
def test_fault_free_meta(rung, meta):
    assert oracle.fault_free(rung, meta) is not None


def test_fault_free_meta_passes_clean_runs():
    assert oracle.fault_free("shard", {"rank_deaths": 0, "respawns": 0}) is None
    assert oracle.fault_free("net_shard", {"net": {"task_errors": 0, "lease_expired": 0}}) is None


def test_provisional_count_must_equal_the_run_count(ladder, image):
    import repro

    ref, k = ladder.ref, ladder.k
    assert repro.ccl.run_based_vectorized(image).provisional_count == inputs.count_runs(image)
    ladder.check("paremsp", ref, k, result(provisional=ladder.runs + 1), 1.0)
    assert any("run count" in m for m in ladder.run.misses)


def test_totals_must_agree():
    assert oracle.equal("stats().completed growth", 5, 5) is None
    assert oracle.equal("stats().completed growth", 4, 5) is not None


def test_audit_reports_scratch_and_child_leaks(tmp_path):
    resource_tracker.ensure_running()  # lives as long as the test process
    audit = Audit(tmp_path)
    before = audit.snapshot()
    (tmp_path / "left-behind").write_text("x")
    assert "scratch" in audit.leaks(before)
    before = audit.snapshot()
    child = multiprocessing.get_context("spawn").Process(target=time.sleep, args=(30,))
    child.start()
    try:
        assert "child pids" in audit.leaks(before)
    finally:
        child.terminate()
        child.join(30)
    assert not child.is_alive()
    assert audit.leaks(before) is None


def test_audit_reports_an_exited_unjoined_child(tmp_path):
    resource_tracker.ensure_running()
    audit = Audit(tmp_path)
    before = audit.snapshot()
    child = multiprocessing.get_context("fork").Process(target=int)
    child.start()
    wait([child.sentinel], timeout=30)  # exited, not joined
    assert "child pids" in audit.leaks(before)
    child.join(30)
    assert child.exitcode == 0
    assert audit.leaks(before) is None


def _runs(values, failed=0, correct=True):
    return [{"metrics": {"x_s": {"value": v}}, "failed": failed, "attempted": 10,
             "correct": correct} for v in values]


SPEC = {"workloads": [{"name": "w"}],
        "end_to_end": [{"name": "x_s", "better": "lower", "bound": 0.25}]}
STEADY = [1.0, 1.01, 0.99, 1.02, 0.98]


@pytest.mark.parametrize("set2,kw,ok", [
    (STEADY, {}, True),
    ([v * 0.7 for v in STEADY], {}, False),  # better by more than the bound
    ([v * 1.3 for v in STEADY], {}, False),  # worse by more than the bound
    ([0.5, 1.0, 1.0, 1.0, 2.0], {}, False),  # spread over the bound
    (STEADY, {"failed": 1}, False),
    (STEADY, {"correct": False}, False),
])
def test_steadiness_verdict(set2, kw, ok, capsys):
    sets = [{"w": _runs(STEADY)}, {"w": _runs(set2, **kw)}]
    assert steady.verdict(SPEC, sets) is ok
    assert ("MISS" in capsys.readouterr().out) is not ok
