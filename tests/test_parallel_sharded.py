"""The elastic sharded runtime (:mod:`repro.parallel.sharded`).

The acceptance bar is byte-identity with serial
:func:`~repro.parallel.tiled.tiled_label` — under every shard count,
every supervised rank death (including the root of the reduce tree),
dropped seam messages, quorum loss, and a real ``SIGKILL`` of the whole
coordinator followed by ``resume=True``. Geometry and forest-merge
units are covered first so a matrix failure localises.
"""

from __future__ import annotations

import multiprocessing
import os
import pathlib
import select
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.errors import ResumeMismatchError, WorkerCrashError
from repro.faults import FaultPlan, FaultSpec, ResilienceConfig
from repro.obs import TraceRecorder
from repro.parallel import (
    build_reduce_schedule,
    plan_shards,
    shard_label,
    tiled_label,
)
from repro.parallel.sharded import _merge_pair_forest

SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")

#: bounded retries, no backoff padding, tight-but-safe watchdog.
FAST = ResilienceConfig(max_retries=2, backoff_base=0.0, phase_timeout=60.0)

TILE = (8, 8)


def _image(rng, rows=40, cols=24, density=0.5):
    arr = (rng.random((rows, cols)) < density).astype(np.uint8)
    arr[0, :] = arr[-1, :] = arr[:, 0] = arr[:, -1] = 1
    return arr


def _no_orphan_ranks():
    return not [
        p for p in multiprocessing.active_children()
        if p.name.startswith("shard-rank")
    ]


# ---------------------------------------------------------------------------
# geometry + schedule units
# ---------------------------------------------------------------------------


class TestShardPlan:
    def test_bands_partition_rows_on_tile_boundaries(self):
        plan = plan_shards(100, 30, (16, 16), 3)
        assert plan.bands[0][0] == 0
        assert plan.bands[-1][1] == 100
        for (_, hi), (lo, _) in zip(plan.bands, plan.bands[1:]):
            assert hi == lo
            assert hi % 16 == 0  # interior boundaries are tile-aligned
        assert plan.n_tiles == 7 * 2  # ceil(100/16) x ceil(30/16)

    def test_clamps_to_tile_row_count(self):
        plan = plan_shards(40, 24, TILE, 99)
        assert plan.n_shards == 5  # only 5 tile rows exist

    def test_balanced_within_one_tile_row(self):
        plan = plan_shards(41 * 8, 8, TILE, 4)
        heights = [hi - lo for lo, hi in plan.bands]
        assert max(heights) - min(heights) <= 8

    def test_tiles_are_raster_ordered(self):
        plan = plan_shards(32, 32, TILE, 2)
        tiles = [t for s in range(plan.n_shards) for t in plan.tiles(s)]
        assert tiles == sorted(tiles)  # (row, col) lexicographic = raster

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            plan_shards(10, 10, (0, 8), 2)
        with pytest.raises(ValueError):
            plan_shards(10, 10, TILE, 0)


class TestReduceSchedule:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_every_seam_consumed_exactly_once(self, n):
        levels, top = build_reduce_schedule(n)
        seams = [node["seam"] for lvl in levels for node in lvl]
        assert sorted(seams) == list(range(n - 1))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_log_depth(self, n):
        levels, top = build_reduce_schedule(n)
        assert len(levels) == (0 if n == 1 else int(np.ceil(np.log2(n))))
        if n == 1:
            assert top == ("shard", 0)
        else:
            assert top[0] == "node"

    def test_children_reference_earlier_work(self):
        levels, _ = build_reduce_schedule(7)
        produced = {("shard", s) for s in range(7)}
        for lvl in levels:
            for node in lvl:
                for ref in node["children"]:
                    assert ref in produced
            produced |= {("node", node["id"]) for node in lvl}


class TestForestMerge:
    def test_min_root_union(self):
        out = _merge_pair_forest([np.array([[5, 2], [2, 1]])])
        forest = dict(map(tuple, out))
        assert forest[5] == 1 and forest[2] == 1

    def test_idempotent_across_inputs(self):
        a = np.array([[4, 2]])
        b = np.array([[2, 1], [4, 2]])
        out = dict(map(tuple, _merge_pair_forest([a, b])))
        assert out == {4: 1, 2: 1}

    def test_empty(self):
        assert _merge_pair_forest([]).size == 0


# ---------------------------------------------------------------------------
# the property matrix: shard counts x deaths, against the serial oracle
# ---------------------------------------------------------------------------


DEATHS = ("none", "one", "root-of-reduce")


@pytest.mark.parametrize("n_shards", (1, 2, 3, 7))
@pytest.mark.parametrize("death", DEATHS)
def test_byte_identical_to_tiled_label(rng, tmp_path, n_shards, death):
    img = _image(rng)
    oracle = np.asarray(tiled_label(img, tile_shape=TILE).labels)
    levels, _ = build_reduce_schedule(plan_shards(*img.shape, TILE, n_shards).n_shards)
    if death == "root-of-reduce" and not levels:
        pytest.skip("one shard has no reduce tree to kill")
    if death == "one":
        # dies after its first checkpoint batch mid-scan: the survivor
        # must resume the shard from its snapshot, not rescan it.
        plan = FaultPlan(
            [FaultSpec("kill_rank", phase="scan", rank=0, after_chunks=1)]
        )
    elif death == "root-of-reduce":
        plan = FaultPlan(
            [FaultSpec(
                "kill_rank", phase=f"reduce-{len(levels) - 1}",
                rank=0, after_chunks=0,
            )]
        )
    else:
        plan = None
    result = shard_label(
        img, n_shards=n_shards, tile_shape=TILE,
        checkpoint_dir=tmp_path / "ck", checkpoint_every=1,
        resilience=FAST, fault_plan=plan,
    )
    assert np.array_equal(np.asarray(result.labels), oracle), (
        f"shards={n_shards} death={death}"
    )
    assert result.n_components == int(oracle.max(initial=0))
    if plan is not None:
        assert plan.injected == 1
        assert result.meta["rank_deaths"] >= 1
        assert result.meta["respawns"] + result.meta["reassigned"] >= 1
    if death == "one":
        # checkpoint resume, not recompute: the reassigned shard rescanned
        # only chunks since its last snapshot.
        assert result.meta["shards_resumed"]
        assert result.meta["rescan_chunks"] >= 1
    # recovery never leaks scratch state or rank processes
    assert not (tmp_path / "ck" / "scratch").exists()
    assert _no_orphan_ranks()


def test_out_of_core_memmap_round_trip(rng, tmp_path):
    """The intended deployment shape: memmap in, memmap out."""
    img = _image(rng, rows=64, cols=48)
    src = tmp_path / "img.npy"
    np.save(src, img)
    mm = np.load(src, mmap_mode="r")
    ref = np.asarray(tiled_label(img, tile_shape=(16, 16)).labels)
    result = shard_label(
        mm, n_shards=3, tile_shape=(16, 16), out=tmp_path / "labels.npy"
    )
    assert isinstance(result.labels, np.memmap)
    assert np.array_equal(np.asarray(result.labels), ref)
    assert (tmp_path / "labels.npy").exists()


# ---------------------------------------------------------------------------
# fault-specific behaviour
# ---------------------------------------------------------------------------


def test_drop_seam_msg_is_recomputed(rng, tmp_path):
    img = _image(rng)
    oracle = np.asarray(tiled_label(img, tile_shape=TILE).labels)
    plan = FaultPlan([FaultSpec("drop_seam_msg", phase="seam", rank=0)])
    rec = TraceRecorder()
    result = shard_label(
        img, n_shards=3, tile_shape=TILE,
        checkpoint_dir=tmp_path / "ck",
        resilience=FAST, fault_plan=plan, recorder=rec,
    )
    assert np.array_equal(np.asarray(result.labels), oracle)
    assert plan.injected == 1
    assert result.meta["dropped_seam"] >= 1
    assert result.meta["seam_recovered"] >= 1
    counters = rec.report().metrics["counters"]
    assert counters.get("shard.seam_recovered", 0) >= 1


def test_quorum_loss_degrades_inline_with_reason(rng, tmp_path):
    img = _image(rng)
    oracle = np.asarray(tiled_label(img, tile_shape=TILE).labels)
    # both ranks die with no respawn budget: quorum=2 is unrecoverable
    plan = FaultPlan([
        FaultSpec("kill_rank", phase="scan", rank=0, after_chunks=0),
        FaultSpec("kill_rank", phase="scan", rank=1, after_chunks=0),
    ])
    dead = ResilienceConfig(max_retries=0, backoff_base=0.0,
                            phase_timeout=60.0)
    result = shard_label(
        img, n_shards=2, tile_shape=TILE,
        resilience=dead, fault_plan=plan, quorum=2,
    )
    assert np.array_equal(np.asarray(result.labels), oracle)
    reason = result.meta["degraded_from"]
    assert reason["backend"] == "sharded"
    assert reason["error"] == "WorkerCrashError"
    assert reason["phase"] == "scan"
    assert result.meta["inline_tasks"] >= 1
    assert _no_orphan_ranks()


def test_quorum_loss_raises_when_degrade_disabled(rng):
    img = _image(rng)
    plan = FaultPlan([
        FaultSpec("kill_rank", phase="scan", rank=0, after_chunks=0),
        FaultSpec("kill_rank", phase="scan", rank=1, after_chunks=0),
    ])
    dead = ResilienceConfig(max_retries=0, backoff_base=0.0,
                            phase_timeout=60.0)
    with pytest.raises(WorkerCrashError):
        shard_label(
            img, n_shards=2, tile_shape=TILE,
            resilience=dead, fault_plan=plan, quorum=2, degrade=False,
        )
    assert _no_orphan_ranks()


def test_resume_mismatch_is_typed(rng, tmp_path):
    img = _image(rng)
    shard_label(img, n_shards=2, tile_shape=TILE,
                checkpoint_dir=tmp_path / "ck")
    # leave a stale scratch behind by hand, then resume a different job
    (tmp_path / "ck" / "scratch").mkdir(parents=True)
    (tmp_path / "ck" / "scratch" / "meta.json").write_text(
        '{"kind": "sharded", "shape": [1, 1]}'
    )
    with pytest.raises(ResumeMismatchError):
        shard_label(img, n_shards=2, tile_shape=TILE,
                    checkpoint_dir=tmp_path / "ck", resume=True)


def test_fewer_ranks_than_shards(rng, tmp_path):
    img = _image(rng)
    oracle = np.asarray(tiled_label(img, tile_shape=TILE).labels)
    result = shard_label(img, n_shards=5, tile_shape=TILE, n_ranks=2)
    assert np.array_equal(np.asarray(result.labels), oracle)
    assert result.meta["n_ranks"] == 2


# ---------------------------------------------------------------------------
# faults whose outcome must not depend on which rank claims what
# ---------------------------------------------------------------------------


def _late_rank_0(monkeypatch, phase, after_done):
    """Patch rank 0 (first generation) of *phase* to idle until every
    task is done-marked by the others, then call *after_done*; every
    other rank runs the real loop. Ranks are forked, so they inherit
    the patch."""
    from repro.parallel import sharded

    real = sharded._rank_main

    def rank_main(ctx, ph, rank, generation, tasks, *rest):
        if ph == phase and rank == 0 and generation == 0:
            pdir = sharded._phase_dir(pathlib.Path(ctx["scratch"]), ph)
            while sharded._undone(pdir, tasks):
                time.sleep(0.005)
            after_done()
        real(ctx, ph, rank, generation, tasks, *rest)

    monkeypatch.setattr(sharded, "_rank_main", rank_main)


def _root_phase(img, n_shards):
    levels, _ = build_reduce_schedule(
        plan_shards(*img.shape, TILE, n_shards).n_shards
    )
    return f"reduce-{len(levels) - 1}"


fork_only = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="patching a rank's loop needs forked ranks",
)


@fork_only
def test_death_after_last_task_is_counted_and_respawned(
    rng, tmp_path, monkeypatch
):
    """A rank that dies after survivors finished the phase still counts:
    the coordinator waits for every rank it started to exit."""
    img = _image(rng)
    oracle = np.asarray(tiled_label(img, tile_shape=TILE).labels)

    def die_late():
        # long enough for the coordinator to see the phase finished
        time.sleep(0.2)
        os._exit(137)

    _late_rank_0(monkeypatch, _root_phase(img, 7), die_late)
    rec = TraceRecorder()
    result = shard_label(
        img, n_shards=7, tile_shape=TILE, checkpoint_dir=tmp_path / "ck",
        resilience=FAST, recorder=rec, degrade=False,
    )
    assert np.array_equal(np.asarray(result.labels), oracle)
    assert result.meta["rank_deaths"] == 1
    assert result.meta["respawns"] == 1
    assert rec.report().metrics["counters"].get("shard.rank_deaths") == 1
    assert "degraded_from" not in result.meta
    assert _no_orphan_ranks()


@fork_only
def test_rank_alive_past_grace_is_reaped_not_counted(
    rng, tmp_path, monkeypatch
):
    """A rank that never exits after the last task is killed once the
    supervisor's grace runs out; the coordinator's own kill is not a
    death, and a finished phase neither times out nor degrades."""
    from repro.parallel import sharded

    monkeypatch.setattr(sharded, "_KILL_GRACE", 0.3)
    img = _image(rng)
    oracle = np.asarray(tiled_label(img, tile_shape=TILE).labels)
    _late_rank_0(monkeypatch, _root_phase(img, 7), lambda: time.sleep(60))
    t0 = time.monotonic()
    result = shard_label(
        img, n_shards=7, tile_shape=TILE, checkpoint_dir=tmp_path / "ck",
        resilience=FAST, degrade=False,
    )
    assert time.monotonic() - t0 < 30.0  # reaped after the grace
    assert np.array_equal(np.asarray(result.labels), oracle)
    assert result.meta["rank_deaths"] == 0
    assert result.meta["respawns"] == 0
    assert "degraded_from" not in result.meta
    assert _no_orphan_ranks()


@fork_only
def test_seam_drop_fires_whichever_rank_claims_the_seam(
    rng, tmp_path, monkeypatch
):
    """``rank`` of a ``drop_seam_msg`` selects the seam: the message is
    lost even when rank 0 claims no seam task at all."""
    img = _image(rng)
    oracle = np.asarray(tiled_label(img, tile_shape=TILE).labels)
    _late_rank_0(monkeypatch, "seam", lambda: None)
    plan = FaultPlan([FaultSpec("drop_seam_msg", phase="seam", rank=0)])
    result = shard_label(
        img, n_shards=3, tile_shape=TILE, checkpoint_dir=tmp_path / "ck",
        resilience=FAST, fault_plan=plan,
    )
    assert np.array_equal(np.asarray(result.labels), oracle)
    assert plan.injected == 1
    assert result.meta["dropped_seam"] == 1
    assert result.meta["seam_recovered"] == 1


# ---------------------------------------------------------------------------
# chaos: a real SIGKILL of the coordinator, then resume=True
# ---------------------------------------------------------------------------


#: child-side throttle after each snapshot commit, to widen the window
#: the parent's SIGKILL lands in (mirrors test_checkpoint_chaos.py).
_CHILD = """\
import time as _t
import numpy as np
from repro.checkpoint import snapshot as _snap
_orig = _snap.SnapshotStore.save
def _slow(self, state, seq):
    path = _orig(self, state, seq)
    print(f'CKPT {{seq}}', flush=True)
    _t.sleep(0.25)
    return path
_snap.SnapshotStore.save = _slow
from repro.parallel import shard_label
img = np.load({img!r})
res = shard_label(img, n_shards=2, tile_shape=(8, 8),
                  checkpoint_dir={ck!r}, checkpoint_every=1)
print('DONE', res.n_components, flush=True)
"""


@pytest.mark.chaos
def test_sigkill_coordinator_then_resume(tmp_path):
    rng = np.random.default_rng(31)
    img = _image(rng, rows=96, cols=40, density=0.45)
    np.save(tmp_path / "img.npy", img)
    ck = tmp_path / "ck"
    oracle = np.asarray(tiled_label(img, tile_shape=TILE).labels)

    proc = subprocess.Popen(
        [sys.executable, "-u", "-c",
         _CHILD.format(img=str(tmp_path / "img.npy"), ck=str(ck))],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=dict(os.environ, PYTHONPATH=SRC),
        start_new_session=True,  # own process group: ranks are traceable
    )
    pgid = proc.pid
    deadline = time.monotonic() + 60.0
    seen = 0
    try:
        while time.monotonic() < deadline:
            ready, _, _ = select.select([proc.stdout], [], [], 1.0)
            if not ready:
                if proc.poll() is not None:
                    break
                continue
            line = proc.stdout.readline()
            if not line:
                break
            if line.startswith("CKPT"):
                seen += 1
                if seen >= 2:
                    os.kill(proc.pid, signal.SIGKILL)
                    proc.wait(timeout=30)
                    break
        else:  # pragma: no cover - watchdog path
            pytest.fail("child never reached two checkpoints")
    finally:
        if proc.poll() is None:  # pragma: no cover - watchdog path
            proc.kill()
    if proc.returncode != -signal.SIGKILL:
        pytest.fail(
            f"child exited rc={proc.returncode} before the kill "
            f"(saw {seen} checkpoints; stderr={proc.stderr.read()!r})"
        )

    # the orphaned ranks notice their coordinator died (ppid watch) and
    # self-exit; the whole process group must drain without our help.
    group_deadline = time.monotonic() + 15.0
    while time.monotonic() < group_deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            break
        time.sleep(0.1)
    else:  # pragma: no cover - diagnostic path
        os.killpg(pgid, signal.SIGKILL)
        pytest.fail("orphaned shard ranks survived their coordinator")

    # the kill left durable scratch behind for the resume
    assert (ck / "scratch").exists(), "no scratch survived the kill"

    res = shard_label(
        img, n_shards=2, tile_shape=TILE,
        checkpoint_dir=ck, checkpoint_every=1, resume=True,
    )
    assert np.array_equal(np.asarray(res.labels), oracle)
    # the resumed run actually continued prior work rather than starting
    # over: either mid-scan snapshots were picked up or whole completed
    # tasks were skipped via their done markers.
    resumed_work = (
        bool(res.meta["shards_resumed"])
        or any(s.get("skipped") for s in res.meta["phases"].values())
    )
    assert resumed_work, res.meta
    assert not (ck / "scratch").exists()
    assert _no_orphan_ranks()


# ---------------------------------------------------------------------------
# torn scratch reads + clock-skew-safe heartbeats (robustness satellites)
# ---------------------------------------------------------------------------


def test_torn_claim_read_is_stale_not_fatal(tmp_path):
    """A claim file whose content was torn mid-write (partial owner
    string) parses to "no owner" and is released like any stale claim —
    never crashes the sweep."""
    from repro.parallel.sharded import (
        _claim_owner,
        _phase_dir,
        _release_claims,
    )

    pdir = _phase_dir(tmp_path, "scan")
    for sub in ("claim", "done", "hb"):
        (pdir / sub).mkdir(parents=True)
    good = pdir / "claim" / "shard-0000"
    good.write_text("1:0")
    torn = pdir / "claim" / "shard-0001"
    torn.write_text("1:")  # truncated mid-write
    garbage = pdir / "claim" / "shard-0002"
    garbage.write_bytes(b"\x00\xff")
    assert _claim_owner(good) == "1:0"
    assert _claim_owner(torn) is None
    assert _claim_owner(garbage) is None
    tasks = ["shard-0000", "shard-0001", "shard-0002"]
    released = _release_claims(pdir, 1, 0, tasks)
    # the owned claim and both torn ones are all released to survivors
    assert released == 3
    assert not list((pdir / "claim").iterdir())


def test_torn_heartbeat_read_is_none_not_fatal(tmp_path):
    """A heartbeat caught mid-write reads as None; the staleness clock
    keeps running on the last good beat instead of crashing or --
    worse -- counting the torn read as progress."""
    from repro.parallel.sharded import (
        _phase_dir,
        _read_heartbeat,
        _touch_heartbeat,
    )

    pdir = _phase_dir(tmp_path, "scan")
    (pdir / "hb").mkdir(parents=True)
    _touch_heartbeat(pdir, 0, generation=2, counter=7)
    assert _read_heartbeat(pdir, 0) == "2:7"
    (pdir / "hb" / "0").write_text("2:")  # torn
    assert _read_heartbeat(pdir, 0) is None
    (pdir / "hb" / "0").write_bytes(b"\xfe\x00")  # garbage
    assert _read_heartbeat(pdir, 0) is None
    assert _read_heartbeat(pdir, 5) is None  # missing file


def test_heartbeat_progress_is_counter_based_not_mtime(tmp_path):
    """Liveness compares monotonic counters across sweeps, so a rank on
    a host with a skewed clock still reads as alive: the beat content
    changes even if mtimes look absurd."""
    from repro.parallel.sharded import (
        _phase_dir,
        _read_heartbeat,
        _touch_heartbeat,
    )

    pdir = _phase_dir(tmp_path, "scan")
    (pdir / "hb").mkdir(parents=True)
    _touch_heartbeat(pdir, 0, generation=0, counter=1)
    beat1 = _read_heartbeat(pdir, 0)
    # mtime flies into the past (clock skew / NTP step): irrelevant
    os.utime(pdir / "hb" / "0", (0, 0))
    _touch_heartbeat(pdir, 0, generation=0, counter=2)
    beat2 = _read_heartbeat(pdir, 0)
    assert beat1 != beat2  # progress is visible purely by content
    # a respawned generation restarts its counter without aliasing the
    # old one (generation is part of the content)
    _touch_heartbeat(pdir, 0, generation=1, counter=1)
    assert _read_heartbeat(pdir, 0) not in (beat1, beat2)


def test_claims_released_counter_with_rank_label(rng, tmp_path):
    """A dead rank's released claims are visible as the
    ``shard.claims_released`` counter -- flat on the recorder and
    rank-labelled on the ambient /metrics aggregator."""
    from repro.obs.runtime import RuntimeAggregator, use_runtime_aggregator

    img = _image(rng)
    oracle = np.asarray(tiled_label(img, tile_shape=TILE).labels)
    plan = FaultPlan([
        FaultSpec("kill_rank", phase="scan", rank=0, after_chunks=1),
    ])
    rec = TraceRecorder()
    agg = RuntimeAggregator()
    with use_runtime_aggregator(agg):
        result = shard_label(
            img, n_shards=2, tile_shape=TILE,
            checkpoint_dir=tmp_path / "ck", checkpoint_every=1,
            resilience=FAST, fault_plan=plan, recorder=rec,
        )
    assert np.array_equal(np.asarray(result.labels), oracle)
    assert result.meta["claims_released"] >= 1
    counters = rec.report().metrics["counters"]
    assert counters.get("shard.claims_released", 0) >= 1
    # the aggregator carries the rank label for /metrics
    assert agg.counter_value("shard.claims_released") >= 1
    assert agg.counter_value(
        "shard.claims_released", labels={"rank": "0"}
    ) >= 1
    text = agg.render_prometheus()
    assert 'shard_claims_released_total{rank="0"}' in text
