"""Elastic sharded labeling: fault-tolerant shards + tree-reduce seams.

The out-of-core answer to ROADMAP item 4. A huge raster (typically an
``np.memmap``) is cut into **shards** — contiguous bands of whole tile
rows — and labeled by a pool of N OS processes, each shard running the
tiled pipeline locally and checkpointing through its own
:class:`~repro.checkpoint.SnapshotStore`. Cross-shard seams are then
resolved by a **tree-reduce** over seam equivalence pairs: adjacent
shard groups merge their REMSP forests pairwise, level by level, so the
merge depth is ``ceil(log2(S))`` and no single rank ever gathers all
``S`` forests (the root-gather bottleneck of
:mod:`repro.parallel.distributed` is gone).

Byte-identity with serial :func:`~repro.parallel.tiled.tiled_label` is
by construction, not by canonicalisation:

* shards are bands of *whole tile rows*, and tiles inside a shard are
  scanned in raster order with the same running-count prefix — so with
  the per-shard label offsets applied, provisional numbering is exactly
  the serial tiled numbering;
* every seam the serial pass merges is merged exactly once here:
  intra-band horizontal rows and band-restricted vertical segments in
  the shard's local forest, the band-boundary rows as full-width seam
  pair sets consumed at the tree level where the two bands first join
  (the full-width horizontal seam covers the corner diagonals, the same
  argument ``tiled_label`` makes for tile corners);
* FLATTEN depends only on the equivalence-class partition, which is
  identical — so the final labels are identical bytes.

The robustness core is the **elastic pool**: shard/seam/reduce tasks
live as claim files in a scratch directory (``O_CREAT|O_EXCL``-style
hard-link claims — crash-safe without locks), ranks claim work
greedily, and a supervisor watches rank sentinels
(:mod:`repro.parallel.supervisor` patterns) plus heartbeat files. A
dead rank's unfinished claims are **released to the survivors**; its
shards resume from their last snapshot instead of rescanning. Respawn
is bounded with backoff; each reduce level runs under its own
watchdog; and when live ranks fall below the quorum the remaining
tasks degrade to inline single-process execution in the coordinator
(recorded as a reasoned ``meta["degraded_from"]``). Fault kinds
``kill_rank`` and ``drop_seam_msg`` ride the existing
:class:`~repro.faults.FaultPlan` machinery so all of this is provable
in the chaos matrix (docs/SHARDED.md).
"""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib
import shutil
import tempfile
import time
from multiprocessing import connection

import numpy as np
from numpy.lib.format import open_memmap

from ..ccl.labeling import CCLResult, check_label_capacity
from ..ccl.run_based import run_based_vectorized
from ..checkpoint.snapshot import SnapshotStore, durable_replace
from ..errors import PhaseTimeoutError, ResumeMismatchError, WorkerCrashError
from ..faults import (
    DEFAULT_RESILIENCE,
    NULL_PLAN,
    degradation_reason,
    record_injection,
)
from ..obs import NULL_RECORDER, PhaseTimer, get_recorder
from ..types import LABEL_DTYPE, ensure_input, ensure_lazy_input
from ..unionfind.flatten import flatten
from ..unionfind.remsp import merge as remsp_merge
from .backends.executor import executor_context
from .boundary import boundary_edges, merge_boundary_row
from .supervisor import _KILL_GRACE, interruptible_backoff, kill_workers

__all__ = ["ShardPlan", "plan_shards", "build_reduce_schedule", "shard_label"]

#: how long an idle rank sleeps between claim sweeps (seconds).
_CLAIM_POLL = 0.02

#: sentinel-wait granularity in the supervisor loop (seconds).
_WAIT_TICK = 0.05

#: rank exit code for "orphaned: my coordinator died".
_ORPHAN_EXIT = 3


# ---------------------------------------------------------------------------
# shard geometry
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class ShardPlan:
    """The shard geometry: contiguous bands of whole tile rows.

    ``bands[s]`` is the absolute ``(row_start, row_stop)`` of shard *s*;
    bands partition ``range(rows)`` and every band boundary is
    tile-row aligned, which is what makes per-shard provisional
    numbering composable into the serial tiled numbering.
    """

    rows: int
    cols: int
    tile_shape: tuple[int, int]
    bands: tuple[tuple[int, int], ...]

    @property
    def n_shards(self) -> int:
        return len(self.bands)

    def tiles(self, shard: int) -> list[tuple[int, int]]:
        """Tile origins of *shard* in raster order (the serial order)."""
        th, tw = self.tile_shape
        r_lo, r_hi = self.bands[shard]
        return [
            (r0, c0)
            for r0 in range(r_lo, r_hi, th)
            for c0 in range(0, self.cols, tw)
        ]

    @property
    def n_tiles(self) -> int:
        return sum(len(self.tiles(s)) for s in range(self.n_shards))


def plan_shards(
    rows: int, cols: int, tile_shape: tuple[int, int], n_shards: int
) -> ShardPlan:
    """Balanced bands of whole tile rows; ``n_shards`` is clamped to the
    tile-row count (a shard must own at least one tile row)."""
    th, tw = tile_shape
    if th < 1 or tw < 1:
        raise ValueError(f"tile dimensions must be >= 1, got {tile_shape!r}")
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    tile_rows = max(1, -(-rows // th))
    n = min(n_shards, tile_rows)
    base, extra = divmod(tile_rows, n)
    bands = []
    start = 0
    for s in range(n):
        stop = start + base + (1 if s < extra else 0)
        bands.append((min(start * th, rows), min(stop * th, rows)))
        start = stop
    return ShardPlan(rows, cols, (th, tw), tuple(bands))


def build_reduce_schedule(n_shards: int):
    """The log-depth reduce tree over shard forests.

    Returns ``(levels, top_ref)``: ``levels[l]`` is the list of merge
    nodes at level *l* (each ``{"id", "children", "seam"}`` where
    ``children`` are ``("shard", s)`` / ``("node", id)`` refs and
    ``seam`` is the index of the band boundary the node consumes — the
    one between its two child groups; every one of the ``S - 1`` seams
    is consumed at exactly one node). Odd groups pass through to the
    next level untouched. ``top_ref`` names the forest holding the
    fully merged equivalences.
    """
    groups = [
        {"ref": ("shard", s), "lo": s, "hi": s + 1} for s in range(n_shards)
    ]
    levels: list[list[dict]] = []
    level = 0
    while len(groups) > 1:
        nodes: list[dict] = []
        nxt: list[dict] = []
        for i in range(0, len(groups) - 1, 2):
            a, b = groups[i], groups[i + 1]
            node_id = f"node-{level}-{i // 2}"
            nodes.append(
                {
                    "id": node_id,
                    "children": (a["ref"], b["ref"]),
                    "seam": a["hi"] - 1,
                }
            )
            nxt.append({"ref": ("node", node_id), "lo": a["lo"], "hi": b["hi"]})
        if len(groups) % 2:
            nxt.append(groups[-1])
        levels.append(nodes)
        groups = nxt
        level += 1
    return levels, groups[0]["ref"]


# ---------------------------------------------------------------------------
# crash-safe scratch primitives
# ---------------------------------------------------------------------------


def _save_npy_atomic(path: pathlib.Path, arr: np.ndarray) -> None:
    tmp = path.with_name(f".{path.name}.tmp-{os.getpid()}")
    with open(tmp, "wb") as fh:
        np.save(fh, arr)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def _write_json_atomic(path: pathlib.Path, obj) -> None:
    tmp = path.with_name(f".{path.name}.tmp-{os.getpid()}")
    tmp.write_text(json.dumps(obj))
    os.replace(tmp, path)


def _phase_dir(scratch: pathlib.Path, phase: str) -> pathlib.Path:
    return scratch / "ph" / phase


def _try_claim(
    pdir: pathlib.Path, task: str, rank: int, generation: int
) -> bool:
    """Claim *task* via an atomic hard link carrying the owner id.

    The link target is created with its ``rank:generation`` content
    already on disk, so a reader never observes an owned-but-anonymous
    claim — the property the dead-rank release sweep depends on. Safe
    under SIGKILL at any instruction: either the link exists (owned) or
    it does not (free).
    """
    tmp = pdir / "claim" / f".own-{rank}-{generation}-{task}"
    claim = pdir / "claim" / task
    tmp.write_text(f"{rank}:{generation}")
    try:
        os.link(tmp, claim)
        return True
    except FileExistsError:
        return False
    finally:
        try:
            os.unlink(tmp)
        except OSError:  # pragma: no cover - already gone
            pass


def _claim_owner(claim: pathlib.Path) -> str | None:
    """The ``rank:generation`` owner recorded in a claim file, or
    ``None`` when the content is torn/malformed — a partially written
    claim is *stale* (unattributable), never a reason to crash."""
    try:
        raw = claim.read_text()
    except (OSError, UnicodeDecodeError):
        return None
    rank, sep, gen = raw.partition(":")
    if not sep or not rank.isdigit() or not gen.isdigit():
        return None
    return raw


def _release_claims(
    pdir: pathlib.Path, rank: int, generation: int, tasks: list[str]
) -> int:
    """Free the claims a dead (rank, generation) held on unfinished
    tasks, so survivors can pick them up. Returns the release count.

    A claim whose content is torn/unparseable is released too: it
    cannot belong to any live rank (live owners write their id
    atomically before linking), and leaving it would wedge the task
    forever.
    """
    owner = f"{rank}:{generation}"
    released = 0
    for task in tasks:
        claim = pdir / "claim" / task
        done = pdir / "done" / task
        found = _claim_owner(claim)
        try:
            if (found == owner or found is None) and claim.exists() \
                    and not done.exists():
                claim.unlink()
                released += 1
        except OSError:
            continue
    return released


def _touch_heartbeat(pdir: pathlib.Path, rank: int, generation: int,
                     counter: int) -> None:
    """Write the rank's liveness beat: a monotonic ``generation:counter``.

    Staleness is judged by *counter progress observed on the
    coordinator's monotonic clock*, never by the file's mtime — an NFS
    server, a container with a skewed clock, or a host whose wall
    clock steps backwards cannot fake (or fake-expire) liveness.
    """
    hb = pdir / "hb" / str(rank)
    try:
        hb.write_text(f"{generation}:{counter}")
    except OSError:  # pragma: no cover - scratch torn down mid-write
        pass


def _read_heartbeat(pdir: pathlib.Path, rank: int) -> str | None:
    """The rank's current ``generation:counter`` beat, or ``None`` for
    a missing, torn, or malformed heartbeat file (treated as no
    progress — the staleness clock keeps running)."""
    hb = pdir / "hb" / str(rank)
    try:
        raw = hb.read_text()
    except (OSError, UnicodeDecodeError):
        return None
    gen, sep, counter = raw.partition(":")
    if not sep or not gen.isdigit() or not counter.isdigit():
        return None
    return raw


def _record_claims_released(recorder, rank: int | str, released: int) -> None:
    """Surface a claim-release sweep: ``shard.claims_released`` in the
    trace, and — when an ambient :class:`RuntimeAggregator` is
    installed — the same counter with a ``rank`` label in ``/metrics``,
    so a recovery shows up on dashboards, not just in logs."""
    if not released:
        return
    if recorder.enabled:
        recorder.count("shard.claims_released", released)
    from ..obs.runtime import get_runtime_aggregator

    agg = get_runtime_aggregator()
    if agg is not None:
        agg.inc("shard.claims_released", released, labels={"rank": str(rank)})


def _mark_done(pdir: pathlib.Path, task: str, stats: dict) -> None:
    _write_json_atomic(pdir / "done" / task, stats)


def _undone(pdir: pathlib.Path, tasks: list[str]) -> list[str]:
    done = pdir / "done"
    return [t for t in tasks if not (done / t).exists()]


# ---------------------------------------------------------------------------
# task execution (runs in ranks *and* inline in the coordinator)
# ---------------------------------------------------------------------------


def _shard_store(ctx: dict, shard: int) -> SnapshotStore:
    scratch = pathlib.Path(ctx["scratch"])
    fingerprint = dict(ctx["fingerprint"])
    fingerprint["shard"] = shard
    return SnapshotStore(
        scratch / "ck" / f"shard-{shard:04d}",
        fingerprint=fingerprint,
        recorder=NULL_RECORDER,
        fault_plan=NULL_PLAN,
    )


def _open_prov(ctx: dict, mode: str) -> np.ndarray:
    return open_memmap(pathlib.Path(ctx["scratch"]) / "prov.npy", mode=mode)


def _load_offsets(ctx: dict) -> dict:
    path = pathlib.Path(ctx["scratch"]) / "offsets.json"
    return json.loads(path.read_text())


def _run_shard_scan(ctx: dict, shard: int, heartbeat, batch_tick) -> dict:
    """Label one shard's tiles into the provisional memmap and fold its
    internal seams into a local forest. Checkpointed and resumable."""
    plan: ShardPlan = ctx["plan"]
    th, tw = plan.tile_shape
    connectivity = ctx["connectivity"]
    tiles = plan.tiles(shard)
    counts = np.zeros(len(tiles), dtype=np.int64)
    store = _shard_store(ctx, shard) if ctx["use_checkpoint"] else None
    start = 0
    resumed = False
    seq = 0
    if store is not None:
        snap = store.latest()
        if snap is not None:
            seq, state = snap
            counts[: len(state["counts"])] = state["counts"]
            start = int(state["done"])
            resumed = start > 0
    prov = _open_prov(ctx, "r+")
    image = ctx["image"]
    every = max(1, int(ctx["checkpoint_every"]))
    running = 1 + int(counts[:start].sum())
    i = start
    while i < len(tiles):
        batch = tiles[i : i + every]
        for j, (r0, c0) in enumerate(batch, start=i):
            tile = np.ascontiguousarray(image[r0 : r0 + th, c0 : c0 + tw])
            local = run_based_vectorized(tile, connectivity)
            k = int(local.n_components)
            if k:
                prov[r0 : r0 + th, c0 : c0 + tw] = np.where(
                    local.labels > 0, local.labels + (running - 1), 0
                )
            counts[j] = k
            running += k
        i += len(batch)
        heartbeat()
        if store is not None and i < len(tiles):
            # durability order: tile results reach disk before the
            # snapshot that claims they exist.
            prov.flush()
            seq += 1
            store.save({"done": i, "counts": counts.copy()}, seq)
        batch_tick()

    # internal seams: horizontal rows strictly inside the band, and the
    # band-restricted vertical segments — everything the serial pass
    # merges that does not cross a band boundary.
    r_lo, r_hi = plan.bands[shard]
    count = int(counts.sum())
    p: list[int] = list(range(count + 1))
    for r in range(r_lo + th, r_hi, th):
        merge_boundary_row(prov, r, plan.cols, p, remsp_merge, connectivity)
    band_rows = r_hi - r_lo
    if band_rows > 0:
        for c in range(tw, plan.cols, tw):
            col_pair = [prov[r_lo:r_hi, c - 1], prov[r_lo:r_hi, c]]
            merge_boundary_row(
                col_pair, 1, band_rows, p, remsp_merge, connectivity
            )
    prov.flush()
    forest = np.array(
        [(i, p[i]) for i in range(1, count + 1) if p[i] != i], dtype=np.int64
    ).reshape(-1, 2)
    scratch = pathlib.Path(ctx["scratch"])
    _save_npy_atomic(scratch / "counts" / f"shard-{shard:04d}.npy", counts)
    _save_npy_atomic(scratch / "forest" / f"shard-{shard:04d}.npy", forest)
    if store is not None:
        # the shard's outputs are durable; its snapshots are spent.
        store.clear()
        try:
            store.directory.rmdir()
        except OSError:  # pragma: no cover - racing a late reader
            pass
    scanned = len(tiles) - start
    return {
        "tiles": scanned,
        "rescan_chunks": scanned if resumed else 0,
        "resumed": bool(resumed),
    }


def _cross_band_pairs(ctx: dict, seam: int) -> np.ndarray:
    """Global-label equivalence pairs across band boundary *seam*
    (between shards ``seam`` and ``seam + 1``)."""
    plan: ShardPlan = ctx["plan"]
    offsets = _load_offsets(ctx)["offsets"]
    prov = _open_prov(ctx, "r")
    boundary = plan.bands[seam][1]
    up = prov[boundary - 1].astype(np.int64)
    cur = prov[boundary].astype(np.int64)
    stack = np.stack(
        [
            np.where(up > 0, up + offsets[seam], 0),
            np.where(cur > 0, cur + offsets[seam + 1], 0),
        ]
    )
    return boundary_edges(stack, [1], ctx["connectivity"]).astype(np.int64)


def _run_seam_task(ctx: dict, seam: int, drop: bool) -> dict:
    """Compute one band boundary's pair set and publish it — unless the
    injected ``drop_seam_msg`` fault loses the message in flight."""
    pairs = _cross_band_pairs(ctx, seam)
    if drop:
        # the computation happened but the pair file never lands: the
        # reduce level that needs it must recompute (tested recovery).
        return {"dropped_seam": 1}
    scratch = pathlib.Path(ctx["scratch"])
    _save_npy_atomic(scratch / "pairs" / f"seam-{seam:04d}.npy", pairs)
    return {}


def _merge_pair_forest(pair_arrays: list[np.ndarray]) -> np.ndarray:
    """Min-rooted sparse union-find over global-label pair sets.

    The reduce-node kernel: child forests plus the connecting seam's
    pairs go in, one merged ``(label, root)`` forest comes out. Sparse
    (a dict keyed by the labels actually mentioned) because a reduce
    node must not materialise the full label space — that would be the
    root gather this module exists to avoid.
    """
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        root = x
        while parent.get(root, root) != root:
            root = parent[root]
        while parent.get(x, x) != x:
            parent[x], x = root, parent[x]
        return root

    seen: set[int] = set()
    for arr in pair_arrays:
        for u, v in arr.tolist():
            seen.add(u)
            seen.add(v)
            ru, rv = find(u), find(v)
            if ru == rv:
                continue
            if rv < ru:
                ru, rv = rv, ru
            parent[rv] = ru
    out = [(x, find(x)) for x in sorted(seen)]
    out = [(x, r) for x, r in out if r != x]
    return np.array(out, dtype=np.int64).reshape(-1, 2)


def _load_child_forest(ctx: dict, ref) -> np.ndarray:
    scratch = pathlib.Path(ctx["scratch"])
    kind, ident = ref
    if kind == "shard":
        forest = np.load(scratch / "forest" / f"shard-{ident:04d}.npy")
        if forest.size:
            # leaf forests are in shard-local label space; shift both
            # columns into the global space before merging.
            offsets = _load_offsets(ctx)["offsets"]
            forest = forest + np.int64(offsets[ident])
        return forest
    return np.load(scratch / "forest" / f"{ident}.npy")


def _run_reduce_task(ctx: dict, node: dict) -> dict:
    """Merge one reduce node: two child forests + the connecting seam."""
    scratch = pathlib.Path(ctx["scratch"])
    stats: dict = {}
    arrays = [_load_child_forest(ctx, ref) for ref in node["children"]]
    seam = int(node["seam"])
    pair_path = scratch / "pairs" / f"seam-{seam:04d}.npy"
    if pair_path.exists():
        arrays.append(np.load(pair_path))
    else:
        # the seam message was dropped in flight (or its producer died
        # between compute and publish): recompute from the provisional
        # memmap — the pairs are a pure function of durable state.
        arrays.append(_cross_band_pairs(ctx, seam))
        stats["seam_recovered"] = 1
    merged = _merge_pair_forest(arrays)
    _save_npy_atomic(scratch / "forest" / f"{node['id']}.npy", merged)
    return stats


def _execute_task(
    ctx: dict,
    phase: str,
    task: str,
    payload: dict | None,
    heartbeat,
    batch_tick,
    drop: bool = False,
) -> dict:
    if phase == "scan":
        return _run_shard_scan(ctx, int(task.split("-")[1]), heartbeat, batch_tick)
    if phase == "seam":
        return _run_seam_task(ctx, int(task.split("-")[1]), drop)
    assert payload is not None
    return _run_reduce_task(ctx, payload[task])


# ---------------------------------------------------------------------------
# the elastic rank
# ---------------------------------------------------------------------------


def _rank_main(
    ctx: dict,
    phase: str,
    rank: int,
    generation: int,
    tasks: list[str],
    payload: dict | None,
    directives: tuple,
    drops: set[str],
    parent_pid: int,
    wake,
) -> None:
    """One elastic rank: claim → execute → mark done, until the phase is
    complete. Exits 0 only when every task has a done marker.

    Whichever rank executes a task in *drops* loses its seam message.
    An idle rank re-sweeps the board every claim poll, or as soon as
    *wake* (the read end of a coordinator pipe) turns readable — the
    coordinator writes to it once the phase's last task is done."""
    pdir = _phase_dir(pathlib.Path(ctx["scratch"]), phase)
    kill = next((d for d in directives if d[0] == "kill_rank"), None)
    tasks_done = 0
    batches_done = 0
    beats = 0

    def heartbeat() -> None:
        nonlocal beats
        beats += 1
        _touch_heartbeat(pdir, rank, generation, beats)

    def batch_tick() -> None:
        # scan-phase kill site: die after `after_chunks` checkpoint
        # batches committed, so the resume path is what recovery tests.
        nonlocal batches_done
        batches_done += 1
        if kill is not None and phase == "scan" and batches_done >= kill[1] > 0:
            os._exit(kill[2])

    while True:
        heartbeat()
        if os.getppid() != parent_pid:
            # the coordinator died (SIGKILL mid-run): stop immediately
            # instead of racing a future resume for the scratch files.
            os._exit(_ORPHAN_EXIT)
        if kill is not None and (phase != "scan" or kill[1] == 0):
            if tasks_done >= kill[1]:
                os._exit(kill[2])
        remaining = _undone(pdir, tasks)
        if not remaining:
            os._exit(0)
        claimed = None
        for task in remaining:
            if _try_claim(pdir, task, rank, generation):
                claimed = task
                break
        if claimed is None:
            wake.poll(_CLAIM_POLL)
            continue
        stats = _execute_task(
            ctx, phase, claimed, payload, heartbeat, batch_tick,
            drop=claimed in drops,
        )
        _mark_done(pdir, claimed, stats)
        tasks_done += 1


# ---------------------------------------------------------------------------
# the shard supervisor (one phase = one supervised elastic pool)
# ---------------------------------------------------------------------------


def _run_phase(
    ctx: dict,
    phase: str,
    tasks: list[str],
    payload: dict | None,
    *,
    n_ranks: int,
    resilience,
    fault_plan,
    recorder,
    quorum: int,
    heartbeat_timeout: float | None,
    degrade: bool,
) -> dict:
    """Run one phase's tasks under elastic supervision.

    Death detection via sentinels, staleness via heartbeats, claims of a
    dead (rank, generation) released to survivors, bounded respawn with
    backoff, a per-phase watchdog, and — when the pool drops below
    *quorum* (or the watchdog expires) with *degrade* allowed — an
    inline single-process fallback that finishes the remaining tasks in
    the coordinator. Raises typed errors when degradation is off.

    The phase returns only once every rank it started has exited by
    itself, or has been reaped after the supervisor's kill grace. Any
    non-zero exit the coordinator did not cause counts as a rank death
    (and earns a respawn while the budget lasts), including one that
    lands after the last task is done-marked; so does a heartbeat kill,
    whose claims must be released. Ranks reaped after the grace, or
    torn down by the watchdog or a degradation, do not. A phase whose
    tasks are all done never times out or degrades.
    """
    scratch = pathlib.Path(ctx["scratch"])
    pdir = _phase_dir(scratch, phase)
    for sub in ("claim", "done", "hb"):
        (pdir / sub).mkdir(parents=True, exist_ok=True)
    # stale claims (a previous coordinator's dead ranks, or a killed
    # run being resumed) would wedge the phase: every owner named in
    # them is gone, so clearing wholesale is safe — done markers, not
    # claims, are the record of completed work.
    for entry in (pdir / "claim").iterdir():
        try:
            entry.unlink()
        except OSError:  # pragma: no cover - concurrent cleanup
            pass

    agg: dict = {
        "tasks": len(tasks),
        "rank_deaths": 0,
        "respawns": 0,
        "reassigned": 0,
        "claims_released": 0,
        "heartbeat_kills": 0,
        "inline_tasks": 0,
        "degraded": None,
    }
    pending = _undone(pdir, tasks)
    if not pending:
        agg["skipped"] = True
        return agg
    # a lost seam message belongs to a task, not to a rank: the spec's
    # `rank` selects the seam, so the drop fires whichever rank claims
    # it — a drop bound to a rank would never fire (yet still count as
    # injected) whenever the other ranks claimed every seam first.
    drops: set[str] = set()
    if fault_plan.enabled:
        for index, task in enumerate(tasks):
            if task not in pending:
                continue
            spec = fault_plan.take("drop_seam_msg", phase, rank=index)
            if spec is not None:
                record_injection(recorder, spec)
                drops.add(task)

    mp_ctx = executor_context()
    parent_pid = os.getpid()
    deadline = time.monotonic() + resilience.phase_timeout
    quorum = max(1, quorum)
    procs: dict[int, object] = {}
    gens = {r: 0 for r in range(n_ranks)}
    #: rank -> (last observed heartbeat content, monotonic time the
    #: content last *changed*). Progress is counter comparison across
    #: sweeps — wall-clock mtime deltas would trust host clocks.
    hb_seen: dict[int, tuple[str | None, float]] = {}
    all_procs: list = []
    degrade_reason: dict | None = None
    wake_r, wake_w = mp_ctx.Pipe(duplex=False)

    def spawn(rank: int) -> None:
        gen = gens[rank]
        directives: tuple = ()
        if fault_plan.enabled:
            specs = fault_plan.directives(
                phase, rank, gen, kinds=("kill_rank",)
            )
            for spec in specs:
                record_injection(recorder, spec)
            directives = tuple(
                (spec.kind, spec.after_chunks, spec.exit_code)
                for spec in specs
            )
        proc = mp_ctx.Process(
            target=_rank_main,
            args=(ctx, phase, rank, gen, tasks, payload, directives,
                  drops, parent_pid, wake_r),
            name=f"shard-rank-{phase}-{rank}",
            daemon=True,
        )
        proc.start()
        procs[rank] = proc
        # restart the staleness clock: the fresh generation begins its
        # counter anew, which must not read as "no progress".
        hb_seen[rank] = (None, time.monotonic())
        all_procs.append(proc)
        if recorder.enabled:
            recorder.count("shard.ranks_forked")

    def reap(until: float) -> None:
        # one sentinel sweep: every non-zero exit is a death — counted,
        # its claims released, and the rank respawned while its budget
        # lasts (backoff capped at *until*).
        sent_map = {p.sentinel: (r, p) for r, p in procs.items()}
        ready = (
            connection.wait(list(sent_map), timeout=_WAIT_TICK)
            if sent_map
            else ()
        )
        for sentinel in ready:
            rank, proc = sent_map[sentinel]
            proc.join()
            del procs[rank]
            if proc.exitcode == 0:
                # ranks exit 0 only once every task is done-marked;
                # the loop condition will observe that next pass.
                continue
            agg["rank_deaths"] += 1
            if recorder.enabled:
                recorder.count("shard.rank_deaths")
            released = _release_claims(pdir, rank, gens[rank], tasks)
            agg["reassigned"] += released
            agg["claims_released"] += released
            _record_claims_released(recorder, rank, released)
            if recorder.enabled and released:
                recorder.count("shard.reassigned", released)
            if gens[rank] < resilience.max_retries:
                gens[rank] += 1
                agg["respawns"] += 1
                if recorder.enabled:
                    recorder.count("shard.respawns")
                interruptible_backoff(
                    min(
                        resilience.backoff(gens[rank]),
                        max(0.0, until - time.monotonic()),
                    )
                )
                spawn(rank)

    try:
        for rank in range(n_ranks):
            spawn(rank)
        while _undone(pdir, tasks):
            if time.monotonic() > deadline:
                kill_workers(list(procs.values()))
                procs.clear()
                if recorder.enabled:
                    recorder.count("watchdog.timeout")
                err = PhaseTimeoutError(
                    f"shard phase {phase!r} watchdog expired after "
                    f"{resilience.phase_timeout:.1f}s with "
                    f"{len(_undone(pdir, tasks))} task(s) unfinished",
                    phase=phase,
                    timeout=resilience.phase_timeout,
                    ranks=tuple(sorted(gens)),
                )
                if not degrade:
                    raise err
                degrade_reason = degradation_reason("sharded", err)
                break
            if heartbeat_timeout:
                mono = time.monotonic()
                for rank, proc in list(procs.items()):
                    beat = _read_heartbeat(pdir, rank)
                    prev = hb_seen.get(rank)
                    if prev is None:
                        hb_seen[rank] = (beat, mono)
                        continue
                    if beat is not None and beat != prev[0]:
                        # counter progressed: alive. A torn/malformed
                        # read (None) is *not* progress — the staleness
                        # clock keeps running on the last good beat.
                        hb_seen[rank] = (beat, mono)
                    elif mono - prev[1] > heartbeat_timeout:
                        # a wedged rank holds its claims forever; kill
                        # it and let the sentinel path below reclaim.
                        kill_workers([proc])
                        agg["heartbeat_kills"] += 1
                        if recorder.enabled:
                            recorder.count("shard.heartbeat_kills")
            reap(deadline)
            if len(procs) < quorum and _undone(pdir, tasks):
                dead = tuple(sorted(set(gens) - set(procs)))
                err = WorkerCrashError(
                    f"shard phase {phase!r} fell below quorum: "
                    f"{len(procs)} of {n_ranks} rank(s) alive "
                    f"(need {quorum}), respawn budget spent on ranks "
                    f"{list(dead)}",
                    ranks=dead,
                    phase=phase,
                    attempts=max(gens.values()) + 1,
                )
                if not degrade:
                    raise err
                kill_workers(list(procs.values()))
                procs.clear()
                degrade_reason = degradation_reason("sharded", err)
                break
        # survivors can done-mark the last task before a dead rank's
        # sentinel is swept (a rank killed on its first pass while the
        # coordinator is still forking the rest): let every rank exit by
        # itself — idle ones at once, woken through the pipe — so no
        # death goes uncounted. Stragglers past the grace are reaped
        # below.
        wake_w.send_bytes(b"done")
        settle = time.monotonic() + _KILL_GRACE
        while procs and time.monotonic() < settle:
            reap(settle)
    finally:
        kill_workers(all_procs)
        wake_r.close()
        wake_w.close()

    if degrade_reason is not None:
        # the degradation rung: whatever the pool left behind runs
        # inline, single-process, in the coordinator — the terminal
        # "single-process tiled" rung, which has no ranks left to lose.
        agg["degraded"] = degrade_reason
        if recorder.enabled:
            recorder.count("shard.degraded")
        for task in _undone(pdir, tasks):
            stats = _execute_task(
                ctx, phase, task, payload,
                heartbeat=lambda: None, batch_tick=lambda: None,
            )
            _mark_done(pdir, task, stats)
            agg["inline_tasks"] += 1
            if recorder.enabled:
                recorder.count("shard.inline_tasks")

    for task in tasks:
        try:
            stats = json.loads((pdir / "done" / task).read_text())
        except (OSError, ValueError):  # pragma: no cover - defensive
            continue
        for key in ("tiles", "rescan_chunks", "seam_recovered", "dropped_seam"):
            if stats.get(key):
                agg[key] = agg.get(key, 0) + int(stats[key])
        if stats.get("resumed"):
            agg.setdefault("resumed_tasks", []).append(task)
    if recorder.enabled:
        recorder.count("shard.tasks_completed", len(tasks))
        if agg.get("rescan_chunks"):
            recorder.count("shard.rescan_chunks", agg["rescan_chunks"])
        if agg.get("seam_recovered"):
            recorder.count("shard.seam_recovered", agg["seam_recovered"])
    return agg


# ---------------------------------------------------------------------------
# the coordinator
# ---------------------------------------------------------------------------


def _init_scratch(
    scratch: pathlib.Path, fingerprint: dict, rows: int, cols: int
) -> None:
    """Create (or validate) the durable scratch tree for one job.

    Shared by the single-host coordinator and the multi-host cluster
    coordinator (:mod:`repro.parallel.net.cluster`): ``meta.json``
    fingerprint check, the task/forest/pair subtrees, and the
    provisional-label memmap.
    """
    scratch.mkdir(parents=True, exist_ok=True)
    meta_path = scratch / "meta.json"
    if meta_path.exists():
        try:
            found = json.loads(meta_path.read_text())
        except ValueError:
            found = {"corrupt": True}
        if found != fingerprint:
            raise ResumeMismatchError(
                "existing sharded scratch belongs to a different job; "
                "refusing to resume into it",
                expected=fingerprint,
                found=found,
            )
    else:
        _write_json_atomic(meta_path, fingerprint)
    for sub in ("counts", "forest", "pairs", "ck"):
        (scratch / sub).mkdir(exist_ok=True)
    prov_path = scratch / "prov.npy"
    if not prov_path.exists():
        mm = open_memmap(
            prov_path, mode="w+", dtype=LABEL_DTYPE, shape=(rows, cols)
        )
        mm.flush()
        del mm


def _compute_offsets(
    scratch: pathlib.Path, n_shards: int
) -> tuple[list[int], list[int], int]:
    """Fold per-shard component counts into the global label offsets
    (and persist them for the seam/reduce tasks)."""
    totals = []
    for s in range(n_shards):
        counts = np.load(scratch / "counts" / f"shard-{s:04d}.npy")
        totals.append(int(counts.sum()))
    offsets = [0]
    for t in totals:
        offsets.append(offsets[-1] + t)
    total = offsets.pop()
    _write_json_atomic(
        scratch / "offsets.json",
        {"offsets": offsets, "totals": totals, "total": total},
    )
    return offsets, totals, total


def _flatten_lut(ctx: dict, top_ref, total: int) -> tuple[np.ndarray, int]:
    """FLATTEN the fully merged forest into the final-label LUT."""
    top_forest = _load_child_forest(ctx, top_ref)
    p: list[int] = list(range(total + 1))
    for u, v in top_forest.tolist():
        remsp_merge(p, u, v)
    n_components = flatten(p, total + 1)
    return np.asarray(p, dtype=LABEL_DTYPE), n_components


def _finalize_output(
    lut_full: np.ndarray,
    prov: np.ndarray,
    plan: ShardPlan,
    offsets: list[int],
    totals: list[int],
    out,
):
    """Gather final labels shard by shard through per-shard LUT slices.

    With *out* given the gather lands in ``<out>.tmp`` and is fsynced +
    atomically renamed (the ``tiled_label(out=)`` contract); otherwise
    an in-memory array is returned.
    """
    th = plan.tile_shape[0]

    def gather(target: np.ndarray) -> None:
        for s in range(plan.n_shards):
            r_lo, r_hi = plan.bands[s]
            shard_lut = np.zeros(totals[s] + 1, dtype=LABEL_DTYPE)
            if totals[s]:
                shard_lut[1:] = lut_full[offsets[s] + 1 : offsets[s] + totals[s] + 1]
            for r0 in range(r_lo, r_hi, th):
                block = prov[r0 : min(r0 + th, r_hi)]
                target[r0 : r0 + block.shape[0]] = shard_lut[block]

    if out is None:
        final = np.zeros((plan.rows, plan.cols), dtype=LABEL_DTYPE)
        gather(final)
        return final
    out = pathlib.Path(out)
    tmp = out.with_name(out.name + ".tmp")
    mm = open_memmap(tmp, mode="w+", dtype=LABEL_DTYPE, shape=(plan.rows, plan.cols))
    gather(mm)
    mm.flush()
    del mm
    durable_replace(tmp, out)
    return np.load(out, mmap_mode="r")


def shard_label(
    image: np.ndarray,
    n_shards: int = 4,
    tile_shape: tuple[int, int] = (256, 256),
    connectivity: int = 8,
    n_ranks: int | None = None,
    checkpoint_dir: str | os.PathLike | None = None,
    checkpoint_every: int = 8,
    resume: bool = False,
    out: str | pathlib.Path | None = None,
    recorder=None,
    resilience=None,
    fault_plan=None,
    quorum: int = 1,
    heartbeat_timeout: float | None = None,
    degrade: bool = True,
) -> CCLResult:
    """Label *image* with the elastic sharded runtime.

    Output is byte-identical to
    ``tiled_label(image, tile_shape, connectivity)`` — under any number
    of shards, any rank deaths the recovery machinery survives, and any
    injected fault of the chaos matrix.

    *image* meets the same input policy as ``tiled_label``: an
    in-memory image passes :func:`repro.types.ensure_input`; a memmap
    passes :func:`repro.types.ensure_lazy_input` and each tile's values
    are checked by the rank that scans it, so the raster is read once.

    Parameters
    ----------
    n_shards:
        Target shard count (clamped to the tile-row count). Shards are
        contiguous bands of whole tile rows.
    n_ranks:
        OS processes in the elastic pool (default: one per shard,
        capped by the shard count). Ranks claim shard/seam/reduce tasks
        greedily, so fewer ranks than shards just means more tasks per
        rank — and a dead rank's work flows to the survivors.
    checkpoint_dir:
        When given, each shard scan checkpoints through its own
        :class:`~repro.checkpoint.SnapshotStore` under
        ``<checkpoint_dir>/scratch/ck/shard-NNNN`` and all intermediate
        state (provisional memmap, forests, seam pairs, task markers)
        lives under ``<checkpoint_dir>/scratch`` — which is what makes
        both in-run recovery (a reassigned shard resumes mid-scan) and
        cross-run ``resume=True`` after a hard kill possible. Removed
        on success. Without it, scratch is a temporary directory and a
        dead rank's shard is recomputed rather than resumed.
    resume:
        Continue a previous run's scratch under *checkpoint_dir*:
        completed tasks are skipped via their durable done markers and
        partially scanned shards restart from their latest snapshot. A
        fingerprint mismatch (different image/parameters) raises
        :class:`~repro.errors.ResumeMismatchError`.
    quorum:
        Minimum live ranks to keep the pool running. When survivors
        fall below it (respawn budget spent), the run degrades to
        inline single-process execution of the remaining tasks and
        records the reason in ``meta["degraded_from"]`` — unless
        ``degrade=False``, in which case the typed error propagates.
    heartbeat_timeout:
        When set, a rank whose heartbeat file goes stale for this many
        seconds is killed and treated as dead (its claims are released)
        even though its process object still looks alive.

    >>> import numpy as np
    >>> img = np.ones((16, 8), dtype=np.uint8)
    >>> int(shard_label(img, n_shards=2, tile_shape=(4, 4)).n_components)
    1
    """
    rec = recorder if recorder is not None else get_recorder()
    resilience = resilience if resilience is not None else DEFAULT_RESILIENCE
    fault_plan = fault_plan if fault_plan is not None else NULL_PLAN
    th, tw = tile_shape
    if th < 1 or tw < 1:
        raise ValueError(f"tile dimensions must be >= 1, got {tile_shape!r}")
    if isinstance(image, np.memmap):
        image = ensure_lazy_input(image)
    else:
        image = ensure_input(image)
    rows, cols = image.shape
    check_label_capacity((rows, cols))
    if rows == 0 or cols == 0:
        # degenerate rasters take the serial path (the oracle itself);
        # there is nothing to shard and nothing to survive.
        from .tiled import tiled_label

        return tiled_label(
            image, tile_shape=tile_shape, connectivity=connectivity,
            recorder=rec, out=out,
        )

    plan = plan_shards(rows, cols, (th, tw), n_shards)
    S = plan.n_shards
    ranks = min(n_ranks if n_ranks is not None else S, S)
    ranks = max(1, ranks)

    fingerprint = {
        "kind": "sharded",
        "shape": [rows, cols],
        "dtype": str(np.asarray(image).dtype),
        "tile_shape": [th, tw],
        "connectivity": connectivity,
        "n_shards": S,
    }

    tmp_ctx = None
    if checkpoint_dir is not None:
        ck_root = pathlib.Path(checkpoint_dir)
        ck_root.mkdir(parents=True, exist_ok=True)
        scratch = ck_root / "scratch"
        if not resume and scratch.exists():
            shutil.rmtree(scratch)
    else:
        tmp_ctx = tempfile.TemporaryDirectory(prefix="repro-shard-")
        scratch = pathlib.Path(tmp_ctx.name) / "scratch"

    mark = rec.mark()
    timer = PhaseTimer(rec)
    try:
        _init_scratch(scratch, fingerprint, rows, cols)

        ctx = {
            "scratch": str(scratch),
            "image": image,
            "plan": plan,
            "connectivity": connectivity,
            "checkpoint_every": checkpoint_every,
            "use_checkpoint": checkpoint_dir is not None,
            "fingerprint": fingerprint,
        }
        phase_kwargs = dict(
            n_ranks=ranks,
            resilience=resilience,
            fault_plan=fault_plan,
            recorder=rec,
            quorum=quorum,
            heartbeat_timeout=heartbeat_timeout,
            degrade=degrade,
        )
        phase_stats: dict[str, dict] = {}

        with timer.time("scan"):
            scan_tasks = [f"shard-{s:04d}" for s in range(S)]
            phase_stats["scan"] = _run_phase(
                ctx, "scan", scan_tasks, None, **phase_kwargs
            )

        offsets, totals, total = _compute_offsets(scratch, S)

        with timer.time("seam"):
            if S > 1:
                seam_tasks = [f"seam-{s:04d}" for s in range(S - 1)]
                phase_stats["seam"] = _run_phase(
                    ctx, "seam", seam_tasks, None, **phase_kwargs
                )

        levels, top_ref = build_reduce_schedule(S)
        with timer.time("reduce"):
            for level, nodes in enumerate(levels):
                payload = {node["id"]: node for node in nodes}
                phase_stats[f"reduce-{level}"] = _run_phase(
                    ctx,
                    f"reduce-{level}",
                    [node["id"] for node in nodes],
                    payload,
                    **phase_kwargs,
                )

        with timer.time("flatten"):
            lut, n_components = _flatten_lut(ctx, top_ref, total)

        with timer.time("label"):
            prov = _open_prov(ctx, "r")
            final = _finalize_output(lut, prov, plan, offsets, totals, out)
            del prov

        # success: nothing left to resume — leave the checkpoint
        # directory exactly as clean as we found it.
        shutil.rmtree(scratch, ignore_errors=True)
    finally:
        if tmp_ctx is not None:
            tmp_ctx.cleanup()

    agg = {
        "rank_deaths": 0, "respawns": 0, "reassigned": 0,
        "claims_released": 0, "heartbeat_kills": 0, "inline_tasks": 0,
        "rescan_chunks": 0, "seam_recovered": 0, "dropped_seam": 0,
    }
    degraded_from = None
    resumed_tasks: list[str] = []
    for stats in phase_stats.values():
        for key in agg:
            agg[key] += int(stats.get(key) or 0)
        if degraded_from is None and stats.get("degraded"):
            degraded_from = stats["degraded"]
        resumed_tasks.extend(stats.get("resumed_tasks", ()))
    if rec.enabled:
        rec.gauge("shard.n_shards", S)
        rec.gauge("shard.n_ranks", ranks)
        rec.gauge("shard.reduce_levels", len(levels))
    meta = {
        "n_shards": S,
        "n_ranks": ranks,
        "tile_shape": (th, tw),
        "n_tiles": plan.n_tiles,
        "reduce_levels": len(levels),
        "shards_resumed": resumed_tasks,
        "phases": phase_stats,
        **agg,
    }
    if degraded_from is not None:
        meta["degraded_from"] = degraded_from
    return CCLResult(
        labels=final,
        n_components=n_components,
        provisional_count=total,
        phase_seconds=timer.seconds,
        algorithm="sharded",
        meta=meta,
        timings=rec.report(since=mark) if rec.enabled else None,
    )
