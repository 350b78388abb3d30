"""``repro-label`` — label an image file from the shell.

The end-user pipeline the paper motivates, as one command::

    repro-label scan.pbm labels.pgm --algorithm aremsp --min-area 8
    repro-label photo.pgm out.npy --level 0.5 --engine vectorized --stats

Input: any netpbm file (PBM/PGM/PPM, ASCII or binary) or ``.npy``;
colour/gray inputs are binarized with the paper's ``im2bw`` rule at
``--level`` (default 0.5). Output by extension: ``.npy`` (int32
labels), ``.pgm`` (faithful label image, 16-bit when more than 255
components), or ``.ppm`` (colour visualisation, one distinct colour
per component).
"""

from __future__ import annotations

import argparse
import pathlib
import sys

import numpy as np

from .analysis import clear_border, component_stats, fill_holes, filter_components
from .ccl.registry import ALGORITHMS, get_algorithm
from .data.binarize import im2bw
from .data.pnm import read_pnm, write_pnm

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-label",
        description="Connected-component labeling (Gupta et al. 2014 algorithms)",
    )
    parser.add_argument("input", help="input image: .pbm/.pgm/.pnm or .npy")
    parser.add_argument("output", help="output labels: .npy or .pgm")
    parser.add_argument(
        "--algorithm",
        default="aremsp",
        choices=sorted(ALGORITHMS),
        help="labeling algorithm (default: aremsp, the paper's best)",
    )
    parser.add_argument(
        "--engine",
        choices=("python", "vectorized"),
        default=None,
        help="force an engine: vectorized = NumPy run-based (the other "
        "registry engines are --algorithm names)",
    )
    parser.add_argument(
        "--connectivity", type=int, choices=(4, 8), default=8
    )
    parser.add_argument(
        "--backend",
        choices=("serial", "threads", "processes"),
        default=None,
        help="run the parallel PAREMSP pipeline on this backend instead "
        "of the single-pass --algorithm (--engine vectorized scans with "
        "NumPy, otherwise the interpreter scan runs)",
    )
    parser.add_argument(
        "--threads",
        type=int,
        default=4,
        help="worker/chunk count for --backend runs (default: 4)",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=None,
        help="max per-phase worker retries for --backend runs "
        "(default: the ResilienceConfig default)",
    )
    parser.add_argument(
        "--degrade",
        action="store_true",
        help="on a backend failure, fall back down the ladder "
        "(processes -> threads -> serial) instead of erroring out",
    )
    parser.add_argument(
        "--job",
        choices=("streaming", "tiled"),
        default=None,
        help="run as an out-of-core job (row-streaming or tiled) that "
        "labels straight into an on-disk array; required for "
        "checkpointing",
    )
    parser.add_argument(
        "--tile-shape",
        metavar="HxW",
        default="256x256",
        help="tile grid for --job tiled (default: 256x256); a resume "
        "must use the same shape as the interrupted run",
    )
    parser.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        default=None,
        help="directory for crash-safe snapshots of the --job state "
        "(atomic rename + checksum); a killed run restarted with "
        "--resume continues from the latest valid snapshot",
    )
    parser.add_argument(
        "--checkpoint-every",
        type=int,
        metavar="N",
        default=None,
        help="snapshot cadence: every N rows (streaming) or every N "
        "tiles/seams/blocks (tiled); defaults 256 rows / 8 tiles",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="resume the --job (or --shards run) from the latest valid "
        "snapshot in --checkpoint-dir / --shard-checkpoint-dir instead "
        "of starting over",
    )
    parser.add_argument(
        "--shards",
        type=int,
        metavar="N",
        default=None,
        help="label via the elastic sharded runtime: cut the raster "
        "into N band shards executed by supervised worker processes "
        "with tree-reduce seam merging (see docs/SHARDED.md); uses "
        "--tile-shape and --checkpoint-every",
    )
    parser.add_argument(
        "--shard-checkpoint-dir",
        metavar="DIR",
        default=None,
        help="durable scratch directory for --shards runs; a killed "
        "run restarted with --resume continues from the per-shard "
        "snapshots",
    )
    parser.add_argument(
        "--hosts",
        metavar="HOST:PORT,...",
        default=None,
        help="run --shards across these repro-shard-worker daemons "
        "(comma-separated addresses); the scratch directory must be on "
        "a filesystem every host shares. Unreachable hosts degrade the "
        "run down the ladder (multi-host -> local shards -> inline) "
        "unless quorum holds",
    )
    parser.add_argument(
        "--virtual-hosts",
        type=int,
        metavar="N",
        default=None,
        help="run --shards across N loopback worker daemons spawned "
        "locally -- the CI/dev stand-in for --hosts, exercising the "
        "real socket transport without real machines",
    )
    parser.add_argument(
        "--level",
        type=float,
        default=0.5,
        help="im2bw threshold for grayscale inputs (fraction of full scale)",
    )
    parser.add_argument(
        "--min-area",
        type=int,
        default=0,
        help="drop components smaller than this many pixels",
    )
    parser.add_argument(
        "--fill-holes", action="store_true", help="fill enclosed holes first"
    )
    parser.add_argument(
        "--clear-border",
        action="store_true",
        help="drop components touching the image border first",
    )
    parser.add_argument(
        "--stats", action="store_true", help="print per-component statistics"
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="record phase spans + metrics during labeling and write them "
        "as trace.jsonl to PATH (also prints the phase table)",
    )
    parser.add_argument(
        "--profile",
        metavar="PATH",
        default=None,
        help="attach the sampling profiler during labeling and write "
        "collapsed stacks (flamegraph.pl / speedscope input, one "
        "'phase;frame;... count' line each) to PATH",
    )
    return parser


def _maybe_profiler(args):
    """The --profile context: a live sampler, or an inert null."""
    if not args.profile:
        import contextlib

        return contextlib.nullcontext(None)
    from .obs.runtime import SamplingProfiler

    return SamplingProfiler()


def _write_profile(args, prof) -> None:
    if prof is None:
        return
    prof.write_collapsed(args.profile)
    print(
        f"profile -> {args.profile} ({prof.sample_count} samples; "
        "feed to flamegraph.pl or speedscope)"
    )


def _load(path: pathlib.Path, level: float) -> np.ndarray:
    if path.suffix == ".npy":
        arr = np.load(path)
    else:
        arr = read_pnm(path)
    if arr.ndim == 3 or (arr.ndim == 2 and arr.max(initial=0) > 1):
        arr = im2bw(arr, level)  # the paper's preprocessing step
    return arr


def _save(path: pathlib.Path, labels: np.ndarray) -> None:
    if path.suffix == ".npy":
        np.save(path, labels)
    elif path.suffix == ".ppm":
        # colour visualisation: one distinct colour per component
        from .analysis import colorize_labels

        write_pnm(path, colorize_labels(labels))
    else:
        mx = int(labels.max(initial=0))
        # a PGM must carry every label faithfully
        write_pnm(path, labels.astype(np.uint16 if mx > 255 else np.uint8),
                  maxval=max(1, mx))


def _print_stats(labels: np.ndarray, n: int) -> None:
    stats = component_stats(labels)
    order = np.argsort(stats.areas)[::-1]
    print(f"{'label':>6s} {'area':>8s} {'bbox':>20s} {'centroid':>16s}")
    for i in order[:20]:
        c = stats.component(int(i) + 1)
        r0, c0, r1, c1 = c["bbox"]
        cy, cx = c["centroid"]
        print(
            f"{c['label']:6d} {c['area']:8d} "
            f"{f'({r0},{c0})-({r1},{c1})':>20s} "
            f"{f'({cy:.1f},{cx:.1f})':>16s}"
        )
    if n > 20:
        print(f"... {n - 20} more")


def _degrade_detail(reason: dict) -> str:
    """Render the error/ranks portion of a ``degraded_from`` reason."""
    bits = []
    if reason.get("error"):
        bits.append(reason["error"])
    if reason.get("ranks"):
        bits.append(f"ranks {list(reason['ranks'])}")
    return f" ({', '.join(bits)})" if bits else ""


def _parse_tile_shape(raw: str) -> tuple[int, int] | None:
    try:
        th, _, tw = raw.lower().partition("x")
        return (int(th), int(tw or th))
    except ValueError:
        print(
            f"error: bad --tile-shape {raw!r} (expected HxW, e.g. 128x128)",
            file=sys.stderr,
        )
        return None


def _run_sharded(args, image, in_path, out_path) -> int:
    """The ``--shards`` path: elastic sharded labeling, multi-process
    locally or multi-host over ``--hosts`` / ``--virtual-hosts``."""
    import time

    tile_shape = _parse_tile_shape(args.tile_shape)
    if tile_shape is None:
        return 2
    kwargs: dict = {}
    if args.checkpoint_every is not None:
        kwargs["checkpoint_every"] = args.checkpoint_every
    t0 = time.perf_counter()
    with _maybe_profiler(args) as prof:
        if args.hosts or args.virtual_hosts:
            from .parallel import net_shard_label

            result = net_shard_label(
                image,
                hosts=args.hosts,
                virtual_hosts=args.virtual_hosts,
                n_shards=args.shards,
                tile_shape=tile_shape,
                connectivity=args.connectivity,
                checkpoint_dir=args.shard_checkpoint_dir,
                resume=args.resume,
                **kwargs,
            )
        else:
            from .parallel import shard_label

            result = shard_label(
                image,
                n_shards=args.shards,
                tile_shape=tile_shape,
                connectivity=args.connectivity,
                checkpoint_dir=args.shard_checkpoint_dir,
                resume=args.resume,
                **kwargs,
            )
    elapsed = time.perf_counter() - t0
    _write_profile(args, prof)
    labels = np.asarray(result.labels)
    n = result.n_components
    if args.min_area > 0:
        labels = filter_components(labels, min_area=args.min_area)
        n = int(labels.max(initial=0))
    _save(out_path, labels)
    n_hosts = result.meta.get("n_hosts")
    mode = (
        f"sharded x{result.meta['n_shards']} over {n_hosts} host(s)"
        if n_hosts
        else f"sharded x{result.meta['n_shards']}"
    )
    print(
        f"{in_path.name}: {image.shape[0]}x{image.shape[1]}, "
        f"{n} components -> {out_path.name} "
        f"({elapsed * 1e3:.1f} ms, {mode})"
    )
    resumed = result.meta.get("shards_resumed")
    if resumed:
        print(
            f"note: resumed {len(resumed)} shard(s) from checkpoint "
            f"({result.meta['rescan_chunks']} chunks rescanned)"
        )
    degraded_from = result.meta.get("degraded_from")
    if degraded_from:
        if degraded_from.get("backend") == "net-sharded":
            print(
                f"note: host pool lost quorum"
                f"{_degrade_detail(degraded_from)}; finished on "
                "local shards"
            )
        else:
            print(
                f"note: shard pool lost quorum"
                f"{_degrade_detail(degraded_from)}; finished inline"
            )
    if args.stats and n:
        _print_stats(labels, n)
    return 0


def _run_job(args, image, in_path, out_path) -> int:
    """The ``--job`` path: checkpointable out-of-core labeling."""
    import dataclasses as _dc
    import time

    from .checkpoint import JobRunner, StreamingJob, TiledJob
    from .faults import DEFAULT_RESILIENCE, DegradationPolicy

    # the job writes .npy; for .pgm/.ppm outputs label into a sidecar
    # .npy and convert at the end
    job_out = (
        out_path
        if out_path.suffix == ".npy"
        else out_path.with_name(out_path.name + ".labels.npy")
    )
    kwargs: dict = {"checkpoint_dir": args.checkpoint_dir,
                    "connectivity": args.connectivity}
    if args.checkpoint_every is not None:
        kwargs["every"] = args.checkpoint_every
    if args.job == "tiled":
        tile_shape = _parse_tile_shape(args.tile_shape)
        if tile_shape is None:
            return 2

    def build_and_run():
        # built inside the recorder context: the job and its snapshot
        # store capture the ambient recorder at construction
        if args.job == "streaming":
            job = StreamingJob(image, job_out, **kwargs)
        else:
            job = TiledJob(
                image, job_out,
                tile_shape=tile_shape,
                workers=args.threads,
                pool=args.backend or "processes",
                **kwargs,
            )
        resilience = (
            _dc.replace(DEFAULT_RESILIENCE, max_retries=args.retries)
            if args.retries is not None
            else None
        )
        degradation = DegradationPolicy() if args.degrade else None
        runner = JobRunner(job, degradation=degradation,
                           resilience=resilience)
        return job, runner.run(resume=args.resume)

    t0 = time.perf_counter()
    with _maybe_profiler(args) as prof:
        if args.trace:
            from .obs import TraceRecorder, use_recorder, write_trace_jsonl

            rec = TraceRecorder()
            with use_recorder(rec):
                job, result = build_and_run()
            report = rec.report()
            write_trace_jsonl(
                report.spans, args.trace, metrics=report.metrics
            )
            print(report.render())
            print(f"trace -> {args.trace}")
        else:
            job, result = build_and_run()
    elapsed = time.perf_counter() - t0
    _write_profile(args, prof)
    labels = result.labels
    n = result.n_components
    if args.min_area > 0:
        labels = filter_components(np.asarray(labels), min_area=args.min_area)
        n = int(labels.max(initial=0))
    if job_out != out_path:
        _save(out_path, np.asarray(labels))
        job_out.unlink(missing_ok=True)
    elif args.min_area > 0:
        np.save(out_path, labels)  # re-save the filtered labels
    print(
        f"{in_path.name}: {image.shape[0]}x{image.shape[1]}, "
        f"{n} components -> {out_path.name} "
        f"({elapsed * 1e3:.1f} ms, {args.job} job)"
    )
    if result.resumed_from is not None:
        print(f"note: resumed from snapshot seq {result.resumed_from}")
    degraded_from = result.meta.get("degraded_from")
    if degraded_from:
        print(
            f"note: backend {degraded_from['backend']!r} failed"
            f"{_degrade_detail(degraded_from)}; job degraded to "
            f"{job.backend_name!r}"
        )
    if args.stats and n:
        _print_stats(np.asarray(labels), n)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    in_path = pathlib.Path(args.input)
    out_path = pathlib.Path(args.output)
    if args.checkpoint_dir and not args.job:
        print(
            "error: --checkpoint-dir requires --job (streaming or tiled)",
            file=sys.stderr,
        )
        return 2
    if args.shards is not None and args.job:
        print(
            "error: --shards and --job are mutually exclusive",
            file=sys.stderr,
        )
        return 2
    if args.shard_checkpoint_dir and args.shards is None:
        print(
            "error: --shard-checkpoint-dir requires --shards",
            file=sys.stderr,
        )
        return 2
    if (args.hosts or args.virtual_hosts) and args.shards is None:
        print(
            "error: --hosts/--virtual-hosts require --shards",
            file=sys.stderr,
        )
        return 2
    if args.hosts and args.virtual_hosts:
        print(
            "error: --hosts and --virtual-hosts are mutually exclusive",
            file=sys.stderr,
        )
        return 2
    if args.resume and not (args.checkpoint_dir or args.shard_checkpoint_dir):
        print(
            "error: --resume requires --checkpoint-dir "
            "(or --shard-checkpoint-dir for --shards runs)",
            file=sys.stderr,
        )
        return 2
    if not in_path.exists():
        print(f"error: no such file: {in_path}", file=sys.stderr)
        return 2

    image = _load(in_path, args.level)
    if args.fill_holes:
        image = fill_holes(image, args.connectivity)
    if args.clear_border:
        image = clear_border(image, args.connectivity)

    if args.job:
        return _run_job(args, image, in_path, out_path)
    if args.shards is not None:
        return _run_sharded(args, image, in_path, out_path)

    if args.backend:
        import dataclasses as _dc

        from .faults import DEFAULT_RESILIENCE, DegradationPolicy
        from .parallel import paremsp

        resilience = (
            _dc.replace(DEFAULT_RESILIENCE, max_retries=args.retries)
            if args.retries is not None
            else None
        )
        degradation = DegradationPolicy() if args.degrade else None
        engine = "vectorized" if args.engine == "vectorized" else "interpreter"

        def fn(image, connectivity):
            return paremsp(
                image,
                n_threads=args.threads,
                backend=args.backend,
                connectivity=connectivity,
                engine=engine,
                resilience=resilience,
                degradation=degradation,
            )

    elif args.engine == "vectorized":
        fn = get_algorithm("run-vectorized")
    else:
        fn = get_algorithm(args.algorithm)
    with _maybe_profiler(args) as prof:
        if args.trace:
            from .obs import TraceRecorder, use_recorder, write_trace_jsonl

            rec = TraceRecorder()
            with use_recorder(rec):
                result = fn(image, args.connectivity)
            report = rec.report()
            write_trace_jsonl(
                report.spans, args.trace, metrics=report.metrics
            )
            print(report.render())
            print(f"trace -> {args.trace}")
        else:
            result = fn(image, args.connectivity)
    _write_profile(args, prof)
    labels = result.labels
    n = result.n_components
    if args.min_area > 0:
        labels = filter_components(labels, min_area=args.min_area)
        n = int(labels.max(initial=0))

    _save(out_path, labels)
    print(
        f"{in_path.name}: {image.shape[0]}x{image.shape[1]}, "
        f"{n} components -> {out_path.name} "
        f"({result.total_seconds * 1e3:.1f} ms, {result.algorithm})"
    )
    degraded_from = (result.meta or {}).get("degraded_from")
    if degraded_from:
        print(
            f"note: backend {degraded_from['backend']!r} failed"
            f"{_degrade_detail(degraded_from)}; run degraded to "
            f"{result.backend!r}"
        )
    dispatch = (result.meta or {}).get("dispatch")
    if dispatch:
        print(
            f"note: auto dispatch chose {dispatch['engine']!r} "
            f"(density {dispatch['density']}, rule {dispatch['rule']!r})"
        )
    if args.stats and n:
        _print_stats(labels, n)
    return 0


if __name__ == "__main__":
    sys.exit(main())
