"""Steadiness check: two sets of runs of every workload on this checkout.

    python3 perfbench/steady.py --runs 10

Each run is ``perfbench/run.py`` in a fresh process with its own seed;
the workloads are interleaved so that slow drifts of the host hit each
of them alike. For every end-to-end metric of every workload it prints
each set's quartiles and spread (interquartile distance over the
median), and whether the two sets agree within the metric's bound: both
spreads at most the bound, and the two medians apart by at most the
bound, as a share of the first. Every run must also report zero failed
operations and ``correct``. Raw results go to
``perfbench/out/steady-<time>.jsonl``. Exit code 0 when every row
agrees.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
SETS = 2


def one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["log"] = proc.stderr.splitlines()
    return out


def verdict(spec: dict, sets: list[dict]) -> bool:
    """Print the per-metric table of two sets (workload -> list of run
    results); ``True`` when every row agrees."""
    all_ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        print(f"\n{workload}")
        print(f"  {'metric':<16}{'set':>4}{'q1':>12}{'median':>12}{'q3':>12}"
              f"{'spread':>8}{'bound':>7}{'moved':>8}  verdict")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            stats = []
            for s in sets:
                q1, q2, q3 = statistics.quantiles(
                    [r["metrics"][name]["value"] for r in s[workload]], n=4)
                stats.append((q1, q2, q3, (q3 - q1) / q2))
            m1, m2 = stats[0][1], stats[1][1]
            moved = (m2 - m1) / m1
            ok = all(st[3] <= bound for st in stats) and abs(moved) <= bound
            all_ok &= ok
            for i, (q1, q2, q3, spread) in enumerate(stats, 1):
                tail = f"{moved:>+8.3f}  {'ok' if ok else 'MISS'}" if i == 2 else ""
                print(f"  {name if i == 1 else '':<16}{i:>4}{q1:>12.5g}{q2:>12.5g}{q3:>12.5g}"
                      f"{spread:>8.3f}{bound:>7.2f}{tail}")
        runs = [r for s in sets for r in s[workload]]
        failed = sum(r["failed"] for r in runs)
        wrong = sum(not r["correct"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        clean = failed == 0 and wrong == 0
        all_ok &= clean
        print(f"  failed {failed} of {attempted} operations; {wrong} of {len(runs)} runs "
              f"not correct  {'ok' if clean else 'MISS'}")
    return all_ok


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10, help="runs per workload per set")
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = p.parse_args(argv)
    workloads = [w["name"] for w in spec["workloads"]]
    OUT.mkdir(parents=True, exist_ok=True)
    raw = OUT / f"steady-{time.strftime('%Y%m%dT%H%M%S')}.jsonl"
    sets = []
    seed = 0
    with raw.open("w") as fh:
        for set_no in range(1, SETS + 1):
            runs = {w: [] for w in workloads}
            for _ in range(args.runs):
                seed += 1
                for w in workloads:
                    res = one_run(w, seed, args.seconds)
                    runs[w].append(res)
                    fh.write(json.dumps({"set": set_no, "workload": w, "seed": seed, **res}) + "\n")
                    fh.flush()
                    print(f"set {set_no} seed {seed} {w}: failed {res['failed']}/{res['attempted']}",
                          file=sys.stderr)
            sets.append(runs)
    print(f"raw results: {raw.relative_to(ROOT)}")
    return 0 if verdict(spec, sets) else 1


if __name__ == "__main__":
    sys.exit(main())
