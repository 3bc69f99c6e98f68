"""Run-to-run spread of the end-to-end metrics, and the held-out seed check.

    python3 perfbench/spread.py --seeds 0-9 [--workloads bounds reproduce] [--heldout 1000]

Runs perfbench/run.py untraced once per workload and seed, one run at a time,
for the run length in BENCHMARK.json. Per metric it prints the median of the
runs and the distance between their first and third quartile
(`statistics.quantiles(values, n=4)`) as a share of the median, next to the
metric's bound; the benchmark is steady when every spread stays within its
bound, and comfortably so below a third of it. With `--heldout SEED` it also
runs that seed and prints its relative difference from the first seed's run
and from the median of the seeds' runs. The inputs drawn do not set the
numbers when both differences stay within the bound on every metric. The
exit code is 0 only when every check passes. Raw results go to
perfbench/out/spread-<workload>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 900


def parse_seeds(spec: str) -> list[int]:
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: {result['failed']} failed operations")
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-9", help="range lo-hi or comma list")
    parser.add_argument("--workloads", nargs="*", default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--heldout", type=int, help="seed compared with the median of the seeds' runs")
    args = parser.parse_args()
    seeds = parse_seeds(args.seeds)
    metrics = bench["end_to_end"]
    ok = True
    for wl in args.workloads:
        runs = {}
        for seed in seeds:
            t0 = time.perf_counter()
            runs[seed] = run_once(wl, seed, bench["run_seconds"])
            print(f"{wl} seed {seed} ({time.perf_counter() - t0:.0f} s): "
                  + ", ".join(f"{k}={v:.5g}" for k, v in runs[seed].items()), flush=True)
        if args.heldout is not None:
            runs[f"heldout-{args.heldout}"] = run_once(wl, args.heldout, bench["run_seconds"])
        out = HERE / "out" / f"spread-{wl}.json"
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps({str(k): v for k, v in runs.items()}, indent=1))
        print(f"{wl}: {'metric':18s} {'median':>12s} {'spread':>8s} {'bound':>6s}"
              + ("  heldout vs first seed, vs median" if args.heldout is not None else ""))
        for m in metrics:
            name, bound = m["name"], m["bound"]
            vals = [runs[s][name] for s in seeds]
            med, sp = statistics.median(vals), spread(vals) if len(vals) > 1 else 0.0
            status = "ok" if sp <= bound / 3 else ("within bound" if sp <= bound else "OVER BOUND")
            ok = ok and sp <= bound
            line = f"{wl}: {name:18s} {med:12.5g} {sp:8.4f} {bound:6.3f}  {status}"
            if args.heldout is not None:
                held = runs[f"heldout-{args.heldout}"][name]
                first = (held - runs[seeds[0]][name]) / runs[seeds[0]][name]
                diff = (held - med) / med
                agree = abs(first) <= bound and abs(diff) <= bound
                ok = ok and agree
                line += f"  {first:+.4f}, {diff:+.4f} {'agrees' if agree else 'DISAGREES'}"
            print(line, flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
