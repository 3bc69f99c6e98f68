"""qinflate benchmark: times the package's public calls on one seeded workload.

    python3 perfbench/run.py --workload scan-small --seed 0 --seconds 10 --trace 0

Run from the root of a source checkout; the package is imported from `src/`.
With `--trace 0` the run is untraced and reports the end-to-end metrics; with
`--trace 1` a traced run reports the per-layer metrics and the tracing
overhead. Human-readable lines come first, then one line `env {...}`, and the
last line is a JSON object with the keys `correct`, `attempted`, `failed` and
`metrics`. Outputs of every timed call are checked; a failed check or an
exception counts as a failed operation. Set-up is timed in fresh child
processes (`--setup-only`), so `setup_s` includes starting the interpreter and
importing numpy, scipy and qinflate. Call times are calibrated against a
reference kernel sampled through the run (`input_costs`), because other
tenants of a shared machine slow everything for minutes at a time. See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from importlib import import_module
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: BLAS threads, fixed here rather than inherited from the caller's
#: environment: on small states the thread pool costs more than it saves.
BLAS_THREADS = 1
#: Set-ups timed per untraced run, each in a fresh interpreter; `setup_s` is
#: their median. About half run before the measurement and the rest after it:
#: the machine's speed changes for seconds at a time, and set-ups spread over
#: the run are less likely to all fall in one slow or one quiet stretch.
SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 120
#: Best time of `reference_ms` on the quiet shared 2-vCPU VM where the
#: baselines in README.md were taken. Call times are reported at that speed.
REFERENCE_QUIET_MS = 1.65
#: How often the reference kernel is sampled between timed calls.
REFERENCE_EVERY_S = 0.25
#: Runs of the reference kernel per sample; the sample is the best of them.
REFERENCE_REPEATS = 3
MODULES = ("linalg", "states", "witness", "opt", "dag", "reproduce", "cli")
WORKLOAD_NAMES = ("scan-small", "scan-large", "bounds", "reproduce")

END_TO_END = (
    ("setup_s", "s"),
    ("primary_per_s", "1/s"),
    ("primary_ms_p50", "ms"),
    ("primary_ms_p90", "ms"),
    ("secondary_ms_p50", "ms"),
    ("peak_rss_mb", "MB"),
)

# The same numbers under the names a reader of each workload looks for:
# (name, end-to-end source, scale, unit).
_SCAN_NAMES = (
    ("states_per_s", "primary_per_s", 1.0, "1/s"),
    ("state_ms_p50", "primary_ms_p50", 1.0, "ms"),
    ("state_ms_p90", "primary_ms_p90", 1.0, "ms"),
    ("distributions_per_s", "secondary_per_s", 1.0, "1/s"),
)
WORKLOAD_NAMES_FOR = {
    "scan-small": _SCAN_NAMES,
    "scan-large": _SCAN_NAMES,
    "bounds": (
        ("bracket_s_p50", "primary_ms_p50", 1e-3, "s"),
        ("bracket_s_p90", "primary_ms_p90", 1e-3, "s"),
        ("crossing_s", "secondary_ms_p50", 1e-3, "s"),
    ),
    "reproduce": (
        ("claim_ms_p50", "primary_ms_p50", 1.0, "ms"),
        ("light_pass_s", "secondary_ms_p50", 1e-3, "s"),
        ("reproduce_s", "full_pass_s", 1.0, "s"),
    ),
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    # Internal: only set up, for `time_setups` to time from outside.
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "qinflate" / "__init__.py").is_file():
        print(f"error: no qinflate sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    # Before numpy is first imported, by the modules below.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from tracer import Tracer, layer_metric_specs, layer_metrics

    if args.setup_only:
        set_up(args.workload, args.seed)
        return 0
    setups = [] if args.trace else time_setups(args, SETUP_REPEATS // 2)
    wl = set_up(args.workload, args.seed)

    failures: list[str] = []
    refs: list[float] = []
    if args.trace:
        # Half the time untraced, half traced, every op on every pass; the
        # overhead compares the median calibrated pass of each half.
        untraced = measure(wl.ops, args.seconds / 2, failures, refs, repeat_once=True)
        tracer = Tracer()
        tracer.install()
        try:
            traced = measure(wl.ops, args.seconds / 2, failures, refs, tracer, repeat_once=True)
        finally:
            tracer.uninstall()
        overhead = tuple(statistics.median(pass_seconds(rec, refs) for rec in p)
                         for p in (traced, untraced))
        metrics = layer_metrics(tracer, len(traced), *overhead)
        units = {s["name"]: s["unit"] for s in layer_metric_specs()}
        tracer.save(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
        passes = untraced + traced
        print(f"traced passes {len(traced)}, spans {len(tracer.span)}; median pass "
              f"{overhead[1]:.4f} s untraced, {overhead[0]:.4f} s traced")
        report = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    else:
        passes = measure(wl.ops, args.seconds, failures, refs)
        setups += time_setups(args, SETUP_REPEATS - len(setups))
        values, counts = end_to_end(passes, wl.secondary_is_pass, setups, refs)
        raw, _ = end_to_end(passes, wl.secondary_is_pass, setups, None)
        report = {k: {"value": values[k], "unit": u} for k, u in END_TO_END}
        print(f"reference kernel over {len(refs)} samples: best {min(refs):.4f} ms, "
              f"median {statistics.median(refs):.4f} ms, mean {statistics.fmean(refs):.4f} ms")
        for name, unit in END_TO_END:
            print(f"metric {name} = {values[name]:.6g} {unit} "
                  f"(uncalibrated {raw[name]:.6g}; {counts[name]})")
        for name, src, scale, unit in WORKLOAD_NAMES_FOR[args.workload]:
            print(f"  {name} = {values[src] * scale:.6g} {unit} "
                  f"(uncalibrated {raw[src] * scale:.6g}; {counts[src]})")

    attempted = sum(len(p) for p in passes)
    print(f"  failed_fraction = {len(failures) / attempted:.6g} ({len(failures)} of {attempted})")
    for msg in failures[:5]:
        print(f"failed: {msg}")
    print("env " + json.dumps(environment(args)))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": report}))
    return 0


def set_up(workload: str, seed: int):
    """Import qinflate, generate the workload's inputs and warm up."""
    from workloads import WORKLOADS

    q = SimpleNamespace(**{m: import_module(f"qinflate.{m}") for m in MODULES})
    wl = WORKLOADS[workload](q, seed, OUT)
    wl.warmup()
    return wl


def time_setups(args: argparse.Namespace, repeats: int) -> list[float]:
    """Wall seconds of `repeats` set-ups, each in a fresh interpreter.

    A set-up in a new process pays what a user pays: starting Python and
    importing numpy, scipy and qinflate, then `set_up`.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--trace", "0", "--setup-only"]
    setups = []
    for _ in range(repeats):
        t0 = perf_counter()
        subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, check=True,
                       timeout=SETUP_TIMEOUT_S)
        setups.append(perf_counter() - t0)
    return setups


def measure(ops, seconds: float, failures: list[str], refs: list[float], tracer=None,
            repeat_once: bool = False) -> list[list[tuple]]:
    """Closed-loop passes over `ops` for `seconds`, at least one pass.

    Returns one list of (op, latency seconds, reference index) per pass. A
    pass is started only while time remains, so every pass covers the same
    inputs. Ops marked `once` run in the first pass only, unless
    `repeat_once`; without `repeat_once` their time is not counted against
    `seconds`. Between calls, every `REFERENCE_EVERY_S`, a sample of
    `reference_ms` is appended to `refs`; the reference index of a call is
    that of the last sample taken before it.
    """
    passes: list[list[tuple]] = []
    t_end = perf_counter() + seconds
    next_ref = 0.0
    while not passes or perf_counter() < t_end:
        first = not passes
        rec = []
        for op in ops:
            if op.once and not first and not repeat_once:
                continue
            if perf_counter() >= next_ref:
                refs.append(reference_ms())
                next_ref = perf_counter() + REFERENCE_EVERY_S
            if tracer is not None:
                tracer.request_id = op.index
            t0 = perf_counter()
            try:
                out = op.run()
            except Exception:  # noqa: BLE001 -- counted as a failed operation
                rec.append((op, perf_counter() - t0, len(refs) - 1))
                failures.append(f"op {op.index}: {traceback.format_exc(limit=3)}")
                continue
            rec.append((op, perf_counter() - t0, len(refs) - 1))
            if op.once and not repeat_once:
                t_end += rec[-1][1]
            if tracer is not None:
                with tracer.paused():
                    msg = op.check(out, first)
            else:
                msg = op.check(out, first)
            if msg is not None:
                failures.append(f"op {op.index}: {msg}")
        passes.append(rec)
    return passes


def reference_ms() -> float:
    """Best time of a fixed numpy and interpreter kernel, in milliseconds.

    It mixes what qinflate spends its time on (interpreter work, 8x8 and
    96x96 Hermitian eigensolves, tensor reshuffles) without calling qinflate,
    on fresh arrays each time, so it slows down when other tenants slow the
    machine and never when qinflate changes.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    best = float("inf")
    for _ in range(REFERENCE_REPEATS):
        t0 = perf_counter()
        for _ in range(8):
            a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
            np.linalg.eigvalsh(a + a.conj().T)
            sum(i * 0.5 for i in range(100))
        b = rng.standard_normal((96, 96)) + 1j * rng.standard_normal((96, 96))
        np.linalg.eigvalsh(b + b.conj().T)
        (b @ b).reshape(4, 4, 6, 4, 4, 6).transpose(1, 0, 2, 4, 3, 5).reshape(96, 96)
        best = min(best, perf_counter() - t0)
    return best * 1e3


def scaled(lat: float, k: int, refs: list[float]) -> float:
    """A latency at the speed of a quiet machine (see `input_costs`)."""
    return lat * REFERENCE_QUIET_MS / statistics.fmean(refs[k:k + 2])


def pass_seconds(rec: list[tuple], refs: list[float]) -> float:
    return sum(scaled(lat, k, refs) for _, lat, k in rec)


def _percentile(xs: list[float], p: int) -> float:
    if len(xs) == 1:
        return xs[0]
    return statistics.quantiles(xs, n=100, method="inclusive")[p - 1]


def input_costs(passes: list[list[tuple]], refs: list[float] | None) -> list[tuple]:
    """(op, calibrated cost in seconds) for every op that ran.

    Other tenants of a shared machine slow every call by up to 1.6x. The
    machine switches between its quiet and slow speeds within a second at
    times, and stays slow for minutes at others. So each call's latency is
    divided by the machine's speed near that moment: the mean of the
    reference samples taken just before and just after it, over the kernel's
    quiet time. Costs are then seconds at the speed of a quiet machine. An
    op's cost is the median over its calls, which also drops a call hit by a
    burst shorter than the sampling interval. With `refs` None, latencies are
    left as measured.
    """
    lats: dict[int, tuple] = {}
    for rec in passes:
        for op, lat, k in rec:
            if refs is not None:
                lat = scaled(lat, k, refs)
            lats.setdefault(op.index, (op, []))[1].append(lat)
    return [(op, statistics.median(xs)) for op, xs in lats.values()]


def end_to_end(passes, secondary_is_pass: bool, setups: list[float], refs: list[float] | None):
    """End-to-end values from the costs of `input_costs`, with a note on each.

    Set-up is wall time, not calibrated: the reference kernel's speed did not
    follow that of a fresh interpreter's imports.
    """
    cost = input_costs(passes, refs)
    prim = [c * 1e3 for op, c in cost if op.kind == "primary"]
    sec_ops = [c * 1e3 for op, c in cost if op.kind == "secondary"]
    repeated = sum(c for op, c in cost if not op.once)
    sec = [repeated * 1e3] if secondary_is_pass else sec_ops
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "setup_s": statistics.median(setups),
        "primary_per_s": len(prim) / sum(prim) * 1e3,
        "primary_ms_p50": _percentile(prim, 50),
        "primary_ms_p90": _percentile(prim, 90),
        "secondary_ms_p50": statistics.median(sec),
        "secondary_per_s": len(sec_ops) / sum(sec_ops) * 1e3 if sec_ops else 0.0,
        "peak_rss_mb": rss_kb / 1024,
        "full_pass_s": sum(c for _, c in cost),
    }
    per_input = f"{len(passes)} passes"
    counts = {
        "setup_s": f"median of {len(setups)} fresh processes",
        "primary_per_s": f"{len(prim)} inputs, {per_input}",
        "primary_ms_p50": f"n={len(prim)}, {per_input}",
        "primary_ms_p90": f"n={len(prim)}, {per_input}",
        "secondary_ms_p50": (f"one pass, {per_input}" if secondary_is_pass
                             else f"n={len(sec)}, {per_input}"),
        "secondary_per_s": f"{len(sec_ops)} inputs, {per_input}",
        "peak_rss_mb": "n=1",
        "full_pass_s": "every call once; AC-9 and AC-10 are timed once, not gated",
    }
    return values, counts


def environment(args: argparse.Namespace) -> dict:
    import numpy as np
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(np),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _git_commit(),
    }


def _blas(np) -> dict:
    """BLAS build of numpy and the thread count its OpenBLAS reports."""
    info: dict = {"threads_requested": BLAS_THREADS, "threads": None}
    try:
        cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=cfg.get("name"), version=cfg.get("version"))
    except (TypeError, KeyError):
        pass
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                return info
    return info


def _git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return "unknown (not a git checkout)"
    return "unknown"


if __name__ == "__main__":
    sys.exit(main())
