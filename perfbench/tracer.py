"""In-memory span tracer that wraps qinflate's public calls from outside.

`install` rebinds every public function of every loaded qinflate module under
each module attribute that refers to it. `witness.py` imports
`partial_trace` and its siblings by name, so patching `qinflate.linalg`
alone would miss those calls. Constructors of public dataclasses are wrapped
through `__post_init__`, the claim functions through the `reproduce.CLAIMS`
registry, and `opt`'s scipy `minimize` binding so that product-search
evaluations are counted where they happen.

A span records name, start, end, parent span and request id (the index of the
benchmark input being processed). Spans stay in memory until `save` writes
them out at the end of a run.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from array import array
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterator, Optional

import numpy as np

PACKAGE = "qinflate"

#: A restart counts as useful when it ends within this of the best restart.
USEFUL_RESTART_TOL = 1e-9

Hook = Callable[["Tracer", tuple, object], None]


class Tracer:
    """Span store plus counters fed by per-function hooks."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span = array("q")
        self.name = array("q")
        self.parent = array("q")
        self.request = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, float] = defaultdict(float)
        self.request_id = -1
        self._stack: list[int] = []
        self._next_span = 0
        self._paused = False
        self._undo: list[Callable[[], None]] = []
        self.restart_values: list[float] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn: Callable, hook: Optional[Hook] = None) -> Callable:
        """`fn` recording one span named `name` per call, then running `hook`."""
        nid = self._name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            sid = self._next_span
            self._next_span = sid + 1
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self._stack.pop()
                self.span.append(sid)
                self.name.append(nid)
                self.parent.append(parent)
                self.request.append(self.request_id)
                self.start.append(t0)
                self.end.append(t1)
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    @contextmanager
    def paused(self) -> Iterator[None]:
        """Run wrapped calls untraced, e.g. the benchmark's output checks."""
        was, self._paused = self._paused, True
        try:
            yield
        finally:
            self._paused = was

    def _patch(self, owner: object, attr: str, value: object) -> None:
        old = getattr(owner, attr)
        setattr(owner, attr, value)
        self._undo.append(lambda: setattr(owner, attr, old))

    def install(self) -> None:
        """Wrap every public qinflate function and constructor currently loaded."""
        modules = [
            m for n, m in sorted(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))
        ]
        wrappers: dict[Callable, Callable] = {}
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                name = _public_function_name(val)
                if name is None:
                    continue
                if val not in wrappers:
                    wrappers[val] = self.wrap(name, val, HOOKS.get(name))
                self._patch(mod, attr, wrappers[val])
        for mod in modules:
            for attr, cls in list(vars(mod).items()):
                if (inspect.isclass(cls) and cls.__module__ == mod.__name__
                        and not attr.startswith("_") and "__post_init__" in vars(cls)):
                    name = f"{_short(mod.__name__)}.{cls.__name__}"
                    self._patch(cls, "__post_init__", self.wrap(name, vars(cls)["__post_init__"]))
        opt = sys.modules.get(PACKAGE + ".opt")
        if opt is not None and callable(getattr(opt, "minimize", None)):
            self._patch(opt, "minimize", self.wrap("opt.minimize", opt.minimize, _minimize_hook))
        rep = sys.modules.get(PACKAGE + ".reproduce")
        claims = getattr(rep, "CLAIMS", None)
        if isinstance(claims, dict):
            original = dict(claims)
            for cid, (desc, fn) in original.items():
                claims[cid] = (desc, self.wrap(f"reproduce.{cid}", fn))
            self._undo.append(lambda: claims.update(original))

    def uninstall(self) -> None:
        """Restore every binding `install` replaced."""
        while self._undo:
            self._undo.pop()()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "span": np.frombuffer(self.span, dtype=np.int64),
            "name": np.frombuffer(self.name, dtype=np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "request": np.frombuffer(self.request, dtype=np.int64),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def self_times(self) -> np.ndarray:
        """Per recorded span: its duration minus the durations of its children.

        Children run inside their parent on one thread, one after another, so
        their durations never overlap.
        """
        a = self.arrays()
        dur = a["end"] - a["start"]
        by_span = np.zeros(self._next_span)
        by_span[a["span"]] = dur
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=self._next_span)
        return by_span[a["span"]] - child[a["span"]]

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: number of calls, busy (wall inside) and self seconds."""
        a = self.arrays()
        n = len(self.names)
        calls = np.bincount(a["name"], minlength=n)
        busy = np.bincount(a["name"], weights=a["end"] - a["start"], minlength=n)
        own = np.bincount(a["name"], weights=self.self_times(), minlength=n)
        return {
            name: {"calls": float(calls[i]), "busy_s": float(busy[i]), "self_s": float(own[i])}
            for i, name in enumerate(self.names)
        }

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(json.dumps(self.names)), **self.arrays())


def _short(module: str) -> str:
    return module[len(PACKAGE) + 1:]


def _public_function_name(val: object) -> Optional[str]:
    if (inspect.isfunction(val) and val.__module__.startswith(PACKAGE + ".")
            and not val.__name__.startswith("_")):
        return f"{_short(val.__module__)}.{val.__name__}"
    return None


def _eig_hook(t: Tracer, args: tuple, result) -> None:
    side = len(result.eigenvalues)
    t.counters["linalg.hermitian_eig.side_cubed"] += float(side) ** 3


def _ppt_hook(t: Tracer, args: tuple, result) -> None:
    t.counters["opt.ppt_min.iterations"] += result.iterations
    t.counters["opt.ppt_min.converged"] += bool(result.converged)


def _minimize_hook(t: Tracer, args: tuple, result) -> None:
    t.counters["opt.product_min.evals"] += result.nfev
    t.restart_values.append(float(result.fun))


def _product_hook(t: Tracer, args: tuple, result) -> None:
    t.counters["opt.product_min.restarts"] += result.restarts_used
    values, t.restart_values = t.restart_values, []
    if values:
        best = min(values)
        t.counters["opt.product_min.minimize_runs"] += len(values)
        t.counters["opt.product_min.useful"] += sum(v <= best + USEFUL_RESTART_TOL for v in values)


HOOKS: dict[str, Hook] = {
    "linalg.hermitian_eig": _eig_hook,
    "opt.ppt_min": _ppt_hook,
    "opt.product_min": _product_hook,
}

# Functions reported per layer. Entry points of witness, opt and cli also get
# busy time (wall time inside the call, children included).
LAYERS = {
    "linalg": ("HermitianOperator", "DensityMatrix", "partial_trace", "partial_transpose",
               "embed", "kron", "permute_subsystems", "hermitian_eig"),
    "states": ("PureState", "Distribution", "measure_local", "nu_decomposition",
               "is_biseparable_pure"),
    "witness": ("cut_witness_quantum", "marginals_of", "hall_delta", "cut_witness_classical",
                "verdict", "supp_ker_test", "pure_delta_structure"),
    "opt": ("ppt_min", "product_min", "iota_tilde_crossing"),
    "dag": ("parse_dag", "is_inflation", "is_nonfanout", "injectable_sets"),
    "cli": ("main",),
}
BUSY_LAYERS = ("witness", "opt", "cli")
CLAIM_IDS = tuple(f"AC-{i}" for i in range(1, 13))


def layer_metric_specs() -> list[dict]:
    """Name, unit and direction of every per-layer metric, in report order."""
    specs = []
    for layer, fns in LAYERS.items():
        for fn in fns:
            base = f"{layer}.{fn}"
            specs.append({"name": f"{base}.calls", "unit": "count", "better": "lower"})
            specs.append({"name": f"{base}.self_s", "unit": "s", "better": "lower"})
            if layer in BUSY_LAYERS:
                specs.append({"name": f"{base}.busy_s", "unit": "s", "better": "lower"})
    specs += [
        {"name": "linalg.hermitian_eig.side_cubed", "unit": "d3-computed", "better": "lower"},
        {"name": "opt.ppt_min.iterations", "unit": "count", "better": "lower"},
        {"name": "opt.ppt_min.iter_us", "unit": "us", "better": "lower"},
        {"name": "opt.ppt_min.converged_ratio", "unit": "ratio", "better": "higher"},
        {"name": "opt.product_min.restarts", "unit": "count", "better": "lower"},
        {"name": "opt.product_min.evals", "unit": "count", "better": "lower"},
        {"name": "opt.product_min.eval_us", "unit": "us", "better": "lower"},
        {"name": "opt.product_min.useful_restart_ratio", "unit": "ratio", "better": "higher"},
    ]
    specs += [{"name": f"reproduce.{cid}.s", "unit": "s", "better": "lower"} for cid in CLAIM_IDS]
    specs += [
        {"name": "trace.spans", "unit": "count", "better": "lower"},
        {"name": "trace.overhead_s", "unit": "s", "better": "lower"},
        {"name": "trace.overhead_share", "unit": "ratio", "better": "lower"},
    ]
    return specs


def layer_metrics(tracer: Tracer, passes: int, traced_s: float, untraced_s: float) -> dict[str, float]:
    """Per-layer values per traced pass over the benchmark's inputs.

    `traced_s` and `untraced_s` are the timed-region totals of one pass with
    and without the tracer installed.
    """
    tot = tracer.totals()
    c = tracer.counters
    zero = {"calls": 0.0, "busy_s": 0.0, "self_s": 0.0}
    out: dict[str, float] = {}
    for layer, fns in LAYERS.items():
        for fn in fns:
            base = f"{layer}.{fn}"
            row = tot.get(base, zero)
            out[f"{base}.calls"] = row["calls"] / passes
            out[f"{base}.self_s"] = row["self_s"] / passes
            if layer in BUSY_LAYERS:
                out[f"{base}.busy_s"] = row["busy_s"] / passes
    ppt = tot.get("opt.ppt_min", zero)
    prod = tot.get("opt.product_min", zero)
    out["linalg.hermitian_eig.side_cubed"] = c["linalg.hermitian_eig.side_cubed"] / passes
    out["opt.ppt_min.iterations"] = c["opt.ppt_min.iterations"] / passes
    out["opt.ppt_min.iter_us"] = _ratio(ppt["busy_s"] * 1e6, c["opt.ppt_min.iterations"])
    out["opt.ppt_min.converged_ratio"] = _ratio(c["opt.ppt_min.converged"], ppt["calls"])
    out["opt.product_min.restarts"] = c["opt.product_min.restarts"] / passes
    out["opt.product_min.evals"] = c["opt.product_min.evals"] / passes
    out["opt.product_min.eval_us"] = _ratio(prod["busy_s"] * 1e6, c["opt.product_min.evals"])
    out["opt.product_min.useful_restart_ratio"] = _ratio(
        c["opt.product_min.useful"], c["opt.product_min.minimize_runs"])
    for cid in CLAIM_IDS:
        out[f"reproduce.{cid}.s"] = tot.get(f"reproduce.{cid}", zero)["busy_s"] / passes
    out["trace.spans"] = len(tracer.span) / passes
    out["trace.overhead_s"] = traced_s - untraced_s
    out["trace.overhead_share"] = _ratio(traced_s - untraced_s, untraced_s)
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
