"""Command-line interface: witness verdicts, family sweeps, DAG checks, and
claim reproduction.

Exit codes: 0 = all verdicts inconclusive (or command succeeded), 2 = some
witnessed incompatibility, 1 = error (a malformed command line included).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Optional, Union

import numpy as np

from .dag import build_triangle, injectable_sets, is_inflation, is_nonfanout, parse_dag
from .errors import InvalidParameter, QInflateError
from .linalg import (VERDICT_TOL, DensityMatrix, HermitianOperator, SubsystemLayout,
                     _checked_array, _checked_dims)
from .opt import sweep_tri_bell
from .reproduce import CLAIMS, run_all, run_claim
from .states import (
    Distribution,
    PureState,
    axis_labels,
    ghz_distn,
    ghz_state,
    omega_example,
    qutrit_pair,
    schmidt224,
    toth_acin,
    tri_bell,
    w_distn,
    w_state,
    white_noise_mixture,
)
from .witness import (
    cut_witness_classical,
    cut_witness_quantum,
    toth_acin_eigs,
    verdict,
    werner_ghz_eigs,
    werner_w_eigs,
)

CUTS = {"AB": ("A", "B"), "AC": ("A", "C"), "BC": ("B", "C")}


# ---------------------------------------------------------------------------
# State files


def _pairs_out(z: np.ndarray) -> list:
    """A complex array as nested lists of [re, im] pairs."""
    return np.stack([z.real, z.imag], axis=-1).tolist()


FAMILIES = {
    "ghz": lambda p: ghz_state().to_density(),
    "w": lambda p: w_state().to_density(),
    "ghz_distn": lambda p: ghz_distn(),
    "w_distn": lambda p: w_distn(),
    "tri_bell": lambda p: tri_bell(p["t"]).to_density(),
    "omega": lambda p: omega_example(),
    "werner_ghz": lambda p: white_noise_mixture(ghz_state(), p["p"]),
    "werner_w": lambda p: white_noise_mixture(w_state(), p["p"]),
    "toth_acin": lambda p: toth_acin(p["c"]),
    "qutrit_pure": lambda p: qutrit_pair(p["p0"], p["p1"])[0].to_density(),
    "qutrit_mixed": lambda p: qutrit_pair(p["p0"], p["p1"])[1],
    "schmidt224": lambda p: schmidt224(
        p["alphas"], p.get("phi0", 0.0), p.get("phi1", 0.0)
    ).to_density(),
}


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise InvalidParameter(f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}") from None


def load_state(path: str) -> Union[DensityMatrix, Distribution]:
    """Parse a JSON state file into a density matrix or a distribution, checking
    JSON structure only: the constructors' readers in `linalg` check the numbers."""
    try:
        obj = json.loads(_read_text(path))
    except RecursionError:
        raise InvalidParameter(f"{path} nests JSON arrays or objects too deeply") from None
    if not isinstance(obj, dict):
        raise QInflateError("a state file must hold a JSON object")
    for key in ("kind", "data"):
        if key not in obj:
            raise QInflateError(f"state file is missing the {key!r} field")
    kind, data = obj["kind"], obj["data"]
    if kind == "family":
        if not isinstance(data, dict):
            raise QInflateError("family 'data' must be an object")
        name = data.get("family_name")
        if not isinstance(name, str) or name not in FAMILIES:
            raise QInflateError(f"unknown family {name!r}; known: {sorted(FAMILIES)}")
        params = data.get("params", {})
        if not isinstance(params, dict):
            raise QInflateError("family 'params' must be an object")
        params = {k: _checked_array(v, float, f"family parameter {k!r}") for k, v in params.items()}
        if any(a.ndim != (k == "alphas") for k, a in params.items()):
            raise QInflateError("family 'params' must map each name to a number ('alphas' to a list)")
        try:
            return FAMILIES[name](params)
        except KeyError as exc:
            raise QInflateError(f"family {name!r} needs the parameter {exc.args[0]!r}") from None
    entries = obj.get("layout")
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise QInflateError("a state file's 'layout' must be a list of {'label', 'dim'} objects")
    dims = _checked_dims((e.get("dim") for e in entries), "layout 'dim' values")
    layout = SubsystemLayout(dims, tuple(e.get("label") for e in entries))
    if kind == "distribution":
        # Cuts address a distribution's variables by axis as A, B, C, ... (the
        # labels save_state writes), so other labels are refused, not misread.
        labels = axis_labels(len(dims))
        if layout.labels != labels:
            raise QInflateError(
                f"distribution layout labels {layout.labels} must be {labels} in axis order"
            )
        probs = _checked_array(data, float, "distribution 'data'")
        if probs.ndim != 1:
            raise QInflateError("distribution 'data' must be a flat list of numbers")
        return Distribution(dims, probs)
    if kind in ("pure", "mixed"):
        what = f"{kind} 'data' of [re, im] pairs"
        pairs = _checked_array(data, float, what)
        if pairs.shape[-1:] != (2,) or pairs.ndim != (2 if kind == "pure" else 3):
            shape = "a list" if kind == "pure" else "a matrix"
            raise QInflateError(f"{kind} 'data' must be {shape} of [re, im] pairs")
        z = pairs.view(complex).reshape(pairs.shape[:-1])
        if kind == "pure":
            return PureState(layout, z).to_density()
        return DensityMatrix(HermitianOperator(layout, z))
    raise QInflateError(f"unknown kind {kind!r}; expected pure/mixed/distribution/family")


def save_state(obj: Union[DensityMatrix, Distribution, PureState], path: str) -> None:
    """Write a state or distribution as a JSON state file (round-trip exact)."""
    if isinstance(obj, Distribution):
        dims = obj.outcome_dims
        labels = axis_labels(len(dims))
        kind, data = "distribution", obj.probs.tolist()
    else:
        dims, labels = obj.layout.dims, obj.layout.labels
        if isinstance(obj, PureState):
            kind, data = "pure", _pairs_out(obj.amplitudes)
        else:
            kind, data = "mixed", _pairs_out(obj.entries)
    doc = {
        "layout": [{"label": s, "dim": d} for s, d in zip(labels, dims)],
        "kind": kind,
        "data": data,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# SVG line chart


def render_svg(
    series: dict[str, list[tuple[float, float]]], title: str, xlabel: str, ylabel: str
) -> str:
    """Minimal 640x420 multi-series line chart: axes, polylines, labels, zero line."""
    width, height, pad = 640, 420, 60
    xs = [x for pts in series.values() for x, _ in pts]
    ys = [y for pts in series.values() for _, y in pts]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys + [0.0]), max(ys + [0.0])
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0

    def px(x: float) -> float:
        return pad + (x - x0) / (x1 - x0) * (width - 2 * pad)

    def py(y: float) -> float:
        return height - pad - (y - y0) / (y1 - y0) * (height - 2 * pad)

    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width/2:.0f}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<line x1="{pad}" y1="{height-pad}" x2="{width-pad}" y2="{height-pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height-pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{py(0.0):.1f}" x2="{width-pad}" y2="{py(0.0):.1f}" '
        'stroke="#999" stroke-dasharray="4 3"/>',
        f'<text x="{width/2:.0f}" y="{height-15}" text-anchor="middle" font-size="12">{xlabel}</text>',
        f'<text x="18" y="{height/2:.0f}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 18 {height/2:.0f})">{ylabel}</text>',
        f'<text x="{pad}" y="{height-pad+16}" font-size="10" text-anchor="middle">{x0:.3g}</text>',
        f'<text x="{width-pad}" y="{height-pad+16}" font-size="10" text-anchor="middle">{x1:.3g}</text>',
        f'<text x="{pad-6}" y="{py(y0)+4:.1f}" font-size="10" text-anchor="end">{y0:.3g}</text>',
        f'<text x="{pad-6}" y="{py(y1)+4:.1f}" font-size="10" text-anchor="end">{y1:.3g}</text>',
    ]
    for k, (name, pts) in enumerate(series.items()):
        color = colors[k % len(colors)]
        coords = " ".join(f"{px(x):.1f},{py(y):.1f}" for x, y in sorted(pts))
        parts.append(f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        parts.append(
            f'<text x="{width-pad+4}" y="{pad+14*k+10}" font-size="11" fill="{color}">{name}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# Commands


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def cmd_witness(args: argparse.Namespace) -> int:
    state = load_state(args.state)
    cut_names = list(CUTS) if args.cut == "all" else [args.cut]
    tol = args.tol
    results = []
    any_witnessed = False
    for name in cut_names:
        if isinstance(state, Distribution):
            tensor = cut_witness_classical(state, CUTS[name])
            v = verdict(tensor, tol)
            spectrum = sorted(float(x) for x in tensor.reshape(-1))
        else:
            w = cut_witness_quantum(state, CUTS[name])
            # read first, so that the verdict decides on it, unfactorised
            spectrum = [float(x) for x in w.spectrum.eigenvalues]
            v = verdict(w, tol)
        any_witnessed = any_witnessed or v.witnessed
        entry: dict[str, Any] = {
            "cut": name,
            "verdict": v.status,
            "min_value": spectrum[0],
            "spectrum": spectrum,
        }
        if v.evidence is not None and v.evidence.outcome is not None:
            entry["outcome"] = list(v.evidence.outcome)
        if v.evidence is not None and v.evidence.vector is not None:
            # the evidence eigenvector, on the alphabetically sorted labels
            entry["vector"] = _pairs_out(v.evidence.vector)
        results.append(entry)
    if args.format == "json":
        print(json.dumps({"state": args.state, "results": results}, indent=2))
    else:
        for entry in results:
            print(f"cut {entry['cut']}: {entry['verdict']} (min {_fmt(entry['min_value'])})")
            if "outcome" in entry:
                print(f"  witnessing outcome: {tuple(entry['outcome'])}")
    return 2 if any_witnessed else 0


def _parse_grid(spec: str) -> np.ndarray:
    try:
        start, stop, count = spec.split(":")
        ends = float(start), float(stop)
        if int(count) >= 1 and np.isfinite(ends).all():
            return np.linspace(*ends, int(count))
    except ValueError:
        pass
    raise QInflateError(f"grid must be start:stop:count with finite ends and count >= 1, got {spec!r}")


#: Closed-form sweep families: each one's parameter name in `FAMILIES` and
#: its witness spectra.
CLOSED_FORM_SWEEPS = {
    "werner_ghz": ("p", werner_ghz_eigs),
    "werner_w": ("p", werner_w_eigs),
    "toth_acin": ("c", toth_acin_eigs),
}


def cmd_sweep(args: argparse.Namespace) -> int:
    grid = _parse_grid(args.grid)
    lines = []
    series: dict[str, list[tuple[float, float]]] = {}
    if args.family == "tri_bell":
        seed = 0 if args.seed is None else args.seed
        restarts = 16 if args.restarts is None else args.restarts
        rows = sweep_tri_bell(grid, restarts=restarts, rng=np.random.default_rng(seed))
        lines.append("amplitude,min_eig,iota_tilde,iota_upper,converged")
        for r in rows:
            lines.append(
                f"{_fmt(r.amplitude)},{_fmt(r.min_eig)},{_fmt(r.iota_tilde)},"
                f"{_fmt(r.iota_upper)},{str(r.converged).lower()}"
            )
        series = {
            "min_eig": [(r.amplitude, r.min_eig) for r in rows],
            "iota_tilde": [(r.amplitude, r.iota_tilde) for r in rows],
            "iota_upper": [(r.amplitude, r.iota_upper) for r in rows],
        }
        xlabel = "amplitude"
    else:
        for flag in ("seed", "restarts"):
            if getattr(args, flag) is not None:
                raise QInflateError(f"--{flag} applies to tri_bell only: {args.family} is closed-form")
        name, closed = CLOSED_FORM_SWEEPS[args.family]
        # every grid point's state first, so that a parameter with no state is
        # refused before any row is printed
        for p in grid:
            try:
                FAMILIES[args.family]({name: float(p)})
            except QInflateError as exc:
                raise QInflateError(f"{args.family} has no state at {name}={_fmt(p)}: {exc}") from None
        lines.append("parameter,min_eig")
        pts = []
        for p in grid:
            lo = float(closed(float(p))[0])
            lines.append(f"{_fmt(p)},{_fmt(lo)}")
            pts.append((float(p), lo))
        series = {"min_eig": pts}
        xlabel = "parameter"
    csv = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(csv)
    else:
        sys.stdout.write(csv)
    if args.svg:
        with open(args.svg, "w") as fh:
            fh.write(render_svg(series, f"{args.family} sweep", xlabel, "value"))
    return 0


def cmd_dag(args: argparse.Namespace) -> int:
    gp = parse_dag(_read_text(args.inflated))
    g = parse_dag(_read_text(args.original)) if args.original else build_triangle()
    if args.action == "check":
        infl = is_inflation(gp, g)
        nonfan = is_nonfanout(gp, g) if infl else False
        print(f"inflation: {'yes' if infl else 'no'}, nonfanout: {'yes' if nonfan else 'no'}")
        return 0
    rep = injectable_sets(gp, g)
    for s, img in zip(rep.sets, rep.images):
        print("{" + ",".join(s) + "} -> {" + ",".join(img) + "}")
    return 0


def cmd_reproduce(args: argparse.Namespace) -> int:
    rng_seed = args.seed
    if args.claim == "all":
        results = run_all(rng_seed)
    else:
        if args.claim not in CLAIMS:
            raise QInflateError(f"unknown claim {args.claim!r}; known: {', '.join(CLAIMS)} or all")
        results = [run_claim(args.claim, np.random.default_rng(rng_seed))]
    all_ok = True
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        all_ok = all_ok and res.passed
        print(f"{res.claim_id} [{status}] {res.description}")
        for row in res.rows:
            mark = "ok" if row.passed else "FAIL"
            print(
                f"  {mark:4s} {row.name}: expected {_fmt(row.expected)}, "
                f"got {_fmt(row.recomputed)}, delta {row.delta:.3e} (tol {row.tol:g})"
            )
    return 0 if all_ok else 1


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        # argparse exits 2, which here means witnessed: a usage error is 1
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _seed(text: str) -> int:
    """A `--seed`: numpy's generators take integers >= 0 only."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"seed must be an integer >= 0, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qinflate",
        description="Triangle-network incompatibility witnesses and analyses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pw = sub.add_parser("witness", help="evaluate cut witnesses on a state file")
    pw.add_argument("state", help="path to a JSON state file")
    pw.add_argument("--cut", choices=[*CUTS, "all"], default="all")
    pw.add_argument("--format", choices=["text", "json"], default="text")
    pw.add_argument("--tol", type=float, default=VERDICT_TOL,
                    help="negativity threshold for a witnessed verdict")
    pw.set_defaults(fn=cmd_witness)

    ps = sub.add_parser("sweep", help="sweep a one-parameter family to CSV/SVG")
    ps.add_argument("family", choices=["tri_bell", *CLOSED_FORM_SWEEPS])
    ps.add_argument("--grid", required=True,
                    help="start:stop:count; write a negative start as --grid=START:STOP:COUNT")
    ps.add_argument("--out", help="CSV output path (default: stdout)")
    ps.add_argument("--svg", help="optional SVG chart path")
    ps.add_argument("--seed", type=_seed, help="tri_bell only (default: 0)")
    ps.add_argument("--restarts", type=int, help="tri_bell only (default: 16)")
    ps.set_defaults(fn=cmd_sweep)

    pd = sub.add_parser("dag", help="check inflations and list injectable sets")
    pd.add_argument("action", choices=["check", "injectables"])
    pd.add_argument("inflated", help="path to the candidate inflation DAG file")
    pd.add_argument("original", nargs="?",
                    help="path to the original DAG file (default: the triangle)")
    pd.set_defaults(fn=cmd_dag)

    pr = sub.add_parser("reproduce", help="recompute recorded numerical claims")
    pr.add_argument("claim", nargs="?", default="all", help="claim id (e.g. AC-3) or 'all'")
    pr.add_argument("--seed", type=_seed, default=0)
    pr.set_defaults(fn=cmd_reproduce)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (QInflateError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
