"""Golden outputs: what the witnesses answer on a fixed set of inputs.

The inputs are the benchmark's scan recipe at seed 0, rebuilt here with numpy
alone (scan-small: local dimensions 2 and 3, eight states per shape and four
white-noise members; scan-large: local dimensions 4, 5 and 6, one state per
shape), every state-file family read through `load_state`, and the light
claims of `qinflate reproduce --seed 0` (AC-9 and AC-10 run in
`test_acceptance`). Recorded per state: each cut witness's minimum eigenvalue
and verdict, and Delta's minimum eigenvalue; per distribution: each classical
cut witness's minimum, its outcome and the verdict; per claim row: the
recomputed value and whether it passed.

`tests/test_golden.py` compares a fresh computation with `golden.json`.
Only `PYTHONPATH=src python tests/golden.py --write` rewrites that file;
without `--write` the script reports every difference and exits 1 on any.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from qinflate.cli import FAMILIES, load_state
from qinflate.linalg import DensityMatrix, HermitianOperator, SubsystemLayout
from qinflate.reproduce import CLAIMS, run_claim
from qinflate.states import Distribution
from qinflate.witness import (
    cut_witness_classical,
    cut_witness_quantum,
    hall_delta,
    marginals_of,
    verdict,
)

PATH = Path(__file__).with_name("golden.json")
#: Largest absolute difference accepted between a recorded and a fresh value.
TOL = 1e-12
SEED = 0
LABELS = ("A", "B", "C")
CUTS = {"AB": ("A", "B"), "AC": ("A", "C"), "BC": ("B", "C")}
#: Local dimensions, states per shape and white-noise members of each scan.
SCANS = {"scan-small": ((2, 3), 8, 4), "scan-large": ((4, 5, 6), 1, 0)}
HEAVY_CLAIMS = ("AC-9", "AC-10")
FAMILY_PARAMS = {
    "tri_bell": {"t": 5.0},
    "werner_ghz": {"p": 0.6},
    "werner_w": {"p": 0.7},
    "toth_acin": {"c": 0.5},
    "qutrit_pure": {"p0": 0.5, "p1": 0.25},
    "qutrit_mixed": {"p0": 0.5, "p1": 0.25},
    "schmidt224": {"alphas": np.sqrt([0.3] + [0.1] * 7).tolist(), "phi0": 0.3, "phi1": 1.1},
}


# The scan recipe of the benchmark's workloads, copied rather than imported so
# that the golden inputs stay fixed when the benchmark changes.


def _random_pure(rng: np.random.Generator, d: int) -> np.ndarray:
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


def _random_mixed(rng: np.random.Generator, d: int) -> np.ndarray:
    rank = int(rng.integers(2, d + 1))
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    m = g @ g.conj().T
    return m / np.trace(m).real


def _noisy(vector_entries: dict[int, float], p: float) -> np.ndarray:
    v = np.zeros(8, dtype=complex)
    for i, a in vector_entries.items():
        v[i] = a
    return p * np.outer(v, v.conj()) + (1 - p) / 8 * np.eye(8)


GHZ = {0: 1 / np.sqrt(2), 7: 1 / np.sqrt(2)}
W = {1: 1 / np.sqrt(3), 2: 1 / np.sqrt(3), 4: 1 / np.sqrt(3)}


def scan_inputs(seed: int, local_dims: tuple[int, ...], per_shape: int, noise_members: int):
    """The scan's states, as (dims, matrix), and its distributions, as (dims, probs)."""
    rng = np.random.default_rng([seed, 1])
    shapes = list(itertools.product(local_dims, repeat=3))
    states = []
    for dims in shapes:
        d = int(np.prod(dims))
        for _ in range(per_shape):
            make = _random_pure if rng.random() < 1 / 3 else _random_mixed
            states.append((dims, make(rng, d)))
    if (2, 2, 2) in shapes:
        for i in range(noise_members):
            p = float(rng.uniform(0.0, 1.0))
            states.append(((2, 2, 2), _noisy(GHZ if i % 2 == 0 else W, p)))
    dists = [(dims, rng.dirichlet(np.ones(int(np.prod(dims))))) for dims, _ in states]
    return states, dists


# ---------------------------------------------------------------------------
# Records


def quantum_record(rho: DensityMatrix) -> dict:
    """Per cut, the verdict (decided first, as the scan does) and the
    witness's minimum eigenvalue; then Delta's minimum eigenvalue."""
    record = {}
    for name, cut in CUTS.items():
        w = cut_witness_quantum(rho, cut)
        status = verdict(w).status
        record[name] = {"min": w.min_eigenvalue(), "verdict": status}
    record["delta_min"] = hall_delta(marginals_of(rho)).min_eigenvalue()
    return record


def classical_record(p: Distribution) -> dict:
    """Per cut, the classical witness's minimum, its outcome and the verdict."""
    record = {}
    for name, cut in CUTS.items():
        t = cut_witness_classical(p, cut)
        outcome = [int(i) for i in np.unravel_index(int(t.argmin()), t.shape)]
        record[name] = {"min": float(t.min()), "outcome": outcome, "verdict": verdict(t).status}
    return record


def _record(state) -> dict:
    return classical_record(state) if isinstance(state, Distribution) else quantum_record(state)


def compute() -> dict:
    """Every golden output, freshly computed."""
    out = {}
    for name, args in SCANS.items():
        states, dists = scan_inputs(SEED, *args)
        out[name] = {
            "states": [quantum_record(DensityMatrix(HermitianOperator(
                SubsystemLayout(dims, LABELS), m))) for dims, m in states],
            "distributions": [classical_record(Distribution(dims, p)) for dims, p in dists],
        }
    with tempfile.TemporaryDirectory() as tmp:
        families = {}
        for family in FAMILIES:
            path = Path(tmp) / f"{family}.json"
            data = {"family_name": family, "params": FAMILY_PARAMS.get(family, {})}
            path.write_text(json.dumps({"kind": "family", "data": data}))
            families[family] = _record(load_state(str(path)))
        out["families"] = families
    out["claims"] = {
        cid: [{"name": row.name, "recomputed": row.recomputed, "passed": row.passed}
              for row in run_claim(cid, np.random.default_rng(SEED)).rows]
        for cid in CLAIMS if cid not in HEAVY_CLAIMS
    }
    return out


def mismatches(expected, actual, where: str = "") -> list[str]:
    """Every place where `actual` differs from `expected`: a float by more
    than TOL, anything else (a verdict, an outcome, a key) at all."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        if expected.keys() != actual.keys():
            return [f"{where}: keys {sorted(expected)} != {sorted(actual)}"]
        return [m for k in expected for m in mismatches(expected[k], actual[k], f"{where}/{k}")]
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{where}: {len(expected)} entries != {len(actual)}"]
        return [m for i, (e, a) in enumerate(zip(expected, actual))
                for m in mismatches(e, a, f"{where}/{i}")]
    if isinstance(expected, float) and isinstance(actual, float):
        return [] if abs(expected - actual) <= TOL else [f"{where}: {expected!r} != {actual!r}"]
    return [] if expected == actual else [f"{where}: {expected!r} != {actual!r}"]


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help=f"rewrite {PATH.name}")
    args = parser.parse_args(argv)
    fresh = compute()
    if args.write:
        PATH.write_text(json.dumps(fresh, indent=1, sort_keys=True) + "\n")
        return 0
    found = mismatches(json.loads(PATH.read_text()), fresh)
    print("\n".join(found) or f"{PATH.name}: no differences")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
