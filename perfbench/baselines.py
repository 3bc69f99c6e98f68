"""Untraced timings of the layer baselines named in ROADMAP.md.

    python3 perfbench/baselines.py --blas-threads 1

On one seeded three-qubit (8x8) mixed state it times `cut_witness_quantum`,
`hall_delta(marginals_of(rho))` and numpy's `eigh` of the 8x8 matrix. Each
round times a batch of calls; the script prints the best and the median
round, per call. The thread count must be fixed before numpy is imported,
which is why it is an argument of this script rather than a setting.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROUNDS = 30
CALLS_PER_ROUND = 50


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--blas-threads", type=int, required=True)
    args = parser.parse_args()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(args.blas_threads)
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import numpy as np

    from qinflate import linalg, witness

    rng = np.random.default_rng(0)
    g = rng.standard_normal((8, 4)) + 1j * rng.standard_normal((8, 4))
    m = g @ g.conj().T
    layout = linalg.SubsystemLayout((2, 2, 2), ("A", "B", "C"))
    rho = linalg.DensityMatrix(linalg.HermitianOperator(layout, m / np.trace(m).real))
    cases = {
        "cut_witness_quantum (8x8)": lambda: witness.cut_witness_quantum(rho, ("A", "B")),
        "hall_delta(marginals_of) (8x8)": lambda: witness.hall_delta(witness.marginals_of(rho)),
        "numpy eigh (8x8)": lambda: np.linalg.eigh(rho.entries),
    }
    print(f"BLAS threads {args.blas_threads}; {ROUNDS} rounds of {CALLS_PER_ROUND} calls")
    for name, fn in cases.items():
        fn()
        rounds = []
        for _ in range(ROUNDS):
            t0 = perf_counter()
            for _ in range(CALLS_PER_ROUND):
                fn()
            rounds.append((perf_counter() - t0) / CALLS_PER_ROUND * 1e6)
        print(f"{name:32s} best {min(rounds):9.2f} us   median {statistics.median(rounds):9.2f} us")
    return 0


if __name__ == "__main__":
    sys.exit(main())
