"""Registry of reproducible numerical claims with reference values.

Each claim recomputes a published figure-of-merit from scratch and compares
it against the recorded reference at a stated tolerance. The CLI `reproduce`
command and the acceptance test suite both consume this registry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .dag import (
    build_cut_inflation,
    build_triangle,
    injectable_sets,
    is_inflation,
    is_nonfanout,
    marginal_independent_pairs,
)
from .errors import QInflateError
from .linalg import (
    SubsystemLayout,
    min_eigenvalue,
    partial_transpose,
)
from .opt import iota_tilde_crossing, ppt_min, sweep
from .states import (
    LocalBasis,
    ghz_distn,
    ghz_state,
    is_biseparable_pure,
    measure_local,
    nu_decomposition,
    omega_example,
    qutrit_pair,
    random_density_matrix,
    random_pure_state,
    schmidt224,
    toth_acin_operator,
    tri_bell,
    tri_bell_t_from_amplitude,
    w_distn,
    w_state,
    white_noise_mixture,
    z3_twirl,
)
from .witness import (
    QUTRIT_MIXED_REFERENCE,
    cut_witness_classical,
    cut_witness_quantum,
    fidelity_witness,
    hall_delta,
    marginals_of,
    pure_delta_structure,
    supp_ker_test,
    toth_acin_eigs,
    tri_bell_cubic,
    tri_bell_eigs,
    verdict,
    werner_ghz_eigs,
    werner_thresholds,
    werner_w_eigs,
)

T_STAR = 2 / 0.19  # tri-Bell parameter with leading amplitude 0.9
AC9_RESTARTS = 16  # product-search restarts per AC-9 grid point

# Reference 8x8 witness matrix for the tri-Bell state at amplitude 0.9,
# rounded to the precision it is usually quoted at.
TRI_BELL_REFERENCE_MATRIX = np.array(
    [
        [0.73305, 0, 0, 0, 0, 0.277399, 0, 0],
        [0, 0.01805, 0.095, 0, 0, 0, 0, 0],
        [0, 0.095, 0.17195, 0, 0, 0, 0, 0.277399],
        [0, 0, 0, 0.07695, 0, 0, 0, 0],
        [0, 0, 0, 0, 0.07695, 0, 0, 0],
        [0.277399, 0, 0, 0, 0, 0.17195, 0.095, 0],
        [0, 0, 0, 0, 0, 0.095, 0.01805, 0],
        [0, 0, 0.277399, 0, 0, 0, 0, 0.73305],
    ]
)

OMEGA_REFERENCE_CLUSTERS = (-0.0195072, 0.0351218, 0.195995, 0.78839)


@dataclass(frozen=True)
class CheckRow:
    """One reference-vs-recomputed comparison inside a claim."""

    name: str
    expected: float
    recomputed: float
    tol: float

    @property
    def delta(self) -> float:
        return abs(self.recomputed - self.expected)

    @property
    def passed(self) -> bool:
        return self.delta <= self.tol


@dataclass(frozen=True)
class ClaimResult:
    """Aggregated result of one claim."""

    claim_id: str
    description: str
    rows: tuple[CheckRow, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)


def _row(name: str, expected: float, recomputed: float, tol: float) -> CheckRow:
    return CheckRow(name, float(expected), float(recomputed), float(tol))


def _bool_row(name: str, ok: bool) -> CheckRow:
    return CheckRow(name, 1.0, 1.0 if ok else 0.0, 0.0)


def claim_ac1(rng: np.random.Generator) -> list[CheckRow]:
    w = cut_witness_quantum(tri_bell(T_STAR).to_density(), ("A", "B"))
    # The reference matrix is recorded in a basis whose levels on qubit A are
    # swapped relative to our amplitude convention; undo that relabeling
    # (a local flip, invariant for every witness quantity) before comparing.
    idx = np.arange(8) ^ 4
    relabeled = w.entries[np.ix_(idx, idx)]
    rows = [
        _row("min eigenvalue", -0.0529889, w.min_eigenvalue(), 1e-5),
        _row("multiplicity of the minimum", 2, w.eigenvalue_clusters()[0][1], 0),
        _row(
            "max entrywise deviation from reference matrix",
            0.0,
            float(np.max(np.abs(relabeled - TRI_BELL_REFERENCE_MATRIX))),
            1e-5,
        ),
    ]
    return rows


def claim_ac2(rng: np.random.Generator) -> list[CheckRow]:
    ghz = cut_witness_classical(ghz_distn(), ("A", "B"))
    rows = [_row("GHZ entry at (0,0,1)", -0.25, ghz[0, 0, 1], 1e-12)]
    for cut in (("A", "B"), ("A", "C"), ("B", "C")):
        t = cut_witness_classical(w_distn(), cut)
        rows.append(_row(f"W distribution min entry, cut {cut[0]}{cut[1]}", 0.11111111111111112, float(t.min()), 1e-12))
    return rows


def claim_ac3(rng: np.random.Generator) -> list[CheckRow]:
    omega = omega_example()
    w = cut_witness_quantum(omega, ("A", "B"))
    clusters = w.eigenvalue_clusters(1e-5)
    rows = []
    for ref, (val, mult) in zip(OMEGA_REFERENCE_CLUSTERS, clusters):
        rows.append(_row(f"eigenvalue {ref}", ref, val, 1e-5))
        rows.append(_row(f"multiplicity at {ref}", 2, mult, 0))
    f_ghz, f_w, flagged = fidelity_witness(omega)
    rows.append(_row("GHZ fidelity", 0.209, f_ghz, 1e-6))
    rows.append(_row("W fidelity", 0.233333, f_w, 1e-6))
    rows.append(_bool_row("below both fidelity thresholds", not flagged))
    return rows


def claim_ac4(rng: np.random.Generator) -> list[CheckRow]:
    d = measure_local(w_state().to_density(), LocalBasis.pauli_x())
    t = cut_witness_classical(d, ("A", "B"))
    return [_row("X-basis entry at (+,+,-)", 1 / 12 - 1 / 6, t[0, 0, 1], 1e-10)]


def claim_ac5(rng: np.random.Generator) -> list[CheckRow]:
    rep = werner_thresholds()
    rows = [
        _row("GHZ noise threshold", 0.5, rep.ghz_threshold, 1e-6),
        _row("W noise threshold", 0.627, rep.w_threshold, 1e-3),
    ]
    dev = 0.0
    for p in np.linspace(0.05, 0.95, 7):
        wg = cut_witness_quantum(white_noise_mixture(ghz_state(), p), ("A", "B"))
        ww = cut_witness_quantum(white_noise_mixture(w_state(), p), ("A", "B"))
        dev = max(
            dev,
            float(np.max(np.abs(wg.spectrum.eigenvalues - werner_ghz_eigs(p)))),
            float(np.max(np.abs(ww.spectrum.eigenvalues - werner_w_eigs(p)))),
        )
    rows.append(_row("closed-form vs assembled spectrum deviation", 0.0, dev, 1e-9))
    return rows


def claim_ac6(rng: np.random.Generator) -> list[CheckRow]:
    rows = []
    for c in (-1.0, -0.5, 0.1, 0.5, 1.0):
        w = cut_witness_quantum(toth_acin_operator(c), ("A", "B"))
        dev = float(np.max(np.abs(w.spectrum.eigenvalues - toth_acin_eigs(c))))
        rows.append(_row(f"closed-form deviation at c={c}", 0.0, dev, 1e-9))
        rows.append(_bool_row(f"negative eigenvalue at c={c}", w.min_eigenvalue() < 0))
    w0 = cut_witness_quantum(toth_acin_operator(0.0), ("A", "B"))
    rows.append(_bool_row("nonnegative spectrum at c=0", w0.min_eigenvalue() >= -1e-12))
    return rows


def claim_ac7(rng: np.random.Generator) -> list[CheckRow]:
    cuts = (("A", "B"), ("A", "C"), ("B", "C"))
    spec_dev = twirl_dev = 0.0
    for p0 in np.linspace(0.0, 1.0, 5):
        for p1 in np.linspace(0.0, 1.0 - p0, 5):
            pure, mixed = qutrit_pair(p0, p1)
            for cut in cuts:
                spec = cut_witness_quantum(mixed, cut).spectrum.eigenvalues
                spec_dev = max(spec_dev, float(np.max(np.abs(spec - QUTRIT_MIXED_REFERENCE))))
            twirl = z3_twirl(pure.to_density())
            twirl_dev = max(twirl_dev, float(np.max(np.abs(twirl.entries - mixed.entries))))
    rho = qutrit_pair(0.5, 0.25)[0].to_density()
    lo = min(cut_witness_quantum(rho, cut).min_eigenvalue() for cut in cuts)
    return [
        _row("mixed spectra deviation over 5x5 grid", 0.0, spec_dev, 1e-9),
        _row("mixture equals the Z3 twirl over 5x5 grid", 0.0, twirl_dev, 1e-10),
        _row("pure-state eigenvalue at p0=2p1=0.5", -0.01348, lo, 1e-4),
    ]


def claim_ac8(rng: np.random.Generator) -> list[CheckRow]:
    worst = 0.0
    for _ in range(100):
        a0sq = rng.uniform(0.05, 0.9)
        a4sq = rng.uniform(0.0, 0.95 - a0sq)
        parts = rng.dirichlet(np.ones(3)) * (1.0 - a0sq - a4sq)
        alphas = np.sqrt([a0sq, 0.0, 0.0, 0.0, a4sq, *parts])
        psi = schmidt224(alphas, phi0=rng.uniform(0, 2 * np.pi), enforce_ordering=False)
        w = cut_witness_quantum(psi.to_density(), ("A", "C"))
        entry = float(np.real(w.entries[4, 4]))  # |010> in the (2,2,4) product basis
        closed = -a0sq * (1 - a0sq - a4sq)
        worst = max(worst, abs(entry - closed))
    return [_row("closed form vs assembled over 100 draws", 0.0, worst, 1e-9)]


def claim_ac9(rng: np.random.Generator) -> list[CheckRow]:
    grid = np.linspace(0.60, 0.95, 8)
    states = [tri_bell(tri_bell_t_from_amplitude(a)).to_density() for a in grid]
    rows_out = sweep(states, restarts=AC9_RESTARTS, rng=rng)
    sandwich_ok = all(r.iota_tilde <= r.iota_upper + 1e-6 for r in rows_out)
    converged_ok = all(r.converged for r in rows_out)
    crossing = iota_tilde_crossing(0.70, 0.95, iters=14)
    # constraint certificate on one representative minimizer
    w = cut_witness_quantum(tri_bell(T_STAR).to_density(), ("A", "B"))
    sdp = ppt_min(w)
    cert = min(
        min_eigenvalue(sdp.minimizer.op),
        *(
            min_eigenvalue(partial_transpose(sdp.minimizer.op, lab))
            for lab in ("A", "B", "C")
        ),
    )
    return [
        _row("certified-bound sign change (amplitude)", 0.82, crossing, 0.02),
        _bool_row("lower bound below product upper bound on every grid point", sandwich_ok),
        _bool_row("solver converged on every grid point", converged_ok),
        _row("worst constraint violation of the minimizer", 0.0, max(0.0, -cert), 1e-7),
    ]


def claim_ac10(rng: np.random.Generator) -> list[CheckRow]:
    rows = []
    # Positivity of Delta built from marginals of a genuine joint state.
    worst = np.inf
    for _ in range(1000):
        dims = tuple(int(d) for d in rng.integers(2, 4, size=3))
        lay = SubsystemLayout(dims, ("A", "B", "C"))
        rho = random_density_matrix(lay, rng)
        worst = min(worst, hall_delta(marginals_of(rho)).min_eigenvalue())
    rows.append(_bool_row("joint-marginal operator PSD over 1000 states", worst >= -1e-9))

    # Correlated pair marginals always have a negative difference eigenvalue:
    # rho_a (x) rho_b - rho_ab = nu_plus - nu_minus with nu_minus nonzero.
    lay2 = SubsystemLayout((2, 2, 2), ("A", "B", "C"))
    corr_ok = True
    for _ in range(1000):
        nu = nu_decomposition(random_density_matrix(lay2, rng), "A", "B")
        diff = nu.nu_plus.entries - nu.nu_minus.entries
        if np.linalg.norm(diff) > 1e-6 and not nu.nu_minus.entries.any():
            corr_ok = False
    rows.append(_bool_row("non-product marginal implies negative eigenvalue (1000 states)", corr_ok))

    # Non-biseparable pure states are always witnessed. The support/kernel
    # criterion is one-sided: whenever it fires, the same cut must carry a
    # negative eigenvalue (it does not fire for every entangled state; the
    # W state is a counterexample where all three intersections are empty).
    fwd_ok = True
    sound_ok = True
    cuts = (("A", "B"), ("A", "C"), ("B", "C"))
    for _ in range(500):
        psi = random_pure_state(lay2, rng)
        if is_biseparable_pure(psi) is not None:
            continue
        rho = psi.to_density()
        if not any(verdict(cut_witness_quantum(rho, c)).witnessed for c in cuts):
            fwd_ok = False
        for c, fired in zip(cuts, supp_ker_test(rho, cuts)):
            if fired and not verdict(cut_witness_quantum(rho, c)).witnessed:
                sound_ok = False
    rows.append(_bool_row("every non-biseparable pure state witnessed (500 states)", fwd_ok))
    rows.append(_bool_row("support/kernel criterion sound whenever it fires", sound_ok))
    rows.append(_bool_row("support/kernel criterion fires on the GHZ state",
                          any(supp_ker_test(ghz_state().to_density(), cuts))))

    # Antiunitary structure of Delta for pure states: Delta = rho + the
    # spin-flip conjugate of rho (lay2 is in Delta's sorted label order).
    structure_ok = True
    for _ in range(500):
        psi = random_pure_state(lay2, rng)
        rho = psi.to_density()
        delta = hall_delta(marginals_of(rho))
        rank = int(np.sum(np.abs(delta.spectrum.eigenvalues) > 1e-8))
        dev = np.max(np.abs(delta.entries - (rho.entries + pure_delta_structure(psi).entries)))
        if rank > 2 or dev > 1e-9:
            structure_ok = False
    rows.append(_bool_row("rank <= 2 and antiunitary identity (500 pure states)", structure_ok))
    return rows


def claim_ac11(rng: np.random.Generator) -> list[CheckRow]:
    tri = build_triangle()
    ab = build_cut_inflation(("A", "B"))
    rows = [
        _bool_row("AB-cut is an inflation of the triangle", is_inflation(ab, tri)),
        _bool_row("AB-cut is nonfanout", is_nonfanout(ab, tri)),
    ]
    rep = injectable_sets(ab, tri)
    two = sorted(s for s in rep.sets if len(s) == 2)
    rows.append(_bool_row("two-node injectable sets are {A1,C1} and {B1,C1}",
                          two == [("A1", "C1"), ("B1", "C1")]))
    singles = sorted(s for s in rep.sets if len(s) == 1)
    rows.append(_bool_row("every singleton visible set injectable",
                          singles == [("A1",), ("B1",), ("C1",)]))
    rows.append(_bool_row("marginal independence exactly (A1,B1)",
                          marginal_independent_pairs(ab) == {("A1", "B1")}))
    return rows


def claim_ac12(rng: np.random.Generator) -> list[CheckRow]:
    rows = []
    prods_ok = all(
        tri_bell_cubic(t)[2] < 0 for t in np.linspace(2.01, 100.0, 60)
    )
    rows.append(_bool_row("product of cubic roots negative on (2, 100]", prods_ok))
    dev = 0.0
    for t in (3.0, 5.0, 10.0, 50.0):
        w = cut_witness_quantum(tri_bell(t).to_density(), ("A", "B"))
        dev = max(dev, float(np.max(np.abs(w.spectrum.eigenvalues - tri_bell_eigs(t)))))
    rows.append(_row("closed-form spectrum deviation for t in {3,5,10,50}", 0.0, dev, 1e-8))
    return rows


CLAIMS: dict[str, tuple[str, Callable[[np.random.Generator], list[CheckRow]]]] = {
    "AC-1": ("tri-Bell witness at amplitude 0.9: matrix and spectrum", claim_ac1),
    "AC-2": ("classical GHZ / W distribution cut inequalities", claim_ac2),
    "AC-3": ("mixed-state example: spectrum and fidelities", claim_ac3),
    "AC-4": ("W state in the X basis is distribution-witnessed", claim_ac4),
    "AC-5": ("white-noise thresholds for GHZ and W", claim_ac5),
    "AC-6": ("Pauli-diagonal c-family closed-form spectra", claim_ac6),
    "AC-7": ("qutrit superposition/mixture witness spectra", claim_ac7),
    "AC-8": ("qubit-qubit-ququart diagonal witness entry", claim_ac8),
    "AC-9": ("relaxation sweep: crossing, sandwich, certificates", claim_ac9),
    "AC-10": ("property batches: positivity, correlation, pure-state structure", claim_ac10),
    "AC-11": ("cut inflation combinatorics", claim_ac11),
    "AC-12": ("cubic-root sign argument and closed-form spectrum", claim_ac12),
}


def run_claim(claim_id: str, rng: Optional[np.random.Generator] = None) -> ClaimResult:
    """Recompute one claim; raises KeyError for unknown ids.

    A claim that raises a QInflateError fails with one row naming the error.
    """
    description, fn = CLAIMS[claim_id]
    if rng is None:
        rng = np.random.default_rng(0)
    try:
        rows = tuple(fn(rng))
    except QInflateError as exc:
        rows = (_bool_row(f"raised {type(exc).__name__}: {exc}", False),)
    return ClaimResult(claim_id, description, rows)


def run_all(seed: int = 0) -> list[ClaimResult]:
    """Recompute every claim with a fresh seeded generator per claim."""
    return [run_claim(cid, np.random.default_rng(seed)) for cid in CLAIMS]
