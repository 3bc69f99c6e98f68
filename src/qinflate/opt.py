"""Distribution-witnessability analysis for cut witnesses.

Two bounds on the minimum of <phi chi psi| W |phi chi psi> over product unit
vectors: a multi-start Nelder-Mead search (upper bound) and the convex
relaxation over states with positive partial transpose on every single
subsystem (lower bound), solved by consensus-splitting ADMM. A strictly
positive relaxation value proves that no local product-basis measurement can
expose the incompatibility through the classical cut inequality.

scipy is imported on the first product search (`product_min`, and through it
`sweep_tri_bell`), not when this module is imported, so `import qinflate` and
every other computation need numpy alone.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError
from .linalg import DensityMatrix, HermitianOperator, _partial_transpose
from .states import LocalBasis, tri_bell, tri_bell_t_from_amplitude
from .witness import WitnessOperator, cut_witness_quantum

ADMM_PENALTY = 1.0
ADMM_MAX_ITER = 20000
ADMM_TOL = 1e-7
DEFAULT_RESTARTS = 64


def _load_minimize():
    from scipy.optimize import minimize

    globals()["minimize"] = minimize
    return minimize


def __getattr__(name: str):
    # `opt.minimize` stays a module attribute, bound on first use; product_min
    # calls whatever is bound to it then, a counting wrapper for instance.
    if name == "minimize":
        return _load_minimize()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class SdpResult:
    """Outcome of the PPT-relaxation minimization."""

    value: float
    minimizer: DensityMatrix
    primal_residual: float
    dual_residual: float
    iterations: int
    converged: bool


@dataclass(frozen=True)
class ProductSearchResult:
    """Best product-vector value found by multi-start local search."""

    value: float
    bases: LocalBasis
    restarts_used: int


def _psd_clip(m: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh((m + m.conj().T) / 2)
    vals = np.maximum(vals, 0.0)
    return (vecs * vals) @ vecs.conj().T


def ppt_min(w: WitnessOperator) -> SdpResult:
    """Minimize Tr[rho W] over unit-trace states PSD under every single-subsystem
    partial transpose.

    Consensus ADMM: one local variable per cone (plain PSD plus one per
    partial transpose), each updated by eigenvalue clipping; the consensus
    variable absorbs the linear objective and the trace constraint. Stops
    when both residuals fall below 1e-7, or returns converged=False at the
    iteration cap.
    """
    layout = w.layout
    if layout.n_subsystems != 3 or layout.total_dim > 16:
        raise DomainError("relaxation covers three subsystems of total dimension <= 16")
    d = layout.total_dim
    wm = w.entries
    dims = layout.dims
    pt_axes = [None, 0, 1, 2]
    n_cones = len(pt_axes)
    rho_pen = ADMM_PENALTY

    def project(i: int, m: np.ndarray) -> np.ndarray:
        ax = pt_axes[i]
        if ax is None:
            return _psd_clip(m)
        return _partial_transpose(_psd_clip(_partial_transpose(m, dims, ax)), dims, ax)

    z = np.eye(d, dtype=complex) / d
    xs = [z.copy() for _ in range(n_cones)]
    us = [np.zeros((d, d), dtype=complex) for _ in range(n_cones)]
    primal = dual = np.inf
    it = 0
    for it in range(1, ADMM_MAX_ITER + 1):
        xs = [project(i, z - us[i]) for i in range(n_cones)]
        avg = sum(x + u for x, u in zip(xs, us)) / n_cones
        h = avg - wm / (n_cones * rho_pen)
        h = (h + h.conj().T) / 2
        z_new = h - (np.trace(h).real - 1.0) / d * np.eye(d)
        dual = rho_pen * np.sqrt(n_cones) * float(np.linalg.norm(z_new - z))
        z = z_new
        us = [u + x - z for u, x in zip(us, xs)]
        primal = float(np.sqrt(sum(np.linalg.norm(x - z) ** 2 for x in xs)))
        if max(primal, dual) < ADMM_TOL:
            break
    converged = max(primal, dual) < ADMM_TOL
    # Feasible representative: clip the consensus point onto the PSD cone and
    # renormalize, so the reported value is reproducible from the minimizer.
    m = _psd_clip(z)
    m /= np.trace(m).real
    minimizer = DensityMatrix(HermitianOperator(layout, m))
    value = float(np.real(np.trace(m @ wm)))
    return SdpResult(value, minimizer, primal, dual, it, converged)


def _unit_vector(params: np.ndarray, dim: int) -> np.ndarray:
    """Complex unit vector from d-1 polar angles and d-1 component phases.

    The first component is real; component k >= 1 carries phase phis[k-1].
    """
    if dim == 1:
        return np.ones(1, dtype=complex)
    # Python-scalar math: the same bits as numpy's scalar ufuncs here, at a
    # fraction of their per-call cost on vectors of two to six entries.
    p = params.tolist()
    thetas, phis = p[: dim - 1], p[dim - 1 :]
    v = []
    r = 1.0
    for k in range(dim - 1):
        c = r * math.cos(thetas[k])
        v.append(c * cmath.exp(1j * phis[k - 1]) if k >= 1 else c)
        r *= math.sin(thetas[k])
    v.append(r * cmath.exp(1j * phis[dim - 2]))
    return np.array(v, dtype=complex)


def _complete_basis(v: np.ndarray) -> np.ndarray:
    """Unitary whose first column is v, completed by the eigenvectors of 1 - vv+."""
    d = v.shape[0]
    proj = np.eye(d, dtype=complex) - np.outer(v, v.conj())
    _, vecs = np.linalg.eigh(proj)
    return np.column_stack([v, vecs[:, 1:]])


def product_min(w: WitnessOperator, restarts: int = DEFAULT_RESTARTS,
                rng: np.random.Generator | None = None) -> ProductSearchResult:
    """Multi-start minimization of the witness over product unit vectors.

    Flipping any local vector to an orthogonal partner only permutes the
    outcome tensor of the induced distribution, so minimizing the (0,0,0)
    entry minimizes over all outcomes; the result is an upper bound on the
    true product minimum.
    """
    layout = w.layout
    if layout.n_subsystems != 3:
        raise DomainError("product search covers three subsystems")
    if rng is None:
        rng = np.random.default_rng()
    dims = layout.dims
    ends = np.cumsum([2 * (d - 1) for d in dims]).tolist()
    spans = list(zip([0] + ends[:-1], ends, dims))
    wm = w.entries

    def objective(params: np.ndarray) -> float:
        vec = None
        for lo, hi, d in spans:
            u = _unit_vector(params[lo:hi], d)
            # the products np.kron(vec, u) forms, without its generic set-up
            vec = u if vec is None else (vec[:, None] * u[None, :]).reshape(-1)
        return float(np.real(vec.conj() @ wm @ vec))

    search = globals().get("minimize") or _load_minimize()
    best_val = np.inf
    best_params = None
    for _ in range(int(restarts)):
        x0 = rng.uniform(0, np.pi, ends[-1])
        res = search(objective, x0, method="Nelder-Mead",
                     options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 4000})
        if res.fun < best_val:
            best_val = float(res.fun)
            best_params = res.x
    mats = tuple(
        _complete_basis(_unit_vector(best_params[lo:hi], d)) for lo, hi, d in spans
    )
    return ProductSearchResult(best_val, LocalBasis(mats), int(restarts))


@dataclass(frozen=True)
class SweepRow:
    """One grid point of the tri-Bell amplitude sweep."""

    amplitude: float
    min_eig: float
    iota_tilde: float
    iota_upper: float
    converged: bool


def _tri_bell_witness(a: float) -> WitnessOperator:
    t = tri_bell_t_from_amplitude(a)
    return cut_witness_quantum(tri_bell(max(t, 3.0)).to_density(), ("A", "B"))


def sweep_tri_bell(
    grid: Sequence[float],
    restarts: int = DEFAULT_RESTARTS,
    rng: np.random.Generator | None = None,
) -> list[SweepRow]:
    """Evaluate min eigenvalue, relaxation value, and product upper bound on a
    grid of tri-Bell amplitudes in [1/sqrt(3), 1)."""
    if rng is None:
        rng = np.random.default_rng()
    rows = []
    for a in grid:
        a = float(a)
        if not (1 / np.sqrt(3) - 1e-9 <= a < 1):
            raise DomainError(f"amplitude {a} outside [1/sqrt(3), 1)")
        w = _tri_bell_witness(a)
        sdp = ppt_min(w)
        prod = product_min(w, restarts, rng)
        rows.append(
            SweepRow(a, w.min_eigenvalue(), sdp.value, prod.value, sdp.converged)
        )
    return rows


def iota_tilde_crossing(lo: float = 0.70, hi: float = 0.95, iters: int = 12) -> float:
    """Bisect the sign change of the relaxation value over the amplitude axis."""
    f_lo = ppt_min(_tri_bell_witness(lo)).value
    f_hi = ppt_min(_tri_bell_witness(hi)).value
    if not (f_lo < 0 < f_hi):
        raise DomainError(
            f"no sign change on [{lo}, {hi}]: values ({f_lo:.3e}, {f_hi:.3e})"
        )
    for _ in range(iters):
        mid = (lo + hi) / 2
        if ppt_min(_tri_bell_witness(mid)).value < 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2
