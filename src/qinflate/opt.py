"""Distribution-witnessability analysis for cut witnesses.

Two bounds on the minimum of <phi chi psi| W |phi chi psi> over product unit
vectors: a multi-start Nelder-Mead search (upper bound) and the convex
relaxation over states with positive partial transpose on every single
subsystem (lower bound), solved by consensus-splitting ADMM. A strictly
positive relaxation value proves that no local product-basis measurement can
expose the incompatibility through the classical cut inequality.

The ADMM keeps its four cone variables (plain PSD, then PSD under the
partial transpose of each factor) and their scaled duals as one (4, d, d)
stack. A partial transpose is an index permutation, so one precomputed
gather maps the stack into the cones' frames and back, around a single
batched eigendecomposition per iteration; every sum over the cones runs in
cone order, so the result is the same, bit for bit, as projecting one cone
at a time. A real witness (every tri-Bell one) is solved in real arithmetic:
partial transposes keep real symmetric matrices real symmetric, and rho and
its transpose are feasible with the same value. `SdpResult.certified_lower`
is a weak-duality bound from the final duals: up to rounding, at most the
relaxation's true minimum, whether or not the iteration converged.

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
from .linalg import DensityMatrix, HermitianOperator, _is_int, _partial_transpose, min_eigenvalue
from .states import LocalBasis, tri_bell, tri_bell_t_from_amplitude
from .witness import WitnessOperator, _bisect_crossing, cut_witness_quantum

ADMM_PENALTY = 1.0
ADMM_MAX_ITER = 20000
ADMM_TOL = 1e-7


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
    certified_lower: float


@dataclass(frozen=True)
class ProductSearchResult:
    """Best product-vector value found by multi-start local search."""

    value: float
    bases: LocalBasis
    restarts_used: int


def _psd_clip(m: np.ndarray) -> np.ndarray:
    """Hermitian part of m, or of each matrix of a stack, with negative
    eigenvalues set to zero."""
    vals, vecs = np.linalg.eigh((m + m.conj().swapaxes(-1, -2)) / 2)
    vals = np.maximum(vals, 0.0)
    return (vecs * vals[..., None, :]) @ vecs.conj().swapaxes(-1, -2)


def _cone_gather_index(dims: tuple[int, ...]) -> np.ndarray:
    """Flat indices into a (4, d, d) stack: entry k of the gather is T_k of row k.

    T_0 is the identity and T_k, k >= 1, transposes factor k - 1. Each T_k is
    an index permutation and an involution, so one gather maps the stack to
    its images under the T_k and the same gather maps it back.
    """
    d = math.prod(dims)
    flat = np.arange(d * d).reshape(d, d)
    rows = [flat] + [_partial_transpose(flat, dims, ax) for ax in range(len(dims))]
    return np.stack(rows) + d * d * np.arange(len(rows))[:, None, None]


def ppt_min(w: WitnessOperator) -> SdpResult:
    """Minimize Tr[rho W] over unit-trace states PSD under every single-subsystem
    partial transpose.

    Consensus ADMM: one local variable per cone (plain PSD plus one per
    partial transpose), each updated by eigenvalue clipping; the consensus
    variable absorbs the linear objective and the trace constraint. Stops
    when both residuals fall below 1e-7, or returns converged=False at the
    iteration cap. `certified_lower` is the dual bound built from the final
    scaled duals, valid whether or not the solver converged.
    """
    layout = w.layout
    if layout.n_subsystems != 3 or layout.total_dim > 16:
        raise DomainError("relaxation covers three subsystems of total dimension <= 16")
    d = layout.total_dim
    wm = w.entries
    if not wm.imag.any():
        # A real witness keeps every iterate real: the partial transposes map
        # real symmetric matrices to real symmetric ones, and rho and its
        # transpose are both feasible with the same value.
        wm = np.ascontiguousarray(wm.real)
    gather = _cone_gather_index(layout.dims)
    n_cones = len(gather)
    rho_pen = ADMM_PENALTY

    def project(m: np.ndarray) -> np.ndarray:
        """Row k of the stack clipped onto cone k: T_k(clip(T_k(m_k)))."""
        return _psd_clip(m.take(gather)).take(gather)

    eye = np.eye(d)
    w_share = wm / (n_cones * rho_pen)
    z = np.eye(d, dtype=wm.dtype) / d
    us = np.zeros((n_cones, d, d), dtype=wm.dtype)
    primal = dual = np.inf
    it = 0
    for it in range(1, ADMM_MAX_ITER + 1):
        xs = project(z - us)
        # the builtin sum adds the cones in order, as every reduction here does
        avg = sum(xs + us) / n_cones
        h = avg - w_share
        h = (h + h.conj().T) / 2
        z_new = h - (np.trace(h).real - 1.0) / d * eye
        dual = rho_pen * np.sqrt(n_cones) * float(np.linalg.norm(z_new - z))
        z = z_new
        us = us + xs - z
        primal = float(np.sqrt(sum(np.linalg.norm(r) ** 2 for r in xs - z)))
        if max(primal, dual) < ADMM_TOL:
            break
    converged = max(primal, dual) < ADMM_TOL
    # Weak duality: for PSD P_k and y = lambda_min(W - sum_k T_k(P_k)), every
    # PPT state has Tr[rho W] >= y + sum_k Tr[T_k(rho) P_k] >= y. The scaled
    # duals, clipped, are the P_k that make y tight at the optimum. The
    # clipped duals are Hermitian up to rounding; (s + s+)/2 is exactly so.
    s = wm - sum(project(rho_pen * us))
    certified_lower = min_eigenvalue(HermitianOperator._trusted(layout, (s + s.conj().T) / 2))
    # Feasible representative: clip the consensus point onto the PSD cone and
    # renormalize, so the reported value is reproducible from the minimizer.
    m = _psd_clip(z)
    m /= np.trace(m).real
    minimizer = DensityMatrix(HermitianOperator(layout, m))
    value = float(np.real(np.trace(m @ wm)))
    return SdpResult(value, minimizer, primal, dual, it, converged, certified_lower)


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


def _checked_restarts(restarts: int) -> int:
    """`restarts` as an int: the product search needs an integer >= 1."""
    if not _is_int(restarts) or restarts < 1:
        raise DomainError(f"product search needs an integer restarts >= 1, got {restarts!r}")
    return int(restarts)


def product_min(w: WitnessOperator, restarts: int,
                rng: np.random.Generator) -> ProductSearchResult:
    """Multi-start minimization of the witness over product unit vectors.

    Flipping any local vector to an orthogonal partner only permutes the
    outcome tensor of the induced distribution, so minimizing the (0,0,0)
    entry minimizes over all outcomes; the result is an upper bound on the
    true product minimum.
    """
    layout = w.layout
    if layout.n_subsystems != 3:
        raise DomainError("product search covers three subsystems")
    restarts = _checked_restarts(restarts)
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
    for _ in range(restarts):
        x0 = rng.uniform(0, np.pi, ends[-1])
        res = search(objective, x0, method="Nelder-Mead",
                     options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 4000})
        if res.fun < best_val:
            best_val = float(res.fun)
            best_params = res.x
    mats = tuple(
        _complete_basis(_unit_vector(best_params[lo:hi], d)) for lo, hi, d in spans
    )
    return ProductSearchResult(best_val, LocalBasis(mats), restarts)


@dataclass(frozen=True)
class SweepRow:
    """One grid point of the tri-Bell amplitude sweep."""

    amplitude: float
    min_eig: float
    iota_tilde: float
    iota_upper: float
    converged: bool


def _tri_bell_witness(a: float) -> WitnessOperator:
    return cut_witness_quantum(tri_bell(tri_bell_t_from_amplitude(a)).to_density(), ("A", "B"))


def sweep_tri_bell(
    grid: Sequence[float], restarts: int, rng: np.random.Generator
) -> list[SweepRow]:
    """Evaluate min eigenvalue, relaxation value, and product upper bound on a
    grid of tri-Bell amplitudes in [1/sqrt(3), 1)."""
    _checked_restarts(restarts)
    # every witness first, so that a bad amplitude is refused before any solve
    points = [(a, _tri_bell_witness(a)) for a in grid]
    rows = []
    for a, w in points:
        sdp = ppt_min(w)
        prod = product_min(w, restarts, rng)
        rows.append(
            SweepRow(float(a), w.min_eigenvalue(), sdp.value, prod.value, sdp.converged)
        )
    return rows


def iota_tilde_crossing(lo: float = 0.70, hi: float = 0.95, iters: int = 12) -> float:
    """Bisect the sign change of the relaxation value over the amplitude axis."""
    if not _is_int(iters) or iters < 1:
        raise DomainError(f"the crossing needs an integer iters >= 1, got {iters!r}")
    f_lo = ppt_min(_tri_bell_witness(lo)).value
    f_hi = ppt_min(_tri_bell_witness(hi)).value
    if not (f_lo < 0 < f_hi):
        raise DomainError(
            f"no sign change on [{lo}, {hi}]: values ({f_lo:.3e}, {f_hi:.3e})"
        )
    return _bisect_crossing(lambda a: -ppt_min(_tri_bell_witness(a)).value, lo, hi, iters)
