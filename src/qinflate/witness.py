"""Incompatibility witnesses for the triangle network.

Builds the inclusion-exclusion operator Delta from subset marginals and the
cut witnesses I_xy, quantum and classical. I_xy is Delta on the marginals of
the cut inflation, where x and y share no source, so rho_xy becomes
rho_x (x) rho_y. Both are linear in the subset marginals, so both come from
the marginal map of every proper subset of the alphabetically sorted layout,
`linalg._MarginalMap`: its gather gives every marginal at once, and its
adjoint forms 1 + sum_S w_S rho_S (x) 1 in one scatter. Delta takes the
weights (-1)^|S|; I_xy takes -1 on x, y and z, +1 on xz and yz and 0 on xy,
and adds the product term rho_x (x) rho_y (x) 1 through `partial_trace`,
`kron` and `embed`, which read and write one-set maps of the same layout.
The classical cut witness is the diagonal of I_xy on the encoded
distribution, written out pointwise on the probability tensor.

`marginals_of` returns the marginals of one joint state as a read-only
mapping that keeps the map's flat vector, and `hall_delta` takes only that
mapping, feeding the vector straight to the adjoint. Also renders verdicts
and implements the structural checks used throughout: support/kernel
intersection, the antiunitary decomposition of Delta for pure three-qubit
states, fidelity flags, and the closed-form spectra of the named state
families.
"""

from __future__ import annotations

import functools
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Iterable, Optional, Union

import numpy as np

from .errors import (
    DimensionError,
    DomainError,
    InvalidParameter,
    OddCardinalityRequired,
    UnknownLabel,
)
from .linalg import (
    TRACE_TOL,
    VERDICT_TOL,
    DensityMatrix,
    HermitianOperator,
    Spectrum,
    SubsystemLayout,
    _checked_array,
    _checked_real,
    _eigenvalues_above,
    _MarginalMap,
    _marginal_map,
    _proper_subsets,
    _sorted,
    embed,
    hermitian_eig,
    kron,
    partial_trace,
    permute_subsystems,
)
from .states import (
    Distribution,
    PureState,
    _nu_split,
    axis_labels,
    ghz_state,
    w_state,
)

CLUSTER_TOL = 1e-7
#: Support/kernel criterion: an eigenvalue at most this in magnitude counts as 0.
DEFAULT_RANK_TOL = 1e-8
#: Two subspaces meet when cos^2 of their smallest principal angle is within this of 1.
DEFAULT_ANGLE_TOL = 1e-6


def _checked_tol(tol: float, what: str) -> float:
    """`tol` as a float: one finite real number >= 0."""
    tol = _checked_real(tol, what)
    if not 0.0 <= tol < np.inf:  # False for NaN too
        raise InvalidParameter(f"{what} must be finite and >= 0, got {tol!r}")
    return tol


@dataclass(frozen=True)
class WitnessOperator:
    """Hermitian witness whose spectrum is computed on first read.

    Building one runs no eigensolver: `verdict` decides the sign by a
    Cholesky factorisation and reads the spectrum only for a witnessed cut.
    """

    op: HermitianOperator
    kind: str

    def __post_init__(self) -> None:
        if not isinstance(self.op, HermitianOperator) or not isinstance(self.kind, str):
            raise InvalidParameter(
                f"a witness needs a HermitianOperator and a str kind, got "
                f"{type(self.op).__name__} and {type(self.kind).__name__}"
            )

    @functools.cached_property
    def spectrum(self) -> Spectrum:
        return hermitian_eig(self.op)

    @property
    def layout(self) -> SubsystemLayout:
        return self.op.layout

    @property
    def entries(self) -> np.ndarray:
        return self.op.entries

    def min_eigenvalue(self) -> float:
        return float(self.spectrum.eigenvalues[0])

    def eigenvalue_clusters(self, tol: float = CLUSTER_TOL) -> list[tuple[float, int]]:
        """Ascending (value, multiplicity) pairs, grouping eigenvalues within tol."""
        tol = _checked_tol(tol, "cluster tolerance")
        clusters: list[list[float]] = []
        for lam in self.spectrum.eigenvalues:
            if clusters and lam - clusters[-1][-1] <= tol:
                clusters[-1].append(float(lam))
            else:
                clusters.append([float(lam)])
        return [(float(np.mean(c)), len(c)) for c in clusters]


@dataclass(frozen=True)
class Evidence:
    """Certificate attached to a witnessed-incompatible verdict."""

    kind: str
    min_value: float
    vector: Optional[np.ndarray] = None
    outcome: Optional[tuple[int, ...]] = None


@dataclass(frozen=True)
class Verdict:
    """Either witnessed incompatibility (with evidence) or no conclusion."""

    status: str  # "witnessed_incompatible" | "inconclusive"
    evidence: Optional[Evidence] = None

    @property
    def witnessed(self) -> bool:
        return self.status == "witnessed_incompatible"


def hall_delta(marginals: Mapping[frozenset, DensityMatrix]) -> WitnessOperator:
    """Alternating-sign sum of subset marginals, tensored with identities.

    Delta = sum over proper subsets X of the node set of (-1)^|X| sigma_X (x) 1,
    the empty set contributing +1, on the nodes in alphabetical order.
    Positive semidefinite on the marginals of a single joint state on an odd
    number of nodes. Takes only the read-only mapping `marginals_of` returns,
    whose marginals agree on overlaps by construction.
    """
    if type(marginals) is not _JointMarginals:
        raise InvalidParameter(
            f"hall_delta takes the marginals_of(rho) of one joint state, "
            f"got a {type(marginals).__name__}"
        )
    plan = marginals.plan
    n = plan.layout.n_subsystems
    if n % 2 == 0:
        raise OddCardinalityRequired(f"need an odd number of nodes, got {n}")
    signs = [(-1.0) ** len(sub) for sub in plan.sets]
    return WitnessOperator(
        HermitianOperator._trusted(plan.layout, plan.adjoint(marginals.flat, signs)), "hall_delta"
    )


class _JointMarginals(Mapping):
    """`marginals_of`'s read-only result, the one type `hall_delta` takes.

    Keeps the marginal map and the flat vector of blocks the marginals view.
    """

    def __init__(self, plan: _MarginalMap, flat: np.ndarray) -> None:
        flat.setflags(write=False)
        self.plan, self.flat = plan, flat
        self._marginals = {
            sub: DensityMatrix._trusted(HermitianOperator._trusted(layout, block))
            for sub, layout, block in zip(plan.sets, plan.layouts, plan.blocks(flat))
        }

    def __getitem__(self, key: frozenset) -> DensityMatrix:
        return self._marginals[key]

    def __iter__(self):
        return iter(self._marginals)

    def __len__(self) -> int:
        return len(self._marginals)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._marginals!r})"


def marginals_of(rho: DensityMatrix) -> Mapping[frozenset, DensityMatrix]:
    """All proper nonempty subset marginals of a joint state, read-only.

    Each marginal's factors are in alphabetical label order. Each is a density
    matrix by construction and is not re-checked: the positivity tolerance of
    the joint state would otherwise be multiplied by the traced-out
    dimension. They agree on overlaps by construction too; `hall_delta`
    takes this mapping and no other.
    """
    op = _sorted(rho.op)
    plan = _marginal_map(op.layout, _proper_subsets(op.layout.labels))
    return _JointMarginals(plan, plan.marginals(op.entries))


def _cut_labels(labels: tuple[str, ...], cut: tuple[str, str]) -> tuple[str, str, str]:
    """(x, y, z) for a cut (x, y) of three labels, z being the third."""
    try:
        x, y = cut
    except (TypeError, ValueError):
        x = y = None
    if (isinstance(cut, str) or not isinstance(x, str) or not isinstance(y, str)
            or x == y or x not in labels or y not in labels):
        raise UnknownLabel(f"cut {cut!r} must be a pair of distinct labels of {labels}")
    (z,) = [lab for lab in labels if lab not in (x, y)]
    return x, y, z


def cut_witness_quantum(
    rho: Union[DensityMatrix, HermitianOperator], cut: tuple[str, str]
) -> WitnessOperator:
    """I_xy = 1 - rho_x - rho_y - rho_z + rho_x (x) rho_y + rho_xz + rho_yz.

    This is Delta on the marginals of the cut inflation, where x and y share
    no source, so rho_xy becomes rho_x (x) rho_y. Materialized on the
    alphabetically sorted label order, so matrices print in the canonical
    product basis regardless of the cut. A raw unit-trace Hermitian operator
    is accepted so spectrum identities can be checked on family members
    outside the PSD range.
    """
    if isinstance(rho, HermitianOperator) and abs(rho.trace() - 1.0) > TRACE_TOL:
        raise InvalidParameter(f"trace is {rho.trace()!r}, expected 1")
    op = rho if isinstance(rho, HermitianOperator) else rho.op
    if op.layout.n_subsystems != 3:
        raise DimensionError("cut witness needs exactly three subsystems")
    x, y, z = _cut_labels(op.layout.labels, cut)
    op = _sorted(op)
    plan = _marginal_map(op.layout, _proper_subsets(op.layout.labels))
    # -rho_x - rho_y - rho_z + rho_xz + rho_yz; rho_xy is replaced by the product
    weights = [-1.0 if len(sub) == 1 else float(z in sub) for sub in plan.sets]
    acc = plan.adjoint(plan.marginals(op.entries), weights)
    acc += embed(kron(partial_trace(op, {x}), partial_trace(op, {y})), op.layout).entries
    return WitnessOperator(HermitianOperator._trusted(op.layout, acc), f"cut:{x}{y}")


def cut_witness_classical(p: Distribution, cut: tuple[str, str]) -> np.ndarray:
    """1 - p_x - p_y - p_z + p_x p_y + p_xz + p_yz at every outcome.

    The diagonal of the quantum I_xy on the encoded distribution: Delta on the
    cut inflation's marginals, with p_xy replaced by p_x p_y. Variables are
    addressed by their axis labels A, B, C.
    """
    if len(p.outcome_dims) != 3:
        raise DimensionError("classical cut witness needs exactly three variables")
    labels = axis_labels(3)
    ax, ay, az = (labels.index(lab) for lab in _cut_labels(labels, cut))
    t = p.tensor
    p_x, p_y, p_z = (t.sum(axis=tuple(k for k in range(3) if k != i), keepdims=True)
                     for i in (ax, ay, az))
    p_xz, p_yz = (t.sum(axis=i, keepdims=True) for i in (ay, ax))
    return np.ones(p.outcome_dims) - p_x - p_y - p_z + p_x * p_y + p_xz + p_yz


def verdict(
    w: Union[WitnessOperator, np.ndarray], tol: float = VERDICT_TOL
) -> Verdict:
    """Witnessed incompatibility iff the minimum eigenvalue/entry is < -tol.

    An operator's sign is decided by a Cholesky factorisation of W + tol 1:
    when it succeeds, every eigenvalue exceeds -tol and the verdict is
    inconclusive with no eigenvalue computed. When it fails, W's eigenvalues
    and eigenvectors come from one eigh, kept as W's spectrum, and the
    verdict is decided on the minimum eigenvalue, so a witnessed verdict
    always agrees with the spectrum. A spectrum read before the verdict is
    decided on directly. A nonnegative witness is never proof of
    compatibility, hence the inconclusive branch carries no evidence. An
    empty, non-finite or (for a tensor) non-real witness, or a tolerance that
    is not one finite real number >= 0, raises.
    """
    tol = _checked_tol(tol, "verdict tolerance")
    is_op = isinstance(w, WitnessOperator)
    t = w.entries if is_op else _checked_array(w, float, "classical witness")
    if not t.size:
        raise InvalidParameter("witness has no values")
    if is_op and not np.isfinite(t).all():
        raise InvalidParameter("witness has non-finite values")
    if is_op:
        # the spectrum if read already: cached_property keeps it in vars(w)
        spec = vars(w).get("spectrum")
        if spec is None:
            if _eigenvalues_above(t, -tol):
                return Verdict("inconclusive")
            spec = Spectrum._with_vectors(t)
            object.__setattr__(w, "spectrum", spec)
        lam = float(spec.eigenvalues[0])
        if lam < -tol:
            vec = spec.eigenvectors[:, 0]
            return Verdict(
                "witnessed_incompatible", Evidence(w.kind, lam, vector=vec)
            )
        return Verdict("inconclusive")
    lo = float(t.min())
    if lo < -tol:
        outcome = tuple(int(i) for i in np.unravel_index(int(t.argmin()), t.shape))
        return Verdict(
            "witnessed_incompatible",
            Evidence("classical", lo, outcome=outcome),
        )
    return Verdict("inconclusive")


def supp_ker_test(rho: DensityMatrix, cuts: Iterable[tuple[str, str]]) -> list[bool]:
    """Per cut, whether supp(nu_minus (x) 1_z) meets ker(Delta of the marginals).

    Decided on orthonormal bases: U = V (x) 1_z, V the eigenvectors of
    rho_x (x) rho_y - rho_xy below -DEFAULT_RANK_TOL from the eigh that splits
    nu; K those of Delta with |eigenvalue| at most DEFAULT_RANK_TOL, computed
    once, when a cut first has a nonempty V. The spans meet iff the largest
    singular value of U+ K, the cosine of their smallest principal angle
    (Bjorck & Golub 1973), is 1: its square within DEFAULT_ANGLE_TOL of 1. It
    is computed as that of P K, P = V V+ embedded.
    """
    if rho.layout.n_subsystems != 3:
        raise DimensionError("support/kernel test needs exactly three subsystems")
    cuts = [_cut_labels(rho.layout.labels, cut)[:2] for cut in cuts]
    rho = DensityMatrix._trusted(_sorted(rho.op))  # sorted once, for every nu split and Delta
    ker = None
    out = []
    for x, y in cuts:
        layout, split = _nu_split(rho, x, y)
        v = split.eigenvectors[:, split.eigenvalues < -DEFAULT_RANK_TOL]
        cos = 0.0
        if v.size:
            if ker is None:
                delta = Spectrum._with_vectors(hall_delta(marginals_of(rho)).entries)
                ker = delta.eigenvectors[:, np.abs(delta.eigenvalues) <= DEFAULT_RANK_TOL]
            proj = embed(HermitianOperator(layout, v @ v.conj().T), rho.layout).entries
            cos = np.linalg.norm(proj @ ker, 2)
        out.append(bool(cos**2 >= 1.0 - DEFAULT_ANGLE_TOL))
    return out


def pure_delta_structure(psi: PureState) -> HermitianOperator:
    """Conjugate of a pure three-qubit projector by the spin-flip antiunitary.

    The antiunitary sends sum a_ijk |ijk> to sum (-1)^(i+j+k) conj(a_ijk)
    |i' j' k'> with flipped bits. Delta(marginals of rho) = rho + result is
    the identity claim AC-10 checks.
    """
    if psi.layout.dims != (2, 2, 2):
        raise DimensionError("antiunitary decomposition is defined for three qubits")
    a = psi.amplitudes
    flipped = np.zeros(8, dtype=complex)
    for idx in range(8):
        parity = bin(idx).count("1") % 2
        flipped[idx ^ 7] = (-1.0) ** parity * np.conj(a[idx])
    return HermitianOperator(psi.layout, np.outer(flipped, flipped.conj()))


GHZ_FIDELITY_THRESHOLD = (1 + np.sqrt(3)) / 4
W_FIDELITY_THRESHOLD = 0.7602


def fidelity_witness(rho: DensityMatrix) -> tuple[float, float, bool]:
    """GHZ and W fidelities plus the flag of the fidelity-based sufficient test."""
    if rho.layout.dims != (2, 2, 2):
        raise DimensionError("fidelity witness is defined for three qubits")
    m = permute_subsystems(rho.op, ("A", "B", "C")).entries
    f_ghz, f_w = (float(np.real(v.conj() @ m @ v))
                  for v in (ghz_state().amplitudes, w_state().amplitudes))
    flagged = f_ghz >= GHZ_FIDELITY_THRESHOLD or f_w >= W_FIDELITY_THRESHOLD
    return f_ghz, f_w, flagged


def tri_bell_cubic(t: float) -> tuple[tuple[float, float, float], np.ndarray, float]:
    """Monic cubic whose roots, divided by t^2, are the nontrivial I_AB eigenvalues.

    Returns (coefficients (b, c, d) of x^3 + b x^2 + c x + d, real roots
    ascending, product of roots by Vieta).
    """
    t = _checked_real(t, "tri-Bell parameter t")
    if t <= 2:
        raise DomainError(f"parameter t={t} must exceed 2")
    b = -t * t + t - 2
    c = t**3 - 5 * t**2 + 8 * t - 4
    d = t**4 - 5 * t**3 + 14 * t**2 - 20 * t + 8
    roots = _real_cubic_roots(b, c, d)
    return (b, c, d), roots, -d


def _real_cubic_roots(b: float, c: float, d: float) -> np.ndarray:
    """All-real roots of x^3 + b x^2 + c x + d via the trigonometric method."""
    p = c - b * b / 3
    q = 2 * b**3 / 27 - b * c / 3 + d
    shift = -b / 3
    if abs(p) < 1e-14:
        r = np.cbrt(-q)
        return np.sort(np.array([r, r, r]) + shift)
    m = 2 * np.sqrt(max(-p, 0.0) / 3)
    arg = np.clip(3 * q / (p * m), -1.0, 1.0)
    theta = np.arccos(arg) / 3
    roots = m * np.cos(theta - 2 * np.pi * np.arange(3) / 3) + shift
    return np.sort(roots)


def tri_bell_eigs(t: float) -> np.ndarray:
    """Closed-form ascending spectrum of I_AB on the tri-Bell state at t."""
    _, roots, _ = tri_bell_cubic(t)
    vals = np.concatenate([roots / t**2, [(t - 2) / t**2]])
    return np.sort(np.repeat(vals, 2))


def werner_ghz_eigs(p: float) -> np.ndarray:
    """Closed-form ascending I_xy spectrum for GHZ mixed with white noise."""
    p = _checked_real(p, "noise parameter p")
    vals = [0.25] * 4 + [(1 - 2 * p) / 4] * 2 + [(1 + 2 * p) / 4] * 2
    return np.sort(np.array(vals))


def werner_w_eigs(p: float) -> np.ndarray:
    """Closed-form ascending I_xy spectrum for the W state mixed with white noise."""
    p = _checked_real(p, "noise parameter p")
    s = np.sqrt(297 * p**2 + 6 * p**3 + p**4)
    vals = [
        (9 - p * p) / 36,
        (9 - 6 * p + p * p) / 36,
        (9 + 3 * p + s) / 36,
        (9 + 3 * p - s) / 36,
    ]
    return np.sort(np.repeat(vals, 2))


@dataclass(frozen=True)
class WernerReport:
    """Noise thresholds below which the cut witnesses stay positive."""

    ghz_threshold: float
    w_threshold: float


def _bisect_crossing(f, lo: float, hi: float, iters: int = 60) -> float:
    """Locate the sign change of a decreasing function on [lo, hi]."""
    for _ in range(iters):
        mid = (lo + hi) / 2
        if f(mid) >= 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def werner_thresholds() -> WernerReport:
    """Critical noise parameters where the closed-form minimum eigenvalue crosses 0."""
    ghz = _bisect_crossing(lambda p: float(werner_ghz_eigs(p)[0]), 0.0, 1.0)
    w = _bisect_crossing(lambda p: float(werner_w_eigs(p)[0]), 0.0, 1.0)
    return WernerReport(ghz, w)


def toth_acin_eigs(c: float) -> np.ndarray:
    """Closed-form ascending I_AB spectrum of the Pauli-diagonal family at c."""
    c = _checked_real(c, "Toth-Acin parameter c")
    s = 2 * np.sqrt(4 + 6 * c + 9 * c * c)
    vals = [(8 - 3 * c) / 24] * 4 + [(4 + 3 * c - s) / 24] * 2 + [(4 + 3 * c + s) / 24] * 2
    return np.sort(np.array(vals))


# Ascending spectrum of every cut witness on the qutrit mixture, whatever its
# weights; claim AC-7 checks this at 1e-9.
QUTRIT_MIXED_REFERENCE = np.sort(
    np.concatenate([[7 / 9] * 3, [4 / 9] * 12, [1 / 9] * 12])
)
