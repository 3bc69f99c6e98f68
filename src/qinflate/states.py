"""State and distribution constructors for the triangle-network analyses.

Covers the named three-qubit families (GHZ, W, tri-Bell, white-noise
mixtures, the Toth-Acin family), the qutrit twirl pair, the 2x2x4 canonical
form, local-measurement-induced distributions and the orthogonal
positive/negative split of rho_x (x) rho_y - rho_xy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (
    ConstraintViolated,
    DimensionError,
    DomainError,
    InvalidParameter,
    UnknownLabel,
)
from .linalg import (
    TRACE_TOL,
    DensityMatrix,
    HermitianOperator,
    Spectrum,
    SubsystemLayout,
    _checked_array,
    _checked_dims,
    _checked_real,
    _sorted,
    hermitian_eig,
    kron,
    partial_trace,
)

NORM_TOL = 1e-10
PROB_CLAMP = 1e-12

QUBIT3 = SubsystemLayout((2, 2, 2), ("A", "B", "C"))
QUTRIT3 = SubsystemLayout((3, 3, 3), ("A", "B", "C"))
QQQ4 = SubsystemLayout((2, 2, 4), ("A", "B", "C"))

PAULI = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


@dataclass(frozen=True)
class PureState:
    """Unit vector on the total space of `layout`."""

    layout: SubsystemLayout
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        v = _checked_array(self.amplitudes, complex, "amplitudes").reshape(-1)
        if v.shape != (self.layout.total_dim,):
            raise DimensionError(f"expected {self.layout.total_dim} amplitudes, got {v.shape[0]}")
        norm = float(np.linalg.norm(v))
        if abs(norm - 1.0) > NORM_TOL:
            raise InvalidParameter(f"norm is {norm!r}, expected 1")
        v.setflags(write=False)
        object.__setattr__(self, "amplitudes", v)

    def projector(self) -> HermitianOperator:
        return HermitianOperator(self.layout, np.outer(self.amplitudes, self.amplitudes.conj()))

    def to_density(self) -> DensityMatrix:
        # a unit vector's projector is a state; its trace is the validated norm squared
        return DensityMatrix._trusted(self.projector())


def axis_labels(n: int) -> tuple[str, ...]:
    """Labels of a distribution's n variables in axis order: A, B, C, ..."""
    return tuple(chr(ord("A") + i) for i in range(n))


@dataclass(frozen=True)
class Distribution:
    """Probability tensor over a product outcome space, stored flat row-major."""

    outcome_dims: tuple[int, ...]
    probs: np.ndarray

    def __post_init__(self) -> None:
        dims = _checked_dims(self.outcome_dims, "outcome dimensions")
        object.__setattr__(self, "outcome_dims", dims)
        p = _checked_array(self.probs, float, "probabilities").reshape(-1)
        if p.shape != (int(np.prod(dims)),):
            raise DimensionError(f"expected {int(np.prod(dims))} probabilities, got {p.shape[0]}")
        if np.min(p) < -PROB_CLAMP:
            raise InvalidParameter(f"negative probability {np.min(p):.3e}")
        p = np.maximum(p, 0.0)
        total = float(p.sum())
        if abs(total - 1.0) > TRACE_TOL:
            raise InvalidParameter(f"probabilities sum to {total!r}, expected 1")
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)

    @property
    def tensor(self) -> np.ndarray:
        return self.probs.reshape(self.outcome_dims)


@dataclass(frozen=True)
class LocalBasis:
    """One orthonormal measurement basis per subsystem (columns are outcomes)."""

    matrices: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        mats = []
        for m in self.matrices:
            u = _checked_array(m, complex, "basis matrix")
            if u.ndim != 2 or u.shape[0] != u.shape[1]:
                raise DimensionError("basis matrices must be square")
            dev = np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0])))
            if dev > 1e-10:
                raise InvalidParameter(f"basis matrix unitarity deviation {dev:.3e}")
            u.setflags(write=False)
            mats.append(u)
        object.__setattr__(self, "matrices", tuple(mats))

    @classmethod
    def pauli_x(cls, n: int = 3) -> "LocalBasis":
        h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        return cls((h,) * n)


@dataclass(frozen=True)
class NuPair:
    """Orthogonal PSD parts of rho_x (x) rho_y - rho_xy."""

    nu_plus: HermitianOperator
    nu_minus: HermitianOperator


def _pure(layout: SubsystemLayout, pairs: dict[int, complex]) -> PureState:
    v = np.zeros(layout.total_dim, dtype=complex)
    for idx, amp in pairs.items():
        v[idx] = amp
    return PureState(layout, v)


def ghz_state() -> PureState:
    s = 1 / np.sqrt(2)
    return _pure(QUBIT3, {0: s, 7: s})


def w_state() -> PureState:
    s = 1 / np.sqrt(3)
    return _pure(QUBIT3, {1: s, 2: s, 4: s})


def ghz_distn() -> Distribution:
    p = np.zeros(8)
    p[0] = p[7] = 0.5
    return Distribution((2, 2, 2), p)


def w_distn() -> Distribution:
    p = np.zeros(8)
    p[1] = p[2] = p[4] = 1 / 3
    return Distribution((2, 2, 2), p)


def encode_distribution(d: Distribution) -> DensityMatrix:
    """Density matrix diagonal in the computational basis with entries d."""
    layout = SubsystemLayout(d.outcome_dims, axis_labels(len(d.outcome_dims)))
    return DensityMatrix(HermitianOperator(layout, np.diag(d.probs.astype(complex))))


def tri_bell(t: float) -> PureState:
    """sqrt((t-2)/t)|100> + (1/sqrt(t))|001> + (1/sqrt(t))|010>, t >= 3."""
    t = _checked_real(t, "tri-Bell parameter t")
    if t < 3:
        raise DomainError(f"tri-Bell parameter t={t} must be >= 3")
    return _pure(QUBIT3, {4: np.sqrt((t - 2) / t), 1: 1 / np.sqrt(t), 2: 1 / np.sqrt(t)})


def tri_bell_t_from_amplitude(a: float) -> float:
    """Invert a = sqrt((t-2)/t) to t = 2/(1-a^2), for a in [1/sqrt(3), 1)."""
    a = _checked_real(a, "tri-Bell amplitude")
    if not (1 / np.sqrt(3) - 1e-12 <= a < 1):
        raise DomainError(f"amplitude {a} outside [1/sqrt(3), 1)")
    # at and just below 1/sqrt(3), rounding can give t a few ulps under 3,
    # which `tri_bell` would refuse
    return max(2.0 / (1.0 - a * a), 3.0)


def omega_example() -> DensityMatrix:
    """0.3 |psi_1><psi_1| + 0.7 |0++><0++| with the stated psi_1."""
    r = np.sqrt(0.19 / 2)
    psi1 = _pure(QUBIT3, {0: 0.9, 5: r, 6: r})
    plus = np.full(4, 0.5)
    zpp = np.zeros(8, dtype=complex)
    zpp[:4] = plus
    psi2 = PureState(QUBIT3, zpp)
    m = 0.3 * psi1.projector().entries + 0.7 * psi2.projector().entries
    return DensityMatrix(HermitianOperator(QUBIT3, m))


def white_noise_mixture(psi: PureState, p: float) -> DensityMatrix:
    """p |psi><psi| + (1-p)/8 * identity, for a three-qubit pure state."""
    if psi.layout.dims != (2, 2, 2):
        raise DimensionError("white-noise mixture is defined for three qubits")
    p = _checked_real(p, "noise parameter p")
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"noise parameter p={p} outside [0, 1]")
    m = p * psi.projector().entries + (1 - p) / 8 * np.eye(8)
    return DensityMatrix(HermitianOperator(psi.layout, m))


def toth_acin_operator(c: float) -> HermitianOperator:
    """Pauli expansion of the c-family as a unit-trace Hermitian operator.

    Not PSD for every c; use :func:`toth_acin` for validated states.
    """
    c = _checked_real(c, "Toth-Acin parameter c")
    eye2 = np.eye(2, dtype=complex)
    m = np.eye(8, dtype=complex) / 8
    for k in ("X", "Y", "Z"):
        s = PAULI[k]
        m += np.kron(eye2, np.kron(s, s)) / 24
        m -= c / 16 * (np.kron(s, np.kron(eye2, s)) + np.kron(s, np.kron(s, eye2)))
    return HermitianOperator(QUBIT3, m)


def toth_acin(c: float) -> DensityMatrix:
    """Pauli-diagonal three-qubit family; raises where it is not PSD."""
    return DensityMatrix(toth_acin_operator(c))


def _qutrit_component(i: int) -> np.ndarray:
    v = np.zeros(27, dtype=complex)
    for x in range(3):
        for y in range(3):
            z = (i - x - y) % 3
            v[x * 9 + y * 3 + z] = 1 / 3
    return v


def z3_twirl(rho: DensityMatrix) -> DensityMatrix:
    """Average over conjugation by Z3^k (x) Z3^k (x) Z3^k, k = 0, 1, 2."""
    if rho.layout.dims != (3, 3, 3):
        raise DimensionError("twirl is defined for three qutrits")
    w = np.exp(2j * np.pi / 3)
    z3 = np.diag([1, w, w * w])
    acc = np.zeros((27, 27), dtype=complex)
    for k in range(3):
        u = np.linalg.matrix_power(z3, k)
        u3 = np.kron(u, np.kron(u, u))
        acc += u3 @ rho.entries @ u3.conj().T
    return DensityMatrix(HermitianOperator(rho.layout, acc / 3))


def qutrit_pair(p0: float, p1: float) -> tuple[PureState, DensityMatrix]:
    """Superposition and matching mixture of the three charge-sector qutrit states.

    The mixed state equals the Z3 twirl of the pure-state projector; claim
    AC-7 checks this at 1e-10.
    """
    p0, p1 = _checked_real(p0, "weight p0"), _checked_real(p1, "weight p1")
    p2 = 1.0 - p0 - p1
    if min(p0, p1, p2) < -1e-12 or max(p0, p1) > 1 + 1e-12:
        raise DomainError(f"weights (p0, p1) = ({p0}, {p1}) outside the simplex")
    p2 = max(p2, 0.0)
    comps = [_qutrit_component(i) for i in range(3)]
    vec = np.sqrt(p0) * comps[0] + np.sqrt(p1) * comps[1] + np.sqrt(p2) * comps[2]
    pure = PureState(QUTRIT3, vec)
    m = sum(w * np.outer(v, v.conj()) for w, v in zip((p0, p1, p2), comps))
    return pure, DensityMatrix(HermitianOperator(QUTRIT3, m))


# Index map for the 2x2x4 canonical form: position of alpha_l in the
# flattened (A,B,C) amplitude vector, in lexicographic ket order.
_SCHMIDT224_KETS = (
    (0, 0, 0),  # alpha_0, phase phi_0
    (0, 1, 1),  # alpha_1
    (1, 0, 1),  # alpha_2
    (1, 0, 2),  # alpha_3, phase phi_1
    (1, 1, 0),  # alpha_4
    (1, 1, 1),  # alpha_5
    (1, 1, 2),  # alpha_6
    (1, 1, 3),  # alpha_7
)


def _ket_index(ket: tuple[int, int, int]) -> int:
    a, b, c = ket
    return a * 8 + b * 4 + c


def schmidt224(
    alphas: Sequence[float],
    phi0: float = 0.0,
    phi1: float = 0.0,
    enforce_ordering: bool = True,
) -> PureState:
    """Canonical-form qubit-qubit-ququart pure state from its eight coefficients.

    The leading-coefficient ordering pins down a unique representative per
    state; pass enforce_ordering=False to build valid states outside the
    canonical order (e.g. restricted families parametrized directly).
    """
    al = _checked_array(alphas, float, "coefficients").reshape(-1)
    if al.shape != (8,):
        raise DimensionError(f"expected 8 coefficients, got {al.shape[0]}")
    if np.min(al) < 0:
        raise ConstraintViolated("coefficients must be nonnegative (condition 4)")
    total = float(np.sum(al**2))
    if abs(total - 1.0) > NORM_TOL:
        raise ConstraintViolated(f"squared coefficients sum to {total!r}, expected 1")
    if enforce_ordering and al[0] < al[5] - 1e-12:
        raise ConstraintViolated("ordering |alpha_0| >= |alpha_5| (condition 5)")
    v = np.zeros(16, dtype=complex)
    phases = {0: np.exp(1j * _checked_real(phi0, "phase phi0")),
              3: np.exp(1j * _checked_real(phi1, "phase phi1"))}
    for l, ket in enumerate(_SCHMIDT224_KETS):
        v[_ket_index(ket)] = al[l] * phases.get(l, 1.0)
    return PureState(QQQ4, v)


def measure_local(rho: DensityMatrix, bases: LocalBasis) -> Distribution:
    """Outcome distribution of a product projective measurement on rho."""
    if len(bases.matrices) != rho.layout.n_subsystems:
        raise DimensionError("one basis per subsystem required")
    for u, d in zip(bases.matrices, rho.layout.dims):
        if u.shape[0] != d:
            raise DimensionError(f"basis of side {u.shape[0]} on a dimension-{d} factor")
    u_full = bases.matrices[0]
    for u in bases.matrices[1:]:
        u_full = np.kron(u_full, u)
    probs = np.real(np.einsum("ij,ji->i", u_full.conj().T @ rho.entries, u_full))
    return Distribution(rho.layout.dims, probs)


def _nu_split(rho: DensityMatrix, x: str, y: str) -> tuple[SubsystemLayout, Spectrum]:
    """rho_a (x) rho_b - rho_ab, {a, b} = {x, y} and a < b, from the sorted
    operator: its layout and its eigenvalues and eigenvectors, from one eigh."""
    if x == y:
        raise UnknownLabel(f"cut labels must differ, got ({x}, {y})")
    op = _sorted(rho.op)
    rho_ab = partial_trace(op, {x, y})
    a, b = rho_ab.layout.labels
    diff = kron(partial_trace(op, {a}), partial_trace(op, {b})) - rho_ab
    return diff.layout, Spectrum._with_vectors(diff.entries)


def nu_decomposition(rho: DensityMatrix, x: str, y: str) -> NuPair:
    """Orthogonal PSD split nu+ - nu- of rho_x (x) rho_y - rho_xy."""
    layout, spec = _nu_split(rho, x, y)
    vals, vecs = spec.eigenvalues, spec.eigenvectors
    pos = (vecs[:, vals > 0] * vals[vals > 0]) @ vecs[:, vals > 0].conj().T
    neg = (vecs[:, vals < 0] * (-vals[vals < 0])) @ vecs[:, vals < 0].conj().T
    return NuPair(HermitianOperator(layout, pos), HermitianOperator(layout, neg))


def is_biseparable_pure(psi: PureState) -> Optional[tuple[str, tuple[str, ...]]]:
    """Single-node bipartition across which psi factorizes, or None.

    Checks each cut {x}|{rest} by purity of the reduced state on x: its top
    eigenvalue is at least 1 - 1e-8.
    """
    labels = psi.layout.labels
    if len(labels) < 2:
        raise DimensionError("biseparability needs at least two subsystems")
    proj = psi.projector()
    for x in labels:
        red = partial_trace(proj, {x})
        top = float(hermitian_eig(red).eigenvalues[-1])
        if top >= 1.0 - 1e-8:
            return x, tuple(l for l in labels if l != x)
    return None


def random_pure_state(layout: SubsystemLayout, rng: np.random.Generator) -> PureState:
    """Haar-like pure state from normalized complex Gaussian amplitudes."""
    d = layout.total_dim
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return PureState(layout, v / np.linalg.norm(v))


def random_density_matrix(layout: SubsystemLayout, rng: np.random.Generator) -> DensityMatrix:
    """Random mixed state: the system marginal G G+ of a random pure state on
    system (x) environment, G being its amplitudes as a d x d matrix."""
    d = layout.total_dim
    env = SubsystemLayout((d, d), ("system", "env"))
    g = random_pure_state(env, rng).amplitudes.reshape(d, d)
    m = g @ g.conj().T
    return DensityMatrix(HermitianOperator(layout, m / np.trace(m).real))
