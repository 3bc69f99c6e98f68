"""Dense complex linear algebra over labelled tensor-product spaces.

Operators carry a :class:`SubsystemLayout` naming their tensor factors, so
partial traces, partial transposes and embeddings can be requested by label
rather than by axis bookkeeping at every call site.

Validation happens once, at the boundary. The public constructors of
:class:`SubsystemLayout`, :class:`HermitianOperator` and
:class:`DensityMatrix` check every input (integer dimensions, distinct str
labels, shape, finiteness, Hermiticity, trace and positivity) and symmetrise
the matrix. The numeric constructors, here and in `states`, and the state-file
loader `cli.load_state` read numbers by one rule, `_checked_array`'s: a string,
a boolean (one among numbers too), an integer past 64 bits and a non-finite
value are refused.
Operations on validated operators -- `partial_trace`, `partial_transpose`,
`permute_subsystems`, `embed`, `kron` and `-` -- build their results through
the private `_trusted` constructors, unchecked. That is exact: differences,
index permutations and Kronecker products of conjugate pairs (operands kept
in the same order) are conjugate-symmetric bit for bit in IEEE arithmetic,
so the skipped symmetrisation would return the same array.
Arrays that are Hermitian only up to rounding -- outer products v v+ under
fused multiply-add, eigen-reconstructions -- still go through the public
constructors.

Every marginal and every marginal tensored with identities is read or
written through a private marginal map, keyed on a layout and the subsets S
asked of it, in a bounded cache: an int32 index of the positions diagonal
outside each S, d sum_S d_S entries built from row offsets, no d x d grid.
`partial_trace` and `embed` ask for the one set they touch: a trace gathers
the block and sums each run, and an embedding writes into it, exactly, since
a block's runs never overlap. The witnesses ask for every proper subset and
take every marginal in one gather and one segmented sum (`np.add.reduceat`),
and the adjoint, 1 + sum_S w_S Y_S (x) 1, in one repeat and one scatter-add
(`np.bincount`). All keep conjugate symmetry bit for bit: an entry and its
mirror sum conjugate terms in the same order. Labels and dimensions are
checked on every call, so a failed check raises every time.

LAPACK is asked only for what is read. Whether every eigenvalue of an
operator exceeds -tol is a sign test, decided by a Cholesky factorisation of
the operator + tol 1 at a fraction of the cost of an eigensolve.
`DensityMatrix` decides positivity this way at PSD_TOL, and computes the
minimum eigenvalue only to report a refusal; the witness verdicts decide at
VERDICT_TOL. `hermitian_eig` computes eigenvalues at the call and
eigenvectors on first read, since most readers of a spectrum need the values
alone. A reader that needs both from the start (a witnessed verdict's
evidence, the support/kernel criterion, the nu split) gets them from one
`eigh` through the private `Spectrum._with_vectors`.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DimensionError,
    DuplicateLabel,
    InvalidParameter,
    NoConvergence,
    NotHermitian,
    UnknownLabel,
)

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-10
PSD_TOL = 1e-10

#: An operator counts as non-positive iff its minimum eigenvalue is below this.
VERDICT_TOL = 1e-8

# Marginal maps kept, one per (layout, sets) key: bounded, so a long scan over
# many shapes does not grow memory without limit.
_MAP_CACHE_SIZE = 512


def _is_int(n) -> bool:
    """Whether `n` is an integer: a Python or numpy int, not a bool."""
    return isinstance(n, (int, np.integer)) and not isinstance(n, bool)


def _checked_dims(dims: Iterable, what: str) -> tuple[int, ...]:
    """`dims` as plain ints >= 1; numpy integers pass, bools and floats do not."""
    dims = tuple(dims)
    for d in dims:
        if not _is_int(d):
            raise DimensionError(f"{what} must be integers, got {d!r}")
    dims = tuple(map(int, dims))
    if any(d < 1 for d in dims):
        raise DimensionError(f"{what} must be >= 1, got {dims}")
    return dims


def _checked_array(values, dtype, what: str) -> np.ndarray:
    """`values` as a fresh array of `dtype`, never aliasing the caller's input.
    Refused: ragged nesting, a dtype kind other than int, uint, float (and
    complex for a complex `dtype`) -- so str, bytes, bool and object arrays,
    Python ints too large for 64 bits among them -- a bool among numbers in
    input that is not an ndarray (numpy reads it as 0 or 1), and non-finite
    entries."""
    try:
        a = np.asarray(values)
    except ValueError:
        raise InvalidParameter(f"{what} is not a rectangular array") from None
    kind = "complex" if np.dtype(dtype).kind == "c" else "real"
    if a.dtype.kind not in ("iufc" if kind == "complex" else "iuf"):
        raise InvalidParameter(f"{what} must be {kind} numbers, got dtype {a.dtype}")
    if not isinstance(values, np.ndarray) and any(
            isinstance(x, (bool, np.bool_)) for x in np.asarray(values, dtype=object).flat):
        raise InvalidParameter(f"{what} must be {kind} numbers, got a bool among them")
    out = np.array(a, dtype=dtype)
    if not np.isfinite(out).all():
        raise InvalidParameter(f"{what} has non-finite entries")
    return out


def _checked_real(value, what: str) -> float:
    """`value` as a float: one number of a kind `_checked_array` takes as real.
    NaN and inf pass, for the caller's range check to refuse."""
    a = np.asarray(value)
    if a.shape or a.dtype.kind not in "iuf":
        raise InvalidParameter(f"{what} must be one real number, got {value!r}")
    return float(a)


@dataclass(frozen=True)
class SubsystemLayout:
    """Ordered local dimensions with distinct labels, e.g. (2,2,2) / (A,B,C)."""

    dims: tuple[int, ...]
    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "dims", _checked_dims(self.dims, "local dimensions"))
        labels = tuple(self.labels)
        for lab in labels:
            if not isinstance(lab, str):
                raise UnknownLabel(f"labels must be strings, got {lab!r}")
        object.__setattr__(self, "labels", tuple(map(str, labels)))
        if len(self.dims) != len(self.labels) or len(self.dims) < 1:
            raise DimensionError("layout needs one label per dimension, at least one")
        if len(set(self.labels)) != len(self.labels):
            raise DuplicateLabel(f"repeated labels in {self.labels}")

    @classmethod
    def _trusted(cls, dims: tuple[int, ...], labels: tuple[str, ...]) -> "SubsystemLayout":
        """Layout from int dims and str labels already known valid, unchecked."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "dims", dims)
        object.__setattr__(obj, "labels", labels)
        return obj

    @property
    def total_dim(self) -> int:
        return math.prod(self.dims)

    @property
    def n_subsystems(self) -> int:
        return len(self.dims)

    def axis(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise UnknownLabel(f"label {label!r} not in layout {self.labels}") from None

    def restrict(self, keep: Iterable[str]) -> "SubsystemLayout":
        """Sub-layout of `keep`, preserving this layout's order."""
        keep = set(keep)
        for lab in keep:
            self.axis(lab)
        if not keep:
            raise DimensionError("layout needs one label per dimension, at least one")
        pairs = [(d, s) for d, s in zip(self.dims, self.labels) if s in keep]
        return SubsystemLayout._trusted(tuple(p[0] for p in pairs), tuple(p[1] for p in pairs))

    def sorted(self) -> "SubsystemLayout":
        """The same factors in alphabetical label order."""
        pairs = sorted(zip(self.labels, self.dims))
        return SubsystemLayout._trusted(tuple(p[1] for p in pairs), tuple(p[0] for p in pairs))


@dataclass(frozen=True)
class HermitianOperator:
    """Dense Hermitian matrix on the total space of `layout`."""

    layout: SubsystemLayout
    entries: np.ndarray

    def __post_init__(self) -> None:
        side = self.layout.total_dim
        m = _checked_array(self.entries, complex, "operator")
        if m.shape != (side, side):
            raise DimensionError(f"expected a {side}x{side} matrix, got shape {m.shape}")
        h = m.conj().T
        dev = np.abs(m - h).max()
        if dev > HERMITICITY_TOL:
            raise NotHermitian(f"max deviation from conjugate transpose is {dev:.3e}")
        # m / 2 + h / 2 in place: halving first keeps entries near the float maximum finite
        m /= 2
        m += h / 2
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)

    @classmethod
    def _trusted(cls, layout: SubsystemLayout, m: np.ndarray) -> "HermitianOperator":
        """Operator from a real or complex matrix built from validated operators.

        `m` must already be exactly conjugate-symmetric, finite and of the
        layout's shape, and must not alias an array a caller can write: it is
        frozen and kept as is.
        """
        m.setflags(write=False)
        obj = object.__new__(cls)
        object.__setattr__(obj, "layout", layout)
        object.__setattr__(obj, "entries", m)
        return obj

    def trace(self) -> float:
        return float(np.trace(self.entries).real)

    def __sub__(self, other: "HermitianOperator") -> "HermitianOperator":
        if self.layout != other.layout:
            raise DimensionError(f"layout mismatch: {self.layout.labels} vs {other.layout.labels}")
        return HermitianOperator._trusted(self.layout, self.entries - other.entries)


@dataclass(frozen=True)
class DensityMatrix:
    """Unit-trace PSD Hermitian operator."""

    op: HermitianOperator

    def __post_init__(self) -> None:
        tr = self.op.trace()
        if abs(tr - 1.0) > TRACE_TOL:
            raise InvalidParameter(f"trace is {tr!r}, expected 1")
        # a refusal is decided, and reported, on the minimum eigenvalue itself
        if not _eigenvalues_above(self.op.entries, -PSD_TOL):
            lo = float(np.linalg.eigvalsh(self.op.entries)[0])
            if lo < -PSD_TOL:
                raise InvalidParameter(
                    f"minimum eigenvalue {lo:.3e} below -{PSD_TOL:.0e}"
                ) from None

    @classmethod
    def _trusted(cls, op: HermitianOperator) -> "DensityMatrix":
        """Density matrix by construction (a marginal of one), unchecked."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "op", op)
        return obj

    @property
    def layout(self) -> SubsystemLayout:
        return self.op.layout

    @property
    def entries(self) -> np.ndarray:
        return self.op.entries


def _eigenvalues_above(m: np.ndarray, lower: float) -> bool:
    """Whether every eigenvalue of the finite Hermitian matrix `m` exceeds
    `lower`, decided by a Cholesky factorisation of m - lower 1.

    The factor exists iff m - lower 1 is positive definite. The factorisation
    is backward stable (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., 2002, ch. 10), so it succeeds or fails as the exact
    test does except within rounding of order d u ||m|| of the boundary.
    """
    shifted = m.copy()
    shifted.flat[:: m.shape[0] + 1] -= lower
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False
    return True


def _eigh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ascending eigenvalues and eigenvectors of `m` from one eigh."""
    try:
        vals, vecs = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    vals.setflags(write=False)
    vecs.setflags(write=False)
    return vals, vecs


@dataclass(frozen=True)
class Spectrum:
    """Ascending eigenvalues of the Hermitian matrix `entries`, with a matched
    unitary of column eigenvectors computed on first read.

    `entries` must be read-only, as a `HermitianOperator`'s are, so that the
    eigenvectors, computed later, belong to the matrix the eigenvalues do.
    They are read-only too, and a second read returns the same array; two
    threads reading at once may each compute it, which is harmless.
    """

    eigenvalues: np.ndarray
    entries: np.ndarray

    @functools.cached_property
    def eigenvectors(self) -> np.ndarray:
        return _eigh(self.entries)[1]

    @classmethod
    def _with_vectors(cls, entries: np.ndarray) -> "Spectrum":
        """Eigenvalues and eigenvectors of read-only `entries`, both from one
        eigh, for a reader that needs the vectors from the start."""
        vals, vecs = _eigh(entries)
        spec = cls(vals, entries)
        object.__setattr__(spec, "eigenvectors", vecs)
        return spec


def kron(a: HermitianOperator, b: HermitianOperator) -> HermitianOperator:
    """Kronecker product; the result layout concatenates the operand layouts."""
    common = set(a.layout.labels) & set(b.layout.labels)
    if common:
        raise DuplicateLabel(f"labels {sorted(common)} appear on both operands")
    layout = SubsystemLayout._trusted(
        a.layout.dims + b.layout.dims, a.layout.labels + b.layout.labels
    )
    return HermitianOperator._trusted(layout, _kron(a.entries, b.entries))


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Raw Kronecker product of two matrices: the products np.kron forms."""
    (m, n), (p, q) = a.shape, b.shape
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(m * p, n * q)


def _permute(m: np.ndarray, dims: Sequence[int], perm: Sequence[int]) -> np.ndarray:
    """Raw matrix on factors `dims` with its factors reordered to `perm`."""
    n = len(dims)
    t = m.reshape(tuple(dims) * 2).transpose(list(perm) + [n + p for p in perm])
    return t.reshape(m.shape)


def _partial_transpose(m: np.ndarray, dims: Sequence[int], axis: int) -> np.ndarray:
    """Raw matrix on factors `dims` with factor `axis` transposed (an involution)."""
    n = len(dims)
    axes = list(range(2 * n))
    axes[axis], axes[n + axis] = axes[n + axis], axes[axis]
    return m.reshape(tuple(dims) * 2).transpose(axes).reshape(m.shape)


def permute_subsystems(x: HermitianOperator, new_labels: Sequence[str]) -> HermitianOperator:
    """Reorder the tensor factors of `x` to the given label order."""
    new_labels = tuple(new_labels)
    if sorted(new_labels) != sorted(x.layout.labels):
        raise UnknownLabel(f"{new_labels} is not a permutation of {x.layout.labels}")
    perm = [x.layout.axis(lab) for lab in new_labels]
    layout = SubsystemLayout._trusted(tuple(x.layout.dims[p] for p in perm), new_labels)
    return HermitianOperator._trusted(layout, _permute(x.entries, x.layout.dims, perm))


def _sorted(op: HermitianOperator) -> HermitianOperator:
    """op with its factors in alphabetical label order."""
    full = op.layout.sorted()
    return op if full == op.layout else permute_subsystems(op, full.labels)


def embed(x: HermitianOperator, full: SubsystemLayout) -> HermitianOperator:
    """Tensor `x` with identities on the factors of `full` it does not cover:
    x, in full's factor order, written into its block of full's marginal map."""
    sub, runs = _block(full, frozenset(x.layout.labels))
    x = x if sub.labels == x.layout.labels else permute_subsystems(x, sub.labels)
    if x.layout.dims != sub.dims:
        raise DimensionError(f"dimensions {x.layout.dims} on {sub.labels}, expected {sub.dims}")
    d = full.total_dim
    out = np.zeros(d * d, dtype=x.entries.dtype)
    out[runs] = x.entries
    return HermitianOperator._trusted(full, out.reshape(d, d))


def partial_trace(x: HermitianOperator, keep: Iterable[str]) -> HermitianOperator:
    """Trace out every subsystem not in `keep`; kept factors stay in layout
    order. Block `keep` of x's marginal map, summed over each run."""
    if isinstance(keep, str):
        raise UnknownLabel(f"keep {keep!r} must be a collection of labels, not one string")
    layout, runs = _block(x.layout, frozenset(keep))
    return HermitianOperator._trusted(layout, np.take(x.entries, runs).sum(axis=0))


def _block(layout: SubsystemLayout, keep: frozenset) -> tuple[SubsystemLayout, np.ndarray]:
    """`keep`'s layout and one-set map index, as (d / d_S, d_S, d_S) runs."""
    plan = _marginal_map(layout, (keep,))
    s = plan.spans[0][2]
    return plan.layouts[0], plan.idx.reshape(s, s, -1).transpose(2, 0, 1)


class _MarginalMap:
    """The marginals of a raw d x d matrix on `layout` on the nonempty subsets
    `sets` of its factors, and the adjoint map, through one index.

    Block S holds Y_S[a, b] = sum_c m[(a, c), (b, c)], c running over the
    factors outside S. Blocks follow `sets`; a block's factors stay in layout
    order. `idx` lists, block by block and entry (a, b) by entry, the
    positions of the flattened matrix that are diagonal outside S, one run of
    c per entry: a marginal entry sums its run, and Y_S (x) 1 puts the entry
    at every position of its run: d r_S(a) + r_S(b) + (d + 1) r_R(c), r_S and
    r_R the row offsets of the kept and traced factors. The index has
    d sum_S d_S entries: 512 for one qubit of eight, 144 for every proper
    subset at (2,2,2), 27,216 at (6,6,6). int32 holds every position of a
    matrix smaller than 46341 x 46341 (34 GB of complex entries). The arrays
    are read-only, since the cache shares them.
    """

    def __init__(self, layout: SubsystemLayout, sets: tuple[frozenset, ...]) -> None:
        d = layout.total_dim
        rows = np.arange(d, dtype=np.int32).reshape(layout.dims)
        self.layout, self.sets = layout, sets
        self.layouts = tuple(layout.restrict(keep) for keep in sets)  # UnknownLabel, DimensionError
        parts = [np.zeros(0, dtype=np.int32)]
        for keep in sets:
            # r_S and r_R: the rows with every traced, or every kept, factor at 0
            kept = [lab in keep for lab in layout.labels]
            rs = rows[tuple(slice(None) if k else 0 for k in kept)].ravel()
            rr = rows[tuple(0 if k else slice(None) for k in kept)].ravel()
            parts.append((d * rs[:, None, None] + rs[None, :, None] + (d + 1) * rr).ravel())
        sides = np.array([sub.total_dim for sub in self.layouts], dtype=np.intp)
        self.idx = np.concatenate(parts)
        self.sizes = sides**2
        self.reps = np.repeat(d // sides, self.sizes)
        self.starts = np.cumsum(self.reps) - self.reps
        ends = np.cumsum(self.sizes)
        self.spans = tuple(zip((ends - self.sizes).tolist(), ends.tolist(), sides.tolist()))
        for a in (self.idx, self.sizes, self.reps, self.starts):
            a.setflags(write=False)

    def marginals(self, m: np.ndarray) -> np.ndarray:
        """Every block of the d x d matrix `m`, raveled and concatenated."""
        return np.add.reduceat(m.ravel()[self.idx], self.starts)

    def blocks(self, flat: np.ndarray) -> list[np.ndarray]:
        """The square blocks of a `marginals` vector, as views of it."""
        return [flat[a:b].reshape(s, s) for a, b, s in self.spans]

    def adjoint(self, flat: np.ndarray, weights: Sequence[float]) -> np.ndarray:
        """1 + sum_S weights[S] Y_S (x) 1, Y_S the blocks of `flat`: a fresh
        d x d matrix, summed at each position in block order."""
        terms = (flat * np.asarray(weights, dtype=float).repeat(self.sizes)).repeat(self.reps)
        d = self.layout.total_dim
        out = np.empty(d * d, dtype=complex)
        out.real = np.bincount(self.idx, terms.real, d * d)
        out.imag = np.bincount(self.idx, terms.imag, d * d)
        out[:: d + 1] += 1
        return out.reshape(d, d)


_marginal_map = functools.lru_cache(maxsize=_MAP_CACHE_SIZE)(_MarginalMap)


@functools.lru_cache(maxsize=_MAP_CACHE_SIZE)
def _proper_subsets(labels: tuple[str, ...]) -> tuple[frozenset, ...]:
    """The witnesses' sets: every proper nonempty subset of `labels`, by size,
    then in label order (A, B, C, AB, AC, BC)."""
    return tuple(frozenset(c) for r in range(1, len(labels))
                 for c in itertools.combinations(labels, r))


def partial_transpose(x: HermitianOperator, sub: str) -> HermitianOperator:
    """Transpose the single factor `sub`."""
    ax = x.layout.axis(sub)
    return HermitianOperator._trusted(x.layout, _partial_transpose(x.entries, x.layout.dims, ax))


def hermitian_eig(x: HermitianOperator) -> Spectrum:
    """Eigendecomposition with ascending eigenvalues: eigenvalues at the
    call, eigenvectors on first read of `Spectrum.eigenvectors`.

    Backed by LAPACK's Hermitian solvers, values only (`eigvalsh`) and then,
    when read, values and vectors (`eigh`); an independent cyclic-Jacobi
    implementation cross-checks them in the test suite.
    """
    try:
        vals = np.linalg.eigvalsh(x.entries)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    vals.setflags(write=False)
    return Spectrum(vals, x.entries)


def min_eigenvalue(x: HermitianOperator) -> float:
    return float(hermitian_eig(x).eigenvalues[0])

