"""Property-based tests of exact algebraic identities and the file formats.

The Kronecker and embedding kernels are compared bit for bit with the
np.kron formulas they stand in for, on layouts with local dimensions 1-4 and
labels in no particular order. The marginal map and the partial trace read
from it are compared with the summation oracle, and on layouts of up to
eight factors the one block `partial_trace` and `embed` build is checked for
size and against the summation and embedding oracles. The map's adjoint is
checked against the trace pairing on any requested sets, and the cut
witnesses against their entry-by-entry oracle. The operations that build their results without re-validation are
checked to return exactly conjugate-symmetric matrices, the invariant that
makes skipping the checks exact, while the public constructors still refuse
malformed input. The eigenvectors a spectrum computes on first read
diagonalise the matrix its eigenvalues came from, degenerate spectra
included, and a witnessed verdict's evidence is a unit vector attaining the
minimum.
"""

from __future__ import annotations

import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qinflate.cli import FAMILIES, load_state, main, save_state
from qinflate.dag import build_cut_inflation, build_triangle, format_dag, parse_dag
from qinflate.errors import (
    DimensionError,
    DuplicateLabel,
    InvalidParameter,
    NotHermitian,
    UnknownLabel,
)
from qinflate.linalg import (
    DensityMatrix,
    HermitianOperator,
    SubsystemLayout,
    _marginal_map,
    _proper_subsets,
    embed,
    hermitian_eig,
    kron,
    partial_trace,
    partial_transpose,
    permute_subsystems,
)
from qinflate.states import (
    Distribution,
    encode_distribution,
    random_density_matrix,
    random_pure_state,
)
from qinflate.witness import (
    WitnessOperator,
    cut_witness_classical,
    cut_witness_quantum,
    hall_delta,
    marginals_of,
    supp_ker_test,
    verdict,
)

from oracles import cut_witness_oracle, embed_oracle, partial_trace_oracle

SETTINGS = settings(max_examples=60, deadline=None)
LETTERS = "ABCDE"
CUTS = [("A", "B"), ("A", "C"), ("B", "C"), ("B", "A"), ("C", "A"), ("C", "B")]

seeds = st.integers(0, 2**32 - 1)


@st.composite
def layouts(draw, min_factors: int = 1, max_factors: int = 3) -> SubsystemLayout:
    dims = draw(st.lists(st.integers(1, 4), min_size=min_factors, max_size=max_factors))
    labels = draw(st.permutations(LETTERS))[: len(dims)]
    return SubsystemLayout(tuple(dims), tuple(labels))


def _random_hermitian(layout: SubsystemLayout, seed: int) -> HermitianOperator:
    rng = np.random.default_rng(seed)
    d = layout.total_dim
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return HermitianOperator(layout, g + g.conj().T)


def _embed_by_np_kron(x: HermitianOperator, full: SubsystemLayout) -> np.ndarray:
    """x (x) identity on the missing factors, then the factors put in full's order."""
    missing = [lab for lab in full.labels if lab not in x.layout.labels]
    rest = tuple(full.dims[full.axis(lab)] for lab in missing)
    m = np.kron(x.entries, np.eye(math.prod(rest)))
    labels = x.layout.labels + tuple(missing)
    dims = x.layout.dims + rest
    perm = [labels.index(lab) for lab in full.labels]
    n = len(dims)
    t = m.reshape(dims * 2).transpose(perm + [n + p for p in perm])
    return HermitianOperator(full, t.reshape(m.shape)).entries


@SETTINGS
@given(st.data(), seeds)
def test_kron_matches_np_kron(data, seed):
    full = data.draw(layouts(min_factors=2, max_factors=4))
    cut = data.draw(st.integers(1, full.n_subsystems - 1))
    a_layout = SubsystemLayout(full.dims[:cut], full.labels[:cut])
    b_layout = SubsystemLayout(full.dims[cut:], full.labels[cut:])
    a = _random_hermitian(a_layout, seed)
    b = _random_hermitian(b_layout, seed + 1)
    got = kron(a, b)
    want = HermitianOperator(got.layout, np.kron(a.entries, b.entries))
    assert got.layout == full
    assert np.array_equal(got.entries, want.entries)


@SETTINGS
@given(st.data(), seeds)
def test_embed_matches_np_kron(data, seed):
    full = data.draw(layouts())
    keep = data.draw(st.lists(st.sampled_from(full.labels), min_size=1, unique=True))
    sub = SubsystemLayout(tuple(full.dims[full.axis(lab)] for lab in keep), tuple(keep))
    x = _random_hermitian(sub, seed)
    assert np.array_equal(embed(x, full).entries, _embed_by_np_kron(x, full))


@SETTINGS
@given(st.data(), seeds)
def test_partial_transpose_is_an_involution(data, seed):
    layout = data.draw(layouts())
    label = data.draw(st.sampled_from(layout.labels))
    x = _random_hermitian(layout, seed)
    twice = partial_transpose(partial_transpose(x, label), label)
    assert np.array_equal(twice.entries, x.entries)


#: Layouts of 1-5 factors small enough for the loop oracles.
small_layouts = layouts(max_factors=5).filter(lambda layout: layout.total_dim <= 64)


@SETTINGS
@given(small_layouts, seeds)
def test_marginal_map_blocks_match_oracle(layout, seed):
    m = _random_hermitian(layout, seed).entries
    plan = _marginal_map(layout, _proper_subsets(layout.labels))
    assert len(plan.sets) == 2**layout.n_subsystems - 2
    for sub, sub_layout, block in zip(plan.sets, plan.layouts,
                                      plan.blocks(plan.marginals(m))):
        keep = tuple(k for k, lab in enumerate(layout.labels) if lab in sub)
        assert sub_layout == layout.restrict(sub)
        assert np.max(np.abs(block - partial_trace_oracle(m, layout.dims, keep))) < 1e-12


@SETTINGS
@given(st.data(), small_layouts, seeds)
def test_partial_trace_matches_oracle(data, layout, seed):
    x = _random_hermitian(layout, seed)
    keep = data.draw(st.lists(st.sampled_from(layout.labels), min_size=1, unique=True))
    got = partial_trace(x, keep)
    assert got.layout == layout.restrict(keep)
    axes = tuple(k for k, lab in enumerate(layout.labels) if lab in keep)
    assert np.max(np.abs(got.entries - partial_trace_oracle(x.entries, layout.dims, axes))) < 1e-12
    stray = data.draw(st.sampled_from("FGZ"))
    with pytest.raises(UnknownLabel):
        partial_trace(x, [*keep, stray])
    with pytest.raises(DimensionError):
        partial_trace(x, [])


@st.composite
def wide_layouts(draw) -> SubsystemLayout:
    """Layouts of 1-8 factors, local dimensions 1-4, total dimension at most 256."""
    dims: list[int] = []
    for _ in range(draw(st.integers(1, 8))):
        dims.append(draw(st.integers(1, min(4, 256 // math.prod(dims)))))
    labels = draw(st.permutations("ABCDEFGH"))[: len(dims)]
    return SubsystemLayout(tuple(dims), tuple(labels))


@settings(max_examples=30, deadline=None)
@given(st.data(), wide_layouts(), seeds)
def test_one_set_map_traces_and_embeds_like_the_oracles(data, layout, seed):
    # partial_trace and embed build only the block they touch: d d_S entries
    x = _random_hermitian(layout, seed)
    keep = data.draw(st.lists(st.sampled_from(layout.labels), min_size=1, unique=True))
    got = partial_trace(x, keep)
    idx = _marginal_map(layout, (frozenset(keep),)).idx
    assert idx.dtype == np.int32 and idx.size == layout.total_dim * got.layout.total_dim
    axes = tuple(k for k, lab in enumerate(layout.labels) if lab in keep)
    assert np.max(np.abs(got.entries - partial_trace_oracle(x.entries, layout.dims, axes))) < 1e-12
    y = permute_subsystems(got, data.draw(st.permutations(got.layout.labels)))
    want = embed_oracle(y.entries, y.layout.labels, layout.dims, layout.labels)
    assert np.array_equal(embed(y, layout).entries, want)


@SETTINGS
@given(st.data(), small_layouts, seeds)
def test_marginal_map_adjoint_identity(data, layout, seed):
    # sum_S w_S Tr[Y_S rho_S] = Tr[(adjoint(Y, w) - 1) rho], on any requested
    # sets in any order, the full set included
    sets = data.draw(st.lists(st.frozensets(st.sampled_from(layout.labels), min_size=1),
                              min_size=1, unique=True))
    rng = np.random.default_rng(seed)
    plan = _marginal_map(layout, tuple(sets))
    assert plan.sets == tuple(sets)
    rho = random_density_matrix(layout, rng).entries
    ys = [_random_hermitian(sub, seed + i).entries / sub.total_dim
          for i, sub in enumerate(plan.layouts)]
    flat = np.concatenate([np.zeros(0, dtype=complex)] + [y.ravel() for y in ys])
    w = rng.standard_normal(len(ys))
    lhs = sum(w_s * np.trace(y @ r).real
              for w_s, y, r in zip(w, ys, plan.blocks(plan.marginals(rho))))
    rhs = np.trace((plan.adjoint(flat, w) - np.eye(layout.total_dim)) @ rho).real
    assert abs(lhs - rhs) <= 1e-12


@SETTINGS
@given(st.tuples(*[st.integers(1, 4)] * 3).filter(lambda dims: math.prod(dims) <= 32),
       st.permutations("ABC"), seeds)
def test_cut_witness_matches_oracle(dims, labels, seed):
    rho = random_density_matrix(SubsystemLayout(dims, tuple(labels)), np.random.default_rng(seed))
    for cut in CUTS:
        w = cut_witness_quantum(rho, cut)
        assert w.layout.labels == ("A", "B", "C")
        want = cut_witness_oracle(rho.entries, dims, tuple(labels), cut)
        assert np.max(np.abs(w.entries - want)) < 1e-12


def _random_distribution(dims: tuple[int, ...], seed: int) -> Distribution:
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.ones(math.prod(dims))) * (rng.random(math.prod(dims)) < 0.7)
    if p.sum() == 0:
        p[0] = 1.0
    return Distribution(dims, p / p.sum())


@SETTINGS
@given(st.tuples(*[st.integers(1, 4)] * 3), seeds, st.sampled_from(CUTS))
def test_classical_witness_is_the_quantum_diagonal(dims, seed, cut):
    p = _random_distribution(dims, seed)
    w = cut_witness_quantum(encode_distribution(p), cut)
    diag = np.real(np.diag(w.entries)).reshape(dims)
    assert np.max(np.abs(diag - cut_witness_classical(p, cut))) <= 1e-12


def _round_trip(obj):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "state.json")
        save_state(obj, path)
        return load_state(path)


@SETTINGS
@given(st.lists(st.integers(1, 4), min_size=1, max_size=3), seeds)
def test_distribution_file_round_trip(dims, seed):
    p = _random_distribution(tuple(dims), seed)
    back = _round_trip(p)
    assert back.outcome_dims == p.outcome_dims
    assert np.array_equal(back.probs, p.probs)


def _exactly_hermitian(x: HermitianOperator) -> bool:
    m = x.entries
    side = x.layout.total_dim
    return m.shape == (side, side) and not m.flags.writeable and np.array_equal(m, m.conj().T)


@SETTINGS
@given(st.data(), seeds)
def test_unchecked_results_are_exactly_hermitian(data, seed):
    full = data.draw(layouts(min_factors=2, max_factors=4))
    x = _random_hermitian(full, seed)
    keep = data.draw(st.lists(st.sampled_from(full.labels), min_size=1, unique=True))
    sub = SubsystemLayout(tuple(full.dims[full.axis(lab)] for lab in keep), tuple(keep))
    cut = data.draw(st.integers(1, full.n_subsystems - 1))
    a = _random_hermitian(SubsystemLayout(full.dims[:cut], full.labels[:cut]), seed + 1)
    b = _random_hermitian(SubsystemLayout(full.dims[cut:], full.labels[cut:]), seed + 2)
    y = _random_hermitian(full, seed + 3)
    results = [
        partial_trace(x, keep),
        partial_transpose(x, data.draw(st.sampled_from(full.labels))),
        permute_subsystems(x, data.draw(st.permutations(full.labels))),
        embed(_random_hermitian(sub, seed + 4), full),
        kron(a, b),
        x - y,
    ]
    assert all(_exactly_hermitian(r) for r in results)


@SETTINGS
@given(st.tuples(*[st.integers(1, 4)] * 3), st.permutations("ABC"), seeds,
       st.sampled_from(CUTS), st.booleans())
def test_witnesses_are_exactly_hermitian(dims, labels, seed, cut, pure):
    layout = SubsystemLayout(dims, tuple(labels))
    rng = np.random.default_rng(seed)
    rho = random_pure_state(layout, rng).to_density() if pure else random_density_matrix(layout, rng)
    margs = marginals_of(rho)
    assert all(_exactly_hermitian(m.op) for m in margs.values())
    assert _exactly_hermitian(hall_delta(margs).op)
    assert _exactly_hermitian(cut_witness_quantum(rho, cut).op)


@SETTINGS
@given(st.tuples(*[st.integers(1, 4)] * 3), st.permutations("ABC"), seeds,
       st.integers(1, 3), st.sampled_from(CUTS))
def test_supp_ker_test_fires_only_on_witnessed_cuts(dims, labels, seed, rank, cut):
    # A state of the given rank; whenever the support/kernel criterion fires,
    # the same cut's witness has a negative eigenvalue.
    layout = SubsystemLayout(dims, tuple(labels))
    rng = np.random.default_rng(seed)
    d = layout.total_dim
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    m = g @ g.conj().T
    rho = DensityMatrix(HermitianOperator(layout, m / np.trace(m).real))
    if supp_ker_test(rho, [cut])[0]:
        assert verdict(cut_witness_quantum(rho, cut)).witnessed


@st.composite
def hermitian_matrices(draw) -> np.ndarray:
    """A Hermitian matrix of side 1-64 and norm about 1 or less: a random one,
    a projector of any rank, or identity blocks (degenerate spectra, diagonal
    or in a random basis)."""
    d = draw(st.integers(1, 64))
    kind = draw(st.sampled_from(["random", "projector", "blocks", "diagonal blocks"]))
    rng = np.random.default_rng(draw(seeds))
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    if kind == "random":
        return (g + g.conj().T) / (4 * np.sqrt(d))
    q, _ = np.linalg.qr(g)
    if kind == "projector":
        v = q[:, : draw(st.integers(0, d))]
        return v @ v.conj().T
    vals = rng.integers(-2, 3, size=d) / 2
    return np.diag(vals) if kind == "diagonal blocks" else (q * vals) @ q.conj().T


@SETTINGS
@given(hermitian_matrices())
def test_lazy_eigenvectors_diagonalise(m):
    x = HermitianOperator(SubsystemLayout((len(m),), ("A",)), m)
    spec = hermitian_eig(x)
    u = spec.eigenvectors
    assert np.max(np.abs(u.conj().T @ u - np.eye(len(m)))) <= 1e-12
    scale = max(1.0, float(np.linalg.norm(x.entries, 2)))
    assert np.max(np.abs(x.entries @ u - u * spec.eigenvalues)) <= 1e-12 * scale


@SETTINGS
@given(hermitian_matrices())
def test_witnessed_evidence_is_a_unit_minimising_vector(m):
    # shifted so that the minimum eigenvalue is -0.25: always witnessed
    d = len(m)
    shifted = m - (np.linalg.eigvalsh(m)[0] + 0.25) * np.eye(d)
    w = WitnessOperator(HermitianOperator(SubsystemLayout((d,), ("A",)), shifted), "shifted")
    ev = verdict(w).evidence
    assert ev is not None
    v = ev.vector
    assert abs(np.linalg.norm(v) - 1.0) <= 1e-12
    assert abs(np.vdot(v, w.entries @ v) - ev.min_value) <= 1e-12


@SETTINGS
@given(st.data(), seeds)
def test_public_constructors_still_validate(data, seed):
    layout = data.draw(layouts())
    m = _random_hermitian(layout, seed).entries.copy()
    d = layout.total_dim
    i, j = data.draw(st.integers(0, d - 1)), data.draw(st.integers(0, d - 1))
    skewed = m.copy()
    skewed[i, j] += 1j if i == j else 1.0
    with pytest.raises(NotHermitian):
        HermitianOperator(layout, skewed)
    broken = m.copy()
    broken[i, j] = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    with pytest.raises(InvalidParameter, match="non-finite"):
        HermitianOperator(layout, broken)
    with pytest.raises(DimensionError):
        HermitianOperator(layout, np.eye(d + 1))
    with pytest.raises(DuplicateLabel):
        SubsystemLayout(layout.dims + (2,), layout.labels + layout.labels[:1])
    rho = random_density_matrix(layout, np.random.default_rng(seed))
    with pytest.raises(InvalidParameter, match="trace"):
        DensityMatrix(HermitianOperator(layout, rho.entries * 2.0))
    if d > 1:
        negative = np.diag([1 + 1e-3, -1e-3] + [0.0] * (d - 2))
        with pytest.raises(InvalidParameter, match="minimum eigenvalue"):
            DensityMatrix(HermitianOperator(layout, negative))


@SETTINGS
@given(st.data(), seeds)
def test_pure_state_file_round_trip(data, seed):
    psi = random_pure_state(data.draw(layouts()), np.random.default_rng(seed))
    back = _round_trip(psi)
    assert back.layout == psi.layout
    assert np.array_equal(back.entries, psi.to_density().entries)


@SETTINGS
@given(st.data(), seeds)
def test_mixed_state_file_round_trip(data, seed):
    rho = random_density_matrix(data.draw(layouts()), np.random.default_rng(seed))
    back = _round_trip(rho)
    assert back.layout == rho.layout
    assert np.array_equal(back.entries, rho.entries)


def _dag_key(g):
    return {(n.name, n.kind, n.base_name, n.copy_index) for n in g.nodes}, g.edges


@SETTINGS
@given(st.sampled_from([None, *CUTS[:3]]), st.randoms(use_true_random=False))
def test_dag_text_round_trip(cut, shuffle):
    g = build_triangle() if cut is None else build_cut_inflation(cut)
    text = format_dag(g)
    assert format_dag(parse_dag(text)) == text
    lines = text.splitlines()
    shuffle.shuffle(lines)
    assert _dag_key(parse_dag("\n".join(lines))) == _dag_key(g)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.floats(allow_nan=False, width=32)
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
param_names = st.sampled_from(["t", "p", "c", "p0", "p1", "alphas", "phi0", "phi1"])
layout_entries = st.fixed_dictionaries(
    {}, optional={"label": st.sampled_from("ABC") | json_values, "dim": st.integers(1, 3) | json_values}
)


@st.composite
def state_documents(draw) -> object:
    """JSON state files that are near misses of the accepted shapes."""
    doc = {
        "kind": draw(st.sampled_from(["pure", "mixed", "distribution", "family"]) | json_values),
        "layout": draw(st.lists(layout_entries, max_size=3) | json_values),
        "data": draw(json_values),
    }
    if draw(st.booleans()):
        doc["data"] = {
            "family_name": draw(st.sampled_from(sorted(FAMILIES)) | json_values),
            "params": draw(st.dictionaries(param_names, json_values, max_size=3) | json_values),
        }
    for key in ("kind", "layout", "data"):
        if draw(st.integers(0, 9)) == 0:
            del doc[key]
    return doc


@SETTINGS
@given(state_documents())
def test_witness_never_raises_on_state_files(doc):
    fd, path = tempfile.mkstemp(suffix=".json")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(doc, fh)
        assert main(["witness", path]) in (0, 1, 2)
    finally:
        os.remove(path)
