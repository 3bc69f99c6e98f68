"""Property-based tests of exact algebraic identities and the state-file format.

The Kronecker and embedding kernels are compared bit for bit with the
np.kron formulas they stand in for, on layouts with local dimensions 1-4 and
labels in no particular order.
"""

from __future__ import annotations

import math
import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qinflate.cli import load_state, save_state
from qinflate.linalg import HermitianOperator, SubsystemLayout, embed, kron, partial_transpose
from qinflate.states import Distribution, encode_distribution
from qinflate.witness import cut_witness_classical, cut_witness_quantum

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
    rest = tuple(full.dim_of(lab) for lab in missing)
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
    sub = SubsystemLayout(tuple(full.dim_of(lab) for lab in keep), tuple(keep))
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


@SETTINGS
@given(st.lists(st.integers(1, 4), min_size=1, max_size=3), seeds)
def test_distribution_file_round_trip(dims, seed):
    p = _random_distribution(tuple(dims), seed)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "p.json")
        save_state(p, path)
        back = load_state(path)
    assert back.outcome_dims == p.outcome_dims
    assert np.array_equal(back.probs, p.probs)
