"""Tests for the labelled tensor-space linear algebra layer."""

from __future__ import annotations

import numpy as np
import pytest

from qinflate.errors import (
    DimensionError,
    DuplicateLabel,
    InvalidParameter,
    NoConvergence,
    NotHermitian,
    UnknownLabel,
)
from qinflate.linalg import (
    PSD_TOL,
    DensityMatrix,
    HermitianOperator,
    SubsystemLayout,
    _marginal_map,
    embed,
    hermitian_eig,
    kron,
    min_eigenvalue,
    partial_trace,
    partial_transpose,
    permute_subsystems,
)
from qinflate.states import ghz_state, random_density_matrix, random_pure_state

from oracles import eig2x2, embed_oracle, jacobi_eigh, kron_oracle, partial_trace_oracle

RNG = np.random.default_rng(20260823)


def random_hermitian(layout: SubsystemLayout, rng=RNG) -> HermitianOperator:
    d = layout.total_dim
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return HermitianOperator(layout, (m + m.conj().T) / 2)


QUBIT = SubsystemLayout((2,), ("A",))
QUBIT_B = SubsystemLayout((2,), ("B",))
QUBIT3 = SubsystemLayout((2, 2, 2), ("A", "B", "C"))


class TestSubsystemLayout:
    def test_basic_properties(self):
        lay = SubsystemLayout((2, 3, 4), ("A", "B", "C"))
        assert lay.total_dim == 24
        assert lay.n_subsystems == 3
        assert lay.axis("B") == 1
        assert lay.dim_of("C") == 4

    def test_restrict_preserves_order(self):
        lay = SubsystemLayout((2, 3, 4), ("B", "A", "C"))
        sub = lay.restrict({"C", "B"})
        assert sub.labels == ("B", "C")
        assert sub.dims == (2, 4)

    def test_sorted(self):
        lay = SubsystemLayout((4, 2), ("B", "A"))
        assert lay.sorted().labels == ("A", "B")
        assert lay.sorted().dims == (2, 4)

    def test_duplicate_labels_rejected(self):
        with pytest.raises(DuplicateLabel):
            SubsystemLayout((2, 2), ("A", "A"))

    def test_unknown_label(self):
        with pytest.raises(UnknownLabel):
            QUBIT3.axis("X")

    @pytest.mark.parametrize("dims", [(2.7, 2), (True, 2), (2, 2.0), ("2", 2)])
    def test_non_integer_dims_refused(self, dims):
        with pytest.raises(DimensionError, match="integers"):
            SubsystemLayout(dims, ("A", "B"))

    @pytest.mark.parametrize("labels", [(None, "B"), (1, "1"), (b"A", "B")])
    def test_non_string_labels_refused(self, labels):
        with pytest.raises(UnknownLabel, match="strings"):
            SubsystemLayout((2, 2), labels)

    def test_numpy_integers_and_strings_accepted(self):
        lay = SubsystemLayout(np.array([2, 3]), np.array(["A", "B"]))
        assert lay == SubsystemLayout((2, 3), ("A", "B"))
        assert all(type(d) is int for d in lay.dims)
        assert all(type(lab) is str for lab in lay.labels)


class TestHermitianOperator:
    def test_non_hermitian_rejected(self):
        with pytest.raises(NotHermitian):
            HermitianOperator(QUBIT, np.array([[0, 1], [0, 0]], dtype=complex))

    def test_wrong_shape_rejected(self):
        with pytest.raises(DimensionError):
            HermitianOperator(QUBIT3, np.eye(4))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        m = np.eye(2, dtype=complex)
        m[1, 1] = bad
        with pytest.raises(InvalidParameter, match="non-finite"):
            HermitianOperator(QUBIT, m)

    def test_entries_near_float_max_stay_finite(self):
        m = np.eye(2) * 1e308
        m[0, 1] = m[1, 0] = -1.7e308
        x = HermitianOperator(QUBIT, m)
        assert np.array_equal(x.entries, m.astype(complex))

    def test_arithmetic(self):
        x = random_hermitian(QUBIT3)
        y = random_hermitian(QUBIT3)
        np.testing.assert_allclose((x + y).entries, x.entries + y.entries)
        np.testing.assert_allclose((x - y).entries, x.entries - y.entries)
        np.testing.assert_allclose((2.0 * x).entries, 2 * x.entries)


def _count_calls(monkeypatch, name: str) -> list[int]:
    """Replace np.linalg.<name> by a wrapper counting its calls in calls[0]."""
    calls = [0]
    real = getattr(np.linalg, name)

    def counting(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counting)
    return calls


def _state_with_min_eigenvalue(layout: SubsystemLayout, lam: float, rng) -> np.ndarray:
    """A unit-trace Hermitian matrix, minimum eigenvalue `lam`, in a random basis."""
    d = layout.total_dim
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, _ = np.linalg.qr(g)
    vals = rng.uniform(0.5, 1.0, d)
    vals[0] = 0.0
    vals *= (1.0 - lam) / vals.sum()
    vals[0] = lam
    return (q * vals) @ q.conj().T


POSITIVITY_LAYOUTS = [
    SubsystemLayout((2, 2, 2), ("A", "B", "C")),
    SubsystemLayout((3, 4, 5), ("B", "C", "A")),
    SubsystemLayout((6, 6, 6), ("A", "B", "C")),
]


class TestDensityMatrixPositivity:
    """Positivity is decided by a Cholesky factorisation of rho + PSD_TOL 1;
    the minimum eigenvalue is computed only to report a refusal."""

    @pytest.mark.parametrize("layout", POSITIVITY_LAYOUTS, ids=lambda lay: str(lay.dims))
    def test_pure_states_accepted_without_eigenvalues(self, layout, monkeypatch):
        rng = np.random.default_rng(7)
        d = layout.total_dim
        basis = np.zeros((d, d))
        basis[0, 0] = 1.0  # exact zero eigenvalues
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        v /= np.linalg.norm(v)
        eigvalsh = _count_calls(monkeypatch, "eigvalsh")
        for m in (basis, np.outer(v, v.conj())):
            DensityMatrix(HermitianOperator(layout, m))
        assert eigvalsh[0] == 0

    @pytest.mark.parametrize("layout", POSITIVITY_LAYOUTS, ids=lambda lay: str(lay.dims))
    def test_boundary_at_psd_tol(self, layout, monkeypatch):
        rng = np.random.default_rng(8)
        inside = HermitianOperator(layout, _state_with_min_eigenvalue(layout, -0.5 * PSD_TOL, rng))
        outside = HermitianOperator(layout, _state_with_min_eigenvalue(layout, -2 * PSD_TOL, rng))
        eigvalsh = _count_calls(monkeypatch, "eigvalsh")
        DensityMatrix(inside)
        assert eigvalsh[0] == 0
        with pytest.raises(InvalidParameter, match="minimum eigenvalue -2.0"):
            DensityMatrix(outside)
        assert eigvalsh[0] == 1

    @pytest.mark.parametrize("layout", POSITIVITY_LAYOUTS, ids=lambda lay: str(lay.dims))
    def test_malformed_input_refused_before_positivity(self, layout, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("positivity checked on malformed input")

        monkeypatch.setattr(np.linalg, "cholesky", unreachable)
        monkeypatch.setattr(np.linalg, "eigvalsh", unreachable)
        d = layout.total_dim
        for bad in (np.nan, np.inf):
            m = np.eye(d, dtype=complex) / d
            m[d - 1, d - 1] = bad
            with pytest.raises(InvalidParameter, match="non-finite"):
                DensityMatrix(HermitianOperator(layout, m))
        m = np.eye(d, dtype=complex) / d
        m[0, d - 1] = 1e-3
        with pytest.raises(NotHermitian):
            DensityMatrix(HermitianOperator(layout, m))


class TestKron:
    def test_identity_case(self):
        out = kron(HermitianOperator(QUBIT, np.eye(2)), HermitianOperator(QUBIT_B, np.eye(2)))
        np.testing.assert_allclose(out.entries, np.eye(4))

    def test_basis_projectors(self):
        p0 = HermitianOperator(QUBIT, np.diag([1.0, 0.0]))
        p1 = HermitianOperator(QUBIT_B, np.diag([0.0, 1.0]))
        out = kron(p0, p1)
        np.testing.assert_allclose(out.entries, np.diag([0.0, 1.0, 0.0, 0.0]))
        assert out.layout.labels == ("A", "B")

    def test_matches_index_formula_oracle(self):
        a = random_hermitian(QUBIT)
        b = random_hermitian(QUBIT_B)
        np.testing.assert_allclose(
            kron(a, b).entries, kron_oracle(a.entries, b.entries), atol=1e-12
        )

    def test_label_collision(self):
        with pytest.raises(DuplicateLabel):
            kron(HermitianOperator(QUBIT, np.eye(2)), HermitianOperator(QUBIT, np.eye(2)))

    def test_trace_projection_property(self):
        a = random_hermitian(QUBIT)
        b = random_hermitian(QUBIT_B)
        reduced = partial_trace(kron(a, b), {"A"})
        np.testing.assert_allclose(reduced.entries, b.trace() * a.entries, atol=1e-12)


class TestPartialTrace:
    def test_product_state(self):
        rho_a = HermitianOperator(QUBIT, np.diag([0.7, 0.3]))
        rho_b = HermitianOperator(QUBIT_B, np.diag([0.2, 0.8]))
        rho_c = HermitianOperator(SubsystemLayout((2,), ("C",)), np.diag([0.5, 0.5]))
        joint = kron(kron(rho_a, rho_b), rho_c)
        out = partial_trace(joint, {"A", "B"})
        np.testing.assert_allclose(out.entries, kron(rho_a, rho_b).entries, atol=1e-12)

    def test_ghz_single_marginal_maximally_mixed(self):
        rho = ghz_state().projector()
        out = partial_trace(rho, {"A"})
        np.testing.assert_allclose(out.entries, np.eye(2) / 2, atol=1e-12)

    def test_matches_summation_oracle(self):
        x = random_hermitian(QUBIT3)
        for keep, axes in ((("A",), (0,)), (("B", "C"), (1, 2)), (("A", "C"), (0, 2))):
            got = partial_trace(x, set(keep))
            want = partial_trace_oracle(x.entries, (2, 2, 2), axes)
            np.testing.assert_allclose(got.entries, want, atol=1e-12)

    def test_trace_preserved(self):
        x = random_hermitian(QUBIT3)
        assert partial_trace(x, {"B"}).trace() == pytest.approx(x.trace())

    def test_unknown_label(self):
        with pytest.raises(UnknownLabel):
            partial_trace(random_hermitian(QUBIT3), {"Z"})

    def test_bare_string_keep_refused(self):
        # "AB" would be read as the labels A and B, not as the factor "AB"
        x = random_hermitian(SubsystemLayout((3, 2, 2), ("AB", "A", "B")))
        for keep in ("AB", "A"):
            with pytest.raises(UnknownLabel):
                partial_trace(x, keep)
        assert partial_trace(x, ["AB"]).layout.labels == ("AB",)

    def test_one_qubit_of_eight_builds_one_small_block(self):
        # one block of 2 x 2 entries, each a run of 128: 512 int32 entries,
        # not the 1,613,824 of every proper subset
        layout = SubsystemLayout((2,) * 8, tuple("ABCDEFGH"))
        proj = random_pure_state(layout, np.random.default_rng(8)).projector()
        _marginal_map.cache_clear()
        partial_trace(proj, {"D"})
        assert _marginal_map.cache_info().currsize == 1
        idx = _marginal_map(layout, (frozenset("D"),)).idx
        assert idx.dtype == np.int32 and idx.size == 512
        assert _marginal_map.cache_info().currsize == 1


class TestPartialTranspose:
    def test_product_invariance(self):
        a = HermitianOperator(QUBIT, np.diag([0.25, 0.75]))
        b = random_hermitian(QUBIT_B)
        joint = kron(a, b)
        np.testing.assert_allclose(
            partial_transpose(joint, "A").entries, joint.entries, atol=1e-12
        )

    def test_bell_state_negative_eigenvalue(self):
        lay = SubsystemLayout((2, 2), ("A", "B"))
        v = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
        bell = HermitianOperator(lay, np.outer(v, v.conj()))
        assert min_eigenvalue(partial_transpose(bell, "B")) == pytest.approx(-0.5)

    def test_involution(self):
        x = random_hermitian(QUBIT3)
        twice = partial_transpose(partial_transpose(x, "A"), "A")
        np.testing.assert_allclose(twice.entries, x.entries, atol=1e-14)


class TestHermitianEig:
    def test_diagonal(self):
        lay = SubsystemLayout((3,), ("A",))
        spec = hermitian_eig(HermitianOperator(lay, np.diag([3.0, 1.0, 2.0])))
        np.testing.assert_allclose(spec.eigenvalues, [1, 2, 3])

    def test_pauli_x(self):
        x = HermitianOperator(QUBIT, np.array([[0, 1], [1, 0]], dtype=complex))
        spec = hermitian_eig(x)
        np.testing.assert_allclose(spec.eigenvalues, [-1, 1])
        minus = spec.eigenvectors[:, 0]
        plus = spec.eigenvectors[:, 1]
        np.testing.assert_allclose(np.abs(minus), [1 / np.sqrt(2)] * 2, atol=1e-12)
        np.testing.assert_allclose(np.abs(plus), [1 / np.sqrt(2)] * 2, atol=1e-12)

    def test_reconstruction_and_unitarity(self):
        x = random_hermitian(QUBIT3)
        spec = hermitian_eig(x)
        np.testing.assert_allclose(spec.reconstruct(), x.entries, atol=1e-9)
        u = spec.eigenvectors
        np.testing.assert_allclose(u.conj().T @ u, np.eye(8), atol=1e-10)

    def test_matches_jacobi_oracle(self):
        for _ in range(10):
            x = random_hermitian(QUBIT3)
            np.testing.assert_allclose(
                hermitian_eig(x).eigenvalues, jacobi_eigh(x.entries), atol=1e-9
            )

    def test_matches_2x2_closed_form(self):
        for _ in range(20):
            x = random_hermitian(QUBIT)
            np.testing.assert_allclose(
                hermitian_eig(x).eigenvalues, eig2x2(x.entries), atol=1e-12
            )

    def test_large_reconstruction(self):
        lay = SubsystemLayout((4, 4, 4), ("A", "B", "C"))
        x = random_hermitian(lay)
        spec = hermitian_eig(x)
        assert np.max(np.abs(spec.reconstruct() - x.entries)) < 1e-9


    def test_eigenvectors_computed_once_on_first_read(self, monkeypatch):
        eigh = _count_calls(monkeypatch, "eigh")
        x = random_hermitian(QUBIT3)
        spec = hermitian_eig(x)
        assert spec.entries is x.entries
        assert eigh[0] == 0
        u = spec.eigenvectors
        assert eigh[0] == 1
        assert spec.eigenvectors is u
        assert eigh[0] == 1
        assert not (u.flags.writeable or spec.eigenvalues.flags.writeable)
        np.testing.assert_allclose(spec.reconstruct(), x.entries, atol=1e-12)

    def test_failures_raise_no_convergence(self, monkeypatch):
        def diverging(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        x = random_hermitian(QUBIT3)
        spec = hermitian_eig(x)
        monkeypatch.setattr(np.linalg, "eigh", diverging)
        with pytest.raises(NoConvergence):
            spec.eigenvectors
        monkeypatch.setattr(np.linalg, "eigvalsh", diverging)
        with pytest.raises(NoConvergence):
            hermitian_eig(x)


class TestEmbedPermute:
    def test_embed_then_trace_recovers(self):
        a = random_hermitian(QUBIT)
        out = embed(a, QUBIT3)
        assert out.layout.labels == ("A", "B", "C")
        np.testing.assert_allclose(
            partial_trace(out, {"A"}).entries, 4 * a.entries, atol=1e-12
        )

    def test_embed_matches_oracle(self):
        # 1-5 parties, local dimensions 1-4 (total dimension at most 96, to
        # keep the entry-by-entry oracle quick), labels in random order, no,
        # one or several factors missing from the embedded operator
        rng = np.random.default_rng(31)
        missing = []
        while len(missing) < 60:
            n = int(rng.integers(1, 6))
            dims = tuple(int(d) for d in rng.integers(1, 5, size=n))
            if np.prod(dims) > 96:
                continue
            labels = tuple(str(s) for s in rng.permutation(list("ABCDE"))[:n])
            full = SubsystemLayout(dims, labels)
            k = int(rng.integers(1, n + 1))
            sub_labels = tuple(str(s) for s in rng.permutation(labels)[:k])
            sub = SubsystemLayout(tuple(full.dim_of(lab) for lab in sub_labels), sub_labels)
            x = random_hermitian(sub, rng)
            got = embed(x, full)
            assert got.layout == full
            assert np.array_equal(got.entries, embed_oracle(x.entries, sub_labels, dims, labels))
            missing.append(n - k)
        assert {0, 1, 2, 3} <= set(missing)

    def test_failed_checks_raise_on_every_call(self):
        # a failed check is never cached as a plan
        stray = random_hermitian(SubsystemLayout((2,), ("Z",)))
        wide = random_hermitian(SubsystemLayout((3,), ("A",)))
        for _ in range(2):
            with pytest.raises(UnknownLabel):
                embed(stray, QUBIT3)
            with pytest.raises(DimensionError):
                embed(wide, QUBIT3)
            with pytest.raises(UnknownLabel):
                partial_trace(random_hermitian(QUBIT3), {"Z"})

    def test_permute_roundtrip(self):
        x = random_hermitian(QUBIT3)
        y = permute_subsystems(permute_subsystems(x, ("C", "A", "B")), ("A", "B", "C"))
        np.testing.assert_allclose(y.entries, x.entries, atol=1e-14)

    def test_permute_invalid(self):
        with pytest.raises(UnknownLabel):
            permute_subsystems(random_hermitian(QUBIT3), ("A", "B", "Z"))


class TestPositivityProperties:
    def test_lambda_positive_any_cardinality(self):
        # alternating sum including the full joint term is PSD for 2, 3, 4 parties
        rng = np.random.default_rng(5)
        import itertools

        for n in (2, 3, 4):
            labels = tuple("ABCD"[:n])
            lay = SubsystemLayout((2,) * n, labels)
            for _ in range(20):
                rho = random_density_matrix(lay, rng)
                acc = HermitianOperator(lay, np.eye(lay.total_dim))
                for r in range(1, n + 1):
                    for combo in itertools.combinations(labels, r):
                        sign = -1.0 if r % 2 else 1.0
                        marg = partial_trace(rho.op, set(combo))
                        acc = acc + sign * embed(marg, lay)
                assert min_eigenvalue(acc) >= -1e-9
