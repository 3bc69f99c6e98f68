"""Tests for the witness operators, verdicts, and closed-form spectra."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qinflate.errors import (
    DimensionError,
    DomainError,
    InvalidParameter,
    OddCardinalityRequired,
    UnknownLabel,
)
from qinflate import linalg, witness
from qinflate.linalg import (
    DensityMatrix,
    HermitianOperator,
    SubsystemLayout,
    _marginal_map,
    _proper_subsets,
    kron,
    partial_trace,
    permute_subsystems,
)
from qinflate.states import (
    QUBIT3,
    Distribution,
    LocalBasis,
    encode_distribution,
    ghz_distn,
    ghz_state,
    measure_local,
    nu_decomposition,
    qutrit_pair,
    random_density_matrix,
    random_pure_state,
    schmidt224,
    toth_acin,
    toth_acin_operator,
    tri_bell,
    w_distn,
    w_state,
    white_noise_mixture,
)
from qinflate.witness import (
    GHZ_FIDELITY_THRESHOLD,
    QUTRIT_MIXED_REFERENCE,
    WitnessOperator,
    cut_witness_classical,
    cut_witness_quantum,
    fidelity_witness,
    hall_delta,
    marginals_of,
    pure_delta_structure,
    supp_ker_test,
    tri_bell_cubic,
    tri_bell_eigs,
    toth_acin_eigs,
    verdict,
    werner_ghz_eigs,
    werner_thresholds,
    werner_w_eigs,
)

from oracles import (
    classical_cut_tensor_oracle,
    cut_witness_oracle,
    jacobi_eigh,
    supp_ker_oracle,
)

CUTS = (("A", "B"), ("A", "C"), ("B", "C"))


class TestHallDelta:
    def test_psd_on_genuine_marginals(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            rho = random_density_matrix(QUBIT3, rng)
            d = hall_delta(marginals_of(rho))
            assert d.min_eigenvalue() > -1e-10

    def test_psd_on_five_qubit_marginals(self):
        labels = tuple("ABCDE")
        rho = random_density_matrix(SubsystemLayout((2,) * 5, labels), np.random.default_rng(16))
        margs = marginals_of(rho)
        assert len(margs) == 30
        d = hall_delta(margs)
        assert d.layout.labels == labels
        assert d.min_eigenvalue() > -1e-10

    def test_marginals_of_an_accepted_state(self):
        # -0.9e-10 on |0bc>: the state passes the PSD check at -9e-11, yet its
        # marginal on A sums four such entries to -3.6e-10, which the public
        # check would refuse. Marginals of a density matrix are density
        # matrices by construction and are not re-checked.
        diag = np.array([-0.9e-10] * 4 + [(1 + 3.6e-10) / 4] * 4)
        rho = DensityMatrix(HermitianOperator(QUBIT3, np.diag(diag)))
        margs = marginals_of(rho)
        m_a = margs[frozenset({"A"})]
        assert m_a.entries[0, 0].real == pytest.approx(-3.6e-10)
        with pytest.raises(InvalidParameter, match="minimum eigenvalue"):
            DensityMatrix(m_a.op)
        delta = hall_delta(margs)
        assert delta.layout == QUBIT3
        assert np.isfinite(delta.spectrum.eigenvalues).all()

    def test_even_cardinality_rejected(self):
        layout = SubsystemLayout((2, 2), ("A", "B"))
        rho = DensityMatrix(HermitianOperator(layout, np.eye(4) / 4))
        with pytest.raises(OddCardinalityRequired):
            hall_delta(marginals_of(rho))

    def test_only_marginals_of_is_taken(self):
        # Delta trusts its marginals to come from one joint state, so any
        # other mapping, a copy of marginals_of's included, is refused
        margs = marginals_of(ghz_state().to_density())
        for other in (dict(margs), {}):
            with pytest.raises(InvalidParameter, match="marginals_of"):
                hall_delta(other)

    def test_built_without_partial_trace_or_embed(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("called")

        for module in (linalg, witness):
            for name in ("partial_trace", "embed"):
                monkeypatch.setattr(module, name, refuse)
        rho = random_density_matrix(SubsystemLayout((2, 3, 2), ("C", "A", "B")),
                                    np.random.default_rng(18))
        delta = hall_delta(marginals_of(rho))
        assert delta.layout == rho.layout.sorted()

    def test_one_int32_marginal_map_per_layout(self):
        # The three cut witnesses and Delta of one state share one all-subsets
        # marginal map, that of the alphabetically sorted layout, with an
        # int32 index. Every other map is one block, of a partial_trace or an
        # embed: the six sets of one or two factors.
        rho = random_density_matrix(SubsystemLayout((2, 3, 2), ("C", "A", "B")),
                                    np.random.default_rng(19))
        full = rho.layout.sorted()
        _marginal_map.cache_clear()
        for cut in CUTS:
            cut_witness_quantum(rho, cut)
        hall_delta(marginals_of(rho))
        assert _marginal_map.cache_info().currsize == 7
        shared = _marginal_map(full, _proper_subsets(full.labels))
        assert shared.idx.dtype == np.int32 and len(shared.sets) == 6
        for sub in shared.sets:
            one = _marginal_map(full, (sub,))
            assert one.idx.dtype == np.int32 and one.idx.size == 12 * one.layouts[0].total_dim
        assert _marginal_map.cache_info().currsize == 7

    def test_marginals_of_is_read_only(self):
        margs = marginals_of(ghz_state().to_density())
        with pytest.raises(TypeError):
            margs[frozenset({"A"})] = margs[frozenset({"B"})]
        with pytest.raises(TypeError):
            del margs[frozenset({"A", "B"})]
        assert len(margs) == 6

    def test_witness_decomposition_identity(self):
        # I_xy equals Delta plus (rho_x (x) rho_y - rho_xy) (x) 1_z
        rng = np.random.default_rng(12)
        for _ in range(10):
            rho = random_density_matrix(QUBIT3, rng)
            delta = hall_delta(marginals_of(rho))
            for x, y in CUTS:
                w = cut_witness_quantum(rho, (x, y))
                rx = partial_trace(rho.op, {x})
                ry = partial_trace(rho.op, {y})
                rxy = partial_trace(rho.op, {x, y})
                diff = kron(rx, ry) - permute_subsystems(rxy, tuple(sorted((x, y))))
                (z,) = [lab for lab in "ABC" if lab not in (x, y)]
                rz_id = HermitianOperator(SubsystemLayout((2,), (z,)), np.eye(2))
                full = QUBIT3
                from qinflate.linalg import embed

                term = embed(kron(diff, rz_id), full)
                lhs = w.entries
                rhs = delta.entries + term.entries
                assert np.max(np.abs(lhs - rhs)) < 1e-10


class TestClassicalWitness:
    def test_matches_oracle_on_random_distributions(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            t = rng.random((2, 3, 2))
            t /= t.sum()
            p = Distribution((2, 3, 2), t.reshape(-1))
            for ax, ay, cut in ((0, 1, ("A", "B")), (0, 2, ("A", "C")), (1, 2, ("B", "C"))):
                got = cut_witness_classical(p, cut)
                want = classical_cut_tensor_oracle(t, ax, ay)
                assert np.max(np.abs(got - want)) < 1e-12

    def test_delta_nonnegative_for_genuine_joint(self):
        rng = np.random.default_rng(14)
        t = rng.random((2, 2, 2))
        t /= t.sum()
        p = Distribution((2, 2, 2), t.reshape(-1))
        d = hall_delta(marginals_of(encode_distribution(p)))
        assert np.real(np.diag(d.entries)).min() >= -1e-12

    def test_rejects_bad_cuts(self):
        p = ghz_distn()
        for cut in (("A", "A"), ("A", "X"), ("a", "b")):
            with pytest.raises(UnknownLabel):
                cut_witness_classical(p, cut)
        with pytest.raises(DimensionError):
            cut_witness_classical(Distribution((2, 2), np.full(4, 0.25)), ("A", "B"))

    def test_diagonal_state_matches_distribution_witness(self):
        # For classical (diagonal) states the quantum witness diagonal equals
        # the classical cut tensor.
        for p in (ghz_distn(), w_distn()):
            rho = encode_distribution(p)
            for cut in CUTS:
                w = cut_witness_quantum(rho, cut)
                diag = np.real(np.diag(w.entries)).reshape(p.outcome_dims)
                tensor = cut_witness_classical(p, cut)
                assert np.max(np.abs(diag - tensor)) < 1e-12


class TestCutWitness:
    def test_hermitian_unit_trace_identity_like(self):
        # a fully mixed state gives I_xy = 1 - small corrections; compute directly
        rho = DensityMatrix(HermitianOperator(QUBIT3, np.eye(8) / 8))
        for cut in CUTS:
            w = cut_witness_quantum(rho, cut)
            # every marginal is maximally mixed: I = 1 - 3/2^1 ... compute
            # directly: 1 - 3*(1/2) + 1/4 + 1/4 + 1/4 = 1/4 on the diagonal
            assert np.max(np.abs(w.entries - 0.25 * np.eye(8))) < 1e-12

    def test_matches_oracle_on_unsorted_mixed_dimensions(self):
        dims, labels = (3, 2, 2), ("C", "A", "B")
        rho = random_density_matrix(SubsystemLayout(dims, labels), np.random.default_rng(17))
        for cut in CUTS + (("C", "A"),):
            w = cut_witness_quantum(rho, cut)
            assert w.layout.labels == ("A", "B", "C")
            want = cut_witness_oracle(rho.entries, dims, labels, cut)
            assert np.max(np.abs(w.entries - want)) < 1e-13

    def test_rejects_bad_labels(self):
        rho = ghz_state().to_density()
        with pytest.raises(UnknownLabel):
            cut_witness_quantum(rho, ("A", "A"))
        with pytest.raises(UnknownLabel):
            cut_witness_quantum(rho, ("A", "X"))

    def test_rejects_a_cut_that_is_not_a_pair(self):
        rho = ghz_state().to_density()
        for cut in (("A",), ("A", "B", "C"), "AB", None, (1, 2)):
            with pytest.raises(UnknownLabel):
                cut_witness_quantum(rho, cut)

    def test_rejects_wrong_arity(self):
        layout = SubsystemLayout((2, 2), ("A", "B"))
        rho = DensityMatrix(HermitianOperator(layout, np.eye(4) / 4))
        with pytest.raises(DimensionError):
            cut_witness_quantum(rho, ("A", "B"))

    def test_spectrum_matches_jacobi_oracle(self):
        rng = np.random.default_rng(15)
        rho = random_density_matrix(QUBIT3, rng)
        for cut in CUTS:
            w = cut_witness_quantum(rho, cut)
            oracle = jacobi_eigh(w.entries)
            assert np.max(np.abs(w.spectrum.eigenvalues - oracle)) < 1e-9

    def test_invariant_under_cut_order(self):
        rho = w_state().to_density()
        a = cut_witness_quantum(rho, ("A", "B")).entries
        b = cut_witness_quantum(rho, ("B", "A")).entries
        assert np.max(np.abs(a - b)) < 1e-14

    def test_eigenvalue_clusters(self):
        w = cut_witness_quantum(tri_bell(4.0).to_density(), ("A", "B"))
        clusters = w.eigenvalue_clusters()
        assert all(mult == 2 for _, mult in clusters)
        assert sum(mult for _, mult in clusters) == 8

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -1.0, "x", True])
    def test_eigenvalue_clusters_bad_tolerance(self, tol):
        # NaN or -1 would split GHZ's double eigenvalue -0.25 into two clusters
        w = cut_witness_quantum(ghz_state().to_density(), ("A", "B"))
        assert w.eigenvalue_clusters()[0] == (pytest.approx(-0.25), 2)
        with pytest.raises(InvalidParameter, match="tolerance"):
            w.eigenvalue_clusters(tol)


class TestVerdict:
    def test_witnessed_on_ghz(self):
        rho = ghz_state().to_density()
        for cut in CUTS:
            v = verdict(cut_witness_quantum(rho, cut))
            assert v.witnessed
            assert v.evidence is not None
            assert v.evidence.min_value < -0.2
            assert v.evidence.vector is not None

    def test_inconclusive_on_product(self):
        amps = np.zeros(8)
        amps[0] = 1.0
        from qinflate.states import PureState

        rho = PureState(QUBIT3, amps).to_density()
        for cut in CUTS:
            assert not verdict(cut_witness_quantum(rho, cut)).witnessed

    def test_classical_verdict_carries_outcome(self):
        t = cut_witness_classical(ghz_distn(), ("A", "B"))
        v = verdict(t)
        assert v.witnessed
        assert v.evidence.outcome is not None
        assert t[v.evidence.outcome] == pytest.approx(v.evidence.min_value)

    def test_complex_tensor_refused(self):
        # a cast to float would drop -1j and call this inconclusive
        for t in (np.array([-1j, 2]), [0.5 + 0j, 1.0]):
            with pytest.raises(InvalidParameter, match="complex"):
                verdict(t)

    def test_threshold_respected(self):
        t = np.array([[-1e-9, 0.1], [0.2, 0.3]])
        assert not verdict(t).witnessed
        assert verdict(t, tol=1e-10).witnessed

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -1.0])
    def test_bad_tolerance_rejected(self, tol):
        # -1 would call the maximally mixed state (minimum +0.25) witnessed
        mixed = cut_witness_quantum(white_noise_mixture(ghz_state(), 0.0), ("A", "B"))
        for w in (mixed, np.array([[0.25]])):
            with pytest.raises(InvalidParameter, match="tolerance"):
                verdict(w, tol)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_tensor_rejected(self, bad):
        with pytest.raises(InvalidParameter, match="non-finite"):
            verdict(np.array([[bad, 0.1], [0.2, 0.3]]))

    @pytest.mark.parametrize("empty", [[], [[]], np.zeros((2, 0, 3))])
    def test_empty_tensor_rejected(self, empty):
        # an empty witness has no minimum to decide on
        with pytest.raises(InvalidParameter, match="no values"):
            verdict(np.array(empty))


def _count_calls(monkeypatch, name: str) -> list[int]:
    """Replace np.linalg.<name> by a wrapper counting its calls in calls[0]."""
    calls = [0]
    real = getattr(np.linalg, name)

    def counting(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counting)
    return calls


def _count_eigensolves(monkeypatch) -> tuple[list[int], list[int]]:
    """Counters of np.linalg.eigvalsh and np.linalg.eigh calls."""
    return _count_calls(monkeypatch, "eigvalsh"), _count_calls(monkeypatch, "eigh")


def _with_spectrum(vals: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """A Hermitian matrix with eigenvalues `vals`, in a random unitary basis."""
    d = len(vals)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return (q * vals) @ q.conj().T


def _witnesses_and_verdicts(rho: DensityMatrix) -> list:
    """The three cut witnesses and Delta of rho, with their verdicts."""
    ws = [cut_witness_quantum(rho, cut) for cut in CUTS]
    ws.append(hall_delta(marginals_of(rho)))
    return [(w, verdict(w)) for w in ws]


class TestLazyEigenvectors:
    """A verdict decides the sign by a Cholesky factorisation, so building a
    witness and an inconclusive verdict compute no eigenvalue; a witnessed
    verdict takes its minimum eigenvalue and vector from one eigh."""

    def test_product_state_computes_no_eigenvectors(self, monkeypatch):
        rng = np.random.default_rng(12)
        factors = [random_density_matrix(SubsystemLayout((d,), (lab,)), rng).op
                   for d, lab in ((3, "C"), (2, "A"), (4, "B"))]
        rho = DensityMatrix(kron(kron(factors[0], factors[1]), factors[2]))
        calls = _count_calls(monkeypatch, "eigh")
        assert not any(v.witnessed for _, v in _witnesses_and_verdicts(rho))
        assert calls[0] == 0

    @pytest.mark.parametrize("dims", [(4, 4, 4), (5, 6, 4), (6, 6, 6)])
    def test_inconclusive_large_states_compute_no_eigenvectors(self, dims, monkeypatch):
        # random mixed states on the local dimensions 4-6 of a large scan
        rng = np.random.default_rng(13)
        layout = SubsystemLayout(dims, ("A", "B", "C"))
        eigvalsh, calls = _count_eigensolves(monkeypatch)
        d = layout.total_dim
        g = rng.standard_normal((d, 3)) + 1j * rng.standard_normal((d, 3))
        rank3 = DensityMatrix(HermitianOperator(layout, g @ g.conj().T / np.linalg.norm(g) ** 2))
        for rho in (random_density_matrix(layout, rng), random_pure_state(layout, rng).to_density(),
                    rank3):
            assert not any(v.witnessed for _, v in _witnesses_and_verdicts(rho))
        # not even eigenvalues: each verdict is one factorisation
        assert calls[0] == eigvalsh[0] == 0

    def test_witnessed_verdict_computes_eigenvectors_once(self, monkeypatch):
        calls = _count_calls(monkeypatch, "eigh")
        w = cut_witness_quantum(tri_bell(2 / 0.19).to_density(), ("A", "B"))
        assert calls[0] == 0
        v = verdict(w)
        assert v.witnessed
        assert calls[0] == 1
        vecs = w.spectrum.eigenvectors
        assert w.spectrum.eigenvectors is vecs
        assert np.shares_memory(v.evidence.vector, vecs)
        assert verdict(w).witnessed
        assert calls[0] == 1

    def test_witnessed_verdict_runs_one_eigh_and_no_eigvalsh(self, monkeypatch):
        ws = [cut_witness_quantum(ghz_state().to_density(), ("A", "C")),
              cut_witness_quantum(qutrit_pair(0.5, 0.25)[0].to_density(), ("B", "C"))]
        eigvalsh, eigh = _count_eigensolves(monkeypatch)
        for k, w in enumerate(ws, 1):
            v = verdict(w)
            assert v.witnessed
            assert (eigvalsh[0], eigh[0]) == (0, k)
            # the verdict's spectrum is the witness's: values and vector agree
            assert v.evidence.min_value == w.min_eigenvalue() < -linalg.VERDICT_TOL
            assert np.shares_memory(v.evidence.vector, w.spectrum.eigenvectors)
        assert (eigvalsh[0], eigh[0]) == (0, len(ws))

    def test_a_spectrum_read_first_decides_without_factorising(self, monkeypatch):
        product = DensityMatrix(HermitianOperator(QUBIT3, np.diag([1.0] + [0.0] * 7)))
        ws = [cut_witness_quantum(rho, ("A", "B")) for rho in (product, ghz_state().to_density())]
        lows = [w.spectrum.eigenvalues[0] for w in ws]
        cholesky = _count_calls(monkeypatch, "cholesky")
        eigvalsh, eigh = _count_eigensolves(monkeypatch)
        assert [verdict(w).witnessed for w in ws] == [False, True]
        assert [w.spectrum.eigenvalues[0] for w in ws] == lows
        # the witnessed cut reads its evidence vector, and nothing else runs
        assert (cholesky[0], eigvalsh[0], eigh[0]) == (0, 0, 1)

    @pytest.mark.parametrize("dims", [(2, 2, 2), (3, 4, 5), (6, 6, 6)])
    def test_boundary_at_verdict_tol(self, dims, monkeypatch):
        # as DensityMatrix's positivity check at PSD_TOL: a minimum eigenvalue
        # of -0.5 tol factorises, one of -2 tol does not and is witnessed
        rng = np.random.default_rng(16)
        layout = SubsystemLayout(dims, ("A", "B", "C"))
        tol = linalg.VERDICT_TOL
        inside, outside = (
            WitnessOperator(HermitianOperator(layout, _with_spectrum(vals, rng)), "test")
            for vals in (np.r_[-0.5 * tol, rng.uniform(0.5, 1.0, layout.total_dim - 1)],
                         np.r_[-2.0 * tol, rng.uniform(0.5, 1.0, layout.total_dim - 1)])
        )
        eigvalsh, eigh = _count_eigensolves(monkeypatch)
        assert not verdict(inside).witnessed
        assert eigvalsh[0] == eigh[0] == 0
        v = verdict(outside)
        assert v.witnessed
        assert v.evidence.min_value == pytest.approx(-2.0 * tol, rel=1e-6)
        assert (eigvalsh[0], eigh[0]) == (0, 1)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 32), st.integers(0, 2**32 - 1), st.floats(-2.0, 2.0),
           st.sampled_from([0.0, 1e-10, linalg.VERDICT_TOL, 1e-6]),
           st.one_of(st.none(), st.floats(-9.0, -5.0)), st.booleans())
    def test_cholesky_verdict_is_the_eigenvalue_rule(self, d, seed, log_scale, tol,
                                                      log_offset, below):
        # random Hermitian matrices of norm 1e-2 to 1e2, and ones with the
        # minimum eigenvalue placed 1e-9 to 1e-5 on either side of -tol
        rng = np.random.default_rng(seed)
        scale = 10.0 ** log_scale
        if log_offset is None:
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            m = scale * (g + g.conj().T) / (4 * np.sqrt(d))
        else:
            low = -tol + (-1.0 if below else 1.0) * 10.0 ** log_offset
            m = _with_spectrum(np.r_[low, low + scale * rng.uniform(0.0, 1.0, d - 1)], rng)
        w = WitnessOperator(HermitianOperator(SubsystemLayout((d,), ("A",)), m), "test")
        lam = float(np.linalg.eigvalsh(w.entries)[0])
        assume(abs(lam + tol) > 1e-12 * float(np.linalg.norm(w.entries, 2)))
        assert verdict(w, tol).witnessed == (lam < -tol)

    def test_non_finite_witness_refused_before_factorising(self, monkeypatch):
        # a unit-trace operator whose rho_A(0, 1) sums four entries of 1e308
        m = np.eye(8, dtype=complex) / 8
        for i in range(4):
            m[i, 4 + i] = m[4 + i, i] = 1e308
        with np.errstate(over="ignore", invalid="ignore"):
            w = cut_witness_quantum(HermitianOperator(QUBIT3, m), ("A", "B"))
        assert not np.isfinite(w.entries).all()

        def unreachable(*args, **kwargs):
            raise AssertionError("a non-finite witness reached LAPACK")

        for name in ("cholesky", "eigvalsh", "eigh"):
            monkeypatch.setattr(np.linalg, name, unreachable)
        with pytest.raises(InvalidParameter, match="non-finite"):
            verdict(w)

    @pytest.mark.parametrize("op, kind", [
        (np.eye(8), "test"),
        (ghz_state().to_density(), "test"),
        (HermitianOperator(QUBIT3, np.eye(8)), 3),
        (HermitianOperator(QUBIT3, np.eye(8)), None),
    ], ids=["array", "density matrix", "int kind", "no kind"])
    def test_witness_needs_an_operator_and_a_kind(self, op, kind):
        # the spectrum is computed on first read, so a bad operator is
        # refused when the witness is built, not when it is first decided
        with pytest.raises(InvalidParameter, match="HermitianOperator and a str kind"):
            WitnessOperator(op, kind)


class TestPureDeltaStructure:
    def test_decomposition_holds_for_random_pure(self):
        rng = np.random.default_rng(16)
        for _ in range(25):
            psi = random_pure_state(QUBIT3, rng)
            conj = pure_delta_structure(psi)
            rho = psi.to_density()
            delta = hall_delta(marginals_of(rho))
            assert np.max(np.abs(delta.entries - (rho.entries + conj.entries))) <= 1e-9
            # rank of Delta is at most 2 for pure three-qubit states
            evs = delta.spectrum.eigenvalues
            assert np.sum(evs > 1e-9) <= 2
            assert conj.trace() == pytest.approx(1.0, abs=1e-10)

    def test_w_state_delta_matrix(self):
        # Delta on the W state has entries in {0, 1/3}: the projector onto W
        # plus the projector onto its spin-flip image.
        delta = hall_delta(marginals_of(w_state().to_density()))
        m = permute_subsystems(delta.op, ("A", "B", "C")).entries
        want = np.zeros((8, 8))
        w_idx = [1, 2, 4]  # |001>, |010>, |100>
        wb_idx = [3, 5, 6]  # |011>, |101>, |110>
        for block in (w_idx, wb_idx):
            for i in block:
                for j in block:
                    want[i, j] = 1 / 3
        assert np.max(np.abs(m - want)) < 1e-12

    def test_rejects_non_qubit(self):
        from qinflate.states import PureState, QUTRIT3

        amps = np.zeros(27)
        amps[0] = 1.0
        with pytest.raises(DimensionError):
            pure_delta_structure(PureState(QUTRIT3, amps))


class TestSuppKerTest:
    def test_fires_on_ghz(self):
        rho = ghz_state().to_density()
        assert any(supp_ker_test(rho, CUTS))

    def test_one_eigh_per_decomposition(self, monkeypatch):
        # per cut: nu's split, whose negative eigenvectors span nu_minus's
        # support, then Delta once; every one of them reads its vectors, so
        # none runs eigvalsh first, and nothing is diagonalised on the full space
        eigvalsh, eigh = _count_eigensolves(monkeypatch)
        assert supp_ker_test(ghz_state().to_density(), CUTS) == [True] * 3
        assert (eigvalsh[0], eigh[0]) == (0, len(CUTS) + 1)

    def test_unsorted_state_builds_maps_of_the_sorted_layout_only(self):
        # the nu split traces the sorted operator, so it shares the witnesses'
        # layout: every cached map is among the seven of the sorted layout
        rho = random_pure_state(SubsystemLayout((2, 2, 2), ("C", "A", "B")),
                                np.random.default_rng(4)).to_density()
        full = rho.layout.sorted()
        _marginal_map.cache_clear()
        assert supp_ker_test(rho, CUTS) == supp_ker_oracle(rho.entries, (2, 2, 2),
                                                           ("C", "A", "B"), CUTS)
        sets = _proper_subsets(full.labels)
        for request in [sets, *((sub,) for sub in sets)]:
            _marginal_map(full, request)
        assert _marginal_map.cache_info().currsize == 7

    def test_rejects_a_single_cut_passed_as_the_list(self):
        # one cut where a list of cuts belongs is refused before any work
        rho = ghz_state().to_density()
        with pytest.raises(UnknownLabel):
            supp_ker_test(rho, ("A", "B"))
        with pytest.raises(UnknownLabel):
            supp_ker_test(rho, [("A", "B"), ("A", "X")])

    def test_sound_when_it_fires(self):
        # whenever the support/kernel criterion fires, the same cut's witness
        # has a negative eigenvalue
        rng = np.random.default_rng(17)
        fired = 0
        for _ in range(40):
            psi = random_pure_state(QUBIT3, rng)
            rho = psi.to_density()
            for cut, fires in zip(CUTS, supp_ker_test(rho, CUTS)):
                if fires:
                    fired += 1
                    assert verdict(cut_witness_quantum(rho, cut)).witnessed
        assert fired > 0

    def test_agrees_with_oracle(self):
        # local dimensions 1-4 under permuted labels; 60% pure states, the rest
        # rank-2 mixtures and states of full rank
        rng = np.random.default_rng(123)
        fired = []
        for k in range(200):
            dims = tuple(int(d) for d in rng.integers(1, 5, size=3))
            labels = tuple(str(s) for s in rng.permutation(["A", "B", "C"]))
            lay = SubsystemLayout(dims, labels)
            d = lay.total_dim
            rank = (1, 1, 1, 2, d)[k % 5]
            g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
            m = g @ g.conj().T
            rho = DensityMatrix(HermitianOperator(lay, m / np.trace(m).real))
            got = supp_ker_test(rho, CUTS)
            assert got == supp_ker_oracle(rho.entries, dims, labels, CUTS), (dims, labels, k)
            fired += got
        assert any(fired) and not all(fired)

    def test_silent_on_product_state(self):
        from qinflate.states import PureState

        amps = np.zeros(8)
        amps[0] = 1.0
        rho = PureState(QUBIT3, amps).to_density()
        assert supp_ker_test(rho, CUTS) == [False] * 3


class TestFidelityWitness:
    def test_ghz_and_w_fidelities(self):
        f_ghz, f_w, flagged = fidelity_witness(ghz_state().to_density())
        assert f_ghz == pytest.approx(1.0)
        assert f_w == pytest.approx(0.0, abs=1e-12)
        assert flagged
        f_ghz, f_w, flagged = fidelity_witness(w_state().to_density())
        assert f_w == pytest.approx(1.0)
        assert flagged

    def test_threshold_values(self):
        assert GHZ_FIDELITY_THRESHOLD == pytest.approx((1 + np.sqrt(3)) / 4)

    def test_not_flagged_on_noise(self):
        rho = DensityMatrix(HermitianOperator(QUBIT3, np.eye(8) / 8))
        _, _, flagged = fidelity_witness(rho)
        assert not flagged


class TestTriBell:
    def test_cubic_matches_assembled_spectrum(self):
        for t in (3.0, 5.0, 2 / 0.19, 40.0):
            w = cut_witness_quantum(tri_bell(t).to_density(), ("A", "B"))
            closed = tri_bell_eigs(t)
            assert np.max(np.abs(w.spectrum.eigenvalues - closed)) < 1e-9

    def test_vieta_product_negative(self):
        for t in (2.5, 3.0, 10.0, 100.0):
            (b, c, d), roots, prod = tri_bell_cubic(t)
            assert prod == pytest.approx(-d)
            assert prod == pytest.approx(float(np.prod(roots)), rel=1e-9)
            assert prod < 0  # at least one negative root for every t > 2

    def test_roots_satisfy_cubic(self):
        (b, c, d), roots, _ = tri_bell_cubic(7.3)
        for r in roots:
            assert abs(r**3 + b * r**2 + c * r + d) < 1e-6

    def test_domain(self):
        with pytest.raises(DomainError):
            tri_bell_cubic(2.0)

    def test_min_eig_at_leading_amplitude_09(self):
        t = 2 / 0.19
        w = cut_witness_quantum(tri_bell(t).to_density(), ("A", "B"))
        clusters = w.eigenvalue_clusters()
        assert clusters[0][0] == pytest.approx(-0.0529889, abs=5e-7)
        assert clusters[0][1] == 2


class TestWerner:
    def test_ghz_closed_form_matches_assembled(self):
        for p in (0.0, 0.3, 0.5, 0.8, 1.0):
            rho = white_noise_mixture(ghz_state(), p)
            w = cut_witness_quantum(rho, ("A", "B"))
            assert np.max(np.abs(w.spectrum.eigenvalues - werner_ghz_eigs(p))) < 1e-10

    def test_w_closed_form_matches_assembled(self):
        for p in (0.0, 0.4, 0.627, 0.9, 1.0):
            rho = white_noise_mixture(w_state(), p)
            w = cut_witness_quantum(rho, ("A", "B"))
            assert np.max(np.abs(w.spectrum.eigenvalues - werner_w_eigs(p))) < 1e-10

    def test_thresholds(self):
        rep = werner_thresholds()
        assert rep.ghz_threshold == pytest.approx(0.5, abs=1e-9)
        assert rep.w_threshold == pytest.approx(0.6270, abs=5e-4)
        # verdict flips across each threshold
        for psi, thr in ((ghz_state(), rep.ghz_threshold), (w_state(), rep.w_threshold)):
            below = white_noise_mixture(psi, thr - 1e-3)
            above = white_noise_mixture(psi, thr + 1e-3)
            assert not verdict(cut_witness_quantum(below, ("A", "B"))).witnessed
            assert verdict(cut_witness_quantum(above, ("A", "B"))).witnessed


class TestTothAcin:
    def test_closed_form_matches_assembled(self):
        for c in (-1.0, -0.5, 0.0, 0.4, 1.0):
            op = toth_acin_operator(c)
            w = cut_witness_quantum(op, ("A", "B"))
            assert np.max(np.abs(w.spectrum.eigenvalues - toth_acin_eigs(c))) < 1e-10

    def test_witnessed_for_all_nonzero_c(self):
        # 4 + 3c - 2 sqrt(4 + 6c + 9c^2) is strictly negative unless c = 0
        for c in (-0.6, -0.3, 0.5, 1.0):
            rho = toth_acin(c)
            assert verdict(cut_witness_quantum(rho, ("A", "B"))).witnessed
        assert not verdict(cut_witness_quantum(toth_acin(0.0), ("A", "B"))).witnessed

    def test_min_eig_zero_at_c_zero(self):
        assert float(toth_acin_eigs(0.0)[0]) == pytest.approx(0.0, abs=1e-12)


def _mixed_qutrit_spectra(p0, p1):
    _, mixed = qutrit_pair(p0, p1)
    return [cut_witness_quantum(mixed, cut).spectrum.eigenvalues for cut in CUTS]


class TestQutrits:
    def test_mixed_reference_spectrum(self):
        for spec in _mixed_qutrit_spectra(0.5, 0.25):
            assert np.max(np.abs(spec - QUTRIT_MIXED_REFERENCE)) < 1e-9

    def test_pure_witnessed_at_reference_weights(self):
        pure, _ = qutrit_pair(0.5, 0.25)
        witnesses = [cut_witness_quantum(pure.to_density(), cut) for cut in CUTS]
        assert min(w.min_eigenvalue() for w in witnesses) == pytest.approx(-0.013480, abs=5e-6)
        assert any(verdict(w).witnessed for w in witnesses)

    def test_mixed_independent_of_weights(self):
        a = _mixed_qutrit_spectra(0.5, 0.25)
        b = _mixed_qutrit_spectra(0.2, 0.7)
        for spec_a, spec_b in zip(a, b):
            assert np.max(np.abs(spec_a - spec_b)) < 1e-10


def _schmidt224_entry(a0, a4, a5, a6, a7, phi0=0.0):
    """<010| I_AC |010> on the qubit-qubit-ququart state with these coefficients."""
    psi = schmidt224((a0, 0.0, 0.0, 0.0, a4, a5, a6, a7), phi0=phi0, enforce_ordering=False)
    w = cut_witness_quantum(psi.to_density(), ("A", "C"))
    return float(np.real(w.entries[4, 4]))


class TestSchmidt224Entry:
    def test_closed_form(self):
        a0, a4 = 0.5, 0.3
        rest = 1 - a0**2 - a4**2
        a5 = np.sqrt(rest * 0.5)
        a6 = np.sqrt(rest * 0.3)
        a7 = np.sqrt(rest * 0.2)
        entry = _schmidt224_entry(a0, a4, a5, a6, a7)
        assert entry == pytest.approx(-(a0**2) * (1 - a0**2 - a4**2))
        assert entry < 0

    def test_with_phase(self):
        a0, a4 = 0.4, 0.2
        rest = 1 - a0**2 - a4**2
        a5 = np.sqrt(rest / 3)
        a6 = np.sqrt(rest / 3)
        a7 = np.sqrt(rest / 3)
        entry = _schmidt224_entry(a0, a4, a5, a6, a7, phi0=0.8)
        assert entry == pytest.approx(-(a0**2) * (1 - a0**2 - a4**2))


class TestMeasuredDistributions:
    def test_computational_measurement_reproduces_diagonal(self):
        rho = ghz_state().to_density()
        p = measure_local(rho, LocalBasis((np.eye(2),) * 3))
        assert p.probs[0] == pytest.approx(0.5)
        assert p.probs[7] == pytest.approx(0.5)
        v = verdict(cut_witness_classical(p, ("A", "B")))
        assert v.witnessed

    def test_pauli_x_measurement_of_ghz(self):
        # X-basis statistics of GHZ: parity of the three outcomes is even
        p = measure_local(ghz_state().to_density(), LocalBasis.pauli_x())
        t = p.tensor
        for idx in np.ndindex(2, 2, 2):
            if sum(idx) % 2 == 0:
                assert t[idx] == pytest.approx(0.25)
            else:
                assert t[idx] == pytest.approx(0.0, abs=1e-12)


class TestLinearIndependence:
    def test_witnessed_pure_states_span_dim_at_least_3(self):
        # every pure state witnessed on some cut has local supports spanning
        # at least dimension 3 overall (it cannot be a product across the cut)
        rng = np.random.default_rng(18)
        for _ in range(20):
            psi = random_pure_state(QUBIT3, rng)
            rho = psi.to_density()
            for x, y in CUTS:
                if not verdict(cut_witness_quantum(rho, (x, y))).witnessed:
                    continue
                nu = nu_decomposition(rho, x, y)
                # a nonzero negative part certifies rho_xy != rho_x (x) rho_y
                assert nu.nu_minus.trace() > 1e-12
