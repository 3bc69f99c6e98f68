"""Tests for the state-family constructors and measurement-induced distributions."""

from __future__ import annotations

import json

import numpy as np
import pytest

from qinflate.cli import load_state, save_state
from qinflate.errors import (
    ConstraintViolated,
    DimensionError,
    DomainError,
    InvalidParameter,
)
from qinflate.linalg import HermitianOperator, SubsystemLayout, min_eigenvalue, partial_trace
from qinflate.states import (
    QUBIT3,
    Distribution,
    LocalBasis,
    PureState,
    encode_distribution,
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
    toth_acin,
    toth_acin_operator,
    tri_bell,
    tri_bell_t_from_amplitude,
    w_distn,
    w_state,
    white_noise_mixture,
    z3_twirl,
)
from qinflate.witness import (
    toth_acin_eigs,
    tri_bell_cubic,
    verdict,
    werner_ghz_eigs,
    werner_w_eigs,
)

from oracles import partial_trace_oracle

RNG = np.random.default_rng(417)


class TestNamedStates:
    def test_ghz_amplitudes(self):
        a = ghz_state().amplitudes
        assert a[0] == pytest.approx(1 / np.sqrt(2))
        assert a[7] == pytest.approx(1 / np.sqrt(2))
        assert np.count_nonzero(a) == 2

    def test_w_amplitudes(self):
        a = w_state().amplitudes
        for idx in (1, 2, 4):
            assert a[idx] == pytest.approx(1 / np.sqrt(3))
        assert np.count_nonzero(a) == 3

    def test_norms(self):
        assert np.linalg.norm(ghz_state().amplitudes) == pytest.approx(1.0)
        assert np.linalg.norm(w_state().amplitudes) == pytest.approx(1.0)

    def test_density_of_any_accepted_vector(self):
        # a norm inside the tolerance gives a trace just outside it; the
        # vector was validated, so its projector is not checked again
        v = np.zeros(8, dtype=complex)
        v[0] = 1 + 0.9e-10
        psi = PureState(QUBIT3, v)
        assert np.array_equal(psi.to_density().entries, psi.projector().entries)

    def test_distributions(self):
        g = ghz_distn()
        assert g.probs[0] == g.probs[7] == 0.5
        w = w_distn()
        assert w.probs[1] == w.probs[2] == w.probs[4] == pytest.approx(1 / 3)

    def test_encode_ghz(self):
        rho = encode_distribution(ghz_distn())
        np.testing.assert_allclose(np.diag(rho.entries).real[[0, 7]], [0.5, 0.5])
        assert np.count_nonzero(rho.entries - np.diag(np.diag(rho.entries))) == 0

    def test_encode_point_mass_is_projector(self):
        p = np.zeros(8)
        p[3] = 1.0
        rho = encode_distribution(Distribution((2, 2, 2), p))
        np.testing.assert_allclose(rho.entries @ rho.entries, rho.entries, atol=1e-14)


class TestNonFiniteInput:
    def test_pure_state(self):
        v = np.full(8, np.nan, dtype=complex)
        with pytest.raises(InvalidParameter, match="finite"):
            PureState(QUBIT3, v)

    def test_distribution(self):
        p = np.full(8, 1 / 7)
        p[0] = np.nan
        with pytest.raises(InvalidParameter, match="finite"):
            Distribution((2, 2, 2), p)

    def test_local_basis(self):
        u = np.eye(2)
        u[0, 1] = np.inf
        with pytest.raises(InvalidParameter, match="finite"):
            LocalBasis((np.eye(2), u, np.eye(2)))

    @pytest.mark.parametrize("dims, probs", [((-2, -2), [0.25] * 4), ((0, 2), [])])
    def test_distribution_dimension_below_one(self, dims, probs):
        with pytest.raises(DimensionError, match=">= 1"):
            Distribution(dims, probs)

    @pytest.mark.parametrize("dims", [(2.5, 2), (True, 4), (2, 2.0)])
    def test_distribution_non_integer_dimension(self, dims):
        # int() would read 2.5 as 2 and True as 1
        with pytest.raises(DimensionError, match="integers"):
            Distribution(dims, [0.25] * 4)

    def test_distribution_numpy_integer_dimensions(self):
        p = Distribution(np.array([2, 2]), [0.25] * 4)
        assert p.outcome_dims == (2, 2) and all(type(d) is int for d in p.outcome_dims)


QUBIT = SubsystemLayout((2,), ("A",))
TENSOR = np.array([[0.25, 0.5], [0.5, 0.25]])

# Every public numeric constructor and scalar parameter, as a call on the one
# value under test, with a valid value of that shape.
NUMERIC_INPUTS = {
    "HermitianOperator": (lambda v: HermitianOperator(QUBIT, v), [[1, 0], [0, 0]]),
    "PureState": (lambda v: PureState(QUBIT, v), [1, 0]),
    "Distribution": (lambda v: Distribution((2,), v), [1, 0]),
    "LocalBasis": (lambda v: LocalBasis((v,)), [[1, 0], [0, 1]]),
    "schmidt224": (schmidt224, [1] + [0] * 7),
    "schmidt224 phase": (lambda v: schmidt224([1] + [0] * 7, phi0=v), 0.5),
    "tri_bell": (tri_bell, 5),
    "tri_bell_t_from_amplitude": (tri_bell_t_from_amplitude, 0.9),
    "tri_bell_cubic": (tri_bell_cubic, 5),
    "toth_acin": (toth_acin, 0.1),
    "toth_acin_eigs": (toth_acin_eigs, 0.1),
    "white_noise_mixture": (lambda v: white_noise_mixture(ghz_state(), v), 0.5),
    "qutrit_pair": (lambda v: qutrit_pair(v, 0.25), 0.5),
    "werner_ghz_eigs": (werner_ghz_eigs, 0.5),
    "werner_w_eigs": (werner_w_eigs, 0.5),
    "verdict": (verdict, TENSOR),
    "verdict tol": (lambda v: verdict(TENSOR, tol=v), 1e-8),
}
COMPLEX_ACCEPTED = ("HermitianOperator", "PureState", "LocalBasis")


def _bad_inputs():
    """The valid value of each input as a string, a boolean, an object array
    holding an int too large for a float, a complex number where only real
    ones are accepted, and (arrays only: a scalar's NaN is left to its range
    check) with a NaN entry, and as nested lists with a boolean among the
    numbers, which numpy alone would read as 0 or 1."""
    for name, (_, valid) in NUMERIC_INPUTS.items():
        if np.ndim(valid) == 0:
            bad = {"str": str(valid), "bool": True, "object": 10**400}
        else:
            v = np.asarray(valid)
            big, nan, among = v.astype(object), v.astype(float), v.astype(object)
            big.flat[0], nan.flat[0], among.flat[0] = 10**400, np.nan, True
            bad = {"str": v.astype(str), "bool": v.astype(bool), "object": big, "nan": nan,
                   "bool-among-numbers": among.tolist()}
        if name not in COMPLEX_ACCEPTED:
            bad["complex"] = np.asarray(valid, dtype=complex)
        for kind, value in bad.items():
            yield pytest.param(name, value, id=f"{name}-{kind}")


class TestNonNumericInput:
    @pytest.mark.parametrize("name, value", _bad_inputs())
    def test_refused(self, name, value):
        call, valid = NUMERIC_INPUTS[name]
        call(valid)
        with pytest.raises(InvalidParameter):
            call(value)


class TestTriBell:
    def test_boundary_is_permuted_w(self):
        a = tri_bell(3).amplitudes
        for idx in (1, 2, 4):
            assert a[idx] == pytest.approx(1 / np.sqrt(3))

    def test_amplitude_09(self):
        t = tri_bell_t_from_amplitude(0.9)
        a = tri_bell(t).amplitudes
        assert a[4] == pytest.approx(0.9)
        assert a[1] == pytest.approx(np.sqrt(0.095))
        assert a[2] == pytest.approx(np.sqrt(0.095))

    def test_norm_across_parameters(self):
        for t in (3, 5, 10, 100):
            assert np.linalg.norm(tri_bell(t).amplitudes) == pytest.approx(1.0)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            tri_bell(2.5)

    def test_amplitude_range(self):
        for a in (np.sqrt(1 / 3), 1 / np.sqrt(3), 1 / np.sqrt(3) - 5e-13):
            assert tri_bell_t_from_amplitude(a) >= 3
        for a in (1 / np.sqrt(3) - 1e-10, 0.5, 1.0, np.nan):
            with pytest.raises(DomainError):
                tri_bell_t_from_amplitude(a)


class TestOmega:
    def test_trace(self):
        assert omega_example().op.trace() == pytest.approx(1.0)

    def test_fidelities(self):
        rho = omega_example()
        g = ghz_state().amplitudes
        w = w_state().amplitudes
        assert np.real(g.conj() @ rho.entries @ g) == pytest.approx(0.209, abs=1e-6)
        assert np.real(w.conj() @ rho.entries @ w) == pytest.approx(0.233333, abs=1e-6)


class TestWhiteNoise:
    def test_extremes(self):
        psi = ghz_state()
        np.testing.assert_allclose(
            white_noise_mixture(psi, 1.0).entries, psi.projector().entries, atol=1e-14
        )
        np.testing.assert_allclose(
            white_noise_mixture(psi, 0.0).entries, np.eye(8) / 8, atol=1e-14
        )

    def test_domain(self):
        with pytest.raises(DomainError):
            white_noise_mixture(ghz_state(), 1.5)


class TestTothAcin:
    def test_c0_factorizes(self):
        rho = toth_acin(0.0)
        rho_a = partial_trace(rho.op, {"A"})
        rho_bc = partial_trace(rho.op, {"B", "C"})
        np.testing.assert_allclose(rho_a.entries, np.eye(2) / 2, atol=1e-12)
        np.testing.assert_allclose(
            rho.entries, np.kron(rho_a.entries, rho_bc.entries), atol=1e-12
        )

    def test_c1_valid_state(self):
        rho = toth_acin(1.0)
        assert rho.op.trace() == pytest.approx(1.0)
        assert min_eigenvalue(rho.op) >= -1e-10

    def test_invalid_c_rejected(self):
        with pytest.raises(InvalidParameter):
            toth_acin(-1.0)

    def test_operator_unit_trace_outside_psd_range(self):
        assert toth_acin_operator(-1.0).trace() == pytest.approx(1.0)

    def test_pauli_coefficients(self):
        # recover the Pauli coefficients by Hilbert-Schmidt projection
        from qinflate.states import PAULI

        c = 0.7
        m = toth_acin_operator(c).entries
        eye = np.eye(2)
        for k in ("X", "Y", "Z"):
            s = PAULI[k]
            d = np.trace(np.kron(s, np.kron(s, eye)) @ m).real / 8
            e = np.trace(np.kron(s, np.kron(eye, s)) @ m).real / 8
            f = np.trace(np.kron(eye, np.kron(s, s)) @ m).real / 8
            assert d == pytest.approx(-c / 16)
            assert e == pytest.approx(-c / 16)
            assert f == pytest.approx(1 / 24)


class TestQutrits:
    def test_components_have_nine_equal_amplitudes(self):
        pure, _ = qutrit_pair(1.0, 0.0)
        nz = np.abs(pure.amplitudes) > 1e-12
        assert nz.sum() == 9
        np.testing.assert_allclose(np.abs(pure.amplitudes[nz]), 1 / 3)

    def test_twirl_matches_mixture(self):
        pure, mixed = qutrit_pair(0.5, 0.25)
        np.testing.assert_allclose(
            z3_twirl(pure.to_density()).entries, mixed.entries, atol=1e-10
        )

    def test_twirl_idempotent(self):
        pure, _ = qutrit_pair(0.3, 0.4)
        once = z3_twirl(pure.to_density())
        twice = z3_twirl(once)
        np.testing.assert_allclose(once.entries, twice.entries, atol=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            qutrit_pair(0.8, 0.5)


class TestSchmidt224:
    def test_single_term(self):
        psi = schmidt224((1, 0, 0, 0, 0, 0, 0, 0))
        assert psi.amplitudes[0] == pytest.approx(1.0)
        assert np.count_nonzero(psi.amplitudes) == 1

    def test_two_term_ghz_like(self):
        psi = schmidt224((1 / np.sqrt(2), 0, 0, 0, 1 / np.sqrt(2), 0, 0, 0))
        # |000> at index 0 and |110> at index 12 in the (2,2,4) product basis
        assert abs(psi.amplitudes[0]) == pytest.approx(1 / np.sqrt(2))
        assert abs(psi.amplitudes[12]) == pytest.approx(1 / np.sqrt(2))

    def test_restricted_family_accepted(self):
        al = np.sqrt(np.array([0.4, 0, 0, 0, 0.3, 0.2, 0.05, 0.05]))
        psi = schmidt224(al, phi0=0.3, phi1=0.0)
        want = np.zeros(16, dtype=complex)
        want[[0, 12, 13, 14, 15]] = al[[0, 4, 5, 6, 7]]  # kets 000, 110, 111, 112, 113
        want[0] *= np.exp(0.3j)
        np.testing.assert_allclose(psi.amplitudes, want, atol=1e-15)

    def test_ordering_constraint(self):
        with pytest.raises(ConstraintViolated):
            schmidt224((0.5, 0, 0, 0, 0.5, np.sqrt(0.5), 0, 0))
        # same coefficients accepted when the canonical ordering is waived
        schmidt224((0.5, 0, 0, 0, 0.5, np.sqrt(0.5), 0, 0), enforce_ordering=False)

    def test_normalization_enforced(self):
        with pytest.raises(ConstraintViolated):
            schmidt224((1, 0, 0, 0, 1, 0, 0, 0))


class TestMeasureLocal:
    def test_ghz_computational(self):
        d = measure_local(ghz_state().to_density(), LocalBasis((np.eye(2),) * 3))
        np.testing.assert_allclose(d.probs, ghz_distn().probs, atol=1e-12)

    def test_product_state_product_distribution(self):
        v = np.kron([np.sqrt(0.3), np.sqrt(0.7)], np.kron([1, 0], [0.6, 0.8]))
        psi = PureState(QUBIT3, v.astype(complex))
        d = measure_local(psi.to_density(), LocalBasis((np.eye(2),) * 3))
        expected = np.kron([0.3, 0.7], np.kron([1, 0], [0.36, 0.64]))
        np.testing.assert_allclose(d.probs, expected, atol=1e-12)

    def test_encode_roundtrip(self):
        probs = RNG.dirichlet(np.ones(8))
        d = Distribution((2, 2, 2), probs)
        out = measure_local(encode_distribution(d), LocalBasis((np.eye(2),) * 3))
        np.testing.assert_allclose(out.probs, d.probs, atol=1e-14)

    def test_axis_labels_agree_past_26_variables(self, tmp_path):
        # The state file and the encoded layout name a distribution's
        # variables alike, also past Z.
        d = Distribution((1,) * 27, [1.0])
        path = str(tmp_path / "p.json")
        save_state(d, path)
        back = load_state(path)
        assert back.outcome_dims == d.outcome_dims
        assert np.array_equal(back.probs, d.probs)
        with open(path) as fh:
            file_labels = tuple(e["label"] for e in json.load(fh)["layout"])
        assert len(set(file_labels)) == 27
        assert encode_distribution(d).layout.labels == file_labels

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            measure_local(ghz_state().to_density(), LocalBasis((np.eye(3),) * 3))


class TestNuDecomposition:
    def test_product_state_nu_minus_zero(self):
        v = np.kron([1, 0], np.kron([0.6, 0.8], [1, 0])).astype(complex)
        nu = nu_decomposition(PureState(QUBIT3, v).to_density(), "A", "B")
        assert np.max(np.abs(nu.nu_minus.entries)) < 1e-12

    def test_w_state_difference_matrix(self):
        rho = w_state().to_density()
        nu = nu_decomposition(rho, "A", "B")
        diff = nu.nu_plus.entries - nu.nu_minus.entries
        expected = np.array(
            [
                [1 / 9, 0, 0, 0],
                [0, -1 / 9, -1 / 3, 0],
                [0, -1 / 3, -1 / 9, 0],
                [0, 0, 0, 1 / 9],
            ]
        )
        np.testing.assert_allclose(diff, expected, atol=1e-12)

    def test_invariants(self):
        for _ in range(20):
            rho = random_density_matrix(QUBIT3, RNG)
            nu = nu_decomposition(rho, "A", "C")
            assert min_eigenvalue(nu.nu_plus) >= -1e-9
            assert min_eigenvalue(nu.nu_minus) >= -1e-9
            overlap = np.trace(nu.nu_plus.entries @ nu.nu_minus.entries).real
            assert abs(overlap) < 1e-9

    def test_correlated_marginals_have_negative_part(self):
        # non-product pair marginals always produce a negative eigenvalue
        for _ in range(1000):
            psi = random_pure_state(QUBIT3, RNG)
            rho = psi.to_density()
            rho_ab = partial_trace(rho.op, {"A", "B"})
            rho_a = partial_trace(rho.op, {"A"}).entries
            rho_b = partial_trace(rho.op, {"B"}).entries
            diff = np.kron(rho_a, rho_b) - rho_ab.entries
            if np.linalg.norm(diff) > 1e-6:
                assert np.linalg.eigvalsh(diff)[0] < 0


class TestBiseparability:
    def test_product_cut_found(self):
        v = np.zeros(8, dtype=complex)
        v[0] = v[3] = 1 / np.sqrt(2)  # |0> (x) (|00> + |11>)/sqrt(2)
        result = is_biseparable_pure(PureState(QUBIT3, v))
        assert result == ("A", ("B", "C"))

    def test_ghz_not_biseparable(self):
        assert is_biseparable_pure(ghz_state()) is None

    def test_tri_bell_not_biseparable(self):
        assert is_biseparable_pure(tri_bell(5)) is None


class TestRandomEnsembles:
    def test_random_pure_normalized(self):
        psi = random_pure_state(QUBIT3, RNG)
        assert np.linalg.norm(psi.amplitudes) == pytest.approx(1.0)

    def test_random_mixed_valid(self):
        lay = SubsystemLayout((2, 3), ("A", "B"))
        rho = random_density_matrix(lay, RNG)
        assert rho.op.trace() == pytest.approx(1.0)
        assert min_eigenvalue(rho.op) >= -1e-10

    def test_random_mixed_matches_traced_purification(self):
        for dims in ((2,), (2, 2), (3, 2)):
            lay = SubsystemLayout(dims, tuple("ABC"[: len(dims)]))
            d = lay.total_dim
            rho = random_density_matrix(lay, np.random.default_rng(5))
            rng = np.random.default_rng(5)
            v = rng.standard_normal(d * d) + 1j * rng.standard_normal(d * d)
            v /= np.linalg.norm(v)
            want = partial_trace_oracle(
                np.outer(v, v.conj()), dims + (d,), tuple(range(len(dims)))
            )
            np.testing.assert_allclose(rho.entries, want / np.trace(want).real, atol=1e-14)

    def test_random_mixed_valid_on_4x4x4(self):
        lay = SubsystemLayout((4, 4, 4), ("A", "B", "C"))
        rho = random_density_matrix(lay, np.random.default_rng(6))
        assert rho.layout == lay
        assert rho.op.trace() == pytest.approx(1.0, abs=1e-12)
        vals = np.linalg.eigvalsh(rho.entries)
        assert vals[0] >= -1e-12
        # a purification with a 64-dimensional environment has full rank
        assert vals[0] > 1e-8

    def test_seeded_reproducibility(self):
        a = random_pure_state(QUBIT3, np.random.default_rng(11)).amplitudes
        b = random_pure_state(QUBIT3, np.random.default_rng(11)).amplitudes
        np.testing.assert_array_equal(a, b)
