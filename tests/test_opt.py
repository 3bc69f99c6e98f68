"""Tests for the PPT relaxation and the product-vector search."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qinflate
from qinflate import opt
from qinflate.errors import DomainError
from qinflate.linalg import (
    DensityMatrix,
    HermitianOperator,
    SubsystemLayout,
    partial_transpose,
)
from qinflate.opt import (
    _unit_vector,
    iota_tilde_crossing,
    ppt_min,
    product_min,
    sweep,
)
from qinflate.states import (
    QUBIT3,
    ghz_state,
    random_density_matrix,
    random_pure_state,
    tri_bell,
    tri_bell_t_from_amplitude,
    w_state,
)
from qinflate.witness import WitnessOperator, cut_witness_quantum

from oracles import ppt_min_oracle


def _interior_point_witnesses() -> list[WitnessOperator]:
    return [
        cut_witness_quantum(ghz_state().to_density(), ("A", "B")),
        cut_witness_quantum(w_state().to_density(), ("A", "C")),
        cut_witness_quantum(tri_bell(3.0).to_density(), ("A", "B")),
        cut_witness_quantum(tri_bell(2 / 0.19).to_density(), ("A", "B")),
    ]


def _random_witness(dims: tuple[int, ...], seed: int, pure: bool) -> WitnessOperator:
    rng = np.random.default_rng([31, seed])
    layout = SubsystemLayout(dims, ("A", "B", "C"))
    rho = random_pure_state(layout, rng).to_density() if pure else random_density_matrix(layout, rng)
    return cut_witness_quantum(rho, ("A", "C"))


def _diagonal_witness(dims: tuple[int, ...], rng: np.random.Generator) -> WitnessOperator:
    """The entries 0, 1, ..., d - 1 in a shuffled order on the diagonal."""
    layout = SubsystemLayout(dims, ("A", "B", "C"))
    diag = np.diag(rng.permutation(layout.total_dim).astype(float))
    return WitnessOperator(HermitianOperator(layout, diag), "test")


def _product_value(res, w: WitnessOperator) -> float:
    """<v|W|v> for v the product of the first columns of the reported bases."""
    vec = np.ones(1)
    for m in res.bases.matrices:
        vec = np.kron(vec, m[:, 0])
    return float(np.real(vec.conj() @ w.entries @ vec))


def _oracle(w: WitnessOperator):
    return ppt_min_oracle(w.entries, w.layout.dims, opt.ADMM_PENALTY, opt.ADMM_TOL,
                          opt.ADMM_MAX_ITER)


class TestUnitVector:
    def test_normalized(self):
        rng = np.random.default_rng(21)
        for d in (2, 3, 4):
            for _ in range(10):
                v = _unit_vector(rng.uniform(0, np.pi, 2 * (d - 1)), d)
                assert np.linalg.norm(v) == pytest.approx(1.0)
                assert abs(v[0].imag) < 1e-14

    def test_dim_one(self):
        assert _unit_vector(np.array([]), 1)[0] == 1.0

    def test_same_bits_as_numpy_scalar_math(self):
        # The product search's path depends on every bit of the objective, so
        # the Python-scalar construction must match numpy's scalar ufuncs.
        def reference(params, dim):
            v = np.zeros(dim, dtype=complex)
            r = 1.0
            for k in range(dim - 1):
                phase = np.exp(1j * params[dim - 2 + k]) if k >= 1 else 1.0
                v[k] = r * np.cos(params[k]) * phase
                r *= np.sin(params[k])
            v[dim - 1] = r * np.exp(1j * params[2 * dim - 3])
            return v

        rng = np.random.default_rng(22)
        special = [0.0, -0.0, np.pi, -np.pi / 2, 1e-300, 40.0]
        for d in (2, 3, 4, 5, 6):
            for i in range(200):
                x = rng.uniform(-np.pi, 2 * np.pi, 2 * (d - 1))
                if i % 4 == 0:
                    x = rng.choice(special, 2 * (d - 1))
                assert _unit_vector(x, d).tobytes() == reference(x, d).tobytes()


class TestPptMin:
    def test_identity_witness(self):
        w = WitnessOperator(HermitianOperator(QUBIT3, np.eye(8)), "test")
        res = ppt_min(w)
        assert res.converged
        assert res.value == pytest.approx(1.0, abs=1e-6)

    def test_value_is_trace_of_minimizer(self):
        w = cut_witness_quantum(ghz_state().to_density(), ("A", "B"))
        res = ppt_min(w)
        got = float(np.real(np.trace(res.minimizer.entries @ w.entries)))
        assert got == pytest.approx(res.value, abs=1e-10)

    def test_minimizer_is_ppt_feasible(self):
        w = cut_witness_quantum(tri_bell(4.0).to_density(), ("A", "B"))
        res = ppt_min(w)
        for lab in "ABC":
            pt = partial_transpose(res.minimizer.op, lab)
            assert float(np.linalg.eigvalsh(pt.entries)[0]) > -1e-5

    def test_value_brackets_the_ppt_optimum(self):
        # The minimizer is PSD, and PPT across each single factor, to within
        # 1e-7, so `value`, its objective, bounds the PPT optimum from above,
        # while `certified_lower` bounds it from below: the optimum lies
        # within 1e-6 of `value`.
        for w in _interior_point_witnesses():
            res = ppt_min(w)
            rho = res.minimizer
            assert res.converged
            assert float(np.linalg.eigvalsh(rho.entries)[0]) >= -1e-7
            for lab in rho.layout.labels:
                pt = partial_transpose(rho.op, lab)
                assert float(np.linalg.eigvalsh(pt.entries)[0]) >= -1e-7
            assert float(np.real(np.trace(rho.entries @ w.entries))) == pytest.approx(
                res.value, abs=1e-10
            )
            assert 0.0 <= res.value - res.certified_lower <= 1e-6

    def test_tri_bell_t3_value(self):
        w = cut_witness_quantum(tri_bell(3.0).to_density(), ("A", "B"))
        res = ppt_min(w)
        assert res.value == pytest.approx(-1 / 12, abs=1e-5)

    def test_lower_bounds_min_eigenvalue(self):
        for psi in (ghz_state(), w_state(), tri_bell(5.0)):
            w = cut_witness_quantum(psi.to_density(), ("A", "B"))
            assert ppt_min(w).value >= w.min_eigenvalue() - 1e-6

    def test_rejects_large_systems(self):
        layout = SubsystemLayout((3, 3, 3), ("A", "B", "C"))
        w = WitnessOperator(HermitianOperator(layout, np.eye(27) / 27), "test")
        with pytest.raises(DomainError):
            ppt_min(w)

    def test_certified_lower_brackets_value(self):
        identity = WitnessOperator(HermitianOperator(QUBIT3, np.eye(8)), "test")
        witnesses = _interior_point_witnesses() + [identity]
        for w in witnesses:
            res = ppt_min(w)
            assert res.converged
            assert 0.0 <= res.value - res.certified_lower <= 1e-6

    def test_certified_lower_bounds_separable_states(self):
        # Product states are separable, hence PPT: the dual bound holds on
        # each of them, and so on every mixture of them.
        rng = np.random.default_rng(29)
        for w in (_interior_point_witnesses()[2], _random_witness((2, 2, 4), 0, pure=True)):
            _assert_below_product_states(w, ppt_min(w).certified_lower, rng)


def _assert_below_product_states(w: WitnessOperator, lower: float,
                                 rng: np.random.Generator) -> None:
    for _ in range(500):
        vec = np.ones(1)
        for d in w.layout.dims:
            v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            vec = np.kron(vec, v / np.linalg.norm(v))
        assert float(np.real(vec.conj() @ w.entries @ vec)) >= lower


def _fields_equal(a, b) -> bool:
    """Every field equal, the minimizer by its entries."""
    def entries(v):
        return getattr(v, "entries", v)

    return all(np.array_equal(entries(getattr(a, f)), entries(getattr(b, f)))
               for f in a.__dataclass_fields__)


class TestWarmStart:
    def test_reaches_the_cold_optimum(self):
        start = ppt_min(opt._tri_bell_witness(0.80))
        for a in (0.81, 0.82, 0.90):
            w = opt._tri_bell_witness(a)
            warm, cold = ppt_min(w, start=start), ppt_min(w)
            assert warm.converged
            assert warm.value == pytest.approx(cold.value, abs=1e-6)

    def test_complex_witness_from_a_real_start(self):
        # the start's layout matches; its real duals start a complex solve
        w = _random_witness((2, 2, 2), 0, pure=True)
        start = ppt_min(WitnessOperator(HermitianOperator(w.layout, np.eye(8)), "test"))
        warm = ppt_min(w, start=start)
        assert warm.converged
        assert warm.value == pytest.approx(ppt_min(w).value, abs=1e-6)

    def test_certificate_holds(self):
        start = ppt_min(opt._tri_bell_witness(0.80))
        for a in (0.81, 0.83):
            w = opt._tri_bell_witness(a)
            res = ppt_min(w, start=start)
            upper = product_min(w, 4, np.random.default_rng(30)).value
            assert res.certified_lower <= res.value
            assert res.certified_lower <= upper

    def test_certified_lower_bounds_separable_states(self):
        rng = np.random.default_rng(29)
        tri = _interior_point_witnesses()[2]
        pure = _random_witness((2, 2, 4), 0, pure=True)
        for w, near in ((tri, cut_witness_quantum(tri_bell(3.2).to_density(), ("A", "B"))),
                        (pure, _random_witness((2, 2, 4), 1, pure=True))):
            res = ppt_min(w, start=ppt_min(near))
            assert res.converged
            _assert_below_product_states(w, res.certified_lower, rng)

    def test_other_layout_refused_before_any_iteration(self, monkeypatch):
        start = ppt_min(WitnessOperator(HermitianOperator(QUBIT3, np.eye(8)), "test"))
        monkeypatch.setattr(opt, "_psd_clip", None)
        for dims, labels in (((2, 2, 4), "ABC"), ((2, 2, 2), "ACB")):
            layout = SubsystemLayout(dims, tuple(labels))
            w = WitnessOperator(HermitianOperator(layout, np.eye(layout.total_dim)), "test")
            with pytest.raises(DomainError, match="layout"):
                ppt_min(w, start=start)

    @pytest.mark.parametrize("w", [
        _random_witness((2, 2, 2), 1, pure=False), opt._tri_bell_witness(0.82),
    ], ids=["complex", "real"])
    def test_no_start_is_the_cold_solve(self, w):
        a, b = ppt_min(w), ppt_min(w, start=None)
        assert _fields_equal(a, b)
        assert a.duals.shape == (4, 8, 8)


class TestPptMinMatchesPerConeLoop:
    """The stacked solver against the loop that projects one cone at a time."""

    @pytest.mark.parametrize("dims, seed, pure", [
        ((2, 2, 2), 0, True), ((2, 2, 2), 0, False),
        ((2, 2, 2), 1, True), ((2, 2, 2), 1, False),
        ((2, 2, 4), 3, True),
    ])
    def test_complex_witness_bit_for_bit(self, dims, seed, pure):
        w = _random_witness(dims, seed, pure)
        assert w.entries.imag.any()
        value, minimizer, primal, dual, iterations = _oracle(w)
        res = ppt_min(w)
        assert res.value == value
        assert res.iterations == iterations
        assert res.primal_residual == primal
        assert res.dual_residual == dual
        assert np.array_equal(res.minimizer.entries, minimizer)

    @pytest.mark.parametrize("amplitude", [0.62, 0.75, 0.82, 0.93])
    def test_real_tri_bell_witness(self, amplitude):
        w = opt._tri_bell_witness(amplitude)
        assert not w.entries.imag.any()
        value, _, _, _, iterations = _oracle(w)
        res = ppt_min(w)
        assert res.iterations == iterations
        assert res.value == pytest.approx(value, abs=1e-12)


class TestProductMin:
    def test_identity_witness(self):
        rng = np.random.default_rng(22)
        w = WitnessOperator(HermitianOperator(QUBIT3, np.eye(8)), "test")
        res = product_min(w, restarts=4, rng=rng)
        assert res.value == pytest.approx(1.0, abs=1e-8)

    def test_diagonal_witness_reaches_min_entry(self):
        rng = np.random.default_rng(23)
        diag = np.diag(np.arange(8, dtype=float))
        w = WitnessOperator(HermitianOperator(QUBIT3, diag), "test")
        res = product_min(w, restarts=16, rng=rng)
        assert res.value == pytest.approx(0.0, abs=1e-6)

    def test_upper_bounds_ppt_value(self):
        rng = np.random.default_rng(24)
        for t in (3.0, 2 / 0.19, 12.0):
            w = cut_witness_quantum(tri_bell(t).to_density(), ("A", "B"))
            prod = product_min(w, restarts=12, rng=rng)
            sdp = ppt_min(w)
            assert prod.value >= sdp.value - 1e-6
            assert prod.value >= w.min_eigenvalue() - 1e-9

    def test_bases_are_unitary(self):
        rng = np.random.default_rng(25)
        w = cut_witness_quantum(ghz_state().to_density(), ("A", "B"))
        res = product_min(w, restarts=4, rng=rng)
        for m in res.bases.matrices:
            assert np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0]))) < 1e-8

    @pytest.mark.parametrize("restarts", [0, -1, 2.5, True])
    def test_no_restarts_rejected(self, restarts):
        w = cut_witness_quantum(ghz_state().to_density(), ("A", "B"))
        with pytest.raises(DomainError, match="restarts"):
            product_min(w, restarts=restarts, rng=np.random.default_rng(0))

    def test_achieved_by_reported_basis(self):
        rng = np.random.default_rng(26)
        w = cut_witness_quantum(w_state().to_density(), ("A", "B"))
        res = product_min(w, restarts=8, rng=rng)
        assert _product_value(res, w) == pytest.approx(res.value, abs=1e-9)

    @pytest.mark.parametrize("dims", [(4, 2, 2), (2, 4, 2), (2, 2, 4), (2, 3, 2)])
    def test_closed_form_party_anywhere(self, dims):
        # the largest party, minimized in closed form, may sit first, in the
        # middle or last; the reported bases attain the value there too
        for seed in range(3):
            w = _random_witness(dims, seed, pure=True)
            res = product_min(w, restarts=4, rng=np.random.default_rng(seed))
            assert _product_value(res, w) == pytest.approx(res.value, abs=1e-9)
            assert res.value >= w.min_eigenvalue() - 1e-9

    @pytest.mark.parametrize("dims", [(2, 2, 4), (4, 2, 2), (1, 2, 2)])
    def test_shuffled_diagonal_witness_reaches_min_entry(self, dims):
        rng = np.random.default_rng(30)
        w = _diagonal_witness(dims, rng)
        res = product_min(w, restarts=16, rng=rng)
        assert res.value == pytest.approx(0.0, abs=1e-6)
        assert _product_value(res, w) == pytest.approx(res.value, abs=1e-9)

    def test_nothing_left_to_search(self, monkeypatch):
        # with the two other parties one-dimensional, the closed form is the
        # whole answer: lambda_min(W), and no local search runs
        monkeypatch.setattr(opt, "minimize", lambda *a, **k: pytest.fail("searched"))
        layout = SubsystemLayout((1, 1, 4), ("A", "B", "C"))
        m = random_density_matrix(layout, np.random.default_rng(31)).entries - 0.3 * np.eye(4)
        w = WitnessOperator(HermitianOperator(layout, m), "test")
        res = product_min(w, restarts=3, rng=np.random.default_rng(0))
        assert res.value == pytest.approx(w.min_eigenvalue(), abs=1e-12)
        assert res.restarts_used == 0
        assert _product_value(res, w) == pytest.approx(res.value, abs=1e-12)


class TestScipyBinding:
    def test_import_leaves_scipy_unloaded(self):
        code = ("import sys, qinflate, qinflate.cli, qinflate.reproduce; "
                "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
        src = str(Path(qinflate.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": path})
        assert out.stdout.strip() == "[]"

    def test_product_search_calls_the_bound_minimize(self, monkeypatch):
        real = opt.minimize
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(opt, "minimize", counting)
        w = cut_witness_quantum(ghz_state().to_density(), ("A", "B"))
        res = product_min(w, 2, np.random.default_rng(27))
        assert len(calls) == 2 == res.restarts_used


def _tri_bell_states(amplitudes):
    return [tri_bell(tri_bell_t_from_amplitude(a)).to_density() for a in amplitudes]


class TestSweep:
    def test_rows_and_ordering(self):
        rng = np.random.default_rng(27)
        states = _tri_bell_states([0.60, 0.75, 0.90])
        rows = sweep(states, restarts=6, rng=rng)
        assert [r.min_eig for r in rows] == [
            cut_witness_quantum(s, ("A", "B")).min_eigenvalue() for s in states
        ]
        for r in rows:
            assert r.converged
            assert r.min_eig <= r.iota_tilde + 1e-6 <= r.iota_upper + 2e-6

    def test_signs_across_crossing(self):
        rng = np.random.default_rng(28)
        rows = sweep(_tri_bell_states([0.70, 0.90]), restarts=6, rng=rng)
        assert rows[0].iota_tilde < 0 < rows[1].iota_tilde

    def test_domain(self):
        for a in (1 / np.sqrt(3) - 1e-10, 0.5, 1.0):
            with pytest.raises(DomainError):
                sweep(_tri_bell_states([a]), restarts=1, rng=np.random.default_rng(0))

    @pytest.mark.parametrize("a", [np.sqrt(1 / 3), 1 / np.sqrt(3), 1 / np.sqrt(3) - 5e-13])
    def test_lower_edge_sweeps(self, a):
        # np.sqrt(1 / 3) is one ulp below 1 / np.sqrt(3): t rounds below 3
        (row,) = sweep(_tri_bell_states([a]), restarts=1, rng=np.random.default_rng(0))
        assert row.min_eig <= row.iota_tilde + 1e-6 <= row.iota_upper + 2e-6

    @pytest.mark.parametrize("grid, restarts", [([0.8, 0.9], 0), ([0.8, 0.9], 2.5)])
    def test_refused_before_any_solve(self, monkeypatch, grid, restarts):
        real = opt.ppt_min
        calls = []

        def counting(w):
            calls.append(1)
            return real(w)

        monkeypatch.setattr(opt, "ppt_min", counting)
        with pytest.raises(DomainError):
            sweep(_tri_bell_states(grid), restarts=restarts, rng=np.random.default_rng(0))
        assert calls == []

    def test_deterministic_given_seed(self):
        states = _tri_bell_states([0.8])
        a = sweep(states, restarts=4, rng=np.random.default_rng(5))
        b = sweep(states, restarts=4, rng=np.random.default_rng(5))
        assert a[0].iota_upper == b[0].iota_upper


@pytest.fixture
def crossing_solves(monkeypatch):
    """(amplitude, SdpResult) of each `ppt_min` call the crossing makes."""
    real_witness, real_min, amplitudes, solves = opt._tri_bell_witness, opt.ppt_min, [], []

    def witness(a):
        amplitudes.append(a)
        return real_witness(a)

    def solve(w, **kwargs):
        solves.append((amplitudes[-1], real_min(w, **kwargs)))
        return solves[-1][1]

    monkeypatch.setattr(opt, "_tri_bell_witness", witness)
    monkeypatch.setattr(opt, "ppt_min", solve)
    return solves


class TestCrossing:
    def test_crossing_location(self):
        x = iota_tilde_crossing()
        assert x == pytest.approx(0.82, abs=0.02)

    def test_cost_and_answer(self, crossing_solves):
        # 16 cold solves and 1316 ADMM iterations by bisection on `value`,
        # which answered 0.8164932250976562
        x = iota_tilde_crossing(0.70, 0.95, iters=14)
        assert len(crossing_solves) <= 10
        assert sum(r.iterations for _, r in crossing_solves) <= 800
        assert abs(x - 0.8164932250976562) <= 0.25 / 2 ** 14

    def test_upper_end_certified(self, crossing_solves):
        x = iota_tilde_crossing(0.70, 0.95, iters=14)
        a, res = min(((a, r) for a, r in crossing_solves if a > x), key=lambda ar: ar[0])
        assert a - x <= 0.25 / 2 ** 14
        assert res.certified_lower > 0
        below = max(((a, r) for a, r in crossing_solves if a < x), key=lambda ar: ar[0])
        assert below[1].certified_lower <= 0

    def test_wide_non_monotone_bracket(self, crossing_solves):
        # the bound is +0.02 at 0.90 and +2e-4 at 0.99: the secant steps
        # creep in from the upper end until a bisection steps past the hump
        iters = 14
        x = iota_tilde_crossing(0.70, 0.99, iters=iters)
        assert len(crossing_solves) <= 2 + 2 * iters
        assert abs(x - 0.8164932250976562) <= 0.29 / 2 ** iters

    def test_bad_bracket(self):
        with pytest.raises(DomainError):
            iota_tilde_crossing(lo=0.9, hi=0.95)

    @pytest.mark.parametrize("iters", [0, -3, 2.5, True])
    def test_no_iterations_rejected(self, monkeypatch, iters):
        # refused before any relaxation is solved, not answered with the
        # bracket's midpoint
        monkeypatch.setattr(opt, "ppt_min", None)
        with pytest.raises(DomainError, match="iters"):
            iota_tilde_crossing(0.70, 0.95, iters=iters)
