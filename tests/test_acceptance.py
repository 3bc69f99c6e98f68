"""Acceptance gate: every recorded numerical claim must reproduce.

One test per criterion; each prints a single PASS/FAIL line with the claim id
so the gate can be read off the verbose test log.
"""

from __future__ import annotations

import numpy as np
import pytest

from qinflate import reproduce
from qinflate.linalg import DensityMatrix, HermitianOperator
from qinflate.reproduce import CLAIMS, run_claim
from qinflate.states import QUTRIT3, qutrit_pair
from qinflate.witness import WitnessOperator


def _check(claim_id: str) -> None:
    result = run_claim(claim_id, np.random.default_rng(0))
    status = "PASS" if result.passed else "FAIL"
    print(f"{claim_id} [{status}] {result.description}")
    failed = [r for r in result.rows if not r.passed]
    detail = "; ".join(
        f"{r.name}: expected {r.expected!r}, got {r.recomputed!r} (tol {r.tol:g})"
        for r in failed
    )
    assert result.passed, f"{claim_id} failed: {detail}"


@pytest.mark.parametrize("claim_id", list(CLAIMS), ids=list(CLAIMS))
def test_acceptance(claim_id: str) -> None:
    _check(claim_id)


# The identities behind AC-7 and AC-8 are checked by the claims alone; a
# fault in them must turn the claim's own row to FAIL, not raise.

AC7_ROWS = (
    "mixed spectra deviation over 5x5 grid",
    "mixture equals the Z3 twirl over 5x5 grid",
    "pure-state eigenvalue at p0=2p1=0.5",
)


def _ac7_rows():
    return {r.name: r.passed for r in run_claim("AC-7", np.random.default_rng(0)).rows}


def test_broken_qutrit_mixture_fails_ac7(monkeypatch):
    pure, _ = qutrit_pair(0.5, 0.25)
    maximally_mixed = DensityMatrix(HermitianOperator(QUTRIT3, np.eye(27) / 27))
    monkeypatch.setattr(reproduce, "qutrit_pair", lambda p0, p1: (pure, maximally_mixed))
    assert _ac7_rows() == dict(zip(AC7_ROWS, (False, False, True)))


def test_swapped_qutrit_weights_fail_only_the_twirl_row(monkeypatch):
    # The mixed spectra do not depend on the weights, so only the twirl
    # identity sees a mixture built with p0 and p1 exchanged.
    monkeypatch.setattr(
        reproduce, "qutrit_pair", lambda p0, p1: (qutrit_pair(p0, p1)[0], qutrit_pair(p1, p0)[1])
    )
    assert _ac7_rows() == dict(zip(AC7_ROWS, (True, False, True)))


def test_broken_schmidt224_entry_fails_ac8(monkeypatch):
    real = reproduce.cut_witness_quantum

    def shifted(rho, cut):
        w = real(rho, cut)
        return WitnessOperator(HermitianOperator(w.layout, w.entries + 1e-6 * np.eye(16)), w.kind)

    monkeypatch.setattr(reproduce, "cut_witness_quantum", shifted)
    (row,) = run_claim("AC-8", np.random.default_rng(0)).rows
    assert row.name == "closed form vs assembled over 100 draws"
    assert not row.passed


def test_only_qinflate_errors_become_rows(monkeypatch):
    def broken(rng):
        raise ZeroDivisionError("bug")

    monkeypatch.setitem(CLAIMS, "AC-X", ("raises", broken))
    with pytest.raises(ZeroDivisionError):
        run_claim("AC-X")
