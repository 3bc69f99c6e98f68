"""Tests of the benchmark's tracer, calibration and workload inputs.

Run with `python -m pytest perfbench/tests`. Call counts are deliberately not
pinned: they change whenever the library's internals do.
"""

import json
from types import SimpleNamespace

import numpy as np
import pytest

import run
import workloads
from qinflate import cli, dag, linalg, opt, reproduce, states, witness
from tracer import Tracer, layer_metric_specs, layer_metrics

Q = SimpleNamespace(linalg=linalg, states=states, witness=witness, opt=opt, dag=dag,
                    reproduce=reproduce, cli=cli)


@pytest.fixture
def tracer():
    t = Tracer()
    t.install()
    try:
        yield t
    finally:
        t.uninstall()


def _mixed_state(seed: int = 0) -> linalg.DensityMatrix:
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
    m = g @ g.conj().T
    layout = linalg.SubsystemLayout((2, 2, 2), ("A", "B", "C"))
    return linalg.DensityMatrix(linalg.HermitianOperator(layout, m / np.trace(m).real))


def _named(t: Tracer) -> tuple[dict, list[str]]:
    a = t.arrays()
    return a, [t.names[i] for i in a["name"]]


def test_by_name_imports_are_traced(tracer):
    witness.cut_witness_quantum(_mixed_state(), ("A", "B"))
    a, names = _named(tracer)
    roots = [s for s, n in zip(a["span"], names) if n == "witness.cut_witness_quantum"]
    assert len(roots) == 1
    children = [n for n, p in zip(names, a["parent"]) if p == roots[0]]
    assert children.count("linalg.partial_trace") > 0
    assert children.count("linalg.embed") > 0


def test_self_times_under_a_root_sum_to_its_busy_time(tracer):
    rho = _mixed_state()
    witness.hall_delta(witness.marginals_of(rho))
    a, names = _named(tracer)
    own = tracer.self_times()
    parent_of = dict(zip(a["span"].tolist(), a["parent"].tolist()))

    def root_of(sid: int) -> int:
        while parent_of[sid] != -1:
            sid = parent_of[sid]
        return sid

    i = names.index("witness.hall_delta")
    root = int(a["span"][i])
    assert parent_of[root] == -1
    under = [j for j, s in enumerate(a["span"].tolist()) if root_of(s) == root]
    assert len(under) > 1
    busy = a["end"][i] - a["start"][i]
    assert sum(own[j] for j in under) == pytest.approx(busy, rel=0.01)


def test_uninstall_restores_every_binding():
    before = (witness.partial_trace, linalg.partial_trace,
              linalg.HermitianOperator.__post_init__, opt.minimize, dict(reproduce.CLAIMS))
    t = Tracer()
    t.install()
    assert witness.partial_trace is not before[0]
    assert reproduce.CLAIMS["AC-1"][1] is not before[4]["AC-1"][1]
    t.uninstall()
    after = (witness.partial_trace, linalg.partial_trace,
             linalg.HermitianOperator.__post_init__, opt.minimize, dict(reproduce.CLAIMS))
    assert all(x is y for x, y in zip(before[:4], after[:4]))
    assert before[4] == after[4]


def test_solver_counters_feed_the_layer_metrics(tracer):
    w = witness.cut_witness_quantum(states.tri_bell(states.tri_bell_t_from_amplitude(0.9))
                                    .to_density(), ("A", "B"))
    opt.ppt_min(w)
    opt.product_min(w, 2, np.random.default_rng(0))
    m = layer_metrics(tracer, passes=1, traced_s=2.0, untraced_s=1.0)
    assert set(m) == {s["name"] for s in layer_metric_specs()}
    assert m["opt.ppt_min.iterations"] > 0
    assert m["opt.ppt_min.converged_ratio"] == 1.0
    assert m["opt.product_min.restarts"] == 2
    assert m["opt.product_min.evals"] > 0
    assert 0 < m["opt.product_min.useful_restart_ratio"] <= 1
    assert m["linalg.hermitian_eig.side_cubed"] >= 8**3
    assert m["trace.overhead_share"] == pytest.approx(1.0)


def test_checks_are_not_traced(tracer):
    with tracer.paused():
        witness.cut_witness_quantum(_mixed_state(), ("A", "B"))
    assert len(tracer.span) == 0


def test_same_seed_gives_the_same_inputs():
    def outputs(seed):
        wl = workloads.WORKLOADS["scan-small"](Q, seed, None)
        return [op.run() for op in wl.ops if op.kind == "primary"][:6]

    first, again, other = outputs(3), outputs(3), outputs(4)
    spectra = [[np.concatenate([w.spectrum.eigenvalues for w in ws]) for ws, _, _ in o]
               for o in (first, again, other)]
    assert all(np.array_equal(x, y) for x, y in zip(spectra[0], spectra[1]))
    assert not all(x.shape == y.shape and np.allclose(x, y) for x, y in zip(spectra[0], spectra[2]))


def test_benchmark_json_lists_the_reported_metrics():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert bench["per_layer"] == layer_metric_specs()
    assert len(bench["per_layer"]) <= 128
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOAD_NAMES)


def test_latencies_are_scaled_by_the_neighbouring_reference_samples():
    op = workloads.Op("primary", 0, None, None)
    quiet = run.REFERENCE_QUIET_MS
    refs = [quiet, 2 * quiet, 2 * quiet]
    # (op, latency, index of the last reference sample before the call)
    passes = [[(op, 0.3, 1)], [(op, 0.2, 0)], [(op, 0.1, 2)]]
    [(_, cost)] = run.input_costs(passes, refs)
    assert cost == pytest.approx(0.2 / 1.5)  # median of 0.15, 0.2/1.5 and 0.05
    [(_, raw)] = run.input_costs(passes, None)
    assert raw == pytest.approx(0.2)
