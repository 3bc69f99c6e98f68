"""End-to-end tests for the command-line interface (in-process)."""

from __future__ import annotations

import json

import numpy as np
import pytest

from qinflate.cli import CUTS, load_state, main, save_state
from qinflate.errors import InvalidParameter
from qinflate.linalg import DensityMatrix, permute_subsystems
from qinflate.states import Distribution, ghz_distn, ghz_state, w_state, tri_bell
from qinflate.witness import cut_witness_quantum


def write_family(tmp_path, name, params=None):
    path = tmp_path / f"{name}.json"
    doc = {"kind": "family", "data": {"family_name": name}}
    if params:
        doc["data"]["params"] = params
    path.write_text(json.dumps(doc))
    return str(path)


class TestStateFiles:
    def test_pure_round_trip(self, tmp_path):
        psi = tri_bell(5.0)
        path = tmp_path / "state.json"
        save_state(psi, str(path))
        rho = load_state(str(path))
        assert isinstance(rho, DensityMatrix)
        want = psi.to_density().entries
        assert np.max(np.abs(rho.entries - want)) < 1e-15

    def test_mixed_round_trip(self, tmp_path):
        rho = ghz_state().to_density()
        path = tmp_path / "state.json"
        save_state(rho, str(path))
        back = load_state(str(path))
        assert np.max(np.abs(back.entries - rho.entries)) < 1e-15

    def test_distribution_round_trip(self, tmp_path):
        p = ghz_distn()
        path = tmp_path / "p.json"
        save_state(p, str(path))
        back = load_state(str(path))
        assert isinstance(back, Distribution)
        assert np.max(np.abs(back.probs - p.probs)) == 0.0

    def test_family_file(self, tmp_path):
        path = write_family(tmp_path, "werner_ghz", {"p": 0.4})
        rho = load_state(path)
        assert isinstance(rho, DensityMatrix)
        assert rho.op.trace() == pytest.approx(1.0)

    def test_unknown_family(self, tmp_path):
        path = write_family(tmp_path, "nonesuch")
        assert main(["witness", path]) == 1

    def test_missing_field(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"kind": "pure"}))
        assert main(["witness", str(path)]) == 1

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["witness", str(path)]) == 1


QUBIT_LAYOUT = [{"label": s, "dim": 2} for s in "ABC"]


def _run_bad_file(tmp_path, capsys, doc) -> str:
    """Exit code must be 1; returns the error line."""
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["witness", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    return err


class TestMalformedStateFiles:
    def test_nan_distribution(self, tmp_path, capsys):
        probs = [float("nan")] + [1 / 7] * 7
        doc = {"layout": QUBIT_LAYOUT, "kind": "distribution", "data": probs}
        assert "finite" in _run_bad_file(tmp_path, capsys, doc)

    def test_nan_mixed(self, tmp_path, capsys):
        rows = [[[1 / 8 if i == j else 0.0, 0.0] for j in range(8)] for i in range(8)]
        rows[0][1] = [float("nan"), 0.0]
        doc = {"layout": QUBIT_LAYOUT, "kind": "mixed", "data": rows}
        assert "non-finite" in _run_bad_file(tmp_path, capsys, doc)

    def test_ragged_mixed_rows(self, tmp_path, capsys):
        rows = [[[1 / 8 if i == j else 0.0, 0.0] for j in range(8)] for i in range(8)]
        rows[3] = rows[3][:5]
        doc = {"layout": QUBIT_LAYOUT, "kind": "mixed", "data": rows}
        assert "'data'" in _run_bad_file(tmp_path, capsys, doc)

    def test_non_integer_dim(self, tmp_path, capsys):
        layout = [{"label": "A", "dim": "x"}, {"label": "B", "dim": 2}, {"label": "C", "dim": 2}]
        doc = {"layout": layout, "kind": "distribution", "data": [0.125] * 8}
        assert "'dim'" in _run_bad_file(tmp_path, capsys, doc)

    def test_non_numeric_entries(self, tmp_path, capsys):
        doc = {"layout": QUBIT_LAYOUT, "kind": "distribution", "data": [[0.5], [0.25, 0.25]]}
        assert "'data'" in _run_bad_file(tmp_path, capsys, doc)
        doc = {"layout": QUBIT_LAYOUT, "kind": "pure", "data": [["x", 0.0]] * 8}
        assert "[re, im]" in _run_bad_file(tmp_path, capsys, doc)

    def test_duplicate_distribution_labels(self, tmp_path, capsys):
        layout = [{"label": s, "dim": 2} for s in "CCB"]
        doc = {"layout": layout, "kind": "distribution", "data": list(ghz_distn().probs)}
        assert "repeated labels" in _run_bad_file(tmp_path, capsys, doc)

    def test_null_label(self, tmp_path, capsys):
        # str(None) would make a factor labelled 'None' and witness the GHZ state
        layout = [{"label": None, "dim": 2}] + QUBIT_LAYOUT[1:]
        data = [[float(a.real), float(a.imag)] for a in ghz_state().amplitudes]
        err = _run_bad_file(tmp_path, capsys, {"layout": layout, "kind": "pure", "data": data})
        assert "labels must be strings, got None" in err

    def test_reordered_distribution_labels(self, tmp_path, capsys):
        layout = [{"label": s, "dim": 2} for s in "BAC"]
        doc = {"layout": layout, "kind": "distribution", "data": list(ghz_distn().probs)}
        err = _run_bad_file(tmp_path, capsys, doc)
        assert "('B', 'A', 'C')" in err and "('A', 'B', 'C')" in err

    def test_family_missing_parameter(self, tmp_path, capsys):
        doc = {"kind": "family", "data": {"family_name": "tri_bell", "params": {}}}
        err = _run_bad_file(tmp_path, capsys, doc)
        assert "tri_bell" in err and "'t'" in err

    @pytest.mark.parametrize(
        "doc",
        [
            5,
            {"kind": "family", "data": [{"family_name": "ghz"}]},
            {"kind": "family", "data": {"family_name": "tri_bell", "params": [5.0]}},
            {"kind": "family", "data": {"family_name": "tri_bell", "params": {"t": "abc"}}},
            {"kind": "family", "data": {"family_name": "werner_ghz", "params": {"p": None}}},
            {"kind": "family", "data": {"family_name": "schmidt224", "params": {"alphas": "ab"}}},
            {"kind": "family", "data": {"family_name": ["x"]}},
            {"layout": QUBIT_LAYOUT, "kind": "pure", "data": 5},
            {"layout": QUBIT_LAYOUT, "kind": "mixed", "data": [5, 6]},
            {"layout": QUBIT_LAYOUT, "kind": "distribution",
             "data": [[0.5, 0, 0, 0], [0, 0, 0, 0.5]]},
            {"layout": QUBIT_LAYOUT, "kind": "distribution", "data": ["0.5", 0, 0, 0, 0, 0, 0, 0.5]},
            {"layout": QUBIT_LAYOUT, "kind": "distribution", "data": [True] + [0] * 7},
            {"layout": [{"label": s, "dim": 1} for s in "ABC"], "kind": "pure",
             "data": [["1", "0"]]},
            *({"layout": [{"label": "A", "dim": dim}] + QUBIT_LAYOUT[1:],
               "kind": "distribution", "data": [1 / n] * n}
              for dim, n in ((2.7, 8), ("2", 8), (True, 4))),
        ],
        ids=[
            "top-level-number", "family-data-list", "params-list", "param-string",
            "param-null", "alphas-string", "family-name-list", "pure-data-number",
            "mixed-rows-numbers", "distribution-nested", "probability-string",
            "probability-boolean", "amplitude-string", "dim-float", "dim-string",
            "dim-boolean",
        ],
    )
    def test_wrong_json_shape(self, tmp_path, capsys, doc):
        _run_bad_file(tmp_path, capsys, doc)

    @pytest.mark.parametrize(
        "doc, match",
        [
            ({"layout": QUBIT_LAYOUT, "kind": "pure", "data": [[True, 0]] + [[0, 0]] * 7}, "bool"),
            ({"layout": QUBIT_LAYOUT, "kind": "mixed",
              "data": [[[float(i == j) / 8, 0] for j in range(7)] + [[0, False]] for i in range(8)]},
             "bool"),
            ({"layout": QUBIT_LAYOUT, "kind": "distribution", "data": [0.5, False] + [0] * 5 + [0.5]},
             "bool"),
            ({"kind": "family", "data": {"family_name": "schmidt224",
                                         "params": {"alphas": [True] + [0] * 7}}}, "bool"),
            ({"kind": "family", "data": {"family_name": "werner_ghz", "params": {"p": True}}},
             "real numbers"),
            ({"kind": "family", "data": {"family_name": "tri_bell", "params": {"t": 10**20}}},
             "real numbers"),
            ({"layout": QUBIT_LAYOUT, "kind": "pure", "data": [[10**20, 0]] + [[0, 0]] * 7},
             "real numbers"),
        ],
        ids=["pure", "mixed", "distribution", "family-alphas", "family-param", "param-past-64-bits",
             "amplitude-past-64-bits"],
    )
    def test_numbers_read_as_the_constructors_read_them(self, tmp_path, doc, match):
        # a boolean among numbers is not read as 0 or 1, and an integer past
        # 64 bits is refused by the reader, before any constructor runs
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InvalidParameter, match=match):
            load_state(str(path))


class TestWitnessCommand:
    def test_witnessed_exit_code(self, tmp_path, capsys):
        path = write_family(tmp_path, "ghz")
        assert main(["witness", path]) == 2
        out = capsys.readouterr().out
        assert "witnessed_incompatible" in out

    def test_inconclusive_exit_code(self, tmp_path, capsys):
        path = write_family(tmp_path, "werner_ghz", {"p": 0.3})
        assert main(["witness", path]) == 0
        assert "inconclusive" in capsys.readouterr().out

    def test_single_cut(self, tmp_path, capsys):
        path = write_family(tmp_path, "w")
        assert main(["witness", path, "--cut", "AB"]) == 2
        out = capsys.readouterr().out
        assert out.count("cut ") == 1

    def test_json_format(self, tmp_path, capsys):
        path = write_family(tmp_path, "ghz")
        assert main(["witness", path, "--format", "json"]) == 2
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["results"]) == 3
        for entry in doc["results"]:
            assert len(entry["spectrum"]) == 8
            assert entry["min_value"] == entry["spectrum"][0]

    def test_json_evidence_vector(self, tmp_path, capsys):
        # the tri-Bell state with its factors stored as (C, A, B): the vector
        # is in sorted-label order, the order I_xy is materialized in
        rho = tri_bell(2 / 0.19).to_density()
        stored = DensityMatrix(permute_subsystems(rho.op, ("C", "A", "B")))
        path = tmp_path / "state.json"
        save_state(stored, str(path))
        assert main(["witness", str(path), "--format", "json"]) == 2
        results = json.loads(capsys.readouterr().out)["results"]
        witnessed = [e for e in results if e["verdict"] == "witnessed_incompatible"]
        assert witnessed
        for entry in results:
            assert ("vector" in entry) == (entry in witnessed)
            assert "outcome" not in entry
        for entry in witnessed:
            v = np.array([complex(re, im) for re, im in entry["vector"]])
            w = cut_witness_quantum(rho, CUTS[entry["cut"]]).entries
            assert abs(np.linalg.norm(v) - 1.0) <= 1e-12
            assert abs(np.vdot(v, w @ v) - entry["min_value"]) <= 1e-12

    def test_classical_distribution(self, tmp_path, capsys):
        path = write_family(tmp_path, "ghz_distn")
        assert main(["witness", path]) == 2
        assert "witnessing outcome" in capsys.readouterr().out

    def test_missing_file(self, capsys):
        assert main(["witness", "/nonexistent/state.json"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_non_utf8_file(self, tmp_path, capsys):
        path = tmp_path / "state.json"
        path.write_bytes(b'{"kind": "family", "data": "\xff"}')
        assert main(["witness", str(path)]) == 1
        assert "is not UTF-8" in capsys.readouterr().err

    def test_deeply_nested_file(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000)
        assert main(["witness", str(path)]) == 1
        assert "nests JSON arrays or objects too deeply" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_bad_tolerance(self, tmp_path, capsys, tol):
        path = write_family(tmp_path, "ghz")
        assert main(["witness", path, "--tol", tol]) == 1
        assert "tolerance" in capsys.readouterr().err

    def test_tol_override(self, tmp_path, capsys):
        # with a huge tolerance even GHZ looks inconclusive
        path = write_family(tmp_path, "ghz")
        assert main(["witness", path, "--tol", "1.0"]) == 0


class TestSweepCommand:
    def test_tri_bell_csv_and_svg(self, tmp_path):
        out = tmp_path / "rows.csv"
        svg = tmp_path / "chart.svg"
        rc = main([
            "sweep", "tri_bell", "--grid", "0.7:0.9:3",
            "--out", str(out), "--svg", str(svg),
            "--seed", "7", "--restarts", "4",
        ])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "amplitude,min_eig,iota_tilde,iota_upper,converged"
        assert len(lines) == 4
        for line in lines[1:]:
            fields = line.split(",")
            assert len(fields) == 5
            assert fields[4] in ("true", "false")
        text = svg.read_text()
        assert text.startswith("<svg")
        assert "polyline" in text

    def test_deterministic_given_seed(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        args = ["sweep", "tri_bell", "--grid", "0.8:0.8:1", "--seed", "3", "--restarts", "4"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_closed_form_family(self, tmp_path):
        out = tmp_path / "w.csv"
        rc = main(["sweep", "werner_w", "--grid", "0:1:5", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "parameter,min_eig"
        assert len(lines) == 6

    def test_stdout_default(self, capsys):
        assert main(["sweep", "werner_ghz", "--grid", "0:1:3"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("parameter,min_eig")

    def test_bad_grid(self, capsys):
        assert main(["sweep", "werner_ghz", "--grid", "oops"]) == 1

    @pytest.mark.parametrize("grid", ["0:1:0", "0:1:-2"])
    def test_empty_grid(self, tmp_path, capsys, grid):
        svg = tmp_path / "x.svg"
        assert main(["sweep", "werner_w", "--grid", grid, "--svg", str(svg)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not svg.exists()

    @pytest.mark.parametrize("grid", ["nan:1:3", "0:inf:3", "1:-inf:2"])
    def test_non_finite_grid(self, capsys, grid):
        assert main(["sweep", "werner_ghz", "--grid", grid]) == 1
        assert capsys.readouterr().out == ""

    def test_no_restarts(self, capsys):
        assert main(["sweep", "tri_bell", "--grid", "0.6:0.9:2", "--restarts", "0"]) == 1
        assert "restarts" in capsys.readouterr().err

    def test_out_of_domain_grid(self, tmp_path, capsys):
        assert main(["sweep", "tri_bell", "--grid", "0.1:0.2:2", "--restarts", "1"]) == 1


class TestCommandLine:
    @pytest.mark.parametrize("argv", [
        ["witness", "state.json", "--cut", "XY"],
        ["witness", "state.json", "--tol", "abc"],
        ["sweep", "tri_bell", "--grid", "0.6:0.9:2", "--restarts", "x"],
        ["sweep", "tri_bell"],
        ["sweep", "tri_bell", "--grid", "0.6:0.9:2", "--seed", "-1"],
        ["reproduce", "AC-1", "--seed", "-1"],
        ["reproduce", "--seed", "1.5"],
        ["frobnicate"],
        [],
    ])
    def test_malformed_exits_1_not_2(self, capsys, argv):
        # 2 means a witnessed incompatibility, so a usage error must not use it
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: qinflate") and "error: " in err

    @pytest.mark.parametrize("argv", [["--help"], ["witness", "--help"]])
    def test_help_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: qinflate")


class TestDagCommand:
    def test_check_cut_inflation(self, tmp_path, capsys):
        from qinflate.dag import build_cut_inflation, format_dag

        path = tmp_path / "cut.dag"
        path.write_text(format_dag(build_cut_inflation(("A", "B"))))
        assert main(["dag", "check", str(path)]) == 0
        assert "inflation: yes, nonfanout: yes" in capsys.readouterr().out

    def test_injectables(self, tmp_path, capsys):
        from qinflate.dag import build_cut_inflation, format_dag

        path = tmp_path / "cut.dag"
        path.write_text(format_dag(build_cut_inflation(("A", "B"))))
        assert main(["dag", "injectables", str(path)]) == 0
        out = capsys.readouterr().out
        assert "{A1,C1} -> {A,C}" in out
        assert "{A1,B1}" not in out

    def test_explicit_original(self, tmp_path, capsys):
        from qinflate.dag import build_cut_inflation, build_triangle, format_dag

        infl = tmp_path / "cut.dag"
        orig = tmp_path / "tri.dag"
        infl.write_text(format_dag(build_cut_inflation(("B", "C"))))
        orig.write_text(format_dag(build_triangle()))
        assert main(["dag", "check", str(infl), str(orig)]) == 0
        assert "inflation: yes" in capsys.readouterr().out

    def test_cyclic_dag_errors(self, tmp_path, capsys):
        path = tmp_path / "cyc.dag"
        path.write_text("node A visible\nnode B visible\nedge A B\nedge B A\n")
        assert main(["dag", "check", str(path)]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("cut, lines", [
        ("AB", ["{A1,C1} -> {A,C}", "{B1,C1} -> {B,C}"]),
        ("AC", ["{A1,B1} -> {A,B}", "{B1,C1} -> {B,C}"]),
        ("BC", ["{A1,B1} -> {A,B}", "{A1,C1} -> {A,C}"]),
    ])
    def test_injectables_of_each_cut(self, tmp_path, capsys, cut, lines):
        from qinflate.dag import build_cut_inflation, format_dag

        path = tmp_path / "cut.dag"
        path.write_text(format_dag(build_cut_inflation(tuple(cut))))
        assert main(["dag", "injectables", str(path)]) == 0
        singles = ["{A1} -> {A}", "{B1} -> {B}", "{C1} -> {C}"]
        assert capsys.readouterr().out == "\n".join(singles + lines) + "\n"

    def test_fanout_check(self, tmp_path, capsys):
        path = tmp_path / "fanout.dag"
        path.write_text(
            "".join(f"node {n} {k} copy={n[1]}\n" for n, k in [
                ("A1", "visible"), ("A2", "visible"), ("B1", "visible"), ("C1", "visible"),
                ("L1", "latent"), ("M1", "latent"), ("M2", "latent"), ("N1", "latent"),
            ])
            + "edge L1 A1\nedge L1 A2\nedge L1 C1\nedge M1 A1\nedge M2 A2\n"
            "edge M1 B1\nedge N1 B1\nedge N1 C1\n"
        )
        assert main(["dag", "check", str(path)]) == 0
        assert capsys.readouterr().out == "inflation: yes, nonfanout: no\n"

    def test_malformed_copy_index(self, tmp_path, capsys):
        path = tmp_path / "bad.dag"
        path.write_text("node A1 visible copy=x\n")
        assert main(["dag", "check", str(path)]) == 1
        assert "line 1" in capsys.readouterr().err

    def test_non_utf8_dag_file(self, tmp_path, capsys):
        path = tmp_path / "bad.dag"
        path.write_bytes(b"node A visible\n# \xe9\n")
        assert main(["dag", "check", str(path)]) == 1
        assert "is not UTF-8" in capsys.readouterr().err

    def test_not_an_inflation(self, tmp_path, capsys):
        path = tmp_path / "no.dag"
        path.write_text("node A1 visible copy=1\nnode B1 visible copy=1\n")
        assert main(["dag", "check", str(path)]) == 0
        assert "inflation: no" in capsys.readouterr().out


class TestReproduceCommand:
    def test_single_claim(self, capsys):
        assert main(["reproduce", "AC-3"]) == 0
        out = capsys.readouterr().out
        assert "AC-3 [PASS]" in out
        assert "ok" in out

    def test_unknown_claim(self, capsys):
        assert main(["reproduce", "AC-99"]) == 1
        assert "unknown claim" in capsys.readouterr().err

    def test_raising_claim_does_not_blank_the_report(self, monkeypatch, capsys):
        from qinflate import reproduce
        from qinflate.errors import DomainError

        def no_crossing(rng):
            raise DomainError("no sign change on [0.7, 0.95]")

        claims = {"AC-1": reproduce.CLAIMS["AC-1"], "AC-X": ("raises", no_crossing)}
        monkeypatch.setattr(reproduce, "CLAIMS", claims)
        assert main(["reproduce"]) == 1
        out = capsys.readouterr().out
        assert "AC-1 [PASS]" in out
        assert "AC-X [FAIL] raises" in out
        assert "FAIL raised DomainError: no sign change on [0.7, 0.95]" in out
