import dataclasses
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import gknextend
from gknextend import cli, legendre, spectral
from gknextend.catalog import build_example
from gknextend.cli import CONFIG_SCHEMA, ConfigError, load_config, main, run
from gknextend.extension import model_to_json
from gknextend.spectral import symmetry_defect

from conftest import benchmark_module, benchmark_ops, tied_pairs


def write_config(tmp_path, cfg, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


class TestConfigValidation:
    def test_unknown_example(self, tmp_path):
        path = write_config(tmp_path, {"example": "nope"})
        with pytest.raises(ConfigError, match="schema"):
            load_config(path)

    def test_unknown_key(self, tmp_path):
        path = write_config(tmp_path, {"example": "first_order", "bogus": 1})
        with pytest.raises(ConfigError, match="schema"):
            load_config(path)

    def test_bad_param_type(self, tmp_path):
        path = write_config(tmp_path, {"example": "first_order", "params": {"alpha": "x"}})
        with pytest.raises(ConfigError, match="schema"):
            load_config(path)

    def test_custom_needs_model(self, tmp_path):
        path = write_config(tmp_path, {"example": "custom"})
        with pytest.raises(ConfigError, match="model"):
            load_config(path)

    def test_missing_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(str(tmp_path / "nothere.json"))

    def test_schema_document_matches(self):
        doc = Path(__file__).resolve().parents[1] / "docs" / "config_schema.json"
        assert json.loads(doc.read_text()) == CONFIG_SCHEMA


class TestRefusals:
    """Configs outside the model's domain exit 2 with a reason, never 1."""

    def refused(self, tmp_path, capsys, cfg, command="derive-bc"):
        path = write_config(tmp_path, cfg)
        code = main([command, "--config", path])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error:")
        return err

    def test_negative_A(self, tmp_path, capsys):
        err = self.refused(tmp_path, capsys, {"example": "legendre_type", "params": {"A": -1}})
        assert "-1" in err

    def test_zero_M(self, tmp_path, capsys):
        err = self.refused(tmp_path, capsys, {"example": "fourier_3_3", "params": {"M": 0}})
        assert "0" in err

    def test_reversed_interval(self, tmp_path, capsys):
        err = self.refused(tmp_path, capsys, {"example": "fourier_3_3", "params": {"a": 1, "b": 0}})
        assert "a < b" in err

    def test_reversed_interval_in_custom_model(self, tmp_path, capsys):
        # reaches the expression constructor, past the schema
        model = model_to_json(build_example("fourier_3_3").model)
        model["expression"] = {"kind": "fourier", "a": "1", "b": "0"}
        err = self.refused(tmp_path, capsys, {"example": "custom", "model": model})
        assert "a < b" in err

    def test_non_numeric_gram_in_custom_model(self, tmp_path, capsys):
        model = model_to_json(build_example("fourier_3_3").model)
        model["G"] = "abc"
        err = self.refused(tmp_path, capsys, {"example": "custom", "model": model})
        assert "'model'" in err and "ValueError" in err

    @pytest.mark.parametrize("literal", ["x", "1/0"])
    def test_bad_endpoint_literal_in_custom_model(self, tmp_path, capsys, literal):
        model = model_to_json(build_example("fourier_3_3").model)
        model["expression"]["a"] = literal
        err = self.refused(tmp_path, capsys, {"example": "custom", "model": model})
        assert "'model'" in err

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_json_constant(self, tmp_path, capsys, constant):
        # Python's json module accepts these; the schema's number tests do not see them
        path = tmp_path / "cfg.json"
        path.write_text('{"example": "fourier_3_3", "params": {"alpha": %s}}' % constant)
        for command in ("derive-bc", "spectrum"):
            assert main([command, "--config", str(path)]) == 2
            assert constant in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name", ["fourier_3_1", "fourier_3_2a", "fourier_3_3", "fourier_3_4", "fourier_3_5"]
    )
    def test_interval_too_long_for_deficiency_solutions(self, tmp_path, capsys, name):
        # (b - a)^2 fits a float, exp(mu b) does not: refused before exp is
        # evaluated, so no overflow warning is raised on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            err = self.refused(tmp_path, capsys, {"example": name, "params": {"b": 1e150}}, "spectrum")
        assert "exp(mu u)" in err

    def test_grid_too_fine(self, tmp_path, capsys):
        err = self.refused(tmp_path, capsys, {"example": "fourier_3_3", "grid_N": 257}, "spectrum")
        assert "256" in err

    def test_candidate_not_an_object(self, tmp_path, capsys):
        model = model_to_json(build_example("fourier_3_3").model)
        cfg = {"example": "custom", "model": model, "candidates": [1]}
        err = self.refused(tmp_path, capsys, cfg)
        assert "'candidates'" in err and "TypeError" in err


class TestInternalErrors:
    """A fault of the verifier exits 3 and ends stderr with a summary line, never exit 1.

    Inputs the verifier's float arithmetic cannot hold are refused with exit 2
    before they can cause such a fault.
    """

    @pytest.mark.parametrize("command", ["check-symplectic", "derive-bc", "spectrum"])
    def test_overflowing_interval(self, tmp_path, capsys, command):
        # schema-valid, but the spectral window squares b - a
        path = write_config(tmp_path, {"example": "fourier_3_3", "params": {"b": 1e300}})
        assert main([command, "--config", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "config error: interval length b - a = 1e+300 is too long: its square overflows\n"
        )

    def test_fault_of_the_verifier(self, tmp_path, capsys, monkeypatch):
        def broken(entry, cfg, checks, report):
            raise RuntimeError("broken runner")

        monkeypatch.setitem(cli.COMMANDS, "derive-bc", broken)
        path = write_config(tmp_path, {"example": "fourier_3_3"})
        assert main(["derive-bc", "--config", path]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" in captured.err
        assert captured.err.splitlines()[-1] == "internal error: RuntimeError: broken runner"


class TestCouplingChecks:
    """The Omega checks are relative to the form's size on the GKN traces."""

    @pytest.mark.parametrize(
        "example, params",
        [("legendre_type", {"A": 1e5}), ("fourier_3_3", {"M": 1e8}), ("fourier_3_1", {"M": 1e9})],
    )
    def test_large_scale_models_pass(self, tmp_path, example, params):
        path = write_config(tmp_path, {"example": example, "params": params})
        assert main(["check-symplectic", "--config", path, "--out", str(tmp_path / "r.json")]) == 0

    @pytest.mark.parametrize(
        "example, params", [("fourier_3_3", {}), ("legendre_type", {"A": 1e5})]
    )
    def test_scaled_omega_fails_coupling_identity(self, example, params):
        entry = build_example(example, params)
        model = dataclasses.replace(entry.model, Omega=1.01 * entry.model.Omega)
        checks = cli.Checks()
        cli.run_check_symplectic(dataclasses.replace(entry, model=model), {"seed": 0}, checks, {})
        failed = [c["name"] for c in checks.items if not c["pass"]]
        assert failed == ["omega_coupling_identity"]

    def test_algebra_commands_do_not_read_the_seed(self, tmp_path, monkeypatch):
        # the coupling identity is linear in x, so it is checked as a matrix
        # identity rather than on seeded random x
        for i, (command, cfg) in enumerate(benchmark_ops(monkeypatch, "algebra_sweep", 1)):
            path = write_config(tmp_path, cfg)
            reports = []
            for seed in ("0", "7"):
                out = tmp_path / f"{i}_{seed}.json"
                assert main([command, "--config", path, "--seed", seed, "--out", str(out)]) == 0
                report = json.loads(out.read_text())
                del report["seed"], report["timings"]
                reports.append(report)
            assert reports[0] == reports[1], (command, cfg)


class TestBenchmarkHarness:
    def test_traced_ops_run_and_uninstall_restores(self, tmp_path, monkeypatch):
        # the tracer patches `spectral.solve_ivp`, which the oracle no longer
        # calls: the name must still resolve, or every traced run dies
        import scipy.integrate

        tracer = benchmark_module(monkeypatch, "tracing").Tracer()
        namespaces = [gknextend, *tracer.modules.values()]
        before = [dict(vars(ns)) for ns in namespaces]
        poly = tracer.modules["polynomials"].Poly
        mul = poly.__mul__
        tracer.install()
        ops = [
            ("spectrum", {"example": "first_order", "grid_N": 64}),
            ("derive-bc", {"example": "fourier_3_3"}),
        ]
        try:
            for i, (command, cfg) in enumerate(ops):
                path = write_config(tmp_path, cfg, f"cfg_{i}.json")
                out = str(tmp_path / f"r{i}.json")
                assert main([command, "--config", path, "--out", out]) == 0
        finally:
            tracer.uninstall()
        assert tracer.calls["spectral.shooting_oracle"] == 1
        assert tracer.calls["extension.derive_boundary_conditions"] >= 1
        assert tracer.rk_nfev == 0
        # uninstall puts the resolved name back into the module's namespace
        assert vars(spectral).pop("solve_ivp") is scipy.integrate.solve_ivp
        for ns, old in zip(namespaces, before):
            assert vars(ns).keys() == old.keys()
            assert all(vars(ns)[name] is value for name, value in old.items()), ns.__name__
        assert poly.__mul__ is mul

    def test_cli_import_leaves_out_scipy_integrate(self):
        src = str(Path(gknextend.__file__).resolve().parents[1])
        code = "import sys, gknextend.cli; assert 'scipy.integrate' not in sys.modules"
        env = {**os.environ, "PYTHONPATH": src}
        subprocess.run([sys.executable, "-c", code], check=True, env=env)


class TestRun:
    def test_derive_bc_report_fields(self):
        report = run({"example": "fourier_3_3", "seed": 0}, "derive-bc")
        assert report["status"] == "pass"
        assert report["boundary_conditions_rendered"] == ["a_W[1] = x(a)", "a_W[2] = x(b)"]
        assert all(c["pass"] for c in report["checks"])

    def test_inapplicable_command(self):
        with pytest.raises(ConfigError, match="not applicable"):
            run({"example": "fourier_3_2b", "seed": 0}, "spectrum")

    def test_legendre_command_only_for_legendre(self):
        with pytest.raises(ConfigError, match="not applicable"):
            run({"example": "fourier_3_1", "seed": 0}, "legendre")

    def test_run_legendre(self):
        report = run({"example": "legendre_type", "n_max": 6, "seed": 0}, "legendre")
        assert report["status"] == "pass"
        assert report["legendre_eigenvalues"][:3] == ["0", "8", "48"]

    def test_wrong_eigenvalue_fails_formula_check(self, monkeypatch):
        true_eigenvalue = legendre.lt_eigenvalue

        def off_by_one(n, A):
            return true_eigenvalue(n, A) + 1

        monkeypatch.setattr(legendre, "lt_eigenvalue", off_by_one)
        monkeypatch.setattr(cli, "lt_eigenvalue", off_by_one)
        report = run({"example": "legendre_type", "n_max": 6, "seed": 0}, "legendre")
        failed = {c["name"] for c in report["checks"] if not c["pass"]}
        assert "eigenvalue_formula_exact" in failed
        assert report["status"] == "fail"

    def test_custom_model_round_trip(self):
        entry = build_example("fourier_3_3")
        cands = []
        for t, w in entry.candidates:
            tr = []
            for v in t.as_array():
                tr += [v.real, v.imag]
            wv = []
            for v in np.asarray(w, dtype=complex):
                wv += [v.real, v.imag]
            cands.append({"trace": tr, "w": wv})
        cfg = {
            "example": "custom",
            "model": model_to_json(entry.model),
            "candidates": cands,
            "seed": 0,
        }
        report = run(cfg, "derive-bc")
        assert report["status"] == "pass"
        assert report["boundary_conditions_rendered"] == ["a_W[1] = x(a)", "a_W[2] = x(b)"]


class TestMain:
    def test_pass_exit_code_and_output(self, tmp_path, capsys):
        path = write_config(tmp_path, {"example": "first_order", "seed": 0})
        code = main(["derive-bc", "--config", path])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["status"] == "pass"

    def test_out_file(self, tmp_path):
        path = write_config(tmp_path, {"example": "first_order", "seed": 0})
        out = tmp_path / "rep.json"
        code = main(["verify-gkn", "--config", path, "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["status"] == "pass"

    @pytest.mark.parametrize("flag", ["--out", "--csv"])
    def test_unwritable_output_is_refused(self, tmp_path, capsys, flag):
        path = write_config(tmp_path, {"example": "first_order", "seed": 0})
        target = str(tmp_path / "missing_dir" / "r.json")
        assert main(["derive-bc", "--config", path, flag, target]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: cannot write {target}: No such file or directory\n"

    def test_config_error_exit_code(self, tmp_path, capsys):
        path = write_config(tmp_path, {"example": "bogus"})
        assert main(["all", "--config", path]) == 2

    def test_tolerances_are_not_configurable(self, tmp_path, capsys):
        # the acceptance gates are fixed; a config cannot loosen or tighten them
        path = write_config(
            tmp_path,
            {"example": "first_order", "seed": 0, "tolerances": {"sabotage_floor": 1e6}},
        )
        assert main(["spectrum", "--config", path]) == 2
        assert "'tolerances' was unexpected" in capsys.readouterr().err

    def test_missed_root_pair_fails_coverage(self, tmp_path):
        # two eigenvalues (-1.7577, -1.6426) share one cell of the oracle scan
        cfg = {
            "example": "fourier_3_4",
            "params": {"M": 2.4, "N_weight": 2.6, "alpha": 0.35, "gamma": 0.35,
                       "beta_re": -0.7, "a": -0.75, "b": 0.6},
            "seed": 0,
        }
        out = tmp_path / "rep.json"
        assert main(["spectrum", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 1
        report = json.loads(out.read_text())
        assert [c["name"] for c in report["checks"] if not c["pass"]] == ["oracle_covers_discrete"]

    @pytest.mark.parametrize("example", ["fourier_3_2a", "fourier_3_4", "legendre_type"])
    def test_spectrum_passes_on_the_finest_grid(self, tmp_path, example):
        # the sabotage control and the honest defect both keep their margins at 256
        path = write_config(tmp_path, {"example": example, "grid_N": 256})
        assert main(["spectrum", "--config", path, "--out", str(tmp_path / "rep.json")]) == 0

    def test_complex_beta_keeps_oracle_in_scope(self, tmp_path):
        # B stays self-adjoint for the W inner product, so the determinant is real
        path = write_config(tmp_path, {"example": "fourier_3_3", "params": {"beta_im": 0.5}})
        out = tmp_path / "rep.json"
        assert main(["spectrum", "--config", path, "--out", str(out)]) == 0
        names = [c["name"] for c in json.loads(out.read_text())["checks"]]
        assert {"oracle_agreement_rel", "oracle_covers_discrete"} <= set(names)

    def test_first_order_pairs_on_drawn_parameters(self, monkeypatch):
        # the spectrum is symmetric only at alpha = 0; wherever two reported
        # eigenvalues or oracle roots tie in |lambda| to 9 digits, -lambda
        # comes first
        for command, cfg in benchmark_ops(monkeypatch, "fine_grid_sweep", 1):
            if cfg["example"] != "first_order":
                continue
            for alpha in (cfg["params"]["alpha"], 0.0):
                params = {**cfg["params"], "alpha": alpha}
                report = run({**cfg, "params": params}, command)
                evals = [complex(re, im) for re, im in report["eigenvalues"]["eigenvalues"]]
                pairs = tied_pairs(evals)
                assert len(pairs) == (3 if alpha == 0.0 else 0)
                assert all(evals[i].real < 0 < evals[i + 1].real for i in pairs)
                roots = report["oracle_eigenvalues"]
                pairs = tied_pairs(roots)
                assert len(pairs) == (2 if alpha == 0.0 else 0)
                assert all(roots[i] < 0 < roots[i + 1] for i in pairs)

    @pytest.mark.parametrize(
        "params", [{"b": 30}, {"b": 50}, {"a": 100, "b": 101}], ids=["b30", "b50", "a100_b101"]
    )
    def test_spectrum_passes_far_from_the_origin(self, tmp_path, params):
        # the deficiency solutions are centred on the interval and their
        # residual is relative, so neither depends on where [a, b] lies
        path = write_config(tmp_path, {"example": "fourier_3_3", "params": params})
        out = tmp_path / "rep.json"
        assert main(["spectrum", "--config", path, "--out", str(out)]) == 0
        checks = {c["name"]: c["got"] for c in json.loads(out.read_text())["checks"]}
        assert checks["deficiency_eigenrelation_residual"] < 1e-14

    @pytest.mark.parametrize(
        "qs",
        [
            [["2", "1"], ["1", "0", "1/3"], ["3"], ["2", "1/2"]],
            [[0.5, 0.4], [0.4, 0.3, 0.33], [0.6], [0.5, 0.35]],
        ],
        ids=["exact", "float"],
    )
    def test_order_six_model_without_extension(self, tmp_path, qs):
        cfg = {
            "example": "custom",
            "model": {
                "expression": {"kind": "general_even_order", "qs": qs, "a": "-1/2", "b": "1"},
                "G": [], "B": [], "Xi": [], "gkn_traces": [],
            },
        }
        out = tmp_path / "rep.json"
        path = write_config(tmp_path, cfg)
        assert main(["check-symplectic", "--config", path, "--out", str(out)]) == 0
        checks = {c["name"]: c["got"] for c in json.loads(out.read_text())["checks"]}
        assert checks["quotient_dimension"] == 12

    def test_classical_gkn_without_extension(self, tmp_path):
        # dim W = 0; the GKN set x(a) = 1, x(b) = 1 gives Neumann conditions
        cfg = {
            "example": "custom",
            "model": {
                "expression": {"kind": "fourier", "a": "0", "b": "1"},
                "G": [], "B": [], "Xi": [], "gkn_traces": [],
            },
            "candidates": [
                {"trace": [1, 0, 0, 0, 0, 0, 0, 0], "w": []},
                {"trace": [0, 0, 0, 0, 1, 0, 0, 0], "w": []},
            ],
        }
        out = tmp_path / "rep.json"
        assert main(["all", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["boundary_conditions_rendered"] == ["x'(a) = 0", "x'(b) = 0"]

    @pytest.mark.parametrize(
        "model",
        [
            model_to_json(build_example("fourier_3_3").model),
            {
                "expression": {
                    "kind": "general_even_order",
                    "qs": [["2", "1"], ["1", "0", "1/3"], ["3"], ["2", "1/2"]],
                    "a": "-1/2", "b": "1",
                },
                "G": [], "B": [], "Xi": [], "gkn_traces": [],
            },
        ],
        ids=["fourier_3_3", "order_six"],
    )
    def test_custom_model_without_candidates(self, tmp_path, capsys, model):
        # no conditions to derive and no GKN set to verify: an empty
        # verify-gkn would pass vacuously, so only check-symplectic applies
        path = write_config(tmp_path, {"example": "custom", "model": model})
        for command in ("verify-gkn", "derive-bc"):
            assert main([command, "--config", path]) == 2
            assert "not applicable to 'custom'" in capsys.readouterr().err
        out = tmp_path / "rep.json"
        assert main(["all", "--config", path, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert list(report["timings"]) == ["check-symplectic"]
        assert [c["name"] for c in report["checks"]][-1] == "quotient_nondegenerate"

    def test_deterministic_roundtrip(self, tmp_path):
        path = write_config(tmp_path, {"example": "fourier_3_4", "seed": 11})
        o1, o2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["all", "--config", path, "--out", str(o1)]) == 0
        assert main(["all", "--config", path, "--out", str(o2)]) == 0
        a = json.loads(o1.read_text())
        b = json.loads(o2.read_text())
        a.pop("timings")
        b.pop("timings")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_seed_override_recorded(self, tmp_path, capsys):
        path = write_config(tmp_path, {"example": "first_order", "seed": 0})
        code = main(["derive-bc", "--config", path, "--seed", "42"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["seed"] == 42

    @pytest.mark.parametrize("example", ["fourier_3_1", "legendre_type"])
    def test_symmetry_defect_measured_once_per_assembly(self, example, monkeypatch):
        # once for the honest assembly, once for the sabotaged one
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0])
            return symmetry_defect(*args, **kwargs)

        monkeypatch.setattr(cli, "symmetry_defect", counted)
        monkeypatch.setattr(spectral, "symmetry_defect", counted)
        report = run({"example": example, "seed": 0}, "spectrum")
        assert len(calls) == 2 and calls[0] is not calls[1]
        if "eigenvalues" in report:
            got = next(c["got"] for c in report["checks"] if c["name"] == "symmetry_defect")
            assert report["eigenvalues"]["symmetry_defect"] == got

    def test_csv_output(self, tmp_path):
        path = write_config(tmp_path, {"example": "fourier_3_1", "seed": 0})
        csv_path = tmp_path / "eigs.csv"
        code = main(
            ["spectrum", "--config", path, "--out", str(tmp_path / "r.json"), "--csv", str(csv_path)]
        )
        assert code == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "index,re,im,residual"
        assert len(lines) == 9  # 8 eigenvalues reported
