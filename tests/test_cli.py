import argparse
import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema import Draft202012Validator
from jsonschema.exceptions import best_match

import gknextend
from gknextend import catalog, cli, extension, legendre, spectral
from gknextend.catalog import DEFAULT_PARAMS, EXAMPLE_NAMES, build_example
from gknextend.cli import CONFIG_SCHEMA, ConfigError, load_config, main, run
from gknextend.spectral import symmetry_defect

from conftest import benchmark_module, benchmark_ops, custom_config, model_to_json, tied_pairs


def write_config(tmp_path, cfg, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


# the keywords cli's validator implements
SCHEMA_KEYWORDS = {
    "type", "properties", "additionalProperties", "required",
    "enum", "minimum", "maximum", "exclusiveMinimum",
}

# any JSON value, for keys and sections the schema does not expect it in
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def mostly(usual, rare, odds: int):
    """`usual`, but `rare` once in `odds` draws (`one_of` would draw them alike)."""
    return st.integers(1, odds).flatmap(lambda i: rare if i == 1 else usual)


def schema_values(schema: dict):
    """Configs near `schema`: its enum members, numbers about its bounds as ints,
    integral and other floats and bools, objects with known keys left out and
    unknown keys added, and now and then any JSON value."""
    if "enum" in schema:
        near = st.sampled_from(schema["enum"])
    elif "properties" in schema:
        props = {k: schema_values(sub) for k, sub in schema["properties"].items()}
        required = schema.get("required", ())
        with_required = st.fixed_dictionaries(
            {k: props[k] for k in required},
            optional={k: v for k, v in props.items() if k not in required},
        )
        known = mostly(with_required, st.fixed_dictionaries({}, optional=props), 4)
        unknown = st.dictionaries(st.text(max_size=5), JSON_VALUES, min_size=1, max_size=2)
        near = st.builds(lambda extra, known: {**extra, **known}, mostly(st.just({}), unknown, 4), known)
    elif schema.get("type") in ("number", "integer"):
        lo = schema.get("minimum", schema.get("exclusiveMinimum", -3))
        inside = st.integers(lo, schema.get("maximum", 300))
        ints = st.integers(lo - 3, schema.get("maximum", 300) + 3)
        near = mostly(inside, inside.map(float) | ints | st.floats(lo - 3, 300) | st.booleans(), 2)
    else:
        return JSON_VALUES
    return mostly(near, JSON_VALUES, 8)


def subschemas(schema: dict):
    yield schema
    for sub in schema.get("properties", {}).values():
        yield from subschemas(sub)


REFERENCE = Draft202012Validator(CONFIG_SCHEMA)


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("schema") / "cfg.json"


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

    def test_schema_is_valid_draft_2020_12(self):
        Draft202012Validator.check_schema(CONFIG_SCHEMA)

    def test_schema_uses_only_the_validated_keywords(self):
        for sub in subschemas(CONFIG_SCHEMA):
            assert set(sub) <= SCHEMA_KEYWORDS, sorted(set(sub) - SCHEMA_KEYWORDS)
            # `in` compares strings as jsonschema's enum does; it would take True for 1
            assert all(isinstance(v, str) for v in sub.get("enum", ()))
            assert sub.get("type", "object") in ("object", "array", "number", "integer")
            assert sub.get("additionalProperties", False) is False

    @settings(max_examples=400, derandomize=True, database=None, deadline=None)
    @given(cfg=schema_values(CONFIG_SCHEMA))
    def test_same_verdict_and_message_as_jsonschema(self, cfg, fuzz_path):
        fuzz_path.write_text(json.dumps(cfg))
        error = best_match(REFERENCE.iter_errors(cfg))
        if error is None:
            try:
                load_config(str(fuzz_path))
            except ConfigError as e:
                # only the checks after the schema: a custom model, a < b
                assert "schema" not in str(e)
            return
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert main(["derive-bc", "--config", str(fuzz_path)]) == 2
        assert err.getvalue() == f"config error: config schema violation: {error.message}\n"

    @pytest.mark.parametrize(
        "command, cfg",
        [
            ("spectrum", {"example": "fourier_3_3", "grid_N": 32.0}),
            ("spectrum", {"example": "fourier_3_3", "grid_N": 32, "seed": 3.0}),
            ("legendre", {"example": "legendre_type", "n_max": 10.0}),
        ],
        ids=["grid_N", "seed", "n_max"],
    )
    def test_integral_float_runs_as_its_int(self, tmp_path, command, cfg):
        # JSON Schema counts 32.0 as an integer, so the config is valid
        reports = []
        for twin in (cfg, {k: int(v) if isinstance(v, float) else v for k, v in cfg.items()}):
            out = tmp_path / "rep.json"
            assert main([command, "--config", write_config(tmp_path, twin), "--out", str(out)]) == 0
            report = json.loads(out.read_text())
            del report["timings"]
            reports.append(report)
        # `==` takes 3.0 for 3; the report's text does not
        assert json.dumps(reports[0]) == json.dumps(reports[1])


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

    @pytest.mark.parametrize("key", list(DEFAULT_PARAMS))
    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity", "1e400", "-1e400"])
    def test_non_finite_json_number(self, tmp_path, capsys, constant, key):
        # Python's json module accepts the constants, and reads a literal that
        # overflows as inf; the schema's number tests see neither
        path = tmp_path / "cfg.json"
        path.write_text('{"example": "legendre_type", "params": {"%s": %s}}' % (key, constant))
        for command in ("derive-bc", "spectrum"):
            assert main([command, "--config", str(path)]) == 2
            assert capsys.readouterr().err == (
                f"config error: config holds {constant}, which is not a finite number\n"
            )

    @pytest.mark.parametrize(
        "example, key", [("legendre_type", "A"), ("fourier_3_3", "b"), ("fourier_3_3", "seed")]
    )
    @pytest.mark.parametrize("digits", [401, 5000], ids=["past_float", "past_int_limit"])
    @pytest.mark.parametrize("sign", ["", "-"], ids=["positive", "negative"])
    def test_integer_literal_past_the_float_range(self, tmp_path, capsys, example, key, digits, sign):
        # json reads an integer literal with int(), not parse_float; past 4300
        # digits int() itself refuses it with a ValueError
        literal = sign + "1" * digits
        entry = '"seed": %s' % literal if key == "seed" else '"params": {"%s": %s}' % (key, literal)
        path = tmp_path / "cfg.json"
        path.write_text('{"example": "%s", %s}' % (example, entry))
        for command in ("derive-bc", "spectrum"):
            assert main([command, "--config", str(path)]) == 2
            assert capsys.readouterr().err == (
                f"config error: config holds {literal[:20]}... ({len(literal)} characters), "
                "which is not a finite number\n"
            )

    def test_largest_integer_literal_in_range_runs(self, tmp_path):
        # 10^308 fits a float: the schema accepts the seed, which no report reads
        path = write_config(tmp_path, {"example": "fourier_3_3", "seed": 10**308})
        out = tmp_path / "rep.json"
        assert main(["spectrum", "--config", path, "--out", str(out)]) == 0
        assert "seed" not in json.loads(out.read_text())

    def test_negative_seed(self, tmp_path, capsys):
        # the ignored seed key keeps its schema bound
        argv = ["spectrum", "--config", write_config(tmp_path, {"example": "fourier_3_3", "seed": -1})]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "config error: config schema violation: -1 is less than the minimum of 0\n"
        )

    @pytest.mark.parametrize(
        "text",
        [
            b'{"example": "fourier_3_3", "x": "\xff"}',
            b'{"example": "custom", "model": ' + b"[" * 10**5 + b"]" * 10**5 + b"}",
        ],
        ids=["not_utf8", "nested_too_deep"],
    )
    def test_unreadable_config(self, tmp_path, capsys, text):
        path = tmp_path / "cfg.json"
        path.write_bytes(text)
        assert main(["derive-bc", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith("config error: cannot read config")

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

    @pytest.mark.parametrize(
        "section, name",
        [
            ("candidates", "candidates[].trace"),
            ("candidates", "candidates[].w"),
            ("model", "model.gkn_traces[]"),
        ],
    )
    @pytest.mark.parametrize("flaw", ["odd_length", "true"])
    def test_loose_flat_list(self, tmp_path, capsys, section, name, flaw):
        # a trailing number was dropped and a JSON true read as 1: both now exit 2
        cfg = custom_config("fourier_3_5")
        if name == "model.gkn_traces[]":
            flat = cfg["model"]["gkn_traces"][0]
        else:
            flat = cfg["candidates"][0][name.split(".")[1]]
        if flaw == "odd_length":
            flat.append(7.0)
        else:
            # a value-preserving true where the part holds a 1
            flat[flat.index(1.0) if 1.0 in flat else 0] = True
        for command in ("check-symplectic", "derive-bc"):
            err = self.refused(tmp_path, capsys, cfg, command)
            assert f"bad custom {section!r} section" in err and name in err

    def test_candidate_parts_are_checked_apart(self, tmp_path, capsys):
        # the W number moved into the trace: the stacked length is right, each part's is not
        cfg = custom_config("fourier_3_1")
        item = cfg["candidates"][0]
        item["trace"] += item.pop("w")
        err = self.refused(tmp_path, capsys, cfg)
        assert "candidates[].trace holds 10 numbers" in err

    @pytest.mark.parametrize(
        "example, params",
        [
            ("fourier_3_3", {"M": 1e12, "N_weight": 1e-12}),
            ("fourier_3_3", {"M": 1e24}),
            ("fourier_3_4", {"M": 1e10, "N_weight": 1e-8}),
            ("fourier_3_5", {"M": 1e-9, "N_weight": 1e9}),
        ],
    )
    def test_partial_traces_of_unequal_scale_refused_by_their_scale(self, tmp_path, capsys, example, params):
        # independent rows whose rank, relative to the largest singular value, is short
        for command in ("check-symplectic", "all"):
            err = self.refused(tmp_path, capsys, {"example": example, "params": params}, command)
            assert "partial GKN traces differ in scale by a factor" in err
            assert "against 1/TOL_RANK = 1e+08" in err and "linearly dependent" not in err

    def test_dependent_partial_traces_refused_as_dependent(self, tmp_path, capsys):
        model = model_to_json(build_example("fourier_3_3").model)
        model["gkn_traces"][1] = [2 * x for x in model["gkn_traces"][0]]
        err = self.refused(tmp_path, capsys, {"example": "custom", "model": model}, "check-symplectic")
        assert err.endswith("ModelError: partial GKN traces are linearly dependent\n")

    @pytest.mark.parametrize(
        "qs, a",
        [
            ([["0"], ["0", "1"]], "-1"),
            ([[0.0], [-0.25, 0.0, 1.0]], "-1"),
            ([["1"], ["1"], ["1"], ["0", "1"]], "-1"),
        ],
        ids=["exact", "float", "order_six"],
    )
    def test_singular_custom_model(self, tmp_path, capsys, qs, a):
        # the leading coefficient q_n vanishes inside [a, b]
        model = {
            "expression": {"kind": "general_even_order", "qs": qs, "a": a, "b": "1"},
            "G": [], "B": [], "Xi": [], "gkn_traces": [],
        }
        err = self.refused(tmp_path, capsys, {"example": "custom", "model": model}, "check-symplectic")
        assert "singular" in err

    @pytest.mark.parametrize("command", ["derive-bc", "all"])
    def test_non_real_q0_refused(self, tmp_path, capsys, command):
        # -x'' + i x with the Neumann-type GKN set x(a), x(b): q_0 = i enters no
        # boundary term, so only the coefficient gate can tell it is not symmetric
        cfg = {
            "example": "custom",
            "model": {
                "expression": {"kind": "general_even_order", "qs": [[[0, 1]], ["1"]],
                               "a": "0", "b": "1"},
                "G": [], "B": [], "Xi": [], "gkn_traces": [],
            },
            "candidates": [
                {"trace": [1, 0, 0, 0, 0, 0, 0, 0], "w": []},
                {"trace": [0, 0, 0, 0, 1, 0, 0, 0], "w": []},
            ],
        }
        err = self.refused(tmp_path, capsys, cfg, command)
        assert "q_0 is not a real polynomial" in err

    def test_degenerate_form_refusal_names_the_leading_coefficient(self, tmp_path, capsys):
        # q_1 = u - (1 + 1e-9) on [-1, 1]: no root on the interval, but c_2 = -q_1
        # is 1e-9 at b, and the boundary form is numerically degenerate
        model = {
            "expression": {"kind": "general_even_order",
                           "qs": [["0"], ["-1000000001/1000000000", "1"]], "a": "-1", "b": "1"},
            "G": [], "B": [], "Xi": [], "gkn_traces": [],
        }
        err = self.refused(tmp_path, capsys, {"example": "custom", "model": model}, "check-symplectic")
        assert "singular value = 1.000e-09/2.000e+00" in err
        assert "|c_2|, the leading coefficient, is 2.000e+00 at u = -1 and 1.000e-09 at u = 1" in err


INFINITE_GRAM = "Gram matrix G has an entry that is not finite (max|G| = inf)"


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

    @pytest.mark.parametrize(
        "name, b, command",
        [("fourier_3_3", 1e-300, c) for c in ("check-symplectic", "derive-bc", "spectrum")]
        + [("fourier_3_1", 1e-170, "derive-bc")],
    )
    def test_underflowing_interval(self, tmp_path, capsys, name, b, command):
        # the spectral window divides by (b - a)^2, which underflows to 0
        path = write_config(tmp_path, {"example": name, "params": {"b": b}})
        assert main([command, "--config", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"config error: interval length b - a = {b:g} is too short: its square underflows to 0\n"
        )

    @pytest.mark.parametrize(
        "cfg, command, message",
        [
            *(({"example": "fourier_3_1", "params": {"M": 1e-310}}, c, INFINITE_GRAM)
              for c in ("check-symplectic", "verify-gkn", "all")),
            ({"example": "legendre_type", "params": {"A": 1e-310}}, "check-symplectic", INFINITE_GRAM),
            *(
                (
                    {"example": "custom", "model": {
                        "expression": {"kind": "general_even_order", "qs": [["1"], ["1"]], "a": "0", "b": "1"},
                        "G": [[[1e300, 0]]], "B": [[[b, 0]]],
                        "gkn_traces": [[1e300, 0, 0, 0, 0, 0, 0, 0]],
                    }},
                    "check-symplectic", message,
                )
                for b, message in (
                    (1e300, "G B has an entry that is not finite (max|G| = 1.000e+300, max|B| = 1.000e+300)"),
                    (1.0, "max|G| = 1.000e+300, max|Omega| = 1.000e+150"),
                )
            ),
        ],
    )
    def test_overflowing_model_arrays(self, tmp_path, capsys, cfg, command, message):
        # G = diag(1/w) for a W weight of 1e-310, G B or G Omega for entries of
        # 1e300 is not finite: refused when the model is built, before any SVD meets it
        path = write_config(tmp_path, cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert main([command, "--config", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        last = captured.err.splitlines()[-1]
        assert last.startswith("config error: ")
        assert message in last
        if "Omega" in message:
            assert "the extended form overflows: its coupling block G Omega has an entry" in last

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
        cli.run_check_symplectic(dataclasses.replace(entry, model=model), {}, checks, {})
        failed = [c["name"] for c in checks.items if not c["pass"]]
        assert failed == ["omega_coupling_identity"]

    # each verdict is the probe pairs' own, not a draw's: seed 0 fails them,
    # and the second seed passed them when the pairs followed the seed key
    SEED_FLIPPED = [
        ({"example": "fourier_3_2a", "params": {"b": 0.001}, "grid_N": 256}, 9),
        ({"example": "legendre_type", "params": {"A": 1e5}, "grid_N": 64}, 162),
        ({"example": "fourier_3_3", "params": {"M": 1e-6}}, 8),
    ]

    def test_no_report_depends_on_the_seed(self, tmp_path, monkeypatch):
        # the coupling identity is linear in x, so the algebra commands check
        # it as a matrix identity; the symmetry defect's pairs are one fixed stream
        ops = [(cmd, cfg, 7, 0) for cmd, cfg in benchmark_ops(monkeypatch, "algebra_sweep", 1)]
        ops += [(cmd, cfg, seed, 1) for cfg, seed in self.SEED_FLIPPED for cmd in ("spectrum", "all")]
        for i, (command, cfg, seed, code) in enumerate(ops):
            texts = []
            for s in (0, seed):
                out = tmp_path / f"{i}_{s}.json"
                path = write_config(tmp_path, {**cfg, "seed": s})
                assert main([command, "--config", path, "--out", str(out)]) == code, (command, cfg, s)
                report = json.loads(out.read_text())
                del report["timings"]
                texts.append(json.dumps(report))
            assert texts[0] == texts[1], (command, cfg)


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
        # the hook on `assemble` still reads the reduced operator's size
        assert tracer.calls["spectral.symmetry_defect"] == 2
        assert tracer.reduced_dim > 0
        assert tracer.calls["extension.derive_boundary_conditions"] >= 1
        assert tracer.rk_nfev == 0
        # uninstall puts the resolved name back into the module's namespace
        assert vars(spectral).pop("solve_ivp") is scipy.integrate.solve_ivp
        for ns, old in zip(namespaces, before):
            assert vars(ns).keys() == old.keys()
            assert all(vars(ns)[name] is value for name, value in old.items()), ns.__name__
        assert poly.__mul__ is mul

    def test_cli_import_leaves_out_scipy_and_jsonschema(self):
        # `spectral` is imported by `run_spectrum` alone: the algebra commands
        # load no scipy; configs are validated by cli's own schema walk
        src = str(Path(gknextend.__file__).resolve().parents[1])
        code = (
            "import sys, gknextend.cli; "
            "assert 'scipy' not in sys.modules and 'jsonschema' not in sys.modules"
        )
        env = {**os.environ, "PYTHONPATH": src}
        subprocess.run([sys.executable, "-c", code], check=True, env=env)

    def test_algebra_commands_leave_out_scipy(self, tmp_path):
        # running them, not only importing cli: each command through cli.main
        # in one fresh process, after which no scipy module is loaded
        src = str(Path(gknextend.__file__).resolve().parents[1])
        runs = [
            (cmd, "fourier_3_3") for cmd in ("check-symplectic", "derive-bc", "verify-gkn")
        ] + [("legendre", "legendre_type")]
        for _, name in runs:
            (tmp_path / f"{name}.json").write_text(json.dumps({"example": name}))
        code = (
            "import sys, gknextend.cli\n"
            f"for cmd, name in {runs!r}:\n"
            "    args = [cmd, '--config', f'{name}.json', '--out', f'{cmd}.out.json']\n"
            "    assert gknextend.cli.main(args) == 0, cmd\n"
            "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "assert not loaded, loaded\n"
        )
        env = {**os.environ, "PYTHONPATH": src}
        subprocess.run([sys.executable, "-c", code], check=True, env=env, cwd=tmp_path)


class TestRun:
    def test_derive_bc_report_fields(self):
        report = run({"example": "fourier_3_3"}, "derive-bc")
        assert report["status"] == "pass"
        assert report["boundary_conditions_rendered"] == ["a_W[1] = x(a)", "a_W[2] = x(b)"]
        assert all(c["pass"] for c in report["checks"])

    def test_inapplicable_command(self):
        with pytest.raises(ConfigError, match="not applicable"):
            run({"example": "fourier_3_2b"}, "spectrum")

    def test_legendre_command_only_for_legendre(self):
        with pytest.raises(ConfigError, match="not applicable"):
            run({"example": "fourier_3_1"}, "legendre")

    def test_run_legendre(self):
        report = run({"example": "legendre_type", "n_max": 6}, "legendre")
        assert report["status"] == "pass"
        assert report["legendre_eigenvalues"][:3] == ["0", "8", "48"]

    def test_wrong_eigenvalue_fails_formula_check(self, monkeypatch):
        true_eigenvalue = legendre.lt_eigenvalue

        def off_by_one(n, A):
            return true_eigenvalue(n, A) + 1

        monkeypatch.setattr(legendre, "lt_eigenvalue", off_by_one)
        monkeypatch.setattr(cli, "lt_eigenvalue", off_by_one)
        report = run({"example": "legendre_type", "n_max": 6}, "legendre")
        failed = {c["name"] for c in report["checks"] if not c["pass"]}
        assert "eigenvalue_formula_exact" in failed
        assert report["status"] == "fail"

    @pytest.mark.parametrize(
        "name", [n for n in EXAMPLE_NAMES if build_example(n).candidates.size]
    )
    def test_custom_model_round_trip(self, name):
        report = run(custom_config(name), "derive-bc")
        published = run({"example": name}, "derive-bc")
        assert report["status"] == "pass"
        assert report["boundary_conditions_rendered"] == list(build_example(name).expected_strings)
        for key in ("boundary_conditions", "boundary_conditions_rendered"):
            assert report[key] == published[key]

    def test_custom_model_runs_negative_controls(self):
        # the independence and cardinality rules need only the model and the
        # candidates; a custom model states no symmetry partner
        custom = run(custom_config("fourier_3_3"), "verify-gkn")
        catalog = run({"example": "fourier_3_3"}, "verify-gkn")
        controls = [c for c in custom["checks"] if c["name"].startswith("control_")]
        assert [c["name"] for c in controls] == [
            "control_independence_detected",
            "control_independence_not_self_adjoint",
            "control_cardinality_detected",
            "control_cardinality_not_self_adjoint",
        ]
        assert all(c in catalog["checks"] for c in controls)
        assert custom["status"] == "pass"


class TestMain:
    def test_pass_exit_code_and_output(self, tmp_path, capsys):
        path = write_config(tmp_path, {"example": "first_order"})
        code = main(["derive-bc", "--config", path])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["status"] == "pass"

    def test_out_file(self, tmp_path):
        path = write_config(tmp_path, {"example": "first_order"})
        out = tmp_path / "rep.json"
        code = main(["verify-gkn", "--config", path, "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["status"] == "pass"

    @pytest.mark.parametrize("flag", ["--out", "--csv"])
    def test_unwritable_output_is_refused(self, tmp_path, capsys, flag):
        path = write_config(tmp_path, {"example": "first_order"})
        target = str(tmp_path / "missing_dir" / "r.json")
        assert main(["derive-bc", "--config", path, flag, target]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: cannot write {target}: No such file or directory\n"

    def test_arguments_parsed_without_building_a_parser(self, tmp_path, monkeypatch):
        # the parser is built once, at import
        monkeypatch.setattr(argparse, "ArgumentParser", None)
        path = write_config(tmp_path, {"example": "first_order"})
        assert main(["derive-bc", "--config", path, "--out", str(tmp_path / "r.json")]) == 0

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["--help"], 0),
            (["nope", "--config", "c.json"], 2),
            (["derive-bc"], 2),
            (["spectrum", "--config", "c.json", "--seed", "1"], 2),
        ],
        ids=["help", "unknown_command", "no_config", "seed_flag"],
    )
    def test_usage_exit_codes(self, capsys, argv, code):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == code
        captured = capsys.readouterr()
        assert (captured.out + captured.err).startswith("usage: gkn-extend [-h] --config CONFIG")

    def test_config_error_exit_code(self, tmp_path, capsys):
        path = write_config(tmp_path, {"example": "bogus"})
        assert main(["all", "--config", path]) == 2

    def test_tolerances_are_not_configurable(self, tmp_path, capsys):
        # the acceptance gates are fixed; a config cannot loosen or tighten them
        path = write_config(
            tmp_path,
            {"example": "first_order", "tolerances": {"sabotage_floor": 1e6}},
        )
        assert main(["spectrum", "--config", path]) == 2
        assert "'tolerances' was unexpected" in capsys.readouterr().err

    def test_missed_root_pair_fails_coverage(self, tmp_path):
        # two eigenvalues (-1.7577, -1.6426) share one cell of the oracle scan
        cfg = {
            "example": "fourier_3_4",
            "params": {"M": 2.4, "N_weight": 2.6, "alpha": 0.35, "gamma": 0.35,
                       "beta_re": -0.7, "a": -0.75, "b": 0.6},
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

    def test_root_just_outside_interval_runs(self, tmp_path):
        # q_1 = u - (1 + 1e-6) has its root just right of b = 1
        cfg = {
            "example": "custom",
            "model": {
                "expression": {
                    "kind": "general_even_order", "qs": [["1"], ["-1000001/1000000", "1"]],
                    "a": "-1", "b": "1",
                },
                "G": [], "B": [], "Xi": [], "gkn_traces": [],
            },
        }
        assert main(["check-symplectic", "--config", write_config(tmp_path, cfg)]) == 0

    # G = diag(1e8, 1e-10) gives xi = diag(1e-4, 1e5): the pair (1e-4 x(a), xi_1)
    # is a rounding error beside (1e-4 x(b), xi_2), so M_min has numerical rank 1
    RANK_DEFICIENT = {
        "example": "custom",
        "model": {
            "expression": {"kind": "fourier", "a": "0", "b": "1"},
            "G": [[[1e8, 0], [0, 0]], [[0, 0], [1e-10, 0]]],
            "B": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]],
            "gkn_traces": [[1e-4, 0, 0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 1e-4, 0, 0, 0]],
        },
    }

    def test_rank_deficient_minimal_pairs_refused(self, tmp_path, capsys):
        cfg = self.RANK_DEFICIENT
        assert main(["check-symplectic", "--config", write_config(tmp_path, cfg)]) == 2
        assert "rank-deficient" in capsys.readouterr().err

    def test_rank_deficient_refusal_names_its_cause(self, tmp_path, capsys):
        # the refusal names M_min, its columns and their singular values
        cfg = self.RANK_DEFICIENT
        assert main(["check-symplectic", "--config", write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert "M_min, the basis of minimal pairs (t_j, xi_j), is numerically rank-deficient" in err
        assert err.endswith("singular values 1.000e+05, 1.414e-04\n")

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
        path = write_config(tmp_path, {"example": "fourier_3_4"})
        o1, o2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["all", "--config", path, "--out", str(o1)]) == 0
        assert main(["all", "--config", path, "--out", str(o2)]) == 0
        a = json.loads(o1.read_text())
        b = json.loads(o2.read_text())
        a.pop("timings")
        b.pop("timings")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    @pytest.mark.parametrize("example", ["fourier_3_1", "legendre_type"])
    def test_both_defects_read_one_discretization(self, example, monkeypatch):
        # once for the honest rows, once for the sabotaged ones, on one M
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return symmetry_defect(*args, **kwargs)

        monkeypatch.setattr(spectral, "symmetry_defect", counted)
        report = run({"example": example}, "spectrum")
        assert len(calls) == 2
        (disc, honest), (disc_bad, sabotaged) = calls
        assert disc_bad is disc and sabotaged is not honest
        if "eigenvalues" in report:
            got = next(c["got"] for c in report["checks"] if c["name"] == "symmetry_defect")
            assert report["eigenvalues"]["symmetry_defect"] == got

    def test_csv_output(self, tmp_path):
        path = write_config(tmp_path, {"example": "fourier_3_1"})
        csv_path = tmp_path / "eigs.csv"
        code = main(
            ["spectrum", "--config", path, "--out", str(tmp_path / "r.json"), "--csv", str(csv_path)]
        )
        assert code == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "index,re,im,residual"
        assert len(lines) == 9  # 8 eigenvalues reported


class TestParameterRange:
    """Verdicts that hold across the schema's parameter range, not only at the defaults."""

    @pytest.mark.parametrize("value", [1e22, 1e23, 1e24])
    @pytest.mark.parametrize(
        "name, keys",
        [
            ("legendre_type", ("A",)),
            *((name, ("M", "N_weight")) for name in ("fourier_3_3", "fourier_3_4", "fourier_3_5")),
        ],
    )
    def test_derive_bc_at_large_row_scale(self, name, keys, value):
        # the constraint rows grow like sqrt(value), 8 sqrt(A) for legendre_type;
        # their canonical form keeps its unit coefficients at any size
        report = run({"example": name, "params": dict.fromkeys(keys, value)}, "derive-bc")
        assert report["boundary_conditions_rendered"] == list(build_example(name).expected_strings)
        assert report["status"] == "pass"

    @pytest.mark.parametrize("value", [1e23, 1e24])
    @pytest.mark.parametrize("name, key", [("legendre_type", "A"), ("fourier_3_3", "M")])
    def test_spectrum_at_large_row_scale_finds_a_row_to_sabotage(self, name, key, value):
        # legendre_type at such A fails only its sabotage floor (a known fault)
        params = {key: value, "N_weight": value} if key == "M" else {key: value}
        report = run({"example": name, "params": params, "grid_N": 64}, "spectrum")
        failed = {c["name"] for c in report["checks"] if not c["pass"]}
        assert failed <= {"sabotaged_defect_floor"}
        assert report["sabotaged_defect"] > 0

    def test_rows_without_a_w_coupled_row_are_refused(self):
        with pytest.raises(cli.GknError, match="no W-coupled row"):
            catalog.sabotage_rows(np.eye(2, 5), 4)

    def test_legendre_eigenvalues_read_the_decimal_a(self):
        # 6e-10 is 3/5000000000, and lambda_1 = 8A
        cfg = {"example": "legendre_type", "params": {"A": 6e-10}, "n_max": 1}
        report = run(cfg, "legendre")
        assert report["legendre_eigenvalues"] == ["0", "3/625000000"]
        assert report["status"] == "pass"

    @pytest.mark.parametrize("A", [4e-10, 1e-12, 1e-300])
    def test_tiny_a_is_positive(self, A):
        cfg = {"example": "legendre_type", "params": {"A": A}, "n_max": 1}
        report = run(cfg, "legendre")
        assert report["legendre_eigenvalues"] == ["0", str(8 * Fraction(repr(A)))]
        assert report["status"] == "pass"

    @pytest.mark.parametrize("command", ["check-symplectic", "derive-bc"])
    def test_tiny_interval_is_not_empty(self, command):
        report = run({"example": "fourier_3_3", "params": {"b": 1e-10}}, command)
        assert report["status"] == "pass"

    def test_exact_params_are_the_decimals_written(self):
        assert catalog._exact(6e-10) == Fraction(3, 5000000000)
        assert catalog._exact(np.float64(0.1)) == Fraction(1, 10)
        assert catalog._exact(7) == 7


class TestWorkCounts:
    """How often `cli.run` takes the costly steps of a command."""

    @pytest.mark.parametrize("name", EXAMPLE_NAMES)
    def test_check_symplectic_takes_one_qr_of_m_min(self, name, monkeypatch):
        # build_model quotients by M_min once; check-symplectic reads the result
        shape = build_example(name).model.M_min.shape
        calls = []
        qr = np.linalg.qr

        def counted(a, *args, **kwargs):
            calls.append(np.shape(a))
            return qr(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", counted)
        assert run({"example": name}, "check-symplectic")["status"] == "pass"
        assert calls == [shape]

    @pytest.mark.parametrize(
        "name, command, count",
        [(name, "verify-gkn", 0) for name in EXAMPLE_NAMES if build_example(name).candidates.size]
        + [("fourier_3_3", "check-symplectic", 0), ("fourier_3_3", "derive-bc", 1),
           ("fourier_3_3", "spectrum", 2), ("fourier_3_2b", "derive-bc", 1)],
    )
    def test_rref_runs_only_where_its_result_is_read(self, name, command, count, monkeypatch):
        # derive-bc reports the canonical rows, and spectrum reads the honest
        # and the sabotaged ones; the controls of verify-gkn need no canonical form
        calls = []
        rref = extension.rref

        def counted(C):
            calls.append(1)
            return rref(C)

        monkeypatch.setattr(extension, "rref", counted)
        monkeypatch.setattr(cli, "rref", counted, raising=False)
        assert run({"example": name}, command)["status"] == "pass"
        assert len(calls) == count
