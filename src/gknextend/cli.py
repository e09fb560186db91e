"""Command-line verification harness.

    gkn-extend <command> --config <path> [--out <path>] [--csv <path>]

Commands: check-symplectic, derive-bc, verify-gkn, spectrum, legendre, all.
Reports are JSON; exit code 0 when every check passes, 1 on a check
failure, 2 on a config/schema error or other refused input, 3 on an
internal error.  Runs are deterministic (timings are reported but carry
no information): the symmetry defect in `spectrum` draws its probe pairs
from one fixed stream, and the linear identities of `check-symplectic` are
checked as matrix identities, for every vector at once.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import operator
import sys
import time
import traceback

import numpy as np

from . import catalog
from .collocation import make_grid
from .extension import (
    _cmat_to_json,
    _cvec_from_json,
    check_gkn_extended,
    constraint_rows,
    coupling_scale,
    model_from_json,
    render_rows,
    rref,
    verify_self_adjoint_domain,
)
from .legendre import N_MAX, exact_suite, lt_eigenvalue, operator_basis
from .symplectic import TOL_RADICAL, GknError, nondegenerate

# acceptance gates, the same for every config
TOLERANCES = {
    "structural": 1e-12,
    "canonical": 1e-12,
    "defect": 1e-9,
    "sabotage_floor": 1e-4,
    "max_imag": 1e-8,
    "oracle_rel": 1e-6,
}

# the longest interval `spectrum` accepts, as the reach |Re mu| (b - a) / 2 of
# the solutions exp(mu u) of l x = +-i x: a quarter of the float exponent
# range.  Not far past it (b - a of 1.3e3 on fourier_3_1) the sabotage
# control fails correct constructions, so longer intervals wait on ROADMAP
# item 9.
EXP_REACH = 0.25 * float(np.log(np.finfo(float).max))

# filled in by `run` where a config leaves them out
RUN_DEFAULTS = {"grid_N": 64, "n_max": 10}

CONFIG_SCHEMA = {
    "type": "object",
    "required": ["example"],
    "additionalProperties": False,
    "properties": {
        "example": {"enum": list(catalog.EXAMPLE_NAMES) + ["custom"]},
        "params": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                # A weights the fourth-order model, M and N_weight the W Gram
                k: {"type": "number", "exclusiveMinimum": 0}
                if k in ("A", "M", "N_weight")
                else {"type": "number"}
                for k in catalog.DEFAULT_PARAMS
            },
        },
        # every kind keeps a wide margin on both defect gates up to 256
        "grid_N": {"type": "integer", "minimum": 16, "maximum": 256},
        "n_max": {"type": "integer", "minimum": 0, "maximum": N_MAX},
        # accepted and ignored, so that older configs still load: the probe pairs are fixed
        "seed": {"type": "integer", "minimum": 0},
        "model": {"type": "object"},
        "candidates": {"type": "array"},
    },
}

# JSON Schema's types and bounds, as `_violations` reads them; CONFIG_SCHEMA
# uses these and type, enum, required, properties and additionalProperties only
_PY_TYPES = {"object": dict, "array": list, "number": (int, float)}
_BOUNDS = {
    "minimum": (operator.lt, "is less than the minimum of"),
    "maximum": (operator.gt, "is greater than the maximum of"),
    "exclusiveMinimum": (operator.le, "is less than or equal to the minimum of"),
}


def _is_type(instance, name: str) -> bool:
    """JSON Schema's types: a bool is no number, and an integral float is an integer."""
    if isinstance(instance, bool):
        return False
    if name == "integer":
        return isinstance(instance, int) or isinstance(instance, float) and instance.is_integer()
    return isinstance(instance, _PY_TYPES[name])


def _violations(instance, schema: dict, path: tuple = ()):
    """Yield `(path, type_mismatch, message)` for each keyword `instance` breaks.

    Keywords are read in the order `schema` lists them, and each message is
    worded as the Draft 2020-12 reference validator that the tests compare
    with words it. `type_mismatch` is true unless `schema` has a `type` that
    `instance` is.
    """
    is_object = isinstance(instance, dict)
    mismatch = not ("type" in schema and _is_type(instance, schema["type"]))
    for keyword, value in schema.items():
        messages = ()
        if keyword == "type" and mismatch:
            messages = (f"{instance!r} is not of type {value!r}",)
        elif keyword == "enum" and instance not in value:
            messages = (f"{instance!r} is not one of {value!r}",)
        elif keyword == "required" and is_object:
            messages = [f"{key!r} is a required property" for key in value if key not in instance]
        elif keyword == "additionalProperties" and is_object and not value:
            known = schema.get("properties", {})
            extras = sorted((key for key in instance if key not in known), key=str)
            if extras:
                verb = "was" if len(extras) == 1 else "were"
                names = ", ".join(map(repr, extras))
                messages = (f"Additional properties are not allowed ({names} {verb} unexpected)",)
        elif keyword == "properties" and is_object:
            for key, sub in value.items():
                if key in instance:
                    yield from _violations(instance[key], sub, (*path, key))
        elif keyword in _BOUNDS and _is_type(instance, "number"):
            broken, words = _BOUNDS[keyword]
            if broken(instance, value):
                messages = (f"{instance!r} {words} {value!r}",)
        for message in messages:
            yield path, mismatch, message


def _schema_violation(cfg) -> str | None:
    """The message that reference's `best_match` picks, or None when `cfg` is valid.

    That is the shallowest violation, among siblings the one with the
    greatest path, then one that breaks its schema's `type`; `max` keeps the
    first yielded of a tie, as `best_match` does.
    """
    best = max(
        _violations(cfg, CONFIG_SCHEMA),
        key=lambda v: (-len(v[0]), v[0], v[1]),
        default=None,
    )
    return None if best is None else best[2]


class ConfigError(GknError):
    pass


def _refuse_constant(name: str):
    shown = name if len(name) <= 40 else f"{name[:20]}... ({len(name)} characters)"
    raise ConfigError(f"config holds {shown}, which is not a finite number")


def _finite_float(text: str) -> float:
    # json reads a literal such as 1e400 as inf without calling parse_constant
    x = float(text)
    if not math.isfinite(x):
        _refuse_constant(text)
    return x


def _finite_int(text: str) -> int:
    # an integer literal past the float range is refused like 1e400; this
    # also keeps int() from meeting a literal over its 4300-digit limit
    if not math.isfinite(float(text)):
        _refuse_constant(text)
    return int(text)


def load_config(path: str) -> dict:
    """The config at `path`, validated against CONFIG_SCHEMA."""
    try:
        with open(path) as f:
            cfg = json.load(
                f, parse_constant=_refuse_constant, parse_float=_finite_float, parse_int=_finite_int
            )
    except ConfigError:
        raise
    except (OSError, ValueError, RecursionError) as e:
        # ValueError: not JSON, or not UTF-8; RecursionError: nested too deep to decode
        raise ConfigError(f"cannot read config {path}: {e}")
    message = _schema_violation(cfg)
    if message is not None:
        raise ConfigError(f"config schema violation: {message}")
    # the schema counts 32.0 as an integer; the commands need an int
    for key, sub in CONFIG_SCHEMA["properties"].items():
        if sub.get("type") == "integer" and key in cfg:
            cfg[key] = int(cfg[key])
    if cfg["example"] == "custom" and "model" not in cfg:
        raise ConfigError("custom example needs a 'model' section")
    params = catalog._merge(cfg.get("params"))
    if not params["a"] < params["b"]:
        raise ConfigError(f"interval needs a < b, got a = {params['a']}, b = {params['b']}")
    return cfg


class Checks:
    """Accumulates named pass/fail checks for the report."""

    def __init__(self):
        self.items = []

    def add(self, name, expected, got, tolerance, ok):
        self.items.append(
            {
                "name": name,
                "expected": expected,
                "got": got,
                "tolerance": tolerance,
                "pass": bool(ok),
            }
        )

    def le(self, name, got, tol):
        self.add(name, f"<= {tol:g}", float(got), tol, got <= tol)

    def ge(self, name, got, floor):
        self.add(name, f">= {floor:g}", float(got), floor, got >= floor)

    def eq(self, name, expected, got):
        self.add(name, expected, got, None, expected == got)

    @property
    def ok(self) -> bool:
        return all(c["pass"] for c in self.items)


def _entry_from_config(cfg: dict):
    if cfg["example"] != "custom":
        return catalog.build_example(cfg["example"], cfg.get("params"))
    section = "model"
    try:
        model = model_from_json(cfg["model"])
        section = "candidates"
        # each item, a flat [re, im, ...] trace and W part, is one stacked row
        rows = []
        for item in cfg.get("candidates", []):
            trace = _cvec_from_json(item["trace"], model.trace_dim, "candidates[].trace")
            w = _cvec_from_json(item.get("w", []), model.k, "candidates[].w")
            rows.append(np.concatenate([trace, w]))
        cands = np.array(rows, dtype=complex).reshape(-1, model.ambient_dim)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as e:
        raise ConfigError(f"bad custom {section!r} section: {type(e).__name__}: {e}") from e
    # without candidates there are no conditions to derive or GKN set to check;
    # a custom model states no symmetry partner, so that control is left out
    return catalog.CatalogEntry(
        "custom", model, cands, np.zeros((0, model.ambient_dim)), (),
        controls=catalog.negative_controls(model, cands),
        commands=catalog.ALGEBRA_COMMANDS if cands.size else ("check-symplectic",),
    )


def run_check_symplectic(entry, cfg, checks: Checks, report: dict):
    tol = TOLERANCES["structural"]
    model = entry.model
    S = model.S
    checks.le("boundary_form_skew_residual", float(np.abs(S + S.conj().T).max()), tol)
    W, T = model.W, model.T
    # <Omega x, xi_j>_W = [x, t_j]_H is linear in x: row j of Xi* G Omega = conj(T) S
    coupling = W.Xi.conj().T @ W.G @ model.Omega - T.conj() @ S
    # relative to the form's size on T, as build_model measures them
    scale = coupling_scale(S, T)
    checks.le("omega_annihilates_gkn_set", np.abs(model.Omega @ T.T).max(initial=0.0) / scale, tol)
    checks.le("omega_coupling_identity", np.abs(coupling).max(initial=0.0) / scale, tol)
    # build_model takes the quotient and measures its residual
    checks.eq("minimal_pairs_inside_radical", True, model.radical_residual <= TOL_RADICAL)
    checks.eq("quotient_dimension", 2 * model.deficiency, model.quotient_form.shape[0])
    checks.eq("quotient_nondegenerate", True, nondegenerate(model.quotient_form))


def run_derive_bc(entry, cfg, checks: Checks, report: dict):
    tol = TOLERANCES["canonical"]
    rows = entry.boundary_conditions()
    canonical = rref(rows)
    rendered = list(render_rows(entry.model, canonical))
    report["boundary_conditions_rendered"] = rendered
    report["boundary_conditions"] = {
        "rows": _cmat_to_json(rows), "canonical": _cmat_to_json(canonical), "conditions": rendered,
    }
    if entry.expected_canonical.size:
        delta = float(np.abs(canonical - entry.expected_canonical).max())
        checks.le("canonical_matrix_matches_published", delta, tol)
        checks.eq("rendered_conditions", list(entry.expected_strings), rendered)
    sa = verify_self_adjoint_domain(entry.model, rows)
    checks.eq("constrained_domain_self_adjoint", entry.expect_self_adjoint, sa)


def run_verify_gkn(entry, cfg, checks: Checks, report: dict):
    if entry.candidates.size:
        rep = check_gkn_extended(entry.model, entry.candidates)
        checks.eq("gkn_independent_mod_minimal", True, rep.independent_mod_M)
        checks.eq("gkn_symmetric", True, rep.symmetric)
        checks.eq("gkn_count", True, rep.count_ok)
    for ctrl, cands in entry.controls.items():
        rep = check_gkn_extended(entry.model, cands)
        flag = {
            "symmetry": not rep.symmetric,
            "independence": not rep.independent_mod_M,
            "cardinality": not rep.count_ok,
        }[ctrl]
        checks.eq(f"control_{ctrl}_detected", True, flag)
        bad = constraint_rows(entry.model, cands)
        checks.eq(
            f"control_{ctrl}_not_self_adjoint",
            False,
            verify_self_adjoint_domain(entry.model, bad),
        )


def run_spectrum(entry, cfg, checks: Checks, report: dict):
    # scipy loads here, so the algebra commands never import it
    from .spectral import (
        assemble,
        discretize,
        modulus_order,
        shooting_oracle,
        spectrum,
        symmetry_defect,
    )

    model = entry.model
    a, b = (float(v) for v in model.expr.interval)
    grid = make_grid(cfg["grid_N"], a, b)
    # the spectral code reads the rows in canonical form
    rows = rref(entry.boundary_conditions())
    # both defects and the reduced operator read this one discretization
    disc = discretize(model, grid)

    if entry.spectral_window is None:
        # only the two defects are read: no reduced operator is built
        checks.le(
            "symmetry_defect_polynomial_subspace",
            symmetry_defect(disc, rows),
            TOLERANCES["defect"],
        )
    else:
        mu = max(abs(m.real) for sign in (+1, -1) for m in model.expr.exponents(sign))
        reach = 0.5 * (b - a) * mu
        if reach > EXP_REACH:
            raise ConfigError(
                f"spectrum refuses b - a = {b - a:.4g}: the reach |Re mu| (b - a) / 2 = "
                f"{reach:.4g} of the solutions exp(mu u) of l x = +-i x exceeds "
                f"{EXP_REACH:.4g}; longer intervals wait on ROADMAP item 9"
            )
        op = assemble(disc, rows)
        defect = symmetry_defect(disc, rows)
        checks.le("symmetry_defect", defect, TOLERANCES["defect"])
        rep = spectrum(op, 8)
        report["eigenvalues"] = {
            "eigenvalues": [[float(z.real), float(z.imag)] for z in rep.eigenvalues],
            "residuals": [float(r) for r in rep.residuals],
            "max_imag": float(rep.max_imag),
            "symmetry_defect": float(defect),
        }
        checks.le("max_imag_part", rep.max_imag, TOLERANCES["max_imag"])
        roots = shooting_oracle(model, rows, entry.spectral_window)
        oracle5 = [roots[i] for i in modulus_order(roots)[:5]]
        report["oracle_eigenvalues"] = [float(r) for r in oracle5]
        checks.eq("oracle_found_five", True, len(oracle5) == 5)
        discrete = sorted(rep.eigenvalues.real, key=abs)
        worst = 0.0
        for r in oracle5:
            err = min(abs(d - r) for d in discrete) / max(1.0, abs(r))
            worst = max(worst, err)
        checks.le("oracle_agreement_rel", worst, TOLERANCES["oracle_rel"])
        # the other direction: a root pair inside one scan cell has no sign
        # change, so each of the five smallest eigenvalues needs an oracle root
        worst = 0.0
        for d in discrete[:5]:
            err = min((abs(r - d) for r in roots), default=np.inf) / max(1.0, abs(d))
            worst = max(worst, err)
        checks.le("oracle_covers_discrete", worst, TOLERANCES["oracle_rel"])

    sabotaged = rref(catalog.sabotage_rows(rows, model.trace_dim))
    # no boundary row enters the discretization, so the sabotaged rows share it
    defect_bad = symmetry_defect(disc, sabotaged)
    checks.ge("sabotaged_defect_floor", defect_bad, TOLERANCES["sabotage_floor"])
    report["sabotaged_defect"] = float(defect_bad)


def run_legendre(entry, cfg, checks: Checks, report: dict):
    A, n_max = entry.model.expr.A, cfg["n_max"]
    eigenvalues = [lt_eigenvalue(n, A) for n in range(n_max + 1)]
    for name, ok in exact_suite(operator_basis(A, n_max), eigenvalues).items():
        checks.eq(name, True, ok)
    report["legendre_eigenvalues"] = [str(lam) for lam in eigenvalues]


# `all` runs every command an entry lists, in the entry's order
COMMANDS = {
    "check-symplectic": run_check_symplectic,
    "derive-bc": run_derive_bc,
    "verify-gkn": run_verify_gkn,
    "spectrum": run_spectrum,
    "legendre": run_legendre,
}


def run(cfg: dict, command: str) -> dict:
    """Execute one command (or `all`) and return the report dict."""
    cfg = {**RUN_DEFAULTS, **cfg}
    entry = _entry_from_config(cfg)
    if command != "all" and command not in entry.commands:
        raise ConfigError(f"command {command!r} is not applicable to {entry.name!r}")
    commands = entry.commands if command == "all" else (command,)

    checks = Checks()
    report = {
        "example": entry.name,
        "command": command,
        "status": "fail",
        "checks": checks.items,
    }
    timings = {}
    for cmd in commands:
        t0 = time.perf_counter()
        COMMANDS[cmd](entry, cfg, checks, report)
        timings[cmd] = round(time.perf_counter() - t0, 6)
    report["status"] = "pass" if checks.ok else "fail"
    report["timings"] = timings
    return report


def _open_output(path: str):
    """Open an output file for writing; an unwritable path is a usage error."""
    try:
        return open(path, "w", newline="")
    except OSError as e:
        raise ConfigError(f"cannot write {path}: {e.strerror}") from e


def write_csv(report: dict, path: str):
    rows = report.get("eigenvalues", {})
    with _open_output(path) as f:
        w = csv.writer(f)
        w.writerow(["index", "re", "im", "residual"])
        if rows:
            for i, ((re, im), res) in enumerate(
                zip(rows["eigenvalues"], rows["residuals"])
            ):
                w.writerow([i, re, im, res])


# built once: `main` is also the in-process API, called once per op
_PARSER = argparse.ArgumentParser(
    prog="gkn-extend",
    description="Verify extended-space self-adjoint operator constructions.",
)
_PARSER.add_argument("command", choices=[*COMMANDS, "all"])
_PARSER.add_argument("--config", required=True, help="JSON config path")
_PARSER.add_argument("--out", help="write the JSON report here instead of stdout")
_PARSER.add_argument("--csv", help="write the eigenvalue table as CSV")


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)

    try:
        cfg = load_config(args.config)
        report = run(cfg, args.command)
        text = json.dumps(report, indent=2)
        if args.out:
            with _open_output(args.out) as f:
                f.write(text + "\n")
        else:
            print(text)
        if args.csv:
            write_csv(report, args.csv)
    except GknError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        # a fault of the verifier, never a verdict on the config
        traceback.print_exc()
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3
    return 0 if report["status"] == "pass" else 1


if __name__ == "__main__":
    sys.exit(main())
