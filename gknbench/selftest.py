"""Show that every reference checker rejects a perturbed report.

    python3 gknbench/selftest.py        (from the root of a source checkout)

Runs gkn-extend once per checked command on fixed configs, confirms the
unperturbed reports pass `reference.check_op`, then perturbs each report
the way a subtle fault would (one eigenvalue moved by 1e-5 relative, one
missing root, a skipped root pair, one wrong condition string, a wrong
exact eigenvalue, an unexpected failing check) and confirms each perturbation is rejected.
Exits 0 when every case behaves, 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(Path.cwd() / "src"))

import reference  # noqa: E402


def _report(cli, command: str, cfg: dict, tmp: Path) -> tuple[int, dict]:
    cfg_path, out = tmp / "config.json", tmp / "report.json"
    cfg_path.write_text(json.dumps(cfg))
    rc = cli.main([command, "--config", str(cfg_path), "--out", str(out)])
    return rc, json.loads(out.read_text())


def _move_oracle(r, exp):
    r["oracle_eigenvalues"][2] *= 1 + 1e-5


def _move_collocation(r, exp):
    eig = r["eigenvalues"]["eigenvalues"]
    i = min(range(len(eig)), key=lambda j: abs(eig[j][0] - r["oracle_eigenvalues"][3]))
    eig[i][0] *= 1 + 1e-5


def _drop_root(r, exp):
    del r["oracle_eigenvalues"][1]


def _skip_pair(r, exp):
    """What a pair of roots inside one oracle scan cell does: the next roots move up."""
    r["oracle_eigenvalues"] = r["oracle_eigenvalues"][2:] + exp["roots"][5:7]


def _wrong_condition(r, exp):
    r["boundary_conditions_rendered"][1] = "a_W[1] = x'(b)"


def _wrong_exact(r, exp):
    r["legendre_eigenvalues"][7] = r["legendre_eigenvalues"][7] + "1"


def _flip_verdict(r, exp):
    for c in r["checks"]:
        if c["name"] == "constrained_domain_self_adjoint":
            c["got"] = not c["got"]


def _wrong_dimension(r, exp):
    for c in r["checks"]:
        if c["name"] == "quotient_dimension":
            c["got"] += 2


def _extra_failure(r, exp):
    r["checks"][0]["pass"] = False


CASES = [
    # (command, config, known_fault, expected exit code, {name: perturbation})
    (
        "spectrum",
        {"example": "fourier_3_3", "params": {"alpha": 1, "beta_re": 0.5, "gamma": -1, "M": 2}},
        False,
        0,
        {"oracle root moved 1e-5": _move_oracle, "collocation eigenvalue moved 1e-5": _move_collocation,
         "oracle root missing": _drop_root, "oracle skips a root pair": _skip_pair},
    ),
    (
        "spectrum",
        {"example": "first_order", "params": {"alpha": 0.35}},
        False,
        0,
        {"oracle root moved 1e-5": _move_oracle, "oracle root missing": _drop_root},
    ),
    (
        "spectrum",
        {"example": "fourier_3_4", "grid_N": 256},
        True,
        1,
        {"collocation eigenvalue moved 1e-5": _move_collocation, "another failing check": _extra_failure},
    ),
    (
        "derive-bc",
        {"example": "fourier_3_1", "params": {"M": 1.5, "a": -0.5, "b": 0.75}},
        False,
        0,
        {"wrong condition string": _wrong_condition, "flipped self-adjoint verdict": _flip_verdict},
    ),
    (
        "legendre",
        {"example": "legendre_type", "params": {"A": 2.35}, "n_max": 12},
        False,
        0,
        {"wrong exact eigenvalue": _wrong_exact},
    ),
    (
        "check-symplectic",
        {"example": "fourier_3_5"},
        False,
        0,
        {"wrong quotient dimension": _wrong_dimension},
    ),
]


def main() -> int:
    from gknextend import cli

    ok = True
    (BENCH_DIR / "_out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=BENCH_DIR / "_out") as tmp:
        for command, cfg, known_fault, want_rc, perturbations in CASES:
            rc, report = _report(cli, command, cfg, Path(tmp))
            exp = reference.expectation(command, cfg, known_fault)
            failed, bad = reference.check_op(rc, json.dumps(report), exp)
            good = rc == want_rc and not bad
            ok &= good
            print(f"{'ok  ' if good else 'FAIL'} {command} {cfg['example']}: unperturbed accepted {bad}")
            for name, perturb in perturbations.items():
                r = copy.deepcopy(report)
                perturb(r, exp)
                _, bad = reference.check_op(rc, json.dumps(r), exp)
                ok &= bool(bad)
                print(f"{'ok  ' if bad else 'FAIL'} {command} {cfg['example']}: {name} rejected {bad[:1]}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
