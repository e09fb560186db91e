"""Reference answers computed by the benchmark itself, never by gknextend.

Everything here is written out from the paper's worked examples: the
published boundary conditions, the coupling map and the operator B of each
example, the closed-form fundamental solutions of `i x' = lam x` and
`-x'' = lam x`, and the exact eigenvalue formula of the fourth-order
point-mass model.  The checkers compare one gkn-extend report against
these and return a list of problems (empty when the report is right).
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np
from scipy.optimize import brentq

# Published conditions, in the order gkn-extend renders them.
PUBLISHED_CONDITIONS = {
    "legendre_type": ("a_W[1] = x(-1)", "a_W[2] = x(1)"),
    "first_order": ("a_W[1] = 0.5*x(0) + 0.5*x(1)",),
    "fourier_3_1": ("x(a) = 0", "a_W[1] = x(b)"),
    "fourier_3_2a": ("a_W[1] = x'(a)", "x(b) = 0"),
    "fourier_3_2b": ("x(b) = 0", "a_W[1] = x'(b)"),
    "fourier_3_3": ("a_W[1] = x(a)", "a_W[2] = x(b)"),
    "fourier_3_4": ("a_W[1] = x'(a)", "a_W[2] = x'(b)"),
    "fourier_3_5": ("a_W[1] = x(a)", "a_W[2] = x'(b)"),
}

# Only the second reading of the ambiguous display in Example 3.2 fails.
NOT_SELF_ADJOINT = ("fourier_3_2b",)

DEFICIENCY = {"legendre_type": 2, "first_order": 1}  # the Fourier kinds have 2

SYMPLECTIC_CHECKS = (
    "boundary_form_skew_residual",
    "omega_annihilates_gkn_set",
    "omega_coupling_identity",
    "minimal_pairs_inside_radical",
    "quotient_dimension",
    "quotient_nondegenerate",
)

DERIVE_CHECKS = (
    "canonical_matrix_matches_published",
    "rendered_conditions",
    "constrained_domain_self_adjoint",
)

GKN_CHECKS = ("gkn_independent_mod_minimal", "gkn_symmetric", "gkn_count") + tuple(
    f"control_{c}_{what}"
    for c in ("symmetry", "independence", "cardinality")
    for what in ("detected", "not_self_adjoint")
)

DEFAULTS = {"A": 1, "M": 1, "N_weight": 1, "alpha": 0, "beta_re": 0, "gamma": 0, "a": 0, "b": 1}

# Second-order examples as (published condition rows, coupling rows Omega).
# Columns of both: x(a), x'(a), x(b), x'(b); condition rows continue with
# a_W[1], a_W[2].  The W equations read B a - Omega tr(x) = lam a.
_FOURIER = {
    "fourier_3_2a": (
        [[0, 1, 0, 0, -1], [0, 0, 1, 0, 0]],
        lambda M, N: [[-M, 0, 0, 0]],
    ),
    "fourier_3_3": (
        [[1, 0, 0, 0, -1, 0], [0, 0, 1, 0, 0, -1]],
        lambda M, N: [[0, M, 0, 0], [0, 0, 0, -N]],
    ),
    "fourier_3_4": (
        [[0, 1, 0, 0, -1, 0], [0, 0, 0, 1, 0, -1]],
        lambda M, N: [[-M, 0, 0, 0], [0, 0, N, 0]],
    ),
    "fourier_3_5": (
        [[1, 0, 0, 0, -1, 0], [0, 0, 0, 1, 0, -1]],
        lambda M, N: [[0, M, 0, 0], [0, 0, N, 0]],
    ),
}

SCAN_POINTS = 20000


def params_of(cfg: dict) -> dict:
    """Config params as exact decimals, defaults filled in."""
    p = {k: Fraction(v) for k, v in DEFAULTS.items()}
    for k, v in cfg.get("params", {}).items():
        p[k] = Fraction(str(v))
    return p


def _cos_sin(lam, L: float):
    """cos(sqrt(lam) L) and sin(sqrt(lam) L)/sqrt(lam), entire in lam (arrays too)."""
    lam = np.asarray(lam, dtype=float)
    s = np.sqrt(np.abs(lam))
    safe = np.where(s > 0, s, 1.0)
    C = np.where(lam >= 0, np.cos(s * L), np.cosh(s * L))
    S = np.where(lam > 0, np.sin(s * L) / safe, np.where(lam < 0, np.sinh(s * L) / safe, L))
    return C, S


def characteristic(example: str, p: dict):
    """Real entire function of lam whose zeros are the example's eigenvalues.

    The function takes a scalar or an array of lam values.
    """
    alpha, M = float(p["alpha"]), float(p["M"])
    L = float(p["b"] - p["a"])
    if example == "first_order":
        return lambda lam: (alpha - lam) * np.cos(lam / 2) - 2 * np.sin(lam / 2)
    if example == "fourier_3_1":
        # x(a) = 0 and (alpha - lam) x(b) + M x'(b) = 0 on x = sin(sqrt(lam)(u-a))/sqrt(lam)
        def f31(lam):
            C, S = _cos_sin(lam, L)
            return (alpha - lam) * S + M * C

        return f31
    rows, omega = _FOURIER[example]
    rows = np.array(rows, dtype=float)
    k = rows.shape[1] - 4
    N = float(p["N_weight"])
    Om = np.array(omega(M, N), dtype=float)
    beta, gamma = float(p["beta_re"]), float(p["gamma"])
    B = np.array([[alpha]]) if k == 1 else np.array([[alpha, beta], [beta * N / M, gamma]])

    def f(lam):
        # unknowns: coefficients of cos(sqrt(lam)(u-a)), sin(...)/sqrt(lam), then a_W
        lam = np.asarray(lam, dtype=float)
        C, S = _cos_sin(lam, L)
        one, zero = np.ones_like(lam), np.zeros_like(lam)
        traces = np.stack(
            [np.stack([one, zero], -1), np.stack([zero, one], -1),
             np.stack([C, S], -1), np.stack([-lam * S, C], -1)], -2
        )  # (..., 4, 2): traces of the two fundamental solutions
        sysm = np.zeros(lam.shape + (2 + k, 2 + k))
        sysm[..., :2, :2] = rows[:, :4] @ traces
        sysm[..., :2, 2:] = rows[:, 4:]
        sysm[..., 2:, :2] = -Om @ traces
        sysm[..., 2:, 2:] = B - lam[..., None, None] * np.eye(k)
        return np.linalg.det(sysm)

    return f


def window(example: str, p: dict) -> tuple[float, float]:
    if example == "first_order":
        return (-60.0, 60.0)
    L = float(p["b"] - p["a"])
    return (-40.0 / L**2, 320.0 / L**2)


def closed_form_roots(example: str, p: dict) -> list[float]:
    """All zeros in the window, by a fine scan and Brent refinement."""
    f = characteristic(example, p)
    lo, hi = window(example, p)
    grid = np.linspace(lo, hi, SCAN_POINTS)
    vals = f(grid)
    roots = []
    for i in range(SCAN_POINTS - 1):
        if vals[i] == 0.0:
            roots.append(float(grid[i]))
        elif vals[i] * vals[i + 1] < 0:
            root = brentq(lambda x: float(f(x)), grid[i], grid[i + 1], xtol=1e-14, rtol=4 * np.finfo(float).eps)
            roots.append(float(root))
    return roots


ORACLE_SCAN_CELLS = 239  # gkn-extend scans its window at 240 points


def roots_share_a_scan_cell(example: str, p: dict) -> bool:
    """Two eigenvalues in one scan cell of the program's oracle give no sign change."""
    lo, hi = window(example, p)
    cells = [math.floor((r - lo) / (hi - lo) * ORACLE_SCAN_CELLS) for r in closed_form_roots(example, p)]
    return len(set(cells)) < len(cells)


def lt_eigenvalues(A: Fraction, n_max: int) -> list[str]:
    return [str(n * (n + 1) * (n * n + n + 4 * A - 2)) for n in range(n_max + 1)]


# ---------------------------------------------------------------------------
# expectations and checkers


def expectation(command: str, cfg: dict, known_fault: bool = False) -> dict:
    """What a correct report for this op must contain."""
    ex = cfg["example"]
    p = params_of(cfg)
    exp = {"command": command, "example": ex, "known_fault": known_fault}
    if command == "spectrum":
        exp["roots"] = sorted(closed_form_roots(ex, p), key=abs)
    elif command == "legendre":
        exp["eigenvalues"] = lt_eigenvalues(p["A"], cfg.get("n_max", 10))
    elif command == "check-symplectic":
        exp["quotient_dimension"] = 2 * DEFICIENCY.get(ex, 2)
    return exp


ORACLE_REL = 1e-9      # closed-form root vs shooting-oracle root
COLLOCATION_REL = 1e-6  # closed-form root vs nearest collocation eigenvalue


def _rel(x: float, r: float) -> float:
    return abs(x - r) / max(1.0, abs(r))


def check_spectrum(report: dict, exp: dict) -> list[str]:
    """Oracle roots are the five closed-form roots of smallest |lam| (ties in
    |lam| either way); collocation has an eigenvalue next to each of those."""
    bad = []
    roots = exp["roots"]
    five = roots[:5]
    if len(five) != 5:
        bad.append(f"closed form has {len(roots)} roots in the window, need 5")
    oracle = report.get("oracle_eigenvalues", [])
    if len(oracle) != len(five):
        bad.append(f"oracle gave {len(oracle)} roots, closed form {len(five)}")
    matched = set()
    for o in oracle:
        r = min(roots, key=lambda x: abs(x - o))
        if _rel(o, r) > ORACLE_REL:
            bad.append(f"oracle root {o!r} matches no closed-form root (nearest {r!r})")
        elif abs(r) > abs(five[-1]) * (1 + ORACLE_REL) or r in matched:
            bad.append(f"oracle root {o!r} is not one of the five smallest {five}")
        matched.add(r)
    eigs = [complex(re, im) for re, im in report.get("eigenvalues", {}).get("eigenvalues", [])]
    for r in five:
        err = min((_rel(d, r) for d in eigs), default=math.inf)
        if err > COLLOCATION_REL:
            bad.append(f"no collocation eigenvalue within {COLLOCATION_REL:g} of {r!r} (best {err:.2e})")
    return bad


def check_legendre(report: dict, exp: dict) -> list[str]:
    got = report.get("legendre_eigenvalues")
    if got != exp["eigenvalues"]:
        return [f"legendre eigenvalues {got} differ from n(n+1)(n^2+n+4A-2) = {exp['eigenvalues']}"]
    return []


def check_derive_bc(report: dict, exp: dict) -> list[str]:
    bad = []
    ex = exp["example"]
    got = tuple(report.get("boundary_conditions_rendered", ()))
    if got != PUBLISHED_CONDITIONS[ex]:
        bad.append(f"rendered {got} differs from published {PUBLISHED_CONDITIONS[ex]}")
    verdict = [c["got"] for c in report["checks"] if c["name"] == "constrained_domain_self_adjoint"]
    if verdict != [ex not in NOT_SELF_ADJOINT]:
        bad.append(f"self-adjoint verdict {verdict} for {ex}")
    return bad


def check_symplectic(report: dict, exp: dict) -> list[str]:
    dims = [c["got"] for c in report["checks"] if c["name"] == "quotient_dimension"]
    if dims != [exp["quotient_dimension"]]:
        return [f"quotient dimension {dims}, expected {exp['quotient_dimension']}"]
    return []


_CHECK_NAMES = {
    "check-symplectic": SYMPLECTIC_CHECKS,
    "derive-bc": DERIVE_CHECKS,
    "verify-gkn": GKN_CHECKS,
}

_CHECKERS = {
    "spectrum": check_spectrum,
    "legendre": check_legendre,
    "derive-bc": check_derive_bc,
    "check-symplectic": check_symplectic,
}


def check_op(rc, report_text: str, exp: dict) -> tuple[bool, list[str]]:
    """Return (failed, problems) for one op.

    `failed` is the program's own verdict (exit code 1).  `problems` lists
    every way the op departs from the reference; an op marked as a known
    fault may fail only its sabotage-floor check.
    """
    if rc not in (0, 1):
        return True, [f"exit code {rc!r}"]
    try:
        report = json.loads(report_text)
    except (TypeError, json.JSONDecodeError) as e:
        return True, [f"unreadable report: {e}"]
    bad = []
    cmd, ex = exp["command"], exp["example"]
    if (report.get("command"), report.get("example")) != (cmd, ex):
        bad.append(f"report is for {report.get('command')} on {report.get('example')}")
    names = [c["name"] for c in report.get("checks", [])]
    want = _CHECK_NAMES.get(cmd)
    if (ex, cmd) == ("fourier_3_2b", "verify-gkn"):
        want = ()  # an explicit constraint set: no GKN candidates, no controls
    if want is not None and tuple(names) != want:
        bad.append(f"checks {names}, expected {list(want)}")
    failing = [c["name"] for c in report.get("checks", []) if not c["pass"]]
    failed = rc == 1
    if failed != bool(failing) or failed != (report.get("status") == "fail"):
        bad.append(f"exit code {rc} disagrees with status {report.get('status')} / {failing}")
    allowed = ["sabotaged_defect_floor"] if exp["known_fault"] else []
    if failing and failing != allowed:
        bad.append(f"failing checks {failing}")
    if cmd in _CHECKERS:
        bad.extend(_CHECKERS[cmd](report, exp))
    return failed, bad
