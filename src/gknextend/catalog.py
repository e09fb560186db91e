"""Ready-made extended models for the worked examples.

Each entry packages the differential expression, the extension-space data
(Gram, self-adjoint B, partial GKN traces), the boundary-space GKN
candidates whose derived conditions are the published ones, the expected
canonical constraint matrix, and mutated negative controls.  Everything is
parameterized the way the sources parameterize it (A for the fourth-order
jump model, M/N weights and alpha/beta/gamma entries of B for the
second-order family, alpha for the first-order one).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from .expressions import (
    FirstOrderI,
    Fourier,
    LegendreType,
    TraceVector,
    boundary_form,
)
from .extension import (
    BoundaryConditions,
    ExtendedModel,
    ExtensionSpace,
    ModelError,
    OperatorB,
    PartialGKNSet,
    boundary_conditions_from_rows,
    build_model,
    derive_boundary_conditions,
)

DEFAULT_PARAMS = {
    "A": 1.0,
    "M": 1.0,
    "N_weight": 1.0,
    "alpha": 0.0,
    "beta_re": 0.0,
    "beta_im": 0.0,
    "gamma": 0.0,
    "a": 0.0,
    "b": 1.0,
}


ALGEBRA_COMMANDS = ("check-symplectic", "derive-bc", "verify-gkn")
SPECTRUM_COMMANDS = ALGEBRA_COMMANDS + ("spectrum",)


@dataclass(frozen=True)
class CatalogEntry:
    """A worked example together with its verification plan.

    The plan states which CLI commands apply (in the order `all` runs
    them), the verdict the self-adjointness certificate must reach, and
    how `spectrum` checks the example: against shooting-oracle roots in
    `spectral_window`, or, with no window, only through the symmetry
    defect and the sabotage control.
    """

    name: str
    model: ExtendedModel
    candidates: tuple                      # ((TraceVector, w-vector), ...)
    expected_canonical: np.ndarray
    expected_strings: tuple[str, ...]
    expected_omega: np.ndarray
    controls: dict = field(default_factory=dict)
    explicit_rows: Optional[np.ndarray] = None   # used instead of candidates
    commands: tuple[str, ...] = ALGEBRA_COMMANDS
    expect_self_adjoint: bool = True
    spectral_window: Optional[tuple[float, float]] = None

    def boundary_conditions(self) -> BoundaryConditions:
        if self.explicit_rows is not None:
            return boundary_conditions_from_rows(self.model, self.explicit_rows)
        return derive_boundary_conditions(self.model, self.candidates)


def _tv(*vals) -> TraceVector:
    return TraceVector(tuple(vals))


def _merge(params: dict | None) -> dict:
    out = dict(DEFAULT_PARAMS)
    if params:
        out.update(params)
    return out


def _exact(x: float) -> Fraction:
    """A float param as the nearest rational with denominator at most 1e9."""
    return Fraction(x).limit_denominator(10**9)


def _b_matrix_2d(p: dict) -> np.ndarray:
    """General self-adjoint operator for the diag(1/M, 1/N) Gram."""
    M, N = p["M"], p["N_weight"]
    beta = complex(p["beta_re"], p["beta_im"])
    return np.array(
        [[p["alpha"], beta], [np.conj(beta) * N / M, p["gamma"]]], dtype=complex
    )


def _legendre_entry(name: str, p: dict) -> CatalogEntry:
    A = _exact(p["A"])
    expr = LegendreType(A)
    bf = boundary_form(expr)
    Af = float(A)
    sA = np.sqrt(Af)
    W = ExtensionSpace(2, np.eye(2) / Af, np.eye(2) * sA)
    B = OperatorB.zero(2)
    T = PartialGKNSet((_tv(sA, 0, 0, 0), _tv(0, 0, sA, 0)))
    model = build_model(bf, W, B, T)
    z2 = np.zeros(2)
    cand = ((_tv(0, 0, 0, sA), z2), (_tv(0, sA, 0, 0), z2))
    expected = np.array(
        [
            [1, 0, 0, 0, -1, 0],
            [0, 0, 1, 0, 0, -1],
        ],
        dtype=complex,
    )
    controls = {
        "symmetry": ((_tv(0, 0, 0, sA), z2), (_tv(0, 0, sA, 0), z2)),
        "independence": ((T.traces[0], W.Xi[:, 0]), cand[1]),
        "cardinality": (cand[0],),
    }
    omega = np.array([[0, 8 * Af, 0, 0], [0, 0, 0, -8 * Af]], dtype=complex)
    return CatalogEntry(
        name, model, cand, expected,
        ("a_W[1] = x(-1)", "a_W[2] = x(1)"), omega, controls,
        # singular coefficients: no shooting oracle, eigenvalue claims
        # live in the exact `legendre` suite
        commands=SPECTRUM_COMMANDS + ("legendre",),
    )


def _first_order_entry(name: str, p: dict) -> CatalogEntry:
    expr = FirstOrderI()
    bf = boundary_form(expr)
    W = ExtensionSpace(1, np.eye(1))
    B = OperatorB(np.array([[p["alpha"]]]))
    T = PartialGKNSet((_tv(1, 1),))
    model = build_model(bf, W, B, T)
    cand = ((_tv(0, 1), np.array([0.5])),)
    expected = np.array([[1, 1, -2]], dtype=complex)
    controls = {
        "symmetry": ((_tv(0, 1), np.array([0.0])),),
        "independence": ((T.traces[0], W.Xi[:, 0]),),
        "cardinality": (cand[0], (_tv(1, 1), np.array([0.0]))),
    }
    omega = np.array([[-1j, 1j]])
    return CatalogEntry(
        name, model, cand, expected,
        ("a_W[1] = 0.5*x(0) + 0.5*x(1)",), omega, controls,
        commands=SPECTRUM_COMMANDS, spectral_window=(-60.0, 60.0),
    )


def _fourier_expr(p: dict) -> Fourier:
    return Fourier(_exact(p["a"]), _exact(p["b"]))


def _fourier_model_1d(p: dict, t_trace: TraceVector) -> ExtendedModel:
    bf = boundary_form(_fourier_expr(p))
    M = p["M"]
    W = ExtensionSpace(1, np.eye(1) / M, np.eye(1) * np.sqrt(M))
    B = OperatorB(np.array([[p["alpha"]]]))
    return build_model(bf, W, B, PartialGKNSet((t_trace,)))


def _fourier_window(p: dict) -> tuple[float, float]:
    # eigenvalues of the second-order family scale like 1/length^2
    L = float(p["b"]) - float(p["a"])
    if not np.isfinite(L * L):
        raise ModelError(f"interval length b - a = {L:g} is too long: its square overflows")
    return (-40.0 / L**2, 320.0 / L**2)


def _fourier_3_1_entry(name: str, p: dict) -> CatalogEntry:
    sM = np.sqrt(p["M"])
    model = _fourier_model_1d(p, _tv(0, 0, sM, 0))
    z1 = np.zeros(1)
    cand = ((_tv(0, 0, 0, 1), z1), (_tv(0, 1, 0, 0), z1))
    expected = np.array([[1, 0, 0, 0, 0], [0, 0, 1, 0, -1]], dtype=complex)
    controls = {
        "symmetry": ((_tv(0, 0, 0, 1), z1), (_tv(0, 0, 1, 0), z1)),
        "independence": ((model.gkn_partial.traces[0], model.W.Xi[:, 0]), cand[1]),
        "cardinality": (cand[0],),
    }
    omega = np.array([[0, 0, 0, -p["M"]]], dtype=complex)
    return CatalogEntry(
        name, model, cand, expected,
        ("x(a) = 0", "a_W[1] = x(b)"), omega, controls,
        commands=SPECTRUM_COMMANDS, spectral_window=_fourier_window(p),
    )


def _fourier_3_2a_entry(name: str, p: dict) -> CatalogEntry:
    sM = np.sqrt(p["M"])
    model = _fourier_model_1d(p, _tv(0, sM, 0, 0))
    z1 = np.zeros(1)
    cand = ((_tv(1, 0, 0, 0), z1), (_tv(0, 0, 0, 1), z1))
    expected = np.array([[0, 1, 0, 0, -1], [0, 0, 1, 0, 0]], dtype=complex)
    controls = {
        "symmetry": ((_tv(1, 0, 0, 0), z1), (_tv(0, 1, 0, 0), z1)),
        "independence": ((model.gkn_partial.traces[0], model.W.Xi[:, 0]), cand[1]),
        "cardinality": (cand[0],),
    }
    omega = np.array([[-p["M"], 0, 0, 0]], dtype=complex)
    return CatalogEntry(
        name, model, cand, expected,
        ("a_W[1] = x'(a)", "x(b) = 0"), omega, controls,
        commands=SPECTRUM_COMMANDS, spectral_window=_fourier_window(p),
    )


def _fourier_3_2b_entry(name: str, p: dict) -> CatalogEntry:
    """The other reading of the printed display: pairs (x, x'(b)), x(b) = 0."""
    sM = np.sqrt(p["M"])
    model = _fourier_model_1d(p, _tv(0, sM, 0, 0))
    rows = np.array([[0, 0, 0, -1, 1], [0, 0, 1, 0, 0]], dtype=complex)
    expected = np.array([[0, 0, 1, 0, 0], [0, 0, 0, 1, -1]], dtype=complex)
    omega = np.array([[-p["M"], 0, 0, 0]], dtype=complex)
    return CatalogEntry(
        name, model, (), expected,
        ("x(b) = 0", "a_W[1] = x'(b)"), omega, {},
        explicit_rows=rows, expect_self_adjoint=False,
    )


def _fourier_model_2d(p: dict, t1: TraceVector, t2: TraceVector) -> ExtendedModel:
    bf = boundary_form(_fourier_expr(p))
    M, N = p["M"], p["N_weight"]
    W = ExtensionSpace(
        2, np.diag([1.0 / M, 1.0 / N]), np.diag([np.sqrt(M), np.sqrt(N)])
    )
    B = OperatorB(_b_matrix_2d(p))
    return build_model(bf, W, B, PartialGKNSet((t1, t2)))


def _fourier_2d_entry(name, p, t1, t2, x1, x2, sym_partner, expected, strings, omega, window):
    model = _fourier_model_2d(p, t1, t2)
    z2 = np.zeros(2)
    cand = ((x1, z2), (x2, z2))
    controls = {
        "symmetry": ((x1, z2), (sym_partner, z2)),
        "independence": ((t1, model.W.Xi[:, 0]), (x2, z2)),
        "cardinality": ((x1, z2),),
    }
    return CatalogEntry(
        name, model, cand, expected, strings, omega, controls,
        commands=SPECTRUM_COMMANDS, spectral_window=window,
    )


def _fourier_3_3_entry(name: str, p: dict) -> CatalogEntry:
    sM, sN = np.sqrt(p["M"]), np.sqrt(p["N_weight"])
    return _fourier_2d_entry(
        name, p,
        _tv(sM, 0, 0, 0), _tv(0, 0, sN, 0),
        _tv(0, sM, 0, 0), _tv(0, 0, 0, sN),
        _tv(1, 0, 0, 0),
        np.array([[1, 0, 0, 0, -1, 0], [0, 0, 1, 0, 0, -1]], dtype=complex),
        ("a_W[1] = x(a)", "a_W[2] = x(b)"),
        np.array([[0, p["M"], 0, 0], [0, 0, 0, -p["N_weight"]]], dtype=complex),
        _fourier_window(p),
    )


def _fourier_3_4_entry(name: str, p: dict) -> CatalogEntry:
    sM, sN = np.sqrt(p["M"]), np.sqrt(p["N_weight"])
    return _fourier_2d_entry(
        name, p,
        _tv(0, sM, 0, 0), _tv(0, 0, 0, sN),
        _tv(sM, 0, 0, 0), _tv(0, 0, sN, 0),
        _tv(0, 1, 0, 0),
        np.array([[0, 1, 0, 0, -1, 0], [0, 0, 0, 1, 0, -1]], dtype=complex),
        ("a_W[1] = x'(a)", "a_W[2] = x'(b)"),
        np.array([[-p["M"], 0, 0, 0], [0, 0, p["N_weight"], 0]], dtype=complex),
        _fourier_window(p),
    )


def _fourier_3_5_entry(name: str, p: dict) -> CatalogEntry:
    sM, sN = np.sqrt(p["M"]), np.sqrt(p["N_weight"])
    return _fourier_2d_entry(
        name, p,
        _tv(sM, 0, 0, 0), _tv(0, 0, 0, sN),
        _tv(0, 0, sN, 0), _tv(0, sM, 0, 0),
        _tv(0, 0, 0, sN),
        np.array([[1, 0, 0, 0, -1, 0], [0, 0, 0, 1, 0, -1]], dtype=complex),
        ("a_W[1] = x(a)", "a_W[2] = x'(b)"),
        np.array([[0, p["M"], 0, 0], [0, 0, p["N_weight"], 0]], dtype=complex),
        _fourier_window(p),
    )


_BUILDERS: dict[str, Callable[[str, dict], CatalogEntry]] = {
    "legendre_type": _legendre_entry,
    "first_order": _first_order_entry,
    "fourier_3_1": _fourier_3_1_entry,
    "fourier_3_2a": _fourier_3_2a_entry,
    "fourier_3_2b": _fourier_3_2b_entry,
    "fourier_3_3": _fourier_3_3_entry,
    "fourier_3_4": _fourier_3_4_entry,
    "fourier_3_5": _fourier_3_5_entry,
}

EXAMPLE_NAMES = tuple(_BUILDERS)


def build_example(name: str, params: dict | None = None) -> CatalogEntry:
    if name not in _BUILDERS:
        raise KeyError(f"unknown example {name!r}; choose one of {EXAMPLE_NAMES}")
    return _BUILDERS[name](name, _merge(params))


def sabotage_rows(bc: BoundaryConditions, trace_dim: int) -> np.ndarray:
    """Double the trace part of the first W-coupled constraint row.

    Turns e.g. `a_W = x(b)` into `a_W = 2 x(b)`: still a rank-correct
    constraint set, but no longer a symmetric restriction.
    """
    rows = np.array(bc.canonical, dtype=complex)
    for i in range(rows.shape[0]):
        if np.abs(rows[i, trace_dim:]).max(initial=0.0) > 0 and np.abs(
            rows[i, :trace_dim]
        ).max(initial=0.0) > 0:
            rows[i, :trace_dim] *= 2.0
            return rows
    raise ValueError("no W-coupled row to sabotage")
