"""Ready-made extended models for the worked examples.

Each example is stated by its published facts alone: the differential
expression, the W weights w, the upper triangle of B, the partial GKN
traces, the boundary-space GKN candidates whose derived conditions are
the published ones, a symmetry-control partner, the published canonical
rows and rendered strings, and the verification plan.  Traces,
candidates and the partner are vectors of the extended boundary space,
written one per row: trace coordinates, then (for candidates and the
partner) W coordinates.  One builder turns them into a `CatalogEntry` by
one rule:

- W is C^k with Gram diag(1/w) and G-orthonormal basis diag(sqrt w);
- B is completed from its upper triangle to be self-adjoint for that Gram;
- three mutated GKN sets, the negative controls, each break exactly one
  GKN condition (Everitt & Markus, *Boundary Value Problems and
  Symplectic Algebra*, AMS Surveys 61, 1999): `symmetry` swaps the last
  candidate for the partner, `independence` swaps the first for the
  minimal pair (t_1, xi_1), and `cardinality` drops the last.

Everything is parameterized the way the sources parameterize it (A for
the fourth-order jump model, M/N weights and alpha/beta/gamma entries of
B for the second-order family, alpha for the first-order one).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from .expressions import FirstOrderI, Fourier, LegendreType
from .extension import (
    ExtendedModel,
    ExtensionSpace,
    ModelError,
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

    For a catalog example, W has Gram diag(1/w) and basis diag(sqrt w)
    for the published weights w.  `controls` maps each GKN condition to a
    mutated candidate set that breaks it alone (`negative_controls`).

    The plan states which CLI commands apply (in the order `all` runs
    them), the verdict the self-adjointness certificate must reach, and
    how `spectrum` checks the example: against shooting-oracle roots in
    `spectral_window`, or, with no window, only through the symmetry
    defect and the sabotage control.
    """

    name: str
    model: ExtendedModel
    candidates: np.ndarray                 # count x ambient_dim, stacked (trace, W) rows
    expected_canonical: np.ndarray
    expected_strings: tuple[str, ...]
    controls: dict = field(default_factory=dict)
    explicit_rows: Optional[np.ndarray] = None   # used instead of candidates
    commands: tuple[str, ...] = ALGEBRA_COMMANDS
    expect_self_adjoint: bool = True
    spectral_window: Optional[tuple[float, float]] = None

    def boundary_conditions(self) -> np.ndarray:
        """The explicit constraint rows, or those the candidates derive."""
        if self.explicit_rows is not None:
            return self.explicit_rows
        return derive_boundary_conditions(self.model, self.candidates)


def _merge(params: dict | None) -> dict:
    out = dict(DEFAULT_PARAMS)
    if params:
        out.update(params)
    return out


def _exact(x: float) -> Fraction:
    """A param as its shortest round-trip decimal, the one the config wrote: 6e-10 is 3/5000000000.

    `str` is `repr` for a float, and also reads an int or a numpy scalar exactly.
    """
    return Fraction(str(x))


def _build(
    name, expr, w, B, T, expected, strings, candidates=(), partner=None, **plan
) -> CatalogEntry:
    """The entry of one example from its published facts (see the module docstring)."""
    w = np.asarray(w, dtype=float)
    W = ExtensionSpace(len(w), np.diag(1 / w), np.diag(np.sqrt(w)))
    B = np.array(B, dtype=complex)
    i, j = np.tril_indices(len(w), -1)
    B[i, j] = B[j, i].conj() * w[i] / w[j]
    model = build_model(expr, W, B, T)
    cands = np.array(candidates, dtype=complex).reshape(-1, model.ambient_dim)
    controls = negative_controls(model, cands, partner)
    return CatalogEntry(
        name, model, cands, np.array(expected, dtype=complex), strings, controls, **plan
    )


def negative_controls(model: ExtendedModel, cands: np.ndarray, partner=None) -> dict:
    """The mutated GKN sets of the candidate rows, each breaking one GKN condition alone.

    `symmetry` swaps the last candidate for `partner`, when one is given;
    `independence` swaps the first for the minimal pair (t_1, xi_1), the
    first column of M_min, when the model has one (dim W > 0);
    `cardinality` drops the last.  Without candidates there is no GKN set
    to mutate.
    """
    if not cands.size:
        return {}
    controls = {}
    if partner is not None:
        controls["symmetry"] = np.vstack([cands[:-1], partner])
    if model.k:
        controls["independence"] = np.vstack([model.M_min[:, 0], cands[1:]])
    controls["cardinality"] = cands[:-1]
    return controls


def _legendre_type(p: dict) -> dict:
    A = _exact(p["A"])
    sA = np.sqrt(float(A))
    return dict(
        expr=LegendreType(A), w=(float(A), float(A)), B=np.zeros((2, 2)),
        T=((sA, 0, 0, 0), (0, 0, sA, 0)),
        candidates=((0, 0, 0, sA, 0, 0), (0, sA, 0, 0, 0, 0)), partner=(0, 0, sA, 0, 0, 0),
        expected=[[1, 0, 0, 0, -1, 0], [0, 0, 1, 0, 0, -1]],
        strings=("a_W[1] = x(-1)", "a_W[2] = x(1)"),
        # singular coefficients: no shooting oracle, eigenvalue claims
        # live in the exact `legendre` suite
        commands=SPECTRUM_COMMANDS + ("legendre",),
    )


def _first_order(p: dict) -> dict:
    return dict(
        expr=FirstOrderI(), w=(1.0,), B=[[p["alpha"]]], T=((1, 1),),
        candidates=((0, 1, 0.5),), partner=(0, 1, 0),
        expected=[[1, 1, -2]], strings=("a_W[1] = 0.5*x(0) + 0.5*x(1)",),
        commands=SPECTRUM_COMMANDS, spectral_window=(-60.0, 60.0),
    )


def _fourier_window(p: dict) -> tuple[float, float]:
    # eigenvalues of the second-order family scale like 1/length^2
    L = float(p["b"]) - float(p["a"])
    if not np.isfinite(L * L):
        raise ModelError(f"interval length b - a = {L:g} is too long: its square overflows")
    if L * L == 0:
        raise ModelError(f"interval length b - a = {L:g} is too short: its square underflows to 0")
    return (-40.0 / L**2, 320.0 / L**2)


def _fourier(p: dict, **facts) -> dict:
    """Examples 3.1-3.5: -x'' on [a, b] with dim W = |T|, weights (M, N_weight).

    B has alpha, beta = beta_re + i beta_im and gamma on its upper
    triangle.  An example is checked against the shooting oracle unless
    it states its own commands.
    """
    k = len(facts["T"])
    beta = complex(p["beta_re"], p["beta_im"])
    if "commands" not in facts:
        facts.update(commands=SPECTRUM_COMMANDS, spectral_window=_fourier_window(p))
    return dict(
        expr=Fourier(_exact(p["a"]), _exact(p["b"])),
        w=(p["M"], p["N_weight"])[:k],
        B=np.array([[p["alpha"], beta], [0, p["gamma"]]])[:k, :k],
        **facts,
    )


def _fourier_3_1(p: dict) -> dict:
    return _fourier(
        p, T=((0, 0, np.sqrt(p["M"]), 0),),
        candidates=((0, 0, 0, 1, 0), (0, 1, 0, 0, 0)), partner=(0, 0, 1, 0, 0),
        expected=[[1, 0, 0, 0, 0], [0, 0, 1, 0, -1]], strings=("x(a) = 0", "a_W[1] = x(b)"),
    )


def _fourier_3_2a(p: dict) -> dict:
    return _fourier(
        p, T=((0, np.sqrt(p["M"]), 0, 0),),
        candidates=((1, 0, 0, 0, 0), (0, 0, 0, 1, 0)), partner=(0, 1, 0, 0, 0),
        expected=[[0, 1, 0, 0, -1], [0, 0, 1, 0, 0]], strings=("a_W[1] = x'(a)", "x(b) = 0"),
    )


def _fourier_3_2b(p: dict) -> dict:
    """The other reading of the printed display: pairs (x, x'(b)), x(b) = 0."""
    return _fourier(
        p, T=((0, np.sqrt(p["M"]), 0, 0),),
        explicit_rows=np.array([[0, 0, 0, -1, 1], [0, 0, 1, 0, 0]], dtype=complex),
        expected=[[0, 0, 1, 0, 0], [0, 0, 0, 1, -1]], strings=("x(b) = 0", "a_W[1] = x'(b)"),
        commands=ALGEBRA_COMMANDS, expect_self_adjoint=False,
    )


def _fourier_3_3(p: dict) -> dict:
    sM, sN = np.sqrt(p["M"]), np.sqrt(p["N_weight"])
    return _fourier(
        p, T=((sM, 0, 0, 0), (0, 0, sN, 0)),
        candidates=((0, sM, 0, 0, 0, 0), (0, 0, 0, sN, 0, 0)), partner=(1, 0, 0, 0, 0, 0),
        expected=[[1, 0, 0, 0, -1, 0], [0, 0, 1, 0, 0, -1]],
        strings=("a_W[1] = x(a)", "a_W[2] = x(b)"),
    )


def _fourier_3_4(p: dict) -> dict:
    sM, sN = np.sqrt(p["M"]), np.sqrt(p["N_weight"])
    return _fourier(
        p, T=((0, sM, 0, 0), (0, 0, 0, sN)),
        candidates=((sM, 0, 0, 0, 0, 0), (0, 0, sN, 0, 0, 0)), partner=(0, 1, 0, 0, 0, 0),
        expected=[[0, 1, 0, 0, -1, 0], [0, 0, 0, 1, 0, -1]],
        strings=("a_W[1] = x'(a)", "a_W[2] = x'(b)"),
    )


def _fourier_3_5(p: dict) -> dict:
    sM, sN = np.sqrt(p["M"]), np.sqrt(p["N_weight"])
    return _fourier(
        p, T=((sM, 0, 0, 0), (0, 0, 0, sN)),
        candidates=((0, 0, sN, 0, 0, 0), (0, sM, 0, 0, 0, 0)), partner=(0, 0, 0, sN, 0, 0),
        expected=[[1, 0, 0, 0, -1, 0], [0, 0, 0, 1, 0, -1]],
        strings=("a_W[1] = x(a)", "a_W[2] = x'(b)"),
    )


# each example's published facts, as a function of the merged params
_FACTS: dict[str, Callable[[dict], dict]] = {
    "legendre_type": _legendre_type,
    "first_order": _first_order,
    "fourier_3_1": _fourier_3_1,
    "fourier_3_2a": _fourier_3_2a,
    "fourier_3_2b": _fourier_3_2b,
    "fourier_3_3": _fourier_3_3,
    "fourier_3_4": _fourier_3_4,
    "fourier_3_5": _fourier_3_5,
}

EXAMPLE_NAMES = tuple(_FACTS)


def build_example(name: str, params: dict | None = None) -> CatalogEntry:
    if name not in _FACTS:
        raise KeyError(f"unknown example {name!r}; choose one of {EXAMPLE_NAMES}")
    return _build(name, **_FACTS[name](_merge(params)))


def sabotage_rows(canonical: np.ndarray, trace_dim: int) -> np.ndarray:
    """Double the trace part of the first W-coupled row of the canonical rows.

    Turns e.g. `a_W = x(b)` into `a_W = 2 x(b)`: still a rank-correct
    constraint set, but no longer a symmetric restriction.
    """
    rows = np.array(canonical, dtype=complex)
    for i in range(rows.shape[0]):
        if np.abs(rows[i, trace_dim:]).max(initial=0.0) > 0 and np.abs(
            rows[i, :trace_dim]
        ).max(initial=0.0) > 0:
            rows[i, :trace_dim] *= 2.0
            return rows
    raise ModelError("no W-coupled row to sabotage")
