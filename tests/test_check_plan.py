"""Which checks run, in which order, and with which verdict, for `all`.

Pins the ordered (name, pass) list of every check and the rendered
boundary conditions of each catalog example at default parameters and of
one custom model.  It stores no floats, so it holds across platforms.
"""

import pytest

from gknextend.catalog import EXAMPLE_NAMES
from gknextend.cli import run

from conftest import custom_config

SYMPLECTIC = [
    "boundary_form_skew_residual",
    "omega_annihilates_gkn_set",
    "omega_coupling_identity",
    "minimal_pairs_inside_radical",
    "quotient_dimension",
    "quotient_nondegenerate",
]
DERIVE = [
    "canonical_matrix_matches_published",
    "rendered_conditions",
    "constrained_domain_self_adjoint",
]
GKN = ["gkn_independent_mod_minimal", "gkn_symmetric", "gkn_count"]
CONTROLS = [
    f"control_{ctrl}_{verdict}"
    for ctrl in ("symmetry", "independence", "cardinality")
    for verdict in ("detected", "not_self_adjoint")
]
ORACLE_SPECTRUM = [
    "symmetry_defect",
    "max_imag_part",
    "oracle_found_five",
    "oracle_agreement_rel",
    "oracle_covers_discrete",
    "sabotaged_defect_floor",
]
POLY_SPECTRUM = ["symmetry_defect_polynomial_subspace", "sabotaged_defect_floor"]
LEGENDRE = [
    "eigenvalue_formula_exact",
    "boundary_identity_exact",
    "extended_eigen_relation_exact",
    "extended_orthogonality_exact",
    "nonzero_B_breaks_eigenvectors",
]
ORACLE_ALL = SYMPLECTIC + DERIVE + GKN + CONTROLS + ORACLE_SPECTRUM

# example -> (checks of `all`, every one passing; rendered conditions)
GOLDEN = {
    "legendre_type": (
        SYMPLECTIC + DERIVE + GKN + CONTROLS + POLY_SPECTRUM + LEGENDRE,
        ["a_W[1] = x(-1)", "a_W[2] = x(1)"],
    ),
    "first_order": (ORACLE_ALL, ["a_W[1] = 0.5*x(0) + 0.5*x(1)"]),
    "fourier_3_1": (ORACLE_ALL, ["x(a) = 0", "a_W[1] = x(b)"]),
    "fourier_3_2a": (ORACLE_ALL, ["a_W[1] = x'(a)", "x(b) = 0"]),
    "fourier_3_2b": (SYMPLECTIC + DERIVE, ["x(b) = 0", "a_W[1] = x'(b)"]),
    "fourier_3_3": (ORACLE_ALL, ["a_W[1] = x(a)", "a_W[2] = x(b)"]),
    "fourier_3_4": (ORACLE_ALL, ["a_W[1] = x'(a)", "a_W[2] = x'(b)"]),
    "fourier_3_5": (ORACLE_ALL, ["a_W[1] = x(a)", "a_W[2] = x'(b)"]),
    # a custom model has no published matrix to compare against, and no
    # symmetry partner for the controls
    "custom": (
        SYMPLECTIC + ["constrained_domain_self_adjoint"] + GKN + CONTROLS[2:],
        ["a_W[1] = x(a)", "a_W[2] = x'(b)"],
    ),
}


def test_golden_covers_the_catalog():
    assert list(GOLDEN) == list(EXAMPLE_NAMES) + ["custom"]


@pytest.mark.parametrize("example", list(GOLDEN))
def test_check_plan_of_all(example):
    cfg = custom_config("fourier_3_5") if example == "custom" else {"example": example}
    report = run(cfg, "all")
    names, rendered = GOLDEN[example]
    assert [(c["name"], c["pass"]) for c in report["checks"]] == [(n, True) for n in names]
    assert report["boundary_conditions_rendered"] == rendered
    assert report["status"] == "pass"
