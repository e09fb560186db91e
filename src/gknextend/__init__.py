"""Self-adjoint operators in extended spaces H (+) W.

Construct extended minimal/maximal operator models from a differential
expression's boundary form, an extension space with self-adjoint B, and a
partial GKN set; derive the boundary conditions its GKN sets induce; and
verify the constructions exactly (rational arithmetic for the fourth-order
point-mass example) and numerically (spectral collocation plus shooting
oracles) against independent references.
"""

from .collocation import CollocationGrid, make_grid
from .expressions import (
    BoundaryForm,
    DiffExpr,
    ExpSolution,
    FirstOrderI,
    Fourier,
    GeneralEvenOrder,
    LegendreType,
    PatchFunction,
    TraceVector,
    apply_expr,
    boundary_form,
    patch_realization,
    trace_of_poly,
)
from .extension import (
    BoundaryConditions,
    ExtendedModel,
    ExtensionSpace,
    OperatorB,
    PartialGKNSet,
    build_model,
    check_gkn_extended,
    derive_boundary_conditions,
    extended_deficiency_vectors,
    maximal_action,
    psi,
    verify_self_adjoint_domain,
)
from .legendre import LTBasis, gram_schmidt, lt_eigenvalue, mu_inner
from .polynomials import Poly
from .spectral import (
    DiscreteExtendedOperator,
    SpectrumReport,
    assemble,
    eigenrelation_residual,
    shooting_oracle,
    spectrum,
    symmetry_defect,
)
from .symplectic import (
    SkewForm,
    Subspace,
    check_gkn_vectors,
    form_eval,
    is_complete_lagrangian,
    is_lagrangian,
    quotient_by,
    radical,
    symplectic_complement,
)

__version__ = "0.1.0"
