"""Self-adjoint operators in extended spaces H (+) W.

Construct extended minimal/maximal operator models from a differential
expression's boundary form, an extension space with self-adjoint B, and a
partial GKN set; derive the boundary conditions its GKN sets induce; and
verify the constructions exactly (rational arithmetic for the fourth-order
point-mass example) and numerically (spectral collocation plus shooting
oracles) against independent references.  The rest of the library lives
in the submodules.
"""

from .expressions import Fourier, TraceVector, boundary_form
from .extension import (
    ExtensionSpace,
    OperatorB,
    PartialGKNSet,
    build_model,
    derive_boundary_conditions,
    verify_self_adjoint_domain,
)

__version__ = "0.1.0"
