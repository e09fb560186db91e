"""Self-adjoint operators in extended spaces H (+) W.

Construct extended minimal/maximal operator models from a differential
expression, an extension space with self-adjoint B, and a partial GKN
set; derive the boundary conditions its GKN sets induce; and
verify the constructions exactly (rational arithmetic for the fourth-order
point-mass example) and numerically (spectral collocation plus shooting
oracles) against independent references.  The rest of the library lives
in the submodules; the names here are the ones the README's library
sketch uses.
"""

from .expressions import Fourier
from .extension import (
    ExtensionSpace, build_model, derive_boundary_conditions, render_rows, rref,
    verify_self_adjoint_domain,
)

__version__ = "0.1.0"
