"""Numerical toolkit for Lie-Jordan algebras of Hermitian matrices.

Observables carry two products: the symmetrized Jordan product and a
Hermitian-valued bracket with an i/2 factor. The package checks the
algebraic identities tying them together, computes subspace closures and
derived algebras, tests states for classicality, and builds
quantumness witnesses. See the ``ljlab`` CLI for batch experiments.

The package root re-exports each module's ``__all__``, which is the one
list of that module's public names.
"""

__version__ = "0.1.0"

from . import errors, linalg, products, states, subspace, witness
from .errors import *
from .linalg import *
from .products import *
from .states import *
from .subspace import *
from .witness import *

__all__ = [
    "__version__",
    *errors.__all__,
    *linalg.__all__,
    *products.__all__,
    *subspace.__all__,
    *states.__all__,
    *witness.__all__,
]
