"""Jordan and Lie products on Hermitian matrices, with identity checkers.

Conventions: the Jordan product is the symmetrized matrix product
``a o b = (ab + ba) / 2`` and the bracket carries a factor i/2,
``[a, b] = (i/2)(ab - ba)``, so both products return Hermitian matrices.
Textbook su(n) structure constants must be rescaled before comparison
against this bracket.

Each ``check_*`` function evaluates one algebraic identity on concrete
operands and reports the residual (operator norm of the defect) together
with the threshold it was judged against: ``DEFAULT_TOL`` scaled by the
product of the operand norms, one factor per slot of the identity.
``ljlab verify --tol`` judges the same formulas at its own zero tolerance.

The products and the identity defects broadcast over leading axes: operands
may be ``(..., n, n)`` stacks, and each identity has one formula, which
``ljlab verify`` evaluates on stacks of random trials. The tests require a
stacked result to be bit-equal, slice by slice, to the same call on single
matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotInSpan
from .linalg import DEFAULT_TOL, _opnorm, as_matrix, same_dim, spectral_norm

__all__ = [
    "jordan",
    "lie",
    "associator",
    "recover_associative",
    "IdentityReport",
    "check_jacobi",
    "check_leibniz",
    "check_associator_identity",
    "check_weak_associativity",
    "check_norm_axioms",
    "jordan_commute",
]


def _operands(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Complex square matrices, or stacks of them, with a common n and broadcastable lead axes."""
    x = np.asarray(a, dtype=complex)
    y = np.asarray(b, dtype=complex)
    for m in (x, y):
        if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
            raise DimensionMismatch(
                f"expected a square matrix or a stack of them, got shape {m.shape}"
            )
    if x.shape[-1] != y.shape[-1]:
        raise DimensionMismatch(f"dimensions differ: {x.shape[-1]} vs {y.shape[-1]}")
    if x.shape[:-2] != y.shape[:-2]:
        try:
            np.broadcast_shapes(x.shape[:-2], y.shape[:-2])
        except ValueError as exc:
            raise DimensionMismatch(
                f"stack shapes do not broadcast: {x.shape} vs {y.shape}"
            ) from exc
    return x, y


def jordan(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Symmetrized product (ab + ba) / 2."""
    x, y = _operands(a, b)
    return 0.5 * (x @ y + y @ x)


def lie(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hermitian-valued bracket (i/2)(ab - ba)."""
    x, y = _operands(a, b)
    return 0.5j * (x @ y - y @ x)


def associator(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Jordan associator (a o b) o c - a o (b o c)."""
    return jordan(jordan(a, b), c) - jordan(a, jordan(b, c))


def recover_associative(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Ordinary matrix product rebuilt from the two Hermitian products.

    ab = a o b - i [a, b]; the checkers never need this, but it pins the
    sign and scaling of the bracket convention.
    """
    return jordan(a, b) - 1j * lie(a, b)


@dataclass(frozen=True)
class IdentityReport:
    """Outcome of one identity evaluation on concrete operands."""

    name: str
    residual: float
    threshold: float
    passed: bool


# Each identity maps its operands, single matrices or (..., n, n) stacks, and
# their operator norms to the defect norm and the norm scale of each slice.


def _jacobi(a, b, c, na, nb, nc):
    defect = lie(lie(a, b), c) + lie(lie(b, c), a) + lie(lie(c, a), b)
    return _opnorm(defect), na * nb * nc


def _leibniz(a, b, c, na, nb, nc):
    defect = lie(a, jordan(b, c)) - jordan(lie(a, b), c) - jordan(b, lie(a, c))
    return _opnorm(defect), na * nb * nc


def _associator_identity(a, b, c, na, nb, nc):
    defect = associator(a, b, c) - lie(b, lie(c, a))
    return _opnorm(defect), na * nb * nc


def _weak_associativity(a, b, na, nb):
    sq = jordan(a, a)
    defect = jordan(jordan(sq, b), a) - jordan(sq, jordan(b, a))
    # the builtin float power: numpy's vectorized power may round the cube differently
    cube = np.reshape([x**3 for x in np.ravel(na).tolist()], np.shape(na))
    return _opnorm(defect), cube * nb


def _norm_axioms(a, b, na, nb):
    sq_a = jordan(a, a)
    sq_b = jordan(b, b)
    v_sub = _opnorm(jordan(a, b)) - na * nb
    norm_sq_a = _opnorm(sq_a)
    v_square = np.abs(norm_sq_a - na * na)
    v_dominance = norm_sq_a - _opnorm(sq_a + sq_b)
    residual = np.maximum(np.maximum(v_sub, v_square), v_dominance)
    scale = np.maximum(np.maximum(na * nb, na * na), nb * nb)
    return residual, scale


def _check(name: str, identity, operands: tuple) -> IdentityReport:
    """Judge one identity on single matrices, against ``DEFAULT_TOL`` at its norm scale."""
    xs = [as_matrix(m) for m in operands]
    residual, scale = identity(*xs, *(_opnorm(x) for x in xs))
    residual = float(residual)
    threshold = DEFAULT_TOL.threshold(scale)
    return IdentityReport(name=name, residual=residual, threshold=threshold, passed=residual <= threshold)


def check_jacobi(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> IdentityReport:
    """[[a,b],c] + [[b,c],a] + [[c,a],b] = 0."""
    return _check("jacobi", _jacobi, (a, b, c))


def check_leibniz(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> IdentityReport:
    """[a, b o c] = [a, b] o c + b o [a, c]."""
    return _check("leibniz", _leibniz, (a, b, c))


def check_associator_identity(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> IdentityReport:
    """(a o b) o c - a o (b o c) = [b, [c, a]]."""
    return _check("associator-identity", _associator_identity, (a, b, c))


def check_weak_associativity(a: np.ndarray, b: np.ndarray) -> IdentityReport:
    """(a^2 o b) o a = a^2 o (b o a), with a^2 = a o a."""
    return _check("weak-associativity", _weak_associativity, (a, b))


def check_norm_axioms(a: np.ndarray, b: np.ndarray) -> IdentityReport:
    """Operator-norm axioms of the symmetrized product.

    Checks submultiplicativity ||a o b|| <= ||a|| ||b||, the square identity
    ||a^2|| = ||a||^2, and positivity dominance ||a^2|| <= ||a^2 + b^2||.
    The residual is the largest of the three violations, signed for the two
    inequalities; the square identity enters as an absolute difference, so
    the residual is never below +0.
    """
    return _check("norm-axioms", _norm_axioms, (a, b))


def jordan_commute(a, b, ambient) -> bool:
    """Whether the Jordan multiplication operators of a and b commute.

    Tests a o (b o e) = b o (a o e) on every basis element e of the ambient
    subspace, as one stacked defect, each against ``DEFAULT_TOL`` at the
    scale ``||a|| ||b||``. Equivalent to [a, b] = 0 whenever the ambient
    space is closed under the products. Raises NotInSpan when a or b leaves
    the ambient span.
    """
    x = as_matrix(a)
    y = as_matrix(b)
    n = same_dim(x, y)
    if ambient.dim_ambient != n:
        raise DimensionMismatch(
            f"ambient dimension {ambient.dim_ambient} does not match operands of dim {n}"
        )
    for label, m in (("a", x), ("b", y)):
        if not ambient.contains(m):
            raise NotInSpan(f"operand {label} is not in the ambient subspace")
    threshold = DEFAULT_TOL.threshold(spectral_norm(x) * spectral_norm(y))
    e = ambient._stacked
    defect = jordan(x, jordan(y, e)) - jordan(y, jordan(x, e))
    # "none above" rather than "all at or below", so a NaN defect passes
    return not (_opnorm(defect) > threshold).any()
