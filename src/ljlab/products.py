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
may be ``(..., n, n)`` stacks, and each identity has one formula, listed
with its report name, norm scale and arity in ``_IDENTITIES``, which
``_verify_trials``, the judge of ``ljlab verify``, evaluates on stacks of
random trials. A formula takes the ``_Products`` of its operands, which
forms each matrix product once per stack, so the five identities share
their products. The tests require a stacked result to be bit-equal, slice
by slice, to the same call on single matrices.

Only the public products check their input; the package's own callers,
on arrays it built itself, take the unchecked kernels ``_jordan``,
``_lie`` and ``_associator``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import DimensionMismatch, NotInSpan
from .linalg import (
    DEFAULT_TOL,
    _ENTRY_LIMIT,
    Tolerance,
    _gaussian_stack,
    _hermitian_part,
    _no_overflow,
    _opnorm,
    _require_finite,
    _require_type,
    _row_norms,
    _rows,
    _screened_opnorm,
    _stack_len,
    _trial_rngs,
    as_matrix,
    same_dim,
)

if TYPE_CHECKING:
    from .subspace import RealSubspace

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


def _operands(*mats: np.ndarray, limit: float = _ENTRY_LIMIT) -> list[np.ndarray]:
    """Complex square matrices, or stacks of them, with a common n and broadcastable lead axes.

    ValidationError for NaN, inf or an entry of modulus above ``limit``.
    """
    xs = [np.asarray(m, dtype=complex) for m in mats]
    for m in xs:
        if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
            raise DimensionMismatch(
                f"expected a square matrix or a stack of them, got shape {m.shape}"
            )
    for m in xs[1:]:
        if m.shape[-1] != xs[0].shape[-1]:
            raise DimensionMismatch(f"dimensions differ: {xs[0].shape[-1]} vs {m.shape[-1]}")
    try:
        np.broadcast_shapes(*(m.shape[:-2] for m in xs))
    except ValueError as exc:
        shapes = " vs ".join(str(m.shape) for m in xs)
        raise DimensionMismatch(f"stack shapes do not broadcast: {shapes}") from exc
    _require_finite(*xs, limit=limit)
    return xs


# The unchecked kernels, for arrays the package built itself. ``mul`` forms
# each ordered matrix product; ``_Products`` passes its memo.


def _jordan(x: np.ndarray, y: np.ndarray, mul=np.matmul) -> np.ndarray:
    return 0.5 * (mul(x, y) + mul(y, x))


def _lie(x: np.ndarray, y: np.ndarray, mul=np.matmul) -> np.ndarray:
    return 0.5j * (mul(x, y) - mul(y, x))


def _associator(x: np.ndarray, y: np.ndarray, z: np.ndarray, jordan=_jordan) -> np.ndarray:
    return jordan(jordan(x, y), z) - jordan(x, jordan(y, z))


def jordan(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Symmetrized product (ab + ba) / 2.

    ValidationError for NaN, inf or an entry above ``_ENTRY_LIMIT``.
    """
    return _jordan(*_operands(a, b))


def lie(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hermitian-valued bracket (i/2)(ab - ba).

    ValidationError for NaN, inf or an entry above ``_ENTRY_LIMIT``.
    """
    return _lie(*_operands(a, b))


def associator(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Jordan associator (a o b) o c - a o (b o c).

    ValidationError for NaN or inf entries, and for entries so large that
    the associator overflows.
    """
    xs = _operands(a, b, c, limit=np.inf)
    with _no_overflow("associator"):
        return _associator(*xs)


def recover_associative(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Ordinary matrix product rebuilt from the two Hermitian products.

    ab = a o b - i [a, b]; the checkers never need this, but it pins the
    sign and scaling of the bracket convention. ValidationError as ``jordan``.
    """
    x, y = _operands(a, b)
    return _jordan(x, y) - 1j * _lie(x, y)


class _Products:
    """The products of one stack of operands a, b and c (None for two), each formed once.

    ``jordan`` and ``lie`` are the unchecked kernels, and every ordered
    matrix product ``x @ y`` they take is formed once: ``x @ y`` and
    ``y @ x`` stay two products, so each result is the kernel's, bit for bit.
    A Jordan or Lie product is formed once too and returned as the same
    array, so the products of shared intermediates (a o b, [c, a], ...) are
    formed once as well. Keys are operand ids; each entry holds its
    operands, so no other array takes their ids while the stack lives.
    """

    def __init__(self, a: np.ndarray, b: np.ndarray, c: np.ndarray | None = None):
        self.a, self.b, self.c = a, b, c
        self._formed: dict[tuple, tuple] = {}

    def _once(self, kind: str, x: np.ndarray, y: np.ndarray, form) -> np.ndarray:
        key = (kind, id(x), id(y))
        if key not in self._formed:
            self._formed[key] = (x, y, form())
        return self._formed[key][2]

    def mul(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return self._once("@", x, y, lambda: x @ y)

    def jordan(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return self._once("o", x, y, lambda: _jordan(x, y, self.mul))

    def lie(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return self._once("[]", x, y, lambda: _lie(x, y, self.mul))


@dataclass(frozen=True)
class IdentityReport:
    """Outcome of one identity evaluation on concrete operands."""

    name: str
    residual: float
    threshold: float
    passed: bool


# Each defect identity maps the ``_Products`` of its operands, single
# matrices or (..., n, n) stacks, to its defect matrices, and its scale maps
# the operands' operator norms to the norm scale of each slice. The
# norm-axioms residual is a difference of norms, not the norm of a defect,
# so that formula maps the products and the operand norms to the residual
# and the scale itself, and has no scale entry.


def _jacobi(p):
    a, b, c = p.a, p.b, p.c
    return p.lie(p.lie(a, b), c) + p.lie(p.lie(b, c), a) + p.lie(p.lie(c, a), b)


def _leibniz(p):
    a, b, c = p.a, p.b, p.c
    return p.lie(a, p.jordan(b, c)) - p.jordan(p.lie(a, b), c) - p.jordan(b, p.lie(a, c))


def _associator_identity(p):
    a, b, c = p.a, p.b, p.c
    return _associator(a, b, c, p.jordan) - p.lie(b, p.lie(c, a))


def _weak_associativity(p):
    a, b = p.a, p.b
    sq = p.jordan(a, a)
    return p.jordan(p.jordan(sq, b), a) - p.jordan(sq, p.jordan(b, a))


def _product_scale(na, nb, nc):
    return na * nb * nc


def _cube_scale(na, nb):
    # the builtin float power: numpy's vectorized power may round the cube differently
    cube = np.reshape([x**3 for x in np.ravel(na).tolist()], np.shape(na))
    return cube * nb


def _norm_axioms(p, na, nb):
    a, b = p.a, p.b
    sq_a = p.jordan(a, a)
    sq_b = p.jordan(b, b)
    v_sub = _opnorm(p.jordan(a, b)) - na * nb
    norm_sq_a = _opnorm(sq_a)
    v_square = np.abs(norm_sq_a - na * na)
    v_dominance = norm_sq_a - _opnorm(sq_a + sq_b)
    residual = np.maximum(np.maximum(v_sub, v_square), v_dominance)
    scale = np.maximum(np.maximum(na * nb, na * na), nb * nb)
    return residual, scale


#: The identities in ``ljlab verify``'s report order: report name, formula,
#: scale (None for norm-axioms), arity. The ``check_*`` functions take their
#: names from here.
_IDENTITIES = (
    ("jacobi", _jacobi, _product_scale, 3),
    ("leibniz", _leibniz, _product_scale, 3),
    ("associator-identity", _associator_identity, _product_scale, 3),
    ("weak-associativity", _weak_associativity, _cube_scale, 2),
    ("norm-axioms", _norm_axioms, None, 2),
)


def _residual_and_scale(row: int, operands, norms) -> tuple:
    """``_IDENTITIES[row]``'s residual and norm scale on operands whose operator norms are norms."""
    _, formula, scale, _ = _IDENTITIES[row]
    p = _Products(*operands)
    if scale is None:
        return formula(p, *norms)
    return _opnorm(formula(p)), scale(*norms)


def _check(row: int, operands: tuple) -> IdentityReport:
    """Judge ``_IDENTITIES[row]`` on single matrices, against ``DEFAULT_TOL`` at its norm scale.

    DimensionMismatch for operands of two sizes; ValidationError for NaN or
    inf entries, and for entries so large that the defect or its scale overflows.
    """
    name = _IDENTITIES[row][0]
    xs = [as_matrix(m) for m in operands]
    same_dim(*xs)
    _require_finite(*xs)
    with _no_overflow(name):
        residual, scale = _residual_and_scale(row, xs, [_opnorm(x) for x in xs])
    residual = float(residual)
    threshold = DEFAULT_TOL.threshold(scale)
    return IdentityReport(name=name, residual=residual, threshold=threshold, passed=residual <= threshold)


def _verify_trials(n: int, seed: int, start: int, stop: int, tol: Tolerance) -> list[tuple[str, float, bool]]:
    """Each identity's name, largest residual over trials start to stop - 1 at dimension n, and verdict.

    ``ljlab verify``'s judge, in ``_IDENTITIES`` order, on Hermitian trial stacks of ``_stack_len(n)``
    drawn from ``_trial_rngs``. A defect's residual is its operator norm, passing at or below
    ``tol.threshold`` of its norm scale; a NaN residual makes the maximum NaN and fails.
    """
    worst = np.full(len(_IDENTITIES), -np.inf)
    passed = [True] * len(_IDENTITIES)
    for rngs in _trial_rngs(seed, start, stop, _stack_len(n)):
        g = _gaussian_stack(rngs, n, 3)
        # (3, trials, n, n): slot-major, so each operand is one contiguous stack
        abc = _hermitian_part(np.ascontiguousarray(g.swapaxes(0, 1)))
        norms_ab = _opnorm(abc[:2])
        p = _Products(*abc)  # every identity's products, each formed once
        defects = {}
        for i, (_, formula, scale, _) in enumerate(_IDENTITIES):
            if scale is not None:
                defects[i] = formula(p)
                continue
            # norm-axioms: a difference of norms, each taken exactly
            residual, s = formula(p, *norms_ab)
            # like residual.max() over all trials, np.maximum propagates a NaN
            worst[i] = np.maximum(worst[i], residual.max())
            passed[i] = passed[i] and bool(np.all(residual <= tol.threshold(s)))
        # each defect identity's matrix of largest HS norm, all in one SVD call
        tops = _opnorm(np.stack([x[np.argmax(_row_norms(_rows(x)))] for x in defects.values()]))
        for (i, defect), top in zip(defects.items(), tops):
            _, _, scale, arity = _IDENTITIES[i]
            # exact wherever a residual can reach the maximum, which is at least top, the norm of the
            # largest HS norm's defect, or exceed zero_tol, below which it passes at any scale
            residual = _screened_opnorm(defect, min(top, tol.zero_tol))
            worst[i] = np.maximum(worst[i], residual.max())
            t = np.flatnonzero(~(residual <= tol.zero_tol))
            if len(t):
                s = scale(*(*norms_ab[:, t], _opnorm(abc[2, t]))[:arity])
                passed[i] = passed[i] and bool(np.all(residual[t] <= tol.threshold(s)))
    return [(name, float(worst[i]), passed[i]) for i, (name, *_) in enumerate(_IDENTITIES)]


def check_jacobi(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> IdentityReport:
    """[[a,b],c] + [[b,c],a] + [[c,a],b] = 0."""
    return _check(0, (a, b, c))


def check_leibniz(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> IdentityReport:
    """[a, b o c] = [a, b] o c + b o [a, c]."""
    return _check(1, (a, b, c))


def check_associator_identity(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> IdentityReport:
    """(a o b) o c - a o (b o c) = [b, [c, a]]."""
    return _check(2, (a, b, c))


def check_weak_associativity(a: np.ndarray, b: np.ndarray) -> IdentityReport:
    """(a^2 o b) o a = a^2 o (b o a), with a^2 = a o a."""
    return _check(3, (a, b))


def check_norm_axioms(a: np.ndarray, b: np.ndarray) -> IdentityReport:
    """Operator-norm axioms of the symmetrized product.

    Checks submultiplicativity ||a o b|| <= ||a|| ||b||, the square identity
    ||a^2|| = ||a||^2, and positivity dominance ||a^2|| <= ||a^2 + b^2||.
    The residual is the largest of the three violations, signed for the two
    inequalities; the square identity enters as an absolute difference, so
    the residual is never below +0.
    """
    return _check(4, (a, b))


def jordan_commute(a, b, ambient: RealSubspace) -> bool:
    """Whether the Jordan multiplication operators of a and b commute.

    Tests a o (b o e) = b o (a o e) on every basis element e of the ambient
    subspace, as one stacked defect, each against ``DEFAULT_TOL`` at the
    scale ``||a|| ||b||``. Equivalent to [a, b] = 0 whenever the ambient
    space is closed under the products. Raises NotInSpan when a or b leaves
    the ambient span, and ValidationError for NaN, inf or an entry above
    ``_ENTRY_LIMIT``, or for an ambient that is not a RealSubspace.
    """
    from .subspace import RealSubspace

    _require_type("ambient", ambient, RealSubspace)
    x = as_matrix(a)
    y = as_matrix(b)
    n = same_dim(x, y)
    _require_finite(x, y, limit=_ENTRY_LIMIT)
    if ambient.dim_ambient != n:
        raise DimensionMismatch(
            f"ambient dimension {ambient.dim_ambient} does not match operands of dim {n}"
        )
    for label, m in (("a", x), ("b", y)):
        if not ambient.contains(m):
            raise NotInSpan(f"operand {label} is not in the ambient subspace")
    threshold = DEFAULT_TOL.threshold(float(_opnorm(x)) * float(_opnorm(y)))
    e = ambient._stacked
    defect = _jordan(x, _jordan(y, e)) - _jordan(y, _jordan(x, e))
    return not (_opnorm(defect) > threshold).any()
