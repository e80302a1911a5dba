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
random trials. A formula takes an evaluator of its operands, which forms
each matrix product once per stack, so the five identities share their
products: ``_Products`` (two matmuls a pair, SVD norms) for ``check_*``,
``_HermitianProducts`` (one matmul, eigenvalue norms) for ``verify``'s
exactly Hermitian trials, two norm calls a stack: the norms its screens
need, then only those that can still move a residual or a verdict, by
bounds widened by ``_NORM_SLACK``. The tests require a stacked result to be
bit-equal, slice by slice, to the same call on single matrices.

Only the public products check their input; the package's own callers,
on arrays it built itself, take the unchecked kernels ``_jordan``,
``_lie``, ``_products`` (Hermitian operands) and ``_associator``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import DimensionMismatch, NotInSpan
from .linalg import (
    DEFAULT_TOL,
    _ENTRY_LIMIT,
    _NORM_SLACK,
    Tolerance,
    _complex_draws,
    _hermitian_opnorm,
    _hermitian_part,
    _no_overflow,
    _opnorm,
    _require_finite,
    _require_type,
    _row_norms,
    _rows,
    _screened_opnorm,
    _stack_len,
    _trial_normals,
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


def _products(a: np.ndarray, b: np.ndarray, product, mul=np.matmul) -> np.ndarray:
    """``product(a, b)`` of Hermitian (..., n, n) stacks from one matmul: ``b a`` is ``a b`` conjugate-transposed."""
    p = mul(a, b)
    ph = p.conj().swapaxes(-1, -2)
    return 0.5 * (p + ph) if product is jordan else 0.5j * (p - ph)


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

    The general evaluator, for any square operands: ``jordan`` and ``lie``
    are the unchecked kernels, and every ordered matrix product ``x @ y``
    they take is formed once: ``x @ y`` and ``y @ x`` stay two products, so
    each result is the kernel's, bit for bit, and ``norm`` is the SVD's
    ``_opnorm``. A Jordan or Lie product is formed once too and returned as
    the same array, so the products of shared intermediates (a o b, [c, a],
    ...) are formed once as well. Keys are operand ids; each entry holds its
    operands, so no other array takes their ids while the stack lives.
    """

    def __init__(self, a: np.ndarray, b: np.ndarray, c: np.ndarray | None = None):
        self.a, self.b, self.c = a, b, c
        self._formed: dict[tuple, tuple] = {}

    def _once(self, product, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        key = (product, id(x), id(y))
        if key not in self._formed:
            self._formed[key] = (x, y, x @ y if product is None else self._form(x, y, product))
        return self._formed[key][2]

    def _form(self, x: np.ndarray, y: np.ndarray, product) -> np.ndarray:
        return (_jordan if product is jordan else _lie)(x, y, self.mul)

    def mul(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return self._once(None, x, y)

    def jordan(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return self._once(jordan, x, y)

    def lie(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return self._once(lie, x, y)

    norm = staticmethod(_opnorm)


class _HermitianProducts(_Products):
    """``_Products`` of exactly Hermitian operands, whose products and defects are too: one matmul a pair."""

    def _form(self, x: np.ndarray, y: np.ndarray, product) -> np.ndarray:
        return _products(x, y, product, self.mul)

    norm = staticmethod(_hermitian_opnorm)


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


def _norm_axioms(p):
    sq_a = p.jordan(p.a, p.a)
    return p.jordan(p.a, p.b), sq_a, sq_a + p.jordan(p.b, p.b)


def _axioms_residual(n_ab, n_sq_a, n_sum, na, nb):
    """norm-axioms' residual, max(v_sub, v_square, v_dominance), and scale from the norms of its matrices, a and b."""
    v_square = np.abs(n_sq_a - na * na)
    residual = np.maximum(np.maximum(n_ab - na * nb, v_square), n_sq_a - n_sum)
    return residual, np.maximum(np.maximum(na * nb, na * na), nb * nb)


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
        return _axioms_residual(*_opnorm(np.stack(formula(p))), *norms)
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

    ``ljlab verify``'s judge, in ``_IDENTITIES`` order, on Hermitian trial stacks of ``_stack_len(n)``.
    Trial t's operands a, b, c are the Hermitian parts of its ``(3, 2, n, n)`` draw of
    ``_trial_normals``: slot j's real slice plus 1j times its imaginary slice, exactly Hermitian
    (``_HermitianProducts``). A defect's residual is its operator norm, passing at or below
    ``tol.threshold`` of its norm scale; a NaN residual makes the maximum NaN and fails. A norm
    skipped by the screens (call 2) leaves every residual, maximum and verdict bit for bit.
    """
    worst = np.full(len(_IDENTITIES), -np.inf)
    passed = [True] * len(_IDENTITIES)
    for z in _trial_normals(seed, start, stop, (3, 2, n, n), _stack_len(n)):
        # (3, trials, n, n): slot-major, so each operand is one contiguous stack
        abc = _hermitian_part(np.ascontiguousarray(_complex_draws(z).swapaxes(0, 1)))
        p = _HermitianProducts(*abc)  # every identity's products, each formed once
        mats = [formula(p) for _, formula, _, _ in _IDENTITIES]
        # norm call 1, exact: a, b, a^2 and each defect identity's matrix of largest HS norm
        firsts = [x[1] if r[2] is None else x[None, _row_norms(_rows(x)).argmax()] for x, r in zip(mats, _IDENTITIES)]
        heads = (*abc[:2], *firsts)
        na, nb, *exact = np.split(p.norm(np.concatenate(heads)), np.cumsum([len(h) for h in heads])[:-1])
        # norm call 2, screened: each matrix whose exact norm can still change a residual or a verdict
        stacks, floors = [], []
        for x, e, (_, _, scale, _) in zip(mats, exact, _IDENTITIES):
            if scale is None:
                # v_sub can exceed v_square only where a o b's HS norm reaches ||a|| ||b|| + v_square, v_dominance
                # only where ||a^2|| - v_square exceeds a^2 + b^2's largest diagonal entry, a lower bound of its norm
                v_square = np.abs(e - na * na)
                low = np.einsum("...ii->...i", x[2]).real.max(axis=-1) * (1 - _NORM_SLACK)
                stacks += [x[0], x[2]]
                floors += [na * nb + v_square, np.where(e - low <= v_square, np.inf, 0.0)]
            else:
                # a residual can reach the maximum, which is at least the norm of the largest HS norm's
                # defect, or exceed zero_tol, below which it passes at any scale
                stacks.append(x)
                floors.append(np.full(len(x), min(e[0], tol.zero_tol)))
        rows = iter(zip(_screened_opnorm(np.stack(stacks), np.stack(floors), p.norm), floors))
        for i, (e, (_, _, scale, arity)) in enumerate(zip(exact, _IDENTITIES)):
            if scale is None:
                # a skipped a o b reads 0.0, a skipped a^2 + b^2 its floor, inf: their terms stay below v_square
                (n_ab, _), (n_sum, inf) = next(rows), next(rows)
                residual, s = _axioms_residual(n_ab, e, np.maximum(n_sum, inf), na, nb)
            else:
                (residual, _), s = next(rows), None
            # like residual.max() over all trials, np.maximum propagates a NaN
            worst[i] = np.maximum(worst[i], residual.max())
            t = np.flatnonzero(~(residual <= tol.zero_tol))
            if len(t):
                s = scale(*(na[t], nb[t], p.norm(abc[2, t]))[:arity]) if s is None else s[t]
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
