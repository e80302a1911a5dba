"""Density matrices and classicality criteria.

A state is classical for an observable subalgebra when it cannot see any
quantum structure: expectation zero on all Jordan associators, expectation
zero on all brackets, or membership in the centralizer of the derived
algebra. The three criteria agree on closed subalgebras; ``classify`` runs
all applicable ones and raises CriteriaDisagree if they ever split. It
reports the commutator verdict, so it settles the other two as yes-or-no
flags from certified norm bounds and forms their full maxima only to
report a split.

The associator criterion needs no Jordan products. By the Jordan-Lie
identity ``(a o b) o c - a o (b o c) = [b, [c, a]]``, on a Lie-closed L

    Tr(rho assoc(e_i, e_j, e_k)) = -sum_m c_p[m] C[j, m],

where ``c_p`` are the coordinates of ``[e_i, e_k]``, i < k, and ``C[j, m] =
Tr(rho [e_j, e_m])`` is the tensor of the commutator criterion. The rows
``c_p`` form the algebra's bracket table (``subspace._structure_constants``,
built once and memoized on L): only pairs whose bracket is not roundoff
have one, so in the canonical basis most of the r^3 triples are zero
without being formed. Swapping i and k flips the sign, and a state with
C = 0 is associator-classical exactly. Per state the criterion is one real
matrix product per block of table rows, reduced to a running maximum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .errors import (
    CriteriaDisagree,
    DimensionMismatch,
    NotInSpan,
    ValidationError,
)
from .linalg import _opnorm, as_matrix, random_density
from .products import jordan, lie
from .subspace import (
    _BLOCK,
    RealSubspace,
    _BracketTable,
    _products,
    _rows,
    _stored_structure_constants,
    derived_algebra,
    require_closed,
)

__all__ = [
    "STATE_ATOL",
    "CLASSICALITY_RTOL",
    "State",
    "random_state",
    "expect",
    "Certificate",
    "ClassicalityVerdict",
    "is_classical_associator",
    "is_classical_commutator",
    "is_classical_center",
    "classify",
]

#: Absolute slack for state validation: Hermiticity, positivity, unit trace.
STATE_ATOL = 1e-10

#: Violation threshold of all three classicality criteria: a state is
#: classical when no value exceeds it. The values come from orthonormal
#: basis elements (operator norm <= 1), so it is applied flat.
CLASSICALITY_RTOL = 1e-8


@dataclass(frozen=True, eq=False)
class State:
    """Validated density matrix: Hermitian, PSD, unit trace."""

    rho: np.ndarray

    def __post_init__(self) -> None:
        try:
            a = as_matrix(self.rho)
        except DimensionMismatch as exc:
            raise ValidationError(str(exc)) from exc
        if not a.size:
            raise ValidationError("a state needs dimension >= 1, got a 0 x 0 matrix")
        a = a.copy()
        if not np.isfinite(a).all():
            raise ValidationError("state entries must be finite")
        herm_defect = float(np.max(np.abs(a - np.conj(a).T)))
        if herm_defect > STATE_ATOL:
            raise ValidationError(
                f"state is not Hermitian: max asymmetry {herm_defect:.3e}"
            )
        lam_min = float(np.linalg.eigvalsh(a)[0])
        if lam_min < -STATE_ATOL:
            raise ValidationError(f"state is not PSD: min eigenvalue {lam_min:.3e}")
        trace_err = abs(float(np.real(np.trace(a))) - 1.0)
        if trace_err > STATE_ATOL:
            raise ValidationError(f"state trace deviates from 1 by {trace_err:.3e}")
        a.setflags(write=False)
        object.__setattr__(self, "rho", a)

    @property
    def dim(self) -> int:
        return self.rho.shape[0]


def random_state(n: int, seed: int) -> State:
    return State(random_density(n, seed))


def expect(s: State, a: np.ndarray) -> float:
    """Expectation value Tr(rho a), real for Hermitian observables."""
    m = as_matrix(a)
    if m.shape[0] != s.dim:
        raise DimensionMismatch(f"observable dim {m.shape[0]} != state dim {s.dim}")
    return float(np.real(np.sum(s.rho * m.T)))


@dataclass(frozen=True, eq=False)
class Certificate:
    """Witnessing observables for a quantum verdict, with the observed value."""

    observables: tuple[np.ndarray, ...]
    value: float


@dataclass(frozen=True, eq=False)
class ClassicalityVerdict:
    classical: bool
    criterion: str
    max_violation: float
    certificate: Certificate | None


def _check_dims(s: State, L: RealSubspace) -> None:
    if s.dim != L.dim_ambient:
        raise DimensionMismatch(f"state dim {s.dim} != ambient dim {L.dim_ambient}")


def _verdict(criterion: str, vals: np.ndarray, basis: tuple[np.ndarray, ...]) -> ClassicalityVerdict:
    """The verdict on an array of values, at its first row-major maximum."""
    if vals.size == 0:
        return _ruling(criterion, 0.0, (), 0.0, basis)
    flat = np.abs(vals).ravel()
    arg = int(np.argmax(flat))
    idx = np.unravel_index(arg, vals.shape)
    return _ruling(criterion, float(flat[arg]), idx, float(vals[idx]), basis)


def _ruling(
    criterion: str,
    max_violation: float,
    idx: tuple[int, ...],
    value: float,
    basis: tuple[np.ndarray, ...],
) -> ClassicalityVerdict:
    """The verdict given the largest |value|, its basis indices and its signed value.

    Classical when the largest |value| is at most ``CLASSICALITY_RTOL``.
    """
    classical = max_violation <= CLASSICALITY_RTOL
    cert = None if classical else Certificate(tuple(basis[i] for i in idx), value)
    return ClassicalityVerdict(classical, criterion, max_violation, cert)


def _bracket_expectations(s: State, L: RealSubspace) -> np.ndarray:
    """C[i, j] = Tr(rho [e_i, e_j]) over basis pairs of L.

    The pair table ``t[i, j] = Tr(rho e_i e_j)`` is one matrix product:
    row i holds ``rho e_i`` flattened, column j ``e_j`` transposed.
    """
    e, r, n = L._stacked, L.dim_span, L.dim_ambient
    t = (s.rho @ e).reshape(r, n * n) @ e.transpose(0, 2, 1).reshape(r, n * n).T
    return np.real(0.5j * (t - t.T))


#: A block of associator values: ``vals[p, j] = Tr(rho assoc(e_i[p], e_j, e_k[p]))``.
_Block = tuple[np.ndarray, np.ndarray, np.ndarray]


def _pair_values(table: _BracketTable, C: np.ndarray) -> Iterator[_Block]:
    """The values of the triples ``(i, j, k)``, i < k, over the table's pairs, block by block."""
    minus_ct = -C.T  # negating the r x r factor negates each product exactly
    for s in range(0, len(table.i), _BLOCK):
        rows = slice(s, s + _BLOCK)
        yield table.coords[rows] @ minus_ct, table.i[rows], table.k[rows]


def _first_max(blocks: Iterable[_Block]) -> tuple[float, tuple[int, int, int], float]:
    """Largest |value| over the blocks, its first row-major (i, j, k) and its signed value.

    Each block's rows must run in row-major (i, k) order. Triples in no
    block are 0.0, as ``(0, 0, 0)`` always is (``[e_0, e_0] = 0``), so the
    scan starts there. A block's first maximum in row order, in row p, has
    the smallest i of its ties, and no row before p has a tie; among the
    rows from p with the same i, the first tie in (j, k) order is the
    block's first row-major maximum.
    """
    best, idx, value = 0.0, (0, 0, 0), 0.0
    for vals, i, k in blocks:
        a = np.abs(vals)
        flat = int(a.argmax())
        p, top = flat // a.shape[1], float(a.flat[flat])
        if top < best or top == 0.0:
            continue
        hi = int(i.searchsorted(i[p], "right"))
        j, q = divmod(int((a[p:hi].T == top).argmax()), hi - p)
        cand = (int(i[p]), j, int(k[p + q]))
        if top > best or cand < idx:
            best, idx, value = top, cand, float(vals[p + q, j])
    return best, idx, value


def _exact_values(s: State, L: RealSubspace) -> Iterator[_Block]:
    """The values of the triples ``(i, j, k)``, i < k, over every pair, block by block.

    By the Jordan-Lie identity and ``Tr(a [b, c]) = Tr([a, b] c)``, for any
    Hermitian matrices ``Tr(rho assoc(e_i, e_j, e_k)) = -<[rho, e_j], [e_i,
    e_k]>_HS``: each value is one inner product of two brackets, with
    roundoff as its only error, and the (k, j, i) value is its exact negative.
    """
    e = L._stacked
    # rho is Hermitian only within STATE_ATOL, so both of its products are formed
    minus_bt = -_rows(0.5j * (s.rho @ e - e @ s.rho)).T
    i, k = np.triu_indices(L.dim_span, 1)
    for b in range(0, len(i), _BLOCK):
        ib, kb = i[b : b + _BLOCK], k[b : b + _BLOCK]
        yield _rows(_products(e[ib], e[kb], lie)) @ minus_bt, ib, kb


def _bracket_tensor(s: State, L: RealSubspace) -> np.ndarray:
    """The checks both bracket criteria make, then their shared tensor C."""
    _check_dims(s, L)
    require_closed(L, jordan)
    require_closed(L, lie)
    return _bracket_expectations(s, L)


def _associator_verdict(s: State, L: RealSubspace, C: np.ndarray) -> ClassicalityVerdict:
    table = _stored_structure_constants(L)
    top = _first_max(_pair_values(table, C))
    if abs(top[0] - CLASSICALITY_RTOL) <= table.delta:
        top = _first_max(_exact_values(s, L))
    return _ruling("associator", *top, L.basis)


def is_classical_associator(s: State, L: RealSubspace) -> ClassicalityVerdict:
    """Expectation of every basis Jordan associator vanishes.

    Evaluates Tr(rho * ((e_i o e_j) o e_k - e_i o (e_j o e_k))) over all
    basis triples from the bracket table (module docstring), as a running
    maximum over blocks of table rows; no r^3 array is formed. Triples
    whose pair has no table row read 0.0, as do i == k. The certificate is
    the first row-major maximum, which by antisymmetry in (i, k) has i < k.
    The table and its ``delta``, the largest HS norm of a bracket part it
    leaves out (the residual off L of a kept bracket, or a dropped bracket
    whole), are memoized on L. Since ``|Tr(rho [e_j, R])| <= ||R||_HS``,
    each value is within delta of the exact one; when the largest value
    lies within delta of ``CLASSICALITY_RTOL``, the maximum is taken again
    over every i < k pair from the brackets ``[rho, e_j]`` and ``[e_i,
    e_k]`` (``_exact_values``), whose values carry roundoff only, so no
    verdict rests on that error.
    """
    return _associator_verdict(s, L, _bracket_tensor(s, L))


def is_classical_commutator(s: State, L: RealSubspace) -> ClassicalityVerdict:
    """Expectation of every basis bracket vanishes."""
    return _verdict("commutator", _bracket_tensor(s, L), L.basis)


def _derived_brackets(s: State, L: RealSubspace) -> tuple[RealSubspace, np.ndarray]:
    """The derived algebra d and the brackets ``[rho, d_k]`` over its basis, as (r_d, n, n).

    Raises NotInSpan when rho is not in span(L).
    """
    _check_dims(s, L)
    if not L.contains(s.rho):
        raise NotInSpan("state is not an element of the subalgebra's span")
    d = derived_algebra(L)
    dk = d._stacked
    return d, 0.5j * (s.rho @ dk - dk @ s.rho)


def is_classical_center(s: State, L: RealSubspace) -> ClassicalityVerdict:
    """The state, seen as an algebra element, centralizes [L, L].

    Requires rho inside span(L) (NotInSpan otherwise). The derived algebra
    is memoized on L, so sweeps over many states build it once. The values
    are the spectral norms of the brackets ``[rho, d_k]``, batched over the
    basis of the derived algebra.
    """
    d, brackets = _derived_brackets(s, L)
    return _verdict("center", _opnorm(brackets), d.basis)


#: Rounding slack of the flags' bounds: the relative error allowed for a
#: computed norm or inner product against its exact value on the computed
#: inputs. SVDs, sums of squares and dot products are accurate to a few
#: hundred ulps at the sizes the package handles, far inside it.
_NORM_SLACK = 1e-6


def _associator_flag(s: State, L: RealSubspace, C: np.ndarray) -> bool:
    """``_associator_verdict(s, L, C).classical``, settled by the first certificate.

    Each value is ``<c_p, C[j]>``, at most ``||c_p|| ||C[j]||`` (Cauchy-
    Schwarz): when the table's ``norm`` (``max_p ||c_p||``) times ``max_j
    ||C[j]||`` is below ``CLASSICALITY_RTOL - delta`` every value is, and
    the verdict is classical with no contraction. Otherwise the table's blocks are
    contracted in order, and the first block maximum above
    ``CLASSICALITY_RTOL + delta`` proves the verdict quantum, since the
    verdict's largest value is at least that and lies outside the recheck
    band. A scan without that certificate falls back to the verdict itself.
    """
    table = _stored_structure_constants(L)
    bound = table.norm * _max_row_norm(C)
    if bound * (1 + _NORM_SLACK) < CLASSICALITY_RTOL - table.delta:
        return True
    for vals, _, _ in _pair_values(table, C):
        if float(np.abs(vals).max()) > CLASSICALITY_RTOL + table.delta:
            return False
    return _associator_verdict(s, L, C).classical


def _row_norms(a: np.ndarray) -> np.ndarray:
    return np.sqrt(np.einsum("ij,ij->i", a, a))


def _max_row_norm(a: np.ndarray) -> float:
    return float(_row_norms(a).max(initial=0.0))


def _center_flag(s: State, L: RealSubspace) -> bool:
    """``is_classical_center(s, L).classical``, settled by Hilbert-Schmidt bounds.

    ``||X||_HS / sqrt(n) <= ||X||_op <= ||X||_HS``: a bracket of HS norm
    above ``sqrt(n) * CLASSICALITY_RTOL`` proves the verdict quantum, and
    brackets of HS norm below ``CLASSICALITY_RTOL`` are classical. Only the
    brackets between the two get a spectral norm. Raises NotInSpan as the
    criterion does.
    """
    _, brackets = _derived_brackets(s, L)
    hs = _row_norms(_rows(brackets))
    if np.any(hs > math.sqrt(s.dim) * CLASSICALITY_RTOL * (1 + _NORM_SLACK)):
        return False
    band = hs >= CLASSICALITY_RTOL * (1 - _NORM_SLACK)
    return not band.any() or float(_opnorm(brackets[band]).max()) <= CLASSICALITY_RTOL


def classify(s: State, L: RealSubspace) -> ClassicalityVerdict:
    """Run all applicable criteria and cross-check them.

    The center criterion participates only when rho lies in span(L). Any
    disagreement raises CriteriaDisagree; otherwise the commutator verdict
    (pair certificate) is returned. The bracket tensor C that the
    associator and commutator criteria share is built once. The associator
    and center criteria enter only through their ``classical`` flags, which
    ``_associator_flag`` and ``_center_flag`` settle from certified bounds;
    their full verdicts are computed only to report a disagreement.
    """
    C = _bracket_tensor(s, L)
    verdict = _verdict("commutator", C, L.basis)
    flags = [_associator_flag(s, L, C)]
    try:
        flags.append(_center_flag(s, L))
    except NotInSpan:
        pass
    if all(f == verdict.classical for f in flags):
        return verdict
    verdicts = [_associator_verdict(s, L, C), verdict]
    if len(flags) == 2:  # rho is in span(L)
        verdicts.append(is_classical_center(s, L))
    detail = ", ".join(
        f"{v.criterion}={v.classical} (violation {v.max_violation:.3e})"
        for v in verdicts
    )
    raise CriteriaDisagree(f"classicality criteria disagree: {detail}")
