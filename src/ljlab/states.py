"""Density matrices and classicality criteria.

A state is classical for an observable subalgebra when it cannot see any
quantum structure: expectation zero on all Jordan associators, expectation
zero on all brackets, or membership in the centralizer of the derived
algebra. The three criteria agree on closed subalgebras; ``classify`` runs
all applicable ones and raises CriteriaDisagree if they ever split. It
reports the commutator verdict, so it settles the other two as yes-or-no
flags and forms their full maxima only to report a split. A flag first
tries bounds that read only the tensor C, rho's coordinates x against L
and the r brackets ``R_j = [rho, e_j]``. These four certified bounds
(``_associator_classical``, ``_associator_quantum``, ``_center_classical``,
``_center_quantum``) use ``SPAN_RTOL`` as the distance of a basis bracket
from the closed L, and settle a clear state with no bracket table and no
derived algebra. A flag no bound settles, for a state near a threshold,
is its criterion's own verdict, so every flag equals its criterion's
``classical``.

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
from typing import Iterator

import numpy as np

from .errors import (
    CriteriaDisagree,
    DimensionMismatch,
    NotInSpan,
    ValidationError,
)
from .linalg import _NORM_SLACK, _opnorm, _require_finite, as_matrix, random_density
from .products import jordan, lie
from .subspace import (
    _BLOCK,
    _DEFECT_FLOOR,
    SPAN_RTOL,
    RealSubspace,
    _Block,
    _brackets,
    _BracketTable,
    _first_max,
    _row_norms,
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
    """Expectation value Tr(rho a), real for Hermitian observables; ValidationError for NaN or inf."""
    m = as_matrix(a)
    if m.shape[0] != s.dim:
        raise DimensionMismatch(f"observable dim {m.shape[0]} != state dim {s.dim}")
    _require_finite(m)
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


def _pair_values(table: _BracketTable, C: np.ndarray) -> Iterator[_Block]:
    """The values of the triples ``(i, j, k)``, i < k, over the table's pairs, block by block."""
    minus_ct = -C.T  # negating the r x r factor negates each product exactly
    for s in range(0, len(table.i), _BLOCK):
        rows = slice(s, s + _BLOCK)
        yield table.coords[rows] @ minus_ct, table.i[rows], table.k[rows]


def _rho_brackets(s: State, e: np.ndarray) -> np.ndarray:
    """``[rho, e_k]`` over an (r, n, n) stack; rho is Hermitian within ``STATE_ATOL``, so both products."""
    return 0.5j * (s.rho @ e - e @ s.rho)


def _exact_values(s: State, L: RealSubspace) -> Iterator[_Block]:
    """The values of the triples ``(i, j, k)``, i < k, over every pair, block by block.

    By the Jordan-Lie identity and ``Tr(a [b, c]) = Tr([a, b] c)``, for any
    Hermitian matrices ``Tr(rho assoc(e_i, e_j, e_k)) = -<[rho, e_j], [e_i,
    e_k]>_HS``: each value is one inner product of two brackets, with
    roundoff as its only error, and the (k, j, i) value is its exact negative.
    """
    minus_bt = -_rows(_rho_brackets(s, L._stacked)).T
    return _brackets(L, lambda br: _rows(br) @ minus_bt)


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
    basis triples from the bracket table (module docstring), memoized on L,
    block by block into ``_first_max``, whose tie rule picks the certificate
    (i < k, by antisymmetry); no r^3 array is formed. Triples whose pair has
    no table row read 0.0, as do i == k. Since ``|Tr(rho [e_j, R])| <=
    ||R||_HS``, each value is within the table's ``delta`` of the exact one;
    when the largest lies within delta of ``CLASSICALITY_RTOL``, the maximum
    is taken again from ``_exact_values``, whose values carry roundoff only,
    so no verdict rests on that error.
    """
    return _associator_verdict(s, L, _bracket_tensor(s, L))


def is_classical_commutator(s: State, L: RealSubspace) -> ClassicalityVerdict:
    """Expectation of every basis bracket vanishes."""
    return _verdict("commutator", _bracket_tensor(s, L), L.basis)


def _center_verdict(s: State, L: RealSubspace) -> ClassicalityVerdict:
    """The center verdict for rho in span(L), from the brackets ``[rho, d_k]`` over the derived algebra d."""
    d = derived_algebra(L)
    return _verdict("center", _opnorm(_rho_brackets(s, d._stacked)), d.basis)


def is_classical_center(s: State, L: RealSubspace) -> ClassicalityVerdict:
    """The state, seen as an algebra element, centralizes [L, L].

    Requires rho inside span(L) (NotInSpan otherwise). The derived algebra
    is memoized on L, so sweeps over many states build it once. The values
    are the spectral norms of the brackets ``[rho, d_k]``, batched over the
    basis of the derived algebra.
    """
    _check_dims(s, L)
    if not L.contains(s.rho):
        raise NotInSpan("state is not an element of the subalgebra's span")
    return _center_verdict(s, L)


# classify's first step: four bounds that settle a flag from the tensor C
# (through its row norms ``cn[j] = ||C[j]||``), rho's coordinates x against
# L and the brackets ``R_j = [rho, e_j]``, with no basis bracket formed.
# Their premises: ``require_closed(L, lie)`` has passed, so each ``[e_i,
# e_k]`` (HS norm at most 1 for orthonormal e) lies within d = ``SPAN_RTOL``
# of span(L), and d bounds the table's ``delta``; and ``||rho||_HS <= 1``.
# j* maximizes ``||C[j]||``; each bound is widened by ``1 + _NORM_SLACK``.


def _associator_classical(cn: np.ndarray, hs: np.ndarray) -> bool:
    """Whether ``max ||C[j]|| + max ||R_j|| d`` proves the associator flag classical.

    A table value ``<c_p, C[j]>`` is at most ``||C[j]||``, since ``||c_p||
    <= 1``. An exact-pass value ``<R_j, [e_i, e_k]>`` is at most ``||C[j]||
    + ||R_j|| d``: C[j] holds the coordinates of R_j against L, and the
    bracket's part off L is at most d. Below ``CLASSICALITY_RTOL`` that
    bounds whichever maximum the verdict takes, in the recheck band or out.
    ``hs[j]`` is ``||R_j||_HS``.
    """
    top = float(cn.max(initial=0.0)) + float(hs.max(initial=0.0)) * SPAN_RTOL
    return top * (1 + _NORM_SLACK) < CLASSICALITY_RTOL


def _associator_quantum(cn: np.ndarray, x1: float) -> bool:
    """Whether ``(||C[j*]||^2 - eta ||C[j*]||) / ||x||_1`` proves the associator flag quantum.

    With ``t(i, j, k)`` the table's values, ``sum_i x_i t(i, j*, j*) = -<g,
    C[j*]>``, where g sums x_i times the table row of ``[e_i, e_j*]`` (zero
    for a pair not in the table). Exactly, ``g[m] = Tr(P rho [e_j*, e_m])``
    for the projection P onto L, while ``C[j*, m] = Tr(rho [e_j*, e_m])``:
    they differ by rho's part off L against the bracket's part off L, at
    most d each, and a pair left out of the table has norm at most
    ``_DEFECT_FLOOR / 2``. So ``||g - C[j*]|| <= eta = sqrt(r) d + ||x||_1
    _DEFECT_FLOOR / 2``, and the table's maximum is at least the quotient.
    Above ``CLASSICALITY_RTOL + d``, which is at least the threshold plus
    ``delta``, the verdict is quantum outside the recheck band. x1 is
    ``||x||_1``.
    """
    c = float(cn.max(initial=0.0))
    eta = math.sqrt(len(cn)) * SPAN_RTOL + x1 * _DEFECT_FLOOR / 2
    return x1 > 0.0 and (c * c - eta * c) / x1 > (CLASSICALITY_RTOL + SPAN_RTOL) * (1 + _NORM_SLACK)


def _center_classical(hs: np.ndarray) -> bool:
    """Whether ``||R||_F`` proves the center flag classical, for rho in span(L).

    Each basis element of the derived algebra is a unit coordinate row a
    times ``L.rows``, so its bracket with rho is ``sum_k a_k R_k``, of HS
    norm, hence operator norm, at most ``||R||_F``. At most
    ``CLASSICALITY_RTOL`` settles classical. ``hs[j]`` is ``||R_j||_HS``.
    """
    return math.sqrt(float(hs @ hs)) * (1 + _NORM_SLACK) <= CLASSICALITY_RTOL


def _center_quantum(s: State, L: RealSubspace, cn: np.ndarray, x1: float) -> bool:
    """Whether ``||[rho, y]||_HS / sqrt(n)``, ``y = R_j*``, proves the center flag quantum.

    For rho in span(L). y lies within ``eps = (||x||_1 (1 + sqrt(2 n^2 + r))
    + 1) d`` of span [L, L]. rho lies within d of ``P rho = sum_i x_i e_i``
    (``contains``' rule), which moves y by at most d. Each ``[e_i, e_j*]``
    lies within d of L (closedness, the table's ``delta``). Its coordinates
    are ``-sum_t e_i[t] a_t`` over the 2n^2 constraint rows ``a_t`` that the
    derived algebra's walk (``subspace._ad_rows``) forms for s = e_j*, with
    ``sum_t ||a_t||^2 <= r``. The drop rule leaves each ``a_t`` it reaches
    within ``d max(1, ||a_t||)`` of [L, L], so by Cauchy-Schwarz the
    coordinates lie within ``sqrt(2 n^2 + r) d`` of it. Rows the walk never
    reaches lie in it to roundoff: the walk stops only once its span has the
    largest dimension [L, L] can have, r - 1 with I in L (brackets are
    traceless), else r. If every ``||[rho, d_k]||_op`` were
    at most ``CLASSICALITY_RTOL``, ``z = [rho, y]`` would have operator norm
    at most ``sqrt(r) (||y|| + eps) CLASSICALITY_RTOL + eps``: y's part in
    [L, L] has at most r coordinates, of total square at most ``(||y|| +
    eps)^2``, and its other part, at most eps, moves z by at most eps. As
    ``||z||_HS / sqrt(n) <= ||z||_op``, a larger value proves quantum, from
    four matrix products. x1 is ``||x||_1``.
    """
    y = _rho_brackets(s, L._stacked[int(cn.argmax())])
    z = _rho_brackets(s, y)
    eps = (x1 * (1 + math.sqrt(2 * s.dim**2 + len(cn))) + 1) * SPAN_RTOL
    bound = math.sqrt(len(cn)) * (math.sqrt(np.vdot(y, y).real) + eps) * CLASSICALITY_RTOL + eps
    return math.sqrt(np.vdot(z, z).real / s.dim) > bound * (1 + _NORM_SLACK)


def _flags(s: State, L: RealSubspace, C: np.ndarray) -> list[bool]:
    """The associator flag, then the center flag when rho is in span(L).

    Each flag tries its quantum bound, which needs no bracket stack, then
    its classical bound, then takes its criterion's own verdict. The r
    brackets ``[rho, e_j]`` are formed once, unless both quantum bounds
    settle. ``contains`` runs once, and the center flag uses its result.
    """
    in_span = L.contains(s.rho)
    cn, x1 = _row_norms(C), float(np.abs(L.coeffs(s.rho)).sum())
    quantum = [_associator_quantum(cn, x1)] + ([_center_quantum(s, L, cn, x1)] if in_span else [])
    if all(quantum):
        return [False] * len(quantum)
    hs = _row_norms(_rows(_rho_brackets(s, L._stacked)))
    flags = [not quantum[0] and (_associator_classical(cn, hs) or _associator_verdict(s, L, C).classical)]
    if in_span:
        flags.append(not quantum[1] and (_center_classical(hs) or _center_verdict(s, L).classical))
    return flags


def classify(s: State, L: RealSubspace) -> ClassicalityVerdict:
    """Run all applicable criteria and cross-check them.

    The center criterion participates only when rho lies in span(L). Any
    disagreement raises CriteriaDisagree; otherwise the commutator verdict
    (pair certificate) is returned. The bracket tensor C that the
    associator and commutator criteria share is built once. The associator
    and center criteria enter only through their ``classical`` flags
    (``_flags``): four certified bounds from C, rho's coordinates and the
    brackets ``[rho, e_j]`` settle a clear state, and a flag none settles
    is its criterion's own verdict, which builds the bracket table or the
    derived algebra. Their full verdicts are computed only to report a
    disagreement.
    """
    C = _bracket_tensor(s, L)
    verdict = _verdict("commutator", C, L.basis)
    flags = _flags(s, L, C)
    if all(f == verdict.classical for f in flags):
        return verdict
    verdicts = [_associator_verdict(s, L, C), verdict]
    if len(flags) == 2:  # rho is in span(L)
        verdicts.append(_center_verdict(s, L))
    detail = ", ".join(
        f"{v.criterion}={v.classical} (violation {v.max_violation:.3e})"
        for v in verdicts
    )
    raise CriteriaDisagree(f"classicality criteria disagree: {detail}")
