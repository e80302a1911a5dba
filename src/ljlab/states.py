"""Density matrices and classicality criteria.

A state is classical for an observable subalgebra when it cannot see any
quantum structure: expectation zero on all Jordan associators, expectation
zero on all brackets, or membership in the centralizer of the derived
algebra. The three criteria agree on closed subalgebras; ``classify`` runs
all applicable ones and raises CriteriaDisagree if they ever split. It
reports the commutator verdict, so it settles the other two as yes-or-no
flags and forms their full maxima only to report a split. A flag first
tries certified bounds: the quantum ones (``_associator_quantum``,
``_center_quantum``) read only the tensor C (one real matrix product
against L's rows, ``_bracket_expectations``) and rho's coordinates x
against L, and the classical ones (``_associator_classical``,
``_center_classical``) also the r brackets ``R_j = [rho, e_j]``. All four
use ``SPAN_RTOL`` as the distance of a basis bracket from the closed L,
and settle a clear state with no basis bracket and no derived algebra; a
clear quantum state forms no bracket at all. A flag no bound settles, for
a state near a threshold, is its criterion's own verdict, so every flag
equals its criterion's ``classical``.

The associator criterion needs no Jordan products. By the Jordan-Lie
identity ``(a o b) o c - a o (b o c) = [b, [c, a]]`` and ``Tr(a [b, c]) =
Tr([a, b] c)``, for any Hermitian matrices

    Tr(rho assoc(e_i, e_j, e_k)) = -<[rho, e_j], [e_i, e_k]>_HS,

one inner product of two brackets with roundoff as its only error
(``_exact_values``). Swapping i and k flips the sign, so only i < k pairs
are formed, from the basis bracket stream (``subspace._brackets``); a pair
whose bracket is exactly zero, most of them in the canonical basis, gives
exact zeros and is skipped. Per state the criterion is one real matrix
product per block of nonzero brackets, reduced to a running maximum.
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
from .linalg import _NORM_SLACK, _opnorm, _require_finite, _require_type, _row_norms, _rows, as_matrix, random_density
from .products import _lie, jordan, lie
from .subspace import (
    SPAN_RTOL,
    RealSubspace,
    _Block,
    _brackets,
    _first_max,
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
    _require_type("s", s, State)
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
    """ValidationError unless s is a State and L a RealSubspace; DimensionMismatch unless their dims agree."""
    _require_type("s", s, State)
    _require_type("L", L, RealSubspace)
    if s.dim != L.dim_ambient:
        raise DimensionMismatch(f"state dim {s.dim} != ambient dim {L.dim_ambient}")


def _verdict(criterion: str, vals: np.ndarray, basis: tuple[np.ndarray, ...]) -> ClassicalityVerdict:
    """The verdict on a 1-D or 2-D array of values, at its first row-major maximum."""
    if vals.size == 0:
        return _ruling(criterion, 0.0, (), 0.0, basis)
    flat = np.abs(vals).ravel()
    arg = int(flat.argmax())
    idx = divmod(arg, vals.shape[1]) if vals.ndim == 2 else (arg,)
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
    """C[i, j] = Tr(rho [e_i, e_j]) over basis pairs of L, from one real matrix product.

    Real rows dot to ``Re Tr(a^H b)``, so the rows of ``i rho e_i`` against
    ``L.rows`` give ``c[i, j] = -Im Tr(rho e_i e_j)``, and ``0.5 (c - c^T)``
    is ``Re Tr(rho [e_i, e_j])`` for any rho; for a Hermitian rho, c is C.
    Antisymmetrizing drops the share of the anti-Hermitian part, up to
    ``STATE_ATOL``, that ``State`` admits (that share of c is symmetric),
    and makes C exactly antisymmetric in floating point.
    """
    c = _rows(1j * (s.rho @ L._stacked)) @ L.rows.T
    return 0.5 * (c - c.T)


def _exact_values(s: State, L: RealSubspace) -> Iterator[_Block]:
    """The values of the triples ``(i, j, k)``, i < k, over every nonzero bracket, block by block.

    Each value is ``-<[rho, e_j], [e_i, e_k]>_HS`` (module docstring), and
    the (k, j, i) value is its exact negative. Bracket rows that are exactly
    zero give exact zeros, so they are dropped before the matrix product
    and a block left empty is not yielded: ``_first_max`` reads a triple in
    no block as 0.0, so its value and triple are those of every pair.
    """
    minus_bt = -_rows(_lie(s.rho, L._stacked)).T
    for br, i, k in _brackets(L, _rows):
        nonzero = br.any(axis=1)
        if nonzero.any():
            yield br[nonzero] @ minus_bt, i[nonzero], k[nonzero]


def _check_algebra(s: State, L: RealSubspace) -> None:
    """The checks both bracket criteria make: matching dimensions, L closed under both products."""
    _check_dims(s, L)
    require_closed(L, jordan)
    require_closed(L, lie)


def _associator_verdict(s: State, L: RealSubspace) -> ClassicalityVerdict:
    return _ruling("associator", *_first_max(_exact_values(s, L)), L.basis)


def is_classical_associator(s: State, L: RealSubspace) -> ClassicalityVerdict:
    """Expectation of every basis Jordan associator vanishes.

    Evaluates Tr(rho * ((e_i o e_j) o e_k - e_i o (e_j o e_k))) over all
    basis triples as inner products of brackets (module docstring, with
    roundoff as their only error), block by block into ``_first_max``,
    whose tie rule picks the certificate (i < k, by antisymmetry); no r^3
    array is formed. Triples whose bracket ``[e_i, e_k]`` is zero read 0.0,
    as do i == k.
    """
    _check_algebra(s, L)
    return _associator_verdict(s, L)


def is_classical_commutator(s: State, L: RealSubspace) -> ClassicalityVerdict:
    """Expectation of every basis bracket vanishes."""
    _check_algebra(s, L)
    return _verdict("commutator", _bracket_expectations(s, L), L.basis)


def _center_verdict(s: State, L: RealSubspace) -> ClassicalityVerdict:
    """The center verdict for rho in span(L), from the brackets ``[rho, d_k]`` over the derived algebra d."""
    d = derived_algebra(L)
    return _verdict("center", _opnorm(_lie(s.rho, d._stacked)), d.basis)


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
# (through its row norms ``cn[j] = ||C[j]||``) and rho's coordinates x
# against L, with no basis bracket formed; the classical bounds add the
# brackets ``R_j = [rho, e_j]``. Their premises: ``require_closed(L, lie)``
# has passed, so each ``[e_i, e_k]`` (HS norm at most 1 for orthonormal e)
# lies within d = ``SPAN_RTOL`` of span(L) (where the closedness certificate
# decided: unless two or more brackets' residuals cancel in it); and
# ``||rho||_HS <= 1``, so ``||R_j||_HS <= 1``. ``C[j, k] = Tr(rho [e_j,
# e_k]) = <e_k, R_j>``, so C[j] holds the coordinates of R_j against L,
# and with ``c_p`` the coordinates of ``[e_i, e_k]`` the associator value
# ``-<R_j, [e_i, e_k]>`` lies within ``||R_j|| d <= d`` of ``t(i, j, k) =
# -<c_p, C[j]>``: the bracket's part off L is at most d. j* maximizes
# ``||C[j]||``; each bound is widened by ``1 + _NORM_SLACK``.


def _associator_classical(cn: np.ndarray, hs: np.ndarray) -> bool:
    """Whether ``max ||C[j]|| + max ||R_j|| d`` proves the associator flag classical.

    ``|t(i, j, k)| <= ||C[j]||``, since ``||c_p|| <= 1``, so each value
    ``-<R_j, [e_i, e_k]>`` is at most ``||C[j]|| + ||R_j|| d``. Below
    ``CLASSICALITY_RTOL`` that bounds the criterion's maximum. ``hs[j]`` is
    ``||R_j||_HS``.
    """
    top = float(cn.max(initial=0.0)) + float(hs.max(initial=0.0)) * SPAN_RTOL
    return top * (1 + _NORM_SLACK) < CLASSICALITY_RTOL


def _associator_quantum(cn: np.ndarray, x1: float) -> bool:
    """Whether ``(||C[j*]||^2 - eta ||C[j*]||) / ||x||_1`` proves the associator flag quantum.

    ``sum_i x_i t(i, j*, j*) = -<g, C[j*]>``, where g sums x_i times the
    coordinates of ``[e_i, e_j*]``. Exactly, ``g[m] = Tr(P rho [e_j*,
    e_m])`` for the projection P onto L, while ``C[j*, m] = Tr(rho [e_j*,
    e_m])``: they differ by rho's part off L, at most 1, against the
    bracket's part off L, at most d. So ``||g - C[j*]|| <= eta = sqrt(r)
    d``, and some ``|t(i, j*, j*)|`` is at least the quotient. Its value
    lies within d of it, so above ``CLASSICALITY_RTOL + d`` the criterion's
    maximum is above the threshold. x1 is ``||x||_1``.
    """
    c = float(cn.max(initial=0.0))
    eta = math.sqrt(len(cn)) * SPAN_RTOL
    return x1 > 0.0 and (c * c - eta * c) / x1 > (CLASSICALITY_RTOL + SPAN_RTOL) * (1 + _NORM_SLACK)


def _center_classical(hs: np.ndarray) -> bool:
    """Whether ``||R||_F`` proves the center flag classical, for rho in span(L).

    Each basis element of the derived algebra is a unit coordinate row a
    times ``L.rows``, so its bracket with rho is ``sum_k a_k R_k``, of HS
    norm, hence operator norm, at most ``||R||_F``. At most
    ``CLASSICALITY_RTOL`` settles classical. ``hs[j]`` is ``||R_j||_HS``.
    """
    return math.sqrt(float(hs @ hs)) * (1 + _NORM_SLACK) <= CLASSICALITY_RTOL


def _center_quantum(C: np.ndarray, cn: np.ndarray, x1: float, n: int) -> bool:
    """Whether ``(||C[j*] @ C|| - eta) / sqrt(n)`` proves the center flag quantum.

    For rho in span(L), with ``y = R_j*`` and ``z = [rho, y]``, read from C
    with no bracket formed. C[j*] holds the coordinates of y's part in L,
    so ``C[j*] @ C`` holds those of ``[rho, P y]``'s part in L. y's part
    off L is at most ``eta = (||x||_1 + 1) d``: rho lies within d of ``P
    rho = sum_i x_i e_i`` (``contains``' rule), which moves y by at most d,
    and each ``[e_i, e_j*]`` lies within d of L (closedness). As ``||[rho,
    w]||_HS <= ||rho||_op ||w||_HS <= ||w||_HS``, ``||y||_HS <= ||C[j*]|| +
    eta`` and ``||z||_HS >= ||P z|| >= ||C[j*] @ C|| - eta``.

    y lies within ``eps = eta + sqrt(2 n^2 + r) d`` of span [L, L], the
    complement in L of the center Z (``subspace.derived_algebra``): over Z's
    orthonormal coordinate rows w_k of elements z_k, its part in L lies
    within ``||Z C[j*]||`` of it, and ``<C[j*], w_k> = Tr(rho [e_j*, z_k])``
    (ad-invariance) is at most ``||[e_j*, z_k]||_HS`` (``||rho||_HS <= 1``).
    The entries of ``[z_k, e_j*]`` are z_k's coordinates times the 2n^2 rows
    ``a_t`` that the second walk of ``subspace._central_rows`` forms for s =
    e_j*, ``sum_t ||a_t||^2 <= r``, each within ``d max(1, ||a_t||)`` of the
    kept rows (the drop rule), to which the z_k are orthogonal: ``sum_k
    ||[e_j*, z_k]||^2 <= (2 n^2 + r) d^2``. A walk that stops before e_j*
    has kept all but I's direction (Z is 0 or I/sqrt(n) to roundoff, and
    ``[e_j*, I] = 0``), as at L's ``lie`` bound. If every ``||[rho,
    d_k]||_op`` were at most ``CLASSICALITY_RTOL``, z would have operator
    norm at most ``sqrt(r) (||y|| + eps) CLASSICALITY_RTOL + eps``: y's part
    in [L, L] has at most r coordinates, of total square at most ``(||y|| +
    eps)^2``, and its other part, at most eps, moves z by at most eps. As
    ``||z||_HS / sqrt(n) <= ||z||_op``, a larger value proves quantum.

    C's roundoff: a computed entry of C is within about ``2 n^2 u`` of exact
    (u = 2^-53; inner products of length ``2 n^2`` of rows of HS norm at
    most 1, after ``rho e_j``, which adds about ``2 n u``). C's rows and C
    have norm at most 1, so the computed ``C[j*] @ C`` is within about ``(r
    + sqrt(r)) 2 n^2 u + r^(3/2) u <= 5 n^4 u`` of exact (r <= n^2), 1.8e-10
    at n = 24. That is below ``d / 2`` for n up to about 55, and half of eta
    is spare: for a state, ``0 <= rho <= I`` within ``STATE_ATOL``, so
    ``[rho, w] = [rho - I/2, w]`` has HS norm at most about ``||w||_HS /
    2``, and y's part off L moves ``P z`` by at most eta / 2.
    ``||C[j*]||``'s roundoff, at most ``2 sqrt(r) n^2 u``, enters the right
    side times ``sqrt(r) CLASSICALITY_RTOL``, far inside the ``1 +
    _NORM_SLACK`` widening of a right side of at least eps >= d. x1 is
    ``||x||_1``.
    """
    j, r = int(cn.argmax()), len(cn)
    v = C[j] @ C
    eta = (x1 + 1) * SPAN_RTOL
    eps = eta + math.sqrt(2 * n * n + r) * SPAN_RTOL
    bound = math.sqrt(r) * (float(cn[j]) + eta + eps) * CLASSICALITY_RTOL + eps
    return (math.sqrt(v @ v) - eta) / math.sqrt(n) > bound * (1 + _NORM_SLACK)


def _flags(s: State, L: RealSubspace, C: np.ndarray) -> list[bool]:
    """The associator flag, then the center flag when rho is in span(L).

    Each flag tries its quantum bound, which reads only C and x, then its
    classical bound, then reads its criterion's own verdict. The r
    brackets ``[rho, e_j]`` of the classical bounds are formed once, and
    not at all when both quantum bounds settle: a clear quantum state
    forms no bracket. rho's coordinates x (for ``||x||_1``) and whether
    rho lies in span(L) come from one ``L._coords`` product.
    """
    x, in_span = L._coords(s.rho)
    cn, x1 = _row_norms(C), float(np.abs(x).sum())
    quantum = [_associator_quantum(cn, x1)] + ([_center_quantum(C, cn, x1, s.dim)] if in_span else [])
    if all(quantum):
        return [False] * len(quantum)
    hs = _row_norms(_rows(_lie(s.rho, L._stacked)))
    flags = [not quantum[0] and (_associator_classical(cn, hs) or _associator_verdict(s, L).classical)]
    if in_span:
        flags.append(not quantum[1] and (_center_classical(hs) or _center_verdict(s, L).classical))
    return flags


def classify(s: State, L: RealSubspace) -> ClassicalityVerdict:
    """Run all applicable criteria and cross-check them.

    The center criterion participates only when rho lies in span(L). Any
    disagreement raises CriteriaDisagree; otherwise the commutator verdict
    (pair certificate) is returned. The commutator criterion's tensor C,
    which the first-step bounds read too, is built once. The associator
    and center criteria enter only through their ``classical`` flags
    (``_flags``): four certified bounds settle a clear state, the quantum
    ones from C and rho's coordinates alone, the classical ones with the
    brackets ``[rho, e_j]`` too, and a flag none settles is its
    criterion's own verdict, which forms the basis brackets or the derived
    algebra. To report a disagreement it computes the full verdicts it
    reports, so a split pays a flag's exact verdict twice.
    """
    _check_algebra(s, L)
    C = _bracket_expectations(s, L)
    verdict = _verdict("commutator", C, L.basis)
    flags = _flags(s, L, C)
    if all(f == verdict.classical for f in flags):
        return verdict
    verdicts = [_associator_verdict(s, L), verdict]
    if len(flags) == 2:  # rho is in span(L)
        verdicts.append(_center_verdict(s, L))
    detail = ", ".join(
        f"{v.criterion}={v.classical} (violation {v.max_violation:.3e})"
        for v in verdicts
    )
    raise CriteriaDisagree(f"classicality criteria disagree: {detail}")
