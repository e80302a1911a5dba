"""Density matrices and classicality criteria.

A state is classical for an observable subalgebra when it cannot see any
quantum structure: expectation zero on all Jordan associators, expectation
zero on all brackets, or membership in the centralizer of the derived
algebra. The three criteria agree on closed subalgebras; ``classify`` runs
all applicable ones and raises CriteriaDisagree if they ever split. It
reports the commutator verdict, so it settles the other two as yes-or-no
flags and forms their full maxima only to report a split. A flag first
tries certified bounds: the quantum ones (``_associator_quantum``,
``_center_quantum``) read only the tensor C and rho's coordinates x
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
from typing import Callable, Iterator

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
    _DEFECT_FLOOR,
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
    """C[i, j] = Tr(rho [e_i, e_j]) over basis pairs of L.

    The pair table ``t[i, j] = Tr(rho e_i e_j)`` is one matrix product:
    row i holds ``rho e_i`` flattened, column j ``e_j`` transposed (L's
    ``_transposed``, kept on the object). With
    ``[a, b] = (i/2)(ab - ba)``, C is ``0.5 (Im t^T - Im t)``, read from
    the table's imaginary part with no complex temporary: entry for entry
    ``Re(0.5j (t - t^T))``, up to the sign of an exact zero, which no
    verdict reads (they read |C| and its row norms).
    """
    e, r, n = L._stacked, L.dim_span, L.dim_ambient
    t = (s.rho @ e).reshape(r, n * n) @ L._transposed.T
    c = t.imag.T - t.imag
    c *= 0.5
    return c


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
    bracket's part off L, at most d. So ``||g - C[j*]|| <= sqrt(r) d``,
    which eta bounds (its ``||x||_1 _DEFECT_FLOOR / 2`` term only widens
    it), and some ``|t(i, j*, j*)|`` is at least the quotient. Its value
    lies within d of it, so above ``CLASSICALITY_RTOL + d`` the criterion's
    maximum is above the threshold. x1 is ``||x||_1``.
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

    y lies within ``eps = (||x||_1 (1 + sqrt(2 n^2 + r)) + 1) d`` of span
    [L, L]: besides rho's part off L, each ``[e_i, e_j*]`` lies within d of
    L, and its coordinates are ``-sum_t e_i[t] a_t`` over the 2n^2
    constraint rows ``a_t`` that the derived algebra's walk
    (``subspace._ad_rows``) forms for s = e_j*, with ``sum_t ||a_t||^2 <=
    r``. The drop rule leaves each ``a_t`` it reaches within ``d max(1,
    ||a_t||)`` of [L, L], so by Cauchy-Schwarz the coordinates lie within
    ``sqrt(2 n^2 + r) d`` of it. Rows the walk never reaches lie in it to
    roundoff: the walk stops only once its span has the largest dimension
    [L, L] can have, r - 1 with I in L (brackets are traceless), else r. At
    L's ``lie`` bound, with no walk, [L, L] is su(n) or L and holds every
    bracket's coordinates to roundoff. If every ``||[rho, d_k]||_op`` were
    at most ``CLASSICALITY_RTOL``, z would have operator norm at most
    ``sqrt(r) (||y|| + eps) CLASSICALITY_RTOL + eps``: y's part in [L, L]
    has at most r coordinates, of total square at most ``(||y|| +
    eps)^2``, and its other part, at most eps, moves z by at most eps. As
    ``||z||_HS / sqrt(n) <= ||z||_op``, a larger value proves quantum.

    C's roundoff: a computed entry of C is within about ``n^2 u`` of its
    exact value (u = 2^-53; an inner product of rows of HS norm at most 1),
    and C's rows and C itself have norm at most 1, so the computed ``C[j*]
    @ C`` is within about ``3 n^4 u`` of exact, 1.1e-10 at n = 24. That is
    below ``d / 2`` for n up to about 60, and half of eta is spare: for a
    state, ``0 <= rho <= I`` within ``STATE_ATOL``, so ``[rho, w] = [rho -
    I/2, w]`` has HS norm at most about ``||w||_HS / 2``, and y's part off L
    moves ``P z`` by at most eta / 2. ``||C[j*]||``'s roundoff, at most
    ``sqrt(r) n^2 u``, enters the right side times ``sqrt(r)
    CLASSICALITY_RTOL``, far inside the ``1 + _NORM_SLACK`` widening of a
    right side of at least eps >= d. x1 is ``||x||_1``.
    """
    j, r = int(cn.argmax()), len(cn)
    v = C[j] @ C
    eta = (x1 + 1) * SPAN_RTOL
    eps = (x1 * (1 + math.sqrt(2 * n * n + r)) + 1) * SPAN_RTOL
    bound = math.sqrt(r) * (float(cn[j]) + eta + eps) * CLASSICALITY_RTOL + eps
    return (math.sqrt(v @ v) - eta) / math.sqrt(n) > bound * (1 + _NORM_SLACK)


def _flags(s: State, L: RealSubspace, C: np.ndarray, verdicts: dict | None = None) -> list[bool]:
    """The associator flag, then the center flag when rho is in span(L).

    Each flag tries its quantum bound, which reads only C and x, then its
    classical bound, then takes its criterion's own verdict, kept in
    ``verdicts`` by criterion name. The r brackets ``[rho, e_j]`` of the
    classical bounds are formed once, and not at all when both quantum
    bounds settle: a clear quantum state forms no bracket. rho's
    coordinates x (for ``||x||_1``) and whether rho lies in span(L) come
    from one ``L._coords`` product.
    """
    verdicts = {} if verdicts is None else verdicts

    def own(verdict: Callable[[State, RealSubspace], ClassicalityVerdict]) -> bool:
        v = verdict(s, L)
        verdicts[v.criterion] = v
        return v.classical
    x, in_span = L._coords(s.rho)
    cn, x1 = _row_norms(C), float(np.abs(x).sum())
    quantum = [_associator_quantum(cn, x1)] + ([_center_quantum(C, cn, x1, s.dim)] if in_span else [])
    if all(quantum):
        return [False] * len(quantum)
    hs = _row_norms(_rows(_lie(s.rho, L._stacked)))
    flags = [not quantum[0] and (_associator_classical(cn, hs) or own(_associator_verdict))]
    if in_span:
        flags.append(not quantum[1] and (_center_classical(hs) or own(_center_verdict)))
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
    algebra. To report a disagreement it reuses those verdicts and
    computes only the full verdicts a bound settled.
    """
    _check_algebra(s, L)
    C = _bracket_expectations(s, L)
    verdict = _verdict("commutator", C, L.basis)
    kept: dict[str, ClassicalityVerdict] = {}
    flags = _flags(s, L, C, kept)
    if all(f == verdict.classical for f in flags):
        return verdict
    verdicts = [kept.get("associator") or _associator_verdict(s, L), verdict]
    if len(flags) == 2:  # rho is in span(L)
        verdicts.append(kept.get("center") or _center_verdict(s, L))
    detail = ", ".join(
        f"{v.criterion}={v.classical} (violation {v.max_violation:.3e})"
        for v in verdicts
    )
    raise CriteriaDisagree(f"classicality criteria disagree: {detail}")
