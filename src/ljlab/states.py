"""Density matrices and classicality criteria.

A state is classical for an observable subalgebra when it cannot see any
quantum structure: expectation zero on all Jordan associators, expectation
zero on all brackets, or membership in the centralizer of the derived
algebra. The three criteria agree on closed subalgebras; ``classify`` runs
all applicable ones and raises CriteriaDisagree if they ever split.

The associator criterion needs no Jordan products. By the Jordan-Lie
identity ``(a o b) o c - a o (b o c) = [b, [c, a]]``, on a Lie-closed L

    Tr(rho assoc(e_i, e_j, e_k)) = sum_m F[k, i, m] C[j, m],

where ``F[k, i]`` are the coordinates of ``[e_k, e_i]`` (the Lie structure
constants, built once per algebra and memoized on it) and ``C[j, m] =
Tr(rho [e_j, e_m])`` is the tensor of the commutator criterion. So a state
with C = 0 is associator-classical exactly, and per state the criterion is
one real matrix product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    CriteriaDisagree,
    DimensionMismatch,
    NotInSpan,
    ValidationError,
)
from .linalg import _opnorm, as_matrix, random_density
from .products import associator, jordan, lie
from .subspace import (
    RealSubspace,
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

#: Violation threshold for classicality criteria, applied at the scale of
#: witnesses built from orthonormal basis elements (operator norm <= 1, so
#: the max(1, .) floor makes this effectively flat).
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


def _verdict(
    criterion: str,
    vals: np.ndarray,
    basis: tuple[np.ndarray, ...],
    rtol: float,
) -> ClassicalityVerdict:
    if vals.size == 0:
        return ClassicalityVerdict(
            classical=True, criterion=criterion, max_violation=0.0, certificate=None
        )
    flat = np.abs(vals).ravel()
    arg = int(np.argmax(flat))
    max_violation = float(flat[arg])
    idx = np.unravel_index(arg, vals.shape)
    if max_violation <= rtol:
        return ClassicalityVerdict(
            classical=True,
            criterion=criterion,
            max_violation=max_violation,
            certificate=None,
        )
    cert = Certificate(
        observables=tuple(basis[i] for i in idx),
        value=float(vals[idx]),
    )
    return ClassicalityVerdict(
        classical=False,
        criterion=criterion,
        max_violation=max_violation,
        certificate=cert,
    )


def _bracket_expectations(s: State, L: RealSubspace) -> np.ndarray:
    """C[i, j] = Tr(rho [e_i, e_j]) over basis pairs of L.

    The pair table ``t[i, j] = Tr(rho e_i e_j)`` is one matrix product:
    row i holds ``rho e_i`` flattened, column j ``e_j`` transposed.
    """
    e, r, n = L._stacked, L.dim_span, L.dim_ambient
    t = (s.rho @ e).reshape(r, n * n) @ e.transpose(0, 2, 1).reshape(r, n * n).T
    return np.real(0.5j * (t - t.T))


def _associator_expectations(
    s: State, L: RealSubspace, rtol: float, C: np.ndarray
) -> np.ndarray:
    """vals[i, j, k] = Tr(rho assoc(e_i, e_j, e_k)) on a nonempty L, given C.

    See ``is_classical_associator`` for the formula and the direct recheck.
    """
    F, delta = _stored_structure_constants(L)
    r = L.dim_span
    vals = (F.reshape(r * r, r) @ C.T).reshape(r, r, r)
    vals = np.ascontiguousarray(vals.transpose(1, 2, 0))
    if abs(float(np.abs(vals).max()) - rtol) <= delta:
        E = L.basis
        for i, j, k in np.argwhere(np.abs(vals) > rtol - delta):
            vals[i, j, k] = expect(s, associator(E[i], E[j], E[k]))
    return vals


def _bracket_tensor(s: State, L: RealSubspace) -> np.ndarray:
    """The checks both bracket criteria make, then their shared tensor C."""
    _check_dims(s, L)
    require_closed(L, jordan)
    require_closed(L, lie)
    return _bracket_expectations(s, L)


def _associator_verdict(
    s: State, L: RealSubspace, rtol: float, C: np.ndarray
) -> ClassicalityVerdict:
    # the zero algebra has no triples: C is then empty, and so are the values
    vals = _associator_expectations(s, L, rtol, C) if L.dim_span else C
    return _verdict("associator", vals, L.basis, rtol)


def is_classical_associator(
    s: State, L: RealSubspace, rtol: float = CLASSICALITY_RTOL
) -> ClassicalityVerdict:
    """Expectation of every basis Jordan associator vanishes.

    Evaluates Tr(rho * ((e_i o e_j) o e_k - e_i o (e_j o e_k))) over all
    basis triples as ``sum_m F[k, i, m] C[j, m]`` (module docstring); the
    certificate is the argmax triple. The structure constants F and delta,
    the largest Hilbert-Schmidt residual of a basis bracket off L, are
    memoized on L. Since ``|Tr(rho [e_j, R])| <= ||R||_HS``, each value is
    within delta of the exact one; when the largest value lies within delta
    of ``rtol``, every triple whose value exceeds ``rtol - delta`` is
    recomputed directly from ``associator``, so no verdict rests on that
    error.
    """
    return _associator_verdict(s, L, rtol, _bracket_tensor(s, L))


def is_classical_commutator(
    s: State, L: RealSubspace, rtol: float = CLASSICALITY_RTOL
) -> ClassicalityVerdict:
    """Expectation of every basis bracket vanishes."""
    return _verdict("commutator", _bracket_tensor(s, L), L.basis, rtol)


def is_classical_center(
    s: State,
    L: RealSubspace,
    rtol: float = CLASSICALITY_RTOL,
    *,
    derived: RealSubspace | None = None,
) -> ClassicalityVerdict:
    """The state, seen as an algebra element, centralizes [L, L].

    Requires rho inside span(L) (NotInSpan otherwise). ``derived`` overrides
    the derived algebra; it is not needed to amortize sweeps over many
    states, since ``derived_algebra(L)`` is memoized on L.
    """
    _check_dims(s, L)
    if not L.contains(s.rho):
        raise NotInSpan("state is not an element of the subalgebra's span")
    d = derived if derived is not None else derived_algebra(L)
    if d.dim_span == 0:
        return _verdict("center", np.zeros(0), d.basis, rtol)
    # spectral norms of the brackets [rho, d_k], batched over the basis of d
    dk = d._stacked
    vals = _opnorm(0.5j * (s.rho @ dk - dk @ s.rho))
    return _verdict("center", vals, d.basis, rtol)


def classify(
    s: State, L: RealSubspace, rtol: float = CLASSICALITY_RTOL
) -> ClassicalityVerdict:
    """Run all applicable criteria and cross-check them.

    The center criterion participates only when rho lies in span(L). Any
    disagreement raises CriteriaDisagree; otherwise the commutator verdict
    (pair certificate) is returned. The bracket tensor C that the
    associator and commutator criteria share is built once.
    """
    C = _bracket_tensor(s, L)
    verdicts = [_associator_verdict(s, L, rtol, C), _verdict("commutator", C, L.basis, rtol)]
    try:
        verdicts.append(is_classical_center(s, L, rtol))
    except NotInSpan:
        pass
    flags = {v.classical for v in verdicts}
    if len(flags) > 1:
        detail = ", ".join(
            f"{v.criterion}={v.classical} (violation {v.max_violation:.3e})"
            for v in verdicts
        )
        raise CriteriaDisagree(f"classicality criteria disagree: {detail}")
    return verdicts[1]
