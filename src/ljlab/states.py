"""Density matrices and classicality criteria.

A state is classical for an observable subalgebra when it cannot see any
quantum structure: expectation zero on all Jordan associators, expectation
zero on all brackets, or membership in the centralizer of the derived
algebra. The three criteria agree on closed subalgebras; ``classify`` runs
all applicable ones and raises CriteriaDisagree if they ever split.
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
from .linalg import as_matrix, random_density
from .products import jordan, lie
from .subspace import RealSubspace, derived_algebra, require_closed

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
    return float(np.real(np.einsum("ab,ba->", s.rho, m)))


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


def is_classical_associator(
    s: State, L: RealSubspace, rtol: float = CLASSICALITY_RTOL
) -> ClassicalityVerdict:
    """Expectation of every basis Jordan associator vanishes.

    Evaluates Tr(rho * ((e_i o e_j) o e_k - e_i o (e_j o e_k))) over all
    basis triples via tensor contractions; the certificate is the argmax
    triple.
    """
    _check_dims(s, L)
    require_closed(L, jordan)
    require_closed(L, lie)
    stacked = L._stacked
    if L.dim_span == 0:
        return _verdict("associator", np.zeros(0), L.basis, rtol)
    rho = s.rho
    # srho[k] = rho o e_k; Tr(rho (x o y)) = Tr((rho o x) y) by cyclicity
    srho = 0.5 * (
        np.einsum("ab,kbc->kac", rho, stacked) + np.einsum("kab,bc->kac", stacked, rho)
    )
    t1 = np.einsum("iab,jbc->ijac", stacked, stacked)
    jprod = 0.5 * (t1 + t1.transpose(1, 0, 2, 3))
    term1 = np.einsum("ijab,kba->ijk", jprod, srho)
    term2 = np.einsum("iab,jkba->ijk", srho, jprod)
    vals = np.real(term1 - term2)
    return _verdict("associator", vals, L.basis, rtol)


def is_classical_commutator(
    s: State, L: RealSubspace, rtol: float = CLASSICALITY_RTOL
) -> ClassicalityVerdict:
    """Expectation of every basis bracket vanishes."""
    _check_dims(s, L)
    require_closed(L, jordan)
    require_closed(L, lie)
    if L.dim_span == 0:
        return _verdict("commutator", np.zeros(0), L.basis, rtol)
    stacked = L._stacked
    t = np.einsum("ab,ibc,jca->ij", s.rho, stacked, stacked)
    vals = np.real(0.5j * (t - t.T))
    return _verdict("commutator", vals, L.basis, rtol)


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
    vals = np.linalg.norm(0.5j * (s.rho @ dk - dk @ s.rho), 2, axis=(1, 2))
    return _verdict("center", vals, d.basis, rtol)


def classify(
    s: State, L: RealSubspace, rtol: float = CLASSICALITY_RTOL
) -> ClassicalityVerdict:
    """Run all applicable criteria and cross-check them.

    The center criterion participates only when rho lies in span(L). Any
    disagreement raises CriteriaDisagree; otherwise the commutator verdict
    (pair certificate) is returned.
    """
    verdicts = [
        is_classical_associator(s, L, rtol),
        is_classical_commutator(s, L, rtol),
    ]
    if L.contains(s.rho):
        verdicts.append(is_classical_center(s, L, rtol))
    flags = {v.classical for v in verdicts}
    if len(flags) > 1:
        detail = ", ".join(
            f"{v.criterion}={v.classical} (violation {v.max_violation:.3e})"
            for v in verdicts
        )
        raise CriteriaDisagree(f"classicality criteria disagree: {detail}")
    return verdicts[1]
