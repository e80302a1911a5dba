"""Quantumness witnesses: construction and randomized search.

A witness is an observable whose behavior is impossible in a commutative
algebra: a nonzero Jordan associator, its PSD square, or a Jordan product
of two PSD observables with a negative eigenvalue. Both searches share one
seeded multistart-and-refine schedule (``_search``) and differ only in draw,
perturbation and score; results are deterministic in (n, seed, budget).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .errors import ValidationError
from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    _opnorm,
    dagger,
    derive_seed,
    gaussian_complex,
    random_hermitian,
    spectral_norm,
)
from .products import _associate, associator, jordan
from .subspace import full_hermitian_basis

__all__ = [
    "WitnessReport",
    "associator_witness",
    "squared_witness",
    "avr_witness_search",
    "associator_witness_search",
]


@dataclass(frozen=True, eq=False)
class WitnessReport:
    """A witness candidate with its measured violation.

    ``violation`` is the operator norm of the witness for associator kinds
    and the most negative eigenvalue of the product for the avr kind.
    ``found`` is False when no violation exists (dimension 1) or the
    candidate is numerically zero.
    """

    kind: str
    witness: np.ndarray | None
    inputs: tuple[np.ndarray, ...]
    violation: float
    found: bool


def _min_eig(m: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(m)[0])


def associator_witness(
    a: np.ndarray, b: np.ndarray, c: np.ndarray, tol: Tolerance = DEFAULT_TOL
) -> WitnessReport:
    """Witness q = (a o b) o c - a o (b o c); violation is its norm."""
    q = associator(a, b, c)
    violation = spectral_norm(q)
    scale = spectral_norm(a) * spectral_norm(b) * spectral_norm(c)
    return WitnessReport(
        kind="associator",
        witness=q,
        inputs=(a, b, c),
        violation=violation,
        found=violation > tol.threshold(scale),
    )


def squared_witness(q: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> WitnessReport:
    """PSD witness q o q; vanishes exactly when q does."""
    w = jordan(q, q)
    violation = spectral_norm(w)
    scale = spectral_norm(q) ** 2
    return WitnessReport(
        kind="squared",
        witness=w,
        inputs=(q,),
        violation=violation,
        found=violation > tol.threshold(scale),
    )


def _unit_psd(g: np.ndarray) -> np.ndarray:
    w = g @ dagger(g)
    nrm = spectral_norm(w)
    return w / nrm if nrm > 0.0 else w


def _search(
    n: int,
    seed: int,
    budget: int,
    draw: Callable[[np.random.Generator], tuple[np.ndarray, ...]],
    perturb: Callable[[np.ndarray, float, np.random.Generator], np.ndarray | None],
    score: Callable[[tuple[np.ndarray, ...], int | None, Any], tuple[float, Any]],
) -> tuple[np.ndarray, ...] | None:
    """Seeded multistart, then greedy refinement; returns the candidate of least score.

    Trial ``t`` draws a candidate tuple from ``derive_seed(seed, t)``; the
    first strictly best trial wins. Refinement draws from
    ``derive_seed(seed, budget)``: each of at most 6000 steps picks a slot and
    perturbs that factor (``None`` skips the step); a strictly lower score is
    kept. Twenty rejects in a row halve the step, 0.1 at first, until it is
    below 1e-6. None for ``n == 1``, where all observables commute.

    ``score(cand, slot, memo)`` returns the score and a memo of its work on
    ``cand``. A drawn trial is scored with ``slot`` and ``memo`` None; a
    refinement step passes the slot it changed and the memo of the current
    best, so work on the factors it did not change is reused, not redone.
    """
    if n < 1:
        raise ValidationError(f"dimension must be >= 1, got {n}")
    if budget < 1:
        raise ValidationError(f"budget must be >= 1, got {budget}")
    if n == 1:
        return None
    best_val = np.inf
    best: tuple[np.ndarray, ...] = ()
    memo: Any = None
    for t in range(budget):
        cand = draw(np.random.default_rng(derive_seed(seed, t)))
        val, cand_memo = score(cand, None, None)
        if val < best_val:
            best_val, best, memo = val, cand, cand_memo
    rng = np.random.default_rng(derive_seed(seed, budget))
    step, rejects = 0.1, 0
    for _ in range(6000):
        if step < 1e-6:
            break
        slot = int(rng.integers(len(best)))
        factor = perturb(best[slot], step, rng)
        if factor is None:
            continue
        cand = best[:slot] + (factor,) + best[slot + 1 :]
        val, cand_memo = score(cand, slot, memo)
        if val < best_val:
            best_val, best, memo, rejects = val, cand, cand_memo, 0
        else:
            rejects += 1
            if rejects >= 20:
                step *= 0.5
                rejects = 0
    return best


def avr_witness_search(
    n: int, seed: int, budget: int, tol: Tolerance = DEFAULT_TOL
) -> WitnessReport:
    """Search for PSD observables a, b whose Jordan product is not PSD.

    Candidates are unit-norm Wishart factors; the best trial (most negative
    eigenvalue of a o b) is refined by greedy perturbation of single factor
    entries with a shrinking step. Dimension 1 is commutative, so the report
    comes back with found False.
    """

    def draw(rng: np.random.Generator) -> tuple[np.ndarray, ...]:
        return gaussian_complex(rng, n), gaussian_complex(rng, n)

    def perturb(factor: np.ndarray, step: float, rng: np.random.Generator) -> np.ndarray:
        i, j = int(rng.integers(n)), int(rng.integers(n))
        bump = step * rng.standard_normal()
        cand = factor.copy()
        cand[i, j] += 1j * bump if rng.integers(2) == 1 else bump
        return cand

    def score(cand, slot, memo):
        # memo: the unit PSD forms of the factors
        units = tuple(
            memo[i] if slot is not None and i != slot else _unit_psd(g)
            for i, g in enumerate(cand)
        )
        return _min_eig(jordan(*units)), units

    best = _search(n, seed, budget, draw, perturb, score)
    if best is None:
        return WitnessReport(kind="avr", witness=None, inputs=(), violation=0.0, found=False)
    a, b = (_unit_psd(g) for g in best)
    witness = jordan(a, b)
    violation = _min_eig(witness)
    return WitnessReport(
        kind="avr",
        witness=witness,
        inputs=(a, b),
        violation=violation,
        found=violation < -tol.zero_tol,
    )


def associator_witness_search(
    n: int, seed: int, budget: int, tol: Tolerance = DEFAULT_TOL
) -> WitnessReport:
    """Search for a triple with a large Jordan associator.

    Trials draw unit-norm Hermitian triples; refinement perturbs along the
    canonical Hermitian basis directions, renormalizing after each step.
    """
    # only for n > 1: _search must raise ValidationError for n < 1 first
    dirs = full_hermitian_basis(n) if n > 1 else []

    def draw(rng: np.random.Generator) -> tuple[np.ndarray, ...]:
        ms = [random_hermitian(n, rng) for _ in range(3)]
        return tuple(m / spectral_norm(m) for m in ms)

    def perturb(factor: np.ndarray, step: float, rng: np.random.Generator) -> np.ndarray | None:
        direction = dirs[int(rng.integers(len(dirs)))]
        cand = factor + (step * rng.standard_normal()) * direction
        nrm = spectral_norm(cand)
        return None if nrm == 0.0 else cand / nrm

    def score(cand, slot, memo):
        # memo: (a o b, b o c); changing a keeps b o c, changing c keeps a o b
        a, b, c = cand
        ab = memo[0] if slot == 2 else jordan(a, b)
        bc = memo[1] if slot == 0 else jordan(b, c)
        # _search minimizes; IEEE negation is exact, so the ranking is the norm's
        return -float(_opnorm(_associate(a, ab, bc, c))), (ab, bc)

    best = _search(n, seed, budget, draw, perturb, score)
    if best is None:
        return WitnessReport(kind="associator", witness=None, inputs=(), violation=0.0, found=False)
    a, b, c = best
    witness = associator(a, b, c)
    violation = spectral_norm(witness)
    return WitnessReport(
        kind="associator",
        witness=witness,
        inputs=(a, b, c),
        violation=violation,
        found=violation > tol.zero_tol,
    )
