"""Quantumness witnesses: construction and randomized search.

A witness is an observable whose behavior is impossible in a commutative
algebra: a nonzero Jordan associator, its PSD square, or a Jordan product
of two PSD observables with a negative eigenvalue. Both searches share one
seeded multistart-and-refine schedule (``_search``) and differ only in draw,
move, perturbation and score. The trials are scored in stacks of at most
``linalg._STACK_BYTES`` a slot, and the refinement is speculative and
batched: it consumes its rng stream in the same order as a
one-step-at-a-time loop and returns the same candidate, bit for bit. Results are deterministic in (n, seed, budget).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    _gaussian_stack,
    _hermitian_part,
    _opnorm,
    _require_count,
    _require_seed,
    _stack_len,
    _trial_rngs,
    derive_seed,
    spectral_norm,
)
from .errors import ValidationError
from .products import _associator, _jordan, associator, jordan
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


def associator_witness(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> WitnessReport:
    """Witness q = (a o b) o c - a o (b o c); violation is its norm.

    Found when the norm exceeds ``DEFAULT_TOL`` at the scale ``||a|| ||b|| ||c||``.
    ValidationError for NaN or inf entries, and for entries so large that
    the associator overflows.
    """
    q = associator(a, b, c)
    violation = spectral_norm(q)
    scale = spectral_norm(a) * spectral_norm(b) * spectral_norm(c)
    return WitnessReport(
        kind="associator",
        witness=q,
        inputs=(a, b, c),
        violation=violation,
        found=violation > DEFAULT_TOL.threshold(scale),
    )


def squared_witness(q: np.ndarray) -> WitnessReport:
    """PSD witness q o q; vanishes exactly when q does.

    Found when its norm exceeds ``DEFAULT_TOL`` at the scale ``||q||^2``.
    ValidationError for NaN, inf or an entry above ``_ENTRY_LIMIT``.
    """
    w = jordan(q, q)
    violation = spectral_norm(w)
    scale = spectral_norm(q) ** 2
    return WitnessReport(
        kind="squared",
        witness=w,
        inputs=(q,),
        violation=violation,
        found=violation > DEFAULT_TOL.threshold(scale),
    )


def _require_tol(tol: Tolerance) -> None:
    if not isinstance(tol, Tolerance):
        raise ValidationError(f"tol must be a Tolerance, got {tol!r}")


def _unit(m: np.ndarray) -> np.ndarray:
    """Each matrix of a (..., n, n) stack over its operator norm.

    A zero-norm matrix comes back unchanged, with no division warning.
    """
    nrm = _opnorm(m)[..., None, None]
    return np.divide(m, nrm, out=np.array(m), where=nrm > 0.0)


def _unit_psd(g: np.ndarray) -> np.ndarray:
    """The PSD form g g^H of each factor in a (..., n, n) stack, at unit operator norm."""
    return _unit(g @ np.conj(g).swapaxes(-1, -2))


#: Refinement schedule: at most 6000 steps, the first at step 0.1, halved
#: after 20 rejects in a row, stopping below 1e-6; 8 proposals a stack.
_MAX_STEPS, _FIRST_STEP, _MIN_STEP, _HALVE_AFTER, _WIDTH = 6000, 0.1, 1e-6, 20, 8


def _search(
    n: int,
    seed: int,
    budget: int,
    draw: Callable[[list[np.random.Generator]], np.ndarray],
    move: Callable[[np.random.Generator], Any],
    perturb: Callable[[np.ndarray, np.ndarray, list[Any]], np.ndarray],
    score: Callable[[np.ndarray], np.ndarray],
) -> np.ndarray | None:
    """Seeded multistart, then greedy refinement; returns the candidate of least score.

    A candidate is an array with one factor per slot along its first axis.
    ``draw(rngs)`` returns a stack of trials, one per generator, for
    ``rngs`` from ``_trial_rngs`` (trial ``t`` draws from
    ``derive_seed(seed, t)``, ``_stack_len(n)`` trials a call at most), and
    the first strictly lowest score wins.
    Refinement draws from ``derive_seed(seed, budget)``: each of at most
    6000 steps draws a slot and a ``move(rng)``, and perturbs that factor of
    the current best; a strictly lower score is kept. Twenty rejects in a
    row halve the step, 0.1 at first, until it is below 1e-6.
    ``perturb(factors, steps, moves)`` returns the perturbed factors.
    ``score`` maps a stack of k candidates to k scores; NaN is never kept.
    None for ``n == 1``, where all observables commute, once the arguments
    pass their checks.

    The refinement is speculative and batched, and its result is the
    sequential loop's, bit for bit. Slot and move draws never depend on the
    current best, and after a reject only the step size changes, by the
    fixed halving rule. So the next proposals are drawn from the rng in the
    sequential order, 8 at a time, built with the step sizes they would
    have if every one were rejected, and scored as one stack. Steps are
    committed up to the first accept; the moves drawn after it wait in a
    queue and are rebuilt on the new best.
    """
    n = _require_count("dimension", n, 1)
    budget = _require_count("budget", budget, 1)
    seed = _require_seed(seed)
    if n == 1:
        return None
    best, best_val = None, np.inf
    for rngs in _trial_rngs(seed, 0, budget, _stack_len(n)):
        trials = draw(rngs)
        vals = score(trials)
        vals = np.where(np.isnan(vals), np.inf, vals)
        first = int(np.argmin(vals))
        if best is None or vals[first] < best_val:
            best, best_val = trials[first], vals[first]
    rng = np.random.default_rng(derive_seed(seed, budget))
    step, rejects, done = _FIRST_STEP, 0, 0
    queue: list[tuple[int, Any]] = []
    while done < _MAX_STEPS and step >= _MIN_STEP:
        # the step sizes of the next proposals if each one is rejected;
        # halving is exact, so these are the sequential loop's bits
        steps = [step * 0.5 ** ((rejects + i) // _HALVE_AFTER) for i in range(_WIDTH)]
        steps = np.array([s for s in steps[: _MAX_STEPS - done] if s >= _MIN_STEP])
        while len(queue) < len(steps):
            queue.append((int(rng.integers(len(best))), move(rng)))
        batch, queue = queue[: len(steps)], queue[len(steps) :]
        slots = np.array([slot for slot, _ in batch])
        cands = np.repeat(best[None], len(batch), axis=0)
        cands[np.arange(len(batch)), slots] = perturb(best[slots], steps, [m for _, m in batch])
        vals = score(cands)
        for k in range(len(batch)):
            done += 1
            if vals[k] < best_val:
                best, best_val, rejects = cands[k], vals[k], 0
                break
            rejects += 1
            if rejects >= _HALVE_AFTER:
                step, rejects = step * 0.5, 0
        queue = batch[k + 1 :] + queue
    return best


def avr_witness_search(
    n: int, seed: int, budget: int, tol: Tolerance = DEFAULT_TOL
) -> WitnessReport:
    """Search for PSD observables a, b whose Jordan product is not PSD.

    Candidates are unit-norm Wishart factors; the best trial (most negative
    eigenvalue of a o b) is refined by greedy perturbation of single factor
    entries with a shrinking step. Found when the most negative eigenvalue
    is below ``-tol.zero_tol``, flat: the inputs have unit norm. Dimension 1
    is commutative, so the report comes back with found False.
    ValidationError when tol is not a ``Tolerance``.
    """
    _require_tol(tol)

    # a slot holds a factor g and its unit PSD form, so each form is computed once
    def draw(rngs: list[np.random.Generator]) -> np.ndarray:
        g = _gaussian_stack(rngs, n, 2)
        return np.stack([g, _unit_psd(g)], axis=2)

    def move(rng: np.random.Generator) -> tuple[int, int, float, bool]:
        # entry (i, j), bump, and whether the bump is imaginary, in draw order
        i, j = int(rng.integers(n)), int(rng.integers(n))
        return i, j, rng.standard_normal(), rng.integers(2) == 1

    def perturb(factors, steps, moves):
        i, j, z, imag = (np.array(v) for v in zip(*moves))
        bump = steps * z
        g = factors[:, 0].copy()
        g[np.arange(len(g)), i, j] += np.where(imag, 1j * bump, bump)
        return np.stack([g, _unit_psd(g)], axis=1)

    def score(cands: np.ndarray) -> np.ndarray:
        return np.linalg.eigvalsh(_jordan(cands[:, 0, 1], cands[:, 1, 1]))[:, 0]

    best = _search(n, seed, budget, draw, move, perturb, score)
    if best is None:
        return WitnessReport(kind="avr", witness=None, inputs=(), violation=0.0, found=False)
    a, b = best[:, 1]
    witness = _jordan(a, b)
    violation = float(np.linalg.eigvalsh(witness)[0])
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
    Found when the associator's norm exceeds ``tol.zero_tol``, flat: the
    inputs have unit norm. ValidationError when tol is not a ``Tolerance``.
    """
    _require_tol(tol)
    n = _require_count("dimension", n, 1)  # _search's check, before the basis is built
    dirs = np.array(full_hermitian_basis(n))

    def draw(rngs: list[np.random.Generator]) -> np.ndarray:
        return _unit(_hermitian_part(_gaussian_stack(rngs, n, 3)))

    def move(rng: np.random.Generator) -> tuple[int, float]:
        return int(rng.integers(len(dirs))), rng.standard_normal()

    def perturb(factors, steps, moves):
        d, z = (np.array(v) for v in zip(*moves))
        return _unit(factors + (steps * z)[:, None, None] * dirs[d])

    def score(cands: np.ndarray) -> np.ndarray:
        a, b, c = cands.swapaxes(0, 1)
        # _search minimizes; IEEE negation is exact, so the ranking is the norm's
        return -_opnorm(_associator(a, b, c))

    best = _search(n, seed, budget, draw, move, perturb, score)
    if best is None:
        return WitnessReport(kind="associator", witness=None, inputs=(), violation=0.0, found=False)
    a, b, c = best
    witness = _associator(a, b, c)
    violation = spectral_norm(witness)
    return WitnessReport(
        kind="associator",
        witness=witness,
        inputs=(a, b, c),
        violation=violation,
        found=violation > tol.zero_tol,
    )
