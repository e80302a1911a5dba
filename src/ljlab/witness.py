"""Quantumness witnesses: construction, and the two optimal witnesses at their sharp bounds.

A witness is an observable whose behavior is impossible in a commutative
algebra: a nonzero Jordan associator, its PSD square, or a Jordan product
of two PSD observables with a negative eigenvalue. Both ``*_search``
functions build the witness that attains its kind's bound, in an
orthonormal pair x, y drawn from the seed (``_frame``): the least
eigenvalue of a o b is -1/8 for 0 <= a, b <= I, and the associator of
unit-norm inputs has norm 1. Nothing is searched, so ``budget`` is checked
but has no effect. Results are deterministic in (n, seed).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    _require_count,
    _require_seed,
    _require_type,
    dagger,
    derive_seed,
    gaussian_complex,
    spectral_norm,
)
from .products import _associator, _jordan, associator, jordan

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


def _frame(n: int, seed: int, budget: int, tol: Tolerance) -> tuple[np.ndarray, np.ndarray] | None:
    """The searches' argument checks, then orthonormal vectors x, y drawn from the seed.

    The checks run in order: tol is a ``Tolerance``, then n and budget are
    integers >= 1, then seed passes ``_require_seed``; budget is not used
    further. x and y are one Gram-Schmidt step on the first two rows of
    ``gaussian_complex(default_rng(derive_seed(seed, 0)), n)``. None for
    ``n == 1``, where all observables commute.
    """
    _require_type("tol", tol, Tolerance)
    n = _require_count("dimension", n, 1)
    _require_count("budget", budget, 1)
    seed = _require_seed(seed)
    if n == 1:
        return None
    g = gaussian_complex(np.random.default_rng(derive_seed(seed, 0)), n)
    x = g[0] / np.linalg.norm(g[0])
    y = g[1] - np.vdot(x, g[1]) * x
    return x, y / np.linalg.norm(y)


def avr_witness_search(
    n: int, seed: int, budget: int, tol: Tolerance = DEFAULT_TOL
) -> WitnessReport:
    """PSD observables a, b of unit norm whose Jordan product has least eigenvalue -1/8.

    For 0 <= a, b <= I, ab + ba = (a + b - I/2)^2 + (a - a^2) + (b - b^2) - I/4
    >= -I/4, so -1/8 is the bound. The inputs attain it: a = xx^H and
    b = ww^H with w = x/2 + (sqrt(3)/2) y, projectors at overlap 1/2 in the
    seed's frame x, y (``_frame``). ``budget`` is checked as an integer >= 1
    and has no effect. Found when the least eigenvalue is below
    ``-tol.zero_tol``, flat: the inputs have unit norm. Dimension 1 is
    commutative, so the report comes back with found False.
    ValidationError when tol is not a ``Tolerance``.
    """
    frame = _frame(n, seed, budget, tol)
    if frame is None:
        return WitnessReport(kind="avr", witness=None, inputs=(), violation=0.0, found=False)
    x, y = frame
    w = 0.5 * x + (np.sqrt(3.0) / 2.0) * y
    a, b = np.outer(x, np.conj(x)), np.outer(w, np.conj(w))
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
    """A unit-norm Hermitian triple whose Jordan associator has norm 1.

    assoc(a, b, c) = [b, [a, c]] / 4 for the commutator [u, v] = uv - vu,
    so 1 bounds its norm on unit-norm inputs. The inputs (X, X, Y) attain
    it, with X = xy^H + yx^H and Y = -i xy^H + i yx^H: the Pauli triple
    (sigma_x, sigma_x, sigma_y) in the seed's frame x, y (``_frame``).
    ``budget`` is checked as an integer >= 1 and has no effect. Found when
    the associator's norm exceeds ``tol.zero_tol``, flat: the inputs have
    unit norm. ValidationError when tol is not a ``Tolerance``.
    """
    frame = _frame(n, seed, budget, tol)
    if frame is None:
        return WitnessReport(kind="associator", witness=None, inputs=(), violation=0.0, found=False)
    x, y = frame
    p = np.outer(x, np.conj(y))
    sx, sy = p + dagger(p), -1j * (p - dagger(p))
    witness = _associator(sx, sx, sy)
    violation = spectral_norm(witness)
    return WitnessReport(
        kind="associator",
        witness=witness,
        inputs=(sx, sx, sy),
        violation=violation,
        found=violation > tol.zero_tol,
    )
