"""Dense complex linear algebra kernels.

Hermitian spectral queries, Hilbert-Schmidt geometry, and seeded random
ensembles. Everything works on plain square numpy arrays with complex dtype.
All functions are pure. Every seeded entry point takes a non-negative
integer seed by one rule (``_require_seed``, else ValidationError), and the
trials start to stop - 1 of a call draw in trial order from one generator,
``default_rng(derive_seed(seed, start))`` (``_trial_normals``): results are
reproducible, independent of how the trials are stacked, and distinct for
distinct seeds.

``DEFAULT_TOL`` is the package's zero threshold. Every threshold the
package uses, with its value, whether it scales with a norm and the
decision it makes, is listed in the README's tolerance table.
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotHermitian, ValidationError

__all__ = [
    "Tolerance",
    "DEFAULT_TOL",
    "as_matrix",
    "same_dim",
    "dagger",
    "is_hermitian",
    "require_hermitian",
    "eig_hermitian",
    "min_eigenvalue",
    "operator_norm",
    "spectral_norm",
    "is_psd",
    "hs_inner",
    "hs_norm",
    "traceless",
    "derive_seed",
    "gaussian_complex",
    "random_hermitian",
    "random_density",
]


@dataclass(frozen=True)
class Tolerance:
    """Zero threshold for residual comparisons; ValidationError unless zero_tol is a positive finite number.

    A residual measured against operands of combined norm ``s`` passes when
    it is at most ``zero_tol * max(1, s)``; the floor keeps tiny operands
    from demanding impossible absolute accuracy. A bool is not a number here.
    """

    zero_tol: float = 1e-9

    def __post_init__(self) -> None:
        z = self.zero_tol
        if isinstance(z, bool) or not isinstance(z, (int, float, np.integer, np.floating)) or not 0 < z < np.inf:
            raise ValidationError(f"zero_tol must be a positive and finite number, got {z!r}")

    def threshold(self, scale: float | np.ndarray = 1.0) -> float | np.ndarray:
        """Effective threshold for a comparison at the given norm scale.

        An array of scales gives an array of thresholds, a float scale a
        float. A NaN scale gets the floor, as with the builtin ``max``.
        """
        t = self.zero_tol * np.fmax(1.0, scale)
        return float(t) if t.ndim == 0 else t


#: Default tolerance. Dense Hermitian eigensolvers land near 1e-13 relative
#: error for the dimensions used here, so 1e-9 leaves headroom for residuals
#: accumulated through products and closure loops.
DEFAULT_TOL = Tolerance()


def as_matrix(m: np.ndarray) -> np.ndarray:
    """Coerce input to a square complex matrix."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    return a


def same_dim(*mats: np.ndarray) -> int:
    """Common dimension of square matrices; raises DimensionMismatch otherwise."""
    if not mats:
        raise DimensionMismatch("no matrices given")
    first = as_matrix(mats[0])
    n = first.shape[0]
    for m in mats[1:]:
        a = as_matrix(m)
        if a.shape[0] != n:
            raise DimensionMismatch(f"dimensions differ: {n} vs {a.shape[0]}")
    return n


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.conj(m).T


def _opnorm(x: np.ndarray) -> np.ndarray:
    """Largest singular value of a matrix, or of each matrix in an (..., n, n) stack.

    The same LAPACK call as ``np.linalg.norm(x, 2)``, without its axis
    handling; the singular values come back sorted, so the first is the
    largest. Matrices of size 0 have norm 0.
    """
    if x.shape[-1] == 0:
        return np.zeros(x.shape[:-2])
    return np.linalg.svd(x, compute_uv=False)[..., 0]


def _hermitian_opnorm(x: np.ndarray) -> np.ndarray:
    """Operator norm of each finite, exactly Hermitian matrix of a stack (``eigvalsh`` reads one triangle)."""
    return np.abs(np.linalg.eigvalsh(x)).max(axis=-1, initial=0.0)


#: Rounding slack of norm bounds, each widened by ``1 + _NORM_SLACK``: the
#: relative error allowed for a computed norm or inner product against its
#: exact value on the computed inputs, far above the few hundred ulps of SVDs,
#: eigensolvers, sums of squares and dot products at the package's sizes.
_NORM_SLACK = 1e-6

#: Below this floor a sum of squares may have lost its smaller terms to
#: underflow, so an HS norm no longer bounds the operator norm from above.
_SQUARES_FLOOR = float(np.sqrt(np.finfo(float).tiny / np.finfo(float).eps))


def _rows(mats: np.ndarray) -> np.ndarray:
    """Real rows (..., 2n^2) of a (..., n, n) stack; a view when it is contiguous complex.

    The dot product of two rows is Re Tr(a^H b), the Hilbert-Schmidt inner
    product, which for a Hermitian a is Re Tr(a b).
    """
    a = np.ascontiguousarray(mats, dtype=complex)
    return a.reshape(*a.shape[:-2], a.shape[-2] * a.shape[-1]).view(float)


def _row_norms(a: np.ndarray) -> np.ndarray:
    return np.sqrt(np.einsum("ij,ij->i", a, a))


def _screened_opnorm(x: np.ndarray, floor, norm=None) -> np.ndarray:
    """``norm`` (``_opnorm`` if None) of each matrix in an (..., n, n) stack that can reach its floor, 0.0 for the rest.

    ``floor`` is one number or an array of the stack's lead shape, one floor a
    matrix. ``||X||_2 <= ||X||_HS``, so a matrix whose HS norm times ``1 +
    _NORM_SLACK`` is below its floor has an operator norm below it, and gets
    no norm call. The others take one ``norm`` call, whose values are the
    whole stack's bit for bit. A floor below ``_SQUARES_FLOOR`` takes its
    matrix's norm, and each (m, n, n) stack with a non-finite HS norm its
    whole-stack ``_opnorm``, so a NaN or an inf still reaches the SVD.
    """
    norm = norm or _opnorm
    if x.size == 0:
        return norm(x)
    flat = x.reshape(-1, *x.shape[-2:])
    hs = _row_norms(_rows(flat))
    if not np.isfinite(hs).all():
        if x.ndim > 3:
            return np.stack([_screened_opnorm(s, f, norm) for s, f in zip(x, np.broadcast_to(floor, x.shape[:-2]))])
        return _opnorm(x)
    if isinstance(floor, np.ndarray):
        floor = np.where(floor >= _SQUARES_FLOOR, floor, -np.inf).ravel()
    elif not floor >= _SQUARES_FLOOR:
        return norm(x)
    out = np.zeros(len(flat))
    keep = np.flatnonzero(hs * (1 + _NORM_SLACK) >= floor)
    if len(keep):
        out[keep] = norm(flat[keep])
    return out.reshape(x.shape[:-2])


#: Largest entry modulus that ``span``, the closure generators and the
#: quadratic entry points (``jordan``, ``lie``, ``recover_associative``,
#: ``hs_inner``, ``hs_norm``, ``jordan_commute``, ``squared_witness``)
#: accept: its square times 2n^2 stays finite for any
#: n below 9,000, so no HS norm or pair product of the raw input overflows.
_ENTRY_LIMIT = 1e150


def _require_finite(*mats: np.ndarray, limit: float = np.inf) -> None:
    """ValidationError unless every entry of the matrices is finite and of modulus at most ``limit``.

    NaN makes an SVD or eigensolver fail, inf a warning in any product.
    """
    for m in mats:
        a = np.abs(m)
        if not np.isfinite(a).all():
            raise ValidationError("matrix entries must be finite, got NaN or inf")
        if a.max(initial=0.0) > limit:
            raise ValidationError(f"matrix entries must have modulus at most {limit:g}, so no product overflows")


@contextmanager
def _no_overflow(what: str) -> Iterator[None]:
    """Run a block with float overflow raised as ValidationError.

    For products of three or more operands, whose entries ``_ENTRY_LIMIT``
    does not keep finite: the overflow itself is the error.
    """
    try:
        with np.errstate(over="raise"):
            yield
    except (FloatingPointError, OverflowError) as exc:
        raise ValidationError(f"{what} overflows: the matrix entries are too large") from exc


def spectral_norm(m: np.ndarray) -> float:
    """Largest singular value. Valid for any square matrix; ValidationError for NaN or inf entries."""
    a = as_matrix(m)
    _require_finite(a)
    return float(_opnorm(a))


def is_hermitian(m: np.ndarray) -> bool:
    """True when the max entry of m - m^dagger is at most ``DEFAULT_TOL`` at the spectral norm.

    ValidationError for NaN or inf entries, so also the eigen queries built on it.
    """
    a = as_matrix(m)
    _require_finite(a)
    defect = float(np.max(np.abs(a - dagger(a)))) if a.size else 0.0
    return defect <= DEFAULT_TOL.threshold(float(_opnorm(a)))


def require_hermitian(m: np.ndarray) -> np.ndarray:
    a = as_matrix(m)
    if not is_hermitian(a):
        raise NotHermitian("matrix is not Hermitian within tolerance")
    return a


def eig_hermitian(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending real eigenvalues and orthonormal eigenvector columns."""
    return np.linalg.eigh(require_hermitian(m))


def _require_nonempty(a: np.ndarray) -> np.ndarray:
    """a, or ValidationError when it is 0 x 0: it has no eigenvalue, and ``traceless`` would divide by 0."""
    if not a.size:
        raise ValidationError("expected a matrix of dimension >= 1, got a 0 x 0 matrix")
    return a


def _eigenvalues(m: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix, after ``require_hermitian`` and ``_require_nonempty``."""
    return np.linalg.eigvalsh(_require_nonempty(require_hermitian(m)))


def min_eigenvalue(m: np.ndarray) -> float:
    """Smallest eigenvalue of a Hermitian matrix; ValidationError for a 0 x 0 one or NaN or inf entries."""
    return float(_eigenvalues(m)[0])


def operator_norm(m: np.ndarray) -> float:
    """Largest absolute eigenvalue of a Hermitian matrix; ValidationError as ``min_eigenvalue``."""
    return float(np.max(np.abs(_eigenvalues(m))))


def is_psd(m: np.ndarray) -> bool:
    """True when every eigenvalue is >= -``DEFAULT_TOL`` at the matrix's own scale.

    ValidationError as ``min_eigenvalue``.
    """
    w = _eigenvalues(m)
    scale = float(np.max(np.abs(w)))
    return float(w[0]) >= -DEFAULT_TOL.threshold(scale)


def hs_inner(a: np.ndarray, b: np.ndarray) -> float:
    """Hilbert-Schmidt inner product Tr(a b), real for Hermitian operands.

    ValidationError for NaN, inf or an entry above ``_ENTRY_LIMIT``.
    """
    x = as_matrix(a)
    y = as_matrix(b)
    if x.shape != y.shape:
        raise DimensionMismatch(f"shapes differ: {x.shape} vs {y.shape}")
    _require_finite(x, y, limit=_ENTRY_LIMIT)
    return float(np.real(np.sum(x * y.T)))


def hs_norm(a: np.ndarray) -> float:
    """Frobenius norm; equals sqrt(hs_inner(a, a)) for Hermitian a.

    ValidationError for NaN, inf or an entry above ``_ENTRY_LIMIT``.
    """
    x = as_matrix(a)
    _require_finite(x, limit=_ENTRY_LIMIT)
    return float(np.linalg.norm(x))


def traceless(m: np.ndarray) -> np.ndarray:
    """Remove the identity component; ValidationError for a 0 x 0 matrix or NaN or inf entries."""
    a = _require_nonempty(as_matrix(m))
    _require_finite(a)
    n = a.shape[0]
    return a - (np.trace(a) / n) * np.eye(n)


def _require_seed(seed: int) -> int:
    """seed as an int; ValidationError unless it is a non-negative integer, not a bool."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValidationError(f"seed must be a non-negative integer, got {seed!r}")
    return int(seed)


def _require_count(name: str, value: int, low: int) -> int:
    """A count (samples, dimension) as an int; ValidationError unless an integer >= low."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValidationError(f"{name} must be >= {low}, got {value}")
    return int(value)


def _require_type(name: str, value: object, cls: type) -> None:
    """ValidationError naming the argument unless value is a cls (a ``State`` or ``RealSubspace``)."""
    if not isinstance(value, cls):
        raise ValidationError(f"{name} must be a {cls.__name__}, got {type(value).__name__}")


def _require_dim(n: int) -> int:
    """A matrix dimension as an int: DimensionMismatch for an integer below 1, else ``_require_count``'s rule."""
    if isinstance(n, (int, np.integer)) and not isinstance(n, bool) and n < 1:
        raise DimensionMismatch(f"dimension must be >= 1, got {n}")
    return _require_count("dimension", n, 1)


def derive_seed(seed: int, index: int) -> int:
    """The seed ``seed ^ index`` of the trials from index on, under ``_require_seed``'s rule and an index >= 0.

    Injective in the seed, with no fold to 64 bits. A range of trials
    from start draws from ``default_rng(derive_seed(seed, start))``
    (``_trial_normals``), so ``verify``'s dimensions, each its own range,
    draw from distinct generators.
    """
    return _require_seed(seed) ^ _require_count("index", index, 0)


#: Trials drawn in one stack, at most: the cap of ``_stack_len``.
_TRIAL_CHUNK = 1024

#: Complex bytes of one operand of a stack, at most: a slot of the trial
#: stacks of ``verify`` and positivity sampling, and
#: a chunk of block products. ``verify``'s product evaluator keeps about 45
#: arrays of that size until a stack is judged (whole 1024-trial stacks took
#: 269 MB at n = 16, against 89 MB with no evaluator); a chunk of products,
#: its gathered operands and its temporaries stay in cache.
_STACK_BYTES = 128 * 1024


def _stack_len(n: int, k: int = 1) -> int:
    """Items in one stack when each item puts k complex n x n matrices in an operand.

    The operand stays within ``_STACK_BYTES``; the count is at most ``_TRIAL_CHUNK`` and at least 1.
    """
    return max(1, min(_TRIAL_CHUNK, _STACK_BYTES // (16 * k * n * n)))


def _trial_normals(seed: int, start: int, stop: int, shape: tuple[int, ...], step: int) -> Iterator[np.ndarray]:
    """Standard normal draws of trials start to stop - 1, as (m, *shape) stacks of at most step trials.

    The trials draw in trial order from one generator,
    ``default_rng(derive_seed(seed, start))``, one ``standard_normal((m,
    *shape))`` call a stack. A generator's draws are sequential, so trial
    t's values do not depend on step. The draw policy of ``verify`` and
    positivity sampling.
    """
    rng = np.random.default_rng(derive_seed(seed, start))
    for lo in range(start, stop, step):
        yield rng.standard_normal((min(step, stop - lo), *shape))


def _complex_draws(z: np.ndarray) -> np.ndarray:
    """(..., n, n) complex matrices from a (..., 2, n, n) real draw: slice 0 plus 1j times slice 1."""
    return z[..., 0, :, :] + 1j * z[..., 1, :, :]


def _hermitian_part(g: np.ndarray) -> np.ndarray:
    """(G + G^dagger) / 2 of each matrix in a (..., n, n) stack."""
    return 0.5 * (g + np.conj(g).swapaxes(-1, -2))


def gaussian_complex(rng: np.random.Generator, n: int) -> np.ndarray:
    """n x n matrix with independent standard complex Gaussian entries.

    One ``standard_normal((2, n, n))`` call: the real part, then the
    imaginary part, in C order. n follows ``_require_dim``'s rule.
    """
    n = _require_dim(n)
    return _complex_draws(rng.standard_normal((2, n, n)))


def random_hermitian(n: int, seed: int | np.random.Generator) -> np.ndarray:
    """GUE-style sample (G + G^dagger) / 2; ``seed`` may also be a Generator.

    G is ``gaussian_complex(default_rng(seed), n)``, so k calls on one
    Generator give the Hermitian parts of one ``standard_normal((k, 2, n,
    n))`` draw. Any other seed than a non-negative integer or a Generator
    raises ValidationError, as does an n that is not an integer
    (``_require_dim``).
    """
    n = _require_dim(n)
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(_require_seed(seed))
    return _hermitian_part(gaussian_complex(rng, n))


def random_density(n: int, seed: int) -> np.ndarray:
    """Wishart-normalized density matrix G G^dagger / Tr(G G^dagger)."""
    n = _require_dim(n)
    g = gaussian_complex(np.random.default_rng(_require_seed(seed)), n)
    w = g @ dagger(g)
    return w / float(np.real(np.trace(w)))
