"""Real-linear subspaces of Hermitian matrices and closure machinery.

A subspace is stored once, as Hilbert-Schmidt-orthonormal real rows (the
matrices viewed as interleaved real and imaginary parts) built by one
blocked rank kernel (``_extend``); its basis matrices are views of them.
On top of that sit product closures, derived algebras, centralizers,
commutativity and associativity tests, a Killing form nondegeneracy test,
generation experiments, and the realization of a commuting associative
subalgebra as functions on its joint spectrum.

Closures take the two products ``jordan`` and ``lie`` and run semi-naive
rounds (``_round``): the basis only grows, and each round ranks just the
products that involve a direction added in the previous round, in
fixed-size blocks. The dimension bound (``_bound``) comes from the seeds:
n^2, or su(n)'s n^2 - 1 under the bracket of seeds orthogonal to the
identity. A round at the bound forms no products; one that ends above it
raises ValidationError. A subspace is closed exactly when such a round adds
nothing, and ``is_closed_under`` runs that round up to the first product
block that keeps a row.

Rounds and the pair queries (defects, centralizer, bracket table) form
products with one Hermitian pair kernel (``_products``). Closedness
verdicts and derived algebras are memoized on the (immutable) subspace. The
bracket table (``_structure_constants``) holds the coordinates of the basis
brackets ``[e_i, e_k]``, i < k, that are not roundoff: the nonzero rows of
the Lie structure constants, which in the canonical basis are a fraction of
them. It gives the derived algebra, the Killing form, the triples
``associator_defect`` forms and the associator criterion's contraction.

``SPAN_RTOL`` is the one rank threshold; ``DEFAULT_TOL`` decides
tracelessness, vanishing defects, the centralizer's null space, the Killing
form's rank and positivity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyInput,
    NotAssociative,
    NotClosed,
    NotHermitian,
    ValidationError,
)
from .linalg import (
    DEFAULT_TOL,
    _opnorm,
    as_matrix,
    derive_seed,
    hs_norm,
    same_dim,
    spectral_norm,
)
from .products import jordan, lie

__all__ = [
    "SPAN_RTOL",
    "POINT_MERGE_TOL",
    "RealSubspace",
    "full_hermitian_basis",
    "full_hermitian_space",
    "span",
    "close_under",
    "is_closed_under",
    "require_closed",
    "derived_algebra",
    "centralizer",
    "commutator_defect",
    "associator_defect",
    "is_commutative",
    "is_jordan_associative",
    "is_semisimple_lie",
    "GenerationReport",
    "lie_generate",
    "jordan_generate_three",
    "FunctionRepresentation",
    "function_representation",
    "PositivityReport",
    "check_positivity_closure",
]

Product = Callable[[np.ndarray, np.ndarray], np.ndarray]

#: Rank decision threshold for spans. Looser than Tolerance.zero_tol because
#: closure loops feed products of products back in, which amplifies roundoff.
SPAN_RTOL = 1e-8

#: Joint-spectrum points closer than this (sup distance) are merged; wide
#: enough to absorb eigensolver jitter, far below generic point spacing.
POINT_MERGE_TOL = 1e-6

#: ``function_representation``: the rotated basis is diagonal when no
#: off-diagonal entry exceeds ``_DIAGONAL_TOL`` times the largest diagonal
#: one (floored at 1), and the projector table must rebuild every basis
#: element to within ``_RECONSTRUCTION_TOL`` in HS norm.
_DIAGONAL_TOL = 1e-10
_RECONSTRUCTION_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class RealSubspace:
    """Real span of Hermitian matrices, stored as orthonormal real rows.

    Row k of the ``(r, 2n^2)`` float array ``rows`` is basis element e_k with
    its real and imaginary parts interleaved (``_rows``); ``dim_span`` r may
    be zero. The constructor keeps a read-only C-contiguous copy. It raises
    DimensionMismatch for an ambient dimension below 1 and for any other
    row length, and ValidationError for complex rows, whose imaginary parts
    a float copy would drop, and for NaN or infinite entries, which the
    closedness and classicality tests would misjudge without a word.
    ``_stacked`` (r, n, n) and ``basis`` are views of the copy. Immutability
    makes ``_memo`` sound: it holds closedness verdicts keyed by the product
    (``jordan``, ``lie``), the derived algebra by ``"derived"`` and, once
    the associator criterion has asked for it, the bracket table
    (``_structure_constants``) by ``"structure"``.
    """

    dim_ambient: int
    rows: np.ndarray
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = self.dim_ambient
        if n < 1:
            raise DimensionMismatch(f"ambient dimension must be >= 1, got {n}")
        shape = np.shape(self.rows)
        if len(shape) != 2 or shape[1] != 2 * n * n:
            raise DimensionMismatch(
                f"rows of ambient dim {n} need shape (r, {2 * n * n}), got {shape}"
            )
        if np.iscomplexobj(self.rows):
            raise ValidationError("rows must be real, with each matrix's Re and Im interleaved")
        rows = np.array(self.rows, dtype=float, order="C")
        if not np.isfinite(rows).all():
            raise ValidationError("rows contain NaN or infinite entries")
        rows.setflags(write=False)
        object.__setattr__(self, "rows", rows)

    @property
    def dim_span(self) -> int:
        return len(self.rows)

    @cached_property
    def _stacked(self) -> np.ndarray:
        return self.rows.view(complex).reshape(-1, self.dim_ambient, self.dim_ambient)

    @cached_property
    def basis(self) -> tuple[np.ndarray, ...]:
        return tuple(self._stacked)

    def _row(self, m: np.ndarray) -> np.ndarray:
        """The real row (2n^2,) of one ambient matrix; DimensionMismatch for any other."""
        a = as_matrix(m)
        if a.shape[0] != self.dim_ambient:
            raise DimensionMismatch(
                f"matrix dim {a.shape[0]} does not match ambient dim {self.dim_ambient}"
            )
        return _rows(a)

    def coeffs(self, m: np.ndarray) -> np.ndarray:
        """Real coordinates of m against the basis (its projection's coordinates)."""
        return self._row(m) @ self.rows.T

    def project(self, m: np.ndarray) -> np.ndarray:
        return _combination(self.coeffs(m), self._stacked)

    def _distance(self, row: np.ndarray) -> float:
        d = row - (row @ self.rows.T) @ self.rows
        return math.sqrt(d @ d)

    def residual(self, m: np.ndarray) -> float:
        """Distance from m to the subspace in Hilbert-Schmidt norm."""
        return self._distance(self._row(m))

    def contains(self, m: np.ndarray) -> bool:
        row = self._row(m)
        return self._distance(row) <= SPAN_RTOL * max(1.0, math.sqrt(row @ row))


def _combination(c: np.ndarray, stacked: np.ndarray) -> np.ndarray:
    """``sum_k c[k] stacked[k]`` for an (r, n, n) stack.

    The one matrix product ``np.tensordot(c, stacked, axes=1)`` makes,
    without its axis bookkeeping, so the result is the same bit for bit.
    """
    r, n, _ = stacked.shape
    return np.dot(c.reshape(1, r), stacked.reshape(r, n * n)).reshape(n, n)


def full_hermitian_basis(n: int) -> list[np.ndarray]:
    """Canonical orthonormal basis of the n x n Hermitian matrices.

    Diagonal units first, then for each i < j the symmetric and the
    antisymmetric (imaginary) unit, both scaled by 1/sqrt(2). The matrices
    are read-only views of one stack.
    """
    if n < 1:
        raise DimensionMismatch(f"dimension must be >= 1, got {n}")
    mats = np.zeros((n * n, n, n), dtype=complex)
    d = np.arange(n)
    mats[d, d, d] = 1.0
    i, j = np.triu_indices(n, 1)
    s = n + 2 * np.arange(len(i))
    inv = 1.0 / math.sqrt(2.0)
    mats[s, i, j] = mats[s, j, i] = inv
    mats[s + 1, i, j], mats[s + 1, j, i] = -1j * inv, 1j * inv
    mats.setflags(write=False)
    return list(mats)


def full_hermitian_space(n: int) -> RealSubspace:
    return RealSubspace(dim_ambient=n, rows=_rows(full_hermitian_basis(n)))


def _rows(mats: np.ndarray) -> np.ndarray:
    """Real rows (..., 2n^2) of a (..., n, n) stack; a view when it is contiguous complex.

    The dot product of two rows is Re Tr(a^H b), the Hilbert-Schmidt inner
    product, which for a Hermitian a is Re Tr(a b).
    """
    a = np.ascontiguousarray(mats, dtype=complex)
    return a.reshape(*a.shape[:-2], a.shape[-2] * a.shape[-1]).view(float)


#: ``_extend`` removes its kept rows from the unvisited candidates as one
#: panel of up to ``_PANEL`` rows, applied early when ``_DROP_RUN``
#: candidates in a row were dropped: the rest of the block is then likely
#: spanned too, and one panel update drops it without visiting each row.
_PANEL = 32
_DROP_RUN = 4


def _extend(basis: np.ndarray, cand: np.ndarray) -> np.ndarray:
    """Orthonormal rows that extend the orthonormal ``basis`` to also span ``cand``.

    The rank kernel behind ``span``, the closure rounds and the derived
    algebra. Candidates are judged greedily in input order: one is kept
    when its residual against ``basis`` and the rows kept before it exceeds
    ``SPAN_RTOL * max(1, ||c||)``. The whole block is first projected off
    ``basis`` twice (BLAS-3) and rows already under their threshold are
    dropped. Survivors are then visited in order: each is projected off
    the pending panel (the rows kept since the last panel update), then
    reorthogonalized against ``basis`` and every kept row, and kept or
    dropped. Once the panel holds ``_PANEL`` rows, or after ``_DROP_RUN``
    drops in a row, it is removed from the unvisited survivors as one
    BLAS-3 update ``v -= (v @ P^T) @ P`` (block Gram-Schmidt), and those
    left under their threshold are dropped together (``_sweep``). The kept
    rows are at most the rank bound ``min(len(cand), cand.shape[1])``.
    Raises ValidationError on non-finite candidates, whose residual test
    would silently fail.
    """
    if not np.isfinite(cand).all():
        raise ValidationError("span input contains NaN or infinite entries")
    thr = SPAN_RTOL * np.maximum(1.0, np.sqrt(np.einsum("ij,ij->i", cand, cand)))
    v = np.array(cand)
    for _ in range(2 if len(basis) else 0):
        v -= (v @ basis.T) @ basis
    out = np.empty((min(len(v), v.shape[1]), v.shape[1]))
    k = applied = 0  # out[:k] are kept, out[:applied] already removed from v
    while True:
        v, thr = _sweep(v, thr, out[applied:k])
        applied, run = k, 0
        for i, x in enumerate(v):
            x = x - (out[applied:k] @ x) @ out[applied:k]
            x = x - (basis @ x) @ basis
            x = x - (out[:k] @ x) @ out[:k]
            res = math.sqrt(x @ x)
            if res > thr[i]:
                out[k] = x / res
                k, run = k + 1, 0
            else:
                run += 1
            if k - applied == _PANEL or (run == _DROP_RUN and k > applied):
                break
        else:  # every survivor visited
            return out[:k]
        v, thr = v[i + 1 :], thr[i + 1 :]


def _sweep(v: np.ndarray, thr: np.ndarray, panel: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Remove ``panel`` from the rows of v and drop those at or under ``thr``.

    Works in place, ``_BLOCK`` rows at a time, moving the rows it keeps to
    the front, so no temporary grows with v. Returns the views of v and
    ``thr`` that hold them.
    """
    m = 0
    for s in range(0, len(v), _BLOCK):
        w, t = v[s : s + _BLOCK], thr[s : s + _BLOCK]
        if len(panel):
            w -= (w @ panel.T) @ panel
        keep = np.sqrt(np.einsum("ij,ij->i", w, w)) > t
        c = int(np.count_nonzero(keep))
        v[m : m + c], thr[m : m + c] = w[keep], t[keep]
        m += c
    return v[:m], thr[:m]


def span(matrices: Sequence[np.ndarray]) -> RealSubspace:
    """Orthonormal basis of the real span, by the blocked rank kernel.

    Input order is preserved: a matrix is kept when its residual against
    the span of the matrices kept before it exceeds ``SPAN_RTOL * max(1,
    ||input||)``. Raises EmptyInput for an empty list, NotHermitian when
    a matrix m has ``max|m - m^H| > DEFAULT_TOL.threshold(||m||_HS)`` (the
    HS norm bounds the operator norm, so whatever ``is_hermitian`` accepts
    passes), and ValidationError for NaN or infinite entries; an all-zero
    list yields dim_span 0.
    """
    mats = [as_matrix(m) for m in matrices]
    if not mats:
        raise EmptyInput("span of an empty list is undefined; pass at least one matrix")
    n = same_dim(*mats)
    stack = np.stack(mats)
    # non-finite input passes this test (its comparisons are False) and is
    # rejected by _extend
    with np.errstate(invalid="ignore"):
        defect = np.abs(stack - np.conj(stack).swapaxes(1, 2)).max(axis=(1, 2), initial=0.0)
        scale = np.linalg.norm(stack, axis=(1, 2))
    if np.any(defect > DEFAULT_TOL.threshold(scale)):
        raise NotHermitian("span input is not Hermitian within tolerance")
    return RealSubspace(n, _extend(np.empty((0, 2 * n * n)), _rows(stack)))


def _check_product(product: Product) -> None:
    if product is not jordan and product is not lie:
        raise ValidationError(f"closures take the products jordan and lie, got {product!r}")


def _product_pairs(r: int, product: Product) -> np.ndarray:
    """Basis index pairs ``(i, j)`` whose products a closure round forms, as (k, 2).

    ``jordan`` is symmetric and ``lie`` antisymmetric with ``[e, e] = 0``,
    so they need i >= j and i > j. Closure rounds and ``is_closed_under``
    share this rule, so closedness is exactly "a closure round adds nothing".
    """
    return np.array(np.tril_indices(r, 0 if product is jordan else -1)).T


#: Products formed and ranked together in a closure round, and rows ``_sweep``
#: updates at a time; bounds peak memory.
_BLOCK = 512


def _products(a: np.ndarray, b: np.ndarray, product: Product) -> np.ndarray:
    """``product(a, b)`` of two Hermitian (..., n, n) stacks whose lead axes broadcast.

    One matmul gives ``a b``; its conjugate transpose is ``b a`` because
    both operands are Hermitian.
    """
    p = a @ b
    ph = p.conj().swapaxes(-1, -2)
    return 0.5 * (p + ph) if product is jordan else 0.5j * (p - ph)


def _round_products(e: np.ndarray, new: int, product: Product) -> Iterable[np.ndarray]:
    """Blocks of the products that involve a basis row ``>= new`` (semi-naive).

    Pairs of older rows were formed in an earlier round, so their products
    already lie in the span.
    """
    i, j = _product_pairs(len(e), product).T
    fresh = np.maximum(i, j) >= new
    i, j = i[fresh], j[fresh]
    for s in range(0, len(i), _BLOCK):
        yield _products(e[i[s : s + _BLOCK]], e[j[s : s + _BLOCK]], product)


def _bound(s: RealSubspace, product: Product) -> int:
    """Largest dimension a closure of s under ``product`` can reach.

    n^2, or su(n)'s n^2 - 1 under ``lie`` when s is orthogonal to I/sqrt(n)
    within ``SPAN_RTOL``: brackets are traceless, so the closure stays there.
    """
    n = s.dim_ambient
    unit = _rows(np.eye(n, dtype=complex)) / math.sqrt(n)
    if product is lie and float(np.linalg.norm(s.rows @ unit)) <= SPAN_RTOL:
        return n * n - 1
    return n * n


def _round(rows: np.ndarray, new: int, product: Product, bound: int) -> Iterator[np.ndarray]:
    """The rows one closure round from ``rows`` adds, yielded block by block.

    The round ranks the products that involve a row ``>= new`` against the
    basis and the rows kept before them. It forms no product when ``rows``
    is at ``bound`` already, and stops once the kept rows reach it. Lazy: a
    caller that only asks whether anything is added stops at the first kept
    block.
    """
    r = len(rows)
    if r >= bound:
        return
    n = math.isqrt(rows.shape[1] // 2)
    for block in _round_products(rows.view(complex).reshape(r, n, n), new, product):
        kept = _extend(rows, _rows(block))
        if len(kept):
            yield kept
            rows = np.concatenate((rows, kept))
            if len(rows) >= bound:
                return


def _close_rounds(s: RealSubspace, product: Product) -> tuple[RealSubspace, int, list[int]]:
    """``close_under`` with its round count and the dimension after each round.

    Every round but the last adds a row and the dimension is bounded, so the
    loop ends. The last round added nothing, which is the closedness verdict
    ``is_closed_under`` would reach, so the closure carries it in its memo.
    """
    _check_product(product)
    if s.dim_span == 0:
        return s, 0, [0]
    bound = _bound(s, product)
    rows = s.rows
    trajectory = [len(rows)]
    new = 0  # rows added by the previous round start here
    while True:
        r = len(rows)
        rows = np.concatenate((rows, *_round(rows, new, product, bound)))
        if len(rows) > bound:  # roundoff kept a direction, e.g. I from traceless seeds
            raise ValidationError(
                f"closure reached dim {len(rows)}, above its bound {bound}: ill-conditioned seeds"
            )
        trajectory.append(len(rows))
        if len(rows) == r:
            closed = RealSubspace(s.dim_ambient, rows)
            closed._memo[product] = True
            return closed, len(trajectory) - 1, trajectory
        new = r


def close_under(s: RealSubspace, product: Product) -> RealSubspace:
    """Smallest subspace containing s and closed under ``jordan`` or ``lie``.

    Breadth-first and semi-naive: each round ranks only the products that
    involve a basis element added in the previous round, appending the new
    directions to the basis, and the loop stops when a round adds none.
    Once the span reaches its dimension bound (n^2, or n^2 - 1 under ``lie``
    from seeds orthogonal to the identity) the final round forms no
    products. Raises ValidationError for any other product, and when a
    round ends above the bound, which only roundoff can cause. Idempotent;
    the closure is proven closed by its last round, so ``is_closed_under``
    answers for it from the memo.
    """
    closed, _, _ = _close_rounds(s, product)
    return closed


def is_closed_under(s: RealSubspace, product: Product) -> bool:
    """Whether a closure round from s under ``jordan`` or ``lie`` would add nothing.

    Runs that round (``_round``) up to the first product block that keeps a
    row; that block is ranked whole, up to ``_BLOCK`` products. A product
    lies in the span when its residual is at most ``SPAN_RTOL * max(1,
    ||p||)``, the rule ``contains`` applies to a single matrix. A span at
    its dimension bound is closed without a product formed: the full
    algebra under both products, su(n) under ``lie``. Verdicts are memoized
    on s. Raises ValidationError for any other product.
    """
    _check_product(product)
    if product not in s._memo:
        s._memo[product] = next(_round(s.rows, 0, product, _bound(s, product)), None) is None
    return s._memo[product]


def require_closed(s: RealSubspace, product: Product) -> None:
    if not is_closed_under(s, product):
        raise NotClosed(f"subspace of dim {s.dim_span} is not closed under {product.__name__}")


def derived_algebra(L: RealSubspace) -> RealSubspace:
    """Span of all brackets of L, the derived algebra [L, L]. Memoized on L.

    The bracket table's rows are the coordinates of the basis brackets that
    are not roundoff: their row space, ranked in coordinates, is [L, L].
    """
    require_closed(L, lie)
    if "derived" not in L._memo:
        coords = _extend(np.empty((0, L.dim_span)), _structure_constants(L).coords)
        L._memo["derived"] = RealSubspace(L.dim_ambient, coords @ L.rows)
    return L._memo["derived"]


def centralizer(L: RealSubspace, S: RealSubspace) -> RealSubspace:
    """Elements of L whose bracket with every element of S vanishes.

    Solved as a null space: stack the real and imaginary parts of
    [e_i, s_j] for each basis element e_i of L, then read the null space
    off an SVD: singular values at most ``DEFAULT_TOL.threshold`` of the
    largest count as zero. Its vectors are coordinates against L's
    orthonormal rows, so the returned rows are orthonormal too.
    """
    if L.dim_ambient != S.dim_ambient:
        raise DimensionMismatch(
            f"ambient dims differ: {L.dim_ambient} vs {S.dim_ambient}"
        )
    if L.dim_span == 0 or S.dim_span == 0:
        return L
    # column i: Re and Im of [e_i, s_j] for each j in turn
    br = _products(L._stacked[:, None], S._stacked[None], lie)
    cols = np.stack((br.real, br.imag), axis=2).reshape(L.dim_span, -1).T
    _, sv, vh = np.linalg.svd(cols, full_matrices=False)
    cut = DEFAULT_TOL.threshold(sv[0])
    return RealSubspace(L.dim_ambient, vh[~(sv > cut)] @ L.rows)


#: Defects at or below this are roundoff, so the defect queries name no
#: index for them, and ``is_commutative`` and ``is_jordan_associative``
#: count them as zero.
_DEFECT_FLOOR = DEFAULT_TOL.threshold(1.0)


def commutator_defect(L: RealSubspace) -> tuple[float, tuple[int, int] | None]:
    """Largest bracket norm over basis pairs and the index pair attaining it.

    Ties go to the first pair in row-major i < j order. The pair is None
    when the largest norm is at most ``DEFAULT_TOL.threshold(1.0)`` (the
    value is still returned): below that every bracket is roundoff and
    which one is largest is noise. The brackets are formed in
    ``_BLOCK``-sized batches, so memory stays flat in r; a later batch takes
    over only with a strictly larger norm.
    """
    e = L._stacked
    i, j = np.triu_indices(L.dim_span, 1)
    best, arg = 0.0, None
    for s in range(0, len(i), _BLOCK):
        a, b = i[s : s + _BLOCK], j[s : s + _BLOCK]
        norms = _opnorm(_products(e[a], e[b], lie))
        k = int(np.argmax(norms))
        if norms[k] > best:
            best, arg = float(norms[k]), (int(a[k]), int(b[k]))
    return best, arg if best > _DEFECT_FLOOR else None


def _associator_norms(L: RealSubspace) -> Iterator[tuple[np.ndarray, int, np.ndarray, np.ndarray]]:
    """Blocks ``(norms, i, j, k)`` of Jordan associator norms, in row-major (i, j, k) order.

    By the Jordan-Lie identity ``assoc(e_i, e_j, e_k) = [e_j, [e_k, e_i]]``,
    only triples whose pair {i, k} is in the bracket table are formed: every
    other one has norm at most half of ``_DEFECT_FLOOR``. Each first index's
    (j, k) pairs come in blocks of at most ``_BLOCK``, so memory stays flat
    in r.
    """
    e, r = L._stacked, L.dim_span
    table = _structure_constants(L)
    partners = np.zeros((r, r), dtype=bool)
    partners[table.i, table.k] = partners[table.k, table.i] = True
    for i in np.flatnonzero(partners.any(axis=1)):
        ks = np.flatnonzero(partners[i])
        eij = _products(e[i], e, jordan)  # eij[j] = e_i o e_j
        j, q = np.divmod(np.arange(r * len(ks)), len(ks))
        k = ks[q]
        for s in range(0, len(j), _BLOCK):
            a, b = j[s : s + _BLOCK], k[s : s + _BLOCK]
            left = _products(eij[a], e[b], jordan)
            right = _products(e[i], _products(e[a], e[b], jordan), jordan)
            yield _opnorm(left - right), int(i), a, b


def associator_defect(L: RealSubspace) -> tuple[float, tuple[int, int, int] | None]:
    """Largest Jordan associator norm over basis triples, with its indices.

    Ties go to the first triple in row-major (i, j, k) order. The triple is
    None when the largest norm is at most ``DEFAULT_TOL.threshold(1.0)``
    (the value is still returned), as in ``commutator_defect``. Only triples
    whose pair {i, k} is in the bracket table are formed (``_associator_norms``):
    every other one has norm at most half the floor, so the value and the
    triple are those of all r^3 triples whenever a triple is named, and 0.0
    stands for roundoff otherwise. A later block takes over only with a
    strictly larger norm.
    """
    best, arg = 0.0, None
    for norms, i, j, k in _associator_norms(L):
        q = int(np.argmax(norms))
        if norms[q] > best:
            best, arg = float(norms[q]), (i, int(j[q]), int(k[q]))
    return best, arg if best > _DEFECT_FLOOR else None


class _BracketTable(NamedTuple):
    """The basis brackets of L that are not roundoff, as coordinates against L.

    Row p of ``coords`` (P, r) holds the coordinates of ``lie(e_i, e_k)`` for
    the pair ``i = i[p] < k = k[p]``; pairs run in row-major (i, k) order.
    ``delta`` bounds the HS norm of every bracket part the rows leave out,
    and ``norm`` is the largest HS norm of a row of ``coords``.
    """

    i: np.ndarray
    k: np.ndarray
    coords: np.ndarray
    delta: float
    norm: float


def _structure_constants(L: RealSubspace) -> _BracketTable:
    """The bracket table of L: the Lie structure constants' nonzero rows.

    The i < k brackets are formed in ``_BLOCK``-sized batches; a pair is
    kept when its bracket's HS norm exceeds ``_DEFECT_FLOOR / 2``, and only
    kept brackets are given coordinates. In the canonical basis most pairs
    drop out (``E_ab E_cd = delta_bc E_ad``): 812 of 2016 are kept at n=8.
    The dense structure constants are ``F[i, k] = coords[p] = -F[k, i]``,
    zero elsewhere. ``delta`` is the largest HS norm of a bracket part the
    table leaves out: the residual off L of a kept bracket, taken from the
    explicit difference (``||p||^2 - ||coords||^2`` loses everything below
    about 1e-8, the size of the thresholds it serves), or a dropped bracket
    whole. Only the associator criterion stores the table on L
    (``_stored_structure_constants``, reused here): on a dense closure it
    still has r^2 (r - 1) / 2 entries.
    """
    if "structure" in L._memo:
        return L._memo["structure"]
    r = L.dim_span
    i, k = np.triu_indices(r, 1)
    kept, coords, delta = [np.zeros(0, dtype=int)], [np.empty((0, r))], 0.0
    for s in range(0, len(i), _BLOCK):
        a, b = i[s : s + _BLOCK], k[s : s + _BLOCK]
        p = _rows(_products(L._stacked[a], L._stacked[b], lie))
        norms = np.linalg.norm(p, axis=1)
        keep = norms > 0.5 * _DEFECT_FLOOR
        p = p[keep]
        c = p @ L.rows.T
        residual = np.linalg.norm(p - c @ L.rows, axis=1)
        delta = max(delta, float(norms[~keep].max(initial=0.0)), float(residual.max(initial=0.0)))
        kept.append(s + np.flatnonzero(keep))
        coords.append(c)
    sel = np.concatenate(kept)
    coords = np.concatenate(coords)
    norm = float(np.sqrt(np.einsum("ij,ij->i", coords, coords)).max(initial=0.0))
    return _BracketTable(i[sel], k[sel], coords, delta, norm)


def _stored_structure_constants(L: RealSubspace) -> _BracketTable:
    """``_structure_constants(L)``, stored on L for the per-state criteria."""
    L._memo["structure"] = table = _structure_constants(L)  # the stored table, once there is one
    return table


def _killing_matrix(L: RealSubspace) -> np.ndarray:
    """K[x, y] = Tr(ad_x ad_y) in the orthonormal basis, as ``-2 T^T T`` over the table rows T.

    With ``ad_x[k, j] = F[x, j, k]``, K[x, y] = sum_jk F[x, j, k] F[y, k, j].
    HS-orthonormal structure constants are totally antisymmetric, because
    ``Tr([a, b] c) = Tr(a [b, c])``, so this is ``-sum_jk F[j, k, x] F[j, k,
    y]``, and each i < k row of F appears twice in that sum.
    """
    T = _structure_constants(L).coords
    return -2.0 * (T.T @ T)


def is_commutative(L: RealSubspace) -> bool:
    """Whether all brackets vanish on L. Requires closure under both products."""
    require_closed(L, jordan)
    require_closed(L, lie)
    defect, _ = commutator_defect(L)
    return defect <= _DEFECT_FLOOR


def is_jordan_associative(L: RealSubspace) -> bool:
    """Whether the Jordan associator vanishes on L. Same closure requirements.

    ``associator_defect(L)[0] <= _DEFECT_FLOOR``, answered at the first
    block of associator norms above the floor.
    """
    require_closed(L, jordan)
    require_closed(L, lie)
    return all(norms.max() <= _DEFECT_FLOOR for norms, _, _, _ in _associator_norms(L))


def is_semisimple_lie(L: RealSubspace) -> bool:
    """Nondegeneracy of the Killing form K(x, y) = Tr(ad_x ad_y) on L.

    Judged by the singular value ratio of the Killing matrix in the
    orthonormal basis: semisimple iff smallest > zero_tol * largest.
    """
    require_closed(L, lie)
    if L.dim_span == 0:
        return True
    killing = _killing_matrix(L)
    sv = np.linalg.svd(killing, compute_uv=False)
    return float(sv[-1]) > DEFAULT_TOL.zero_tol * float(sv[0])


@dataclass(frozen=True, eq=False)
class GenerationReport:
    """Outcome of a generation experiment from a small set of seeds."""

    generators: tuple[np.ndarray, ...]
    closure_dim: int
    target_dim: int
    generated: bool
    rounds: int
    trajectory: tuple[int, ...]
    closure: RealSubspace


def _is_traceless(m: np.ndarray) -> bool:
    n = m.shape[0]
    return abs(complex(np.trace(m))) <= DEFAULT_TOL.threshold(hs_norm(m) * math.sqrt(n))


def _generation_report(seeds: list[np.ndarray], product: Product, target: int) -> GenerationReport:
    """Close span(seeds) under product; the generators are the first two seeds."""
    closed, rounds, trajectory = _close_rounds(span(seeds), product)
    return GenerationReport(
        generators=tuple(seeds[:2]),
        closure_dim=closed.dim_span,
        target_dim=target,
        generated=closed.dim_span == target,
        rounds=rounds,
        trajectory=tuple(trajectory),
        closure=closed,
    )


def lie_generate(a: np.ndarray, b: np.ndarray) -> GenerationReport:
    """Bracket closure of span{a, b}.

    Target dimension is n^2 - 1 (the traceless Hermitian space) when both
    generators are traceless, n^2 otherwise. A generic traceless pair
    generates the full target; degenerate pairs simply report generated
    False.
    """
    x = as_matrix(a)
    y = as_matrix(b)
    n = same_dim(x, y)
    target = n * n - 1 if (_is_traceless(x) and _is_traceless(y)) else n * n
    return _generation_report([x, y], lie, target)


def jordan_generate_three(a: np.ndarray, b: np.ndarray) -> GenerationReport:
    """Jordan closure of span{a, b, [a, b], I}; target is the full n^2."""
    x = as_matrix(a)
    y = as_matrix(b)
    n = same_dim(x, y)
    return _generation_report([x, y, lie(x, y), np.eye(n, dtype=complex)], jordan, n * n)


@dataclass(frozen=True, eq=False)
class FunctionRepresentation:
    """A commuting associative subalgebra realized as functions on a set.

    ``points[x, i]`` is the value of basis element i at joint-spectrum
    point x and ``projectors[x]`` the orthogonal projector onto that point's
    joint eigenspace. At most dim_ambient points exist. The constructor
    keeps one read-only ``(x, n, n)`` copy of the projectors (``_stacked``);
    ``projectors`` is the tuple of its slices.
    """

    subspace: RealSubspace
    points: np.ndarray
    projectors: tuple[np.ndarray, ...]
    _stacked: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = self.subspace.dim_ambient
        stacked = np.array(self.projectors, dtype=complex).reshape(-1, n, n)
        stacked.setflags(write=False)
        object.__setattr__(self, "_stacked", stacked)
        object.__setattr__(self, "projectors", tuple(stacked))

    @property
    def num_points(self) -> int:
        return len(self.projectors)

    def evaluate(self, m: np.ndarray) -> np.ndarray:
        """Function values Tr(P_x m) / rank(P_x) of an ambient matrix.

        Raises DimensionMismatch when m is not dim_ambient x dim_ambient.
        """
        a = as_matrix(m)
        n = self.subspace.dim_ambient
        if a.shape[0] != n:
            raise DimensionMismatch(f"matrix dim {a.shape[0]} does not match ambient dim {n}")
        p = self._stacked
        rank = np.maximum(1.0, np.rint(np.einsum("xaa->x", p).real))
        return np.einsum("xab,ba->x", p, a).real / rank

    def reconstruct(self, i: int) -> np.ndarray:
        """Rebuild basis element i as sum_x points[x, i] * projectors[x]."""
        return np.einsum("x,xab->ab", self.points[:, i], self._stacked)


def function_representation(L: RealSubspace) -> FunctionRepresentation:
    """Simultaneous diagonalization of a commuting associative subalgebra.

    Diagonalizes a generic random combination of the basis, verifies that it
    diagonalizes every basis element, merges eigencolumns whose joint value
    tuples agree within POINT_MERGE_TOL, and checks that the projector table
    reconstructs each basis element to ``_RECONSTRUCTION_TOL``. Retries with
    a fresh generic combination on failure; the internal seeds are fixed, so
    the output is deterministic. Raises NotAssociative when the subalgebra is not
    commuting and associative (also if diagonalization cannot converge).
    """
    try:
        associative = is_jordan_associative(L)
    except NotClosed as exc:
        raise NotAssociative(f"precondition failed: {exc}") from exc
    if not associative:
        raise NotAssociative("subspace is not a commuting, Jordan-associative subalgebra")
    r = L.dim_span
    n = L.dim_ambient
    if r == 0:
        return FunctionRepresentation(subspace=L, points=np.zeros((0, 0)), projectors=())
    stacked = L._stacked
    last_err = math.inf
    for attempt in range(8):
        rng = np.random.default_rng(24251 + attempt)
        c = rng.standard_normal(r)
        _, vec = np.linalg.eigh(_combination(c, stacked))
        rot = np.einsum("ak,iab,bl->ikl", vec.conj(), stacked, vec)
        diag = np.einsum("ikk->ik", rot).real
        off = np.abs(rot)
        off[:, np.arange(n), np.arange(n)] = 0.0
        if float(off.max()) > _DIAGONAL_TOL * max(1.0, float(np.max(np.abs(diag)))):
            continue
        groups: list[list[int]] = []
        reps: list[np.ndarray] = []
        for k in range(n):
            t = diag[:, k]
            for g, rep in enumerate(reps):
                if float(np.max(np.abs(t - rep))) <= POINT_MERGE_TOL:
                    groups[g].append(k)
                    break
            else:
                groups.append([k])
                reps.append(t)
        projectors = np.stack([vec[:, idx] @ vec[:, idx].conj().T for idx in groups])
        points = np.stack([diag[:, idx].mean(axis=1) for idx in groups])
        recon = np.einsum("xi,xab->iab", points, projectors)
        err = float(np.max(np.linalg.norm(recon - stacked, axis=(1, 2))))
        if err <= _RECONSTRUCTION_TOL:
            points.setflags(write=False)
            return FunctionRepresentation(subspace=L, points=points, projectors=projectors)
        last_err = min(last_err, err)
    raise NotAssociative(
        f"joint diagonalization did not converge (best residual {last_err:.3e})"
    )


@dataclass(frozen=True, eq=False)
class PositivityReport:
    """Sampling evidence on positivity behavior of the Jordan product.

    ``jordan_violations`` counts PSD pairs a, b from the subspace whose
    product a o b fails to be PSD. ``square_order_violations`` counts pairs
    a >= b >= 0 whose squares fail a^2 >= b^2. Worst cases carry
    (a, b, min eigenvalue).
    """

    samples: int
    jordan_violations: int
    square_order_violations: int
    worst_jordan: tuple[np.ndarray, np.ndarray, float] | None
    worst_square_order: tuple[np.ndarray, np.ndarray, float] | None

    @property
    def any_violation(self) -> bool:
        return self.jordan_violations > 0 or self.square_order_violations > 0


def check_positivity_closure(L: RealSubspace, samples: int, seed: int) -> PositivityReport:
    """Sample PSD elements of a Jordan-closed subspace and test positivity.

    Candidates are squares x @ x of random basis combinations, so they are
    PSD and stay inside the subspace. Associative subalgebras produce no
    violations; the full Hermitian algebra produces both kinds. Raises
    ValidationError for ``samples < 0``.
    """
    if samples < 0:
        raise ValidationError(f"samples must be >= 0, got {samples}")
    require_closed(L, jordan)
    r = L.dim_span
    stacked = L._stacked
    jordan_count = 0
    square_count = 0
    worst_jordan: tuple[np.ndarray, np.ndarray, float] | None = None
    worst_square: tuple[np.ndarray, np.ndarray, float] | None = None
    best_j = 0.0
    best_s = 0.0
    for t in range(samples if r > 0 else 0):
        rng = np.random.default_rng(derive_seed(seed, t))
        x = _combination(rng.standard_normal(r), stacked)
        y = _combination(rng.standard_normal(r), stacked)
        z = _combination(rng.standard_normal(r), stacked)
        a = x @ x
        b = y @ y
        lam = float(np.linalg.eigvalsh(jordan(a, b))[0])
        if lam < -DEFAULT_TOL.threshold(spectral_norm(a) * spectral_norm(b)):
            jordan_count += 1
            if lam < best_j:
                best_j, worst_jordan = lam, (a, b, lam)
        big = b + z @ z
        lam2 = float(np.linalg.eigvalsh(big @ big - b @ b)[0])
        if lam2 < -DEFAULT_TOL.threshold(spectral_norm(big) ** 2 + spectral_norm(b) ** 2):
            square_count += 1
            if lam2 < best_s:
                best_s, worst_square = lam2, (big, b, lam2)
    return PositivityReport(
        samples=samples,
        jordan_violations=jordan_count,
        square_order_violations=square_count,
        worst_jordan=worst_jordan,
        worst_square_order=worst_square,
    )
