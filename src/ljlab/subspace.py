"""Real-linear subspaces of Hermitian matrices and closure machinery.

A subspace is stored once, as Hilbert-Schmidt-orthonormal real rows (the
matrices viewed as interleaved real and imaginary parts) built by one
blocked rank kernel (``_extend``); its basis matrices are views of them.
On top of that sit product closures, derived algebras, centralizers,
commutativity and associativity tests, semisimplicity as a zero center,
generation experiments, and the realization of a commuting associative
subalgebra as functions on its joint spectrum.

Closures take the two products ``jordan`` and ``lie`` and run semi-naive
rounds (``_round``): the basis only grows, and each round ranks just the
products that involve a direction added in the previous round, in growing
blocks, and stops once it reaches its dimension bound (``_bound``), which
comes from the seeds: n^2, or su(n)'s n^2 - 1 under the bracket of seeds
orthogonal to the identity, whose identity part the closure then drops
before its first round. A round at the bound forms no products; one
that ends above it raises ValidationError. A subspace is closed exactly
when such a round adds nothing. Before any block a round asks the
certificate (``_certified``): two generic elements whose products with
the basis lie in the span prove it closed, in its own coordinates and
with the rows they do not generate checked directly. A pass ends the
round as one that added nothing; under ``jordan`` it proves ``lie`` too,
and both verdicts are recorded. Otherwise ``is_closed_under`` runs the
round up to the first product block that keeps a row.

Rounds and the pair queries (defects, centralizer) form products with one
Hermitian pair kernel (``products._products``); a block of index pairs is formed in
cache-sized chunks (``_block_products``), and the i < k basis brackets come
from one stream (``_brackets``), which the associator criterion reads
too; ``associator_defect`` forms one bracket [e_j, B] per triple of a
stream bracket B, by the Jordan-Lie associator identity. The centralizer,
the derived algebra (the center's complement) and semisimplicity read one
commutant (``_central_rows``) from one walk over the constraints x -> [x, s]
(``_ad_rows``). The defects and the associator criterion take their maxima
from one running first maximum (``_first_max``), which holds the one tie
rule; the defects take an SVD only of a bracket or associator whose HS norm
can reach the running maximum (``_running_screen``).
Closedness verdicts and derived algebras are memoized on the subspace.
``jordan_generate_three`` reads its closure off
the blocks of one generic element's eigenframe and runs the rounds only
where that frame is unclear (``_eigenframe_close``).

Every public function checks that its subspace arguments are
``RealSubspace`` objects (``_require_type``), raising ValidationError
naming the argument otherwise.

``SPAN_RTOL`` is the one rank threshold, the centralizer's null space,
semisimplicity and the generation targets included; ``DEFAULT_TOL``
decides span input Hermiticity, vanishing defects and positivity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable, Iterable, Iterator, Sequence

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
    _ENTRY_LIMIT,
    _opnorm,
    _require_count,
    _require_dim,
    _require_finite,
    _require_seed,
    _require_type,
    _row_norms,
    _rows,
    _screened_opnorm,
    _stack_len,
    _trial_normals,
    as_matrix,
    same_dim,
)
from .products import _jordan, _lie, _products, jordan, lie

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

#: ``function_representation`` starts a new joint-spectrum point where two
#: consecutive eigenvalues of its generic combination are more than this
#: apart: wide enough to absorb eigensolver jitter, far below generic point
#: spacing. A gap it misses merges two points, which the reconstruction
#: check rejects.
POINT_MERGE_TOL = 1e-6

#: ``function_representation``: the projector table must rebuild every basis
#: element to within this in HS norm.
_RECONSTRUCTION_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class RealSubspace:
    """Real span of Hermitian matrices, stored as orthonormal real rows.

    Row k of the ``(r, 2n^2)`` float array ``rows`` is basis element e_k with
    its real and imaginary parts interleaved (``_rows``); ``dim_span`` r may
    be zero. The constructor keeps a read-only C-contiguous copy. It raises
    DimensionMismatch for an ambient dimension below 1 and for any other
    row length, and ValidationError for a dimension that is not an integer
    (``_require_dim``), for complex rows, whose imaginary parts
    a float copy would drop, and for NaN or infinite entries, which the
    closedness and classicality tests would misjudge without a word.
    ``_stacked`` (r, n, n) and ``basis`` are views of the copy, and no
    other array is kept. Immutability makes ``_memo`` sound: it holds
    closedness verdicts keyed by the product (``jordan``, ``lie``) and the
    derived algebra by ``"derived"``.
    """

    dim_ambient: int
    rows: np.ndarray
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = _require_dim(self.dim_ambient)
        object.__setattr__(self, "dim_ambient", n)
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

    def residual(self, m: np.ndarray) -> float:
        """Distance from m to the subspace in Hilbert-Schmidt norm."""
        row = self._row(m)
        d = row - (row @ self.rows.T) @ self.rows
        return math.sqrt(d @ d)

    def _coords(self, m: np.ndarray) -> tuple[np.ndarray, bool]:
        """``coeffs(m)`` and ``contains(m)``, both from the one product ``row @ rows.T``."""
        row = self._row(m)
        x = row @ self.rows.T
        d = row - x @ self.rows
        return x, math.sqrt(d @ d) <= SPAN_RTOL * max(1.0, math.sqrt(row @ row))

    def contains(self, m: np.ndarray) -> bool:
        """Whether m's ``residual`` is at most ``SPAN_RTOL * max(1, ||m||_HS)``; one ``_coords`` call."""
        return self._coords(m)[1]


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
    are read-only views of one stack (``_full_stack``). n is checked by ``_require_dim``.
    """
    return list(_full_stack(n))


def _full_stack(n: int) -> np.ndarray:
    """``full_hermitian_basis(n)`` as one read-only (n^2, n, n) stack."""
    n = _require_dim(n)
    mats = np.zeros((n * n, n, n), dtype=complex)
    d = np.arange(n)
    mats[d, d, d] = 1.0
    i, j = np.nonzero(d[:, None] < d)  # np.triu_indices(n, 1), row-major, without its overhead
    s = n + 2 * np.arange(len(i))
    inv = 1.0 / math.sqrt(2.0)
    mats[s, i, j] = mats[s, j, i] = inv
    mats[s + 1, i, j], mats[s + 1, j, i] = -1j * inv, 1j * inv
    mats.setflags(write=False)
    return mats


def full_hermitian_space(n: int) -> RealSubspace:
    return RealSubspace(dim_ambient=n, rows=_rows(_full_stack(n)))


#: ``_extend`` removes its kept rows from the unvisited candidates as one
#: panel of up to ``_PANEL`` rows, applied early when ``_DROP_RUN``
#: candidates in a row were dropped: the rest of the block is then likely
#: spanned too, and one panel update drops it without visiting each row.
_PANEL = 32
_DROP_RUN = 4


def _extend(basis: np.ndarray, cand: np.ndarray) -> np.ndarray:
    """Orthonormal rows that extend the orthonormal ``basis`` to also span ``cand``.

    The rank kernel behind ``span``, the closure rounds, the certificate and
    the derived algebra. Candidates are judged greedily in input order: one
    is kept when its residual against ``basis`` and the rows kept before it
    exceeds ``SPAN_RTOL * max(1, ||c||)``. The block is first projected off
    ``basis`` twice (BLAS-3) and rows under their threshold are dropped.
    Survivors are visited in order: each is projected off the pending panel
    P (rows kept since the last panel update; skipped while empty), then
    once off ``basis`` and every kept row, which sit in one contiguous
    buffer, and kept, normalized in place into it, or dropped; thresholds
    are Python floats. The visit calls ``np.dot`` (BLAS dgemv, ddot) on
    views of P and the buffer sliced once per keep: at rows of a few
    hundred floats numpy's per-call overhead is most of a visit, and on
    these C-contiguous float64 operands ``@`` reaches the same routines, so
    the bits are the same. Once P holds ``_PANEL`` rows, or after
    ``_DROP_RUN`` drops in a row, it is removed from the unvisited rows as
    one BLAS-3 update ``v -= (v @ P^T) @ P`` (block Gram-Schmidt, ``_sweep``,
    which drops those left under their threshold). At most ``min(len(cand),
    cand.shape[1])`` rows are kept. Candidates must be finite (``span``
    checks its input), or the residual test would silently fail.
    """
    thr = SPAN_RTOL * np.maximum(1.0, _row_norms(cand))
    v = np.array(cand)
    for _ in range(2 if len(basis) else 0):
        v -= (v @ basis.T) @ basis
    b = len(basis)
    q = np.empty((b + min(len(v), v.shape[1]), v.shape[1]))  # [basis; kept rows]
    q[:b] = basis
    out = q[b:]
    k = applied = 0  # out[:k] are kept, out[:applied] already removed from v
    while True:
        v, thr = _sweep(v, thr, out[applied:k])
        applied, run, limits = k, 0, thr.tolist()
        dot, pend, kept = np.dot, out[applied:k], q[: b + k]
        for i, x in enumerate(v):
            if k > applied:
                x = x - dot(dot(pend, x), pend)
            x = x - dot(dot(kept, x), kept)
            res = math.sqrt(dot(x, x))
            if res > limits[i]:
                np.divide(x, res, out=out[k])
                k, run = k + 1, 0
                pend, kept = out[applied:k], q[: b + k]
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
    the front, so no temporary grows with v; a block that drops nothing and
    already sits in place is not copied. Returns the views of v and ``thr``
    that hold them.
    """
    m = 0
    for s in range(0, len(v), _BLOCK):
        w, t = v[s : s + _BLOCK], thr[s : s + _BLOCK]
        if len(panel):
            w -= (w @ panel.T) @ panel
        keep = _row_norms(w) > t
        c = int(np.count_nonzero(keep))
        if c < len(w) or m < s:
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
    passes), and ValidationError for NaN or infinite entries or an entry of
    modulus above ``_ENTRY_LIMIT``; an all-zero list yields dim_span 0.
    """
    mats = [as_matrix(m) for m in matrices]
    if not mats:
        raise EmptyInput("span of an empty list is undefined; pass at least one matrix")
    n = same_dim(*mats)
    stack = np.stack(mats)
    _require_finite(stack, limit=_ENTRY_LIMIT)
    defect = np.abs(stack - np.conj(stack).swapaxes(1, 2)).max(axis=(1, 2), initial=0.0)
    scale = np.linalg.norm(stack, axis=(1, 2))
    if np.any(defect > DEFAULT_TOL.threshold(scale)):
        raise NotHermitian("span input is not Hermitian within tolerance")
    return RealSubspace(n, _extend(np.empty((0, 2 * n * n)), _rows(stack)))


def _check_product(product: Product) -> None:
    if product is not jordan and product is not lie:
        raise ValidationError(f"closures take the products jordan and lie, got {product!r}")


def _triangle(r: int, off: int) -> np.ndarray:
    """The read-only (k, 2) pairs of ``np.tril_indices(r, -off)``, in row-major order."""
    tri = np.array(np.tril_indices(r, -off)).T
    tri.setflags(write=False)
    return tri


#: One index triangle per product (jordan, lie), grown on demand and kept
#: for the process (``_product_pairs``). Its slices depend on r alone, so
#: sharing it across callers and threads changes no result.
_TRIANGLES = [_triangle(0, 0), _triangle(0, 1)]


def _product_pairs(r: int, product: Product, new: int = 0) -> np.ndarray:
    """Basis index pairs ``(i, j)``, i < r, with max(i, j) >= new that a closure round forms, as (k, 2).

    ``jordan`` is symmetric and ``lie`` antisymmetric with ``[e, e] = 0``,
    so they need i >= j and i > j. Closure rounds and ``is_closed_under``
    share this rule, so closedness is exactly "a closure round adds nothing".
    In row-major order the pairs of i < r are the first r(r + 1)/2 (jordan)
    or r(r - 1)/2 (lie) rows of any larger triangle, and those of a round's
    fresh rows i >= new follow the pairs of i < new: the result is a
    read-only row slice of one triangle per product, kept for the process.
    """
    off = 0 if product is jordan else 1
    lo, hi = new * (new + 1 - 2 * off) // 2, r * (r + 1 - 2 * off) // 2
    tri = _TRIANGLES[off]  # read once: another thread may swap in a smaller one
    if len(tri) < hi:
        tri = _TRIANGLES[off] = _triangle(r, off)
    return tri[lo:hi]


#: Products in one block, at most: a closure round ranks a block at a time
#: and ``_brackets`` yields one, so it bounds peak memory; also the rows
#: ``_sweep`` updates at a time. A closure round's first block holds at
#: least ``_FIRST_BLOCK`` products (``_round``).
_BLOCK = 512
_FIRST_BLOCK = 64


def _block_products(e: np.ndarray, i: np.ndarray, j: np.ndarray, product: Product) -> np.ndarray:
    """``_products(e[i], e[j], product)`` for a block of index pairs, bit for bit.

    The operands are gathered and multiplied a chunk of ``_stack_len(n)``
    products at a time, written into the block's buffer,
    so no block-sized temporary falls out of cache (the blocking of small
    products in Goto & van de Geijn, ACM TOMS 34, 2008).
    """
    n = e.shape[-1]
    out = np.empty((len(i), n, n), dtype=complex)
    step = _stack_len(n)
    for s in range(0, len(i), step):
        out[s : s + step] = _products(e[i[s : s + step]], e[j[s : s + step]], product)
    return out


def _round_products(e: np.ndarray, new: int, product: Product, first: int) -> Iterable[np.ndarray]:
    """Blocks of the products that involve a basis row ``>= new`` (semi-naive).

    Pairs of older rows were formed in an earlier round, so their products
    already lie in the span; the fresh pairs are one slice of the product's
    index triangle (``_product_pairs``). The first block holds ``first``
    products and each next one twice as many as the one before, up to
    ``_BLOCK``.
    """
    i, j = _product_pairs(len(e), product, new).T
    s, size = 0, min(first, _BLOCK)
    while s < len(i):
        yield _block_products(e, i[s : s + size], j[s : s + size], product)
        s, size = s + size, min(2 * size, _BLOCK)


def _unit_identity(n: int) -> np.ndarray:
    """The row of I / sqrt(n), the unit identity direction."""
    return _rows(np.eye(n, dtype=complex)) / math.sqrt(n)


def _bound(s: RealSubspace, product: Product) -> int:
    """Largest dimension a closure of s under ``product`` can reach.

    n^2, or su(n)'s n^2 - 1 under ``lie`` when s is orthogonal to I/sqrt(n)
    within ``SPAN_RTOL``: brackets are traceless, so the closure stays there.
    """
    n = s.dim_ambient
    if product is not lie:
        return n * n
    return n * n - 1 if float(np.linalg.norm(s.rows @ _unit_identity(n))) <= SPAN_RTOL else n * n


@lru_cache(maxsize=None)
def _generic_pair(r: int) -> tuple[np.ndarray, float]:
    """Coordinates c (2, r) of two generic elements (certificate, centralizer), unit Gaussian vectors from a fixed seed,
    read-only, and their weight w = min_k max_i |c_ik|, the least any basis element has in one of them."""
    c = np.random.default_rng(24251).standard_normal((2, r))
    c /= np.linalg.norm(c, axis=1, keepdims=True)
    c.setflags(write=False)
    return c, float(np.abs(c).max(axis=0).min())


def _coordinates(rows: np.ndarray, cand: np.ndarray, w: float) -> np.ndarray | None:
    """Coordinates against the orthonormal ``rows`` of each candidate row, or None when one lies off their span.

    The certificate's rule: one projection, and a residual above ``w *
    SPAN_RTOL * max(1, ||c||)`` is off the span (``_certified``).
    """
    x = cand @ rows.T
    if np.any(_row_norms(cand - x @ rows) > w * SPAN_RTOL * np.maximum(1.0, _row_norms(cand))):
        return None
    return x


def _pair_products(x: np.ndarray, e: np.ndarray, product: Product) -> np.ndarray:
    """Rows of ``product(x_a, e_j)`` for each a, then each j, formed by ``_block_products``."""
    a, j = np.divmod(np.arange(len(x) * len(e)), len(e))
    return _rows(_block_products(np.concatenate((x, e)), a, j + len(x), product))


def _generated(starts: np.ndarray, maps: list[np.ndarray]) -> np.ndarray:
    """Orthonormal rows of the smallest subspace of R^r that holds ``starts`` and that each x -> x @ M preserves.

    Block Krylov: each step maps the rows the step before kept by every
    map and ranks them in one ``_extend`` call.
    """
    basis = new = _extend(starts[:0], starts)
    while len(new) and len(basis) < starts.shape[1]:
        new = _extend(basis, np.concatenate([new @ m for m in maps]))
        basis = np.concatenate((basis, new))
    return basis


def _certified(rows: np.ndarray, product: Product, rest: int) -> bool:
    """Whether two generic elements prove L = span(rows) closed under ``product`` at less cost than ``rest`` products.

    Each p(g_i, e_j) must lie in L (``_coordinates``), for p = ``lie``, or
    both products for ``jordan``; its coordinates make r x r maps M. Then
    g_1, g_2 lie in the idealizer N = {x : p(x, L) in L for each p}: a Lie
    algebra (Jacobi), or under both products the Hermitian part of the
    associative idealizer of L + iL. So does K, the algebra they generate,
    built from the maps in L's coordinates (``_generated``). Each row of L
    minus K is checked against all of L under each p asked; when all pass,
    L lies in N, so a pass under ``jordan`` proves L closed under ``lie``
    too. Genericity decides only how many rows are left: none for a
    semisimple Lie algebra (Kuranishi, *Nagoya Math. J.* 2, 1951) or a
    *-algebra (Davidson, *C*-Algebras by Example*, ch. I), c - 2 for a Lie
    center of dimension c > 2. It forms 2r products per product asked and
    ranks at most as many candidates for K, so it runs only when ``rest``
    exceeds the two together, and checks the rows left only when their r
    products per product asked still fit. False once a product lies off L
    or the count does not fit. Before the 2r products of each p, lie
    first, it forms p(g_1, g_2): a combination of them, so near L when
    they lie in it, and for generic g off L when L is not closed under p.
    A failing certificate thus mostly costs one product: a span closed
    under ``jordan`` but not ``lie`` fails at its first bracket.

    Each product is held to w times the round's threshold (``_generic_pair``):
    p(g_i, e_b) sums c_ia p(e_a, e_b), each e_a weighs at least w in g_1 or
    g_2, and products of HS-unit elements have HS norm at most 1, so a lone
    p(e_a, e_b) off L at rho times the round's threshold fails it unless
    rho <= 1, where the round reads closed too.
    """
    r = len(rows)
    asked = (lie,) if product is lie else (lie, jordan)
    cost = 4 * r * len(asked)
    if cost >= rest:
        return False
    n = math.isqrt(rows.shape[1] // 2)
    c, w = _generic_pair(r)
    e = rows.view(complex).reshape(r, n, n)
    g = (c @ rows).view(complex).reshape(2, n, n)
    maps: list[np.ndarray] = []
    for p in asked:  # p(g_1, g_2) first: one product that, off L, ends a failing certificate
        coords = _coordinates(rows, _rows(_products(g[:1], g[1:], p)), w)
        if coords is not None:
            coords = _coordinates(rows, _pair_products(g, e, p), w)
        if coords is None:
            return False
        maps += list(coords.reshape(-1, r, r))
    k = _generated(c, maps)
    if len(k) == r:
        return True
    left = _extend(k, np.eye(r))
    if cost + len(left) * r * len(asked) >= rest:
        return False
    x = (left @ rows).view(complex).reshape(-1, n, n)
    return all(_coordinates(rows, _pair_products(x, e, p), w) is not None for p in asked)


def _round(rows: np.ndarray, new: int, product: Product, bound: int, memo: dict) -> Iterator[np.ndarray]:
    """The basis after each product block of one closure round that adds rows.

    The round ranks the products that involve a row ``>= new`` against the
    basis and the rows kept before them. It forms no product when ``rows``
    is at ``bound`` already, and stops once the kept rows reach it. Its
    first block holds ``max(_FIRST_BLOCK, 2 (bound - r))`` products: when
    most products are independent, a round reaches the bound in that block
    and forms no more. The certificate (``_certified``) is asked before any
    block, to beat the products after the first, which is one rank-kernel
    call; a pass ends the round with nothing added and sets ``memo[lie]``,
    since it proves every product it asked, ``lie`` among them. Lazy: a
    caller that only asks whether anything is added stops at the first
    kept block.
    """
    r = len(rows)
    if r >= bound:
        return
    first = max(_FIRST_BLOCK, 2 * (bound - r))
    if _certified(rows, product, len(_product_pairs(r, product, new)) - first):
        memo[lie] = True
        return
    n = math.isqrt(rows.shape[1] // 2)
    for block in _round_products(rows.view(complex).reshape(r, n, n), new, product, first):
        kept = _extend(rows, _rows(block))
        if len(kept):
            rows = np.concatenate((rows, kept))
            yield rows
            if len(rows) >= bound:
                return


def _close_rounds(s: RealSubspace, product: Product) -> tuple[RealSubspace, int, list[int]]:
    """``close_under`` with its round count and the dimension after each round.

    Every round but the last adds a row and the dimension is bounded, so the
    loop ends. The last round added nothing, which is the closedness verdict
    ``is_closed_under`` would reach, so the closure carries it in its memo,
    with ``lie``'s when a ``jordan`` certificate ended that round (``_round``).
    """
    _check_product(product)
    if s.dim_span == 0:
        return s, 0, [0]
    bound = _bound(s, product)
    rows = s.rows
    n = s.dim_ambient
    if product is lie and bound == n * n - 1:
        # the rows' identity part, at most SPAN_RTOL, goes: kept, the rank kernel could
        # grow it into a direction of its own and the closure past su(n)
        unit = _unit_identity(n)
        rows = _extend(rows[:0], rows - np.outer(rows @ unit, unit))
    trajectory = [len(rows)]
    proofs = {product: True}
    new = 0  # rows added by the previous round start here
    while True:
        r = len(rows)
        for rows in _round(rows, new, product, bound, proofs):
            pass  # rows: the basis after the round's last block that added any
        if len(rows) > bound:  # roundoff kept a direction, e.g. I from traceless seeds
            raise ValidationError(
                f"closure reached dim {len(rows)}, above its bound {bound}: ill-conditioned seeds"
            )
        trajectory.append(len(rows))
        if len(rows) == r:
            closed = RealSubspace(s.dim_ambient, rows)
            closed._memo.update(proofs)
            return closed, len(trajectory) - 1, trajectory
        new = r


def close_under(s: RealSubspace, product: Product) -> RealSubspace:
    """Smallest subspace containing s and closed under ``jordan`` or ``lie``.

    Breadth-first and semi-naive: each round ranks only the products that
    involve a basis element added in the previous round, appending the new
    directions to the basis, and the loop stops when a round adds none (at
    the dimension bound, ``_bound``, with no product formed). Raises
    ValidationError for any other product, and when a
    round ends above the bound, which only roundoff can cause. Idempotent;
    the closure is proven closed by its last round, so ``is_closed_under``
    answers for it from the memo.
    """
    _require_type("s", s, RealSubspace)
    closed, _, _ = _close_rounds(s, product)
    return closed


def is_closed_under(s: RealSubspace, product: Product) -> bool:
    """Whether a closure round from s under ``jordan`` or ``lie`` would add nothing.

    Runs that round (``_round``): the certificate first (``_certified``),
    and when it does not pass, up to the first product block that keeps a
    row; a block is ranked whole. A product lies in the span when its
    residual is at most ``SPAN_RTOL * max(1, ||p||)``, the rule
    ``contains`` applies to a single matrix. The certificate holds its products of two generic
    elements to that threshold times their weight w, so with one
    basis-pair product off the span it reads what the round reads; only
    residuals of two or more products off the span that cancel in the
    generic elements can make it read closed where the round would not
    (README's tolerance table). A span at its dimension bound
    is closed without a product formed: the full algebra under both
    products, su(n) under ``lie``. Verdicts are memoized on s; a
    certificate that passes under ``jordan`` records ``lie``'s too. Raises
    ValidationError for any other product.
    """
    _require_type("s", s, RealSubspace)
    _check_product(product)
    if product not in s._memo:
        s._memo[product] = next(_round(s.rows, 0, product, _bound(s, product), s._memo), None) is None
    return s._memo[product]


def require_closed(s: RealSubspace, product: Product) -> None:
    if not is_closed_under(s, product):
        raise NotClosed(f"subspace of dim {s.dim_span} is not closed under {product.__name__}")


def _ad_rows(e: np.ndarray, s: np.ndarray, rank: int) -> np.ndarray:
    """Orthonormal rows, in coordinates against the stack e, spanning the constraints x -> [sum_i x_i e_i, s_j].

    Each real entry of [e_i, s_j], over i, is a row; ``_extend`` ranks them ``max(1, _BLOCK // 2n^2)``
    elements s_j at a time, skipping all-zero rows, and the walk stops once the kept rows reach ``rank``.
    """
    k, step = len(e), max(1, _BLOCK // (2 * e.shape[-1] ** 2))
    kept = np.empty((0, k))
    for j in range(0, len(s), step):
        if len(kept) >= rank:
            break
        rows = _rows(_products(e[:, None], s[None, j : j + step], lie)).reshape(k, -1).T
        kept = np.concatenate((kept, _extend(kept, rows[rows.any(axis=1)])))
    return kept


def _central_rows(L: RealSubspace, S: RealSubspace) -> np.ndarray:
    """Orthonormal rows, in coordinates against L, spanning C_L(S) = {x in L : [x, s] = 0 for all s in S}.

    An S at its ``lie`` bound, Herm(n) or su(n), has commutant RI (Schur's lemma): I's unit row when L
    holds I, else none, with no bracket formed. Otherwise C_1, the centralizer in L of S's two generic
    elements (``_generic_pair``), is the complement of one walk's rows (``_ad_rows``, then ``_extend``
    from the unit vectors), and a second walk, with dim C_1 unknowns, imposes all of S inside it: C_1
    holds C_L(S), so genericity only keeps C_1 small. A walk stops one row short when L holds I.
    """
    r, n = L.dim_span, L.dim_ambient
    unit, central = L._coords(np.eye(n))
    if S.dim_span == _bound(S, lie):
        return unit[None] / math.sqrt(unit @ unit) if central else np.empty((0, r))
    if r == 0 or S.dim_span == 0:
        return np.eye(r)
    g = (_generic_pair(S.dim_span)[0] @ S.rows).view(complex).reshape(2, n, n)
    c = _extend(_ad_rows(L._stacked, g, r - central), np.eye(r))
    if len(c):
        kept = _ad_rows((c @ L.rows).view(complex).reshape(-1, n, n), S._stacked, len(c) - central)
        c = _extend(kept, np.eye(len(c))) @ c
    return c


def derived_algebra(L: RealSubspace) -> RealSubspace:
    """Span of all brackets of L, the derived algebra [L, L]. Memoized on L.

    L times i is compact, so [L, L] is the orthogonal complement in L of the center Z =
    ``_central_rows(L, L)`` (Knapp, *Lie Groups Beyond an Introduction*, ch. I): L's own rows when Z = 0,
    else rows c.. of Q^T ``L.rows`` for the complete QR Q R = Z^T of Z's c rows: its c Householder
    reflections, applied to ``L.rows`` one at a time in O(c r n^2), with no Q formed.
    """
    _require_type("L", L, RealSubspace)
    require_closed(L, lie)
    if "derived" not in L._memo:
        z, rows = _central_rows(L, L), L.rows
        if len(z):  # reflection k is I - t v v^T, v = (0_k, 1, h[k, k + 1:])
            (h, tau), rows = np.linalg.qr(z.T, mode="raw"), rows.copy()
            for k, t in enumerate(tau):
                v = np.concatenate(([1.0], h[k, k + 1 :]))
                rows[k:] -= t * np.outer(v, v @ rows[k:])
        L._memo["derived"] = RealSubspace(L.dim_ambient, rows[len(z) :])
    return L._memo["derived"]


def centralizer(L: RealSubspace, S: RealSubspace) -> RealSubspace:
    """Elements of L whose bracket with every element of S vanishes: ``_central_rows`` times ``L.rows``, orthonormal."""
    _require_type("L", L, RealSubspace)
    _require_type("S", S, RealSubspace)
    if L.dim_ambient != S.dim_ambient:
        raise DimensionMismatch(f"ambient dims differ: {L.dim_ambient} vs {S.dim_ambient}")
    return RealSubspace(L.dim_ambient, _central_rows(L, S) @ L.rows)


#: Defects at or below this are roundoff, so the defect queries name no
#: index for them, and ``is_commutative`` and ``is_jordan_associative``
#: count them as zero.
_DEFECT_FLOOR = DEFAULT_TOL.threshold(1.0)


#: A block of values over index triples: ``vals[p, j]`` belongs to ``(i[p], j, k[p])``.
_Block = tuple[np.ndarray, np.ndarray, np.ndarray]


def _brackets(L: RealSubspace, f: Callable[[np.ndarray], np.ndarray]) -> Iterator[_Block]:
    """Blocks ``(f(brackets), i, k)`` of the basis brackets ``[e_i, e_k]``, i < k.

    The one bracket stream of the defects, ``is_commutative`` and the
    associator criterion: row-major (i, k) order, ``_BLOCK``
    pairs a block, each formed in cache-sized chunks (``_block_products``).
    ``f`` maps each whole block before it is yielded, so no bracket block
    outlives its step.
    """
    e = L._stacked
    i, k = np.triu_indices(L.dim_span, 1)
    for s in range(0, len(i), _BLOCK):
        a, b = i[s : s + _BLOCK], k[s : s + _BLOCK]
        yield f(_block_products(e, a, b, lie)), a, b


def _first_max(blocks: Iterable[_Block]) -> tuple[float, tuple[int, int, int], float]:
    """Largest |value| over the blocks, its first row-major (i, j, k) and its signed value.

    The one tie rule of the pair and triple queries: the first in row-major
    (i, j, k) order wins. One ``np.lexsort`` orders a block's ties, so
    neither block nor row order matters. Triples in no block are 0.0, as
    ``(0, 0, 0)`` is (``[e_0, e_0] = 0``), where the scan starts.
    """
    best, idx, value = 0.0, (0, 0, 0), 0.0
    for vals, i, k in blocks:
        a = np.abs(vals).ravel()
        first = int(a.argmax())  # ties lie at or after it
        top = float(a[first])
        if top < best or top == 0.0:
            continue
        p, j = np.divmod(first + np.flatnonzero(a[first:] == top), vals.shape[1])
        q = int(np.lexsort((k[p], j, i[p]))[0])
        cand = (int(i[p[q]]), int(j[q]), int(k[p[q]]))
        if top > best or cand < idx:
            best, idx, value = top, cand, float(vals[p[q], j[q]])
    return best, idx, value


def _running_screen(floor: float) -> Callable[[np.ndarray], np.ndarray]:
    """Norms of stacks by ``_screened_opnorm`` against a running best: floor, then the largest so far.

    A norm below the running best is below the final best, so 0.0 stands
    for it; a norm that equals the final best always passes the screen, so
    ``_first_max`` sees every tie of the maximum, and a yes-or-no query that
    starts at its floor sees every norm above it.
    """
    best = floor

    def norms(x: np.ndarray) -> np.ndarray:
        nonlocal best
        out = _screened_opnorm(x, best)
        best = max(best, float(out.max(initial=0.0)))
        return out

    return norms


def commutator_defect(L: RealSubspace) -> tuple[float, tuple[int, int] | None]:
    """Largest bracket norm over basis pairs and the index pair attaining it.

    The pair is the first largest by ``_first_max``'s tie rule, and None
    when the largest norm is at most ``DEFAULT_TOL.threshold(1.0)`` (the
    value is still returned): below that every bracket is roundoff and
    which one is largest is noise. Only brackets whose HS norm can reach
    the running maximum get an SVD (``_running_screen``).
    """
    _require_type("L", L, RealSubspace)
    screen = _running_screen(0.0)
    best, (i, _, k), _ = _first_max(_brackets(L, lambda br: screen(br)[:, None]))
    return best, (i, k) if best > _DEFECT_FLOOR else None


def _associator_norms(L: RealSubspace) -> Iterator[_Block]:
    """Blocks of Jordan associator norms, ``vals[p, j] = ||assoc(e_i[p], e_j, e_k[p])||``, i < k.

    By the Jordan-Lie identity ``assoc(e_i, e_j, e_k) = [e_j, [e_k, e_i]]``
    each triple is one bracket ``[e_j, B]`` of a basis bracket B = [e_i, e_k]
    (the sign leaves the norm), read off the one ``_brackets`` pass. Only
    pairs whose B has HS norm above half of ``_DEFECT_FLOOR`` are formed:
    every other triple has norm at most that (``||e_j||_op <= 1``). The
    mirror (k, j, i) has the same norm and comes later in row-major order,
    so it is never formed. A kept pair's r brackets are formed, and normed,
    ``_stack_len(n, r)`` pairs at a time. Norms below the running best are 0.0
    (``_running_screen``): only associators that can reach it get an SVD.
    """
    e = L._stacked
    screen = _running_screen(0.0)
    for br, i, k in _brackets(L, lambda br: br):
        p = np.flatnonzero(np.linalg.norm(_rows(br), axis=1) > 0.5 * _DEFECT_FLOOR)
        if len(p):
            chunk = _stack_len(L.dim_ambient, len(e))
            vals = [screen(_products(e, br[q, None], lie)) for q in np.split(p, range(chunk, len(p), chunk))]
            yield np.concatenate(vals), i[p], k[p]


def associator_defect(L: RealSubspace) -> tuple[float, tuple[int, int, int] | None]:
    """Largest Jordan associator norm over basis triples, with its indices.

    The triple is the first largest by ``_first_max``'s tie rule, and None
    when the largest norm is at most ``DEFAULT_TOL.threshold(1.0)`` (the
    value is still returned), as in ``commutator_defect``. Each triple is
    one bracket [e_j, [e_k, e_i]], formed in one pass of the bracket
    stream, only for pairs whose bracket [e_k, e_i] is above half the floor
    in HS norm, and only with i < k (``_associator_norms``): a triple of
    any other pair is at most that, and (k, j, i) has the norm of (i, j,
    k), which comes first, so the value and the triple are those of all
    r^3 triples whenever a triple is named, and 0.0 stands for roundoff
    otherwise.
    """
    _require_type("L", L, RealSubspace)
    best, idx, _ = _first_max(_associator_norms(L))
    return best, idx if best > _DEFECT_FLOOR else None


def is_commutative(L: RealSubspace) -> bool:
    """Whether all brackets vanish on L. Requires closure under both products.

    ``commutator_defect(L)[0] <= _DEFECT_FLOOR``, answered at the first
    block of bracket norms above the floor.
    """
    _require_type("L", L, RealSubspace)
    require_closed(L, jordan)
    require_closed(L, lie)
    screen = _running_screen(_DEFECT_FLOOR)
    return all(norms.max() <= _DEFECT_FLOOR for norms, _, _ in _brackets(L, screen))


def is_jordan_associative(L: RealSubspace) -> bool:
    """Whether the Jordan associator vanishes on L: ``is_commutative(L)``, with its closure requirements.

    ``assoc(e_i, e_j, e_k) = [e_j, [e_k, e_i]]`` and ``||e_j||_op <= 1``, so no
    associator exceeds the largest bracket; L times i is compact, so a nonzero
    bracket lies in [L, L], which meets the center only in 0, and some e_j does
    not commute with it. The rule reads the largest bracket against
    ``_DEFECT_FLOOR``, so a largest associator under it can still read False.
    """
    return is_commutative(L)


def is_semisimple_lie(L: RealSubspace) -> bool:
    """Whether L, closed under ``lie``, is semisimple: whether its center is zero.

    L times i is a compact Lie algebra, so L = Z(L) + [L, L] (Knapp, *Lie
    Groups Beyond an Introduction*, ch. I): semisimple exactly when
    ``_central_rows(L, L)``, under ``SPAN_RTOL``, is empty. An L that holds
    the central I is not. The zero algebra is semisimple.
    """
    _require_type("L", L, RealSubspace)
    require_closed(L, lie)
    return len(_central_rows(L, L)) == 0


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


def _generation_report(seeds: list[np.ndarray], product: Product) -> GenerationReport:
    """Close span(seeds) under product; the generators are the first two seeds.

    ``jordan`` seeds are ``jordan_generate_three``'s, closed by ``_eigenframe_close``; ``lie`` seeds by the rounds.
    The target is the closure's dimension bound (``_bound``).
    """
    s = span(seeds)
    closed, rounds, trajectory = _eigenframe_close(s) if product is jordan else _close_rounds(s, product)
    target = _bound(s, product)
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

    The target is the closure's bound: n^2 - 1 (su(n), the traceless
    Hermitian space) when span{a, b} is orthogonal to the identity within
    ``SPAN_RTOL``, n^2 otherwise. A generic traceless pair generates the
    full target; degenerate pairs simply report generated False.
    """
    return _generation_report([as_matrix(a), as_matrix(b)], lie)


def _eigenframe_close(s: RealSubspace) -> tuple[RealSubspace, int, list[int]]:
    """The ``jordan`` closure of s = span{a, b, i[a, b], I} from the eigenframe of one element, else ``_close_rounds``.

    The closure J is Herm(W), W the *-algebra of a and b. ad a and ad b, x -> i[a, x], are derivations
    of the Jordan product (Leibniz) that map the seeds into J ([a, [a, b]] = 4(a^2 o b - a o (a o b))),
    so they preserve J; so does ad i[a, b] = [ad a, ad b] (Jacobi); and the z in J whose ad z preserves J
    are closed under o by [x o y, z] = x o [y, z] + [x, z] o y, so they are all of J. Closed under both
    products, J + iJ is a *-algebra, and it is W.

    s's first two rows span a and b (or hold I when they are dependent), so their ``_generic_pair``
    combinations g_1, g_2, of HS norm 1, generate W. When g_1 = V diag(w) V^H has a simple spectrum,
    W holds its spectral projectors v_i v_i^H, hence v_i v_j^H whenever the coupling |V^H g_2 V|_ij is
    nonzero, and everything in W is block-diagonal over the components of that graph: W = V (+) M_{n_k}
    V^H. The closure's rows are ``full_hermitian_space(n)``'s for one component, else each block's
    ``full_hermitian_basis`` conjugated by its columns V_k, and its memo holds ``jordan`` and ``lie``.
    A gap or coupling eps >= sqrt(``SPAN_RTOL``) is one the rounds resolve too, as eps^2 >= ``SPAN_RTOL``
    keeps its second-order products; a coupling at most ``SPAN_RTOL`` is roundoff to them. So the rounds
    decide, with the report of ``_close_rounds``, when a gap of w is at most sqrt(``SPAN_RTOL``), which
    a non-commutative commutant forces, and when a row of s lies off the blocks (``contains``). That
    covers a coupling between ``SPAN_RTOL`` and its square root that joins two components: g_2's part
    off the blocks has HS norm at least sqrt(2) times it, and g_2 is a unit combination of s's first two
    rows, so one of them lies at least the coupling off. Else the report is one round, trajectory
    [dim s, dim J].
    """
    n, edge = s.dim_ambient, math.sqrt(SPAN_RTOL)
    g = (_generic_pair(min(2, s.dim_span))[0] @ s.rows[:2]).view(complex).reshape(2, n, n)
    w, v = np.linalg.eigh(g[0])
    if np.diff(w).min(initial=edge + 1.0) > edge:
        reach = np.abs(v.conj().T @ g[1] @ v) >= edge
        np.fill_diagonal(reach, True)
        while not reach.all():  # components: square the reach matrix until it stops growing
            grown = reach @ reach
            if np.array_equal(grown, reach):
                break
            reach = grown
        first = reach.argmax(axis=1)  # each index's component, by its lowest member
        comps = [np.flatnonzero(first == k) for k in np.flatnonzero(first == np.arange(n))]
        closed = _block_space(v, comps)
        if len(comps) == 1 or _coordinates(closed.rows, s.rows, 1.0) is not None:
            closed._memo.update({jordan: True, lie: True})
            return closed, 1, [s.dim_span, closed.dim_span]
    return _close_rounds(s, jordan)


def _block_space(v: np.ndarray, comps: list[np.ndarray]) -> RealSubspace:
    """Herm of V (+) M_{n_k} V^H over the column sets ``comps`` of the unitary v; ``full_hermitian_space`` for one."""
    if len(comps) == 1:
        return full_hermitian_space(len(v))
    mats = [v[:, c] @ _full_stack(len(c)) @ v[:, c].conj().T for c in comps]
    return RealSubspace(len(v), _rows(np.concatenate(mats)))


def jordan_generate_three(a: np.ndarray, b: np.ndarray) -> GenerationReport:
    """Jordan closure of span{a, b, [a, b], I}, target n^2; a and b pass ``span``'s check first.

    The closure comes from the blocks of the eigenframe of a generic combination of a and b, in one
    reported round, or from the rounds where that frame is unclear (``_eigenframe_close``).
    """
    x = as_matrix(a)
    y = as_matrix(b)
    n = same_dim(x, y)
    _require_finite(x, y, limit=_ENTRY_LIMIT)
    return _generation_report([x, y, _lie(x, y), np.eye(n, dtype=complex)], jordan)


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

    Diagonalizes a generic random combination of the basis once. Its
    ascending eigencolumns fall into points at every gap between
    consecutive eigenvalues above ``POINT_MERGE_TOL``; a basis element's
    value at a point is the mean of its diagonal entries there in the
    eigenbasis. The table is accepted when its projectors rebuild every
    basis element to ``_RECONSTRUCTION_TOL``, the one test: a combination
    that misses a gap, or a basis it does not diagonalize, fails it, and a
    fresh combination is tried. The internal seeds are fixed, so the output
    is deterministic. Raises NotAssociative when the subalgebra is not
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
        w, vec = np.linalg.eigh(_combination(rng.standard_normal(r), stacked))
        diag = np.einsum("ak,iab,bk->ik", vec.conj(), stacked, vec).real
        groups = np.split(np.arange(n), np.flatnonzero(np.diff(w) > POINT_MERGE_TOL) + 1)
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
    ValidationError unless ``samples`` is an integer >= 0 and ``seed`` a
    valid seed. Sample t's coordinates of x, y and z are its ``(3, r)``
    draw of ``_trial_normals``, from trial 0 on; a stack of
    ``_stack_len(n)`` samples forms its x, y and z in one real matrix
    product on ``L.rows`` and is scored in one call per step. The counts
    are the per-sample loop's, and the worst cases equal its to roundoff.
    """
    _require_type("L", L, RealSubspace)
    samples = _require_count("samples", samples, 0)
    seed = _require_seed(seed)
    require_closed(L, jordan)
    r, n = L.dim_span, L.dim_ambient
    # per kind (Jordan product, square order): violations, lowest eigenvalue, first violation at it
    counts, lowest = [0, 0], [0.0, 0.0]
    worst: list[tuple[np.ndarray, np.ndarray, float] | None] = [None, None]
    for coords in _trial_normals(seed, 0, samples if r > 0 else 0, (3, r), _stack_len(n)):
        xyz = (coords.reshape(-1, r) @ L.rows).view(complex).reshape(-1, 3, n, n)
        sq = xyz @ xyz
        sq[:, 2] += sq[:, 1]
        a, b, big = sq[:, 0], sq[:, 1], sq[:, 2]
        na, nb, nbig = _opnorm(sq).T
        tests = ((a, b, _jordan(a, b), na * nb), (big, b, big @ big - b @ b, nbig**2 + nb**2))
        for kind, (p, q, m, scale) in enumerate(tests):
            lam = np.linalg.eigvalsh(m)[:, 0]
            hit = lam < -DEFAULT_TOL.threshold(scale)
            counts[kind] += int(np.count_nonzero(hit))
            k = int(np.argmin(np.where(hit, lam, np.inf)))
            if hit[k] and lam[k] < lowest[kind]:
                lowest[kind] = float(lam[k])
                worst[kind] = (p[k].copy(), q[k].copy(), lowest[kind])
    return PositivityReport(samples, *counts, *worst)
