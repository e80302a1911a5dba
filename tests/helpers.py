"""Shared fixtures and independent oracles for the test suite.

Oracles here deliberately avoid the package's own span/closure machinery:
ranks come from an SVD of stacked real vectorizations, 2x2 eigenvalues from
the quadratic formula, spans from per-matrix Gram-Schmidt, closures from
the all-pairs round loop, bracket queries from per-pair and per-triple
loops, the streamed associator defect from its whole-stack forms, the pair
kernel and the derived algebra from their index-form and re-spanning copies,
the rank kernel's visit loop from its pinned copy, the chunked
bracket stream from its one-stack blocks, the
associator criterion from its Jordan-tensor einsum, the bracket tensor
from its three-operand einsum, the Killing matrix
from the full grid of ad operators, ``verify`` reports from the per-trial
loop, positivity sampling from its per-sample loop, the batched subspace
helpers from their per-basis loops,
operator norms from ``np.linalg.norm(a, 2)``, ``function_representation``
from its joint-tuple merge loop, ``classify``'s disagreement report
from the three public verdicts, and the Jordan closure of a pair from its
constructing unitary and the support graph of its second element.
"""

from __future__ import annotations

import math

import numpy as np

from ljlab import (
    DimensionMismatch,
    EmptyInput,
    IdentityReport,
    NotInSpan,
    PositivityReport,
    State,
    ValidationError,
    associator,
    close_under,
    full_hermitian_basis,
    is_classical_associator,
    is_classical_center,
    is_classical_commutator,
    jordan,
    lie,
    random_state,
    span,
)
from ljlab.linalg import (
    DEFAULT_TOL,
    Tolerance,
    _opnorm,
    as_matrix,
    derive_seed,
    hs_norm,
    random_hermitian,
    same_dim,
)
from ljlab.subspace import (
    _BLOCK,
    _DEFECT_FLOOR,
    _DROP_RUN,
    _PANEL,
    _RECONSTRUCTION_TOL,
    POINT_MERGE_TOL,
    SPAN_RTOL,
    GenerationReport,
    RealSubspace,
    _bound,
    _close_rounds,
    _combination,
    _products,
    _row_norms,
    _rows,
    require_closed,
)

I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)

# PSD pair whose symmetrized product dips below zero
P0 = np.array([[1, 0], [0, 0]], dtype=complex)
AVR_B = 0.5 * (I2 + SX)

# a >= b >= 0 but a@a - b@b is indefinite
SQ_A = np.array([[1.5, 0.5], [0.5, 0.5]], dtype=complex)
SQ_B = P0


def spectral_norm(m: np.ndarray) -> float:
    """Largest singular value, as ``np.linalg.norm(a, 2)`` computes it.

    Verbatim body of ``ljlab.linalg.spectral_norm`` before it took the first
    singular value from ``np.linalg.svd``, so the oracles here do not share
    the package's norm kernel.
    """
    a = as_matrix(m)
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))


def rank_of(mats: list[np.ndarray], tol: float | None = None) -> int:
    """Real-span rank via stacked [Re | Im] vectorizations, independent of span()."""
    rows = [np.concatenate([m.real.ravel(), m.imag.ravel()]) for m in mats]
    stacked = np.stack(rows)
    if tol is None:
        return int(np.linalg.matrix_rank(stacked))
    sv = np.linalg.svd(stacked, compute_uv=False)
    return int(np.sum(sv > tol * max(1.0, sv[0])))


def eig2_oracle(m: np.ndarray) -> tuple[float, float]:
    """Eigenvalues of a 2x2 Hermitian matrix by the quadratic formula."""
    tr = float(np.real(m[0, 0] + m[1, 1]))
    det = float(np.real(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]))
    disc = math.sqrt(max(tr * tr - 4.0 * det, 0.0))
    return (tr - disc) / 2.0, (tr + disc) / 2.0


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    # fix the phase ambiguity so the result is a deterministic function of g
    return q * (np.diag(r) / np.abs(np.diag(r)))


def commutative_algebra(n: int, seed: int, count: int | None = None) -> RealSubspace:
    """Jordan closure of a conjugated-diagonal family: commutative by construction."""
    rng = np.random.default_rng(seed)
    u = random_unitary(n, rng)
    k = int(rng.integers(1, n + 1)) if count is None else count
    mats = [u @ np.diag(rng.standard_normal(n)) @ u.conj().T for _ in range(k)]
    return close_under(span(mats), jordan)


def block_2_1_algebra() -> RealSubspace:
    """Hermitian block-diag(2, 1) inside 3x3: a 5-dimensional subalgebra."""
    mats = []
    for small in (I2, SX, SY, SZ):
        m = np.zeros((3, 3), dtype=complex)
        m[:2, :2] = small
        mats.append(m)
    e22 = np.zeros((3, 3), dtype=complex)
    e22[2, 2] = 1.0
    mats.append(e22)
    return span(mats)


def block_algebra(sizes: tuple[int, ...]) -> RealSubspace:
    """All block-diagonal Hermitian matrices with the given block sizes."""
    n = sum(sizes)
    mats = []
    off = 0
    for k in sizes:
        for small in full_hermitian_basis(k):
            m = np.zeros((n, n), dtype=complex)
            m[off : off + k, off : off + k] = small
            mats.append(m)
        off += k
    return span(mats)


def conjugated(L: RealSubspace, u: np.ndarray) -> RealSubspace:
    """The span of u e u^H over the basis of L."""
    return span([u @ e @ u.conj().T for e in L.basis])


def sequential_span(matrices: list[np.ndarray], rtol: float = SPAN_RTOL) -> RealSubspace:
    """Per-matrix Gram-Schmidt span: the reference for the blocked rank kernel.

    Input order is preserved: each matrix is orthogonalized against the
    basis so far (two projection passes) and kept when its residual exceeds
    ``rtol * max(1, ||input||)``.
    """
    mats = [as_matrix(m) for m in matrices]
    if not mats:
        raise EmptyInput("span of an empty list is undefined; pass at least one matrix")
    n = same_dim(*mats)
    basis: list[np.ndarray] = []
    for m in mats:
        norm_in = hs_norm(m)
        v = m.astype(complex, copy=True)
        if basis:
            stacked = np.stack(basis)
            for _ in range(2):
                c = np.einsum("kab,ba->k", stacked, v).real
                v = v - np.tensordot(c, stacked, axes=1)
        res = float(np.linalg.norm(v))
        if res > rtol * max(1.0, norm_in):
            u = v / res
            u.setflags(write=False)
            basis.append(u)
    return RealSubspace(dim_ambient=n, rows=np.array(basis, dtype=complex).reshape(len(basis), n * n).view(float))


def jordan_rounds(a: np.ndarray, b: np.ndarray) -> GenerationReport:
    """``jordan_generate_three``'s report from the closure rounds alone (``_close_rounds``) on the span it takes.

    The rounds decide the inputs whose eigenframe is unclear; the tests of the rounds themselves run them here.
    """
    s = span([a, b, lie(a, b), np.eye(len(a), dtype=complex)])
    closed, rounds, trajectory = _close_rounds(s, jordan)
    target = _bound(s, jordan)
    return GenerationReport((a, b), closed.dim_span, target, closed.dim_span == target, rounds, tuple(trajectory), closed)


#: ``generated_by_pair`` takes only spectra whose consecutive values are at least this far apart, relative
#: to the largest: closer ones sit in the band where a numeric closure may read them either way.
ORACLE_GAP = 1e-3


def generated_by_pair(u: np.ndarray, w: np.ndarray, support: np.ndarray) -> tuple[list[int], np.ndarray]:
    """Block sizes and orthonormal real rows of the Jordan closure of {I, a, b, i[a, b]}, in closed form.

    The pair is a = u diag(w) u^H and b = u B u^H, u unitary, w simple, and B Hermitian with B_ij != 0 exactly
    where the symmetric boolean ``support`` is True off the diagonal. The *-algebra W of a and b holds a's
    spectral projectors u_i u_i^H, so u_i u_j^H wherever B_ij != 0, and it commutes with every projector onto
    a component's columns: W = u (+) M_{n_k} u^H over the components of the support graph (von Neumann's
    double commutant), and the closure is its Hermitian part, of dimension sum n_k^2. The rows are, per
    component in order of its lowest index, u_i u_i^H, then (u_i u_j^H + u_j u_i^H)/sqrt(2) and
    i(u_j u_i^H - u_i u_j^H)/sqrt(2) for i < j, Re and Im interleaved. Only u and the graph are read, with
    no eigensolver. Raises ValueError when w has two values closer than ``ORACLE_GAP`` times max |w|.
    """
    w = np.sort(np.asarray(w, dtype=float))
    if len(w) > 1 and np.diff(w).min() < ORACLE_GAP * np.abs(w).max():
        raise ValueError("the oracle needs a's eigenvalues ORACLE_GAP apart")
    n, seen, comps = len(u), set(), []
    for start in range(n):  # components by a depth-first walk of the support graph
        if start in seen:
            continue
        comp, todo = [], [start]
        seen.add(start)
        while todo:
            i = todo.pop()
            comp.append(i)
            for j in range(n):
                if support[i, j] and j not in seen:
                    seen.add(j)
                    todo.append(j)
        comps.append(sorted(comp))
    mats = []
    for comp in comps:
        for i in comp:
            mats.append(np.outer(u[:, i], u[:, i].conj()))
        for p, i in enumerate(comp):
            for j in comp[p + 1 :]:
                e = np.outer(u[:, i], u[:, j].conj())
                mats += [(e + e.conj().T) / math.sqrt(2.0), 1j * (e.conj().T - e) / math.sqrt(2.0)]
    rows = np.array(mats, dtype=complex).reshape(len(mats), n * n).view(float)
    return [len(c) for c in comps], rows


def _all_product_pairs(r: int, product) -> list[tuple[int, int]]:
    if product is jordan:
        return [(i, j) for i in range(r) for j in range(i, r)]
    return [(i, j) for i in range(r) for j in range(i + 1, r)]


def naive_close(s: RealSubspace, product) -> tuple[RealSubspace, int, list[int]]:
    """All-pairs closure rounds on ``sequential_span``: (closure, rounds, trajectory).

    Every round re-spans the basis with all its pairwise products and the
    loop stops at the first round that does not grow the dimension.
    """
    trajectory = [s.dim_span]
    cur = s
    rounds = 0
    while True:
        if cur.dim_span == 0:
            return cur, rounds, trajectory
        rounds += 1
        prods = [
            product(cur.basis[i], cur.basis[j])
            for i, j in _all_product_pairs(cur.dim_span, product)
        ]
        nxt = sequential_span(list(cur.basis) + prods)
        trajectory.append(nxt.dim_span)
        if nxt.dim_span == cur.dim_span:
            return nxt, rounds, trajectory
        cur = nxt


def loop_commutator_defect(L: RealSubspace) -> tuple[float, tuple[int, int] | None]:
    """Per-pair loop reference for ``commutator_defect``."""
    best = 0.0
    arg: tuple[int, int] | None = None
    r = L.dim_span
    for i in range(r):
        for j in range(i + 1, r):
            v = spectral_norm(lie(L.basis[i], L.basis[j]))
            if v > best:
                best, arg = v, (i, j)
    return best, arg


def loop_associator_defect(L: RealSubspace) -> tuple[float, tuple[int, int, int] | None]:
    """Per-triple loop reference for ``associator_defect``."""
    best = 0.0
    arg: tuple[int, int, int] | None = None
    r = L.dim_span
    E = L.basis
    for i in range(r):
        for j in range(r):
            left = jordan(E[i], E[j])
            for k in range(r):
                d = jordan(left, E[k]) - jordan(E[i], jordan(E[j], E[k]))
                v = spectral_norm(d)
                if v > best:
                    best, arg = v, (i, j, k)
    return best, arg


def stacked_associator_defect(L: RealSubspace) -> tuple[float, tuple[int, int, int] | None]:
    """``associator_defect`` as it was with the whole r^2 n^2 Jordan stack ``ejk``.

    The reference for the blocked query, bit for bit: the same products
    and norms, one first index at a time, read off the stack. Its pairs
    {i, k} are those whose bracket has HS norm above half of
    ``_DEFECT_FLOOR``, from one stack of the i < k brackets.
    """
    e, r = L._stacked, L.dim_span
    i, k = np.triu_indices(r, 1)
    keep = np.linalg.norm(_rows(_products(e[i], e[k], lie)), axis=1) > 0.5 * _DEFECT_FLOOR
    if not keep.any():
        return 0.0, None
    partners = np.zeros((r, r), dtype=bool)
    partners[i[keep], k[keep]] = partners[k[keep], i[keep]] = True
    ejk = _products(e[:, None], e[None], jordan)  # ejk[j, k] = e_j o e_k
    best, arg = 0.0, None
    for i in np.flatnonzero(partners.any(axis=1)):
        ks = np.flatnonzero(partners[i])
        left = _products(ejk[i, :, None], e[None, ks], jordan)
        norms = _opnorm(left - _products(e[i], ejk[:, ks], jordan))
        j, k = np.unravel_index(int(np.argmax(norms)), norms.shape)
        if norms[j, k] > best:
            best, arg = float(norms[j, k]), (int(i), int(j), int(ks[k]))
    return best, arg if best > _DEFECT_FLOOR else None


def stacked_bracket_associator_defect(L: RealSubspace) -> tuple[float, tuple[int, int, int] | None]:
    """``associator_defect`` as one bracket per triple, over all kept pairs in one stack.

    The reference for the streamed query, bit for bit: the associator of
    (i, j, k), i < k, is ``lie(e_j, B)`` up to sign, B = ``lie(e_i, e_k)``,
    for the pairs whose B has HS norm above half of ``_DEFECT_FLOOR``; the
    first largest in row-major (i, j, k) order is named.
    """
    e, r = L._stacked, L.dim_span
    i, k = np.triu_indices(r, 1)
    br = _products(e[i], e[k], lie)
    keep = np.linalg.norm(_rows(br), axis=1) > 0.5 * _DEFECT_FLOOR
    if not keep.any():
        return 0.0, None
    norms = _opnorm(_products(e, br[keep, None], lie))  # norms[p, j] of (i[keep][p], j, k[keep][p])
    best = float(norms.max())
    p, j = np.nonzero(norms == best)
    i, k = i[keep][p], k[keep][p]
    q = int(np.lexsort((k, j, i))[0])
    return best, (int(i[q]), int(j[q]), int(k[q])) if best > _DEFECT_FLOOR else None


def loop_centralizer(
    L: RealSubspace, S: RealSubspace, tol: Tolerance = DEFAULT_TOL
) -> RealSubspace:
    """Per-pair loop reference for ``centralizer``: one column per basis element of L."""
    if L.dim_ambient != S.dim_ambient:
        raise DimensionMismatch(
            f"ambient dims differ: {L.dim_ambient} vs {S.dim_ambient}"
        )
    if L.dim_span == 0 or S.dim_span == 0:
        return L
    n = L.dim_ambient
    cols = np.empty((2 * n * n * S.dim_span, L.dim_span))
    for i, e in enumerate(L.basis):
        parts = []
        for s in S.basis:
            br = lie(e, s)
            parts.append(br.real.ravel())
            parts.append(br.imag.ravel())
        cols[:, i] = np.concatenate(parts)
    _, sv, vh = np.linalg.svd(cols, full_matrices=False)
    cut = tol.zero_tol * max(1.0, float(sv[0]) if sv.size else 0.0)
    mats = []
    for i in range(vh.shape[0]):
        if i < sv.size and sv[i] > cut:
            continue
        m = np.tensordot(vh[i], L._stacked, axes=1)
        m.setflags(write=False)
        mats.append(m)
    return RealSubspace(dim_ambient=n, rows=np.array(mats, dtype=complex).reshape(len(mats), n * n).view(float))


# Verbatim copies of the per-basis loops from before ``RealSubspace`` stored
# one row array: the references for their batched forms. The two
# ``FunctionRepresentation`` methods take the representation as ``fr``.


def loop_full_hermitian_basis(n: int) -> list[np.ndarray]:
    if n < 1:
        raise DimensionMismatch(f"dimension must be >= 1, got {n}")
    mats: list[np.ndarray] = []
    for k in range(n):
        m = np.zeros((n, n), dtype=complex)
        m[k, k] = 1.0
        mats.append(m)
    inv = 1.0 / math.sqrt(2.0)
    for i in range(n):
        for j in range(i + 1, n):
            s = np.zeros((n, n), dtype=complex)
            s[i, j] = inv
            s[j, i] = inv
            mats.append(s)
            y = np.zeros((n, n), dtype=complex)
            y[i, j] = -1j * inv
            y[j, i] = 1j * inv
            mats.append(y)
    for m in mats:
        m.setflags(write=False)
    return mats


def loop_jordan_commute(a, b, ambient, tol: Tolerance = DEFAULT_TOL) -> bool:
    x = as_matrix(a)
    y = as_matrix(b)
    n = same_dim(x, y)
    if ambient.dim_ambient != n:
        raise DimensionMismatch(
            f"ambient dimension {ambient.dim_ambient} does not match operands of dim {n}"
        )
    for label, m in (("a", x), ("b", y)):
        if not ambient.contains(m):
            raise NotInSpan(f"operand {label} is not in the ambient subspace")
    threshold = tol.threshold(spectral_norm(x) * spectral_norm(y))
    for e in ambient.basis:
        defect = jordan(x, jordan(y, e)) - jordan(y, jordan(x, e))
        if spectral_norm(defect) > threshold:
            return False
    return True


def loop_evaluate(fr, m: np.ndarray) -> np.ndarray:
    a = as_matrix(m)
    out = np.empty(fr.num_points)
    for x, p in enumerate(fr.projectors):
        rank = max(1, round(float(np.real(np.trace(p)))))
        out[x] = float(np.real(np.sum(p * a.T))) / rank
    return out


def loop_reconstruct(fr, i: int) -> np.ndarray:
    out = np.zeros((fr.subspace.dim_ambient,) * 2, dtype=complex)
    for x, p in enumerate(fr.projectors):
        out += fr.points[x, i] * p
    return out


def loop_function_representation(L: RealSubspace) -> tuple[np.ndarray, np.ndarray]:
    """Points and projector stack by the joint-tuple algorithm, for a commuting associative L with r > 0.

    Each attempt rotates the whole basis into the eigenbasis of the same
    generic combination, requires every rotated element to be diagonal
    within 1e-10 of its largest diagonal entry, merges eigencolumns whose
    value tuples agree within ``POINT_MERGE_TOL`` one column at a time, and
    accepts the reconstruction test. AssertionError when no attempt passes.
    """
    stacked = L._stacked
    n = L.dim_ambient
    for attempt in range(8):
        c = np.random.default_rng(24251 + attempt).standard_normal(L.dim_span)
        _, vec = np.linalg.eigh(_combination(c, stacked))
        rot = np.einsum("ak,iab,bl->ikl", vec.conj(), stacked, vec)
        diag = np.einsum("ikk->ik", rot).real
        off = np.abs(rot)
        off[:, np.arange(n), np.arange(n)] = 0.0
        if float(off.max()) > 1e-10 * max(1.0, float(np.max(np.abs(diag)))):
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
        if float(np.max(np.linalg.norm(recon - stacked, axis=(1, 2)))) <= _RECONSTRUCTION_TOL:
            return points, projectors
    raise AssertionError("no attempt diagonalized the basis")


def vector_loop_centralizer(
    L: RealSubspace, S: RealSubspace, tol: Tolerance = DEFAULT_TOL
) -> RealSubspace:
    """``centralizer`` with its batched columns and its per-null-vector loop."""
    if L.dim_ambient != S.dim_ambient:
        raise DimensionMismatch(
            f"ambient dims differ: {L.dim_ambient} vs {S.dim_ambient}"
        )
    if L.dim_span == 0 or S.dim_span == 0:
        return L
    n = L.dim_ambient
    # column i: Re and Im of [e_i, s_j] for each j in turn
    i, j = np.divmod(np.arange(L.dim_span * S.dim_span), S.dim_span)
    br = lie(L._stacked[i], S._stacked[j])
    cols = np.stack((br.real, br.imag), axis=1).reshape(L.dim_span, -1).T
    _, sv, vh = np.linalg.svd(cols, full_matrices=False)
    cut = tol.zero_tol * max(1.0, float(sv[0]) if sv.size else 0.0)
    mats = []
    for i in range(vh.shape[0]):
        if i < sv.size and sv[i] > cut:
            continue
        m = np.tensordot(vh[i], L._stacked, axes=1)
        m.setflags(write=False)
        mats.append(m)
    return RealSubspace(dim_ambient=n, rows=np.array(mats, dtype=complex).reshape(len(mats), n * n).view(float))


def einsum_associator_values(s, L: RealSubspace) -> np.ndarray:
    """vals[i, j, k] = Tr(rho assoc(e_i, e_j, e_k)) by the Jordan-tensor einsum.

    Verbatim body of ``is_classical_associator`` before it became a
    contraction of the Lie structure constants.
    """
    stacked = L._stacked
    rho = s.rho
    # srho[k] = rho o e_k; Tr(rho (x o y)) = Tr((rho o x) y) by cyclicity
    srho = 0.5 * (
        np.einsum("ab,kbc->kac", rho, stacked) + np.einsum("kab,bc->kac", stacked, rho)
    )
    t1 = np.einsum("iab,jbc->ijac", stacked, stacked)
    jprod = 0.5 * (t1 + t1.transpose(1, 0, 2, 3))
    term1 = np.einsum("ijab,kba->ijk", jprod, srho)
    term2 = np.einsum("iab,jkba->ijk", srho, jprod)
    return np.real(term1 - term2)


def einsum_bracket_expectations(s, L: RealSubspace) -> np.ndarray:
    """C[i, j] = Tr(rho [e_i, e_j]) over basis pairs of L, by a three-operand einsum.

    Verbatim body of ``states._bracket_expectations`` before the pair table
    became one matrix product.
    """
    stacked = L._stacked
    t = np.einsum("ab,ibc,jca->ij", s.rho, stacked, stacked)
    return np.real(0.5j * (t - t.T))


def complex_bracket_expectations(s, L: RealSubspace) -> np.ndarray:
    """C[i, j] = Tr(rho [e_i, e_j]) over basis pairs of L, from the complex pair table.

    The oracle of ``states._bracket_expectations``, which takes C from one
    real product of the rows of ``i rho e_i`` against ``L.rows``. Here the
    table ``t[i, j] = Tr(rho e_i e_j)`` is one complex product of ``rho
    e_i`` flattened against each ``e_j`` transposed, and C is ``Re(0.5j (t -
    t^T))``: the package's C before it dropped the transposed copy of L's
    basis that this table needs.
    """
    e, r, n = L._stacked, L.dim_span, L.dim_ambient
    t = (s.rho @ e).reshape(r, n * n) @ e.transpose(0, 2, 1).reshape(r, n * n).T
    return np.real(0.5j * (t - t.T))


def residual_contains(L: RealSubspace, m: np.ndarray) -> bool:
    """Verbatim rule of ``RealSubspace.contains`` before it came from ``_coords``: the residual
    of m's row against L at most ``SPAN_RTOL * max(1, ||m||_HS)``."""
    row = L._row(m)
    d = row - (row @ L.rows.T) @ L.rows
    return math.sqrt(d @ d) <= SPAN_RTOL * max(1.0, math.sqrt(row @ row))


def ad_killing_matrix(L: RealSubspace) -> np.ndarray:
    """Killing matrix from the full r x r grid of ad operators.

    Verbatim body of ``is_semisimple_lie`` before it took the structure
    constants of the i < k brackets.
    """
    r = L.dim_span
    # ad[x, k, j] = coefficient of e_k in [e_x, e_j]
    x, j = np.indices((r, r)).reshape(2, -1)
    ad = (_rows(lie(L._stacked[x], L._stacked[j])) @ L.rows.T).reshape(r, r, r).swapaxes(1, 2)
    return np.einsum("xij,yji->xy", ad, ad)


# The dense Lie structure constants, from before the library dropped them:
# the reference for their total antisymmetry.


def dense_structure_constants(L: RealSubspace) -> tuple[np.ndarray, float]:
    """Lie structure constants ``F`` of L and how far its brackets leave L.

    ``F[k, i]`` holds the coordinates of ``lie(e_k, e_i)``; only the i < k
    brackets are formed (in ``_BLOCK``-sized batches) and the table is
    antisymmetrized, so ``F[k, i] == -F[i, k]`` exactly. The second value
    is the largest Hilbert-Schmidt residual of a basis bracket off L,
    taken from the explicit difference: ``||p||^2 - ||coords||^2`` loses
    everything below about 1e-8, the size of the thresholds it serves.
    """
    r = L.dim_span
    F = np.zeros((r, r, r))
    delta = 0.0
    i, k = np.triu_indices(r, 1)
    for s in range(0, len(i), _BLOCK):
        a, b = i[s : s + _BLOCK], k[s : s + _BLOCK]
        p = _products(L._stacked[a], L._stacked[b], lie)
        c = _rows(p) @ L.rows.T
        F[a, b] = c
        F[b, a] = -c
        delta = max(delta, float(np.linalg.norm(_rows(p) - c @ L.rows, axis=1).max()))
    return F, delta


def stacked_bracket_blocks(L: RealSubspace):
    """``(brackets, i, k)`` of the i < k basis pairs, ``_BLOCK`` pairs a block,
    each block formed as one ``_products`` stack: the bracket stream from
    before blocks were formed in cache-sized chunks."""
    i, k = np.triu_indices(L.dim_span, 1)
    for s in range(0, len(i), _BLOCK):
        a, b = i[s : s + _BLOCK], k[s : s + _BLOCK]
        yield _products(L._stacked[a], L._stacked[b], lie), a, b


# Verbatim copies of the index-form pair kernel and of ``derived_algebra``
# from before the kernel took operand stacks and the derived algebra was read
# off the structure constants: the references for both. The derived algebra
# copy leaves out the memo, which would hand its result to the code it judges.


def index_products(e: np.ndarray, i: np.ndarray, j: np.ndarray, product) -> np.ndarray:
    """``product(e[i_k], e[j_k])`` for each index pair, as a (k, n, n) stack.

    For ``jordan`` and ``lie`` one stacked matmul gives ``e_i e_j``; its
    conjugate transpose is ``e_j e_i`` because the basis is Hermitian.
    """
    if product is jordan or product is lie:
        p = e[i] @ e[j]
        ph = p.conj().swapaxes(1, 2)
        return 0.5 * (p + ph) if product is jordan else 0.5j * (p - ph)
    mats = [as_matrix(product(e[a], e[b])) for a, b in zip(i, j)]
    same_dim(e[0], *mats)
    return np.stack(mats)


def respan_derived_algebra(L: RealSubspace) -> RealSubspace:
    """Span of all brackets of L, the derived algebra [L, L]."""
    require_closed(L, lie)
    r = L.dim_span
    if r < 2:
        d = RealSubspace(L.dim_ambient, L.rows[:0])
    else:
        i, j = np.triu_indices(r, 1)
        brackets = index_products(L._stacked, i, j, lie)
        # brackets of basis pairs already span [L, L]; one closure round confirms
        d = close_under(span(list(brackets)), lie)
    return d


# Verbatim copies of the rank kernel ``subspace._extend`` and its ``_sweep``
# from before the visit loop skipped the pass against an empty pending
# panel, compared thresholds as floats and normalized in place, and before
# ``_sweep`` skipped the copy of a block that stays in place: the bit-for-bit
# reference for those edits.


def pinned_extend(basis: np.ndarray, cand: np.ndarray) -> np.ndarray:
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
        v, thr = _pinned_sweep(v, thr, out[applied:k])
        applied, run = k, 0
        for i, x in enumerate(v):
            x = x - (out[applied:k] @ x) @ out[applied:k]
            x = x - (q[: b + k] @ x) @ q[: b + k]
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


def _pinned_sweep(v: np.ndarray, thr: np.ndarray, panel: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    m = 0
    for s in range(0, len(v), _BLOCK):
        w, t = v[s : s + _BLOCK], thr[s : s + _BLOCK]
        if len(panel):
            w -= (w @ panel.T) @ panel
        keep = _row_norms(w) > t
        c = int(np.count_nonzero(keep))
        v[m : m + c], thr[m : m + c] = w[keep], t[keep]
        m += c
    return v[:m], thr[:m]


# Verbatim copies of the identity checkers from before they evaluated the
# identities as stacks: the bit-for-bit reference for the public ``check_*``
# functions. Thresholds follow ``Tolerance.threshold`` as it was then, with
# the builtin ``max``.


def _loop_threshold(tol: Tolerance, scale: float) -> float:
    return tol.zero_tol * max(1.0, float(scale))


def _report(name: str, defect: np.ndarray, scale: float, tol: Tolerance) -> IdentityReport:
    residual = spectral_norm(defect)
    threshold = _loop_threshold(tol, scale)
    return IdentityReport(name=name, residual=residual, threshold=threshold, passed=residual <= threshold)


def loop_check_jacobi(a, b, c, tol: Tolerance = DEFAULT_TOL) -> IdentityReport:
    defect = lie(lie(a, b), c) + lie(lie(b, c), a) + lie(lie(c, a), b)
    scale = spectral_norm(a) * spectral_norm(b) * spectral_norm(c)
    return _report("jacobi", defect, scale, tol)


def loop_check_leibniz(a, b, c, tol: Tolerance = DEFAULT_TOL) -> IdentityReport:
    defect = lie(a, jordan(b, c)) - jordan(lie(a, b), c) - jordan(b, lie(a, c))
    scale = spectral_norm(a) * spectral_norm(b) * spectral_norm(c)
    return _report("leibniz", defect, scale, tol)


def loop_check_associator_identity(a, b, c, tol: Tolerance = DEFAULT_TOL) -> IdentityReport:
    defect = associator(a, b, c) - lie(b, lie(c, a))
    scale = spectral_norm(a) * spectral_norm(b) * spectral_norm(c)
    return _report("associator-identity", defect, scale, tol)


def loop_check_weak_associativity(a, b, tol: Tolerance = DEFAULT_TOL) -> IdentityReport:
    sq = jordan(a, a)
    defect = jordan(jordan(sq, b), a) - jordan(sq, jordan(b, a))
    na = spectral_norm(a)
    scale = na**3 * spectral_norm(b)
    return _report("weak-associativity", defect, scale, tol)


def loop_check_norm_axioms(a, b, tol: Tolerance = DEFAULT_TOL) -> IdentityReport:
    na = spectral_norm(a)
    nb = spectral_norm(b)
    sq_a = jordan(a, a)
    sq_b = jordan(b, b)
    v_sub = spectral_norm(jordan(a, b)) - na * nb
    v_square = abs(spectral_norm(sq_a) - na * na)
    v_dominance = spectral_norm(sq_a) - spectral_norm(sq_a + sq_b)
    residual = max(v_sub, v_square, v_dominance)
    scale = max(na * nb, na * na, nb * nb)
    threshold = _loop_threshold(tol, scale)
    return IdentityReport(
        name="norm-axioms",
        residual=residual,
        threshold=threshold,
        passed=residual <= threshold,
    )


LOOP_CHECKERS = (
    ("jacobi", loop_check_jacobi, 3),
    ("leibniz", loop_check_leibniz, 3),
    ("associator-identity", loop_check_associator_identity, 3),
    ("weak-associativity", loop_check_weak_associativity, 2),
    ("norm-axioms", loop_check_norm_axioms, 2),
)


def _hermitian_trial(a, b, c) -> tuple[tuple[str, float, float], ...]:
    """Each identity's name, residual and norm scale on one trial of Hermitian a, b and c.

    The five formulas written out: each Jordan or Lie product from its one
    matmul x @ y, whose conjugate transpose is y @ x, and each norm the
    largest |eigenvalue|, with no screen.
    """

    def jo(x, y):
        p = x @ y
        return 0.5 * (p + p.conj().T)

    def li(x, y):
        p = x @ y
        return 0.5j * (p - p.conj().T)

    def norm(x):
        return float(np.max(np.abs(np.linalg.eigvalsh(x))))

    na, nb, nc = norm(a), norm(b), norm(c)
    sq_a, sq_b = jo(a, a), jo(b, b)
    norm_sq_a = norm(sq_a)
    return (
        ("jacobi", norm(li(li(a, b), c) + li(li(b, c), a) + li(li(c, a), b)), na * nb * nc),
        ("leibniz", norm(li(a, jo(b, c)) - jo(li(a, b), c) - jo(b, li(a, c))), na * nb * nc),
        ("associator-identity", norm(jo(jo(a, b), c) - jo(a, jo(b, c)) - li(b, li(c, a))), na * nb * nc),
        ("weak-associativity", norm(jo(jo(sq_a, b), a) - jo(sq_a, jo(b, a))), na**3 * nb),
        (
            "norm-axioms",
            max(norm(jo(a, b)) - na * nb, abs(norm_sq_a - na * na), norm_sq_a - norm(sq_a + sq_b)),
            max(na * nb, na * na, nb * nb),
        ),
    )


def loop_verify_checks(
    dims: tuple[int, ...], trials: int, seed: int, tol: Tolerance = DEFAULT_TOL, operands=None
) -> list[dict]:
    """The ``checks`` list of a ``verify`` report, one trial and one identity at a time.

    The loop draws a dimension's trials in order from one generator, as
    ``verify`` does, and judges each residual at ``_loop_threshold``.
    ``operands``, if given, maps each trial's a, b and c before they are judged.
    """
    checks = []
    for d, n in enumerate(dims):
        worst: dict[str, float] = {}
        ok: dict[str, bool] = {}
        # a dimension's trials draw in order from one generator, seeded at its first trial's index
        rng = np.random.default_rng(derive_seed(seed, d * trials))
        for _ in range(trials):
            abc = tuple(random_hermitian(n, rng) for _ in range(3))
            for name, residual, scale in _hermitian_trial(*(operands(*abc) if operands else abc)):
                worst[name] = max(worst.get(name, 0.0), residual)
                ok[name] = ok.get(name, True) and residual <= _loop_threshold(tol, scale)
        checks += [{"name": name, "dim": n, "max_residual": worst[name], "passed": ok[name]} for name in worst]
    return checks


def _zero_tensor(s, L):
    return np.zeros((L.dim_span, L.dim_span))


def _zero_brackets(s, e):
    return np.zeros(np.shape(e), dtype=complex)


def _never(*args):
    return False


#: Patches of ``ljlab.states``, as (name, replacement) pairs, that make the
#: criteria split on a random state of the full algebra: a zero bracket
#: tensor C makes the commutator criterion classical; zero brackets ``[rho,
#: e]`` leave C intact and make the associator and center criteria
#: classical, in classify's classical bounds and in the full verdicts
#: alike. The center quantum bound reads only C, so it is switched off
#: too, and the center flag splits from the commutator verdict.
DISAGREEMENTS = {
    "zero-tensor": (("_bracket_expectations", _zero_tensor),),
    "zero-brackets": (("_lie", _zero_brackets), ("_center_quantum", _never)),
}


def split_state() -> State:
    """rho_t = (1 - t) I / 3 + t sigma at t = 10^-7.5, sigma = ``random_state(3, seed=3)``.

    On ``full_hermitian_space(3)`` it splits the criteria with no patch:
    the commutator violation is just above ``CLASSICALITY_RTOL``, the
    associator and center violations just below it. No first-step bound
    settles either flag, so both are their criterion's own verdict.
    """
    t = 10**-7.5
    return State((1 - t) * np.eye(3, dtype=complex) / 3 + t * random_state(3, seed=3).rho)


def disagreement_message(s: State, L: RealSubspace) -> str:
    """The CriteriaDisagree message the public verdicts give, under whatever patch is in place."""
    verdicts = (f(s, L) for f in (is_classical_associator, is_classical_commutator, is_classical_center))
    detail = ", ".join(
        f"{name}={v.classical} (violation {v.max_violation:.3e})"
        for name, v in zip(("associator", "commutator", "center"), verdicts)
    )
    return f"classicality criteria disagree: {detail}"


# ``check_positivity_closure`` one sample at a time, every sample drawing
# in order from one generator: the bit-for-bit reference for the stacked
# form. Norms come from this module's ``spectral_norm``.


def loop_positivity_closure(L: RealSubspace, samples: int, seed: int) -> PositivityReport:
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
    rng = np.random.default_rng(derive_seed(seed, 0))
    for _ in range(samples if r > 0 else 0):
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
