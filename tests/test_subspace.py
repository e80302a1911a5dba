from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from helpers import (
    I2,
    SX,
    SY,
    SZ,
    ad_killing_matrix,
    block_2_1_algebra,
    block_algebra,
    commutative_algebra,
    conjugated,
    dense_structure_constants,
    index_products,
    loop_associator_defect,
    loop_centralizer,
    loop_commutator_defect,
    loop_evaluate,
    loop_full_hermitian_basis,
    loop_reconstruct,
    random_unitary,
    stacked_associator_defect,
    rank_of,
    respan_derived_algebra,
    vector_loop_centralizer,
)
from ljlab import (
    DimensionMismatch,
    EmptyInput,
    NotAssociative,
    NotClosed,
    NotHermitian,
    ValidationError,
    associator_defect,
    centralizer,
    check_positivity_closure,
    close_under,
    commutator_defect,
    derived_algebra,
    full_hermitian_basis,
    full_hermitian_space,
    function_representation,
    hs_inner,
    is_closed_under,
    is_commutative,
    is_hermitian,
    is_jordan_associative,
    is_semisimple_lie,
    jordan,
    jordan_generate_three,
    lie,
    lie_generate,
    random_hermitian,
    span,
    traceless,
)
from ljlab import subspace as subspace_mod
from ljlab.products import associator
from ljlab.states import classify, random_state
from ljlab.linalg import DEFAULT_TOL, _opnorm, spectral_norm
from ljlab.subspace import (
    _DEFECT_FLOOR,
    SPAN_RTOL,
    FunctionRepresentation,
    RealSubspace,
    _killing_matrix,
    _products,
    _rows,
    require_closed,
)


# ---------------------------------------------------------------- bases


def test_full_hermitian_basis_is_orthonormal():
    for n in (1, 2, 3, 4):
        basis = full_hermitian_basis(n)
        assert len(basis) == n * n
        for i, a in enumerate(basis):
            assert is_hermitian(a)
            for j, b in enumerate(basis):
                expected = 1.0 if i == j else 0.0
                assert hs_inner(a, b) == pytest.approx(expected, abs=1e-12)


def test_full_hermitian_space_is_closed():
    full = full_hermitian_space(3)
    assert full.dim_span == 9
    assert is_closed_under(full, jordan)
    assert is_closed_under(full, lie)


# ---------------------------------------------------------------- span


def test_span_of_paulis():
    s = span([I2, SX, SY, SZ])
    assert s.dim_span == 4
    assert s.dim_ambient == 2
    gram = np.array([[hs_inner(a, b) for b in s.basis] for a in s.basis])
    np.testing.assert_allclose(gram, np.eye(4), atol=1e-12)


def test_span_discards_dependent_inputs():
    assert span([SX, SX]).dim_span == 1
    assert span([SX, 2 * SX + SZ]).dim_span == 2
    assert span([np.zeros((2, 2))]).dim_span == 0
    assert span([SX, np.zeros((2, 2)), SX + 1e-14 * SZ]).dim_span == 1


def test_span_empty_input_raises():
    with pytest.raises(EmptyInput):
        span([])


def test_span_rejects_non_hermitian_input():
    nil = np.array([[0, 1], [0, 0]], dtype=complex)
    for mats in ([nil], [SX, nil], [SX, 1j * SX], [np.eye(2), SX + 1e-6j * np.eye(2)]):
        with pytest.raises(NotHermitian):
            span(mats)
    with pytest.raises(NotHermitian):
        lie_generate(nil, SX)
    with pytest.raises(NotHermitian):
        lie_generate(SX, nil.T)


def test_span_accepts_whatever_is_hermitian_accepts():
    # a defect just under the operator-norm threshold of is_hermitian passes
    # span, whose threshold is taken at the larger HS norm
    for n in (2, 3, 5):
        for scale in (0.1, 1.0, 1e3, 1e6):
            m = scale * random_hermitian(n, seed=n)
            thr = DEFAULT_TOL.threshold(spectral_norm(m))
            m[0, 1] += 0.99 * thr
            assert is_hermitian(m)
            assert span([m]).dim_span == 1
            m[0, 1] += 2.0 * DEFAULT_TOL.threshold(np.linalg.norm(m))
            assert not is_hermitian(m)
            with pytest.raises(NotHermitian):
                span([m])


def test_span_rank_matches_svd_oracle():
    for n in range(2, 9):
        for i in range(50):
            rng = np.random.default_rng(i)
            k = int(rng.integers(1, 8))
            mats = []
            pool = [random_hermitian(n, seed=100 * i + j) for j in range(4)]
            for _ in range(k):
                coeff = rng.standard_normal(4)
                mats.append(sum(c * p for c, p in zip(coeff, pool)))
            assert span(mats).dim_span == rank_of(mats)


def test_span_is_deterministic():
    mats = [random_hermitian(3, seed=j) for j in range(5)]
    s1 = span(mats)
    s2 = span(mats)
    assert s1.dim_span == s2.dim_span
    for a, b in zip(s1.basis, s2.basis):
        np.testing.assert_array_equal(a, b)


def test_span_basis_is_readonly():
    s = span([SX, SZ])
    with pytest.raises(ValueError):
        s.basis[0][0, 0] = 5.0


def test_projection_and_containment():
    s = span([SX, SZ])
    member = 0.3 * SX - 1.7 * SZ
    np.testing.assert_allclose(s.project(member), member, atol=1e-12)
    assert s.contains(member)
    assert not s.contains(SY)
    assert s.residual(SY) == pytest.approx(np.sqrt(2.0), rel=1e-9)
    coeffs = s.coeffs(s.basis[1])
    np.testing.assert_allclose(coeffs, [0.0, 1.0], atol=1e-12)


# ---------------------------------------------------------------- closure


def test_close_under_jordan_grows_diagonal_algebra():
    seed_mat = np.diag([1.0, 2.0]).astype(complex)
    closed = close_under(span([seed_mat]), jordan)
    assert closed.dim_span == 2
    assert is_closed_under(closed, jordan)


def test_close_under_is_idempotent():
    full = full_hermitian_space(2)
    again = close_under(full, jordan)
    assert again.dim_span == full.dim_span
    su2 = span([SX, SY, SZ])
    assert close_under(su2, lie).dim_span == 3


def test_close_under_lie_from_two_paulis():
    closed = close_under(span([SX, SY]), lie)
    assert closed.dim_span == 3
    assert closed.contains(SZ / np.sqrt(2))


def test_zero_dimensional_closure():
    z = span([np.zeros((2, 2))])
    assert close_under(z, jordan).dim_span == 0


# ---------------------------------------------------------------- derived / centralizer


def test_derived_algebra_of_full_is_traceless():
    full = full_hermitian_space(2)
    d = derived_algebra(full)
    assert d.dim_span == 3
    for m in d.basis:
        assert abs(np.trace(m)) < 1e-10
        assert full.contains(m)


def test_derived_algebra_of_commutative_is_zero():
    for seed in range(10):
        alg = commutative_algebra(3, seed=seed)
        assert derived_algebra(alg).dim_span == 0


def test_derived_algebra_of_block():
    d = derived_algebra(block_2_1_algebra())
    assert d.dim_span == 3  # the su(2) part of the upper block
    for m in d.basis:
        assert abs(m[2, 2]) < 1e-12


def _derived_cases() -> list[RealSubspace]:
    rng = np.random.default_rng(11)
    algs = [full_hermitian_space(n) for n in (1, 2, 3, 4)]
    algs += [block_2_1_algebra(), block_algebra((2, 2)), block_algebra((1, 2, 2))]
    algs += [conjugated(block_algebra((2, 1)), random_unitary(3, rng))]
    algs += [conjugated(block_algebra((2, 2)), random_unitary(4, rng))]
    algs += [commutative_algebra(n, seed=n) for n in (2, 3, 4)]
    for n in (2, 3, 4, 5):
        a, b = random_hermitian(n, seed=500 + n), random_hermitian(n, seed=600 + n)
        algs.append(lie_generate(traceless(a), traceless(b)).closure)
        algs.append(close_under(span([a, b]), lie))
        algs.append(close_under(span([a, np.eye(n, dtype=complex)]), lie))
    return algs


def test_derived_algebra_matches_the_respanned_brackets():
    dims = set()
    for alg in _derived_cases():
        got, want = derived_algebra(alg), respan_derived_algebra(alg)
        assert got.dim_span == want.dim_span
        np.testing.assert_allclose(_projector(got), _projector(want), rtol=0, atol=1e-12)
        gram = got.rows @ got.rows.T
        np.testing.assert_allclose(gram, np.eye(got.dim_span), rtol=0, atol=1e-12)
        dims.add(got.dim_span)
    assert {0, 3, 6, 8, 15, 24} <= dims


def test_derived_requires_lie_closure():
    with pytest.raises(NotClosed):
        derived_algebra(span([SX, SY]))


def test_centralizer_fixtures():
    full = full_hermitian_space(2)
    d = derived_algebra(full)
    c = centralizer(full, d)
    assert c.dim_span == 1
    assert c.contains(np.eye(2) / np.sqrt(2))
    c2 = centralizer(full, span([SZ]))
    assert c2.dim_span == 2  # span{I, sz}
    assert c2.contains(SZ)
    assert c2.contains(np.eye(2))
    assert not c2.contains(SX)


def test_centralizer_with_trivial_constraint_set():
    full = full_hermitian_space(2)
    z = span([np.zeros((2, 2))])
    assert centralizer(full, z).dim_span == 4


def test_centralizer_basis_is_orthonormal():
    full = full_hermitian_space(3)
    c = centralizer(full, span([np.diag([1.0, 1.0, 2.0]).astype(complex)]))
    gram = np.array([[hs_inner(a, b) for b in c.basis] for a in c.basis])
    np.testing.assert_allclose(gram, np.eye(c.dim_span), atol=1e-9)
    # block-diag(2,1) commutant of diag(1,1,2) has dimension 4 + 1
    assert c.dim_span == 5


def _projector(s: RealSubspace) -> np.ndarray:
    """Orthogonal projector onto s in real (Re | Im) vectorization coordinates."""
    n2 = s.dim_ambient**2
    rows = np.array([np.concatenate([m.real.ravel(), m.imag.ravel()]) for m in s.basis])
    return rows.T @ rows if len(rows) else np.zeros((2 * n2, 2 * n2))


def _centralizer_cases(n: int) -> list[tuple[RealSubspace, RealSubspace]]:
    rng = np.random.default_rng(60 + n)
    u = random_unitary(n, rng)
    degenerate = u @ np.diag([1.0] * (n - 1) + [2.0]) @ u.conj().T
    rand = [random_hermitian(n, seed=200 + 10 * n + k) for k in range(6)]
    full = full_hermitian_space(n)
    comm = commutative_algebra(n, seed=n)
    return [
        (full, span(rand[:1])),
        (full, span(rand[:2])),
        (full, span([degenerate])),
        (full, comm),
        (comm, comm),
        (span(rand[:5]), span(rand[5:])),
        (span(rand[:4] + [degenerate]), span([degenerate])),
    ]


@pytest.mark.parametrize("n", [3, 4])
def test_centralizer_matches_loop_oracle(n):
    dims = set()
    for L, S in _centralizer_cases(n):
        got, want = centralizer(L, S), loop_centralizer(L, S)
        assert got.dim_span == want.dim_span
        np.testing.assert_allclose(_projector(got), _projector(want), atol=1e-10)
        dims.add(got.dim_span)
    assert dims >= {0, 1, n}


@pytest.mark.parametrize("n", [2, 3, 4])
def test_centralizer_rows_equal_its_per_vector_loop(n):
    # the oracle forms its brackets with the public ``lie``, whose last bits
    # differ from the pair kernel's, so a degenerate null space may come back
    # in another basis: compare the spaces
    for L, S in _centralizer_cases(n):
        got, want = centralizer(L, S), vector_loop_centralizer(L, S)
        assert got.dim_span == want.dim_span
        np.testing.assert_allclose(_projector(got), _projector(want), rtol=0, atol=1e-12)


# ---------------------------------------------------------------- commutativity / associativity


def test_commutative_iff_jordan_associative():
    for seed in range(15):
        alg = commutative_algebra(3, seed=seed)
        assert is_commutative(alg)
        assert is_jordan_associative(alg)
    full = full_hermitian_space(2)
    assert not is_commutative(full)
    assert not is_jordan_associative(full)


def test_defect_certificates_are_reproducible():
    full = full_hermitian_space(2)
    cres, cpair = commutator_defect(full)
    assert cpair is not None
    i, j = cpair
    assert np.linalg.norm(lie(full.basis[i], full.basis[j]), 2) == pytest.approx(cres)
    assert cres > 0.1
    ares, atriple = associator_defect(full)
    assert atriple is not None
    i, j, k = atriple
    direct = associator(full.basis[i], full.basis[j], full.basis[k])
    assert np.linalg.norm(direct, 2) == pytest.approx(ares)
    assert ares > 0.1


def test_commutator_defect_matches_loop_oracle():
    exact = [full_hermitian_space(n) for n in (2, 3, 4)] + [block_2_1_algebra()]
    commuting = [commutative_algebra(n, seed=k) for n in (3, 4) for k in range(4)]
    for alg in exact + commuting:
        value, pair = commutator_defect(alg)
        ref_value, ref_pair = loop_commutator_defect(alg)
        assert value == pytest.approx(ref_value, abs=1e-12)
        if alg in exact:
            # many pairs tie at the maximum; both take the first in i < j order
            assert pair == ref_pair
        else:
            # every bracket is roundoff, so which pair is largest is noise
            assert value <= 1e-12
    assert commutator_defect(span([SZ])) == (0.0, None)
    assert commutator_defect(span([I2, SZ])) == loop_commutator_defect(span([I2, SZ]))


def test_associator_defect_matches_loop_oracle():
    exact = [full_hermitian_space(n) for n in (2, 3, 4)] + [block_2_1_algebra()]
    commuting = [commutative_algebra(n, seed=k) for n in (3, 4) for k in range(4)]
    for alg in exact + commuting:
        value, triple = associator_defect(alg)
        ref_value, ref_triple = loop_associator_defect(alg)
        assert value == pytest.approx(ref_value, abs=1e-12)
        if alg in exact:
            # many triples tie at the maximum; both take the first in (i, j, k) order
            assert triple == ref_triple
        else:
            # every associator is roundoff, so which triple is largest is noise
            assert value <= 1e-12
    assert associator_defect(span([SZ])) == (0.0, None)
    assert associator_defect(span([I2, SZ])) == loop_associator_defect(span([I2, SZ]))


def test_defects_name_no_index_for_roundoff():
    floor = DEFAULT_TOL.threshold(1.0)
    for n in (3, 4):
        for k in range(4):
            alg = commutative_algebra(n, seed=k)
            cval, pair = commutator_defect(alg)
            aval, triple = associator_defect(alg)
            assert pair is None and triple is None
            assert cval == pytest.approx(loop_commutator_defect(alg)[0], abs=1e-12)
            assert aval == pytest.approx(loop_associator_defect(alg)[0], abs=1e-12)
            assert cval <= floor and aval <= floor
    # the bracket of the two basis elements is sin(phi) / 2 * (-sy)
    for factor, named in ((0.5, False), (1.0, False), (2.0, True)):
        phi = np.arcsin(2.0 * factor * floor)
        mats = [SZ / np.sqrt(2.0), (np.cos(phi) * I2 + np.sin(phi) * SX) / np.sqrt(2.0)]
        for m in mats:
            m.setflags(write=False)
        value, pair = commutator_defect(RealSubspace(dim_ambient=2, rows=_rows(mats)))
        assert value == pytest.approx(factor * floor, rel=1e-6)
        assert pair == ((0, 1) if named else None)


def _all_pairs_commutator_defect(L: RealSubspace) -> tuple[float, tuple[int, int] | None]:
    """``commutator_defect`` as one stack of all r(r-1)/2 brackets: the bit-for-bit reference."""
    i, j = np.triu_indices(L.dim_span, 1)
    norms = _opnorm(_products(L._stacked[i], L._stacked[j], lie))
    best = float(norms.max(initial=0.0))
    if best <= DEFAULT_TOL.threshold(1.0):
        return best, None
    k = int(np.argmax(norms))
    return best, (int(i[k]), int(j[k]))


@pytest.mark.parametrize(
    "kind, n",
    [("full", n) for n in range(1, 8)]
    + [("closures", n) for n in (3, 4, 5)]
    + [("commuting", n) for n in (3, 6, 34)],
)
def test_commutator_defect_forms_brackets_in_blocks_with_the_all_pairs_result(monkeypatch, kind, n):
    if kind == "full":
        algs = [full_hermitian_space(n)]
    elif kind == "closures":
        algs = _generated_closures(n)
    else:  # 34 basis elements give 561 pairs, more than one block
        algs = [commutative_algebra(n, seed=70 + n, count=n)]
    original = subspace_mod._products
    pairs: list[int] = []

    def counted(a, b, product):
        pairs.append(int(np.prod(np.broadcast_shapes(a.shape[:-2], b.shape[:-2]))))
        return original(a, b, product)

    monkeypatch.setattr(subspace_mod, "_products", counted)
    for alg in algs:
        pairs.clear()
        value, pair = commutator_defect(alg)
        want_value, want_pair = _all_pairs_commutator_defect(alg)
        assert (value.hex(), pair) == (want_value.hex(), want_pair)
        r = alg.dim_span
        assert max(pairs, default=0) <= subspace_mod._BLOCK
        assert sum(pairs) == r * (r - 1) // 2


def test_commutativity_checks_require_closure():
    with pytest.raises(NotClosed):
        is_commutative(span([SX, SY]))
    with pytest.raises(NotClosed):
        is_jordan_associative(span([SX]))


# ---------------------------------------------------------------- Killing form


def test_killing_matrix_of_su2_oracle():
    # hand computation: in the orthonormal basis {sx, sy, sz}/sqrt(2) with the
    # i/2 bracket, every ad operator squares to -1/2 on its orthogonal plane,
    # so the Killing matrix is exactly -I
    su2 = span([SX, SY, SZ])
    r = su2.dim_span
    ad = np.empty((r, r, r))
    for x in range(r):
        for j in range(r):
            ad[x, :, j] = su2.coeffs(lie(su2.basis[x], su2.basis[j]))
    killing = np.einsum("xij,yji->xy", ad, ad)
    np.testing.assert_allclose(killing, -np.eye(3), atol=1e-12)


def test_is_semisimple_lie_fixtures():
    su2 = span([SX, SY, SZ])
    assert is_semisimple_lie(su2)
    u2 = span([I2, SX, SY, SZ])
    assert not is_semisimple_lie(u2)  # identity component degenerates the form
    diag = span([np.diag([1.0, 2.0]).astype(complex), I2])
    assert not is_semisimple_lie(diag)  # Abelian
    su3 = span([traceless(m) for m in full_hermitian_basis(3)])
    assert su3.dim_span == 8
    assert is_semisimple_lie(su3)
    assert is_semisimple_lie(span([np.zeros((2, 2))]))  # vacuous


def test_killing_matrix_matches_ad_grid_oracle():
    algs = [
        span([SX, SY, SZ]),
        span([I2, SX, SY, SZ]),
        span([np.diag([1.0, 2.0]).astype(complex), I2]),
        span([traceless(m) for m in full_hermitian_basis(3)]),
        full_hermitian_space(4),
        block_algebra((2, 1)),
    ]
    for n in (2, 3, 4):
        for k in range(3):
            a, b = (random_hermitian(n, seed=900 + 10 * n + 2 * k + j) for j in range(2))
            algs.append(lie_generate(traceless(a), traceless(b)).closure)
            algs.append(close_under(span([a, b]), lie))
    semisimple = set()
    for alg in algs:
        killing = _killing_matrix(alg)
        ref = ad_killing_matrix(alg)
        np.testing.assert_allclose(killing, ref, rtol=0, atol=1e-12)
        sv = np.linalg.svd(ref, compute_uv=False)
        expected = float(sv[-1]) > DEFAULT_TOL.zero_tol * float(sv[0])
        assert is_semisimple_lie(alg) == expected
        semisimple.add(expected)
    assert semisimple == {True, False}


def _generated_closures(n: int) -> list[RealSubspace]:
    a, b = random_hermitian(n, seed=950 + 2 * n), random_hermitian(n, seed=951 + 2 * n)
    return [
        lie_generate(traceless(a), traceless(b)).closure,
        lie_generate(a, b).closure,
        jordan_generate_three(a, b).closure,
    ]


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_structure_constants_are_totally_antisymmetric(n):
    """F[x, j, k] = F[j, k, x], from Tr([a, b] c) = Tr(a [b, c]): the
    identity behind the Killing matrix ``-2 T^T T``."""
    for alg in _generated_closures(n):
        F, _ = dense_structure_constants(alg)
        np.testing.assert_allclose(F, F.transpose(1, 2, 0), rtol=0, atol=1e-13)
        np.testing.assert_allclose(
            _killing_matrix(alg), np.einsum("xjk,ykj->xy", F, F), rtol=0, atol=1e-12
        )


def test_derived_algebra_ranks_the_dense_structure_constants_rows_bit_for_bit():
    algs = [full_hermitian_space(n) for n in (2, 3, 5)] + [block_algebra((1, 2, 2))]
    algs += _generated_closures(3) + [commutative_algebra(4, seed=3)]
    for alg in algs:
        F, _ = dense_structure_constants(alg)
        i, k = np.triu_indices(alg.dim_span, 1)
        want = subspace_mod._extend(np.empty((0, alg.dim_span)), F[i, k]) @ alg.rows
        assert derived_algebra(alg).rows.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [3, 4, 6])
def test_commuting_algebra_forms_no_jordan_triple(monkeypatch, n):
    alg = commutative_algebra(n, seed=80 + n)
    formed = []
    original = subspace_mod._products

    def counted(a, b, product):
        formed.append(product)
        return original(a, b, product)

    monkeypatch.setattr(subspace_mod, "_products", counted)
    assert associator_defect(alg) == (0.0, None)
    assert jordan not in formed and lie in formed  # the table's brackets only
    assert is_jordan_associative(alg)


def _defect_algebras(kind: str, n: int) -> list[RealSubspace]:
    if kind == "full":
        return [full_hermitian_space(n)]
    if kind == "block":
        return [block_algebra(sizes) for sizes in ((2, 1), (2, 2), (1, 2, 3))]
    return _generated_closures(n)


@pytest.mark.parametrize("block", [7, 512])
@pytest.mark.parametrize(
    "kind, n", [("full", n) for n in range(1, 7)] + [("block", 0)] + [("closures", n) for n in (3, 4)]
)
def test_associator_defect_is_the_whole_stack_formula_bit_for_bit(monkeypatch, kind, n, block):
    """Blocks of 7 pairs split each first index's (j, k) pairs, so ties at
    the maximum (the full algebra has many) span block boundaries."""
    monkeypatch.setattr(subspace_mod, "_BLOCK", block)
    for alg in _defect_algebras(kind, n):
        value, triple = associator_defect(alg)
        want_value, want_triple = stacked_associator_defect(alg)
        assert (value.hex(), triple) == (want_value.hex(), want_triple)
        if is_closed_under(alg, jordan):  # su(n) is not
            assert is_jordan_associative(alg) == (want_value <= _DEFECT_FLOOR)


def test_is_jordan_associative_stops_at_the_first_block_above_the_floor(monkeypatch):
    calls = [0]

    def counted(x):
        calls[0] += 1
        return _opnorm(x)

    monkeypatch.setattr(subspace_mod, "_opnorm", counted)
    assert not is_jordan_associative(full_hermitian_space(6))
    assert calls[0] == 1
    calls[0] = 0
    associator_defect(full_hermitian_space(6))
    assert calls[0] > 1


def test_associator_defect_forms_no_r2_n2_jordan_stack():
    """The whole-stack form peaked at about 47 MB here; its stack alone is
    r^2 n^2 complex entries (16 MB at n = 10)."""
    alg = full_hermitian_space(10)
    subspace_mod._stored_structure_constants(alg)  # the table is not what is measured
    tracemalloc.start()
    try:
        associator_defect(alg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12e6


@pytest.mark.parametrize("seed", range(4))
def test_basis_combination_is_tensordot_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    algs = [full_hermitian_space(n) for n in range(1, 6)]
    algs += [span([random_hermitian(n, rng) for _ in range(k)]) for n, k in ((2, 3), (4, 5), (6, 9))]
    algs.append(conjugated(full_hermitian_space(3), random_unitary(3, rng)))
    for alg in algs:
        c = rng.standard_normal(alg.dim_span)
        got = subspace_mod._combination(c, alg._stacked)
        assert got.tobytes() == np.tensordot(c, alg._stacked, axes=1).tobytes()


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_a_commuting_algebra_is_not_semisimple(n):
    # its Killing form vanishes; the dense form read roundoff ratios instead
    alg = commutative_algebra(n, seed=90 + n, count=n)
    assert alg.dim_span == n
    assert not is_semisimple_lie(alg)
    assert np.all(_killing_matrix(alg) == 0.0)


def test_semisimple_requires_closure():
    with pytest.raises(NotClosed):
        is_semisimple_lie(span([SX, SY]))


# ---------------------------------------------------------------- generation


def test_lie_generate_pauli_pair():
    rep = lie_generate(SX, SY)
    assert rep.closure_dim == 3
    assert rep.target_dim == 3
    assert rep.generated
    assert rep.trajectory[0] == 2
    assert rep.trajectory[-1] == 3
    assert rep.rounds >= 1


def test_lie_generate_degenerate_pair():
    rep = lie_generate(SX, SX)
    assert rep.closure_dim == 1
    assert not rep.generated


def test_lie_generate_random_traceless_pairs():
    for n in (2, 3):
        for i in range(5):
            a = traceless(random_hermitian(n, seed=50 * n + 2 * i))
            b = traceless(random_hermitian(n, seed=50 * n + 2 * i + 1))
            rep = lie_generate(a, b)
            assert rep.target_dim == n * n - 1
            assert rep.generated, f"n={n} trial={i} reached {rep.closure_dim}"


def test_lie_generate_full_target_with_trace():
    a = random_hermitian(2, seed=11)  # generic, nonzero trace
    b = random_hermitian(2, seed=12)
    rep = lie_generate(a, b)
    assert rep.target_dim == 4
    assert rep.generated


def test_jordan_generate_three_pauli_pair():
    rep = jordan_generate_three(SX, SY)
    assert rep.closure_dim == 4
    assert rep.target_dim == 4
    assert rep.generated


def test_jordan_generate_three_commuting_pair_fails():
    a = np.diag([1.0, 2.0]).astype(complex)
    b = np.diag([3.0, 4.0]).astype(complex)
    rep = jordan_generate_three(a, b)
    assert rep.closure_dim <= 3
    assert not rep.generated


def test_jordan_generation_follows_lie_generation():
    # whenever a traceless pair generates the Lie algebra, the same pair plus
    # identity generates the full Jordan algebra
    for n in (2, 3):
        for i in range(3):
            a = traceless(random_hermitian(n, seed=900 + 10 * n + 2 * i))
            b = traceless(random_hermitian(n, seed=900 + 10 * n + 2 * i + 1))
            if lie_generate(a, b).generated:
                assert jordan_generate_three(a, b).generated


# ---------------------------------------------------------------- function representation


def test_function_representation_diagonal_fixture():
    alg = close_under(span([np.diag([1.0, 2.0, 3.0]).astype(complex)]), jordan)
    assert alg.dim_span == 3
    fr = function_representation(alg)
    assert fr.num_points == 3
    # table reproduces each basis element
    for i in range(alg.dim_span):
        np.testing.assert_allclose(fr.reconstruct(i), alg.basis[i], atol=1e-10)
    # diagonal algebra: evaluating a diagonal matrix reads off its entries
    vals = sorted(fr.evaluate(np.diag([5.0, 7.0, 9.0]).astype(complex)))
    np.testing.assert_allclose(vals, [5.0, 7.0, 9.0], atol=1e-9)


def test_function_representation_sigma_x_fixture():
    fr = function_representation(span([I2, SX]))
    assert fr.num_points == 2
    vals = sorted(fr.evaluate(SX))
    np.testing.assert_allclose(vals, [-1.0, 1.0], atol=1e-10)
    np.testing.assert_allclose(fr.evaluate(I2), [1.0, 1.0], atol=1e-10)


def test_function_representation_merges_degenerate_points():
    alg = close_under(span([np.diag([1.0, 1.0, 2.0]).astype(complex)]), jordan)
    assert alg.dim_span == 2
    fr = function_representation(alg)
    assert fr.num_points == 2
    ranks = sorted(round(float(np.real(np.trace(p)))) for p in fr.projectors)
    assert ranks == [1, 2]


def test_function_representation_identity_only():
    fr = function_representation(span([np.eye(2)]))
    assert fr.num_points == 1
    np.testing.assert_allclose(fr.evaluate(np.eye(2)), [1.0], atol=1e-12)


def test_function_representation_homomorphism_random():
    for seed in range(10):
        alg = commutative_algebra(3, seed=200 + seed)
        fr = function_representation(alg)
        assert fr.num_points <= 3
        for i in range(alg.dim_span):
            np.testing.assert_allclose(fr.reconstruct(i), alg.basis[i], atol=1e-8)
            for j in range(alg.dim_span):
                lhs = fr.points[:, i] * fr.points[:, j]
                rhs = fr.evaluate(jordan(alg.basis[i], alg.basis[j]))
                np.testing.assert_allclose(lhs, rhs, atol=1e-8)


def _representations() -> list:
    """Commutative algebras at n = 2..5, some with degenerate joint eigenspaces."""
    algs = [commutative_algebra(n, seed=300 + n) for n in (2, 3, 4, 5)]
    for n in (3, 4, 5):
        u = random_unitary(n, np.random.default_rng(310 + n))
        d = np.diag([1.0, 1.0] + [2.0 + k for k in range(n - 2)])
        algs.append(close_under(span([u @ d @ u.conj().T]), jordan))
    algs.append(span([np.eye(4)]))
    return [function_representation(alg) for alg in algs]


def test_evaluate_and_reconstruct_equal_their_per_point_loops():
    ranks = set()
    for fr in _representations():
        n = fr.subspace.dim_ambient
        rng = np.random.default_rng(320 + n)
        probes = list(fr.subspace.basis) + [
            random_hermitian(n, rng),
            rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)),
            np.eye(n),
        ]
        for m in probes:
            np.testing.assert_allclose(fr.evaluate(m), loop_evaluate(fr, m), rtol=0, atol=1e-12)
        for i in range(fr.subspace.dim_span):
            got = fr.reconstruct(i)
            assert got.dtype == complex and got.shape == (n, n)
            np.testing.assert_allclose(got, loop_reconstruct(fr, i), rtol=0, atol=1e-12)
        ranks.update(round(float(np.trace(p).real)) for p in fr.projectors)
    assert ranks >= {1, 2, 4}


def test_representation_keeps_one_read_only_projector_stack():
    for fr in _representations():
        n = fr.subspace.dim_ambient
        stacked = fr._stacked
        assert stacked.shape == (fr.num_points, n, n) and not stacked.flags.writeable
        assert len(fr.projectors) == fr.num_points
        for x, p in enumerate(fr.projectors):
            assert np.shares_memory(p, stacked) and p.tobytes() == stacked[x].tobytes()
            with pytest.raises(ValueError):
                p[0, 0] = 0.0
        rng = np.random.default_rng(330 + n)
        # bit-equal to the same formulas on a stack rebuilt from the tuple
        restacked = np.stack(fr.projectors)
        for m in list(fr.subspace.basis) + [random_hermitian(n, rng)]:
            rank = np.maximum(1.0, np.rint(np.einsum("xaa->x", restacked).real))
            want = np.einsum("xab,ba->x", restacked, m).real / rank
            assert fr.evaluate(m).tobytes() == want.tobytes()
        for i in range(fr.subspace.dim_span):
            assert fr.reconstruct(i).tobytes() == loop_reconstruct(fr, i).tobytes()
    empty = FunctionRepresentation(full_hermitian_space(3), np.zeros((0, 0)), ())
    assert empty._stacked.shape == (0, 3, 3) and empty.projectors == ()


def test_evaluate_rejects_a_matrix_of_another_dimension():
    d = np.diag([1.0, 2.0, 3.0]).astype(complex)
    fr = function_representation(span([d, d @ d, np.eye(3)]))
    assert fr.num_points == 3
    # a 1 x 1 input used to broadcast against every projector
    for m in (5.0 * np.eye(1), np.eye(2), np.eye(4)):
        with pytest.raises(DimensionMismatch):
            fr.evaluate(m)


def test_function_representation_rejects_noncommutative():
    with pytest.raises(NotAssociative):
        function_representation(full_hermitian_space(2))
    with pytest.raises(NotAssociative):
        function_representation(block_2_1_algebra())
    with pytest.raises(NotAssociative):
        function_representation(span([SX]))  # not even Jordan-closed


# ---------------------------------------------------------------- positivity


def test_positivity_closure_clean_on_commutative():
    for seed in (0, 1, 2):
        alg = commutative_algebra(3, seed=seed)
        rep = check_positivity_closure(alg, samples=100, seed=17)
        assert rep.jordan_violations == 0
        assert rep.square_order_violations == 0
        assert not rep.any_violation


def test_positivity_closure_violations_on_full():
    full = full_hermitian_space(2)
    rep = check_positivity_closure(full, samples=200, seed=11)
    assert rep.jordan_violations > 0
    assert rep.square_order_violations > 0
    assert rep.any_violation
    a, b, lam = rep.worst_jordan
    assert lam == pytest.approx(float(np.linalg.eigvalsh(jordan(a, b))[0]))
    assert lam < 0
    # deterministic per seed
    rep2 = check_positivity_closure(full, samples=200, seed=11)
    assert rep2.jordan_violations == rep.jordan_violations
    assert rep2.square_order_violations == rep.square_order_violations


def test_positivity_closure_requires_jordan_closure():
    with pytest.raises(NotClosed):
        check_positivity_closure(span([SX]), samples=10, seed=0)


@pytest.mark.parametrize("samples", [-1, -3])
def test_positivity_closure_rejects_negative_samples(samples):
    with pytest.raises(ValidationError, match="samples must be >= 0"):
        check_positivity_closure(full_hermitian_space(2), samples=samples, seed=0)
    assert check_positivity_closure(full_hermitian_space(2), samples=0, seed=0).samples == 0


def test_positivity_report_on_zero_subspace():
    z = RealSubspace(dim_ambient=2, rows=np.empty((0, 8)))
    rep = check_positivity_closure(z, samples=10, seed=0)
    assert not rep.any_violation


# ---------------------------------------------------------------- closedness proofs and memo


def _pairwise_closed(s: RealSubspace, product) -> bool:
    """Oracle: every ordered basis pair, one ``contains`` call each."""
    return all(s.contains(product(a, b)) for a in s.basis for b in s.basis)


def _count_calls(monkeypatch, name: str) -> list[int]:
    calls = [0]
    original = getattr(subspace_mod, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(subspace_mod, name, counted)
    return calls


def _near_closed(product, factor: float) -> RealSubspace:
    """Orthonormal basis with one pair product off the span by factor * SPAN_RTOL.

    The tilt phi turns the last basis direction away from sz (lie) or from
    the identity (jordan). The product of the first basis pair, -sz / 2 or
    I / 2, then has norm below 1 and residual sin(phi) / sqrt(2).
    """
    phi = np.arcsin(np.sqrt(2.0) * SPAN_RTOL * factor)
    if product is lie:
        mats = [SX, SY, np.cos(phi) * SZ + np.sin(phi) * I2]
    else:
        mats = [SX, np.cos(phi) * I2 + np.sin(phi) * SZ]
    basis = []
    for m in mats:
        u = m / np.sqrt(2.0)
        u.setflags(write=False)
        basis.append(u)
    return RealSubspace(dim_ambient=2, rows=_rows(basis))


def test_batched_closedness_matches_pairwise_oracle():
    closed = [full_hermitian_space(n) for n in (2, 3, 4)]
    closed += [block_2_1_algebra()] + [commutative_algebra(3, seed=k) for k in range(4)]
    for alg in closed:
        for product in (jordan, lie):
            assert _pairwise_closed(alg, product)
            assert is_closed_under(alg, product)
    for k in range(6):
        alg = span([random_hermitian(3, seed=100 + 3 * k + j) for j in range(2 + k % 2)])
        for product in (jordan, lie):
            assert not _pairwise_closed(alg, product)
            assert not is_closed_under(alg, product)


def test_every_closure_entry_point_rejects_other_products(monkeypatch):
    """Only ``jordan`` and ``lie`` are closure products, even where no product is formed."""

    def jordan_copy(a, b):
        return jordan(a, b)

    def mixed(a, b):
        return jordan(a, b) + 0.5 * lie(a, b)

    pairs = _count_calls(monkeypatch, "_products")
    zero = RealSubspace(dim_ambient=2, rows=np.empty((0, 8)))
    for s in (zero, span([SX, SY]), full_hermitian_space(3)):
        for product in (jordan_copy, mixed, lambda a, b: a):
            with pytest.raises(ValidationError):
                close_under(s, product)
            with pytest.raises(ValidationError):
                is_closed_under(s, product)
            with pytest.raises(ValidationError):
                require_closed(s, product)
            with pytest.raises(ValidationError):
                subspace_mod._close_rounds(s, product)
        assert not s._memo
    assert pairs[0] == 0


def test_closedness_at_the_dimension_bound_forms_no_products(monkeypatch):
    """The full algebra (both products) and su(n) (``lie``) sit at their bound."""
    pairs = _count_calls(monkeypatch, "_products")
    for n in (2, 3, 4, 5):
        full = full_hermitian_space(n)
        su = span([traceless(m) for m in full_hermitian_basis(n)])
        assert su.dim_span == n * n - 1
        for s, product in ((full, jordan), (full, lie), (su, lie)):
            assert is_closed_under(s, product) and _pairwise_closed(s, product)
        assert pairs[0] == 0
        # su(n) is not Jordan-closed: below its Jordan bound n^2 the round runs
        assert not is_closed_under(su, jordan) and not _pairwise_closed(su, jordan)
        assert pairs[0] > 0
        pairs[0] = 0
    # n^2 - 1 directions with the identity among them are not su(n): the bound stays n^2
    almost = span([I2, SX, SY])
    assert not is_closed_under(almost, lie) and not _pairwise_closed(almost, lie)
    assert pairs[0] > 0


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_operand_pair_kernel_equals_the_index_form_bit_for_bit(n):
    rng = np.random.default_rng(n)
    e = np.stack([random_hermitian(n, seed=40 * n + k) for k in range(5)])
    f = np.stack([random_hermitian(n, seed=40 * n + 10 + k) for k in range(3)])
    ef = np.concatenate((e, f))
    for product in (jordan, lie):
        # gathered pairs: closure rounds, defects, structure constants
        i, j = rng.integers(len(e), size=(2, 30))
        want = index_products(e, i, j, product)
        assert _products(e[i], e[j], product).tobytes() == want.tobytes()
        # every (e_i, f_j) by broadcasting: centralizer, associator_defect
        i, j = np.divmod(np.arange(len(e) * len(f)), len(f))
        want = index_products(ef, i, len(e) + j, product).reshape(len(e), len(f), n, n)
        assert _products(e[:, None], f[None], product).tobytes() == want.tobytes()
        # one matrix against a stack
        want = index_products(ef, np.full(len(f), 2), len(e) + np.arange(len(f)), product)
        assert _products(e[2], f, product).tobytes() == want.tobytes()


@pytest.mark.parametrize("product", [jordan, lie])
def test_closedness_decision_at_the_span_tolerance(product):
    inside = _near_closed(product, 1.0 - 1e-3)
    outside = _near_closed(product, 1.0 + 1e-3)
    assert _pairwise_closed(inside, product)
    assert is_closed_under(inside, product)
    assert not _pairwise_closed(outside, product)
    assert not is_closed_under(outside, product)


def test_derived_algebra_is_memoized():
    full = full_hermitian_space(3)
    d = derived_algebra(full)
    assert derived_algebra(full) is d
    assert derived_algebra(full_hermitian_space(3)) is not d


def test_second_classify_forms_no_pair_products(monkeypatch):
    full = full_hermitian_space(3)
    pairs = _count_calls(monkeypatch, "_products")
    rounds = _count_calls(monkeypatch, "_close_rounds")
    first = classify(random_state(3, seed=5), full)
    # the derived algebra comes from the structure constants, not a closure
    assert pairs[0] > 0 and rounds[0] == 0
    pairs[0] = 0
    second = classify(random_state(3, seed=6), full)
    assert pairs[0] == 0 and rounds[0] == 0
    assert not first.classical and not second.classical


def test_not_closed_raises_on_every_call(monkeypatch):
    open_alg = span([SX, SY])
    pairs = _count_calls(monkeypatch, "_products")
    for _ in range(3):
        with pytest.raises(NotClosed):
            require_closed(open_alg, lie)
        with pytest.raises(NotClosed):
            derived_algebra(open_alg)
        with pytest.raises(NotClosed):
            is_semisimple_lie(open_alg)
    assert pairs[0] == 1  # the False verdict is proven once and reused


def test_closedness_memo_is_per_object(monkeypatch):
    mats = [I2, SZ]
    a, b = span(mats), span(mats)
    pairs = _count_calls(monkeypatch, "_products")
    assert is_closed_under(a, jordan) and is_closed_under(a, jordan)
    assert pairs[0] == 1
    assert is_closed_under(b, jordan)
    assert pairs[0] == 2


# ---------------------------------------------------------------- row representation


@pytest.mark.parametrize(
    "rows",
    [np.zeros((2, 7)), np.zeros((2, 9)), np.zeros((1, 4), dtype=complex), np.zeros(8), np.zeros((1, 2, 8))],
)
def test_rows_of_the_wrong_shape_raise(rows):
    with pytest.raises(DimensionMismatch):
        RealSubspace(dim_ambient=2, rows=rows)


@pytest.mark.parametrize("n,rows", [(-1, np.zeros((1, 2))), (0, np.zeros((1, 0))), (0, np.empty((0, 0)))])
def test_ambient_dimensions_below_one_raise(n, rows):
    with pytest.raises(DimensionMismatch):
        RealSubspace(dim_ambient=n, rows=rows)


def test_complex_rows_raise_rather_than_lose_their_imaginary_parts():
    rows = _rows(full_hermitian_basis(2))
    with pytest.raises(ValidationError):
        RealSubspace(dim_ambient=2, rows=rows.astype(complex))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_rows_raise(bad):
    # a NaN row once sat at the dimension bound, so closedness and the
    # classicality criteria answered without a product or with a NaN
    rows = full_hermitian_space(2).rows.copy()
    rows[1, 3] = bad
    with pytest.raises(ValidationError, match="NaN or infinite"):
        RealSubspace(dim_ambient=2, rows=rows)


def test_rows_are_copied_once_and_read_only():
    want = full_hermitian_space(3).rows
    given = want.copy()
    L = RealSubspace(dim_ambient=3, rows=given)
    given[:] = 7.0
    assert np.array_equal(L.rows, want)
    assert not L.rows.flags.writeable
    with pytest.raises(ValueError):
        L.rows[0, 0] = 1.0
    # a Fortran-ordered input is stored C-contiguous, with the same values
    F = RealSubspace(dim_ambient=3, rows=np.asfortranarray(want))
    assert F.rows.flags.c_contiguous and np.array_equal(F.rows, want)


@pytest.mark.parametrize("name", ["full3", "comm4", "block21"])
def test_basis_and_stack_are_views_of_the_rows(name):
    L = {
        "full3": lambda: full_hermitian_space(3),
        "comm4": lambda: commutative_algebra(4, seed=5),
        "block21": block_2_1_algebra,
    }[name]()
    n, r = L.dim_ambient, L.dim_span
    assert L.rows.shape == (r, 2 * n * n)
    assert np.shares_memory(L.rows, L._stacked)
    assert np.shares_memory(L.rows, L.basis[0])
    assert L._stacked.shape == (r, n, n) and len(L.basis) == r
    for row, e in zip(L.rows, L.basis):
        assert not e.flags.writeable
        # a row interleaves the real and imaginary parts of its matrix
        assert np.array_equal(row, np.stack((e.real, e.imag), axis=-1).ravel())
    np.testing.assert_allclose(L.rows @ L.rows.T, np.eye(r), atol=1e-12)


def test_empty_rows_give_the_zero_subspace():
    z = RealSubspace(dim_ambient=3, rows=np.empty((0, 18)))
    assert z.dim_span == 0 and z.basis == ()
    assert z._stacked.shape == (0, 3, 3)
    assert z.coeffs(np.eye(3)).shape == (0,)
    assert z.contains(np.zeros((3, 3))) and not z.contains(np.eye(3))
    assert close_under(z, jordan).dim_span == 0


@pytest.mark.parametrize("name", ["full3", "comm4", "block21", "sx"])
def test_residual_and_contains_agree_with_the_projection(name):
    L = {
        "full3": lambda: full_hermitian_space(3),
        "comm4": lambda: commutative_algebra(4, seed=5),
        "block21": block_2_1_algebra,
        "sx": lambda: span([SX]),
    }[name]()
    n = L.dim_ambient
    rng = np.random.default_rng(3)
    for k in range(20):
        inside = sum(c * e for c, e in zip(rng.standard_normal(L.dim_span), L.basis))
        scale = 10.0 ** rng.integers(-3, 4)
        # at an off-span offset of eps * max(1, ||m||) the verdict flips at SPAN_RTOL
        eps = [0.0, 1e-12, 1e-6, 1.0][k % 4]
        m = scale * (inside + eps * random_hermitian(n, k))
        res = float(np.linalg.norm(m - L.project(m)))
        assert L.residual(m) == pytest.approx(res, rel=1e-9, abs=1e-14 * max(1.0, scale))
        assert L.contains(m) == (res <= SPAN_RTOL * max(1.0, float(np.linalg.norm(m))))
    for method in (L.residual, L.contains, L.coeffs):
        with pytest.raises(DimensionMismatch):
            method(np.eye(n + 1))


@pytest.mark.parametrize("n", range(1, 8))
def test_full_hermitian_basis_equals_its_loop_bit_for_bit(n):
    got, want = full_hermitian_basis(n), loop_full_hermitian_basis(n)
    assert len(got) == len(want) == n * n
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()  # signed zeros included
        assert not g.flags.writeable


def test_full_hermitian_basis_rejects_a_nonpositive_dimension():
    for n in (0, -1):
        with pytest.raises(DimensionMismatch):
            full_hermitian_basis(n)
