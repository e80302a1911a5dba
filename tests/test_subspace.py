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
    loop_function_representation,
    loop_full_hermitian_basis,
    loop_positivity_closure,
    loop_reconstruct,
    random_unitary,
    stacked_associator_defect,
    stacked_bracket_associator_defect,
    rank_of,
    residual_contains,
    respan_derived_algebra,
    stacked_bracket_blocks,
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
from ljlab import linalg as linalg_mod
from ljlab import subspace as subspace_mod
from ljlab.products import associator
from ljlab.states import State, classify, random_state
from ljlab.linalg import DEFAULT_TOL, _opnorm, _screened_opnorm, spectral_norm
from ljlab.subspace import (
    _DEFECT_FLOOR,
    _RECONSTRUCTION_TOL,
    SPAN_RTOL,
    FunctionRepresentation,
    RealSubspace,
    _block_products,
    _brackets,
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


@pytest.mark.parametrize("n", [1, 2, 5, 12])
def test_the_complement_of_the_identity_at_the_lie_bound_is_one_reflection(monkeypatch, n):
    """With S at its ``lie`` bound and I in L, ``_ad_rows`` takes rows 1.. of
    the Householder reflection that maps I's unit coordinate vector u to a
    multiple of e_0: orthonormal rows orthogonal to u, with no rank pass."""
    algs = [full_hermitian_space(n)]
    if n > 1:
        a, b = random_hermitian(n, seed=70 + n), random_hermitian(n, seed=80 + n)
        algs.append(jordan_generate_three(a, b).closure)  # another basis of Herm(n)

    def forbidden(*args):
        raise AssertionError("the closed form ran the rank kernel")

    monkeypatch.setattr(subspace_mod, "_extend", forbidden)
    for L in algs:
        r = L.dim_span
        assert r == n * n
        u = L.coeffs(np.eye(n)) / np.sqrt(n)
        rows = subspace_mod._ad_rows(L, L)
        assert rows.shape == (r - 1, r)
        assert np.abs(rows @ rows.T - np.eye(r - 1)).max(initial=0.0) <= 2e-15
        assert np.abs(rows.T @ rows + np.outer(u, u) - np.eye(r)).max() <= 2e-15


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


def test_centralizer_ranks_bounded_blocks_of_brackets(monkeypatch):
    # below S's dimension bound the walk forms brackets: S's basis is taken
    # max(1, _BLOCK // 2n^2) = 7 elements at a time, so no call forms more
    # than r * 7 of the r * s brackets. U, a conjugated u(3) + u(3) (r = 18),
    # has a 2-dimensional center, so its walk against itself never reaches
    # r - 1 = 17 kept rows and forms all 324. Against S, one random element
    # then U's basis (s = 19), full(6) holds I and the commutant is RI, so
    # its walk stops once the kept rows reach r - 1 = 35: after one call,
    # 252 of the 684 brackets
    n = 6
    U = conjugated(block_algebra((3, 3)), random_unitary(n, np.random.default_rng(6)))
    S = span([random_hermitian(n, seed=6), *U.basis])
    full = full_hermitian_space(n)
    original = subspace_mod._products
    counts: list[int] = []

    def counted(a, b, product):
        counts.append(int(np.prod(np.broadcast_shapes(a.shape[:-2], b.shape[:-2]))))
        return original(a, b, product)

    monkeypatch.setattr(subspace_mod, "_products", counted)
    step = max(1, subspace_mod._BLOCK // (2 * n * n))
    for L, T, formed, dim in ((U, U, 324, 2), (full, S, 252, 1)):
        counts.clear()
        got = centralizer(L, T)
        assert max(counts) <= L.dim_span * step
        assert sum(counts) == formed
        assert got.dim_span == dim
        np.testing.assert_allclose(_projector(got), _projector(loop_centralizer(L, T)), rtol=0, atol=1e-12)


def _su_in_a_rank_two_basis(n: int, u: np.ndarray) -> RealSubspace:
    """su(n) spanned from u e u^H over rank-2 e: the off-diagonal units, then E_kk - E_(k+1)(k+1)."""
    steps = [np.diag(np.eye(n)[k] - np.eye(n)[k + 1]).astype(complex) for k in range(n - 1)]
    return span([u @ e @ u.conj().T for e in [*full_hermitian_basis(n)[n:], *steps]])


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_ad_constraints_of_an_s_at_its_bound_take_the_closed_form(monkeypatch, n):
    """S at its lie bound: full(n), su(n) from lie_generate, su(n) in a
    conjugated rank-2 basis. Its commutant is RI, so against each of them
    the centralizer of those three and of a conjugated block algebra with
    and without I is L's multiples of I, and the derived algebra of the
    three is su(n), all equal to their oracles within 1e-12, and
    is_semisimple_lie decides, with no product formed."""
    rng = np.random.default_rng(90 + n)
    a, b = random_hermitian(n, seed=910 + n), random_hermitian(n, seed=920 + n)
    tops = [
        full_hermitian_space(n),
        lie_generate(traceless(a), traceless(b)).closure,
        _su_in_a_rank_two_basis(n, random_unitary(n, rng)),
    ]
    blocks = conjugated(block_algebra((n // 2, n - n // 2)), random_unitary(n, rng))
    algs = [*tops, blocks, span([traceless(e) for e in blocks.basis])]
    assert [S.dim_span for S in tops] == [n * n, n * n - 1, n * n - 1]
    cases = [(L, S, loop_centralizer(L, S)) for L in algs for S in tops]
    derived = [(L, respan_derived_algebra(L)) for L in tops]

    def forbidden(*args):
        raise AssertionError("a product was formed")

    monkeypatch.setattr(subspace_mod, "_products", forbidden)
    for L, S, want in cases:
        got = centralizer(L, S)
        assert got.dim_span == want.dim_span == int(L.contains(np.eye(n)))
        np.testing.assert_allclose(_projector(got), _projector(want), rtol=0, atol=1e-12)
    for L, want in derived:
        got = derived_algebra(L)
        assert got.dim_span == want.dim_span == n * n - 1
        np.testing.assert_allclose(_projector(got), _projector(want), rtol=0, atol=1e-12)
    assert [is_semisimple_lie(L) for L in tops] == [False, True, True]


@pytest.mark.parametrize("n", [2, 5, 8])
def test_the_centralizer_of_an_s_at_its_bound_takes_no_rank_pass(monkeypatch, n):
    """Against an S at its lie bound the centralizer is L's part of RI: the
    unit row of I's coordinates times ``L.rows`` when L holds I, I/sqrt(n)
    up to sign, else the zero subspace, with no ``_extend`` pass and no
    product formed."""
    rng = np.random.default_rng(80 + n)
    full = full_hermitian_space(n)
    su = derived_algebra(full)
    blocks = conjugated(block_algebra((n // 2, n - n // 2)), random_unitary(n, rng))
    tops = (full, su, conjugated(full, random_unitary(n, rng)))

    def forbidden(*args):
        raise AssertionError("a rank pass or a product was run")

    monkeypatch.setattr(subspace_mod, "_extend", forbidden)
    monkeypatch.setattr(subspace_mod, "_products", forbidden)
    unit = np.eye(n) / np.sqrt(n)
    for L in (full, su, blocks):
        for S in tops:
            got = centralizer(L, S)
            assert got.dim_span == int(L is not su)
            for e in got.basis:
                assert abs(np.linalg.norm(e) - 1) <= 1e-14
                assert abs(abs(hs_inner(e, unit)) - 1) <= 1e-14


def test_an_s_below_its_bound_still_walks():
    """The diagonal algebra of full(2) has dimension n^2 - 2, below its
    bound n^2: its centralizer is itself, not the multiples of I."""
    full = full_hermitian_space(2)
    diag = span([np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)])
    got = centralizer(full, diag)
    assert got.dim_span == 2 and got.contains(SZ)
    np.testing.assert_allclose(_projector(got), _projector(loop_centralizer(full, diag)), rtol=0, atol=1e-12)


def test_an_algebra_holding_the_identity_keeps_it_in_every_centralizer():
    # the walk stops at r - 1 kept rows, so no roundoff row can drop I
    for n in (2, 3, 5):
        rng = np.random.default_rng(70 + n)
        full = full_hermitian_space(n)
        algs = [full, conjugated(full, random_unitary(n, rng)), block_algebra((1, n - 1))]
        algs.append(jordan_generate_three(random_hermitian(n, rng), random_hermitian(n, rng)).closure)
        for L in algs:
            assert L.contains(np.eye(n))
            for S in (L, span([random_hermitian(n, rng)]), commutative_algebra(n, seed=n)):
                assert centralizer(L, S).contains(np.eye(n))


def test_is_semisimple_lie_asks_the_centralizer_and_builds_no_table():
    verdicts = [is_semisimple_lie(_su2_plus_su3(central)) for central in (False, True)]
    verdicts += [is_semisimple_lie(alg) for alg in _generated_closures(4)]
    assert verdicts == [True, False, True, False, False]


def test_is_semisimple_lie_forms_no_bracket_when_the_algebra_holds_the_identity(monkeypatch):
    algs = [full_hermitian_space(6), span([I2, SX, SY, SZ]), block_algebra((2, 1))]
    for L in algs:
        require_closed(L, lie)  # the closedness proof may form products; the verdict may not
    original = subspace_mod._products
    formed = []

    def counted(a, b, product):
        formed.append(product)
        return original(a, b, product)

    monkeypatch.setattr(subspace_mod, "_products", counted)
    assert [is_semisimple_lie(L) for L in algs] == [False] * 3
    assert formed == []


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
    # the bracket of the two basis elements is sin(phi) / 2 * (-sy), of HS norm
    # sqrt(2) factor floor: above half the floor, so associator_defect forms its
    # triples, of which [e_0, [e_1, e_0]] is the largest, factor floor / sqrt(2)
    for factor, named in ((0.5, False), (1.0, False), (2.0, True)):
        phi = np.arcsin(2.0 * factor * floor)
        mats = [SZ / np.sqrt(2.0), (np.cos(phi) * I2 + np.sin(phi) * SX) / np.sqrt(2.0)]
        for m in mats:
            m.setflags(write=False)
        alg = RealSubspace(dim_ambient=2, rows=_rows(mats))
        value, pair = commutator_defect(alg)
        assert value == pytest.approx(factor * floor, rel=1e-6)
        assert pair == ((0, 1) if named else None)
        value, triple = associator_defect(alg)
        assert value == pytest.approx(factor * floor / np.sqrt(2.0), rel=1e-6, abs=0.0)
        assert value == pytest.approx(loop_associator_defect(alg)[0], rel=1e-6, abs=0.0)
        assert triple == ((0, 0, 1) if named else None)


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


def _su2_plus_su3(central: bool) -> RealSubspace:
    """su(2) + su(3) as 5 x 5 blocks, and with the central diag(3, 3, -2, -2, -2) added."""
    blocks = []
    for k, m in ((2, 0), (3, 2)):
        for e in full_hermitian_basis(k):
            x = np.zeros((5, 5), dtype=complex)
            x[m : m + k, m : m + k] = traceless(e)
            blocks.append(x)
    if central:
        blocks.append(np.diag([3.0, 3.0, -2.0, -2.0, -2.0]).astype(complex))
    return span(blocks)


def test_killing_matrix_matches_ad_grid_oracle():
    # is_semisimple_lie asks for a zero center; the oracle's verdict is the
    # Killing form's nondegeneracy, judged by its singular value ratio
    algs = [
        span([SX, SY, SZ]),
        span([I2, SX, SY, SZ]),
        span([np.diag([1.0, 2.0]).astype(complex), I2]),
        span([traceless(m) for m in full_hermitian_basis(3)]),
        full_hermitian_space(4),
        block_algebra((2, 1)),
        _su2_plus_su3(central=False),
        _su2_plus_su3(central=True),
    ]
    for n in (2, 3, 4):
        for k in range(3):
            a, b = (random_hermitian(n, seed=900 + 10 * n + 2 * k + j) for j in range(2))
            algs.append(lie_generate(traceless(a), traceless(b)).closure)
            algs.append(close_under(span([a, b]), lie))
    semisimple = set()
    for alg in algs:
        sv = np.linalg.svd(ad_killing_matrix(alg), compute_uv=False)
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
    HS inner product is ad-invariant."""
    for alg in _generated_closures(n):
        F, _ = dense_structure_constants(alg)
        np.testing.assert_allclose(F, F.transpose(1, 2, 0), rtol=0, atol=1e-13)


def test_derived_algebra_is_the_centers_complement_and_holds_every_bracket():
    """L is reductive, so [L, L] is the orthogonal complement of Z(L) =
    centralizer(L, L) in L, and every basis bracket's coordinates lie within
    ``SPAN_RTOL`` of it."""
    algs = _derived_cases() + [full_hermitian_space(5)] + _generated_closures(5)[::2]
    for alg in algs:
        d, z = derived_algebra(alg), centralizer(alg, alg)
        assert d.dim_span + z.dim_span == alg.dim_span
        assert np.abs(d.rows @ z.rows.T).max(initial=0.0) <= 1e-12
        coords = d.rows @ alg.rows.T
        i, k = np.triu_indices(alg.dim_span, 1)
        c = _rows(_products(alg._stacked[i], alg._stacked[k], lie)) @ alg.rows.T
        assert np.linalg.norm(c - (c @ coords.T) @ coords, axis=1).max(initial=0.0) <= SPAN_RTOL


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


@pytest.mark.parametrize("kind", ["full", "commuting"])
def test_associator_defect_forms_one_bracket_per_triple_of_a_kept_pair(monkeypatch, kind):
    """One pass of the bracket stream, then lie(e_j, B) for every j of each
    pair i < k whose bracket B is above half the floor in HS norm: no Jordan
    product, no mirror triple (k, j, i), no second pass."""
    alg = full_hermitian_space(4) if kind == "full" else commutative_algebra(4, seed=84, count=4)
    e, r = alg._stacked, alg.dim_span
    i, k = np.triu_indices(r, 1)
    kept = np.count_nonzero(np.linalg.norm(_rows(_products(e[i], e[k], lie)), axis=1) > 0.5 * _DEFECT_FLOOR)
    formed, streams = [], [0]
    products, brackets = subspace_mod._products, subspace_mod._brackets

    def counted(a, b, product):
        out = products(a, b, product)
        formed.append((product, int(np.prod(out.shape[:-2]))))
        return out

    def counted_stream(L, f):
        streams[0] += 1
        return brackets(L, f)

    monkeypatch.setattr(subspace_mod, "_products", counted)
    monkeypatch.setattr(subspace_mod, "_brackets", counted_stream)
    associator_defect(alg)
    assert streams[0] == 1
    assert {product for product, _ in formed} == {lie}
    assert sum(count for _, count in formed) == len(i) + kept * r
    assert (kept > 0) == (kind == "full")


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
    """Blocks of 7 pairs split the kept pairs of the bracket stream, so ties
    at the maximum (the full algebra has many) span block boundaries. The
    full and block algebras give the three-Jordan-product stack's bits; the
    closures are pinned to the one-bracket stack, whose last bit can differ
    (closures-3 names (3, 3, 5) at 0x1.448a8204ceed3p-2, the three-product
    stack the mirror (5, 3, 3) at ...ceed4p-2), and agree with the loop
    oracle to 1e-12, at the named triple too."""
    monkeypatch.setattr(subspace_mod, "_BLOCK", block)
    for alg in _defect_algebras(kind, n):
        value, triple = associator_defect(alg)
        stacked = stacked_bracket_associator_defect if kind == "closures" else stacked_associator_defect
        want_value, want_triple = stacked(alg)
        assert (value.hex(), triple) == (want_value.hex(), want_triple)
        if kind == "closures":
            ref_value, _ = loop_associator_defect(alg)
            assert value == pytest.approx(ref_value, abs=1e-12)
            at = spectral_norm(associator(*(alg.basis[x] for x in triple)))
            assert at == pytest.approx(ref_value, abs=1e-12)
        if is_closed_under(alg, jordan):  # su(n) is not
            assert is_jordan_associative(alg) == (want_value <= _DEFECT_FLOOR)


def test_is_jordan_associative_stops_at_the_first_block_above_the_floor(monkeypatch):
    calls = [0]

    def counted(x, floor):
        calls[0] += 1
        return _screened_opnorm(x, floor)

    monkeypatch.setattr(subspace_mod, "_screened_opnorm", counted)
    assert not is_jordan_associative(full_hermitian_space(6))
    assert calls[0] == 1
    calls[0] = 0
    associator_defect(full_hermitian_space(6))
    assert calls[0] > 1


@pytest.mark.parametrize(
    "kind, n", [("full", n) for n in range(1, 7)] + [("block", 0)] + [("closures", n) for n in (3, 4)]
)
def test_no_associator_exceeds_the_largest_bracket(kind, n):
    """assoc(e_i, e_j, e_k) = [e_j, [e_k, e_i]], and the i/2 bracket with
    ||e_j||_op <= 1 does not grow a norm: the direction of
    ``is_jordan_associative``'s rule that holds at any size."""
    for alg in _defect_algebras(kind, n):
        assert associator_defect(alg)[0] <= commutator_defect(alg)[0]


def test_near_roundoff_spans_differ_in_the_two_rules_only_between_them():
    """span{E_kk + eps X_k} at n = 3, eps = 10^(q/4): ``is_jordan_associative``
    reads the largest bracket, ``associator_defect`` the largest associator,
    which is smaller. The two rules differ only where the floor lies between
    them, at eps = 1e-9 here; from 10^-8.25 on the span is not closed."""
    n = 3
    rng = np.random.default_rng(0)
    xs = [random_hermitian(n, rng) for _ in range(n)]
    differ, not_closed = [], []
    for q in range(-48, -23):
        alg = span([np.diag(np.eye(n)[k]) + 10.0 ** (q / 4) * xs[k] for k in range(n)])
        bracket, assoc = commutator_defect(alg)[0], associator_defect(alg)[0]
        assert assoc <= bracket
        try:
            verdict = is_jordan_associative(alg)
        except NotClosed:
            not_closed.append(q)
            continue
        assert verdict == (bracket <= _DEFECT_FLOOR)
        if verdict != (assoc <= _DEFECT_FLOOR):
            assert assoc <= _DEFECT_FLOOR < bracket
            differ.append(q)
    assert differ == [-36]
    assert not_closed == list(range(-33, -23))


def test_defects_take_an_svd_only_where_the_hs_norm_can_reach_the_running_best(monkeypatch):
    import ljlab.linalg

    svds, formed = [0], [0]
    opnorm, screened = ljlab.linalg._opnorm, subspace_mod._screened_opnorm

    def counted_svd(x):
        svds[0] += int(np.prod(x.shape[:-2]))
        return opnorm(x)

    def counted_formed(x, floor):
        formed[0] += int(np.prod(x.shape[:-2]))
        return screened(x, floor)

    monkeypatch.setattr(ljlab.linalg, "_opnorm", counted_svd)
    monkeypatch.setattr(subspace_mod, "_screened_opnorm", counted_formed)
    alg = full_hermitian_space(8)
    # 2^(-3/2) and 1/2 are tied by many triples and pairs; the first in row-major order is named
    assert associator_defect(alg) == (0.3535533905932737, (8, 8, 9))
    assert 0 < svds[0] < formed[0] // 50, (svds[0], formed[0])
    svds[0] = formed[0] = 0
    assert commutator_defect(alg) == (0.4999999999999999, (8, 9))
    assert 0 < svds[0] < formed[0] // 3, (svds[0], formed[0])
    # the yes-or-no query starts at the floor and stops at the first block above it
    svds[0] = formed[0] = 0
    assert not is_commutative(alg)
    assert 0 < svds[0] < formed[0] == subspace_mod._BLOCK


def test_associator_defect_forms_no_r2_n2_jordan_stack():
    """The whole-stack form peaked at about 47 MB here; its stack alone is
    r^2 n^2 complex entries (16 MB at n = 10)."""
    alg = full_hermitian_space(10)
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
    # it is its own center
    alg = commutative_algebra(n, seed=90 + n, count=n)
    assert alg.dim_span == n
    assert not is_semisimple_lie(alg)


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


@pytest.mark.parametrize("eps", [3e-10, 3e-9, 3e-8])
def test_lie_generate_targets_the_bound_its_closure_is_held_to(eps):
    # a traceless pair with a small identity part added to a: the target is
    # the closure's own bound, su(3) or the full algebra, never one of each
    a = traceless(random_hermitian(3, seed=1))
    b = traceless(random_hermitian(3, seed=2))
    x = a + eps * np.linalg.norm(a) * np.eye(3)
    rep = lie_generate(x, b)
    assert rep.target_dim == subspace_mod._bound(span([x, b]), lie)
    assert rep.generated, (rep.closure_dim, rep.target_dim)


def test_lie_closures_of_pairs_judged_traceless_reach_su_n():
    # an identity part of at most SPAN_RTOL sets the su(n) bound; left in the rows, the
    # rank kernel could keep it, and 138 of these 414 closures ended at n^2, above it
    cases = 0
    for n in range(3, 7):
        for s in range(25):
            a = traceless(random_hermitian(n, 1000 + s))
            b = traceless(random_hermitian(n, 2000 + s))
            for eps in (1e-9, 2e-9, 3e-9, 4e-9, 5e-9):
                x = a + eps * np.linalg.norm(a) * np.eye(n)
                if subspace_mod._bound(span([x, b]), lie) != n * n - 1:
                    continue
                cases += 1
                rep = lie_generate(x, b)
                assert rep.generated, (n, s, eps, rep.closure_dim)
                assert rep.closure.contains(x), (n, s, eps)
    assert cases == 414


def test_commuting_family_closures_have_dimension_n_or_raise():
    # a conjugated diagonal family closes to the n diagonal directions, never to another dimension
    dims = []
    for n in (8, 12, 16):
        for s in range(20):
            try:
                dims.append(commutative_algebra(n, 7000 + s).dim_span == n)
            except ValidationError:
                continue
    assert all(dims) and len(dims) >= 50, dims


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


def _commuting_algebras() -> list[RealSubspace]:
    """Conjugated diagonal algebras at n = 2..12: generic ones, and Jordan closures of one degenerate element."""
    algs = [commutative_algebra(n, seed=340 + n) for n in range(2, 13)]
    algs += [commutative_algebra(n, seed=360 + n, count=n) for n in range(2, 13)]
    for n in range(3, 13):
        u = random_unitary(n, np.random.default_rng(380 + n))
        d = np.diag(np.repeat(np.arange(1.0, n), [2] + [1] * (n - 2)))
        algs.append(close_under(span([u @ d @ u.conj().T]), jordan))
    return algs


def test_function_representation_equals_the_joint_tuple_loop_bit_for_bit():
    frs = _representations() + [function_representation(alg) for alg in _commuting_algebras()]
    for fr in frs:
        points, projectors = loop_function_representation(fr.subspace)
        assert fr.points.tobytes() == points.tobytes()
        assert fr._stacked.tobytes() == projectors.tobytes()
    assert {fr.subspace.dim_ambient for fr in frs} == set(range(2, 13))


def test_function_representation_retries_a_combination_that_merges_points():
    # basis e_k = u diag(h[k]) u^H with h the reflection taking the first attempt's
    # coefficients c to the direction (1, 1, 1): that combination is |c| / sqrt(3) times I,
    # so its one eigenvalue gap check merges all three points, the reconstruction rejects
    # the table, and the next attempt separates them
    c = np.random.default_rng(24251).standard_normal(3)
    w = c / np.linalg.norm(c) - np.ones(3) / np.sqrt(3)
    h = np.eye(3) - 2 * np.outer(w, w) / (w @ w)
    u = random_unitary(3, np.random.default_rng(391))
    rows = np.stack([_rows(u @ np.diag(h[k]) @ u.conj().T) for k in range(3)])
    L = RealSubspace(dim_ambient=3, rows=rows)
    assert np.ptp(np.linalg.eigvalsh(np.tensordot(c, L._stacked, axes=1))) < 1e-12
    fr = function_representation(L)
    assert fr.num_points == 3
    points, projectors = loop_function_representation(L)
    assert fr.points.tobytes() == points.tobytes() and fr._stacked.tobytes() == projectors.tobytes()


@pytest.mark.parametrize("eps", [1e-10, 3e-10])
def test_function_representation_of_a_near_commuting_algebra_below_the_floor(eps):
    # four conjugated rank-one projectors, each plus eps H: the bracket defects sit below the
    # 1e-9 commutativity floor, so the algebra is admitted, and its four points must rebuild
    # the basis to within the reconstruction tolerance, though no rotated basis element is
    # diagonal to better than about eps
    L = _near_commuting_projectors(eps)
    assert 0.0 < commutator_defect(L)[0] <= DEFAULT_TOL.threshold(1.0)
    assert is_jordan_associative(L)
    fr = function_representation(L)
    assert fr.num_points == 4
    for i in range(L.dim_span):
        assert np.linalg.norm(fr.reconstruct(i) - L.basis[i]) <= _RECONSTRUCTION_TOL


def test_function_representation_of_a_near_commuting_algebra_above_the_floor():
    with pytest.raises(NotAssociative, match="not a commuting, Jordan-associative subalgebra"):
        function_representation(_near_commuting_projectors(1e-9))


def _near_commuting_projectors(eps: float) -> RealSubspace:
    u = random_unitary(4, np.random.default_rng(4))
    h = random_hermitian(4, seed=5)
    return span([u @ np.diag(np.eye(4)[k]) @ u.conj().T + eps * h for k in range(4)])


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


@pytest.mark.parametrize("samples", [2.5, True, "3", None])
def test_positivity_closure_rejects_samples_that_are_not_integers(samples):
    with pytest.raises(ValidationError, match="samples must be an integer"):
        check_positivity_closure(full_hermitian_space(2), samples=samples, seed=0)


def test_positivity_closure_takes_numpy_integers_as_their_value():
    full = full_hermitian_space(2)
    rep = check_positivity_closure(full, samples=np.int64(20), seed=np.uint64(4))
    ref = check_positivity_closure(full, samples=20, seed=4)
    assert type(rep.samples) is int and rep.samples == 20
    assert rep.worst_jordan[0].tobytes() == ref.worst_jordan[0].tobytes()


def _positivity_algebras() -> dict[str, RealSubspace]:
    a, b = random_hermitian(3, seed=1), random_hermitian(3, seed=2)
    return {
        "full2": full_hermitian_space(2),
        "full3": full_hermitian_space(3),
        "full5": full_hermitian_space(5),
        "block-2-1": block_algebra((2, 1)),
        # a closure in a random basis: a real product on the rows, or a complex one on the stack, loses bits
        "closure": jordan_generate_three(a, b).closure,
    }


def _same_positivity_report(got, ref) -> None:
    assert (got.samples, got.jordan_violations, got.square_order_violations) == (
        ref.samples,
        ref.jordan_violations,
        ref.square_order_violations,
    )
    for g, r in ((got.worst_jordan, ref.worst_jordan), (got.worst_square_order, ref.worst_square_order)):
        assert (g is None) == (r is None)
        if g is not None:
            assert (g[0].tobytes(), g[1].tobytes(), g[2]) == (r[0].tobytes(), r[1].tobytes(), r[2])


@pytest.mark.parametrize("name", ["full2", "full3", "full5", "block-2-1", "closure"])
def test_positivity_closure_equals_the_per_sample_loop(name, monkeypatch):
    L = _positivity_algebras()[name]
    # trial chunks of 7: 8 and 50 samples cross chunk boundaries
    monkeypatch.setattr(linalg_mod, "_TRIAL_CHUNK", 7)
    for seed in (0, 5):
        for samples in (0, 1, 7, 8, 50):
            got = check_positivity_closure(L, samples, seed)
            _same_positivity_report(got, loop_positivity_closure(L, samples, seed))
    # stacks of 3 samples by the byte budget, below the chunk of 7
    n = L.dim_ambient
    monkeypatch.setattr(linalg_mod, "_STACK_BYTES", 3 * 16 * n * n)
    assert linalg_mod._stack_len(n) == 3
    for seed in (0, 5):
        _same_positivity_report(check_positivity_closure(L, 50, seed), loop_positivity_closure(L, 50, seed))


def test_positivity_closure_crosses_a_stack_boundary_at_its_own_sizes():
    # n = 5: stacks of 327 samples by the byte budget, so 400 samples take two
    L = full_hermitian_space(5)
    assert linalg_mod._stack_len(5) == linalg_mod._STACK_BYTES // 16 // 25 == 327 < 400 < linalg_mod._TRIAL_CHUNK
    rep = check_positivity_closure(L, 400, 3)
    _same_positivity_report(rep, loop_positivity_closure(L, 400, 3))
    assert rep.jordan_violations > 0 and rep.square_order_violations > 0


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
        # gathered pairs: closure rounds, defects, the associator criterion
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
@pytest.mark.parametrize("n", [6, 10, 16])
def test_chunked_block_products_equal_one_stack_bit_for_bit(monkeypatch, n, product):
    """A full block and one whose pair count is not a multiple of the chunk:
    both span several chunks, and the last chunk of the second is short."""
    e = np.stack([random_hermitian(n, seed=60 * n + k) for k in range(24)])
    rng = np.random.default_rng(n)
    chunks: list[int] = []

    def recorded(a, b, p):
        chunks.append(len(a))
        return _products(a, b, p)

    monkeypatch.setattr(subspace_mod, "_products", recorded)
    for count in (subspace_mod._BLOCK, 3 * subspace_mod._BLOCK // 4 + 1):
        i, j = rng.integers(len(e), size=(2, count))
        chunks.clear()
        got = _block_products(e, i, j, product)
        assert got.tobytes() == _products(e[i], e[j], product).tobytes()
        assert len(chunks) > 1 and sum(chunks) == count
        assert max(chunks) * 16 * n * n <= linalg_mod._STACK_BYTES
    assert chunks[-1] < chunks[0]  # 385 pairs: not a multiple of 227, 81 or 32


@pytest.mark.parametrize("n", [6, 10, 16])
def test_bracket_stream_is_the_one_stack_blocks_bit_for_bit(n):
    algs = [full_hermitian_space(n)]
    if n == 6:
        algs += _generated_closures(n)
    for alg in algs:
        got = list(_brackets(alg, lambda br: br))
        want = list(stacked_bracket_blocks(alg))
        assert len(got) == len(want) > 1
        for (br, i, k), (ref, ri, rk) in zip(got, want):
            assert (br.tobytes(), i.tobytes(), k.tobytes()) == (ref.tobytes(), ri.tobytes(), rk.tobytes())


@pytest.mark.parametrize("product", [jordan, lie])
def test_closedness_decision_at_the_span_tolerance(product):
    inside = _near_closed(product, 1.0 - 1e-3)
    outside = _near_closed(product, 1.0 + 1e-3)
    assert _pairwise_closed(inside, product)
    assert is_closed_under(inside, product)
    assert not _pairwise_closed(outside, product)
    assert not is_closed_under(outside, product)


# ---------------------------------------------------------------- closedness certificate


def _unit(m: np.ndarray) -> np.ndarray:
    return m / np.linalg.norm(m)


def _worst_pair_ratio(L: RealSubspace, product) -> float:
    """Oracle: the largest residual over threshold of a basis-pair product, one ``residual`` call each."""
    worst = 0.0
    for i, a in enumerate(L.basis):
        for b in L.basis[: i + (product is jordan)]:
            p = product(a, b)
            worst = max(worst, L.residual(p) / (SPAN_RTOL * max(1.0, float(np.linalg.norm(p)))))
    return worst


def _asked(product) -> int:
    """Products the certificate asks of its two elements: lie for lie, both for jordan."""
    return 1 if product is lie else 2


def _count_formed(monkeypatch) -> list[int]:
    """Products the pair kernel forms in subspace: the certificate's, and a round's blocks."""
    formed = [0]
    original = subspace_mod._products

    def counted(a, b, product):
        formed[0] += len(a)
        return original(a, b, product)

    monkeypatch.setattr(subspace_mod, "_products", counted)
    return formed


def _count_passes(monkeypatch) -> list[int]:
    """Certificates that passed."""
    passes = [0]
    original = subspace_mod._certified

    def counted(rows, product, rest):
        ok = original(rows, product, rest)
        passes[0] += ok
        return ok

    monkeypatch.setattr(subspace_mod, "_certified", counted)
    return passes


def _idealized_span() -> RealSubspace:
    """span{P, E_44, X_12, X_23} at n = 4, P = E_11 + E_22 + E_33, X_ij = E_ij + E_ji, orthonormal.

    P and E_44 commute with the span, and their Jordan products with it lie in it:
    both lie in the idealizer. X_12 and X_23 do not close it under either product.
    """
    e = np.eye(4, dtype=complex)
    units = [np.diag([1, 1, 1, 0]), np.outer(e[3], e[3])]
    units += [np.outer(e[i], e[i + 1]) + np.outer(e[i + 1], e[i]) for i in (0, 1)]
    return RealSubspace(4, _rows([_unit(m.astype(complex)) for m in units]))


def _herm4_in_three_copies_and_two_blocks() -> list[np.ndarray]:
    """Herm(4) x 1_3 + u(4) + u(8) at n = 24: its Lie center has dimension 3."""
    mats = [np.pad(np.kron(e, np.eye(3)), (0, 12)) for e in full_hermitian_basis(4)]
    mats += [np.pad(e, (12, 8)) for e in full_hermitian_basis(4)]
    mats += [np.pad(e, (16, 0)) for e in full_hermitian_basis(8)]
    return mats


def _tilted_blocks(k: int, eps: float) -> RealSubspace:
    """Conjugated u(k) + u(k) with its last basis element tilted by eps times a unit off-block X."""
    rng = np.random.default_rng(8100 + k)
    u = random_unitary(2 * k, rng)
    g = rng.standard_normal((2 * k, 2 * k)) + 1j * rng.standard_normal((2 * k, 2 * k))
    x = np.zeros((2 * k, 2 * k), dtype=complex)
    x[:k, k:] = g[:k, k:]
    mats = list(block_algebra((k, k)).basis)
    mats[-1] = mats[-1] + eps * _unit(x + x.conj().T)
    return span([u @ m @ u.conj().T for m in mats])


def _verdict_and_closure(build, product) -> tuple[bool, int | str]:
    """``is_closed_under`` and the closure's dimension, or the closure's ValidationError message, each on a fresh build."""
    try:
        dim: int | str = close_under(build(), product).dim_span
    except ValidationError as exc:
        dim = str(exc)
    return is_closed_under(build(), product), dim


def _without_certificate(monkeypatch, f):
    """f() with the certificate off, so every round runs in full."""
    with monkeypatch.context() as m:
        m.setattr(subspace_mod, "_certified", lambda rows, product, rest: False)
        return f()


@pytest.mark.parametrize("product", [jordan, lie])
def test_certificate_rejects_a_span_through_the_rows_its_elements_leave(monkeypatch, product):
    """Elements patched to P and E_44, which lie in the idealizer of a span that is not closed:
    the maps pass, K is span{P, E_44}, and only the check of X_12 and X_23 against the span rejects it."""
    L = _idealized_span()
    assert not _pairwise_closed(L, product)
    for e in L.basis[:2]:
        for p in (lie, jordan)[: _asked(product)]:
            assert all(L.contains(p(e, f)) for f in L.basis)
    monkeypatch.setattr(subspace_mod, "_generic_pair", lambda r: (np.eye(r)[:2], 1.0))  # weight 1: P and E_44 alone
    formed = _count_formed(monkeypatch)
    assert not subspace_mod._certified(L.rows, product, 10**6)
    assert formed[0] == (1 + 2 * 4) * _asked(product) + 2 * 4  # p(g_1, g_2) and the maps, then the two rows left


def _conjugated_blocks(k: int, special: bool) -> RealSubspace:
    basis = (lambda m: [traceless(e) for e in full_hermitian_basis(m)[1:]]) if special else full_hermitian_basis
    mats = [np.pad(e, (0, k)) for e in basis(k)] + [np.pad(e, (k, 0)) for e in basis(k)]
    u = random_unitary(2 * k, np.random.default_rng(8000 + k))
    return span([u @ m @ u.conj().T for m in mats])


@pytest.mark.parametrize("k", [4, 6])
@pytest.mark.parametrize("special", [False, True])
def test_certificate_of_a_semisimple_or_star_algebra_leaves_no_row(monkeypatch, k, special):
    """Two generic elements generate su(k) + su(k), u(k) + u(k) with its center of dimension 2, and the
    *-algebra: K is all of L, so no row is checked and the certificate forms just its 2r products per product."""
    L = _conjugated_blocks(k, special)
    r = L.dim_span
    formed = _count_formed(monkeypatch)
    for product in (lie,) if special else (lie, jordan):
        formed[0] = 0
        assert subspace_mod._certified(L.rows, product, 10**6)
        assert formed[0] == (1 + 2 * r) * _asked(product)


def test_certificate_checks_the_center_rows_two_elements_leave(monkeypatch):
    """Herm(4) x 1_3 + u(4) + u(8) has a Lie center of dimension 3: one row is left to check under lie, none
    under both products, whose *-algebra two elements generate."""
    L = span(_herm4_in_three_copies_and_two_blocks())
    r = L.dim_span
    formed = _count_formed(monkeypatch)
    assert subspace_mod._certified(L.rows, lie, 10**6)
    assert formed[0] == 1 + 2 * r + 1 * r
    formed[0] = 0
    assert subspace_mod._certified(L.rows, jordan, 10**6)
    assert formed[0] == (1 + 2 * r) * 2


def test_certificate_checks_the_rows_left_under_each_product_it_asks(monkeypatch):
    """Sym(3) + R E_44 at n = 4, closed under jordan but not lie, with the elements patched to P = E_11 + E_22 + E_33
    and E_44: their maps pass under both products and K is span{P, E_44}. The five rows left close L under jordan
    but not under lie, so the jordan certificate, which would prove lie too, fails at their brackets."""
    e = np.eye(4, dtype=complex)
    x = [np.outer(e[i], e[j]) + np.outer(e[j], e[i]) for i, j in ((0, 1), (0, 2), (1, 2))]
    units = [np.diag([1, 1, 1, 0]), np.diag([0, 0, 0, 1]), np.diag([1, -1, 0, 0]), np.diag([1, 1, -2, 0]), *x]
    L = RealSubspace(4, _rows([_unit(m.astype(complex)) for m in units]))
    assert _pairwise_closed(L, jordan) and not _pairwise_closed(L, lie)
    monkeypatch.setattr(subspace_mod, "_generic_pair", lambda r: (np.eye(r)[:2], 1.0))
    formed = _count_formed(monkeypatch)
    assert not subspace_mod._certified(L.rows, jordan, 10**6)
    assert formed[0] == (1 + 2 * 7) * 2 + 5 * 7  # p(g_1, g_2) and the maps, then the five rows left under lie
    assert not subspace_mod._certified(L.rows, lie, 10**6)


@pytest.mark.parametrize("product", [jordan, lie])
def test_certificate_runs_only_when_the_rest_of_the_round_forms_more(monkeypatch, product):
    """It forms 2r products per product asked and ranks at most as many candidates for K."""
    L = _conjugated_blocks(4, False)
    cost = 4 * L.dim_span * _asked(product)
    formed = _count_formed(monkeypatch)
    assert not subspace_mod._certified(L.rows, product, cost)
    assert formed[0] == 0
    assert subspace_mod._certified(L.rows, product, cost + 1)
    # u(8) + u(8), r = 128: the certificate is cheaper than the round past its first block, and ends it before any block
    L = _conjugated_blocks(8, False)
    r = L.dim_span
    formed[0] = 0
    assert is_closed_under(L, product)
    assert formed[0] == (1 + 2 * r) * _asked(product)


def test_certificate_fails_on_a_span_closed_under_jordan_but_not_lie(monkeypatch):
    """Real symmetric 5 x 5 matrices: a Jordan algebra, not a Lie one, so both-products certificate fails
    and the round decides, as it does at n = 8, where the certificate runs inside it. It fails on its first
    bracket, [g_1, g_2], and forms no other product."""
    for n in (5, 8):
        L = span([e for e in full_hermitian_basis(n) if not np.iscomplex(e).any()])
        r = L.dim_span
        assert r == n * (n + 1) // 2
        formed = _count_formed(monkeypatch)
        assert not subspace_mod._certified(L.rows, jordan, 10**6)
        assert formed[0] == 1
        formed[0] = 0
        assert is_closed_under(L, jordan)
        assert formed[0] == r * (r + 1) // 2 + (n == 8)  # at n = 5 the rest of the round is shorter than the certificate
        assert not is_closed_under(L, lie)
        assert _pairwise_closed(L, jordan) and not _pairwise_closed(L, lie)
        monkeypatch.undo()


def _agreement_cases():
    cases = {}
    for k in (4, 6, 8):
        for special in (False, True):
            u = "su" if special else "u"
            cases[f"{u}({k})+{u}({k})"] = lambda k=k, s=special: _conjugated_blocks(k, s)
    cases["herm(4)x1_3+u(4)+u(8)"] = lambda: span(_herm4_in_three_copies_and_two_blocks())
    cases["real-symmetric(5)"] = lambda: span([e for e in full_hermitian_basis(5) if not np.iscomplex(e).any()])
    return [pytest.param(label, build, id=label) for label, build in cases.items()]


@pytest.mark.parametrize("label,build", _agreement_cases())
def test_certificate_verdicts_and_closure_dimensions_equal_the_full_rounds(monkeypatch, label, build):
    passes = _count_passes(monkeypatch)
    for product in (jordan, lie):
        got = _verdict_and_closure(build, product)
        assert got == _without_certificate(monkeypatch, lambda: _verdict_and_closure(build, product)), label
        L = build()
        assert L.dim_ambient > 8 or got[0] == _pairwise_closed(L, product)
    assert (passes[0] > 0) == ("symmetric" not in label)  # an su(k) + su(k) passes under lie alone


@pytest.mark.parametrize("product", [jordan, lie])
def test_certificate_on_tilted_blocks_agrees_with_the_full_rounds(monkeypatch, product):
    """u(4) + u(4), its last element tilted by eps = 1e-2 .. 1e-11: at every eps the verdict and the closure
    dimension are the full rounds', and the verdict is whether the worst basis-pair ratio is at most 1."""
    passes = _count_passes(monkeypatch)
    compared = 0
    for q in range(2, 12):
        eps = 10.0**-q
        ratio = _worst_pair_ratio(_tilted_blocks(4, eps), product)
        got = _verdict_and_closure(lambda: _tilted_blocks(4, eps), product)
        full = _without_certificate(monkeypatch, lambda: _verdict_and_closure(lambda: _tilted_blocks(4, eps), product))
        assert got == full, eps
        assert got[0] == (ratio <= 1.0), eps
        compared += 1
    assert compared == 10 and passes[0] >= 3


def _one_square_off(k: int, eps: float) -> RealSubspace:
    """Herm(4) + Herm(3) + R t at n = 9, r = 26, with t = (E_88 + eps E_99) / norm as basis element k.

    Every basis-pair product but t o t lies in the span exactly; t o t lies off it by eps (1 - eps) / (1 + eps^2)^(3/2).
    """
    mats = [np.pad(e, (0, 5)) for e in full_hermitian_basis(4)] + [np.pad(e, (4, 2)) for e in full_hermitian_basis(3)]
    mats.insert(k, _unit(np.diag([0.0] * 7 + [1.0, eps]).astype(complex)))
    return span(mats)


def test_certificate_with_one_square_off_reads_what_the_round_reads(monkeypatch):
    """With p(e_k, e_k) the one basis-pair product off L, at ratio rho, p(g_i, e_k) lies off L at |c_ik| rho, held to
    w = min_k max_i |c_ik| times the round's threshold: at every placement k of r = 26, and for rho on either side of
    both 1 and 1 / max_i |c_ik| (30 at the k where w is reached), the certificate leaves the round's verdict."""
    r = 26
    c, w = subspace_mod._generic_pair(r)
    top = np.abs(c).max(axis=0).tolist()
    assert w == min(top) and 1.0 / w > 5 * np.sqrt(r)
    passes = _count_passes(monkeypatch)
    for k in range(r):
        for rho in (0.9, 1.1, 0.9 / top[k], 1.1 / top[k]):
            build = lambda: _one_square_off(k, rho * SPAN_RTOL)
            L = build()
            assert L.dim_span == r
            assert _worst_pair_ratio(L, jordan) == pytest.approx(rho, rel=1e-4)
            full = _without_certificate(monkeypatch, lambda: is_closed_under(build(), jordan))
            assert full is (rho <= 1.0)
            assert is_closed_under(L, jordan) is full, (k, rho)
            assert is_closed_under(L, lie)
    assert passes[0] > 0


@pytest.mark.parametrize("special", [False, True])
def test_certificate_pass_under_jordan_records_lie_and_the_lie_query_forms_nothing(monkeypatch, special):
    """A jordan pass checks lie too, the rows two elements leave included, so it proves L closed under both products:
    on u(8) + u(8) and on Herm(4) x 1_3 + u(4) + u(8) (a Lie center of dimension 3) both memos are True after it."""
    L = span(_herm4_in_three_copies_and_two_blocks()) if special else _conjugated_blocks(8, False)
    passes = _count_passes(monkeypatch)
    formed = _count_formed(monkeypatch)
    assert is_closed_under(L, jordan) and passes[0] == 1
    assert L._memo[lie] is True and L._memo[jordan] is True
    formed[0] = 0
    assert is_closed_under(L, lie) and formed[0] == 0 and passes[0] == 1


def _block_pair(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Two block-diagonal matrices with blocks ``random_hermitian(n / 2, seed)``, seeds n to n + 3: they generate u(n/2) + u(n/2)."""
    k, z = n // 2, np.zeros((n // 2, n // 2))
    a, b, c, d = (random_hermitian(k, seed=n + j) for j in range(4))
    return np.block([[a, z], [z, b]]), np.block([[c, z], [z, d]])


@pytest.mark.parametrize("n", [8, 12, 16])
def test_certificate_that_ends_a_jordan_closure_records_lie_on_the_closure(monkeypatch, n):
    """jordan_generate_three of a block pair: its last round ends by the certificate, so the closure, u(k) + u(k),
    carries lie's verdict too, and the lie query forms no product. A closure whose last round is ranked in full
    (the certificate off) carries only jordan's."""
    x, y = _block_pair(n)
    closure = jordan_generate_three(x, y).closure
    assert closure.dim_span == n * n // 2 and closure._memo[lie] is True
    formed = _count_formed(monkeypatch)
    assert is_closed_under(closure, lie) and formed[0] == 0
    full = _without_certificate(monkeypatch, lambda: jordan_generate_three(x, y).closure)
    assert full.dim_span == closure.dim_span and lie not in full._memo
    assert is_closed_under(full, lie)


@pytest.mark.parametrize("n", [8, 12, 16])
def test_certificate_leaves_generation_reports_as_the_full_rounds_give_them(monkeypatch, n):
    """A round the certificate ends still counts as a round that added nothing."""
    x, y = _block_pair(n)
    calls = _count_calls(monkeypatch, "_certified")
    for generate in (lie_generate, jordan_generate_three):
        rep = generate(x, y)
        full = _without_certificate(monkeypatch, lambda: generate(x, y))
        assert (rep.closure_dim, rep.rounds, rep.trajectory) == (full.closure_dim, full.rounds, full.trajectory)
        assert rep.closure_dim == n * n // 2
    assert calls[0] >= 2


def test_derived_algebra_is_memoized():
    full = full_hermitian_space(3)
    d = derived_algebra(full)
    assert derived_algebra(full) is d
    assert derived_algebra(full_hermitian_space(3)) is not d


def test_second_classify_forms_no_closure_and_no_second_derived_algebra(monkeypatch):
    full = full_hermitian_space(3)
    pairs = _count_calls(monkeypatch, "_products")
    rounds = _count_calls(monkeypatch, "_close_rounds")
    walks = _count_calls(monkeypatch, "_ad_rows")
    # a clear state is settled by classify's bounds: no pair product at all
    clear = classify(random_state(3, seed=5), full)
    assert pairs[0] == 0 and rounds[0] == 0
    assert "derived" not in full._memo

    def near_mixed(seed):
        # 1e-6 of a random state: its values are about 1e-7, between the bounds
        return State((1 - 1e-6) * np.eye(3, dtype=complex) / 3 + 1e-6 * random_state(3, seed=seed).rho)

    first = classify(near_mixed(5), full)
    # the exact pass reads the bracket stream and the derived algebra comes from the ad walk, not a closure
    assert pairs[0] > 0 and rounds[0] == 0 and walks[0] == 1
    second = classify(near_mixed(6), full)
    # the exact pass forms its brackets again, but the derived algebra is the memoized one
    assert rounds[0] == 0 and walks[0] == 1
    assert not clear.classical and not first.classical and not second.classical


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


def _coords_cases(L: RealSubspace, rng: np.random.Generator) -> list[tuple[np.ndarray, bool]]:
    """Matrices with their expected membership: in-span ones (True), an off-span one (False) and
    boundary ones, whose part off L has HS norm ``SPAN_RTOL * max(1, ||m||) * (1 -+ 1e-3)``
    (True, then False). Only the in-span ones where L leaves no direction off it."""
    n = L.dim_ambient
    inside = [np.tensordot(rng.standard_normal(L.dim_span), L._stacked, axes=1) for _ in range(3)]
    cases = [(p, True) for p in inside] + [(np.zeros((n, n)), True)]
    off = random_hermitian(n, seed=int(rng.integers(1 << 16)))
    off = off - L.project(off)
    if np.linalg.norm(off) < 1e-3:
        return cases
    off /= np.linalg.norm(off)
    cases.append((off, False))
    for p in [*inside, np.zeros((n, n))]:
        norm = float(np.linalg.norm(p))
        for size in (0.5, 3.0):  # ||m|| below and above the floor of 1
            q = size * p / norm if norm else p
            for f, want in ((1 - 1e-3, True), (1 + 1e-3, False)):
                c = SPAN_RTOL * f
                # ||off part|| = c max(1, ||m||), with ||m||^2 = ||q||^2 + ||off part||^2
                delta = c * size / np.sqrt(1 - c * c) if norm and size > 1 else c
                cases.append((q + delta * off, want))
    return cases


@pytest.mark.parametrize("name", ["full3", "block21", "block22", "comm4", "rot33", "zero3"])
def test_coords_are_coeffs_and_contains_from_one_product(name):
    L = {
        "full3": lambda: full_hermitian_space(3),
        "block21": block_2_1_algebra,
        "block22": lambda: block_algebra((2, 2)),
        "comm4": lambda: commutative_algebra(4, seed=5),
        "rot33": lambda: conjugated(block_algebra((3, 3)), random_unitary(6, np.random.default_rng(33))),
        "zero3": lambda: RealSubspace(dim_ambient=3, rows=np.empty((0, 18))),
    }[name]()
    cases = _coords_cases(L, np.random.default_rng(len(name)))
    assert len(cases) == (4 if name == "full3" else 21)
    for m, want in cases:
        x, inside = L._coords(m)
        assert x.dtype == float and x.tobytes() == L.coeffs(m).tobytes()
        assert inside is residual_contains(L, m) is L.contains(m) is want


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
