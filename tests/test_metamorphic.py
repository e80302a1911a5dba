"""Metamorphic tests on the invariances of the paper's constructions.

Unitary conjugation is an automorphism of both products, positive scaling
of the generators does not change the spans they generate, and a pair of
block-diagonal generators generates the direct sum of what its blocks
generate. Verdicts and closure dimensions must respect all three, a
block state on a direct sum of full blocks is classified block by block, and
witness values must be unitarily invariant and homogeneous of the degree
of their product. An orthonormal re-basing of an algebra keeps each
criterion's verdict outside a band around the threshold, whose width the
dimension sets, and classify's outcome outside all of them. The tests are
seeded parametrizations, so every case is reproducible.
"""

from __future__ import annotations

import numpy as np
import pytest

from helpers import (
    block_algebra,
    commutative_algebra,
    conjugated,
    einsum_bracket_expectations,
    random_unitary,
)
from ljlab import (
    DEFAULT_TOL,
    CriteriaDisagree,
    RealSubspace,
    State,
    associator_witness,
    centralizer,
    classify,
    close_under,
    derived_algebra,
    full_hermitian_space,
    is_classical_associator,
    is_classical_center,
    is_classical_commutator,
    is_semisimple_lie,
    jordan,
    jordan_generate_three,
    lie,
    lie_generate,
    random_hermitian,
    random_state,
    span,
    squared_witness,
    traceless,
)
from ljlab.states import CLASSICALITY_RTOL

ALGEBRAS = ("full2", "full3", "full4", "block21", "block22", "comm3", "comm4")


def _algebra(name: str):
    if name.startswith("full"):
        return full_hermitian_space(int(name[4:]))
    if name.startswith("block"):
        return block_algebra(tuple(int(c) for c in name[5:]))
    return commutative_algebra(int(name[4:]), seed=17)


def _states(n: int, seed: int) -> list[np.ndarray]:
    """A mixed, a pure, the maximally mixed and a block-scalar state."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    h = n // 2
    block_scalar = np.diag([0.7 / h] * h + [0.3 / (n - h)] * (n - h)).astype(complex)
    return [
        random_state(n, seed).rho,
        np.outer(v, v.conj()) / np.vdot(v, v).real,
        np.eye(n, dtype=complex) / n,
        block_scalar,
    ]


def _pair(kind: str, n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """A generic, a block-diagonal or a commuting generator pair."""
    rng = np.random.default_rng(seed)
    if kind == "generic":
        return random_hermitian(n, rng), random_hermitian(n, rng)
    if kind == "block":
        h = n // 2
        out = []
        for _ in range(2):
            m = np.zeros((n, n), dtype=complex)
            m[:h, :h] = random_hermitian(h, rng)
            m[h:, h:] = random_hermitian(n - h, rng)
            out.append(m)
        return out[0], out[1]
    u = random_unitary(n, rng)
    return tuple(u @ np.diag(rng.standard_normal(n)) @ u.conj().T for _ in range(2))


def _closure_dims(a: np.ndarray, b: np.ndarray) -> tuple[int, ...]:
    return (
        lie_generate(a, b).closure_dim,
        jordan_generate_three(a, b).closure_dim,
        close_under(span([a, b]), jordan).dim_span,
        close_under(span([a, b]), lie).dim_span,
    )


def _same_verdict(first, second) -> None:
    assert first.classical == second.classical
    assert first.criterion == second.criterion
    assert second.max_violation == pytest.approx(first.max_violation, abs=1e-10)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("name", ALGEBRAS)
def test_classify_is_invariant_under_unitary_conjugation(name, seed):
    L = _algebra(name)
    n = L.dim_ambient
    u = random_unitary(n, np.random.default_rng(1000 + seed))
    UL = conjugated(L, u)
    assert UL.dim_span == L.dim_span
    for rho in _states(n, seed):
        _same_verdict(classify(State(rho), L), classify(State(u @ rho @ u.conj().T), UL))


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("name", ALGEBRAS)
def test_associator_criterion_is_invariant_under_unitary_conjugation(name, seed):
    """Conjugation keeps the basis orthonormal, so each triple's value is
    kept; the conjugated basis has few zero brackets, so its exact pass
    multiplies pairs the canonical one skips."""
    L = _algebra(name)
    n = L.dim_ambient
    u = random_unitary(n, np.random.default_rng(3000 + seed))
    UL = conjugated(L, u)
    for rho in _states(n, seed):
        first = is_classical_associator(State(rho), L)
        second = is_classical_associator(State(u @ rho @ u.conj().T), UL)
        assert first.classical == second.classical
        assert abs(second.max_violation - first.max_violation) <= DEFAULT_TOL.threshold(first.max_violation)


@pytest.mark.parametrize("n", (3, 4, 6, 8))
def test_the_commutator_verdict_survives_a_rebasing_outside_its_band(n):
    """Re-based rows Q L.rows, Q orthogonal, turn C into Q C Q^T. The largest
    |entry| m of an r x r matrix lies in [sigma_1 / r, sigma_1], and sigma_1(C)
    is basis-free, so both bases' maxima do: the verdicts agree when
    m <= theta / r or m > r theta, and may differ only between."""
    L = full_hermitian_space(n)
    r, theta = L.dim_span, CLASSICALITY_RTOL
    rng = np.random.default_rng(7000 + n)
    rebased = [RealSubspace(n, np.linalg.qr(rng.standard_normal((r, r)))[0] @ L.rows) for _ in range(3)]
    v = np.arange(1.0, n + 1) / np.sqrt(n * (n + 1) * (2 * n + 1) / 6)
    for t in 10.0 ** (np.arange(-48, -11) / 4):
        s = State((1 - t) * np.eye(n) / n + t * np.outer(v, v))
        sigma = np.linalg.norm(einsum_bracket_expectations(s, L), 2)
        first = is_classical_commutator(s, L)
        m = first.max_violation
        for R in rebased:
            second = is_classical_commutator(s, R)
            assert sigma / r * (1 - 1e-9) <= second.max_violation <= sigma * (1 + 1e-9)
            if m <= theta / r or m > r * theta:
                assert second.classical == first.classical


def _criteria(s: State, L: RealSubspace) -> dict:
    verdicts = {"commutator": is_classical_commutator(s, L), "associator": is_classical_associator(s, L)}
    if L.contains(s.rho):
        verdicts["center"] = is_classical_center(s, L)
    return verdicts


def _outcome(s: State, L: RealSubspace) -> bool | None:
    """classify's verdict, None when its criteria disagree."""
    try:
        return classify(s, L).classical
    except CriteriaDisagree:
        return None


@pytest.mark.parametrize("name", ("full3", "full4", "full6", "block22"))
def test_the_associator_and_center_verdicts_survive_a_rebasing_outside_their_bands(name):
    """Re-based rows Q L.rows, Q orthogonal. The associator values form a
    trilinear form with basis-free spectral norm sigma, and the largest
    |entry| of an r x r x r array lies in [sigma / r^(3/2), sigma]. The center
    values are ||[rho, d_k]||_op over an orthonormal basis of [L, L], of
    dimension m: none exceeds M, the supremum over HS-unit d in [L, L], and
    the largest is at least M / sqrt(m). So each verdict agrees in both bases
    when its maximum lies outside (theta / b, b theta], b = r^(3/2) or
    sqrt(m), and classify's outcome does when every maximum lies outside its
    band (the commutator's, b = r, included). rho_t = (1 - t) I / n + t P,
    with P the projection of v v^T onto L, is a state in span(L)."""
    L = _algebra(name)
    n, r, theta = L.dim_ambient, L.dim_span, CLASSICALITY_RTOL
    bands = {"commutator": r, "associator": r**1.5, "center": np.sqrt(derived_algebra(L).dim_span)}
    rng = np.random.default_rng(7100 + n)
    rebased = [RealSubspace(n, np.linalg.qr(rng.standard_normal((r, r)))[0] @ L.rows) for _ in range(3)]
    v = np.arange(1.0, n + 1) / np.sqrt(n * (n + 1) * (2 * n + 1) / 6)
    p = L.project(np.outer(v, v))
    for t in 10.0 ** (np.arange(-48, -11) / 4):
        s = State((1 - t) * np.eye(n) / n + t * p)
        first = _criteria(s, L)
        assert set(first) == set(bands)
        outside = {k: not theta / bands[k] < first[k].max_violation <= bands[k] * theta for k in first}
        for R in rebased:
            second = _criteria(s, R)
            for k, out in outside.items():
                if out:
                    assert second[k].classical == first[k].classical, (k, t)
            if all(outside.values()):
                assert _outcome(s, R) == _outcome(s, L), t


@pytest.mark.parametrize("kind", ["pure", "wishart", "mixed"])
def test_classify_on_the_full_12x12_algebra_is_invariant_under_unitary_conjugation(kind):
    """At n = 12 the associator criterion's exact pass would multiply 2970
    nonzero brackets in the canonical basis and 10296 in the conjugated one;
    classify settles both cross-checks from its bounds on either basis and
    forms neither."""
    n = 12
    rng = np.random.default_rng(1200)
    L = full_hermitian_space(n)
    if kind == "pure":
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        rho = np.outer(v, v.conj()) / np.vdot(v, v).real
    else:
        rho = random_state(n, seed=12).rho if kind == "wishart" else np.eye(n, dtype=complex) / n
    u = random_unitary(n, rng)
    UL = conjugated(L, u)
    first, second = classify(State(rho), L), classify(State(u @ rho @ u.conj().T), UL)
    assert first.classical == second.classical == (kind == "mixed")
    assert first.criterion == second.criterion
    assert abs(second.max_violation - first.max_violation) <= DEFAULT_TOL.threshold(first.max_violation)
    for alg in (L, UL):
        assert "derived" not in alg._memo


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("n", (2, 3, 4))
@pytest.mark.parametrize("kind", ("generic", "block", "commuting"))
def test_closure_dims_are_invariant_under_unitary_conjugation(kind, n, seed):
    a, b = _pair(kind, n, seed)
    u = random_unitary(n, np.random.default_rng(2000 + seed))
    ua, ub = (u @ m @ u.conj().T for m in (a, b))
    assert _closure_dims(ua, ub) == _closure_dims(a, b)
    for close in (
        lambda x, y: lie_generate(traceless(x), traceless(y)).closure,
        lambda x, y: close_under(span([x, y]), lie),
    ):
        L, UL = close(a, b), close(ua, ub)
        assert is_semisimple_lie(UL) == is_semisimple_lie(L)
        assert centralizer(UL, UL).dim_span == centralizer(L, L).dim_span
        assert derived_algebra(UL).dim_span == derived_algebra(L).dim_span


@pytest.mark.parametrize("scale", ((0.05, 1.0), (3.0, 0.2), (40.0, 40.0)))
@pytest.mark.parametrize("n", (2, 3, 4))
@pytest.mark.parametrize("kind", ("generic", "block", "commuting"))
def test_closures_and_verdicts_are_invariant_under_positive_scaling(kind, n, scale):
    a, b = _pair(kind, n, seed=n)
    sa, sb = scale[0] * a, scale[1] * b
    assert _closure_dims(sa, sb) == _closure_dims(a, b)
    L = jordan_generate_three(a, b).closure
    SL = jordan_generate_three(sa, sb).closure
    for rho in _states(n, seed=n):
        _same_verdict(classify(State(rho), L), classify(State(rho), SL))


def _block_diag(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    n1, n2 = len(x), len(y)
    m = np.zeros((n1 + n2, n1 + n2), dtype=complex)
    m[:n1, :n1] = x
    m[n1:, n1:] = y
    return m


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("sizes", ((1, 2), (2, 2), (1, 3), (2, 3), (3, 3)))
def test_block_diagonal_pairs_close_to_the_direct_sum(sizes, seed):
    rng = np.random.default_rng(3000 + seed)
    blocks = [[random_hermitian(k, rng) for _ in range(2)] for k in sizes]
    (a1, b1), (a2, b2) = blocks
    a, b = _block_diag(a1, a2), _block_diag(b1, b2)
    # Jordan: the spectral projections of a split the blocks, so each block
    # generates its own full Hermitian algebra
    expected = sum(jordan_generate_three(x, y).closure_dim for x, y in blocks)
    assert expected == sizes[0] ** 2 + sizes[1] ** 2
    assert jordan_generate_three(a, b).closure_dim == expected
    # bracket: traceless blocks generate su(n1) + su(n2)
    ta, tb = _block_diag(traceless(a1), traceless(a2)), _block_diag(traceless(b1), traceless(b2))
    expected = sum(lie_generate(traceless(x), traceless(y)).closure_dim for x, y in blocks)
    assert expected == sizes[0] ** 2 + sizes[1] ** 2 - 2
    assert lie_generate(ta, tb).closure_dim == expected
    # the Jordan closure is the block algebra, so classify agrees on it (the
    # violations themselves depend on the basis)
    L = jordan_generate_three(a, b).closure
    B = block_algebra(sizes)
    assert all(L.contains(m) for m in B.basis)
    for rho in _states(sum(sizes), seed):
        assert classify(State(rho), L).classical == classify(State(rho), B).classical


def _block_states(n: int, seed: int) -> list[np.ndarray]:
    return [np.ones((1, 1), dtype=complex)] if n == 1 else _states(n, seed)


@pytest.mark.parametrize("p", (0.3, 0.5, 0.8))
@pytest.mark.parametrize("sizes", ((1, 2), (2, 2), (3, 1), (2, 3)))
def test_classify_on_a_direct_sum_is_decided_block_by_block(sizes, p):
    """On L1 + L2 (full blocks) the state p rho1 + (1 - p) rho2 is classical
    exactly when both blocks are, and its violation is the larger of the
    blocks' violations, each scaled by its weight: brackets across the
    blocks vanish, and within block 1 Tr(rho [e_i, e_j]) = p Tr(rho1 [e_i, e_j])."""
    n1, n2 = sizes
    L, L1, L2 = block_algebra(sizes), full_hermitian_space(n1), full_hermitian_space(n2)
    for rho1 in _block_states(n1, seed=n1):
        v1 = classify(State(rho1), L1)
        for rho2 in _block_states(n2, seed=10 + n2):
            v2 = classify(State(rho2), L2)
            v = classify(State(_block_diag(p * rho1, (1.0 - p) * rho2)), L)
            assert v.classical == (v1.classical and v2.classical)
            want = max(p * v1.max_violation, (1.0 - p) * v2.max_violation)
            assert v.max_violation == pytest.approx(want, rel=0, abs=DEFAULT_TOL.zero_tol)


def _conj(u: np.ndarray, m: np.ndarray) -> np.ndarray:
    return u @ m @ u.conj().T


def _psd_pair(n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Two PSD matrices, g g^H for complex Gaussian g, as the avr search draws them."""
    out = []
    for _ in range(2):
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        out.append(g @ g.conj().T)
    return out[0], out[1]


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("n", (2, 3, 4, 6))
def test_witness_values_are_invariant_under_unitary_conjugation(n, seed):
    rng = np.random.default_rng(4000 + 10 * n + seed)
    u = random_unitary(n, rng)
    a, b, c = (random_hermitian(n, rng) for _ in range(3))
    w, uw = associator_witness(a, b, c), associator_witness(*(_conj(u, m) for m in (a, b, c)))
    assert uw.violation == pytest.approx(w.violation, rel=1e-12)
    assert uw.found == w.found
    q, uq = squared_witness(a), squared_witness(_conj(u, a))
    assert uq.violation == pytest.approx(q.violation, rel=1e-12)
    assert uq.found == q.found
    # the avr value: the smallest eigenvalue of the Jordan product of a PSD pair
    p, r = _psd_pair(n, rng)
    lam = np.linalg.eigvalsh(jordan(p, r))[0]
    ulam = np.linalg.eigvalsh(jordan(_conj(u, p), _conj(u, r)))[0]
    scale = np.linalg.norm(p, 2) * np.linalg.norm(r, 2)
    assert ulam == pytest.approx(lam, rel=1e-12, abs=1e-12 * scale)


@pytest.mark.parametrize("t", (0.05, 0.5, 3.0, 40.0))
@pytest.mark.parametrize("n", (2, 3, 4))
@pytest.mark.parametrize("seed", range(3))
def test_witness_values_scale_with_the_degree_of_their_product(seed, n, t):
    rng = np.random.default_rng(5000 + 10 * n + seed)
    a, b, c = (random_hermitian(n, rng) for _ in range(3))
    w, tw = associator_witness(a, b, c), associator_witness(t * a, t * b, t * c)
    assert tw.violation == pytest.approx(t**3 * w.violation, rel=1e-12)
    assert tw.found == w.found
    q, tq = squared_witness(a), squared_witness(t * a)
    assert tq.violation == pytest.approx(t**2 * q.violation, rel=1e-12)
    assert tq.found == q.found
    # a commuting triple has no associator at any scale, and zero squares to zero
    u = random_unitary(n, rng)
    d = [u @ np.diag(rng.standard_normal(n)) @ u.conj().T for _ in range(3)]
    assert not associator_witness(*d).found
    assert not associator_witness(*(t * m for m in d)).found
    z = np.zeros((n, n), dtype=complex)
    assert squared_witness(t * z).violation == squared_witness(z).violation == 0.0
    assert not squared_witness(t * z).found
