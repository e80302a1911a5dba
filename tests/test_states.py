from __future__ import annotations

from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    DISAGREEMENTS,
    SX,
    SZ,
    I2,
    block_2_1_algebra,
    block_algebra,
    commutative_algebra,
    conjugated,
    dense_associator_expectations,
    dense_structure_constants,
    disagreement_message,
    einsum_associator_values,
    einsum_bracket_expectations,
    random_unitary,
)
from ljlab import (
    CriteriaDisagree,
    DimensionMismatch,
    NotInSpan,
    State,
    ValidationError,
    classify,
    derived_algebra,
    expect,
    full_hermitian_space,
    is_classical_associator,
    is_classical_center,
    is_classical_commutator,
    is_closed_under,
    is_semisimple_lie,
    jordan,
    jordan_generate_three,
    lie,
    lie_generate,
    random_hermitian,
    random_state,
    span,
)
from ljlab import states as states_mod
from ljlab.products import associator
from ljlab.states import (
    CLASSICALITY_RTOL,
    _bracket_expectations,
    _exact_values,
    _first_max,
    _pair_values,
)
from ljlab.subspace import _DEFECT_FLOOR, RealSubspace, _structure_constants


def diag_state(*entries: float) -> State:
    return State(np.diag(entries).astype(complex))


# ---------------------------------------------------------------- State


def test_state_validation_accepts_densities():
    s = diag_state(0.3, 0.7)
    assert s.dim == 2
    for i in range(30):
        random_state(3, seed=i)


def test_state_validation_rejects_bad_trace():
    with pytest.raises(ValidationError):
        diag_state(0.5, 0.4)


def test_state_validation_rejects_negative_eigenvalue():
    with pytest.raises(ValidationError):
        diag_state(1.5, -0.5)


def test_state_validation_rejects_nonhermitian():
    m = np.array([[0.5, 0.1], [0.3, 0.5]], dtype=complex)
    with pytest.raises(ValidationError):
        State(m)


def test_state_validation_rejects_nonfinite():
    m = np.array([[np.nan, 0], [0, 1.0]], dtype=complex)
    with pytest.raises(ValidationError):
        State(m)


def test_state_validation_rejects_empty_matrix():
    with pytest.raises(ValidationError):
        State(np.zeros((0, 0)))


def test_state_is_immutable():
    s = diag_state(0.5, 0.5)
    with pytest.raises(ValueError):
        s.rho[0, 0] = 2.0


def test_random_state_is_deterministic():
    a = random_state(3, seed=5)
    b = random_state(3, seed=5)
    np.testing.assert_array_equal(a.rho, b.rho)


# ---------------------------------------------------------------- expect


def test_expect_fixtures():
    s = diag_state(0.3, 0.7)
    assert expect(s, I2) == pytest.approx(1.0)
    assert expect(s, SZ) == pytest.approx(-0.4)
    assert expect(s, SX) == pytest.approx(0.0)
    with pytest.raises(DimensionMismatch):
        expect(s, np.eye(3))


def test_expect_is_linear_and_positive_on_squares():
    for i in range(40):
        s = random_state(3, seed=i)
        rng = np.random.default_rng(1000 + i)
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        a = 0.5 * (g + g.conj().T)
        g2 = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        b = 0.5 * (g2 + g2.conj().T)
        lhs = expect(s, 2.0 * a - 0.5 * b)
        assert lhs == pytest.approx(2.0 * expect(s, a) - 0.5 * expect(s, b), abs=1e-10)
        assert expect(s, jordan(a, a)) >= -1e-10


# ---------------------------------------------------------------- criteria on the full algebra


def test_maximally_mixed_is_classical_everywhere():
    for n in (2, 3):
        full = full_hermitian_space(n)
        s = State(np.eye(n) / n)
        assert is_classical_associator(s, full).classical
        assert is_classical_commutator(s, full).classical
        assert is_classical_center(s, full).classical
        assert classify(s, full).classical


def test_pure_state_is_quantum_for_full_algebra():
    full = full_hermitian_space(2)
    s = diag_state(1.0, 0.0)
    va = is_classical_associator(s, full)
    vc = is_classical_commutator(s, full)
    vz = is_classical_center(s, full)
    assert not va.classical and not vc.classical and not vz.classical
    # certificates replay: the recorded value is a genuine expectation
    i, j, k = (None, None, None)
    obs = va.certificate.observables
    replay = float(np.real(np.trace(s.rho @ associator(*obs))))
    assert replay == pytest.approx(va.certificate.value, abs=1e-12)
    assert abs(va.certificate.value) == pytest.approx(va.max_violation)
    obs = vc.certificate.observables
    replay = float(np.real(np.trace(s.rho @ lie(*obs))))
    assert replay == pytest.approx(vc.certificate.value, abs=1e-12)


def test_classify_returns_commutator_verdict():
    full = full_hermitian_space(2)
    v = classify(random_state(2, seed=3), full)
    assert v.criterion == "commutator"
    assert not v.classical
    assert len(v.certificate.observables) == 2


def test_criteria_agree_on_random_states():
    full = full_hermitian_space(3)
    d = derived_algebra(full)
    for i in range(50):
        s = random_state(3, seed=i)
        va = is_classical_associator(s, full)
        vc = is_classical_commutator(s, full)
        vz = is_classical_center(s, full)
        assert va.classical == vc.classical == vz.classical
        classify(s, full)  # must not raise CriteriaDisagree


# ---------------------------------------------------------------- vectorized paths vs direct loops


def loop_associator_max(s: State, L) -> float:
    best = 0.0
    for a in L.basis:
        for b in L.basis:
            for c in L.basis:
                v = abs(float(np.real(np.trace(s.rho @ associator(a, b, c)))))
                best = max(best, v)
    return best


def loop_commutator_max(s: State, L) -> float:
    best = 0.0
    for a in L.basis:
        for b in L.basis:
            v = abs(float(np.real(np.trace(s.rho @ lie(a, b)))))
            best = max(best, v)
    return best


def test_vectorized_criteria_match_loops():
    block = block_2_1_algebra()
    for i in range(10):
        s = random_state(3, seed=400 + i)
        va = is_classical_associator(s, block)
        assert va.max_violation == pytest.approx(loop_associator_max(s, block), abs=1e-12)
        vc = is_classical_commutator(s, block)
        assert vc.max_violation == pytest.approx(loop_commutator_max(s, block), abs=1e-12)


# ---------------------------------------------------------------- block algebra fixtures


def test_block_states_classical_family():
    block = block_2_1_algebra()
    for p in (0.0, 0.25, 0.5, 0.75, 1.0):
        s = diag_state(p / 2, p / 2, 1.0 - p)
        assert is_classical_associator(s, block).classical
        assert is_classical_commutator(s, block).classical
        assert is_classical_center(s, block).classical
        assert classify(s, block).classical


def test_block_state_quantum_fixture():
    block = block_2_1_algebra()
    s = diag_state(0.3, 0.2, 0.5)
    va = is_classical_associator(s, block)
    vc = is_classical_commutator(s, block)
    vz = is_classical_center(s, block)
    assert not va.classical and not vc.classical and not vz.classical
    v = classify(s, block)
    assert not v.classical
    # center certificate: a derived-algebra element with nonvanishing bracket
    d = vz.certificate.observables[0]
    assert np.linalg.norm(lie(s.rho, d), 2) == pytest.approx(vz.max_violation, abs=1e-12)


def test_center_criterion_requires_span_membership():
    block = block_2_1_algebra()
    coher = np.zeros((3, 3), dtype=complex)
    coher[0, 0] = coher[2, 2] = 0.5
    coher[0, 2] = coher[2, 0] = 0.5  # coherence across the blocks
    s = State(coher)
    with pytest.raises(NotInSpan):
        is_classical_center(s, block)
    # classify still works, skipping the center criterion
    assert not classify(s, block).classical


def test_classify_on_commutative_algebra_is_classical():
    # any valid state is classical for a commutative algebra
    for seed in range(8):
        alg = commutative_algebra(3, seed=700 + seed)
        s = random_state(3, seed=seed)
        v = classify(s, alg)
        assert v.classical
        assert v.max_violation <= 1e-8


def test_classicality_is_convex():
    block = block_2_1_algebra()
    a = diag_state(0.25, 0.25, 0.5)
    b = diag_state(0.5, 0.5, 0.0)
    for lam in (0.0, 0.3, 0.7, 1.0):
        mix = State(lam * a.rho + (1 - lam) * b.rho)
        assert classify(mix, block).classical


def test_zero_dimensional_algebra_is_trivially_classical():
    from ljlab.subspace import RealSubspace

    z = RealSubspace(dim_ambient=2, rows=np.empty((0, 8)))
    s = diag_state(0.5, 0.5)
    assert is_classical_associator(s, z).classical
    assert is_classical_commutator(s, z).classical


def test_criteria_disagree_is_importable():
    # the exception type is part of the public contract even though a sound
    # implementation never raises it on closed subalgebras
    assert issubclass(CriteriaDisagree, Exception)


# ---------------------------------------------------------------- associator criterion vs its einsum oracle


def _oracle_algebras():
    algs = [(f"full{n}", full_hermitian_space(n), None) for n in range(2, 7)]
    algs += [(f"block{a}{b}", block_algebra((a, b)), (a, b)) for a, b in ((2, 1), (2, 2), (3, 1))]
    algs += [(f"comm{n}.{k}", commutative_algebra(n, seed=k), None) for n in (3, 4) for k in range(2)]
    u = random_unitary(6, np.random.default_rng(33))
    algs.append(("rot33", conjugated(block_algebra((3, 3)), u), (3, 3)))
    return algs


def test_bracket_tensor_matches_its_einsum_oracle():
    algs = [full_hermitian_space(n) for n in range(1, 9)]
    algs += [block_2_1_algebra(), block_algebra((2, 2)), block_algebra((1, 2, 3))]
    algs += [commutative_algebra(n, seed=n) for n in (2, 3, 4)]
    algs += [RealSubspace(dim_ambient=n, rows=np.empty((0, 2 * n * n))) for n in (1, 3)]
    for k, alg in enumerate(algs):
        n, r = alg.dim_ambient, alg.dim_span
        for s in _oracle_states(n, seed=800 + k) + [State(np.eye(n, dtype=complex) / n)]:
            got, want = _bracket_expectations(s, alg), einsum_bracket_expectations(s, alg)
            assert got.shape == want.shape == (r, r)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)


def _block_scalar(sizes, p: float) -> np.ndarray:
    weights = [p / sizes[0]] * sizes[0] + [(1.0 - p) / sizes[1]] * sizes[1]
    return np.diag(weights).astype(complex)


def _oracle_states(n: int, seed: int) -> list[State]:
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return [random_state(n, seed), State(np.outer(v, v.conj()) / np.vdot(v, v).real)]


def _first_top_triple(vals: np.ndarray) -> tuple[tuple[int, int, int], float]:
    """Largest |vals| with its (i, j, k), i < k, and the gap to the next triple.

    vals is antisymmetric in (i, k), so a triple and its mirror (k, j, i)
    count as one.
    """
    a = np.abs(vals)
    a = np.maximum(a, a.transpose(2, 1, 0))
    i, _, k = np.indices(a.shape)
    flat = np.where(i < k, a, -1.0).ravel()
    order = np.argsort(flat, kind="stable")[::-1]
    top = np.unravel_index(order[0], a.shape)
    return tuple(int(x) for x in top), float(flat[order[0]] - flat[order[1]])


def _assembled(blocks, r: int) -> tuple[np.ndarray, np.ndarray]:
    """The r^3 values the blocks give, zero where none does, and how often each triple came."""
    vals, seen = np.zeros((r, r, r)), np.zeros((r, r, r), dtype=int)
    for v, i, k in blocks:
        vals[i, :, k] = v
        seen[i, :, k] += 1
    return vals, seen


def _associator_values(s, alg):
    """vals[i, j, k] from the bracket table's blocks, each i < k pair in both orientations."""
    blocks = list(_pair_values(_structure_constants(alg), _bracket_expectations(s, alg)))
    vals, seen = _assembled(blocks + [(-v, k, i) for v, i, k in blocks], alg.dim_span)
    assert seen.max(initial=0) <= 1
    return vals


def test_associator_values_match_einsum_oracle():
    gaps = 0
    for seed, (name, alg, _) in enumerate(_oracle_algebras()):
        for s in _oracle_states(alg.dim_ambient, seed=500 + seed):
            vals = _associator_values(s, alg)
            ref = einsum_associator_values(s, alg)
            np.testing.assert_allclose(vals, ref, rtol=0, atol=1e-12, err_msg=name)
            top, gap = _first_top_triple(ref)
            if gap > 1e-12:
                # the first row-major maximum of the antisymmetric vals has i < k
                arg = np.unravel_index(int(np.argmax(np.abs(vals))), vals.shape)
                assert tuple(int(x) for x in arg) == top, name
                gaps += 1
            verdict = is_classical_associator(s, alg)
            assert verdict.max_violation == pytest.approx(np.abs(ref).max(), abs=1e-12)
    assert gaps >= 12  # the triple comparison is not vacuous


def test_associator_values_vanish_where_brackets_do():
    for name, alg, sizes in _oracle_algebras():
        n = alg.dim_ambient
        rhos = [np.eye(n, dtype=complex) / n]
        if sizes is not None:
            rhos += [_block_scalar(sizes, p) for p in (0.2, 0.65)]
            if name == "rot33":
                u = random_unitary(6, np.random.default_rng(33))
                rhos[1:] = [u @ rho @ u.conj().T for rho in rhos[1:]]
        for rho in rhos:
            vals = _associator_values(State(rho), alg)
            assert np.abs(vals).max() <= 1e-15, name
            assert is_classical_associator(State(rho), alg).classical


def _count_exact(monkeypatch) -> list[int]:
    calls = [0]

    def counted(s, L):
        calls[0] += 1
        return _exact_values(s, L)

    monkeypatch.setattr(states_mod, "_exact_values", counted)
    return calls


@pytest.mark.parametrize("name", ["full3", "block22", "rot33"])
def test_large_residual_bound_takes_the_exact_pass(monkeypatch, name):
    alg = {a: L for a, L, _ in _oracle_algebras()}[name]
    s = _oracle_states(alg.dim_ambient, seed=7)[0]
    fast = is_classical_associator(s, alg)
    alg._memo["structure"] = alg._memo["structure"]._replace(delta=1.0)
    calls = _count_exact(monkeypatch)
    exact = is_classical_associator(s, alg)
    assert calls[0] == 1
    # the values the exact pass scans, with their negatives: every i != k triple once
    r = alg.dim_span
    blocks = list(_exact_values(s, alg))
    vals, seen = _assembled(blocks + [(-v, k, i) for v, i, k in blocks], r)
    i, _, k = np.indices((r, r, r))
    assert np.array_equal(seen, (i != k).astype(int))
    np.testing.assert_allclose(vals, einsum_associator_values(s, alg), rtol=0, atol=1e-12)
    assert exact.classical == fast.classical
    assert exact.max_violation == pytest.approx(fast.max_violation, abs=1e-12)


def test_exact_pass_runs_only_when_the_bound_reaches_the_threshold(monkeypatch):
    alg = full_hermitian_space(3)
    s = random_state(3, seed=12)
    peak = float(np.abs(einsum_associator_values(s, alg)).max())
    calls = _count_exact(monkeypatch)
    table = _structure_constants(alg)
    for rtol in (peak * (1 - 1e-3), peak * (1 + 1e-3)):
        monkeypatch.setattr(states_mod, "CLASSICALITY_RTOL", rtol)
        margin = abs(peak - rtol)
        for delta, runs in ((0.5 * margin, 0), (2.0 * margin, 1)):
            alg._memo["structure"] = table._replace(delta=delta)
            calls[0] = 0
            v = is_classical_associator(s, alg)
            assert calls[0] == runs
            assert v.classical == (rtol > peak)
            assert v.max_violation == pytest.approx(peak, abs=1e-12)


def test_a_barely_closed_algebra_reaches_the_exact_pass():
    """The (2, 2) block basis plus 1e-9 Hermitian noise is closed under both
    products, but its brackets leave the span by a few 1e-9, so the table's
    delta is about 0.3 ``CLASSICALITY_RTOL``. On rho_t = (1 - t) I / n +
    t sigma every value is t times sigma's (I / n sees no associator), so t
    puts the largest value at ``CLASSICALITY_RTOL (1 +- 0.05)``: inside the
    band on both sides of the threshold, where the verdict is the exact pass's."""
    noisy = [e + 1e-9 * random_hermitian(4, seed=90 + q) for q, e in enumerate(block_algebra((2, 2)).basis)]
    alg = span(noisy)
    assert is_closed_under(alg, jordan) and is_closed_under(alg, lie)
    table = _structure_constants(alg)
    assert 0.05 * CLASSICALITY_RTOL < table.delta < 0.5 * CLASSICALITY_RTOL
    sigma = random_state(4, seed=3)
    peak = float(np.abs(einsum_associator_values(sigma, alg)).max())
    for f in (0.95, 1.05):
        t = CLASSICALITY_RTOL * f / peak
        s = State((1.0 - t) * np.eye(4, dtype=complex) / 4 + t * sigma.rho)
        want = float(np.abs(einsum_associator_values(s, alg)).max())
        top, _, _ = _first_max(_pair_values(table, _bracket_expectations(s, alg)))
        assert abs(top - CLASSICALITY_RTOL) <= table.delta
        got = is_classical_associator(s, alg)
        assert got.classical == (want <= CLASSICALITY_RTOL) == (f < 1)
        assert got.max_violation == _first_max(_exact_values(s, alg))[0]
        assert got.max_violation == pytest.approx(want, rel=1e-9)


def test_structure_constants_are_memoized_by_the_associator_criterion_only():
    alg = full_hermitian_space(3)
    assert is_semisimple_lie(alg) is False
    assert derived_algebra(alg).dim_span == 8
    assert "structure" not in alg._memo
    is_classical_associator(random_state(3, seed=1), alg)
    memo = alg._memo["structure"]
    classify(random_state(3, seed=2), alg)
    assert alg._memo["structure"] is memo
    # the table is the dense structure constants' nonzero i < k rows, bit for bit
    i, k, coords, delta, norm = memo
    assert np.all(i < k) and np.all(np.diff(i * alg.dim_span + k) > 0)
    F, ref_delta = dense_structure_constants(alg)
    dense = np.zeros_like(F)
    dense[i, k], dense[k, i] = coords, -coords
    assert np.array_equal(dense, F)
    assert delta == ref_delta and delta <= 1e-15


# ---------------------------------------------------------------- bracket table vs the dense structure constants


def _table_algebra(name: str) -> RealSubspace:
    kind, arg = name.split(":")
    if kind == "full":
        return full_hermitian_space(int(arg))
    if kind == "block":
        return block_algebra(tuple(int(c) for c in arg))
    if kind == "comm":
        return commutative_algebra(int(arg), seed=60 + int(arg))
    if kind == "rot":  # a conjugated basis: every bracket has a row
        return conjugated(full_hermitian_space(4), random_unitary(4, np.random.default_rng(44)))
    n = int(arg)
    a, b = random_hermitian(n, seed=70 + 2 * n), random_hermitian(n, seed=71 + 2 * n)
    # both closures are the whole algebra, in a basis with every bracket nonzero
    # (su(n), from traceless seeds, is not Jordan-closed)
    if kind == "lie":
        return lie_generate(a, b).closure
    return jordan_generate_three(a, b).closure


_TABLE_ALGEBRAS = (
    [f"full:{n}" for n in range(1, 9)]
    + ["block:21", "block:22", "block:31", "block:122"]
    + [f"comm:{n}" for n in (3, 4, 6)]
    + [f"{kind}:{n}" for kind in ("lie", "jordan") for n in (3, 4, 5)]
    + ["rot:4"]
)


def _table_state(name: str, n: int, kind: str) -> State:
    rng = np.random.default_rng([n, ord(kind[0])])
    if kind == "wishart":
        return random_state(n, seed=int(rng.integers(1 << 16)))
    if kind == "pure":
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        return State(np.outer(v, v.conj()) / np.vdot(v, v).real)
    if kind == "block-scalar":
        sizes = [int(c) for c in name.split(":")[1]] if name.startswith("block") else [n - n // 2, n // 2][: min(n, 2)]
        w = np.repeat(rng.uniform(0.1, 1.0, len(sizes)) / sizes, sizes)
        return State(np.diag(w / w.sum()).astype(complex))
    return State(np.eye(n, dtype=complex) / n)


@pytest.mark.parametrize("kind", ["wishart", "pure", "block-scalar", "mixed"])
@pytest.mark.parametrize("name", _TABLE_ALGEBRAS)
def test_associator_verdict_matches_the_dense_structure_constants(name, kind):
    alg = _table_algebra(name)
    s = _table_state(name, alg.dim_ambient, kind)
    got = is_classical_associator(s, alg)
    ref_vals = dense_associator_expectations(s, alg, CLASSICALITY_RTOL, _bracket_expectations(s, alg))
    flat = np.abs(ref_vals).ravel()
    arg = int(np.argmax(flat))
    ref_max, ref_idx = float(flat[arg]), np.unravel_index(arg, ref_vals.shape)
    assert got.classical == (ref_max <= CLASSICALITY_RTOL)
    if name.startswith("full"):
        assert got.max_violation == ref_max
    elif ref_max > _DEFECT_FLOOR:
        assert got.max_violation == pytest.approx(ref_max, rel=1e-14, abs=0)
    else:  # roundoff: pairs without a table row read 0.0
        assert got.max_violation <= ref_max * (1 + 1e-14)
    if not got.classical:
        basis = alg.basis
        idx = tuple(next(q for q, e in enumerate(basis) if e is m) for m in got.certificate.observables)
        assert idx == tuple(int(x) for x in ref_idx)
        assert got.certificate.value == pytest.approx(float(ref_vals[ref_idx]), rel=1e-14, abs=0)


@pytest.mark.parametrize("seed", range(20))
def test_running_maximum_finds_the_first_row_major_maximum_among_ties(seed):
    """Small integer values tie often; the scan must pick what a dense argmax picks."""
    rng = np.random.default_rng(seed)
    r = int(rng.integers(2, 7))
    i, k = np.triu_indices(r, 1)
    rows = np.sort(rng.choice(len(i), size=int(rng.integers(1, len(i) + 1)), replace=False))
    vals = rng.integers(-2, 3, size=(len(rows), r)).astype(float)
    cuts = np.sort(rng.integers(0, len(rows) + 1, size=2))
    blocks = [(vals[a:b], i[rows][a:b], k[rows][a:b]) for a, b in zip((0, *cuts), (*cuts, len(rows)))]
    blocks = [b for b in blocks if len(b[1])]
    dense, _ = _assembled(blocks + [(-v, kb, ib) for v, ib, kb in blocks], r)
    arg = int(np.argmax(np.abs(dense)))
    idx = np.unravel_index(arg, dense.shape)
    best, got_idx, value = _first_max(blocks)
    assert best == np.abs(dense).max()
    if best > 0:
        assert got_idx == tuple(int(x) for x in idx) and value == dense[idx]


def test_the_table_oracle_sees_both_verdicts():
    verdicts = set()
    for name in ("full:3", "block:21", "lie:4"):
        alg = _table_algebra(name)
        for kind in ("pure", "mixed"):
            verdicts.add(is_classical_associator(_table_state(name, alg.dim_ambient, kind), alg).classical)
    assert verdicts == {True, False}


# ---------------------------------------------------------------- no r^3 array


@pytest.mark.parametrize("eps", [1e-11, 1e-10, 1e-6, 1e-2])
def test_bracket_table_delta_bounds_what_the_table_leaves_out(eps):
    """span{diag(1, -1, 0), diag(0, 0, 1) + eps X_01}: its one bracket, of
    norm about eps, points along Y_01, off the span. Below the cut it is
    dropped whole; above it, it is kept with zero coordinates and its whole
    norm as the residual. Either way delta is its HS norm."""
    x01 = np.zeros((3, 3), dtype=complex)
    x01[0, 1] = x01[1, 0] = 1.0
    alg = span([np.diag([1.0, -1.0, 0.0]).astype(complex), np.diag([0.0, 0.0, 1.0]) + eps * x01])
    e0, e1 = alg.basis
    norm = float(np.linalg.norm(lie(e0, e1)))
    table = _structure_constants(alg)
    assert len(table.i) == (1 if norm > 0.5 * _DEFECT_FLOOR else 0)
    assert table.delta == pytest.approx(norm, rel=1e-6)
    assert np.abs(table.coords).max(initial=0.0) <= 1e-15


@pytest.mark.parametrize("n,rows", [(8, 812), (12, 2970)])
def test_bracket_table_of_the_full_algebra_holds_its_nonzero_brackets_only(n, rows):
    alg = full_hermitian_space(n)
    assert not classify(random_state(n, seed=n), alg).classical
    table = alg._memo["structure"]
    assert len(table.i) == len(table.k) == len(table.coords) == rows
    r = alg.dim_span

    def arrays(value):
        if isinstance(value, np.ndarray):
            return [value]
        if isinstance(value, RealSubspace):
            return [value.rows]
        if isinstance(value, tuple):
            return [a for v in value for a in arrays(v)]
        return []

    sizes = [a.size for v in alg._memo.values() for a in arrays(v)]
    assert sizes and max(sizes) < r**3


def test_no_source_file_allocates_the_dense_structure_constants():
    src = Path(states_mod.__file__).parent
    for path in src.glob("*.py"):
        assert "np.zeros((r, r, r))" not in path.read_text(encoding="utf-8"), path.name


def test_classify_tests_membership_in_the_span_once(monkeypatch):
    calls = [0]
    original = RealSubspace.contains

    def counted(self, m):
        calls[0] += 1
        return original(self, m)

    monkeypatch.setattr(RealSubspace, "contains", counted)
    block = block_2_1_algebra()
    inside, outside = diag_state(0.25, 0.25, 0.5), State(np.full((3, 3), 1 / 3, dtype=complex))
    for s, L, criteria in ((inside, block, 3), (outside, block, 2), (random_state(3, 4), full_hermitian_space(3), 3)):
        verdict = classify(s, L)
        assert calls[0] == 1
        assert verdict.classical == is_classical_commutator(s, L).classical
        if criteria == 3:
            assert is_classical_center(s, L).classical == verdict.classical
        else:
            with pytest.raises(NotInSpan):
                is_classical_center(s, L)
        calls[0] = 0


def test_classify_builds_the_bracket_tensor_once_per_state(monkeypatch):
    calls = [0]
    original = states_mod._bracket_expectations

    def counted(s, L):
        calls[0] += 1
        return original(s, L)

    monkeypatch.setattr(states_mod, "_bracket_expectations", counted)
    for n in (2, 3, 4):
        L = full_hermitian_space(n)
        for seed in range(3):
            s = random_state(n, seed)
            before = calls[0]
            verdict = classify(s, L)
            assert calls[0] - before == 1
            # the shared tensor gives the verdicts the public criteria give alone
            alone = is_classical_commutator(s, L)
            assert (verdict.classical, verdict.max_violation) == (alone.classical, alone.max_violation)
            assert is_classical_associator(s, L).classical == verdict.classical


# ---------------------------------------------------------------- classify's flags vs the public criteria


_FLAG_ALGEBRAS = (
    [f"full:{n}" for n in range(2, 7)]
    + ["block:21", "block:22", "block:31", "block:122"]
    + ["comm:3", "comm:4"]
    + [f"{kind}:{n}" for kind in ("lie", "jordan") for n in (3, 4)]
    + ["rot:4"]
)


def _in_span_state(alg: RealSubspace, seed: int) -> State:
    """x^2 / Tr(x^2) for a random x in the Jordan-closed alg: a full-rank state in its span."""
    x = np.tensordot(np.random.default_rng(seed).standard_normal(alg.dim_span), alg._stacked, axes=1)
    x2 = x @ x
    return State(0.5 * (x2 + x2.conj().T) / np.trace(x2).real)


def _near_mixed(sigma: State, t: float) -> State:
    n = sigma.dim
    return State((1.0 - t) * np.eye(n, dtype=complex) / n + t * sigma.rho)


def _check_flags(monkeypatch, name: str) -> tuple[int, int, int]:
    """Each flag against its public criterion, on the oracle states and on
    rho_t = (1 - t) I / n + t sigma, whose values cross the threshold as t
    runs over 1e-12..1e-4 and so land in the bands the bounds cannot settle.

    Returns the spectral-norm calls the center flag made in its band, the
    associator flags that fell back to the verdict, and the state count.
    """
    alg = _table_algebra(name)
    n = alg.dim_ambient
    states = [_table_state(name, n, kind) for kind in ("wishart", "pure", "block-scalar", "mixed")]
    sigmas = [random_state(n, seed=n), _in_span_state(alg, seed=n)]
    states += [_near_mixed(sigma, t) for sigma in sigmas for t in np.logspace(-12, -4, 17)]
    calls: Counter[str] = Counter()

    def counted(key, fn):
        def wrapped(*args):
            calls[key] += 1
            return fn(*args)

        return wrapped

    band = fallback = 0
    with monkeypatch.context() as m:
        for fn in ("_opnorm", "_associator_verdict"):
            m.setattr(states_mod, fn, counted(fn, getattr(states_mod, fn)))
        for s in states:
            want = is_classical_associator(s, alg).classical
            before = calls["_associator_verdict"]
            assert states_mod._associator_flag(s, alg, _bracket_expectations(s, alg)) == want, name
            fallback += calls["_associator_verdict"] - before
            try:
                want = is_classical_center(s, alg).classical
            except NotInSpan:
                with pytest.raises(NotInSpan):
                    states_mod._center_flag(s, alg)
                continue
            before = calls["_opnorm"]
            assert states_mod._center_flag(s, alg) == want, name
            band += calls["_opnorm"] - before
    return band, fallback, len(states)


@pytest.mark.parametrize("name", _FLAG_ALGEBRAS)
def test_each_flag_is_its_criterions_verdict(monkeypatch, name):
    _check_flags(monkeypatch, name)


def test_the_flag_oracle_reaches_both_fallbacks(monkeypatch):
    """Both bands are reached, and they are thin: most flags settle from a bound."""
    band, fallback, total = np.sum([_check_flags(monkeypatch, name) for name in _FLAG_ALGEBRAS], axis=0)
    assert band > 0 and fallback > 0
    assert band + fallback < total // 4


@pytest.mark.parametrize("patch", DISAGREEMENTS)
def test_a_disagreement_raises_the_full_verdicts_message(monkeypatch, patch):
    L = full_hermitian_space(3)
    s = random_state(3, seed=5)
    want = disagreement_message(s, L, patch)
    monkeypatch.setattr(states_mod, *DISAGREEMENTS[patch])
    with pytest.raises(CriteriaDisagree) as exc:
        classify(s, L)
    assert str(exc.value) == want
