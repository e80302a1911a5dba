from __future__ import annotations

import math
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
    complex_bracket_expectations,
    conjugated,
    disagreement_message,
    einsum_associator_values,
    einsum_bracket_expectations,
    random_unitary,
    split_state,
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
    jordan,
    jordan_generate_three,
    lie,
    lie_generate,
    random_hermitian,
    random_state,
    span,
)
from ljlab import states as states_mod
from ljlab.products import _lie, associator
from ljlab.states import (
    CLASSICALITY_RTOL,
    _bracket_expectations,
    _exact_values,
)
from ljlab.subspace import _DEFECT_FLOOR, SPAN_RTOL, RealSubspace, _brackets, _first_max, _rows


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


def _orthogonal_algebra() -> RealSubspace:
    return span([np.diag([1.0, 0.0, 0.0]).astype(complex)])


@pytest.mark.parametrize(
    "alg,rho",
    [
        (RealSubspace(dim_ambient=1, rows=np.empty((0, 2))), np.eye(1)),
        (RealSubspace(dim_ambient=3, rows=np.empty((0, 18))), np.eye(3) / 3),
        (RealSubspace(dim_ambient=3, rows=np.empty((0, 18))), np.diag([1.0, 0.0, 0.0])),
        (full_hermitian_space(1), np.eye(1)),
        (_orthogonal_algebra(), np.diag([0.0, 0.5, 0.5])),  # rho's coordinates are all zero
        (_orthogonal_algebra(), np.diag([0.0, 0.0, 1.0])),
    ],
    ids=["empty:1", "empty:3-mixed", "empty:3-pure", "full:1", "orthogonal-mixed", "orthogonal-pure"],
)
def test_classify_where_the_bounds_have_no_tensor_or_no_coordinates(alg, rho):
    """An empty C (r = 0, so ||x||_1 = 0 and rho is in no span) and rho
    orthogonal to L (||x||_1 = 0): the verdicts are classical with no
    violation, as the public criteria say."""
    s = State(rho.astype(complex))
    verdict = classify(s, alg)
    assert (verdict.classical, verdict.criterion, verdict.max_violation, verdict.certificate) == (
        True,
        "commutator",
        0.0,
        None,
    )
    assert states_mod._flags(s, alg, _bracket_expectations(s, alg)) == _public_flags(s, alg)
    assert all(_public_flags(s, alg))


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


def _bracket_tensor_cases() -> list[tuple[RealSubspace, State]]:
    """The cases of ``test_bracket_tensor_matches_its_einsum_oracle``: full(1..8), block,
    commutative and zero algebras, each with its oracle states and I/n."""
    algs = [full_hermitian_space(n) for n in range(1, 9)]
    algs += [block_2_1_algebra(), block_algebra((2, 2)), block_algebra((1, 2, 3))]
    algs += [commutative_algebra(n, seed=n) for n in (2, 3, 4)]
    algs += [RealSubspace(dim_ambient=n, rows=np.empty((0, 2 * n * n))) for n in (1, 3)]
    cases = []
    for k, alg in enumerate(algs):
        n = alg.dim_ambient
        cases += [(alg, s) for s in _oracle_states(n, seed=800 + k) + [State(np.eye(n, dtype=complex) / n)]]
    return cases


def test_bracket_tensor_from_the_imaginary_part_equals_the_complex_table():
    """``0.5 (Im t^T - Im t)`` against ``Re(0.5j (t - t^T))`` on the same pair table t.

    Each entry is the same rounded difference halved, so the two are equal
    entry for entry, but an exact zero may carry either sign: the complex
    product's real part is ``0 * Re(t_ij - t_ji) - 0.5 * Im(t_ij - t_ji)``.
    ``np.array_equal`` reads -0.0 == 0.0, and so does every verdict, which
    reads |C| and its row norms.
    """
    nonzero = 0
    for alg, s in _bracket_tensor_cases():
        got, want = _bracket_expectations(s, alg), complex_bracket_expectations(s, alg)
        assert got.shape == want.shape and np.array_equal(got, want)
        nonzero += bool(np.any(got))
    assert nonzero >= 20  # the equality is not only among zero tables


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
    """vals[i, j, k] from the exact pass's blocks, each i < k pair in both orientations."""
    blocks = list(_exact_values(s, alg))
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


def _brackets_are_nonzero(alg) -> np.ndarray:
    """(r, r) mask of the pairs i != k whose bracket ``[e_i, e_k]`` has a nonzero entry."""
    nonzero = np.zeros((alg.dim_span,) * 2, dtype=bool)
    for any_entry, i, k in _brackets(alg, lambda br: _rows(br).any(axis=1)):
        nonzero[i, k] = nonzero[k, i] = any_entry
    return nonzero


@pytest.mark.parametrize("name", ["full3", "block22", "rot33"])
def test_the_exact_pass_sees_every_nonzero_bracket_pair_once(name):
    """The values the exact pass scans, with their negatives: every i != k
    triple whose bracket is nonzero once, and no other."""
    alg = {a: L for a, L, _ in _oracle_algebras()}[name]
    s = _oracle_states(alg.dim_ambient, seed=7)[0]
    r = alg.dim_span
    blocks = list(_exact_values(s, alg))
    vals, seen = _assembled(blocks + [(-v, k, i) for v, i, k in blocks], r)
    nonzero = _brackets_are_nonzero(alg)
    assert np.array_equal(seen, np.broadcast_to(nonzero[:, None, :], (r, r, r)).astype(int))
    assert (name == "rot33") == nonzero[~np.eye(r, dtype=bool)].all()  # a conjugated basis skips no pair
    np.testing.assert_allclose(vals, einsum_associator_values(s, alg), rtol=0, atol=1e-12)
    verdict = is_classical_associator(s, alg)
    assert verdict.max_violation == _first_max(blocks)[0]


def _unskipped_values(s, alg):
    """The exact pass without its zero-row skip: one matrix product per whole bracket block."""
    minus_bt = -_rows(_lie(s.rho, alg._stacked)).T
    return _brackets(alg, lambda br: _rows(br) @ minus_bt)


def test_the_zero_row_skip_leaves_the_exact_maximum_and_triple_as_they_were():
    algs = [full_hermitian_space(n) for n in range(1, 7)]
    algs.append(conjugated(full_hermitian_space(4), random_unitary(4, np.random.default_rng(44))))
    algs += [block_algebra(sizes) for sizes in ((2, 1), (2, 2), (3, 1), (1, 2, 2), (3, 3))]
    skipped = 0
    for q, alg in enumerate(algs):
        n = alg.dim_ambient
        states = _oracle_states(n, seed=900 + q)
        for s in states + [_near_mixed(states[0], 1e-6), State(np.eye(n, dtype=complex) / n)]:
            want = _first_max(_unskipped_values(s, alg))
            assert _first_max(_exact_values(s, alg)) == want, (q, want)
        skipped += int((~_brackets_are_nonzero(alg)).sum()) - alg.dim_span
    assert skipped > 0  # the skip is not vacuous


def test_a_barely_closed_algebra_reaches_the_exact_pass():
    """The (2, 2) block basis plus 1e-9 Hermitian noise is closed under both
    products, but its brackets leave the span by a few 1e-9, about 0.3
    ``CLASSICALITY_RTOL``. On rho_t = (1 - t) I / n + t sigma every value is
    t times sigma's (I / n sees no associator), so t puts the largest value
    at ``CLASSICALITY_RTOL (1 +- 0.05)``, on both sides of the threshold:
    the verdict is the exact pass's, and the einsum oracle's."""
    noisy = [e + 1e-9 * random_hermitian(4, seed=90 + q) for q, e in enumerate(block_algebra((2, 2)).basis)]
    alg = span(noisy)
    assert is_closed_under(alg, jordan) and is_closed_under(alg, lie)
    sigma = random_state(4, seed=3)
    peak = float(np.abs(einsum_associator_values(sigma, alg)).max())
    for f in (0.95, 1.05):
        t = CLASSICALITY_RTOL * f / peak
        s = State((1.0 - t) * np.eye(4, dtype=complex) / 4 + t * sigma.rho)
        want = float(np.abs(einsum_associator_values(s, alg)).max())
        got = is_classical_associator(s, alg)
        assert got.classical == (want <= CLASSICALITY_RTOL) == (f < 1)
        assert got.max_violation == _first_max(_exact_values(s, alg))[0]
        assert got.max_violation == pytest.approx(want, rel=1e-9)


def test_the_memo_holds_only_closedness_and_the_derived_algebra(monkeypatch):
    """The associator criterion and a near-threshold classify, which takes
    both criteria's own verdicts, memoize nothing else on L."""
    calls: Counter[str] = Counter()
    for fn in ("_associator_verdict", "_center_verdict"):

        def counted(*args, fn=fn, original=getattr(states_mod, fn)):
            calls[fn] += 1
            return original(*args)

        monkeypatch.setattr(states_mod, fn, counted)
    alg = full_hermitian_space(3)
    is_classical_associator(random_state(3, seed=1), alg)
    assert set(alg._memo) == {jordan, lie}
    assert not classify(_near_mixed(random_state(3, seed=5), 1e-6), alg).classical
    assert calls == {"_associator_verdict": 2, "_center_verdict": 1}
    assert set(alg._memo) == {jordan, lie, "derived"}


# ---------------------------------------------------------------- associator verdict vs the dense einsum values


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
    """Against the dense r^3 values of the einsum oracle: the exact pass's
    values and the verdict's maximum within 1e-12, and the certificate's
    triple wherever the oracle's top two triples are more than 1e-12 apart."""
    alg = _table_algebra(name)
    s = _table_state(name, alg.dim_ambient, kind)
    got = is_classical_associator(s, alg)
    vals, ref = _associator_values(s, alg), einsum_associator_values(s, alg)
    np.testing.assert_allclose(vals, ref, rtol=0, atol=1e-12)
    ref_max = float(np.abs(ref).max())
    assert got.classical == (ref_max <= CLASSICALITY_RTOL)
    assert got.max_violation == pytest.approx(ref_max, rel=0, abs=1e-12)
    if not got.classical:
        basis = alg.basis
        idx = tuple(next(q for q, e in enumerate(basis) if e is m) for m in got.certificate.observables)
        assert got.certificate.value == vals[idx] and abs(got.certificate.value) == got.max_violation
        top, gap = _first_top_triple(ref)
        if gap > 1e-12:
            assert idx == top


def _tie_blocks(seed: int) -> tuple[list, int]:
    """Up to three row-major blocks of small integer values over random i < k pairs, and r."""
    rng = np.random.default_rng(seed)
    r = int(rng.integers(2, 7))
    i, k = np.triu_indices(r, 1)
    rows = np.sort(rng.choice(len(i), size=int(rng.integers(1, len(i) + 1)), replace=False))
    vals = rng.integers(-2, 3, size=(len(rows), r)).astype(float)
    cuts = np.sort(rng.integers(0, len(rows) + 1, size=2))
    blocks = [(vals[a:b], i[rows][a:b], k[rows][a:b]) for a, b in zip((0, *cuts), (*cuts, len(rows)))]
    return [b for b in blocks if len(b[1])], r


@pytest.mark.parametrize("seed", range(20))
def test_running_maximum_finds_the_first_row_major_maximum_among_ties(seed):
    """Small integer values tie often; the scan must pick what a dense argmax picks."""
    blocks, r = _tie_blocks(seed)
    dense, _ = _assembled(blocks + [(-v, kb, ib) for v, ib, kb in blocks], r)
    arg = int(np.argmax(np.abs(dense)))
    idx = np.unravel_index(arg, dense.shape)
    best, got_idx, value = _first_max(blocks)
    assert best == np.abs(dense).max()
    if best > 0:
        assert got_idx == tuple(int(x) for x in idx) and value == dense[idx]


@pytest.mark.parametrize("seed", range(20))
def test_running_maximum_does_not_depend_on_block_or_row_order(seed):
    """The associator defect's blocks hold one first index and a chunk of
    its partners, so its (i, k) pairs do not arrive in row-major order."""
    blocks, _ = _tie_blocks(seed)
    want = _first_max(blocks)
    rng = np.random.default_rng(1000 + seed)
    for _ in range(4):
        shuffled = []
        for q in rng.permutation(len(blocks)):
            v, i, k = blocks[q]
            p = rng.permutation(len(i))
            shuffled.append((v[p], i[p], k[p]))
        assert _first_max(shuffled) == want


def test_the_table_oracle_sees_both_verdicts():
    verdicts = set()
    for name in ("full:3", "block:21", "lie:4"):
        alg = _table_algebra(name)
        for kind in ("pure", "mixed"):
            verdicts.add(is_classical_associator(_table_state(name, alg.dim_ambient, kind), alg).classical)
    assert verdicts == {True, False}


# ---------------------------------------------------------------- no r^3 array


@pytest.mark.parametrize("n,rows", [(8, 812), (12, 2970)])
def test_bracket_table_of_the_full_algebra_holds_its_nonzero_brackets_only(n, rows):
    """The exact pass multiplies only the nonzero basis brackets, 812 of the
    2016 i < k pairs at n = 8, and the memo holds the closedness verdicts only."""
    alg = full_hermitian_space(n)
    s = random_state(n, seed=n)
    assert not classify(s, alg).classical
    assert not is_classical_associator(s, alg).classical
    assert sum(len(i) for _, i, _ in _exact_values(s, alg)) == rows
    assert set(alg._memo) == {jordan, lie}


def test_no_source_file_allocates_the_dense_structure_constants():
    src = Path(states_mod.__file__).parent
    for path in src.glob("*.py"):
        assert "np.zeros((r, r, r))" not in path.read_text(encoding="utf-8"), path.name


def test_classify_tests_membership_in_the_span_once(monkeypatch):
    calls = [0]
    original = RealSubspace._coords

    def counted(self, m):
        calls[0] += 1
        return original(self, m)

    monkeypatch.setattr(RealSubspace, "_coords", counted)
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


#: The clear states of ``_flag_states``: its first four.
_CLEAR_KINDS = ("wishart", "pure", "block-scalar", "mixed")


def _flag_states(name: str, alg: RealSubspace) -> list[State]:
    """The four clear states, then rho_t = (1 - t) I / n + t sigma for two
    sigmas (one in span(alg)) and 17 values of t over 1e-12..1e-4: 38 states."""
    n = alg.dim_ambient
    states = [_table_state(name, n, kind) for kind in _CLEAR_KINDS]
    sigmas = [random_state(n, seed=n), _in_span_state(alg, seed=n)]
    return states + [_near_mixed(sigma, t) for sigma in sigmas for t in np.logspace(-12, -4, 17)]


# ---------------------------------------------------------------- classify's first step: bounds with no table


def _public_flags(s: State, alg: RealSubspace) -> list[bool]:
    flags = [is_classical_associator(s, alg).classical]
    try:
        flags.append(is_classical_center(s, alg).classical)
    except NotInSpan:
        pass
    return flags


def _classify_agrees(s: State, alg: RealSubspace) -> list[bool]:
    """classify's flags; classify returns the commutator verdict when they
    agree with it and raises CriteriaDisagree otherwise, as near a threshold
    the criteria, with their different scales, may."""
    commutator = is_classical_commutator(s, alg)
    try:
        verdict = classify(s, alg)
    except CriteriaDisagree:
        verdict = None
    flags = states_mod._flags(s, alg, _bracket_expectations(s, alg))
    if all(flag == commutator.classical for flag in flags):
        assert (verdict.classical, verdict.max_violation) == (commutator.classical, commutator.max_violation)
    else:
        assert verdict is None
    return flags


@pytest.mark.parametrize("name", _FLAG_ALGEBRAS)
def test_classifys_flags_are_the_public_criteria_verdicts(name):
    """On the 38 states of ``_flag_states``, each on a fresh algebra object."""
    for q, s in enumerate(_flag_states(name, _table_algebra(name))):
        alg = _table_algebra(name)
        assert _classify_agrees(s, alg) == _public_flags(s, alg), (name, q)


@pytest.mark.parametrize("name", _FLAG_ALGEBRAS)
def test_each_flag_is_its_criterions_verdict(name):
    """The same 38 states on one algebra object, so the fallbacks reuse the
    bracket table and derived algebra an earlier state memoized: each flag
    is still its criterion's verdict on a fresh object."""
    alg = _table_algebra(name)
    for q, s in enumerate(_flag_states(name, alg)):
        flags = states_mod._flags(s, alg, _bracket_expectations(s, alg))
        assert flags == _public_flags(s, _table_algebra(name)), (name, q)


def test_the_first_step_leaves_only_the_sweep_to_the_second(monkeypatch):
    """Of the 608 states of ``_flag_states`` on the 16 algebras, 199
    associator and 192 center flags fall to their criterion's verdict
    (numpy 2.4 on OpenBLAS): all from the rho_t sweep, none from a clear
    state, which ``test_clear_states_build_no_table_and_no_derived_algebra``
    checks."""
    calls: Counter[str] = Counter()
    for fn in ("_associator_verdict", "_center_verdict"):

        def counted(*args, fn=fn, original=getattr(states_mod, fn), **kwargs):
            calls[fn] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(states_mod, fn, counted)
    for name in _FLAG_ALGEBRAS:
        alg = _table_algebra(name)
        for s in _flag_states(name, alg)[len(_CLEAR_KINDS) :]:
            states_mod._flags(s, alg, _bracket_expectations(s, alg))
    sweep = len(_FLAG_ALGEBRAS) * 34
    assert 0 < calls["_associator_verdict"] < sweep // 2
    assert 0 < calls["_center_verdict"] < sweep // 2


@pytest.mark.parametrize("kind", _CLEAR_KINDS)
@pytest.mark.parametrize("name", _FLAG_ALGEBRAS)
def test_clear_states_build_no_table_and_no_derived_algebra(monkeypatch, name, kind):
    alg = _table_algebra(name)
    s = _table_state(name, alg.dim_ambient, kind)

    def forbidden(*args):
        raise AssertionError("a clear state left the first step")

    for fn in ("derived_algebra", "_associator_verdict", "_center_verdict"):
        monkeypatch.setattr(states_mod, fn, forbidden)
    verdict = classify(s, alg)
    assert "structure" not in alg._memo and "derived" not in alg._memo
    monkeypatch.undo()
    assert verdict.classical == is_classical_commutator(s, alg).classical
    assert set(_public_flags(s, alg)) == {verdict.classical}


def test_classifys_flags_on_a_barely_closed_algebra():
    """The algebra of ``test_a_barely_closed_algebra_reaches_the_exact_pass``,
    whose brackets leave the span by about 0.3 ``CLASSICALITY_RTOL``. On rho_t =
    (1 - t) I / n + t sigma with the associator values (sigma outside the
    span) or the center values (sigma inside it) at ``CLASSICALITY_RTOL
    (1 +- 0.05)``, classify's flags are the public criteria's, and classify
    returns the commutator verdict exactly when they agree with it."""
    noisy = [e + 1e-9 * random_hermitian(4, seed=90 + q) for q, e in enumerate(block_algebra((2, 2)).basis)]
    alg = span(noisy)
    outside, inside = random_state(4, seed=3), _in_span_state(alg, seed=3)
    seen = set()
    for sigma, criterion in ((outside, is_classical_associator), (inside, is_classical_center)):
        peak = criterion(sigma, alg).max_violation
        for f in (0.95, 1.05):
            s = _near_mixed(sigma, CLASSICALITY_RTOL * f / peak)
            assert _classify_agrees(s, span(noisy)) == _public_flags(s, alg)
            seen.add((criterion.__name__, criterion(s, alg).classical))
    assert len(seen) == 4


def _center_quantum_x1(C: np.ndarray, f: float, spare: float = 0.0) -> float:
    """The ||x||_1 at which ``_center_quantum``'s lower bound ``(||C[j*] @ C|| - eta) / sqrt(n)``, n = 4,
    is f times its right side ``(sqrt(r) (||C[j*]|| + eta + eps) threshold + eps) (1 + _NORM_SLACK)``,
    less ``spare`` times the right side's eta term; eta and eps grow with ||x||_1, both linearly."""
    slack, d, rtol, n = 1 + states_mod._NORM_SLACK, SPAN_RTOL, CLASSICALITY_RTOL, 4
    r = len(C)
    cn = np.linalg.norm(C, axis=1)
    j = int(cn.argmax())
    z, y, k = float(np.linalg.norm(C[j] @ C)), float(cn[j]), 1 + math.sqrt(2 * n * n + r)
    # lhs = a - b x1; the right side is p + q x1 before the slack, eta's term h + h x1 of it
    a, b = (z - d) / math.sqrt(n), d / math.sqrt(n)
    h = math.sqrt(r) * rtol * d
    p = math.sqrt(r) * rtol * (y + 2 * d) + d - spare * h
    q = d * (math.sqrt(r) * rtol * (1 + k) + k) - spare * h
    return (a - f * slack * p) / (b + f * slack * q)


def test_the_first_step_bounds_settle_up_to_their_documented_edges():
    """Each of the four first-step bounds on inputs that put its documented
    quantity 0.1% either side of its edge, where the terms that no test
    state makes large (the brackets' ``SPAN_RTOL`` margins, ``1 /
    ||x||_1``, ``sqrt(n)``, eta and eps, ``||R||_F`` against ``max
    ||R_j||``) decide the side."""
    slack, d, rtol = 1 + states_mod._NORM_SLACK, SPAN_RTOL, CLASSICALITY_RTOL
    L = full_hermitian_space(4)
    r, n = L.dim_span, L.dim_ambient
    C = _bracket_expectations(random_state(n, seed=21), L)
    for side in (-1, 1):
        f = 1 + side * 1e-3
        # associator, classical: max ||C[j]|| is half the threshold, the brackets' margin the rest
        cn = np.full(r, 0.25 * rtol)
        cn[3] = 0.5 * rtol
        hs = np.full(r, 0.1)
        hs[5] = (rtol * f / slack - 0.5 * rtol) / d
        assert states_mod._associator_classical(cn, hs) is (side < 0)
        # associator, quantum: (top^2 - eta top) / ||x||_1 at f (threshold + d) (1 + _NORM_SLACK)
        eta = math.sqrt(r) * d + 3.0 * _DEFECT_FLOOR / 2
        q = 3.0 * (rtol + d) * slack * f
        top = (eta + math.sqrt(eta * eta + 4 * q)) / 2
        cn = np.full(r, 0.5 * top)
        cn[7] = top
        assert states_mod._associator_quantum(cn, 3.0) is (side > 0)
        # center, classical: ||R||_F (1 + _NORM_SLACK) at f times the threshold; each ||R_j|| is a quarter of it
        assert states_mod._center_classical(np.full(r, rtol * f / slack / math.sqrt(r))) is (side < 0)
        # center, quantum: ||x||_1 sets eta = (||x||_1 + 1) d and eps so that (||C[j*] @ C|| - eta) / sqrt(n)
        # is f times (sqrt(r) (||C[j*]|| + eta + eps) threshold + eps) (1 + _NORM_SLACK)
        x1 = _center_quantum_x1(C, f)
        assert x1 > 1e5
        assert states_mod._center_quantum(C, np.linalg.norm(C, axis=1), x1, n) is (side > 0)
        # y's eta enters the right side times sqrt(r) threshold, about 5e-9 of it, which no 0.1% edge
        # sees: here the lower bound is half that term either side of the edge
        x1 = _center_quantum_x1(C, 1.0, spare=-0.5 * side)
        assert states_mod._center_quantum(C, np.linalg.norm(C, axis=1), x1, n) is (side > 0)


@pytest.mark.parametrize("kind", ["wishart", "pure"])
@pytest.mark.parametrize("n", range(2, 7))
def test_a_clear_in_span_state_forms_no_bracket_in_the_first_step(monkeypatch, n, kind):
    """Both quantum bounds read only C and rho's coordinates, so classify
    of a clear quantum state in span(L) forms no bracket ``[rho, e]``."""
    name = f"full:{n}"
    alg = _table_algebra(name)
    s = _table_state(name, n, kind)
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return _lie(*args)

    monkeypatch.setattr(states_mod, "_lie", counted)
    assert classify(s, alg).classical is False
    assert calls[0] == 0


@pytest.mark.parametrize("patch", DISAGREEMENTS)
def test_a_disagreement_raises_the_full_verdicts_message(monkeypatch, patch):
    L = full_hermitian_space(3)
    s = random_state(3, seed=5)
    for name, replacement in DISAGREEMENTS[patch]:
        monkeypatch.setattr(states_mod, name, replacement)
    want = disagreement_message(s, full_hermitian_space(3))
    with pytest.raises(CriteriaDisagree) as exc:
        classify(s, L)
    assert str(exc.value) == want


def test_a_near_threshold_state_splits_the_criteria_with_no_patch():
    """``helpers.split_state``: both flags fall to their criterion's verdict,
    and classify reports the split the public verdicts give, "associator=True
    (violation 5.304e-09), commutator=False (violation 1.061e-08),
    center=True (violation 8.290e-09)" on numpy 2.4 with OpenBLAS."""
    s = split_state()
    want = disagreement_message(s, full_hermitian_space(3))
    with pytest.raises(CriteriaDisagree) as exc:
        classify(s, full_hermitian_space(3))
    assert str(exc.value) == want


def test_a_split_reuses_the_verdicts_its_flags_took(monkeypatch):
    """``helpers.split_state`` on full(3): no bound settles either flag, so
    classify takes both criteria's own verdicts once, one exact pass and
    one center verdict, and its CriteriaDisagree message reuses them."""
    calls: Counter[str] = Counter()
    for fn in ("_exact_values", "_center_verdict"):

        def counted(*args, fn=fn, original=getattr(states_mod, fn)):
            calls[fn] += 1
            return original(*args)

        monkeypatch.setattr(states_mod, fn, counted)
    L = full_hermitian_space(3)
    for q in range(1, 3):
        with pytest.raises(CriteriaDisagree):
            classify(split_state(), L)
        assert calls == {"_exact_values": q, "_center_verdict": q}
