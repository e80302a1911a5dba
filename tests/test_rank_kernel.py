"""The blocked rank kernel and semi-naive closure against independent oracles.

``sequential_span`` (per-matrix Gram-Schmidt) and ``naive_close`` (all-pairs
rounds on it) in ``helpers`` are the references: every keep/drop decision,
closure dimension, round count and trajectory must match them.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from helpers import (
    SX,
    SY,
    block_algebra,
    conjugated,
    jordan_rounds,
    naive_close,
    pinned_extend,
    random_unitary,
    rank_of,
    sequential_span,
)
from ljlab import (
    ValidationError,
    centralizer,
    close_under,
    commutator_defect,
    derived_algebra,
    full_hermitian_basis,
    full_hermitian_space,
    is_closed_under,
    jordan,
    jordan_generate_three,
    lie,
    lie_generate,
    random_hermitian,
    span,
    traceless,
)
from ljlab import subspace as subspace_mod
from ljlab.linalg import _ENTRY_LIMIT
from ljlab.subspace import SPAN_RTOL, RealSubspace


def _record_products(monkeypatch) -> list[int]:
    """Round-start basis size of every product block a round forms."""
    sizes: list[int] = []
    original = subspace_mod._round_products

    def recorded(e, new, product, first):
        for block in original(e, new, product, first):
            sizes.append(len(e))
            yield block

    monkeypatch.setattr(subspace_mod, "_round_products", recorded)
    return sizes


def _block_pair(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    k = n // 2
    out = []
    for t in range(2):
        m = np.zeros((n, n), dtype=complex)
        m[:k, :k] = random_hermitian(k, seed=seed + 2 * t)
        m[k:, k:] = random_hermitian(n - k, seed=seed + 2 * t + 1)
        out.append(m)
    return out[0], out[1]


def _commuting_pair(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    u = np.linalg.eigh(random_hermitian(n, seed=seed))[1]
    rng = np.random.default_rng(seed)
    return tuple(u @ np.diag(rng.standard_normal(n)) @ u.conj().T for _ in range(2))


# ---------------------------------------------------------------- span


def test_span_matches_sequential_oracle_on_well_conditioned_inputs():
    for n in range(2, 9):
        for trial in range(4):
            rng = np.random.default_rng(100 * n + trial)
            k = int(rng.integers(1, min(n * n, 12) + 1))
            pool = [random_hermitian(n, seed=1000 * n + 10 * trial + j) for j in range(k)]
            mats = []
            for p in pool:
                mats.append(p)
                if rng.random() < 0.5:
                    c = rng.standard_normal(len(mats))
                    mats.append(sum(x * m for x, m in zip(c, mats)))
            got, ref = span(mats), sequential_span(mats)
            assert got.dim_span == ref.dim_span == k
            for u, v in zip(got.basis, ref.basis):
                np.testing.assert_allclose(u, v, rtol=0, atol=1e-12)


def test_span_decisions_match_sequential_oracle_near_the_tolerance():
    """Residuals swept from 1e-12 to 1e-5 of the input norm, across SPAN_RTOL."""
    kept = dropped = 0
    for trial in range(300):
        rng = np.random.default_rng(trial)
        n = int(rng.integers(2, 6))
        k = int(rng.integers(1, min(n * n - 1, 6) + 1))
        pool = [random_hermitian(n, seed=7000 + 10 * trial + j) for j in range(k)]
        # a unit direction orthogonal to the pool, from an SVD of real vectorizations
        rows = np.stack([np.concatenate([m.real.ravel(), m.imag.ravel()]) for m in pool])
        extra = random_hermitian(n, seed=9000 + trial)
        x = np.concatenate([extra.real.ravel(), extra.imag.ravel()])
        q = np.linalg.svd(rows, full_matrices=False)[2]
        x = x - q.T @ (q @ x)
        w = (x[: n * n] + 1j * x[n * n :]).reshape(n, n)
        w = w / np.linalg.norm(w)
        inside = sum(c * p for c, p in zip(rng.standard_normal(k), pool))
        inside = inside * (10.0 ** rng.uniform(-1, 1) / np.linalg.norm(inside))
        rel = 10.0 ** rng.uniform(-12, -5)
        near = inside + rel * np.linalg.norm(inside) * w
        mats = list(pool)
        mats.insert(int(rng.integers(0, k + 1)), near)
        got, ref = span(mats), sequential_span(mats)
        assert got.dim_span == ref.dim_span, f"trial {trial}: rel residual {rel:.3e}"
        # the same decisions when a prefix is already the kernel's basis
        cut = int(rng.integers(1, k + 1))
        head = span(mats[:cut])
        tail = np.stack([np.asarray(m, dtype=complex) for m in mats[cut:]])
        added = subspace_mod._extend(subspace_mod._rows(head._stacked), subspace_mod._rows(tail))
        assert head.dim_span + len(added) == ref.dim_span, f"trial {trial}: split at {cut}"
        if got.dim_span > k:
            kept += 1
        else:
            dropped += 1
    assert kept > 50 and dropped > 50  # the sweep really straddles SPAN_RTOL


def _panel_boundary_candidates(n: int, seed: int) -> tuple[list[np.ndarray], list[bool]]:
    """Matrices with known keep/drop decisions, and those decisions.

    Fresh directions come from a random orthonormal basis of the n x n
    Hermitian matrices. Kept rows fill two full panels of ``_extend`` and a
    remainder; exactly dependent candidates and near-threshold ones
    (residual 0.3x and 3x ``SPAN_RTOL * max(1, ||c||)`` along an unused
    direction) sit right before and after each full-panel update, and after
    a run of ``_DROP_RUN`` drops that triggers an early update. Later
    candidates combine only the directions of well-separated rows: a row
    kept at 3x the threshold carries its roundoff amplified about 3e7
    times, so a combination that leans on it is no longer exactly
    dependent.
    """
    rng = np.random.default_rng(seed)
    e = np.stack(full_hermitian_basis(n))
    q = np.tensordot(np.linalg.qr(rng.standard_normal((n * n, n * n)))[0], e, axes=1)
    fresh, used = iter(range(n * n)), []
    mats, keep = [], []

    def inside(scale):
        m = np.tensordot(rng.standard_normal(len(used)), q[used], axes=1)
        return m * (scale / np.linalg.norm(m))

    def new():
        used.append(next(fresh))
        mats.append(q[used[-1]] + inside(rng.uniform(0.5, 2.0)))
        keep.append(True)

    def dependent():
        mats.append(inside(10.0 ** rng.uniform(-1, 1)))
        keep.append(False)

    def near(factor):
        s, j = 10.0 ** rng.uniform(-1, 1), next(fresh)
        mats.append(inside(s) + factor * SPAN_RTOL * max(1.0, s) * q[j])
        keep.append(factor > 1)

    around = (dependent, lambda: near(0.3), lambda: near(3.0), lambda: near(0.3), dependent)
    for _ in range(2):  # rows 1..31 of a panel, two drops, a near 32nd row, two drops after the update
        while sum(keep) % subspace_mod._PANEL != subspace_mod._PANEL - 1:
            new()
        for make in around:
            make()
    for _ in range(5):
        new()
    for _ in range(subspace_mod._DROP_RUN):
        dependent()
    for make in around[2:]:
        make()
    for _ in range(6):
        new()
    near(3.0)
    return mats, keep


@pytest.mark.parametrize("seed", range(3))
def test_extend_decisions_around_panel_updates_match_sequential_oracle(monkeypatch, seed):
    mats, keep = _panel_boundary_candidates(10, seed)
    cand = subspace_mod._rows(np.stack(mats))
    empty = np.empty((0, cand.shape[1]))
    panels: list[int] = []
    original = subspace_mod._sweep

    def recorded(v, thr, panel):
        panels.append(len(panel))
        return original(v, thr, panel)

    monkeypatch.setattr(subspace_mod, "_sweep", recorded)
    out = subspace_mod._extend(empty, cand)
    assert sum(keep) > 2 * subspace_mod._PANEL and len(out) == sum(keep)
    assert panels.count(subspace_mod._PANEL) == 2
    assert any(0 < p < subspace_mod._PANEL for p in panels)  # the drop run's early update
    np.testing.assert_allclose(out @ out.T, np.eye(len(out)), rtol=0, atol=1e-12)
    # per-candidate decisions: the growth of the kept count along the prefixes
    got = [len(subspace_mod._extend(empty, cand[: j + 1])) for j in range(len(mats))]
    ref = [sequential_span(mats[: j + 1]).dim_span for j in range(len(mats))]
    assert np.diff([0] + got).astype(bool).tolist() == keep
    assert np.diff([0] + ref).astype(bool).tolist() == keep


@pytest.mark.parametrize("seed", range(3))
def test_extend_equals_its_pinned_copy_bit_for_bit_around_panel_updates(seed):
    """Full-panel updates and drop runs, from an empty basis and from the first rows as basis."""
    mats, _ = _panel_boundary_candidates(10, seed)
    cand = subspace_mod._rows(np.stack(mats))
    empty = np.empty((0, cand.shape[1]))
    got = subspace_mod._extend(empty, cand)
    assert got.tobytes() == pinned_extend(empty, cand).tobytes()
    head = got[:5]
    assert subspace_mod._extend(head, cand[5:]).tobytes() == pinned_extend(head, cand[5:]).tobytes()


def test_extend_equals_its_pinned_copy_when_a_sweep_moves_an_undropped_block():
    """The first ``_BLOCK`` candidates hold dependent rows and the next block none, so the
    sweep must move that block forward; the kernel takes any real rows."""
    rng = np.random.default_rng(5)
    basis = np.eye(800)[:50]
    cand = rng.standard_normal((620, 800))
    cand[:100, 50:] = 0.0  # in the basis's span
    cand[100:200:7] = cand[200:300:7]  # dependent on later rows
    got = subspace_mod._extend(basis, cand)
    assert subspace_mod._BLOCK < len(cand) and len(got) == 520 - len(range(100, 200, 7))
    assert got.tobytes() == pinned_extend(basis, cand).tobytes()


def _pinning(monkeypatch) -> list[tuple[int, np.ndarray]]:
    """Patch ``_extend`` to compare every call with ``pinned_extend``; returns each call's basis size and candidates."""
    calls: list[tuple[int, np.ndarray]] = []
    original = subspace_mod._extend

    def compared(basis, cand):
        cand = np.array(cand)
        got = original(basis, cand)
        assert got.tobytes() == pinned_extend(basis, cand).tobytes()
        calls.append((len(basis), cand))
        return got

    monkeypatch.setattr(subspace_mod, "_extend", compared)
    return calls


@pytest.mark.parametrize("n", [4, 6, 8])
def test_extend_equals_its_pinned_copy_on_closure_round_blocks(monkeypatch, n):
    """Every product block of the closure rounds, ranked against a non-empty basis, and the ad walk."""
    calls = _pinning(monkeypatch)
    a, b = random_hermitian(n, seed=700 + n), random_hermitian(n, seed=800 + n)
    L = lie_generate(traceless(a), traceless(b)).closure
    jordan_rounds(a, b)
    close_under(span([a, b, a @ a]), lie)
    assert is_closed_under(span([traceless(a), traceless(b)]), lie) is False
    # su(n) is at its bound, where the walk forms no bracket; u(n/2) + u(n/2) is not
    derived_algebra(conjugated(block_algebra((n // 2, n // 2)), random_unitary(n, np.random.default_rng(n))))
    assert sum(1 for size, _ in calls if size > 0) >= 10


def test_extend_equals_its_pinned_copy_on_certificate_rows(monkeypatch):
    """Passing certificates: ``_generated``'s Krylov steps and the rows left beside K, all in L's coordinates.

    Under ``jordan`` on conjugated u(4)+u(4) the two generic elements generate L itself; under ``lie``
    on conjugated u(4)+u(4)+R^3 they generate su(4)+su(4) and a plane of the center, which leaves rows.
    """
    calls = _pinning(monkeypatch)
    u = random_unitary(8, np.random.default_rng(41))
    L = conjugated(block_algebra((4, 4)), u)
    assert is_closed_under(L, jordan) is True
    r = L.dim_span
    assert r == 32 and any(cand.shape[1] == r for _, cand in calls)
    assert all(cand.shape[1] in (r, 2 * 8 * 8) for _, cand in calls)
    calls.clear()
    M = conjugated(block_algebra((4, 4, 1, 1, 1)), random_unitary(11, np.random.default_rng(42)))
    assert is_closed_under(M, lie) is True
    r = M.dim_span
    left = [(size, cand) for size, cand in calls if cand.shape == (r, r) and np.array_equal(cand, np.eye(r))]
    assert r == 35 and left and all(0 < size < r for size, _ in left)


def test_extend_equals_its_pinned_copy_on_centralizer_constraint_rows(monkeypatch):
    """``centralizer(L, S)`` with S a 5-dimensional subspace of L: the walk over S's generic pair, its complement,
    then the walk over S inside it (``_central_rows``)."""
    calls = _pinning(monkeypatch)
    u = random_unitary(8, np.random.default_rng(43))
    L = conjugated(block_algebra((4, 4)), u)
    S = span([u @ m @ u.conj().T for m in _block_pair(8, 44)] + [L.basis[j] for j in (3, 17, 30)])
    Z = centralizer(L, S)
    r = L.dim_span
    assert Z.dim_span == 2 and S.dim_span == 5
    assert len([c for _, c in calls if c.shape[1] == r]) >= 2
    for z in Z.basis:
        assert max(float(np.abs(z @ s - s @ z).max()) for s in S.basis) < 1e-12


def test_extend_equals_its_pinned_copy_on_a_span_at_n16(monkeypatch):
    """Rows of 512 floats: full-panel updates, drop runs and the rank bound of Herm(16)."""
    calls = _pinning(monkeypatch)
    mats = [random_hermitian(16, seed=4600 + j) for j in range(240)]
    rng = np.random.default_rng(46)
    for j in range(40):  # exactly dependent rows among the independent ones; the last 30 lie past the rank
        c = rng.standard_normal(5)
        mats.insert(60 + 5 * j, sum(x * m for x, m in zip(c, mats[j : j + 5])))
    mats += [random_hermitian(16, seed=4900 + j) for j in range(30)]
    s = span(mats)
    assert s.dim_span == 256 and [c.shape for _, c in calls] == [(310, 512)]


@pytest.mark.parametrize("n", range(3, 9))
def test_closures_with_the_pinned_kernel_patched_in_have_the_same_rows(monkeypatch, n):
    a, b = random_hermitian(n, seed=900 + n), random_hermitian(n, seed=1000 + n)
    calls = [(lie_generate, traceless(a), traceless(b)), (lie_generate, a, b), (jordan_rounds, a, b)]
    got = [generate(x, y) for generate, x, y in calls]
    monkeypatch.setattr(subspace_mod, "_extend", pinned_extend)
    ref = [generate(x, y) for generate, x, y in calls]
    for g, r in zip(got, ref):
        assert g.closure.rows.tobytes() == r.closure.rows.tobytes()
        assert (g.closure_dim, g.rounds, g.trajectory) == (r.closure_dim, r.rounds, r.trajectory)


def _parent_pairs(r: int, product, new: int) -> np.ndarray:
    """Every pair of ``np.tril_indices``, masked by ``max(i, j) >= new``."""
    pairs = np.array(np.tril_indices(r, 0 if product is jordan else -1)).T
    return pairs[np.maximum(pairs[:, 0], pairs[:, 1]) >= new]


def test_product_pairs_are_slices_of_one_triangle_in_the_masked_order(monkeypatch):
    monkeypatch.setattr(subspace_mod, "_TRIANGLES", [subspace_mod._triangle(0, 0), subspace_mod._triangle(0, 1)])
    sizes = [*range(41), *range(40, -1, -1), 7, 33, 12, 40, 0]  # grow, then slices of the grown triangle
    for r in sizes:
        for product in (jordan, lie):
            for new in range(r + 1):
                got = subspace_mod._product_pairs(r, product, new)
                ref = _parent_pairs(r, product, new)
                assert got.dtype == ref.dtype and got.shape == ref.shape, (r, product, new)
                assert np.array_equal(got, ref), (r, product, new)
                assert not got.flags.writeable
    assert [len(t) for t in subspace_mod._TRIANGLES] == [40 * 41 // 2, 40 * 39 // 2]
    with pytest.raises(ValueError):
        subspace_mod._product_pairs(6, jordan)[0, 0] = 1
    # the benchmark's self-test counts these
    assert len(subspace_mod._product_pairs(4, jordan)) == 10
    assert len(subspace_mod._product_pairs(4, lie)) == 6


def test_product_pairs_stay_whole_while_threads_grow_the_triangle(monkeypatch):
    """Four threads, more than the cores, ask for random slices while the shared triangles grow."""
    fresh = [subspace_mod._triangle(0, 0), subspace_mod._triangle(0, 1)]
    monkeypatch.setattr(subspace_mod, "_TRIANGLES", fresh)
    wrong: list[tuple[int, int]] = []

    def work(seed: int) -> None:
        rng = np.random.default_rng(seed)
        for step in range(400):
            if step % 50 == 0:
                fresh[:] = [subspace_mod._triangle(0, 0), subspace_mod._triangle(0, 1)]
            r = int(rng.integers(0, 80))
            new, product = int(rng.integers(0, r + 1)), (jordan, lie)[step % 2]
            if not np.array_equal(subspace_mod._product_pairs(r, product, new), _parent_pairs(r, product, new)):
                wrong.append((r, new))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


def test_derived_algebra_of_a_conjugated_u5_plus_u5_is_su5_plus_su5():
    """The ad walk below the bound, over dense bracket rows, across many panels."""
    u = random_unitary(10, np.random.default_rng(10))
    d = derived_algebra(conjugated(block_algebra((5, 5)), u))
    assert d.dim_span == 48
    np.testing.assert_allclose(d.rows @ d.rows.T, np.eye(48), rtol=0, atol=1e-12)
    back = u.conj().T @ d._stacked @ u  # block-diagonal, each block traceless
    np.testing.assert_allclose(back[:, :5, 5:], 0.0, rtol=0, atol=1e-12)
    np.testing.assert_allclose(np.einsum("kaa->k", back[:, :5, :5]), 0.0, rtol=0, atol=1e-12)
    np.testing.assert_allclose(np.einsum("kaa->k", back[:, 5:, 5:]), 0.0, rtol=0, atol=1e-12)


def test_span_rejects_non_finite_input():
    for bad in (np.nan, np.inf, -np.inf):
        m = SX.copy()
        m[0, 1] = bad
        with pytest.raises(ValidationError):
            span([SX, m])
        with pytest.raises(ValidationError):
            lie_generate(m, SY)
        with pytest.raises(ValidationError), np.errstate(invalid="ignore"):
            jordan_generate_three(SX, m)


def test_an_entry_above_the_entry_limit_raises_before_a_product_overflows():
    # near 1e200 a square overflows; the check runs first, so no overflow warning is raised
    big = 1e200 * SY
    for call in (
        lambda: span([SX, big]),
        lambda: lie_generate(SX, big),
        lambda: jordan_generate_three(SX, big),
        lambda: commutator_defect(span([SX, big])),
    ):
        with pytest.raises(ValidationError, match="modulus at most 1e\\+150"):
            call()
    # at the limit every square and pair product stays finite
    edge = _ENTRY_LIMIT * SY
    assert span([SX, edge]).dim_span == 2
    assert lie_generate(SX, edge).closure_dim == 3
    assert jordan_generate_three(SX, edge).closure_dim == 4


# ---------------------------------------------------------------- closure


def _closure_cases():
    """(label, product, seed matrices): the seeds the generation experiments span."""
    for n in range(2, 7):
        a, b = random_hermitian(n, seed=40 + n), random_hermitian(n, seed=60 + n)
        yield f"lie-traceless-n{n}", lie, [traceless(a), traceless(b)]
        yield f"lie-trace-n{n}", lie, [a, b]
        yield f"jordan3-n{n}", jordan, [a, b, lie(a, b), np.eye(n, dtype=complex)]
    for n in (4, 5, 6):
        for label, (a, b) in (("block", _block_pair(n, 80 + n)), ("commuting", _commuting_pair(n, 90 + n))):
            yield f"lie-{label}-n{n}", lie, [a, b]
            yield f"jordan3-{label}-n{n}", jordan, [a, b, lie(a, b), np.eye(n, dtype=complex)]


@pytest.mark.parametrize("label,product,seeds", list(_closure_cases()))
def test_closure_matches_naive_all_pairs_rounds(label, product, seeds):
    closed, rounds, trajectory = subspace_mod._close_rounds(span(seeds), product)
    ref, ref_rounds, ref_trajectory = naive_close(sequential_span(seeds), product)
    assert (closed.dim_span, rounds, trajectory) == (ref.dim_span, ref_rounds, ref_trajectory)
    assert rank_of(list(closed.basis) + list(ref.basis), tol=1e-10) == ref.dim_span


@pytest.mark.parametrize("label,product,seeds", list(_closure_cases()))
def test_a_closure_is_closed_without_a_new_product(monkeypatch, label, product, seeds):
    closed = close_under(span(seeds), product)
    formed = [0]
    original = subspace_mod._products

    def counted(a, b, p):
        formed[0] += 1
        return original(a, b, p)

    monkeypatch.setattr(subspace_mod, "_products", counted)
    assert is_closed_under(closed, product)
    assert formed[0] == 0
    # the memo agrees with a proof from scratch on a copy of the rows
    assert is_closed_under(RealSubspace(closed.dim_ambient, closed.rows), product)


def test_generation_reports_match_naive_rounds():
    for n in range(2, 7):
        a, b = random_hermitian(n, seed=2 * n), random_hermitian(n, seed=2 * n + 1)
        x, y = traceless(a), traceless(b)
        rep = lie_generate(x, y)
        _, rounds, trajectory = naive_close(sequential_span([x, y]), lie)
        assert rep.generated and (rep.rounds, list(rep.trajectory)) == (rounds, trajectory)
        rep = jordan_rounds(a, b)
        seeds = [a, b, lie(a, b), np.eye(n, dtype=complex)]
        _, rounds, trajectory = naive_close(sequential_span(seeds), jordan)
        assert rep.generated and (rep.rounds, list(rep.trajectory)) == (rounds, trajectory)


def _blockdiag(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    m = np.zeros((4, 4), dtype=complex)
    m[:2, :2], m[2:, 2:] = x, y
    return m


@pytest.mark.parametrize("seed", range(6))
def test_nearly_block_diagonal_pairs_close_to_a_possible_dimension_or_raise(seed):
    """A traceless block-diagonal pair tilted by eps off its blocks, eps swept
    from 1e-2 to 1e-12.5 in half-decades: across the sweep the rank gap of
    the closure rounds passes SPAN_RTOL. A Lie closure of traceless seeds
    stays in su(4) (dim 15), and the untilted pair generates su(2) + su(2)
    (dim 6); the Jordan closure gives all 16 or the block algebra's 8. A
    round that roundoff pushes above the su(4) bound raises instead."""
    t = traceless
    a = _blockdiag(t(random_hermitian(2, 10 + seed)), t(random_hermitian(2, 20 + seed)))
    b = _blockdiag(t(random_hermitian(2, 30 + seed)), t(random_hermitian(2, 40 + seed)))
    x = t(random_hermitian(4, 50 + seed))
    x[:2, :2] = x[2:, 2:] = 0.0
    for h in range(22):
        eps = 10.0 ** (-2 - 0.5 * h)
        try:
            lie_dim = lie_generate(a + eps * x, b).closure_dim
        except ValidationError as exc:
            assert "above its bound 15" in str(exc)
            lie_dim = None
        jordan_dim = jordan_generate_three(a + eps * x, b).closure_dim
        assert lie_dim in (6, 15, None) and jordan_dim in (8, 16), eps
        if eps >= 10**-3.5:
            assert (lie_dim, jordan_dim) == (15, 16), eps
        if eps <= 10**-9.5:
            assert (lie_dim, jordan_dim) == (6, 8), eps


def test_confirming_round_at_the_dimension_bound_forms_no_products(monkeypatch):
    sizes = _record_products(monkeypatch)
    for n in (2, 3, 4, 5):
        a, b = random_hermitian(n, seed=300 + n), random_hermitian(n, seed=400 + n)
        sizes.clear()
        rep = jordan_rounds(a, b)
        assert rep.closure_dim == n * n and rep.trajectory[-2:] == (n * n, n * n)
        assert max(sizes, default=0) < n * n
        sizes.clear()
        rep = lie_generate(traceless(a), traceless(b))  # stops at su(n)
        assert rep.closure_dim == n * n - 1 and rep.trajectory[-2:] == (n * n - 1,) * 2
        assert sizes and max(sizes) < n * n - 1


def test_a_round_stops_ranking_once_it_reaches_the_bound(monkeypatch):
    """At n = 8 the last growing round has far more fresh products than it
    needs and reaches the bound in its first block; the blocks after it
    are neither formed nor ranked."""
    bases: list[int] = []
    original = subspace_mod._extend

    def recorded(basis, cand):
        bases.append(len(basis))
        return original(basis, cand)

    monkeypatch.setattr(subspace_mod, "_extend", recorded)
    a, b = random_hermitian(8, seed=308), random_hermitian(8, seed=408)
    for generate, x, y, bound in ((jordan_rounds, a, b, 64), (lie_generate, traceless(a), traceless(b), 63)):
        bases.clear()
        rep = generate(x, y)
        assert rep.closure_dim == bound and rep.trajectory[-2:] == (bound, bound)
        assert max(bases) < bound


@pytest.mark.parametrize("n", [8, 10])
def test_the_last_growing_round_forms_twice_the_rows_it_lacks(monkeypatch, n):
    """The round that reaches the bound starts with a block of max(64, 2 (bound
    - r)) products: one block suffices, so the round forms no more."""
    rounds: list[tuple[int, int]] = []  # (basis size, products formed) per round
    original = subspace_mod._round_products

    def recorded(e, new, product, first):
        rounds.append((len(e), 0))
        for block in original(e, new, product, first):
            rounds[-1] = (len(e), rounds[-1][1] + len(block))
            yield block

    monkeypatch.setattr(subspace_mod, "_round_products", recorded)
    a, b = random_hermitian(n, seed=500 + n), random_hermitian(n, seed=600 + n)
    x, y = traceless(a), traceless(b)
    for generate, seeds, product, bound in (
        (lie_generate, [x, y], lie, n * n - 1),
        (jordan_rounds, [a, b, lie(a, b), np.eye(n, dtype=complex)], jordan, n * n),
    ):
        rounds.clear()
        rep = generate(seeds[0], seeds[1])
        r, formed = rounds[-1]
        pairs = subspace_mod._product_pairs
        fresh = len(pairs(r, product)) - len(pairs(rep.trajectory[-4], product))  # rows >= new
        assert rep.closure_dim == bound and rep.trajectory[-2:] == (bound, bound) and r < bound
        assert formed <= max(64, 2 * (bound - r)) < fresh
        _, ref_rounds, ref_trajectory = naive_close(sequential_span(seeds), product)
        assert (rep.closure_dim, rep.rounds, list(rep.trajectory)) == (bound, ref_rounds, ref_trajectory)


def test_closure_starting_at_the_bound_forms_no_products(monkeypatch):
    sizes = _record_products(monkeypatch)
    full = full_hermitian_space(3)
    su3 = span([traceless(m) for m in full_hermitian_basis(3)])
    assert su3.dim_span == 8
    for s, product in ((full, jordan), (full, lie), (su3, lie)):
        _, rounds, trajectory = subspace_mod._close_rounds(s, product)
        assert (rounds, trajectory) == (1, [s.dim_span] * 2)
    assert sizes == []
    # su(3) is not Jordan-closed, and n^2 - 1 with the identity inside is not su(n)
    almost = span([np.eye(2, dtype=complex), SX, SY])
    for s, product in ((su3, jordan), (almost, lie)):
        got = subspace_mod._close_rounds(s, product)
        ref = naive_close(s, product)
        assert (got[0].dim_span, got[1], got[2]) == (ref[0].dim_span, ref[1], ref[2])
        assert got[0].dim_span == s.dim_ambient**2
    assert sizes
