"""The paper's generation claim against a closed form: the Jordan closure of {I, a, b, i[a, b]} and the Lie closure
of {a, b} for pairs built with a known answer.

a = u diag(w) u^H has a simple spectrum and b = u B u^H a chosen support; ``generated_by_pair`` reads the Jordan
closure off u and the support graph alone, ``lie_generated_by_pair`` the Lie closure off u, w and the graph when a's
transitions w_i - w_j are distinct. Both ways each generator can take, the frame blocks (its path for clear inputs)
and the closure rounds (``jordan_rounds``, ``lie_rounds``), must span the oracle's subspace, not only match its
dimension. Pairs whose transitions repeat in every combination (i so(n), spin-j, +-symmetric spectra) have no
closed form here: ``lie_generate`` must hand them to the rounds and report what the rounds report.
"""

from __future__ import annotations

import numpy as np
import pytest

from helpers import ORACLE_GAP, generated_by_pair, jordan_rounds, lie_generated_by_pair, lie_rounds, random_unitary
from ljlab import ValidationError, jordan_generate_three, lie, lie_generate, span
from ljlab import subspace as subspace_mod
from ljlab.subspace import SPAN_RTOL


def _support(n: int, blocks: list[list[int]], extra: float, rng: np.random.Generator) -> np.ndarray:
    """A symmetric support whose components are ``blocks``: a random spanning path in each, plus each other
    in-block pair with probability ``extra``."""
    s = np.zeros((n, n), dtype=bool)
    for block in blocks:
        path = rng.permutation(block)
        s[path[:-1], path[1:]] = True
        for p, i in enumerate(block):
            for j in block[p + 1 :]:
                s[i, j] |= rng.random() < extra
    return s | s.T


def _pair(u: np.ndarray, w: np.ndarray, support: np.ndarray, rng: np.random.Generator, diagonal: bool = True):
    """a = u diag(w) u^H and b = u B u^H, B's off-diagonal entries of modulus 0.5 to 1.5 exactly on ``support``, its
    diagonal standard normal, or zero without ``diagonal``."""
    n = len(w)
    z = rng.uniform(0.5, 1.5, (n, n)) * np.exp(2j * np.pi * rng.random((n, n)))
    upper = np.triu(np.where(support, z, 0.0), 1)
    bb = upper + upper.conj().T + (np.diag(rng.standard_normal(n)) if diagonal else 0.0)
    return (u * w) @ u.conj().T, u @ bb @ u.conj().T


def _spectrum(n: int, rng: np.random.Generator, shift: float = 0.0) -> np.ndarray:
    """n values at least 0.4 apart: k + 0.3 t, t uniform in [-1, 1], plus ``shift``."""
    return np.arange(n) + 0.3 * rng.uniform(-1.0, 1.0, n) + shift


def _blocks(n: int, rng: np.random.Generator) -> list[list[int]]:
    """A random partition of range(n) into blocks of 1 to 4 indices, each block's indices scattered."""
    order, blocks = rng.permutation(n), []
    while sum(map(len, blocks)) < n:
        k = min(int(rng.integers(1, 5)), n - sum(map(len, blocks)))
        start = sum(map(len, blocks))
        blocks.append(sorted(int(i) for i in order[start : start + k]))
    return blocks


def _cases():
    """(label, u, w, support): random partitions at n = 1..10, one block, all singletons, and n = 16."""
    for n in range(1, 11):
        for seed in range(3):
            rng = np.random.default_rng(100 * n + seed)
            u, w = random_unitary(n, rng), _spectrum(n, rng)
            yield f"n{n}-s{seed}", u, w, _support(n, _blocks(n, rng), 0.3, rng)
    for n in (5, 8):
        rng = np.random.default_rng(7 * n)
        u, w = random_unitary(n, rng), _spectrum(n, rng)
        yield f"path-n{n}", u, w, _support(n, [list(range(n))], 0.0, rng)  # tridiagonal-like: one component
        yield f"diagonal-n{n}", u, w, np.zeros((n, n), dtype=bool)  # commuting: n components
    rng = np.random.default_rng(16)
    u, w = random_unitary(16, rng), _spectrum(16, rng)
    yield "halves-n16", u, w, _support(16, [list(range(0, 16, 2)), list(range(1, 16, 2))], 0.2, rng)


CASES = list(_cases())


def _same_subspace(rows: np.ndarray, ref: np.ndarray, tol: float = 1e-9) -> bool:
    """Whether two sets of orthonormal real rows span one subspace: equal counts, and each lies in the other."""
    return len(rows) == len(ref) and float(np.abs(rows - (rows @ ref.T) @ ref).max(initial=0.0)) <= tol


def test_the_oracle_raises_on_a_spectrum_closer_than_its_gap():
    u, support = np.eye(3), np.ones((3, 3), dtype=bool)
    with pytest.raises(ValueError, match="ORACLE_GAP"):
        generated_by_pair(u, [1.0, 1.0 + 0.5 * ORACLE_GAP, 3.0], support)
    sizes, rows = generated_by_pair(u, [1.0, 2.0, 3.0], support)
    assert sizes == [3] and np.allclose(rows @ rows.T, np.eye(9), rtol=0, atol=1e-14)


def _counting_rounds(monkeypatch) -> list[int]:
    """Count the closures that run the rounds, which the eigenframe and root frame paths fall back to."""
    calls = [0]
    original = subspace_mod._close_rounds

    def counted(s, product):
        calls[0] += 1
        return original(s, product)

    monkeypatch.setattr(subspace_mod, "_close_rounds", counted)
    return calls


@pytest.mark.parametrize("label,u,w,support", CASES, ids=[c[0] for c in CASES])
def test_both_paths_span_the_oracles_closure(label, u, w, support):
    sizes, ref = generated_by_pair(u, w, support)
    a, b = _pair(u, w, support, np.random.default_rng(len(w)))
    np.testing.assert_allclose(ref @ ref.T, np.eye(len(ref)), rtol=0, atol=1e-12)
    for generate in (jordan_generate_three, jordan_rounds):
        rep = generate(a, b)
        assert rep.closure_dim == sum(k * k for k in sizes) and rep.generated is (sizes == [len(w)])
        assert _same_subspace(rep.closure.rows, ref), (label, generate)


def _generic_gap(a: np.ndarray, b: np.ndarray) -> float:
    """The least gap between consecutive eigenvalues of the eigenframe path's generic element g_1."""
    s = span([a, b, lie(a, b), np.eye(len(a), dtype=complex)])
    g1 = (subspace_mod._generic_pair(min(2, s.dim_span))[0][0] @ s.rows[:2]).view(complex).reshape(len(a), len(a))
    return float(np.diff(np.linalg.eigvalsh(g1)).min(initial=np.inf))


def test_clear_inputs_take_the_eigenframe_path_unless_its_generic_gap_is_small(monkeypatch):
    """A gap of g_1 twice sqrt(SPAN_RTOL) or more takes the eigenframe path, half of it or less the rounds; between,
    roundoff may tip it. With numpy 2.4.6 on OpenBLAS one case falls back (n6-s2, gap 2.3e-5) and the next smallest
    gap is 1.3e-4 (n5-s2), inside the factor of two."""
    calls, fell, edge = _counting_rounds(monkeypatch), [], np.sqrt(SPAN_RTOL)
    for label, u, w, support in CASES:
        a, b = _pair(u, w, support, np.random.default_rng(len(w)))
        before = calls[0]
        jordan_generate_three(a, b)
        gap = _generic_gap(a, b)
        if calls[0] > before:
            fell.append(label)
            assert gap < 2.0 * edge, label
        else:
            assert gap > 0.5 * edge, label
    assert 1 <= len(fell) <= 2


@pytest.mark.parametrize("seed", range(4))
def test_conjugation_keeps_the_sizes(seed):
    rng = np.random.default_rng(200 + seed)
    n = 6 + seed
    u, w, q = random_unitary(n, rng), _spectrum(n, rng), random_unitary(n, rng)
    support = _support(n, _blocks(n, rng), 0.3, rng)
    a, b = _pair(u, w, support, rng)
    sizes, _ = generated_by_pair(u, w, support)
    moved_sizes, moved = generated_by_pair(q @ u, w, support)
    assert moved_sizes == sizes
    qa, qb = q @ a @ q.conj().T, q @ b @ q.conj().T
    for generate in (jordan_generate_three, jordan_rounds):
        assert generate(qa, qb).closure_dim == generate(a, b).closure_dim == sum(k * k for k in sizes)
    assert _same_subspace(jordan_generate_three(qa, qb).closure.rows, moved)


@pytest.mark.parametrize("seed", range(4))
def test_a_direct_sum_adds_the_sizes(seed):
    """Two oracle pairs with disjoint spectra: the direct sum's closure is the direct sum of their closures."""
    rng = np.random.default_rng(300 + seed)
    n1, n2 = 3 + seed, 5 - seed % 2
    parts = []
    for n, shift in ((n1, 0.0), (n2, n1 + 1.0)):
        u, w = random_unitary(n, rng), _spectrum(n, rng, shift)
        support = _support(n, _blocks(n, rng), 0.3, rng)
        parts.append((u, w, support, *_pair(u, w, support, rng)))
    (u1, w1, s1, a1, b1), (u2, w2, s2, a2, b2) = parts
    n = n1 + n2

    def dsum(x, y):
        m = np.zeros((n, n), dtype=complex)
        m[:n1, :n1], m[n1:, n1:] = x, y
        return m

    sizes, ref = generated_by_pair(dsum(u1, u2), np.concatenate((w1, w2)), dsum(s1, s2).real.astype(bool))
    assert sizes == generated_by_pair(u1, w1, s1)[0] + generated_by_pair(u2, w2, s2)[0]
    a, b = dsum(a1, a2), dsum(b1, b2)
    for generate in (jordan_generate_three, jordan_rounds):
        got = generate(a, b)
        assert got.closure_dim == generate(a1, b1).closure_dim + generate(a2, b2).closure_dim
        assert _same_subspace(got.closure.rows, ref)


#: Tilts 10^-k of the one coupling between two blocks, k in half-decades.
_TILTS = np.arange(0.0, 14.5, 0.5)


def _tilted(eps: float):
    """An oracle pair at n = 6 with blocks {0, 2, 4} and {1, 3, 5}, and B_01 = B_10 = eps between them."""
    rng = np.random.default_rng(41)
    n, u, w = 6, random_unitary(6, np.random.default_rng(42)), _spectrum(6, rng)
    support = _support(n, [[0, 2, 4], [1, 3, 5]], 0.0, rng)
    a, b = _pair(u, w, support, rng)
    e = np.zeros((n, n), dtype=complex)
    e[0, 1] = e[1, 0] = eps
    return a, b + u @ e @ u.conj().T


def _dim_or_none(generate, a, b) -> int | None:
    """The closure dimension, or None for the typed error of a round that roundoff pushes past the bound."""
    try:
        return generate(a, b).closure_dim
    except ValidationError as exc:
        assert "above its bound 36" in str(exc)
        return None


#: The tilts the eigenframe path hands to the rounds: about k = 3 to 6.5, where a coupling between the blocks in
#: g_2's frame lies between SPAN_RTOL and its square root, and about k = 7 to 8, where every coupling is under
#: SPAN_RTOL but b, as a unit row, lies more than SPAN_RTOL off the two blocks. Above the band it joins the blocks
#: (36), below it reads them apart (18). The oracle answers 36 at every tilt. With numpy 2.4.6 on OpenBLAS the band is
#: k = 3 to 8; the rounds read 36 to k = 7, raise ValidationError (the closure passes its bound 36) from k = 7.5 to 9,
#: and read 18 from k = 9.5; so at k = 8.5 and 9 the eigenframe path reads 18 where the rounds raise. Both band edges
#: are roundoff, so only the interior ``BAND`` must fall back and only the tilts outside ``EDGES`` must not.
BAND = [3.5, 4.0, 4.5, 5.0, 5.5, 6.0, 6.5, 7.0, 7.5]
EDGES = (2.5, 9.0)


def test_the_tilt_at_which_each_path_reads_two_blocks_apart(monkeypatch):
    """Each path reads 36 down to a tilt, then raises or reads 18, and 18 below. Where the eigenframe path falls back
    it reads what the rounds read; outside its band it decides alone. The edges depend on roundoff (``BAND``'s note),
    so only their order and the tilts far from them are asserted."""
    calls = _counting_rounds(monkeypatch)
    fell, eigen, rounds = [], [], []
    for k in _TILTS:
        a, b = _tilted(10.0**-k)
        before = calls[0]
        eigen.append(_dim_or_none(jordan_generate_three, a, b))
        if calls[0] > before:
            fell.append(float(k))
        rounds.append(_dim_or_none(jordan_rounds, a, b))
    assert set(BAND) <= set(fell) and all(EDGES[0] < k < EDGES[1] for k in fell)
    assert fell == [float(k) for k in _TILTS if fell[0] <= k <= fell[-1]]  # one run of tilts
    for k, e, r in zip(_TILTS, eigen, rounds):
        if k in fell:
            assert e == r, k
        elif k < fell[0]:
            assert e == r == 36, k
        else:
            assert e == 18, k
    apart = rounds.index(18)
    assert set(rounds[:apart]) <= {36, None} and set(rounds[apart:]) == {18}
    assert set(rounds[: list(_TILTS).index(7.0) + 1]) == {36} and 7.0 < _TILTS[apart] <= 10.0


# ---------------------------------------------------------------- Lie generation


def _sidon(n: int, rng: np.random.Generator, traceless: bool = False) -> np.ndarray:
    """n values whose differences are distinct nonzero integers (Erdos and Turan: 2pk + (k^2 mod p), p prime, p >= n),
    in random order, shifted by a random amount or to trace zero. Up to n = 16 every gap between transitions is at
    least 1 and max |w| below 1 / ``ORACLE_GAP``."""
    p = next(q for q in range(n, 2 * n + 2) if all(q % d for d in range(2, q)))
    w = rng.permutation([2 * p * k + k * k % p for k in range(n)]).astype(float)
    return w - w.mean() if traceless else w - rng.uniform(0.0, w.max())


def _lie_cases():
    """(label, u, w, support) with a's transitions distinct: random partitions at n = 2..10, paths, one block with
    a traceless spectrum, and n = 16."""
    for n in range(2, 11):
        for seed in range(3):
            rng = np.random.default_rng(500 + 100 * n + seed)
            u, w = random_unitary(n, rng), _sidon(n, rng, traceless=seed == 2)
            yield f"n{n}-s{seed}", u, w, _support(n, _blocks(n, rng), 0.3, rng)
    for n in (5, 8):
        rng = np.random.default_rng(11 * n)
        u, w = random_unitary(n, rng), _sidon(n, rng)
        yield f"path-n{n}", u, w, _support(n, [list(range(n))], 0.0, rng)
        yield f"traceless-block-n{n}", u, _sidon(n, rng, traceless=True), _support(n, [list(range(n))], 0.5, rng)
    rng = np.random.default_rng(1600)
    u, w = random_unitary(16, rng), _sidon(16, rng)
    yield "halves-n16", u, w, _support(16, [list(range(0, 16, 2)), list(range(1, 16, 2))], 0.2, rng)


LIE_CASES = list(_lie_cases())


def test_the_lie_oracle_raises_on_transitions_closer_than_its_gap():
    u, support = np.eye(3), np.ones((3, 3), dtype=bool)
    with pytest.raises(ValueError, match="transitions"):
        lie_generated_by_pair(u, [0.0, 1.0, 2.0], support)  # 1 - 0 = 2 - 1
    with pytest.raises(ValueError, match="transitions"):
        lie_generated_by_pair(u, [0.0, 1.0, 1.0 + 0.5 * ORACLE_GAP], support)  # a transition near 0
    sizes, rows = lie_generated_by_pair(u, [-1.0, -2.0, 3.0], support)  # traceless: su(3)
    assert sizes == [3] and np.allclose(rows @ rows.T, np.eye(8), rtol=0, atol=1e-14)
    sizes, rows = lie_generated_by_pair(u, [0.0, 1.0, 3.0], np.zeros((3, 3), dtype=bool))  # a's line alone
    assert sizes == [1, 1, 1] and len(rows) == 1


@pytest.mark.parametrize("label,u,w,support", LIE_CASES, ids=[c[0] for c in LIE_CASES])
def test_both_lie_paths_span_the_oracles_closure(label, u, w, support):
    sizes, ref = lie_generated_by_pair(u, w, support)
    a, b = _pair(u, w, support, np.random.default_rng(len(w)), diagonal=False)
    np.testing.assert_allclose(ref @ ref.T, np.eye(len(ref)), rtol=0, atol=1e-12)
    for generate in (lie_generate, lie_rounds):
        rep = generate(a, b)
        assert rep.closure_dim == len(ref), (label, generate)
        assert _same_subspace(rep.closure.rows, ref), (label, generate)


def test_clear_lie_pairs_take_the_root_frame(monkeypatch):
    """A lone transition of g_1 needs a gap of sqrt(SPAN_RTOL) to every other of its n(n - 1). With numpy 2.4.6 on
    OpenBLAS every oracle pair has one on each edge its components need and takes the root frame; halves-n16, whose
    least gap between two transitions is 8.4e-5, may fall back under another LAPACK."""
    calls, fell = _counting_rounds(monkeypatch), []
    for label, u, w, support in LIE_CASES:
        a, b = _pair(u, w, support, np.random.default_rng(len(w)), diagonal=False)
        before = calls[0]
        rep = lie_generate(a, b)
        if calls[0] > before:
            fell.append(label)
        else:
            assert (rep.rounds, rep.trajectory) == (1, (2, rep.closure_dim)) and rep.closure._memo[lie], label
    assert set(fell) <= {"halves-n16"}, fell


@pytest.mark.parametrize("seed", range(4))
def test_conjugation_keeps_the_lie_closure(seed):
    rng = np.random.default_rng(600 + seed)
    n = 5 + seed
    u, w, q = random_unitary(n, rng), _sidon(n, rng), random_unitary(n, rng)
    support = _support(n, _blocks(n, rng), 0.3, rng)
    a, b = _pair(u, w, support, rng, diagonal=False)
    _, moved = lie_generated_by_pair(q @ u, w, support)
    qa, qb = q @ a @ q.conj().T, q @ b @ q.conj().T
    for generate in (lie_generate, lie_rounds):
        assert generate(qa, qb).closure_dim == generate(a, b).closure_dim == len(moved)
        assert _same_subspace(generate(qa, qb).closure.rows, moved)


@pytest.mark.parametrize("seed", range(4))
def test_a_lie_direct_sum_joins_the_components_and_shares_one_trace_line(seed):
    """Two oracle pairs whose spectra split one Sidon set: the direct sum's components are both pairs' components,
    and its closure is the oracle's, whose block-trace line is one, not one a summand."""
    rng = np.random.default_rng(700 + seed)
    n1, n2 = 3 + seed, 5 - seed % 2
    n, w = n1 + n2, _sidon(n1 + n2, rng)
    parts = []
    for k, ws in ((n1, w[:n1]), (n2, w[n1:])):
        u = random_unitary(k, rng)
        support = _support(k, _blocks(k, rng), 0.3, rng)
        parts.append((u, support, *_pair(u, ws, support, rng, diagonal=False)))
    (u1, s1, a1, b1), (u2, s2, a2, b2) = parts

    def dsum(x, y):
        m = np.zeros((n, n), dtype=complex)
        m[:n1, :n1], m[n1:, n1:] = x, y
        return m

    sizes, ref = lie_generated_by_pair(dsum(u1, u2), w, dsum(s1, s2).real.astype(bool))
    assert sizes == lie_generated_by_pair(u1, w[:n1], s1)[0] + lie_generated_by_pair(u2, w[n1:], s2)[0]
    assert len(ref) == sum(k * k - 1 for k in sizes) + 1
    for generate in (lie_generate, lie_rounds):
        got = generate(dsum(a1, a2), dsum(b1, b2))
        assert _same_subspace(got.closure.rows, ref), generate


def _spin(j2: int) -> tuple[np.ndarray, np.ndarray]:
    """J_x and J_y of spin j = j2 / 2, dimension j2 + 1, from the ladder J_+ |m> = sqrt(j(j + 1) - m(m + 1)) |m + 1>."""
    j, m = j2 / 2.0, np.arange(j2) - j2 / 2.0
    up = np.diag(np.sqrt(j * (j + 1) - m * (m + 1)), -1).astype(complex)
    return (up + up.T) / 2.0, (up - up.T) / 2j


def _unclear_pairs():
    """(label, a, b, closure dimension or None): pairs whose every combination repeats a transition. i so(n) closes
    to itself, a spin-j representation to su(2)'s image; a chiral pair [[0, X], [X^H, 0]] has a +-symmetric
    spectrum, and its closure is whatever the rounds read."""
    for n in range(3, 9):
        rng = np.random.default_rng(800 + n)
        x, y = rng.standard_normal((2, n, n))
        yield f"so-n{n}", 1j * (x - x.T), 1j * (y - y.T), n * (n - 1) // 2
    for j2 in range(2, 6):
        u = random_unitary(j2 + 1, np.random.default_rng(900 + j2))
        jx, jy = _spin(j2)
        yield f"spin-{j2}/2", u @ jx @ u.conj().T, u @ jy @ u.conj().T, 3
    for k in (2, 3, 4):
        rng = np.random.default_rng(950 + k)
        u = random_unitary(2 * k, rng)
        x, y = rng.standard_normal((2, k, k)) + 1j * rng.standard_normal((2, k, k))
        z = np.zeros((k, k))
        a, b = (u @ np.block([[z, m], [m.conj().T, z]]) @ u.conj().T for m in (x, y))
        yield f"chiral-n{2 * k}", a, b, None


UNCLEAR = list(_unclear_pairs())


@pytest.mark.parametrize("label,a,b,dim", UNCLEAR, ids=[c[0] for c in UNCLEAR])
def test_pairs_with_repeated_transitions_fall_back_to_the_rounds(monkeypatch, label, a, b, dim):
    ref = lie_rounds(a, b)
    calls = _counting_rounds(monkeypatch)
    rep = lie_generate(a, b)
    assert calls[0] == 1, label
    assert (rep.closure_dim, rep.target_dim, rep.generated) == (ref.closure_dim, ref.target_dim, ref.generated)
    assert (rep.rounds, rep.trajectory) == (ref.rounds, ref.trajectory)
    assert rep.closure.rows.tobytes() == ref.closure.rows.tobytes()
    assert dim is None or rep.closure_dim == dim


def test_joining_every_coupling_without_the_lone_test_misreads_a_pair(monkeypatch):
    """The mutation: every transition read as lone. Then g_1's repeated transitions pass couplings of g_2 that
    belong to no single E_ij, the components join, and one component skips the seed check: i so(n) and spin-j
    read su(n)."""
    monkeypatch.setattr(subspace_mod, "_lone", lambda w, edge: np.ones((len(w), len(w)), dtype=bool))
    wrong = [label for label, a, b, dim in UNCLEAR if lie_generate(a, b).closure_dim != lie_rounds(a, b).closure_dim]
    assert wrong and all(label.startswith(("so", "spin")) for label in wrong), wrong
