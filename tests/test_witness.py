from __future__ import annotations

import itertools

import numpy as np
import pytest

from helpers import (
    AVR_B,
    P0,
    SQ_A,
    SQ_B,
    SX,
    SZ,
    eig2_oracle,
    loop_associator_witness_search,
    loop_avr_witness_search,
    loop_search,
)
from helpers import _unit_psd as loop_unit_psd
from ljlab import (
    ValidationError,
    associator,
    associator_witness,
    associator_witness_search,
    avr_witness_search,
    is_psd,
    jordan,
    min_eigenvalue,
    squared_witness,
)
from ljlab import linalg
from ljlab.linalg import _TRIAL_CHUNK, derive_seed, spectral_norm
from ljlab.witness import _search, _unit, _unit_psd

AVR_FIXTURE_MIN = (1.0 - np.sqrt(2.0)) / 4.0
SQUARE_ORDER_MIN = (2.0 - np.sqrt(5.0)) / 2.0


def test_avr_fixture_value_against_quadratic_oracle():
    prod = jordan(P0, AVR_B)
    lo, _ = eig2_oracle(prod)
    assert lo == pytest.approx(AVR_FIXTURE_MIN, abs=1e-12)
    assert min_eigenvalue(prod) == pytest.approx(AVR_FIXTURE_MIN, abs=1e-9)
    assert is_psd(P0) and is_psd(AVR_B)


def test_square_order_fixture_value():
    # SQ_A >= SQ_B >= 0 yet SQ_A^2 - SQ_B^2 dips negative
    assert is_psd(SQ_A) and is_psd(SQ_B) and is_psd(SQ_A - SQ_B)
    diff = SQ_A @ SQ_A - SQ_B @ SQ_B
    lo, _ = eig2_oracle(diff)
    assert lo == pytest.approx(SQUARE_ORDER_MIN, abs=1e-12)
    assert min_eigenvalue(diff) == pytest.approx(SQUARE_ORDER_MIN, abs=1e-9)


def test_associator_witness_pauli_triple():
    rep = associator_witness(SZ, SX, SX)
    assert rep.kind == "associator"
    np.testing.assert_allclose(rep.witness, -SZ, atol=1e-14)
    assert rep.violation == pytest.approx(1.0)
    assert rep.found


def test_associator_witness_commuting_triple():
    d = [np.diag(v).astype(complex) for v in ([1, 2], [3, 4], [5, 6])]
    rep = associator_witness(*d)
    assert rep.violation == pytest.approx(0.0, abs=1e-14)
    assert not rep.found


def test_squared_witness_is_psd_and_faithful():
    rep = squared_witness(associator(SZ, SX, SX))
    assert rep.kind == "squared"
    assert is_psd(rep.witness)
    assert rep.violation == pytest.approx(1.0)
    assert rep.found
    zero = squared_witness(np.zeros((2, 2)))
    assert zero.violation == 0.0
    assert not zero.found


def test_avr_search_finds_violation_and_is_deterministic():
    rep1 = avr_witness_search(2, seed=3, budget=300)
    rep2 = avr_witness_search(2, seed=3, budget=300)
    assert rep1.kind == "avr"
    assert rep1.violation == rep2.violation
    np.testing.assert_array_equal(rep1.witness, rep2.witness)
    assert rep1.found
    assert rep1.violation <= -0.05
    # inputs really are PSD and the witness is their Jordan product
    a, b = rep1.inputs
    assert is_psd(a) and is_psd(b)
    np.testing.assert_allclose(rep1.witness, jordan(a, b), atol=1e-12)
    assert min_eigenvalue(rep1.witness) == pytest.approx(rep1.violation, abs=1e-9)


def test_avr_search_different_seeds_differ():
    r1 = avr_witness_search(2, seed=1, budget=50)
    r2 = avr_witness_search(2, seed=2, budget=50)
    assert not np.array_equal(r1.witness, r2.witness)


def test_avr_search_dimension_one_reports_no_violation():
    rep = avr_witness_search(1, seed=0, budget=10)
    assert not rep.found
    assert rep.witness is None
    assert rep.violation == 0.0
    assert rep.inputs == ()


def test_associator_search_finds_large_violation():
    rep1 = associator_witness_search(2, seed=5, budget=200)
    rep2 = associator_witness_search(2, seed=5, budget=200)
    assert rep1.violation == rep2.violation
    assert rep1.found
    assert rep1.violation >= 0.5
    a, b, c = rep1.inputs
    np.testing.assert_allclose(rep1.witness, associator(a, b, c), atol=1e-12)


def test_associator_search_dimension_one():
    rep = associator_witness_search(1, seed=0, budget=10)
    assert not rep.found
    assert rep.violation == 0.0


@pytest.mark.parametrize("tol", [1e-9, None, "1e-9"], ids=["float", "none", "str"])
def test_searches_reject_a_tol_that_is_not_a_tolerance(tol):
    for search in (avr_witness_search, associator_witness_search):
        with pytest.raises(ValidationError, match="tol must be a Tolerance"):
            search(2, 0, 1, tol)


def test_search_argument_validation():
    with pytest.raises(ValidationError):
        avr_witness_search(0, seed=0, budget=10)
    with pytest.raises(ValidationError):
        avr_witness_search(2, seed=0, budget=0)
    with pytest.raises(ValidationError):
        associator_witness_search(-1, seed=0, budget=10)
    # arguments are checked before dimension 1 short-circuits
    with pytest.raises(ValidationError):
        avr_witness_search(1, seed=0, budget=0)
    with pytest.raises(ValidationError):
        associator_witness_search(0, seed=0, budget=10)
    # a budget that is not an integer, bools included, is not truncated or run as one trial
    for budget, n in itertools.product((2.5, True), (1, 2)):
        for search in (avr_witness_search, associator_witness_search):
            with pytest.raises(ValidationError, match="budget must be an integer"):
                search(n, seed=0, budget=budget)
    assert avr_witness_search(2, seed=0, budget=np.int64(3)).violation == avr_witness_search(2, 0, 3).violation
    for n in (2.5, True):
        with pytest.raises(ValidationError, match="dimension must be an integer"):
            avr_witness_search(n, seed=0, budget=5)


def _bytes(m: np.ndarray | None) -> bytes | None:
    return None if m is None else m.tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize(
    "search, reference",
    [
        (avr_witness_search, loop_avr_witness_search),
        (associator_witness_search, loop_associator_witness_search),
    ],
    ids=["avr", "associator"],
)
def test_search_matches_own_loop_reference_bit_for_bit(search, reference, n):
    # the identities benchmark accepts any witness at least as good, so only
    # this comparison catches a drift in the shared schedule or draw order
    # at n = 2 one budget crosses a trial chunk
    budgets = (1, 7, 100, _TRIAL_CHUNK + 6) if n == 2 else (1, 7, 100)
    for seed in range(6):
        for budget in budgets:
            got, ref = search(n, seed, budget), reference(n, seed, budget)
            assert (got.kind, got.violation, got.found) == (ref.kind, ref.violation, ref.found)
            assert _bytes(got.witness) == _bytes(ref.witness)
            assert [_bytes(m) for m in got.inputs] == [_bytes(m) for m in ref.inputs]


def test_search_keeps_first_best_trial_and_halves_step_after_20_rejects():
    steps = []

    def perturb(factors, step, moves):
        steps.extend(step.tolist())
        return factors + 1.0

    # trials are told apart by a value the score ignores: every score ties,
    # so every refinement step is a reject
    draw = lambda rngs: np.arange(len(rngs), dtype=float).reshape(-1, 1, 1)
    score = lambda cands: np.zeros(len(cands))
    best = _search(2, seed=0, budget=5, draw=draw, move=lambda rng: None, perturb=perturb, score=score)
    assert best.tolist() == [[0.0]]
    assert len(steps) == 17 * 20  # 0.1 * 0.5**17 < 1e-6
    assert steps[::20] == [0.1 * 0.5**k for k in range(17)]


def _scripted(accept=(), nan=()):
    """One-slot search callbacks that script each proposal's fate by its draw index.

    A factor is ``[k, step, accepts, sum of accepted k]`` for the proposal k
    that made it. Proposal k scores NaN when in ``nan``, and improves on
    every earlier score when in ``accept``; all others tie with the trial,
    which is a reject. Also returns the list of drawn moves.
    """
    drawn = []
    accept, nan = (np.array(sorted(x), dtype=float) for x in (accept, nan))

    def move(rng):
        drawn.append(len(drawn))
        return drawn[-1]

    def perturb(factors, step, moves):
        k = np.array(moves, dtype=float)
        out = factors.copy()
        out[:, 0], out[:, 1] = k, step
        out[:, 2] += 1.0
        out[:, 3] += k
        return out

    def score(cands):
        k = cands[:, 0, 0]
        return np.where(np.isin(k, nan), np.nan, np.where(np.isin(k, accept), -(k + 2.0), 0.0))

    draw = lambda rngs: np.tile([-1.0, 0.0, 0.0, 0.0], (len(rngs), 1, 1))
    return (draw, move, perturb, score), drawn


def _run_both(**script):
    """The driver's and the one-step reference's result and drawn-move count."""
    (callbacks, drawn), (ref_callbacks, ref_drawn) = _scripted(**script), _scripted(**script)
    got = _search(2, 0, 1, *callbacks)
    ref = loop_search(2, 0, 1, *ref_callbacks)
    assert got.tobytes() == ref.tobytes()
    assert len(drawn) == len(ref_drawn)
    return got[0].tolist(), len(drawn)


# batches are 8 wide: every position of the first batch, and the edges of later ones
@pytest.mark.parametrize("k", list(range(8)) + [8, 15, 16, 23, 24, 31, 40, 55, 56, 87])
def test_search_accept_at_each_batch_position_matches_the_one_step_loop(k):
    best, drawn = _run_both(accept={k})
    assert best == [k, 0.1 * 0.5 ** (k // 20), 1.0, k]
    # an accept resets the reject count, not the step
    assert drawn == k + 1 + 20 * (17 - k // 20)


@pytest.mark.parametrize(
    "accept",
    [{0, 1, 2, 3}, {3, 5, 6, 40}, {7, 8, 23, 24}, set(range(0, 600, 3)), {100, 101, 300}],
)
def test_search_accept_runs_match_the_one_step_loop(accept):
    best, _ = _run_both(accept=accept)
    k = max(accept)
    assert best[0] == k and best[2:] == [len(accept), sum(accept)]


def test_search_stops_at_the_step_cap_in_mid_batch():
    # an accept every 10 proposals keeps the step at 0.1, so only the cap ends
    # refinement; it falls on the one proposal left after 5991..5998 fail
    accept = set(range(0, 6000, 10))
    best, drawn = _run_both(accept=accept)
    assert best == [5990.0, 0.1, 600.0, float(sum(accept))]
    assert drawn == 6000


def test_search_never_keeps_a_nan_score():
    # NaN proposals are rejects, even where they would otherwise improve
    best, drawn = _run_both(nan={0, 1, 2, 5}, accept={1, 5, 9})
    assert best == [9.0, 0.1, 1.0, 9.0]
    assert drawn == 10 + 340
    # a NaN trial never wins; the first strictly lowest does
    for scores in ([np.nan, 1.0, 0.5, 0.5], [np.nan, np.nan, 2.0, np.nan]):

        def score(cands):
            # refinement proposals carry index 4 and score NaN
            return np.array([(scores + [np.nan])[int(t)] for t in cands[:, 0, 0]])

        draw = lambda rngs: np.arange(len(rngs), dtype=float).reshape(-1, 1, 1)
        perturb = lambda factors, step, moves: factors * 0.0 + 4.0
        best = _search(2, 0, 4, draw, lambda rng: None, perturb, score)
        assert best.tolist() == [[2.0]]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_stacked_unit_forms_equal_the_per_matrix_forms_bit_for_bit(n):
    rng = np.random.default_rng(n)
    g = rng.standard_normal((6, 2, n, n)) + 1j * rng.standard_normal((6, 2, n, n))
    g[2, 1] = 0.0  # zero-norm slices come back unchanged
    g[4] = 0.0
    units = _unit_psd(g)
    for idx in np.ndindex(g.shape[:2]):
        assert units[idx].tobytes() == loop_unit_psd(g[idx]).tobytes()
    h = 0.5 * (g + np.conj(g).swapaxes(-1, -2))
    normed = _unit(h)
    for idx in np.ndindex(h.shape[:2]):
        nrm = spectral_norm(h[idx])
        assert normed[idx].tobytes() == (h[idx] / nrm if nrm != 0.0 else h[idx]).tobytes()


@pytest.mark.parametrize("chunk", [1, 3, 64])
def test_search_scores_trials_in_chunks_with_the_same_winner(monkeypatch, chunk):
    # budgets across several chunks keep the first strictly lowest trial
    monkeypatch.setattr(linalg, "_TRIAL_CHUNK", chunk)
    for n, seed, budget in ((2, 0, 7), (3, 1, 100), (2, 4, 5)):
        got, ref = avr_witness_search(n, seed, budget), loop_avr_witness_search(n, seed, budget)
        assert got.witness.tobytes() == ref.witness.tobytes()
        got = associator_witness_search(n, seed, budget)
        ref = loop_associator_witness_search(n, seed, budget)
        assert got.witness.tobytes() == ref.witness.tobytes()
    draw = lambda rngs: np.array([[[rng.random()]] for rng in rngs])
    # every trial scores the same: the first one drawn wins
    score = lambda cands: np.zeros(len(cands))
    best = _search(2, 9, 10, draw, lambda rng: None, lambda f, s, m: f, score)
    assert best[0, 0] == np.random.default_rng(derive_seed(9, 0)).random()
