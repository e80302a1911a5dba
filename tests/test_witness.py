from __future__ import annotations

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
)
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
from ljlab.witness import _search

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
    for seed in range(6):
        for budget in (1, 7, 100):
            got, ref = search(n, seed, budget), reference(n, seed, budget)
            assert (got.kind, got.violation, got.found) == (ref.kind, ref.violation, ref.found)
            assert _bytes(got.witness) == _bytes(ref.witness)
            assert [_bytes(m) for m in got.inputs] == [_bytes(m) for m in ref.inputs]


def test_search_keeps_first_best_trial_and_halves_step_after_20_rejects():
    drawn, steps = [], []

    def draw(rng):
        drawn.append((np.zeros(1),))
        return drawn[-1]

    def perturb(x, step, rng):
        steps.append(step)
        return x + 1.0

    # every score ties, so every refinement step is a reject
    best = _search(2, seed=0, budget=5, draw=draw, perturb=perturb, score=lambda c, s, m: (0.0, None))
    assert best is drawn[0]
    assert len(steps) == 17 * 20  # 0.1 * 0.5**17 < 1e-6
    assert steps[::20] == [0.1 * 0.5**k for k in range(17)]


def test_search_counts_skipped_steps_toward_the_step_cap_but_not_as_rejects():
    def run(delta):
        calls = []

        def perturb(x, step, rng):
            calls.append(step)
            return None if len(calls) % 2 else x + delta

        draw = lambda rng: (np.zeros(1),)
        score = lambda cand, slot, memo: (cand[0][0], None)
        best = _search(2, seed=0, budget=1, draw=draw, perturb=perturb, score=score)
        return best[0][0], len(calls)

    # every proposal improves, so only the 6000-step cap ends refinement
    assert run(-1.0) == (-3000.0, 6000)
    # no proposal improves; only the 340 proposals that are not skipped are rejects
    assert run(+1.0) == (0.0, 2 * 17 * 20)
