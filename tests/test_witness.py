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
    random_unitary,
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
from ljlab.linalg import DEFAULT_TOL, derive_seed, gaussian_complex, random_hermitian, spectral_norm
from ljlab.witness import _frame

AVR_FIXTURE_MIN = (1.0 - np.sqrt(2.0)) / 4.0
SQUARE_ORDER_MIN = (2.0 - np.sqrt(5.0)) / 2.0
# the sharp bound of each search's violation: avr's least eigenvalue from below, the associator's norm from above
BOUNDS = {"avr": -0.125, "associator": 1.0}
SEARCHES = {"avr": avr_witness_search, "associator": associator_witness_search}


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
    rep1 = avr_witness_search(2, seed=3)
    rep2 = avr_witness_search(2, seed=3)
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
    r1 = avr_witness_search(2, seed=1)
    r2 = avr_witness_search(2, seed=2)
    assert not np.array_equal(r1.witness, r2.witness)


def test_avr_search_dimension_one_reports_no_violation():
    rep = avr_witness_search(1, seed=0)
    assert not rep.found
    assert rep.witness is None
    assert rep.violation == 0.0
    assert rep.inputs == ()


def test_associator_search_finds_large_violation():
    rep1 = associator_witness_search(2, seed=5)
    rep2 = associator_witness_search(2, seed=5)
    assert rep1.violation == rep2.violation
    assert rep1.found
    assert rep1.violation >= 0.5
    a, b, c = rep1.inputs
    np.testing.assert_allclose(rep1.witness, associator(a, b, c), atol=1e-12)


def test_associator_search_dimension_one():
    rep = associator_witness_search(1, seed=0)
    assert not rep.found
    assert rep.violation == 0.0


@pytest.mark.parametrize("tol", [1e-9, None, "1e-9"], ids=["float", "none", "str"])
def test_searches_reject_a_tol_that_is_not_a_tolerance(tol):
    for search in (avr_witness_search, associator_witness_search):
        with pytest.raises(ValidationError, match="tol must be a Tolerance"):
            search(2, 0, tol)


def test_search_argument_validation():
    with pytest.raises(ValidationError):
        avr_witness_search(0, seed=0)
    with pytest.raises(ValidationError):
        associator_witness_search(-1, seed=0)
    with pytest.raises(ValidationError):
        associator_witness_search(0, seed=0)
    for n in (2.5, True):
        with pytest.raises(ValidationError, match="dimension must be an integer"):
            avr_witness_search(n, seed=0)


def test_avr_bound_identity_on_random_contractions():
    # ab + ba = (a + b - I/2)^2 + (a - a^2) + (b - b^2) - I/4 with the last three terms' sum >= -I/4
    # for 0 <= a, b <= I, so no Jordan product of two such observables has an eigenvalue below -1/8
    rng = np.random.default_rng(46)
    for n in (2, 3, 5):
        eye = np.eye(n)
        for _ in range(50):
            a, b = (u @ np.diag(rng.random(n)) @ u.conj().T for u in (random_unitary(n, rng), random_unitary(n, rng)))
            rest = (a + b - eye / 2) @ (a + b - eye / 2) + (a - a @ a) + (b - b @ b) - eye / 4
            np.testing.assert_allclose(a @ b + b @ a, rest, atol=1e-12)
            assert is_psd(a - a @ a) and is_psd(b - b @ b)
            assert min_eigenvalue(jordan(a, b)) >= BOUNDS["avr"] - 1e-12


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("kind", ["avr", "associator"])
def test_search_attains_its_bound_with_unit_inputs(kind, n):
    for seed in range(5):
        rep = SEARCHES[kind](n, seed)
        assert (rep.kind, rep.found) == (kind, True)
        assert abs(rep.violation - BOUNDS[kind]) <= 1e-12
        # a violation past the bound, by more than the tolerance, is a wrong witness
        if kind == "avr":
            assert rep.violation >= BOUNDS[kind] - DEFAULT_TOL.zero_tol
            assert all(is_psd(m) for m in rep.inputs)
            assert np.array_equal(rep.witness, jordan(*rep.inputs))
        else:
            assert rep.violation <= BOUNDS[kind] + DEFAULT_TOL.zero_tol
            assert np.array_equal(rep.witness, associator(*rep.inputs))
        for m in rep.inputs:
            assert abs(spectral_norm(m) - 1.0) <= 1e-12


def test_associator_bound_identity_on_random_unit_triples():
    # assoc(a, b, c) = [b, [a, c]] / 4, so ||assoc|| <= 2 ||b|| ||[a, c]|| / 4 <= 1 for unit-norm inputs
    rng = np.random.default_rng(46)
    for n in (2, 3, 5):
        for _ in range(50):
            a, b, c = (m / spectral_norm(m) for m in (random_hermitian(n, rng) for _ in range(3)))
            ac = a @ c - c @ a
            q = associator(a, b, c)
            np.testing.assert_allclose(q, (b @ ac - ac @ b) / 4, atol=1e-12)
            assert spectral_norm(q) <= BOUNDS["associator"] + 1e-12


@pytest.mark.parametrize("n", range(2, 9))
def test_search_frame_is_one_gram_schmidt_step_on_the_seeds_draw(n):
    for seed in range(5):
        x, y = _frame(n, seed, DEFAULT_TOL)
        g = gaussian_complex(np.random.default_rng(derive_seed(seed, 0)), n)
        np.testing.assert_allclose(x, g[0] / np.linalg.norm(g[0]), atol=1e-14)
        assert abs(np.linalg.norm(x) - 1.0) <= 1e-14 and abs(np.linalg.norm(y) - 1.0) <= 1e-14
        assert abs(np.vdot(x, y)) <= 1e-14
        # y is the part of the second row orthogonal to x, with a positive real overlap
        assert np.vdot(y, g[1]).real > 0 and abs(np.vdot(y, g[1]).imag) <= 1e-12
        np.testing.assert_allclose(g[1], np.vdot(x, g[1]) * x + np.vdot(y, g[1]) * y, atol=1e-12)
    assert _frame(1, 0, DEFAULT_TOL) is None


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("kind", ["avr", "associator"])
def test_search_witness_lives_on_its_frame_with_its_bound_spectrum(kind, n):
    # avr: projectors at overlap 1/2 give eigenvalues -1/8 and 3/8; associator: (sx, sx, sy) gives sy itself
    spectrum = {"avr": (-0.125, 0.375), "associator": (-1.0, 1.0)}[kind]
    seen = set()
    for seed in range(5):
        rep = SEARCHES[kind](n, seed)
        seen.add(rep.inputs[-1].tobytes())
        x, y = _frame(n, seed, DEFAULT_TOL)
        outside = np.eye(n) - np.outer(x, x.conj()) - np.outer(y, y.conj())
        expected = np.concatenate(([spectrum[0]], np.zeros(n - 2), [spectrum[1]]))
        np.testing.assert_allclose(np.linalg.eigvalsh(rep.witness), expected, atol=1e-12)
        for m in (rep.witness, *rep.inputs):
            np.testing.assert_allclose(m @ outside, 0, atol=1e-12)
        if kind == "associator":
            np.testing.assert_allclose(rep.witness, rep.inputs[2], atol=1e-12)
    assert len(seen) == 5  # every seed draws its own frame


@pytest.mark.parametrize("stage", ["tol", "dimension", "seed"])
@pytest.mark.parametrize("kind", ["avr", "associator"])
def test_search_checks_tol_then_dimension_then_seed(kind, stage):
    # every argument from the stage on is malformed, so the first check to run names the stage;
    # the good dimension is 1, so the checks run before dimension 1 short-circuits
    good = {"tol": DEFAULT_TOL, "dimension": 1, "seed": 0}
    bad = {"tol": 1e-9, "dimension": 0, "seed": -1}
    order = list(good)
    args = {k: (good if order.index(k) < order.index(stage) else bad)[k] for k in order}
    message = {"tol": "tol must be a Tolerance", "dimension": "dimension must be", "seed": "seed must be"}[stage]
    with pytest.raises(ValidationError, match=message):
        SEARCHES[kind](args["dimension"], args["seed"], args["tol"])
