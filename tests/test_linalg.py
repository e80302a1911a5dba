from __future__ import annotations

import inspect
import re

import numpy as np
import pytest

import ljlab
import ljlab.linalg
from helpers import SX, SY, SZ, I2, eig2_oracle
from ljlab import (
    DEFAULT_TOL,
    DimensionMismatch,
    NotHermitian,
    Tolerance,
    ValidationError,
    derive_seed,
    eig_hermitian,
    hs_inner,
    hs_norm,
    is_hermitian,
    is_psd,
    min_eigenvalue,
    operator_norm,
    random_density,
    random_hermitian,
    spectral_norm,
    traceless,
)
from ljlab.linalg import (
    _NORM_SLACK,
    _gaussian_stack,
    _hermitian_part,
    _opnorm,
    _row_norms,
    _rows,
    _screened_opnorm,
    _trial_rngs,
)
from ljlab.seeding import _pcg64_seed_words


def test_tolerance_threshold_scaling():
    tol = Tolerance(zero_tol=1e-9)
    assert tol.threshold(0.5) == 1e-9          # floor at scale 1
    assert tol.threshold(100.0) == pytest.approx(1e-7)


def test_the_cli_sets_the_only_public_tolerance_parameters():
    """Each decision has one threshold; the knobs left are the ones ``--tol`` sets."""
    knob = re.compile(r"(^|_)[ar]?tol$|^rel$")
    found = set()
    for module in (ljlab, ljlab.linalg):
        for name in module.__all__:
            obj = getattr(module, name)
            if not callable(obj):
                continue
            try:
                params = inspect.signature(obj).parameters.values()
            except (TypeError, ValueError):
                continue
            for p in params:
                if knob.search(p.name) or "Tolerance" in str(p.annotation):
                    found.add((name, p.name))
    assert found == {
        ("Tolerance", "zero_tol"),
        ("avr_witness_search", "tol"),
        ("associator_witness_search", "tol"),
    }


def test_tolerance_rejects_nonpositive():
    with pytest.raises(ValidationError):
        Tolerance(zero_tol=0.0)
    with pytest.raises(ValidationError):
        Tolerance(zero_tol=-1e-9)


@pytest.mark.parametrize("zero_tol", [np.inf, np.nan])
def test_tolerance_rejects_non_finite(zero_tol):
    with pytest.raises(ValidationError, match="finite"):
        Tolerance(zero_tol=zero_tol)


def test_is_hermitian_basics():
    assert is_hermitian(SX)
    assert is_hermitian(SY)
    assert is_hermitian(np.zeros((3, 3)))
    # [[0, i], [i, 0]] is symmetric but not Hermitian
    assert not is_hermitian(np.array([[0, 1j], [1j, 0]]))
    assert not is_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))


def test_is_hermitian_scales_with_norm():
    big = 1e9 * SZ.astype(complex)
    big = big + 1e-4 * np.array([[0, 1j], [1j, 0]])  # asymmetry tiny vs norm
    assert is_hermitian(big)


def test_non_square_rejected():
    with pytest.raises(DimensionMismatch):
        is_hermitian(np.zeros((2, 3)))


def test_eig_hermitian_matches_quadratic_oracle():
    for i in range(100):
        rng = np.random.default_rng(i)
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        m = 0.5 * (g + g.conj().T)
        w, v = eig_hermitian(m)
        lo, hi = eig2_oracle(m)
        np.testing.assert_allclose(w, [lo, hi], atol=1e-12)
        # eigenvector columns reconstruct the matrix
        np.testing.assert_allclose(v @ np.diag(w) @ v.conj().T, m, atol=1e-12)


def test_eig_hermitian_rejects_nonhermitian():
    with pytest.raises(NotHermitian):
        eig_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))
    with pytest.raises(NotHermitian):
        min_eigenvalue(np.array([[0, 1], [0, 0]], dtype=complex))
    with pytest.raises(NotHermitian):
        operator_norm(np.array([[0, 1], [0, 0]], dtype=complex))


def test_spectral_queries_on_fixture():
    m = np.diag([3.0, -5.0]).astype(complex)
    assert min_eigenvalue(m) == -5.0
    assert operator_norm(m) == 5.0
    assert not is_psd(m)
    assert is_psd(np.diag([0.0, 2.0]).astype(complex))
    assert operator_norm(np.zeros((2, 2))) == 0.0


def test_is_psd_tolerates_rounding_negatives():
    m = np.diag([1.0, -1e-12]).astype(complex)
    assert is_psd(m)
    assert not is_psd(np.diag([1.0, -1e-6]).astype(complex))


def test_spectral_norm_general_matrix():
    n = np.array([[0, 2], [0, 0]], dtype=complex)  # nilpotent, eigenvalues all 0
    assert spectral_norm(n) == pytest.approx(2.0)


def test_hs_inner_fixtures():
    assert hs_inner(np.eye(4), np.eye(4)) == pytest.approx(4.0)
    assert hs_inner(SX, SY) == pytest.approx(0.0)
    assert hs_inner(SX, SX) == pytest.approx(2.0)
    assert hs_inner(SZ, I2) == pytest.approx(0.0)
    with pytest.raises(DimensionMismatch):
        hs_inner(SX, np.eye(3))


def test_hs_norm_consistent_with_inner():
    for i in range(50):
        m = random_hermitian(3, seed=i)
        assert hs_norm(m) == pytest.approx(np.sqrt(hs_inner(m, m)), rel=1e-12)


def test_random_hermitian_properties():
    a = random_hermitian(4, seed=123)
    b = random_hermitian(4, seed=123)
    c = random_hermitian(4, seed=124)
    np.testing.assert_array_equal(a, b)
    assert np.max(np.abs(a - c)) > 1e-3
    for i in range(50):
        m = random_hermitian(3, seed=i)
        assert is_hermitian(m)


def test_random_hermitian_draws_from_a_generator():
    rng, ref = np.random.default_rng(31), np.random.default_rng(31)
    for _ in range(3):
        g = ref.standard_normal((4, 4)) + 1j * ref.standard_normal((4, 4))
        np.testing.assert_array_equal(random_hermitian(4, rng), 0.5 * (g + g.conj().T))
    np.testing.assert_array_equal(
        random_hermitian(4, np.random.default_rng(9)), random_hermitian(4, seed=9)
    )


def _raw_draws(seed: int, n: int, k: int) -> list[np.ndarray]:
    # the stream contract written out: k pairs of (n, n) draws, real part first
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(k):
        a = rng.standard_normal((n, n))
        b = rng.standard_normal((n, n))
        out.append(a + 1j * b)
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_gaussian_draws_follow_the_stream_contract_bit_for_bit(n):
    seeds = [0, 1, 31, 2**40 + 3]
    for k in (1, 2, 3):
        got = _gaussian_stack([np.random.default_rng(s) for s in seeds], n, k)
        assert got.shape == (len(seeds), k, n, n)
        for t, seed in enumerate(seeds):
            raw = _raw_draws(seed, n, k)
            rng, herm_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            for j in range(k):
                herm = 0.5 * (raw[j] + raw[j].conj().T)
                assert got[t, j].tobytes() == raw[j].tobytes()
                assert _hermitian_part(got[t, j]).tobytes() == herm.tobytes()
                assert ljlab.linalg.gaussian_complex(rng, n).tobytes() == raw[j].tobytes()
                assert random_hermitian(n, herm_rng).tobytes() == herm.tobytes()
            assert _hermitian_part(got[t]).tobytes() == _hermitian_part(np.array(raw)).tobytes()
            assert random_hermitian(n, seed).tobytes() == _hermitian_part(raw[0]).tobytes()


def test_random_density_properties():
    np.testing.assert_allclose(random_density(1, seed=0), [[1.0]])
    for i in range(50):
        rho = random_density(3, seed=i)
        assert is_hermitian(rho)
        assert is_psd(rho)
        assert np.real(np.trace(rho)) == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_array_equal(random_density(3, seed=9), random_density(3, seed=9))


@pytest.mark.parametrize("seed", [-1, 2.5, "3", None, True, False, np.float64(1.0), np.int64(-2)])
@pytest.mark.parametrize(
    "sampler",
    [
        random_hermitian,
        random_density,
        ljlab.random_state,
        # every other seeded entry point, also where nothing is drawn (n = 1, samples = 0)
        pytest.param(lambda _, seed: derive_seed(seed, 3), id="derive_seed"),
        pytest.param(lambda _, seed: ljlab.avr_witness_search(1, seed, 5), id="avr-n1"),
        pytest.param(lambda _, seed: ljlab.avr_witness_search(2, seed, 5), id="avr-n2"),
        pytest.param(lambda _, seed: ljlab.associator_witness_search(1, seed, 5), id="associator-n1"),
        pytest.param(lambda _, seed: ljlab.associator_witness_search(2, seed, 5), id="associator-n2"),
        pytest.param(
            lambda _, seed: ljlab.check_positivity_closure(ljlab.full_hermitian_space(2), 0, seed),
            id="positivity-samples0",
        ),
        pytest.param(
            lambda _, seed: ljlab.check_positivity_closure(ljlab.full_hermitian_space(2), 5, seed),
            id="positivity-samples5",
        ),
    ],
)
def test_samplers_reject_a_seed_that_is_not_a_non_negative_integer(sampler, seed):
    with pytest.raises(ValidationError, match="non-negative integer"):
        sampler(3, seed)


@pytest.mark.parametrize("sampler", [random_hermitian, random_density])
def test_samplers_take_numpy_integer_seeds_as_their_value(sampler):
    assert sampler(3, np.int64(5)).tobytes() == sampler(3, 5).tobytes()
    assert sampler(3, np.uint64(2**64 - 1)).tobytes() == sampler(3, 2**64 - 1).tobytes()
    assert sampler(np.uint8(3), 5).tobytes() == sampler(3, 5).tobytes()  # and dimensions too


def test_random_rejects_bad_dim():
    with pytest.raises(DimensionMismatch):
        random_hermitian(0, seed=1)
    with pytest.raises(DimensionMismatch):
        random_density(-2, seed=1)


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: ljlab.full_hermitian_space(2.5), id="full_hermitian_space"),
        pytest.param(lambda: random_hermitian(2.5, 0), id="random_hermitian"),
        pytest.param(lambda: random_density(2.5, 0), id="random_density"),
        pytest.param(lambda: ljlab.random_state(True, 0), id="random_state"),
        pytest.param(lambda: ljlab.associator_witness_search(2.5, 0, 5), id="associator_witness_search"),
    ],
)
def test_a_dimension_that_is_not_an_integer_raises_validation_error(call):
    with pytest.raises(ValidationError, match="dimension must be an integer"):
        call()


#: Malformed values of each kind of argument: a dimension or budget starts
#: at 1, a count (samples, a trial index) at 0, so 0 is not among its
#: values; a zero tolerance is a positive finite number, not a bool; a
#: ``State`` or ``RealSubspace`` argument takes no other object.
_MALFORMED = {
    "from 1": (0, -1, 2.5, True, "3", None),
    "from 0": (-1, 2.5, True, "3", None),
    "seed": (-1, 2.5, True, "1", None),
    "zero_tol": (0, -1, np.nan, np.inf, "x", None, True),
    "State": (None, np.eye(2) / 2, 3, "x"),
    "RealSubspace": (None, np.eye(2), 3, "x"),
}
_TYPES = ("State", "RealSubspace")
_FULL2 = ljlab.full_hermitian_space(2)
_STATE2 = ljlab.State(np.eye(2) / 2)
#: (public callable, argument, kind, call with that argument x and the others valid)
_BOUNDARY = [
    ("Tolerance", "zero_tol", "zero_tol", lambda x: Tolerance(zero_tol=x)),
    ("random_hermitian", "n", "from 1", lambda x: random_hermitian(x, 0)),
    ("random_hermitian", "seed", "seed", lambda x: random_hermitian(2, x)),
    ("random_density", "n", "from 1", lambda x: random_density(x, 0)),
    ("random_density", "seed", "seed", lambda x: random_density(2, x)),
    ("gaussian_complex", "n", "from 1", lambda x: ljlab.gaussian_complex(np.random.default_rng(0), x)),
    ("random_state", "n", "from 1", lambda x: ljlab.random_state(x, 0)),
    ("random_state", "seed", "seed", lambda x: ljlab.random_state(2, x)),
    ("derive_seed", "seed", "seed", lambda x: derive_seed(x, 0)),
    ("derive_seed", "index", "from 0", lambda x: derive_seed(0, x)),
    ("full_hermitian_basis", "n", "from 1", lambda x: ljlab.full_hermitian_basis(x)),
    ("full_hermitian_space", "n", "from 1", lambda x: ljlab.full_hermitian_space(x)),
    ("RealSubspace", "dim_ambient", "from 1", lambda x: ljlab.RealSubspace(x, np.zeros((0, 8)))),
    ("check_positivity_closure", "samples", "from 0", lambda x: ljlab.check_positivity_closure(_FULL2, x, 0)),
    ("check_positivity_closure", "seed", "seed", lambda x: ljlab.check_positivity_closure(_FULL2, 1, x)),
    ("avr_witness_search", "n", "from 1", lambda x: ljlab.avr_witness_search(x, 0, 5)),
    ("avr_witness_search", "seed", "seed", lambda x: ljlab.avr_witness_search(2, x, 5)),
    ("avr_witness_search", "budget", "from 1", lambda x: ljlab.avr_witness_search(2, 0, x)),
    ("associator_witness_search", "n", "from 1", lambda x: ljlab.associator_witness_search(x, 0, 5)),
    ("associator_witness_search", "seed", "seed", lambda x: ljlab.associator_witness_search(2, x, 5)),
    ("associator_witness_search", "budget", "from 1", lambda x: ljlab.associator_witness_search(2, 0, x)),
    ("jordan_commute", "ambient", "RealSubspace", lambda x: ljlab.jordan_commute(np.eye(2), np.eye(2), x)),
    ("close_under", "s", "RealSubspace", lambda x: ljlab.close_under(x, ljlab.lie)),
    ("is_closed_under", "s", "RealSubspace", lambda x: ljlab.is_closed_under(x, ljlab.lie)),
    ("require_closed", "s", "RealSubspace", lambda x: ljlab.require_closed(x, ljlab.lie)),
    ("derived_algebra", "L", "RealSubspace", lambda x: ljlab.derived_algebra(x)),
    ("centralizer", "L", "RealSubspace", lambda x: ljlab.centralizer(x, _FULL2)),
    ("centralizer", "S", "RealSubspace", lambda x: ljlab.centralizer(_FULL2, x)),
    ("commutator_defect", "L", "RealSubspace", lambda x: ljlab.commutator_defect(x)),
    ("associator_defect", "L", "RealSubspace", lambda x: ljlab.associator_defect(x)),
    ("is_commutative", "L", "RealSubspace", lambda x: ljlab.is_commutative(x)),
    ("is_jordan_associative", "L", "RealSubspace", lambda x: ljlab.is_jordan_associative(x)),
    ("is_semisimple_lie", "L", "RealSubspace", lambda x: ljlab.is_semisimple_lie(x)),
    ("function_representation", "L", "RealSubspace", lambda x: ljlab.function_representation(x)),
    ("check_positivity_closure", "L", "RealSubspace", lambda x: ljlab.check_positivity_closure(x, 1, 0)),
    ("expect", "s", "State", lambda x: ljlab.expect(x, np.eye(2))),
    ("is_classical_associator", "s", "State", lambda x: ljlab.is_classical_associator(x, _FULL2)),
    ("is_classical_associator", "L", "RealSubspace", lambda x: ljlab.is_classical_associator(_STATE2, x)),
    ("is_classical_commutator", "s", "State", lambda x: ljlab.is_classical_commutator(x, _FULL2)),
    ("is_classical_commutator", "L", "RealSubspace", lambda x: ljlab.is_classical_commutator(_STATE2, x)),
    ("is_classical_center", "s", "State", lambda x: ljlab.is_classical_center(x, _FULL2)),
    ("is_classical_center", "L", "RealSubspace", lambda x: ljlab.is_classical_center(_STATE2, x)),
    ("classify", "s", "State", lambda x: ljlab.classify(x, _FULL2)),
    ("classify", "L", "RealSubspace", lambda x: ljlab.classify(_STATE2, x)),
]


@pytest.mark.parametrize("name, arg, kind, call", _BOUNDARY, ids=[f"{name}-{arg}" for name, arg, _, _ in _BOUNDARY])
def test_a_malformed_dimension_count_or_seed_raises_an_ljlab_error(name, arg, kind, call):
    """A ``State`` or ``RealSubspace`` argument's error is a ValidationError naming it."""
    for x in _MALFORMED[kind]:
        with pytest.raises(ljlab.LJLabError) as exc:
            call(x)
        if kind in _TYPES:
            assert type(exc.value) is ValidationError
            assert str(exc.value) == f"{arg} must be a {kind}, got {type(x).__name__}"


def test_the_boundary_table_holds_every_public_dimension_count_and_seed():
    """A public callable that gains such an argument must join ``_BOUNDARY``;
    ``PositivityReport.samples`` is a result's field, not an input."""
    ints = {"n", "dim_ambient", "seed", "index", "samples", "budget", "zero_tol"}
    found = set()
    for name in ljlab.__all__:
        obj = getattr(ljlab, name)
        if not callable(obj) or obj is ljlab.PositivityReport or (isinstance(obj, type) and issubclass(obj, Exception)):
            continue
        found |= {(name, arg) for arg in inspect.signature(obj).parameters if arg in ints}
    assert found == {(name, arg) for name, arg, kind, _ in _BOUNDARY if kind not in _TYPES}


def test_the_boundary_table_holds_every_public_state_and_subspace_argument():
    """A public callable that gains a parameter annotated ``State`` or
    ``RealSubspace`` must join ``_BOUNDARY``; the fields of the result
    classes ``GenerationReport`` and ``FunctionRepresentation`` are not inputs."""
    results = (ljlab.GenerationReport, ljlab.FunctionRepresentation)
    found = set()
    for name in ljlab.__all__:
        obj = getattr(ljlab, name)
        if not callable(obj) or obj in results or (isinstance(obj, type) and issubclass(obj, Exception)):
            continue
        params = inspect.signature(obj).parameters.values()
        found |= {(name, p.name, p.annotation) for p in params if p.annotation in _TYPES}
    assert len(found) == 23 and len({name for name, _, _ in found}) == 18
    assert found == {(name, arg, kind) for name, arg, kind, _ in _BOUNDARY if kind in _TYPES}


def test_the_root_exports_each_modules_public_names():
    """``ljlab.__all__`` takes each module's list whole, names nothing twice and leaves out no public name."""
    for module in (ljlab.errors, ljlab.linalg, ljlab.products, ljlab.subspace, ljlab.states, ljlab.witness):
        for name in module.__all__:
            assert name in ljlab.__all__ and getattr(ljlab, name) is getattr(module, name), (module.__name__, name)
    assert len(set(ljlab.__all__)) == len(ljlab.__all__)
    public = {name for name, obj in vars(ljlab).items() if not name.startswith("_") and not inspect.ismodule(obj)}
    assert public - {"annotations"} <= set(ljlab.__all__)


A3, B3 = random_hermitian(3, seed=6), random_hermitian(3, seed=7)


def _poisoned(bad) -> np.ndarray:
    m = random_hermitian(3, seed=5)
    m[0, 2] = m[2, 0] = bad
    return m


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda m: spectral_norm(m), id="spectral_norm"),
        pytest.param(lambda m: operator_norm(m), id="operator_norm"),
        pytest.param(lambda m: is_psd(m), id="is_psd"),
        pytest.param(lambda m: is_hermitian(m), id="is_hermitian"),
        pytest.param(lambda m: min_eigenvalue(m), id="min_eigenvalue"),
        pytest.param(lambda m: hs_inner(A3, m), id="hs_inner"),
        pytest.param(lambda m: hs_norm(m), id="hs_norm"),
        pytest.param(lambda m: ljlab.expect(ljlab.random_state(3, 0), m), id="expect"),
        pytest.param(lambda m: ljlab.check_jacobi(m, A3, B3), id="check_jacobi"),
        pytest.param(lambda m: ljlab.check_norm_axioms(A3, m), id="check_norm_axioms"),
        pytest.param(lambda m: ljlab.associator_witness(A3, m, B3), id="associator_witness"),
        pytest.param(lambda m: ljlab.squared_witness(m), id="squared_witness"),
        pytest.param(lambda m: ljlab.jordan_generate_three(A3, m), id="jordan_generate_three"),
        pytest.param(
            lambda m: ljlab.jordan_commute(m, A3, ljlab.full_hermitian_space(3)), id="jordan_commute"
        ),
    ],
)
def test_non_finite_input_raises_validation_error(call, bad):
    # warnings are errors here, so a RuntimeWarning would fail the call as LinAlgError would
    with pytest.raises(ValidationError, match="must be finite"):
        call(_poisoned(bad))


@pytest.mark.parametrize(
    "call, scale, message",
    [
        pytest.param(lambda m: hs_norm(m), 1e200, "at most 1e\\+150", id="hs_norm"),
        pytest.param(lambda m: hs_inner(A3, m), 1e200, "at most 1e\\+150", id="hs_inner"),
        pytest.param(lambda m: ljlab.squared_witness(m), 1e200, "at most 1e\\+150", id="squared_witness"),
        pytest.param(
            lambda m: ljlab.jordan_commute(m, A3, ljlab.full_hermitian_space(3)),
            1e200,
            "at most 1e\\+150",
            id="jordan_commute",
        ),
        pytest.param(lambda m: ljlab.check_norm_axioms(A3, m), 1e200, "norm-axioms overflows", id="check_norm_axioms"),
        # cubic in a: the defect overflows below the entry limit
        pytest.param(
            lambda m: ljlab.check_weak_associativity(m, B3),
            1e150,
            "weak-associativity overflows",
            id="check_weak_associativity",
        ),
        pytest.param(lambda m: ljlab.check_jacobi(m, m, m), 1e150, "jacobi overflows", id="check_jacobi"),
        pytest.param(lambda m: ljlab.associator_witness(m, m, m), 1e150, "associator overflows", id="associator_witness"),
    ],
)
def test_overflowing_input_raises_validation_error(call, scale, message):
    # warnings are errors here, so an overflow RuntimeWarning would fail the match
    with pytest.raises(ValidationError, match=message):
        call(scale * A3)
    # far below the overflow the same call answers
    call(1e60 * A3)


def test_derive_seed_is_injective_over_trials():
    seeds = {derive_seed(42, t) for t in range(2000)}
    assert len(seeds) == 2000
    assert all(0 <= s < 2**64 for s in seeds)
    # a negative index gave the seed -1, which every sampler rejects, and 2.5 gave 2
    for index, message in ((-1, "index must be >= 0"), (2.5, "index must be an integer")):
        with pytest.raises(ValidationError, match=message):
            derive_seed(0, index)


def test_derive_seed_does_not_fold_seeds_at_and_above_2_to_the_64():
    assert [derive_seed(2**64 + s, t) for s in (0, 5) for t in (0, 7)] == [2**64, 2**64 + 7, 2**64 + 5, 2**64 + 2]
    assert derive_seed(np.uint64(2**64 - 1), 1) == 2**64 - 2
    big = {derive_seed(s, t) for s in (0, 2**64, 2**65, 2**64 + 2**63) for t in range(64)}
    assert len(big) == 4 * 64


def test_traceless_removes_identity_component():
    for i in range(20):
        m = traceless(random_hermitian(4, seed=i))
        assert abs(np.trace(m)) < 1e-12


@pytest.mark.parametrize(
    "m, message",
    [
        pytest.param(np.zeros((0, 0)), "dimension >= 1", id="empty"),
        pytest.param(np.array([[np.inf, 0.0], [0.0, 1.0]]), "must be finite", id="inf"),
        pytest.param(np.array([[1.0, 0.0], [0.0, -np.inf]]), "must be finite", id="-inf"),
        pytest.param(np.array([[np.nan]]), "must be finite", id="nan"),
    ],
)
@pytest.mark.parametrize("query", [min_eigenvalue, operator_norm, is_psd, traceless], ids=lambda f: f.__name__)
def test_eigen_queries_and_traceless_raise_validation_error_on_empty_or_non_finite_input(query, m, message):
    # warnings are errors here: an IndexError, a LinAlgError or a RuntimeWarning would fail the match
    with pytest.raises(ValidationError, match=message):
        query(m)


def _norm_fixtures(n: int, rng: np.random.Generator) -> list[np.ndarray]:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return [g, 0.5 * (g + g.conj().T), np.zeros((n, n), dtype=complex), np.outer(u, v.conj())]


@pytest.mark.parametrize("n", range(1, 9))
def test_spectral_norm_is_bit_equal_to_numpy_two_norm(n):
    rng = np.random.default_rng(900 + n)
    for _ in range(10):
        for m in _norm_fixtures(n, rng):
            got, ref = spectral_norm(m), float(np.linalg.norm(m, 2))
            assert type(got) is float
            assert got.hex() == ref.hex()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["diagonal", "off-diagonal", "everywhere"])
def test_opnorm_on_non_finite_input_behaves_as_numpy_two_norm_and_spectral_norm_raises(bad, where):
    m = random_hermitian(3, seed=5)
    if where == "diagonal":
        m[1, 1] = bad
    elif where == "off-diagonal":
        m[0, 2] = bad
    else:
        m[:] = bad

    def outcome(f):
        try:
            return "value", float(f(m)).hex()
        except Exception as exc:  # the kind of failure is what is compared
            return "raised", type(exc)

    assert outcome(_opnorm) == outcome(lambda x: np.linalg.norm(x, 2))
    with pytest.raises(ValidationError, match="must be finite"):
        spectral_norm(m)


def test_opnorm_of_a_stack_equals_per_slice_calls():
    # the screened norms take SVDs of subsets: any subset, in any order, must give each matrix's own bits
    rng = np.random.default_rng(77)
    for n in range(1, 13):
        stack = np.stack([m for _ in range(3) for m in _norm_fixtures(n, rng)])
        got = _opnorm(stack)
        assert got.shape == (len(stack),)
        assert got.tobytes() == np.array([spectral_norm(m) for m in stack]).tobytes()
        nested = _opnorm(stack.reshape(2, -1, n, n))
        assert nested.tobytes() == got.tobytes()
        subsets = [
            np.arange(len(stack))[::-1],
            np.arange(0, len(stack), 2),
            np.sort(rng.choice(len(stack), size=5, replace=False)),
            rng.permutation(len(stack))[:7],
            *([t] for t in range(len(stack))),
        ]
        for rows in subsets:
            assert _opnorm(stack[rows]).tobytes() == got[rows].tobytes(), (n, rows)
    assert _opnorm(np.zeros((4, 0, 0))).tolist() == [0.0] * 4
    assert spectral_norm(np.zeros((0, 0))) == 0.0


def _max_opnorm(x: np.ndarray) -> float:
    """The largest norm as ``verify`` takes it: the SVD of the largest HS norm is the screen's floor."""
    return _screened_opnorm(x, _opnorm(x[np.argmax(_row_norms(_rows(x)))])).max()


def _assert_screened(x: np.ndarray, floor: float) -> np.ndarray:
    """``_screened_opnorm(x, floor)``: every norm at or above floor exact, every other one exact or 0.0."""
    got, ref = _screened_opnorm(x, floor), _opnorm(x)
    assert got.shape == ref.shape
    reached = ref >= floor
    assert got[reached].tobytes() == ref[reached].tobytes()
    assert np.all((got[~reached] == 0.0) | (got[~reached] == ref[~reached]))
    return got


@pytest.mark.parametrize("n", [1, 2, 3, 6, 12])
def test_screened_opnorm_is_exact_wherever_a_norm_reaches_the_floor(n):
    rng = np.random.default_rng(500 + n)
    # norms spread over many decades, so the screen skips some and keeps others
    scales = 10.0 ** rng.uniform(-12, 3, size=40)
    x = scales[:, None, None] * np.stack([m for _ in range(10) for m in _norm_fixtures(n, rng)])
    ref = _opnorm(x)
    for floor in (0.0, *np.sort(ref)[::7], ref.max(), 2 * ref.max()):
        got = _assert_screened(x, floor)
        assert got[ref < floor / 2].tolist() == [0.0] * int(np.sum(ref < floor / 2))
    assert _screened_opnorm(x.reshape(4, 10, n, n), ref[3]).tobytes() == _screened_opnorm(x, ref[3]).tobytes()
    assert _max_opnorm(x).hex() == ref.max().hex()
    for t in range(len(x)):
        assert _max_opnorm(x[t : t + 1]).hex() == ref[t].hex()


@pytest.mark.parametrize("n", range(1, 13))
def test_screened_opnorm_keeps_rank_one_matrices_at_their_own_norm(n):
    # a rank-1 matrix has operator norm equal to its HS norm, so only the slack keeps it when the floor is its norm
    rng = np.random.default_rng(600 + n)
    u = rng.standard_normal((30, n)) + 1j * rng.standard_normal((30, n))
    v = rng.standard_normal((30, n)) + 1j * rng.standard_normal((30, n))
    x = u[:, :, None] * v[:, None, :].conj()
    ref = _opnorm(x)
    for t in range(len(x)):
        assert _screened_opnorm(x, ref[t])[t].hex() == ref[t].hex()
    assert _max_opnorm(x).hex() == ref.max().hex()
    # just above the slack the screen drops every matrix
    hs = np.sqrt(np.sum(np.abs(x) ** 2, axis=(1, 2)))
    assert _screened_opnorm(x, hs.max() * (1 + 3 * _NORM_SLACK)).tolist() == [0.0] * len(x)


def test_screened_opnorm_of_zero_and_empty_stacks():
    zeros = np.zeros((5, 3, 3), dtype=complex)
    for floor in (0.0, 1e-300, 1.0):
        assert _screened_opnorm(zeros, floor).tolist() == [0.0] * 5
    assert _max_opnorm(zeros) == 0.0
    assert _screened_opnorm(np.zeros((0, 3, 3), dtype=complex), 1.0).shape == (0,)
    assert _screened_opnorm(np.zeros((4, 0, 0), dtype=complex), 1.0).tolist() == [0.0] * 4


def test_screened_opnorm_at_a_floor_equal_to_a_norm():
    x = np.stack([random_hermitian(4, seed=s) for s in range(12)]).astype(complex)
    ref = _opnorm(x)
    for t in range(len(x)):
        got = _assert_screened(x, ref[t])
        assert got[t].hex() == ref[t].hex()
        assert got[ref == ref[t]].tobytes() == ref[ref == ref[t]].tobytes()


def test_screened_opnorm_below_the_squares_floor_takes_every_svd():
    # squares of 1e-170 underflow, so an HS norm there bounds nothing: the whole stack takes its SVD
    x = 1e-170 * np.stack([random_hermitian(3, seed=s) for s in range(4)]).astype(complex)
    ref = _opnorm(x)
    assert ref.min() > 0.0
    assert _screened_opnorm(x, ref.max()).tobytes() == ref.tobytes()
    assert _max_opnorm(x).hex() == ref.max().hex()


def _outcome(f, *args):
    try:
        return "value", np.asarray(f(*args)).tobytes()
    except Exception as exc:  # the kind of failure is what is compared
        return "raised", type(exc)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.inf)])
def test_screened_opnorm_of_a_non_finite_matrix_takes_the_whole_stack(bad, monkeypatch):
    x = np.stack([random_hermitian(3, seed=s) for s in range(6)]).astype(complex)
    x[2, 0, 1] = bad
    whole = _outcome(_opnorm, x)
    calls = []

    def counted(m):
        calls.append(m.shape)
        return _opnorm(m)

    monkeypatch.setattr(ljlab.linalg, "_opnorm", counted)
    for floor in (0.0, 1e300):
        calls.clear()
        assert _outcome(_screened_opnorm, x, floor) == whole
        assert calls == [x.shape]
    # the maximum propagates the NaN, or raises as the whole-stack SVD does
    got = _outcome(_max_opnorm, x)
    ref = _outcome(lambda m: _opnorm(m).max(), x)
    assert got == ref
    if ref[0] == "value":
        assert np.isnan(np.frombuffer(ref[1])[0])


def test_threshold_broadcasts_over_scales():
    tol = Tolerance(zero_tol=1e-9)
    scales = np.array([0.0, 0.5, 1.0, 3.0, 1e6, np.nan])
    got = tol.threshold(scales)
    assert got.tolist() == [tol.threshold(float(s)) for s in scales]
    assert type(tol.threshold(3.0)) is float
    # a NaN scale falls back to the floor, as the builtin max did
    assert tol.threshold(np.nan) == 1e-9


#: Seeds on each side of the 32-bit entropy word boundaries (1 to 4 words, where
#: the pool is zero padded; 5 and more, where each word takes a mixing round),
#: and numpy integers, which seed by value.
STREAM_SEEDS = [
    0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**96 + 3, 2**128 - 1, 2**128, 2**160 + 5, 3**200,
    np.int64(5), np.uint64(2**64 - 1), np.uint8(7),
]


def _assert_default_rng_streams(rngs: list[np.random.Generator], seed: int, start: int) -> None:
    for t, rng in enumerate(rngs, start):
        ref = np.random.default_rng(derive_seed(seed, t))
        assert rng.bit_generator.state == ref.bit_generator.state, (seed, t)
        assert rng.standard_normal().hex() == ref.standard_normal().hex(), (seed, t)


@pytest.mark.parametrize("seed", STREAM_SEEDS, ids=repr)
def test_trial_streams_are_default_rng_streams_bit_for_bit(seed):
    (rngs,) = _trial_rngs(seed, 0, 6)
    assert len(rngs) == 6
    _assert_default_rng_streams(rngs, seed, 0)


@pytest.mark.parametrize("seed", STREAM_SEEDS, ids=repr)
def test_pcg64_seed_words_are_seed_sequence_words(seed):
    seed = int(seed)
    for start in (0, 2**32 - 3, 2**128 - 2):
        words = _pcg64_seed_words(seed, start, start + 5)
        assert words.dtype == np.uint64 and words.flags.c_contiguous
        for t, row in enumerate(words, start):
            ref = np.random.SeedSequence(seed ^ t).generate_state(4, np.uint64)
            assert row.tolist() == ref.tolist(), (seed, t)


@pytest.mark.parametrize(
    "seed, start, stop, chunk",
    [
        (0, 0, 1, 1),  # a one-trial chunk
        (3, 5, 6, 1024),  # one trial at an offset
        (7, 0, 14, 7),  # two full chunks
        (7, 3, 18, 7),  # a chunk edge inside the range, a partial last chunk
        (2**64 + 9, 1000, 1041, 20),
        (0, 2**32 - 3, 2**32 + 3, 4),  # seeds of 1 and 2 words in one chunk
        (0, 2**128 - 3, 2**128 + 3, 1024),  # 4 and 5 words: the mixing round for some seeds of a chunk
        (2**160 + 5, 2**160, 2**160 + 8, 1024),  # the seeds 0..7, from a 6-word seed and start
        (3**200, 12, 15, 2),
    ],
)
def test_trial_streams_over_offsets_and_chunk_edges(seed, start, stop, chunk):
    chunks = list(_trial_rngs(seed, start, stop, chunk))
    assert [len(c) for c in chunks] == [min(chunk, stop - lo) for lo in range(start, stop, chunk)]
    _assert_default_rng_streams([rng for c in chunks for rng in c], seed, start)
