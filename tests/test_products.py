from __future__ import annotations

import numpy as np
import pytest

from helpers import (
    AVR_B,
    I2,
    LOOP_CHECKERS,
    P0,
    SX,
    SY,
    SZ,
    block_algebra,
    commutative_algebra,
    loop_jordan_commute,
)
from ljlab import (
    DimensionMismatch,
    NotInSpan,
    Tolerance,
    ValidationError,
    associator,
    associator_witness,
    check_associator_identity,
    check_jacobi,
    check_leibniz,
    check_norm_axioms,
    check_weak_associativity,
    full_hermitian_space,
    hs_inner,
    is_hermitian,
    jordan,
    jordan_commute,
    jordan_generate_three,
    lie,
    lie_generate,
    random_hermitian,
    recover_associative,
    span,
)
from ljlab.linalg import _opnorm
from ljlab.products import _IDENTITIES, _Products, _residual_and_scale


def test_jordan_pauli_fixtures():
    # Pauli matrices anticommute pairwise and square to the identity
    np.testing.assert_allclose(jordan(SX, SY), np.zeros((2, 2)), atol=1e-15)
    np.testing.assert_allclose(jordan(SX, SX), I2, atol=1e-15)
    np.testing.assert_allclose(jordan(SZ, I2), SZ, atol=1e-15)


def test_jordan_projection_fixture():
    expected = 0.25 * np.array([[2, 1], [1, 0]], dtype=complex)
    np.testing.assert_allclose(jordan(P0, AVR_B), expected, atol=1e-15)


def test_lie_pauli_fixtures():
    # with the i/2 factor, [sx, sy] = -sz cyclically
    np.testing.assert_allclose(lie(SX, SY), -SZ, atol=1e-15)
    np.testing.assert_allclose(lie(SY, SZ), -SX, atol=1e-15)
    np.testing.assert_allclose(lie(SZ, SX), -SY, atol=1e-15)


def test_lie_of_commuting_matrices_vanishes():
    a = np.diag([1.0, 2.0]).astype(complex)
    b = np.diag([3.0, 4.0]).astype(complex)
    np.testing.assert_allclose(lie(a, b), np.zeros((2, 2)), atol=1e-15)


def test_products_are_hermitian_and_symmetric():
    for i in range(100):
        a = random_hermitian(3, seed=2 * i)
        b = random_hermitian(3, seed=2 * i + 1)
        assert is_hermitian(jordan(a, b))
        assert is_hermitian(lie(a, b))
        np.testing.assert_allclose(jordan(a, b), jordan(b, a), atol=1e-12)
        np.testing.assert_allclose(lie(a, b), -lie(b, a), atol=1e-12)


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda x, y: jordan(x, y), id="jordan"),
        pytest.param(lambda x, y: lie(x, y), id="lie"),
        pytest.param(lambda x, y: associator(x, x, y), id="associator"),
        pytest.param(lambda x, y: recover_associative(x, y), id="recover_associative"),
        pytest.param(lambda x, y: hs_inner(x, y), id="hs_inner"),
        pytest.param(lambda x, y: check_jacobi(x, x, y), id="check_jacobi"),
        pytest.param(lambda x, y: check_leibniz(x, x, y), id="check_leibniz"),
        pytest.param(lambda x, y: check_associator_identity(x, x, y), id="check_associator_identity"),
        pytest.param(lambda x, y: check_weak_associativity(x, y), id="check_weak_associativity"),
        pytest.param(lambda x, y: check_norm_axioms(x, y), id="check_norm_axioms"),
        pytest.param(lambda x, y: jordan_commute(x, y, full_hermitian_space(2)), id="jordan_commute"),
        pytest.param(lambda x, y: associator_witness(x, x, y), id="associator_witness"),
        pytest.param(lambda x, y: lie_generate(x, y), id="lie_generate"),
        pytest.param(lambda x, y: jordan_generate_three(x, y), id="jordan_generate_three"),
        pytest.param(lambda x, y: span([x, y]), id="span"),
    ],
)
def test_every_public_callable_of_several_matrices_rejects_two_sizes(call):
    """A 2 x 2 and a 3 x 3 operand, in either order, raise DimensionMismatch, never numpy's own error."""
    for x, y in ((SX, np.eye(3)), (np.eye(3), SX)):
        with pytest.raises(DimensionMismatch):
            call(x, y)


def test_associator_pauli_fixture():
    # (sz o sx) o sx - sz o (sx o sx) = -sz, worked out by hand
    np.testing.assert_allclose(associator(SZ, SX, SX), -SZ, atol=1e-15)
    # commuting diagonal triple associates
    d = [np.diag(v).astype(complex) for v in ([1, 2], [3, 4], [5, 6])]
    np.testing.assert_allclose(associator(*d), np.zeros((2, 2)), atol=1e-15)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "fn, arity, huge, message",
    [
        (jordan, 2, 1e200, "at most 1e\\+150"),
        (lie, 2, 1e200, "at most 1e\\+150"),
        (recover_associative, 2, 1e200, "at most 1e\\+150"),
        # cubic in the entries: it overflows below the entry limit
        (associator, 3, 1e150, "associator overflows"),
    ],
    ids=["jordan", "lie", "recover_associative", "associator"],
)
def test_public_products_reject_non_finite_and_overflowing_input(fn, arity, huge, message):
    # every warning is an error here: a matmul warning, or a silent NaN, fails the test
    good = [random_hermitian(3, seed=k) for k in range(arity)]
    cases = [("must be finite", k, bad) for k in range(arity) for bad in (np.nan, np.inf)]
    for match, slot, bad in [*cases, (message, None, None)]:
        operands = [huge * x for x in good]  # the overflow case scales every operand
        if slot is not None:
            operands = list(good)
            operands[slot] = random_hermitian(3, seed=9)
            operands[slot][0, 2] = operands[slot][2, 0] = bad
        with pytest.raises(ValidationError, match=match):
            fn(*operands)
        # a stack is checked the same way
        with pytest.raises(ValidationError, match=match):
            fn(*(np.stack([x, x]) for x in operands))
    # far below the overflow the same call answers
    assert np.isfinite(fn(*(1e60 * x for x in good))).all()


def test_recover_associative_matches_matmul():
    np.testing.assert_allclose(recover_associative(SX, SY), SX @ SY, atol=1e-15)
    for n in (2, 3, 4, 5):
        for i in range(50):
            a = random_hermitian(n, seed=1000 * n + 2 * i)
            b = random_hermitian(n, seed=1000 * n + 2 * i + 1)
            direct = a @ b
            scale = max(1.0, float(np.linalg.norm(direct, 2)))
            assert np.linalg.norm(recover_associative(a, b) - direct, 2) <= 1e-12 * scale


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_identity_checkers_pass_on_random_tuples(n):
    for i in range(60):
        rng = np.random.default_rng(10_000 * n + i)
        g = rng.standard_normal((3, n, n)) + 1j * rng.standard_normal((3, n, n))
        a, b, c = (0.5 * (m + m.conj().T) for m in g)
        assert check_jacobi(a, b, c).passed
        assert check_leibniz(a, b, c).passed
        assert check_associator_identity(a, b, c).passed
        assert check_weak_associativity(a, b).passed
        assert check_norm_axioms(a, b).passed


def test_checkers_scale_with_operand_norms():
    a = 1e6 * random_hermitian(3, seed=5)
    b = 1e6 * random_hermitian(3, seed=6)
    c = 1e6 * random_hermitian(3, seed=7)
    rep = check_jacobi(a, b, c)
    assert rep.passed
    assert rep.threshold >= 1e-9 * 1e18 * 0.001  # scaled by the norm product


def test_checker_reports_carry_names_and_residuals():
    rep = check_leibniz(SX, SY, SZ)
    assert rep.name == "leibniz"
    assert rep.residual <= rep.threshold
    rep = check_norm_axioms(SX, SY)
    assert rep.name == "norm-axioms"
    # Pauli fixture: ||sx o sy|| = 0 with slack 1, square identity exact
    assert rep.residual <= 0.0
    assert rep.passed


def test_weak_associativity_pauli_fixture():
    # sx^2 = I makes both sides equal sy exactly
    rep = check_weak_associativity(SX, SY)
    assert rep.residual == pytest.approx(0.0, abs=1e-15)


def test_jordan_commute_matches_bracket_vanishing():
    ambient = full_hermitian_space(2)
    a = np.diag([1.0, 2.0]).astype(complex)
    b = np.diag([3.0, -1.0]).astype(complex)
    assert jordan_commute(a, b, ambient)
    assert not jordan_commute(SX, SZ, ambient)
    # a and its square always Jordan-commute
    m = random_hermitian(2, seed=77)
    assert jordan_commute(m, m @ m, ambient)


def test_jordan_commute_random_agreement():
    ambient = full_hermitian_space(3)
    tol = Tolerance()
    for i in range(50):
        a = random_hermitian(3, seed=3 * i)
        b = random_hermitian(3, seed=3 * i + 1)
        bracket_zero = np.linalg.norm(lie(a, b), 2) <= tol.threshold(
            np.linalg.norm(a, 2) * np.linalg.norm(b, 2)
        )
        assert jordan_commute(a, b, ambient) == bracket_zero


def test_jordan_commute_verdicts_equal_the_per_basis_loop():
    ambients = [full_hermitian_space(n) for n in (1, 2, 3, 4)]
    ambients += [block_algebra((2, 1)), block_algebra((2, 2)), commutative_algebra(3, seed=4)]
    verdicts = []
    for k, ambient in enumerate(ambients):
        rng = np.random.default_rng(500 + k)
        e, r = ambient._stacked, ambient.dim_span
        a = np.tensordot(rng.standard_normal(r), e, axes=1)
        h = np.tensordot(rng.standard_normal(r), e, axes=1)
        pairs = [(a, h), (a, a @ a), (h, 3.0 * h)]
        # a Jordan-closed ambient holds a o a; the bracket with it sweeps across the threshold
        pairs += [(a, jordan(a, a) + t * h) for t in np.logspace(-13, -5, 17)]
        for x, y in pairs:
            if not ambient.contains(y):
                continue
            got = jordan_commute(x, y, ambient)
            assert got == loop_jordan_commute(x, y, ambient)
            verdicts.append(got)
    assert verdicts.count(True) >= 20 and verdicts.count(False) >= 20
    # the zero subspace: an empty stack of defects
    z = np.zeros((2, 2), dtype=complex)
    assert jordan_commute(z, z, span([z]))
    assert loop_jordan_commute(z, z, span([z]))


def test_jordan_commute_errors():
    small = span([SZ])
    with pytest.raises(NotInSpan):
        jordan_commute(SX, SZ, small)
    with pytest.raises(DimensionMismatch):
        jordan_commute(SX, SZ, full_hermitian_space(3))


def _stack(n: int, count: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n))
    return 0.5 * (g + g.conj().transpose(0, 2, 1))


@pytest.mark.parametrize("n", range(1, 7))
def test_stacked_products_equal_per_slice_calls_bit_for_bit(n):
    a, b, c = (_stack(n, 9, 40 * n + k) for k in range(3))
    for fn, operands in ((jordan, (a, b)), (lie, (a, b)), (associator, (a, b, c))):
        got = fn(*operands)
        assert got.shape == a.shape
        ref = np.stack([fn(*(m[t] for m in operands)) for t in range(len(a))])
        assert got.tobytes() == ref.tobytes(), fn.__name__
        # a single matrix broadcasts against a stack, and leading axes nest
        mixed = fn(operands[0][0], *operands[1:])
        ref = np.stack([fn(operands[0][0], *(m[t] for m in operands[1:])) for t in range(len(a))])
        assert mixed.tobytes() == ref.tobytes(), fn.__name__
        nested = fn(*(m.reshape(3, 3, n, n) for m in operands))
        assert nested.tobytes() == got.tobytes(), fn.__name__


@pytest.mark.parametrize(
    "x, y",
    [
        (np.zeros((2, 3)), np.zeros((2, 2))),
        (np.zeros((4, 2, 3)), np.zeros((4, 2, 2))),
        (np.zeros(4), np.zeros((2, 2))),
        (np.zeros((4, 2, 2)), np.zeros((4, 3, 3))),
        (np.zeros((4, 2, 2)), np.zeros((3, 2, 2))),
    ],
    ids=["non-square", "non-square-stack", "vector", "mismatched-n", "mismatched-stacks"],
)
def test_products_reject_non_square_and_mismatched_stacks(x, y):
    for fn in (jordan, lie):
        with pytest.raises(DimensionMismatch):
            fn(x, y)
        with pytest.raises(DimensionMismatch):
            fn(y, x)
    with pytest.raises(DimensionMismatch):
        associator(x, y, y)


def test_checkers_keep_their_single_matrix_contract():
    stack = _stack(2, 3, 0)
    for fn in (check_jacobi, check_leibniz, check_associator_identity):
        with pytest.raises(DimensionMismatch):
            fn(stack, stack, stack)
    for fn in (check_weak_associativity, check_norm_axioms):
        with pytest.raises(DimensionMismatch):
            fn(stack, stack)
        rep = fn(stack[0], stack[1])
        assert type(rep.residual) is float and type(rep.threshold) is float


@pytest.mark.parametrize("n", range(1, 7))
def test_stacked_identity_defects_and_scales_equal_per_slice_calls(n):
    a, b, c = (_stack(n, 25, 70 * n + k) for k in range(3))
    for row, (_, _, _, arity) in enumerate(_IDENTITIES):
        operands = (a, b, c)[:arity]
        norms = [_opnorm(m) for m in operands]
        residual, scale = _residual_and_scale(row, operands, norms)
        per_slice = [
            _residual_and_scale(row, [m[t] for m in operands], [_opnorm(m[t]) for m in operands])
            for t in range(len(a))
        ]
        assert residual.tobytes() == np.array([r for r, _ in per_slice]).tobytes()
        assert scale.tobytes() == np.array([s for _, s in per_slice]).tobytes()


class _Matmuls(np.ndarray):
    """An array that counts the matmuls taken of it, and of every array computed from it."""

    count = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            _Matmuls.count += 1
        out = getattr(ufunc, method)(*(np.asarray(x) for x in inputs), **kwargs)
        return out.view(_Matmuls) if isinstance(out, np.ndarray) else out


@pytest.mark.parametrize("n", [1, 2, 6])
def test_one_stack_forms_each_matrix_product_of_the_five_identities_once(n):
    # written out, the five formulas take 52 matmuls of 26 distinct ordered operand pairs:
    # ab, ba, bc, cb, ca, ac, aa, bb, and 18 products of their Jordan and Lie products
    a, b, c = (_stack(n, 25, 30 * n + k) for k in range(3))
    p = _Products(*(m.view(_Matmuls) for m in (a, b, c)))
    _Matmuls.count = 0
    for _, formula, scale, _ in _IDENTITIES:
        if scale is None:
            formula(p, _opnorm(a), _opnorm(b))
        else:
            formula(p)
    assert _Matmuls.count == 26  # at most 32, the operand products alone formed once
    # a second pass over the same stack forms nothing new
    for _, formula, scale, _ in _IDENTITIES[:4]:
        formula(p)
    assert _Matmuls.count == 26


def test_checkers_equal_their_per_matrix_reference_bit_for_bit():
    public = {
        "jacobi": check_jacobi,
        "leibniz": check_leibniz,
        "associator-identity": check_associator_identity,
        "weak-associativity": check_weak_associativity,
        "norm-axioms": check_norm_axioms,
    }
    for n in range(1, 7):
        a, b, c = (_stack(n, 25, 90 * n + k) for k in range(3))
        for t in range(25):
            for name, reference, arity in LOOP_CHECKERS:
                operands = (a[t], b[t], c[t])[:arity]
                got, ref = public[name](*operands), reference(*operands)
                assert got.name == ref.name
                assert (got.residual.hex(), got.threshold.hex()) == (ref.residual.hex(), ref.threshold.hex()), (name, n, t)
                assert got.passed is ref.passed
