"""Release gate: ten end-to-end checks at pinned tolerances.

Each test prints a single "ACCEPTANCE k: PASS/FAIL ..." line (visible under
pytest -s) and asserts the verdict. Tolerances and trial counts here are
fixed contracts; do not loosen them to make a failure go away.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from helpers import AVR_B, P0, commutative_algebra, block_2_1_algebra
from ljlab import (
    DEFAULT_TOL,
    NotAssociative,
    State,
    associator_defect,
    avr_witness_search,
    check_associator_identity,
    check_jacobi,
    check_leibniz,
    check_norm_axioms,
    check_weak_associativity,
    classify,
    derive_seed,
    full_hermitian_space,
    is_classical_associator,
    is_classical_center,
    is_classical_commutator,
    is_commutative,
    is_jordan_associative,
    jordan,
    jordan_commute,
    jordan_generate_three,
    lie,
    lie_generate,
    min_eigenvalue,
    random_hermitian,
    random_state,
    recover_associative,
    spectral_norm,
    traceless,
)
from ljlab import derived_algebra, function_representation
from ljlab.jsonio import matrix_to_json, subspace_to_json


def _line(k: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {k}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {k} failed: {detail}"


def _rand_triple(n: int, seed: int) -> tuple[np.ndarray, ...]:
    return tuple(random_hermitian(n, derive_seed(seed, j)) for j in range(3))


def test_acceptance_01_identity_suite():
    checkers3 = (check_jacobi, check_leibniz, check_associator_identity)
    checkers2 = (check_weak_associativity, check_norm_axioms)
    worst = 0.0
    ok = True
    start = time.perf_counter()
    idx = 0
    for n in (2, 3, 4, 5, 6):
        for _ in range(1000):
            a, b, c = _rand_triple(n, derive_seed(101, idx))
            idx += 1
            for fn in checkers3:
                rep = fn(a, b, c)
                worst = max(worst, rep.residual / max(rep.threshold / DEFAULT_TOL.zero_tol, 1.0))
                ok = ok and rep.passed
            for fn in checkers2:
                rep = fn(a, b)
                worst = max(worst, rep.residual / max(rep.threshold / DEFAULT_TOL.zero_tol, 1.0))
                ok = ok and rep.passed
    dt = time.perf_counter() - start
    ok = ok and dt < 30.0
    _line(1, ok, f"5 identities x 1000 tuples x n=2..6, worst relative residual {worst:.3e}, {dt:.1f}s")


def test_acceptance_02_recover_associative():
    worst = 0.0
    for n in (2, 3, 4, 5, 6):
        for t in range(1000):
            rng_seed = derive_seed(202, n * 10000 + t)
            a = random_hermitian(n, rng_seed)
            b = random_hermitian(n, derive_seed(rng_seed, 1))
            direct = a @ b
            rel = spectral_norm(recover_associative(a, b) - direct) / spectral_norm(direct)
            worst = max(worst, rel)
    ok = worst <= 1e-12
    _line(2, ok, f"product recovery on 1000 pairs x n=2..6, worst relative error {worst:.3e}")


def test_acceptance_03_commutative_biconditional():
    ok = True
    for k in range(50):
        L = commutative_algebra(2 + k % 3, seed=300 + k)
        ok = ok and is_commutative(L) and is_jordan_associative(L)
    cert_ok = True
    for n in (2, 3, 4):
        full = full_hermitian_space(n)
        both_false = (not is_commutative(full)) and (not is_jordan_associative(full))
        defect, arg = associator_defect(full)
        replay = 0.0
        if arg is not None:
            i, j, k = arg
            E = full.basis
            replay = spectral_norm(
                jordan(jordan(E[i], E[j]), E[k]) - jordan(E[i], jordan(E[j], E[k]))
            )
        cert_ok = cert_ok and both_false and arg is not None and replay > 1e-3
    ok = ok and cert_ok
    _line(3, ok, "50 commutative subalgebras (true,true); full algebra (false,false) with associator certificate, n=2..4")


def test_acceptance_04_classicality_equivalence():
    disagreements = 0
    drift = 0.0
    for n in (2, 3, 4):
        full = full_hermitian_space(n)
        dfull = derived_algebra(full)
        for t in range(500):
            s = random_state(n, derive_seed(404, n * 1000 + t))
            flags = (
                is_classical_associator(s, full).classical,
                is_classical_commutator(s, full).classical,
                is_classical_center(s, full).classical,
            )
            if len(set(flags)) > 1:
                disagreements += 1
            elif flags[0]:
                drift = max(drift, spectral_norm(s.rho - np.eye(n) / n))
        # the maximally mixed state exercises the classical branch explicitly
        mixed = State(np.eye(n, dtype=complex) / n)
        v = classify(mixed, full)
        if not v.classical:
            disagreements += 1
        drift = max(drift, spectral_norm(mixed.rho - np.eye(n) / n))
    ok = disagreements == 0 and drift <= 1e-6
    _line(4, ok, f"500 states x n=2,3,4: {disagreements} criterion disagreements, classical drift {drift:.3e}")


def test_acceptance_05_block_classicality():
    L = block_2_1_algebra()
    d = derived_algebra(L)
    ok = True
    for p in (0.0, 0.25, 0.5, 0.75, 1.0):
        s = State(np.diag([p / 2, p / 2, 1 - p]).astype(complex))
        flags = [
            is_classical_associator(s, L).classical,
            is_classical_commutator(s, L).classical,
            is_classical_center(s, L).classical,
        ]
        ok = ok and all(flags)
    q = State(np.diag([0.3, 0.2, 0.5]).astype(complex))
    qflags = [
        is_classical_associator(q, L).classical,
        is_classical_commutator(q, L).classical,
        is_classical_center(q, L).classical,
    ]
    ok = ok and not any(qflags)
    _line(5, ok, "block-diag(2,1): diag(p/2,p/2,1-p) classical for 5 values of p, diag(.3,.2,.5) quantum, all criteria")


def test_acceptance_06_avr_witness():
    fixture = min_eigenvalue(jordan(P0, AVR_B))
    expected = (1.0 - math.sqrt(2.0)) / 4.0
    fixture_ok = abs(fixture - expected) <= 1e-9
    search_ok = True
    for seed in (0, 1, 2):
        rep = avr_witness_search(2, seed)
        search_ok = search_ok and rep.found and rep.violation <= -0.05
    r1 = avr_witness_search(2, 0)
    r2 = avr_witness_search(2, 0)
    det_ok = (
        r1.violation == r2.violation
        and np.array_equal(r1.witness, r2.witness)
        and all(np.array_equal(x, y) for x, y in zip(r1.inputs, r2.inputs))
    )
    ok = fixture_ok and search_ok and det_ok
    _line(6, ok, f"fixture min eig {fixture:.12f} vs (1-sqrt2)/4, search violation <= -0.05 for seeds 0..2, deterministic")


def test_acceptance_07_generation():
    start = time.perf_counter()
    ok = True
    for n in (2, 3, 4):
        for t in range(5):
            a = traceless(random_hermitian(n, derive_seed(700 + n, 2 * t)))
            b = traceless(random_hermitian(n, derive_seed(700 + n, 2 * t + 1)))
            lrep = lie_generate(a, b)
            jrep = jordan_generate_three(a, b)
            if not lrep.generated or not jrep.generated:
                # one retry with a fresh pair is allowed
                a2 = traceless(random_hermitian(n, derive_seed(800 + n, 2 * t)))
                b2 = traceless(random_hermitian(n, derive_seed(800 + n, 2 * t + 1)))
                lrep = lrep if lrep.generated else lie_generate(a2, b2)
                jrep = jrep if jrep.generated else jordan_generate_three(a2, b2)
            ok = ok and lrep.generated and lrep.closure_dim == n * n - 1
            ok = ok and jrep.generated and jrep.closure_dim == n * n
    neg = jordan_generate_three(np.diag([1.0, 2.0, 3.0]), np.diag([2.0, -1.0, 0.5]))
    negl = lie_generate(traceless(np.diag([1.0, 2.0, 3.0])), traceless(np.diag([2.0, -1.0, 0.5])))
    ok = ok and not neg.generated and not negl.generated
    dt = time.perf_counter() - start
    ok = ok and dt < 20.0
    _line(7, ok, f"bracket pairs reach n^2-1 and Jordan triples n^2 for n=2..4, commuting control fails, {dt:.1f}s")


def test_acceptance_08_jordan_commute():
    mismatches = 0
    commuting_fail = 0
    for n in (2, 3):
        full = full_hermitian_space(n)
        for t in range(500):
            a = random_hermitian(n, derive_seed(808, n * 10000 + 2 * t))
            b = random_hermitian(n, derive_seed(808, n * 10000 + 2 * t + 1))
            direct = spectral_norm(lie(a, b)) <= DEFAULT_TOL.threshold(
                spectral_norm(a) * spectral_norm(b)
            )
            if jordan_commute(a, b, full) != direct:
                mismatches += 1
        for t in range(50):
            h = random_hermitian(n, derive_seed(818, n * 100 + t))
            rng = np.random.default_rng(derive_seed(828, n * 100 + t))
            ca, cb = rng.standard_normal(3), rng.standard_normal(3)
            eye = np.eye(n, dtype=complex)
            a = ca[0] * eye + ca[1] * h + ca[2] * (h @ h)
            b = cb[0] * eye + cb[1] * h + cb[2] * (h @ h)
            direct = spectral_norm(lie(a, b)) <= DEFAULT_TOL.threshold(
                spectral_norm(a) * spectral_norm(b)
            )
            agreed = jordan_commute(a, b, full)
            if not (agreed and direct):
                commuting_fail += 1
    ok = mismatches == 0 and commuting_fail == 0
    _line(8, ok, f"500 random + 50 polynomial pairs x n=2,3: {mismatches} disagreements, {commuting_fail} commuting misses")


def test_acceptance_09_function_representation():
    worst_recon = 0.0
    worst_hom = 0.0
    for n in (2, 3, 4):
        for k in range(20):
            L = commutative_algebra(n, seed=900 + 37 * n + k)
            fr = function_representation(L)
            for i, m in enumerate(L.basis):
                worst_recon = max(worst_recon, spectral_norm(fr.reconstruct(i) - m))
            for i, x in enumerate(L.basis):
                fx = fr.evaluate(x)
                for y in L.basis[i:]:
                    res = fr.evaluate(jordan(x, y)) - fx * fr.evaluate(y)
                    worst_hom = max(worst_hom, float(np.max(np.abs(res))))
    rejected = False
    try:
        function_representation(full_hermitian_space(2))
    except NotAssociative:
        rejected = True
    ok = worst_recon <= 1e-8 and worst_hom <= 1e-8 and rejected
    _line(9, ok, f"20 commutative algebras x n=2..4: reconstruction {worst_recon:.3e}, homomorphism {worst_hom:.3e}, full algebra rejected")


def test_acceptance_10_cli_determinism(tmp_path):
    state_path = tmp_path / "state.json"
    state_path.write_text(json.dumps(matrix_to_json(np.eye(2, dtype=complex) / 2)))
    alg_path = tmp_path / "alg.json"
    diag = [np.diag(np.eye(3)[k]).astype(complex) for k in range(3)]
    alg_path.write_text(json.dumps(subspace_to_json(3, diag)))
    commands = [
        ("verify", "--dim", "2", "--trials", "40", "--seed", "3"),
        ("classify", "--in", str(state_path), "--seed", "1"),
        ("witness", "--kind", "avr", "--dim", "2", "--seed", "3", "--budget", "120"),
        ("generate", "--mode", "lie2", "--dim", "3", "--trials", "2", "--seed", "5"),
        ("repr", "--algebra", str(alg_path)),
    ]
    ok = True
    for cmd in commands:
        runs = [
            subprocess.run(
                [sys.executable, "-m", "ljlab", *cmd],
                capture_output=True,
                env=dict(os.environ),
            )
            for _ in range(2)
        ]
        ok = ok and runs[0].returncode == runs[1].returncode == 0
        ok = ok and runs[0].stdout == runs[1].stdout and runs[0].stdout
        ok = ok and json.loads(runs[0].stdout)  # parses as JSON
    _line(10, bool(ok), "all five CLI commands byte-identical across repeat runs")


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-v", "-s"]))
