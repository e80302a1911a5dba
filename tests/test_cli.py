from __future__ import annotations

import ast
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import DISAGREEMENTS, SX, SY, disagreement_message, loop_verify_checks, split_state
from ljlab import __version__, cli, full_hermitian_basis, full_hermitian_space, linalg, products, random_state
from ljlab import states as states_mod
from ljlab.cli import SWEEP_DIMS, SessionConfig, build_parser, cmd_verify, main
from ljlab.jsonio import matrix_to_json, subspace_to_json
from ljlab.linalg import _STACK_BYTES, _TRIAL_CHUNK, DEFAULT_TOL, Tolerance, derive_seed, random_hermitian, traceless


def run_cli(*args: str, env: dict | None = None) -> subprocess.CompletedProcess:
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run(
        [sys.executable, "-m", "ljlab", *args],
        capture_output=True,
        text=True,
        env=full_env,
    )


def write_json(path, payload) -> str:
    path.write_text(json.dumps(payload))
    return str(path)


def mixed_state_payload(n: int) -> dict:
    return matrix_to_json(np.eye(n) / n)


def diag_algebra_payload(n: int) -> dict:
    mats = [np.diag(np.eye(n)[k]).astype(complex) for k in range(n)]
    return subspace_to_json(n, mats)


# ---------------------------------------------------------------- verify


def test_verify_passes_and_exits_zero():
    res = run_cli("verify", "--dim", "2", "--trials", "25", "--seed", "1")
    assert res.returncode == 0
    rep = json.loads(res.stdout)
    assert rep["command"] == "verify"
    assert rep["summary"]["all_passed"] is True
    assert len(rep["checks"]) == 5
    assert all(c["passed"] for c in rep["checks"])


def test_verify_sweeps_dims_when_unset():
    res = run_cli("verify", "--trials", "2", "--seed", "0")
    assert res.returncode == 0
    rep = json.loads(res.stdout)
    assert rep["summary"]["dims"] == [2, 3, 4, 5, 6]
    assert len(rep["checks"]) == 25


def _fields(checks: list[dict]) -> list[tuple]:
    # max_residual by its bits, and the exact types json.dumps will see
    return [
        (c["name"], c["dim"], type(c["max_residual"]), c["max_residual"].hex(), type(c["passed"]), c["passed"])
        for c in checks
    ]


@pytest.mark.parametrize("tol", [DEFAULT_TOL, Tolerance(zero_tol=1e-18)], ids=["default", "tiny"])
@pytest.mark.parametrize("dim", [None, 1, 2, 3, 4, 5, 6])
def test_verify_report_equals_per_trial_loop_bit_for_bit(dim, tol):
    # both paths run here, on this BLAS: recorded bytes would not carry over
    dims = SWEEP_DIMS if dim is None else (dim,)
    failed = 0
    for trials in (1, 2, 25):
        for seed in (0, 7, 2**40 + 3):
            cfg = SessionConfig(command="verify", dim=dim, trials=trials, seed=seed, tol=tol)
            checks, _, all_passed = cmd_verify(cfg)
            ref = loop_verify_checks(dims, trials, seed, tol)
            assert _fields(checks) == _fields(ref), (trials, seed)
            assert all_passed == all(c["passed"] for c in ref)
            failed += sum(not c["passed"] for c in ref)
    if tol.zero_tol < 1e-17 and dim != 1:
        assert failed > 0  # the tiny tolerance really runs the failing branches


@pytest.mark.parametrize(
    "tol",
    [DEFAULT_TOL, Tolerance(zero_tol=1e-16), Tolerance(zero_tol=1e-18)],
    ids=["default", "mixed", "tiny"],
)
def test_verify_across_a_trial_chunk_boundary_equals_per_trial_loop_bit_for_bit(tol):
    # the trials run in chunks of _TRIAL_CHUNK: maxima and verdicts combine
    # across them; at 1e-16 some identities fail in the first chunk only
    trials = _TRIAL_CHUNK + 3
    cfg = SessionConfig(command="verify", dim=2, trials=trials, seed=5, tol=tol)
    checks, _, all_passed = cmd_verify(cfg)
    ref = loop_verify_checks((2,), trials, 5, tol)
    assert _fields(checks) == _fields(ref)
    assert all_passed == all(c["passed"] for c in ref)


def test_verify_across_an_operand_stack_boundary_equals_per_trial_loop_bit_for_bit(monkeypatch):
    # at n = 6 a stack holds _STACK_BYTES // 576 = 227 trials, so 230 trials take two stacks,
    # and no operand of a stack exceeds the byte bound that keeps the evaluator's memory small
    stacks = []

    class Recorded(products._Products):
        def __init__(self, *operands):
            stacks.append(operands[0].nbytes)
            super().__init__(*operands)

    monkeypatch.setattr(products, "_Products", Recorded)
    checks, _, all_passed = cmd_verify(SessionConfig(command="verify", dim=6, trials=230, seed=5))
    assert len(stacks) == 2 and max(stacks) <= _STACK_BYTES
    ref = loop_verify_checks((6,), 230, 5)
    assert _fields(checks) == _fields(ref)
    assert all_passed == all(c["passed"] for c in ref)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_verify_with_a_non_finite_defect_fails_as_the_whole_stack_svd_does(bad, monkeypatch):
    # the screen must not hide a non-finite defect: the maximum is NaN and the check fails, or the
    # SVD raises, as it does on the whole stack (LAPACK may reject a NaN matrix outright)
    def poisoned(p):
        d = products._jacobi(p)
        d[1, 0, 0] = bad
        return d

    monkeypatch.setattr(products, "_IDENTITIES", (("jacobi", poisoned, products._product_scale, 3),))
    cfg = SessionConfig(command="verify", dim=3, trials=5, seed=0)
    try:
        whole = linalg._opnorm(np.full((2, 3, 3), bad, dtype=complex))
    except np.linalg.LinAlgError:
        with pytest.raises(np.linalg.LinAlgError):
            cmd_verify(cfg)
        return
    assert np.isnan(whole).all()
    checks, _, all_passed = cmd_verify(cfg)
    assert np.isnan(checks[0]["max_residual"])
    assert checks[0]["passed"] is False and all_passed is False


def test_verify_judges_a_failing_trial_below_a_passing_maximum(monkeypatch):
    # trial 0 holds the largest defect and passes at its large scale; trial 1's smaller defect fails at
    # scale 1, so the screen must keep every defect above zero_tol, not only those near the maximum
    def defects(p):
        d = np.zeros_like(p.a)
        d[0], d[1] = 1e-3 * np.eye(3), 1e-8 * np.eye(3)
        return d

    def scales(na, nb, nc):
        return np.where(np.arange(len(na)) == 0, 1e9, 1.0)  # trial 0 is always the first judged

    monkeypatch.setattr(products, "_IDENTITIES", (("jacobi", defects, scales, 3),))
    checks, _, all_passed = cmd_verify(SessionConfig(command="verify", dim=3, trials=4, seed=0))
    assert checks[0]["max_residual"] == 1e-3
    assert checks[0]["passed"] is False and all_passed is False


def test_verify_takes_an_svd_only_of_defects_that_can_reach_the_maximum(monkeypatch):
    # 4 defect identities x 25 trials: the parent took 100 defect SVDs per dimension; products' own SVDs
    # are a's and b's norms, norm-axioms' three norms a trial and the four largest HS norms' defects, so
    # no defect skips the screen
    svds = {"screened": 0, "direct": 0}
    opnorm = linalg._opnorm

    def counting(key):
        def counted(x):
            svds[key] += int(np.prod(x.shape[:-2]))
            return opnorm(x)

        return counted

    monkeypatch.setattr(linalg, "_opnorm", counting("screened"))
    monkeypatch.setattr(products, "_opnorm", counting("direct"))
    for n in SWEEP_DIMS:
        svds.update(screened=0, direct=0)
        checks, _, _ = cmd_verify(SessionConfig(command="verify", dim=n, trials=25, seed=3))
        assert all(c["passed"] for c in checks)
        assert svds["screened"] <= 40, (n, svds)
        assert svds["direct"] == 2 * 25 + 3 * 25 + 4, (n, svds)


def test_verify_rejects_zero_trials():
    res = run_cli("verify", "--trials", "0")
    assert res.returncode == 2
    assert res.stdout == ""  # no partial report
    assert "trials" in res.stderr


def test_verify_rejects_bad_tol():
    res = run_cli("verify", "--dim", "2", "--trials", "1", "--tol", "-1e-9")
    assert res.returncode == 2


@pytest.mark.parametrize("tol", ["inf", "1e400"])
def test_verify_rejects_non_finite_tol(tol):
    res = run_cli("verify", "--dim", "2", "--trials", "1", "--tol", tol)
    assert res.returncode == 2
    assert res.stdout == ""
    assert "error: tol must be positive and finite" in res.stderr
    assert "Traceback" not in res.stderr


def test_env_seed_matches_flag_seed():
    via_flag = run_cli("verify", "--dim", "2", "--trials", "10", "--seed", "5")
    via_env = run_cli("verify", "--dim", "2", "--trials", "10", env={"LJLAB_SEED": "5"})
    assert via_flag.returncode == via_env.returncode == 0
    assert via_flag.stdout == via_env.stdout
    bad_env = run_cli("verify", "--dim", "2", "--trials", "10", env={"LJLAB_SEED": "zzz"})
    assert bad_env.returncode == 2


@pytest.mark.parametrize("argv, env", [(["--seed", "-1"], None), ([], {"LJLAB_SEED": "-3"})], ids=["flag", "env"])
def test_verify_rejects_a_negative_seed_by_the_seed_rule(argv, env):
    res = run_cli("verify", "--dim", "2", "--trials", "3", *argv, env=env)
    assert res.returncode == 2
    assert res.stdout == ""
    assert "error: seed must be a non-negative integer" in res.stderr


def test_verify_seeds_at_and_above_2_to_the_64_do_not_alias(fresh_parser):
    outs = {}
    for seed in (0, 1, 2**64, 2**64 + 1):
        code, out = _main_output(["verify", "--dim", "2", "--trials", "3", "--seed", str(seed)])
        assert code == 0
        outs[seed] = json.loads(out)["checks"]
    assert outs[2**64] != outs[0] and outs[2**64 + 1] != outs[1] and outs[2**64] != outs[2**64 + 1]


# ---------------------------------------------------------------- classify


def test_classify_mixed_state_is_classical(tmp_path):
    path = write_json(tmp_path / "state.json", mixed_state_payload(2))
    res = run_cli("classify", "--in", path)
    assert res.returncode == 0
    rep = json.loads(res.stdout)
    assert rep["summary"]["classical"] is True
    assert rep["summary"]["criterion"] == "commutator"
    assert rep["summary"]["certificate"] is None


def test_classify_pure_state_reports_certificate(tmp_path):
    payload = matrix_to_json(np.diag([1.0, 0.0]).astype(complex))
    path = write_json(tmp_path / "pure.json", payload)
    res = run_cli("classify", "--in", path)
    assert res.returncode == 0
    rep = json.loads(res.stdout)
    assert rep["summary"]["classical"] is False
    cert = rep["summary"]["certificate"]
    assert cert is not None
    assert len(cert["observables"]) == 2
    assert abs(cert["value"]) > 1e-8


def test_classify_with_algebra_file(tmp_path):
    state = write_json(tmp_path / "s.json", mixed_state_payload(3))
    algebra = write_json(tmp_path / "alg.json", diag_algebra_payload(3))
    res = run_cli("classify", "--in", state, "--algebra", algebra)
    assert res.returncode == 0
    rep = json.loads(res.stdout)
    assert rep["summary"]["classical"] is True
    assert rep["summary"]["algebra_dim"] == 3


def test_classify_rejects_bad_trace(tmp_path):
    payload = matrix_to_json(np.diag([0.5, 0.4]).astype(complex))
    path = write_json(tmp_path / "bad.json", payload)
    res = run_cli("classify", "--in", path)
    assert res.returncode == 2
    assert res.stdout == ""


@pytest.mark.parametrize(
    "text",
    ['{"dim": 1, "re": [[1' + "0" * 400 + ']], "im": [[0]]}', "[" * 100_000],
    ids=["integer-beyond-float", "nested-100000"],
)
def test_classify_rejects_input_that_python_cannot_convert(tmp_path, text):
    path = tmp_path / "s.json"
    path.write_text(text)
    res = run_cli("classify", "--in", str(path))
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1
    assert "Traceback" not in res.stderr


def test_classify_rejects_missing_file(tmp_path):
    res = run_cli("classify", "--in", str(tmp_path / "absent.json"))
    assert res.returncode == 2


def test_classify_rejects_dim_mismatch(tmp_path):
    state = write_json(tmp_path / "s.json", mixed_state_payload(2))
    algebra = write_json(tmp_path / "alg.json", diag_algebra_payload(3))
    res = run_cli("classify", "--in", state, "--algebra", algebra)
    assert res.returncode == 2
    assert "error:" in res.stderr
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("dim", ["x", None, 2.7])
def test_classify_rejects_malformed_algebra_dim(tmp_path, dim):
    state = write_json(tmp_path / "s.json", mixed_state_payload(2))
    payload = diag_algebra_payload(2)
    payload["dim"] = dim
    algebra = write_json(tmp_path / "alg.json", payload)
    res = run_cli("classify", "--in", state, "--algebra", algebra)
    assert res.returncode == 2
    assert res.stdout == ""
    assert "error:" in res.stderr
    assert "Traceback" not in res.stderr


def test_classify_rejects_non_utf8_file(tmp_path):
    path = tmp_path / "s.json"
    path.write_bytes(b'{"dim": 2, "re": "\xff\xfe"}')
    res = run_cli("classify", "--in", str(path))
    assert res.returncode == 2
    assert res.stdout == ""
    assert "UTF-8" in res.stderr
    assert "Traceback" not in res.stderr


def test_generate_rejects_mismatched_pair(tmp_path):
    payload = {
        "a": matrix_to_json(np.eye(2, dtype=complex)),
        "b": matrix_to_json(np.eye(3, dtype=complex)),
    }
    path = write_json(tmp_path / "pair.json", payload)
    res = run_cli("generate", "--mode", "jordan3", "--in", path)
    assert res.returncode == 2
    assert "Traceback" not in res.stderr


def test_classify_rejects_open_algebra(tmp_path):
    # span{sx, sy} is not product-closed, so classification cannot run
    state = write_json(tmp_path / "s.json", mixed_state_payload(2))
    algebra = write_json(tmp_path / "alg.json", subspace_to_json(2, [SX, SY]))
    res = run_cli("classify", "--in", state, "--algebra", algebra)
    assert res.returncode == 2


# ---------------------------------------------------------------- witness


def test_witness_avr_finds_violation():
    res = run_cli("witness", "--kind", "avr", "--dim", "2", "--seed", "3", "--budget", "150")
    assert res.returncode == 0
    rep = json.loads(res.stdout)
    assert rep["summary"]["found"] is True
    assert rep["summary"]["violation"] < -0.05
    assert rep["summary"]["witness"]["dim"] == 2


def test_witness_dim_one_reports_no_violation():
    res = run_cli("witness", "--kind", "avr", "--dim", "1", "--seed", "0", "--budget", "10")
    assert res.returncode == 0
    rep = json.loads(res.stdout)
    assert rep["summary"]["found"] is False
    assert rep["summary"]["witness"] is None


def test_witness_out_file_matches_stdout(tmp_path):
    out = tmp_path / "report.json"
    res = run_cli(
        "witness", "--kind", "associator", "--dim", "2", "--seed", "9",
        "--budget", "50", "--out", str(out),
    )
    assert res.returncode == 0
    assert out.read_text().strip() == res.stdout.strip()


def test_out_to_unwritable_path_exits_two_with_no_report(tmp_path):
    out = tmp_path / "missing-dir" / "report.json"
    res = run_cli("witness", "--kind", "avr", "--dim", "2", "--budget", "20", "--out", str(out))
    assert res.returncode == 2
    assert res.stdout == ""  # no partial report
    assert res.stderr.startswith(f"error: cannot write {out}: ")
    assert not out.exists()


# ---------------------------------------------------------------- generate


def test_generate_lie2_fixture_pair(tmp_path):
    payload = {"a": matrix_to_json(SX), "b": matrix_to_json(SY)}
    path = write_json(tmp_path / "pair.json", payload)
    res = run_cli("generate", "--mode", "lie2", "--in", path)
    assert res.returncode == 0
    rep = json.loads(res.stdout)
    assert rep["checks"][0]["closure_dim"] == 3
    assert rep["checks"][0]["target_dim"] == 3
    assert rep["checks"][0]["passed"] is True


def test_generate_jordan3_commuting_pair_fails(tmp_path):
    payload = {
        "a": matrix_to_json(np.diag([1.0, 2.0]).astype(complex)),
        "b": matrix_to_json(np.diag([3.0, 4.0]).astype(complex)),
    }
    path = write_json(tmp_path / "pair.json", payload)
    res = run_cli("generate", "--mode", "jordan3", "--in", path)
    assert res.returncode == 1
    rep = json.loads(res.stdout)
    assert rep["checks"][0]["passed"] is False
    assert rep["checks"][0]["closure_dim"] <= 3


def test_generate_random_pairs():
    res = run_cli("generate", "--mode", "lie2", "--dim", "3", "--trials", "2", "--seed", "1")
    assert res.returncode == 0
    rep = json.loads(res.stdout)
    assert rep["summary"]["pairs"] == 2
    assert rep["summary"]["all_generated"] is True
    for chk in rep["checks"]:
        assert chk["closure_dim"] == 8
        assert chk["trajectory"][-1] == 8


def _failing_runner(monkeypatch, mode: str, fails) -> list[tuple[np.ndarray, np.ndarray]]:
    """Replace ``mode``'s runner in ``cli`` by one whose k-th call (from 1) fails when ``fails(k)``.

    Returns the list of generator pairs the runner is called with.
    """
    name = "lie_generate" if mode == "lie2" else "jordan_generate_three"
    real = getattr(cli, name)
    seen: list[tuple[np.ndarray, np.ndarray]] = []

    def runner(a, b):
        seen.append((a, b))
        rep = real(a, b)
        return dataclasses.replace(rep, generated=False) if fails(len(seen)) else rep

    monkeypatch.setattr(cli, name, runner)
    return seen


@pytest.mark.parametrize("retry_fails", [False, True], ids=["retry-passes", "retry-fails"])
@pytest.mark.parametrize("mode", ["lie2", "jordan3"])
def test_generate_retries_a_failed_random_pair_once_with_its_own_seeds(monkeypatch, fresh_parser, mode, retry_fails):
    seen = _failing_runner(monkeypatch, mode, lambda k: k % 2 == 1 or retry_fails)
    n, seed, trials = 3, 11, 2
    code, out = _main_output(["generate", "--mode", mode, "--dim", str(n), "--trials", str(trials), "--seed", str(seed)])
    assert code == (1 if retry_fails else 0)
    rep = json.loads(out)
    assert [c["retried"] for c in rep["checks"]] == [True] * trials
    assert [c["passed"] for c in rep["checks"]] == [not retry_fails] * trials
    assert rep["summary"]["all_generated"] is not retry_fails
    assert len(seen) == 2 * trials
    prep = traceless if mode == "lie2" else (lambda m: m)
    for t in range(trials):
        for k, base in ((2 * t, 2 * t), (2 * t + 1, 0x10000 + 2 * t)):
            a, b = seen[k]
            np.testing.assert_array_equal(a, prep(random_hermitian(n, derive_seed(seed, base))))
            np.testing.assert_array_equal(b, prep(random_hermitian(n, derive_seed(seed, base + 1))))


def test_generate_does_not_retry_a_fixed_pair(tmp_path, monkeypatch, fresh_parser):
    seen = _failing_runner(monkeypatch, "lie2", lambda k: True)
    path = write_json(tmp_path / "pair.json", {"a": matrix_to_json(SX), "b": matrix_to_json(SY)})
    code, out = _main_output(["generate", "--mode", "lie2", "--in", path])
    assert code == 1 and len(seen) == 1
    assert json.loads(out)["checks"][0]["retried"] is False


# ---------------------------------------------------------------- repr


def test_repr_diagonal_algebra(tmp_path):
    path = write_json(tmp_path / "alg.json", diag_algebra_payload(3))
    res = run_cli("repr", "--algebra", path)
    assert res.returncode == 0
    rep = json.loads(res.stdout)
    assert rep["summary"]["num_points"] == 3
    assert len(rep["summary"]["projectors"]) == 3
    assert rep["checks"][0]["passed"] is True


def test_repr_rejects_noncommutative_algebra(tmp_path):
    from ljlab import full_hermitian_basis

    path = write_json(tmp_path / "full.json", subspace_to_json(2, full_hermitian_basis(2)))
    res = run_cli("repr", "--algebra", path)
    assert res.returncode == 1
    rep = json.loads(res.stdout)
    assert rep["summary"]["error"] == "NotAssociative"


# ---------------------------------------------------------------- determinism and plumbing


@pytest.mark.parametrize(
    "args",
    [
        ("verify", "--dim", "3", "--trials", "50", "--seed", "7"),
        ("witness", "--kind", "avr", "--dim", "2", "--seed", "3", "--budget", "100"),
        ("generate", "--mode", "jordan3", "--dim", "2", "--trials", "2", "--seed", "4"),
    ],
)
def test_repeat_runs_are_byte_identical(args):
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == second.returncode
    assert first.stdout == second.stdout
    assert first.stdout.strip()


def test_package_imports_only_numpy_and_the_standard_library():
    """The stack is numpy plus the standard library: every absolute import
    in ``src/ljlab`` names ``numpy``, ``ljlab`` or a standard module."""
    allowed = {"numpy", "ljlab"} | set(sys.stdlib_module_names)
    src = Path(cli.__file__).parent
    seen, outside = set(), []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                seen.add(top)
                if top not in allowed:
                    outside.append(f"{path.name}: {name}")
    assert outside == []
    assert {"numpy", "dataclasses"} <= seen  # the scan reads the imports


def test_version_flag():
    res = run_cli("--version")
    assert res.returncode == 0
    assert "ljlab" in res.stdout


def test_unknown_command_exits_two():
    res = run_cli("frobnicate")
    assert res.returncode == 2


def test_reports_contain_no_timing():
    res = run_cli("verify", "--dim", "2", "--trials", "5", "--seed", "0")
    rep = json.loads(res.stdout)
    text = json.dumps(rep)
    assert "duration" not in text and "elapsed" not in text
    # timing goes to stderr instead
    assert "done in" in res.stderr


def test_classify_and_repr_reject_a_non_hermitian_algebra_file(tmp_path):
    # the nilpotent's real span was once taken as a closed 1-dim algebra
    nil = np.array([[0, 1], [0, 0]], dtype=complex)
    algebra = write_json(tmp_path / "nil.json", subspace_to_json(2, [nil]))
    state = write_json(tmp_path / "rho.json", mixed_state_payload(2))
    for args in (("classify", "--in", state, "--algebra", algebra), ("repr", "--algebra", algebra)):
        res = run_cli(*args)
        assert res.returncode == 2
        assert res.stdout == ""
        assert "not Hermitian" in res.stderr


# ---------------------------------------------------------------- parser cache


def _main_output(argv: list[str]) -> tuple[int | str | None, str]:
    """Exit code (or SystemExit code) and stdout of one in-process ``main`` call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


@pytest.fixture
def fresh_parser():
    cli._parser.cache_clear()
    yield
    cli._parser.cache_clear()


def test_main_builds_the_parser_once(monkeypatch, fresh_parser):
    built = []

    def counting_build_parser():
        built.append(None)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    first = _main_output(["verify", "--dim", "2", "--trials", "3", "--seed", "1"])
    second = _main_output(["witness", "--kind", "avr", "--dim", "2", "--budget", "2"])
    assert first[0] == 0 and second[0] == 0
    assert len(built) == 1


def test_a_bad_flag_does_not_affect_the_next_call(fresh_parser):
    argv = ["verify", "--dim", "2", "--trials", "3", "--seed", "1"]
    before = _main_output(argv)
    assert _main_output(["verify", "--bogus"])[0] == 2
    assert _main_output(["witness", "--kind", "nope"])[0] == 2
    assert _main_output(argv) == before
    assert before == (0, run_cli(*argv).stdout)


def test_help_and_version_output_are_those_of_a_fresh_parser(monkeypatch, fresh_parser):
    monkeypatch.setenv("COLUMNS", "80")
    for argv in (["--help"], ["verify", "--help"], ["witness", "--help"], ["--version"]):
        expected = io.StringIO()
        with contextlib.redirect_stdout(expected), pytest.raises(SystemExit):
            build_parser().parse_args(argv)
        # twice: the second call parses with the cached parser
        assert _main_output(argv) == (0, expected.getvalue())
        assert _main_output(argv) == (0, expected.getvalue())
    assert _main_output(["--version"])[1] == f"ljlab {__version__}\n"


def _tol_free_argvs(tmp_path) -> dict[str, list[str]]:
    state = write_json(tmp_path / "state.json", mixed_state_payload(2))
    algebra = write_json(tmp_path / "algebra.json", diag_algebra_payload(2))
    return {
        "classify": ["classify", "--in", state],
        "generate": ["generate", "--mode", "lie2", "--dim", "2", "--trials", "1"],
        "repr": ["repr", "--algebra", algebra],
    }


def test_tol_is_a_flag_of_verify_and_witness_only(tmp_path, fresh_parser):
    for command, argv in _tol_free_argvs(tmp_path).items():
        code, out = _main_output(argv)
        assert code == 0 and json.loads(out)["config"]["tol"]["zero_tol"] == DEFAULT_TOL.zero_tol
        assert _main_output(argv + ["--tol", "1e-3"]) == (2, "")
        assert "--tol" not in _main_output([command, "--help"])[1]
    path = _tol_free_argvs(tmp_path)["classify"][2]
    assert run_cli("classify", "--in", path, "--tol", "1e-3").returncode == 2
    for command in ("verify", "witness"):
        assert "--tol" in _main_output([command, "--help"])[1]


def test_classify_and_repr_say_their_seed_is_only_echoed(tmp_path, fresh_parser, monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")
    argvs = _tol_free_argvs(tmp_path)
    for command in ("classify", "repr"):
        assert "only echoed in the report's config" in _main_output([command, "--help"])[1]
        code, out = _main_output(argvs[command] + ["--seed", "5"])
        assert code == 0 and json.loads(out)["config"]["seed"] == 5
        # the seed changes the echo and nothing else
        _, plain = _main_output(argvs[command])
        echoed, seeded = json.loads(plain), json.loads(out)
        echoed["config"]["seed"] = 5
        assert echoed == seeded
    for command in ("verify", "witness", "generate"):
        assert "only echoed" not in _main_output([command, "--help"])[1]


def test_verify_and_witness_honour_tol(fresh_parser):
    verify = ["verify", "--dim", "3", "--trials", "5"]
    assert _main_output(verify)[0] == 0
    code, out = _main_output(verify + ["--tol", "1e-30"])
    assert code == 1 and json.loads(out)["config"]["tol"]["zero_tol"] == 1e-30
    witness = ["witness", "--kind", "avr", "--dim", "2", "--budget", "20"]
    assert _main_output(witness)[0] == 0
    code, out = _main_output(witness + ["--tol", "10"])
    assert code == 1 and json.loads(out)["summary"]["found"] is False


# ---------------------------------------------------------------- golden report bytes

GOLDEN = json.loads((Path(__file__).parent / "cli_stdout_sha256.json").read_text())


def kernel_digest() -> str:
    """sha256 of products, singular values and eigenvalues of fixed small stacks.

    The report bytes depend on these BLAS and LAPACK results, which may differ
    in the last bit on another numpy build or CPU.
    """
    rng = np.random.default_rng(2024)
    h = hashlib.sha256()
    for n in (2, 3, 4):
        g = rng.standard_normal((4, n, n)) + 1j * rng.standard_normal((4, n, n))
        w = g @ np.conj(g).swapaxes(1, 2)
        for a in (w, np.linalg.svd(g, compute_uv=False), np.linalg.eigvalsh(w)):
            h.update(a.tobytes())
    return h.hexdigest()


def _block3() -> list[np.ndarray]:
    """Basis of the closed algebra ``herm(2) + R`` inside the 3x3 Hermitian matrices."""
    mats = [np.pad(m, ((0, 1), (0, 1))) for m in full_hermitian_basis(2)]
    return mats + [np.diag([0.0, 0.0, 1.0]).astype(complex)]


def golden_inputs() -> dict[str, dict]:
    """Input files of the golden commands, by name; their contents are literals."""
    rho3 = np.array([[0.5, 0.1 + 0.2j, 0.0], [0.1 - 0.2j, 0.3, 0.05], [0.0, 0.05, 0.2]])
    gen_a = np.array([[1.0, 0.5, 0.0], [0.5, -1.0, 0.25j], [0.0, -0.25j, 0.0]])
    gen_b = np.array([[0.0, 1.0, 0.5], [1.0, 0.5, 0.0], [0.5, 0.0, -0.5]])
    return {
        "mixed2.json": mixed_state_payload(2),
        "mixed3.json": mixed_state_payload(3),
        "pure2.json": matrix_to_json(np.diag([1.0, 0.0])),
        "pure3.json": matrix_to_json(np.diag([1.0, 0.0, 0.0])),
        "rho3.json": matrix_to_json(rho3),
        "diag3.json": diag_algebra_payload(3),
        "full2.json": subspace_to_json(2, full_hermitian_basis(2)),
        "block3.json": subspace_to_json(3, _block3()),
        "pair-generating.json": {"a": matrix_to_json(gen_a), "b": matrix_to_json(gen_b)},
        "pair-commuting.json": {
            "a": matrix_to_json(np.diag([1.0, 2.0, 0.0])),
            "b": matrix_to_json(np.diag([3.0, 4.0, 1.0])),
        },
    }


@pytest.fixture
def in_golden_dir(tmp_path, monkeypatch):
    """Run in a directory that holds ``golden_inputs()`` under their names.

    ``config`` echoes the input paths, so the commands name them relatively.
    """
    for name, payload in golden_inputs().items():
        write_json(tmp_path / name, payload)
    monkeypatch.chdir(tmp_path)


@pytest.mark.parametrize("command", sorted(GOLDEN["commands"]))
def test_cli_stdout_matches_its_recorded_sha256(command, in_golden_dir):
    if kernel_digest() != GOLDEN["kernels"]:
        pytest.skip("the recorded digests come from other BLAS/LAPACK kernels")
    code, out = _main_output(command.split())
    assert [code, hashlib.sha256(out.encode()).hexdigest()] == GOLDEN["commands"][command]


@pytest.mark.parametrize("patch", DISAGREEMENTS)
def test_classify_disagreement_exits_three_with_the_full_verdicts_message(tmp_path, monkeypatch, capsys, patch):
    s = random_state(3, seed=5)
    path = write_json(tmp_path / "s.json", matrix_to_json(s.rho))
    for name, replacement in DISAGREEMENTS[patch]:
        monkeypatch.setattr(states_mod, name, replacement)
    want = disagreement_message(s, full_hermitian_space(3))
    assert main(["classify", "--in", path]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {want}\n"


def test_classify_of_a_near_threshold_state_exits_three_with_the_full_verdicts_message(tmp_path, capsys):
    """The unpatched split of ``helpers.split_state``, through the CLI."""
    s = split_state()
    path = write_json(tmp_path / "s.json", matrix_to_json(s.rho))
    want = disagreement_message(s, full_hermitian_space(3))
    assert main(["classify", "--in", path]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {want}\n"
