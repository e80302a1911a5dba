"""Checks of the installed ``ljlab`` entry point, and of the library at sizes the benchmark never reaches.

Run ``python3 tests/entry_checks.py`` after ``pip install .``: it takes no
argument. Each check runs its commands as child processes through ``_run``,
which reads each child's own peak RSS; a check with a bound holds every
child to it. ``check_command_imports`` alone runs its children through
``command_modules``, which reads their stderr. Every ``ljlab`` report must
be JSON with the envelope's five keys. One line is printed per check with
its wall time, and the script exits 1 naming each failed check.
"""

import json
import os
import subprocess
import sys
import tempfile
import time
import traceback

import numpy as np

ENVELOPE = ["checks", "command", "config", "summary", "version"]
Z2 = [[0, 0], [0, 0]]


def _run(argv: list[str]) -> tuple[int, str, float]:
    """Run ``argv`` as a child: its exit code, its stdout and its own peak RSS in MB.

    ``os.wait4`` gives the one child's ``ru_maxrss``, which Linux reports in
    KiB. Linux also copies the forking process's peak into it at exec, so a
    reading is never below this script's own peak. stdout is read to EOF
    before the wait, because a report can be larger than a pipe buffer.
    """
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as child:
        out = child.stdout.read()
        _, status, usage = os.wait4(child.pid, 0)
        # set here, so Popen's exit does not wait a second time
        child.returncode = os.waitstatus_to_exitcode(status)
    return child.returncode, out, usage.ru_maxrss / 1024


def _child(argv: list[str], code: int = 0, rss: float | None = None) -> str:
    got, out, peak = _run(argv)
    assert got == code, (argv, f"exit code {got}, expected {code}")
    if rss is not None:
        shown = " ".join(argv).replace("\n", "; ")[:100]
        print(f"    peak RSS {peak:.0f} MB (bound {rss} MB): {shown}")
        assert peak <= rss, (argv, f"peak RSS {peak:.0f} MB over {rss} MB")
    return out


def _cli(*args: str, code: int = 0, rss: float | None = None) -> dict:
    """One ``ljlab`` report: the exit code, the bound and the envelope's five keys checked."""
    report = json.loads(_child(["ljlab", *args], code, rss))
    assert sorted(report) == ENVELOPE, (args, sorted(report))
    return report


def _py(*lines: str, rss: float | None = None) -> str:
    """What a ``python -c`` child of the given lines prints, stripped; it must exit 0."""
    return _child([sys.executable, "-c", "\n".join(lines)], 0, rss).strip()


def _write(d: str, name: str, obj: dict) -> str:
    path = os.path.join(d, name + ".json")
    with open(path, "w") as f:
        json.dump(obj, f)
    return path


def _state(d: str, name: str, re: list, im: list | None = None) -> str:
    n = len(re)
    return _write(d, name, {"dim": n, "re": re, "im": im or [[0.0] * n for _ in range(n)]})


def _mat(re: list, im: list = Z2) -> dict:
    return {"dim": 2, "re": re, "im": im}


def _near(n: int, t: float) -> list[list[float]]:
    """rho_t = (1 - t) I/n + t vv^T, v_k proportional to k + 1.

    The pure state at t = 1, the maximally mixed state at t = 0.
    """
    v = [(k + 1) / (n * (n + 1) * (2 * n + 1) / 6) ** 0.5 for k in range(n)]
    return [[(1 - t) * (a == b) / n + t * v[a] * v[b] for b in range(n)] for a in range(n)]


def check_small_reports(d: str) -> None:
    _child(["ljlab", "--version"])
    state = _write(d, "state", {"dim": 2, "re": [[0.5, 0], [0, 0.5]], "im": Z2})
    alg = _write(d, "alg", {"dim": 2, "matrices": [_mat([[1, 0], [0, 0]]), _mat([[0, 0], [0, 1]])]})
    _cli("verify", "--dim", "2", "--trials", "5", "--seed", "0")
    _cli("witness", "--kind", "avr", "--dim", "2", "--budget", "20", "--seed", "0")
    _cli("classify", "--in", state, "--algebra", alg)
    _cli("generate", "--mode", "lie2", "--dim", "3", "--trials", "1")
    _cli("generate", "--mode", "jordan3", "--dim", "3", "--trials", "1")
    _cli("repr", "--algebra", alg)


# the full 2x2 algebra is not associative: repr exits 1 and names the error in its report
def check_repr_of_the_full_2x2_algebra(d: str) -> None:
    mats = [
        _mat([[1, 0], [0, 0]]),
        _mat([[0, 0], [0, 1]]),
        _mat([[0, 1], [1, 0]]),
        _mat(Z2, [[0, -1], [1, 0]]),
    ]
    r = _cli("repr", "--algebra", _write(d, "full2", {"dim": 2, "matrices": mats}), code=1)
    assert r["summary"]["error"] == "NotAssociative" and r["checks"][0]["passed"] is False, r["summary"]


# a commuting pair generates no more than its own span: generate exits 1
def check_generate_from_a_commuting_pair(d: str) -> None:
    pair = _write(d, "commuting", {"a": _mat([[1, 0], [0, 2]]), "b": _mat([[3, 0], [0, 4]])})
    report = _cli("generate", "--mode", "jordan3", "--in", pair, code=1)
    assert report["summary"]["all_generated"] is False


# closures at sizes the benchmark never reaches (it stops at n=10): su(16) and the full 12x12 algebra
def check_closures_at_16_and_12(d: str) -> None:
    for mode, n, dim in (("lie2", "16", 255), ("jordan3", "12", 144)):
        check = _cli("generate", "--mode", mode, "--dim", n, "--trials", "1")["checks"][0]
        assert check["closure_dim"] == dim, (mode, check)


# a 12x12 pure state against the default full algebra: the bracket table at a size the benchmark never reaches;
# the 12x12 maximally mixed state: the classical side of both cross-check bounds
def check_classify_at_12(d: str) -> None:
    for name, re, classical in (("pure12", _near(12, 1.0), False), ("mixed12", _near(12, 0.0), True)):
        s = _cli("classify", "--in", _state(d, name, re))["summary"]
        assert s["algebra_dim"] == 144 and s["classical"] is classical, (name, s)


# 24x24 pure, full-rank Wishart and maximally mixed states against the default full algebra (dim 576): classify
# settles both cross-checks from its first-step bounds, with no bracket table and no derived algebra; the pure and
# Wishart states lie in span, so their center flag takes the quantum bound read from the tensor C at r = 576, with no
# bracket formed. Each child's peak RSS, with the algebra's transposed basis kept, stays at most 150 MB (the table
# and the derived algebra took 384 MB)
def check_classify_at_24(d: str) -> None:
    n = 24
    rng = np.random.default_rng(n)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    w = g @ g.conj().T
    w = (w + w.conj().T) / (2 * np.trace(w).real)
    states = {
        "pure": (_near(n, 1.0), None, False),
        "wishart": (w.real.tolist(), w.imag.tolist(), False),
        "mixed": (_near(n, 0.0), None, True),
    }
    for name, (re, im, classical) in states.items():
        s = _cli("classify", "--in", _state(d, f"{name}24", re, im), rss=150)["summary"]
        assert s["algebra_dim"] == 576 and s["classical"] is classical, (name, s)


# 16x16 near-threshold states rho_t against the default full algebra (dim 256): no first-step bound settles their
# flags, so each flag is its criterion's own verdict, which runs the associator criterion's exact pass over the basis
# brackets and builds the derived algebra, at a size the benchmark never reaches; peak RSS at most 150 MB
def check_near_threshold_at_16(d: str) -> None:
    for t, classical in ((1e-8, True), (1e-6, False)):
        s = _cli("classify", "--in", _state(d, f"near16-{t:g}", _near(16, t)), rss=150)["summary"]
        assert s["algebra_dim"] == 256 and s["classical"] is classical, (t, s)


# the 24x24 near-threshold state rho_t at t = 1e-6, cold, against the default full algebra (dim 576): the exact pass
# streams the 165,600 basis brackets a block at a time and keeps no table (a bracket table alone took 176 MB), so the
# peak RSS stays at most 150 MB; the time has no bound
def check_near_threshold_at_24(d: str) -> None:
    s = _cli("classify", "--in", _state(d, "near24", _near(24, 1e-6)), rss=150)["summary"]
    assert s["algebra_dim"] == 576 and s["classical"] is False, s


# su(24) and the full 24x24 algebra, from the pair's root frame and eigenframe, at a size the benchmark never reaches;
# peak RSS at most 150 MB
def check_closures_at_24(d: str) -> None:
    for mode, dim in (("lie2", 575), ("jordan3", 576)):
        check = _cli("generate", "--mode", mode, "--dim", "24", "--trials", "1", rss=150)["checks"][0]
        assert check["closure_dim"] == dim, (mode, check)


# the centralizer of the full 16x16 algebra in itself: S is at its lie dimension bound, so the commutant takes its
# closed form and none of the r * s = 65536 brackets is formed (1.3 GB as one stack); peak RSS at most 150 MB
def check_centralizer_of_the_full_16x16_algebra(d: str) -> None:
    out = _py(
        "from ljlab import centralizer, full_hermitian_space",
        "L = full_hermitian_space(16)",
        "print(centralizer(L, L).dim_span)",
        rss=150,
    )
    assert out == "1", out


SU24 = "L = lie_generate(traceless(random_hermitian(24, seed=24)), traceless(random_hermitian(24, seed=25))).closure"


# is_semisimple_lie of su(24), the lie_generate closure of a traceless pair: the closure holds no I, so the verdict is
# whether its center is zero, which su(24) gives in closed form, with no bracket table (the Killing matrix path took
# 842 MB); peak RSS at most 150 MB; the time has no bound
def check_su24_is_semisimple(d: str) -> None:
    out = _py(
        "from ljlab import is_semisimple_lie, lie_generate, random_hermitian, traceless",
        SU24,
        "print(L.dim_span, is_semisimple_lie(L))",
        rss=150,
    )
    assert out == "575 True", out


# derived_algebra of su(24), the lie_generate closure of a traceless pair: [L, L] is the complement of the center,
# for su(24) L's own 575 rows, with no bracket table (1.5 GB with it); peak RSS at most 150 MB
def check_derived_algebra_of_su24(d: str) -> None:
    out = _py(
        "from ljlab import derived_algebra, lie_generate, random_hermitian, traceless",
        SU24,
        "print(derived_algebra(L).dim_span)",
        rss=150,
    )
    assert out == "575", out


# derived_algebra of the full 24x24 algebra and is_semisimple_lie of su(24) spanned from conjugated rank-2 elements:
# both algebras are at their lie dimension bound, where the commutant takes its closed form (the commutant of su(n)
# is RI) with no bracket formed, at a size the benchmark never reaches; peak RSS at most 150 MB
def check_algebras_at_the_lie_bound_at_24(d: str) -> None:
    out = _py(
        "import numpy as np",
        "from ljlab import derived_algebra, full_hermitian_basis, full_hermitian_space, is_semisimple_lie, span",
        "n = 24",
        "rng = np.random.default_rng(n)",
        "u, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))",
        "steps = [np.diag(np.eye(n)[k] - np.eye(n)[k + 1]).astype(complex) for k in range(n - 1)]",
        "S = span([u @ m @ u.conj().T for m in [*full_hermitian_basis(n)[n:], *steps]])",
        "print(derived_algebra(full_hermitian_space(n)).dim_span, S.dim_span, is_semisimple_lie(S))",
        rss=150,
    )
    assert out == "575 575 True", out


# is_jordan_associative of the full 24x24 algebra: it is the is_commutative call, which answers at the first bracket
# block above the floor and forms no associator (the associator pass took 1.4 s and 71 MB, 184 MB with the bracket
# table); peak RSS at most 60 MB (45 MB measured); the time has no bound
def check_full_24x24_algebra_is_not_jordan_associative(d: str) -> None:
    out = _py(
        "from ljlab import full_hermitian_space, is_jordan_associative",
        "print(is_jordan_associative(full_hermitian_space(24)))",
        rss=60,
    )
    assert out == "False", out


# the associator defect of the full 10x10 and 12x12 algebras: the canonical basis ties many triples at 2^(-3/2), and
# only associators whose HS norm can reach the running maximum get an SVD, so the screen must keep every tie to name
# the first one in row-major order, at sizes the benchmark never reaches; a kept pair's r brackets are formed about
# 128 KB at a time, so the peak RSS stays at most 60 MB (about 36 MB; a whole bracket block's triples at once took
# 283 MB at n = 12); the time has no bound
def check_associator_defect_of_the_full_algebras(d: str) -> None:
    out = _py(
        "from ljlab import associator_defect, full_hermitian_space",
        "print(*(repr(associator_defect(full_hermitian_space(n))) for n in (10, 12)), sep=';')",
        rss=60,
    )
    assert out == "(0.3535533905932737, (10, 10, 11));(0.3535533905932737, (12, 12, 13))", out


# positivity sampling on the full 24x24 algebra: 2048 samples drawn from one generator and scored in sub-stacks of
# about 128 KB per product, so the peak RSS stays at most 80 MB (about 46 MB; whole 1024-sample stacks took 142 MB);
# every sample violates both kinds; the time has no bound
def check_positivity_on_the_full_24x24_algebra(d: str) -> None:
    out = _py(
        "from ljlab import check_positivity_closure, full_hermitian_space",
        "r = check_positivity_closure(full_hermitian_space(24), 2048, 0)",
        "print(r.samples, r.jordan_violations, r.square_order_violations)",
        rss=80,
    )
    assert out == "2048 2048 2048", out


# the function representation of a conjugated diagonal algebra at n = 24 (dim 24): one eigendecomposition of a generic
# combination, cut at its eigenvalue gaps, and one reconstruction check give 24 points, at a size the benchmark never
# reaches (it stops at n = 6)
def check_repr_of_a_conjugated_diagonal_algebra_at_24(d: str) -> None:
    n = 24
    rng = np.random.default_rng(n)
    u, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    mats = [np.outer(u[:, k], u[:, k].conj()) for k in range(n)]
    matrices = [{"dim": n, "re": m.real.tolist(), "im": m.imag.tolist()} for m in mats]
    path = _write(d, "diag24", {"dim": n, "matrices": matrices})
    s = _cli("repr", "--algebra", path)["summary"]
    assert s["algebra_dim"] == 24 and s["num_points"] == 24, (s.get("error"), s.get("detail"))


# the associator witness at n = 24, a size the benchmark never reaches (it stops at n = 4): the search builds one
# triple in a frame drawn from the seed and reads the budget of 1000 only as an argument to check, so its peak RSS
# is the interpreter's and numpy's (about 40 MB, as at n = 2), within 80 MB
def check_witness_search_at_24(d: str) -> None:
    report = _cli("witness", "--kind", "associator", "--dim", "24", "--budget", "1000", rss=80)
    assert report["summary"]["found"] is True


# the n = 2..6 sweep at 1000 trials per dimension: 5,000 trials evaluated in chunks, a size the benchmark never
# reaches; 2000 trials at n = 6: nine operand stacks of at most 227 trials (128 KB an operand), each forming its own
# products, far beyond the benchmark's 25 trials a dimension
def check_verify_at_many_trials(d: str) -> None:
    s = _cli("verify", "--trials", "1000", "--seed", "7")["summary"]
    assert s["all_passed"] is True and s["checks_total"] == 25, s
    s = _cli("verify", "--dim", "6", "--trials", "2000", "--seed", "3")["summary"]
    assert s["all_passed"] is True and s["checks_passed"] == 5, s


# the public products check their input: an inf matrix raises ValidationError, not a matmul warning
def check_products_reject_an_inf_matrix(d: str) -> None:
    code = [
        "import numpy as np, pytest, ljlab",
        "pytest.raises(ljlab.ValidationError, ljlab.jordan, np.full((2, 2), np.inf), np.eye(2))",
    ]
    _child([sys.executable, "-W", "error", "-c", "\n".join(code)])


# --tol is a flag of verify and witness only; it sets verify's zero tolerance (far below roundoff, every check fails)
# and the witness search's threshold: the associator of a unit-norm triple has norm at most 1 < 10, so none is found
def check_tol_flag(d: str) -> None:
    state = _write(d, "state", {"dim": 2, "re": [[0.5, 0], [0, 0.5]], "im": Z2})
    _child(["ljlab", "classify", "--in", state, "--tol", "1e-3"], code=2)
    strict = _cli("verify", "--dim", "3", "--trials", "5", "--tol", "1e-30", code=1)
    assert strict["config"]["tol"] == {"rel": True, "zero_tol": 1e-30}, strict["config"]
    report = _cli("witness", "--kind", "associator", "--dim", "2", "--budget", "20", "--tol", "10", code=1)
    assert report["summary"]["found"] is False


def command_argvs(d: str) -> dict[str, list[str]]:
    """Each command at its smallest input, as ``ljlab`` arguments; its input files are written into ``d``."""
    state = _state(d, "half", [[0.5, 0], [0, 0.5]])
    diag = _write(d, "diag2", {"dim": 2, "matrices": [_mat([[1, 0], [0, 0]]), _mat([[0, 0], [0, 1]])]})
    return {
        "verify": ["verify", "--dim", "2", "--trials", "1"],
        "witness": ["witness", "--kind", "avr", "--dim", "2"],
        "generate": ["generate", "--mode", "lie2", "--dim", "3", "--trials", "1"],
        "classify": ["classify", "--in", state],
        "repr": ["repr", "--algebra", diag],
    }


_LOADED = (
    "import contextlib, io, json, sys",
    "from ljlab import cli",
    "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):",
    "    code = cli.main(sys.argv[1:])",
    "print(json.dumps([code, sorted(m for m in sys.modules if m.startswith('ljlab.'))]))",
)


def command_modules(argv: list[str]) -> tuple[list[str], float]:
    """The ``ljlab.*`` modules a child loads to run ``ljlab.cli.main(argv)``, which must exit 0, and their own import
    time in ms: the sum of the self times ``python -X importtime`` gives the ``ljlab`` modules."""
    cmd = [sys.executable, "-X", "importtime", "-c", "\n".join(_LOADED), *argv]
    child = subprocess.run(cmd, capture_output=True, text=True, check=True)
    code, modules = json.loads(child.stdout)
    assert code == 0, (argv, f"exit code {code}")
    rows = [line.split("|") for line in child.stderr.splitlines() if line.startswith("import time:")]
    own = sum(int(us.split(":")[1]) for us, _, name in rows if name.strip().split(".")[0] == "ljlab")
    return modules, own / 1000


# each command imports only the modules it calls: verify and witness never load the closure and state modules; the
# modules and their import time are printed, the time with no bound
def check_command_imports(d: str) -> None:
    for name, argv in command_argvs(d).items():
        modules, ms = command_modules(argv)
        print(f"    {name}: {ms:.1f} ms importing {', '.join(modules)}")
        if name in ("verify", "witness"):
            assert not {"ljlab.subspace", "ljlab.states"} & set(modules), (name, modules)


def main() -> int:
    failed = []
    with tempfile.TemporaryDirectory() as d:
        for name, check in [(k, v) for k, v in globals().items() if k.startswith("check_")]:
            t0 = time.perf_counter()
            try:
                check(d)
            except Exception:  # every check runs, whatever an earlier one raised
                traceback.print_exc()
                failed.append(name)
            print(f"{'FAILED' if name in failed else 'ok':6} {name} {time.perf_counter() - t0:.2f} s", flush=True)
    if failed:
        print("failed:", ", ".join(failed))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
