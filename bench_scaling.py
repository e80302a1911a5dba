"""Scaling rows for BENCH_scaling.json: closures at n = 8..24, the algebra queries, ``verify`` and ``classify``.

    python bench_scaling.py [--tree DIR] [--out BENCH_scaling.json] [--only NAME ...]

A warm row times one call in its own process. The row's builder, named
after its bench and listed in ``WARM`` with its sizes and row keys, makes
the inputs untimed and returns the call and the result every call must
give; its docstring says what the row times. After one untimed call, each
run makes k calls and posts the time per call, k (``calls_per_run``) being
the number of untimed calls that took 10 ms.

``verify``, ``classify_full_algebra`` and ``classify_blocks`` rows time cold
``python -m ljlab`` processes, start to exit: ``verify --trials 1000``,
which must pass all 25 checks; ``classify`` of each of ``STATES`` against
the full algebra at each n of ``SIZES`` (warm too, by its builder), whose
verdict must be the commutator criterion's, True for I/n; and ``classify``
of each of ``block_states`` against ``blocks`` at n = 16 and 24.
``cli_start`` rows time the same cold processes for each command of
``cli_start`` at its smallest input, whose report must pass its check.

Times are at reference speed: each interval is scaled by the probe of
``perfbench/speed.py``, sampled just before and after it. Every process a
row times runs BLAS on one thread, as perfbench's runs do. A row is the
median of 5 runs with their quartiles, None when a result is wrong, with
the peak RSS and the timed tree's facts (``--tree``, default this
checkout): commit, ``src/`` lines, and ``src_pycache``, whether its
``src/ljlab`` held a ``__pycache__`` when the take began. Rows are appended
to ``--out``. Time parent and change one after the other on one machine,
from clones at paths of equal length: a checkout's path alone moves its
warm rows. ``--only NAME``, repeatable, takes only that bench's rows.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE / "perfbench"))
from bootstrap import BLAS_THREADS  # noqa: E402
from speed import SpeedProbe  # noqa: E402

ABOUT = "Rows appended by bench_scaling.py, one row a line; its docstrings say what each row times."
SIZES = (8, 16, 24)
CLOSURE_SIZES = (8, 12, 16, 24)
RUNS = 5
#: Each state is (1 - t) I/n + t vv^T at its t.
STATES = {"pure": 1.0, "mixed": 0.0, "rho_t=1e-08": 1e-8, "rho_t=1e-06": 1e-6, "rho_t=1e-04": 1e-4}


def state_matrix(n: int, t: float) -> list[list[float]]:
    """The real matrix (1 - t) I/n + t vv^T, ``v_k`` proportional to k + 1."""
    v = [(k + 1) / (n * (n + 1) * (2 * n + 1) / 6) ** 0.5 for k in range(n)]
    return [[(1 - t) * (a == b) / n + t * v[a] * v[b] for b in range(n)] for a in range(n)]


def pair(ljlab, n: int) -> tuple:
    """The generators ``random_hermitian(n, seed=n)`` and ``random_hermitian(n, seed=n + 1)``."""
    return ljlab.random_hermitian(n, seed=n), ljlab.random_hermitian(n, seed=n + 1)


def su(ljlab, n: int):
    """su(n) as the ``lie_generate`` closure of the traceless parts of ``pair``."""
    return ljlab.lie_generate(*map(ljlab.traceless, pair(ljlab, n))).closure


def fresh(L):
    """A copy of L with nothing memoized, so a query on it proves closedness again."""
    return type(L)(L.dim_ambient, L.rows)


def rank_two_su(ljlab, k: int) -> list:
    """A basis of su(k) of rank-2 elements: the off-diagonal units and E_jj - E_(j+1)(j+1)."""
    steps = [np.diag(np.eye(k)[j] - np.eye(k)[j + 1]).astype(complex) for j in range(k - 1)]
    return [*ljlab.full_hermitian_basis(k)[k:], *steps]


def two_blocks(n: int, basis) -> list:
    """``basis(k)`` of each diagonal block, k = n/2 and n - n/2, padded with zeros."""
    return [np.pad(e, (off, n - off - k)) for off, k in ((0, n // 2), (n // 2, n - n // 2)) for e in basis(k)]


def unitary(n: int) -> np.ndarray:
    """The unitary factor of a complex Gaussian matrix from seed n."""
    rng = np.random.default_rng(n)
    u, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return u


def conjugated(ljlab, mats: list):
    """The span of u m u^H over mats, u = ``unitary(n)``."""
    u = unitary(len(mats[0]))
    return ljlab.span([u @ m @ u.conj().T for m in mats])


def blocks(ljlab, n: int):
    """u(n/2) + u(n - n/2), each block's canonical basis, ``conjugated``: its center has dimension 2."""
    return conjugated(ljlab, two_blocks(n, ljlab.full_hermitian_basis))


def block_states(ljlab, n: int) -> dict:
    """The ``classify_blocks`` states and their verdicts: I/n is classical; W = ``random_state(n, seed=n)``
    pinched to the blocks in the frame of ``unitary(n)``, inside ``blocks``, and W, outside it, are quantum."""
    u, w = unitary(n), ljlab.random_state(n, seed=n).rho
    first = np.arange(n) < n // 2
    pinched = u @ np.where(first[:, None] == first, u.conj().T @ w @ u, 0) @ u.conj().T
    return {"mixed": (np.eye(n) / n, True), "wishart_inside": (pinched, False), "wishart_outside": (w, False)}


def lie_generate(ljlab, n: int):
    """``lie_generate`` of the traceless parts of ``pair``, which must reach n^2 - 1."""
    a, b = map(ljlab.traceless, pair(ljlab, n))
    return lambda: ljlab.lie_generate(a, b).closure_dim, n * n - 1


def jordan_generate_three(ljlab, n: int):
    """``jordan_generate_three`` of ``pair``, which must reach n^2."""
    a, b = pair(ljlab, n)
    return lambda: ljlab.jordan_generate_three(a, b).closure_dim, n * n


def block_pair(ljlab, n: int) -> tuple:
    """Two block-diagonal matrices with blocks ``random_hermitian(n/2, seed)``, seeds n to n + 3 in order."""
    k, z = n // 2, np.zeros((n // 2, n // 2))
    a, b, c, d = (ljlab.random_hermitian(k, seed=n + j) for j in range(4))
    return np.block([[a, z], [z, b]]), np.block([[c, z], [z, d]])


def lie_generate_blocks(ljlab, n: int):
    """``lie_generate`` of ``block_pair``, below the n^2 bound: it must reach u(n/2) + u(n/2), dimension n^2/2."""
    a, b = block_pair(ljlab, n)
    return lambda: ljlab.lie_generate(a, b).closure_dim, n * n // 2


def jordan_generate_three_blocks(ljlab, n: int):
    """``jordan_generate_three`` of ``block_pair``, below the n^2 bound: it must reach dimension n^2/2."""
    a, b = block_pair(ljlab, n)
    return lambda: ljlab.jordan_generate_three(a, b).closure_dim, n * n // 2


def jordan_generate_three_multiplicity(ljlab, n: int):
    """``jordan_generate_three`` of I_2 (x) ``pair`` at n/2, ``conjugated`` by ``unitary(n)``: every eigenvalue repeats,
    so the closure rounds decide; it must reach dimension n^2/4."""
    u = unitary(n)
    a, b = (u @ np.kron(np.eye(2), m) @ u.conj().T for m in pair(ljlab, n // 2))
    return lambda: ljlab.jordan_generate_three(a, b).closure_dim, (n // 2) ** 2


def centralizer(ljlab, n: int):
    """``centralizer(L, L)`` of the full algebra, at its dimension bound: the closed form, no bracket formed; dim 1."""
    L = ljlab.full_hermitian_space(n)
    return lambda: ljlab.centralizer(L, L).dim_span, 1


def centralizer_blocks(ljlab, n: int):
    """``centralizer(L, L)`` of L = ``blocks``: the walk below the bound; its center has dimension 2."""
    L = blocks(ljlab, n)
    return lambda: ljlab.centralizer(L, L).dim_span, 2


def centralizer_sub(ljlab, n: int):
    """``centralizer(L, S)`` of the full algebra L and S = ``blocks`` != L: the walk; the center of S, dimension 2."""
    L, S = ljlab.full_hermitian_space(n), blocks(ljlab, n)
    return lambda: ljlab.centralizer(L, S).dim_span, 2


def closedness_blocks(ljlab, n: int):
    """``is_closed_under`` ``blocks`` for jordan and for lie, each call on a ``fresh`` copy; both True."""
    L = blocks(ljlab, n)
    return lambda: all(ljlab.is_closed_under(fresh(L), p) for p in (ljlab.jordan, ljlab.lie)), True


def is_semisimple_lie(ljlab, n: int):
    """``is_semisimple_lie`` of ``su``, built untimed; True."""
    L = su(ljlab, n)
    return lambda: ljlab.is_semisimple_lie(L), True


def is_semisimple_lie_conjugated(ljlab, n: int):
    """``is_semisimple_lie`` of su(n) spanned from ``rank_two_su``, ``conjugated``; True."""
    L = conjugated(ljlab, rank_two_su(ljlab, n))
    return lambda: ljlab.is_semisimple_lie(L), True


def associator_defect(ljlab, n: int):
    """``associator_defect`` of the full algebra: 2^(-3/2) as 0.3535533905932737, with a triple named."""
    L = ljlab.full_hermitian_space(n)
    return lambda: defect(ljlab.associator_defect(L)), 0.3535533905932737


def commutator_defect(ljlab, n: int):
    """``commutator_defect`` of the full algebra: 1/2 as 0.4999999999999999, with a pair named."""
    L = ljlab.full_hermitian_space(n)
    return lambda: defect(ljlab.commutator_defect(L)), 0.4999999999999999


def defect(value_where: tuple) -> float | None:
    """A defect's value, None when it names no certificate."""
    value, where = value_where
    return value if where is not None else None


def derived_algebra(ljlab, n: int):
    """``derived_algebra`` of ``su`` on a ``fresh`` copy each call; dimension n^2 - 1."""
    L = su(ljlab, n)
    return lambda: ljlab.derived_algebra(fresh(L)).dim_span, n * n - 1


def derived_algebra_full(ljlab, n: int):
    """``derived_algebra`` of the full algebra on a ``fresh`` copy each call, closed at its bound; n^2 - 1."""
    L = ljlab.full_hermitian_space(n)
    return lambda: ljlab.derived_algebra(fresh(L)).dim_span, n * n - 1


def derived_algebra_lie_blocks(ljlab, n: int):
    """``derived_algebra`` of su(n/2) + su(n - n/2) from ``rank_two_su``, ``conjugated``, on a ``fresh`` copy: 286."""
    L = conjugated(ljlab, two_blocks(n, lambda k: rank_two_su(ljlab, k)))
    return lambda: ljlab.derived_algebra(fresh(L)).dim_span, (n // 2) ** 2 + (n - n // 2) ** 2 - 2


#: ``check_positivity_closure`` rows: the Jordan and square-order violation counts of 256 samples, seed 0.
POSITIVITY_COUNTS = {4: "247/199", 16: "256/256", 24: "256/256"}


def check_positivity_closure(ljlab, n: int):
    """``check_positivity_closure`` of the full algebra, 256 samples, seed 0; both counts, as ``POSITIVITY_COUNTS``."""
    L = ljlab.full_hermitian_space(n)

    def counts() -> str:
        report = ljlab.check_positivity_closure(L, 256, 0)
        return f"{report.jordan_violations}/{report.square_order_violations}"

    return counts, POSITIVITY_COUNTS[n]


def is_jordan_associative(ljlab, n: int):
    """``is_jordan_associative`` of the full algebra; False."""
    L = ljlab.full_hermitian_space(n)
    return lambda: ljlab.is_jordan_associative(L), False


def function_representation(ljlab, n: int):
    """``function_representation`` of the span of the n projectors E_kk, ``conjugated``; n points."""
    L = conjugated(ljlab, [np.diag(np.eye(n)[k]).astype(complex) for k in range(n)])
    return lambda: ljlab.function_representation(L).num_points, n


def avr_witness_search(ljlab, n: int):
    """``avr_witness_search(n, 0)``, the witness of ``ljlab witness --kind avr --dim n``, at its bound."""
    return lambda: ljlab.avr_witness_search(n, 0).found, True


def associator_witness_search(ljlab, n: int):
    """``associator_witness_search(n, 0)``, the witness of ``ljlab witness --kind associator --dim n``, at its bound."""
    return lambda: ljlab.associator_witness_search(n, 0).found, True


def cmd_verify(ljlab, n: int):
    """``cmd_verify`` of ``verify --dim n --trials 25 --seed 0``, in process, the benchmark's verify ops; 5 passed."""
    from ljlab import cli

    cfg = cli.SessionConfig(command="verify", dim=n, trials=25, seed=0)
    return lambda: cli.cmd_verify(cfg)[1]["checks_passed"], 5


def classify_wishart(ljlab, n: int):
    """``classify`` of ``random_state(n, seed=n)`` against the full algebra, the benchmark's classify ops; False."""
    L, s = ljlab.full_hermitian_space(n), ljlab.random_state(n, seed=n)
    return lambda: ljlab.classify(s, L).classical, False


def classify_block_scalar(ljlab, n: int):
    """``classify`` of weights 0.7 and 0.3 spread evenly over the blocks of u(n/2) + u(n - n/2), against it; True."""
    L = ljlab.span(two_blocks(n, ljlab.full_hermitian_basis))
    k = [n // 2, n - n // 2]
    s = ljlab.State(np.diag(np.repeat([0.7 / k[0], 0.3 / k[1]], k)).astype(complex))
    return lambda: ljlab.classify(s, L).classical, True


def classify_full_algebra(ljlab, n: int, state: str):
    """``classify`` of ``STATES[state]`` against the full algebra: closedness proofs and derived algebra memoized,
    the associator criterion's exact pass run again every call. Every verdict must be ``is_classical_commutator``'s."""
    s = ljlab.State(np.array(state_matrix(n, STATES[state]), dtype=complex))
    L = ljlab.full_hermitian_space(n)
    return lambda: ljlab.classify(s, L).classical, ljlab.is_classical_commutator(s, L).classical


def cli_start(work: str) -> dict:
    """Each command at its smallest input, as ``ljlab`` arguments, and a check its report must pass.

    classify takes I/2 against the full algebra, repr a diagonal 2x2 algebra; their files are written into ``work``.
    """
    half, diag = f"{work}/half.json", f"{work}/diag2.json"
    Path(half).write_text(json.dumps(matrix(np.eye(2) / 2)))
    Path(diag).write_text(json.dumps({"dim": 2, "matrices": [matrix(np.diag(e)) for e in np.eye(2)]}))
    return {
        "verify": (["verify", "--dim", "2", "--trials", "1"], lambda r: r["summary"]["all_passed"]),
        "witness": (["witness", "--kind", "avr", "--dim", "2"], lambda r: r["summary"]["found"]),
        "generate": (
            ["generate", "--mode", "lie2", "--dim", "3", "--trials", "1"],
            lambda r: r["summary"]["all_generated"],
        ),
        "classify": (["classify", "--in", half], lambda r: r["summary"]["classical"]),
        "repr": (["repr", "--algebra", diag], lambda r: r["summary"]["num_points"] == 2),
    }


#: Each warm row's builder, its sizes, and the row keys of its result and of that result's check.
WARM = {
    lie_generate: (CLOSURE_SIZES, "closure_dim", "dim_ok"),
    jordan_generate_three: (CLOSURE_SIZES, "closure_dim", "dim_ok"),
    lie_generate_blocks: ((8, 16, 24), "closure_dim", "dim_ok"),
    jordan_generate_three_blocks: ((8, 16, 24), "closure_dim", "dim_ok"),
    jordan_generate_three_multiplicity: ((8, 16, 24), "closure_dim", "dim_ok"),
    centralizer: ((8, 12, 16, 24), "dim_span", "dim_ok"),
    centralizer_blocks: ((16, 24), "dim_span", "dim_ok"),
    centralizer_sub: ((12, 16, 24), "dim_span", "dim_ok"),
    closedness_blocks: ((16, 24), "closed", "verdict_ok"),
    is_semisimple_lie: ((16, 24), "semisimple", "verdict_ok"),
    is_semisimple_lie_conjugated: ((24,), "semisimple", "verdict_ok"),
    associator_defect: ((8, 12, 16), "defect", "value_ok"),
    commutator_defect: ((24,), "defect", "value_ok"),
    derived_algebra: ((16, 24), "dim_span", "dim_ok"),
    derived_algebra_full: ((24,), "dim_span", "dim_ok"),
    derived_algebra_lie_blocks: ((24,), "dim_span", "dim_ok"),
    is_jordan_associative: ((24,), "associative", "verdict_ok"),
    check_positivity_closure: ((16, 24), "violations", "counts_ok"),
    function_representation: ((12, 24), "num_points", "points_ok"),
    avr_witness_search: ((4,), "found", "found_ok"),
    associator_witness_search: ((6,), "found", "found_ok"),
    cmd_verify: ((2, 4, 6), "checks_passed", "passed_ok"),
    classify_wishart: ((3, 4, 8), "classical", "verdict_ok"),
    classify_block_scalar: ((4,), "classical", "verdict_ok"),
}
NAMES = [*(builder.__name__ for builder in WARM), "verify", "classify_full_algebra", "classify_blocks", "cli_start"]


def spread(times: list[float], good: bool) -> dict:
    """A row's median and quartiles of its run times, None unless its results are good."""
    q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive")
    return {key: round(v, 6) if good else None for key, v in (("median_s", median), ("q1_s", q1), ("q3_s", q3))}


def timed(probe: SpeedProbe, run, k: int = 1) -> tuple[float, object]:
    """The wall time of k calls of ``run()`` at reference speed, per call, and the last result."""
    probe.sample()
    t0 = time.perf_counter()
    for _ in range(k):
        out = run()
    t1 = time.perf_counter()
    probe.sample()
    return (t1 - t0) * probe.factor(t0, t1) / k, out


def calls_per_run(run) -> int:
    """How many calls of ``run()`` take at least 10 ms, counted by making them."""
    k, t0 = 0, time.perf_counter()
    while time.perf_counter() - t0 < 0.01:
        run()
        k += 1
    return k


def worker(tree: Path, name: str, n: int, *args: str) -> None:
    """Print a warm row's times and results at n, the result they must give, and this process's peak RSS."""
    sys.path.insert(0, str(tree / "src"))
    import ljlab

    query, want = {b.__name__: b for b in (*WARM, classify_full_algebra)}[name](ljlab, n, *args)
    probe, first = SpeedProbe(), query()
    k = calls_per_run(query)
    times, results = zip(*(timed(probe, query, k) for _ in range(RUNS)))
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps({"times": times, "calls": k, "results": [first, *results], "want": want, "rss_mb": rss}))


def cold_runs(tree: Path, args: list[str], probe: SpeedProbe, verdict=lambda report: report["summary"]["classical"]):
    """Cold ``python -m ljlab *args`` times, ``verdict`` of each report (None on a nonzero exit), and their peak RSS."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    times, verdicts, rss = [], [], 0.0
    for _ in range(RUNS):
        with tempfile.TemporaryFile() as out:

            def run():
                cmd = [sys.executable, "-m", "ljlab", *args]
                proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.DEVNULL, env=env)
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
                return proc.returncode, usage.ru_maxrss / 1024

            dt, (code, child_rss) = timed(probe, run)
            out.seek(0)
            verdicts.append(verdict(json.load(out)) if code == 0 else None)
        times.append(dt)
        rss = max(rss, child_rss)
    return {"times": times, "calls": 1, "results": verdicts, "rss_mb": rss}


def tree_facts(tree: Path) -> dict:
    def git(*args: str) -> str:
        done = subprocess.run(["git", "-C", str(tree), *args], capture_output=True, text=True)
        return done.stdout.strip() if done.returncode == 0 else ""

    lines = sum(len(p.read_text().splitlines()) for p in sorted((tree / "src" / "ljlab").glob("*.py")))
    return {
        "commit": git("rev-parse", "--short", "HEAD") or "unknown",
        "src_dirty": bool(git("status", "--porcelain", "--", "src")),
        "src_lines": lines,
        "src_pycache": (tree / "src" / "ljlab" / "__pycache__").is_dir(),
    }


def row(bench: str, mode: str, fields: dict, key: str, want, ok_key: str, run: dict, ok: bool = True) -> dict:
    """A timed row after the tree facts: it is good when ``ok`` and every result of ``run`` is ``want``."""
    good = ok and set(run["results"]) == {want}
    head = {"bench": bench, "mode": mode, **fields, key: want, ok_key: good, **spread(run["times"], good)}
    return {**head, "calls_per_run": run["calls"], "peak_rss_mb": round(run["rss_mb"], 1)}


def matrix(m) -> dict:
    """A matrix as ``ljlab``'s JSON files hold it."""
    m = np.asarray(m, dtype=complex)
    return {"dim": len(m), "re": m.real.tolist(), "im": m.imag.tolist()}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tree", type=Path, default=HERE, help="checkout whose src/ is timed")
    ap.add_argument("--out", type=Path, default=HERE / "BENCH_scaling.json")
    ap.add_argument("--only", action="append", choices=NAMES, metavar="NAME", help="take only this bench's rows")
    ap.add_argument("--worker", nargs="+", help=argparse.SUPPRESS)
    args = ap.parse_args()
    tree = args.tree.resolve()
    if args.worker:
        return worker(tree, args.worker[0], int(args.worker[1]), *args.worker[2:])

    # every process a row times runs BLAS on one thread, as perfbench's do (perfbench/bootstrap.py)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    common = {
        **tree_facts(tree),
        "taken": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "host": f"{platform.machine()}, {os.cpu_count()} cpus, Python {platform.python_version()}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "time": f"median of {RUNS} runs, seconds at reference speed (perfbench/speed.py)",
    }
    taken = set(args.only or NAMES)
    probe = SpeedProbe()
    rows = []

    def post(fields: dict) -> None:
        rows.append({**common, **fields})
        print(json.dumps(rows[-1]), flush=True)

    def warm(name: str, n: int, *args: str) -> dict:
        cmd = [sys.executable, __file__, "--tree", str(tree), "--worker", name, str(n), *args]
        return json.loads(subprocess.run(cmd, capture_output=True, text=True, check=True).stdout)

    for builder, (sizes, key, ok_key) in WARM.items():
        name = builder.__name__
        for n in sizes if name in taken else ():
            got = warm(name, n)
            post(row(name, "warm", {"n": n}, key, got["want"], ok_key, got))

    def sweep(report: dict) -> bool:
        return report["summary"]["all_passed"] is True and report["summary"]["checks_total"] == 25

    if "verify" in taken:
        run = cold_runs(tree, ["verify", "--trials", "1000"], probe, sweep)
        good = set(run["results"]) == {True}
        head = {"bench": "verify", "mode": "cold", "dims": [2, 3, 4, 5, 6], "trials": 1000, "passed_ok": good}
        post({**head, **spread(run["times"], good), "peak_rss_mb": round(run["rss_mb"], 1)})
    with tempfile.TemporaryDirectory() as work:
        for n in SIZES if "classify_full_algebra" in taken else ():
            for state, t in STATES.items():
                path = f"{work}/{n}-{state}.json"
                Path(path).write_text(json.dumps(matrix(state_matrix(n, t))))
                got = warm("classify_full_algebra", n, state)
                want, fields = got["want"], {"n": n, "state": state}
                ok = state != "mixed" or want is True
                post(row("classify_full_algebra", "warm", fields, "classical", want, "verdict_ok", got, ok))
                cold = cold_runs(tree, ["classify", "--in", path], probe)
                post(row("classify_full_algebra", "cold", fields, "classical", want, "verdict_ok", cold, ok))
        if "classify_blocks" in taken:
            sys.path.insert(0, str(tree / "src"))
            import ljlab

            for n in (16, 24):
                algebra = f"{work}/blocks-{n}.json"
                Path(algebra).write_text(json.dumps({"dim": n, "matrices": [matrix(m) for m in blocks(ljlab, n).basis]}))
                for state, (rho, want) in block_states(ljlab, n).items():
                    path = f"{work}/blocks-{n}-{state}.json"
                    Path(path).write_text(json.dumps(matrix(rho)))
                    cold = cold_runs(tree, ["classify", "--in", path, "--algebra", algebra], probe)
                    post(row("classify_blocks", "cold", {"n": n, "state": state}, "classical", want, "verdict_ok", cold))
        for command, (argv, check) in cli_start(work).items() if "cli_start" in taken else ():
            cold = cold_runs(tree, argv, probe, check)
            post(row("cli_start", "cold", {"command": command}, "check", True, "check_ok", cold))
    doc = json.loads(args.out.read_text()) if args.out.exists() else {"about": ABOUT, "rows": []}
    lines = ",\n".join(json.dumps(r) for r in doc["rows"] + rows)
    args.out.write_text(f'{{"about": {json.dumps(doc["about"])}, "rows": [\n{lines}\n]}}\n')


if __name__ == "__main__":
    main()
