"""Scaling rows for BENCH_scaling.json: closures at n = 8..24, the algebra queries, ``verify`` and ``classify``.

    python bench_scaling.py [--tree DIR] [--out BENCH_scaling.json] [--only NAME ...]

Closure rows time ``lie_generate`` of a traceless pair and
``jordan_generate_three`` of a pair at n = 8, 12, 16 and 24, each in its
own process, warm: one untimed call, then the timed ones. The generators are
``random_hermitian(n, seed=n)`` and ``random_hermitian(n, seed=n + 1)``,
their traceless parts for ``lie_generate``; a row whose closures do not all
reach n^2 - 1 (lie) or n^2 (jordan) posts no time. Centralizer rows time
``centralizer(L, L)`` of the full algebra L at n = 8, 12, 16 and 24 the
same way; a row whose centralizers do not all have dimension 1 (the
multiples of I) posts no time; the full algebra is at its dimension
bound, so these rows time the closed form, with no bracket formed.
``centralizer_blocks`` rows time the walk below the bound:
``centralizer(L, L)`` of L = u(n/2) + u(n/2) conjugated by a fixed random
unitary (``conjugated``) at n = 16 and 24, whose center, and so every
result, must have dimension 2. The ``closedness_blocks`` row times
``is_closed_under(L, jordan)`` and ``is_closed_under(L, lie)`` of that
algebra at n = 24, each call on a fresh copy, so the memo does not answer
it; it posts a time only when both read True. ``is_semisimple_lie`` rows
time the ``lie_generate`` closure of the traceless pair above, built untimed, at
n = 16 and 24, and the ``is_semisimple_lie_conjugated`` row su(24)
spanned from conjugated rank-2 elements (the off-diagonal units and
E_kk - E_(k+1)(k+1)); a row posts a time only when every call returns
True.
``associator_defect`` rows time the full algebra at n = 8, 12 and 16 the
same way; a row posts a time only when every call returns 2^(-3/2), as
0.3535533905932737, and names a triple. The ``commutator_defect`` row
times the full algebra at n = 24 and must return 1/2 as 0.4999999999999999
and name a pair. ``derived_algebra`` rows time the
``lie_generate`` closure above at n = 16 and 24, and
``derived_algebra_full`` rows the full algebra at n = 24; each call gets a
fresh copy of the algebra, whose closedness is proven at its bound with no
product formed, so the memo does not answer it; a row posts a time only
when every result has dimension n^2 - 1. The ``is_jordan_associative`` row
times the full algebra at n = 24 and must read False. The
``function_representation`` rows time ``function_representation`` of the
span of the n rank-one projectors u E_kk u^H, with the unitary u of
``conjugated`` below, at n = 12 and 24; a row posts a time only when every
result has n points. The witness rows
time ``avr_witness_search(4, 0, 1000)`` and
``associator_witness_search(6, 0, 1000)``, the searches of ``ljlab witness
--budget 1000``; a row posts a time only when every search finds a witness.
The ``cmd_verify`` rows time ``cmd_verify`` of ``ljlab verify --dim n
--trials 25 --seed 0``, in process, at n = 2, 4 and 6: the benchmark's
verify ops without the report's JSON; a row posts a time only when all 5
checks pass. The ``trial_rngs`` row times ``_trial_rngs(0, 0, 1024)``, the
1024 trial generators of one full chunk, and must yield 1024. The
``classify_wishart`` rows time ``classify`` of the Wishart state
``random_state(n, seed=n)`` against the full algebra at n = 3, 4 and 8,
and the ``classify_block_scalar`` row the state with
weight 0.7 and 0.3 spread evenly over the two blocks of u(2) + u(2) at
n = 4, against that algebra: the benchmark's library classify ops at its
sizes, on an algebra object that has classified the state once. A
Wishart row posts a time only when every verdict is False, the
block-scalar row only when every verdict is True.

The verify row times a cold ``python -m ljlab verify --trials 1000``
process, the n = 2..6 sweep, from start to exit; it posts a time only when
every run passes all 25 checks.

Classify rows: for each n it classifies four states against the default
full algebra (dimension n^2): the pure state vv^T of the CI check,
``v_k`` proportional to k + 1; I/n; and rho_t = (1 - t) I/n + t vv^T at
t = 1e-8, 1e-6 and 1e-4, whose cross-checks no first-step bound settles.
Each state is timed two ways:

- cold: one ``python -m ljlab classify --in FILE`` process per run, its wall
  time from start to exit, interpreter start and import included;
- warm: ``classify(s, L)`` on an algebra object that has classified the
  state once, so its closedness proofs and derived algebra are memoized;
  the associator criterion's exact pass runs again on every call.

A warm run, of a query or of classify, repeats its call k times and posts
the time per call; k is the number of untimed calls, made after the first,
that took 10 ms (k = 1 for calls that long). A warm row records k as
``calls_per_run``; a cold classify row, one process per run, records 1.
Times are at reference speed: each timed interval is scaled by
``perfbench/speed.py``'s probe, sampled just before and just after it. A
row is the median of 5 runs, with their quartiles (``q1_s``, ``q3_s``),
and carries the commit and the
``src/`` line count of the timed tree (``--tree``, default this checkout)
and the peak RSS of the processes that ran it. A row whose verdict is not
``is_classical_commutator``'s (True for I/n) posts no time. Rows are
appended to ``--out``, so the file keeps every run's rows; time the
parent commit and the change one after the other on the same machine,
from clones at paths of equal length (a checkout's path alone moves its
warm rows). ``--only NAME``, repeatable, takes only the rows of that bench
name: a query above, ``verify`` or ``classify_full_algebra``.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE / "perfbench"))
from speed import SpeedProbe  # noqa: E402

ABOUT = "Rows appended by bench_scaling.py, one row a line; its docstring says what each row times."
SIZES = (8, 16, 24)
CLOSURE_SIZES = (8, 12, 16, 24)
#: Each warm query's sizes, the row keys of its result and of that result's
#: check, and the result it must give at n.
QUERIES = {
    "lie_generate": (CLOSURE_SIZES, "closure_dim", "dim_ok", lambda n: n * n - 1),
    "jordan_generate_three": (CLOSURE_SIZES, "closure_dim", "dim_ok", lambda n: n * n),
    "centralizer": ((8, 12, 16, 24), "dim_span", "dim_ok", lambda n: 1),
    "centralizer_blocks": ((16, 24), "dim_span", "dim_ok", lambda n: 2),
    "closedness_blocks": ((24,), "closed", "verdict_ok", lambda n: True),
    "is_semisimple_lie": ((16, 24), "semisimple", "verdict_ok", lambda n: True),
    "is_semisimple_lie_conjugated": ((24,), "semisimple", "verdict_ok", lambda n: True),
    "associator_defect": ((8, 12, 16), "defect", "value_ok", lambda n: 0.3535533905932737),
    "commutator_defect": ((24,), "defect", "value_ok", lambda n: 0.4999999999999999),
    "derived_algebra": ((16, 24), "dim_span", "dim_ok", lambda n: n * n - 1),
    "derived_algebra_full": ((24,), "dim_span", "dim_ok", lambda n: n * n - 1),
    "is_jordan_associative": ((24,), "associative", "verdict_ok", lambda n: False),
    "function_representation": ((12, 24), "num_points", "points_ok", lambda n: n),
    "avr_witness_search": ((4,), "found", "found_ok", lambda n: True),
    "associator_witness_search": ((6,), "found", "found_ok", lambda n: True),
    "cmd_verify": ((2, 4, 6), "checks_passed", "passed_ok", lambda n: 5),
    "trial_rngs": ((1024,), "streams", "count_ok", lambda n: n),
    "classify_wishart": ((3, 4, 8), "classical", "verdict_ok", lambda n: False),
    "classify_block_scalar": ((4,), "classical", "verdict_ok", lambda n: True),
}
RUNS = 5
#: Each state is (1 - t) I/n + t vv^T at its t.
STATES = {"pure": 1.0, "mixed": 0.0, "rho_t=1e-08": 1e-8, "rho_t=1e-06": 1e-6, "rho_t=1e-04": 1e-4}


def state_matrix(n: int, t: float) -> list[list[float]]:
    """The real matrix (1 - t) I/n + t vv^T."""
    v = [(k + 1) / (n * (n + 1) * (2 * n + 1) / 6) ** 0.5 for k in range(n)]
    return [[(1 - t) * (a == b) / n + t * v[a] * v[b] for b in range(n)] for a in range(n)]


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


def warm_worker(tree: Path, path: str) -> None:
    """Print the warm times, classify's verdict and the commutator criterion's, and this process's peak RSS."""
    import resource

    sys.path.insert(0, str(tree / "src"))
    import numpy as np

    from ljlab import CriteriaDisagree, State, classify, full_hermitian_space, is_classical_commutator

    doc = json.loads(Path(path).read_text())
    s = State(np.array(doc["re"]) + 1j * np.array(doc["im"]))
    L = full_hermitian_space(s.dim)
    expected = is_classical_commutator(s, L).classical
    probe = SpeedProbe()
    times, classical, k = [], None, None
    try:
        classify(s, L)
        k = calls_per_run(lambda: classify(s, L))
        for _ in range(RUNS):
            dt, verdict = timed(probe, lambda: classify(s, L), k)
            times.append(dt)
        classical = verdict.classical
    except CriteriaDisagree as exc:
        print(f"classify {path}: {exc}", file=sys.stderr)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps({"times": times, "calls": k, "classical": classical, "expected": expected, "rss_mb": rss}))


def query_worker(tree: Path, name: str, n: int) -> None:
    """Print one query's warm times and results at n, and this process's peak RSS."""
    import resource

    sys.path.insert(0, str(tree / "src"))
    import numpy as np

    from ljlab import (
        RealSubspace,
        State,
        associator_defect,
        associator_witness_search,
        avr_witness_search,
        centralizer,
        classify,
        commutator_defect,
        derived_algebra,
        full_hermitian_basis,
        full_hermitian_space,
        function_representation,
        is_closed_under,
        is_jordan_associative,
        is_semisimple_lie,
        jordan,
        jordan_generate_three,
        lie,
        lie_generate,
        random_hermitian,
        random_state,
        span,
        traceless,
    )

    def su(n: int) -> RealSubspace:
        return lie_generate(traceless(random_hermitian(n, seed=n)), traceless(random_hermitian(n, seed=n + 1))).closure

    def two_blocks() -> list:
        """The basis of u(n/2) + u(n - n/2): each block's canonical basis, padded with zeros."""
        blocks = []
        for off, k in ((0, n // 2), (n // 2, n - n // 2)):
            for e in full_hermitian_basis(k):
                blocks.append(np.zeros((n, n), dtype=complex))
                blocks[-1][off : off + k, off : off + k] = e
        return blocks

    def conjugated(mats: list) -> RealSubspace:
        """The span of u m u^H over mats, u the unitary factor of a complex Gaussian matrix from seed n."""
        rng = np.random.default_rng(n)
        u, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        return span([u @ m @ u.conj().T for m in mats])

    if name in ("derived_algebra", "derived_algebra_full"):
        L = su(n) if name == "derived_algebra" else full_hermitian_space(n)

        def query() -> int:
            return derived_algebra(RealSubspace(L.dim_ambient, L.rows)).dim_span

    elif name == "is_jordan_associative":
        L = full_hermitian_space(n)

        def query() -> bool:
            return is_jordan_associative(L)

    elif name == "function_representation":
        L = conjugated([np.diag(np.eye(n)[k]).astype(complex) for k in range(n)])

        def query() -> int:
            return function_representation(L).num_points

    elif name in ("avr_witness_search", "associator_witness_search"):
        search = {"avr_witness_search": avr_witness_search, "associator_witness_search": associator_witness_search}[name]

        def query() -> bool:
            return search(n, 0, 1000).found

    elif name == "cmd_verify":
        from ljlab.cli import SessionConfig, cmd_verify

        cfg = SessionConfig(command="verify", dim=n, trials=25, seed=0)

        def query() -> int:
            return cmd_verify(cfg)[1]["checks_passed"]

    elif name == "centralizer":
        L = full_hermitian_space(n)

        def query() -> int:
            return centralizer(L, L).dim_span

    elif name in ("associator_defect", "commutator_defect"):
        L = full_hermitian_space(n)
        defect = {"associator_defect": associator_defect, "commutator_defect": commutator_defect}[name]

        def query() -> float | None:
            value, where = defect(L)
            return value if where is not None else None

    elif name == "centralizer_blocks":
        L = conjugated(two_blocks())

        def query() -> int:
            return centralizer(L, L).dim_span

    elif name == "closedness_blocks":
        L = conjugated(two_blocks())

        def query() -> bool:
            return all(is_closed_under(RealSubspace(L.dim_ambient, L.rows), p) for p in (jordan, lie))

    elif name == "trial_rngs":
        from ljlab.linalg import _trial_rngs

        def query() -> int:
            return sum(len(rngs) for rngs in _trial_rngs(0, 0, n))

    elif name in ("classify_wishart", "classify_block_scalar"):
        if name == "classify_wishart":
            L, s = full_hermitian_space(n), random_state(n, seed=n)
        else:
            L = span(two_blocks())
            # weight 0.7 on the first block, 0.3 on the second, as a multiple of each block's identity
            k = [n // 2, n - n // 2]
            s = State(np.diag(np.repeat([0.7 / k[0], 0.3 / k[1]], k)).astype(complex))

        def query() -> bool:
            return classify(s, L).classical

    elif name in ("is_semisimple_lie", "is_semisimple_lie_conjugated"):
        if name == "is_semisimple_lie":
            L = su(n)
        else:
            steps = [np.diag(np.eye(n)[k] - np.eye(n)[k + 1]).astype(complex) for k in range(n - 1)]
            L = conjugated([*full_hermitian_basis(n)[n:], *steps])

        def query() -> bool:
            return is_semisimple_lie(L)

    else:
        a, b = random_hermitian(n, seed=n), random_hermitian(n, seed=n + 1)
        if name == "lie_generate":
            a, b = traceless(a), traceless(b)
        generate = {"lie_generate": lie_generate, "jordan_generate_three": jordan_generate_three}[name]

        def query() -> int:
            return generate(a, b).closure_dim

    probe = SpeedProbe()
    results = [query()]
    k = calls_per_run(query)
    times = []
    for _ in range(RUNS):
        dt, result = timed(probe, query, k)
        times.append(dt)
        results.append(result)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps({"times": times, "calls": k, "results": results, "rss_mb": rss}))


def cold_runs(tree: Path, args: list[str], probe: SpeedProbe, verdict) -> tuple[list[float], set, float]:
    """Cold ``python -m ljlab *args`` times, ``verdict`` of each report (None on a nonzero exit), and their peak RSS."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    times, verdicts, rss = [], set(), 0.0
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
            verdicts.add(verdict(json.load(out)) if code == 0 else None)
        times.append(dt)
        rss = max(rss, child_rss)
    return times, verdicts, rss


def tree_facts(tree: Path) -> dict:
    def git(*args: str) -> str:
        done = subprocess.run(["git", "-C", str(tree), *args], capture_output=True, text=True)
        return done.stdout.strip() if done.returncode == 0 else ""

    lines = sum(len(p.read_text().splitlines()) for p in sorted((tree / "src" / "ljlab").glob("*.py")))
    return {
        "commit": git("rev-parse", "--short", "HEAD") or "unknown",
        "src_dirty": bool(git("status", "--porcelain", "--", "src")),
        "src_lines": lines,
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tree", type=Path, default=HERE, help="checkout whose src/ is timed")
    ap.add_argument("--out", type=Path, default=HERE / "BENCH_scaling.json")
    ap.add_argument("--only", action="append", metavar="NAME", help="take only this bench's rows; repeatable")
    ap.add_argument("--warm-worker", metavar="STATE_FILE", help=argparse.SUPPRESS)
    ap.add_argument("--query-worker", nargs=2, metavar=("QUERY", "N"), help=argparse.SUPPRESS)
    args = ap.parse_args()
    tree = args.tree.resolve()
    if args.warm_worker:
        return warm_worker(tree, args.warm_worker)
    if args.query_worker:
        return query_worker(tree, args.query_worker[0], int(args.query_worker[1]))

    common = {
        **tree_facts(tree),
        "taken": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "host": f"{platform.machine()}, {os.cpu_count()} cpus, Python {platform.python_version()}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "time": f"median of {RUNS} runs, seconds at reference speed (perfbench/speed.py)",
    }
    names = [*QUERIES, "verify", "classify_full_algebra"]
    unknown = set(args.only or ()) - set(names)
    if unknown:
        ap.error(f"unknown bench {sorted(unknown)}; choose from {names}")
    taken = set(args.only or names)
    probe = SpeedProbe()
    rows = []
    for name, (sizes, key, ok_key, want) in QUERIES.items():
        for n in sizes if name in taken else ():
            cmd = [sys.executable, __file__, "--tree", str(tree), "--query-worker", name, str(n)]
            got = json.loads(subprocess.run(cmd, capture_output=True, text=True, check=True).stdout)
            good = set(got["results"]) == {want(n)}
            rows.append({
                **common,
                "bench": name,
                "mode": "warm",
                "n": n,
                key: want(n),
                ok_key: good,
                **spread(got["times"], good),
                "calls_per_run": got["calls"],
                "peak_rss_mb": round(got["rss_mb"], 1),
            })
            print(json.dumps(rows[-1]), flush=True)
    def sweep(report: dict) -> bool:
        return report["summary"]["all_passed"] is True and report["summary"]["checks_total"] == 25

    if "verify" in taken:
        times, verdicts, rss = cold_runs(tree, ["verify", "--trials", "1000"], probe, sweep)
        good = verdicts == {True}
        rows.append({
            **common,
            "bench": "verify",
            "mode": "cold",
            "dims": [2, 3, 4, 5, 6],
            "trials": 1000,
            "passed_ok": good,
            **spread(times, good),
            "peak_rss_mb": round(rss, 1),
        })
        print(json.dumps(rows[-1]), flush=True)
    with tempfile.TemporaryDirectory() as work:
        for n in SIZES if "classify_full_algebra" in taken else ():
            for name, t in STATES.items():
                path = f"{work}/{n}-{name}.json"
                Path(path).write_text(json.dumps({"dim": n, "re": state_matrix(n, t), "im": [[0.0] * n] * n}))
                cmd = [sys.executable, __file__, "--tree", str(tree), "--warm-worker", path]
                warm = json.loads(subprocess.run(cmd, capture_output=True, text=True, check=True).stdout)
                expected = warm["expected"]
                ok = name != "mixed" or expected is True
                cold, verdicts, cold_rss = cold_runs(
                    tree, ["classify", "--in", path], probe, lambda report: report["summary"]["classical"]
                )
                for mode, times, got, rss, k in (
                    ("warm", warm["times"], {warm["classical"]}, warm["rss_mb"], warm["calls"]),
                    ("cold", cold, verdicts, cold_rss, 1),
                ):
                    good = ok and got == {expected}
                    rows.append({
                        **common,
                        "bench": "classify_full_algebra",
                        "mode": mode,
                        "n": n,
                        "state": name,
                        "classical": expected,
                        "verdict_ok": good,
                        **spread(times, good),
                        "calls_per_run": k,
                        "peak_rss_mb": round(rss, 1),
                    })
                    print(json.dumps(rows[-1]), flush=True)
    doc = json.loads(args.out.read_text()) if args.out.exists() else {"about": ABOUT, "rows": []}
    lines = ",\n".join(json.dumps(row) for row in doc["rows"] + rows)
    args.out.write_text(f'{{"about": {json.dumps(doc["about"])}, "rows": [\n{lines}\n]}}\n')


if __name__ == "__main__":
    main()
