"""Run one workload: set up, time its passes, check every op, report metrics.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs half the
passes untraced, then the same passes again with the tracer installed, and
reports the per-layer metrics; it also requires the traced outputs to equal
the untraced ones, op for op.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

import check
import tracer as tracing
import workloads
from speed import REFERENCE_S, SpeedProbe

SETUP_REPEATS = 5
TAIL_BEYOND = 10  # op_tail_ms: the highest percentile with this many ops beyond it
OUT_DIR = ".perfbench_out"


@dataclass
class Record:
    op: workloads.Op
    pass_index: int
    start: float
    raw_s: float  # measured latency
    problems: list[str]
    canon: Any  # output as compared between traced and untraced passes
    latency_s: float = 0.0  # raw_s at the reference machine speed (speed.py)


def import_fresh() -> Any:
    """Import ljlab from scratch, dropping any earlier import of it."""
    for name in [m for m in sys.modules if m == "ljlab" or m.startswith("ljlab.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    lj = importlib.import_module("ljlab")
    importlib.import_module("ljlab.cli")
    return lj


def run_op(op: workloads.Op, checker: check.Checker, pass_index: int) -> Record:
    t0 = time.perf_counter()
    try:
        raw = op.call()
    except (Exception, SystemExit) as exc:  # a failed op is counted, the run goes on
        latency = time.perf_counter() - t0
        detail = "".join(traceback.format_exception_only(type(exc), exc)).strip()
        return Record(op, pass_index, t0, latency, [f"raised {detail}"], f"raised {type(exc).__name__}")
    latency = time.perf_counter() - t0
    try:
        problems = checker.check(op, raw)
        canon = raw if op.cli else op.fields(raw)
    except Exception as exc:  # a malformed output is a failed op too
        problems = [f"output check raised {type(exc).__name__}: {exc}"]
        canon = None
    return Record(op, pass_index, t0, latency, problems, canon)


def run_passes(
    passes: list[list[workloads.Op]],
    checker: check.Checker,
    probe: SpeedProbe,
    tracer: tracing.Tracer | None = None,
) -> list[Record]:
    records = []
    probe.sample()
    for k, ops in enumerate(passes):
        for op in ops:
            probe.due()
            if tracer is None:
                records.append(run_op(op, checker, k))
            else:
                with tracer.op_span(len(records)):
                    records.append(run_op(op, checker, k))
        probe.sample()
    for r in records:
        r.latency_s = r.raw_s * probe.factor(r.start, r.start + r.raw_s)
    return records


def pass_times(records: list[Record]) -> list[float]:
    sums: dict[int, float] = {}
    for r in records:
        sums[r.pass_index] = sums.get(r.pass_index, 0.0) + r.latency_s
    return [sums[k] for k in sorted(sums)]


def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with TAIL_BEYOND ops beyond it, and that percentile."""
    ordered = sorted(latencies)
    n = len(ordered)
    k = max(0, n - 1 - TAIL_BEYOND)
    return ordered[k], 100.0 * (k + 1) / n


def op_curve(records: list[Record]) -> dict[str, float]:
    """Median latency of each op class at each n: op.<class>.n<N>_ms."""
    groups: dict[str, list[float]] = {}
    for r in records:
        groups.setdefault(f"op.{r.op.cls}.n{r.op.n}_ms", []).append(r.latency_s)
    return {k: 1e3 * statistics.median(v) for k, v in sorted(groups.items())}


def shares(records: list[Record]) -> dict[str, float]:
    """Reuse share (ops on an algebra object an earlier op already queried)
    and bound share (closures from generators that reach n^2 or n^2 - 1)."""
    seen: set[int] = set()
    reused = 0
    for r in records:
        if r.op.algebra is not None:
            reused += id(r.op.algebra) in seen
            seen.add(id(r.op.algebra))
    gens = [r for r in records if r.op.generates and isinstance(r.canon, (dict, tuple))]
    reached = 0
    for r in gens:
        fields = r.op.fields(r.canon) if r.op.cli else r.canon
        reached += bool(fields.get("generated") or fields.get("summary.generated"))
    return {
        "workload.reuse_share": reused / len(records),
        "workload.bound_share": reached / len(gens) if gens else 0.0,
    }


def src_lines(src: Path) -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sorted(src.rglob("*.py")))


def environment(lj: Any, root: Path) -> dict[str, Any]:
    env: dict[str, Any] = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "ljlab": getattr(lj, "__version__", "unknown"),
        "nproc": os.cpu_count(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "src_lines": src_lines(root / "src" / "ljlab"),
        "src_sha256": hashlib.sha256(
            b"".join(p.read_bytes() for p in sorted((root / "src" / "ljlab").rglob("*.py")))
        ).hexdigest(),
        "git_commit": git_commit(root),
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):  # numpy's build-info layout varies by version
        env["blas"] = "unknown"
    env["blas_threads"] = blas_threads()
    return env


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if it is one."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        path = root / ".git" / ref[5:]
        return path.read_text().strip() if path.is_file() else ref[5:]
    return ref


def end_to_end(records: list[Record], setup_times: list[float]) -> tuple[dict[str, float], dict[str, Any]]:
    lat = [r.latency_s for r in records]
    tail_s, pct = tail(lat)
    failed = sum(1 for r in records if r.problems)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(pass_times(records)),
        "op_p50_ms": 1e3 * statistics.median(lat),
        "op_tail_ms": 1e3 * tail_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_ratio": (len(records) - failed) / len(records),
    }
    extra = {"op_tail_percentile": pct, "ops": len(records), "fail_ratio": failed / len(records)}
    return metrics, extra


def layers_self_pct(tracer: tracing.Tracer) -> float:
    """Summed self time of every layer span, as a share of traced op time."""
    a = tracer.arrays()
    root = a["tid"] == 0
    return 100.0 * float(a["self_s"][~root].sum()) / float((a["end"] - a["start"])[root].sum())


def per_layer(tracer: tracing.Tracer, traced: list[Record], untraced: list[Record]) -> dict[str, float]:
    a = tracer.arrays()
    names = tracer.names
    tid, parent, self_s = a["tid"], a["parent"], a["self_s"]
    passes = len(pass_times(traced))
    self_by = np.bincount(tid, weights=self_s, minlength=len(names))
    calls_by = np.bincount(tid, minlength=len(names))
    x_by = np.bincount(tid, weights=a["x"], minlength=len(names))
    y_by = np.bincount(tid, weights=a["y"], minlength=len(names))
    op_time = float(np.sum((a["end"] - a["start"])[tid == 0]))
    ids = {name: i for i, name in enumerate(names)}

    def pct(layer: str) -> float:
        sel = [i for i, l in enumerate(tracer.layers) if l == layer or l.startswith(layer + ".")]
        return 100.0 * float(self_by[sel].sum()) / op_time

    def calls(*targets: str) -> float:
        return float(sum(calls_by[ids[t]] for t in targets)) / passes

    # product calls made inside closure rounds: walk each span's ancestors
    rounds_id = ids["subspace._close_rounds"]
    inside = np.zeros(len(tid), dtype=bool)
    anc = parent.copy()
    live = anc >= 0
    while live.any():
        inside[live] |= tid[anc[live]] == rounds_id
        anc[live] = parent[anc[live]]
        live = anc >= 0
    product_ids = [ids["products.jordan"], ids["products.lie"]]
    round_products = int(np.count_nonzero(inside & np.isin(tid, product_ids)))

    classify_ops = [i for i, r in enumerate(traced) if r.op.cls.startswith("lib.classify.")]
    proofs = np.count_nonzero((tid == ids["subspace.is_closed_under"]) & np.isin(a["op"], classify_ops))
    in_mats, kept = float(x_by[ids["subspace.span"]]), float(y_by[ids["subspace.span"]])
    # slowest op class at the smallest and at the largest n: the ends of the n-scaling curve
    by_class: dict[tuple[str, int], list[float]] = {}
    for r in untraced:
        by_class.setdefault((r.op.cls, r.op.n), []).append(r.latency_s)
    medians = {key: statistics.median(v) for key, v in by_class.items()}
    ns = [n for _, n in medians]
    traced_pass = statistics.median(pass_times(traced))

    metrics = {
        "linalg.spectral_norm.calls": calls("linalg.spectral_norm"),
        "linalg.spectral_norm.self_pct": pct("linalg.spectral_norm"),
        "products.jordan.calls": calls("products.jordan"),
        "products.lie.calls": calls("products.lie"),
        "products.self_pct": pct("products"),
        "witness.search.calls": calls("witness.avr_witness_search", "witness.associator_witness_search"),
        "witness.search.self_pct": pct("witness.search"),
        "subspace.span.calls": calls("subspace.span"),
        "subspace.span.in_mats": in_mats / passes,
        "subspace.span.kept": kept / passes,
        "subspace.span.keep_ratio": kept / in_mats if in_mats else 0.0,
        "subspace.span.self_pct": pct("subspace.span"),
        "subspace.close_rounds.calls": calls("subspace._close_rounds"),
        "subspace.close_rounds.rounds": float(x_by[rounds_id]) / passes,
        "subspace.close_rounds.products": round_products / passes,
        "subspace.close_rounds.self_pct": pct("subspace.close_rounds"),
        "subspace.queries.is_closed_under.calls": calls("subspace.is_closed_under"),
        "subspace.queries.is_closed_under.calls_per_op": proofs / len(classify_ops) if classify_ops else 0.0,
        "subspace.queries.is_closed_under.self_pct": pct("subspace.queries.is_closed_under"),
        "subspace.queries.derived_algebra.self_pct": pct("subspace.queries.derived_algebra"),
        "subspace.queries.defects.self_pct": pct("subspace.queries.defects"),
        "subspace.queries.killing.self_pct": pct("subspace.queries.killing"),
        "subspace.queries.function_representation.self_pct": pct("subspace.queries.function_representation"),
        "states.associator.self_pct": pct("states.associator"),
        "states.commutator.self_pct": pct("states.commutator"),
        "states.center.self_pct": pct("states.center"),
        "jsonio.dumps.self_pct": pct("jsonio.dumps"),
        "jsonio.bytes_out": float(x_by[ids["jsonio.dumps_report"]]) / passes,
        "jsonio.parse.self_pct": pct("jsonio.parse"),
        "cli.main.self_pct": pct("cli.main"),
        "op.unattributed_pct": pct(tracing.ROOT),
        "op.nmin_ms": 1e3 * max(v for (_, n), v in medians.items() if n == min(ns)),
        "op.nmax_ms": 1e3 * max(v for (_, n), v in medians.items() if n == max(ns)),
        "trace.pass_s": traced_pass,
        "trace.overhead_ratio": traced_pass / statistics.median(pass_times(untraced)),
    }
    metrics.update(shares(untraced))
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="ljlab benchmark: one workload, one run.")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="run length at the reference commit")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    root = Path(__file__).resolve().parent.parent
    out_dir = root / OUT_DIR
    spec = workloads.WORKLOADS[args.workload]
    count = max(2, round(args.seconds / spec.nominal_pass_s))
    reference = check.load_reference()

    probe = SpeedProbe()
    probe.sample()
    setup_raw = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        lj = import_fresh()
        wl = spec(lj, out_dir / "work" / args.workload)
        passes = wl.passes(args.seed, count)
        for op in wl.warmups():
            op.call()
        setup_raw.append((t0, time.perf_counter() - t0))
        probe.sample()
    setup_times = [dt * probe.factor(t0, t0 + dt) for t0, dt in setup_raw]
    checker = check.Checker(lj.DEFAULT_TOL, reference)
    env = environment(lj, root)

    if args.trace:
        half = passes[: max(1, count // 2)]
        untraced = run_passes(half, checker, probe)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = run_passes(half, checker, probe, tracer)
        finally:
            tracer.uninstall()
        mismatched = 0
        for u, t in zip(untraced, traced):
            if u.canon != t.canon:
                t.problems.append("traced output differs from the untraced output")
                mismatched += 1
        records = untraced + traced
        metrics = per_layer(tracer, traced, untraced)
        metrics["src.lines"] = float(env["src_lines"])
        tracer.write(out_dir / f"spans-{args.workload}.npz")
        extra: dict[str, Any] = {
            "absent_targets": tracer.absent,
            "traced_mismatches": mismatched,
            "spans": len(tracer.tid),
            "layers_self_pct": layers_self_pct(tracer),
            "op_curve": op_curve(untraced),
            "pass_times_s": {"untraced": pass_times(untraced), "traced": pass_times(traced)},
        }
    else:
        records = run_passes(passes, checker, probe)
        metrics, extra = end_to_end(records, setup_times)
        extra.update(shares(records))
        extra["op_curve"] = op_curve(records)
        extra["passes"] = count
        extra["pass_times_s"] = pass_times(records)
        extra["latencies_ms"] = [[r.op.key, r.pass_index, 1e3 * r.latency_s, 1e3 * r.raw_s] for r in records]

    declared = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if units.keys() != metrics.keys():
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(units.keys() ^ metrics.keys())}")
    failed = sum(1 for r in records if r.problems)
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": env,
        "setup_times_s": setup_times,
        "setup_raw_s": [dt for _, dt in setup_raw],
        "speed_factors": [REFERENCE_S / k for k in probe.kernel_s],
        "failures": [{"op": r.op.key, "problems": r.problems} for r in records if r.problems][:50],
        **extra,
        "result": result,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(summary(detail))
    print(json.dumps(result))
    return 0


def summary(detail: dict[str, Any]) -> str:
    env = detail["environment"]
    lines = [
        f"workload {detail['workload']} seed {detail['seed']} trace {detail['trace']}",
        "environment: " + ", ".join(f"{k}={env[k]}" for k in sorted(env)),
    ]
    for key in ("ops", "passes", "op_tail_percentile", "fail_ratio", "workload.reuse_share",
                "workload.bound_share", "spans", "layers_self_pct", "absent_targets", "traced_mismatches"):
        if key in detail:
            lines.append(f"{key}: {detail[key]}")
    for name, m in detail["result"]["metrics"].items():
        lines.append(f"  {name} = {m['value']:.6g} {m['unit']}")
    for key, value in detail.get("op_curve", {}).items():
        lines.append(f"  {key} = {value:.4g}")
    for f in detail["failures"][:10]:
        lines.append(f"FAILED {f['op']}: {'; '.join(f['problems'])[:300]}")
    return "\n".join(lines)

