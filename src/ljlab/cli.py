"""Command-line interface.

Five subcommands: ``verify`` (identity checks on random observables),
``classify`` (state classicality), ``witness`` (randomized witness search),
``generate`` (two- and three-element generation experiments), and ``repr``
(function representation of a commuting subalgebra). Every command prints a
JSON report with sorted keys to stdout, so identical invocations produce
byte-identical output; timing goes to stderr only. Exit codes: 0 success,
1 a check or search failed, 2 validation or config error, 3 classicality
criteria disagreement.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from . import __version__
from .errors import (
    CriteriaDisagree,
    DimensionMismatch,
    EmptyInput,
    NotAssociative,
    NotClosed,
    NotHermitian,
    NotInSpan,
    ValidationError,
)
from .jsonio import (
    dumps_report,
    load_json_file,
    matrix_from_json,
    matrix_to_json,
    subspace_from_json,
)
from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    _gaussian_stack,
    _hermitian_part,
    _opnorm,
    _trial_rngs,
    derive_seed,
    random_hermitian,
    traceless,
)
from .products import (
    _associator_identity,
    _jacobi,
    _leibniz,
    _norm_axioms,
    _weak_associativity,
)
from .states import State, classify
from .subspace import (
    full_hermitian_space,
    function_representation,
    jordan_generate_three,
    lie_generate,
    span,
)
from .witness import associator_witness_search, avr_witness_search

__all__ = ["SessionConfig", "Report", "build_parser", "main"]

SWEEP_DIMS = (2, 3, 4, 5, 6)


@dataclass(frozen=True)
class SessionConfig:
    """Validated flag set for one CLI invocation."""

    command: str
    dim: int | None = None
    trials: int = 1000
    seed: int = 0
    budget: int = 1000
    tol: Tolerance = DEFAULT_TOL
    kind: str | None = None
    mode: str | None = None
    in_path: str | None = None
    algebra_path: str | None = None
    out: str | None = None

    def echo(self) -> dict[str, Any]:
        return {
            "dim": self.dim,
            "trials": self.trials,
            "seed": self.seed,
            "budget": self.budget,
            # thresholds always scale with the operand norms; the key keeps reports byte-stable
            "tol": {"zero_tol": self.tol.zero_tol, "rel": True},
            "kind": self.kind,
            "mode": self.mode,
            "in": self.in_path,
            "algebra": self.algebra_path,
        }


@dataclass
class Report:
    """JSON-serializable command outcome; no timing fields by design."""

    command: str
    config: dict[str, Any]
    checks: list[dict[str, Any]] = field(default_factory=list)
    summary: dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> dict[str, Any]:
        return {
            "command": self.command,
            "version": __version__,
            "config": self.config,
            "checks": self.checks,
            "summary": self.summary,
        }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ljlab",
        description="Numerical experiments on Lie-Jordan algebras of Hermitian matrices.",
    )
    parser.add_argument("--version", action="version", version=f"ljlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = {
        "seed": dict(type=int, default=None, help="RNG seed (default: $LJLAB_SEED or 0)"),
        "tol": dict(type=float, default=None, help="zero tolerance override (default 1e-9)"),
        "out": dict(default=None, help="also write the JSON report to this file"),
    }

    # classify and repr draw nothing at random: they take --seed only to echo it
    echoed_seed = dict(
        common["seed"], help="not used; only echoed in the report's config (default: $LJLAB_SEED or 0)"
    )

    def add_common(p: argparse.ArgumentParser, *names: str) -> None:
        for name in names:
            p.add_argument(f"--{name}", **common[name])

    p = sub.add_parser("verify", help="check product identities on random observables")
    p.add_argument("--dim", type=int, default=None, help="dimension; omit to sweep 2..6")
    p.add_argument("--trials", type=int, default=1000, help="random tuples per dimension")
    add_common(p, "seed", "tol", "out")

    p = sub.add_parser("classify", help="test a state for classicality")
    p.add_argument("--in", dest="in_path", required=True, help="state matrix JSON file")
    p.add_argument(
        "--algebra",
        dest="algebra_path",
        default=None,
        help="observable subspace JSON file (default: full Hermitian algebra)",
    )
    p.add_argument("--seed", **echoed_seed)
    add_common(p, "out")

    p = sub.add_parser("witness", help="search for a quantumness witness")
    p.add_argument("--kind", choices=("avr", "associator"), required=True)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--budget", type=int, default=1000, help="random trials before refinement")
    add_common(p, "seed", "tol", "out")

    p = sub.add_parser("generate", help="run generation experiments")
    p.add_argument("--mode", choices=("lie2", "jordan3"), required=True)
    p.add_argument("--dim", type=int, default=3)
    p.add_argument("--trials", type=int, default=3, help="random generator pairs")
    p.add_argument(
        "--in",
        dest="in_path",
        default=None,
        help="JSON file with a fixed generator pair {\"a\": ..., \"b\": ...}",
    )
    add_common(p, "seed", "out")

    p = sub.add_parser("repr", help="function representation of a commuting subalgebra")
    p.add_argument("--algebra", dest="algebra_path", required=True)
    p.add_argument("--seed", **echoed_seed)
    add_common(p, "out")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """``build_parser()``, built once per process; parsing leaves it unchanged."""
    return build_parser()


def _config_from_args(args: argparse.Namespace) -> SessionConfig:
    seed = getattr(args, "seed", None)
    if seed is None:
        env = os.environ.get("LJLAB_SEED")
        if env is not None:
            try:
                seed = int(env)
            except ValueError as exc:
                raise ValidationError(f"LJLAB_SEED must be an integer, got {env!r}") from exc
        else:
            seed = 0
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")

    tol = DEFAULT_TOL
    tol_arg = getattr(args, "tol", None)
    if tol_arg is not None:
        try:
            tol = Tolerance(zero_tol=tol_arg)
        except ValueError as exc:
            raise ValidationError(f"tol must be positive and finite, got {tol_arg}") from exc

    dim = getattr(args, "dim", None)
    if dim is not None and dim < 1:
        raise ValidationError(f"dim must be >= 1, got {dim}")
    trials = getattr(args, "trials", 1000)
    if trials < 1:
        raise ValidationError(f"trials must be >= 1, got {trials}")
    budget = getattr(args, "budget", 1000)
    if budget < 1:
        raise ValidationError(f"budget must be >= 1, got {budget}")

    return SessionConfig(
        command=args.command,
        dim=dim,
        trials=trials,
        seed=seed,
        budget=budget,
        tol=tol,
        kind=getattr(args, "kind", None),
        mode=getattr(args, "mode", None),
        in_path=getattr(args, "in_path", None),
        algebra_path=getattr(args, "algebra_path", None),
        out=getattr(args, "out", None),
    )


#: Identities in report order: name, defect-and-scale function of the
#: operands and their norms (``products``), arity.
_IDENTITIES: tuple[tuple[str, Callable[..., tuple[np.ndarray, np.ndarray]], int], ...] = (
    ("jacobi", _jacobi, 3),
    ("leibniz", _leibniz, 3),
    ("associator-identity", _associator_identity, 3),
    ("weak-associativity", _weak_associativity, 2),
    ("norm-axioms", _norm_axioms, 2),
)


def cmd_verify(cfg: SessionConfig) -> tuple[Report, bool]:
    dims = (cfg.dim,) if cfg.dim is not None else SWEEP_DIMS
    checks: list[dict[str, Any]] = []
    for d, n in enumerate(dims):
        worst = np.full(len(_IDENTITIES), -np.inf)
        passed = [True] * len(_IDENTITIES)
        for rngs in _trial_rngs(cfg.seed, d * cfg.trials, (d + 1) * cfg.trials):
            g = _gaussian_stack(rngs, n, 3)
            # (3, trials, n, n): slot-major, so each operand is one contiguous stack
            abc = _hermitian_part(np.ascontiguousarray(g.swapaxes(0, 1)))
            norms = _opnorm(abc)
            for i, (_, identity, arity) in enumerate(_IDENTITIES):
                residual, scale = identity(*abc[:arity], *norms[:arity])
                # like residual.max() over all trials, np.maximum propagates a NaN
                worst[i] = np.maximum(worst[i], residual.max())
                passed[i] = passed[i] and bool(np.all(residual <= cfg.tol.threshold(scale)))
        checks += [
            {"name": name, "dim": n, "max_residual": float(worst[i]), "passed": passed[i]}
            for i, (name, _, _) in enumerate(_IDENTITIES)
        ]
    all_passed = all(c["passed"] for c in checks)
    report = Report(
        command="verify",
        config=cfg.echo(),
        checks=checks,
        summary={
            "dims": list(dims),
            "trials_per_dim": cfg.trials,
            "checks_total": len(checks),
            "checks_passed": sum(1 for c in checks if c["passed"]),
            "all_passed": all_passed,
        },
    )
    return report, all_passed


def cmd_classify(cfg: SessionConfig) -> tuple[Report, bool]:
    state = State(matrix_from_json(load_json_file(cfg.in_path)))
    if cfg.algebra_path is not None:
        _, mats = subspace_from_json(load_json_file(cfg.algebra_path))
        algebra = span(mats)
    else:
        algebra = full_hermitian_space(state.dim)
    try:
        verdict = classify(state, algebra)
    except NotClosed as exc:
        raise ValidationError(f"algebra is unusable for classification: {exc}") from exc
    cert: dict[str, Any] | None = None
    if verdict.certificate is not None:
        cert = {
            "observables": [matrix_to_json(m) for m in verdict.certificate.observables],
            "value": verdict.certificate.value,
        }
    checks = [
        {
            "name": f"classical-{verdict.criterion}",
            "dim": state.dim,
            "max_violation": verdict.max_violation,
            "passed": True,
        }
    ]
    report = Report(
        command="classify",
        config=cfg.echo(),
        checks=checks,
        summary={
            "classical": verdict.classical,
            "criterion": verdict.criterion,
            "max_violation": verdict.max_violation,
            "certificate": cert,
            "algebra_dim": algebra.dim_span,
        },
    )
    return report, True


def cmd_witness(cfg: SessionConfig) -> tuple[Report, bool]:
    n = cfg.dim
    search = avr_witness_search if cfg.kind == "avr" else associator_witness_search
    rep = search(n, cfg.seed, cfg.budget, cfg.tol)
    report = Report(
        command="witness",
        config=cfg.echo(),
        checks=[
            {
                "name": f"witness-{rep.kind}",
                "dim": n,
                "violation": rep.violation,
                "passed": rep.found or n == 1,
            }
        ],
        summary={
            "kind": rep.kind,
            "found": rep.found,
            "violation": rep.violation,
            "witness": None if rep.witness is None else matrix_to_json(rep.witness),
            "inputs": [matrix_to_json(m) for m in rep.inputs],
        },
    )
    return report, rep.found or n == 1


def cmd_generate(cfg: SessionConfig) -> tuple[Report, bool]:
    n = cfg.dim
    runner = lie_generate if cfg.mode == "lie2" else jordan_generate_three
    results: list[dict[str, Any]] = []

    def run_pair(a: np.ndarray, b: np.ndarray, label: str, allow_retry: bool, t: int):
        rep = runner(a, b)
        retried = False
        if not rep.generated and allow_retry:
            retried = True
            sa = derive_seed(cfg.seed, 0x10000 + 2 * t)
            sb = derive_seed(cfg.seed, 0x10000 + 2 * t + 1)
            a2, b2 = random_hermitian(n, sa), random_hermitian(n, sb)
            if cfg.mode == "lie2":
                a2, b2 = traceless(a2), traceless(b2)
            rep = runner(a2, b2)
        results.append(
            {
                "name": label,
                "dim": n,
                "closure_dim": rep.closure_dim,
                "target_dim": rep.target_dim,
                "rounds": rep.rounds,
                "trajectory": list(rep.trajectory),
                "retried": retried,
                "passed": rep.generated,
            }
        )

    if cfg.in_path is not None:
        obj = load_json_file(cfg.in_path)
        if not isinstance(obj, dict) or "a" not in obj or "b" not in obj:
            raise ValidationError("generator pair file needs keys 'a' and 'b'")
        a = matrix_from_json(obj["a"])
        b = matrix_from_json(obj["b"])
        n = a.shape[0]
        run_pair(a, b, "pair-fixed", allow_retry=False, t=0)
    else:
        for t in range(cfg.trials):
            a = random_hermitian(n, derive_seed(cfg.seed, 2 * t))
            b = random_hermitian(n, derive_seed(cfg.seed, 2 * t + 1))
            if cfg.mode == "lie2":
                a, b = traceless(a), traceless(b)
            run_pair(a, b, f"pair-{t}", allow_retry=True, t=t)

    all_generated = all(r["passed"] for r in results)
    report = Report(
        command="generate",
        config=cfg.echo(),
        checks=results,
        summary={
            "mode": cfg.mode,
            "pairs": len(results),
            "generated": sum(1 for r in results if r["passed"]),
            "all_generated": all_generated,
        },
    )
    return report, all_generated


def cmd_repr(cfg: SessionConfig) -> tuple[Report, bool]:
    _, mats = subspace_from_json(load_json_file(cfg.algebra_path))
    algebra = span(mats)
    base = Report(command="repr", config=cfg.echo())
    try:
        fr = function_representation(algebra)
    except (NotClosed, NotAssociative) as exc:
        base.checks = [
            {
                "name": "function-representation",
                "dim": algebra.dim_ambient,
                "passed": False,
            }
        ]
        base.summary = {
            "error": type(exc).__name__,
            "detail": str(exc),
            "algebra_dim": algebra.dim_span,
        }
        return base, False
    base.checks = [
        {
            "name": "function-representation",
            "dim": algebra.dim_ambient,
            "passed": True,
        }
    ]
    base.summary = {
        "algebra_dim": algebra.dim_span,
        "num_points": fr.num_points,
        "points": fr.points.tolist(),
        "projectors": [matrix_to_json(p) for p in fr.projectors],
    }
    return base, True


_COMMANDS: dict[str, Callable[[SessionConfig], tuple[Report, bool]]] = {
    "verify": cmd_verify,
    "classify": cmd_classify,
    "witness": cmd_witness,
    "generate": cmd_generate,
    "repr": cmd_repr,
}


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    start = time.perf_counter()
    try:
        cfg = _config_from_args(args)
        report, ok = _COMMANDS[args.command](cfg)
        text = dumps_report(report.to_json())
        if cfg.out is not None:
            # written before stdout, so a failed write leaves no partial report
            try:
                with open(cfg.out, "w", encoding="utf-8") as fh:
                    fh.write(text + "\n")
            except OSError as exc:
                raise ValidationError(f"cannot write {cfg.out}: {exc}") from exc
    except (ValidationError, DimensionMismatch, NotHermitian, NotInSpan, EmptyInput) as exc:
        # bad input data, same footing as bad flags
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CriteriaDisagree as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    print(text)
    elapsed = time.perf_counter() - start
    print(f"{args.command}: done in {elapsed:.2f}s", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
