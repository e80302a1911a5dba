"""Command-line interface.

Five subcommands: ``verify`` (identity checks on random observables),
``classify`` (state classicality), ``witness`` (the optimal witness of a
kind, in a frame drawn from the seed), ``generate`` (two- and three-element
generation experiments), and ``repr`` (function representation of a
commuting subalgebra). Every command prints a JSON report with sorted keys
to stdout, so identical invocations produce byte-identical output; timing
goes to stderr only. ``main`` builds every report from five keys:
``command``, ``version``, ``config`` (``echo``), and the ``checks`` and
``summary`` that the command's ``cmd_*`` returns. Exit codes: 0 success, 1
a check or search failed, 2 validation or config error, 3 classicality
criteria disagreement. Each ``cmd_*`` imports the modules it calls when it
runs, so ``verify`` and ``witness`` never load ``subspace`` or ``states``.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Any, Callable

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
from .linalg import DEFAULT_TOL, Tolerance, _require_seed, derive_seed, random_hermitian, traceless
from .products import _verify_trials

if TYPE_CHECKING:
    from .subspace import RealSubspace

__all__ = ["SessionConfig", "build_parser", "main"]

SWEEP_DIMS = (2, 3, 4, 5, 6)

#: What a ``cmd_*`` returns: the report's checks and summary, and whether it passed.
Outcome = tuple[list[dict[str, Any]], dict[str, Any], bool]


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

    p = sub.add_parser("witness", help="build the optimal quantumness witness of a kind")
    p.add_argument("--kind", choices=("avr", "associator"), required=True)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--budget", type=int, default=1000, help="checked as an integer >= 1; has no effect on the report")
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
    """The flags as a SessionConfig; a flag the command lacks keeps its field default."""
    seed = getattr(args, "seed", None)
    if seed is None:
        env = os.environ.get("LJLAB_SEED", "0")
        try:
            seed = int(env)
        except ValueError as exc:
            raise ValidationError(f"LJLAB_SEED must be an integer, got {env!r}") from exc
    seed = _require_seed(seed)

    tol = DEFAULT_TOL
    tol_arg = getattr(args, "tol", None)
    if tol_arg is not None:
        try:
            tol = Tolerance(zero_tol=tol_arg)
        except ValidationError as exc:
            raise ValidationError(f"tol must be positive and finite, got {tol_arg}") from exc

    given = {f.name: getattr(args, f.name) for f in fields(SessionConfig) if hasattr(args, f.name)}
    cfg = SessionConfig(**{**given, "seed": seed, "tol": tol})
    for name in ("dim", "trials", "budget"):
        value = getattr(cfg, name)
        if value is not None and value < 1:
            raise ValidationError(f"{name} must be >= 1, got {value}")
    return cfg


def cmd_verify(cfg: SessionConfig) -> Outcome:
    dims = (cfg.dim,) if cfg.dim is not None else SWEEP_DIMS
    checks: list[dict[str, Any]] = []
    for d, n in enumerate(dims):
        checks += [
            {"name": name, "dim": n, "max_residual": worst, "passed": passed}
            for name, worst, passed in _verify_trials(n, cfg.seed, d * cfg.trials, (d + 1) * cfg.trials, cfg.tol)
        ]
    all_passed = all(c["passed"] for c in checks)
    summary = {
        "dims": list(dims),
        "trials_per_dim": cfg.trials,
        "checks_total": len(checks),
        "checks_passed": sum(1 for c in checks if c["passed"]),
        "all_passed": all_passed,
    }
    return checks, summary, all_passed


def _load_algebra(path: str) -> RealSubspace:
    """The span of the matrices in a subspace JSON file."""
    from .subspace import span

    _, mats = subspace_from_json(load_json_file(path))
    return span(mats)


def cmd_classify(cfg: SessionConfig) -> Outcome:
    from .states import State, classify
    from .subspace import full_hermitian_space

    state = State(matrix_from_json(load_json_file(cfg.in_path)))
    if cfg.algebra_path is not None:
        algebra = _load_algebra(cfg.algebra_path)
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
    summary = {
        "classical": verdict.classical,
        "criterion": verdict.criterion,
        "max_violation": verdict.max_violation,
        "certificate": cert,
        "algebra_dim": algebra.dim_span,
    }
    return checks, summary, True


def cmd_witness(cfg: SessionConfig) -> Outcome:
    from .witness import associator_witness_search, avr_witness_search

    n = cfg.dim
    search = avr_witness_search if cfg.kind == "avr" else associator_witness_search
    rep = search(n, cfg.seed, cfg.tol)
    ok = rep.found or n == 1
    checks = [{"name": f"witness-{rep.kind}", "dim": n, "violation": rep.violation, "passed": ok}]
    summary = {
        "kind": rep.kind,
        "found": rep.found,
        "violation": rep.violation,
        "witness": None if rep.witness is None else matrix_to_json(rep.witness),
        "inputs": [matrix_to_json(m) for m in rep.inputs],
    }
    return checks, summary, ok


def cmd_generate(cfg: SessionConfig) -> Outcome:
    """Generation from fixed or random pairs; a failed random pair is retried once.

    Random pair t is ``draw(2t)`` and its one retry ``draw(0x10000 + 2t)``;
    a fixed ``--in`` pair is never retried.
    """
    from .subspace import jordan_generate_three, lie_generate

    runner = lie_generate if cfg.mode == "lie2" else jordan_generate_three

    def draw(k: int) -> tuple[np.ndarray, np.ndarray]:
        """Generators from seeds ``derive_seed(seed, k)`` and ``k + 1``; traceless for lie2."""
        a, b = (random_hermitian(cfg.dim, derive_seed(cfg.seed, k + i)) for i in (0, 1))
        return (traceless(a), traceless(b)) if cfg.mode == "lie2" else (a, b)

    if cfg.in_path is not None:
        obj = load_json_file(cfg.in_path)
        if not isinstance(obj, dict) or "a" not in obj or "b" not in obj:
            raise ValidationError("generator pair file needs keys 'a' and 'b'")
        pairs = [("pair-fixed", (matrix_from_json(obj["a"]), matrix_from_json(obj["b"])), None)]
    else:
        pairs = ((f"pair-{t}", draw(2 * t), 0x10000 + 2 * t) for t in range(cfg.trials))

    checks: list[dict[str, Any]] = []
    for label, (a, b), retry in pairs:
        rep = runner(a, b)
        retried = not rep.generated and retry is not None
        if retried:
            rep = runner(*draw(retry))
        checks.append(
            {
                "name": label,
                "dim": a.shape[0],
                "closure_dim": rep.closure_dim,
                "target_dim": rep.target_dim,
                "rounds": rep.rounds,
                "trajectory": list(rep.trajectory),
                "retried": retried,
                "passed": rep.generated,
            }
        )
    all_generated = all(c["passed"] for c in checks)
    summary = {
        "mode": cfg.mode,
        "pairs": len(checks),
        "generated": sum(1 for c in checks if c["passed"]),
        "all_generated": all_generated,
    }
    return checks, summary, all_generated


def cmd_repr(cfg: SessionConfig) -> Outcome:
    from .subspace import function_representation

    algebra = _load_algebra(cfg.algebra_path)
    try:
        fr = function_representation(algebra)
    except (NotClosed, NotAssociative) as exc:
        summary: dict[str, Any] = {"error": type(exc).__name__, "detail": str(exc)}
    else:
        summary = {
            "num_points": fr.num_points,
            "points": fr.points.tolist(),
            "projectors": [matrix_to_json(p) for p in fr.projectors],
        }
    ok = "error" not in summary
    summary["algebra_dim"] = algebra.dim_span
    return [{"name": "function-representation", "dim": algebra.dim_ambient, "passed": ok}], summary, ok


_COMMANDS: dict[str, Callable[[SessionConfig], Outcome]] = {
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
        checks, summary, ok = _COMMANDS[cfg.command](cfg)
        text = dumps_report(
            {
                "command": cfg.command,
                "version": __version__,
                "config": cfg.echo(),
                "checks": checks,
                "summary": summary,
            }
        )
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
