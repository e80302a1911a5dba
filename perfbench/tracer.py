"""Span tracer that wraps ljlab functions from outside the package.

``Tracer.install`` replaces each target function with one wrapper object and
rebinds that same object under every name, in every ``ljlab`` module, that
referred to the original. Partial rebinding would be wrong, not just
incomplete: ``subspace._product_pairs`` dispatches on ``product is jordan``,
so a caller holding the wrapper while ``subspace`` still holds the original
would silently take the all-pairs path and do more work.

A target that the package no longer defines is listed in ``absent`` and
reports zero calls; it is not an error, so the benchmark outlives refactors
that delete or rename the functions it watches.

Spans stay in memory as flat arrays (one entry per call: target id, parent
span, op index, start, end, self time and two per-target counters) and are
written once, by ``write``, after the traced passes end.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

ROOT = "op"
PACKAGE = "ljlab"


@dataclass(frozen=True)
class Target:
    """One function to wrap: ``ljlab.<module>.<attr>``, attributed to ``layer``.

    ``measure(args, kwargs, result)`` returns two counters recorded
    with the span (for example input and kept matrices of ``span``).
    """

    module: str
    attr: str
    layer: str
    measure: Callable[[tuple, dict, Any], tuple[float, float]] | None = None

    @property
    def name(self) -> str:
        return f"{self.module}.{self.attr}"


def _span_counts(args: tuple, kwargs: dict, result: Any) -> tuple[float, float]:
    mats = args[0] if args else kwargs["matrices"]
    return float(len(mats)), float(result.dim_span)


TARGETS: tuple[Target, ...] = (
    Target("linalg", "spectral_norm", "linalg.spectral_norm"),
    Target("products", "jordan", "products.jordan"),
    Target("products", "lie", "products.lie"),
    Target("products", "associator", "products.checks"),
    Target("products", "check_jacobi", "products.checks"),
    Target("products", "check_leibniz", "products.checks"),
    Target("products", "check_associator_identity", "products.checks"),
    Target("products", "check_weak_associativity", "products.checks"),
    Target("products", "check_norm_axioms", "products.checks"),
    Target("subspace", "span", "subspace.span", _span_counts),
    Target("subspace", "_close_rounds", "subspace.close_rounds", lambda a, k, r: (float(r[1]), 0.0)),
    Target("subspace", "is_closed_under", "subspace.queries.is_closed_under"),
    Target("subspace", "require_closed", "subspace.queries.require_closed"),
    Target("subspace", "derived_algebra", "subspace.queries.derived_algebra"),
    Target("subspace", "commutator_defect", "subspace.queries.defects"),
    Target("subspace", "associator_defect", "subspace.queries.defects"),
    Target("subspace", "is_semisimple_lie", "subspace.queries.killing"),
    Target("subspace", "function_representation", "subspace.queries.function_representation"),
    Target("states", "is_classical_associator", "states.associator"),
    Target("states", "is_classical_commutator", "states.commutator"),
    Target("states", "is_classical_center", "states.center"),
    Target("witness", "avr_witness_search", "witness.search"),
    Target("witness", "associator_witness_search", "witness.search"),
    Target("jsonio", "dumps_report", "jsonio.dumps", lambda a, k, r: (float(len(r)), 0.0)),
    Target("jsonio", "matrix_to_json", "jsonio.dumps"),
    Target("jsonio", "load_json_file", "jsonio.parse"),
    Target("jsonio", "matrix_from_json", "jsonio.parse"),
    Target("jsonio", "subspace_from_json", "jsonio.parse"),
    Target("cli", "main", "cli.main"),
)


class Tracer:
    """Wraps TARGETS and records one span per call."""

    def __init__(self) -> None:
        self.targets = TARGETS
        self.names = [ROOT] + [t.name for t in TARGETS]
        self.layers = [ROOT] + [t.layer for t in TARGETS]
        self.absent: list[str] = []
        self.tid = array("H")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("d")
        self.end = array("d")
        self.self_s = array("d")
        self.x = array("d")
        self.y = array("d")
        self._stack: list[list] = []
        self._op_index = -1
        self._bindings: list[tuple[Any, str, Any]] = []
        self._written = False

    # -- span recording -------------------------------------------------

    def _enter(self, tid: int) -> list:
        idx = len(self.tid)
        self.tid.append(tid)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.op.append(self._op_index)
        self.end.append(0.0)
        self.self_s.append(0.0)
        self.x.append(0.0)
        self.y.append(0.0)
        frame = [idx, 0.0]
        self._stack.append(frame)
        self.start.append(time.perf_counter())
        return frame

    def _exit(self, frame: list, t1: float, x: float = 0.0, y: float = 0.0) -> None:
        idx, child = frame
        self._stack.pop()
        dur = t1 - self.start[idx]
        self.end[idx] = t1
        self.self_s[idx] = dur - child
        self.x[idx] = x
        self.y[idx] = y
        if self._stack:
            self._stack[-1][1] += dur

    def op_span(self, op_index: int) -> "_OpSpan":
        """Context manager for the root span of one benchmark op."""
        return _OpSpan(self, op_index)

    def _wrap(self, fn: Callable, tid: int, measure) -> Callable:
        enter, exit_ = self._enter, self._exit
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = enter(tid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                exit_(frame, clock())
                raise
            t1 = clock()
            counters = (0.0, 0.0)
            if measure is not None:
                try:
                    counters = measure(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    pass  # a changed signature or result loses the counters, never the call
            exit_(frame, t1, *counters)
            return result

        return wrapper

    # -- installation ---------------------------------------------------

    def _modules(self) -> list[Any]:
        prefix = PACKAGE + "."
        return [
            m
            for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(prefix))
        ]

    def install(self) -> None:
        if self._bindings:
            raise RuntimeError("tracer already installed")
        modules = self._modules()
        for tid, target in enumerate(self.targets, start=1):
            home = sys.modules.get(f"{PACKAGE}.{target.module}")
            original = getattr(home, target.attr, None) if home is not None else None
            if not callable(original):
                self.absent.append(target.name)
                continue
            wrapper = self._wrap(original, tid, target.measure)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._bindings.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._bindings):
            setattr(mod, attr, original)
        self._bindings.clear()

    # -- output ---------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "tid": np.frombuffer(self.tid, dtype=np.uint16),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "op": np.frombuffer(self.op, dtype=np.int64),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "self_s": np.frombuffer(self.self_s, dtype=np.float64),
            "x": np.frombuffer(self.x, dtype=np.float64),
            "y": np.frombuffer(self.y, dtype=np.float64),
        }

    def write(self, path: Path) -> None:
        """Write every span once; a second call is an error."""
        if self._written:
            raise RuntimeError("spans were already written")
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            layers=np.array(self.layers),
            absent=np.array(self.absent, dtype=str),
            **self.arrays(),
        )
        self._written = True


class _OpSpan:
    def __init__(self, tracer: Tracer, op_index: int):
        self.tracer = tracer
        self.op_index = op_index

    def __enter__(self) -> None:
        self.tracer._op_index = self.op_index
        self.frame = self.tracer._enter(0)

    def __exit__(self, *exc) -> None:
        self.tracer._exit(self.frame, time.perf_counter())
        self.tracer._op_index = -1
