"""Output check for every benchmark op.

Each op's checked fields are compared with the reference recorded for its
pool entry. Exact fields (exit code, verdicts, dimensions, counts) must be
equal. Float fields must agree within ljlab's own ``DEFAULT_TOL`` policy,
not bit for bit, because batched kernels legitimately move the last bits.
A witness violation need only be at least as good as the reference's.

Independent oracles, computed here with numpy alone, add what a recorded
value cannot vouch for:

* a witness's violation is recomputed from the inputs the report gives;
* a classify certificate's value is recomputed from its observables and
  the state, and on the full algebra the verdict must read
  "classical <=> rho = I/n";
* a function representation's projectors must be Hermitian, idempotent and
  sum to the identity, one per joint-spectrum point.

``Checker.check`` returns a list of problems; an empty list means the op
passed. A failing op is counted, never raised.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

import numpy as np

from workloads import FLOAT_KEYS, Op

REFERENCE = Path(__file__).resolve().parent / "reference.json"
MIXED_ATOL = 1e-6  # "rho = I/n" for the full-algebra oracle, as in the acceptance suite


def load_reference(path: Path = REFERENCE) -> dict[str, dict[str, Any]]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["ops"]


def _matrix(obj: dict[str, Any]) -> np.ndarray:
    return np.asarray(obj["re"], dtype=float) + 1j * np.asarray(obj["im"], dtype=float)


def _jordan(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return 0.5 * (a @ b + b @ a)


def _bracket(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return 0.5j * (a @ b - b @ a)


class Checker:
    def __init__(self, tol: Any, reference: dict[str, dict[str, Any]]):
        self.tol = tol
        self.reference = reference

    def close(self, got: float, want: float) -> bool:
        return abs(got - want) <= self.tol.threshold(abs(want))

    def compare(self, key: str, got: dict[str, Any], better: str | None = None) -> list[str]:
        """Checked fields against the reference entry ``key``."""
        want = self.reference.get(key)
        if want is None:
            return [f"no reference entry {key!r}"]
        problems = []
        if want.keys() != got.keys():
            problems.append(f"fields differ: missing {sorted(want.keys() - got.keys())}, extra {sorted(got.keys() - want.keys())}")
        for path in sorted(want.keys() & got.keys()):
            w, g = want[path], got[path]
            leaf = path.rsplit(".", 1)[-1]
            if leaf in FLOAT_KEYS and isinstance(w, float):
                if not isinstance(g, float):
                    ok = False
                elif better is not None and leaf == "violation":
                    slack = self.tol.threshold(abs(w))
                    ok = g <= w + slack if better == "lower" else g >= w - slack
                else:
                    ok = self.close(g, w)
            else:
                ok = type(g) is type(w) and g == w
            if not ok:
                problems.append(f"{path}: got {g!r}, reference {w!r}")
        return problems

    def check(self, op: Op, raw: Any) -> list[str]:
        better = {"avr": "lower", "associator": "higher"}.get(op.context.get("witness"))
        return self.compare(op.key, op.fields(raw), better) + self.oracles(op, raw)

    def oracles(self, op: Op, raw: Any) -> list[str]:
        """Checks that need no reference: recomputed witnesses, certificates, projectors."""
        ctx = op.context
        problems: list[str] = []
        report = json.loads(raw[1]) if op.cli and raw[1] else None
        if "witness" in ctx and report is not None:
            problems += self._witness(ctx["witness"], report["summary"])
        if "rho" in ctx:
            if report is not None:
                s = report["summary"]
                cert = s["certificate"]
                obs = None if cert is None else [_matrix(m) for m in cert["observables"]]
                value = None if cert is None else cert["value"]
                problems += self._verdict(ctx, s["classical"], s["max_violation"], obs, value)
            elif not op.cli:
                cert = raw.certificate
                obs = None if cert is None else list(cert.observables)
                value = None if cert is None else cert.value
                problems += self._verdict(ctx, raw.classical, raw.max_violation, obs, value)
        if "points" in ctx and report is not None:
            problems += self._projectors(ctx["points"], report["summary"])
        return problems

    def _witness(self, kind: str, s: dict[str, Any]) -> list[str]:
        if not s["found"]:
            return []
        mats = [_matrix(m) for m in s["inputs"]]
        if kind == "avr":
            a, b = mats
            for m in (a, b):
                w = np.linalg.eigvalsh(m)
                if w[0] < -self.tol.threshold(1.0) or not self.close(float(w[-1]), 1.0):
                    return ["witness input is not a unit-norm PSD matrix"]
            value = float(np.linalg.eigvalsh(_jordan(a, b))[0])
        else:
            for m in mats:
                if not self.close(float(np.max(np.abs(np.linalg.eigvalsh(m)))), 1.0):
                    return ["witness input does not have unit norm"]
            a, b, c = mats
            value = float(np.linalg.norm(_jordan(_jordan(a, b), c) - _jordan(a, _jordan(b, c)), 2))
        if not self.close(s["violation"], value):
            return [f"witness violation {s['violation']!r} not reproduced from its inputs ({value!r})"]
        return []

    def _verdict(self, ctx: dict[str, Any], classical: bool, max_violation: float, obs, value) -> list[str]:
        rho = ctx["rho"]
        n = rho.shape[0]
        problems = []
        if ctx["full"]:
            mixed = float(np.linalg.norm(rho - np.eye(n) / n, 2)) <= MIXED_ATOL
            if classical != mixed:
                problems.append(f"full-algebra oracle: classical={classical} but rho = I/n is {mixed}")
        if classical:
            if obs is not None:
                problems.append("classical verdict carries a certificate")
            return problems
        if obs is None:
            return problems + ["quantum verdict without a certificate"]
        if len(obs) == 2:
            witness = _bracket(*obs)
        else:
            a, b, c = obs
            witness = _jordan(_jordan(a, b), c) - _jordan(a, _jordan(b, c))
        recomputed = float(np.real(np.trace(rho @ witness)))
        if not self.close(value, recomputed):
            problems.append(f"certificate value {value!r} not reproduced ({recomputed!r})")
        if not self.close(abs(value), max_violation):
            problems.append(f"certificate |value| {abs(value)!r} differs from max_violation {max_violation!r}")
        return problems

    def _projectors(self, points: int, s: dict[str, Any]) -> list[str]:
        if "projectors" not in s:
            return ["no projectors in the report"]
        ps = [_matrix(m) for m in s["projectors"]]
        if len(ps) != points:
            return [f"{len(ps)} projectors, expected {points} joint-spectrum points"]
        n = ps[0].shape[0]
        thr = self.tol.threshold(1.0)
        if float(np.abs(sum(ps) - np.eye(n)).max()) > thr:
            return ["projectors do not sum to the identity"]
        for p in ps:
            if float(np.abs(p @ p - p).max()) > thr or float(np.abs(p - p.conj().T).max()) > thr:
                return ["a projector is not a Hermitian idempotent"]
        return []
