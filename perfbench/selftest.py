"""Self-test of the benchmark's output checker and tracer.

    python3 perfbench/selftest.py

Checker: real op outputs pass; the same outputs with a flipped verdict, a
residual moved by more than the tolerance, or a worse witness each fail.
Tracer: one wrapper object per function in every ljlab namespace, absent
targets reported rather than raised, spans written once at the end, and
traced passes producing the same outputs as untraced ones.
"""

import copy
import json
import sys
import tempfile
import unittest
from pathlib import Path

import bootstrap

ROOT = bootstrap.prepare()

import numpy as np  # noqa: E402

import check  # noqa: E402
import harness  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from speed import SpeedProbe  # noqa: E402

LJ = harness.import_fresh()
REFERENCE = check.load_reference()


def workload(name: str) -> workloads.Workload:
    out = ROOT / harness.OUT_DIR
    out.mkdir(exist_ok=True)
    return workloads.WORKLOADS[name](LJ, out / "selftest" / name)


def first(wl: workloads.Workload, class_key: str) -> list[workloads.Op]:
    return wl.classes[class_key].make(0)


def with_report(raw: tuple[int, str], edit) -> tuple[int, str]:
    report = json.loads(raw[1])
    edit(report)
    return raw[0], json.dumps(report)


class CheckerTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.checker = check.Checker(LJ.DEFAULT_TOL, REFERENCE)
        cls.ident = workload("identities")
        cls.classify = workload("classify")

    def run_checked(self, op):
        raw = op.call()
        self.assertEqual(self.checker.check(op, raw), [], op.key)
        return raw

    def test_verify_residual(self):
        (op,) = first(self.ident, "verify.n3")
        raw = self.run_checked(op)

        def nudge(delta):
            def edit(r):
                r["checks"][0]["max_residual"] += delta
            return with_report(raw, edit)

        self.assertEqual(self.checker.check(op, nudge(1e-13)), [], "a move inside the tolerance passes")
        self.assertNotEqual(self.checker.check(op, nudge(1e-6)), [])

    def test_worse_witness(self):
        for kind, delta in (("avr", 0.01), ("associator", -0.01)):
            (op,) = first(self.ident, f"witness.{kind}.n2")
            raw = self.run_checked(op)

            def worse(r):
                r["summary"]["violation"] += delta
                r["checks"][0]["violation"] += delta

            self.assertNotEqual(self.checker.check(op, with_report(raw, worse)), [], kind)

            def scaled(r):
                r["summary"]["inputs"][0]["re"] = [[2 * x for x in row] for row in r["summary"]["inputs"][0]["re"]]
                r["summary"]["inputs"][0]["im"] = [[2 * x for x in row] for row in r["summary"]["inputs"][0]["im"]]

            self.assertNotEqual(self.checker.check(op, with_report(raw, scaled)), [], kind)

    def test_flipped_verdict(self):
        (op,) = first(self.classify, "cli.classify.full4.w")
        raw = self.run_checked(op)

        def flip(r):
            r["summary"]["classical"] = not r["summary"]["classical"]

        self.assertNotEqual(self.checker.check(op, with_report(raw, flip)), [])

        (lib,) = first(self.classify, "lib.classify.full3.w")
        verdict = self.run_checked(lib)
        flipped = copy.copy(verdict)
        object.__setattr__(flipped, "classical", not verdict.classical)
        self.assertNotEqual(self.checker.check(lib, flipped), [])

    def test_repr_and_exit_code(self):
        (op,) = first(self.classify, "cli.repr.n4")
        raw = self.run_checked(op)
        self.assertNotEqual(self.checker.check(op, (1, raw[1])), [])

        def drop(r):
            r["summary"]["projectors"].pop()

        self.assertNotEqual(self.checker.check(op, with_report(raw, drop)), [])


class TracerTest(unittest.TestCase):
    def test_one_wrapper_per_function(self):
        tracer = tracing.Tracer()
        originals = {t.name: getattr(sys.modules[f"ljlab.{t.module}"], t.attr) for t in tracer.targets}
        tracer.install()
        try:
            self.assertEqual(tracer.absent, [])
            for t in tracer.targets:
                bound = {
                    id(v)
                    for m in tracer._modules()
                    for v in vars(m).values()
                    if v is originals[t.name] or getattr(v, "__wrapped__", None) is originals[t.name]
                }
                self.assertEqual(len(bound), 1, t.name)
            # the symmetric-pair shortcut still sees the wrapped products as themselves
            sub = sys.modules["ljlab.subspace"]
            self.assertEqual(len(list(sub._product_pairs(4, LJ.states.jordan))), 10)
            self.assertEqual(len(list(sub._product_pairs(4, LJ.lie))), 6)
        finally:
            tracer.uninstall()
        for name, fn in originals.items():
            module, attr = name.split(".")
            self.assertIs(getattr(sys.modules[f"ljlab.{module}"], attr), fn)

    def test_absent_target_is_reported(self):
        # as if a later change had folded these helpers into their callers
        sub = sys.modules["ljlab.subspace"]
        removed = {name: getattr(sub, name) for name in ("_close_rounds", "require_closed")}
        for name in removed:
            delattr(sub, name)
        tracer = tracing.Tracer()
        try:
            tracer.install()
            tracer.uninstall()
        finally:
            for name, fn in removed.items():
                setattr(sub, name, fn)
        self.assertEqual(tracer.absent, ["subspace._close_rounds", "subspace.require_closed"])

    def test_traced_equals_untraced_and_spans_written_once(self):
        checker = check.Checker(LJ.DEFAULT_TOL, REFERENCE)
        for name in ("identities", "closure", "classify"):
            ops = workload(name).passes(7, 1)[0][:12]
            untraced = harness.run_passes([ops], checker, SpeedProbe())
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = harness.run_passes([ops], checker, SpeedProbe(), tracer)
            finally:
                tracer.uninstall()
            self.assertEqual([r.canon for r in untraced], [r.canon for r in traced], name)
            self.assertEqual([r.problems for r in traced], [[]] * len(traced), name)
            a = tracer.arrays()
            root = a["tid"] == 0
            self.assertEqual(int(root.sum()), len(ops))
            # self times partition the op time exactly
            op_time = float((a["end"] - a["start"])[root].sum())
            self.assertAlmostEqual(float(a["self_s"].sum()), op_time, delta=1e-9 * len(a["tid"]))
            with tempfile.TemporaryDirectory(dir=ROOT / harness.OUT_DIR) as tmp:
                path = Path(tmp) / "spans.npz"
                self.assertFalse(path.exists())
                tracer.write(path)
                with self.assertRaises(RuntimeError):
                    tracer.write(path)
                with np.load(path) as saved:
                    self.assertEqual(len(saved["tid"]), len(tracer.tid))


if __name__ == "__main__":
    unittest.main()
