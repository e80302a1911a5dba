"""Record the reference outputs of every pool entry of every workload.

    python3 perfbench/record.py

Runs each entry once, untraced, and requires it to pass the independent
oracles in ``check.py`` and to exit without an error code; then writes the
checked fields to ``perfbench/reference.json``. Re-record only when a
change to the program is meant to change its outputs, and say so.
"""

import json
import sys

import bootstrap

ROOT = bootstrap.prepare()

import check  # noqa: E402
import harness  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    lj = harness.import_fresh()
    checker = check.Checker(lj.DEFAULT_TOL, {})
    ops: dict[str, dict] = {}
    for name, spec in workloads.WORKLOADS.items():
        wl = spec(lj, ROOT / harness.OUT_DIR / "record" / name)
        for ck, q in wl.entries():
            for op in wl.classes[ck].make(q):
                raw = op.call()
                fields = op.fields(raw)
                problems = checker.oracles(op, raw)
                if fields.get("rc", 0) not in (0, 1):
                    problems.append(f"exit code {fields['rc']}")
                if problems:
                    print(f"{op.key}: {problems}", file=sys.stderr)
                    return 1
                ops[op.key] = fields
        print(f"{name}: {len(wl.entries())} entries", flush=True)
    env = harness.environment(lj, ROOT)
    meta = {k: env[k] for k in ("git_commit", "src_sha256", "python", "numpy", "blas")}
    lines = [json.dumps(k) + ": " + json.dumps(ops[k], sort_keys=True) for k in sorted(ops)]
    text = '{"meta": ' + json.dumps(meta, sort_keys=True) + ',\n"ops": {\n' + ",\n".join(lines) + "\n}}\n"
    check.REFERENCE.write_text(text, encoding="utf-8")
    print(f"wrote {len(ops)} entries to {check.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
