"""Benchmark workloads: op classes, their input pools, and per-run op sequences.

An op is one ``ljlab.cli.main(argv)`` invocation (stdout captured) or one
public library call. Every op takes its inputs from a pool entry: a class
key plus an index ``q``. Pools are fixed, so the outputs of every entry are
recorded once (``reference.json``, by ``record.py``) and checked on every
run. The run seed only picks which entries a run uses and in which pass; no
entry repeats within a run until its class pool is used up.

A run is a fixed number of passes. Every pass has the same make-up of op
classes (its template) and draws fresh pool entries, so a result computed in
one pass is never asked for again in a later one. The only reuse is the one
the ``classify`` workload is built around: library ``classify`` calls share
algebra objects built once in set-up.

Inputs that the benchmark generates (states, generator pairs, algebras) come
from numpy with seeds derived from the entry, never from ljlab's own
samplers, so a change to the program cannot change its inputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np


@dataclass(eq=False)
class Op:
    """One timed call and what the checker needs to judge its output."""

    key: str  # pool entry; the reference is looked up by it
    cls: str  # op class, e.g. "verify" or "lib.classify"
    n: int  # matrix dimension
    call: Callable[[], Any]
    fields: Callable[[Any], dict[str, Any]]  # raw output -> checked fields
    cli: bool
    algebra: Any = None  # algebra object the op queries (reuse accounting)
    generates: bool = False  # closure from generators (bound-reach accounting)
    context: dict[str, Any] = field(default_factory=dict)  # inputs for oracles


@dataclass(frozen=True)
class ClassSpec:
    pool: int
    make: Callable[[int], list[Op]]


def _rng(tag: str, *ints: int) -> np.random.Generator:
    return np.random.default_rng([zlib.crc32(tag.encode()), *ints])


def _gue(rng: np.random.Generator, n: int) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (g + g.conj().T)


def _traceless(m: np.ndarray) -> np.ndarray:
    return m - (np.trace(m) / m.shape[0]) * np.eye(m.shape[0])


def _unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _hermitian_basis(k: int) -> list[np.ndarray]:
    out = []
    for i in range(k):
        m = np.zeros((k, k), dtype=complex)
        m[i, i] = 1.0
        out.append(m)
    s = 1.0 / math.sqrt(2.0)
    for i in range(k):
        for j in range(i + 1, k):
            m = np.zeros((k, k), dtype=complex)
            m[i, j] = m[j, i] = s
            out.append(m)
            m = np.zeros((k, k), dtype=complex)
            m[i, j], m[j, i] = -1j * s, 1j * s
            out.append(m)
    return out


def _block_diag(*blocks: np.ndarray) -> np.ndarray:
    n = sum(b.shape[0] for b in blocks)
    out = np.zeros((n, n), dtype=complex)
    at = 0
    for b in blocks:
        k = b.shape[0]
        out[at : at + k, at : at + k] = b
        at += k
    return out


def _block_algebra_mats(sizes: tuple[int, ...]) -> list[np.ndarray]:
    """Hermitian block-diagonal algebra: the full basis of each block, embedded."""
    mats = []
    for i, k in enumerate(sizes):
        for e in _hermitian_basis(k):
            parts = [e if j == i else np.zeros((s, s), dtype=complex) for j, s in enumerate(sizes)]
            mats.append(_block_diag(*parts))
    return mats


def _commuting_mats(n: int, q: int) -> list[np.ndarray]:
    """Powers g, g^2, .., g^m of a Hermitian g with m distinct eigenvalues.

    Their span is a commuting, associative algebra with m joint-spectrum
    points; m is drawn from 2..n.
    """
    rng = _rng("commuting", n, q)
    m = int(rng.integers(2, n + 1))
    labels = np.concatenate([np.arange(m), rng.integers(m, size=n - m)])
    rng.shuffle(labels)
    vals = np.sort(rng.uniform(0.5, 2.0, size=m)) + np.arange(m)
    u = _unitary(rng, n)
    g = (u * vals[labels]) @ u.conj().T
    g = 0.5 * (g + g.conj().T)
    powers = [g]
    for _ in range(m - 1):
        powers.append(powers[-1] @ g)
    return [p / np.linalg.norm(p) for p in powers]


def _matrix_json(m: np.ndarray) -> dict[str, Any]:
    return {"dim": int(m.shape[0]), "re": m.real.tolist(), "im": m.imag.tolist()}


def _write_json(path: Path, obj: Any) -> str:
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


# -- output fields --------------------------------------------------------

EXACT_KEYS = frozenset(
    {"rc", "passed", "classical", "criterion", "closure_dim", "generated", "found", "num_points", "semisimple"}
)
FLOAT_KEYS = frozenset({"max_residual", "violation", "max_violation"})


def report_fields(report: Any, prefix: str = "") -> dict[str, Any]:
    """Checked leaves of a CLI report, keyed by their path."""
    out: dict[str, Any] = {}
    items = report.items() if isinstance(report, dict) else enumerate(report)
    for k, v in items:
        path = f"{prefix}{k}"
        if isinstance(v, (dict, list)):
            out.update(report_fields(v, path + "."))
        elif k in EXACT_KEYS or k in FLOAT_KEYS:
            out[path] = v
    return out


def cli_fields(raw: tuple[int, str]) -> dict[str, Any]:
    rc, text = raw
    out: dict[str, Any] = {"rc": rc}
    if text:
        out.update(report_fields(json.loads(text)))
    return out


def _verdict_fields(v: Any) -> dict[str, Any]:
    return {"classical": bool(v.classical), "criterion": v.criterion, "max_violation": float(v.max_violation)}


def _generation_fields(rep: Any) -> dict[str, Any]:
    return {"closure_dim": int(rep.closure_dim), "generated": bool(rep.generated)}


# -- workloads ------------------------------------------------------------


class Workload:
    """Pool classes plus a per-pass template of class keys."""

    name = ""
    nominal_pass_s = 1.0  # pass time at the reference commit and machine speed (speed.py)
    warmup_keys: tuple[str, ...] = ()

    def __init__(self, lj: Any, workdir: Path):
        self.lj = lj
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        self.classes: dict[str, ClassSpec] = {}

    def add(self, key: str, pool: int, make: Callable[[int], list[Op]]) -> None:
        self.classes[key] = ClassSpec(pool, make)

    def template(self, k: int) -> list[str]:
        raise NotImplementedError

    def cli_op(self, key: str, cls: str, n: int, argv: list[str], **kw: Any) -> Op:
        lj = self.lj

        def call() -> tuple[int, str]:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                rc = lj.cli.main(argv)
            return rc, out.getvalue()

        return Op(key, cls, n, call, cli_fields, cli=True, **kw)

    def passes(self, seed: int, count: int) -> list[list[Op]]:
        """Ops of ``count`` passes for this seed; entries drawn without repeats."""
        perms: dict[str, np.ndarray] = {}
        used: dict[str, int] = {}
        out = []
        for k in range(count):
            ops: list[Op] = []
            for ck in self.template(k):
                spec = self.classes[ck]
                if ck not in perms:
                    perms[ck] = np.random.default_rng([seed, zlib.crc32(ck.encode())]).permutation(spec.pool)
                    used[ck] = 0
                q = int(perms[ck][used[ck] % spec.pool])
                used[ck] += 1
                ops.extend(spec.make(q))
            out.append(ops)
        return out

    def warmups(self) -> list[Op]:
        """One op of each class kind, on an entry just outside its pool."""
        return [op for ck in self.warmup_keys for op in self.classes[ck].make(self.classes[ck].pool)]

    def entries(self) -> list[tuple[str, int]]:
        """Every pool entry, for recording the reference."""
        return [(ck, q) for ck, spec in self.classes.items() for q in range(spec.pool)]


class Identities(Workload):
    """Many tiny ops: cost is per-call overhead in products, linalg and the
    witness loops. Never reaches span, closure or states."""

    name = "identities"
    nominal_pass_s = 1.8
    VERIFY_DIMS = (2, 3, 4, 5, 6)
    VERIFY_ROUNDS = 8
    TRIALS = 25
    WITNESS = tuple((kind, n) for kind in ("avr", "associator") for n in (2, 3, 4))
    BUDGET = 100
    warmup_keys = ("verify.n2", "witness.avr.n2", "witness.associator.n2")

    def __init__(self, lj: Any, workdir: Path):
        super().__init__(lj, workdir)
        for n in self.VERIFY_DIMS:
            self.add(f"verify.n{n}", 128, lambda q, n=n: [self._verify(n, q)])
        for kind, n in self.WITNESS:
            self.add(f"witness.{kind}.n{n}", 32, lambda q, kind=kind, n=n: [self._witness(kind, n, q)])

    def _verify(self, n: int, q: int) -> Op:
        argv = ["verify", "--dim", str(n), "--trials", str(self.TRIALS), "--seed", str(q)]
        return self.cli_op(f"verify.n{n}.q{q}", "verify", n, argv)

    def _witness(self, kind: str, n: int, q: int) -> Op:
        argv = ["witness", "--kind", kind, "--dim", str(n), "--budget", str(self.BUDGET), "--seed", str(q)]
        return self.cli_op(f"witness.{kind}.n{n}.q{q}", f"witness.{kind}", n, argv, context={"witness": kind})

    def template(self, k: int) -> list[str]:
        out = []
        for i in range(self.VERIFY_ROUNDS):
            out += [f"verify.n{n}" for n in self.VERIFY_DIMS]
            if i < len(self.WITNESS):
                kind, n = self.WITNESS[i]
                out.append(f"witness.{kind}.n{n}")
        return out


class Closure(Workload):
    """Fresh closures from generator pairs: span and closure rounds.

    Most ops are small, one per pass is at the largest n. Block-diagonal and
    commuting pairs close below the n^2 / n^2 - 1 bound, random pairs reach
    it. Library closures with n <= 6 are each queried once, so no algebra
    object is reused."""

    name = "closure"
    nominal_pass_s = 2.5
    GEN_DIMS = (3, 4, 5, 6, 8)
    BIG = 10  # one op per pass, modes alternating between passes
    LIB_DIMS = (3, 4, 5, 6)
    PAIRS = (
        ("block", "lie2", (3, 3)),
        ("block", "jordan3", (2, 4)),
        ("block", "lie2", (4, 4)),
        ("block", "jordan3", (5, 3)),
        ("commuting", "lie2", (8,)),
        ("commuting", "jordan3", (10,)),
    )
    warmup_keys = ("generate.lie2.n3", "generate.jordan3.n3", "pair.block.lie2.n6", "lib.lie2.n3", "lib.jordan3.n3")

    def __init__(self, lj: Any, workdir: Path):
        super().__init__(lj, workdir)
        for mode in ("lie2", "jordan3"):
            for n in self.GEN_DIMS + (self.BIG,):
                self.add(f"generate.{mode}.n{n}", 8, lambda q, mode=mode, n=n: [self._generate(mode, n, q)])
            for n in self.LIB_DIMS:
                self.add(f"lib.{mode}.n{n}", 8, lambda q, mode=mode, n=n: self._lib(mode, n, q))
        for shape, mode, sizes in self.PAIRS:
            key = f"pair.{shape}.{mode}.n{sum(sizes)}"
            self.add(key, 8, lambda q, key=key, shape=shape, mode=mode, sizes=sizes: [self._pair(key, shape, mode, sizes, q)])

    def _generate(self, mode: str, n: int, q: int) -> Op:
        argv = ["generate", "--mode", mode, "--dim", str(n), "--trials", "1", "--seed", str(q)]
        return self.cli_op(f"generate.{mode}.n{n}.q{q}", f"generate.{mode}", n, argv, generates=True)

    def _pair(self, key: str, shape: str, mode: str, sizes: tuple[int, ...], q: int) -> Op:
        n = sum(sizes)
        rng = _rng(key, q)
        if shape == "block":
            a, b = (_block_diag(*(_traceless(_gue(rng, k)) for k in sizes)) for _ in range(2))
        else:
            u = _unitary(rng, n)
            a, b = ((u * rng.standard_normal(n)) @ u.conj().T for _ in range(2))
        path = _write_json(self.workdir / f"{key}.q{q}.json", {"a": _matrix_json(a), "b": _matrix_json(b)})
        argv = ["generate", "--mode", mode, "--in", path]
        return self.cli_op(f"{key}.q{q}", "generate.in", n, argv, generates=True)

    def _lib(self, mode: str, n: int, q: int) -> list[Op]:
        """A fresh closure, then one query on it (alternating kinds, so none reuses)."""
        lj = self.lj
        rng = _rng(f"lib.{mode}", n, q)
        a, b = _gue(rng, n), _gue(rng, n)
        if mode == "lie2":
            a, b = _traceless(a), _traceless(b)
        fn = "lie_generate" if mode == "lie2" else "jordan_generate_three"
        query = "derived_algebra" if (n + (mode == "jordan3")) % 2 else "is_semisimple_lie"
        holder: dict[str, Any] = {}

        def gen() -> Any:
            rep = getattr(lj, fn)(a, b)
            holder["closure"] = rep.closure
            return rep

        def ask() -> Any:
            return getattr(lj, query)(holder["closure"])

        if query == "derived_algebra":
            ask_fields: Callable[[Any], dict[str, Any]] = lambda d: {"closure_dim": int(d.dim_span)}
        else:
            ask_fields = lambda ok: {"semisimple": bool(ok)}
        key = f"lib.{mode}.n{n}.q{q}"
        return [
            Op(key, f"lib.{fn}", n, gen, _generation_fields, cli=False, generates=True),
            Op(f"{key}.{query}", f"lib.{query}", n, ask, ask_fields, cli=False, algebra=holder),
        ]

    def template(self, k: int) -> list[str]:
        small = [f"generate.{m}.n{n}" for n in self.GEN_DIMS[:4] for m in ("lie2", "jordan3")]
        lib = [f"lib.{m}.n{n}" for n in self.LIB_DIMS for m in ("lie2", "jordan3")]
        pairs = [f"pair.{s}.{m}.n{sum(z)}" for s, m, z in self.PAIRS]
        large = [f"generate.{m}.n{self.GEN_DIMS[4]}" for m in ("lie2", "jordan3")]
        out = [f"generate.{'lie2' if k % 2 == 0 else 'jordan3'}.n{self.BIG}"]
        for i in range(len(small)):
            out += [small[i], lib[i]]
            if i < len(pairs):
                out.append(pairs[i])
            if i < len(large):
                out.append(large[i])
        return out


class Classify(Workload):
    """Many states against a few algebra objects built once and reused:
    closedness proofs, criteria tensors and states. Fresh-object CLI
    classify and repr ops add JSON input and certificate output."""

    name = "classify"
    nominal_pass_s = 3.0
    # algebra -> (dimension, block sizes or None for the full algebra / "comm")
    ALGEBRAS: dict[str, tuple[int, Any]] = {
        "full2": (2, None),
        "full3": (3, None),
        "full4": (4, None),
        "full5": (5, None),
        "full6": (6, None),
        "full8": (8, None),
        "block21": (3, (2, 1)),
        "block22": (4, (2, 2)),
        "block31": (4, (3, 1)),
        "comm4": (4, "comm"),
        "comm6": (6, "comm"),
    }
    # state kinds per pass: w Wishart, p pure, b block-scalar, m maximally mixed
    PER_PASS = {
        "full2": "wwpbmwwpbw",
        "full3": "wpwbwmwp",
        "full4": "wpbwwm",
        "full5": "wpb",
        "full6": "wb",
        "full8": "wb",
        "block21": "wpbb",
        "block22": "wpbb",
        "block31": "wpbb",
        "comm4": "wpw",
        "comm6": "wpw",
    }
    POOL = {"w": 96, "p": 32, "b": 32, "m": 1}
    POOL_CAP = {"full8": 12, "full6": 24, "full5": 24}
    CLI_CLASSIFY = (("block22", "w"), ("block31", "b"), ("full4", "w"))
    REPR_DIMS = (4, 6)
    warmup_keys = ("cli.classify.block22.w", "cli.repr.n4")

    def __init__(self, lj: Any, workdir: Path):
        super().__init__(lj, workdir)
        self.algebras = {name: self._build_algebra(name) for name in self.ALGEBRAS}
        self.algebra_files: dict[str, str] = {}
        for name, (n, blocks) in self.ALGEBRAS.items():
            if isinstance(blocks, tuple):
                mats = _block_algebra_mats(blocks)
                doc = {"dim": n, "matrices": [_matrix_json(m) for m in mats]}
                self.algebra_files[name] = _write_json(workdir / f"algebra.{name}.json", doc)
        for alg, kinds in self.PER_PASS.items():
            for kind in sorted(set(kinds)):
                pool = min(self.POOL[kind], self.POOL_CAP.get(alg, self.POOL[kind]))
                self.add(f"lib.classify.{alg}.{kind}", pool, lambda q, alg=alg, kind=kind: [self._lib(alg, kind, q)])
        for alg, kind in self.CLI_CLASSIFY:
            self.add(f"cli.classify.{alg}.{kind}", 32, lambda q, alg=alg, kind=kind: [self._cli_classify(alg, kind, q)])
        for n in self.REPR_DIMS:
            self.add(f"cli.repr.n{n}", 16, lambda q, n=n: [self._repr(n, q)])

    def _build_algebra(self, name: str) -> Any:
        lj = self.lj
        n, blocks = self.ALGEBRAS[name]
        if blocks is None:
            return lj.full_hermitian_space(n)
        if blocks == "comm":
            return lj.span(_commuting_mats(n, 0))
        return lj.span(_block_algebra_mats(blocks))

    def _state(self, alg: str, kind: str, q: int) -> np.ndarray:
        n, blocks = self.ALGEBRAS[alg]
        rng = _rng(f"state.{alg}.{kind}", q)
        if kind == "w":
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            rho = g @ g.conj().T
        elif kind == "p":
            v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            rho = np.outer(v, v.conj())
        elif kind == "m":
            rho = np.eye(n, dtype=complex)
        else:
            sizes = blocks if isinstance(blocks, tuple) else (n // 2, n - n // 2)
            p = float(rng.uniform(0.1, 0.9))
            if abs(p - sizes[0] / n) < 0.05:  # keep clear of the maximally mixed state
                p += 0.1
            rho = _block_diag(*(w / k * np.eye(k, dtype=complex) for w, k in zip((p, 1.0 - p), sizes)))
        rho = 0.5 * (rho + rho.conj().T)
        return rho / float(np.real(np.trace(rho)))

    def _lib(self, alg: str, kind: str, q: int) -> Op:
        lj = self.lj
        L = self.algebras[alg]
        rho = self._state(alg, kind, q)
        state = lj.State(rho)
        context = {"rho": rho, "full": alg.startswith("full")}
        return Op(
            f"lib.classify.{alg}.{kind}.q{q}",
            f"lib.classify.{alg}",
            self.ALGEBRAS[alg][0],
            lambda: lj.classify(state, L),
            _verdict_fields,
            cli=False,
            algebra=L,
            context=context,
        )

    def _cli_classify(self, alg: str, kind: str, q: int) -> Op:
        key = f"cli.classify.{alg}.{kind}.q{q}"
        rho = self._state(alg, kind, q)
        argv = ["classify", "--in", _write_json(self.workdir / f"{key}.json", _matrix_json(rho))]
        full = alg.startswith("full")
        if not full:
            argv += ["--algebra", self.algebra_files[alg]]
        return self.cli_op(key, "classify", rho.shape[0], argv, context={"rho": rho, "full": full})

    def _repr(self, n: int, q: int) -> Op:
        key = f"cli.repr.n{n}.q{q}"
        doc = {"dim": n, "matrices": [_matrix_json(m) for m in _commuting_mats(n, q + 1)]}
        argv = ["repr", "--algebra", _write_json(self.workdir / f"{key}.json", doc)]
        return self.cli_op(key, "repr", n, argv, context={"points": len(doc["matrices"])})

    def warmups(self) -> list[Op]:
        ops = super().warmups()
        # library warm-up on its own algebra object, so no shared object is touched
        L = self.lj.full_hermitian_space(2)
        state = self.lj.State(self._state("full2", "w", self.POOL["w"]))
        ops.append(Op("warmup", "lib.classify.full2", 2, lambda: self.lj.classify(state, L), _verdict_fields, cli=False))
        return ops

    def template(self, k: int) -> list[str]:
        out = []
        width = max(len(v) for v in self.PER_PASS.values())
        for i in range(width):
            for alg, kinds in self.PER_PASS.items():
                if i < len(kinds):
                    out.append(f"lib.classify.{alg}.{kinds[i]}")
        cli = [f"cli.classify.{a}.{s}" for a, s in self.CLI_CLASSIFY] + [f"cli.repr.n{n}" for n in self.REPR_DIMS]
        step = len(out) // len(cli)
        for j, key in enumerate(cli):
            out.insert(j * (step + 1) + step // 2, key)
        return out


WORKLOADS: dict[str, type[Workload]] = {w.name: w for w in (Identities, Closure, Classify)}
