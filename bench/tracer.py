"""Spans around teicp's layer boundaries, installed from outside the package.

A :class:`Tracer` replaces the functions at each layer boundary with timing
wrappers and puts the originals back on :meth:`Tracer.restore`.  The
contraction methods are wrapped on the classes themselves, so instances keep
their type and every ``isinstance`` test in the polish takes the same path.
Spans stay in memory until the run ends; :func:`layer_metrics` folds them
into the per-layer metrics named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import json
import time

import teicp.cli
import teicp.problems
import teicp.solvers
import teicp.tensor

# Span names as <layer>.<function>; the layer prefix is the teicp module.
_CONTRACTIONS = (("contract_m", "cm"), ("contract_m_minus_1", "cm1"), ("contract_m_minus_2", "cm2"))
_MERIT = ("evaluate", "rayleigh_value", "rayleigh_gradient", "rayleigh_hessian", "log_value")
_PROJECTION = ("project_sphere_plus", "project_orthant", "b_normalize")
_LINE_SEARCH_SOLVERS = ("solvers.spg1", "solvers.spg2")
_TRIAL_VALUES = ("merit.rayleigh_value", "merit.log_value")

# Span fields, stored as lists to keep a span cheap to record.
NAME, START, END, PARENT, OP, WORK = range(6)


def _dense_bytes(args) -> int:
    tensor = args[0]
    return tensor.dim**tensor.order * 8


class Tracer:
    """Records (name, start, end, parent, op id, work) for every wrapped call."""

    def __init__(self):
        self.spans: list[list] = []
        self.op_id = -1
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, fn, name, work=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id, work(args) if work else 0]
            stack.append(len(spans))
            spans.append(span)
            span[START] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()

        return traced

    def _patch(self, owner, attr, name, work=None):
        if isinstance(owner, dict):
            original = owner[attr]
            owner[attr] = self._wrap(original, name, work)
        elif attr in vars(owner):
            original = vars(owner)[attr]
            setattr(owner, attr, self._wrap(original, name, work))
        else:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        self._saved.append((owner, attr, original))

    def install(self) -> None:
        self.missing = []
        tensor, solvers = teicp.tensor, teicp.solvers
        classes = (
            (tensor.DenseSymmetricTensor, "dense", _dense_bytes),
            (tensor.ZIdentity, "identity", None),
            (tensor.HIdentity, "identity", None),
        )
        for cls, kind, work in classes:
            for attr, short in _CONTRACTIONS:
                self._patch(cls, attr, f"tensor.{kind}.{short}", work)
        for attr in _MERIT:
            self._patch(solvers, attr, f"merit.{attr}")
        for attr in _PROJECTION:
            self._patch(solvers, attr, f"projection.{attr}")
        self._patch(solvers, "min_eig_sym", "solvers.min_eig_sym")
        self._patch(solvers, "residual", "verify.residual")
        self._patch(solvers, "_polish", "solvers.polish")
        self._patch(teicp.problems, "symmetrize", "tensor.symmetrize")
        self._patch(teicp.problems, "build", "problems.build")
        self._patch(teicp.cli, "build", "problems.build")
        # The CLI reaches the solvers through this dict, so a solver span
        # separates solver time from CLI time there too.
        for name in list(solvers.SOLVERS):
            self._patch(solvers.SOLVERS, name, f"solvers.{name}")

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a span recorded from the benchmark's side."""
        return self._wrap(fn, name)(*args, **kwargs)


def write_spans(spans, path) -> None:
    """Write spans as JSON, times in ns from the first span, names as indices."""
    t0 = spans[0][START] if spans else 0.0
    names = sorted({s[NAME] for s in spans})
    code = {name: i for i, name in enumerate(names)}
    rows = [[code[s[NAME]], round((s[START] - t0) * 1e9), round((s[END] - t0) * 1e9), *s[PARENT:]] for s in spans]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "op", "work"], "names": names,
                   "spans": rows}, fh, separators=(",", ":"))


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def layer_metrics(spans, iters: int, out_bytes: int) -> dict[str, float]:
    """Per-layer metrics from the spans of a traced run.

    ``iters`` is the summed iteration count of the traced ops and
    ``out_bytes`` the summed size of the CLI output files; both are read
    from the ops' results at the op boundary.
    """
    own = self_times(spans)
    count: dict[str, int] = {}
    total: dict[str, float] = {}
    self_ms: dict[str, float] = {}
    work = 0
    trials = 0
    evals_in_search = 0
    for i, s in enumerate(spans):
        name = s[NAME]
        count[name] = count.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + (s[END] - s[START]) * 1e3
        self_ms[name] = self_ms.get(name, 0.0) + own[i] * 1e3
        work += s[WORK]
        parent = spans[s[PARENT]][NAME] if s[PARENT] >= 0 else None
        if parent in _LINE_SEARCH_SOLVERS:
            if name in _TRIAL_VALUES:
                trials += 1
            elif name == "merit.evaluate":
                evals_in_search += 1

    def n(*names):
        return sum(count.get(k, 0) for k in names)

    def ms(*names):
        return sum(total.get(k, 0.0) for k in names)

    def own_ms(*names):
        return sum(self_ms.get(k, 0.0) for k in names)

    def prefixed(prefix):
        return [k for k in count if k.startswith(prefix)]

    passes = n("tensor.dense.cm", "tensor.dense.cm1", "tensor.dense.cm2")
    merit = [f"merit.{a}" for a in _MERIT]
    projection = [f"projection.{a}" for a in _PROJECTION]
    solver_spans = [k for k in prefixed("solvers.") if k not in ("solvers.min_eig_sym", "solvers.polish")]
    # Every spg iteration evaluates once after its accepted trial, besides
    # the one evaluation at the start of each run.
    accepted = evals_in_search - n(*_LINE_SEARCH_SOLVERS)
    return {
        "tensor.cm_calls": n("tensor.dense.cm"),
        "tensor.cm1_calls": n("tensor.dense.cm1"),
        "tensor.cm2_calls": n("tensor.dense.cm2"),
        "tensor.passes": passes,
        "tensor.passes_per_iter": passes / iters if iters else 0.0,
        "tensor.bytes_computed": work,
        "tensor.dense_ms": ms(*prefixed("tensor.dense.")),
        "tensor.identity_ms": ms(*prefixed("tensor.identity.")),
        "tensor.symmetrize_ms": ms("tensor.symmetrize"),
        "problems.build_ms": ms("problems.build"),
        "merit.calls": n(*merit),
        "merit.hessian_calls": n("merit.rayleigh_hessian"),
        "merit.self_ms": own_ms(*merit),
        "projection.calls": n(*projection),
        "projection.ms": ms(*projection),
        "solvers.iters": iters,
        "solvers.ls_trials": trials,
        "solvers.ls_accept_ratio": accepted / trials if trials else 0.0,
        "solvers.eig_calls": n("solvers.min_eig_sym"),
        "solvers.eig_ms": ms("solvers.min_eig_sym"),
        "solvers.polish_ms": ms("solvers.polish"),
        "solvers.self_ms": own_ms(*solver_spans),
        "verify.residual_calls": n("verify.residual"),
        "verify.residual_ms": ms("verify.residual"),
        "cli.self_ms": own_ms("cli.main"),
        "cli.out_bytes": out_bytes,
    }
