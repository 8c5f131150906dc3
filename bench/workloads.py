"""Workloads of the teicp benchmark: inputs made from a seed, ops, and checks.

An op is one solver run from one start; in ``cli-fresh`` it is one
in-process ``teicp.cli.main`` call.  The workload seed picks the start seeds
and, in ``cli-fresh``, the tensor seeds; teicp receives only the generated
inputs.  Every op's result is checked between rounds, outside the timed
intervals.  A run's ops come from a fixed list made from the seed; the list is
run once and checked, then cycled, so the counts of attempted and failed ops
do not depend on how fast the machine is.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
from array import array
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import teicp.cli
from teicp import problems, solvers
from teicp.problems import parse_problem, random_start
from teicp.solvers import SolverConfig
from teicp.verify import diagonal_pareto_spectrum, is_pareto_eigenpair

from tracer import Tracer, layer_metrics

CONFIG = SolverConfig()  # the library defaults: tol 1e-6, at most 500 iterations
CERTIFY_TOL = 1e-6
SPECTRUM_TOL = 1e-8
FAILING_STATUSES = ("DomainError", "LineSearchFailure")
FAILING_EXIT_CODES = (1, 64)
EXIT_FOR_STATUS = {"Converged": 0, "MaxIters": 2, "DomainError": 1, "LineSearchFailure": 1}

# ex2's super-diagonal a_{ii..i} = (i - 1) / i, from the paper; the oracle
# for the spectrum check is built from this, not from teicp's tensor.
EX2 = "ex2:n=5"
EX2_SPECTRUM = [lam for lam, _, _ in diagonal_pareto_spectrum([(i - 1.0) / i for i in range(1, 6)], 4, "z")]

# Start seeds of different workload seeds never overlap below this many starts.
_SEED_STRIDE = 1_000_000
CLI_PROBLEM = "rand:n=16,m=4,seed={}"


@dataclass(frozen=True)
class Workload:
    name: str
    problems: tuple[str, ...]  # built once in set-up
    solvers: tuple[str, ...]
    rounds: int  # fixed op list of an end-to-end run, so attempted and failed repeat
    trace_rounds: int  # fixed op list of a traced run, so its counts repeat
    shared_starts: bool  # all solvers of a round start from one point, or each from its own

    @property
    def via_cli(self) -> bool:
        """With no prebuilt problem, each op is a CLI call on a fresh CLI_PROBLEM."""
        return not self.problems


# The rand-* tensor seed is fixed: across tensor seeds the mean op cost of
# rand:n=20,m=4 varies twofold (48 to 93 ms over seeds 1-3 on a 2-core Xeon
# VM), which would swamp run-to-run spread.  The workload seed varies the
# starts.  paper shares each start among its solvers, as the paper's tables
# do; the rand-* ops each get their own start, since spp and sspa from one
# start take nearly the same iterations and shared starts would halve the
# independent samples behind the latency percentiles.  An end-to-end op list
# takes 13-25 s on a 2-core Xeon VM, so that a 28-s run covers it once; the
# spread of throughput between seeds falls with the list's length.
# cli-fresh's list is shorter, as checking its ops rebuilds every tensor.
# Every list holds at least 100 ops, so that 10 latencies lie beyond the
# 90th percentile.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("paper", ("ex1", EX2, "ex3", "ex4:n=5", "ex5:n=5", "ex6:n=5"),
                 ("spg1", "spg2", "spp", "spa", "sspa"), 180, 20, shared_starts=True),
        Workload("rand-m4", ("rand:n=20,m=4,seed=1",), ("spg1", "spg2", "spp", "sspa"), 72, 12,
                 shared_starts=False),
        Workload("rand-m6", ("rand:n=6,m=6,seed=1",), ("spg1", "spg2", "spp", "sspa"), 100, 20,
                 shared_starts=False),
        Workload("cli-fresh", (), ("spg1",), 700, 100, shared_starts=False),
    )
}


@dataclass
class Op:
    """One op and, once run and checked, its outcome."""

    index: int
    problem: str
    solver: str
    start_seed: int
    latency: float = 0.0
    status: str = ""
    iters: int = -1
    lam: float = math.nan
    x: np.ndarray | None = None
    exit_code: int | None = None
    error: str | None = None
    out_path: Path | None = None
    out_bytes: int = 0
    failure: str | None = None
    certified: bool = False

    def key(self):
        """What a traced run must reproduce: status, iterations, lambda bits."""
        return (self.status, self.iters, float(self.lam).hex(), self.exit_code, self.error)


class Runner:
    """Builds a workload's inputs and runs its ops."""

    def __init__(self, workload: Workload, seed: int, out_dir: Path, tracer: Tracer | None = None):
        self.workload = workload
        self.seed = seed
        self.out_dir = out_dir
        self.tracer = tracer
        self.operators = {p: problems.build(parse_problem(p)) for p in workload.problems}

    def round_ops(self, r: int, first_index: int = 0) -> list[Op]:
        wl = self.workload
        base = self.seed * _SEED_STRIDE + r * (1 if wl.shared_starts else len(wl.solvers))
        ops: list[Op] = []
        for p in wl.problems or (CLI_PROBLEM.format(base),):
            for j, solver in enumerate(wl.solvers):
                start = base if wl.shared_starts else base + j
                ops.append(Op(first_index + len(ops), p, solver, start))
        return ops

    def run(self, op: Op) -> None:
        if self.tracer is not None:
            self.tracer.op_id = op.index
        if self.workload.via_cli:
            self._run_cli(op)
        else:
            self._run_solver(op)

    def _run_solver(self, op: Op) -> None:
        A, B = self.operators[op.problem]
        x0 = random_start(A.dim, op.start_seed)
        solve = solvers.SOLVERS[op.solver]
        t0 = time.perf_counter()
        try:
            rep = solve(A, B, x0, CONFIG)
        except Exception as exc:  # noqa: BLE001 - a raising op is counted as failed
            op.latency = time.perf_counter() - t0
            op.error = f"{type(exc).__name__}: {exc}"
            return
        op.latency = time.perf_counter() - t0
        op.status, op.iters, op.lam, op.x = rep.status.value, rep.iters, rep.pair.lam, rep.pair.x

    def _run_cli(self, op: Op) -> None:
        op.out_path = self.out_dir / f"op{op.index}.json"
        argv = ["solve", "--problem", op.problem, "--seed", str(op.start_seed), "--solver", op.solver,
                "--format", "json", "--out", str(op.out_path)]
        sink = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                if self.tracer is None:
                    op.exit_code = teicp.cli.main(argv)
                else:
                    op.exit_code = self.tracer.span("cli.main", teicp.cli.main, argv)
        except Exception as exc:  # noqa: BLE001 - a raising op is counted as failed
            op.error = f"{type(exc).__name__}: {exc}"
        op.latency = time.perf_counter() - t0

    def finish(self, op: Op) -> None:
        """Read and delete a CLI op's output file; nothing to do for other ops."""
        if op.out_path is None or not op.out_path.exists():
            return
        op.out_bytes = op.out_path.stat().st_size
        try:
            (doc,) = json.loads(op.out_path.read_text(encoding="utf-8"))
            op.status, op.iters, op.lam = doc["status"], int(doc["iters"]), float(doc["lambda"])
            op.x = np.asarray(doc["x"], dtype=float)
        except (ValueError, KeyError, TypeError) as exc:
            op.error = op.error or f"unreadable output: {exc}"
        op.out_path.unlink()

    def operators_for(self, op: Op):
        """(A, B) of an op's problem; CLI problems are rebuilt for the check."""
        return self.operators.get(op.problem) or problems.build(parse_problem(op.problem))


def run_batch(runner: Runner, ops: list[Op]) -> float:
    """Run ops back to back; return the seconds spent in them, reading outputs excluded."""
    t0 = time.perf_counter()
    for op in ops:
        runner.run(op)
    spent = time.perf_counter() - t0
    for op in ops:
        runner.finish(op)
    return spent


def _failure(op: Op, A, B) -> str | None:
    if op.error is not None:
        return f"raised {op.error.split(':')[0]}"
    if op.exit_code in FAILING_EXIT_CODES:
        return f"exit code {op.exit_code}"
    if op.exit_code is not None and EXIT_FOR_STATUS.get(op.status) != op.exit_code:
        return f"exit code {op.exit_code} with status {op.status or 'none'}"
    if op.status in FAILING_STATUSES:
        return f"status {op.status}"
    if op.status == "Converged":
        if op.x.shape != (A.dim,) or not (math.isfinite(op.lam) and np.all(np.isfinite(op.x))):
            return "Converged pair not finite"
        if not is_pareto_eigenpair(A, B, op.lam, op.x, CERTIFY_TOL):
            return "Converged pair not certified at 1e-6"
        op.certified = True
    return None


class Tally:
    """Check results of a run, kept as counts so memory does not grow with ops."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.converged = 0
        self.certified = 0
        self.failures: dict[str, int] = {}
        self.ex2_worst = 0.0

    def add(self, op: Op, A, B) -> None:
        op.failure = _failure(op, A, B)
        self.attempted += 1
        self.converged += op.status == "Converged"
        self.certified += op.certified
        if op.failure is not None:
            self.failed += 1
            cell = f"{op.problem.split(',seed=')[0]} {op.solver}: {op.failure}"
            self.failures[cell] = self.failures.get(cell, 0) + 1
        if op.problem == EX2 and op.certified:
            self.ex2_worst = max(self.ex2_worst, min(abs(op.lam - s) for s in EX2_SPECTRUM))

    def problems(self) -> list[str]:
        """Checks on the run as a whole; returns the problems found."""
        found = []
        if not self.certified:
            found.append("no op produced a certified pair")
        if self.ex2_worst > SPECTRUM_TOL:
            found.append(f"certified {EX2} lambda {self.ex2_worst:.3g} away from the closed-form spectrum")
        return found


def timed_phase(runner: Runner, tally: Tally, seconds: float,
                between_rounds=None) -> tuple[array, float, float, list[int]]:
    """Run the workload's fixed op list once, then cycle it until `seconds` were spent in ops.

    One round runs first, untimed, to warm caches and lazy set-up.  Every
    op of the first pass is checked into `tally`, so attempted and failed
    depend on the seed alone; every later op must repeat its first-pass
    result exactly.  Checks run between rounds, outside the timed
    intervals, where ``between_rounds(spent)`` is also called.  Returns the
    op latencies in seconds, the time spent in ops, the part of it spent in
    the first pass, and the indices of repeated ops whose result differed
    from the first pass.
    """
    rounds = runner.workload.rounds
    run_batch(runner, runner.round_ops(0))
    latencies = array("d")
    first_keys: list[tuple] = []
    changed: list[int] = []
    spent = first_pass = 0.0
    r = 0
    while r < rounds or spent < seconds:
        ops = runner.round_ops(r % rounds, len(latencies))
        spent += run_batch(runner, ops)
        base = (r % rounds) * len(ops)
        for j, op in enumerate(ops):
            latencies.append(op.latency)
            if r < rounds:
                tally.add(op, *runner.operators_for(op))
                first_keys.append(op.key())
            elif op.key() != first_keys[base + j]:
                changed.append(op.index)
        if r == rounds - 1:
            first_pass = spent
        if between_rounds is not None:
            between_rounds(spent)
        r += 1
    return latencies, spent, first_pass, changed


def traced_phase(workload: Workload, seed: int, out_dir: Path, rounds: int) -> dict:
    """Run a fixed op list untraced and traced, round by round, and compare.

    Returns the traced ops and their tally, the per-layer metrics, the
    spans, the throughput of both runs and every op whose (status, iters,
    lambda bits) differ between them.
    """
    tracer = Tracer()
    tracer.install()
    try:
        traced_runner = Runner(workload, seed, out_dir, tracer)  # set-up spans carry op id -1
    finally:
        tracer.restore()
    plain_runner = Runner(workload, seed, out_dir)
    run_batch(plain_runner, plain_runner.round_ops(0))

    # Untraced and traced rounds alternate, so that drift in machine speed
    # cancels out of the tracing overhead.
    plain: list[Op] = []
    traced: list[Op] = []
    plain_s = traced_s = 0.0
    for r in range(rounds):
        ops = plain_runner.round_ops(r, len(plain))
        plain_s += run_batch(plain_runner, ops)
        plain += ops
        ops = traced_runner.round_ops(r, len(traced))
        tracer.install()
        try:
            traced_s += run_batch(traced_runner, ops)
        finally:
            tracer.restore()
        traced += ops

    tally = Tally()
    for op in traced:
        tally.add(op, *traced_runner.operators_for(op))
    metrics = layer_metrics(
        tracer.spans,
        iters=sum(max(op.iters, 0) for op in traced),
        out_bytes=sum(op.out_bytes for op in traced),
    )
    return {
        "ops": traced,
        "tally": tally,
        "metrics": metrics,
        "spans": tracer.spans,
        "missing": tracer.missing,
        "mismatched": [t.index for p, t in zip(plain, traced) if p.key() != t.key()],
        "plain_solves_per_s": len(plain) / plain_s,
        "traced_solves_per_s": len(traced) / traced_s,
    }
