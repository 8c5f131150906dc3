"""Command-line driver for single solves, multistart experiments, and traces.

Exit codes: 0 when every requested solver converged, 2 when any hit the
iteration cap, 1 on solver errors, 64 on usage errors.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import statistics
import sys

import numpy as np

from .merit import MeritKind
from .problems import build, parse_problem, random_start
from .solvers import SOLVERS, IterationRecord, SolverConfig, SolverReport, Status

__all__ = ["main", "run"]

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_MAX_ITERS = 2
EXIT_USAGE = 64

_SOLVER_ORDER = ("spg1", "spg2", "spp", "spa", "sspa")
_TRACE_FIELDS = ("k", "solver", "lambda", "merit", "grad_norm", "step", "beta", "shift")
_RUN_FIELDS = ("run", "solver", "lambda", "iters", "status", "time")
_HIST_BIN = 1e-3


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """Raises ``UsageError`` (exit 64) where argparse would exit 2, this CLI's MaxIters code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _common_options() -> argparse.ArgumentParser:
    """The options every subcommand takes, defined once and shared as a parent parser."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--problem", required=True,
                   help="ex1 | ex2:n=5 | ex3 | ex4:n=5 | ex5:n=5 | ex6:n=5 | rand:n=4,m=4,seed=7")
    p.add_argument("--solver", action="append", default=None,
                   help="solver id (repeatable); default: all five")
    p.add_argument("--x0", default=None, help="explicit start, comma-separated")
    p.add_argument("--runs", type=int, default=100, help="number of random starts (multistart)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--max-iters", type=int, default=500)
    p.add_argument("--rho", type=float, default=1e-4)
    p.add_argument("--tau", type=float, default=0.05)
    p.add_argument("--merit", choices=("rayleigh", "log"), default="rayleigh")
    p.add_argument("--out", default=None, help="output file path")
    p.add_argument("--format", choices=("json", "csv"), default="csv")
    p.add_argument("--paper-literal-safeguards", action="store_true")
    return p


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process; each ``parse_args`` starts fresh."""
    parser = _Parser(
        prog="teicp",
        description="Pareto eigenpair solvers for tensor eigenvalue complementarity problems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = [_common_options()]
    sub.add_parser("solve", parents=common,
                   help="run solvers once from a single start and print a result table")
    sub.add_parser("multistart", parents=common, help="run solvers over a set of seeded random starts")
    sub.add_parser("trace", parents=common, help="run solvers once and export the per-iteration trace")
    return parser


def _solver_names(args) -> list[str]:
    names = args.solver or list(_SOLVER_ORDER)
    for name in names:
        if name not in SOLVERS:
            raise UsageError(f"unknown solver {name!r}; choose from {', '.join(_SOLVER_ORDER)}")
    return names


def _config(args) -> SolverConfig:
    return SolverConfig(
        tol=args.tol,
        max_iters=args.max_iters,
        rho=args.rho,
        tau=args.tau,
        merit=MeritKind(args.merit),
        paper_literal_safeguards=args.paper_literal_safeguards,
    )


def _parse_x0(text: str, n: int) -> np.ndarray:
    try:
        x0 = np.array([float(v) for v in text.split(",")], dtype=float)
    except ValueError as exc:
        raise UsageError(f"could not parse --x0 {text!r}: {exc}") from None
    if x0.size != n:
        raise UsageError(f"--x0 has {x0.size} entries but the problem has dimension {n}")
    return x0


def _exit_code(reports) -> int:
    statuses = [r.status for r in reports]
    if any(s in (Status.DOMAIN_ERROR, Status.LINE_SEARCH_FAILURE) for s in statuses):
        return EXIT_ERROR
    if any(s is Status.MAX_ITERS for s in statuses):
        return EXIT_MAX_ITERS
    return EXIT_OK


def _trace_entry(t: IterationRecord) -> dict:
    return {"k": t.k, "lambda": t.lam, "merit": t.merit_value, "grad_norm": t.grad_norm,
            "step": t.step, "beta": t.beta, "shift": t.shift}


def _report_dict(name: str, rep: SolverReport) -> dict:
    return {
        "solver": name,
        "lambda": rep.pair.lam,
        "x": [float(v) for v in rep.pair.x],
        "status": rep.status.value,
        "iters": rep.iters,
        "residual": {"primal": rep.residual.primal, "dual": rep.residual.dual, "comp": rep.residual.comp},
        "wall_time": rep.wall_time,
        "trace": [_trace_entry(t) for t in rep.trace],
    }


def _reports_text(fmt: str, results) -> str:
    """Full reports as a JSON document, or the trace rows as CSV."""
    if fmt == "json":
        return _json_text([_report_dict(n, r) for n, r in results])
    rows = [{"solver": name, **_trace_entry(t)} for name, rep in results for t in rep.trace]
    return _csv_text(_TRACE_FIELDS, rows)


def _json_text(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _csv_text(fields, rows) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(fields), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def _write_text(path, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _emit(args, summary: list[str], document) -> None:
    """Output rule of solve and multistart; ``document()`` returns the document's text.

    ``--format json`` without ``--out`` prints the document alone.  Otherwise
    the summary is printed, and the document goes to ``--out`` when given.
    """
    if args.out is None and args.format == "json":
        sys.stdout.write(document())
        return
    print("\n".join(summary))
    if args.out is not None:
        _write_text(args.out, document())


def _run_single(args):
    spec = parse_problem(args.problem)
    A, B = build(spec)
    names = _solver_names(args)
    cfg = _config(args)
    x0 = _parse_x0(args.x0, spec.n) if args.x0 else random_start(spec.n, args.seed)
    return [(name, SOLVERS[name](A, B, x0, cfg)) for name in names]


def cmd_solve(args) -> int:
    """Print the result table and write the reports to --out, or print the JSON document alone."""
    results = _run_single(args)
    header = f"{'Alg.':<6} {'lambda':>12} {'eigenvector':<40} {'iters':>5} {'residual':>10} {'time(s)':>9}"
    table = [header, "-" * len(header)]
    for name, rep in results:
        vec = "[" + ", ".join(f"{v:.4f}" for v in rep.pair.x) + "]"
        table.append(
            f"{name:<6} {rep.pair.lam:>12.6f} {vec:<40} {rep.iters:>5} "
            f"{rep.residual.max_violation():>10.2e} {rep.wall_time:>9.4f}"
        )
        if rep.status is not Status.CONVERGED:
            table.append(f"       status: {rep.status.value}")
    _emit(args, table, lambda: _reports_text(args.format, results))
    return _exit_code([r for _, r in results])


def cmd_trace(args) -> int:
    results = _run_single(args)
    _write_text(args.out, _reports_text(args.format, results))
    return _exit_code([r for _, r in results])


def _bin_label(lam: float) -> str:
    return f"{round(lam / _HIST_BIN) * _HIST_BIN:.3f}"


def cmd_multistart(args) -> int:
    if args.runs < 2:
        raise UsageError("multistart needs --runs >= 2")
    if args.x0 is not None:
        raise UsageError("--x0 and multistart runs are mutually exclusive")
    spec = parse_problem(args.problem)
    A, B = build(spec)
    names = _solver_names(args)
    cfg = _config(args)
    starts = [random_start(spec.n, args.seed + r) for r in range(args.runs)]

    rows = []
    reports = []
    for r, x0 in enumerate(starts):
        for name in names:
            rep = SOLVERS[name](A, B, x0, cfg)
            reports.append(rep)
            rows.append({
                "run": r, "solver": name, "lambda": rep.pair.lam, "iters": rep.iters,
                "status": rep.status.value, "time": rep.wall_time,
            })

    summary = [f"problem {args.problem}: {args.runs} starts, seed {args.seed}"]
    for name in names:
        mine = [row for row in rows if row["solver"] == name]
        conv = [row for row in mine if row["status"] == Status.CONVERGED.value]
        med = statistics.median(row["iters"] for row in conv) if conv else float("nan")
        mean_t = statistics.fmean(row["time"] for row in mine)
        hist: dict[str, int] = {}
        for row in conv:
            label = _bin_label(row["lambda"])
            hist[label] = hist.get(label, 0) + 1
        top = sorted(hist.items(), key=lambda kv: (-kv[1], kv[0]))[:5]
        hist_text = ", ".join(f"{label}: {count}" for label, count in top)
        summary.append(
            f"  {name:<5} converged {len(conv)}/{len(mine)}  median iters {med:g}  "
            f"mean time {mean_t:.4f}s  lambda bins {hist_text}"
        )
    _emit(args, summary, lambda: _json_text(rows) if args.format == "json" else _csv_text(_RUN_FIELDS, rows))
    return _exit_code(reports)


def main(argv=None) -> int:
    commands = {"solve": cmd_solve, "multistart": cmd_multistart, "trace": cmd_trace}
    try:
        args = build_parser().parse_args(argv)
        return commands[args.command](args)
    except ValueError as exc:
        # UsageError, problem parsing and config validation
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def run() -> None:
    raise SystemExit(main())
