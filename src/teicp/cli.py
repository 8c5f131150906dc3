"""Command-line driver for single solves with their traces, and multistart experiments.

``solve`` and ``multistart`` share one output rule: the document goes to
``--out``; without ``--out``, an explicit ``--format`` prints the document
alone; without either, the command prints its table or summary.  Files
default to CSV.

Exit codes: 0 when every requested solver converged, 2 when any hit the
iteration cap, 1 on solver errors, 64 on usage errors.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
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
    """The options both subcommands take, defined once and shared as a parent parser."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--problem", required=True,
                   help="ex1 | ex2:n=5 | ex3 | ex4:n=5 | ex5:n=5 | ex6:n=5 | rand:n=4,m=4,seed=7")
    p.add_argument("--solver", action="append", default=None,
                   help="solver id (repeatable); default: all five")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=SolverConfig.tol)
    p.add_argument("--max-iters", type=int, default=SolverConfig.max_iters)
    p.add_argument("--rho", type=float, default=SolverConfig.rho)
    p.add_argument("--tau", type=float, default=SolverConfig.tau)
    p.add_argument("--merit", choices=[kind.value for kind in MeritKind], default=SolverConfig.merit.value)
    p.add_argument("--out", default=None, help="output file path")
    p.add_argument("--format", choices=("json", "csv"), default=None,
                   help="document format; without --out, print the document alone (files default to csv)")
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
    solve = sub.add_parser("solve", parents=common,
                           help="run solvers once from a single start; print a table, or the reports with traces")
    solve.add_argument(
        "--x0", default=None, help="explicit start, comma-separated; write a negative first entry as --x0=-1,2,3"
    )
    multistart = sub.add_parser("multistart", parents=common, help="run solvers over a set of seeded random starts")
    multistart.add_argument("--runs", type=int, default=100, help="number of random starts")
    return parser


def _solver_names(args) -> list[str]:
    names = list(dict.fromkeys(args.solver or SOLVERS))  # each solver once, in first-seen order
    for name in names:
        if name not in SOLVERS:
            raise UsageError(f"unknown solver {name!r}; choose from {', '.join(SOLVERS)}")
    return names


def _config(args) -> SolverConfig:
    return SolverConfig(
        tol=args.tol,
        max_iters=args.max_iters,
        rho=args.rho,
        tau=args.tau,
        merit=args.merit,
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


def _run_all(args, starts) -> list[tuple[int, str, SolverReport]]:
    """(start index, solver, report) for each of ``starts(n)`` and each named solver, on one (A, B)."""
    spec = parse_problem(args.problem)
    A, B = build(spec)
    names = _solver_names(args)
    cfg = _config(args)
    return [(r, name, SOLVERS[name](A, B, x0, cfg)) for r, x0 in enumerate(starts(spec.n)) for name in names]


def _exit_code(results) -> int:
    statuses = [rep.status for _, _, rep in results]
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


# The C encoder, as json.dumps uses it, but raising ValueError on NaN and
# infinities, which RFC 8259 JSON cannot hold.
_encode = json.JSONEncoder(allow_nan=False).encode


def _finite(value):
    """``value`` with each non-finite float, an unmeasured field, replaced by None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite(v) for key, v in value.items()}
    if isinstance(value, list):
        return [_finite(v) for v in value]
    return value


def _json_value(value) -> str:
    """One compact JSON value, non-finite numbers written as ``null``."""
    try:
        return _encode(value)
    except ValueError:
        return _encode(_finite(value))


def _json_text(doc: list) -> str:
    """The list as ``[``, one compact JSON value per line, then ``]``.

    ``indent`` would make ``json`` use its pure-Python encoder, which took
    more than twice the C encoder's time on a solve report.  A value is
    encoded once, and again only where it holds a NaN or an infinity.
    """
    return "[\n" + ",\n".join(map(_json_value, doc)) + "\n]\n"


def _csv_text(fields, rows) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(fields), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def _emit(args, summary: list[str], document) -> None:
    """The output rule of solve and multistart; ``document(fmt)`` returns the document's text."""
    if args.out is None and args.format is not None:
        sys.stdout.write(document(args.format))
        return
    print("\n".join(summary))
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(document(args.format or "csv"))


def cmd_solve(args) -> int:
    """Run each solver from one start; the document is the full reports, or the trace rows as CSV."""
    results = _run_all(args, lambda n: [random_start(n, args.seed) if args.x0 is None else _parse_x0(args.x0, n)])
    header = f"{'Alg.':<6} {'lambda':>12} {'eigenvector':<40} {'iters':>5} {'residual':>10} {'time(s)':>9}"
    table = [header, "-" * len(header)]
    for _, name, rep in results:
        vec = "[" + ", ".join(f"{v:.4f}" for v in rep.pair.x) + "]"
        table.append(
            f"{name:<6} {rep.pair.lam:>12.6f} {vec:<40} {rep.iters:>5} "
            f"{rep.residual.max_violation():>10.2e} {rep.wall_time:>9.4f}"
        )
        if rep.status is not Status.CONVERGED:
            table.append(f"       status: {rep.status.value}")

    def document(fmt: str) -> str:
        if fmt == "json":
            return _json_text([_report_dict(name, rep) for _, name, rep in results])
        return _csv_text(_TRACE_FIELDS, [{"solver": name, **_trace_entry(t)}
                                         for _, name, rep in results for t in rep.trace])

    _emit(args, table, document)
    return _exit_code(results)


def _bin_label(lam: float) -> str:
    return f"{round(lam / _HIST_BIN) * _HIST_BIN:.3f}"


def cmd_multistart(args) -> int:
    """Run each solver from ``--runs`` seeded starts; the document is one row per run."""
    if args.runs < 2:
        raise UsageError("multistart needs --runs >= 2")
    results = _run_all(args, lambda n: [random_start(n, args.seed + r) for r in range(args.runs)])
    rows = [{"run": r, "solver": name, "lambda": rep.pair.lam, "iters": rep.iters,
             "status": rep.status.value, "time": rep.wall_time} for r, name, rep in results]

    summary = [f"problem {args.problem}: {args.runs} starts, seed {args.seed}"]
    for name in [name for r, name, _ in results if r == 0]:
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
    _emit(args, summary, lambda fmt: _json_text(rows) if fmt == "json" else _csv_text(_RUN_FIELDS, rows))
    return _exit_code(results)


def main(argv=None) -> int:
    commands = {"solve": cmd_solve, "multistart": cmd_multistart}
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


if __name__ == "__main__":
    run()
