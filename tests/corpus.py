"""Run the solver cases that gate a refactor, one line per run.

A refactor must keep every report bit-identical, or explain each change in
``CHANGES.md``.  This script owns that check's cases and its one diff::

    python tests/corpus.py --against HEAD~1

exports that revision's ``src`` with ``git archive`` into a temporary
directory next to a copy of this tree's ``tests/*.py``, runs both sets below
on both trees at once (one BLAS thread each), prints each tree's run counts,
and then per set "identical", or else the ``--compare`` summary.
``python tests/corpus.py > out.txt`` prints both sets, each after a
``# golden`` or ``# corpus`` line, and ``--compare old.txt new.txt``
summarizes two such outputs per set: whether the entries and packed-matrix
digests are equal, how many runs changed in some field, in all and per
(problem, solver), each run whose status or iteration count changed, and
per status the number of runs whose lambda bits changed with the largest
|dlam| among them.

The golden set has 308 runs: the acceptance starts (``STARTS``), starts
``random_start(n, s)`` for s < 4 on rand:n=6,m=4 and rand:n=4,m=6, an
indefinite B, ex1 from two vertices and ex2:n=5 from ones, e1, e5 and near
e1.  Every solver runs under the Rayleigh merit and under ``max_iters=3``,
and spg1 and spg2 also under the log merit and with
``paper_literal_safeguards=True``.  ``test_golden_reports`` checks its lines
against ``golden.txt`` bit for bit; ``--record`` re-records that file and
prints how it changed, which is for intended and explained changes only.

The corpus set has 5,940 runs from ``random_start(n, 20240 + r)``: r < 100
on ex1, ex2:n=5, ex3, ex4:n=5, ex5:n=5 and ex6:n=5 (the criterion-8
starts), and r < 12 on rand:n=20,m=4,seed=1, rand:n=6,m=6,seed=1,
rand:n=16,m=4,seed=0, rand:n=6,m=4 and rand:n=4,m=6, under all configs but
``max_iters=3``.  Each of its problems first gets a line with the sha256
digest of its tensor's entries and one with the digest of the packed matrix
its contractions read (``T._packed``), so it covers the tensor builders too.

Every run keeps its iterates.  Its line is the case key (problem, start,
solver, config), the status, the iteration count, ``lam.hex()`` and one
sha256 digest of x, the residual triple, the trace rows and the iterates, in
that order; a run that raises prints the exception's type in place of the
report.  Each set's run count goes to stderr, with how many runs end
``Converged`` and how many of those certify (max violation of the residual
triple within their config's ``tol``), the iterations of all its reports,
how many times the driver polished
(``_polish`` calls), how many face Newton solves those polishes made
(``_newton_face`` calls) and how many Newton steps those solves took (calls
of the inverse that each step makes), so stdout stays comparable.
Pytest does not collect this file: its name does not start with ``test_``.
Both sets take about 13 s on a 2-core x86-64 VM (numpy 2.4, one BLAS
thread; 12.5-14.4 s in three runs), the golden set under 0.5 s of it.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import dataclasses
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import teicp.solvers  # noqa: E402
from helpers import lam_change  # noqa: E402
from teicp.merit import MeritKind  # noqa: E402
from teicp.problems import build, parse_problem, random_start  # noqa: E402
from teicp.solvers import SOLVERS, SolverConfig, Status  # noqa: E402
from teicp.tensor import HIdentity, diagonal_tensor  # noqa: E402
from test_acceptance import STARTS  # noqa: E402

GOLDEN = Path(__file__).with_name("golden.txt")
SEED = 20240
PROBLEMS = (
    [(p, 100) for p in ("ex1", "ex2:n=5", "ex3", "ex4:n=5", "ex5:n=5", "ex6:n=5")]
    + [(p, 12) for p in ("rand:n=20,m=4,seed=1", "rand:n=6,m=6,seed=1", "rand:n=16,m=4,seed=0")]
    + [(p, 12) for p in ("rand:n=6,m=4", "rand:n=4,m=6")]
)
CONFIGS = {
    "rayleigh": (SolverConfig(keep_iterates=True), tuple(SOLVERS)),
    "log": (SolverConfig(merit=MeritKind.LOGARITHMIC, keep_iterates=True), ("spg1", "spg2")),
    "literal": (SolverConfig(paper_literal_safeguards=True, keep_iterates=True), ("spg1", "spg2")),
    "max_iters=3": (SolverConfig(max_iters=3, keep_iterates=True), tuple(SOLVERS)),
}


def gate_cases():
    """(problem, starts): the acceptance starts, and four seeded starts on two rand tensors."""
    for name, x0 in STARTS.items():
        yield name, [np.array(x0)]
    yield "rand:n=6,m=4", [random_start(6, seed) for seed in range(4)]
    yield "rand:n=4,m=6", [random_start(4, seed) for seed in range(4)]


def _golden_problems():
    for problem, starts in gate_cases():
        yield problem, build(parse_problem(problem)), starts
    # B x^m = 1 - 1 = 0 at [1, 1], and B x^m = -1 < 0 at [0, 1]
    indefinite = (HIdentity(4, 2), diagonal_tensor([1.0, -1.0], 4))
    yield "H(4,2)/diag(1,-1)", indefinite, [np.array([0.0, 1.0]), np.array([1.0, 1.0])]
    yield "ex1 vertices", build(parse_problem("ex1")), [np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0])]
    # Near e1, ||g|| < tol at k = 0 while the projected step is not small.
    yield "diag5", build(parse_problem("ex2:n=5")), [np.ones(5), np.eye(5)[0], np.eye(5)[4], np.eye(5)[0] + 1e-3]


def _corpus_problems():
    for problem, count in PROBLEMS:
        A, B = build(parse_problem(problem))
        yield problem, (A, B), [random_start(A.dim, SEED + r) for r in range(count)]


SETS = {"golden": (_golden_problems, tuple(CONFIGS)), "corpus": (_corpus_problems, ("rayleigh", "log", "literal"))}


def _digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(np.ascontiguousarray(part, dtype=float).tobytes())
    return h.hexdigest()


def report_line(rep) -> str:
    r = rep.residual
    parts = [rep.pair.x, [r.primal, r.dual, r.comp], *map(dataclasses.astuple, rep.trace), *rep.iterates]
    return f"{rep.status.value} {rep.iters} {rep.pair.lam.hex()} {_digest(parts)}"


@contextlib.contextmanager
def _counting(owner, *names):
    """Count the calls of these functions of ``owner``, as {name: count}, within the block."""
    counts = dict.fromkeys(names, 0)
    originals = {name: getattr(owner, name) for name in names}

    def counted(name, fn):
        def call(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return call

    for name, fn in originals.items():
        setattr(owner, name, counted(name, fn))
    try:
        yield counts
    finally:
        for name, fn in originals.items():
            setattr(owner, name, fn)


def _newton_steps():
    """Count the face Newton steps: each inverts its Jacobian once.

    The solvers call LAPACK's inverse as ``teicp.solvers._inv``; a tree
    from before that calls ``np.linalg.inv``, and nothing else in a run does.
    """
    if hasattr(teicp.solvers, "_inv"):
        return _counting(teicp.solvers, "_inv")
    return _counting(np.linalg, "inv")


def run_set(name: str) -> tuple[list[str], str]:
    """One set's output lines, and its counts: runs, how many end ``Converged``
    and certify, iterations, polishes, face Newton solves and their steps."""
    with _counting(teicp.solvers, "_polish", "_newton_face") as calls, _newton_steps() as steps:
        lines, counts = _run_set(name)
    solves, total = calls["_newton_face"], sum(steps.values())
    return lines, f"{counts}, {calls['_polish']} polishes, {solves} face solves, {total} Newton steps"


def _run_set(name: str) -> tuple[list[str], str]:
    problems, configs = SETS[name]
    lines, runs, converged, certified, iters = [], 0, 0, 0, 0
    for problem, (A, B), starts in problems():
        if name == "corpus":  # golden.txt holds runs only
            for kind, array in (("entries", A.entries), ("packed", A._packed)):
                lines.append(f"{problem} {kind} {hashlib.sha256(array.tobytes()).hexdigest()}")
        for i, x0 in enumerate(starts):
            for config in configs:
                cfg, solvers = CONFIGS[config]
                for solver in solvers:
                    try:
                        rep = SOLVERS[solver](A, B, x0, cfg)
                    except Exception as exc:  # a raise is a result to compare too
                        line = f"raises {type(exc).__name__}"
                    else:
                        line = report_line(rep)
                        iters += rep.iters
                        if rep.status is Status.CONVERGED:
                            converged += 1
                            certified += rep.residual.max_violation() <= cfg.tol
                    lines.append(f"{problem} x0#{i} {solver} {config} {line}")
                    runs += 1
    return lines, f"{runs} runs, {converged} Converged, {certified} of them certified, {iters} iterations"


def _read(lines) -> tuple[dict, dict]:
    """({kind: {problem: digest}} for entries and packed, case key -> report fields) of one set."""
    digests, runs = {"entries": {}, "packed": {}}, {}
    for line in lines:
        words = line.split()
        if words[-2] in digests:
            digests[words[-2]][" ".join(words[:-2])] = words[-1]
        else:
            # the key ends two words after the start, as problem names may hold spaces
            end = 3 + next(k for k, word in enumerate(words) if word.startswith("x0#"))
            runs[" ".join(words[:end])] = words[end:]
    return digests, runs


def compare(old_lines, new_lines) -> list[str]:
    """The lines ``--compare`` prints for two outputs of one set."""
    (old_digests, old_runs), (new_digests, new_runs) = _read(old_lines), _read(new_lines)
    out = []
    for kind, old in old_digests.items():
        new = new_digests[kind]
        if old == new and new:
            out.append(f"{kind} digests equal ({len(new)} problems)")
        elif old != new:
            differ = sorted(p for p in old.keys() | new.keys() if old.get(p) != new.get(p))
            out.append(f"{kind} digests differ: {', '.join(differ)}")
    for name, runs in (("old", old_runs), ("new", new_runs)):
        converged = sum(fields[0] == Status.CONVERGED.value for fields in runs.values())
        out.append(f"{name}: {len(runs)} runs, {converged} Converged")
    only = (len(old_runs.keys() - new_runs.keys()), len(new_runs.keys() - old_runs.keys()))
    if any(only):
        out.append(f"{only[0]} runs only in old, {only[1]} only in new")
    shared = [case for case in old_runs if case in new_runs]
    changed = [case for case in shared if old_runs[case] != new_runs[case]]
    out.append(f"{len(changed)} of {len(shared)} shared runs changed in some field")
    # a case key is "problem x0#i solver config", and problem names may hold spaces
    by_pair = collections.Counter(f"{case.partition(' x0#')[0]} {case.split()[-2]}" for case in changed)
    out += [f"  {count} in {pair}" for pair, count in sorted(by_pair.items())]
    lam_changes = {}
    for case in shared:
        old, new = old_runs[case], new_runs[case]
        if old[:2] != new[:2]:
            out.append(f"status or iterations: {case}: {' '.join(old[:2])} -> {' '.join(new[:2])}")
        if "raises" not in (old[0], new[0]) and old[2] != new[2]:
            lam_changes.setdefault(new[0], []).append(lam_change(old[2], new[2]))
    for status, changes in sorted(lam_changes.items()):
        out.append(f"lambda bits changed: {len(changes)} {status} runs, max |dlam| {max(changes):.3g}")
    if not lam_changes:
        out.append("lambda bits changed: none")
    return out


def _sets(text: str) -> dict[str, list[str]]:
    """Each set's lines in one output of this script, by the set's name."""
    sets, lines = {}, None
    for line in text.splitlines():
        if line.startswith("# "):
            lines = sets.setdefault(line[2:], [])
        elif lines is None:
            raise ValueError(f"not an output of this script: {line!r} comes before a '# set' line")
        else:
            lines.append(line)
    return sets


def compare_outputs(old_text: str, new_text: str) -> list[str]:
    """Per set, "identical" or how it changed, for two outputs of this script."""
    old, new = _sets(old_text), _sets(new_text)
    out = []
    for name in dict.fromkeys([*old, *new]):
        if old.get(name) == new.get(name):
            out.append(f"{name}: identical")
        else:
            out += [f"{name}:", *("  " + line for line in compare(old.get(name, []), new.get(name, [])))]
    return out


def export_src(rev: str, dest: Path) -> None:
    """Extract ``rev``'s ``src`` directory into ``dest`` with ``git archive``."""
    tar = subprocess.run(["git", "archive", rev, "src"], cwd=ROOT, check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=tar, check=True)


def against(rev: str) -> int:
    """Run both sets on ``rev``'s ``src`` and on this tree's; print how they compare."""
    script = Path(__file__).resolve()
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        export_src(rev, tmp)
        (tmp / "tests").mkdir()
        for path in script.parent.glob("*.py"):
            shutil.copy(path, tmp / "tests" / path.name)
        trees = {rev: tmp / "tests" / script.name, "this tree": script}
        outs = {name: tmp / f"{i}.txt" for i, name in enumerate(trees)}
        procs = {}
        for name, path in trees.items():
            with open(outs[name], "w", encoding="utf-8") as out:
                procs[name] = subprocess.Popen(
                    [sys.executable, str(path)], stdout=out, stderr=subprocess.PIPE, text=True, env=env
                )
        errs = {name: proc.communicate()[1].strip() for name, proc in procs.items()}
        for name, proc in procs.items():
            if proc.returncode:
                print(f"{name}: corpus failed with exit code {proc.returncode}\n{errs[name]}", file=sys.stderr)
                return 1
            print("\n".join(f"{name} {line}" for line in errs[name].splitlines()))
        old, new = (path.read_text(encoding="utf-8") for path in outs.values())
    print("\n".join(compare_outputs(old, new)))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description="Print, record or compare the golden and corpus sets.")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"), help="summarize how two outputs differ")
    parser.add_argument("--against", metavar="REV", help="run both sets on REV's src and on this tree, and compare")
    parser.add_argument("--record", action="store_true", help="re-record golden.txt and say what changed")
    args = parser.parse_args()
    if args.compare:
        old, new = (Path(path).read_text(encoding="utf-8") for path in args.compare)
        print("\n".join(compare_outputs(old, new)))
        return 0
    if args.against:
        return against(args.against)
    if args.record:
        lines, counts = run_set("golden")
        old = GOLDEN.read_text(encoding="utf-8").splitlines() if GOLDEN.exists() else []
        GOLDEN.write_text("\n".join(lines) + "\n", encoding="utf-8")
        print(f"golden: {counts}", file=sys.stderr)
        print("\n".join(compare(old, lines)))
        return 0
    for name in SETS:
        lines, counts = run_set(name)
        print(f"# {name}", *lines, sep="\n")
        print(f"{name}: {counts}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
