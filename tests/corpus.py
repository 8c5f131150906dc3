"""Print one line per run of the solver comparison corpus.

A refactor that must keep every report bit-identical is checked by running
this script in both trees and comparing the outputs::

    python tests/corpus.py > new.txt          # in the changed tree
    python tests/corpus.py > old.txt          # in a checkout of the parent
    diff old.txt new.txt                      # no output: no report changed

Copy the script into the parent checkout if it is not there yet.  It imports
``teicp`` from the ``src`` directory next to it, so each tree runs its own code.
The same check is one command::

    python tests/corpus.py --against HEAD~1

exports that revision's ``src`` with ``git archive`` into a temporary
directory next to a copy of this script, runs the corpus on both trees at
once (one BLAS thread each), prints each tree's run counts, and then prints
"identical" if the two outputs are, or else the ``--compare`` summary.

A change that is meant to alter bits is summarized instead of diffed::

    python tests/corpus.py --compare old.txt new.txt

prints whether the entries and packed-matrix digests are equal, each run
whose status or iteration count changed, and per status the number of runs
whose lambda bits changed with the largest |dlam| among them.

The corpus has 5,940 runs.  The starts are ``random_start(n, 20240 + r)``:
r < 100 on ex1, ex2:n=5, ex3, ex4:n=5, ex5:n=5 and ex6:n=5 (the criterion-8
starts), and r < 12 on rand:n=20,m=4,seed=1, rand:n=6,m=6,seed=1,
rand:n=16,m=4,seed=0, rand:n=6,m=4 and rand:n=4,m=6.  Each start runs every
solver under the Rayleigh merit, and spg1 and spg2 also under the log merit
and with ``paper_literal_safeguards=True``.  Every run keeps its iterates.

Each problem first gets a line with the sha256 digest of its tensor's
entries and one with the digest of the packed matrix its contractions read
(``T._packed``), so the comparison covers the tensor builders too.  Each
run's line holds the case key (problem, start, solver, config), the status,
the iteration count, ``lam.hex()``, and sha256 digests of x, of the residual
triple, of the trace rows and of the iterates.  A run that raises prints the
exception's type in place of the report.  The run count goes to stderr,
with how many runs end ``Converged`` and how many of those certify (max
violation of the residual triple within their config's ``tol``), so stdout
stays comparable between trees.
Pytest does not collect this file: its name does not start with ``test_``.
It takes about 20 s on a 2-core x86-64 VM (numpy 2.4, one BLAS thread).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from teicp.merit import MeritKind  # noqa: E402
from teicp.problems import build, parse_problem, random_start  # noqa: E402
from teicp.solvers import SOLVERS, SolverConfig, Status  # noqa: E402

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
}


def _digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(np.ascontiguousarray(part, dtype=float).tobytes())
    return h.hexdigest()


def report_line(rep) -> str:
    r = rep.residual
    return " ".join(
        (
            rep.status.value,
            str(rep.iters),
            rep.pair.lam.hex(),
            _digest([rep.pair.x]),
            _digest([[r.primal, r.dual, r.comp]]),
            _digest([dataclasses.astuple(t) for t in rep.trace]),
            _digest(rep.iterates),
        )
    )


def _read(path) -> tuple[dict, dict]:
    """({kind: {problem: digest}} for entries and packed, case key -> report fields) of one output."""
    digests, runs = {"entries": {}, "packed": {}}, {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        words = line.split()
        if words[1] in digests:
            digests[words[1]][words[0]] = words[2]
        else:
            runs[" ".join(words[:4])] = words[4:]
    return digests, runs


def compare(old_path, new_path) -> list[str]:
    """The lines ``--compare`` prints for two outputs of this script."""
    # Imported here: the copy that ``--against`` runs has no helpers.py next to it.
    from helpers import lam_change
    (old_digests, old_runs), (new_digests, new_runs) = _read(old_path), _read(new_path)
    out = []
    for kind, old in old_digests.items():
        new = new_digests[kind]
        if old == new:
            out.append(f"{kind} digests equal ({len(new)} problems)")
        else:
            differ = sorted(p for p in old.keys() | new.keys() if old.get(p) != new.get(p))
            out.append(f"{kind} digests differ: {', '.join(differ)}")
    for name, runs in (("old", old_runs), ("new", new_runs)):
        converged = sum(fields[0] == Status.CONVERGED.value for fields in runs.values())
        out.append(f"{name}: {len(runs)} runs, {converged} Converged")
    only = (len(old_runs.keys() - new_runs.keys()), len(new_runs.keys() - old_runs.keys()))
    if any(only):
        out.append(f"{only[0]} runs only in old, {only[1]} only in new")
    shared = [case for case in old_runs if case in new_runs]
    changed = sum(old_runs[case] != new_runs[case] for case in shared)
    out.append(f"{changed} of {len(shared)} shared runs changed in some field")
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


def against(rev: str) -> int:
    """Run the corpus on ``rev``'s ``src`` and on this tree's; print how they compare."""
    script = Path(__file__).resolve()
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        tar = tmp / "src.tar"
        subprocess.run(["git", "archive", "--output", str(tar), rev, "src"], cwd=script.parents[1], check=True)
        subprocess.run(["tar", "-xf", str(tar), "-C", str(tmp)], check=True)
        (tmp / "tests").mkdir()
        shutil.copy(script, tmp / "tests" / script.name)
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
            print(f"{name}: {errs[name]}")
        old, new = outs.values()
        if old.read_bytes() == new.read_bytes():
            print("identical")
        else:
            print("\n".join(compare(old, new)))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description="Print or compare the solver comparison corpus.")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"), help="summarize how two outputs differ")
    parser.add_argument("--against", metavar="REV", help="run the corpus on REV's src and on this tree, and compare")
    args = parser.parse_args()
    if args.compare:
        print("\n".join(compare(*args.compare)))
        return 0
    if args.against:
        return against(args.against)
    runs = converged = certified = 0
    for problem, count in PROBLEMS:
        A, B = build(parse_problem(problem))
        print(f"{problem} entries {hashlib.sha256(A.entries.tobytes()).hexdigest()}")
        print(f"{problem} packed {hashlib.sha256(A._packed.tobytes()).hexdigest()}")
        for r in range(count):
            x0 = random_start(A.dim, SEED + r)
            for config, (cfg, names) in CONFIGS.items():
                for name in names:
                    try:
                        rep = SOLVERS[name](A, B, x0, cfg)
                        line = report_line(rep)
                    except Exception as exc:  # a raise is a result to compare too
                        line = f"raises {type(exc).__name__}"
                    else:
                        if rep.status is Status.CONVERGED:
                            converged += 1
                            certified += rep.residual.max_violation() <= cfg.tol
                    print(f"{problem} x0#{r} {name} {config} {line}")
                    runs += 1
    print(f"{runs} runs, {converged} Converged, {certified} of them certified", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
