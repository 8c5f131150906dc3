"""Run the benchmark in alternating pairs, a revision against this tree.

    python tests/pairs.py --against HEAD~1 --workload paper --pairs 10 --seconds 28 --seed 1

exports REV's ``src`` into a temporary directory with ``corpus.py``'s
``export_src``, and copies this tree's ``src`` into another.
Each gets a copy of this tree's ``bench`` and ``BENCHMARK.json``, so both
sides run the same benchmark code on their own ``teicp``.  Pair i runs
``bench/run.py --workload W --seed K+i --seconds S --trace T`` once in each
tree, one run at a time; the parent runs first in even pairs and the change
in odd ones, so a drift of the machine's speed does not favor one side.
Before pair 1, each tree makes one warm-up run with pair 1's workload, seed
and seconds, as the first run of a series reads high; the warm-up runs are
noted on stderr and left out of the medians, the pairs won and ``--out``.

For every metric the benchmark lists for that trace mode, the script
prints, as one JSON object, the parent's and the change's medians and
quartiles (linear interpolation), the parent's interquartile range, the
change's difference and ratio to the parent, the median and range of the
per-pair ratios change / parent (the two runs of a pair share a seed), and
how many pairs the change won (by the metric's ``better`` direction in
``BENCHMARK.json``), with every run's value; beside them go each pair's
failed-op counts and the attempted counts seen.  ``--out FILE`` also writes that summary with every
run's parsed result, in the shape of the ``BENCH_*.json`` files.  Runs are
sequential, so a pair of 28-s runs takes about a minute.
Pytest does not collect this file: its name does not start with ``test_``.
"""

from __future__ import annotations

import argparse
import json
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from corpus import ROOT, export_src


def _tree(dest: Path, src_from: str | None) -> Path:
    """A checkout at ``dest``: REV's src (or this tree's if None), this tree's bench."""
    dest.mkdir()
    if src_from is None:
        shutil.copytree(ROOT / "src", dest / "src", ignore=shutil.ignore_patterns("__pycache__"))
    else:
        export_src(src_from, dest)
    shutil.copytree(ROOT / "bench", dest / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
    return dest


def _run(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run in ``tree``, with its last output line parsed."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", f"{seconds:g}", "--trace", str(trace)]
    t0 = time.perf_counter()
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"{tree.name}: bench/run.py gave no result (exit code {done.returncode})")
    return {"rc": done.returncode, "wall": wall, **result}


def _quartiles(values: list[float]) -> list[float]:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def summarize(runs: list[dict], listed: list[dict]) -> dict:
    """Per metric: medians, quartiles, parent IQR, change - parent, per-pair ratios and pairs won."""
    sides = {side: [r for r in runs if r["side"] == side] for side in ("parent", "change")}
    out: dict = {"pairs": len(sides["change"])}
    for metric in listed:
        name = metric["name"]
        vals = {side: [r["metrics"][name]["value"] for r in rs] for side, rs in sides.items()}
        pairs = list(zip(vals["parent"], vals["change"]))
        ratios = [c / p for p, c in pairs] if all(p for p, _ in pairs) else None
        if len(vals["parent"]) == 1:
            out[name] = {"parent": vals["parent"][0], "change": vals["change"][0],
                         "change_over_parent": ratios and ratios[0]}
            continue
        parent_q, change_q = _quartiles(vals["parent"]), _quartiles(vals["change"])
        parent_med, change_med = statistics.median(vals["parent"]), statistics.median(vals["change"])
        higher = metric["better"] == "higher"
        won = sum((c > p) if higher else (c < p) for p, c in pairs)
        out[name] = {
            "parent_median": parent_med,
            "change_median": change_med,
            "parent_quartiles": parent_q,
            "change_quartiles": change_q,
            "parent_iqr": parent_q[1] - parent_q[0],
            "change_minus_parent": change_med - parent_med,
            "change_over_parent": change_med / parent_med if parent_med else None,
            "pair_ratio_median": ratios and statistics.median(ratios),
            "pair_ratio_range": ratios and [min(ratios), max(ratios)],
            "pairs_won_by_change": won,
            "parent_runs": vals["parent"],
            "change_runs": vals["change"],
        }
    out["failed_parent_change"] = [[p["failed"], c["failed"]] for p, c in zip(sides["parent"], sides["change"])]
    out["attempted"] = sorted({r["attempted"] for r in runs})
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description="Run bench/run.py in alternating pairs, REV against this tree.")
    parser.add_argument("--against", required=True, metavar="REV", help="the parent revision")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, required=True, help="pair i runs seed K+i")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="also write the summary and every run here as JSON")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be positive")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"parent": _tree(Path(tmp) / "parent", args.against), "change": _tree(Path(tmp) / "change", None)}
        # i = -1 is the warm-up: pair 1's seed in each tree, noted on stderr and discarded.
        for i in range(-1, args.pairs):
            seed = args.seed + max(i, 0)
            label = "warm-up (discarded)" if i < 0 else f"pair {i + 1}/{args.pairs}"
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                run = _run(trees[side], args.workload, seed, args.seconds, args.trace)
                if i >= 0:
                    runs.append({"workload": args.workload, "seed": seed, "side": side, "first": order[0],
                                 "trace": args.trace, **run})
                value = {m["name"]: run["metrics"][m["name"]]["value"] for m in listed[:1]}
                print(f"{label} seed {seed} {side}: {value} correct={run['correct']}", file=sys.stderr)
    summary = {args.workload: summarize(runs, listed)}
    print(json.dumps(summary, indent=1))
    if args.out:
        record = {
            "command": " ".join([Path(sys.argv[0]).name, *sys.argv[1:]]),
            "against": args.against,
            "machine": {"python": platform.python_version(), "platform": platform.platform()},
            "summary": summary,
            "runs": runs,
        }
        args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0 if all(r["rc"] == 0 and r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
