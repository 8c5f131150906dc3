"""teicp benchmark: certified-solve throughput and latency, one workload per run.

Run from the repository root:

    python3 bench/run.py --workload paper --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics: set-up time, then solves run
back to back (a closed loop with one client).  The ops come from a fixed
list made from the seed; the list runs once, with every op checked, and is
then cycled until ``--seconds`` seconds were spent in ops, each repeat
required to match its first result.  A reference block timed between
rounds follows the machine's speed, which drifts on a shared host;
``solves_per_ref_s`` scales throughput by it.
``--trace 1`` runs a fixed op list twice, untraced and with spans around
every teicp layer, alternating round by round, and reports the per-layer
metrics.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics; the lines before it give each
metric with its unit and sample count, and the machine record.  A full
record is written under ``.bench_out/``.  The run exits 1 when a check
fails, and 2 when the teicp sources are not beside this directory.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_REPEATS = 7
REF_EVERY_S = 0.15  # op time between two reference blocks
REF_BLOCK_S = 0.005  # a reference block's time on the 2-core Xeon VM the benchmark was tuned on
BLAS_THREADS = "1"
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Set-up, timed in a fresh interpreter: import teicp (and numpy with it),
# then build the workload's tensors.
_SETUP_PROBE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import importlib\n"
    "importlib.import_module(sys.argv[2])\n"
    "from teicp.problems import build, parse_problem\n"
    "for p in sys.argv[3:]:\n"
    "    build(parse_problem(p))\n"
    "print(repr(time.perf_counter() - t0))\n"
)

# Units of the metrics printed; those listed in BENCHMARK.json take theirs from there.
UNITS = {
    "cli.self_ms": "ms",
    "solvers.eig_ms": "ms",
    "setup_s": "s",
    "solves_per_s": "ops/s",
    "solves_per_ref_s": "ops/ref-s",
    "solve_ms_p50": "ms",
    "solve_ms_p90": "ms",
    "converged_frac": "ratio",
    "failed_frac": "ratio",
    "peak_rss_mb": "MiB",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="paper | rand-m4 | rand-m6 | cli-fresh")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


class SetupProbe:
    """Times set-up in fresh interpreters, spread over the run.

    The machine's speed drifts over tens of seconds, so the probes run one
    at the start and the rest between rounds of the timed phase, where they
    take no time from the ops; their median is `setup_s`.
    """

    def __init__(self, workload, seconds: float):
        module = "teicp.cli" if workload.via_cli else "teicp"
        self.cmd = [sys.executable, "-c", _SETUP_PROBE, str(SRC), module, *workload.problems]
        self.every = seconds / (SETUP_REPEATS - 1)
        self.times: list[float] = []

    def probe(self) -> None:
        done = subprocess.run(self.cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        self.times.append(float(done.stdout.strip().splitlines()[-1]))

    def between_rounds(self, spent: float) -> None:
        if len(self.times) < SETUP_REPEATS and spent >= len(self.times) * self.every:
            self.probe()

    def finish(self) -> list[float]:
        while len(self.times) < SETUP_REPEATS:
            self.probe()
        return self.times


class Speedometer:
    """Times a fixed reference block between rounds, to follow the machine's speed.

    On a shared host the speed of identical ops drifts by 20-30% over tens
    of seconds.  The block mixes small numpy contractions with interpreter
    work, as a solve does; it runs once per `REF_EVERY_S` of op time, so its
    mean time weighs the run's stretches as the ops do.  ``factor`` is that
    mean over `REF_BLOCK_S`: above 1 the machine ran slower than reference.
    """

    def __init__(self, np):
        rng = np.random.default_rng(0)
        self.tensor = rng.standard_normal((10, 10, 10, 10))
        self.vec = rng.standard_normal(10)
        self.times: list[float] = []
        for _ in range(5):  # warm-up, untimed
            self._block()

    def _block(self) -> float:
        acc = 0.0
        for k in range(160):
            y = self.tensor
            for _ in range(3):
                y = y @ self.vec
            acc += float(y @ self.vec) / (1 + k)
            for i in range(150):
                acc = (acc * 0.999 + i % 7) % 1e6
        return acc

    def between_rounds(self, spent: float) -> None:
        while len(self.times) * REF_EVERY_S <= spent:
            t0 = time.perf_counter()
            self._block()
            self.times.append(time.perf_counter() - t0)

    @property
    def factor(self) -> float:
        return statistics.fmean(self.times) / REF_BLOCK_S


def _blas_threads():
    """Thread count OpenBLAS reports for itself, or None if it cannot be asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, fn):
                getter = getattr(handle, fn)
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "none (not a git checkout)"


def _l2_bytes():
    try:
        size = Path("/sys/devices/system/cpu/cpu0/cache/index2/size").read_text().strip()
    except OSError:
        return None
    scale = {"K": 1024, "M": 1024**2}.get(size[-1], 1)
    return int(size.rstrip("KM")) * scale


def machine_record(args, np, workloads) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError, ValueError):
        blas = {"name": "unknown", "version": "unknown"}
    l2 = _l2_bytes()
    tensors = {
        name: spec.n**spec.m * 8
        for name, wl in workloads.WORKLOADS.items()
        for spec in map(workloads.parse_problem, wl.problems)
        if spec.kind == "rand"
    }
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
        "thread_env": {v: os.environ.get(v) for v in _THREAD_VARS},
        "commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "solver_tol": workloads.CONFIG.tol,
        "solver_max_iters": workloads.CONFIG.max_iters,
        "certify_tol": workloads.CERTIFY_TOL,
        "load": "closed loop: one client in one process runs ops back to back",
        "l2_bytes_per_core": l2,
        "tensor_bytes": tensors,
        "cache_note": (
            "both rand-* tensors fit in the per-core L2, so tensor.bytes_computed is "
            "passes x entries x 8 computed from counts, not a measured memory bandwidth"
            if l2 and max(tensors.values()) <= l2
            else "a rand-* tensor exceeds the per-core L2 (or its size is unknown); "
            "tensor.bytes_computed is still computed from counts, not measured"
        ),
    }


def end_to_end(args, workloads, workload, np):
    probe = SetupProbe(workload, args.seconds)
    probe.probe()
    meter = Speedometer(np)
    runner = workloads.Runner(workload, args.seed, OUT / "cli")
    tally = workloads.Tally()

    def between_rounds(spent):
        meter.between_rounds(spent)
        probe.between_rounds(spent)

    latencies, spent, first_pass, changed = workloads.timed_phase(runner, tally, args.seconds, between_rounds)
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup = probe.finish()

    lat_ms = [t * 1e3 for t in latencies]
    n = len(lat_ms)
    a = tally.attempted
    values = {
        "setup_s": (statistics.median(setup), f"median of {len(setup)} set-ups"),
        "solves_per_s": (n / spent, f"{n} ops in {spent:.3f} s"),
        "solves_per_ref_s": (n / spent * meter.factor,
                             f"{n} ops; machine {meter.factor:.4f}x reference time over {len(meter.times)} blocks"),
        "solve_ms_p50": (statistics.median(lat_ms), f"n={n}"),
        "solve_ms_p90": (statistics.quantiles(lat_ms, n=10)[8], f"n={n}"),
        "converged_frac": (tally.converged / a, f"{tally.converged}/{a}"),
        "failed_frac": (tally.failed / a, f"{tally.failed}/{a}"),
        "peak_rss_mb": (rss_mib, "1 sample, whole process"),
    }
    record = {
        "metrics": {k: {"value": v, "unit": UNITS[k], "samples": s} for k, (v, s) in values.items()},
        "setup_samples_s": setup,
        "reference_block_s": {"nominal": REF_BLOCK_S, "mean": statistics.fmean(meter.times),
                              "quartiles": statistics.quantiles(meter.times, n=4), "blocks": len(meter.times)},
        "latency_quartiles_ms": statistics.quantiles(lat_ms, n=4),
        "repeats_changed": changed[:100],
    }
    record["first_pass_s"] = first_pass
    lines = [f"checked ops: the seed's list of {a} ops, run once in {first_pass:.3f} s; "
             f"{n - a} repeats of it matched their first result"
             if not changed else f"{len(changed)} of {n - a} repeated ops differed from their first result"]
    lines += [f"failed ops: {cell} x{count}" for cell, count in sorted(tally.failures.items())]
    problems = tally.problems()
    if changed:
        problems.append(f"repeating an op changed its result: ops {changed[:10]}")
    return tally, problems, values, record, lines


def per_layer(args, workloads, workload, np):
    from tracer import write_spans

    result = workloads.traced_phase(workload, args.seed, OUT / "cli", workload.trace_rounds)
    tally = result["tally"]
    overhead = result["traced_solves_per_s"] / result["plain_solves_per_s"]
    values = {k: (v, f"over {tally.attempted} traced ops") for k, v in result["metrics"].items()}
    record = {
        "metrics": result["metrics"],
        "tracing_overhead": {
            "traced_over_untraced_solves_per_s": overhead,
            "traced_solves_per_s": result["traced_solves_per_s"],
            "untraced_solves_per_s": result["plain_solves_per_s"],
            "base": f"the same {tally.attempted} ops, run untraced and traced in alternating rounds",
        },
        "wrappers_missing": result["missing"],
        "mismatched_ops": result["mismatched"],
    }
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    write_spans(result["spans"], spans_path)
    record["spans_file"] = str(spans_path.relative_to(ROOT))
    lines = [
        f"tracing overhead: traced/untraced solves_per_s = {overhead:.3f} "
        f"({result['traced_solves_per_s']:.2f} / {result['plain_solves_per_s']:.2f} ops/s, "
        f"base: the same {tally.attempted} ops)",
    ]
    lines += [f"failed ops: {cell} x{count}" for cell, count in sorted(tally.failures.items())]
    if result["missing"]:
        lines.append(f"not traced (absent from teicp): {', '.join(result['missing'])}")
    problems = tally.problems()
    if result["mismatched"]:
        problems.append(f"tracing changed the results of ops {result['mismatched'][:10]}")
    return tally, problems, values, record, lines


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in _THREAD_VARS:
        os.environ[var] = BLAS_THREADS  # before numpy loads, here and in set-up probes
    if not (SRC / "teicp" / "__init__.py").is_file():
        print(f"error: no teicp sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np
    import teicp

    if Path(teicp.__file__).resolve().parent != (SRC / "teicp").resolve():
        print(f"error: imported teicp from {teicp.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 64
    (OUT / "cli").mkdir(parents=True, exist_ok=True)
    machine = machine_record(args, np, workloads)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {**UNITS, **{m["name"]: m["unit"] for m in listed}}
    run = per_layer if args.trace else end_to_end
    tally, problems, values, record, lines = run(args, workloads, workload, np)
    record.update(machine=machine, attempted=tally.attempted, failed=tally.failed,
                  failures=tally.failures, checks_failed=problems)
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2, default=str) + "\n", encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print("machine " + json.dumps({k: machine[k] for k in (
        "nproc", "python", "numpy", "blas", "blas_threads", "commit", "solver_tol", "certify_tol")}))
    print(f"note: {machine['cache_note']}")
    for name, (value, samples) in values.items():
        print(f"  {name:<24} {value:>14.6g} {units[name]:<6} {samples}")
    for line in lines:
        print(line)
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(f"record written to {path.relative_to(ROOT)}")

    result = {
        "correct": not problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": values[m["name"]][0], "unit": m["unit"]} for m in listed},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
