"""graphwell benchmark: end-to-end metrics, or per-layer metrics when traced.

    python3 perfbench/run.py --workload g22-sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py                  # every workload, untraced
    python3 perfbench/run.py --trace 1        # every workload: one untraced run
                                              # and two traced runs each

Run from the repository root; graphwell is imported from ``src/``. A single
workload run is a closed loop with one client: it repeats passes over the
workload's op list until ``--seconds`` have passed (at least two passes, so
repeats can be checked), checks every op's output, and prints the metrics as
``metric <name> <value> <unit>`` lines, then one JSON result as the last line.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
WORKLOADS = ("g22-sweep", "grid-polish", "tail-corpus")
BLAS_THREADS = 1            # one BLAS thread: steadier than sharing the cores
SETUP_REPEATS = 7           # set-up is timed in this many fresh processes
MIN_PASSES = 2
TAIL_BEYOND = 10            # samples beyond the tail percentile in the shortest run

E2E_METRICS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_s.p50": "s",
    "op_s.tail": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--setup-probe", action="store_true",
                    help="build the workload's inputs, print the elapsed time and exit")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "graphwell" / "__init__.py").is_file():
        print(f"perfbench: no graphwell sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    # Before numpy is first imported, here and in every child process.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        build_workload(args.workload, args.seed)
        print(repr(time.perf_counter() - _STARTED))
        return 0
    return run_one(args)


def build_workload(name: str, seed: int):
    from workloads import WORKLOADS as classes
    return classes[name](seed, OUT)


def child(args, workload: str, *extra: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds), *extra]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)


def measure_setup(args) -> list[float]:
    """Import graphwell and numpy and build the inputs, in fresh processes."""
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = child(args, args.workload, "--setup-probe")
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def tail_percentile(ops_per_pass: int, beyond: int = TAIL_BEYOND) -> float:
    """The workload's fixed tail percentile.

    It is the highest percentile with ``beyond`` samples above it in the
    fewest ops a run makes (``MIN_PASSES`` passes), and never below the
    median. Being fixed, it stays the same percentile when a faster program
    fits more ops into a run.
    """
    n = MIN_PASSES * ops_per_pass
    return max(50.0, 100.0 * (n - beyond) / n)


def quantile(samples: list[float], percentile: float) -> float:
    """Nearest-rank value at ``percentile``, never below the upper median."""
    xs = sorted(samples)
    rank = max(math.ceil(percentile * len(xs) / 100.0), len(xs) // 2 + 1)
    return xs[rank - 1]


def latency_stats(passes: list[list[float]], percentile: float) -> tuple[float, float]:
    """Median and tail latency: each taken within every pass, then the median
    over passes.

    Every input appears once in a pass. Pooling the passes instead would let
    the number of passes that fit in a run move a percentile that falls
    between two inputs of very different cost.
    """
    p50 = statistics.median(statistics.median(p) for p in passes)
    tail = statistics.median(quantile(p, percentile) for p in passes)
    return p50, tail


def environment(seed: int) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_lib = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_lib = "unknown"
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30,
                             env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        git_sha = sha.stdout.strip() if sha.returncode == 0 else "unknown (not a git checkout)"
    except (OSError, subprocess.SubprocessError):
        git_sha = "unknown (git not available)"
    return {"git_sha": git_sha, "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_lib, "blas_threads": BLAS_THREADS, "nproc": os.cpu_count(),
            "seed": seed}


def run_one(args) -> int:
    setup = [] if args.trace else measure_setup(args)
    wl = build_workload(args.workload, args.seed)
    env = environment(args.seed)

    tracer = None
    if args.trace:
        from spans import SpanRecorder, Tracer
        tracer = Tracer(SpanRecorder())
        tracer.install()
        wl.entry = tracer.wrap(wl.entry_span, wl.entry)

    latencies: list[list[float]] = []   # one list per pass
    failures: list[str] = []
    per_op_counts: dict[object, dict] = {}
    ops = passes = 0
    started = time.perf_counter()
    try:
        while passes < MIN_PASSES or time.perf_counter() - started < args.seconds:
            latencies.append([])
            for key in wl.keys:
                if tracer:
                    tracer.rec.op = ops
                    before = tracer.totals()
                t0 = time.perf_counter()
                try:
                    failed = wl.run(key)
                except Exception:  # an op that raises is a failed op; the run goes on
                    failed = ["raised:\n" + traceback.format_exc()]
                latencies[-1].append(time.perf_counter() - t0)
                if tracer:
                    counts = op_counts(before, tracer.totals())
                    if counts != per_op_counts.setdefault(key, counts):
                        failed.append("layer counts differ from the first op on this input")
                if failed:
                    failures.append(f"op {ops} (input {key}): " + "; ".join(failed))
                ops += 1
            passes += 1
        elapsed = time.perf_counter() - started
    finally:
        if tracer:
            tracer.uninstall()

    tail_pct = tail_percentile(len(wl.keys))
    p50, tail = latency_stats(latencies, tail_pct)
    beyond = sum(x > tail for p in latencies for x in p)
    e2e = {
        "ops_per_s": ops / elapsed,
        "op_s.p50": p50,
        "op_s.tail": tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {
        "workload": args.workload, "trace": args.trace, "env": env,
        "ops": ops, "passes": passes, "elapsed_s": elapsed,
        "failed_ratio": len(failures) / ops,
        "op_s.tail": {"percentile": tail_pct, "samples": ops, "beyond": beyond},
        "setup_samples_s": setup,
    }
    correct = not failures
    if tracer:
        from spans import LAYER_METRICS, layer_metrics
        metrics = {name: {"value": value, "unit": LAYER_METRICS[name][0]}
                   for name, value in layer_metrics(tracer.totals(), ops).items()}
        detail["traced_ops_per_s"] = e2e["ops_per_s"]
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.csv"
        tracer.rec.write(spans)
        detail["spans_file"] = str(spans.relative_to(ROOT))
    else:
        e2e["setup_s"] = statistics.median(setup)
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in E2E_METRICS.items()}

    for msg in failures:
        print(f"perfbench: check failed: {msg}", file=sys.stderr)
    print(f"# perfbench {args.workload} seed={args.seed} trace={args.trace}")
    for name, m in metrics.items():
        print(f"metric {name} {m['value']!r} {m['unit']}")
    if not tracer:
        print(f"metric failed_ratio {detail['failed_ratio']!r} ratio")
    print("detail " + json.dumps(detail))
    print(json.dumps({"correct": correct, "attempted": ops, "failed": len(failures),
                      "metrics": metrics}))
    return 0 if correct else 1


def op_counts(before: dict, after: dict) -> dict:
    from spans import count_keys
    return {k: after[k] - before.get(k, 0) for k in count_keys(after)}


def last_json(proc: subprocess.CompletedProcess) -> dict:
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"no result from child run:\n{proc.stderr}")
    return json.loads(lines[-1])


def run_all(args) -> int:
    """Every workload in its own process, so peak memory is per workload."""
    from spans import count_keys
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOADS:
        runs = [child(args, name, "--trace", "0")]
        if args.trace:
            runs += [child(args, name, "--trace", "1") for _ in range(2)]
        for proc in runs:
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
        results = [last_json(p) for p in runs]
        correct = correct and all(r["correct"] and p.returncode == 0
                                  for r, p in zip(results, runs))
        attempted += sum(r["attempted"] for r in results)
        failed += sum(r["failed"] for r in results)
        for r in results:
            metrics.update({f"{name}.{k}": v for k, v in r["metrics"].items()})
        if args.trace:
            untraced, first, second = results
            counts = {k: (first["metrics"][k]["value"], second["metrics"][k]["value"])
                      for k in count_keys(first["metrics"])}
            differ = sorted(k for k, (a, b) in counts.items() if a != b)
            if differ:
                correct = False
                print(f"perfbench: {name}: counts differ between two traced runs: {differ}",
                      file=sys.stderr)
            traced = [json.loads(line[len("detail "):]) for p in runs[1:]
                      for line in p.stdout.splitlines() if line.startswith("detail ")]
            ratio = statistics.mean(d["traced_ops_per_s"] for d in traced) / \
                untraced["metrics"]["ops_per_s"]["value"]
            print(f"overhead {name} traced/untraced ops_per_s {ratio!r} "
                  f"counts_repeat {str(not differ).lower()}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
