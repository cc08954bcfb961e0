"""tierdecomp benchmark: one command, every metric by name with its unit.

    python3 perfbench/run.py --workload small --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  Workloads: small, corn, lattice,
diagnose (see workloads.py for what each is and why).  The inputs are made
from ``--seed`` into ``perfbench/.work``; the workload runs in fresh
worker processes (worker.py), one client in a closed loop, with OpenBLAS
at its default thread count.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median over
fresh interpreters of start to ``import tierdecomp`` plus ``load_design``),
``request_s.p50``, ``requests_per_s`` and ``peak_rss_mb`` of the workers.
``--trace 1`` prints the per-layer metrics of a traced run (tracing.py)
and the GFLOP/s of ``projlin.mul`` with single-threaded BLAS.

The last stdout line is the result as JSON: correct, attempted, failed and
metrics.  The line before it carries the sample count, p90 latency when at
least ten samples lie beyond it, the failed ratio and the machine facts.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
SETUP_PROBES = 15
# Latency differs by a few percent from one worker process to the next,
# so plain runs pool the samples of several workers.
PLAIN_WORKERS = 2
P90_MIN_SAMPLES = 100  # p90 needs at least ten samples beyond it
SINGLE_SECONDS = 2.0  # least measuring time of the single-threaded BLAS pass
BUDGET_S = 170.0  # whole run, including set-up probes and every worker


def declared_units(trace: int) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


class Budget:
    """Deadline shared by every subprocess of one run."""

    def __init__(self, seconds: float):
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        left = self.end - time.monotonic()
        if left <= 0:
            raise RuntimeError("time budget of the run is spent")
        return left


def python(script: str, args: list, env: dict, budget: Budget) -> str:
    """Run a benchmark script in a fresh interpreter; return its stdout."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / script), *args],
        env=env,
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=budget.left(),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{script} exited with {proc.returncode}:\n{proc.stderr}")
    return proc.stdout


def setup_s(spec: Path, env: dict, budget: Budget) -> float:
    """Median wall time from interpreter start to import plus load_design."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        stamp = float(python("setup_probe.py", [str(spec)], env, budget).split()[-1])
        times.append(stamp - start)
    return statistics.median(times)


def worker(job: dict, env: dict, budget: Budget) -> dict:
    out = python("worker.py", [json.dumps(job)], env, budget)
    return json.loads(out.strip().splitlines()[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="tierdecomp benchmark")
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "tierdecomp" / "__init__.py").is_file():
        print(f"error: no tierdecomp sources under {SRC}", file=sys.stderr)
        return 2

    budget = Budget(BUDGET_S)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    WORK.mkdir(parents=True, exist_ok=True)
    inputs = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK))
    try:
        specs = workloads.prepare(args.workload, args.seed, inputs)
        job = {
            "workload": args.workload,
            "specs": [str(s) for s in specs],
            "seed": args.seed,
            "seconds": args.seconds,
        }
        info = {"workload": args.workload, "seed": args.seed}
        if args.trace:
            spans = WORK / f"spans-{args.workload}-seed{args.seed}.tsv"
            single = dict(job, mode="single", seconds=SINGLE_SECONDS, spans=None)
            single_env = dict(env, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
            runs = [
                worker(dict(job, mode="trace", spans=str(spans)), env, budget),
                worker(single, single_env, budget),
            ]
            values = {**runs[0]["metrics"], **runs[1]["metrics"]}
            info["spans"] = str(spans.relative_to(ROOT))
        else:
            setup = setup_s(specs[0], env, budget)
            plain = dict(job, mode="plain", seconds=args.seconds / PLAIN_WORKERS, spans=None)
            runs = [worker(plain, env, budget) for _ in range(PLAIN_WORKERS)]
            lat = [x for r in runs for x in r["latencies"]]
            values = {
                "setup_s": setup,
                "request_s.p50": statistics.median(lat),
                "requests_per_s": len(lat) / sum(r["elapsed"] for r in runs),
                "peak_rss_mb": max(r["peak_rss_mb"] for r in runs),
            }
            if len(lat) >= P90_MIN_SAMPLES:
                info["request_s.p90"] = statistics.quantiles(lat, n=10)[-1]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(inputs, ignore_errors=True)

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    units = declared_units(args.trace)
    if set(values) != set(units):
        print(f"error: measured {sorted(values)}, declared {sorted(units)}", file=sys.stderr)
        return 1
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    info.update(
        samples=[r["samples"] for r in runs],
        failed_ratio=failed / attempted,
        problems=[pr for r in runs for pr in r["problems"]][:5],
        machine=[r["machine"] for r in runs],
    )
    print(json.dumps(info))
    for pr in info["problems"]:
        print(f"check failed: {pr}", file=sys.stderr)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
