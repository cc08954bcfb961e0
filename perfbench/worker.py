"""One workload in a fresh process: one client, closed loop, outputs checked.

Started by run.py with one JSON argument::

    {"workload": ..., "specs": [...], "seed": n, "seconds": s,
     "mode": "plain" | "trace" | "single", "spans": path or null}

* ``plain``: a warm-up request, then requests back to back for ``seconds``;
  reports each latency, the elapsed time and peak RSS.
* ``trace``: a warm-up request, then untraced and traced requests in turn;
  per-layer metrics come from the traced ones, and their latency over the
  untraced latency is the tracing overhead.
* ``single``: traced requests only, for at least ``seconds`` and at least
  one request (run.py starts it with single-threaded BLAS).

Each distinct output is checked once; a request fails when an output
misses its check or the request raises.  The last stdout line is the
result as JSON.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import random
import re
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import tracing
import workloads


def blas_threads() -> int | None:
    """Thread count of the loaded OpenBLAS, or None when it cannot be asked."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", fh.read())))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in (
            "openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
        ):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_facts() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
    }


def main(args: dict) -> dict:
    import tierdecomp as td

    workload, mode = args["workload"], args["mode"]
    specs = [Path(p) for p in args["specs"]]
    rng = random.Random(args["seed"])
    tracer = tracing.Tracer() if mode != "plain" else None
    expected: dict = {}
    verdicts: dict = {}
    problems: list = []
    samples = {False: [], True: []}  # traced? -> latencies
    decomposition_mb = []
    attempted = failed = 0

    def one(index: int, traced: bool, timed: bool) -> None:
        nonlocal attempted, failed
        if traced:
            tracer.request = index
            tracer.install()
        t0 = perf_counter()
        try:
            outputs = workloads.request(td, workload, specs, rng)
        except Exception:
            outputs, error = None, traceback.format_exc(limit=3)
        finally:
            latency = perf_counter() - t0
            if traced:
                tracer.uninstall()
        if traced:
            tracer.finish()
        attempted += 1
        if outputs is None:
            found = [error]
        else:
            found = []
            for name, out in outputs.items():
                key = (name, workloads.fingerprint(out))
                if key not in verdicts:
                    verdicts[key] = workloads.check_bundle(td, workload, name, out, expected)
                found += verdicts[key]
            if traced:
                mb = sum(o.get("decomposition_mb", 0.0) for o in outputs.values())
                decomposition_mb.append(mb)
        if found:
            failed += 1
            problems.extend(found[: 5 - len(problems)])
        if timed:
            samples[traced].append(latency)

    if mode != "single":
        one(-1, False, False)  # warm-up: lazy set-up, BLAS threads, allocator
    index = 0
    start = perf_counter()
    while True:
        traced = mode == "single" or (mode == "trace" and index % 2 == 1)
        one(index, traced, True)
        index += 1
        if perf_counter() - start >= args["seconds"] and (mode != "trace" or index >= 2):
            break
    elapsed = perf_counter() - start

    result = {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "machine": machine_facts(),
        "samples": len(samples[mode != "plain"]),
    }
    if mode == "plain":
        result["latencies"] = samples[False]
        result["elapsed"] = elapsed
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return result
    layers = tracing.layer_metrics(tracer.rows)
    if mode == "single":
        result["metrics"] = {"projlin.mul.gflop_per_s_1thread": layers["projlin.mul.gflop_per_s"]}
    else:
        layers["structure.decomposition_mb"] = statistics.median(decomposition_mb)
        layers["trace.overhead_ratio"] = statistics.median(samples[True]) / statistics.median(
            samples[False]
        )
        result["metrics"] = layers
    if args.get("spans"):
        tracer.write(args["spans"])
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
