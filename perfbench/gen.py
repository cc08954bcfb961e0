"""Seeded synthetic design bundles for the benchmark and the scaling ladder.

Three families, each written as a spec file plus its allocation CSV:

* ``lattice``: balanced lattice for a prime k (the size).  n = k^2 (k+1)
  plots in k+1 replicates of k blocks of k plots; the replicates are the
  k+1 parallel classes of lines of the affine plane over Z_k (rows,
  columns and the k-1 slopes).  Treatments are structure balanced with
  efficiency 1/(k+1) between blocks and k/(k+1) within them.
* ``cyclic``: cyclic incomplete-block design with v treatments (the size)
  in v blocks of ``CYCLIC_BLOCK`` consecutive treatments.  Equireplicate
  but not balanced, so the build reports it incoherent.
* ``rcbd``: randomized complete blocks with ``RCBD_TREATMENTS`` treatments
  and n units (the size, a multiple of ``RCBD_TREATMENTS``).

The seed permutes block and plot order (lattice, rcbd) or relabels the
treatments (cyclic); the same kind, size and seed give the same bytes.

    python3 perfbench/gen.py lattice --size 11 --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import random
import sys
from pathlib import Path

CYCLIC_BLOCK = 8
RCBD_TREATMENTS = 16
KINDS = ("lattice", "cyclic", "rcbd")


def _is_prime(k: int) -> bool:
    return k >= 2 and all(k % d for d in range(2, int(k**0.5) + 1))


def _spec(name: str, kind: str, units: list, treatments: int) -> str:
    """Spec text: units tier nested as listed, one treatments tier."""
    lines = [f"design {name}", "units plots", "tier plots"]
    lines += [f"  factor {factor} {levels}" for factor, levels in units]
    lines.append("  formula " + "/".join(factor for factor, _ in units))
    lines += [
        "tier treatments",
        f"  factor Treatments {treatments}",
        "  formula Treatments",
        "randomize treatments -> plots type simple",
        f"allocation csv {kind}.csv",
    ]
    return "\n".join(lines) + "\n"


def _csv(header: list, rows: list) -> str:
    return "\n".join([",".join(header)] + [",".join(map(str, r)) for r in rows]) + "\n"


def lattice(k: int, seed: int) -> tuple[str, str]:
    if not _is_prime(k):
        raise ValueError(f"lattice size must be a prime k, got {k}")
    rng = random.Random(seed)
    classes = [[[a * k + b for b in range(k)] for a in range(k)]]  # rows
    classes.append([[a * k + b for a in range(k)] for b in range(k)])  # columns
    for s in range(1, k):  # lines b = c + s*a
        classes.append([[a * k + (c + s * a) % k for a in range(k)] for c in range(k)])
    rows = []
    for rep, lines in enumerate(classes, start=1):
        rng.shuffle(lines)
        for block, line in enumerate(lines, start=1):
            plots = list(line)
            rng.shuffle(plots)
            for plot, t in enumerate(plots, start=1):
                rows.append((rep, block, plot, t + 1))
    units = [("Reps", k + 1), ("Blocks", k), ("Plots", k)]
    spec = _spec(f"lattice-k{k}", "lattice", units, k * k)
    return spec, _csv(["Reps", "Blocks", "Plots", "Treatments"], rows)


def cyclic(v: int, seed: int) -> tuple[str, str]:
    k = CYCLIC_BLOCK
    if v <= k:
        raise ValueError(f"cyclic size must exceed the block size {k}, got {v}")
    labels = list(range(1, v + 1))
    random.Random(seed).shuffle(labels)
    rows = [
        (block + 1, offset + 1, labels[(block + offset) % v])
        for block in range(v)
        for offset in range(k)
    ]
    units = [("Blocks", v), ("Plots", k)]
    spec = _spec(f"cyclic-v{v}-k{k}", "cyclic", units, v)
    return spec, _csv(["Blocks", "Plots", "Treatments"], rows)


def rcbd(n: int, seed: int) -> tuple[str, str]:
    t = RCBD_TREATMENTS
    if n < 2 * t or n % t:
        raise ValueError(f"rcbd size must be a multiple of {t} and at least {2 * t}, got {n}")
    rng = random.Random(seed)
    rows = []
    for block in range(1, n // t + 1):
        order = list(range(1, t + 1))
        rng.shuffle(order)
        rows += [(block, plot, tr) for plot, tr in enumerate(order, start=1)]
    units = [("Blocks", n // t), ("Plots", t)]
    spec = _spec(f"rcbd-n{n}", "rcbd", units, t)
    return spec, _csv(["Blocks", "Plots", "Treatments"], rows)


def generate(kind: str, size: int, seed: int) -> tuple[str, str]:
    """Return (spec text, CSV text) for one bundle."""
    if kind not in KINDS:
        raise ValueError(f"unknown design kind {kind!r}; expected one of {KINDS}")
    return {"lattice": lattice, "cyclic": cyclic, "rcbd": rcbd}[kind](size, seed)


def write(kind: str, size: int, seed: int, out_dir) -> Path:
    """Write ``<kind>.spec`` and ``<kind>.csv`` into ``out_dir``; return the spec path."""
    spec, table = generate(kind, size, seed)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{kind}.csv").write_text(table, encoding="utf-8")
    path = out / f"{kind}.spec"
    path.write_text(spec, encoding="utf-8")
    return path


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("kind", choices=KINDS)
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="directory for the spec and CSV")
    args = p.parse_args(argv)
    try:
        print(write(args.kind, args.size, args.seed, args.out))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
