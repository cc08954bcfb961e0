"""Count the dense products, the eigensolves and the Python calls of one
build of each design.

    python tools/build_counts.py designs/corn.spec designs/ex2.spec

For each spec it prints three counts, all independent of timing noise:

* products: the ``projlin.mul`` calls of one ``diagnose_incoherence``,
  which is one ``build_decomposition`` that returns the incoherence report
  instead of raising it, so a coherent design counts its build.  ``mul``
  is wrapped in every tierdecomp module that imports it, for that call
  only; loading the design is not counted.
* eigensolves: the ``numpy.linalg.eigvalsh`` and ``eigh`` calls of the
  same build.
* calls: the cProfile ``total_calls`` of one load and build, after a first
  one that warms imports and caches.  It moves by a few calls between runs.

The ``tierdecomp`` imported is the one in this checkout's ``src``.
"""

from __future__ import annotations

import contextlib
import cProfile
import pstats
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tierdecomp import diagnose_incoherence, load_design, projlin  # noqa: E402


@contextlib.contextmanager
def counted(sites):
    """Yield a list that gains one entry per call of ``owner.name``, for each
    (owner, name) in ``sites``, until exit."""
    calls = []

    def wrapped(original):
        def inner(*args, **kwargs):
            calls.append(None)
            return original(*args, **kwargs)

        return inner

    saved = [(owner, name, getattr(owner, name)) for owner, name in sites]
    for owner, name, original in saved:
        setattr(owner, name, wrapped(original))
    try:
        yield calls
    finally:
        for owner, name, original in saved:
            setattr(owner, name, original)


def count_build(spec) -> tuple:
    """(products, eigensolves, whether the design is incoherent) of one build."""
    design = load_design(spec)
    muls = [
        (m, "mul")
        for name, m in sys.modules.items()
        if name.split(".")[0] == "tierdecomp" and getattr(m, "mul", None) is projlin.mul
    ]
    solvers = [(np.linalg, "eigvalsh"), (np.linalg, "eigh")]
    with counted(muls) as products, counted(solvers) as solves:
        report = diagnose_incoherence(design)
    return len(products), len(solves), bool(report)


def count_calls(spec) -> int:
    """cProfile ``total_calls`` of one warm load and build."""
    diagnose_incoherence(load_design(spec))
    profile = cProfile.Profile()
    profile.enable()
    diagnose_incoherence(load_design(spec))
    profile.disable()
    return pstats.Stats(profile).total_calls


def main(argv=None) -> int:
    specs = sys.argv[1:] if argv is None else argv
    if not specs:
        print("usage: python tools/build_counts.py SPEC [SPEC ...]", file=sys.stderr)
        return 2
    print(f"{'products':>8}  {'eigensolves':>11}  {'calls':>8}  design")
    for spec in specs:
        products, solves, incoherent = count_build(spec)
        note = " (incoherent: diagnosed)" if incoherent else ""
        print(f"{products:8d}  {solves:11d}  {count_calls(spec):8d}  {spec}{note}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
