"""Count the dense products and the Python calls of one build of each design.

    python tools/build_counts.py designs/corn.spec designs/ex2.spec

For each spec it prints two counts, both independent of timing noise:

* products: the ``projlin.mul`` calls of one ``diagnose_incoherence``,
  which is one ``build_decomposition`` that returns the incoherence report
  instead of raising it, so a coherent design counts its build.  ``mul``
  is wrapped in every tierdecomp module that imports it, for that call
  only; loading the design is not counted.
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

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tierdecomp import diagnose_incoherence, load_design, projlin  # noqa: E402


@contextlib.contextmanager
def counted_mul():
    """Yield a list that gains one entry per ``projlin.mul`` call until exit."""
    original, calls = projlin.mul, []

    def counted(a, b):
        calls.append(None)
        return original(a, b)

    modules = [
        m
        for name, m in sys.modules.items()
        if name.split(".")[0] == "tierdecomp" and getattr(m, "mul", None) is original
    ]
    for m in modules:
        m.mul = counted
    try:
        yield calls
    finally:
        for m in modules:
            m.mul = original


def count_products(spec) -> tuple:
    """(products of one build, whether the design is incoherent)."""
    design = load_design(spec)
    with counted_mul() as calls:
        report = diagnose_incoherence(design)
    return len(calls), bool(report)


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
    print(f"{'products':>8}  {'calls':>8}  design")
    for spec in specs:
        products, incoherent = count_products(spec)
        note = " (incoherent: diagnosed)" if incoherent else ""
        print(f"{products:8d}  {count_calls(spec):8d}  {spec}{note}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
