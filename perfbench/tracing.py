"""Spans around the calls into each tierdecomp layer, recorded from outside.

``Tracer.install`` rebinds each public layer function in every tierdecomp
module that holds it: ``mul``, ``efficiency``, ``is_structure_balanced``
and friends are imported by name into other modules, so rebinding only the
defining module would miss those calls.  Methods are rebound on their
class.  ``uninstall`` restores the originals.

Each call records a span (name, start, end, parent span) in memory.
``finish`` closes a request: it turns the request's spans into one row of
per-layer values and keeps the spans of the first ``KEEP_REQUESTS``
requests, which ``write`` dumps when the run ends.  A span's self time is its duration
minus the part of it that its child spans cover.

Counting hooks run before some calls: the computed flops and bytes of
``mul`` and the (P, Q) pairs a balance check evaluates, keyed by matrix
content, so that ``distinct`` counts the evaluations a cache keyed on the
projectors could save.  Time spent in hooks is taken off the span clock,
so it shows in the traced request's latency but in no span.
"""

from __future__ import annotations

import functools
import hashlib
import statistics
import sys
import weakref
from time import perf_counter

# module -> public functions whose calls get a span
FUNCTIONS = {
    "speccli": ("load_design",),
    "formula": ("source_projectors", "averaging_matrix"),
    "structure": (
        "lift",
        "efficiency",
        "is_structure_balanced",
        "sweep",
        "residual",
        "refine",
    ),
    "randomize": (
        "build_decomposition",
        "diagnose_incoherence",
        "check_adjusted_orthogonality",
        "check_coincident",
        "check_double",
    ),
    "projlin": ("mul",),
    "tabrender": ("layout", "render"),
}
# (module, class, method, is_classmethod)
METHODS = (
    ("projlin", "Projector", "validated", True),
    ("structure", "Structure", "validate", False),
    ("structure", "Decomposition", "validate", False),
)
VALIDATE_SPANS = {"structure.Structure.validate", "structure.Decomposition.validate"}
TOTAL_S = (
    "structure.is_structure_balanced",
    "randomize.check_coincident",
    "randomize.check_adjusted_orthogonality",
    "randomize.check_double",
    "randomize.diagnose_incoherence",
    "structure.lift",
    "structure.sweep",
    "structure.residual",
    "formula.source_projectors",
)
SELF_S = (
    "structure.refine",
    "formula.averaging_matrix",
    "speccli.load_design",
    "tabrender.layout",
    "tabrender.render",
    "randomize.build_decomposition",
)
KEEP_REQUESTS = 20  # requests whose spans are kept for ``write``


class Tracer:
    """Span recorder for one process; ``request`` tags the spans it records."""

    def __init__(self):
        self.request = -1
        self.rows: list = []  # per finished request: metric -> value
        self.kept: list = []  # (request, name, start, end, parent) of kept requests
        self._kept_requests = 0
        self._restore: list = []
        self._stack: list = []
        self._hidden = 0.0  # time spent in hooks, taken off the span clock
        self._digests: dict = {}  # id(matrix) -> (weakref to it, content digest)
        self._reset()

    def _reset(self) -> None:
        self.names: list = []
        self.starts: list = []
        self.ends: list = []
        self.parents: list = []  # index of the parent span, -1 at top level
        self.mul_flop = 0
        self.mul_bytes = 0
        self.pairs: list = []  # (digest of P, digest of Q) per balance evaluation

    # -- recording --

    def _span(self, name, fn, before=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                h0 = perf_counter()
                before(*args, **kwargs)
                self._hidden += perf_counter() - h0
            idx = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.ends.append(0.0)
            self._stack.append(idx)
            self.starts.append(perf_counter() - self._hidden)
            try:
                return fn(*args, **kwargs)
            finally:
                self.ends[idx] = perf_counter() - self._hidden
                self._stack.pop()

        return traced

    def _count_mul(self, a, b):
        m, k = a.shape
        n = b.shape[1]
        self.mul_flop += 2 * m * k * n
        self.mul_bytes += 8 * (m * k + k * n + m * n)

    def _digest(self, matrix) -> bytes:
        """Content digest of a (read-only) matrix, computed once per array."""
        hit = self._digests.get(id(matrix))
        if hit is None or hit[0]() is not matrix:
            digest = hashlib.blake2b(matrix.tobytes(), digest_size=16).digest()
            hit = self._digests[id(matrix)] = (weakref.ref(matrix), digest)
        return hit[1]

    def _count_pair(self, p, q, policy=None):
        self.pairs.append((self._digest(p.matrix), self._digest(q.matrix)))

    def _count_family(self, s, against, policy=None):
        rows = against.nodes if hasattr(against, "nodes") else against.elements
        ps = [self._digest(getattr(r, "projector", r).matrix) for r in rows]
        qs = [self._digest(q.matrix) for q in s.elements]
        self.pairs.extend((p, q) for p in ps for q in qs)

    def install(self) -> None:
        """Rebind every traced function and method to its span wrapper."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        import tierdecomp

        modules = [tierdecomp] + [
            m
            for name, m in sys.modules.items()
            if name.startswith("tierdecomp.") and m is not None
        ]
        hooks = {
            "mul": self._count_mul,
            "efficiency": self._count_pair,
            "is_structure_balanced": self._count_family,
        }
        for mod_name, funcs in FUNCTIONS.items():
            home = sys.modules[f"tierdecomp.{mod_name}"]
            for func in funcs:
                original = getattr(home, func)
                wrapper = self._span(f"{mod_name}.{func}", original, hooks.get(func))
                for m in modules:
                    if getattr(m, func, None) is original:
                        self._restore.append((m, func, original))
                        setattr(m, func, wrapper)
        for mod_name, cls_name, meth, is_cls in METHODS:
            cls = getattr(sys.modules[f"tierdecomp.{mod_name}"], cls_name)
            raw = cls.__dict__[meth]
            fn = raw.__func__ if is_cls else raw
            wrapper = self._span(f"{mod_name}.{cls_name}.{meth}", fn)
            self._restore.append((cls, meth, raw))
            setattr(cls, meth, classmethod(wrapper) if is_cls else wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def finish(self) -> None:
        """Close the current request: aggregate its spans, keep or drop them."""
        self.rows.append(request_row(self))
        if self._kept_requests < KEEP_REQUESTS:
            self._kept_requests += 1
            spans = zip(self.names, self.starts, self.ends, self.parents)
            self.kept.extend((self.request, *span) for span in spans)
        self._reset()

    def write(self, path) -> None:
        """Kept spans as tab-separated lines: request, name, start and end in
        microseconds from the first span, parent line within its request
        (0-based, -1 at top level)."""
        t0 = self.kept[0][2] if self.kept else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("request\tname\tstart_us\tend_us\tparent\n")
            for request, name, start, end, parent in self.kept:
                us0, us1 = round((start - t0) * 1e6), round((end - t0) * 1e6)
                fh.write(f"{request}\t{name}\t{us0}\t{us1}\t{parent}\n")


# -- span arithmetic ----------------------------------------------------------


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(starts, ends, parents) -> list:
    """Each span's duration minus the part its children cover, clipped to it."""
    children: dict = {}
    for i, p in enumerate(parents):
        if p >= 0:
            children.setdefault(p, []).append(i)
    out = []
    for i, (s, e) in enumerate(zip(starts, ends)):
        kids = [(max(starts[c], s), min(ends[c], e)) for c in children.get(i, ())]
        out.append((e - s) - covered([k for k in kids if k[1] > k[0]]))
    return out


def outermost_totals(names, starts, ends, parents, group) -> float:
    """Summed duration of spans in ``group`` with no ancestor in ``group``."""
    total = 0.0
    for i, name in enumerate(names):
        if name not in group:
            continue
        p = parents[i]
        while p >= 0 and names[p] not in group:
            p = parents[p]
        if p < 0:
            total += ends[i] - starts[i]
    return total


def request_row(t: Tracer) -> dict:
    """Per-layer values of the request whose spans ``t`` holds."""
    calls: dict = {}
    self_s: dict = {}
    for name, st in zip(t.names, self_times(t.starts, t.ends, t.parents)):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + st

    def total(group):
        return outermost_totals(t.names, t.starts, t.ends, t.parents, group)

    mul_self = self_s.get("projlin.mul", 0.0)
    distinct = len(set(t.pairs))
    row = {
        "projlin.mul.calls": calls.get("projlin.mul", 0),
        "projlin.mul.self_s": mul_self,
        "projlin.mul.gflop": t.mul_flop / 1e9,
        "projlin.mul.gbytes": t.mul_bytes / 1e9,
        "projlin.mul.gflop_per_s": t.mul_flop / 1e9 / mul_self if mul_self > 0 else 0.0,
        "projlin.Projector.validated.calls": calls.get("projlin.Projector.validated", 0),
        "projlin.Projector.validated.self_s": self_s.get("projlin.Projector.validated", 0.0),
        "structure.validate.total_s": total(VALIDATE_SPANS),
        "structure.balance.pairs": len(t.pairs),
        "structure.balance.distinct": distinct,
        "structure.balance.distinct_ratio": distinct / len(t.pairs) if t.pairs else 0.0,
    }
    for name in TOTAL_S:
        row[f"{name}.total_s"] = total({name})
    for name in SELF_S:
        row[f"{name}.self_s"] = self_s.get(name, 0.0)
    return row


def layer_metrics(rows: list) -> dict:
    """Median over requests of each per-layer value."""
    if not rows:
        raise ValueError("no traced requests")
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}
