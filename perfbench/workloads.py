"""The benchmark's workloads: their seeded inputs, one request, its check.

A request is what ``tierdecomp decompose SPEC`` does, called in process
through the public API: load a fresh Design, build, lay out and render
(text, CSV and JSON from the one build).  An incoherent design yields its
IncoherenceError report instead.  ``diagnose`` requests run
``diagnose_incoherence`` and the report text.

Why these workloads:

* ``small``: one request is a pass over the ten shipped bundles with
  n <= 64, in a seeded order.  Every step kind and route runs (simple,
  composed pseudofactors, independent, coincident, double, incoherent),
  dense products are tiny, and time goes to per-call Python overhead.
* ``corn``: the shipped corn bundle (n = 648), coincident pair plus a
  composed step; the only coincident route at scale, and the one where
  balance results are recomputed.
* ``lattice``: seeded balanced lattice, k = 11 (n = 1452), one simple
  step; the largest n, dominated by dense products, with every balance
  evaluation distinct.
* ``diagnose``: seeded cyclic incomplete-block design (v = 96, blocks of
  8, n = 768) that is not balanced; exercises the eigenvalue and
  merge-suggestion branch of the balance layer.

Shipped bundles are copied with their CSV data rows shuffled by the seed:
the tables must not depend on row order, so the expected outputs hold for
every seed.
"""

from __future__ import annotations

import json
import random
import re
from pathlib import Path

import checks
import gen

BENCH = Path(__file__).resolve().parent
DESIGNS = BENCH.parent / "designs"
EXPECTED = BENCH / "expected"

SMALL = (
    "cherry",
    "cherry_incoherent",
    "ex2",
    "ex2_small",
    "grazing",
    "minimal",
    "plant",
    "rcbd16",
    "semilatin",
    "uneven",
)
INCOHERENT = ("uneven",)
LATTICE_K = 11
CYCLIC_V = 96
FORMATS = ("text", "csv", "json")
NAMES = ("small", "corn", "lattice", "diagnose")


def copy_bundle(name: str, rng: random.Random, out_dir: Path) -> Path:
    """Copy a shipped bundle, shuffling the data rows of each of its CSVs."""
    spec = (DESIGNS / f"{name}.spec").read_text(encoding="utf-8")
    for csv_name in re.findall(r"^allocation(?:-intermediate)? csv (\S+)", spec, re.M):
        header, *body = (DESIGNS / csv_name).read_text(encoding="utf-8").splitlines()
        rng.shuffle(body)
        (out_dir / csv_name).write_text("\n".join([header, *body]) + "\n", encoding="utf-8")
    path = out_dir / f"{name}.spec"
    path.write_text(spec, encoding="utf-8")
    return path


def prepare(workload: str, seed: int, out_dir: Path) -> list:
    """Write the workload's inputs for ``seed``; return its spec paths."""
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    if workload == "small":
        return [copy_bundle(name, rng, out_dir) for name in SMALL]
    if workload == "corn":
        return [copy_bundle("corn", rng, out_dir)]
    if workload == "lattice":
        return [gen.write("lattice", LATTICE_K, seed, out_dir)]
    if workload == "diagnose":
        return [gen.write("cyclic", CYCLIC_V, seed, out_dir)]
    raise ValueError(f"unknown workload {workload!r}; expected one of {NAMES}")


# -- requests (run in the worker, with tierdecomp imported as ``td``) --------


def decompose(td, spec) -> dict:
    design = td.load_design(spec)
    try:
        result = td.build_decomposition(design)
    except td.IncoherenceError as exc:
        return {"report": exc.report, "tol_eig": design.policy.tol_eig}
    notes = list(dict.fromkeys(result.diagnostics))
    table = td.layout(result.decomposition, design.tier_order, footnotes=notes)
    out = {fmt: td.render(table, fmt=fmt) for fmt in FORMATS}
    matrices = {id(n.projector.matrix): n.projector.matrix for n in result.decomposition.nodes}
    out["decomposition_mb"] = sum(m.nbytes for m in matrices.values()) / 2**20
    return out


def diagnose(td, spec) -> dict:
    design = td.load_design(spec)
    report = td.diagnose_incoherence(design)
    return {"report": report, "summary": report.summary(), "tol_eig": design.policy.tol_eig}


def request(td, workload: str, specs: list, rng: random.Random) -> dict:
    """One request; returns each bundle's output keyed by its spec stem."""
    if workload == "diagnose":
        return {spec.stem: diagnose(td, spec) for spec in specs}
    order = list(specs)
    rng.shuffle(order)
    return {spec.stem: decompose(td, spec) for spec in order}


# -- checks ------------------------------------------------------------------


def load_expected(name: str) -> dict:
    if name in INCOHERENT:
        return json.loads((EXPECTED / f"{name}.report.json").read_text(encoding="utf-8"))
    suffix = {"text": "txt", "csv": "csv", "json": "json"}
    return {fmt: (EXPECTED / f"{name}.{suffix[fmt]}").read_bytes() for fmt in FORMATS}


def fingerprint(out: dict) -> bytes:
    """Bytes that determine a bundle output's verdict, to check each distinct output once."""
    if "report" in out:
        body = {"items": checks.report_items(out["report"]), "summary": out.get("summary")}
        return json.dumps(body).encode() + b"%r" % out["tol_eig"]
    return b"\0".join(out[fmt] for fmt in FORMATS)


def check_bundle(td, workload: str, name: str, out: dict, expected: dict) -> list:
    """Problems with one bundle's output; ``expected`` caches load_expected."""
    if workload == "diagnose":
        found = checks.check_cyclic(
            checks.report_items(out["report"]), CYCLIC_V, gen.CYCLIC_BLOCK, out["tol_eig"]
        )
        if not out["summary"].startswith("randomizations are incoherent:"):
            found.append("report text does not state the incoherence")
        return found
    if workload == "lattice":
        if "report" in out:
            return ["lattice reported incoherent"]
        got = td.parse_table_json(out["json"])
        return checks.compare_json(got, checks.lattice_table(LATTICE_K))
    if name not in expected:
        expected[name] = load_expected(name)
    if (name in INCOHERENT) != ("report" in out):
        return [f"expected {'a report' if name in INCOHERENT else 'a table'}"]
    if "report" in out:
        return checks.check_report(
            checks.report_items(out["report"]), expected[name], out["tol_eig"]
        )
    return checks.check_tables(out, expected[name], td.parse_table_json)
