"""Output checks.  Each returns a list of problems; an empty list passes.

* Shipped bundles: text and CSV tables equal the committed expected bytes;
  the JSON table is parsed and matched exactly except its ``float``
  fields, which may differ by ``FLOAT_TOL`` (their last bits follow the
  order of the products).  An incoherence report matches the committed
  one field by field, eigenvalues within the design's ``tol_eig``.
* Balanced lattice: the whole table equals its closed form, with
  efficiencies 1/(k+1) and k/(k+1) on k^2-1 treatment df.
* Cyclic design: the QPQ eigenvalues of Blocks against Treatments equal
  |sum_{o<k} w^(j o)|^2 / k^2 (w = e^(2 pi i / v), j = 1..v-1, zeros
  dropped), and those of Plots[Blocks] are their complements.
"""

from __future__ import annotations

import cmath

FLOAT_TOL = 1e-9


def compare_json(got, want, path="$") -> list:
    """Exact structural equality, except ``float`` keys within FLOAT_TOL."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            shown = sorted(got) if isinstance(got, dict) else got
            return [f"{path}: keys {shown!r} != {sorted(want)}"]
        out = []
        for key in want:
            if key == "float" and isinstance(want[key], float):
                g = got[key]
                if not isinstance(g, (int, float)) or abs(g - want[key]) > FLOAT_TOL:
                    out.append(f"{path}.float: {g!r} != {want[key]!r}")
            else:
                out += compare_json(got[key], want[key], f"{path}.{key}")
        return out
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: {got!r} != {want!r}"]
        out = []
        for i, (g, w) in enumerate(zip(got, want)):
            out += compare_json(g, w, f"{path}[{i}]")
        return out
    if type(got) is not type(want) or got != want:
        return [f"{path}: {got!r} != {want!r}"]
    return []


def _expand(eigenvalues) -> list:
    return sorted(v for v, mult in eigenvalues for _ in range(mult))


def compare_eigenvalues(got, want, tol, what) -> list:
    """Compare (value, multiplicity) lists as sorted multisets within ``tol``."""
    g, w = _expand(got), _expand(want)
    if len(g) != len(w):
        return [f"{what}: {len(g)} eigenvalues, expected {len(w)}"]
    worst = max((abs(a - b) for a, b in zip(g, w)), default=0.0)
    if worst > tol:
        return [f"{what}: eigenvalues off by up to {worst:.3e} (tolerance {tol:.1e})"]
    return []


def report_items(report) -> list:
    """An IncoherenceReport as plain dicts (the ``norm`` field is left out)."""
    return [
        {
            "step": it.step,
            "kind": it.kind,
            "node": it.node,
            "sources": list(it.sources),
            "eigenvalues": [[float(v), int(m)] for v, m in it.eigenvalues],
            "destroyed_tier": it.destroyed_tier,
            "suggestion": it.suggestion,
        }
        for it in report.items
    ]


def _without_eigenvalues(item: dict) -> dict:
    return {k: v for k, v in item.items() if k != "eigenvalues"}


def check_report(got: list, want: list, tol_eig: float) -> list:
    if len(got) != len(want):
        return [f"report has {len(got)} items, expected {len(want)}"]
    out = []
    for i, (g, w) in enumerate(zip(got, want)):
        out += compare_json(_without_eigenvalues(g), _without_eigenvalues(w), f"item[{i}]")
        out += compare_eigenvalues(g["eigenvalues"], w["eigenvalues"], tol_eig, f"item[{i}]")
    return out


def check_tables(outputs: dict, expected: dict, parse_table_json) -> list:
    """``outputs`` and ``expected`` map format (text, csv, json) to bytes."""
    out = []
    for fmt in ("text", "csv"):
        if outputs[fmt] != expected[fmt]:
            out.append(f"{fmt} table differs from the expected bytes")
    try:
        got = parse_table_json(outputs["json"])
    except ValueError as exc:
        return out + [f"json table does not parse: {exc}"]
    return out + compare_json(got, parse_table_json(expected["json"]))


def _node(source, tier, df, eff=None, children=()):
    return {"source": source, "tier": tier, "df": df, "efficiency": eff, "children": list(children)}


def _eff(num, den):
    return {"float": num / den, "num": num, "den": den}


def lattice_table(k: int) -> dict:
    """Closed-form decomposition table of the balanced lattice for prime k."""
    t = k * k - 1
    plots = k * (k + 1) * (k - 1)
    return {
        "table": _node(f"lattice-k{k}", "", k * k * (k + 1), children=[
            _node("Mean", "plots", 1, children=[_node("Mean", "treatments", 1, _eff(1, 1))]),
            _node("Reps", "plots", k),
            _node("Blocks[Reps]", "plots", (k + 1) * (k - 1), children=[
                _node("Treatments", "treatments", t, _eff(1, k + 1)),
            ]),
            _node("Plots[Blocks∧Reps]", "plots", plots, children=[
                _node("Treatments", "treatments", t, _eff(k, k + 1)),
                _node("Residual", "treatments", plots - t),
            ]),
        ]),
        "footnotes": [],
    }


def cyclic_eigenvalues(v: int, k: int, tol_eig: float) -> tuple[list, list]:
    """Closed-form QPQ eigenvalues (value, 1) for Blocks and Plots[Blocks].

    Values within ``tol_eig`` of zero are dropped, as the report drops them.
    """
    w = cmath.exp(2j * cmath.pi / v)
    lams = [abs(sum(w ** (j * o) for o in range(k))) ** 2 / k**2 for j in range(1, v)]
    blocks = [(x, 1) for x in lams if x > tol_eig]
    plots = [(1.0 - x, 1) for x in lams if 1.0 - x > tol_eig]
    return blocks, plots


def check_cyclic(items: list, v: int, k: int, tol_eig: float) -> list:
    blocks, plots = cyclic_eigenvalues(v, k, tol_eig)
    want = {"Blocks": blocks, "Plots[Blocks]": plots}
    got = {it["node"]: it for it in items}
    if sorted(got) != sorted(want) or len(items) != 2:
        return [f"report names nodes {[it['node'] for it in items]}, expected {sorted(want)}"]
    out = []
    for node, eigs in want.items():
        it = got[node]
        if it["kind"] != "first-order" or it["sources"] != ["Treatments"]:
            out.append(f"{node}: {it['kind']} against {it['sources']}")
        out += compare_eigenvalues(it["eigenvalues"], eigs, tol_eig, node)
    return out
