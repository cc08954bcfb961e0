import json

import pytest
import tierdecomp as td

import checks
import gen
import workloads


def _perturb_float(doc: dict, delta: float) -> dict:
    doc = json.loads(json.dumps(doc))
    stack = [doc["table"]]
    while stack:
        node = stack.pop()
        if node["efficiency"] is not None and node["efficiency"]["den"] != 1:
            node["efficiency"]["float"] += delta
            return doc
        stack.extend(node["children"])
    raise AssertionError("no fractional efficiency in the table")


@pytest.fixture(scope="module")
def cherry():
    out = workloads.decompose(td, workloads.DESIGNS / "cherry.spec")
    return out, workloads.load_expected("cherry")


def test_shipped_table_passes(cherry):
    out, expected = cherry
    assert checks.check_tables(out, expected, td.parse_table_json) == []


@pytest.mark.parametrize("fmt", ["text", "csv"])
def test_shipped_table_rejects_changed_bytes(cherry, fmt):
    out, expected = cherry
    bad = dict(out, **{fmt: out[fmt].replace(b"Viruses", b"Virusez", 1)})
    assert checks.check_tables(bad, expected, td.parse_table_json)


def test_json_float_tolerance(cherry):
    out, expected = cherry
    doc = td.parse_table_json(out["json"])
    near = dict(out, json=json.dumps(_perturb_float(doc, 1e-12)).encode())
    far = dict(out, json=json.dumps(_perturb_float(doc, 1e-6)).encode())
    assert checks.check_tables(near, expected, td.parse_table_json) == []
    assert checks.check_tables(far, expected, td.parse_table_json)


def test_json_exact_fields(cherry):
    out, expected = cherry
    doc = td.parse_table_json(out["json"])
    doc["table"]["children"][1]["df"] += 1
    bad = dict(out, json=json.dumps(doc).encode())
    assert checks.check_tables(bad, expected, td.parse_table_json)


def test_incoherence_report_check():
    out = workloads.decompose(td, workloads.DESIGNS / "uneven.spec")
    want = workloads.load_expected("uneven")
    got = checks.report_items(out["report"])
    assert checks.check_report(got, want, out["tol_eig"]) == []
    bad = json.loads(json.dumps(got))
    bad[0]["eigenvalues"][0][0] += 1e-5
    assert checks.check_report(bad, want, out["tol_eig"])
    bad = json.loads(json.dumps(got))
    bad[1]["suggestion"] = "redesign the randomization"
    assert checks.check_report(bad, want, out["tol_eig"])


def test_lattice_closed_form(tmp_path):
    k = 5
    out = workloads.decompose(td, gen.write("lattice", k, 1, tmp_path))
    doc = td.parse_table_json(out["json"])
    assert checks.compare_json(doc, checks.lattice_table(k)) == []
    assert checks.compare_json(_perturb_float(doc, 1e-6), checks.lattice_table(k))
    wrong_lambda = json.loads(json.dumps(doc))
    eff = wrong_lambda["table"]["children"][2]["children"][0]["efficiency"]
    eff["num"], eff["den"] = 1, k
    assert checks.compare_json(wrong_lambda, checks.lattice_table(k))


def test_cyclic_eigenvalues(tmp_path):
    v, k = 24, gen.CYCLIC_BLOCK
    out = workloads.diagnose(td, gen.write("cyclic", v, 3, tmp_path))
    items = checks.report_items(out["report"])
    tol = out["tol_eig"]
    assert checks.check_cyclic(items, v, k, tol) == []
    nudged = json.loads(json.dumps(items))
    nudged[0]["eigenvalues"][0][0] += 1e-5
    assert checks.check_cyclic(nudged, v, k, tol)
    dropped = json.loads(json.dumps(items))
    dropped[1]["eigenvalues"][0][1] -= 1
    assert checks.check_cyclic(dropped, v, k, tol)
    assert checks.check_cyclic(items[:1], v, k, tol)


def test_cyclic_complements():
    blocks, plots = checks.cyclic_eigenvalues(96, 8, 1e-7)
    assert len(blocks) == 88  # j = 12, 24, ..., 84 give zero
    assert len(plots) == 95
    assert sorted(round(1 - x, 12) for x, _ in blocks) == sorted(
        round(x, 12) for x, _ in plots if abs(x - 1) > 1e-9
    )
