"""Class-form sources: the products on class coordinates against the same
products on materialized dense bases, and every shipped design built in
class form against its default build.  Spaces of at most ``DENSE_ROWS``
rows hold dense bases by default, so these tests lower it to 0."""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from tierdecomp import (
    IncoherenceError,
    build_decomposition,
    cross_check,
    diagnose_incoherence,
    layout,
    lift,
    load_design,
    render,
)
from tierdecomp import projlin
from tierdecomp.projlin import bilinear_of, gram, project

from conftest import ALL_SPECS, basis_of, block_designs, spec_path, write_block_design

TOL = 1e-12


def dense(p):
    """P as an n x n matrix, from its materialized basis."""
    u = basis_of(p)
    return u @ u.T


@given(block_designs())
@settings(
    max_examples=30,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_class_form_products_match_dense_products(monkeypatch, tmp_path, case):
    monkeypatch.setattr(projlin, "DENSE_ROWS", 0)
    design = load_design(write_block_design(tmp_path, case))
    (step,) = design.steps
    units = design.units_structure().elements
    lifted = lift(design.tier_structure(step.from_tier), design.allocation(step.from_tier)).elements
    assert all(q.classes is not None or q.implicit for q in units + lifted)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(design.n, 3))
    for p in units + lifted:
        assert np.allclose(project(p, x), dense(p) @ x, rtol=0, atol=TOL)
    explicit = [q.explicit() for q in units + lifted if q.df]
    for p in explicit:
        for q in explicit:
            assert np.allclose(gram(p, q), basis_of(p).T @ basis_of(q), rtol=0, atol=TOL)
    stacked = np.hstack([basis_of(q) for q in explicit])
    for p in units + lifted:
        got = bilinear_of(explicit, p)
        assert np.allclose(got, stacked.T @ dense(p) @ stacked, rtol=0, atol=TOL)
    try:
        report = cross_check(design)
    except IncoherenceError:
        return
    assert report.ok, report.render_text()


def outputs(spec):
    design = load_design(spec)
    try:
        result = build_decomposition(design)
    except IncoherenceError:
        return {"diagnose": diagnose_incoherence(load_design(spec)).summary()}
    table = layout(result.decomposition, design.tier_order, footnotes=result.diagnostics)
    return {fmt: render(table, fmt=fmt) for fmt in ("text", "csv", "json")}


def floats_close(a, b, tol=1e-9):
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(floats_close(a[k], b[k], tol) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(floats_close(u, v, tol) for u, v in zip(a, b))
    if isinstance(a, float):
        return abs(a - b) <= tol
    return a == b


@pytest.mark.parametrize("name", ALL_SPECS)
def test_shipped_designs_build_the_same_in_class_form(monkeypatch, name):
    default = outputs(spec_path(name))
    monkeypatch.setattr(projlin, "DENSE_ROWS", 0)
    classes = outputs(spec_path(name))
    assert classes.keys() == default.keys()
    for key in default:
        if key == "json":
            assert floats_close(json.loads(classes[key]), json.loads(default[key]))
        else:
            assert classes[key] == default[key]


def test_gram_without_a_table_wider_than_the_rows(monkeypatch):
    # two partitions of 12 rows into 6 classes each: their 6 x 6 table is
    # larger than the 12 x 1 side, so the product goes through the rows
    monkeypatch.setattr(projlin, "DENSE_ROWS", 0)
    a = projlin.Classes(np.arange(12) % 6)
    b = projlin.Classes(np.arange(12) // 2)
    u = np.linalg.qr(np.random.default_rng(3).normal(size=(6, 1)))[0]
    p = projlin.Projector.of_terms([(a, u)], "p")
    q = projlin.Projector.of_terms([(b, u)], "q")
    assert a.m * b.m > p.n * p.df
    assert np.allclose(gram(p, q), basis_of(p).T @ basis_of(q), rtol=0, atol=TOL)
