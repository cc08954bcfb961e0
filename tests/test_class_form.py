"""Class-form sources: the products on class coordinates against the same
products on materialized dense bases, and every shipped design built in
class form against a build that holds every basis dense
(``conftest.hold_dense``)."""

import dataclasses
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from tierdecomp import (
    IncoherenceError,
    build_decomposition,
    cross_check,
    diagnose_incoherence,
    layout,
    lift,
    load_design,
    render,
    residual,
)
from tierdecomp import projlin
from tierdecomp.projlin import Classes, Projector, bilinear_of, cross, orthocomplement, project, span

import gen
from conftest import ALL_SPECS, basis_of, block_designs, hold_dense, spec_path, write_block_design

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
def test_class_form_products_match_dense_products(tmp_path, case):
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
            assert np.allclose(cross(p, [q]), basis_of(p).T @ basis_of(q), rtol=0, atol=TOL)
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
    classes = outputs(spec_path(name))
    hold_dense(monkeypatch)
    dense = outputs(spec_path(name))
    assert classes.keys() == dense.keys()
    for key in dense:
        if key == "json":
            assert floats_close(json.loads(classes[key]), json.loads(dense[key]))
        else:
            assert classes[key] == dense[key]


def test_gram_without_a_table_wider_than_the_rows():
    # two partitions of 12 rows into 6 classes each: their 6 x 6 table is
    # larger than the 12 x 1 side, so the product goes through the rows
    a = projlin.Classes(np.arange(12) % 6)
    b = projlin.Classes(np.arange(12) // 2)
    u = np.linalg.qr(np.random.default_rng(3).normal(size=(6, 1)))[0]
    p = projlin.Projector.of_terms([(a, u)], "p")
    q = projlin.Projector.of_terms([(b, u)], "q")
    assert a.m * b.m > p.n * p.df
    assert np.allclose(cross(p, [q]), basis_of(p).T @ basis_of(q), rtol=0, atol=TOL)


# --- Projector.matrix from class-form cores ---------------------------------


def random_terms(rng, classes, df):
    return [(c, rng.normal(size=(c.m, df))) for c in classes]


def orthonormalized(terms):
    """The terms (N, A) with U = sum N A's R factor divided out of each A,
    so that U has orthonormal columns."""
    inv = np.linalg.inv(np.linalg.qr(sum(c.up(a) for c, a in terms))[1])
    return [(c, a @ inv) for c, a in terms]


COMPOSITE = ["explicit minus sweeps", "implicit minus implicit"]
KINDS = ["one term", "crossed", "nested", "dense", "implicit"] + COMPOSITE


def orthonormal(rng, n, k):
    return np.linalg.qr(rng.normal(size=(n, k)))[0]


@st.composite
def class_form_projectors(draw, kind):
    """A random ``kind`` of projector on r x c cells of k rows each, listed
    in a random order.

    Explicit: one term, two terms on crossed or on nested classes, or a
    dense basis.  Implicit: I minus the Mean and row contrasts, which fill
    the row classes, a two-term part on columns and cells orthogonal to
    them and, for some k > 1, a dense part within the cells.  Composite,
    as ``residual`` makes them: a nested explicit P minus one or two
    sweeps inside it; or such an implicit P minus the implicit Q = P -
    XX', X a dense part within the cells, and sometimes minus a sweep
    inside X too, which leaves XX' less that sweep."""
    r, c = draw(st.integers(2, 5)), draw(st.integers(2, 5))
    k = draw(st.integers(2 if kind == "implicit minus implicit" else 1, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = r * c * k
    cell = (np.arange(n) // k)[rng.permutation(n)]
    rows, cols, cells = Classes(cell // c), Classes(cell % c), Classes(cell)
    if kind == "one term":
        home = [rows, cols, cells][draw(st.integers(0, 2))]
        a = np.linalg.qr(rng.normal(size=(home.m, draw(st.integers(1, home.m)))))[0]
        return Projector.of_terms([(home, a)], kind)
    if kind == "crossed":
        return Projector.of_terms(orthonormalized(random_terms(rng, [rows, cols], draw(st.integers(1, r + c - 2)))), kind)
    if kind in ("nested", "explicit minus sweeps"):
        df = draw(st.integers(2 if kind != "nested" else 1, r * c - 1))
        p = Projector.of_terms(orthonormalized(random_terms(rng, [rows, cells], df)), kind)
        if kind == "nested":
            return p
        f = orthonormal(rng, df, draw(st.integers(1, df - 1)))
        cut = draw(st.integers(1, f.shape[1]))
        sweeps = [projlin.spanned(p, f[:, :cut], "S1"), projlin.spanned(p, f[:, cut:], "S2")]
        return residual(p, [q for q in sweeps if q.df], label=kind)
    if kind == "dense":
        return Projector.from_basis(np.linalg.qr(rng.normal(size=(n, draw(st.integers(1, n)))))[0], kind)
    mean = Projector.of_terms([(Classes(np.zeros(n, dtype=np.intp)), np.ones((1, 1)))], "Mean")
    contrasts = orthocomplement(np.full((r, 1), r**-0.5))
    parts = [mean, Projector.of_terms([(rows, contrasts)], "Rows")]
    terms = random_terms(rng, [cols, cells], draw(st.integers(1, max(1, r * (c - 1) - 1))))
    # the row classes' share N_R N_R'U, taken out of the cells term
    share = rows.down(sum(cl.up(a) for cl, a in terms))
    terms[1] = (cells, terms[1][1] - cells.table(rows) @ share)
    parts.append(Projector.of_terms(orthonormalized(terms), "Columns"))
    if k > 1 and (kind != "implicit" or draw(st.booleans())):
        x = rng.normal(size=(n, draw(st.integers(1, n - r * c))))
        parts.append(Projector.from_basis(np.linalg.qr(x - cells.up(cells.down(x)))[0], "Within"))
    if kind == "implicit":
        return Projector.complement_of(parts, kind)
    *parts, within = parts
    p, q = Projector.complement_of(parts, "P"), Projector.complement_of(parts + [within], "Q")
    f = orthonormal(rng, within.df, draw(st.integers(0, within.df - 1)))
    sweeps = [projlin.spanned(within, f, "S")] if f.shape[1] else []
    return residual(p, [q] + sweeps, label=kind)


def dense_reference(p):
    """P as an n x n matrix from the bases of its sides, each spanned on the
    rows: sum of +UU' over the plus side (I for I - WW'), minus the listed
    parts' WW'."""
    plus, minus = projlin.sides(p)
    out = np.eye(p.n) if plus is None else sum(span(v) @ span(v).T for v in plus)
    return out - sum((span(w) @ span(w).T for w in minus), np.zeros((p.n, p.n)))


@pytest.mark.parametrize("kind", KINDS)
@given(data=st.data())
@settings(max_examples=30, derandomize=True, database=None, deadline=None)
def test_matrix_matches_its_dense_reference(kind, data):
    p = data.draw(class_form_projectors(kind))
    assert p.implicit == (kind in ["implicit"] + COMPOSITE)
    want = dense_reference(p)
    m = p.matrix
    assert np.max(np.abs(m - want)) <= 1e-13
    assert m is p.matrix and not m.flags.writeable
    if p.implicit:
        # with its sides' matrices formed first, the same bytes
        for q in (projlin.sides(p)[0] or ()) + projlin.sides(p)[1]:
            q.matrix
        assert np.array_equal(dataclasses.replace(p, _matrix=None).matrix, m)


@pytest.mark.parametrize("kind", COMPOSITE)
@given(data=st.data())
@settings(max_examples=30, derandomize=True, database=None, deadline=None)
def test_a_residual_applies_as_its_dense_reference(kind, data):
    # a residual held by its sides: P X, X'PY and its explicit basis
    p = data.draw(class_form_projectors(kind))
    plus, minus = projlin.sides(p)
    assert plus is not None and p.df >= 1
    want = dense_reference(p)
    rng = np.random.default_rng(p.n)
    x = rng.normal(size=(p.n, 3))
    assert np.allclose(project(p, x), want @ x, rtol=0, atol=1e-13)
    a = Projector.from_basis(orthonormal(rng, p.n, 2), "a")
    b = Projector.from_basis(orthonormal(rng, p.n, 3), "b")
    xs = [a, *plus, *minus]  # dense, and class-form bases that P's sides share
    stacked = np.hstack([span(q) for q in xs])
    assert np.allclose(bilinear_of(xs, p), stacked.T @ want @ stacked, rtol=0, atol=1e-12)
    assert np.allclose(bilinear_of(xs, p, [b]), stacked.T @ want @ span(b), rtol=0, atol=1e-12)
    e = p.explicit()
    assert not e.implicit and e.df == p.df and e is p.explicit()
    u = span(e)
    assert np.allclose(u.T @ u, np.eye(p.df), rtol=0, atol=1e-12)
    assert np.allclose(u @ u.T, want, rtol=0, atol=1e-12)


def test_matrix_gathers_rows_from_class_form_cores(monkeypatch, tmp_path):
    # each node of corn (n = 648) and of a k = 5 lattice (n = 150), the
    # lattice's residual first so that it gathers its part rather than
    # reading that part's matrix: no product has an n-row operand, and no
    # n-row basis is spanned
    calls = []

    def mul(a, b):
        calls.append(("mul", a.shape, b.shape))
        return np.matmul(a, b)

    def forbidden_span(p, a=None):
        raise AssertionError(f"span of {p.label} in .matrix")

    monkeypatch.setattr(projlin, "mul", mul)
    for spec in (spec_path("corn"), gen.write("lattice", 5, 1, tmp_path)):
        nodes = build_decomposition(load_design(spec)).decomposition.nodes
        n = nodes[0].projector.n
        assert all(c.m < n for node in nodes if not node.projector.implicit for c, _ in node.projector.terms)
        with monkeypatch.context() as m:
            m.setattr(projlin, "span", forbidden_span)
            for node in reversed(nodes):
                calls.clear()
                node.projector.matrix
                assert all(n not in a + b for _, a, b in calls), (node.projector.label, calls)
        total = sum(node.projector.matrix for node in nodes)
        assert np.allclose(total, np.eye(n), rtol=0, atol=1e-12)


def test_complement_of_the_mean_scatters_its_pairs_in_bounded_chunks():
    # I - J/n at n = 2000 sets NN' on all n^2 pairs of rows of one class;
    # in chunks, its index arrays stay far below the 30.5 MiB result
    n = 2000
    mean = Projector.of_terms([(Classes(np.zeros(n, dtype=np.intp)), np.ones((1, 1)))], "Mean")
    p = Projector.complement_of([mean], "rest")
    tracemalloc.start()
    try:
        m = p.matrix
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.max(np.abs(m - (np.eye(n) - 1.0 / n))) <= 1e-15
    assert peak < 1.5 * m.nbytes


def test_same_class_yields_every_pair_once_in_bounded_chunks(monkeypatch):
    monkeypatch.setattr(projlin, "GATHER_BYTES", 8 * 40)
    ids = np.random.default_rng(2).permutation(np.repeat(np.arange(6), [1, 2, 9, 30, 3, 5]))
    classes = Classes(ids)
    chunks = list(projlin._same_class(classes))
    assert len(chunks) > 1
    assert all(i.size == j.size <= max(40, ids.size) for i, j in chunks)
    got = [(a, b) for i, j in chunks for a, b in zip(i.tolist(), j.tolist())]
    want = [(a, b) for a in range(ids.size) for b in range(ids.size) if ids[a] == ids[b]]
    assert len(got) == len(set(got)) and sorted(got) == want
