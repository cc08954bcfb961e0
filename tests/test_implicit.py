"""The implicit largest stratum: I - WW' held by its listed bases W.

Unit tests of the form and its two primitives, the guarantee that the
build never materializes a basis on the unit space, closed forms on
crossed units, and oracle agreement on random block designs.
"""

import random
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from tierdecomp import (
    DEFAULT_POLICY,
    IncoherenceError,
    Projector,
    build_decomposition,
    cross_check,
    diagnose_incoherence,
    efficiency,
    layout,
    load_design,
    render,
    residual,
)
from tierdecomp import projlin, randomize, structure
from tierdecomp.projlin import ProjectorError, bilinear_of, project
from tierdecomp.structure import _classify, _implicit_gram

import gen
from conftest import block_designs, spec_path, write_block_design


def orthonormal(rng, n, k):
    return np.linalg.qr(rng.normal(size=(n, k)))[0]


class TestImplicitProjector:
    def setup_method(self):
        rng = np.random.default_rng(7)
        self.w = orthonormal(rng, 9, 3)
        self.p = Projector.complement_of(self.w, "rest")
        self.x = rng.normal(size=(9, 4))
        self.y = rng.normal(size=(9, 2))

    def test_df_and_matrix(self):
        assert self.p.implicit and self.p.df == 6 and self.p.n == 9
        assert np.allclose(self.p.matrix, np.eye(9) - self.w @ self.w.T, atol=1e-14)
        assert not self.p.matrix.flags.writeable

    def test_basis_is_materialized_once_and_spans_the_complement(self):
        assert self.p._basis is None
        u = self.p.basis
        assert u is self.p.basis and u.shape == (9, 6)
        assert np.allclose(u.T @ u, np.eye(6), atol=1e-14)
        assert np.allclose(u @ u.T, self.p.matrix, atol=1e-14)

    def test_primitives_agree_with_the_explicit_form(self):
        explicit = Projector.from_basis(self.p.basis, "rest")
        rng = np.random.default_rng(5)
        a = Projector.from_basis(orthonormal(rng, 9, 4), "a")
        b = Projector.from_basis(orthonormal(rng, 9, 2), "b")
        for q in (self.p, explicit):
            assert np.allclose(project(q, self.x), self.p.matrix @ self.x, atol=1e-13)
            assert np.allclose(
                bilinear_of([a], q, [b]), a.basis.T @ self.p.matrix @ b.basis, atol=1e-13
            )

    def test_whole_space(self):
        whole = Projector.complement_of(np.zeros((4, 0)), "all")
        assert whole.df == 4
        assert np.array_equal(whole.matrix, np.eye(4))
        assert np.array_equal(project(whole, self.x[:4]), self.x[:4])

    def test_relabel_keeps_the_form(self):
        q = self.p.relabel("other")
        assert q.implicit and q.parts is self.p.parts and q.label == "other"

    def test_implicit_gram_matches_the_explicit_gram(self):
        rng = np.random.default_rng(11)
        small = Projector.from_basis(orthonormal(rng, 9, 2), "small")
        for p in (small, Projector.complement_of(orthonormal(rng, 9, 2), "big")):
            gram, ones = _implicit_gram(p, self.p)
            c = p.basis.T @ self.p.basis
            full = np.linalg.eigvalsh(c.T @ c)
            padding = [1.0] * ones + [0.0] * (6 - len(gram) - ones)
            got = np.sort(np.concatenate([np.linalg.eigvalsh(gram), padding]))
            assert np.allclose(got, full, atol=1e-13)
            want = _classify(p.label, p.df, self.p, c.T @ c, DEFAULT_POLICY)
            res = efficiency(p, self.p)
            assert res.status == want.status
            assert res.residual_norm == pytest.approx(want.residual_norm, abs=1e-12)


class TestImplicitResidual:
    def test_residual_lists_the_sweeps_with_w(self):
        w = np.eye(4)[:, :1]
        p = Projector.complement_of(w, "P")
        s = Projector.from_basis(np.eye(4)[:, 1:2], "S")
        rem = residual(p, [s])
        assert rem.implicit and rem.df == 2
        assert np.allclose(rem.matrix, np.diag([0.0, 0.0, 1.0, 1.0]))

    def test_sweep_outside_p_is_rejected(self):
        p = Projector.complement_of(np.eye(4)[:, :1], "P")
        tilt = np.array([[1e-6], [1.0], [0.0], [0.0]])
        s = Projector.from_basis(tilt / np.linalg.norm(tilt), "S")
        with pytest.raises(ProjectorError, match="sweeps leave P"):
            residual(p, [s])

    def test_sweeps_filling_p_leave_nothing(self):
        p = Projector.complement_of(np.eye(3)[:, :1], "P")
        s = Projector.from_basis(np.eye(3)[:, 1:], "S")
        assert residual(p, [s]) is None


def build_and_render(spec):
    design = load_design(spec)
    result = build_decomposition(design)
    table = layout(result.decomposition, design.tier_order, footnotes=result.diagnostics)
    return result, render(table, fmt="text")


def test_build_never_materializes_a_unit_space_basis(monkeypatch, tmp_path):
    # Tier sources and their lifts stay in class form from the tier to the
    # table: no n-row basis of one is materialized (``Projector.basis``,
    # ``projlin.span`` without coefficients), made dense (``from_basis``), or
    # completed by an n-row QR.  Only the sweeps and residuals of a step are
    # n-row bases, and an implicit source on classes is complemented on its
    # m < n classes.  The one exception is a sweep by an implicit node
    # (``_through``): its basis P U_Q is formed as U_Q minus the listed
    # bases' shares, on the rows.
    original_complement = Projector._complement_basis
    original_from_basis = Projector.from_basis.__func__
    original_basis = Projector.basis
    original_span = projlin.span
    units = {}
    made = []
    through = []

    def guarded_complement(self):
        block = original_complement(self)
        if block.shape[0] == units["n"]:
            raise AssertionError(f"complement of {self.label} taken on the unit space")
        made.append((self.label, block.shape[0]))
        return block

    def guarded_from_basis(cls, basis, label, policy=DEFAULT_POLICY):
        if len(basis) == units["n"] and not any(mark in label for mark in ("▷", "⊢", "⊓")):
            raise AssertionError(f"dense n-row basis made for {label}")
        return original_from_basis(cls, basis, label, policy)

    def guarded_basis(self):
        if self.n == units["n"] and (self.implicit or self.classes is not None):
            raise AssertionError(f"basis of {self.label} materialized on the unit space")
        return original_basis.fget(self)

    def guarded_span(p, a=None):
        if a is None and p.n == units["n"] and p.classes is not None:
            caller = sys._getframe(1).f_code.co_name
            if caller != "_through":
                raise AssertionError(f"basis of {p.label} spanned on the unit space in {caller}")
            through.append(p.label)
        return original_span(p, a)

    monkeypatch.setattr(Projector, "_complement_basis", guarded_complement)
    monkeypatch.setattr(Projector, "from_basis", classmethod(guarded_from_basis))
    monkeypatch.setattr(Projector, "basis", property(guarded_basis))
    for module in (projlin, structure, randomize):
        monkeypatch.setattr(module, "span", guarded_span)
    cases = [
        (spec_path("corn"), {("Temperature#Moistures", 9), ("Harvesters", 3)}, set()),
        (gen.write("lattice", 7, 3, tmp_path), {("Treatments", 49)}, {"Treatments"}),
    ]
    for spec, sources, swept in cases:
        units["n"] = load_design(spec).n
        made.clear()
        through.clear()
        result, text = build_and_render(spec)
        assert sum(node.df for node in result.decomposition.nodes) == units["n"]
        assert text
        assert sources <= set(made)
        assert set(through) == swept
        assert any(node.projector.implicit for node in result.decomposition.nodes)
    # the benchmark's cyclic design (v = 96): the diagnose route
    design = load_design(gen.write("cyclic", 96, 1, tmp_path))
    units["n"] = design.n
    report = diagnose_incoherence(design)
    assert report and report.items[0].kind == "first-order"


def latin_square(dest, t):
    """A cyclic t x t Latin square on units Rows*Columns."""
    lines = [
        f"design latin{t}",
        "units plots",
        "tier plots",
        f"  factor Rows {t}",
        f"  factor Columns {t}",
        "  formula Rows*Columns",
        "tier treatments",
        f"  factor Treatments {t}",
        "randomize treatments -> plots type simple",
        f"allocation csv latin{t}.csv",
    ]
    (dest / f"latin{t}.spec").write_text("\n".join(lines) + "\n")
    rows = [f"r{i},c{j},t{(i + j) % t}" for i in range(t) for j in range(t)]
    (dest / f"latin{t}.csv").write_text("\n".join(["Rows,Columns,Treatments"] + rows) + "\n")
    return dest / f"latin{t}.spec"


@pytest.mark.parametrize("t", [4, 5, 7])
def test_latin_square_closed_form(tmp_path, t):
    # treatments lie wholly in Rows#Columns (lambda = 1 on t - 1 df, with
    # df_P = (t-1)^2 != df_Q): an implicit sweep on a crossed formula
    result = build_decomposition(load_design(latin_square(tmp_path, t)))
    nodes = {n.label: n for n in result.decomposition.nodes}
    assert {label: n.df for label, n in nodes.items()} == {
        "Mean": 1,
        "Rows": t - 1,
        "Columns": t - 1,
        "Rows#Columns ▷ Treatments": t - 1,
        "Rows#Columns ⊢ treatments": (t - 1) * (t - 2),
    }
    (entry,) = nodes["Rows#Columns ▷ Treatments"].lineage
    assert Fraction(*entry.efficiency.rational) == 1
    assert nodes["Rows#Columns ⊢ treatments"].projector.implicit


@given(block_designs())
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_random_block_designs_agree_with_the_oracle(tmp_path, case):
    design = load_design(write_block_design(tmp_path, case))
    try:
        report = cross_check(design)
    except IncoherenceError:
        return
    assert report.ok, report.render_text()


def test_pooled_balance_of_an_implicit_source_forms_no_basis(monkeypatch, tmp_path):
    # r = 1: each of the 48 treatment combinations once, so B[A] stays
    # I - WW' on the units; its merge test sums I - W'PW over the pooled rows
    lines = [
        "design pooled",
        "units plots",
        "tier plots",
        "  factor Blocks 6",
        "  factor Plots 8",
        "  formula Blocks/Plots",
        "tier treatments",
        "  factor A 6",
        "  factor B 8",
        "  formula A/B",
        "randomize treatments -> plots type simple",
        "allocation csv pooled.csv",
    ]
    (tmp_path / "pooled.spec").write_text("\n".join(lines) + "\n")
    cells = [(a, b) for a in range(6) for b in range(8)]
    random.Random(5).shuffle(cells)
    rows = [f"k{i // 8},p{i % 8},a{a},b{b}" for i, (a, b) in enumerate(cells)]
    (tmp_path / "pooled.csv").write_text("\n".join(["Blocks,Plots,A,B"] + rows) + "\n")

    def forbidden(self):
        raise AssertionError(f"complement of {self.label} taken")

    monkeypatch.setattr(Projector, "_complement_basis", forbidden)
    report = diagnose_incoherence(load_design(tmp_path / "pooled.spec"))
    pooled = [it for it in report.items if it.kind == "first-order" and "B[A]" in it.sources]
    assert pooled
    assert all(it.suggestion.startswith("merge sources Blocks, Plots[Blocks]") for it in pooled)
