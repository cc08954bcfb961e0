"""The implicit largest stratum: I - WW' held by its listed bases W.

Unit tests of the form and its two primitives, the guarantee that the
build never materializes a basis on the unit space, closed forms on
crossed units, and oracle agreement on random block designs.
"""

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
    efficiency,
    layout,
    load_design,
    render,
    residual,
)
from tierdecomp.projlin import ProjectorError, bilinear, project
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
        for q in (self.p, explicit):
            assert np.allclose(project(q, self.x), self.p.matrix @ self.x, atol=1e-13)
            assert np.allclose(
                bilinear(self.x, q, self.y), self.x.T @ self.p.matrix @ self.y, atol=1e-13
            )

    def test_whole_space(self):
        whole = Projector.complement_of(np.zeros((4, 0)), "all")
        assert whole.df == 4
        assert np.array_equal(whole.matrix, np.eye(4))
        assert np.array_equal(project(whole, self.x[:4]), self.x[:4])

    def test_relabel_keeps_the_form(self):
        q = self.p.relabel("other")
        assert q.implicit and q.w is self.p.w and q.label == "other"

    def test_implicit_gram_matches_the_explicit_gram(self):
        rng = np.random.default_rng(11)
        small = Projector.from_basis(orthonormal(rng, 9, 2), "small")
        for p in (small, Projector.complement_of(orthonormal(rng, 9, 2), "big")):
            gram, fill = _implicit_gram(p, self.p)
            c = p.basis.T @ self.p.basis
            full = np.linalg.eigvalsh(c.T @ c)
            got = np.sort(np.concatenate([np.linalg.eigvalsh(gram), [fill] * (6 - len(gram))]))
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
    # The largest strata stay I - WW' from the units structure to the table.
    # Only a lift with r > 1 materializes, on the tier's own m = n / r objects.
    original = Projector._complement_basis
    units = {}
    made = []

    def guarded(self):
        if self.n == units["n"]:
            raise AssertionError(f"basis of {self.label} materialized on the unit space")
        made.append((self.label, self.n))
        return original(self)

    monkeypatch.setattr(Projector, "_complement_basis", guarded)
    cases = [
        (spec_path("corn"), {("Temperature#Moistures", 9), ("Harvesters", 3)}),
        (gen.write("lattice", 7, 3, tmp_path), {("Treatments", 49)}),
    ]
    for spec, sources in cases:
        units["n"] = load_design(spec).n
        made.clear()
        result, text = build_and_render(spec)
        assert sum(node.df for node in result.decomposition.nodes) == units["n"]
        assert text
        assert sources <= set(made)
        assert all(n < units["n"] for _, n in made)
        assert any(node.projector.implicit for node in result.decomposition.nodes)


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
