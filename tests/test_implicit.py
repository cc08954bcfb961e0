"""The implicit largest stratum: I - WW' held by its listed bases W.

Unit tests of the form and its two primitives, the guarantee that the
build never materializes a basis on the unit space, closed forms on
crossed units, and oracle agreement on random block designs.
"""

import random
import re
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from tierdecomp import (
    DEFAULT_POLICY,
    Decomposition,
    IncoherenceError,
    Projector,
    Structure,
    build_decomposition,
    cli_main,
    cross_check,
    diagnose_incoherence,
    efficiency,
    is_structure_balanced,
    layout,
    load_design,
    parse_table_json,
    refine,
    render,
    residual,
)
from tierdecomp import projlin, randomize, structure
from tierdecomp.projlin import ProjectorError, bilinear_of, project

import gen
from checks import compare_json, lattice_table
from conftest import ALL_SPECS, basis_of, block_designs, hold_dense, spec_path, write_block_design


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
        assert self.p._explicit is None
        e = self.p.explicit()
        assert e is self.p.explicit() and not e.implicit
        u = basis_of(self.p)
        assert u.shape == (9, 6)
        assert np.allclose(u.T @ u, np.eye(6), atol=1e-14)
        assert np.allclose(u @ u.T, self.p.matrix, atol=1e-14)

    def test_primitives_agree_with_the_explicit_form(self):
        explicit = Projector.from_basis(basis_of(self.p), "rest")
        rng = np.random.default_rng(5)
        a = Projector.from_basis(orthonormal(rng, 9, 4), "a")
        b = Projector.from_basis(orthonormal(rng, 9, 2), "b")
        for q in (self.p, explicit):
            assert np.allclose(project(q, self.x), self.p.matrix @ self.x, atol=1e-13)
            assert np.allclose(
                bilinear_of([a], q, [b]), basis_of(a).T @ self.p.matrix @ basis_of(b), atol=1e-13
            )

    def test_whole_space(self):
        whole = Projector.complement_of(np.zeros((4, 0)), "all")
        assert whole.df == 4
        assert np.array_equal(whole.matrix, np.eye(4))
        assert np.array_equal(project(whole, self.x[:4]), self.x[:4])

    def test_relabel_keeps_the_form(self):
        q = self.p.relabel("other")
        assert q.implicit and q.parts is self.p.parts and q.label == "other"

    def test_implicit_gram_matches_the_explicit_gram(self, monkeypatch):
        # Q = I - WW' is classified from the small I - G, G = W'PW (df_W =
        # 3 square), with df_P - 3 more ones and df_Q - df_P more zeros.  P
        # may have fewer columns than W, or more than df_Q = 6: then the
        # count of ones, or of zeros, comes out negative and that many of the
        # small Gram's eigenvalues are dropped
        rng = np.random.default_rng(11)
        small = Projector.from_basis(orthonormal(rng, 9, 2), "small")
        wide = Projector.from_basis(orthonormal(rng, 9, 7), "wide")
        narrow = Projector.complement_of(orthonormal(rng, 9, 7), "narrow")
        original, seen, negative = structure._classify, [], set()

        def recorded(p_label, p_df, q, gram, policy, ones=0):
            seen.append((gram, ones))
            return original(p_label, p_df, q, gram, policy, ones)

        monkeypatch.setattr(structure, "_classify", recorded)
        for p in (small, Projector.complement_of(orthonormal(rng, 9, 2), "big"), wide, narrow):
            seen.clear()
            res = efficiency(p, self.p)
            ((gram, ones),) = seen
            u = basis_of(p)
            assert np.allclose(gram, np.eye(3) - self.w.T @ u @ u.T @ self.w, atol=1e-13)
            zeros = 6 - len(gram) - ones
            negative.add("ones" if ones < 0 else "zeros" if zeros < 0 else "none")
            eigs = np.linalg.eigvalsh(gram)
            eigs = eigs[max(-zeros, 0) : eigs.size - max(-ones, 0)]
            padding = [1.0] * max(ones, 0) + [0.0] * max(zeros, 0)
            c = u.T @ basis_of(self.p)
            full = np.linalg.eigvalsh(c.T @ c)
            got = np.sort(np.concatenate([eigs, padding]))
            assert np.allclose(got, full, atol=1e-13)
            want = original(p.label, p.df, self.p, c.T @ c, DEFAULT_POLICY)
            assert res.status == want.status
            assert res.residual_norm == pytest.approx(want.residual_norm, abs=1e-12)
        assert negative == {"ones", "zeros"}


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

    def test_filled_classes_in_matrix_and_residual(self):
        # P = I - NN' for three blocks of two rows, listed as the Mean and a
        # 2-df Blocks source on the block classes N: they fill them, so the
        # residual reads W'S as N'S
        blocks = projlin.Classes([0, 0, 1, 1, 2, 2])
        a = np.linalg.qr(np.column_stack([np.ones(3), [1.0, -1.0, 0.0], [1.0, 1.0, -2.0]]))[0]
        mean = Projector.of_terms([(blocks, a[:, :1])], "Mean")
        source = Projector.of_terms([(blocks, a[:, 1:])], "Blocks")
        p = Projector.complement_of([mean, source], "P")
        # .matrix sets NN' on the pairs of rows in one block
        assert np.allclose(p.matrix, np.eye(6) - np.kron(np.eye(3), np.full((2, 2), 0.5)), atol=1e-15)
        inside = np.array([[1.0], [-1.0], [0.0], [0.0], [0.0], [0.0]]) / np.sqrt(2)
        assert residual(p, [Projector.from_basis(inside, "S")]).df == 2
        tilt = inside + 1e-6 / np.sqrt(6)
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
    # Tier sources, their lifts and every sweep stay in class form from the
    # tier to the table: no n-row basis of one is materialized
    # (``projlin.span`` without coefficients), made dense (``from_basis``),
    # or completed by an n-row QR, and no sweep is spanned on the rows at
    # all: a sweep of an implicit node is a list of class-form terms.  An
    # implicit tier source lifted with r > 1 is complemented on the tier's
    # m < n objects.
    original_complement = Projector._complement_basis
    original_from_basis = Projector.from_basis.__func__
    original_span = projlin.span
    units = {}
    made = []

    def guarded_complement(self):
        block = original_complement(self)
        if block.shape[0] == units["n"]:
            raise AssertionError(f"complement of {self.label} taken on the unit space")
        made.append((self.label, block.shape[0]))
        return block

    def guarded_from_basis(cls, basis, label, policy=DEFAULT_POLICY):
        if len(basis) == units["n"]:
            raise AssertionError(f"dense n-row basis made for {label}")
        return original_from_basis(cls, basis, label, policy)

    def guarded_span(p, a=None):
        if p.n == units["n"] and ("▷" in p.label or (a is None and p.classes is not None)):
            caller = sys._getframe(1).f_code.co_name
            raise AssertionError(f"basis of {p.label} spanned on the unit space in {caller}")
        return original_span(p, a)

    monkeypatch.setattr(Projector, "_complement_basis", guarded_complement)
    monkeypatch.setattr(Projector, "from_basis", classmethod(guarded_from_basis))
    for module in (projlin, structure, randomize):
        monkeypatch.setattr(module, "span", guarded_span)
    # the implicit node's sweep by Treatments, with its number of terms:
    # Treatments' own and one for each group of nested unit sources, the
    # Mean, Reps and Blocks of a lattice, or the Mean and Rows and then the
    # Columns of a Latin square
    lattice = ("Plots[Blocks∧Reps] ▷ Treatments", 2)
    cases = [
        (spec_path("corn"), {("Temperature#Moistures", 9), ("Harvesters", 3)}, None),
        (gen.write("lattice", 7, 3, tmp_path / "k7"), {("Treatments", 49)}, lattice),
        (gen.write("lattice", 13, 1, tmp_path / "k13"), {("Treatments", 169)}, lattice),
        (latin_square(tmp_path, 11), set(), ("Rows#Columns ▷ Treatments", 3)),
    ]
    for spec, sources, swept in cases:
        units["n"] = load_design(spec).n
        made.clear()
        result, text = build_and_render(spec)
        assert sum(node.df for node in result.decomposition.nodes) == units["n"]
        assert text
        assert sources <= set(made)
        assert any(node.projector.implicit for node in result.decomposition.nodes)
        if swept is not None:
            label, terms = swept
            (node,) = [node for node in result.decomposition.nodes if node.label == label]
            assert len(node.projector.terms) == terms
    # the benchmark's cyclic design (v = 96): the diagnose route
    design = load_design(gen.write("cyclic", 96, 1, tmp_path))
    units["n"] = design.n
    report = diagnose_incoherence(design)
    assert report and report.items[0].kind == "first-order"


def test_refine_takes_no_complete_qr(monkeypatch, tmp_path):
    # a residual is its node's sides minus its sweeps: no ``orthocomplement``
    # runs inside ``refine`` on the shipped designs, a k = 5 lattice and an
    # RCBD with n = 4096 (the tier sources and ``explicit()`` outside it may)
    inside, calls, refined = [], [], []
    original_refine, original_complement = randomize.refine, projlin.orthocomplement

    def refine(*args, **kwargs):
        inside.append(True)
        refined.append(None)
        try:
            return original_refine(*args, **kwargs)
        finally:
            inside.pop()

    def complement(x):
        assert not inside, f"complete QR of a {x.shape[0]} x {x.shape[1]} block inside refine"
        calls.append(x.shape)
        return original_complement(x)

    monkeypatch.setattr(randomize, "refine", refine)
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "tierdecomp" and getattr(module, "orthocomplement", None) is original_complement:
            monkeypatch.setattr(module, "orthocomplement", complement)
    specs = [spec_path(name) for name in ALL_SPECS]
    specs += [gen.write("lattice", 5, 1, tmp_path / "lattice"), gen.write("rcbd", 4096, 1, tmp_path / "rcbd")]
    for spec in specs:
        diagnose_incoherence(load_design(spec))
    # the patches reached the tier sources' complements and every refinement
    assert calls and len(refined) > len(specs)


def test_sweep_by_an_implicit_source_inside_the_node_stays_implicit(monkeypatch):
    # plant: Seedlings[Varieties] ⊢ S1 stays I - VV' on the 60 units (r = 1)
    # and lies inside Positions[Benches] (lambda = 1), so its sweep is the
    # source itself, with no complete QR on the unit space
    original = Projector._complement_basis
    rows = []

    def recorded(self):
        block = original(self)
        rows.append((self.label, block.shape))
        return block

    monkeypatch.setattr(Projector, "_complement_basis", recorded)
    design = load_design(spec_path("plant"))
    result = build_decomposition(design)
    assert rows and all(shape[0] < design.n for _, shape in rows), rows
    nodes = {node.label: node for node in result.decomposition.nodes}
    swept = nodes["Positions[Benches] ▷ Seedlings[Varieties] ⊢ S1"]
    assert swept.projector.implicit and swept.df == 50


@pytest.mark.parametrize("k", [5, 7, 13])
def test_lattice_sweeps_match_the_closed_form(tmp_path, k):
    # n = 150, 392, 2366: Plots[Blocks∧Reps] is I - WW' and its sweep by
    # Treatments (lambda = k/(k+1)) is a list of class-form terms
    design = load_design(gen.write("lattice", k, 1, tmp_path))
    result = build_decomposition(design)
    table = layout(result.decomposition, design.tier_order, footnotes=result.diagnostics)
    assert compare_json(parse_table_json(render(table, fmt="json")), lattice_table(k)) == []
    if design.n <= 700:
        report = cross_check(design, max_units=design.n)
        assert report.ok, report.render_text()


def test_tolerance_below_the_implicit_sweeps_gap_stops_the_build(monkeypatch, tmp_path):
    # the sweep S of the implicit Plots[Blocks∧Reps], and of the explicit
    # Blocks[Reps], is checked from the step's balance result: ||S'S - I|| =
    # residual_norm / lam.  A tolerance between residual_norm, which the
    # balance check passes, and that gap stops the refinement with the error
    # a Gram check of the sweep's own basis gave
    spec = gen.write("lattice", 5, 1, tmp_path)
    steps = []
    original = randomize.refine

    def recorded(d, s, balance, policy=DEFAULT_POLICY, **kw):
        steps.append((d, s, balance))
        return original(d, s, balance, policy, **kw)

    monkeypatch.setattr(randomize, "refine", recorded)
    build_decomposition(load_design(spec))
    ((d, s, balance),) = steps
    for node_label, implicit in [("Plots[Blocks∧Reps]", True), ("Blocks[Reps]", False)]:
        (node,) = [node for node in d.nodes if node.label == node_label]
        res = balance.results[(node.label, "Treatments")]
        assert node.projector.implicit == implicit
        assert 0 < res.lam < 1 and res.residual_norm > 0
        between = res.residual_norm * (1 + 1 / res.lam) / 2
        policy = load_design(spec, tolerance=between).policy
        assert res.residual_norm < policy.tol_idem < res.residual_norm / res.lam
        label = re.escape(f"{node.label} ▷ Treatments")
        with pytest.raises(ProjectorError, match=f"^{label}: basis is not orthonormal"):
            refine(Decomposition([node], d.n), s, balance, policy)


def test_lifts_hold_no_implicit_form_on_classes(monkeypatch, tmp_path):
    # "implicit" means I - WW' on the whole space: a lift with r > 1 carries
    # an implicit tier source, and the tier's total, in explicit form
    lifts = []
    original = randomize.lift

    def recorded(s, alloc, policy=DEFAULT_POLICY):
        out = original(s, alloc, policy)
        lifts.append((out, alloc.replication))
        return out

    def on_classes(p):
        return p.implicit and p.classes is not None

    monkeypatch.setattr(randomize, "lift", recorded)
    cases = [
        (spec_path("corn"), {"Temperature#Moistures", "Harvesters"}),
        (gen.write("lattice", 7, 3, tmp_path), {"Treatments"}),
        # not balanced: the build lifts, then raises the report
        (gen.write("cyclic", 96, 1, tmp_path), {"Treatments"}),
    ]
    for spec, sources in cases:
        lifts.clear()
        try:
            nodes = build_decomposition(load_design(spec)).decomposition.nodes
        except IncoherenceError:
            nodes = []
        for s, r in lifts:
            held = s.elements + [s.total]
            assert not any(on_classes(p) for p in held)
            if r > 1:
                assert not any(p.implicit for p in held), [p.label for p in held if p.implicit]
        assert sources <= {p.label for s, r in lifts if r > 1 for p in s.elements}
        assert not any(on_classes(node.projector) for node in nodes)


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


def youden_square(dest, base, v):
    """A Youden square from the cyclic difference set ``base`` mod v: row i
    holds treatments base + i, a block of a symmetric BIBD, and each of the
    k columns holds every treatment once."""
    k = len(base)
    lines = [
        f"design youden{v}",
        "units plots",
        "tier plots",
        f"  factor Rows {v}",
        f"  factor Columns {k}",
        "  formula Rows*Columns",
        "tier treatments",
        f"  factor Treatments {v}",
        "randomize treatments -> plots type simple",
        f"allocation csv youden{v}.csv",
    ]
    (dest / f"youden{v}.spec").write_text("\n".join(lines) + "\n")
    rows = [f"r{i},c{j},t{(d + i) % v}" for i in range(v) for j, d in enumerate(base)]
    (dest / f"youden{v}.csv").write_text("\n".join(["Rows,Columns,Treatments"] + rows) + "\n")
    return dest / f"youden{v}.spec"


@pytest.mark.parametrize(
    "base, v", [((0, 1, 3), 7), ((0, 1, 3, 9), 13), ((0, 1, 4, 14, 16), 21)]
)
def test_youden_square_closed_form(tmp_path, base, v):
    # n = 21, 52, 105; at n = 105 Treatments lifts with r = 5.
    # Treatments split 1 - E between rows and E within, with
    # E = v(k-1)/(k(v-1)); the complete columns are orthogonal to them.
    k = len(base)
    e = Fraction(v * (k - 1), k * (v - 1))
    design = load_design(youden_square(tmp_path, base, v))
    result = build_decomposition(design)
    nodes = {n.label: n for n in result.decomposition.nodes}
    assert {label: n.df for label, n in nodes.items()} == {
        "Mean": 1,
        "Rows ▷ Treatments": v - 1,
        "Columns": k - 1,
        "Rows#Columns ▷ Treatments": v - 1,
        "Rows#Columns ⊢ treatments": (v - 1) * (k - 2),
    }
    (between,) = nodes["Rows ▷ Treatments"].lineage
    (within,) = nodes["Rows#Columns ▷ Treatments"].lineage
    assert Fraction(*between.efficiency.rational) == 1 - e
    assert Fraction(*within.efficiency.rational) == e
    assert nodes["Columns"].lineage == ()
    report = cross_check(design, max_units=design.n)
    assert report.ok, report.render_text()


@given(block_designs())
@settings(
    max_examples=40,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
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


EIGHT_DIAGNOSIS = """\
randomizations are incoherent:
  step treatments -> plots (simple): Blocks vs A [first-order]; QPQ eigenvalues 1 (x1), 0.75 (x1), 0.25 (x1); destroys part of the plots decomposition; suggestion: merge sources Blocks, Plots[Blocks] into one stratum
  step treatments -> plots (simple): Blocks vs B[A] [first-order]; QPQ eigenvalues 0.75 (x1), 0.25 (x1); destroys part of the plots decomposition; suggestion: merge sources Blocks, Plots[Blocks] into one stratum
  step treatments -> plots (simple): Blocks vs A & B[A] [distinctness]; destroys part of the plots decomposition
  step treatments -> plots (simple): Plots[Blocks] vs A [first-order]; QPQ eigenvalues 1 (x2), 0.75 (x1), 0.25 (x1); destroys part of the plots decomposition; suggestion: merge sources Blocks, Plots[Blocks] into one stratum
  step treatments -> plots (simple): Plots[Blocks] vs B[A] [first-order]; QPQ eigenvalues 0.75 (x1), 0.25 (x1); destroys part of the plots decomposition; suggestion: merge sources Blocks, Plots[Blocks] into one stratum
  step treatments -> plots (simple): Plots[Blocks] vs A & B[A] [distinctness]; destroys part of the plots decomposition
"""


def test_implicit_source_smaller_than_the_row_side(monkeypatch, tmp_path, capsys):
    # r = 1 on 8 units: B[A] stays I - WW' with 2 df, fewer than Blocks' 3
    # and than the 4 listed bases of Plots[Blocks], so each small Gram has
    # eigenvalues, zeros for Blocks and ones for Plots[Blocks], that C'C
    # lacks; they are dropped instead of spanning B[A] on the units
    lines = [
        "design eight",
        "units plots",
        "tier plots",
        "  factor Blocks 4",
        "  factor Plots 2",
        "  formula Blocks/Plots",
        "tier treatments",
        "  factor A 6",
        "  factor B 2",
        "  formula A/B",
        "randomize treatments -> plots type simple",
        "allocation csv eight.csv",
    ]
    (tmp_path / "eight.spec").write_text("\n".join(lines) + "\n")
    cells = ["a0,b0", "a1,b0", "a0,b1", "a2,b0", "a1,b1", "a3,b0", "a4,b0", "a5,b0"]
    rows = [f"k{i // 2},p{i % 2},{cell}" for i, cell in enumerate(cells)]
    (tmp_path / "eight.csv").write_text("\n".join(["Blocks,Plots,A,B"] + rows) + "\n")

    def forbidden(self):
        raise AssertionError(f"complement of {self.label} taken")

    monkeypatch.setattr(Projector, "_complement_basis", forbidden)
    assert cli_main(["diagnose", str(tmp_path / "eight.spec")]) == 0
    assert capsys.readouterr().out == EIGHT_DIAGNOSIS


# --- side terms a filled group absorbs ---------------------------------------


def test_corn_absorbs_every_side_term_of_its_implicit_source(monkeypatch):
    # corn's lots source L1 is I - WW' with W filling the 162 L1 classes,
    # and every row's terms lie on coarser classes: no distinctness norm is
    # formed on the rows (that no eigensolve trim runs either is
    # ``test_build_counts.py::test_eigensolves_of_one_build``)
    inside, formed = [], []
    original_meet = structure._meet_norms

    def meet(*args, **kwargs):
        inside.append(True)
        try:
            return original_meet(*args, **kwargs)
        finally:
            inside.pop()

    def watched(name, original):
        def inner(*args, **kwargs):
            if inside:
                formed.append(name)
            return original(*args, **kwargs)

        return inner

    monkeypatch.setattr(structure, "_meet_norms", meet)
    for name in ("mul", "span"):
        monkeypatch.setattr(structure, name, watched(name, getattr(structure, name)))
    build_decomposition(load_design(spec_path("corn")))
    assert formed == []


def partly_absorbed_case():
    """A structure Mean, Blocks, X, Q = I - [Mean, Blocks, X] on 24 rows in
    4 blocks of 6 and 12 pairs, Mean and Blocks filling the blocks, X on the
    pairs within blocks; and two rows each with one term on the blocks,
    which Q absorbs, and one on 6 columns that cross the blocks, which it
    does not, and which ``of_terms`` keeps apart from the blocks term: an
    explicit P = N_B a + N_C b, and an implicit I - V1V1' - V2V2', V1 on the
    blocks and V2 on the columns."""
    rng = np.random.default_rng(23)
    rows = np.arange(24)
    blocks, pairs, columns = (projlin.Classes(ids) for ids in (rows // 6, rows // 2, rows % 6))
    table = pairs.table(blocks)  # N_F'N_B: N_B = N_F table
    mean = Projector.of_terms([(projlin.Classes(np.zeros(24, dtype=np.intp)), np.ones((1, 1)))], "Mean")
    contrasts = projlin.orthocomplement(np.full((4, 1), 0.5))
    source = Projector.of_terms([(blocks, contrasts)], "Blocks")
    within = projlin.orthocomplement(table)  # pair coordinates orthogonal to the blocks
    x = Projector.of_terms([(pairs, within @ orthonormal(rng, 8, 4))], "X")
    q = Projector.complement_of([mean, source, x], "Q")
    s = Structure(elements=[mean, source, x, q], total=Projector.complement_of(np.zeros((24, 0)), "all"))
    terms = [(blocks, rng.normal(size=(4, 2))), (columns, rng.normal(size=(6, 2)))]
    r = np.linalg.qr(sum(c.up(a) for c, a in terms))[1]
    explicit = Projector.of_terms([(c, np.linalg.solve(r.T, a.T).T) for c, a in terms], "P")
    v1 = orthonormal(rng, 4, 1)
    v2 = projlin.orthocomplement(columns.table(blocks) @ v1) @ orthonormal(rng, 5, 2)
    implicit = Projector.complement_of(
        [Projector.of_terms([(blocks, v1)], "V1"), Projector.of_terms([(columns, v2)], "V2")], "P'"
    )
    return s, [explicit, implicit]


def test_partly_absorbed_rows_take_the_whole_path():
    s, rows = partly_absorbed_case()
    *stacked, q = s.elements
    filled, rest = projlin.folded(q)
    assert len(filled) == 1 and rest == [stacked[2]]
    w = np.hstack([basis_of(x) for x in stacked])
    q_dense = np.eye(24) - w @ w.T
    for p in rows:
        # one of the two side terms lies on the filled blocks, one does not
        side = p.parts if p.implicit else (p,)
        on_filled = [projlin.refines(filled[0].ids, cls.ids) for v in side for cls, _ in v.terms]
        assert sorted(on_filled) == [False, True]
        assert not structure._absorbed(p, filled)
        c = projlin.side_cross(p, stacked)
        g = structure._row_gram(p, c)
        got = structure._meet_norms(q, p, stacked, g, c, 1e-9, False)
        p_dense = basis_of(p) @ basis_of(p).T
        want = [np.linalg.norm(q_dense @ p_dense @ basis_of(x)) for x in stacked]
        assert np.allclose(got, want, rtol=0, atol=1e-13), (p.label, got, want)
        # the planted meet: X and Q overlap inside P
        assert got[2] > 0.1
        # one answer for the pair from the check and from ``efficiency``
        res = structure._classify_held(p, q, False, lambda: g, DEFAULT_POLICY)
        assert efficiency(p, q) == res and res.status == "unbalanced"
    report = is_structure_balanced(s, Structure(elements=rows, total=s.total))
    meets = {(v.row, v.cols) for v in report.violations if v.kind == "distinctness"}
    assert {("P", ("X", "Q")), ("P'", ("X", "Q"))} <= meets


def test_a_row_on_the_filled_classes_is_orthogonal_without_an_eigensolve(monkeypatch):
    s, _ = partly_absorbed_case()
    *stacked, q = s.elements
    blocks = stacked[1].classes
    p = Projector.of_terms([(blocks, orthonormal(np.random.default_rng(3), 4, 2))], "on blocks")
    monkeypatch.setattr(structure, "_classify_complement", None)  # never reached
    monkeypatch.setattr(structure, "_row_gram", None)  # nor formed
    assert structure._absorbed(p, projlin.folded(q)[0])
    assert efficiency(p, q).status == "orthogonal"


@pytest.mark.parametrize("name", ["plant", "corn"])
def test_absorbed_terms_give_the_balance_of_dense_bases(monkeypatch, name):
    # every basis held dense (``hold_dense``) is never absorbed; in class
    # form both designs absorb every row's terms: each BalanceResult of the
    # build agrees
    def results(dense):
        got, absorbed = {}, []
        original_check, original_absorbed = structure.is_structure_balanced, structure._absorbed

        def recorded_check(s, against, policy=DEFAULT_POLICY):
            out = original_check(s, against, policy)
            got.update(out.results)
            return out

        def recorded_absorbed(p, filled):
            absorbed.append(original_absorbed(p, filled))
            return absorbed[-1]

        with monkeypatch.context() as m:
            if dense:
                hold_dense(m)
            m.setattr(randomize, "is_structure_balanced", recorded_check)
            m.setattr(structure, "_absorbed", recorded_absorbed)
            build_decomposition(load_design(spec_path(name)))
        return got, absorbed

    dense, dense_absorbed = results(True)
    classes, classes_absorbed = results(False)
    assert not any(dense_absorbed) and any(classes_absorbed)
    assert dense.keys() == classes.keys()
    for key, want in dense.items():
        got = classes[key]
        assert got.status == want.status, key
        assert got.lam == pytest.approx(want.lam, abs=1e-12), key
        assert got.efficiency.rational == want.efficiency.rational, key
        assert got.residual_norm == pytest.approx(want.residual_norm, abs=1e-12), key
