"""The basis-form engine: closed-form efficiencies, invariance, and the
guarantee that no build path forms an n x n projector."""

import random
from fractions import Fraction

import numpy as np
import pytest

from tierdecomp import (
    DecompNode,
    Decomposition,
    Projector,
    Structure,
    build_decomposition,
    check_coincident,
    diagnose_incoherence,
    is_structure_balanced,
    layout,
    lift,
    load_design,
    render,
)
from tierdecomp import formula
from tierdecomp.projlin import ProjectorError
from tierdecomp.structure import IncompatibilityError, joint

from conftest import DESIGNS, basis_of, spec_path


def write_bundle(dest, name, units, rows):
    """Spec plus CSV for a block design: ``units`` is [(factor, levels)] nested
    in order, ``rows`` the CSV rows (unit levels, then the treatment)."""
    treatments = len({row[-1] for row in rows})
    factors = [f for f, _ in units]
    lines = [f"design {name}", "units plots", "tier plots"]
    lines += [f"  factor {f} {levels}" for f, levels in units]
    lines += [
        "  formula " + "/".join(factors),
        "tier treatments",
        f"  factor Treatments {treatments}",
        "randomize treatments -> plots type simple",
        f"allocation csv {name}.csv",
    ]
    (dest / f"{name}.spec").write_text("\n".join(lines) + "\n")
    body = [",".join(factors + ["Treatments"])] + [",".join(map(str, r)) for r in rows]
    (dest / f"{name}.csv").write_text("\n".join(body) + "\n")
    return dest / f"{name}.spec"


def sweep_efficiencies(result) -> dict:
    """origin source -> efficiency of its sweep by Treatments, as a Fraction."""
    out = {}
    for node in result.decomposition.nodes:
        for entry in node.lineage:
            if entry.op == "sweep" and entry.cells[0][1] == "Treatments":
                out[node.origin_source] = Fraction(*entry.efficiency.rational)
    return out


@pytest.mark.parametrize("k", [5, 7])
def test_balanced_lattice_closed_form(tmp_path, k):
    # k+1 replicates: rows, columns and the k-1 slopes of the affine plane Z_k^2
    rows = []
    for rep in range(k + 1):
        for block in range(k):
            if rep == 0:
                cells = [(block, j) for j in range(k)]
            elif rep == 1:
                cells = [(i, block) for i in range(k)]
            else:
                cells = [(i, ((rep - 1) * i + block) % k) for i in range(k)]
            for plot, (i, j) in enumerate(cells):
                rows.append((f"r{rep}", f"b{block}", f"p{plot}", f"t{i * k + j}"))
    spec = write_bundle(
        tmp_path, f"lattice{k}", [("Reps", k + 1), ("Blocks", k), ("Plots", k)], rows
    )
    result = build_decomposition(load_design(spec))
    assert sweep_efficiencies(result) == {
        "Blocks[Reps]": Fraction(1, k + 1),
        "Plots[Blocks∧Reps]": Fraction(k, k + 1),
    }
    dfs = {n.label: n.df for n in result.decomposition.nodes}
    assert dfs["Plots[Blocks∧Reps] ⊢ treatments"] == k * (k + 1) * (k - 1) - (k * k - 1)


def test_fano_plane_bibd(tmp_path):
    # v = b = 7, blocks of k = 3: intra-block E = v(k-1)/(k(v-1)) = 7/9
    rows = [
        (f"b{b}", f"p{p}", f"t{(b + offset) % 7}")
        for b in range(7)
        for p, offset in enumerate((0, 1, 3))
    ]
    spec = write_bundle(tmp_path, "fano", [("Blocks", 7), ("Plots", 3)], rows)
    result = build_decomposition(load_design(spec))
    assert sweep_efficiencies(result) == {
        "Blocks": Fraction(2, 9),
        "Plots[Blocks]": Fraction(7, 9),
    }


def corn_text(spec) -> bytes:
    design = load_design(spec)
    result = build_decomposition(design)
    table = layout(result.decomposition, design.tier_order, footnotes=result.diagnostics)
    return render(table, fmt="text")


def test_corn_table_invariant_under_row_order_and_labels(tmp_path):
    rng = random.Random(20101)
    header, *body = (DESIGNS / "corn.csv").read_text().splitlines()
    rng.shuffle(body)
    cells = [row.split(",") for row in body]
    for col in range(len(cells[0])):
        labels = sorted({row[col] for row in cells})
        renamed = list(range(len(labels)))
        rng.shuffle(renamed)
        mapping = {old: f"v{new}" for old, new in zip(labels, renamed)}
        for row in cells:
            row[col] = mapping[row[col]]
    (tmp_path / "corn.csv").write_text("\n".join([header] + [",".join(r) for r in cells]) + "\n")
    (tmp_path / "corn.spec").write_text(spec_path("corn").read_text())
    assert corn_text(tmp_path / "corn.spec") == corn_text(spec_path("corn"))


def test_build_never_forms_a_dense_projector(monkeypatch):
    def forbidden(self):
        raise AssertionError(f"n x n matrix of {self.label} requested")

    def forbidden_call(*args, **kwargs):
        raise AssertionError("n x n projector formed")

    monkeypatch.setattr(Projector, "matrix", property(forbidden))
    monkeypatch.setattr(Projector, "validated", classmethod(forbidden_call))
    monkeypatch.setattr(formula, "averaging_matrix", forbidden_call)
    result = build_decomposition(load_design(spec_path("corn")))
    assert sum(node.df for node in result.decomposition.nodes) == 648
    report = diagnose_incoherence(load_design(spec_path("uneven")))
    assert report and report.items[0].suggestion.startswith("merge sources")


def test_build_never_revalidates_a_whole_family(monkeypatch):
    # each property is checked where it is made; only a joint refinement,
    # which none of these takes, validates a whole family
    def forbidden(self, policy=None):
        raise AssertionError(f"{type(self).__name__}.validate called in the build")

    monkeypatch.setattr(Structure, "validate", forbidden)
    monkeypatch.setattr(Decomposition, "validate", forbidden)
    # corn and plant: coincident; ex2: independent; grazing: double;
    # semilatin: pseudofactors
    for name, n in (("corn", 648), ("plant", 60), ("ex2", 24), ("grazing", 60), ("semilatin", 36)):
        result = build_decomposition(load_design(spec_path(name)))
        assert sum(node.df for node in result.decomposition.nodes) == n, name
    report = diagnose_incoherence(load_design(spec_path("uneven")))
    assert report and report.items[0].suggestion.startswith("merge sources")


class TestProjectorBasis:
    def test_matrix_is_lazy_and_cached(self):
        p = Projector.from_basis(np.array([[1.0], [0.0], [0.0]]), "e1")
        assert p._matrix is None
        m = p.matrix
        assert m is p.matrix
        assert not m.flags.writeable
        assert np.array_equal(m, np.diag([1.0, 0.0, 0.0]))

    def test_from_basis_leaves_the_callers_array_writeable(self):
        u = np.array([[1.0], [0.0], [0.0]])
        p = Projector.from_basis(u, "e1")
        assert u.flags.writeable
        ((_, held),) = p.terms
        assert not held.flags.writeable
        u[0, 0] = 0.0
        assert basis_of(p)[0, 0] == 1.0

    def test_from_basis_rejects_non_orthonormal(self):
        with pytest.raises(ProjectorError, match="not orthonormal"):
            Projector.from_basis(np.array([[1.0, 1.0], [0.0, 1.0]]), "skew")

    def test_validated_derives_the_basis(self):
        m = np.full((4, 4), 0.25)
        p = Projector.validated(m, "Mean")
        assert p.df == 1
        assert np.allclose(basis_of(p) @ basis_of(p).T, m, atol=1e-12)
        assert p.is_mean()

    def test_is_mean_is_the_entrywise_test(self):
        u = np.full(4, 0.5)
        u[:2] += 1e-6
        u /= np.linalg.norm(u)
        near = Projector.from_basis(u[:, None], "near")
        dense_gap = np.max(np.abs(np.outer(u, u) - 0.25))
        assert near.is_mean() == (dense_gap <= 1e-9)
        assert not near.is_mean()

    def test_commutation_from_principal_angles(self):
        # joint tests each node pair with one SVD: two splits of the Mean's
        # complement in R^3 commute when they cross at right angles, and not
        # when one is turned by 1e-3
        a = np.array([1.0, -1.0, 0.0]) / 2 ** 0.5
        c = np.cross(MEAN3, a)
        b = np.cos(1e-3) * a + np.sin(1e-3) * c
        assert len(joint(decomposition_of(a), decomposition_of(c)).nodes) == 3
        with pytest.raises(IncompatibilityError):
            joint(decomposition_of(a), decomposition_of(b))


MEAN3 = np.full(3, 3 ** -0.5)


def decomposition_of(v):
    """The decomposition of R^3 into the Mean, span(v) and the rest, for a
    unit v orthogonal to the Mean."""
    bases = {"Mean": MEAN3, "v": v, "rest": np.cross(MEAN3, v)}
    nodes = []
    for label, x in bases.items():
        p = Projector.from_basis(x[:, None], label)
        nodes.append(DecompNode(projector=p, origin_tier="t", origin_source=label, origin_df=1))
    return Decomposition(nodes=nodes, n=3)


class TestBalanceReuse:
    def setup_method(self):
        self.d = load_design(spec_path("plant"))
        self.d0 = Decomposition.from_structure(self.d.units_structure(), self.d.units_tier)
        self.q = lift(self.d.tier_structure("seedlings"), self.d.allocation("seedlings"))
        self.r = lift(self.d.tier_structure("regimes"), self.d.allocation("regimes"))

    def test_check_coincident_reads_the_matrices(self):
        balances = (is_structure_balanced(self.q, self.d0), is_structure_balanced(self.r, self.d0))
        rep = check_coincident(self.d0, self.q, self.r, balances)
        assert rep.general.holds
        assert rep.general.witnesses == [
            "Mean: fully swept by Mean or Mean",
            "Benches: fully swept by S1 or Regimes",
        ]
        assert rep.special_as_given.holds
        assert rep.special_as_given.witnesses == ["Mean ▷ Mean = Mean", "Benches ▷ S1 = Benches"]
        assert not rep.special_swapped.holds
        assert rep.special_swapped.witnesses == [
            "Mean ▷ Mean = Mean",
            "Benches meets Regimes and the positions span, but the sweep does not return it whole",
        ]
