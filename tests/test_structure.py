"""Sweeps, residuals, lifting, balance checks, and decomposition algebra."""

import numpy as np
import pytest

from tierdecomp import (
    DEFAULT_POLICY,
    AllocationMap,
    Decomposition,
    DecompNode,
    LiftingError,
    Projector,
    Structure,
    ViolationReport,
    efficiency,
    is_structure_balanced,
    joint,
    lift,
    refine,
    residual,
    sweep,
)
from tierdecomp.structure import IncompatibilityError, _cluster_eigenvalues, is_compatible

from conftest import design_matrix


def proj(matrix, label="p"):
    return Projector.validated(np.asarray(matrix, dtype=float), label)


def rank_one(v, label="q"):
    v = np.asarray(v, dtype=float)
    v = v / np.linalg.norm(v)
    return proj(np.outer(v, v), label)


P_HALF = proj(np.diag([1.0, 1.0, 0.0, 0.0]), "P")


class TestEfficiency:
    def test_orthogonal(self):
        res = efficiency(P_HALF, rank_one([0, 0, 0, 1]))
        assert res.status == "orthogonal"
        assert res.efficiency.is_zero()
        assert res.ok

    def test_balanced_at_one_half(self):
        # the generating vector sits at 45 degrees to Im(P)
        res = efficiency(P_HALF, rank_one([1, 0, 1, 0]))
        assert res.status == "balanced"
        assert res.efficiency.rational == (1, 2)
        assert res.lam == pytest.approx(0.5, abs=1e-12)

    def test_aliased(self):
        res = efficiency(P_HALF, P_HALF.relabel("Q"))
        assert res.status == "aliased"
        assert res.efficiency.is_one()

    def test_unbalanced_reports_eigenvalues(self):
        # one direction lies inside Im(P), the other at 45 degrees, so QPQ
        # has two distinct nonzero eigenvalues
        q = proj(
            np.outer([1, 0, 0, 0], [1, 0, 0, 0])
            + 0.5 * np.outer([0, 1, 1, 0], [0, 1, 1, 0]),
            "Q",
        )
        res = efficiency(P_HALF, q)
        assert res.status == "unbalanced"
        assert not res.ok
        assert [(round(v, 9), m) for v, m in res.eigenvalues] == [(1.0, 1), (0.5, 1)]


def cluster_by_loop(values, policy):
    """Reference for ``_cluster_eigenvalues``: walk the descending spectrum."""
    groups = []
    for v in np.sort(values)[::-1]:
        if abs(v) <= policy.tol_eig:
            continue
        if groups and abs(groups[-1][-1] - v) <= policy.tol_eig:
            groups[-1].append(v)
        else:
            groups.append([v])
    return tuple((float(np.mean(g)), len(g)) for g in groups)


@pytest.mark.parametrize("seed", range(30))
def test_cluster_eigenvalues_matches_the_loop(seed):
    # near-ties inside tol_eig, exact and tiny zeros of either sign, and
    # groups long enough that the summation order of the mean matters
    rng = np.random.default_rng(seed)
    tol = DEFAULT_POLICY.tol_eig
    centres = rng.uniform(-1e-6, 1.0, size=rng.integers(0, 10))
    parts = [c + rng.uniform(-0.4 * tol, 0.4 * tol, size=rng.integers(1, 300)) for c in centres]
    parts += [np.zeros(rng.integers(0, 20)), rng.uniform(-tol, tol, size=rng.integers(0, 10))]
    values = rng.permutation(np.concatenate(parts))
    got = _cluster_eigenvalues(values, DEFAULT_POLICY)
    assert got == cluster_by_loop(values, DEFAULT_POLICY)
    assert all(type(v) is float and type(m) is int for v, m in got)


class TestSweepAndResidual:
    def test_sweep_extracts_the_shared_part(self):
        q = rank_one([1, 0, 1, 0])
        swept = sweep(P_HALF, q, 0.5)
        assert swept.df == 1
        assert np.allclose(swept.matrix, np.diag([1.0, 0.0, 0.0, 0.0]), atol=1e-12)

    def test_sweep_rejects_zero_efficiency(self):
        with pytest.raises(ValueError, match="nonzero efficiency"):
            sweep(P_HALF, rank_one([0, 0, 0, 1]), 0.0)

    def test_residual_removes_sweeps(self):
        q = rank_one([1, 0, 1, 0])
        swept = sweep(P_HALF, q, 0.5)
        rem = residual(P_HALF, [swept])
        assert rem.df == 1
        assert np.allclose(rem.matrix, np.diag([0.0, 1.0, 0.0, 0.0]), atol=1e-12)

    def test_residual_vanishes_when_fully_swept(self):
        assert residual(P_HALF, [P_HALF]) is None


class TestAllocationMap:
    def test_design_matrix_and_replication(self):
        alloc = AllocationMap(tier="t", objects=["a", "b"], assignment=[0, 1, 0, 1])
        assert alloc.replication == 2
        x = design_matrix(alloc)
        assert x.shape == (4, 2)
        assert np.array_equal(x.sum(axis=1), np.ones(4))

    def test_unequal_replication_detected(self):
        alloc = AllocationMap(tier="t", objects=["a", "b"], assignment=[0, 0, 1])
        assert alloc.replication is None

    def test_rejects_out_of_range_assignment(self):
        with pytest.raises(ValueError, match="out of range"):
            AllocationMap(tier="t", objects=["a"], assignment=[0, 1])


def two_group_structure():
    """Mean plus the two within-pair contrasts on four objects."""
    mean = proj(np.full((4, 4), 0.25), "Mean")
    b = np.zeros((4, 4))
    b[:2, :2] = [[0.5, -0.5], [-0.5, 0.5]]
    b[2:, 2:] = [[0.5, -0.5], [-0.5, 0.5]]
    within = proj(b, "Within")
    total = proj(mean.matrix + b, "span")
    return Structure(elements=[mean, within], total=total, space_label="t")


class TestLift:
    def test_equireplicate_conjugation(self):
        s = two_group_structure()
        alloc = AllocationMap(tier="t", objects=list(range(4)), assignment=[0, 1, 2, 3, 0, 1, 2, 3])
        lifted = lift(s, alloc)
        assert [p.df for p in lifted.elements] == [1, 2]
        assert lifted.notices == []

    def test_general_route_with_notice(self):
        # replication differs between the two pairs, but every cross product
        # through the replication weights vanishes, so lifting still works
        s = two_group_structure()
        alloc = AllocationMap(
            tier="t", objects=list(range(4)), assignment=[0, 1, 2, 2, 3, 3]
        )
        lifted = lift(s, alloc)
        assert [p.df for p in lifted.elements] == [1, 2]
        assert any("general lifting" in note for note in lifted.notices)

    def test_unliftable_allocation_rejected(self):
        mean = proj(np.full((2, 2), 0.5), "Mean")
        contrast = proj([[0.5, -0.5], [-0.5, 0.5]], "A")
        s = Structure(elements=[mean, contrast], total=proj(np.eye(2), "span"))
        alloc = AllocationMap(tier="t", objects=[0, 1], assignment=[0, 1, 1])
        with pytest.raises(LiftingError, match="lifting condition"):
            lift(s, alloc)

    def test_object_count_mismatch(self):
        s = two_group_structure()
        alloc = AllocationMap(tier="t", objects=[0, 1], assignment=[0, 1])
        with pytest.raises(LiftingError, match="4"):
            lift(s, alloc)


class TestDecompositionValidate:
    def test_df_sum_must_match(self):
        d = Decomposition(nodes=[node(np.full((2, 2), 0.5), "Mean")], n=2)
        with pytest.raises(ValueError, match="df sum"):
            d.validate()

    def test_exactly_one_mean(self):
        m = np.full((2, 2), 0.5)
        d = Decomposition(nodes=[node(m, "Mean"), node(m, "Mean2")], n=2)
        with pytest.raises(ValueError, match="Mean"):
            d.validate()

    def test_orthogonality_enforced(self):
        # df adds up to n, but the two contrast directions overlap
        m = np.full((3, 3), 1.0 / 3.0)
        d = Decomposition(
            nodes=[
                node(m, "Mean"),
                node(rank_one([1, -1, 0]).matrix, "a"),
                node(rank_one([1, 0, -1]).matrix, "b"),
            ],
            n=3,
        )
        with pytest.raises(ValueError, match="not orthogonal"):
            d.validate()


def node(matrix, label):
    return DecompNode(
        projector=Projector.validated(matrix, label),
        origin_tier="t",
        origin_source=label,
        origin_df=int(round(np.trace(matrix))),
    )


class TestJoint:
    def test_joint_with_itself_is_identity_operation(self, design, built):
        d = built("cherry").decomposition
        j = joint(d, d)
        assert len(j.nodes) == len(d.nodes)
        for a, b in zip(j.nodes, d.nodes):
            assert np.allclose(a.projector.matrix, b.projector.matrix, atol=1e-9)

    def test_incompatible_structures_rejected(self):
        mean = proj(np.full((4, 4), 0.25), "Mean")
        qa = rank_one([1, 1, -1, -1], "A")
        u = rank_one([1, 0, -1, 0], "U")
        sa = Structure(elements=[mean, qa], total=proj(mean.matrix + qa.matrix, "s"))
        su = Structure(elements=[mean, u], total=proj(mean.matrix + u.matrix, "s"))
        assert not is_compatible(sa, su)
        with pytest.raises(IncompatibilityError):
            joint(sa, su)

    def test_one_svd_per_node_pair(self, monkeypatch, design):
        # plant's criterion-2 decompositions: the commutation test and the
        # product of each node pair come from the same SVD
        d = design("plant")
        d0 = Decomposition.from_structure(d.tier_structure("positions"), "positions")
        q = lift(d.tier_structure("seedlings"), d.allocation("seedlings"), d.policy)
        r = lift(d.tier_structure("regimes"), d.allocation("regimes"), d.policy)
        d_q = refine(d0, q, is_structure_balanced(q, d0, d.policy), d.policy, tier="seedlings")
        d_r = refine(d0, r, is_structure_balanced(r, d0, d.policy), d.policy, tier="regimes")
        calls = []
        original = np.linalg.svd

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        dj = joint(d_q, d_r, d.policy)
        assert len(calls) == len(d_q.nodes) * len(d_r.nodes)
        assert sum(node.df for node in dj.nodes) == d.n


class TestRefineOnDesigns:
    def test_refine_produces_sweeps_and_residuals(self, design):
        rcbd = design("rcbd16")
        units = rcbd.units_structure()
        d0 = Decomposition.from_structure(units, rcbd.units_tier)
        lifted = lift(rcbd.tier_structure("treatments"), rcbd.allocation("treatments"))
        out = refine(d0, lifted, is_structure_balanced(lifted, d0), tier="treatments")
        assert isinstance(out, Decomposition)
        labels = [n.label for n in out.nodes]
        assert "Plots[Blocks] ▷ Treatments" in labels
        assert "Plots[Blocks] ⊢ treatments" in labels

    def test_refine_reports_violations(self, design):
        uneven = design("uneven")
        units = uneven.units_structure()
        d0 = Decomposition.from_structure(units, uneven.units_tier)
        lifted = lift(uneven.tier_structure("treatments"), uneven.allocation("treatments"))
        out = is_structure_balanced(lifted, d0)
        assert isinstance(out, ViolationReport)
        assert out
        assert "not structure balanced" in out.summary()
        assert "nonzero eigenvalues" in out.summary()


class TestEfficiencyMatrix:
    def test_orthogonal_design_gives_unit_factors(self, design):
        rcbd = design("rcbd16")
        units = rcbd.units_structure()
        d0 = Decomposition.from_structure(units, rcbd.units_tier)
        lifted = lift(rcbd.tier_structure("treatments"), rcbd.allocation("treatments"))
        em = is_structure_balanced(lifted, d0)
        assert em.value("Plots[Blocks]", "Treatments").is_one()
        assert em.value("Blocks", "Treatments").is_zero()
        for total in em.column_sums().values():
            assert total == pytest.approx(1.0, abs=1e-9)
