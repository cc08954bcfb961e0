"""Where each invariant is checked: every family the build makes still passes
a whole-family validation, and the checks that replace it are tight."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tierdecomp import (
    AllocationMap,
    Decomposition,
    LiftingError,
    Projector,
    Structure,
    TolerancePolicy,
    joint,
    lift,
    residual,
)
from tierdecomp.projlin import DEFAULT_POLICY, ProjectorError
from tierdecomp.structure import check_blocks

from conftest import COHERENT, spec_path

ROOT = Path(__file__).resolve().parent.parent

# tol_zero well below tol_idem: the block rule must still hold the
# off-diagonal blocks to tol_zero
SPLIT_POLICY = TolerancePolicy(tol_idem=1e-6, tol_zero=1e-10)


def unit(n, i, label):
    return Projector.from_basis(np.eye(n)[:, [i]], label)


def tilted(n, i, j, eps, label):
    """e_i tilted by eps towards e_j, normalised."""
    v = np.eye(n)[:, i] + eps * np.eye(n)[:, j]
    return Projector.from_basis((v / np.linalg.norm(v))[:, None], label)


@pytest.mark.parametrize("name", COHERENT)
def test_every_family_the_build_makes_validates(name, design, built):
    d = design(name)
    policy = d.policy
    d.units_structure().validate(policy)
    for step in d.steps:
        tier = d.tier_structure(step.from_tier)
        tier.validate(policy)
        lift(tier, d.allocation(step.from_tier), policy).validate(policy)
        if step.kind == "double":
            inter = step.to_tiers[1]
            d.intermediate_tier_structure(inter).validate(policy)
            lift(tier, d.intermediate_allocation(inter, step.from_tier), policy).validate(policy)
    built(name).decomposition.validate(policy)


class TestResidual:
    def test_sweeps_that_fill_p_must_not_overlap(self):
        # the S1/S2 block of K'K - I is 1e-8 > tol_zero: rejected even though
        # the sweeps leave nothing of P, and named by the pair
        p = Projector.from_basis(np.eye(3)[:, :2], "P")
        with pytest.raises(ProjectorError, match="sweeps S1 and S2 are not orthogonal"):
            residual(p, [unit(3, 0, "S1"), tilted(3, 1, 0, 1e-8, "S2")])

    def test_sweeps_wider_than_p_rejected(self):
        p = Projector.from_basis(np.eye(3)[:, :1], "P")
        with pytest.raises(ProjectorError, match="sweep gap 1.000e"):
            residual(p, [unit(3, 0, "S1"), unit(3, 1, "S2")])

    @pytest.mark.parametrize(
        "size, policy",
        [
            pytest.param(2, SPLIT_POLICY, id="2"),
            pytest.param(3, SPLIT_POLICY, id="3"),
            pytest.param(3, DEFAULT_POLICY, id="equal-tolerances"),
        ],
    )
    def test_overlapping_sweeps_rejected_under_a_split_policy(self, size, policy):
        # the S1/S2 block fails tol_zero; under the split policy the whole gap
        # passes tol_idem, under equal tolerances the pair is checked first
        p = Projector.from_basis(np.eye(3)[:, :size], "P")
        swept = [unit(3, 0, "S1"), tilted(3, 1, 0, 1e-8, "S2")]
        with pytest.raises(ProjectorError, match="sweeps S1 and S2 are not orthogonal"):
            residual(p, swept, policy)


class TestBlockRule:
    def defect(self, cross):
        d = np.zeros((3, 3))
        d[0, 1] = d[1, 0] = cross
        return d

    def test_cross_block_held_to_tol_zero(self):
        members = [unit(3, 0, "a"), Projector.from_basis(np.eye(3)[:, 1:], "b")]
        with pytest.raises(ValueError, match="a and b are not orthogonal"):
            check_blocks(self.defect(1e-8), members, SPLIT_POLICY)
        check_blocks(self.defect(1e-11), members, SPLIT_POLICY)

    def test_diagonal_block_held_to_tol_idem(self):
        members = [unit(3, 0, "a"), Projector.from_basis(np.eye(3)[:, 1:], "b")]
        d = np.zeros((3, 3))
        d[1, 2] = d[2, 1] = 1e-7
        check_blocks(d, members, SPLIT_POLICY)
        d[1, 2] = d[2, 1] = 1e-5
        with pytest.raises(ValueError, match="b: basis is not orthonormal"):
            check_blocks(d, members, SPLIT_POLICY)

    def test_structure_validate_uses_it(self):
        mean = Projector.from_basis(np.full((3, 1), 3 ** -0.5), "Mean")
        a = Projector.from_basis(np.array([[1.0], [-1.0], [0.0]]) / 2 ** 0.5, "a")
        b = Projector.from_basis(
            np.array([[1.0 + 1e-8], [1.0 - 1e-8], [-2.0]]) / 6 ** 0.5, "b"
        )
        s = Structure(elements=[mean, a, b], total=Projector.from_basis(np.eye(3), "span"))
        s.validate(TolerancePolicy(tol_idem=1e-6, tol_zero=1e-6))
        with pytest.raises(ValueError, match="a and b are not orthogonal"):
            s.validate(SPLIT_POLICY)


class TestKeptChecks:
    def test_general_lift_validates_its_new_family(self, monkeypatch):
        # Mean plus the two within-pair contrasts on four objects
        mean = np.full((4, 1), 0.5)
        within = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]) / 2 ** 0.5
        s = Structure(
            elements=[Projector.from_basis(mean, "Mean"), Projector.from_basis(within, "Within")],
            total=Projector.from_basis(np.hstack([mean, within]), "span"),
            space_label="t",
        )
        # the weighted cross Gram vanishes, yet an unequal allocation is
        # rejected, and no lift validates a family
        unequal = AllocationMap(tier="t", objects=list(range(4)), assignment=[0, 1, 2, 2, 3, 3])
        equal = AllocationMap(tier="t", objects=list(range(4)), assignment=[0, 1, 2, 3] * 2)

        def refuse(self, policy=None):
            raise AssertionError("validated")

        monkeypatch.setattr(Structure, "validate", refuse)
        with pytest.raises(LiftingError, match="not equireplicate"):
            lift(s, unequal)
        assert [p.df for p in lift(s, equal).elements] == [1, 2]

    def test_joint_validates_its_new_family(self, monkeypatch):
        def refuse(self, policy=None):
            raise AssertionError("validated")

        s = Structure(
            elements=[unit(2, 0, "Mean"), unit(2, 1, "A")],
            total=Projector.from_basis(np.eye(2), "span"),
            space_label="t",
        )
        d = Decomposition.from_structure(s, "t")
        monkeypatch.setattr(Decomposition, "validate", refuse)
        with pytest.raises(AssertionError, match="validated"):
            joint(d, d)


def test_runtime_needs_no_scipy():
    # numpy is the only runtime dependency; where scipy happens to be
    # installed, only a check like this one notices a stray import
    code = (
        "import sys, tierdecomp\n"
        "tierdecomp.build_decomposition(tierdecomp.load_design(sys.argv[1]))\n"
        "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, str(spec_path("corn"))],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
