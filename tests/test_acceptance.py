"""End-to-end acceptance gate.

One test per published behavior guarantee, each printing a single
``[PASS]``/``[FAIL]`` line (run with ``-s`` to see them).  Builds are
timed fresh where a runtime bound is part of the guarantee; everything
numeric is checked at the stated tolerance, nothing looser.
"""

import dataclasses
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

from conftest import ALL_SPECS, COHERENT, SMALL, spec_path
from tierdecomp import (
    Decomposition,
    EfficiencyMatrix,
    IncoherenceError,
    ViolationReport,
    build_decomposition,
    check_double,
    cli_main,
    cross_check,
    diagnose_incoherence,
    is_structure_balanced,
    joint,
    lift,
    load_design,
    refine,
)
from tierdecomp.randomize import CoincidentReport, ConditionReport
from tierdecomp.speccli import Design
from tierdecomp.tabrender import layout


@contextmanager
def criterion(number, text):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {text}")
        raise
    print(f"[PASS] criterion {number}: {text}")


def fresh_build(name):
    """Load and build from scratch, returning (design, result, seconds)."""
    d = load_design(spec_path(name))
    t0 = time.perf_counter()
    res = build_decomposition(d)
    return d, res, time.perf_counter() - t0


def node_sets_match(a, b, tol=1e-9):
    assert len(a.nodes) == len(b.nodes)
    remaining = list(b.nodes)
    for node in a.nodes:
        hit = None
        for other in remaining:
            if np.max(np.abs(node.projector.matrix - other.projector.matrix)) <= tol:
                hit = other
                break
        assert hit is not None, f"no partner for {node.label}"
        remaining.remove(hit)


def test_criterion_1_cherry_table():
    with criterion(1, "cherry decomposition with exact 1/6 + 5/6 split, < 1 s"):
        d, res, seconds = fresh_build("cherry")
        assert seconds < 1.0, f"cherry build took {seconds:.2f}s"
        nodes = {n.label: n for n in res.decomposition.nodes}
        dfs = {label: n.df for label, n in nodes.items()}
        assert dfs == {
            "Mean": 1,
            "Blocks": 2,
            "Trees[Blocks] ▷ Rootstocks ▷ Viruses": 4,
            "Trees[Blocks] ▷ Rootstocks ⊢ viruses": 5,
            "Trees[Blocks] ⊢ rootstocks ▷ Viruses": 4,
            "Trees[Blocks] ⊢ rootstocks ⊢ viruses": 14,
        }
        # the 9 rootstock df split 4 + 5, the 18 residual df split 4 + 14
        assert dfs["Trees[Blocks] ▷ Rootstocks ▷ Viruses"] + dfs[
            "Trees[Blocks] ▷ Rootstocks ⊢ viruses"
        ] == 9
        assert dfs["Trees[Blocks] ⊢ rootstocks ▷ Viruses"] + dfs[
            "Trees[Blocks] ⊢ rootstocks ⊢ viruses"
        ] == 18
        lams = {}
        for node in res.decomposition.nodes:
            for entry in node.lineage:
                if entry.efficiency is not None and not entry.efficiency.is_one():
                    lams[node.label] = entry.efficiency
        low = lams["Trees[Blocks] ▷ Rootstocks ▷ Viruses"]
        high = lams["Trees[Blocks] ⊢ rootstocks ▷ Viruses"]
        assert low.rational == (1, 6) and high.rational == (5, 6)
        assert abs(low.value - 1.0 / 6.0) <= 1e-9
        assert abs(high.value - 5.0 / 6.0) <= 1e-9
        # the viruses information splits completely: 1/6 + 5/6 = 1
        assert Fraction(*low.rational) + Fraction(*high.rational) == 1


def test_criterion_2_plant_coincident():
    with criterion(2, "plant coincident pair, special case held, joint equal, < 2 s"):
        d, res, seconds = fresh_build("plant")
        assert seconds < 2.0, f"plant build took {seconds:.2f}s"
        dfs = {n.label: n.df for n in res.decomposition.nodes}
        assert dfs == {
            "Mean": 1,
            "Benches ▷ S1 ▷ Regimes": 1,
            "Benches ▷ S1 ⊢ regimes": 4,
            "Positions[Benches] ▷ Varieties": 4,
            "Positions[Benches] ▷ Seedlings[Varieties] ⊢ S1": 50,
        }
        reps = [r for r in res.reports if isinstance(r, CoincidentReport)]
        assert len(reps) == 1
        rep = reps[0]
        assert rep.route == "left-to-right"
        assert rep.special_as_given.holds
        assert "Benches ▷ S1 = Benches" in rep.special_as_given.witnesses
        # the joint decomposition agrees with the left-to-right refinement
        d0 = Decomposition.from_structure(d.tier_structure("positions"), "positions")
        q = lift(d.tier_structure("seedlings"), d.allocation("seedlings"), d.policy)
        r = lift(d.tier_structure("regimes"), d.allocation("regimes"), d.policy)
        d_q = refine(d0, q, is_structure_balanced(q, d0, d.policy), d.policy, tier="seedlings")
        d_r = refine(d0, r, is_structure_balanced(r, d0, d.policy), d.policy, tier="regimes")
        ltr = refine(d_q, r, is_structure_balanced(r, d_q, d.policy), d.policy, tier="regimes")
        dj = joint(d_q, d_r, d.policy)
        assert isinstance(ltr, Decomposition) and isinstance(dj, Decomposition)
        node_sets_match(ltr, dj, tol=1e-9)
        node_sets_match(ltr, res.decomposition, tol=1e-9)


def test_criterion_3_grazing_double():
    with criterion(3, "grazing double randomization, 12 = 12 collapse verified, < 2 s"):
        d, res, seconds = fresh_build("grazing")
        assert seconds < 2.0, f"grazing build took {seconds:.2f}s"
        profile = [(n.label, n.df) for n in res.decomposition.nodes]
        assert profile == [
            ("Mean", 1),
            ("Cows ▷ Availability", 2),
            ("Cows ⊢ paddocks", 12),
            ("Rotations", 3),
            ("Cows#Rotations ▷ Availability#Rotations", 6),
            ("Cows#Rotations ⊢ paddocks", 36),
        ]
        step = d.steps[0]
        inter = step.to_tiers[1]
        alloc = d.intermediate_allocation(inter, step.from_tier)
        qs = d.intermediate_tier_structure(inter)
        rs = d.tier_structure(step.from_tier)
        # both sides of the double randomization have exactly 12 objects
        assert alloc.n_rows == 12 and len(alloc.objects) == 12
        assert qs.n == 12 and rs.n == 12
        rep, placement = check_double(qs, rs, alloc, d.policy)
        assert rep.holds
        assert "Paddocks ▷ Availability = Availability" in rep.witnesses
        assert placement == {
            "Mean": "Mean",
            "Availability": "Paddocks",
            "Rotations": "Paddocks",
            "Availability#Rotations": "Paddocks",
        }
        collapse = [r for r in res.reports if isinstance(r, ConditionReport)]
        assert any(r.condition == "double-randomization collapse" and r.holds for r in collapse)


def test_criterion_4_corn_table():
    with criterion(4, "corn 648-unit table with the full df tree, < 120 s"):
        d, res, seconds = fresh_build("corn")
        assert seconds < 120.0, f"corn build took {seconds:.2f}s"
        tab = layout(res.decomposition, d.tier_order)
        rows = [
            (
                row.df,
                {
                    t: (c.source, c.df)
                    for t in d.tier_order
                    if (c := row.cell_in(t)) is not None
                },
            )
            for row in tab.rows
        ]
        assert len(rows) == 10
        assert rows == [
            (1, {"plates": ("Mean", 1), "lots": ("Mean", 1),
                 "harvesters": ("Mean", 1), "treatments": ("Mean", 1)}),
            (2, {"plates": ("Intervals", 17), "lots": ("Sites", 2)}),
            (3, {"plates": ("Intervals", 17), "lots": ("Blocks[Sites]", 3)}),
            (2, {"plates": ("Intervals", 17), "lots": ("Plots[Blocks∧Sites]", 12),
                 "harvesters": ("Harvesters", 2)}),
            (10, {"plates": ("Intervals", 17), "lots": ("Plots[Blocks∧Sites]", 12),
                  "harvesters": ("Residual", 10)}),
            (2, {"plates": ("Containers[Intervals]", 144),
                 "lots": ("L1[Plots∧Blocks∧Sites]", 144), "treatments": ("Temperature", 2)}),
            (2, {"plates": ("Containers[Intervals]", 144),
                 "lots": ("L1[Plots∧Blocks∧Sites]", 144), "treatments": ("Moistures", 2)}),
            (4, {"plates": ("Containers[Intervals]", 144),
                 "lots": ("L1[Plots∧Blocks∧Sites]", 144),
                 "treatments": ("Temperature#Moistures", 4)}),
            (136, {"plates": ("Containers[Intervals]", 144),
                   "lots": ("L1[Plots∧Blocks∧Sites]", 144), "treatments": ("Residual", 136)}),
            (486, {"plates": ("Plates[Containers∧Intervals]", 486),
                   "lots": ("Lots[Plots∧Blocks∧Sites] ⊢ L1", 486)}),
        ]
        # every cell belongs to a declared tier; there are no intertier rows
        assert sum(df for df, _ in rows) == 648


def test_criterion_5_semilatin_remedy(built):
    with criterion(5, "semi-Latin pseudofactor remedy, four 1/2 factors, residual 10"):
        d = load_design(spec_path("semilatin"))
        lifted = lift(d.tier_structure("treatments"), d.allocation("treatments"), d.policy)
        d0 = Decomposition.from_structure(d.tier_structure("positions"), "positions")
        em = is_structure_balanced(lifted, d0, d.policy)
        assert isinstance(em, EfficiencyMatrix)
        res = built("semilatin")
        halves = {}
        for node in res.decomposition.nodes:
            for entry in node.lineage:
                if entry.efficiency is not None and entry.efficiency.rational == (1, 2):
                    halves[node.label] = entry.efficiency.value
        assert set(halves) == {
            "Altitudes#Benches ▷ Viruses",
            "Altitudes#Benches ▷ VS1",
            "Altitudes#Plants[Benches] ▷ Viruses",
            "Altitudes#Plants[Benches] ▷ VS1",
        }
        assert all(abs(v - 0.5) <= 1e-9 for v in halves.values())
        nodes = {n.label: n for n in res.decomposition.nodes}
        rest = nodes["Altitudes#Plants[Benches] ▷ Viruses#Soils ⊢ VS1"]
        assert rest.df == 4
        assert all(e.efficiency.is_one() for e in rest.lineage if e.efficiency)
        assert nodes["Altitudes#Plants[Benches] ⊢ treatments"].df == 10


def test_criterion_6_independence(built):
    with criterion(6, "independent pair passes all pairwise reports, order immaterial"):
        d = load_design(spec_path("ex2"))
        res = built("ex2")
        conds = [r for r in res.reports if isinstance(r, ConditionReport)]
        assert len(conds) == 3
        for rep in conds:
            assert rep.condition.startswith("adjusted orthogonality within ")
            assert rep.holds
            assert rep.details == {"i": True, "ii": True, "iii": True}
        assert {rep.condition.split("within ")[1] for rep in conds} == {
            "Blocks",
            "Plots[Blocks]",
            "Trees[Plots∧Blocks]",
        }
        swapped = Design(
            dataclasses.replace(d.spec, steps=tuple(reversed(d.spec.steps))), d.main
        )
        node_sets_match(
            res.decomposition, build_decomposition(swapped).decomposition, tol=1e-9
        )


def test_criterion_7_incoherence(capsys):
    with criterion(7, "engineered incoherent allocation: exit 1 and eigenvalue diagnosis"):
        path = str(spec_path("uneven"))
        assert cli_main(["decompose", path]) == 1
        assert cli_main(["diagnose", path]) == 0
        capsys.readouterr()
        report = diagnose_incoherence(load_design(spec_path("uneven")))
        assert report.items
        eigs = {item.node: item.eigenvalues for item in report.items}
        spread = eigs["Plots[Blocks]"]
        nonzero = {v for v, mult in spread if v > 1e-9}
        assert len(nonzero) >= 2, f"expected >= 2 distinct nonzero eigenvalues, got {spread}"


def test_criterion_8_projector_properties(built):
    with criterion(8, "every shipped spec: projector axioms and efficiency column sums"):
        for name in ALL_SPECS:
            d = load_design(spec_path(name))
            units = Decomposition.from_structure(
                d.tier_structure(d.units_tier), d.units_tier
            )
            if name not in COHERENT:
                try:
                    build_decomposition(d)
                except IncoherenceError:
                    pass
                else:
                    raise AssertionError(f"{name} was expected to be incoherent")
                step = d.steps[-1]
                lifted = lift(d.tier_structure(step.from_tier), d.allocation(step.from_tier), d.policy)
                assert isinstance(is_structure_balanced(lifted, units, d.policy), ViolationReport)
                continue
            res = built(name)
            nodes = res.decomposition.nodes
            total = 0
            for node in nodes:
                m = node.projector.matrix
                assert np.max(np.abs(m - m.T)) <= 1e-9, f"{name}:{node.label} not symmetric"
                assert np.max(np.abs(m @ m - m)) <= 1e-9, f"{name}:{node.label} not idempotent"
                total += int(round(np.trace(m)))
            assert total == d.n, f"{name}: traces sum to {total}, not {d.n}"
            for i, a in enumerate(nodes):
                for b in nodes[i + 1 :]:
                    gap = np.max(np.abs(a.projector.matrix @ b.projector.matrix))
                    assert gap <= 1e-9, f"{name}: {a.label} vs {b.label} gap {gap:.2e}"
            for step in d.steps:
                lifted = lift(d.tier_structure(step.from_tier), d.allocation(step.from_tier), d.policy)
                em = is_structure_balanced(lifted, units, d.policy)
                assert isinstance(em, EfficiencyMatrix), f"{name}: {step.describe()}"
                for label, total in em.column_sums().items():
                    assert abs(total - 1.0) <= 1e-9, (
                        f"{name}: column {label} sums to {total!r}"
                    )


def test_criterion_9_oracle_equivalence(design):
    with criterion(9, "brute-force oracle matches the engine on every small spec"):
        assert set(SMALL) == {
            "cherry", "cherry_incoherent", "ex2", "ex2_small",
            "grazing", "minimal", "plant", "rcbd16", "semilatin",
        }
        for name in SMALL:
            report = cross_check(design(name), tol=1e-7)
            assert report.ok, f"{name}: oracle mismatch\n{report.render_text()}"
