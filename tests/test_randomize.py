"""The build loop: step plumbing, pair conditions, and incoherence reporting."""

import dataclasses
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

import gen
from conftest import ALL_SPECS, COHERENT, DESIGNS, block_designs, spec_path, write_block_design
from tierdecomp import (
    STEP_KINDS,
    AllocationMap,
    BuildError,
    Decomposition,
    IncoherenceError,
    Projector,
    RandomizationStep,
    Structure,
    build_decomposition,
    check_adjusted_orthogonality,
    check_double,
    cli_main,
    cross_check,
    diagnose_incoherence,
    efficiency,
    is_structure_balanced,
    layout,
    lift,
    load_design,
    render,
)
from tierdecomp import formula, projlin, randomize, structure
from tierdecomp.speccli import Design
from tierdecomp.projlin import span
from tierdecomp.structure import InternalInconsistencyError, refine


class TestRandomizationStep:
    def test_known_kinds(self):
        assert set(STEP_KINDS) == {
            "simple",
            "composed",
            "randomized_inclusive",
            "unrandomized_inclusive",
            "independent",
            "coincident",
            "double",
        }

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown randomization kind"):
            RandomizationStep(kind="sideways", from_tier="a", to_tiers=("b",))

    def test_double_needs_two_targets(self):
        with pytest.raises(ValueError, match="2 target"):
            RandomizationStep(kind="double", from_tier="a", to_tiers=("b",))
        with pytest.raises(ValueError, match="1 target"):
            RandomizationStep(kind="simple", from_tier="a", to_tiers=("b", "c"))

    def test_describe(self):
        step = RandomizationStep(kind="double", from_tier="t", to_tiers=("u", "p"))
        assert step.describe() == "t -> u,p (double)"


class TestBuildOnDesigns:
    def test_cherry_leaf_profile(self, built):
        d = built("cherry").decomposition
        profile = [(n.origin_source, n.df) for n in d.nodes]
        assert profile == [
            ("Mean", 1),
            ("Blocks", 2),
            ("Trees[Blocks]", 4),
            ("Trees[Blocks]", 5),
            ("Trees[Blocks]", 4),
            ("Trees[Blocks]", 14),
        ]

    def test_cherry_efficiencies(self, built):
        d = built("cherry").decomposition
        effs = []
        for node in d.nodes:
            for entry in node.lineage:
                if entry.op == "sweep" and entry.efficiency is not None:
                    if not entry.efficiency.is_one():
                        effs.append(entry.efficiency.rational)
        assert effs == [(1, 6), (5, 6)]

    def test_grazing_collapsed_lineage(self, built):
        d = built("grazing").decomposition
        two_cell = [
            entry
            for node in d.nodes
            for entry in node.lineage
            if entry.op == "sweep" and len(entry.cells) == 2
        ]
        # Mean plus the three treatment sources, each shown under the
        # intermediate tier and the treatments tier at once
        assert len(two_cell) == 4
        for entry in two_cell:
            tiers = [tier for tier, _, _ in entry.cells]
            assert tiers == ["paddocks", "treatments"]

    def test_step_waiting_on_unincorporated_tier_runs_late(self, design, built):
        # move the harvesters step to the front: its target tier (lots) is
        # not incorporated yet, so the build must hold it back until the
        # coincident pair has run
        corn = design("corn")
        assert [s.kind for s in corn.steps] == ["coincident", "coincident", "composed"]
        reordered = Design(
            dataclasses.replace(corn.spec, steps=(corn.spec.steps[2],) + corn.spec.steps[:2]),
            corn.main,
        )
        res = build_decomposition(reordered)
        reference = built("corn").decomposition
        assert sorted(n.df for n in res.decomposition.nodes) == sorted(
            n.df for n in reference.nodes
        )

    def test_dangling_target_rejected(self, design):
        rcbd = design("rcbd16")
        ghost = RandomizationStep(kind="simple", from_tier="treatments", to_tiers=("ghost",))
        broken = Design(
            dataclasses.replace(rcbd.spec, steps=(ghost,)),
            rcbd.main,
        )
        with pytest.raises(BuildError, match="never run"):
            build_decomposition(broken)


class TestIncoherence:
    def test_build_raises_with_report(self, design):
        with pytest.raises(IncoherenceError) as err:
            build_decomposition(design("uneven"))
        text = err.value.report.summary()
        assert "destroys part of the field decomposition" in text
        assert "QPQ eigenvalues" in text

    def test_diagnose_collects_without_raising(self, design):
        report = diagnose_incoherence(design("uneven"))
        assert report
        assert len(report.items) == 2
        by_node = {item.node: item for item in report.items}
        assert set(by_node) == {"Blocks", "Plots[Blocks]"}
        eigs = by_node["Plots[Blocks]"].eigenvalues
        assert [(round(v, 9), m) for v, m in eigs] == [(1.0, 1), (0.75, 2)]
        assert by_node["Blocks"].suggestion.startswith("merge sources")

    def test_diagnose_is_empty_for_coherent_designs(self, design):
        report = diagnose_incoherence(design("cherry"))
        assert not report
        assert report.items == []


def nested_paddocks_grazing(dest):
    """grazing with its paddocks tier declared Fields/Paddocks, 3 x 4: row i
    of the paddocks table, in file order, gets field f{i % 3 + 1} and paddock
    q{i // 3 + 1}, and the units table's paddocks are relabelled to match.
    The collapse fails for Availability and Availability#Rotations."""
    spec = DESIGNS / "grazing.spec"
    text = spec.read_text().replace(
        "  factor Paddocks 12\n  formula Paddocks\n",
        "  factor Fields 3\n  factor Paddocks 4\n  formula Fields/Paddocks\n",
    )
    (dest / "grazing.spec").write_text(text)
    head, *rows = (DESIGNS / "grazing_paddocks.csv").read_text().splitlines()
    j = head.split(",").index("Paddocks")
    relabel, lines = {}, [f"Fields,{head}"]
    for i, row in enumerate(r.split(",") for r in rows):
        relabel[row[j]] = row[j] = f"q{i // 3 + 1}"
        lines.append(f"f{i % 3 + 1}," + ",".join(row))
    (dest / "grazing_paddocks.csv").write_text("\n".join(lines) + "\n")
    head, *rows = (DESIGNS / "grazing.csv").read_text().splitlines()
    k = head.split(",").index("Paddocks")
    lines = [head]
    for row in (r.split(",") for r in rows):
        row[k] = relabel[row[k]]
        lines.append(",".join(row))
    (dest / "grazing.csv").write_text("\n".join(lines) + "\n")
    return dest / "grazing.spec"


def fertilizers_from_rootstocks(dest):
    """ex2 with Fertilizers set from Rootstocks, f1 for r1 and r2 and f2
    otherwise: the two randomizations are not independent."""
    shutil.copy(DESIGNS / "ex2.spec", dest)
    head, *rows = (DESIGNS / "ex2.csv").read_text().splitlines()
    r, f = head.split(",").index("Rootstocks"), head.split(",").index("Fertilizers")
    lines = [head]
    for row in (line.split(",") for line in rows):
        row[f] = "f1" if row[r] in ("r1", "r2") else "f2"
        lines.append(",".join(row))
    (dest / "ex2.csv").write_text("\n".join(lines) + "\n")
    return dest / "ex2.spec"


def crossed_coincident_pair(dest):
    """A coincident pair on units Blocks/Plots, 2 x 4, with A = 1, 1, 2, 2
    and B = 1, 2, 1, 2 in each block: Plots[Blocks] meets both A and B."""
    lines = [
        "design coin",
        "units plots",
        "tier plots",
        "  factor Blocks 2",
        "  factor Plots 4",
        "  formula Blocks/Plots",
        "tier a",
        "  factor A 2",
        "  formula A",
        "tier b",
        "  factor B 2",
        "  formula B",
        "randomize a -> plots type coincident",
        "randomize b -> plots type coincident",
        "allocation csv coin.csv",
    ]
    (dest / "coin.spec").write_text("\n".join(lines) + "\n")
    cells = [(1, 1), (1, 2), (2, 1), (2, 2)]
    rows = [f"k{k},p{p},a{a},b{b}" for k in (1, 2) for p, (a, b) in enumerate(cells, 1)]
    (dest / "coin.csv").write_text("\n".join(["Blocks,Plots,A,B"] + rows) + "\n")
    return dest / "coin.spec"


PAIR_FAILURES = {
    "double": (
        nested_paddocks_grazing,
        "step treatments -> cows,paddocks (double): Availability does not sit inside a single "
        "intermediate source (candidates: none) vs paddocks & treatments [double]; suggestion: "
        "redesign the randomization\n"
        "  step treatments -> cows,paddocks (double): Availability#Rotations does not sit inside "
        "a single intermediate source (candidates: none) vs paddocks & treatments [double]; "
        "suggestion: redesign the randomization",
    ),
    "independent": (
        fertilizers_from_rootstocks,
        "step rootstocks -> trees (independent): Plots[Blocks] vs rootstocks & fertilizers "
        "[adjusted-orthogonality]; destroys part of the trees decomposition; suggestion: the two "
        "randomizations are not independent",
    ),
    "coincident": (
        crossed_coincident_pair,
        "step a -> plots (coincident) + b -> plots (coincident): Plots[Blocks] meets A and B but "
        "neither sweep returns it whole vs a & b [coincident]; suggestion: redesign the randomization",
    ),
}


@pytest.mark.parametrize("kind", sorted(PAIR_FAILURES))
def test_a_failed_pair_condition_reports_only_its_failing_nodes(tmp_path, capsys, kind):
    make, items = PAIR_FAILURES[kind]
    assert cli_main(["decompose", str(make(tmp_path))]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"randomizations are incoherent:\n  {items}\n"


def incoherent_spec(name, dest):
    """The shipped ``uneven`` bundle, or the benchmark's cyclic design (v = 96)."""
    return spec_path(name) if name == "uneven" else gen.write("cyclic", 96, 1, dest)


@pytest.mark.parametrize("name", ["uneven", "cyclic"])
class TestDiagnoseFromTheFailedCheck:
    def test_each_step_lifts_once(self, monkeypatch, tmp_path, name):
        design = load_design(incoherent_spec(name, tmp_path))
        tiers = []

        def counted(structure_, alloc, policy):
            tiers.append(alloc.tier)
            return lift(structure_, alloc, policy)

        monkeypatch.setattr(randomize, "lift", counted)
        assert diagnose_incoherence(design)
        assert tiers == [step.from_tier for step in design.steps]

    def test_explicit_source_merge_reads_the_stored_blocks(self, monkeypatch, tmp_path, name):
        # neither the node results nor the pooled Gram may be recomputed, for
        # an explicit or an implicit source: both read the check's row products
        def forbidden(p, q, *args, **kwargs):
            raise AssertionError(f"efficiency recomputed against {q.label}")

        for module in (randomize, structure):
            if hasattr(module, "efficiency"):
                monkeypatch.setattr(module, "efficiency", forbidden)
        report = diagnose_incoherence(load_design(incoherent_spec(name, tmp_path)))
        first_order = [it for it in report.items if it.kind == "first-order"]
        assert first_order
        assert all(
            it.suggestion == "merge sources Blocks, Plots[Blocks] into one stratum"
            for it in first_order
        )


def test_each_step_checks_balance_once_and_refines_from_that_check(monkeypatch, tmp_path):
    # every coherent shipped build and both incoherent diagnoses: no
    # (structure, decomposition) pair is checked twice, refine checks
    # nothing itself, and no pair is tested on its own with ``efficiency``
    checked, refining = [], []
    original_check, original_refine = structure.is_structure_balanced, structure.refine

    def counted_check(s, against, *args, **kwargs):
        assert not refining, "refine computed a balance"
        assert not any(s is a and against is b for a, b in checked), "pair checked twice"
        checked.append((s, against))
        return original_check(s, against, *args, **kwargs)

    def counted_refine(*args, **kwargs):
        refining.append(True)
        try:
            return original_refine(*args, **kwargs)
        finally:
            refining.pop()

    def no_efficiency(p, q, *args, **kwargs):
        raise AssertionError(f"efficiency({p.label}, {q.label}) called")

    for module in (structure, randomize):
        monkeypatch.setattr(module, "is_structure_balanced", counted_check)
        monkeypatch.setattr(module, "refine", counted_refine)
        if hasattr(module, "efficiency"):
            monkeypatch.setattr(module, "efficiency", no_efficiency)
    for name in COHERENT:
        checked.clear()
        design = load_design(spec_path(name))
        build_decomposition(design)
        assert len(checked) >= len(design.steps), name
    for name in ("uneven", "cyclic"):
        checked.clear()
        assert diagnose_incoherence(load_design(incoherent_spec(name, tmp_path)))
        assert checked, name


def test_no_child_basis_is_grammed_again(monkeypatch, tmp_path):
    # a sweep is checked from its step's balance result, the sweeps of one
    # node together in ``residual``, and a residual is held by its node's
    # sides, each checked already: no U'U of a sweep or a residual is
    # formed, but for the sweeps' own Gram, which ``residual`` holds to I
    # with ``family_gram``
    original, original_family = projlin.cross, structure.family_gram
    grammed, in_family = [], []

    def recorded(p, xs):
        if not in_family and any(x is p for x in xs):
            grammed.append(p.label)
        return original(p, xs)

    def family(*args, **kwargs):
        in_family.append(True)
        try:
            return original_family(*args, **kwargs)
        finally:
            in_family.pop()

    for module in (projlin, structure, formula, randomize):
        if getattr(module, "cross", None) is original:
            monkeypatch.setattr(module, "cross", recorded)
    monkeypatch.setattr(structure, "family_gram", family)
    for spec in [spec_path(name) for name in ALL_SPECS] + [gen.write("lattice", 13, 1, tmp_path)]:
        design = load_design(spec)
        if spec.stem == "uneven":  # incoherent: diagnosed, not built
            assert diagnose_incoherence(design)
        else:
            build_decomposition(design)
    assert not [label for label in grammed if "▷" in label or "⊢" in label]


def test_the_balance_check_forms_each_row_product_once(monkeypatch, tmp_path):
    # c = V'S comes from one cross per side basis and an implicit row's S'PS
    # is I - c'c, since S'S = I: the check forms no family Gram and no
    # bilinear form besides
    checking, called = [], []
    original_check = structure.is_structure_balanced

    def counted_check(*args, **kwargs):
        checking.append(True)
        try:
            return original_check(*args, **kwargs)
        finally:
            checking.pop()

    def recorded(fn):
        def wrapper(*args, **kwargs):
            if checking:
                called.append(fn.__name__)
            return fn(*args, **kwargs)

        return wrapper

    for module in (structure, randomize):
        monkeypatch.setattr(module, "is_structure_balanced", counted_check)
    for name in ("family_gram", "bilinear_of"):
        original = getattr(projlin, name)
        for module in (projlin, structure, formula, randomize):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, recorded(original))
    for spec in [spec_path(name) for name in ALL_SPECS] + [gen.write("lattice", 13, 1, tmp_path)]:
        design = load_design(spec)
        if spec.stem == "uneven":  # incoherent: diagnosed, not built
            assert diagnose_incoherence(design)
        else:
            build_decomposition(design)
    assert not called


def test_the_implicit_source_is_classified_from_the_row_product(monkeypatch):
    # an implicit source Q = I - SS', S the structure's explicit sources, is
    # classified from I - G, G = S'PS the check's row product (df_S x df_S),
    # and from no second product on P's side
    grams, seen = [], []
    original_gram, original_classify = structure._row_gram, structure._classify

    def recorded_gram(p, c):
        grams.append(original_gram(p, c))
        return grams[-1]

    def recorded_classify(p_label, p_df, q, gram, policy, ones=0):
        if q.implicit:
            df_s = sum(x.df for x in q.parts)
            assert gram.shape == grams[-1].shape == (df_s, df_s), (p_label, q.label)
            assert np.array_equal(gram, np.eye(df_s) - grams[-1]), (p_label, q.label)
            seen.append(q.label)
        return original_classify(p_label, p_df, q, gram, policy, ones)

    monkeypatch.setattr(structure, "_row_gram", recorded_gram)
    monkeypatch.setattr(structure, "_classify", recorded_classify)
    for name in ("corn", "plant"):
        seen.clear()
        build_decomposition(load_design(spec_path(name)))
        assert seen, name


def test_adjusted_orthogonality_forms_one_bilinear_per_condition(monkeypatch):
    # condition (ii) reads every Q P R from one X'PY of the stacked bases,
    # and (iii) takes one more: at most two bilinear forms per node
    per_check, original_check = [], randomize.check_adjusted_orthogonality
    original_bilinear = randomize.bilinear_of

    def counted_check(*args, **kwargs):
        per_check.append(0)
        return original_check(*args, **kwargs)

    def counted_bilinear(*args, **kwargs):
        per_check[-1] += 1
        return original_bilinear(*args, **kwargs)

    monkeypatch.setattr(randomize, "check_adjusted_orthogonality", counted_check)
    monkeypatch.setattr(randomize, "bilinear_of", counted_bilinear)
    for name in ("ex2", "ex2_small"):
        per_check.clear()
        build_decomposition(load_design(spec_path(name)))
        assert per_check and max(per_check) <= 2, (name, per_check)


def test_adjusted_orthogonality_reads_the_first_refinements_sweeps(monkeypatch):
    # condition (i) takes P's sweeps from the first refinement of the pair
    # and builds none of them again
    inside, swept = [], []
    original_check, original_sweep = randomize.check_adjusted_orthogonality, structure.sweep

    def counted_check(*args, **kwargs):
        inside.append(True)
        try:
            return original_check(*args, **kwargs)
        finally:
            inside.pop()

    def recorded_sweep(p, q, *args, **kwargs):
        if inside:
            swept.append(f"{p.label} ▷ {q.label}")
        return original_sweep(p, q, *args, **kwargs)

    monkeypatch.setattr(randomize, "check_adjusted_orthogonality", counted_check)
    for module in (structure, randomize):
        monkeypatch.setattr(module, "sweep", recorded_sweep, raising=False)
    for name in ("ex2", "ex2_small"):
        reports = build_decomposition(load_design(spec_path(name))).reports
        adjusted = [r for r in reports if r.condition.startswith("adjusted orthogonality")]
        assert adjusted and all(r.holds for r in adjusted), name
    assert not swept


def direct_suggestion(design, items):
    """The merge suggestion of each first-order source of a one-step design's
    report, recomputed from a fresh lift with ``efficiency``, the pooled
    stratum taken as one projector on the pooled nodes' stacked bases."""
    (step,) = design.steps
    policy = design.policy
    d = Decomposition.from_structure(design.units_structure(), design.units_tier)
    lifted = lift(design.tier_structure(step.from_tier), design.allocation(step.from_tier), policy)
    out = {}
    for q in lifted.elements:
        failing = {it.node for it in items if it.sources == (q.label,)}
        if not failing:
            continue
        for node in d.nodes:
            res = efficiency(node.projector, q, policy)
            if res.efficiency is not None and not res.efficiency.is_zero():
                failing.add(node.label)
        pooled = np.hstack([span(n.projector.explicit()) for n in d.nodes if n.label in failing])
        try:
            ok = efficiency(Projector.from_basis(pooled, "pooled"), q, policy).ok
        except InternalInconsistencyError:
            ok = False
        names = ", ".join(sorted(failing))
        out[q.label] = f"merge sources {names} into one stratum" if ok else "redesign the randomization"
    return out


@given(block_designs())
@settings(max_examples=40, derandomize=True, database=None, deadline=None)
def test_stored_block_suggestions_match_a_direct_pooled_test(case):
    with tempfile.TemporaryDirectory() as tmp:
        design = load_design(write_block_design(Path(tmp), case))
        items = [it for it in diagnose_incoherence(design).items if it.kind == "first-order"]
        want = direct_suggestion(design, items)
    assert {it.sources[0]: it.suggestion for it in items} == want


def factor_structure(ids, label, n):
    """Mean plus the centred group-average source for one partition."""
    ids = np.asarray(ids)
    x = np.zeros((n, ids.max() + 1))
    x[np.arange(n), ids] = 1.0
    avg = x @ np.diag(1.0 / x.sum(axis=0)) @ x.T
    mean = np.full((n, n), 1.0 / n)
    elements = [
        Projector.validated(mean, "Mean"),
        Projector.validated(avg - mean, label),
    ]
    return Structure(
        elements=elements,
        total=Projector.validated(avg, f"{label} span"),
        space_label=label.lower(),
    )


def sweeps_within(p, qs):
    """P's sweeps in the refinement by ``qs`` of the decomposition {Mean, P} of R^4."""
    mean = Projector.validated(np.full((4, 4), 0.25), "Mean")
    whole = Structure(elements=[mean, p], total=Projector.validated(np.eye(4), "all"))
    d = Decomposition.from_structure(whole, "whole")
    d1 = refine(d, qs, is_structure_balanced(qs, d))
    swept = [n for n in d1.nodes if n.origin_source == p.label and n.lineage]
    return [n.projector for n in swept if n.lineage[-1].op == "sweep"]


class TestAdjustedOrthogonality:
    def test_holds_for_orthogonal_partitions(self):
        # rows and columns of a 2x2 grid
        qs = factor_structure([0, 0, 1, 1], "Rows", 4)
        rs = factor_structure([0, 1, 0, 1], "Cols", 4)
        p = Projector.validated(np.eye(4) - np.full((4, 4), 0.25), "P")
        rep = check_adjusted_orthogonality(p, qs, rs, sweeps_within(p, qs))
        assert rep.holds
        assert rep.details == {"i": True, "ii": True, "iii": True}

    def test_disagreeing_formulations_exit_2_at_the_cli(self, monkeypatch, capsys):
        # corrupt only formulation (i): every sweep now seems to meet the
        # other structure's span while (ii) and (iii) still hold
        monkeypatch.setattr(randomize, "project", lambda p, x: np.ones((p.n, x.shape[1])))
        assert cli_main(["decompose", str(spec_path("ex2_small"))]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: adjusted-orthogonality formulations disagree")
        assert err.count("\n") == 1

    def test_fails_for_entangled_partitions(self):
        qs = factor_structure([0, 0, 1, 1], "Rows", 4)
        rs = factor_structure([0, 0, 1, 1], "Copy", 4)
        p = Projector.validated(np.eye(4) - np.full((4, 4), 0.25), "P")
        rep = check_adjusted_orthogonality(p, qs, rs, sweeps_within(p, qs))
        assert not rep.holds
        assert rep.witnesses


class TestCheckDouble:
    def test_size_mismatch_is_an_error(self):
        qs = factor_structure([0, 0, 1, 1, 2], "Inter", 5)
        rs = factor_structure([0, 0, 1, 1], "From", 4)
        alloc = AllocationMap(tier="from", objects=list(range(4)), assignment=[0, 1, 2, 3])
        with pytest.raises(BuildError, match="equally many objects"):
            check_double(qs, rs, alloc)

    def test_collapse_verified_on_grazing(self, design):
        grazing = design("grazing")
        step = grazing.steps[0]
        inter = step.to_tiers[1]
        qs = grazing.intermediate_tier_structure(inter)
        rs = grazing.tier_structure(step.from_tier)
        alloc = grazing.intermediate_allocation(inter, step.from_tier)
        rep, placement = check_double(qs, rs, alloc)
        assert rep.holds
        # every treatment source lands inside the single paddocks source
        assert placement == {
            "Mean": "Mean",
            "Availability": "Paddocks",
            "Rotations": "Paddocks",
            "Availability#Rotations": "Paddocks",
        }

    def test_one_complement_per_double_step(self, monkeypatch):
        # the collapse check and the r = 5 lift onto the cows share the
        # implicit treatments source's complement, taken once on its tier
        calls = []
        original = Projector._complement_basis

        def counted(self):
            if self._parts:
                calls.append((self.label, self.n))
            return original(self)

        monkeypatch.setattr(Projector, "_complement_basis", counted)
        build_decomposition(load_design(spec_path("grazing")))
        assert calls == [("Availability#Rotations", 12)]

    def test_straddling_source_fails_the_collapse(self):
        # the lifted H contrast (+,-,+,-) is orthogonal to the G source
        # (+,+,-,-), so it sits in no single intermediate source
        qs = factor_structure([0, 0, 1, 1], "G", 4)
        rs = factor_structure([0, 1, 0, 1], "H", 4)
        alloc = AllocationMap(tier="from", objects=list(range(4)), assignment=[0, 1, 2, 3])
        rep, _ = check_double(qs, rs, alloc)
        assert not rep.holds
        assert any("does not sit inside" in w for w in rep.witnesses)

    def test_matching_source_passes_the_collapse(self):
        qs = factor_structure([0, 0, 1, 1], "G", 4)
        rs = factor_structure([0, 0, 1, 1], "H", 4)
        alloc = AllocationMap(tier="from", objects=list(range(4)), assignment=[0, 1, 2, 3])
        rep, placement = check_double(qs, rs, alloc)
        assert rep.holds
        assert placement == {"Mean": "Mean", "H": "G"}


class TestOrderInvariance:
    def test_independent_pair_commutes(self, design, built):
        ex2 = design("ex2")
        res = built("ex2")
        swapped = Design(
            dataclasses.replace(ex2.spec, steps=tuple(reversed(ex2.spec.steps))),
            ex2.main,
        )
        res_swapped = build_decomposition(swapped)
        match_node_sets(res.decomposition, res_swapped.decomposition)

    def test_coincident_pair_declared_in_reverse_takes_the_swapped_route(
        self, design, built
    ):
        # plant's special case holds with seedlings first; declared the other
        # way round, the pair refines in swapped order and says so
        plant = design("plant")
        res = built("plant")
        swapped = Design(
            dataclasses.replace(plant.spec, steps=tuple(reversed(plant.spec.steps))),
            plant.main,
        )
        res_swapped = build_decomposition(swapped)
        assert [rep.route for rep in res_swapped.reports] == ["swapped"]
        note = (
            "coincident pair (regimes, seedlings): special case holds after "
            "swapping; refined in swapped order"
        )
        assert res.diagnostics == []
        assert res_swapped.diagnostics == [note]
        match_node_sets(res.decomposition, res_swapped.decomposition)

        def text(result):
            table = layout(result.decomposition, plant.tier_order, footnotes=result.diagnostics)
            return render(table, fmt="text").decode()

        assert text(res_swapped) == text(res) + f"notes:\n  (1) {note}\n"
        report = cross_check(swapped)
        assert report.ok
        assert len(report.checks) == 5


def match_node_sets(a: Decomposition, b: Decomposition, tol=1e-9):
    """Every projector of ``a`` appears in ``b`` exactly once, and vice versa."""
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
    assert not remaining
