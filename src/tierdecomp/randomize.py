"""Randomization steps: per-kind coherence checks and the build loop.

Each step carries one tier's structure onto the observational units and
refines the running decomposition, gated by a structure-balance check.
Every step reads the same way: lift (``_lift_tier``, which also records
the lift's notices), one balance check per (structure, decomposition)
pair (``_balance``, which raises the incoherence report when it fails),
the pair condition, and ``refine`` from that check's EfficiencyMatrix.
The pair conditions read the same matrices; nothing computes a balance
a second time.  The step kind decides which extra conditions are
verified first:

* ``simple`` / ``composed`` / ``randomized_inclusive`` /
  ``unrandomized_inclusive``: plain gated refinement.  Inclusive steps need
  no special mechanics here because declared pseudofactors already sit in
  the tier's poset, and a chain of composed randomizations is handled by
  processing each step once its target tier has been incorporated.
* ``independent``: steps come in pairs aimed at the same tier.  After the
  first refinement, the adjusted-orthogonality conditions are verified for
  every non-Mean element of the prior decomposition; the three equivalent
  formulations are all evaluated and must agree.  Independence itself is a
  property of the randomization procedure, not of one outcome, so what is
  checked (and all that can be checked) is its algebraic footprint.
* ``coincident``: paired like independent steps.  When the special
  condition holds for the declared order (or the swapped one), refinement
  proceeds in that order; when only the general condition holds, the joint
  decomposition of the two one-sided refinements is emitted with a notice.
* ``double``: one tier randomized to two others at once.  The structure on
  the intermediate tier is collapsed onto the lifted from-tier structure
  (element by element, sizes equal), and the collapsed structure refines
  the decomposition from the right.

Any balance or condition failure aborts the build with an incoherence
report naming the step, the clashing sources, and the offending spectra.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .projlin import (
    DEFAULT_POLICY,
    EfficiencyRangeError,
    Projector,
    TolerancePolicy,
    bilinear_of,
    project,
    span,
)
from .structure import (
    AllocationMap,
    Decomposition,
    EfficiencyMatrix,
    InternalInconsistencyError,
    Structure,
    ViolationReport,
    _block_norms,
    beyond_rounding,
    _elements_of,
    is_structure_balanced,
    joint,
    lift,
    refine,
)

__all__ = [
    "RandomizationStep",
    "STEP_KINDS",
    "ConditionReport",
    "CoincidentReport",
    "check_adjusted_orthogonality",
    "check_coincident",
    "check_double",
    "IncoherenceItem",
    "IncoherenceReport",
    "IncoherenceError",
    "BuildError",
    "BuildResult",
    "build_decomposition",
    "diagnose_incoherence",
]

STEP_KINDS = (
    "simple",
    "composed",
    "randomized_inclusive",
    "unrandomized_inclusive",
    "independent",
    "coincident",
    "double",
)

_PAIRED_KINDS = ("independent", "coincident")


@dataclass(frozen=True)
class RandomizationStep:
    kind: str
    from_tier: str
    to_tiers: tuple

    def __post_init__(self) -> None:
        if self.kind not in STEP_KINDS:
            raise ValueError(f"unknown randomization kind {self.kind!r}")
        want = 2 if self.kind == "double" else 1
        if len(self.to_tiers) != want:
            raise ValueError(
                f"{self.kind} step must name {want} target tier(s), "
                f"got {len(self.to_tiers)}"
            )

    def describe(self) -> str:
        return f"{self.from_tier} -> {','.join(self.to_tiers)} ({self.kind})"


@dataclass
class ConditionReport:
    condition: str
    holds: bool
    witnesses: list = field(default_factory=list)
    details: dict = field(default_factory=dict)

    def summary(self) -> str:
        state = "holds" if self.holds else "FAILS"
        text = f"{self.condition}: {state}"
        for w in self.witnesses:
            text += f"\n  {w}"
        return text


@dataclass
class CoincidentReport:
    general: ConditionReport
    special_as_given: ConditionReport
    special_swapped: ConditionReport
    route: str = ""  # filled by the build: "left-to-right", "swapped", "joint"


class BuildError(RuntimeError):
    """The step plan cannot be executed (dangling target, missing partner...)."""


@dataclass(frozen=True)
class IncoherenceItem:
    step: str
    kind: str  # "first-order", "distinctness", "adjusted-orthogonality", "coincident", "double"
    node: str
    sources: tuple
    norm: float
    eigenvalues: tuple = ()
    destroyed_tier: str = ""
    suggestion: str = ""


@dataclass
class IncoherenceReport:
    items: list = field(default_factory=list)

    def __bool__(self) -> bool:
        return bool(self.items)

    def summary(self) -> str:
        if not self.items:
            return "no incoherence detected"
        lines = ["randomizations are incoherent:"]
        for it in self.items:
            line = f"  step {it.step}: {it.node} vs {' & '.join(it.sources)} [{it.kind}]"
            if it.eigenvalues:
                eigs = ", ".join(f"{v:.6g} (x{m})" for v, m in it.eigenvalues)
                line += f"; QPQ eigenvalues {eigs}"
            if it.destroyed_tier:
                line += f"; destroys part of the {it.destroyed_tier} decomposition"
            if it.suggestion:
                line += f"; suggestion: {it.suggestion}"
            lines.append(line)
        return "\n".join(lines)


class IncoherenceError(RuntimeError):
    def __init__(self, report: IncoherenceReport):
        super().__init__(report.summary())
        self.report = report


@dataclass
class BuildResult:
    decomposition: Decomposition
    diagnostics: list
    reports: list


def check_adjusted_orthogonality(
    p: Projector,
    qs: Structure,
    rs: Structure,
    sweeps: list,
    policy: TolerancePolicy = DEFAULT_POLICY,
) -> ConditionReport:
    """Verify the three equivalent adjusted-orthogonality conditions inside P.

    (i) every sweep of P by a Q is orthogonal to the whole of rs,
    (ii) Q P R = 0 for every pair, and (iii) I_Q P I_R = 0.  They are
    provably equivalent, so the three verdicts must agree; disagreement can
    only mean numerical breakdown and raises InternalInconsistencyError.
    ``sweeps`` are P's sweeps by ``qs`` as the first refinement of the pair
    made them, from its balance check, which found every pair balanced;
    (i) reads them and builds none.
    """
    witnesses = []

    cond_i = True
    for swept in sweeps:
        gap = np.linalg.norm(project(rs.total, span(swept.explicit())))
        if gap > policy.tol_zero:
            cond_i = False
            witnesses.append(
                f"({swept.label}) meets the {rs.space_label} span (norm {gap:.3e})"
            )

    # every Q P R at once: one X'PY for the stacked bases of qs and of rs,
    # cut into its (Q, R) blocks
    q_bases, r_bases = [q.explicit() for q in qs.elements], [r.explicit() for r in rs.elements]
    norms = _block_norms(bilinear_of(q_bases, p, r_bases), q_bases, r_bases)
    cond_ii = True
    for i, q in enumerate(qs.elements):
        for j, r in enumerate(rs.elements):
            gap = norms[i, j]
            if gap > policy.tol_zero:
                cond_ii = False
                witnesses.append(
                    f"{q.label} . {p.label} . {r.label} != 0 (norm {gap:.3e})"
                )

    gap_iii = np.linalg.norm(bilinear_of([qs.total.explicit()], p, [rs.total.explicit()]))
    cond_iii = gap_iii <= policy.tol_zero
    if not cond_iii:
        witnesses.append(f"I_Q . {p.label} . I_R != 0 (norm {gap_iii:.3e})")

    if not (cond_i == cond_ii == cond_iii):
        raise InternalInconsistencyError(
            "adjusted-orthogonality formulations disagree for "
            f"{p.label} ({cond_i}/{cond_ii}/{cond_iii}); numerical instability"
        )
    return ConditionReport(
        condition=f"adjusted orthogonality within {p.label}",
        holds=cond_i,
        witnesses=witnesses,
        details={"i": cond_i, "ii": cond_ii, "iii": cond_iii},
    )


def check_coincident(
    against,
    qs: Structure,
    rs: Structure,
    balances: tuple,
    policy: TolerancePolicy = DEFAULT_POLICY,
) -> CoincidentReport:
    """Evaluate the coincident-randomization conditions against ``against``.

    General condition: whenever an element P meets both a Q and an R, one of
    the sweeps must give back P whole.  Special condition (per assignment):
    whenever P meets a Q and the span of the other structure, the Q-sweep
    must give back P whole.  ``balances`` holds the EfficiencyMatrix of
    ``qs`` and of ``rs`` against ``against`` (a Decomposition or a
    Structure), from the checks that found both structure balanced; every
    verdict is read from them.

    A sweep gives back P whole exactly when P and Q are balanced with
    lam > 0 and df_P = df_Q (C is then square and invertible); P meets the
    span of a structure exactly when it meets one of its elements.
    """
    ps = _elements_of(against)
    q_res, r_res = (em.results for em in balances)

    def meets(p, q, results) -> bool:
        return results[(p.label, q.label)].lam > policy.tol_zero

    def full(p, q, results) -> bool:
        res = results[(p.label, q.label)]
        return res.ok and res.lam > policy.tol_zero and p.df == q.df

    general = ConditionReport(condition="coincident general condition", holds=True)
    for p in ps:
        for q in qs.elements:
            if not meets(p, q, q_res):
                continue
            for r in rs.elements:
                if not meets(p, r, r_res):
                    continue
                if full(p, q, q_res) or full(p, r, r_res):
                    general.witnesses.append(
                        f"{p.label}: fully swept by {q.label} or {r.label}"
                    )
                    continue
                general.holds = False
                general.witnesses.append(
                    f"{p.label} meets {q.label} and {r.label} but neither sweep "
                    "returns it whole"
                )

    def special(first, first_res, second, second_res, name) -> ConditionReport:
        rep = ConditionReport(condition=name, holds=True)
        for p in ps:
            if not any(meets(p, r, second_res) for r in second.elements):
                continue
            for q in first.elements:
                if not meets(p, q, first_res):
                    continue
                if full(p, q, first_res):
                    rep.witnesses.append(f"{p.label} ▷ {q.label} = {p.label}")
                else:
                    rep.holds = False
                    rep.witnesses.append(
                        f"{p.label} meets {q.label} and the {second.space_label} "
                        "span, but the sweep does not return it whole"
                    )
        return rep

    return CoincidentReport(
        general=general,
        special_as_given=special(qs, q_res, rs, r_res, "coincident special case (as declared)"),
        special_swapped=special(rs, r_res, qs, q_res, "coincident special case (swapped)"),
    )


def check_double(
    qs: Structure,
    rs: Structure,
    g_alloc: AllocationMap,
    policy: TolerancePolicy = DEFAULT_POLICY,
):
    """Verify that the intermediate structure collapses onto the lifted one.

    ``qs`` lives on the intermediate tier's objects, ``rs`` on the from
    tier's objects, and ``g_alloc`` maps intermediate objects to from-tier
    objects.  Requires equal object counts; then every element of the lifted
    ``rs`` must sit inside exactly one element of ``qs`` and account for all
    of it, i.e. refining ``qs`` by the lifted structure reproduces the lifted
    structure element by element.  Both structures are complete on equally
    many objects, so their df sums agree and the lifted one exhausts the
    intermediate tier.

    Returns (report, placement) where placement maps each rs element label to
    the label of the qs element it sits in.  A home test whose gap
    ||QU_r - U_r|| exceeds tol_idem but not its rounding on the n tier
    objects (``structure.beyond_rounding``) gives no verdict.
    """
    n_inter = qs.n
    n_from = rs.n
    if n_inter != n_from:
        raise BuildError(
            f"double randomization needs equally many objects on both target "
            f"tiers; got {n_inter} vs {n_from}"
        )
    lifted = lift(rs, g_alloc, policy)
    report = ConditionReport(condition="double-randomization collapse", holds=True)
    placement: dict = {}
    for source, r in zip(rs.elements, lifted.elements):
        # equally many objects, so g_alloc is a permutation (r = 1) and U_r is
        # the tier source's explicit form carried by it: an implicit source
        # is complemented once, on the tier, where the step's lift reuses it
        u = span(source.explicit().carried(g_alloc.assignment, 1))
        homes = []
        for q in qs.elements:
            # R sits inside Q iff Q U_r = U_r
            gap = np.linalg.norm(project(q, u) - u)
            if gap <= policy.tol_idem:
                homes.append(q.label)
            else:
                beyond_rounding(gap, n_from, r.df**0.5, "{} leaves {}", r.label, q.label)
        if len(homes) == 1:
            placement[r.label] = homes[0]
            report.witnesses.append(f"{homes[0]} ▷ {r.label} = {r.label}")
        else:
            report.holds = False
            report.witnesses.append(
                f"{r.label} does not sit inside a single intermediate source "
                f"(candidates: {homes or 'none'})"
            )
    return report, placement


# --- the build loop ---------------------------------------------------------


def build_decomposition(design) -> BuildResult:
    """Run every randomization step and return the final decomposition.

    ``design`` is a loaded design bundle exposing the unit structure, per-tier
    structures, and allocations (see speccli).  Steps are consumed in declared
    order except that a step whose target tier has not yet contributed waits
    for it.  Raises IncoherenceError as soon as a balance or coherence check
    fails, with the full report attached.  The diagnostics come back once
    each, in the order they were first raised.

    Each step checks what it creates (see ``refine``, ``lift`` and
    ``joint``), so the final decomposition is not validated again.
    """
    diagnostics: list = []
    reports: list = []

    units_structure = design.units_structure()
    diagnostics.extend(units_structure.notices)
    d = Decomposition.from_structure(units_structure, design.units_tier)
    d.label = design.name

    pending = list(design.steps)
    incorporated = {design.units_tier}

    while pending:
        step = _next_ready(pending, incorporated)
        if step is None:
            names = ", ".join(s.describe() for s in pending)
            raise BuildError(f"steps can never run (dangling targets): {names}")
        pending.remove(step)

        if step.kind in _PAIRED_KINDS:
            partner = _find_partner(step, pending)
            if partner is None:
                raise BuildError(
                    f"{step.kind} step {step.describe()} has no partner step "
                    "aimed at the same tier"
                )
            pending.remove(partner)
            if step.kind == "independent":
                d = _run_independent_pair(design, d, step, partner, diagnostics, reports)
            else:
                d = _run_coincident_pair(design, d, step, partner, diagnostics, reports)
            incorporated |= {step.from_tier, partner.from_tier}
        elif step.kind == "double":
            d = _run_double(design, d, step, diagnostics, reports)
            incorporated |= {step.from_tier, *step.to_tiers}
        else:
            d = _run_plain(design, d, step, diagnostics)
            incorporated.add(step.from_tier)

    return BuildResult(
        decomposition=d, diagnostics=list(dict.fromkeys(diagnostics)), reports=reports
    )


def _next_ready(pending, incorporated):
    for step in pending:
        if step.to_tiers[0] in incorporated:
            return step
        if step.kind == "double" and step.to_tiers[1] in incorporated:
            return step
    return None


def _find_partner(step, pending):
    for other in pending:
        if other.kind == step.kind and other.to_tiers == step.to_tiers:
            return other
    return None


def _lift_tier(design, tier: str, diagnostics) -> Structure:
    """The step's lift of ``tier`` onto the units; its notices join the build's."""
    lifted = lift(design.tier_structure(tier), design.allocation(tier), design.policy)
    diagnostics.extend(lifted.notices)
    return lifted


def _balance(design, d, s, step) -> EfficiencyMatrix:
    """The step's one balance check of ``s`` against ``d``: its matrix, or
    IncoherenceError carrying the report with its merge suggestions."""
    chk = is_structure_balanced(s, d, design.policy)
    if isinstance(chk, ViolationReport):
        raise IncoherenceError(_report_from_violations(design, d, s, chk, step))
    return chk


def _checked_refine(design, d, s, step) -> Decomposition:
    """A refinement with no pair condition: check ``s`` against ``d``, then refine."""
    return refine(d, s, _balance(design, d, s, step), design.policy, tier=step.from_tier)


def _report_from_violations(design, d, s, vr: ViolationReport, step) -> IncoherenceReport:
    origin = {node.label: node.origin_tier for node in d.nodes}
    items = []
    first_order = [v for v in vr.violations if v.kind == "first-order"]
    by_source: dict = {}
    for v in first_order:
        by_source.setdefault(v.cols[0], []).append(v)

    suggestions = {}
    for source_label, viols in by_source.items():
        suggestions[source_label] = _merge_suggestion(d, s, vr, source_label, viols, design.policy)

    for v in vr.violations:
        items.append(
            IncoherenceItem(
                step=step.describe(),
                kind=v.kind,
                node=v.row,
                sources=v.cols,
                norm=v.norm,
                eigenvalues=v.eigenvalues,
                destroyed_tier=origin.get(v.row, ""),
                suggestion=suggestions.get(v.cols[0], "") if v.kind == "first-order" else "",
            )
        )
    return IncoherenceReport(items=items)


def _merge_suggestion(d, s, vr: ViolationReport, source_label, viols, policy) -> str:
    """Would pooling the clashing elements restore balance?  Reads the failed check ``vr``."""
    q = next(e for e in s.elements if e.label == source_label)
    failing = {v.row for v in viols}
    # pooling only the failing elements rarely suffices; include every element
    # the source already leans on
    for node in d.nodes:
        res = vr.results[(node.label, source_label)]
        if res.efficiency is not None and not res.efficiency.is_zero():
            failing.add(node.label)
    try:
        res = vr.balance_of_pooled([n.projector for n in d.nodes if n.label in failing], q, policy)
    except (InternalInconsistencyError, EfficiencyRangeError):
        return "redesign the randomization"
    if res.ok:
        names = ", ".join(sorted(failing))
        return f"merge sources {names} into one stratum"
    return "redesign the randomization"


def _failed(step: str, kind: str, sources: tuple, failing, suggestion: str) -> IncoherenceError:
    """The error of a failed pair condition: one ``kind`` item for each
    failing node, given as (node, tier whose decomposition it destroys)."""
    items = [
        IncoherenceItem(step, kind, node, sources, 0.0, destroyed_tier=tier, suggestion=suggestion)
        for node, tier in failing
    ]
    return IncoherenceError(IncoherenceReport(items=items))


def _run_plain(design, d, step, diagnostics):
    return _checked_refine(design, d, _lift_tier(design, step.from_tier, diagnostics), step)


def _run_independent_pair(design, d, first, second, diagnostics, reports):
    policy = design.policy
    q_lift = _lift_tier(design, first.from_tier, diagnostics)
    r_lift = _lift_tier(design, second.from_tier, diagnostics)

    # one balance check serves the first refinement, whose sweeps condition (i) reads
    d1 = refine(d, q_lift, _balance(design, d, q_lift, first), policy, tier=first.from_tier)
    # a node's sweeps in d1 carry its origin and lineage, plus one sweep entry
    sweeps: dict = {}
    for child in d1.nodes:
        if child.lineage and child.lineage[-1].op == "sweep":
            key = (child.origin_tier, child.origin_source, child.lineage[:-1])
            sweeps.setdefault(key, []).append(child.projector)

    failing = []
    for node in d.nodes:
        if node.projector.is_mean(policy):
            continue
        key = (node.origin_tier, node.origin_source, node.lineage)
        rep = check_adjusted_orthogonality(
            node.projector, q_lift, r_lift, sweeps.get(key, []), policy
        )
        reports.append(rep)
        if not rep.holds:
            failing.append((node.projector.label, node.origin_tier))
    if failing:
        raise _failed(
            first.describe(), "adjusted-orthogonality", (first.from_tier, second.from_tier),
            failing, "the two randomizations are not independent",
        )

    return _checked_refine(design, d1, r_lift, second)


def _run_coincident_pair(design, d, first, second, diagnostics, reports):
    policy = design.policy
    q_lift = _lift_tier(design, first.from_tier, diagnostics)
    r_lift = _lift_tier(design, second.from_tier, diagnostics)

    # each structure's check against d serves the conditions and its refinement of d
    q_bal = _balance(design, d, q_lift, first)
    r_bal = _balance(design, d, r_lift, second)
    rep = check_coincident(d, q_lift, r_lift, (q_bal, r_bal), policy)
    reports.append(rep)

    if rep.special_as_given.holds:
        rep.route = "left-to-right"
        d1 = refine(d, q_lift, q_bal, policy, tier=first.from_tier)
        return _checked_refine(design, d1, r_lift, second)
    if rep.special_swapped.holds:
        rep.route = "swapped"
        diagnostics.append(
            f"coincident pair ({first.from_tier}, {second.from_tier}): special "
            "case holds after swapping; refined in swapped order"
        )
        d1 = refine(d, r_lift, r_bal, policy, tier=second.from_tier)
        return _checked_refine(design, d1, q_lift, first)
    if rep.general.holds:
        rep.route = "joint"
        diagnostics.append(
            f"coincident pair ({first.from_tier}, {second.from_tier}): special "
            "case fails in both orders; emitting the joint decomposition"
        )
        d_q = refine(d, q_lift, q_bal, policy, tier=first.from_tier)
        d_r = refine(d, r_lift, r_bal, policy, tier=second.from_tier)
        out = joint(d_q, d_r, policy)
        out.label = d.label
        return out

    failing = [(w, "") for w in rep.general.witnesses if "neither sweep" in w]
    raise _failed(
        f"{first.describe()} + {second.describe()}", "coincident", (first.from_tier, second.from_tier),
        failing, "redesign the randomization",
    )


def _run_double(design, d, step, diagnostics, reports):
    policy = design.policy
    incorporated_target, intermediate = step.to_tiers
    qs = design.intermediate_tier_structure(intermediate)
    rs = design.tier_structure(step.from_tier)
    g_alloc = design.intermediate_allocation(intermediate, step.from_tier)

    rep, placement = check_double(qs, rs, g_alloc, policy)
    reports.append(rep)
    if not rep.holds:
        # one witness per from-tier source, in order; a placed one passes
        failing = [(w, "") for r, w in zip(rs.elements, rep.witnesses) if r.label not in placement]
        raise _failed(
            step.describe(), "double", (intermediate, step.from_tier), failing, "redesign the randomization"
        )

    lifted = _lift_tier(design, step.from_tier, diagnostics)
    cells_for = {
        r.label: ((intermediate, placement[r.label]), (step.from_tier, r.label))
        for r in lifted.elements
        if r.label in placement
    }
    balance = _balance(design, d, lifted, step)
    return refine(d, lifted, balance, policy, tier=intermediate, cells_for=cells_for)


def diagnose_incoherence(design) -> IncoherenceReport:
    """Run the build and collect the incoherence report instead of raising."""
    try:
        build_decomposition(design)
    except IncoherenceError as exc:
        return exc.report
    return IncoherenceReport(items=[])
