"""Structures on a data space and the balance calculus that refines them.

A structure is a complete set of mutually orthogonal projectors summing to
the span of its space.  Tier structures are built on the tier's own objects
and carried up to the observational units by an allocation; decompositions
of the unit space are then refined structure by structure, each refinement
gated by a structure-balance check.

The quantities in play, for a decomposition element P and a structure
element Q (all idempotents on the unit space):

* efficiency factor: the scalar lam with QPQ = lam*Q, when one exists.
  lam is trace(QPQ)/trace(Q); first-order balance holds when the residual
  QPQ - lam*Q vanishes.
* sweep: P onto its overlap with Q, namely (1/lam) PQP, an idempotent
  projecting onto the image of PQ.
* residual: P minus all its sweeps against one structure; what is left of
  P once every partly-confounded source is removed.

Every element is held explicitly as a list of class-form terms, U = N_1
A_1 + ... + N_k A_k, or implicitly by its sides as VV' - WW', VV' being
I on the whole space for the largest stratum of a structure (see
``projlin``), so all of this runs on C = U_P' U_Q (df_P x df_Q), formed on
class coordinates, and never on n x n matrices or n-row bases: QPQ =
lam*Q holds iff C'C = U_Q' P U_Q = lam*I.  A step's balance check forms,
for each row P, the only balance products of the step: c = V'S
(``projlin.side_cross``, one ``cross`` per basis V of P's sides, U_P or
the bases an implicit P is held by) against the structure's stacked
explicit sources S, and G = S'PS, the sides' Grams with their signs
(``projlin.side_gram``: c'c, I - c'c, or the plus side's less the
parts'), since S'S = I holds by the tier's count tables and the lift is
an isometry.  Every C'C is read from G: an explicit source's is its
diagonal block, and the implicit source I - SS' has the spectrum of I -
G, padded with ones and zeros.  So is the merge test of a failed check.
The sweep's basis is P U_Q / sqrt(lam).  For P = I - WW' it is U_Q minus
each listed part's share W W'U_Q, the sweep by factor means of Wilkinson
(1970): one term on Q's classes and one on each group of nested part
classes that it fills, from contingency tables.  For any other P it is
the sum of sign * V C_V / sqrt(lam) over its sides, on their own terms,
C read from the check.  Its orthonormality is read from the step's
balance result, since S'S - I = (C'C - lam*I)/lam.  The residual is P's
sides with the sweeps added to its listed parts: no basis is formed and
nothing is complemented.  Each test uses a Frobenius norm of a small
matrix, which bounds the largest entry of the n x n quantity it stands for.

Refining every element of a decomposition this way yields the next, finer
decomposition, with each element remembering its lineage for table output.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace

import numpy as np

from .projlin import (
    DEFAULT_POLICY,
    EfficiencyValue,
    Projector,
    ProjectorError,
    TolerancePolicy,
    coords,
    cross,
    df_edges,
    family_gram,
    folded,
    gram_defect,
    mul,
    project,
    refines,
    shift_diagonal,
    side_cross,
    side_gram as _row_gram,  # G = X'PX from c = V'X, X orthonormal
    sides,
    snap_rational,
    span,
    spanned,
)

__all__ = [
    "Structure",
    "AllocationMap",
    "LiftingError",
    "lift",
    "BalanceResult",
    "efficiency",
    "EfficiencyMatrix",
    "Violation",
    "ViolationReport",
    "is_structure_balanced",
    "sweep",
    "residual",
    "LineageEntry",
    "DecompNode",
    "Decomposition",
    "refine",
    "joint",
    "IncompatibilityError",
]


class LiftingError(ValueError):
    """The allocation cannot carry a tier structure onto the unit space."""


class IncompatibilityError(ValueError):
    """Joint refinement requested for non-commuting decompositions."""


class InternalInconsistencyError(RuntimeError):
    """A quantity that must be non-negative or idempotent came out otherwise,
    or a verdict test's gap lies within the build's rounding."""


def beyond_rounding(gap: float, n: int, norm: float, what: str, *names) -> None:
    """Raise InternalInconsistencyError unless ``gap``, a verdict test's
    distance from zero, found above its tolerance, is also above the
    rounding of a quantity of Frobenius norm at most ``norm`` formed by sums
    over n rows: n * eps * norm, the gamma_n of a dot product of length n,
    rounded up.  Within it the tolerance is below the build's rounding, and
    the test has no verdict to give; the message is ``what`` formatted with
    ``names``."""
    bound = n * np.finfo(float).eps * norm
    if gap <= bound:
        raise InternalInconsistencyError(f"{what.format(*names)} at rounding level ({gap:.3e} <= {bound:.3e})")


def _block_norms(gram: np.ndarray, members, cols=None) -> np.ndarray:
    """Frobenius norm of each (i, j) block of ``gram``, its rows cut by the
    members' dfs and its columns by those of ``cols`` (default ``members``)."""
    edges = df_edges(members)[:-1]
    col_edges = edges if cols is None else df_edges(cols)[:-1]
    sq = gram * gram
    # along rows first: reduceat over axis 0 of a large C-ordered array is slow
    return np.sqrt(np.add.reduceat(np.add.reduceat(sq, col_edges, axis=1), edges, axis=0))


def check_blocks(
    defect: np.ndarray,
    members,
    policy: TolerancePolicy,
    what: str = "elements",
) -> None:
    """The block rule on a Gram defect G - I cut by the members' dfs.

    Diagonal blocks (each member orthonormal) must lie within tol_idem, the
    others (members mutually orthogonal) within tol_zero (``check_pairs``).
    Raises ValueError naming the first failure, diagonal blocks first.
    """
    edges = df_edges(members)
    for p, lo, hi in zip(members, edges, edges[1:]):
        gap = float(np.linalg.norm(defect[lo:hi, lo:hi]))
        if gap > policy.tol_idem:
            raise ValueError(f"{p.label}: basis is not orthonormal (gap {gap:.3e})")
    check_pairs(defect, members, policy, what)


def check_pairs(
    defect: np.ndarray,
    members,
    policy: TolerancePolicy,
    what: str = "elements",
) -> None:
    """The pair half of the block rule: each off-diagonal block of G - I
    within tol_zero.  Raises ValueError naming the first pair that is not.

    A check that also holds G - I to tol_idem as a whole runs this first:
    an off-diagonal block of norm b adds at least sqrt(2) b to the whole
    norm, so under equal tolerances the whole test would otherwise fire
    first, and its message names neither member of the pair.
    """
    norms = _block_norms(defect, members)
    for i, j in itertools.combinations(range(len(members)), 2):
        if norms[i, j] > policy.tol_zero:
            raise ValueError(
                f"{what} {members[i].label} and {members[j].label} are not orthogonal "
                f"(cross Gram norm {norms[i, j]:.3e})"
            )


def _check_whole(projectors, n: int, df: int, owner: str, what: str, policy) -> None:
    """Every member on the n-row space, the members' df sum ``df``, exactly
    one Mean, and the block rule on one Gram of their stacked bases (an
    implicit member in its explicit form): the whole-family check of
    ``Structure.validate`` and ``Decomposition.validate``."""
    for p in projectors:
        if p.n != n:
            raise ValueError(f"{owner}: {p.label} lives on the wrong space")
    total_df = sum(p.df for p in projectors)
    if total_df != df:
        raise ValueError(f"{owner}: {what} df sum {total_df} != {df}")
    mean_count = sum(p.is_mean(policy) for p in projectors)
    if mean_count != 1:
        raise ValueError(f"{owner} must contain exactly one Mean, found {mean_count}")
    members = [p.explicit() for p in projectors if p.df > 0]
    if members:
        defect = shift_diagonal(family_gram(members), -1.0)
        check_blocks(defect, members, policy, what)


@dataclass
class Structure:
    """A complete orthogonal set of source projectors on one space."""

    elements: list
    total: Projector
    space_label: str = ""
    notices: list = field(default_factory=list)

    @property
    def n(self) -> int:
        return self.total.n

    def validate(self, policy: TolerancePolicy = DEFAULT_POLICY) -> None:
        """The df sum (the span's df), one Mean, and the block rule on the
        whole family.

        For tests and callers; the build calls it on no structure, since
        ``source_projectors`` proves each tier family orthogonal on its
        count tables and a lift keeps that family's Gram.  The one family
        the build validates whole is a joint refinement
        (``Decomposition.validate``).
        """
        owner = f"structure {self.space_label!r}"
        _check_whole(self.elements, self.n, self.total.df, owner, "elements", policy)


@dataclass
class AllocationMap:
    """Assignment of each row of one space to an object of a tier.

    ``assignment[i]`` is the index into ``objects`` for row i: the design
    matrix X, the 0/1 indicator (rows x objects), held as its column ids.
    ``replication`` is the common column sum when the allocation is
    equireplicate, else None; ``lift`` carries a structure only through an
    equireplicate allocation.
    """

    tier: str
    objects: list
    assignment: np.ndarray
    space_label: str = "units"

    def __post_init__(self) -> None:
        self.assignment = np.asarray(self.assignment, dtype=np.intp)
        if self.assignment.ndim != 1:
            raise ValueError("assignment must be a flat index vector")
        if len(self.objects) == 0:
            raise ValueError("allocation must target at least one object")
        if self.assignment.size and (
            self.assignment.min() < 0 or self.assignment.max() >= len(self.objects)
        ):
            raise ValueError("assignment index out of range")

    @property
    def n_rows(self) -> int:
        return self.assignment.size

    @property
    def replication(self) -> int | None:
        counts = np.bincount(self.assignment, minlength=len(self.objects))
        if counts.size and counts.min() == counts.max():
            return int(counts[0])
        return None


def lift(
    tier_structure: Structure,
    alloc: AllocationMap,
    policy: TolerancePolicy = DEFAULT_POLICY,
) -> Structure:
    """Carry a tier structure up to the allocation's row space.

    The allocation must be equireplicate.  It composes class ids: each
    source's classes become ids[assignment] with scales over sqrt(r)
    (``Projector.carried``), the lifted form of (1/r) X Q X', for every r,
    so nothing is checked, gathered or formed.  With r = 1 an implicit
    source stays I minus its carried listed bases; with r > 1 it, and the
    total, are carried in
    their explicit form, complemented on the tier's m objects.  The
    composition is an isometry (X'X = rI, and N'N = I on the composed
    classes), so the lifted family has the tier family's Gram, which
    ``source_projectors`` proved to be I on the tier's count tables.

    Any other allocation raises LiftingError.  A structure that sums to I
    and holds the Mean lifts only when U_a' D U_b = 0 for distinct
    sources, D = diag(counts); that makes every source D-invariant, so D1
    is a multiple of 1 and the counts are equal.  The clashing pair is
    named from the first element's row of that weighted cross Gram,
    ||U_b' D u|| = ||Q_b D u|| (``project``, on the tier's m objects) for
    each later source in order.  The first element, which must be
    explicit, is the Mean of every structure ``source_projectors`` builds,
    and the Mean clashes with some source whenever the counts differ, so no
    other row is needed.
    """
    if len(tier_structure.elements) == 0:
        raise ValueError("cannot lift an empty structure")
    m = tier_structure.n
    if len(alloc.objects) != m:
        raise LiftingError(
            f"allocation targets {len(alloc.objects)} objects but the tier "
            f"structure lives on {m}"
        )
    rows = alloc.assignment
    r = alloc.replication
    if r is None:
        first, *rest = tier_structure.elements
        counts = np.bincount(rows, minlength=m).astype(float)
        weighted = span(first) * counts[:, None]
        for q in rest:
            norm = float(np.linalg.norm(project(q, weighted)))
            if norm > policy.tol_zero:
                raise LiftingError(
                    f"allocation to tier {alloc.tier!r} is not equireplicate and fails "
                    f"the lifting condition: lifted sources {first.label} and {q.label} "
                    f"are not orthogonal (cross Gram norm {norm:.3e})"
                )
        raise LiftingError(
            f"allocation to tier {alloc.tier!r} is not equireplicate; "
            "only an equireplicate allocation lifts"
        )
    memo: dict = {}
    return Structure(
        elements=[q.carried(rows, r, memo=memo) for q in tier_structure.elements],
        total=tier_structure.total.carried(rows, r, f"{alloc.tier} span", memo),
        space_label=alloc.space_label,
        notices=list(tier_structure.notices),
    )


# --- first-order balance ----------------------------------------------------


@dataclass(frozen=True)
class BalanceResult:
    """Outcome of one (P, Q) first-order balance test.

    ``status`` is one of ``balanced``, ``orthogonal``, ``aliased`` (lam = 1
    with identical images) or ``unbalanced``; unbalanced results carry the
    distinct nonzero eigenvalues of QPQ with multiplicities.
    ``residual_norm`` is ||C'C - lam*I||_F, C = U_P'U_Q, at the lam the
    result reports (0 for an orthogonal pair).  A ``balanced`` pair of a
    P other than I - WW' and an explicit Q from ``is_structure_balanced``
    carries the block c = V'U_Q of the check's row product, V the stacked
    bases of P's sides, as ``c``, which ``sweep`` reads; it is neither
    compared nor printed.
    """

    status: str
    efficiency: EfficiencyValue | None = None
    eigenvalues: tuple = ()
    residual_norm: float = 0.0
    c: np.ndarray | None = field(default=None, compare=False, repr=False)

    @property
    def ok(self) -> bool:
        return self.status != "unbalanced"

    @property
    def lam(self) -> float:
        return self.efficiency.value if self.efficiency else 0.0


def _cluster_eigenvalues(values: np.ndarray, policy: TolerancePolicy) -> tuple:
    """Distinct nonzero eigenvalues with multiplicities, descending; a group
    ends where the next kept value is more than tol_eig lower."""
    vals = np.sort(values)[::-1]
    vals = vals[np.abs(vals) > policy.tol_eig]
    starts = np.flatnonzero(np.diff(vals, prepend=np.inf) < -policy.tol_eig)
    counts = np.diff(np.append(starts, vals.size))
    # a 0.0 ahead of each group makes reduceat sum all of a group's members
    # pairwise, as np.mean does, instead of adding the rest to the first
    padded = np.insert(vals, starts, 0.0)
    means = np.add.reduceat(padded, starts + np.arange(starts.size)) / counts
    return tuple(zip(means.tolist(), counts.tolist()))


def efficiency(
    p: Projector,
    q: Projector,
    policy: TolerancePolicy = DEFAULT_POLICY,
) -> BalanceResult:
    """Test QPQ = lam*Q and report how P and Q sit relative to each other,
    from the row products of ``is_structure_balanced`` for the one pair: c =
    V'X (``side_cross``) and G = X'PX (``_row_gram``), X = U_Q, or W for an
    implicit Q = I - WW' (``_classify_held``, with the same absorbed-term
    rule as the check)."""
    if q.df == 0:
        raise ValueError(f"source {q.label} has no degrees of freedom")
    if not q.implicit:
        return _classify(p.label, p.df, q, _row_gram(p, side_cross(p, [q])), policy)
    absorbed = _absorbed(p, folded(q)[0])
    return _classify_held(p, q, absorbed, lambda: _row_gram(p, side_cross(p, q.parts)), policy)


def _classify_complement(p_label, p_df, q, gram, policy) -> BalanceResult:
    """``_classify`` for an implicit Q = I - SS' from G = S'PS, S the
    stacked bases of Q's listed parts, for P of ``p_df`` columns.

    CC' = U_P'QU_P = I - E'E with E = S'U_P and EE' = G, so C'C has the
    spectrum of I - G with df_P - df_S more ones and df_Q - df_P more
    zeros; a negative count drops that many eigenvalues instead (see
    ``_classify``).  ``gram`` is left as it is.
    """
    small = shift_diagonal(np.negative(gram), 1.0)
    return _classify(p_label, p_df, q, small, policy, ones=p_df - small.shape[0])


_ORTHOGONAL = BalanceResult(status="orthogonal", efficiency=EfficiencyValue(0.0, (0, 1)))


def _absorbed(p: Projector, filled: list) -> bool:
    """Whether an implicit Q = I - WW' annihilates every side term of P (the
    terms of each basis of ``sides(P)``); ``filled`` is
    ``projlin.folded(Q)[0]``.

    A term on classes that a filled group's classes C refine lies in
    span(N_C), which lies in span(W), so Q absorbs it.  A term on the
    identity partition is absorbed only by a group that fills the whole
    space."""
    plus, minus = sides(p)
    return bool(filled) and all(
        any(refines(c.ids, cls.ids) for c in filled)
        for v in (plus or ()) + minus
        for cls, _ in v.terms
    )


def _classify_held(p: Projector, q: Projector, absorbed: bool, gram, policy) -> BalanceResult:
    """(P, Q) for an implicit Q = I - WW': a P other than I - VV' whose side
    terms Q all absorbs (``_absorbed``) lies in span(W), so U_P'U_Q = 0 and
    it is ``orthogonal`` at once, with no eigensolve trim; any other P goes
    to ``_classify_complement`` with G = W'PW, which ``gram()`` returns
    only then."""
    if absorbed and sides(p)[0] is not None:
        return _ORTHOGONAL
    return _classify_complement(p.label, p.df, q, gram(), policy)


def _share(p: Projector, q: Projector) -> list:
    """Terms of WW'U_Q for an implicit P = I - WW' and an explicit Q, on
    class coordinates: U_Q's coordinates on each filled group's classes
    (``projlin.folded``), and each other part's terms times its Gram with U_Q."""
    filled, rest = folded(p)
    terms = [(c, coords(q, c)) for c in filled]
    for w in rest:
        g = cross(w, [q])
        terms += [(c, mul(a, g)) for c, a in w.terms]
    return terms


def sweep(
    p: Projector,
    q: Projector,
    res: BalanceResult,
    policy: TolerancePolicy = DEFAULT_POLICY,
    label: str | None = None,
) -> Projector:
    """Projector onto Im(PQ), basis P U_Q / sqrt(lam), from the step's balance
    result ``res`` for (P, Q); defined when balance holds.

    For P = I - WW' it is U_Q minus the listed parts' shares (``_share``).
    For any other P it is the sum over P's sides V (``sides``) of sign *
    V C_V / sqrt(lam), C_V = V'U_Q, held on V's terms, with C read from
    ``res`` when the check formed it (an explicit Q).  Either way it is a
    list of terms, so no n-row basis is formed, and it is not checked from
    a second Gram: S'S - I = (U_Q'PU_Q - lam*I)/lam, whose norm is
    res.residual_norm/lam, and it is held to tol_idem.  When P = I - WW'
    and Q is implicit too and lam = 1, Q lies inside P and the sweep is Q
    itself, still I minus its listed bases.
    """
    lam = res.lam
    if lam <= policy.tol_zero:
        raise ValueError(f"sweep of {p.label} by {q.label} needs a nonzero efficiency")
    label = label or f"{p.label} ▷ {q.label}"
    plus, minus = sides(p)
    if plus is None and q.implicit and res.efficiency.is_one():
        return q.relabel(label)
    gap = res.residual_norm / lam
    if gap > policy.tol_idem:
        raise ProjectorError(f"{label}: basis is not orthonormal (gap {gap:.3e})")
    q = q.explicit()
    if plus is None:
        scale = 1.0 / np.sqrt(lam)
        terms = [(c, a * scale) for c, a in q.terms] + [(c, a * -scale) for c, a in _share(p, q)]
        return Projector.of_terms(terms, label)
    c = res.c if res.c is not None else side_cross(p, [q])
    return Projector.of_terms(_side_terms(p, c, np.sqrt(lam)), label)


def _side_terms(p: Projector, c: np.ndarray, root: float = 1.0) -> list:
    """The terms of the sum of sign * V C_V / ``root`` over P's sides V
    (``sides``, -1 on a listed part), C_V the rows of ``c`` for V: for c =
    V'X (``side_cross``) they sum to P X / root, less X / root when P = I
    - WW'.  A part's C_V is negated in place, with no copy for the plus
    side."""
    plus, minus = sides(p)
    side = (plus or ()) + minus
    edges, terms = df_edges(side), []
    for j, v in enumerate(side):
        f = c[edges[j] : edges[j + 1]] / root
        if j >= len(plus or ()):
            np.negative(f, out=f)
        terms += [(cls, mul(a, f)) for cls, a in v.terms]
    return terms


def residual(
    p: Projector,
    swept: list,
    policy: TolerancePolicy = DEFAULT_POLICY,
    label: str | None = None,
) -> Projector | None:
    """P minus its sweeps against one structure, held by P's sides: P's
    plus side, and its listed parts with the sweeps S = [U_S1 ... U_Sm]
    added (``projlin.sides``); None when nothing is left.  No basis is
    formed and nothing is complemented.

    With K'K = S'PS, the sweeps are orthonormal and inside P iff K'K = I.
    K'K - I is held to tol_zero between two sweeps (``check_pairs``, first,
    so that an overlap names its pair) and to tol_idem as a whole, so the
    sweeps and the residual need no family check afterwards.  K'K is the
    Gram of K = V'S over the plus side V, or S'S for P = I - WW', minus
    that of W'S; the residual is a projector when, besides, W'S vanishes,
    which is held to tol_zero.  Both Grams are sums of products on class
    coordinates; a filled group of W (``projlin.folded``) enters W'S as
    N_C'S, with the same Gram and norm.

    An implicit sweep Q = I - VV' of P = I - WW' (see ``sweep``) lies inside
    it: P - Q = VV' - WW', so Q's listed bases become the plus side.  That
    W lies inside span(V), E'E = I for E = V'W, is held to tol_idem.
    """
    label = label or f"{p.label} residual"
    if not swept:
        return p.relabel(label)
    plus, minus = sides(p)
    held = [s for s in swept if s.implicit]  # at most one: a structure has one implicit source
    if held:
        gap = float(np.linalg.norm(gram_defect(side_cross(held[0], minus))))
        if gap > policy.tol_idem:
            raise ProjectorError(f"{label}: {held[0].label} leaves {p.label} (gap {gap:.3e})")
        plus, swept = held[0].parts, [s for s in swept if not s.implicit]
    if swept:
        filled, rest = folded(p) if minus else ((), ())
        leak = [np.hstack([coords(s, c) for s in swept]) for c in filled]
        leak += [cross(w, swept) for w in rest]
        leak = np.vstack(leak) if leak else np.zeros((0, sum(s.df for s in swept)))
        if plus is None:
            gram = family_gram(swept)
        else:
            k = family_gram(plus, swept)
            gram = mul(k.T, k)
        if leak.shape[0]:
            gram -= mul(leak.T, leak)
        defect = shift_diagonal(gram, -1.0)
        # the pairs first, so that an overlap names its two sweeps; with the
        # checks on each sweep and the residual, this is all refine checks
        try:
            check_pairs(defect, swept, policy, what="sweeps")
        except ValueError as exc:
            raise ProjectorError(f"{label}: {exc}") from None
        gap = float(np.linalg.norm(defect))
        # also caps the sweeps' df at df_P: a K wider than tall has gap >= 1
        if gap > policy.tol_idem:
            raise ProjectorError(f"{label}: not idempotent (sweep gap {gap:.3e})")
        outside = float(np.linalg.norm(leak))
        if outside > policy.tol_zero:
            raise ProjectorError(f"{label}: sweeps leave {p.label} (norm {outside:.3e})")
    rem = Projector(label=label, _n=p.n, _parts=minus + tuple(swept), _plus=plus)
    return rem if rem.df else None


# --- structure balance of a whole family -------------------------------------


@dataclass(frozen=True)
class Violation:
    kind: str  # "first-order" or "distinctness"
    row: str
    cols: tuple
    norm: float
    eigenvalues: tuple = ()


@dataclass
class ViolationReport:
    """A failed structure-balance check: its violations, its BalanceResult
    for every (row, column) label pair, and, for the merge test, the check's
    row product G = S'PS of each row P (``grams``, by row label), S the
    stacked explicit sources, each cut out of it by ``cuts`` (by label)."""

    structure_label: str
    against_label: str
    violations: list
    results: dict = field(default_factory=dict)
    grams: dict = field(default_factory=dict)
    cuts: dict = field(default_factory=dict)

    def __bool__(self) -> bool:
        return bool(self.violations)

    def balance_of_pooled(self, ps: list, q: Projector, policy: TolerancePolicy = DEFAULT_POLICY):
        """``efficiency`` of P = the sum of the mutually orthogonal rows ``ps``
        against the column ``q``, from the stored row products: S'PS is the
        sum of the S'P_iS, so P itself is never formed.

        An explicit Q takes its block of it, U_Q'PU_Q = C'C.  An implicit Q =
        I - SS' lists exactly the explicit sources and takes all of it
        (``_classify_complement``).
        """
        label, df = " + ".join(p.label for p in ps), sum(p.df for p in ps)
        if q.implicit:
            return _classify_complement(label, df, q, sum(self.grams[p.label] for p in ps), policy)
        cut = self.cuts[q.label]
        return _classify(label, df, q, sum(self.grams[p.label][cut, cut] for p in ps), policy)

    def summary(self) -> str:
        lines = [
            f"structure {self.structure_label!r} is not structure balanced in "
            f"relation to {self.against_label!r}:"
        ]
        for v in self.violations:
            if v.kind == "first-order":
                eigs = ", ".join(f"{val:.6g} (x{m})" for val, m in v.eigenvalues)
                lines.append(
                    f"  {v.row} vs {v.cols[0]}: QPQ not proportional to Q "
                    f"(residual {v.norm:.3e}; nonzero eigenvalues {eigs})"
                )
            else:
                lines.append(
                    f"  {v.row}: {v.cols[0]} and {v.cols[1]} overlap inside it "
                    f"(norm {v.norm:.3e})"
                )
        return "\n".join(lines)


@dataclass
class EfficiencyMatrix:
    """Balance results for every (decomposition element, structure element) pair."""

    rows: list  # labels
    cols: list  # labels
    results: dict  # (row_label, col_label) -> BalanceResult

    def value(self, row: str, col: str) -> EfficiencyValue:
        return self.results[(row, col)].efficiency

    def column_sums(self) -> dict:
        out = {}
        for col in self.cols:
            out[col] = sum(self.results[(row, col)].lam for row in self.rows)
        return out

    def validate_column_sums(self, policy: TolerancePolicy = DEFAULT_POLICY) -> None:
        for col, total in self.column_sums().items():
            if abs(total - 1.0) > policy.tol_zero * max(len(self.rows), 1) * 10:
                raise InternalInconsistencyError(
                    f"efficiency factors for {col} sum to {total!r}, not 1"
                )


def is_structure_balanced(
    s: Structure,
    against,
    policy: TolerancePolicy = DEFAULT_POLICY,
):
    """Check structure balance of ``s`` in relation to a decomposition.

    ``against`` is a Decomposition (or Structure) on the same space.  Every
    pair must be first-order balanced or orthogonal, and distinct elements of
    ``s`` must not meet inside any single element of ``against``.  Returns an
    EfficiencyMatrix on success, a ViolationReport on failure.

    For each row P the check forms its row products once: c = V'S, one
    ``cross`` per side basis V (U_P, or each basis an implicit P is held
    by, ``projlin.sides``), S = [U_Q1 ... U_Qk] the stacked explicit
    sources, and G = S'PS, the sides' c'c with their signs, plus I for P
    = I - WW' (``_row_gram``, which is ``projlin.side_gram``; S'S = I
    holds by the tier's count tables and the lift is an isometry).  G's
    diagonal blocks are the per-source C_i'C_i of the first-order test,
    the others the C_a'C_b of the distinctness test.  An implicit source Q
    = I - WW' takes its first-order test from G as well, as I - G
    (``_classify_complement``), and its distinctness blocks from the norms
    of Q P S, since U_Q'PU_Qa has the norm of Q P U_Qa.  Its W must list
    every other source of ``s``, in order, as it does in every structure
    ``source_projectors`` and ``lift`` make; any other implicit source
    raises ValueError.  A failed check keeps each row's G for the merge test
    (``ViolationReport.balance_of_pooled``).  A balanced pair of a row
    other than I - WW' and an explicit source carries its block of c on its
    BalanceResult, so that ``sweep`` forms it no second time.

    Side terms a filled group of Q absorbs: a term of P's side on classes
    that the classes C of one of W's filled groups (``projlin.folded``,
    found once per column) refine lies in span(N_C), inside span(W), so Q
    annihilates it (``_absorbed``, once per row and column).  When every
    term of a row is absorbed, a row other than I - VV' is ``orthogonal``
    at once, since U_P'U_Q = 0, with no ``_classify_complement`` and no
    eigensolve trim (``_classify_held``, which ``efficiency`` also calls),
    and the norms of Q P S read 0 with nothing formed on the rows
    (``_meet_norms``).
    A row with any term left unabsorbed takes the whole path.
    """
    rows = _elements_of(against)
    cols = s.elements
    stacked = [q for q in cols if not q.implicit]
    for q in cols:
        if q.implicit and list(q.parts) != stacked:
            raise ValueError(
                f"implicit source {q.label} must list every other source of "
                f"{s.space_label or 'the structure'}, in order"
            )
    plain = [i for i, q in enumerate(cols) if not q.implicit]
    held = [i for i, q in enumerate(cols) if q.implicit]
    filled = {i: folded(cols[i])[0] for i in held}
    edges = df_edges(stacked)
    cuts = {q.label: slice(lo, hi) for q, lo, hi in zip(stacked, edges, edges[1:])}
    crossed: dict = {}  # V'S by id(V), for side_cross
    violations = []
    results = {}
    grams = {}  # kept for the report only; dropped when the check passes
    for p in rows:
        keep = sides(p)[0] is not None  # a row that ``sweep`` takes C of
        c = side_cross(p, stacked, crossed)
        grams[p.label] = gram_ = _row_gram(p, c)
        norms = np.zeros((len(cols), len(cols)))
        if stacked:
            norms[np.ix_(plain, plain)] = _block_norms(gram_, stacked)
        res_of = {}
        for i in plain:
            cut = cuts[cols[i].label]
            res = _classify(p.label, p.df, cols[i], gram_[cut, cut], policy)
            res_of[i] = replace(res, c=c[:, cut]) if res.status == "balanced" and keep else res
        for i in held:
            absorbed = _absorbed(p, filled[i])
            res_of[i] = _classify_held(p, cols[i], absorbed, lambda: gram_, policy)
            if stacked:
                meet = _meet_norms(cols[i], p, stacked, gram_, c, policy.tol_zero, absorbed)
                norms[i, plain] = norms[plain, i] = meet
        for i, q in enumerate(cols):
            res = res_of[i]
            results[(p.label, q.label)] = res
            if not res.ok:
                violations.append(
                    Violation(
                        kind="first-order",
                        row=p.label,
                        cols=(q.label,),
                        norm=res.residual_norm,
                        eigenvalues=res.eigenvalues,
                    )
                )
        for a, b in itertools.combinations(range(len(cols)), 2):
            if norms[a, b] > policy.tol_zero:
                what = ("{}: {} and {} meet inside it", p.label, cols[a].label, cols[b].label)
                beyond_rounding(norms[a, b], p.n, min(cols[a].df, cols[b].df) ** 0.5, *what)
                violations.append(
                    Violation(
                        kind="distinctness",
                        row=p.label,
                        cols=(cols[a].label, cols[b].label),
                        norm=float(norms[a, b]),
                    )
                )
    if violations:
        return ViolationReport(
            structure_label=s.space_label or "structure",
            against_label=_label_of(against),
            violations=violations,
            results=results,
            grams=grams,
            cuts=cuts,
        )
    em = EfficiencyMatrix(
        rows=[p.label for p in rows],
        cols=[q.label for q in cols],
        results=results,
    )
    em.validate_column_sums(policy)
    return em


def _col_block_norms(c: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Frobenius norm of each column block of ``c`` cut at ``edges``."""
    if c.shape[0] == 0:
        return np.zeros(edges.size - 1)
    return np.sqrt(np.add.reduceat((c * c).sum(axis=0), edges[:-1]))


def _meet_norms(
    q: Projector,
    p: Projector,
    xs: list,
    xs_p_xs: np.ndarray,
    c: np.ndarray,
    tol: float,
    absorbed: bool,
) -> np.ndarray:
    """||Q P U_x||_F for each explicit x in ``xs``, where Q = I - WW' lists
    exactly ``xs``; with X = [U_x1 ... U_xk], ``xs_p_xs`` is X'PX and ``c``
    is V'X for P's sides V (``side_cross``).

    QPX = PX - W(W'PX) is formed on the rows, PX from the sides' terms
    (``_side_terms``) and W'PX being ``xs_p_xs``; for P = I - VV' it is
    -QV(V'X), since QX = 0, so no basis of X is formed.  Only the columns
    of an x whose bound on the norm, ||V'U_x||_F, passes ``tol`` are
    formed; the others read 0, being within ``tol`` of it.

    When Q absorbs every side term of P (``absorbed``, see ``_absorbed``),
    QP = 0, or QP = Q for P = I - VV', so QPX = 0: every norm reads 0 and
    nothing is formed on the rows.
    """
    norms = np.zeros(len(xs))
    if absorbed:
        return norms
    edges = df_edges(xs)
    keep = np.flatnonzero(_col_block_norms(c, edges) > tol)
    if keep.size == 0:
        return norms
    cols = np.concatenate([np.arange(edges[i], edges[i + 1]) for i in keep])
    y = [cls.up(a) for cls, a in _side_terms(p, c[:, cols])]
    y = sum(y[1:], y[0])
    wy = -mul(c.T, c[:, cols]) if sides(p)[0] is None else xs_p_xs[:, cols]
    for x, a, b in zip(q.parts, edges[:-1], edges[1:]):
        y = y - span(x, wy[a:b])
    norms[keep] = _col_block_norms(y, df_edges([xs[i] for i in keep]))
    return norms


def _classify(p_label, p_df, q, gram, policy, ones: int = 0) -> BalanceResult:
    """Classify (P, Q) from gram = C'C, C = U_P' U_Q: Q's diagonal block of
    the check's row product G = S'PS, or for an implicit Q = I - SS' the
    small I - G (``_classify_complement``).

    lam = trace(C'C) / df_Q = trace(QPQ) / trace(Q).  QPQ - lam*Q is
    U_Q (C'C - lam*I) U_Q', so the Frobenius norm of C'C - lam*I bounds its
    largest entry; QPQ is U_Q C'C U_Q', bounded the same way.  A ``gram``
    of another size than df_Q stands for C'C with ``ones`` more eigenvalues
    equal to 1 and ``zeros`` = df_Q - size - ones more equal to 0 (see
    ``_classify_complement``); each
    norm then adds their share.  A negative count means ``gram`` has that
    many eigenvalues equal to 1, or to 0, that C'C lacks: they are its
    largest, or its smallest, and are dropped, and ``gram`` is then the
    diagonal of the rest.
    """
    zeros = q.df - gram.shape[0] - ones
    if ones < 0 or zeros < 0:
        eigs = np.linalg.eigvalsh(gram)  # ascending
        gram = np.diag(eigs[max(-zeros, 0) : eigs.size - max(-ones, 0)])
        ones, zeros = max(ones, 0), max(zeros, 0)
    lam = (float(np.trace(gram)) + ones) / q.df
    if abs(lam) <= policy.tol_zero:
        gap = float(np.hypot(np.linalg.norm(gram), np.sqrt(ones)))
        if gap <= policy.tol_idem:
            return _ORTHOGONAL
        # QPQ is positive semidefinite, so a vanishing trace alongside
        # non-vanishing entries signals numerical breakdown, not imbalance
        raise InternalInconsistencyError(
            f"QPQ for ({p_label}, {q.label}) has zero trace but norm {gap:.3e}"
        )
    # lam is a mean of C'C's eigenvalues, each at most 1
    beyond_rounding(abs(lam), q.n, 1.0, "QPQ for ({}, {}) has a nonzero trace", p_label, q.label)
    shifted = shift_diagonal(gram.copy(), -lam)
    gap = np.hypot(np.linalg.norm(shifted), lam * np.sqrt(zeros))
    gap = float(np.hypot(gap, (1.0 - lam) * np.sqrt(ones)))
    if gap <= policy.tol_idem:
        value = snap_rational(lam, policy)
        if 1.0 - lam <= policy.tol_zero:
            # reported as 1, so the norm is taken at 1 (``sweep`` reads it):
            # lam is C'C's mean eigenvalue, so ||C'C - I||^2 adds df_Q (1 - lam)^2
            value = EfficiencyValue(1.0, (1, 1))
            gap = float(np.hypot(gap, (1.0 - lam) * np.sqrt(q.df)))
            # C'C = I with C square: the two images coincide
            if p_df == q.df:
                return BalanceResult(status="aliased", efficiency=value, residual_norm=gap)
        return BalanceResult(status="balanced", efficiency=value, residual_norm=gap)
    beyond_rounding(gap, q.n, gram.shape[0] ** 0.5, "QPQ for ({}, {}) misses lam*Q", p_label, q.label)
    eigs = np.concatenate((np.linalg.eigvalsh(gram), np.ones(ones), np.zeros(zeros)))
    return BalanceResult(
        status="unbalanced",
        eigenvalues=_cluster_eigenvalues(eigs, policy),
        residual_norm=gap,
    )


def _elements_of(obj) -> list:
    if isinstance(obj, Structure):
        return list(obj.elements)
    if isinstance(obj, Decomposition):
        return [node.projector for node in obj.nodes]
    raise TypeError(f"expected Structure or Decomposition, got {type(obj).__name__}")


def _label_of(obj) -> str:
    if isinstance(obj, Structure):
        return obj.space_label or "structure"
    return obj.label or "decomposition"


# --- decompositions -----------------------------------------------------------


@dataclass(frozen=True)
class LineageEntry:
    """One refinement stage in a node's history.

    ``cells`` holds (tier, source label, df at this stage); the usual entry
    has one cell, a collapsed double-randomization sweep has two (the same
    node shows under both tiers).  Residual entries carry no efficiency.
    """

    op: str  # "sweep" or "residual"
    cells: tuple
    efficiency: EfficiencyValue | None = None


@dataclass(frozen=True)
class DecompNode:
    projector: Projector
    origin_tier: str
    origin_source: str
    origin_df: int
    lineage: tuple = ()

    @property
    def df(self) -> int:
        return self.projector.df

    @property
    def label(self) -> str:
        return self.projector.label


@dataclass
class Decomposition:
    """An ordered orthogonal decomposition of the unit space."""

    nodes: list
    n: int
    label: str = ""

    def validate(self, policy: TolerancePolicy = DEFAULT_POLICY) -> None:
        """df sum n, one Mean, and the block rule on the whole family (see
        ``Structure.validate``)."""
        projectors = [node.projector for node in self.nodes]
        _check_whole(projectors, self.n, self.n, "decomposition", "nodes", policy)

    @classmethod
    def from_structure(cls, s: Structure, tier: str) -> "Decomposition":
        nodes = [DecompNode(p, origin_tier=tier, origin_source=p.label, origin_df=p.df) for p in s.elements]
        return cls(nodes=nodes, n=s.n, label=f"{tier} structure")


def refine(
    d: Decomposition,
    s: Structure,
    balance: EfficiencyMatrix,
    policy: TolerancePolicy = DEFAULT_POLICY,
    tier: str | None = None,
    cells_for: dict | None = None,
) -> Decomposition:
    """Refine every node of ``d`` by the structure ``s``.

    ``balance`` is the EfficiencyMatrix that ``is_structure_balanced(s, d)``
    returned: the check is the caller's, made once, and every sweep's λ
    and route is read from it here, and its C, which is dropped from
    ``balance`` once the sweep is made.  Nodes completely orthogonal to ``s``
    pass through untouched; a node that is partly swept gains a residual
    child for whatever is left.

    ``cells_for`` optionally maps a structure element's label to the lineage
    cells recorded for sweeps by that element (used when an element carries
    labels from two tiers after a collapsed double randomization).

    The refined family is not validated again as a whole; each property is
    checked where it is made.  Every sweep is checked orthonormal from its
    balance result (``sweep``).  ``residual`` proves the sweeps of one node
    orthonormal, inside it and mutually orthogonal, and the residual is
    their exact complement there, held as its node's sides minus the
    sweeps.  Children of different nodes lie inside their parents, so they
    inherit their parents' orthogonality to first order.  The df sum and
    the single Mean hold by construction.  Every child is its node with a
    new projector and one more lineage entry.
    """
    tier = tier or s.space_label or "tier"
    new_nodes = []
    for node in d.nodes:
        p = node.projector
        swept_children = []
        whole = False
        for q in s.elements:
            res = balance.results[(p.label, q.label)]
            if res.efficiency is None or res.efficiency.is_zero():
                continue
            if res.status == "aliased":
                # an aliased sweep is the node itself under a new name; keep
                # "Mean" reading as "Mean" instead of "Mean ▷ Mean"
                child_proj = p if q.label == p.label else p.relabel(f"{p.label} ▷ {q.label}")
                whole = True
            else:
                child_proj = sweep(p, q, res, policy, label=f"{p.label} ▷ {q.label}")
                # C is read once: not held while the residual is formed
                balance.results[(p.label, q.label)] = replace(res, c=None)
            homes = (cells_for or {}).get(q.label, ((tier, q.label),))
            cells = tuple((cell_tier, cell_label, child_proj.df) for cell_tier, cell_label in homes)
            entry = LineageEntry(op="sweep", cells=cells, efficiency=res.efficiency)
            swept_children.append(replace(node, projector=child_proj, lineage=node.lineage + (entry,)))
        if not swept_children:
            new_nodes.append(node)
            continue
        new_nodes.extend(swept_children)
        if whole:  # the aliased sweep is all of P (any other Q lies outside it)
            continue
        rem = residual(
            p,
            [c.projector for c in swept_children],
            policy,
            label=f"{p.label} ⊢ {tier}",
        )
        if rem is not None:
            entry = LineageEntry(op="residual", cells=((tier, "Residual", rem.df),))
            new_nodes.append(replace(node, projector=rem, lineage=node.lineage + (entry,)))

    return Decomposition(nodes=new_nodes, n=d.n, label=d.label)


def _principal(pb: Projector, pc: Projector):
    """(Y, cos, ||BC - CB||) for explicit ``pb`` and ``pc``, from one SVD.

    With M = U_b' U_c = Y diag(cos) Z', the cosines are those of the
    principal angles of the two images, and ||BC - CB|| is the largest
    cos * sin over them.  The sines are the column norms of (U_c - U_b M)
    Z, computed directly so that angles near 0 stay exact.
    """
    m = cross(pb, [pc])
    y, cos, zt = np.linalg.svd(m)
    if cos.size == 0:
        return y, cos, 0.0
    z = zt[: cos.size].T
    outside = span(pc, z) - span(pb, mul(m, z))
    sin = np.linalg.norm(outside, axis=0)
    return y, cos, float(np.max(cos * sin))


def joint(b, c, policy: TolerancePolicy = DEFAULT_POLICY) -> Decomposition:
    """Common refinement of two compatible decompositions: nonzero products BC.

    For commuting B and C the image of BC is the span of the principal
    vectors of singular value 1 of U_b' U_c.  Each node pair takes one SVD,
    which both tests that the pair commutes and gives its product.
    """
    b_nodes = b.nodes if isinstance(b, Decomposition) else Decomposition.from_structure(b, b.space_label).nodes
    c_nodes = c.nodes if isinstance(c, Decomposition) else Decomposition.from_structure(c, c.space_label).nodes
    n = b_nodes[0].projector.n if b_nodes else 0
    nodes = []
    for nb in b_nodes:
        pb = nb.projector.explicit()
        for nc in c_nodes:
            y, cos, commutator = _principal(pb, nc.projector.explicit())
            if commutator > policy.tol_zero:
                raise IncompatibilityError(
                    "decompositions do not commute; no joint refinement exists"
                )
            shared = int(np.sum(cos > 0.5))
            if shared == 0:
                continue
            proj = spanned(pb, y[:, :shared], f"{nb.label} ⊓ {nc.label}")
            extra = tuple(e for e in nc.lineage if e not in nb.lineage)
            nodes.append(replace(nb, projector=proj, lineage=nb.lineage + extra))
    out = Decomposition(nodes=nodes, n=n, label="joint")
    # the products BC come from SVDs of node pairs: nothing else checks them as a family
    out.validate(policy)
    return out
