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

Every element is held explicitly in class form, U = NA, or implicitly as
I - WW' on the whole space (see ``projlin``), so all of this runs on C =
U_P' U_Q (df_P x df_Q), formed on class coordinates by ``gram``, and never
on n x n matrices: QPQ = lam*Q holds iff C'C = U_Q' P U_Q = lam*I, the
sweep's basis is P U_Q / sqrt(lam), which for an explicit P is U_P C /
sqrt(lam) on P's own classes, and the residual's is U_P times the
complement of the sweeps' coordinates in R^df_P, or I - [W, sweeps][W,
sweeps]' when P is implicit.  Each test uses a Frobenius norm of a small
matrix, which bounds the largest entry of the n x n quantity it stands for.

Refining every element of a decomposition this way yields the next, finer
decomposition, with each element remembering its lineage for table output.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .projlin import (
    DEFAULT_POLICY,
    EfficiencyValue,
    Projector,
    ProjectorError,
    TolerancePolicy,
    bilinear_of,
    cross,
    family_gram,
    gram,
    gram_defect,
    mul,
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
    "balance_of_sum",
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
    "is_compatible",
    "joint",
    "IncompatibilityError",
]


class LiftingError(ValueError):
    """The allocation cannot carry a tier structure onto the unit space."""


class IncompatibilityError(ValueError):
    """Joint refinement requested for non-commuting decompositions."""


class InternalInconsistencyError(RuntimeError):
    """A quantity that must be non-negative or idempotent came out otherwise."""


def _block_norms(gram: np.ndarray, dfs) -> np.ndarray:
    """Frobenius norm of each (i, j) block of ``gram`` cut by the sizes ``dfs``."""
    edges = np.concatenate(([0], np.cumsum(dfs)[:-1])).astype(np.intp)
    sq = gram * gram
    # along rows first: reduceat over axis 0 of a large C-ordered array is slow
    return np.sqrt(np.add.reduceat(np.add.reduceat(sq, edges, axis=1), edges, axis=0))


def check_blocks(
    defect: np.ndarray,
    members,
    policy: TolerancePolicy,
    what: str = "elements",
    cross_only: bool = False,
) -> None:
    """The block rule on a Gram defect G - I cut by the members' dfs.

    Diagonal blocks (each member orthonormal) must lie within tol_idem, the
    others (members mutually orthogonal) within tol_zero; ``cross_only``
    skips the diagonal.  Raises ValueError naming the first failure,
    diagonal blocks first.
    """
    norms = _block_norms(defect, [m.df for m in members])
    for i, p in enumerate(members):
        if not cross_only and norms[i, i] > policy.tol_idem:
            raise ValueError(f"{p.label}: basis is not orthonormal (gap {norms[i, i]:.3e})")
    for i, j in itertools.combinations(range(len(members)), 2):
        if norms[i, j] > policy.tol_zero:
            raise ValueError(
                f"{what} {members[i].label} and {members[j].label} are not orthogonal "
                f"(cross Gram norm {norms[i, j]:.3e})"
            )


def _check_family(projectors, policy: TolerancePolicy, what: str = "elements") -> None:
    """The block rule on one Gram of the stacked bases of ``projectors``
    (an implicit member in its explicit form)."""
    members = [p.explicit() for p in projectors if p.df > 0]
    if members:
        defect = family_gram(members)
        defect[np.diag_indices_from(defect)] -= 1.0
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
        """One Mean, the df sum, and the block rule on the whole family.

        For tests and callers; the build validates only the families it
        cannot vouch for otherwise (a general lift, a joint refinement).
        """
        n = self.n
        for p in self.elements:
            if p.n != n:
                raise ValueError(f"element {p.label} lives on the wrong space")
        mean_count = sum(p.is_mean(policy) for p in self.elements)
        if mean_count != 1:
            raise ValueError(
                f"structure {self.space_label!r} must contain exactly one Mean "
                f"element, found {mean_count}"
            )
        _check_family(self.elements, policy)
        total_df = sum(p.df for p in self.elements)
        if total_df != self.total.df:
            raise ValueError(
                f"structure {self.space_label!r}: element df sum {total_df} "
                f"!= span df {self.total.df}"
            )


@dataclass
class AllocationMap:
    """Assignment of each row of one space to an object of a tier.

    ``assignment[i]`` is the index into ``objects`` for row i: the design
    matrix X, the 0/1 indicator (rows x objects), held as its column ids.
    ``replication`` is the common column sum when the allocation is
    equireplicate, else None.
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


def _orth_columns(a: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Orthonormal basis of the column span of ``a`` (SVD rank cut)."""
    if a.size == 0:
        return np.zeros((a.shape[0], 0))
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    rank = int(np.sum(s > tol * max(a.shape) * (s[0] if s.size else 1.0)))
    return u[:, :rank]


def lift(
    tier_structure: Structure,
    alloc: AllocationMap,
    policy: TolerancePolicy = DEFAULT_POLICY,
) -> Structure:
    """Carry a tier structure up to the allocation's row space.

    An equireplicate allocation composes class ids: each source's classes
    become ids[assignment] with scales over sqrt(r) (``Projector.carried``),
    the lifted form of (1/r) X Q X', for every r, so nothing is checked and,
    above ``DENSE_ROWS`` rows, nothing is gathered or formed.  With r = 1 an
    implicit source stays I minus its carried listed bases; with r > 1 it,
    and the total, are carried in their explicit form, complemented on the
    tier's m objects.  Anything else must satisfy U_i'
    diag(counts) U_j = 0 for distinct elements, in which case each lifted
    element is the orthonormalised span of X U; a notice marks the general
    route.  Degrees of freedom must survive the trip.

    The composition is an isometry (X'X = rI, and N'N = I on the composed
    classes), so the lifted family has the tier family's Gram, which
    ``source_projectors`` checked; only the general route, whose bases are
    new, checks each lifted basis and validates the lifted structure as a
    whole.
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
    notices = []
    r = alloc.replication
    total_label = f"{alloc.tier} span"
    if r is not None:
        memo: dict = {}
        lifted = [q.carried(rows, r, memo=memo) for q in tier_structure.elements]
        total = tier_structure.total.carried(rows, r, total_label, memo)
    else:
        counts = np.bincount(rows, minlength=m).astype(float)
        elements = tier_structure.elements
        # the tier's own objects: m rows, not the units
        stacked = np.hstack([q.basis for q in elements])
        weighted = mul(stacked.T, stacked * counts[:, None])
        try:
            check_blocks(weighted, elements, policy, what="lifted sources", cross_only=True)
        except ValueError as exc:
            raise LiftingError(
                f"allocation to tier {alloc.tier!r} is not equireplicate and fails "
                f"the lifting condition: {exc}"
            ) from None
        notices.append(
            f"tier {alloc.tier!r}: unequal replication; general lifting applied"
        )
        lifted = [_lifted_projector(_orth_columns(q.basis[rows]), q, policy) for q in elements]
        total = Projector.from_basis(np.hstack([p.basis for p in lifted]), total_label, policy)

    out = Structure(
        elements=lifted,
        total=total,
        space_label=alloc.space_label,
        notices=notices + list(tier_structure.notices),
    )
    if r is None:
        out.validate(policy)
    return out


def _lifted_projector(basis: np.ndarray, q: Projector, policy: TolerancePolicy) -> Projector:
    if basis.shape[1] != q.df:
        raise LiftingError(
            f"lift of {q.label} changed its df from {q.df} to {basis.shape[1]}; "
            "some objects are unreplicated"
        )
    try:
        return Projector.from_basis(basis, q.label, policy)
    except ProjectorError as exc:
        raise LiftingError(f"lift of {q.label} failed: {exc}") from None


# --- first-order balance ----------------------------------------------------


@dataclass(frozen=True)
class BalanceResult:
    """Outcome of one (P, Q) first-order balance test.

    ``status`` is one of ``balanced``, ``orthogonal``, ``aliased`` (lam = 1
    with identical images) or ``unbalanced``; unbalanced results carry the
    distinct nonzero eigenvalues of QPQ with multiplicities.
    """

    status: str
    efficiency: EfficiencyValue | None = None
    eigenvalues: tuple = ()
    residual_norm: float = 0.0

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
    """Test QPQ = lam*Q and report how P and Q sit relative to each other."""
    if q.df == 0:
        raise ValueError(f"source {q.label} has no degrees of freedom")
    if q.implicit:
        gram_, ones = _implicit_gram(p, q)
    else:
        gram_, ones = bilinear_of([q], p), 0
    return _classify(p.label, p.df, q, gram_, policy, ones)


def balance_of_sum(ps: list, q: Projector, policy: TolerancePolicy = DEFAULT_POLICY) -> BalanceResult:
    """``efficiency`` of P = the sum of the mutually orthogonal ``ps`` against Q.

    U_Q'PU_Q is the sum of the U_Q'P_iU_Q, so P itself is never formed.  For
    an implicit Q = I - WW' (W with m columns) it is not formed either: CC'
    = U_P'QU_P = I - E'E with E = W'U_P, and EE' = W'PW is summed over the
    pooled rows, so C'C has the spectrum of the small I - W'PW with df_P - m
    more ones, and df_Q - df_P more zeros.  Where a count is negative,
    that many of the small matrix's eigenvalues, which are then ones or
    zeros, are dropped instead.
    """
    label, df = " + ".join(p.label for p in ps), sum(p.df for p in ps)
    if not (q.implicit and q.parts):
        qe = q.explicit()
        return _classify(label, df, q, sum(bilinear_of([qe], p) for p in ps), policy)
    small = -sum(bilinear_of(q.parts, p) for p in ps)
    small[np.diag_indices_from(small)] += 1.0
    m = small.shape[0]
    if m <= df <= q.df:
        return _classify(label, df, q, small, policy, ones=df - m)
    eigs = np.linalg.eigvalsh(small)  # ascending
    eigs = eigs[max(df - q.df, 0) : eigs.size - max(m - df, 0)]
    return _classify(label, df, q, np.diag(eigs), policy, ones=max(df - m, 0))


def _implicit_gram(p: Projector, q: Projector, side_w: np.ndarray | None = None):
    """(G, ones) for an implicit Q = I - WW': C'C (df_Q x df_Q) has the
    eigenvalues of the small G, ``ones`` more equal to 1 and the rest 0.

    Explicit P: CC' = U_P' Q U_P, and C'C adds zeros.  Implicit P = I - VV':
    C'C = I - E'E with E = V'U_Q and EE' = V' Q V, so G = I - V' Q V and
    C'C adds ones.  When G would be the larger side, Q is taken in its
    explicit form and C'C formed directly.  ``side_w`` is V'W (U_P'W for an
    explicit P) when the caller has it; then V'QV is V'V - (V'W)(V'W)'.
    """
    side = list(p.parts) if p.implicit else [p]
    if sum(v.df for v in side) > q.df:
        return bilinear_of([q.explicit()], p), 0
    if not side:
        g = np.zeros((0, 0))
    elif side_w is not None:
        g = family_gram(side) - mul(side_w, side_w.T)
    else:
        g = bilinear_of(side, q)
    if not p.implicit:
        return g, 0
    g = -g
    g[np.diag_indices_from(g)] += 1.0
    return g, q.df - g.shape[0]


def _through(p: Projector, q: Projector) -> np.ndarray:
    """P U_Q (n x df_Q) for an implicit P on the whole space and explicit Q:
    U_Q minus each listed part's share of it."""
    out = span(q)
    for w in p.parts:
        out = out - span(w, gram(w, q))
    return out


def sweep(
    p: Projector,
    q: Projector,
    lam: float,
    policy: TolerancePolicy = DEFAULT_POLICY,
    label: str | None = None,
) -> Projector:
    """Projector onto Im(PQ), basis P U_Q / sqrt(lam); defined when balance holds.

    For an explicit P that is U_P C / sqrt(lam), held on P's classes."""
    if lam <= policy.tol_zero:
        raise ValueError(f"sweep of {p.label} by {q.label} needs a nonzero efficiency")
    label = label or f"{p.label} ▷ {q.label}"
    q = q.explicit()
    if p.implicit:
        return Projector.from_basis(_through(p, q) / np.sqrt(lam), label, policy)
    return spanned(p, gram(p, q) / np.sqrt(lam), label, policy)


def residual(
    p: Projector,
    swept: list,
    policy: TolerancePolicy = DEFAULT_POLICY,
    label: str | None = None,
) -> Projector | None:
    """P minus its sweeps against one structure; None when nothing is left.

    With S = [U_S1 ... U_Sm] and K'K = S'PS, the sweeps are orthonormal and
    inside P iff K'K = I.  K'K - I is held to tol_idem as a whole and, by
    the block rule, to tol_zero between two sweeps, so the sweeps and the
    residual need no family check afterwards.  An explicit P's residual has
    basis U_P times the orthogonal complement of K = U_P'S in R^df_P, held
    on P's classes.  An implicit P = I - WW' leaves I - [W, S][W, S]' with
    no QR; that is a projector when, besides, W'S vanishes, which is held
    to tol_zero.
    """
    label = label or f"{p.label} residual"
    if not swept:
        return p.relabel(label)
    if p.implicit:
        leak = family_gram(p.parts, swept) if p.parts else np.zeros((0, sum(s.df for s in swept)))
        defect = family_gram(swept) - mul(leak.T, leak)
        defect[np.diag_indices_from(defect)] -= 1.0
    else:
        k = np.hstack([gram(p, s) for s in swept])
        defect = gram_defect(k)
    gap = float(np.linalg.norm(defect))
    # also caps the sweeps' df at df_P: a K wider than tall has gap >= 1
    if gap > policy.tol_idem:
        raise ProjectorError(f"{label}: not idempotent (sweep gap {gap:.3e})")
    # with the checks on each sweep and the residual, this is all refine checks
    try:
        check_blocks(defect, swept, policy, what="sweeps")
    except ValueError as exc:
        raise ProjectorError(f"{label}: {exc}") from None
    if p.implicit:
        outside = float(np.linalg.norm(leak))
        if outside > policy.tol_zero:
            raise ProjectorError(f"{label}: sweeps leave {p.label} (norm {outside:.3e})")
    if sum(s.df for s in swept) == p.df:
        return None
    if p.implicit:
        return Projector.complement_of(list(p.parts) + list(swept), label)
    complement = np.linalg.qr(k, mode="complete")[0][:, k.shape[1]:]
    return spanned(p, complement, label, policy)


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
    for every (row, column) label pair, and U_Q' P U_Q for each such pair
    with Q explicit and not orthogonal to P."""

    structure_label: str
    against_label: str
    violations: list
    results: dict = field(default_factory=dict)
    blocks: dict = field(default_factory=dict)

    def __bool__(self) -> bool:
        return bool(self.violations)

    def balance_of_pooled(self, ps: list, q: Projector, policy: TolerancePolicy = DEFAULT_POLICY):
        """``balance_of_sum`` of rows ``ps`` against column ``q``; sums stored blocks if explicit."""
        if q.implicit:
            return balance_of_sum(ps, q, policy)
        gram = sum(self.blocks[(p.label, q.label)] for p in ps)
        return _classify(" + ".join(p.label for p in ps), sum(p.df for p in ps), q, gram, policy)

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

    For each row P one Gram S'PS of the stacked explicit bases S = [U_Q1
    ... U_Qk] (``bilinear_of``, on class coordinates) holds C'C for every
    source: the diagonal blocks are the per-source C_i'C_i of the
    first-order test, the others the C_a'C_b of the distinctness test.  An
    implicit source Q (at most one, the largest) takes its first-order test
    from ``_implicit_gram`` and its distinctness blocks from the norms of
    Q P S, since U_Q'PU_Qa has the norm of Q P U_Qa.
    """
    rows = _elements_of(against)
    # Only the largest stratum as source_projectors and lift make it, I - WW'
    # listing every other source, is held; any other implicit source is
    # taken in its explicit form.
    explicit = [q for q in s.elements if not q.implicit]
    cols = [q if not q.implicit or _lists(q, explicit) else q.explicit() for q in s.elements]
    plain = [i for i, q in enumerate(cols) if not q.implicit]
    held = [i for i, q in enumerate(cols) if q.implicit]
    stacked = [cols[i] for i in plain]
    dfs = [q.df for q in stacked]
    edges = np.concatenate(([0], np.cumsum(dfs))).astype(np.intp)
    family = None  # S'S, formed once for the implicit rows
    on_classes: dict = {}  # S's coordinates on each row's classes
    violations = []
    results = {}
    blocks = {}  # kept for the report only; dropped when the check passes
    for p in rows:
        norms = np.zeros((len(cols), len(cols)))
        res_of = {}
        if stacked:
            # c = V'S for P's side V: its basis, or the listed bases of an implicit P
            side = list(p.parts) if p.implicit else [p]
            if side:
                c = np.vstack([cross(v, stacked, on_classes) for v in side])
            else:
                c = np.zeros((0, edges[-1]))
            if p.implicit:
                if family is None:
                    family = family_gram(stacked)
                gram_ = family - mul(c.T, c)
            else:
                gram_ = mul(c.T, c)
            norms[np.ix_(plain, plain)] = _block_norms(gram_, dfs)
        for k, i in enumerate(plain):
            block = gram_[edges[k] : edges[k + 1], edges[k] : edges[k + 1]]
            res_of[i] = _classify(p.label, p.df, cols[i], block, policy)
            if res_of[i].status != "orthogonal":
                blocks[(p.label, cols[i].label)] = block
        for i in held:
            small, ones = _implicit_gram(p, cols[i], c if stacked else None)
            res_of[i] = _classify(p.label, p.df, cols[i], small, policy, ones)
            if stacked:
                meet = _meet_norms(cols[i], p, stacked, gram_, c, policy.tol_zero)
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
            blocks=blocks,
        )
    em = EfficiencyMatrix(
        rows=[p.label for p in rows],
        cols=[q.label for q in cols],
        results=results,
    )
    em.validate_column_sums(policy)
    return em


def _lists(q: Projector, xs: list) -> bool:
    """Does the implicit ``q`` list exactly the projectors ``xs``, in order?"""
    return len(q.parts) == len(xs) and all(a is b for a, b in zip(q.parts, xs))


def _col_block_norms(c: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Frobenius norm of each column block of ``c`` cut at ``edges``."""
    if c.shape[0] == 0:
        return np.zeros(edges.size - 1)
    return np.sqrt(np.add.reduceat((c * c).sum(axis=0), edges[:-1]))


def _meet_norms(
    q: Projector, p: Projector, xs: list, xs_p_xs: np.ndarray, c: np.ndarray, tol: float
) -> np.ndarray:
    """||Q P U_x||_F for each explicit x in ``xs``, where Q = I - WW' lists
    exactly ``xs``; with X = [U_x1 ... U_xk], ``xs_p_xs`` is X'PX and ``c``
    is V'X for P's side V (U_P, or the listed bases of an implicit P).

    QPX = PX - W(W'PX) is formed on the rows, W'PX being ``xs_p_xs``; for an
    implicit P = I - VV' it is -QV(V'X), since QX = 0, so no basis of X is
    formed.  Only the columns of an x whose bound on the norm, ||V'U_x||_F,
    passes ``tol`` are formed; the others read 0, being within ``tol`` of it.
    """
    edges = np.concatenate(([0], np.cumsum([x.df for x in xs]))).astype(np.intp)
    keep = np.flatnonzero(_col_block_norms(c, edges) > tol)
    norms = np.zeros(len(xs))
    if keep.size == 0:
        return norms
    cols = np.concatenate([np.arange(edges[i], edges[i + 1]) for i in keep])
    if p.implicit:
        starts = np.cumsum([0] + [v.df for v in p.parts])
        y = -sum(span(v, c[starts[j] : starts[j + 1], cols]) for j, v in enumerate(p.parts))
        wy = -mul(c.T, c[:, cols])
    else:
        y, wy = span(p, c[:, cols]), xs_p_xs[:, cols]
    for x, a, b in zip(q.parts, edges[:-1], edges[1:]):
        y = y - span(x, wy[a:b])
    kept_edges = np.concatenate(([0], np.cumsum(np.diff(edges)[keep]))).astype(np.intp)
    norms[keep] = _col_block_norms(y, kept_edges)
    return norms


def _classify(p_label, p_df, q, gram, policy, ones: int = 0) -> BalanceResult:
    """Classify (P, Q) from gram = C'C, C = U_P' U_Q.

    lam = trace(C'C) / df_Q = trace(QPQ) / trace(Q).  QPQ - lam*Q is
    U_Q (C'C - lam*I) U_Q', so the Frobenius norm of C'C - lam*I bounds its
    largest entry; QPQ is U_Q C'C U_Q', bounded the same way.  A ``gram``
    smaller than df_Q stands for C'C with ``ones`` of its missing
    eigenvalues equal to 1 and the rest equal to 0 (see ``_implicit_gram``
    and ``balance_of_sum``); each norm then adds their share.
    """
    zeros = q.df - gram.shape[0] - ones
    lam = (float(np.trace(gram)) + ones) / q.df
    if abs(lam) <= policy.tol_zero:
        gap = float(np.hypot(np.linalg.norm(gram), np.sqrt(ones)))
        if gap <= policy.tol_idem:
            return BalanceResult(status="orthogonal", efficiency=EfficiencyValue(0.0, (0, 1)))
        # QPQ is positive semidefinite, so a vanishing trace alongside
        # non-vanishing entries signals numerical breakdown, not imbalance
        raise InternalInconsistencyError(
            f"QPQ for ({p_label}, {q.label}) has zero trace but norm {gap:.3e}"
        )
    shifted = gram - lam * np.eye(gram.shape[0])
    gap = np.hypot(np.linalg.norm(shifted), lam * np.sqrt(zeros))
    gap = float(np.hypot(gap, (1.0 - lam) * np.sqrt(ones)))
    if gap <= policy.tol_idem:
        value = snap_rational(lam, policy)
        if 1.0 - lam <= policy.tol_zero:
            value = EfficiencyValue(1.0, (1, 1))
            # C'C = I with C square: the two images coincide
            if p_df == q.df:
                return BalanceResult(status="aliased", efficiency=value)
        return BalanceResult(status="balanced", efficiency=value, residual_norm=gap)
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
        total_df = sum(node.df for node in self.nodes)
        if total_df != self.n:
            raise ValueError(
                f"decomposition df sum {total_df} != space dimension {self.n}"
            )
        mean_count = sum(node.projector.is_mean(policy) for node in self.nodes)
        if mean_count != 1:
            raise ValueError(f"decomposition must have exactly one Mean node, found {mean_count}")
        _check_family([node.projector for node in self.nodes], policy, what="nodes")

    @classmethod
    def from_structure(cls, s: Structure, tier: str) -> "Decomposition":
        nodes = [
            DecompNode(
                projector=p,
                origin_tier=tier,
                origin_source=p.label,
                origin_df=p.df,
                lineage=(),
            )
            for p in s.elements
        ]
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
    and route is read from it here.  Nodes completely orthogonal to ``s``
    pass through untouched; a node that is partly swept gains a residual
    child for whatever is left.

    ``cells_for`` optionally maps a structure element's label to the lineage
    cells recorded for sweeps by that element (used when an element carries
    labels from two tiers after a collapsed double randomization).

    The refined family is not validated again as a whole; each property is
    checked where it is made.  Every sweep and residual has its basis
    checked orthonormal (on class coordinates when it is held on classes).
    ``residual`` proves the sweeps of one node orthonormal, inside it and
    mutually orthogonal, and the residual is their exact complement there.
    Children of different nodes are U_P A with ||A||_2 = 1, so they inherit
    their parents' orthogonality to first order.  The df sum and the single
    Mean hold by construction.
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
            lam = res.efficiency.value
            if res.status == "aliased":
                # an aliased sweep is the node itself under a new name; keep
                # "Mean" reading as "Mean" instead of "Mean ▷ Mean"
                child_proj = p if q.label == p.label else p.relabel(f"{p.label} ▷ {q.label}")
                whole = True
            else:
                child_proj = sweep(p, q, lam, policy, label=f"{p.label} ▷ {q.label}")
            cells = None
            if cells_for and q.label in cells_for:
                cells = tuple(
                    (cell_tier, cell_label, child_proj.df)
                    for cell_tier, cell_label in cells_for[q.label]
                )
            if cells is None:
                cells = ((tier, q.label, child_proj.df),)
            entry = LineageEntry(op="sweep", cells=cells, efficiency=res.efficiency)
            swept_children.append(
                DecompNode(
                    projector=child_proj,
                    origin_tier=node.origin_tier,
                    origin_source=node.origin_source,
                    origin_df=node.origin_df,
                    lineage=node.lineage + (entry,),
                )
            )
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
            entry = LineageEntry(
                op="residual", cells=((tier, "Residual", rem.df),), efficiency=None
            )
            new_nodes.append(
                DecompNode(
                    projector=rem,
                    origin_tier=node.origin_tier,
                    origin_source=node.origin_source,
                    origin_df=node.origin_df,
                    lineage=node.lineage + (entry,),
                )
            )

    return Decomposition(nodes=new_nodes, n=d.n, label=d.label)


def _principal(pb: Projector, pc: Projector):
    """(Y, cos, ||BC - CB||) for explicit ``pb`` and ``pc``, from one SVD.

    With M = U_b' U_c = Y diag(cos) Z', the cosines are those of the
    principal angles of the two images, and ||BC - CB|| is the largest
    cos * sin over them.  The sines are the column norms of (U_c - U_b M)
    Z, computed directly so that angles near 0 stay exact.
    """
    m = gram(pb, pc)
    y, cos, zt = np.linalg.svd(m)
    if cos.size == 0:
        return y, cos, 0.0
    z = zt[: cos.size].T
    outside = span(pc, z) - span(pb, mul(m, z))
    sin = np.linalg.norm(outside, axis=0)
    return y, cos, float(np.max(cos * sin))


def is_compatible(b, c, policy: TolerancePolicy = DEFAULT_POLICY) -> bool:
    """True when every element of ``b`` commutes with every element of ``c``.

    Two projectors commute iff every singular value of U_b' U_c is 0 or 1.
    """
    for pb in _elements_of(b):
        for pc in _elements_of(c):
            if _principal(pb.explicit(), pc.explicit())[2] > policy.tol_zero:
                return False
    return True


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
            proj = spanned(pb, y[:, :shared], f"{nb.label} ⊓ {nc.label}", policy)
            extra = tuple(
                e for e in nc.lineage if e not in nb.lineage
            )
            nodes.append(
                DecompNode(
                    projector=proj,
                    origin_tier=nb.origin_tier,
                    origin_source=nb.origin_source,
                    origin_df=nb.origin_df,
                    lineage=nb.lineage + extra,
                )
            )
    out = Decomposition(nodes=nodes, n=n, label="joint")
    # the products BC come from SVDs of node pairs: nothing else checks them as a family
    out.validate(policy)
    return out
