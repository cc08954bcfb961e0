"""Tier formulas: parsing, source posets, and orthogonal source projectors.

A tier's factors combine through a small formula language: ``*`` crosses,
``/`` nests, parentheses group, and ``/`` binds tighter than ``*`` (so
``A*B/C`` crosses A with the nest B/C).  Expanding a formula yields the
tier's generalized factors: subsets of factor names ordered by marginality.
Each generalized factor F owns an averaging matrix M_F (block-average over
its level classes) and a source projector

    P_F = M_F - sum of P_G over all G strictly below F,

with degrees of freedom following the same recursion on class counts.  The
recursion is the standard Hasse-diagram method; it produces a complete set
of mutually orthogonal idempotents whenever the tier's partitions form an
orthogonal (geometrically balanced) system, and the construction validates
exactly that, so a tier whose partitions fail the property is rejected with
the offending pair named.  The build never forms M_F: it holds the
normalised class indicators N_F (M_F = N_F N_F') as class ids and class
sizes (``projlin.Classes``), and holds each source as N_F times the
orthogonal complement of N_F' U_low in class space, where U_low stacks the
lower sources; no n-row basis is formed.

Marginality can be declared (constituent-set inclusion) or observed: when
unit-level data is attached, G < F holds iff F's observed level classes
refine G's.  Observed marginality is what lets pseudofactors participate:
a pseudofactor is an extra poset term whose partition is exactly its data
column, sitting wherever class refinement places it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .projlin import (
    DEFAULT_POLICY,
    Classes,
    Projector,
    TolerancePolicy,
    coords,
    family_gram,
    gram_defect,
)
from .structure import Structure, check_blocks

__all__ = [
    "Factor",
    "PseudofactorDecl",
    "FormulaError",
    "Leaf",
    "Cross",
    "Nest",
    "parse_formula",
    "GeneralizedFactor",
    "SourcePoset",
    "expand_terms",
    "averaging_matrix",
    "source_projectors",
]


class FormulaError(ValueError):
    """Formula syntax or expansion failure; carries a byte offset when parsing."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (at offset {offset})"
        super().__init__(message)
        self.offset = offset


@dataclass(frozen=True)
class Factor:
    """A declared factor: a name and the number of levels it was declared with."""

    name: str
    levels: int

    def __post_init__(self) -> None:
        if self.levels < 1:
            raise ValueError(f"factor {self.name}: levels must be >= 1")


@dataclass(frozen=True)
class PseudofactorDecl:
    """A pseudofactor: named column that splits a declared source."""

    name: str
    levels: int
    splits: str


# --- formula AST -----------------------------------------------------------


@dataclass(frozen=True)
class Leaf:
    name: str


@dataclass(frozen=True)
class Cross:
    parts: tuple


@dataclass(frozen=True)
class Nest:
    outer: object
    inner: object


_IDENT_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_IDENT_CONT = _IDENT_START | set("0123456789")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "*/()":
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch in _IDENT_START:
            j = i + 1
            while j < len(text) and text[j] in _IDENT_CONT:
                j += 1
            tokens.append(("ident", text[i:j], i))
            i = j
            continue
        raise FormulaError(f"unexpected character {ch!r}", offset=i)
    return tokens


class _Parser:
    def __init__(self, tokens, text_len, declared=None):
        self.tokens = tokens
        self.pos = 0
        self.text_len = text_len
        self.declared = None if declared is None else set(declared)

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        if tok is None:
            raise FormulaError("unexpected end of formula", offset=self.text_len)
        self.pos += 1
        return tok

    def expr(self):
        parts = [self.term()]
        while self.peek() and self.peek()[0] == "*":
            self.take()
            parts.append(self.term())
        if len(parts) == 1:
            return parts[0]
        flat = []
        for p in parts:
            flat.extend(p.parts if isinstance(p, Cross) else [p])
        return Cross(parts=tuple(flat))

    def term(self):
        node = self.atom()
        while self.peek() and self.peek()[0] == "/":
            self.take()
            node = Nest(outer=node, inner=self.atom())
        return node

    def atom(self):
        kind, value, offset = self.take()
        if kind == "ident":
            if self.declared is not None and value not in self.declared:
                raise FormulaError(f"undeclared factor {value!r}", offset=offset)
            return Leaf(name=value)
        if kind == "(":
            node = self.expr()
            tok = self.peek()
            if tok is None or tok[0] != ")":
                raise FormulaError("missing closing parenthesis", offset=offset)
            self.take()
            return node
        raise FormulaError(f"unexpected token {value!r}", offset=offset)


def parse_formula(text: str, declared=None):
    """Parse a tier formula into an AST of Leaf/Cross/Nest nodes.

    ``declared``, when given, is the collection of known factor names;
    identifiers outside it raise with the byte offset of the mention.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise FormulaError("empty formula", offset=0)
    parser = _Parser(tokens, len(text), declared)
    node = parser.expr()
    leftover = parser.peek()
    if leftover is not None:
        raise FormulaError(f"unexpected token {leftover[1]!r}", offset=leftover[2])
    return node


def _ast_factors(node) -> set[str]:
    if isinstance(node, Leaf):
        return {node.name}
    if isinstance(node, Cross):
        out: set[str] = set()
        for p in node.parts:
            out |= _ast_factors(p)
        return out
    if isinstance(node, Nest):
        return _ast_factors(node.outer) | _ast_factors(node.inner)
    raise TypeError(f"not a formula node: {node!r}")


# --- generalized factors and posets ---------------------------------------


@dataclass(frozen=True)
class GeneralizedFactor:
    """A source term: the set of factors whose combination defines its classes.

    ``base`` and ``context`` split the constituents for display only: context
    factors arrived through nesting and render inside brackets ("B[A]").
    Identity is the constituent set alone.
    """

    constituents: frozenset
    base: frozenset
    context: frozenset
    is_pseudo: bool = False

    def __eq__(self, other):
        if not isinstance(other, GeneralizedFactor):
            return NotImplemented
        return self.constituents == other.constituents

    def __hash__(self):
        return hash(self.constituents)


UNIVERSE = GeneralizedFactor(
    constituents=frozenset(), base=frozenset(), context=frozenset()
)


@dataclass
class SourcePoset:
    """Terms of one tier ordered by marginality, with df bookkeeping.

    ``below`` maps each term's constituents to the constituent-sets of every
    term strictly below it (not just covering relations).  ``nlevels`` is the
    class count the df recursion starts from: declared products before data is
    attached, observed distinct combinations after.  ``ids`` maps each term's
    constituents to its class id per row once data is attached.
    """

    terms: list
    below: dict
    nlevels: dict
    df: dict
    factor_order: tuple
    factors: dict
    notices: list = field(default_factory=list)
    has_data: bool = False
    ids: dict = field(default_factory=dict)

    def term(self, constituents) -> GeneralizedFactor:
        key = frozenset(constituents)
        for t in self.terms:
            if t.constituents == key:
                return t
        raise KeyError(f"no term with constituents {sorted(key)}")

    def finest(self) -> GeneralizedFactor:
        """The term whose classes refine every other term's classes."""
        for t in self.terms:
            if all(
                s.constituents == t.constituents
                or s.constituents in self.below[t.constituents]
                for s in self.terms
            ):
                return t
        raise FormulaError("poset has no finest term refining all others")

    def maximal_below(self, term: GeneralizedFactor) -> list:
        """Hasse lower neighbours of ``term``."""
        lows = self.below[term.constituents]
        out = []
        for c in lows:
            if any(c in self.below[d] for d in lows if d != c):
                continue
            out.append(self.term(c))
        return out

    def label(self, term: GeneralizedFactor, ascii_only: bool = False) -> str:
        return render_label(self, term, ascii_only=ascii_only)

    def labels(self) -> dict:
        return {t.constituents: self.label(t) for t in self.terms}


def _fold_cross(acc, new):
    """Combine term lists of two crossed subformulas."""
    merged = []
    for a in acc:
        for b in new:
            if (a.constituents & b.constituents):
                raise FormulaError(
                    "duplicate term: factor appears on both sides of a crossing"
                )
            merged.append(
                GeneralizedFactor(
                    constituents=a.constituents | b.constituents,
                    base=a.base | b.base,
                    context=a.context | b.context,
                )
            )
    return acc + new + merged


def _expand(node) -> list:
    if isinstance(node, Leaf):
        return [
            GeneralizedFactor(
                constituents=frozenset({node.name}),
                base=frozenset({node.name}),
                context=frozenset(),
            )
        ]
    if isinstance(node, Cross):
        acc = _expand(node.parts[0])
        for part in node.parts[1:]:
            acc = _fold_cross(acc, _expand(part))
        return acc
    if isinstance(node, Nest):
        outer_terms = _expand(node.outer)
        outer_all = frozenset(_ast_factors(node.outer))
        inner_factors = _ast_factors(node.inner)
        if outer_all & inner_factors:
            raise FormulaError(
                "duplicate term: factor reused on both sides of a nesting"
            )
        nested = [
            GeneralizedFactor(
                constituents=t.constituents | outer_all,
                base=t.base,
                context=t.context | outer_all,
            )
            for t in _expand(node.inner)
        ]
        return outer_terms + nested
    raise TypeError(f"not a formula node: {node!r}")


def expand_terms(ast, factors: list) -> SourcePoset:
    """Expand a formula AST into the tier's source poset.

    Degrees of freedom use declared level counts (full-factorial class
    counts); attaching data later recomputes them from observed classes.
    Factors declared with one level contribute nothing beyond the Mean and
    are stripped with a notice.
    """
    by_name = {f.name: f for f in factors}
    used = _ast_factors(ast)
    unknown = used - set(by_name)
    if unknown:
        raise FormulaError(f"undeclared factor {sorted(unknown)[0]!r}")

    notices = []
    degenerate = {f.name for f in factors if f.levels == 1 and f.name in used}
    for name in sorted(degenerate):
        notices.append(f"factor {name} has a single level; it adds no source")

    raw = _expand(ast)
    terms: list[GeneralizedFactor] = [UNIVERSE]
    seen = {frozenset()}
    for t in raw:
        stripped = GeneralizedFactor(
            constituents=frozenset(t.constituents - degenerate),
            base=frozenset(t.base - degenerate),
            context=frozenset(t.context - degenerate),
        )
        if stripped.constituents in seen:
            continue
        seen.add(stripped.constituents)
        terms.append(stripped)

    terms.sort(key=lambda t: len(t.constituents))  # stable: appearance order kept

    below = {
        t.constituents: {
            s.constituents
            for s in terms
            if s.constituents < t.constituents
        }
        for t in terms
    }
    nlevels = {
        t.constituents: math.prod(by_name[f].levels for f in t.constituents)
        for t in terms
    }
    poset = SourcePoset(
        terms=terms,
        below=below,
        nlevels=nlevels,
        df={},
        factor_order=tuple(f.name for f in factors),
        factors=by_name,
        notices=notices,
    )
    _recompute_df(poset)
    return poset


def _recompute_df(poset: SourcePoset) -> None:
    order = sorted(poset.terms, key=lambda t: len(poset.below[t.constituents]))
    df = {}
    for t in order:
        d = poset.nlevels[t.constituents] - sum(
            df[c] for c in poset.below[t.constituents]
        )
        if d < 0:
            raise FormulaError(
                f"negative degrees of freedom for term {poset.label(t)}; "
                "the declared marginality is inconsistent with the level counts"
            )
        df[t.constituents] = d
    poset.df = df


def _class_ids(columns: dict, names, n: int):
    """Class index per row for the joint partition of the columns ``names``.

    Classes are numbered in order of first appearance; returns (ids, keys)
    with keys[c] the tuple of labels of class c.
    """
    seen: dict = {}
    keys = zip(*(columns[name] for name in names)) if names else [()] * n
    ids = np.fromiter((seen.setdefault(k, len(seen)) for k in keys), dtype=np.intp, count=n)
    return ids, list(seen)


def _refines(fine: np.ndarray, coarse: np.ndarray) -> bool:
    """True when every class of ``fine`` lies inside one class of ``coarse``:
    map each fine class to the coarse class of its last row, then compare."""
    if fine.size == 0:
        return True
    to_coarse = np.empty(int(fine.max()) + 1, dtype=coarse.dtype)
    to_coarse[fine] = coarse
    return bool((to_coarse[fine] == coarse).all())


def attach_data(
    poset: SourcePoset,
    columns: dict,
    n: int,
    pseudofactors: list | None = None,
) -> SourcePoset:
    """Recompute marginality, class counts, and df from observed data.

    ``columns`` maps factor (and pseudofactor) names to length-``n`` label
    sequences.  Declared pseudofactors join the poset as bare terms here.
    Declared level combinations that never occur are reported as empty
    classes in the notices.
    """
    terms = list(poset.terms)
    for decl in pseudofactors or []:
        if decl.name in {m for t in terms for m in t.constituents}:
            raise FormulaError(f"pseudofactor {decl.name!r} collides with a factor name")
        terms.append(
            GeneralizedFactor(
                constituents=frozenset({decl.name}),
                base=frozenset({decl.name}),
                context=frozenset(),
                is_pseudo=True,
            )
        )

    missing = [
        name
        for t in terms
        for name in sorted(t.constituents)
        if name not in columns
    ]
    if missing:
        raise FormulaError(f"no data column for factor {missing[0]!r}")

    ids = {t.constituents: _class_ids(columns, sorted(t.constituents), n)[0] for t in terms}
    counts = {c: int(v.max()) + 1 if n else 0 for c, v in ids.items()}

    below: dict = {t.constituents: set() for t in terms}
    for f, g in itertools.permutations(terms, 2):
        # g < f iff f's classes refine g's and the partitions differ
        if _refines(ids[f.constituents], ids[g.constituents]):
            if _refines(ids[g.constituents], ids[f.constituents]):
                if counts[f.constituents] == counts[g.constituents]:
                    raise FormulaError(
                        f"terms {poset_label_safe(poset, f)} and "
                        f"{poset_label_safe(poset, g)} induce the same partition; "
                        "aliased terms are not supported"
                    )
            else:
                below[f.constituents].add(g.constituents)

    notices = list(poset.notices)
    for t in terms:
        if t.is_pseudo:
            continue
        declared = math.prod(
            poset.factors[f].levels for f in t.constituents
        ) if t.constituents else 1
        if counts[t.constituents] < declared:
            gap = declared - counts[t.constituents]
            notices.append(
                f"{gap} declared level combination(s) of "
                f"{'#'.join(sorted(t.constituents))} never occur; classes skipped"
            )

    new = SourcePoset(
        terms=sorted(terms, key=lambda t: len(below[t.constituents])),
        below=below,
        nlevels=counts,
        df={},
        factor_order=poset.factor_order
        + tuple(d.name for d in (pseudofactors or [])),
        factors=poset.factors,
        notices=notices,
        has_data=True,
        ids=ids,
    )
    _recompute_df(new)
    return new


def poset_label_safe(poset: SourcePoset, term: GeneralizedFactor) -> str:
    try:
        return render_label(poset, term)
    except Exception:
        return "#".join(sorted(term.constituents)) or "Mean"


def render_label(poset: SourcePoset, term: GeneralizedFactor, ascii_only: bool = False) -> str:
    """Human name of a source: crossing with ``#``, nesting in brackets.

    Pseudofactor terms render as their name, bracketed by their unique Hasse
    lower neighbour when there is exactly one (the nesting the data implies).
    A term sitting above pseudofactor terms carries a remainder mark: the
    pseudofactor's share of its span is carved out by the df recursion.
    """
    wedge = "^" if ascii_only else "∧"
    tack = "-|" if ascii_only else "⊢"
    order = {name: i for i, name in enumerate(poset.factor_order)}

    if not term.constituents:
        return "Mean"

    if term.is_pseudo:
        name = next(iter(term.constituents))
        lows = [t for t in poset.maximal_below(term) if t.constituents]
        if len(lows) == 1 and not lows[0].is_pseudo:
            ctx = sorted(lows[0].constituents, key=lambda f: -order.get(f, 0))
            return f"{name}[{wedge.join(ctx)}]"
        return name

    base = sorted(term.base, key=lambda f: order.get(f, 0))
    text = "#".join(base)
    if term.context:
        ctx = sorted(term.context, key=lambda f: -order.get(f, 0))
        text += f"[{wedge.join(ctx)}]"

    pseudo_lows = [
        t
        for t in poset.terms
        if t.is_pseudo and t.constituents in poset.below[term.constituents]
    ]
    # only the maximal pseudo terms matter for the remainder mark
    pseudo_max = [
        t
        for t in pseudo_lows
        if not any(
            t.constituents in poset.below[u.constituents] for u in pseudo_lows if u != t
        )
    ]
    if pseudo_max:
        names = sorted(next(iter(t.constituents)) for t in pseudo_max)
        text += f" {tack} {wedge.join(names)}"
    return text


def averaging_matrix(term: GeneralizedFactor, columns: dict, n: int) -> np.ndarray:
    """Block-averaging matrix of ``term``'s observed classes.

    M[i, j] = 1/(class size) when rows i and j share the term's level
    combination, else 0.  The universe term gives J/n, a singleton-class
    term gives the identity.  The build never calls this; it is for callers
    that want the dense matrix.
    """
    if n < 1:
        raise ValueError("averaging_matrix needs at least one row")
    ids = _class_ids(columns, sorted(term.constituents), n)[0]
    m = np.zeros((n, n))
    nclasses = int(ids.max()) + 1
    for c in range(nclasses):
        idx = np.flatnonzero(ids == c)
        m[np.ix_(idx, idx)] = 1.0 / len(idx)
    return m


def source_projectors(
    poset: SourcePoset,
    columns: dict,
    n: int,
    policy: TolerancePolicy = DEFAULT_POLICY,
    space_label: str = "",
) -> Structure:
    """Build the tier's complete orthogonal structure from its poset, in class form.

    Walks the poset bottom-up.  Each term F has normalised class indicators
    N_F (``Classes``, from the class ids ``attach_data`` recorded).  The
    lower sources, stacked in build order, must have orthonormal
    coordinates A = N_F' U_low (they sit inside span(N_F) by construction,
    so A'A = I says exactly that they are mutually orthogonal); the source
    is held as N_F times the complement of A's columns in R^m_F, from a
    complete QR, and no n-row basis is formed.  At a finest term with one
    row per class N_F = I, and the source is held implicitly as I minus the
    lower sources, with no QR, as is the structure's total, I.  (A finest
    term that does not separate the rows would make the total N_F I_m,
    explicit.)  Zero-df sources (all df absorbed below) are dropped with a
    notice.  Failure of orthogonality means the tier's partitions do not
    form an orthogonal system and is reported as such.

    A'A - I is held to tol_idem as a whole and to the block rule of
    ``Structure.validate``.  The finest term lies above every other, so its
    A'A is the Gram of every source but its own, which is their complement;
    it is formed block by block on class coordinates, A_G'(N_G'N_H)A_H, and
    that check covers the whole structure, each source's own orthonormality
    included.  The Mean is the universe term and the df sum holds by
    construction, so the result is not validated again.
    """
    if not poset.has_data:
        poset = attach_data(poset, columns, n)
    order = sorted(poset.terms, key=lambda t: len(poset.below[t.constituents]))
    built: dict = {}
    elements = []
    notices = list(poset.notices)
    for t in order:
        classes = Classes(poset.ids[t.constituents])
        # one row per class: N_F = I, with ids numbering the rows in order
        whole = classes.m == n
        label = poset.label(t)
        below = poset.below[t.constituents]
        lows = [built[c] for c in built if c in below]
        low_df = sum(q.df for q in lows)
        if lows:
            if whole:
                defect = family_gram(lows)
                defect[np.diag_indices_from(defect)] -= 1.0
            else:
                low_coords = np.hstack([coords(q, classes) for q in lows])
                defect = gram_defect(low_coords)
            gap = float(np.linalg.norm(defect))
            if gap > policy.tol_idem:
                raise FormulaError(
                    f"source {label} is not a projector (sources below it overlap, "
                    f"gap {gap:.3e}); the tier's partitions are not orthogonal"
                )
            # at the finest term this is the family check of the structure and its equireplicate lifts
            try:
                check_blocks(defect, lows, policy)
            except ValueError as exc:
                raise FormulaError(f"tier {space_label or 'tier'}: {exc}") from None
        df = classes.m - low_df
        if poset.df[t.constituents] == 0:
            if df != 0:
                raise FormulaError(
                    f"source {label}: zero df but {df} dimensions remain; "
                    "the tier's partitions are not orthogonal"
                )
            notices.append(f"source {label} has no degrees of freedom; dropped")
            continue
        if df != poset.df[t.constituents]:
            raise FormulaError(
                f"source {label}: trace {df} disagrees with the Hasse "
                f"df {poset.df[t.constituents]}"
            )
        if whole:
            proj = Projector.complement_of(lows or np.zeros((n, 0)), label)
        else:
            if lows:
                complement = np.linalg.qr(low_coords, mode="complete")[0][:, low_df:]
            else:
                complement = np.eye(classes.m)
            # checked with every other source at the finest term, above
            proj = Projector.on_classes(classes, complement, label)
        built[t.constituents] = proj
        elements.append(proj)

    finest = Classes(poset.ids[poset.finest().constituents])
    total_label = f"{space_label or 'tier'} span"
    if finest.m == n:
        total = Projector.complement_of(np.zeros((n, 0)), total_label)
    else:
        total = Projector.on_classes(finest, np.eye(finest.m), total_label)
    return Structure(
        elements=elements,
        total=total,
        space_label=space_label,
        notices=notices,
    )
