"""Projectors in class form and the shared tolerance policy.

Everything downstream works with plain float64 numpy arrays.  Every
subspace the build makes lies in the span of the class indicators of a
few generalized factors, so an explicit projector is held as a short list
of terms, U = N_1 A_1 + ... + N_k A_k, each on normalised class indicators
N (``Classes``: class ids and scales, n x m) with a small coefficient
block A (m x df), and no term's classes refine another's.  Every space,
whatever its size, holds its explicit bases this one way: a basis that
really is dense is one term on the identity partition, N = I with one
row per class.  A tier source or a sweep of an explicit node is one term
on its own classes; a sweep of I - WW' is U_Q minus its listed parts'
shares, one term on Q's classes and one on each group of nested part
classes that it fills.  The one implicit form is P = sum VV' - sum WW',
held by its sides (``sides``): a plus side of explicit bases V and its
listed explicit bases W, all mutually orthogonal but each W inside
span(V).  Without a plus side it is I - WW' on the whole space, the
largest stratum of a structure; with one it is a residual, its node's
sides minus its sweeps.  A projector is never held as an n x n matrix.
``Projector.of_terms`` and ``complement_of`` take their bases as checked
where they were made (see ``structure.refine`` and
``formula.source_projectors``); ``Projector.from_basis`` is the one
constructor that checks U'U = I itself, and ``Projector.validated`` the
gate for callers holding a symmetric idempotent matrix.  ``coords``
(N'U_p), ``cross`` (U_p'X for stacked bases X), ``family_gram``, ``span``
and ``project`` (P X) sum termwise products through contingency tables
N_F'N_G (``Classes.table``); ``side_cross`` takes V'X for each side
basis V of P, its own basis or the bases it is held by, ``side_gram``
sums their Grams with the sides' signs, and ``bilinear_of`` (X' P Y for
stacked bases) applies either form from them, so the hot kernels need
not know which one they hold.
Efficiency factors are floats in [0, 1] that get snapped to small rationals
when a nearby one exists (block designs produce values like 1/6 or 5/6
exactly, up to rounding).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

__all__ = [
    "TolerancePolicy",
    "DEFAULT_POLICY",
    "EfficiencyValue",
    "Classes",
    "Projector",
    "ProjectorError",
    "EfficiencyRangeError",
    "mul",
    "project",
    "bilinear_of",
    "cross",
    "family_gram",
    "coords",
    "side_cross",
    "span",
    "spanned",
    "folded",
    "df_edges",
    "shift_diagonal",
    "orthocomplement",
    "gram_defect",
    "refines",
    "max_abs",
    "snap_rational",
]


# ``Projector.matrix`` gathers the rows of a class-form projector a block of
# about this many bytes at a time, so that a block stays in cache while its
# terms are summed.
GATHER_BYTES = 1 << 18


class ProjectorError(ValueError):
    """A matrix failed symmetry/idempotency/trace validation."""


class EfficiencyRangeError(ValueError):
    """A candidate efficiency factor fell outside [0, 1] by more than tolerance."""


@dataclass(frozen=True)
class TolerancePolicy:
    """Numerical comparison thresholds used throughout the package.

    All comparisons are absolute (entries of averaging and projection
    matrices live in [-1, 1], so no rescaling is needed).  A test on an n x n
    quantity is made on the Frobenius norm of its basis-form counterpart,
    which bounds every entry of it, so a tolerance never loosens.
    ``tol_eig`` is looser than the entrywise tolerances because eigensolves
    carry more noise than the products they are applied to.
    """

    tol_sym: float = 1e-9
    tol_idem: float = 1e-9
    tol_zero: float = 1e-9
    tol_eig: float = 1e-7
    snap_max_denominator: int = 64

    def __post_init__(self) -> None:
        for name in ("tol_sym", "tol_idem", "tol_zero", "tol_eig"):
            v = getattr(self, name)
            if not (0.0 < v < 1e-3):
                raise ValueError(f"{name} must lie in (0, 1e-3), got {v!r}")
        if self.snap_max_denominator < 1:
            raise ValueError("snap_max_denominator must be a positive integer")

    def replace(self, **kw) -> "TolerancePolicy":
        return replace(self, **kw)


DEFAULT_POLICY = TolerancePolicy()

# Trace of a near-idempotent matrix accumulates ~n rounding terms; this bound
# is far above that and far below the 0.5 used to recognise rank-0 residuals.
TRACE_TOL = 1e-6


@dataclass(frozen=True)
class EfficiencyValue:
    """An efficiency factor: float value plus an optional exact rational form."""

    value: float
    rational: tuple[int, int] | None = None

    def is_zero(self) -> bool:
        return self.rational == (0, 1)

    def is_one(self) -> bool:
        return self.rational == (1, 1)

    def render(self) -> str:
        """``num/den`` when snapped, otherwise 6 significant digits."""
        if self.rational is not None:
            num, den = self.rational
            if den == 1:
                return str(num)
            return f"{num}/{den}"
        return f"{self.value:.6g}"


def snap_rational(x: float, policy: TolerancePolicy = DEFAULT_POLICY) -> EfficiencyValue:
    """Snap ``x`` to the nearest rational with a small denominator.

    The continued-fraction search is bounded by ``policy.snap_max_denominator``;
    a snap only counts when the rational reproduces ``x`` within ``tol_zero``.
    Values outside [0, 1] by more than ``tol_zero`` are rejected, values just
    outside are clamped onto the boundary.
    """
    tol = policy.tol_zero
    if x < -tol or x > 1.0 + tol:
        raise EfficiencyRangeError(f"efficiency factor {x!r} outside [0, 1]")
    x = min(max(x, 0.0), 1.0)
    frac = Fraction(x).limit_denominator(policy.snap_max_denominator)
    if abs(x - float(frac)) <= tol:
        return EfficiencyValue(value=x, rational=(frac.numerator, frac.denominator))
    return EfficiencyValue(value=x, rational=None)


def mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product with an explicit conformance check.

    Plain ``a @ b``; BLAS gives a fixed reduction order for a given build, so
    repeated runs on the same machine produce identical bytes.
    """
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError("mul expects 2-d arrays")
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"dimension mismatch: {a.shape} @ {b.shape}")
    return a @ b


def max_abs(a: np.ndarray) -> float:
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(a)))


def shift_diagonal(a: np.ndarray, value: float) -> np.ndarray:
    """a + value * I, in place, for a square a; returns a.  Steps along the
    flat array, n + 1 entries at a time."""
    a.flat[:: a.shape[0] + 1] += value
    return a


def gram_defect(basis: np.ndarray) -> np.ndarray:
    """U'U - I.  For P = UU' its Frobenius norm bounds every entry of P^2 -
    P = U(U'U - I)U' (to first order), so it is the basis-form idempotence
    test."""
    return shift_diagonal(mul(basis.T, basis), -1.0)


def orthocomplement(x: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of span(x) in R^m,
    for an m x k x of full column rank: the trailing m - k columns of a
    complete QR."""
    return np.linalg.qr(x, mode="complete")[0][:, x.shape[1]:]


def df_edges(xs) -> np.ndarray:
    """Where each projector's columns start in the stacked bases of ``xs``,
    and where the last one ends: 0, df_1, df_1 + df_2, ..."""
    return np.cumsum([0] + [x.df for x in xs], dtype=np.intp)


def _freeze(a: np.ndarray) -> np.ndarray:
    if not a.flags.owndata:
        a = a.copy()
    a.flags.writeable = False
    return a


class Classes:
    """Normalised class indicators N (n x m) of a partition of n rows.

    Row i lies in class ``ids[i]``, and N[i, ids[i]] = ``scale[ids[i]]``.
    With scale = 1/sqrt(class size), N'N = I, so NA has orthonormal columns
    exactly when A has; a lift keeps that with scale/sqrt(r) on classes r
    times larger.  Every class must be non-empty.  The arrays are read-only,
    and contingency tables against other partitions are cached.
    """

    __slots__ = ("ids", "scale", "n", "m", "_sorted", "_tables")

    def __init__(self, ids, scale=None):
        ids = np.asarray(ids, dtype=np.intp)
        if scale is None:
            scale = 1.0 / np.sqrt(np.bincount(ids))
        self.ids = _freeze(ids)
        self.scale = _freeze(np.asarray(scale, dtype=np.float64))
        self.n = self.ids.size
        self.m = self.scale.size
        self._sorted = None
        self._tables: dict = {}

    def carried(self, rows: np.ndarray, factor: float) -> "Classes":
        """The partition of a space whose row i is row ``rows[i]`` here, each
        class ``1/factor**2`` times larger."""
        return Classes(self.ids[rows], self.scale * factor)

    def down(self, x: np.ndarray) -> np.ndarray:
        """N'x (m x c): per-class sums of the rows of x, times scale."""
        if self._sorted is None:
            order = np.argsort(self.ids, kind="stable")
            self._sorted = (order, np.searchsorted(self.ids[order], np.arange(self.m)))
        order, starts = self._sorted
        return np.add.reduceat(x[order], starts, axis=0) * self.scale[:, None]

    def up(self, y: np.ndarray) -> np.ndarray:
        """N y (n x c): row i is row ids[i] of y, times its scale."""
        return (y * self.scale[:, None])[self.ids]

    def table(self, other: "Classes") -> np.ndarray:
        """N'N_other (m x other.m), the scaled contingency table: one bincount.

        Cached on one side only, so that two partitions never hold each other
        and are freed by reference counting."""
        t = self._tables.get(other)
        if t is None:
            t = other._tables.get(self)
            if t is not None:
                return t.T
            counts = np.bincount(self.ids * other.m + other.ids, minlength=self.m * other.m)
            t = counts.reshape(self.m, other.m) * self.scale[:, None] * other.scale
            self._tables[other] = t
        return t


def refines(fine: np.ndarray, coarse: np.ndarray) -> bool:
    """True when every class of the ids ``fine`` lies inside one class of
    the ids ``coarse`` (on the same rows): map each fine class to the coarse
    class of its last row, then compare.  Class ids lie below the number of
    rows, as every class is non-empty."""
    to_coarse = np.empty(fine.size, dtype=coarse.dtype)
    to_coarse[fine] = coarse
    return bool((to_coarse[fine] == coarse).all())


@dataclass(frozen=True, eq=False)
class Projector:
    """An orthogonal projector with a label, held in one of two forms.

    Explicit: P = UU' with U = N_1 A_1 + ... + N_k A_k, a short list of
    terms, each on normalised class indicators N (``Classes``, n x m) with
    a coefficient block A (m x df); a dense basis is one term on the
    identity partition (m = n).  A source on its own classes is one term,
    with A orthonormal.  The N of different terms are not orthogonal to
    each other, so U'U sums the termwise products A_s'(N_s'N_t)A_t; no
    term's classes refine another's (``of_terms``).  Implicit: P = VV' -
    WW', V the stacked bases of a plus side of explicit projectors and W
    those of its listed parts, all mutually orthogonal, each part inside
    span(V), so df = df_V minus theirs; without a plus side V V' is I on
    the whole space.  I - WW' is the largest stratum of a structure, and
    of its lifts with r = 1; a lift with r > 1 carries its explicit form
    instead.  With a plus side it is a residual (``structure.residual``).
    ``project`` and ``bilinear_of`` apply either form, working on class
    coordinates, so no n-row basis is formed for them.

    ``matrix`` forms UU', or VV' - WW', on first use with no n-row basis:
    row i of UU' is the sum over terms t of row ids_t[i] of the core R_t =
    sum_s (B_t B_s')[:, ids_s] (m_t x n, B = diag(scale) A), gathered a
    block of rows at a time.  An implicit P takes one core per group of
    sides held on the same classes, each side's B_t with its sign, +1 for
    the plus side and -1 for a part; the NN' of a group of parts that
    fills its classes N (``folded``) on the pairs of rows in one class, a
    bounded chunk of pairs at a time (``_same_class``); a first side's
    matrix when that is formed already and alone on its classes; and I
    when it has no plus side.  All arrays are read-only and cached, and so
    are the coordinates that ``coords`` takes.
    """

    label: str
    _n: int = field(default=0, repr=False)
    _terms: tuple | None = field(default=None, repr=False)
    _parts: tuple | None = field(default=None, repr=False)
    _plus: tuple | None = field(default=None, repr=False)
    _matrix: np.ndarray | None = field(default=None, repr=False)
    _explicit: "Projector | None" = field(default=None, repr=False)
    _df: int | None = field(default=None, repr=False)
    _pieces: tuple | None = field(default=None, repr=False)
    _folded: tuple | None = field(default=None, repr=False)
    _coords: dict = field(default_factory=dict, repr=False)

    @classmethod
    def from_basis(
        cls,
        basis: np.ndarray,
        label: str,
        policy: TolerancePolicy = DEFAULT_POLICY,
    ) -> "Projector":
        """Projector onto the span of a dense ``basis``, checked as U'U = I
        within tol_idem: the one constructor that checks its basis.

        The basis is copied, so the caller's array is left writeable."""
        basis = np.array(basis, dtype=np.float64)
        if basis.ndim != 2:
            raise ProjectorError(f"{label}: basis must be 2-d, got shape {basis.shape}")
        gap = float(np.linalg.norm(gram_defect(basis)))
        if gap > policy.tol_idem:
            raise ProjectorError(f"{label}: basis is not orthonormal (gap {gap:.3e})")
        return cls.of_terms([(Classes(np.arange(basis.shape[0])), basis)], label)

    @classmethod
    def of_terms(cls, terms, label: str) -> "Projector":
        """Projector onto the span of U = sum of N A over ``terms``, a
        non-empty list of (``Classes``, coefficient block), all of one width.

        A term on classes C that the classes F of another term refine is
        folded into that term, since N_C A = N_F (N_F'N_C A): the terms are
        taken finest first, and each joins the first kept term whose classes
        refine its own.  So a term on the identity partition takes in every
        other, and the kernels sum over fewer terms.

        Nothing is checked: the caller vouches for U.  ``source_projectors``
        proves the tier's sources orthogonal on its count tables,
        ``structure.sweep`` checks a sweep from the step's balance result,
        and a child U_P F of a checked U_P, F with orthonormal columns, is
        checked by U_P's check, since ||F'(U_P'U_P - I)F|| <= ||U_P'U_P - I||.
        """
        kept = []
        for c, a in sorted(terms, key=lambda t: -t[0].m):
            for k, (f, b) in enumerate(kept):
                if f is c or refines(f.ids, c.ids):
                    kept[k] = (f, b + (a if f is c else _onto(f, c, a)))
                    break
            else:
                kept.append((c, a))
        return cls(label=label, _n=kept[0][0].n, _terms=tuple([(c, _freeze(a)) for c, a in kept]))

    @classmethod
    def complement_of(cls, w, label: str) -> "Projector":
        """I - WW': for an n x k array W, or for a non-empty sequence of
        explicit projectors, I minus their sum.

        The listed bases must be orthonormal and mutually orthogonal,
        checked where they were made; nothing is checked here.  An n x 0 W
        gives I.
        """
        if isinstance(w, np.ndarray):
            w = np.asarray(w, dtype=np.float64)
            n = w.shape[0]
            parts = (cls.of_terms([(Classes(np.arange(n)), w)], label),) if w.shape[1] else ()
        else:
            parts = tuple(w)
            n = parts[0].n
        return cls(label=label, _n=n, _parts=parts)

    @classmethod
    def validated(
        cls,
        matrix: np.ndarray,
        label: str,
        policy: TolerancePolicy = DEFAULT_POLICY,
    ) -> "Projector":
        """Projector from an n x n matrix: checked symmetric, idempotent and of
        integer trace, with its basis taken from the eigenvectors of eigenvalue 1."""
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ProjectorError(f"{label}: projector must be square, got {matrix.shape}")
        sym_gap = max_abs(matrix - matrix.T)
        if sym_gap > policy.tol_sym:
            raise ProjectorError(f"{label}: not symmetric (max gap {sym_gap:.3e})")
        idem_gap = max_abs(mul(matrix, matrix) - matrix)
        if idem_gap > policy.tol_idem:
            raise ProjectorError(f"{label}: not idempotent (max gap {idem_gap:.3e})")
        trace = float(np.trace(matrix))
        df = int(round(trace))
        if abs(trace - df) > TRACE_TOL:
            raise ProjectorError(f"{label}: trace {trace!r} is not close to an integer")
        values, vectors = np.linalg.eigh(matrix)
        basis = vectors[:, values > 0.5]
        if basis.shape[1] != df:
            raise ProjectorError(f"{label}: rank {basis.shape[1]} disagrees with trace {df}")
        held = cls.of_terms([(Classes(np.arange(matrix.shape[0])), basis)], label)
        return replace(held, _matrix=_freeze(matrix.copy()))

    @property
    def implicit(self) -> bool:
        return self._parts is not None

    @property
    def terms(self) -> tuple | None:
        """The (N, A) terms of an explicit projector; None for an implicit
        projector."""
        return self._terms

    @property
    def classes(self) -> Classes | None:
        """N of an explicit projector held as one term; None for a list of
        several terms and for an implicit projector."""
        if self._terms is None or len(self._terms) > 1:
            return None
        return self._terms[0][0]

    @property
    def parts(self) -> tuple:
        """The listed explicit projectors of an implicit projector, those
        its plus side (or I) is taken minus."""
        if self._parts is None:
            raise AttributeError(f"{self.label} is held by its own basis, not as a complement")
        return self._parts

    def explicit(self) -> "Projector":
        """This projector in explicit form, made once.  An implicit one is
        V F on the terms of its plus side's stacked bases V, F from
        ``_complement_basis``; I - WW' holds F, a dense basis, on the
        identity partition."""
        if self._parts is None:
            return self
        if self._explicit is None:
            f = self._complement_basis()
            if self._plus is None:
                terms = [(Classes(np.arange(self._n)), f)]
            else:
                edges = df_edges(self._plus)
                terms = [(c, mul(a, f[lo:hi])) for v, lo, hi in zip(self._plus, edges, edges[1:]) for c, a in v._terms]
            object.__setattr__(self, "_explicit", Projector.of_terms(terms, self.label))
        return self._explicit

    def _complement_basis(self) -> np.ndarray:
        """F, orthonormal, spanning the complement of the listed bases W
        inside the plus side V: the trailing columns of a complete QR of
        V'W, or of W itself (n rows) for I - WW'."""
        if self._plus is not None:
            return orthocomplement(family_gram(self._plus, self._parts))
        if not self._parts:
            return np.eye(self._n)
        return orthocomplement(np.hstack([span(q) for q in self._parts]))

    @property
    def df(self) -> int:
        if self._df is None:
            if self._parts is None:
                df = self._terms[0][1].shape[1]
            else:
                plus = self._n if self._plus is None else sum(v.df for v in self._plus)
                df = plus - sum(q.df for q in self._parts)
            object.__setattr__(self, "_df", df)
        return self._df

    @property
    def n(self) -> int:
        return self._n

    @property
    def matrix(self) -> np.ndarray:
        if self._matrix is None:
            # each side's share with its sign, -1 on a listed part's: a filled
            # group's NN' (``folded``) set on the pairs of rows in one class,
            # and the other sides' terms gathered from their cores, one core
            # for the sides held on the same classes.  A first side alone on
            # its classes whose matrix is formed is copied instead: the
            # gathers would repeat its bytes.  I - WW' adds I at the end.
            plus, minus = sides(self)
            filled, rest = folded(self) if minus else ((), ())
            groups: dict = {}
            for v, sign in [(v, 1.0) for v in plus or ()] + [(w, -1.0) for w in rest]:
                groups.setdefault(tuple(id(c) for c, _ in v._terms), []).append((v, sign))
            groups = list(groups.values())
            copied = bool(groups) and len(groups[0]) == 1 and groups[0][0][0]._matrix is not None
            if copied:
                ((v, sign),) = groups.pop(0)
                m = np.negative(v._matrix) if sign < 0 else v._matrix.copy()
            cores = [r for group in groups for r in _cores(group)]
            if not copied:
                m = np.empty((self._n, self._n)) if cores else np.full((self._n, self._n), 0.0)
            _gather_rows(m, cores, copied)
            for c in filled:
                for i, j in _same_class(c):
                    m[i, j] -= c.scale[c.ids[i]] ** 2
            if plus is None:
                shift_diagonal(m, 1.0)
            object.__setattr__(self, "_matrix", _freeze(m))
        return self._matrix

    def is_mean(self, policy: TolerancePolicy = DEFAULT_POLICY) -> bool:
        """Is this J/n, entrywise within tol_zero?

        For P = uu' the largest |u_i u_j - 1/n| sits at a corner of
        [min u, max u]^2, so the entrywise test costs O(m) for one term:
        the entries of u = N a are a times the class scales, each class
        non-empty.  A list of several terms is spanned (n entries).
        """
        if self.df != 1:
            return False
        e = self.explicit()
        ((cls, a),) = e._terms if len(e._terms) == 1 else ((Classes(np.arange(self.n)), span(e)),)
        u = a[:, 0] * cls.scale
        lo, hi, c = float(u.min()), float(u.max()), 1.0 / self.n
        gap = max(abs(lo * lo - c), abs(hi * hi - c), abs(lo * hi - c))
        return gap <= policy.tol_zero

    def carried(
        self, rows: np.ndarray, r: int, label: str | None = None, memo: dict | None = None
    ) -> "Projector":
        """This projector carried by an equireplicate allocation: row i of the
        new space is object ``rows[i]``, r rows per object.

        Class ids compose, ids[rows], and scales become scale/sqrt(r), term
        by term, so each A is kept and nothing is checked: the lift is an
        isometry.  A term on the identity partition becomes one on the
        classes ``rows``, m objects of r rows each.  With r = 1 the lift is
        a permutation, so an implicit projector stays its carried sides.
        With r > 1 it is carried through its explicit form,
        complemented once on the m objects and cached on this projector.  ``memo`` maps id() of
        projectors already carried to their carried form, so that a
        structure's implicit source lists the very projectors its other
        elements became, and ("classes", id(N)) to the carried N, so that
        terms that shared classes share the carried ones and their products
        skip the contingency table.
        """
        memo = {} if memo is None else memo
        if label is None and id(self) in memo:
            return memo[id(self)]
        out_label = self.label if label is None else label
        if self._parts is not None and r == 1:
            parts = tuple(q.carried(rows, r, memo=memo) for q in self._parts)
            plus = None if self._plus is None else tuple(v.carried(rows, r, memo=memo) for v in self._plus)
            out = Projector(label=out_label, _n=rows.size, _parts=parts, _plus=plus)
        elif self._parts is not None:
            out = self.explicit().carried(rows, r, out_label, memo)
        else:
            factor = 1.0 / np.sqrt(r)
            terms = []
            for cls, a in self._terms:
                key = ("classes", id(cls))
                classes = memo.get(key)
                if classes is None:
                    classes = memo[key] = cls.carried(rows, factor)
                terms.append((classes, a))
            out = Projector.of_terms(terms, out_label)
        if label is None:
            memo[id(self)] = out
        return out

    def relabel(self, label: str) -> "Projector":
        return replace(self, label=label, _explicit=None)

    def __repr__(self) -> str:  # keep reprs short; bases can be 648 x 486
        return f"Projector({self.label!r}, df={self.df}, n={self.n})"


# --- products on class coordinates ------------------------------------------


def folded(p: Projector) -> tuple:
    """(filled, rest) for the listed parts W of an implicit P = VV' - WW':
    the classes C whose nested parts fill them, and the other parts; found
    once, and kept on p.

    Parts held as one term on nested classes (Mean, Reps and Blocks of a
    lattice) fold into the finest of them, C: N_part is N_C times the
    table N_C'N_part.  When their df fill C's m classes, their folded
    coefficients are square and orthonormal, so their WW' sum to N_C N_C'.
    A product with them is then one on C's class coordinates, with no
    product with the parts' coefficients: their W'X has the Gram and the
    norm of N_C'X.
    """
    if p._folded is None:
        single = [w for w in p.parts if w.classes is not None]
        filled, taken = [], set()
        for c in sorted({id(w.classes): w.classes for w in single}.values(), key=lambda c: -c.m):
            group = [w for w in single if id(w) not in taken and refines(c.ids, w.classes.ids)]
            if sum(w.df for w in group) == c.m:
                filled.append(c)
                taken.update(id(w) for w in group)
        object.__setattr__(p, "_folded", (filled, [w for w in p.parts if id(w) not in taken]))
    return p._folded


def _same_class(c: Classes):
    """(i, j) for every pair of rows in one class of c, where N N' is
    nonzero, yielded in chunks of at most max(``GATHER_BYTES`` / 8, n)
    pairs, so that no index array holds all sum(size^2) of them: a chunk
    is the pairs of a run of rows in class order."""
    order = np.argsort(c.ids, kind="stable")
    sizes = np.bincount(c.ids)
    size = sizes[c.ids[order]]  # the class size of each sorted row
    start = (np.cumsum(sizes) - sizes)[c.ids[order]]  # and its class's first sorted row
    ends = np.cumsum(size)  # the pairs of the sorted rows up to each one
    step = max(GATHER_BYTES // 8, c.n)  # a class has at most n rows, so every chunk has a row
    lo = done = 0
    while lo < order.size:
        hi = int(np.searchsorted(ends, done + step, side="right"))
        run = size[lo:hi]
        i = np.repeat(np.arange(lo, hi), run)
        j = np.repeat(start[lo:hi] - (ends[lo:hi] - run - done), run) + np.arange(i.size)
        i, j = order[i], order[j]  # the positions in class order are not kept while in use
        yield i, j
        lo, done = hi, int(ends[hi - 1])


def _cores(group: list) -> list:
    """(ids_t, R_t) for each class partition t of ``group``, a list of
    (explicit v, sign) all held on the same classes: with B_t the side by
    side blocks diag(scale_t) A_t of the vs, R_t = sum_s (B_t D B_s')[:,
    ids_s] (m_t x n), D their signs, so that row i of the sum of sign_v
    U_vU_v' is the sum over t of row ids_t[i] of R_t.  The signs go on the
    left operand in every group, so the cores of a side with -1 are the
    exact negation of its cores with +1."""
    classes = [c for c, _ in group[0][0]._terms]
    right = [np.concatenate([v._terms[t][1] * c.scale[:, None] for v, _ in group], axis=1) for t, c in enumerate(classes)]
    cores = []
    for t, ct in enumerate(classes):
        left = np.concatenate([v._terms[t][1] * (sign * ct.scale)[:, None] for v, sign in group], axis=1)
        r = mul(left, right[0].T).take(classes[0].ids, axis=1)
        for cs, bs in zip(classes[1:], right[1:]):
            r += mul(left, bs.T).take(cs.ids, axis=1)
        cores.append((ct.ids, r))
    return cores


def _gather_rows(out: np.ndarray, cores: list, add: bool) -> None:
    """Write (or with ``add``, add) the sum of R[ids] over ``cores`` into out,
    a block of rows at a time through one reused buffer of about
    ``GATHER_BYTES``, so that no other n x n array is formed."""
    step = max(1, GATHER_BYTES // (out.itemsize * len(out) + 1))
    buf = np.empty((min(step, len(out)), len(out))) if add or len(cores) > 1 else None
    for lo in range(0, len(out), step):
        rows = out[lo : lo + step]
        for k, (ids, r) in enumerate(cores):
            into = rows if k == 0 and not add else buf[: rows.shape[0]]
            r.take(ids[lo : lo + step], axis=0, out=into, mode="clip")
            if into is not rows:
                rows += into


def _total(arrays: list) -> np.ndarray:
    """The sum of a non-empty list of arrays; one array is returned as it is."""
    return arrays[0] if len(arrays) == 1 else sum(arrays[1:], arrays[0])


def _onto(classes: Classes, cls: Classes, a: np.ndarray) -> np.ndarray:
    """N'N_cls a (classes.m x c): through the contingency table N'N_cls
    when that is smaller than N_cls a on the rows, else by a gather and
    per-class sums."""
    if classes.m * cls.m > classes.n * a.shape[1]:
        return classes.down(cls.up(a))
    return mul(classes.table(cls), a)


def _pieces(p: Projector) -> tuple:
    """p's terms as one-term projectors, made once (p itself when it has one
    term).  ``coords`` and ``cross`` take one term at a time and sum over
    these."""
    if len(p._terms) == 1:
        return (p,)
    if p._pieces is None:
        pieces = tuple(Projector(label=p.label, _n=p._n, _terms=(t,)) for t in p._terms)
        object.__setattr__(p, "_pieces", pieces)
    return p._pieces


def coords(p: Projector, classes: Classes) -> np.ndarray:
    """N'U_p (m x df_p) for an explicit p: U_p's coordinates on ``classes``,
    summed over p's terms (``_onto``).  Each term's product is kept on it,
    per classes, since a sweep and the balance check take the same one."""
    if len(p._terms) > 1:
        return _total([coords(t, classes) for t in _pieces(p)])
    ((cls, a),) = p._terms
    if cls is classes:
        return a
    c = p._coords.get(classes)
    if c is None:
        c = p._coords[classes] = _freeze(_onto(classes, cls, a))
    return c


def span(p: Projector, a: np.ndarray | None = None) -> np.ndarray:
    """U_p a (n x c) for an explicit p, or U_p itself when ``a`` is None:
    one gather per term."""
    return _total([c.up(coef if a is None else mul(coef, a)) for c, coef in p._terms])


def spanned(p: Projector, a: np.ndarray, label: str) -> Projector:
    """The explicit projector onto span(U_p a), held on p's terms as N (A a).
    Not checked: for an ``a`` with orthonormal columns it inherits p's check
    (see ``Projector.of_terms``), and a sweep's ``a`` is checked by
    ``structure.sweep``."""
    return Projector.of_terms([(c, mul(coef, a)) for c, coef in p._terms], label)


def project(p: Projector, x: np.ndarray) -> np.ndarray:
    """P X for a dense X (n x c): U(U'X), or for an implicit P its plus
    side's projections of X (X itself for I - WW') minus each listed
    part's."""
    if p._parts is None:
        return span(p, _total([mul(a.T, c.down(x)) for c, a in p._terms]))
    out = x if p._plus is None else _total([project(v, x) for v in p._plus])
    for q in p._parts:
        out = out - project(q, x)
    return out


def cross(p: Projector, xs) -> np.ndarray:
    """U_p'X for an explicit p and the stacked bases X of the explicit ``xs``,
    summed over p's terms: for one term, the xs' stacked coordinates on its
    classes (each kept on its projector by ``coords``) times A_p' in one
    product.  A p on the identity partition (one row per class) takes
    (N'U_p)'A for each term of the xs instead, so that no n-row basis of
    theirs is formed."""
    if len(p._terms) > 1:
        return _total([cross(t, xs) for t in _pieces(p)])
    ((cls, a),) = p._terms
    if cls.m == p.n:
        return np.hstack([_total([mul(coords(p, c).T, b) for c, b in x._terms]) for x in xs])
    c = [coords(x, cls) for x in xs]
    return mul(a.T, c[0] if len(c) == 1 else np.hstack(c))


def sides(p: Projector) -> tuple:
    """(plus, minus): the explicit projectors whose VV' P sums with the sign
    +1 and with -1.  An explicit P is ((P,), ()); an implicit one has its
    listed parts as minus, and as plus its plus side, or None for I."""
    if p._parts is None:
        return (p,), ()
    return p._plus, p._parts


def side_cross(p: Projector, xs, crossed: dict | None = None) -> np.ndarray:
    """c = V'X for P's sides V (``sides``, plus then minus) and the stacked
    bases X of the explicit ``xs``: one ``cross`` per side basis.
    ``crossed`` keeps each V'X by id(V), since a row of a balance check is
    often a listed part of a later implicit row."""
    plus, minus = sides(p)
    side = (plus or ()) + minus
    if not side or not xs:
        return np.zeros((sum(v.df for v in side), sum(x.df for x in xs)))
    crossed = {} if crossed is None else crossed
    for v in side:
        if id(v) not in crossed:
            crossed[id(v)] = cross(v, xs)
    return np.vstack([crossed[id(v)] for v in side])


def family_gram(xs, ys=None) -> np.ndarray:
    """X'Y for the stacked bases of the explicit projectors ``xs`` and ``ys``
    (``ys`` defaults to ``xs``, and the lower blocks are then mirrored),
    one row of blocks at a time."""
    if ys is not None:
        return np.vstack([cross(x, ys) for x in xs])
    edges = df_edges(xs)
    out = np.empty((edges[-1], edges[-1]))
    for i, x in enumerate(xs):
        a, b = edges[i], edges[i + 1]
        out[a:b, a:] = cross(x, xs[i:])
        out[b:, a:b] = out[a:b, b:].T
    return out


def side_gram(p: Projector, cx: np.ndarray, cy: np.ndarray | None = None, xy: np.ndarray | None = None) -> np.ndarray:
    """X'PY from C_X = ``side_cross(p, xs)`` and C_Y (default C_X): the plus
    sides' C_X'C_Y minus the listed parts'.  For P = I - WW' it is X'Y
    minus C_X'C_Y, X'Y given as ``xy`` and changed in place; without
    ``xy``, X = Y is orthonormal and C_X'C_X is negated in place with 1
    added on its diagonal, so no identity is held beside it."""
    cy = cx if cy is None else cy
    plus = sides(p)[0]
    if plus is None and xy is None:
        g = mul(cx.T, cy)
        return shift_diagonal(np.negative(g, out=g), 1.0)
    k = 0 if plus is None else sum(v.df for v in plus)
    g = xy if plus is None else mul(cx[:k].T, cy[:k])
    if k < cx.shape[0]:
        g -= mul(cx[k:].T, cy[k:])
    return g


def bilinear_of(xs, p: Projector, ys=None) -> np.ndarray:
    """X' P Y for the stacked bases X, Y of the explicit projectors ``xs``
    and ``ys`` (``ys`` defaults to ``xs``), on class coordinates: the
    signed Gram ``side_gram`` of C_X = ``side_cross(p, xs)`` and C_Y, with
    X'Y (``family_gram``) for P = I - WW'."""
    cx = side_cross(p, xs)
    cy = cx if ys is None else side_cross(p, ys)
    return side_gram(p, cx, cy, family_gram(xs, ys) if sides(p)[0] is None else None)
