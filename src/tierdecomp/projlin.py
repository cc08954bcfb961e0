"""Projectors in class form and the shared tolerance policy.

Everything downstream works with plain float64 numpy arrays.  Every
subspace the build makes lies in the span of the class indicators of a
generalized factor, so an explicit projector is held on normalised class
indicators N (``Classes``: class ids and scales, n x m), with basis U = NA
for a small coefficient block A (m x df); a dense basis is the case N = I.
The one implicit form is the largest stratum of a structure, I - WW' on
the whole space, held by its listed explicit bases W.  A projector is
never held as an n x n matrix.  ``Projector.from_basis`` and
``Projector.on_classes`` check U'U = A'A = I, ``Projector.complement_of``
takes its listed bases as checked, and ``Projector.validated`` is the gate
for callers holding a symmetric idempotent matrix.  ``project`` (P X),
``gram`` (U_p'U_q) and ``bilinear_of`` (X' P Y for stacked bases) apply
either form on class coordinates, through contingency tables N_F'N_G, so
the hot kernels need not know which one they hold.  Spaces of at most
``DENSE_ROWS`` rows hold explicit bases dense, where a product on class
coordinates costs more calls than the flops it saves.
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
    "gram",
    "span",
    "spanned",
    "gram_defect",
    "orthonormality_gap",
    "max_abs",
    "is_zero",
    "snap_rational",
]


# Spaces of at most this many rows hold explicit bases dense: there a product
# on class coordinates costs more numpy calls than the flops it saves.  On
# a 2-core machine, class form made decompose about 14% slower on designs
# of at most 64 units, and took the same time as dense bases on tier spaces
# of 96 and 121 rows and unit spaces of 648 to 1452 rows.
DENSE_ROWS = 64


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


def is_zero(a: np.ndarray, policy: TolerancePolicy = DEFAULT_POLICY) -> bool:
    """True when every entry of ``a`` is within ``tol_zero`` of zero."""
    return max_abs(a) <= policy.tol_zero


def gram_defect(basis: np.ndarray) -> np.ndarray:
    """U'U - I."""
    gram = mul(basis.T, basis)
    gram[np.diag_indices_from(gram)] -= 1.0
    return gram


def orthonormality_gap(basis: np.ndarray) -> float:
    """Frobenius norm of U'U - I.

    For P = UU' this bounds every entry of P^2 - P = U(U'U - I)U' (to first
    order in the gap), so it is the basis-form idempotence test.
    """
    return float(np.linalg.norm(gram_defect(basis)))


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


@dataclass(frozen=True, eq=False)
class Projector:
    """An orthogonal projector with a label, held in one of two forms.

    Explicit: P = UU' with U = NA, on normalised class indicators N
    (``Classes``, n x m) and A (m x df) orthonormal; a dense basis is the
    case N = I (no classes held).  On a space of at most ``DENSE_ROWS``
    rows an explicit basis is held dense.  Implicit: P = I - WW' on the
    whole space, W the stacked bases of listed explicit projectors that
    are mutually orthogonal, so df = n minus theirs.  This is the largest
    stratum of a structure, and of its lifts with r = 1; a lift with r > 1
    carries its explicit form instead.  ``project``, ``gram`` and
    ``bilinear_of`` apply either form, working on class coordinates, so no
    n-row basis is formed for them.

    ``basis`` materializes U on first use (from a complete QR of the listed
    bases, for an implicit projector); ``matrix`` forms UU', or I - WW', on
    first use.  All arrays are read-only and cached.
    """

    label: str
    _n: int = field(default=0, repr=False)
    _cls: Classes | None = field(default=None, repr=False)
    _coef: np.ndarray | None = field(default=None, repr=False)
    _parts: tuple | None = field(default=None, repr=False)
    _basis: np.ndarray | None = field(default=None, repr=False)
    _matrix: np.ndarray | None = field(default=None, repr=False)
    _explicit: "Projector | None" = field(default=None, repr=False)
    _df: int | None = field(default=None, repr=False)

    @classmethod
    def from_basis(
        cls,
        basis: np.ndarray,
        label: str,
        policy: TolerancePolicy = DEFAULT_POLICY,
    ) -> "Projector":
        """Projector onto the span of ``basis``, checked as U'U = I within tol_idem.

        The basis is copied, so the caller's array is left writeable."""
        basis = np.array(basis, dtype=np.float64)
        if basis.ndim != 2:
            raise ProjectorError(f"{label}: basis must be 2-d, got shape {basis.shape}")
        return cls.on_classes(None, basis, label, policy, n=basis.shape[0])

    @classmethod
    def on_classes(
        cls,
        classes: Classes | None,
        coef: np.ndarray,
        label: str,
        policy: TolerancePolicy | None = None,
        n: int | None = None,
    ) -> "Projector":
        """Projector onto the span of U = N A; ``n`` is needed only when
        ``classes`` is None (N = I).  On at most ``DENSE_ROWS`` rows U is held
        dense instead.

        With a policy, checked as A'A = I within tol_idem: N'N = I, so U'U =
        A'A, and the check costs m df^2, not n df^2.  Without one the caller
        vouches for A: ``source_projectors`` checks every source it makes in
        one Gram at the finest term.
        """
        if classes is not None and classes.n <= DENSE_ROWS:
            coef, classes, n = classes.up(coef), None, classes.n
        if policy is not None:
            gap = orthonormality_gap(coef)
            if gap > policy.tol_idem:
                raise ProjectorError(f"{label}: basis is not orthonormal (gap {gap:.3e})")
        n = classes.n if classes is not None else n
        return cls(label=label, _n=n, _cls=classes, _coef=_freeze(coef))

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
            parts = (cls.on_classes(None, w, label, n=n),) if w.shape[1] else ()
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
        held = cls.on_classes(None, basis, label, n=matrix.shape[0])
        return replace(held, _matrix=_freeze(matrix.copy()))

    @property
    def implicit(self) -> bool:
        return self._parts is not None

    @property
    def classes(self) -> Classes | None:
        """N: the class indicators an explicit projector sits on; None for N
        = I and for an implicit projector."""
        return self._cls

    @property
    def parts(self) -> tuple:
        """The listed explicit projectors of an implicit projector."""
        if self._parts is None:
            raise AttributeError(f"{self.label} is held by its own basis, not as a complement")
        return self._parts

    @property
    def basis(self) -> np.ndarray:
        """U (n x df), materialized on first use unless held as a dense basis."""
        if self._cls is None and self._coef is not None:
            return self._coef
        if self._basis is None:
            object.__setattr__(self, "_basis", _freeze(span(self.explicit())))
        return self._basis

    def explicit(self) -> "Projector":
        """This projector in explicit form.  An implicit one takes its dense
        basis from a complete QR of its listed bases (n rows), once."""
        if self._parts is None:
            return self
        if self._explicit is None:
            held = Projector.on_classes(None, self._complement_basis(), self.label, n=self._n)
            object.__setattr__(self, "_explicit", held)
        return self._explicit

    def _complement_basis(self) -> np.ndarray:
        """Orthonormal basis of the complement of the listed bases: the
        trailing columns of a complete QR of their stacked bases."""
        if not self._parts:
            return np.eye(self._n)
        w = np.hstack([coords(q, None) for q in self._parts])
        return np.linalg.qr(w, mode="complete")[0][:, w.shape[1]:]

    @property
    def df(self) -> int:
        if self._df is None:
            if self._parts is None:
                df = self._coef.shape[1]
            else:
                df = self._n - sum(q.df for q in self._parts)
            object.__setattr__(self, "_df", df)
        return self._df

    @property
    def n(self) -> int:
        return self._n

    @property
    def matrix(self) -> np.ndarray:
        if self._matrix is None:
            if self._parts is not None:
                # I - WW' for the listed bases W, stacked (n x k)
                parts = self._parts
                if len(parts) == 1:
                    w = parts[0].basis
                else:
                    w = np.hstack([q.basis for q in parts] or [np.zeros((self._n, 0))])
                m = mul(w, w.T)
                np.negative(m, out=m)
                m[np.diag_indices_from(m)] += 1.0
            else:
                u = self.basis
                m = mul(u, u.T)
            object.__setattr__(self, "_matrix", _freeze(m))
        return self._matrix

    def is_mean(self, policy: TolerancePolicy = DEFAULT_POLICY) -> bool:
        """Is this J/n, entrywise within tol_zero?

        For P = uu' the largest |u_i u_j - 1/n| sits at a corner of
        [min u, max u]^2, so the entrywise test costs O(m): the entries of
        u = N a are a times the class scales, each class non-empty.
        """
        if self.df != 1:
            return False
        e = self.explicit()
        u = e._coef[:, 0] if e._cls is None else e._coef[:, 0] * e._cls.scale
        lo, hi, c = float(u.min()), float(u.max()), 1.0 / self.n
        gap = max(abs(lo * lo - c), abs(hi * hi - c), abs(lo * hi - c))
        return gap <= policy.tol_zero

    def carried(
        self, rows: np.ndarray, r: int, label: str | None = None, memo: dict | None = None
    ) -> "Projector":
        """This projector carried by an equireplicate allocation: row i of the
        new space is object ``rows[i]``, r rows per object.

        Class ids compose, ids[rows], and scales become scale/sqrt(r), so A is
        kept and nothing is checked: the lift is an isometry; on a space of
        at most ``DENSE_ROWS`` rows the result is held dense.  With r = 1 the
        lift is a permutation, so an implicit projector stays I minus its
        carried listed bases.  With r > 1 it is carried through its explicit
        form, complemented once on the m objects and cached on this
        projector.  ``memo`` maps id() of projectors already carried to
        their carried form, so that a structure's implicit source lists the
        very projectors its other elements became, and ("classes", id(N))
        to the carried N (N = None for a dense projector), so that
        projectors that shared classes share the carried ones and their
        products skip the contingency table.
        """
        memo = {} if memo is None else memo
        if label is None and id(self) in memo:
            return memo[id(self)]
        out_label = self.label if label is None else label
        if self._parts is not None and r == 1:
            parts = tuple(q.carried(rows, r, memo=memo) for q in self._parts)
            out = Projector(label=out_label, _n=rows.size, _parts=parts)
        elif self._parts is not None:
            out = self.explicit().carried(rows, r, out_label, memo)
        else:
            key = ("classes", id(self._cls))
            classes = memo.get(key)
            if classes is None:
                factor = 1.0 / np.sqrt(r)
                if self._cls is None:
                    classes = Classes(rows, np.full(self._n, factor))
                else:
                    classes = self._cls.carried(rows, factor)
                memo[key] = classes
            out = Projector.on_classes(classes, self._coef, out_label, n=rows.size)
        if label is None:
            memo[id(self)] = out
        return out

    def relabel(self, label: str) -> "Projector":
        return replace(self, label=label, _explicit=None)

    def __repr__(self) -> str:  # keep reprs short; bases can be 648 x 486
        return f"Projector({self.label!r}, df={self.df}, n={self.n})"


# --- products on class coordinates ------------------------------------------


def coords(p: Projector, classes: Classes | None) -> np.ndarray:
    """N'U_p (m x df_p) for an explicit p: U_p's coordinates on ``classes``
    (U_p itself when ``classes`` is None)."""
    if p._cls is classes:
        return p._coef
    if classes is None:
        return p._cls.up(p._coef)
    if p._cls is None:
        return classes.down(p._coef)
    if classes.m * p._cls.m <= p.n * p.df:
        return mul(classes.table(p._cls), p._coef)
    return classes.down(p._cls.up(p._coef))


def gram(p: Projector, q: Projector) -> np.ndarray:
    """U_p'U_q (df_p x df_q) for explicit p and q.

    On shared classes it is A_p'A_q; across two partitions A_p'(N_p'N_q)A_q,
    the side with fewer columns taken through the contingency table, so no
    n-row basis is formed unless one is held.
    """
    if p._cls is q._cls:
        return mul(p._coef.T, q._coef)
    if q._cls is None or (p._cls is not None and q.df <= p.df):
        return mul(p._coef.T, coords(q, p._cls))
    return mul(coords(p, q._cls).T, q._coef)


def span(p: Projector, a: np.ndarray | None = None) -> np.ndarray:
    """U_p a (n x c) for an explicit p, or U_p itself when ``a`` is None."""
    coef = p._coef if a is None else mul(p._coef, a)
    return coef if p._cls is None else p._cls.up(coef)


def spanned(p: Projector, a: np.ndarray, label: str, policy: TolerancePolicy) -> Projector:
    """The explicit projector onto span(U_p a), held on p's classes as N_p(A_p a)
    and checked as (A_p a)'(A_p a) = I within tol_idem."""
    return Projector.on_classes(p._cls, mul(p._coef, a), label, policy, n=p.n)


def _down(p: Projector, x: np.ndarray) -> np.ndarray:
    return x if p._cls is None else p._cls.down(x)


def project(p: Projector, x: np.ndarray) -> np.ndarray:
    """P X for a dense X (n x c): U(U'X), or X minus each listed part's
    projection when P = I - WW' is implicit."""
    if p._parts is None:
        return span(p, mul(p._coef.T, _down(p, x)))
    out = x
    for q in p._parts:
        out = out - project(q, x)
    return out


def cross(p: Projector, xs, memo: dict | None = None) -> np.ndarray:
    """U_p'X for an explicit p and the stacked bases X of the explicit ``xs``:
    on p's classes, the xs' stacked coordinates there times A_p' in one
    product (a dense p against sources on classes takes each ``gram``
    instead, so that no n-row basis of theirs is formed).  ``memo`` keeps
    those coordinates per classes, for callers that take many p against
    the same xs."""
    if p._cls is None and any(x._cls is not None for x in xs):
        return np.hstack([gram(p, x) for x in xs])
    c = None if memo is None else memo.get(p._cls)
    if c is None:
        c = [coords(x, p._cls) for x in xs]
        c = c[0] if len(c) == 1 else np.hstack(c)
        if memo is not None:
            memo[p._cls] = c
    return mul(p._coef.T, c)


def family_gram(xs, ys=None) -> np.ndarray:
    """X'Y for the stacked bases of the explicit projectors ``xs`` and ``ys``
    (``ys`` defaults to ``xs``, and the lower blocks are then mirrored),
    one row of blocks at a time; one product when every basis is dense."""
    if all(x._cls is None for x in (xs if ys is None else [*xs, *ys])):
        sx = np.hstack([x._coef for x in xs])
        return mul(sx.T, sx if ys is None else np.hstack([y._coef for y in ys]))
    if ys is not None:
        return np.vstack([cross(x, ys) for x in xs])
    edges = np.cumsum([0] + [x.df for x in xs])
    out = np.empty((edges[-1], edges[-1]))
    for i, x in enumerate(xs):
        a, b = edges[i], edges[i + 1]
        out[a:b, a:] = cross(x, xs[i:])
        out[b:, a:b] = out[a:b, b:].T
    return out


def bilinear_of(xs, p: Projector, ys=None) -> np.ndarray:
    """X' P Y for the stacked bases X, Y of the explicit projectors ``xs``
    and ``ys`` (``ys`` defaults to ``xs``), on class coordinates.

    Explicit P: C_X'C_Y with C_X = U_P'X.  Implicit P = I - WW': X'Y
    (``family_gram``) minus (W'X)'(W'Y).
    """
    same = ys is None
    ys = xs if same else ys
    if p._parts is None:
        cx = cross(p, xs)
        cy = cx if same else cross(p, ys)
        return mul(cx.T, cy)
    out = family_gram(xs, None if same else ys)
    if p._parts:
        cx = np.vstack([cross(w, xs) for w in p._parts])
        cy = cx if same else np.vstack([cross(w, ys) for w in p._parts])
        out -= mul(cx.T, cy)
    return out
