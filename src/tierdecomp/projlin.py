"""Projectors in basis form and the shared tolerance policy.

Everything downstream works with plain float64 numpy arrays.  A projector
is held as an orthonormal basis U of its image (n x df), or, for the
largest stratum, implicitly as I - WW' with W the orthonormal bases it
complements; never as an n x n matrix.  ``Projector.from_basis`` checks
U'U = I, ``Projector.complement_of`` takes W as checked, and
``Projector.validated`` is the gate for callers holding a symmetric
idempotent matrix.  ``project`` (P X) and ``bilinear`` (X' P Y) apply
either form, so the hot kernels need not know which one they hold.
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
    "Projector",
    "ProjectorError",
    "EfficiencyRangeError",
    "mul",
    "project",
    "bilinear",
    "gram_defect",
    "orthonormality_gap",
    "max_abs",
    "is_zero",
    "snap_rational",
]


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




@dataclass(frozen=True, eq=False)
class Projector:
    """An orthogonal projector with a label, held in one of two forms.

    Explicit: an orthonormal basis U (n x df) of its image, the projector
    being UU'.  Implicit: the complement of listed bases in the whole space,
    I - WW' with W (n x m) orthonormal, so df = n - m; this is how the
    largest stratum is held, W being bases already checked elsewhere.
    ``project`` and ``bilinear`` apply either form.  ``basis`` of an
    implicit projector is materialized on first use from a complete QR of
    W (``_complement_basis``); the build uses it only off its hot routes.
    ``matrix`` forms UU' or I - WW' on first use.  All arrays are read-only
    and cached.
    """

    label: str
    _basis: np.ndarray | None = field(default=None, repr=False)
    _w: np.ndarray | None = field(default=None, repr=False)
    _matrix: np.ndarray | None = field(default=None, repr=False)

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
        gap = orthonormality_gap(basis)
        if gap > policy.tol_idem:
            raise ProjectorError(f"{label}: basis is not orthonormal (gap {gap:.3e})")
        return cls(label=label, _basis=_freeze(basis))

    @classmethod
    def complement_of(cls, w: np.ndarray, label: str) -> "Projector":
        """I - WW', the complement of the span of W in the whole space.

        The columns of W must be bases already checked orthonormal and
        mutually orthogonal; nothing is checked here.  An n x 0 W gives I.
        """
        return cls(label=label, _w=_freeze(np.asarray(w, dtype=np.float64)))

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
        return cls(label=label, _basis=_freeze(basis), _matrix=_freeze(matrix.copy()))

    @property
    def implicit(self) -> bool:
        return self._w is not None

    @property
    def w(self) -> np.ndarray:
        """The listed bases W of an implicit projector I - WW'."""
        if self._w is None:
            raise AttributeError(f"{self.label} is held by its own basis, not as a complement")
        return self._w

    @property
    def basis(self) -> np.ndarray:
        if self._basis is None:
            object.__setattr__(self, "_basis", _freeze(self._complement_basis()))
        return self._basis

    def _complement_basis(self) -> np.ndarray:
        """Orthonormal basis of I - WW': the trailing columns of a complete QR of W."""
        return np.linalg.qr(self._w, mode="complete")[0][:, self._w.shape[1]:]

    @property
    def df(self) -> int:
        if self._w is not None:
            return self._w.shape[0] - self._w.shape[1]
        return self._basis.shape[1]

    @property
    def n(self) -> int:
        return (self._basis if self._w is None else self._w).shape[0]

    @property
    def matrix(self) -> np.ndarray:
        if self._matrix is None:
            if self._w is None:
                m = mul(self._basis, self._basis.T)
            else:
                m = mul(self._w, self._w.T)
                np.negative(m, out=m)
                m[np.diag_indices_from(m)] += 1.0
            object.__setattr__(self, "_matrix", _freeze(m))
        return self._matrix

    def is_mean(self, policy: TolerancePolicy = DEFAULT_POLICY) -> bool:
        """Is this J/n, entrywise within tol_zero?

        For P = uu' the largest |u_i u_j - 1/n| sits at a corner of
        [min u, max u]^2, so the entrywise test costs O(n).
        """
        if self.df != 1:
            return False
        u = self.basis[:, 0]
        lo, hi, c = float(u.min()), float(u.max()), 1.0 / self.n
        gap = max(abs(lo * lo - c), abs(hi * hi - c), abs(lo * hi - c))
        return gap <= policy.tol_zero

    def relabel(self, label: str) -> "Projector":
        return replace(self, label=label)

    def __repr__(self) -> str:  # keep reprs short; bases can be 648 x 486
        return f"Projector({self.label!r}, df={self.df}, n={self.n})"


def project(p: Projector, x: np.ndarray) -> np.ndarray:
    """P X: U(U'X), or X - W(W'X) when P = I - WW' is implicit."""
    if p.implicit:
        return x - mul(p.w, mul(p.w.T, x))
    return mul(p.basis, mul(p.basis.T, x))


def bilinear(x: np.ndarray, p: Projector, y: np.ndarray) -> np.ndarray:
    """X' P Y: (U'X)'(U'Y), or X'Y - (W'X)'(W'Y) when P = I - WW' is implicit.

    Pass the same array as ``x`` and ``y`` to form its coordinates once.
    """
    if p.implicit:
        a = mul(p.w.T, x)
        b = a if y is x else mul(p.w.T, y)
        return mul(x.T, y) - mul(a.T, b)
    a = mul(p.basis.T, x)
    b = a if y is x else mul(p.basis.T, y)
    return mul(a.T, b)
