"""Shared fixtures: the shipped design bundles and their built decompositions,
and a generator of seeded random block designs.  Puts ``perfbench`` on the
path so tests can ``import gen`` for its synthetic designs."""

import random
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from tierdecomp import build_decomposition, load_design
from tierdecomp.projlin import Classes, Projector, span

ROOT = Path(__file__).resolve().parent.parent
DESIGNS = ROOT / "designs"
sys.path.insert(0, str(ROOT / "perfbench"))

ALL_SPECS = sorted(p.stem for p in DESIGNS.glob("*.spec"))
# uneven is the engineered incoherent layout; everything else builds cleanly
COHERENT = [name for name in ALL_SPECS if name != "uneven"]
SMALL = [name for name in COHERENT if name != "corn"]  # n <= 64

_designs: dict = {}
_builds: dict = {}


def design_matrix(alloc) -> np.ndarray:
    """The 0/1 design matrix X (rows x objects) of an AllocationMap."""
    x = np.zeros((alloc.n_rows, len(alloc.objects)))
    x[np.arange(alloc.n_rows), alloc.assignment] = 1.0
    return x


def basis_of(p) -> np.ndarray:
    """U (n x df), an orthonormal basis of a Projector's image: its explicit
    form spanned on the rows (for an implicit one, from a complete QR of
    its listed bases)."""
    return span(p.explicit())


def hold_dense(patch) -> None:
    """Make ``Projector.of_terms`` sum its terms on the rows into one term on
    the identity partition, so that every explicit basis is held dense: the
    reference build that the class-form kernels are checked against.
    ``patch`` is a pytest monkeypatch or one of its contexts."""
    of_terms = Projector.of_terms.__func__

    def summed(cls, terms, label):
        n = terms[0][0].n
        return of_terms(cls, [(Classes(np.arange(n)), sum(c.up(a) for c, a in terms))], label)

    patch.setattr(Projector, "of_terms", classmethod(summed))


def spec_path(name: str) -> Path:
    return DESIGNS / f"{name}.spec"


@pytest.fixture(scope="session")
def design():
    """Loader for a shipped design bundle, cached per session."""

    def inner(name):
        if name not in _designs:
            _designs[name] = load_design(spec_path(name))
        return _designs[name]

    return inner


@pytest.fixture(scope="session")
def built(design):
    """Built decomposition (BuildResult) for a shipped design, cached."""

    def inner(name):
        if name not in _builds:
            _builds[name] = build_decomposition(design(name))
        return _builds[name]

    return inner


@st.composite
def block_designs(draw):
    """A seeded equireplicate block design with n <= 64 units."""
    v = draw(st.integers(min_value=2, max_value=8))
    r = draw(st.integers(min_value=1, max_value=64 // v))
    n = v * r
    k = draw(st.sampled_from([d for d in range(2, n + 1) if n % d == 0]))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    labels = [f"t{i}" for i in range(v) for _ in range(r)]
    random.Random(seed).shuffle(labels)
    return n // k, k, v, labels


def write_block_design(dest: Path, case) -> Path:
    """Write a ``block_designs`` case as random.spec and random.csv in ``dest``."""
    blocks, k, v, labels = case
    lines = [
        "design random",
        "units plots",
        "tier plots",
        f"  factor Blocks {blocks}",
        f"  factor Plots {k}",
        "  formula Blocks/Plots",
        "tier treatments",
        f"  factor Treatments {v}",
        "randomize treatments -> plots type simple",
        "allocation csv random.csv",
    ]
    (dest / "random.spec").write_text("\n".join(lines) + "\n")
    rows = [f"b{i // k},p{i % k},{t}" for i, t in enumerate(labels)]
    (dest / "random.csv").write_text("\n".join(["Blocks,Plots,Treatments"] + rows) + "\n")
    return dest / "random.spec"
