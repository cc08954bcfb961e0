"""Property-based checks for the numeric kernel."""

import numpy as np
from hypothesis import given, settings, strategies as st

from tierdecomp.oracle import orthonormal_basis
from tierdecomp.projlin import DEFAULT_POLICY, Projector, snap_rational
from tierdecomp.structure import AllocationMap

from conftest import design_matrix


@given(
    num=st.integers(min_value=0, max_value=64),
    den=st.integers(min_value=1, max_value=64),
)
@settings(max_examples=100, derandomize=True, database=None)
def test_snap_recovers_small_rationals(num, den):
    # any value that is exactly a small fraction in [0, 1] snaps back to it
    if num > den:
        num = den
    snapped = snap_rational(num / den, DEFAULT_POLICY)
    assert snapped.rational is not None
    got_num, got_den = snapped.rational
    assert got_num * den == num * got_den  # same fraction after reduction


@given(
    st.integers(min_value=2, max_value=8),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=60, derandomize=True, database=None, deadline=None)
def test_orthonormal_basis_invariants(n, k, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, k))
    b = orthonormal_basis(x)
    r = b.shape[1]
    assert r == np.linalg.matrix_rank(x, tol=1e-8)
    assert np.allclose(b.T @ b, np.eye(r), atol=1e-10)
    # the basis reproduces every original column
    assert np.allclose(b @ (b.T @ x), x, atol=1e-8)


@given(
    classes=st.integers(min_value=1, max_value=6),
    per_class=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=40, derandomize=True, database=None, deadline=None)
def test_averaging_projector_validates(classes, per_class, seed):
    # class averaging over an equireplicate partition is always a projector
    rng = np.random.default_rng(seed)
    ids = np.repeat(np.arange(classes), per_class)
    rng.shuffle(ids)
    n = ids.shape[0]
    x = np.zeros((n, classes))
    x[np.arange(n), ids] = 1.0
    avg = x @ np.diag(1.0 / x.sum(axis=0)) @ x.T
    p = Projector.validated(avg, "classes", DEFAULT_POLICY)
    assert p.df == classes


@given(
    blocks=st.integers(min_value=2, max_value=6),
    treatments=st.integers(min_value=2, max_value=5),
)
@settings(max_examples=30, derandomize=True, database=None, deadline=None)
def test_complete_blocks_are_equireplicate(blocks, treatments):
    # a complete-block assignment is equireplicate with one unit per class pair
    n = blocks * treatments
    assignment = [i % treatments for i in range(n)]
    alloc = AllocationMap(
        tier="treatments", objects=list(range(treatments)), assignment=assignment
    )
    x = design_matrix(alloc)
    assert x.shape == (n, treatments)
    assert x.sum() == n
    assert alloc.replication == blocks
