"""Formula parsing, term expansion, and tier structure construction."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tierdecomp import (
    Factor,
    FormulaError,
    PseudofactorDecl,
    attach_data,
    expand_terms,
    parse_formula,
    source_projectors,
)


def make_poset(formula, factors):
    declared = {f.name for f in factors}
    return expand_terms(parse_formula(formula, declared=declared), factors)


def labels(poset):
    return [poset.label(t) for t in poset.terms]


class TestParsing:
    def test_single_factor(self):
        poset = make_poset("Plots", [Factor("Plots", 4)])
        assert labels(poset) == ["Mean", "Plots"]

    def test_nesting(self):
        poset = make_poset("Blocks/Trees", [Factor("Blocks", 3), Factor("Trees", 10)])
        assert labels(poset) == ["Mean", "Blocks", "Trees[Blocks]"]

    def test_crossing(self):
        poset = make_poset("A*B", [Factor("A", 2), Factor("B", 3)])
        assert labels(poset) == ["Mean", "A", "B", "A#B"]

    def test_nesting_binds_tighter_than_crossing(self):
        fs = [Factor("A", 2), Factor("B", 3), Factor("C", 2)]
        poset = make_poset("A*B/C", fs)
        assert labels(poset) == ["Mean", "A", "B", "C[B]", "A#B", "A#C[B]"]

    def test_parentheses_override_precedence(self):
        fs = [Factor("A", 2), Factor("B", 3), Factor("C", 2)]
        poset = make_poset("(A*B)/C", fs)
        assert labels(poset) == ["Mean", "A", "B", "A#B", "C[B∧A]"]

    @pytest.mark.parametrize(
        "text, fragment",
        [
            ("A**B", "unexpected token"),
            ("A/(B", "missing closing parenthesis"),
            ("", "empty formula"),
            ("A$B", "unexpected character"),
        ],
    )
    def test_syntax_errors(self, text, fragment):
        with pytest.raises(FormulaError, match=fragment):
            parse_formula(text)

    def test_undeclared_factor(self):
        with pytest.raises(FormulaError, match="undeclared factor 'D'"):
            parse_formula("A*D", declared={"A", "B"})

    def test_errors_carry_offset(self):
        with pytest.raises(FormulaError) as err:
            parse_formula("A$B")
        assert err.value.offset == 1


class TestPoset:
    def test_finest_term(self):
        poset = make_poset("Blocks/Trees", [Factor("Blocks", 3), Factor("Trees", 10)])
        assert poset.label(poset.finest()) == "Trees[Blocks]"

    def test_maximal_below(self):
        fs = [Factor("A", 2), Factor("B", 3), Factor("C", 2)]
        poset = make_poset("(A*B)/C", fs)
        finest = poset.term(frozenset({"A", "B", "C"}))
        below = {poset.label(t) for t in poset.maximal_below(finest)}
        assert below == {"A#B"}

    def test_ascii_labels(self):
        fs = [Factor("A", 2), Factor("B", 3), Factor("C", 2)]
        poset = make_poset("(A*B)/C", fs)
        finest = poset.term(frozenset({"A", "B", "C"}))
        assert poset.label(finest, ascii_only=True) == "C[B^A]"


class TestWithData:
    def test_degrees_of_freedom(self):
        cols = {"Blocks": np.repeat([0, 1, 2], 4), "Trees": np.tile([0, 1, 2, 3], 3)}
        poset = make_poset("Blocks/Trees", [Factor("Blocks", 3), Factor("Trees", 4)])
        poset = attach_data(poset, cols, 12)
        df = {poset.label(t): poset.df[t.constituents] for t in poset.terms}
        assert df == {"Mean": 1, "Blocks": 2, "Trees[Blocks]": 9}

    def test_structure_elements(self):
        cols = {"Blocks": np.repeat([0, 1, 2], 4), "Trees": np.tile([0, 1, 2, 3], 3)}
        poset = make_poset("Blocks/Trees", [Factor("Blocks", 3), Factor("Trees", 4)])
        s = source_projectors(poset, cols, 12, space_label="field")
        assert [(p.label, p.df) for p in s.elements] == [
            ("Mean", 1),
            ("Blocks", 2),
            ("Trees[Blocks]", 9),
        ]
        s.validate()

    def test_structure_sums_to_finest_averaging(self):
        # two rows per cell: the sources span cell means, not single rows;
        # then unequal but proportional cells, n_ab = n_a n_b / n
        for cols, cells in [
            ({"A": np.repeat([0, 1], 6), "B": np.tile([0, 1, 2], 4)}, 6),
            ({"A": np.repeat([0, 1], [4, 8]), "B": np.tile([0, 1], 6)}, 4),
        ]:
            poset = make_poset("A*B", [Factor("A", 2), Factor("B", 3)])
            s = source_projectors(poset, cols, 12)
            total = sum(p.matrix for p in s.elements)
            assert np.allclose(total, s.total.matrix, atol=1e-12)
            assert s.total.df == cells
            s.validate()

    def test_structure_sums_to_identity_when_cells_are_single(self):
        cols = {"A": np.repeat([0, 1], 3), "B": np.tile([0, 1, 2], 2)}
        poset = make_poset("A*B", [Factor("A", 2), Factor("B", 3)])
        s = source_projectors(poset, cols, 6)
        total = sum(p.matrix for p in s.elements)
        assert np.allclose(total, np.eye(6), atol=1e-12)

    def test_nonorthogonal_partitions_rejected(self):
        fs = [Factor("A", 4), Factor("B", 4)]
        for cols, message in [
            # A and B overlap without nesting, so their crossing cannot split
            # off an orthogonal interaction subspace
            ({"A": [0, 0, 0, 1, 1, 1], "B": [0, 0, 1, 1, 2, 2]}, "are not orthogonal within Mean"),
            # orthogonal, but their 2-class join is not a term of A*B
            (
                {"A": [0, 0, 1, 1, 2, 2, 3, 3], "B": [0, 1, 0, 1, 2, 3, 2, 3]},
                "have no supremum among the tier's terms",
            ),
            # one empty cell, where n_a n_b / n = 2/3
            ({"A": [0, 0, 0, 0, 1, 1], "B": [0, 0, 1, 1, 0, 0]}, "are not orthogonal within Mean"),
        ]:
            poset = make_poset("A*B", fs)
            with pytest.raises(FormulaError, match=rf"^tier field: A and B {message}$"):
                source_projectors(poset, cols, len(cols["A"]), space_label="field")

    def test_overlap_below_a_lower_term_is_caught_at_the_finest(self):
        # A and B are crossed with unequal cell counts, so they overlap
        # inside A#B and below C; the pair's count table names them
        cols = {
            "A": np.array([0, 0, 0, 0, 1, 1, 1, 1]),
            "B": np.array([0, 0, 1, 2, 0, 1, 2, 2]),
            "C": np.array([0, 1, 0, 0, 0, 0, 0, 1]),
        }
        fs = [Factor("A", 2), Factor("B", 3), Factor("C", 2)]
        poset = make_poset("(A*B)/C", fs)
        with pytest.raises(FormulaError, match=r"^tier field: A and B are not orthogonal within Mean$"):
            source_projectors(poset, cols, 8, space_label="field")

    def test_aliased_terms_rejected(self):
        # B refines A observationally, so A#B and B induce the same partition
        cols = {"A": np.repeat([0, 1], 2), "B": np.arange(4)}
        poset = make_poset("A*B", [Factor("A", 2), Factor("B", 4)])
        with pytest.raises(FormulaError, match="same partition"):
            attach_data(poset, cols, 4)


FORMULAS = {
    2: ["A*B", "A/B"],
    3: ["A*B*C", "A*(B/C)", "(A*B)/C", "A/B/C", "A/(B*C)"],
}


@st.composite
def random_tiers(draw):
    """(formula, factors, columns, n, pseudofactors) of a small tier: the
    factors' levels crossed r times over, then, in a share, made
    non-orthogonal by moving a row to another level, dropping rows or
    shuffling a column, or given a join that is not a term by confining a
    4-level factor to two levels in each parity class of another, with a
    pseudofactor grouping one factor's levels in another share."""
    sizes = draw(st.lists(st.integers(2, 4), min_size=2, max_size=3))
    defect = draw(st.sampled_from(["none", "none", "move", "drop", "shuffle", "confine"]))
    j = draw(st.integers(0, len(sizes) - 1))
    k = (j + 1) % len(sizes)
    if defect == "confine":
        # with 2 levels the parity classes would be the factor's own
        sizes[j], sizes[k] = max(sizes[j], 3), 4
        if len(sizes) == 3:
            sizes[(k + 1) % 3] = 2  # so that the levels cross at most 32 times
    reps = draw(st.integers(1, max(1, 48 // math.prod(sizes))))
    rows = np.array(list(itertools.product(*map(range, sizes))) * reps)
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    if defect == "move":
        i = rng.integers(len(rows))
        rows[i, j] = (rows[i, j] + 1) % sizes[j]
    elif defect == "drop":
        rows = np.delete(rows, rng.choice(len(rows), draw(st.integers(1, 3)), replace=False), 0)
    elif defect == "shuffle":
        rows[:, j] = rng.permutation(rows[:, j])
    elif defect == "confine":
        rows[:, k] = rows[:, k] % 2 + 2 * (rows[:, j] % 2)
    names = "ABC"[: len(sizes)]
    cols = {name: rows[:, c] for c, name in enumerate(names)}
    factors = [Factor(name, size) for name, size in zip(names, sizes)]
    pseudos = []
    if sizes[j] > 2 and draw(st.booleans()):
        cols["P"] = rows[:, j] // 2
        pseudos = [PseudofactorDecl("P", (sizes[j] + 1) // 2, names[j])]
    return draw(st.sampled_from(FORMULAS[len(sizes)])), factors, cols, len(rows), pseudos


def hasse_sources_are_orthogonal(poset, n):
    """The dense reference: each term's indicator span minus the spans of the
    terms below it, all on one Gram, which must be I to 1e-9, with a df sum
    equal to the finest term's class count."""

    def basis(x):
        u, sv, _ = np.linalg.svd(x, full_matrices=False)
        return u[:, sv > 1e-9]

    def indicators(keys):
        return np.hstack([np.eye(poset.nlevels[k])[poset.ids[k]] for k in keys] or [np.zeros((n, 0))])

    parts = []
    for t in poset.terms:
        low = basis(indicators(poset.below[t.constituents]))
        own = basis(indicators([t.constituents]))
        parts.append(basis(own - low @ (low.T @ own)))
    w = np.hstack(parts)
    gap = np.abs(w.T @ w - np.eye(w.shape[1])).max()
    return gap <= 1e-9 and w.shape[1] == poset.nlevels[poset.finest().constituents]


@given(tier=random_tiers())
@settings(max_examples=200, derandomize=True, database=None, deadline=None)
def test_exact_check_agrees_with_the_dense_gram(tier):
    formula, factors, cols, n, pseudos = tier
    try:
        poset = attach_data(make_poset(formula, factors), cols, n, pseudos)
    except FormulaError:
        return  # aliased terms or negative df: rejected before the sources
    try:
        source_projectors(poset, cols, n)
        built = True
    except FormulaError:
        built = False
    assert built == hasse_sources_are_orthogonal(poset, n)
