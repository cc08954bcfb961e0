"""Formula parsing, term expansion, and tier structure construction."""

import numpy as np
import pytest

from tierdecomp import (
    Factor,
    FormulaError,
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
        # two rows per cell: the sources span cell means, not single rows
        cols = {"A": np.repeat([0, 1], 6), "B": np.tile([0, 1, 2], 4)}
        poset = make_poset("A*B", [Factor("A", 2), Factor("B", 3)])
        s = source_projectors(poset, cols, 12)
        total = sum(p.matrix for p in s.elements)
        assert np.allclose(total, s.total.matrix, atol=1e-12)
        assert s.total.df == 6

    def test_structure_sums_to_identity_when_cells_are_single(self):
        cols = {"A": np.repeat([0, 1], 3), "B": np.tile([0, 1, 2], 2)}
        poset = make_poset("A*B", [Factor("A", 2), Factor("B", 3)])
        s = source_projectors(poset, cols, 6)
        total = sum(p.matrix for p in s.elements)
        assert np.allclose(total, np.eye(6), atol=1e-12)

    def test_nonorthogonal_partitions_rejected(self):
        # A and B overlap without nesting, so their crossing cannot split off
        # an orthogonal interaction subspace
        cols = {"A": np.array([0, 0, 0, 1, 1, 1]), "B": np.array([0, 0, 1, 1, 2, 2])}
        poset = make_poset("A*B", [Factor("A", 2), Factor("B", 3)])
        with pytest.raises(FormulaError, match="not orthogonal"):
            source_projectors(poset, cols, 6)

    def test_overlap_below_a_lower_term_is_caught_at_the_finest(self):
        # A and B are crossed with unequal cell counts, so they overlap
        # inside A#B; the tier family is checked once, at the finest term,
        # pair by pair before its whole gap, so the message names the pair
        cols = {
            "A": np.array([0, 0, 0, 0, 1, 1, 1, 1]),
            "B": np.array([0, 0, 1, 2, 0, 1, 2, 2]),
            "C": np.array([0, 1, 0, 0, 0, 0, 0, 1]),
        }
        fs = [Factor("A", 2), Factor("B", 3), Factor("C", 2)]
        poset = make_poset("(A*B)/C", fs)
        with pytest.raises(FormulaError, match=r"^tier field: elements A and B are not orthogonal"):
            source_projectors(poset, cols, 8, space_label="field")

    def test_aliased_terms_rejected(self):
        # B refines A observationally, so A#B and B induce the same partition
        cols = {"A": np.repeat([0, 1], 2), "B": np.arange(4)}
        poset = make_poset("A*B", [Factor("A", 2), Factor("B", 4)])
        with pytest.raises(FormulaError, match="same partition"):
            attach_data(poset, cols, 4)
