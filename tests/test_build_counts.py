"""The product and call counter behind the per-design figures in CHANGES.md."""

import importlib.util

import pytest

from tierdecomp import IncoherenceError, build_decomposition, load_design
from tierdecomp import formula, projlin, randomize, speccli, structure

from conftest import ROOT, spec_path


def _load_counter():
    path = ROOT / "tools" / "build_counts.py"
    spec = importlib.util.spec_from_file_location("build_counts", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["ex2", "uneven"])
def test_products_match_a_wrapped_mul(monkeypatch, name):
    counter = _load_counter()
    got, _, incoherent = counter.count_build(spec_path(name))
    assert incoherent == (name == "uneven")
    original, calls = projlin.mul, []
    # the counter leaves every module's mul as it found it
    assert all(getattr(m, "mul", original) is original for m in (formula, randomize, speccli))

    def counted(a, b):
        calls.append(a.shape)
        return original(a, b)

    design = load_design(spec_path(name))
    for module in (projlin, structure, formula, randomize, speccli):
        if getattr(module, "mul", None) is original:
            monkeypatch.setattr(module, "mul", counted)
    if incoherent:
        with pytest.raises(IncoherenceError):
            build_decomposition(design)
    else:
        build_decomposition(design)
    assert got == len(calls) > 0


def test_prints_one_line_per_design(capsys):
    counter = _load_counter()
    assert counter.main([str(spec_path("minimal")), str(spec_path("uneven"))]) == 0
    header, minimal, uneven = capsys.readouterr().out.splitlines()
    assert header.split() == ["products", "eigensolves", "calls", "design"]
    assert [int(v) for v in minimal.split()[:2]] == list(counter.count_build(spec_path("minimal"))[:2])
    assert int(minimal.split()[2]) > 0
    assert uneven.endswith("(incoherent: diagnosed)")
    assert counter.main([]) == 2


@pytest.mark.parametrize("name, want", [("corn", 0), ("plant", 1)])
def test_eigensolves_of_one_build(name, want):
    # every row of corn lies in the span of the classes that its implicit
    # lots source fills, so none takes an eigensolve trim; plant's three
    # rows are absorbed too, and only the implicit one, Positions[Benches],
    # takes the trim
    assert _load_counter().count_build(spec_path(name))[1] == want
