import pytest
import tierdecomp as td
from tierdecomp import projlin, structure

import tracing
import workloads


def test_self_time_on_a_hand_built_tree():
    # a[0,10] has children b[1,4] and c[3,6] (overlapping), b has child d[2,3];
    # e[12,13] is a second root
    starts = [0.0, 1.0, 3.0, 2.0, 12.0]
    ends = [10.0, 4.0, 6.0, 3.0, 13.0]
    parents = [-1, 0, 0, 1, -1]
    assert tracing.self_times(starts, ends, parents) == pytest.approx([5.0, 2.0, 3.0, 1.0, 1.0])
    names = ["a", "b", "c", "b", "e"]
    assert tracing.outermost_totals(names, starts, ends, parents, {"b"}) == pytest.approx(3.0)
    assert tracing.outermost_totals(names, starts, ends, parents, {"a", "c"}) == pytest.approx(10.0)


def test_child_outside_parent_is_clipped():
    assert tracing.self_times([0.0, 8.0], [10.0, 12.0], [-1, 0]) == pytest.approx([8.0, 4.0])


def test_covered_merges_overlaps():
    assert tracing.covered([(0, 2), (1, 3), (5, 6)]) == pytest.approx(4.0)
    assert tracing.covered([]) == 0.0


def test_install_reaches_names_imported_by_other_modules():
    original = projlin.mul
    tracer = tracing.Tracer()
    tracer.request = 0
    tracer.install()
    try:
        assert structure.mul is not original
        assert structure.mul is projlin.mul
        workloads.decompose(td, workloads.DESIGNS / "rcbd16.spec")
    finally:
        tracer.uninstall()
    assert structure.mul is original and projlin.mul is original
    assert isinstance(projlin.Projector.__dict__["validated"], classmethod)
    parents = {tracer.names[p] for n, p in zip(tracer.names, tracer.parents) if n == "projlin.mul"}
    assert {"structure.lift", "structure.is_structure_balanced"} <= parents
    muls = tracer.names.count("projlin.mul")
    tracer.finish()
    assert tracer.names == [] and len(tracer.kept) > muls
    metrics = tracing.layer_metrics(tracer.rows)
    assert metrics["projlin.mul.calls"] == muls
    assert metrics["structure.balance.pairs"] >= metrics["structure.balance.distinct"] > 0
