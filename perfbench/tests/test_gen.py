import itertools
from collections import Counter

import pytest

import gen


def _rows(table: str) -> list:
    return [line.split(",") for line in table.splitlines()[1:]]


@pytest.mark.parametrize("kind,size", [("lattice", 5), ("cyclic", 20), ("rcbd", 64)])
def test_same_seed_same_bytes(kind, size, tmp_path):
    first = gen.generate(kind, size, 7)
    assert gen.generate(kind, size, 7) == first
    assert gen.generate(kind, size, 8) != first
    spec_path = gen.write(kind, size, 7, tmp_path)
    assert spec_path.read_text(encoding="utf-8") == first[0]
    assert (tmp_path / f"{kind}.csv").read_text(encoding="utf-8") == first[1]


def test_lattice_is_balanced():
    k = 5
    _, table = gen.lattice(k, 3)
    blocks: dict = {}
    for rep, block, _, t in _rows(table):
        blocks.setdefault((rep, block), set()).add(t)
    assert len(blocks) == k * (k + 1)
    assert all(len(b) == k for b in blocks.values())
    concurrences = Counter(
        pair for b in blocks.values() for pair in itertools.combinations(sorted(b), 2)
    )
    assert len(concurrences) == k * k * (k * k - 1) // 2
    assert set(concurrences.values()) == {1}
    for rep in range(1, k + 2):  # each replicate holds every treatment once
        held = [t for (r, _), b in blocks.items() if r == str(rep) for t in b]
        assert sorted(held) == sorted(str(t) for t in range(1, k * k + 1))


def test_cyclic_blocks_are_consecutive_after_relabelling():
    v, k = 20, gen.CYCLIC_BLOCK
    _, table = gen.cyclic(v, 4)
    rows = _rows(table)
    assert len(rows) == v * k
    assert Counter(t for *_, t in rows) == {str(t): k for t in range(1, v + 1)}
    first_block = [t for b, _, t in rows if b == "1"]
    second_block = [t for b, _, t in rows if b == "2"]
    assert first_block[1:] == second_block[:-1]


def test_rcbd_blocks_are_complete():
    _, table = gen.rcbd(48, 2)
    blocks: dict = {}
    for block, _, t in _rows(table):
        blocks.setdefault(block, []).append(t)
    assert len(blocks) == 3
    assert all(sorted(b, key=int) == [str(t) for t in range(1, 17)] for b in blocks.values())


@pytest.mark.parametrize("kind,size", [("lattice", 6), ("cyclic", 8), ("rcbd", 40), ("rcbd", 16)])
def test_rejects_bad_sizes(kind, size):
    with pytest.raises(ValueError):
        gen.generate(kind, size, 1)
