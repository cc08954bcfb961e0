"""Byte-for-byte gate on the command line's output for the shipped bundles.

Runs ``validate``, ``diagnose`` and ``decompose --format text|csv`` in
process on every design under ``designs/`` and compares stdout, stderr and
the exit code with committed files.  The decompose tables are the
benchmark's own expected files (``perfbench/expected``), read only; the
validate and diagnose outputs and uneven's incoherence report are kept in
``tests/golden``.  The outputs do not depend on ``PYTHONHASHSEED``.
"""

import pytest

from tierdecomp import cli_main

from conftest import ALL_SPECS, ROOT, spec_path

GOLDEN = ROOT / "tests" / "golden"
TABLES = ROOT / "perfbench" / "expected"
# uneven's randomizations are incoherent: decompose prints no table, writes
# its report to stderr and exits 1
INCOHERENT = {"uneven"}
RUNS = [
    ("validate",),
    ("diagnose",),
    ("decompose", "--format", "text"),
    ("decompose", "--format", "csv"),
]


def expected(name, command):
    """(stdout, stderr, exit code) the run should give."""
    if command[0] != "decompose":
        return (GOLDEN / f"{name}.{command[0]}.txt").read_bytes(), b"", 0
    if name in INCOHERENT:
        return b"", (GOLDEN / f"{name}.decompose.err").read_bytes(), 1
    suffix = {"text": "txt", "csv": "csv"}[command[2]]
    return (TABLES / f"{name}.{suffix}").read_bytes(), b"", 0


@pytest.mark.parametrize("command", RUNS, ids=lambda c: "-".join(c[::2]))
@pytest.mark.parametrize("name", ALL_SPECS)
def test_output_is_byte_identical(capsysbinary, name, command):
    code = cli_main([command[0], str(spec_path(name)), *command[1:]])
    out, err = capsysbinary.readouterr()
    assert (out, err, code) == expected(name, command)
