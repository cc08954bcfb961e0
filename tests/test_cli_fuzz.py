"""The CLI's error contract under mutated input files and tolerances.

Whatever bytes a spec or an allocation table holds, ``validate``,
``decompose`` and ``diagnose`` end in exit 0 (ok), 1 (incoherent) or 2
(bad input, with one ``error:`` line) and never let an exception escape.
So does a tolerance tighter than the build's rounding.
"""

import contextlib
import io
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import gen
from conftest import DESIGNS
from tierdecomp import cli_main

# small bundles covering every step kind and the intermediate table
BUNDLES = {
    "minimal": ["minimal.spec", "minimal.csv"],
    "rcbd16": ["rcbd16.spec", "rcbd16.csv"],
    "cherry": ["cherry.spec", "cherry.csv"],
    "ex2_small": ["ex2_small.spec", "ex2_small.csv"],
    "plant": ["plant.spec", "plant.csv"],
    "grazing": ["grazing.spec", "grazing.csv", "grazing_paddocks.csv"],
    "uneven": ["uneven.spec", "uneven.csv"],
}
ORIGINALS = {f: (DESIGNS / f).read_bytes() for files in BUNDLES.values() for f in files}
OPS = ["delete", "insert", "replace line", "duplicate line", "swap lines", "swap words"]
# bytes that the spec and CSV grammars give meaning to, and some they do not
TOKENS = [b",", b"\n", b" ", b"0", b"1", b"9", b"-", b"#", b"/", b"*", b"\xff", b"\xe9", b"\r"]


@st.composite
def mutated_bundles(draw):
    """(spec name, {file name: bytes}) with one file of a bundle mutated."""
    name = draw(st.sampled_from(sorted(BUNDLES)))
    files = {f: ORIGINALS[f] for f in BUNDLES[name]}
    target = draw(st.sampled_from(BUNDLES[name]))
    data = files[target]
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        op = draw(st.sampled_from(OPS))
        if op == "swap words":
            # keeps the grammar, so the input often reaches the engine
            parts = re.split(rb"([,\s]+)", data)
            i, j = (2 * draw(st.integers(min_value=0, max_value=len(parts) // 2)) for _ in "ij")
            parts[i], parts[j] = parts[j], parts[i]
            data = b"".join(parts)
            continue
        if op in ("delete", "insert"):
            at = draw(st.integers(min_value=0, max_value=len(data)))
            if op == "delete":
                data = data[:at] + data[at + draw(st.integers(min_value=1, max_value=8)):]
            else:
                chunk = draw(st.lists(st.sampled_from(TOKENS), min_size=1, max_size=4))
                data = data[:at] + b"".join(chunk) + data[at:]
            continue
        lines = data.split(b"\n")
        i = draw(st.integers(min_value=0, max_value=len(lines) - 1))
        if op == "replace line":
            lines[i] = draw(st.binary(max_size=12))
        elif op == "duplicate line":
            lines.insert(i, lines[i])
        else:
            j = draw(st.integers(min_value=0, max_value=len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        data = b"\n".join(lines)
    files[target] = data
    return name, files


def run_cli(argv) -> tuple[int, str]:
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1
    return code, err.getvalue()


@pytest.mark.parametrize("command", ["validate", "decompose", "diagnose"])
@given(case=mutated_bundles())
@settings(max_examples=80, derandomize=True, database=None, deadline=None)
def test_mutated_inputs_keep_the_exit_contract(command, case):
    name, files = case
    with tempfile.TemporaryDirectory() as tmp:
        for fname, data in files.items():
            (Path(tmp) / fname).write_bytes(data)
        run_cli([command, str(Path(tmp) / f"{name}.spec")])


# tolerances below the build's rounding: an efficiency factor rounds to
# just above 1, or a distinctness or double-randomization home test finds a
# gap within its rounding bound
BELOW_ROUNDING = [
    ("ex2", 1e-16),
    ("ex2_small", 1e-16),
    ("corn", 1e-16),
    ("semilatin", 1e-16),
    ("uneven", 1e-16),
    ("lattice", 1e-16),
    ("cyclic", 1e-16),
    ("grazing", 3e-16),
]


@pytest.mark.parametrize("command", ["decompose", "diagnose"])
@pytest.mark.parametrize("name, tolerance", BELOW_ROUNDING)
def test_a_tolerance_below_rounding_keeps_the_exit_contract(tmp_path, command, name, tolerance):
    if name in ("lattice", "cyclic"):
        spec = gen.write(name, 11 if name == "lattice" else 96, 1, tmp_path)
    else:
        spec = tmp_path / f"{name}.spec"
        for path in [DESIGNS / spec.name, *DESIGNS.glob(f"{name}*.csv")]:
            (tmp_path / path.name).write_bytes(path.read_bytes())
    if command == "decompose":
        argv = [command, str(spec), "--tolerance", str(tolerance)]
    else:
        # diagnose reads its tolerances from the spec alone
        keys = ("tol_sym", "tol_idem", "tol_zero")
        spec.write_text(
            spec.read_text(encoding="utf-8") + "".join(f"tolerance {k} {tolerance}\n" for k in keys),
            encoding="utf-8",
        )
        argv = [command, str(spec)]
    code, err = run_cli(argv)
    assert code == 2
    source = "--tolerance" if command == "decompose" else "a tolerance directive in the spec"
    assert err.endswith(f"(a numerical check failed; {source} may be tighter than the build's rounding)\n")


def test_the_oracle_names_the_spec_directive_below_rounding(tmp_path):
    # oracle has no --tolerance option; the spec's directives reach its policy
    spec = tmp_path / "ex2.spec"
    for path in [DESIGNS / spec.name, *DESIGNS.glob("ex2*.csv")]:
        (tmp_path / path.name).write_bytes(path.read_bytes())
    keys = ("tol_sym", "tol_idem", "tol_zero")
    spec.write_text(
        spec.read_text(encoding="utf-8") + "".join(f"tolerance {k} 1e-16\n" for k in keys),
        encoding="utf-8",
    )
    code, err = run_cli(["oracle", str(spec)])
    assert code == 2
    assert err.endswith(
        "(a numerical check failed; a tolerance directive in the spec may be tighter than the build's rounding)\n"
    )
