"""Spec parsing, design assembly from CSV tables, and the command line."""

import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from tierdecomp import SpecError, cli_main, load_design, parse_spec, randomize, render_spec
from tierdecomp.speccli import Design, load_table

from conftest import ALL_SPECS, ROOT, spec_path

BASE = """design demo
units field
tier field
  factor Blocks 4
  factor Plots 4
  formula Blocks/Plots
tier treatments
  factor Treatments 4
randomize treatments -> field type simple
allocation csv demo.csv
"""


class TestParseSpec:
    def test_minimal_round_trip(self):
        spec = parse_spec(BASE)
        assert spec.name == "demo"
        assert spec.units_tier == "field"
        assert [t.name for t in spec.tiers] == ["field", "treatments"]
        assert spec.steps[0].describe() == "treatments -> field (simple)"
        assert spec.allocation_path == "demo.csv"

    def test_single_factor_formula_defaults(self):
        spec = parse_spec(BASE)
        assert spec.tier("treatments").formula == "Treatments"

    def test_comments_and_blank_lines_ignored(self):
        text = BASE.replace(
            "tier treatments", "# a comment\n\ntier treatments  # trailing comment"
        )
        assert parse_spec(text) == parse_spec(BASE)

    @pytest.mark.parametrize(
        "mangle, fragment",
        [
            (lambda t: t + "garbage here\n", "line 11: unknown directive 'garbage'"),
            (lambda t: t.replace("tier treatments", "tier field"), "declared twice"),
            (lambda t: t.replace("units field\n", ""), "missing units directive"),
            (lambda t: t.replace("allocation csv demo.csv\n", ""), "missing allocation"),
            (lambda t: t.replace("factor Blocks 4", "factor Blocks x"), "levels must be an integer"),
            (lambda t: t.replace("formula Blocks/Plots", "formula Plots"), "declared but not used"),
            (lambda t: t.replace("formula Blocks/Plots", "formula Blocks//Plots"), "unexpected token"),
            (lambda t: t.replace("formula Blocks/Plots", "formula Blocks/Plots\n  formula Plots"), "two formulas"),
            (lambda t: t + "tolerance tol_funky 1e-9\n", "unknown tolerance key"),
            (lambda t: t.replace("randomize treatments", "randomize ghosts"), "'ghosts' is not declared"),
            (lambda t: t.replace("type simple", "type diagonal"), "unknown randomization kind"),
            (lambda t: "design d\nunits u\n  factor A 2\n", "outside a tier block"),
            (
                lambda t: t.replace("  factor Treatments 4", "  factor Treatments 4\n  pseudo T1 2 splits Ghost"),
                "splits unknown factor",
            ),
            (
                lambda t: t.replace("factor Treatments 4", "factor Blocks 9"),
                "9 levels in tier 'treatments' but 4 elsewhere",
            ),
        ],
    )
    def test_rejects_malformed_specs(self, mangle, fragment):
        with pytest.raises(SpecError, match=fragment):
            parse_spec(mangle(BASE))

    def test_step_graph_units_cannot_be_randomized(self):
        text = BASE.replace(
            "randomize treatments -> field type simple",
            "randomize field -> treatments type simple\n"
            "randomize treatments -> field type simple",
        )
        with pytest.raises(SpecError, match="units tier cannot be randomized"):
            parse_spec(text)

    def test_step_graph_every_tier_randomized(self):
        with pytest.raises(SpecError, match="never randomized"):
            parse_spec(BASE.replace("randomize treatments -> field type simple\n", ""))

    def test_double_requires_intermediate_table(self):
        text = BASE.replace("tier treatments", "tier mids\n  factor Mids 4\ntier treatments").replace(
            "randomize treatments -> field type simple",
            "randomize treatments -> field,mids type double",
        )
        with pytest.raises(SpecError, match="needs an allocation-intermediate"):
            parse_spec(text)

    def test_intermediate_table_requires_double(self):
        with pytest.raises(SpecError, match="no double randomization"):
            parse_spec(BASE + "allocation-intermediate csv x.csv\n")


class TestRenderSpec:
    @pytest.mark.parametrize("name", ALL_SPECS)
    def test_parse_render_identity_on_shipped_specs(self, name):
        spec = parse_spec(spec_path(name).read_text())
        assert parse_spec(render_spec(spec)) == spec

    def test_render_includes_tolerances(self):
        spec = parse_spec(BASE + "tolerance snap_max_denominator 8\n")
        assert "tolerance snap_max_denominator 8" in render_spec(spec)


class TestLoadTable:
    def test_reads_columns(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("A,B\n1,x\n2,y\n")
        t = load_table(p)
        assert t.n == 2
        assert t.header == ("A", "B")
        assert t.columns["B"] == ["x", "y"]

    @pytest.mark.parametrize(
        "text, fragment",
        [
            ("A,A\n1,2\n", "duplicate column"),
            ("A,B\n1\n", "row 2 has 1 fields"),
            ("", "is empty"),
            ("A,B\n", "header but no rows"),
        ],
    )
    def test_rejects_malformed(self, tmp_path, text, fragment):
        p = tmp_path / "t.csv"
        p.write_text(text)
        with pytest.raises(SpecError, match=fragment):
            load_table(p)


def design_from(rows, spec_text=BASE, tmp_path=None):
    spec = parse_spec(spec_text)
    p = tmp_path / "d.csv"
    p.write_text(rows)
    return Design(spec, load_table(p))


SMALL_SPEC = BASE.replace("factor Blocks 4", "factor Blocks 2").replace(
    "factor Plots 4", "factor Plots 2"
).replace("factor Treatments 4", "factor Treatments 2")
SMALL_ROWS = "Blocks,Plots,Treatments\n1,1,A\n1,2,B\n2,1,B\n2,2,A\n"


def grazing_bundle(dest):
    """Copy the grazing bundle (spec, units table, paddocks table) into
    ``dest``; returns the spec path."""
    for name in ("grazing.spec", "grazing.csv", "grazing_paddocks.csv"):
        shutil.copy(spec_path("grazing").parent / name, dest)
    return dest / "grazing.spec"


def drop_column(name):
    """A mangle that deletes the CSV column ``name`` (no quoted fields)."""

    def mangle(text):
        rows = [line.split(",") for line in text.splitlines()]
        j = rows[0].index(name)
        return "".join(",".join(r[:j] + r[j + 1 :]) + "\n" for r in rows)

    return mangle


class TestDesignValidation:
    def test_accepts_consistent_tables(self, tmp_path):
        d = design_from(SMALL_ROWS, SMALL_SPEC, tmp_path)
        assert d.n == 4
        assert d.check() == []

    @pytest.mark.parametrize(
        "mangle, fragment",
        [
            (lambda r: r.replace("Treatments", "Ghost"), "unknown column 'Ghost'"),
            (lambda r: r.rsplit("\n", 2)[0] + "\n", "3 rows but the units tier declares 4"),
            (lambda r: r.replace("2,2,A", "1,1,A"), "appears on more than one row"),
            (lambda r: r.replace("2,2,A", "2,2,C"), "3 distinct labels but declares 2"),
            (
                lambda r: "Blocks,Plots\n1,1\n1,2\n2,1\n2,2\n",
                "no column 'Treatments' for tier 'treatments'",
            ),
        ],
    )
    def test_rejects_inconsistent_tables(self, tmp_path, mangle, fragment):
        with pytest.raises(SpecError, match=fragment):
            design_from(mangle(SMALL_ROWS), SMALL_SPEC, tmp_path)

    def test_pseudo_must_be_constant_per_object(self, tmp_path):
        spec_text = SMALL_SPEC.replace(
            "  factor Treatments 2", "  factor Treatments 2\n  pseudo T1 2 splits Treatments"
        )
        rows = "Blocks,Plots,Treatments,T1\n1,1,A,x\n1,2,B,y\n2,1,B,x\n2,2,A,y\n"
        d = design_from(rows, spec_text, tmp_path)
        with pytest.raises(SpecError, match="not constant on the objects"):
            d.tier_structure("treatments")

    def test_pseudo_must_group_whole_parent_classes(self, tmp_path):
        spec_text = BASE.replace(
            "tier treatments\n  factor Treatments 4",
            "tier treatments\n  factor T 2\n  factor U 2\n  formula T*U\n  pseudo P1 2 splits T",
        ).replace("factor Blocks 4", "factor Blocks 2").replace("factor Plots 4", "factor Plots 2")
        rows = "Blocks,Plots,T,U,P1\n1,1,A,1,x\n1,2,B,1,x\n2,1,A,2,x\n2,2,B,2,y\n"
        d = design_from(rows, spec_text, tmp_path)
        with pytest.raises(SpecError, match="does not group whole classes"):
            d.tier_structure("treatments")

    def test_triangle_consistency_enforced(self, tmp_path):
        spec = grazing_bundle(tmp_path)
        main = (tmp_path / "grazing.csv").read_text().splitlines()
        main[1] = main[1].replace("a2", "a1")
        (tmp_path / "grazing.csv").write_text("\n".join(main) + "\n")
        with pytest.raises(SpecError, match="intermediate table gives"):
            load_design(spec)

    @pytest.mark.parametrize(
        "mangle_main, mangle_inter, message",
        [
            (
                None,
                lambda t: t[: t.rindex("p34")],
                "intermediate file {inter}: 11 rows but tier 'paddocks' declares 12 objects",
            ),
            (
                None,
                lambda t: t.replace("p12,", "p11,"),
                "intermediate file {inter}: duplicate 'paddocks' objects",
            ),
            (
                None,
                lambda t: t.replace("p12,", "p99,"),
                "allocation row 3: paddocks object ('p12',) does not appear in the "
                "intermediate table",
            ),
            (
                # without the Paddocks column the units say nothing about
                # paddocks, so only the intermediate table's own rows are checked
                drop_column("Paddocks"),
                lambda t: t.replace("p12,a2,rot2", "p12,a9,rot2"),
                "intermediate file {inter}: treatments object ('a9', 'rot2') never "
                "occurs on the units",
            ),
        ],
        ids=["short", "duplicate", "unknown-object", "unknown-from-object"],
    )
    def test_intermediate_table_messages(self, tmp_path, capsys, mangle_main, mangle_inter, message):
        spec = grazing_bundle(tmp_path)
        for path, mangle in ((tmp_path / "grazing.csv", mangle_main), (tmp_path / "grazing_paddocks.csv", mangle_inter)):
            if mangle is not None:
                path.write_text(mangle(path.read_text()))
        assert cli_main(["validate", str(spec)]) == 2
        inter = tmp_path / "grazing_paddocks.csv"
        assert capsys.readouterr().err == f"error: {message.format(inter=inter)}\n"

    def test_intermediate_bundle_builds_without_the_paddocks_column(self, tmp_path, capsys):
        spec = grazing_bundle(tmp_path)
        main = tmp_path / "grazing.csv"
        main.write_text(drop_column("Paddocks")(main.read_text()))
        assert cli_main(["decompose", str(spec)]) == 0
        assert capsys.readouterr().err == ""


class TestCliExitCodes:
    def test_validate_ok(self, capsys):
        assert cli_main(["validate", str(spec_path("cherry"))]) == 0
        out = capsys.readouterr().out
        assert "ok: design 'cherry' (30 units, 3 tiers, 2 steps)" in out

    def test_decompose_text(self, capsys):
        assert cli_main(["decompose", str(spec_path("cherry"))]) == 0
        out = capsys.readouterr().out
        assert "Trees[Blocks]" in out
        assert "1/6" in out and "5/6" in out

    def test_decompose_csv(self, capsys):
        assert cli_main(["decompose", str(spec_path("cherry")), "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "block_source,lineage,source,tier,df,eff_num,eff_den,eff_float"
        assert len(lines) == 7

    def test_decompose_json(self, capsys):
        assert cli_main(["decompose", str(spec_path("cherry")), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["table"]["df"] == 30

    def test_decompose_out_file(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        assert cli_main(["decompose", str(spec_path("cherry")), "--format", "csv", "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_text().startswith("block_source,")

    def test_decompose_to_a_text_stream(self):
        # stdout redirected in process to a stream that has no bytes buffer
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli_main(["decompose", str(spec_path("cherry"))]) == 0
        want = (ROOT / "perfbench" / "expected" / "cherry.txt").read_text(encoding="utf-8")
        assert out.getvalue() == want

    def test_decompose_ascii(self, capsys):
        assert cli_main(["decompose", str(spec_path("semilatin")), "--ascii"]) == 0
        capsys.readouterr().out.encode("ascii")

    def test_decompose_snap_den_override(self, capsys):
        assert cli_main(["decompose", str(spec_path("cherry")), "--snap-den", "3"]) == 0
        out = capsys.readouterr().out
        assert "0.166667" in out
        assert "1/6" not in out

    def test_decompose_incoherent_exits_1(self, capsys):
        assert cli_main(["decompose", str(spec_path("uneven"))]) == 1
        err = capsys.readouterr().err
        assert "randomizations are incoherent" in err

    def test_diagnose_exits_0_even_when_incoherent(self, capsys):
        assert cli_main(["diagnose", str(spec_path("uneven"))]) == 0
        out = capsys.readouterr().out
        assert "QPQ eigenvalues" in out

    def test_diagnose_clean_design(self, capsys):
        assert cli_main(["diagnose", str(spec_path("rcbd16"))]) == 0
        assert "no incoherence detected" in capsys.readouterr().out

    def test_oracle_match_exits_0(self, capsys):
        assert cli_main(["oracle", str(spec_path("ex2_small"))]) == 0
        assert "verdict: MATCH" in capsys.readouterr().out

    def test_oracle_json(self, capsys):
        assert cli_main(["oracle", str(spec_path("ex2_small")), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["match"] is True

    def test_oracle_over_cap_exits_2(self, capsys):
        assert cli_main(["oracle", str(spec_path("corn"))]) == 2
        assert "error:" in capsys.readouterr().err

    def test_oracle_incoherent_exits_1(self, capsys):
        assert cli_main(["oracle", str(spec_path("uneven"))]) == 1

    def test_missing_file_exits_2(self, capsys):
        assert cli_main(["validate", "no_such.spec"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_spec_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.spec"
        bad.write_text("garbage here\n")
        assert cli_main(["validate", str(bad)]) == 2
        assert "line 1: unknown directive" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["decompose", "diagnose"])
    def test_a_build_out_of_memory_exits_2(self, monkeypatch, capsys, command):
        # numpy refuses an allocation with a MemoryError; raised inside the
        # build, not by allocating
        def refused(*args, **kwargs):
            raise MemoryError("Unable to allocate 32.0 GiB for an array with shape (65536, 65536)")

        monkeypatch.setattr(randomize, "is_structure_balanced", refused)
        assert cli_main([command, str(spec_path("cherry"))]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {command} ran out of memory: Unable to allocate 32.0 GiB for an array with shape (65536, 65536)\n"

    def test_tolerance_override_rejected_values(self, capsys):
        # a tolerance outside the accepted window is a usage error, not a crash
        assert cli_main(["decompose", str(spec_path("cherry")), "--tolerance", "0.5"]) == 2
        assert "error:" in capsys.readouterr().err


def copy_bundle(name, dest):
    """Copy a shipped bundle's spec and CSV into ``dest``; returns the spec path."""
    shutil.copy(spec_path(name), dest)
    shutil.copy(spec_path(name).with_suffix(".csv"), dest)
    return dest / f"{name}.spec"


class TestInputContract:
    def test_non_utf8_spec_exits_2_with_line(self, tmp_path, capsys):
        spec = copy_bundle("rcbd16", tmp_path)
        lines = spec.read_bytes().count(b"\n")
        spec.write_bytes(spec.read_bytes() + b"\xff\xfe\n")
        assert cli_main(["decompose", str(spec)]) == 2
        err = capsys.readouterr().err
        assert f"line {lines + 1}:" in err
        assert "rcbd16.spec is not valid UTF-8" in err

    def test_non_utf8_csv_exits_2_with_line(self, tmp_path, capsys):
        spec = copy_bundle("rcbd16", tmp_path)
        csv = tmp_path / "rcbd16.csv"
        rows = csv.read_bytes().split(b"\n")
        rows[3] = rows[3].replace(b"b1", b"b\xe91")
        csv.write_bytes(b"\n".join(rows))
        assert cli_main(["validate", str(spec)]) == 2
        err = capsys.readouterr().err
        assert "line 4:" in err
        assert "rcbd16.csv is not valid UTF-8" in err

    def test_byte_order_mark_is_skipped(self, tmp_path, capsys):
        # spreadsheet exports start a UTF-8 file with U+FEFF
        spec = copy_bundle("rcbd16", tmp_path)
        for path in (spec, tmp_path / "rcbd16.csv"):
            path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert cli_main(["decompose", str(spec_path("rcbd16"))]) == 0
        shipped = capsys.readouterr().out
        assert cli_main(["decompose", str(spec)]) == 0
        assert capsys.readouterr().out == shipped

    def test_byte_order_mark_keeps_line_and_byte_of_a_bad_byte(self, tmp_path, capsys):
        spec = copy_bundle("rcbd16", tmp_path)
        lines = spec.read_bytes().split(b"\n")
        lines[1] = lines[1] + b"\xff"
        data = b"\xef\xbb\xbf" + b"\n".join(lines)
        spec.write_bytes(data)
        assert cli_main(["validate", str(spec)]) == 2
        err = capsys.readouterr().err
        byte = data.index(b"\xff") + 1  # counted from the mark
        assert "line 2:" in err
        assert f"rcbd16.spec is not valid UTF-8 (byte {byte})" in err

    def test_validate_runs_the_lift(self, tmp_path, capsys):
        # one plot switched to another treatment: every column still has its
        # declared levels, but replication is unequal and the lift fails
        spec = copy_bundle("rcbd16", tmp_path)
        csv = tmp_path / "rcbd16.csv"
        text = csv.read_text()
        assert "b1,p1,t1\n" in text
        csv.write_text(text.replace("b1,p1,t1\n", "b1,p1,t3\n"))
        assert cli_main(["decompose", str(spec)]) == 2
        assert "lifting condition" in capsys.readouterr().err
        assert cli_main(["validate", str(spec)]) == 2
        assert "lifting condition" in capsys.readouterr().err


ROOT = Path(__file__).resolve().parent.parent


def run_cli(args, hash_seed="0"):
    """``python -m tierdecomp ARGS`` in a fresh interpreter."""
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "tierdecomp", *args],
        env=env,
        capture_output=True,
        timeout=120,
    )


class TestCliSubprocess:
    def test_numerical_failure_exits_2_without_a_traceback(self):
        # 3e-16 is below the rounding of cherry's sweeps: a ProjectorError
        proc = run_cli(["decompose", str(spec_path("cherry")), "--tolerance", "3e-16"])
        err = proc.stderr.decode()
        assert proc.returncode == 2, err
        assert "Traceback" not in err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "--tolerance" in err

    def test_json_is_the_same_under_any_hash_seed(self):
        digests = {
            hashlib.md5(
                run_cli(["decompose", str(spec_path("semilatin")), "--format", "json"], seed).stdout
            ).hexdigest()
            for seed in ("0", "1", "2")
        }
        assert len(digests) == 1
