"""Design spec files, allocation tables, and the command-line interface.

A design spec is a small line-oriented text file: it names the design,
declares each tier (factors, pseudofactors, formula), lists the
randomization steps, and points at the allocation CSV holding one row per
observational unit with a column per factor.  ``parse_spec`` turns the text
into a DesignSpec, ``load_design`` adds the allocation data and returns a
Design ready for the build loop, and ``cli_main`` wires the subcommands:

    tierdecomp validate  design.spec
    tierdecomp decompose design.spec --format text|csv|json
    tierdecomp diagnose  design.spec
    tierdecomp oracle    design.spec --max-units 64

Exit codes: 0 success, 1 incoherence (decompose) or mismatch (oracle),
2 parse/IO/validation failure, a build that runs out of memory, or a
numerical check that fails (usually a tolerance tighter than the build's
rounding: ``--tolerance`` of ``decompose`` or a ``tolerance`` directive in
the spec).  ``diagnose`` exits 0 even when it finds
incoherence; reporting it is its job.
"""

from __future__ import annotations

import argparse
import io
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .formula import (
    Factor,
    FormulaError,
    PseudofactorDecl,
    _ast_factors,
    _class_ids,
    attach_data,
    expand_terms,
    parse_formula,
    source_projectors,
)
from .projlin import DEFAULT_POLICY, EfficiencyRangeError, ProjectorError, TolerancePolicy, refines
from .randomize import (
    BuildError,
    IncoherenceError,
    RandomizationStep,
    STEP_KINDS,
    build_decomposition,
    diagnose_incoherence,
)
from .structure import (
    AllocationMap,
    InternalInconsistencyError,
    LiftingError,
    Structure,
    lift,
)
from .tabrender import layout, render

__all__ = [
    "SpecError",
    "TierDecl",
    "DesignSpec",
    "parse_spec",
    "render_spec",
    "AllocationTable",
    "load_table",
    "Design",
    "load_design",
    "cli_main",
]

_TOLERANCE_KEYS = ("tol_sym", "tol_idem", "tol_zero", "tol_eig", "snap_max_denominator")


class SpecError(ValueError):
    """Spec or allocation data rejected; carries a line number when known."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@dataclass(frozen=True)
class TierDecl:
    name: str
    factors: tuple
    pseudos: tuple
    formula: str


@dataclass(frozen=True)
class DesignSpec:
    name: str
    units_tier: str
    tiers: tuple
    steps: tuple
    allocation_path: str
    intermediate_path: str | None
    tolerances: tuple

    def tier(self, name: str) -> TierDecl:
        for t in self.tiers:
            if t.name == name:
                return t
        raise KeyError(f"no tier named {name!r}")


# --- parsing ------------------------------------------------------------------


class _TierBuilder:
    def __init__(self, name, line):
        self.name = name
        self.line = line
        self.factors = []
        self.pseudos = []
        self.formula = None
        self.formula_line = None


def parse_spec(text: str) -> DesignSpec:
    """Parse design-spec text; errors carry the 1-based line number."""
    name = None
    units = None
    tiers: list[_TierBuilder] = []
    steps = []
    allocation = None
    intermediate = None
    tolerances = []
    current: _TierBuilder | None = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        indented = line[0] in " \t"
        tokens = line.split()

        if indented:
            if current is None:
                raise SpecError(
                    f"indented directive {tokens[0]!r} outside a tier block", lineno
                )
            _parse_tier_line(current, tokens, line, lineno)
            continue

        current = None
        head = tokens[0]
        if head == "design":
            if name is not None:
                raise SpecError("duplicate design directive", lineno)
            if len(tokens) < 2:
                raise SpecError("design directive needs a name", lineno)
            name = line.split(None, 1)[1].strip()
        elif head == "units":
            if units is not None:
                raise SpecError("duplicate units directive", lineno)
            if len(tokens) != 2:
                raise SpecError("usage: units <tier>", lineno)
            units = tokens[1]
        elif head == "tier":
            if len(tokens) != 2:
                raise SpecError("usage: tier <name>", lineno)
            if any(t.name == tokens[1] for t in tiers):
                raise SpecError(f"tier {tokens[1]!r} declared twice", lineno)
            current = _TierBuilder(tokens[1], lineno)
            tiers.append(current)
        elif head == "randomize":
            steps.append(_parse_step(tokens, lineno))
        elif head == "allocation":
            allocation = _parse_csv_path(tokens, line, "allocation", lineno, allocation)
        elif head == "allocation-intermediate":
            intermediate = _parse_csv_path(
                tokens, line, "allocation-intermediate", lineno, intermediate
            )
        elif head == "tolerance":
            tolerances.append(_parse_tolerance(tokens, lineno))
        else:
            raise SpecError(f"unknown directive {head!r}", lineno)

    spec = DesignSpec(
        name=name or "",
        units_tier=units or "",
        tiers=tuple(_finish_tier(t) for t in tiers),
        steps=tuple(steps),
        allocation_path=allocation or "",
        intermediate_path=intermediate,
        tolerances=tuple(tolerances),
    )
    _validate_spec(spec, {t.name: t.line for t in tiers})
    return spec


def _parse_tier_line(tier: _TierBuilder, tokens, line, lineno):
    head = tokens[0]
    if head == "factor":
        if len(tokens) != 3:
            raise SpecError("usage: factor <name> <levels>", lineno)
        tier.factors.append((tokens[1], _parse_levels(tokens[2], lineno), lineno))
    elif head == "pseudo":
        if len(tokens) != 5 or tokens[3] != "splits":
            raise SpecError("usage: pseudo <name> <levels> splits <source>", lineno)
        tier.pseudos.append(
            (tokens[1], _parse_levels(tokens[2], lineno), tokens[4], lineno)
        )
    elif head == "formula":
        if tier.formula is not None:
            raise SpecError(f"tier {tier.name!r} has two formulas", lineno)
        body = line.split(None, 1)
        if len(body) < 2 or not body[1].strip():
            raise SpecError("formula directive needs an expression", lineno)
        tier.formula = body[1].strip()
        tier.formula_line = lineno
    else:
        raise SpecError(f"unknown tier directive {head!r}", lineno)


def _parse_levels(token, lineno) -> int:
    try:
        levels = int(token)
    except ValueError:
        raise SpecError(f"levels must be an integer, got {token!r}", lineno) from None
    if levels < 1:
        raise SpecError(f"levels must be positive, got {levels}", lineno)
    return levels


def _parse_step(tokens, lineno) -> RandomizationStep:
    if len(tokens) != 6 or tokens[2] != "->" or tokens[4] != "type":
        raise SpecError("usage: randomize <from> -> <to>[,<to2>] type <kind>", lineno)
    kind = tokens[5]
    if kind not in STEP_KINDS:
        raise SpecError(
            f"unknown randomization kind {kind!r} (expected one of "
            f"{', '.join(STEP_KINDS)})",
            lineno,
        )
    to_tiers = tuple(t for t in tokens[3].split(",") if t)
    try:
        return RandomizationStep(kind=kind, from_tier=tokens[1], to_tiers=to_tiers)
    except ValueError as exc:
        raise SpecError(str(exc), lineno) from None


def _parse_csv_path(tokens, line, directive, lineno, existing):
    if existing is not None:
        raise SpecError(f"duplicate {directive} directive", lineno)
    if len(tokens) < 3 or tokens[1] != "csv":
        raise SpecError(f"usage: {directive} csv <path>", lineno)
    return line.split(None, 2)[2].strip()


def _parse_tolerance(tokens, lineno):
    if len(tokens) != 3:
        raise SpecError("usage: tolerance <key> <value>", lineno)
    key = tokens[1]
    if key not in _TOLERANCE_KEYS:
        raise SpecError(
            f"unknown tolerance key {key!r} (expected one of {', '.join(_TOLERANCE_KEYS)})",
            lineno,
        )
    try:
        value = int(tokens[2]) if key == "snap_max_denominator" else float(tokens[2])
    except ValueError:
        raise SpecError(f"bad tolerance value {tokens[2]!r}", lineno) from None
    return (key, value)


def _finish_tier(t: _TierBuilder) -> TierDecl:
    if not t.factors:
        raise SpecError(f"tier {t.name!r} declares no factors", t.line)
    names = [f[0] for f in t.factors] + [p[0] for p in t.pseudos]
    for dup in {n for n in names if names.count(n) > 1}:
        raise SpecError(f"tier {t.name!r} declares {dup!r} twice", t.line)
    formula = t.formula
    if formula is None:
        if len(t.factors) != 1:
            raise SpecError(
                f"tier {t.name!r} has several factors and needs a formula", t.line
            )
        formula = t.factors[0][0]
    factors = tuple(Factor(name=n, levels=lv) for n, lv, _ in t.factors)
    pseudos = tuple(
        PseudofactorDecl(name=n, levels=lv, splits=src) for n, lv, src, _ in t.pseudos
    )
    return TierDecl(name=t.name, factors=factors, pseudos=pseudos, formula=formula)


def _validate_spec(spec: DesignSpec, tier_lines: dict) -> None:
    if not spec.name:
        raise SpecError("missing design directive")
    if not spec.tiers:
        raise SpecError("no tiers declared")
    if not spec.units_tier:
        raise SpecError("missing units directive")
    tier_names = {t.name for t in spec.tiers}
    if spec.units_tier not in tier_names:
        raise SpecError(f"units tier {spec.units_tier!r} is not declared")
    if not spec.allocation_path:
        raise SpecError("missing allocation directive")

    # one global column namespace: a factor shared between tiers must agree
    # on levels, and nothing may collide with a pseudofactor
    levels: dict = {}
    kinds: dict = {}
    for t in spec.tiers:
        for kind, decls in (("factor", t.factors), ("pseudofactor", t.pseudos)):
            for d in decls:
                line = tier_lines[t.name]
                if d.name in kinds and (kinds[d.name] != kind or kind == "pseudofactor"):
                    raise SpecError(
                        f"{kind} {d.name!r} in tier {t.name!r} collides with an "
                        f"earlier {kinds[d.name]} of the same name",
                        line,
                    )
                if d.name in levels and levels[d.name] != d.levels:
                    raise SpecError(
                        f"factor {d.name!r} declared with {d.levels} levels in tier "
                        f"{t.name!r} but {levels[d.name]} elsewhere",
                        line,
                    )
                levels[d.name] = d.levels
                kinds.setdefault(d.name, kind)

    for t in spec.tiers:
        declared = {f.name for f in t.factors}
        try:
            ast = parse_formula(t.formula, declared)
        except FormulaError as exc:
            raise SpecError(
                f"tier {t.name!r}: {exc}", tier_lines[t.name]
            ) from None
        unused = declared - _ast_factors(ast)
        if unused:
            raise SpecError(
                f"tier {t.name!r}: factor {sorted(unused)[0]!r} declared but not "
                "used in the formula",
                tier_lines[t.name],
            )
        for p in t.pseudos:
            for part in p.splits.split("*"):
                if part not in declared:
                    raise SpecError(
                        f"tier {t.name!r}: pseudofactor {p.name!r} splits unknown "
                        f"factor {part!r}",
                        tier_lines[t.name],
                    )

    _validate_step_graph(spec)


def _validate_step_graph(spec: DesignSpec) -> None:
    tier_names = {t.name for t in spec.tiers}
    from_tiers = [s.from_tier for s in spec.steps]
    intermediates = [s.to_tiers[1] for s in spec.steps if s.kind == "double"]

    for s in spec.steps:
        for t in (s.from_tier, *s.to_tiers):
            if t not in tier_names:
                raise SpecError(f"step {s.describe()}: tier {t!r} is not declared")
        if s.from_tier in s.to_tiers:
            raise SpecError(f"step {s.describe()}: a tier cannot randomize onto itself")
        if s.from_tier == spec.units_tier:
            raise SpecError(
                f"step {s.describe()}: the units tier cannot be randomized elsewhere"
            )
        if s.kind == "double" and s.to_tiers[0] == s.to_tiers[1]:
            raise SpecError(f"step {s.describe()}: double targets must differ")

    for name in tier_names:
        count = from_tiers.count(name) + intermediates.count(name)
        if name == spec.units_tier:
            if count:
                raise SpecError(
                    f"units tier {name!r} may not act as a randomized tier"
                )
            continue
        if count == 0:
            raise SpecError(
                f"tier {name!r} is never randomized; only the units tier may stay "
                "unrandomized"
            )
        if count > 1:
            raise SpecError(f"tier {name!r} is randomized by more than one step")

    # the step graph must flow into the units tier from everywhere; a double
    # step also carries its intermediate tier onto the incorporated target
    edges: dict = {name: set() for name in tier_names}
    for s in spec.steps:
        edges[s.from_tier].update(s.to_tiers)
        if s.kind == "double":
            edges[s.to_tiers[1]].add(s.to_tiers[0])

    def reaches_units(start, seen):
        if start == spec.units_tier:
            return True
        if start in seen:
            return False
        seen.add(start)
        return any(reaches_units(nxt, seen) for nxt in edges[start])

    for name in tier_names:
        if not reaches_units(name, set()):
            raise SpecError(
                f"tier {name!r} never reaches the units tier through the steps"
            )

    has_double = any(s.kind == "double" for s in spec.steps)
    if has_double and spec.intermediate_path is None:
        raise SpecError(
            "a double randomization needs an allocation-intermediate directive"
        )
    if spec.intermediate_path is not None and not has_double:
        raise SpecError(
            "allocation-intermediate given but no double randomization declares it"
        )


def render_spec(spec: DesignSpec) -> str:
    """Canonical text of a DesignSpec; parse_spec inverts it exactly."""
    lines = [f"design {spec.name}", f"units {spec.units_tier}"]
    for t in spec.tiers:
        lines.append(f"tier {t.name}")
        for f in t.factors:
            lines.append(f"  factor {f.name} {f.levels}")
        for p in t.pseudos:
            lines.append(f"  pseudo {p.name} {p.levels} splits {p.splits}")
        lines.append(f"  formula {t.formula}")
    for s in spec.steps:
        lines.append(
            f"randomize {s.from_tier} -> {','.join(s.to_tiers)} type {s.kind}"
        )
    lines.append(f"allocation csv {spec.allocation_path}")
    if spec.intermediate_path is not None:
        lines.append(f"allocation-intermediate csv {spec.intermediate_path}")
    for key, value in spec.tolerances:
        lines.append(f"tolerance {key} {value!r}")
    return "\n".join(lines) + "\n"


# --- allocation tables ----------------------------------------------------------


@dataclass
class AllocationTable:
    path: str
    columns: dict  # name -> list of level labels, one per row
    n: int

    @property
    def header(self) -> tuple:
        return tuple(self.columns)


def _read_text(path: Path, what: str) -> str:
    """A file's text as UTF-8, without a leading byte-order mark (spreadsheet
    exports write one); undecodable bytes are a SpecError naming the line
    and the byte, counted from the start of the file."""
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise SpecError(f"cannot read {what} file {path}: {exc.strerror}") from None
    try:
        return data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise SpecError(
            f"{what} file {path} is not valid UTF-8 (byte {exc.start + 1})", line
        ) from None


def load_table(path) -> AllocationTable:
    """Read an allocation CSV: header row, one data row per unit."""
    import csv as _csv

    path = Path(path)
    rows = list(_csv.reader(io.StringIO(_read_text(path, "allocation"), newline="")))
    if not rows:
        raise SpecError(f"allocation file {path} is empty")
    header = [h.strip() for h in rows[0]]
    if len(set(header)) != len(header):
        dup = next(h for h in header if header.count(h) > 1)
        raise SpecError(f"allocation file {path}: duplicate column {dup!r}")
    body = rows[1:]
    if not body:
        raise SpecError(f"allocation file {path} has a header but no rows")
    for i, row in enumerate(body, start=2):
        if len(row) != len(header):
            raise SpecError(
                f"allocation file {path}: row {i} has {len(row)} fields, "
                f"expected {len(header)}"
            )
    columns = {name: [row[j] for row in body] for j, name in enumerate(header)}
    return AllocationTable(path=str(path), columns=columns, n=len(body))


# --- the loaded design -----------------------------------------------------------


class Design:
    """A parsed spec joined with its allocation data.

    Exposes the tier structures and allocations the build loop consumes.
    A tier's structure lives on the tier's objects: the units tier's are
    the unit rows and the intermediate tier's the rows of its table; a
    randomized tier's are the distinct combinations of its factors on the
    units.  Rows are grouped by ``formula._class_ids`` alone: the
    one-row-per-object checks, the objects of a tier, and the joint coding
    of the units and intermediate tables behind the triangle check and
    ``intermediate_allocation``.
    """

    def __init__(
        self,
        spec: DesignSpec,
        main: AllocationTable,
        intermediate: AllocationTable | None = None,
        policy: TolerancePolicy | None = None,
    ):
        self.spec = spec
        self.name = spec.name
        self.units_tier = spec.units_tier
        self.steps = list(spec.steps)
        self.main = main
        self.intermediate = intermediate
        self.policy = policy if policy is not None else _policy_from(spec.tolerances)
        self.n = main.n
        others = [t.name for t in spec.tiers if t.name != spec.units_tier]
        self.tier_order = (spec.units_tier, *others)
        self._decl = {t.name: t for t in spec.tiers}
        self._objects: dict = {}
        self._structures: dict = {}
        self._validate_tables()

    # -- validation of the raw tables --

    def _validate_tables(self) -> None:
        declared = {}
        for t in self.spec.tiers:
            for f in t.factors:
                declared[f.name] = f.levels
            for p in t.pseudos:
                declared[p.name] = p.levels

        for table, where in ((self.main, "allocation"), (self.intermediate, "intermediate")):
            if table is None:
                continue
            for col in table.columns:
                if col not in declared:
                    raise SpecError(
                        f"{where} file {table.path}: unknown column {col!r}"
                    )

        units = self._decl[self.units_tier]
        expected = math.prod(f.levels for f in units.factors)
        if self.main.n != expected:
            raise SpecError(
                f"allocation file {self.main.path}: {self.main.n} rows but the "
                f"units tier declares {expected} units"
            )

        needed = {self.units_tier} | {s.from_tier for s in self.steps}
        for tier in sorted(needed):
            for col in self._column_names(tier):
                if col not in self.main.columns:
                    raise SpecError(
                        f"allocation file {self.main.path}: no column {col!r} "
                        f"for tier {tier!r}"
                    )

        for col, labels in self.main.columns.items():
            observed = len(set(labels))
            if observed != declared[col]:
                raise SpecError(
                    f"allocation file {self.main.path}: column {col!r} has "
                    f"{observed} distinct labels but declares {declared[col]} levels"
                )

        self._one_row_per_object(
            self.main,
            self.units_tier,
            lambda unit: f"allocation file {self.main.path}: unit {unit!r} appears "
            "on more than one row",
        )
        if self.intermediate is not None:
            self._validate_intermediate()

    def _one_row_per_object(self, table: AllocationTable, tier: str, duplicate) -> None:
        """Reject ``table`` unless no two rows hold the same combination of
        ``tier``'s factors; ``duplicate(key)`` words the error for the key
        found on the most rows."""
        ids, keys = _class_ids(table.columns, self._factor_names(tier), table.n)
        if len(keys) != table.n:
            raise SpecError(duplicate(keys[int(np.argmax(np.bincount(ids)))]))

    def _intermediate_step(self) -> RandomizationStep:
        for s in self.steps:
            if s.kind == "double":
                return s
        raise SpecError("no double randomization step declares the intermediate table")

    def _validate_intermediate(self) -> None:
        step = self._intermediate_step()
        inter = step.to_tiers[1]
        table = self.intermediate
        expected = math.prod(f.levels for f in self._decl[inter].factors)
        if table.n != expected:
            raise SpecError(
                f"intermediate file {table.path}: {table.n} rows but tier "
                f"{inter!r} declares {expected} objects"
            )
        for col in self._column_names(inter) + self._factor_names(step.from_tier):
            if col not in table.columns:
                raise SpecError(
                    f"intermediate file {table.path}: no column {col!r}"
                )
        self._one_row_per_object(
            table, inter, lambda _: f"intermediate file {table.path}: duplicate {inter!r} objects"
        )
        self._check_triangle(step, inter)

    def _joint_ids(self, names: list):
        """The columns ``names`` of the units table and the intermediate
        table coded together, unit rows first, so a combination seen on the
        units keeps its number there: (ids of the unit rows, ids of the
        intermediate rows, keys)."""
        n, inter = self.main.n, self.intermediate
        joined = {c: self.main.columns[c] + inter.columns[c] for c in names}
        ids, keys = _class_ids(joined, names, n + inter.n)
        return ids[:n], ids[n:], keys

    def _check_triangle(self, step: RandomizationStep, inter: str) -> None:
        """Units, intermediate, and from-tier columns must tell one story.

        When the main table carries the intermediate tier's columns, every
        unit's from-tier levels must match those of its intermediate object:
        each unit's combination of the object and those levels occurs on an
        intermediate row.  The first unit row where it does not is reported.
        """
        objects = self._factor_names(inter)
        if any(c not in self.main.columns for c in objects):
            return
        table = self.intermediate
        shared = [
            c for c in self._column_names(step.from_tier)
            if c in self.main.columns and c in table.columns
        ]
        units, rows, _ = self._joint_ids(objects + shared)
        unmatched = ~np.isin(units, rows)
        if not unmatched.any():
            return
        row = int(np.argmax(unmatched))
        units, rows, keys = self._joint_ids(objects)
        key = keys[units[row]]
        found = np.flatnonzero(rows == units[row])
        if not found.size:
            raise SpecError(
                f"allocation row {row + 2}: {inter} object {key!r} does not "
                f"appear in the intermediate table"
            )
        i = found[0]
        c = next(c for c in shared if self.main.columns[c][row] != table.columns[c][i])
        raise SpecError(
            f"allocation row {row + 2}: column {c!r} is "
            f"{self.main.columns[c][row]!r} but the intermediate table "
            f"gives {table.columns[c][i]!r} for {inter} object {key!r}"
        )

    # -- structures and allocations --

    def _factor_names(self, tier: str) -> list:
        return [f.name for f in self._decl[tier].factors]

    def _column_names(self, tier: str) -> list:
        return self._factor_names(tier) + [p.name for p in self._decl[tier].pseudos]

    def _tier_objects(self, tier: str):
        """The objects of ``tier`` on the units: the distinct combinations of
        its factors, numbered by first appearance.  Returns (ids, keys): each
        unit's object, and each object's labels of the tier's columns,
        factors then pseudofactors."""
        if tier not in self._objects:
            factors = self._factor_names(tier)
            for p in self._decl[tier].pseudos:
                objects = _class_ids(self.main.columns, factors, self.main.n)[0]
                if not refines(objects, _class_ids(self.main.columns, [p.name], self.main.n)[0]):
                    raise SpecError(
                        f"column {p.name!r} is not constant on the objects of "
                        f"tier {tier!r}"
                    )
            # constant on the objects, the pseudofactors split none of them
            self._objects[tier] = _class_ids(
                self.main.columns, self._column_names(tier), self.main.n
            )
        return self._objects[tier]

    def _structure(self, tier: str, table: AllocationTable) -> Structure:
        """``tier``'s structure on its objects in ``table``, built once.  The
        rows are the objects of the units tier in the units table and of the
        intermediate tier in its own table; another tier's objects on the
        units are those of ``_tier_objects``."""
        key = (tier, table is self.main)
        if key not in self._structures:
            decl = self._decl[tier]
            names = self._column_names(tier)
            if table is self.main and tier != self.units_tier:
                keys = self._tier_objects(tier)[1]
                columns, n = dict(zip(names, map(list, zip(*keys)))), len(keys)
            else:
                columns, n = {c: table.columns[c] for c in names}, table.n
            ast = parse_formula(decl.formula, {f.name for f in decl.factors})
            poset = attach_data(expand_terms(ast, list(decl.factors)), columns, n, list(decl.pseudos))
            self._check_pseudo_containment(decl, poset, columns, n)
            self._structures[key] = source_projectors(poset, columns, n, space_label=decl.name)
        return self._structures[key]

    def _check_pseudo_containment(self, decl, poset, columns, n) -> None:
        """A pseudofactor must group whole classes of the source it splits."""
        for p in decl.pseudos:
            parents = set()
            for part in p.splits.split("*"):
                holders = [
                    t.constituents
                    for t in poset.terms
                    if part in t.constituents and not t.is_pseudo
                ]
                parents |= min(holders, key=len)
            ids = poset.ids.get(frozenset(parents))
            if ids is None:
                ids, _ = _class_ids(columns, sorted(parents), n)
            if not refines(ids, poset.ids[frozenset({p.name})]):
                raise SpecError(
                    f"tier {decl.name!r}: pseudofactor {p.name!r} does not group "
                    f"whole classes of {p.splits}"
                )

    def units_structure(self) -> Structure:
        """The units tier's structure on the unit rows."""
        return self._structure(self.units_tier, self.main)

    def tier_structure(self, tier: str) -> Structure:
        """``tier``'s structure on its objects on the units."""
        return self._structure(tier, self.main)

    def allocation(self, tier: str) -> AllocationMap:
        """Map each unit to its object of ``tier``."""
        ids, keys = self._tier_objects(tier)
        return AllocationMap(
            tier=tier, objects=keys, assignment=ids, space_label=self.units_tier
        )

    def intermediate_tier_structure(self, tier: str) -> Structure:
        """``tier``'s structure on the rows of the intermediate table."""
        if self.intermediate is None:
            raise SpecError("design has no intermediate allocation table")
        return self._structure(tier, self.intermediate)

    def intermediate_allocation(self, inter: str, from_tier: str) -> AllocationMap:
        """Map each intermediate object to its from-tier object, numbered as
        in ``allocation(from_tier)``."""
        table = self.intermediate
        if table is None:
            raise SpecError("design has no intermediate allocation table")
        units, rows, keys = self._joint_ids(self._factor_names(from_tier))
        unseen = rows > units.max()
        if unseen.any():
            raise SpecError(
                f"intermediate file {table.path}: {from_tier} object "
                f"{keys[rows[int(np.argmax(unseen))]]!r} never occurs on the units"
            )
        return AllocationMap(
            tier=from_tier, objects=keys, assignment=rows, space_label=inter
        )

    # -- whole-design checks (the validate subcommand) --

    def check(self) -> list:
        """Build every declared structure and run every step's lift onto the
        units (and onto the intermediate tier of a double step), so an
        allocation that cannot be lifted fails here as it would in the build;
        returns accumulated notices."""
        notices = list(self.units_structure().notices)
        for step in self.steps:
            structure = self.tier_structure(step.from_tier)
            notices.extend(structure.notices)
            lift(structure, self.allocation(step.from_tier), self.policy)
            if step.kind == "double":
                inter = step.to_tiers[1]
                notices.extend(self.intermediate_tier_structure(inter).notices)
                lift(structure, self.intermediate_allocation(inter, step.from_tier), self.policy)
        return list(dict.fromkeys(notices))


def _policy_from(tolerances) -> TolerancePolicy:
    policy = DEFAULT_POLICY
    for key, value in tolerances:
        policy = policy.replace(**{key: value})
    return policy


def load_design(spec_path, tolerance=None, snap_den=None) -> Design:
    """Read a spec file and its allocation tables into a Design.

    ``tolerance`` overrides the three entrywise thresholds (tol_sym,
    tol_idem, tol_zero) at once; ``snap_den`` overrides the snap
    denominator bound.  Both win over tolerance directives in the file.
    """
    spec_path = Path(spec_path)
    spec = parse_spec(_read_text(spec_path, "spec"))
    base = spec_path.parent
    main = load_table(base / spec.allocation_path)
    intermediate = None
    if spec.intermediate_path is not None:
        intermediate = load_table(base / spec.intermediate_path)
    try:
        policy = _policy_from(spec.tolerances)
        if tolerance is not None:
            policy = policy.replace(
                tol_sym=tolerance, tol_idem=tolerance, tol_zero=tolerance
            )
        if snap_den is not None:
            policy = policy.replace(snap_max_denominator=snap_den)
    except ValueError as exc:
        raise SpecError(str(exc)) from None
    return Design(spec, main, intermediate, policy)


# --- command line ----------------------------------------------------------------


def _add_common(p):
    p.add_argument("spec", help="design spec file")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tierdecomp",
        description="evaluate multitiered experimental designs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the spec and allocation data")
    _add_common(p)

    p = sub.add_parser("decompose", help="build and print the decomposition table")
    _add_common(p)
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p.add_argument("--out", help="write the table to this file instead of stdout")
    p.add_argument(
        "--tolerance",
        type=float,
        help="override the entrywise tolerances (tol_sym, tol_idem, tol_zero)",
    )
    p.add_argument(
        "--snap-den", type=int, help="largest denominator for snapped efficiencies"
    )
    p.add_argument(
        "--ascii", action="store_true", help="ASCII-only output (no wedge or tack)"
    )

    p = sub.add_parser("diagnose", help="report incoherent randomizations")
    _add_common(p)

    p = sub.add_parser("oracle", help="cross-check the engine against a direct build")
    _add_common(p)
    p.add_argument(
        "--max-units",
        type=int,
        default=64,
        help="refuse designs with more units than this (default 64)",
    )
    p.add_argument("--format", choices=("text", "json"), default="text")
    return parser


def _cmd_validate(args) -> int:
    design = load_design(args.spec)
    notices = design.check()
    print(
        f"ok: design {design.name!r} ({design.n} units, "
        f"{len(design.tier_order)} tiers, {len(design.steps)} steps)"
    )
    for note in notices:
        print(f"note: {note}")
    return 0


def _cmd_decompose(args) -> int:
    design = load_design(args.spec, tolerance=args.tolerance, snap_den=args.snap_den)
    try:
        result = build_decomposition(design)
    except IncoherenceError as exc:
        print(exc.report.summary(), file=sys.stderr)
        return 1
    table = layout(result.decomposition, design.tier_order, footnotes=result.diagnostics)
    data = render(table, fmt=args.format, ascii_only=args.ascii)
    if args.out:
        Path(args.out).write_bytes(data)
    elif hasattr(sys.stdout, "buffer"):
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
    else:  # a text stream, as when stdout is redirected in process
        sys.stdout.write(data.decode("utf-8"))
    return 0


def _cmd_diagnose(args) -> int:
    design = load_design(args.spec)
    report = diagnose_incoherence(design)
    print(report.summary())
    return 0


def _cmd_oracle(args) -> int:
    from .oracle import OracleError, cross_check

    design = load_design(args.spec)
    try:
        report = cross_check(design, max_units=args.max_units)
    except OracleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        sys.stdout.write(report.render_json())
    else:
        sys.stdout.write(report.render_text())
    return 0 if report.ok else 1


def cli_main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handler = {
        "validate": _cmd_validate,
        "decompose": _cmd_decompose,
        "diagnose": _cmd_diagnose,
        "oracle": _cmd_oracle,
    }[args.command]
    try:
        return handler(args)
    except IncoherenceError as exc:
        print(exc.report.summary(), file=sys.stderr)
        return 1
    except (SpecError, FormulaError, BuildError, LiftingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ProjectorError, InternalInconsistencyError, EfficiencyRangeError) as exc:
        # only decompose takes --tolerance; every command reads the spec's
        source = "--tolerance" if args.command == "decompose" else "a tolerance directive in the spec"
        print(
            f"error: {exc} (a numerical check failed; {source} may be tighter "
            "than the build's rounding)",
            file=sys.stderr,
        )
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # numpy names the allocation it refused; a plain MemoryError names none
        detail = f": {exc}" if str(exc) else ""
        print(f"error: {args.command} ran out of memory{detail}", file=sys.stderr)
        return 2
