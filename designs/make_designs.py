"""Generate the example design specs and allocation tables.

Every file under designs/ comes from this script with a fixed seed, so
rerunning it reproduces the committed files byte for byte:

    python3 designs/make_designs.py [outdir]

The layouts: a cherry rootstock trial (two randomizations onto the same
trees), a split-plot field trial, a glasshouse trial with coincident
seedling and watering randomizations, a grazing trial where treatments
reach the cow-by-rotation units through paddocks, a semi-Latin square
with pseudofactor splits, a three-phase corn germination study, and a
few small designs used for checks (an orthogonal RCBD, a deliberately
unbalanced block allocation, single-tier minimal, and reduced variants).
"""

import csv
import sys
from pathlib import Path

import numpy as np

SEED = 20250816


def _write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# --- cherry rootstock trial (n = 30) ----------------------------------------------

# virus letter per (block, rootstock), each virus twice per block
CHERRY_VIRUSES = {
    1: "ABACDCBEED",
    2: "DEBDEACCAB",
    3: "EACEBDDBCA",
}


def make_cherry(rng, out):
    rows = []
    for b in (1, 2, 3):
        perm = rng.permutation(10)  # which rootstock stands at each position
        for pos in range(1, 11):
            rs = int(perm[pos - 1]) + 1
            virus = CHERRY_VIRUSES[b][rs - 1]
            rows.append((f"b{b}", f"t{pos:02d}", f"r{rs:02d}", f"v{virus}"))
    _write_csv(out / "cherry.csv", ("Blocks", "Trees", "Rootstocks", "Viruses"), rows)
    _write(
        out / "cherry.spec",
        """design cherry
units trees
tier trees
  factor Blocks 3
  factor Trees 10
  formula Blocks/Trees
tier rootstocks
  factor Rootstocks 10
  formula Rootstocks
tier viruses
  factor Viruses 5
  formula Viruses
randomize rootstocks -> trees type simple
randomize viruses -> trees type simple
allocation csv cherry.csv
""",
    )
    return rows


def make_cherry_incoherent(cherry_rows, out):
    # same trial, but the trees tier forgets its blocks; despite the name the
    # design stays coherent, because each virus occurs twice in every block,
    # so dropping Blocks changes nothing
    rows = []
    for i, (_, _, rs, virus) in enumerate(cherry_rows, start=1):
        rows.append((f"t{i:02d}", rs, virus))
    _write_csv(
        out / "cherry_incoherent.csv", ("Trees", "Rootstocks", "Viruses"), rows
    )
    _write(
        out / "cherry_incoherent.spec",
        """design cherry-incoherent
units trees
tier trees
  factor Trees 30
  formula Trees
tier rootstocks
  factor Rootstocks 10
  formula Rootstocks
tier viruses
  factor Viruses 5
  formula Viruses
randomize rootstocks -> trees type simple
randomize viruses -> trees type simple
allocation csv cherry_incoherent.csv
""",
    )


# --- split-plot trial, two independent randomizations (n = blocks*plots*trees) ----


def make_ex2(rng, out, blocks, plots, trees, name):
    rows = []
    for b in range(1, blocks + 1):
        perm_r = rng.permutation(plots)  # one rootstock per plot in each block
        for p in range(1, plots + 1):
            rs = int(perm_r[p - 1]) + 1
            perm_f = rng.permutation(trees)  # one fertilizer per tree in each plot
            for t in range(1, trees + 1):
                f = int(perm_f[t - 1]) + 1
                rows.append((f"b{b}", f"p{p}", f"t{t}", f"r{rs}", f"f{f}"))
    _write_csv(
        out / f"{name}.csv",
        ("Blocks", "Plots", "Trees", "Rootstocks", "Fertilizers"),
        rows,
    )
    _write(
        out / f"{name}.spec",
        f"""design {name}
units trees
tier trees
  factor Blocks {blocks}
  factor Plots {plots}
  factor Trees {trees}
  formula Blocks/Plots/Trees
tier rootstocks
  factor Rootstocks {plots}
  formula Rootstocks
tier fertilizers
  factor Fertilizers {trees}
  formula Fertilizers
randomize rootstocks -> trees type independent
randomize fertilizers -> trees type independent
allocation csv {name}.csv
""",
    )


# --- glasshouse trial, coincident randomizations (n = 60) --------------------------


def make_plant(rng, out):
    # 60 seedlings in 6 batches of 10 (two per variety); each batch fills one
    # bench, each watering regime covers three benches
    regime_of_bench = {}
    bench_perm = rng.permutation(6)
    for k, b in enumerate(bench_perm):
        regime_of_bench[int(b) + 1] = 1 if k < 3 else 2
    rows = []
    for bench in range(1, 7):
        batch = bench  # batch b of seedlings stands on bench b
        items = []
        for v in range(1, 6):
            for s in (2 * batch - 1, 2 * batch):
                items.append((v, s))
        order = rng.permutation(10)
        for pos in range(1, 11):
            v, s = items[int(order[pos - 1])]
            rows.append(
                (
                    f"b{bench}",
                    f"pos{pos:02d}",
                    f"v{v}",
                    f"s{s:02d}",
                    f"g{batch}",
                    f"w{regime_of_bench[bench]}",
                )
            )
    _write_csv(
        out / "plant.csv",
        ("Benches", "Positions", "Varieties", "Seedlings", "S1", "Regimes"),
        rows,
    )
    _write(
        out / "plant.spec",
        """design plant
units positions
tier positions
  factor Benches 6
  factor Positions 10
  formula Benches/Positions
tier seedlings
  factor Varieties 5
  factor Seedlings 12
  pseudo S1 6 splits Seedlings
  formula Varieties/Seedlings
tier regimes
  factor Regimes 2
  formula Regimes
randomize seedlings -> positions type coincident
randomize regimes -> positions type coincident
allocation csv plant.csv
""",
    )


# --- grazing trial, double randomization through paddocks (n = 60) -----------------


def make_grazing(rng, out):
    avail_perm = rng.permutation(3)  # which availability each cow group grazes
    avail_of_group = {g: int(avail_perm[g - 1]) + 1 for g in (1, 2, 3)}
    rows = []
    for cow in range(1, 16):
        group = (cow - 1) // 5 + 1
        for rot in range(1, 5):
            rows.append(
                (
                    f"c{cow:02d}",
                    f"rot{rot}",
                    f"p{group}{rot}",
                    f"a{avail_of_group[group]}",
                )
            )
    _write_csv(
        out / "grazing.csv", ("Cows", "Rotations", "Paddocks", "Availability"), rows
    )
    inter = []
    for group in (1, 2, 3):
        for rot in range(1, 5):
            inter.append((f"p{group}{rot}", f"a{avail_of_group[group]}", f"rot{rot}"))
    _write_csv(
        out / "grazing_paddocks.csv", ("Paddocks", "Availability", "Rotations"), inter
    )
    _write(
        out / "grazing.spec",
        """design grazing
units cows
tier cows
  factor Cows 15
  factor Rotations 4
  formula Cows*Rotations
tier paddocks
  factor Paddocks 12
  formula Paddocks
tier treatments
  factor Availability 3
  factor Rotations 4
  formula Availability*Rotations
randomize treatments -> cows,paddocks type double
allocation csv grazing.csv
allocation-intermediate csv grazing_paddocks.csv
""",
    )


# --- semi-Latin square with pseudofactor splits (n = 36) ---------------------------

# virus index for (bench, altitude) on each soil half: columns 0-1, then 2-3
SEMILATIN_VIRUSES = {
    (1, "top"): (0, 0),
    (1, "middle"): (2, 1),
    (1, "bottom"): (1, 2),
    (2, "top"): (1, 1),
    (2, "middle"): (0, 2),
    (2, "bottom"): (2, 0),
    (3, "top"): (2, 2),
    (3, "middle"): (1, 0),
    (3, "bottom"): (0, 1),
}


def make_semilatin(out):
    rows = []
    for alt in ("top", "middle", "bottom"):
        for bench in (1, 2, 3):
            for plant in range(4):
                virus = SEMILATIN_VIRUSES[(bench, alt)][plant // 2]
                rows.append(
                    (
                        alt,
                        f"b{bench}",
                        f"col{plant}",
                        f"v{virus}",
                        f"s{plant}",
                        f"g{plant // 2}",
                        f"v{virus}g{plant // 2}",
                    )
                )
    _write_csv(
        out / "semilatin.csv",
        ("Altitudes", "Benches", "Plants", "Viruses", "Soils", "S1", "VS1"),
        rows,
    )
    _write(
        out / "semilatin.spec",
        """design semilatin
units positions
tier positions
  factor Altitudes 3
  factor Benches 3
  factor Plants 4
  formula Altitudes*(Benches/Plants)
tier treatments
  factor Viruses 3
  factor Soils 4
  pseudo S1 2 splits Soils
  pseudo VS1 6 splits Viruses*Soils
  formula Viruses*Soils
randomize treatments -> positions type simple
allocation csv semilatin.csv
""",
    )


# --- corn germination study, three phases (n = 648) --------------------------------


def make_corn(rng, out):
    plot_list = [(s, b, p) for s in (1, 2, 3) for b in (1, 2) for p in (1, 2, 3)]
    interval_perm = rng.permutation(18)  # germination interval of each field plot
    interval_of_plot = {
        plot: int(interval_perm[k]) + 1 for k, plot in enumerate(plot_list)
    }

    combos = [(t, m) for t in (1, 2, 3) for m in (1, 2, 3)]
    treatment_of = {}  # (interval, container) -> (temperature, moisture)
    for interval in range(1, 19):
        perm = rng.permutation(9)
        for c in range(1, 10):
            treatment_of[(interval, c)] = combos[int(perm[c - 1])]

    harvester_of = {}  # (site, block, plot) -> harvester, one plot per block
    for s in (1, 2, 3):
        for b in (1, 2):
            perm = rng.permutation(3)
            for p in (1, 2, 3):
                harvester_of[(s, b, p)] = int(perm[p - 1]) + 1

    records = {}
    for plot in plot_list:
        s, b, p = plot
        interval = interval_of_plot[plot]
        lot_perm = rng.permutation(36)  # lots of this plot into 9 groups of 4
        container_perm = rng.permutation(9)  # which container each group fills
        for k in range(36):
            lot = int(lot_perm[k]) + 1
            group = k // 4 + 1
            container = int(container_perm[group - 1]) + 1
            plate = k % 4 + 1
            t, m = treatment_of[(interval, container)]
            records[(interval, container, plate)] = (
                f"i{interval:02d}",
                f"k{container}",
                f"q{plate}",
                f"s{s}",
                f"b{b}",
                f"p{p}",
                f"l{lot:02d}",
                f"s{s}b{b}p{p}g{group}",
                f"h{harvester_of[(s, b, p)]}",
                f"T{t}",
                f"m{m}",
            )
    rows = [records[key] for key in sorted(records)]
    _write_csv(
        out / "corn.csv",
        (
            "Intervals",
            "Containers",
            "Plates",
            "Sites",
            "Blocks",
            "Plots",
            "Lots",
            "L1",
            "Harvesters",
            "Temperature",
            "Moistures",
        ),
        rows,
    )
    _write(
        out / "corn.spec",
        """design corn
units plates
tier plates
  factor Intervals 18
  factor Containers 9
  factor Plates 4
  formula Intervals/Containers/Plates
tier lots
  factor Sites 3
  factor Blocks 2
  factor Plots 3
  factor Lots 36
  pseudo L1 162 splits Lots
  formula Sites/Blocks/Plots/Lots
tier harvesters
  factor Harvesters 3
  formula Harvesters
tier treatments
  factor Temperature 3
  factor Moistures 3
  formula Temperature*Moistures
randomize lots -> plates type coincident
randomize treatments -> plates type coincident
randomize harvesters -> lots type composed
allocation csv corn.csv
""",
    )


# --- small designs for checks ------------------------------------------------------


def make_incoherent(rng, out):
    # deliberately lopsided: treatment replication differs between blocks
    counts = {
        1: (2, 1, 1, 0),
        2: (0, 2, 1, 1),
        3: (1, 0, 1, 2),
    }
    rows = []
    for b in (1, 2, 3):
        plots = []
        for t, reps in enumerate(counts[b], start=1):
            plots.extend([t] * reps)
        order = rng.permutation(4)
        for p in range(1, 5):
            t = plots[int(order[p - 1])]
            rows.append((f"b{b}", f"p{p}", f"t{t}"))
    _write_csv(out / "uneven.csv", ("Blocks", "Plots", "Treatments"), rows)
    _write(
        out / "uneven.spec",
        """design uneven
units field
tier field
  factor Blocks 3
  factor Plots 4
  formula Blocks/Plots
tier treatments
  factor Treatments 4
  formula Treatments
randomize treatments -> field type simple
allocation csv uneven.csv
""",
    )


def make_minimal(out):
    rows = [(f"p{i}",) for i in range(1, 5)]
    _write_csv(out / "minimal.csv", ("Plots",), rows)
    _write(
        out / "minimal.spec",
        """design minimal
units plots
tier plots
  factor Plots 4
  formula Plots
allocation csv minimal.csv
""",
    )


def make_rcbd16(rng, out):
    rows = []
    for b in range(1, 5):
        perm = rng.permutation(4)
        for p in range(1, 5):
            t = int(perm[p - 1]) + 1
            rows.append((f"b{b}", f"p{p}", f"t{t}"))
    _write_csv(out / "rcbd16.csv", ("Blocks", "Plots", "Treatments"), rows)
    _write(
        out / "rcbd16.spec",
        """design rcbd16
units field
tier field
  factor Blocks 4
  factor Plots 4
  formula Blocks/Plots
tier treatments
  factor Treatments 4
  formula Treatments
randomize treatments -> field type simple
allocation csv rcbd16.csv
""",
    )


def make_all(outdir):
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(SEED)
    cherry_rows = make_cherry(rng, out)
    make_cherry_incoherent(cherry_rows, out)
    make_ex2(rng, out, blocks=3, plots=4, trees=2, name="ex2")
    make_ex2(rng, out, blocks=2, plots=2, trees=2, name="ex2_small")
    make_plant(rng, out)
    make_grazing(rng, out)
    make_semilatin(out)
    make_corn(rng, out)
    make_incoherent(rng, out)
    make_minimal(out)
    make_rcbd16(rng, out)


if __name__ == "__main__":
    make_all(sys.argv[1] if len(sys.argv) > 1 else Path(__file__).parent)
