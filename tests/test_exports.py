"""Result renderers: generations.csv byte for byte against the csv-module rendering."""

from __future__ import annotations

import math

import numpy as np

from carbonopt.exports import _rows_to_csv, render_generations_csv
from carbonopt.nsga2 import FrontArchive, GenerationSnapshot

NAMES = ["f1", "f2"]
SPECIAL = [math.inf, 0.0, -0.0, -3.5, 5e-324, 1e300, -1e300, 0.1]


def snapshot(generation, rng, n, n_genes):
    objectives = rng.normal(size=(n, 2)) * 10.0 ** rng.integers(-300, 300, size=(n, 2))
    objectives[:4] = np.reshape(SPECIAL, (4, 2))
    crowding = rng.choice(SPECIAL, size=n)
    return GenerationSnapshot(
        generation=generation,
        genomes=rng.uniform(-250.0, 250.0, size=(n, n_genes)),
        objectives=objectives,
        ranks=rng.integers(1, 5, size=n),
        crowding=crowding,
    )


def csv_module_rendering(archive):
    """generations.csv as rows of Python values through ``_rows_to_csv``."""
    if not archive.snapshots:
        return _rows_to_csv(["generation", "individual"], [])
    n_genes = archive.snapshots[0].genomes.shape[1]
    header = (["generation", "individual"] + [f"gene_{i + 1}" for i in range(n_genes)]
              + NAMES + ["rank", "crowding"])
    rows = []
    for snap in archive.snapshots:
        for i in range(snap.genomes.shape[0]):
            rows.append(
                [snap.generation, i]
                + [float(v) for v in snap.genomes[i]]
                + [float(v) for v in snap.objectives[i]]
                + [int(snap.ranks[i]), float(snap.crowding[i])]
            )
    return _rows_to_csv(header, rows)


class TestGenerationsCsv:
    def test_matches_the_csv_module_byte_for_byte(self):
        rng = np.random.default_rng(5)
        for n_genes in (1, 30):
            archive = FrontArchive(snapshots=[snapshot(g, rng, 12, n_genes) for g in range(3)])
            text = render_generations_csv(archive, NAMES)
            assert text == csv_module_rendering(archive)
            for cell in ("inf", "0.0", "-3.5", "5e-324", "1e+300"):
                assert f",{cell}," in text or f",{cell}\n" in text

    def test_generation_zero_only(self):
        archive = FrontArchive(snapshots=[snapshot(0, np.random.default_rng(6), 8, 2)])
        text = render_generations_csv(archive, NAMES)
        assert text == csv_module_rendering(archive)
        assert text.count("\n") == 9

    def test_empty_archive_is_the_bare_header(self):
        archive = FrontArchive()
        assert render_generations_csv(archive, NAMES) == csv_module_rendering(archive)
        assert render_generations_csv(archive, NAMES) == "generation,individual\n"

    def test_survivors_render_as_their_first_rows_do(self):
        # NSGA-II keeps its elite: later generations repeat earlier rows, in another
        # order and with another rank and crowding
        rng = np.random.default_rng(7)
        first = snapshot(0, rng, 12, 3)
        snapshots = [first]
        for g in (1, 2, 3):
            fresh = snapshot(g, rng, 12, 3)
            keep = rng.permutation(12)[:8]
            prev = snapshots[-1]
            fresh.genomes[:8], fresh.objectives[:8] = prev.genomes[keep], prev.objectives[keep]
            snapshots.append(fresh)
        archive = FrontArchive(snapshots=snapshots)
        assert render_generations_csv(archive, NAMES) == csv_module_rendering(archive)

    def test_a_row_repeated_within_one_generation(self):
        snap = snapshot(0, np.random.default_rng(8), 6, 2)
        snap.genomes[3], snap.objectives[3] = snap.genomes[1], snap.objectives[1]
        snap.genomes[5], snap.objectives[5] = snap.genomes[1], snap.objectives[1]
        archive = FrontArchive(snapshots=[snap])
        text = render_generations_csv(archive, NAMES)
        assert text == csv_module_rendering(archive)
        rows = [line.split(",") for line in text.splitlines()[1:]]
        assert rows[1][2:-2] == rows[3][2:-2] == rows[5][2:-2]

    def test_zero_and_negative_zero_stay_apart(self):
        # 0.0 == -0.0, but the two render differently: rows that differ only in the
        # sign of a zero gene or objective, across generations and within one
        rng = np.random.default_rng(9)
        snaps = [snapshot(g, rng, 4, 3) for g in range(2)]
        for snap in snaps:
            snap.genomes[:] = snaps[0].genomes
            snap.objectives[:] = snaps[0].objectives
            snap.genomes[:, 1] = 0.0
            snap.objectives[:, 0] = 0.0
        snaps[0].genomes[1, 1] = -0.0
        snaps[0].objectives[2, 0] = -0.0
        snaps[1].genomes[0, 1] = -0.0
        snaps[1].genomes[3], snaps[1].objectives[3] = snaps[1].genomes[2], snaps[1].objectives[2]
        snaps[1].genomes[3, 1] = -0.0
        archive = FrontArchive(snapshots=snaps)
        text = render_generations_csv(archive, NAMES)
        assert text == csv_module_rendering(archive)
        assert text.count(",-0.0,") == 4
