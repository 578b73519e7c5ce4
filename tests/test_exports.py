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
