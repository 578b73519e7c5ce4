"""Result renderers and writes: generations.csv byte for byte against the csv-module
rendering, streamed in flat memory; an output set is written all or nothing."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from carbonopt.exports import (
    _rows_to_csv,
    generations_csv_chunks,
    render_events_csv,
    render_generations_csv,
    render_per_year_csv,
    render_year_summary_csv,
    write_output_set,
)
from carbonopt.nsga2 import FrontArchive, GenerationSnapshot
from carbonopt.policy import FREE, CarbonPolicy
from carbonopt.simulation import run_simulation

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


class TestGenerationsCsvChunks:
    def test_header_then_one_chunk_per_generation(self):
        rng = np.random.default_rng(10)
        archive = FrontArchive(snapshots=[snapshot(g, rng, 5, 2) for g in range(4)])
        chunks = list(generations_csv_chunks(archive, NAMES))
        assert len(chunks) == 1 + len(archive.snapshots)
        assert chunks[0] == "generation,individual,gene_1,gene_2,f1,f2,rank,crowding\n"
        for g, chunk in enumerate(chunks[1:]):
            lines = chunk.splitlines()
            assert [line.split(",", 2)[:2] for line in lines] == [[str(g), str(i)] for i in range(5)]
        assert list(generations_csv_chunks(FrontArchive(), NAMES)) == ["generation,individual\n"]

    def test_an_individual_that_drops_out_and_returns(self):
        # only the previous generation's cell texts are kept: an individual absent
        # from generation 1 is formatted again in generation 2, beside a twin that
        # differs from it only in the sign of a zero
        rng = np.random.default_rng(11)
        snaps = [snapshot(g, rng, 4, 3) for g in range(3)]
        snaps[0].genomes[0] = [1.5, 0.0, -2.0]
        snaps[0].objectives[0] = [-0.0, 0.0]
        twin_genes, twin_values = [1.5, -0.0, -2.0], [-0.0, 0.0]
        snaps[1].genomes[2], snaps[1].objectives[2] = twin_genes, twin_values
        snaps[2].genomes[3], snaps[2].objectives[3] = snaps[0].genomes[0], snaps[0].objectives[0]
        snaps[2].genomes[1], snaps[2].objectives[1] = twin_genes, twin_values
        archive = FrontArchive(snapshots=snaps)
        chunks = list(generations_csv_chunks(archive, NAMES))
        assert "".join(chunks) == csv_module_rendering(archive)
        assert chunks[3].splitlines()[3].startswith("2,3,1.5,0.0,-2.0,-0.0,0.0,")
        assert chunks[3].splitlines()[1].startswith("2,1,1.5,-0.0,-2.0,-0.0,0.0,")

    def test_streaming_a_long_run_keeps_memory_flat(self, tmp_path):
        # 101 generations of 100 distinct rows of 30 genes: a 6.2 MB file, written
        # while holding about one generation's text (whole, the file's str alone
        # would take its 6.2 MB)
        rng = np.random.default_rng(12)
        archive = FrontArchive(snapshots=[
            GenerationSnapshot(
                generation=g,
                genomes=rng.uniform(0.0, 1.0, size=(100, 30)),
                objectives=rng.uniform(0.0, 10.0, size=(100, 2)),
                ranks=rng.integers(1, 10, size=100),
                crowding=rng.uniform(0.0, 2.0, size=100),
            )
            for g in range(101)
        ])
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            write_output_set(tmp_path, {"generations.csv": generations_csv_chunks(archive, NAMES)})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        written = (tmp_path / "generations.csv").read_bytes()
        assert written == render_generations_csv(archive, NAMES).encode("utf-8")
        assert len(written) > 6_000_000
        assert peak < 1 << 20, peak


class TestWriteOutputSet:
    def test_text_and_chunks_are_written_alike(self, tmp_path):
        names = write_output_set(tmp_path, {"b.csv": iter(["x,", "y\n"]), "a.csv": "x,y\n"})
        assert names == ["a.csv", "b.csv"]
        assert [p.read_bytes() for p in sorted(tmp_path.iterdir())] == [b"x,y\n", b"x,y\n"]

    def test_a_failing_file_leaves_the_set_as_it_was(self, tmp_path):
        (tmp_path / "a.csv").write_text("old\n", encoding="utf-8")

        def failing_chunks():
            yield "generation,individual\n"
            raise RuntimeError("render failed")

        with pytest.raises(RuntimeError, match="render failed"):
            write_output_set(tmp_path, {"a.csv": "new\n", "b.csv": failing_chunks()})
        assert (tmp_path / "a.csv").read_bytes() == b"old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["a.csv"]


def test_numpy_float_cells_render_as_python_floats(uk_scenario):
    # a policy built from a numpy array carries np.float64 taxes, whose own repr
    # is "np.float64(0.0)" under numpy 2
    taxes = np.linspace(0.0, 250.0, uk_scenario.horizon_years)
    as_numpy = run_simulation(uk_scenario, CarbonPolicy(FREE, tuple(taxes)), 0)
    as_python = run_simulation(uk_scenario, CarbonPolicy(FREE, tuple(taxes.tolist())), 0)
    start = uk_scenario.start_year

    def rendered(result):
        return [render_per_year_csv(result, start), render_year_summary_csv(result, start),
                render_events_csv(result.events)]

    assert rendered(as_numpy) == rendered(as_python)
    assert rendered(as_numpy)[1].splitlines()[1].startswith(f"{start},0.0,")
