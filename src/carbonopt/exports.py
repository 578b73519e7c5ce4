"""Result serialization: CSV/JSON renderers, atomic file writes, run manifests.

All column layouts are documented in ``docs/outputs.md``. Floats are
written with ``repr`` so files round-trip bit-exactly and re-runs can be
compared byte for byte. A set of files is streamed chunk by chunk into
temp files, which are renamed only once every file of the set is
complete, so a failing command leaves no partial outputs.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import io
import json
import math
import operator
import os
from collections.abc import Iterable, Iterator
from pathlib import Path

from .nsga2 import FrontArchive
from .errors import CarbonOptError
from .scenario import _unique_keys
from .simulation import Event, SimulationResult


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))  # a numpy float's own repr is ``np.float64(...)``
    return str(value)


def _rows_to_csv(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_cell(v) for v in row])
    return buf.getvalue()


def render_per_year_csv(result: SimulationResult, start_year: int) -> str:
    """Energy per (year, technology) with a trailing objectives row."""
    rows = []
    for offset, year_result in enumerate(result.per_year):
        year = start_year + offset
        for tech in sorted(year_result.energy_by_technology):
            rows.append(
                ["energy", year, tech, year_result.energy_by_technology[tech], None, None]
            )
    final_year = start_year + len(result.per_year) - 1
    rows.append(
        [
            "objectives",
            final_year,
            None,
            None,
            result.objective_price,
            result.objective_rci,
        ]
    )
    return _rows_to_csv(
        ["record", "year", "technology", "energy_mwh", "objective_price", "objective_rci"],
        rows,
    )


def render_year_summary_csv(result: SimulationResult, start_year: int) -> str:
    """One row per simulated year with prices, emissions and shortfall."""
    rows = []
    for offset, (year_result, tax) in enumerate(zip(result.per_year, result.carbon_prices)):
        rows.append(
            [
                start_year + offset,
                tax,
                year_result.average_price,
                year_result.emissions_t,
                year_result.carbon_intensity,
                year_result.unserved_mwh,
                functools.reduce(operator.add, year_result.energy_by_technology.values(), 0.0),
            ]
        )
    return _rows_to_csv(
        [
            "year",
            "carbon_price",
            "average_price",
            "emissions_t",
            "carbon_intensity",
            "unserved_mwh",
            "served_mwh",
        ],
        rows,
    )


def render_events_csv(events: tuple[Event, ...]) -> str:
    rows = [
        [e.year, e.kind, e.genco, e.technology, e.plant_id, e.unit_count, e.capital_cost, e.npv]
        for e in events
    ]
    return _rows_to_csv(
        ["year", "kind", "genco", "technology", "plant_id", "unit_count", "capital_cost", "npv"],
        rows,
    )


def render_objectives_json(result: SimulationResult) -> str:
    return (
        json.dumps(
            {
                "objective_price": result.objective_price,
                "objective_rci": result.objective_rci,
            },
            indent=2,
        )
        + "\n"
    )


def generations_csv_chunks(archive: FrontArchive, objective_names: list[str]) -> Iterator[str]:
    """Full evolution trace: every individual of every archived generation.

    Yields the header, then one chunk of rows per archived generation, so
    a writer holds one generation's text at a time, not the whole file.

    NSGA-II keeps its elite, so most individuals reappear in the next
    generation. A survivor reuses the text of its gene and objective cells
    from the previous generation, joined between the row's own
    generation, index, rank and crowding cells. Only the previous
    generation's texts are kept: an individual that drops out and returns
    later is formatted again, to the same text. An individual is keyed by
    the bytes of its genome and objective rows, in the arrays' own dtype,
    not by their float values: equal floats can render differently
    (``0.0 == -0.0``), and bytes give each bit pattern its own text.
    """
    if not archive.snapshots:
        yield _rows_to_csv(["generation", "individual"], [])
        return
    n_genes = archive.snapshots[0].genomes.shape[1]
    header = (
        ["generation", "individual"]
        + [f"gene_{i + 1}" for i in range(n_genes)]
        + list(objective_names)
        + ["rank", "crowding"]
    )
    yield _rows_to_csv(header, [])
    # every cell is an int or a float repr, never a comma, quote or newline: join directly
    previous: dict[bytes, str] = {}  # an individual's key -> its gene and objective cells
    for snap in archive.snapshots:
        cells: dict[bytes, str] = {}
        lines = []
        rows = zip(snap.genomes, snap.objectives, snap.ranks.tolist(), snap.crowding.tolist())
        for i, (genes, values, rank, crowding) in enumerate(rows):
            key = genes.tobytes() + values.tobytes()
            text = cells.get(key) or previous.get(key)
            if text is None:
                text = ",".join(map(repr, genes.tolist() + values.tolist()))
            cells[key] = text
            lines += (f"{snap.generation},{i},", text, f",{rank},{crowding!r}\n")
        yield "".join(lines)
        previous = cells


def render_generations_csv(archive: FrontArchive, objective_names: list[str]) -> str:
    """``generations.csv`` as one string (see ``generations_csv_chunks``)."""
    return "".join(generations_csv_chunks(archive, objective_names))


def render_pareto_json(archive: FrontArchive, objective_names: list[str]) -> str:
    """Final first front; infinite crowding serializes as null (boundary points)."""
    front = archive.final_front
    rows = zip(front.genomes.tolist(), front.objectives.tolist(),
               front.ranks.tolist(), front.crowding.tolist())
    entries = [
        {
            "genome": genes,
            "objectives": dict(zip(objective_names, objectives)),
            "rank": rank,
            "crowding": None if math.isinf(crowding) else crowding,
        }
        for genes, objectives, rank, crowding in rows
    ]
    return json.dumps(entries, indent=2) + "\n"


def _write_all_or_nothing(out_dir: Path, files: dict[str, str | Iterable[str]]) -> None:
    """Write each file to ``<name>.tmp`` in ``out_dir``, chunk by chunk, then rename them all.

    Nothing is renamed until every file is complete, so readers never see a
    partial file. If a chunk fails to render or a write fails, the temp files
    are removed and the error raised, and every file of the set is as it was.
    """
    staged = []
    try:
        for name, content in files.items():
            tmp = out_dir / f"{name}.tmp"
            staged.append(tmp)
            with open(tmp, "w", encoding="utf-8") as f:
                f.writelines([content] if isinstance(content, str) else content)
        for tmp, name in zip(staged, files):
            os.replace(tmp, out_dir / name)
    except BaseException:
        for tmp in staged:
            tmp.unlink(missing_ok=True)
        raise


def write_output_set(out_dir: Path, files: dict[str, str | Iterable[str]]) -> list[str]:
    """Write a set of files into ``out_dir`` all or nothing; each is a ``str`` or its chunks."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_all_or_nothing(out_dir, files)
    return sorted(files)


def file_sha256(path: Path) -> str:
    digest = hashlib.sha256()
    digest.update(Path(path).read_bytes())
    return digest.hexdigest()


@functools.cache
def code_sha256() -> str:
    """sha256 over each of the package's ``*.py`` and ``data/`` files: its relative path,
    its size and its bytes, in sorted path order. Computed once per process."""
    package = Path(__file__).parent
    files = {*package.rglob("*.py"), *(package / "data").rglob("*")}
    digest = hashlib.sha256()
    for name in sorted(p.relative_to(package).as_posix() for p in files if p.is_file()):
        data = (package / name).read_bytes()
        digest.update(f"{name}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


MANIFEST_NAME = "manifest.json"


def write_manifest(out_dir: Path, manifest: dict) -> None:
    """Write the record of one run; its ``timings`` are all that varies between identical runs
    on one machine."""
    _write_all_or_nothing(Path(out_dir), {MANIFEST_NAME: json.dumps(manifest, indent=2) + "\n"})


def load_manifest(path: Path) -> dict:
    """Read a manifest; one that cannot be read or lacks a key replay reads is refused by name.

    The run record (``version`` and the hashes) is not checked here: replay compares
    it with the running one, so a missing entry is refused there as differing.
    """
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"), object_pairs_hook=_unique_keys)
    except (OSError, ValueError) as exc:
        raise CarbonOptError(f"cannot read manifest {path}: {exc}") from exc
    if not isinstance(raw, dict) or not isinstance(raw.get("args", {}), dict):
        raise CarbonOptError(f"manifest {path} must be a JSON object with an 'args' object")
    for key in ("command", "args"):
        if key not in raw:
            raise CarbonOptError(f"manifest {path} has no {key!r}")
    return raw
