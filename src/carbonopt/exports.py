"""Result serialization: CSV/JSON renderers, atomic file writes, run manifests.

All column layouts are documented in ``docs/outputs.md``. Floats are
written with ``repr`` so files round-trip bit-exactly and re-runs can be
compared byte for byte. Files are staged in memory and written through a
temp-file rename, so a failing command leaves no partial outputs.
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
from pathlib import Path

from .nsga2 import FrontArchive
from .errors import CarbonOptError
from .investment import Event
from .simulation import SimulationResult


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
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


def render_generations_csv(archive: FrontArchive, objective_names: list[str]) -> str:
    """Full evolution trace: every individual of every archived generation."""
    if not archive.snapshots:
        return _rows_to_csv(["generation", "individual"], [])
    n_genes = archive.snapshots[0].genomes.shape[1]
    header = (
        ["generation", "individual"]
        + [f"gene_{i + 1}" for i in range(n_genes)]
        + list(objective_names)
        + ["rank", "crowding"]
    )
    # every cell is an int or a float repr, never a comma, quote or newline: join directly
    lines = [_rows_to_csv(header, [])]
    for snap in archive.snapshots:
        rows = zip(snap.genomes.tolist(), snap.objectives.tolist(),
                   snap.ranks.tolist(), snap.crowding.tolist())
        for i, (genes, objectives, rank, crowding) in enumerate(rows):
            values = ",".join(map(repr, genes + objectives))
            lines.append(f"{snap.generation},{i},{values},{rank},{crowding!r}\n")
    return "".join(lines)


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


def atomic_write_text(path: Path, text: str) -> None:
    """Write via a same-directory temp file and rename, so readers never see partials."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def write_output_set(out_dir: Path, files: dict[str, str]) -> list[str]:
    """Atomically write a set of fully rendered files into ``out_dir``."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        atomic_write_text(out_dir / name, text)
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
    """Write the record of one run; its ``timings`` are all that varies between identical runs."""
    atomic_write_text(Path(out_dir) / MANIFEST_NAME, json.dumps(manifest, indent=2) + "\n")


def load_manifest(path: Path) -> dict:
    """Read a manifest; one that cannot be read or lacks a key replay reads is refused by name.

    The run record (``version`` and the hashes) is not checked here: replay compares
    it with the running one, so a missing entry is refused there as differing.
    """
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise CarbonOptError(f"cannot read manifest {path}: {exc}") from exc
    if not isinstance(raw, dict) or not isinstance(raw.get("args", {}), dict):
        raise CarbonOptError(f"manifest {path} must be a JSON object with an 'args' object")
    for key in ("command", "args", "seed"):
        if key not in raw:
            raise CarbonOptError(f"manifest {path} has no {key!r}")
    return raw
