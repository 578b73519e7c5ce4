"""Golden output pin: sha256 of every result file of fixed commands on ``uk_synthetic``.

A change that is not meant to alter the model must leave these hashes
alone. The manifest is excluded: it records paths and timings.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from carbonopt.cli import main
from carbonopt.scenario import bundled_scenario_path

STEPPED = ",".join(str(30 * (k // 3)) for k in range(18))  # 0 rising by 30 every 3 years

# label -> (command arguments, with {noisy} standing for the noisy scenario file)
CASES = {
    "flat-0": ["simulate", "--scenario", "uk_synthetic", "--policy", "flat:0"],
    "flat-250": ["simulate", "--scenario", "uk_synthetic", "--policy", "flat:250"],
    "linear-8-100": ["simulate", "--scenario", "uk_synthetic", "--policy", "linear:8,100"],
    "linear-m14-250": ["simulate", "--scenario", "uk_synthetic", "--policy", "linear:-14,250"],
    "stepped": ["simulate", "--scenario", "uk_synthetic", "--policy", f"free:{STEPPED}"],
    "noisy": ["simulate", "--scenario", "{noisy}", "--policy", "linear:8,100", "--seed", "11"],
    "optimize-linear": [
        "optimize", "--scenario", "uk_synthetic", "--kind", "linear",
        "--pop", "4", "--gens", "1", "--seed", "0", "--jobs", "1",
    ],
}

GOLDEN = {
    "flat-0": {
        "events.csv": "090d6c60c696f6560e8650d10ef6be94b1d0c470b89f855a894d97875cf252a9",
        "objectives.json": "77b0b65a98b406fa1ec5666ee5163233fb4e98e6726c97ad4a74f25aca0e61b7",
        "per_year.csv": "5b1281cb6a33dafcfd79b5905deb2d57f2144b0090099959d4378a28b6df270d",
        "year_summary.csv": "cb4f5233fcd48b20053e3dd4c517d0ece3ec2a9d09874daa90e06acc8e54360c",
    },
    "flat-250": {
        "events.csv": "cec4cabda973b8b12aae781ca266e0d920d31c95ff70802b8c3183aa4fd313c5",
        "objectives.json": "733d5cfdc53a03db6f227ae63b9888d7071fedcbec5b21e72d771472a13811d5",
        "per_year.csv": "8c08bed016894c6cc0424c9e275d896ccdcc8b839e42b62bbcc2a9c3686e2273",
        "year_summary.csv": "a3911e64a59752a73d2e4c0946f001f97ff64c81ea331cea193bf53193efe653",
    },
    "linear-8-100": {
        "events.csv": "5eb1ccbbacc0d57cff77d27c6f6f87c860b594e8349442e73819782bc7727ff3",
        "objectives.json": "733d5cfdc53a03db6f227ae63b9888d7071fedcbec5b21e72d771472a13811d5",
        "per_year.csv": "fd8ed037a953cf976751b663e432fa314151418e8827d9b110a0ca3751743f02",
        "year_summary.csv": "5d20416f21bbf8c7c0d5ea4789359b18112ffeca0e5b4f1d2c56104788ab6428",
    },
    "linear-m14-250": {
        "events.csv": "eb9556698203668dc3b26ba1796ce1b66326c721ed7127e989e486467c12f847",
        "objectives.json": "64b5c15f5b88c35f7ba1d9703da4fd6b8ec181db1eba8b1ba98eda93d237a9d8",
        "per_year.csv": "63ff982a3e951c5db604adf377a446ba3d34bd43f7e7130a8e90f711aa655eac",
        "year_summary.csv": "87bdd538f859d606f0f987c9910d8c3e24d647fc0016b5ac2e90e1b8372a0913",
    },
    "noisy": {
        "events.csv": "5eb1ccbbacc0d57cff77d27c6f6f87c860b594e8349442e73819782bc7727ff3",
        "objectives.json": "8522c70a2e4a32495860c562e7643764f299bd9acb22685a49860277231d93e3",
        "per_year.csv": "65ff1099322eb64dc1c39c36609c9706077f893acbe231065953854061a946a4",
        "year_summary.csv": "2cf1aca5055799487206143bb61a9a01344164838b9850900370e5cd16770693",
    },
    "optimize-linear": {
        "generations.csv": "e640638c803909bd9eb7473bc719544afc8db501ef44dc320a0673081468a0a5",
        "pareto.json": "e7777eaafa1d389e6d50fc12e314020f815c659169e0e62b5aec3378b8dfcc34",
    },
    "stepped": {
        "events.csv": "6439984a05c107bba82e01f9db9aec8bfff8fa47fa8b78fa9ccd044537a7ada7",
        "objectives.json": "6a7ac00faa5c47469acde5c0931944488ad87fbb2db7904cfff43865d5fc864f",
        "per_year.csv": "25c5e895ff1398cc3f2be3a0576179b429e09d2b7ee688193fe46a17268ae791",
        "year_summary.csv": "90568fc2f792f348a713e52521c1dfc4a3046253230241f26e906ea084b10e8d",
    },
}


def result_hashes(out: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
        if p.name != "manifest.json"
    }


def run_case(label: str, work: Path) -> dict[str, str]:
    noisy = work / "noisy.scenario"
    if not noisy.exists():
        raw = json.loads(bundled_scenario_path("uk_synthetic").read_text(encoding="utf-8"))
        raw["demand_noise_std"] = 0.02
        noisy.write_text(json.dumps(raw), encoding="utf-8")
    out = work / label
    argv = [a.replace("{noisy}", str(noisy)) for a in CASES[label]] + ["--out", str(out)]
    assert main(argv) == 0
    return result_hashes(out)


@pytest.mark.parametrize("label", sorted(CASES))
def test_result_files_match_golden_hashes(label, tmp_path):
    assert run_case(label, tmp_path) == GOLDEN[label]


if __name__ == "__main__":  # print a fresh GOLDEN table: python tests/test_golden.py
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        table = {label: run_case(label, Path(tmp)) for label in CASES}
    print("GOLDEN = " + json.dumps(table, indent=4, sort_keys=True))
