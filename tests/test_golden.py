"""Golden output pin: sha256 of every result file of fixed commands on ``uk_synthetic``
and, for the optimizer alone, on the analytic benchmark problems.

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
    # simulate-sweep's "rising" run: its probe markets' merit ranks change partway through
    "linear-6-40": ["simulate", "--scenario", "uk_synthetic", "--policy", "linear:6,40"],
    "stepped": ["simulate", "--scenario", "uk_synthetic", "--policy", f"free:{STEPPED}"],
    "noisy": ["simulate", "--scenario", "{noisy}", "--policy", "linear:8,100", "--seed", "11"],
    "optimize-linear": [
        "optimize", "--scenario", "uk_synthetic", "--kind", "linear",
        "--pop", "4", "--gens", "1", "--seed", "0", "--jobs", "1",
    ],
    # the paper's own encoding, one tax per year
    "optimize-free": [
        "optimize", "--scenario", "uk_synthetic", "--kind", "free",
        "--pop", "8", "--gens", "2", "--seed", "0", "--jobs", "1",
    ],
    # the optimizer alone: truncation, tournaments and both mutation kinds over 10 and 8
    # generations on the analytic problems
    "ga-zdt1": ["benchmark", "--problem", "zdt1", "--pop", "20", "--gens", "10", "--seed", "3"],
    "ga-schaffer": [
        "benchmark", "--problem", "schaffer", "--pop", "12", "--gens", "8", "--seed", "5",
        "--mutation-kind", "per-child",
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
    "ga-schaffer": {
        "generations.csv": "8eb77d05a1a439aaabe9a1ce6a59790be6ede035078494681cecbc3f892ee8d8",
        "pareto.json": "174db8a99b1b2648d06fe81cb9759fdeec8524ae6c64d731e80a2ad3fa368cf4",
    },
    "ga-zdt1": {
        "generations.csv": "1bb227afa21e3a4238ab30933dead08659bcd99164f1ece696d376e01775c151",
        "pareto.json": "d378c1d889f20636f715269848df4df19da12701663f74a501100b90f5306d6d",
    },
    "linear-6-40": {
        "events.csv": "f706b94647eead4ef381881ed537fbce915f3ee63058b8d1934cbc6c565122d1",
        "objectives.json": "d20efec7ffef71f17aefd708d0a78899590ebda8a70d032b6817b633c31287be",
        "per_year.csv": "54bf7c08764525e365cfe33fd65f78b0f44c50f585ce5d18e58dec00b3f93253",
        "year_summary.csv": "0189af7c01fb4c5252d5c25fafe06e4a552287c00268debe3645ff263e8b93c6",
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
    "optimize-free": {
        "generations.csv": "091090a0df559be480cf3e2dd395d097c30baaba6c1502faa4e3d2edfad5e437",
        "pareto.json": "1e6942fe976edd5314781efaa08aa273fd81a258fbaf31b2f8e5efc2c937e0fc",
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
