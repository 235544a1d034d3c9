"""Byte-identity gate: the suite reports are pinned by sha256, at the default
config and at two more that move the seed, the k range and the order of the
kinds.

Any change to a construction, a solver, an encoding or a report format that
moves a single byte of runs.csv, runs.jsonl or summary.json fails here; a PR
that changes a format on purpose updates these pins and says so.
"""

import hashlib

import pytest

from relativize import ExperimentConfig, run_suite

PINNED = {
    "runs.csv": "b7e65032c7fd7433d56ba5a61991789248034acc64213d42fa39b9fc4bfdbbc9",
    "runs.jsonl": "595d238c1ec889deeab2b1ef44601c62af74f92a6b846f9811c946fe0271992a",
    "summary.json": "731792bf0070eb0b3b2beab9198145fd647b863edc33eefd7d3caccaca0a77d3",
}

PINNED_SEED_0_K_3_8 = {
    "runs.csv": "369d8d65ed52325874f29b43127b36286f985c952e62135b866158ecf9d74836",
    "runs.jsonl": "aa5c0ae0bc47eb9bb8809b02bd255a95987e47c3c8b37fde96655281591bc7db",
    "summary.json": "5c13a4bc89fd24f37238826870f2bd86c9b088f1ed3e50e9ff24c0dd8ff4649b",
}

PINNED_SEED_7_KINDS_REVERSED = {
    "runs.csv": "01f7d7b4053acf4e3eb1d9299034daa72b3934fc6b10654025281f47db94bfd2",
    "runs.jsonl": "0dfb13251f3127474bbf5b630990594f64b0e5d333b2eb2d0e3c6dd98ef069c5",
    "summary.json": "0914955206e3d432bfc813162538f4d7cca020673f15c06f7358af7a7cf1d0b6",
}

GATES = {
    "default": ({}, PINNED),
    "seed-0-k-3-8": ({"seed": 0, "k_range": (3, 8)}, PINNED_SEED_0_K_3_8),
    "seed-7-kinds-reversed": (
        {"seed": 7, "oracle_kinds": ExperimentConfig().oracle_kinds[::-1]},
        PINNED_SEED_7_KINDS_REVERSED,
    ),
}


@pytest.mark.parametrize("fields, pinned", list(GATES.values()), ids=list(GATES))
def test_default_suite_reports_are_byte_identical(tmp_path, fields, pinned):
    assert run_suite(ExperimentConfig(out_dir=str(tmp_path), **fields)) == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in pinned}
    assert digests == pinned
